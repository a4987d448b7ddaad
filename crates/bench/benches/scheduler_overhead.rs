//! Criterion micro-benchmarks for Fig 12 (left): per-message cost of
//! FIFO queueing vs two-level priority scheduling vs full Cameo
//! (scheduling + priority generation), plus the per-message cost of the
//! sharded scheduler (single-threaded: what sharding *itself* costs; the
//! contended multi-worker picture is `cargo run --release --bin
//! bench_sharded_scheduler`).

use cameo_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::VecDeque;

fn bench_fifo_queue(c: &mut Criterion) {
    c.bench_function("fifo_queue_push_pop", |b| {
        let mut queue: VecDeque<(OperatorKey, u64)> = VecDeque::with_capacity(1024);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            queue.push_back((OperatorKey::new(JobId((i % 300) as u32), 0), i));
            std::hint::black_box(queue.pop_front())
        });
    });
}

fn bench_priority_scheduling(c: &mut Criterion) {
    c.bench_function("cameo_submit_acquire_take_release", |b| {
        let mut sched: CameoScheduler<u64> = CameoScheduler::default();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = OperatorKey::new(JobId((i % 300) as u32), 0);
            sched.submit(key, i, Priority::new(0, i as i64));
            let exec = sched.acquire(PhysicalTime(i)).unwrap();
            let msg = sched.take_message(&exec);
            sched.release(exec);
            std::hint::black_box(msg)
        });
    });
}

fn bench_full_cameo(c: &mut Criterion) {
    c.bench_function("cameo_with_priority_generation", |b| {
        let mut sched: CameoScheduler<u64> = CameoScheduler::default();
        let mut states: Vec<ConverterState> = (0..300)
            .map(|t| ConverterState::new(OperatorKey::new(JobId(t), 0), TimeDomain::EventTime))
            .collect();
        let hop = HopInfo {
            edge: 0,
            sender_slide: Slide::UNIT,
            target_slide: Slide(1_000_000),
        };
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let t = (i % 300) as usize;
            let key = OperatorKey::new(JobId(t as u32), 0);
            let stamp = MessageStamp {
                progress: LogicalTime(i),
                time: PhysicalTime(i + 50),
            };
            let pc = LlfPolicy.build_at_source(
                JobId(t as u32),
                stamp,
                Micros::from_millis(800),
                &hop,
                &mut states[t],
            );
            sched.submit(key, i, pc.priority);
            let exec = sched.acquire(PhysicalTime(i)).unwrap();
            let msg = sched.take_message(&exec);
            sched.release(exec);
            std::hint::black_box(msg)
        });
    });
}

fn bench_quantum_decision(c: &mut Criterion) {
    // One `decide` with a lax operator in hand (10 ms to its start
    // deadline) and one operator pending, per case: where on the lease
    // the decision falls, what tier the pending operator is in, and the
    // outcome. Before the quantum a pending peer costs one test of the
    // occupied-tier mask; only a stricter tier pays the heap peek the
    // past-the-quantum path always pays.
    const LAX: u8 = 18;
    const STRICT: u8 = 13;
    for (name, now, pending_tier) in [
        ("scheduler_decide", 2_000, LAX),
        ("scheduler_decide_before_quantum_peer_pending", 500, LAX),
        (
            "scheduler_decide_before_quantum_stricter_tier_swaps",
            500,
            STRICT,
        ),
    ] {
        // `decide` changes nothing but counters, so one scheduler
        // serves every iteration and only the call is timed.
        let mut sched: CameoScheduler<u64> = CameoScheduler::default();
        let key = OperatorKey::new(JobId(0), 0);
        sched.submit(key, 1, Priority::uniform(10_000).with_tier(LAX));
        sched.submit(key, 2, Priority::uniform(10_400).with_tier(LAX));
        let exec = sched.acquire(PhysicalTime::ZERO).unwrap();
        let _ = sched.take_message(&exec);
        sched.submit(
            OperatorKey::new(JobId(1), 0),
            3,
            Priority::uniform(9_000).with_tier(pending_tier),
        );
        c.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(sched.decide(&exec, PhysicalTime(now))));
        });
    }
}

fn bench_sharded_scheduling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharded_submit_acquire_take_release");
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                let sched: ShardedScheduler<u64> =
                    ShardedScheduler::new(SchedulerConfig::default().with_shards(shards));
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    let key = OperatorKey::new(JobId((i % 300) as u32), 0);
                    sched.submit(key, i, Priority::new(0, i as i64));
                    let exec = sched.acquire(i as usize, PhysicalTime(i)).unwrap();
                    let msg = sched.take_message(&exec);
                    sched.release(exec);
                    std::hint::black_box(msg)
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fifo_queue,
    bench_priority_scheduling,
    bench_full_cameo,
    bench_quantum_decision,
    bench_sharded_scheduling
);
criterion_main!(benches);
