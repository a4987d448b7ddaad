//! Criterion micro-benchmarks of the two-level priority queue at
//! various backlog sizes (the structure of Fig 5b).

use cameo_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn loaded_queue(ops: u32, msgs_per_op: u32) -> TwoLevelQueue<u64> {
    let mut q = TwoLevelQueue::new();
    for o in 0..ops {
        for m in 0..msgs_per_op {
            q.push(
                OperatorKey::new(JobId(o), 0),
                (o * msgs_per_op + m) as u64,
                Priority::new(m as i64, (o * 31 % 97) as i64),
            );
        }
    }
    q
}

fn bench_push(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_push");
    for ops in [10u32, 100, 1_000] {
        g.bench_with_input(BenchmarkId::from_parameter(ops), &ops, |b, &ops| {
            let mut q = loaded_queue(ops, 4);
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                q.push(
                    OperatorKey::new(JobId((i % ops as i64) as u32), 0),
                    i as u64,
                    Priority::new(i, i % 1_000),
                );
            });
        });
    }
    g.finish();
}

fn bench_pop_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_pop_cycle");
    for ops in [10u32, 100, 1_000] {
        g.bench_with_input(BenchmarkId::from_parameter(ops), &ops, |b, &ops| {
            let mut q = loaded_queue(ops, 64);
            let mut i = 0i64;
            b.iter(|| {
                // Keep the queue at steady state: one in, one out.
                i += 1;
                q.push(
                    OperatorKey::new(JobId((i % ops as i64) as u32), 0),
                    i as u64,
                    Priority::new(i, i % 1_000),
                );
                let lease = q.pop_operator().unwrap();
                let msg = q.next_message(&lease);
                q.check_in(lease);
                std::hint::black_box(msg)
            });
        });
    }
    g.finish();
}

fn bench_peek_best(c: &mut Criterion) {
    c.bench_function("queue_peek_best_1000ops", |b| {
        // `peek_best` is a `&self` read of the first entry of each
        // occupied tier: the run index holds no stale entries.
        let q = loaded_queue(1_000, 8);
        b.iter(|| std::hint::black_box(q.peek_best()));
    });
}

criterion_group!(benches, bench_push, bench_pop_cycle, bench_peek_best);
criterion_main!(benches);
