//! Criterion micro-benchmarks for Fig 12 (left): per-message cost of
//! FIFO queueing vs two-level priority scheduling vs full Cameo
//! (scheduling + priority generation), plus the per-message cost of the
//! sharded scheduler — single-threaded (what sharding *itself* costs)
//! and contended by 1, 2 and 4 threads against one mutex-guarded
//! scheduler (`contended_cycle`).

use cameo_core::prelude::*;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
    c.bench_function("scheduler_decide", |b| {
        b.iter_batched(
            || {
                let mut sched: CameoScheduler<u64> = CameoScheduler::default();
                let key = OperatorKey::new(JobId(0), 0);
                sched.submit(key, 1, Priority::uniform(10));
                sched.submit(key, 2, Priority::uniform(20));
                sched.submit(OperatorKey::new(JobId(1), 0), 3, Priority::uniform(5));
                let exec = sched.acquire(PhysicalTime::ZERO).unwrap();
                let _ = sched.take_message(&exec);
                (sched, exec)
            },
            |(mut sched, exec)| {
                let d = sched.decide(&exec, PhysicalTime(2_000));
                std::hint::black_box(d)
            },
            BatchSize::SmallInput,
        );
    });
    // The cost of the path before the quantum, beside the one past it.
    // A lax operator in hand (10 ms to its start deadline) and one
    // operator pending that is due earlier, per case: where on the
    // lease the decision falls, the pending operator's tier, and the
    // outcome. `decide` changes nothing but counters, so one scheduler
    // serves every iteration and only the call is timed — unlike
    // `scheduler_decide` above, which also times the scheduler it
    // consumes and is kept as it was for its record.
    const LAX: u8 = 18;
    const STRICT: u8 = 13;
    for (name, now, pending_tier) in [
        ("scheduler_decide_call_past_quantum_swaps", 2_000, LAX),
        (
            "scheduler_decide_call_before_quantum_peer_pending",
            500,
            LAX,
        ),
        (
            "scheduler_decide_call_before_quantum_stricter_tier_swaps",
            500,
            STRICT,
        ),
    ] {
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

/// One `ShardedScheduler::decide` that ends in Continue, per message of
/// a lease, with other shards to look at: what a worker pays at every
/// message boundary in a pool of `shards` shards. Before the quantum a
/// flat-tier pool (and a lease in the pool's strictest tier) reads one
/// word; a lax lease in a pool that has seen a stricter tier scans the
/// other shards' hints, as every lease does past the quantum.
fn bench_sharded_decision(c: &mut Criterion) {
    const LAX: u8 = 18;
    const STRICT: u8 = 13;
    let mut g = c.benchmark_group("sharded_decide_continue");
    for shards in [2usize, 4, 8] {
        for (name, now, in_hand_tier, other_tier) in [
            ("before_quantum_flat_tiers", 500, 0, 0),
            (
                "before_quantum_lax_lease_strict_elsewhere",
                500,
                LAX,
                STRICT,
            ),
            ("past_quantum", 2_000, LAX, STRICT),
        ] {
            let sched: ShardedScheduler<u64> =
                ShardedScheduler::new(SchedulerConfig::default().with_shards(shards));
            let key_on = |s: usize| {
                let mut keys = (0..4096).map(|op| OperatorKey::new(JobId(0), op));
                keys.find(|&k| sched.shard_of(k) == s).unwrap()
            };
            // In hand on shard 0, due at 10 ms; every other shard holds
            // one operator due later, so nothing outranks the lease.
            for m in 0..2 {
                sched.submit(
                    key_on(0),
                    m,
                    Priority::uniform(10_000).with_tier(in_hand_tier),
                );
            }
            let exec = sched.acquire(0, PhysicalTime::ZERO).unwrap();
            let _ = sched.take_message(&exec);
            for s in 1..shards {
                sched.submit(
                    key_on(s),
                    9,
                    Priority::uniform(20_000 + s as i64).with_tier(other_tier),
                );
            }
            g.bench_with_input(BenchmarkId::new(name, shards), &shards, |b, _| {
                b.iter(|| std::hint::black_box(sched.decide(&exec, PhysicalTime(now))));
            });
        }
    }
    g.finish();
}

/// What a yield point costs when nothing stricter is waiting — the
/// price an operator pays per call in the common case — and what
/// calling one every 32 spins does to `SpinMap`'s 400 µs burn. The
/// hook is the runtime worker's: the lock-free pre-check, then
/// `acquire_preempting` only if it says yes. A lax lease is held with
/// its message in flight and a lax peer queued; in the two-tier pool a
/// strict operator has come and gone, so the pool's strictest tier is
/// below the lease's and the pre-check reads the shard's tier hint too.
fn bench_yield_point(c: &mut Criterion) {
    use cameo_dataflow::event::{Batch, Tuple};
    use cameo_dataflow::operator::Operator;
    use cameo_dataflow::ops::SpinMap;
    use cameo_dataflow::preempt;
    use std::rc::Rc;
    use std::time::{Duration, Instant};

    const LAX: u8 = 18;
    const STRICT: u8 = 13;
    let mut g = c.benchmark_group("yield_point_idle");
    g.bench_function("no_hook", |b| b.iter(preempt::yield_point));
    for (name, tier, strict_seen) in [("flat_pool", 0, false), ("two_tier_pool", LAX, true)] {
        let sched: Rc<ShardedScheduler<u64>> =
            Rc::new(ShardedScheduler::new(SchedulerConfig::default()));
        let lax = |g: i64| Priority::uniform(g).with_tier(tier);
        if strict_seen {
            let strict = OperatorKey::new(JobId(2), 0);
            sched.submit(strict, 0, Priority::uniform(9_000).with_tier(STRICT));
            let exec = sched.acquire(0, PhysicalTime::ZERO).unwrap();
            let _ = sched.take_message(&exec);
            sched.release(exec);
        }
        sched.submit(OperatorKey::new(JobId(0), 0), 1, lax(10_000));
        let exec = sched.acquire(0, PhysicalTime::ZERO).unwrap();
        let (_, mine) = sched.take_message(&exec).unwrap();
        sched.submit(OperatorKey::new(JobId(1), 0), 2, lax(20_000));
        let hook = {
            let sched = sched.clone();
            move || {
                if !sched.stricter_tier_waiting(mine.tier()) {
                    return Duration::ZERO;
                }
                let started = Instant::now();
                while let Some(nested) =
                    sched.acquire_preempting(0, mine, JobId(0), PhysicalTime::ZERO)
                {
                    while sched.take_message(&nested).is_some() {}
                    sched.release(nested);
                }
                started.elapsed()
            }
        };
        let _hook = preempt::install(hook);
        g.bench_function(name, |b| b.iter(preempt::yield_point));
        let batch = Batch::new(vec![Tuple::new(1, 1, LogicalTime(1))], PhysicalTime(0));
        let mut spin = SpinMap::new(Micros(400));
        let mut out = Vec::with_capacity(1);
        g.bench_function(&format!("spin_map_400us_burn/{name}"), |b| {
            b.iter(|| {
                out.clear();
                spin.on_batch(0, &batch, PhysicalTime(0), &mut out);
            })
        });
        assert_eq!(sched.stats().yield_preemptions, 0, "nothing was stricter");
        sched.release(exec);
    }
    g.finish();
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

/// Operators each contending thread owns; enough that leases rotate.
const OPS_PER_THREAD: u32 = 32;
/// Messages a contending thread submits before it drains.
const BURST: u64 = 4;

/// One scoped thread per `keys` entry, sharing `msgs` messages at a
/// runtime worker's cadence: thread `t` submits a burst of [`BURST`]
/// over `keys[t]`, then runs `lease(t, now)` — one acquire, take every
/// message, release; `None` if nothing could be acquired — until its
/// own burst is taken or nothing is left to acquire. A peer may take
/// some of it; what is left when every thread has finished is leased
/// after the join, inside the timing. Returns the wall time.
fn closed_loop(
    msgs: u64,
    keys: &[Vec<OperatorKey>],
    submit: impl Fn(OperatorKey, u64) + Sync,
    lease: impl Fn(usize, u64) -> Option<u64> + Sync,
) -> Duration {
    let workers = keys.len() as u64;
    let started = Instant::now();
    std::thread::scope(|s| {
        for (t, keys) in keys.iter().enumerate() {
            let (submit, lease) = (&submit, &lease);
            let share = msgs / workers + u64::from((t as u64) < msgs % workers);
            s.spawn(move || {
                let mut sent = 0;
                while sent < share {
                    let mut backlog = BURST.min(share - sent);
                    for _ in 0..backlog {
                        sent += 1;
                        submit(keys[(sent % keys.len() as u64) as usize], sent);
                    }
                    while backlog > 0 {
                        let Some(taken) = lease(t, sent) else { break };
                        backlog = backlog.saturating_sub(taken);
                    }
                }
            });
        }
    });
    for t in 0..keys.len() {
        while lease(t, msgs).is_some() {}
    }
    started.elapsed()
}

/// The contention table: W threads in a closed submit → acquire → take
/// → release loop, either all locking one `Mutex<CameoScheduler>` for
/// every call, or each on its own shard of a `ShardedScheduler` with
/// its operators homed there. One iteration is one message, so ns/iter
/// is wall time per message across all W threads. On a host with fewer
/// cores than W, the threads time-slice: the cell then measures what
/// contention costs, not how far the scheduler scales.
fn bench_contended_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("contended_cycle");
    for workers in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("mutex", workers), &workers, |b, &w| {
            let keys: Vec<Vec<OperatorKey>> = (0..w)
                .map(|t| {
                    (0..OPS_PER_THREAD)
                        .map(|op| OperatorKey::new(JobId(t as u32), op))
                        .collect()
                })
                .collect();
            b.iter_custom(|iters| {
                let sched = Mutex::new(CameoScheduler::<u64>::default());
                let elapsed = closed_loop(
                    iters,
                    &keys,
                    |key, i| {
                        sched
                            .lock()
                            .unwrap()
                            .submit(key, i, Priority::new(0, i as i64));
                    },
                    |_, now| {
                        let exec = sched.lock().unwrap().acquire(PhysicalTime(now))?;
                        let mut taken = 0;
                        while sched.lock().unwrap().take_message(&exec).is_some() {
                            taken += 1;
                        }
                        sched.lock().unwrap().release(exec);
                        Some(taken)
                    },
                );
                assert!(sched.lock().unwrap().is_empty(), "every message taken");
                elapsed
            });
        });
        g.bench_with_input(BenchmarkId::new("sharded", workers), &workers, |b, &w| {
            let config = SchedulerConfig::default().with_shards(w);
            let probe: ShardedScheduler<u64> = ShardedScheduler::new(config);
            let keys: Vec<Vec<OperatorKey>> = (0..w)
                .map(|t| {
                    (0..)
                        .map(|op| OperatorKey::new(JobId(t as u32), op))
                        .filter(|&k| probe.shard_of(k) == t)
                        .take(OPS_PER_THREAD as usize)
                        .collect()
                })
                .collect();
            b.iter_custom(|iters| {
                let sched: ShardedScheduler<u64> = ShardedScheduler::new(config);
                let elapsed = closed_loop(
                    iters,
                    &keys,
                    |key, i| {
                        sched.submit(key, i, Priority::new(0, i as i64));
                    },
                    |t, now| {
                        let exec = sched.acquire(t, PhysicalTime(now))?;
                        let mut taken = 0;
                        while sched.take_message(&exec).is_some() {
                            taken += 1;
                        }
                        sched.release(exec);
                        Some(taken)
                    },
                );
                assert!(sched.is_empty(), "every message taken");
                elapsed
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fifo_queue,
    bench_priority_scheduling,
    bench_full_cameo,
    bench_quantum_decision,
    bench_sharded_decision,
    bench_yield_point,
    bench_sharded_scheduling,
    bench_contended_cycle
);
criterion_main!(benches);
