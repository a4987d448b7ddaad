//! Stress tests for the scheduler's ingress path: N submitters × M
//! workers hammering the submission mailbox, regression tests aimed
//! squarely at the park/wake race window (including a publish that
//! races a drain's buffer swap), and property/stress coverage for the
//! mailbox itself: FIFO must survive pushes and chain publications
//! racing drains, and a populated mailbox must free everything on drop.

use cameo::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn key(job: u32, op: u32) -> OperatorKey {
    OperatorKey::new(JobId(job), op)
}

/// N submitters × M workers: every message is delivered exactly once,
/// and — because every submitter's messages to one operator carry equal
/// priorities and ascending ids — per-operator delivery order must be
/// exactly per-operator submission order once drained (the mailbox's
/// FIFO restoration + the two-level queue's arrival tiebreak).
#[test]
fn mailbox_stress_no_loss_no_dup_fifo_per_operator() {
    const SUBMITTERS: usize = 6;
    const WORKERS: usize = 3;
    const PER_THREAD: u64 = 4_000;
    const OPS_PER_SUBMITTER: u64 = 5;
    const TOTAL: u64 = SUBMITTERS as u64 * PER_THREAD;

    let sched: Arc<ShardedScheduler<(u32, u64)>> = Arc::new(ShardedScheduler::new(
        SchedulerConfig::default().with_quantum(Micros(20)),
    ));
    let consumed = Arc::new(AtomicUsize::new(0));
    // op id -> delivered message ids, appended while the lease is held,
    // so the per-op order here is the true delivery order.
    let delivered: Arc<Mutex<HashMap<u32, Vec<u64>>>> = Arc::new(Mutex::new(HashMap::new()));

    let submitters: Vec<_> = (0..SUBMITTERS as u64)
        .map(|t| {
            let sched = sched.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Disjoint operators per submitter: per-op
                    // submission order is this thread's program order.
                    let op = (t * OPS_PER_SUBMITTER + i % OPS_PER_SUBMITTER) as u32;
                    // Equal priorities within an operator, so delivery
                    // order == submission order is a hard requirement.
                    sched.submit(key(0, op), (op, i), Priority::uniform(t as i64));
                }
            })
        })
        .collect();

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let sched = sched.clone();
            let consumed = consumed.clone();
            let delivered = delivered.clone();
            std::thread::spawn(move || {
                let mut now = 0u64;
                // The runtime's worker loop: the step, parking when it
                // has nothing to run.
                let mut step = WorkerStep::new(w as u16);
                while step.holds() || consumed.load(Ordering::Acquire) < TOTAL as usize {
                    match step.next(&mut &*sched, PhysicalTime(now)) {
                        StepOutcome::Run(_, (op, id), _) => {
                            // Holding the lease serializes this append with
                            // every other delivery of the same operator.
                            delivered.lock().unwrap().entry(op).or_default().push(id);
                            consumed.fetch_add(1, Ordering::AcqRel);
                            now += 5;
                        }
                        StepOutcome::Released => {}
                        StepOutcome::Empty => sched.park(Duration::from_millis(1)),
                    }
                }
                sched.notify_all();
            })
        })
        .collect();

    for h in submitters {
        h.join().unwrap();
    }
    for h in workers {
        h.join().unwrap();
    }

    let delivered = Arc::try_unwrap(delivered).unwrap().into_inner().unwrap();
    let total: usize = delivered.values().map(|v| v.len()).sum();
    assert_eq!(total, TOTAL as usize, "messages lost or duplicated");
    assert_eq!(
        delivered.len(),
        SUBMITTERS * OPS_PER_SUBMITTER as usize,
        "every operator saw traffic"
    );
    for (op, ids) in &delivered {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "operator {op}: equal-priority delivery order broke submission \
             order (ids {:?}...)",
            &ids[..ids.len().min(16)]
        );
    }
    assert!(sched.is_empty());
    let stats = sched.stats();
    assert_eq!(stats.messages_scheduled, TOTAL);
    assert_eq!(
        stats.mailbox_drained, TOTAL,
        "every message travelled through a mailbox"
    );
}

/// FIFO under concurrency: N producers (mixing single pushes and
/// `push_chain` batches) against a drain loop that swaps the inbox out
/// under them. Per-producer submission order must survive, and nothing
/// may be lost or duplicated.
#[test]
fn concurrent_pushes_and_chains_preserve_per_producer_fifo() {
    const PRODUCERS: u64 = 6;
    const PER: u64 = 8_000;
    const CHAIN: u64 = 16;
    let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new());
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|t| {
            let mb = mb.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while i < PER {
                    if i % (2 * CHAIN) < CHAIN {
                        // A batch: one publication for CHAIN messages.
                        let base = i;
                        mb.push_chain((0..CHAIN).map(|k| {
                            (
                                OperatorKey::new(JobId(0), t as u32),
                                t * PER + base + k,
                                Priority::uniform(0),
                            )
                        }));
                        i += CHAIN;
                    } else {
                        mb.push(
                            OperatorKey::new(JobId(0), t as u32),
                            t * PER + i,
                            Priority::uniform(0),
                        );
                        i += 1;
                    }
                }
            })
        })
        .collect();
    // Drain concurrently with the producers.
    let mut got: Vec<u64> = Vec::new();
    while got.len() < (PRODUCERS * PER) as usize {
        mb.drain(|m| got.push(m.msg));
    }
    for h in handles {
        h.join().unwrap();
    }
    mb.drain(|m| got.push(m.msg));
    assert_eq!(got.len(), (PRODUCERS * PER) as usize, "lost or duplicated");
    for t in 0..PRODUCERS {
        let sub: Vec<u64> = got.iter().copied().filter(|v| v / PER == t).collect();
        assert_eq!(sub.len(), PER as usize, "producer {t} count off");
        assert!(
            sub.windows(2).all(|w| w[0] < w[1]),
            "producer {t}: a racing drain scrambled submission order"
        );
    }
}

/// Single-threaded interleaving property: any mix of pushes, chain
/// publishes and partial drains preserves global FIFO order exactly
/// (one thread ⇒ total submission order is well defined).
#[derive(Clone, Debug)]
enum MbOp {
    Push,
    Chain { len: u8 },
    Drain,
}

fn mb_ops() -> impl Strategy<Value = Vec<MbOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..1).prop_map(|_| MbOp::Push),
            (1u8..9).prop_map(|len| MbOp::Chain { len }),
            (0u8..1).prop_map(|_| MbOp::Drain),
        ],
        1..80,
    )
}

proptest! {
    #[test]
    fn mailbox_fifo_survives_arbitrary_interleaving(ops in mb_ops()) {
        let mb: Mailbox<u64> = Mailbox::new();
        let mut next = 0u64;
        let mut expect = std::collections::VecDeque::new();
        let mut got = Vec::new();
        for op in ops {
            match op {
                MbOp::Push => {
                    mb.push(OperatorKey::new(JobId(0), 0), next, Priority::uniform(0));
                    expect.push_back(next);
                    next += 1;
                }
                MbOp::Chain { len } => {
                    let base = next;
                    let n = mb.push_chain((0..len as u64).map(|k| {
                        (OperatorKey::new(JobId(0), 0), base + k, Priority::uniform(0))
                    }));
                    prop_assert_eq!(n, len as usize);
                    for k in 0..len as u64 {
                        expect.push_back(base + k);
                    }
                    next += len as u64;
                }
                MbOp::Drain => {
                    mb.drain(|m| got.push(m.msg));
                }
            }
        }
        mb.drain(|m| got.push(m.msg));
        prop_assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }
}

/// Drop/leak check: a mailbox dropped with mail still queued — after
/// its buffer has grown and been swapped out once — must drop every
/// payload exactly once (the counter catches leaks and double drops).
#[test]
fn populated_mailbox_frees_everything_on_drop() {
    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    const LIVE: usize = 768;
    {
        let mb: Mailbox<Tracked> = Mailbox::new();
        let mut spare = Vec::new();
        // Churn first, so the inbox that is dropped is the swapped-in
        // spare of an earlier drain.
        for _ in 0..200 {
            mb.push(
                OperatorKey::new(JobId(0), 0),
                Tracked(drops.clone()),
                Priority::uniform(0),
            );
        }
        mb.swap(&mut spare);
        spare.clear();
        let drained = drops.swap(0, Ordering::Relaxed);
        assert_eq!(drained, 200, "the drain consumed the churn payloads");
        mb.swap(&mut spare);
        for _ in 0..LIVE {
            mb.push(
                OperatorKey::new(JobId(0), 0),
                Tracked(drops.clone()),
                Priority::uniform(0),
            );
        }
        mb.push_chain((0..LIVE).map(|_| {
            (
                OperatorKey::new(JobId(0), 0),
                Tracked(drops.clone()),
                Priority::uniform(0),
            )
        }));
        assert!(mb.capacity() >= 2 * LIVE);
        // Dropped here with 2 × LIVE payloads still queued.
    }
    assert_eq!(
        drops.load(Ordering::Relaxed),
        2 * LIVE,
        "drop must free every queued payload exactly once"
    );
}

/// Regression test for the lost-wakeup window: a submit that lands
/// *between* a parker's predicate check and its condvar wait must still
/// wake it. One worker round-trips park→acquire while the main thread
/// submits exactly one message per round and waits for it to be
/// consumed — with the race unfixed, some round stalls for the full
/// 10 s park timeout and the per-round deadline below trips.
#[test]
fn submit_during_park_race_window_always_wakes() {
    const ROUNDS: usize = 300;
    let sched: Arc<ShardedScheduler<u64>> = Arc::new(ShardedScheduler::new(
        SchedulerConfig::default().with_quantum(Micros(0)),
    ));
    let consumed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicUsize::new(0));

    let worker = {
        let sched = sched.clone();
        let consumed = consumed.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while stop.load(Ordering::Acquire) == 0 {
                match sched.acquire(0, PhysicalTime::ZERO) {
                    Some(exec) => {
                        while sched.take_message(&exec).is_some() {
                            consumed.fetch_add(1, Ordering::AcqRel);
                        }
                        sched.release(exec);
                    }
                    // The dangerous moment: going to sleep right as the
                    // next round's submit flies in. Long timeout so a
                    // lost wakeup is loud, not papered over.
                    None => sched.park(Duration::from_secs(10)),
                }
            }
        })
    };

    for r in 0..ROUNDS {
        sched.submit(key(0, (r % 7) as u32), r as u64, Priority::uniform(1));
        let deadline = Instant::now() + Duration::from_secs(5);
        while consumed.load(Ordering::Acquire) < r + 1 {
            assert!(
                Instant::now() < deadline,
                "round {r}: worker slept through a submit (lost wakeup)"
            );
            std::hint::spin_loop();
        }
    }
    stop.store(1, Ordering::Release);
    sched.notify_all();
    worker.join().unwrap();
    assert!(sched.is_empty());
}

/// Same window, many workers parking concurrently on one condvar: no
/// submission may be stranded while every worker sleeps.
#[test]
fn bursty_submits_never_strand_parked_pool() {
    const WORKERS: usize = 4;
    const BURSTS: usize = 50;
    const BURST: u64 = 64;
    let sched: Arc<ShardedScheduler<u64>> = Arc::new(ShardedScheduler::new(
        SchedulerConfig::default().with_quantum(Micros(0)),
    ));
    let consumed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let sched = sched.clone();
            let consumed = consumed.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    match sched.acquire(w, PhysicalTime::ZERO) {
                        Some(exec) => {
                            while sched.take_message(&exec).is_some() {
                                consumed.fetch_add(1, Ordering::AcqRel);
                            }
                            sched.release(exec);
                        }
                        None => sched.park(Duration::from_secs(10)),
                    }
                }
            })
        })
        .collect();

    let mut sent = 0usize;
    for b in 0..BURSTS {
        if b % 2 == 0 {
            // Batched bursts: one chain splice + one wake — the wake
            // handshake must hold for these too.
            sent += sched.submit_batch((0..BURST).map(|i| {
                (
                    key(0, (b as u64 * BURST + i) as u32 % 61),
                    i,
                    Priority::uniform(i as i64),
                )
            }));
        } else {
            for i in 0..BURST {
                sched.submit(
                    key(0, (b as u64 * BURST + i) as u32 % 61),
                    i,
                    Priority::uniform(i as i64),
                );
                sent += 1;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while consumed.load(Ordering::Acquire) < sent {
            assert!(
                Instant::now() < deadline,
                "burst {b}: pool stranded with {} of {sent} consumed",
                consumed.load(Ordering::Acquire)
            );
            std::thread::yield_now();
        }
    }
    stop.store(1, Ordering::Release);
    sched.notify_all();
    for h in workers {
        h.join().unwrap();
    }
    assert!(sched.is_empty());
}

/// `ShardedScheduler::len()` is a gauge readers act on (`Runtime::drain`
/// waits for it to read zero), so while submitters race a draining
/// worker it must never read above the messages still inside — a
/// decrement landing before its increment wraps it to ~`usize::MAX` —
/// and must read exactly zero once everything submitted was taken.
/// Every submit path counts a message before it publishes it; at the
/// parent commit they published first. More submitters than cores, so
/// that some are preempted between the two steps.
#[test]
fn len_never_wraps_while_submitters_race_a_draining_worker() {
    const SUBMITTERS: u64 = 8;
    const ROUNDS: u64 = 4_000;
    const BATCH: u64 = 5;
    // One single message and one batch per round.
    const TOTAL: usize = (SUBMITTERS * ROUNDS * (1 + BATCH)) as usize;
    let sched: Arc<ShardedScheduler<u64>> = Arc::new(ShardedScheduler::new(
        SchedulerConfig::default().with_quantum(Micros(0)),
    ));
    // Bumped by a submitter *before* its submit call, by the worker
    // *after* its take returned: `started - taken`, read in that
    // order around a `len()`, bounds what can be inside.
    let started = Arc::new(AtomicUsize::new(0));
    let taken = Arc::new(AtomicUsize::new(0));
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let (sched, started) = (sched.clone(), started.clone());
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let op = |n: u64| key(0, ((t + i + n) % 7) as u32);
                    started.fetch_add(1, Ordering::SeqCst);
                    sched.submit(op(0), i, Priority::uniform(i as i64));
                    started.fetch_add(BATCH as usize, Ordering::SeqCst);
                    sched.submit_batch((0..BATCH).map(|b| (op(b), i, Priority::uniform(0))));
                }
            })
        })
        .collect();
    let check = |sched: &ShardedScheduler<u64>, out: usize| {
        let len = sched.len();
        let inside = started.load(Ordering::SeqCst) - out;
        assert!(
            len <= inside,
            "len() read {len} with at most {inside} messages inside"
        );
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut out = 0;
            while out < TOTAL {
                let Some(exec) = sched.acquire(0, PhysicalTime::ZERO) else {
                    std::thread::yield_now();
                    continue;
                };
                while sched.take_message(&exec).is_some() {
                    // Right after a take is when a late increment
                    // shows: this message's decrement has landed.
                    check(&sched, out);
                    out += 1;
                    taken.store(out, Ordering::SeqCst);
                }
                sched.release(exec);
            }
        });
        while taken.load(Ordering::SeqCst) < TOTAL {
            check(&sched, taken.load(Ordering::SeqCst));
            std::thread::yield_now();
        }
    });
    for h in submitters {
        h.join().unwrap();
    }
    assert_eq!(sched.len(), 0, "everything taken: the gauge reads empty");
    assert!(sched.is_empty());
}

/// `Runtime::queue_len()` is this gauge: read while submitters and two
/// draining workers move messages around (an operator's leases migrate
/// between the workers, so its messages leave the count from both
/// threads), it never reads above the number of messages submitted — a
/// wrapped counter would read as ~`usize::MAX` — and it reads zero once
/// everything is taken.
#[test]
fn len_stays_bounded_while_operators_migrate() {
    const WORKERS: usize = 2;
    const SUBMITTERS: u64 = 4;
    const ROUNDS: u64 = 10_000;
    const BATCH: u64 = 4;
    const OPS: u64 = 6;
    const TOTAL: usize = (SUBMITTERS * ROUNDS * (1 + BATCH)) as usize;
    let sched: Arc<ShardedScheduler<u64>> = Arc::new(ShardedScheduler::new(
        SchedulerConfig::default().with_quantum(Micros(0)),
    ));
    // Bumped *before* each submit call, so it bounds what can be inside.
    let submitted = Arc::new(AtomicUsize::new(0));
    let taken = Arc::new(AtomicUsize::new(0));
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let (sched, submitted) = (sched.clone(), submitted.clone());
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let op = |n: u64| key(0, ((t + i + n) % OPS) as u32);
                    submitted.fetch_add(1, Ordering::SeqCst);
                    sched.submit(op(0), i, Priority::uniform(i as i64));
                    submitted.fetch_add(BATCH as usize, Ordering::SeqCst);
                    sched.submit_batch((0..BATCH).map(|b| (op(b), i, Priority::uniform(0))));
                }
            })
        })
        .collect();
    let check = |sched: &ShardedScheduler<u64>| {
        let len = sched.len();
        let submitted = submitted.load(Ordering::SeqCst);
        assert!(
            len <= submitted,
            "len() read {len} with {submitted} messages submitted"
        );
    };
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let (sched, taken, check) = (&sched, &taken, &check);
            scope.spawn(move || {
                while taken.load(Ordering::SeqCst) < TOTAL {
                    let Some(exec) = sched.acquire(w, PhysicalTime::ZERO) else {
                        std::thread::yield_now();
                        continue;
                    };
                    while sched.take_message(&exec).is_some() {
                        check(sched);
                        taken.fetch_add(1, Ordering::SeqCst);
                    }
                    sched.release(exec);
                }
            });
        }
        while taken.load(Ordering::SeqCst) < TOTAL {
            check(&sched);
            std::thread::yield_now();
        }
    });
    for h in submitters {
        h.join().unwrap();
    }
    assert_eq!(taken.load(Ordering::SeqCst), TOTAL);
    assert_eq!(sched.len(), 0, "everything taken: the gauge reads empty");
}

/// A publish that races a drain never leaves `is_empty()` reading true
/// over queued mail. `ShardedScheduler::park` and the scheduler's drain
/// fast path both trust that flag, so a lapse here is a worker parked
/// on mail no wakeup will announce. The flag is written under the inbox
/// lock by every publish and by the drain's swap. Producers contend on
/// that lock, so the drainer's unlock often has to wake a blocked
/// producer; a flag cleared after the unlock would lose a push made in
/// that gap. The drainer, the only consumer, checks at every instant
/// it sees no push in flight: "empty" must then mean every finished
/// push was drained.
#[test]
fn publish_racing_a_drain_never_hides_mail_from_a_parker() {
    const PRODUCERS: u64 = 8;
    const BURSTS: u64 = 5_000;
    const BURST: u64 = 4;
    const TOTAL: usize = (PRODUCERS * BURSTS * BURST) as usize;
    let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new());
    // Bumped before a push starts and after it returns.
    let started = Arc::new(AtomicUsize::new(0));
    let finished = Arc::new(AtomicUsize::new(0));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|t| {
            let (mb, started, finished) = (mb.clone(), started.clone(), finished.clone());
            std::thread::spawn(move || {
                for b in 0..BURSTS {
                    for i in 0..BURST {
                        started.fetch_add(1, Ordering::SeqCst);
                        mb.push(key(0, t as u32), b * BURST + i, Priority::uniform(0));
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    let mut drained = 0usize;
    let mut checks = 0usize;
    while drained < TOTAL {
        let before = started.load(Ordering::SeqCst);
        let done = finished.load(Ordering::SeqCst);
        let empty = mb.is_empty();
        if empty && before == done && started.load(Ordering::SeqCst) == before {
            // No push was in flight across the flag read: all `done`
            // pushes had published, so "empty" means all were drained.
            checks += 1;
            assert_eq!(
                drained,
                done,
                "is_empty() read true with {} finished pushes undrained",
                done - drained
            );
        }
        if !empty {
            drained += mb.drain(|_| {});
        }
    }
    for h in producers {
        h.join().unwrap();
    }
    assert!(checks > 0, "the drainer never saw a quiescent instant");
    assert!(mb.is_empty());
}
