//! The headline claims, as executable tests: under contention Cameo
//! keeps latency-sensitive jobs' latency at or below every baseline,
//! token allocations turn into throughput shares, answers never depend
//! on the scheduler — and the mailbox in front of the shared scheduler
//! changes no drain order and never loses or duplicates a message under
//! concurrent submit/drain.

use cameo::prelude::*;
use proptest::prelude::*;

fn mix(sched: SchedulerKind, ba_rate: f64) -> SimReport {
    let costs = StageCosts::default().scaled(4.0);
    let mut sc = Scenario::new(ClusterSpec::new(2, 4), sched)
        .with_seed(21)
        .with_cost(CostConfig {
            per_tuple_ns: 400,
            ..Default::default()
        });
    for i in 0..2 {
        sc.add_job(
            agg_query(
                &AggQueryParams::new(format!("LS-{i}"), 1_000_000, Micros::from_millis(800))
                    .with_sources(8)
                    .with_parallelism(4)
                    .with_costs(costs),
            ),
            WorkloadSpec::constant(8, 1.0, 100, Micros::from_secs(15)),
        );
    }
    for i in 0..4 {
        sc.add_job(
            agg_query(
                &AggQueryParams::new(format!("BA-{i}"), 10_000_000, Micros::from_secs(7200))
                    .with_sources(8)
                    .with_parallelism(4)
                    .with_costs(costs)
                    .with_keys(256),
            ),
            WorkloadSpec::constant(8, ba_rate, 100, Micros::from_secs(15)),
        );
    }
    sc.run()
}

#[test]
fn cameo_protects_ls_jobs_under_contention() {
    let ls = [0usize, 1];
    // Near saturation of the 2x4 cluster.
    let cameo = mix(SchedulerKind::Cameo(PolicyKind::Llf), 55.0);
    let fifo = mix(SchedulerKind::Fifo, 55.0);
    let orleans = mix(SchedulerKind::OrleansLike, 55.0);
    let c99 = cameo.group_percentiles(&ls, &[99.0])[0];
    let f99 = fifo.group_percentiles(&ls, &[99.0])[0];
    let o99 = orleans.group_percentiles(&ls, &[99.0])[0];
    assert!(
        c99 <= f99,
        "Cameo p99 ({c99}us) must not exceed FIFO ({f99}us)"
    );
    assert!(
        c99 <= o99,
        "Cameo p99 ({c99}us) must not exceed Orleans ({o99}us)"
    );
    assert!(
        cameo.group_success(&ls) >= fifo.group_success(&ls),
        "Cameo must meet at least as many deadlines as FIFO"
    );
}

#[test]
fn all_schedulers_idle_latency_is_comparable() {
    // With no contention, scheduling policy must not matter (within a
    // small factor).
    let ls = [0usize, 1];
    let cameo = mix(SchedulerKind::Cameo(PolicyKind::Llf), 5.0);
    let fifo = mix(SchedulerKind::Fifo, 5.0);
    let c50 = cameo.group_percentiles(&ls, &[50.0])[0] as f64;
    let f50 = fifo.group_percentiles(&ls, &[50.0])[0] as f64;
    assert!(
        (c50 / f50 - 1.0).abs() < 0.25,
        "idle medians diverge: cameo {c50}us vs fifo {f50}us"
    );
}

#[test]
fn edf_and_llf_are_close_with_uniform_costs() {
    // §6.3: with near-uniform per-stage costs, omitting C_OM barely
    // changes the schedule.
    let ls = [0usize, 1];
    let llf = mix(SchedulerKind::Cameo(PolicyKind::Llf), 40.0);
    let edf = mix(SchedulerKind::Cameo(PolicyKind::Edf), 40.0);
    let l = llf.group_percentiles(&ls, &[50.0])[0] as f64;
    let e = edf.group_percentiles(&ls, &[50.0])[0] as f64;
    assert!(
        (l / e - 1.0).abs() < 0.5,
        "LLF ({l}us) and EDF ({e}us) medians should be close"
    );
}

#[test]
fn token_shares_track_allocation_at_saturation() {
    let mut sc = Scenario::new(
        ClusterSpec::new(1, 4),
        SchedulerKind::Cameo(PolicyKind::TokenFair),
    )
    .with_seed(8)
    .with_cost(CostConfig {
        per_tuple_ns: 400,
        ..Default::default()
    })
    .record_processing(true);
    let costs = StageCosts::default().scaled(4.0);
    for (i, tokens) in [30u64, 60, 60].into_iter().enumerate() {
        sc.add_job_with(
            agg_query(
                &AggQueryParams::new(format!("t{i}"), 1_000_000, Micros::from_secs(10))
                    .with_sources(8)
                    .with_parallelism(4)
                    .with_costs(costs),
            ),
            WorkloadSpec::constant(8, 80.0, 100, Micros::from_secs(10)),
            ExpandOptions {
                token_rate: Some((tokens, Micros::from_secs(1))),
                ..Default::default()
            },
        );
    }
    let report = sc.run();
    let end = 10_000_000;
    let totals: Vec<f64> = (0..3)
        .map(|j| report.job(j).processed_per_bucket(end, end)[0] as f64)
        .collect();
    let sum: f64 = totals.iter().sum();
    let shares: Vec<f64> = totals.iter().map(|t| t / sum).collect();
    assert!(
        (shares[0] - 0.2).abs() < 0.05,
        "tenant 0 share {:.2} != 0.2",
        shares[0]
    );
    assert!(
        (shares[1] - 0.4).abs() < 0.05 && (shares[2] - 0.4).abs() < 0.05,
        "tenants 1/2 shares {:.2}/{:.2} != 0.4",
        shares[1],
        shares[2]
    );
}

#[test]
fn answers_are_scheduler_independent_in_mix() {
    let run = |sched| {
        let mut sc = Scenario::new(ClusterSpec::new(2, 2), sched)
            .with_seed(33)
            .capture_outputs(true);
        for i in 0..2 {
            let mut wl = WorkloadSpec::constant(2, 15.0, 30, Micros::from_secs(2));
            wl.keys = 8;
            sc.add_job(
                agg_query(
                    &AggQueryParams::new(format!("j{i}"), 400_000, Micros::from_millis(800))
                        .with_sources(2)
                        .with_parallelism(2)
                        .with_keys(8),
                ),
                wl,
            );
        }
        let r = sc.run();
        let mut out: Vec<Vec<_>> = (0..2)
            .map(|j| r.job(j).captured.as_ref().unwrap().clone())
            .collect();
        for o in &mut out {
            o.sort_unstable();
        }
        out
    };
    let a = run(SchedulerKind::Cameo(PolicyKind::Llf));
    let b = run(SchedulerKind::OrleansLike);
    let c = run(SchedulerKind::Slot);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

// ------------------------------------------------- shared scheduler

proptest! {
    /// A drain makes *every* mailboxed message visible before the
    /// operation proceeds, so the mailbox ingress in front of the shared
    /// scheduler — the only configuration there is — must be an *exact*
    /// behavioral match for a bare `CameoScheduler` submitted to
    /// directly: same drain order message for message, for any
    /// interleaving of submit bursts and drain steps. This is the
    /// property the deterministic simulator relies on. (The name
    /// predates the deletion of multi-shard configurations.)
    #[test]
    fn mailbox_ingress_matches_bare_scheduler_at_one_shard(
        msgs in prop::collection::vec((0u32..16, -50i64..50, -50i64..50), 1..200),
        // Drain a few operators between submission bursts at this cadence.
        burst in 1usize..8,
    ) {
        let config = SchedulerConfig::default().with_quantum(Micros::ZERO);
        let a = ShardedScheduler::<u64>::new(config);
        let mut b = CameoScheduler::<u64>::new(config);
        // One acquire-drain-release step, interleaved mid-stream.
        let step_a = |out: &mut Vec<u64>| {
            if let Some(exec) = a.acquire(0, PhysicalTime::ZERO) {
                while let Some((m, _)) = a.take_message(&exec) {
                    out.push(m);
                }
                a.release(exec);
            }
        };
        let step_b = |b: &mut CameoScheduler<u64>, out: &mut Vec<u64>| {
            if let Some(exec) = b.acquire(PhysicalTime::ZERO) {
                while let Some((m, _)) = b.take_message(&exec) {
                    out.push(m);
                }
                b.release(exec);
            }
        };
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for (i, &(op, local, global)) in msgs.iter().enumerate() {
            let key = OperatorKey::new(JobId(0), op);
            let pri = Priority::new(local, global);
            a.submit(key, i as u64, pri);
            b.submit(key, i as u64, pri);
            if i % burst == burst - 1 {
                step_a(&mut out_a);
                step_b(&mut b, &mut out_b);
            }
        }
        loop {
            let before = (out_a.len(), out_b.len());
            step_a(&mut out_a);
            step_b(&mut b, &mut out_b);
            if (out_a.len(), out_b.len()) == before {
                break;
            }
        }
        prop_assert_eq!(&out_a, &out_b, "mailbox vs direct drain order diverged");
        prop_assert_eq!(out_a.len(), msgs.len(), "message lost or duplicated");
        prop_assert!(a.is_empty() && b.is_empty());
        prop_assert_eq!(a.stats().mailbox_drained, msgs.len() as u64);
    }
}

/// Hammer `submit` from 8 threads while 4 workers drain concurrently
/// from one scheduler: every message must come out exactly once.
#[test]
fn concurrent_submit_drain_loses_nothing() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    const SUBMITTERS: usize = 8;
    const WORKERS: usize = 4;
    const PER_THREAD: u64 = 5_000;
    const TOTAL: u64 = SUBMITTERS as u64 * PER_THREAD;

    let sched: Arc<ShardedScheduler<u64>> = Arc::new(ShardedScheduler::new(
        SchedulerConfig::default().with_quantum(Micros(50)),
    ));
    let consumed = Arc::new(AtomicUsize::new(0));
    let seen = Arc::new(Mutex::new(Vec::with_capacity(TOTAL as usize)));

    let submitters: Vec<_> = (0..SUBMITTERS as u64)
        .map(|t| {
            let sched = sched.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let id = t * PER_THREAD + i;
                    // Spread across jobs and operators; pseudo-random
                    // urgency so the two-level queues actually reorder.
                    let key = OperatorKey::new(JobId((id % 5) as u32), (id % 37) as u32);
                    let pri = Priority::new(
                        (id.wrapping_mul(31) % 1_000) as i64,
                        (id.wrapping_mul(17) % 1_000) as i64,
                    );
                    // Mailbox submit; parked workers are woken by the
                    // scheduler itself.
                    sched.submit(key, id, pri);
                }
            })
        })
        .collect();

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let sched = sched.clone();
            let consumed = consumed.clone();
            let seen = seen.clone();
            std::thread::spawn(move || {
                let mut local = Vec::new();
                let mut now = 0u64;
                // The runtime's worker loop: the step, parking when it
                // has nothing to run.
                let mut step = WorkerStep::new(w as u16);
                while step.holds() || consumed.load(Ordering::Acquire) < TOTAL as usize {
                    match step.next(&mut &*sched, PhysicalTime(now)) {
                        StepOutcome::Run(_, id, _) => {
                            local.push(id);
                            consumed.fetch_add(1, Ordering::AcqRel);
                            now += 10;
                        }
                        StepOutcome::Released => {}
                        StepOutcome::Empty => sched.park(std::time::Duration::from_millis(1)),
                    }
                }
                sched.notify_all(); // release any parked sibling
                seen.lock().unwrap().extend(local);
            })
        })
        .collect();

    for h in submitters {
        h.join().unwrap();
    }
    for h in workers {
        h.join().unwrap();
    }
    let mut ids = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
    assert_eq!(ids.len(), TOTAL as usize, "wrong number of deliveries");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), TOTAL as usize, "duplicate deliveries detected");
    assert_eq!(ids.first(), Some(&0));
    assert_eq!(ids.last(), Some(&(TOTAL - 1)));
    assert!(sched.is_empty());
    let stats = sched.stats();
    assert_eq!(
        stats.messages_scheduled, TOTAL,
        "scheduler counted every message"
    );
}
