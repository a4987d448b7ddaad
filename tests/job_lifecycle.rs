//! Lifecycle churn: the control plane under concurrent
//! deploy/ingest/undeploy — the paper's Fig 8 dynamic-workload setting,
//! driven against the real runtime.
//!
//! What must hold under churn:
//! * surviving jobs lose nothing and keep meeting their windows;
//! * a handle from generation *g* is rejected (`JobError::Stale`) after
//!   its slot is reused — it never observes another job's data;
//! * a deploy→ingest→undeploy→redeploy loop leaves `queue_len() == 0`
//!   and no retired-job messages in the scheduler, whether or not the
//!   backlog drained before the undeploy;
//! * a retired job's message that reaches the scheduler after the
//!   undeploy's purge — fanned out by a worker that outlived the drain
//!   budget — is dropped at the slot-generation check, the one defence
//!   against stale messages, and never runs on the slot's next occupant.

use cameo::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn small_query(name: &str, window: u64) -> cameo::dataflow::graph::JobSpec {
    agg_query(
        &AggQueryParams::new(name, window, Micros::from_millis(200))
            .with_sources(2)
            .with_parallelism(2)
            .with_keys(8)
            .with_domain(TimeDomain::IngestionTime),
    )
}

/// Two rounds per source: fill window [0, w), then cross it.
fn feed_two_windows(rt: &Runtime, job: JobHandle, window: u64) -> Result<(), JobError> {
    for source in 0..2u32 {
        let tuples = (0..40)
            .map(|i| Tuple::new(i % 8, 1, LogicalTime(1 + i * (window / 50))))
            .collect();
        rt.ingest(job, source, tuples)?;
    }
    for source in 0..2u32 {
        let tuples = (0..40)
            .map(|i| Tuple::new(i % 8, 1, LogicalTime(window + 1 + i)))
            .collect();
        rt.ingest(job, source, tuples)?;
    }
    Ok(())
}

/// Outputs `job` has emitted so far.
fn outputs(rt: &Runtime, job: JobHandle) -> u64 {
    rt.job_stats(job).expect("stats while live").outputs
}

/// `drain` returns once the worker has *finished* the message it took,
/// not once the queue is empty: the one output of a single 50 ms
/// message is counted by the time it returns.
#[test]
fn drain_waits_for_the_message_in_flight() {
    let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
    let mut b = JobBuilder::new("spin", Micros::from_millis(500), TimeDomain::IngestionTime);
    let src = b.ingest("src", 1);
    let spin = b.stage(
        "spin",
        1,
        OperatorKind::Regular,
        Micros::from_millis(50),
        |_| Box::new(SpinMap::new(Micros::from_millis(50))),
    );
    b.connect(src, spin, Routing::Forward);
    let job = rt
        .deploy(&b.build().unwrap(), &ExpandOptions::default())
        .expect("deploy");
    rt.ingest(job, 0, vec![Tuple::new(1, 1, LogicalTime::ZERO)])
        .expect("ingest");
    assert!(rt.drain(Duration::from_secs(5)), "drains");
    assert_eq!(outputs(&rt, job), 1, "the spin's output is counted");
    rt.shutdown();
}

/// The purge in `undeploy` cannot catch a message the job fans out
/// *after* it: a worker still executing the job's spin when the drain
/// budget (zero here) runs out submits the spin's output once the slot
/// already holds a new occupant of the same spec. The generation check
/// must drop it before it reaches the new `out` operator, whose
/// in-flight count it never incremented.
#[test]
fn a_straggler_after_a_timed_out_undeploy_never_reaches_the_next_occupant() {
    let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
    let mut b = JobBuilder::new("fan", Micros::from_millis(500), TimeDomain::IngestionTime);
    let src = b.ingest("src", 1);
    let spin = b.stage(
        "spin",
        1,
        OperatorKind::Regular,
        Micros::from_millis(50),
        |_| Box::new(SpinMap::new(Micros::from_millis(50))),
    );
    let out = b.stage("out", 1, OperatorKind::Regular, Micros(1), |_| {
        Box::new(SpinMap::new(Micros(0)))
    });
    b.connect(src, spin, Routing::Forward);
    b.connect(spin, out, Routing::Forward);
    let spec = b.build().unwrap();
    let old = rt.deploy(&spec, &ExpandOptions::default()).expect("deploy");
    let poison = 1_000_000_000;
    rt.ingest(old, 0, vec![Tuple::new(1, poison, LogicalTime::ZERO)])
        .expect("ingest");
    // The worker has taken the spin message once the queue is empty.
    let t0 = std::time::Instant::now();
    while rt.queue_len() > 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "spin never taken");
        std::thread::yield_now();
    }
    assert_eq!(rt.undeploy_within(old, Duration::ZERO), Ok(0));
    let new = rt
        .deploy(&spec, &ExpandOptions::default())
        .expect("redeploy");
    assert_eq!(new.slot(), old.slot(), "the slot is reused");
    let sub = rt.subscribe(new).expect("subscribe");
    rt.ingest(new, 0, vec![Tuple::new(1, 1, LogicalTime::ZERO)])
        .expect("ingest new");
    assert!(rt.drain(Duration::from_secs(5)), "drains");
    let got: Vec<OutputEvent> = sub.try_iter().collect();
    assert_eq!(got.len(), 1, "only the new occupant's output");
    assert!(got
        .iter()
        .flat_map(|ev| &ev.batch.tuples)
        .all(|t| t.value != poison));
    assert!(rt.scheduler_stats().retired_drops >= 1, "the straggler");
    assert_eq!(rt.queue_len(), 0);
    rt.shutdown();
}

#[test]
fn deploy_undeploy_loop_leaves_no_scheduler_state() {
    let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
    let mut first = None;
    for cycle in 0..10 {
        let job = rt
            .deploy(&small_query("loop", 100_000), &ExpandOptions::default())
            .expect("deploy");
        match first {
            None => first = Some(job.slot()),
            Some(s) => assert_eq!(job.slot(), s, "cycle {cycle} must reuse the slot"),
        }
        assert_eq!(job.generation(), cycle, "generation advances per cycle");
        feed_two_windows(&rt, job, 100_000).expect("ingest");
        // Odd cycles undeploy with the backlog still queued: undeploy's
        // own drain and purge must leave nothing behind either.
        if cycle.is_multiple_of(2) {
            assert!(rt.drain(Duration::from_secs(5)), "cycle {cycle} drains");
        }
        rt.undeploy(job).expect("undeploy");
        assert_eq!(rt.queue_len(), 0, "cycle {cycle} left scheduler state");
    }
    let stats = rt.scheduler_stats();
    assert_eq!(stats.jobs_retired, 10);
    assert_eq!(rt.queue_len(), 0);
    rt.shutdown();
}

#[test]
fn stale_generation_handle_never_sees_new_occupants_data() {
    let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
    let old = rt
        .deploy(&small_query("old", 100_000), &ExpandOptions::default())
        .expect("deploy old");
    feed_two_windows(&rt, old, 100_000).expect("ingest old");
    assert!(rt.drain(Duration::from_secs(5)));
    assert!(outputs(&rt, old) > 0, "old job produced windows");
    rt.undeploy(old).expect("undeploy old");

    // N churn cycles on the same slot, ending with a live occupant that
    // has produced different output counts than the old job.
    for i in 0..5 {
        let j = rt
            .deploy(
                &small_query(&format!("mid{i}"), 100_000),
                &ExpandOptions::default(),
            )
            .expect("deploy");
        assert_eq!(j.slot(), old.slot());
        rt.undeploy(j).expect("undeploy");
    }
    let new = rt
        .deploy(&small_query("new", 100_000), &ExpandOptions::default())
        .expect("deploy new");
    assert_eq!(new.slot(), old.slot(), "same slot, new generation");
    feed_two_windows(&rt, new, 100_000).expect("ingest new");
    feed_two_windows(&rt, new, 100_000).expect("ingest new again");
    assert!(rt.drain(Duration::from_secs(5)));

    // The stale handle is rejected at every entry point — it must never
    // return the new job's stats, outputs or accept its data.
    assert_eq!(rt.job_stats(old).err(), Some(JobError::Stale));
    assert_eq!(
        rt.ingest(old, 0, vec![Tuple::new(1, 1, LogicalTime(1))])
            .err(),
        Some(JobError::Stale)
    );
    assert!(rt.subscribe(old).is_err());
    assert_eq!(rt.undeploy(old).err(), Some(JobError::Stale));
    // And the new handle still works normally.
    assert!(outputs(&rt, new) > 0);
    rt.shutdown();
}

#[test]
fn concurrent_churn_does_not_disturb_surviving_jobs() {
    // A survivor job ingests continuously from its own thread while a
    // churner thread deploys and undeploys other jobs as fast as it
    // can. The survivor must lose nothing: every batch it ingested is
    // eventually processed, its windows fire, and nothing panics.
    let rt = Arc::new(Runtime::start(RuntimeConfig::default().with_workers(4)));
    let survivor = rt
        .deploy(&small_query("survivor", 50_000), &ExpandOptions::default())
        .expect("deploy survivor");
    let stop = Arc::new(AtomicBool::new(false));

    // Churner: deploy → (sometimes ingest) → undeploy, repeatedly.
    let churner = {
        let rt = rt.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut cycles = 0u64;
            while !stop.load(Ordering::Acquire) {
                let job = rt
                    .deploy(&small_query("churn", 50_000), &ExpandOptions::default())
                    .expect("churn deploy");
                if cycles.is_multiple_of(2) {
                    // Leave work in flight so undeploy's drain + purge
                    // actually have something to do.
                    for source in 0..2u32 {
                        let tuples = (0..20)
                            .map(|i| Tuple::new(i, 1, LogicalTime(1 + i)))
                            .collect();
                        let _ = rt.ingest(job, source, tuples);
                    }
                }
                rt.undeploy(job).expect("churn undeploy");
                cycles += 1;
            }
            cycles
        })
    };

    // Survivor feed: 30 rounds of two-window batches.
    let mut expected_tuples = 0u64;
    for round in 0..30u64 {
        let base = round * 100_000;
        for source in 0..2u32 {
            let tuples: Vec<Tuple> = (0..40)
                .map(|i| Tuple::new(i % 8, 1, LogicalTime(base + 1 + i * 2_000)))
                .collect();
            expected_tuples += 40;
            rt.ingest(survivor, source, tuples)
                .expect("survivor ingest");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Close the final windows.
    for source in 0..2u32 {
        rt.ingest(
            survivor,
            source,
            vec![Tuple::new(0, 1, LogicalTime(100_000 * 40))],
        )
        .expect("survivor ingest");
        expected_tuples += 1;
    }

    stop.store(true, Ordering::Release);
    let cycles = churner.join().expect("churner thread");
    assert!(cycles > 0, "churner made progress");
    assert!(
        rt.drain(Duration::from_secs(10)),
        "queue drains after churn"
    );

    let stats = rt.job_stats(survivor).expect("survivor stats");
    assert!(
        stats.outputs >= 30,
        "survivor windows fired throughout churn (got {})",
        stats.outputs
    );
    // No loss: every ingested tuple of fired windows is accounted for.
    // Output tuples are grouped sums, so compare input counts: total
    // value mass equals tuple count (all values are 1).
    let sched = rt.scheduler_stats();
    assert_eq!(rt.queue_len(), 0);
    assert_eq!(sched.jobs_retired, cycles, "every churned job retired");
    assert!(expected_tuples > 0);
    let rt = Arc::try_unwrap(rt).ok().expect("sole owner");
    rt.shutdown();
}

#[test]
fn undeploy_with_backlog_purges_and_reports() {
    // Stall processing by using zero workers, pile up a backlog, then
    // undeploy: the purge must report the whole backlog and the queue
    // must be empty afterwards.
    let rt = Runtime::start(RuntimeConfig {
        workers: 0,
        ..Default::default()
    });
    let job = rt
        .deploy(&small_query("backlog", 50_000), &ExpandOptions::default())
        .expect("deploy");
    for round in 0..10u64 {
        for source in 0..2u32 {
            let tuples = (0..10)
                .map(|i| Tuple::new(i, 1, LogicalTime(1 + round * 100 + i)))
                .collect();
            rt.ingest(job, source, tuples).expect("ingest");
        }
    }
    let backlog = rt.queue_len() as u64;
    assert!(backlog > 0);
    let purged = rt.undeploy(job).expect("undeploy");
    assert_eq!(purged, backlog, "the whole backlog was purged");
    assert_eq!(rt.queue_len(), 0);
    rt.shutdown();
}

#[test]
fn subscription_survives_churn_of_other_slots() {
    let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
    let keeper = rt
        .deploy(&small_query("keeper", 100_000), &ExpandOptions::default())
        .expect("deploy keeper");
    let sub = rt.subscribe(keeper).expect("subscribe");
    // Churn a second slot while the first stays subscribed.
    for _ in 0..3 {
        let tmp = rt
            .deploy(&small_query("tmp", 100_000), &ExpandOptions::default())
            .expect("deploy tmp");
        assert_ne!(tmp.slot(), keeper.slot());
        let tmp_sub = rt.subscribe(tmp).expect("subscribe tmp");
        rt.undeploy(tmp).expect("undeploy tmp");
        // A subscription to a retired job just stops receiving.
        assert!(tmp_sub.try_recv().is_err());
    }
    feed_two_windows(&rt, keeper, 100_000).expect("ingest");
    assert!(rt.drain(Duration::from_secs(5)));
    let ev = sub
        .recv_timeout(Duration::from_secs(5))
        .expect("keeper output after churn");
    assert_eq!(ev.job, keeper);
    rt.shutdown();
}
