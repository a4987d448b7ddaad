//! Real-runtime crash recovery: the durability journal, operator-state
//! snapshots, and `Runtime::recover` against on-disk artifacts —
//! including torn journal tails, crashes mid-snapshot, corrupt
//! manifests, and generational slot-map fidelity across the crash.
//!
//! "Crash" here is a runtime shutdown that, like a real crash, never
//! truncates or finalizes the durability directory: recovery sees
//! exactly the bytes a dead process would have left behind.

use cameo::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

const WINDOW: u64 = 100_000;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cameo-crashrec-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable_cfg(dir: &Path) -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(2)
        .with_durability(DurabilityConfig::new(dir))
}

/// Event-time aggregation: 2 sources, 8 keys, 100 ms tumbling window.
fn query(name: &str) -> cameo::dataflow::graph::JobSpec {
    agg_query(
        &AggQueryParams::new(name, WINDOW, Micros::from_millis(200))
            .with_sources(2)
            .with_parallelism(2)
            .with_keys(8),
    )
}

fn registry(names: &[&str]) -> SpecRegistry {
    let mut reg = SpecRegistry::new();
    for n in names {
        reg.register(query(n), ExpandOptions::default());
    }
    reg
}

/// Fill window 0 without closing it: 40 tuples per source over 8 keys,
/// value 1, logical times strictly below `WINDOW` — per key the closed
/// window will count 10.
fn feed_window0(rt: &Runtime, job: JobHandle) {
    for source in 0..2u32 {
        let tuples = (0..40)
            .map(|i| Tuple::new(i % 8, 1, LogicalTime(1 + i * (WINDOW / 50))))
            .collect();
        rt.ingest(job, source, tuples).expect("ingest");
    }
}

/// Advance every source's watermark past window 0 so it fires.
fn close_window0(rt: &Runtime, job: JobHandle) {
    for source in 0..2u32 {
        let tuples = (0..8)
            .map(|k| Tuple::new(k, 1, LogicalTime(WINDOW + 1 + k)))
            .collect();
        rt.ingest(job, source, tuples).expect("ingest");
    }
}

/// Drain the subscription and return window 0's output, sorted.
fn window0_outputs(rx: &OutputSubscription) -> Vec<(u64, u64, i64)> {
    let mut out = Vec::new();
    while let Ok(ev) = rx.recv_timeout(Duration::from_millis(200)) {
        if ev.batch.progress.0 == WINDOW {
            for t in &ev.batch.tuples {
                out.push((ev.batch.progress.0, t.key, t.value));
            }
        }
    }
    out.sort_unstable();
    out
}

fn expected_counts(per_key: i64) -> Vec<(u64, u64, i64)> {
    (0..8).map(|k| (WINDOW, k, per_key)).collect()
}

#[test]
fn journal_only_recovery_replays_operator_state() {
    let dir = tmp_dir("journal");
    // Phase 1: ingest a full-but-unclosed window, then die. Nothing was
    // emitted, so everything the job knows lives only in the journal.
    let job = {
        let rt = Runtime::start(durable_cfg(&dir));
        let job = rt
            .deploy(&query("jr"), &ExpandOptions::default())
            .expect("deploy");
        feed_window0(&rt, job);
        assert!(rt.drain(Duration::from_secs(5)));
        assert_eq!(rt.job_stats(job).expect("stats").outputs, 0);
        rt.shutdown();
        job
    };
    // Phase 2: recover, then close the window with fresh input — the
    // output must contain the pre-crash tuples.
    let (rt, report) = Runtime::recover(durable_cfg(&dir), &registry(&["jr"])).expect("recover");
    assert_eq!(report.snapshot_seq, None, "no snapshot was ever taken");
    assert_eq!(report.records_replayed, 3, "1 deploy + 2 ingest records");
    assert_eq!(report.frames_replayed, 2);
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(report.stale_frames, 0);
    // The pre-crash handle addresses the same slot and generation.
    let rx = rt.subscribe(job).expect("pre-crash handle stays valid");
    assert!(rt.drain(Duration::from_secs(5)), "replay must drain");
    close_window0(&rt, job);
    assert!(rt.drain(Duration::from_secs(5)));
    assert_eq!(window0_outputs(&rx), expected_counts(10));
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_plus_journal_suffix_recovers_both() {
    let dir = tmp_dir("snapsuffix");
    let job = {
        let rt = Runtime::start(durable_cfg(&dir));
        let job = rt
            .deploy(&query("snap"), &ExpandOptions::default())
            .expect("deploy");
        feed_window0(&rt, job);
        assert!(rt.drain(Duration::from_secs(5)));
        assert_eq!(rt.snapshot().expect("snapshot"), 1);
        // Journal suffix past the snapshot: 2 more tuples per key.
        for source in 0..2u32 {
            let tuples = (0..8)
                .map(|k| Tuple::new(k, 1, LogicalTime(2 + k)))
                .collect();
            rt.ingest(job, source, tuples).expect("ingest");
        }
        assert!(rt.drain(Duration::from_secs(5)));
        rt.shutdown();
        job
    };
    let (rt, report) = Runtime::recover(durable_cfg(&dir), &registry(&["snap"])).expect("recover");
    assert_eq!(report.snapshot_seq, Some(1));
    assert_eq!(report.snapshot_jobs, 1);
    assert_eq!(report.manifests_rejected, 0);
    assert_eq!(
        report.frames_replayed, 2,
        "only the post-snapshot suffix replays"
    );
    let rx = rt.subscribe(job).expect("subscribe");
    assert!(rt.drain(Duration::from_secs(5)));
    close_window0(&rt, job);
    assert!(rt.drain(Duration::from_secs(5)));
    // 10 from the snapshotted state + 2 from the replayed suffix.
    assert_eq!(window0_outputs(&rx), expected_counts(12));
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_truncated_and_counted() {
    let dir = tmp_dir("torn");
    let job = {
        let rt = Runtime::start(durable_cfg(&dir));
        let job = rt
            .deploy(&query("torn"), &ExpandOptions::default())
            .expect("deploy");
        feed_window0(&rt, job);
        assert!(rt.drain(Duration::from_secs(5)));
        rt.shutdown();
        job
    };
    // A crash mid-append: garbage bytes on the newest segment's tail.
    let newest_seg = std::fs::read_dir(&dir)
        .expect("read durability dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .max()
        .expect("a journal segment exists");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&newest_seg)
            .expect("open segment");
        f.write_all(&[0xEE; 13]).expect("append garbage");
    }
    let (rt, report) = Runtime::recover(durable_cfg(&dir), &registry(&["torn"])).expect("recover");
    assert_eq!(report.torn_bytes, 13, "the torn tail is measured");
    assert_eq!(report.frames_replayed, 2, "intact records all replay");
    let rx = rt.subscribe(job).expect("subscribe");
    assert!(rt.drain(Duration::from_secs(5)));
    close_window0(&rt, job);
    assert!(rt.drain(Duration::from_secs(5)));
    assert_eq!(window0_outputs(&rx), expected_counts(10));
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_manifest_falls_back_to_previous_snapshot() {
    let dir = tmp_dir("manifest");
    let job = {
        let rt = Runtime::start(durable_cfg(&dir));
        let job = rt
            .deploy(&query("mf"), &ExpandOptions::default())
            .expect("deploy");
        feed_window0(&rt, job);
        assert!(rt.drain(Duration::from_secs(5)));
        assert_eq!(rt.snapshot().expect("snapshot 1"), 1);
        for source in 0..2u32 {
            let tuples = (0..8)
                .map(|k| Tuple::new(k, 1, LogicalTime(2 + k)))
                .collect();
            rt.ingest(job, source, tuples).expect("ingest");
        }
        assert!(rt.drain(Duration::from_secs(5)));
        assert_eq!(rt.snapshot().expect("snapshot 2"), 2);
        rt.shutdown();
        job
    };
    // Corrupt the newest manifest in place (a torn write the atomic
    // rename did not protect against, e.g. media corruption).
    let newest_manifest = std::fs::read_dir(&dir)
        .expect("read durability dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("manifest-"))
        })
        .max()
        .expect("a manifest exists");
    let mut bytes = std::fs::read(&newest_manifest).expect("read manifest");
    bytes[20] ^= 0xFF;
    std::fs::write(&newest_manifest, bytes).expect("rewrite manifest");

    let (rt, report) = Runtime::recover(durable_cfg(&dir), &registry(&["mf"])).expect("recover");
    assert_eq!(report.manifests_rejected, 1, "seq 2 must be rejected");
    assert_eq!(report.snapshot_seq, Some(1), "falls back to seq 1");
    assert_eq!(
        report.frames_replayed, 2,
        "the journal suffix past snapshot 1 is still retained and replays"
    );
    let rx = rt.subscribe(job).expect("subscribe");
    assert!(rt.drain(Duration::from_secs(5)));
    close_window0(&rt, job);
    assert!(rt.drain(Duration::from_secs(5)));
    assert_eq!(window0_outputs(&rx), expected_counts(12));
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_snapshot_ignores_the_partial_artifacts() {
    let dir = tmp_dir("midsnap");
    let job = {
        let rt = Runtime::start(durable_cfg(&dir));
        let job = rt
            .deploy(&query("mid"), &ExpandOptions::default())
            .expect("deploy");
        feed_window0(&rt, job);
        assert!(rt.drain(Duration::from_secs(5)));
        assert_eq!(rt.snapshot().expect("snapshot"), 1);
        rt.shutdown();
        job
    };
    // A crash in the middle of writing snapshot 2: a half-written blob
    // and manifest with no valid checksums.
    std::fs::write(dir.join("snap-0000000000000002.blob"), b"CSNPgarbage").expect("blob");
    std::fs::write(dir.join("manifest-0000000000000002.m"), b"CMANgarb").expect("manifest");

    let (rt, report) = Runtime::recover(durable_cfg(&dir), &registry(&["mid"])).expect("recover");
    assert_eq!(report.manifests_rejected, 1);
    assert_eq!(report.snapshot_seq, Some(1));
    let rx = rt.subscribe(job).expect("subscribe");
    close_window0(&rt, job);
    assert!(rt.drain(Duration::from_secs(5)));
    assert_eq!(window0_outputs(&rx), expected_counts(10));
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lifecycle_replay_preserves_slot_generations() {
    let dir = tmp_dir("lifecycle");
    // Phase 1: deploy three jobs, retire one, reuse its slot.
    let (alpha, beta, gamma) = {
        let rt = Runtime::start(durable_cfg(&dir));
        let opts = ExpandOptions::default();
        let alpha = rt.deploy(&query("alpha"), &opts).expect("alpha");
        let beta = rt.deploy(&query("beta"), &opts).expect("beta");
        feed_window0(&rt, alpha);
        feed_window0(&rt, beta);
        assert!(rt.drain(Duration::from_secs(5)));
        rt.undeploy(alpha).expect("undeploy alpha");
        let gamma = rt.deploy(&query("gamma"), &opts).expect("gamma");
        assert_eq!(gamma.slot(), alpha.slot(), "slot is reused");
        assert_ne!(gamma.generation(), alpha.generation(), "generation bumped");
        feed_window0(&rt, gamma);
        assert!(rt.drain(Duration::from_secs(5)));
        rt.shutdown();
        (alpha, beta, gamma)
    };
    let reg = registry(&["alpha", "beta", "gamma"]);
    let (rt, report) = Runtime::recover(durable_cfg(&dir), &reg).expect("recover");
    assert_eq!(report.frames_replayed, 6);
    assert_eq!(report.stale_frames, 0);
    // The slot map replays exactly: the retired handle is stale, the
    // survivors (including the slot-reusing one) are live.
    assert!(rt.job_stats(alpha).is_err(), "alpha must be stale");
    let rx_beta = rt.subscribe(beta).expect("beta lives");
    let rx_gamma = rt.subscribe(gamma).expect("gamma lives");
    assert!(rt.drain(Duration::from_secs(5)));
    close_window0(&rt, beta);
    close_window0(&rt, gamma);
    assert!(rt.drain(Duration::from_secs(5)));
    assert_eq!(window0_outputs(&rx_beta), expected_counts(10));
    assert_eq!(window0_outputs(&rx_gamma), expected_counts(10));
    // A fresh deploy lands in a fresh slot, not on a recovered one.
    let delta = rt
        .deploy(&query("delta"), &ExpandOptions::default())
        .expect("deploy after recovery");
    assert_eq!(delta.slot(), 2);
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_refuses_unregistered_specs() {
    let dir = tmp_dir("unknown");
    {
        let rt = Runtime::start(durable_cfg(&dir));
        rt.deploy(&query("ghost"), &ExpandOptions::default())
            .expect("deploy");
        rt.shutdown();
    }
    let err = Runtime::recover(durable_cfg(&dir), &SpecRegistry::new())
        .err()
        .expect("recovery must fail");
    assert!(
        matches!(err, RecoverError::UnknownSpec(ref n) if n == "ghost"),
        "got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_requires_durability_config() {
    let err = Runtime::recover(RuntimeConfig::default(), &SpecRegistry::new())
        .err()
        .expect("must fail");
    assert!(matches!(err, RecoverError::NotConfigured));
}

#[test]
fn manual_snapshot_errors_are_typed() {
    // Without durability there is nothing to snapshot into.
    let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
    assert!(matches!(rt.snapshot(), Err(SnapshotError::Inactive)));
    rt.shutdown();

    // No worker ever drains the queued frame, so the runtime is never
    // quiescent: a zero wait gives up after one check.
    let dir = tmp_dir("snapbusy");
    let rt = Runtime::start(RuntimeConfig {
        workers: 0,
        ..durable_cfg(&dir)
    });
    let job = rt
        .deploy(&query("sb"), &ExpandOptions::default())
        .expect("deploy");
    feed_window0(&rt, job);
    assert!(rt.queue_len() > 0);
    let got = rt.snapshot_within(Duration::ZERO);
    assert!(matches!(got, Err(SnapshotError::Busy)), "got {got:?}");
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_dir("snapio");
    let rt = Runtime::start(durable_cfg(&dir));
    let job = rt
        .deploy(&query("sio"), &ExpandOptions::default())
        .expect("deploy");
    let rx = rt.subscribe(job).expect("subscribe");
    feed_window0(&rt, job);
    assert!(rt.drain(Duration::from_secs(5)));
    // The snapshot writer recreates a missing directory, so removing it
    // is not enough: a plain file at its path makes the write fail,
    // even for root. The journal keeps appending to its open segment.
    std::fs::remove_dir_all(&dir).expect("remove the durability directory");
    std::fs::write(&dir, b"").expect("put a file in its place");
    let got = rt.snapshot();
    assert!(matches!(got, Err(SnapshotError::Io(_))), "got {got:?}");
    // A failed snapshot leaves the runtime serving.
    close_window0(&rt, job);
    assert!(rt.drain(Duration::from_secs(5)));
    assert_eq!(window0_outputs(&rx), expected_counts(10));
    rt.shutdown();
    let _ = std::fs::remove_file(&dir);
}
