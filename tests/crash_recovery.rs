//! Real-runtime crash recovery: the durability journal, operator-state
//! snapshots, and `Runtime::recover` against on-disk artifacts —
//! including torn journal tails, crashes mid-snapshot, corrupt
//! manifests, and generational slot-map fidelity across the crash.
//!
//! "Crash" here is a runtime shutdown that, like a real crash, never
//! truncates or finalizes the durability directory: recovery sees
//! exactly the bytes a dead process would have left behind. Without a
//! drain first, the crash also loses whatever was still in flight.
//!
//! The crash-equivalence drill at the end of the file runs one script
//! of deploys, frames and an undeploy on a crash-free durable runtime
//! and on runtimes crashed at many points of it, then holds every
//! recovered job's windows to the crash-free run's.

use cameo::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
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

/// The newest journal segment and its length.
fn newest_segment(dir: &Path) -> (PathBuf, u64) {
    let path = std::fs::read_dir(dir)
        .expect("read durability dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .max()
        .expect("a journal segment exists");
    let len = std::fs::metadata(&path).expect("segment metadata").len();
    (path, len)
}

fn durable_cfg(dir: &Path) -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(2)
        .with_durability(DurabilityConfig::new(dir))
}

/// Event-time aggregation: 2 sources, 8 keys, 100 ms tumbling window.
fn params(name: &str) -> AggQueryParams {
    AggQueryParams::new(name, WINDOW, Micros::from_millis(200))
        .with_sources(2)
        .with_parallelism(2)
        .with_keys(8)
}

fn query(name: &str) -> cameo::dataflow::graph::JobSpec {
    agg_query(&params(name))
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

/// Window 0's output, sorted. Call after a `drain` that returned
/// true: a sink sends its outputs before its message leaves the
/// in-flight count, so every output is already in the channel.
fn window0_outputs(rx: &OutputSubscription) -> Vec<(u64, u64, i64)> {
    let mut out = Vec::new();
    for ev in rx.try_iter() {
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
    let (newest_seg, _) = newest_segment(&dir);
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

// ---------------------------------------------------------------------
// Crash equivalence: one script, crashed at many points, recovered, and
// finished, must close the same windows as the crash-free run.
//
// Every job's source 1 is held back until the script's finale. A
// window closes only when the watermark, the minimum over a stage's
// input channels, passes it, so no window can close before the
// recovered runtime has subscribers. In every run the finale's frames
// then close every window, and `drain` returns once the last output is
// sent, so the outputs can be collected without waiting on a clock.
// ---------------------------------------------------------------------

/// `(progress, key, value)` of one output tuple.
type Out = (u64, u64, i64);

/// Logical time one script frame covers.
const ROUND: u64 = 40_000;

/// The drill's jobs: a tumbling and a sliding two-source aggregation,
/// a job that is undeployed mid-script, and the job deployed into its
/// freed slot.
const DRILL_JOBS: [&str; 4] = ["tumbling", "sliding", "leaver", "heir"];
const LEAVER: usize = 2;
const HEIR: usize = 3;

fn drill_spec(job: usize) -> cameo::dataflow::graph::JobSpec {
    let p = params(DRILL_JOBS[job]);
    agg_query(&if job == 1 { p.sliding(WINDOW / 2) } else { p })
}

fn drill_registry() -> SpecRegistry {
    let mut reg = SpecRegistry::new();
    for job in 0..DRILL_JOBS.len() {
        reg.register(drill_spec(job), ExpandOptions::default());
    }
    reg
}

/// Frame `round` of `job`'s `source`: 12 tuples with logical times
/// inside the round, so every source's times only grow.
fn drill_frame(job: usize, source: u32, round: u64) -> Vec<Tuple> {
    (0..12u64)
        .map(|i| {
            let value = ((round * 7 + i * 3 + job as u64 + source as u64) % 9 + 1) as i64;
            let at = 1 + round * ROUND + i * (ROUND / 12);
            Tuple::new((i * 5 + round + job as u64) % 8, value, LogicalTime(at))
        })
        .collect()
}

#[derive(Clone, Debug)]
enum Step {
    Deploy(usize),
    Undeploy(usize),
    /// One `ingest` call on source 0 of a job.
    Frame(usize, Vec<Tuple>),
}

/// Rounds a job's source 0 receives in the script (source 1 receives
/// the same rounds in the finale).
fn drill_rounds(job: usize) -> std::ops::Range<u64> {
    match job {
        LEAVER | HEIR => 0..4,
        _ => 0..8,
    }
}

/// Three deploys, four rounds of frames, the leaver's undeploy and the
/// heir's deploy into its slot, four more rounds: 29 steps.
fn drill_script() -> Vec<Step> {
    let mut script: Vec<Step> = (0..3).map(Step::Deploy).collect();
    for round in 0..4 {
        for job in 0..3 {
            script.push(Step::Frame(job, drill_frame(job, 0, round)));
        }
    }
    script.push(Step::Undeploy(LEAVER));
    script.push(Step::Deploy(HEIR));
    for round in 4..8 {
        for job in [0, 1, HEIR] {
            let round = if job == HEIR { round - 4 } else { round };
            script.push(Step::Frame(job, drill_frame(job, 0, round)));
        }
    }
    script
}

/// A runtime running the script, with every job's handle and
/// subscription.
struct ScriptRun<'a> {
    rt: &'a Runtime,
    handles: [Option<JobHandle>; 4],
    subs: [Option<OutputSubscription>; 4],
    gone: [bool; 4],
}

impl<'a> ScriptRun<'a> {
    fn new(rt: &'a Runtime) -> Self {
        ScriptRun {
            rt,
            handles: [None; 4],
            subs: Default::default(),
            gone: [false; 4],
        }
    }

    fn step(&mut self, step: &Step) {
        match step {
            Step::Deploy(job) => {
                let h = self
                    .rt
                    .deploy(&drill_spec(*job), &ExpandOptions::default())
                    .expect("deploy");
                self.subs[*job] = Some(self.rt.subscribe(h).expect("subscribe"));
                self.handles[*job] = Some(h);
            }
            Step::Undeploy(job) => {
                self.rt.undeploy(self.handle(*job)).expect("undeploy");
                self.gone[*job] = true;
            }
            Step::Frame(job, tuples) => self
                .rt
                .ingest(self.handle(*job), 0, tuples.clone())
                .expect("ingest"),
        }
    }

    fn handle(&self, job: usize) -> JobHandle {
        self.handles[job].expect("job deployed")
    }

    /// Send every live job's held-back source, close every window on
    /// both sources, drain, and return each job's sorted outputs. The
    /// undeployed job's stale handle must be refused.
    fn finish(self) -> Vec<Vec<Out>> {
        let close = 1 + 8 * ROUND + 4 * WINDOW;
        for job in 0..DRILL_JOBS.len() {
            if self.gone[job] {
                continue;
            }
            let h = self.handle(job);
            for round in drill_rounds(job) {
                self.rt
                    .ingest(h, 1, drill_frame(job, 1, round))
                    .expect("ingest");
            }
            for source in 0..2 {
                let tuples = vec![Tuple::new(0, 1, LogicalTime(close))];
                self.rt.ingest(h, source, tuples).expect("ingest");
            }
        }
        assert!(self.rt.drain(Duration::from_secs(30)), "the finale drains");
        assert_eq!(
            self.rt
                .ingest(self.handle(LEAVER), 0, drill_frame(LEAVER, 0, 0)),
            Err(JobError::Stale),
            "the leaver's handle is stale"
        );
        assert_eq!(
            self.handle(HEIR).slot(),
            self.handle(LEAVER).slot(),
            "the heir reuses the slot"
        );
        self.subs
            .iter()
            .map(|sub| {
                let mut out: Vec<Out> = sub
                    .iter()
                    .flat_map(|rx| rx.try_iter())
                    .flat_map(|ev| {
                        let progress = ev.batch.progress.0;
                        ev.batch
                            .tuples
                            .iter()
                            .map(|t| (progress, t.key, t.value))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                out.sort_unstable();
                out
            })
            .collect()
    }
}

/// The crash-free run's outputs, computed once.
fn reference() -> &'static [Vec<Out>] {
    static REFERENCE: OnceLock<Vec<Vec<Out>>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = tmp_dir("drill-ref");
        let rt = Runtime::start(durable_cfg(&dir));
        let mut run = ScriptRun::new(&rt);
        for step in &drill_script() {
            run.step(step);
        }
        let out = run.finish();
        rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        for (job, windows) in out.iter().enumerate() {
            assert_eq!(windows.is_empty(), job == LEAVER, "{}", DRILL_JOBS[job]);
        }
        out
    })
}

/// How a crashed run dies.
#[derive(Clone, Copy, Debug, Default)]
struct Crash {
    /// Script steps run before the crash.
    at: usize,
    /// Drain before the crash, so nothing is in flight.
    drained: bool,
    /// Cut the newest journal segment inside its last record, the frame
    /// of step `at - 1`, and re-send that frame after recovery.
    torn: bool,
    /// Drain and snapshot after this many steps.
    snapshot_at: Option<usize>,
}

/// Run the script with `crash`, recover, finish the script, and hold
/// every job's outputs to the crash-free run's.
fn check_crash(crash: Crash) {
    let script = drill_script();
    let Crash {
        at,
        drained,
        torn,
        snapshot_at,
    } = crash;
    assert!(
        !torn || matches!(script[at - 1], Step::Frame(..)),
        "{crash:?}"
    );
    let dir = tmp_dir(&format!(
        "drill-{at}-{}-{}-{}",
        drained as u8,
        torn as u8,
        snapshot_at.map_or(0, |s| s + 1)
    ));
    // Phase 1: run to the crash point, then die.
    let rt = Runtime::start(durable_cfg(&dir));
    let mut run = ScriptRun::new(&rt);
    let snapshot = |rt: &Runtime| {
        assert!(rt.drain(Duration::from_secs(30)));
        assert_eq!(rt.snapshot().expect("snapshot"), 1);
    };
    // The newest segment's extent of the last record, when it is torn.
    let mut last_record = None;
    for (i, step) in script[..at].iter().enumerate() {
        if snapshot_at == Some(i) {
            snapshot(&rt);
        }
        let before = (torn && i + 1 == at).then(|| newest_segment(&dir));
        run.step(step);
        if let Some((path, len)) = before {
            let (newest, end) = newest_segment(&dir);
            let start = if newest == path { len } else { 0 };
            last_record = Some((newest, start, end));
        }
    }
    if snapshot_at == Some(at) {
        snapshot(&rt);
    }
    if drained {
        assert!(rt.drain(Duration::from_secs(30)));
    }
    let ScriptRun {
        handles,
        subs,
        gone,
        ..
    } = run;
    rt.shutdown();
    for sub in subs.iter().flatten() {
        assert!(
            sub.try_recv().is_err(),
            "{crash:?}: a window closed before the crash"
        );
    }
    // A crash mid-append: the last record is cut inside its bytes, and
    // the half left on disk is what recovery must discard.
    let torn_half = last_record.map(|(path, start, end)| {
        let half = (end - start) / 2;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open segment");
        f.set_len(start + half).expect("cut the segment");
        half
    });

    // Phase 2: recover, subscribe, re-send what the torn record lost,
    // and run the rest of the script.
    let (rt, report) = Runtime::recover(durable_cfg(&dir), &drill_registry()).expect("recover");
    assert_eq!(report.torn_bytes, torn_half.unwrap_or(0), "{crash:?}");
    assert_eq!(report.snapshot_seq, snapshot_at.map(|_| 1), "{crash:?}");
    let journaled = script[snapshot_at.unwrap_or(0)..at]
        .iter()
        .filter(|s| matches!(s, Step::Frame(..)))
        .count();
    assert_eq!(
        report.frames_replayed,
        journaled - torn as usize,
        "{crash:?}"
    );
    assert_eq!(report.stale_frames, 0, "{crash:?}");
    let mut run = ScriptRun {
        handles,
        gone,
        ..ScriptRun::new(&rt)
    };
    for job in 0..DRILL_JOBS.len() {
        if let Some(h) = handles[job].filter(|_| !gone[job]) {
            run.subs[job] = Some(rt.subscribe(h).expect("pre-crash handles stay valid"));
        }
    }
    if torn {
        run.step(&script[at - 1]);
    }
    for step in &script[at..] {
        run.step(step);
    }
    let out = run.finish();
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    for (job, want) in reference().iter().enumerate() {
        assert_eq!(&out[job], want, "{crash:?}: {} differs", DRILL_JOBS[job]);
    }
}

#[test]
fn crash_on_the_first_frame_recovers_every_window() {
    // Step 3 is the first frame; a crash at 0 leaves an empty journal.
    for crash in [
        Crash::default(),
        Crash {
            at: 4,
            ..Crash::default()
        },
        Crash {
            at: 4,
            torn: true,
            ..Crash::default()
        },
    ] {
        check_crash(crash);
    }
}

#[test]
fn crashes_mid_run_recover_every_window() {
    for at in [10, 22] {
        check_crash(Crash {
            at,
            ..Crash::default()
        });
    }
}

#[test]
fn torn_tail_crashes_recover_every_window() {
    for at in [10, 22] {
        check_crash(Crash {
            at,
            torn: true,
            ..Crash::default()
        });
    }
}

#[test]
fn crash_past_the_last_frame_is_a_clean_restart() {
    // The last frame is step 28: crash with it in flight, torn, and
    // after everything drained.
    for (drained, torn) in [(false, false), (false, true), (true, false)] {
        check_crash(Crash {
            at: 29,
            drained,
            torn,
            ..Crash::default()
        });
    }
}

#[test]
fn crashes_across_a_slot_churn_recover_the_new_occupant() {
    // Step 15 undeploys the leaver and step 16 deploys the heir into
    // its slot: crash between them (once with a snapshot taken there,
    // which holds the slot vacant at its bumped generation), right
    // after, and mid-way through the heir's frames with the churn in
    // the snapshot.
    for crash in [
        Crash {
            at: 16,
            ..Crash::default()
        },
        Crash {
            at: 16,
            snapshot_at: Some(16),
            ..Crash::default()
        },
        Crash {
            at: 17,
            ..Crash::default()
        },
        Crash {
            at: 17,
            snapshot_at: Some(12),
            ..Crash::default()
        },
        Crash {
            at: 23,
            torn: true,
            snapshot_at: Some(17),
            ..Crash::default()
        },
    ] {
        check_crash(crash);
    }
}

#[test]
fn snapshot_plus_suffix_crashes_recover_every_window() {
    for crash in [
        Crash {
            at: 10,
            snapshot_at: Some(7),
            ..Crash::default()
        },
        Crash {
            at: 29,
            drained: true,
            snapshot_at: Some(29),
            ..Crash::default()
        },
    ] {
        check_crash(crash);
    }
}
