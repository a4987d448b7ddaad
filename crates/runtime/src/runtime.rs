//! The real-time actor runtime: a worker pool draining one shared
//! Cameo scheduler under wall-clock time.
//!
//! This is the Flare/Orleans role in the paper's stack, rebuilt the way
//! the networking guides recommend for a CPU-scheduling executor: plain
//! worker *threads* (not an async runtime — operators are CPU-bound and
//! the scheduler itself decides interleaving), and actor exclusivity
//! enforced by operator leases plus a per-instance mutex (never
//! contended in steady state, because the scheduler leases an operator
//! to one worker at a time).
//!
//! This module holds the public surface and admission; `jobs` holds the
//! job lifecycle, `worker` the scheduling path, `recovery` durability.
//!
//! ## Fixed pool
//!
//! Every setting is fixed at start. `Runtime::start` spawns `workers`
//! threads and they run until shutdown, and a durability snapshot is
//! taken only when the caller asks for one ([`Runtime::snapshot`]).

mod jobs;
mod recovery;
mod worker;

use crate::durability::{DurState, DurabilityConfig, FrameRecord, JournalRecord, SnapshotError};
use crate::msg::IngestFrame;
use crate::stats::JobStatsSnapshot;
use cameo_core::config::SchedulerConfig;
use cameo_core::ids::{JobId, OperatorKey};
use cameo_core::policy::{LlfPolicy, Policy};
use cameo_core::scheduler::SchedulerStats;
use cameo_core::shard::ShardedScheduler;
use cameo_core::time::{Clock, Micros, PhysicalTime, SystemClock};
use cameo_dataflow::event::{Batch, Tuple};
use cameo_dataflow::expand::{ingest_instance, ExpandOptions};
use cameo_dataflow::graph::{GraphError, JobSpec};
use jobs::{IngressGuard, JobRt, Jobs, JobsTable};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use worker::{spawn_worker, RtMsg};

/// How often `drain` and a snapshot look for a quiescent point.
const QUIESCENCE_POLL: Duration = Duration::from_micros(500);

/// An output emitted by a job's sink operator.
#[derive(Clone, Debug)]
pub struct OutputEvent {
    /// Handle of the job that produced the output.
    pub job: JobHandle,
    /// The sink's output batch, shared by reference: every subscriber
    /// to the job receives a clone of the same `Arc`, so fan-out never
    /// deep-copies the tuples (audited by
    /// [`JobStatsSnapshot::delivered`](crate::stats::JobStatsSnapshot)
    /// — see `Runtime::subscribe`).
    pub batch: Arc<Batch>,
    /// End-to-end latency of the batch (arrival of its closing input to
    /// this output).
    pub latency: Micros,
    /// Wall-clock emission time.
    pub at: PhysicalTime,
}

/// Identifies a deployed job: a slot in the runtime's jobs table plus
/// the slot's *generation* at deploy time.
///
/// Slots are reused after [`Runtime::undeploy`], but every reuse bumps
/// the slot's generation, so a handle held across its job's retirement
/// goes stale rather than silently addressing the slot's next occupant:
/// every per-job entry point returns [`JobError::Stale`] for it. A
/// handle is `Copy` and hashable — share it freely across threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobHandle {
    slot: u32,
    gen: u32,
}

impl JobHandle {
    /// The jobs-table slot this handle addresses. This is the job id
    /// the scheduler keys on and the `job` field of the TCP ingest wire
    /// format ([`IngestFrame::job`]). Wire format v2 pairs it with
    /// [`generation`](Self::generation) ([`IngestFrame::gen`]), so a
    /// remote frame is delivered only to the occupant its sender held a
    /// handle for — frames racing the slot's reuse are rejected and
    /// counted, exactly like a stale in-process handle.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The slot generation this handle was issued for. Stale once the
    /// job is undeployed. Stamped into every v2 wire frame
    /// ([`IngestFrame::gen`]).
    pub fn generation(&self) -> u32 {
        self.gen
    }
}

/// Why a deployment was rejected. Deployment is *total*: every invalid
/// spec maps to an error here instead of a panic inside the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The job graph failed validation (see [`GraphError`]).
    Graph(GraphError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Graph(g) => write!(f, "invalid job graph: {g}"),
        }
    }
}

impl std::error::Error for DeployError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeployError::Graph(g) => Some(g),
        }
    }
}

impl From<GraphError> for DeployError {
    fn from(g: GraphError) -> Self {
        DeployError::Graph(g)
    }
}

/// Why a per-job operation (`ingest`, `subscribe`, `job_stats`,
/// `undeploy`) was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The handle's generation no longer matches its slot: the job was
    /// undeployed (and the slot possibly reused by a newer job). A
    /// stale handle is *rejected*, never routed to the slot's new
    /// occupant.
    Stale,
    /// The handle's slot was never allocated by this runtime — the
    /// handle came from somewhere else entirely.
    NotFound,
    /// The job is mid-[`undeploy`](Runtime::undeploy): new ingest is
    /// refused while in-flight work drains.
    Draining,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Stale => write!(f, "stale job handle: the job was undeployed"),
            JobError::NotFound => write!(f, "unknown job handle"),
            JobError::Draining => write!(f, "job is draining (undeploy in progress)"),
        }
    }
}

impl std::error::Error for JobError {}

/// A live subscription to a job's sink outputs, returned by
/// [`Runtime::subscribe`]. Dereferences to the underlying
/// [`Receiver`], so `recv` / `try_recv` / `recv_timeout` / iteration
/// all work directly on it.
///
/// Dropping the subscription is how unsubscription works: the runtime
/// holds only a [`Weak`] liveness token per subscriber and prunes dead
/// entries on every later `subscribe` call and on every output
/// delivery, so abandoned subscriptions do not accumulate.
pub struct OutputSubscription {
    rx: Receiver<OutputEvent>,
    /// Liveness token: the runtime's subscriber entry holds the `Weak`
    /// side and treats an unupgradable token as "unsubscribed".
    _alive: Arc<()>,
}

impl Deref for OutputSubscription {
    type Target = Receiver<OutputEvent>;

    fn deref(&self) -> &Receiver<OutputEvent> {
        &self.rx
    }
}

/// One frame refused by the wire-v2 generation check, with enough
/// context for the transport layer to tell the producer why
/// ([`NackFrame`](crate::msg::NackFrame)): which slot, the stale
/// generation it sent, and the generation a live handle would carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RejectedFrame {
    /// Ordinal of the frame within the `ingest_frames` call, in
    /// iteration order — the serve loop maps it back to the connection
    /// that contributed the frame.
    pub index: usize,
    /// Jobs-table slot the frame addressed.
    pub job: u32,
    /// Stale generation the frame carried.
    pub gen: u32,
    /// Generation of the slot's current occupant.
    pub expected_gen: u32,
}

/// Outcome of one [`Runtime::ingest_frames`] call (one socket read's
/// worth of frames).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Frames routed and submitted.
    pub frames: usize,
    /// Well-formed frames dropped because their jobs-table slot is
    /// vacant (never deployed, or retired) or its occupant is draining
    /// mid-`undeploy`.
    pub dropped: usize,
    /// Frames whose wire generation ([`IngestFrame::gen`]) did not
    /// match the slot's current occupant: their job was undeployed (and
    /// the slot reused) while they were in flight. Rejected, never
    /// routed to the new occupant — the wire-side twin of
    /// [`JobError::Stale`].
    pub gen_rejected: usize,
    /// Scheduler messages the submitted frames expanded into (what one
    /// `submit_batch` published).
    pub messages: usize,
    /// One entry per generation-rejected frame (so
    /// `rejected.len() == gen_rejected`), carrying the details a
    /// transport needs to NACK the producer.
    pub rejected: Vec<RejectedFrame>,
}

/// Runtime configuration.
pub struct RuntimeConfig {
    /// Worker threads draining the scheduler (0 = queue-only runtime).
    pub workers: usize,
    /// The priority policy building and interpreting contexts.
    pub policy: Arc<dyn Policy>,
    /// The scheduler's own settings (quantum, starvation limit), handed
    /// to the [`ShardedScheduler`] as they are.
    pub scheduler: SchedulerConfig,
    /// Pin workers to cores via `sched_setaffinity`, so the kernel does
    /// not migrate them (default off; a core the kernel refuses is a
    /// graceful no-op). The runtime reads its *allowed* core set
    /// (`sched_getaffinity`) once at startup and round-robins workers
    /// within it, so co-located runtimes confined to disjoint cpusets
    /// no longer pile onto core 0.
    pub pin_workers: bool,
    /// Crash durability (`None` — the default — journals nothing and
    /// adds no ingest-path work beyond one branch). With a config, every
    /// accepted ingress call is group-committed to the journal *before*
    /// its messages are published, deploy/undeploy write lifecycle
    /// records, and [`Runtime::snapshot`] /
    /// [`Runtime::recover`] become available.
    pub durability: Option<DurabilityConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            policy: Arc::new(LlfPolicy),
            scheduler: SchedulerConfig::default(),
            pin_workers: false,
            durability: None,
        }
    }
}

impl RuntimeConfig {
    /// Set the worker-thread count (must be nonzero here; construct the
    /// struct literally for a 0-worker queue-only runtime).
    pub fn with_workers(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.workers = n;
        self
    }

    /// Set the scheduling policy.
    pub fn with_policy(mut self, p: Arc<dyn Policy>) -> Self {
        self.policy = p;
        self
    }

    /// Set the scheduler's settings: quantum and starvation limit.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Pin each worker to one core.
    pub fn with_pinning(mut self, on: bool) -> Self {
        self.pin_workers = on;
        self
    }

    /// Enable crash durability: journal + snapshots rooted at the
    /// config's directory. See [`DurabilityConfig`].
    pub fn with_durability(mut self, cfg: DurabilityConfig) -> Self {
        self.durability = Some(cfg);
        self
    }
}

/// One subscriber entry: the event channel plus a liveness token (the
/// strong side lives inside the handed-out [`OutputSubscription`]).
struct Subscriber {
    tx: Sender<OutputEvent>,
    alive: Weak<()>,
}

impl Subscriber {
    fn live(&self) -> bool {
        self.alive.strong_count() > 0
    }
}

struct Shared {
    clock: SystemClock,
    sched: ShardedScheduler<RtMsg>,
    jobs: Jobs,
    policy: Arc<dyn Policy>,
    /// In-flight messages abandoned at the pre-execution generation
    /// check (their job was undeployed while they sat in the queue).
    stale_exec_drops: AtomicU64,
    /// Workers whose `sched_setaffinity` call succeeded.
    pinned: AtomicUsize,
    /// Multi-frame ingest calls that submitted at least one frame
    /// (each is one `submit_batch` — one mailbox publication for the
    /// whole socket read).
    net_batches: AtomicU64,
    /// Frames submitted through those calls; `frames_coalesced /
    /// net_batches` is the achieved frames-per-read ratio.
    frames_coalesced: AtomicU64,
    /// Wire frames rejected at the v2 generation check (their job was
    /// undeployed — and its slot possibly reused — while the frame was
    /// in flight). Folded into `SchedulerStats::gen_rejected_frames`.
    gen_rejected: AtomicU64,
    /// Workers currently inside `worker_loop`: the configured pool once
    /// every thread has started, less any worker an operator panic
    /// unwound through.
    live_workers: AtomicUsize,
    /// Durability state (journal + snapshot bookkeeping), when
    /// configured.
    dur: Option<DurState>,
}

/// Recover a poisoned guard: a panicking operator must not wedge the
/// rest of the runtime (mirrors the old parking_lot behavior).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Shared {
    fn now(&self) -> PhysicalTime {
        self.clock.now()
    }

    /// Poll until the runtime is quiescent — scheduler empty *and* every
    /// live job's in-flight count at zero (a worker takes a message out
    /// of the scheduler before it runs it, so the first half alone would
    /// miss the one it is executing) — or `wait` passes (`None`). Each
    /// poll takes the jobs read lock, then `hold`, and checks with both
    /// held; `at_rest` runs under them on success.
    fn at_quiescence<G, T>(
        &self,
        wait: Duration,
        mut hold: impl FnMut() -> G,
        at_rest: impl FnOnce(&JobsTable, G) -> T,
    ) -> Option<T> {
        let deadline = Instant::now() + wait;
        loop {
            {
                let jobs = self.jobs.read();
                let held = hold();
                if self.sched.is_empty() && jobs.idle() {
                    return Some(at_rest(&jobs, held));
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(QUIESCENCE_POLL);
        }
    }

    /// True when ingress/lifecycle events should be journaled (durable
    /// runtime outside of recovery replay).
    fn dur_active(&self) -> bool {
        self.dur.as_ref().is_some_and(DurState::is_active)
    }

    /// Append one record to the journal (no-op without durability or
    /// during replay). Journal I/O failure is reported, not propagated:
    /// the runtime favors availability — the stream keeps flowing and
    /// the operator keeps crash-consistent state only up to the failure.
    fn dur_append(&self, rec: &JournalRecord) {
        if let Some(d) = &self.dur {
            if d.is_active() {
                if let Err(e) = d.journal.begin().append(rec) {
                    eprintln!("cameo-runtime: journal append failed: {e}");
                }
            }
        }
    }

    /// Batched submit: one mailbox publication, one hint update and one
    /// wake for the whole batch.
    fn submit_batch<I: IntoIterator<Item = (OperatorKey, RtMsg)>>(&self, items: I) {
        let _ = self.sched.submit_batch(items.into_iter().map(|(key, m)| {
            let pri = m.msg.pc.priority;
            (key, m, pri)
        }));
    }
}

/// The runtime: deploy jobs, ingest events, read output stats.
pub struct Runtime {
    shared: Arc<Shared>,
    /// Worker join handles, one per configured worker.
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Start the runtime: spawn the worker pool and the scheduler per
    /// `config`. Jobs are deployed afterwards via
    /// [`deploy`](Self::deploy).
    pub fn start(config: RuntimeConfig) -> Self {
        let pin = config.pin_workers;
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // The startup affinity mask: workers round-robin within it, so
        // two runtimes confined to disjoint cpusets pin onto disjoint
        // cores instead of both counting `0, 1, 2, …` from core 0.
        let allowed: Vec<usize> = if pin {
            cameo_core::affinity::allowed_cores()
        } else {
            Vec::new()
        };
        let shared = Arc::new(Shared {
            clock: SystemClock::new(),
            sched: ShardedScheduler::new(config.scheduler),
            jobs: Jobs::default(),
            policy: config.policy.clone(),
            stale_exec_drops: AtomicU64::new(0),
            pinned: AtomicUsize::new(0),
            net_batches: AtomicU64::new(0),
            frames_coalesced: AtomicU64::new(0),
            gen_rejected: AtomicU64::new(0),
            live_workers: AtomicUsize::new(0),
            // A journal that cannot open is a startup invariant
            // violation (bad path, permissions): fail loudly here
            // rather than run non-durably against the caller's intent.
            dur: config
                .durability
                .as_ref()
                .map(|d| DurState::open(d).expect("open durability journal")),
        });
        let workers = (0..config.workers)
            .map(|id| {
                let core = pin.then(|| {
                    allowed
                        .get(id % allowed.len().max(1))
                        .copied()
                        .unwrap_or(id % cpus)
                });
                spawn_worker(&shared, id, core)
            })
            .collect();
        Runtime { shared, workers }
    }

    /// Number of workers the kernel accepted a core pin for (zero when
    /// [`RuntimeConfig::with_pinning`] is off or unsupported).
    pub fn pinned_workers(&self) -> usize {
        self.shared.pinned.load(Ordering::Relaxed)
    }

    /// Deploy a job; events may be ingested immediately afterwards.
    ///
    /// The spec is validated via the now-fallible
    /// [`ExpandedJob::expand`]: an invalid graph (no ingest stage, a
    /// cycle, zero parallelism, …) is rejected with the precise
    /// [`GraphError`] instead of panicking — a division-by-zero deep in
    /// [`Runtime::ingest`] used to be the failure mode for a job with
    /// no source instances.
    ///
    /// Slots freed by [`undeploy`](Self::undeploy) are reused; the new
    /// handle carries the slot's bumped generation, so handles to the
    /// previous occupant stay invalid.
    ///
    /// [`ExpandedJob::expand`]: cameo_dataflow::expand::ExpandedJob::expand
    pub fn deploy(&self, spec: &JobSpec, opts: &ExpandOptions) -> Result<JobHandle, DeployError> {
        let (handle, job) = self.shared.jobs.reserve().install(spec, opts)?;
        // Journal the deployment *after* releasing the jobs write lock
        // (global lock order: jobs lock → journal lock; a writer must
        // never wait on the journal). A crash in the window between the
        // install and this append loses a deployment whose caller never
        // saw `Ok` — and no frame can have been admitted for it, since
        // admission requires the handle this call has not returned yet.
        self.shared.dur_append(&JournalRecord::Deploy {
            slot: handle.slot,
            gen: handle.gen,
            name: job.name.clone(),
        });
        Ok(handle)
    }

    /// Undeploy a job: gracefully drain its in-flight work (bounded by
    /// a 5-second default — see
    /// [`undeploy_within`](Self::undeploy_within)), then retire it.
    /// Returns the number of messages the scheduler still had to purge
    /// after the drain window (zero when the drain completed).
    pub fn undeploy(&self, job: JobHandle) -> Result<u64, JobError> {
        self.undeploy_within(job, Duration::from_secs(5))
    }

    /// [`undeploy`](Self::undeploy) with an explicit drain budget.
    ///
    /// The sequence is: mark the job draining (new `ingest` calls get
    /// [`JobError::Draining`]; a concurrent `undeploy` of the same
    /// handle gets it too), sleep on the job's drain condvar until its
    /// in-flight message count reaches zero or the `drain` budget
    /// expires — the decrement that hits zero wakes this thread
    /// directly, so drain completion is observed at the moment it
    /// happens, not at the next poll tick (the wait is skipped when the
    /// runtime has no workers — nothing would ever drain) — then:
    ///
    /// 1. **vacate** the slot and bump its generation: from here on
    ///    outstanding handles get [`JobError::Stale`], and every
    ///    message of the job fails the generation check before it
    ///    executes;
    /// 2. **purge**: [`ShardedScheduler::retire_job`] drops whatever the
    ///    drain left in the mailbox and the two-level queue;
    /// 3. **free** the slot for reuse. Only now, so no `deploy` can
    ///    place a new occupant whose messages a purge keyed by the same
    ///    slot could still delete.
    pub fn undeploy_within(&self, job: JobHandle, drain: Duration) -> Result<u64, JobError> {
        let jrt = self.shared.jobs.get(job)?;
        if jrt.draining.swap(true, Ordering::SeqCst) {
            return Err(JobError::Draining);
        }
        if !self.workers.is_empty() {
            jrt.wait_drained(drain);
        }
        let purged = self
            .shared
            .jobs
            .retire(job, || self.shared.sched.retire_job(JobId(job.slot)) as u64);
        // Journal after the write lock is released (jobs → journal
        // order). Replay is idempotent: an `Undeploy` whose slot
        // generation already advanced past `gen` is skipped.
        self.shared.dur_append(&JournalRecord::Undeploy {
            slot: job.slot,
            gen: job.gen,
        });
        Ok(purged)
    }

    /// Subscribe to a job's sink outputs. Dropping the returned
    /// [`OutputSubscription`] unsubscribes: dead subscribers are pruned
    /// on every later `subscribe` and on every output delivery, so the
    /// subscriber list never grows with abandoned receivers.
    pub fn subscribe(&self, job: JobHandle) -> Result<OutputSubscription, JobError> {
        let jrt = self.shared.jobs.get(job)?;
        let (tx, rx) = channel();
        let alive = Arc::new(());
        let mut subs = relock(&jrt.subscribers);
        subs.retain(Subscriber::live);
        subs.push(Subscriber {
            tx,
            alive: Arc::downgrade(&alive),
        });
        Ok(OutputSubscription { rx, _alive: alive })
    }

    /// Ingest a batch of tuples at one of the job's sources. Tuples
    /// without meaningful event times may use `LogicalTime::ZERO`; the
    /// runtime stamps ingestion time in that case.
    pub fn ingest(&self, job: JobHandle, source: u32, tuples: Vec<Tuple>) -> Result<(), JobError> {
        let batch = IngestFrame::addressed(job, source, tuples).into_batch(self.shared.now());
        if self.admit([(job.slot, job.gen, source, batch)]).frames == 1 {
            return Ok(());
        }
        // Refused: a handle the jobs table rejects is `NotFound` or
        // `Stale`; one it still accepts belongs to a draining job.
        self.shared.jobs.get(job).and(Err(JobError::Draining))
    }

    /// Ingest a whole read's worth of decoded network frames as **one**
    /// scheduler batch: every frame is routed through its job's ingest
    /// instance, and the outbound messages of *all* frames are published
    /// to the mailbox together — one publication, one hint update and
    /// one wake for the entire call, however many frames (and jobs) it
    /// spans. It admits frames exactly as [`ingest`](Self::ingest) does
    /// and is the entry point the TCP serve loop uses for coalescing.
    ///
    /// Frames addressed to vacant slots (jobs never deployed, or
    /// already retired) and to draining jobs are dropped and counted in
    /// the outcome (clients may race deployment and undeployment);
    /// unlike the in-process entry points, an unknown job here is
    /// remote-input data, not a programming error, so it must not
    /// panic. The v2 wire addresses `(slot, generation)` — a frame that
    /// races its job's undeploy, even one arriving after the slot's
    /// *reuse*, fails the generation check and is rejected
    /// ([`IngestOutcome::gen_rejected`]), never delivered to the new
    /// occupant: the remote twin of [`JobError::Stale`]. Tuples with
    /// `LogicalTime::ZERO` event times are stamped with ingestion time,
    /// as in [`ingest`](Self::ingest).
    ///
    /// `SchedulerStats::net_batches` / `frames_coalesced` record each
    /// call and its frame count, so the achieved coalescing ratio is
    /// observable; `gen_rejected_frames` counts its generation
    /// rejections (`ingest` returns [`JobError::Stale`] instead).
    pub fn ingest_frames<I: IntoIterator<Item = IngestFrame>>(&self, frames: I) -> IngestOutcome {
        let now = self.shared.now();
        let out = self.admit(
            frames
                .into_iter()
                .map(|f| (f.job, f.gen, f.source, f.into_batch(now))),
        );
        if out.frames > 0 {
            self.shared.net_batches.fetch_add(1, Ordering::Relaxed);
            self.shared
                .frames_coalesced
                .fetch_add(out.frames as u64, Ordering::Relaxed);
        }
        if out.gen_rejected > 0 {
            self.shared
                .gen_rejected
                .fetch_add(out.gen_rejected as u64, Ordering::Relaxed);
        }
        out
    }

    /// The one admission routine behind [`ingest`](Self::ingest),
    /// [`ingest_frames`](Self::ingest_frames) and journal replay. A
    /// stamped `(slot, generation, source, batch)` frame is admitted when
    /// its slot's occupant is not draining and carries its generation.
    /// Admitted frames are routed, counted in flight, journaled as one
    /// `Frames` record (unless replaying) and published as one batch.
    fn admit(&self, frames: impl IntoIterator<Item = (u32, u32, u32, Batch)>) -> IngestOutcome {
        let mut out = IngestOutcome::default();
        // Resolve each slot the call references once (first-occurrence
        // cache), cloning its `Arc` under a brief jobs-table read lock
        // dropped before any routing: routing takes instance mutexes,
        // and holding the jobs RwLock across those would let a slow UDF
        // plus a waiting `deploy` (writer) stall every worker's own
        // `jobs.read()`. A live job's entry holds its ingress guard
        // until the call's messages are submitted — see `IngressGuard`.
        let mut seen: Vec<(u32, Option<IngressGuard>)> = Vec::new();
        // Group the call's frames by (job, ingest instance), keeping
        // first-seen group order and per-group frame order, so each
        // group pays its instance lock once — not once per frame.
        let mut groups: Vec<(u32, Arc<JobRt>, usize, Vec<Batch>)> = Vec::new();
        // Write-ahead capture of every admitted frame, post-stamping,
        // so replay reproduces the logical times the operators saw.
        let mut dur_recs: Vec<FrameRecord> = Vec::new();
        for (index, (slot, gen, source, batch)) in frames.into_iter().enumerate() {
            let jrt = match seen.iter().find(|(s, _)| *s == slot) {
                Some((_, guard)) => guard.as_ref().map(IngressGuard::job),
                None => {
                    let guard = self
                        .shared
                        .jobs
                        .occupant(slot)
                        .and_then(IngressGuard::admit);
                    let jrt = guard.as_ref().map(IngressGuard::job);
                    seen.push((slot, guard));
                    jrt
                }
            };
            let Some(jrt) = jrt else {
                out.dropped += 1;
                continue;
            };
            // The generation check, per frame (one read can carry
            // frames from producers holding handles of different
            // generations): only the occupant the sender actually
            // addressed may receive its tuples.
            if gen != jrt.gen {
                out.gen_rejected += 1;
                out.rejected.push(RejectedFrame {
                    index,
                    job: slot,
                    gen,
                    expected_gen: jrt.gen,
                });
                continue;
            }
            let ingest_idx = ingest_instance(&jrt.ingests, source);
            if self.shared.dur_active() {
                dur_recs.push(FrameRecord::from_batch(slot, gen, source, &batch));
            }
            match groups
                .iter_mut()
                .find(|(j, _, idx, _)| *j == slot && *idx == ingest_idx)
            {
                Some((_, _, _, batches)) => batches.push(batch),
                None => groups.push((slot, jrt, ingest_idx, vec![batch])),
            }
            out.frames += 1;
        }
        // Each group takes its ingest instance's mutex once for all of
        // its frames; each frame stays its own message set, so frame
        // boundaries are preserved downstream.
        let mut outbound = Vec::new();
        for (slot, jrt, ingest_idx, batches) in groups {
            let before = outbound.len();
            let gen = jrt.gen;
            let mut inst = relock(&jrt.instances[ingest_idx]);
            for batch in batches {
                inst.fan_out_source(
                    &*self.shared.policy,
                    jrt.latency_constraint,
                    batch,
                    |target, msg| {
                        outbound.push((
                            OperatorKey::new(JobId(slot), target as u32),
                            RtMsg { msg, gen },
                        ))
                    },
                );
            }
            drop(inst);
            jrt.inflight
                .fetch_add((outbound.len() - before) as u64, Ordering::AcqRel);
        }
        out.messages = outbound.len();
        // Group commit: one journal append (and at most one fsync) for
        // the entire call, before publication; the per-job
        // `IngressGuard`s in `seen` keep the admitted jobs
        // non-quiescent across the append.
        if !dur_recs.is_empty() {
            self.shared.dur_append(&JournalRecord::Frames(dur_recs));
        }
        self.shared.submit_batch(outbound);
        out
    }

    /// Latency statistics of a job's sink outputs. Available while the
    /// job is draining (the last snapshot before retirement is often
    /// the interesting one); stale once the job is gone.
    pub fn job_stats(&self, job: JobHandle) -> Result<JobStatsSnapshot, JobError> {
        Ok(self.shared.jobs.get(job)?.stats.snapshot())
    }

    /// The profiled own cost (`C_oM`, the smoothed measured execution
    /// time deadlines are derived from) of the job's operator instance
    /// `op`, indexed as in [`ExpandedJob::instances`]; `None` past the
    /// last instance. Time a yield point spent running other operators
    /// is not part of it. Waits while the instance is executing.
    ///
    /// [`ExpandedJob::instances`]: cameo_dataflow::expand::ExpandedJob::instances
    pub fn operator_cost(&self, job: JobHandle, op: usize) -> Result<Option<Micros>, JobError> {
        let jrt = self.shared.jobs.get(job)?;
        Ok(jrt
            .instances
            .get(op)
            .map(|inst| relock(inst).converter.profile.own_cost()))
    }

    /// Scheduler counters, plus the runtime-level network-coalescing
    /// counters (`net_batches`, `frames_coalesced`,
    /// `gen_rejected_frames`) and the runtime's own stale-execution
    /// drops (folded into `retired_drops`). Deadline hits and misses are
    /// per job, in [`JobStatsSnapshot`].
    pub fn scheduler_stats(&self) -> SchedulerStats {
        let mut stats = self.shared.sched.stats();
        stats.net_batches += self.shared.net_batches.load(Ordering::Relaxed);
        stats.frames_coalesced += self.shared.frames_coalesced.load(Ordering::Relaxed);
        stats.gen_rejected_frames += self.shared.gen_rejected.load(Ordering::Relaxed);
        stats.retired_drops += self.shared.stale_exec_drops.load(Ordering::Relaxed);
        stats
    }

    /// Workers currently running: the configured pool once every thread
    /// has started. A worker an operator panic unwound through is no
    /// longer counted, so this is the gauge that shows the pool needs
    /// repair.
    pub fn worker_count(&self) -> usize {
        self.shared.live_workers.load(Ordering::SeqCst)
    }

    /// Mailbox buffer capacity, in 512-message units (a live gauge,
    /// rounded up). The name predates the locked mailbox, whose inbox
    /// buffers replaced 512-slot arena segments.
    pub fn arena_segments(&self) -> usize {
        self.shared.sched.mailbox_capacity().div_ceil(512)
    }

    /// Pending message count.
    pub fn queue_len(&self) -> usize {
        self.shared.sched.len()
    }

    /// Wait (bounded) until the runtime is quiescent — the scheduler
    /// empty *and* no live job with a message in flight — so that every
    /// message admitted before the call has finished executing and its
    /// outputs are counted. Returns `false` if `timeout` passes first.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.shared
            .at_quiescence(timeout, || (), |_, ()| ())
            .is_some()
    }

    /// Take an operator-state snapshot now, waiting up to five seconds
    /// for the runtime to quiesce. See
    /// [`snapshot_within`](Self::snapshot_within).
    pub fn snapshot(&self) -> Result<u64, SnapshotError> {
        self.snapshot_within(Duration::from_secs(5))
    }

    /// Take an operator-state snapshot at the next quiescent point
    /// (scheduler empty, no in-flight messages), waiting up to `wait`
    /// for one. Returns the snapshot's sequence number.
    ///
    /// Quiescence is verified while holding the journal lock, so the
    /// captured journal offset is a *consistent cut*: every record at
    /// or below it has been fully processed, every record above it has
    /// not been snapshotted. The latest two snapshots are retained and
    /// the journal is truncated below the older one (a torn newest
    /// snapshot then still recovers from the previous one).
    ///
    /// This and [`snapshot`](Self::snapshot) are the only snapshot
    /// triggers: the runtime never snapshots on its own.
    pub fn snapshot_within(&self, wait: Duration) -> Result<u64, SnapshotError> {
        recovery::try_snapshot(&self.shared, wait)
    }

    /// Stop all workers and join them. Pending messages are dropped.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.shared.sched.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_core::context::PriorityContext;
    use cameo_core::ids::MessageId;
    use cameo_core::priority::Priority;
    use cameo_core::time::LogicalTime;
    use cameo_core::worker::{StepOutcome, WorkerStep};
    use cameo_dataflow::expand::Message;
    use cameo_dataflow::queries::AggQueryParams;

    fn tiny_query(name: &str, window: u64) -> JobSpec {
        cameo_dataflow::queries::agg_query(
            &AggQueryParams::new(name, window, Micros::from_millis(500))
                .with_sources(2)
                .with_parallelism(2)
                .with_domain(cameo_core::progress::TimeDomain::IngestionTime),
        )
    }

    #[test]
    fn replies_reach_the_sending_instance_and_edge_on_a_fan_in() {
        use cameo_dataflow::graph::{JobBuilder, Routing};
        use cameo_dataflow::operator::OperatorKind;
        use cameo_dataflow::ops::Passthrough;
        // Instances: src 0-1, mid 2-3, left 4, right 5. Each of `left`
        // and `right` has one channel from each `mid` instance; `mid`'s
        // out-edge 0 goes to `left`, edge 1 to `right`.
        let mut b = JobBuilder::new(
            "fan-in",
            Micros::from_millis(500),
            cameo_core::progress::TimeDomain::IngestionTime,
        );
        let src = b.ingest("src", 2);
        let mid = b.stage("mid", 2, OperatorKind::Regular, Micros(1), |_| {
            Box::new(Passthrough)
        });
        let left = b.stage("left", 1, OperatorKind::Regular, Micros(1), |_| {
            Box::new(Passthrough)
        });
        let right = b.stage("right", 1, OperatorKind::Regular, Micros(1), |_| {
            Box::new(Passthrough)
        });
        b.connect(src, mid, Routing::Forward);
        b.connect(mid, left, Routing::Forward);
        b.connect(mid, right, Routing::Forward);
        let spec = b.build().unwrap();
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
        let opts = ExpandOptions {
            seed_profiles: false,
            ..ExpandOptions::default()
        };
        let job = rt.deploy(&spec, &opts).unwrap();
        // Source 1 feeds mid 3 only, which reaches channel 1 of both
        // `left` and `right`.
        rt.ingest(job, 1, vec![Tuple::new(7, 1, LogicalTime(0))])
            .unwrap();
        assert!(rt.drain(Duration::from_secs(10)));
        let jrt = rt.shared.jobs.get(job).unwrap();
        let reported = |op: usize, edge: u32| {
            relock(&jrt.instances[op])
                .converter
                .profile
                .edge_report(edge)
                .is_some()
        };
        let sent_on: [(usize, &[u32]); 4] = [(0, &[]), (1, &[0]), (2, &[]), (3, &[0, 1])];
        for (op, edges) in sent_on {
            for edge in 0..2 {
                assert_eq!(
                    reported(op, edge),
                    edges.contains(&edge),
                    "instance {op}, edge {edge}"
                );
            }
        }
        rt.shutdown();
    }

    #[test]
    fn deploy_ingest_and_collect_outputs() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
        let job = rt
            .deploy(&tiny_query("t", 10_000), &ExpandOptions::default())
            .unwrap();
        let rx = rt.subscribe(job).unwrap();
        // Two rounds per source: fill window [0,10ms) then cross it.
        for (source, base) in [(0u32, 0u64), (1, 0)] {
            let tuples = (0..50)
                .map(|i| Tuple::new(i, 1, LogicalTime(base + i * 10)))
                .collect();
            rt.ingest(job, source, tuples).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        for source in [0u32, 1] {
            let tuples = (0..50)
                .map(|i| Tuple::new(i, 1, LogicalTime(50_000 + i)))
                .collect();
            rt.ingest(job, source, tuples).unwrap();
        }
        assert!(rt.drain(std::time::Duration::from_secs(5)), "queue drains");
        // The first window should have fired.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut got = 0usize;
        while std::time::Instant::now() < deadline {
            if let Ok(ev) = rx.recv_timeout(std::time::Duration::from_millis(100)) {
                got += ev.batch.len();
                break;
            }
        }
        assert!(got > 0, "sink produced grouped output");
        let stats = rt.job_stats(job).unwrap();
        assert!(stats.outputs >= 1);
        rt.shutdown();
    }

    #[test]
    fn multiple_jobs_isolated() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
        let a = rt
            .deploy(&tiny_query("a", 5_000), &ExpandOptions::default())
            .unwrap();
        let b = rt
            .deploy(&tiny_query("b", 5_000), &ExpandOptions::default())
            .unwrap();
        assert_ne!(a, b);
        for job in [a, b] {
            rt.ingest(job, 0, vec![Tuple::new(1, 1, LogicalTime(1_000))])
                .unwrap();
            rt.ingest(job, 1, vec![Tuple::new(2, 1, LogicalTime(1_000))])
                .unwrap();
            rt.ingest(job, 0, vec![Tuple::new(1, 1, LogicalTime(9_000))])
                .unwrap();
            rt.ingest(job, 1, vec![Tuple::new(2, 1, LogicalTime(9_000))])
                .unwrap();
        }
        assert!(rt.drain(std::time::Duration::from_secs(5)));
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_when_idle() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(4));
        let started = std::time::Instant::now();
        rt.shutdown();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn scheduler_stats_accumulate() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
        let job = rt
            .deploy(&tiny_query("s", 5_000), &ExpandOptions::default())
            .unwrap();
        rt.ingest(job, 0, vec![Tuple::new(1, 1, LogicalTime(1))])
            .unwrap();
        assert!(rt.drain(std::time::Duration::from_secs(5)));
        let stats = rt.scheduler_stats();
        assert!(stats.messages_scheduled > 0);
        // One tuple against a 500 ms target: nothing is ever past its
        // start deadline, so no lease is granted in tier order.
        assert_eq!((stats.overload_acquisitions, stats.tier_overtakes), (0, 0));
        // And one job is one tier: no lease is cut short for a stricter one.
        assert_eq!(stats.tier_preemptions, 0);
        rt.shutdown();
    }

    #[test]
    fn zero_worker_runtime_still_constructs() {
        // A queue-only runtime (submissions accumulate, nothing drains)
        // is a valid configuration.
        let rt = Runtime::start(RuntimeConfig {
            workers: 0,
            ..Default::default()
        });
        let job = rt
            .deploy(&tiny_query("q", 5_000), &ExpandOptions::default())
            .unwrap();
        rt.ingest(job, 0, vec![Tuple::new(1, 1, LogicalTime(1))])
            .unwrap();
        assert!(rt.queue_len() > 0, "message queued with no one to drain it");
        rt.shutdown();
    }

    #[test]
    fn starvation_limit_reaches_the_shards() {
        // The boost scenario of the scheduler's own
        // `starvation_limit_clamps_priorities`, on the scheduler a
        // runtime built: nothing drains a zero-worker runtime, so the
        // test is the only one acquiring.
        let order_under = |scheduler: SchedulerConfig| {
            let rt = Runtime::start(RuntimeConfig {
                workers: 0,
                ..RuntimeConfig::default().with_scheduler(scheduler)
            });
            let sched = &rt.shared.sched;
            assert!(sched.acquire(0, PhysicalTime::ZERO).is_none());
            let pris = [
                Priority::uniform(500),
                Priority::IDLE,
                Priority::uniform(2_000),
            ];
            for (op, pri) in pris.into_iter().enumerate() {
                let msg = RtMsg {
                    msg: Message {
                        channel: op as u32,
                        batch: Batch::new(Vec::new(), PhysicalTime::ZERO),
                        pc: PriorityContext::initialize(MessageId(op as u64), JobId(0), Micros(1)),
                    },
                    gen: 0,
                };
                sched.submit(OperatorKey::new(JobId(0), op as u32), msg, pri);
            }
            let mut order = Vec::new();
            let mut step = WorkerStep::new(0);
            loop {
                match step.next(&mut &*sched, PhysicalTime::ZERO) {
                    StepOutcome::Run(_, m, _) => order.push(m.msg.channel),
                    StepOutcome::Released => {}
                    StepOutcome::Empty => break,
                }
            }
            rt.shutdown();
            order
        };
        let quantum = SchedulerConfig::default().with_quantum(Micros::ZERO);
        assert_eq!(order_under(quantum), vec![0, 2, 1], "no guard: by priority");
        assert_eq!(
            order_under(quantum.with_starvation_limit(Micros(1_000))),
            vec![0, 1, 2],
            "both waiters clamp to the limit and run in arrival order"
        );
    }

    #[test]
    fn sharded_runtime_processes_everything() {
        let rt = Runtime::start(
            RuntimeConfig::default()
                .with_workers(4)
                .with_scheduler(SchedulerConfig::default().with_quantum(Micros(100))),
        );
        let job = rt
            .deploy(&tiny_query("sh", 5_000), &ExpandOptions::default())
            .unwrap();
        let before = rt.job_stats(job).unwrap().outputs;
        assert_eq!(before, 0);
        for round in 0..20u64 {
            for source in [0u32, 1] {
                let tuples = (0..20)
                    .map(|i| Tuple::new(i, 1, LogicalTime(round * 1_000 + i)))
                    .collect();
                rt.ingest(job, source, tuples).unwrap();
            }
        }
        for source in [0u32, 1] {
            rt.ingest(job, source, vec![Tuple::new(0, 1, LogicalTime(90_000))])
                .unwrap();
        }
        assert!(rt.drain(std::time::Duration::from_secs(10)));
        let stats = rt.scheduler_stats();
        assert!(stats.messages_scheduled > 0);
        assert!(
            rt.job_stats(job).unwrap().outputs >= 1,
            "windows fired with four workers on one scheduler"
        );
        rt.shutdown();
    }

    #[test]
    fn fixed_pool_runtime_has_no_controller() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while rt.worker_count() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(rt.worker_count(), 2);
        let names: Vec<_> = rt.workers.iter().map(|h| h.thread().name()).collect();
        assert_eq!(
            names,
            [Some("cameo-worker-0"), Some("cameo-worker-1")],
            "the runtime's only threads are its workers"
        );
        rt.shutdown();
    }

    #[test]
    fn pinned_runtime_processes_everything() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(2).with_pinning(true));
        // Probe whether this host can pin the cores the two workers
        // will target: workers now round-robin within the startup
        // affinity mask, so the targets are the first entries of
        // `allowed_cores` (cores inside the mask are pinnable by
        // definition, but probe anyway in a scratch thread).
        let allowed = cameo_core::affinity::allowed_cores();
        let pinnable = !allowed.is_empty()
            && (0..2usize).all(|i| {
                let core = allowed[i % allowed.len()];
                std::thread::spawn(move || cameo_core::affinity::pin_to_core(core))
                    .join()
                    .unwrap_or(false)
            });
        if pinnable {
            // The spawn loop pins before the first acquire; give the
            // threads a beat to come up.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            while rt.pinned_workers() < 2 && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            assert_eq!(rt.pinned_workers(), 2, "both workers pinned on linux");
        }
        let job = rt
            .deploy(&tiny_query("pin", 5_000), &ExpandOptions::default())
            .unwrap();
        for source in [0u32, 1] {
            rt.ingest(job, source, vec![Tuple::new(1, 1, LogicalTime(1_000))])
                .unwrap();
            rt.ingest(job, source, vec![Tuple::new(1, 1, LogicalTime(9_000))])
                .unwrap();
        }
        assert!(rt.drain(std::time::Duration::from_secs(5)));
        rt.shutdown();
    }

    #[test]
    fn pinning_respects_narrowed_affinity_mask() {
        // A runtime started inside a cpuset narrowed to one core must
        // pin every worker onto *that* core (round-robin within the
        // allowed set), not onto `i % cpus` counted from core 0 —
        // which the kernel would reject for every core outside the
        // mask. Narrow a scratch thread's mask and start the runtime
        // from it: the workers inherit the narrowed mask.
        let pinned = std::thread::spawn(|| {
            let allowed = cameo_core::affinity::allowed_cores();
            let Some(&target) = allowed.last() else {
                return None; // mask unreadable: nothing to regress
            };
            if !cameo_core::affinity::pin_to_core(target) {
                return None;
            }
            assert_eq!(
                cameo_core::affinity::allowed_cores(),
                vec![target],
                "pin_to_core narrows the mask to one core"
            );
            let rt = Runtime::start(RuntimeConfig::default().with_workers(2).with_pinning(true));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            while rt.pinned_workers() < 2 && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let pinned = rt.pinned_workers();
            rt.shutdown();
            Some(pinned)
        })
        .join()
        .unwrap();
        if let Some(pinned) = pinned {
            assert_eq!(pinned, 2, "both workers pinned inside the narrowed mask");
        }
    }

    #[test]
    fn ingest_frames_coalesces_into_one_submit_batch() {
        // A 0-worker runtime: nothing drains, so the counters and the
        // queue length observe exactly what one ingest_frames call
        // produced.
        let rt = Runtime::start(RuntimeConfig {
            workers: 0,
            ..Default::default()
        });
        let job = rt
            .deploy(&tiny_query("nf", 5_000), &ExpandOptions::default())
            .unwrap();
        let frames: Vec<IngestFrame> = (0..6u32)
            .map(|i| {
                IngestFrame::addressed(
                    job,
                    i % 2,
                    vec![Tuple::new(i as u64, 1, LogicalTime(1_000 + i as u64))],
                )
            })
            .collect();
        let out = rt.ingest_frames(frames);
        assert_eq!(out.frames, 6);
        assert_eq!(out.dropped, 0);
        assert!(out.messages >= 6, "each frame expands to >= 1 message");
        assert_eq!(rt.queue_len(), out.messages);
        let stats = rt.scheduler_stats();
        assert_eq!(stats.net_batches, 1, "one call = one net batch");
        assert_eq!(stats.frames_coalesced, 6);
        rt.shutdown();
    }

    #[test]
    fn ingest_frames_drops_unknown_jobs_without_panicking() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
        let job = rt
            .deploy(&tiny_query("uk", 5_000), &ExpandOptions::default())
            .unwrap();
        let out = rt.ingest_frames(vec![
            IngestFrame {
                job: job.slot() + 99,
                gen: job.generation(),
                source: 0,
                tuples: vec![Tuple::new(1, 1, LogicalTime(1))],
            },
            IngestFrame::addressed(job, 0, vec![Tuple::new(2, 1, LogicalTime(2))]),
        ]);
        assert_eq!(out.dropped, 1);
        assert_eq!(out.frames, 1);
        assert!(rt.drain(std::time::Duration::from_secs(5)));
        assert_eq!(rt.scheduler_stats().frames_coalesced, 1);
        rt.shutdown();
    }

    #[test]
    fn ingest_frames_matches_ingest_per_frame() {
        // The coalesced entry point must produce the same processing
        // results as per-frame ingest: same windows, same counts.
        let run = |coalesced: bool| {
            let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
            let job = rt
                .deploy(&tiny_query("eq", 10_000), &ExpandOptions::default())
                .unwrap();
            let mk = |source: u32, base: u64| {
                IngestFrame::addressed(
                    job,
                    source,
                    (0..50)
                        .map(|i| Tuple::new(i, 1, LogicalTime(base + i * 10)))
                        .collect(),
                )
            };
            let frames = vec![mk(0, 0), mk(1, 0), mk(0, 50_000), mk(1, 50_000)];
            if coalesced {
                let out = rt.ingest_frames(frames);
                assert_eq!(out.frames, 4);
            } else {
                for f in frames {
                    rt.ingest(job, f.source, f.tuples).unwrap();
                }
            }
            assert!(rt.drain(std::time::Duration::from_secs(5)));
            let outputs = rt.job_stats(job).unwrap().outputs;
            rt.shutdown();
            outputs
        };
        let batched = run(true);
        let per_frame = run(false);
        assert!(batched >= 1, "coalesced ingest fired windows");
        assert_eq!(batched, per_frame, "same windows either way");
    }

    #[test]
    fn unpinned_runtime_reports_zero_pins() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
        assert_eq!(rt.pinned_workers(), 0);
        rt.shutdown();
    }

    #[test]
    fn arena_segments_gauges_mailbox_capacity() {
        // No workers, so nothing drains: the gauge reads the inbox that
        // one ingest call's batch landed in.
        let rt = Runtime::start(RuntimeConfig {
            workers: 0,
            ..Default::default()
        });
        let spec = cameo_dataflow::queries::agg_query(
            &AggQueryParams::new("el", 1_000, Micros(1_000_000))
                .with_sources(2)
                .with_domain(cameo_core::progress::TimeDomain::IngestionTime),
        );
        let job = rt.deploy(&spec, &ExpandOptions::default()).unwrap();
        assert_eq!(rt.arena_segments(), 0, "no buffer before the first mail");
        // One ingest call publishes one chain: at least 1 200
        // messages, more than two 512-message units.
        let frames: Vec<IngestFrame> = (0..1_200u64)
            .map(|i| {
                IngestFrame::addressed(job, (i % 2) as u32, vec![Tuple::new(i, 1, LogicalTime(i))])
            })
            .collect();
        assert_eq!(rt.ingest_frames(frames).frames, 1_200);
        assert!(rt.queue_len() >= 1_200);
        assert!(rt.arena_segments() >= 3, "{}", rt.arena_segments());
        let stats = rt.scheduler_stats();
        assert_eq!(stats.batch_publications, 1);
        assert_eq!(
            stats.node_alloc_fallback, 0,
            "an empty inbox takes the batch's buffer without growing"
        );
        rt.shutdown();
    }

    #[test]
    fn panicking_operator_factory_does_not_leak_the_slot() {
        use cameo_dataflow::graph::JobBuilder;
        use cameo_dataflow::operator::OperatorKind;
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
        let mut b = JobBuilder::new(
            "boom",
            Micros::from_millis(100),
            cameo_core::progress::TimeDomain::IngestionTime,
        );
        let src = b.ingest("src", 1);
        let s = b.stage(
            "s",
            1,
            OperatorKind::Regular,
            Micros(1),
            |_| -> Box<dyn cameo_dataflow::operator::Operator> { panic!("factory bug") },
        );
        b.connect(src, s, cameo_dataflow::graph::Routing::Forward);
        let bad = b.build().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.deploy(&bad, &ExpandOptions::default())
        }));
        assert!(result.is_err(), "factory panic propagates");
        // The reserved slot must have been handed back: the next deploy
        // lands in slot 0 instead of growing the table.
        let ok = rt
            .deploy(&tiny_query("after", 5_000), &ExpandOptions::default())
            .unwrap();
        assert_eq!(ok.slot(), 0, "panicked deploy leaked its slot");
        rt.shutdown();
    }

    #[test]
    fn undeploy_retires_and_rejects_stale_handles() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
        let job = rt
            .deploy(&tiny_query("u", 5_000), &ExpandOptions::default())
            .unwrap();
        rt.ingest(job, 0, vec![Tuple::new(1, 1, LogicalTime(1_000))])
            .unwrap();
        assert!(rt.drain(std::time::Duration::from_secs(5)));
        rt.undeploy(job).unwrap();
        assert_eq!(rt.queue_len(), 0, "no retired-job messages linger");
        // Every per-job entry point rejects the stale handle.
        assert_eq!(rt.job_stats(job).err(), Some(JobError::Stale));
        assert_eq!(
            rt.ingest(job, 0, vec![Tuple::new(1, 1, LogicalTime(1))])
                .err(),
            Some(JobError::Stale)
        );
        assert!(rt.subscribe(job).is_err());
        assert_eq!(rt.undeploy(job).err(), Some(JobError::Stale));
        rt.shutdown();
    }

    #[test]
    fn slot_reuse_bumps_generation_and_never_misroutes() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(2));
        let old = rt
            .deploy(&tiny_query("old", 5_000), &ExpandOptions::default())
            .unwrap();
        rt.undeploy(old).unwrap();
        let new = rt
            .deploy(&tiny_query("new", 5_000), &ExpandOptions::default())
            .unwrap();
        assert_eq!(new.slot(), old.slot(), "slot is reused");
        assert_eq!(new.generation(), old.generation() + 1);
        assert_ne!(old, new);
        // The old handle must hit Stale — never the new job's data.
        assert_eq!(rt.job_stats(old).err(), Some(JobError::Stale));
        let rx = rt.subscribe(new).unwrap();
        // An in-process ingest through the stale handle is refused as
        // Stale. It shares admission with `ingest_frames`, but only the
        // wire entry point counts wire rejections and coalescing.
        let poison = 1_000_000_000;
        assert_eq!(
            rt.ingest(old, 0, vec![Tuple::new(1, poison, LogicalTime(1_000))])
                .err(),
            Some(JobError::Stale)
        );
        let s = rt.scheduler_stats();
        let wire_counts = s.gen_rejected_frames + s.net_batches + s.frames_coalesced;
        assert_eq!(wire_counts, 0);
        // The new handle works.
        rt.ingest(new, 0, vec![Tuple::new(1, 1, LogicalTime(1_000))])
            .unwrap();
        rt.ingest(new, 0, vec![Tuple::new(1, 1, LogicalTime(9_000))])
            .unwrap();
        assert!(rt.drain(std::time::Duration::from_secs(5)));
        assert_eq!(rt.job_stats(new).unwrap().outputs, 0); // window still open
        feed_until_output(&rt, new);
        // Its windows fire with none of the stale call's tuples.
        let outputs: Vec<OutputEvent> = rx.try_iter().collect();
        assert!(!outputs.is_empty());
        assert!(outputs
            .iter()
            .flat_map(|ev| &ev.batch.tuples)
            .all(|t| t.value < poison));
        rt.shutdown();
    }

    #[test]
    fn undeploy_purges_queued_work_on_zero_worker_runtime() {
        // No workers: nothing drains, so undeploy's purge must clean the
        // scheduler by itself (the graceful-drain wait is skipped).
        let rt = Runtime::start(RuntimeConfig {
            workers: 0,
            ..Default::default()
        });
        let job = rt
            .deploy(&tiny_query("z", 5_000), &ExpandOptions::default())
            .unwrap();
        for round in 0..5u64 {
            rt.ingest(job, 0, vec![Tuple::new(round, 1, LogicalTime(1 + round))])
                .unwrap();
        }
        let queued = rt.queue_len();
        assert!(queued > 0);
        let purged = rt.undeploy(job).unwrap();
        assert_eq!(purged as usize, queued, "every queued message purged");
        assert_eq!(rt.queue_len(), 0);
        let stats = rt.scheduler_stats();
        assert_eq!(stats.jobs_retired, 1);
        assert_eq!(
            (stats.messages_purged, stats.retired_drops),
            (purged, 0),
            "purge is visible in scheduler stats"
        );
        rt.shutdown();
    }

    #[test]
    fn draining_job_refuses_ingest_but_serves_stats() {
        let rt = Runtime::start(RuntimeConfig {
            workers: 0,
            ..Default::default()
        });
        let job = rt
            .deploy(&tiny_query("dr", 5_000), &ExpandOptions::default())
            .unwrap();
        // Flip the draining flag directly (undeploy would retire the
        // job before we could observe the window).
        rt.shared
            .jobs
            .get(job)
            .unwrap()
            .draining
            .store(true, Ordering::SeqCst);
        assert_eq!(
            rt.ingest(job, 0, vec![Tuple::new(1, 1, LogicalTime(1))])
                .err(),
            Some(JobError::Draining)
        );
        assert!(rt.job_stats(job).is_ok(), "stats remain readable");
        assert_eq!(rt.undeploy(job).err(), Some(JobError::Draining));
        rt.shutdown();
    }

    #[test]
    fn unknown_slot_is_not_found() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
        let bogus = JobHandle { slot: 99, gen: 0 };
        assert_eq!(rt.job_stats(bogus).err(), Some(JobError::NotFound));
        rt.shutdown();
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
        let job = rt
            .deploy(&tiny_query("sub", 5_000), &ExpandOptions::default())
            .unwrap();
        // Subscribe-then-drop N times: the list must not grow
        // unboundedly (each subscribe prunes the dead entries).
        for _ in 0..100 {
            let sub = rt.subscribe(job).unwrap();
            drop(sub);
        }
        let live = rt.subscribe(job).unwrap();
        let n = relock(&rt.shared.jobs.get(job).unwrap().subscribers).len();
        assert!(n <= 2, "dead subscribers accumulate: {n} entries");
        // The surviving subscription still receives outputs (same feed
        // shape as `deploy_ingest_and_collect_outputs`).
        for source in [0u32, 1] {
            let tuples = (0..50)
                .map(|i| Tuple::new(i, 1, LogicalTime(i * 10)))
                .collect();
            rt.ingest(job, source, tuples).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        for source in [0u32, 1] {
            let tuples = (0..50)
                .map(|i| Tuple::new(i, 1, LogicalTime(50_000 + i)))
                .collect();
            rt.ingest(job, source, tuples).unwrap();
        }
        assert!(rt.drain(std::time::Duration::from_secs(5)));
        assert!(live.recv_timeout(std::time::Duration::from_secs(5)).is_ok());
        rt.shutdown();
    }

    /// Window-crossing feed shape shared by the egress tests: two
    /// sources, one early batch, one far-future batch to close the
    /// window, then a drain.
    fn feed_until_output(rt: &Runtime, job: JobHandle) {
        for source in [0u32, 1] {
            let tuples = (0..50)
                .map(|i| Tuple::new(i, 1, LogicalTime(i * 10)))
                .collect();
            rt.ingest(job, source, tuples).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        for source in [0u32, 1] {
            let tuples = (0..50)
                .map(|i| Tuple::new(i, 1, LogicalTime(50_000 + i)))
                .collect();
            rt.ingest(job, source, tuples).unwrap();
        }
        assert!(rt.drain(std::time::Duration::from_secs(5)));
    }

    #[test]
    fn sink_batches_are_arc_shared_across_subscribers() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
        let job = rt
            .deploy(&tiny_query("arc", 5_000), &ExpandOptions::default())
            .unwrap();
        let sub_a = rt.subscribe(job).unwrap();
        let sub_b = rt.subscribe(job).unwrap();
        feed_until_output(&rt, job);
        let ev_a = sub_a
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("subscriber A receives");
        let ev_b = sub_b
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("subscriber B receives");
        // Zero deep copies on the sink path: both subscribers hold the
        // *same* batch allocation, not per-subscriber clones.
        assert!(
            Arc::ptr_eq(&ev_a.batch, &ev_b.batch),
            "subscribers must share one Arc'd batch"
        );
        assert_eq!(ev_a.batch.tuples, ev_b.batch.tuples);
        // The delivery counter audits the fan-out: exactly one
        // delivery per (output, subscriber) pair, while `outputs`
        // counts the batch once.
        let stats = rt.job_stats(job).unwrap();
        assert!(stats.outputs >= 1);
        assert_eq!(
            stats.delivered,
            2 * stats.outputs,
            "two subscribers, one delivery each per output"
        );
        rt.shutdown();
    }

    #[test]
    fn slow_subscriber_cannot_block_another_subscribers_delivery() {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
        let job = rt
            .deploy(&tiny_query("slow", 5_000), &ExpandOptions::default())
            .unwrap();
        // `slow` never calls recv: its channel queue only grows. The
        // sink path must still deliver to `live` promptly — sends
        // happen outside the subscribers mutex, so one subscriber's
        // backlog cannot serialize (or block) another's delivery.
        let slow = rt.subscribe(job).unwrap();
        let live = rt.subscribe(job).unwrap();
        feed_until_output(&rt, job);
        let ev = live
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("live subscriber delivered despite a stalled peer");
        assert!(!ev.batch.is_empty());
        // The stalled subscriber was never pruned (it is alive, just
        // slow) and its backlog is intact.
        let stats = rt.job_stats(job).unwrap();
        assert_eq!(stats.delivered, 2 * stats.outputs);
        drop(slow);
        rt.shutdown();
    }

    #[test]
    fn deploy_rejects_jobs_without_ingests() {
        use cameo_dataflow::graph::StageSpec;
        use cameo_dataflow::operator::OperatorKind;
        use cameo_dataflow::ops::Passthrough;
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
        // `JobBuilder::build` validates an ingest stage exists, but the
        // JobSpec fields are public — a hand-assembled spec used to slip
        // through deploy and blow up later as a division-by-zero inside
        // `ingest`. It must be rejected at deploy time with the precise
        // graph error, and the slot it briefly held must be reusable.
        let spec = JobSpec {
            name: "empty".into(),
            latency_constraint: Micros::from_millis(500),
            time_domain: cameo_core::progress::TimeDomain::IngestionTime,
            stages: vec![StageSpec {
                name: "only".into(),
                parallelism: 1,
                kind: OperatorKind::Regular,
                cost_hint: Micros(10),
                factory: Some(Arc::new(|_ctx| Box::new(Passthrough))),
            }],
            edges: vec![],
        };
        assert_eq!(
            rt.deploy(&spec, &ExpandOptions::default()),
            Err(DeployError::Graph(GraphError::NoIngest))
        );
        // The failed deploy must not leak its slot: the next deploy
        // lands in slot 0.
        let ok = rt
            .deploy(&tiny_query("ok", 5_000), &ExpandOptions::default())
            .unwrap();
        assert_eq!(ok.slot(), 0);
        rt.shutdown();
    }
}
