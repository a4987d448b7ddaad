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
//! ## Scheduling path
//!
//! Every worker drives one [`ShardedScheduler`]: a single
//! `CameoScheduler` behind one lock, which every worker takes for its
//! `acquire`/`take`/`decide`/`release` calls (`cameo_core::shard` says
//! why one lock and not per-worker shards).
//!
//! Ingress stays *off the scheduler lock*: `submit` pushes into the
//! scheduler's mailbox under the mailbox's own inbox lock, lowers the
//! tier hint, and wakes a parked worker — it never takes the scheduler
//! mutex, so ingest threads (TCP sources, operator fan-out) cannot
//! block a dispatching worker. Ingress is also *batched end to end*:
//! source batches ([`Runtime::ingest_batch`]), whole socket reads
//! ([`Runtime::ingest_frames`] — every frame one TCP read completed,
//! see `crate::net`) and operator fan-out all travel through
//! `ShardedScheduler::submit_batch`, paying one mailbox publication,
//! one hint update and one wake per call instead of per message.
//! Workers fold the mailbox into the two-level queue under the lock
//! they already hold at acquire/take/decide/release boundaries. Idle
//! workers park on one condvar; the park/wake handshake is
//! lost-wakeup-free (see `cameo_core::shard`).
//!
//! Lock ordering: outside a yield point a worker holds at most one
//! instance lock at a time; reply application locks the *sender*
//! instance only after the executing instance's guard is dropped. The
//! scheduler lock is never held while an instance lock is held (the
//! scheduler takes and releases its internal locks within each call).
//!
//! ## Preemption points
//!
//! A worker installs a `cameo_dataflow::preempt` hook. When an operator
//! calls `yield_point()` inside `on_batch`, the hook asks
//! [`ShardedScheduler::acquire_preempting`] whether an operator in a
//! stricter latency tier outranks the message in flight; if so the
//! worker runs that lease — and any further one that still qualifies —
//! on its own stack, then returns to the interrupted message. The
//! nested lease holds a second instance lock, of another job (the
//! scheduler never nests an operator of the in-flight job) and in a
//! strictly stricter tier: policies stamp one tier per job, so every
//! worker takes nested instance locks in tier order and no two workers
//! can wait on each other's outer instance. Nesting is one level deep,
//! and the time spent nested is left out of the interrupted operator's
//! profiled cost.
//!
//! ## Fixed pool
//!
//! Every setting is fixed at start. `Runtime::start` spawns `workers`
//! threads and they run until shutdown, and a durability snapshot is
//! taken only when the caller asks for one ([`Runtime::snapshot`]).
//!
//! ## Job lifecycle
//!
//! The control plane is fallible and full-lifecycle: [`Runtime::deploy`]
//! validates the job graph and returns `Result` (no panics on bad
//! specs), every per-job entry point checks the handle against a
//! **generational slot-map** jobs table, and [`Runtime::undeploy`]
//! drains a job's in-flight work, retires it inside the scheduler
//! ([`ShardedScheduler::retire_job`]) and frees its slot for reuse. A
//! [`JobHandle`] is `(slot, generation)`: after undeploy the slot's
//! generation advances, so a stale handle gets
//! [`JobError::Stale`] — never another job's data — and a stale
//! in-flight message is dropped at a generation check before it can
//! touch the slot's new occupant.

use crate::durability::{
    self, DurState, DurabilityConfig, FrameRecord, JobSnapshot, JournalRecord, RecoverError,
    RecoveryReport, SlotSnapshot, SnapshotError, SpecRegistry,
};
use crate::msg::{IngestFrame, RtMsg, SenderRef};
use crate::stats::{JobStats, JobStatsSnapshot};
use cameo_core::config::SchedulerConfig;
use cameo_core::ids::JobId;
use cameo_core::policy::{LlfPolicy, MessageStamp, Policy};
use cameo_core::priority::Priority;
use cameo_core::scheduler::{Decision, Execution, SchedulerStats};
use cameo_core::shard::ShardedScheduler;
use cameo_core::time::{Clock, Micros, PhysicalTime, SystemClock};
use cameo_dataflow::event::{Batch, Tuple};
use cameo_dataflow::expand::{
    route_batch, route_batch_owned, ExpandOptions, ExpandedJob, OperatorInstance,
};
use cameo_dataflow::graph::{GraphError, JobSpec};
use cameo_dataflow::preempt;
use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on how long an idle worker sleeps before it looks for
/// work again. Only a backstop: every publish wakes a parked worker
/// through the scheduler's one condvar, and the park/wake handshake
/// does not lose wakeups.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

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
    /// Cost-profiling EWMA smoothing factor applied to every deployed
    /// operator's converter (`None` keeps
    /// [`cameo_core::profile::DEFAULT_ALPHA`], or whatever the job's
    /// [`ExpandOptions`] chose).
    pub profile_alpha: Option<f64>,
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
            profile_alpha: None,
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

    /// Override the cost-profiling smoothing factor for every job this
    /// runtime deploys (must be in `(0, 1]`).
    pub fn with_profile_alpha(mut self, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "profile_alpha must be in (0, 1]"
        );
        self.profile_alpha = Some(alpha);
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

struct JobRt {
    instances: Vec<Mutex<OperatorInstance>>,
    ingests: Vec<usize>,
    /// Spec name — what the journal's `Deploy` records and snapshot
    /// manifests key the [`SpecRegistry`] with at recovery.
    name: String,
    latency_constraint: Micros,
    /// Generation of the jobs-table slot this job occupies; stamped
    /// into every scheduler message and checked before execution.
    gen: u32,
    /// Set by `undeploy`: new ingest is refused while in-flight work
    /// drains.
    draining: AtomicBool,
    /// Scheduler messages submitted for this job and not yet executed.
    /// Batched increments at every submission point, one decrement per
    /// executed message (program order on the same atomic guarantees a
    /// worker's fan-out increment lands before its own decrement, so
    /// the count never dips to zero while a causal chain is alive).
    /// `undeploy`'s graceful-drain phase sleeps on [`Self::drain_cv`]
    /// until this reaches zero.
    inflight: AtomicU64,
    /// Pairs with `drain_cv`: `undeploy` re-checks `inflight` under
    /// this lock before each wait, and [`Self::dec_inflight`] bumps the
    /// lock before notifying, so the last decrement can never slip into
    /// the check→wait window unseen (same shape as the scheduler's
    /// park/wake handshake).
    drain_lock: Mutex<()>,
    /// Signalled by the decrement that takes `inflight` to zero while
    /// the job is draining.
    drain_cv: Condvar,
    stats: Arc<JobStats>,
    subscribers: Mutex<Vec<Subscriber>>,
}

impl JobRt {
    /// Decrement the in-flight count; the decrement that reaches zero
    /// on a draining job wakes the waiting `undeploy`.
    ///
    /// Ordering (mirrors the scheduler's park/wake protocol): the `SeqCst`
    /// decrement and the `SeqCst` load of `draining` here, against
    /// `undeploy`'s `SeqCst` swap of `draining` and `SeqCst` load of
    /// `inflight`, give a single total order — either this decrement
    /// sees `draining` and notifies, or `undeploy`'s count load sees
    /// the decrement and never sleeps on it. The lock bump before the
    /// notify closes the remaining race against a waiter between its
    /// predicate check and its wait.
    fn dec_inflight(&self) {
        let was = self.inflight.fetch_sub(1, Ordering::SeqCst);
        if was == 1 && self.draining.load(Ordering::SeqCst) {
            drop(self.drain_lock.lock().unwrap_or_else(|p| p.into_inner()));
            self.drain_cv.notify_all();
        }
    }
}

/// One slot of the generational jobs table.
struct JobSlot {
    /// Current generation. Bumped when the occupant is retired, which
    /// is what invalidates outstanding handles and in-flight messages.
    gen: u32,
    /// The occupant, if any.
    job: Option<Arc<JobRt>>,
}

/// The generational slot map behind every `JobHandle`.
#[derive(Default)]
struct JobsTable {
    slots: Vec<JobSlot>,
    /// Vacant slot indices, reused LIFO by `deploy`.
    free: Vec<u32>,
}

impl JobsTable {
    /// The slot's occupant, when the handle's generation is current.
    fn get(&self, handle: JobHandle) -> Result<&Arc<JobRt>, JobError> {
        let slot = self
            .slots
            .get(handle.slot as usize)
            .ok_or(JobError::NotFound)?;
        if slot.gen != handle.gen {
            return Err(JobError::Stale);
        }
        // Generation bumps and occupancy change together under the
        // write lock, so a matching generation implies an occupant;
        // stay defensive anyway.
        slot.job.as_ref().ok_or(JobError::Stale)
    }

    /// The current occupant of a raw slot index (wire-level lookup).
    fn occupant(&self, slot: u32) -> Option<&Arc<JobRt>> {
        self.slots.get(slot as usize).and_then(|s| s.job.as_ref())
    }
}

struct Shared {
    clock: SystemClock,
    sched: ShardedScheduler<RtMsg>,
    jobs: RwLock<JobsTable>,
    policy: Arc<dyn Policy>,
    shutdown: AtomicBool,
    /// In-flight messages abandoned at the pre-execution generation
    /// check (their job was undeployed while they sat in the queue).
    stale_exec_drops: AtomicU64,
    /// Workers whose `sched_setaffinity` call succeeded.
    pinned: AtomicUsize,
    /// Deploy-time converter smoothing override (see `RuntimeConfig`).
    profile_alpha: Option<f64>,
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

/// RAII +1 on a job's in-flight count for the duration of one ingress
/// call. Taken *before* the draining check (SeqCst on both sides, so
/// either the ingress sees the draining flag and refuses, or
/// `undeploy`'s drain wait sees the count and waits): without it, an
/// ingress preempted between its draining check and its message-count
/// increment could slip past a concurrent undeploy's drain, and tuples
/// accepted with `Ok(())` would be silently discarded by the
/// retirement purge.
struct IngressGuard(Arc<JobRt>);

impl IngressGuard {
    fn new(jrt: &Arc<JobRt>) -> Self {
        jrt.inflight.fetch_add(1, Ordering::SeqCst);
        IngressGuard(jrt.clone())
    }
}

impl Drop for IngressGuard {
    fn drop(&mut self) {
        self.0.dec_inflight();
    }
}

impl Shared {
    fn now(&self) -> PhysicalTime {
        self.clock.now()
    }

    /// Scheduler empty *and* every live job's in-flight count at zero:
    /// no admitted message is queued or executing. A worker takes a
    /// message out of the scheduler before it runs it, so the first
    /// half alone would miss the one it is executing.
    fn quiescent(&self, jobs: &JobsTable) -> bool {
        self.sched.is_empty()
            && jobs.slots.iter().all(|s| {
                s.job
                    .as_ref()
                    .is_none_or(|j| j.inflight.load(Ordering::SeqCst) == 0)
            })
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
    fn submit_batch<I: IntoIterator<Item = (cameo_core::ids::OperatorKey, RtMsg)>>(
        &self,
        items: I,
    ) {
        let _ = self.sched.submit_batch(items.into_iter().map(|(key, msg)| {
            let pri = msg.pc.priority;
            (key, msg, pri)
        }));
    }

    /// Route one or more source batches through a job's ingest
    /// instance, appending the priced outbound messages (with their
    /// scheduler keys) to `outbound`. Shared by the single-batch and
    /// the multi-frame ingest entry points, so both build identical
    /// messages and differ only in how many frames feed one
    /// `submit_batch`. The instance mutex is taken **once** for the
    /// whole batch slice — a coalesced burst pays the routing lock per
    /// `(job, source)` group, not per frame. Each batch stays its own
    /// message set (frame boundaries are preserved downstream).
    fn route_ingest(
        &self,
        jrt: &JobRt,
        job: u32,
        ingest_idx: usize,
        batches: Vec<Batch>,
        outbound: &mut Vec<(cameo_core::ids::OperatorKey, RtMsg)>,
    ) {
        let jid = JobId(job);
        let constraint = jrt.latency_constraint;
        let gen = jrt.gen;
        let mut inst = relock(&jrt.instances[ingest_idx]);
        let inst = &mut *inst;
        let converter = &mut inst.converter;
        let last = inst.outs.len().saturating_sub(1);
        for batch in batches {
            let stamp = MessageStamp {
                progress: batch.progress,
                time: batch.time,
            };
            // The batch is borrowed by every route but the last, which
            // consumes it: a single-target final route (the common,
            // parallelism-1 shape) then moves the tuples straight into
            // its message instead of cloning them.
            let mut batch = Some(batch);
            for (ri, route) in inst.outs.iter().enumerate() {
                let pc = self
                    .policy
                    .build_at_source(jid, stamp, constraint, &route.hop, converter);
                let routed = if ri == last {
                    route_batch_owned(route, batch.take().expect("last route consumes"))
                } else {
                    route_batch(route, batch.as_ref().expect("consumed only by last route"))
                };
                for (target, channel, sub) in routed {
                    outbound.push((
                        cameo_core::ids::OperatorKey::new(jid, target as u32),
                        RtMsg {
                            channel,
                            batch: sub,
                            pc,
                            sender: Some(SenderRef {
                                job,
                                op: ingest_idx as u32,
                                edge: route.edge,
                            }),
                            gen,
                        },
                    ));
                }
            }
        }
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
            jobs: RwLock::new(JobsTable::default()),
            policy: config.policy.clone(),
            shutdown: AtomicBool::new(false),
            stale_exec_drops: AtomicU64::new(0),
            pinned: AtomicUsize::new(0),
            profile_alpha: config.profile_alpha,
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
    pub fn deploy(&self, spec: &JobSpec, opts: &ExpandOptions) -> Result<JobHandle, DeployError> {
        // Reserve a slot under the write lock, but run the expansion
        // *unlocked*: expanding builds every operator instance of the
        // job and can be arbitrarily large, and holding the jobs write
        // lock across it would stall every worker's per-message
        // `jobs.read()`. A reserved-but-uninstalled slot is harmless —
        // no handle for it exists yet, and wire frames addressing it
        // are dropped as vacant.
        let (slot, gen) = {
            let mut jobs = self.shared.jobs.write().unwrap_or_else(|p| p.into_inner());
            let slot = match jobs.free.pop() {
                Some(s) => s,
                None => {
                    jobs.slots.push(JobSlot { gen: 0, job: None });
                    (jobs.slots.len() - 1) as u32
                }
            };
            (slot, jobs.slots[slot as usize].gen)
        };
        let id = JobId(slot);
        // Hand the reserved slot back on *any* early exit — including a
        // panic inside expansion, which runs user-supplied operator
        // factories. Without this, a panicking factory would leak one
        // permanently-vacant slot per failed deploy.
        struct SlotReservation<'a> {
            shared: &'a Shared,
            slot: u32,
            armed: bool,
        }
        impl Drop for SlotReservation<'_> {
            fn drop(&mut self) {
                if self.armed {
                    self.shared
                        .jobs
                        .write()
                        .unwrap_or_else(|p| p.into_inner())
                        .free
                        .push(self.slot);
                }
            }
        }
        let mut reservation = SlotReservation {
            shared: &self.shared,
            slot,
            armed: true,
        };
        let mut exp = ExpandedJob::expand(spec, id, opts).map_err(DeployError::Graph)?;
        // Runtime-level smoothing override; a job-level choice in the
        // ExpandOptions wins over the runtime default.
        if let Some(alpha) = self.shared.profile_alpha {
            if opts.profile_alpha.is_none() {
                for inst in exp.instances.iter_mut() {
                    inst.converter.set_profile_alpha(alpha);
                }
            }
        }
        // Slot reuse: lift the scheduler-side retirement mark left by
        // the previous occupant's undeploy, so the new job's messages
        // are accepted again.
        self.shared.sched.reinstate_job(id);
        let name = exp.name.clone();
        let job = JobRt {
            ingests: exp.ingests.clone(),
            name: name.clone(),
            latency_constraint: exp.latency_constraint,
            gen,
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
            stats: Arc::new(JobStats::new(exp.latency_constraint)),
            subscribers: Mutex::new(Vec::new()),
            instances: exp.instances.into_iter().map(Mutex::new).collect(),
        };
        // The slot is about to be occupied, not returned.
        reservation.armed = false;
        self.shared
            .jobs
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .slots[slot as usize]
            .job = Some(Arc::new(job));
        // Journal the deployment *after* releasing the jobs write lock
        // (global lock order: jobs lock → journal lock; a writer must
        // never wait on the journal). A crash in the window between the
        // install and this append loses a deployment whose caller never
        // saw `Ok` — and no frame can have been admitted for it, since
        // admission requires the handle this call has not returned yet.
        self.shared
            .dur_append(&JournalRecord::Deploy { slot, gen, name });
        Ok(JobHandle { slot, gen })
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
    /// runtime has no workers — nothing would ever drain) — then retire
    /// the job in the scheduler — [`ShardedScheduler::retire_job`] purges whatever the
    /// drain left in the mailbox and the two-level queue and
    /// keeps refusing the job id until the slot is redeployed — and
    /// finally free the slot, bumping its generation so outstanding
    /// handles and in-flight messages of the retired job are rejected
    /// everywhere.
    pub fn undeploy_within(&self, job: JobHandle, drain: Duration) -> Result<u64, JobError> {
        let jrt = self.lookup(job)?;
        if jrt.draining.swap(true, Ordering::SeqCst) {
            return Err(JobError::Draining);
        }
        if !self.workers.is_empty() {
            // SeqCst pairs with the ingress guards' SeqCst increment:
            // an ingress that passed its draining check is visible
            // here, so its messages are waited for, not purged. The
            // count is re-checked under the drain lock before every
            // wait and `dec_inflight` bumps that lock before notifying,
            // so the zero-crossing cannot fall unseen between a check
            // and its wait — the same no-lost-wakeup shape as the
            // scheduler's park/wake handshake.
            let deadline = Instant::now() + drain;
            let mut held = jrt.drain_lock.lock().unwrap_or_else(|p| p.into_inner());
            while jrt.inflight.load(Ordering::SeqCst) > 0 {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                held = jrt
                    .drain_cv
                    .wait_timeout(held, deadline - now)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            drop(held);
        }
        let purged = self.shared.sched.retire_job(JobId(job.slot)) as u64;
        {
            let mut jobs = self.shared.jobs.write().unwrap_or_else(|p| p.into_inner());
            let slot = &mut jobs.slots[job.slot as usize];
            slot.job = None;
            slot.gen = slot.gen.wrapping_add(1);
            jobs.free.push(job.slot);
        }
        // Journal after the write lock is released (jobs → journal
        // order). Replay is idempotent: an `Undeploy` whose slot
        // generation already advanced past `gen` is skipped.
        self.shared.dur_append(&JournalRecord::Undeploy {
            slot: job.slot,
            gen: job.gen,
        });
        Ok(purged)
    }

    /// Resolve a handle against the jobs table.
    fn lookup(&self, job: JobHandle) -> Result<Arc<JobRt>, JobError> {
        self.shared
            .jobs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(job)
            .cloned()
    }

    /// Subscribe to a job's sink outputs. Dropping the returned
    /// [`OutputSubscription`] unsubscribes: dead subscribers are pruned
    /// on every later `subscribe` and on every output delivery, so the
    /// subscriber list never grows with abandoned receivers.
    pub fn subscribe(&self, job: JobHandle) -> Result<OutputSubscription, JobError> {
        let jrt = self.lookup(job)?;
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
    pub fn ingest(
        &self,
        job: JobHandle,
        source: u32,
        mut tuples: Vec<Tuple>,
    ) -> Result<(), JobError> {
        let now = self.shared.now();
        // Ingestion-time stamping for tuples without event time.
        for t in tuples.iter_mut() {
            if t.time.0 == 0 {
                t.time = cameo_core::time::LogicalTime(now.0);
            }
        }
        let batch = Batch::new(tuples, now);
        self.ingest_batch(job, source, batch)
    }

    /// Ingest a pre-stamped batch (arrival time is set to "now").
    pub fn ingest_batch(
        &self,
        job: JobHandle,
        source: u32,
        mut batch: Batch,
    ) -> Result<(), JobError> {
        let now = self.shared.now();
        batch.time = now;
        let jrt = self.lookup(job)?;
        // Guard before the draining check — see [`IngressGuard`].
        let _ingress = IngressGuard::new(&jrt);
        if jrt.draining.load(Ordering::SeqCst) {
            return Err(JobError::Draining);
        }
        // Capture the write-ahead record post-stamping, pre-routing:
        // replayed tuples must carry the logical times the operators
        // actually saw.
        let dur_rec = if self.shared.dur_active() {
            Some(FrameRecord::from_batch(job.slot, jrt.gen, source, &batch))
        } else {
            None
        };
        let ingest_idx = jrt.ingests[source as usize % jrt.ingests.len()];
        let mut outbound = Vec::new();
        self.shared
            .route_ingest(&jrt, job.slot, ingest_idx, vec![batch], &mut outbound);
        jrt.inflight
            .fetch_add(outbound.len() as u64, Ordering::AcqRel);
        // Write-ahead: the journal append lands before publication, and
        // the `IngressGuard` keeps `inflight` nonzero across the append,
        // so a concurrent snapshot cannot capture an offset past this
        // record while its effects are unprocessed.
        if let Some(rec) = dur_rec {
            self.shared.dur_append(&JournalRecord::Frames(vec![rec]));
        }
        // One mailbox publication + one hint update + one wake for the
        // whole batch, instead of per-message traffic.
        self.shared.submit_batch(outbound);
        Ok(())
    }

    /// Ingest a whole read's worth of decoded network frames as **one**
    /// scheduler batch: every frame is routed through its job's ingest
    /// instance, and the outbound messages of *all* frames are published
    /// to the mailbox together — one publication, one hint update and
    /// one wake for the entire call, however many frames (and jobs) it
    /// spans. This is the multi-frame twin of
    /// [`ingest_batch`](Self::ingest_batch) and the entry point the TCP
    /// serve loop uses for frame coalescing.
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
    /// observable.
    pub fn ingest_frames<I: IntoIterator<Item = IngestFrame>>(&self, frames: I) -> IngestOutcome {
        let now = self.shared.now();
        let mut out = IngestOutcome::default();
        // Resolve only the slots this read actually references (a
        // typical read is one job), cloning each referenced `Arc` under
        // a brief jobs-table read lock — never the whole table — and
        // dropping the lock before any routing: routing takes
        // per-instance mutexes, and holding the jobs RwLock across
        // those would let a slow UDF plus a waiting `deploy` (writer)
        // stall every worker's own `jobs.read()`. First-occurrence
        // cache, so each distinct slot pays one lock acquisition per
        // read regardless of frame count.
        let mut seen: Vec<(u32, Option<Arc<JobRt>>)> = Vec::new();
        // One ingress guard per live job this read touches, held until
        // the call's messages are submitted — see [`IngressGuard`].
        let mut ingress: Vec<IngressGuard> = Vec::new();
        // Group the read's frames by (job, ingest instance), keeping
        // first-seen group order and per-group frame order, so each
        // group pays its instance lock once — not once per frame.
        let mut groups: Vec<(u32, Arc<JobRt>, usize, Vec<Batch>)> = Vec::new();
        // Write-ahead capture of every admitted frame, group-committed
        // as ONE journal record for the whole call (post-stamping, so
        // replay reproduces the logical times the operators saw).
        let mut dur_recs: Vec<FrameRecord> = Vec::new();
        for (index, frame) in frames.into_iter().enumerate() {
            let slot = frame.job;
            let jrt = match seen.iter().find(|(s, _)| *s == slot) {
                Some((_, cached)) => cached.clone(),
                None => {
                    let occupant = self
                        .shared
                        .jobs
                        .read()
                        .unwrap_or_else(|p| p.into_inner())
                        .occupant(slot)
                        .cloned();
                    // Guard before the draining check (a rejected
                    // guard drops immediately).
                    let resolved = occupant.and_then(|j| {
                        let guard = IngressGuard::new(&j);
                        if j.draining.load(Ordering::SeqCst) {
                            None
                        } else {
                            ingress.push(guard);
                            Some(j)
                        }
                    });
                    seen.push((slot, resolved.clone()));
                    resolved
                }
            };
            let Some(jrt) = jrt else {
                out.dropped += 1;
                continue;
            };
            // The v2 generation check, per frame (one read can carry
            // frames from producers holding handles of different
            // generations): only the occupant the sender actually
            // addressed may receive its tuples.
            if frame.gen != jrt.gen {
                out.gen_rejected += 1;
                out.rejected.push(RejectedFrame {
                    index,
                    job: slot,
                    gen: frame.gen,
                    expected_gen: jrt.gen,
                });
                continue;
            }
            let ingest_idx = jrt.ingests[frame.source as usize % jrt.ingests.len()];
            let src = frame.source;
            let batch = frame.into_batch(now);
            if self.shared.dur_active() {
                dur_recs.push(FrameRecord::from_batch(slot, jrt.gen, src, &batch));
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
        let mut outbound = Vec::new();
        for (slot, jrt, ingest_idx, batches) in groups {
            let before = outbound.len();
            self.shared
                .route_ingest(&jrt, slot, ingest_idx, batches, &mut outbound);
            jrt.inflight
                .fetch_add((outbound.len() - before) as u64, Ordering::AcqRel);
        }
        out.messages = outbound.len();
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
        // Group commit: one journal append (and at most one fsync) for
        // the entire read, before publication; the per-job
        // `IngressGuard`s in `ingress` keep the admitted jobs
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
        Ok(self.lookup(job)?.stats.snapshot())
    }

    /// The profiled own cost (`C_oM`, the smoothed measured execution
    /// time deadlines are derived from) of the job's operator instance
    /// `op`, indexed as in [`ExpandedJob::instances`]; `None` past the
    /// last instance. Time a yield point spent running other operators
    /// is not part of it. Waits while the instance is executing.
    pub fn operator_cost(&self, job: JobHandle, op: usize) -> Result<Option<Micros>, JobError> {
        let jrt = self.lookup(job)?;
        Ok(jrt
            .instances
            .get(op)
            .map(|inst| relock(inst).converter.profile.own_cost()))
    }

    /// Scheduler counters, plus the runtime-level network-coalescing
    /// counters (`net_batches`, `frames_coalesced`,
    /// `gen_rejected_frames`), the runtime's own stale-execution drops
    /// (folded into `retired_drops`), and the deadline hit/miss totals
    /// folded from every deployed job's sink statistics.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        let mut stats = self.shared.sched.stats();
        stats.net_batches += self.shared.net_batches.load(Ordering::Relaxed);
        stats.frames_coalesced += self.shared.frames_coalesced.load(Ordering::Relaxed);
        stats.gen_rejected_frames += self.shared.gen_rejected.load(Ordering::Relaxed);
        stats.retired_drops += self.shared.stale_exec_drops.load(Ordering::Relaxed);
        let jobs = self.shared.jobs.read().unwrap_or_else(|p| p.into_inner());
        for slot in &jobs.slots {
            if let Some(jrt) = &slot.job {
                let snap = jrt.stats.snapshot();
                stats.deadline_hits += snap.on_time;
                stats.deadline_misses += snap.outputs - snap.on_time;
            }
        }
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
        let deadline = Instant::now() + timeout;
        loop {
            let jobs = self.shared.jobs.read().unwrap_or_else(|p| p.into_inner());
            if self.shared.quiescent(&jobs) {
                return true;
            }
            drop(jobs);
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
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
        try_snapshot(&self.shared, wait)
    }

    /// Recover a crashed durable runtime from its journal and snapshots.
    ///
    /// `config` must carry the same [`DurabilityConfig`] directory the
    /// crashed runtime used; `registry` must register every spec that
    /// was deployed (operator factories are code — the journal records
    /// *which* job, the registry supplies *how* to rebuild it).
    ///
    /// The sequence: repair the journal's torn tail (checksum scan,
    /// truncate), load the newest valid snapshot (corrupt ones are
    /// rejected by checksum and counted), restore every slot's
    /// generation and every operator instance's state, then replay the
    /// journal suffix — deploys and undeploys through the slot map
    /// (idempotently: records already reflected in the snapshot are
    /// skipped), ingested frames through the normal ingest path with
    /// their **original** logical times and progress. The result is an
    /// at-least-once floor, and effectively-once outputs for
    /// deterministic operators.
    pub fn recover(
        config: RuntimeConfig,
        registry: &SpecRegistry,
    ) -> Result<(Runtime, RecoveryReport), RecoverError> {
        let dcfg = config
            .durability
            .clone()
            .ok_or(RecoverError::NotConfigured)?;
        let mut report = RecoveryReport::default();
        // Repair the torn tail first (open scans the newest segment and
        // truncates past the last valid record), then drop this handle:
        // `Runtime::start` below opens the journal for appending.
        {
            let (_repair, torn) =
                durability::Journal::open(&dcfg.dir, dcfg.fsync, dcfg.segment_bytes)?;
            report.torn_bytes += torn;
        }
        let (snaps, rejected) = durability::snapshot::load_all(&dcfg.dir)?;
        report.manifests_rejected = rejected;
        let latest = snaps.last().cloned();
        let from = latest.as_ref().map_or(0, |s| s.journal_offset);
        let (records, stats) = durability::journal::read_records(&dcfg.dir, from)?;
        report.torn_bytes += stats.torn_bytes;

        let rt = Runtime::start(config);
        let dur = rt.shared.dur.as_ref().expect("durability configured");
        // Replayed work must not be re-journaled: it is already in the
        // journal, at the offsets being replayed.
        dur.active.store(false, Ordering::Release);
        {
            let mut retained = relock(&dur.retained);
            for s in snaps.iter().rev().take(2).rev() {
                retained.push((s.seq, s.journal_offset));
            }
        }
        if let Some(snap) = &latest {
            dur.snapshot_seq.store(snap.seq, Ordering::Release);
            report.snapshot_seq = Some(snap.seq);
            for (idx, slot) in snap.slots.iter().enumerate() {
                match &slot.job {
                    // Vacant slots carry state too: their generation
                    // keeps pre-crash stale handles invalid.
                    None => rt.set_slot_gen(idx as u32, slot.gen),
                    Some(job) => {
                        let jrt = rt.deploy_into_slot(idx as u32, slot.gen, &job.name, registry)?;
                        if job.instances.len() != jrt.instances.len() {
                            return Err(RecoverError::StateMismatch {
                                job: job.name.clone(),
                                instance: job.instances.len().min(jrt.instances.len()),
                            });
                        }
                        for (i, bytes) in job.instances.iter().enumerate() {
                            if !relock(&jrt.instances[i]).state_restore(bytes) {
                                return Err(RecoverError::StateMismatch {
                                    job: job.name.clone(),
                                    instance: i,
                                });
                            }
                        }
                        report.snapshot_jobs += 1;
                    }
                }
            }
        }
        for (_end, rec) in records {
            report.records_replayed += 1;
            match rec {
                JournalRecord::Deploy { slot, gen, name } => {
                    // Idempotent against the snapshot: skip if the slot
                    // already holds this generation (restored above) or
                    // has advanced past it (a later undeploy was also
                    // snapshotted).
                    let state = {
                        let jobs = rt.shared.jobs.read().unwrap_or_else(|p| p.into_inner());
                        jobs.slots
                            .get(slot as usize)
                            .map(|s| (s.gen, s.job.is_some()))
                    };
                    let skip = match state {
                        Some((g, true)) if g == gen => true,
                        Some((g, _)) if g > gen => true,
                        _ => false,
                    };
                    if !skip {
                        rt.deploy_into_slot(slot, gen, &name, registry)?;
                    }
                }
                JournalRecord::Undeploy { slot, gen } => {
                    // A stale handle (slot already advanced — the
                    // undeploy was snapshotted) errors; that is the
                    // idempotent skip.
                    let _ = rt.undeploy_within(JobHandle { slot, gen }, Duration::from_secs(5));
                }
                JournalRecord::Frames(frames) => {
                    let (replayed, stale) = rt.replay_frames(frames);
                    report.frames_replayed += replayed;
                    report.stale_frames += stale;
                }
            }
        }
        dur.active.store(true, Ordering::Release);
        Ok((rt, report))
    }

    /// Recovery helper: force a slot's generation (growing the table if
    /// needed) without occupying it.
    fn set_slot_gen(&self, slot: u32, gen: u32) {
        let mut jobs = self.shared.jobs.write().unwrap_or_else(|p| p.into_inner());
        while jobs.slots.len() <= slot as usize {
            let idx = jobs.slots.len() as u32;
            jobs.free.push(idx);
            jobs.slots.push(JobSlot { gen: 0, job: None });
        }
        jobs.slots[slot as usize].gen = gen;
    }

    /// Recovery twin of [`deploy`](Self::deploy): re-expand `name` from
    /// the registry into a *specific* slot and generation, exactly as
    /// journaled. Shares deploy's expansion, smoothing override and
    /// scheduler reinstatement; differs only in slot placement.
    fn deploy_into_slot(
        &self,
        slot: u32,
        gen: u32,
        name: &str,
        registry: &SpecRegistry,
    ) -> Result<Arc<JobRt>, RecoverError> {
        let (spec, opts) = registry
            .get(name)
            .ok_or_else(|| RecoverError::UnknownSpec(name.to_string()))?;
        let id = JobId(slot);
        let mut exp = ExpandedJob::expand(spec, id, opts).map_err(RecoverError::Expand)?;
        if let Some(alpha) = self.shared.profile_alpha {
            if opts.profile_alpha.is_none() {
                for inst in exp.instances.iter_mut() {
                    inst.converter.set_profile_alpha(alpha);
                }
            }
        }
        self.shared.sched.reinstate_job(id);
        let jrt = Arc::new(JobRt {
            ingests: exp.ingests.clone(),
            name: exp.name.clone(),
            latency_constraint: exp.latency_constraint,
            gen,
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
            stats: Arc::new(JobStats::new(exp.latency_constraint)),
            subscribers: Mutex::new(Vec::new()),
            instances: exp.instances.into_iter().map(Mutex::new).collect(),
        });
        let mut jobs = self.shared.jobs.write().unwrap_or_else(|p| p.into_inner());
        while jobs.slots.len() <= slot as usize {
            let idx = jobs.slots.len() as u32;
            jobs.free.push(idx);
            jobs.slots.push(JobSlot { gen: 0, job: None });
        }
        jobs.free.retain(|&s| s != slot);
        let entry = &mut jobs.slots[slot as usize];
        entry.gen = gen;
        entry.job = Some(jrt.clone());
        Ok(jrt)
    }

    /// Replay journaled frames through the normal ingest path. Returns
    /// `(replayed, stale)` — stale frames belonged to a job whose slot
    /// generation has since advanced (an undeploy later in the journal),
    /// the replay-time twin of the wire generation check.
    fn replay_frames(&self, frames: Vec<FrameRecord>) -> (usize, usize) {
        let (mut replayed, mut stale) = (0, 0);
        for f in frames {
            let occupant = self
                .shared
                .jobs
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .occupant(f.slot)
                .cloned();
            let Some(jrt) = occupant else {
                stale += 1;
                continue;
            };
            if f.gen != jrt.gen {
                stale += 1;
                continue;
            }
            let _ingress = IngressGuard::new(&jrt);
            if jrt.draining.load(Ordering::SeqCst) {
                stale += 1;
                continue;
            }
            let slot = f.slot;
            let ingest_idx = jrt.ingests[f.source as usize % jrt.ingests.len()];
            let batch = f.into_batch(self.shared.now());
            let mut outbound = Vec::new();
            self.shared
                .route_ingest(&jrt, slot, ingest_idx, vec![batch], &mut outbound);
            jrt.inflight
                .fetch_add(outbound.len() as u64, Ordering::AcqRel);
            self.shared.submit_batch(outbound);
            replayed += 1;
        }
        (replayed, stale)
    }

    /// Stop all workers and join them. Pending messages are dropped.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.sched.notify_all();
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

/// Spawn worker `id`: pin it to `core` (when given) and run
/// [`worker_loop`].
fn spawn_worker(shared: &Arc<Shared>, id: usize, core: Option<usize>) -> JoinHandle<()> {
    let sh = shared.clone();
    std::thread::Builder::new()
        .name(format!("cameo-worker-{id}"))
        .spawn(move || {
            // Pin before the first acquire. Failure is benign: the
            // worker just keeps the default affinity.
            if core.is_some_and(cameo_core::affinity::pin_to_core) {
                sh.pinned.fetch_add(1, Ordering::Relaxed);
            }
            worker_loop(sh)
        })
        .expect("spawn worker thread")
}

fn worker_loop(sh: Arc<Shared>) {
    sh.live_workers.fetch_add(1, Ordering::SeqCst);
    // Decrement on *every* exit — including an operator UDF panic
    // unwinding through the worker — so `worker_count` never sticks
    // above the number of threads actually running.
    struct LiveWorker(Arc<Shared>);
    impl Drop for LiveWorker {
        fn drop(&mut self) {
            self.0.live_workers.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _live = LiveWorker(sh.clone());
    // The message this worker is executing, for the yield points inside
    // it: the hook asks the scheduler whether a stricter tier outranks it.
    let in_flight: Rc<Cell<Option<InFlight>>> = Rc::default();
    let _hook = preempt::install({
        let (sh, in_flight) = (sh.clone(), in_flight.clone());
        move || preempt_in_flight(&sh, &in_flight)
    });
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Acquire the most urgent operator, parking when there is none.
        let Some(exec) = sh.sched.acquire(0, sh.now()) else {
            sh.sched.park(PARK_TIMEOUT);
            continue;
        };
        run_lease(&sh, exec, &in_flight);
    }
}

/// The priority and job of the message a worker is executing.
type InFlight = (Priority, JobId);

/// Drain one leased operator until the scheduler says stop, recording
/// each message in `in_flight` while it executes.
fn run_lease(sh: &Arc<Shared>, exec: Execution, in_flight: &Cell<Option<InFlight>>) {
    loop {
        let Some((msg, pri)) = sh.sched.take_message(&exec) else {
            sh.sched.release(exec);
            return;
        };
        in_flight.set(Some((pri, exec.key().job)));
        process_message(sh, exec.key(), msg);
        match sh.sched.decide(&exec, sh.now()) {
            Decision::Continue => continue,
            Decision::Swap | Decision::Idle => {
                // `release` wakes a parked sibling for what a swap
                // leaves behind.
                sh.sched.release(exec);
                return;
            }
        }
    }
}

/// A worker's yield-point hook: while an operator in a stricter tier
/// outranks the message in flight, run its lease here — through the
/// same take → execute → decide → release loop as any lease — then let
/// the interrupted message resume. Returns the wall time it spent. The
/// nested leases' own yield points find no hook (it is out while this
/// runs), so nesting stops at one level.
fn preempt_in_flight(sh: &Arc<Shared>, in_flight: &Cell<Option<InFlight>>) -> Duration {
    let Some((pri, job)) = in_flight.get() else {
        return Duration::ZERO;
    };
    // Nothing stricter waiting (the common case): one load, no clock.
    if !sh.sched.stricter_tier_waiting(pri.tier()) {
        return Duration::ZERO;
    }
    let started = Instant::now();
    while let Some(exec) = sh.sched.acquire_preempting(pri, job, sh.now()) {
        run_lease(sh, exec, in_flight);
    }
    in_flight.set(Some((pri, job)));
    started.elapsed()
}

/// Attempt a snapshot, polling for a quiescent point for up to `wait`.
///
/// The consistent-cut protocol: take the jobs read lock, then the
/// journal lock (the global jobs → journal order), and verify
/// quiescence — scheduler empty *and* every job's in-flight count zero
/// — while holding both. Ingress appends the journal record while its
/// `IngressGuard` holds the count above zero, so under this check no
/// record at or below the captured offset can have unprocessed effects,
/// and any concurrent ingress past its admission check blocks on the
/// journal lock until after the offset is captured — its record lands
/// strictly above the cut. The state scan runs under the same two
/// locks; the (slow) blob write happens after both are released.
fn try_snapshot(sh: &Arc<Shared>, wait: Duration) -> Result<u64, SnapshotError> {
    let Some(dur) = &sh.dur else {
        return Err(SnapshotError::Inactive);
    };
    let deadline = Instant::now() + wait;
    loop {
        {
            let jobs = sh.jobs.read().unwrap_or_else(|p| p.into_inner());
            let guard = dur.journal.begin();
            if sh.quiescent(&jobs) {
                let offset = guard.offset();
                let seq = dur.snapshot_seq.fetch_add(1, Ordering::AcqRel) + 1;
                let mut slots = Vec::with_capacity(jobs.slots.len());
                for s in &jobs.slots {
                    let job = s.job.as_ref().map(|jrt| JobSnapshot {
                        name: jrt.name.clone(),
                        instances: jrt
                            .instances
                            .iter()
                            .map(|m| relock(m).state_snapshot())
                            .collect(),
                    });
                    slots.push(SlotSnapshot { gen: s.gen, job });
                }
                drop(guard);
                drop(jobs);
                durability::snapshot::write_snapshot(dur.journal.dir(), seq, offset, &slots)?;
                // Retain the latest two snapshots; truncate the journal
                // only below the *older* retained offset, so a torn
                // newest snapshot still recovers from the previous one
                // plus a longer journal suffix.
                let (keep, trunc_below) = {
                    let mut retained = relock(&dur.retained);
                    retained.push((seq, offset));
                    while retained.len() > 2 {
                        retained.remove(0);
                    }
                    (
                        retained.iter().map(|&(s, _)| s).collect::<Vec<u64>>(),
                        retained[0].1,
                    )
                };
                durability::snapshot::prune(dur.journal.dir(), &keep)?;
                dur.journal.begin().truncate_before(trunc_below)?;
                return Ok(seq);
            }
            drop(guard);
            drop(jobs);
        }
        if Instant::now() >= deadline {
            return Err(SnapshotError::Busy);
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Execute one message on its operator: run the UDF, record the cost,
/// acknowledge upstream, route outputs downstream.
///
/// The message's slot generation is checked against the slot's current
/// occupant first: a mismatch (or a vacant slot) means the message's
/// job was undeployed while it was in flight, and it is dropped — a
/// stale message must never execute against, or fan out into, the
/// slot's new occupant.
fn process_message(sh: &Arc<Shared>, key: cameo_core::ids::OperatorKey, msg: RtMsg) {
    let jrt = {
        let jobs = sh.jobs.read().unwrap_or_else(|p| p.into_inner());
        jobs.occupant(key.job.0).cloned()
    };
    let jrt = match jrt {
        Some(jrt) if jrt.gen == msg.gen => jrt,
        _ => {
            sh.stale_exec_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    // This message's inflight decrement, released on *every* exit —
    // including a panicking operator UDF unwinding through here.
    // Without the guard, one UDF panic would strand the job's inflight
    // count above zero forever and every later `undeploy` of the job
    // would stall for its full drain budget. The fan-out increment
    // below still precedes this drop on the normal path (guards drop
    // at scope end), preserving the never-dips-to-zero ordering.
    struct InflightMsg<'a>(&'a JobRt);
    impl Drop for InflightMsg<'_> {
        fn drop(&mut self) {
            self.0.dec_inflight();
        }
    }
    let _inflight = InflightMsg(&jrt);
    let op_idx = key.op as usize;

    let mut outbound: Vec<(usize, RtMsg)> = Vec::new();
    let mut reply: Option<(SenderRef, cameo_core::context::ReplyContext)> = None;
    let mut outputs: Vec<Batch> = Vec::new();
    let is_sink;
    {
        let mut guard = relock(&jrt.instances[op_idx]);
        let inst = &mut *guard;
        is_sink = inst.is_sink;
        let started = sh.now();
        let nested_before = preempt::nested_time();
        inst.op
            .as_mut()
            .expect("scheduled instance has an operator")
            .on_batch(msg.channel, &msg.batch, started, &mut outputs);
        inst.propagate_watermark(msg.channel, msg.batch.progress.0, &mut outputs);
        // Leases a yield point ran on this stack are other operators'
        // cost, not this one's.
        let nested = preempt::nested_time() - nested_before;
        let cost = (sh.now() - started).saturating_sub(Micros(nested.as_micros() as u64));
        inst.converter.profile.record_own_cost(cost);
        if let Some(sender) = msg.sender {
            reply = Some((
                sender,
                sh.policy.prepare_reply(&inst.converter, inst.is_sink),
            ));
        }
        if !inst.is_sink {
            let sender_op = op_idx as u32;
            let converter = &mut inst.converter;
            for route in &inst.outs {
                for b in &outputs {
                    let stamp = MessageStamp {
                        progress: b.progress,
                        time: b.time,
                    };
                    let pc = sh
                        .policy
                        .build_at_operator(&msg.pc, stamp, &route.hop, converter);
                    for (target, channel, sub) in route_batch(route, b) {
                        outbound.push((
                            target,
                            RtMsg {
                                channel,
                                batch: sub,
                                pc,
                                sender: Some(SenderRef {
                                    job: key.job.0,
                                    op: sender_op,
                                    edge: route.edge,
                                }),
                                gen: msg.gen,
                            },
                        ));
                    }
                }
            }
        }
    } // instance guard dropped before touching any other instance

    if is_sink {
        let now = sh.now();
        let handle = JobHandle {
            slot: key.job.0,
            gen: jrt.gen,
        };
        for b in outputs {
            jrt.stats.record(now, b.time, b.len());
            // Snapshot the live senders under the lock, then deliver
            // with it released: a slow subscriber (or a channel
            // internals hiccup) can never extend the critical section
            // another sink execution or `subscribe` call is waiting on.
            // Prune-on-delivery survives in two halves — dead liveness
            // tokens are dropped while snapshotting, and any send that
            // fails (receiver gone) triggers a re-lock prune below.
            let senders: Vec<Sender<OutputEvent>> = {
                let mut subs = relock(&jrt.subscribers);
                subs.retain(Subscriber::live);
                subs.iter().map(|s| s.tx.clone()).collect()
            };
            if senders.is_empty() {
                continue;
            }
            // One allocation per output batch, shared across every
            // subscriber — the fan-out clones an Arc, never the tuples.
            let batch = Arc::new(b);
            let latency = now - batch.time;
            let mut any_dead = false;
            for tx in senders {
                let ok = tx
                    .send(OutputEvent {
                        job: handle,
                        batch: batch.clone(),
                        latency,
                        at: now,
                    })
                    .is_ok();
                if ok {
                    jrt.stats.record_delivery();
                } else {
                    any_dead = true;
                }
            }
            if any_dead {
                // A closed channel means its OutputSubscription (and
                // liveness token) is gone; `live()` sees that.
                relock(&jrt.subscribers).retain(Subscriber::live);
            }
        }
    }
    if let Some((sender, rc)) = reply {
        // Replies are intra-job (the sender is an upstream instance of
        // the same dataflow), so the generation-checked `jrt` already
        // is the right table entry — no second lookup, no stale risk.
        // Enforced, not just assumed: a cross-job SenderRef (impossible
        // today, but nothing in the type forbids it) must not index
        // another job's instance vector, so it drops the reply instead.
        debug_assert_eq!(sender.job, key.job.0, "replies never cross jobs");
        if sender.job == key.job.0 {
            let mut inst = relock(&jrt.instances[sender.op as usize]);
            sh.policy
                .process_reply(&mut inst.converter, sender.edge, &rc);
        }
    }
    // Operator fan-out goes out as one batch (one publication + hint +
    // wake). The fan-out is counted in-flight *before* this message's
    // own decrement (the `InflightMsg` guard, dropped at scope end), so
    // the job's inflight count cannot dip to zero while a causal chain
    // is still alive.
    jrt.inflight
        .fetch_add(outbound.len() as u64, Ordering::AcqRel);
    sh.submit_batch(
        outbound
            .into_iter()
            .map(|(target, m)| (cameo_core::ids::OperatorKey::new(key.job, target as u32), m)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_core::context::PriorityContext;
    use cameo_core::ids::{MessageId, OperatorKey};
    use cameo_core::priority::Priority;
    use cameo_core::time::LogicalTime;
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
                    channel: op as u32,
                    batch: Batch::new(Vec::new(), PhysicalTime::ZERO),
                    pc: PriorityContext::initialize(MessageId(op as u64), JobId(0), Micros(1)),
                    sender: None,
                    gen: 0,
                };
                sched.submit(OperatorKey::new(JobId(0), op as u32), msg, pri);
            }
            let mut order = Vec::new();
            while let Some(exec) = sched.acquire(0, PhysicalTime::ZERO) {
                while let Some((m, _)) = sched.take_message(&exec) {
                    order.push(m.channel);
                }
                sched.release(exec);
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
    fn profile_alpha_flows_to_deployed_converters() {
        let rt = Runtime::start(
            RuntimeConfig::default()
                .with_workers(1)
                .with_profile_alpha(0.9),
        );
        let job = rt
            .deploy(&tiny_query("al", 5_000), &ExpandOptions::default())
            .unwrap();
        {
            let jobs = rt.shared.jobs.read().unwrap();
            for inst in jobs.get(job).unwrap().instances.iter() {
                assert_eq!(relock(inst).converter.profile.alpha(), 0.9);
            }
        }
        // A job-level choice beats the runtime default.
        let opts = ExpandOptions {
            profile_alpha: Some(0.3),
            ..Default::default()
        };
        let job2 = rt.deploy(&tiny_query("al2", 5_000), &opts).unwrap();
        {
            let jobs = rt.shared.jobs.read().unwrap();
            assert_eq!(
                relock(&jobs.get(job2).unwrap().instances[0])
                    .converter
                    .profile
                    .alpha(),
                0.3
            );
        }
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "profile_alpha")]
    fn zero_profile_alpha_rejected() {
        let _ = RuntimeConfig::default().with_profile_alpha(0.0);
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
        // The new handle works.
        rt.ingest(new, 0, vec![Tuple::new(1, 1, LogicalTime(1_000))])
            .unwrap();
        rt.ingest(new, 0, vec![Tuple::new(1, 1, LogicalTime(9_000))])
            .unwrap();
        assert!(rt.drain(std::time::Duration::from_secs(5)));
        assert_eq!(rt.job_stats(new).unwrap().outputs, 0); // window still open
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
            stats.messages_purged + stats.retired_drops,
            purged,
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
        rt.lookup(job)
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
        {
            let jobs = rt.shared.jobs.read().unwrap();
            let n = relock(&jobs.get(job).unwrap().subscribers).len();
            assert!(n <= 2, "dead subscribers accumulate: {n} entries");
        }
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
