//! The discrete-event simulation engine.
//!
//! Executes real dataflow jobs (actual operator logic, actual priority
//! contexts, the actual two-level scheduler) against *virtual* time: a
//! message's stay on a worker is given by the cost model, and the event
//! loop interleaves arrivals, deliveries, executions and replies in
//! timestamp order with a deterministic tiebreak. Given a seed, a run
//! is bit-for-bit reproducible.
//!
//! The engine models the paper's testbed: client sources off-cluster,
//! server nodes with a fixed worker pool each, per-node run queues
//! (the scheduler under test), and a constant one-way network delay
//! between machines.

use crate::cluster::{ClusterSpec, Placement, OFF_CLUSTER};
use crate::costmodel::{CostConfig, CostModel};
use crate::dispatch::{
    CameoDispatcher, DispatchLease, Dispatcher, OrleansDispatcher, SlotDispatcher,
};
use crate::message::{SenderRef, SimMsg};
use crate::metrics::{SchedEvent, SimMetrics};
use crate::workload::WorkloadGen;
use cameo_core::config::SchedulerConfig;
use cameo_core::context::ReplyContext;
use cameo_core::policy::{
    EdfPolicy, FifoPolicy, LlfPolicy, MessageStamp, Policy, SjfPolicy, TokenFairPolicy,
};
use cameo_core::scheduler::{Decision, SchedulerStats};
use cameo_core::time::{Micros, PhysicalTime};
use cameo_dataflow::event::Batch;
use cameo_dataflow::expand::{route_batch, ExpandedJob};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Priority-generating policy (the context-conversion side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    Llf,
    Edf,
    Sjf,
    TokenFair,
}

impl PolicyKind {
    pub fn to_policy(self) -> Arc<dyn Policy> {
        match self {
            PolicyKind::Llf => Arc::new(LlfPolicy),
            PolicyKind::Edf => Arc::new(EdfPolicy),
            PolicyKind::Sjf => Arc::new(SjfPolicy),
            PolicyKind::TokenFair => Arc::new(TokenFairPolicy),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Llf => "LLF",
            PolicyKind::Edf => "EDF",
            PolicyKind::Sjf => "SJF",
            PolicyKind::TokenFair => "TokenFair",
        }
    }
}

/// Which scheduler runs on every node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Cameo's two-level priority scheduler with the given policy.
    Cameo(PolicyKind),
    /// The custom FIFO baseline of §6.
    Fifo,
    /// The default Orleans scheduler model (ConcurrentBag).
    OrleansLike,
    /// Slot-based execution (operators pinned to workers).
    Slot,
}

impl SchedulerKind {
    pub fn label(&self) -> String {
        match self {
            SchedulerKind::Cameo(p) => format!("Cameo-{}", p.name()),
            SchedulerKind::Fifo => "FIFO".into(),
            SchedulerKind::OrleansLike => "Orleans".into(),
            SchedulerKind::Slot => "Slot".into(),
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    pub cluster: ClusterSpec,
    pub sched: SchedulerKind,
    /// Re-scheduling quantum (§5.2; default 1 ms).
    pub quantum: Micros,
    pub cost: CostConfig,
    pub seed: u64,
    /// Capture sink output records for correctness checks.
    pub capture_outputs: bool,
    /// Record per-execution schedule events (Fig 7c timelines).
    pub record_schedule: bool,
    /// Record per-execution processed-tuple counts (Fig 6 throughput).
    pub record_processing: bool,
    /// Operator-to-node placement policy.
    pub placement: Placement,
    /// Ablation: suppress Reply Contexts entirely (no acknowledgement
    /// path, so converters never refresh cost/critical-path profiles).
    pub disable_replies: bool,
    /// Cost-profiling EWMA smoothing factor applied to every operator's
    /// [`ConverterState`](cameo_core::policy::ConverterState) at engine
    /// construction (`None` keeps whatever the jobs were expanded
    /// with). This is an *unconditional* engine-wide override for
    /// direct `Engine` users; the [`Scenario`](crate::scenario::Scenario)
    /// layer instead merges its `with_profile_alpha` into each job's
    /// `ExpandOptions` so a job-level choice wins — the same precedence
    /// as the runtime's deploy path. Deterministic: the override
    /// happens before the first event fires.
    pub profile_alpha: Option<f64>,
    /// Crash the run (stop dead, in-flight events lost) immediately
    /// after this many arrivals have been ingested across all jobs.
    /// While set, every ingested arrival is also recorded in the
    /// engine's arrival journal — the simulator's write-ahead log — so
    /// [`Engine::run_crash`] can hand the journal to a recovery run.
    pub stop_at_arrival: Option<u64>,
    /// Recovery runs only: arrivals never fire before this instant.
    /// Regenerated (post-crash) workload arrivals whose generation time
    /// precedes the crash are clamped up to it — a producer cannot
    /// deliver into the past of a recovered runtime.
    pub arrival_floor: PhysicalTime,
}

impl EngineConfig {
    pub fn new(cluster: ClusterSpec, sched: SchedulerKind) -> Self {
        EngineConfig {
            cluster,
            sched,
            quantum: Micros::from_millis(1),
            cost: CostConfig::default(),
            seed: 1,
            capture_outputs: false,
            record_schedule: false,
            record_processing: false,
            placement: Placement::Spread,
            disable_replies: false,
            profile_alpha: None,
            stop_at_arrival: None,
            arrival_floor: PhysicalTime::ZERO,
        }
    }
}

/// What a crashed run leaves behind for recovery: the simulator's
/// analogue of the runtime's on-disk journal. Produced by
/// [`Engine::run_crash`], consumed by [`Engine::prime_replay`] (via
/// `Scenario::with_crash_at`).
#[derive(Clone, Debug)]
pub struct CrashCut {
    /// Virtual time of the crash.
    pub at: PhysicalTime,
    /// Every ingested arrival in admission order: `(job, source,
    /// batch)`, post-stamping — replay reproduces the exact logical
    /// times the operators saw, the same guarantee the runtime journal
    /// gives via `FrameRecord`.
    pub journal: Vec<(u16, u32, Batch)>,
    /// Arrivals ingested per job: recovery fast-forwards each job's
    /// workload generator past these (they come back via the journal).
    pub ingested_per_job: Vec<u64>,
}

impl CrashCut {
    /// Model a torn final journal record: the last ingested arrival's
    /// record did not fully reach the log, so recovery discards it —
    /// and the producer, never having been acknowledged, re-sends it
    /// (the generator fast-forward shrinks by one, regenerating the
    /// same arrival). Returns false on an empty journal.
    pub fn tear_last(&mut self) -> bool {
        match self.journal.pop() {
            Some((job, _, _)) => {
                self.ingested_per_job[job as usize] -= 1;
                true
            }
            None => false,
        }
    }
}

enum Ev {
    /// External batch lands at an ingest instance.
    Arrival { job: u16, source: u32, batch: Batch },
    /// Message arrives at a target operator's node.
    Deliver { job: u16, op: u32, msg: SimMsg },
    /// Acknowledgement (RC) arrives back at the sending operator.
    Reply {
        job: u16,
        op: u32,
        edge: u32,
        rc: ReplyContext,
    },
    /// Worker finishes its current message.
    Complete { node: u16, worker: u16 },
    /// A job departs the cluster (Fig 8-style churn): its workload
    /// stops, every node's dispatcher retires it, and in-flight
    /// messages are dropped at delivery/completion guards — mirroring
    /// the runtime's `undeploy`.
    Depart { job: u16 },
    /// A journaled arrival re-ingested during recovery. Identical to
    /// `Arrival` except it does not pull the workload generator — the
    /// generator was fast-forwarded past journaled arrivals, and the
    /// regenerated stream is primed separately.
    Replay { job: u16, source: u32, batch: Batch },
}

struct Scheduled {
    time: PhysicalTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct Running {
    lease: DispatchLease,
    msg: SimMsg,
    cost: Micros,
}

struct Worker {
    running: Option<Running>,
    last_op: Option<cameo_core::ids::OperatorKey>,
    /// Guards against double-booking: set while `complete()` is
    /// mid-flight (its local sends may wake this very worker).
    completing: bool,
}

struct Node {
    disp: Box<dyn Dispatcher>,
    workers: Vec<Worker>,
}

struct JobState {
    exp: ExpandedJob,
    workload: Option<WorkloadGen>,
    /// Absolute departure time, if the scenario schedules one.
    departure: Option<PhysicalTime>,
    /// Set once the departure fires: arrivals, deliveries and fan-out
    /// for this job are dropped from then on.
    departed: bool,
}

/// The simulator.
pub struct Engine {
    now: PhysicalTime,
    events: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    jobs: Vec<JobState>,
    placement: Vec<Vec<u16>>,
    nodes: Vec<Node>,
    policy: Arc<dyn Policy>,
    cost: CostModel,
    rng: ChaCha8Rng,
    pub metrics: SimMetrics,
    cfg: EngineConfig,
    /// Latest scheduled delivery per (job, op, channel): keeps jittered
    /// deliveries FIFO per channel.
    channel_clock: std::collections::HashMap<(u16, u32, u32), u64>,
    /// Arrivals ingested so far (the crash countdown).
    ingested_total: u64,
    /// Per-job ingested-arrival counts (recovery fast-forward offsets).
    ingested_per_job: Vec<u64>,
    /// The write-ahead arrival journal, recorded while
    /// `cfg.stop_at_arrival` is set.
    arrival_journal: Vec<(u16, u32, Batch)>,
}

impl Engine {
    /// Build an engine over expanded jobs and their workloads. Job `i`
    /// must have been expanded with `JobId(i)`.
    pub fn new(cfg: EngineConfig, mut jobs: Vec<(ExpandedJob, Option<WorkloadGen>)>) -> Self {
        for (i, (exp, _)) in jobs.iter().enumerate() {
            assert_eq!(
                exp.id.0 as usize, i,
                "job {i} must be expanded with JobId({i})"
            );
        }
        if let Some(alpha) = cfg.profile_alpha {
            for (exp, _) in jobs.iter_mut() {
                for inst in exp.instances.iter_mut() {
                    inst.converter.set_profile_alpha(alpha);
                }
            }
        }
        let exps: Vec<&ExpandedJob> = jobs.iter().map(|(e, _)| e).collect();
        let placement = place_jobs_ref(&exps, &cfg.cluster, cfg.placement);
        let metrics = SimMetrics::new(
            jobs.iter()
                .map(|(e, _)| (e.name.clone(), e.latency_constraint))
                .collect(),
            cfg.cluster.nodes as usize,
            cfg.capture_outputs,
            cfg.record_schedule,
            cfg.record_processing,
        );
        let make_dispatcher = |workers: u16| -> Box<dyn Dispatcher> {
            match cfg.sched {
                SchedulerKind::Cameo(_) | SchedulerKind::Fifo => Box::new(CameoDispatcher::new(
                    SchedulerConfig::default().with_quantum(cfg.quantum),
                )),
                SchedulerKind::OrleansLike => {
                    Box::new(OrleansDispatcher::new(workers, cfg.quantum))
                }
                SchedulerKind::Slot => Box::new(SlotDispatcher::new(workers)),
            }
        };
        let nodes = (0..cfg.cluster.nodes)
            .map(|_| Node {
                disp: make_dispatcher(cfg.cluster.workers_per_node),
                workers: (0..cfg.cluster.workers_per_node)
                    .map(|_| Worker {
                        running: None,
                        last_op: None,
                        completing: false,
                    })
                    .collect(),
            })
            .collect();
        let policy: Arc<dyn Policy> = match cfg.sched {
            SchedulerKind::Cameo(p) => p.to_policy(),
            SchedulerKind::Fifo => Arc::new(FifoPolicy),
            // Baselines ignore priorities but PCs still carry the
            // latency-accounting fields.
            SchedulerKind::OrleansLike | SchedulerKind::Slot => Arc::new(LlfPolicy),
        };
        let njobs = jobs.len();
        Engine {
            now: PhysicalTime::ZERO,
            events: BinaryHeap::new(),
            seq: 0,
            jobs: jobs
                .into_iter()
                .map(|(exp, workload)| JobState {
                    exp,
                    workload,
                    departure: None,
                    departed: false,
                })
                .collect(),
            placement,
            nodes,
            policy,
            cost: CostModel::new(cfg.cost),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xC0FF_EE00),
            metrics,
            ingested_total: 0,
            ingested_per_job: vec![0; njobs],
            arrival_journal: Vec::new(),
            cfg,
            channel_clock: std::collections::HashMap::new(),
        }
    }

    fn push_event(&mut self, time: PhysicalTime, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse(Scheduled {
            time,
            seq: self.seq,
            ev,
        }));
    }

    /// Schedule job `job` to depart the cluster at `at` (it must have
    /// been constructed with the engine; the departure fires during
    /// [`run`](Self::run)). Mirrors `Runtime::undeploy` for
    /// deterministic churn experiments: arrivals stop, dispatch queues
    /// are purged, in-flight work is dropped.
    pub fn depart_job_at(&mut self, job: usize, at: PhysicalTime) {
        self.jobs[job].departure = Some(at);
    }

    /// Prime journaled arrivals for a recovery run: every batch is
    /// re-ingested at `cfg.arrival_floor` (the crash instant), in
    /// journal order, ahead of any regenerated workload arrival at the
    /// same instant. Call before [`run`](Self::run).
    pub fn prime_replay(&mut self, journal: Vec<(u16, u32, Batch)>) {
        let at = self.cfg.arrival_floor;
        for (job, source, batch) in journal {
            self.push_event(at, Ev::Replay { job, source, batch });
        }
    }

    /// Run to completion (all workloads drained, all messages settled).
    pub fn run(mut self) -> SimMetrics {
        self.run_inner();
        self.metrics
    }

    /// Run until the configured crash point (`cfg.stop_at_arrival`),
    /// abandoning everything still in flight — queued deliveries,
    /// running executions, pending replies all vanish, exactly like a
    /// process crash. Returns the pre-crash metrics plus the
    /// [`CrashCut`] a recovery run replays from.
    pub fn run_crash(mut self) -> (SimMetrics, CrashCut) {
        assert!(
            self.cfg.stop_at_arrival.is_some(),
            "run_crash requires cfg.stop_at_arrival"
        );
        self.run_inner();
        let cut = CrashCut {
            at: self.now,
            journal: std::mem::take(&mut self.arrival_journal),
            ingested_per_job: std::mem::take(&mut self.ingested_per_job),
        };
        (self.metrics, cut)
    }

    fn run_inner(&mut self) {
        // Prime one arrival per job.
        for j in 0..self.jobs.len() {
            self.pull_arrival(j as u16);
        }
        // Scheduled departures enter the event stream after the primer
        // arrivals; a scenario without churn pushes nothing here and is
        // bit-for-bit identical to the pre-lifecycle engine.
        for j in 0..self.jobs.len() {
            if let Some(at) = self.jobs[j].departure {
                self.push_event(at, Ev::Depart { job: j as u16 });
            }
        }
        while let Some(Reverse(Scheduled { time, ev, .. })) = self.events.pop() {
            debug_assert!(time >= self.now, "time must not regress");
            self.now = time;
            match ev {
                Ev::Arrival { job, source, batch } => {
                    if self.jobs[job as usize].departed {
                        continue;
                    }
                    // Journal before ingesting (the write-ahead order
                    // of the runtime's `ingest_frames`).
                    if self.cfg.stop_at_arrival.is_some() {
                        self.arrival_journal.push((job, source, batch.clone()));
                    }
                    self.ingested_total += 1;
                    self.ingested_per_job[job as usize] += 1;
                    self.ingest(job, source, batch);
                    self.pull_arrival(job);
                    // Crash: drop every in-flight event on the floor.
                    if Some(self.ingested_total) == self.cfg.stop_at_arrival {
                        break;
                    }
                }
                Ev::Replay { job, source, batch } => {
                    if self.jobs[job as usize].departed {
                        continue;
                    }
                    self.ingest(job, source, batch);
                }
                Ev::Deliver { job, op, msg } => {
                    if self.jobs[job as usize].departed {
                        self.metrics.departure_drops += 1;
                        continue;
                    }
                    self.deliver_at_node(job, op, msg);
                }
                Ev::Reply { job, op, edge, rc } => {
                    if self.jobs[job as usize].departed {
                        continue;
                    }
                    let inst = &mut self.jobs[job as usize].exp.instances[op as usize];
                    self.policy.process_reply(&mut inst.converter, edge, &rc);
                }
                Ev::Complete { node, worker } => {
                    self.complete(node, worker);
                }
                Ev::Depart { job } => {
                    self.depart(job);
                }
            }
        }
        self.metrics.end_time = self.now;
        self.metrics.sched = self.sched_stats();
    }

    /// Tear a job down mid-run: stop its workload, purge its messages
    /// from every node's dispatcher, and record the purge.
    fn depart(&mut self, job: u16) {
        let js = &mut self.jobs[job as usize];
        if js.departed {
            return;
        }
        js.departed = true;
        js.workload = None;
        let jid = js.exp.id;
        let mut purged = 0usize;
        for n in self.nodes.iter_mut() {
            purged += n.disp.retire_job(jid);
        }
        self.metrics.jobs_departed += 1;
        self.metrics.purged_on_departure += purged as u64;
    }

    /// Aggregate scheduler stats across nodes.
    pub fn sched_stats(&self) -> SchedulerStats {
        let mut total = SchedulerStats::default();
        for n in &self.nodes {
            total.merge(n.disp.stats());
        }
        total
    }

    fn pull_arrival(&mut self, job: u16) {
        let Some(gen) = self.jobs[job as usize].workload.as_mut() else {
            return;
        };
        if let Some((t, source, batch)) = gen.next_arrival() {
            // Recovery: a regenerated arrival whose generation time
            // precedes the crash cannot land in the recovered run's
            // past — clamp it to the floor (logical stamps untouched).
            let t = t.max(self.cfg.arrival_floor);
            self.push_event(t, Ev::Arrival { job, source, batch });
        }
    }

    /// An external batch lands at ingest instance `source` of `job`:
    /// build the priority context (`BUILDCXTATSOURCE`) and send the
    /// routed sub-batches into the cluster.
    fn ingest(&mut self, job: u16, source: u32, batch: Batch) {
        let policy = self.policy.clone();
        let mut outbound: Vec<(u32, SimMsg)> = Vec::new();
        {
            let js = &mut self.jobs[job as usize];
            let jid = js.exp.id;
            let constraint = js.exp.latency_constraint;
            let ingest_idx = js.exp.ingests[source as usize];
            let inst = &mut js.exp.instances[ingest_idx];
            let stamp = MessageStamp {
                progress: batch.progress,
                time: batch.time,
            };
            let sender_op = ingest_idx as u32;
            let converter = &mut inst.converter;
            for route in &inst.outs {
                let pc = policy.build_at_source(jid, stamp, constraint, &route.hop, converter);
                for (target, channel, sub) in route_batch(route, &batch) {
                    outbound.push((
                        target as u32,
                        SimMsg {
                            channel,
                            batch: sub,
                            pc,
                            sender: Some(SenderRef {
                                job,
                                op: sender_op,
                                edge: route.edge,
                            }),
                        },
                    ));
                }
            }
        }
        for (target, msg) in outbound {
            self.send(None, job, target, msg);
        }
    }

    /// Route a message toward `target`; local messages are submitted
    /// immediately (with a worker-affinity hint), remote ones pay the
    /// network delay.
    fn send(&mut self, from: Option<(u16, u16)>, job: u16, target: u32, msg: SimMsg) {
        let tnode = self.placement[job as usize][target as usize];
        debug_assert_ne!(tnode, OFF_CLUSTER, "cannot send to an ingest instance");
        match from {
            Some((n, w)) if n == tnode => {
                self.submit_local(tnode, job, target, msg, Some(w));
            }
            _ => {
                let mut t = self.now + self.cfg.cluster.net_delay;
                let jitter = self.cfg.cluster.net_jitter.0;
                if jitter > 0 {
                    use rand::Rng;
                    t += Micros(self.rng.gen_range(0..=jitter));
                    // Clamp to preserve per-channel FIFO delivery.
                    let key = (job, target, msg.channel);
                    let clock = self.channel_clock.entry(key).or_insert(0);
                    if t.0 < *clock {
                        t = PhysicalTime(*clock);
                    }
                    *clock = t.0;
                }
                self.push_event(
                    t,
                    Ev::Deliver {
                        job,
                        op: target,
                        msg,
                    },
                );
            }
        }
    }

    fn deliver_at_node(&mut self, job: u16, op: u32, msg: SimMsg) {
        let node = self.placement[job as usize][op as usize];
        self.submit_local(node, job, op, msg, None);
    }

    fn submit_local(&mut self, node: u16, job: u16, op: u32, msg: SimMsg, hint: Option<u16>) {
        self.metrics.delivered += 1;
        let key = self.jobs[job as usize].exp.instances[op as usize].key;
        let pri = msg.pc.priority;
        self.nodes[node as usize].disp.submit(key, msg, pri, hint);
        self.wake_node(node);
    }

    /// Put idle workers to work while the dispatcher has runnable
    /// operators.
    fn wake_node(&mut self, node: u16) {
        // Every idle worker gets an acquire attempt: with pinned (slot)
        // dispatch only one specific worker may be able to take the new
        // work, so an early break on first failure would strand it.
        for w in 0..self.nodes[node as usize].workers.len() {
            let worker = &self.nodes[node as usize].workers[w];
            if worker.running.is_some() || worker.completing {
                continue;
            }
            self.try_start(node, w as u16);
        }
    }

    /// Attempt to start an idle worker. Returns false when no work was
    /// available.
    fn try_start(&mut self, node: u16, worker: u16) -> bool {
        let n = &mut self.nodes[node as usize];
        let Some(lease) = n.disp.acquire(worker, self.now) else {
            return false;
        };
        let Some(msg) = n.disp.take(&lease) else {
            n.disp.release(lease, worker);
            return false;
        };
        self.begin_execution(node, worker, lease, msg);
        true
    }

    /// Charge the message's cost and schedule its completion.
    fn begin_execution(&mut self, node: u16, worker: u16, lease: DispatchLease, msg: SimMsg) {
        let key = lease.key;
        let job = key.job.0 as usize;
        let op = key.op as usize;
        let inst = &self.jobs[job].exp.instances[op];
        let base = inst.cost_hint;
        let stage = inst.stage.0;
        let mut cost = self.cost.message_cost(base, msg.batch.len());
        let progress = msg.batch.progress.0;
        let w = &mut self.nodes[node as usize].workers[worker as usize];
        if w.last_op != Some(key) {
            cost += self.cost.config.ctx_switch;
        }
        w.last_op = Some(key);
        w.running = Some(Running { lease, msg, cost });
        self.metrics.busy_us[node as usize] += cost.0;
        self.metrics.executions += 1;
        self.metrics.record_sched(SchedEvent {
            time: self.now.0,
            node,
            worker,
            job: job as u16,
            stage,
            op: op as u32,
            progress,
        });
        let t = self.now + cost;
        self.push_event(t, Ev::Complete { node, worker });
    }

    /// A worker finished a message: run the operator, emit outputs,
    /// acknowledge upstream, then pick the next message per the
    /// scheduling decision.
    fn complete(&mut self, node: u16, worker: u16) {
        let policy = self.policy.clone();
        let w = &mut self.nodes[node as usize].workers[worker as usize];
        let Running { lease, msg, cost } =
            w.running.take().expect("complete fired for idle worker");
        w.completing = true;
        let key = lease.key;
        let job = key.job.0 as usize;
        let op = key.op as usize;

        // A message of a departed job that was already on a worker when
        // the departure fired: abandon it (no operator execution, no
        // outputs, no fan-out) and return the lease — the runtime's
        // generation check does the same for stale in-flight messages.
        if self.jobs[job].departed {
            self.metrics.departure_drops += 1;
            let n = &mut self.nodes[node as usize];
            n.workers[worker as usize].completing = false;
            let _ = cost;
            let _ = msg;
            n.disp.release(lease, worker);
            self.try_start(node, worker);
            return;
        }

        let mut outbound: Vec<(u32, SimMsg)> = Vec::new();
        let mut reply: Option<(SenderRef, ReplyContext)> = None;
        let mut sink_outputs: Vec<Batch> = Vec::new();
        {
            let recorded = self.cost.perturb_measurement(cost, &mut self.rng);
            let js = &mut self.jobs[job];
            let inst = &mut js.exp.instances[op];
            let mut outs = Vec::new();
            inst.op
                .as_mut()
                .expect("scheduled instance has an operator")
                .on_batch(msg.channel, &msg.batch, self.now, &mut outs);
            inst.propagate_watermark(msg.channel, msg.batch.progress.0, &mut outs);
            inst.converter.profile.record_own_cost(recorded);
            self.metrics.jobs[job].record_processed(self.now, msg.batch.len());
            if !self.cfg.disable_replies {
                if let Some(sender) = msg.sender {
                    let rc = policy.prepare_reply(&inst.converter, inst.is_sink);
                    reply = Some((sender, rc));
                }
            }
            if inst.is_sink {
                sink_outputs = outs;
            } else {
                let sender_op = op as u32;
                let converter = &mut inst.converter;
                for route in &inst.outs {
                    for b in &outs {
                        let stamp = MessageStamp {
                            progress: b.progress,
                            time: b.time,
                        };
                        let pc = policy.build_at_operator(&msg.pc, stamp, &route.hop, converter);
                        for (target, channel, sub) in route_batch(route, b) {
                            outbound.push((
                                target as u32,
                                SimMsg {
                                    channel,
                                    batch: sub,
                                    pc,
                                    sender: Some(SenderRef {
                                        job: job as u16,
                                        op: sender_op,
                                        edge: route.edge,
                                    }),
                                },
                            ));
                        }
                    }
                }
            }
        }

        for b in sink_outputs {
            self.metrics.jobs[job].record_output(&b, self.now);
        }
        for (target, m) in outbound {
            self.send(Some((node, worker)), job as u16, target, m);
        }
        if let Some((sender, rc)) = reply {
            let snode = self.placement[sender.job as usize][sender.op as usize];
            let delay = if snode == node {
                Micros::ZERO
            } else {
                self.cfg.cluster.net_delay
            };
            let t = self.now + delay;
            self.push_event(
                t,
                Ev::Reply {
                    job: sender.job,
                    op: sender.op,
                    edge: sender.edge,
                    rc,
                },
            );
        }

        // Next message for this worker.
        let n = &mut self.nodes[node as usize];
        n.workers[worker as usize].completing = false;
        match n.disp.decide(&lease, self.now) {
            Decision::Continue => {
                if let Some(next) = n.disp.take(&lease) {
                    self.begin_execution(node, worker, lease, next);
                } else {
                    n.disp.release(lease, worker);
                    self.try_start(node, worker);
                }
            }
            Decision::Swap | Decision::Idle => {
                n.disp.release(lease, worker);
                self.try_start(node, worker);
            }
        }
    }
}

/// Placement over borrowed jobs. `Spread` is the same round-robin as
/// [`crate::cluster::place_jobs`]; `Pack` collocates whole jobs.
fn place_jobs_ref(
    jobs: &[&ExpandedJob],
    cluster: &ClusterSpec,
    policy: Placement,
) -> Vec<Vec<u16>> {
    let mut next = 0u16;
    let mut placement = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let home = (j as u16) % cluster.nodes;
        let mut per_op = Vec::with_capacity(job.instances.len());
        for inst in &job.instances {
            if inst.is_ingest() {
                per_op.push(OFF_CLUSTER);
            } else {
                match policy {
                    Placement::Spread => {
                        per_op.push(next % cluster.nodes);
                        next = next.wrapping_add(1);
                    }
                    Placement::Pack => per_op.push(home),
                }
            }
        }
        placement.push(per_op);
    }
    placement
}
