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
//! between machines. Each simulated worker turns the same
//! [`WorkerStep`] a runtime worker turns, at the virtual time its
//! message completes.

use crate::cluster::{place_jobs, ClusterSpec, Placement, OFF_CLUSTER};
use crate::costmodel::{CostConfig, CostModel};
use crate::dispatch::{Dispatcher, OrleansDispatcher, SlotDispatcher};
use crate::metrics::{SchedEvent, SimMetrics};
use crate::workload::WorkloadGen;
use cameo_core::config::SchedulerConfig;
use cameo_core::ids::OperatorKey;
use cameo_core::policy::{EdfPolicy, FifoPolicy, LlfPolicy, Policy, SjfPolicy, TokenFairPolicy};
use cameo_core::scheduler::SchedulerStats;
use cameo_core::shard::ShardedScheduler;
use cameo_core::time::{Micros, PhysicalTime};
use cameo_core::worker::{StepOutcome, WorkerStep};
use cameo_dataflow::event::Batch;
use cameo_dataflow::expand::{ingest_instance, ExpandedJob, Message, Reply};
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
        }
    }
}

enum Ev {
    /// External batch lands at an ingest instance.
    Arrival { job: u16, source: u32, batch: Batch },
    /// Message arrives at a target operator's node.
    Deliver { job: u16, op: u32, msg: Message },
    /// Acknowledgement (RC) arrives back at the sending operator.
    Reply { job: u16, reply: Reply },
    /// Worker finishes the message it runs.
    Complete {
        node: u16,
        worker: u16,
        run: Running,
    },
    /// A job departs the cluster (Fig 8-style churn): its workload
    /// stops, every node's dispatcher retires it, and in-flight
    /// messages are dropped at delivery/completion guards — mirroring
    /// the runtime's `undeploy`.
    Depart { job: u16 },
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

/// A message on a worker, with the virtual time it costs.
struct Running {
    key: OperatorKey,
    msg: Message,
    cost: Micros,
}

struct Worker {
    /// Holds the worker's lease while it runs a message and while its
    /// `complete()` is mid-flight (whose local sends may wake this very
    /// node), so the worker is never handed a second operator.
    step: WorkerStep,
    last_op: Option<OperatorKey>,
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
}

impl Engine {
    /// Build an engine over expanded jobs and their workloads. Job `i`
    /// must have been expanded with `JobId(i)`.
    pub fn new(cfg: EngineConfig, jobs: Vec<(ExpandedJob, Option<WorkloadGen>)>) -> Self {
        for (i, (exp, _)) in jobs.iter().enumerate() {
            assert_eq!(
                exp.id.0 as usize, i,
                "job {i} must be expanded with JobId({i})"
            );
        }
        let exps: Vec<&ExpandedJob> = jobs.iter().map(|(e, _)| e).collect();
        let placement = place_jobs(&exps, &cfg.cluster, cfg.placement);
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
                SchedulerKind::Cameo(_) | SchedulerKind::Fifo => {
                    Box::new(ShardedScheduler::<Message>::new(
                        SchedulerConfig::default().with_quantum(cfg.quantum),
                    ))
                }
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
                    .map(|w| Worker {
                        step: WorkerStep::new(w),
                        last_op: None,
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

    /// Run to completion (all workloads drained, all messages settled).
    pub fn run(mut self) -> SimMetrics {
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
                    self.ingest(job, source, batch);
                    self.pull_arrival(job);
                }
                Ev::Deliver { job, op, msg } => {
                    if self.jobs[job as usize].departed {
                        self.metrics.departure_drops += 1;
                        continue;
                    }
                    self.deliver_at_node(job, op, msg);
                }
                Ev::Reply { job, reply } => {
                    if self.jobs[job as usize].departed {
                        continue;
                    }
                    let inst = &mut self.jobs[job as usize].exp.instances[reply.to];
                    self.policy
                        .process_reply(&mut inst.converter, reply.edge, &reply.rc);
                }
                Ev::Complete { node, worker, run } => {
                    self.complete(node, worker, run);
                }
                Ev::Depart { job } => {
                    self.depart(job);
                }
            }
        }
        self.metrics.end_time = self.now;
        self.metrics.sched = self.sched_stats();
        self.metrics
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
            self.push_event(t, Ev::Arrival { job, source, batch });
        }
    }

    /// An external batch lands at ingest instance `source` of `job`:
    /// its source fan-out sends the routed sub-batches into the cluster.
    fn ingest(&mut self, job: u16, source: u32, batch: Batch) {
        let mut outbound = Vec::new();
        let exp = &mut self.jobs[job as usize].exp;
        let ingest_idx = ingest_instance(&exp.ingests, source);
        exp.instances[ingest_idx].fan_out_source(
            &*self.policy,
            exp.latency_constraint,
            batch,
            |target, msg| outbound.push((target as u32, msg)),
        );
        for (target, msg) in outbound {
            self.send(None, job, target, msg);
        }
    }

    /// Route a message toward `target`; local messages are submitted
    /// immediately (with a worker-affinity hint), remote ones pay the
    /// network delay.
    fn send(&mut self, from: Option<(u16, u16)>, job: u16, target: u32, msg: Message) {
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

    fn deliver_at_node(&mut self, job: u16, op: u32, msg: Message) {
        let node = self.placement[job as usize][op as usize];
        self.submit_local(node, job, op, msg, None);
    }

    fn submit_local(&mut self, node: u16, job: u16, op: u32, msg: Message, hint: Option<u16>) {
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
            if !self.nodes[node as usize].workers[w].step.holds() {
                self.turn(node, w as u16);
            }
        }
    }

    /// Turn `worker`'s step past lease boundaries until it hands out a
    /// message, which starts executing, or has nothing to run.
    fn turn(&mut self, node: u16, worker: u16) {
        let Node { disp, workers } = &mut self.nodes[node as usize];
        let step = &mut workers[worker as usize].step;
        loop {
            match step.next(&mut **disp, self.now) {
                StepOutcome::Run(key, msg, _) => {
                    return self.begin_execution(node, worker, key, msg);
                }
                StepOutcome::Released => {}
                StepOutcome::Empty => return,
            }
        }
    }

    /// Charge the message's cost and schedule its completion.
    fn begin_execution(&mut self, node: u16, worker: u16, key: OperatorKey, msg: Message) {
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
        let run = Running { key, msg, cost };
        self.push_event(t, Ev::Complete { node, worker, run });
    }

    /// A worker finished a message: run the operator, emit outputs,
    /// acknowledge upstream, then turn the worker's step for its next
    /// message.
    fn complete(&mut self, node: u16, worker: u16, Running { key, msg, cost }: Running) {
        let job = key.job.0 as usize;
        let op = key.op as usize;

        // A message of a departed job that was already on a worker when
        // the departure fired: abandon it (no operator execution, no
        // outputs, no fan-out) and return the lease undecided — the
        // runtime's generation check does the same for stale in-flight
        // messages.
        if self.jobs[job].departed {
            self.metrics.departure_drops += 1;
            let Node { disp, workers } = &mut self.nodes[node as usize];
            workers[worker as usize].step.release(&mut **disp);
            self.turn(node, worker);
            return;
        }

        // The cost model's perturbed draw is what the profile records.
        let recorded = self.cost.perturb_measurement(cost, &mut self.rng);
        self.metrics.jobs[job].record_processed(self.now, msg.batch.len());
        let inst = &mut self.jobs[job].exp.instances[op];
        inst.execute(&msg, self.now);
        let mut outbound = Vec::new();
        let reply = inst.fan_out(
            &*self.policy,
            &msg,
            recorded,
            |target, m| outbound.push((target as u32, m)),
            |b| self.metrics.jobs[job].record_output(&b, self.now),
        );
        for (target, m) in outbound {
            self.send(Some((node, worker)), job as u16, target, m);
        }
        if !self.cfg.disable_replies {
            let delay = if self.placement[job][reply.to] == node {
                Micros::ZERO
            } else {
                self.cfg.cluster.net_delay
            };
            let t = self.now + delay;
            self.push_event(
                t,
                Ev::Reply {
                    job: job as u16,
                    reply,
                },
            );
        }
        self.turn(node, worker);
    }
}
