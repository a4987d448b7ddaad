//! Scenario builder: the high-level entry point experiments use.
//!
//! A scenario bundles a cluster, a set of jobs (query spec + workload +
//! deployment options) and a scheduler choice, runs the engine, and
//! returns a [`SimReport`]. Every benchmark binary in `cameo-bench`
//! goes through this layer.

use crate::cluster::{ClusterSpec, Placement};
use crate::costmodel::CostConfig;
use crate::engine::{Engine, EngineConfig, SchedulerKind};
use crate::metrics::{JobMetrics, SimMetrics};
use crate::workload::{WorkloadGen, WorkloadSpec};
use cameo_core::ids::JobId;
use cameo_core::time::Micros;
use cameo_dataflow::expand::{ExpandOptions, ExpandedJob};
use cameo_dataflow::graph::JobSpec;

/// One job plus its workload and deployment options.
pub struct JobSetup {
    pub spec: JobSpec,
    pub workload: WorkloadSpec,
    pub opts: ExpandOptions,
    /// Absolute departure time, if the job leaves mid-run (the paper's
    /// Fig 8 dynamic workload): at this instant the engine stops its
    /// arrivals, purges its queued messages from every dispatcher and
    /// drops its in-flight work — `Runtime::undeploy`, deterministically.
    pub departure: Option<Micros>,
}

/// A full experiment configuration.
pub struct Scenario {
    pub cluster: ClusterSpec,
    pub sched: SchedulerKind,
    pub quantum: Micros,
    pub cost: CostConfig,
    pub seed: u64,
    pub capture_outputs: bool,
    pub record_schedule: bool,
    pub record_processing: bool,
    pub placement: Placement,
    pub disable_replies: bool,
    /// Cost-profiling smoothing override (see
    /// [`EngineConfig::profile_alpha`]).
    pub profile_alpha: Option<f64>,
    /// Crash/recovery drill: crash the run after this many ingested
    /// arrivals, then recover and continue (see
    /// [`with_crash_at`](Self::with_crash_at)).
    pub crash_at: Option<u64>,
    /// With a crash scheduled: discard the final journal record at
    /// recovery, as if its write was torn mid-crash.
    pub crash_torn_tail: bool,
    jobs: Vec<JobSetup>,
}

impl Scenario {
    pub fn new(cluster: ClusterSpec, sched: SchedulerKind) -> Self {
        Scenario {
            cluster,
            sched,
            quantum: Micros::from_millis(1),
            cost: CostConfig::default(),
            seed: 1,
            capture_outputs: false,
            record_schedule: false,
            record_processing: false,
            placement: Placement::default(),
            disable_replies: false,
            profile_alpha: None,
            crash_at: None,
            crash_torn_tail: false,
            jobs: Vec::new(),
        }
    }

    /// Crash the run dead after `arrival_index` arrivals have been
    /// ingested (1-based count across all jobs), then recover and run
    /// to completion. The crashed phase's in-flight work is lost; the
    /// recovery phase replays the arrival journal (every ingested
    /// arrival, the simulator's write-ahead log) into fresh operator
    /// state at the crash instant and resumes each job's remaining
    /// workload — the deterministic mirror of `Runtime::recover`.
    /// The report's [`SimReport::pre_crash`] carries the crashed
    /// phase's metrics.
    pub fn with_crash_at(mut self, arrival_index: u64) -> Self {
        assert!(arrival_index > 0, "crash point is a 1-based arrival count");
        self.crash_at = Some(arrival_index);
        self
    }

    /// With [`with_crash_at`](Self::with_crash_at): model a torn final
    /// journal record. Recovery discards the last journaled arrival
    /// (its write never completed) and the producer — never
    /// acknowledged — re-sends it via the regenerated workload.
    pub fn with_torn_tail(mut self, torn: bool) -> Self {
        self.crash_torn_tail = torn;
        self
    }

    pub fn with_quantum(mut self, q: Micros) -> Self {
        self.quantum = q;
        self
    }

    pub fn with_cost(mut self, c: CostConfig) -> Self {
        self.cost = c;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn capture_outputs(mut self, on: bool) -> Self {
        self.capture_outputs = on;
        self
    }

    pub fn record_schedule(mut self, on: bool) -> Self {
        self.record_schedule = on;
        self
    }

    pub fn record_processing(mut self, on: bool) -> Self {
        self.record_processing = on;
        self
    }

    pub fn with_placement(mut self, p: Placement) -> Self {
        self.placement = p;
        self
    }

    /// Ablation: turn off the Reply Context feedback path.
    pub fn disable_replies(mut self, off: bool) -> Self {
        self.disable_replies = off;
        self
    }

    /// Override the cost-profiling EWMA smoothing factor for every
    /// operator in the scenario (must be in `(0, 1]`).
    pub fn with_profile_alpha(mut self, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "profile_alpha must be in (0, 1]"
        );
        self.profile_alpha = Some(alpha);
        self
    }

    pub fn add_job(&mut self, spec: JobSpec, workload: WorkloadSpec) -> &mut Self {
        self.add_job_with(spec, workload, ExpandOptions::default())
    }

    pub fn add_job_with(
        &mut self,
        spec: JobSpec,
        workload: WorkloadSpec,
        opts: ExpandOptions,
    ) -> &mut Self {
        self.add_job_lifecycle(spec, workload, opts, Micros::ZERO, None)
    }

    /// Add a job that *arrives* `arrive` into the run (its workload is
    /// shifted to start then) and, optionally, *departs* at an absolute
    /// time — the deterministic mirror of deploy/undeploy under churn.
    /// `depart = None` keeps the job for the whole run.
    pub fn add_job_lifecycle(
        &mut self,
        spec: JobSpec,
        workload: WorkloadSpec,
        opts: ExpandOptions,
        arrive: Micros,
        depart: Option<Micros>,
    ) -> &mut Self {
        assert_eq!(
            spec.stages
                .iter()
                .filter(|s| s.is_ingest())
                .map(|s| s.parallelism)
                .sum::<u32>() as usize,
            workload.sources.len(),
            "workload must define one source pattern per ingest instance of '{}'",
            spec.name
        );
        if let Some(d) = depart {
            assert!(
                d.0 >= arrive.0,
                "job '{}' would depart before it arrives",
                spec.name
            );
        }
        let workload = if arrive > Micros::ZERO {
            let start = workload.start;
            workload.with_start(start + arrive)
        } else {
            workload
        };
        self.jobs.push(JobSetup {
            spec,
            workload,
            opts,
            departure: depart,
        });
        self
    }

    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Replay every job's lifecycle and workload into a single sorted
    /// event trace *without* running the engine.
    ///
    /// The trace uses exactly the per-job generator seeding `run()`
    /// uses (`seed.wrapping_add(i * 7919)`), so it is the ground truth
    /// for what the engine will consume: the same scenario and seed
    /// always produce the bit-identical trace. Benchmarks use this to
    /// pin corpus specs as deterministic fixtures.
    pub fn event_trace(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for (i, setup) in self.jobs.iter().enumerate() {
            events.push(TraceEvent {
                at_us: setup.workload.start.0,
                job: i as u32,
                source: 0,
                kind: TraceKind::Deploy,
            });
            if let Some(d) = setup.departure {
                events.push(TraceEvent {
                    at_us: d.0,
                    job: i as u32,
                    source: 0,
                    kind: TraceKind::Depart,
                });
            }
            let depart = setup.departure.map(|d| d.0).unwrap_or(u64::MAX);
            let mut gen = WorkloadGen::new(
                setup.workload.clone(),
                self.seed.wrapping_add(i as u64 * 7919),
            );
            while let Some((t, source, batch)) = gen.next_arrival() {
                // The engine stops a departed job's arrivals at its
                // departure instant; mirror that cutoff here.
                if t.0 >= depart {
                    break;
                }
                events.push(TraceEvent {
                    at_us: t.0,
                    job: i as u32,
                    source,
                    kind: TraceKind::Arrival {
                        progress: batch.progress.0,
                        tuples: batch.len() as u32,
                    },
                });
            }
        }
        events.sort_unstable();
        events
    }

    /// Build an engine over this scenario's jobs. `skip[i]` arrivals of
    /// job `i`'s workload are fast-forwarded past (recovery: they come
    /// back via the replayed journal instead).
    fn build_engine(
        &self,
        stop_at_arrival: Option<u64>,
        arrival_floor: cameo_core::time::PhysicalTime,
        skip: Option<&[u64]>,
    ) -> Engine {
        let mut cfg = EngineConfig::new(self.cluster, self.sched);
        cfg.quantum = self.quantum;
        cfg.cost = self.cost;
        cfg.seed = self.seed;
        cfg.capture_outputs = self.capture_outputs;
        cfg.record_schedule = self.record_schedule;
        cfg.record_processing = self.record_processing;
        cfg.placement = self.placement;
        cfg.disable_replies = self.disable_replies;
        cfg.stop_at_arrival = stop_at_arrival;
        cfg.arrival_floor = arrival_floor;
        let mut engine_jobs = Vec::with_capacity(self.jobs.len());
        for (i, setup) in self.jobs.iter().enumerate() {
            // Scenario specs come from builders/query constructors, so
            // an invalid one is a programming error in the experiment —
            // surface the precise graph error instead of unwinding
            // somewhere inside the engine.
            let exp = ExpandedJob::expand(&setup.spec, JobId(i as u32), &setup.opts)
                .unwrap_or_else(|e| panic!("scenario job {i} has an invalid spec: {e}"));
            let mut gen = WorkloadGen::new(
                setup.workload.clone(),
                self.seed.wrapping_add(i as u64 * 7919),
            );
            if let Some(skip) = skip {
                for _ in 0..skip[i] {
                    let _ = gen.next_arrival();
                }
            }
            engine_jobs.push((exp, Some(gen)));
        }
        let mut engine = Engine::new(cfg, engine_jobs);
        for (i, setup) in self.jobs.iter().enumerate() {
            if let Some(d) = setup.departure {
                engine.depart_job_at(i, cameo_core::time::PhysicalTime(d.0));
            }
        }
        engine
    }

    /// Run the scenario to completion.
    pub fn run(mut self) -> SimReport {
        let label = self.sched.label();
        let workers = self.cluster.workers_per_node;
        // Scenario-level smoothing default; a job-level choice in its
        // ExpandOptions wins (same precedence as the runtime's deploy
        // path).
        for setup in self.jobs.iter_mut() {
            if setup.opts.profile_alpha.is_none() {
                setup.opts.profile_alpha = self.profile_alpha;
            }
        }
        let Some(crash_at) = self.crash_at else {
            let metrics = self
                .build_engine(None, cameo_core::time::PhysicalTime::ZERO, None)
                .run();
            return SimReport {
                label,
                workers_per_node: workers,
                metrics,
                pre_crash: None,
            };
        };
        // Phase 1: run journaling every arrival, crash dead at the
        // configured index.
        let (pre, mut cut) = self
            .build_engine(Some(crash_at), cameo_core::time::PhysicalTime::ZERO, None)
            .run_crash();
        if self.crash_torn_tail {
            cut.tear_last();
        }
        // Phase 2: fresh engine (blank operator state, like a restarted
        // process), journal replayed at the crash instant, workload
        // generators fast-forwarded past what the journal covers.
        let mut engine = self.build_engine(None, cut.at, Some(&cut.ingested_per_job));
        engine.prime_replay(cut.journal);
        let metrics = engine.run();
        SimReport {
            label,
            workers_per_node: workers,
            metrics,
            pre_crash: Some(pre),
        }
    }
}

/// What happens at one instant of a scenario's [`Scenario::event_trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// The job's dataflow comes up (workload start = deploy instant).
    Deploy,
    /// One workload message lands at the job.
    Arrival {
        /// The batch's progress stamp (logical time).
        progress: u64,
        /// Tuples in the batch.
        tuples: u32,
    },
    /// The job departs (`Runtime::undeploy`'s deterministic mirror).
    Depart,
}

/// One event of a scenario's deterministic replay trace. Sorts by
/// time, then kind (deploys before arrivals before departures at equal
/// instants), then job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Virtual microseconds from the scenario start.
    pub at_us: u64,
    /// Kind; field order makes the derived `Ord` group deploys first.
    pub kind: TraceKind,
    /// Index of the job within the scenario.
    pub job: u32,
    /// Ingest instance the arrival targets (0 for lifecycle events).
    pub source: u32,
}

/// Results of one scenario run.
pub struct SimReport {
    pub label: String,
    pub workers_per_node: u16,
    pub metrics: SimMetrics,
    /// With [`Scenario::with_crash_at`]: the crashed phase's metrics
    /// (outputs up to the crash instant). `metrics` then describes the
    /// recovered run. `None` for ordinary uncrashed runs.
    pub pre_crash: Option<SimMetrics>,
}

impl SimReport {
    pub fn job(&self, i: usize) -> &JobMetrics {
        &self.metrics.jobs[i]
    }

    pub fn utilization(&self) -> f64 {
        self.metrics.utilization(self.workers_per_node)
    }

    /// Merge latency samples of a group of jobs (e.g. "all group 1
    /// jobs") into (p50, p99) in microseconds.
    pub fn group_percentiles(&self, jobs: &[usize], qs: &[f64]) -> Vec<u64> {
        let mut samples = Vec::new();
        for &j in jobs {
            samples.extend_from_slice(&self.metrics.jobs[j].samples);
        }
        qs.iter()
            .map(|&q| cameo_core::stats::exact_percentile(&samples, q))
            .collect()
    }

    /// Combined success rate over a group of jobs.
    pub fn group_success(&self, jobs: &[usize]) -> f64 {
        let (mut on, mut total) = (0u64, 0u64);
        for &j in jobs {
            on += self.metrics.jobs[j].on_time;
            total += self.metrics.jobs[j].outputs;
        }
        if total == 0 {
            0.0
        } else {
            on as f64 / total as f64
        }
    }

    /// One-line summary per job.
    pub fn print_summary(&self) {
        println!(
            "[{}] util={:.1}% executions={} delivered={} swaps={}",
            self.label,
            self.utilization() * 100.0,
            self.metrics.executions,
            self.metrics.delivered,
            self.metrics.sched.quantum_swaps,
        );
        for j in &self.metrics.jobs {
            println!(
                "  {:<12} outputs={:<6} p50={:<10} p99={:<10} max={:<10} success={:.1}% tuples={}",
                j.name,
                j.outputs,
                format!("{}", j.median()),
                format!("{}", j.percentile(99.0)),
                format!("{}", Micros(j.samples.iter().copied().max().unwrap_or(0))),
                j.success_rate() * 100.0,
                j.output_tuples,
            );
        }
    }
}
