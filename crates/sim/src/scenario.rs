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
    /// The engine's settings — cluster, scheduler, quantum, cost model,
    /// seed, recording switches, placement, reply ablation — copied into
    /// the engine the scenario builds.
    pub engine: EngineConfig,
    jobs: Vec<JobSetup>,
}

impl Scenario {
    pub fn new(cluster: ClusterSpec, sched: SchedulerKind) -> Self {
        Scenario {
            engine: EngineConfig::new(cluster, sched),
            jobs: Vec::new(),
        }
    }

    pub fn with_quantum(mut self, q: Micros) -> Self {
        self.engine.quantum = q;
        self
    }

    pub fn with_cost(mut self, c: CostConfig) -> Self {
        self.engine.cost = c;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    pub fn capture_outputs(mut self, on: bool) -> Self {
        self.engine.capture_outputs = on;
        self
    }

    pub fn record_schedule(mut self, on: bool) -> Self {
        self.engine.record_schedule = on;
        self
    }

    pub fn record_processing(mut self, on: bool) -> Self {
        self.engine.record_processing = on;
        self
    }

    pub fn with_placement(mut self, p: Placement) -> Self {
        self.engine.placement = p;
        self
    }

    /// Ablation: turn off the Reply Context feedback path.
    pub fn disable_replies(mut self, off: bool) -> Self {
        self.engine.disable_replies = off;
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
                self.engine.seed.wrapping_add(i as u64 * 7919),
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

    /// Build an engine over this scenario's jobs.
    fn build_engine(&self) -> Engine {
        let mut engine_jobs = Vec::with_capacity(self.jobs.len());
        for (i, setup) in self.jobs.iter().enumerate() {
            // Scenario specs come from builders/query constructors, so
            // an invalid one is a programming error in the experiment —
            // surface the precise graph error instead of unwinding
            // somewhere inside the engine.
            let exp = ExpandedJob::expand(&setup.spec, JobId(i as u32), &setup.opts)
                .unwrap_or_else(|e| panic!("scenario job {i} has an invalid spec: {e}"));
            let gen = WorkloadGen::new(
                setup.workload.clone(),
                self.engine.seed.wrapping_add(i as u64 * 7919),
            );
            engine_jobs.push((exp, Some(gen)));
        }
        let mut engine = Engine::new(self.engine.clone(), engine_jobs);
        for (i, setup) in self.jobs.iter().enumerate() {
            if let Some(d) = setup.departure {
                engine.depart_job_at(i, cameo_core::time::PhysicalTime(d.0));
            }
        }
        engine
    }

    /// Run the scenario to completion.
    pub fn run(self) -> SimReport {
        SimReport {
            label: self.engine.sched.label(),
            workers_per_node: self.engine.cluster.workers_per_node,
            metrics: self.build_engine().run(),
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
}
