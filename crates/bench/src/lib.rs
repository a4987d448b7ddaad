//! Shared scaffolding for the experiment binaries that regenerate every
//! figure of the paper (see EXPERIMENTS.md for the index).
//!
//! All experiments are scaled-down by default so the full suite runs in
//! minutes on a laptop; pass `--full` for larger, longer runs closer to
//! the paper's dimensions. Shapes (who wins, crossover positions) are
//! the reproduction target, not absolute numbers — the substrate here
//! is a simulator, not 32 Azure VMs.

pub mod slo;

use cameo_core::time::Micros;
use cameo_dataflow::graph::JobSpec;
use cameo_dataflow::ops::Aggregation;
use cameo_dataflow::queries::{agg_query, join_query, AggQueryParams, JoinQueryParams, StageCosts};
use cameo_sim::prelude::*;

/// Command-line arguments shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// `--full`: paper-sized dimensions (slower).
    pub full: bool,
    /// `--quick`: CI-smoke dimensions (shorter measurement windows and
    /// smaller sweeps than even the default; seconds total).
    pub quick: bool,
    /// `--seed N`
    pub seed: u64,
    /// Positional arguments (subcommands like `rate`/`tenants`).
    pub rest: Vec<String>,
}

impl BenchArgs {
    pub fn parse() -> Self {
        let mut full = false;
        let mut quick = false;
        let mut seed = 1u64;
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => full = true,
                "--quick" => quick = true,
                "--seed" => {
                    seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed takes a number");
                }
                other => rest.push(other.to_string()),
            }
        }
        BenchArgs {
            full,
            quick,
            seed,
            rest,
        }
    }
}

/// The standard multi-tenant mix of §6.2: latency-sensitive jobs
/// (group 1) with sparse input and strict constraints, bulk-analytics
/// jobs (group 2) with heavy input and lax constraints.
#[derive(Clone, Debug)]
pub struct MixScale {
    pub nodes: u16,
    pub workers: u16,
    pub ls_jobs: usize,
    pub ba_jobs: usize,
    /// Sources per job.
    pub sources: u32,
    /// Tuples per message (the paper uses 1000 events/msg).
    pub tuples: u32,
    pub duration: Micros,
    /// Group 1 window (1 s in the paper) and latency target (800 ms).
    pub ls_window: u64,
    pub ls_latency: Micros,
    /// Group 1 ingestion (1 msg/s/source in the paper).
    pub ls_rate: f64,
    /// Group 2 window (10 s) and constraint (7200 s).
    pub ba_window: u64,
    pub ba_latency: Micros,
    pub parallelism: u32,
    pub costs: StageCosts,
}

impl MixScale {
    /// Laptop-quick dimensions (~seconds per scenario).
    pub fn quick() -> Self {
        MixScale {
            nodes: 4,
            workers: 4,
            ls_jobs: 4,
            ba_jobs: 8,
            sources: 8,
            tuples: 100,
            duration: Micros::from_secs(30),
            ls_window: 1_000_000,
            ls_latency: Micros::from_millis(800),
            ls_rate: 1.0,
            ba_window: 10_000_000,
            ba_latency: Micros::from_secs(7_200),
            parallelism: 4,
            costs: StageCosts::default().scaled(4.0),
        }
    }

    /// Closer to the paper's dimensions (tens of seconds per scenario).
    pub fn full() -> Self {
        MixScale {
            nodes: 8,
            workers: 4,
            ls_jobs: 4,
            ba_jobs: 8,
            sources: 16,
            tuples: 1_000,
            duration: Micros::from_secs(60),
            parallelism: 8,
            ..Self::quick()
        }
    }

    pub fn of(args: &BenchArgs) -> Self {
        if args.full {
            Self::full()
        } else {
            Self::quick()
        }
    }

    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::new(self.nodes, self.workers)
    }

    pub fn cost_config(&self) -> CostConfig {
        CostConfig {
            per_tuple_ns: 400,
            ..Default::default()
        }
    }

    /// Group 1 (latency-sensitive) query spec.
    pub fn ls_spec(&self, i: usize) -> JobSpec {
        agg_query(
            &AggQueryParams::new(format!("LS-{i}"), self.ls_window, self.ls_latency)
                .with_sources(self.sources)
                .with_parallelism(self.parallelism)
                .with_costs(self.costs)
                .with_keys(64),
        )
    }

    /// Group 2 (bulk analytics) query spec.
    pub fn ba_spec(&self, i: usize) -> JobSpec {
        agg_query(
            &AggQueryParams::new(format!("BA-{i}"), self.ba_window, self.ba_latency)
                .with_sources(self.sources)
                .with_parallelism(self.parallelism)
                .with_costs(self.costs)
                .with_keys(256),
        )
    }

    pub fn ls_workload(&self) -> WorkloadSpec {
        WorkloadSpec::constant(self.sources, self.ls_rate, self.tuples, self.duration)
    }

    pub fn ba_workload(&self, msgs_per_sec_per_source: f64) -> WorkloadSpec {
        WorkloadSpec::constant(
            self.sources,
            msgs_per_sec_per_source,
            self.tuples,
            self.duration,
        )
    }

    /// Build the standard mix: `ls_jobs` group-1 jobs plus `ba_jobs`
    /// group-2 jobs at `ba_rate` msgs/s/source.
    pub fn mix_scenario(
        &self,
        sched: SchedulerKind,
        ba_jobs: usize,
        ba_rate: f64,
        seed: u64,
    ) -> Scenario {
        let mut sc = Scenario::new(self.cluster(), sched)
            .with_seed(seed)
            .with_cost(self.cost_config());
        for i in 0..self.ls_jobs {
            sc.add_job(self.ls_spec(i), self.ls_workload());
        }
        for i in 0..ba_jobs {
            sc.add_job(self.ba_spec(i), self.ba_workload(ba_rate));
        }
        sc
    }

    /// Indices of group 1 / group 2 jobs in a mix scenario.
    pub fn groups(&self, ba_jobs: usize) -> (Vec<usize>, Vec<usize>) {
        (
            (0..self.ls_jobs).collect(),
            (self.ls_jobs..self.ls_jobs + ba_jobs).collect(),
        )
    }
}

/// The single-tenant setup of Fig 7 and Fig 11 (left): query `q`
/// (`"IPQ1"`–`"IPQ4"`) fed by `sources` sources on one 4-worker node,
/// with 1 s windows and an 800 ms target. The volume contends for the
/// node (~75–85% utilization): 85 msgs/s per source, 12 for IPQ4's
/// heavier join (whose sides get half the sources each), for 25 s, or
/// 60 s under `full`.
pub fn single_tenant(
    q: &str,
    sources: u32,
    full: bool,
    sched: SchedulerKind,
    seed: u64,
) -> Scenario {
    let window = 1_000_000;
    let latency = Micros::from_millis(800);
    let par = 4;
    let costs = StageCosts::default().scaled(4.0);
    let agg = |p: AggQueryParams| {
        agg_query(
            &p.with_sources(sources)
                .with_parallelism(par)
                .with_costs(costs),
        )
    };
    let (spec, rate) = match q {
        "IPQ1" => (agg(AggQueryParams::new(q, window, latency)), 85.0),
        "IPQ2" => (
            agg(AggQueryParams::new(q, window, latency).sliding(window / 2)),
            85.0,
        ),
        "IPQ3" => (
            agg(AggQueryParams::new(q, window, latency)
                .with_aggregation(Aggregation::Count)
                .with_keys(256)),
            85.0,
        ),
        // IPQ4: windowed join, heavier cost and memory-bound (the paper
        // notes Orleans does comparatively well here thanks to locality).
        "IPQ4" => (
            join_query(&JoinQueryParams {
                sources: sources / 2,
                parallelism: par,
                keys: 32,
                costs,
                join_cost: Micros(1_600),
                ..JoinQueryParams::new(q, window, latency)
            }),
            12.0,
        ),
        _ => panic!("unknown single-tenant query {q}"),
    };
    let dur = Micros::from_secs(if full { 60 } else { 25 });
    let mut sc = Scenario::new(ClusterSpec::single_node(4), sched)
        .with_seed(seed)
        .with_cost(CostConfig {
            per_tuple_ns: 400,
            ..Default::default()
        });
    sc.add_job(spec, WorkloadSpec::constant(sources, rate, 100, dur));
    sc
}

/// The three schedulers every comparison runs (Fig 7–10, 13–15).
pub const BASELINES: [SchedulerKind; 3] = [
    SchedulerKind::Cameo(PolicyKind::Llf),
    SchedulerKind::Fifo,
    SchedulerKind::OrleansLike,
];

/// Microseconds → milliseconds string with 1 decimal.
pub fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1_000.0)
}

/// Print the standard experiment header.
pub fn header(fig: &str, what: &str, expect: &str) {
    println!("==========================================================");
    println!("{fig}: {what}");
    println!("paper shape: {expect}");
    println!("==========================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_construct() {
        let q = MixScale::quick();
        let f = MixScale::full();
        assert!(f.sources >= q.sources);
        assert!(f.tuples >= q.tuples);
        let (ls, ba) = q.groups(8);
        assert_eq!(ls.len(), 4);
        assert_eq!(ba, vec![4, 5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn mix_scenario_builds() {
        let q = MixScale::quick();
        let sc = q.mix_scenario(SchedulerKind::Fifo, 2, 5.0, 1);
        assert_eq!(sc.job_count(), q.ls_jobs + 2);
    }

    #[test]
    fn specs_are_valid() {
        let q = MixScale::quick();
        let ls = q.ls_spec(0);
        let ba = q.ba_spec(0);
        assert_eq!(ls.latency_constraint, Micros::from_millis(800));
        assert_eq!(ba.latency_constraint, Micros::from_secs(7_200));
        assert!(ls.stages.len() == 5 && ba.stages.len() == 5);
    }
}
