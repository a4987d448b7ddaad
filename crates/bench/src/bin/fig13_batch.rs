//! Figure 13: effect of message batch size. More tuples per message at
//! a constant tuple rate hides scheduling overhead but removes the
//! scheduler's room to maneuver — one huge low-priority message blocks
//! a worker (execution is non-preemptive).
//!
//! Paper: group-1 latency unaffected up to 20K-tuple batches, degrading
//! at 40K.
//!
//! Every tuple is materialised, so the default dimensions simulate
//! ~6 G tuples (minutes, gigabytes). `--quick` keeps the tuple rate per
//! source, the per-worker utilisation and the message lengths, on a
//! quarter of the cluster for a sixth of the time: seconds, well under
//! 1 GB.

use cameo_bench::{header, ms, BenchArgs, MixScale, BASELINES};
use cameo_sim::prelude::*;

fn main() {
    let args = BenchArgs::parse();
    let mut scale = MixScale::of(&args);
    header(
        "Figure 13",
        "group-1 latency vs group-2 batch size at constant tuple rate",
        "flat up to ~20K tuples/msg, degraded at 40K (large messages \
         block high-priority work on non-preemptive workers)",
    );

    // Constant tuple rate per group-2 source. At 400ns/tuple an 80K
    // batch splits into 20K-tuple sub-messages of ~8ms each — long
    // enough to block a worker past a dashboard's whole pipeline. The
    // rate keeps the cluster at ~2/3 utilization for every batch size.
    let tuple_rate = 200_000.0;
    let mut batches: Vec<u32> = vec![1_000, 5_000, 20_000, 40_000, 80_000];
    if args.full {
        batches.push(160_000);
    }
    if args.quick {
        // One node of four workers with two of the eight bulk jobs is
        // the same load per worker; the batch list keeps both ends and
        // the paper's knee.
        scale.nodes = 1;
        scale.ba_jobs = 2;
        scale.duration = cameo_core::time::Micros::from_secs(5);
        batches = vec![1_000, 20_000, 80_000];
    }
    let (ls, _) = scale.groups(scale.ba_jobs);
    let mut rows = Vec::new();
    for &batch in &batches {
        let msg_rate = tuple_rate / batch as f64;
        for sched in BASELINES {
            let mut sc = Scenario::new(scale.cluster(), sched)
                .with_seed(args.seed)
                .with_cost(scale.cost_config());
            for i in 0..scale.ls_jobs {
                sc.add_job(scale.ls_spec(i), scale.ls_workload());
            }
            for i in 0..scale.ba_jobs {
                sc.add_job(
                    scale.ba_spec(i),
                    WorkloadSpec::constant(scale.sources, msg_rate, batch, scale.duration),
                );
            }
            let report = sc.run();
            let q = report.group_percentiles(&ls, &[50.0, 99.0]);
            rows.push(vec![
                batch.to_string(),
                format!("{:.2}", msg_rate),
                report.label.clone(),
                ms(q[0]),
                ms(q[1]),
                format!("{:.1}%", report.group_success(&ls) * 100.0),
            ]);
        }
    }
    print_table(
        "Figure 13 — group-1 latency vs group-2 batch size",
        &[
            "tuples/msg",
            "msgs/s/src",
            "scheduler",
            "LS p50 (ms)",
            "LS p99 (ms)",
            "LS met",
        ],
        &rows,
    );
}
