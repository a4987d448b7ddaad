//! Figure 14: effect of the scheduling quantum (§5.2's re-scheduling
//! grain).
//!
//! Left: jobs whose windows trigger on *clustered* stream progress
//! (aligned boundaries — many high-priority messages contend at once;
//! a coarser quantum saves context switches). Right: *interleaved*
//! trigger points (in the paper a very coarse quantum causes
//! head-of-line blocking instead).
//!
//! Deliberate departure from §5.2: here the quantum protects a lease
//! against its *peers* only. A group-1 operator that outranks an
//! in-hand group-2 one is a latency tier up and takes the worker at the
//! next message boundary, so group-1 latency no longer follows the
//! quantum (the 100 ms rows sit with the 1 ms rows); what the quantum
//! still trades is context switches against fairness inside a group —
//! the left table's "finest" row.

use cameo_bench::{header, ms, BenchArgs, MixScale};
use cameo_core::time::Micros;
use cameo_sim::prelude::*;

fn main() {
    let args = BenchArgs::parse();
    let scale = MixScale::of(&args);
    header(
        "Figure 14",
        "latency vs scheduling quantum, clustered vs interleaved triggers",
        "finest grain: longer tail from context switches when triggers \
         cluster; 100ms quantum: head-of-line blocking; ~1ms is the sweet spot",
    );

    println!(
        "this scheduler: a stricter latency tier does not wait for the quantum \
         (\"early swaps\"), so no head-of-line blocking at 100ms; the finest \
         grain still pays for its context switches\n"
    );

    let quanta = [
        ("finest (0)", Micros(0)),
        ("1ms", Micros::from_millis(1)),
        ("10ms", Micros::from_millis(10)),
        ("100ms", Micros::from_millis(100)),
    ];
    // Make operator switches genuinely expensive (cache/locality model)
    // so the finest grain has a visible cost.
    let cost = CostConfig {
        per_tuple_ns: 400,
        ctx_switch: Micros(400),
        ..Default::default()
    };

    for (mode, lags) in [
        ("clustered", vec![0u64; 4]),
        ("interleaved", vec![0, 250_000, 500_000, 750_000]),
    ] {
        let mut rows = Vec::new();
        for (label, q) in quanta {
            let mut sc = Scenario::new(
                ClusterSpec::new(2, 4),
                SchedulerKind::Cameo(PolicyKind::Llf),
            )
            .with_seed(args.seed)
            .with_quantum(q)
            .with_cost(cost);
            // Four busy latency-sensitive jobs (their window phase is
            // what "clustered" vs "interleaved" varies), plus four bulk
            // jobs whose deep queues hold workers across quanta.
            for (i, &lag) in lags.iter().enumerate() {
                let spec = scale.ls_spec(i);
                let wl = WorkloadSpec::constant(scale.sources, 20.0, scale.tuples, scale.duration)
                    .with_lag(Micros(lag));
                sc.add_job(spec, wl);
            }
            for i in 0..4 {
                sc.add_job(scale.ba_spec(i), scale.ba_workload(35.0));
            }
            let report = sc.run();
            let ls: Vec<usize> = (0..lags.len()).collect();
            let qs = report.group_percentiles(&ls, &[50.0, 99.0, 100.0]);
            rows.push(vec![
                label.to_string(),
                ms(qs[0]),
                ms(qs[1]),
                ms(qs[2]),
                report.metrics.sched.quantum_swaps.to_string(),
                report.metrics.sched.tier_preemptions.to_string(),
            ]);
        }
        print_table(
            &format!("Figure 14 — {mode} stream progress (group-1 latency)"),
            &[
                "quantum",
                "p50 (ms)",
                "p99 (ms)",
                "max (ms)",
                "operator swaps",
                "early swaps",
            ],
            &rows,
        );
        println!();
    }
}
