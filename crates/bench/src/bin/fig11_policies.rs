//! Figure 11: scheduling policies compared — LLF (default) vs EDF vs
//! SJF, all three implemented through the same context API.
//!
//! Left: single-query latency distributions (IPQ1-IPQ4). Right:
//! multi-query mix. Paper: SJF consistently worst (except IPQ4, light
//! load); EDF and LLF nearly identical because per-stage operator costs
//! are uniform.

use cameo_bench::{header, ms, single_tenant, BenchArgs, MixScale};
use cameo_sim::prelude::*;

const POLICIES: [PolicyKind; 3] = [PolicyKind::Llf, PolicyKind::Edf, PolicyKind::Sjf];

fn main() {
    let args = BenchArgs::parse();
    header(
        "Figure 11",
        "LLF vs EDF vs SJF (single-query and multi-query)",
        "EDF ~= LLF; SJF consistently worse except the lightly loaded \
         join query",
    );
    single_query(&args);
    multi_query(&args);
}

fn single_query(args: &BenchArgs) {
    let mut rows = Vec::new();
    for q in ["IPQ1", "IPQ2", "IPQ3", "IPQ4"] {
        for policy in POLICIES {
            let report =
                single_tenant(q, 8, args.full, SchedulerKind::Cameo(policy), args.seed).run();
            let j = report.job(0);
            rows.push(vec![
                q.to_string(),
                policy.name().to_string(),
                ms(j.median().0),
                ms(j.percentile(99.0).0),
            ]);
        }
    }
    print_table(
        "Figure 11 (left) — single-query latency by policy",
        &["query", "policy", "p50 (ms)", "p99 (ms)"],
        &rows,
    );
    println!();
}

fn multi_query(args: &BenchArgs) {
    let scale = MixScale::of(args);
    let (ls, ba) = scale.groups(scale.ba_jobs);
    let mut rows = Vec::new();
    for policy in POLICIES {
        let report = scale
            .mix_scenario(SchedulerKind::Cameo(policy), scale.ba_jobs, 55.0, args.seed)
            .run();
        for (group, idx) in [("Group1(LS)", &ls), ("Group2(BA)", &ba)] {
            let q = report.group_percentiles(idx, &[50.0, 99.0]);
            rows.push(vec![
                group.to_string(),
                policy.name().to_string(),
                ms(q[0]),
                ms(q[1]),
                format!("{:.1}%", report.group_success(idx) * 100.0),
            ]);
        }
    }
    print_table(
        "Figure 11 (right) — multi-query latency by policy",
        &["group", "policy", "p50 (ms)", "p99 (ms)", "met"],
        &rows,
    );
}
