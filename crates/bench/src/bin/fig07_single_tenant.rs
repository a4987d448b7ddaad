//! Figure 7: single-tenant experiments — IPQ1–IPQ4 on one server,
//! Cameo vs FIFO vs Orleans.
//!
//! (a) per-query median/tail latency, (b) latency CDF for IPQ1,
//! (c) operator schedule timeline (which stage ran when).

use cameo_bench::{header, ms, single_tenant, BenchArgs, BASELINES};
use cameo_sim::prelude::*;

fn main() {
    let args = BenchArgs::parse();
    header(
        "Figure 7",
        "single-tenant latency: IPQ1-IPQ4 under Cameo / FIFO / Orleans",
        "Cameo improves median up to 2.7x and tail up to 3.2x; FIFO's \
         median is close but its tail is Orleans-bad; IPQ4 narrows the gap",
    );

    // (a) per-query latency table.
    let sources = if args.full { 16 } else { 8 };
    let mut rows = Vec::new();
    let mut ipq1_samples: Vec<(String, Vec<u64>)> = Vec::new();
    for q in ["IPQ1", "IPQ2", "IPQ3", "IPQ4"] {
        for sched in BASELINES {
            let report = single_tenant(q, sources, args.full, sched, args.seed)
                .record_schedule(q == "IPQ1" && sched == SchedulerKind::Cameo(PolicyKind::Llf))
                .run();
            let j = report.job(0);
            rows.push(vec![
                q.to_string(),
                report.label.clone(),
                ms(j.median().0),
                ms(j.percentile(95.0).0),
                ms(j.percentile(99.0).0),
                format!("{:.1}%", j.success_rate() * 100.0),
                format!("{:.0}%", report.utilization() * 100.0),
            ]);
            if q == "IPQ1" {
                ipq1_samples.push((report.label.clone(), j.samples.clone()));
            }
            if let Some(log) = report.metrics.schedule_log.as_ref() {
                print_timeline(q, log);
            }
        }
    }
    print_table(
        "Figure 7(a) — single-tenant query latency",
        &[
            "query",
            "scheduler",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "met",
            "util",
        ],
        &rows,
    );

    // (b) CDF for IPQ1.
    println!();
    let mut cdf_rows = Vec::new();
    for pct in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
        let mut row = vec![format!("p{pct:.0}")];
        for (_, samples) in &ipq1_samples {
            row.push(ms(cameo_core::stats::exact_percentile(samples, pct)));
        }
        cdf_rows.push(row);
    }
    let mut headers = vec!["percentile"];
    let labels: Vec<String> = ipq1_samples.iter().map(|(l, _)| l.clone()).collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    print_table("Figure 7(b) — IPQ1 latency CDF (ms)", &headers, &cdf_rows);
}

/// Figure 7(c): a compressed operator-schedule timeline — executions per
/// stage in the first two windows, under Cameo.
fn print_timeline(q: &str, log: &[SchedEvent]) {
    let window = 1_000_000u64;
    println!("\nFigure 7(c) — {q} schedule timeline under Cameo (first two result windows)");
    println!("  stage executions grouped by the window of the message being processed:");
    for win in 1..=2u64 {
        let mut per_stage: std::collections::BTreeMap<u32, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for ev in log
            .iter()
            .filter(|e| e.progress > (win - 1) * window && e.progress <= win * window)
        {
            let entry = per_stage.entry(ev.stage).or_insert((u64::MAX, 0, 0));
            entry.0 = entry.0.min(ev.time);
            entry.1 = entry.1.max(ev.time);
            entry.2 += 1;
        }
        println!("  window {win}:");
        for (stage, (first, last, n)) in per_stage {
            println!(
                "    stage {stage}: {n:>5} executions, active {:>9} -> {:>9}",
                format!("{:.3}s", first as f64 / 1e6),
                format!("{:.3}s", last as f64 / 1e6),
            );
        }
    }
}
