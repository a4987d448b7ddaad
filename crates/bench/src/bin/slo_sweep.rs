//! Deadline-miss SLO curves under overload: the open-loop sweep.
//!
//! For each corpus scenario (`crates/bench/corpus/*.toml`) the sweep:
//!
//! 1. **Calibrates saturation**: a closed-loop probe stuffs a frame
//!    budget through the scenario's deployed job mix and times the
//!    drain — sustainable frames/second for *this* host.
//! 2. **Sweeps offered load**: for each load fraction `f`, the spec's
//!    declared rates are rescaled so total mean offered load equals
//!    `f × saturation`, compiled into a seeded open-loop schedule
//!    (Poisson / bursty / diurnal / step arrivals, deploy/undeploy
//!    churn), and driven against a fresh runtime over loopback TCP
//!    with the v2 wire format.
//! 3. **Captures CO-safely**: tuples carry their *scheduled* send time;
//!    subscriber threads timestamp receipt; a sender falling behind its
//!    own schedule inflates rather than hides queueing delay. Messages
//!    purged by mid-run undeploy count as misses.
//!
//! Every point runs the spec's fixed worker pool, the configuration
//! saturation is calibrated on.
//!
//! Output: a table on stdout and `BENCH_slo_sweep.json` (schema in
//! docs/BENCH.md) with per-tenant and aggregate deadline-miss rate and
//! p50/p99/p999 vs offered load. In-binary asserts (CI runs `--quick`):
//! the artifact re-parses, every miss rate is finite and in [0, 1],
//! percentiles are ordered, and past saturation the aggregate miss
//! rate is monotonically non-decreasing in offered load.
//!
//! On a 1-CPU host all workers, the ingress loop, the sender and the
//! recorders share one core: absolute saturation is low and tails are
//! inflated, but the curve *shape* — flat below saturation, collapsing
//! above — is exactly what the harness exists to pin. Pass `--quick`
//! for the CI smoke (one scenario, two load points, seconds), `--full`
//! for all six scenarios (including the fleet-sized `production`
//! corpus) at four load points, `--seed N` to reseed schedules,
//! `--out PATH` to redirect the artifact.

use cameo_bench::slo::json::Value;
use cameo_bench::slo::{measure_saturation, run_open_loop, DriveConfig, DriveOutcome, SloSpec};
use cameo_bench::BenchArgs;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One measured point of a scenario's SLO curve.
struct Point {
    load: f64,
    scale: f64,
    outcome: DriveOutcome,
}

struct ScenarioCurve {
    spec: SloSpec,
    saturation_hz: f64,
    spec_mean_hz: f64,
    cap_us: Option<u64>,
    points: Vec<Point>,
}

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(format!("{name}.toml"))
}

fn run_scenario(
    name: &str,
    seed: u64,
    loads: &[f64],
    cap_us: Option<u64>,
    sat_budget: u64,
) -> ScenarioCurve {
    let spec = SloSpec::from_path(&corpus_path(name)).expect("corpus spec");
    let horizon = cap_us
        .map(|c| c.min(spec.duration_us))
        .unwrap_or(spec.duration_us);
    let saturation_hz = measure_saturation(&spec, sat_budget);
    let spec_mean_hz = spec.mean_offered_hz(horizon).max(1e-9);
    println!(
        "[{name}] saturation {saturation_hz:.0} msg/s (probe budget {sat_budget}), \
         spec mean {spec_mean_hz:.0} msg/s, horizon {} ms",
        horizon / 1_000
    );
    let mut points = Vec::with_capacity(loads.len());
    for &load in loads {
        let scale = load * saturation_hz / spec_mean_hz;
        let outcome = run_open_loop(
            &spec,
            &DriveConfig {
                seed,
                scale,
                cap_us,
            },
        );
        println!(
            "  load {load:4.2}x sat: offered {:7.0} msg/s, sends {:6}, miss {:6.3}, \
             p50 {:6} µs, p99 {:7} µs, p999 {:7} µs, lag {:5} µs",
            outcome.offered_hz,
            outcome.sends,
            outcome.aggregate.miss_rate,
            outcome.aggregate.p50_us,
            outcome.aggregate.p99_us,
            outcome.aggregate.p999_us,
            outcome.send_lag_max_us,
        );
        points.push(Point {
            load,
            scale,
            outcome,
        });
    }
    ScenarioCurve {
        spec,
        saturation_hz,
        spec_mean_hz,
        cap_us,
        points,
    }
}

/// Serialize one scenario's array of measured points.
fn write_points(s: &mut String, points: &[Point]) {
    for (pi, p) in points.iter().enumerate() {
        let a = &p.outcome.aggregate;
        let _ = write!(
            s,
            "{}\n      {{\"load\": {:.3}, \"scale\": {:.4}, \"offered_hz\": {:.1}, \
             \"sends\": {}, \"outputs\": {}, \"late\": {}, \"lost\": {}, \
             \"miss_rate\": {:.6}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \
             \"max_us\": {}, \"send_lag_max_us\": {}, \"frames_dropped\": {}, \
             \"gen_rejected\": {}, ",
            if pi > 0 { "," } else { "" },
            p.load,
            p.scale,
            p.outcome.offered_hz,
            a.sends,
            a.outputs,
            a.late,
            a.lost,
            a.miss_rate,
            a.p50_us,
            a.p99_us,
            a.p999_us,
            a.max_us,
            p.outcome.send_lag_max_us,
            p.outcome.frames_dropped,
            p.outcome.gen_rejected,
        );
        let _ = write!(s, "\"tenants\": [");
        for (ti, t) in p.outcome.tenants.iter().enumerate() {
            let ts = &t.summary;
            let _ = write!(
                s,
                "{}\n        {{\"name\": \"{}\", \"target_us\": {}, \"sends\": {}, \
                 \"outputs\": {}, \"late\": {}, \"lost\": {}, \"miss_rate\": {:.6}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}, \
                 \"rt_outputs\": {}, \"rt_on_time\": {}, \"rt_delivered\": {}, \
                 \"rt_p999_us\": {}}}",
                if ti > 0 { "," } else { "" },
                t.name,
                t.target_us,
                ts.sends,
                ts.outputs,
                ts.late,
                ts.lost,
                ts.miss_rate,
                ts.p50_us,
                ts.p99_us,
                ts.p999_us,
                ts.max_us,
                t.rt_outputs,
                t.rt_on_time,
                t.rt_delivered,
                t.rt_p999_us,
            );
        }
        let _ = write!(s, "\n      ]}}");
    }
}

fn render_artifact(mode: &str, seed: u64, cpus: usize, curves: &[ScenarioCurve]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"bench\": \"slo_sweep\",\n  \"mode\": \"{mode}\",\n  \"seed\": {seed},\n  \"cpus\": {cpus},\n  \"scenarios\": ["
    );
    for (ci, c) in curves.iter().enumerate() {
        let horizon = c
            .cap_us
            .map(|x| x.min(c.spec.duration_us))
            .unwrap_or(c.spec.duration_us);
        let _ = write!(
            s,
            "{}\n    {{\"name\": \"{}\", \"saturation_hz\": {:.1}, \"spec_mean_hz\": {:.1}, \"duration_us\": {}, \"points\": [",
            if ci > 0 { "," } else { "" },
            c.spec.name,
            c.saturation_hz,
            c.spec_mean_hz,
            horizon
        );
        write_points(&mut s, &c.points);
        let _ = write!(s, "\n    ]}}");
    }
    let _ = write!(s, "\n  ]\n}}\n");
    s
}

/// Re-parse the artifact and assert the properties CI relies on:
/// well-formed JSON, finite miss rates in [0, 1], ordered percentiles,
/// and aggregate miss rate monotonically non-decreasing across
/// consecutive points that are both at/past saturation.
fn lint_artifact(artifact: &str) {
    let doc = Value::parse(artifact).expect("artifact must re-parse as JSON");
    assert_eq!(
        doc.get("bench").and_then(Value::as_str),
        Some("slo_sweep"),
        "artifact names its bench"
    );
    let scenarios = doc
        .get("scenarios")
        .and_then(Value::as_arr)
        .expect("scenarios array");
    assert!(!scenarios.is_empty(), "at least one scenario");
    for sc in scenarios {
        let name = sc.get("name").and_then(Value::as_str).unwrap_or("?");
        let points = sc
            .get("points")
            .and_then(Value::as_arr)
            .expect("points array");
        assert!(!points.is_empty(), "{name}: at least one point");
        let mut prev: Option<(f64, f64)> = None;
        for pt in points {
            let load = pt.get("load").and_then(Value::as_num).expect("load");
            let miss = pt
                .get("miss_rate")
                .and_then(Value::as_num)
                .expect("miss_rate");
            assert!(
                miss.is_finite() && (0.0..=1.0).contains(&miss),
                "{name}: miss rate {miss} at load {load} not a finite probability"
            );
            let p50 = pt.get("p50_us").and_then(Value::as_num).expect("p50");
            let p99 = pt.get("p99_us").and_then(Value::as_num).expect("p99");
            let p999 = pt.get("p999_us").and_then(Value::as_num).expect("p999");
            assert!(
                p50 <= p99 && p99 <= p999,
                "{name}: percentiles out of order at load {load}: {p50}/{p99}/{p999}"
            );
            if let Some((prev_load, prev_miss)) = prev {
                if prev_load >= 0.99 && load >= 0.99 {
                    assert!(
                        miss >= prev_miss - 0.01,
                        "{name}: miss rate regressed past saturation: \
                         {prev_miss:.4} @ {prev_load}x -> {miss:.4} @ {load}x"
                    );
                }
            }
            prev = Some((load, miss));
        }
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mut out_path = String::from("BENCH_slo_sweep.json");
    let mut rest = args.rest.iter();
    while let Some(a) = rest.next() {
        if a == "--out" {
            out_path = rest.next().expect("--out takes a path").clone();
        }
    }
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Scenario set × load grid × horizon per mode. Quick is the CI
    // smoke: one scenario, two points, well under five seconds.
    let (mode, scenarios, loads, cap_us, sat_budget): (&str, &[&str], &[f64], Option<u64>, u64) =
        if args.full {
            // `production` is full-only: 200+ jobs over a 150 s
            // horizon makes every load point a multi-minute run.
            (
                "full",
                &["steady", "step", "spike", "diurnal", "churn", "production"],
                &[0.5, 0.8, 1.1, 1.5],
                None,
                6_000,
            )
        } else if args.quick {
            ("quick", &["steady"], &[0.4, 1.4], Some(350_000), 1_200)
        } else {
            (
                "default",
                &["steady", "spike", "churn"],
                &[0.5, 1.3],
                Some(500_000),
                3_000,
            )
        };

    println!(
        "slo_sweep ({mode}): open-loop deadline-miss curves, {} scenario(s) x {} load point(s), {cpus} cpu(s)",
        scenarios.len(),
        loads.len()
    );
    println!("expect: miss rate ~0 below saturation, monotone collapse above it\n");

    let curves: Vec<ScenarioCurve> = scenarios
        .iter()
        .map(|name| run_scenario(name, args.seed, loads, cap_us, sat_budget))
        .collect();

    let artifact = render_artifact(mode, args.seed, cpus, &curves);
    lint_artifact(&artifact);
    std::fs::write(&out_path, &artifact).expect("write artifact");
    println!(
        "\nwrote {out_path} ({} scenarios, lint passed)",
        curves.len()
    );
}
