//! End-to-end loopback check of the open-loop driver: a tiny 2-tenant
//! spec at comfortable load must finish with zero deadline misses and
//! every tuple delivered exactly once, cross-checked against the
//! runtime's own `JobStatsSnapshot` counters.

use cameo_bench::slo::{run_open_loop, DriveConfig, SloSpec};

const SPEC: &str = r#"
    [scenario]
    name = "loopback"
    duration_ms = 600
    workers = 2

    [[tenant]]
    name = "alpha"
    jobs = 1
    arrival = "poisson"
    rate_hz = 40.0
    latency_target_ms = 500   # generous: this is a correctness test
    burn_us = 100

    [[tenant]]
    name = "beta"
    jobs = 1
    arrival = "poisson"
    rate_hz = 25.0
    latency_target_ms = 500
    burn_us = 100
"#;

#[test]
fn low_load_run_misses_nothing_and_delivers_exactly_once() {
    let spec = SloSpec::parse(SPEC).expect("inline spec");
    let out = run_open_loop(&spec, &DriveConfig::new(21, 1.0));

    assert!(out.sends > 0, "schedule must offer load");
    assert_eq!(out.frames_dropped, 0, "ingress must not drop frames");
    assert_eq!(out.gen_rejected, 0, "no stale-generation frames");

    let agg = &out.aggregate;
    assert_eq!(agg.lost, 0, "every send must surface at the sink");
    assert_eq!(agg.outputs, agg.sends, "one output per send");
    assert_eq!(agg.late, 0, "500 ms targets at ~65 Hz must all be met");
    assert_eq!(agg.miss_rate, 0.0);
    assert!(agg.p50_us <= agg.p99_us && agg.p99_us <= agg.p999_us);

    assert_eq!(out.tenants.len(), 2);
    for t in &out.tenants {
        let s = &t.summary;
        assert!(s.sends > 0, "{}: tenant must send", t.name);
        assert_eq!(
            s.outputs, s.sends,
            "{}: exactly one output per send",
            t.name
        );
        assert_eq!(s.lost, 0, "{}: nothing lost", t.name);
        assert_eq!(s.miss_rate, 0.0, "{}: no misses at low load", t.name);
        // Cross-check against the runtime's own accounting: the sink
        // counted one batch per message, every batch was on time, and
        // with exactly one subscriber `delivered` counts each output
        // exactly once — the exactly-once claim from the runtime side.
        assert_eq!(t.rt_outputs, s.sends, "{}: runtime outputs", t.name);
        assert_eq!(t.rt_on_time, t.rt_outputs, "{}: runtime on-time", t.name);
        assert_eq!(
            t.rt_delivered, s.outputs,
            "{}: delivered exactly once per output",
            t.name
        );
    }
}
