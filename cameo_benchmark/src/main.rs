//! `cameo_benchmark`: the repo's benchmark gate. See `README.md` beside
//! this package's manifest, and `BENCHMARK.json` at the repo root.

mod check;
mod harness;
mod json;
mod metrics;
mod procfs;
mod report;
mod run;
mod schedule;
mod staged;
mod stats;
mod trace;
mod workload;

use json::{num, obj, string, Value};
use run::{Outcome, RunOpts};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  cameo_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                  [--trace-out FILE] [--policy llf|fifo]
      one run; the last line of stdout is the result as one JSON object.
      A run whose sender fell behind its schedule is invalid and is
      measured again, in a fresh process, three attempts at most
  cameo_benchmark --repeat K --out FILE [--workload <name>] [--seed N] [--seconds S]
      K runs per gated workload (seeds N, N+1, ...), each its own process;
      writes every run plus median and quartiles per (metric, workload)
  cameo_benchmark compare A.json B.json
      better / worse / within bound / unresolved per (metric, workload);
      exits 1 when anything is worse
  cameo_benchmark --smoke
      all four workloads in about three seconds, reference check included
  cameo_benchmark manifest
      print BENCHMARK.json
workloads: tenant_mix overload_step (gated by BENCHMARK.json)
           firehose_agg firehose_agg_journal (runnable, not gated)";

/// `run_seconds` of BENCHMARK.json, and the default of `--seconds`.
const RUN_SECONDS: f64 = 35.0;
/// Default of `--seed`.
const DEFAULT_SEED: u64 = 7;
/// Set-ups per run whose median is `setup_s`.
const SETUP_REPS: usize = 9;
/// An invalid run (late sender, see `run::SEND_LAG_LIMIT_US`) is
/// measured again, this many times at most in all: three runs of
/// `run_seconds` fit the contract's 180 s per command. The last attempt
/// is reported whatever it is.
const MAX_ATTEMPTS: usize = 3;
/// Exit code of an attempt that is invalid and nothing else.
const EXIT_INVALID: u8 = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    fifo: bool,
    repeat: Option<usize>,
    out: Option<PathBuf>,
    smoke: bool,
    /// Set by the supervising process on the attempts it spawns.
    attempt: bool,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        trace_out: None,
        fifo: false,
        repeat: None,
        out: None,
        smoke: false,
        attempt: false,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => a.trace_out = Some(value("a path")?.into()),
            "--policy" => {
                a.fifo = match value("llf or fifo")?.as_str() {
                    "llf" => false,
                    "fifo" => true,
                    other => return Err(format!("--policy takes llf or fifo, not {other:?}")),
                }
            }
            "--repeat" => {
                a.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--out" => a.out = Some(value("a path")?.into()),
            "--smoke" => a.smoke = true,
            "--attempt" => a.attempt = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

/// Every metric by name with its unit, then the notes, then — as the
/// last line — the contract's JSON object.
fn print_outcome(o: &Outcome) {
    println!(
        "# {} seed {} {}",
        o.workload,
        o.seed,
        if o.trace {
            "traced run: per-layer metrics"
        } else {
            "untraced run: end-to-end metrics"
        }
    );
    for m in o.metrics.iter().chain(&o.extras) {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for n in &o.notes {
        println!("# {n}");
    }
    println!("{}", o.result_json().render());
}

/// BENCHMARK.json, generated from the same tables the binary reports
/// from.
fn manifest() -> Value {
    obj(vec![
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "cameo_benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(string)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![string("cameo_benchmark")])),
        ("run_seconds", num(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                workload::GATED
                    .iter()
                    .map(|&n| obj(vec![("name", string(n)), ("why", string(workload::why(n)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Pretty-print one level deep, so the tracked file diffs by line.
fn render_manifest(v: &Value) -> String {
    let mut out = String::from("{\n");
    let fields = v.as_obj().expect("manifest is an object");
    for (i, (k, val)) in fields.iter().enumerate() {
        let tail = if i + 1 == fields.len() { "\n" } else { ",\n" };
        match val {
            Value::Arr(items) if items.iter().any(|x| matches!(x, Value::Obj(_))) => {
                out.push_str(&format!("  \"{k}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 == items.len() { "\n" } else { ",\n" };
                    out.push_str(&format!("    {}{sep}", item.render()));
                }
                out.push_str(&format!("  ]{tail}"));
            }
            other => out.push_str(&format!("  \"{k}\": {}{tail}", other.render())),
        }
    }
    out.push_str("}\n");
    out
}

/// All four workloads, about half a second each, one set-up each.
fn smoke() -> (Value, bool) {
    let mut all_correct = true;
    let mut fields = Vec::new();
    for name in workload::NAMES {
        let outcome = run::run(&RunOpts {
            workload: name.into(),
            seed: DEFAULT_SEED,
            seconds: 0.5,
            trace: false,
            fifo: false,
            trace_out: None,
            setup_reps: 1,
            gate_send_lag: false,
        })
        .expect("named workloads exist");
        for n in &outcome.notes {
            eprintln!("# {name}: {n}");
        }
        all_correct &= outcome.correct;
        fields.push((name, outcome.result_json()));
    }
    (obj(fields), all_correct)
}

/// `--repeat`: each run is a fresh process of this same executable, as
/// the driver's runs are, so no run inherits another's heap or threads.
fn repeat(a: &Args, k: usize) -> Result<(), String> {
    let out = a.out.as_ref().ok_or("--repeat needs --out FILE")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => workload::GATED.to_vec(),
    };
    let mut runs = Vec::new();
    let mut incorrect = Vec::new();
    for i in 0..k {
        for name in &names {
            let seed = a.seed + i as u64;
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }]);
            if a.fifo {
                cmd.args(["--policy", "fifo"]);
            }
            let done = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&done.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let Ok(Value::Obj(mut fields)) = json::parse(last) else {
                return Err(format!(
                    "{name} seed {seed}: no result line (exit {:?})\n{}",
                    done.status.code(),
                    String::from_utf8_lossy(&done.stderr)
                ));
            };
            let correct = fields
                .iter()
                .any(|(k, v)| k == "correct" && v.as_bool() == Some(true));
            eprintln!(
                "[{}/{k}] {name} seed {seed}: {} ({} attempts discarded)",
                i + 1,
                if correct { "ok" } else { "INCORRECT" },
                stdout
                    .lines()
                    .filter(|l| l.starts_with("# attempt"))
                    .count()
            );
            if !correct {
                incorrect.push(format!("{name} seed {seed}"));
            }
            fields.insert(0, ("seed".into(), num(seed as f64)));
            fields.insert(0, ("workload".into(), string(*name)));
            runs.push(Value::Obj(fields));
        }
    }
    let doc = report::repeat_artifact(a.seconds, &runs);
    std::fs::write(out, doc.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    if let Some(summary) = doc.get("summary").and_then(Value::as_obj) {
        for (w, per_metric) in summary {
            println!("{w}");
            for (m, s) in per_metric.as_obj().unwrap_or(&[]) {
                let f = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                println!(
                    "  {m:<22} median {:>14.4}  q1 {:>14.4}  q3 {:>14.4}  spread {:>5.1}%",
                    f("median"),
                    f("q1"),
                    f("q3"),
                    f("spread") * 100.0
                );
            }
        }
    }
    // An incorrect or invalid run is not a slow one: its numbers are
    // kept in the file for inspection, and the set is refused.
    if !incorrect.is_empty() {
        return Err(format!(
            "not correct (see the runs' own notes): {}",
            incorrect.join(", ")
        ));
    }
    Ok(())
}

/// One run as the driver asks for it: every attempt is a fresh process
/// of this same executable (so a discarded attempt leaves no heap,
/// thread or peak-RSS trace in the one reported), and only the reported
/// attempt's output is passed on.
fn supervise(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for attempt in 1..=MAX_ATTEMPTS {
        let done = std::process::Command::new(&exe)
            .args(argv)
            .arg("--attempt")
            .stderr(std::process::Stdio::inherit())
            .output();
        let done = match done {
            Ok(done) => done,
            Err(e) => {
                eprintln!("error: spawn attempt {attempt}: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&done.stdout);
        let code = done.status.code().unwrap_or(1) as u8;
        if code == EXIT_INVALID && attempt < MAX_ATTEMPTS {
            for why in stdout.lines().filter_map(|l| l.strip_prefix("# INVALID")) {
                println!("# attempt {attempt} discarded: INVALID{why}");
            }
            continue;
        }
        print!("{stdout}");
        return ExitCode::from(if code == EXIT_INVALID { 1 } else { code });
    }
    unreachable!("the last attempt is always reported")
}

fn compare_files(a: &str, b: &str) -> Result<(String, bool), String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    report::compare(&read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fail = |e: String| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    };
    match a.positional.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", render_manifest(&manifest()));
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, pa, pb] = a.positional.as_slice() else {
                return fail("compare takes two files".into());
            };
            return match compare_files(pa, pb) {
                Ok((table, worse)) => {
                    print!("{table}");
                    ExitCode::from(u8::from(worse))
                }
                Err(e) => fail(e),
            };
        }
        Some(other) => return fail(format!("unknown command {other:?}")),
        None => {}
    }
    if a.smoke {
        let (doc, ok) = smoke();
        println!("{}", doc.render());
        return ExitCode::from(u8::from(!ok));
    }
    if let Some(k) = a.repeat {
        return match repeat(&a, k) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(e),
        };
    }
    let Some(workload) = a.workload.clone() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if !a.attempt {
        return supervise(&argv);
    }
    match run::run(&RunOpts {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        fifo: a.fifo,
        trace_out: a.trace_out.clone(),
        setup_reps: SETUP_REPS,
        gate_send_lag: true,
    }) {
        Ok(outcome) => {
            print_outcome(&outcome);
            // The result line is printed either way; a run whose
            // outputs are wrong must not look like a pass.
            ExitCode::from(if outcome.correct {
                0
            } else if outcome.only_invalid {
                EXIT_INVALID
            } else {
                1
            })
        }
        Err(e) => fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke run, end to end against the real runtime over
    /// loopback: every workload, every end-to-end metric, reference
    /// check included.
    #[test]
    fn smoke_covers_every_metric_of_every_workload() {
        let (doc, ok) = smoke();
        let text = doc.render();
        let parsed = json::parse(&text).expect("smoke JSON parses");
        assert!(ok, "reference check failed: {text}");
        for name in workload::NAMES {
            let result = parsed.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let m = result.get("metrics").expect("metrics");
            assert_eq!(m.as_obj().unwrap().len(), metrics::END_TO_END.len());
            for def in &metrics::END_TO_END {
                let got = m
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{name}.{}", def.name));
                assert_eq!(got.get("unit").and_then(Value::as_str), Some(def.unit));
                let v = got.get("value").and_then(Value::as_f64).unwrap();
                assert!(v.is_finite() && v > 0.0, "{name}.{} = {v}", def.name);
            }
        }
    }

    #[test]
    fn traced_run_emits_every_per_layer_metric_and_the_span_file() {
        let dir = harness::TempDir::new("trace-test").unwrap();
        let path = dir.path().join("spans.json");
        let o = run::run(&RunOpts {
            workload: "firehose_agg".into(),
            seed: 11,
            seconds: 0.6,
            trace: true,
            fifo: false,
            trace_out: Some(path.clone()),
            setup_reps: 1,
            gate_send_lag: false,
        })
        .unwrap();
        assert!(o.correct, "{:?}", o.notes);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(
            o.metrics.iter().all(|m| m.value.is_finite()),
            "{:?}",
            o.metrics
        );
        let spans = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(spans.as_arr().unwrap().len() > 100);
    }

    #[test]
    fn manifest_is_within_the_contracts_limits() {
        let text = render_manifest(&manifest());
        assert!(text.len() < 64 * 1024);
        let doc = json::parse(&text).unwrap();
        for w in doc.get("workloads").unwrap().as_arr().unwrap() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        let n = workload::GATED.len() as f64;
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        // 4 + 22 × workloads runs of roughly seconds + set-up + drains
        // each, and two builds, inside 3420 s.
        assert!((4.0 + 22.0 * n) * (seconds + 4.0) + 2.0 * 120.0 < 3_420.0);
    }

    #[test]
    fn flags_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload tenant_mix --seed 42 --seconds 35 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("tenant_mix"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 35.0, true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
