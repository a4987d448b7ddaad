//! `--repeat K` artifacts and `compare A.json B.json`: the benchmark's
//! own noise gate. A difference counts only when it is larger than the
//! metric's bound *and* the runs agree with themselves better than
//! that.

use crate::json::{self, num, obj, string, Value};
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::NAMES;

/// Median and quartiles of one `(metric, workload)` over the repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values).unwrap_or((values[0], values[0]));
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// The runs of one side disagree with each other by more than the
    /// bound, so nothing smaller than that can be read off.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classify candidate `b` against baseline `a`.
pub fn classify(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let change = if a.median == 0.0 {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The `--repeat` artifact: every run, then the per-pair summaries.
pub fn repeat_artifact(seconds: f64, runs: &[Value]) -> Value {
    let mut summary = Vec::new();
    for w in NAMES {
        let mine: Vec<&Value> = runs
            .iter()
            .filter(|r| r.get("workload").and_then(Value::as_str) == Some(w))
            .collect();
        if mine.is_empty() {
            continue;
        }
        let mut per_metric = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = mine
                .iter()
                .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = Summary::of(&values);
            per_metric.push((
                m.name,
                obj(vec![
                    ("median", num(s.median)),
                    ("q1", num(s.q1)),
                    ("q3", num(s.q3)),
                    ("spread", num(s.spread())),
                    ("n", num(s.n as f64)),
                    ("unit", string(m.unit)),
                ]),
            ));
        }
        summary.push((w, obj(per_metric)));
    }
    obj(vec![
        ("schema", string("cameo_benchmark.repeat.v1")),
        ("seconds", num(seconds)),
        ("nproc", num(crate::workload::nproc() as f64)),
        ("workers", num(crate::workload::default_workers() as f64)),
        ("summary", obj(summary)),
        ("runs", Value::Arr(runs.to_vec())),
    ])
}

fn summary_of(doc: &Value, workload: &str, metric: &str) -> Option<Summary> {
    let s = doc.get("summary")?.get(workload)?.get(metric)?;
    Some(Summary {
        median: s.get("median")?.as_f64()?,
        q1: s.get("q1")?.as_f64()?,
        q3: s.get("q3")?.as_f64()?,
        n: s.get("n")?.as_f64()? as usize,
    })
}

/// Compare two `--repeat` artifacts. Returns the printed table and
/// whether any pair came out worse.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = json::parse(a_text)?;
    let b = json::parse(b_text)?;
    for (side, doc) in [("A", &a), ("B", &b)] {
        let bad = doc
            .get("runs")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter(|r| r.get("correct").and_then(Value::as_bool) == Some(false))
            .count();
        if bad > 0 {
            return Err(format!(
                "{side} holds {bad} runs that were not correct; its medians mean nothing"
            ));
        }
    }
    let mut out = String::new();
    let mut any_worse = false;
    for w in NAMES {
        let mut rows = Vec::new();
        let mut tally = [0usize; 4];
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary_of(&a, w, m.name), summary_of(&b, w, m.name))
            else {
                continue;
            };
            let v = classify(&sa, &sb, m.better, m.bound);
            tally[v as usize] += 1;
            any_worse |= v == Verdict::Worse;
            rows.push(format!(
                "  {:<22} {:>14.4} {:>14.4} {:>+8.1}%  spread {:>5.1}% / {:>5.1}%  bound {:>4.1}%  {}",
                m.name,
                sa.median,
                sb.median,
                if sa.median == 0.0 { 0.0 } else { (sb.median - sa.median) / sa.median.abs() * 100.0 },
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                m.bound * 100.0,
                v.as_str(),
            ));
        }
        if rows.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "{w}: {} better / {} worse / {} within bound / {} unresolved\n",
            tally[Verdict::Better as usize],
            tally[Verdict::Worse as usize],
            tally[Verdict::Within as usize],
            tally[Verdict::Unresolved as usize],
        ));
        out.push_str(&format!(
            "  {:<22} {:>14} {:>14} {:>9}\n",
            "metric", "A median", "B median", "change"
        ));
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
    }
    if out.is_empty() {
        return Err("the two files share no (metric, workload) pair".into());
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, half_iqr: f64) -> Summary {
        Summary {
            median,
            q1: median - half_iqr,
            q3: median + half_iqr,
            n: 10,
        }
    }

    #[test]
    fn classification_respects_direction_bound_and_spread() {
        let base = s(100.0, 1.0);
        // Lower is better, bound 10 %.
        assert_eq!(
            classify(&base, &s(105.0, 1.0), Better::Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            classify(&base, &s(111.0, 1.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            classify(&base, &s(85.0, 1.0), Better::Lower, 0.10),
            Verdict::Better
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            classify(&base, &s(111.0, 1.0), Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            classify(&base, &s(85.0, 1.0), Better::Higher, 0.10),
            Verdict::Worse
        );
        // Either side noisier than the bound: nothing can be said.
        assert_eq!(
            classify(&base, &s(150.0, 10.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(&s(100.0, 8.0), &s(100.0, 1.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_flags_a_worse_pair_and_only_that() {
        let run = |w: &str, p95: f64| {
            obj(vec![
                ("workload", string(w)),
                (
                    "metrics",
                    obj(vec![(
                        "strict_p95_us",
                        obj(vec![("value", num(p95)), ("unit", string("us"))]),
                    )]),
                ),
            ])
        };
        let set = |p95: f64| -> String {
            let runs: Vec<Value> = (0..5)
                .flat_map(|i| {
                    [
                        run("tenant_mix", p95 + i as f64),
                        run("firehose_agg", 300.0 + i as f64),
                    ]
                })
                .collect();
            repeat_artifact(1.0, &runs).render()
        };
        let (table, worse) = compare(&set(1_400.0), &set(1_410.0)).unwrap();
        assert!(!worse, "{table}");
        let (table, worse) = compare(&set(1_400.0), &set(2_000.0)).unwrap();
        assert!(worse);
        let invalid = set(1_400.0).replacen("\"workload\"", "\"correct\": false, \"workload\"", 1);
        assert!(compare(&set(1_400.0), &invalid).is_err());
        assert!(table.contains("tenant_mix: 0 better / 1 worse"), "{table}");
        assert!(
            table.contains("firehose_agg: 0 better / 0 worse / 1 within"),
            "{table}"
        );
    }
}
