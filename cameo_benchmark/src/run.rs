//! One benchmark run: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::check::{analyse, Analysis, Rec, Timed};
use crate::harness::{scratch_root, Env, Finished, Mark, SetupOpts};
use crate::json::{num, obj, string, Value};
use crate::metrics::{Measured, END_TO_END, PER_LAYER};
use crate::procfs::peak_rss_mb;
use crate::staged;
use crate::stats::{median, percentile_sorted};
use crate::workload::{default_workers, workload, Class, JobKind, Phases, Workload};
use cameo_core::stats::Histogram;
use std::path::PathBuf;
use std::time::Instant;

/// A run whose sender ran later than this behind its own schedule (p99)
/// did not offer the load it claims: it is invalid, not slow.
pub const SEND_LAG_LIMIT_US: f64 = 2_000.0;

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Sensitivity self-check only: schedule FIFO instead of LLF.
    pub fifo: bool,
    /// Where the traced run writes its spans; `None` picks a file under
    /// the build output directory.
    pub trace_out: Option<PathBuf>,
    /// Times set-up is performed (and torn down again) to take the
    /// median of.
    pub setup_reps: usize,
    /// Apply [`SEND_LAG_LIMIT_US`]. Off for the smoke run, whose half
    /// second per workload checks results, not timings.
    pub gate_send_lag: bool,
}

#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    /// Not `correct`, and only because the sender could not keep its
    /// schedule (see [`SEND_LAG_LIMIT_US`]): worth measuring again.
    pub only_invalid: bool,
    /// Frames written.
    pub attempted: u64,
    /// Frames the ingress refused or whose tuples the results lack.
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Printed for the operator, not part of the contract's result.
    pub extras: Vec<Measured>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// The contract's last line.
    pub fn result_json(&self) -> Value {
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                obj(vec![("value", num(m.value)), ("unit", string(m.unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let workers = default_workers();
    // The traced run splits its seconds differently: warm-up, an
    // untraced paced segment A, a traced paced segment B (the same
    // schedule, so B − A is the tracing overhead), a short flood to see
    // which thread saturates; the staged replays take the rest.
    let us = |share: f64| (opts.seconds * share * 1e6) as u64;
    let phases = if opts.trace {
        Phases {
            warm_us: us(0.04),
            timed_us: us(0.44),
            flood_us: us(0.08),
        }
    } else {
        Phases::for_seconds(opts.seconds)
    };
    let w = workload(&opts.workload, workers, &phases)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let setup = SetupOpts {
        seed: opts.seed,
        workers,
        fifo: opts.fifo,
    };
    Ok(if opts.trace {
        run_traced(opts, &w, &phases, phases.warm_us + us(0.16), &setup)
    } else {
        run_untraced(opts, &w, &phases, &setup)
    })
}

/// Why the run is invalid, if the sender fell too far behind.
fn late_sender(opts: &RunOpts, lag_us: &Histogram) -> Option<String> {
    let p99 = lag_us.percentile(99.0).0 as f64;
    (opts.gate_send_lag && p99 > SEND_LAG_LIMIT_US).then(|| {
        format!(
            "INVALID: sender ran {p99} µs (p99) behind its schedule; the offered load was not the scheduled one"
        )
    })
}

/// Frames refused at the ingress plus frames the results lack, and the
/// reasons the run is not correct (empty when it is), an invalid run's
/// reason first.
fn verdict(
    fin: &Finished,
    analysis: &Analysis,
    drained: bool,
    invalid: Option<String>,
) -> (u64, Vec<String>) {
    let mut problems: Vec<String> = invalid.into_iter().collect();
    problems.extend(analysis.problems.iter().cloned());
    let refused = fin.frames_dropped + fin.gen_rejected;
    if refused > 0 || fin.nacks > 0 {
        problems.push(format!(
            "ingress dropped {} frames, generation-rejected {}, NACKed {}",
            fin.frames_dropped, fin.gen_rejected, fin.nacks
        ));
    }
    if fin.frames_received + refused != fin.sent_frames {
        problems.push(format!(
            "ingress accounted for {} of {} frames written",
            fin.frames_received + refused,
            fin.sent_frames
        ));
    }
    if !drained {
        problems.push("a phase did not drain within its timeout".into());
    }
    for (ji, stats) in fin.job_stats.iter().enumerate() {
        let seen = analysis.outputs[ji];
        if stats.outputs != seen || stats.delivered != seen {
            problems.push(format!(
                "job {ji}: runtime counted {} outputs and {} deliveries, the collector received {seen}",
                stats.outputs, stats.delivered
            ));
        }
    }
    (refused + analysis.failed_frames, problems)
}

/// CPU the program spent per frame it accepted: its serve loops and its
/// workers, user + system. The generator stands in for remote clients,
/// whose CPU is not the system's cost; it is reported as
/// `gen.cpu_share` instead.
fn cpu_us_per_frame(from: &Mark, to: &Mark) -> f64 {
    let frames = (to.frames_received - from.frames_received).max(1);
    let spent = to.cpu.since(&from.cpu);
    (spent.net.run_ns + spent.worker.run_ns) as f64 / 1e3 / frames as f64
}

fn measured(name: &'static str, value: f64) -> Measured {
    let unit = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
    Measured { name, unit, value }
}

/// Run `f` as the sender: on a thread of its own, because set-up pins
/// the thread it runs on and a pinned thread cannot start the next
/// runtime (see `Env::setup`). The caller only waits.
fn as_sender<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("bench-sender".into())
            .spawn_scoped(s, f)
            .expect("spawn sender thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

fn run_untraced(opts: &RunOpts, w: &Workload, phases: &Phases, setup: &SetupOpts) -> Outcome {
    let base = Instant::now();
    let timed_setup = || {
        let t = Instant::now();
        let env = Env::setup(w, phases, setup, base);
        (env, t.elapsed().as_secs_f64())
    };
    // Set-up is performed several times and the median reported: a
    // single sample of a sub-second interval is mostly host noise.
    let mut setup_s: Vec<f64> = (1..opts.setup_reps)
        .map(|_| {
            as_sender(|| {
                let (env, took) = timed_setup();
                env.finish();
                took
            })
        })
        .collect();
    as_sender(|| {
        let (env, took) = timed_setup();
        setup_s.push(took);
        measure_untraced(opts, w, phases, setup.workers, env, &setup_s)
    })
}

fn measure_untraced(
    opts: &RunOpts,
    w: &Workload,
    phases: &Phases,
    workers: usize,
    mut env: Env,
    setup_s: &[f64],
) -> Outcome {
    let paced = env.paced(&[phases.warm_us], None);
    let flood = env.flood(phases.flood_us);
    // Before the reference computation allocates anything of its own.
    let rss = peak_rss_mb();
    let fin = env.finish();
    let analysis = analyse(
        w,
        &fin.streams,
        &fin.sent,
        &fin.collected.records,
        &Timed {
            t0_us: paced.t0_us,
            from_us: phases.warm_us,
            to_us: phases.paced_us(),
        },
    );
    let lag = &paced.lag_us[0];
    let invalid = late_sender(opts, lag);
    let (failed, problems) = verdict(
        &fin,
        &analysis,
        paced.drained && flood.drained,
        invalid.clone(),
    );

    let metrics = vec![
        measured("setup_s", median(setup_s)),
        measured("strict_p50_us", analysis.strict.percentile(50.0)),
        measured("strict_p95_us", analysis.strict.percentile(95.0)),
        measured("lax_p95_us", analysis.lax.percentile(95.0)),
        measured("strict_on_time_share", 1.0 - analysis.strict.miss_rate()),
        measured("lax_on_time_share", 1.0 - analysis.lax.miss_rate()),
        measured("flood_fps", flood.fps()),
        measured(
            "cpu_us_per_frame",
            cpu_us_per_frame(&paced.marks[0], &paced.marks[1]),
        ),
        measured("peak_rss_mb", rss),
        measured(
            "delivered_share",
            1.0 - failed as f64 / fin.sent_frames.max(1) as f64,
        ),
    ];
    let extras = vec![
        measured("lat.strict_p99_us", analysis.strict.percentile(99.0)),
        measured("lat.strict_p999_us", analysis.strict.percentile(99.9)),
        measured("lat.samples", analysis.strict.lat_us.len() as f64),
        measured("gen.send_lag_us_p99", lag.percentile(99.0).0 as f64),
        measured("gen.send_lag_us_max", lag.max().0 as f64),
        measured(
            "gen.collector_gap_us_p99",
            fin.collected.gap_us.percentile(99.0).0 as f64,
        ),
    ];
    let mut notes = problems.clone();
    notes.push(format!(
        "workers {workers} seed {} phases warm {} ms / timed {} ms / flood {} ms; strict sends {} lax sends {}",
        opts.seed,
        phases.warm_us / 1_000,
        phases.timed_us / 1_000,
        phases.flood_us / 1_000,
        analysis.strict.expected,
        analysis.lax.expected,
    ));
    Outcome {
        workload: w.name.into(),
        seed: opts.seed,
        trace: false,
        correct: problems.is_empty(),
        only_invalid: invalid.is_some() && problems.len() == 1,
        attempted: fin.sent_frames,
        failed,
        metrics,
        extras,
        notes,
    }
}

fn run_traced(
    opts: &RunOpts,
    w: &Workload,
    phases: &Phases,
    seg_a_end: u64,
    setup: &SetupOpts,
) -> Outcome {
    let s = opts.seconds;
    let workers = setup.workers;
    let base = Instant::now();
    let (paced, flood, fin) = as_sender(|| {
        let mut env = Env::setup(w, phases, setup, base);
        let paced = env.paced(&[phases.warm_us, seg_a_end], Some(1));
        let flood = env.flood(phases.flood_us);
        (paced, flood, env.finish())
    });
    let analysis = analyse(
        w,
        &fin.streams,
        &fin.sent,
        &fin.collected.records,
        &Timed {
            t0_us: paced.t0_us,
            from_us: phases.warm_us,
            to_us: phases.paced_us(),
        },
    );
    // The traced segment B's own lag: the sender also records spans there.
    let lag = &paced.lag_us[1];
    let invalid = late_sender(opts, lag);
    let (failed, problems) = verdict(
        &fin,
        &analysis,
        paced.drained && flood.drained,
        invalid.clone(),
    );

    // Staged replays, sized to the time the run was given; on this
    // thread, which is not pinned, so client and serve loop of the
    // loopback stage do not share a core.
    let mut tracer = fin.tracer;
    tracer.absorb(fin.collected.tracer);
    let frames_wire = ((4_000.0 * s) as usize).clamp(256, 100_000);
    let frames_queued = ((1_200.0 * s) as usize).clamp(256, 30_000);
    let staged = staged::run(
        w,
        &fin.streams,
        workers,
        frames_wire,
        frames_queued,
        &mut tracer,
    );

    // Live deltas over the traced segment B (marks: warm, A→B, end).
    let (m_a, m_b, m_end) = (&paced.marks[0], &paced.marks[1], &paced.marks[2]);
    let seg = m_end.cpu.since(&m_b.cpu);
    let frames_b = (m_end.frames_received - m_b.frames_received).max(1) as f64;
    let sched = |f: fn(&cameo_core::scheduler::SchedulerStats) -> u64| {
        (f(&m_end.sched) - f(&m_b.sched)) as f64
    };
    let msgs_b = sched(|s| s.messages_scheduled).max(1.0);
    let wall_b_ns = (m_end.wall_us - m_b.wall_us).max(1) as f64 * 1e3;
    let cpu_a = cpu_us_per_frame(m_a, m_b);
    let cpu_b = cpu_us_per_frame(m_b, m_end);

    let mut depth: Vec<u64> = fin
        .collected
        .samples
        .iter()
        .map(|x| x.queue_len as u64)
        .collect();
    depth.sort_unstable();
    let peak = |f: fn(&crate::harness::Sample) -> u32| {
        fin.collected.samples.iter().map(f).max().unwrap_or(0) as f64
    };
    let mut handoff: Vec<u64> = timed_records(&fin.collected.records, &paced, phases)
        .map(|r| r.receipt_us.saturating_sub(fin.rt_epoch_us + r.emit_us))
        .collect();
    handoff.sort_unstable();

    let strict_jobs = || {
        w.jobs
            .iter()
            .zip(&paced.job_stats)
            .filter(|(j, _)| j.class == Class::Strict)
            .map(|(_, s)| s)
    };
    let burn_ns_per_msg: f64 = {
        // Spin jobs: the burn the workload asks for, weighted by rate.
        let (mut burn, mut rate) = (0.0, 0.0);
        for j in &w.jobs {
            if let JobKind::Spin { burn_us } = j.kind {
                burn += burn_us as f64 * 1e3 * j.rate.base_hz();
                rate += j.rate.base_hz();
            }
        }
        if rate > 0.0 {
            burn / rate
        } else {
            0.0
        }
    };
    // Tuples that went through the aggregation operators (none on a
    // spin workload, whose operator cost is the burn).
    let tuples_b = if matches!(w.jobs[0].kind, JobKind::Agg) {
        frames_b * fin.streams[0].tuples(0, 1).len() as f64
    } else {
        0.0
    };
    let stage_sum_ns = frames_b * (staged.decode_ns_per_frame + staged.ingest_ns_per_frame)
        + msgs_b * (staged.lease_cycle_ns_per_msg + staged.policy_ns_per_msg + burn_ns_per_msg)
        + tuples_b * (staged.window_agg_ns_per_tuple + staged.route_batch_ns_per_tuple);
    let sut_ns = (seg.net.run_ns + seg.worker.run_ns).max(1) as f64;
    let worker_self = seg.worker.run_ns as f64 / msgs_b
        - staged.lease_cycle_ns_per_msg
        - staged.policy_ns_per_msg
        - (tuples_b / msgs_b) * staged.window_agg_ns_per_tuple;
    let share = |t: u64, wall_us: u64| t as f64 / (wall_us.max(1) as f64 * 1e3);

    let values: Vec<(&'static str, f64)> = vec![
        ("gen.send_lag_us_p99", lag.percentile(99.0).0 as f64),
        ("gen.send_lag_us_max", lag.max().0 as f64),
        (
            "gen.cpu_share",
            seg.harness.run_ns as f64 / seg.total_run_ns().max(1) as f64,
        ),
        (
            "gen.collector_gap_us_p99",
            fin.collected.gap_us.percentile(99.0).0 as f64,
        ),
        (
            "gen.failed_share",
            failed as f64 / fin.sent_frames.max(1) as f64,
        ),
        ("msg.encode_ns_per_frame", staged.encode_ns_per_frame),
        ("msg.decode_ns_per_frame", staged.decode_ns_per_frame),
        ("net.loopback_ns_per_frame", staged.loopback_ns_per_frame),
        (
            "net.loopback_self_ns_per_frame",
            staged.loopback_ns_per_frame - staged.decode_ns_per_frame - staged.ingest_ns_per_frame,
        ),
        ("net.cpu_ns_per_frame", seg.net.run_ns as f64 / frames_b),
        (
            "net.runq_wait_ns_per_frame",
            seg.net.wait_ns as f64 / frames_b,
        ),
        (
            "net.frames_per_read",
            sched(|s| s.frames_coalesced) / sched(|s| s.net_batches).max(1.0),
        ),
        ("net.ingress_lag_frames_max", peak(|x| x.ingress_lag)),
        (
            "ingest.route_submit_ns_per_frame",
            staged.ingest_ns_per_frame,
        ),
        (
            "ingest.self_ns_per_frame",
            staged.ingest_ns_per_frame
                - staged.msgs_per_frame
                    * (staged.policy_ns_per_msg + staged.submit_batch_ns_per_msg),
        ),
        ("ingest.msgs_per_frame", staged.msgs_per_frame),
        ("shard.submit_ns_per_msg", staged.submit_ns_per_msg),
        (
            "shard.submit_batch_ns_per_msg",
            staged.submit_batch_ns_per_msg,
        ),
        (
            "shard.lease_cycle_ns_per_msg",
            staged.lease_cycle_ns_per_msg,
        ),
        (
            "shard.msgs_per_lease",
            msgs_b / sched(|s| s.operator_acquisitions).max(1.0),
        ),
        (
            "shard.quantum_swaps_per_kmsg",
            sched(|s| s.quantum_swaps + s.cross_shard_swaps) * 1e3 / msgs_b,
        ),
        ("shard.steals_per_kmsg", sched(|s| s.steals) * 1e3 / msgs_b),
        (
            "shard.publications_per_batch",
            sched(|s| s.batch_publications) / sched(|s| s.net_batches).max(1.0),
        ),
        (
            "mailbox.publish_drain_ns_per_msg",
            staged.mailbox_ns_per_msg,
        ),
        (
            "mailbox.node_alloc_fallback",
            fin.sched.node_alloc_fallback as f64,
        ),
        ("mailbox.arena_segments_peak", peak(|x| x.arena_segments)),
        ("queue.push_pop_ns_per_msg", staged.queue_ns_per_msg),
        ("queue.depth_p50", percentile_sorted(&depth, 50.0) as f64),
        ("queue.depth_max", depth.last().copied().unwrap_or(0) as f64),
        ("policy.convert_ns_per_msg", staged.policy_ns_per_msg),
        (
            "ops.window_agg_ns_per_tuple",
            staged.window_agg_ns_per_tuple,
        ),
        (
            "ops.route_batch_ns_per_tuple",
            staged.route_batch_ns_per_tuple,
        ),
        ("worker.cpu_ns_per_msg", seg.worker.run_ns as f64 / msgs_b),
        ("worker.self_ns_per_msg", worker_self),
        (
            "worker.busy_share",
            seg.worker.run_ns as f64 / wall_b_ns / workers as f64,
        ),
        (
            "worker.runq_wait_share",
            seg.worker.wait_ns as f64 / wall_b_ns / workers as f64,
        ),
        (
            "egress.handoff_us_p50",
            percentile_sorted(&handoff, 50.0) as f64,
        ),
        ("journal.append_ns_per_frame", staged.journal_ns_per_frame),
        ("journal.bytes_per_frame", staged.journal_bytes_per_frame),
        (
            "recover.ms_per_100k_frames",
            staged.recover_ms_per_100k_frames,
        ),
        (
            "stats.rt_p99_us",
            strict_jobs().map(|s| s.p99.0).max().unwrap_or(0) as f64,
        ),
        (
            "stats.delivered_minus_outputs",
            fin.job_stats
                .iter()
                .map(|s| s.delivered as f64 - s.outputs as f64)
                .sum(),
        ),
        ("lat.strict_p99_us", analysis.strict.percentile(99.0)),
        ("lat.strict_p999_us", analysis.strict.percentile(99.9)),
        ("lat.samples", analysis.strict.lat_us.len() as f64),
        ("trace.stage_sum_over_thread_cpu", stage_sum_ns / sut_ns),
        ("trace.overhead_pct", (cpu_b - cpu_a) / cpu_a * 100.0),
        ("trace.spans", tracer.spans().len() as f64),
        ("flood.fps", flood.fps()),
        (
            "flood.net_busy_share",
            share(flood.cpu.net.run_ns, flood.wall_us),
        ),
        (
            "flood.worker_busy_share",
            share(flood.cpu.worker.run_ns, flood.wall_us) / workers as f64,
        ),
        (
            "flood.sender_busy_share",
            share(flood.cpu.harness.run_ns, flood.wall_us),
        ),
    ];
    let metrics: Vec<Measured> = values.into_iter().map(|(n, v)| measured(n, v)).collect();
    debug_assert_eq!(metrics.len(), PER_LAYER.len());

    let mut notes = problems.clone();
    let ratio = stage_sum_ns / sut_ns;
    if !(0.7..=1.3).contains(&ratio) {
        notes.push(format!(
            "FLAG: staged costs × live counts explain {ratio:.2} of the live net+worker CPU (outside 0.7–1.3)"
        ));
    }
    let trace_out = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| scratch_root().join(format!("{}.spans.json", w.name)));
    match write_spans(&trace_out, &tracer.to_json()) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            trace_out.display()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", trace_out.display())),
    }
    Outcome {
        workload: w.name.into(),
        seed: opts.seed,
        trace: true,
        correct: problems.is_empty(),
        only_invalid: invalid.is_some() && problems.len() == 1,
        attempted: fin.sent_frames,
        failed,
        metrics,
        extras: Vec::new(),
        notes,
    }
}

/// Results stamped inside the timed phase (by receipt).
fn timed_records<'a>(
    records: &'a [Vec<Rec>],
    paced: &crate::harness::PacedOut,
    phases: &Phases,
) -> impl Iterator<Item = &'a Rec> {
    let from = paced.t0_us + phases.warm_us;
    let to = paced.t0_us + phases.paced_us();
    records
        .iter()
        .flatten()
        .filter(move |r| (from..to).contains(&r.receipt_us))
}

fn write_spans(path: &std::path::Path, spans: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans.render())
}
