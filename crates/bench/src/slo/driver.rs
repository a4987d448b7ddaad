//! The open-loop driver: compiled schedule → live runtime → SLO point.
//!
//! One [`run_open_loop`] call is one measurement point: a fresh runtime
//! with the spec's worker count, an [`IngestServer`] on loopback, and
//! the compiled schedule walked in real time. Arrivals are sent over
//! the v2 wire format with tuples stamped at their *scheduled* send
//! time (see [`super::capture`]); deploy/undeploy events exercise the
//! real control plane mid-run. The driver never slows down for
//! backpressure — when it falls behind schedule it sends immediately
//! and records the lag, and the CO stamp keeps the scheduled time — so
//! queueing collapse shows up as latency, never as a politely reduced
//! offered load.
//!
//! [`IngestServer`]: cameo_runtime::net::IngestServer

use super::capture::{summarize, Record, Summary};
use super::schedule::{compile, EventKind};
use super::spec::{SloSpec, TenantSpec};
use cameo_core::progress::TimeDomain;
use cameo_core::stats::exact_percentile;
use cameo_core::time::{LogicalTime, Micros};
use cameo_dataflow::event::Tuple;
use cameo_dataflow::graph::{JobBuilder, JobSpec, Routing};
use cameo_dataflow::operator::OperatorKind;
use cameo_dataflow::ops::SpinMap;
use cameo_runtime::net::{IngestClient, IngestFrame, IngestServer};
use cameo_runtime::runtime::{JobHandle, Runtime, RuntimeConfig};
use cameo_runtime::stats::JobStatsSnapshot;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How to drive one measurement point.
#[derive(Clone, Copy, Debug)]
pub struct DriveConfig {
    /// Schedule seed.
    pub seed: u64,
    /// Rate multiplier (offered load / spec mean).
    pub scale: f64,
    /// Optional horizon cap in microseconds (quick mode).
    pub cap_us: Option<u64>,
}

impl DriveConfig {
    /// A point at the given seed and scale over the whole horizon.
    pub fn new(seed: u64, scale: f64) -> Self {
        DriveConfig {
            seed,
            scale,
            cap_us: None,
        }
    }
}

/// Per-tenant results of one point, CO metrics plus the runtime's own
/// counters for cross-checking.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// Tenant name from the spec.
    pub name: String,
    /// The tenant's latency target.
    pub target_us: u64,
    /// CO-safe latency + miss accounting from the subscriber records.
    pub summary: Summary,
    /// Sink batches the runtime counted (sum over the tenant's jobs).
    pub rt_outputs: u64,
    /// Deadline-meeting outputs the runtime counted.
    pub rt_on_time: u64,
    /// Messages the runtime delivered to operators.
    pub rt_delivered: u64,
    /// Runtime-side p999 (max over the tenant's jobs).
    pub rt_p999_us: u64,
}

/// Everything one open-loop run produced.
#[derive(Clone, Debug)]
pub struct DriveOutcome {
    /// Frames actually offered, per second of schedule horizon.
    pub offered_hz: f64,
    /// Total frames sent.
    pub sends: u64,
    /// Worst sender lag behind its own schedule.
    pub send_lag_max_us: u64,
    /// Aggregate accounting across all tenants (late = per-tenant
    /// targets, percentiles = merged latency population).
    pub aggregate: Summary,
    /// Per-tenant breakdown, spec order.
    pub tenants: Vec<TenantOutcome>,
    /// Frames the ingress plane dropped (vacant slot / draining job).
    pub frames_dropped: u64,
    /// Frames refused by the generation check.
    pub gen_rejected: u64,
}

/// The job every SLO tenant runs under the real runtime: ingest →
/// [`SpinMap`] sink burning `burn_us` of real CPU per message, deadline
/// = the tenant's latency target. The sim bridge builds the same shape
/// with a declared-cost [`Passthrough`] instead.
///
/// [`Passthrough`]: cameo_dataflow::ops::Passthrough
pub fn runtime_job_spec(tenant: &TenantSpec, name: &str) -> JobSpec {
    let burn = tenant.burn_us;
    let mut builder = JobBuilder::new(
        name,
        Micros(tenant.latency_target_us),
        TimeDomain::EventTime,
    );
    let src = builder.ingest("src", 1);
    let sink = builder.stage("burn", 1, OperatorKind::Regular, Micros(burn), move |_| {
        Box::new(SpinMap::new(Micros(burn)))
    });
    builder.connect(src, sink, Routing::Forward);
    builder.build().expect("slo job graph")
}

/// One deployed `(tenant, job)` pair's live state.
struct LiveJob {
    handle: JobHandle,
    records: Arc<Mutex<Vec<Record>>>,
    recorder: std::thread::JoinHandle<()>,
    /// Stats snapshot taken just before a mid-run undeploy; `None`
    /// while the job is still live.
    parting_stats: Option<JobStatsSnapshot>,
}

/// Closed-loop saturation probe: deploy the spec's jobs on a fresh
/// runtime, stuff `frames_budget` frames (split across tenants by
/// their mean-rate mix) straight into the scheduler, and time the
/// drain. Returns sustainable frames/second — the denominator "offered
/// load = x × saturation" is defined against.
pub fn measure_saturation(spec: &SloSpec, frames_budget: u64) -> f64 {
    let rt = Runtime::start(RuntimeConfig::default().with_workers(spec.workers));
    let mut jobs = Vec::new();
    for (ti, tenant) in spec.tenants.iter().enumerate() {
        for j in 0..tenant.jobs {
            let spec_j = runtime_job_spec(tenant, &format!("sat-{ti}-{j}"));
            jobs.push((ti, rt.deploy(&spec_j, &Default::default()).expect("deploy")));
        }
    }
    let mean_total: f64 = spec.mean_offered_hz(spec.duration_us).max(1e-9);
    let mut frames: Vec<IngestFrame> = Vec::with_capacity(frames_budget as usize);
    for (ti, handle) in &jobs {
        let tenant = &spec.tenants[*ti];
        let share = tenant.arrival.mean(spec.duration_us) / mean_total;
        let n = ((frames_budget as f64 * share).ceil() as u64).max(1);
        for i in 0..n {
            let tuples = (0..spec.tuples_per_msg.max(1))
                .map(|k| Tuple::new(i ^ k as u64, 1, LogicalTime(i + 1)))
                .collect();
            frames.push(IngestFrame::addressed(*handle, 0, tuples));
        }
    }
    let total = frames.len() as u64;
    let t0 = Instant::now();
    for chunk in frames.chunks(256) {
        rt.ingest_frames(chunk.to_vec());
    }
    assert!(
        rt.drain(Duration::from_secs(120)),
        "saturation probe failed to drain {total} frames"
    );
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    for (_, handle) in jobs {
        rt.undeploy(handle).expect("undeploy");
    }
    rt.shutdown();
    total as f64 / elapsed
}

/// Drive `spec` open-loop over loopback TCP at `cfg.scale` times its
/// declared rates and measure deadline misses CO-safely.
pub fn run_open_loop(spec: &SloSpec, cfg: &DriveConfig) -> DriveOutcome {
    let schedule = compile(spec, cfg.seed, cfg.scale, cfg.cap_us);
    // The spec's pool: the configuration saturation is calibrated on.
    let rt = Arc::new(Runtime::start(
        RuntimeConfig::default().with_workers(spec.workers),
    ));
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut client = IngestClient::connect(server.local_addr()).expect("connect loopback");

    let njobs: usize = spec.total_jobs() as usize;
    let mut live: Vec<Option<LiveJob>> = (0..njobs).map(|_| None).collect();
    let mut done: Vec<Option<LiveJob>> = (0..njobs).map(|_| None).collect();
    let mut sends_per_job = vec![0u64; njobs];
    // Flat index for a (tenant, job) pair, spec order.
    let base: Vec<usize> = spec
        .tenants
        .iter()
        .scan(0usize, |acc, t| {
            let b = *acc;
            *acc += t.jobs as usize;
            Some(b)
        })
        .collect();

    let t0 = Instant::now();
    let now_us = || t0.elapsed().as_micros() as u64;
    let mut lag_max = 0u64;
    let mut flushed = 0u64;
    let mut pending: Vec<IngestFrame> = Vec::new();

    // Bounded wait for the ingress plane to account for every flushed
    // frame (received, dropped, or generation-rejected), so undeploys
    // and the final snapshot never race in-flight loopback bytes.
    let await_ingress = |client: &mut IngestClient, flushed: u64, what: &str| {
        client.flush().expect("flush ingress");
        let stall = Instant::now() + Duration::from_secs(15);
        while server.frames_received() + server.frames_dropped() + server.gen_rejected_frames()
            < flushed
        {
            assert!(
                Instant::now() < stall,
                "{what}: ingress stalled at {}/{} frames",
                server.frames_received() + server.frames_dropped(),
                flushed
            );
            std::thread::yield_now();
        }
    };

    for (ei, ev) in schedule.events.iter().enumerate() {
        // Wait for the event's instant, flushing queued arrivals before
        // any real sleep so they hit the wire promptly.
        loop {
            let now = now_us();
            if now >= ev.at_us {
                lag_max = lag_max.max(now - ev.at_us);
                break;
            }
            if !pending.is_empty() {
                flushed += pending.len() as u64;
                client.send_many(&pending).expect("send burst");
                pending.clear();
            }
            std::thread::sleep(Duration::from_micros((ev.at_us - now).min(1_000)));
        }
        let slot = base[ev.tenant as usize] + ev.job as usize;
        match ev.kind {
            EventKind::Deploy => {
                let tenant = &spec.tenants[ev.tenant as usize];
                let name = format!("{}-{}", tenant.name, ev.job);
                let handle = rt
                    .deploy(&runtime_job_spec(tenant, &name), &Default::default())
                    .expect("deploy");
                let sub = rt.subscribe(handle).expect("subscribe");
                let records: Arc<Mutex<Vec<Record>>> = Arc::new(Mutex::new(Vec::new()));
                let recorder = {
                    let records = records.clone();
                    std::thread::spawn(move || {
                        while let Ok(ev) = sub.recv() {
                            let at = t0.elapsed().as_micros() as u64;
                            records.lock().unwrap().push(Record {
                                receipt_us: at,
                                stamp: ev.batch.progress.0,
                            });
                        }
                    })
                };
                live[slot] = Some(LiveJob {
                    handle,
                    records,
                    recorder,
                    parting_stats: None,
                });
            }
            EventKind::Arrival => {
                let job = live[slot].as_ref().expect("arrival for live job");
                let tuples = (0..spec.tuples_per_msg.max(1) as u64)
                    .map(|k| Tuple::new(ei as u64 ^ k, 1, LogicalTime(ev.at_us + 1)))
                    .collect();
                pending.push(IngestFrame::addressed(job.handle, 0, tuples));
                sends_per_job[slot] += 1;
                if pending.len() >= 512 {
                    flushed += pending.len() as u64;
                    client.send_many(&pending).expect("send burst");
                    pending.clear();
                }
            }
            EventKind::Undeploy => {
                if !pending.is_empty() {
                    flushed += pending.len() as u64;
                    client.send_many(&pending).expect("send burst");
                    pending.clear();
                }
                // Make sure this job's own frames reached the ingress
                // before it starts draining; anything still queued
                // behind the drain budget is purged and counted lost.
                await_ingress(&mut client, flushed, "undeploy");
                let mut job = live[slot].take().expect("undeploy of live job");
                // Best-effort: the handle goes stale at undeploy, so
                // grab the runtime counters now. In-flight work can
                // still be missing from them; the CO records are the
                // authoritative miss accounting.
                job.parting_stats = rt.job_stats(job.handle).ok();
                rt.undeploy_within(job.handle, Duration::from_millis(50))
                    .expect("undeploy");
                done[slot] = Some(job);
            }
        }
    }
    if !pending.is_empty() {
        flushed += pending.len() as u64;
        client.send_many(&pending).expect("send burst");
        pending.clear();
    }
    await_ingress(&mut client, flushed, "run end");
    drop(client);

    // Let the backlog clear: queue empty, then per-job output counts
    // stable (the last in-flight burns have surfaced at the sinks).
    // The budget scales with the volume actually sent: an overload
    // point on a fleet-sized corpus (production: ~1.4M frames over a
    // 150 s horizon) legitimately needs minutes to burn down its tail
    // on a small host, while the sub-second scenarios stay on the
    // floor. Drain returns the moment the queue clears, so a generous
    // ceiling costs nothing at healthy load points.
    let drain_budget = Duration::from_secs(120) + Duration::from_micros(flushed * 500);
    assert!(
        rt.drain(drain_budget),
        "post-run backlog failed to drain within {drain_budget:?}"
    );
    let settle_deadline = Instant::now() + Duration::from_secs(10);
    let record_total = |live: &[Option<LiveJob>]| -> usize {
        live.iter()
            .flatten()
            .map(|j| j.records.lock().unwrap().len())
            .sum()
    };
    let mut prev = record_total(&live);
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let cur = record_total(&live);
        if cur == prev || Instant::now() > settle_deadline {
            break;
        }
        prev = cur;
    }

    // Retire survivors: snapshot, undeploy (drops the subscription
    // sender, so every recorder thread exits), then join and fold.
    for job in live.iter_mut().flatten() {
        job.parting_stats = rt.job_stats(job.handle).ok();
    }
    for slot in 0..njobs {
        if let Some(job) = live[slot].take() {
            rt.undeploy_within(job.handle, Duration::from_millis(50))
                .expect("undeploy survivor");
            done[slot] = Some(job);
        }
    }

    let frames_dropped = server.frames_dropped();
    let gen_rejected = server.gen_rejected_frames();
    server.stop();
    Arc::try_unwrap(rt)
        .ok()
        .expect("sole runtime owner")
        .shutdown();

    let mut tenants = Vec::with_capacity(spec.tenants.len());
    let mut all_latencies: Vec<u64> = Vec::new();
    let (mut agg_sends, mut agg_outputs, mut agg_late, mut agg_lost) = (0u64, 0u64, 0u64, 0u64);
    for (ti, tenant) in spec.tenants.iter().enumerate() {
        let mut records: Vec<Record> = Vec::new();
        let mut sends = 0u64;
        let (mut rt_outputs, mut rt_on_time, mut rt_delivered, mut rt_p999) = (0, 0, 0, 0u64);
        for j in 0..tenant.jobs as usize {
            let slot = base[ti] + j;
            sends += sends_per_job[slot];
            if let Some(job) = done[slot].take() {
                job.recorder.join().expect("recorder thread");
                records.extend(std::mem::take(&mut *job.records.lock().unwrap()));
                if let Some(s) = job.parting_stats {
                    rt_outputs += s.outputs;
                    rt_on_time += s.on_time;
                    rt_delivered += s.delivered;
                    rt_p999 = rt_p999.max(s.p999.0);
                }
            }
        }
        let summary = summarize(&records, tenant.latency_target_us, sends);
        all_latencies.extend(records.iter().map(Record::latency_us));
        agg_sends += summary.sends;
        agg_outputs += summary.outputs;
        agg_late += summary.late;
        agg_lost += summary.lost;
        tenants.push(TenantOutcome {
            name: tenant.name.clone(),
            target_us: tenant.latency_target_us,
            summary,
            rt_outputs,
            rt_on_time,
            rt_delivered,
            rt_p999_us: rt_p999,
        });
    }
    all_latencies.sort_unstable();
    let aggregate = Summary {
        sends: agg_sends,
        outputs: agg_outputs,
        late: agg_late,
        lost: agg_lost,
        miss_rate: if agg_sends == 0 {
            0.0
        } else {
            (agg_late + agg_lost) as f64 / agg_sends as f64
        },
        p50_us: exact_percentile(&all_latencies, 50.0),
        p99_us: exact_percentile(&all_latencies, 99.0),
        p999_us: exact_percentile(&all_latencies, 99.9),
        max_us: all_latencies.last().copied().unwrap_or(0),
    };
    DriveOutcome {
        offered_hz: agg_sends as f64 / (schedule.duration_us as f64 / 1e6),
        sends: agg_sends,
        send_lag_max_us: lag_max,
        aggregate,
        tenants,
        frames_dropped,
        gen_rejected,
    }
}
