//! The load generator and the live run.
//!
//! One process, one sender (the main thread) and one collector thread,
//! at most two connections. The program under test is a real
//! `Runtime` + `IngestServer` over loopback TCP; it sees only frames.
//! Each run: set-up (timed, repeated for a median) → untimed warm-up at
//! the paced rate → **paced** phase (open loop) → **flood** phase
//! (closed loop). Tuples are stamped with their scheduled send time, so
//! sender lateness is reported, never absorbed.

use crate::check::{fold_tuples, Rec, Sent, FLUSH_JUMP};
use crate::procfs::CpuSnapshot;
use crate::trace::Tracer;
use crate::workload::{
    compile_streams, send_order, JobKind, Phases, Stream, Workload, AGG_WINDOW_US,
};
use cameo_core::policy::FifoPolicy;
use cameo_core::scheduler::SchedulerStats;
use cameo_core::stats::Histogram;
use cameo_core::time::Micros;
use cameo_runtime::durability::{DurabilityConfig, FsyncPolicy};
use cameo_runtime::net::{IngestClient, IngestFrame, IngestServer};
use cameo_runtime::runtime::{JobHandle, OutputSubscription, Runtime, RuntimeConfig};
use cameo_runtime::stats::JobStatsSnapshot;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Work the flood phase keeps outstanding (frames written but not yet
/// ingested, plus scheduler messages queued) before it pauses. Shorter
/// floods get a proportionally smaller cap, so the final drain stays a
/// fraction of the phase.
const FLOOD_QUEUE_CAP: u64 = 4096;
/// Frames per flood write.
const FLOOD_BATCH: usize = 64;
/// Frames the paced sender lets pile up before it writes mid-catch-up.
const PACED_FLUSH: usize = 256;
/// Collector park when a sweep finds nothing.
const COLLECTOR_PARK: Duration = Duration::from_micros(50);

/// A directory under the benchmark's own build output, removed when
/// dropped — also on a panic's unwind.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = scratch_root().join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where temporary and trace files go: beside the executable, i.e.
/// inside `CARGO_TARGET_DIR` — never `/tmp`, never a tracked path.
pub fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("cameo_benchmark_scratch")
}

/// `Runtime::queue_len` is a gauge kept by racing increments and
/// decrements; between a decrement and the increment it overtook it
/// reads as a huge unsigned number. That is an empty queue.
fn queue_len(rt: &Runtime) -> u64 {
    let n = rt.queue_len() as u64;
    if n > u64::MAX / 2 {
        0
    } else {
        n
    }
}

/// Progress of one job's results, published by the collector so the
/// sender can tell when a phase has drained.
#[derive(Default)]
struct JobProgress {
    count: AtomicU64,
    max_stamp: AtomicU64,
    last_receipt_us: AtomicU64,
}

struct Shared {
    stop: AtomicBool,
    /// Set while the traced segment runs: the collector samples and
    /// records spans only then.
    tracing: AtomicBool,
    /// Frames the sender has written so far.
    sent_frames: AtomicU64,
    progress: Vec<JobProgress>,
}

/// One 1 kHz sample of the traced segment.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub queue_len: u32,
    /// Frames written by the sender and not yet ingested.
    pub ingress_lag: u32,
    pub arena_segments: u32,
}

pub struct CollectorOut {
    /// Results per job, in receipt order.
    pub records: Vec<Vec<Rec>>,
    /// Time between consecutive sweeps: how long a result can sit in
    /// its channel before the collector stamps it.
    pub gap_us: Histogram,
    pub samples: Vec<Sample>,
    pub tracer: Tracer,
}

fn collector_loop(
    subs: Vec<OutputSubscription>,
    shared: Arc<Shared>,
    rt: Arc<Runtime>,
    server: Arc<IngestServer>,
    base: Instant,
) -> CollectorOut {
    let mut out = CollectorOut {
        records: subs.iter().map(|_| Vec::new()).collect(),
        gap_us: Histogram::new(),
        samples: Vec::new(),
        tracer: Tracer::new(base, 1 << 24),
    };
    let mut last_sweep = base.elapsed();
    let mut next_sample_us = 0u64;
    loop {
        let sweep_start = base.elapsed();
        out.gap_us
            .record(Micros((sweep_start - last_sweep).as_micros() as u64));
        last_sweep = sweep_start;
        let mut got = 0u64;
        for (ji, sub) in subs.iter().enumerate() {
            while let Ok(ev) = sub.try_recv() {
                let receipt_us = base.elapsed().as_micros() as u64;
                let stamp = ev.batch.progress.0;
                out.records[ji].push(Rec {
                    stamp,
                    receipt_us,
                    emit_us: ev.at.0,
                    fold: fold_tuples(&ev.batch.tuples),
                    tuples: ev.batch.tuples.len() as u32,
                });
                let p = &shared.progress[ji];
                p.max_stamp.fetch_max(stamp, Ordering::Relaxed);
                p.last_receipt_us.store(receipt_us, Ordering::Relaxed);
                // Release: a sender that sees the count also sees the
                // receipt time stored just before it.
                p.count.fetch_add(1, Ordering::Release);
                got += 1;
            }
        }
        if shared.tracing.load(Ordering::Relaxed) {
            let now_us = base.elapsed().as_micros() as u64;
            if got > 0 {
                let start_ns = sweep_start.as_nanos() as u64;
                out.tracer
                    .record(0, "egress.sweep", start_ns, out.tracer.now_ns(), got);
            }
            if now_us >= next_sample_us {
                next_sample_us = now_us + 1_000;
                let sent = shared.sent_frames.load(Ordering::Relaxed);
                out.samples.push(Sample {
                    queue_len: queue_len(&rt) as u32,
                    ingress_lag: sent.saturating_sub(server.frames_received()) as u32,
                    arena_segments: rt.arena_segments() as u32,
                });
            }
        }
        if got == 0 {
            if shared.stop.load(Ordering::Acquire) {
                return out;
            }
            std::thread::sleep(COLLECTOR_PARK);
        }
    }
}

/// A set-up program under test plus the generator's state against it.
pub struct Env {
    streams: Vec<Stream>,
    rt: Arc<Runtime>,
    server: Arc<IngestServer>,
    handles: Vec<JobHandle>,
    clients: Vec<IngestClient>,
    shared: Arc<Shared>,
    collector: Option<JoinHandle<CollectorOut>>,
    /// The run's clock; every µs in the harness counts from here.
    base: Instant,
    /// Zero of the runtime's own clock on the run's clock, µs
    /// (calibrated around `Runtime::start`, whose first act is to start
    /// that clock).
    rt_epoch_us: u64,
    /// Next frame number per stream.
    seqs: Vec<u64>,
    flushed: Vec<bool>,
    pending: Vec<Vec<IngestFrame>>,
    sent_frames: u64,
    /// Sender-side spans, when tracing.
    tracer: Tracer,
    tracing: bool,
    _journal: Option<TempDir>,
}

pub struct SetupOpts {
    pub seed: u64,
    pub workers: usize,
    pub fifo: bool,
}

impl Env {
    /// Everything between "process has its arguments" and "ready for the
    /// first paced send": compile the schedule, make the journal
    /// directory, start the runtime, deploy and subscribe, bind and
    /// connect, start the collector, and push a closed-loop burst
    /// through every stream so that lazily built state exists.
    pub fn setup(w: &Workload, phases: &Phases, opts: &SetupOpts, base: Instant) -> Env {
        let streams = compile_streams(w, opts.seed, phases);
        let journal = w
            .journal
            .then(|| TempDir::new("journal").expect("create the journal directory"));
        // With a core to spare, workers are pinned to the first `W`
        // allowed cores and everything else — this thread (the sender),
        // and the collector and serve-loop threads it is about to spawn,
        // which inherit its mask — to the next one. Left to float, the
        // sender is regularly woken onto a core where a worker is
        // mid-spin and waits out that worker's time slice (measured: p99
        // send lag 3.6 ms floating, well under 1 ms pinned).
        let spare_core = cameo_core::affinity::allowed_cores()
            .get(opts.workers)
            .copied();
        let mut cfg = RuntimeConfig::default()
            .with_workers(opts.workers)
            .with_pinning(spare_core.is_some());
        if opts.fifo {
            cfg = cfg.with_policy(Arc::new(FifoPolicy));
        }
        if let Some(dir) = &journal {
            // Page cache only: fsync on a shared disk is not repeatable.
            // That includes the `sync_all` a segment roll performs, so
            // one segment holds the whole run.
            cfg = cfg.with_durability(
                DurabilityConfig::new(dir.path())
                    .with_fsync(FsyncPolicy::Never)
                    .with_segment_bytes(1 << 30),
            );
        }
        let rt_epoch_us = base.elapsed().as_micros() as u64;
        let rt = Arc::new(Runtime::start(cfg));
        // Only now: the runtime sampled this thread's mask to place its
        // workers, so it must still have been the full one. Pinning is
        // one-way, which is why every set-up runs on a fresh thread.
        if let Some(core) = spare_core {
            cameo_core::affinity::pin_to_core(core);
        }
        let mut handles = Vec::new();
        let mut subs = Vec::new();
        for job in &w.jobs {
            let h = rt
                .deploy(&job.spec(), &Default::default())
                .expect("deploy benchmark job");
            subs.push(rt.subscribe(h).expect("subscribe to benchmark job"));
            handles.push(h);
        }
        let server =
            Arc::new(IngestServer::start(rt.clone(), "127.0.0.1:0").expect("bind loopback"));
        let clients: Vec<IngestClient> = (0..w.conns)
            .map(|_| IngestClient::connect(server.local_addr()).expect("connect loopback"))
            .collect();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            sent_frames: AtomicU64::new(0),
            progress: w.jobs.iter().map(|_| JobProgress::default()).collect(),
        });
        let collector = {
            let (shared, rt, server) = (shared.clone(), rt.clone(), server.clone());
            std::thread::Builder::new()
                .name("bench-collector".into())
                .spawn(move || collector_loop(subs, shared, rt, server, base))
                .expect("spawn collector")
        };
        let mut env = Env {
            seqs: vec![0; streams.len()],
            flushed: vec![false; streams.len()],
            pending: (0..w.conns).map(|_| Vec::new()).collect(),
            streams,
            rt,
            server,
            handles,
            clients,
            shared,
            collector: Some(collector),
            base,
            rt_epoch_us,
            sent_frames: 0,
            tracer: Tracer::new(base, 0),
            tracing: false,
            _journal: journal,
        };
        let burst = env.streams.iter().map(|s| s.burst).max().unwrap_or(0);
        for _ in 0..burst {
            for si in 0..env.streams.len() {
                if env.seqs[si] < env.streams[si].burst {
                    env.push(si);
                }
            }
            if env.queued() >= FLOOD_BATCH {
                env.flush();
            }
        }
        env.flush();
        assert!(
            env.settle(Duration::from_secs(30)),
            "{}: set-up burst did not drain",
            w.name
        );
        env
    }

    fn now_us(&self) -> u64 {
        self.base.elapsed().as_micros() as u64
    }

    /// Queue the next frame of stream `si` on its connection.
    fn push(&mut self, si: usize) {
        self.push_stamped(si, 0);
    }

    /// Queue the next frame of stream `si`, stamped `jump` past its own
    /// stamp (the flush frame's way of closing every open window).
    fn push_stamped(&mut self, si: usize, jump: u64) {
        let s = &self.streams[si];
        let seq = self.seqs[si];
        let stamp = s.stamp(seq) + jump;
        self.pending[s.conn].push(IngestFrame::addressed(
            self.handles[s.job],
            s.source,
            s.tuples(seq, stamp),
        ));
        self.seqs[si] = seq + 1;
    }

    /// Frames queued and not yet written.
    fn queued(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// Write everything queued, one vectored write per connection.
    fn flush(&mut self) {
        for (conn, frames) in self.pending.iter_mut().enumerate() {
            if frames.is_empty() {
                continue;
            }
            let n = frames.len() as u64;
            if self.tracing {
                let client = &mut self.clients[conn];
                self.tracer.time(0, "net.send_many", n, || {
                    client.send_many(frames).expect("write frames to loopback")
                });
            } else {
                self.clients[conn]
                    .send_many(frames)
                    .expect("write frames to loopback");
            }
            frames.clear();
            self.sent_frames += n;
        }
        self.shared
            .sent_frames
            .store(self.sent_frames, Ordering::Relaxed);
    }

    /// Frames the ingress has accounted for, whatever it did with them.
    fn ingress_seen(&self) -> u64 {
        self.server.frames_received()
            + self.server.frames_dropped()
            + self.server.gen_rejected_frames()
    }

    /// Wait until everything written has been ingested and executed and
    /// its results collected. A spin job is done when every send has
    /// its result; an aggregation is done when the queue is empty (its
    /// last windows stay open until later stamps close them). Returns
    /// false on timeout.
    fn settle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let ingested = self.ingress_seen() >= self.sent_frames;
            let spins_done = self.streams.iter().enumerate().all(|(si, s)| {
                matches!(s.kind, JobKind::Agg)
                    || self.shared.progress[s.job].count.load(Ordering::Acquire) >= self.seqs[si]
            });
            if ingested && spins_done && queue_len(&self.rt) == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        self.shared.tracing.store(on, Ordering::Relaxed);
    }

    /// Counters of the program and the kernel at one instant.
    fn mark(&self) -> Mark {
        Mark {
            wall_us: self.now_us(),
            cpu: CpuSnapshot::take(),
            frames_received: self.server.frames_received(),
            sched: self.rt.scheduler_stats(),
        }
    }

    /// The open-loop phase: walk the merged schedule in real time. When
    /// the sender is behind it sends at once and records the lag; the
    /// stamp keeps the scheduled time. A [`Mark`] is taken as the
    /// schedule crosses each of `boundaries` (µs of schedule time) and
    /// once more after the phase has drained; `trace_from` names the
    /// boundary from which the segment is traced.
    pub fn paced(&mut self, boundaries: &[u64], trace_from: Option<usize>) -> PacedOut {
        let events = send_order(&self.streams);
        let mut out = PacedOut {
            t0_us: 0,
            lag_us: boundaries.iter().map(|_| Histogram::new()).collect(),
            marks: Vec::new(),
            job_stats: Vec::new(),
            drained: true,
        };
        let mut segment = 0usize; // boundaries crossed so far
        out.t0_us = self.now_us();
        let mut i = 0usize;
        while i < events.len() {
            let (at, si) = events[i];
            let now = self.now_us() - out.t0_us;
            if now < at as u64 {
                // Nothing due: put queued frames on the wire before any
                // real sleep.
                self.flush();
                let wait = (out.t0_us + at as u64).saturating_sub(self.now_us());
                std::thread::sleep(Duration::from_micros(wait.min(1_000)));
                continue;
            }
            while segment < boundaries.len() && at as u64 >= boundaries[segment] {
                self.flush();
                out.marks.push(self.mark());
                segment += 1;
                if trace_from == Some(segment - 1) {
                    self.set_tracing(true);
                }
            }
            if segment > 0 {
                out.lag_us[segment - 1].record(Micros(now - at as u64));
            }
            self.push(si);
            i += 1;
            if self.queued() >= PACED_FLUSH {
                self.flush();
            }
        }
        self.flush();
        // The backlog (if the schedule overloaded the workers) drains
        // at the spin rate; a minute is far beyond any workload here.
        out.drained = self.settle(Duration::from_secs(60));
        // The last fan-out and the collector's next sweep.
        std::thread::sleep(Duration::from_millis(2));
        out.marks.push(self.mark());
        out.job_stats = self.job_stats();
        self.set_tracing(false);
        out
    }

    fn job_stats(&self) -> Vec<JobStatsSnapshot> {
        self.handles
            .iter()
            .map(|&h| self.rt.job_stats(h).expect("job is still deployed"))
            .collect()
    }

    /// The closed-loop phase: the same frame shapes, in the streams'
    /// steady-rate proportions, as fast as the program takes them while
    /// at most [`FLOOD_QUEUE_CAP`] units of work are outstanding; then
    /// drain. Time runs from the first write to the last result.
    pub fn flood(&mut self, flood_us: u64) -> FloodOut {
        let weights: Vec<f64> = self
            .streams
            .iter()
            .map(|s| 1.0 / s.spacing_us as f64)
            .collect();
        let total: f64 = weights.iter().sum();
        let mut credit = vec![0.0f64; weights.len()];
        let before = self.mark();
        let sent_before = self.sent_frames;
        let cap = (flood_us / 1_200).clamp(64, FLOOD_QUEUE_CAP);
        let start = Instant::now();
        while (start.elapsed().as_micros() as u64) < flood_us {
            // Both halves of the pipe: bytes still in the socket are
            // not in the scheduler's queue yet.
            let in_socket = self.sent_frames.saturating_sub(self.ingress_seen());
            if in_socket + queue_len(&self.rt) > cap {
                std::thread::sleep(Duration::from_micros(50));
                continue;
            }
            for _ in 0..FLOOD_BATCH {
                // Smooth weighted round-robin: deterministic, and every
                // stream's logical time advances at the same pace.
                let mut best = 0usize;
                for (k, w) in weights.iter().enumerate() {
                    credit[k] += w;
                    if credit[k] > credit[best] {
                        best = k;
                    }
                }
                credit[best] -= total;
                self.push(best);
            }
            self.flush();
        }
        // Close every open window: one frame per aggregation stream,
        // stamped past the last data.
        for si in 0..self.streams.len() {
            if matches!(self.streams[si].kind, JobKind::Agg) {
                self.push_stamped(si, FLUSH_JUMP);
                self.flushed[si] = true;
            }
        }
        self.flush();
        let drained = self.settle(Duration::from_secs(60)) && self.await_last_windows();
        let end_us = self
            .shared
            .progress
            .iter()
            .map(|p| p.last_receipt_us.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        let after = self.mark();
        FloodOut {
            frames: self.sent_frames - sent_before,
            elapsed_us: end_us.saturating_sub(before.wall_us).max(1),
            cpu: after.cpu.since(&before.cpu),
            wall_us: after.wall_us - before.wall_us,
            drained,
        }
    }

    /// After the flush frames: an aggregation job is done when the
    /// window holding its last data stamp has been delivered.
    fn await_last_windows(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        for ji in 0..self.handles.len() {
            // The frame before each stream's flush frame is its last data.
            let Some(last_data) = self
                .streams
                .iter()
                .enumerate()
                .filter(|(_, s)| s.job == ji && matches!(s.kind, JobKind::Agg))
                .map(|(si, s)| s.stamp(self.seqs[si] - 2))
                .max()
            else {
                continue;
            };
            let want = (last_data / AGG_WINDOW_US + 1) * AGG_WINDOW_US;
            while self.shared.progress[ji].max_stamp.load(Ordering::Relaxed) < want {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        true
    }

    /// What the sender did, per stream, for the reference computation.
    fn sent(&self) -> Vec<Sent> {
        self.seqs
            .iter()
            .zip(&self.flushed)
            .map(|(&frames, &flushed)| Sent { frames, flushed })
            .collect()
    }

    /// Stop the collector and the program; return what was collected
    /// and the program's own final counters.
    pub fn finish(mut self) -> Finished {
        self.shared.stop.store(true, Ordering::Release);
        let collected = self
            .collector
            .take()
            .expect("collector runs until finish")
            .join()
            .expect("collector thread panicked");
        let job_stats = self.job_stats();
        let finished = Finished {
            collected,
            job_stats,
            sched: self.rt.scheduler_stats(),
            frames_received: self.server.frames_received(),
            frames_dropped: self.server.frames_dropped(),
            gen_rejected: self.server.gen_rejected_frames(),
            nacks: self.server.nacks_sent() + self.server.nacks_dropped(),
            sent_frames: self.sent_frames,
            sent: self.sent(),
            streams: std::mem::take(&mut self.streams),
            tracer: std::mem::replace(&mut self.tracer, Tracer::new(self.base, 0)),
            rt_epoch_us: self.rt_epoch_us,
        };
        self.clients.clear();
        let Env { server, rt, .. } = self;
        Arc::try_unwrap(server)
            .ok()
            .expect("collector has exited, so the harness is the server's sole owner")
            .stop();
        Arc::try_unwrap(rt)
            .ok()
            .expect("server and collector have exited, so the harness is the runtime's sole owner")
            .shutdown();
        finished
    }
}

/// Program and kernel counters at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pub wall_us: u64,
    pub cpu: CpuSnapshot,
    pub frames_received: u64,
    pub sched: SchedulerStats,
}

pub struct PacedOut {
    /// Start of the schedule on the run's clock.
    pub t0_us: u64,
    /// How late the sender ran behind its own schedule, per segment
    /// (segment k starts at boundary k).
    pub lag_us: Vec<Histogram>,
    /// One mark per boundary, then one after the drain.
    pub marks: Vec<Mark>,
    /// The runtime's own per-job statistics when the phase had drained
    /// (its percentiles are cumulative, so the flood would swamp them).
    pub job_stats: Vec<JobStatsSnapshot>,
    pub drained: bool,
}

pub struct FloodOut {
    pub frames: u64,
    /// First write → last result.
    pub elapsed_us: u64,
    pub cpu: CpuSnapshot,
    pub wall_us: u64,
    pub drained: bool,
}

impl FloodOut {
    /// Frames completed per second, first write → last result.
    pub fn fps(&self) -> f64 {
        self.frames as f64 * 1e6 / self.elapsed_us as f64
    }
}

pub struct Finished {
    pub collected: CollectorOut,
    pub job_stats: Vec<JobStatsSnapshot>,
    pub sched: SchedulerStats,
    pub frames_received: u64,
    pub frames_dropped: u64,
    pub gen_rejected: u64,
    pub nacks: u64,
    pub sent_frames: u64,
    pub sent: Vec<Sent>,
    pub streams: Vec<Stream>,
    pub tracer: Tracer,
    pub rt_epoch_us: u64,
}
