//! Staged per-layer replays: the first frames of the run's own schedule
//! pushed through each layer's public API, one layer at a time, one
//! span per 64-frame chunk. Each layer is measured from outside; where
//! one stage contains another (loopback ⊃ decode + ingest), the README
//! gives the subtraction that yields its self time.

use crate::harness::TempDir;
use crate::trace::Tracer;
use crate::workload::{send_order, JobKind, Stream, Workload, AGG_KEYS, AGG_WINDOW_US};
use cameo_core::config::SchedulerConfig;
use cameo_core::ids::{JobId, OperatorKey};
use cameo_core::mailbox::Mailbox;
use cameo_core::policy::{ConverterState, HopInfo, LlfPolicy, MessageStamp, Policy};
use cameo_core::priority::Priority;
use cameo_core::progress::TimeDomain;
use cameo_core::queue::TwoLevelQueue;
use cameo_core::scheduler::Decision;
use cameo_core::shard::ShardedScheduler;
use cameo_core::time::{Clock, LogicalTime, Micros, PhysicalTime, SystemClock};
use cameo_core::transform::Slide;
use cameo_dataflow::event::Batch;
use cameo_dataflow::expand::{route_batch, ExpandOptions, OutRoute};
use cameo_dataflow::graph::Routing;
use cameo_dataflow::operator::Operator;
use cameo_dataflow::ops::{Aggregation, WindowAggregate};
use cameo_dataflow::window::WindowSpec;
use cameo_runtime::durability::{DurabilityConfig, FsyncPolicy, SpecRegistry};
use cameo_runtime::msg::FrameDecoder;
use cameo_runtime::net::{IngestClient, IngestFrame, IngestServer};
use cameo_runtime::runtime::{JobHandle, Runtime, RuntimeConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames per span.
const CHUNK: usize = 64;
/// Messages per span in the scheduler-layer stages: 64 frames of the
/// firehose expand to about this many.
const MSG_CHUNK: usize = 256;

/// Nanoseconds per unit of work of every staged layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Staged {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub loopback_ns_per_frame: f64,
    pub ingest_ns_per_frame: f64,
    pub msgs_per_frame: f64,
    pub journal_ns_per_frame: f64,
    pub journal_bytes_per_frame: f64,
    pub recover_ms_per_100k_frames: f64,
    pub submit_ns_per_msg: f64,
    pub submit_batch_ns_per_msg: f64,
    pub lease_cycle_ns_per_msg: f64,
    pub mailbox_ns_per_msg: f64,
    pub queue_ns_per_msg: f64,
    pub policy_ns_per_msg: f64,
    pub window_agg_ns_per_tuple: f64,
    pub route_batch_ns_per_tuple: f64,
}

/// A runtime that only queues: `with_workers` refuses zero, the struct
/// literal is the documented way.
fn queue_only(journal: Option<&TempDir>) -> RuntimeConfig {
    RuntimeConfig {
        workers: 0,
        durability: journal.map(|d| DurabilityConfig::new(d.path()).with_fsync(FsyncPolicy::Never)),
        ..RuntimeConfig::default()
    }
}

fn deploy_all(rt: &Runtime, w: &Workload) -> Vec<JobHandle> {
    w.jobs
        .iter()
        .map(|j| {
            rt.deploy(&j.spec(), &ExpandOptions::default())
                .expect("deploy benchmark job")
        })
        .collect()
}

/// The first `n` paced frames of the schedule, in send order, addressed
/// to `handles`.
fn frames(streams: &[Stream], handles: &[JobHandle], n: usize) -> Vec<IngestFrame> {
    let mut seqs: Vec<u64> = streams.iter().map(|s| s.burst).collect();
    send_order(streams)
        .into_iter()
        .take(n)
        .map(|(_, si)| {
            let s = &streams[si];
            let seq = seqs[si];
            seqs[si] += 1;
            IngestFrame::addressed(handles[s.job], s.source, s.tuples(seq, s.stamp(seq)))
        })
        .collect()
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Run every stage. `frames_wire` bounds the stages that keep nothing
/// queued (encode, decode, operators); `frames_queued` bounds those
/// that fill a worker-less runtime, whose queue only grows.
pub fn run(
    w: &Workload,
    streams: &[Stream],
    workers: usize,
    frames_wire: usize,
    frames_queued: usize,
    t: &mut Tracer,
) -> Staged {
    let mut out = Staged::default();

    // ── msg: encode, then decode the same bytes through 64 KiB reads ──
    let wire = {
        let rt = Runtime::start(queue_only(None));
        let handles = deploy_all(&rt, w);
        let all = frames(streams, &handles, frames_wire);
        let mut wire: Vec<u8> = Vec::new();
        for chunk in all.chunks(CHUNK) {
            t.time(0, "msg.encode", chunk.len() as u64, || {
                for f in chunk {
                    f.encode_into(&mut wire);
                }
            });
        }
        wire
    };
    out.encode_ns_per_frame = t.ns_per("msg.encode");
    {
        let mut dec = FrameDecoder::new();
        let mut src: &[u8] = &wire;
        let mut decoded: Vec<IngestFrame> = Vec::new();
        while !src.is_empty() {
            let start = t.now_ns();
            dec.fill(&mut src).expect("in-memory read");
            dec.decode_available(&mut decoded)
                .expect("own frames decode");
            let end = t.now_ns();
            t.record(0, "msg.decode", start, end, decoded.len() as u64);
            black_box(&decoded);
            decoded.clear();
        }
    }
    out.decode_ns_per_frame = t.ns_per("msg.decode");
    drop(wire);

    // ── net: loopback into a runtime that only queues ──
    {
        let rt = Arc::new(Runtime::start(queue_only(None)));
        let handles = deploy_all(&rt, w);
        let all = frames(streams, &handles, frames_queued);
        let server = IngestServer::start(rt.clone(), "127.0.0.1:0").expect("bind loopback");
        let mut client = IngestClient::connect(server.local_addr()).expect("connect loopback");
        let open = t.open();
        for chunk in all.chunks(CHUNK) {
            t.time(open.0, "net.send_many", chunk.len() as u64, || {
                client.send_many(chunk).expect("write frames to loopback")
            });
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.frames_received() < all.len() as u64 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        t.close(open, 0, "net.loopback", server.frames_received());
        drop(client);
        server.stop();
    }
    out.loopback_ns_per_frame = t.ns_per("net.loopback");

    // ── ingest: route + submit, without and with the journal ──
    let ingest = |t: &mut Tracer, name: &'static str, journal: Option<&TempDir>| -> f64 {
        let rt = Runtime::start(queue_only(journal));
        let handles = deploy_all(&rt, w);
        let all = frames(streams, &handles, frames_queued);
        let (mut msgs, mut n) = (0usize, 0usize);
        let mut it = all.into_iter().peekable();
        while it.peek().is_some() {
            let chunk: Vec<IngestFrame> = it.by_ref().take(CHUNK).collect();
            let len = chunk.len() as u64;
            let outcome = t.time(0, name, len, || rt.ingest_frames(chunk));
            msgs += outcome.messages;
            n += outcome.frames;
        }
        rt.shutdown();
        msgs as f64 / n.max(1) as f64
    };
    out.msgs_per_frame = ingest(t, "ingest.route_submit", None);
    out.ingest_ns_per_frame = t.ns_per("ingest.route_submit");
    {
        let dir = TempDir::new("staged-journal").expect("create the staged journal directory");
        ingest(t, "ingest.route_submit_journaled", Some(&dir));
        out.journal_ns_per_frame =
            t.ns_per("ingest.route_submit_journaled") - out.ingest_ns_per_frame;
        out.journal_bytes_per_frame = dir_bytes(dir.path()) as f64 / frames_queued.max(1) as f64;
        // ── recover: replay that journal into a fresh runtime ──
        let mut registry = SpecRegistry::new();
        for j in &w.jobs {
            registry.register(j.spec(), ExpandOptions::default());
        }
        let (rt, report) = t.time(0, "recover.replay", frames_queued as u64, || {
            Runtime::recover(queue_only(Some(&dir)), &registry).expect("recover own journal")
        });
        out.recover_ms_per_100k_frames = t.ns_per("recover.replay") * 100_000.0 / 1e6
            * frames_queued as f64
            / report.frames_replayed.max(1) as f64;
        rt.shutdown();
    }

    // ── shard / mailbox / queue: bare structures, u64 messages ──
    let ops: u32 = w
        .jobs
        .iter()
        .map(|j| {
            let spec = j.spec();
            let ingest: u32 = spec
                .stages
                .iter()
                .filter(|s| s.is_ingest())
                .map(|s| s.parallelism)
                .sum();
            spec.total_instances() - ingest
        })
        .sum();
    let key = |i: usize| OperatorKey::new(JobId(0), (i as u32) % ops.max(1));
    let pri = |i: usize| Priority::new(i as i64, i as i64);
    let n_msgs = frames_wire * 2;
    {
        let sched: ShardedScheduler<u64> =
            ShardedScheduler::new(SchedulerConfig::default().with_shards(workers));
        let clock = SystemClock::new();
        let drain = |t: &mut Tracer, name: Option<&'static str>| {
            let start = t.now_ns();
            let mut n = 0u64;
            while let Some(exec) = sched.acquire(0, clock.now()) {
                loop {
                    let Some(m) = sched.take_message(&exec) else {
                        sched.release(exec);
                        break;
                    };
                    black_box(m);
                    n += 1;
                    if sched.decide(&exec, clock.now()) != Decision::Continue {
                        sched.release(exec);
                        break;
                    }
                }
            }
            let end = t.now_ns();
            if let Some(name) = name {
                t.record(0, name, start, end, n);
            }
        };
        for base in (0..n_msgs).step_by(MSG_CHUNK) {
            t.time(0, "shard.submit", MSG_CHUNK as u64, || {
                for i in base..base + MSG_CHUNK {
                    sched.submit(key(i), i as u64, pri(i));
                }
            });
            // Leases run over a backlog of one chunk, as they do live.
            drain(t, Some("shard.lease_cycle"));
        }
        for base in (0..n_msgs).step_by(MSG_CHUNK) {
            t.time(0, "shard.submit_batch", MSG_CHUNK as u64, || {
                sched.submit_batch((base..base + MSG_CHUNK).map(|i| (key(i), i as u64, pri(i))))
            });
            drain(t, None);
        }
    }
    out.submit_ns_per_msg = t.ns_per("shard.submit");
    out.lease_cycle_ns_per_msg = t.ns_per("shard.lease_cycle");
    out.submit_batch_ns_per_msg = t.ns_per("shard.submit_batch");
    {
        let mb: Mailbox<u64> = Mailbox::new();
        for base in (0..n_msgs).step_by(MSG_CHUNK) {
            t.time(0, "mailbox.publish_drain", MSG_CHUNK as u64, || {
                mb.push_chain((base..base + MSG_CHUNK).map(|i| (key(i), i as u64, pri(i))));
                mb.drain(|m| {
                    black_box(m.msg);
                })
            });
        }
    }
    out.mailbox_ns_per_msg = t.ns_per("mailbox.publish_drain");
    {
        let mut q: TwoLevelQueue<u64> = TwoLevelQueue::new();
        for base in (0..n_msgs).step_by(MSG_CHUNK) {
            t.time(0, "queue.push_pop", MSG_CHUNK as u64, || {
                for i in base..base + MSG_CHUNK {
                    q.push(key(i), i as u64, pri(i));
                }
                while let Some(lease) = q.pop_operator() {
                    while let Some(m) = q.next_message(&lease) {
                        black_box(m);
                    }
                    q.check_in(lease);
                }
            });
        }
    }
    out.queue_ns_per_msg = t.ns_per("queue.push_pop");

    // ── policy: the two context conversions a message pays ──
    {
        let mut st = ConverterState::new(OperatorKey::new(JobId(0), 0), TimeDomain::EventTime);
        let hop = HopInfo {
            edge: 0,
            sender_slide: Slide::UNIT,
            target_slide: Slide(AGG_WINDOW_US),
        };
        for base in (0..n_msgs).step_by(MSG_CHUNK) {
            t.time(0, "policy.convert", 2 * MSG_CHUNK as u64, || {
                for i in base..base + MSG_CHUNK {
                    let stamp = MessageStamp {
                        progress: LogicalTime(1 + 33 * i as u64),
                        time: PhysicalTime(40 + 33 * i as u64),
                    };
                    let up =
                        LlfPolicy.build_at_source(JobId(0), stamp, Micros(20_000), &hop, &mut st);
                    black_box(LlfPolicy.build_at_operator(&up, stamp, &hop, &mut st));
                }
            });
        }
    }
    out.policy_ns_per_msg = t.ns_per("policy.convert");

    // ── ops: the windowed aggregate and the partitioner, on the run's
    //    own tuples (one stream, so stamps arrive in order) ──
    {
        let s = &streams[0];
        let batches: Vec<Batch> = (0..frames_wire.min(s.at_us.len()) as u64)
            .map(|p| {
                let stamp = s.stamp(s.burst + p);
                let mut tuples = s.tuples(s.burst + p, stamp);
                if matches!(s.kind, JobKind::Agg) {
                    for tu in &mut tuples {
                        tu.key %= AGG_KEYS;
                    }
                }
                Batch::new(tuples, PhysicalTime(stamp))
            })
            .collect();
        let mut agg =
            WindowAggregate::new(WindowSpec::tumbling(AGG_WINDOW_US), Aggregation::Sum, 1);
        let route = OutRoute {
            edge: 0,
            routing: Routing::Partition,
            hop: HopInfo::regular(0),
            targets: vec![(0, 0), (1, 0)],
        };
        let mut fired: Vec<Batch> = Vec::new();
        for chunk in batches.chunks(CHUNK) {
            let tuples: u64 = chunk.iter().map(|b| b.len() as u64).sum();
            t.time(0, "ops.window_agg", tuples, || {
                for b in chunk {
                    agg.on_batch(0, b, b.time, &mut fired);
                }
            });
            black_box(&fired);
            fired.clear();
            t.time(0, "ops.route_batch", tuples, || {
                for b in chunk {
                    black_box(route_batch(&route, b));
                }
            });
        }
    }
    out.window_agg_ns_per_tuple = t.ns_per("ops.window_agg");
    out.route_batch_ns_per_tuple = t.ns_per("ops.route_batch");
    out
}
