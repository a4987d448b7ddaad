//! Contended scheduler throughput plus single-threaded submit overhead,
//! swept over scheduler configuration × worker threads.
//!
//! Two experiments in one artifact:
//!
//! 1. **Closed-loop throughput** (`cells`): messages/second of
//!    submit → acquire → drain → release cycles. The baseline (`mutex`)
//!    is the pre-sharding hot path verbatim: one `Mutex<CameoScheduler>`
//!    that every worker locks for every submit, acquire, take and
//!    release. The `mailbox-N` rows run the sharded scheduler's
//!    lock-free ingress one `submit` per message (mailbox CAS + hint
//!    CAS, drains fold the mailbox in at lease boundaries), the
//!    `batched-N` rows the same ingress one `submit_batch` per burst.
//! 2. **Submit overhead** (`submit_ns`): single-threaded nanoseconds
//!    per `submit` for the bare (unlocked) `CameoScheduler` vs the
//!    sharded scheduler's mailbox ingress, measured on submit-only
//!    bursts with the drain untimed. `overhead_ns_mailbox` = mailbox
//!    minus bare. The mailbox is *arena-backed* (no `Box` per push), so
//!    its number is the one the zero-allocation-ingress work targets:
//!    at or below the PR 2 boxed-mailbox figure. `batch64` times
//!    `ShardedScheduler::submit_batch` with 64-message batches — one
//!    publish CAS + one hint + one wake for the whole batch — and must
//!    stay under 8× a single submit.
//!
//! Each closed-loop worker owns a disjoint set of operators placed on
//! its home shard (the runtime's steady state). A cycle submits a burst
//! of `BURST` messages across its operators, then acquires and drains
//! until its backlog is gone — the cadence of the real worker loop.
//!
//! 3. **Network ingest** (`net_ingest`): closed-loop loopback TCP — a
//!    client writes a burst of `frames_per_read` frames with one
//!    syscall, the serve loop decodes the whole read and submits it as
//!    one scheduler batch (`Runtime::ingest_frames`), and the client
//!    waits for the server's frame counter before the next burst. The
//!    runtime runs **zero workers**, so the cell isolates the wire
//!    path itself (read + streaming decode + route + `submit_batch`)
//!    from operator execution. Swept at 1/8/64 frames per read:
//!    coalescing amortizes the syscall, the batch routing and the
//!    per-shard mailbox publication, so ns/msg at 64 must sit strictly
//!    below the 1-frame cell.
//!
//! 4. **Job churn** (`job_churn`): deploy → ingest → drain → undeploy
//!    → redeploy cycles on a live 2-worker runtime. Proves the
//!    lifecycle control plane leaks no scheduler state: after N full
//!    cycles the queue is empty, the slot was reused every cycle, and
//!    the artifact records what retirement purged. The per-cycle cost
//!    is the control-plane overhead a multi-tenant operator pays for
//!    tenant arrival/departure (PAPER §6, Fig 8's dynamic workload).
//!
//! 5. **Connection sweep** (`conn_sweep`): the C100K shape of the
//!    sharded epoll ingress plane. A child process (own fd table)
//!    opens 16 → 1k → 10k loopback connections and blasts a fixed
//!    total frame budget across them; the parent times the barrage
//!    against its zero-worker runtime. The full sweep crosses each
//!    connection count with 1, 2 and 4 serve loops
//!    (`IngestServerConfig::with_loops`); `--quick` runs 16 conns on
//!    1 loop and 256 on 2. Each cell records the process's OS thread
//!    count while every connection is live — asserted equal to
//!    `base + (loops - 1)` (1 accept + N loops, O(1) in `conns`) —
//!    plus RSS, total and **per-loop** readiness bursts (the shard
//!    skew view) and the connection high-water mark, and cross-checks
//!    that the per-loop counters sum exactly to the handle totals.
//!    Before teardown every cell sends one frame stamped with a stale
//!    `JobHandle` generation and asserts the server rejected and
//!    counted it without routing it (`gen_rejected_frames`). On a
//!    1-CPU host the loops>1 cells measure sharding *overhead*, not
//!    speedup — the loops share one core; see docs/BENCH.md.
//!
//! 6. **Elastic load step** (`elastic_step`): quiet → step+spike →
//!    quiet against a live runtime whose elastic controller may scale
//!    between 1 and 4 workers. Arrivals are **open-loop** seeded
//!    Poisson schedules — fixed before the run, never adjusted to
//!    backpressure — and latency is captured coordinated-omission-safe:
//!    tuples carry their *scheduled* send time and a subscriber thread
//!    timestamps receipt, so a sender falling behind its own schedule
//!    inflates rather than hides queueing delay. The spike opens with
//!    one coalesced `ingest_frames` chain (the step proper), which
//!    both overloads the single starting worker and pushes the mailbox
//!    arena past one segment. Asserted in-binary (CI runs this under
//!    `--quick`): the spike misses deadlines, the controller grows the
//!    pool, the post-recovery quiet phase's miss rate sits below the
//!    spike's, and on quiescence the pool shrinks back and arena
//!    segment count returns to its pre-spike baseline.
//!
//! 7. **Recovery** (`recovery`): the durability subsystem's two cost
//!    axes. *Journal append*: single-threaded ns per `ingest_frames`
//!    call on a zero-worker runtime, swept over durability off (twice,
//!    interleaved — the pair bounds run-to-run noise; the cells are
//!    measured up to three times until the two agree within that
//!    bound, `recovery.noise_ok` records whether they did, and the run
//!    exits non-zero after writing the artifact when they did not, so a
//!    journal-off runtime demonstrably pays nothing for the feature)
//!    and the three fsync policies (`Never`, `Interval(5ms)`,
//!    `PerBatch`). *Recovery wall-time*: journal-only recoveries
//!    (`Runtime::recover`) timed against journals of increasing frame
//!    counts, each cell asserting every journaled frame was replayed
//!    with no torn bytes.
//!
//! Output: a table on stdout and `BENCH_sharded_scheduler.json` in the
//! current directory, so later PRs have a perf trajectory to compare
//! against. The artifact records the CPU count and whether workers were
//! core-pinned: on a single-core container the no-contention ceiling at
//! W workers is the single-worker rate, so speedups there measure
//! *contention tax removed* (lock handoffs, futex sleeps), not parallel
//! scaling, and pinning is a no-op. Per-cell `node_reuse` /
//! `node_alloc_fallback` counters audit the zero-allocation claim from
//! the artifact alone. Pass `--quick` for a CI smoke run (seconds),
//! `--full` for longer measurement windows, `--pin` to
//! `sched_setaffinity` each closed-loop worker to core `w % cpus`,
//! `--out PATH` to redirect the artifact.

use cameo_bench::BenchArgs;
use cameo_core::config::SchedulerConfig;
use cameo_core::ids::{JobId, OperatorKey};
use cameo_core::priority::Priority;
use cameo_core::scheduler::CameoScheduler;
use cameo_core::shard::ShardedScheduler;
use cameo_core::time::{Micros, PhysicalTime};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Operators per worker; enough that leases rotate across operators.
const OPS_PER_WORKER: u32 = 32;
/// Messages submitted per closed-loop cycle before draining.
const BURST: u64 = 4;
/// Submit-only burst length for the overhead measurement (long enough
/// to amortize the two `Instant::now` calls around it).
const SUBMIT_BURST: u64 = 64;

struct Cell {
    config: String,
    shards: usize,
    workers: usize,
    msgs_per_sec: f64,
    steals: u64,
    mailbox_drained: u64,
    node_reuse: u64,
    node_alloc_fallback: u64,
}

/// How the closed-loop workers submit their bursts.
#[derive(Clone, Copy, PartialEq)]
enum Ingress {
    /// Lock-free arena-backed mailbox, one submit per message.
    Mailbox,
    /// Lock-free mailbox via `submit_batch`: the whole burst goes in
    /// with one CAS + one hint + one wake per shard.
    Batched,
}

impl Ingress {
    fn label(self) -> &'static str {
        match self {
            Ingress::Mailbox => "mailbox",
            Ingress::Batched => "batched",
        }
    }
}

/// Operator keys whose shard is `shard` (the runtime reaches this state
/// naturally; the bench constructs it directly so every worker's home
/// shard holds its operators).
fn keys_on_shard(sched: &ShardedScheduler<u64>, shard: usize, count: u32) -> Vec<OperatorKey> {
    let mut keys = Vec::with_capacity(count as usize);
    let mut op = 0u32;
    while keys.len() < count as usize {
        let key = OperatorKey::new(JobId(shard as u32), op);
        if sched.shard_of(key) == shard {
            keys.push(key);
        }
        op += 1;
    }
    keys
}

/// Spawn `workers` closed-loop threads running `body(worker) -> processed`
/// for `measure`, returning total messages/sec and elapsed-normalized
/// throughput.
fn run_workers<F>(
    workers: usize,
    measure: Duration,
    stop: Arc<AtomicBool>,
    pin: bool,
    body: F,
) -> f64
where
    F: Fn(usize, &AtomicBool) -> u64 + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let start = Arc::new(Barrier::new(workers + 1));
    let done = Arc::new(AtomicU64::new(0));
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Same worker→core map as the runtime's pinning: round-robin
    // within the startup affinity mask, falling back to `w % cpus`
    // when the mask is unreadable.
    let allowed = Arc::new(if pin {
        cameo_core::affinity::allowed_cores()
    } else {
        Vec::new()
    });
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let body = body.clone();
            let stop = stop.clone();
            let start = start.clone();
            let done = done.clone();
            let allowed = allowed.clone();
            std::thread::spawn(move || {
                if pin {
                    let core = allowed
                        .get(w % allowed.len().max(1))
                        .copied()
                        .unwrap_or(w % cpus);
                    let _ = cameo_core::affinity::pin_to_core(core);
                }
                start.wait();
                let processed = body(w, &stop);
                done.fetch_add(processed, Ordering::Relaxed);
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    std::thread::sleep(measure);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("bench worker");
    }
    done.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64()
}

/// The pre-sharding hot path: one global mutex around the scheduler,
/// locked once per submit / take / lease transition (exactly the old
/// runtime's cadence).
fn run_mutex_baseline(workers: usize, measure: Duration, pin: bool) -> Cell {
    let sched: Arc<Mutex<CameoScheduler<u64>>> = Arc::new(Mutex::new(CameoScheduler::new(
        SchedulerConfig::default().with_quantum(Micros::from_millis(1)),
    )));
    let stop = Arc::new(AtomicBool::new(false));
    let rate = run_workers(workers, measure, stop, pin, {
        let sched = sched.clone();
        move |w, stop| {
            let keys: Vec<OperatorKey> = (0..OPS_PER_WORKER)
                .map(|op| OperatorKey::new(JobId(w as u32), op))
                .collect();
            let mut i = 0u64;
            let mut processed = 0u64;
            let mut backlog = 0u64;
            while !stop.load(Ordering::Relaxed) || backlog > 0 {
                if !stop.load(Ordering::Relaxed) {
                    for _ in 0..BURST {
                        i += 1;
                        let key = keys[(i % keys.len() as u64) as usize];
                        sched
                            .lock()
                            .unwrap()
                            .submit(key, i, Priority::new(0, i as i64));
                        backlog += 1;
                    }
                }
                while backlog > 0 {
                    let exec = sched.lock().unwrap().acquire(PhysicalTime(i));
                    let Some(exec) = exec else { break };
                    while sched.lock().unwrap().take_message(&exec).is_some() {
                        processed += 1;
                        // A sibling may have drained some of this
                        // worker's messages (one shared queue), so the
                        // counter is a heuristic, not an invariant.
                        backlog = backlog.saturating_sub(1);
                    }
                    sched.lock().unwrap().release(exec);
                }
                if stop.load(Ordering::Relaxed) && sched.lock().unwrap().is_empty() {
                    break;
                }
            }
            processed
        }
    });
    Cell {
        config: "mutex".into(),
        shards: 1,
        workers,
        msgs_per_sec: rate,
        steals: 0,
        mailbox_drained: 0,
        node_reuse: 0,
        node_alloc_fallback: 0,
    }
}

fn run_sharded(
    shards: usize,
    workers: usize,
    measure: Duration,
    ingress: Ingress,
    pin: bool,
) -> Cell {
    let sched: Arc<ShardedScheduler<u64>> = Arc::new(ShardedScheduler::new(
        SchedulerConfig::default()
            .with_shards(shards)
            .with_quantum(Micros::from_millis(1)),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let rate = run_workers(workers, measure, stop, pin, {
        let sched = sched.clone();
        move |w, stop| {
            let home = w % shards;
            let keys = keys_on_shard(&sched, home, OPS_PER_WORKER);
            let mut i = 0u64;
            let mut processed = 0u64;
            let mut backlog = 0u64;
            while !stop.load(Ordering::Relaxed) || backlog > 0 {
                if !stop.load(Ordering::Relaxed) {
                    if ingress == Ingress::Batched {
                        let base = i;
                        sched.submit_batch((0..BURST).map(|b| {
                            let n = base + b + 1;
                            let key = keys[(n % keys.len() as u64) as usize];
                            (key, n, Priority::new(0, n as i64))
                        }));
                        i += BURST;
                        backlog += BURST;
                    } else {
                        for _ in 0..BURST {
                            i += 1;
                            let key = keys[(i % keys.len() as u64) as usize];
                            sched.submit(key, i, Priority::new(0, i as i64));
                            backlog += 1;
                        }
                    }
                }
                while backlog > 0 {
                    let Some(exec) = sched.acquire(home, PhysicalTime(i)) else {
                        // Backlog may have been stolen by a sibling.
                        break;
                    };
                    while sched.take_message(&exec).is_some() {
                        processed += 1;
                        backlog = backlog.saturating_sub(1);
                    }
                    sched.release(exec);
                }
                if stop.load(Ordering::Relaxed) && sched.is_empty() {
                    break;
                }
            }
            processed
        }
    });
    let stats = sched.stats();
    Cell {
        config: format!("{}-{shards}", ingress.label()),
        shards,
        workers,
        msgs_per_sec: rate,
        steals: stats.steals,
        mailbox_drained: stats.mailbox_drained,
        node_reuse: stats.node_reuse_hits,
        node_alloc_fallback: stats.node_alloc_fallback,
    }
}

/// Single-threaded submit cost: time bursts of `SUBMIT_BURST` submits,
/// drain untimed, until `measure` of *timed* submit work accumulates.
/// Returns ns per submit.
fn submit_ns<Su, Dr>(measure: Duration, mut submit: Su, mut drain: Dr) -> f64
where
    Su: FnMut(OperatorKey, u64, Priority),
    Dr: FnMut(),
{
    let keys: Vec<OperatorKey> = (0..OPS_PER_WORKER)
        .map(|op| OperatorKey::new(JobId(0), op))
        .collect();
    let mut i = 0u64;
    let mut timed = Duration::ZERO;
    let mut submits = 0u64;
    while timed < measure {
        let t0 = Instant::now();
        for _ in 0..SUBMIT_BURST {
            i += 1;
            let key = keys[(i % keys.len() as u64) as usize];
            submit(key, i, Priority::new(0, i as i64));
        }
        timed += t0.elapsed();
        submits += SUBMIT_BURST;
        drain();
    }
    timed.as_nanos() as f64 / submits as f64
}

struct SubmitCosts {
    bare_ns: f64,
    mailbox_ns: f64,
    /// ns per whole 64-message `submit_batch` call (single shard).
    batch64_ns: f64,
}

fn measure_submit_costs(measure: Duration) -> SubmitCosts {
    let quantum = Micros::from_millis(1);
    // Bare scheduler: no lock at all — the floor every path is charged
    // against.
    let bare = std::cell::RefCell::new(CameoScheduler::<u64>::new(
        SchedulerConfig::default().with_quantum(quantum),
    ));
    let bare_ns = submit_ns(
        measure,
        |k, m, p| {
            bare.borrow_mut().submit(k, m, p);
        },
        || {
            let mut s = bare.borrow_mut();
            while let Some(exec) = s.acquire(PhysicalTime::ZERO) {
                while s.take_message(&exec).is_some() {}
                s.release(exec);
            }
        },
    );
    let sharded = || ShardedScheduler::<u64>::new(SchedulerConfig::default().with_quantum(quantum));
    let mailbox_ns = {
        let s = sharded();
        submit_ns(
            measure,
            |k, m, p| {
                s.submit(k, m, p);
            },
            || {
                while let Some(exec) = s.acquire(0, PhysicalTime::ZERO) {
                    while s.take_message(&exec).is_some() {}
                    s.release(exec);
                }
            },
        )
    };
    // Batched submission: time whole 64-message `submit_batch` calls
    // (item-vector construction untimed; several batches per clock
    // pair, mirroring how the single-submit loop amortizes its timer
    // over a burst), drain untimed so recycled nodes feed the next
    // round — the steady state of `ingest_batch`.
    let batch64_ns = {
        const BATCHES_PER_ROUND: usize = 2;
        let s = sharded();
        let keys: Vec<OperatorKey> = (0..OPS_PER_WORKER)
            .map(|op| OperatorKey::new(JobId(0), op))
            .collect();
        let mut i = 0u64;
        let mut timed = Duration::ZERO;
        let mut batches = 0u64;
        while timed < measure {
            let rounds: Vec<Vec<(OperatorKey, u64, Priority)>> = (0..BATCHES_PER_ROUND)
                .map(|_| {
                    (0..SUBMIT_BURST)
                        .map(|_| {
                            i += 1;
                            let key = keys[(i % keys.len() as u64) as usize];
                            (key, i, Priority::new(0, i as i64))
                        })
                        .collect()
                })
                .collect();
            let t0 = Instant::now();
            for items in rounds {
                s.submit_batch(items);
            }
            timed += t0.elapsed();
            batches += BATCHES_PER_ROUND as u64;
            while let Some(exec) = s.acquire(0, PhysicalTime::ZERO) {
                while s.take_message(&exec).is_some() {}
                s.release(exec);
            }
        }
        timed.as_nanos() as f64 / batches as f64
    };
    SubmitCosts {
        bare_ns,
        mailbox_ns,
        batch64_ns,
    }
}

/// One loopback network-ingest cell; see the module docs (experiment 3).
struct NetCell {
    frames_per_read: usize,
    tuples_per_frame: usize,
    /// Frames the closed loop pushed end to end.
    frames: u64,
    /// Scheduler messages those frames expanded into.
    msgs: u64,
    ns_per_frame: f64,
    ns_per_msg: f64,
    /// `ingest_frames` calls that landed (≈ socket reads with data).
    net_batches: u64,
    frames_coalesced: u64,
    /// Chain publications — at most `net_batches × shards`.
    batch_publications: u64,
    /// `epoll_wait` returns that reported at least one ready fd.
    readiness_bursts: u64,
    /// High-water mark of concurrently open ingest connections.
    conns_peak: u64,
    /// Frames refused by the v2 generation check (should be 0 here).
    gen_rejected: u64,
}

fn run_net_ingest(frames_per_read: usize, measure: Duration) -> NetCell {
    use cameo_dataflow::queries::AggQueryParams;
    use cameo_runtime::prelude::*;

    const TUPLES: usize = 8;
    /// Frame budget: with zero workers nothing drains, so bound the
    /// queue (and the arena) well under the indexed node capacity.
    const FRAME_BUDGET: u64 = 60_000;

    // Zero workers: submissions accumulate, nothing competes for the
    // CPU, and the cell times exactly read + decode + route + submit.
    let rt = std::sync::Arc::new(Runtime::start(cameo_runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    let spec = cameo_dataflow::queries::agg_query(
        &AggQueryParams::new(
            "net-bench",
            1_000_000,
            cameo_core::time::Micros::from_millis(800),
        )
        .with_sources(1)
        .with_parallelism(1)
        .with_keys(8),
    );
    let job = rt.deploy(&spec, &Default::default()).expect("deploy");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut client = IngestClient::connect(server.local_addr()).expect("connect loopback");
    let burst: Vec<IngestFrame> = (0..frames_per_read)
        .map(|f| {
            IngestFrame::addressed(
                job,
                0,
                (0..TUPLES as u64)
                    .map(|i| {
                        cameo_dataflow::event::Tuple::new(
                            i % 8,
                            1,
                            cameo_core::time::LogicalTime(1 + f as u64 * TUPLES as u64 + i),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let mut sent = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < measure && sent < FRAME_BUDGET {
        client.send_many(&burst).expect("burst write");
        sent += frames_per_read as u64;
        // Closed loop: the next burst leaves only after the server has
        // decoded and submitted this one. Bounded, so a dropped
        // connection fails the (CI-run) bench loudly instead of
        // spinning forever.
        let stall = Instant::now() + Duration::from_secs(10);
        while server.frames_received() < sent {
            assert!(
                Instant::now() < stall,
                "net_ingest stalled: {}/{} frames acked",
                server.frames_received(),
                sent
            );
            std::thread::yield_now();
        }
    }
    let elapsed = t0.elapsed();
    drop(client);
    let stats = rt.scheduler_stats();
    let msgs = rt.queue_len() as u64;
    let readiness_bursts = server.readiness_bursts();
    let conns_peak = server.conns_peak();
    let gen_rejected = server.gen_rejected_frames();
    server.stop();
    std::sync::Arc::try_unwrap(rt)
        .ok()
        .expect("sole runtime owner")
        .shutdown();
    NetCell {
        frames_per_read,
        tuples_per_frame: TUPLES,
        frames: sent,
        msgs,
        ns_per_frame: elapsed.as_nanos() as f64 / sent as f64,
        ns_per_msg: elapsed.as_nanos() as f64 / msgs.max(1) as f64,
        net_batches: stats.net_batches,
        frames_coalesced: stats.frames_coalesced,
        batch_publications: stats.batch_publications,
        readiness_bursts,
        conns_peak,
        gen_rejected,
    }
}

/// One connection-sweep cell; see the module docs (experiment 5).
struct ConnCell {
    conns: usize,
    /// Serve loops the ingress plane was sharded across
    /// (`IngestServerConfig::with_loops`).
    loops: usize,
    frames_per_burst: usize,
    /// Frames every connection pushed (budget / conns, burst-aligned).
    frames: u64,
    msgs: u64,
    ns_per_frame: f64,
    ns_per_msg: f64,
    /// OS threads in this process while all `conns` were live — the
    /// sweep asserts this is `base + (loops - 1)` at every connection
    /// count: 1 accept thread + `loops` serve loops, O(1) in `conns`.
    threads: usize,
    /// Resident set (KiB) right after the barrage, connections open.
    rss_kb: u64,
    readiness_bursts: u64,
    /// Per-loop readiness-burst counts (`IngestServer::loop_stats`),
    /// the skew view behind the `readiness_bursts` total.
    loop_bursts: Vec<u64>,
    conns_peak: u64,
    /// Stale-generation probe frames the server refused (≥ 1).
    gen_rejected: u64,
    accepts_shed: u64,
    net_batches: u64,
    frames_coalesced: u64,
}

/// OS threads in this process, via `/proc/self/task`; 0 where procfs
/// is unavailable (the constant-thread assertion is skipped there).
fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Resident set size in KiB from `/proc/self/status`; 0 if unknown.
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Child-process half of the connection sweep (`--conn-client`): open
/// `conns` sockets, report readiness, then blast the same pre-encoded
/// burst down every connection round-robin until each has sent
/// `frames_each` frames. Runs as a separate process so parent + child
/// fd tables each stay well under the rlimit at 10k connections.
///
/// Protocol on stdio: child prints `established N`, parent replies
/// `go`, child sends, prints `sent`, and holds every socket open until
/// the parent's final line (or EOF) releases it.
fn conn_client_main(rest: &[String]) {
    use cameo_runtime::prelude::IngestFrame;
    use std::io::{BufRead, Write as _};
    use std::net::TcpStream;

    let addr = rest[0].clone();
    let conns: usize = rest[1].parse().expect("conns");
    let frames_each: usize = rest[2].parse().expect("frames_each");
    let fpr: usize = rest[3].parse().expect("frames_per_burst");
    let slot: u32 = rest[4].parse().expect("slot");
    let gen: u32 = rest[5].parse().expect("gen");
    let tuples: usize = rest[6].parse().expect("tuples");

    // Every connection replays the same byte slab, encoded once.
    let mut bytes = Vec::new();
    for f in 0..fpr {
        IngestFrame {
            job: slot,
            gen,
            source: 0,
            tuples: (0..tuples as u64)
                .map(|i| {
                    cameo_dataflow::event::Tuple::new(
                        i % 8,
                        1,
                        cameo_core::time::LogicalTime(1 + f as u64 * tuples as u64 + i),
                    )
                })
                .collect(),
        }
        .encode_into(&mut bytes);
    }

    let mut socks: Vec<TcpStream> = Vec::with_capacity(conns);
    for _ in 0..conns {
        // Bounded retry: a full accept backlog drops SYNs while the
        // serve loop catches up; a dead server must still fail loudly.
        let mut attempts = 0;
        let s = loop {
            match TcpStream::connect(&addr) {
                Ok(s) => break s,
                Err(e) => {
                    attempts += 1;
                    assert!(attempts < 10_000, "conn client cannot connect: {e}");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        s.set_nodelay(true).ok();
        socks.push(s);
    }
    println!("established {}", socks.len());
    std::io::stdout().flush().expect("flush");
    let stdin = std::io::stdin();
    let mut line = String::new();
    stdin.lock().read_line(&mut line).expect("go line");

    for _ in 0..frames_each / fpr {
        for s in socks.iter_mut() {
            s.write_all(&bytes).expect("burst write");
        }
    }
    println!("sent");
    std::io::stdout().flush().expect("flush");
    // Keep the sockets open while the parent samples counters and runs
    // its stale-generation probe; EOF on stdin is the release.
    line.clear();
    let _ = stdin.lock().read_line(&mut line);
}

/// Parent half of the connection sweep: a zero-worker runtime and an
/// ingress plane sharded across `loops` epoll serve loops, fed by a
/// child process holding `conns` live sockets. Times the barrage,
/// samples threads + RSS while every connection is open, then proves a
/// stale-generation frame is rejected-and-counted at this connection
/// count before tearing down. Before returning, cross-checks the
/// per-loop counters against the handle totals and (when `conns >=
/// loops`) that least-loaded assignment put at least one connection on
/// every loop.
fn run_conn_sweep(conns: usize, frames_per_burst: usize, loops: usize) -> ConnCell {
    use cameo_dataflow::queries::AggQueryParams;
    use cameo_runtime::prelude::*;
    use std::io::{BufRead, BufReader, Write as _};

    const TUPLES: usize = 8;
    /// Total frames across all connections — zero workers means
    /// nothing drains, so the budget bounds the queue exactly as in
    /// `run_net_ingest`.
    const FRAME_BUDGET: usize = 60_000;

    let rt = std::sync::Arc::new(Runtime::start(cameo_runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    let spec = cameo_dataflow::queries::agg_query(
        &AggQueryParams::new(
            "conn-bench",
            1_000_000,
            cameo_core::time::Micros::from_millis(800),
        )
        .with_sources(1)
        .with_parallelism(1)
        .with_keys(8),
    );
    let job = rt.deploy(&spec, &Default::default()).expect("deploy");
    let server = IngestServer::start_with(
        rt.clone(),
        "127.0.0.1:0",
        IngestServerConfig::new().with_loops(loops),
    )
    .expect("bind loopback");

    let bursts_each = ((FRAME_BUDGET / conns).max(1) / frames_per_burst).max(1);
    let frames_each = bursts_each * frames_per_burst;
    let total = (conns * frames_each) as u64;

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .arg("--conn-client")
        .arg(server.local_addr().to_string())
        .arg(conns.to_string())
        .arg(frames_each.to_string())
        .arg(frames_per_burst.to_string())
        .arg(job.slot().to_string())
        .arg(job.generation().to_string())
        .arg(TUPLES.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn conn client");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut child_in = child.stdin.take().expect("child stdin");
    let mut line = String::new();
    child_out.read_line(&mut line).expect("client hello");
    assert_eq!(
        line.trim(),
        format!("established {conns}"),
        "conn client failed to open {conns} connections"
    );
    // Every connection is open and idle: sample the number the sweep
    // asserts is O(1) in `conns`, then release the barrage.
    let threads = threads_now();
    let t0 = Instant::now();
    child_in.write_all(b"go\n").expect("go");
    // Park while the child drives; a spinning watcher would steal the
    // one CPU the serve loop and the client share on small hosts.
    line.clear();
    child_out.read_line(&mut line).expect("sent line");
    let stall = Instant::now() + Duration::from_secs(60);
    while server.frames_received() < total {
        assert!(
            Instant::now() < stall,
            "conn_sweep stalled: {}/{} frames acked ({} conns)",
            server.frames_received(),
            total,
            conns
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = t0.elapsed();
    let rss = rss_kb();

    // Stale-generation probe while all `conns` sockets are still open:
    // a frame stamped with a generation this slot never issued must be
    // rejected and counted — and never routed — at every point of the
    // sweep.
    let rejected_before = server.gen_rejected_frames();
    let mut probe = IngestClient::connect(server.local_addr()).expect("probe connect");
    probe
        .send(&IngestFrame {
            job: job.slot(),
            gen: job.generation().wrapping_add(1),
            source: 0,
            tuples: vec![cameo_dataflow::event::Tuple::new(
                0,
                1,
                cameo_core::time::LogicalTime(1),
            )],
        })
        .expect("probe send");
    let probe_stall = Instant::now() + Duration::from_secs(10);
    while server.gen_rejected_frames() == rejected_before {
        assert!(
            Instant::now() < probe_stall,
            "stale-generation frame was neither rejected nor counted"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(
        server.frames_received(),
        total,
        "a stale-generation frame must never count as received"
    );

    let msgs = rt.queue_len() as u64;
    let stats = rt.scheduler_stats();

    // Roll-up invariant: the per-loop counters must sum *exactly* to
    // the handle totals — the shards account for every frame, burst
    // and rejection with nothing double-counted or lost. The probe
    // stays open across the reads: its close is one more readiness
    // burst, and landing between two of them it reads as a mismatch.
    let loop_stats = server.loop_stats();
    assert_eq!(loop_stats.len(), loops, "one stats row per serve loop");
    assert_eq!(
        loop_stats.iter().map(|l| l.frames).sum::<u64>(),
        server.frames_received(),
        "per-loop frames must sum to the total"
    );
    assert_eq!(
        loop_stats.iter().map(|l| l.readiness_bursts).sum::<u64>(),
        server.readiness_bursts(),
        "per-loop bursts must sum to the total"
    );
    assert_eq!(
        loop_stats.iter().map(|l| l.gen_rejected).sum::<u64>(),
        server.gen_rejected_frames(),
        "per-loop rejections must sum to the total"
    );
    drop(probe);
    // Least-loaded assignment spread the load: with at least as many
    // connections as loops, no loop sat idle.
    if conns >= loops {
        for (i, l) in loop_stats.iter().enumerate() {
            assert!(
                l.conns_peak >= 1,
                "loop {i} never owned a connection at {conns} conns"
            );
        }
    }

    let cell = ConnCell {
        conns,
        loops,
        frames_per_burst,
        frames: total,
        msgs,
        ns_per_frame: elapsed.as_nanos() as f64 / total as f64,
        ns_per_msg: elapsed.as_nanos() as f64 / msgs.max(1) as f64,
        threads,
        rss_kb: rss,
        readiness_bursts: server.readiness_bursts(),
        loop_bursts: loop_stats.iter().map(|l| l.readiness_bursts).collect(),
        conns_peak: server.conns_peak(),
        gen_rejected: server.gen_rejected_frames() - rejected_before,
        accepts_shed: server.accepts_shed(),
        net_batches: stats.net_batches,
        frames_coalesced: stats.frames_coalesced,
    };
    child_in.write_all(b"exit\n").ok();
    drop(child_in);
    child.wait().expect("conn client exit");
    server.stop();
    std::sync::Arc::try_unwrap(rt)
        .ok()
        .expect("sole runtime owner")
        .shutdown();
    cell
}

/// One deploy→ingest→drain→undeploy→redeploy sweep; see module docs
/// (experiment 4).
struct ChurnCell {
    cycles: u64,
    us_per_cycle: f64,
    /// Messages retirement had to purge (drain timeouts only — the
    /// graceful drain should leave nothing).
    purged: u64,
    /// Stale submissions/executions dropped around retirement.
    retired_drops: u64,
    jobs_retired: u64,
    queue_len_after: usize,
    /// Every cycle landed in the same slot (the slot map reuses
    /// retired slots instead of growing).
    slot_reused: bool,
}

fn run_job_churn(cycles: u64) -> ChurnCell {
    use cameo_dataflow::queries::AggQueryParams;
    use cameo_runtime::prelude::*;

    let rt = Runtime::start(
        cameo_runtime::runtime::RuntimeConfig::default()
            .with_workers(2)
            .with_scheduler(SchedulerConfig::default().with_shards(2)),
    );
    let spec = cameo_dataflow::queries::agg_query(
        &AggQueryParams::new(
            "churn-bench",
            5_000,
            cameo_core::time::Micros::from_millis(100),
        )
        .with_sources(2)
        .with_parallelism(2)
        .with_keys(8),
    );
    let mut purged = 0u64;
    let mut slot_reused = true;
    let mut first_slot = None;
    let t0 = Instant::now();
    for c in 0..cycles {
        let job = rt.deploy(&spec, &Default::default()).expect("deploy");
        match first_slot {
            None => first_slot = Some(job.slot()),
            Some(s) => slot_reused &= job.slot() == s,
        }
        for source in 0..2u32 {
            let tuples: Vec<cameo_dataflow::event::Tuple> = (0..32u64)
                .map(|i| {
                    cameo_dataflow::event::Tuple::new(
                        i % 8,
                        1,
                        cameo_core::time::LogicalTime(1 + c * 10_000 + i),
                    )
                })
                .collect();
            rt.ingest(job, source, tuples).expect("ingest");
        }
        purged += rt.undeploy(job).expect("undeploy");
    }
    let elapsed = t0.elapsed();
    let stats = rt.scheduler_stats();
    let queue_len_after = rt.queue_len();
    assert_eq!(
        queue_len_after, 0,
        "job churn leaked scheduler state: {queue_len_after} messages after {cycles} cycles"
    );
    assert!(slot_reused, "churn cycles must reuse the retired slot");
    rt.shutdown();
    ChurnCell {
        cycles,
        us_per_cycle: elapsed.as_micros() as f64 / cycles as f64,
        purged,
        retired_drops: stats.retired_drops,
        jobs_retired: stats.jobs_retired,
        queue_len_after,
        slot_reused,
    }
}

/// One phase of the elastic load-step scenario; see module docs
/// (experiment 6).
struct ElasticPhase {
    name: &'static str,
    /// Frames the open-loop schedule submitted in this phase.
    sends: u64,
    /// Worst lateness of a scheduled send (µs): how far the submitting
    /// thread fell behind its own fixed schedule.
    send_lag_max_us: u64,
    /// Sink outputs attributed to this phase (snapshot delta, taken
    /// after the phase's backlog fully drained so recovery outputs
    /// stay attributed to the phase that queued them).
    outputs: u64,
    /// Outputs that blew the job's latency constraint.
    misses: u64,
    miss_rate: f64,
    /// Client-side coordinated-omission-safe latency (receipt wall
    /// clock minus *scheduled* send time, so sender lag can never hide
    /// queueing delay): percentiles over the phase's outputs.
    co_p50_us: u64,
    co_p99_us: u64,
    co_max_us: u64,
    /// Outputs whose CO-safe latency blew the constraint.
    co_misses: u64,
}

/// The elastic load-step scenario's artifact row (experiment 6).
struct ElasticCell {
    phases: Vec<ElasticPhase>,
    latency_constraint_us: u64,
    burn_us: u64,
    step_frames: u64,
    segments_baseline: usize,
    segments_peak: usize,
    segments_final: usize,
    workers_initial: usize,
    workers_final: usize,
    rss_baseline_kb: u64,
    rss_peak_kb: u64,
    rss_final_kb: u64,
    tel: cameo_core::elastic::ElasticTelemetry,
}

/// Open-loop Poisson arrival offsets (µs from phase start) at `rate_hz`
/// over `dur_us`, from the shared seeded stream: the schedule is fixed
/// before the run and never adjusted to runtime backpressure.
fn poisson_offsets(rng: &mut rand_chacha::ChaCha8Rng, rate_hz: f64, dur_us: u64) -> Vec<u64> {
    use rand::Rng;
    let mut offs = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate_hz * 1e6;
        if t as u64 >= dur_us {
            return offs;
        }
        offs.push(t as u64);
    }
}

/// Quiet → spike (load step) → quiet against a live elastic runtime;
/// see module docs (experiment 6).
fn run_elastic_step(quick: bool, seed: u64) -> ElasticCell {
    use cameo_core::elastic::ElasticConfig;
    use cameo_core::progress::TimeDomain;
    use cameo_core::time::LogicalTime;
    use cameo_dataflow::event::Tuple;
    use cameo_dataflow::graph::{JobBuilder, Routing};
    use cameo_dataflow::operator::OperatorKind;
    use cameo_dataflow::ops::SpinMap;
    use cameo_runtime::prelude::*;
    use rand::SeedableRng;

    // The job: one source forwarding into a sink that burns real CPU
    // per message — the runtime profiles *measured* UDF cost, so the
    // overload has to be real work, not a cost-model hint.
    const CONSTRAINT_US: u64 = 20_000;
    const BURN_US: u64 = 300;
    const QUIET_HZ: f64 = 150.0;
    const SPIKE_HZ: f64 = 1_200.0;
    // The load step proper: one coalesced burst, all scheduled at the
    // spike instant. As a single `ingest_frames` chain it also forces
    // the mailbox arena past one segment, so quiescent reclamation has
    // something real to return.
    const STEP_FRAMES: u64 = 1_200;
    const MIN_WORKERS: usize = 1;
    const MAX_WORKERS: usize = 4;
    let phase_us: u64 = if quick { 250_000 } else { 400_000 };

    let mut builder = JobBuilder::new("elastic-step", Micros(CONSTRAINT_US), TimeDomain::EventTime);
    let src = builder.ingest("src", 1);
    let burn = builder.stage("burn", 1, OperatorKind::Regular, Micros(BURN_US), |_| {
        Box::new(SpinMap::new(Micros(BURN_US)))
    });
    builder.connect(src, burn, Routing::Forward);
    let spec = builder.build().expect("elastic-step graph");

    let rt = Runtime::start(
        cameo_runtime::runtime::RuntimeConfig::default()
            .with_workers(1)
            .with_elastic(
                ElasticConfig::new(MIN_WORKERS, MAX_WORKERS)
                    .with_tick(Micros(20_000))
                    .with_quiescent_ticks(3),
            ),
    );
    let workers_initial = MIN_WORKERS;
    let job = rt.deploy(&spec, &Default::default()).expect("deploy");
    let s0 = rt.job_stats(job).expect("job stats");

    // CO-safe capture: tuples are stamped with their *scheduled* send
    // offset (µs from the bench epoch), a subscriber thread records
    // (receipt offset, batch progress) for every sink output, and
    // latency is receipt minus schedule — a sender that falls behind
    // its own schedule inflates, never hides, the result.
    let sub = rt.subscribe(job).expect("subscribe");
    let recs: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let sub_thread = {
        let recs = recs.clone();
        std::thread::spawn(move || {
            while let Ok(ev) = sub.recv() {
                let at = t0.elapsed().as_micros() as u64;
                recs.lock().unwrap().push((at, ev.batch.progress.0));
            }
        })
    };

    let now_us = || t0.elapsed().as_micros() as u64;
    let send_phase = |base_us: u64, offsets: &[u64]| -> u64 {
        let mut lag_max = 0u64;
        for &off in offsets {
            let sched = base_us + off;
            loop {
                let now = now_us();
                if now >= sched {
                    lag_max = lag_max.max(now - sched);
                    break;
                }
                std::thread::sleep(Duration::from_micros((sched - now).min(1_000)));
            }
            // Behind schedule: send immediately (open loop), the lag is
            // recorded above and the CO stamp keeps the *scheduled* time.
            rt.ingest_frames([IngestFrame::addressed(
                job,
                0,
                vec![Tuple::new(off, 1, LogicalTime(sched + 1))],
            )]);
        }
        lag_max
    };
    // Phase boundary: queue drained *and* the last in-flight burn has
    // recorded its output, so snapshot deltas attribute every output —
    // including recovery-time backlog — to the phase that queued it.
    let settle = |label: &str| -> cameo_runtime::prelude::JobStatsSnapshot {
        assert!(
            rt.drain(Duration::from_secs(60)),
            "elastic_step {label}: backlog failed to drain"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut prev = rt.job_stats(job).expect("job stats").outputs;
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let cur = rt.job_stats(job).expect("job stats");
            if cur.outputs == prev || Instant::now() > deadline {
                return cur;
            }
            prev = cur.outputs;
        }
    };

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let q1_offs = poisson_offsets(&mut rng, QUIET_HZ, phase_us);
    let spike_offs = poisson_offsets(&mut rng, SPIKE_HZ, phase_us);
    let q2_offs = poisson_offsets(&mut rng, QUIET_HZ, phase_us);

    // Phase 1: quiet. Its post-drain state is the elasticity baseline.
    let q1_base = now_us();
    let q1_lag = send_phase(q1_base, &q1_offs);
    let s1 = settle("quiet1");
    let segments_baseline = rt.arena_segments();
    let rss_baseline_kb = rss_kb();

    // Phase 2: the step. One coalesced chain of STEP_FRAMES messages
    // lands at the spike instant, then the sustained overload schedule
    // runs on top of the backlog.
    let sp_base = now_us();
    let step: Vec<IngestFrame> = (0..STEP_FRAMES)
        .map(|i| IngestFrame::addressed(job, 0, vec![Tuple::new(i, 1, LogicalTime(sp_base + 1))]))
        .collect();
    let out = rt.ingest_frames(step);
    assert_eq!(out.frames, STEP_FRAMES as usize, "step burst fully routed");
    // Sampled right after the chain published, before reclamation can
    // run: the arena high-water mark the final state must return from.
    let segments_peak = rt.arena_segments();
    let rss_peak_kb = rss_kb();
    let spike_lag = send_phase(sp_base, &spike_offs);
    let s2 = settle("spike+recovery");

    // Phase 3: quiet again. Post-recovery miss rate comes from here.
    let q2_base = now_us();
    let q2_lag = send_phase(q2_base, &q2_offs);
    let s3 = settle("quiet2");

    // Final quiescence: the controller must shrink the pool back to
    // the floor and hand the spike's arena segments back.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let tel = rt.elastic_telemetry();
        if tel.shrinks >= 1
            && tel.reclaims >= 1
            && rt.worker_count() <= MIN_WORKERS
            && rt.arena_segments() <= segments_baseline
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "elastic_step: no quiescent convergence: telemetry {tel:?}, \
             workers {}, segments {} (baseline {segments_baseline})",
            rt.worker_count(),
            rt.arena_segments()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let segments_final = rt.arena_segments();
    let rss_final_kb = rss_kb();
    let workers_final = rt.worker_count();
    let tel = rt.elastic_telemetry();

    // Close the subscription (undeploy drops the job's sender side) and
    // collect the CO records.
    rt.undeploy(job).expect("undeploy");
    sub_thread.join().expect("subscriber thread");
    let recs = std::mem::take(&mut *recs.lock().unwrap());

    // Attribute each output to its phase by the *scheduled* stamp it
    // carries; phase bases are strictly increasing so the ranges are
    // disjoint.
    let co_phase = |lo: u64, hi: u64| -> (u64, u64, u64, u64) {
        let mut lat: Vec<u64> = recs
            .iter()
            .filter(|&&(_, prog)| prog > lo && prog <= hi)
            .map(|&(at, prog)| at.saturating_sub(prog - 1))
            .collect();
        lat.sort_unstable();
        if lat.is_empty() {
            return (0, 0, 0, 0);
        }
        let pick = |q: f64| lat[((lat.len() - 1) as f64 * q) as usize];
        let misses = lat.iter().filter(|&&l| l > CONSTRAINT_US).count() as u64;
        (pick(0.5), pick(0.99), *lat.last().unwrap(), misses)
    };
    let mk_phase = |name: &'static str,
                    prev: &cameo_runtime::prelude::JobStatsSnapshot,
                    cur: &cameo_runtime::prelude::JobStatsSnapshot,
                    sends: u64,
                    lag: u64,
                    lo: u64,
                    hi: u64| {
        let outputs = cur.outputs - prev.outputs;
        let misses = (cur.outputs - cur.on_time) - (prev.outputs - prev.on_time);
        let (co_p50_us, co_p99_us, co_max_us, co_misses) = co_phase(lo, hi);
        ElasticPhase {
            name,
            sends,
            send_lag_max_us: lag,
            outputs,
            misses,
            miss_rate: if outputs > 0 {
                misses as f64 / outputs as f64
            } else {
                0.0
            },
            co_p50_us,
            co_p99_us,
            co_max_us,
            co_misses,
        }
    };
    let phases = vec![
        mk_phase(
            "quiet1",
            &s0,
            &s1,
            q1_offs.len() as u64,
            q1_lag,
            q1_base,
            sp_base,
        ),
        mk_phase(
            "spike",
            &s1,
            &s2,
            STEP_FRAMES + spike_offs.len() as u64,
            spike_lag,
            sp_base,
            q2_base,
        ),
        mk_phase(
            "quiet2",
            &s2,
            &s3,
            q2_offs.len() as u64,
            q2_lag,
            q2_base,
            u64::MAX,
        ),
    ];

    rt.shutdown();
    ElasticCell {
        phases,
        latency_constraint_us: CONSTRAINT_US,
        burn_us: BURN_US,
        step_frames: STEP_FRAMES,
        segments_baseline,
        segments_peak,
        segments_final,
        workers_initial,
        workers_final,
        rss_baseline_kb,
        rss_peak_kb,
        rss_final_kb,
        tel,
    }
}

/// One journal-append cost row of the recovery experiment (7).
struct IngestCostCell {
    config: &'static str,
    frames: u64,
    ns_per_frame: f64,
}

/// One recovery-wall-time row of the recovery experiment (7).
struct RecoverCell {
    /// Frames journaled before the simulated crash.
    frames: u64,
    recover_ms: f64,
    frames_replayed: usize,
    records_replayed: usize,
    torn_bytes: u64,
}

/// The recovery experiment's artifact block.
struct RecoveryBench {
    ingest: Vec<IngestCostCell>,
    /// `none-b` over `none-a`: run-to-run noise of the journal-off
    /// ingest path, of the last attempt.
    noise_ratio: f64,
    /// Passes over the journal-append cells it took (at most
    /// [`RECOVERY_ATTEMPTS`]).
    attempts: u32,
    recover: Vec<RecoverCell>,
}

/// Journal-off runs may differ by at most this factor before the
/// "durability off costs nothing" claim is considered violated.
const RECOVERY_NOISE: f64 = 1.6;

/// How many times the journal-append cells are measured before a
/// journal-off pair outside [`RECOVERY_NOISE`] fails the run.
const RECOVERY_ATTEMPTS: u32 = 3;

/// The journal-off pair agrees within [`RECOVERY_NOISE`]. The run
/// exits non-zero when its last attempt does not — after the artifact
/// is written.
fn noise_within_bound(ratio: f64) -> bool {
    ratio < RECOVERY_NOISE && ratio > 1.0 / RECOVERY_NOISE
}

/// Scratch directory for one durability bench cell.
fn recovery_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cameo-bench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The query every recovery cell deploys: window far wider than the
/// fed logical range, so nothing fires and the cells time ingest and
/// replay alone.
fn recovery_spec() -> cameo_dataflow::graph::JobSpec {
    use cameo_dataflow::queries::AggQueryParams;
    cameo_dataflow::queries::agg_query(
        &AggQueryParams::new(
            "recovery-bench",
            1_000_000,
            cameo_core::time::Micros::from_millis(800),
        )
        .with_sources(1)
        .with_parallelism(1)
        .with_keys(8),
    )
}

/// Pre-built single-frame bursts: construction stays untimed so every
/// configuration times exactly read-side work (journal append + route +
/// submit).
fn recovery_frames(
    job: cameo_runtime::prelude::JobHandle,
    frames: u64,
) -> Vec<cameo_runtime::prelude::IngestFrame> {
    use cameo_runtime::prelude::IngestFrame;
    const TUPLES: u64 = 8;
    (0..frames)
        .map(|f| {
            IngestFrame::addressed(
                job,
                0,
                (0..TUPLES)
                    .map(|i| {
                        cameo_dataflow::event::Tuple::new(
                            i % 8,
                            1,
                            cameo_core::time::LogicalTime(1 + f * TUPLES + i),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// ns per `ingest_frames` call on a zero-worker runtime under the
/// given durability configuration (`None` = journal off).
fn recovery_ingest_ns(
    dur: Option<cameo_runtime::durability::DurabilityConfig>,
    frames: u64,
) -> f64 {
    use cameo_runtime::prelude::*;
    let mut cfg = cameo_runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    };
    if let Some(d) = dur {
        cfg = cfg.with_durability(d);
    }
    let rt = Runtime::start(cfg);
    let job = rt
        .deploy(&recovery_spec(), &Default::default())
        .expect("deploy");
    let bursts = recovery_frames(job, frames);
    let t0 = Instant::now();
    for f in bursts {
        rt.ingest_frames([f]);
    }
    let elapsed = t0.elapsed();
    rt.shutdown();
    elapsed.as_nanos() as f64 / frames as f64
}

/// Journal `frames` ingress frames, tear the runtime down without a
/// snapshot (a crash as far as the journal is concerned — nothing is
/// checkpointed), and time `Runtime::recover` replaying the whole
/// journal into a fresh runtime.
fn recovery_recover_cell(frames: u64) -> RecoverCell {
    use cameo_runtime::durability::{DurabilityConfig, SpecRegistry};
    use cameo_runtime::prelude::*;
    let dir = recovery_dir(&format!("replay-{frames}"));
    let cfg = || {
        cameo_runtime::runtime::RuntimeConfig {
            workers: 0,
            ..Default::default()
        }
        .with_durability(DurabilityConfig::new(&dir))
    };
    let rt = Runtime::start(cfg());
    let job = rt
        .deploy(&recovery_spec(), &Default::default())
        .expect("deploy");
    for f in recovery_frames(job, frames) {
        rt.ingest_frames([f]);
    }
    rt.shutdown();

    let mut reg = SpecRegistry::new();
    reg.register(recovery_spec(), Default::default());
    let t0 = Instant::now();
    let (rt2, report) = Runtime::recover(cfg(), &reg).expect("recover");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    rt2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        report.frames_replayed, frames as usize,
        "recovery must replay every journaled frame"
    );
    assert_eq!(report.torn_bytes, 0, "clean journal must have no torn tail");
    RecoverCell {
        frames,
        recover_ms,
        frames_replayed: report.frames_replayed,
        records_replayed: report.records_replayed,
        torn_bytes: report.torn_bytes,
    }
}

/// One pass over the journal-append cells: journal-off twice,
/// interleaved around the journal-on cells. The pair bounds this host's
/// run-to-run noise, and any real journal-off regression would show up
/// as the ratio escaping the bound.
fn recovery_ingest_sweep(frames: u64) -> (Vec<IngestCostCell>, f64) {
    use cameo_runtime::durability::{DurabilityConfig, FsyncPolicy};
    let mk =
        |tag: &str, fsync: FsyncPolicy| DurabilityConfig::new(recovery_dir(tag)).with_fsync(fsync);
    let cell = |config: &'static str, durability: Option<DurabilityConfig>| IngestCostCell {
        config,
        frames,
        ns_per_frame: recovery_ingest_ns(durability, frames),
    };
    let ingest = vec![
        cell("none-a", None),
        cell("journal-never", Some(mk("never", FsyncPolicy::Never))),
        cell(
            "journal-interval-5ms",
            Some(mk(
                "interval",
                FsyncPolicy::Interval(Duration::from_millis(5)),
            )),
        ),
        cell(
            "journal-perbatch",
            Some(mk("perbatch", FsyncPolicy::PerBatch)),
        ),
        cell("none-b", None),
    ];
    for tag in ["never", "interval", "perbatch"] {
        let _ = std::fs::remove_dir_all(recovery_dir(tag));
    }
    let noise_ratio = ingest[ingest.len() - 1].ns_per_frame / ingest[0].ns_per_frame;
    (ingest, noise_ratio)
}

fn run_recovery(quick: bool) -> RecoveryBench {
    let frames: u64 = if quick { 1_000 } else { 4_000 };
    // A neighbour's burst during one of the two journal-off cells is
    // not a journal-off regression: an attempt whose pair disagrees is
    // measured again, and the last attempt is the one reported.
    let mut attempts = 1;
    let (mut ingest, mut noise_ratio) = recovery_ingest_sweep(frames);
    while !noise_within_bound(noise_ratio) && attempts < RECOVERY_ATTEMPTS {
        println!(
            "    attempt {attempts}: journal-off pair {noise_ratio:.2}x apart \
             (bound {RECOVERY_NOISE}x), measuring again"
        );
        attempts += 1;
        (ingest, noise_ratio) = recovery_ingest_sweep(frames);
    }
    let lengths: &[u64] = if quick {
        &[500, 2_000]
    } else {
        &[2_000, 8_000, 16_000]
    };
    let recover = lengths.iter().map(|&n| recovery_recover_cell(n)).collect();
    RecoveryBench {
        ingest,
        noise_ratio,
        attempts,
        recover,
    }
}

fn main() {
    // Child-process mode for the connection sweep: re-invoked as
    // `bench_sharded_scheduler --conn-client <addr> <conns> ...`.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--conn-client") {
        conn_client_main(&argv[1..]);
        return;
    }
    let args = BenchArgs::parse();
    let mut out_path = String::from("BENCH_sharded_scheduler.json");
    let mut pin = false;
    let mut rest = args.rest.iter();
    while let Some(a) = rest.next() {
        if a == "--out" {
            out_path = rest.next().expect("--out takes a path").clone();
        } else if a == "--pin" {
            pin = true;
        }
    }
    // Probe (in a scratch thread, so the main thread keeps its
    // affinity) whether pinning can actually take effect here —
    // against the first core of the *allowed* mask, which is what the
    // workers will actually target.
    let pinned = pin
        && std::thread::spawn(|| {
            cameo_core::affinity::allowed_cores()
                .first()
                .map(|&c| cameo_core::affinity::pin_to_core(c))
                .unwrap_or(false)
        })
        .join()
        .unwrap_or(false);
    let measure = if args.full {
        Duration::from_millis(1_000)
    } else if args.quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(300)
    };
    let worker_sweep: &[usize] = if args.quick { &[1, 4] } else { &[1, 4, 8] };
    let shard_sweep: &[usize] = if args.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("single-threaded submit cost (burst {SUBMIT_BURST}, drain untimed)");
    let costs = measure_submit_costs(measure);
    let mailbox_overhead = costs.mailbox_ns - costs.bare_ns;
    let batch64_per_msg = costs.batch64_ns / SUBMIT_BURST as f64;
    let batch64_vs_single = costs.batch64_ns / costs.mailbox_ns;
    println!("  bare CameoScheduler : {:8.1} ns/submit", costs.bare_ns);
    println!(
        "  sharded, arena mbox : {:8.1} ns/submit  ({}{:.1} ns vs bare)",
        costs.mailbox_ns,
        if mailbox_overhead >= 0.0 { "+" } else { "" },
        mailbox_overhead
    );
    println!(
        "  submit_batch(64)    : {:8.1} ns/batch   ({:.1} ns/msg, {:.2}x one submit)",
        costs.batch64_ns, batch64_per_msg, batch64_vs_single
    );

    println!("\ncontended scheduler throughput (closed-loop submit+drain, burst {BURST})");
    println!(
        "host: {cpus} cpu(s), worker pinning {} — on 1 cpu, speedups measure contention tax, not scaling",
        if pinned { "on" } else { "off" }
    );
    println!(
        "{:>11} {:>8} {:>15} {:>10} {:>9} {:>10} {:>10} {:>8}",
        "config", "workers", "msgs/sec", "vs mutex", "steals", "mb-drain", "nd-reuse", "nd-fb"
    );
    let print_cell = |cell: &Cell, base_rate: f64| {
        println!(
            "{:>11} {:>8} {:>15.0} {:>9.2}x {:>9} {:>10} {:>10} {:>8}",
            cell.config,
            cell.workers,
            cell.msgs_per_sec,
            cell.msgs_per_sec / base_rate,
            cell.steals,
            cell.mailbox_drained,
            cell.node_reuse,
            cell.node_alloc_fallback
        );
    };
    let mut cells: Vec<Cell> = Vec::new();
    for &workers in worker_sweep {
        let base = run_mutex_baseline(workers, measure, pinned);
        let base_rate = base.msgs_per_sec;
        print_cell(&base, base_rate);
        cells.push(base);
        for &shards in shard_sweep {
            if shards > workers {
                continue; // the runtime clamps shards to workers
            }
            for ingress in [Ingress::Mailbox, Ingress::Batched] {
                let cell = run_sharded(shards, workers, measure, ingress, pinned);
                print_cell(&cell, base_rate);
                cells.push(cell);
            }
        }
    }

    // Headline: best sharded config vs the single-mutex baseline at the
    // widest worker count measured.
    let top_workers = *worker_sweep.last().unwrap();
    let base_top = cells
        .iter()
        .find(|c| c.workers == top_workers && c.config == "mutex")
        .map(|c| c.msgs_per_sec)
        .unwrap_or(0.0);
    let best_top = cells
        .iter()
        .filter(|c| c.workers == top_workers && c.config != "mutex")
        .map(|c| c.msgs_per_sec)
        .fold(0.0, f64::max);
    let speedup = if base_top > 0.0 {
        best_top / base_top
    } else {
        0.0
    };
    println!("\n{top_workers}-worker speedup over single-mutex baseline: {speedup:.2}x");

    println!("\nloopback network ingest (closed-loop, zero-worker runtime, 8 tuples/frame)");
    println!(
        "{:>15} {:>10} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "frames/read", "frames", "ns/frame", "ns/msg", "reads", "coalesced", "pubs"
    );
    let net_measure = measure.min(Duration::from_millis(500));
    let net_cells: Vec<NetCell> = [1usize, 8, 64]
        .iter()
        .map(|&fpr| {
            let cell = run_net_ingest(fpr, net_measure);
            println!(
                "{:>15} {:>10} {:>12.1} {:>12.1} {:>10} {:>10} {:>8}",
                cell.frames_per_read,
                cell.frames,
                cell.ns_per_frame,
                cell.ns_per_msg,
                cell.net_batches,
                cell.frames_coalesced,
                cell.batch_publications
            );
            cell
        })
        .collect();
    if let (Some(one), Some(big)) = (net_cells.first(), net_cells.last()) {
        println!(
            "coalescing win: {:.2}x lower ns/msg at {} frames/read vs 1",
            one.ns_per_msg / big.ns_per_msg,
            big.frames_per_read
        );
    }

    println!("\nconnection sweep (sharded epoll loops, child-process client, open-loop barrage)");
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>12} {:>8} {:>10} {:>10} {:>8} {:>10}",
        "conns",
        "loops",
        "f/burst",
        "frames",
        "ns/msg",
        "threads",
        "rss_kb",
        "bursts",
        "peak",
        "rejected"
    );
    let conn_sweep: &[(usize, usize, usize)] = if args.quick {
        &[(16, 64, 1), (256, 8, 2)]
    } else {
        &[
            (16, 64, 1),
            (16, 64, 2),
            (16, 64, 4),
            (1_000, 8, 1),
            (1_000, 8, 2),
            (1_000, 8, 4),
            (10_000, 4, 1),
            (10_000, 4, 2),
            (10_000, 4, 4),
        ]
    };
    let conn_cells: Vec<ConnCell> = conn_sweep
        .iter()
        .map(|&(conns, fpr, loops)| {
            let cell = run_conn_sweep(conns, fpr, loops);
            println!(
                "{:>8} {:>6} {:>10} {:>10} {:>12.1} {:>8} {:>10} {:>10} {:>8} {:>10}",
                cell.conns,
                cell.loops,
                cell.frames_per_burst,
                cell.frames,
                cell.ns_per_msg,
                cell.threads,
                cell.rss_kb,
                cell.readiness_bursts,
                cell.conns_peak,
                cell.gen_rejected
            );
            cell
        })
        .collect();
    // O(1) server threads in `conns`: the ingress plane costs 1 accept
    // thread + `loops` serve loops, so with `base` the loops=1 thread
    // count every cell must sit at exactly `base + (loops - 1)` —
    // 10k connections use the same threads as 16 at equal `loops`.
    // Skipped only where procfs is unavailable (threads_now() == 0).
    let base_threads = conn_cells
        .iter()
        .find(|c| c.loops == 1)
        .map(|c| c.threads)
        .unwrap_or(0);
    if base_threads > 0 {
        for c in &conn_cells {
            assert_eq!(
                c.threads,
                base_threads + (c.loops - 1),
                "thread count must be 1 accept + {} loops over the loops=1 \
                 base of {} — constant in conns ({} conns used {} threads)",
                c.loops,
                base_threads,
                c.conns,
                c.threads
            );
        }
    }
    for c in &conn_cells {
        assert!(
            c.gen_rejected >= 1,
            "stale-generation probe must be rejected at {} conns",
            c.conns
        );
    }

    println!("\njob churn (deploy -> ingest -> drain -> undeploy -> redeploy, 2 workers)");
    let churn_cycles = if args.quick { 20 } else { 100 };
    let churn = run_job_churn(churn_cycles);
    println!(
        "  {} cycles: {:.0} us/cycle, purged {} (drain-timeout leftovers), \
         retired_drops {}, queue after: {} (slot reused: {})",
        churn.cycles,
        churn.us_per_cycle,
        churn.purged,
        churn.retired_drops,
        churn.queue_len_after,
        churn.slot_reused
    );

    println!("\nelastic load step (open-loop Poisson, quiet -> step+spike -> quiet, 1..4 workers)");
    let elastic = run_elastic_step(args.quick, args.seed);
    println!(
        "{:>8} {:>7} {:>8} {:>7} {:>9} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "phase",
        "sends",
        "outputs",
        "misses",
        "miss_rate",
        "co_p50_us",
        "co_p99_us",
        "co_max_us",
        "co_miss",
        "lag_us"
    );
    for p in &elastic.phases {
        println!(
            "{:>8} {:>7} {:>8} {:>7} {:>9.3} {:>10} {:>10} {:>10} {:>9} {:>8}",
            p.name,
            p.sends,
            p.outputs,
            p.misses,
            p.miss_rate,
            p.co_p50_us,
            p.co_p99_us,
            p.co_max_us,
            p.co_misses,
            p.send_lag_max_us
        );
    }
    println!(
        "  workers {} -> peak {} -> {} | segments {} -> peak {} -> {} | \
         grows {} shrinks {} reclaims {} | rss_kb {} -> {} -> {}",
        elastic.workers_initial,
        elastic.tel.peak_workers,
        elastic.workers_final,
        elastic.segments_baseline,
        elastic.segments_peak,
        elastic.segments_final,
        elastic.tel.grows,
        elastic.tel.shrinks,
        elastic.tel.reclaims,
        elastic.rss_baseline_kb,
        elastic.rss_peak_kb,
        elastic.rss_final_kb
    );
    // Controller convergence, asserted from the artifact's own numbers
    // (CI runs this under --quick): the spike must actually hurt, the
    // controller must grow into it, and the post-recovery quiet phase
    // must be healthy again with the pool and arena back at baseline.
    let spike = &elastic.phases[1];
    let quiet2 = &elastic.phases[2];
    assert!(
        spike.misses > 0,
        "the load step must produce deadline misses (got none)"
    );
    assert!(
        spike.miss_rate > quiet2.miss_rate,
        "post-recovery miss rate must sit below the spike's: spike {:.3} vs quiet2 {:.3}",
        spike.miss_rate,
        quiet2.miss_rate
    );
    assert!(
        elastic.tel.grows >= 1 && elastic.tel.peak_workers > elastic.workers_initial,
        "the spike must grow the pool: {:?}",
        elastic.tel
    );
    assert!(
        elastic.segments_peak > elastic.segments_baseline,
        "the step burst must grow the mailbox arena: baseline {} peak {}",
        elastic.segments_baseline,
        elastic.segments_peak
    );
    assert!(
        elastic.segments_final <= elastic.segments_baseline,
        "quiescent reclamation must return the arena to baseline: \
         baseline {} final {}",
        elastic.segments_baseline,
        elastic.segments_final
    );

    println!("\nrecovery (journal append cost + replay wall-time, zero-worker runtimes)");
    let recovery = run_recovery(args.quick);
    println!("  journal append (8-tuple frames, one ingest_frames call per frame):");
    for c in &recovery.ingest {
        println!(
            "    {:>22}: {:>9.0} ns/frame  ({} frames)",
            c.config, c.ns_per_frame, c.frames
        );
    }
    println!(
        "    journal-off noise ratio (none-b / none-a): {:.2}x (bound {RECOVERY_NOISE}x, attempt {})",
        recovery.noise_ratio, recovery.attempts
    );
    println!("  recovery wall-time vs journal length:");
    for c in &recovery.recover {
        println!(
            "    {:>8} frames: {:>8.1} ms  ({} records, {} frames replayed, {} torn bytes)",
            c.frames, c.recover_ms, c.records_replayed, c.frames_replayed, c.torn_bytes
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"sharded_scheduler\",\n  \"unit\": \"msgs_per_sec\",\n");
    json.push_str(&format!(
        "  \"cpus\": {cpus},\n  \"pinned\": {pinned},\n  \"burst\": {BURST},\n  \"measure_ms\": {},\n  \"speedup_top_workers\": {speedup:.3},\n  \"top_workers\": {top_workers},\n",
        measure.as_millis(),
    ));
    json.push_str(&format!(
        "  \"submit_ns\": {{\"bare\": {:.1}, \"mailbox\": {:.1}, \"overhead_ns_mailbox\": {:.1}, \"batch64\": {:.1}, \"batch64_per_msg\": {:.1}, \"batch64_vs_single\": {:.2}}},\n",
        costs.bare_ns,
        costs.mailbox_ns,
        mailbox_overhead,
        costs.batch64_ns,
        batch64_per_msg,
        batch64_vs_single
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"config\": \"{}\", \"shards\": {}, \"workers\": {}, \"msgs_per_sec\": {:.0}, \"steals\": {}, \"mailbox_drained\": {}, \"node_reuse_hits\": {}, \"node_alloc_fallback\": {}}}{}\n",
            c.config,
            c.shards,
            c.workers,
            c.msgs_per_sec,
            c.steals,
            c.mailbox_drained,
            c.node_reuse,
            c.node_alloc_fallback,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"net_ingest\": [\n");
    for (i, c) in net_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"frames_per_read\": {}, \"tuples_per_frame\": {}, \"frames\": {}, \"msgs\": {}, \"ns_per_frame\": {:.1}, \"ns_per_msg\": {:.1}, \"net_batches\": {}, \"frames_coalesced\": {}, \"batch_publications\": {}, \"readiness_bursts\": {}, \"conns_peak\": {}, \"gen_rejected_frames\": {}}}{}\n",
            c.frames_per_read,
            c.tuples_per_frame,
            c.frames,
            c.msgs,
            c.ns_per_frame,
            c.ns_per_msg,
            c.net_batches,
            c.frames_coalesced,
            c.batch_publications,
            c.readiness_bursts,
            c.conns_peak,
            c.gen_rejected,
            if i + 1 == net_cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"conn_sweep\": [\n");
    for (i, c) in conn_cells.iter().enumerate() {
        let loop_bursts = c
            .loop_bursts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"conns\": {}, \"loops\": {}, \"frames_per_burst\": {}, \"frames\": {}, \"msgs\": {}, \"ns_per_frame\": {:.1}, \"ns_per_msg\": {:.1}, \"threads\": {}, \"rss_kb\": {}, \"readiness_bursts\": {}, \"loop_bursts\": [{}], \"conns_peak\": {}, \"gen_rejected_frames\": {}, \"accepts_shed\": {}, \"net_batches\": {}, \"frames_coalesced\": {}}}{}\n",
            c.conns,
            c.loops,
            c.frames_per_burst,
            c.frames,
            c.msgs,
            c.ns_per_frame,
            c.ns_per_msg,
            c.threads,
            c.rss_kb,
            c.readiness_bursts,
            loop_bursts,
            c.conns_peak,
            c.gen_rejected,
            c.accepts_shed,
            c.net_batches,
            c.frames_coalesced,
            if i + 1 == conn_cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"elastic_step\": {{\"latency_constraint_us\": {}, \"burn_us\": {}, \"step_frames\": {}, \"phases\": [\n",
        elastic.latency_constraint_us, elastic.burn_us, elastic.step_frames
    ));
    for (i, p) in elastic.phases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"phase\": \"{}\", \"sends\": {}, \"outputs\": {}, \"misses\": {}, \"miss_rate\": {:.4}, \"co_p50_us\": {}, \"co_p99_us\": {}, \"co_max_us\": {}, \"co_misses\": {}, \"send_lag_max_us\": {}}}{}\n",
            p.name,
            p.sends,
            p.outputs,
            p.misses,
            p.miss_rate,
            p.co_p50_us,
            p.co_p99_us,
            p.co_max_us,
            p.co_misses,
            p.send_lag_max_us,
            if i + 1 == elastic.phases.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ], \"workers\": {{\"initial\": {}, \"peak\": {}, \"final\": {}}}, \"segments\": {{\"baseline\": {}, \"peak\": {}, \"final\": {}}}, \"rss_kb\": {{\"baseline\": {}, \"peak\": {}, \"final\": {}}}, \"telemetry\": {{\"ticks\": {}, \"grows\": {}, \"shrinks\": {}, \"migrations\": {}, \"reclaims\": {}, \"peak_workers\": {}}}}},\n",
        elastic.workers_initial,
        elastic.tel.peak_workers,
        elastic.workers_final,
        elastic.segments_baseline,
        elastic.segments_peak,
        elastic.segments_final,
        elastic.rss_baseline_kb,
        elastic.rss_peak_kb,
        elastic.rss_final_kb,
        elastic.tel.ticks,
        elastic.tel.grows,
        elastic.tel.shrinks,
        elastic.tel.migrations,
        elastic.tel.reclaims,
        elastic.tel.peak_workers
    ));
    json.push_str("  \"recovery\": {\n    \"ingest_ns\": [\n");
    for (i, c) in recovery.ingest.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"config\": \"{}\", \"frames\": {}, \"ns_per_frame\": {:.1}}}{}\n",
            c.config,
            c.frames,
            c.ns_per_frame,
            if i + 1 == recovery.ingest.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"noise_ratio\": {:.3},\n    \"noise_bound\": {RECOVERY_NOISE},\n    \"noise_ok\": {},\n    \"noise_attempts\": {},\n    \"recover\": [\n",
        recovery.noise_ratio,
        noise_within_bound(recovery.noise_ratio),
        recovery.attempts
    ));
    for (i, c) in recovery.recover.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"frames\": {}, \"recover_ms\": {:.2}, \"records_replayed\": {}, \"frames_replayed\": {}, \"torn_bytes\": {}}}{}\n",
            c.frames,
            c.recover_ms,
            c.records_replayed,
            c.frames_replayed,
            c.torn_bytes,
            if i + 1 == recovery.recover.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  },\n");
    json.push_str(&format!(
        "  \"job_churn\": {{\"cycles\": {}, \"us_per_cycle\": {:.1}, \"purged\": {}, \"retired_drops\": {}, \"jobs_retired\": {}, \"queue_len_after\": {}, \"slot_reused\": {}}}\n",
        churn.cycles,
        churn.us_per_cycle,
        churn.purged,
        churn.retired_drops,
        churn.jobs_retired,
        churn.queue_len_after,
        churn.slot_reused
    ));
    json.push_str("}\n");
    let mut f = std::fs::File::create(&out_path).expect("create bench artifact");
    f.write_all(json.as_bytes()).expect("write bench artifact");
    println!("wrote {out_path}");
    if !noise_within_bound(recovery.noise_ratio) {
        eprintln!(
            "journal-off ingest cost must be stable run to run: none-b / none-a = {:.2}x \
             after {} attempts (bound {RECOVERY_NOISE}x)",
            recovery.noise_ratio, recovery.attempts
        );
        std::process::exit(1);
    }
}
