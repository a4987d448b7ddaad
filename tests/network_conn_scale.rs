//! The network plane at scale: thousands of live connections cost the
//! process no threads beyond one accept thread plus one per serve loop,
//! and every accounting invariant of the sharded ingress still holds
//! at that size — each frame received exactly once, a stale-generation
//! frame rejected and counted but never received, the per-loop
//! counters summing to the handle totals, and least-loaded assignment
//! giving every loop a connection.
//!
//! One `#[test]` in its own binary, so `/proc/self/task` counts only
//! this test's threads. The clients are plain in-process `TcpStream`s;
//! each connection holds two descriptors, so a cell that does not fit
//! under the open-file limit is skipped with a note.

use cameo::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(connections, serve loops)` per cell.
const CELLS: [(usize, usize); 4] = [(16, 1), (1_000, 1), (1_000, 2), (4_000, 4)];
/// Frames across all connections of a cell (at least two each).
const FRAME_BUDGET: usize = 8_000;
const TUPLES: u64 = 8;
/// Connections opened before waiting for the server to assign them;
/// under the listen backlog of 128.
const CONNECT_STEP: usize = 64;

/// OS threads in this process; `None` where procfs is unavailable.
fn threads_now() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// The soft open-file limit; `None` where procfs is unavailable.
fn open_file_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

fn wait_for(what: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn frame(slot: u32, gen: u32, base: u64) -> IngestFrame {
    IngestFrame {
        job: slot,
        gen,
        source: 0,
        tuples: (0..TUPLES)
            .map(|i| Tuple::new(i, 1, LogicalTime(1 + base + i)))
            .collect(),
    }
}

fn sweep_cell(conns: usize, loops: usize) {
    let rt = Arc::new(Runtime::start(RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    let job = rt
        .deploy(
            &agg_query(
                &AggQueryParams::new("conn-scale", 1_000_000, Micros::from_millis(800))
                    .with_sources(1)
                    .with_parallelism(1)
                    .with_keys(8),
            ),
            &ExpandOptions::default(),
        )
        .expect("deploy");
    let before = threads_now();
    let server = IngestServer::start_with(
        rt.clone(),
        "127.0.0.1:0",
        IngestServerConfig::new().with_loops(loops),
    )
    .expect("bind loopback");

    // Connect in steps the accept thread keeps up with: a full listen
    // backlog drops the SYN, and the kernel retries it a second later.
    let mut clients: Vec<TcpStream> = Vec::with_capacity(conns);
    while clients.len() < conns {
        let step = CONNECT_STEP.min(conns - clients.len());
        clients
            .extend((0..step).map(|_| TcpStream::connect(server.local_addr()).expect("connect")));
        wait_for("every connection assigned", || {
            server.conns_open() == clients.len() as u64
        });
    }

    // Every connection replays the same slab, encoded once.
    let frames_each = (FRAME_BUDGET / conns).max(2);
    let mut slab = Vec::new();
    for f in 0..frames_each as u64 {
        frame(job.slot(), job.generation(), f * TUPLES).encode_into(&mut slab);
    }
    for c in clients.iter_mut() {
        c.write_all(&slab).expect("barrage write");
    }
    let total = (conns * frames_each) as u64;
    wait_for("the whole barrage", || server.frames_received() >= total);
    assert_eq!(
        server.frames_received(),
        total,
        "{conns} conns: exactly once"
    );
    assert_eq!(server.frames_dropped(), 0);
    assert_eq!(rt.scheduler_stats().frames_coalesced, total);

    // A generation this slot never issued: rejected and counted, never
    // received.
    let mut probe = IngestClient::connect(server.local_addr()).expect("probe connect");
    probe
        .send(&frame(job.slot(), job.generation().wrapping_add(1), 0))
        .expect("probe send");
    wait_for("the stale frame's rejection", || {
        server.gen_rejected_frames() == 1
    });
    assert_eq!(
        server.frames_received(),
        total,
        "a stale frame is never received"
    );

    // Every connection and the probe are live: the ingress plane costs
    // one accept thread plus `loops` serve loops, whatever `conns` is.
    if let (Some(before), Some(now)) = (before, threads_now()) {
        assert_eq!(
            now,
            before + 1 + loops,
            "{conns} conns on {loops} loops: 1 accept thread + {loops} serve loops"
        );
    }

    // The probe stays open across these reads: its close is one more
    // readiness burst, and landing between two reads it would show as
    // a mismatch.
    let per_loop = server.loop_stats();
    assert_eq!(per_loop.len(), loops, "one stats row per serve loop");
    assert_eq!(
        per_loop.iter().map(|l| l.frames).sum::<u64>(),
        server.frames_received(),
        "per-loop frames sum to the total"
    );
    assert_eq!(
        per_loop.iter().map(|l| l.readiness_bursts).sum::<u64>(),
        server.readiness_bursts(),
        "per-loop bursts sum to the total"
    );
    assert_eq!(
        per_loop.iter().map(|l| l.gen_rejected).sum::<u64>(),
        server.gen_rejected_frames(),
        "per-loop rejections sum to the total"
    );
    for (i, l) in per_loop.iter().enumerate() {
        assert!(
            l.conns_peak >= 1,
            "loop {i} never owned a connection at {conns} conns"
        );
    }

    drop(probe);
    drop(clients);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

#[test]
fn thread_count_and_accounting_hold_from_16_to_4000_connections() {
    for (conns, loops) in CELLS {
        if open_file_limit().is_some_and(|limit| limit < 2 * conns + 64) {
            eprintln!("skipping {conns} conns: the open-file limit is too low");
            continue;
        }
        sweep_cell(conns, loops);
    }
}
