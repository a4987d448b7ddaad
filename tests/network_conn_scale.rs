//! The network plane at scale: thousands of live connections cost the
//! process exactly one thread — the ingest server's serve loop — and
//! every accounting invariant still holds at that size: each frame
//! received exactly once, a stale-generation frame rejected and counted
//! but never received, and the open / peak connection counts exact.
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

/// Connections per cell.
const CELLS: [usize; 3] = [16, 1_000, 4_000];
/// Frames across all connections of a cell (at least two each).
const FRAME_BUDGET: usize = 8_000;
const TUPLES: u64 = 8;
/// Connections opened before waiting for the server to accept them;
/// under the listen backlog of 128.
const CONNECT_STEP: usize = 64;

/// The names of this process's OS threads; `None` where procfs is
/// unavailable.
fn thread_names() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_owned())
            .collect(),
    )
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

fn sweep_cell(conns: usize) {
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
    let before = thread_names();
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").expect("bind loopback");

    // Connect in steps the serve loop keeps up with: a full listen
    // backlog drops the SYN, and the kernel retries it a second later.
    let mut clients: Vec<TcpStream> = Vec::with_capacity(conns);
    while clients.len() < conns {
        let step = CONNECT_STEP.min(conns - clients.len());
        clients
            .extend((0..step).map(|_| TcpStream::connect(server.local_addr()).expect("connect")));
        wait_for("every connection accepted", || {
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
    // one serve loop, whatever `conns` is, and counts every connection
    // it holds.
    if let (Some(before), Some(now)) = (before, thread_names()) {
        assert_eq!(
            now.len(),
            before.len() + 1,
            "{conns} conns: one serve-loop thread"
        );
        let net = now.iter().filter(|n| n.starts_with("cameo-net")).count();
        assert_eq!(
            net, 1,
            "{conns} conns: the one new thread is cameo-net: {now:?}"
        );
    }
    assert_eq!(
        server.conns_open(),
        conns as u64 + 1,
        "clients + probe open"
    );
    assert_eq!(server.conns_peak(), conns as u64 + 1, "nothing closed yet");

    drop(probe);
    drop(clients);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

#[test]
fn thread_count_and_accounting_hold_from_16_to_4000_connections() {
    for conns in CELLS {
        if open_file_limit().is_some_and(|limit| limit < 2 * conns + 64) {
            eprintln!("skipping {conns} conns: the open-file limit is too low");
            continue;
        }
        sweep_cell(conns);
    }
}
