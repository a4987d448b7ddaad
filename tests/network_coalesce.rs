//! Loopback integration tests for coalesced network ingress: frames
//! written in one send must travel the whole pipeline — socket read →
//! streaming decoder → `Runtime::ingest_frames` → per-shard batch
//! chains — as **one** scheduler batch, observable via
//! `SchedulerStats` (`net_batches`, `frames_coalesced`,
//! `batch_publications`).

use cameo::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn query(name: &str) -> cameo::dataflow::graph::JobSpec {
    agg_query(
        &AggQueryParams::new(name, 10_000, Micros::from_millis(500))
            .with_sources(2)
            .with_parallelism(2)
            .with_keys(8)
            .with_domain(TimeDomain::IngestionTime),
    )
}

fn frame(job: JobHandle, source: u32, base: u64, n: u64) -> IngestFrame {
    IngestFrame::addressed(job, source, tuples(base, n))
}

fn tuples(base: u64, n: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| Tuple::new(base + i, 1, LogicalTime(1_000 + base + i)))
        .collect()
}

fn wait_for(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    ok()
}

/// The acceptance property: N frames written in one send produce at
/// most shard-count mailbox publications (here: one — a 0-worker
/// runtime has a single shard, and nothing drains, so the counters
/// observe exactly what the socket read produced).
#[test]
fn one_send_coalesces_to_at_most_shard_count_publications() {
    const FRAMES: u64 = 8;
    let rt = Arc::new(Runtime::start(cameo::runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    assert_eq!(rt.shard_count(), 1);
    let job = rt
        .deploy(&query("coalesce"), &ExpandOptions::default())
        .expect("deploy");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").unwrap();
    let mut client = IngestClient::connect(server.local_addr()).unwrap();

    // One send: 8 small frames in a single write syscall. Over
    // loopback this is one TCP segment, so the (blocked) serve loop's
    // next read returns the whole burst.
    let frames: Vec<IngestFrame> = (0..FRAMES)
        .map(|f| frame(job, (f % 2) as u32, f * 100, 4))
        .collect();
    client.send_many(&frames).unwrap();

    assert!(
        wait_for(Duration::from_secs(5), || rt
            .scheduler_stats()
            .frames_coalesced
            >= FRAMES),
        "server ingested the whole burst"
    );
    let stats = rt.scheduler_stats();
    assert_eq!(stats.frames_coalesced, FRAMES);
    assert_eq!(
        stats.net_batches, 1,
        "8 frames in one send = one multi-frame ingest call"
    );
    assert!(
        stats.batch_publications <= rt.shard_count() as u64,
        "one send coalesced into <= shard-count mailbox publications: {stats:?}"
    );
    // Every frame routed: at least one message per frame, at most one
    // per parallel window instance (keys hash-partition across 2).
    let queued = rt.queue_len();
    assert!(
        (8..=16).contains(&queued),
        "8 frames route to 8..=16 messages, got {queued}"
    );
    assert_eq!(server.frames_received(), FRAMES);
    assert_eq!(server.frames_dropped(), 0);

    drop(client);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

/// End-to-end over a draining runtime: burst-sent frames flow through
/// the coalesced path and still produce windowed outputs; the
/// coalescing counters show multi-frame reads actually happened.
#[test]
fn coalesced_ingress_processes_end_to_end() {
    let rt = Arc::new(Runtime::start(
        cameo::runtime::runtime::RuntimeConfig::default().with_workers(2),
    ));
    let job = rt
        .deploy(&query("e2e"), &ExpandOptions::default())
        .expect("deploy");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").unwrap();
    let mut client = IngestClient::connect(server.local_addr()).unwrap();
    // Several bursts: window-filling tuples, then window-crossing ones.
    for round in 0..4u64 {
        let frames: Vec<IngestFrame> = (0..8u64)
            .map(|f| frame(job, (f % 2) as u32, round * 1_000 + f * 10, 4))
            .collect();
        client.send_many(&frames).unwrap();
        std::thread::sleep(Duration::from_millis(15));
    }
    for source in [0u32, 1] {
        client.send(&frame(job, source, 30_000_000, 1)).unwrap();
    }
    assert!(
        wait_for(Duration::from_secs(5), || server.frames_received() == 34),
        "all 34 frames ingested"
    );
    assert!(rt.drain(Duration::from_secs(5)));
    assert!(
        wait_for(Duration::from_secs(5), || rt
            .job_stats(job)
            .expect("job stats")
            .outputs
            >= 1),
        "windows fired through the coalesced path"
    );
    let stats = rt.scheduler_stats();
    assert_eq!(stats.frames_coalesced, 34);
    assert!(
        stats.net_batches <= stats.frames_coalesced,
        "coalescing cannot exceed one batch per frame: {stats:?}"
    );
    drop(client);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

/// Unknown-job frames inside a coalesced burst are dropped and counted
/// — they must not poison the valid frames sharing the read, and must
/// not kill the connection.
#[test]
fn unknown_job_frames_are_dropped_not_fatal() {
    let rt = Arc::new(Runtime::start(cameo::runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    let job = rt
        .deploy(&query("drop"), &ExpandOptions::default())
        .expect("deploy");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").unwrap();
    let mut client = IngestClient::connect(server.local_addr()).unwrap();
    client
        .send_many(&[
            frame(job, 0, 0, 3),
            IngestFrame {
                job: job.slot() + 77, // not deployed
                gen: job.generation(),
                source: 0,
                tuples: tuples(0, 3),
            },
            frame(job, 1, 100, 3),
        ])
        .unwrap();
    assert!(wait_for(Duration::from_secs(5), || server
        .frames_received()
        >= 2));
    assert_eq!(server.frames_received(), 2);
    assert_eq!(server.frames_dropped(), 1);
    // The connection survived: a later send still lands.
    client.send(&frame(job, 0, 500, 2)).unwrap();
    assert!(wait_for(Duration::from_secs(5), || server
        .frames_received()
        == 3));
    drop(client);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

/// Wire-level stale-handle safety (the point of format v2): undeploy a
/// job, redeploy into the *same slot*, and replay frames stamped with
/// the retired generation. Every stale frame must be rejected and
/// counted — never routed into the slot's new occupant — while frames
/// carrying the new generation land normally on the same connection.
#[test]
fn stale_generation_frames_are_rejected_after_slot_reuse() {
    let rt = Arc::new(Runtime::start(cameo::runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    let old = rt
        .deploy(&query("gen-old"), &ExpandOptions::default())
        .expect("deploy old");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").unwrap();
    let mut client = IngestClient::connect(server.local_addr()).unwrap();

    // Nothing drains (0 workers), so undeploy purges the old job's
    // queued messages and the counters below observe only the replay.
    rt.undeploy(old).expect("undeploy");
    let new = rt
        .deploy(&query("gen-new"), &ExpandOptions::default())
        .expect("redeploy");
    assert_eq!(new.slot(), old.slot(), "retired slot is reused");
    assert_ne!(new.generation(), old.generation(), "generation advanced");
    let base = rt.queue_len();

    // A coalesced burst mixing retired-handle frames with one valid
    // frame: the stale ones die at the generation check, the valid one
    // routes — same read, same connection.
    client
        .send_many(&[
            frame(old, 0, 0, 4), // stale generation
            frame(new, 0, 100, 4),
            frame(old, 1, 200, 4), // stale generation
        ])
        .unwrap();
    assert!(
        wait_for(Duration::from_secs(5), || server.gen_rejected_frames() == 2),
        "both stale frames rejected and counted, got {}",
        server.gen_rejected_frames()
    );
    assert!(wait_for(Duration::from_secs(5), || server
        .frames_received()
        == 1));
    assert_eq!(server.frames_dropped(), 0, "gen mismatch is not 'dropped'");
    let routed = rt.queue_len() - base;
    assert!(
        (1..=2).contains(&routed),
        "only the fresh frame routed (4 tuples, <= 2 window instances), got {routed}"
    );
    assert_eq!(rt.scheduler_stats().gen_rejected_frames, 2);

    // The connection survived the stale frames.
    client.send(&frame(new, 1, 300, 2)).unwrap();
    assert!(wait_for(Duration::from_secs(5), || server
        .frames_received()
        == 2));
    drop(client);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

/// The producer-facing half of the generation check: every rejected
/// frame comes back as a NACK control frame on the connection that
/// sent it, telling the producer which slot went stale, the generation
/// it sent, and the generation a live handle would carry.
#[test]
fn stale_generation_frames_are_nacked_to_the_producer() {
    let rt = Arc::new(Runtime::start(cameo::runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    let old = rt
        .deploy(&query("nack-old"), &ExpandOptions::default())
        .expect("deploy old");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").unwrap();
    // A second producer on the same serve loop that sends nothing stale:
    // no NACK may reach it.
    let mut bystander = IngestClient::connect(server.local_addr()).unwrap();
    let mut client = IngestClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(wait_for(Duration::from_secs(5), || server.conns_open() == 2));

    rt.undeploy(old).expect("undeploy");
    let new = rt
        .deploy(&query("nack-new"), &ExpandOptions::default())
        .expect("redeploy");
    assert_eq!(new.slot(), old.slot(), "retired slot is reused");

    // Two stale frames sandwiching a fresh one: exactly two NACKs come
    // back, in frame order, and the fresh frame routes silently.
    client
        .send_many(&[
            frame(old, 0, 0, 4), // stale generation
            frame(new, 0, 100, 4),
            frame(old, 1, 200, 4), // stale generation
        ])
        .unwrap();
    for _ in 0..2 {
        let nack = client
            .recv_nack()
            .expect("read control frame")
            .expect("server alive");
        assert_eq!(nack.job, old.slot());
        assert_eq!(nack.gen, old.generation());
        assert_eq!(nack.expected_gen, new.generation());
    }
    assert!(
        wait_for(Duration::from_secs(5), || server.nacks_sent() == 2),
        "both rejections NACKed, got {}",
        server.nacks_sent()
    );
    assert_eq!(server.nacks_dropped(), 0);
    assert_eq!(server.gen_rejected_frames(), 2);
    assert!(wait_for(Duration::from_secs(5), || server
        .frames_received()
        == 1));
    // Both NACKs were written before `nacks_sent` reached 2, so any
    // misrouted one would already sit in the bystander's socket.
    assert_no_nack(&mut bystander);

    // The data direction is unaffected by the control traffic, on both
    // connections.
    client.send(&frame(new, 1, 300, 2)).unwrap();
    bystander.send(&frame(new, 0, 400, 2)).unwrap();
    assert!(wait_for(Duration::from_secs(5), || server
        .frames_received()
        == 3));
    drop(client);
    drop(bystander);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

/// Assert that nothing — in particular no NACK — is waiting on
/// `client`'s connection. Callers first wait until every NACK is
/// settled; a loopback write lands in the peer's receive queue before
/// it returns, so a short read timeout suffices.
fn assert_no_nack(client: &mut IngestClient) {
    client
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let err = client
        .recv_nack()
        .expect_err("no NACK may reach a connection that sent nothing stale");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a read timeout, got {err:?}"
    );
}

/// Frames from several connections, all served by the one loop, each
/// reach the scheduler exactly once — no loss, no duplication.
#[test]
fn frames_from_many_connections_arrive_exactly_once() {
    const CLIENTS: usize = 8;
    const FRAMES_EACH: u64 = 8;
    let rt = Arc::new(Runtime::start(cameo::runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    let job = rt
        .deploy(&query("multi"), &ExpandOptions::default())
        .expect("deploy");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").unwrap();
    let mut clients: Vec<IngestClient> = (0..CLIENTS)
        .map(|_| IngestClient::connect(server.local_addr()).unwrap())
        .collect();
    assert!(
        wait_for(Duration::from_secs(5), || server.conns_open()
            == CLIENTS as u64),
        "all clients accepted"
    );
    for (ci, client) in clients.iter_mut().enumerate() {
        let frames: Vec<IngestFrame> = (0..FRAMES_EACH)
            .map(|f| frame(job, (f % 2) as u32, (ci as u64 * FRAMES_EACH + f) * 100, 4))
            .collect();
        client.send_many(&frames).unwrap();
    }

    let total = CLIENTS as u64 * FRAMES_EACH;
    assert!(
        wait_for(Duration::from_secs(5), || server.frames_received() >= total),
        "whole barrage ingested, got {}",
        server.frames_received()
    );
    // Exactly once: received counts match sends with nothing dropped,
    // rejected, or double-counted — on the wire counters and in the
    // scheduler's own coalescing counters.
    assert_eq!(server.frames_received(), total);
    assert_eq!(server.frames_dropped(), 0);
    assert_eq!(server.gen_rejected_frames(), 0);
    let stats = rt.scheduler_stats();
    assert_eq!(stats.frames_coalesced, total);
    assert_eq!(stats.gen_rejected_frames, 0);
    // Every tuple routed exactly once: 4 tuples per frame, hashed over
    // <= 2 parallel instances per frame.
    let queued = rt.queue_len() as u64;
    assert!(
        (total..=2 * total).contains(&queued),
        "{total} frames route to {total}..={} messages, got {queued}",
        2 * total
    );
    assert_eq!(server.conns_peak(), CLIENTS as u64);

    drop(clients);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

/// Drop mid-burst: a client writes a burst and disconnects immediately
/// — the loop may well observe the close in the same readiness burst
/// as the data. The loop must ingest what arrived, release the
/// connection, and keep serving the other connections without a
/// hiccup.
#[test]
fn client_disconnect_mid_burst_does_not_stall_the_loop() {
    const DOOMED: usize = 2;
    const BURST: u64 = 16;
    let rt = Arc::new(Runtime::start(cameo::runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    let job = rt
        .deploy(&query("dropmid"), &ExpandOptions::default())
        .expect("deploy");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").unwrap();
    let mut survivors: Vec<IngestClient> = (0..2)
        .map(|_| IngestClient::connect(server.local_addr()).unwrap())
        .collect();
    let mut doomed: Vec<IngestClient> = (0..DOOMED)
        .map(|_| IngestClient::connect(server.local_addr()).unwrap())
        .collect();
    assert!(wait_for(Duration::from_secs(5), || server.conns_open() == 4));

    // Burst-then-hangup: the write and the close race the serve loop's
    // readiness burst. TCP delivers the buffered bytes either way, so
    // every frame must still land exactly once.
    for client in doomed.iter_mut() {
        let frames: Vec<IngestFrame> = (0..BURST)
            .map(|f| frame(job, (f % 2) as u32, f * 100, 4))
            .collect();
        client.send_many(&frames).unwrap();
    }
    drop(doomed);

    let doomed_total = DOOMED as u64 * BURST;
    assert!(
        wait_for(Duration::from_secs(5), || server.frames_received()
            >= doomed_total),
        "buffered frames of a closed connection still ingest, got {}",
        server.frames_received()
    );
    assert_eq!(server.frames_received(), doomed_total);
    assert_eq!(server.frames_dropped(), 0);
    assert!(
        wait_for(Duration::from_secs(5), || server.conns_open() == 2),
        "closed connections released, got {}",
        server.conns_open()
    );

    // The surviving connections are still served: later sends land.
    for (i, client) in survivors.iter_mut().enumerate() {
        client
            .send(&frame(job, i as u32, 10_000 + i as u64, 3))
            .unwrap();
    }
    assert!(
        wait_for(Duration::from_secs(5), || server.frames_received()
            == doomed_total + 2),
        "survivors still served after mid-burst disconnects"
    );
    drop(survivors);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

/// Accept runs inside the serve loop, so a connection can close and a
/// new one be accepted in the same readiness burst. Each round, a
/// doomed producer sends a fresh frame, a stale frame and a corrupt
/// length prefix in one write: the server decodes both frames, closes
/// the connection on the corrupt prefix, and owes the stale frame a
/// NACK when the burst is submitted. A newcomer connects right behind
/// it. The newcomer must not inherit the closed connection's table
/// slot within that burst: the NACK is dropped, never written to the
/// newcomer, and the newcomer's own frames are served as its own. A
/// firehose connection keeps the loop busy, so the close and the
/// accept of a round pile up into one wait.
#[test]
fn closed_and_accepted_in_one_burst_never_share_a_token() {
    use std::io::Write;
    const ROUNDS: u64 = 40;
    const HOSE_FRAMES: u64 = 64;
    let rt = Arc::new(Runtime::start(cameo::runtime::runtime::RuntimeConfig {
        workers: 0,
        ..Default::default()
    }));
    let old = rt
        .deploy(&query("alias-old"), &ExpandOptions::default())
        .expect("deploy old");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    rt.undeploy(old).expect("undeploy");
    let new = rt
        .deploy(&query("alias-new"), &ExpandOptions::default())
        .expect("redeploy");

    // The firehose writes bursts from its own thread until the rounds
    // are done, and reports how many frames it sent.
    let mut hose = IngestClient::connect(addr).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let firehose = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut sent = 0u64;
            while !done.load(Ordering::Relaxed) {
                let frames: Vec<IngestFrame> = (0..HOSE_FRAMES)
                    .map(|f| frame(new, (f % 2) as u32, (sent + f) * 10, 16))
                    .collect();
                hose.send_many(&frames).unwrap();
                sent += HOSE_FRAMES;
            }
            (hose, sent)
        })
    };

    let mut newcomers = Vec::new();
    for round in 0..ROUNDS {
        let mut doomed = std::net::TcpStream::connect(addr).unwrap();
        // The firehose, the earlier newcomers and `doomed`.
        let open = 2 + round;
        assert!(wait_for(Duration::from_secs(5), || server.conns_open() == open));
        let mut bytes = encode_frame(&frame(new, 0, round * 100, 2));
        bytes.extend_from_slice(&encode_frame(&frame(old, 1, round * 100, 2)));
        bytes.extend_from_slice(&(cameo::runtime::net::MAX_FRAME + 1).to_be_bytes());
        doomed.write_all(&bytes).unwrap();
        newcomers.push(IngestClient::connect(addr).unwrap());
        assert!(wait_for(Duration::from_secs(5), || server
            .gen_rejected_frames()
            == round + 1));
    }
    done.store(true, Ordering::Relaxed);
    let (hose, hose_sent) = firehose.join().unwrap();

    // The doomed connection was gone before its burst was submitted, so
    // every NACK is dropped, and none reached a newcomer.
    assert_eq!(server.nacks_dropped(), ROUNDS);
    assert_eq!(server.nacks_sent(), 0);
    for newcomer in &mut newcomers {
        assert_no_nack(newcomer);
    }
    // Each newcomer is still served as itself.
    for (i, newcomer) in newcomers.iter_mut().enumerate() {
        newcomer
            .send(&frame(new, 0, 1_000_000 + i as u64, 1))
            .unwrap();
    }
    let total = hose_sent + 2 * ROUNDS;
    assert!(
        wait_for(Duration::from_secs(10), || server.frames_received()
            == total),
        "every fresh frame received once: {} of {total}",
        server.frames_received()
    );
    assert_eq!(server.gen_rejected_frames(), ROUNDS);
    assert_eq!(server.conns_open(), 1 + ROUNDS);
    drop(hose);
    drop(newcomers);
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}
