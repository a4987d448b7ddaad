//! Remote ingestion over TCP: clients stream length-prefixed tuple
//! frames to an ingest server feeding the real-time runtime — the wire
//! path the paper's client machines use.
//!
//! Clients here send *bursts*: `IngestClient::send_many` writes several
//! frames with one syscall, the server's streaming decoder pulls the
//! whole burst out of one socket read, and `Runtime::ingest_frames`
//! splices all of it into the scheduler as one batch. The
//! run ends by printing the coalescing counters — frames per network
//! batch is the amortization the batched path buys.
//!
//! ```sh
//! cargo run --release --example network_ingest
//! ```

use cameo::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    // Server side: runtime + a deployed query + a TCP ingest endpoint.
    let rt = Arc::new(Runtime::start(RuntimeConfig::default().with_workers(2)));
    let spec = agg_query(
        &AggQueryParams::new("net-demo", 50_000, Micros::from_millis(50))
            .with_sources(2)
            .with_parallelism(2)
            .with_keys(8)
            .with_domain(TimeDomain::IngestionTime),
    );
    let job = rt.deploy(&spec, &ExpandOptions::default()).expect("deploy");
    let server = IngestServer::start(rt.clone(), "127.0.0.1:0")?;
    let addr = server.local_addr();
    println!("ingest server listening on {addr}");

    // Client side: two "client machines", each writing bursts of 8
    // frames with a single syscall per burst.
    const BURST_FRAMES: u64 = 8;
    const ROUNDS: u64 = 12;
    let mut clients: Vec<std::thread::JoinHandle<std::io::Result<u64>>> = Vec::new();
    for source in 0..2u32 {
        clients.push(std::thread::spawn(move || {
            let mut client = IngestClient::connect(addr)?;
            let mut sent = 0u64;
            for round in 0..ROUNDS {
                let frames: Vec<IngestFrame> = (0..BURST_FRAMES)
                    .map(|f| {
                        IngestFrame::addressed(
                            job,
                            source,
                            (0..25u64)
                                .map(|i| Tuple::new((round + f + i) % 8, 1, LogicalTime(0)))
                                .collect(),
                        )
                    })
                    .collect();
                sent += frames.iter().map(|f| f.tuples.len() as u64).sum::<u64>();
                client.send_many(&frames)?;
                std::thread::sleep(Duration::from_millis(10));
            }
            client.flush()?;
            Ok(sent)
        }));
    }
    let mut total_sent = 0;
    for c in clients {
        total_sent += c.join().expect("client thread")?;
    }

    rt.drain(Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(100));
    let stats = rt.job_stats(job).expect("job stats");
    println!(
        "clients sent {total_sent} tuples in {} frames; server ingested {} frames ({} dropped)",
        total_sent / 25,
        server.frames_received(),
        server.frames_dropped(),
    );
    let sched = rt.scheduler_stats();
    let ratio = if sched.net_batches > 0 {
        sched.frames_coalesced as f64 / sched.net_batches as f64
    } else {
        0.0
    };
    println!(
        "coalescing: {} frames in {} network batches ({ratio:.1} frames/read), \
         {} chain publications",
        sched.frames_coalesced, sched.net_batches, sched.batch_publications,
    );
    println!(
        "windows emitted: {}   latency p50={} p99={}",
        stats.outputs, stats.p50, stats.p99
    );
    server.stop();
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
    Ok(())
}
