//! Heap allocations per frame on the runtime's data path: ingest →
//! fan-out → publish → execute → deliver, counted by a global allocator.
//!
//! A one-worker runtime runs `ingest → Passthrough` chains of one and
//! three operator hops, and every frame is waited for at the subscriber
//! before the next one is ingested (closed loop). Open loop, the counts
//! follow timing (how many frames one drain or one parked wake-up
//! covers); closed loop they do not, so the thresholds can be tight.
//! Each row runs a warm-up first, so buffers that are kept across
//! messages have reached their size, then counts over `FRAMES` frames.
//! The frames' tuple vectors are built before the counted window.
//!
//! Run with `--nocapture` to see every row:
//!
//! ```sh
//! cargo test --release -q -p cameo --test alloc_counts -- --nocapture
//! ```

use cameo::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counts every allocation and reallocation of the process (all
/// threads, the runtime's worker included) and forwards to `System`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; counting touches only two
// atomics and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller meets `alloc`'s contract, the one `System` needs.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as in `dealloc`, and the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: usize = 200;
const FRAMES: usize = 5_000;
/// Frames per `ingest_frames` call: one socket read's worth.
const PER_CALL: usize = 64;

/// How a row hands its frames to the runtime.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// One `Runtime::ingest` call per frame.
    Ingest,
    /// `PER_CALL` frames per `Runtime::ingest_frames` call.
    IngestFrames,
}

/// Allocations and bytes per frame of one row.
#[derive(Clone, Copy, Debug)]
struct Row {
    allocs: f64,
    bytes: f64,
}

/// `ingest → hops × Passthrough`, every stage of parallelism 1.
fn chain(hops: usize) -> JobSpec {
    let mut b = JobBuilder::new("chain", Micros::from_secs(1), TimeDomain::IngestionTime);
    let mut prev = b.ingest("src", 1);
    for h in 0..hops {
        let next = b.stage(
            format!("hop{h}"),
            1,
            OperatorKind::Regular,
            Micros(1),
            |_| Box::new(Passthrough),
        );
        b.connect(prev, next, Routing::Forward);
        prev = next;
    }
    b.build().expect("valid chain")
}

fn tuples(frame: usize, n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| Tuple::new((frame * n + i) as u64, 1, LogicalTime(1 + frame as u64)))
        .collect()
}

/// The calls a row makes, each a list of frames: one frame per call
/// for `Ingest`, `PER_CALL` for `IngestFrames`.
fn calls(
    job: JobHandle,
    entry: Entry,
    frames: std::ops::Range<usize>,
    tuples_per_frame: usize,
) -> Vec<Vec<IngestFrame>> {
    let per_call = match entry {
        Entry::Ingest => 1,
        Entry::IngestFrames => PER_CALL,
    };
    let frames: Vec<usize> = frames.collect();
    frames
        .chunks(per_call)
        .map(|call| {
            call.iter()
                .map(|&f| IngestFrame::addressed(job, 0, tuples(f, tuples_per_frame)))
                .collect()
        })
        .collect()
}

/// Make `calls` closed loop: each waits for all of its outputs before
/// the next one.
fn run(
    rt: &Runtime,
    job: JobHandle,
    outputs: &OutputSubscription,
    entry: Entry,
    calls: Vec<Vec<IngestFrame>>,
) {
    for call in calls {
        let n = call.len();
        match entry {
            Entry::Ingest => {
                for f in call {
                    rt.ingest(job, f.source, f.tuples).expect("job is live");
                }
            }
            Entry::IngestFrames => assert_eq!(rt.ingest_frames(call).frames, n),
        }
        for _ in 0..n {
            outputs
                .recv_timeout(Duration::from_secs(10))
                .expect("every frame produces one output");
        }
    }
}

/// Allocations per frame for `hops` hops of `tuples_per_frame` tuples
/// fed through `entry`.
fn measure(entry: Entry, hops: usize, tuples_per_frame: usize) -> Row {
    let rt = Runtime::start(RuntimeConfig::default().with_workers(1));
    let job = rt
        .deploy(&chain(hops), &ExpandOptions::default())
        .expect("deploy");
    let outputs = rt.subscribe(job).expect("subscribe");
    let warm = calls(job, entry, 0..WARMUP, tuples_per_frame);
    run(&rt, job, &outputs, entry, warm);
    let counted = calls(job, entry, WARMUP..WARMUP + FRAMES, tuples_per_frame);
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    run(&rt, job, &outputs, entry, counted);
    let (a1, b1) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    drop(outputs);
    rt.shutdown();
    Row {
        allocs: (a1 - a0) as f64 / FRAMES as f64,
        bytes: (b1 - b0) as f64 / FRAMES as f64,
    }
}

#[test]
fn the_data_path_allocates_a_bounded_count_per_frame_and_per_hop() {
    let rows = [
        (Entry::Ingest, 1, 1),
        (Entry::Ingest, 1, 16),
        (Entry::Ingest, 3, 16),
        (Entry::IngestFrames, 1, 16),
        (Entry::IngestFrames, 3, 16),
    ];
    let got: Vec<Row> = rows
        .iter()
        .map(|&(entry, hops, tuples)| {
            let row = measure(entry, hops, tuples);
            println!(
                "{entry:?}, {hops} hop(s), {tuples} tuple(s): {:.2} allocations, {:.0} B per frame",
                row.allocs, row.bytes
            );
            row
        })
        .collect();
    let per_hop = |one: Row, three: Row| (three.allocs - one.allocs) / 2.0;
    assert!(
        got[0].allocs <= 3.1,
        "one-hop single-tuple ingest: {:.2} allocations per frame",
        got[0].allocs
    );
    for (entry, one, three) in [
        ("ingest", got[1], got[2]),
        ("ingest_frames", got[3], got[4]),
    ] {
        assert!(
            per_hop(one, three) <= 1.05,
            "{entry}: {:.2} allocations per extra stateless hop",
            per_hop(one, three)
        );
    }
    assert!(
        got[3].allocs <= 2.1,
        "one-hop ingest_frames, {PER_CALL} per call: {:.2} allocations per frame",
        got[3].allocs
    );
}
