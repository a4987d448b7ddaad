//! TCP event ingestion: remote clients feed tuples into a deployed job
//! over a length-prefixed binary protocol (wire format v2 — see
//! [`crate::msg`]).
//!
//! The paper's testbed drives servers from 16 separate client machines;
//! the ROADMAP's north star is millions of users. This module serves
//! both from **one thread** (`cameo-net`): a single epoll loop whose
//! set holds the listener and every connection, so server thread count
//! and idle-connection cost are O(1) in the connection count — the
//! C100K shape — instead of one OS thread (≈8 MiB of stack address
//! space and a scheduler entry) per client.
//!
//! ## Accept and serve in one loop
//!
//! The listener sits in the loop's epoll set under a reserved token.
//! When it reports ready, the loop accepts every pending connection
//! inline, makes each non-blocking with Nagle off, and registers it in
//! the same epoll set under its connection-table index. A wake-up on
//! which only the listener was ready reads no frames and is not
//! counted as a readiness burst.
//!
//! Indices freed by a close are reused only after the burst that freed
//! them: connections accepted mid-burst draw from the free list as it
//! stood when the burst began, so a not-yet-handled event or a pending
//! NACK for a closed connection can never reach a connection accepted
//! in the same burst.
//!
//! ## Coalesced ingress, per readiness burst
//!
//! **All frames that arrive in one readiness burst enter the scheduler
//! as one batch.** Each `epoll_wait` return delivers the set of
//! currently readable connections; the loop issues one `read` per ready
//! connection into that connection's own [`FrameDecoder`] (an adaptive
//! buffer that carries partial frames across reads and across bursts),
//! then hands the frames of *all* ready connections to
//! [`Runtime::ingest_frames`] in chunks of up to `SUBMIT_CHUNK` frames
//! — one mailbox publication, one hint update and one worker wake per
//! chunk, however many connections contributed. An event loop coalesces
//! *across* its sockets, so batching gets stronger as connection count
//! grows. Readiness is level-triggered: a connection with more buffered
//! data than one read pulled simply reports ready again on the next
//! wait, which keeps the loop starvation-free without
//! read-until-`EAGAIN` inner loops.
//!
//! `SchedulerStats::frames_coalesced` / `net_batches` record the
//! achieved frames-per-batch ratio; [`IngestServer::readiness_bursts`]
//! and [`IngestServer::conns_peak`] describe the loop.
//!
//! ## Overload behavior
//!
//! When the process runs out of file descriptors (`EMFILE`/`ENFILE`),
//! the loop sheds the pending connection gracefully — accept it using a
//! reserved descriptor, close it, count it
//! ([`IngestServer::accepts_shed`]) — instead of tearing down the
//! server or spinning on a backlog that level-triggered readiness would
//! re-report forever.

use crate::runtime::Runtime;
use cameo_core::epoll::Epoll;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub use crate::msg::{
    decode_payload, encode_frame, read_nack, FrameDecoder, IngestFrame, NackFrame, HEADER_WIRE,
    MAX_FRAME, NACK_WIRE, TUPLE_WIRE,
};

/// The serve loop's counters, written by the loop and read by the
/// [`IngestServer`] accessors.
#[derive(Default)]
struct Counters {
    frames: AtomicU64,
    dropped: AtomicU64,
    gen_rejected: AtomicU64,
    readiness_bursts: AtomicU64,
    conns_open: AtomicU64,
    conns_peak: AtomicU64,
    accepts_shed: AtomicU64,
    nacks_sent: AtomicU64,
    nacks_dropped: AtomicU64,
}

impl Counters {
    /// Fold one `ingest_frames` outcome into the wire counters.
    fn record(&self, out: &crate::runtime::IngestOutcome) {
        self.frames.fetch_add(out.frames as u64, Ordering::Relaxed);
        self.dropped
            .fetch_add(out.dropped as u64, Ordering::Relaxed);
        self.gen_rejected
            .fetch_add(out.gen_rejected as u64, Ordering::Relaxed);
    }

    fn conn_opened(&self) {
        let open = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(open, Ordering::Relaxed);
    }

    fn conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Write one NACK control frame back to the producer whose frame
/// failed the generation check. Best-effort: a full socket (the
/// producer is not reading) or any write error drops the NACK and
/// counts it — the rejection itself is already counted either way, and
/// a NACK must never be allowed to stall the serve loop.
fn send_nack(stream: &mut TcpStream, rej: &crate::runtime::RejectedFrame, c: &Counters) {
    let buf = NackFrame {
        job: rej.job,
        gen: rej.gen,
        expected_gen: rej.expected_gen,
    }
    .encode();
    let mut off = 0;
    // Abandoning a *partially* written control frame would desync the
    // producer's control-stream reader, so once the first byte is out
    // the remainder gets a short bounded retry (the frame is 20 bytes —
    // any drain of the socket buffer makes room for all of it). In
    // practice a write this small is all-or-nothing.
    let mut retries = 100;
    loop {
        match stream.write(&buf[off..]) {
            Ok(0) => break,
            Ok(n) => {
                off += n;
                if off == buf.len() {
                    c.nacks_sent.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && off > 0 && retries > 0 => {
                retries -= 1;
                std::thread::yield_now();
            }
            Err(_) => break,
        }
    }
    c.nacks_dropped.fetch_add(1, Ordering::Relaxed);
}

/// A TCP ingestion server feeding a [`Runtime`]. One thread — the
/// epoll serve loop described in the module docs — accepts and serves
/// *every* connection; thread count does not grow with client count.
pub struct IngestServer {
    addr: std::net::SocketAddr,
    thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

impl IngestServer {
    /// Bind and start the serve loop (thread `cameo-net`). Frames
    /// addressed to jobs this runtime has not deployed are dropped
    /// (counted via [`frames_dropped`](Self::frames_dropped), not
    /// fatal), and frames carrying a stale slot generation are rejected
    /// (counted via [`gen_rejected_frames`](Self::gen_rejected_frames)):
    /// clients may race deployment and undeployment.
    pub fn start(runtime: Arc<Runtime>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let ep = Epoll::new()?;
        ep.add(listener.as_raw_fd(), LISTENER_TOKEN)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let thread = {
            let stop = stop.clone();
            let counters = counters.clone();
            std::thread::Builder::new()
                .name("cameo-net".into())
                .spawn(move || serve_loop(&runtime, &listener, ep, &stop, &counters))?
        };
        Ok(IngestServer {
            addr: local,
            thread: Some(thread),
            stop,
            counters,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Frames successfully ingested so far (dropped and gen-rejected
    /// frames excluded).
    pub fn frames_received(&self) -> u64 {
        self.counters.frames.load(Ordering::Relaxed)
    }

    /// Well-formed frames dropped because their jobs-table slot was
    /// vacant (job never deployed, or already retired) or its occupant
    /// was draining mid-`undeploy`.
    pub fn frames_dropped(&self) -> u64 {
        self.counters.dropped.load(Ordering::Relaxed)
    }

    /// Frames rejected at the wire-format-v2 generation check: the
    /// sender's handle went stale (its job was undeployed, the slot
    /// possibly reused) while the frame was in flight. Never delivered
    /// to the slot's new occupant.
    pub fn gen_rejected_frames(&self) -> u64 {
        self.counters.gen_rejected.load(Ordering::Relaxed)
    }

    /// Readiness bursts served: `epoll_wait` returns that delivered at
    /// least one ready *connection* (listener-only wake-ups excluded).
    /// All frames read in one burst enter the scheduler as one batch,
    /// so `frames_received / readiness_bursts` is the cross-connection
    /// coalescing ratio.
    pub fn readiness_bursts(&self) -> u64 {
        self.counters.readiness_bursts.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn conns_open(&self) -> u64 {
        self.counters.conns_open.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently open connections.
    pub fn conns_peak(&self) -> u64 {
        self.counters.conns_peak.load(Ordering::Relaxed)
    }

    /// NACK control frames ([`NackFrame`]) written back to producers in
    /// response to generation-rejected frames, each on the connection
    /// that sent the frame. Under normal operation `nacks_sent +
    /// nacks_dropped == gen_rejected_frames`.
    pub fn nacks_sent(&self) -> u64 {
        self.counters.nacks_sent.load(Ordering::Relaxed)
    }

    /// NACKs abandoned best-effort: the producer's socket had no room
    /// (it is not reading), its connection closed before the NACK could
    /// be written, or the write failed outright.
    pub fn nacks_dropped(&self) -> u64 {
        self.counters.nacks_dropped.load(Ordering::Relaxed)
    }

    /// Connections shed at accept because the process was out of file
    /// descriptors (`EMFILE`/`ENFILE`): accepted via the reserve
    /// descriptor, closed immediately, server intact.
    pub fn accepts_shed(&self) -> u64 {
        self.counters.accepts_shed.load(Ordering::Relaxed)
    }

    /// Stop serving and join the serve loop; the listener and every
    /// open connection are closed.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// How long one `epoll_wait` may sleep before re-checking the stop
/// flag. Long enough to keep the idle loop cold, short enough that
/// `stop()` returns promptly.
const WAIT_MS: i32 = 25;

/// Most events one `epoll_wait` returns; more ready descriptors simply
/// report again on the next wait.
const MAX_EVENTS: usize = 1024;

/// Epoll token reserved for the listening socket (connection tokens are
/// table indices, which stay far below this).
const LISTENER_TOKEN: u64 = u64::MAX;

/// `errno` values for descriptor exhaustion (Linux).
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;

/// Submit the burst batch once it holds this many frames rather than
/// accumulating a whole readiness burst first. Under load a single
/// burst can decode tens of thousands of frames (every connection's
/// buffer full); submitting in bounded chunks keeps the frames being
/// routed resident in cache and bounds the first-frame latency of a
/// burst, while sparse bursts (many connections, a frame or two each)
/// still coalesce across connections up to this size.
const SUBMIT_CHUNK: usize = 512;

/// One registered connection: its socket and the streaming decoder
/// carrying partial frames across reads. The decoder starts small
/// ([`crate::msg::ADAPTIVE_BUF_INIT`]) and grows only under load, so
/// ten thousand mostly-idle connections stay cheap.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

/// The serve loop: one epoll set holding the listener and every
/// connection. Accepts inline and keeps the coalescing invariant — all
/// frames of one readiness burst enter the scheduler as one batch (in
/// `SUBMIT_CHUNK` chunks). See the module docs.
fn serve_loop(
    rt: &Runtime,
    listener: &TcpListener,
    mut ep: Epoll,
    stop: &AtomicBool,
    c: &Counters,
) {
    // The reserve descriptor backing graceful EMFILE shedding: held
    // open so that, at exhaustion, dropping it frees exactly one fd to
    // accept-then-close the pending connection with.
    let mut reserve = std::fs::File::open("/dev/null").ok();
    // Slab-style connection table: the epoll token of a connection is
    // its index here, freed indices are reused LIFO.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // Indices freed during the current burst: reuse is deferred until
    // the burst's events are all handled, so a not-yet-processed event
    // for a closed connection can never alias a connection accepted
    // later in the same burst.
    let mut freed: Vec<usize> = Vec::new();
    let mut events = Vec::new();
    // Frames decoded across all connections of the current burst; one
    // `ingest_frames` call drains it. Reused, so steady state allocates
    // nothing here.
    let mut batch: Vec<IngestFrame> = Vec::new();
    // `origins[i]` is the connection-table index that contributed
    // `batch[i]`: `ingest_frames` reports generation rejections by
    // frame ordinal, and this maps each ordinal back to the producer
    // that must be NACKed. Drained in lockstep with `batch`.
    let mut origins: Vec<usize> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        if ep.wait(&mut events, MAX_EVENTS, WAIT_MS).is_err() {
            break;
        }
        // A burst is only a burst if a *connection* was ready; a
        // listener-only wake-up reads no frames and must not dilute the
        // frames-per-burst coalescing ratio.
        if events.iter().any(|ev| ev.token != LISTENER_TOKEN) {
            c.readiness_bursts.fetch_add(1, Ordering::Relaxed);
        }
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_burst(listener, &ep, &mut conns, &mut free, &mut reserve, c);
                continue;
            }
            let idx = ev.token as usize;
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue; // closed earlier in this burst
            };
            // One read per ready connection per burst (level-triggered
            // epoll re-reports leftovers), then decode everything it
            // completed into the shared burst batch.
            let close = match conn.decoder.fill(&mut conn.stream) {
                // Clean EOF only at a frame boundary; EOF inside a
                // partial frame is a truncation either way the
                // connection is done.
                Ok(0) => true,
                Ok(_) => {
                    let bad = conn.decoder.decode_available(&mut batch).is_err();
                    // Frames decoded before a protocol error still
                    // entered the batch: attribute everything new to
                    // this connection.
                    origins.resize(batch.len(), idx);
                    bad
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
                Err(_) => true,
            };
            if close {
                // Dropping the stream closes the fd, which deregisters
                // it from the epoll set implicitly.
                conns[idx] = None;
                freed.push(idx);
                c.conn_closed();
            }
            if batch.len() >= SUBMIT_CHUNK {
                submit_burst(rt, &mut conns, &mut batch, &mut origins, c);
            }
        }
        if !batch.is_empty() {
            // Whatever the burst's tail produced — still one scheduler
            // batch for every remaining frame of every connection.
            submit_burst(rt, &mut conns, &mut batch, &mut origins, c);
        }
        free.append(&mut freed);
    }
}

/// Submit the accumulated burst batch and NACK every generation
/// rejection back to the connection that sent it, mapping each
/// rejection's frame ordinal through `origins`. A rejection whose
/// connection closed earlier in the same burst is counted as a dropped
/// NACK.
fn submit_burst(
    rt: &Runtime,
    conns: &mut [Option<Conn>],
    batch: &mut Vec<IngestFrame>,
    origins: &mut Vec<usize>,
    c: &Counters,
) {
    let out = rt.ingest_frames(batch.drain(..));
    for rej in &out.rejected {
        match origins
            .get(rej.index)
            .and_then(|&i| conns.get_mut(i))
            .and_then(Option::as_mut)
        {
            Some(conn) => send_nack(&mut conn.stream, rej, c),
            None => {
                c.nacks_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    origins.clear();
    c.record(&out);
}

/// Accept every pending connection (the listener is level-triggered
/// too, but draining it here saves wait round-trips under connect
/// storms) and register each in the loop's epoll set under a slab index
/// from `free` — the free list as it stood before this burst, never an
/// index freed within it. Descriptor exhaustion sheds gracefully via
/// the reserve fd.
fn accept_burst(
    listener: &TcpListener,
    ep: &Epoll,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    reserve: &mut Option<std::fs::File>,
    c: &Counters,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue; // drop: an unusable socket
                }
                stream.set_nodelay(true).ok();
                let idx = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                if ep.add(stream.as_raw_fd(), idx as u64).is_err() {
                    free.push(idx);
                    continue; // drop: never served
                }
                conns[idx] = Some(Conn {
                    stream,
                    decoder: FrameDecoder::new(),
                });
                c.conn_opened();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) => {
                // Out of descriptors: accept() failed but the
                // connection is still in the backlog, and level-
                // triggered readiness would re-report it forever. Free
                // one fd (the reserve), accept the connection into it,
                // close it immediately, then re-arm the reserve —
                // graceful shed, server intact.
                drop(reserve.take());
                if let Ok((doomed, _)) = listener.accept() {
                    drop(doomed);
                    c.accepts_shed.fetch_add(1, Ordering::Relaxed);
                }
                *reserve = std::fs::File::open("/dev/null").ok();
                return;
            }
            Err(_) => return,
        }
    }
}

/// Client-side sender.
pub struct IngestClient {
    stream: TcpStream,
    /// Per-frame encode buffers, reused across
    /// [`send_many`](Self::send_many) calls: frame `i` of a burst is
    /// encoded into `bufs[i]`, and the burst goes out as one vectored
    /// write over those buffers — no copy into a combined buffer.
    bufs: Vec<Vec<u8>>,
}

impl IngestClient {
    /// Connect to an [`IngestServer`] (Nagle disabled — frames are
    /// latency-sensitive).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(IngestClient {
            stream,
            bufs: Vec::new(),
        })
    }

    /// Reject a frame the server is guaranteed to refuse *before* it
    /// poisons the stream: an oversized frame would pass the local
    /// write, then kill the connection server-side with no client
    /// error until much later.
    fn check_frame(frame: &IngestFrame) -> io::Result<()> {
        if frame.wire_len() > 4 + MAX_FRAME as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame of {} tuples exceeds the {MAX_FRAME}-byte wire cap",
                    frame.tuples.len()
                ),
            ));
        }
        Ok(())
    }

    /// Send one frame (one `write` syscall). Use
    /// [`IngestFrame::addressed`] to stamp the frame's slot and
    /// generation from a live [`crate::runtime::JobHandle`].
    pub fn send(&mut self, frame: &IngestFrame) -> io::Result<()> {
        Self::check_frame(frame)?;
        self.stream.write_all(&encode_frame(frame))
    }

    /// Send a whole burst of frames with a single vectored write
    /// (`writev`): each frame is encoded into its own reusable buffer
    /// and the kernel gathers them — no copy of every frame into one
    /// combined scratch buffer per burst. Over loopback (and any path
    /// without mid-stream segmentation) the burst lands in the server's
    /// buffer as one unit, so the serve loop's next read picks up *all*
    /// of it and submits it as one scheduler batch — the client half of
    /// frame coalescing.
    pub fn send_many(&mut self, frames: &[IngestFrame]) -> io::Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        if self.bufs.len() < frames.len() {
            self.bufs.resize_with(frames.len(), Vec::new);
        }
        for (f, buf) in frames.iter().zip(self.bufs.iter_mut()) {
            Self::check_frame(f)?;
            buf.clear();
            f.encode_into(buf);
        }
        write_all_vectored(&mut self.stream, &self.bufs[..frames.len()])
    }

    /// Flush the underlying stream.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }

    /// Bound how long [`recv_nack`](Self::recv_nack) blocks (`None`
    /// blocks indefinitely — the connected-socket default).
    pub fn set_read_timeout(&self, dur: Option<std::time::Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Read one server→producer control frame: the server NACKs every
    /// frame its generation check rejects, so a producer that polls
    /// this after sending learns *immediately* that its
    /// [`JobHandle`](crate::runtime::JobHandle) went stale instead of
    /// feeding a dead slot forever. `Ok(None)` means the server closed
    /// the connection; with a read timeout set, an idle wire surfaces
    /// as `WouldBlock`/`TimedOut`. NACKs are best-effort server-side —
    /// absence of one proves nothing, arrival of one is definitive.
    pub fn recv_nack(&mut self) -> io::Result<Option<NackFrame>> {
        read_nack(&mut self.stream)
    }
}

/// Write every buffer in `bufs`, gathering as many as possible into
/// each `writev` syscall. Short writes (rare on a blocking socket —
/// signals, tiny socket buffers) restart past the bytes already sent
/// by rebuilding the slice table from the current offset; the rebuild
/// is O(frames) and only paid on the short-write path.
fn write_all_vectored(stream: &mut impl Write, bufs: &[Vec<u8>]) -> io::Result<()> {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let mut written = 0usize;
    while written < total {
        let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(bufs.len());
        let mut skip = written;
        for b in bufs {
            if skip >= b.len() {
                skip -= b.len();
                continue;
            }
            slices.push(io::IoSlice::new(&b[skip..]));
            skip = 0;
        }
        match stream.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes of a frame burst",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_core::time::LogicalTime;
    use cameo_dataflow::event::Tuple;

    fn frame(n: usize) -> IngestFrame {
        IngestFrame {
            job: 3,
            gen: 11,
            source: 7,
            tuples: (0..n as u64)
                .map(|i| Tuple::new(i, i as i64 * 2, LogicalTime(1_000 + i)))
                .collect(),
        }
    }

    #[test]
    fn client_rejects_oversized_frames_before_writing() {
        // The server would refuse the frame and drop the connection;
        // the client must error at the offending call instead of
        // silently poisoning the stream.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = IngestClient::connect(listener.local_addr().unwrap()).unwrap();
        let too_big = IngestFrame {
            job: 0,
            gen: 0,
            source: 0,
            tuples: vec![Tuple::new(0, 0, LogicalTime(1)); (MAX_FRAME as usize / TUPLE_WIRE) + 1],
        };
        let err = client.send(&too_big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = client.send_many(&[frame(1), too_big]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // An in-cap frame still goes through.
        client.send(&frame(3)).unwrap();
    }

    #[test]
    fn write_all_vectored_survives_short_writes() {
        /// A writer that accepts at most 3 bytes per call, forcing the
        /// slice-table rebuild on every iteration (including rebuilds
        /// that start mid-buffer).
        struct Trickle(Vec<u8>);
        impl std::io::Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let bufs = vec![
            b"hello".to_vec(),
            Vec::new(),
            b"writev".to_vec(),
            b"!".to_vec(),
        ];
        let mut sink = Trickle(Vec::new());
        write_all_vectored(&mut sink, &bufs).unwrap();
        assert_eq!(sink.0, b"hellowritev!");
    }

    #[test]
    fn send_many_round_trips_over_loopback() {
        // The vectored path must deliver byte-identical frames.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frames: Vec<IngestFrame> = (1..=5).map(frame).collect();
        let expect = frames.clone();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            while dec.read_frames(&mut conn, &mut got).unwrap().is_some() {}
            got
        });
        let mut client = IngestClient::connect(addr).unwrap();
        client.send_many(&frames).unwrap();
        // A second burst reuses the per-frame buffers.
        client.send_many(&frames[..2]).unwrap();
        drop(client);
        let got = server.join().unwrap();
        assert_eq!(got.len(), 7);
        assert_eq!(&got[..5], &expect[..]);
        assert_eq!(&got[5..], &expect[..2]);
    }
}
