//! The TCP wire format: frame encoding, one-shot payload decoding, and
//! the streaming [`FrameDecoder`] that the coalescing ingest path
//! ([`crate::net`]) runs over a reusable per-connection buffer. Every
//! decoder is owned by the one serve loop
//! ([`IngestServer`](crate::net::IngestServer)) that reads its
//! connection, so nothing here needs synchronization.
//!
//! Framing follows the networking-guide conventions: a 4-byte
//! big-endian length prefix, then the payload — explicit bounds, no
//! partial-frame surprises, and a hard frame-size cap so a misbehaving
//! client cannot balloon memory.
//!
//! This is **wire format v2**: the payload header carries the slot
//! *generation* of the sender's [`JobHandle`](crate::runtime::JobHandle) alongside the slot index,
//! so the stale-handle guarantee extends across the wire — a frame that
//! races its job's undeploy (and the slot's reuse) is rejected and
//! counted by the server, never routed to the slot's new occupant. v1
//! (no `gen` field) is not spoken anymore; the format is a clean break,
//! and a v1 peer fails the frame-length consistency check rather than
//! being half-parsed.
//!
//! ```text
//! frame   := len:u32be payload
//! payload := job:u32le gen:u32le source:u32le count:u32le tuple*
//! tuple   := key:u64le value:i64le time:u64le
//! ```
//!
//! The server→producer direction carries **control frames**: today the
//! single [`NackFrame`], sent (best-effort) for every frame the
//! generation check rejects, so a producer holding a stale
//! [`JobHandle`](crate::runtime::JobHandle) finds out *immediately*
//! instead of silently feeding a dead job. Control frames use the same
//! length-prefixed outer framing with a magic first word:
//!
//! ```text
//! nack := len:u32be magic:u32le job:u32le gen:u32le expected_gen:u32le
//! ```

use cameo_core::time::LogicalTime;
use cameo_dataflow::codec::Reader;
use cameo_dataflow::event::{Batch, Tuple};
use std::io::{self, Read};

/// Maximum accepted frame, matching a generous batch of ~43k tuples.
pub const MAX_FRAME: u32 = 1 << 20;
/// Bytes per tuple on the wire (`key:u64 value:i64 time:u64`).
pub const TUPLE_WIRE: usize = 24;
/// Bytes of payload header (`job:u32 gen:u32 source:u32 count:u32`).
pub const HEADER_WIRE: usize = 16;

/// One decoded ingest frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestFrame {
    /// Jobs-table slot of the target job (`JobHandle::slot()`).
    pub job: u32,
    /// Slot generation the sender holds a handle for
    /// ([`JobHandle::generation`](crate::runtime::JobHandle::generation)). The runtime accepts the frame only
    /// while this matches the slot's current occupant: a frame racing
    /// its job's undeploy — even one that also races the slot's *reuse*
    /// — is rejected and counted, never delivered to the new occupant.
    pub gen: u32,
    /// Source index within the job (taken modulo its ingest count).
    pub source: u32,
    /// The frame's tuples.
    pub tuples: Vec<Tuple>,
}

impl IngestFrame {
    /// A frame addressed by a live [`JobHandle`](crate::runtime::JobHandle): slot and generation
    /// are stamped from the handle, which is the only way a remote
    /// producer should mint frames.
    pub fn addressed(job: crate::runtime::JobHandle, source: u32, tuples: Vec<Tuple>) -> Self {
        IngestFrame {
            job: job.slot(),
            gen: job.generation(),
            source,
            tuples,
        }
    }

    /// Wire size of this frame including the length prefix.
    pub fn wire_len(&self) -> usize {
        4 + HEADER_WIRE + self.tuples.len() * TUPLE_WIRE
    }

    /// Append the encoded frame (length prefix included) to `buf`.
    /// Reusing one buffer across frames is how the client batches a
    /// whole burst into a single socket write.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let payload_len = HEADER_WIRE + self.tuples.len() * TUPLE_WIRE;
        buf.reserve(4 + payload_len);
        buf.extend_from_slice(&(payload_len as u32).to_be_bytes());
        buf.extend_from_slice(&self.job.to_le_bytes());
        buf.extend_from_slice(&self.gen.to_le_bytes());
        buf.extend_from_slice(&self.source.to_le_bytes());
        buf.extend_from_slice(&(self.tuples.len() as u32).to_le_bytes());
        for t in &self.tuples {
            buf.extend_from_slice(&t.key.to_le_bytes());
            buf.extend_from_slice(&t.value.to_le_bytes());
            buf.extend_from_slice(&t.time.0.to_le_bytes());
        }
    }

    /// Move the tuple vector into a dataflow [`Batch`] arriving at
    /// `now`, stamping ingestion time on tuples without an event time.
    pub fn into_batch(mut self, now: cameo_core::time::PhysicalTime) -> Batch {
        for t in self.tuples.iter_mut() {
            if t.time.0 == 0 {
                t.time = LogicalTime(now.0);
            }
        }
        Batch::new(self.tuples, now)
    }
}

/// Encode a frame (length prefix included).
pub fn encode_frame(frame: &IngestFrame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(frame.wire_len());
    frame.encode_into(&mut buf);
    buf
}

/// Magic word opening a control-frame payload on the server→producer
/// direction (`"NACK"` read as a little-endian `u32`). Ingest payloads
/// start with a jobs-table slot index, which in practice stays far
/// below this, but the directions never share a decoder anyway: clients
/// only ever *read* control frames, servers only ever write them.
pub const NACK_MAGIC: u32 = u32::from_le_bytes(*b"NACK");

/// Payload bytes of a NACK control frame
/// (`magic:u32 job:u32 gen:u32 expected_gen:u32`).
pub const NACK_WIRE: usize = 16;

/// Server→producer rejection notice (wire format v2): the frame the
/// producer just sent carried a slot generation that no longer matches
/// the slot's occupant — its [`JobHandle`](crate::runtime::JobHandle)
/// went stale (the job was undeployed, the slot possibly redeployed).
/// Delivery is best-effort (a producer that never reads, or whose
/// socket is full, simply misses it; the server still counts the
/// rejection), but a producer that does read can stop wasting wire
/// bytes on a dead handle the moment the first NACK arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NackFrame {
    /// Jobs-table slot the rejected frame addressed.
    pub job: u32,
    /// The stale generation the rejected frame carried.
    pub gen: u32,
    /// The slot's current generation (what a live handle would carry).
    pub expected_gen: u32,
}

impl NackFrame {
    /// Encode the control frame, length prefix included.
    pub fn encode(&self) -> [u8; 4 + NACK_WIRE] {
        let mut buf = [0u8; 4 + NACK_WIRE];
        buf[0..4].copy_from_slice(&(NACK_WIRE as u32).to_be_bytes());
        buf[4..8].copy_from_slice(&NACK_MAGIC.to_le_bytes());
        buf[8..12].copy_from_slice(&self.job.to_le_bytes());
        buf[12..16].copy_from_slice(&self.gen.to_le_bytes());
        buf[16..20].copy_from_slice(&self.expected_gen.to_le_bytes());
        buf
    }

    /// Decode a control payload (after the length prefix).
    pub fn decode_payload(payload: &[u8]) -> io::Result<NackFrame> {
        let mut r = Reader::new(payload);
        let (Some(magic), Some(job), Some(gen), Some(expected_gen), true) =
            (r.u32(), r.u32(), r.u32(), r.u32(), r.is_empty())
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "control payload of {} bytes, expected {NACK_WIRE}",
                    payload.len()
                ),
            ));
        };
        if magic != NACK_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown control magic {magic:#x}"),
            ));
        }
        Ok(NackFrame {
            job,
            gen,
            expected_gen,
        })
    }
}

/// Read one control frame off the server→producer direction.
/// `Ok(None)` is a clean EOF at a frame boundary.
pub fn read_nack(stream: &mut impl Read) -> io::Result<Option<NackFrame>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len != NACK_WIRE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("control frame of {len} bytes, expected {NACK_WIRE}"),
        ));
    }
    let mut payload = [0u8; NACK_WIRE];
    stream.read_exact(&mut payload)?;
    NackFrame::decode_payload(&payload).map(Some)
}

/// Decode a payload (after the length prefix has been stripped).
pub fn decode_payload(payload: &[u8]) -> io::Result<IngestFrame> {
    let mut r = Reader::new(payload);
    let (Some(job), Some(gen), Some(source), Some(count)) = (r.u32(), r.u32(), r.u32(), r.u32())
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "payload shorter than header",
        ));
    };
    // The exact length is checked before `count`, which the sender
    // chose, sizes an allocation.
    let count = count as usize;
    if payload.len() != HEADER_WIRE + count * TUPLE_WIRE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame: {} bytes for {count} tuples", payload.len()),
        ));
    }
    let mut tuples = Vec::with_capacity(count);
    // What is left is whole tuples, so the reads stop together at the end.
    while let (Some(key), Some(value), Some(time)) = (r.u64(), r.i64(), r.u64()) {
        tuples.push(Tuple::new(key, value, LogicalTime(time)));
    }
    Ok(IngestFrame {
        job,
        gen,
        source,
        tuples,
    })
}

/// Bound on a [`FrameDecoder`]'s read-driven growth: big enough that a
/// burst of typical frames (a few hundred bytes each) arrives in one
/// read.
pub const DECODER_BUF: usize = 64 * 1024;

/// Initial buffer of a [`FrameDecoder`]: small enough that 10k
/// mostly-idle connections cost tens of megabytes, not gigabytes. A
/// connection whose reads saturate this doubles its way up to
/// [`DECODER_BUF`], so active connections still pull whole bursts per
/// read.
pub const ADAPTIVE_BUF_INIT: usize = 2 * 1024;

/// Streaming frame decoder over a reusable per-connection buffer: the
/// only reader of ingest frames, used by the serve loop and by tests
/// alike.
///
/// It issues **one `read` per loop iteration**, pulling *everything the
/// socket currently has* into a single buffer that lives as long as the
/// connection, then slices every complete frame out of it — no
/// per-frame syscalls, no per-frame payload allocation. A frame split
/// across reads is carried in the buffer (compacted to the front, no
/// reallocation) until the rest arrives; a frame larger than the buffer
/// grows it once to exactly that frame's size, and the high-water mark
/// is reused from then on.
///
/// The buffer starts at [`ADAPTIVE_BUF_INIT`] and **doubles after every
/// saturated read** (a read that filled all spare buffer — the socket
/// clearly had more) up to [`DECODER_BUF`]. Ten thousand idle
/// connections stay at the small footprint; the busy ones quickly
/// regain the whole-burst-per-read coalescing of a full-size buffer.
///
/// The caller hands all frames decoded from one read to
/// [`Runtime::ingest_frames`](crate::runtime::Runtime::ingest_frames)
/// as a unit — that is what converts "N frames in one socket read"
/// into one batch publication downstream.
#[derive(Debug)]
pub struct FrameDecoder {
    /// The connection buffer. Valid bytes live in `start..end`; the
    /// vector's length is its capacity (it is grown, never shrunk, and
    /// only when a single frame exceeds it or a read saturates it).
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder with an [`ADAPTIVE_BUF_INIT`] buffer.
    pub fn new() -> Self {
        FrameDecoder {
            buf: vec![0u8; ADAPTIVE_BUF_INIT],
            start: 0,
            end: 0,
        }
    }

    /// Bytes buffered but not yet decoded (a partial frame, between
    /// reads).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Current buffer size (grows when one frame needs more, or a read
    /// saturates it below [`DECODER_BUF`]).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Issue **one** `read` against `r`, appending to the connection
    /// buffer. Returns the byte count from the read (`0` means EOF —
    /// clean only if [`buffered`](Self::buffered) is also zero).
    /// `WouldBlock`/`TimedOut` errors pass through untouched so callers
    /// can poll a stop flag.
    ///
    /// Before reading, the buffered partial frame (if any) is compacted
    /// to the front of the buffer; if its length prefix promises a
    /// frame bigger than the whole buffer, the buffer grows once to
    /// exactly that frame's wire size (bounded by [`MAX_FRAME`], which
    /// is validated here so a hostile length prefix errors before any
    /// allocation).
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        // Compact: move the partial frame to the front. This is a plain
        // memmove within the existing buffer — never a reallocation.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        // If the pending frame's size is already known, make sure the
        // whole frame can fit; grow to exactly its wire size if not.
        let mut pending = None;
        if self.end >= 4 {
            let len = u32::from_be_bytes(self.buf[0..4].try_into().unwrap());
            if len > MAX_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame of {len} bytes exceeds cap {MAX_FRAME}"),
                ));
            }
            let need = 4 + len as usize;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
            pending = Some(need);
        }
        // In the fill→decode loop the spare is always nonzero (decoded
        // frames leave, partial frames get room above), but a direct
        // `fill` caller who skipped decoding must not read into an
        // empty slice — `read` would return 0 and masquerade as EOF.
        if self.end == self.buf.len() {
            let grown = (self.buf.len() * 2).min(4 + MAX_FRAME as usize);
            self.buf.resize(grown.max(self.buf.len() + 8), 0);
        }
        // A buffer sized to exactly the pending frame is saturated by
        // the read that completes that frame, whether or not the socket
        // holds more: such a read is no sign of a burst.
        let frame_sized = pending == Some(self.buf.len());
        let spare = self.buf.len() - self.end;
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        // Adaptive sizing: a saturated read means the socket had more
        // than fit — double the buffer (bounded) so the next read pulls
        // a bigger slice of the burst.
        if n == spare && !frame_sized && self.buf.len() < DECODER_BUF {
            let grown = (self.buf.len() * 2).min(DECODER_BUF);
            self.buf.resize(grown, 0);
        }
        Ok(n)
    }

    /// Decode every complete frame currently buffered, appending to
    /// `out`; returns how many were decoded. Bytes of a trailing
    /// partial frame stay buffered for the next [`fill`](Self::fill).
    ///
    /// There is no resynchronization: the protocol has no frame marker,
    /// so a corrupt length prefix or payload poisons the stream and the
    /// error is final (callers drop the connection).
    pub fn decode_available(&mut self, out: &mut Vec<IngestFrame>) -> io::Result<usize> {
        let mut decoded = 0usize;
        while self.buffered() >= 4 {
            let len = u32::from_be_bytes(self.buf[self.start..self.start + 4].try_into().unwrap());
            if len > MAX_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame of {len} bytes exceeds cap {MAX_FRAME}"),
                ));
            }
            let total = 4 + len as usize;
            if self.buffered() < total {
                break;
            }
            out.push(decode_payload(
                &self.buf[self.start + 4..self.start + total],
            )?);
            self.start += total;
            decoded += 1;
        }
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(decoded)
    }

    /// One coalescing step: a single read, then decode everything it
    /// completed. `Ok(None)` is EOF; clean when it falls on a frame
    /// boundary, an `UnexpectedEof` error when it truncates a frame.
    pub fn read_frames(
        &mut self,
        r: &mut impl Read,
        out: &mut Vec<IngestFrame>,
    ) -> io::Result<Option<usize>> {
        if self.fill(r)? == 0 {
            if self.buffered() > 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("EOF inside a frame ({} bytes buffered)", self.buffered()),
                ));
            }
            return Ok(None);
        }
        self.decode_available(out).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A reader that serves at most `chunk` bytes per `read` call —
    /// simulates a socket delivering data in arbitrary slices.
    struct Chunked {
        bytes: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (self.bytes.len() - self.pos).min(self.chunk).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn decode_all(bytes: Vec<u8>, chunk: usize) -> io::Result<Vec<IngestFrame>> {
        let mut r = Chunked {
            bytes,
            pos: 0,
            chunk,
        };
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        while dec.read_frames(&mut r, &mut out)?.is_some() {}
        Ok(out)
    }

    #[test]
    fn frame_roundtrip() {
        let f = frame(5);
        let bytes = encode_frame(&f);
        assert_eq!(bytes.len(), f.wire_len());
        let decoded = decode_payload(&bytes[4..]).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn zero_tuple_frame_roundtrips_through_decoder() {
        let f = frame(0);
        let bytes = encode_frame(&f);
        assert_eq!(decode_payload(&bytes[4..]).unwrap(), f);
        // And through the streaming path, mixed with non-empty frames.
        let mut stream = encode_frame(&frame(2));
        stream.extend_from_slice(&bytes);
        stream.extend_from_slice(&encode_frame(&frame(3)));
        let got = decode_all(stream, usize::MAX).unwrap();
        assert_eq!(got, vec![frame(2), frame(0), frame(3)]);
    }

    #[test]
    fn truncated_payload_rejected() {
        let f = frame(3);
        let bytes = encode_frame(&f);
        assert!(decode_payload(&bytes[4..bytes.len() - 1]).is_err());
        assert!(decode_payload(&bytes[4..10]).is_err());
    }

    #[test]
    fn corrupt_count_rejected() {
        let f = frame(2);
        let mut bytes = encode_frame(&f);
        // Claim 100 tuples in the header.
        bytes[4 + 12..4 + 16].copy_from_slice(&100u32.to_le_bytes());
        assert!(decode_payload(&bytes[4..]).is_err());
    }

    #[test]
    fn v1_style_frame_without_gen_is_rejected() {
        // A v1 peer's header lacks the gen word, so its payload is 4
        // bytes short of what its own count field promises under v2 —
        // the length consistency check refuses it instead of shifting
        // every later field by one word.
        let f = frame(2);
        let v2 = encode_frame(&f);
        let mut v1 = Vec::new();
        let payload_len = (v2.len() - 4 - 4) as u32; // drop the gen word
        v1.extend_from_slice(&payload_len.to_be_bytes());
        v1.extend_from_slice(&v2[4..8]); // job
        v1.extend_from_slice(&v2[12..]); // source, count, tuples
        assert!(decode_payload(&v1[4..]).is_err());
    }

    #[test]
    fn one_read_yields_every_complete_frame() {
        let frames = [frame(2), frame(4), frame(1)];
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let mut cursor = io::Cursor::new(bytes);
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        // The whole stream fits one buffer: a single read decodes all
        // three frames at once — the coalescing property itself.
        assert_eq!(dec.read_frames(&mut cursor, &mut out).unwrap(), Some(3));
        assert_eq!(out, frames);
        assert_eq!(dec.buffered(), 0);
        assert_eq!(dec.read_frames(&mut cursor, &mut out).unwrap(), None);
    }

    #[test]
    fn frame_split_across_reads_is_carried() {
        let frames = [frame(6), frame(2)];
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        // 7-byte reads: every frame arrives in many pieces, split at
        // every possible offset (headers included).
        let got = decode_all(bytes.clone(), 7).unwrap();
        assert_eq!(got, frames);
        // Split exactly inside a length prefix.
        let got = decode_all(bytes, 2).unwrap();
        assert_eq!(got, frames);
    }

    #[test]
    fn frame_larger_than_buffer_grows_it_once() {
        // 9-byte reads split every header. Above the doubling bound
        // only the frame itself can size the buffer; below it, the read
        // that completes the frame fills the buffer exactly, which is
        // no sign of a burst and must not double it.
        for (big, wire) in [(frame(3_000), 72_020), (frame(100), 2_420)] {
            assert_eq!(big.wire_len(), wire);
            let small = frame(1);
            let mut bytes = encode_frame(&big);
            small.encode_into(&mut bytes);
            let mut r = Chunked {
                bytes,
                pos: 0,
                chunk: 9,
            };
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            while dec.read_frames(&mut r, &mut out).unwrap().is_some() {}
            assert_eq!(out, vec![big.clone(), small]);
            assert_eq!(
                dec.capacity(),
                wire,
                "buffer grew to exactly the oversized frame"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocating() {
        let mut bytes = (MAX_FRAME + 1).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        for chunk in [usize::MAX, 4, 1] {
            let mut r = Chunked {
                bytes: bytes.clone(),
                pos: 0,
                chunk,
            };
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            let err = loop {
                match dec.read_frames(&mut r, &mut out) {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("clean EOF after an oversized prefix"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(dec.capacity(), ADAPTIVE_BUF_INIT, "nothing allocated");
        }
    }

    #[test]
    fn garbage_then_valid_stream_is_rejected() {
        // The framing has no sync marker, so garbage cannot be skipped:
        // the decoder must refuse the stream rather than misparse its
        // way into the (valid) frame behind the garbage.
        let mut bytes = vec![0xFFu8; 32]; // reads as len 0xFFFFFFFF
        bytes.extend_from_slice(&encode_frame(&frame(2)));
        assert!(decode_all(bytes, usize::MAX).is_err());
        // Garbage that passes the length check but corrupts the payload
        // (tuple count inconsistent with the frame length) also errors.
        let mut plausible = 20u32.to_be_bytes().to_vec(); // 20-byte payload
        plausible.extend_from_slice(&[0xAB; 20]); // count field is huge
        plausible.extend_from_slice(&encode_frame(&frame(2)));
        assert!(decode_all(plausible, usize::MAX).is_err());
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut bytes = encode_frame(&frame(3));
        bytes.truncate(bytes.len() - 5);
        let err = decode_all(bytes, usize::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn buffer_state_resets_between_bursts() {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for round in 0..5 {
            let f = frame(round % 3);
            let mut cursor = io::Cursor::new(encode_frame(&f));
            assert_eq!(dec.read_frames(&mut cursor, &mut out).unwrap(), Some(1));
            assert_eq!(dec.buffered(), 0, "no leftover bytes between bursts");
        }
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn adaptive_decoder_doubles_on_saturated_reads_and_caps() {
        // A stream far bigger than the initial buffer: every read
        // saturates, so the buffer doubles its way to DECODER_BUF and
        // stops there.
        let mut bytes = Vec::new();
        let mut expect = 0usize;
        while bytes.len() < 3 * DECODER_BUF {
            frame(40).encode_into(&mut bytes);
            expect += 1;
        }
        let mut r = Chunked {
            bytes,
            pos: 0,
            chunk: usize::MAX,
        };
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.capacity(), ADAPTIVE_BUF_INIT);
        let mut out = Vec::new();
        while dec.read_frames(&mut r, &mut out).unwrap().is_some() {}
        assert_eq!(out.len(), expect);
        assert_eq!(
            dec.capacity(),
            DECODER_BUF,
            "saturated reads grow exactly to the cap"
        );

        // A trickle never saturates: the buffer stays at the cap it
        // reached (growth is one-way, driven by demand only).
        let mut slow = Chunked {
            bytes: encode_frame(&frame(1)),
            pos: 0,
            chunk: 5,
        };
        while dec.read_frames(&mut slow, &mut out).unwrap().is_some() {}
        assert_eq!(dec.capacity(), DECODER_BUF);
    }

    #[test]
    fn adaptive_decoder_stays_small_when_idle() {
        // One small frame per read — the 10k-idle-connections case.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for _ in 0..50 {
            let mut cursor = io::Cursor::new(encode_frame(&frame(2)));
            dec.read_frames(&mut cursor, &mut out).unwrap();
        }
        assert_eq!(
            dec.capacity(),
            ADAPTIVE_BUF_INIT,
            "unsaturated reads never grow the buffer"
        );
    }

    #[test]
    fn nack_round_trips() {
        let nack = NackFrame {
            job: 7,
            gen: 3,
            expected_gen: 4,
        };
        let wire = nack.encode();
        assert_eq!(wire.len(), 4 + NACK_WIRE);
        assert_eq!(
            u32::from_be_bytes(wire[0..4].try_into().unwrap()),
            NACK_WIRE as u32
        );
        assert_eq!(NackFrame::decode_payload(&wire[4..]).unwrap(), nack);

        // The streaming reader sees frame, frame, clean EOF.
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&wire);
        stream.extend_from_slice(
            &NackFrame {
                job: 1,
                gen: 9,
                expected_gen: 12,
            }
            .encode(),
        );
        let mut cursor = io::Cursor::new(stream);
        assert_eq!(read_nack(&mut cursor).unwrap(), Some(nack));
        assert_eq!(read_nack(&mut cursor).unwrap().unwrap().expected_gen, 12);
        assert_eq!(read_nack(&mut cursor).unwrap(), None);
    }

    #[test]
    fn nack_decode_rejects_bad_magic_and_bad_length() {
        let mut wire = NackFrame {
            job: 1,
            gen: 2,
            expected_gen: 3,
        }
        .encode();
        wire[4] ^= 0xFF; // corrupt the magic
        assert!(NackFrame::decode_payload(&wire[4..]).is_err());
        assert!(NackFrame::decode_payload(&[0u8; NACK_WIRE - 1]).is_err());
        // A length prefix that is not NACK_WIRE is not a control frame.
        let mut cursor = io::Cursor::new(vec![0, 0, 0, 5, 1, 2, 3, 4, 5]);
        assert!(read_nack(&mut cursor).is_err());
    }
}
