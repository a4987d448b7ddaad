//! The journal's on-disk record format.
//!
//! Every record is framed exactly like a v2 wire frame — a big-endian
//! `u32` length prefix — plus a little-endian CRC-32 over the payload,
//! so a torn tail (partial final write after a crash) is detected by
//! either a short frame or a checksum mismatch and discarded:
//!
//! ```text
//! [len: u32 BE] [crc: u32 LE] [payload: len bytes]
//! payload = kind: u8, body…
//! ```
//!
//! Three record kinds cover the runtime's durable control and data
//! plane. `Deploy` and `Undeploy` are lifecycle records: replay applies
//! them through the normal slot-map paths so slot indices and
//! generations come back exactly as journaled. `Frames` is a *group
//! commit* — one record per admitted `ingest`/`ingest_frames` call,
//! holding every accepted frame of that call **post-stamping**: tuple
//! logical times and the batch progress are final at append time, so
//! replayed batches carry their original `LogicalTime`s and windowed
//! operators fire identically (the effectively-once argument).

use cameo_core::time::{LogicalTime, PhysicalTime};
use cameo_dataflow::codec::{self, Reader};
use cameo_dataflow::event::{Batch, Tuple};

/// Upper bound on one record's payload (64 MiB). A `Frames` record
/// holds at most one socket read's worth of frames, each itself bounded
/// by the wire `MAX_FRAME`; anything larger is corruption.
pub const MAX_RECORD: u32 = 1 << 26;

/// Bytes of framing overhead per record (length prefix + checksum).
pub const RECORD_HEADER: u64 = 8;

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3) over `bytes` — the checksum guarding journal
/// payloads and snapshot blobs.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One ingested frame inside a [`JournalRecord::Frames`] group: the
/// slot/generation it was admitted under, the source index the caller
/// passed, and the fully stamped batch contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameRecord {
    /// Jobs-table slot the frame was delivered to.
    pub slot: u32,
    /// Slot generation at admission (replay re-checks it).
    pub gen: u32,
    /// Source index as passed by the producer (replay applies the same
    /// ingest rule the live path does, `cameo_dataflow::expand::ingest_instance`).
    pub source: u32,
    /// The batch's stream progress. Journaled explicitly because a
    /// punctuation batch carries progress with no tuples at all.
    pub progress: u64,
    /// The stamped tuples.
    pub tuples: Vec<Tuple>,
}

impl FrameRecord {
    /// Capture an admitted batch (post-stamping, pre-routing).
    pub fn from_batch(slot: u32, gen: u32, source: u32, batch: &Batch) -> Self {
        FrameRecord {
            slot,
            gen,
            source,
            progress: batch.progress.0,
            tuples: batch.tuples.clone(),
        }
    }

    /// Rebuild the batch for replay. Tuples and progress are original;
    /// the *arrival* stamp is the recovery-time clock, exactly as if
    /// the frame had just arrived (latency accounting restarts, stream
    /// semantics do not).
    pub fn into_batch(self, now: PhysicalTime) -> Batch {
        Batch::with_progress(self.tuples, LogicalTime(self.progress), now)
    }
}

/// One journal record. See the module docs for framing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// A job was installed into `slot` at `gen`; `name` keys the
    /// [`SpecRegistry`](crate::durability::SpecRegistry) at recovery.
    Deploy {
        /// Jobs-table slot the job occupies.
        slot: u32,
        /// Slot generation issued to the deployer.
        gen: u32,
        /// Spec name for re-expansion.
        name: String,
    },
    /// The occupant of `slot` at `gen` was undeployed (its slot's
    /// generation then advanced past `gen`).
    Undeploy {
        /// Jobs-table slot that was vacated.
        slot: u32,
        /// Generation the departing occupant held.
        gen: u32,
    },
    /// One ingress call's admitted frames, group-committed together.
    Frames(
        /// The admitted frames, in admission order.
        Vec<FrameRecord>,
    ),
}

const KIND_DEPLOY: u8 = 1;
const KIND_UNDEPLOY: u8 = 2;
const KIND_FRAMES: u8 = 3;

impl JournalRecord {
    /// Serialize the payload (kind byte + body; no framing).
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::Deploy { slot, gen, name } => {
                codec::put_u8(out, KIND_DEPLOY);
                codec::put_u32(out, *slot);
                codec::put_u32(out, *gen);
                codec::put_str(out, name);
            }
            JournalRecord::Undeploy { slot, gen } => {
                codec::put_u8(out, KIND_UNDEPLOY);
                codec::put_u32(out, *slot);
                codec::put_u32(out, *gen);
            }
            JournalRecord::Frames(frames) => {
                codec::put_u8(out, KIND_FRAMES);
                codec::put_u32(out, frames.len() as u32);
                for f in frames {
                    codec::put_u32(out, f.slot);
                    codec::put_u32(out, f.gen);
                    codec::put_u32(out, f.source);
                    codec::put_u64(out, f.progress);
                    codec::put_u32(out, f.tuples.len() as u32);
                    for t in &f.tuples {
                        codec::put_u64(out, t.key);
                        codec::put_i64(out, t.value);
                        codec::put_u64(out, t.time.0);
                    }
                }
            }
        }
    }

    /// Frame the record for the journal: length prefix, checksum,
    /// payload. Appended to `out`.
    pub fn encode_framed(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::new();
        self.encode_payload(&mut payload);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }

    /// Parse one payload (the bytes after the frame header). `None` on
    /// any malformation — an unknown kind, a short body, trailing junk.
    pub fn decode_payload(payload: &[u8]) -> Option<JournalRecord> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            KIND_DEPLOY => JournalRecord::Deploy {
                slot: r.u32()?,
                gen: r.u32()?,
                name: r.str()?,
            },
            KIND_UNDEPLOY => JournalRecord::Undeploy {
                slot: r.u32()?,
                gen: r.u32()?,
            },
            KIND_FRAMES => {
                let n = r.u32()?;
                let mut frames = Vec::with_capacity(n.min(4096) as usize);
                for _ in 0..n {
                    let (slot, gen, source) = (r.u32()?, r.u32()?, r.u32()?);
                    let progress = r.u64()?;
                    let ntuples = r.u32()?;
                    let mut tuples = Vec::with_capacity(ntuples.min(65536) as usize);
                    for _ in 0..ntuples {
                        let key = r.u64()?;
                        let value = r.i64()?;
                        let time = r.u64()?;
                        tuples.push(Tuple::new(key, value, LogicalTime(time)));
                    }
                    frames.push(FrameRecord {
                        slot,
                        gen,
                        source,
                        progress,
                        tuples,
                    });
                }
                JournalRecord::Frames(frames)
            }
            _ => return None,
        };
        if !r.is_empty() {
            return None;
        }
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn roundtrip(rec: &JournalRecord) {
        let mut framed = Vec::new();
        rec.encode_framed(&mut framed);
        let len = u32::from_be_bytes(framed[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(framed[4..8].try_into().unwrap());
        let payload = &framed[8..];
        assert_eq!(payload.len(), len);
        assert_eq!(crc32(payload), crc);
        assert_eq!(JournalRecord::decode_payload(payload).as_ref(), Some(rec));
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(&JournalRecord::Deploy {
            slot: 3,
            gen: 7,
            name: "ipq1".into(),
        });
        roundtrip(&JournalRecord::Undeploy { slot: 3, gen: 7 });
        roundtrip(&JournalRecord::Frames(vec![
            FrameRecord {
                slot: 0,
                gen: 0,
                source: 2,
                progress: 99,
                tuples: vec![
                    Tuple::new(1, -5, LogicalTime(10)),
                    Tuple::new(2, 6, LogicalTime(11)),
                ],
            },
            // A punctuation frame: progress with no tuples.
            FrameRecord {
                slot: 1,
                gen: 4,
                source: 0,
                progress: 1_000,
                tuples: vec![],
            },
        ]));
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let rec = JournalRecord::Undeploy { slot: 1, gen: 2 };
        let mut payload = Vec::new();
        rec.encode_payload(&mut payload);
        // Truncated, unknown kind, trailing byte: all rejected.
        assert!(JournalRecord::decode_payload(&payload[..payload.len() - 1]).is_none());
        let mut bad_kind = payload.clone();
        bad_kind[0] = 99;
        assert!(JournalRecord::decode_payload(&bad_kind).is_none());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(JournalRecord::decode_payload(&trailing).is_none());
    }

    #[test]
    fn frame_record_replay_keeps_logical_times() {
        let b = Batch::with_progress(
            vec![Tuple::new(9, 1, LogicalTime(42))],
            LogicalTime(50),
            PhysicalTime(7),
        );
        let rec = FrameRecord::from_batch(2, 3, 1, &b);
        let replayed = rec.into_batch(PhysicalTime(9_999));
        assert_eq!(replayed.tuples, b.tuples);
        assert_eq!(replayed.progress, b.progress);
        assert_eq!(replayed.time, PhysicalTime(9_999), "arrival restamps");
    }
}
