//! The append-only event journal: segment files of framed
//! [`JournalRecord`]s, group-committed off the ingest path.
//!
//! ## Layout
//!
//! The journal is a directory of segment files named
//! `seg-{:016x}` by the **logical offset** of their first byte.
//! Logical offsets are cumulative bytes across all segments ever
//! written, so `offset` names a unique position in the record stream
//! forever — snapshots store the offset they cover and recovery replays
//! the suffix from there. Records never span segments: a record that
//! would overflow the configured segment size rolls to a fresh segment
//! first, so every segment starts at a record boundary.
//!
//! ## Durability policies
//!
//! [`FsyncPolicy`] decides when appends reach stable storage:
//! `PerBatch` fsyncs every append (strongest, slowest), `Interval`
//! fsyncs on the first append after each interval elapses (bounded
//! loss window), `Never` leaves flushing to the OS page cache (process
//! crashes lose nothing — the page cache survives — but power loss may
//! lose the unsynced tail; the checksum framing detects and truncates
//! whatever was torn).

use super::record::{JournalRecord, MAX_RECORD, RECORD_HEADER};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// When journal appends are flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync; rely on the OS page cache. Survives process
    /// crashes, may lose a tail on power loss.
    Never,
    /// Fsync after every append (every group commit).
    PerBatch,
    /// Fsync on the first append after each interval elapses.
    Interval(Duration),
}

/// Counters from scanning a journal on open/recovery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Complete, checksum-valid records read.
    pub records: usize,
    /// Bytes discarded from the tail (torn final write after a crash).
    pub torn_bytes: u64,
}

struct JournalInner {
    file: File,
    /// Logical offset of the current segment's first byte.
    seg_start: u64,
    /// Logical offset one past the last appended byte.
    offset: u64,
    last_sync: Instant,
    /// Appends since the last fsync (so `Interval` never syncs an
    /// already-clean file).
    dirty: bool,
}

/// The append-only journal. One per runtime; all appends serialize on
/// an internal mutex (the group-commit batching upstream means one
/// lock acquisition per socket read, not per message).
pub struct Journal {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    inner: Mutex<JournalInner>,
}

/// Exclusive access to the journal for one append (or a truncation).
/// Holding the guard across a quiescence check pins the journal: no
/// concurrent ingress can slip a record in under a captured offset.
pub struct JournalGuard<'a> {
    journal: &'a Journal,
    inner: MutexGuard<'a, JournalInner>,
}

fn segment_path(dir: &Path, start: u64) -> PathBuf {
    dir.join(format!("seg-{start:016x}"))
}

/// Parse a segment file name back to its start offset.
fn segment_start(name: &str) -> Option<u64> {
    u64::from_str_radix(name.strip_prefix("seg-")?, 16).ok()
}

/// Sorted `(start_offset, path)` of every segment in `dir`.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(start) = entry.file_name().to_str().and_then(segment_start) {
            segs.push((start, entry.path()));
        }
    }
    segs.sort_unstable_by_key(|(s, _)| *s);
    Ok(segs)
}

/// Scan framed records in `buf`, returning the length of the valid
/// prefix and the number of whole records in it. Everything past the
/// valid prefix is torn (short frame, oversized length, bad checksum).
fn valid_prefix(buf: &[u8]) -> (usize, usize) {
    let mut pos = 0usize;
    let mut records = 0usize;
    loop {
        let Some(header) = buf.get(pos..pos + RECORD_HEADER as usize) else {
            return (pos, records);
        };
        let len = u32::from_be_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD {
            return (pos, records);
        }
        let body_start = pos + RECORD_HEADER as usize;
        let Some(payload) = buf.get(body_start..body_start + len as usize) else {
            return (pos, records);
        };
        if super::record::crc32(payload) != crc {
            return (pos, records);
        }
        pos = body_start + len as usize;
        records += 1;
    }
}

impl Journal {
    /// Open (or create) the journal in `dir`, repairing a torn tail on
    /// the newest segment. Returns the journal and the number of torn
    /// bytes truncated away.
    pub fn open(dir: &Path, policy: FsyncPolicy, segment_bytes: u64) -> io::Result<(Journal, u64)> {
        fs::create_dir_all(dir)?;
        let segs = list_segments(dir)?;
        let mut torn = 0u64;
        let (seg_start, offset) = match segs.last() {
            None => (0, 0),
            Some((start, path)) => {
                let mut bytes = Vec::new();
                File::open(path)?.read_to_end(&mut bytes)?;
                let (valid, _) = valid_prefix(&bytes);
                if valid < bytes.len() {
                    torn = (bytes.len() - valid) as u64;
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(valid as u64)?;
                    f.sync_all()?;
                }
                (*start, start + valid as u64)
            }
        };
        let path = segment_path(dir, seg_start);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.seek(SeekFrom::End(0))?;
        let journal = Journal {
            dir: dir.to_path_buf(),
            policy,
            segment_bytes: segment_bytes.max(RECORD_HEADER),
            inner: Mutex::new(JournalInner {
                file,
                seg_start,
                offset,
                last_sync: Instant::now(),
                dirty: false,
            }),
        };
        Ok((journal, torn))
    }

    /// Lock the journal for an append (or to pin it across a
    /// quiescence check).
    pub fn begin(&self) -> JournalGuard<'_> {
        JournalGuard {
            journal: self,
            inner: self.inner.lock().unwrap_or_else(|p| p.into_inner()),
        }
    }

    /// The directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl JournalGuard<'_> {
    /// Logical offset one past the last appended byte.
    pub fn offset(&self) -> u64 {
        self.inner.offset
    }

    /// Append one record, rolling to a fresh segment when the current
    /// one is full, then apply the fsync policy. Returns the record's
    /// *end* offset — once a snapshot covers offsets `< end`, this
    /// record no longer needs replay.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<u64> {
        let mut framed = Vec::new();
        rec.encode_framed(&mut framed);
        let inner = &mut *self.inner;
        let seg_len = inner.offset - inner.seg_start;
        if seg_len > 0 && seg_len + framed.len() as u64 > self.journal.segment_bytes {
            // Seal the full segment (records must be stable before the
            // roll: a later truncate_before may delete it only because
            // a snapshot covers it) and start the next at the current
            // logical offset.
            inner.file.sync_all()?;
            let path = segment_path(&self.journal.dir, inner.offset);
            inner.file = OpenOptions::new().create(true).append(true).open(path)?;
            inner.seg_start = inner.offset;
            inner.dirty = false;
        }
        inner.file.write_all(&framed)?;
        inner.offset += framed.len() as u64;
        inner.dirty = true;
        match self.journal.policy {
            FsyncPolicy::Never => {}
            FsyncPolicy::PerBatch => {
                inner.file.sync_data()?;
                inner.dirty = false;
            }
            FsyncPolicy::Interval(every) => {
                if inner.dirty && inner.last_sync.elapsed() >= every {
                    inner.file.sync_data()?;
                    inner.last_sync = Instant::now();
                    inner.dirty = false;
                }
            }
        }
        Ok(inner.offset)
    }

    /// Delete every segment that lies entirely below `offset` (all its
    /// records are covered by a snapshot). The segment containing
    /// `offset` — and anything after — stays.
    pub fn truncate_before(&mut self, offset: u64) -> io::Result<usize> {
        let segs = list_segments(&self.journal.dir)?;
        let mut removed = 0;
        for window in segs.windows(2) {
            let (start, ref path) = window[0];
            let (next_start, _) = window[1];
            // The segment's records end where the next one starts.
            let _ = start;
            if next_start <= offset {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Read every record at logical offsets `>= from`, in order. Segments
/// below `from` are skipped; a mid-segment `from` (a snapshot taken
/// mid-segment) seeks within it. Corruption stops the scan: everything
/// after the first invalid record is counted as torn, never replayed.
pub fn read_records(dir: &Path, from: u64) -> io::Result<(Vec<(u64, JournalRecord)>, ReplayStats)> {
    let segs = list_segments(dir)?;
    let mut out = Vec::new();
    let mut stats = ReplayStats::default();
    for (i, (start, path)) in segs.iter().enumerate() {
        let end_hint = segs.get(i + 1).map(|(s, _)| *s);
        // Skip segments that end at or before `from`.
        if let Some(end) = end_hint {
            if end <= from {
                continue;
            }
        }
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if let Some(end) = end_hint {
            // A sealed segment's logical extent is fixed by its
            // successor; a longer file would replay offsets the
            // successor also claims.
            bytes.truncate((end - start) as usize);
        }
        let (valid, _) = valid_prefix(&bytes);
        if valid < bytes.len() {
            stats.torn_bytes += (bytes.len() - valid) as u64;
        }
        let mut pos = 0usize;
        while pos < valid {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let body = &bytes[pos + RECORD_HEADER as usize..pos + RECORD_HEADER as usize + len];
            let rec_end = start + (pos + RECORD_HEADER as usize + len) as u64;
            pos += RECORD_HEADER as usize + len;
            if rec_end <= from {
                continue;
            }
            match JournalRecord::decode_payload(body) {
                Some(rec) => {
                    stats.records += 1;
                    out.push((rec_end, rec));
                }
                // Checksum-valid but semantically unknown (e.g. a
                // future record kind): stop, like corruption.
                None => {
                    stats.torn_bytes += (valid - pos) as u64;
                    return Ok((out, stats));
                }
            }
        }
        if valid < bytes.len() {
            // Torn mid-stream: nothing after is reachable.
            break;
        }
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::record::FrameRecord;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cameo-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn deploy(slot: u32, gen: u32) -> JournalRecord {
        JournalRecord::Deploy {
            slot,
            gen,
            name: format!("job-{slot}"),
        }
    }

    #[test]
    fn append_then_read_roundtrips_in_order() {
        let dir = tmp_dir("roundtrip");
        let (j, torn) = Journal::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
        assert_eq!(torn, 0);
        let recs = vec![
            deploy(0, 0),
            JournalRecord::Frames(vec![FrameRecord {
                slot: 0,
                gen: 0,
                source: 0,
                progress: 5,
                tuples: vec![],
            }]),
            JournalRecord::Undeploy { slot: 0, gen: 0 },
        ];
        let mut g = j.begin();
        for r in &recs {
            g.append(r).unwrap();
        }
        drop(g);
        let (read, stats) = read_records(&dir, 0).unwrap();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.torn_bytes, 0);
        let bodies: Vec<&JournalRecord> = read.iter().map(|(_, r)| r).collect();
        assert_eq!(bodies, recs.iter().collect::<Vec<_>>());
        // End offsets are strictly increasing and the last matches the
        // journal's own offset.
        assert!(read.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(read.last().unwrap().0, j.begin().offset());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let (j, _) = Journal::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
        j.begin().append(&deploy(1, 2)).unwrap();
        let full = j.begin().offset();
        j.begin().append(&deploy(3, 4)).unwrap();
        drop(j);
        // Tear the second record: chop 3 bytes off the segment.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (j, torn) = Journal::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
        assert!(torn > 0);
        assert_eq!(
            j.begin().offset(),
            full,
            "reopen resumes at the valid prefix"
        );
        let (read, stats) = read_records(&dir, 0).unwrap();
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].1, deploy(1, 2));
        assert_eq!(stats.torn_bytes, 0, "open already repaired the tail");
        // Appends continue cleanly after the repair.
        j.begin().append(&deploy(5, 6)).unwrap();
        let (read, _) = read_records(&dir, 0).unwrap();
        assert_eq!(read.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_stops_replay_at_the_tear() {
        let dir = tmp_dir("corrupt");
        let (j, _) = Journal::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
        j.begin().append(&deploy(1, 0)).unwrap();
        let first_end = j.begin().offset();
        j.begin().append(&deploy(2, 0)).unwrap();
        j.begin().append(&deploy(3, 0)).unwrap();
        drop(j);
        // Flip a byte inside the second record's payload.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let idx = first_end as usize + RECORD_HEADER as usize + 1;
        bytes[idx] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let (read, stats) = read_records(&dir, 0).unwrap();
        assert_eq!(read.len(), 1, "replay stops at the corrupt record");
        assert!(stats.torn_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_truncate_before_deletes_covered_ones() {
        let dir = tmp_dir("segments");
        // Tiny segments: every record rolls.
        let (j, _) = Journal::open(&dir, FsyncPolicy::Never, 32).unwrap();
        let mut ends = Vec::new();
        for i in 0..5 {
            ends.push(j.begin().append(&deploy(i, 0)).unwrap());
        }
        assert!(list_segments(&dir).unwrap().len() >= 3, "rolls happened");
        let (read, _) = read_records(&dir, 0).unwrap();
        assert_eq!(read.len(), 5);
        // Suffix reads from a mid-journal offset skip covered records.
        let (suffix, _) = read_records(&dir, ends[2]).unwrap();
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].1, deploy(3, 0));
        // Truncating below ends[2] removes only fully covered segments;
        // the suffix must still be fully readable.
        j.begin().truncate_before(ends[2]).unwrap();
        let (suffix, _) = read_records(&dir, ends[2]).unwrap();
        assert_eq!(suffix.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interval_policy_syncs_lazily_perbatch_always() {
        let dir = tmp_dir("fsync");
        let (j, _) = Journal::open(
            &dir,
            FsyncPolicy::Interval(Duration::from_secs(3600)),
            1 << 20,
        )
        .unwrap();
        j.begin().append(&deploy(0, 0)).unwrap();
        drop(j);
        let (j, _) = Journal::open(&dir, FsyncPolicy::PerBatch, 1 << 20).unwrap();
        j.begin().append(&deploy(1, 0)).unwrap();
        let (read, _) = read_records(&dir, 0).unwrap();
        assert_eq!(read.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
