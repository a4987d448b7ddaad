//! Session windows.
//!
//! [`SessionWindow`] groups a key's tuples into activity sessions
//! closed by a gap of inactivity. Sessions have *data-dependent*
//! trigger times, so the frontier mapping of §4.3 cannot predict them —
//! this is exactly the paper's conservative fallback ("when an event's
//! physical arrival time cannot be inferred from stream progress, we
//! treat windowed operators as regular operators"). Session stages are
//! therefore declared `OperatorKind::Regular`: no deadline extension,
//! correct scheduling.

use crate::codec::{self, Reader};
use crate::event::{Batch, Tuple};
use crate::operator::{Operator, StateSnapshot, WatermarkTracker};
use cameo_core::time::{LogicalTime, PhysicalTime};
use std::collections::HashMap;

/// Per-key session state.
#[derive(Debug)]
struct Session {
    start: u64,
    last: u64,
    acc: i64,
    count: i64,
    latest_input: PhysicalTime,
}

/// Gap-based session windows: a key's session closes once stream
/// progress passes `last activity + gap`; the emitted tuple carries the
/// session's value sum, stamped at the session's end.
pub struct SessionWindow {
    gap: u64,
    watermark: WatermarkTracker,
    open: HashMap<u64, Session>,
}

impl SessionWindow {
    /// Gap-based session windows: a session closes after `gap` logical
    /// units of silence on its key.
    pub fn new(gap: u64, num_channels: u32) -> Self {
        assert!(gap > 0, "session gap must be positive");
        SessionWindow {
            gap,
            watermark: WatermarkTracker::new(num_channels.max(1) as usize),
            open: HashMap::new(),
        }
    }

    /// Number of sessions currently open.
    pub fn open_sessions(&self) -> usize {
        self.open.len()
    }
}

/// Snapshot prologue: version byte plus the watermark tracker's
/// per-channel progress.
fn put_wm(out: &mut Vec<u8>, wm: &WatermarkTracker) {
    codec::put_u8(out, 1);
    codec::put_u32(out, wm.progress().len() as u32);
    for &p in wm.progress() {
        codec::put_u64(out, p);
    }
}

/// Counterpart of [`put_wm`]: validates the version and channel count
/// against the live operator before yielding the restored tracker.
fn read_wm(r: &mut Reader<'_>, expect_channels: usize) -> Option<WatermarkTracker> {
    if r.u8()? != 1 {
        return None;
    }
    let nch = r.u32()? as usize;
    if nch != expect_channels {
        return None;
    }
    let mut per_channel = Vec::with_capacity(nch);
    for _ in 0..nch {
        per_channel.push(r.u64()?);
    }
    Some(WatermarkTracker::from_progress(per_channel))
}

impl StateSnapshot for SessionWindow {
    fn snapshot_state(&self, out: &mut Vec<u8>) {
        put_wm(out, &self.watermark);
        codec::put_u32(out, self.open.len() as u32);
        let mut keys: Vec<u64> = self.open.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let s = &self.open[&k];
            codec::put_u64(out, k);
            codec::put_u64(out, s.start);
            codec::put_u64(out, s.last);
            codec::put_i64(out, s.acc);
            codec::put_i64(out, s.count);
            codec::put_u64(out, s.latest_input.0);
        }
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = Reader::new(bytes);
        let Some(wm) = read_wm(&mut r, self.watermark.num_channels()) else {
            return false;
        };
        let Some(nopen) = r.u32() else { return false };
        // Reserve no more sessions than the body's bytes can hold (48
        // each), so a hostile count is refused, not allocated.
        let mut open = HashMap::with_capacity((nopen as usize).min(r.remaining().len() / 48));
        for _ in 0..nopen {
            let (Some(k), Some(start), Some(last)) = (r.u64(), r.u64(), r.u64()) else {
                return false;
            };
            let (Some(acc), Some(count), Some(latest)) = (r.i64(), r.i64(), r.u64()) else {
                return false;
            };
            open.insert(
                k,
                Session {
                    start,
                    last,
                    acc,
                    count,
                    latest_input: PhysicalTime(latest),
                },
            );
        }
        if !r.is_empty() {
            return false;
        }
        self.watermark = wm;
        self.open = open;
        true
    }
}

impl Operator for SessionWindow {
    fn on_batch(&mut self, channel: u32, batch: &Batch, _now: PhysicalTime, out: &mut Vec<Batch>) {
        for t in &batch.tuples {
            let s = self.open.entry(t.key).or_insert(Session {
                start: t.time.0,
                last: t.time.0,
                acc: 0,
                count: 0,
                latest_input: PhysicalTime::ZERO,
            });
            // A tuple arriving after the session's gap would have closed
            // it; treat as a new session for the same key (the close is
            // emitted below once the watermark confirms it).
            s.last = s.last.max(t.time.0);
            s.start = s.start.min(t.time.0);
            s.acc = s.acc.wrapping_add(t.value);
            s.count += 1;
            if batch.time > s.latest_input {
                s.latest_input = batch.time;
            }
        }
        let wm = self.watermark.observe(channel, batch.progress.0);
        // Close sessions whose gap has fully elapsed.
        let gap = self.gap;
        let mut closed: Vec<(u64, Session)> = Vec::new();
        self.open.retain(|&k, s| {
            if s.last.saturating_add(gap) <= wm {
                closed.push((
                    k,
                    Session {
                        start: s.start,
                        last: s.last,
                        acc: s.acc,
                        count: s.count,
                        latest_input: s.latest_input,
                    },
                ));
                false
            } else {
                true
            }
        });
        if closed.is_empty() {
            // Still forward progress so downstream watermarks advance.
            out.push(Batch::punctuation(LogicalTime(wm), batch.time));
            return;
        }
        closed.sort_unstable_by_key(|(k, _)| *k);
        let latest = closed
            .iter()
            .map(|(_, s)| s.latest_input)
            .max()
            .unwrap_or(batch.time);
        let tuples: Vec<Tuple> = closed
            .into_iter()
            .map(|(k, s)| Tuple::new(k, s.acc, LogicalTime(s.last)))
            .collect();
        out.push(Batch::with_progress(tuples, LogicalTime(wm), latest));
    }

    fn pending(&self) -> usize {
        self.open.len()
    }

    fn name(&self) -> &'static str {
        "session_window"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(k: u64, v: i64, p: u64) -> Tuple {
        Tuple::new(k, v, LogicalTime(p))
    }

    fn feed(op: &mut dyn Operator, tuples: Vec<Tuple>, progress: u64, arrival: u64) -> Vec<Batch> {
        let mut out = Vec::new();
        let b = Batch::with_progress(tuples, LogicalTime(progress), PhysicalTime(arrival));
        op.on_batch(0, &b, PhysicalTime(arrival), &mut out);
        out
    }

    #[test]
    fn session_closes_after_gap() {
        let mut op = SessionWindow::new(10, 1);
        // Activity for key 1 at times 5, 8; progress reaches 12.
        let out = feed(&mut op, vec![tuple(1, 3, 5), tuple(1, 4, 8)], 12, 100);
        // Session's last activity is 8; closes only once progress >= 18.
        assert!(out[0].is_empty(), "session still open at wm=12");
        assert_eq!(op.open_sessions(), 1);
        let out = feed(&mut op, vec![], 18, 200);
        assert_eq!(out[0].tuples, vec![tuple(1, 7, 8)]);
        assert_eq!(op.open_sessions(), 0);
    }

    #[test]
    fn session_extends_with_activity() {
        let mut op = SessionWindow::new(10, 1);
        let _ = feed(&mut op, vec![tuple(1, 1, 5)], 5, 1);
        // New activity at 14 (within gap of 5+10): session extends.
        let _ = feed(&mut op, vec![tuple(1, 1, 14)], 14, 2);
        let out = feed(&mut op, vec![], 20, 3);
        assert!(out[0].is_empty(), "extended session must not close at 20");
        let out = feed(&mut op, vec![], 24, 4);
        assert_eq!(out[0].tuples, vec![tuple(1, 2, 14)]);
    }

    #[test]
    fn sessions_are_per_key() {
        let mut op = SessionWindow::new(10, 1);
        let _ = feed(&mut op, vec![tuple(1, 1, 0), tuple(2, 5, 6)], 6, 1);
        let out = feed(&mut op, vec![], 11, 2);
        // Key 1 (last=0) closes at wm 11 >= 10; key 2 (last=6) stays open.
        assert_eq!(out[0].tuples, vec![tuple(1, 1, 0)]);
        assert_eq!(op.open_sessions(), 1);
    }

    #[test]
    fn session_punctuates_progress() {
        let mut op = SessionWindow::new(100, 1);
        let _ = feed(&mut op, vec![tuple(1, 1, 5)], 5, 1);
        let out = feed(&mut op, vec![], 50, 2);
        assert_eq!(out[0].progress, LogicalTime(50), "progress must flow");
        assert!(out[0].is_empty());
    }

    #[test]
    fn session_snapshot_roundtrip_preserves_open_sessions() {
        let mut op = SessionWindow::new(10, 1);
        let _ = feed(&mut op, vec![tuple(1, 3, 5), tuple(2, 4, 8)], 8, 100);
        let mut bytes = Vec::new();
        op.snapshot_state(&mut bytes);
        let mut restored = SessionWindow::new(10, 1);
        assert!(restored.restore_state(&bytes));
        assert_eq!(restored.open_sessions(), 2);
        // Both copies must close identically from here on.
        let a = feed(&mut op, vec![], 25, 200);
        let b = feed(&mut restored, vec![], 25, 200);
        assert_eq!(a, b);
        assert!(!a[0].is_empty(), "sessions should have closed");
    }

    #[test]
    fn snapshot_restore_rejects_malformed_bytes() {
        let mut op = SessionWindow::new(10, 1);
        assert!(!op.restore_state(b"garbage"));
        assert!(!op.restore_state(&[2]), "unknown version byte");
        let two_ch = SessionWindow::new(10, 2);
        let mut bytes = Vec::new();
        two_ch.snapshot_state(&mut bytes);
        assert!(!op.restore_state(&bytes), "channel-count mismatch");
        let _ = feed(&mut op, vec![tuple(1, 3, 5), tuple(2, 4, 8)], 8, 100);
        let mut ok = Vec::new();
        op.snapshot_state(&mut ok);
        let mut fresh = SessionWindow::new(10, 1);
        assert!(!fresh.restore_state(&ok[..ok.len() - 1]), "cut short");
        let mut trailing = ok.clone();
        trailing.push(0xff);
        assert!(!fresh.restore_state(&trailing), "trailing byte");
        assert!(fresh.restore_state(&ok));
    }

    #[test]
    fn restore_refuses_a_session_count_the_body_cannot_hold() {
        let op = SessionWindow::new(10, 1);
        let mut bytes = Vec::new();
        op.snapshot_state(&mut bytes);
        // The empty operator's body ends with its session count.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 40]);
        let mut restored = SessionWindow::new(10, 1);
        assert!(!restored.restore_state(&bytes));
    }
}
