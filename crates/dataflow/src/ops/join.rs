//! Windowed stream join (IPQ4 in §6.1 "summarizes errors from log
//! events via running a windowed join of two event streams, followed by
//! aggregation on a tumbling window").
//!
//! An equi-join on tuple key within aligned windows: tuples from the
//! left and right inputs are buffered per (window, key); when the
//! watermark passes a window's end, matching pairs are emitted with a
//! combined value. Input sides are identified by the *stage edge* each
//! channel belongs to (edge ordinal 0 = left, 1 = right), which the
//! instance context provides at construction time.

use crate::codec::{self, Reader};
use crate::event::{Batch, Tuple};
use crate::operator::{InstanceCtx, Operator, StateSnapshot, WatermarkTracker};
use crate::window::WindowSpec;
use cameo_core::time::{LogicalTime, PhysicalTime};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Default)]
struct SideState {
    by_key: HashMap<u64, Vec<i64>>,
}

#[derive(Debug, Default)]
struct WindowState {
    left: SideState,
    right: SideState,
    latest_input: PhysicalTime,
}

/// Windowed equi-join with a configurable value combiner.
pub struct WindowJoin {
    window: WindowSpec,
    watermark: WatermarkTracker,
    /// `true` at index `c` if channel `c` carries the left input.
    channel_is_left: Vec<bool>,
    combine: fn(i64, i64) -> i64,
    state: BTreeMap<u64, WindowState>,
    fired_below: u64,
    late_drops: u64,
}

impl WindowJoin {
    /// Build from an instance context: channels whose stage edge is the
    /// *first* incoming edge are the left input, all others the right.
    pub fn new(window: WindowSpec, ctx: &InstanceCtx, combine: fn(i64, i64) -> i64) -> Self {
        let first_edge = ctx.channels.first().copied().unwrap_or(0);
        let channel_is_left = ctx.channels.iter().map(|&e| e == first_edge).collect();
        WindowJoin {
            window,
            watermark: WatermarkTracker::new(ctx.channels.len().max(1)),
            channel_is_left,
            combine,
            state: BTreeMap::new(),
            fired_below: 0,
            late_drops: 0,
        }
    }

    /// Tuples dropped because they arrived behind the watermark.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    fn fire_ready(&mut self, watermark: u64, out: &mut Vec<Batch>) {
        while let Some((&wid, _)) = self.state.iter().next() {
            let end = self.window.window_end(wid);
            if end.0 > watermark {
                break;
            }
            let ws = self.state.remove(&wid).expect("peeked above");
            self.emit(wid, ws, out);
            self.fired_below = self.fired_below.max(wid + 1);
        }
    }

    fn emit(&self, wid: u64, ws: WindowState, out: &mut Vec<Batch>) {
        let end = self.window.window_end(wid);
        let tuple_time = LogicalTime(end.0 - 1);
        let mut tuples = Vec::new();
        let mut keys: Vec<&u64> = ws.left.by_key.keys().collect();
        keys.sort_unstable();
        for &k in keys {
            let Some(rights) = ws.right.by_key.get(&k) else {
                continue;
            };
            let lefts = &ws.left.by_key[&k];
            for &lv in lefts {
                for &rv in rights {
                    tuples.push(Tuple::new(k, (self.combine)(lv, rv), tuple_time));
                }
            }
        }
        out.push(Batch::with_progress(tuples, end, ws.latest_input));
    }
}

fn put_side(out: &mut Vec<u8>, side: &SideState) {
    codec::put_u32(out, side.by_key.len() as u32);
    let mut keys: Vec<u64> = side.by_key.keys().copied().collect();
    keys.sort_unstable();
    for k in keys {
        let vals = &side.by_key[&k];
        codec::put_u64(out, k);
        codec::put_u32(out, vals.len() as u32);
        for &v in vals {
            codec::put_i64(out, v);
        }
    }
}

/// Reads one side. Counts come off the bytes, so each reservation is
/// capped by what the rest of the body can hold (a key takes at least
/// 12 bytes, a value 8): a hostile count is refused, not allocated.
fn read_side(r: &mut Reader<'_>) -> Option<SideState> {
    let nkeys = r.u32()?;
    let mut by_key = HashMap::with_capacity((nkeys as usize).min(r.remaining().len() / 12));
    for _ in 0..nkeys {
        let k = r.u64()?;
        let nvals = r.u32()?;
        let mut vals = Vec::with_capacity((nvals as usize).min(r.remaining().len() / 8));
        for _ in 0..nvals {
            vals.push(r.i64()?);
        }
        by_key.insert(k, vals);
    }
    Some(SideState { by_key })
}

impl StateSnapshot for WindowJoin {
    fn snapshot_state(&self, out: &mut Vec<u8>) {
        codec::put_u8(out, 1); // format version
        codec::put_u32(out, self.watermark.progress().len() as u32);
        for &p in self.watermark.progress() {
            codec::put_u64(out, p);
        }
        codec::put_u64(out, self.fired_below);
        codec::put_u64(out, self.late_drops);
        codec::put_u32(out, self.state.len() as u32);
        for (&wid, ws) in &self.state {
            codec::put_u64(out, wid);
            codec::put_u64(out, ws.latest_input.0);
            put_side(out, &ws.left);
            put_side(out, &ws.right);
        }
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = Reader::new(bytes);
        let Some(1) = r.u8() else { return false };
        let Some(nch) = r.u32() else { return false };
        if nch as usize != self.watermark.num_channels() {
            return false;
        }
        let mut per_channel = Vec::with_capacity(nch as usize);
        for _ in 0..nch {
            let Some(p) = r.u64() else { return false };
            per_channel.push(p);
        }
        let (Some(fired_below), Some(late_drops), Some(nwin)) = (r.u64(), r.u64(), r.u32()) else {
            return false;
        };
        let mut state = BTreeMap::new();
        for _ in 0..nwin {
            let (Some(wid), Some(latest)) = (r.u64(), r.u64()) else {
                return false;
            };
            let (Some(left), Some(right)) = (read_side(&mut r), read_side(&mut r)) else {
                return false;
            };
            state.insert(
                wid,
                WindowState {
                    left,
                    right,
                    latest_input: PhysicalTime(latest),
                },
            );
        }
        if !r.is_empty() {
            return false;
        }
        self.watermark = WatermarkTracker::from_progress(per_channel);
        self.fired_below = fired_below;
        self.late_drops = late_drops;
        self.state = state;
        true
    }
}

impl Operator for WindowJoin {
    fn on_batch(&mut self, channel: u32, batch: &Batch, _now: PhysicalTime, out: &mut Vec<Batch>) {
        let is_left = self
            .channel_is_left
            .get(channel as usize)
            .copied()
            .unwrap_or(true);
        let wm_before = self.watermark.watermark();
        for t in &batch.tuples {
            for wid in self.window.windows_for(t.time) {
                if wid < self.fired_below || self.window.window_end(wid).0 <= wm_before {
                    self.late_drops += 1;
                    continue;
                }
                let ws = self.state.entry(wid).or_default();
                let side = if is_left { &mut ws.left } else { &mut ws.right };
                side.by_key.entry(t.key).or_default().push(t.value);
                if batch.time > ws.latest_input {
                    ws.latest_input = batch.time;
                }
            }
        }
        let wm = self.watermark.observe(channel, batch.progress.0);
        self.fire_ready(wm, out);
    }

    fn pending(&self) -> usize {
        self.state
            .values()
            .map(|w| {
                w.left.by_key.values().map(Vec::len).sum::<usize>()
                    + w.right.by_key.values().map(Vec::len).sum::<usize>()
            })
            .sum()
    }

    fn name(&self) -> &'static str {
        "window_join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(channels: Vec<u32>) -> InstanceCtx {
        InstanceCtx {
            channels,
            instance: 0,
            parallelism: 1,
        }
    }

    fn tuple(k: u64, v: i64, p: u64) -> Tuple {
        Tuple::new(k, v, LogicalTime(p))
    }

    fn feed(
        op: &mut WindowJoin,
        channel: u32,
        tuples: Vec<Tuple>,
        progress: u64,
        arrival: u64,
    ) -> Vec<Batch> {
        let mut out = Vec::new();
        let b = Batch::with_progress(tuples, LogicalTime(progress), PhysicalTime(arrival));
        op.on_batch(channel, &b, PhysicalTime(arrival), &mut out);
        out
    }

    #[test]
    fn joins_matching_keys_in_window() {
        // Channel 0 = left (edge 0), channel 1 = right (edge 1).
        let mut op = WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l + r);
        let out = feed(&mut op, 0, vec![tuple(1, 100, 3), tuple(2, 5, 4)], 4, 10);
        assert!(out.is_empty());
        let out = feed(&mut op, 1, vec![tuple(1, 7, 5)], 5, 20);
        assert!(out.is_empty(), "window not complete yet");
        // Both channels pass 10.
        let _ = feed(&mut op, 0, vec![], 12, 30);
        let out = feed(&mut op, 1, vec![], 12, 31);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuples, vec![tuple(1, 107, 9)]);
        assert_eq!(out[0].time, PhysicalTime(20), "latest contributing arrival");
    }

    #[test]
    fn cross_product_within_key() {
        let mut op = WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l * r);
        let _ = feed(&mut op, 0, vec![tuple(1, 2, 1), tuple(1, 3, 2)], 2, 1);
        let _ = feed(&mut op, 1, vec![tuple(1, 5, 3), tuple(1, 7, 4)], 4, 2);
        let _ = feed(&mut op, 0, vec![], 10, 3);
        let out = feed(&mut op, 1, vec![], 10, 4);
        let mut vals: Vec<i64> = out[0].tuples.iter().map(|t| t.value).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![10, 14, 15, 21]);
    }

    #[test]
    fn unmatched_keys_produce_nothing() {
        let mut op = WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l + r);
        let _ = feed(&mut op, 0, vec![tuple(1, 1, 1)], 1, 1);
        let _ = feed(&mut op, 1, vec![tuple(2, 2, 2)], 2, 2);
        let _ = feed(&mut op, 0, vec![], 10, 3);
        let out = feed(&mut op, 1, vec![], 10, 4);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }

    #[test]
    fn multiple_channels_per_side() {
        // Two left channels (edge 0) and one right channel (edge 1).
        let mut op = WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 0, 1]), |l, r| l + r);
        let _ = feed(&mut op, 0, vec![tuple(1, 10, 1)], 1, 1);
        let _ = feed(&mut op, 1, vec![tuple(1, 20, 2)], 2, 2);
        let _ = feed(&mut op, 2, vec![tuple(1, 1, 3)], 3, 3);
        let _ = feed(&mut op, 0, vec![], 10, 4);
        let _ = feed(&mut op, 1, vec![], 10, 5);
        let out = feed(&mut op, 2, vec![], 10, 6);
        let mut vals: Vec<i64> = out[0].tuples.iter().map(|t| t.value).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![11, 21], "both left tuples join the right tuple");
    }

    #[test]
    fn snapshot_roundtrip_preserves_buffered_sides() {
        let mut op = WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l + r);
        let _ = feed(&mut op, 0, vec![tuple(1, 100, 3), tuple(2, 5, 4)], 4, 10);
        let _ = feed(&mut op, 1, vec![tuple(1, 7, 5)], 5, 20);
        let mut bytes = Vec::new();
        op.snapshot_state(&mut bytes);

        let mut restored =
            WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l + r);
        assert!(restored.restore_state(&bytes));
        let _ = feed(&mut op, 0, vec![], 12, 30);
        let a = feed(&mut op, 1, vec![], 12, 31);
        let _ = feed(&mut restored, 0, vec![], 12, 30);
        let b = feed(&mut restored, 1, vec![], 12, 31);
        assert_eq!(a, b);
        assert_eq!(a[0].tuples, vec![tuple(1, 107, 9)]);
    }

    #[test]
    fn snapshot_restore_rejects_malformed() {
        let mut op = WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l + r);
        assert!(!op.restore_state(&[9, 9, 9]));
        let _ = feed(&mut op, 0, vec![tuple(1, 100, 3), tuple(2, 5, 4)], 4, 10);
        let _ = feed(&mut op, 1, vec![tuple(1, 7, 5)], 5, 20);
        let mut ok = Vec::new();
        op.snapshot_state(&mut ok);
        let mut fresh = WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l + r);
        assert!(!fresh.restore_state(&ok[..ok.len() - 1]), "cut short");
        let mut trailing = ok.clone();
        trailing.push(0);
        assert!(!fresh.restore_state(&trailing), "trailing byte");
        assert!(fresh.restore_state(&ok));
    }

    #[test]
    fn restore_refuses_key_and_value_counts_the_body_cannot_hold() {
        let op = WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l + r);
        let mut empty = Vec::new();
        op.snapshot_state(&mut empty);
        // One window (id, latest) whose left side claims u32::MAX keys.
        let mut keys = empty.clone();
        let n = keys.len();
        keys[n - 4..].copy_from_slice(&1u32.to_le_bytes());
        keys.extend_from_slice(&[0; 16]);
        let mut values = keys.clone();
        keys.extend_from_slice(&u32::MAX.to_le_bytes());
        keys.extend_from_slice(&[0; 24]);
        // The same window with one left key claiming u32::MAX values.
        values.extend_from_slice(&1u32.to_le_bytes());
        values.extend_from_slice(&[0; 8]);
        values.extend_from_slice(&u32::MAX.to_le_bytes());
        values.extend_from_slice(&[0; 24]);
        let mut restored =
            WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l + r);
        assert!(!restored.restore_state(&keys));
        assert!(!restored.restore_state(&values));
    }

    #[test]
    fn late_tuples_counted() {
        let mut op = WindowJoin::new(WindowSpec::tumbling(10), &ctx(vec![0, 1]), |l, r| l + r);
        let _ = feed(&mut op, 0, vec![], 15, 1);
        let _ = feed(&mut op, 1, vec![], 15, 2);
        let _ = feed(&mut op, 0, vec![tuple(1, 1, 3)], 16, 3);
        assert_eq!(op.late_drops(), 1);
    }
}
