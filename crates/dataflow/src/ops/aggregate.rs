//! Keyed windowed aggregation — the workhorse of every query in the
//! paper's evaluation (§6: "our queries feature multiple stages of
//! windowed aggregation parallelized into a group of operators").
//!
//! Tuples are grouped by key into windows; when the watermark (minimum
//! stream progress over all input channels) passes a window's end, the
//! window fires and one output batch is emitted. Output tuples carry
//! logical time `window_end - 1` (the last instant the window covers) so
//! that a downstream window of the same size groups them with their own
//! window, while the output *batch* progress is `window_end`, which is
//! exactly the frontier progress `TRANSFORM` predicts — deadlines and
//! actual trigger times line up by construction.

use crate::codec::{self, Reader};
use crate::event::{Batch, Tuple};
use crate::operator::{Operator, StateSnapshot, WatermarkTracker};
use crate::window::WindowSpec;
use cameo_core::time::{LogicalTime, PhysicalTime};
use std::collections::{BTreeMap, HashMap};

/// Aggregation functions over tuple values within (window, key) groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregation {
    /// Sum of values.
    Sum,
    /// Number of tuples.
    Count,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean (integer division).
    Mean,
}

#[derive(Clone, Copy, Debug)]
struct AggState {
    acc: i64,
    count: i64,
}

impl AggState {
    fn new() -> Self {
        AggState { acc: 0, count: 0 }
    }

    fn update(&mut self, agg: Aggregation, v: i64) {
        match agg {
            Aggregation::Sum | Aggregation::Mean => self.acc = self.acc.wrapping_add(v),
            Aggregation::Count => self.acc += 1,
            Aggregation::Min => self.acc = if self.count == 0 { v } else { self.acc.min(v) },
            Aggregation::Max => self.acc = if self.count == 0 { v } else { self.acc.max(v) },
        }
        self.count += 1;
    }

    fn finish(&self, agg: Aggregation) -> i64 {
        match agg {
            Aggregation::Mean => {
                if self.count == 0 {
                    0
                } else {
                    self.acc / self.count
                }
            }
            _ => self.acc,
        }
    }
}

#[derive(Debug, Default)]
struct WindowState {
    groups: HashMap<u64, AggState>,
    /// Physical arrival time of the latest contributing input (`t_M` of
    /// the eventual output).
    latest_input: PhysicalTime,
}

/// Keyed windowed aggregation operator.
pub struct WindowAggregate {
    window: WindowSpec,
    agg: Aggregation,
    watermark: WatermarkTracker,
    /// Open windows by id (ordered so windows fire in order).
    state: BTreeMap<u64, WindowState>,
    /// Windows with id < this have fired; late tuples are dropped.
    fired_below: u64,
    late_drops: u64,
}

impl WindowAggregate {
    /// A windowed aggregate over `num_channels` input channels.
    pub fn new(window: WindowSpec, agg: Aggregation, num_channels: u32) -> Self {
        WindowAggregate {
            window,
            agg,
            watermark: WatermarkTracker::new(num_channels.max(1) as usize),
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
        let mut tuples: Vec<Tuple> = ws
            .groups
            .iter()
            .map(|(&k, st)| Tuple::new(k, st.finish(self.agg), tuple_time))
            .collect();
        // HashMap order is nondeterministic; sort for reproducibility.
        tuples.sort_unstable_by_key(|t| t.key);
        out.push(Batch::with_progress(tuples, end, ws.latest_input));
    }
}

impl StateSnapshot for WindowAggregate {
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
            codec::put_u32(out, ws.groups.len() as u32);
            let mut keys: Vec<u64> = ws.groups.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                let st = &ws.groups[&k];
                codec::put_u64(out, k);
                codec::put_i64(out, st.acc);
                codec::put_i64(out, st.count);
            }
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
            let (Some(wid), Some(latest), Some(ngroups)) = (r.u64(), r.u64(), r.u32()) else {
                return false;
            };
            // Reserve no more groups than the body's bytes can hold (24
            // each), so a hostile count is refused, not allocated.
            let mut groups =
                HashMap::with_capacity((ngroups as usize).min(r.remaining().len() / 24));
            for _ in 0..ngroups {
                let (Some(k), Some(acc), Some(count)) = (r.u64(), r.i64(), r.i64()) else {
                    return false;
                };
                groups.insert(k, AggState { acc, count });
            }
            state.insert(
                wid,
                WindowState {
                    groups,
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

impl Operator for WindowAggregate {
    fn on_batch(&mut self, channel: u32, batch: &Batch, _now: PhysicalTime, out: &mut Vec<Batch>) {
        // A tuple is late if its window already fired — or could have
        // fired: the watermark passed the window's end even if the
        // window held no data.
        let wm_before = self.watermark.watermark();
        for t in &batch.tuples {
            for wid in self.window.windows_for(t.time) {
                if wid < self.fired_below || self.window.window_end(wid).0 <= wm_before {
                    self.late_drops += 1;
                    continue;
                }
                let ws = self.state.entry(wid).or_default();
                ws.groups
                    .entry(t.key)
                    .or_insert_with(AggState::new)
                    .update(self.agg, t.value);
                if batch.time > ws.latest_input {
                    ws.latest_input = batch.time;
                }
            }
        }
        let wm = self.watermark.observe(channel, batch.progress.0);
        self.fire_ready(wm, out);
    }

    fn pending(&self) -> usize {
        self.state.values().map(|w| w.groups.len()).sum()
    }

    fn name(&self) -> &'static str {
        "window_aggregate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(k: u64, v: i64, p: u64) -> Tuple {
        Tuple::new(k, v, LogicalTime(p))
    }

    fn run(op: &mut WindowAggregate, channel: u32, tuples: Vec<Tuple>, arrival: u64) -> Vec<Batch> {
        let mut out = Vec::new();
        let b = Batch::new(tuples, PhysicalTime(arrival));
        op.on_batch(channel, &b, PhysicalTime(arrival), &mut out);
        out
    }

    #[test]
    fn tumbling_sum_fires_on_watermark() {
        let mut op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        // Window [0,10): two tuples, no trigger yet.
        let out = run(&mut op, 0, vec![tuple(1, 5, 3), tuple(1, 7, 8)], 100);
        assert!(out.is_empty());
        // Progress reaches 12 -> window 0 fires.
        let out = run(&mut op, 0, vec![tuple(2, 1, 12)], 200);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuples, vec![tuple(1, 12, 9)]);
        assert_eq!(out[0].progress, LogicalTime(10));
        assert_eq!(
            out[0].time,
            PhysicalTime(100),
            "t_M is the last *contributing* arrival"
        );
    }

    #[test]
    fn multi_channel_waits_for_all() {
        let mut op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 2);
        // Channel 0: a tuple in window 0 plus progress past the boundary.
        let out = run(&mut op, 0, vec![tuple(1, 5, 3), tuple(2, 0, 11)], 100);
        assert!(out.is_empty(), "channel 1 has not advanced");
        let out = run(&mut op, 1, vec![tuple(1, 6, 4), tuple(2, 0, 11)], 150);
        assert_eq!(out.len(), 1, "both channels past window end");
        // Window 0 holds key 1 from both channels.
        assert_eq!(out[0].tuples[0].value, 5 + 6);
    }

    #[test]
    fn groups_by_key_sorted() {
        let mut op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Count, 1);
        let out = run(
            &mut op,
            0,
            vec![
                tuple(9, 1, 1),
                tuple(3, 1, 2),
                tuple(9, 1, 3),
                tuple(3, 1, 9),
                tuple(10, 1, 12),
            ],
            50,
        );
        assert_eq!(out.len(), 1);
        let t = &out[0].tuples;
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].key, t[0].value), (3, 2));
        assert_eq!((t[1].key, t[1].value), (9, 2));
    }

    #[test]
    fn min_max_mean() {
        for (agg, expect) in [
            (Aggregation::Min, 2),
            (Aggregation::Max, 9),
            (Aggregation::Mean, 5),
        ] {
            let mut op = WindowAggregate::new(WindowSpec::tumbling(10), agg, 1);
            let out = run(
                &mut op,
                0,
                vec![
                    tuple(1, 9, 1),
                    tuple(1, 2, 2),
                    tuple(1, 4, 3),
                    tuple(1, 1, 10),
                ],
                50,
            );
            assert_eq!(out[0].tuples[0].value, expect, "{agg:?}");
        }
    }

    #[test]
    fn sliding_window_counts_overlaps() {
        // size 20, slide 10: tuple at p=15 is in windows 0 ([0,20)) and 1 ([10,30)).
        let mut op = WindowAggregate::new(WindowSpec::sliding(20, 10), Aggregation::Sum, 1);
        let out = run(&mut op, 0, vec![tuple(1, 3, 15)], 10);
        assert!(out.is_empty());
        // Watermark 30 fires windows 0 and 1.
        let out = run(&mut op, 0, vec![tuple(1, 100, 30)], 20);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].progress, LogicalTime(20));
        assert_eq!(out[0].tuples[0].value, 3);
        assert_eq!(out[1].progress, LogicalTime(30));
        assert_eq!(out[1].tuples[0].value, 3);
    }

    #[test]
    fn late_tuples_dropped_and_counted() {
        let mut op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        let _ = run(&mut op, 0, vec![tuple(1, 1, 15)], 10); // fires window 0 (empty)
        let out = run(&mut op, 0, vec![tuple(1, 5, 3)], 20); // p=3 is late
        assert!(out.iter().all(|b| b.tuples.iter().all(|t| t.value != 5)));
        assert_eq!(op.late_drops(), 1);
    }

    #[test]
    fn windows_fire_in_order() {
        let mut op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        let out = run(
            &mut op,
            0,
            vec![
                tuple(1, 1, 5),
                tuple(1, 2, 15),
                tuple(1, 3, 25),
                tuple(1, 4, 31),
            ],
            10,
        );
        // Windows 0,1,2 all complete at watermark 31.
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].progress < w[1].progress));
    }

    #[test]
    fn empty_punctuation_advances_watermark() {
        let mut op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        let _ = run(&mut op, 0, vec![tuple(1, 5, 3)], 10);
        let mut out = Vec::new();
        op.on_batch(
            0,
            &Batch::punctuation(LogicalTime(10), PhysicalTime(20)),
            PhysicalTime(20),
            &mut out,
        );
        assert_eq!(out.len(), 1, "punctuation alone can fire a window");
        assert_eq!(out[0].tuples[0].value, 5);
    }

    #[test]
    fn snapshot_roundtrip_preserves_open_windows() {
        let mut op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        let _ = run(&mut op, 0, vec![tuple(1, 5, 3), tuple(2, 7, 14)], 100);
        let _ = run(&mut op, 0, vec![tuple(1, 1, 15)], 110); // fires window 0
        let mut bytes = Vec::new();
        op.snapshot_state(&mut bytes);

        let mut restored = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        assert!(restored.restore_state(&bytes));
        // Both operators must now behave identically.
        let a = run(&mut op, 0, vec![tuple(9, 9, 25)], 200);
        let b = run(&mut restored, 0, vec![tuple(9, 9, 25)], 200);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "window 1 fires with restored contents");
        // And snapshot bytes are deterministic.
        let mut bytes2 = Vec::new();
        op.snapshot_state(&mut bytes2);
        let mut bytes3 = Vec::new();
        restored.snapshot_state(&mut bytes3);
        assert_eq!(bytes2, bytes3);
    }

    #[test]
    fn snapshot_restore_rejects_garbage() {
        let mut op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        assert!(!op.restore_state(&[0xFF, 1, 2, 3]));
        // Channel-count mismatch is rejected too.
        let mut two_ch = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 2);
        let mut bytes = Vec::new();
        op.snapshot_state(&mut bytes);
        assert!(!two_ch.restore_state(&bytes));
        // A snapshot with open windows, cut short or with a trailing byte.
        let _ = run(&mut op, 0, vec![tuple(1, 5, 3), tuple(2, 7, 14)], 100);
        let mut ok = Vec::new();
        op.snapshot_state(&mut ok);
        let mut op2 = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        assert!(!op2.restore_state(&ok[..ok.len() - 1]), "cut short");
        let mut trailing = ok.clone();
        trailing.push(0);
        assert!(!op2.restore_state(&trailing), "trailing byte");
        assert!(op2.restore_state(&ok));
    }

    #[test]
    fn restore_refuses_a_group_count_the_body_cannot_hold() {
        let op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        let mut bytes = Vec::new();
        op.snapshot_state(&mut bytes);
        // One window (id, latest) claiming u32::MAX groups, then a few bytes.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 24]);
        let mut restored = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        assert!(!restored.restore_state(&bytes));
    }

    #[test]
    fn output_tuple_time_feeds_next_same_size_window() {
        // Chain property: output tuple of window k has logical time inside
        // downstream window k (same size): end-1.
        let mut op = WindowAggregate::new(WindowSpec::tumbling(10), Aggregation::Sum, 1);
        let out = run(&mut op, 0, vec![tuple(1, 5, 3), tuple(1, 2, 11)], 10);
        assert_eq!(out[0].tuples[0].time, LogicalTime(9));
    }
}
