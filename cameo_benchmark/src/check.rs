//! The reference computation and the latency accounting.
//!
//! Both are recomputed after the run from what the sender knows — the
//! compiled streams and how many frames of each it sent — and compared
//! with what the collector received. `firehose_agg*`: per
//! `(job, window, key)` sums must equal the delivered results, each
//! window delivered exactly once (no late drops, no duplicates). Spin
//! workloads: every stamp received exactly once.
//!
//! Latency is coordinated-omission safe: it runs from the *scheduled*
//! send time, so a stalled sender or a full socket shows as latency.
//! A result that never arrives counts as a miss.

use crate::stats::percentile_sorted;
use crate::workload::{Class, JobKind, Stream, Workload, AGG_KEYS, AGG_WINDOW_US};
use cameo_dataflow::event::Tuple;
use std::collections::BTreeMap;

/// One sink output as the collector saw it.
#[derive(Clone, Copy, Debug)]
pub struct Rec {
    /// `OutputEvent::batch.progress`: the frame's stamp for a spin job,
    /// the window end for an aggregation.
    pub stamp: u64,
    /// Collector receipt, µs on the run's clock.
    pub receipt_us: u64,
    /// `OutputEvent::at`, µs on the runtime's clock.
    pub emit_us: u64,
    /// Order-independent digest of the batch's `(key, value)` pairs.
    pub fold: u64,
    pub tuples: u32,
}

/// Digest of a result batch; the reference folds its own sums the same
/// way, so the collector never has to keep the tuples alive.
pub fn fold_tuples(tuples: &[Tuple]) -> u64 {
    tuples
        .iter()
        .fold(0u64, |acc, t| acc.wrapping_add(fold_pair(t.key, t.value)))
}

fn fold_pair(key: u64, value: i64) -> u64 {
    let mut x = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value as u64);
    x = (x ^ (x >> 31)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

/// Timed-phase accounting of one tenant class.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Latencies of the results that arrived, sorted.
    pub lat_us: Vec<u64>,
    /// Results the timed phase should have produced (sends for a spin
    /// job, windows for an aggregation).
    pub expected: u64,
    /// Arrived, but later than the job's target.
    pub late: u64,
    /// Never arrived.
    pub lost: u64,
}

impl ClassStats {
    /// Percentile over the whole timed phase.
    pub fn percentile(&self, q: f64) -> f64 {
        percentile_sorted(&self.lat_us, q) as f64
    }

    /// (late + lost) ÷ expected.
    pub fn miss_rate(&self) -> f64 {
        if self.expected == 0 {
            0.0
        } else {
            (self.late + self.lost) as f64 / self.expected as f64
        }
    }
}

#[derive(Clone, Debug, Default)]
pub struct Analysis {
    pub strict: ClassStats,
    pub lax: ClassStats,
    /// Frames whose tuples are missing from, or wrong in, the delivered
    /// results (over the whole run, not only the timed phase).
    pub failed_frames: u64,
    /// What did not match, for the operator.
    pub problems: Vec<String>,
    /// Results received, per job.
    pub outputs: Vec<u64>,
}

/// What the sender did with one stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sent {
    /// Frames sent, `seq` in `0..frames`.
    pub frames: u64,
    /// The last of them was the end-of-run flush frame (stamped past
    /// every open window to close it).
    pub flushed: bool,
}

/// Stamp jump of the flush frame.
pub const FLUSH_JUMP: u64 = 10 * AGG_WINDOW_US;

fn stamp_of(s: &Stream, sent: &Sent, seq: u64) -> u64 {
    if sent.flushed && seq + 1 == sent.frames {
        s.stamp(seq) + FLUSH_JUMP
    } else {
        s.stamp(seq)
    }
}

/// When window `[end − W, end)` of a job can fire: the latest, over the
/// job's sources, of the first *scheduled* paced arrival stamped at or
/// past `end`. `None` when a source has no such paced arrival (the
/// window closes in another phase).
pub fn trigger_at(sources: &[&Stream], end: u64) -> Option<u32> {
    let mut latest = 0u32;
    for s in sources {
        // paced stamp = paced_base + at + 1 ≥ end  ⇔  at ≥ end − base − 1
        let need = end.checked_sub(s.paced_base + 1)?;
        let i = s.at_us.partition_point(|&at| (at as u64) < need);
        latest = latest.max(*s.at_us.get(i)?);
    }
    Some(latest)
}

/// The timed phase on the schedule's clock.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Start of the paced schedule on the run's clock.
    pub t0_us: u64,
    /// The timed phase is schedule time `[from_us, to_us)`.
    pub from_us: u64,
    pub to_us: u64,
}

impl Timed {
    /// Account one expected result scheduled at `at`: `hit` is its
    /// receipt time if it arrived.
    fn account(&self, class: &mut ClassStats, at: u64, hit: Option<u64>, target_us: u64) {
        if !(self.from_us..self.to_us).contains(&at) {
            return;
        }
        class.expected += 1;
        match hit {
            Some(receipt_us) => {
                let lat = receipt_us.saturating_sub(self.t0_us + at);
                class.lat_us.push(lat);
                if lat > target_us {
                    class.late += 1;
                }
            }
            None => class.lost += 1,
        }
    }
}

/// Compare what was received with the reference, and extract the timed
/// phase's latencies.
pub fn analyse(
    w: &Workload,
    streams: &[Stream],
    sent: &[Sent],
    records: &[Vec<Rec>],
    timed: &Timed,
) -> Analysis {
    let mut out = Analysis::default();
    for (ji, job) in w.jobs.iter().enumerate() {
        let mine: Vec<usize> = (0..streams.len())
            .filter(|&i| streams[i].job == ji)
            .collect();
        let mut recs = records[ji].clone();
        recs.sort_unstable_by_key(|r| r.stamp);
        out.outputs.push(recs.len() as u64);
        let mut class = ClassStats::default();
        match job.kind {
            JobKind::Spin { .. } => {
                let si = mine[0];
                check_spin(
                    &job.name,
                    &streams[si],
                    &sent[si],
                    &recs,
                    job.target_us,
                    timed,
                    &mut class,
                    &mut out,
                );
            }
            JobKind::Agg => check_agg(
                &job.name,
                streams,
                sent,
                &mine,
                &recs,
                job.target_us,
                timed,
                &mut class,
                &mut out,
            ),
        }
        let into = match job.class {
            Class::Strict => &mut out.strict,
            Class::Lax => &mut out.lax,
        };
        into.lat_us.extend(class.lat_us);
        into.expected += class.expected;
        into.late += class.late;
        into.lost += class.lost;
    }
    out.strict.lat_us.sort_unstable();
    out.lax.lat_us.sort_unstable();
    out
}

#[allow(clippy::too_many_arguments)]
fn check_spin(
    name: &str,
    s: &Stream,
    sent: &Sent,
    recs: &[Rec],
    target_us: u64,
    timed: &Timed,
    class: &mut ClassStats,
    out: &mut Analysis,
) {
    let (mut missing, mut extra) = (0u64, 0u64);
    let mut r = 0usize;
    for seq in 0..sent.frames {
        let stamp = stamp_of(s, sent, seq);
        while r < recs.len() && recs[r].stamp < stamp {
            extra += 1; // a stamp that was never sent
            r += 1;
        }
        let hit = (r < recs.len() && recs[r].stamp == stamp).then(|| recs[r]);
        if hit.is_some() {
            r += 1;
            while r < recs.len() && recs[r].stamp == stamp {
                extra += 1; // delivered twice
                r += 1;
            }
        } else {
            missing += 1;
        }
        // Timed accounting: paced frames scheduled inside the window.
        let paced = seq
            .checked_sub(s.burst)
            .filter(|&p| p < s.at_us.len() as u64);
        if let Some(p) = paced {
            let at = s.at_us[p as usize] as u64;
            timed.account(class, at, hit.map(|r| r.receipt_us), target_us);
        }
    }
    extra += (recs.len() - r) as u64;
    if missing + extra > 0 {
        out.failed_frames += missing + extra;
        out.problems.push(format!(
            "{name}: {missing} stamps never delivered, {extra} delivered twice or never sent"
        ));
    }
}

/// Reference state of one window of one job.
struct WinRef {
    sums: [i64; AGG_KEYS as usize],
    present: u64,
    frames: u32,
}

#[allow(clippy::too_many_arguments)]
fn check_agg(
    name: &str,
    streams: &[Stream],
    sent: &[Sent],
    mine: &[usize],
    recs: &[Rec],
    target_us: u64,
    timed: &Timed,
    class: &mut ClassStats,
    out: &mut Analysis,
) {
    // Window id → reference sums, from every frame actually sent.
    let mut wins: BTreeMap<u64, WinRef> = BTreeMap::new();
    let mut watermark = u64::MAX;
    for &si in mine {
        let (s, n) = (&streams[si], &sent[si]);
        let mut last = 0u64;
        for seq in 0..n.frames {
            let stamp = stamp_of(s, n, seq);
            last = stamp;
            let win = wins.entry(stamp / AGG_WINDOW_US).or_insert(WinRef {
                sums: [0; AGG_KEYS as usize],
                present: 0,
                frames: 0,
            });
            win.frames += 1;
            for t in s.tuples(seq, stamp) {
                let k = (t.key % AGG_KEYS) as usize;
                win.sums[k] = win.sums[k].wrapping_add(t.value);
                win.present |= 1 << k;
            }
        }
        // A window fires once every source has moved past its end.
        watermark = watermark.min(last);
    }
    let sources: Vec<&Stream> = mine.iter().map(|&i| &streams[i]).collect();
    let (mut missing, mut wrong) = (0u64, 0u64);
    let mut r = 0usize;
    for (&id, win) in &wins {
        let end = (id + 1) * AGG_WINDOW_US;
        if end > watermark {
            break; // still open when the run ended
        }
        while r < recs.len() && recs[r].stamp < end {
            wrong += 1; // a window the reference does not have
            r += 1;
        }
        let hit = (r < recs.len() && recs[r].stamp == end).then(|| recs[r]);
        if let Some(rec) = hit {
            r += 1;
            while r < recs.len() && recs[r].stamp == end {
                wrong += 1; // delivered twice
                r += 1;
            }
            let want = (0..AGG_KEYS)
                .filter(|k| win.present >> k & 1 == 1)
                .fold(0u64, |acc, k| {
                    acc.wrapping_add(fold_pair(k, win.sums[k as usize]))
                });
            if rec.tuples != win.present.count_ones() || rec.fold != want {
                wrong += 1;
                out.failed_frames += win.frames as u64;
            }
        } else {
            missing += 1;
            out.failed_frames += win.frames as u64;
        }
        if let Some(at) = trigger_at(&sources, end) {
            timed.account(class, at as u64, hit.map(|r| r.receipt_us), target_us);
        }
    }
    wrong += (recs.len() - r) as u64;
    if missing + wrong > 0 {
        out.failed_frames += wrong;
        out.problems.push(format!(
            "{name}: {missing} windows never delivered, {wrong} delivered wrong, twice or unasked"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{compile_streams, workload, Phases};

    fn hand_stream(source: u32, at_us: Vec<u32>) -> Stream {
        let phases = Phases::for_seconds(0.01);
        let w = workload("firehose_agg", 1, &phases).unwrap();
        let mut s = compile_streams(&w, 1, &phases)
            .into_iter()
            .find(|s| s.job == 0 && s.source == source)
            .unwrap();
        s.at_us = at_us;
        s.paced_base = 10_000;
        s
    }

    #[test]
    fn trigger_is_the_slower_sources_first_arrival_past_the_window_end() {
        // Paced stamps are 10_000 + at + 1.
        let a = hand_stream(0, vec![100, 4_000, 4_999, 5_200, 9_000]);
        let b = hand_stream(1, vec![50, 3_000, 6_100, 11_000]);
        // Window ending at 15_000 needs a stamp ≥ 15_000, i.e. at ≥ 4_999:
        // source a has 4_999 (stamp exactly 15_000), source b first has 6_100.
        assert_eq!(trigger_at(&[&a, &b], 15_000), Some(6_100));
        assert_eq!(trigger_at(&[&a], 15_000), Some(4_999));
        // Window ending at 20_000 needs at ≥ 9_999: a never gets there.
        assert_eq!(trigger_at(&[&a, &b], 20_000), None);
        assert_eq!(trigger_at(&[&b], 20_000), Some(11_000));
        // A window that ended inside the burst has no paced trigger.
        assert_eq!(trigger_at(&[&a, &b], 10_000), None);
    }

    #[test]
    fn spin_check_counts_missing_duplicate_and_late() {
        let phases = Phases::for_seconds(0.2);
        let w = workload("tenant_mix", 1, &phases).unwrap();
        let streams = compile_streams(&w, 3, &phases);
        let sent: Vec<Sent> = streams
            .iter()
            .map(|s| Sent {
                frames: s.burst + s.at_us.len() as u64,
                flushed: false,
            })
            .collect();
        let t0 = 1_000_000u64;
        let perfect = |delay: u64| -> Vec<Vec<Rec>> {
            w.jobs
                .iter()
                .enumerate()
                .map(|(ji, _)| {
                    let s = streams.iter().find(|s| s.job == ji).unwrap();
                    (0..s.burst + s.at_us.len() as u64)
                        .map(|seq| Rec {
                            stamp: s.stamp(seq),
                            receipt_us: match seq.checked_sub(s.burst) {
                                Some(p) => t0 + s.at_us[p as usize] as u64 + delay,
                                None => 0,
                            },
                            emit_us: 0,
                            fold: 0,
                            tuples: 1,
                        })
                        .collect()
                })
                .collect()
        };
        let timed = Timed {
            t0_us: t0,
            from_us: 0,
            to_us: phases.paced_us(),
        };
        let ok = analyse(&w, &streams, &sent, &perfect(700), &timed);
        assert!(ok.problems.is_empty(), "{:?}", ok.problems);
        assert_eq!(ok.failed_frames, 0);
        assert_eq!(ok.strict.miss_rate(), 0.0);
        assert_eq!(ok.strict.percentile(50.0), 700.0);
        assert_eq!(ok.strict.percentile(95.0), 700.0);
        assert!(ok.strict.expected > 0 && ok.lax.expected > 0);

        // 20 ms is late for the 10 ms strict target, fine for lax.
        let slow = analyse(&w, &streams, &sent, &perfect(20_000), &timed);
        assert_eq!(slow.strict.miss_rate(), 1.0);
        assert_eq!(slow.lax.miss_rate(), 0.0);

        let mut broken = perfect(700);
        let dup = broken[0][3];
        broken[0].push(dup);
        broken[1].pop();
        let bad = analyse(&w, &streams, &sent, &broken, &timed);
        assert_eq!(bad.failed_frames, 2);
        assert_eq!(bad.problems.len(), 2);
        assert_eq!(bad.strict.lost, 1);
    }
}
