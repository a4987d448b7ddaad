//! Workload generators: synthetic equivalents of the production traces
//! driving the paper's evaluation (Fig 2's characteristics, §6's
//! control groups, Fig 9's Pareto arrivals, Fig 10's 200× source skew).
//!
//! Generators are deterministic given a seed and emit message batches in
//! nondecreasing arrival order, one stream per ingest instance. Each
//! message carries `tuples_per_msg` tuples whose logical times span the
//! interval since the source's previous message — so stream progress
//! advances exactly with arrivals, windows close with the first message
//! past each boundary, and the measured latency is the pipeline delay
//! of that boundary-crossing message (the paper's latency definition).

use cameo_core::time::{LogicalTime, Micros, PhysicalTime};
use cameo_dataflow::event::{Batch, Tuple};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-source message rate over time.
#[derive(Clone, Debug)]
pub enum RatePattern {
    /// Fixed messages/second.
    Constant(f64),
    /// Per-second rates (index = seconds since workload start); the
    /// last entry repeats. Zero-rate seconds emit nothing.
    PerSecond(Vec<f64>),
}

impl RatePattern {
    pub fn rate_at(&self, second: u64) -> f64 {
        match self {
            RatePattern::Constant(r) => *r,
            RatePattern::PerSecond(v) => {
                if v.is_empty() {
                    0.0
                } else {
                    v[(second as usize).min(v.len() - 1)]
                }
            }
        }
    }

    /// Mean rate over the first `seconds` seconds.
    pub fn mean_rate(&self, seconds: u64) -> f64 {
        match self {
            RatePattern::Constant(r) => *r,
            RatePattern::PerSecond(_) => {
                let s = seconds.max(1);
                (0..s).map(|i| self.rate_at(i)).sum::<f64>() / s as f64
            }
        }
    }
}

/// A complete workload for one job.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// One pattern per ingest instance of the job.
    pub sources: Vec<RatePattern>,
    pub tuples_per_msg: u32,
    /// Key space of raw tuples.
    pub keys: u64,
    /// Uniform tuple value range (inclusive).
    pub value_range: (i64, i64),
    pub start: PhysicalTime,
    pub end: PhysicalTime,
    /// Event-time lag: logical time = arrival − lag. Zero models
    /// ingestion-time streams.
    pub event_time_lag: Micros,
}

impl WorkloadSpec {
    /// All sources at a constant rate for `duration`.
    pub fn constant(
        sources: u32,
        msgs_per_sec: f64,
        tuples_per_msg: u32,
        duration: Micros,
    ) -> Self {
        WorkloadSpec {
            sources: vec![RatePattern::Constant(msgs_per_sec); sources as usize],
            tuples_per_msg,
            keys: 1 << 16,
            value_range: (1, 100),
            start: PhysicalTime::ZERO,
            end: PhysicalTime::ZERO + duration,
            event_time_lag: Micros::ZERO,
        }
    }

    pub fn with_start(mut self, start: PhysicalTime) -> Self {
        let d = self.end.0 - self.start.0;
        self.start = start;
        self.end = PhysicalTime(start.0 + d);
        self
    }

    pub fn with_lag(mut self, lag: Micros) -> Self {
        self.event_time_lag = lag;
        self
    }

    pub fn with_keys(mut self, keys: u64) -> Self {
        self.keys = keys;
        self
    }

    pub fn duration(&self) -> Micros {
        self.end - self.start
    }

    /// Pareto-distributed per-second volumes (Fig 9: "we use a Pareto
    /// distribution for data volume ... based on Figures 2(a), 2(c)").
    /// Mean per-source rate is `mean_msgs_per_sec`; `alpha` controls
    /// tail heaviness (must be > 1); spikes are capped at `cap_factor`×
    /// the mean.
    pub fn pareto(
        sources: u32,
        mean_msgs_per_sec: f64,
        alpha: f64,
        tuples_per_msg: u32,
        duration: Micros,
        cap_factor: f64,
        seed: u64,
    ) -> Self {
        assert!(alpha > 1.0, "Pareto mean requires alpha > 1");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let seconds = (duration.0 / 1_000_000).max(1);
        let expected = alpha / (alpha - 1.0);
        let mut patterns = Vec::with_capacity(sources as usize);
        for _ in 0..sources {
            let rates: Vec<f64> = (0..seconds)
                .map(|_| {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let v = u.powf(-1.0 / alpha); // Pareto(alpha, xm=1)
                    (mean_msgs_per_sec * v / expected).min(mean_msgs_per_sec * cap_factor)
                })
                .collect();
            patterns.push(RatePattern::PerSecond(rates));
        }
        WorkloadSpec {
            sources: patterns,
            tuples_per_msg,
            keys: 1 << 16,
            value_range: (1, 100),
            start: PhysicalTime::ZERO,
            end: PhysicalTime::ZERO + duration,
            event_time_lag: Micros::ZERO,
        }
    }

    /// Heavily skewed static source rates: geometric spread of
    /// `spread`× between the slowest and fastest source (Fig 10's
    /// Type 2 has "ingestion rate varies by 200× across sources"),
    /// normalized to `total_msgs_per_sec` across all sources.
    pub fn skewed(
        sources: u32,
        total_msgs_per_sec: f64,
        spread: f64,
        tuples_per_msg: u32,
        duration: Micros,
    ) -> Self {
        assert!(sources > 0 && spread >= 1.0);
        let n = sources as usize;
        let raw: Vec<f64> = (0..n)
            .map(|i| {
                if n == 1 {
                    1.0
                } else {
                    spread.powf(i as f64 / (n - 1) as f64)
                }
            })
            .collect();
        let sum: f64 = raw.iter().sum();
        let patterns = raw
            .into_iter()
            .map(|r| RatePattern::Constant(total_msgs_per_sec * r / sum))
            .collect();
        WorkloadSpec {
            sources: patterns,
            tuples_per_msg,
            keys: 1 << 16,
            value_range: (1, 100),
            start: PhysicalTime::ZERO,
            end: PhysicalTime::ZERO + duration,
            event_time_lag: Micros::ZERO,
        }
    }

    /// Like [`WorkloadSpec::pareto`], but with a *single* per-second
    /// burst sequence shared by all sources: the spike hits the whole
    /// stream at once (as in the production heat map), so aggregate
    /// volume genuinely bursts instead of averaging out across
    /// independent sources.
    #[allow(clippy::too_many_arguments)]
    pub fn pareto_correlated(
        sources: u32,
        mean_msgs_per_sec: f64,
        alpha: f64,
        tuples_per_msg: u32,
        duration: Micros,
        cap_factor: f64,
        block_secs: u64,
        seed: u64,
    ) -> Self {
        assert!(alpha > 1.0, "Pareto mean requires alpha > 1");
        let seconds = (duration.0 / 1_000_000).max(1);
        let multipliers = burst_multipliers(seconds, alpha, cap_factor, block_secs, seed);
        let rates: Vec<f64> = multipliers.iter().map(|m| mean_msgs_per_sec * m).collect();
        WorkloadSpec {
            sources: vec![RatePattern::PerSecond(rates); sources as usize],
            tuples_per_msg,
            keys: 1 << 16,
            value_range: (1, 100),
            start: PhysicalTime::ZERO,
            end: PhysicalTime::ZERO + duration,
            event_time_lag: Micros::ZERO,
        }
    }

    /// Total messages this workload will emit (approximate, for sizing).
    pub fn approx_messages(&self) -> u64 {
        let secs = (self.duration().0 as f64) / 1e6;
        self.sources
            .iter()
            .map(|p| p.mean_rate(secs as u64) * secs)
            .sum::<f64>() as u64
    }
}

/// Streaming generator over a [`WorkloadSpec`].
pub struct WorkloadGen {
    spec: WorkloadSpec,
    /// (next arrival time us, source) min-heap.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    prev_arrival: Vec<u64>,
    rng: ChaCha8Rng,
}

impl WorkloadGen {
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut heap = BinaryHeap::new();
        let mut prev = Vec::with_capacity(spec.sources.len());
        for (s, pattern) in spec.sources.iter().enumerate() {
            let rate = first_positive_rate(pattern);
            let period = period_us(rate);
            // Random phase staggers sources (clients are unsynchronized).
            let phase = if period > 1 {
                rng.gen_range(0..period)
            } else {
                0
            };
            let t0 = spec.start.0 + phase;
            heap.push(Reverse((t0, s as u32)));
            prev.push(spec.start.0);
        }
        WorkloadGen {
            spec,
            heap,
            prev_arrival: prev,
            rng,
        }
    }

    /// Next message batch: `(arrival time, source index, batch)`.
    /// Returns `None` when the workload is exhausted.
    pub fn next_arrival(&mut self) -> Option<(PhysicalTime, u32, Batch)> {
        loop {
            let Reverse((t, s)) = self.heap.pop()?;
            if t >= self.spec.end.0 {
                continue; // source finished; drop it
            }
            let batch = self.make_batch(s, t);
            self.schedule_next(s, t);
            self.prev_arrival[s as usize] = t;
            return Some((PhysicalTime(t), s, batch));
        }
    }

    fn make_batch(&mut self, source: u32, t: u64) -> Batch {
        let n = self.spec.tuples_per_msg.max(1) as u64;
        let lag = self.spec.event_time_lag.0;
        let hi = t.saturating_sub(lag);
        let lo = self.prev_arrival[source as usize].saturating_sub(lag);
        let span = hi.saturating_sub(lo).max(1);
        let (vmin, vmax) = self.spec.value_range;
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                // Logical times ascend across the batch, ending at `hi`.
                let p = lo + (span * (i + 1)) / n;
                Tuple::new(
                    self.rng.gen_range(0..self.spec.keys),
                    self.rng.gen_range(vmin..=vmax),
                    LogicalTime(p.min(hi)),
                )
            })
            .collect();
        Batch::new(tuples, PhysicalTime(t))
    }

    /// Integrate the (piecewise-constant) rate forward from `t` until
    /// one message's worth of work has accumulated, crossing second
    /// boundaries and skipping zero-rate seconds exactly.
    fn schedule_next(&mut self, source: u32, t: u64) {
        let pattern = &self.spec.sources[source as usize];
        let start = self.spec.start.0;
        let end = self.spec.end.0;
        let mut cursor = t as f64;
        let mut need = 1.0f64; // messages of "work" left to accumulate
        loop {
            if cursor >= end as f64 {
                return; // source never speaks again
            }
            let second = (cursor as u64).saturating_sub(start) / 1_000_000;
            let boundary = (start + (second + 1) * 1_000_000) as f64;
            let rate = pattern.rate_at(second);
            if rate > 0.0 {
                let dt = need / rate * 1e6;
                if cursor + dt < boundary {
                    let next = (cursor + dt).max(t as f64 + 1.0) as u64;
                    self.heap.push(Reverse((next, source)));
                    return;
                }
                need -= (boundary - cursor) * rate / 1e6;
            }
            cursor = boundary;
        }
    }
}

/// Per-second burst multipliers: one Pareto draw per `block_secs`
/// block (spikes last one to a few seconds, per Fig 2(c)), normalized
/// to unit mean and capped.
fn burst_multipliers(seconds: u64, alpha: f64, cap: f64, block_secs: u64, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let expected = alpha / (alpha - 1.0);
    let block = block_secs.max(1);
    let mut out = Vec::with_capacity(seconds as usize);
    let mut current = 1.0;
    for s in 0..seconds {
        if s % block == 0 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            current = (u.powf(-1.0 / alpha) / expected).min(cap);
        }
        out.push(current);
    }
    out
}

fn first_positive_rate(p: &RatePattern) -> f64 {
    match p {
        RatePattern::Constant(r) => *r,
        RatePattern::PerSecond(v) => v.iter().copied().find(|&r| r > 0.0).unwrap_or(0.0),
    }
}

fn period_us(rate: f64) -> u64 {
    if rate <= 0.0 {
        u64::MAX / 4
    } else {
        ((1e6 / rate) as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_workload_has_expected_count() {
        let spec = WorkloadSpec::constant(4, 10.0, 100, Micros::from_secs(2));
        let mut g = WorkloadGen::new(spec, 1);
        let mut count = 0;
        let mut last = 0;
        while let Some((t, _, b)) = g.next_arrival() {
            assert!(t.0 >= last, "arrivals must be ordered");
            last = t.0;
            assert_eq!(b.len(), 100);
            count += 1;
        }
        // 4 sources × 10 msg/s × 2 s = 80 (± phase effects).
        assert!((70..=84).contains(&count), "count = {count}");
    }

    #[test]
    fn batch_progress_tracks_arrival() {
        let spec = WorkloadSpec::constant(1, 10.0, 10, Micros::from_secs(1));
        let mut g = WorkloadGen::new(spec, 2);
        let (t, _, b) = g.next_arrival().unwrap();
        assert_eq!(b.progress.0, t.0, "ingestion time: progress == arrival");
        // Tuples ascend in logical time.
        for w in b.tuples.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn event_time_lag_shifts_progress() {
        let spec =
            WorkloadSpec::constant(1, 10.0, 10, Micros::from_secs(1)).with_lag(Micros(5_000));
        let mut g = WorkloadGen::new(spec, 2);
        let (t, _, b) = g.next_arrival().unwrap();
        assert_eq!(b.progress.0, t.0 - 5_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = WorkloadSpec::pareto(2, 20.0, 1.5, 50, Micros::from_secs(2), 10.0, 7);
        let collect = |seed| {
            let mut g = WorkloadGen::new(spec.clone(), seed);
            let mut v = Vec::new();
            while let Some((t, s, b)) = g.next_arrival() {
                v.push((t.0, s, b.progress.0, b.tuples.first().map(|t| t.key)));
            }
            v
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43));
    }

    #[test]
    fn skewed_rates_span_spread() {
        let spec = WorkloadSpec::skewed(8, 100.0, 200.0, 10, Micros::from_secs(1));
        let rates: Vec<f64> = spec.sources.iter().map(|p| p.rate_at(0)).collect();
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max / min - 200.0).abs() < 1.0, "spread = {}", max / min);
        let total: f64 = rates.iter().sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn pareto_mean_is_roughly_target() {
        let spec = WorkloadSpec::pareto(1, 100.0, 2.0, 10, Micros::from_secs(60), 50.0, 3);
        let mean = spec.sources[0].mean_rate(60);
        assert!(
            (mean - 100.0).abs() / 100.0 < 0.5,
            "mean {mean} too far from 100"
        );
    }

    #[test]
    fn zero_rate_seconds_are_skipped() {
        let spec = WorkloadSpec {
            sources: vec![RatePattern::PerSecond(vec![10.0, 0.0, 10.0])],
            tuples_per_msg: 1,
            keys: 10,
            value_range: (1, 1),
            start: PhysicalTime::ZERO,
            end: PhysicalTime(3_000_000),
            event_time_lag: Micros::ZERO,
        };
        let mut g = WorkloadGen::new(spec, 5);
        let mut in_silent_second = 0;
        while let Some((t, _, _)) = g.next_arrival() {
            if (1_000_000..2_000_000).contains(&t.0) {
                in_silent_second += 1;
            }
        }
        assert_eq!(in_silent_second, 0);
    }

    #[test]
    fn staggered_start_offsets_window() {
        let spec = WorkloadSpec::constant(1, 10.0, 1, Micros::from_secs(1))
            .with_start(PhysicalTime::from_secs(5));
        let mut g = WorkloadGen::new(spec, 1);
        let (t, _, _) = g.next_arrival().unwrap();
        assert!(t.0 >= 5_000_000);
        let mut last = t.0;
        while let Some((t, _, _)) = g.next_arrival() {
            last = t.0;
        }
        assert!(last < 6_000_000);
    }
}
