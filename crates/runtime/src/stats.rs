//! Runtime-side job statistics: thread-safe latency recording at sinks.

use cameo_core::stats::Histogram;
use cameo_core::time::{Micros, PhysicalTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Snapshot of a job's output statistics.
#[derive(Clone, Debug)]
pub struct JobStatsSnapshot {
    /// Sink batches emitted.
    pub outputs: u64,
    /// Tuples across those batches.
    pub output_tuples: u64,
    /// Subscriber deliveries: one per (output batch, live subscriber)
    /// pair. With N subscribers this is `N × outputs` while `outputs`
    /// (and the single batch allocation behind it) stays put — the
    /// zero-deep-copy audit of the `Arc`-shared egress path.
    pub delivered: u64,
    /// Outputs that met the job's latency constraint.
    pub on_time: u64,
    /// Median output latency.
    pub p50: Micros,
    /// 99th-percentile output latency.
    pub p99: Micros,
    /// 99.9th-percentile output latency — the tail the SLO sweep
    /// cross-checks its coordinated-omission-safe capture against.
    pub p999: Micros,
    /// Worst output latency observed.
    pub max: Micros,
    /// Mean output latency.
    pub mean: Micros,
}

impl JobStatsSnapshot {
    /// Fraction of outputs that met the latency constraint.
    pub fn success_rate(&self) -> f64 {
        if self.outputs == 0 {
            0.0
        } else {
            self.on_time as f64 / self.outputs as f64
        }
    }
}

/// Accumulates output latencies for one job.
pub struct JobStats {
    constraint: Micros,
    /// Outside the mutex: deliveries are counted inside the sink's send
    /// loop, which already holds the subscribers lock, so the counter
    /// takes no second lock.
    delivered: AtomicU64,
    inner: Mutex<Inner>,
}

struct Inner {
    latency: Histogram,
    outputs: u64,
    output_tuples: u64,
    on_time: u64,
}

impl JobStats {
    /// Empty statistics for a job with latency target `constraint`.
    pub fn new(constraint: Micros) -> Self {
        JobStats {
            constraint,
            delivered: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                latency: Histogram::new(),
                outputs: 0,
                output_tuples: 0,
                on_time: 0,
            }),
        }
    }

    /// Record one sink output: produced at `produced_at`, closing the
    /// input that arrived at `input_time`, carrying `tuples` tuples.
    pub fn record(&self, produced_at: PhysicalTime, input_time: PhysicalTime, tuples: usize) {
        let latency = produced_at - input_time;
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.latency.record(latency);
        g.outputs += 1;
        g.output_tuples += tuples as u64;
        if latency <= self.constraint {
            g.on_time += 1;
        }
    }

    /// Count one successful subscriber delivery (an `OutputEvent` send
    /// that landed). Lock-free, because the egress send loop calls it
    /// once per subscriber.
    pub fn record_delivery(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent snapshot of the counters and percentiles.
    pub fn snapshot(&self) -> JobStatsSnapshot {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        JobStatsSnapshot {
            outputs: g.outputs,
            output_tuples: g.output_tuples,
            delivered: self.delivered.load(Ordering::Relaxed),
            on_time: g.on_time,
            p50: g.latency.median(),
            p99: g.latency.percentile(99.0),
            p999: g.latency.percentile(99.9),
            max: g.latency.max(),
            mean: g.latency.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let s = JobStats::new(Micros(1_000));
        s.record(PhysicalTime(1_500), PhysicalTime(1_000), 3); // 500us: on time
        s.record(PhysicalTime(9_000), PhysicalTime(1_000), 2); // 8ms: late
        s.record_delivery();
        s.record_delivery();
        s.record_delivery();
        let snap = s.snapshot();
        assert_eq!(snap.outputs, 2);
        assert_eq!(snap.delivered, 3, "deliveries count per subscriber send");
        assert_eq!(snap.output_tuples, 5);
        assert_eq!(snap.on_time, 1);
        assert!((snap.success_rate() - 0.5).abs() < 1e-9);
        assert!(snap.p99 >= snap.p50);
        assert!(snap.p999 >= snap.p99, "p999 must sit at or above p99");
        assert!(snap.max >= snap.p999);
    }

    #[test]
    fn empty_snapshot() {
        let s = JobStats::new(Micros(1));
        let snap = s.snapshot();
        assert_eq!(snap.outputs, 0);
        assert_eq!(snap.success_rate(), 0.0);
    }
}
