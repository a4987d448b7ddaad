//! Simulation metrics: per-job latency distributions, deadline success
//! rates, throughput, timelines (Fig 7c/9), and cluster utilization
//! (Fig 1).

use cameo_core::stats::exact_percentile;
use cameo_core::time::{Micros, PhysicalTime};
use cameo_dataflow::event::Batch;

/// Cap on exact-latency samples kept per job.
const MAX_SAMPLES: usize = 1 << 20;
/// Cap on schedule-log entries.
const MAX_SCHED_EVENTS: usize = 1 << 20;

/// One sink output's record for correctness comparisons across
/// schedulers: (window progress, key, value).
pub type OutputRecord = (u64, u64, i64);

#[derive(Clone, Debug)]
pub struct JobMetrics {
    pub name: String,
    pub constraint: Micros,
    /// Exact latency samples (us), capped.
    pub samples: Vec<u64>,
    /// (output time, latency) series for timeline plots.
    pub timeline: Vec<(u64, u64)>,
    pub outputs: u64,
    pub output_tuples: u64,
    pub on_time: u64,
    /// Captured output records when enabled (tests / correctness).
    pub captured: Option<Vec<OutputRecord>>,
    /// (time, tuples) per executed message when processing recording is
    /// enabled — drives throughput-over-time plots (Fig 6).
    pub processed: Option<Vec<(u64, u32)>>,
}

impl JobMetrics {
    fn new(name: String, constraint: Micros, capture: bool, record_processing: bool) -> Self {
        JobMetrics {
            name,
            constraint,
            samples: Vec::new(),
            timeline: Vec::new(),
            outputs: 0,
            output_tuples: 0,
            on_time: 0,
            captured: capture.then(Vec::new),
            processed: record_processing.then(Vec::new),
        }
    }

    /// Record one executed message (gated by `record_processing`).
    pub fn record_processed(&mut self, now: PhysicalTime, tuples: usize) {
        if let Some(p) = self.processed.as_mut() {
            if p.len() < MAX_SAMPLES {
                p.push((now.0, tuples as u32));
            }
        }
    }

    /// Processed tuples per bucket of `bucket_us`, from time 0 to `end`.
    pub fn processed_per_bucket(&self, bucket_us: u64, end: u64) -> Vec<u64> {
        let n = (end / bucket_us + 1) as usize;
        let mut buckets = vec![0u64; n];
        if let Some(p) = self.processed.as_ref() {
            for &(t, tuples) in p {
                let i = (t / bucket_us) as usize;
                if i < n {
                    buckets[i] += tuples as u64;
                }
            }
        }
        buckets
    }

    pub fn record_output(&mut self, batch: &Batch, now: PhysicalTime) {
        let latency = now - batch.time;
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(latency.0);
        }
        self.timeline.push((now.0, latency.0));
        self.outputs += 1;
        self.output_tuples += batch.len() as u64;
        if latency <= self.constraint {
            self.on_time += 1;
        }
        if let Some(cap) = self.captured.as_mut() {
            for t in &batch.tuples {
                cap.push((batch.progress.0, t.key, t.value));
            }
        }
    }

    /// Fraction of outputs meeting the latency constraint (Fig 10's
    /// success rate).
    pub fn success_rate(&self) -> f64 {
        if self.outputs == 0 {
            0.0
        } else {
            self.on_time as f64 / self.outputs as f64
        }
    }

    pub fn percentile(&self, q: f64) -> Micros {
        Micros(exact_percentile(&self.samples, q))
    }

    pub fn median(&self) -> Micros {
        self.percentile(50.0)
    }

    /// Standard deviation of latency in ms (Fig 9d reports it).
    pub fn std_dev_ms(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.samples.iter().sum::<u64>() as f64 / n as f64;
        let var = self
            .samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt() / 1_000.0
    }
}

/// One operator execution start, for schedule timelines (Fig 7c).
#[derive(Clone, Copy, Debug)]
pub struct SchedEvent {
    pub time: u64,
    pub node: u16,
    pub worker: u16,
    pub job: u16,
    pub stage: u32,
    pub op: u32,
    /// Stream progress of the scheduled message.
    pub progress: u64,
}

#[derive(Debug)]
pub struct SimMetrics {
    pub jobs: Vec<JobMetrics>,
    /// Busy microseconds per node.
    pub busy_us: Vec<u64>,
    pub executions: u64,
    pub delivered: u64,
    pub schedule_log: Option<Vec<SchedEvent>>,
    /// Simulation end time.
    pub end_time: PhysicalTime,
    /// Aggregated scheduler counters (filled in at end of run).
    pub sched: cameo_core::scheduler::SchedulerStats,
    /// Jobs that departed mid-run (churn scenarios).
    pub jobs_departed: u64,
    /// Messages purged from dispatch queues by departures.
    pub purged_on_departure: u64,
    /// In-flight messages (deliveries and on-worker executions) dropped
    /// because their job had departed.
    pub departure_drops: u64,
}

impl SimMetrics {
    pub fn new(
        jobs: Vec<(String, Micros)>,
        nodes: usize,
        capture: bool,
        record_schedule: bool,
        record_processing: bool,
    ) -> Self {
        SimMetrics {
            jobs: jobs
                .into_iter()
                .map(|(n, c)| JobMetrics::new(n, c, capture, record_processing))
                .collect(),
            busy_us: vec![0; nodes],
            executions: 0,
            delivered: 0,
            schedule_log: record_schedule.then(Vec::new),
            end_time: PhysicalTime::ZERO,
            sched: cameo_core::scheduler::SchedulerStats::default(),
            jobs_departed: 0,
            purged_on_departure: 0,
            departure_drops: 0,
        }
    }

    pub fn record_sched(&mut self, ev: SchedEvent) {
        if let Some(log) = self.schedule_log.as_mut() {
            if log.len() < MAX_SCHED_EVENTS {
                log.push(ev);
            }
        }
    }

    /// Cluster CPU utilization over the run.
    pub fn utilization(&self, workers_per_node: u16) -> f64 {
        let wall = self.end_time.0.max(1) as f64;
        let capacity = wall * self.busy_us.len() as f64 * workers_per_node as f64;
        self.busy_us.iter().sum::<u64>() as f64 / capacity
    }

    /// Total output tuples per second across jobs.
    pub fn throughput(&self) -> f64 {
        let wall = self.end_time.0.max(1) as f64 / 1e6;
        self.jobs.iter().map(|j| j.output_tuples).sum::<u64>() as f64 / wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_core::time::LogicalTime;
    use cameo_dataflow::event::Tuple;

    #[test]
    fn records_latency_and_success() {
        let mut m = JobMetrics::new("j".into(), Micros(1_000), true, false);
        let b = Batch::with_progress(
            vec![Tuple::new(1, 5, LogicalTime(9))],
            LogicalTime(10),
            PhysicalTime(100),
        );
        m.record_output(&b, PhysicalTime(600)); // latency 500: on time
        m.record_output(&b, PhysicalTime(5_000)); // latency 4900: late
        assert_eq!(m.outputs, 2);
        assert_eq!(m.on_time, 1);
        assert!((m.success_rate() - 0.5).abs() < 1e-9);
        assert_eq!(m.samples, vec![500, 4_900]);
        assert_eq!(m.captured.as_ref().unwrap().len(), 2);
        assert_eq!(m.captured.as_ref().unwrap()[0], (10, 1, 5));
        assert_eq!(m.timeline[0], (600, 500));
    }

    #[test]
    fn utilization_math() {
        let mut m = SimMetrics::new(vec![("a".into(), Micros(1))], 2, false, false, false);
        m.busy_us = vec![500_000, 250_000];
        m.end_time = PhysicalTime(1_000_000);
        // 0.75s busy of 2 nodes × 2 workers × 1s = 4s capacity.
        assert!((m.utilization(2) - 0.1875).abs() < 1e-9);
    }

    #[test]
    fn schedule_log_capped_behind_flag() {
        let mut m = SimMetrics::new(vec![], 1, false, false, false);
        m.record_sched(SchedEvent {
            time: 0,
            node: 0,
            worker: 0,
            job: 0,
            stage: 0,
            op: 0,
            progress: 0,
        });
        assert!(m.schedule_log.is_none());
    }
}
