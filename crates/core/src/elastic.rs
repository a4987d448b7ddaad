//! The elastic control loop: a deterministic controller that turns
//! observed deadline-miss rate and queue shape into two actuations —
//! steal-threshold tuning and durability snapshot scheduling.
//!
//! Cameo's scheduler carries the *sensor* half of a feedback loop (the
//! per-operator cost profiles feeding priorities, per-job latency
//! targets checked at sinks) but the original system never acts on it:
//! the steal threshold is fixed at startup, and nothing picks a cheap
//! moment for a snapshot. This module closes the loop for those two.
//! The worker pool itself is fixed: Cameo meets deadlines inside a
//! static pool by ordering work, and a parked worker costs next to
//! nothing.
//!
//! The controller itself is a **pure state machine**: no clock, no
//! randomness, no I/O. Each [`tick`](ElasticController::tick) consumes
//! one [`ElasticObservation`] (cumulative counters plus instantaneous
//! backlog) and returns a list of [`ElasticAction`]s. That purity is
//! what lets the deterministic simulator run the *identical* controller
//! at virtual-time ticks (bit-identical reruns) before the threaded
//! runtime trusts it.
//!
//! Control policy, in one paragraph: the controller differentiates the
//! cumulative sink counters into a per-tick windowed deadline-miss
//! rate. Sustained quiescence (no outputs, no backlog, for
//! [`quiescent_ticks`](ElasticConfig::quiescent_ticks) consecutive
//! ticks) requests a durability snapshot when the journal has grown
//! past [`snapshot_dirty_bytes`](ElasticConfig::snapshot_dirty_bytes).
//! The steal threshold is tuned from the observed steal ratio (steals
//! per acquisition): overload drives it to zero (steal eagerly),
//! healthy-but-churning stealing backs it off geometrically, and calm
//! periods decay it back toward the configured base.

use crate::time::Micros;

/// Tuning knobs for the elastic control loop. All decisions are made
/// from these plus the observation stream — nothing else — so two runs
/// that feed the controller identical observations take identical
/// actions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElasticConfig {
    /// Windowed deadline-miss rate above which the system counts as
    /// overloaded: steal damping drops to zero.
    pub high_water: f64,
    /// Windowed deadline-miss rate below which the system counts as
    /// healthy for steal-threshold backoff. Must be ≤ `high_water`.
    pub low_water: f64,
    /// Consecutive quiescent ticks (no outputs, empty queues) before a
    /// snapshot may be requested.
    pub quiescent_ticks: u32,
    /// Controller sampling interval. The runtime's controller thread
    /// sleeps this long between ticks; the simulator schedules a
    /// controller event every `tick` of virtual time.
    pub tick: Micros,
    /// Base steal threshold the auto-tuner decays back to when the
    /// system is healthy and stealing is not churning.
    pub steal_base: Micros,
    /// Journal bytes written since the last snapshot above which a
    /// quiescent tick requests a durability snapshot ([`ElasticAction::
    /// Snapshot`]). `0` disables snapshot scheduling entirely.
    pub snapshot_dirty_bytes: u64,
}

impl Default for ElasticConfig {
    /// The default thresholds: overloaded above 10% missed deadlines,
    /// healthy below 1%, quiescent after 3 quiet ticks of 10 ms each,
    /// no snapshot scheduling.
    fn default() -> Self {
        ElasticConfig {
            high_water: 0.10,
            low_water: 0.01,
            quiescent_ticks: 3,
            tick: Micros::from_millis(10),
            steal_base: Micros::ZERO,
            snapshot_dirty_bytes: 0,
        }
    }
}

impl ElasticConfig {
    /// Builder: overload / healthy miss-rate watermarks.
    pub fn with_watermarks(mut self, high: f64, low: f64) -> Self {
        assert!(low <= high, "low_water must be <= high_water");
        self.high_water = high;
        self.low_water = low;
        self
    }

    /// Builder: controller tick interval.
    pub fn with_tick(mut self, tick: Micros) -> Self {
        self.tick = tick;
        self
    }

    /// Builder: quiescent ticks before a snapshot may be requested.
    pub fn with_quiescent_ticks(mut self, ticks: u32) -> Self {
        self.quiescent_ticks = ticks.max(1);
        self
    }

    /// Builder: base steal threshold the tuner decays back to.
    pub fn with_steal_base(mut self, base: Micros) -> Self {
        self.steal_base = base;
        self
    }

    /// Builder: dirty-journal-bytes threshold for quiescent snapshot
    /// requests (`0` disables).
    pub fn with_snapshot_dirty_bytes(mut self, bytes: u64) -> Self {
        self.snapshot_dirty_bytes = bytes;
        self
    }
}

/// One controller sample: cumulative counters (the controller
/// differentiates them itself) plus the instantaneous backlog.
#[derive(Clone, Debug, Default)]
pub struct ElasticObservation {
    /// Cumulative sink outputs (deadline hits + misses) since start.
    pub outputs: u64,
    /// Cumulative sink outputs that missed their job's latency target.
    pub deadline_misses: u64,
    /// Messages currently pending across all shards.
    pub backlog: usize,
    /// Cumulative operators acquired from a non-home shard.
    pub steals: u64,
    /// Cumulative operator acquisitions.
    pub acquisitions: u64,
    /// Journal bytes appended since the last durability snapshot (0
    /// when durability is disabled).
    pub journal_dirty_bytes: u64,
}

/// An adaptation the controller asks its host to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticAction {
    /// Retune the sharded scheduler's steal threshold.
    SetStealThreshold(Micros),
    /// Take a durability snapshot now: the system is quiescent and the
    /// journal suffix since the last snapshot has grown past
    /// [`ElasticConfig::snapshot_dirty_bytes`]. Quiescence is exactly
    /// when a consistent cut is cheap — no in-flight messages to drain.
    Snapshot,
}

/// Counters describing what the controller has done so far; cheap to
/// copy into metrics/artifacts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElasticTelemetry {
    /// Ticks evaluated.
    pub ticks: u64,
    /// Durability-snapshot requests emitted.
    pub snapshots: u64,
    /// Requested snapshots the host failed to take (reported back
    /// through [`ElasticController::snapshot_failed`]).
    pub snapshot_failures: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Sample {
    outputs: u64,
    misses: u64,
    steals: u64,
    acquisitions: u64,
}

/// The deterministic elastic controller. See the module docs for the
/// policy; construct with [`ElasticController::new`] and call
/// [`tick`](ElasticController::tick) at a fixed cadence.
#[derive(Clone, Debug)]
pub struct ElasticController {
    cfg: ElasticConfig,
    prev: Option<Sample>,
    quiet_streak: u32,
    /// Additional steal damping (µs) on top of `steal_base`; doubled
    /// when healthy stealing churns, halved when it calms down.
    steal_damp: u64,
    /// Last threshold emitted, to suppress no-op actions.
    last_threshold: Option<Micros>,
    telemetry: ElasticTelemetry,
}

impl ElasticController {
    /// Steal damping never exceeds this many microseconds.
    const MAX_DAMP_US: u64 = 16_384;

    /// A controller with no history under `cfg`.
    pub fn new(cfg: ElasticConfig) -> Self {
        ElasticController {
            cfg,
            prev: None,
            quiet_streak: 0,
            steal_damp: 0,
            last_threshold: None,
            telemetry: ElasticTelemetry::default(),
        }
    }

    /// What the controller has done so far.
    pub fn telemetry(&self) -> ElasticTelemetry {
        self.telemetry
    }

    /// The host could not carry out a requested
    /// [`ElasticAction::Snapshot`]; counted in
    /// [`ElasticTelemetry::snapshot_failures`].
    pub fn snapshot_failed(&mut self) {
        self.telemetry.snapshot_failures += 1;
    }

    /// Evaluate one controller tick. The first tick only establishes
    /// the counter baseline and never acts; every later tick
    /// differentiates the cumulative counters against the previous one.
    pub fn tick(&mut self, obs: &ElasticObservation) -> Vec<ElasticAction> {
        self.telemetry.ticks += 1;
        let cur = Sample {
            outputs: obs.outputs,
            misses: obs.deadline_misses,
            steals: obs.steals,
            acquisitions: obs.acquisitions,
        };
        let Some(prev) = self.prev.replace(cur) else {
            return Vec::new();
        };
        let d_out = cur.outputs.saturating_sub(prev.outputs);
        let d_miss = cur.misses.saturating_sub(prev.misses);
        let d_steal = cur.steals.saturating_sub(prev.steals);
        let d_acq = cur.acquisitions.saturating_sub(prev.acquisitions);
        let miss_rate = if d_out > 0 {
            d_miss as f64 / d_out as f64
        } else {
            0.0
        };

        let mut actions = Vec::new();
        if d_out > 0 || obs.backlog > 0 {
            self.quiet_streak = 0;
        } else {
            self.quiet_streak = self.quiet_streak.saturating_add(1);
            if self.quiet_streak >= self.cfg.quiescent_ticks
                && self.cfg.snapshot_dirty_bytes > 0
                && obs.journal_dirty_bytes >= self.cfg.snapshot_dirty_bytes
            {
                self.telemetry.snapshots += 1;
                actions.push(ElasticAction::Snapshot);
            }
        }

        // Steal-threshold tuning from the observed steal ratio.
        let steal_ratio = if d_acq > 0 {
            d_steal as f64 / d_acq as f64
        } else {
            0.0
        };
        if miss_rate > self.cfg.high_water {
            // Overloaded: steal as eagerly as possible.
            self.steal_damp = 0;
        } else if miss_rate < self.cfg.low_water && steal_ratio > 0.25 {
            // Healthy but stealing churns a quarter of acquisitions:
            // back off geometrically so home-shard locality recovers.
            self.steal_damp = (self.steal_damp.max(128) * 2).min(Self::MAX_DAMP_US);
        } else if steal_ratio < 0.125 {
            // Calm: decay back toward the configured base.
            self.steal_damp /= 2;
        }
        let threshold = Micros(self.cfg.steal_base.0 + self.steal_damp);
        if self.last_threshold != Some(threshold) {
            self.last_threshold = Some(threshold);
            actions.push(ElasticAction::SetStealThreshold(threshold));
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(outputs: u64, misses: u64, backlog: usize) -> ElasticObservation {
        ElasticObservation {
            outputs,
            deadline_misses: misses,
            backlog,
            ..Default::default()
        }
    }

    /// `obs` with a journal dirty enough for `dirty_cfg` to snapshot.
    fn dirty(outputs: u64, backlog: usize) -> ElasticObservation {
        ElasticObservation {
            journal_dirty_bytes: 4096,
            ..obs(outputs, 0, backlog)
        }
    }

    fn dirty_cfg() -> ElasticConfig {
        ElasticConfig::default()
            .with_quiescent_ticks(2)
            .with_snapshot_dirty_bytes(1024)
    }

    #[test]
    fn first_tick_is_baseline_only() {
        let mut c = ElasticController::new(ElasticConfig::default());
        assert!(c.tick(&obs(100, 50, 10)).is_empty());
    }

    #[test]
    fn reclaims_after_sustained_quiescence() {
        let mut c = ElasticController::new(dirty_cfg());
        c.tick(&dirty(0, 0));
        // One quiet tick: not yet.
        let a = c.tick(&dirty(0, 0));
        assert!(!a.contains(&ElasticAction::Snapshot));
        // Second quiet tick: snapshot, and on every quiet tick after
        // while the journal stays dirty.
        for _ in 0..3 {
            let a = c.tick(&dirty(0, 0));
            assert!(a.contains(&ElasticAction::Snapshot), "{a:?}");
        }
        assert_eq!(c.telemetry().snapshots, 3);
        // Pending backlog is not quiescence, even with no outputs.
        let a = c.tick(&dirty(0, 5));
        assert!(!a.contains(&ElasticAction::Snapshot));
    }

    #[test]
    fn activity_resets_the_quiet_streak() {
        let mut c = ElasticController::new(dirty_cfg());
        c.tick(&dirty(0, 0));
        c.tick(&dirty(0, 0)); // quiet 1
        let a = c.tick(&dirty(10, 0)); // activity
        assert!(!a.contains(&ElasticAction::Snapshot));
        let a = c.tick(&dirty(10, 0)); // quiet 1 again
        assert!(!a.contains(&ElasticAction::Snapshot));
        let a = c.tick(&dirty(10, 0)); // quiet 2
        assert!(a.contains(&ElasticAction::Snapshot));
    }

    #[test]
    fn steal_threshold_backs_off_on_churn_and_zeroes_on_overload() {
        let base = Micros(100);
        let cfg = ElasticConfig::default().with_steal_base(base);
        let mut c = ElasticController::new(cfg);
        let mut o = obs(0, 0, 0);
        c.tick(&o);
        // Healthy (0 misses) but half of acquisitions are steals.
        o = ElasticObservation {
            outputs: 100,
            deadline_misses: 0,
            backlog: 1,
            steals: 50,
            acquisitions: 100,
            journal_dirty_bytes: 0,
        };
        let a = c.tick(&o);
        let t1 = a.iter().find_map(|x| match x {
            ElasticAction::SetStealThreshold(t) => Some(*t),
            _ => None,
        });
        assert!(t1.unwrap() > base, "churn must raise the threshold");
        // Overload: threshold snaps to the base (damping zeroed).
        o.outputs = 200;
        o.deadline_misses = 90;
        let a = c.tick(&o);
        assert!(a.contains(&ElasticAction::SetStealThreshold(base)));
    }

    #[test]
    fn snapshot_requested_only_when_quiescent_and_dirty() {
        let cfg = ElasticConfig::default()
            .with_quiescent_ticks(2)
            .with_snapshot_dirty_bytes(1024);
        let mut c = ElasticController::new(cfg);
        c.tick(&obs(0, 0, 0));
        // Active with a dirty journal: no snapshot (cut not cheap).
        let mut o = obs(100, 0, 5);
        o.journal_dirty_bytes = 4096;
        assert!(!c.tick(&o).contains(&ElasticAction::Snapshot));
        // Quiescent but journal below threshold: no snapshot.
        let mut q = obs(100, 0, 0);
        q.journal_dirty_bytes = 100;
        c.tick(&q);
        assert!(!c.tick(&q).contains(&ElasticAction::Snapshot));
        // Quiescent and dirty: snapshot.
        q.journal_dirty_bytes = 2048;
        let a = c.tick(&q);
        assert!(a.contains(&ElasticAction::Snapshot), "{a:?}");
        assert_eq!(c.telemetry().snapshots, 1);
        // A failure the host reports back is counted, nothing else.
        c.snapshot_failed();
        assert_eq!(c.telemetry().snapshot_failures, 1);
        assert_eq!(c.telemetry().snapshots, 1);
        // Disabled (0 threshold) never snapshots.
        let mut d = ElasticController::new(ElasticConfig::default().with_quiescent_ticks(1));
        d.tick(&q);
        let mut q2 = q.clone();
        q2.journal_dirty_bytes = u64::MAX;
        assert!(!d.tick(&q2).contains(&ElasticAction::Snapshot));
    }

    #[test]
    fn identical_observation_streams_take_identical_actions() {
        let cfg = ElasticConfig::default().with_quiescent_ticks(2);
        let stream: Vec<ElasticObservation> = (0..20)
            .map(|i| {
                let mut o = obs(i * 37, i * 11, (i as usize % 5) * 8);
                o.steals = i * 2;
                o.acquisitions = i * 9;
                o
            })
            .collect();
        let run = |stream: &[ElasticObservation]| {
            let mut c = ElasticController::new(cfg);
            stream.iter().flat_map(|o| c.tick(o)).collect::<Vec<_>>()
        };
        assert_eq!(run(&stream), run(&stream), "controller must be pure");
    }
}
