//! Cost profiling (§4.2 "C_OM and C_path can be calculated by
//! profiling", §5.3 "RC contains the processing cost ... obtained via
//! profiling").
//!
//! Each operator keeps an exponentially weighted moving average of its
//! own per-message execution cost, and a table of the latest downstream
//! reports (one per outgoing edge). Reply contexts are built from these:
//! the critical-path cost below an operator is the *maximum* over its
//! downstream edges of `edge.cost + edge.cpath` — Algorithm 1's
//! recursive `Cpath` maintenance combined with §4.2.1's "maximum of
//! execution times of critical path".

use crate::context::ReplyContext;
use crate::time::Micros;
use std::collections::HashMap;

/// EWMA estimator of a single operator's execution cost.
#[derive(Clone, Debug)]
pub struct CostEstimator {
    ewma_us: f64,
    samples: u64,
}

/// Smoothing factor: responsive to workload drift while damping
/// per-message noise.
pub const DEFAULT_ALPHA: f64 = 0.2;

impl CostEstimator {
    /// An estimator with the [`DEFAULT_ALPHA`] smoothing factor.
    pub fn new() -> Self {
        CostEstimator {
            ewma_us: 0.0,
            samples: 0,
        }
    }

    /// Seed the estimator with a prior (e.g. from a previous deployment
    /// or a static cost model) so the first messages are not scheduled
    /// blind.
    pub fn with_prior(prior: Micros) -> Self {
        let mut e = Self::new();
        e.ewma_us = prior.0 as f64;
        e.samples = 1;
        e
    }

    /// Record one observed execution cost.
    pub fn record(&mut self, cost: Micros) {
        let x = cost.0 as f64;
        if self.samples == 0 {
            self.ewma_us = x;
        } else {
            self.ewma_us = DEFAULT_ALPHA * x + (1.0 - DEFAULT_ALPHA) * self.ewma_us;
        }
        self.samples = self.samples.saturating_add(1);
    }

    /// Current estimate (zero until the first sample or prior).
    pub fn estimate(&self) -> Micros {
        Micros(self.ewma_us.max(0.0) as u64)
    }

    /// Costs recorded so far (priors count as one).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

impl Default for CostEstimator {
    fn default() -> Self {
        Self::new()
    }
}

/// Latest downstream report for one outgoing edge, as delivered by a
/// reply context.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeReport {
    /// Execution cost of the target operator on this edge (`RC.Cm`).
    pub cost: Micros,
    /// Critical-path cost strictly below that target (`RC.Cpath`).
    pub cpath: Micros,
}

/// Per-operator profiling state: own cost plus per-edge downstream
/// reports. This is the `RC_local` of Algorithm 1.
#[derive(Clone, Debug, Default)]
pub struct ProfileState {
    own: CostEstimator,
    edges: HashMap<u32, EdgeReport>,
}

impl ProfileState {
    /// Empty profiling state (no priors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Profiling state whose own-cost estimator is seeded with `prior`.
    pub fn with_prior(prior: Micros) -> Self {
        ProfileState {
            own: CostEstimator::with_prior(prior),
            edges: HashMap::new(),
        }
    }

    /// Record one observed execution of this operator.
    pub fn record_own_cost(&mut self, cost: Micros) {
        self.own.record(cost);
    }

    /// This operator's current cost estimate (`C_m`).
    pub fn own_cost(&self) -> Micros {
        self.own.estimate()
    }

    /// `PROCESSCTXFROMREPLY`: fold a reply from downstream edge
    /// `edge` into local state.
    pub fn process_reply(&mut self, edge: u32, rc: &ReplyContext) {
        self.edges.insert(
            edge,
            EdgeReport {
                cost: rc.cost,
                cpath: rc.cpath,
            },
        );
    }

    /// Latest report for a specific downstream edge, if any.
    pub fn edge_report(&self, edge: u32) -> Option<EdgeReport> {
        self.edges.get(&edge).copied()
    }

    /// Critical-path cost strictly below this operator: the max over
    /// downstream edges of `cost + cpath`. Zero when no replies have
    /// arrived yet (e.g. a sink, or cold start).
    pub fn downstream_cpath(&self) -> Micros {
        self.edges
            .values()
            .map(|e| e.cost + e.cpath)
            .max()
            .unwrap_or(Micros::ZERO)
    }

    /// `PREPAREREPLY`: build the RC this operator sends to *its*
    /// upstream. `is_sink` short-circuits to a zero-path reply.
    pub fn prepare_reply(&self, is_sink: bool) -> ReplyContext {
        if is_sink {
            ReplyContext::at_sink(self.own_cost())
        } else {
            ReplyContext {
                cost: self.own_cost(),
                cpath: self.downstream_cpath(),
                queue_len: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_sets_estimate() {
        let mut e = CostEstimator::new();
        assert_eq!(e.estimate(), Micros::ZERO);
        e.record(Micros(100));
        assert_eq!(e.estimate(), Micros(100));
    }

    #[test]
    fn ewma_converges_toward_new_level() {
        let mut e = CostEstimator::new();
        e.record(Micros(100));
        for _ in 0..50 {
            e.record(Micros(500));
        }
        let est = e.estimate().0;
        assert!(
            est > 480 && est <= 500,
            "estimate {est} should approach 500"
        );
    }

    #[test]
    fn ewma_damps_outliers() {
        let mut e = CostEstimator::new();
        for _ in 0..20 {
            e.record(Micros(100));
        }
        e.record(Micros(10_000));
        let est = e.estimate().0;
        assert!(est < 2_200, "single outlier must not dominate: {est}");
    }

    #[test]
    fn prior_seeds_estimate() {
        let e = CostEstimator::with_prior(Micros(250));
        assert_eq!(e.estimate(), Micros(250));
    }

    #[test]
    fn cpath_is_max_over_edges() {
        let mut st = ProfileState::new();
        st.process_reply(
            0,
            &ReplyContext {
                cost: Micros(10),
                cpath: Micros(40),
                queue_len: 0,
            },
        );
        st.process_reply(
            1,
            &ReplyContext {
                cost: Micros(30),
                cpath: Micros(5),
                queue_len: 0,
            },
        );
        // max(10+40, 30+5) = 50
        assert_eq!(st.downstream_cpath(), Micros(50));
    }

    #[test]
    fn reply_recursion_accumulates_path() {
        // Chain: a -> b -> c(sink). Costs: b=20, c=70.
        let mut c = ProfileState::new();
        c.record_own_cost(Micros(70));
        let rc_from_c = c.prepare_reply(true);
        assert_eq!(rc_from_c.cost, Micros(70));
        assert_eq!(rc_from_c.cpath, Micros::ZERO);

        let mut b = ProfileState::new();
        b.record_own_cost(Micros(20));
        b.process_reply(0, &rc_from_c);
        let rc_from_b = b.prepare_reply(false);
        assert_eq!(rc_from_b.cost, Micros(20));
        assert_eq!(rc_from_b.cpath, Micros(70));

        let mut a = ProfileState::new();
        a.process_reply(0, &rc_from_b);
        // From a's perspective: executing b costs 20, and 70 lies below b.
        assert_eq!(a.downstream_cpath(), Micros(90));
    }

    #[test]
    fn replies_overwrite_per_edge() {
        let mut st = ProfileState::new();
        st.process_reply(
            3,
            &ReplyContext {
                cost: Micros(100),
                cpath: Micros(0),
                queue_len: 0,
            },
        );
        st.process_reply(
            3,
            &ReplyContext {
                cost: Micros(10),
                cpath: Micros(0),
                queue_len: 0,
            },
        );
        assert_eq!(st.downstream_cpath(), Micros(10));
        assert_eq!(st.edge_report(3).unwrap().cost, Micros(10));
        assert!(st.edge_report(9).is_none());
    }
}
