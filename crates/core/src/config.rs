//! Scheduler configuration knobs (§5.2, §6.3).

use crate::time::Micros;

/// Tunables of the Cameo scheduler.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Minimum re-scheduling grain (§5.2) among operators of the same
    /// latency tier: while a worker is draining an operator, it only
    /// considers swapping to a more urgent *peer* (or a laxer-tier
    /// operator) once this much time has elapsed since the operator was
    /// acquired. An operator in a stricter tier that outranks the one
    /// in hand does not wait for it — it takes the worker at the next
    /// message boundary — so strict latency does not depend on this
    /// value while the strict operator is the one `acquire` would hand
    /// out. It is not when a peer of the lease is due before it: that
    /// peer is first in line, it is no tier up, and both wait for the
    /// quantum (or for the peer's deadline to pass, which puts the
    /// order by tier). See
    /// [`CameoScheduler::decide`](crate::scheduler::CameoScheduler::decide).
    /// The paper's default is 1 ms; `Micros::ZERO` gives the "finest"
    /// granularity of Fig 14 (swap whenever anything more urgent is
    /// pending).
    pub quantum: Micros,
    /// Starvation guard (§6.3 "starvation prevention"): a message that
    /// has waited longer than this is boosted to the front regardless of
    /// its priority. `None` disables the guard (the paper's default
    /// behaviour; deadline policies rarely starve because deadlines are
    /// absolute times, but the token policy can starve untokened work).
    pub starvation_limit: Option<Micros>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            quantum: Micros::from_millis(1),
            starvation_limit: None,
        }
    }
}

impl SchedulerConfig {
    /// Set the scheduling quantum: how long a lease is protected against
    /// operators of its own or a laxer latency tier. `0` runs the full
    /// swap check at every message; at any other value a stricter tier
    /// that outranks the lease is still checked at every message, so
    /// this trades amortisation against fairness among peers — and
    /// against the strict tier only where a peer due earlier than the
    /// strict operator stands in front of it (see
    /// [`quantum`](Self::quantum)).
    pub fn with_quantum(mut self, quantum: Micros) -> Self {
        self.quantum = quantum;
        self
    }

    /// Enable the §6.3 starvation guard with the given limit.
    pub fn with_starvation_limit(mut self, limit: Micros) -> Self {
        self.starvation_limit = Some(limit);
        self
    }

    /// Ignored: every worker shares one scheduler. Kept only so that
    /// `cameo_benchmark/` builds unchanged.
    #[doc(hidden)]
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_quantum_is_one_ms() {
        let c = SchedulerConfig::default();
        assert_eq!(c.quantum, Micros(1_000));
        assert!(c.starvation_limit.is_none());
    }

    #[test]
    fn builder_sets_fields() {
        let c = SchedulerConfig::default()
            .with_quantum(Micros(0))
            .with_starvation_limit(Micros::from_secs(5));
        assert_eq!(c.quantum, Micros::ZERO);
        assert_eq!(c.starvation_limit, Some(Micros(5_000_000)));
    }
}
