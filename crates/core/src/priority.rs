//! Message priorities.
//!
//! Every Priority Context carries a `(PRI_local, PRI_global)` pair
//! (§5.1/§5.3). The *global* component orders operators against each
//! other in the scheduler's top-level heap; the *local* component orders
//! messages within one operator's queue. Smaller values are more urgent
//! (a start deadline of 60 beats one of 90), matching the paper's
//! "lower value implies higher priority".
//!
//! A third component, the *latency tier*, groups operators into peers.
//! Under overload — once some runnable operator is past its start
//! deadline — the scheduler ranks operators by `(tier, global)` instead
//! of `global` alone, so a strict tenant overtakes an overdue lax
//! backlog (see [`Priority::rank`]). And at every message boundary the
//! scheduling quantum protects the in-hand operator against its own and
//! laxer tiers only: one that ranks first *and* is a tier up takes the
//! worker at once (see
//! [`CameoScheduler::decide`](crate::scheduler::CameoScheduler::decide)).
//! The deadline policies derive the tier from the job's latency
//! constraint; everything else leaves it at [`Priority::FLAT_TIER`],
//! where the two orders coincide and every swap waits for the quantum.

use crate::time::{Micros, PhysicalTime};
use std::cmp::Ordering;
use std::fmt;

/// A two-level priority: `local` orders messages inside an operator,
/// `global` orders operators in the scheduler. Lower is more urgent.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Priority {
    /// Orders messages within one operator (lower runs first).
    pub local: i64,
    /// Orders operators against each other (lower runs first).
    pub global: i64,
    /// Latency tier, at most [`Priority::MAX_TIER`]; see
    /// [`with_tier`](Self::with_tier).
    tier: u8,
}

impl Priority {
    /// The most urgent possible priority.
    pub const URGENT: Priority = Priority {
        local: i64::MIN,
        global: i64::MIN,
        tier: Self::FLAT_TIER,
    };

    /// The least urgent possible priority — used by the token policy for
    /// messages that exceeded their token allocation (§5.4 sets
    /// `PRI_global` to `MIN_VALUE`, i.e. minimum *priority*, which in our
    /// lower-is-more-urgent encoding is the maximum value).
    pub const IDLE: Priority = Priority {
        local: i64::MAX,
        global: i64::MAX,
        tier: Self::FLAT_TIER,
    };

    /// The tier of every priority not built by a deadline policy. With
    /// all tiers equal, ranking under overload is ranking by `global`.
    pub const FLAT_TIER: u8 = 0;

    /// The laxest tier: `⌊log2 u64::MAX⌋`.
    pub const MAX_TIER: u8 = 63;

    /// A priority from its two components.
    #[inline]
    pub fn new(local: i64, global: i64) -> Self {
        Priority {
            local,
            global,
            tier: Self::FLAT_TIER,
        }
    }

    /// Both components set from a single urgency value.
    #[inline]
    pub fn uniform(v: i64) -> Self {
        Priority::new(v, v)
    }

    /// The same priority in latency tier `tier` (clamped to
    /// [`MAX_TIER`](Self::MAX_TIER)). Lower tiers are stricter.
    #[inline]
    pub fn with_tier(self, tier: u8) -> Self {
        Priority {
            tier: tier.min(Self::MAX_TIER),
            ..self
        }
    }

    /// The latency tier.
    #[inline]
    pub fn tier(&self) -> u8 {
        self.tier
    }

    /// True when the start deadline this priority encodes (`global`) has
    /// passed at `now`: the message can no longer start in time.
    #[inline]
    pub fn overdue(&self, now: PhysicalTime) -> bool {
        self.global < deadline_to_priority(now.0)
    }

    /// The key operators are ranked by, lower first. While no runnable
    /// operator is past its start deadline that is `global` alone —
    /// least laxity first, which meets every deadline that can be met.
    /// Under overload no order meets them all, and deadline order lets
    /// every overdue message outrank every fresh one whatever its
    /// target; ranking by tier first keeps the misses in the lax tiers.
    #[inline]
    pub fn rank(&self, overloaded: bool) -> (u8, i64) {
        (if overloaded { self.tier } else { 0 }, self.global)
    }
}

/// Orders by global priority first (scheduler heap order), then local;
/// the tier only separates otherwise equal priorities.
impl Ord for Priority {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.global, self.local, self.tier).cmp(&(other.global, other.local, other.tier))
    }
}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pri(l={}, g={}", self.local, self.global)?;
        if self.tier != Self::FLAT_TIER {
            write!(f, ", t={}", self.tier)?;
        }
        write!(f, ")")
    }
}

/// The latency tier of a job with latency constraint `l`:
/// `⌊log2 L_µs⌋`, so targets within 2× of each other are peers and
/// there are at most 64 tiers.
#[inline]
pub fn latency_tier(l: Micros) -> u8 {
    l.0.checked_ilog2().unwrap_or(0) as u8
}

/// Converts a physical deadline (microseconds) into a global priority.
/// Deadlines fit comfortably in `i64`: `u64::MAX` microseconds would be
/// ~292k years, and callers clamp at `i64::MAX` anyway.
#[inline]
pub fn deadline_to_priority(deadline_us: u64) -> i64 {
    deadline_us.min(i64::MAX as u64) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_is_more_urgent() {
        let a = Priority::new(0, 10);
        let b = Priority::new(0, 20);
        assert!(a < b);
        assert!(a.rank(false) < b.rank(false));
        assert!(a.rank(true) < b.rank(true), "flat tiers: same order");
    }

    #[test]
    fn global_dominates_local() {
        let a = Priority::new(100, 10);
        let b = Priority::new(0, 20);
        assert!(a < b, "global priority must dominate ordering");
    }

    #[test]
    fn extremes() {
        let mid = Priority::uniform(0);
        assert!(Priority::URGENT < mid);
        assert!(mid < Priority::IDLE);
    }

    #[test]
    fn tiers_are_log2_buckets_and_rank_only_under_overload() {
        assert_eq!(latency_tier(Micros(0)), 0);
        assert_eq!(latency_tier(Micros(10_000)), 13);
        assert_eq!(latency_tier(Micros(16_383)), 13);
        assert_eq!(latency_tier(Micros(200_000)), 17);
        assert_eq!(latency_tier(Micros(u64::MAX)), Priority::MAX_TIER);
        let strict = Priority::new(0, 900).with_tier(13);
        let lax = Priority::new(0, 100).with_tier(17);
        assert!(lax.rank(false) < strict.rank(false), "deadline order");
        assert!(strict.rank(true) < lax.rank(true), "tier order");
        assert_eq!(
            Priority::new(0, 5).with_tier(200).tier(),
            Priority::MAX_TIER
        );
        assert_eq!(Priority::uniform(3).tier(), Priority::FLAT_TIER);
    }

    #[test]
    fn deadline_conversion_clamps() {
        assert_eq!(deadline_to_priority(42), 42);
        assert_eq!(deadline_to_priority(u64::MAX), i64::MAX);
    }
}
