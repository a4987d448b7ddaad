//! The deadline-aware policies of §4.2: Least-Laxity-First (LLF,
//! Cameo's default), Earliest-Deadline-First (EDF) and
//! Shortest-Job-First (SJF).
//!
//! All three share the frontier computation; they differ only in how
//! the global priority is assembled from `(t_MF, L, C_oM, C_path)`:
//!
//! * LLF — Eq. 3: `ddl_M = t_MF + L − C_oM − C_path`, the latest start
//!   time that still meets the latency constraint.
//! * EDF — §4.2.2: same but omitting the `C_oM` term (the deadline by
//!   which the message must *finish* the downstream path, regardless of
//!   its own execution time).
//! * SJF — `ddl_M = C_oM`: not deadline-aware; included as the paper's
//!   comparison point.
//!
//! LLF and EDF also stamp the job's latency tier `⌊log2 L_µs⌋` on the
//! priority: once some operator is past its start deadline the
//! scheduler ranks by `(tier, ddl)`, so strict jobs overtake an overdue
//! lax backlog ([`Priority::rank`]). SJF's key is not an instant, so
//! it stays in the flat tier.

use super::{stamp_fields, ConverterState, HopInfo, MessageStamp, Policy};
use crate::context::PriorityContext;
use crate::priority::{deadline_to_priority, latency_tier, Priority};
use crate::profile::EdgeReport;
use crate::time::Micros;

/// Looks up the profiled cost of the target operator and the critical
/// path below it for this hop. Cold start (no reply yet) yields zeros,
/// which degrades gracefully to `ddl = t_MF + L`.
fn hop_costs(st: &ConverterState, hop: &HopInfo) -> EdgeReport {
    st.profile.edge_report(hop.edge).unwrap_or_default()
}

macro_rules! deadline_policy {
    ($name:ident, $label:literal, $doc:literal, |$tmf:ident, $l:ident, $cost:ident, $cpath:ident| $global:expr) => {
        #[doc = $doc]
        #[derive(Clone, Copy, Debug, Default)]
        pub struct $name;

        impl Policy for $name {
            fn name(&self) -> &'static str {
                $label
            }

            fn convert(
                &self,
                mut base: PriorityContext,
                stamp: MessageStamp,
                hop: &HopInfo,
                st: &mut ConverterState,
            ) -> PriorityContext {
                let (pmf, tmf) = st.frontier(stamp, hop);
                let report = hop_costs(st, hop);
                let $tmf = tmf;
                let $l = base.field.latency_constraint;
                let $cost = report.cost;
                let $cpath = report.cpath;
                let global: u64 = $global;
                stamp_fields(&mut base, stamp, pmf, tmf);
                base.priority =
                    Priority::new(deadline_to_priority(pmf.0), deadline_to_priority(global))
                        .with_tier(latency_tier($l));
                base
            }
        }
    };
}

deadline_policy!(
    LlfPolicy,
    "llf",
    "Least-Laxity-First: prioritizes the message whose *start deadline* \
     `t_MF + L − C_oM − C_path` is earliest. Cameo's default policy.",
    |tmf, l, cost, cpath| (tmf + l).saturating_sub(cost).saturating_sub(cpath).0
);

deadline_policy!(
    EdfPolicy,
    "edf",
    "Earliest-Deadline-First: like LLF but without subtracting the \
     message's own execution cost `C_oM`.",
    |tmf, l, _cost, cpath| (tmf + l).saturating_sub(cpath).0
);

/// Shortest-Job-First: global priority is the profiled execution cost of
/// the message on its target operator. Deadline-oblivious.
#[derive(Clone, Copy, Debug, Default)]
pub struct SjfPolicy;

impl Policy for SjfPolicy {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn convert(
        &self,
        mut base: PriorityContext,
        stamp: MessageStamp,
        hop: &HopInfo,
        st: &mut ConverterState,
    ) -> PriorityContext {
        let (pmf, tmf) = st.frontier(stamp, hop);
        let report = hop_costs(st, hop);
        stamp_fields(&mut base, stamp, pmf, tmf);
        base.priority = Priority::new(
            deadline_to_priority(pmf.0),
            deadline_to_priority(report.cost.0),
        );
        base
    }
}

/// Subtraction helper used by the macro (keeps `PhysicalTime + Micros`
/// arithmetic readable).
trait SaturatingSubMicros {
    fn saturating_sub(self, rhs: Micros) -> Self;
}

impl SaturatingSubMicros for crate::time::PhysicalTime {
    fn saturating_sub(self, rhs: Micros) -> Self {
        crate::time::PhysicalTime(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ReplyContext;
    use crate::ids::{JobId, OperatorKey};
    use crate::progress::TimeDomain;
    use crate::time::{LogicalTime, PhysicalTime};
    use crate::transform::Slide;

    fn state() -> ConverterState {
        ConverterState::new(OperatorKey::new(JobId(1), 0), TimeDomain::IngestionTime)
    }

    fn stamp(p: u64, t: u64) -> MessageStamp {
        MessageStamp {
            progress: LogicalTime(p),
            time: PhysicalTime(t),
        }
    }

    /// Paper example (§4.2.1, schedule "c" of Fig 4):
    /// ddl_M2 = t + L − C = 30 + 50 − 20 = 60.
    #[test]
    fn llf_matches_paper_example() {
        let mut st = state();
        // Downstream report: executing the target costs 20, no path below.
        st.profile.process_reply(
            0,
            &ReplyContext {
                cost: Micros(20),
                cpath: Micros(0),
                queue_len: 0,
            },
        );
        let pc = LlfPolicy.build_at_source(
            JobId(1),
            stamp(30, 30),
            Micros(50),
            &HopInfo::regular(0),
            &mut st,
        );
        assert_eq!(pc.priority.global, 60);
    }

    #[test]
    fn deadline_policies_stamp_the_latency_tier() {
        let hop = HopInfo::regular(0);
        for (l, tier) in [(10_000, 13), (200_000, 17), (400_000, 18)] {
            let mut st = state();
            let src = LlfPolicy.build_at_source(JobId(1), stamp(5, 5), Micros(l), &hop, &mut st);
            assert_eq!(src.priority.tier(), tier);
            let down = EdfPolicy.build_at_operator(&src, stamp(5, 9), &hop, &mut st);
            assert_eq!(down.priority.tier(), tier, "inherited with L");
            let sjf = SjfPolicy.build_at_operator(&src, stamp(5, 9), &hop, &mut st);
            assert_eq!(sjf.priority.tier(), Priority::FLAT_TIER);
        }
    }

    #[test]
    fn edf_omits_own_cost() {
        let mut st = state();
        st.profile.process_reply(
            0,
            &ReplyContext {
                cost: Micros(20),
                cpath: Micros(5),
                queue_len: 0,
            },
        );
        let hop = HopInfo::regular(0);
        let llf = LlfPolicy.build_at_source(JobId(1), stamp(30, 30), Micros(50), &hop, &mut st);
        let edf = EdfPolicy.build_at_source(JobId(1), stamp(30, 30), Micros(50), &hop, &mut st);
        // LLF: 30+50-20-5 = 55; EDF: 30+50-5 = 75.
        assert_eq!(llf.priority.global, 55);
        assert_eq!(edf.priority.global, 75);
    }

    #[test]
    fn sjf_orders_by_cost_only() {
        let mut st = state();
        st.profile.process_reply(
            0,
            &ReplyContext {
                cost: Micros(700),
                cpath: Micros(1_000_000),
                queue_len: 0,
            },
        );
        let pc = SjfPolicy.build_at_source(
            JobId(1),
            stamp(30, 30),
            Micros(50),
            &HopInfo::regular(0),
            &mut st,
        );
        assert_eq!(pc.priority.global, 700);
    }

    #[test]
    fn windowed_target_extends_deadline() {
        let mut st = state(); // ingestion time: progress == physical time
        let hop = HopInfo {
            edge: 0,
            sender_slide: Slide::UNIT,
            target_slide: Slide(10_000), // 10ms windows in logical units
        };
        // Message early in its window: p = 1000, window completes at 10000.
        let early =
            LlfPolicy.build_at_source(JobId(1), stamp(1_000, 1_000), Micros(500), &hop, &mut st);
        // Regular hop for comparison.
        let regular = LlfPolicy.build_at_source(
            JobId(1),
            stamp(1_000, 1_000),
            Micros(500),
            &HopInfo::regular(0),
            &mut st,
        );
        // Eq. 3 vs Eq. 2: frontier extension postpones the deadline.
        assert_eq!(early.priority.global, 10_000 + 500);
        assert_eq!(regular.priority.global, 1_000 + 500);
        assert!(early.priority.global > regular.priority.global);
        assert_eq!(early.field.frontier_progress, LogicalTime(10_000));
    }

    #[test]
    fn semantics_unaware_never_extends() {
        let mut st = state().with_semantics(false);
        let hop = HopInfo {
            edge: 0,
            sender_slide: Slide::UNIT,
            target_slide: Slide(10_000),
        };
        let pc =
            LlfPolicy.build_at_source(JobId(1), stamp(1_000, 1_000), Micros(500), &hop, &mut st);
        assert_eq!(
            pc.priority.global, 1_500,
            "no deadline extension without semantics"
        );
        assert_eq!(pc.field.frontier_progress, LogicalTime(1_000));
    }

    #[test]
    fn cold_start_degrades_to_tmf_plus_l() {
        let mut st = state();
        let pc = LlfPolicy.build_at_source(
            JobId(1),
            stamp(100, 100),
            Micros(400),
            &HopInfo::regular(0),
            &mut st,
        );
        assert_eq!(pc.priority.global, 500);
    }

    #[test]
    fn build_at_operator_inherits_constraint_and_allocates_id() {
        let mut st = state();
        let up = LlfPolicy.build_at_source(
            JobId(2),
            stamp(10, 10),
            Micros(900),
            &HopInfo::regular(0),
            &mut st,
        );
        let down = LlfPolicy.build_at_operator(&up, stamp(10, 25), &HopInfo::regular(1), &mut st);
        assert_eq!(down.job, JobId(2));
        assert_eq!(down.field.latency_constraint, Micros(900));
        assert_ne!(down.id, up.id);
        assert_eq!(down.priority.global, 25 + 900);
    }

    #[test]
    fn local_priority_is_frontier_progress() {
        let mut st = state();
        let hop = HopInfo {
            edge: 0,
            sender_slide: Slide::UNIT,
            target_slide: Slide(100),
        };
        let pc = LlfPolicy.build_at_source(JobId(1), stamp(42, 42), Micros(10), &hop, &mut st);
        assert_eq!(pc.priority.local, 100);
    }
}
