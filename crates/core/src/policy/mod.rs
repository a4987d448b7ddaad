//! Pluggable scheduling policies: the *context handling API* of §5.1.
//!
//! A [`Policy`] implements the four functions of Algorithm 1 —
//! `BUILDCXTATSOURCE`, `BUILDCXTATOPERATOR`, `PROCESSCTXFROMREPLY`,
//! `PREPAREREPLY` — against per-operator [`ConverterState`]. Context
//! converters embedded in each operator call into the policy whenever a
//! message is sent or received; the scheduler itself never computes
//! priorities (it only *interprets* the `(PRI_local, PRI_global)` pair
//! inside the PC), which is what keeps it stateless and pluggable.
//!
//! Built-in policies:
//!
//! | policy | `PRI_global` | `PRI_local` | tier |
//! |---|---|---|---|
//! | [`LlfPolicy`] (default) | start deadline `t_MF + L − C_oM − C_path` | `p_MF` | `⌊log2 L_µs⌋` |
//! | [`EdfPolicy`] | `t_MF + L − C_path` (cost term omitted, §4.2.2) | `p_MF` | `⌊log2 L_µs⌋` |
//! | [`SjfPolicy`] | `C_oM` | `p_MF` | flat |
//! | [`FifoPolicy`] | arrival sequence | arrival sequence | flat |
//! | [`TokenFairPolicy`] | token stamp (§5.4) | token interval | flat |
//!
//! The tier does two things, both for the deadline policies only. It
//! ranks operators while one of them is past its start deadline
//! ([`Priority::rank`](crate::priority::Priority::rank)): their keys
//! are instants that can pass, and once they have, a strict job must
//! still overtake an overdue lax backlog. And it says whom the
//! scheduling quantum protects a lease against: peers and laxer tiers
//! wait for it, an operator a tier up that outranks the lease does not
//! ([`CameoScheduler::decide`](crate::scheduler::CameoScheduler::decide)).
//! A flat tier ([`Priority::FLAT_TIER`](crate::priority::Priority::FLAT_TIER))
//! leaves a policy's order exactly what its `PRI_global` says, and its
//! swaps exactly where the quantum puts them.

mod deadline;
mod fifo;
pub mod token;

pub use deadline::{EdfPolicy, LlfPolicy, SjfPolicy};
pub use fifo::FifoPolicy;
pub use token::{TokenBucket, TokenFairPolicy};

use crate::context::{PriorityContext, ReplyContext};
use crate::ids::{JobId, MessageId, OperatorKey};
use crate::profile::ProfileState;
use crate::progress::{FrontierEstimate, ProgressMap, TimeDomain};
use crate::time::{LogicalTime, Micros, PhysicalTime};
use crate::transform::{transform, Slide};

/// The `(p, t)` stamp of the message being sent: its stream progress and
/// the physical time of the last event required to produce it.
#[derive(Clone, Copy, Debug)]
pub struct MessageStamp {
    /// Stream progress `p` of the message.
    pub progress: LogicalTime,
    /// Physical time `t` of the last event required to produce it.
    pub time: PhysicalTime,
}

/// Static facts about the edge a message is about to cross, looked up
/// from the job graph by the sending operator's converter.
#[derive(Clone, Copy, Debug)]
pub struct HopInfo {
    /// Index of this outgoing edge at the sender (keys the profiling
    /// table that reply contexts populate).
    pub edge: u32,
    /// How often the *sender* triggers (logical-time step).
    pub sender_slide: Slide,
    /// How often the *target* triggers. `Slide::UNIT` for regular
    /// operators.
    pub target_slide: Slide,
}

impl HopInfo {
    /// An edge between two regular operators.
    pub fn regular(edge: u32) -> Self {
        HopInfo {
            edge,
            sender_slide: Slide::UNIT,
            target_slide: Slide::UNIT,
        }
    }
}

/// Per-operator converter state: profiling data (RC_local), the
/// progress-map model, and policy options. One instance lives inside
/// each operator; the scheduler holds none of this.
#[derive(Debug)]
pub struct ConverterState {
    /// The operator this converter belongs to.
    pub key: OperatorKey,
    /// Execution-cost and critical-path profiling (RC_local).
    pub profile: ProfileState,
    /// The logical→physical frontier prediction model (§4.3).
    pub progress_map: ProgressMap,
    /// Query-semantics awareness (§6.3, Fig 15): when `false` the
    /// converter never extends deadlines past the triggering message's
    /// own timestamp — windowed targets are treated as regular.
    pub semantics_aware: bool,
    /// Token bucket for source operators under the token fair-sharing
    /// policy; `None` elsewhere.
    pub tokens: Option<TokenBucket>,
}

impl ConverterState {
    /// Fresh converter state for `key` on a `domain` stream.
    pub fn new(key: OperatorKey, domain: TimeDomain) -> Self {
        ConverterState {
            key,
            profile: ProfileState::new(),
            progress_map: ProgressMap::new(domain),
            semantics_aware: true,
            tokens: None,
        }
    }

    /// Toggle query-semantics awareness (see the field docs).
    pub fn with_semantics(mut self, aware: bool) -> Self {
        self.semantics_aware = aware;
        self
    }

    /// Attach a token bucket (token fair-sharing sources only).
    pub fn with_tokens(mut self, bucket: TokenBucket) -> Self {
        self.tokens = Some(bucket);
        self
    }

    /// The frontier computation shared by every deadline-aware policy
    /// (§4.3): TRANSFORM then PROGRESSMAP, with the conservative
    /// fall-back to regular-operator treatment when the physical
    /// frontier cannot be inferred.
    ///
    /// Also feeds the observed `(p_M, t_M)` pair into the prediction
    /// model (Algorithm 1, line 15).
    pub fn frontier(&mut self, stamp: MessageStamp, hop: &HopInfo) -> (LogicalTime, PhysicalTime) {
        if !self.semantics_aware || !hop.target_slide.is_windowed() {
            return (stamp.progress, stamp.time);
        }
        self.progress_map.update(stamp.progress, stamp.time);
        let pmf = transform(stamp.progress, hop.sender_slide, hop.target_slide);
        match self.progress_map.predict(pmf) {
            // The frontier cannot precede the triggering message itself.
            FrontierEstimate::Predicted(t) => (pmf, t.max(stamp.time)),
            FrontierEstimate::Unavailable => (stamp.progress, stamp.time),
        }
    }
}

/// A pluggable scheduling policy: the context handling API.
///
/// The default methods implement the policy-independent plumbing of
/// Algorithm 1; implementations normally only provide [`Policy::convert`]
/// (the `CXTCONVERT` step that derives the priority pair).
pub trait Policy: Send + Sync {
    /// Short policy name, used in reports and experiment labels.
    fn name(&self) -> &'static str;

    /// `BUILDCXTATSOURCE`: create a PC for a message entering the
    /// dataflow at a source operator.
    fn build_at_source(
        &self,
        job: JobId,
        stamp: MessageStamp,
        latency_constraint: Micros,
        hop: &HopInfo,
        st: &mut ConverterState,
    ) -> PriorityContext {
        let base = PriorityContext::initialize(MessageId::fresh(), job, latency_constraint);
        self.convert(base, stamp, hop, st)
    }

    /// `BUILDCXTATOPERATOR`: create the PC for a downstream message
    /// `M_d` triggered by upstream message `M_u` (whose PC is
    /// inherited).
    fn build_at_operator(
        &self,
        upstream: &PriorityContext,
        stamp: MessageStamp,
        hop: &HopInfo,
        st: &mut ConverterState,
    ) -> PriorityContext {
        let mut base = *upstream;
        base.id = MessageId::fresh();
        self.convert(base, stamp, hop, st)
    }

    /// `CXTCONVERT`: fill in frontier fields and the priority pair.
    fn convert(
        &self,
        base: PriorityContext,
        stamp: MessageStamp,
        hop: &HopInfo,
        st: &mut ConverterState,
    ) -> PriorityContext;

    /// `PROCESSCTXFROMREPLY`: fold an RC received from downstream edge
    /// `edge` into local profiling state.
    fn process_reply(&self, st: &mut ConverterState, edge: u32, rc: &ReplyContext) {
        st.profile.process_reply(edge, rc);
    }

    /// `PREPAREREPLY`: build the RC sent back upstream after this
    /// operator received a message.
    fn prepare_reply(&self, st: &ConverterState, is_sink: bool) -> ReplyContext {
        st.profile.prepare_reply(is_sink)
    }
}

/// Shared helper: write the frontier fields into a PC.
pub(crate) fn stamp_fields(
    pc: &mut PriorityContext,
    stamp: MessageStamp,
    pmf: LogicalTime,
    tmf: PhysicalTime,
) {
    pc.field.progress = stamp.progress;
    pc.field.progress_time = stamp.time;
    pc.field.frontier_progress = pmf;
    pc.field.frontier_time = tmf;
}
