//! The stateless Cameo scheduler (§5.2).
//!
//! Wraps the [two-level queue](crate::queue::TwoLevelQueue) with the
//! worker-facing protocol: acquire the most urgent operator, drain its
//! messages, and at each message boundary decide — via
//! [`CameoScheduler::decide`] — whether to keep going or swap to a more
//! urgent operator once the scheduling quantum has elapsed. Execution is
//! non-preemptive at message granularity: a message that has started
//! runs to completion. An operator that calls a cooperative yield point
//! inside a long message lets a stricter tier run first, nested on the
//! same worker
//! ([`ShardedScheduler::acquire_preempting`](crate::shard::ShardedScheduler::acquire_preempting)),
//! and then resumes.
//!
//! The scheduler holds *no per-job state*; everything it reads arrives
//! inside the message's priority (derived from the Priority Context by
//! the operator-side converters). That is the property that lets one
//! scheduler instance serve any number of jobs — and what Fig 12
//! measures the cost of.

use crate::config::SchedulerConfig;
use crate::ids::OperatorKey;
use crate::priority::Priority;
use crate::queue::{OperatorLease, Pick, PushOutcome, TwoLevelQueue};
use crate::time::{Micros, PhysicalTime};

/// Counters exposed for experiments (operator swaps drive the Fig 14
/// analysis; message counts drive overhead accounting in Fig 12).
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerStats {
    /// Messages handed to workers via `take_message`.
    pub messages_scheduled: u64,
    /// Operator leases checked out via `acquire`.
    pub operator_acquisitions: u64,
    /// `decide` calls that swapped away from the in-hand operator at a
    /// quantum boundary, to a more urgent operator.
    pub quantum_swaps: u64,
    /// `decide` calls that swapped away *before* the quantum, to an
    /// operator in a stricter latency tier that outranked the one in
    /// hand. At most one per lease, and zero whenever every priority is
    /// in one tier.
    pub tier_preemptions: u64,
    /// Leases checked out *inside* a message, at a cooperative yield
    /// point
    /// ([`ShardedScheduler::acquire_preempting`](crate::shard::ShardedScheduler::acquire_preempting)):
    /// an operator in a stricter latency tier outranked the message in
    /// flight and ran on the worker's stack before it resumed. Counted
    /// apart from `tier_preemptions`, which stay boundary swaps; zero
    /// with flat tiers and for operators that never yield.
    pub yield_preemptions: u64,
    /// Always 0: there are no shards to steal from. Kept because the
    /// benchmark in `cameo_benchmark/` reads it.
    pub steals: u64,
    /// Always 0, like [`steals`](Self::steals), and kept for the same
    /// reason.
    pub cross_shard_swaps: u64,
    /// Submissions that improved the queue's best or left it untouched
    /// ([`PushOutcome::fast_hint`](crate::queue::PushOutcome)). The
    /// complement — a push that demotes the most urgent operator —
    /// should be rare; this counter makes that claim measurable.
    pub hint_fast_path: u64,
    /// Messages moved from the submission mailbox into the two-level
    /// queue by a draining worker. Only nonzero under the
    /// [shared scheduler](crate::shard::ShardedScheduler)'s mailbox
    /// ingress path.
    pub mailbox_drained: u64,
    /// Mailbox buffer growths on the push path: pushes and batch
    /// appends that found the inbox buffer full and had to
    /// reallocate it ([`Mailbox::growths`](crate::mailbox::Mailbox::growths)).
    /// The inbox and its spare keep their capacity across drains, so
    /// under single pushes this stops rising once both have grown to
    /// the burst size.
    pub node_alloc_fallback: u64,
    /// Mailbox chain publications performed by `submit_batch`: one per
    /// batch (the whole chain lands under one inbox lock). Together with
    /// `mailbox_drained` this audits the amortization claim — a batch of
    /// N messages shows one publication here, not N. Per-message
    /// `submit` calls are not counted.
    pub batch_publications: u64,
    /// Decoded network frames submitted through the runtime's
    /// multi-frame ingest (`Runtime::ingest_frames`). Filled by the
    /// runtime layer, zero for the core scheduler itself.
    pub frames_coalesced: u64,
    /// Multi-frame ingest calls that submitted at least one frame —
    /// each is one `submit_batch` spanning everything one socket read
    /// produced. `frames_coalesced / net_batches` is the achieved
    /// frames-per-read coalescing ratio. Filled by the runtime layer.
    pub net_batches: u64,
    /// Wire frames refused at the runtime's v2 generation check: their
    /// slot generation no longer matched the occupant (the sender's job
    /// was undeployed — and the slot possibly reused — while the frame
    /// was in flight). The wire-side twin of a stale-handle rejection;
    /// counted separately from `retired_drops` because the frame never
    /// entered the scheduler. Filled by the runtime layer.
    pub gen_rejected_frames: u64,
    /// Jobs retired via
    /// [`ShardedScheduler::retire_job`](crate::shard::ShardedScheduler::retire_job).
    pub jobs_retired: u64,
    /// Messages removed from the queues and mailboxes by job
    /// retirement: the backlog a retiring job left behind after its
    /// graceful drain window.
    pub messages_purged: u64,
    /// Messages dropped because they addressed a retired job: straggler
    /// submissions refused at ingress or at mailbox drain, plus (when
    /// filled by the runtime layer) in-flight executions abandoned at a
    /// generation check. Flat-at-zero in steady state; nonzero only
    /// around job churn.
    pub retired_drops: u64,
    /// Sink outputs that met their job's latency constraint. Filled by
    /// the runtime/sim layers (the core scheduler never sees
    /// completions); `deadline_misses / (deadline_hits +
    /// deadline_misses)` is the run's deadline-miss rate.
    pub deadline_hits: u64,
    /// Sink outputs that missed their job's latency constraint.
    pub deadline_misses: u64,
    /// Operator leases granted while some runnable operator's start
    /// deadline had already passed — the scheduler was overloaded and
    /// ranked operators by `(tier, global)`
    /// ([`Priority::rank`](crate::priority::Priority::rank)). Zero on a
    /// run that never falls behind.
    pub overload_acquisitions: u64,
    /// Of `overload_acquisitions`, the leases where tier order chose a
    /// different operator than deadline order would have: a stricter
    /// tenant overtook an overdue laxer one.
    pub tier_overtakes: u64,
}

impl SchedulerStats {
    /// Field-wise sum, used when aggregating across nodes.
    pub fn merge(&mut self, other: SchedulerStats) {
        self.messages_scheduled += other.messages_scheduled;
        self.operator_acquisitions += other.operator_acquisitions;
        self.quantum_swaps += other.quantum_swaps;
        self.tier_preemptions += other.tier_preemptions;
        self.yield_preemptions += other.yield_preemptions;
        self.steals += other.steals;
        self.cross_shard_swaps += other.cross_shard_swaps;
        self.hint_fast_path += other.hint_fast_path;
        self.mailbox_drained += other.mailbox_drained;
        self.node_alloc_fallback += other.node_alloc_fallback;
        self.batch_publications += other.batch_publications;
        self.frames_coalesced += other.frames_coalesced;
        self.net_batches += other.net_batches;
        self.gen_rejected_frames += other.gen_rejected_frames;
        self.jobs_retired += other.jobs_retired;
        self.messages_purged += other.messages_purged;
        self.retired_drops += other.retired_drops;
        self.deadline_hits += other.deadline_hits;
        self.deadline_misses += other.deadline_misses;
        self.overload_acquisitions += other.overload_acquisitions;
        self.tier_overtakes += other.tier_overtakes;
    }
}

/// What a worker should do after finishing a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Keep draining the current operator.
    Continue,
    /// Return the lease and acquire a more urgent operator.
    Swap,
    /// The current operator has no more messages; return the lease.
    Idle,
}

/// An acquired operator plus the bookkeeping needed for quantum
/// decisions.
#[derive(Debug)]
pub struct Execution {
    lease: OperatorLease,
    acquired_at: PhysicalTime,
}

impl Execution {
    /// The leased operator.
    pub fn key(&self) -> OperatorKey {
        self.lease.key
    }

    /// When the lease was checked out (quantum accounting starts here).
    pub fn acquired_at(&self) -> PhysicalTime {
        self.acquired_at
    }
}

/// The scheduler: a two-level queue plus quantum logic and counters.
#[derive(Debug)]
pub struct CameoScheduler<M> {
    queue: TwoLevelQueue<M>,
    config: SchedulerConfig,
    stats: SchedulerStats,
    /// Most recent time observed via `acquire`/`decide`; used by the
    /// starvation guard to clamp submission priorities.
    last_now: PhysicalTime,
}

impl<M> CameoScheduler<M> {
    /// A scheduler with an empty queue under `config`.
    pub fn new(config: SchedulerConfig) -> Self {
        CameoScheduler {
            queue: TwoLevelQueue::new(),
            config,
            stats: SchedulerStats::default(),
            last_now: PhysicalTime::ZERO,
        }
    }

    /// The configuration this scheduler was built with.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Pending messages across all operators.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no message is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Operators with at least one pending message.
    pub fn pending_operators(&self) -> usize {
        self.queue.pending_operators()
    }

    /// Submit a message for `key`. The returned
    /// [`PushOutcome`] reports whether the target operator just became
    /// runnable (used by runtimes to wake workers).
    ///
    /// With a starvation limit configured (§6.3's starvation
    /// prevention), the global priority is clamped to
    /// `now + limit`: no message can be bypassed indefinitely by a
    /// stream of more urgent arrivals, because once time passes its
    /// clamped deadline it is at least as urgent as anything newer.
    pub fn submit(&mut self, key: OperatorKey, msg: M, pri: Priority) -> PushOutcome {
        let pri = match self.config.starvation_limit {
            Some(limit) => {
                let clamp = crate::priority::deadline_to_priority((self.last_now + limit).0);
                Priority::new(pri.local.min(clamp), pri.global.min(clamp))
            }
            None => pri,
        };
        let out = self.queue.push(key, msg, pri);
        if out.fast_hint {
            self.stats.hint_fast_path += 1;
        }
        out
    }

    /// Check out the most urgent operator, if any: in deadline order
    /// while every runnable head can still start at `now`, in tier
    /// order once one cannot (see
    /// [`Priority::rank`](crate::priority::Priority::rank)).
    pub fn acquire(&mut self, now: PhysicalTime) -> Option<Execution> {
        self.acquire_in(now, false)
    }

    /// [`acquire`](Self::acquire) beside a head that is not in the
    /// queue: `overdue` says that head (the message a yield point
    /// interrupted) has already missed its start deadline, which puts
    /// the queue in tier order.
    pub(crate) fn acquire_in(&mut self, now: PhysicalTime, overdue: bool) -> Option<Execution> {
        self.last_now = self.last_now.max(now);
        let (lease, pick) = self.queue.pop_with(|head| overdue || head.overdue(now))?;
        self.stats.operator_acquisitions += 1;
        self.stats.overload_acquisitions += u64::from(pick.overloaded);
        self.stats.tier_overtakes += u64::from(pick.overtook);
        Some(Execution {
            lease,
            acquired_at: now,
        })
    }

    /// Take the next message of the acquired operator.
    pub fn take_message(&mut self, exec: &Execution) -> Option<(M, Priority)> {
        let out = self.queue.next_message(&exec.lease);
        if out.is_some() {
            self.stats.messages_scheduled += 1;
        }
        out
    }

    /// Decide what the worker should do after completing a message at
    /// time `now` (§5.2: "while processing a message, Cameo peeks at the
    /// priority of the next operator in the queue; if the next operator
    /// has higher priority, we swap with the current operator after a
    /// fixed time quantum"). "Higher priority" is the same rank
    /// `acquire` orders by, taken over the in-hand operator and the
    /// runnable ones together: if any of their heads is overdue at
    /// `now`, a stricter tier beats a laxer one whatever the deadlines.
    ///
    /// The quantum protects the in-hand operator against its peers
    /// only. An operator that outranks it *and* sits in a stricter
    /// latency tier takes the worker at this message boundary, so what
    /// a strict message waits behind a lax backlog is one message, not
    /// the rest of a quantum sized for amortisation. Both conditions
    /// are needed: the rank makes the operator swapped to the one
    /// `acquire` hands out next (a lax head that has aged past a fresh
    /// strict deadline still ranks first on time and keeps going), the
    /// tier makes every early swap go strictly up, so there are at most
    /// as many as stricter-tier messages submitted.
    ///
    /// Only that one operator is tested. A strict operator that
    /// outranks the lease while a *peer* of the lease is due even
    /// earlier is not the one `acquire` hands out, so it waits with the
    /// peer: until the quantum, or until the peer's deadline passes and
    /// the order goes by tier. Strict latency is independent of the
    /// quantum up to that case.
    pub fn decide(&mut self, exec: &Execution, now: PhysicalTime) -> Decision {
        self.last_now = self.last_now.max(now);
        let Some(mine) = self.queue.peek_message(&exec.lease) else {
            return Decision::Idle;
        };
        let quantum_expired = now.since(exec.acquired_at) >= self.config.quantum;
        if self.outranking(mine, now, quantum_expired).is_none() {
            return Decision::Continue;
        }
        if quantum_expired {
            self.stats.quantum_swaps += 1;
        } else {
            self.stats.tier_preemptions += 1;
        }
        Decision::Swap
    }

    /// The boundary rule of [`decide`](Self::decide), for a message of
    /// priority `mine` that is not in the run index (the next message of
    /// a leased operator, or one already executing): the operator
    /// `acquire` would hand out at `now`, if it outranks `mine` and
    /// either `quantum_expired` or it sits in a stricter tier. An
    /// overdue `mine` puts the order by tier.
    /// [`ShardedScheduler::acquire_preempting`](crate::shard::ShardedScheduler::acquire_preempting)
    /// asks the same question of an in-flight message before the
    /// quantum, so the two share this one rule.
    pub(crate) fn outranking(
        &self,
        mine: Priority,
        now: PhysicalTime,
        quantum_expired: bool,
    ) -> Option<Pick> {
        // Before the quantum only a stricter tier can take the worker:
        // when none is runnable (always, with flat tiers) that is one
        // mask test and no heap peek.
        if !quantum_expired && !self.queue.stricter_tier_runnable(mine.tier()) {
            return None;
        }
        let already_overloaded = mine.overdue(now);
        self.queue
            .peek_with(|head| already_overloaded || head.overdue(now))
            .filter(|theirs| {
                theirs.pri.rank(theirs.overloaded) < mine.rank(theirs.overloaded)
                    && (quantum_expired || theirs.pri.tier() < mine.tier())
            })
    }

    /// Return a lease (after `Decision::Swap`/`Decision::Idle`, or on
    /// shutdown). Restarts the quantum for whoever acquires the operator
    /// next.
    pub fn release(&mut self, exec: Execution) {
        self.queue.check_in(exec.lease);
    }

    /// Retire `job`: drop every pending message of its operators and
    /// remove them from the queue (leased operators run dry — see
    /// [`TwoLevelQueue::purge_job`]). Returns the number of messages
    /// purged; [`SchedulerStats::messages_purged`] accumulates it.
    pub fn retire(&mut self, job: crate::ids::JobId) -> usize {
        let purged = self.queue.purge_job(job);
        self.stats.messages_purged += purged as u64;
        purged
    }

    /// Peek the most urgent available operator in deadline order.
    pub fn peek_best(&self) -> Option<(OperatorKey, Priority)> {
        self.queue.peek_best()
    }

    /// Head priority of the first available operator in tier order —
    /// what `acquire` would hand out under overload.
    pub(crate) fn peek_best_by_tier(&self) -> Option<Priority> {
        self.queue.peek_best_by_tier()
    }

    /// Priority of the acquired operator's next pending message, if any.
    pub fn peek_next(&self, exec: &Execution) -> Option<Priority> {
        self.queue.peek_message(&exec.lease)
    }

    /// Effective quantum, exposed for runtimes that want to time-slice.
    pub fn quantum(&self) -> Micros {
        self.config.quantum
    }
}

impl<M> Default for CameoScheduler<M> {
    fn default() -> Self {
        Self::new(SchedulerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, OperatorKey};

    fn key(op: u32) -> OperatorKey {
        OperatorKey::new(JobId(0), op)
    }

    fn sched(quantum_us: u64) -> CameoScheduler<&'static str> {
        CameoScheduler::new(SchedulerConfig::default().with_quantum(Micros(quantum_us)))
    }

    #[test]
    fn drains_in_priority_order() {
        let mut s = sched(0);
        s.submit(key(1), "b", Priority::uniform(20));
        s.submit(key(2), "a", Priority::uniform(10));
        s.submit(key(3), "c", Priority::uniform(30));
        let mut order = Vec::new();
        while let Some(exec) = s.acquire(PhysicalTime::ZERO) {
            while let Some((m, _)) = s.take_message(&exec) {
                order.push(m);
            }
            s.release(exec);
        }
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.stats().messages_scheduled, 3);
        assert_eq!(s.stats().operator_acquisitions, 3);
    }

    #[test]
    fn idle_when_operator_drained() {
        let mut s = sched(0);
        s.submit(key(1), "only", Priority::uniform(1));
        let exec = s.acquire(PhysicalTime::ZERO).unwrap();
        let _ = s.take_message(&exec).unwrap();
        assert_eq!(s.decide(&exec, PhysicalTime(10)), Decision::Idle);
        s.release(exec);
        assert!(s.is_empty());
    }

    #[test]
    fn no_swap_before_quantum_expires() {
        let mut s = sched(1_000);
        s.submit(key(1), "mine1", Priority::uniform(50));
        s.submit(key(1), "mine2", Priority::uniform(50));
        let exec = s.acquire(PhysicalTime::ZERO).unwrap();
        let _ = s.take_message(&exec);
        // A more urgent operator arrives, but the quantum hasn't elapsed.
        s.submit(key(2), "urgent", Priority::uniform(1));
        assert_eq!(s.decide(&exec, PhysicalTime(500)), Decision::Continue);
        // Once the quantum expires the worker must swap.
        assert_eq!(s.decide(&exec, PhysicalTime(1_000)), Decision::Swap);
        assert_eq!(s.stats().quantum_swaps, 1);
        s.release(exec);
        let next = s.acquire(PhysicalTime(1_000)).unwrap();
        assert_eq!(next.key(), key(2));
        s.release(next);
    }

    #[test]
    fn zero_quantum_swaps_immediately() {
        let mut s = sched(0);
        s.submit(key(1), "mine1", Priority::uniform(50));
        s.submit(key(1), "mine2", Priority::uniform(50));
        let exec = s.acquire(PhysicalTime::ZERO).unwrap();
        let _ = s.take_message(&exec);
        s.submit(key(2), "urgent", Priority::uniform(1));
        assert_eq!(s.decide(&exec, PhysicalTime::ZERO), Decision::Swap);
    }

    #[test]
    fn no_swap_to_less_urgent() {
        let mut s = sched(0);
        s.submit(key(1), "mine1", Priority::uniform(10));
        s.submit(key(1), "mine2", Priority::uniform(10));
        s.submit(key(2), "later", Priority::uniform(99));
        let exec = s.acquire(PhysicalTime::ZERO).unwrap();
        let _ = s.take_message(&exec);
        assert_eq!(s.decide(&exec, PhysicalTime(5_000)), Decision::Continue);
        s.release(exec);
    }

    const STRICT: u8 = 13;
    const LAX: u8 = 17;

    /// Two messages each for an on-time strict operator (start deadline
    /// 1 500) and an overdue lax one (100, at `now` = 1 000).
    fn strict_on_time_and_lax_overdue() -> CameoScheduler<&'static str> {
        let mut s = sched(50);
        for m in ["s1", "s2"] {
            s.submit(key(1), m, Priority::uniform(1_500).with_tier(STRICT));
        }
        for m in ["l1", "l2"] {
            s.submit(key(2), m, Priority::uniform(100).with_tier(LAX));
        }
        s
    }

    #[test]
    fn on_time_strict_in_hand_keeps_going_past_an_overdue_lax_backlog() {
        let mut s = strict_on_time_and_lax_overdue();
        // Nothing is overdue yet: deadline order hands out the lax
        // operator. Put it back and let its deadline pass.
        let exec = s.acquire(PhysicalTime(50)).unwrap();
        assert_eq!(exec.key(), key(2));
        s.release(exec);
        assert_eq!(s.stats().overload_acquisitions, 0);
        let exec = s.acquire(PhysicalTime(1_000)).unwrap();
        assert_eq!(exec.key(), key(1), "overloaded: the strict tier first");
        assert_eq!(s.take_message(&exec).unwrap().0, "s1");
        // At the parent commit the in-hand strict operator yielded to
        // the overdue lax one here.
        assert_eq!(s.decide(&exec, PhysicalTime(1_100)), Decision::Continue);
        s.release(exec);
        let st = s.stats();
        assert_eq!((st.overload_acquisitions, st.tier_overtakes), (1, 1));
        assert_eq!(st.quantum_swaps, 0);
    }

    /// A lax operator in hand (two messages, start deadlines `lax`)
    /// under a 1 ms quantum, and an operator of tier `other_tier` with
    /// start deadline `other` that becomes runnable behind it.
    fn lax_in_hand_with_pending(
        lax: i64,
        other: i64,
        other_tier: u8,
    ) -> (CameoScheduler<&'static str>, Execution) {
        let mut s = sched(1_000);
        for m in ["l1", "l2"] {
            s.submit(key(2), m, Priority::uniform(lax).with_tier(LAX));
        }
        let exec = s.acquire(PhysicalTime(50)).unwrap();
        assert_eq!(s.take_message(&exec).unwrap().0, "l1");
        s.submit(key(1), "o1", Priority::uniform(other).with_tier(other_tier));
        (s, exec)
    }

    #[test]
    fn on_time_strict_preempts_a_lax_lease_at_the_message_boundary() {
        let (mut s, exec) = lax_in_hand_with_pending(5_000, 1_500, STRICT);
        // 50 µs into a 1 ms quantum, nobody late: the strict operator
        // ranks first and is a tier up. At the parent commit it waited
        // out the quantum.
        assert_eq!(s.decide(&exec, PhysicalTime(100)), Decision::Swap);
        s.release(exec);
        let next = s.acquire(PhysicalTime(100)).unwrap();
        assert_eq!(
            next.key(),
            key(1),
            "the swap goes to the operator that caused it"
        );
        assert_eq!(s.take_message(&next).unwrap().0, "o1");
        assert_eq!(s.decide(&next, PhysicalTime(200)), Decision::Idle);
        s.release(next);
        let st = s.stats();
        assert_eq!((st.tier_preemptions, st.quantum_swaps), (1, 0));
    }

    #[test]
    fn aged_lax_that_outranks_a_fresh_strict_keeps_going() {
        let (mut s, exec) = lax_in_hand_with_pending(400, 1_500, STRICT);
        // On time the lax head's earlier deadline ranks first, so
        // `acquire` would hand the same operator back: no swap on the
        // tier alone.
        assert_eq!(s.decide(&exec, PhysicalTime(399)), Decision::Continue);
        assert_eq!(s.stats().tier_preemptions, 0);
        // Once it is overdue the rank is tier order, the strict
        // operator outranks it, and the boundary rule applies — still
        // inside the quantum.
        assert_eq!(s.decide(&exec, PhysicalTime(500)), Decision::Swap);
        s.release(exec);
        let next = s.acquire(PhysicalTime(500)).unwrap();
        assert_eq!(next.key(), key(1));
        s.release(next);
        let st = s.stats();
        assert_eq!((st.tier_preemptions, st.quantum_swaps), (1, 0));
    }

    #[test]
    fn equal_tier_waits_for_the_quantum() {
        let (mut s, exec) = lax_in_hand_with_pending(5_000, 1_500, LAX);
        // A peer that outranks the in-hand operator: the quantum is for
        // exactly this, on time and overdue alike.
        assert_eq!(s.decide(&exec, PhysicalTime(100)), Decision::Continue);
        assert_eq!(s.decide(&exec, PhysicalTime(1_049)), Decision::Continue);
        assert_eq!(s.decide(&exec, PhysicalTime(1_050)), Decision::Swap);
        s.release(exec);
        let next = s.acquire(PhysicalTime(1_050)).unwrap();
        assert_eq!(next.key(), key(1));
        s.release(next);
        let st = s.stats();
        assert_eq!((st.tier_preemptions, st.quantum_swaps), (0, 1));
        // A *laxer* tier never preempts either, whatever its deadline.
        let (mut s, exec) = lax_in_hand_with_pending(5_000, 60, LAX + 1);
        assert_eq!(s.decide(&exec, PhysicalTime(100)), Decision::Continue);
        assert_eq!(s.stats().tier_preemptions, 0);
    }

    #[test]
    fn a_peer_due_first_keeps_a_strict_operator_behind_the_quantum() {
        // Lax in hand 5 000, strict pending 1 500 — and a lax peer due
        // at 1 000. On time `acquire` would hand out the peer, which is
        // no tier up, so nothing happens before the quantum although
        // the strict operator outranks the lease too: the early swap
        // only ever goes to the one operator `acquire` returns next.
        let (mut s, exec) = lax_in_hand_with_pending(5_000, 1_500, STRICT);
        s.submit(key(3), "p1", Priority::uniform(1_000).with_tier(LAX));
        assert_eq!(s.decide(&exec, PhysicalTime(100)), Decision::Continue);
        assert_eq!(s.stats().tier_preemptions, 0);
        // Once the peer's deadline passes the order is by tier, and the
        // strict operator is the one handed out: it takes the worker.
        assert_eq!(s.decide(&exec, PhysicalTime(1_001)), Decision::Swap);
        s.release(exec);
        assert_eq!(s.acquire(PhysicalTime(1_001)).unwrap().key(), key(1));
        let st = s.stats();
        assert_eq!((st.tier_preemptions, st.quantum_swaps), (1, 0));
    }

    #[test]
    fn equal_tiers_share_overload_in_deadline_order() {
        let mut s = sched(0);
        s.submit(key(1), "later", Priority::uniform(300).with_tier(LAX));
        s.submit(key(2), "sooner", Priority::uniform(200).with_tier(LAX));
        let exec = s.acquire(PhysicalTime(1_000)).unwrap();
        assert_eq!(exec.key(), key(2));
        s.release(exec);
        let st = s.stats();
        assert_eq!((st.overload_acquisitions, st.tier_overtakes), (1, 0));
    }

    #[test]
    fn starvation_limit_clamps_priorities() {
        let mut s: CameoScheduler<&str> = CameoScheduler::new(
            SchedulerConfig::default()
                .with_quantum(Micros(0))
                .with_starvation_limit(Micros(1_000)),
        );
        // Advance the scheduler's notion of time to t=0 (acquire on empty).
        assert!(s.acquire(PhysicalTime::ZERO).is_none());
        s.submit(key(1), "soon", Priority::uniform(500));
        s.submit(key(2), "starved", Priority::IDLE); // clamped to 1000
        s.submit(key(3), "far", Priority::uniform(2_000)); // clamped to 1000
        let mut order = Vec::new();
        while let Some(exec) = s.acquire(PhysicalTime(0)) {
            while let Some((m, _)) = s.take_message(&exec) {
                order.push(m);
            }
            s.release(exec);
        }
        // Without the clamp the order would be soon, far, starved.
        assert_eq!(order, vec!["soon", "starved", "far"]);
    }

    #[test]
    fn no_starvation_limit_preserves_priorities() {
        let mut s = sched(0);
        assert!(s.acquire(PhysicalTime::ZERO).is_none());
        s.submit(key(1), "soon", Priority::uniform(500));
        s.submit(key(2), "starved", Priority::IDLE);
        s.submit(key(3), "far", Priority::uniform(2_000));
        let mut order = Vec::new();
        while let Some(exec) = s.acquire(PhysicalTime(0)) {
            while let Some((m, _)) = s.take_message(&exec) {
                order.push(m);
            }
            s.release(exec);
        }
        assert_eq!(order, vec!["soon", "far", "starved"]);
    }

    #[test]
    fn released_operator_resumes_later() {
        let mut s = sched(0);
        s.submit(key(1), "a1", Priority::uniform(10));
        s.submit(key(1), "a2", Priority::uniform(40));
        s.submit(key(2), "b", Priority::uniform(20));
        // Drain most urgent first: a1, then swap to b, then back to a2.
        let mut order = Vec::new();
        let exec = s.acquire(PhysicalTime::ZERO).unwrap();
        order.push(s.take_message(&exec).unwrap().0);
        assert_eq!(s.decide(&exec, PhysicalTime::ZERO), Decision::Swap);
        s.release(exec);
        let exec = s.acquire(PhysicalTime::ZERO).unwrap();
        assert_eq!(exec.key(), key(2));
        order.push(s.take_message(&exec).unwrap().0);
        assert_eq!(s.decide(&exec, PhysicalTime::ZERO), Decision::Idle);
        s.release(exec);
        let exec = s.acquire(PhysicalTime::ZERO).unwrap();
        order.push(s.take_message(&exec).unwrap().0);
        s.release(exec);
        assert_eq!(order, vec!["a1", "b", "a2"]);
    }
}
