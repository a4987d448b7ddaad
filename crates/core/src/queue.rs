//! The scheduler's two-level priority structure (Fig 5(b)):
//! operators ordered by the *global* priority of their most urgent
//! pending message; messages within each operator ordered by *local*
//! priority.
//!
//! The queue also enforces actor semantics: an operator can be *leased*
//! to exactly one worker at a time (per-event synchronization, §1).
//! While leased, the operator is invisible to other workers; newly
//! arriving messages accumulate in its message queue and the operator
//! re-enters the run index when the lease is returned.
//!
//! Runnable operators live in a run index with *exactly one entry
//! each*: when an operator's head priority changes, its entry is
//! removed and re-inserted, so the index never holds more entries than
//! there are runnable operators, however long the queue runs. The index
//! is one ordered set per latency tier under a bitmask of the occupied
//! tiers; every runnable operator keeps a copy of its posted entry,
//! which is what makes removal exact and `O(log n)` without a search.
//! Bucketing by tier gives the two orders the scheduler needs from one
//! structure (see [`Priority::rank`]):
//!
//! * **deadline order** — the most urgent head over all tiers. This is
//!   the order while every runnable head can still start in time.
//! * **tier order** — the most urgent head of the strictest occupied
//!   tier. This is the order once some head is past its start deadline
//!   (`global < now`): no order meets every deadline any more, and
//!   deadline order would let an overdue lax backlog outrank every
//!   fresh strict message.
//!
//! With all tiers equal (FIFO, SJF, token-fair, hand-built priorities)
//! there is one bucket and the two orders are the same order.

use crate::ids::{JobId, OperatorKey};
use crate::priority::Priority;
use crate::time::PhysicalTime;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// Capacity, in messages, an operator's message heap keeps once it has
/// drained. A backlog grows the heap far beyond its steady-state depth,
/// and a heap never gives memory back by itself: without the shrink,
/// one overload spike would pin its high-water allocation until the
/// job is retired.
const KEPT_CAPACITY: usize = 64;

/// One pending message plus its scheduling priority.
#[derive(Debug)]
struct MsgEntry<M> {
    pri: Priority,
    seq: u64,
    msg: M,
}

impl<M> PartialEq for MsgEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl<M> Eq for MsgEntry<M> {}
impl<M> PartialOrd for MsgEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for MsgEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_key().cmp(&other.cmp_key())
    }
}

impl<M> MsgEntry<M> {
    /// Within an operator: local priority first, then arrival order.
    ///
    /// The global component is deliberately excluded. Local priorities
    /// derive from logical progress (window triggers), which is monotone
    /// per channel, so FIFO-by-seq among equal locals preserves the
    /// channel-wise in-order processing guarantee (Cameo §4.3). Global
    /// laxities carry physical-time prediction noise: tie-breaking on
    /// them can reorder two same-window batches from one channel,
    /// advancing the watermark past tuples that then get dropped late.
    fn cmp_key(&self) -> (i64, u64) {
        (self.pri.local, self.seq)
    }
}

#[derive(Debug)]
struct OpState<M> {
    msgs: BinaryHeap<Reverse<MsgEntry<M>>>,
    /// Checked out by a worker.
    leased: bool,
    /// This operator's entry in the run index, if it has one (it is
    /// runnable).
    posted: Option<Entry>,
}

impl<M> OpState<M> {
    fn new() -> Self {
        OpState {
            msgs: BinaryHeap::new(),
            leased: false,
            posted: None,
        }
    }

    fn head_priority(&self) -> Option<Priority> {
        self.msgs.peek().map(|Reverse(e)| e.pri)
    }
}

/// An operator's run-index entry, ordered by head priority (global
/// priority first), then by posting sequence number: `seq` is unique
/// per entry, so the order is total and ties go FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    pri: Priority,
    seq: u64,
    key: OperatorKey,
}

/// The runnable (unleased, non-empty) operators, one entry each: an
/// ordered set per latency tier under a bitmask of the occupied tiers.
#[derive(Debug)]
struct RunIndex {
    tiers: Vec<BTreeSet<Entry>>,
    occupied: u64,
}

impl RunIndex {
    fn new() -> Self {
        RunIndex {
            tiers: (0..=Priority::MAX_TIER).map(|_| BTreeSet::new()).collect(),
            occupied: 0,
        }
    }

    /// Replace an operator's entry: take `posted` out of the index, if
    /// set, then put `entry` in, if any, and record it in `posted`. The
    /// only way in or out, so `posted` always names the operator's one
    /// entry.
    fn repost(&mut self, posted: &mut Option<Entry>, entry: Option<Entry>) {
        if let Some(old) = posted.take() {
            let tier = old.pri.tier() as usize;
            let removed = self.tiers[tier].remove(&old);
            debug_assert!(removed, "posted entry missing from the run index");
            if self.tiers[tier].is_empty() {
                self.occupied &= !(1 << tier);
            }
        }
        if let Some(new) = entry {
            let tier = new.pri.tier() as usize;
            self.tiers[tier].insert(new);
            self.occupied |= 1 << tier;
            *posted = Some(new);
        }
    }

    /// The most urgent entry of every occupied tier, strictest first.
    fn heads(&self) -> impl Iterator<Item = &Entry> {
        let mut left = self.occupied;
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let tier = left.trailing_zeros();
            left &= left - 1;
            self.tiers[tier as usize].first()
        })
    }

    /// First in deadline order.
    fn by_deadline(&self) -> Option<&Entry> {
        self.heads().min()
    }

    /// First in tier order.
    fn by_tier(&self) -> Option<&Entry> {
        self.heads().next()
    }

    /// Some entry sits in a tier stricter than `tier`: one mask test.
    fn occupied_below(&self, tier: u8) -> bool {
        self.occupied & ((1u64 << tier) - 1) != 0
    }

    fn len(&self) -> usize {
        self.tiers.iter().map(BTreeSet::len).sum()
    }
}

/// A lease on an operator: proof that the holder is the only worker
/// executing it. Return it with [`TwoLevelQueue::check_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorLease {
    /// The leased operator.
    pub key: OperatorKey,
}

/// The operator a time-aware peek or pop chose, and under which order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// The chosen operator.
    pub key: OperatorKey,
    /// Its head priority.
    pub pri: Priority,
    /// Some runnable head was past its start deadline, so operators
    /// were ranked in tier order.
    pub overloaded: bool,
    /// Tier order chose a different operator than deadline order would
    /// have. Never set without `overloaded`.
    pub overtook: bool,
}

/// The two-level priority queue. Not thread-safe by itself — the
/// real-time runtime wraps it in a mutex, the simulator drives it
/// single-threaded.
#[derive(Debug)]
pub struct TwoLevelQueue<M> {
    index: RunIndex,
    ops: HashMap<OperatorKey, OpState<M>>,
    msg_count: usize,
    seq: u64,
}

impl<M> Default for TwoLevelQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> TwoLevelQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        TwoLevelQueue {
            index: RunIndex::new(),
            ops: HashMap::new(),
            msg_count: 0,
            seq: 0,
        }
    }

    /// Total pending messages (across all operators, leased or not).
    pub fn len(&self) -> usize {
        self.msg_count
    }

    /// True when no message is pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.msg_count == 0
    }

    /// Entries in the run index: exactly the number of runnable
    /// (unleased, non-empty) operators.
    pub fn runnable_operators(&self) -> usize {
        self.index.len()
    }

    /// Enqueue a message for `key` with priority `pri`.
    pub fn push(&mut self, key: OperatorKey, msg: M, pri: Priority) {
        self.seq += 1;
        let seq = self.seq;
        let op = self.ops.entry(key).or_insert_with(OpState::new);
        op.msgs.push(Reverse(MsgEntry { pri, seq, msg }));
        self.msg_count += 1;
        if !op.leased {
            let head = op.head_priority().expect("just pushed");
            // Re-post whenever the head message's priority *changed* in
            // either direction: a new message with a better local but
            // worse global priority becomes the operator's "next"
            // message and must demote the operator (Fig 5b: operators
            // rank by the global priority of their next message, where
            // next is chosen by local priority).
            if op.posted.map(|e| e.pri) != Some(head) {
                let entry = Entry {
                    pri: head,
                    seq,
                    key,
                };
                self.index.repost(&mut op.posted, Some(entry));
            }
        }
    }

    /// The operator [`pop_with`](Self::pop_with) would check out.
    /// `overloaded` is asked about the most urgent runnable head:
    /// `false` picks in deadline order, `true` in tier order.
    pub(crate) fn peek_with(&self, overloaded: impl FnOnce(Priority) -> bool) -> Option<Pick> {
        let by_deadline = self.index.by_deadline()?;
        let overloaded = overloaded(by_deadline.pri);
        let chosen = if overloaded {
            self.index.by_tier()?
        } else {
            by_deadline
        };
        Some(Pick {
            key: chosen.key,
            pri: chosen.pri,
            overloaded,
            overtook: chosen.key != by_deadline.key,
        })
    }

    /// Check out the first operator in the order `overloaded` selects
    /// (see [`peek_with`](Self::peek_with)).
    pub(crate) fn pop_with(
        &mut self,
        overloaded: impl FnOnce(Priority) -> bool,
    ) -> Option<(OperatorLease, Pick)> {
        let pick = self.peek_with(overloaded)?;
        let op = self
            .ops
            .get_mut(&pick.key)
            .expect("indexed operators exist");
        self.index.repost(&mut op.posted, None);
        op.leased = true;
        Some((OperatorLease { key: pick.key }, pick))
    }

    /// Priority of the most urgent *available* (unleased, non-empty)
    /// operator in deadline order — the order of a queue that is never
    /// overloaded. The shared scheduler's tier-hint refresh reads this.
    pub fn peek_best(&self) -> Option<(OperatorKey, Priority)> {
        self.index.by_deadline().map(|e| (e.key, e.pri))
    }

    /// Head priority of the first available operator in tier order.
    pub(crate) fn peek_best_by_tier(&self) -> Option<Priority> {
        self.index.by_tier().map(|e| e.pri)
    }

    /// True when some runnable operator's head is in a latency tier
    /// stricter than `tier`. Constant time (the run index's occupied-tier
    /// bitmask), so the scheduler can ask at every message boundary.
    pub(crate) fn stricter_tier_runnable(&self, tier: u8) -> bool {
        self.index.occupied_below(tier)
    }

    /// Check out the most urgent operator in deadline order. The lease
    /// must be returned via [`check_in`](Self::check_in).
    pub fn pop_operator(&mut self) -> Option<OperatorLease> {
        self.pop_with(|_| false).map(|(lease, _)| lease)
    }

    /// Check out the first operator at time `now`: in deadline order
    /// while every runnable head can still start in time, in tier order
    /// once the most urgent one is [overdue](Priority::overdue).
    pub fn pop_operator_at(&mut self, now: PhysicalTime) -> Option<(OperatorLease, Pick)> {
        self.pop_with(|head| head.overdue(now))
    }

    /// Take the most urgent pending message of a leased operator. The
    /// message that empties the operator's heap shrinks it back to
    /// `KEPT_CAPACITY`.
    pub fn next_message(&mut self, lease: &OperatorLease) -> Option<(M, Priority)> {
        let op = self.ops.get_mut(&lease.key)?;
        debug_assert!(op.leased, "next_message on unleased operator");
        let Reverse(entry) = op.msgs.pop()?;
        if op.msgs.is_empty() && op.msgs.capacity() > KEPT_CAPACITY {
            op.msgs.shrink_to(KEPT_CAPACITY);
        }
        self.msg_count -= 1;
        Some((entry.msg, entry.pri))
    }

    /// Priority of the leased operator's next message, if any.
    pub fn peek_message(&self, lease: &OperatorLease) -> Option<Priority> {
        self.ops.get(&lease.key).and_then(|o| o.head_priority())
    }

    /// Drop every pending message belonging to `job`, across all of its
    /// operators, and remove the operators from the queue. Returns the
    /// number of messages dropped.
    ///
    /// Unleased operators are removed outright, index entry included. A
    /// *leased* operator keeps its entry in the operator table until
    /// the holder checks the lease back in — its message queue is
    /// emptied here, so the holder's next `next_message` returns `None`
    /// and the eventual [`check_in`](Self::check_in) finds nothing to
    /// re-post. This is what makes job retirement safe to run while
    /// workers hold leases: no lease is ever invalidated under a
    /// worker's feet, it just runs dry.
    pub fn purge_job(&mut self, job: JobId) -> usize {
        let mut purged = 0usize;
        let index = &mut self.index;
        self.ops.retain(|key, op| {
            if key.job != job {
                return true;
            }
            purged += op.msgs.len();
            op.msgs.clear();
            index.repost(&mut op.posted, None);
            op.leased
        });
        self.msg_count -= purged;
        purged
    }

    /// Return a lease. If the operator still has pending messages it
    /// re-enters the run index at its current head priority.
    pub fn check_in(&mut self, lease: OperatorLease) {
        self.seq += 1;
        let seq = self.seq;
        let Some(op) = self.ops.get_mut(&lease.key) else {
            return;
        };
        op.leased = false;
        // A lease is `Copy`; a second check-in must not post twice.
        let entry = op.head_priority().map(|pri| Entry {
            pri,
            seq,
            key: lease.key,
        });
        self.index.repost(&mut op.posted, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;

    fn key(op: u32) -> OperatorKey {
        OperatorKey::new(JobId(0), op)
    }

    fn pri(g: i64) -> Priority {
        Priority::new(0, g)
    }

    #[test]
    fn pops_most_urgent_operator() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), "slow", pri(100));
        q.push(key(2), "urgent", pri(10));
        let lease = q.pop_operator().unwrap();
        assert_eq!(lease.key, key(2));
        assert_eq!(q.next_message(&lease).unwrap().0, "urgent");
        q.check_in(lease);
        let lease = q.pop_operator().unwrap();
        assert_eq!(lease.key, key(1));
    }

    #[test]
    fn a_drained_backlog_gives_its_heap_back() {
        let mut q = TwoLevelQueue::new();
        for i in 0..10_000 {
            q.push(key(1), i, pri(i));
        }
        assert!(q.ops[&key(1)].msgs.capacity() >= 10_000);
        let lease = q.pop_operator().unwrap();
        let mut drained = 0;
        while q.next_message(&lease).is_some() {
            drained += 1;
        }
        assert_eq!(drained, 10_000);
        let capacity = q.ops[&key(1)].msgs.capacity();
        assert!(capacity <= KEPT_CAPACITY, "kept {capacity} slots");
        q.check_in(lease);
    }

    #[test]
    fn push_makes_only_unleased_operators_runnable() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), 1, pri(5));
        assert_eq!(q.runnable_operators(), 1, "idle operator becomes runnable");
        q.push(key(1), 2, pri(4));
        assert_eq!(q.runnable_operators(), 1, "already runnable");
        let lease = q.pop_operator().unwrap();
        q.push(key(1), 3, pri(1));
        assert_eq!(q.runnable_operators(), 0, "leased operator is not runnable");
        q.check_in(lease);
        assert_eq!(q.runnable_operators(), 1);
    }

    #[test]
    fn push_keeps_peek_best_exact() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), 1, pri(50));
        assert_eq!(q.peek_best(), Some((key(1), pri(50))));
        // A more urgent operator: best improves.
        q.push(key(2), 2, pri(10));
        assert_eq!(q.peek_best(), Some((key(2), pri(10))));
        // A lazier operator: best unchanged.
        q.push(key(3), 3, pri(99));
        assert_eq!(q.peek_best(), Some((key(2), pri(10))));
        // Pushing to a leased operator leaves the best untouched.
        let lease = q.pop_operator().unwrap();
        assert_eq!(lease.key, key(2));
        q.push(key(2), 4, pri(1));
        assert_eq!(
            q.peek_best(),
            Some((key(1), pri(50))),
            "leased op is invisible"
        );
        q.check_in(lease);
    }

    #[test]
    fn push_outcome_flags_demotion_of_the_best() {
        // A new message with better local but worse global priority
        // demotes the most urgent operator: the best moves back.
        let mut q = TwoLevelQueue::new();
        q.push(key(4), "old-head", Priority::new(0, -1));
        q.push(key(0), "other", Priority::new(0, 0));
        assert_eq!(q.peek_best(), Some((key(4), Priority::new(0, -1))));
        q.push(key(4), "new-head", Priority::new(-1, 1));
        assert_eq!(q.peek_best(), Some((key(0), Priority::new(0, 0))));
    }

    #[test]
    fn local_priority_orders_within_operator() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), "late", Priority::new(20, 0));
        q.push(key(1), "early", Priority::new(10, 0));
        let lease = q.pop_operator().unwrap();
        assert_eq!(q.next_message(&lease).unwrap().0, "early");
        assert_eq!(q.next_message(&lease).unwrap().0, "late");
        assert!(q.next_message(&lease).is_none());
        q.check_in(lease);
        assert!(q.is_empty());
    }

    #[test]
    fn improved_priority_reorders_heap() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), 1, Priority::uniform(100));
        q.push(key(2), 2, Priority::uniform(50));
        // Operator 1 receives a more urgent message: it must now pop first.
        q.push(key(1), 3, Priority::uniform(5));
        let lease = q.pop_operator().unwrap();
        assert_eq!(lease.key, key(1));
        // Its most urgent message (by local priority) comes out first.
        assert_eq!(q.next_message(&lease).unwrap().0, 3);
    }

    #[test]
    fn head_change_demotes_operator() {
        // A new message with better *local* but worse *global* priority
        // becomes the operator's next message; the operator must be
        // re-ranked by that message's global priority.
        let mut q = TwoLevelQueue::new();
        q.push(key(4), "old-head", Priority::new(0, -1));
        q.push(key(0), "other", Priority::new(0, 0));
        // New head for op 4 by local order, but globally lazier.
        q.push(key(4), "new-head", Priority::new(-1, 1));
        let lease = q.pop_operator().unwrap();
        assert_eq!(lease.key, key(0), "op 4 must be demoted to global 1");
        q.check_in(lease);
    }

    #[test]
    fn leased_operator_hidden_from_others() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), 1, Priority::uniform(1));
        let lease = q.pop_operator().unwrap();
        // New urgent message for the leased operator must not make it
        // poppable again.
        q.push(key(1), 2, Priority::uniform(0));
        assert!(q.pop_operator().is_none());
        // But the lease holder sees it.
        assert_eq!(q.peek_message(&lease), Some(Priority::uniform(0)));
        q.check_in(lease);
        assert!(q.pop_operator().is_some());
    }

    #[test]
    fn check_in_requeues_leftovers() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), 1, pri(10));
        q.push(key(1), 2, pri(20));
        let lease = q.pop_operator().unwrap();
        let _ = q.next_message(&lease);
        q.check_in(lease);
        assert_eq!(q.len(), 1);
        let (k, p) = q.peek_best().unwrap();
        assert_eq!(k, key(1));
        assert_eq!(p, pri(20));
    }

    #[test]
    fn fifo_tiebreak_on_equal_priority() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), "first", pri(7));
        q.push(key(2), "second", pri(7));
        assert_eq!(q.pop_operator().unwrap().key, key(1));
    }

    #[test]
    fn peek_best_skips_stale_entries() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), 1, pri(10));
        q.push(key(1), 2, pri(5)); // re-posts the operator's one entry
        let lease = q.pop_operator().unwrap();
        let _ = q.next_message(&lease);
        let _ = q.next_message(&lease);
        q.check_in(lease);
        assert!(q.peek_best().is_none());
        assert!(q.pop_operator().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn purge_job_drops_messages_and_operators() {
        let mut q = TwoLevelQueue::new();
        let other = OperatorKey::new(JobId(7), 0);
        q.push(key(1), 1, pri(10));
        q.push(key(1), 2, pri(20));
        q.push(key(2), 3, pri(5));
        q.push(other, 4, pri(1));
        assert_eq!(q.purge_job(JobId(0)), 3);
        assert_eq!(q.len(), 1);
        // Only the other job's operator remains poppable.
        let lease = q.pop_operator().unwrap();
        assert_eq!(lease.key, other);
        assert_eq!(q.next_message(&lease).unwrap().0, 4);
        q.check_in(lease);
        assert!(q.pop_operator().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn purge_job_runs_leased_operator_dry() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), 1, pri(10));
        q.push(key(1), 2, pri(20));
        let lease = q.pop_operator().unwrap();
        assert_eq!(q.next_message(&lease).unwrap().0, 1);
        // Purge while the lease is out: the remaining message vanishes,
        // the lease itself stays valid.
        assert_eq!(q.purge_job(JobId(0)), 1);
        assert!(q.next_message(&lease).is_none());
        q.check_in(lease);
        assert!(q.is_empty());
        assert!(q.pop_operator().is_none());
        // The key is reusable afterwards.
        q.push(key(1), 9, pri(1));
        let lease = q.pop_operator().unwrap();
        assert_eq!(q.next_message(&lease).unwrap().0, 9);
        q.check_in(lease);
    }

    #[test]
    fn purge_job_keeps_heap_top_valid() {
        let mut q = TwoLevelQueue::new();
        let other = OperatorKey::new(JobId(7), 0);
        // The purged job holds the first entry; the survivor must surface.
        q.push(key(1), 1, pri(1));
        q.push(other, 2, pri(50));
        assert_eq!(q.purge_job(JobId(0)), 1);
        assert_eq!(q.peek_best(), Some((other, pri(50))));
    }

    #[test]
    fn overdue_head_switches_to_tier_order() {
        let mut q = TwoLevelQueue::new();
        let strict = Priority::new(0, 900).with_tier(13);
        let lax = Priority::new(0, 100).with_tier(17);
        q.push(key(1), "strict", strict);
        q.push(key(2), "lax", lax);
        // Nobody overdue: deadline order, and the time-blind entry
        // points always mean this.
        let (lease, on_time) = q.pop_operator_at(PhysicalTime(100)).unwrap();
        assert_eq!((on_time.key, on_time.overloaded), (key(2), false));
        q.check_in(lease);
        assert_eq!(q.peek_best(), Some((key(2), lax)));
        // The lax head's start deadline has passed: the strict tier
        // overtakes it, and the pick says so.
        let (lease, pick) = q.pop_operator_at(PhysicalTime(101)).unwrap();
        assert_eq!(
            pick,
            Pick {
                key: key(1),
                pri: strict,
                overloaded: true,
                overtook: true
            }
        );
        q.check_in(lease);
        assert_eq!(q.pop_operator().unwrap().key, key(2), "never overloaded");
    }

    #[test]
    fn double_check_in_posts_once() {
        let mut q = TwoLevelQueue::new();
        q.push(key(1), 1, pri(5));
        q.push(key(1), 2, pri(6));
        let lease = q.pop_operator().unwrap();
        q.check_in(lease);
        q.check_in(lease);
        assert_eq!(q.runnable_operators(), 1);
    }

    /// The run index holds one entry per runnable operator, never more:
    /// a million messages through eight operators while never overdue,
    /// then a million while permanently overdue, with heads moving in
    /// both directions, partial drains and tiers of every kind, leave
    /// nothing behind. (A second lazily-invalidated heap beside the
    /// first used to leak stale entries on whichever one was not being
    /// popped.)
    #[test]
    fn run_index_is_bounded_by_runnable_operators() {
        const OPS: u32 = 8;
        const MSGS: u64 = 1_000_000;
        let mut q = TwoLevelQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (phase, now) in [(0u64, PhysicalTime::ZERO), (1, PhysicalTime(u64::MAX))] {
            let mut taken = 0u64;
            for i in 0..MSGS {
                let r = next();
                let op = (r % OPS as u64) as u32;
                let global = 1 + (r >> 8) as i64 % 1_000;
                let local = (r >> 24) as i64 % 50;
                q.push(
                    key(op),
                    i,
                    Priority::new(local, global).with_tier(10 + (op % 3) as u8 * 4),
                );
                if r % 4 == 0 {
                    let (lease, pick) = q.pop_operator_at(now).unwrap();
                    assert_eq!(pick.overloaded, phase == 1);
                    for _ in 0..(r >> 40) % 7 {
                        taken += u64::from(q.next_message(&lease).is_some());
                    }
                    q.check_in(lease);
                    assert!(q.runnable_operators() <= OPS as usize);
                }
            }
            while let Some((lease, _)) = q.pop_operator_at(now) {
                while q.next_message(&lease).is_some() {
                    taken += 1;
                }
                q.check_in(lease);
            }
            assert_eq!(taken, MSGS, "every message comes out once");
            assert!(q.is_empty());
            assert_eq!(q.runnable_operators(), 0, "phase {phase} left entries");
            assert_eq!(q.index.occupied, 0, "phase {phase} left a tier marked");
        }
    }

    #[test]
    fn counts_track_contents() {
        let mut q = TwoLevelQueue::new();
        assert!(q.is_empty());
        q.push(key(1), 1, pri(1));
        q.push(key(2), 2, pri(2));
        q.push(key(2), 3, pri(3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.runnable_operators(), 2);
        // Most urgent operator is key(1) (global priority 1, one message).
        let lease = q.pop_operator().unwrap();
        assert_eq!(lease.key, key(1));
        while q.next_message(&lease).is_some() {}
        q.check_in(lease);
        assert_eq!(q.len(), 2);
        assert_eq!(q.runnable_operators(), 1);
    }
}
