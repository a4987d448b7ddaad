//! The scheduler a pool of workers shares: one [`CameoScheduler`]
//! behind one lock, fed by a submission [`Mailbox`] kept off that lock.
//!
//! The paper's scheduler is *stateless* so that one instance can serve
//! any number of jobs cheaply (§5.2, Fig 12), and it asks for ingress
//! kept off the dispatcher's lock (§5, Fig 5(b)). This module is that
//! arrangement for a pool of workers:
//!
//! * **Ingress off the scheduler lock.** `submit` pushes into the
//!   [`Mailbox`] under the mailbox's own inbox lock, lowers the tier
//!   hint when the message is in a stricter tier, and wakes a parked
//!   worker. Workers *drain* the mailbox into the two-level queue, in
//!   submission order, under the lock they already hold at every
//!   acquire/take/decide/release boundary, by swapping the inbox for a
//!   spare buffer kept under that lock. A bursty submitter never blocks
//!   the dispatching worker. The mailbox is the only way in.
//! * **One queue for every worker.** All operators live in one
//!   two-level queue, so lease exclusivity, per-operator FIFO and the
//!   order between operators are the single scheduler's at any pool
//!   size: a drain through this type matches a bare `CameoScheduler`
//!   message for message (`tests/scheduler_comparison.rs`). Per-worker
//!   shards with work stealing were deleted: in `scheduler_overhead`'s
//!   `contended_cycle` one shard beat them at 2, 4 and 8 threads on a
//!   2-vCPU host, and in a simulator sweep over the corpus at 2, 4 and 8
//!   workers they never moved the miss rate by more than 0.01.
//! * **Preemption inside a message.** An operator that calls a yield
//!   point lets the worker ask `decide`'s question of the message it is
//!   executing ([`ShardedScheduler::acquire_preempting`]). The tier hint
//!   answers "nothing stricter is waiting" with one load, without the
//!   lock. It is advisory: submissions lower it, every operation under
//!   the lock recomputes it exactly, and a lease is always decided under
//!   the lock.
//! * **Starvation clamp.** The §6.3 guard clamps mailbox messages when
//!   they are *drained*, slightly after submission; the clamp is a
//!   bound, and a later `now` only tightens it.
//!
//! ## The park/wake handshake
//!
//! Waking a parked worker cannot piggyback on the scheduler mutex, so
//! parking runs a Dekker-style handshake against a dedicated park mutex
//! (wakers must never contend with drains):
//!
//! 1. the parker bumps the `parked` count, takes the park lock, and
//!    re-checks the tier hint *and* the mailbox before sleeping;
//! 2. the waker publishes work (mailbox push or hint store), then checks
//!    `parked` and, if nonzero, locks/unlocks the park mutex before
//!    notifying.
//!
//! SeqCst between the publish and the `parked` read guarantees at least
//! one side sees the other. `tests/mailbox_stress.rs` hammers this
//! window.
//!
//! ## Names kept for the benchmark
//!
//! `cameo_benchmark/` must build unchanged, so the type keeps its name
//! and path, [`SchedulerConfig::with_shards`] is accepted and ignored,
//! [`acquire`](ShardedScheduler::acquire) keeps an ignored leading
//! worker index, and [`SchedulerStats::steals`] /
//! [`SchedulerStats::cross_shard_swaps`] always read 0.

use crate::config::SchedulerConfig;
use crate::ids::{JobId, OperatorKey};
use crate::mailbox::{Mail, Mailbox};
use crate::priority::Priority;
use crate::scheduler::{CameoScheduler, Decision, Execution, SchedulerStats};
use crate::time::PhysicalTime;
use std::collections::HashSet;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Tier hint value meaning "no available operator"; every real tier is
/// at most [`Priority::MAX_TIER`].
const NO_TIER: u8 = u8::MAX;

/// What the scheduler lock guards: the scheduler, and the spare buffer a
/// drain swaps with the mailbox's inbox.
struct Core<M> {
    sched: CameoScheduler<M>,
    /// Empty between drains; keeps its capacity, so the inbox and the
    /// spare alternate without reallocating.
    spare: Vec<Mail<M>>,
}

/// One Cameo scheduler shared by a pool of workers, with a submission
/// mailbox in front of its lock.
///
/// All methods take `&self`; the locks live inside. The type is `Sync`
/// for `M: Send`, so runtimes share it via `Arc` without an outer lock.
pub struct ShardedScheduler<M> {
    /// Holding this lock is what "under the lock" means throughout.
    core: Mutex<Core<M>>,
    /// Ingress: `submit` pushes here, workers drain it under the lock.
    mailbox: Mailbox<M>,
    /// Idle workers park here; `submit` wakes one.
    cv: Condvar,
    /// Mutex paired with `cv`, separate from `core` so that a waker
    /// (an empty critical section) never contends with a drain.
    park: Mutex<()>,
    /// Number of workers inside [`park`](Self::park). Wakers skip the
    /// park lock entirely while this is zero.
    parked: AtomicUsize,
    /// The strictest latency tier among available operators' heads
    /// ([`NO_TIER`] when none). Lowered by submitters (never raised),
    /// recomputed exactly under the lock; a reader may see a stale value.
    tier_hint: AtomicU8,
    /// Pending messages, mailbox included. Every submit path counts a
    /// message *before* publishing it, so the gauge never wraps and
    /// never reads zero with mail in flight; it may read high briefly.
    msgs: AtomicUsize,
    /// Leases handed out by [`acquire_preempting`](Self::acquire_preempting).
    yield_preemptions: AtomicU64,
    mailbox_drained: AtomicU64,
    /// Chain publications by `submit_batch` (one per batch); audits the
    /// one-publication amortization. Counted only on the batch path —
    /// per-message `submit` stays free of extra RMWs.
    batch_pubs: AtomicU64,
    /// Jobs currently retired: their messages are refused at ingress
    /// and dropped at mailbox drain, and their operators are never
    /// leased. Set by [`retire_job`](Self::retire_job), cleared by
    /// [`reinstate_job`](Self::reinstate_job). This mutex may be taken
    /// while the core lock is held, never the other way around.
    retired_set: Mutex<HashSet<JobId>>,
    /// Membership fingerprint over `retired_set` (bit `slot % 64`), so
    /// ingress for live jobs stays lock-free while other slots sit
    /// retired. A collision just pays the set lock.
    retired_fp: AtomicU64,
    jobs_retired: AtomicU64,
    retired_drops: AtomicU64,
}

/// The fingerprint bit for a job slot.
#[inline]
fn fp_bit(job: JobId) -> u64 {
    1u64 << (job.0 % 64)
}

impl<M> ShardedScheduler<M> {
    /// One scheduler under `config`'s quantum and starvation limit.
    pub fn new(config: SchedulerConfig) -> Self {
        ShardedScheduler {
            core: Mutex::new(Core {
                sched: CameoScheduler::new(config),
                spare: Vec::new(),
            }),
            mailbox: Mailbox::new(),
            cv: Condvar::new(),
            park: Mutex::new(()),
            parked: AtomicUsize::new(0),
            tier_hint: AtomicU8::new(NO_TIER),
            msgs: AtomicUsize::new(0),
            yield_preemptions: AtomicU64::new(0),
            mailbox_drained: AtomicU64::new(0),
            batch_pubs: AtomicU64::new(0),
            retired_set: Mutex::new(HashSet::new()),
            retired_fp: AtomicU64::new(0),
            jobs_retired: AtomicU64::new(0),
            retired_drops: AtomicU64::new(0),
        }
    }

    /// True when `job` is retired. The fingerprint answers "no" — the
    /// overwhelmingly common case on ingress — with one load, and the
    /// set lock is taken only on a bit hit. The fingerprint is stored
    /// before the retirement fence, so any submitter ordered after the
    /// mark sees the bit.
    fn retired(&self, job: JobId) -> bool {
        self.retired_fp.load(Ordering::SeqCst) & fp_bit(job) != 0 && self.is_retired(job)
    }

    /// The set lookup behind [`retired`](Self::retired).
    fn is_retired(&self, job: JobId) -> bool {
        self.retired_set
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .contains(&job)
    }

    fn lock(&self) -> MutexGuard<'_, Core<M>> {
        // A worker panicking inside scheduler code must not wedge the
        // other workers: recover the guard, matching parking_lot
        // semantics.
        self.core
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Move everything the mailbox holds into the two-level queue, in
    /// submission order: swap the inbox for the spare buffer, then
    /// replay the spare. Must be called with the lock held (the `core`
    /// borrow proves it).
    ///
    /// Retired jobs' mail is dropped instead of admitted (zero happens
    /// outside churn windows). The return value counts those drops —
    /// all of them when `count_job` is `None`, or only the named job's
    /// when `Some` (so `retire_job` can attribute its purge total to
    /// the job actually being retired, not to other concurrently
    /// retiring jobs' stragglers swept up in the same drain).
    fn drain_locked(&self, core: &mut Core<M>, count_job: Option<JobId>) -> usize {
        if self.mailbox.is_empty() {
            return 0;
        }
        let Core { sched, spare } = core;
        self.mailbox.swap(spare);
        let drained = spare.len();
        // Straggler mail for retired jobs (a producer's push that raced
        // the retirement mark) is discarded here, so a retired job's
        // messages can never re-enter the queue. The fingerprint is
        // tested per mail; the set mutex is taken only on a bit hit.
        let fp = self.retired_fp.load(Ordering::SeqCst);
        let mut retired: Option<MutexGuard<'_, HashSet<JobId>>> = None;
        let (mut dropped, mut counted) = (0usize, 0usize);
        for mail in spare.drain(..) {
            let job = mail.key.job;
            if fp & fp_bit(job) != 0
                && retired
                    .get_or_insert_with(|| {
                        self.retired_set.lock().unwrap_or_else(|p| p.into_inner())
                    })
                    .contains(&job)
            {
                dropped += 1;
                counted += usize::from(count_job.is_none_or(|j| j == job));
                continue;
            }
            sched.submit(mail.key, mail.msg, mail.pri);
        }
        drop(retired);
        if dropped > 0 {
            self.retired_drops
                .fetch_add(dropped as u64, Ordering::Relaxed);
            self.msgs.fetch_sub(dropped, Ordering::Relaxed);
        }
        self.mailbox_drained
            .fetch_add((drained - dropped) as u64, Ordering::Relaxed);
        counted
    }

    /// Recompute the tier hint exactly (the run index answers it
    /// directly). Must be called with the lock held. The store is
    /// skipped when nothing changed, keeping the line clean for the
    /// lock-free readers. Returns whether an operator is available.
    fn refresh_hint(&self, core: &CameoScheduler<M>) -> bool {
        let tier = core.peek_best_by_tier().map_or(NO_TIER, |p| p.tier());
        if self.tier_hint.load(Ordering::Relaxed) != tier {
            self.tier_hint.store(tier, Ordering::SeqCst);
        }
        tier != NO_TIER
    }

    /// Lower the tier hint to `tier` if it is stricter (lock-free; used
    /// by the submit paths).
    fn lower_hint(&self, tier: u8) {
        if tier < self.tier_hint.load(Ordering::Relaxed) {
            self.tier_hint.fetch_min(tier, Ordering::SeqCst);
        }
    }

    /// Submit a message for `key`. A parked worker is woken internally.
    ///
    /// The scheduler mutex is never touched: a push under the mailbox's
    /// inbox lock, a tier-hint update when the message is in a stricter
    /// tier, and a wake check. A bursty submitter therefore cannot block
    /// a dispatching worker.
    pub fn submit(&self, key: OperatorKey, msg: M, pri: Priority) {
        if self.retired(key.job) {
            self.retired_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Count, then publish: a drain that takes this message out
        // subtracts strictly after the add, so `msgs` never wraps and
        // never reads zero while the mail is in flight.
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.mailbox.push(key, msg, pri);
        self.lower_hint(pri.tier());
        // The push stored the mailbox's queued flag with SeqCst, so it
        // is ordered before this parked read in the SC total order —
        // the handshake the module docs describe.
        self.wake_one();
    }

    /// Submit a whole batch of messages as **one** mailbox publication
    /// (the chain is appended atomically, in iteration order), one
    /// tier-hint update and one wake — instead of per-message traffic.
    ///
    /// Per-operator FIFO is preserved exactly as with per-message
    /// [`submit`](Self::submit): a chain drains in add order. Returns
    /// the number of messages submitted.
    pub fn submit_batch<I>(&self, items: I) -> usize
    where
        I: IntoIterator<Item = (OperatorKey, M, Priority)>,
    {
        let fp = self.retired_fp.load(Ordering::SeqCst);
        if fp == 0 {
            return self.submit_batch_inner(items.into_iter());
        }
        // Retirements exist: filter each item through the fingerprint,
        // consulting the set only on a bit hit, once per distinct job.
        // Each lookup takes the set mutex briefly and on its own, never
        // across the submission loop the filter runs in.
        let mut verdicts: Vec<(JobId, bool)> = Vec::new();
        let mut dropped = 0usize;
        let n = self.submit_batch_inner(items.into_iter().filter(|(key, _, _)| {
            if fp & fp_bit(key.job) == 0 {
                return true;
            }
            let retired = match verdicts.iter().find(|(j, _)| *j == key.job) {
                Some(&(_, r)) => r,
                None => {
                    let r = self.is_retired(key.job);
                    verdicts.push((key.job, r));
                    r
                }
            };
            if retired {
                dropped += 1;
            }
            !retired
        }));
        if dropped > 0 {
            self.retired_drops
                .fetch_add(dropped as u64, Ordering::Relaxed);
        }
        n
    }

    fn submit_batch_inner<I>(&self, items: I) -> usize
    where
        I: Iterator<Item = (OperatorKey, M, Priority)>,
    {
        let mut chain = self.mailbox.chain(items.size_hint().0);
        let mut tier = NO_TIER;
        for (key, msg, pri) in items {
            tier = tier.min(pri.tier());
            chain.add(key, msg, pri);
        }
        let n = chain.len();
        if n > 0 {
            self.msgs.fetch_add(n, Ordering::Relaxed);
            chain.publish();
            self.batch_pubs.fetch_add(1, Ordering::Relaxed);
            self.lower_hint(tier);
            // The publish stored the queued flag with SeqCst, ordering it
            // before wake_one's parked read — same handshake as the
            // single-submit path.
            self.wake_one();
        }
        n
    }

    /// Check out the most urgent operator: in deadline order while every
    /// runnable head can still start at `now`, in tier order once one
    /// cannot (see [`Priority::rank`]). Drains the mailbox first, and
    /// refuses — purging its messages — any operator of a retired job.
    /// When it leaves another operator available, one parked worker is
    /// woken for it.
    ///
    /// The leading worker index is ignored; it is kept so that callers
    /// written against the sharded scheduler still compile.
    pub fn acquire(&self, _worker: usize, now: PhysicalTime) -> Option<Execution> {
        let mut core = self.lock();
        self.drain_locked(&mut core, None);
        let exec = loop {
            let Some(exec) = core.sched.acquire(now) else {
                break None;
            };
            // A retired job's operator: purge what the retirement has not
            // reached yet (counted as `messages_purged` only) and try the
            // next one.
            if self.retired(exec.key().job) {
                let purged = core.sched.retire(exec.key().job);
                self.msgs.fetch_sub(purged, Ordering::Relaxed);
                core.sched.release(exec);
                continue;
            }
            break Some(exec);
        };
        // Refresh even on failure: a failed acquire must settle the
        // hint to empty so park's fast path stops spinning.
        let more = self.refresh_hint(&core.sched);
        drop(core);
        if exec.is_some() && more {
            // The hint store may have been skipped as unchanged: the
            // fence orders the publish before the `parked` read instead.
            fence(Ordering::SeqCst);
            self.wake_one();
        }
        exec
    }

    /// Take the next message of the acquired operator. Drains the
    /// mailbox first, so messages submitted while the operator is held
    /// are visible to the holder.
    pub fn take_message(&self, exec: &Execution) -> Option<(M, Priority)> {
        let mut core = self.lock();
        self.drain_locked(&mut core, None);
        let out = core.sched.take_message(exec);
        if out.is_some() {
            self.msgs.fetch_sub(1, Ordering::Relaxed);
        }
        self.refresh_hint(&core.sched);
        out
    }

    /// Decide what to do after finishing a message:
    /// [`CameoScheduler::decide`], after a mailbox drain.
    pub fn decide(&self, exec: &Execution, now: PhysicalTime) -> Decision {
        let mut core = self.lock();
        self.drain_locked(&mut core, None);
        core.sched.decide(exec, now)
    }

    /// Lock-free pre-check for
    /// [`acquire_preempting`](Self::acquire_preempting): is a runnable
    /// operator's head in a tier stricter than `tier`? "No" is what a
    /// yield point hears almost always, and it costs one load. A "yes"
    /// is only a hint; the lease is decided under the lock.
    pub fn stricter_tier_waiting(&self, tier: u8) -> bool {
        self.tier_hint.load(Ordering::Acquire) < tier
    }

    /// Preemption inside a message: check out the operator that takes
    /// the worker from the message it is *executing*, whose priority is
    /// `mine` and which belongs to `job`. The caller runs the lease on
    /// its own stack, then resumes the message.
    ///
    /// It is [`decide`](Self::decide)'s question before the quantum,
    /// asked of the in-flight message: the operator `acquire` would hand
    /// out at `now` must outrank `mine` *and* sit in a stricter tier.
    /// `mine` counts as a runnable head for the overload verdict.
    ///
    /// `None` — the worker finishes its message — when nothing qualifies,
    /// or when the operator that would belongs to `job`: the caller holds
    /// one of that job's instances, which a nested one could need (a
    /// reply upstream). A retired job's operator is purged and skipped,
    /// as in `acquire`. Each lease counts in
    /// [`SchedulerStats::yield_preemptions`].
    pub fn acquire_preempting(
        &self,
        mine: Priority,
        job: JobId,
        now: PhysicalTime,
    ) -> Option<Execution> {
        if !self.stricter_tier_waiting(mine.tier()) {
            return None;
        }
        let mut core = self.lock();
        self.drain_locked(&mut core, None);
        let exec = loop {
            let Some(pick) = core.sched.outranking(mine, now, false) else {
                break None;
            };
            if self.retired(pick.key.job) {
                let purged = core.sched.retire(pick.key.job);
                self.msgs.fetch_sub(purged, Ordering::Relaxed);
                continue;
            }
            if pick.key.job == job {
                break None;
            }
            // The same order `outranking` peeked in: the pick itself.
            let exec = core.sched.acquire_in(now, mine.overdue(now));
            debug_assert_eq!(exec.as_ref().map(Execution::key), Some(pick.key));
            break exec;
        };
        self.refresh_hint(&core.sched);
        drop(core);
        let exec = exec?;
        self.yield_preemptions.fetch_add(1, Ordering::Relaxed);
        Some(exec)
    }

    /// Return a lease. Reports whether an operator is still available,
    /// and wakes one parked worker for it if so (a swap leaves messages
    /// behind).
    pub fn release(&self, exec: Execution) -> bool {
        let mut core = self.lock();
        self.drain_locked(&mut core, None);
        core.sched.release(exec);
        let more = self.refresh_hint(&core.sched);
        drop(core);
        if more {
            fence(Ordering::SeqCst);
            self.wake_one();
        }
        more
    }

    /// Retire `job` (the runtime's `undeploy`): mark it retired, then
    /// purge its messages from the mailbox and the two-level queue.
    /// Returns the number of messages purged.
    ///
    /// The mark lands *before* the purge, so the job's messages can only
    /// shrink: [`submit`](Self::submit) / [`submit_batch`](Self::submit_batch)
    /// refuse new ones, straggler mail that raced the mark is discarded
    /// at the next drain, and [`acquire`](Self::acquire) refuses the
    /// job's operators. A lease already held runs dry: its holder's next
    /// `take_message` returns `None` (the message it is executing is the
    /// runtime's to abandon). The mark stays until
    /// [`reinstate_job`](Self::reinstate_job) clears it for a reused id.
    pub fn retire_job(&self, job: JobId) -> usize {
        {
            let mut set = self.retired_set.lock().unwrap_or_else(|p| p.into_inner());
            if set.insert(job) {
                self.retired_fp.fetch_or(fp_bit(job), Ordering::SeqCst);
                self.jobs_retired.fetch_add(1, Ordering::Relaxed);
            }
        }
        // SeqCst fence pairs with the submit paths' SeqCst RMWs: any
        // producer that passed its retirement check before the mark has
        // either published already (its mail is seen and purged or
        // dropped below / at the next drain) or will re-check and drop.
        fence(Ordering::SeqCst);
        let mut core = self.lock();
        // Drain first: with the mark set, the job's mailbox entries are
        // dropped (and counted) right here; `count_job` keeps other
        // concurrently-retiring jobs' stragglers out of this job's
        // purge total.
        let mut purged = self.drain_locked(&mut core, Some(job));
        let from_queue = core.sched.retire(job);
        if from_queue > 0 {
            purged += from_queue;
            self.msgs.fetch_sub(from_queue, Ordering::Relaxed);
        }
        self.refresh_hint(&core.sched);
        purged
    }

    /// Clear `job`'s retirement mark so the id can be deployed again
    /// (slot reuse). A no-op when the job is not retired.
    pub fn reinstate_job(&self, job: JobId) {
        let mut set = self.retired_set.lock().unwrap_or_else(|p| p.into_inner());
        if set.remove(&job) {
            // Rebuild the fingerprint from the survivors: the removed
            // slot's bit may be shared with another retired slot.
            let fp = set.iter().fold(0u64, |fp, &j| fp | fp_bit(j));
            self.retired_fp.store(fp, Ordering::SeqCst);
        }
    }

    /// Messages the mailbox buffers — the inbox and the spare its
    /// drains swap in — can hold without growing: a gauge of the ingress
    /// buffers' footprint. Takes the lock briefly.
    pub fn mailbox_capacity(&self) -> usize {
        self.lock().spare.capacity() + self.mailbox.capacity()
    }

    /// Pending messages, mailbox included: a gauge submitters and
    /// drains move while it is read.
    pub fn len(&self) -> usize {
        self.msgs.load(Ordering::Relaxed)
    }

    /// True when no message is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scheduler's counters plus mailbox, batch, retirement and
    /// yield-point accounting. Messages still sitting in the mailbox
    /// have not reached the `CameoScheduler` yet, so their submit-side
    /// counters (`hint_fast_path`) appear only after a worker drains
    /// them.
    pub fn stats(&self) -> SchedulerStats {
        let mut total = self.lock().sched.stats();
        total.yield_preemptions = self.yield_preemptions.load(Ordering::Relaxed);
        total.mailbox_drained = self.mailbox_drained.load(Ordering::Relaxed);
        total.batch_publications = self.batch_pubs.load(Ordering::Relaxed);
        total.jobs_retired = self.jobs_retired.load(Ordering::Relaxed);
        total.retired_drops += self.retired_drops.load(Ordering::Relaxed);
        total.node_alloc_fallback = self.mailbox.growths();
        total
    }

    /// True when work is advertised — a non-empty tier hint or
    /// undrained mail.
    fn work_advertised(&self) -> bool {
        self.tier_hint.load(Ordering::SeqCst) != NO_TIER || !self.mailbox.is_empty()
    }

    /// Park the calling worker until work may be available or `timeout`
    /// elapses. Returns immediately when work is advertised (tier hint
    /// *or* undrained mailbox).
    pub fn park(&self, timeout: Duration) {
        self.parked.fetch_add(1, Ordering::SeqCst);
        // Order the parked bump before the predicate loads (the other
        // half of the submit-side handshake).
        fence(Ordering::SeqCst);
        let guard = self.park.lock().unwrap_or_else(|p| p.into_inner());
        if self.work_advertised() {
            drop(guard);
            self.parked.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake one parked worker, serializing with the parker's predicate
    /// re-check via the park lock. Callers must order their
    /// work-publishing store before this call's `parked` load (a SeqCst
    /// store or RMW on the publish, or an explicit SeqCst fence).
    fn wake_one(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Empty critical section: the notify now lands either after
            // the parker began waiting (delivered) or before its
            // re-check (which then sees the published work).
            drop(self.park.lock().unwrap_or_else(|p| p.into_inner()));
            self.cv.notify_one();
        }
    }

    /// Wake every parked worker (shutdown, or broadcast after bulk
    /// submission).
    pub fn notify_all(&self) {
        drop(self.park.lock().unwrap_or_else(|p| p.into_inner()));
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Micros;

    fn key(op: u32) -> OperatorKey {
        OperatorKey::new(JobId(0), op)
    }

    fn sched(quantum_us: u64) -> ShardedScheduler<u64> {
        ShardedScheduler::new(SchedulerConfig::default().with_quantum(Micros(quantum_us)))
    }

    /// How long a parker waited for `wake` to reach it.
    fn parked_for(wake: impl FnOnce(&ShardedScheduler<u64>)) -> Duration {
        let sh = std::sync::Arc::new(sched(0));
        let parker = {
            let sh = sh.clone();
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                sh.park(Duration::from_secs(30));
                t0.elapsed()
            })
        };
        // Give the thread time to actually park.
        std::thread::sleep(Duration::from_millis(100));
        wake(&sh);
        parker.join().unwrap()
    }

    /// Whether `park` returns at once, as it must with work advertised.
    fn parks_briefly(sh: &ShardedScheduler<u64>) -> bool {
        let t0 = std::time::Instant::now();
        sh.park(Duration::from_secs(5));
        t0.elapsed() < Duration::from_secs(1)
    }

    /// Drain everything single-threaded, recording values.
    fn drain(s: &ShardedScheduler<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(exec) = s.acquire(0, PhysicalTime::ZERO) {
            while let Some((m, _)) = s.take_message(&exec) {
                out.push(m);
            }
            s.release(exec);
        }
        out
    }

    #[test]
    fn single_shard_matches_plain_scheduler() {
        let sh = sched(0);
        let mut plain: CameoScheduler<u64> =
            CameoScheduler::new(SchedulerConfig::default().with_quantum(Micros(0)));
        // Seven messages over three operators, so operators hold more
        // than one message and local order matters too.
        for (i, g) in [7i64, 3, 9, 3, 1, 8, 2].iter().enumerate() {
            sh.submit(key(i as u32 % 3), i as u64, Priority::uniform(*g));
            plain.submit(key(i as u32 % 3), i as u64, Priority::uniform(*g));
        }
        let mut plain_order = Vec::new();
        while let Some(exec) = plain.acquire(PhysicalTime::ZERO) {
            while let Some((m, _)) = plain.take_message(&exec) {
                plain_order.push(m);
            }
            plain.release(exec);
        }
        assert_eq!(drain(&sh), plain_order);
        assert_eq!(
            sh.stats().mailbox_drained,
            7,
            "every message came in by mail"
        );
    }

    #[test]
    fn submit_batch_matches_per_message_submit() {
        let a = sched(0);
        let b = sched(0);
        let items: Vec<(OperatorKey, u64, Priority)> = (0..40u64)
            .map(|i| (key(i as u32 % 7), i, Priority::uniform((i % 5) as i64)))
            .collect();
        for (k, m, p) in items.clone() {
            a.submit(k, m, p);
        }
        assert_eq!(b.submit_batch(items), 40);
        assert_eq!(b.len(), 40, "batch counted into the message count");
        assert_eq!(drain(&a), drain(&b), "batched == per-message order");
        let st = b.stats();
        assert_eq!(st.mailbox_drained, 40);
        assert_eq!(st.batch_publications, 1, "one publication per batch");
        assert_eq!(
            a.stats().batch_publications,
            0,
            "per-message path uncounted"
        );
    }

    #[test]
    fn submit_batch_wakes_parked_worker() {
        // Exercises the chain-publish → wake handshake specifically.
        let waited = parked_for(|sh| {
            sh.submit_batch((0..8u64).map(|i| (key(0), i, Priority::uniform(1))));
        });
        assert!(
            waited < Duration::from_secs(5),
            "parker slept through a batch submit ({waited:?})"
        );
    }

    #[test]
    fn steady_state_ingress_reuses_mailbox_buffers() {
        let sh = sched(0);
        let mut warm = 0;
        for round in 0..8u64 {
            for i in 0..32u64 {
                sh.submit(key(0), round * 32 + i, Priority::uniform(0));
            }
            assert_eq!(drain(&sh).len(), 32);
            if round == 1 {
                // The inbox and the spare have both grown.
                warm = sh.stats().node_alloc_fallback;
            }
        }
        assert!(warm > 0, "the first rounds grow the buffers");
        assert_eq!(
            sh.stats().node_alloc_fallback,
            warm,
            "drains swap the two buffers, later submits never grow them"
        );
        assert!(sh.mailbox_capacity() >= 32);
    }

    #[test]
    fn len_and_stats_aggregate_across_shards() {
        let sh = sched(0);
        for op in 0..32 {
            sh.submit(key(op), op as u64, Priority::uniform(op as i64));
        }
        assert_eq!(sh.len(), 32);
        assert!(!sh.is_empty());
        let drained = drain(&sh);
        assert_eq!(drained.len(), 32);
        assert!(sh.is_empty());
        let st = sh.stats();
        assert_eq!(st.messages_scheduled, 32);
        assert_eq!(st.operator_acquisitions, 32);
        assert_eq!(st.mailbox_drained, 32, "all ingress went via the mailbox");
        assert!(st.hint_fast_path > 0, "drain refreshes hints in O(1)");
        assert_eq!((st.steals, st.cross_shard_swaps), (0, 0));
    }

    #[test]
    fn idle_priority_work_is_still_advertised() {
        // Priority::IDLE.global == i64::MAX: token-policy overflow work
        // must remain visible to sibling wake-ups and park's fast path.
        let sh = sched(0);
        sh.submit(key(3), 7, Priority::IDLE);
        assert!(parks_briefly(&sh), "work is advertised");
        let exec = sh.acquire(0, PhysicalTime::ZERO).unwrap();
        // A second IDLE message on the leased operator: release must
        // report it as still runnable (sibling wake).
        sh.submit(key(3), 8, Priority::IDLE);
        assert_eq!(sh.take_message(&exec).unwrap().0, 7);
        assert!(sh.release(exec), "IDLE leftovers must report runnable");
        let exec = sh.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(sh.take_message(&exec).unwrap().0, 8);
        sh.release(exec);
        assert!(sh.is_empty());
    }

    #[test]
    fn retire_job_purges_across_shards_and_refuses_new_submits() {
        let sh = sched(0);
        let keep = OperatorKey::new(JobId(1), 0);
        // The doomed job's operators, plus one survivor.
        for op in 0..16u32 {
            sh.submit(key(op), op as u64, Priority::uniform(op as i64));
        }
        sh.submit(keep, 999, Priority::uniform(5));
        assert_eq!(sh.len(), 17);
        let purged = sh.retire_job(JobId(0));
        assert_eq!(purged, 16, "every queued message of the job purged");
        assert_eq!(sh.len(), 1, "survivor job untouched");
        // New submissions for the retired id are refused on both paths.
        sh.submit(key(0), 7, Priority::uniform(1));
        assert_eq!(
            sh.submit_batch((0..8u64).map(|i| (key(1), i, Priority::uniform(1)))),
            0,
            "batch for a retired job is dropped"
        );
        assert_eq!(sh.len(), 1);
        assert_eq!(drain(&sh), vec![999]);
        let st = sh.stats();
        assert_eq!(st.jobs_retired, 1);
        // The 16 purged messages split between `messages_purged` (those
        // already folded into the queue) and `retired_drops` (those
        // still in the mailbox, discarded at the retirement drain); the
        // 9 post-retirement submissions are always `retired_drops`.
        assert_eq!(st.messages_purged + st.retired_drops, 16 + 9);
        // Reinstating the id makes it schedulable again (slot reuse).
        sh.reinstate_job(JobId(0));
        sh.submit(key(0), 42, Priority::uniform(1));
        assert_eq!(drain(&sh), vec![42]);
    }

    #[test]
    fn retire_job_discards_straggler_mail_at_drain() {
        // Mail that lands *after* the retirement mark (simulating a
        // producer whose push raced the mark) must be discarded at the
        // next drain, not admitted to the queue.
        let sh = sched(0);
        sh.retire_job(JobId(0));
        // Bypass submit's ingress check: push straight into the mailbox
        // like a racing producer whose check passed pre-mark.
        sh.mailbox.push(key(3), 1u64, Priority::uniform(1));
        sh.msgs.fetch_add(1, Ordering::Relaxed);
        assert!(drain(&sh).is_empty(), "straggler mail never drains out");
        assert!(sh.is_empty());
        assert!(sh.stats().retired_drops >= 1);
    }

    #[test]
    fn retire_job_runs_held_lease_dry() {
        let sh = sched(0);
        sh.submit(key(0), 1, Priority::uniform(1));
        sh.submit(key(0), 2, Priority::uniform(2));
        let exec = sh.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(sh.take_message(&exec).unwrap().0, 1);
        // Retire while the lease is out: the remaining message vanishes
        // and the holder's next take returns None.
        assert_eq!(sh.retire_job(JobId(0)), 1);
        assert!(sh.take_message(&exec).is_none());
        sh.release(exec);
        assert!(sh.is_empty());
        assert!(sh.acquire(0, PhysicalTime::ZERO).is_none());
    }

    #[test]
    fn fingerprint_collisions_do_not_misroute_live_jobs() {
        // JobId 64 shares JobId 0's fingerprint bit (64 % 64 == 0): a
        // retired job 0 must not cause job 64's (false-positive path)
        // or job 1's (clean-bit path) submissions to be refused.
        let sh = sched(0);
        sh.retire_job(JobId(0));
        sh.submit(OperatorKey::new(JobId(64), 0), 7, Priority::uniform(1));
        sh.submit(OperatorKey::new(JobId(1), 0), 8, Priority::uniform(2));
        let mut got = drain(&sh);
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
        // And the retired id itself stays refused.
        sh.submit(key(0), 9, Priority::uniform(0));
        assert!(drain(&sh).is_empty());
    }

    #[test]
    fn small_batch_with_retired_item_does_not_deadlock() {
        // The batch filter looks a retired job up under the set mutex;
        // it must not be holding it across the submission loop
        // (regression: a cached guard across the loop self-deadlocked).
        let sh = sched(0);
        sh.retire_job(JobId(0));
        let live = OperatorKey::new(JobId(1), 0);
        let n = sh.submit_batch(vec![
            (key(0), 1u64, Priority::uniform(1)),
            (live, 2u64, Priority::uniform(1)),
        ]);
        assert_eq!(n, 1, "retired item dropped, live item submitted");
        assert_eq!(drain(&sh), vec![2]);
    }

    #[test]
    fn retirement_has_no_effect_on_other_jobs_order() {
        let a = sched(0);
        let b = sched(0);
        let keep = |op: u32| OperatorKey::new(JobId(1), op);
        for (i, g) in [9i64, 2, 7, 4].iter().enumerate() {
            a.submit(keep(i as u32), i as u64, Priority::uniform(*g));
            b.submit(keep(i as u32), i as u64, Priority::uniform(*g));
        }
        // Retiring an absent job must not perturb anything.
        b.submit(key(50), 99, Priority::uniform(0));
        b.retire_job(JobId(0));
        assert_eq!(drain(&a), drain(&b));
    }

    #[test]
    fn park_returns_when_work_is_advertised() {
        let sh = sched(0);
        sh.submit(key(0), 1, Priority::uniform(1));
        assert!(parks_briefly(&sh));
    }

    #[test]
    fn park_returns_on_undrained_mail_even_if_hint_raced() {
        // Force the hint to look empty while mail is queued: the park
        // predicate must also consult the mailbox.
        let sh = sched(0);
        sh.submit(key(0), 1, Priority::uniform(1));
        // Simulate the race where a concurrent failed acquire refreshed
        // the hint to empty just before the submit's mail landed: the
        // mailbox check alone must keep the parker awake.
        sh.tier_hint.store(NO_TIER, Ordering::SeqCst);
        assert!(!sh.mailbox.is_empty());
        assert!(parks_briefly(&sh));
        // Draining restores the hint.
        assert_eq!(drain(&sh), vec![1]);
    }

    #[test]
    fn notify_wakes_parked_thread() {
        let waited = parked_for(ShardedScheduler::notify_all);
        assert!(waited < Duration::from_secs(5), "{waited:?}");
    }

    #[test]
    fn submit_wakes_parker_without_external_notify() {
        // The submit→wake path alone (no notify_all safety net) must
        // unpark a waiting worker.
        let waited = parked_for(|sh| sh.submit(key(0), 1, Priority::uniform(1)));
        assert!(
            waited < Duration::from_secs(5),
            "parker slept through a submit wake ({waited:?})"
        );
    }

    /// A scheduler whose worker is executing a message of priority
    /// `mine` on job 0's operator 0, with `pending` submitted behind it.
    fn executing(
        mine: Priority,
        pending: &[(OperatorKey, Priority)],
    ) -> (ShardedScheduler<u64>, Execution) {
        let sh = sched(1_000_000);
        sh.submit(key(0), 0, mine);
        let exec = sh.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(sh.take_message(&exec).unwrap().1, mine);
        for (m, &(k, p)) in pending.iter().enumerate() {
            sh.submit(k, m as u64 + 1, p);
        }
        (sh, exec)
    }

    #[test]
    fn acquire_preempting_asks_decides_question_of_the_message_in_flight() {
        let op = |job, op| OperatorKey::new(JobId(job), op);
        let lax = |g| Priority::uniform(g).with_tier(17);
        let strict = |g| Priority::uniform(g).with_tier(13);
        let flat = Priority::uniform;
        /// Name, in-flight priority, pending, `now`, the lease expected.
        type Case = (
            &'static str,
            Priority,
            Vec<(OperatorKey, Priority)>,
            u64,
            Option<OperatorKey>,
        );
        #[rustfmt::skip]
        let cases: [Case; 8] = [
            ("flat tiers", flat(5_000), vec![(op(1, 0), flat(100))], 100, None),
            // A lax message aged to within a strict target of its
            // deadline still ranks first on time.
            ("stricter but does not outrank", lax(400), vec![(op(1, 0), strict(1_500))], 100, None),
            ("stricter and outranks", lax(5_000), vec![(op(1, 0), strict(1_500))], 100, Some(op(1, 0))),
            // `acquire` would hand out the peer, which is no tier up.
            ("a peer due first", lax(5_000), vec![(op(1, 0), strict(1_500)), (op(2, 0), lax(1_000))], 100, None),
            // Overdue in flight: tier order, the peer no longer counts.
            ("overdue in flight", lax(400), vec![(op(1, 0), strict(1_500)), (op(2, 0), lax(450))], 500, Some(op(1, 0))),
            ("own job", lax(5_000), vec![(op(0, 1), strict(1_500))], 100, None),
            ("own job first", lax(5_000), vec![(op(0, 1), strict(1_000)), (op(1, 0), strict(1_500))], 100, None),
            ("own job second", lax(5_000), vec![(op(1, 0), strict(1_000)), (op(0, 1), strict(1_500))], 100, Some(op(1, 0))),
        ];
        for (name, mine, pending, now, want) in &cases {
            let (sh, _exec) = executing(*mine, pending);
            let now = PhysicalTime(*now);
            let got = sh.acquire_preempting(*mine, JobId(0), now);
            assert_eq!(got.as_ref().map(|e| e.key()), *want, "{name}");
            let st = sh.stats();
            assert_eq!(st.yield_preemptions, u64::from(want.is_some()), "{name}");
            assert_eq!((st.tier_preemptions, st.quantum_swaps), (0, 0), "{name}");
            assert_eq!(
                st.overload_acquisitions,
                u64::from(want.is_some() && mine.overdue(now)),
                "{name}"
            );
            if let Some(nested) = got {
                let (_, pri) = sh.take_message(&nested).unwrap();
                assert!(pri.tier() < mine.tier(), "{name}");
                sh.release(nested);
            }
        }
    }

    #[test]
    fn acquire_preempting_refuses_and_purges_a_retired_job() {
        let lax = Priority::uniform(5_000).with_tier(17);
        let strict = |g| Priority::uniform(g).with_tier(13);
        let (gone, live) = (OperatorKey::new(JobId(1), 0), OperatorKey::new(JobId(2), 0));
        let (sh, _exec) = executing(lax, &[(gone, strict(1_000)), (live, strict(1_500))]);
        // Admitted, then marked retired before any sweep reaches it:
        // the window `retire_job` leaves between its mark and its purge.
        {
            let mut core = sh.lock();
            sh.drain_locked(&mut core, None);
        }
        sh.retired_set.lock().unwrap().insert(JobId(1));
        sh.retired_fp.fetch_or(fp_bit(JobId(1)), Ordering::SeqCst);
        let nested = sh
            .acquire_preempting(lax, JobId(0), PhysicalTime(100))
            .expect("the live strict operator");
        assert_eq!(nested.key(), live);
        let st = sh.stats();
        assert_eq!((st.messages_purged, st.yield_preemptions), (1, 1));
        assert_eq!(sh.len(), 1, "only the live strict message is left");
    }

    #[test]
    fn a_lone_shard_keeps_its_tier_hint_for_yield_points() {
        let sh = sched(1_000);
        assert!(!sh.stricter_tier_waiting(17), "empty pool");
        sh.submit(key(0), 0, Priority::uniform(5_000).with_tier(17));
        assert!(!sh.stricter_tier_waiting(17), "same tier");
        sh.submit(key(1), 1, Priority::uniform(9_000).with_tier(13));
        assert!(sh.stricter_tier_waiting(17), "lowered at submit, lock-free");
        assert!(!sh.stricter_tier_waiting(13));
        drain(&sh);
        assert!(!sh.stricter_tier_waiting(17), "refreshed at drain");
    }
}
