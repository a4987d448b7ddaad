//! The sharded scheduler: N independent [`CameoScheduler`] shards
//! behind per-shard locks, fed by per-shard submission mailboxes, with
//! urgency-aware work stealing.
//!
//! The paper's scheduler is *stateless* precisely so one instance can
//! serve any number of jobs with negligible overhead (§5.2, Fig 12) —
//! but a single instance behind a single mutex serializes every
//! `submit`/`acquire`/`decide`/`release` across all workers. This
//! module removes that global lock while keeping the paper's semantics
//! per operator:
//!
//! * **Ingress off the shard lock.** `submit` never takes a shard
//!   lock: the message lands in the shard's [`Mailbox`] (a push under
//!   the mailbox's own inbox lock), the shard's best-priority hint is
//!   lowered with a CAS when the new message beats it, and a parked
//!   worker is woken if one exists. Workers *drain* the mailbox into
//!   the shard's two-level queue under the lock they already hold at
//!   every acquire/take/decide/release boundary, in submission order,
//!   by swapping the inbox for a spare buffer kept under that lock. A
//!   bursty submitter therefore never blocks the worker dispatching
//!   from that shard — ingress and compute are
//!   decoupled the way Muppet decouples update hashing from workers,
//!   which is what lets fine-grained scheduling stay off the critical
//!   path. The mailbox is the only way in: there is no locked submit.
//! * **Cheap hint maintenance.** The two-level queue keeps exactly one
//!   run-index entry per runnable operator (exact removal, nothing
//!   stale to skip), so both the per-message refresh during a drain
//!   and the peek-based refresh after acquire/release read the queue's
//!   best directly; [`SchedulerStats::hint_fast_path`] counts the
//!   submissions that did not move the best backwards.
//! * **Placement.** Every operator hashes to one shard for its whole
//!   life ([`ShardedScheduler::shard_of`]), so all messages of one
//!   operator live in one two-level queue: lease exclusivity and
//!   per-operator FIFO/priority order are exactly the single-queue
//!   semantics — sharding only relaxes ordering *between* operators on
//!   different shards.
//! * **Affinity + stealing.** Each worker has a *home* shard it drains
//!   by default. On acquire, a worker compares its home shard's best
//!   available priority against every other shard's (a lock-free scan
//!   of per-shard atomic hints) and steals the globally most urgent
//!   operator when the home shard is idle or strictly less urgent by
//!   more than [`SchedulerConfig::steal_threshold`]. With threshold
//!   zero, a single-threaded drain visits operators in exactly the
//!   single-queue urgency order, up to ties between equal global
//!   priorities on different shards (see `tests/scheduler_comparison.rs`).
//! * **Swaps across shards.** [`ShardedScheduler::decide`] also
//!   compares the in-hand operator's next message against other shards'
//!   hints, so a worker parked on a cold shard cannot monopolize itself
//!   while a hot shard backs up. The quantum means what it means inside
//!   a shard: past it any better-ranked operator elsewhere takes the
//!   worker, before it only one in a stricter latency tier (read off
//!   the tier hint below) that the steal rule would send this worker
//!   to next — the quantum amortises a lease over peers. Before the
//!   quantum the hints are read only while the pool has ever advertised
//!   a tier stricter than the lease's: a flat-tier pool pays one load.
//! * **Preemption inside a message.** An operator that calls a yield
//!   point lets the worker ask the same question of the message it is
//!   executing ([`ShardedScheduler::acquire_preempting`]): a stricter
//!   tier that outranks it runs nested, on the worker's stack. The tier
//!   hints answer "nothing stricter is waiting" without the lock, so
//!   every shard keeps them, a lone one included.
//! * **One rank everywhere.** Operators are ranked by
//!   [`Priority::rank`]: by start deadline while every runnable head in
//!   the pool can still start in time, by `(tier, deadline)` once one
//!   cannot. Each shard therefore advertises *two* hints — `best`, the
//!   earliest start deadline (it says whether the pool is overloaded,
//!   and orders shards while it is not), and `best_by_tier`, the packed
//!   `(tier, deadline)` of the operator the shard would hand out under
//!   overload (it orders shards while it is). The steal pick, the
//!   cross-shard swap and each shard's own queue all apply the
//!   same rule to the same pool-wide overload verdict, so a worker
//!   draining an overdue lax backlog on one shard still yields to an
//!   on-time strict operator on another.
//! * **Starvation clamp.** The §6.3 starvation guard is enforced by
//!   each shard's own `CameoScheduler` using that shard's latest
//!   observed time. Mailbox messages are clamped when they are
//!   *drained* (slightly later than their submission instant); the
//!   clamp is a *bound*, and a later `now` only tightens it, so the
//!   guard stays safe.
//!
//! Hints are advisory: submissions lower them with a CAS, drains
//! recompute them exactly under the shard lock, and a reader may act on
//! a stale value in between. Correctness never depends on them —
//! acquisition always re-validates under the shard lock, falling back
//! to a sweep over all shards (which also drains every mailbox it
//! passes) — only the quality of the urgency approximation does.
//!
//! ## The park/wake handshake
//!
//! With ingress off the lock, waking a parked worker can no longer
//! piggyback on mutex ordering, so parking runs a Dekker-style
//! handshake against a dedicated per-shard park mutex (deliberately
//! *not* the scheduler mutex — wakers must never contend with drains):
//!
//! 1. the parker bumps the shard's `parked` count, takes the park lock,
//!    and re-checks every shard's hint *and* mailbox before sleeping;
//! 2. the waker publishes work (mailbox push or hint store), then — in
//!    that order — checks `parked` and, if nonzero, locks/unlocks the
//!    park mutex before notifying.
//!
//! Sequential consistency between the publish and the `parked` read
//! (SeqCst atomics plus fences on the slow paths) guarantees at least
//! one side sees the other: either the parker's re-check observes the
//! work, or the waker observes `parked > 0` and its notify is
//! serialized by the park lock to land after the parker starts
//! waiting. `tests/mailbox_stress.rs` hammers exactly this window.

use crate::config::SchedulerConfig;
use crate::ids::{JobId, OperatorKey};
use crate::mailbox::{Mail, MailChain, Mailbox};
use crate::priority::{deadline_to_priority, Priority};
use crate::scheduler::{CameoScheduler, Decision, Execution, SchedulerStats};
use crate::time::{Micros, PhysicalTime};
use std::collections::HashSet;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Hint value meaning "no available operator on this shard".
///
/// `i64::MAX` is also `Priority::IDLE.global` (token-policy overflow
/// work), so real priorities are clamped to [`LEAST_URGENT_HINT`]
/// before being stored — a shard whose only work is IDLE-priority must
/// still advertise itself as non-empty, or releases would skip the
/// sibling wake and stealing would never reach it.
const EMPTY_HINT: i64 = i64::MAX;

/// The least urgent hint a non-empty shard can advertise.
const LEAST_URGENT_HINT: i64 = i64::MAX - 1;

/// Clamp a priority into storable hint space.
#[inline]
fn hint_of(pri: Priority) -> i64 {
    pri.global.min(LEAST_URGENT_HINT)
}

/// `best_by_tier` value meaning "no available operator on this shard".
const EMPTY_RANK: u64 = u64::MAX;

/// Bits of a packed rank hint that hold the (biased) start deadline;
/// the six above them hold the tier.
const RANK_DEADLINE_BITS: u32 = 58;

/// Half the deadline range of a packed rank hint: ±2^57 µs is ±4 500
/// years around the clock's origin, beyond any start deadline; only
/// synthetic extremes (`URGENT`, `IDLE`) saturate, as `IDLE` already
/// does in [`hint_of`].
const RANK_DEADLINE_HALF: i64 = 1 << (RANK_DEADLINE_BITS - 1);

/// Pack a priority's overload rank `(tier, global)` into one word whose
/// integer order is rank order, so submitters can lower a shard's hint
/// with a single CAS. The deadline saturates one short of the top so
/// that no real rank equals [`EMPTY_RANK`].
#[inline]
fn pack_rank(pri: Priority) -> u64 {
    let g = pri
        .global
        .clamp(-RANK_DEADLINE_HALF, RANK_DEADLINE_HALF - 2);
    ((pri.tier() as u64) << RANK_DEADLINE_BITS) | (g + RANK_DEADLINE_HALF) as u64
}

/// Inverse of [`pack_rank`]; [`EMPTY_RANK`] unpacks to [`NO_RANK`].
#[inline]
fn unpack_rank(packed: u64) -> (u8, i64) {
    if packed == EMPTY_RANK {
        return NO_RANK;
    }
    let biased = packed & ((1 << RANK_DEADLINE_BITS) - 1);
    (
        (packed >> RANK_DEADLINE_BITS) as u8,
        biased as i64 - RANK_DEADLINE_HALF,
    )
}

/// The rank of an empty shard: nothing real ranks behind it.
const NO_RANK: (u8, i64) = (u8::MAX, EMPTY_HINT);

/// `theirs` outranks `mine` by more than the steal `slack`. The slack
/// is in deadline units, so it only ever separates peers: a stricter
/// tier wins outright.
#[inline]
fn outranks(theirs: (u8, i64), mine: (u8, i64), slack: i64) -> bool {
    theirs.0 < mine.0 || (theirs.0 == mine.0 && theirs.1.saturating_add(slack) < mine.1)
}

/// Cache-line aligned so neighboring shards' hot fields (the lock word,
/// the mailbox and the hint atomics, written on every operation)
/// never share a line — cross-shard traffic should be limited to the
/// intentional hint reads of the steal scan.
#[repr(align(128))]
struct Shard<M> {
    /// The shard's scheduler; holding this lock is what "under the
    /// shard lock" means throughout.
    core: Mutex<ShardCore<M>>,
    /// Ingress: `submit` pushes here, workers drain under the core lock
    /// at acquire/take/decide/release boundaries.
    mailbox: Mailbox<M>,
    /// Workers homed to this shard park here when the whole scheduler
    /// looks idle; `submit` wakes the target shard.
    cv: Condvar,
    /// Mutex paired with `cv`. Deliberately separate from `core`: a
    /// waker takes this (briefly, empty critical section) to serialize
    /// with a parker's predicate re-check, without ever contending with
    /// the drain path.
    park: Mutex<()>,
    /// Number of workers inside [`ShardedScheduler::park`] on this
    /// shard. Wakers skip the park lock entirely while this is zero.
    parked: AtomicUsize,
    /// Global priority of the shard's most urgent *available* operator
    /// (`EMPTY_HINT` when none). Lowered by submitters with a CAS
    /// (never raised), recomputed exactly under the shard lock at every
    /// drain; concurrent readers may see a stale value and must
    /// re-validate after locking.
    best: AtomicI64,
    /// Packed `(tier, global)` of the operator this shard would hand
    /// out under overload ([`EMPTY_RANK`] when none); maintained exactly
    /// like `best`.
    best_by_tier: AtomicU64,
    /// Pending message count across mailbox + queue. Every submit
    /// path counts a message *before* publishing it, so the
    /// gauge never reads below what a drain can take out (no wrap, no
    /// "empty" with mail in flight); it may transiently read high.
    /// Readers still sum the shards as signed and clamp at zero
    /// ([`len`](ShardedScheduler::len)): a gauge must not be able to
    /// read as `usize::MAX`, whatever the interleaving.
    msgs: AtomicUsize,
}

/// What the shard lock guards: the scheduler, and the spare buffer a
/// drain swaps with the mailbox's inbox. Derefs to the scheduler.
struct ShardCore<M> {
    sched: CameoScheduler<M>,
    /// Empty between drains; keeps its capacity, so the inbox and the
    /// spare alternate without reallocating.
    spare: Vec<Mail<M>>,
}

impl<M> Deref for ShardCore<M> {
    type Target = CameoScheduler<M>;
    fn deref(&self) -> &CameoScheduler<M> {
        &self.sched
    }
}

impl<M> DerefMut for ShardCore<M> {
    fn deref_mut(&mut self) -> &mut CameoScheduler<M> {
        &mut self.sched
    }
}

/// Outcome of a [`ShardedScheduler::submit`].
#[derive(Clone, Copy, Debug)]
pub struct Submission {
    /// Shard the message landed on.
    pub shard: usize,
    /// The submitted priority improved the shard's advertised
    /// best-priority hint. Parked workers are woken by `submit` itself
    /// either way; this is informational.
    pub hint_improved: bool,
}

/// An acquired operator plus the shard it came from.
#[derive(Debug)]
pub struct ShardExecution {
    shard: usize,
    /// The shard the worker holding the lease is homed on: where its
    /// next `acquire` starts from.
    home: usize,
    exec: Execution,
}

impl ShardExecution {
    /// The leased operator.
    pub fn key(&self) -> OperatorKey {
        self.exec.key()
    }

    /// The shard the lease came from (home or steal victim).
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// When the lease was checked out (quantum accounting starts here).
    pub fn acquired_at(&self) -> PhysicalTime {
        self.exec.acquired_at()
    }
}

/// Where [`ShardedScheduler::acquire`] looks first, and under which
/// order it chose.
#[derive(Clone, Copy)]
struct ShardPick {
    shard: usize,
    /// Some shard advertised an overdue head: shards were ranked in
    /// tier order, and the chosen shard ranks its operators that way.
    overloaded: bool,
    /// Tier order chose a different shard than deadline order would.
    overtook: bool,
}

/// N independent Cameo schedulers with per-shard submission mailboxes
/// and urgency-aware work stealing.
///
/// All methods take `&self`; the per-shard locks live inside. The type
/// is `Sync` for `M: Send`, so runtimes share it via `Arc` without an
/// outer lock.
pub struct ShardedScheduler<M> {
    shards: Vec<Shard<M>>,
    quantum: Micros,
    /// Steal slack in priority units, fixed at construction from
    /// [`SchedulerConfig::steal_threshold`].
    steal_threshold: i64,
    steals: AtomicU64,
    cross_swaps: AtomicU64,
    /// Swaps before the quantum to a stricter-tier operator on another
    /// shard; folded into `tier_preemptions`.
    cross_preemptions: AtomicU64,
    /// Leases handed out by [`acquire_preempting`](Self::acquire_preempting).
    yield_preemptions: AtomicU64,
    /// The strictest latency tier any shard has ever advertised in its
    /// `best_by_tier` hint (never raised; `u8::MAX` until the first
    /// one). A lease at or below it cannot be preempted across tiers,
    /// so [`decide`](Self::decide) reads this one word before the
    /// quantum instead of scanning hints — always, in a flat-tier pool.
    strictest_tier: AtomicU8,
    /// Leases where tier order sent the worker to a different *shard*
    /// than deadline order would have (and the shard's own pick did not
    /// already count an overtake); folded into `tier_overtakes`.
    shard_overtakes: AtomicU64,
    mailbox_drained: AtomicU64,
    /// Chain publications by `submit_batch` (one per shard per batch);
    /// audits the one-publication-per-shard amortization. Counted only
    /// on the batch path — per-message `submit` stays free of extra
    /// RMWs.
    batch_pubs: AtomicU64,
    /// Jobs currently retired: their messages are refused at ingress
    /// and dropped at mailbox drain, and their operators are never
    /// leased. Populated by [`retire_job`](Self::retire_job), cleared
    /// per job by [`reinstate_job`](Self::reinstate_job) when a runtime
    /// reuses the job id. Lock ordering: this mutex may be taken while
    /// a shard core lock is held (drain-time checks), never the other
    /// way around.
    retired: Mutex<HashSet<JobId>>,
    /// 64-bit membership fingerprint over `retired` (bit `slot % 64`).
    /// Submit-side checks test one bit before touching the set mutex,
    /// so ingress for *live* jobs stays lock-free even while other
    /// slots sit retired indefinitely (a tenant scaled down without a
    /// replacement). A false positive (two slots colliding mod 64)
    /// just pays the mutex; correctness never depends on the bit.
    retired_fp: AtomicU64,
    jobs_retired: AtomicU64,
    retired_drops: AtomicU64,
}

/// The fingerprint bit for a job slot.
#[inline]
fn fp_bit(job: JobId) -> u64 {
    1u64 << (job.0 % 64)
}

/// Fibonacci mix of a packed operator key. The high bits carry the
/// most mixing; placement derives from them.
#[inline]
fn mix(key: OperatorKey) -> u64 {
    let packed = ((key.job.0 as u64) << 32) | key.op as u64;
    packed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl<M> ShardedScheduler<M> {
    /// Build with `config.effective_shards()` shards; every shard runs
    /// an identical `CameoScheduler` (same quantum and starvation
    /// limit).
    pub fn new(config: SchedulerConfig) -> Self {
        let n = config.effective_shards();
        ShardedScheduler {
            shards: (0..n)
                .map(|_| Shard {
                    core: Mutex::new(ShardCore {
                        sched: CameoScheduler::new(config),
                        spare: Vec::new(),
                    }),
                    mailbox: Mailbox::new(),
                    cv: Condvar::new(),
                    park: Mutex::new(()),
                    parked: AtomicUsize::new(0),
                    best: AtomicI64::new(EMPTY_HINT),
                    best_by_tier: AtomicU64::new(EMPTY_RANK),
                    msgs: AtomicUsize::new(0),
                })
                .collect(),
            quantum: config.quantum,
            steal_threshold: config.steal_threshold.0.min(i64::MAX as u64) as i64,
            steals: AtomicU64::new(0),
            cross_swaps: AtomicU64::new(0),
            cross_preemptions: AtomicU64::new(0),
            yield_preemptions: AtomicU64::new(0),
            strictest_tier: AtomicU8::new(u8::MAX),
            shard_overtakes: AtomicU64::new(0),
            mailbox_drained: AtomicU64::new(0),
            batch_pubs: AtomicU64::new(0),
            retired: Mutex::new(HashSet::new()),
            retired_fp: AtomicU64::new(0),
            jobs_retired: AtomicU64::new(0),
            retired_drops: AtomicU64::new(0),
        }
    }

    /// Lock-free pre-filter: false means `job` is definitely not
    /// retired (the overwhelmingly common case on ingress, one load +
    /// one AND); true means "check the set". The fingerprint is stored
    /// before the retirement fence, so any submitter ordered after the
    /// mark sees the bit.
    #[inline]
    fn maybe_retired(&self, job: JobId) -> bool {
        self.retired_fp.load(Ordering::SeqCst) & fp_bit(job) != 0
    }

    /// True when `job` is currently retired. Callers should gate on
    /// [`maybe_retired`](Self::maybe_retired) first to keep the set
    /// lock off the hot path.
    fn is_retired(&self, job: JobId) -> bool {
        self.retired
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .contains(&job)
    }

    /// Number of shards in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The scheduling quantum every shard runs under.
    pub fn quantum(&self) -> Micros {
        self.quantum
    }

    /// Operator→shard placement. Deterministic (Fibonacci hashing of
    /// the packed key; *not* `RandomState`), so placement is stable
    /// across runs and processes.
    #[inline]
    pub fn shard_of(&self, key: OperatorKey) -> usize {
        // Range reduction is a multiply-shift (Lemire) rather than `%`:
        // an integer divide costs tens of cycles and sits on every
        // submit. With one shard this is always 0, so single-shard
        // placement is unchanged.
        (((mix(key) >> 32) * self.shards.len() as u64) >> 32) as usize
    }

    fn lock(&self, s: usize) -> MutexGuard<'_, ShardCore<M>> {
        // A worker panicking inside scheduler code must not wedge the
        // other workers: recover the guard, matching parking_lot
        // semantics.
        self.shards[s]
            .core
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Move everything the mailbox holds into the shard's two-level
    /// queue, in submission order: swap the inbox for the shard's spare
    /// buffer, then replay the spare. Must be called with the shard
    /// lock held (the `core` borrow proves it).
    ///
    /// Retired jobs' mail is dropped instead of admitted (zero happens
    /// outside churn windows). The return value counts those drops —
    /// all of them when `count_job` is `None`, or only the named job's
    /// when `Some` (so `retire_job` can attribute its purge total to
    /// the job actually being retired, not to other concurrently
    /// retiring jobs' stragglers swept up in the same drain).
    fn drain_locked(&self, s: usize, core: &mut ShardCore<M>, count_job: Option<JobId>) -> usize {
        let sh = &self.shards[s];
        if sh.mailbox.is_empty() {
            return 0;
        }
        let ShardCore { sched, spare } = core;
        sh.mailbox.swap(spare);
        let drained = spare.len();
        let fp = self.retired_fp.load(Ordering::SeqCst);
        if fp == 0 {
            for mail in spare.drain(..) {
                sched.submit(mail.key, mail.msg, mail.pri);
            }
            self.mailbox_drained
                .fetch_add(drained as u64, Ordering::Relaxed);
            return 0;
        }
        // Straggler mail for retired jobs (a producer's push that raced
        // the retirement mark) is discarded here, so a retired job's
        // messages can never re-enter a queue. Per-mail fingerprint
        // test first; the set mutex is taken lazily on the first bit
        // hit, so live jobs' mail drains lock-free even while other
        // slots sit retired.
        let mut retired: Option<MutexGuard<'_, HashSet<JobId>>> = None;
        let mut dropped = 0usize;
        let mut counted = 0usize;
        for mail in spare.drain(..) {
            if fp & fp_bit(mail.key.job) != 0 {
                let set = retired
                    .get_or_insert_with(|| self.retired.lock().unwrap_or_else(|p| p.into_inner()));
                if set.contains(&mail.key.job) {
                    dropped += 1;
                    if count_job.is_none_or(|j| j == mail.key.job) {
                        counted += 1;
                    }
                    continue;
                }
            }
            sched.submit(mail.key, mail.msg, mail.pri);
        }
        drop(retired);
        if dropped > 0 {
            self.retired_drops
                .fetch_add(dropped as u64, Ordering::Relaxed);
            sh.msgs.fetch_sub(dropped, Ordering::Relaxed);
        }
        self.mailbox_drained
            .fetch_add((drained - dropped) as u64, Ordering::Relaxed);
        counted
    }

    /// Recompute a shard's two hints exactly (the run index answers
    /// both orders directly). Must be called with the shard lock held.
    /// Stores are skipped when nothing changed to keep the line clean
    /// for the steal scans of other workers.
    fn refresh_hint(&self, s: usize, core: &CameoScheduler<M>) {
        let hint = core
            .peek_best()
            .map(|(_, p)| hint_of(p))
            .unwrap_or(EMPTY_HINT);
        let best = &self.shards[s].best;
        if best.load(Ordering::Relaxed) != hint {
            best.store(hint, Ordering::SeqCst);
        }
        // Kept on a lone shard too: a yield point reads it to learn,
        // without the lock, whether a stricter tier is waiting.
        let rank = core
            .peek_best_by_tier()
            .map(pack_rank)
            .unwrap_or(EMPTY_RANK);
        let best_by_tier = &self.shards[s].best_by_tier;
        if best_by_tier.load(Ordering::Relaxed) != rank {
            best_by_tier.store(rank, Ordering::SeqCst);
            self.note_tier(rank);
        }
    }

    /// Fold a newly advertised tier hint into
    /// [`strictest_tier`](Self::strictest_tier). Every value a shard's
    /// `best_by_tier` takes passes through here, and almost none lowers
    /// the pool's: the common case is one load of a read-mostly word.
    fn note_tier(&self, rank: u64) {
        let tier = (rank >> RANK_DEADLINE_BITS) as u8;
        if tier < self.strictest_tier.load(Ordering::Relaxed) {
            self.strictest_tier.fetch_min(tier, Ordering::Relaxed);
        }
    }

    /// Lower a shard's hints to `hint` / `rank` where they improve on
    /// the current values (lock-free; used by `submit`). Returns
    /// whether the deadline hint improved.
    fn lower_hint(&self, s: usize, hint: i64, rank: u64) -> bool {
        let best_by_tier = &self.shards[s].best_by_tier;
        if rank < best_by_tier.load(Ordering::Relaxed) {
            best_by_tier.fetch_min(rank, Ordering::SeqCst);
            self.note_tier(rank);
        }
        let best = &self.shards[s].best;
        let mut cur = best.load(Ordering::Relaxed);
        while hint < cur {
            match best.compare_exchange_weak(cur, hint, Ordering::SeqCst, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
        false
    }

    /// Submit a message for `key`. The shard is derived from the key;
    /// the caller learns which shard it landed on. Parked workers are
    /// woken internally — callers no longer need to pair `submit` with
    /// [`notify_shard`](Self::notify_shard).
    ///
    /// The shard mutex is never touched: a push under the mailbox's
    /// inbox lock, a downward hint CAS when the message improves the
    /// shard's best, and a wake check. A bursty submitter therefore
    /// cannot block the worker dispatching from the same shard.
    pub fn submit(&self, key: OperatorKey, msg: M, pri: Priority) -> Submission {
        let s = self.shard_of(key);
        if self.maybe_retired(key.job) && self.is_retired(key.job) {
            self.retired_drops.fetch_add(1, Ordering::Relaxed);
            return Submission {
                shard: s,
                hint_improved: false,
            };
        }
        let sh = &self.shards[s];
        // Count, then publish: a drain that takes this message out
        // subtracts strictly after the add, so `msgs` never wraps and
        // never reads zero while the mail is in flight.
        sh.msgs.fetch_add(1, Ordering::Relaxed);
        sh.mailbox.push(key, msg, pri);
        let hint_improved = self.lower_hint(s, hint_of(pri), pack_rank(pri));
        // The push stored the mailbox's queued flag with SeqCst, so it
        // is ordered before this parked read in the SC total order —
        // the handshake the module docs describe.
        self.wake_one(s);
        Submission {
            shard: s,
            hint_improved,
        }
    }

    /// Submit a whole batch of messages, grouped by shard: each shard
    /// touched by the batch pays **one** mailbox publication (the chain
    /// is appended atomically, in iteration order), one downward hint
    /// CAS, and one wake — instead of per-message traffic. Each call
    /// allocates one chain buffer per touched shard (plus a per-shard
    /// table when there is more than one shard).
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
        // Retirements exist somewhere: filter per item through the
        // fingerprint, consulting the set only on a bit hit — batches
        // of live jobs stay lock-free and allocation-free even while
        // other slots sit retired indefinitely. Verdicts are memoized
        // per distinct job, so a fingerprint collision costs one set
        // lookup per job per batch, not one per message. Each lookup
        // takes the set mutex *briefly and on its own* (`is_retired`),
        // never held across the submission loop the filter runs in.
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
        // Single-shard fast path (the simulator's default dispatcher and
        // any 1-shard runtime): no per-item placement or chain-table
        // lookup. It pays in `cameo_benchmark`'s traced
        // `shard.submit_batch_ns_per_msg` cell (256-message batches, one
        // shard, 2 vCPUs): 3.5 / 3.7 / 3.5 ns per message with it, 5.2 /
        // 7.1 / 5.3 ns through the general path below.
        if self.shards.len() == 1 {
            let sh = &self.shards[0];
            let mut chain = sh.mailbox.chain(items.size_hint().0);
            // Track the raw minimum and clamp once: `hint_of` is a
            // monotone clamp, so min-then-clamp == clamp-then-min.
            let mut min_pri = EMPTY_HINT;
            let mut min_rank = EMPTY_RANK;
            for (key, msg, pri) in items {
                min_pri = min_pri.min(pri.global);
                min_rank = min_rank.min(pack_rank(pri));
                chain.add(key, msg, pri);
            }
            let n = chain.len();
            if n > 0 {
                sh.msgs.fetch_add(n, Ordering::Relaxed);
                chain.publish();
                self.batch_pubs.fetch_add(1, Ordering::Relaxed);
                self.lower_hint(0, min_pri.min(LEAST_URGENT_HINT), min_rank);
                self.wake_one(0);
            }
            return n;
        }
        // Per-shard chain plus the batch's best (lowest) hints. Each
        // chain is sized for an even split of the batch.
        let per_shard = items.size_hint().0.div_ceil(self.shards.len());
        let mut chains: Vec<Option<(MailChain<'_, M>, i64, u64)>> =
            (0..self.shards.len()).map(|_| None).collect();
        let mut total = 0usize;
        for (key, msg, pri) in items {
            let s = self.shard_of(key);
            let (chain, min_hint, min_rank) = chains[s].get_or_insert_with(|| {
                (
                    self.shards[s].mailbox.chain(per_shard),
                    EMPTY_HINT,
                    EMPTY_RANK,
                )
            });
            chain.add(key, msg, pri);
            *min_hint = (*min_hint).min(hint_of(pri));
            *min_rank = (*min_rank).min(pack_rank(pri));
            total += 1;
        }
        for (s, entry) in chains.into_iter().enumerate() {
            let Some((chain, min_hint, min_rank)) = entry else {
                continue;
            };
            self.shards[s]
                .msgs
                .fetch_add(chain.len(), Ordering::Relaxed);
            chain.publish();
            self.batch_pubs.fetch_add(1, Ordering::Relaxed);
            self.lower_hint(s, min_hint, min_rank);
            // The publish stored the queued flag with SeqCst, ordering it
            // before wake_one's parked read — same handshake as the
            // single-submit path.
            self.wake_one(s);
        }
        total
    }

    fn try_acquire_at(
        &self,
        s: usize,
        home: usize,
        now: PhysicalTime,
        pool_overdue: bool,
    ) -> Option<ShardExecution> {
        let mut core = self.lock(s);
        self.drain_locked(s, &mut core, None);
        let exec = loop {
            let Some(exec) = core.acquire_in(now, pool_overdue) else {
                break None;
            };
            // Refuse leases on retired jobs' operators: purge whatever
            // the retirement sweep has not reached on this shard yet and
            // try the next most urgent operator instead. The purge is
            // counted once, as `messages_purged` (inside `retire`) —
            // not also as `retired_drops` — keeping the two counters
            // disjoint.
            if self.maybe_retired(exec.key().job) && self.is_retired(exec.key().job) {
                let purged = core.retire(exec.key().job);
                if purged > 0 {
                    self.shards[s].msgs.fetch_sub(purged, Ordering::Relaxed);
                }
                core.release(exec);
                continue;
            }
            break Some(exec);
        };
        // Refresh even on failure: a failed sweep must settle every
        // hint to EMPTY so park's fast path stops spinning.
        self.refresh_hint(s, &core);
        exec.map(|exec| ShardExecution {
            shard: s,
            home,
            exec,
        })
    }

    /// Check out the most urgent operator for a worker homed on shard
    /// `home`: the home shard unless another shard's best available
    /// operator outranks home's by more than the steal threshold (or
    /// the home shard is idle), in which case the worker steals from
    /// the best-ranked shard. "Ranks" is [`Priority::rank`] over the
    /// whole pool: by start deadline while no shard advertises one that
    /// has passed at `now`, by `(tier, deadline)` once one does — and
    /// the shard that is picked then orders its own operators the same
    /// way. Hints may be stale, so a failed first choice falls back to
    /// sweeping every shard from `home` (draining each shard's mailbox
    /// along the way).
    pub fn acquire(&self, home: usize, now: PhysicalTime) -> Option<ShardExecution> {
        let n = self.shards.len();
        let home = home % n;
        let pick = if n == 1 {
            // One shard: its queue sees every operator and decides for
            // itself whether it is overloaded.
            ShardPick {
                shard: home,
                overloaded: false,
                overtook: false,
            }
        } else {
            self.pick_stable(home, now)
        };
        let exec = self
            .try_acquire_at(pick.shard, home, now, pick.overloaded)
            .or_else(|| {
                (1..n).find_map(|off| {
                    self.try_acquire_at((pick.shard + off) % n, home, now, pick.overloaded)
                })
            })?;
        if exec.shard != home {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        if pick.overtook && exec.shard == pick.shard && !exec.exec.overtook() {
            self.shard_overtakes.fetch_add(1, Ordering::Relaxed);
        }
        Some(exec)
    }

    /// Pick a steal target whose hint is *exact*, not merely a bound.
    ///
    /// Submit-side hint CASes only lower a shard's hint toward the
    /// submitted priority, but a mailboxed message need not become its
    /// operator's head (local priority chooses the head), so a shard
    /// with undrained mail may advertise itself as more urgent than it
    /// really is. Steal decisions based on such a bound would break the
    /// zero-threshold drain-order property. So: whenever the picked
    /// shard still has undrained mail, drain it (which makes its hint
    /// exact), re-pick, and repeat until the pick is stable. Each
    /// iteration empties one shard's mailbox, so single-threaded this
    /// converges within one pass; the cap keeps adversarial concurrent
    /// submit storms from livelocking the picker (hints are advisory
    /// there anyway — `try_acquire_at` re-validates under the lock).
    fn pick_stable(&self, home: usize, now: PhysicalTime) -> ShardPick {
        let mut pick = self.pick_shard(home, now);
        for _ in 0..self.shards.len() {
            if self.shards[pick.shard].mailbox.is_empty() {
                return pick;
            }
            {
                let mut core = self.lock(pick.shard);
                self.drain_locked(pick.shard, &mut core, None);
                self.refresh_hint(pick.shard, &core);
            }
            let repick = self.pick_shard(home, now);
            if repick.shard == pick.shard {
                return repick;
            }
            pick = repick;
        }
        pick
    }

    /// The rank shard `s` advertises: its earliest start deadline, or
    /// under overload the `(tier, deadline)` of its strictest operator.
    fn advertised(&self, s: usize, overloaded: bool) -> (u8, i64) {
        let sh = &self.shards[s];
        if overloaded {
            unpack_rank(sh.best_by_tier.load(Ordering::Acquire))
        } else {
            (0, sh.best.load(Ordering::Acquire))
        }
    }

    /// The best-ranked shard other than `skip` (lowest index on ties,
    /// `skip` itself when every other shard is empty) and its rank.
    fn best_other(&self, skip: usize, overloaded: bool) -> (usize, (u8, i64)) {
        let mut best = (skip, NO_RANK);
        for s in (0..self.shards.len()).filter(|&s| s != skip) {
            let rank = self.advertised(s, overloaded);
            if rank.1 != EMPTY_HINT && rank < best.1 {
                best = (s, rank);
            }
        }
        best
    }

    /// The steal rule: home, unless some other shard outranks home's
    /// best by more than the threshold. Ties always favor home (and,
    /// among other shards, the lowest index), keeping the choice
    /// deterministic for the drain-order property tests. Applied under
    /// the pool's current order; reports whether tier order sent the
    /// worker somewhere deadline order would not have.
    fn pick_shard(&self, home: usize, now: PhysicalTime) -> ShardPick {
        let target = |overloaded: bool| {
            let mine = self.advertised(home, overloaded);
            let (victim, theirs) = self.best_other(home, overloaded);
            let target = if outranks(theirs, mine, self.steal_threshold) {
                victim
            } else {
                home
            };
            (target, theirs.min(mine))
        };
        // In deadline order a rank is a bare deadline, so the best one
        // seen is the pool's earliest: is anyone overdue?
        let (by_deadline, earliest) = target(false);
        if earliest.1 >= deadline_to_priority(now.0) {
            return ShardPick {
                shard: by_deadline,
                overloaded: false,
                overtook: false,
            };
        }
        let (shard, _) = target(true);
        ShardPick {
            shard,
            overloaded: true,
            overtook: shard != by_deadline,
        }
    }

    /// Take the next message of the acquired operator. Drains the
    /// shard's mailbox first, so messages submitted while the operator
    /// is held are visible to the holder.
    pub fn take_message(&self, exec: &ShardExecution) -> Option<(M, Priority)> {
        let mut core = self.lock(exec.shard);
        self.drain_locked(exec.shard, &mut core, None);
        let out = core.take_message(&exec.exec);
        if out.is_some() {
            self.shards[exec.shard].msgs.fetch_sub(1, Ordering::Relaxed);
        }
        self.refresh_hint(exec.shard, &core);
        out
    }

    /// Decide what to do after finishing a message: the shard's own
    /// logic first; if it says Continue, other shards' hints get a vote
    /// too, so in-hand work yields to a strictly better-ranked operator
    /// anywhere in the system — by the same [`Priority::rank`], the
    /// same pool-wide overload verdict as [`acquire`](Self::acquire),
    /// and the same quantum rule as
    /// [`CameoScheduler::decide`]: past the quantum to any operator
    /// that outranks the one in hand, before it only to one that is
    /// also in a stricter tier and that `acquire` hands this worker
    /// next.
    ///
    /// Before the quantum the other shards are consulted only while
    /// the pool has ever advertised a tier stricter than the one the
    /// lease was checked out in (policies stamp one tier per job, so
    /// that is the tier of its next message too; where a hand-built
    /// operator mixes tiers, a stale answer only defers the swap to the
    /// quantum). A flat-tier pool, or a lease in the pool's strictest
    /// tier, therefore pays one load and no hint scan per message.
    pub fn decide(&self, exec: &ShardExecution, now: PhysicalTime) -> Decision {
        let past_quantum = now.since(exec.acquired_at()) >= self.quantum;
        let sharded = self.shards.len() > 1
            && (past_quantum || self.strictest_tier.load(Ordering::Relaxed) < exec.exec.tier());
        // The other shards' earliest deadline, and whether it or this
        // shard's own has passed: the pool is overloaded.
        let (mut victim, mut theirs) = if sharded {
            self.best_other(exec.shard, false)
        } else {
            (exec.shard, NO_RANK)
        };
        let own = self.shards[exec.shard].best.load(Ordering::Acquire);
        let pool_overdue = sharded && theirs.1.min(own) < deadline_to_priority(now.0);
        let mine = {
            let mut core = self.lock(exec.shard);
            self.drain_locked(exec.shard, &mut core, None);
            match core.decide_in(&exec.exec, now, pool_overdue) {
                Decision::Continue => core.peek_next(&exec.exec),
                other => return other,
            }
        };
        let (Some(mine), true) = (mine, sharded) else {
            return Decision::Continue;
        };
        // Compare in clamped hint space: in-hand IDLE work must not
        // register as less urgent than another shard's (equally IDLE)
        // clamped hint.
        let overloaded = pool_overdue || mine.overdue(now);
        let mine_rank = if overloaded {
            (victim, theirs) = self.best_other(exec.shard, true);
            unpack_rank(pack_rank(mine))
        } else {
            (0, hint_of(mine))
        };
        if !outranks(theirs, mine_rank, self.steal_threshold) {
            return Decision::Continue;
        }
        if past_quantum {
            self.cross_swaps.fetch_add(1, Ordering::Relaxed);
            return Decision::Swap;
        }
        // Before the quantum the operator that outranks must also be a
        // tier up. A deadline hint carries no tier, but the shard's
        // tier hint names its strictest head: when that is the head
        // that outranked, its tier is known; when it is not, a laxer
        // operator is due first on that shard and would be handed out.
        let (tier, deadline) =
            unpack_rank(self.shards[victim].best_by_tier.load(Ordering::Acquire));
        if deadline != theirs.1 || tier >= mine.tier() {
            return Decision::Continue;
        }
        // And `acquire` must take this worker there: on time it is the
        // steal rule, so a peer on the lease's own shard or on the
        // worker's home that the strict head does not outrank (by the
        // slack) would be handed out instead. Under overload the tier
        // decides, and neither shard holds a stricter one than `theirs`.
        let kept = |s: usize| {
            s != victim && !outranks(theirs, self.advertised(s, false), self.steal_threshold)
        };
        if !overloaded && (kept(exec.shard) || kept(exec.home)) {
            return Decision::Continue;
        }
        self.cross_preemptions.fetch_add(1, Ordering::Relaxed);
        Decision::Swap
    }

    /// Lock-free pre-check for
    /// [`acquire_preempting`](Self::acquire_preempting): does some shard
    /// advertise a runnable operator in a tier stricter than `tier`?
    /// "No" is what a yield point hears almost always, and it costs one
    /// load (the pool's strictest tier ever advertised) in a flat-tier
    /// pool or for a message in the pool's strictest tier, and one more
    /// load per shard otherwise. A "yes" is only a hint; the lease is
    /// decided under the shard lock.
    pub fn stricter_tier_waiting(&self, tier: u8) -> bool {
        self.stricter_shard(tier).is_some()
    }

    /// The shard whose tier hint ranks first, when that hint is in a tier
    /// stricter than `tier`.
    fn stricter_shard(&self, tier: u8) -> Option<usize> {
        if self.strictest_tier.load(Ordering::Relaxed) >= tier {
            return None;
        }
        let (s, rank) = self
            .shards
            .iter()
            .map(|sh| sh.best_by_tier.load(Ordering::Acquire))
            .enumerate()
            .min_by_key(|&(_, rank)| rank)?;
        (unpack_rank(rank).0 < tier).then_some(s)
    }

    /// Preemption inside a message: check out the operator that takes
    /// the worker from the message it is *executing*, for a worker homed
    /// on `home` whose in-flight message has priority `mine` and belongs
    /// to `job`. The caller runs the lease on its own stack, then resumes
    /// the message.
    ///
    /// The question is the one [`decide`](Self::decide) asks before the
    /// quantum, asked of the in-flight message instead of the next one,
    /// and answered by the same rule: the operator `acquire` would hand
    /// out at `now` must outrank `mine` *and* sit in a stricter tier.
    /// `mine` counts as a runnable head for the overload verdict, which
    /// is pool-wide as in `acquire`, so an overdue in-flight message puts
    /// the choice in tier order. The shard asked is the one whose tier
    /// hint ranks first; the lease is re-validated there under the shard
    /// lock, after a mailbox drain, and on time it is refused while
    /// another shard advertises a head due earlier.
    ///
    /// `None` — the worker finishes its message — when nothing qualifies,
    /// and also when the operator that would qualify belongs to `job`:
    /// the caller holds one of that job's operator instances, and
    /// running another of them nested could need it (a reply to its
    /// upstream instance). A retired job's operator is refused and its
    /// messages purged, as `acquire` does, and the next one is tried.
    /// Each lease handed out counts in
    /// [`SchedulerStats::yield_preemptions`].
    pub fn acquire_preempting(
        &self,
        home: usize,
        mine: Priority,
        job: JobId,
        now: PhysicalTime,
    ) -> Option<ShardExecution> {
        let s = self.stricter_shard(mine.tier())?;
        let pool_overdue = self.shards.len() > 1
            && self
                .shards
                .iter()
                .any(|sh| sh.best.load(Ordering::Acquire) < deadline_to_priority(now.0));
        let mut core = self.lock(s);
        self.drain_locked(s, &mut core, None);
        let exec = loop {
            let Some(pick) = core.outranking(mine, now, pool_overdue, false) else {
                break None;
            };
            if self.maybe_retired(pick.key.job) && self.is_retired(pick.key.job) {
                let purged = core.retire(pick.key.job);
                self.shards[s].msgs.fetch_sub(purged, Ordering::Relaxed);
                continue;
            }
            // On time the pool's order is by deadline, so a head due
            // earlier on another shard is what `acquire` would hand out
            // next: the worker keeps its message, as `decide` keeps it.
            let due_first_elsewhere =
                !pick.overloaded
                    && self.shards.iter().enumerate().any(|(t, sh)| {
                        t != s && sh.best.load(Ordering::Acquire) < hint_of(pick.pri)
                    });
            if pick.key.job == job || due_first_elsewhere {
                break None;
            }
            // The same order `outranking` peeked in: the pick itself.
            let exec = core.acquire_in(now, pool_overdue || mine.overdue(now));
            debug_assert_eq!(exec.as_ref().map(Execution::key), Some(pick.key));
            break exec;
        };
        self.refresh_hint(s, &core);
        drop(core);
        let exec = exec?;
        self.yield_preemptions.fetch_add(1, Ordering::Relaxed);
        let home = home % self.shards.len();
        if s != home {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        Some(ShardExecution {
            shard: s,
            home,
            exec,
        })
    }

    /// Return a lease. Reports whether the shard still has available
    /// work (runtimes wake a sibling worker in that case, mirroring the
    /// single-queue runtime's behavior after a swap).
    pub fn release(&self, exec: ShardExecution) -> bool {
        let s = exec.shard;
        let mut core = self.lock(s);
        self.drain_locked(s, &mut core, None);
        core.release(exec.exec);
        self.refresh_hint(s, &core);
        self.shards[s].best.load(Ordering::Acquire) != EMPTY_HINT
    }

    /// Retire `job`: a first-class scheduler operation backing the
    /// runtime's `undeploy`. Marks the job retired, then sweeps every
    /// shard, purging the job's messages from the mailbox and the
    /// two-level queue. Returns the total number of messages purged.
    ///
    /// The mark is placed *before* the sweep, so from the sweep's point
    /// of view the job's message population can only shrink: new
    /// submissions are refused at ingress ([`submit`](Self::submit) /
    /// [`submit_batch`](Self::submit_batch) drop them), straggler mail
    /// that raced the mark is discarded at the next drain, and
    /// [`acquire`](Self::acquire) refuses leases on the job's
    /// operators. A lease already held when the mark lands simply runs
    /// dry: its queued messages are purged and its holder's next
    /// `take_message` returns `None` (the in-flight message a worker is
    /// *currently executing* is outside the scheduler and is the
    /// runtime's to abandon).
    ///
    /// The mark persists — and keeps refusing the `JobId` — until
    /// [`reinstate_job`](Self::reinstate_job) clears it, which runtimes
    /// call when they reuse the id for a new deployment.
    pub fn retire_job(&self, job: JobId) -> usize {
        {
            let mut set = self.retired.lock().unwrap_or_else(|p| p.into_inner());
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
        let mut purged = 0usize;
        for s in 0..self.shards.len() {
            let mut core = self.lock(s);
            // Drain first: with the mark set, the job's mailbox entries
            // are dropped (and counted) right here; `count_job` keeps
            // other concurrently-retiring jobs' stragglers out of this
            // job's purge total.
            purged += self.drain_locked(s, &mut core, Some(job));
            let from_queue = core.retire(job);
            if from_queue > 0 {
                purged += from_queue;
                self.shards[s].msgs.fetch_sub(from_queue, Ordering::Relaxed);
            }
            self.refresh_hint(s, &core);
        }
        purged
    }

    /// Clear `job`'s retirement mark so the id can be deployed again
    /// (slot reuse). A no-op when the job is not retired.
    pub fn reinstate_job(&self, job: JobId) {
        let mut set = self.retired.lock().unwrap_or_else(|p| p.into_inner());
        if set.remove(&job) {
            // Rebuild the fingerprint from the survivors: the removed
            // slot's bit may be shared with another retired slot.
            let fp = set.iter().fold(0u64, |fp, &j| fp | fp_bit(j));
            self.retired_fp.store(fp, Ordering::SeqCst);
        }
    }

    /// Messages the shards' mailbox buffers — each inbox and the spare
    /// its drains swap in — can hold without growing, summed over
    /// shards: a gauge of the ingress buffers' footprint. Takes each
    /// shard lock briefly.
    pub fn mailbox_capacity(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.lock(s).spare.capacity() + self.shards[s].mailbox.capacity())
            .sum()
    }

    /// Total pending messages across shards (mailboxes included). A
    /// gauge read shard by shard while submitters and drains move it.
    /// It never wraps: the counters are summed as signed and the total
    /// is clamped at zero, so a shard observed mid-update cannot turn
    /// the sum into a huge value.
    pub fn len(&self) -> usize {
        let sum = self.shards.iter().fold(0usize, |sum, s| {
            sum.wrapping_add(s.msgs.load(Ordering::Relaxed))
        });
        (sum as isize).max(0) as usize
    }

    /// True when no message is pending on any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters across shards, including steal and mailbox
    /// accounting. Messages still sitting in a mailbox
    /// have not reached a `CameoScheduler` yet, so their submit-side
    /// counters (`hint_fast_path`) appear only after a worker drains
    /// them.
    pub fn stats(&self) -> SchedulerStats {
        let mut total = SchedulerStats::default();
        for s in 0..self.shards.len() {
            total.merge(self.lock(s).stats());
        }
        total.steals = self.steals.load(Ordering::Relaxed);
        total.cross_shard_swaps = self.cross_swaps.load(Ordering::Relaxed);
        total.tier_preemptions += self.cross_preemptions.load(Ordering::Relaxed);
        total.yield_preemptions = self.yield_preemptions.load(Ordering::Relaxed);
        total.tier_overtakes += self.shard_overtakes.load(Ordering::Relaxed);
        total.mailbox_drained = self.mailbox_drained.load(Ordering::Relaxed);
        total.batch_publications = self.batch_pubs.load(Ordering::Relaxed);
        total.jobs_retired = self.jobs_retired.load(Ordering::Relaxed);
        total.retired_drops += self.retired_drops.load(Ordering::Relaxed);
        total.node_alloc_fallback = self.shards.iter().map(|sh| sh.mailbox.growths()).sum();
        total
    }

    /// True when some shard advertises available work — a non-empty
    /// hint or undrained mail.
    fn work_advertised(&self) -> bool {
        self.shards
            .iter()
            .any(|sh| sh.best.load(Ordering::SeqCst) != EMPTY_HINT || !sh.mailbox.is_empty())
    }

    /// Park the calling worker on its home shard until work may be
    /// available or `timeout` elapses. The wait is bounded: wakeups for
    /// *other* shards' work arrive via the timeout (or via that shard's
    /// own workers), so `timeout` caps the steal latency of an
    /// all-parked pool. Returns immediately when any shard advertises
    /// work (hint *or* undrained mailbox).
    pub fn park(&self, home: usize, timeout: Duration) {
        let s = home % self.shards.len();
        let sh = &self.shards[s];
        sh.parked.fetch_add(1, Ordering::SeqCst);
        // Order the parked bump before the predicate loads (the other
        // half of the submit-side handshake).
        fence(Ordering::SeqCst);
        let guard = sh.park.lock().unwrap_or_else(|p| p.into_inner());
        if self.work_advertised() {
            drop(guard);
            sh.parked.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = sh
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        sh.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake one worker parked on `s`, serializing with the parker's
    /// predicate re-check via the park lock. Callers must order their
    /// work-publishing store before this call's `parked` load (a SeqCst
    /// store or RMW on the publish, or an explicit SeqCst fence).
    fn wake_one(&self, s: usize) {
        let sh = &self.shards[s];
        if sh.parked.load(Ordering::SeqCst) > 0 {
            // Empty critical section: the notify now lands either after
            // the parker began waiting (delivered) or before its
            // re-check (which then sees the published work).
            drop(sh.park.lock().unwrap_or_else(|p| p.into_inner()));
            sh.cv.notify_one();
        }
    }

    /// Wake one worker parked on `shard` (e.g. after `release` reported
    /// leftover work). `submit` wakes its target shard by itself.
    pub fn notify_shard(&self, shard: usize) {
        fence(Ordering::SeqCst);
        self.wake_one(shard % self.shards.len());
    }

    /// Wake every parked worker (shutdown, or broadcast after bulk
    /// submission).
    pub fn notify_all(&self) {
        for sh in &self.shards {
            drop(sh.park.lock().unwrap_or_else(|p| p.into_inner()));
            sh.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;

    fn key(op: u32) -> OperatorKey {
        OperatorKey::new(JobId(0), op)
    }

    fn sharded(n: usize, quantum_us: u64) -> ShardedScheduler<u64> {
        ShardedScheduler::new(
            SchedulerConfig::default()
                .with_shards(n)
                .with_quantum(Micros(quantum_us)),
        )
    }

    /// Drain everything single-threaded from `home`, recording values.
    fn drain(s: &ShardedScheduler<u64>, home: usize) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(exec) = s.acquire(home, PhysicalTime::ZERO) {
            while let Some((m, _)) = s.take_message(&exec) {
                out.push(m);
            }
            s.release(exec);
        }
        out
    }

    #[test]
    fn single_shard_matches_plain_scheduler() {
        let sh = sharded(1, 0);
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
        assert_eq!(drain(&sh, 0), plain_order);
        assert_eq!(
            sh.stats().mailbox_drained,
            7,
            "every message came in by mail"
        );
    }

    #[test]
    fn submit_batch_matches_per_message_submit() {
        let mk = || {
            ShardedScheduler::<u64>::new(
                SchedulerConfig::default()
                    .with_shards(4)
                    .with_quantum(Micros(0)),
            )
        };
        let a = mk();
        let b = mk();
        let items: Vec<(OperatorKey, u64, Priority)> = (0..40u64)
            .map(|i| (key(i as u32 % 7), i, Priority::uniform((i % 5) as i64)))
            .collect();
        for (k, m, p) in items.clone() {
            a.submit(k, m, p);
        }
        assert_eq!(b.submit_batch(items), 40);
        assert_eq!(b.len(), 40, "batch counted into shard message counts");
        assert_eq!(drain(&a, 0), drain(&b, 0), "batched == per-message order");
        let st = b.stats();
        assert_eq!(st.mailbox_drained, 40);
        assert!(
            st.batch_publications >= 1 && st.batch_publications <= 4,
            "one publication per touched shard, at most shard count: {st:?}"
        );
        assert_eq!(
            a.stats().batch_publications,
            0,
            "per-message path uncounted"
        );
    }

    #[test]
    fn submit_batch_wakes_parked_worker() {
        let sh = std::sync::Arc::new(sharded(2, 0));
        let target = sh.shard_of(key(0));
        let sh2 = sh.clone();
        let h = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            sh2.park(target, Duration::from_secs(30));
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(100));
        // Exercises the chain-publish → wake handshake specifically.
        sh.submit_batch((0..8u64).map(|i| (key(0), i, Priority::uniform(1))));
        let waited = h.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "parker slept through a batch submit ({waited:?})"
        );
    }

    #[test]
    fn steady_state_ingress_reuses_mailbox_buffers() {
        let sh = sharded(1, 0);
        let mut warm = 0;
        for round in 0..8u64 {
            for i in 0..32u64 {
                sh.submit(key(0), round * 32 + i, Priority::uniform(0));
            }
            assert_eq!(drain(&sh, 0).len(), 32);
            if round == 1 {
                // The inbox and the shard's spare have both grown.
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
    fn zero_threshold_steals_most_urgent_across_shards() {
        let sh = sharded(4, 0);
        // Find keys landing on distinct shards.
        let mut by_shard: Vec<Option<u32>> = vec![None; 4];
        for op in 0..64 {
            let s = sh.shard_of(key(op));
            if by_shard[s].is_none() {
                by_shard[s] = Some(op);
            }
        }
        let keys: Vec<u32> = by_shard.into_iter().map(|k| k.unwrap()).collect();
        // Urgencies chosen so global order crosses shards.
        sh.submit(key(keys[0]), 0, Priority::uniform(40));
        sh.submit(key(keys[1]), 1, Priority::uniform(10));
        sh.submit(key(keys[2]), 2, Priority::uniform(30));
        sh.submit(key(keys[3]), 3, Priority::uniform(20));
        assert_eq!(drain(&sh, 0), vec![1, 3, 2, 0]);
    }

    #[test]
    fn steal_threshold_keeps_home_work() {
        let sh = ShardedScheduler::<u64>::new(
            SchedulerConfig::default()
                .with_shards(4)
                .with_quantum(Micros(0))
                .with_steal_threshold(Micros(1_000)),
        );
        let mut by_shard: Vec<Option<u32>> = vec![None; 4];
        for op in 0..64 {
            let s = sh.shard_of(key(op));
            if by_shard[s].is_none() {
                by_shard[s] = Some(op);
            }
        }
        let keys: Vec<u32> = by_shard.into_iter().map(|k| k.unwrap()).collect();
        let home = sh.shard_of(key(keys[0]));
        // Home has priority 500; another shard has 100 — more urgent,
        // but within the 1000us slack, so home work runs first.
        sh.submit(key(keys[0]), 0, Priority::uniform(500));
        sh.submit(key(keys[1]), 1, Priority::uniform(100));
        let exec = sh.acquire(home, PhysicalTime::ZERO).unwrap();
        assert_eq!(exec.shard(), home, "within slack: stay home");
        assert_eq!(sh.take_message(&exec).unwrap().0, 0);
        sh.release(exec);
        // Far outside the slack: steal.
        sh.submit(key(keys[0]), 2, Priority::uniform(5_000));
        let exec = sh.acquire(home, PhysicalTime::ZERO).unwrap();
        assert_eq!(sh.take_message(&exec).unwrap().0, 1, "beyond slack: steal");
        sh.release(exec);
        drain(&sh, home);
    }

    #[test]
    fn idle_home_steals_anything() {
        let sh = sharded(8, 0);
        sh.submit(key(3), 7, Priority::uniform(100));
        let busy = sh.shard_of(key(3));
        let idle_home = (busy + 1) % 8;
        let exec = sh.acquire(idle_home, PhysicalTime::ZERO).unwrap();
        assert_eq!(exec.shard(), busy);
        assert_eq!(sh.take_message(&exec).unwrap().0, 7);
        sh.release(exec);
        assert!(sh.is_empty());
        assert_eq!(sh.stats().steals, 1);
    }

    #[test]
    fn cross_shard_swap_at_quantum_boundary() {
        let sh = sharded(4, 100);
        let mut by_shard: Vec<Option<u32>> = vec![None; 4];
        for op in 0..64 {
            let s = sh.shard_of(key(op));
            if by_shard[s].is_none() {
                by_shard[s] = Some(op);
            }
        }
        let keys: Vec<u32> = by_shard.into_iter().map(|k| k.unwrap()).collect();
        let home = sh.shard_of(key(keys[0]));
        sh.submit(key(keys[0]), 0, Priority::uniform(1_000));
        sh.submit(key(keys[0]), 1, Priority::uniform(1_000));
        let exec = sh.acquire(home, PhysicalTime::ZERO).unwrap();
        let _ = sh.take_message(&exec);
        // More urgent work lands on a different shard.
        sh.submit(key(keys[1]), 9, Priority::uniform(5));
        // Before the quantum: keep going (own shard has nothing better).
        assert_eq!(sh.decide(&exec, PhysicalTime(50)), Decision::Continue);
        // Past the quantum: the other shard's urgency forces a swap.
        assert_eq!(sh.decide(&exec, PhysicalTime(100)), Decision::Swap);
        sh.release(exec);
        assert_eq!(sh.stats().cross_shard_swaps, 1);
        // The next acquire steals the urgent operator.
        let exec = sh.acquire(home, PhysicalTime(100)).unwrap();
        assert_eq!(sh.take_message(&exec).unwrap().0, 9);
        sh.release(exec);
        drain(&sh, home);
    }

    /// Keys homed on shard 0 and shard 1 of a two-shard scheduler.
    fn one_key_per_shard(sh: &ShardedScheduler<u64>) -> [OperatorKey; 2] {
        let on = |s| (0..64).map(key).find(|&k| sh.shard_of(k) == s).unwrap();
        [on(0), on(1)]
    }

    #[test]
    fn on_time_strict_shard_outranks_an_overdue_lax_backlog_elsewhere() {
        const NOW: PhysicalTime = PhysicalTime(1_000);
        let strict = Priority::uniform(1_500).with_tier(13);
        let lax = Priority::uniform(100).with_tier(17);
        for home in 0..2 {
            let sh = sharded(2, 50);
            let [tight, backlog] = one_key_per_shard(&sh);
            sh.submit(tight, 7, strict);
            for m in 0..3 {
                sh.submit(backlog, m, lax);
            }
            // Deadline order would drain the overdue backlog first; the
            // pool is overloaded, so the strict tier goes first —
            // whichever shard the worker calls home.
            let exec = sh.acquire(home, NOW).unwrap();
            assert_eq!(exec.key(), tight, "home {home}");
            assert_eq!(sh.take_message(&exec).unwrap().0, 7);
            assert_eq!(sh.decide(&exec, NOW), Decision::Idle);
            sh.release(exec);
            let st = sh.stats();
            assert_eq!((st.overload_acquisitions, st.tier_overtakes), (1, 1));
            assert_eq!(drain(&sh, home), vec![0, 1, 2]);
            assert_eq!(sh.stats().tier_overtakes, 1, "nobody left to overtake");
        }
    }

    #[test]
    fn worker_draining_an_overdue_backlog_swaps_to_a_strict_shard_at_the_boundary() {
        let sh = sharded(2, 50);
        let [tight, backlog] = one_key_per_shard(&sh);
        for m in 0..3 {
            sh.submit(backlog, m, Priority::uniform(100).with_tier(17));
        }
        let exec = sh.acquire(1, PhysicalTime(1_000)).unwrap();
        assert_eq!(exec.key(), backlog);
        assert_eq!(sh.take_message(&exec).unwrap().0, 0);
        // An on-time strict message lands on the other shard. Its start
        // deadline is later than the in-hand one, but the pool is
        // overloaded, so it outranks by tier — and a tier up does not
        // wait for the quantum.
        sh.submit(tight, 7, Priority::uniform(1_500).with_tier(13));
        assert_eq!(sh.decide(&exec, PhysicalTime(1_020)), Decision::Swap);
        sh.release(exec);
        let st = sh.stats();
        assert_eq!((st.tier_preemptions, st.cross_shard_swaps), (1, 0));
        let exec = sh.acquire(1, PhysicalTime(1_020)).unwrap();
        assert_eq!(exec.key(), tight);
        // And the other way round the strict lease is kept, before the
        // quantum and past it.
        assert_eq!(sh.take_message(&exec).unwrap().0, 7);
        sh.submit(tight, 8, Priority::uniform(1_600).with_tier(13));
        assert_eq!(sh.decide(&exec, PhysicalTime(1_040)), Decision::Continue);
        assert_eq!(sh.decide(&exec, PhysicalTime(1_100)), Decision::Continue);
        sh.release(exec);
        assert_eq!(sh.stats().tier_preemptions, 1);
        // `drain` runs at time zero, where nothing is overdue yet.
        assert_eq!(drain(&sh, 1), vec![1, 2, 8]);
    }

    #[test]
    fn lax_lease_yields_before_the_quantum_to_an_on_time_strict_shard() {
        let lax = |g| Priority::uniform(g).with_tier(17);
        let strict = |g| Priority::uniform(g).with_tier(13);
        for home in 0..2 {
            // Nobody is late at any point: this is deadline order.
            let sh = sharded(2, 1_000);
            let [backlog, tight] = one_key_per_shard(&sh);
            for m in 0..3 {
                sh.submit(backlog, m, lax(50_000));
            }
            let exec = sh.acquire(home, PhysicalTime(100)).unwrap();
            assert_eq!(exec.key(), backlog, "home {home}");
            assert_eq!(sh.take_message(&exec).unwrap().0, 0);
            assert_eq!(sh.decide(&exec, PhysicalTime(200)), Decision::Continue);
            // A strict message due before the lax one: at the parent
            // commit the worker kept the lease for the other 800 µs.
            sh.submit(tight, 7, strict(9_000));
            assert_eq!(sh.decide(&exec, PhysicalTime(300)), Decision::Swap);
            sh.release(exec);
            let exec = sh.acquire(home, PhysicalTime(300)).unwrap();
            assert_eq!(exec.key(), tight, "home {home}");
            assert_eq!(sh.take_message(&exec).unwrap().0, 7);
            assert_eq!(sh.decide(&exec, PhysicalTime(400)), Decision::Idle);
            sh.release(exec);
            let st = sh.stats();
            assert_eq!(
                (st.tier_preemptions, st.cross_shard_swaps, st.quantum_swaps),
                (1, 0, 0)
            );
            assert_eq!(st.overload_acquisitions, 0);

            // A strict message due *after* the lax head does not
            // outrank it on time, so `acquire` would hand the lax
            // operator straight back: no swap before the quantum, nor
            // past it.
            let exec = sh.acquire(home, PhysicalTime(400)).unwrap();
            assert_eq!(exec.key(), backlog);
            assert_eq!(sh.take_message(&exec).unwrap().0, 1);
            sh.submit(tight, 8, strict(60_000));
            assert_eq!(sh.decide(&exec, PhysicalTime(500)), Decision::Continue);
            assert_eq!(sh.decide(&exec, PhysicalTime(1_400)), Decision::Continue);
            // A *peer* on the other shard that does outrank it waits
            // for the quantum, as at the parent commit.
            sh.submit(tight, 9, lax(20_000));
            assert_eq!(sh.decide(&exec, PhysicalTime(1_399)), Decision::Continue);
            assert_eq!(sh.decide(&exec, PhysicalTime(1_400)), Decision::Swap);
            sh.release(exec);
            let st = sh.stats();
            assert_eq!((st.tier_preemptions, st.cross_shard_swaps), (1, 1));
        }
    }

    #[test]
    fn no_early_swap_when_acquire_would_hand_out_a_peer() {
        let lax = |g| Priority::uniform(g).with_tier(17);
        let strict = |g| Priority::uniform(g).with_tier(13);
        let on = |sh: &ShardedScheduler<u64>, s, nth| {
            let mut keys = (0..256).map(key).filter(|&k| sh.shard_of(k) == s);
            keys.nth(nth).unwrap()
        };

        // A peer due first on the lease's own shard: `acquire` would
        // hand it out, not the strict operator next door, so the lease
        // is kept until the quantum — and then goes to the peer.
        let sh = sharded(2, 1_000);
        let (backlog, peer, tight) = (on(&sh, 0, 0), on(&sh, 0, 1), on(&sh, 1, 0));
        sh.submit(backlog, 0, lax(50_000));
        sh.submit(backlog, 1, lax(50_000));
        let exec = sh.acquire(0, PhysicalTime(0)).unwrap();
        assert_eq!(sh.take_message(&exec).unwrap().0, 0);
        sh.submit(peer, 5, lax(5_000));
        sh.submit(tight, 7, strict(9_000));
        assert_eq!(sh.decide(&exec, PhysicalTime(300)), Decision::Continue);
        assert_eq!(sh.stats().tier_preemptions, 0);
        assert_eq!(sh.decide(&exec, PhysicalTime(1_000)), Decision::Swap);
        sh.release(exec);
        let exec = sh.acquire(0, PhysicalTime(1_000)).unwrap();
        assert_eq!(exec.key(), peer);
        // With the peer in hand the strict operator is what `acquire`
        // returns next, and it takes the worker at once.
        assert_eq!(sh.take_message(&exec).unwrap().0, 5);
        sh.submit(peer, 6, lax(50_000));
        assert_eq!(sh.decide(&exec, PhysicalTime(1_100)), Decision::Swap);
        sh.release(exec);
        assert_eq!(sh.acquire(0, PhysicalTime(1_100)).unwrap().key(), tight);
        let st = sh.stats();
        assert_eq!((st.tier_preemptions, st.quantum_swaps), (1, 1));

        // A worker homed on a third shard that holds a stolen lease:
        // its `acquire` starts from home, and a peer there that the
        // strict head does not outrank (ties favour home) keeps it.
        let sh = sharded(3, 1_000);
        let (backlog, tight, at_home) = (on(&sh, 0, 0), on(&sh, 1, 0), on(&sh, 2, 0));
        sh.submit(backlog, 0, lax(50_000));
        sh.submit(backlog, 1, lax(50_000));
        let exec = sh.acquire(2, PhysicalTime(0)).unwrap();
        assert_eq!((exec.key(), exec.shard()), (backlog, 0));
        assert_eq!(sh.take_message(&exec).unwrap().0, 0);
        sh.submit(tight, 7, strict(9_000));
        sh.submit(at_home, 5, lax(9_000));
        assert_eq!(sh.decide(&exec, PhysicalTime(300)), Decision::Continue);
        assert_eq!(sh.stats().tier_preemptions, 0);
        sh.release(exec);
        assert_eq!(sh.acquire(2, PhysicalTime(300)).unwrap().key(), at_home);
    }

    #[test]
    fn strictest_tier_is_the_pools_running_minimum() {
        // What gates the hint scan before the quantum: with flat tiers
        // no lease is ever above it; a strict tier opens the gate for
        // laxer leases only, and for good.
        let sh = sharded(2, 1_000);
        let [a, b] = one_key_per_shard(&sh);
        sh.submit(a, 0, Priority::uniform(50_000));
        sh.submit(b, 1, Priority::uniform(9_000));
        assert_eq!(
            sh.strictest_tier.load(Ordering::Relaxed),
            Priority::FLAT_TIER
        );
        let sh = sharded(2, 1_000);
        sh.submit(a, 0, Priority::uniform(50_000).with_tier(17));
        assert_eq!(sh.strictest_tier.load(Ordering::Relaxed), 17);
        sh.submit(b, 1, Priority::uniform(9_000).with_tier(13));
        assert_eq!(sh.strictest_tier.load(Ordering::Relaxed), 13);
        while let Some(exec) = sh.acquire(0, PhysicalTime(0)) {
            while sh.take_message(&exec).is_some() {}
            sh.release(exec);
        }
        assert_eq!(
            sh.strictest_tier.load(Ordering::Relaxed),
            13,
            "never raised"
        );
    }

    #[test]
    fn packed_rank_orders_by_tier_then_deadline() {
        let p = |g: i64, t: u8| Priority::uniform(g).with_tier(t);
        let ranks = [
            p(i64::MIN, 0),
            p(-5, 0),
            p(900, 13),
            p(1 << 60, 13),
            p(100, 17),
            p(i64::MAX, 63),
        ]
        .map(pack_rank);
        assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{ranks:?}");
        assert!(ranks[5] < EMPTY_RANK, "no real rank reads as empty");
        assert_eq!(unpack_rank(pack_rank(p(-5, 17))), (17, -5));
        assert_eq!(unpack_rank(EMPTY_RANK), NO_RANK);
    }

    #[test]
    fn len_and_stats_aggregate_across_shards() {
        let sh = sharded(4, 0);
        for op in 0..32 {
            sh.submit(key(op), op as u64, Priority::uniform(op as i64));
        }
        assert_eq!(sh.len(), 32);
        assert!(!sh.is_empty());
        let drained = drain(&sh, 0);
        assert_eq!(drained.len(), 32);
        assert!(sh.is_empty());
        let st = sh.stats();
        assert_eq!(st.messages_scheduled, 32);
        assert_eq!(st.operator_acquisitions, 32);
        assert_eq!(st.mailbox_drained, 32, "all ingress went via mailboxes");
        assert!(st.hint_fast_path > 0, "drain refreshes hints in O(1)");
    }

    #[test]
    fn placement_is_deterministic_and_spread() {
        let a = sharded(8, 0);
        let b = sharded(8, 0);
        let mut used = [false; 8];
        for op in 0..256 {
            assert_eq!(a.shard_of(key(op)), b.shard_of(key(op)));
            used[a.shard_of(key(op))] = true;
        }
        assert!(
            used.iter().all(|&u| u),
            "256 operators must touch all 8 shards"
        );
    }

    #[test]
    fn idle_priority_work_is_still_advertised() {
        // Priority::IDLE.global == i64::MAX, which collides with the
        // empty-shard sentinel unless hints are clamped: token-policy
        // overflow work must remain visible to stealing, sibling
        // wake-ups and park's fast path.
        let sh = sharded(4, 0);
        sh.submit(key(3), 7, Priority::IDLE);
        let busy = sh.shard_of(key(3));
        let idle_home = (busy + 1) % 4;
        // park must return immediately: some shard advertises work.
        let t0 = std::time::Instant::now();
        sh.park(idle_home, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // An idle home steals it straight away via the hint path.
        let exec = sh.acquire(idle_home, PhysicalTime::ZERO).unwrap();
        assert_eq!(exec.shard(), busy);
        // A second IDLE message on the leased operator: release must
        // report the shard as still runnable (sibling wake).
        sh.submit(key(3), 8, Priority::IDLE);
        assert_eq!(sh.take_message(&exec).unwrap().0, 7);
        assert!(sh.release(exec), "IDLE leftovers must report runnable");
        let exec = sh.acquire(idle_home, PhysicalTime::ZERO).unwrap();
        assert_eq!(sh.take_message(&exec).unwrap().0, 8);
        sh.release(exec);
        assert!(sh.is_empty());
    }

    #[test]
    fn retire_job_purges_across_shards_and_refuses_new_submits() {
        let sh = sharded(4, 0);
        let keep = OperatorKey::new(JobId(1), 0);
        // Spread the doomed job across shards; keep one survivor.
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
        assert_eq!(drain(&sh, 0), vec![999]);
        let st = sh.stats();
        assert_eq!(st.jobs_retired, 1);
        // The 16 purged messages split between `messages_purged` (those
        // already folded into a queue) and `retired_drops` (those still
        // in a mailbox, discarded at the retirement drain); the 9
        // post-retirement submissions are always `retired_drops`.
        assert_eq!(st.messages_purged + st.retired_drops, 16 + 9);
        // Reinstating the id makes it schedulable again (slot reuse).
        sh.reinstate_job(JobId(0));
        sh.submit(key(0), 42, Priority::uniform(1));
        assert_eq!(drain(&sh, 0), vec![42]);
    }

    #[test]
    fn retire_job_discards_straggler_mail_at_drain() {
        // Mail that lands *after* the retirement mark (simulating a
        // producer whose push raced the mark) must be discarded at the
        // next drain, not admitted to the queue.
        let sh = sharded(1, 0);
        sh.retire_job(JobId(0));
        // Bypass submit's ingress check: push straight into the mailbox
        // like a racing producer whose check passed pre-mark.
        sh.shards[0]
            .mailbox
            .push(key(3), 1u64, Priority::uniform(1));
        sh.shards[0].msgs.fetch_add(1, Ordering::Relaxed);
        assert!(drain(&sh, 0).is_empty(), "straggler mail never drains out");
        assert!(sh.is_empty());
        assert!(sh.stats().retired_drops >= 1);
    }

    #[test]
    fn retire_job_runs_held_lease_dry() {
        let sh = sharded(1, 0);
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
        let sh = sharded(2, 0);
        sh.retire_job(JobId(0));
        sh.submit(OperatorKey::new(JobId(64), 0), 7, Priority::uniform(1));
        sh.submit(OperatorKey::new(JobId(1), 0), 8, Priority::uniform(2));
        let mut got = drain(&sh, 0);
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
        // And the retired id itself stays refused.
        sh.submit(key(0), 9, Priority::uniform(0));
        assert!(drain(&sh, 0).is_empty());
    }

    #[test]
    fn small_batch_with_retired_item_does_not_deadlock() {
        // The ≤2-item batch path degrades to per-message `submit`,
        // whose own retirement check takes the set mutex — the batch
        // filter must not be holding it (regression: a cached guard
        // across the submission loop self-deadlocked here).
        let sh = sharded(1, 0);
        sh.retire_job(JobId(0));
        let live = OperatorKey::new(JobId(1), 0);
        let n = sh.submit_batch(vec![
            (key(0), 1u64, Priority::uniform(1)),
            (live, 2u64, Priority::uniform(1)),
        ]);
        assert_eq!(n, 1, "retired item dropped, live item submitted");
        assert_eq!(drain(&sh, 0), vec![2]);
    }

    #[test]
    fn retirement_has_no_effect_on_other_jobs_order() {
        let a = sharded(2, 0);
        let b = sharded(2, 0);
        let keep = |op: u32| OperatorKey::new(JobId(1), op);
        for (i, g) in [9i64, 2, 7, 4].iter().enumerate() {
            a.submit(keep(i as u32), i as u64, Priority::uniform(*g));
            b.submit(keep(i as u32), i as u64, Priority::uniform(*g));
        }
        // Retiring an absent job must not perturb anything.
        b.submit(key(50), 99, Priority::uniform(0));
        b.retire_job(JobId(0));
        assert_eq!(drain(&a, 0), drain(&b, 0));
    }

    #[test]
    fn park_returns_when_work_is_advertised() {
        let sh = sharded(2, 0);
        sh.submit(key(0), 1, Priority::uniform(1));
        let t0 = std::time::Instant::now();
        // Work exists somewhere: park must return immediately.
        sh.park(1, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn park_returns_on_undrained_mail_even_if_hint_raced() {
        // Force the hint to look empty while mail is queued: the park
        // predicate must also consult the mailbox.
        let sh = sharded(2, 0);
        let sub = sh.submit(key(0), 1, Priority::uniform(1));
        // Simulate the race where a concurrent failed acquire refreshed
        // the hint to EMPTY just before the submit's mail landed: the
        // mailbox check alone must keep the parker awake.
        sh.shards[sub.shard]
            .best
            .store(EMPTY_HINT, Ordering::SeqCst);
        assert!(!sh.shards[sub.shard].mailbox.is_empty());
        let t0 = std::time::Instant::now();
        sh.park(0, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // Draining restores the hint.
        assert_eq!(drain(&sh, 0), vec![1]);
    }

    #[test]
    fn notify_wakes_parked_thread() {
        let sh = std::sync::Arc::new(sharded(2, 0));
        let sh2 = sh.clone();
        let h = std::thread::spawn(move || {
            // Parks (empty), then is woken by the submit below (which
            // wakes its target shard internally).
            sh2.park(0, Duration::from_secs(10));
        });
        std::thread::sleep(Duration::from_millis(50));
        let _sub = sh.submit(key(0), 1, Priority::uniform(1));
        sh.notify_all();
        h.join().unwrap();
        assert_eq!(sh.len(), 1);
    }

    #[test]
    fn submit_wakes_parker_without_external_notify() {
        // The submit→wake path alone (no notify_all safety net) must
        // unpark a worker waiting on the target shard.
        let sh = std::sync::Arc::new(sharded(2, 0));
        // key(0)'s shard:
        let target = sh.shard_of(key(0));
        let sh2 = sh.clone();
        let h = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            sh2.park(target, Duration::from_secs(30));
            t0.elapsed()
        });
        // Give the thread time to actually park.
        std::thread::sleep(Duration::from_millis(100));
        sh.submit(key(0), 1, Priority::uniform(1));
        let waited = h.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "parker slept through a submit wake ({waited:?})"
        );
    }

    /// A pool of `shards` shards whose worker (home 0) is executing a
    /// message of priority `mine` on job 0's operator 0, with `pending`
    /// submitted behind it.
    fn executing(
        shards: usize,
        mine: Priority,
        pending: &[(OperatorKey, Priority)],
    ) -> (ShardedScheduler<u64>, ShardExecution) {
        let sh = sharded(shards, 1_000_000);
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
        for shards in [1, 2] {
            for (name, mine, pending, now, want) in &cases {
                let (sh, _exec) = executing(shards, *mine, pending);
                let now = PhysicalTime(*now);
                let got = sh.acquire_preempting(0, *mine, JobId(0), now);
                assert_eq!(
                    got.as_ref().map(|e| e.key()),
                    *want,
                    "{name}, {shards} shard(s)"
                );
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
    }

    #[test]
    fn acquire_preempting_refuses_and_purges_a_retired_job() {
        let lax = Priority::uniform(5_000).with_tier(17);
        let strict = |g| Priority::uniform(g).with_tier(13);
        let (gone, live) = (OperatorKey::new(JobId(1), 0), OperatorKey::new(JobId(2), 0));
        let (sh, _exec) = executing(1, lax, &[(gone, strict(1_000)), (live, strict(1_500))]);
        // Admitted, then marked retired before any sweep reaches it:
        // the window `retire_job` leaves between its mark and its sweep.
        {
            let mut core = sh.lock(0);
            sh.drain_locked(0, &mut core, None);
        }
        sh.retired.lock().unwrap().insert(JobId(1));
        sh.retired_fp.fetch_or(fp_bit(JobId(1)), Ordering::SeqCst);
        let nested = sh
            .acquire_preempting(0, lax, JobId(0), PhysicalTime(100))
            .expect("the live strict operator");
        assert_eq!(nested.key(), live);
        let st = sh.stats();
        assert_eq!((st.messages_purged, st.yield_preemptions), (1, 1));
        assert_eq!(sh.len(), 1, "only the live strict message is left");
    }

    #[test]
    fn a_lone_shard_keeps_its_tier_hint_for_yield_points() {
        let sh = sharded(1, 1_000);
        assert!(!sh.stricter_tier_waiting(17), "empty pool");
        sh.submit(key(0), 0, Priority::uniform(5_000).with_tier(17));
        assert!(!sh.stricter_tier_waiting(17), "same tier");
        sh.submit(key(1), 1, Priority::uniform(9_000).with_tier(13));
        assert!(sh.stricter_tier_waiting(17), "lowered at submit, lock-free");
        assert!(!sh.stricter_tier_waiting(13));
        drain(&sh, 0);
        assert!(!sh.stricter_tier_waiting(17), "refreshed at drain");
    }
}
