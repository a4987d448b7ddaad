//! The jobs table, the one place a job's slot is reserved, occupied,
//! retired and freed.
//!
//! ## Job lifecycle
//!
//! The control plane is fallible and full-lifecycle: `Runtime::deploy`
//! validates the job graph and returns `Result` (no panics on bad
//! specs), every per-job entry point checks the handle against a
//! **generational slot-map** jobs table, and `Runtime::undeploy`
//! drains a job's in-flight work, vacates its slot and bumps the slot's
//! generation, purges what is left of the job from the scheduler
//! (`ShardedScheduler::retire_job`), and only then frees the slot for
//! reuse. A [`JobHandle`] is `(slot, generation)`, and every scheduler
//! message carries the generation too: a stale handle gets
//! [`JobError::Stale`] — never another job's data — and a stale
//! message, queued or fanned out after the purge, is dropped at the
//! generation check before it can touch the slot's new occupant. That
//! check is the one defence: the scheduler keeps no per-job state.
//!
//! The table's fields are private to this module, so that order is
//! written once, in [`Jobs::retire`], and its lock is taken only
//! through [`Jobs`], which recovers a poisoned guard.

use super::{relock, JobError, JobHandle, Subscriber};
use crate::durability::{JobSnapshot, SlotSnapshot};
use crate::stats::JobStats;
use cameo_core::ids::JobId;
use cameo_core::time::Micros;
use cameo_dataflow::expand::{ExpandOptions, ExpandedJob, OperatorInstance};
use cameo_dataflow::graph::{GraphError, JobSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// The runtime side of one deployed job.
pub(super) struct JobRt {
    pub(super) instances: Vec<Mutex<OperatorInstance>>,
    pub(super) ingests: Vec<usize>,
    /// Spec name — what the journal's `Deploy` records and snapshot
    /// manifests key the [`SpecRegistry`](crate::durability::SpecRegistry)
    /// with at recovery.
    pub(super) name: String,
    pub(super) latency_constraint: Micros,
    /// Generation of the jobs-table slot this job occupies; stamped
    /// into every scheduler message and checked before execution.
    pub(super) gen: u32,
    /// Set by `undeploy`: new ingest is refused while in-flight work
    /// drains.
    pub(super) draining: AtomicBool,
    /// Scheduler messages submitted for this job and not yet executed.
    /// Batched increments at every submission point, one decrement per
    /// executed message (program order on the same atomic guarantees a
    /// worker's fan-out increment lands before its own decrement, so
    /// the count never dips to zero while a causal chain is alive).
    /// `undeploy` sleeps in [`Self::wait_drained`] until it is zero.
    pub(super) inflight: AtomicU64,
    /// Pairs with `drain_cv`: [`Self::wait_drained`] re-checks
    /// `inflight` under this lock before each wait, and
    /// [`Self::dec_inflight`] bumps the lock before notifying, so the
    /// last decrement can never slip into the check→wait window unseen
    /// (same shape as the scheduler's park/wake handshake).
    drain_lock: Mutex<()>,
    /// Signalled by the decrement that takes `inflight` to zero while
    /// the job is draining.
    drain_cv: Condvar,
    pub(super) stats: Arc<JobStats>,
    pub(super) subscribers: Mutex<Vec<Subscriber>>,
}

impl JobRt {
    /// The runtime side of an expanded job about to occupy its slot at
    /// `gen`.
    fn new(exp: ExpandedJob, gen: u32) -> Self {
        JobRt {
            ingests: exp.ingests,
            name: exp.name,
            latency_constraint: exp.latency_constraint,
            gen,
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
            stats: Arc::new(JobStats::new(exp.latency_constraint)),
            subscribers: Mutex::new(Vec::new()),
            instances: exp.instances.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Decrement the in-flight count; the decrement that reaches zero
    /// on a draining job wakes the waiting `undeploy`.
    ///
    /// Ordering (mirrors the scheduler's park/wake protocol): the `SeqCst`
    /// decrement and the `SeqCst` load of `draining` here, against
    /// `undeploy`'s `SeqCst` swap of `draining` and `SeqCst` load of
    /// `inflight`, give a single total order — either this decrement
    /// sees `draining` and notifies, or `undeploy`'s count load sees
    /// the decrement and never sleeps on it. The lock bump before the
    /// notify closes the remaining race against a waiter between its
    /// predicate check and its wait.
    pub(super) fn dec_inflight(&self) {
        let was = self.inflight.fetch_sub(1, Ordering::SeqCst);
        if was == 1 && self.draining.load(Ordering::SeqCst) {
            drop(relock(&self.drain_lock));
            self.drain_cv.notify_all();
        }
    }

    /// Sleep until the in-flight count reaches zero or `budget` passes.
    /// The `SeqCst` load pairs with the ingress guards' `SeqCst`
    /// increment: an ingress that passed its draining check is visible
    /// here, so its messages are waited for, not purged. The count is
    /// re-checked under the drain lock before every wait, which
    /// [`dec_inflight`](Self::dec_inflight) bumps before notifying.
    pub(super) fn wait_drained(&self, budget: Duration) {
        let deadline = Instant::now() + budget;
        let mut held = relock(&self.drain_lock);
        while self.inflight.load(Ordering::SeqCst) > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            held = self
                .drain_cv
                .wait_timeout(held, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// RAII +1 on a job's in-flight count for the duration of one ingress
/// call. Taken *before* the draining check (SeqCst on both sides, so
/// either the ingress sees the draining flag and refuses, or
/// `undeploy`'s drain wait sees the count and waits): without it, an
/// ingress preempted between its draining check and its message-count
/// increment could slip past a concurrent undeploy's drain, and tuples
/// accepted with `Ok(())` would be silently discarded by the
/// retirement purge.
pub(super) struct IngressGuard(Arc<JobRt>);

impl IngressGuard {
    /// Admit one ingress call to `jrt`, or refuse it (`None`) while the
    /// job drains.
    pub(super) fn admit(jrt: Arc<JobRt>) -> Option<Self> {
        jrt.inflight.fetch_add(1, Ordering::SeqCst);
        let guard = IngressGuard(jrt);
        (!guard.0.draining.load(Ordering::SeqCst)).then_some(guard)
    }

    pub(super) fn job(&self) -> Arc<JobRt> {
        self.0.clone()
    }
}

impl Drop for IngressGuard {
    fn drop(&mut self) {
        self.0.dec_inflight();
    }
}

/// One slot of the generational jobs table.
struct JobSlot {
    /// Current generation. Bumped when the occupant is retired, which
    /// is what invalidates outstanding handles and in-flight messages.
    gen: u32,
    /// The occupant, if any.
    job: Option<Arc<JobRt>>,
}

/// The generational slot map behind every `JobHandle`.
#[derive(Default)]
pub(super) struct JobsTable {
    slots: Vec<JobSlot>,
    /// Vacant slot indices, reused LIFO by `reserve`.
    free: Vec<u32>,
}

impl JobsTable {
    /// Every occupant's in-flight count is zero.
    pub(super) fn idle(&self) -> bool {
        self.slots.iter().all(|s| {
            s.job
                .as_ref()
                .is_none_or(|j| j.inflight.load(Ordering::SeqCst) == 0)
        })
    }

    /// Every slot's generation and its occupant's operator state, in
    /// slot order.
    pub(super) fn snapshot(&self) -> Vec<SlotSnapshot> {
        self.slots
            .iter()
            .map(|s| SlotSnapshot {
                gen: s.gen,
                job: s.job.as_ref().map(|jrt| JobSnapshot {
                    name: jrt.name.clone(),
                    instances: jrt
                        .instances
                        .iter()
                        .map(|m| relock(m).state_snapshot())
                        .collect(),
                }),
            })
            .collect()
    }

    /// Grow the table with vacant, free slots up to and including
    /// `slot`: recovery places slots by journaled index, not in deploy
    /// order.
    fn grow_to(&mut self, slot: u32) {
        while self.slots.len() <= slot as usize {
            self.free.push(self.slots.len() as u32);
            self.slots.push(JobSlot { gen: 0, job: None });
        }
    }
}

/// The jobs table behind its lock.
#[derive(Default)]
pub(super) struct Jobs(RwLock<JobsTable>);

impl Jobs {
    /// The table under its read lock.
    pub(super) fn read(&self) -> RwLockReadGuard<'_, JobsTable> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, JobsTable> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot's occupant, when the handle's generation is current.
    pub(super) fn get(&self, handle: JobHandle) -> Result<Arc<JobRt>, JobError> {
        let jobs = self.read();
        let slot = jobs
            .slots
            .get(handle.slot as usize)
            .ok_or(JobError::NotFound)?;
        if slot.gen != handle.gen {
            return Err(JobError::Stale);
        }
        // Generation bumps and occupancy change together under the
        // write lock, so a matching generation implies an occupant;
        // stay defensive anyway.
        slot.job.clone().ok_or(JobError::Stale)
    }

    /// The current occupant of a raw slot index (wire-level lookup).
    pub(super) fn occupant(&self, slot: u32) -> Option<Arc<JobRt>> {
        self.read()
            .slots
            .get(slot as usize)
            .and_then(|s| s.job.clone())
    }

    /// Reserve a vacant slot for a new job, reusing a freed one first.
    pub(super) fn reserve(&self) -> Reservation<'_> {
        let mut jobs = self.write();
        let slot = match jobs.free.pop() {
            Some(s) => s,
            None => {
                jobs.slots.push(JobSlot { gen: 0, job: None });
                (jobs.slots.len() - 1) as u32
            }
        };
        let gen = jobs.slots[slot as usize].gen;
        Reservation::new(self, slot, gen)
    }

    /// Reserve `slot` at `gen` for recovery, exactly as journaled,
    /// growing the table to reach it.
    pub(super) fn claim(&self, slot: u32, gen: u32) -> Reservation<'_> {
        let mut jobs = self.write();
        jobs.grow_to(slot);
        jobs.free.retain(|&s| s != slot);
        jobs.slots[slot as usize] = JobSlot { gen, job: None };
        Reservation::new(self, slot, gen)
    }

    /// Restore a snapshotted vacant slot: it stays free, at `gen`, so
    /// pre-crash handles to its last occupant stay stale.
    pub(super) fn restore_vacant(&self, slot: u32, gen: u32) {
        let mut jobs = self.write();
        jobs.grow_to(slot);
        jobs.slots[slot as usize].gen = gen;
    }

    /// Whether a replayed `Deploy` of `slot` at `gen` is already
    /// reflected: the slot holds that generation occupied (restored from
    /// the snapshot) or has advanced past it (a later undeploy was
    /// snapshotted too).
    pub(super) fn reflects_deploy(&self, slot: u32, gen: u32) -> bool {
        self.read()
            .slots
            .get(slot as usize)
            .is_some_and(|s| s.gen > gen || (s.gen == gen && s.job.is_some()))
    }

    /// Retire `handle`'s job: vacate its slot and bump the generation,
    /// run `purge` with no jobs lock held, and only then free the slot —
    /// the order `Runtime::undeploy_within` documents. Returns `purge`'s
    /// result.
    pub(super) fn retire<R>(&self, handle: JobHandle, purge: impl FnOnce() -> R) -> R {
        {
            let mut jobs = self.write();
            let slot = &mut jobs.slots[handle.slot as usize];
            slot.job = None;
            slot.gen = slot.gen.wrapping_add(1);
        }
        let purged = purge();
        self.write().free.push(handle.slot);
        purged
    }
}

/// A reserved, not yet occupied slot. Dropping it before
/// [`install`](Self::install) succeeds hands the slot back — also on a
/// panic in a user-supplied operator factory, which would otherwise
/// leak one vacant slot per failed deploy. Expansion runs with no jobs
/// lock held, so a large job cannot stall every worker's per-message
/// read; a reserved slot has no handle yet, and wire frames addressing
/// it are dropped as vacant.
pub(super) struct Reservation<'a> {
    jobs: &'a Jobs,
    handle: JobHandle,
    armed: bool,
}

impl<'a> Reservation<'a> {
    fn new(jobs: &'a Jobs, slot: u32, gen: u32) -> Self {
        Reservation {
            jobs,
            handle: JobHandle { slot, gen },
            armed: true,
        }
    }

    /// Expand `spec` for this slot and occupy it: the one install path
    /// of `deploy` and recovery alike. Returns the new occupant's handle
    /// and runtime side.
    pub(super) fn install(
        mut self,
        spec: &JobSpec,
        opts: &ExpandOptions,
    ) -> Result<(JobHandle, Arc<JobRt>), GraphError> {
        let JobHandle { slot, gen } = self.handle;
        let exp = ExpandedJob::expand(spec, JobId(slot), opts)?;
        let job = Arc::new(JobRt::new(exp, gen));
        self.jobs.write().slots[slot as usize].job = Some(job.clone());
        self.armed = false;
        Ok((self.handle, job))
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.jobs.write().free.push(self.handle.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_dataflow::queries::{agg_query, AggQueryParams};

    fn spec() -> JobSpec {
        agg_query(&AggQueryParams::new("t", 1_000, Micros::from_millis(500)))
    }

    fn is_free(jobs: &Jobs, slot: u32) -> bool {
        jobs.read().free.contains(&slot)
    }

    /// Occupy a fresh slot, as `deploy` does.
    fn deploy(jobs: &Jobs) -> JobHandle {
        let reservation = jobs.reserve();
        reservation
            .install(&spec(), &ExpandOptions::default())
            .unwrap()
            .0
    }

    #[test]
    fn a_dropped_reservation_hands_the_same_slot_back() {
        let jobs = Jobs::default();
        let first = deploy(&jobs);
        let dropped = jobs.reserve().handle;
        assert_eq!(dropped.slot, first.slot + 1);
        assert!(is_free(&jobs, dropped.slot));
        assert_eq!(jobs.reserve().handle, dropped);
    }

    #[test]
    fn retire_vacates_before_the_purge_and_frees_after_it() {
        let jobs = Jobs::default();
        let handle = deploy(&jobs);
        assert!(jobs.get(handle).is_ok());
        let purged = jobs.retire(handle, || {
            assert_eq!(jobs.get(handle).err(), Some(JobError::Stale));
            assert!(!is_free(&jobs, handle.slot), "freed before the purge");
            7
        });
        assert_eq!(purged, 7);
        assert!(is_free(&jobs, handle.slot));
        let heir = jobs.reserve().handle;
        assert_eq!((heir.slot, heir.gen), (handle.slot, handle.gen + 1));
    }

    #[test]
    fn a_claim_grows_the_table_with_free_slots_below_it() {
        let jobs = Jobs::default();
        let job = jobs.claim(5, 3).install(&spec(), &ExpandOptions::default());
        let (handle, _) = job.unwrap();
        assert_eq!(handle, JobHandle { slot: 5, gen: 3 });
        assert!((0..5).all(|s| is_free(&jobs, s)));
        assert!(!is_free(&jobs, 5));
        assert!(jobs.get(handle).is_ok());
    }

    #[test]
    fn a_restored_vacant_slot_is_reserved_at_its_generation() {
        let jobs = Jobs::default();
        jobs.restore_vacant(0, 4);
        assert!(is_free(&jobs, 0));
        assert_eq!(
            jobs.get(JobHandle { slot: 0, gen: 3 }).err(),
            Some(JobError::Stale)
        );
        assert_eq!(jobs.reserve().handle, JobHandle { slot: 0, gen: 4 });
    }

    #[test]
    fn a_replayed_deploy_is_skipped_only_when_already_reflected() {
        let jobs = Jobs::default();
        let live = deploy(&jobs);
        assert!(
            jobs.reflects_deploy(live.slot, live.gen),
            "same generation, occupied"
        );
        jobs.retire(live, || ());
        assert!(
            jobs.reflects_deploy(live.slot, live.gen),
            "an older generation"
        );
        assert!(
            !jobs.reflects_deploy(live.slot, live.gen + 1),
            "a vacant slot at the same generation"
        );
        assert!(!jobs.reflects_deploy(9, 0), "a slot past the table");
    }
}
