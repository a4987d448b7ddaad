//! Per-node run queues ("dispatchers") — the schedulers under test.
//!
//! Four dispatchers reproduce the four systems the paper compares:
//!
//! * [`CameoDispatcher`] — the two-level priority scheduler of §5
//!   (also used for the FIFO baseline, by building priority contexts
//!   with the FIFO policy: arrival order becomes the priority).
//! * [`OrleansDispatcher`] — models the default Orleans scheduler: a
//!   .NET `ConcurrentBag` work pool where workers prefer thread-local
//!   work (LIFO) over the shared global queue, stealing when idle
//!   (§6: "ConcurrentBag optimizes processing throughput by
//!   prioritizing processing thread-local tasks over the global ones").
//! * [`SlotDispatcher`] — the slot-based strawman of Fig 1: every
//!   operator is pinned to one worker; no work sharing at all.
//!
//! All dispatchers enforce actor semantics: an operator is *leased* to
//! at most one worker at a time.

use crate::message::SimMsg;
use cameo_core::config::SchedulerConfig;
use cameo_core::ids::OperatorKey;
use cameo_core::priority::Priority;
use cameo_core::scheduler::{Decision, Execution, SchedulerStats};
use cameo_core::shard::ShardedScheduler;
use cameo_core::time::{Micros, PhysicalTime};
use std::collections::{HashMap, VecDeque};

/// An operator checked out by a worker.
pub struct DispatchLease {
    pub key: OperatorKey,
    /// Backing lease for the Cameo dispatcher.
    exec: Option<Execution>,
    acquired_at: PhysicalTime,
}

/// The run-queue interface every scheduler-under-test implements.
pub trait Dispatcher: Send {
    /// Enqueue a message. `hint` is the worker that produced the
    /// message locally (thread-affinity for the Orleans model).
    fn submit(&mut self, key: OperatorKey, msg: SimMsg, pri: Priority, hint: Option<u16>);
    /// Check out an operator for `worker`.
    fn acquire(&mut self, worker: u16, now: PhysicalTime) -> Option<DispatchLease>;
    /// Next message of the leased operator.
    fn take(&mut self, lease: &DispatchLease) -> Option<SimMsg>;
    /// After finishing a message: keep draining, swap away, or idle.
    fn decide(&mut self, lease: &DispatchLease, now: PhysicalTime) -> Decision;
    /// Return the lease (worker needed so local re-queues land right).
    fn release(&mut self, lease: DispatchLease, worker: u16);
    /// Retire a departing job: drop every queued message of its
    /// operators and refuse it from the run queue. Returns the number
    /// of messages purged. Mirrors the production scheduler's
    /// [`ShardedScheduler::retire_job`] so churn scenarios exercise the
    /// same lifecycle deterministically.
    fn retire_job(&mut self, job: cameo_core::ids::JobId) -> usize;
    /// Scheduling counters, if the dispatcher keeps them.
    fn stats(&self) -> SchedulerStats {
        SchedulerStats::default()
    }
}

// ---------------------------------------------------------------- Cameo

/// The paper's scheduler: wraps the runtime's [`ShardedScheduler`] (the
/// two-level priority queue of §5.2 with its quantum logic, fed through
/// a submission mailbox). The simulator's event loop stays bit-for-bit
/// deterministic: `submit` parks messages in the mailbox, and the
/// scheduler folds the mailbox into the two-level queue *in submission
/// order* before every simulated acquire/take/decide/release it
/// performs, so the queue state at every observation point is that of a
/// bare `CameoScheduler` submitted to directly. Every worker of a node
/// shares it, as every worker of a runtime does.
pub struct CameoDispatcher {
    inner: ShardedScheduler<SimMsg>,
}

impl CameoDispatcher {
    pub fn new(config: SchedulerConfig) -> Self {
        CameoDispatcher {
            inner: ShardedScheduler::new(config),
        }
    }
}

impl Dispatcher for CameoDispatcher {
    fn submit(&mut self, key: OperatorKey, msg: SimMsg, pri: Priority, _hint: Option<u16>) {
        self.inner.submit(key, msg, pri);
    }

    fn acquire(&mut self, _worker: u16, now: PhysicalTime) -> Option<DispatchLease> {
        let exec = self.inner.acquire(0, now)?;
        Some(DispatchLease {
            key: exec.key(),
            acquired_at: now,
            exec: Some(exec),
        })
    }

    fn take(&mut self, lease: &DispatchLease) -> Option<SimMsg> {
        let exec = lease.exec.as_ref().expect("cameo lease");
        self.inner.take_message(exec).map(|(m, _)| m)
    }

    fn decide(&mut self, lease: &DispatchLease, now: PhysicalTime) -> Decision {
        let exec = lease.exec.as_ref().expect("cameo lease");
        self.inner.decide(exec, now)
    }

    fn release(&mut self, lease: DispatchLease, _worker: u16) {
        let exec = lease.exec.expect("cameo lease");
        self.inner.release(exec);
    }

    fn retire_job(&mut self, job: cameo_core::ids::JobId) -> usize {
        self.inner.retire_job(job)
    }

    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}

// -------------------------------------------------------------- Orleans

/// Per-operator FIFO state shared by the Orleans and Slot baselines:
/// a message queue plus the queued/leased flags their run queues key on.
#[derive(Default)]
struct QueuedOp {
    msgs: VecDeque<SimMsg>,
    queued: bool,
    leased: bool,
}

/// Shared churn purge over a baseline dispatcher's operator map: drop
/// the job's queued messages and remove its operators, keeping
/// still-leased entries (their `release` bookkeeping must stay valid).
/// Returns the number of messages dropped; the caller prunes its own
/// run-queue structures.
fn purge_queued_ops(
    ops: &mut HashMap<OperatorKey, QueuedOp>,
    job: cameo_core::ids::JobId,
) -> usize {
    let mut purged = 0usize;
    ops.retain(|key, op| {
        if key.job != job {
            return true;
        }
        purged += op.msgs.len();
        op.msgs.clear();
        op.queued = false;
        op.leased
    });
    purged
}

/// Models the default Orleans/.NET ConcurrentBag scheduler: per-worker
/// LIFO stacks of activations, a shared FIFO overflow, and stealing.
/// Priorities are ignored entirely; activations drain their mailboxes
/// in FIFO order for up to one quantum.
pub struct OrleansDispatcher {
    locals: Vec<Vec<OperatorKey>>,
    global: VecDeque<OperatorKey>,
    ops: HashMap<OperatorKey, QueuedOp>,
    quantum: Micros,
    stats: SchedulerStats,
}

impl OrleansDispatcher {
    pub fn new(workers: u16, quantum: Micros) -> Self {
        OrleansDispatcher {
            locals: vec![Vec::new(); workers as usize],
            global: VecDeque::new(),
            ops: HashMap::new(),
            quantum,
            stats: SchedulerStats::default(),
        }
    }

    fn any_other_work(&self) -> bool {
        !self.global.is_empty() || self.locals.iter().any(|l| !l.is_empty())
    }
}

impl Dispatcher for OrleansDispatcher {
    fn submit(&mut self, key: OperatorKey, msg: SimMsg, _pri: Priority, hint: Option<u16>) {
        let op = self.ops.entry(key).or_default();
        op.msgs.push_back(msg);
        if !op.queued && !op.leased {
            op.queued = true;
            match hint {
                // Thread-local work: the producing worker sees it first.
                Some(w) => self.locals[w as usize].push(key),
                None => self.global.push_back(key),
            }
        }
    }

    fn acquire(&mut self, worker: u16, now: PhysicalTime) -> Option<DispatchLease> {
        let w = worker as usize;
        // Local LIFO first, then the global queue, then steal the
        // oldest entry from the busiest sibling.
        let key = self.locals[w]
            .pop()
            .or_else(|| self.global.pop_front())
            .or_else(|| {
                let victim = (0..self.locals.len())
                    .filter(|&v| v != w && !self.locals[v].is_empty())
                    .max_by_key(|&v| self.locals[v].len())?;
                Some(self.locals[victim].remove(0))
            })?;
        let op = self.ops.get_mut(&key).expect("queued op exists");
        op.queued = false;
        op.leased = true;
        self.stats.operator_acquisitions += 1;
        Some(DispatchLease {
            key,
            exec: None,
            acquired_at: now,
        })
    }

    fn take(&mut self, lease: &DispatchLease) -> Option<SimMsg> {
        let op = self.ops.get_mut(&lease.key)?;
        let m = op.msgs.pop_front();
        if m.is_some() {
            self.stats.messages_scheduled += 1;
        }
        m
    }

    fn decide(&mut self, lease: &DispatchLease, now: PhysicalTime) -> Decision {
        let op = self.ops.get(&lease.key).expect("leased op exists");
        if op.msgs.is_empty() {
            return Decision::Idle;
        }
        if now.since(lease.acquired_at) >= self.quantum && self.any_other_work() {
            self.stats.quantum_swaps += 1;
            Decision::Swap
        } else {
            Decision::Continue
        }
    }

    fn release(&mut self, lease: DispatchLease, _worker: u16) {
        let op = self.ops.get_mut(&lease.key).expect("leased op exists");
        op.leased = false;
        if !op.msgs.is_empty() && !op.queued {
            op.queued = true;
            // A preempted activation rejoins the shared queue.
            self.global.push_back(lease.key);
        }
    }

    fn retire_job(&mut self, job: cameo_core::ids::JobId) -> usize {
        let purged = purge_queued_ops(&mut self.ops, job);
        self.global.retain(|k| k.job != job);
        for l in self.locals.iter_mut() {
            l.retain(|k| k.job != job);
        }
        purged
    }

    fn stats(&self) -> SchedulerStats {
        self.stats
    }
}

// ----------------------------------------------------------------- Slot

/// Slot-based execution (Fig 1's Flink-on-YARN strawman): operators are
/// pinned round-robin to workers at first sight; a worker only ever
/// runs its own operators, in FIFO order. Perfect isolation, no
/// sharing — and correspondingly low utilization.
pub struct SlotDispatcher {
    pins: HashMap<OperatorKey, u16>,
    runnable: Vec<VecDeque<OperatorKey>>,
    ops: HashMap<OperatorKey, QueuedOp>,
    next_pin: u16,
    workers: u16,
    stats: SchedulerStats,
}

impl SlotDispatcher {
    pub fn new(workers: u16) -> Self {
        SlotDispatcher {
            pins: HashMap::new(),
            runnable: vec![VecDeque::new(); workers as usize],
            ops: HashMap::new(),
            next_pin: 0,
            workers,
            stats: SchedulerStats::default(),
        }
    }

    fn pin_of(&mut self, key: OperatorKey) -> u16 {
        if let Some(&w) = self.pins.get(&key) {
            return w;
        }
        let w = self.next_pin % self.workers;
        self.next_pin = self.next_pin.wrapping_add(1);
        self.pins.insert(key, w);
        w
    }
}

impl Dispatcher for SlotDispatcher {
    fn submit(&mut self, key: OperatorKey, msg: SimMsg, _pri: Priority, _hint: Option<u16>) {
        let w = self.pin_of(key);
        let op = self.ops.entry(key).or_default();
        op.msgs.push_back(msg);
        if !op.queued && !op.leased {
            op.queued = true;
            self.runnable[w as usize].push_back(key);
        }
    }

    fn acquire(&mut self, worker: u16, now: PhysicalTime) -> Option<DispatchLease> {
        let key = self.runnable[worker as usize].pop_front()?;
        let op = self.ops.get_mut(&key).expect("queued op exists");
        op.queued = false;
        op.leased = true;
        self.stats.operator_acquisitions += 1;
        Some(DispatchLease {
            key,
            exec: None,
            acquired_at: now,
        })
    }

    fn take(&mut self, lease: &DispatchLease) -> Option<SimMsg> {
        let op = self.ops.get_mut(&lease.key)?;
        let m = op.msgs.pop_front();
        if m.is_some() {
            self.stats.messages_scheduled += 1;
        }
        m
    }

    fn decide(&mut self, lease: &DispatchLease, _now: PhysicalTime) -> Decision {
        let op = self.ops.get(&lease.key).expect("leased op exists");
        if op.msgs.is_empty() {
            Decision::Idle
        } else {
            Decision::Continue
        }
    }

    fn release(&mut self, lease: DispatchLease, _worker: u16) {
        let w = self.pins[&lease.key];
        let op = self.ops.get_mut(&lease.key).expect("leased op exists");
        op.leased = false;
        if !op.msgs.is_empty() && !op.queued {
            op.queued = true;
            self.runnable[w as usize].push_back(lease.key);
        }
    }

    fn retire_job(&mut self, job: cameo_core::ids::JobId) -> usize {
        let purged = purge_queued_ops(&mut self.ops, job);
        for r in self.runnable.iter_mut() {
            r.retain(|k| k.job != job);
        }
        // Pins are dropped too, so a redeployed job id re-pins from
        // scratch — except for still-leased operators, whose `release`
        // consults the pin.
        let ops = &self.ops;
        self.pins.retain(|k, _| k.job != job || ops.contains_key(k));
        purged
    }

    fn stats(&self) -> SchedulerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SimMsg;
    use cameo_core::context::PriorityContext;
    use cameo_core::ids::{JobId, MessageId};
    use cameo_dataflow::event::Batch;

    fn key(op: u32) -> OperatorKey {
        OperatorKey::new(JobId(0), op)
    }

    fn msg(tag: u64) -> SimMsg {
        SimMsg {
            channel: 0,
            batch: Batch::new(vec![], PhysicalTime(tag)),
            pc: PriorityContext::initialize(MessageId(tag), JobId(0), Micros(0)),
            sender: None,
        }
    }

    fn pri(g: i64) -> Priority {
        Priority::new(0, g)
    }

    #[test]
    fn cameo_dispatcher_orders_by_priority() {
        let mut d = CameoDispatcher::new(SchedulerConfig::default());
        d.submit(key(1), msg(1), pri(100), None);
        d.submit(key(2), msg(2), pri(5), None);
        let lease = d.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(lease.key, key(2));
        assert!(d.take(&lease).is_some());
        d.release(lease, 0);
        let lease = d.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(lease.key, key(1), "the other message is still queued");
    }

    #[test]
    fn orleans_prefers_local_lifo() {
        let mut d = OrleansDispatcher::new(2, Micros(1_000));
        d.submit(key(1), msg(1), pri(0), None); // global
        d.submit(key(2), msg(2), pri(0), Some(0)); // local to worker 0
        d.submit(key(3), msg(3), pri(0), Some(0)); // local to worker 0 (on top)
        let lease = d.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(lease.key, key(3), "LIFO: most recent local first");
        d.release(lease, 0);
        let lease = d.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(lease.key, key(2));
        d.release(lease, 0);
        let lease = d.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(lease.key, key(1), "global last");
        d.release(lease, 0);
    }

    #[test]
    fn orleans_steals_when_idle() {
        let mut d = OrleansDispatcher::new(2, Micros(1_000));
        d.submit(key(1), msg(1), pri(0), Some(0));
        let lease = d.acquire(1, PhysicalTime::ZERO).unwrap();
        assert_eq!(lease.key, key(1), "worker 1 steals worker 0's local work");
        d.release(lease, 1);
    }

    #[test]
    fn orleans_quantum_swaps_only_with_other_work() {
        let mut d = OrleansDispatcher::new(1, Micros(100));
        d.submit(key(1), msg(1), pri(0), None);
        d.submit(key(1), msg(2), pri(0), None);
        let lease = d.acquire(0, PhysicalTime::ZERO).unwrap();
        let _ = d.take(&lease);
        // No other operator pending: keep draining even past quantum.
        assert_eq!(d.decide(&lease, PhysicalTime(500)), Decision::Continue);
        d.submit(key(2), msg(3), pri(0), None);
        assert_eq!(d.decide(&lease, PhysicalTime(500)), Decision::Swap);
        d.release(lease, 0);
    }

    #[test]
    fn orleans_leased_op_not_double_acquired() {
        let mut d = OrleansDispatcher::new(2, Micros(1_000));
        d.submit(key(1), msg(1), pri(0), None);
        let lease = d.acquire(0, PhysicalTime::ZERO).unwrap();
        // New message while leased must not re-queue the operator.
        d.submit(key(1), msg(2), pri(0), None);
        assert!(d.acquire(1, PhysicalTime::ZERO).is_none());
        d.release(lease, 0);
        assert!(d.acquire(1, PhysicalTime::ZERO).is_some());
    }

    #[test]
    fn slot_pins_operators_to_workers() {
        let mut d = SlotDispatcher::new(2);
        d.submit(key(1), msg(1), pri(0), None); // pinned to worker 0
        d.submit(key(2), msg(2), pri(0), None); // pinned to worker 1
        d.submit(key(3), msg(3), pri(0), None); // pinned to worker 0
        let l = d.acquire(1, PhysicalTime::ZERO).unwrap();
        assert_eq!(l.key, key(2));
        let _ = d.take(&l).unwrap();
        d.release(l, 1);
        // Worker 1 has nothing else even though worker 0 has two ops.
        assert!(d.acquire(1, PhysicalTime::ZERO).is_none());
        let l = d.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(l.key, key(1));
        let _ = d.take(&l).unwrap();
        d.release(l, 0);
    }

    #[test]
    fn slot_drains_own_operator_fifo() {
        let mut d = SlotDispatcher::new(1);
        d.submit(key(1), msg(1), pri(0), None);
        d.submit(key(1), msg(2), pri(0), None);
        let lease = d.acquire(0, PhysicalTime::ZERO).unwrap();
        assert_eq!(d.take(&lease).unwrap().batch.time, PhysicalTime(1));
        assert_eq!(d.decide(&lease, PhysicalTime(9999)), Decision::Continue);
        assert_eq!(d.take(&lease).unwrap().batch.time, PhysicalTime(2));
        assert_eq!(d.decide(&lease, PhysicalTime(9999)), Decision::Idle);
        d.release(lease, 0);
    }
}
