//! The worker step: the one lease loop of §5.2, which the runtime's
//! workers and the simulator both turn.
//!
//! [`WorkerStep`] holds a worker's lease between turns and answers one
//! question: what does this worker run next at `now`? After a message
//! it decides, then takes again or releases; from idle it acquires and
//! takes; a lease acquired elsewhere (a yield point's) is taken from
//! without deciding. A `take` that finds the operator dry releases the
//! lease. A nested step has no worker index, so it never acquires. The
//! engines only choose when to turn the step.

use crate::ids::OperatorKey;
use crate::priority::Priority;
use crate::scheduler::{Decision, Execution};
use crate::time::PhysicalTime;

/// The run-queue calls a worker step makes. The runtime's
/// [`ShardedScheduler`](crate::shard::ShardedScheduler) is one, and so
/// is each of the simulator's baseline dispatchers.
pub trait RunQueue<M> {
    /// Check out an operator for `worker`, if one is runnable at `now`.
    fn acquire(&mut self, worker: u16, now: PhysicalTime) -> Option<Execution>;
    /// The leased operator's next message and its priority.
    fn take(&mut self, lease: &Execution) -> Option<(M, Priority)>;
    /// After a message: keep draining, swap away, or idle.
    fn decide(&mut self, lease: &Execution, now: PhysicalTime) -> Decision;
    /// Return a lease.
    fn release(&mut self, lease: Execution);
}

/// What one turn of a [`WorkerStep`] hands the worker.
#[derive(Debug, PartialEq, Eq)]
pub enum StepOutcome<M> {
    /// Run this message of the leased operator, then turn again.
    Run(OperatorKey, M, Priority),
    /// The lease ended (swapped, idle or dry) and was released.
    Released,
    /// Nothing to run.
    Empty,
}

#[derive(Debug, Default)]
enum Held {
    #[default]
    Nothing,
    /// No message taken yet: the next turn takes without deciding.
    Fresh(Execution),
    /// The worker has run a message: the next turn decides.
    Ran(Execution),
}

/// One worker's place in the lease loop.
#[derive(Debug)]
pub struct WorkerStep {
    /// What `acquire` gets; `None` for a nested step.
    worker: Option<u16>,
    held: Held,
}

impl WorkerStep {
    /// An idle step for `worker`.
    pub fn new(worker: u16) -> Self {
        WorkerStep {
            worker: Some(worker),
            held: Held::Nothing,
        }
    }

    /// A step that drains `lease`, acquired by a yield point, and never
    /// acquires.
    pub fn nested(lease: Execution) -> Self {
        WorkerStep {
            worker: None,
            held: Held::Fresh(lease),
        }
    }

    /// True while the step holds a lease, so the worker must not be
    /// handed another operator.
    pub fn holds(&self) -> bool {
        !matches!(self.held, Held::Nothing)
    }

    /// Turn the step once at `now`.
    pub fn next<M>(
        &mut self,
        q: &mut (impl RunQueue<M> + ?Sized),
        now: PhysicalTime,
    ) -> StepOutcome<M> {
        let lease = match std::mem::take(&mut self.held) {
            Held::Nothing => match self.worker.and_then(|w| q.acquire(w, now)) {
                Some(lease) => lease,
                None => return StepOutcome::Empty,
            },
            Held::Fresh(lease) => lease,
            Held::Ran(lease) if q.decide(&lease, now) == Decision::Continue => lease,
            Held::Ran(lease) => {
                q.release(lease);
                return StepOutcome::Released;
            }
        };
        let Some((msg, pri)) = q.take(&lease) else {
            q.release(lease);
            return StepOutcome::Released;
        };
        let key = lease.key();
        self.held = Held::Ran(lease);
        StepOutcome::Run(key, msg, pri)
    }

    /// Release the held lease without deciding: the worker dropped the
    /// message it ran.
    pub fn release<M>(&mut self, q: &mut (impl RunQueue<M> + ?Sized)) {
        if let Held::Fresh(lease) | Held::Ran(lease) = std::mem::take(&mut self.held) {
            q.release(lease);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;
    use std::collections::VecDeque;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Acquire,
        Take,
        Decide,
        Release,
    }
    use Call::*;

    /// A run queue that answers from a script and logs every call.
    struct Script {
        /// What each `acquire` hands out: an operator, or none.
        acquires: VecDeque<Option<u32>>,
        /// What each `take` returns.
        takes: VecDeque<Option<u64>>,
        /// What each `decide` returns.
        decides: VecDeque<Decision>,
        log: Vec<Call>,
        /// Leases handed out (by `acquire` or `lease`) and not released.
        outstanding: usize,
    }

    impl Script {
        fn new(acquires: &[Option<u32>], takes: &[Option<u64>], decides: &[Decision]) -> Self {
            Script {
                acquires: acquires.iter().copied().collect(),
                takes: takes.iter().copied().collect(),
                decides: decides.iter().copied().collect(),
                log: Vec::new(),
                outstanding: 0,
            }
        }

        /// A lease a yield point acquired outside the step.
        fn lease(&mut self, op: u32) -> Execution {
            self.outstanding += 1;
            Execution::new(OperatorKey::new(JobId(0), op), PhysicalTime::ZERO)
        }

        /// The script was played to its end and every lease came back.
        fn assert_done(&self) {
            assert_eq!(self.outstanding, 0, "{:?}", self.log);
            assert!(self.acquires.is_empty() && self.takes.is_empty() && self.decides.is_empty());
        }
    }

    impl RunQueue<u64> for Script {
        fn acquire(&mut self, _worker: u16, _now: PhysicalTime) -> Option<Execution> {
            self.log.push(Acquire);
            let op = self.acquires.pop_front().expect("scripted acquire")?;
            Some(self.lease(op))
        }

        fn take(&mut self, _lease: &Execution) -> Option<(u64, Priority)> {
            self.log.push(Take);
            let msg = self.takes.pop_front().expect("scripted take")?;
            Some((msg, Priority::uniform(msg as i64)))
        }

        fn decide(&mut self, _lease: &Execution, _now: PhysicalTime) -> Decision {
            self.log.push(Decide);
            self.decides.pop_front().expect("scripted decide")
        }

        fn release(&mut self, _lease: Execution) {
            self.log.push(Release);
            self.outstanding -= 1;
        }
    }

    fn run(op: u32, msg: u64) -> StepOutcome<u64> {
        let pri = Priority::uniform(msg as i64);
        StepOutcome::Run(OperatorKey::new(JobId(0), op), msg, pri)
    }

    const T0: PhysicalTime = PhysicalTime::ZERO;

    #[test]
    fn a_fresh_lease_takes_without_deciding() {
        let mut q = Script::new(&[Some(1)], &[Some(10)], &[]);
        let mut step = WorkerStep::new(0);
        assert!(!step.holds());
        assert_eq!(step.next(&mut q, T0), run(1, 10));
        assert!(step.holds());
        assert_eq!(q.log, [Acquire, Take]);

        let mut q = Script::new(&[], &[Some(20)], &[]);
        let mut nested = WorkerStep::nested(q.lease(2));
        assert_eq!(nested.next(&mut q, T0), run(2, 20));
        assert_eq!(q.log, [Take]);
    }

    #[test]
    fn continue_takes_again() {
        let continues = [Decision::Continue; 2];
        let mut q = Script::new(&[Some(1)], &[Some(10), Some(11), Some(12)], &continues);
        let mut step = WorkerStep::new(0);
        for msg in 10..13 {
            assert_eq!(step.next(&mut q, PhysicalTime(msg)), run(1, msg));
        }
        assert_eq!(q.log, [Acquire, Take, Decide, Take, Decide, Take]);
    }

    #[test]
    fn a_lease_that_ends_is_released_once_then_the_step_acquires() {
        // After a swap, after an idle decision, and after a `take` that
        // finds the continuing operator purged.
        for decision in [Decision::Swap, Decision::Idle, Decision::Continue] {
            let purged = decision == Decision::Continue;
            let takes: &[Option<u64>] = if purged {
                &[Some(10), None, Some(20)]
            } else {
                &[Some(10), Some(20)]
            };
            let ending: &[Call] = if purged {
                &[Decide, Take, Release]
            } else {
                &[Decide, Release]
            };
            let mut q = Script::new(&[Some(1), Some(2)], takes, &[decision]);
            let mut step = WorkerStep::new(0);
            assert_eq!(step.next(&mut q, T0), run(1, 10));
            q.log.clear();
            assert_eq!(step.next(&mut q, T0), StepOutcome::Released, "{decision:?}");
            assert!(!step.holds());
            assert_eq!(q.log, ending, "{decision:?}");
            assert_eq!(step.next(&mut q, T0), run(2, 20), "{decision:?}");
            assert_eq!(q.log[ending.len()..], [Acquire, Take], "{decision:?}");
            step.release(&mut q);
            q.assert_done();
        }

        // A freshly acquired operator that was purged before its take.
        let mut q = Script::new(&[Some(1), None], &[None], &[]);
        let mut step = WorkerStep::new(0);
        assert_eq!(step.next(&mut q, T0), StepOutcome::Released);
        assert_eq!(step.next(&mut q, T0), StepOutcome::Empty);
        assert_eq!(q.log, [Acquire, Take, Release, Acquire]);
        q.assert_done();
    }

    #[test]
    fn a_nested_lease_never_acquires() {
        let decides = [Decision::Continue, Decision::Idle];
        let mut q = Script::new(&[], &[Some(10), Some(11)], &decides);
        let mut nested = WorkerStep::nested(q.lease(1));
        assert_eq!(nested.next(&mut q, T0), run(1, 10));
        assert_eq!(nested.next(&mut q, T0), run(1, 11));
        assert_eq!(nested.next(&mut q, T0), StepOutcome::Released);
        assert_eq!(nested.next(&mut q, T0), StepOutcome::Empty);
        assert_eq!(q.log, [Take, Decide, Take, Decide, Release]);
        q.assert_done();

        // A nested lease that is dry from the start.
        let mut q = Script::new(&[], &[None], &[]);
        let mut nested = WorkerStep::nested(q.lease(1));
        assert_eq!(nested.next(&mut q, T0), StepOutcome::Released);
        assert_eq!(nested.next(&mut q, T0), StepOutcome::Empty);
        assert_eq!(q.log, [Take, Release]);
        q.assert_done();
    }

    #[test]
    fn every_acquire_is_matched_by_exactly_one_release() {
        // Idle turns, a swap, continues, an idle decision, a purged
        // operator, and a dropped message's release.
        use Decision::{Continue, Idle, Swap};
        let acquires = [None, Some(1), Some(2), None, Some(3), Some(4), Some(5)];
        let takes = [1, 2, 3, 4, 0, 5, 6, 7].map(|m| (m > 0).then_some(m));
        let mut q = Script::new(
            &acquires,
            &takes,
            &[Continue, Swap, Continue, Idle, Continue],
        );
        let mut step = WorkerStep::new(0);
        let mut outcomes = Vec::new();
        for turn in 0..12 {
            if turn == 10 {
                // The worker dropped message 5: no decide before the
                // next acquire.
                step.release(&mut q);
            }
            outcomes.push(match step.next(&mut q, PhysicalTime(turn)) {
                StepOutcome::Run(_, msg, _) => msg as i64,
                StepOutcome::Released => -1,
                StepOutcome::Empty => -2,
            });
        }
        assert_eq!(outcomes, [-2, 1, 2, -1, 3, 4, -1, -2, -1, 5, 6, 7]);
        step.release(&mut q);
        step.release(&mut q);
        q.assert_done();
        let releases = q.log.iter().filter(|&&c| c == Release).count();
        assert_eq!(releases, 5, "one per operator handed out");
    }
}
