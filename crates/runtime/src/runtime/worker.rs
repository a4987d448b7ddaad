//! The worker pool's threads: each turns one [`WorkerStep`] and runs
//! the messages it hands out.
//!
//! ## Scheduling path
//!
//! Every worker drives one `ShardedScheduler`: a single
//! `CameoScheduler` behind one lock, which every worker takes for its
//! `acquire`/`take`/`decide`/`release` calls (`cameo_core::shard` says
//! why one lock and not per-worker shards). A worker makes those calls
//! through its [`WorkerStep`], the one lease loop the simulator turns
//! too: it runs each message the step hands out, checks for shutdown at
//! each lease boundary, and parks when the step has nothing to run.
//!
//! Ingress stays *off the scheduler lock*: `submit` pushes into the
//! scheduler's mailbox under the mailbox's own inbox lock, lowers the
//! tier hint, and wakes a parked worker — it never takes the scheduler
//! mutex, so ingest threads (TCP sources, operator fan-out) cannot
//! block a dispatching worker. Ingress is also *batched end to end*:
//! source batches (`Runtime::ingest`), whole socket reads
//! (`Runtime::ingest_frames` — every frame one TCP read completed,
//! see `crate::net`), journal replay and operator fan-out route straight
//! into one `ShardedScheduler::batch` each, paying one mailbox
//! publication, one hint update and one wake per call instead of per
//! message. The first three share one admission routine, so a replayed
//! record takes exactly the path its live call took.
//! Workers fold the mailbox into the two-level queue under the lock
//! they already hold at acquire/take/decide/release boundaries. Idle
//! workers park on one condvar; the park/wake handshake is
//! lost-wakeup-free (see `cameo_core::shard`).
//!
//! Lock ordering: outside a yield point a worker holds at most one
//! instance lock at a time; reply application locks the *sender*
//! instance only after the executing instance's guard is dropped; a
//! sink takes its subscribers lock under it. The scheduler lock is
//! never held while an instance lock is held (the scheduler and the
//! mailbox take and release their internal locks within each call).
//!
//! ## Preemption points
//!
//! A worker installs a `cameo_dataflow::preempt` hook. When an operator
//! calls `yield_point()` inside `on_batch`, the hook asks
//! `ShardedScheduler::acquire_preempting` whether an operator in a
//! stricter latency tier outranks the message in flight; if so the
//! worker drains that lease through a nested [`WorkerStep`] — and any
//! further one that still qualifies — on its own stack, then returns to
//! the interrupted message. The nested lease holds a second instance
//! lock, of another job (the scheduler never nests an operator of the
//! in-flight job) and in a strictly stricter tier: policies stamp one
//! tier per job, so every worker takes nested instance locks in tier
//! order and no two workers can wait on each other's outer instance.
//! Nesting is one level deep, and the time spent nested is left out of
//! the interrupted operator's profiled cost.

use super::jobs::JobRt;
use super::{relock, JobHandle, OutputEvent, Shared, Subscriber};
use cameo_core::ids::{JobId, OperatorKey};
use cameo_core::priority::Priority;
use cameo_core::time::{Micros, PhysicalTime};
use cameo_core::worker::{StepOutcome, WorkerStep};
use cameo_dataflow::event::Batch;
use cameo_dataflow::expand::Message;
use cameo_dataflow::preempt;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on how long an idle worker sleeps before it looks for
/// work again. Only a backstop: every publish and the shutdown's
/// `close` wake a parked worker through the scheduler's one condvar,
/// and the park/wake handshake does not lose wakeups.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

/// One scheduled message plus the generation of the jobs-table slot
/// it belongs to, stamped at submission. A worker compares it against
/// the slot's current occupant before executing: a mismatch means the
/// job was undeployed (and the slot possibly reused) while the message
/// was in flight, and the message is dropped, so it never runs against
/// another job's operators.
pub(super) struct RtMsg {
    pub(super) msg: Message,
    pub(super) gen: u32,
}

/// Spawn worker `id`: pin it to `core` (when given) and run
/// [`worker_loop`].
pub(super) fn spawn_worker(shared: &Arc<Shared>, id: usize, core: Option<usize>) -> JoinHandle<()> {
    let sh = shared.clone();
    std::thread::Builder::new()
        .name(format!("cameo-worker-{id}"))
        .spawn(move || {
            // Pin before the first acquire. Failure is benign: the
            // worker just keeps the default affinity.
            if core.is_some_and(cameo_core::affinity::pin_to_core) {
                sh.pinned.fetch_add(1, Ordering::Relaxed);
            }
            worker_loop(sh)
        })
        .expect("spawn worker thread")
}

fn worker_loop(sh: Arc<Shared>) {
    sh.live_workers.fetch_add(1, Ordering::SeqCst);
    // Decrement on *every* exit — including an operator UDF panic
    // unwinding through the worker — so `worker_count` never sticks
    // above the number of threads actually running.
    struct LiveWorker(Arc<Shared>);
    impl Drop for LiveWorker {
        fn drop(&mut self) {
            self.0.live_workers.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _live = LiveWorker(sh.clone());
    // The message this worker is executing, for the yield points inside
    // it: the hook asks the scheduler whether a stricter tier outranks it.
    let in_flight: Rc<Cell<Option<InFlight>>> = Rc::default();
    let _hook = preempt::install({
        let (sh, in_flight) = (sh.clone(), in_flight.clone());
        move || preempt_in_flight(&sh, &in_flight)
    });
    // The shared scheduler ignores the worker index.
    let mut step = WorkerStep::new(0);
    loop {
        // Shutdown is seen between leases.
        if !step.holds() && sh.sched.is_closed() {
            return;
        }
        match step.next(&mut &sh.sched, sh.now()) {
            StepOutcome::Run(key, msg, pri) => {
                in_flight.set(Some((pri, key.job)));
                process_message(&sh, key, msg);
            }
            StepOutcome::Released => {}
            StepOutcome::Empty => sh.sched.park(PARK_TIMEOUT),
        }
    }
}

/// The priority and job of the message a worker is executing.
type InFlight = (Priority, JobId);

/// A worker's yield-point hook: while an operator in a stricter tier
/// outranks the message in flight, drain its lease here — through a
/// nested worker step, the same loop as any lease, minus the acquire —
/// then let the interrupted message resume. Returns the wall time it
/// spent. The nested leases' own yield points find no hook (it is out
/// while this runs), so nesting stops at one level.
fn preempt_in_flight(sh: &Arc<Shared>, in_flight: &Cell<Option<InFlight>>) -> Duration {
    let Some((pri, job)) = in_flight.get() else {
        return Duration::ZERO;
    };
    // Nothing stricter waiting (the common case): one load, no clock.
    if !sh.sched.stricter_tier_waiting(pri.tier()) {
        return Duration::ZERO;
    }
    let started = Instant::now();
    while let Some(exec) = sh.sched.acquire_preempting(pri, job, sh.now()) {
        let mut nested = WorkerStep::nested(exec);
        while let StepOutcome::Run(key, msg, npri) = nested.next(&mut &sh.sched, sh.now()) {
            in_flight.set(Some((npri, key.job)));
            process_message(sh, key, msg);
        }
    }
    in_flight.set(Some((pri, job)));
    started.elapsed()
}

/// Execute one message on its operator: run the UDF, record the cost,
/// route outputs downstream (or deliver a sink's), acknowledge upstream.
///
/// The message's slot generation is checked against the slot's current
/// occupant first: a mismatch (or a vacant slot) means the message's
/// job was undeployed while it was in flight, and it is dropped — a
/// stale message must never execute against, or fan out into, the
/// slot's new occupant.
fn process_message(sh: &Arc<Shared>, key: OperatorKey, RtMsg { msg, gen }: RtMsg) {
    let jrt = match sh.jobs.occupant(key.job.0) {
        Some(jrt) if jrt.gen == gen => jrt,
        _ => {
            sh.stale_exec_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    // This message's inflight decrement, released on *every* exit —
    // including a panicking operator UDF unwinding through here.
    // Without the guard, one UDF panic would strand the job's inflight
    // count above zero forever and every later `undeploy` of the job
    // would stall for its full drain budget. The fan-out increment
    // below still precedes this drop on the normal path (guards drop
    // at scope end), preserving the never-dips-to-zero ordering.
    struct InflightMsg<'a>(&'a JobRt);
    impl Drop for InflightMsg<'_> {
        fn drop(&mut self) {
            self.0.dec_inflight();
        }
    }
    let _inflight = InflightMsg(&jrt);
    let mut outbound = sh.sched.batch();
    let reply = {
        let mut inst = relock(&jrt.instances[key.op as usize]);
        let started = sh.now();
        let nested_before = preempt::nested_time();
        inst.execute(&msg, started);
        let finished = sh.now();
        // Leases a yield point ran on this stack are other operators'
        // cost, not this one's.
        let nested = preempt::nested_time() - nested_before;
        let cost = (finished - started).saturating_sub(Micros(nested.as_micros() as u64));
        inst.fan_out(
            &*sh.policy,
            &msg,
            cost,
            |target, msg| {
                let pri = msg.pc.priority;
                let key = OperatorKey::new(key.job, target as u32);
                outbound.add(key, RtMsg { msg, gen }, pri)
            },
            |batch| deliver(&jrt, key.job, finished, batch),
        )
    }; // instance guard dropped before touching any other instance

    // The reply's address is an instance of this same job, so the
    // generation-checked `jrt` is already the right table entry.
    let mut upstream = relock(&jrt.instances[reply.to]);
    sh.policy
        .process_reply(&mut upstream.converter, reply.edge, &reply.rc);
    drop(upstream);
    // Operator fan-out goes out as one batch (one publication + hint +
    // wake). The fan-out is counted in-flight *before* this message's
    // own decrement (the `InflightMsg` guard, dropped at scope end), so
    // the job's inflight count cannot dip to zero while a causal chain
    // is still alive.
    jrt.inflight
        .fetch_add(outbound.len() as u64, Ordering::AcqRel);
    outbound.submit();
}

/// Record one sink output and send it to every live subscriber under
/// the subscribers lock, pruning the dead ones in the same pass (the
/// sends are unbounded, so they never block). Every subscriber shares
/// one `Arc`, built only when one is live.
fn deliver(jrt: &JobRt, job: JobId, now: PhysicalTime, batch: Batch) {
    jrt.stats.record(now, batch.time, batch.len());
    let mut subs = relock(&jrt.subscribers);
    if !subs.iter().any(Subscriber::live) {
        subs.clear();
        return;
    }
    let batch = Arc::new(batch);
    let latency = now - batch.time;
    subs.retain(|s| {
        // A dead token or a closed channel: its OutputSubscription is gone.
        let sent = s.live()
            && s.tx
                .send(OutputEvent {
                    job: JobHandle {
                        slot: job.0,
                        gen: jrt.gen,
                    },
                    batch: batch.clone(),
                    latency,
                    at: now,
                })
                .is_ok();
        if sent {
            jrt.stats.record_delivery();
        }
        sent
    });
}
