//! Preemption points inside a message, on a real one-worker runtime: a
//! strict tenant's message takes the worker in the middle of a lax
//! tenant's long spin, at one of the `yield_point()` calls the spin
//! makes, and the lax message resumes when the strict one is done.

use cameo::dataflow::preempt;
use cameo::prelude::*;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(5);

/// The tests spin real time on a one-worker runtime: run them one at a
/// time, so that none is timing another's spin.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// A [`SpinMap`] (which yields every few dozen spins) that says when
/// each of its messages starts.
struct AnnouncedSpin {
    spin: SpinMap,
    started: Sender<()>,
}

impl StateSnapshot for AnnouncedSpin {}

impl Operator for AnnouncedSpin {
    fn on_batch(&mut self, channel: u32, batch: &Batch, now: PhysicalTime, out: &mut Vec<Batch>) {
        let _ = self.started.send(());
        self.spin.on_batch(channel, batch, now, out);
    }

    fn name(&self) -> &'static str {
        "announced_spin"
    }
}

/// One deployed `ingest → spin` job, its outputs, and its start signals.
struct Tenant {
    job: JobHandle,
    out: OutputSubscription,
    started: Receiver<()>,
}

impl Tenant {
    /// Deploy `ingest → spin(spin)` with latency target `target`. No
    /// cost prior: the profiled cost is what the runtime measures.
    fn deploy(rt: &Runtime, name: &str, target: Micros, spin: Micros) -> Tenant {
        let (tx, started) = channel();
        let mut b = JobBuilder::new(name, target, TimeDomain::IngestionTime);
        let src = b.ingest("src", 1);
        let sink = b.stage("spin", 1, OperatorKind::Regular, spin, move |_| {
            Box::new(AnnouncedSpin {
                spin: SpinMap::new(spin),
                started: tx.clone(),
            })
        });
        b.connect(src, sink, Routing::Forward);
        let opts = ExpandOptions {
            seed_profiles: false,
            ..Default::default()
        };
        let job = rt.deploy(&b.build().unwrap(), &opts).unwrap();
        Tenant {
            job,
            out: rt.subscribe(job).unwrap(),
            started,
        }
    }

    fn send(&self, rt: &Runtime) {
        rt.ingest(self.job, 0, vec![Tuple::new(1, 1, LogicalTime::ZERO)])
            .unwrap();
    }

    fn wait_started(&self) {
        self.started.recv_timeout(WAIT).expect("message started");
    }

    /// When the job's next output left its sink.
    fn output_at(&self) -> PhysicalTime {
        self.out.recv_timeout(WAIT).expect("output").at
    }
}

/// 400 ms and 10 ms targets: tiers 18 and 13 under the deadline
/// policies.
fn lax_and_strict(rt: &Runtime, lax_spin: Micros, strict_spin: Micros) -> (Tenant, Tenant) {
    (
        Tenant::deploy(rt, "lax", Micros::from_millis(400), lax_spin),
        Tenant::deploy(rt, "strict", Micros::from_millis(10), strict_spin),
    )
}

fn one_worker() -> Runtime {
    Runtime::start(RuntimeConfig::default().with_workers(1))
}

#[test]
fn a_strict_message_takes_the_worker_in_the_middle_of_a_lax_one() {
    let _serial = serial();
    let rt = one_worker();
    let (lax, strict) = lax_and_strict(&rt, Micros::from_millis(20), Micros(200));
    lax.send(&rt);
    lax.wait_started();
    strict.send(&rt);
    let (strict_at, lax_at) = (strict.output_at(), lax.output_at());
    assert!(
        strict_at < lax_at,
        "strict output at {strict_at:?}, lax at {lax_at:?}"
    );
    let st = rt.scheduler_stats();
    assert!(st.yield_preemptions >= 1, "{st:?}");
    rt.shutdown();
}

/// Nothing stricter, nothing nests: a second job in the lax job's own
/// tier (300 ms and 400 ms are both tier 18), or any two jobs under
/// FIFO priorities (one flat tier), waits for the lax message to end.
#[test]
fn same_tier_and_fifo_keep_the_message_boundary() {
    let _serial = serial();
    for (policy, strict_target) in [
        (
            Arc::new(LlfPolicy) as Arc<dyn Policy>,
            Micros::from_millis(300),
        ),
        (Arc::new(FifoPolicy), Micros::from_millis(10)),
    ] {
        let rt = Runtime::start(RuntimeConfig::default().with_workers(1).with_policy(policy));
        let lax = Tenant::deploy(
            &rt,
            "lax",
            Micros::from_millis(400),
            Micros::from_millis(20),
        );
        let other = Tenant::deploy(&rt, "other", strict_target, Micros(200));
        lax.send(&rt);
        lax.wait_started();
        other.send(&rt);
        let (other_at, lax_at) = (other.output_at(), lax.output_at());
        assert!(
            lax_at < other_at,
            "lax at {lax_at:?}, other at {other_at:?}"
        );
        assert_eq!(rt.scheduler_stats().yield_preemptions, 0);
        rt.shutdown();
    }
}

/// `undeploy` of the interrupted job and of the nested one, each called
/// while the nested lease runs: both drain and return. The worker holds
/// the lax instance while it runs the strict one, so a lock the two
/// shared would show here as a hang.
#[test]
fn undeploy_during_a_nested_lease_returns() {
    let _serial = serial();
    for victim in ["strict", "lax"] {
        let rt = Arc::new(one_worker());
        let (lax, strict) = lax_and_strict(&rt, Micros::from_millis(100), Micros::from_millis(50));
        lax.send(&rt);
        lax.wait_started();
        strict.send(&rt);
        strict.wait_started();
        let job = if victim == "strict" {
            strict.job
        } else {
            lax.job
        };
        let (done, undeployed) = channel();
        let handle = {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let res = rt.undeploy(job);
                let _ = done.send((res, t0.elapsed()));
            })
        };
        let (res, took) = undeployed
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("undeploy of the {victim} job hung"));
        handle.join().unwrap();
        assert_eq!(res, Ok(0), "{victim}: drained, nothing purged");
        assert!(took < Duration::from_secs(2), "{victim}: {took:?}");
        assert!(rt.scheduler_stats().yield_preemptions >= 1);
        drop((lax, strict));
        Arc::try_unwrap(rt).ok().expect("last handle").shutdown();
    }
}

/// The interrupted operator's profiled cost is its own spin, not the
/// spin plus the strict work that ran on its stack.
#[test]
fn nested_time_is_not_the_interrupted_operators_cost() {
    let _serial = serial();
    const SPIN: Micros = Micros(40_000);
    for preempted in [false, true] {
        let rt = one_worker();
        let (lax, strict) = lax_and_strict(&rt, SPIN, Micros::from_millis(20));
        lax.send(&rt);
        lax.wait_started();
        if preempted {
            strict.send(&rt);
        }
        lax.output_at();
        let yields = rt.scheduler_stats().yield_preemptions;
        assert_eq!(yields >= 1, preempted, "{yields} nested leases");
        // Instance 1: the spin stage (instance 0 is the ingest).
        let cost = rt
            .operator_cost(lax.job, 1)
            .unwrap()
            .expect("spin instance");
        let off = cost.0.abs_diff(SPIN.0) as f64 / SPIN.0 as f64;
        assert!(
            off <= 0.05,
            "preempted {preempted}: profiled {cost} for a {SPIN} spin"
        );
        rt.shutdown();
    }
}

/// `SpinMap` extends its budget by what its yield points spent, so its
/// wall time is the budget plus the nested time, and its own spinning
/// is exactly the budget.
#[test]
fn spin_map_wall_time_is_budget_plus_nested_time() {
    let _serial = serial();
    let budget = Duration::from_millis(10);
    let mut first = true;
    let _hook = preempt::install(move || {
        if !std::mem::take(&mut first) {
            return Duration::ZERO;
        }
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(5) {}
        t.elapsed()
    });
    let batch = Batch::new(vec![Tuple::new(1, 1, LogicalTime(1))], PhysicalTime(0));
    let mut out = Vec::new();
    let nested_before = preempt::nested_time();
    let t0 = Instant::now();
    SpinMap::new(Micros(budget.as_micros() as u64)).on_batch(0, &batch, PhysicalTime(0), &mut out);
    let wall = t0.elapsed();
    let nested = preempt::nested_time() - nested_before;
    assert!(nested >= Duration::from_millis(5), "{nested:?}");
    let expected = budget + nested;
    assert!(
        wall >= expected && wall < expected + Duration::from_millis(2),
        "wall {wall:?} for budget {budget:?} + nested {nested:?}"
    );
    assert_eq!(out, vec![batch]);
}
