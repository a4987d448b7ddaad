//! Cooperative preemption points inside a message.
//!
//! The scheduler decides between messages: once `on_batch` has started,
//! the worker is the operator's until it returns. An operator whose
//! messages run long (a spin, a bulk batch, a window close over a large
//! state) calls [`yield_point`] from inside its loop, every few tens of
//! microseconds of work. On a thread that has a hook [`install`]ed —
//! every runtime worker does — the hook asks the scheduler whether an
//! operator in a stricter latency tier outranks the message in flight
//! and, if one does, runs it to the end of its lease on this thread
//! before returning. The operator then carries on where it stopped.
//!
//! [`yield_point`] returns the wall time the hook spent, so an operator
//! that budgets by wall time ([`SpinMap`](crate::ops::SpinMap)) can
//! extend its budget by it, and [`nested_time`] adds it all up, so the
//! runtime can leave it out of the operator's profiled cost.
//!
//! Nesting is one level deep: while the hook runs, the thread has none
//! installed, so the yield points of the operators it runs return zero
//! at once. Off a worker thread (the simulator, a unit test, a bare
//! operator) a yield point is one thread-local read.

use std::cell::Cell;
use std::marker::PhantomData;
use std::time::Duration;

type Hook = Box<dyn FnMut() -> Duration>;

thread_local! {
    static HOOK: Cell<Option<Hook>> = const { Cell::new(None) };
    static NESTED: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// Let a stricter tier have this thread, if one is waiting, and return
/// the wall time that took (zero when nothing ran). Cheap when nothing
/// is waiting: the runtime's hook answers from two atomic loads.
pub fn yield_point() -> Duration {
    let Some(mut hook) = HOOK.take() else {
        return Duration::ZERO;
    };
    let spent = hook();
    HOOK.set(Some(hook));
    if !spent.is_zero() {
        NESTED.set(NESTED.get() + spent);
    }
    spent
}

/// Total wall time yield points have spent on this thread: read it
/// before and after an operator call to learn what of that call's time
/// belonged to other operators.
pub fn nested_time() -> Duration {
    NESTED.get()
}

/// Install `hook` as this thread's answer to [`yield_point`], replacing
/// any other, until the returned guard drops. A hook that panics is
/// gone afterwards: the thread's yield points return zero from then on.
pub fn install(hook: impl FnMut() -> Duration + 'static) -> Installed {
    HOOK.set(Some(Box::new(hook)));
    Installed {
        _thread: PhantomData,
    }
}

/// Uninstalls the thread's hook when dropped (see [`install`]). Not
/// `Send`: it belongs to the thread it was installed on.
#[must_use = "the hook is uninstalled when this guard drops"]
pub struct Installed {
    _thread: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        drop(HOOK.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn no_hook_yields_nothing() {
        assert_eq!(yield_point(), Duration::ZERO);
    }

    #[test]
    fn hook_runs_once_per_call_and_does_not_nest() {
        let calls = Rc::new(Cell::new(0u32));
        let guard = install({
            let calls = calls.clone();
            move || {
                calls.set(calls.get() + 1);
                // A yield point inside the hook: the hook is out.
                assert_eq!(yield_point(), Duration::ZERO);
                Duration::from_micros(7)
            }
        });
        let before = nested_time();
        assert_eq!(yield_point(), Duration::from_micros(7));
        assert_eq!(yield_point(), Duration::from_micros(7));
        assert_eq!(calls.get(), 2);
        assert_eq!(nested_time() - before, Duration::from_micros(14));
        drop(guard);
        assert_eq!(yield_point(), Duration::ZERO);
        assert_eq!(calls.get(), 2, "uninstalled");
    }
}
