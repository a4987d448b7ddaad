//! Time primitives shared by every Cameo component.
//!
//! The paper distinguishes between the *logical time* `p` of a message
//! (its stream progress, §4.1) and the *physical time* `t` at which the
//! last event required to produce the message was observed. Both are kept
//! as plain `u64`s here: physical time is microseconds since an arbitrary
//! epoch (the start of the run), logical time is whatever unit the stream
//! declares (usually also microseconds of event time, but operators only
//! ever treat it as an ordered progress value).
//!
//! All scheduling code is written against the [`Clock`] trait so that the
//! identical scheduler runs both under the real-time runtime
//! (`SystemClock`) and under the discrete-event simulator (a virtual
//! clock provided by `cameo-sim`).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A physical timestamp in microseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysicalTime(pub u64);

/// A duration in microseconds. All arithmetic saturates: the scheduler
/// never wants a panic on a pathological cost estimate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub u64);

/// Stream progress (`p` in the paper): a monotone, totally ordered value
/// carried by every event. For event-time streams this is the event
/// timestamp; for ingestion-time streams it is assigned on arrival.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LogicalTime(pub u64);

impl PhysicalTime {
    /// The start of the run.
    pub const ZERO: PhysicalTime = PhysicalTime(0);
    /// The far future (sorts after every real timestamp).
    pub const MAX: PhysicalTime = PhysicalTime(u64::MAX);

    /// Microseconds since the start of the run.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, zero if `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: PhysicalTime) -> Micros {
        Micros(self.0.saturating_sub(earlier.0))
    }

    /// The timestamp `ms` milliseconds into the run (saturating).
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        PhysicalTime(ms.saturating_mul(1_000))
    }

    /// The timestamp `s` seconds into the run (saturating).
    #[inline]
    pub fn from_secs(s: u64) -> Self {
        PhysicalTime(s.saturating_mul(1_000_000))
    }
}

impl Micros {
    /// The empty duration.
    pub const ZERO: Micros = Micros(0);
    /// The longest representable duration (used as "no limit").
    pub const MAX: Micros = Micros(u64::MAX);

    /// `ms` milliseconds as microseconds (saturating).
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        Micros(ms.saturating_mul(1_000))
    }

    /// `s` seconds as microseconds (saturating).
    #[inline]
    pub fn from_secs(s: u64) -> Self {
        Micros(s.saturating_mul(1_000_000))
    }

    /// The raw microsecond count.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Sum, clamped to [`Micros::MAX`] on overflow.
    #[inline]
    pub fn saturating_add(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_add(rhs.0))
    }

    /// Difference, clamped to zero when `rhs` is larger.
    #[inline]
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// The larger of the two durations.
    #[inline]
    pub fn max(self, rhs: Micros) -> Micros {
        Micros(self.0.max(rhs.0))
    }

    /// The smaller of the two durations.
    #[inline]
    pub fn min(self, rhs: Micros) -> Micros {
        Micros(self.0.min(rhs.0))
    }

    /// True for the empty duration.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl LogicalTime {
    /// The least progress value (also "no event time": the runtime
    /// stamps ingestion time over it on arrival).
    pub const ZERO: LogicalTime = LogicalTime(0);
    /// The greatest progress value (a closed stream's frontier).
    pub const MAX: LogicalTime = LogicalTime(u64::MAX);
}

impl Add<Micros> for PhysicalTime {
    type Output = PhysicalTime;
    #[inline]
    fn add(self, rhs: Micros) -> PhysicalTime {
        PhysicalTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Micros> for PhysicalTime {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<PhysicalTime> for PhysicalTime {
    type Output = Micros;
    #[inline]
    fn sub(self, rhs: PhysicalTime) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Micros {
    type Output = Micros;
    #[inline]
    fn add(self, rhs: Micros) -> Micros {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Micros {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        *self = self.saturating_add(rhs);
    }
}

impl Sub for Micros {
    type Output = Micros;
    #[inline]
    fn sub(self, rhs: Micros) -> Micros {
        self.saturating_sub(rhs)
    }
}

impl fmt::Debug for PhysicalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}us", self.0)
    }
}

impl fmt::Display for PhysicalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0 as f64 / 1e6)
    }
}

impl fmt::Debug for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl fmt::Debug for LogicalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A source of physical time. Implemented by the wall clock and by the
/// simulator's virtual clock; every scheduling decision reads time only
/// through this trait.
pub trait Clock: Send + Sync {
    /// The current physical time.
    fn now(&self) -> PhysicalTime;
}

/// Wall-clock time, measured from the instant the clock was created.
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    /// A clock whose zero is this instant.
    pub fn new() -> Self {
        SystemClock {
            start: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> PhysicalTime {
        PhysicalTime(self.start.elapsed().as_micros() as u64)
    }
}

/// A manually advanced clock, handy in unit tests and shared with the
/// simulator (which re-exports it as its virtual clock).
#[derive(Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A shareable clock starting at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock {
            now: AtomicU64::new(0),
        })
    }

    /// Jump the clock to `t` (backwards jumps included — tests use
    /// them; production clocks never should).
    pub fn set(&self, t: PhysicalTime) {
        self.now.store(t.0, Ordering::Release);
    }

    /// Advance the clock by `d`.
    pub fn advance(&self, d: Micros) {
        self.now.fetch_add(d.0, Ordering::AcqRel);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> PhysicalTime {
        PhysicalTime(self.now.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_time_arithmetic() {
        let t = PhysicalTime(1_000);
        assert_eq!(t + Micros(500), PhysicalTime(1_500));
        assert_eq!(PhysicalTime(1_500) - t, Micros(500));
        // Subtraction saturates rather than wrapping.
        assert_eq!(t - PhysicalTime(2_000), Micros(0));
        assert_eq!(t.since(PhysicalTime(400)), Micros(600));
        assert_eq!(t.since(PhysicalTime(4_000)), Micros(0));
    }

    #[test]
    fn micros_saturates() {
        assert_eq!(Micros(u64::MAX) + Micros(1), Micros(u64::MAX));
        assert_eq!(Micros(3) - Micros(10), Micros(0));
        assert_eq!(Micros::from_millis(2), Micros(2_000));
        assert_eq!(Micros::from_secs(2), Micros(2_000_000));
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), PhysicalTime(0));
        c.advance(Micros(42));
        assert_eq!(c.now(), PhysicalTime(42));
        c.set(PhysicalTime(7));
        assert_eq!(c.now(), PhysicalTime(7));
    }

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Micros(12)), "12us");
        assert_eq!(format!("{}", Micros(1_200)), "1.200ms");
        assert_eq!(format!("{}", Micros(1_200_000)), "1.200s");
    }
}
