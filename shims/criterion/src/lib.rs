//! Offline stand-in for `criterion`.
//!
//! A tiny wall-clock timing harness exposing the criterion API surface
//! this workspace's benches use: `Criterion::bench_function`,
//! `benchmark_group` + `bench_with_input`, `Bencher::iter` /
//! `iter_batched` / `iter_custom`, `BenchmarkId`, and the
//! `criterion_group!` / `criterion_main!` macros. No statistics, plots,
//! or outlier analysis — each benchmark is calibrated briefly and
//! reported as ns/iter on stdout. Good enough to compare orders of
//! magnitude and track gross regressions without network access to
//! crates.io.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Target measurement time per benchmark. Kept short: these benches run
/// in CI only to compile-check; locally `cargo bench` stays quick.
const TARGET: Duration = Duration::from_millis(200);

pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{param}"),
        }
    }

    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            label: param.to_string(),
        }
    }
}

#[derive(Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        self.iter_custom(|iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            t0.elapsed()
        });
    }

    /// The routine runs `iters` iterations itself and returns the time
    /// they took, for work the closure cannot time one call at a time
    /// (several threads sharing the iterations, say).
    pub fn iter_custom(&mut self, mut routine: impl FnMut(u64) -> Duration) {
        // Calibrate: grow the batch until it runs long enough to time.
        let mut batch: u64 = 1;
        loop {
            let dt = routine(batch);
            if dt >= TARGET || batch >= 1 << 24 {
                self.iters = batch;
                self.elapsed = dt;
                return;
            }
            batch = if dt.is_zero() {
                batch * 8
            } else {
                // Aim directly for the target, with headroom.
                let scale = TARGET.as_nanos().max(1) / dt.as_nanos().max(1);
                (batch.saturating_mul(scale as u64 + 1)).min(1 << 24)
            };
        }
    }

    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        while total < TARGET && iters < 1 << 20 {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            total += t0.elapsed();
            iters += 1;
        }
        self.iters = iters.max(1);
        self.elapsed = total;
    }
}

fn report(label: &str, b: &Bencher) {
    let ns = b.elapsed.as_nanos() as f64 / b.iters.max(1) as f64;
    println!("{label:<48} {ns:>12.1} ns/iter  ({} iters)", b.iters);
}

#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        report(name, &b);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
        }
    }
}

pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id.label), &b);
        self
    }

    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        report(&format!("{}/{name}", self.name), &b);
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut count = 0u64;
        c.bench_function("noop", |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        assert!(count > 0);
    }

    #[test]
    fn iter_batched_runs_setup_per_iteration() {
        let mut b = Bencher::default();
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.iters >= 1);
    }

    #[test]
    fn iter_custom_grows_the_batch_to_the_target() {
        let mut b = Bencher::default();
        b.iter_custom(Duration::from_micros);
        assert!(b.elapsed >= TARGET);
        assert_eq!(b.elapsed, Duration::from_micros(b.iters));
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.bench_with_input(BenchmarkId::from_parameter(3), &3u32, |b, &x| {
            b.iter(|| x * 2)
        });
        g.finish();
    }
}
