//! Stateless per-tuple operators (regular operators in the paper's
//! taxonomy: invoked == triggered).

use crate::event::{Batch, Tuple};
use crate::operator::{Operator, StateSnapshot};
use crate::preempt::yield_point;
use cameo_core::time::{Micros, PhysicalTime};

/// Applies a function to every tuple.
pub struct MapOp<F: FnMut(Tuple) -> Tuple + Send> {
    f: F,
}

impl<F: FnMut(Tuple) -> Tuple + Send> MapOp<F> {
    /// Map every tuple through `f`.
    pub fn new(f: F) -> Self {
        MapOp { f }
    }
}

// All operators in this module are stateless: the default
// `StateSnapshot` (snapshot nothing, restore only nothing) is exact.
impl<F: FnMut(Tuple) -> Tuple + Send> StateSnapshot for MapOp<F> {}

impl<F: FnMut(Tuple) -> Tuple + Send> Operator for MapOp<F> {
    fn on_batch(&mut self, _channel: u32, batch: &Batch, _now: PhysicalTime, out: &mut Vec<Batch>) {
        let tuples = batch.tuples.iter().map(|&t| (self.f)(t)).collect();
        out.push(Batch::with_progress(tuples, batch.progress, batch.time));
    }

    fn name(&self) -> &'static str {
        "map"
    }
}

/// Keeps only tuples matching a predicate. Progress still advances on
/// fully filtered batches (an empty batch is forwarded), so downstream
/// watermarks never stall.
pub struct FilterOp<F: FnMut(&Tuple) -> bool + Send> {
    f: F,
}

impl<F: FnMut(&Tuple) -> bool + Send> FilterOp<F> {
    /// Keep tuples for which `f` returns true.
    pub fn new(f: F) -> Self {
        FilterOp { f }
    }
}

impl<F: FnMut(&Tuple) -> bool + Send> StateSnapshot for FilterOp<F> {}

impl<F: FnMut(&Tuple) -> bool + Send> Operator for FilterOp<F> {
    fn on_batch(&mut self, _channel: u32, batch: &Batch, _now: PhysicalTime, out: &mut Vec<Batch>) {
        let tuples = batch
            .tuples
            .iter()
            .filter(|t| (self.f)(t))
            .copied()
            .collect();
        out.push(Batch::with_progress(tuples, batch.progress, batch.time));
    }

    fn name(&self) -> &'static str {
        "filter"
    }
}

/// Forwards batches untouched (useful as a parse/shuffle stage whose
/// cost is modeled rather than computed).
#[derive(Default)]
pub struct Passthrough;

impl StateSnapshot for Passthrough {}

impl Operator for Passthrough {
    fn on_batch(&mut self, _channel: u32, batch: &Batch, _now: PhysicalTime, out: &mut Vec<Batch>) {
        out.push(batch.clone());
    }

    fn name(&self) -> &'static str {
        "passthrough"
    }
}

/// Spin iterations between two yield points. Each iteration reads the
/// clock (~25 ns), so a stricter tier waits about a microsecond for the
/// worker, and an idle yield point costs well under 1 % of the spin.
const SPINS_PER_YIELD: u32 = 32;

/// A pass-through that burns real CPU for a configured duration —
/// emulates an expensive UDF under the real-time runtime. (Under the
/// simulator, costs come from the cost model instead; do not use this
/// there.)
///
/// The spin calls [`yield_point`] every few dozen iterations and
/// extends its deadline by whatever time the yield point spent running
/// stricter work, so every message still burns exactly its `spin`.
pub struct SpinMap {
    spin: Micros,
}

impl SpinMap {
    /// A passthrough that busy-spins for `spin` per batch (models UDF
    /// cost in real time).
    pub fn new(spin: Micros) -> Self {
        SpinMap { spin }
    }
}

impl StateSnapshot for SpinMap {}

impl Operator for SpinMap {
    fn on_batch(&mut self, _channel: u32, batch: &Batch, _now: PhysicalTime, out: &mut Vec<Batch>) {
        let start = std::time::Instant::now();
        let mut budget = std::time::Duration::from_micros(self.spin.0);
        let mut x = 0u64;
        let mut spins = 0u32;
        while start.elapsed() < budget {
            // Dependency chain the optimizer can't remove.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            std::hint::black_box(x);
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(SPINS_PER_YIELD) {
                budget += yield_point();
            }
        }
        out.push(batch.clone());
    }

    fn name(&self) -> &'static str {
        "spin_map"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_core::time::LogicalTime;

    fn batch(vals: &[(u64, i64)]) -> Batch {
        Batch::new(
            vals.iter()
                .enumerate()
                .map(|(i, &(k, v))| Tuple::new(k, v, LogicalTime(i as u64)))
                .collect(),
            PhysicalTime(7),
        )
    }

    #[test]
    fn map_transforms_values() {
        let mut op = MapOp::new(|mut t: Tuple| {
            t.value *= 2;
            t
        });
        let mut out = Vec::new();
        op.on_batch(0, &batch(&[(1, 10), (2, 20)]), PhysicalTime(9), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuples[0].value, 20);
        assert_eq!(out[0].tuples[1].value, 40);
        assert_eq!(out[0].time, PhysicalTime(7), "stamp passes through");
    }

    #[test]
    fn filter_keeps_progress_on_empty_output() {
        let mut op = FilterOp::new(|t: &Tuple| t.value > 100);
        let mut out = Vec::new();
        let b = batch(&[(1, 10), (2, 20)]);
        op.on_batch(0, &b, PhysicalTime(9), &mut out);
        assert!(out[0].is_empty());
        assert_eq!(out[0].progress, b.progress, "watermark must still advance");
    }

    #[test]
    fn passthrough_is_identity() {
        let mut op = Passthrough;
        let b = batch(&[(5, 50)]);
        let mut out = Vec::new();
        op.on_batch(0, &b, PhysicalTime(9), &mut out);
        assert_eq!(out[0], b);
    }

    #[test]
    fn spin_map_burns_time_and_forwards() {
        let mut op = SpinMap::new(Micros(200));
        let b = batch(&[(1, 1)]);
        let mut out = Vec::new();
        let start = std::time::Instant::now();
        op.on_batch(0, &b, PhysicalTime(0), &mut out);
        assert!(start.elapsed().as_micros() >= 200);
        assert_eq!(out[0], b);
    }
}
