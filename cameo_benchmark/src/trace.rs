//! In-memory spans, recorded by the benchmark around its own calls into
//! each layer (spans inside the program are a later change), and written
//! out once at exit. Each span names the span that caused it, so a
//! reader of the file gets a layer's self time as its span minus the
//! part its children cover.

use crate::json::{num, obj, string, Value};
use std::time::Instant;

/// One timed interval at a layer boundary. `count` is the work the
/// interval covered (frames, messages or tuples, per the span's name).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// A per-thread span buffer; buffers are merged when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
}

impl Tracer {
    /// `id_base` keeps ids unique across the threads' buffers.
    pub fn new(epoch: Instant, id_base: u32) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 14),
            next_id: id_base + 1,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id (for its children).
    pub fn record(
        &mut self,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            count,
        });
        id
    }

    /// Reserve an id for a parent whose end is not known yet; children
    /// name it, and [`Tracer::close`] records it.
    pub fn open(&mut self) -> (u32, u64) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.now_ns())
    }

    pub fn close(&mut self, open: (u32, u64), parent: u32, name: &'static str, count: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.0,
            parent,
            name,
            start_ns: open.1,
            end_ns,
            count,
        });
    }

    /// Time `f` as one span under `parent`.
    pub fn time<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(parent, name, start, end, count);
        out
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and total count of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| {
                (ns + (s.end_ns - s.start_ns), n + s.count)
            })
    }

    /// Nanoseconds per unit of work over every span called `name`.
    pub fn ns_per(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("id", num(s.id as f64)),
                        ("parent", num(s.parent as f64)),
                        ("name", string(s.name)),
                        ("start_ns", num(s.start_ns as f64)),
                        ("end_ns", num(s.end_ns as f64)),
                        ("count", num(s.count as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates_are_per_name() {
        let mut t = Tracer::new(Instant::now(), 0);
        let parent = t.record(0, "outer", 100, 1_100, 1);
        t.record(parent, "inner", 200, 500, 1);
        t.record(parent, "inner", 600, 1_200, 2);
        assert_eq!(t.total("inner"), (900, 3));
        assert_eq!(t.ns_per("inner"), 300.0);
        assert_eq!(t.ns_per("absent"), 0.0);
        let spans = t.to_json();
        assert_eq!(spans.as_arr().unwrap().len(), 3);
        assert_eq!(
            spans.as_arr().unwrap()[1]
                .get("parent")
                .and_then(Value::as_f64),
            Some(parent as f64)
        );
    }
}
