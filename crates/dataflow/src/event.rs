//! Events, tuples and message batches.
//!
//! Following Trill (the operator library the paper runs inside Flare),
//! operators exchange *batches* of tuples rather than single events:
//! one scheduled message carries a batch, which is what makes
//! fine-grained scheduling affordable (Fig 12/13 study exactly this
//! trade-off).

use cameo_core::time::{LogicalTime, PhysicalTime};

/// One data tuple: a routing/grouping key, a value, and the tuple's
/// logical time (stream progress).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuple {
    /// Routing / grouping key.
    pub key: u64,
    /// Payload value (aggregated, joined, filtered on).
    pub value: i64,
    /// The tuple's logical time (stream progress coordinate).
    pub time: LogicalTime,
}

impl Tuple {
    /// A tuple with the given key, value and logical time.
    pub fn new(key: u64, value: i64, time: LogicalTime) -> Self {
        Tuple { key, value, time }
    }
}

/// A batch of tuples travelling as one scheduled message.
///
/// * `progress` is the stream progress after this batch (`p_M`): the
///   maximum logical time of any tuple inside, carried explicitly so
///   empty control batches still advance watermarks.
/// * `time` is the physical time at which the last event contributing
///   to this batch was observed at a source (`t_M`) — the baseline for
///   the paper's latency definition (§4.1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Batch {
    /// The tuples travelling together.
    pub tuples: Vec<Tuple>,
    /// Stream progress after this batch (`p_M`).
    pub progress: LogicalTime,
    /// Source-observation time of the latest contributing event (`t_M`).
    pub time: PhysicalTime,
}

impl Batch {
    /// Build a batch from tuples, deriving `progress` from their maximum
    /// logical time.
    pub fn new(tuples: Vec<Tuple>, time: PhysicalTime) -> Self {
        let progress = tuples
            .iter()
            .map(|t| t.time)
            .max()
            .unwrap_or(LogicalTime::ZERO);
        Batch {
            tuples,
            progress,
            time,
        }
    }

    /// A batch with explicit progress (used by window triggers, whose
    /// progress is the window boundary rather than a tuple time).
    pub fn with_progress(tuples: Vec<Tuple>, progress: LogicalTime, time: PhysicalTime) -> Self {
        Batch {
            tuples,
            progress,
            time,
        }
    }

    /// An empty punctuation batch that only advances stream progress.
    pub fn punctuation(progress: LogicalTime, time: PhysicalTime) -> Self {
        Batch {
            tuples: Vec::new(),
            progress,
            time,
        }
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the batch carries no tuples (pure progress).
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_progress_is_max_tuple_time() {
        let b = Batch::new(
            vec![
                Tuple::new(1, 10, LogicalTime(5)),
                Tuple::new(2, 20, LogicalTime(9)),
                Tuple::new(3, 30, LogicalTime(7)),
            ],
            PhysicalTime(100),
        );
        assert_eq!(b.progress, LogicalTime(9));
        assert_eq!(b.time, PhysicalTime(100));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn empty_batch() {
        let b = Batch::new(vec![], PhysicalTime(1));
        assert_eq!(b.progress, LogicalTime::ZERO);
        assert!(b.is_empty());
        let p = Batch::punctuation(LogicalTime(50), PhysicalTime(2));
        assert_eq!(p.progress, LogicalTime(50));
        assert!(p.is_empty());
    }

    #[test]
    fn explicit_progress_overrides() {
        let b = Batch::with_progress(
            vec![Tuple::new(1, 1, LogicalTime(3))],
            LogicalTime(10),
            PhysicalTime(4),
        );
        assert_eq!(b.progress, LogicalTime(10));
    }
}
