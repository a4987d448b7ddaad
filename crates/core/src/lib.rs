//! # cameo-core
//!
//! A from-scratch Rust implementation of the **Cameo** scheduling
//! framework from *"Move Fast and Meet Deadlines: Fine-grained
//! Real-time Stream Processing with Cameo"* (NSDI 2021).
//!
//! Cameo schedules *messages*, not slots: every message between stream
//! operators carries a [Priority Context](context::PriorityContext)
//! derived from the job's latency target and the stream's progress, and
//! a stateless two-level scheduler executes whichever operator currently
//! holds the most urgent pending message.
//!
//! The crate is deliberately execution-environment agnostic: the same
//! scheduler, policies and context machinery are driven by the
//! real-time actor runtime (`cameo-runtime`) and by the discrete-event
//! cluster simulator (`cameo-sim`) — only the [`Clock`](time::Clock)
//! differs.
//!
//! ## Layout
//!
//! * [`time`] — physical/logical time, the `Clock` abstraction.
//! * [`ids`] — job / operator / message identifiers.
//! * [`priority`] — the `(PRI_local, PRI_global)` pair.
//! * [`context`] — Priority Contexts and Reply Contexts (§5.1).
//! * [`transform`] — `TRANSFORM`: logical frontier progress (§4.3).
//! * [`progress`] — `PROGRESSMAP`: physical frontier estimation (§4.3).
//! * [`profile`] — execution-cost and critical-path profiling.
//! * [`policy`] — the pluggable context-handling API plus the built-in
//!   LLF / EDF / SJF / FIFO / token-fair policies (§4.2, §5.4).
//! * [`queue`] — the two-level priority structure (Fig 5b).
//! * [`scheduler`] — the stateless scheduler with quantum logic (§5.2).
//! * [`mailbox`] — the submission mailbox: a locked inbox the draining
//!   worker swaps for a spare buffer, with one-publication batches.
//! * [`shard`] — the scheduler a worker pool shares: one scheduler
//!   behind one lock, fed through a submission mailbox kept off that
//!   lock.
//! * [`affinity`] — worker→core pinning (`sched_setaffinity`), so a
//!   worker stays on one core. Linux only.
//! * [`epoll`] — the readiness wrapper under the runtime's single
//!   ingest serve loop. Linux only.
//! * [`stats`] — histograms and percentile helpers.
//!
//! ## Quick example
//!
//! ```
//! use cameo_core::prelude::*;
//!
//! // A source operator's converter state (ingestion-time stream).
//! let key = OperatorKey::new(JobId(1), 0);
//! let mut state = ConverterState::new(key, TimeDomain::IngestionTime);
//!
//! // Build a priority context for an event entering the dataflow,
//! // bound for a 10ms tumbling window, under a 500us latency target.
//! let hop = HopInfo { edge: 0, sender_slide: Slide::UNIT, target_slide: Slide(10_000) };
//! let stamp = MessageStamp { progress: LogicalTime(1_000), time: PhysicalTime(1_000) };
//! let pc = LlfPolicy.build_at_source(JobId(1), stamp, Micros(500), &hop, &mut state);
//!
//! // The scheduler orders operators by that priority.
//! let mut sched: CameoScheduler<&str> = CameoScheduler::default();
//! sched.submit(key, "window-input", pc.priority);
//! let exec = sched.acquire(PhysicalTime(1_000)).unwrap();
//! assert_eq!(sched.take_message(&exec).unwrap().0, "window-input");
//! sched.release(exec);
//! ```

// The scheduling framework is the workspace's public contract: every
// exported item carries a doc comment, and CI builds the docs with
// `RUSTDOCFLAGS="-D warnings"` so the guarantee cannot rot.
#![deny(missing_docs)]

#[cfg(target_os = "linux")]
pub mod affinity;
pub mod config;
pub mod context;
#[cfg(target_os = "linux")]
pub mod epoll;
pub mod ids;
pub mod mailbox;
pub mod policy;
pub mod priority;
pub mod profile;
pub mod progress;
pub mod queue;
pub mod scheduler;
pub mod shard;
pub mod stats;
pub mod time;
pub mod transform;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::config::SchedulerConfig;
    pub use crate::context::{DataflowField, PriorityContext, ReplyContext, TokenTag};
    pub use crate::ids::{JobId, MessageId, OperatorKey};
    pub use crate::mailbox::{Mail, MailChain, Mailbox};
    pub use crate::policy::{
        ConverterState, EdfPolicy, FifoPolicy, HopInfo, LlfPolicy, MessageStamp, Policy, SjfPolicy,
        TokenBucket, TokenFairPolicy,
    };
    pub use crate::priority::Priority;
    pub use crate::profile::{CostEstimator, ProfileState};
    pub use crate::progress::{FrontierEstimate, ProgressMap, TimeDomain};
    pub use crate::queue::{OperatorLease, PushOutcome, TwoLevelQueue};
    pub use crate::scheduler::{CameoScheduler, Decision, Execution, SchedulerStats};
    pub use crate::shard::ShardedScheduler;
    pub use crate::stats::{exact_percentile, Histogram, OnlineStats};
    pub use crate::time::{Clock, LogicalTime, ManualClock, Micros, PhysicalTime, SystemClock};
    pub use crate::transform::{transform, window_index, Slide};
}
