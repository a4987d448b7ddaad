//! # cameo-dataflow
//!
//! The streaming dataflow substrate for the Cameo reproduction: events,
//! batches, windows, operators, logical job graphs and their expansion
//! into wired operator instances.
//!
//! The paper runs Trill streaming operators inside the Flare/Orleans
//! actor runtime; this crate plays Trill's role. It owns everything the
//! scheduler treats as "the query": window semantics (slide sizes feed
//! `TRANSFORM`), DAG topology (critical paths feed deadlines) and
//! operator state machines. It knows nothing about *when* operators
//! run — both the real-time runtime (`cameo-runtime`) and the simulator
//! (`cameo-sim`) drive the same [`ExpandedJob`](expand::ExpandedJob).

#![deny(missing_docs)]

pub mod codec;
pub mod event;
pub mod expand;
pub mod graph;
pub mod operator;
pub mod ops;
pub mod preempt;
pub mod queries;
pub mod window;

/// Everything the paper's query set (IPQ1–4) and the examples build
/// with: tuples and batches, the graph builder, its expansion into
/// operator instances, and the built-in operators.
pub mod prelude {
    pub use crate::event::{Batch, Tuple};
    pub use crate::expand::{
        route_batch, ExpandOptions, ExpandedJob, Message, OperatorInstance, OutRoute, Reply,
    };
    pub use crate::graph::{
        EdgeSpec, GraphError, JobBuilder, JobSpec, Routing, StageId, StageSpec,
    };
    pub use crate::operator::{
        InstanceCtx, Operator, OperatorKind, StateSnapshot, WatermarkTracker,
    };
    pub use crate::ops::{
        Aggregation, FilterOp, MapOp, Passthrough, SessionWindow, SpinMap, WindowAggregate,
        WindowJoin,
    };
    pub use crate::queries::{
        agg_query, ipq1, ipq2, ipq3, ipq4, join_query, AggQueryParams, JoinQueryParams, StageCosts,
    };
    pub use crate::window::WindowSpec;
}
