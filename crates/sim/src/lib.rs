//! # cameo-sim
//!
//! A deterministic discrete-event simulator of the paper's testbed: a
//! multi-node cluster running multi-tenant streaming dataflows under
//! one of four schedulers (Cameo's two-level priority scheduler, the
//! FIFO baseline, an Orleans-ConcurrentBag model, and slot-based
//! pinning).
//!
//! ## Why a simulator?
//!
//! The paper evaluates on 32 Azure VMs with production-derived
//! workloads over hundreds of seconds. The *results*, though, are
//! about scheduling order under contention — which messages wait and
//! which run. The simulator executes the real `cameo-core` scheduler
//! and the real `cameo-dataflow` operators; only "a worker is busy for
//! C microseconds" is modeled (per-stage base cost + per-tuple cost).
//! This keeps who-wins/by-how-much shapes intact while a full
//! multi-tenant experiment runs in seconds on a laptop, and makes every
//! run bit-for-bit reproducible from a seed.
//!
//! ## Structure
//!
//! * [`engine`] — the event loop (arrivals, deliveries, executions,
//!   replies) over virtual time.
//! * [`dispatch`] — the run queues under test: the runtime's scheduler
//!   and the Orleans and Slot baselines, each a `RunQueue` the workers'
//!   steps turn.
//! * [`workload`] — synthetic workload generators matching the
//!   production-trace statistics described in the paper (Pareto
//!   volumes, 200× source skew, bursts).
//! * [`costmodel`] — execution cost model + the Fig 16 measurement
//!   perturbation.
//! * [`cluster`] — nodes, workers, network delay, placement.
//! * [`metrics`] / [`report`] — latency distributions, success rates,
//!   utilization, timelines, table rendering.
//! * [`scenario`] — the high-level builder experiments use.

pub mod cluster;
pub mod costmodel;
pub mod dispatch;
pub mod engine;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod workload;

pub mod prelude {
    pub use crate::cluster::{ClusterSpec, Placement};
    pub use crate::costmodel::{CostConfig, CostModel};
    pub use crate::engine::{Engine, EngineConfig, PolicyKind, SchedulerKind};
    pub use crate::metrics::{JobMetrics, SchedEvent, SimMetrics};
    pub use crate::report::{print_table, render_table};
    pub use crate::scenario::{JobSetup, Scenario, SimReport, TraceEvent, TraceKind};
    pub use crate::workload::{RatePattern, WorkloadGen, WorkloadSpec};
}
