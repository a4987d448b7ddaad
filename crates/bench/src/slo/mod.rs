//! Open-loop SLO harness: declarative workload specs → deadline-miss
//! curves under overload.
//!
//! The paper's pitch is deadline behavior *under overload* (Fig 8) —
//! a closed-loop benchmark can never show queueing collapse because it
//! politely waits for the system. This module is the open-loop
//! counterpart: a tiny declarative spec ([`spec`]) describing tenants ×
//! jobs × arrival process × latency target is compiled ([`schedule`])
//! into a deterministic event schedule, driven against the real runtime
//! over the v2 wire format ([`driver`]) with coordinated-omission-safe
//! latency capture ([`capture`]), or replayed under the virtual-time
//! simulator ([`simbridge`]) as a deterministic cross-check. The
//! `slo_sweep` binary sweeps offered load as fractions of measured
//! saturation and emits the miss-rate / tail-latency curves.

pub mod capture;
pub mod driver;
pub mod json;
pub mod schedule;
pub mod simbridge;
pub mod spec;

pub use capture::{summarize, Record, Summary};
pub use driver::{measure_saturation, run_open_loop, DriveConfig, DriveOutcome, TenantOutcome};
pub use schedule::{compile, Event, EventKind, Schedule};
pub use spec::{Arrival, SloSpec, SpecError, TenantSpec};
