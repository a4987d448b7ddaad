//! # cameo-runtime
//!
//! The real-time actor runtime for Cameo: the Flare/Orleans role of the
//! paper's stack, rebuilt from scratch. A pool of worker threads drains
//! the Cameo scheduler under wall-clock time; operators run with actor
//! exclusivity (one message at a time), priorities come from the same
//! `cameo-core` context machinery the simulator uses, and events can be
//! ingested in-process or over TCP with length-prefixed framing.
//!
//! The runtime builds on Linux only: ingest is served from one `epoll`
//! loop and workers pin with `sched_setaffinity`.
//!
//! ```no_run
//! use cameo_runtime::prelude::*;
//! use cameo_dataflow::prelude::*;
//! use cameo_core::prelude::*;
//!
//! let rt = Runtime::start(RuntimeConfig::default().with_workers(4));
//! let spec = ipq1(1_000_000, Micros::from_millis(800));
//! let job = rt.deploy(&spec, &ExpandOptions::default()).expect("valid job graph");
//! rt.ingest(job, 0, vec![Tuple::new(1, 42, LogicalTime(0))]).expect("job is live");
//! let stats = rt.job_stats(job).expect("job is live");
//! println!("outputs so far: {}", stats.outputs);
//! rt.undeploy(job).expect("drain and retire");
//! rt.shutdown();
//! ```

#![deny(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("cameo-runtime builds on Linux only (epoll ingest, sched_setaffinity pinning)");

pub mod durability;
pub mod msg;
pub mod net;
pub mod runtime;
pub mod stats;

/// Everything most runtime users need.
pub mod prelude {
    pub use crate::durability::{
        DurabilityConfig, FsyncPolicy, RecoverError, RecoveryReport, SnapshotError, SpecRegistry,
    };
    pub use crate::msg::FrameDecoder;
    pub use crate::net::{
        decode_payload, encode_frame, IngestClient, IngestFrame, IngestServer, NackFrame,
    };
    pub use crate::runtime::{
        DeployError, IngestOutcome, JobError, JobHandle, OutputEvent, OutputSubscription,
        RejectedFrame, Runtime, RuntimeConfig,
    };
    pub use crate::stats::{JobStats, JobStatsSnapshot};
}
