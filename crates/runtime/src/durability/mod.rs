//! Crash durability for the runtime: an append-only event journal,
//! periodic operator-state snapshots, and replay-to-consistent-cut
//! recovery.
//!
//! ## The three layers
//!
//! **Journal** ([`journal`]): every accepted ingress call appends one
//! group-committed [`record::JournalRecord`] *before* its messages are
//! published to the scheduler (write-ahead), and deploy/undeploy append
//! lifecycle records so the generational slot map replays exactly.
//! Fsync cadence is configurable ([`FsyncPolicy`]).
//!
//! **Snapshots** ([`snapshot`]): at quiescent points (scheduler empty,
//! no in-flight messages — verified while *holding the journal lock*,
//! so no record can land under the captured offset unprocessed), the
//! runtime serializes every operator instance's state
//! (`StateSnapshot`) into a checksummed blob plus an atomically
//! renamed manifest recording the journal offset the snapshot covers.
//! The latest two snapshots are retained; journal segments wholly
//! below the *older* retained offset are deleted.
//!
//! **Recovery** (`Runtime::recover`): load the newest valid manifest
//! (torn or corrupt manifests/blobs are detected by checksum and
//! skipped), re-expand each journaled job from the caller's
//! [`SpecRegistry`] into its original slot and generation, restore
//! operator state, then replay the journal suffix through the normal
//! ingest path. Replay is idempotent against the snapshot (`Deploy`/
//! `Undeploy` records already reflected in the restored slot map are
//! skipped), giving an at-least-once floor and effectively-once output
//! for deterministic operators: replayed batches carry their original
//! `LogicalTime`s, so windows fire identically.

pub mod journal;
pub mod record;
pub mod snapshot;

pub use journal::{FsyncPolicy, Journal, ReplayStats};
pub use record::{FrameRecord, JournalRecord};
pub use snapshot::{JobSnapshot, LoadedSnapshot, SlotSnapshot};

use cameo_dataflow::expand::ExpandOptions;
use cameo_dataflow::graph::JobSpec;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Durability knobs, passed via `RuntimeConfig::with_durability`.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding journal segments and snapshots.
    pub dir: PathBuf,
    /// When journal appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Target size of one journal segment file.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the defaults: no fsync (page
    /// cache survives process crashes; power loss falls back to the
    /// checksummed-tail truncation) and 16 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Never,
            segment_bytes: 16 << 20,
        }
    }

    /// Builder: fsync policy.
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Builder: journal segment size.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }
}

/// Why a snapshot attempt failed.
#[derive(Debug)]
pub enum SnapshotError {
    /// The runtime was started without durability.
    Inactive,
    /// The runtime never quiesced within the wait budget (messages
    /// in flight or queued throughout).
    Busy,
    /// Filesystem failure writing the blob/manifest or pruning.
    Io(io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Inactive => write!(f, "durability is not configured"),
            SnapshotError::Busy => write!(f, "runtime did not quiesce within the wait budget"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Why recovery failed. Torn tails and corrupt snapshots are *not*
/// errors — they are expected crash artifacts, skipped and counted in
/// the [`RecoveryReport`]; these are the genuinely unrecoverable cases.
#[derive(Debug)]
pub enum RecoverError {
    /// The config passed to `Runtime::recover` has no durability.
    NotConfigured,
    /// Filesystem failure reading the journal or snapshots.
    Io(io::Error),
    /// A journaled or snapshotted job names a spec the caller's
    /// [`SpecRegistry`] does not provide.
    UnknownSpec(String),
    /// A registered spec failed to re-expand (the registry's spec
    /// diverged from the journaled deployment).
    Expand(cameo_dataflow::graph::GraphError),
    /// A snapshotted instance state did not fit the re-expanded job
    /// (spec shape changed between crash and recovery).
    StateMismatch {
        /// The job whose state failed to restore.
        job: String,
        /// The instance index within the job.
        instance: usize,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::NotConfigured => {
                write!(f, "recover requires a RuntimeConfig with durability")
            }
            RecoverError::Io(e) => write!(f, "recovery I/O failed: {e}"),
            RecoverError::UnknownSpec(name) => {
                write!(f, "journaled job {name:?} is not in the spec registry")
            }
            RecoverError::Expand(e) => write!(f, "re-expanding a journaled job failed: {e}"),
            RecoverError::StateMismatch { job, instance } => write!(
                f,
                "snapshot state for job {job:?} instance {instance} does not fit the spec"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What recovery found and did — inspect it to decide whether the
/// recovered state is acceptable (e.g. alert on torn bytes).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the snapshot restored from (`None`: journal-only
    /// recovery from offset 0).
    pub snapshot_seq: Option<u64>,
    /// Jobs restored from the snapshot.
    pub snapshot_jobs: usize,
    /// Manifests rejected as torn/corrupt before a valid one was found.
    pub manifests_rejected: usize,
    /// Journal records replayed after the snapshot cut.
    pub records_replayed: usize,
    /// Ingested frames replayed (within `Frames` records).
    pub frames_replayed: usize,
    /// Journal bytes discarded as torn (crash mid-append).
    pub torn_bytes: u64,
    /// Replayed frames dropped because their job was since undeployed
    /// (generation mismatch during replay — expected when the journal
    /// suffix spans an undeploy).
    pub stale_frames: usize,
}

/// The specs recovery re-expands journaled jobs from, keyed by
/// [`JobSpec::name`]. Operator factories are code, not data — the
/// journal records *which* job was deployed (by name, slot and
/// generation); the registry supplies the *how* (the spec and its
/// expansion options, exactly as passed to `deploy`).
#[derive(Default)]
pub struct SpecRegistry {
    map: HashMap<String, (JobSpec, ExpandOptions)>,
}

impl SpecRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SpecRegistry::default()
    }

    /// Register a spec (keyed by its name) with the expansion options
    /// it is deployed under. Re-registering a name replaces it.
    pub fn register(&mut self, spec: JobSpec, opts: ExpandOptions) -> &mut Self {
        self.map.insert(spec.name.clone(), (spec, opts));
        self
    }

    /// Look up a spec by name.
    pub fn get(&self, name: &str) -> Option<(&JobSpec, &ExpandOptions)> {
        self.map.get(name).map(|(s, o)| (s, o))
    }

    /// Number of registered specs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The runtime's live durability state: the open journal plus snapshot
/// bookkeeping. Lives inside the runtime's `Shared`.
pub(crate) struct DurState {
    pub(crate) journal: Journal,
    /// Last snapshot sequence number issued.
    pub(crate) snapshot_seq: AtomicU64,
    /// False while recovery replays the journal, so replayed work is
    /// not re-journaled; true in normal operation.
    pub(crate) active: AtomicBool,
    /// `(seq, journal_offset)` of retained snapshots, oldest first (at
    /// most two). The journal is truncated below the oldest retained
    /// offset only.
    pub(crate) retained: Mutex<Vec<(u64, u64)>>,
}

impl DurState {
    pub(crate) fn open(cfg: &DurabilityConfig) -> io::Result<Self> {
        let (journal, _torn) = Journal::open(&cfg.dir, cfg.fsync, cfg.segment_bytes)?;
        Ok(DurState {
            journal,
            snapshot_seq: AtomicU64::new(0),
            active: AtomicBool::new(true),
            retained: Mutex::new(Vec::new()),
        })
    }

    /// True when appends should be journaled (false during replay).
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_core::time::Micros;
    use cameo_dataflow::queries::ipq1;

    #[test]
    fn registry_replaces_and_resolves_by_name() {
        let mut reg = SpecRegistry::new();
        assert!(reg.is_empty());
        let spec = ipq1(1_000, Micros::from_millis(100));
        let name = spec.name.clone();
        reg.register(spec, ExpandOptions::default());
        assert_eq!(reg.len(), 1);
        assert!(reg.get(&name).is_some());
        assert!(reg.get("nope").is_none());
    }
}
