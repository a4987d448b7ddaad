//! Crash recovery ([`Runtime::recover`]) and the snapshot's consistent
//! cut ([`try_snapshot`]).

use super::jobs::JobRt;
use super::{relock, JobHandle, Runtime, RuntimeConfig, Shared};
use crate::durability::{
    self, JournalRecord, RecoverError, RecoveryReport, SnapshotError, SpecRegistry,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

impl Runtime {
    /// Recover a crashed durable runtime from its journal and snapshots.
    ///
    /// `config` must carry the same [`DurabilityConfig`] directory the
    /// crashed runtime used; `registry` must register every spec that
    /// was deployed (operator factories are code — the journal records
    /// *which* job, the registry supplies *how* to rebuild it).
    ///
    /// The sequence: repair the journal's torn tail (checksum scan,
    /// truncate), load the newest valid snapshot (corrupt ones are
    /// rejected by checksum and counted), restore every slot's
    /// generation and every operator instance's state, then replay the
    /// journal suffix — deploys and undeploys through the slot map
    /// (idempotently: records already reflected in the snapshot are
    /// skipped), ingested frames through the normal ingest path with
    /// their **original** logical times and progress. The result is an
    /// at-least-once floor, and effectively-once outputs for
    /// deterministic operators.
    ///
    /// [`DurabilityConfig`]: crate::durability::DurabilityConfig
    pub fn recover(
        config: RuntimeConfig,
        registry: &SpecRegistry,
    ) -> Result<(Runtime, RecoveryReport), RecoverError> {
        let dcfg = config
            .durability
            .clone()
            .ok_or(RecoverError::NotConfigured)?;
        let mut report = RecoveryReport::default();
        // Repair the torn tail first (open scans the newest segment and
        // truncates past the last valid record), then drop this handle:
        // `Runtime::start` below opens the journal for appending.
        {
            let (_repair, torn) =
                durability::Journal::open(&dcfg.dir, dcfg.fsync, dcfg.segment_bytes)?;
            report.torn_bytes += torn;
        }
        let (snaps, rejected) = durability::snapshot::load_all(&dcfg.dir)?;
        report.manifests_rejected = rejected;
        let latest = snaps.last().cloned();
        let from = latest.as_ref().map_or(0, |s| s.journal_offset);
        let (records, stats) = durability::journal::read_records(&dcfg.dir, from)?;
        report.torn_bytes += stats.torn_bytes;

        let rt = Runtime::start(config);
        let dur = rt.shared.dur.as_ref().expect("durability configured");
        // Replayed work must not be re-journaled: it is already in the
        // journal, at the offsets being replayed.
        dur.active.store(false, Ordering::Release);
        {
            let mut retained = relock(&dur.retained);
            for s in snaps.iter().rev().take(2).rev() {
                retained.push((s.seq, s.journal_offset));
            }
        }
        if let Some(snap) = &latest {
            dur.snapshot_seq.store(snap.seq, Ordering::Release);
            report.snapshot_seq = Some(snap.seq);
            for (idx, slot) in snap.slots.iter().enumerate() {
                let Some(job) = &slot.job else {
                    // Vacant slots carry state too: their generation
                    // keeps pre-crash stale handles invalid.
                    rt.shared.jobs.restore_vacant(idx as u32, slot.gen);
                    continue;
                };
                let jrt = rt.redeploy(idx as u32, slot.gen, &job.name, registry)?;
                let mismatch = |instance| RecoverError::StateMismatch {
                    job: job.name.clone(),
                    instance,
                };
                if job.instances.len() != jrt.instances.len() {
                    return Err(mismatch(job.instances.len().min(jrt.instances.len())));
                }
                for (i, (bytes, inst)) in job.instances.iter().zip(&jrt.instances).enumerate() {
                    if !relock(inst).state_restore(bytes) {
                        return Err(mismatch(i));
                    }
                }
                report.snapshot_jobs += 1;
            }
        }
        for (_end, rec) in records {
            report.records_replayed += 1;
            match rec {
                JournalRecord::Deploy { slot, gen, name } => {
                    if !rt.shared.jobs.reflects_deploy(slot, gen) {
                        rt.redeploy(slot, gen, &name, registry)?;
                    }
                }
                JournalRecord::Undeploy { slot, gen } => {
                    // A stale handle (slot already advanced — the
                    // undeploy was snapshotted) errors; that is the
                    // idempotent skip.
                    let _ = rt.undeploy_within(JobHandle { slot, gen }, Duration::from_secs(5));
                }
                JournalRecord::Frames(frames) => {
                    // One admission per record, as the live call that
                    // wrote it; a refused frame's slot has since advanced.
                    let len = frames.len();
                    let now = rt.shared.now();
                    let out = rt.admit(
                        frames
                            .into_iter()
                            .map(|f| (f.slot, f.gen, f.source, f.into_batch(now))),
                    );
                    report.frames_replayed += out.frames;
                    report.stale_frames += len - out.frames;
                }
            }
        }
        dur.active.store(true, Ordering::Release);
        Ok((rt, report))
    }

    /// Re-expand `name` from the registry into `slot` at `gen`, exactly
    /// as journaled, through the install path `deploy` uses.
    fn redeploy(
        &self,
        slot: u32,
        gen: u32,
        name: &str,
        registry: &SpecRegistry,
    ) -> Result<Arc<JobRt>, RecoverError> {
        let (spec, opts) = registry
            .get(name)
            .ok_or_else(|| RecoverError::UnknownSpec(name.to_string()))?;
        let (_, jrt) = self
            .shared
            .jobs
            .claim(slot, gen)
            .install(spec, opts)
            .map_err(RecoverError::Expand)?;
        Ok(jrt)
    }
}

/// Take a snapshot at the next quiescent point, polling for one for up
/// to `wait`.
///
/// The consistent-cut protocol: take the jobs read lock, then the
/// journal lock (the global jobs → journal order), and verify
/// quiescence — scheduler empty *and* every job's in-flight count zero
/// — while holding both. Ingress appends the journal record while its
/// `IngressGuard` holds the count above zero, so under this check no
/// record at or below the captured offset can have unprocessed effects,
/// and any concurrent ingress past its admission check blocks on the
/// journal lock until after the offset is captured — its record lands
/// strictly above the cut. The state scan runs under the same two
/// locks; the (slow) blob write happens after both are released.
pub(super) fn try_snapshot(sh: &Shared, wait: Duration) -> Result<u64, SnapshotError> {
    let Some(dur) = &sh.dur else {
        return Err(SnapshotError::Inactive);
    };
    let (seq, offset, slots) = sh
        .at_quiescence(
            wait,
            || dur.journal.begin(),
            |jobs, journal| {
                let seq = dur.snapshot_seq.fetch_add(1, Ordering::AcqRel) + 1;
                (seq, journal.offset(), jobs.snapshot())
            },
        )
        .ok_or(SnapshotError::Busy)?;
    durability::snapshot::write_snapshot(dur.journal.dir(), seq, offset, &slots)?;
    // Retain the latest two snapshots; truncate the journal only below
    // the *older* retained offset, so a torn newest snapshot still
    // recovers from the previous one plus a longer journal suffix.
    let (keep, trunc_below) = {
        let mut retained = relock(&dur.retained);
        retained.push((seq, offset));
        while retained.len() > 2 {
            retained.remove(0);
        }
        (
            retained.iter().map(|&(s, _)| s).collect::<Vec<u64>>(),
            retained[0].1,
        )
    };
    durability::snapshot::prune(dur.journal.dir(), &keep)?;
    dur.journal.begin().truncate_before(trunc_below)?;
    Ok(seq)
}
