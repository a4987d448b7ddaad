//! Job expansion: turning a stage-level [`JobSpec`]
//! into operator *instances* with fully wired channels, out-routes, and
//! per-operator converter state.
//!
//! Both execution engines (the real-time runtime and the discrete-event
//! simulator) consume this exact structure, and both take every hop of
//! Algorithm 1 through the same three instance steps:
//! [`OperatorInstance::fan_out_source`] (`BUILDCXTATSOURCE` and
//! routing), [`OperatorInstance::execute`] (the operator and watermark
//! propagation) and [`OperatorInstance::fan_out`] (`PREPAREREPLY`, then
//! `BUILDCXTATOPERATOR` and routing). That is what guarantees they
//! schedule the same dataflow with the same contexts; each engine keeps
//! only its clock, its cost source, sink handling and delivery.

use crate::event::Batch;
use crate::graph::{GraphError, JobSpec, Routing, StageId};
use crate::operator::{InstanceCtx, Operator, OperatorKind, WatermarkTracker};
use cameo_core::context::{PriorityContext, ReplyContext};
use cameo_core::ids::{JobId, OperatorKey};
use cameo_core::policy::{ConverterState, HopInfo, MessageStamp, Policy, TokenBucket};
use cameo_core::time::{LogicalTime, Micros, PhysicalTime};
use std::collections::HashMap;

/// Deployment options applied uniformly to a job's converters.
#[derive(Clone, Debug)]
pub struct ExpandOptions {
    /// Query-semantics awareness (Fig 15 ablation): when `false`,
    /// deadlines are never extended to window frontiers.
    pub semantics_aware: bool,
    /// Seed per-edge cost/critical-path reports from the stage cost
    /// hints so cold-start scheduling matches steady state. Reply
    /// contexts overwrite the seeds as real profiles arrive.
    pub seed_profiles: bool,
    /// Token allocation per ingest source under the token fair-sharing
    /// policy: (tokens per interval, interval length).
    pub token_rate: Option<(u64, Micros)>,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions {
            semantics_aware: true,
            seed_profiles: true,
            token_rate: None,
        }
    }
}

/// One outgoing stage-edge of an instance, with pre-resolved targets.
#[derive(Clone, Debug)]
pub struct OutRoute {
    /// Ordinal of this edge among the sender stage's out-edges — the
    /// profile key that reply contexts update (`HopInfo::edge`).
    pub edge: u32,
    /// How batches fan out across the targets.
    pub routing: Routing,
    /// Slide pair for `TRANSFORM` at this hop.
    pub hop: HopInfo,
    /// `(target instance index within job, channel index at target)`.
    pub targets: Vec<(usize, u32)>,
}

/// One scheduled message, as both engines queue it. It carries no
/// reply address: whoever sent a message on input channel `ch` of
/// instance `t` is `instances[t].channel_senders[ch]`.
#[derive(Clone, Debug)]
pub struct Message {
    /// Input channel at the target instance.
    pub channel: u32,
    /// The tuple batch being delivered.
    pub batch: Batch,
    /// The Priority Context the batch travels with.
    pub pc: PriorityContext,
}

/// A Reply Context on its way upstream, with its address.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    /// Instance index (within the job) of the upstream sender.
    pub to: usize,
    /// The sender's out-edge ordinal: the profile the reply updates.
    pub edge: u32,
    /// What `PREPAREREPLY` reported.
    pub rc: ReplyContext,
}

/// One operator instance of an expanded job.
pub struct OperatorInstance {
    /// The instance's scheduler key (job id + global instance index).
    pub key: OperatorKey,
    /// Stage this instance belongs to.
    pub stage: StageId,
    /// The stage's name (diagnostics).
    pub stage_name: String,
    /// Index within the stage.
    pub index: u32,
    /// `None` for ingest instances (events enter there; nothing runs).
    pub op: Option<Box<dyn Operator>>,
    /// Per-operator Cameo context-conversion state.
    pub converter: ConverterState,
    /// Pre-resolved outgoing routes.
    pub outs: Vec<OutRoute>,
    /// For each input channel: `(sender instance index, sender's
    /// out-edge ordinal)` — the reply path. Channel `ch` of instance
    /// `t` is wired to exactly one `(sender, out-route)`, and that
    /// route's targets hold `(t, ch)`, so a message's channel names its
    /// sender.
    pub channel_senders: Vec<(usize, u32)>,
    /// True for instances of the job's sink stage.
    pub is_sink: bool,
    /// Modeled per-message cost inherited from the stage.
    pub cost_hint: Micros,
    /// Regular vs windowed triggering.
    pub kind: OperatorKind,
    /// Input-side stream progress per channel. Regular operators merge
    /// several input channels into each output channel, so their output
    /// progress must be the *minimum* progress over inputs — otherwise
    /// a fast source would advance downstream watermarks past a slow
    /// source's in-flight data (classic watermark propagation).
    input_wm: Option<WatermarkTracker>,
}

impl OperatorInstance {
    /// True for source instances (no operator; events enter here).
    pub fn is_ingest(&self) -> bool {
        self.op.is_none() && !self.is_sink
    }

    /// Number of wired input channels.
    pub fn num_channels(&self) -> usize {
        self.channel_senders.len()
    }

    /// Source fan-out of a batch entering the dataflow at this ingest
    /// instance: per out-route, one `BUILDCXTATSOURCE`, then the batch
    /// routed across the route's targets, each `(target, message)`
    /// handed to `emit`. The final route moves the batch
    /// ([`route_batch_owned`]).
    pub fn fan_out_source(
        &mut self,
        policy: &dyn Policy,
        latency_constraint: Micros,
        mut batch: Batch,
        mut emit: impl FnMut(usize, Message),
    ) {
        let stamp = MessageStamp {
            progress: batch.progress,
            time: batch.time,
        };
        let routes = self.outs.len();
        for (ri, route) in self.outs.iter().enumerate() {
            let pc = policy.build_at_source(
                self.key.job,
                stamp,
                latency_constraint,
                &route.hop,
                &mut self.converter,
            );
            send(route, pc, &mut batch, ri + 1 == routes, &mut emit);
        }
    }

    /// Execution: run the operator on `msg` at `now`, then clamp a
    /// *regular* operator's output progress to its input watermark (see
    /// `input_wm`). Windowed operators already emit watermark-correct
    /// window triggers.
    pub fn execute(&mut self, msg: &Message, now: PhysicalTime) -> Vec<Batch> {
        let mut outs = Vec::new();
        self.op
            .as_mut()
            .expect("scheduled instance has an operator")
            .on_batch(msg.channel, &msg.batch, now, &mut outs);
        if let Some(wm) = self.input_wm.as_mut() {
            let w = wm.observe(msg.channel, msg.batch.progress.0);
            for b in outs.iter_mut() {
                if b.progress.0 > w {
                    b.progress = LogicalTime(w);
                }
            }
        }
        outs
    }

    /// Operator fan-out after [`execute`](Self::execute) ran `msg`:
    /// record `cost` as this instance's own cost, `PREPAREREPLY`, then,
    /// route by route and output by output, one `BUILDCXTATOPERATOR`
    /// and the output routed across the route's targets, each
    /// `(target, message)` handed to `emit`. The final route moves the
    /// outputs out of `outputs`; a sink has no routes, so its outputs
    /// stay there for the engine to deliver. Returns the reply,
    /// addressed to the sender of the channel `msg` arrived on.
    pub fn fan_out(
        &mut self,
        policy: &dyn Policy,
        msg: &Message,
        cost: Micros,
        outputs: &mut Vec<Batch>,
        mut emit: impl FnMut(usize, Message),
    ) -> Reply {
        self.converter.profile.record_own_cost(cost);
        let (to, edge) = self.channel_senders[msg.channel as usize];
        let reply = Reply {
            to,
            edge,
            rc: policy.prepare_reply(&self.converter, self.is_sink),
        };
        let routes = self.outs.len();
        for (ri, route) in self.outs.iter().enumerate() {
            for out in outputs.iter_mut() {
                let stamp = MessageStamp {
                    progress: out.progress,
                    time: out.time,
                };
                let pc = policy.build_at_operator(&msg.pc, stamp, &route.hop, &mut self.converter);
                send(route, pc, out, ri + 1 == routes, &mut emit);
            }
        }
        if routes > 0 {
            outputs.clear();
        }
        reply
    }

    /// Serializes this instance's durable state: the input-side
    /// watermark (channel count then per-channel progress; count 0 when
    /// the instance tracks none) followed by the operator's own
    /// [`StateSnapshot`](crate::operator::StateSnapshot) bytes.
    pub fn state_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match &self.input_wm {
            Some(wm) => {
                crate::codec::put_u32(&mut out, wm.progress().len() as u32);
                for &p in wm.progress() {
                    crate::codec::put_u64(&mut out, p);
                }
            }
            None => crate::codec::put_u32(&mut out, 0),
        }
        if let Some(op) = &self.op {
            op.snapshot_state(&mut out);
        }
        out
    }

    /// Restores state captured by [`state_snapshot`](Self::state_snapshot)
    /// into a freshly expanded instance. Returns false (leaving the
    /// instance untouched where possible) on any shape mismatch.
    pub fn state_restore(&mut self, bytes: &[u8]) -> bool {
        let mut r = crate::codec::Reader::new(bytes);
        let Some(nch) = r.u32() else { return false };
        let expect = self.input_wm.as_ref().map_or(0, |wm| wm.num_channels());
        if nch as usize != expect {
            return false;
        }
        let mut per_channel = Vec::with_capacity(nch as usize);
        for _ in 0..nch {
            let Some(p) = r.u64() else { return false };
            per_channel.push(p);
        }
        let rest = r.remaining();
        match &mut self.op {
            Some(op) => {
                if !op.restore_state(rest) {
                    return false;
                }
            }
            None => {
                if !rest.is_empty() {
                    return false;
                }
            }
        }
        if nch > 0 {
            self.input_wm = Some(WatermarkTracker::from_progress(per_channel));
        }
        true
    }
}

/// A deployed job: all operator instances plus lookup tables.
pub struct ExpandedJob {
    /// The job id the instances are keyed under.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// End-to-end latency target.
    pub latency_constraint: Micros,
    /// Every operator instance, indexed by `OperatorKey::op`.
    pub instances: Vec<OperatorInstance>,
    /// Instance indices of ingest (source) instances.
    pub ingests: Vec<usize>,
    /// First instance index of each stage.
    pub stage_offsets: Vec<usize>,
}

/// The ingest instance that a frame addressed to `source` enters
/// through, out of a job's [`ExpandedJob::ingests`]: sources past the
/// ingest count wrap around. The runtime's admission (and so its
/// journal replay) and the simulator both route by this rule.
pub fn ingest_instance(ingests: &[usize], source: u32) -> usize {
    ingests[source as usize % ingests.len()]
}

/// Deterministic key spreader for partition routing.
#[inline]
pub fn partition_hash(key: u64) -> u64 {
    // SplitMix64 finalizer: strong avalanche for sequential keys.
    let mut x = key.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Route `batch` across `route`'s targets, handing each `(target,
/// message)` under `pc` to `emit`. The final route of a fan-out
/// (`last`) moves the batch out, leaving an empty one behind.
fn send(
    route: &OutRoute,
    pc: PriorityContext,
    batch: &mut Batch,
    last: bool,
    emit: &mut impl FnMut(usize, Message),
) {
    let routed = if last {
        route_batch_owned(route, std::mem::take(batch))
    } else {
        route_batch(route, batch)
    };
    for (target, channel, batch) in routed {
        emit(target, Message { channel, batch, pc });
    }
}

/// Split a batch across `route.targets` according to the routing mode.
/// Under `Partition`, *every* target receives a sub-batch (possibly
/// empty) carrying the full progress, so watermarks advance everywhere.
pub fn route_batch(route: &OutRoute, batch: &Batch) -> Vec<(usize, u32, Batch)> {
    route_batch_inner(route, batch)
}

/// Like [`route_batch`], but consumes the batch. With exactly one
/// target every routing mode delivers the whole batch there — `Forward`
/// by definition, `Broadcast` and `Partition` degenerately — so the
/// single-target case (a parallelism-1 stage or any `Forward` edge, the
/// common shapes on both fan-outs) *moves* the batch instead of hashing
/// and copying it tuple by tuple.
pub fn route_batch_owned(route: &OutRoute, batch: Batch) -> Vec<(usize, u32, Batch)> {
    if route.targets.len() == 1 {
        let (t, c) = route.targets[0];
        return vec![(t, c, batch)];
    }
    route_batch_inner(route, &batch)
}

fn route_batch_inner(route: &OutRoute, batch: &Batch) -> Vec<(usize, u32, Batch)> {
    match route.routing {
        Routing::Forward => {
            let (t, c) = route.targets[0];
            vec![(t, c, batch.clone())]
        }
        Routing::Broadcast => route
            .targets
            .iter()
            .map(|&(t, c)| (t, c, batch.clone()))
            .collect(),
        Routing::Partition => {
            let n = route.targets.len();
            let mut parts: Vec<Vec<crate::event::Tuple>> = vec![Vec::new(); n];
            for &t in &batch.tuples {
                parts[(partition_hash(t.key) % n as u64) as usize].push(t);
            }
            route
                .targets
                .iter()
                .zip(parts)
                .map(|(&(t, c), tuples)| {
                    (
                        t,
                        c,
                        Batch::with_progress(tuples, batch.progress, batch.time),
                    )
                })
                .collect()
        }
    }
}

impl ExpandedJob {
    /// Expand `spec` into operator instances for job `id`.
    ///
    /// The spec is re-validated first ([`JobSpec::validate`]): `JobSpec`
    /// fields are public, so a hand-assembled spec that skipped
    /// [`JobBuilder::build`](crate::graph::JobBuilder::build) is
    /// rejected here with the precise [`GraphError`] instead of
    /// panicking (or dividing by zero) somewhere inside an execution
    /// engine. Both engines — `Runtime::deploy` and the simulator —
    /// deploy exclusively through this function, which is what makes
    /// deployment a total, fallible operation end to end.
    pub fn expand(
        spec: &JobSpec,
        id: JobId,
        opts: &ExpandOptions,
    ) -> Result<ExpandedJob, GraphError> {
        spec.validate()?;
        let nstages = spec.stages.len();
        // Global instance index per (stage, index).
        let mut stage_offsets = Vec::with_capacity(nstages);
        let mut total = 0usize;
        for s in &spec.stages {
            stage_offsets.push(total);
            total += s.parallelism as usize;
        }
        let global = |stage: StageId, idx: u32| stage_offsets[stage.0 as usize] + idx as usize;

        // Pass 1: channels at every target instance.
        // channel_senders[t] = ordered [(sender_instance, sender_edge_ordinal)]
        // channel_edges[t]   = ordered [target-side in-edge ordinal] (for InstanceCtx)
        // channel_of[(t, global_edge, sender)] = channel index
        let mut channel_senders: Vec<Vec<(usize, u32)>> = vec![Vec::new(); total];
        let mut channel_edges: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut channel_of: HashMap<(usize, usize, usize), u32> = HashMap::new();

        // Sender-side out-edge ordinals per stage.
        let mut out_ordinal: HashMap<usize, u32> = HashMap::new(); // global edge idx -> ordinal
        for s in 0..nstages as u32 {
            for (ord, (gidx, _)) in spec.out_edges(StageId(s)).enumerate() {
                out_ordinal.insert(gidx, ord as u32);
            }
        }

        for s in 0..nstages as u32 {
            let sid = StageId(s);
            let tpar = spec.stage(sid).parallelism;
            for (in_ord, (gidx, e)) in spec.in_edges(sid).enumerate() {
                let spar = spec.stage(e.from).parallelism;
                for tinst in 0..tpar {
                    let tglobal = global(sid, tinst);
                    let senders: Vec<u32> = match e.routing {
                        Routing::Forward => (0..spar).filter(|i| i % tpar == tinst).collect(),
                        Routing::Partition | Routing::Broadcast => (0..spar).collect(),
                    };
                    for sinst in senders {
                        let sglobal = global(e.from, sinst);
                        let ch = channel_senders[tglobal].len() as u32;
                        channel_senders[tglobal].push((sglobal, out_ordinal[&gidx]));
                        channel_edges[tglobal].push(in_ord as u32);
                        channel_of.insert((tglobal, gidx, sglobal), ch);
                    }
                }
            }
        }

        // Pass 2: build instances with out-routes and converters.
        let mut instances = Vec::with_capacity(total);
        let mut ingests = Vec::new();
        for (sidx, stage) in spec.stages.iter().enumerate() {
            let sid = StageId(sidx as u32);
            let is_sink = spec.is_sink(sid);
            for inst in 0..stage.parallelism {
                let gidx = global(sid, inst);
                let key = OperatorKey::new(id, gidx as u32);

                // Out routes.
                let mut outs = Vec::new();
                for (gedge, e) in spec.out_edges(sid) {
                    let ord = out_ordinal[&gedge];
                    let tstage = spec.stage(e.to);
                    let targets: Vec<(usize, u32)> = match e.routing {
                        Routing::Forward => {
                            let tinst = inst % tstage.parallelism;
                            let t = global(e.to, tinst);
                            vec![(t, channel_of[&(t, gedge, gidx)])]
                        }
                        Routing::Partition | Routing::Broadcast => (0..tstage.parallelism)
                            .map(|ti| {
                                let t = global(e.to, ti);
                                (t, channel_of[&(t, gedge, gidx)])
                            })
                            .collect(),
                    };
                    outs.push(OutRoute {
                        edge: ord,
                        routing: e.routing,
                        hop: HopInfo {
                            edge: ord,
                            sender_slide: stage.kind.slide(),
                            target_slide: tstage.kind.slide(),
                        },
                        targets,
                    });
                }

                // Converter state.
                let mut converter =
                    ConverterState::new(key, spec.time_domain).with_semantics(opts.semantics_aware);
                if opts.seed_profiles {
                    converter.profile =
                        cameo_core::profile::ProfileState::with_prior(stage.cost_hint);
                    for (gedge, e) in spec.out_edges(sid) {
                        let ord = out_ordinal[&gedge];
                        let tstage = spec.stage(e.to);
                        converter.profile.process_reply(
                            ord,
                            &ReplyContext {
                                cost: tstage.cost_hint,
                                cpath: spec.critical_path_below(e.to),
                                queue_len: 0,
                            },
                        );
                    }
                }
                if stage.is_ingest() {
                    if let Some((tokens, interval)) = opts.token_rate {
                        converter = converter.with_tokens(TokenBucket::new(tokens, interval));
                    }
                    ingests.push(gidx);
                }

                // The operator itself.
                let op = stage.factory.as_ref().map(|f| {
                    f(&InstanceCtx {
                        channels: channel_edges[gidx].clone(),
                        instance: inst,
                        parallelism: stage.parallelism,
                    })
                });

                let num_ch = channel_senders[gidx].len();
                let input_wm = (matches!(stage.kind, OperatorKind::Regular)
                    && !stage.is_ingest()
                    && num_ch > 0)
                    .then(|| WatermarkTracker::new(num_ch));
                instances.push(OperatorInstance {
                    key,
                    stage: sid,
                    stage_name: stage.name.clone(),
                    index: inst,
                    op,
                    converter,
                    outs,
                    channel_senders: channel_senders[gidx].clone(),
                    is_sink,
                    cost_hint: stage.cost_hint,
                    kind: stage.kind,
                    input_wm,
                });
            }
        }

        Ok(ExpandedJob {
            id,
            name: spec.name.clone(),
            latency_constraint: spec.latency_constraint,
            instances,
            ingests,
            stage_offsets,
        })
    }

    /// Instance lookup by `OperatorKey::op`.
    pub fn instance(&self, op: u32) -> &OperatorInstance {
        &self.instances[op as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Tuple;
    use crate::graph::JobBuilder;
    use crate::operator::OperatorKind;
    use crate::ops::Passthrough;
    use cameo_core::progress::TimeDomain;
    use cameo_core::time::{LogicalTime, PhysicalTime};
    use cameo_core::transform::Slide;

    fn spec() -> JobSpec {
        let mut b = JobBuilder::new("j", Micros(1_000), TimeDomain::IngestionTime);
        let src = b.ingest("src", 4);
        let parse = b.stage("parse", 2, OperatorKind::Regular, Micros(10), |_| {
            Box::new(Passthrough)
        });
        let agg = b.stage(
            "agg",
            2,
            OperatorKind::Windowed { slide: Slide(100) },
            Micros(20),
            |_| Box::new(Passthrough),
        );
        let merge = b.stage(
            "merge",
            1,
            OperatorKind::Windowed { slide: Slide(100) },
            Micros(30),
            |_| Box::new(Passthrough),
        );
        b.connect(src, parse, Routing::Partition);
        b.connect(parse, agg, Routing::Forward);
        b.connect(agg, merge, Routing::Partition);
        b.build().unwrap()
    }

    #[test]
    fn expansion_counts_and_offsets() {
        let j = ExpandedJob::expand(&spec(), JobId(3), &ExpandOptions::default()).unwrap();
        assert_eq!(j.instances.len(), 4 + 2 + 2 + 1);
        assert_eq!(j.stage_offsets, vec![0, 4, 6, 8]);
        assert_eq!(j.ingests, vec![0, 1, 2, 3]);
        assert_eq!(j.instances[8].stage_name, "merge");
        assert!(j.instances[8].is_sink);
        assert_eq!(j.instances[5].key, OperatorKey::new(JobId(3), 5));
    }

    #[test]
    fn channels_enumerate_senders() {
        let j = ExpandedJob::expand(&spec(), JobId(0), &ExpandOptions::default()).unwrap();
        // Each parse instance receives from all 4 sources (Partition).
        for p in 4..6 {
            assert_eq!(j.instances[p].num_channels(), 4);
        }
        // Each agg instance receives from exactly one parse (Forward, 2->2).
        for a in 6..8 {
            assert_eq!(j.instances[a].num_channels(), 1);
        }
        // Merge receives from both agg instances.
        assert_eq!(j.instances[8].num_channels(), 2);
        assert_eq!(j.instances[8].channel_senders, vec![(6, 0), (7, 0)]);
    }

    #[test]
    fn out_routes_carry_hops() {
        let j = ExpandedJob::expand(&spec(), JobId(0), &ExpandOptions::default()).unwrap();
        // parse -> agg hop: regular sender, windowed target.
        let parse = &j.instances[4];
        assert_eq!(parse.outs.len(), 1);
        assert_eq!(parse.outs[0].hop.sender_slide, Slide::UNIT);
        assert_eq!(parse.outs[0].hop.target_slide, Slide(100));
        // agg -> merge hop: windowed to windowed.
        let agg = &j.instances[6];
        assert_eq!(agg.outs[0].hop.sender_slide, Slide(100));
        // Forward target of parse instance 0 is agg instance 0.
        assert_eq!(parse.outs[0].targets, vec![(6, 0)]);
    }

    #[test]
    fn profiles_seeded_from_hints() {
        let j = ExpandedJob::expand(&spec(), JobId(0), &ExpandOptions::default()).unwrap();
        // Source converter knows parse costs 10 and 20+30 lies below it.
        let src = &j.instances[0];
        let report = src.converter.profile.edge_report(0).unwrap();
        assert_eq!(report.cost, Micros(10));
        assert_eq!(report.cpath, Micros(50));
        // Sink converter: own cost prior 30.
        assert_eq!(j.instances[8].converter.profile.own_cost(), Micros(30));
    }

    #[test]
    fn no_seed_option() {
        let opts = ExpandOptions {
            seed_profiles: false,
            ..Default::default()
        };
        let j = ExpandedJob::expand(&spec(), JobId(0), &opts).unwrap();
        assert!(j.instances[0].converter.profile.edge_report(0).is_none());
    }

    #[test]
    fn partition_routes_every_target_with_progress() {
        let j = ExpandedJob::expand(&spec(), JobId(0), &ExpandOptions::default()).unwrap();
        let src = &j.instances[0];
        let batch = Batch::new(
            (0..100).map(|k| Tuple::new(k, 1, LogicalTime(k))).collect(),
            PhysicalTime(5),
        );
        let routed = route_batch(&src.outs[0], &batch);
        assert_eq!(routed.len(), 2, "both parse instances receive a sub-batch");
        let total: usize = routed.iter().map(|(_, _, b)| b.len()).sum();
        assert_eq!(total, 100, "no tuple lost");
        for (_, _, b) in &routed {
            assert_eq!(b.progress, LogicalTime(99), "progress flows everywhere");
            assert!(b.len() > 20, "hash spreads sequential keys");
        }
    }

    #[test]
    fn partition_is_deterministic_by_key() {
        let j = ExpandedJob::expand(&spec(), JobId(0), &ExpandOptions::default()).unwrap();
        let src = &j.instances[0];
        let batch = Batch::new(vec![Tuple::new(42, 1, LogicalTime(0))], PhysicalTime(0));
        let a = route_batch(&src.outs[0], &batch);
        let b = route_batch(&src.outs[0], &batch);
        let pos_a = a.iter().position(|(_, _, b)| !b.is_empty()).unwrap();
        let pos_b = b.iter().position(|(_, _, b)| !b.is_empty()).unwrap();
        assert_eq!(pos_a, pos_b);
    }

    #[test]
    fn broadcast_clones_to_all() {
        let mut b = JobBuilder::new("j", Micros(1), TimeDomain::IngestionTime);
        let src = b.ingest("src", 1);
        let s = b.stage("s", 3, OperatorKind::Regular, Micros(1), |_| {
            Box::new(Passthrough)
        });
        b.connect(src, s, Routing::Broadcast);
        let spec = b.build().unwrap();
        let j = ExpandedJob::expand(&spec, JobId(0), &ExpandOptions::default()).unwrap();
        let batch = Batch::new(vec![Tuple::new(1, 1, LogicalTime(0))], PhysicalTime(0));
        let routed = route_batch(&j.instances[0].outs[0], &batch);
        assert_eq!(routed.len(), 3);
        assert!(routed.iter().all(|(_, _, b)| b.len() == 1));
    }

    #[test]
    fn token_rate_only_on_ingests() {
        let opts = ExpandOptions {
            token_rate: Some((5, Micros::from_secs(1))),
            ..Default::default()
        };
        let j = ExpandedJob::expand(&spec(), JobId(0), &opts).unwrap();
        assert!(j.instances[0].converter.tokens.is_some());
        assert!(j.instances[4].converter.tokens.is_none());
    }

    #[test]
    fn expand_rejects_invalid_specs() {
        use crate::graph::StageSpec;
        use std::sync::Arc;
        // A hand-assembled spec (builder skipped): no ingest stage.
        let no_ingest = JobSpec {
            name: "bad".into(),
            latency_constraint: Micros(1),
            time_domain: TimeDomain::IngestionTime,
            stages: vec![StageSpec {
                name: "only".into(),
                parallelism: 1,
                kind: OperatorKind::Regular,
                cost_hint: Micros(1),
                factory: Some(Arc::new(|_| Box::new(Passthrough))),
            }],
            edges: vec![],
        };
        assert_eq!(
            ExpandedJob::expand(&no_ingest, JobId(0), &ExpandOptions::default())
                .err()
                .unwrap(),
            crate::graph::GraphError::NoIngest
        );
        // Zero parallelism would expand to no instances.
        let mut zero_par = spec();
        zero_par.stages[1].parallelism = 0;
        assert!(matches!(
            ExpandedJob::expand(&zero_par, JobId(0), &ExpandOptions::default()).err().unwrap(),
            crate::graph::GraphError::ZeroParallelism(ref s) if s == "parse"
        ));
        // A valid spec still expands.
        assert!(ExpandedJob::expand(&spec(), JobId(0), &ExpandOptions::default()).is_ok());
    }

    #[test]
    fn every_channel_names_the_one_route_that_feeds_it() {
        use crate::queries::{ipq1, ipq2, ipq3, ipq4};
        // Forward, Partition and Broadcast at unequal parallelism, with
        // a two-edge source and a two-edge sink.
        let mut b = JobBuilder::new("mixed", Micros(1_000), TimeDomain::IngestionTime);
        let src = b.ingest("src", 3);
        let a = b.stage("a", 4, OperatorKind::Regular, Micros(1), |_| {
            Box::new(Passthrough)
        });
        let c = b.stage("c", 3, OperatorKind::Regular, Micros(1), |_| {
            Box::new(Passthrough)
        });
        let sink = b.stage("sink", 2, OperatorKind::Regular, Micros(1), |_| {
            Box::new(Passthrough)
        });
        b.connect(src, a, Routing::Partition);
        b.connect(src, c, Routing::Broadcast);
        b.connect(a, sink, Routing::Forward);
        b.connect(c, sink, Routing::Partition);
        let latency = Micros(800_000);
        for spec in [
            ipq1(1_000_000, latency),
            ipq2(1_000_000, latency),
            ipq3(1_000_000, latency),
            ipq4(1_000_000, latency),
            b.build().unwrap(),
        ] {
            let j = ExpandedJob::expand(&spec, JobId(0), &ExpandOptions::default()).unwrap();
            let mut feeds: Vec<Vec<u32>> = j
                .instances
                .iter()
                .map(|i| vec![0; i.num_channels()])
                .collect();
            for (s, inst) in j.instances.iter().enumerate() {
                for r in &inst.outs {
                    for &(t, ch) in &r.targets {
                        assert_eq!(
                            j.instances[t].channel_senders[ch as usize],
                            (s, r.edge),
                            "{}: route {} of {s} reaches ({t}, {ch})",
                            spec.name,
                            r.edge
                        );
                        feeds[t][ch as usize] += 1;
                    }
                }
            }
            for (t, per_channel) in feeds.iter().enumerate() {
                assert!(
                    per_channel.iter().all(|&n| n == 1),
                    "{}: channels of {t} are fed {per_channel:?} times",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn partition_hash_spreads() {
        let n = 8u64;
        let mut counts = vec![0u32; n as usize];
        for k in 0..8_000u64 {
            counts[(partition_hash(k) % n) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "imbalanced: {counts:?}");
        }
    }
}
