//! Model-based property tests: random operation sequences against
//! simple reference models.

use cameo::prelude::*;
use cameo::runtime::msg::{DECODER_BUF, MAX_FRAME};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Operations driven against the two-level queue and a flat reference
/// model (a multiset of (operator, priority, id) triples).
#[derive(Clone, Debug)]
enum QueueOp {
    Push {
        job: u32,
        op: u32,
        local: i8,
        global: u8,
        tier: u8,
    },
    /// Pop the best operator at time `now` and drain up to `take`
    /// messages. When `purge_at < take`, the popped operator's own job
    /// is purged before the `purge_at`-th `next_message`: the lease
    /// runs dry and is checked in with nothing to re-post.
    PopDrain { take: u8, now: u16, purge_at: u8 },
    /// Retire `job`: drop its messages and operators.
    Purge { job: u32 },
}

/// `tiers` is how many distinct latency tiers pushes draw from.
/// Operators come from two jobs.
fn queue_ops(tiers: u8) -> impl Strategy<Value = Vec<QueueOp>> {
    let push = move || {
        (0u32..2, 0u32..6, any::<i8>(), any::<u8>(), 0..tiers).prop_map(
            |(job, op, local, global, tier)| QueueOp::Push {
                job,
                op,
                local,
                global,
                // Spread over the 64 buckets, strictest first.
                tier: tier * 7,
            },
        )
    };
    prop::collection::vec(
        prop_oneof![
            push(),
            // `now` ranges past every start deadline (globals are
            // 0..=255) and half the time sits at 0, where nothing is
            // overdue.
            (0u8..4, 0u16..600, 0u8..12).prop_map(|(take, now, purge_at)| QueueOp::PopDrain {
                take,
                now: now.saturating_sub(300),
                purge_at,
            }),
            // Retirement is rare next to the traffic it ends.
            (0u32..2, 0u8..4, push()).prop_map(|(job, r, push)| if r == 0 {
                QueueOp::Purge { job }
            } else {
                push
            }),
        ],
        1..120,
    )
}

/// The reference model of the two-level queue: id → (operator, priority).
type QueueModel = BTreeMap<u64, (OperatorKey, Priority)>;

/// Purge `job` from the queue and from the model; true when the queue
/// dropped exactly the model's messages of that job.
fn purge(q: &mut TwoLevelQueue<u64>, model: &mut QueueModel, job: JobId) -> bool {
    let before = model.len();
    model.retain(|_, (key, _)| key.job != job);
    q.purge_job(job) == before - model.len()
}

/// The parent commit's operator order, without its heap: every runnable
/// operator is posted at `(head priority, seq)`, re-posted with a fresh
/// `seq` when a push changes its head and when its lease comes back,
/// and the pop takes the minimum `(global, local, seq, key)`.
#[derive(Default)]
struct ParentOrder {
    seq: u64,
    /// op → pending `(local, push seq, global, id)`.
    msgs: BTreeMap<u32, Vec<(i64, u64, i64, u64)>>,
    /// op → `(global, local, seq)` of its posting.
    posted: BTreeMap<u32, (i64, i64, u64)>,
}

impl ParentOrder {
    fn head(&self, op: u32) -> Option<(i64, i64)> {
        let (local, _, global, _) = self.msgs.get(&op)?.iter().min()?;
        Some((*global, *local))
    }

    fn push(&mut self, op: u32, pri: Priority, id: u64) {
        self.seq += 1;
        self.msgs
            .entry(op)
            .or_default()
            .push((pri.local, self.seq, pri.global, id));
        let head = self.head(op).expect("just pushed");
        if self.posted.get(&op).map(|&(g, l, _)| (g, l)) != Some(head) {
            self.posted.insert(op, (head.0, head.1, self.seq));
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let (&op, _) = self.posted.iter().min_by_key(|(&op, &post)| (post, op))?;
        self.posted.remove(&op);
        Some(op)
    }

    fn next_message(&mut self, op: u32) -> Option<u64> {
        let msgs = self.msgs.get_mut(&op)?;
        let at = (0..msgs.len()).min_by_key(|&i| msgs[i])?;
        Some(msgs.swap_remove(at).3)
    }

    fn check_in(&mut self, op: u32) {
        self.seq += 1;
        if let Some(head) = self.head(op) {
            self.posted.insert(op, (head.0, head.1, self.seq));
        }
    }
}

/// The quantum settings the decide properties sweep: none, the default,
/// and one that never expires inside a test.
fn quanta() -> impl Strategy<Value = u64> {
    (0usize..3).prop_map(|i| [0u64, 1_000, 100_000][i])
}

/// A start deadline relative to the instant `decide` runs at: mostly
/// ahead of it (everybody on time, deadline order), now and then just
/// passed (overload, tier order).
fn start_offset() -> impl Strategy<Value = i64> {
    prop_oneof![0i64..20_000, 0i64..20_000, -3_000i64..20_000]
}

/// The boundary rule, from its statement: `theirs` is the operator
/// `acquire` would hand out at `now` (first in the order in force,
/// earlier submission on ties); swap iff it outranks the in-hand
/// operator's next message and either the quantum has run out or it is
/// a tier up.
fn reference_decide(
    mine: Priority,
    runnable: &[Priority],
    now: PhysicalTime,
    quantum_expired: bool,
) -> Decision {
    match reference_swap(mine, runnable, now, quantum_expired) {
        Some(_) => Decision::Swap,
        None => Decision::Continue,
    }
}

/// The index of the operator the boundary rule swaps to, if it swaps.
fn reference_swap(
    mine: Priority,
    runnable: &[Priority],
    now: PhysicalTime,
    quantum_expired: bool,
) -> Option<usize> {
    let overloaded = mine.overdue(now) || runnable.iter().any(|p| p.overdue(now));
    let (first, theirs) = runnable
        .iter()
        .enumerate()
        .min_by_key(|(i, p)| (p.rank(overloaded), **p, *i))?;
    (theirs.rank(overloaded) < mine.rank(overloaded)
        && (quantum_expired || theirs.tier() < mine.tier()))
    .then_some(first)
}

/// Steps of a flat-tier scheduling run: submissions, and worker turns
/// that each take `dt` µs.
#[derive(Clone, Debug)]
enum FlatStep {
    Push { op: u32, local: i8, global: u16 },
    Work { dt: u16 },
}

proptest! {
    /// Under any interleaving of pushes, partial drains and job purges
    /// (some while the purged job holds a lease), the queue (a) never
    /// loses or duplicates messages, drops exactly the purged job's, and
    /// keeps one run-index entry per operator with pending messages,
    /// and (b) whenever it pops an operator at some `now`, that
    /// operator's next message ranks first: by global priority while no
    /// operator's next message is overdue at `now`, by `(tier, global)`
    /// once one is.
    #[test]
    fn two_level_queue_matches_model(ops in queue_ops(4)) {
        let mut q: TwoLevelQueue<u64> = TwoLevelQueue::new();
        let mut model = QueueModel::new();
        let mut next_id = 0u64;
        for step in ops {
            match step {
                QueueOp::Push { job, op, local, global, tier } => {
                    let pri = Priority::new(local as i64, global as i64).with_tier(tier);
                    let key = OperatorKey::new(JobId(job), op);
                    q.push(key, next_id, pri);
                    model.insert(next_id, (key, pri));
                    next_id += 1;
                }
                QueueOp::Purge { job } => {
                    prop_assert!(purge(&mut q, &mut model, JobId(job)), "purge count");
                }
                QueueOp::PopDrain { take, now, purge_at } => {
                    let now = PhysicalTime(now as u64);
                    let Some((lease, pick)) = q.pop_operator_at(now) else {
                        prop_assert!(model.is_empty(), "queue idle but model has messages");
                        continue;
                    };
                    // Fig 5(b) semantics: each operator is ranked by the
                    // global priority of its *next* message, where "next"
                    // is chosen by local priority — FIFO (push id) among
                    // equal locals, preserving channel-wise in-order
                    // processing (§4.3). The queue is overloaded when
                    // the most urgent next message is overdue, and the
                    // popped operator's next message must rank first
                    // among all operators' next messages.
                    let next_of = |target: OperatorKey| {
                        model
                            .iter()
                            .filter(|(_, (key, _))| *key == target)
                            .map(|(&id, (_, p))| (p.local, id, *p))
                            .min()
                            .map(|(_, _, p)| p)
                    };
                    let nexts: Vec<Priority> = model
                        .values()
                        .map(|(key, _)| *key)
                        .collect::<std::collections::BTreeSet<OperatorKey>>()
                        .into_iter()
                        .filter_map(next_of)
                        .collect();
                    let overloaded = nexts.iter().any(|p| p.overdue(now));
                    prop_assert_eq!(pick.overloaded, overloaded);
                    let popped_next = next_of(lease.key)
                        .expect("popped operator must have pending messages");
                    prop_assert_eq!(pick.pri, popped_next);
                    let best = nexts.iter().map(|p| p.rank(overloaded)).min().unwrap();
                    prop_assert_eq!(popped_next.rank(overloaded), best,
                        "popped operator {:?} does not rank first at {:?}",
                        popped_next, now);
                    // `overtook` means deadline order would have chosen
                    // someone else; without it the pick is also the
                    // earliest deadline.
                    prop_assert!(overloaded || !pick.overtook);
                    if !pick.overtook {
                        let earliest = nexts.iter().map(|p| p.global).min().unwrap();
                        prop_assert_eq!(popped_next.global, earliest);
                    }
                    for i in 0..take {
                        if i == purge_at {
                            prop_assert!(purge(&mut q, &mut model, lease.key.job), "purge count");
                        }
                        let Some((id, pri)) = q.next_message(&lease) else { break };
                        let (mkey, mpri) = model.remove(&id).expect("message exists once");
                        prop_assert_eq!(mkey, lease.key);
                        prop_assert_eq!(mpri, pri);
                    }
                    q.check_in(lease);
                }
            }
            let pending: std::collections::BTreeSet<OperatorKey> =
                model.values().map(|(key, _)| *key).collect();
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.runnable_operators(), pending.len());
        }
        // Drain the rest; everything in the model must come out.
        while let Some(lease) = q.pop_operator() {
            while let Some((id, _)) = q.next_message(&lease) {
                prop_assert!(model.remove(&id).is_some(), "unknown or duplicate {}", id);
            }
            q.check_in(lease);
        }
        prop_assert!(model.is_empty(), "lost messages: {:?}", model);
        prop_assert!(q.is_empty());
    }

    /// With every priority in one tier — FIFO, SJF, token-fair and
    /// hand-built priorities — popping at any `now` checks operators
    /// out in exactly the parent commit's order, ties included.
    #[test]
    fn equal_tiers_pop_in_the_parent_order_at_any_now(ops in queue_ops(1), tier in 0u8..64) {
        let mut q: TwoLevelQueue<u64> = TwoLevelQueue::new();
        let mut parent = ParentOrder::default();
        let mut next_id = 0u64;
        for step in ops {
            match step {
                // The parent order is one job's: jobs fold together and
                // purges are left out.
                QueueOp::Purge { .. } => {}
                QueueOp::Push { op, local, global, .. } => {
                    let pri = Priority::new(local as i64, global as i64).with_tier(tier);
                    q.push(OperatorKey::new(JobId(0), op), next_id, pri);
                    parent.push(op, pri, next_id);
                    next_id += 1;
                }
                QueueOp::PopDrain { take, now, .. } => {
                    let popped = q.pop_operator_at(PhysicalTime(now as u64));
                    prop_assert_eq!(popped.map(|(l, _)| l.key.op), parent.pop());
                    let Some((lease, pick)) = popped else { continue };
                    prop_assert!(!pick.overtook, "one tier: nobody to overtake");
                    for _ in 0..take {
                        let got = q.next_message(&lease).map(|(id, _)| id);
                        prop_assert_eq!(got, parent.next_message(lease.key.op));
                    }
                    q.check_in(lease);
                    parent.check_in(lease.key.op);
                }
            }
        }
    }

    /// WindowAggregate against a naive reference: arbitrary in-order
    /// tuple streams produce exactly the per-(window, key) sums of the
    /// fired windows.
    #[test]
    fn window_aggregate_matches_naive_model(
        mut points in prop::collection::vec((0u64..200, 0u64..5, -50i64..50), 1..150),
        window in 5u64..40,
        batch_size in 1usize..10,
    ) {
        points.sort_unstable_by_key(|&(p, _, _)| p);
        let mut op = WindowAggregate::new(
            WindowSpec::tumbling(window),
            Aggregation::Sum,
            1,
        );
        let mut fired: BTreeMap<(u64, u64), i64> = BTreeMap::new();
        let mut outs = Vec::new();
        for (i, chunk) in points.chunks(batch_size).enumerate() {
            let tuples: Vec<Tuple> = chunk
                .iter()
                .map(|&(p, k, v)| Tuple::new(k, v, LogicalTime(p)))
                .collect();
            let b = Batch::new(tuples, PhysicalTime(i as u64));
            op.on_batch(0, &b, PhysicalTime(i as u64), &mut outs);
        }
        for b in &outs {
            for t in &b.tuples {
                *fired.entry((b.progress.0, t.key)).or_insert(0) += t.value;
            }
        }
        // Naive model: watermark = max tuple time; windows with
        // end <= watermark fire with per-key sums.
        let watermark = points.iter().map(|&(p, _, _)| p).max().unwrap();
        let mut expected: BTreeMap<(u64, u64), i64> = BTreeMap::new();
        for &(p, k, v) in &points {
            let end = (p / window + 1) * window;
            if end <= watermark {
                *expected.entry((end, k)).or_insert(0) += v;
            }
        }
        prop_assert_eq!(fired, expected);
    }

    /// TCP ingest frames survive encode/decode for arbitrary contents
    /// (v2 wire format: the generation word must round-trip too).
    #[test]
    fn codec_roundtrip(
        job in any::<u32>(),
        gen in any::<u32>(),
        source in any::<u32>(),
        tuples in prop::collection::vec((any::<u64>(), any::<i64>(), any::<u64>()), 0..50),
    ) {
        let frame = IngestFrame {
            job,
            gen,
            source,
            tuples: tuples
                .into_iter()
                .map(|(k, v, t)| Tuple::new(k, v, LogicalTime(t)))
                .collect(),
        };
        let bytes = encode_frame(&frame);
        let decoded = decode_payload(&bytes[4..]).expect("roundtrip");
        prop_assert_eq!(decoded, frame);
    }

    /// Corrupting any single byte of the frame — length prefix, v2
    /// header or tuple body — either still decodes (same length) or
    /// errors; never panics.
    #[test]
    fn codec_corruption_never_panics(
        idx in 0usize..44,
        byte in any::<u8>(),
    ) {
        let frame = IngestFrame {
            job: 1,
            gen: 9,
            source: 2,
            tuples: vec![Tuple::new(3, 4, LogicalTime(5))],
        };
        let mut bytes = encode_frame(&frame);
        if idx < bytes.len() {
            bytes[idx] = byte;
        }
        let _ = decode_payload(&bytes[4..]); // must not panic
    }

    /// The streaming decoder is slicing-invariant: a v2 wire stream of
    /// arbitrary frames, cut at *arbitrary byte boundaries* into
    /// successive reads, reassembles into exactly the frames that were
    /// encoded — regardless of how the cuts land relative to length
    /// prefixes, headers or tuple bodies. Frames of 86+ tuples and cuts
    /// of up to 4 KiB go past the decoder's initial 2 KiB buffer, so
    /// saturated reads double it and a frame bigger than the buffer
    /// grows it; a length prefix past `MAX_FRAME` behind the frames is
    /// refused without growing it.
    #[test]
    fn frame_decoder_reassembles_arbitrarily_sliced_streams(
        frames in prop::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(),
             prop_oneof![
                 prop::collection::vec((any::<u64>(), any::<i64>(), any::<u64>()), 0..8),
                 prop::collection::vec((any::<u64>(), any::<i64>(), any::<u64>()), 86..120),
             ]),
            1..12,
        ),
        cuts in prop_oneof![
            prop::collection::vec(1usize..64, 1..80),
            prop::collection::vec(1usize..4096, 1..8),
        ],
        oversized_tail in any::<bool>(),
    ) {
        let frames: Vec<IngestFrame> = frames
            .into_iter()
            .map(|(job, gen, source, tuples)| IngestFrame {
                job,
                gen,
                source,
                tuples: tuples
                    .into_iter()
                    .map(|(k, v, t)| Tuple::new(k, v, LogicalTime(t)))
                    .collect(),
            })
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        if oversized_tail {
            wire.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
            wire.extend_from_slice(&[0; 16]);
        }
        // Feed the stream slice by slice (cut sizes cycle through the
        // random list), collecting whatever each burst completes. One
        // cut can take several reads: a read fills at most the spare
        // buffer.
        let mut dec = FrameDecoder::new();
        let mut decoded: Vec<IngestFrame> = Vec::new();
        let mut refused = None;
        let mut off = 0;
        let mut i = 0;
        'feed: while off < wire.len() {
            let n = cuts[i % cuts.len()].min(wire.len() - off);
            i += 1;
            let mut slice = &wire[off..off + n];
            off += n;
            while !slice.is_empty() {
                prop_assert!(dec.fill(&mut slice).expect("fill") > 0);
                if let Err(e) = dec.decode_available(&mut decoded) {
                    refused = Some(e.kind());
                    break 'feed;
                }
            }
        }
        prop_assert_eq!(decoded, frames.clone());
        prop_assert_eq!(refused, oversized_tail.then_some(std::io::ErrorKind::InvalidData));
        let biggest = frames.iter().map(IngestFrame::wire_len).max().unwrap_or(0);
        prop_assert!(dec.capacity() <= DECODER_BUF.max(biggest));
    }

    /// `decide` is the boundary rule: for random tiers, deadlines, clock
    /// and lease age, at no quantum, the default and one that never
    /// expires. A swap is counted on exactly one side of the quantum and
    /// goes to the operator `acquire` then hands out — before the
    /// quantum always a tier up.
    #[test]
    fn decide_matches_the_boundary_rule(
        mine in (0u8..4, start_offset()),
        others in prop::collection::vec((0u8..4, start_offset()), 0..6),
        t0 in 3_000u64..4_000,
        elapsed in prop_oneof![0u64..3_000, 0u64..250_000],
        quantum in quanta(),
    ) {
        let now = PhysicalTime(t0 + elapsed);
        let pri = |(tier, offset): (u8, i64)| {
            Priority::uniform(now.0 as i64 + offset).with_tier(tier * 7)
        };
        let key = |op: usize| OperatorKey::new(JobId(0), op as u32);
        let mut s: CameoScheduler<usize> = CameoScheduler::new(
            SchedulerConfig::default().with_quantum(Micros(quantum)),
        );
        let mine = pri(mine);
        s.submit(key(0), 0, mine);
        s.submit(key(0), 1, mine);
        let exec = s.acquire(PhysicalTime(t0)).expect("one operator");
        prop_assert!(s.take_message(&exec).is_some());
        let runnable: Vec<Priority> = others.into_iter().map(pri).collect();
        for (i, &p) in runnable.iter().enumerate() {
            s.submit(key(i + 1), 0, p);
        }
        let expired = elapsed >= quantum;
        let got = s.decide(&exec, now);
        prop_assert_eq!(got, reference_decide(mine, &runnable, now, expired));
        let st = s.stats();
        let swapped = u64::from(got == Decision::Swap);
        prop_assert_eq!(
            (st.quantum_swaps, st.tier_preemptions),
            if expired { (swapped, 0) } else { (0, swapped) }
        );
        if got == Decision::Swap {
            s.release(exec);
            let next = s.acquire(now).expect("someone outranked");
            prop_assert!(next.key() != key(0), "swapped and got the same lease back");
            let theirs = runnable[next.key().op as usize - 1];
            prop_assert!(expired || theirs.tier() < mine.tier());
        }
    }

    /// With every priority in one tier — FIFO, SJF, token-fair and
    /// hand-built priorities — every `decide` of a run is the parent
    /// commit's: Continue before the quantum, past it swap iff the
    /// earliest runnable deadline beats the in-hand one.
    #[test]
    fn flat_tier_sequences_decide_like_the_parent_at_any_quantum(
        steps in prop::collection::vec(
            prop_oneof![
                (0u32..5, any::<i8>(), any::<u16>())
                    .prop_map(|(op, local, global)| FlatStep::Push { op, local, global }),
                prop_oneof![0u16..400, 0u16..40_000].prop_map(|dt| FlatStep::Work { dt }),
            ],
            1..160,
        ),
        tier in 0u8..64,
        quantum in quanta(),
    ) {
        let mut s: CameoScheduler<u64> = CameoScheduler::new(
            SchedulerConfig::default().with_quantum(Micros(quantum)),
        );
        let mut now = PhysicalTime(0);
        let mut lease: Option<Execution> = None;
        let mut parent_swaps = 0u64;
        for (id, step) in steps.into_iter().enumerate() {
            match step {
                FlatStep::Push { op, local, global } => {
                    let pri = Priority::new(local as i64, global as i64).with_tier(tier);
                    s.submit(OperatorKey::new(JobId(0), op), id as u64, pri);
                }
                FlatStep::Work { dt } => {
                    let Some(exec) = lease.take().or_else(|| s.acquire(now)) else { continue };
                    if s.take_message(&exec).is_none() {
                        s.release(exec);
                        continue;
                    }
                    now += Micros(dt as u64);
                    let parent = match (s.peek_next(&exec), s.peek_best()) {
                        (None, _) => Decision::Idle,
                        (Some(mine), Some((_, theirs)))
                            if now.since(exec.acquired_at()) >= Micros(quantum)
                                && theirs.global < mine.global => Decision::Swap,
                        _ => Decision::Continue,
                    };
                    parent_swaps += u64::from(parent == Decision::Swap);
                    let got = s.decide(&exec, now);
                    prop_assert_eq!(got, parent, "at {:?}", now);
                    match got {
                        Decision::Continue => lease = Some(exec),
                        Decision::Swap | Decision::Idle => s.release(exec),
                    }
                }
            }
        }
        let st = s.stats();
        prop_assert_eq!((st.quantum_swaps, st.tier_preemptions), (parent_swaps, 0));
    }

    /// No thrash: a worker draining lax backlogs under a stream of
    /// strict messages swaps early at most once per strict message,
    /// and loses nothing doing it.
    #[test]
    fn tier_preemptions_are_bounded_by_stricter_tier_messages(
        arrivals in prop::collection::vec(
            (1u64..400, 0u32..3, (0u8..8).prop_map(|k| k == 0)), 1..160),
        quantum in quanta(),
    ) {
        // One tier apart, seven lax messages to a strict one, and more
        // work than time: the lax backlog ages past fresh strict
        // deadlines (where the tier alone would swap at every message
        // and get the same lease back) and then past its own.
        const STRICT_L: u64 = 10_000;
        const LAX_L: u64 = 20_000;
        let sh: ShardedScheduler<u64> = ShardedScheduler::new(
            SchedulerConfig::default().with_quantum(Micros(quantum)),
        );
        // Arrival times are cumulative gaps; strict jobs use operators
        // 0..3, lax ones 3..6, each with its start deadline L after
        // arrival and its tier from L, as the deadline policies do.
        let mut at = 0u64;
        let mut pending: std::collections::VecDeque<(u64, OperatorKey, Priority, u64)> = arrivals
            .iter()
            .map(|&(gap, op, strict)| {
                at += gap;
                let (l, op) = if strict { (STRICT_L, op) } else { (LAX_L, op + 3) };
                let pri = Priority::uniform((at + l) as i64)
                    .with_tier(cameo::core::priority::latency_tier(Micros(l)));
                (at, OperatorKey::new(JobId(0), op), pri, if strict { 100 } else { 400 })
            })
            .collect();
        let total = pending.len();
        let strict_msgs = arrivals.iter().filter(|a| a.2).count() as u64;
        let (mut now, mut done) = (0u64, 0usize);
        let mut lease: Option<Execution> = None;
        let admit = |pending: &mut std::collections::VecDeque<_>, now: u64| {
            while pending.front().is_some_and(|p: &(u64, _, _, _)| p.0 <= now) {
                let (_, key, pri, cost) = pending.pop_front().expect("checked");
                sh.submit(key, cost, pri);
            }
        };
        while done < total {
            admit(&mut pending, now);
            let Some(exec) = lease.take().or_else(|| sh.acquire(0, PhysicalTime(now))) else {
                now = pending.front().expect("idle with nothing left to arrive").0;
                continue;
            };
            let Some((cost, _)) = sh.take_message(&exec) else {
                sh.release(exec);
                continue;
            };
            now += cost;
            done += 1;
            // Submissions land while the message runs, before `decide`.
            admit(&mut pending, now);
            match sh.decide(&exec, PhysicalTime(now)) {
                Decision::Continue => lease = Some(exec),
                Decision::Swap | Decision::Idle => { sh.release(exec); }
            }
        }
        prop_assert!(sh.is_empty());
        let st = sh.stats();
        prop_assert!(st.tier_preemptions <= strict_msgs,
            "{} early swaps for {} strict messages", st.tier_preemptions, strict_msgs);
    }

    /// A yield point asks `decide`'s question of the message in flight:
    /// whenever `acquire_preempting` hands out a lease, it is the
    /// operator the boundary rule swaps to by tier, never one of the
    /// in-flight job's. It is exactly what `decide`, asked at that
    /// instant with the in-flight message still queued, does —
    /// including its `Continue`s, unless the in-flight job's own
    /// operator is the one that would win.
    #[test]
    fn acquire_preempting_is_decides_swap_by_tier(
        // Never in the strictest tier: something may be stricter.
        mine in (1u8..4, start_offset()),
        others in prop::collection::vec((0u8..4, start_offset(), 0u32..3), 1..6),
        t0 in 3_000u64..4_000,
        elapsed in 0u64..3_000,
    ) {
        let now = PhysicalTime(t0 + elapsed);
        // Distinct deadlines: no tie-breaking rule to agree on.
        let pri = |i: usize, tier: u8, offset: i64| {
            Priority::uniform(now.0 as i64 + offset * 8 + i as i64).with_tier(tier * 7)
        };
        let mine = pri(0, mine.0, mine.1);
        let keys: Vec<OperatorKey> = others
            .iter()
            .enumerate()
            .map(|(i, o)| OperatorKey::new(JobId(o.2), i as u32 + 1))
            .collect();
        let runnable: Vec<Priority> =
            others.iter().enumerate().map(|(i, o)| pri(i + 1, o.0, o.1)).collect();
        // The in-flight message is job 0's operator 0; `take` says
        // whether it has left the queue (executing) or not (next).
        let pool = |take: bool| {
            let sh: ShardedScheduler<usize> = ShardedScheduler::new(
                SchedulerConfig::default().with_quantum(Micros::from_secs(1)),
            );
            sh.submit(OperatorKey::new(JobId(0), 0), 0, mine);
            let exec = sh.acquire(0, PhysicalTime(t0)).expect("one operator");
            if take {
                assert!(sh.take_message(&exec).is_some());
            }
            for (i, (&k, &p)) in keys.iter().zip(&runnable).enumerate() {
                sh.submit(k, i + 1, p);
            }
            (sh, exec)
        };
        let (executing, _lease) = pool(true);
        let got = executing.acquire_preempting(mine, JobId(0), now);
        let want = reference_swap(mine, &runnable, now, false);
        if let Some(nested) = &got {
            prop_assert_eq!(Some(nested.key()), want.map(|i| keys[i]));
            prop_assert!(nested.key().job != JobId(0));
        }
        let (queued, lease) = pool(false);
        let decided = queued.decide(&lease, now);
        prop_assert_eq!(decided == Decision::Swap, want.is_some());
        prop_assert_eq!(queued.stats().tier_preemptions, u64::from(want.is_some()));
        let own_wins = want.is_some_and(|i| keys[i].job == JobId(0));
        prop_assert_eq!(got.is_some(), want.is_some() && !own_wins);
    }

    /// The Cameo scheduler processes any message set exactly once under
    /// arbitrary quantum settings.
    #[test]
    fn scheduler_drains_exactly_once(
        msgs in prop::collection::vec((0u32..8, any::<i16>()), 1..100),
        quantum in 0u64..5_000,
    ) {
        let mut s: CameoScheduler<usize> = CameoScheduler::new(
            SchedulerConfig::default().with_quantum(Micros(quantum)),
        );
        for (i, &(op, g)) in msgs.iter().enumerate() {
            s.submit(OperatorKey::new(JobId(0), op), i, Priority::uniform(g as i64));
        }
        let mut seen = vec![false; msgs.len()];
        let mut now = 0u64;
        while let Some(exec) = s.acquire(PhysicalTime(now)) {
            while let Some((m, _)) = s.take_message(&exec) {
                prop_assert!(!seen[m], "duplicate {}", m);
                seen[m] = true;
                now += 100; // each message "takes" 100us
                match s.decide(&exec, PhysicalTime(now)) {
                    Decision::Continue => continue,
                    Decision::Swap | Decision::Idle => break,
                }
            }
            s.release(exec);
        }
        prop_assert!(seen.iter().all(|&x| x), "messages lost");
        prop_assert!(s.is_empty());
    }
}
