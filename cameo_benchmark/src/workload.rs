//! The four workloads, and the frame streams the sender derives from a
//! compiled schedule.
//!
//! Every workload has a `strict` and a `lax` tenant class. Rates of the
//! spin workloads are per worker and scale with `W`; `firehose_agg*`
//! rates are fixed (its cost is the framework path, not operator burn).

use crate::schedule::{arrivals, job_rng, Rate};
use cameo_core::progress::TimeDomain;
use cameo_core::time::{LogicalTime, Micros};
use cameo_dataflow::event::Tuple;
use cameo_dataflow::graph::{JobBuilder, JobSpec, Routing};
use cameo_dataflow::operator::OperatorKind;
use cameo_dataflow::ops::SpinMap;
use cameo_dataflow::queries::{agg_query, AggQueryParams, StageCosts};

/// Every workload the binary can run, in the order reports list them.
pub const NAMES: [&str; 4] = [
    "firehose_agg",
    "firehose_agg_journal",
    "tenant_mix",
    "overload_step",
];

/// The workloads `BENCHMARK.json` gates on: the two whose cost is
/// defined in wall-clock time (a `SpinMap` burns until its microseconds
/// have passed, however fast the core is).
///
/// The `firehose_agg*` pair is CPU work and wake-ups, and on the
/// reference host — a 2-vCPU guest whose capacity drifts by a quarter
/// over minutes — its numbers follow the host: within one ten-seed set
/// `flood_fps` fell from 150 k to 111 k and `strict_p50_us` rose from
/// 186 to 292 µs over five consecutive runs, while both spin workloads
/// stayed within 2 %. About every second set had a firehose spread
/// above the contract's cap of 0.25, so as a gate it would reject the
/// benchmark itself. Both stay runnable (`--workload`, `--repeat
/// --workload`, `compare`), covered by the smoke test and the traced
/// run, and are what a hot-path change should be measured on — on a
/// quiet host. With the journal on, latency additionally follows ext4
/// commits and the shared disk's write-back.
pub const GATED: [&str; 2] = ["tenant_mix", "overload_step"];

/// Tumbling event-time window of the `firehose_agg*` jobs, in stamp
/// units (µs of schedule time).
pub const AGG_WINDOW_US: u64 = 5_000;
/// Group-by cardinality after the parse stage.
pub const AGG_KEYS: u64 = 64;
const AGG_SOURCES: u32 = 2;
const AGG_TUPLES_PER_FRAME: usize = 8;

/// How one run divides `--seconds`: an untimed warm-up at the paced
/// rate, the timed open-loop phase, then the closed-loop flood. The
/// remaining ~4 % is slack for the two drains.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warm_us: u64,
    pub timed_us: u64,
    pub flood_us: u64,
}

impl Phases {
    pub fn for_seconds(seconds: f64) -> Self {
        let us = |share: f64| (seconds * share * 1e6) as u64;
        Phases {
            warm_us: us(0.04),
            timed_us: us(0.72),
            flood_us: us(0.20),
        }
    }

    /// Length of the open-loop schedule (warm-up + timed).
    pub fn paced_us(&self) -> u64 {
        self.warm_us + self.timed_us
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Strict,
    Lax,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobKind {
    /// IPQ1-shaped `agg_query`: parse → local-agg → merge → final,
    /// all stage costs zero.
    Agg,
    /// `ingest → SpinMap(burn_us)` sink.
    Spin { burn_us: u64 },
}

#[derive(Clone, Debug)]
pub struct JobDef {
    pub name: String,
    pub class: Class,
    pub kind: JobKind,
    /// The job's latency constraint — what laxity is computed against
    /// and what a result is late against.
    pub target_us: u64,
    /// Frame arrival intensity of the whole job (all its sources).
    pub rate: Rate,
    /// Key of the job's generator stream; stable under reordering.
    pub tenant: u32,
    pub job: u32,
}

impl JobDef {
    pub fn sources(&self) -> u32 {
        match self.kind {
            JobKind::Agg => AGG_SOURCES,
            JobKind::Spin { .. } => 1,
        }
    }

    pub fn spec(&self) -> JobSpec {
        match self.kind {
            JobKind::Agg => agg_query(
                &AggQueryParams::new(self.name.clone(), AGG_WINDOW_US, Micros(self.target_us))
                    .with_sources(AGG_SOURCES)
                    .with_parallelism(2)
                    .with_keys(AGG_KEYS)
                    .with_domain(TimeDomain::EventTime)
                    .with_costs(StageCosts {
                        parse: Micros::ZERO,
                        agg: Micros::ZERO,
                        merge: Micros::ZERO,
                        final_: Micros::ZERO,
                    }),
            ),
            JobKind::Spin { burn_us } => {
                let mut b = JobBuilder::new(
                    self.name.clone(),
                    Micros(self.target_us),
                    TimeDomain::EventTime,
                );
                let src = b.ingest("src", 1);
                let sink = b.stage(
                    "burn",
                    1,
                    OperatorKind::Regular,
                    Micros(burn_us),
                    move |_| Box::new(SpinMap::new(Micros(burn_us))),
                );
                b.connect(src, sink, Routing::Forward);
                b.build().expect("spin job graph is valid by construction")
            }
        }
    }
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub jobs: Vec<JobDef>,
    /// Loopback connections the sender spreads the streams over.
    pub conns: usize,
    /// Start the runtime with a journal (page cache only).
    pub journal: bool,
}

/// `W = max(1, nproc − 1)`: one core is left to the sender, the
/// collector and the epoll loop, so that tail latency measures the
/// program and not the host's scheduler.
pub fn default_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Cores this thread may run on. Ask before set-up pins the thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// The reason each workload exists, one line each (BENCHMARK.json and
/// the README carry the same text).
pub fn why(name: &str) -> &'static str {
    match name {
        "firehose_agg" => "operator work is negligible, so read/decode/route/submit/mailbox/queue/lease cost is what is measured",
        "firehose_agg_journal" => "byte-identical traffic with the journal on: the same ingest layer writing beside reading",
        "tenant_mix" => "spin burn fixes utilisation at 0.65 (1.9 in bursts), so only ordering decisions move strict latency",
        "overload_step" => "a transient 1.58x overload pulse: queue growth, recovery time and who misses while lax work is overdue",
        _ => "",
    }
}

pub fn workload(name: &str, workers: usize, phases: &Phases) -> Option<Workload> {
    let w = workers as f64;
    let spin = |tenant: u32, class: Class, jobs: u32, burn_us: u64, target_us: u64, rate: Rate| {
        (0..jobs).map(move |job| JobDef {
            name: format!(
                "{}-{job}",
                if class == Class::Strict {
                    "strict"
                } else {
                    "lax"
                }
            ),
            class,
            kind: JobKind::Spin { burn_us },
            target_us,
            rate,
            tenant,
            job,
        })
    };
    let firehose = |journal: bool| Workload {
        name: if journal {
            "firehose_agg_journal"
        } else {
            "firehose_agg"
        },
        jobs: [
            (Class::Strict, "strict-agg", 20_000),
            (Class::Lax, "lax-agg", 200_000),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (class, name, target_us))| JobDef {
            name: name.into(),
            class,
            kind: JobKind::Agg,
            target_us,
            rate: Rate::Poisson { hz: 4_000.0 },
            tenant: i as u32,
            job: 0,
        })
        .collect(),
        conns: 2,
        journal,
    };
    Some(match name {
        "firehose_agg" => firehose(false),
        "firehose_agg_journal" => firehose(true),
        "tenant_mix" => Workload {
            name: "tenant_mix",
            jobs: spin(
                0,
                Class::Strict,
                4,
                100,
                10_000,
                Rate::Poisson { hz: 125.0 * w },
            )
            .chain(spin(
                1,
                Class::Lax,
                2,
                400,
                400_000,
                Rate::Bursty {
                    mean_hz: 750.0 * w,
                    factor: 3.0,
                    on_us: 100_000,
                    off_us: 200_000,
                },
            ))
            .collect(),
            conns: 1,
            journal: false,
        },
        "overload_step" => {
            // The pulse sits in the middle of the timed phase; its
            // length (14 % of it) is tuned so that roughly 30 % of
            // strict sends miss on the seed commit and the backlog is
            // gone well before the phase ends.
            let from_us = phases.warm_us + phases.timed_us * 45 / 100;
            let to_us = phases.warm_us + phases.timed_us * 59 / 100;
            Workload {
                name: "overload_step",
                jobs: spin(
                    0,
                    Class::Strict,
                    2,
                    100,
                    10_000,
                    Rate::Poisson { hz: 250.0 * w },
                )
                .chain(spin(
                    1,
                    Class::Lax,
                    2,
                    300,
                    200_000,
                    Rate::Pulse {
                        hz: 750.0 * w,
                        factor: 3.4,
                        from_us,
                        to_us,
                    },
                ))
                .collect(),
                conns: 1,
                journal: false,
            }
        }
        _ => return None,
    })
}

/// SplitMix64 finalizer: the deterministic content hash of a tuple.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One `(job, source)` frame stream: per-channel FIFO is the unit the
/// runtime guarantees, so a stream's stamps are strictly increasing and
/// a stream never changes connection.
///
/// A stream's frames are numbered `0..`; frame `seq` is a pure function
/// of `(seed, job, source, seq)`, so the reference computation can
/// regenerate exactly what was sent from the per-stream send counts.
/// Stamps run along one logical axis: the set-up burst first (spaced at
/// the stream's mean inter-arrival), then the paced schedule
/// (`paced_base + scheduled µs + 1`), then the flood (mean spacing
/// again, so a flood window holds as many frames as a paced one).
#[derive(Clone, Debug)]
pub struct Stream {
    pub job: usize,
    pub source: u32,
    pub conn: usize,
    pub kind: JobKind,
    /// Scheduled send instants of the paced phase, µs from its start.
    pub at_us: Vec<u32>,
    /// Frames of the set-up burst.
    pub burst: u64,
    /// Mean inter-arrival of this stream, µs: the stamp spacing of
    /// unpaced (burst and flood) frames.
    pub spacing_us: u64,
    /// Stamp offset of the paced phase (a window boundary past the
    /// burst).
    pub paced_base: u64,
    /// Stamp offset of the flood (a window boundary past the schedule).
    pub flood_base: u64,
    content_key: u64,
}

impl Stream {
    /// Logical stamp of frame `seq`.
    pub fn stamp(&self, seq: u64) -> u64 {
        let paced = self.at_us.len() as u64;
        if seq < self.burst {
            1 + seq * self.spacing_us
        } else if seq < self.burst + paced {
            self.paced_base + self.at_us[(seq - self.burst) as usize] as u64 + 1
        } else {
            self.flood_base + (seq - self.burst - paced + 1) * self.spacing_us
        }
    }

    /// The tuples of frame `seq`, all stamped `stamp`.
    pub fn tuples(&self, seq: u64, stamp: u64) -> Vec<Tuple> {
        match self.kind {
            JobKind::Agg => (0..AGG_TUPLES_PER_FRAME as u64)
                .map(|k| {
                    let h = mix(self.content_key ^ mix(seq * AGG_TUPLES_PER_FRAME as u64 + k));
                    Tuple::new(h, 1 + ((h >> 40) % 100) as i64, LogicalTime(stamp))
                })
                .collect(),
            JobKind::Spin { .. } => vec![Tuple::new(seq, 1, LogicalTime(stamp))],
        }
    }
}

/// Burst frames per stream: enough to fault in the first arena segment,
/// grow the connection buffers and run every operator once. Kept small:
/// a closed-loop burst of thousands of messages grows the mailbox arena
/// by as many nodes, and on the seed commit every later batch then pays
/// for the longer free list.
fn burst_frames(kind: JobKind) -> u64 {
    match kind {
        JobKind::Agg => 64,
        JobKind::Spin { .. } => 16,
    }
}

/// Compile the workload's streams for `seed`. A job's arrivals come
/// from its own generator; an `Agg` job deals them to its sources in
/// turn.
pub fn compile_streams(w: &Workload, seed: u64, phases: &Phases) -> Vec<Stream> {
    let round_up = |x: u64| x.div_ceil(AGG_WINDOW_US) * AGG_WINDOW_US + AGG_WINDOW_US;
    let mut streams = Vec::new();
    for (ji, job) in w.jobs.iter().enumerate() {
        let all = arrivals(
            &job.rate,
            phases.paced_us(),
            &mut job_rng(seed, job.tenant, job.job),
        );
        let nsrc = job.sources();
        let spacing_us = ((1e6 * nsrc as f64 / job.rate.base_hz()) as u64).max(1);
        let burst = burst_frames(job.kind);
        let paced_base = round_up(burst * spacing_us);
        for source in 0..nsrc {
            let idx = streams.len();
            streams.push(Stream {
                job: ji,
                source,
                conn: idx % w.conns,
                kind: job.kind,
                at_us: all
                    .iter()
                    .skip(source as usize)
                    .step_by(nsrc as usize)
                    .copied()
                    .collect(),
                burst,
                spacing_us,
                paced_base,
                flood_base: round_up(paced_base + phases.paced_us()),
                content_key: mix(seed ^ mix(((ji as u64) << 32) | source as u64)),
            });
        }
    }
    streams
}

/// The paced schedule of every stream merged into send order:
/// `(scheduled µs, stream index)`.
pub fn send_order(streams: &[Stream]) -> Vec<(u32, usize)> {
    let mut order: Vec<(u32, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.at_us.iter().map(move |&at| (at, si)))
        .collect();
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_increase_strictly_across_burst_paced_and_flood() {
        let phases = Phases::for_seconds(1.0);
        for name in NAMES {
            let w = workload(name, 1, &phases).unwrap();
            for s in compile_streams(&w, 7, &phases) {
                let n = s.burst + s.at_us.len() as u64 + 100;
                let stamps: Vec<u64> = (0..n).map(|q| s.stamp(q)).collect();
                assert!(stamps.windows(2).all(|p| p[0] < p[1]), "{name} {s:?}");
            }
        }
    }

    #[test]
    fn journal_workload_sends_the_same_frames() {
        let phases = Phases::for_seconds(0.5);
        let a = workload("firehose_agg", 1, &phases).unwrap();
        let b = workload("firehose_agg_journal", 1, &phases).unwrap();
        let (sa, sb) = (
            compile_streams(&a, 9, &phases),
            compile_streams(&b, 9, &phases),
        );
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(x.at_us, y.at_us);
            assert_eq!(x.conn, y.conn);
            for seq in [0, 1, x.burst, x.burst + 5] {
                assert_eq!(x.tuples(seq, x.stamp(seq)), y.tuples(seq, y.stamp(seq)));
            }
        }
    }

    #[test]
    fn spin_utilisation_is_what_the_readme_says() {
        let phases = Phases::for_seconds(25.0);
        let util = |name: &str| -> f64 {
            workload(name, 1, &phases)
                .unwrap()
                .jobs
                .iter()
                .map(|j| match j.kind {
                    JobKind::Spin { burn_us } => j.rate.base_hz() * burn_us as f64 / 1e6,
                    JobKind::Agg => 0.0,
                })
                .sum()
        };
        assert!((util("tenant_mix") - 0.65).abs() < 1e-9);
        assert!((util("overload_step") - 0.50).abs() < 1e-9);
    }
}
