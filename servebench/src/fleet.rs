//! The three workloads: fleet shapes, engine settings, and the seeded
//! generator that turns a `--seed` into the event stream the program
//! receives.

use nurd_core::{NurdConfig, RefitPolicy, WarmRefitConfig};
use nurd_data::{JobTrace, TaskEvent};
use nurd_serve::{BalanceConfig, EngineConfig, OverloadPolicy, ServiceConfig};
use nurd_trace::{NodeModelConfig, SuiteConfig, TraceStyle};

/// Straggler threshold quantile (the paper's p90).
pub const QUANTILE: f64 = 0.9;
/// Warmup quorum (the paper's 4%).
pub const WARMUP: f64 = 0.04;
const SHARDS: usize = 2;
const QUEUE: usize = 1024;
/// Drain workers: one per shard (the benchmark box has two cores).
pub const DRAIN_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Google-style fleet, cold refits, no persistence, no mitigator.
    Cold,
    /// Same shape, warm refits, persistent service with a crash.
    Durable,
    /// Node-model fleet with a few giant jobs, balance, mitigation and
    /// a health observer.
    Skewed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Paced-phase rate R in events/s: a fifth of the saturation rate
    /// measured on a 2-core box, so commit latency is mostly service time
    /// (see the README on why not half).
    pub rate: f64,
    /// Measuring budget one round (saturation phase + paced phase) costs
    /// on a 2-core box: `--seconds` buys `seconds / round_s` rounds, so
    /// the work a run measures does not depend on the program's speed.
    pub round_s: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cold_fleet",
        kind: Kind::Cold,
        rate: 12_000.0,
        round_s: 20.0,
    },
    Workload {
        name: "durable_warm",
        kind: Kind::Durable,
        rate: 12_000.0,
        round_s: 20.0,
    },
    Workload {
        name: "skewed_mitigate",
        kind: Kind::Skewed,
        rate: 12_000.0,
        round_s: 20.0,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Fleet size. `tiny` shrinks every workload for the harness self-test.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub jobs: usize,
    pub tasks: (usize, usize),
    pub checkpoints: usize,
    /// Giant jobs mixed in (skewed only), with disjoint ids.
    pub big_jobs: usize,
    pub big_tasks: (usize, usize),
    /// Arrival stagger of the fleet stream (trace time units).
    pub spread: f64,
    /// Durable workload: events pushed between the pre-crash checkpoint
    /// and the crash — exactly the WAL tail recovery replays.
    pub crash_tail: usize,
}

pub fn shape(kind: Kind, tiny: bool) -> Shape {
    match (kind, tiny) {
        (Kind::Cold | Kind::Durable, false) => Shape {
            jobs: 300,
            tasks: (100, 140),
            checkpoints: 12,
            big_jobs: 0,
            big_tasks: (0, 0),
            spread: 20_000.0,
            crash_tail: 2_000,
        },
        (Kind::Skewed, false) => Shape {
            jobs: 300,
            tasks: (100, 140),
            checkpoints: 12,
            big_jobs: 12,
            big_tasks: (1500, 2500),
            spread: 20_000.0,
            crash_tail: 2_000,
        },
        (Kind::Cold | Kind::Durable, true) => Shape {
            jobs: 16,
            tasks: (40, 60),
            checkpoints: 8,
            big_jobs: 0,
            big_tasks: (0, 0),
            spread: 1_000.0,
            crash_tail: 100,
        },
        (Kind::Skewed, true) => Shape {
            jobs: 16,
            tasks: (40, 60),
            checkpoints: 8,
            big_jobs: 2,
            big_tasks: (300, 400),
            spread: 1_000.0,
            crash_tail: 100,
        },
    }
}

/// Ids of the giant jobs start here, past every ordinary job id.
const BIG_ID_BASE: u64 = 1_000_000;

/// The seed each workload actually generates from: the durable fleet has
/// the cold fleet's shape, drawn from another seed.
fn workload_seed(kind: Kind, seed: u64) -> u64 {
    let salt = match kind {
        Kind::Cold => 0,
        Kind::Durable => 0xD0_4AB1E,
        Kind::Skewed => 0x5_4E3D,
    };
    seed ^ salt
}

pub struct Fleet {
    pub jobs: Vec<JobTrace>,
    pub events: Vec<TaskEvent>,
}

/// Generates the workload's jobs and its staggered fleet stream.
pub fn generate(kind: Kind, seed: u64, tiny: bool) -> Fleet {
    let s = shape(kind, tiny);
    let seed = workload_seed(kind, seed);
    let mut base = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(s.jobs)
        .with_task_range(s.tasks.0, s.tasks.1)
        .with_checkpoints(s.checkpoints)
        .with_seed(seed);
    if kind == Kind::Skewed {
        // The machine fleet is part of the workload, fixed across seeds;
        // the seed draws the jobs. (Which node is sick moves every job's
        // straggler mix at once, so a per-seed node model would swamp
        // the fleet-level metrics with one draw.)
        base = base.with_node_model(NodeModelConfig::new(16).with_unhealthy(1, 3));
    }
    let mut jobs = nurd_trace::generate_suite(&base);
    if s.big_jobs == 0 {
        let events = nurd_trace::staggered_fleet_events(&jobs, QUANTILE, s.spread, seed);
        return Fleet { jobs, events };
    }
    // Ordinary jobs arrive at seeded offsets. The giant jobs are
    // stratified — sizes evenly spaced over the range, arrivals evenly
    // spaced over the spread — so how much they overlap is the same on
    // every seed; the seed still draws everything inside each job.
    let mut offsets: Vec<f64> = jobs
        .iter()
        .map(|j| unit(seed ^ j.job_id().wrapping_mul(0x9E37_79B9_7F4A_7C15)) * s.spread)
        .collect();
    let (lo, hi) = s.big_tasks;
    for i in 0..s.big_jobs {
        let size = lo + (hi - lo) * i / (s.big_jobs - 1).max(1);
        let config = base.clone().with_task_range(size, size);
        jobs.push(nurd_trace::generate_job(&config, BIG_ID_BASE + i as u64));
        offsets.push(s.spread * (i as f64 + 0.5) / s.big_jobs as f64);
    }
    let events = merge(&jobs, &offsets);
    Fleet { jobs, events }
}

/// A uniform draw in [0, 1) from `x` (SplitMix64 finalizer).
fn unit(mut x: u64) -> f64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Merges every job's stream ordered by (arrival offset + event time,
/// job id, per-job sequence), as `nurd_trace::staggered_fleet_events`
/// does with its own offsets.
fn merge(jobs: &[JobTrace], offsets: &[f64]) -> Vec<TaskEvent> {
    let mut tagged: Vec<(f64, u64, usize, TaskEvent)> = Vec::new();
    for (job, offset) in jobs.iter().zip(offsets) {
        for (seq, event) in nurd_data::job_stream(job, QUANTILE).into_iter().enumerate() {
            tagged.push((offset + event.time(), event.job(), seq, event));
        }
    }
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    tagged.into_iter().map(|(_, _, _, event)| event).collect()
}

pub fn engine_config(kind: Kind) -> EngineConfig {
    EngineConfig {
        shards: SHARDS,
        warmup_fraction: WARMUP,
        queue_capacity: Some(QUEUE),
        overload: OverloadPolicy::Block,
        balance: (kind == Kind::Skewed).then(BalanceConfig::default),
    }
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        drain_workers: DRAIN_WORKERS,
        ..ServiceConfig::default()
    }
}

pub fn nurd_config(kind: Kind) -> NurdConfig {
    match kind {
        Kind::Durable => {
            NurdConfig::default().with_refit_policy(RefitPolicy::Warm(WarmRefitConfig::default()))
        }
        Kind::Cold | Kind::Skewed => NurdConfig::default(),
    }
}

/// Banded clone mitigation, calibrated as in the repository's
/// `mitigation_sweep` bench: clone at score 1.2, or after 2 barriers in
/// [0.9, 1.2), at most 8 clones per job.
pub fn mitigator() -> nurd_serve::MitigatorFactory {
    nurd_mitigate::banded_mitigator(1.2, 0.9, 2, Some(8))
}
