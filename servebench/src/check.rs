//! Output checks, computed outside every timed region:
//!
//! * `cold_fleet` — each job's `JobReport::outcome` bit-equal to a
//!   sequential `nurd_sim::replay_job`;
//! * `durable_warm` — the recovered service's reports bit-equal to that
//!   never-crashed sequential reference;
//! * `skewed_mitigate` — whole reports (action logs included) and the
//!   health observer's state equal to a 1-shard caller-driven `Engine`
//!   run with the same mitigator and observer.
//!
//! "Bit-equal" compares the `nurd_codec` encodings, so every `f64` is
//! compared by its bits.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use nurd_codec::{Checkpointable, Encoder};
use nurd_data::{JobSpec, JobTrace, TaskEvent};
use nurd_health::{HealthAggregator, HealthConfig};
use nurd_runtime::ThreadPool;
use nurd_serve::{Engine, EngineConfig, EngineReport, HealthObserver, JobReport, OverloadPolicy};
use nurd_sim::{replay_job, ReplayConfig};

use crate::fleet::{self, Kind};
use crate::hooks::{self, BarrierId, Recorder};

fn bytes<T: Checkpointable>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

/// The expected output of one workload fleet.
pub struct Reference {
    /// Per job: the encoding every served report must reproduce.
    expected: BTreeMap<u64, Vec<u8>>,
    /// Barriers the reference scored: each must get a commit stamp.
    pub scored: HashSet<BarrierId>,
    /// Macro F1 of the reference reports (job-id order, as
    /// `EngineReport::macro_f1` sums).
    pub macro_f1: f64,
    /// Health observer state (skewed workload).
    observer: Option<Vec<u8>>,
}

/// What a served report is compared on: the outcome alone against a
/// sequential replay, the whole report against the reference engine.
fn key(kind: Kind, report: &JobReport) -> Vec<u8> {
    match kind {
        Kind::Cold | Kind::Durable => bytes(&report.outcome),
        Kind::Skewed => bytes(report),
    }
}

/// Computes the reference for `jobs` / `events` (two threads for the
/// sequential replays: the generator thread and one more).
pub fn reference(kind: Kind, jobs: &[JobTrace], events: &[TaskEvent]) -> Reference {
    let rec = Recorder::new(Instant::now(), false, kind == Kind::Skewed);
    match kind {
        Kind::Cold | Kind::Durable => {
            let config = ReplayConfig {
                quantile: fleet::QUANTILE,
                warmup_fraction: fleet::WARMUP,
            };
            // Per job: (F1, encoded outcome).
            let replay = |part: usize| -> Vec<(u64, (f64, Vec<u8>))> {
                let factory = hooks::predictor_factory(fleet::nurd_config(kind), Arc::clone(&rec));
                jobs.iter()
                    .skip(part)
                    .step_by(2)
                    .map(|job| {
                        let spec = JobSpec::of_trace(job, fleet::QUANTILE);
                        let mut predictor = factory(&spec);
                        let outcome = replay_job(job, predictor.as_mut(), &config);
                        (job.job_id(), (outcome.confusion.f1(), bytes(&outcome)))
                    })
                    .collect()
            };
            let by_job: BTreeMap<u64, (f64, Vec<u8>)> = std::thread::scope(|s| {
                let other = s.spawn(|| replay(1));
                let mut mine = replay(0);
                mine.extend(other.join().expect("reference replay panicked"));
                mine.into_iter().collect()
            });
            // Summed in job-id order, as `EngineReport::macro_f1` sums.
            let f1_sum = by_job.values().map(|(f1, _)| f1).sum::<f64>();
            Reference {
                macro_f1: f1_sum / by_job.len().max(1) as f64,
                expected: by_job.into_iter().map(|(j, (_, e))| (j, e)).collect(),
                scored: rec.take_stamps().into_keys().collect(),
                observer: None,
            }
        }
        Kind::Skewed => {
            let engine = Engine::new(
                EngineConfig {
                    shards: 1,
                    warmup_fraction: fleet::WARMUP,
                    queue_capacity: None,
                    overload: OverloadPolicy::Block,
                    balance: None,
                },
                hooks::predictor_factory(fleet::nurd_config(kind), Arc::clone(&rec)),
            );
            let aggregator = Arc::new(HealthAggregator::new(HealthConfig::default()));
            assert!(engine
                .attach_mitigator(hooks::policy_factory(fleet::mitigator(), Arc::clone(&rec))));
            let observer: Arc<dyn HealthObserver> = aggregator.clone();
            assert!(engine.attach_observer(observer));
            engine.push_all_sync(events.iter().cloned());
            let report = engine.finish(&ThreadPool::new(1));
            Reference {
                macro_f1: report.macro_f1(),
                expected: report.jobs.iter().map(|r| (r.job, key(kind, r))).collect(),
                scored: rec.take_stamps().into_keys().collect(),
                observer: Some(aggregator.snapshot_state()),
            }
        }
    }
}

/// Result of checking one phase's output.
#[derive(Debug)]
pub struct Verdict {
    /// Jobs whose report is missing, extra, or differs.
    pub bad_jobs: Vec<u64>,
    pub macro_f1_equal: bool,
    pub observer_equal: bool,
    /// Tasks flagged across the fleet (non-vacuity).
    pub flagged: usize,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.bad_jobs.is_empty() && self.macro_f1_equal && self.observer_equal
    }
}

pub fn check(
    kind: Kind,
    reference: &Reference,
    report: &EngineReport,
    observer: Option<&[u8]>,
) -> Verdict {
    let mut bad: HashSet<u64> = HashSet::new();
    let mut served: HashMap<u64, &JobReport> = HashMap::new();
    for r in &report.jobs {
        if served.insert(r.job, r).is_some() {
            bad.insert(r.job);
        }
    }
    for (job, expected) in &reference.expected {
        match served.get(job) {
            Some(r) if key(kind, r) == *expected => {}
            _ => {
                bad.insert(*job);
            }
        }
    }
    for job in served.keys() {
        if !reference.expected.contains_key(job) {
            bad.insert(*job);
        }
    }
    let mut bad_jobs: Vec<u64> = bad.into_iter().collect();
    bad_jobs.sort_unstable();
    Verdict {
        bad_jobs,
        macro_f1_equal: report.macro_f1().to_bits() == reference.macro_f1.to_bits(),
        observer_equal: reference.observer.as_deref() == observer,
        flagged: report
            .jobs
            .iter()
            .map(|r| r.outcome.flagged_at.iter().filter(|f| f.is_some()).count())
            .sum(),
    }
}
