//! Differential acceptance for the scoring hot path: the predictor's
//! flattened structure-of-arrays batch kernels ([`nurd::ml::FlatForest`])
//! must be **bit-identical** to a rebuild of Algorithm 1 from public APIs
//! that scores through the pointer-tree walk
//! ([`nurd::ml::GradientBoosting::predict_view`]) — per-task score
//! breakdowns at every checkpoint — and whole engine reports must equal
//! sequential replay across refit policies, shard counts, lane widths,
//! parallelism grants, and the barrier edge cases (single-task jobs,
//! all-flagged barriers, truncated streams).

use nurd::core::{
    adjusted_latency, calibration_delta, centroid_ratio, weight, AdjustedPrediction, NurdConfig,
    NurdPredictor, RefitPolicy, WarmRefitConfig, WarmRefitState,
};
use nurd::data::{
    Checkpoint, FinishedTask, JobSpec, JobTrace, OnlinePredictor, RunningTask, StreamContext,
    TaskEvent,
};
use nurd::linalg::{FeatureMatrix, MatrixView};
use nurd::ml::{GradientBoosting, LogisticRegression, SquaredLoss};
use nurd::runtime::ThreadPool;
use nurd::serve::{Engine, EngineConfig, EngineReport, PredictorFactory};
use nurd::sim::{replay_job, ReplayConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

const QUANTILE: f64 = 0.9;
const WARMUP: f64 = 0.04;

fn suite(style: TraceStyle, jobs: usize, seed: u64) -> Vec<JobTrace> {
    let cfg = SuiteConfig::new(style)
        .with_jobs(jobs)
        .with_task_range(50, 70)
        .with_checkpoints(8)
        .with_seed(seed);
    nurd::trace::generate_suite(&cfg)
}

fn config(policy: RefitPolicy) -> NurdConfig {
    NurdConfig::default().with_refit_policy(policy)
}

fn policies() -> [RefitPolicy; 2] {
    [
        RefitPolicy::AlwaysCold,
        RefitPolicy::Warm(WarmRefitConfig::default()),
    ]
}

fn replay_cfg() -> ReplayConfig {
    ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    }
}

fn nurd_factory(config: NurdConfig) -> PredictorFactory {
    Box::new(move |_spec: &JobSpec| Box::new(NurdPredictor::new(config.clone())))
}

fn run_engine(
    jobs: &[JobTrace],
    events: Vec<TaskEvent>,
    shards: usize,
    pool: &ThreadPool,
    factory: PredictorFactory,
) -> EngineReport {
    let engine = Engine::new(
        EngineConfig {
            shards,
            warmup_fraction: WARMUP,
            ..EngineConfig::default()
        },
        factory,
    );
    for job in jobs {
        engine.admit(JobSpec::of_trace(job, QUANTILE));
    }
    engine.push_all_sync(events);
    engine.finish(pool)
}

/// Asserts every job's engine outcome equals its sequential replay.
fn assert_matches_replay(report: &EngineReport, jobs: &[JobTrace], policy: &RefitPolicy) {
    for job in jobs {
        let mut reference = NurdPredictor::new(config(policy.clone()));
        let expected = replay_job(job, &mut reference, &replay_cfg());
        let got = report.job(job.job_id()).expect("job reported");
        assert_eq!(
            got.outcome,
            expected,
            "engine diverged from replay on job {} ({policy:?})",
            job.job_id()
        );
    }
}

/// A [`NurdPredictor`] checked against Algorithm 1 rebuilt from public
/// APIs at every checkpoint: δ from `centroid_ratio`/`calibration_delta`
/// at the first scorable checkpoint, `h_t` from
/// `GradientBoosting::fit_view` (cold) or a [`WarmRefitState`] (warm
/// policies), `g_t` from `LogisticRegression::fit_view_warm`, and the
/// latency head scored by the **pointer-tree walk**. Every checkpoint
/// refits (`refit_every == 1`).
struct Checked {
    predictor: NurdPredictor,
    config: NurdConfig,
    threshold: f64,
    delta: Option<f64>,
    warm: WarmRefitState,
    propensity: Option<LogisticRegression>,
}

impl Checked {
    fn new(policy: &RefitPolicy) -> Self {
        let config = config(policy.clone());
        Checked {
            predictor: NurdPredictor::new(config.clone()),
            config,
            threshold: f64::INFINITY,
            delta: None,
            warm: WarmRefitState::new(),
            propensity: None,
        }
    }

    /// The predictor's breakdowns, asserted bit-equal to the rebuild's.
    fn score(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<AdjustedPrediction> {
        let got = self.predictor.score_running(checkpoint);
        assert_eq!(
            got,
            self.rebuild(checkpoint),
            "breakdown diverged from the rebuild at checkpoint {}",
            checkpoint.ordinal
        );
        got
    }

    fn rebuild(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<AdjustedPrediction> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        let x_fin = checkpoint.finished_feature_rows();
        let x_run = checkpoint.running_feature_rows();
        if self.delta.is_none() && self.config.calibrate {
            let rho = centroid_ratio(
                &checkpoint.finished_features(),
                &checkpoint.running_features(),
            );
            self.delta = Some(calibration_delta(rho, self.config.alpha));
        }
        let cold = self.config.refit_policy == RefitPolicy::AlwaysCold;
        let pointer_walk =
            |h: &GradientBoosting<SquaredLoss>| h.predict_view(MatrixView::RowSlices(&x_run));
        let raw = if cold {
            GradientBoosting::fit_view(
                MatrixView::RowSlices(&x_fin),
                &checkpoint.finished_latencies(),
                SquaredLoss,
                &self.config.gbt,
            )
            .ok()
            .map(|h| pointer_walk(&h))
        } else {
            self.warm.absorb(checkpoint);
            let refit = self.warm.refit(&self.config.gbt, &self.config.refit_policy);
            refit
                .ok()
                .and_then(|()| self.warm.model().map(pointer_walk))
        };
        let Some(raw) = raw else {
            return Vec::new();
        };
        let rows: Vec<&[f64]> = x_fin.iter().chain(x_run.iter()).copied().collect();
        let mut all = FeatureMatrix::new();
        all.fill_from_rows(rows.iter().copied());
        let mut labels = vec![1.0; x_fin.len()];
        labels.resize(rows.len(), 0.0);
        let seed = if cold { None } else { self.propensity.as_ref() };
        let logistic = &self.config.logistic;
        let Ok(g) = LogisticRegression::fit_view_warm(all.view(), &labels, logistic, seed) else {
            return Vec::new();
        };
        let mut z = Vec::new();
        g.predict_proba_view_into(MatrixView::RowSlices(&x_run), &mut z);
        self.propensity = Some(g);
        let (delta, epsilon) = (self.delta, self.config.epsilon);
        checkpoint
            .running
            .iter()
            .zip(raw.into_iter().zip(z))
            .map(|(task, (raw, z))| {
                let w = delta.map_or(z.max(1e-9), |delta| weight(z, delta, epsilon));
                AdjustedPrediction {
                    id: task.id,
                    raw,
                    propensity: z,
                    weight: w,
                    adjusted: adjusted_latency(raw, w),
                }
            })
            .collect()
    }
}

impl OnlinePredictor for Checked {
    fn name(&self) -> &str {
        "NURD-CHECKED"
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.predictor.begin_stream(ctx);
        self.threshold = ctx.threshold;
        self.delta = None;
        self.warm.reset();
        self.propensity = None;
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        let threshold = self.threshold;
        let scores = self.score(checkpoint);
        scores
            .into_iter()
            .filter(|p| p.adjusted >= threshold)
            .map(|p| p.id)
            .collect()
    }
}

/// Predictor level, on real suites: at every replay checkpoint of every
/// Google and Alibaba job, `score_running` equals the public-API rebuild
/// bit for bit under both refit families, the replay outcome equals the
/// plain predictor's, and the comparison is not vacuous (tasks do flag).
#[test]
fn score_breakdowns_match_public_api_rebuild_on_both_suites() {
    let mut total_flags = 0usize;
    for style in [TraceStyle::Google, TraceStyle::Alibaba] {
        for job in suite(style, 3, 0xF1A7) {
            for policy in policies() {
                let outcome = replay_job(&job, &mut Checked::new(&policy), &replay_cfg());
                let mut plain = NurdPredictor::new(config(policy.clone()));
                assert_eq!(
                    outcome,
                    replay_job(&job, &mut plain, &replay_cfg()),
                    "checked replay diverged on job {} ({style:?}, {policy:?})",
                    job.job_id()
                );
                total_flags += outcome.flagged_at.iter().flatten().count();
            }
        }
    }
    assert!(
        total_flags > 0,
        "no task ever flagged — comparison is vacuous"
    );
}

/// The full per-task score breakdown — raw prediction, propensity,
/// weight, adjusted latency — equals the public-API rebuild at every
/// checkpoint, including across warm-start refits of the same predictor
/// instance.
#[test]
fn score_breakdowns_identical_at_every_checkpoint() {
    // Finished tasks accrue checkpoint by checkpoint so each call refits
    // on new data; running tasks include a typical and an alien point.
    let finished: Vec<(Vec<f64>, f64)> = (0..60)
        .map(|i| {
            let x = i as f64 / 60.0;
            let y = (i as f64 * 0.37).sin();
            (vec![x, 1.0 - x, y], 20.0 + 30.0 * x + 5.0 * y)
        })
        .collect();
    let running = [
        vec![0.5, 0.5, 0.1],
        vec![0.9, 0.1, -0.4],
        vec![7.0, -5.0, 3.0],
    ];
    for policy in policies() {
        let mut checked = Checked::new(&policy);
        for (ordinal, take) in [10usize, 25, 40, 60].into_iter().enumerate() {
            let checkpoint = Checkpoint {
                ordinal,
                time: 10.0 * (ordinal + 1) as f64,
                finished: finished[..take]
                    .iter()
                    .enumerate()
                    .map(|(id, (f, l))| FinishedTask {
                        id,
                        features: f,
                        latency: *l,
                    })
                    .collect(),
                running: running
                    .iter()
                    .enumerate()
                    .map(|(i, f)| RunningTask {
                        id: finished.len() + i,
                        features: f,
                    })
                    .collect(),
            };
            assert_eq!(
                checked.score(&checkpoint).len(),
                running.len(),
                "checkpoint {ordinal} under {policy:?}"
            );
        }
    }
}

/// End to end through the concurrent engine: shard counts {1, 2, 8} all
/// produce the identical report, and every job's outcome equals
/// sequential replay.
#[test]
fn engine_reports_match_replay_at_all_shard_counts() {
    let jobs = suite(TraceStyle::Google, 3, 0xF1A8);
    let pool = ThreadPool::new(2);
    let (_, events) = nurd::trace::fleet_events(&jobs, QUANTILE);
    for policy in policies() {
        let reference = run_engine(
            &jobs,
            events.clone(),
            1,
            &pool,
            nurd_factory(config(policy.clone())),
        );
        for shards in [2usize, 8] {
            let report = run_engine(
                &jobs,
                events.clone(),
                shards,
                &pool,
                nurd_factory(config(policy.clone())),
            );
            assert_eq!(
                report, reference,
                "engine at {shards} shards diverged from the 1-shard engine ({policy:?})"
            );
        }
        assert_matches_replay(&reference, &jobs, &policy);
    }
}

/// Lane-width sweep end to end: every supported lane width (1, 2, 4, 8 —
/// including widths that leave remainder rows on these 50–70-task jobs)
/// produces an engine report bit-identical to the `scoring_lanes = 1`
/// engine's, which in turn equals sequential replay, under both refit
/// families.
#[test]
fn lane_width_sweep_matches_scalar_lane_engine_and_replay() {
    let jobs = suite(TraceStyle::Google, 3, 0xF1AC);
    let pool = ThreadPool::new(2);
    let (_, events) = nurd::trace::fleet_events(&jobs, QUANTILE);
    let lane_factory = |policy: &RefitPolicy, lanes: usize| {
        nurd_factory(config(policy.clone()).with_scoring_lanes(lanes))
    };
    for policy in policies() {
        let scalar = run_engine(&jobs, events.clone(), 2, &pool, lane_factory(&policy, 1));
        for lanes in nurd::ml::SUPPORTED_LANES {
            let report = run_engine(
                &jobs,
                events.clone(),
                2,
                &pool,
                lane_factory(&policy, lanes),
            );
            assert_eq!(
                report, scalar,
                "lane width {lanes} diverged from the scalar-lane engine ({policy:?})"
            );
        }
        assert_matches_replay(&scalar, &jobs, &policy);
    }
}

/// Within-job parallelism grants (`n_threads` ∈ {2, 4}, the hint the
/// engine's balancer routes through `set_parallelism`) change nothing:
/// engine reports at shard counts {1, 2, 8} equal the ungranted engine's
/// — and the lane kernels demonstrably ran under the grant.
#[test]
fn granted_parallelism_matches_sequential_engine_at_all_shard_counts() {
    let jobs = suite(TraceStyle::Google, 3, 0xF1AD);
    let pool = ThreadPool::new(2);
    let (_, events) = nurd::trace::fleet_events(&jobs, QUANTILE);
    let granted_config = |threads: usize| {
        let mut cfg = config(RefitPolicy::AlwaysCold);
        cfg.gbt.tree.n_threads = threads;
        cfg
    };
    let sequential = run_engine(
        &jobs,
        events.clone(),
        1,
        &pool,
        nurd_factory(config(RefitPolicy::AlwaysCold)),
    );
    for threads in [2usize, 4] {
        for shards in [1usize, 2, 8] {
            let factory = nurd_factory(granted_config(threads));
            let granted = run_engine(&jobs, events.clone(), shards, &pool, factory);
            assert_eq!(
                granted, sequential,
                "{threads}-thread grant at {shards} shards diverged from the sequential engine"
            );
        }
    }

    // Not vacuous: a sequential replay under the same grant drives the
    // lane kernels (observable via the predictor's chunk counter) and
    // still matches the ungranted predictor bit for bit.
    let mut granted = NurdPredictor::new(granted_config(2));
    let mut plain = NurdPredictor::new(config(RefitPolicy::AlwaysCold));
    for job in &jobs {
        let a = replay_job(job, &mut granted, &replay_cfg());
        let b = replay_job(job, &mut plain, &replay_cfg());
        assert_eq!(a, b, "granted replay diverged on job {}", job.job_id());
    }
    assert!(
        granted.lane_chunks() > 0,
        "lane kernels never ran under the parallelism grant — test is vacuous"
    );
}

/// Degenerate barrier shapes — a single-task job (warmup quorum of one,
/// checkpoints where the running view is empty or a singleton) — take
/// the same pooled-scratch barrier path and still match replay exactly.
#[test]
fn single_task_jobs_match_replay() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(3)
        .with_task_range(1, 3)
        .with_checkpoints(6)
        .with_seed(0xF1A9);
    let jobs = nurd::trace::generate_suite(&cfg);
    assert!(jobs.iter().any(|j| j.task_count() == 1));
    let pool = ThreadPool::new(2);
    let (_, events) = nurd::trace::fleet_events(&jobs, QUANTILE);
    let report = run_engine(
        &jobs,
        events,
        2,
        &pool,
        nurd_factory(config(RefitPolicy::AlwaysCold)),
    );
    assert_matches_replay(&report, &jobs, &RefitPolicy::AlwaysCold);
}

/// Flags everything it sees: after the first scoring barrier every task
/// is flagged, so every later barrier assembles *empty* finished/running
/// views from the recycled scratch — the all-flagged edge case.
struct FlagAll;
impl OnlinePredictor for FlagAll {
    fn name(&self) -> &str {
        "ALL"
    }
    fn predict(&mut self, c: &Checkpoint<'_>) -> Vec<usize> {
        c.running.iter().map(|r| r.id).collect()
    }
}

#[test]
fn all_flagged_barriers_match_replay() {
    let jobs = suite(TraceStyle::Google, 2, 0xF1AA);
    let pool = ThreadPool::new(2);
    let (_, events) = nurd::trace::fleet_events(&jobs, QUANTILE);
    let factory: PredictorFactory = Box::new(|_spec: &JobSpec| Box::new(FlagAll));
    let report = run_engine(&jobs, events, 2, &pool, factory);
    let mut flagged = 0usize;
    for job in &jobs {
        let expected = replay_job(job, &mut FlagAll, &replay_cfg());
        let got = report.job(job.job_id()).expect("job reported");
        assert_eq!(got.outcome, expected, "FlagAll engine diverged from replay");
        flagged += expected.flagged_at.iter().flatten().count();
    }
    assert!(flagged > 0, "nothing flagged — edge case not exercised");
}

/// Finalizing with the stream cut mid-job (no `JobEnd`, barriers missing)
/// is deterministic and prefix-consistent: two identical truncated runs
/// agree bit for bit, and every flag the truncated run commits is
/// exactly the full run's flag for that task.
#[test]
fn truncated_stream_finalize_is_deterministic_and_prefix_consistent() {
    let jobs = suite(TraceStyle::Google, 2, 0xF1AB);
    let pool = ThreadPool::new(2);
    let (_, events) = nurd::trace::fleet_events(&jobs, QUANTILE);
    let cut = events.len() * 2 / 3;
    let truncated: Vec<TaskEvent> = events[..cut].to_vec();

    let full = run_engine(
        &jobs,
        events,
        2,
        &pool,
        nurd_factory(config(RefitPolicy::AlwaysCold)),
    );
    let run = |shards: usize| {
        run_engine(
            &jobs,
            truncated.clone(),
            shards,
            &pool,
            nurd_factory(config(RefitPolicy::AlwaysCold)),
        )
    };
    let a = run(1);
    let b = run(2);
    assert_eq!(a, b, "truncated finalize depends on shard count");

    for job in &jobs {
        let full_flags = &full.job(job.job_id()).expect("full run").outcome.flagged_at;
        let cut_flags = &a
            .job(job.job_id())
            .expect("truncated run")
            .outcome
            .flagged_at;
        for (task, flag) in cut_flags.iter().enumerate() {
            if let Some(ordinal) = flag {
                assert_eq!(
                    Some(ordinal),
                    full_flags[task].as_ref(),
                    "truncated run flagged task {task} differently from the full run"
                );
            }
        }
    }
}
