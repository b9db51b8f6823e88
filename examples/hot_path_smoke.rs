//! Scoring hot-path smoke test **as an end-to-end gate**: the flattened
//! structure-of-arrays scoring path must be *actually exercised* — not
//! silently skipped — and must stay bit-identical to its references
//! everywhere it can be observed:
//!
//! 1. **Kernel**: a fitted latency head is flattened and batch-scored;
//!    the output must equal the pointer walk bit for bit at every
//!    supported lane width, with the multi-row lane kernel's chunk
//!    counter proving which kernel actually ran.
//! 2. **Predictor**: a default-lane-width [`NurdPredictor`] replays a job
//!    and the [`NurdPredictor::flat_batches`] counter must show the SoA
//!    kernel ran, while its replay equals a `scoring_lanes = 1` twin's
//!    bit for bit, with [`NurdPredictor::lane_chunks`] nonzero only for
//!    the wide one.
//! 3. **Engine**: a staggered multi-job fleet served concurrently at
//!    shard counts {1, 2, 8} yields one identical report whose every job
//!    equals sequential replay, with a nonzero number of flagged tasks
//!    (so the equality is not vacuous).
//!
//! CI runs this example as the gate on the hot path: it exits nonzero on
//! any panic or divergence.
//!
//! ```sh
//! cargo run --release --example hot_path_smoke
//! ```

use nurd::core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd::data::{JobSpec, TaskEvent};
use nurd::linalg::MatrixView;
use nurd::ml::{GbtConfig, GradientBoosting, SquaredLoss, TreeConfig};
use nurd::runtime::ThreadPool;
use nurd::serve::{Engine, EngineConfig, EngineReport, PredictorFactory};
use nurd::sim::{replay_job, ReplayConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

const QUANTILE: f64 = 0.9;
const WARMUP: f64 = 0.04;

fn config() -> NurdConfig {
    NurdConfig::default().with_refit_policy(RefitPolicy::Warm(WarmRefitConfig::default()))
}

fn run_engine(
    jobs: &[nurd::data::JobTrace],
    events: Vec<TaskEvent>,
    shards: usize,
    pool: &ThreadPool,
) -> EngineReport {
    let factory: PredictorFactory =
        Box::new(move |_spec: &JobSpec| Box::new(NurdPredictor::new(config())));
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

/// Deterministic synthetic regression rows (no RNG in smoke gates).
fn synthetic_rows(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let mut row = Vec::with_capacity(d);
        let mut acc = 0.0;
        for f in 0..d {
            let v = ((i * 2654435761 + f * 40503) % 10_000) as f64 / 10_000.0;
            acc += v * (f as f64 + 1.0);
            row.push(v);
        }
        xs.push(row);
        ys.push(acc + ((i % 17) as f64) * 0.25);
    }
    (xs, ys)
}

fn main() {
    // 1. Kernel-level bit identity: flatten a serving-shaped ensemble
    //    (50 rounds × depth 3) and score a batch both ways.
    let (xs, ys) = synthetic_rows(1500, 8);
    let rows: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
    let gbt = GbtConfig {
        n_rounds: 50,
        learning_rate: 0.15,
        tree: TreeConfig {
            max_depth: 3,
            min_child_weight: 2.0,
            ..TreeConfig::default()
        },
        subsample: 1.0,
        seed: 17,
    };
    let model = GradientBoosting::fit_view(MatrixView::RowSlices(&rows), &ys, SquaredLoss, &gbt)
        .expect("fit");
    let flat = model.flatten();
    assert!(flat.tree_count() > 0, "flattened ensemble is empty");
    let batch: Vec<&[f64]> = rows[..256].to_vec();
    let pointer = model.predict_view(MatrixView::RowSlices(&batch));
    for lanes in nurd::ml::SUPPORTED_LANES {
        let forest = model.flatten().with_lanes(lanes);
        let mut out = Vec::new();
        forest.predict_view_into(MatrixView::RowSlices(&batch), &mut out);
        assert_eq!(
            out, pointer,
            "lane-{lanes} kernel is not bit-identical to the pointer walk"
        );
        // Only widths above 1 take (and count) the multi-row path.
        assert_eq!(
            forest.lane_chunks() > 0,
            lanes > 1,
            "lane-{lanes} kernel's chunk counter reads {}",
            forest.lane_chunks()
        );
    }
    println!(
        "kernel: {} trees / {} nodes flattened, {}-row batch bit-identical to pointer walk \
         at lane widths {:?}",
        flat.tree_count(),
        flat.node_count(),
        batch.len(),
        nurd::ml::SUPPORTED_LANES,
    );

    // 2. Predictor-level: the flat path must actually run, the lane
    //    kernel at the default width, and the width must change nothing
    //    observable.
    let suite = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(3)
        .with_task_range(60, 90)
        .with_checkpoints(10)
        .with_seed(0x407_u64);
    let jobs = nurd::trace::generate_suite(&suite);
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    let mut flat_batches = 0usize;
    let mut lane_chunks = 0usize;
    for job in &jobs {
        let mut with_flat = NurdPredictor::new(config());
        let mut with_scalar_lanes = NurdPredictor::new(config().with_scoring_lanes(1));
        let out_flat = replay_job(job, &mut with_flat, &replay_cfg);
        let out_scalar = replay_job(job, &mut with_scalar_lanes, &replay_cfg);
        assert_eq!(
            out_flat,
            out_scalar,
            "default lane width and scoring_lanes = 1 diverged on job {}",
            job.job_id()
        );
        assert!(
            with_flat.flat_batches() > 0,
            "job {} never scored through the flat kernel — hot path not exercised",
            job.job_id()
        );
        assert!(
            with_flat.lane_chunks() > 0,
            "job {} never took the multi-row lane kernel at the default width",
            job.job_id()
        );
        assert_eq!(
            with_scalar_lanes.lane_chunks(),
            0,
            "scoring_lanes = 1 predictor used the lane kernel"
        );
        flat_batches += with_flat.flat_batches();
        lane_chunks += with_flat.lane_chunks();
    }
    println!(
        "predictor: {} jobs replayed, {flat_batches} running-set batches through the SoA kernel \
         ({lane_chunks} lane groups), outcomes bit-identical to the scalar-lane path",
        jobs.len(),
    );

    // 3. Engine-level: the concurrent barrier path (pooled scratch,
    //    checkpoint views) over a staggered fleet at shard counts
    //    {1, 2, 8}, against sequential replay.
    let pool = ThreadPool::new(2);
    let events = nurd::trace::staggered_fleet_events(&jobs, QUANTILE, 300.0, 0x407);
    let reference = run_engine(&jobs, events.clone(), 1, &pool);
    let flagged: usize = reference
        .jobs
        .iter()
        .map(|r| r.outcome.flagged_at.iter().flatten().count())
        .sum();
    assert!(flagged > 0, "no task ever flagged — comparison is vacuous");
    for job in &jobs {
        let expected = replay_job(job, &mut NurdPredictor::new(config()), &replay_cfg);
        let got = reference.job(job.job_id()).expect("job reported");
        assert_eq!(
            got.outcome,
            expected,
            "engine diverged from replay on job {}",
            job.job_id()
        );
    }
    for shards in [2usize, 8] {
        let report = run_engine(&jobs, events.clone(), shards, &pool);
        assert_eq!(
            report, reference,
            "engine at {shards} shards diverged from the 1-shard engine"
        );
    }
    println!(
        "engine: {} events served at shards {{1, 2, 8}}, {flagged} tasks flagged, \
         reports identical to each other and to replay",
        events.len(),
    );
    println!("hot-path smoke: OK");
}
