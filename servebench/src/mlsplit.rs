//! ML stage split (traced runs only): re-runs the cold refit and the
//! scoring pass, stage by stage, on every checkpoint the predictor
//! wrapper saw, timing each `nurd-ml` call:
//!
//! `BinnedMatrix::build_for` → `GradientBoosting::fit_binned` →
//! `LogisticRegression::fit_view_warm` → `flatten` →
//! `FlatForest::predict_view_into` + `predict_proba_view_into`.
//!
//! The split only means something if it is the program's computation,
//! so every checkpoint is checked: the staged latency head must predict
//! the running rows bit-for-bit like `GradientBoosting::fit_view` on the
//! same inputs, and under the paper's cold refit policy the staged
//! pipeline must flag exactly the tasks the served predictor flagged.

use nurd_core::{adjusted_latency, weight, NurdConfig, RefitPolicy};
use nurd_linalg::{FeatureMatrix, MatrixView};
use nurd_ml::{BinnedMatrix, GradientBoosting, LogisticRegression, SquaredLoss};

use crate::hooks::{Captured, Recorder, Span};

#[derive(Debug, Default)]
pub struct Split {
    pub checkpoints: usize,
    pub bin_s: f64,
    pub boost_s: f64,
    pub irls_s: f64,
    pub irls_iters: usize,
    pub flatten_s: f64,
    pub score_s: f64,
    /// Checkpoints where the staged head disagreed with `fit_view`, or
    /// (cold policy) the staged flags with the served ones.
    pub mismatches: usize,
}

struct Timer<'a> {
    rec: &'a Recorder,
    spans: &'a mut Vec<Span>,
    parent: usize,
}

impl Timer<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.rec.now();
        let out = std::hint::black_box(f());
        let end = self.rec.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(self.parent),
            barrier: self.spans[self.parent].barrier,
        });
        (out, (end - start) as f64 / 1e9)
    }
}

/// Runs the split over `captures`, appending its spans to `spans`.
pub fn run(
    config: &NurdConfig,
    captures: &[Captured],
    rec: &Recorder,
    spans: &mut Vec<Span>,
) -> Split {
    let cold = config.refit_policy == RefitPolicy::AlwaysCold;
    let mut split = Split::default();
    for c in captures {
        if c.y_fin.len() < 2 || c.run_ids.is_empty() {
            continue; // the predictor does not fit here either
        }
        let fin: Vec<&[f64]> = c.x_fin.chunks(c.dim).collect();
        let run: Vec<&[f64]> = c.x_run.chunks(c.dim).collect();
        let parent = spans.len();
        spans.push(Span {
            name: "ml.refit_and_score",
            start: rec.now(),
            end: 0,
            parent: None,
            barrier: Some(c.barrier),
        });
        let mut t = Timer { rec, spans, parent };
        let (binned, s) = t.time("ml.bin", || {
            BinnedMatrix::build_for(MatrixView::RowSlices(&fin), &config.gbt.tree)
        });
        split.bin_s += s;
        let (head, s) = t.time("ml.boost", || {
            GradientBoosting::fit_binned(&binned, &c.y_fin, SquaredLoss, &config.gbt)
        });
        split.boost_s += s;
        let (propensity, s) = t.time("ml.irls", || {
            let rows: Vec<&[f64]> = fin.iter().chain(run.iter()).copied().collect();
            let mut all = FeatureMatrix::new();
            all.fill_from_rows(rows.iter().copied());
            let mut labels = vec![1.0; fin.len()];
            labels.resize(fin.len() + run.len(), 0.0);
            LogisticRegression::fit_view_warm(all.view(), &labels, &config.logistic, None)
        });
        split.irls_s += s;
        let (Ok(head), Ok(propensity)) = (head, propensity) else {
            t.spans[parent].end = rec.now();
            continue; // a failed fit: the predictor skipped this checkpoint too
        };
        split.irls_iters += propensity.iterations();
        let (flat, s) = t.time("ml.flatten", || {
            head.flatten().with_lanes(config.scoring_lanes)
        });
        split.flatten_s += s;
        let ((raw, z), s) = t.time("ml.score", || {
            let mut raw = Vec::new();
            let mut z = Vec::new();
            flat.predict_view_into(MatrixView::RowSlices(&run), &mut raw);
            propensity.predict_proba_view_into(MatrixView::RowSlices(&run), &mut z);
            (raw, z)
        });
        split.score_s += s;
        t.spans[parent].end = rec.now();
        split.checkpoints += 1;

        let same_head = GradientBoosting::fit_view(
            MatrixView::RowSlices(&fin),
            &c.y_fin,
            SquaredLoss,
            &config.gbt,
        )
        .map(|m| m.predict_view(MatrixView::RowSlices(&run)))
        .is_ok_and(|reference| {
            reference.len() == raw.len()
                && reference
                    .iter()
                    .zip(&raw)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        let same_flags = !cold || {
            let flagged: Vec<usize> = c
                .run_ids
                .iter()
                .zip(raw.iter().zip(&z))
                .filter(|(_, (&raw, &z))| {
                    let w = match c.delta {
                        Some(delta) => weight(z, delta, config.epsilon),
                        None => z.max(1e-9),
                    };
                    adjusted_latency(raw, w) >= c.threshold
                })
                .map(|(&id, _)| id)
                .collect();
            flagged == c.flagged
        };
        split.mismatches += usize::from(!(same_head && same_flags));
    }
    split
}
