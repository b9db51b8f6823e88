//! CART-style regression trees fit to gradient/hessian statistics.
//!
//! The tree minimizes the second-order (Newton) objective used by
//! XGBoost-style boosting: each leaf's weight is `-G / (H + λ)` and a split's
//! gain is the reduction in `-G²/(H+λ)` across the partition. With gradients
//! `g_i = f_i - y_i` and unit hessians this reduces to ordinary
//! variance-reduction CART, so the same tree serves plain regression too.
//!
//! # Histogram growth
//!
//! Each feature is quantized into at most [`TreeConfig::max_bins`] bins
//! once per fit (see [`BinnedMatrix`]); splits are found by accumulating
//! per-bin gradient/hessian sums in one linear pass per node and scanning
//! bin boundaries. Split finding costs `O(n·d)` per level with sequential
//! access over contiguous `u8` codes — and, with
//! [`TreeConfig::hist_subtraction`] (the default), only the smaller child
//! of each split is accumulated while the sibling's histogram is derived
//! as `parent − child`, LightGBM-style, cutting per-level accumulation to
//! `O(min(n_l, n_r) · d)`. When every feature has at most `max_bins`
//! distinct values the result is **identical** to the classic sort-based
//! exact enumeration (same thresholds, bit for bit, with subtraction
//! disabled; up to equal-gain tie-breaks with it); otherwise thresholds
//! are restricted to quantile bin boundaries — the standard histogram
//! tradeoff. The exact builder is compiled for this crate's tests only,
//! as the reference that equivalence is property-tested against.

use nurd_linalg::MatrixView;

use crate::binned::BinnedMatrix;
use crate::MlError;

#[cfg(test)]
mod exact;

/// Hyperparameters for a single regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0). Must be ≥ 1.
    pub max_depth: usize,
    /// Minimum hessian mass per child (≈ sample count for unit hessians).
    pub min_child_weight: f64,
    /// L2 regularization on leaf weights (λ in the XGBoost objective).
    pub lambda: f64,
    /// Minimum gain required to keep a split (γ).
    pub min_split_gain: f64,
    /// Maximum bins per feature (clamped to `[2, 256]`).
    pub max_bins: usize,
    /// LightGBM-style histogram subtraction: at
    /// every split, accumulate only the **smaller** child's histograms and
    /// derive the sibling's as `parent − child`, halving (or better) the
    /// per-level accumulation work. Gradient/hessian cells of the derived
    /// sibling can differ from direct accumulation by float-rounding ulps
    /// (sample counts stay exact); disable to force direct accumulation
    /// for both children (the reference the subtraction path is
    /// property-tested against).
    pub hist_subtraction: bool,
    /// Threads used for the embarrassingly parallel per-feature passes of
    /// histogram growth (feature quantization in [`BinnedMatrix::build`]
    /// and per-node histogram fills): `1` (the default) is strictly
    /// sequential, `0` uses every core of the machine, `n > 1` uses up to
    /// `n` threads of the shared [`nurd_runtime::global`] pool. Features
    /// are processed independently into disjoint outputs, so the fitted
    /// model is **bit-for-bit identical** at every setting — this knob
    /// trades nothing but wall-clock time.
    pub n_threads: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 3,
            min_child_weight: 1.0,
            lambda: 1.0,
            min_split_gain: 1e-9,
            max_bins: BinnedMatrix::MAX_BINS,
            hist_subtraction: true,
            n_threads: 1,
        }
    }
}

impl TreeConfig {
    /// Resolves [`TreeConfig::n_threads`] against the shared pool:
    /// `None` means run sequentially, `Some((pool, tasks))` means fan the
    /// per-feature passes out as at most `tasks` chunks on `pool`. An
    /// explicit `n > 1` keeps its fan-out even on a smaller pool (the
    /// chunks just queue — output is identical either way), so the
    /// parallel code path stays testable on any machine.
    pub(crate) fn parallelism(&self) -> Option<(&'static nurd_runtime::ThreadPool, usize)> {
        match self.n_threads {
            1 => None,
            0 => {
                let pool = nurd_runtime::global();
                (pool.threads() > 1).then(|| (pool, pool.threads()))
            }
            n => Some((nurd_runtime::global(), n)),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        /// Samples with `x[feature] <= threshold` go left.
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
///
/// # Example
///
/// ```
/// use nurd_ml::{RegressionTree, TreeConfig};
///
/// # fn main() -> Result<(), nurd_ml::MlError> {
/// let x = vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]];
/// // Gradients of squared loss at prediction 0: g = -y.
/// let grads = vec![-1.0, -1.0, -9.0, -9.0];
/// let hess = vec![1.0; 4];
/// let tree = RegressionTree::fit(&x, &grads, &hess, &TreeConfig::default())?;
/// assert!(tree.predict(&[10.5]) > tree.predict(&[0.5]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    /// Histogram-growth acceleration cache, parallel to `nodes`: for a
    /// split node, the highest bin code routed left in the
    /// [`BinnedMatrix`] the tree was trained against (`u8::MAX` at
    /// leaves). Empty on a tree decoded from a snapshot that carried no
    /// cache, and on the exact test reference. Lets
    /// [`RegressionTree::predict_binned`] route training-matrix rows by
    /// comparing `u8` codes instead of dereferencing raw `f64` features.
    split_bins: Vec<u8>,
}

/// Structural equality: two trees are equal when their node arrays are —
/// the `split_bins` cache is derived data tied to one training matrix and
/// deliberately excluded, so an exact-grown tree can compare equal to the
/// identical histogram-grown tree (the equivalence the property tests
/// assert).
impl PartialEq for RegressionTree {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
    }
}

impl RegressionTree {
    /// Fits a tree to per-sample gradients and hessians.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] / [`MlError::DimensionMismatch`] on
    /// inconsistent inputs, [`MlError::InvalidConfig`] if `max_depth == 0`.
    pub fn fit(
        x: &[Vec<f64>],
        gradients: &[f64],
        hessians: &[f64],
        config: &TreeConfig,
    ) -> Result<Self, MlError> {
        Self::fit_view(MatrixView::Rows(x), gradients, hessians, config)
    }

    /// Fits a tree over any matrix layout (row-major, row slices, or a
    /// column-major `FeatureMatrix`) without copying the features.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RegressionTree::fit`].
    pub fn fit_view(
        x: MatrixView<'_>,
        gradients: &[f64],
        hessians: &[f64],
        config: &TreeConfig,
    ) -> Result<Self, MlError> {
        check_tree_inputs(x, gradients, hessians, config)?;
        let indices: Vec<usize> = (0..x.rows()).collect();
        let binned = BinnedMatrix::build_for(x, config);
        Ok(Self::grow_binned(
            &binned, gradients, hessians, indices, config,
        ))
    }

    /// Fits a tree over a subset (`rows`) of a pre-quantized matrix.
    ///
    /// This is the boosting hot path: [`crate::GradientBoosting`] builds
    /// the [`BinnedMatrix`] once per `fit` and every round trains on an
    /// index subset — no row materialization, no re-quantization.
    /// `gradients`/`hessians` are indexed by *matrix row id* (length
    /// `binned.rows()`).
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] when `rows` is empty,
    /// [`MlError::DimensionMismatch`] when gradient/hessian lengths do not
    /// match the matrix, [`MlError::InvalidConfig`] if `max_depth == 0`.
    pub fn fit_binned(
        binned: &BinnedMatrix,
        gradients: &[f64],
        hessians: &[f64],
        rows: &[usize],
        config: &TreeConfig,
    ) -> Result<Self, MlError> {
        if rows.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if gradients.len() != binned.rows() || hessians.len() != binned.rows() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} gradient/hessian entries", binned.rows()),
                found: format!("{}/{}", gradients.len(), hessians.len()),
            });
        }
        if config.max_depth == 0 {
            return Err(MlError::InvalidConfig("max_depth must be >= 1".into()));
        }
        Ok(Self::grow_binned(
            binned,
            gradients,
            hessians,
            rows.to_vec(),
            config,
        ))
    }

    fn grow_binned(
        binned: &BinnedMatrix,
        gradients: &[f64],
        hessians: &[f64],
        rows: Vec<usize>,
        config: &TreeConfig,
    ) -> Self {
        // One flat histogram buffer per live node: features laid out at
        // `offsets[f]`, so the whole node histogram is a single allocation
        // the subtraction pass can walk linearly.
        let mut offsets = Vec::with_capacity(binned.features() + 1);
        let mut total = 0usize;
        for f in 0..binned.features() {
            offsets.push(total);
            total += binned.feature_bins(f).n_bins();
        }
        offsets.push(total);
        let mut builder = HistogramBuilder {
            binned,
            gradients,
            hessians,
            config,
            par: config.parallelism(),
            nodes: Vec::new(),
            split_bins: Vec::new(),
            offsets,
            total_bins: total,
            pool: Vec::new(),
        };
        let mut root_hist = builder.acquire();
        builder.fill_hist(&rows, &mut root_hist);
        builder.build(rows, 0, root_hist);
        RegressionTree {
            nodes: builder.nodes,
            split_bins: builder.split_bins,
        }
    }

    /// The tree's output for one sample (a leaf weight; the caller applies
    /// base score and learning rate).
    ///
    /// # Panics
    ///
    /// Panics if `features` is narrower than a split feature index, which
    /// only happens when predicting with fewer features than training used.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The tree's output for row `row` of a matrix view (no row copy).
    ///
    /// # Panics
    ///
    /// Panics if the view is narrower than a split feature index.
    #[must_use]
    pub fn predict_at(&self, x: MatrixView<'_>, row: usize) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x.get(row, *feature) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The tree's output for row `row` of the binned matrix it was trained
    /// against (or one that has since grown via
    /// [`BinnedMatrix::append_from`], which preserves the bin edges): the
    /// traversal compares `u8` bin codes instead of raw `f64` features,
    /// which is both branch-cheaper and cache-denser. This is the
    /// boosting-round score-update hot path.
    ///
    /// Routing is identical to [`RegressionTree::predict`] for every value
    /// quantized by the training edges (thresholds sit strictly between
    /// adjacent bins); rows appended later may differ from raw-feature
    /// routing only inside bins that were empty at this node during
    /// training — a tie-break zone where neither routing is more correct.
    ///
    /// # Panics
    ///
    /// Panics when the tree was not histogram-grown (no code cache), or if
    /// `row` is out of bounds for `binned`.
    #[must_use]
    pub fn predict_binned(&self, binned: &BinnedMatrix, row: usize) -> f64 {
        assert_eq!(
            self.split_bins.len(),
            self.nodes.len(),
            "predict_binned requires a histogram-grown tree"
        );
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    left,
                    right,
                    ..
                } => {
                    idx = if binned.codes(*feature)[row] <= self.split_bins[idx] {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Whether [`RegressionTree::predict_binned`] is available (the tree
    /// was histogram-grown and carries its bin-code cache).
    #[must_use]
    pub fn supports_binned_predict(&self) -> bool {
        self.split_bins.len() == self.nodes.len()
    }

    /// Node storage, index order — the flattening access path for
    /// [`crate::FlatForest`].
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The bin-code cache parallel to [`RegressionTree::nodes`] (empty
    /// when the tree carries none).
    pub(crate) fn split_bins(&self) -> &[u8] {
        &self.split_bins
    }

    /// Number of nodes (splits + leaves).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the deepest leaf (root-only tree has depth 0).
    #[must_use]
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&self.nodes, 0)
    }
}

/// Nodes serialize with a one-byte tag (`0` leaf, `1` split); the
/// `split_bins` cache rides along verbatim so a histogram-grown tree keeps
/// [`RegressionTree::predict_binned`] after a restore.
impl nurd_codec::Checkpointable for RegressionTree {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        enc.put_usize(self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf { weight } => {
                    enc.put_u8(0);
                    enc.put_f64(*weight);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    enc.put_u8(1);
                    enc.put_usize(*feature);
                    enc.put_f64(*threshold);
                    enc.put_usize(*left);
                    enc.put_usize(*right);
                }
            }
        }
        enc.put_bytes(&self.split_bins);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        let n = dec.take_len(9)?; // tag + at least an f64 per node
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(match dec.take_u8()? {
                0 => Node::Leaf {
                    weight: dec.take_f64()?,
                },
                1 => Node::Split {
                    feature: dec.take_usize()?,
                    threshold: dec.take_f64()?,
                    left: dec.take_usize()?,
                    right: dec.take_usize()?,
                },
                tag => {
                    return Err(nurd_codec::CodecError::InvalidTag {
                        what: "tree::Node",
                        tag,
                    })
                }
            });
        }
        let split_bins = dec.take_bytes()?.to_vec();
        Ok(RegressionTree { nodes, split_bins })
    }
}

fn check_tree_inputs(
    x: MatrixView<'_>,
    gradients: &[f64],
    hessians: &[f64],
    config: &TreeConfig,
) -> Result<(), MlError> {
    crate::error::check_view(x, gradients)?;
    if hessians.len() != gradients.len() {
        return Err(MlError::DimensionMismatch {
            expected: format!("{} hessians", gradients.len()),
            found: format!("{} hessians", hessians.len()),
        });
    }
    if config.max_depth == 0 {
        return Err(MlError::InvalidConfig("max_depth must be >= 1".into()));
    }
    Ok(())
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
    /// Highest bin code routed left (`u8::MAX` from the exact test
    /// builder, which partitions on the threshold directly).
    left_bin: u8,
}

/// One histogram cell: gradient sum, hessian sum, sample count. Kept as a
/// single struct so the accumulation loop touches one cache line per
/// sample instead of three parallel arrays.
#[derive(Debug, Clone, Copy, Default)]
struct HistBin {
    g: f64,
    h: f64,
    n: u32,
}

/// The binned histogram builder.
///
/// Each node owns one flat histogram covering every feature (laid out at
/// `offsets[f]`). The root's histogram is accumulated directly; below it,
/// only the **smaller** child of each split is accumulated and the
/// sibling is derived by the LightGBM subtraction trick
/// `sibling = parent − child` (sample counts exactly, gradient/hessian
/// sums up to addition-reordering ulps), so each level costs
/// `O(min(n_l, n_r) · d)` accumulation instead of `O(n · d)`. Buffers are
/// recycled through a small pool: at most `depth + 1` histograms are ever
/// live.
struct HistogramBuilder<'a> {
    binned: &'a BinnedMatrix,
    gradients: &'a [f64],
    hessians: &'a [f64],
    config: &'a TreeConfig,
    /// Per-feature fill fan-out resolved from [`TreeConfig::n_threads`]
    /// (`None` = sequential fills).
    par: Option<(&'static nurd_runtime::ThreadPool, usize)>,
    nodes: Vec<Node>,
    /// Parallel to `nodes`: left-routed bin cap per split (`u8::MAX` at
    /// leaves); becomes [`RegressionTree::split_bins`].
    split_bins: Vec<u8>,
    /// Flat histogram layout: feature `f`'s bins live at
    /// `offsets[f]..offsets[f + 1]`.
    offsets: Vec<usize>,
    total_bins: usize,
    /// Recycled node-histogram buffers.
    pool: Vec<Vec<HistBin>>,
}

impl HistogramBuilder<'_> {
    fn acquire(&mut self) -> Vec<HistBin> {
        self.pool
            .pop()
            .unwrap_or_else(|| vec![HistBin::default(); self.total_bins])
    }

    fn release(&mut self, buf: Vec<HistBin>) {
        self.pool.push(buf);
    }

    /// Node size below which parallel fills are never worth the task
    /// overhead (a fill is one add per row per feature).
    const PAR_MIN_ROWS: usize = 4096;

    /// Accumulates the node histogram for every feature in one pass per
    /// feature over contiguous `u8` codes — the dominant per-node cost the
    /// subtraction trick halves. Features fill disjoint cell ranges, so
    /// the parallel fan-out (big nodes, `par` set) produces bit-identical
    /// histograms to the sequential loop.
    fn fill_hist(&self, indices: &[usize], hist: &mut [HistBin]) {
        hist.fill(HistBin::default());
        if let Some((pool, tasks)) = self.par {
            if indices.len() >= Self::PAR_MIN_ROWS && self.binned.features() >= 2 {
                self.fill_hist_parallel(pool, tasks, indices, hist);
                return;
            }
        }
        for f in 0..self.binned.features() {
            // Single-bin (constant / all-NaN) features can never split;
            // best_split skips them, so their statistics are never read —
            // don't pay a pass over the rows for them. Their cells stay
            // zero in every node, which keeps the subtraction pass
            // (parent − child over the whole buffer) consistent.
            if self.binned.feature_bins(f).n_bins() < 2 {
                continue;
            }
            self.fill_feature(f, indices, &mut hist[self.offsets[f]..self.offsets[f + 1]]);
        }
    }

    /// One feature's accumulation pass into its own cell range.
    fn fill_feature(&self, f: usize, indices: &[usize], cells: &mut [HistBin]) {
        let codes = self.binned.codes(f);
        for &i in indices {
            let cell = &mut cells[codes[i] as usize];
            cell.g += self.gradients[i];
            cell.h += self.hessians[i];
            cell.n += 1;
        }
    }

    /// Splits `hist` into per-feature slices and fans the fills out as at
    /// most `tasks` chunks on `pool`. Skips single-bin features exactly
    /// like the sequential loop (their already-zeroed cells are the
    /// contract the subtraction pass relies on).
    fn fill_hist_parallel(
        &self,
        pool: &nurd_runtime::ThreadPool,
        tasks: usize,
        indices: &[usize],
        hist: &mut [HistBin],
    ) {
        let mut per_feature: Vec<(usize, &mut [HistBin])> =
            Vec::with_capacity(self.binned.features());
        let mut rest = hist;
        for f in 0..self.binned.features() {
            let width = self.offsets[f + 1] - self.offsets[f];
            let (cells, tail) = rest.split_at_mut(width);
            rest = tail;
            if self.binned.feature_bins(f).n_bins() >= 2 {
                per_feature.push((f, cells));
            }
        }
        if per_feature.is_empty() {
            return;
        }
        let per = per_feature.len().div_ceil(tasks.min(per_feature.len()));
        pool.scope(|s| {
            let mut remaining = per_feature;
            while !remaining.is_empty() {
                let chunk: Vec<(usize, &mut [HistBin])> =
                    remaining.drain(..per.min(remaining.len())).collect();
                s.spawn(move || {
                    for (f, cells) in chunk {
                        self.fill_feature(f, indices, cells);
                    }
                });
            }
        });
    }

    /// Builds the subtree over `indices`, whose per-feature histograms
    /// have already been accumulated (or derived) into `hist`; returns the
    /// node index. Consumes `hist` back into the pool.
    fn build(&mut self, indices: Vec<usize>, depth: usize, hist: Vec<HistBin>) -> usize {
        // Node totals are summed in row order (not from histogram cells)
        // so leaf weights stay bit-identical to the exact builder's.
        let (g_sum, h_sum) = indices.iter().fold((0.0, 0.0), |(g, h), &i| {
            (g + self.gradients[i], h + self.hessians[i])
        });
        let leaf_weight = -g_sum / (h_sum + self.config.lambda);

        if depth >= self.config.max_depth || indices.len() < 2 {
            self.release(hist);
            return self.push_leaf(leaf_weight);
        }
        let Some(split) = self.best_split(&hist, g_sum, h_sum) else {
            self.release(hist);
            return self.push_leaf(leaf_weight);
        };
        if split.gain <= self.config.min_split_gain {
            self.release(hist);
            return self.push_leaf(leaf_weight);
        }

        let codes = self.binned.codes(split.feature);
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .into_iter()
            .partition(|&i| codes[i] <= split.left_bin);

        // Accumulate the smaller child; derive the sibling from the parent
        // buffer (which the sibling then owns). With subtraction disabled,
        // both children are accumulated directly — the reference path.
        let small_is_left = left_idx.len() <= right_idx.len();
        let small = if small_is_left { &left_idx } else { &right_idx };
        let large = if small_is_left { &right_idx } else { &left_idx };
        let mut small_hist = self.acquire();
        self.fill_hist(small, &mut small_hist);
        let mut large_hist = hist;
        if self.config.hist_subtraction {
            for (cell, s) in large_hist.iter_mut().zip(&small_hist) {
                cell.g -= s.g;
                cell.h -= s.h;
                cell.n -= s.n;
            }
        } else {
            self.fill_hist(large, &mut large_hist);
        }
        let (left_hist, right_hist) = if small_is_left {
            (small_hist, large_hist)
        } else {
            (large_hist, small_hist)
        };

        let placeholder = self.push_leaf(0.0);
        let left = self.build(left_idx, depth + 1, left_hist);
        let right = self.build(right_idx, depth + 1, right_hist);
        self.nodes[placeholder] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
        };
        self.split_bins[placeholder] = split.left_bin;
        placeholder
    }

    fn push_leaf(&mut self, weight: f64) -> usize {
        self.nodes.push(Node::Leaf { weight });
        self.split_bins.push(u8::MAX);
        self.nodes.len() - 1
    }

    /// Scans every feature's bin boundaries in the precomputed node
    /// histogram. Unlike the pre-subtraction builder there is no
    /// accumulation here — `hist` already holds the node's statistics.
    fn best_split(&self, hist: &[HistBin], g_sum: f64, h_sum: f64) -> Option<BestSplit> {
        let lambda = self.config.lambda;
        let parent_score = g_sum * g_sum / (h_sum + lambda);
        let mut best: Option<BestSplit> = None;

        for feature in 0..self.binned.features() {
            let bins = self.binned.feature_bins(feature);
            let n_bins = bins.n_bins();
            if n_bins < 2 {
                continue;
            }
            let cells = &hist[self.offsets[feature]..self.offsets[feature + 1]];

            // Scan boundaries between bins *present in this node*: the
            // candidate set (and, in the one-bin-per-value regime, the
            // thresholds) then matches the exact builder sample-for-sample.
            let mut g_left = 0.0;
            let mut h_left = 0.0;
            let mut last_present: Option<usize> = None;
            for (b, cell) in cells.iter().enumerate() {
                if cell.n == 0 {
                    continue;
                }
                if let Some(prev) = last_present {
                    let h_right = h_sum - h_left;
                    if h_left >= self.config.min_child_weight
                        && h_right >= self.config.min_child_weight
                    {
                        let g_right = g_sum - g_left;
                        let gain = 0.5
                            * (g_left * g_left / (h_left + lambda)
                                + g_right * g_right / (h_right + lambda)
                                - parent_score);
                        if best.as_ref().is_none_or(|cur| gain > cur.gain) {
                            best = Some(BestSplit {
                                feature,
                                threshold: 0.5 * (bins.max_of(prev) + bins.min_of(b)),
                                gain,
                                left_bin: prev as u8,
                            });
                        }
                    }
                }
                g_left += cell.g;
                h_left += cell.h;
                last_present = Some(b);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn squared_loss_grads(y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        // Gradient of 1/2 (f - y)^2 at f = 0 is -y; hessian is 1.
        (y.iter().map(|v| -v).collect(), vec![1.0; y.len()])
    }

    #[test]
    fn perfectly_separable_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 10.0 }).collect();
        let (g, h) = squared_loss_grads(&y);
        let cfg = TreeConfig {
            lambda: 0.0,
            ..TreeConfig::default()
        };
        let tree = RegressionTree::fit(&x, &g, &h, &cfg).unwrap();
        assert!((tree.predict(&[2.0]) - 0.0).abs() < 1e-9);
        assert!((tree.predict(&[15.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 5];
        let (g, h) = squared_loss_grads(&y);
        let cfg = TreeConfig {
            lambda: 0.0,
            ..TreeConfig::default()
        };
        let tree = RegressionTree::fit(&x, &g, &h, &cfg).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert!((tree.predict(&[0.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let (g, h) = squared_loss_grads(&y);
        let cfg = TreeConfig {
            max_depth: 2,
            ..TreeConfig::default()
        };
        let tree = RegressionTree::fit(&x, &g, &h, &cfg).unwrap();
        assert!(tree.depth() <= 2);
        assert!(tree.leaf_count() <= 4);
    }

    #[test]
    fn min_child_weight_blocks_tiny_splits() {
        let x: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let y = vec![0.0, 0.0, 0.0, 100.0];
        let (g, h) = squared_loss_grads(&y);
        let cfg = TreeConfig {
            min_child_weight: 2.0,
            lambda: 0.0,
            ..TreeConfig::default()
        };
        let tree = RegressionTree::fit(&x, &g, &h, &cfg).unwrap();
        // The only useful split (3 vs 1) is blocked on the right child;
        // 2-2 split is allowed.
        for node in 0..tree.node_count() {
            if let Node::Split { threshold, .. } = tree.nodes[node] {
                assert!((threshold - 1.5).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn multivariate_picks_informative_feature() {
        // Feature 1 is pure noise; feature 0 determines the target.
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i / 15) as f64, ((i * 7919) % 13) as f64])
            .collect();
        let y: Vec<f64> = (0..30).map(|i| if i < 15 { -5.0 } else { 5.0 }).collect();
        let (g, h) = squared_loss_grads(&y);
        let tree = RegressionTree::fit(&x, &g, &h, &TreeConfig::default()).unwrap();
        match &tree.nodes[0] {
            Node::Split { feature, .. } => assert_eq!(*feature, 0),
            Node::Leaf { .. } => panic!("expected a split at the root"),
        }
    }

    #[test]
    fn rejects_zero_depth() {
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let err = RegressionTree::fit(&[vec![1.0]], &[1.0], &[1.0], &cfg).unwrap_err();
        assert!(matches!(err, MlError::InvalidConfig(_)));
    }

    #[test]
    fn rejects_hessian_length_mismatch() {
        let err = RegressionTree::fit(
            &[vec![1.0], vec![2.0]],
            &[1.0, 2.0],
            &[1.0],
            &TreeConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MlError::DimensionMismatch { .. }));
    }

    #[test]
    fn both_growth_modes_pass_reference_cases() {
        // The named tests above run under histogram growth; spot-check
        // the exact reference builder stays equivalent on one of them.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 10.0 }).collect();
        let (g, h) = squared_loss_grads(&y);
        let cfg = TreeConfig {
            lambda: 0.0,
            ..TreeConfig::default()
        };
        let exact = RegressionTree::fit_exact(&x, &g, &h, &cfg).unwrap();
        let hist = RegressionTree::fit(&x, &g, &h, &cfg).unwrap();
        assert_eq!(exact, hist);
    }

    #[test]
    fn fit_binned_trains_on_row_subsets() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 10.0 }).collect();
        let (g, h) = squared_loss_grads(&y);
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), 256);
        // Train on the even rows only.
        let rows: Vec<usize> = (0..20).step_by(2).collect();
        let cfg = TreeConfig {
            lambda: 0.0,
            ..TreeConfig::default()
        };
        let tree = RegressionTree::fit_binned(&binned, &g, &h, &rows, &cfg).unwrap();
        assert!((tree.predict(&[2.0]) - 0.0).abs() < 1e-9);
        assert!((tree.predict(&[16.0]) - 10.0).abs() < 1e-9);

        assert!(matches!(
            RegressionTree::fit_binned(&binned, &g, &h, &[], &cfg),
            Err(MlError::EmptyTrainingSet)
        ));
        assert!(matches!(
            RegressionTree::fit_binned(&binned, &g[..5], &h[..5], &rows, &cfg),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn nan_features_degrade_without_panicking_in_both_growth_modes() {
        // Large enough that the stdlib sort detects a non-total-order
        // comparator (the seed's partial_cmp fallback panicked here).
        // Cover both NaN signs: negative NaN (the x86-64 runtime default)
        // sorts first under plain total_cmp and needs the nan_last order.
        let neg_nan = f64::from_bits(0xFFF8_0000_0000_0000);
        let mut x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        x[7][0] = f64::NAN;
        x[11][0] = neg_nan;
        x[19][1] = neg_nan;
        let g: Vec<f64> = (0..30).map(|i| -(i as f64)).collect();
        let h = vec![1.0; 30];
        let cfg = TreeConfig::default();
        let exact = RegressionTree::fit_exact(&x, &g, &h, &cfg).unwrap();
        let hist = RegressionTree::fit(&x, &g, &h, &cfg).unwrap();
        for (growth, tree) in [("exact", exact), ("histogram", hist)] {
            assert!(tree.predict(&[15.0, 0.0]).is_finite(), "{growth}");
            assert!(tree.predict(&x[7]).is_finite(), "{growth} on NaN row");
            // No split may carry a NaN threshold: every training row must
            // route deterministically.
            for node in 0..tree.node_count() {
                if let Node::Split { threshold, .. } = tree.nodes[node] {
                    assert!(threshold.is_finite(), "{growth} NaN threshold");
                }
            }
        }
    }

    #[test]
    fn predict_binned_matches_predict_on_training_rows() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 13) as f64, ((i * 7) % 11) as f64])
            .collect();
        let y: Vec<f64> = (0..60).map(|i| ((i * 3) % 8) as f64).collect();
        let (g, h) = squared_loss_grads(&y);
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), 256);
        let rows: Vec<usize> = (0..60).collect();
        let tree =
            RegressionTree::fit_binned(&binned, &g, &h, &rows, &TreeConfig::default()).unwrap();
        assert!(tree.supports_binned_predict());
        for (i, row) in x.iter().enumerate() {
            assert_eq!(tree.predict(row), tree.predict_binned(&binned, i));
        }
        // Rows appended with preserved edges stay routable.
        let mut grown = binned.clone();
        let mut more = x.clone();
        more.push(vec![6.0, 3.0]);
        grown.append_from(MatrixView::Rows(&more));
        assert_eq!(
            tree.predict(&[6.0, 3.0]),
            tree.predict_binned(&grown, more.len() - 1)
        );
    }

    #[test]
    fn exact_trees_do_not_support_binned_predict() {
        let x = vec![vec![0.0], vec![1.0]];
        let tree = RegressionTree::fit_exact(&x, &[-1.0, 1.0], &[1.0, 1.0], &TreeConfig::default())
            .unwrap();
        assert!(!tree.supports_binned_predict());
    }

    #[test]
    fn parallel_fills_grow_identical_trees() {
        // Clears both parallel gates (build cells and fill rows) so the
        // fan-out actually runs; the fitted tree must be structurally
        // identical to the sequential one — the n_threads knob may only
        // change wall-clock time, never the model.
        let n = 5000;
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    f64::from(i % 611) * 0.5,
                    f64::from((i * 31) % 257),
                    f64::from((i * 7) % 13),
                ]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 0.25 - r[1] * 0.1 + r[2]).collect();
        let (g, h) = squared_loss_grads(&y);
        let seq_cfg = TreeConfig {
            max_depth: 5,
            max_bins: 64,
            ..TreeConfig::default()
        };
        let par_cfg = TreeConfig {
            n_threads: 4,
            ..seq_cfg.clone()
        };
        let sequential = RegressionTree::fit(&x, &g, &h, &seq_cfg).unwrap();
        let parallel = RegressionTree::fit(&x, &g, &h, &par_cfg).unwrap();
        assert_eq!(sequential, parallel);
        // And with subtraction disabled (direct fills on both children).
        let direct_par = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeConfig {
                hist_subtraction: false,
                ..par_cfg
            },
        )
        .unwrap();
        let direct_seq = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeConfig {
                hist_subtraction: false,
                ..seq_cfg
            },
        )
        .unwrap();
        assert_eq!(direct_seq, direct_par);
    }

    #[test]
    fn predict_at_matches_predict() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64, ((i * 7) % 5) as f64])
            .collect();
        let y: Vec<f64> = (0..30).map(|i| (i % 4) as f64).collect();
        let (g, h) = squared_loss_grads(&y);
        let tree = RegressionTree::fit(&x, &g, &h, &TreeConfig::default()).unwrap();
        let m = nurd_linalg::FeatureMatrix::from_rows(&x).unwrap();
        for (i, row) in x.iter().enumerate() {
            assert_eq!(tree.predict(row), tree.predict_at(MatrixView::Rows(&x), i));
            assert_eq!(tree.predict(row), tree.predict_at(m.view(), i));
        }
    }

    proptest! {
        /// Leaf predictions stay within the hull of the Newton-optimal
        /// per-sample weights (for unit hessians, within [-max|g|, max|g|]).
        #[test]
        fn prop_predictions_bounded_by_gradient_hull(
            ys in proptest::collection::vec(-100.0..100.0f64, 2..40)) {
            let x: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let (g, h) = squared_loss_grads(&ys);
            let cfg = TreeConfig { lambda: 0.0, ..TreeConfig::default() };
            let tree = RegressionTree::fit(&x, &g, &h, &cfg).unwrap();
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for i in 0..ys.len() {
                let p = tree.predict(&[i as f64]);
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            }
        }

        /// Tree structure respects depth limits for random targets.
        #[test]
        fn prop_depth_bounded(ys in proptest::collection::vec(-10.0..10.0f64, 2..64),
                              depth in 1usize..5) {
            let x: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let (g, h) = squared_loss_grads(&ys);
            let cfg = TreeConfig { max_depth: depth, ..TreeConfig::default() };
            let tree = RegressionTree::fit(&x, &g, &h, &cfg).unwrap();
            prop_assert!(tree.depth() <= depth);
        }

        /// **Exact ≡ histogram**: whenever every feature has at most
        /// `max_bins` distinct values, the two growth strategies must
        /// produce *identical* trees — same structure, same features,
        /// bit-for-bit the same thresholds and leaf weights. Features are
        /// drawn from a small value pool to force that regime while still
        /// exercising ties, duplicates, and multi-feature interaction.
        ///
        /// Runs with `hist_subtraction: false`: direct accumulation is the
        /// reference whose per-bin sums match the exact builder's
        /// tie-breaking bit-for-bit. The subtraction path derives sibling
        /// histograms with addition-reordering ulps, which can flip the
        /// winner between two *equally good* splits (same partition via a
        /// different feature) — semantically equivalent trees that fail
        /// structural equality; `prop_subtraction_matches_direct` covers
        /// that path at prediction level.
        #[test]
        fn prop_histogram_equals_exact_when_bins_cover_values(
            pool_picks in proptest::collection::vec(
                proptest::collection::vec(0usize..12, 3), 4..48),
            ys in proptest::collection::vec(-50.0..50.0f64, 48),
            depth in 1usize..5) {
            // 12 possible values per feature << max_bins = 256.
            let values = [-3.0, -1.5, -0.75, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
            let x: Vec<Vec<f64>> = pool_picks
                .iter()
                .map(|picks| picks.iter().map(|&p| values[p]).collect())
                .collect();
            let n = x.len();
            let (g, h) = squared_loss_grads(&ys[..n]);
            let exact_cfg = TreeConfig {
                max_depth: depth,
                ..TreeConfig::default()
            };
            let hist_cfg = TreeConfig {
                hist_subtraction: false,
                max_depth: depth,
                ..TreeConfig::default()
            };
            let exact = RegressionTree::fit_exact(&x, &g, &h, &exact_cfg).unwrap();
            let hist = RegressionTree::fit(&x, &g, &h, &hist_cfg).unwrap();
            prop_assert_eq!(&exact, &hist);
        }

        /// **Histogram subtraction ≡ direct accumulation**: deriving the
        /// larger child as `parent − smaller` must train a model whose
        /// predictions match the direct-accumulation reference on every
        /// training row. Tolerance (not bitwise) because the derived
        /// gradient sums carry addition-reordering ulps that may pick a
        /// different-but-equal split when two candidates tie exactly.
        #[test]
        fn prop_subtraction_matches_direct(
            cols in proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, 3), 4..64),
            depth in 1usize..6) {
            let x: Vec<Vec<f64>> = cols;
            let ys: Vec<f64> = x.iter().map(|r| r[0] * 0.5 - r[1] + r[2] * r[2] * 0.01).collect();
            let (g, h) = squared_loss_grads(&ys);
            let direct_cfg = TreeConfig {
                hist_subtraction: false,
                max_depth: depth,
                max_bins: 16, // force real quantization, not one-bin-per-value
                ..TreeConfig::default()
            };
            let sub_cfg = TreeConfig {
                hist_subtraction: true,
                ..direct_cfg.clone()
            };
            let direct = RegressionTree::fit(&x, &g, &h, &direct_cfg).unwrap();
            let sub = RegressionTree::fit(&x, &g, &h, &sub_cfg).unwrap();
            let scale = ys.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for row in &x {
                let (a, b) = (direct.predict(row), sub.predict(row));
                prop_assert!(
                    (a - b).abs() <= 1e-9 * scale,
                    "direct {a} vs subtraction {b}"
                );
            }
        }
    }
}
