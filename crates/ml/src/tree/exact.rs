//! The classic sort-based CART split finder, kept as a test reference:
//! every node re-sorts its samples per feature (`O(d · n log n)` per node)
//! and considers every midpoint between adjacent distinct values. The
//! exact ≡ histogram proptests and the boosting accuracy guard compare
//! the histogram builder against it.

use nurd_linalg::MatrixView;

use super::{check_tree_inputs, BestSplit, Node, RegressionTree, TreeConfig};
use crate::MlError;

impl RegressionTree {
    /// Fits a tree by exact sort-based enumeration. The result carries no
    /// bin-code cache (see [`RegressionTree::supports_binned_predict`]).
    pub(crate) fn fit_exact(
        x: &[Vec<f64>],
        gradients: &[f64],
        hessians: &[f64],
        config: &TreeConfig,
    ) -> Result<Self, MlError> {
        let x = MatrixView::Rows(x);
        check_tree_inputs(x, gradients, hessians, config)?;
        let mut builder = ExactBuilder {
            x,
            gradients,
            hessians,
            config,
            nodes: Vec::new(),
        };
        builder.build((0..x.rows()).collect(), 0);
        Ok(RegressionTree {
            nodes: builder.nodes,
            split_bins: Vec::new(),
        })
    }
}

struct ExactBuilder<'a> {
    x: MatrixView<'a>,
    gradients: &'a [f64],
    hessians: &'a [f64],
    config: &'a TreeConfig,
    nodes: Vec<Node>,
}

impl ExactBuilder<'_> {
    /// Builds the subtree over `indices`; returns the node index.
    fn build(&mut self, indices: Vec<usize>, depth: usize) -> usize {
        let (g_sum, h_sum) = self.sums(&indices);
        let leaf_weight = -g_sum / (h_sum + self.config.lambda);

        if depth >= self.config.max_depth || indices.len() < 2 {
            return self.push_leaf(leaf_weight);
        }
        let Some(split) = self.best_split(&indices, g_sum, h_sum) else {
            return self.push_leaf(leaf_weight);
        };
        if split.gain <= self.config.min_split_gain {
            return self.push_leaf(leaf_weight);
        }

        let (left_idx, right_idx) = self.partition(indices, &split);
        // Degenerate partitions cannot happen: thresholds are
        // midpoints of strictly distinct consecutive values.
        let placeholder = self.push_leaf(0.0);
        let left = self.build(left_idx, depth + 1);
        let right = self.build(right_idx, depth + 1);
        self.nodes[placeholder] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
        };
        placeholder
    }

    fn push_leaf(&mut self, weight: f64) -> usize {
        self.nodes.push(Node::Leaf { weight });
        self.nodes.len() - 1
    }

    fn sums(&self, indices: &[usize]) -> (f64, f64) {
        indices.iter().fold((0.0, 0.0), |(g, h), &i| {
            (g + self.gradients[i], h + self.hessians[i])
        })
    }

    fn partition(&self, indices: Vec<usize>, split: &BestSplit) -> (Vec<usize>, Vec<usize>) {
        indices
            .into_iter()
            .partition(|&i| self.x.get(i, split.feature) <= split.threshold)
    }

    fn best_split(&self, indices: &[usize], g_sum: f64, h_sum: f64) -> Option<BestSplit> {
        let d = self.x.cols();
        let lambda = self.config.lambda;
        let parent_score = g_sum * g_sum / (h_sum + lambda);
        let mut best: Option<BestSplit> = None;

        let mut order: Vec<usize> = indices.to_vec();
        for feature in 0..d {
            // NaN input must not panic the sort (a partial_cmp fallback
            // violates strict total order, which the stdlib sort detects
            // and aborts on). nan_last_cmp orders every NaN — positive or
            // negative — last, so NaNs are never split boundaries and
            // simply ride along in the right child.
            order.sort_by(|&a, &b| {
                crate::binned::nan_last_cmp(self.x.get(a, feature), self.x.get(b, feature))
            });
            let mut g_left = 0.0;
            let mut h_left = 0.0;
            for w in 0..order.len() - 1 {
                let i = order[w];
                g_left += self.gradients[i];
                h_left += self.hessians[i];
                let v = self.x.get(i, feature);
                let v_next = self.x.get(order[w + 1], feature);
                if v_next.is_nan() {
                    // NaNs sort last: no further finite boundaries exist
                    // for this feature.
                    break;
                }
                if v == v_next {
                    continue;
                }
                let h_right = h_sum - h_left;
                if h_left < self.config.min_child_weight || h_right < self.config.min_child_weight {
                    continue;
                }
                let g_right = g_sum - g_left;
                let gain = 0.5
                    * (g_left * g_left / (h_left + lambda)
                        + g_right * g_right / (h_right + lambda)
                        - parent_score);
                if best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(BestSplit {
                        feature,
                        threshold: 0.5 * (v + v_next),
                        gain,
                        left_bin: u8::MAX,
                    });
                }
            }
        }
        best
    }
}
