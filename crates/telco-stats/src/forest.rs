//! Regression trees and random forests.
//!
//! Appendix B of the paper benchmarks its linear models against a Random
//! Forest (Breiman 2001), finding "comparable performance in terms of
//! RMSE and MAE". This is a dependency-free CART implementation with
//! bootstrap aggregation and per-split feature subsampling, deterministic
//! given its seed.

use serde::{Deserialize, Serialize};

use crate::regression::Design;

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestOptions {
    /// Number of bagged trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
    /// Fraction of features considered at each split.
    pub feature_fraction: f64,
    /// Candidate split thresholds per feature (quantile grid).
    pub n_thresholds: usize,
    /// RNG seed (bootstrap + feature subsampling).
    pub seed: u64,
}

impl Default for ForestOptions {
    fn default() -> Self {
        ForestOptions {
            n_trees: 30,
            max_depth: 8,
            min_leaf: 10,
            feature_fraction: 0.7,
            n_thresholds: 8,
            seed: 0xF0E5,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the `<=` child in the node arena.
        left: usize,
        /// Index of the `>` child.
        right: usize,
    },
}

/// A single CART regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Predict for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    idx = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never after fitting).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Running sum and sum of squares of one child of a candidate split,
/// accumulated in `indices` order.
#[derive(Default)]
struct ChildSums {
    s: f64,
    ss: f64,
}

impl ChildSums {
    fn add(&mut self, y: f64) {
        self.s += y;
        self.ss += y * y;
    }

    /// Within-child sum of squares over `n` observations.
    fn within(&self, n: usize) -> f64 {
        self.ss - self.s * self.s / n as f64
    }
}

/// A split `feature <= threshold` that leaves at least `min_leaf`
/// observations on each side, with its children's sums.
struct Candidate {
    threshold: f64,
    n_left: usize,
    left: ChildSums,
    right: ChildSums,
}

/// Per-tree growing state: the shared inputs plus scratch buffers that
/// every node of the tree reuses.
struct Grower<'a> {
    /// Column-major features: `x[feature][observation]`.
    x: &'a [Vec<f64>],
    y: &'a [f64],
    opts: &'a ForestOptions,
    rng: &'a mut SplitMix,
    nodes: Vec<Node>,
    /// The node's values of one feature, sorted for its quantiles.
    values: Vec<f64>,
    /// The feature's candidate splits, by ascending threshold.
    candidates: Vec<Candidate>,
}

impl Grower<'_> {
    /// Recursively grow a node over `indices`; returns the node's index.
    fn build_node(&mut self, indices: &mut [usize], depth: usize) -> usize {
        let (y, opts) = (self.y, self.opts);
        let n = indices.len();
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / n as f64;
        if depth >= opts.max_depth || n < 2 * opts.min_leaf {
            return self.push(Node::Leaf { value: mean });
        }

        let n_features = self.x.len();
        let k = ((n_features as f64 * opts.feature_fraction).ceil() as usize).clamp(1, n_features);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let parent_ss: f64 = indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();

        for _ in 0..k {
            let feature = (self.rng.next() as usize) % n_features;
            let column = &self.x[feature];
            self.find_candidates(column, indices);
            // One pass scores every candidate: each child's sums still add
            // up in `indices` order, as a scan per threshold would.
            for &i in indices.iter() {
                let v = column[i];
                for c in &mut self.candidates {
                    // Adding 0.0 to the other child, rather than branching,
                    // is exact: these sums start at +0.0 and can never
                    // reach -0.0, the one value that 0.0 would change.
                    let (to_left, to_right) =
                        if v <= c.threshold { (y[i], 0.0) } else { (0.0, y[i]) };
                    c.left.add(to_left);
                    c.right.add(to_right);
                }
            }
            for c in &self.candidates {
                // Score the split: total within-child sum of squares.
                let gain = parent_ss - (c.left.within(c.n_left) + c.right.within(n - c.n_left));
                if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                    best = Some((feature, c.threshold, gain));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return self.push(Node::Leaf { value: mean });
        };

        // Partition indices in place.
        let column = &self.x[feature];
        let mid = partition(indices, |&i| column[i] <= threshold);
        if mid == 0 || mid == n {
            return self.push(Node::Leaf { value: mean });
        }
        // Reserve this node's slot, then grow children.
        let me = self.push(Node::Leaf { value: mean }); // placeholder
        let (l, r) = indices.split_at_mut(mid);
        let left = self.build_node(l, depth + 1);
        let right = self.build_node(r, depth + 1);
        self.nodes[me] = Node::Split { feature, threshold, left, right };
        me
    }

    /// Fill `candidates` from the feature's quantile grid over this node.
    /// Two kinds of threshold are left out, neither of which could become
    /// the best split: a repeat of the previous threshold scores the same
    /// split again and cannot pass the strict `gain > g` test, and a split
    /// with a child under `min_leaf` is never scored. Child sizes come
    /// from the sorted values.
    fn find_candidates(&mut self, column: &[f64], indices: &[usize]) {
        let values = &mut self.values;
        values.clear();
        values.extend(indices.iter().map(|&i| column[i]));
        values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite features"));
        self.candidates.clear();
        let (n_thresholds, min_leaf) = (self.opts.n_thresholds, self.opts.min_leaf);
        let mut previous = None;
        for t in 1..=n_thresholds {
            let q = t as f64 / (n_thresholds + 1) as f64;
            let threshold = values[((values.len() - 1) as f64 * q) as usize];
            if previous == Some(threshold) {
                continue;
            }
            previous = Some(threshold);
            let n_left = values.partition_point(|&v| v <= threshold);
            if n_left >= min_leaf && values.len() - n_left >= min_leaf {
                let (left, right) = Default::default();
                self.candidates.push(Candidate { threshold, n_left, left, right });
            }
        }
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }
}

fn partition<T, F: Fn(&T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut store = 0;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs.swap(i, store);
            store += 1;
        }
    }
    store
}

/// A bagged ensemble of regression trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

/// Fit-quality metrics for comparing against the linear models
/// (Appendix B compares RMSE and MAE).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitQuality {
    /// Root mean squared error.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// R² of predictions.
    pub r_squared: f64,
}

impl RandomForest {
    /// Fit a forest on a populated regression design.
    ///
    /// # Panics
    ///
    /// Panics if the design has no observations.
    pub fn fit(design: &Design, opts: ForestOptions) -> Self {
        assert!(design.n() > 0, "cannot fit a forest on an empty design");
        let x: Vec<Vec<f64>> =
            (0..design.width()).map(|f| design.rows().map(|(row, _)| row[f]).collect()).collect();
        let y: Vec<f64> = design.rows().map(|(_, y)| y).collect();
        let n = y.len();
        let mut rng = SplitMix::new(opts.seed);
        let trees = (0..opts.n_trees)
            .map(|_| {
                // Bootstrap sample with replacement.
                let mut indices: Vec<usize> = (0..n).map(|_| (rng.next() as usize) % n).collect();
                let mut grower = Grower {
                    x: &x,
                    y: &y,
                    opts: &opts,
                    rng: &mut rng,
                    nodes: Vec::new(),
                    values: Vec::with_capacity(n),
                    candidates: Vec::with_capacity(opts.n_thresholds),
                };
                grower.build_node(&mut indices, 0);
                RegressionTree { nodes: grower.nodes }
            })
            .collect();
        RandomForest { trees }
    }

    /// Predict one feature row (mean over trees).
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Evaluate on a design (typically the training design, as in the
    /// paper's in-sample comparison).
    pub fn evaluate(&self, design: &Design) -> FitQuality {
        let n = design.n() as f64;
        let mut se = 0.0;
        let mut ae = 0.0;
        let mut ys = Vec::with_capacity(design.n());
        let mut preds = Vec::with_capacity(design.n());
        for (row, y) in design.rows() {
            let p = self.predict(row);
            se += (y - p) * (y - p);
            ae += (y - p).abs();
            ys.push(y);
            preds.push(p);
        }
        FitQuality {
            rmse: (se / n).sqrt(),
            mae: ae / n,
            r_squared: crate::corr::r_squared_of_predictions(&ys, &preds).unwrap_or(0.0),
        }
    }
}

/// SplitMix64: tiny deterministic RNG (keeps this crate dependency-free).
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::{ols, Value};

    /// A nonlinear target the linear model cannot represent but a forest
    /// can: y = step(x1 > 0.5) * 4 + x2.
    fn nonlinear_design(n: usize) -> Design {
        let mut d = Design::new().numeric("x1").numeric("x2");
        let mut rng = SplitMix::new(7);
        for _ in 0..n {
            let x1 = (rng.next() % 1000) as f64 / 1000.0;
            let x2 = (rng.next() % 1000) as f64 / 1000.0;
            let y = if x1 > 0.5 { 4.0 } else { 0.0 } + x2;
            d.add(&[Value::Num(x1), Value::Num(x2)], y);
        }
        d
    }

    #[test]
    fn forest_learns_a_step_function() {
        let d = nonlinear_design(2000);
        let forest = RandomForest::fit(&d, ForestOptions::default());
        let q = forest.evaluate(&d);
        assert!(q.rmse < 0.5, "RMSE {}", q.rmse);
        assert!(q.r_squared > 0.9, "R² {}", q.r_squared);
        // Spot predictions on both sides of the step.
        assert!(forest.predict(&[0.9, 0.0]) > 3.0);
        assert!(forest.predict(&[0.1, 0.0]) < 1.0);
    }

    #[test]
    fn forest_beats_linear_model_on_nonlinear_data() {
        let mut d = Design::new().intercept().numeric("x1").numeric("x2");
        let base = nonlinear_design(2000);
        for (row, y) in base.rows() {
            d.add(&[Value::Num(row[0]), Value::Num(row[1])], y);
        }
        let linear = ols(&d).unwrap();
        let forest = RandomForest::fit(&base, ForestOptions::default());
        let fq = forest.evaluate(&base);
        assert!(
            fq.rmse < linear.rmse,
            "forest RMSE {} should beat linear {}",
            fq.rmse,
            linear.rmse
        );
    }

    #[test]
    fn fitting_is_deterministic() {
        let d = nonlinear_design(500);
        let a = RandomForest::fit(&d, ForestOptions::default());
        let b = RandomForest::fit(&d, ForestOptions::default());
        assert_eq!(a, b);
        let opts = ForestOptions { seed: 99, ..Default::default() };
        let c = RandomForest::fit(&d, opts);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn depth_and_leaf_limits_respected() {
        let d = nonlinear_design(300);
        let opts = ForestOptions { n_trees: 3, max_depth: 2, min_leaf: 50, ..Default::default() };
        let forest = RandomForest::fit(&d, opts);
        // Depth 2 → at most 7 nodes per tree.
        for tree in &forest.trees {
            assert!(tree.len() <= 7, "tree has {} nodes", tree.len());
        }
    }

    #[test]
    fn constant_target_yields_constant_prediction() {
        let mut d = Design::new().numeric("x");
        for i in 0..100 {
            d.add(&[Value::Num(i as f64)], 5.0);
        }
        let forest = RandomForest::fit(&d, ForestOptions::default());
        assert!((forest.predict(&[42.0]) - 5.0).abs() < 1e-9);
        assert_eq!(forest.evaluate(&d).rmse, 0.0);
    }

    /// A design shaped like the HOF models' one: an intercept, dummy
    /// columns, a constant column and a numeric column with few distinct
    /// values, so most candidate thresholds of a node repeat. Prediction
    /// bit patterns are pinned so that no change to the split search can
    /// move a single float.
    #[test]
    fn tie_heavy_design_predictions_are_pinned() {
        let mut d = Design::new()
            .intercept()
            .categorical("a", &["a0", "a1", "a2", "a3"])
            .categorical("b", &["b0", "b1", "b2"])
            .numeric("k")
            .numeric("x");
        let mut rng = SplitMix::new(11);
        for _ in 0..600 {
            let a = (rng.next() % 4) as usize;
            let b = (rng.next() % 3) as usize;
            let x = (rng.next() % 5) as f64;
            let noise = (rng.next() % 1000) as f64 / 1000.0;
            let y = a as f64 * 1.5 - if b == 2 { 2.0 } else { 0.0 } + (x - 2.0).powi(2) + noise;
            d.add(&[Value::Cat(a), Value::Cat(b), Value::Num(2.5), Value::Num(x)], y);
        }
        let opts = ForestOptions { n_trees: 10, ..Default::default() };
        let forest = RandomForest::fit(&d, opts);
        let bits: Vec<u64> =
            d.rows().take(8).map(|(row, _)| forest.predict(row).to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x4013_d081_4ff3_ce4a,
                0x3ffd_2c36_3045_992d,
                0x4019_a999_b90d_cc3d,
                0x4018_05c8_860d_7886,
                0x4012_11bb_9bc9_9303,
                0x4013_6a15_1f63_ffcf,
                0x4012_e8ed_df31_4d62,
                0x4006_5482_c0e3_02fa,
            ]
        );
        let q = forest.evaluate(&d);
        assert_eq!(
            (q.rmse.to_bits(), q.mae.to_bits()),
            (0x3fe6_ecb9_2581_3bc5, 0x3fe2_2f69_c741_3a70)
        );
    }

    #[test]
    #[should_panic]
    fn empty_design_rejected() {
        let d = Design::new().numeric("x");
        RandomForest::fit(&d, ForestOptions::default());
    }
}
