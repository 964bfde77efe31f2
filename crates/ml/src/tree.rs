//! CART decision trees for classification (Gini) and regression (variance
//! reduction), with random feature subsampling for forests.
//!
//! # Split search without per-node float sorts
//!
//! Scanning a feature for its best threshold needs the node's samples in
//! ascending value order. The search gets that order without sorting
//! floats at any node:
//!
//! 1. **Once per training matrix**, `Ranks` gives every row its dense rank
//!    in `f64::total_cmp` order, per feature (`u32`, `d × N`). A forest
//!    computes it once and shares it across trees.
//! 2. **Once per tree**, a tree grows over sample *positions* `j`, each
//!    standing for row `rows[j]` of `x` (the bootstrap draw, or the
//!    identity for a lone tree). Each feature's positions are
//!    counting-sorted by `rank[rows[j]]`: ascending value, ties in
//!    ascending position, no comparisons.
//! 3. **Per split**, every feature's list is stable-partitioned (branch-free)
//!    into the two children, so each child's segment stays sorted. The
//!    lists are left alone when neither child can split.
//! 4. **From the switch down**, partitioning touches all `d` features while a
//!    node tests only `k = max_features` of them. Once `d > k·log2(m/2)` for
//!    a node of `m` samples, sorting the `k` tested features is cheaper, so
//!    from that node down the scan sorts packed `rank << 32 | j` keys. `m`
//!    shrinks with depth, so each branch switches at most once. A tree
//!    whose root already falls back (√d forests) never builds the lists.
//!
//! **Bit-identity.** Ranks tie exactly when two values have the same bits,
//! and ties keep position order, so both orders equal what a stable
//! `total_cmp` sort of `(value, y)` pairs over ascending positions yields —
//! the order plain sort-per-node CART scans on the bootstrap copy. The scan
//! then does the same arithmetic on the same floats in the same order:
//! prefix sums and totals are the same left folds, and the `v_prev ==
//! v_cur` test is answered from ranks exactly (equal ranks unless NaN, or
//! the `-0.0`/`+0.0` pair), with values read from `x` itself only to form
//! a new best threshold. Node impurities and leaf
//! values sum over a positions list kept ascending by the same partitions,
//! and the feature draws consume the RNG in the same node order. The trees
//! are therefore bit-identical to the original splitter, which is kept
//! below as a `cfg(test)` oracle. No `f64` copy of the matrix is made.

use crate::{Dataset, MlError, Result, Task};
use arda_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Matrix cells below which `Ranks::new` stays sequential.
const PAR_MIN_RANK_CELLS: usize = 1 << 16;

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (plain CART).
    All,
    /// `⌈√d⌉` — the forest default for classification.
    Sqrt,
    /// `⌈d/3⌉` — the forest default for regression.
    Third,
    /// Explicit count (clamped to `d`).
    Exact(usize),
}

impl MaxFeatures {
    fn resolve(self, d: usize) -> usize {
        let k = match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Third => d.div_ceil(3),
            MaxFeatures::Exact(k) => k,
        };
        k.clamp(1, d.max(1))
    }
}

/// Tree growth hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Feature subsampling rule.
    pub max_features: MaxFeatures,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    task: Task,
    n_features: usize,
    /// Total impurity decrease attributed to each feature (unnormalised).
    importances: Vec<f64>,
}

/// Fail with [`MlError::Invalid`] when `n` rows overflow the `u32` sample
/// positions and ranks the split search packs, instead of truncating.
pub(crate) fn check_row_capacity(n: usize) -> Result<()> {
    if n > u32::MAX as usize {
        return Err(MlError::Invalid(format!(
            "{n} training rows exceed the tree's u32 row capacity"
        )));
    }
    Ok(())
}

/// Whether a node of `m` samples scans presorted lists (partitioning all
/// `d` features) rather than sorting the `k` features it tests.
fn presort_pays(d: usize, k: usize, m: usize) -> bool {
    d as f64 <= k as f64 * (m as f64 / 2.0).log2()
}

/// `f64::total_cmp` order as an unsigned key.
fn total_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// What a feature's ranks say about `f64` equality, so a scan compares
/// ranks instead of reading values: equal ranks are equal bits, and the
/// only distinct bits that compare equal are `-0.0` and `+0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Levels {
    /// Distinct values (one past the largest rank).
    count: u32,
    /// Ranks below `nan_below` (negative NaNs) or from `nan_from` on
    /// (positive NaNs) hold NaNs.
    nan_below: u32,
    nan_from: u32,
    /// The rank of `+0.0` when `-0.0` (one rank lower) occurs too, else 0.
    pos_zero: u32,
}

impl Levels {
    /// Whether values of ranks `a <= b` compare equal as `f64`s.
    fn equal(&self, a: u32, b: u32) -> bool {
        if a == b {
            a >= self.nan_below && a < self.nan_from
        } else {
            b == self.pos_zero && a + 1 == b
        }
    }
}

/// Every row's dense rank in `f64::total_cmp` order, per feature of a
/// training matrix; computed once and shared by every tree fitted on it.
pub(crate) struct Ranks {
    n_rows: usize,
    /// Feature-major `d × n_rows`.
    rank: Vec<u32>,
    levels: Vec<Levels>,
}

impl Ranks {
    pub(crate) fn new(x: &Matrix) -> Ranks {
        let features: Vec<usize> = (0..x.cols()).collect();
        let threads = arda_par::threads_for(x.rows() * x.cols(), PAR_MIN_RANK_CELLS);
        let columns = arda_par::par_map(&features, threads, |_, &f| Self::column(x, f));
        let mut rank = Vec::with_capacity(x.rows() * x.cols());
        let mut levels = Vec::with_capacity(x.cols());
        for (col, lv) in columns {
            rank.extend_from_slice(&col);
            levels.push(lv);
        }
        Ranks {
            n_rows: x.rows(),
            rank,
            levels,
        }
    }

    fn column(x: &Matrix, f: usize) -> (Vec<u32>, Levels) {
        let mut keyed: Vec<(u64, u32)> = (0..x.rows())
            .map(|r| (total_key(x.get(r, f)), r as u32))
            .collect();
        keyed.sort_unstable();
        let mut rank = vec![0u32; x.rows()];
        let mut lv = Levels {
            count: 0,
            nan_below: 0,
            nan_from: u32::MAX,
            pos_zero: 0,
        };
        let mut prev = None;
        for &(key, r) in &keyed {
            if prev != Some(key) {
                let v = x.get(r as usize, f);
                if v.is_nan() && v.is_sign_negative() {
                    lv.nan_below = lv.count + 1;
                } else if v.is_nan() {
                    lv.nan_from = lv.nan_from.min(lv.count);
                } else if v.to_bits() == 0 && prev == Some(total_key(-0.0)) {
                    lv.pos_zero = lv.count;
                }
                lv.count += 1;
                prev = Some(key);
            }
            rank[r as usize] = lv.count - 1;
        }
        (rank, lv)
    }

    fn of(&self, f: usize) -> &[u32] {
        &self.rank[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Each feature's positions `0..rows.len()` in ascending
    /// `(rank[rows[j]], j)` order, by counting sort; feature-major.
    fn presort(&self, rows: &[usize]) -> Vec<u32> {
        let n = rows.len();
        let mut sorted = vec![0u32; self.levels.len() * n];
        let mut next: Vec<u32> = Vec::new();
        for (f, out) in sorted.chunks_mut(n).enumerate() {
            let rank = self.of(f);
            next.clear();
            next.resize(self.levels[f].count as usize + 1, 0);
            for &r in rows {
                next[rank[r] as usize + 1] += 1;
            }
            for i in 1..next.len() {
                next[i] += next[i - 1];
            }
            for (j, &r) in rows.iter().enumerate() {
                let slot = &mut next[rank[r] as usize];
                out[*slot as usize] = j as u32;
                *slot += 1;
            }
        }
        sorted
    }
}

/// Stable-partition `seg` by `goes_left[j]` (left side first), spilling the
/// right side through `spill`; branch-free.
fn partition(seg: &mut [u32], goes_left: &[bool], spill: &mut [u32]) {
    let (mut nl, mut nr) = (0, 0);
    for i in 0..seg.len() {
        let j = seg[i];
        let left = goes_left[j as usize] as usize;
        seg[nl] = j;
        spill[nr] = j;
        nl += left;
        nr += 1 - left;
    }
    seg[nl..].copy_from_slice(&spill[..nr]);
}

/// The read-only side of one tree fit: sample position `j` is row
/// `rows[j]` of `x`.
struct Sample<'a> {
    x: &'a Matrix,
    ranks: &'a Ranks,
    rows: &'a [usize],
    /// `y[rows[j]]` by position.
    y: Vec<f64>,
    task: Task,
    cfg: &'a TreeConfig,
}

struct Builder<'a> {
    s: Sample<'a>,
    /// Features each node tests.
    k: usize,
    rng: StdRng,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    /// Positions; every node's segment is ascending.
    samples: Vec<u32>,
    /// Feature-major `d × n` positions; every presorted node's segment is
    /// in ascending `(rank, position)` order. Empty when the root sorts.
    sorted: Vec<u32>,
    /// Scratch: the current split's side per position, the partition
    /// spill, the node's feature draw and the sort fallback's keys/order.
    goes_left: Vec<bool>,
    spill: Vec<u32>,
    features: Vec<usize>,
    keys: Vec<u64>,
    order: Vec<u32>,
}

impl DecisionTree {
    /// Fit a tree on the dataset.
    pub fn fit(data: &Dataset, cfg: &TreeConfig) -> Result<Self> {
        Self::fit_xy(&data.x, &data.y, data.task, cfg)
    }

    /// Fit from raw matrix/labels.
    pub fn fit_xy(x: &Matrix, y: &[f64], task: Task, cfg: &TreeConfig) -> Result<Self> {
        if x.rows() == 0 {
            return Err(MlError::Invalid("empty training set".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch(format!(
                "{} rows vs {} labels",
                x.rows(),
                y.len()
            )));
        }
        check_row_capacity(x.rows())?;
        let rows: Vec<usize> = (0..x.rows()).collect();
        Ok(Self::grow(x, y, &Ranks::new(x), &rows, task, cfg))
    }

    /// Grow a tree on the sample `rows` of `x` (repeats allowed), given the
    /// ranks of `x`. The caller has checked shapes, a non-empty sample and
    /// [`check_row_capacity`].
    pub(crate) fn grow(
        x: &Matrix,
        y: &[f64],
        ranks: &Ranks,
        rows: &[usize],
        task: Task,
        cfg: &TreeConfig,
    ) -> Self {
        let (n, d) = (rows.len(), x.cols());
        let mut b = Builder {
            s: Sample {
                x,
                ranks,
                rows,
                y: rows.iter().map(|&r| y[r]).collect(),
                task,
                cfg,
            },
            k: cfg.max_features.resolve(d),
            rng: StdRng::seed_from_u64(cfg.seed),
            nodes: Vec::new(),
            importances: vec![0.0; d],
            samples: (0..n as u32).collect(),
            sorted: Vec::new(),
            goes_left: vec![false; n],
            spill: vec![0; n],
            features: Vec::with_capacity(d),
            keys: Vec::new(),
            order: Vec::new(),
        };
        let impurity = b.s.impurity(&b.samples);
        let presorted = b.presorts(n, 0, impurity);
        if presorted {
            b.sorted = ranks.presort(rows);
        }
        b.build(0, n, 0, impurity, presorted);
        DecisionTree {
            nodes: b.nodes,
            task,
            n_features: d,
            importances: b.importances,
        }
    }

    /// Predict a single row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { prediction } => return *prediction,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predict every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if x.cols() != self.n_features {
            return Err(MlError::ShapeMismatch(format!(
                "predict: {} columns vs trained {}",
                x.cols(),
                self.n_features
            )));
        }
        Ok((0..x.rows()).map(|r| self.predict_row(x.row(r))).collect())
    }

    /// Unnormalised impurity-decrease importances.
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of nodes (for complexity diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The task this tree was trained for.
    pub fn task(&self) -> Task {
        self.task
    }
}

impl Builder<'_> {
    fn can_split(&self, m: usize, depth: usize, impurity: f64) -> bool {
        m >= self.s.cfg.min_samples_split && depth < self.s.cfg.max_depth && impurity > 1e-12
    }

    /// Whether a node of `m` samples will split over presorted lists.
    fn presorts(&self, m: usize, depth: usize, impurity: f64) -> bool {
        self.can_split(m, depth, impurity) && presort_pays(self.s.x.cols(), self.k, m)
    }

    /// Recursively build the subtree over the position segment `lo..hi`
    /// (whose `impurity` the caller computed); returns the node id.
    /// `presorted` says the segment is valid in every `sorted` list.
    fn build(
        &mut self,
        lo: usize,
        hi: usize,
        depth: usize,
        impurity: f64,
        presorted: bool,
    ) -> usize {
        let m = hi - lo;
        if self.can_split(m, depth, impurity) {
            if let Some((feature, threshold, gain)) = self.best_split(lo, hi, impurity, presorted) {
                let mut n_left = 0;
                for &j in &self.samples[lo..hi] {
                    let left = self.s.x.get(self.s.rows[j as usize], feature) <= threshold;
                    self.goes_left[j as usize] = left;
                    n_left += left as usize;
                }
                let min_leaf = self.s.cfg.min_samples_leaf;
                if n_left >= min_leaf && m - n_left >= min_leaf {
                    self.importances[feature] += gain * m as f64 / self.s.rows.len() as f64;
                    let id = self.nodes.len();
                    self.nodes.push(Node::Leaf { prediction: 0.0 }); // placeholder
                    partition(&mut self.samples[lo..hi], &self.goes_left, &mut self.spill);
                    let mid = lo + n_left;
                    let impurity_l = self.s.impurity(&self.samples[lo..mid]);
                    let impurity_r = self.s.impurity(&self.samples[mid..hi]);
                    let presorted_l = presorted && self.presorts(n_left, depth + 1, impurity_l);
                    let presorted_r = presorted && self.presorts(m - n_left, depth + 1, impurity_r);
                    if presorted_l || presorted_r {
                        for list in self.sorted.chunks_mut(self.s.rows.len()) {
                            partition(&mut list[lo..hi], &self.goes_left, &mut self.spill);
                        }
                    }
                    let l = self.build(lo, mid, depth + 1, impurity_l, presorted_l);
                    let r = self.build(mid, hi, depth + 1, impurity_r, presorted_r);
                    self.nodes[id] = Node::Split {
                        feature,
                        threshold,
                        left: l,
                        right: r,
                    };
                    return id;
                }
            }
        }

        let prediction = self.s.leaf_value(&self.samples[lo..hi]);
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { prediction });
        id
    }

    /// Best (feature, threshold, impurity decrease) over a random feature
    /// subset, or `None` when no valid split exists.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        parent_impurity: f64,
        presorted: bool,
    ) -> Option<(usize, f64, f64)> {
        let d = self.s.x.cols();
        if d == 0 {
            return None;
        }
        self.features.clear();
        self.features.extend(0..d);
        if self.k < d {
            self.features.shuffle(&mut self.rng);
            self.features.truncate(self.k);
        }

        let n = self.s.rows.len();
        let mut best = None;
        for &f in &self.features {
            let seq = if presorted {
                &self.sorted[f * n + lo..f * n + hi]
            } else {
                // Packed (rank, position) keys are unique, so an unstable
                // sort yields the stable order.
                let rank = self.s.ranks.of(f);
                self.keys.clear();
                self.keys.extend(
                    self.samples[lo..hi]
                        .iter()
                        .map(|&j| (rank[self.s.rows[j as usize]] as u64) << 32 | j as u64),
                );
                self.keys.sort_unstable();
                self.order.clear();
                self.order.extend(self.keys.iter().map(|&key| key as u32));
                &self.order[..]
            };
            self.s.scan(f, seq, parent_impurity, &mut best);
        }
        best
    }
}

impl Sample<'_> {
    fn leaf_value(&self, samples: &[u32]) -> f64 {
        match self.task {
            Task::Regression => {
                samples.iter().map(|&j| self.y[j as usize]).sum::<f64>()
                    / samples.len().max(1) as f64
            }
            Task::Classification { n_classes } => {
                let mut counts = vec![0usize; n_classes];
                for &j in samples {
                    counts[self.y[j as usize] as usize] += 1;
                }
                counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(k, _)| k as f64)
                    .unwrap_or(0.0)
            }
        }
    }

    fn impurity(&self, samples: &[u32]) -> f64 {
        let n = samples.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let y = |j: u32| self.y[j as usize];
        match self.task {
            Task::Regression => {
                let mean = samples.iter().map(|&j| y(j)).sum::<f64>() / n;
                samples.iter().map(|&j| (y(j) - mean).powi(2)).sum::<f64>() / n
            }
            Task::Classification { n_classes } => {
                let mut counts = vec![0usize; n_classes];
                for &j in samples {
                    counts[y(j) as usize] += 1;
                }
                1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
            }
        }
    }

    /// Scan feature `f` over `seq`, the node's positions in ascending value
    /// order, and replace `best` with any candidate of strictly larger gain.
    /// Equality tests use ranks; values are read only for a new best's
    /// threshold.
    fn scan(
        &self,
        f: usize,
        seq: &[u32],
        parent_impurity: f64,
        best: &mut Option<(usize, f64, f64)>,
    ) {
        let (rank, levels) = (self.ranks.of(f), self.ranks.levels[f]);
        let rank_at = |j: u32| rank[self.rows[j as usize]];
        let label = |j: u32| self.y[j as usize];
        let len = seq.len();
        let mut r_prev = rank_at(seq[0]);
        if levels.equal(r_prev, rank_at(seq[len - 1])) {
            return; // constant feature in this node
        }
        let n = len as f64;
        let min_leaf = self.cfg.min_samples_leaf;
        // Zero-gain splits are allowed on impure nodes (XOR needs them);
        // ties keep the first candidate.
        let mut offer = |gain: f64, split: usize| {
            if best.is_none_or(|b| gain > b.2) && gain >= -1e-12 {
                let value = |j: u32| self.x.get(self.rows[j as usize], f);
                let threshold = (value(seq[split - 1]) + value(seq[split])) / 2.0;
                *best = Some((f, threshold, gain.max(0.0)));
            }
        };
        match self.task {
            Task::Regression => {
                // Both totals in one pass, each the same left fold from the
                // same start as `Iterator::sum`: two independent add chains
                // instead of two passes.
                let mut total_sum: f64 = std::iter::empty::<f64>().sum();
                let mut total_sq = total_sum;
                for &j in seq {
                    total_sum += label(j);
                    total_sq += label(j) * label(j);
                }
                let mut left_sum = 0.0;
                let mut left_sq = 0.0;
                for split in 1..len {
                    let y_prev = label(seq[split - 1]);
                    left_sum += y_prev;
                    left_sq += y_prev * y_prev;
                    let r_cur = rank_at(seq[split]);
                    let tied = levels.equal(std::mem::replace(&mut r_prev, r_cur), r_cur);
                    if tied || split < min_leaf || len - split < min_leaf {
                        continue;
                    }
                    let nl = split as f64;
                    let nr = n - nl;
                    let var_l = left_sq / nl - (left_sum / nl).powi(2);
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let var_r = right_sq / nr - (right_sum / nr).powi(2);
                    offer(parent_impurity - (nl / n) * var_l - (nr / n) * var_r, split);
                }
            }
            Task::Classification { n_classes } => {
                let mut total = vec![0usize; n_classes];
                for &j in seq {
                    total[label(j) as usize] += 1;
                }
                let mut left = vec![0usize; n_classes];
                for split in 1..len {
                    left[label(seq[split - 1]) as usize] += 1;
                    let r_cur = rank_at(seq[split]);
                    let tied = levels.equal(std::mem::replace(&mut r_prev, r_cur), r_cur);
                    if tied || split < min_leaf || len - split < min_leaf {
                        continue;
                    }
                    let nl = split as f64;
                    let nr = n - nl;
                    let gini_l = 1.0 - left.iter().map(|&c| (c as f64 / nl).powi(2)).sum::<f64>();
                    let gini_r = 1.0
                        - total
                            .iter()
                            .zip(&left)
                            .map(|(&t, &l)| ((t - l) as f64 / nr).powi(2))
                            .sum::<f64>();
                    offer(
                        parent_impurity - (nl / n) * gini_l - (nr / n) * gini_r,
                        split,
                    );
                }
            }
        }
    }
}

/// The original sort-per-node splitter, kept verbatim as the correctness
/// oracle for the presorted split search above.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    struct Builder<'a> {
        x: &'a Matrix,
        y: &'a [f64],
        task: Task,
        cfg: &'a TreeConfig,
        rng: StdRng,
        nodes: Vec<Node>,
        importances: Vec<f64>,
        n_total: usize,
    }

    /// The original `DecisionTree::fit_xy`, minus its shape checks.
    pub(crate) fn fit_xy(x: &Matrix, y: &[f64], task: Task, cfg: &TreeConfig) -> DecisionTree {
        let mut b = Builder {
            x,
            y,
            task,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            nodes: Vec::new(),
            importances: vec![0.0; x.cols()],
            n_total: x.rows(),
        };
        let mut indices: Vec<usize> = (0..x.rows()).collect();
        b.build(&mut indices, 0);
        DecisionTree {
            nodes: b.nodes,
            task,
            n_features: x.cols(),
            importances: b.importances,
        }
    }

    impl Builder<'_> {
        /// Recursively build the subtree over `indices`; returns node id.
        fn build(&mut self, indices: &mut [usize], depth: usize) -> usize {
            let node_impurity = self.impurity(indices);
            let should_split = indices.len() >= self.cfg.min_samples_split
                && depth < self.cfg.max_depth
                && node_impurity > 1e-12;

            if should_split {
                if let Some((feature, threshold, gain)) = self.best_split(indices, node_impurity) {
                    // Partition in place.
                    let mut left: Vec<usize> = Vec::new();
                    let mut right: Vec<usize> = Vec::new();
                    for &i in indices.iter() {
                        if self.x.get(i, feature) <= threshold {
                            left.push(i);
                        } else {
                            right.push(i);
                        }
                    }
                    if left.len() >= self.cfg.min_samples_leaf
                        && right.len() >= self.cfg.min_samples_leaf
                    {
                        self.importances[feature] +=
                            gain * indices.len() as f64 / self.n_total as f64;
                        let id = self.nodes.len();
                        self.nodes.push(Node::Leaf { prediction: 0.0 }); // placeholder
                        let l = self.build(&mut left, depth + 1);
                        let r = self.build(&mut right, depth + 1);
                        self.nodes[id] = Node::Split {
                            feature,
                            threshold,
                            left: l,
                            right: r,
                        };
                        return id;
                    }
                }
            }

            let prediction = self.leaf_value(indices);
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf { prediction });
            id
        }

        fn leaf_value(&self, indices: &[usize]) -> f64 {
            match self.task {
                Task::Regression => {
                    indices.iter().map(|&i| self.y[i]).sum::<f64>() / indices.len().max(1) as f64
                }
                Task::Classification { n_classes } => {
                    let mut counts = vec![0usize; n_classes];
                    for &i in indices {
                        counts[self.y[i] as usize] += 1;
                    }
                    counts
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &c)| c)
                        .map(|(k, _)| k as f64)
                        .unwrap_or(0.0)
                }
            }
        }

        fn impurity(&self, indices: &[usize]) -> f64 {
            match self.task {
                Task::Regression => {
                    let n = indices.len() as f64;
                    if n == 0.0 {
                        return 0.0;
                    }
                    let mean = indices.iter().map(|&i| self.y[i]).sum::<f64>() / n;
                    indices
                        .iter()
                        .map(|&i| (self.y[i] - mean).powi(2))
                        .sum::<f64>()
                        / n
                }
                Task::Classification { n_classes } => {
                    let n = indices.len() as f64;
                    if n == 0.0 {
                        return 0.0;
                    }
                    let mut counts = vec![0usize; n_classes];
                    for &i in indices {
                        counts[self.y[i] as usize] += 1;
                    }
                    1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
                }
            }
        }

        /// Best (feature, threshold, impurity decrease) over a random feature
        /// subset, or `None` when no valid split exists.
        fn best_split(
            &mut self,
            indices: &[usize],
            parent_impurity: f64,
        ) -> Option<(usize, f64, f64)> {
            let d = self.x.cols();
            if d == 0 {
                return None;
            }
            let k = self.cfg.max_features.resolve(d);
            let mut features: Vec<usize> = (0..d).collect();
            if k < d {
                features.shuffle(&mut self.rng);
                features.truncate(k);
            }

            let n = indices.len() as f64;
            let mut best: Option<(usize, f64, f64)> = None;
            // (value, y) pairs reused across features.
            let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(indices.len());

            for &f in &features {
                pairs.clear();
                pairs.extend(indices.iter().map(|&i| (self.x.get(i, f), self.y[i])));
                pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
                if pairs[0].0 == pairs[pairs.len() - 1].0 {
                    continue; // constant feature in this node
                }

                match self.task {
                    Task::Regression => {
                        let total_sum: f64 = pairs.iter().map(|p| p.1).sum();
                        let total_sq: f64 = pairs.iter().map(|p| p.1 * p.1).sum();
                        let mut left_sum = 0.0;
                        let mut left_sq = 0.0;
                        for split in 1..pairs.len() {
                            let (v_prev, y_prev) = pairs[split - 1];
                            left_sum += y_prev;
                            left_sq += y_prev * y_prev;
                            let v_cur = pairs[split].0;
                            if v_cur == v_prev {
                                continue;
                            }
                            let nl = split as f64;
                            let nr = n - nl;
                            if (split < self.cfg.min_samples_leaf)
                                || (pairs.len() - split < self.cfg.min_samples_leaf)
                            {
                                continue;
                            }
                            let var_l = left_sq / nl - (left_sum / nl).powi(2);
                            let right_sum = total_sum - left_sum;
                            let right_sq = total_sq - left_sq;
                            let var_r = right_sq / nr - (right_sum / nr).powi(2);
                            let gain = parent_impurity - (nl / n) * var_l - (nr / n) * var_r;
                            // Zero-gain splits are allowed on impure nodes (XOR
                            // needs them); ties keep the first candidate.
                            if best.is_none_or(|b| gain > b.2) && gain >= -1e-12 {
                                best = Some((f, (v_prev + v_cur) / 2.0, gain.max(0.0)));
                            }
                        }
                    }
                    Task::Classification { n_classes } => {
                        let mut total = vec![0usize; n_classes];
                        for p in pairs.iter() {
                            total[p.1 as usize] += 1;
                        }
                        let mut left = vec![0usize; n_classes];
                        for split in 1..pairs.len() {
                            let (v_prev, y_prev) = pairs[split - 1];
                            left[y_prev as usize] += 1;
                            let v_cur = pairs[split].0;
                            if v_cur == v_prev {
                                continue;
                            }
                            if (split < self.cfg.min_samples_leaf)
                                || (pairs.len() - split < self.cfg.min_samples_leaf)
                            {
                                continue;
                            }
                            let nl = split as f64;
                            let nr = n - nl;
                            let gini = |counts: &[usize], tot: f64| -> f64 {
                                1.0 - counts
                                    .iter()
                                    .map(|&c| (c as f64 / tot).powi(2))
                                    .sum::<f64>()
                            };
                            let gini_l = gini(&left, nl);
                            let right: Vec<usize> =
                                total.iter().zip(&left).map(|(t, l)| t - l).collect();
                            let gini_r = gini(&right, nr);
                            let gain = parent_impurity - (nl / n) * gini_l - (nr / n) * gini_r;
                            if best.is_none_or(|b| gain > b.2) && gain >= -1e-12 {
                                best = Some((f, (v_prev + v_cur) / 2.0, gain.max(0.0)));
                            }
                        }
                    }
                }
            }
            best
        }
    }

    /// Node-by-node bits — (feature or `usize::MAX` for a leaf, threshold
    /// or prediction bits, children) — and importance bits.
    pub(crate) type TreeBits = (Vec<(usize, u64, usize, usize)>, Vec<u64>);

    impl DecisionTree {
        pub(crate) fn bits(&self) -> TreeBits {
            let nodes = self
                .nodes
                .iter()
                .map(|node| match *node {
                    Node::Leaf { prediction } => (usize::MAX, prediction.to_bits(), 0, 0),
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => (feature, threshold.to_bits(), left, right),
                })
                .collect();
            (
                nodes,
                self.importances.iter().map(|v| v.to_bits()).collect(),
            )
        }
    }

    /// An `n × d` matrix whose columns cycle through continuous, binary,
    /// one-hot (three columns), 5-level and special-value (`±0.0`, `NaN`,
    /// `±inf`) kinds, with a regression or 3-class target driven by the
    /// first group of columns.
    pub(crate) fn mixed_case(n: usize, d: usize, task: Task, seed: u64) -> (Matrix, Vec<f64>) {
        use rand::Rng;
        const SPECIAL: [f64; 7] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -1.5,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, d);
        for r in 0..n {
            let hot = rng.gen_range(0..3);
            for c in 0..d {
                let v = match c % 7 {
                    0 => rng.gen_range(-3.0..3.0),
                    1 => rng.gen_range(0..2) as f64,
                    k @ 2..=4 => (k - 2 == hot) as u8 as f64,
                    5 => rng.gen_range(0..5) as f64,
                    _ => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                };
                x.set(r, c, v);
            }
        }
        let y = (0..n)
            .map(|r| {
                let at = |c: usize| if c < d { x.get(r, c) } else { 0.0 };
                let signal = at(0) + 2.0 * at(1) + at(3) - 0.5 * at(5);
                match task {
                    Task::Regression => signal + rng.gen_range(-0.5..0.5),
                    Task::Classification { n_classes } => {
                        let c = (signal + rng.gen_range(-1.0..1.0)).clamp(0.0, 2.99) as usize;
                        c.min(n_classes - 1) as f64
                    }
                }
            })
            .collect();
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TASKS: [Task; 2] = [Task::Regression, Task::Classification { n_classes: 3 }];

    #[test]
    fn presorted_search_matches_sort_per_node_oracle() {
        let shapes = [(40, 3), (120, 7), (300, 21), (300, 60)];
        let rules = [
            MaxFeatures::All,
            MaxFeatures::Sqrt,
            MaxFeatures::Third,
            MaxFeatures::Exact(4),
        ];
        let (mut root_presorts, mut root_sorts) = (0, 0);
        for (case, &(n, d)) in shapes.iter().enumerate() {
            for task in TASKS {
                let (x, y) = oracle::mixed_case(n, d, task, case as u64);
                for max_features in rules {
                    for min_samples_leaf in [1, 3] {
                        let cfg = TreeConfig {
                            max_depth: 12,
                            min_samples_split: 2,
                            min_samples_leaf,
                            max_features,
                            seed: 7 + case as u64,
                        };
                        if presort_pays(d, max_features.resolve(d), n) {
                            root_presorts += 1;
                        } else {
                            root_sorts += 1;
                        }
                        let tree = DecisionTree::fit_xy(&x, &y, task, &cfg).unwrap();
                        let oracle = oracle::fit_xy(&x, &y, task, &cfg);
                        assert!(tree.n_nodes() > 1, "{n}x{d} {task:?} {max_features:?}");
                        assert_eq!(
                            tree.bits(),
                            oracle.bits(),
                            "{n}x{d} {task:?} {max_features:?} min_samples_leaf={min_samples_leaf}"
                        );
                    }
                }
            }
        }
        // Presorted roots switch to sorting further down; sorted roots
        // never presort.
        assert!(root_presorts > 0 && root_sorts > 0);
    }

    #[test]
    fn rank_keys_follow_total_cmp() {
        let mut values = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
        ];
        let mut by_key = values.clone();
        values.sort_by(f64::total_cmp);
        by_key.sort_by_key(|&v| total_key(v));
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&by_key));

        let x = Matrix::from_rows(&[vec![1.0], vec![-0.0], vec![f64::NAN], vec![0.0], vec![1.0]])
            .unwrap();
        let ranks = Ranks::new(&x);
        assert_eq!(ranks.of(0), &[2, 0, 3, 1, 2]);
        assert_eq!(
            ranks.levels,
            vec![Levels {
                count: 4,
                nan_below: 0,
                nan_from: 3,
                pos_zero: 1
            }]
        );
        // -0.0 == +0.0 across ranks; NaN != NaN within one.
        let lv = ranks.levels[0];
        assert!(lv.equal(0, 1) && lv.equal(2, 2));
        assert!(!lv.equal(1, 2) && !lv.equal(3, 3));
        // Ties keep position order.
        assert_eq!(ranks.presort(&[0, 4, 1, 0, 2]), vec![2, 0, 1, 3, 4]);
    }

    #[test]
    fn row_capacity_is_checked_not_truncated() {
        assert!(check_row_capacity(u32::MAX as usize).is_ok());
        assert!(matches!(
            check_row_capacity(u32::MAX as usize + 1),
            Err(MlError::Invalid(_))
        ));
    }

    fn xor_dataset() -> Dataset {
        // XOR needs depth ≥ 2: not linearly separable.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.1, 0.1],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
            vec![0.9, 0.9],
        ])
        .unwrap();
        let y = vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0];
        Dataset::new(
            x,
            y,
            vec!["a".into(), "b".into()],
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    #[test]
    fn fits_xor() {
        let d = xor_dataset();
        let tree = DecisionTree::fit(&d, &TreeConfig::default()).unwrap();
        let preds = tree.predict(&d.x).unwrap();
        assert_eq!(preds, d.y, "tree should perfectly fit XOR");
        assert!(tree.n_nodes() >= 5);
    }

    #[test]
    fn regression_step_function() {
        let x = Matrix::from_rows(&[
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![10.0],
            vec![11.0],
            vec![12.0],
        ])
        .unwrap();
        let y = vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0];
        let tree = DecisionTree::fit_xy(&x, &y, Task::Regression, &TreeConfig::default()).unwrap();
        let test = Matrix::from_rows(&[vec![2.5], vec![11.5]]).unwrap();
        let p = tree.predict(&test).unwrap();
        assert!((p[0] - 1.0).abs() < 1e-9);
        assert!((p[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let d = xor_dataset();
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&d, &cfg).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        // Majority class of a balanced XOR set is class 0 (tie broken by max_by_key keeping last max? ensure deterministic)
        let p = tree.predict(&d.x).unwrap();
        assert!(p.iter().all(|&v| v == p[0]));
    }

    #[test]
    fn importances_focus_on_signal_feature() {
        // Feature 0 is pure signal, feature 1 is constant noise.
        let x = Matrix::from_rows(&[
            vec![0.0, 5.0],
            vec![1.0, 5.0],
            vec![0.0, 5.0],
            vec![1.0, 5.0],
        ])
        .unwrap();
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let tree = DecisionTree::fit_xy(
            &x,
            &y,
            Task::Classification { n_classes: 2 },
            &TreeConfig::default(),
        )
        .unwrap();
        assert!(tree.importances()[0] > 0.0);
        assert_eq!(tree.importances()[1], 0.0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let cfg = TreeConfig {
            min_samples_leaf: 3,
            ..Default::default()
        };
        let tree =
            DecisionTree::fit_xy(&x, &y, Task::Classification { n_classes: 2 }, &cfg).unwrap();
        // No split can give both children ≥ 3 samples with n=4.
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn shape_errors() {
        let x = Matrix::zeros(2, 2);
        assert!(
            DecisionTree::fit_xy(&x, &[0.0], Task::Regression, &TreeConfig::default()).is_err()
        );
        let tree = DecisionTree::fit_xy(&x, &[0.0, 1.0], Task::Regression, &TreeConfig::default())
            .unwrap();
        assert!(tree.predict(&Matrix::zeros(1, 3)).is_err());
        assert!(DecisionTree::fit_xy(
            &Matrix::zeros(0, 2),
            &[],
            Task::Regression,
            &TreeConfig::default()
        )
        .is_err());
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(100), 10);
        assert_eq!(MaxFeatures::Third.resolve(10), 4);
        assert_eq!(MaxFeatures::Exact(3).resolve(10), 3);
        assert_eq!(MaxFeatures::Exact(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Exact(0).resolve(10), 1);
    }

    #[test]
    fn feature_subsampling_is_deterministic_per_seed() {
        let d = xor_dataset();
        let cfg = TreeConfig {
            max_features: MaxFeatures::Exact(1),
            seed: 5,
            ..Default::default()
        };
        let t1 = DecisionTree::fit(&d, &cfg).unwrap();
        let t2 = DecisionTree::fit(&d, &cfg).unwrap();
        assert_eq!(t1.predict(&d.x).unwrap(), t2.predict(&d.x).unwrap());
    }
}
