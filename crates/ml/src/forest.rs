//! Random forests: bootstrap-bagged CART trees fitted in parallel, with
//! impurity-based feature importances.
//!
//! ARDA uses Random Forests both as its default estimator ("lightly
//! auto-optimized Random Forest", §7) and as one of the two RIFS ranking
//! models (§6.2); the importances exposed here drive those rankings.
//!
//! A fit ranks `x`'s rows once per feature ([`crate::tree`]'s `Ranks`,
//! `u32`, shared read-only by every tree) and grows each tree directly on
//! its bootstrap row indices: no tree copies the sampled rows of `x`. Each
//! tree counting-sorts its sample positions by those ranks and splits
//! without sorting floats, and the trees are bit-identical to fitting plain
//! sort-per-node CART on a `select_rows` copy of the bootstrap sample (the
//! `cfg(test)` oracle checks this tree by tree). Training sets are limited
//! to `u32::MAX` rows; larger ones are rejected, not truncated.

use crate::tree::{check_row_capacity, DecisionTree, MaxFeatures, Ranks, TreeConfig};
use crate::{Dataset, MlError, Result, Task};
use arda_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row·tree product below which `predict` stays sequential.
const PAR_MIN_PREDICTIONS: usize = 1 << 12;

/// Forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub max_depth: usize,
    /// Minimum samples to split a node.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Feature subsampling (`None` → √d for classification, d/3 for
    /// regression, the standard defaults).
    pub max_features: Option<MaxFeatures>,
    /// Bootstrap sample rows per tree.
    pub bootstrap: bool,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 64,
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            bootstrap: true,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    task: Task,
    importances: Vec<f64>,
}

impl RandomForest {
    /// Fit on a [`Dataset`].
    pub fn fit(data: &Dataset, cfg: &ForestConfig) -> Result<Self> {
        Self::fit_xy(&data.x, &data.y, data.task, cfg)
    }

    /// Fit from raw matrix/labels.
    pub fn fit_xy(x: &Matrix, y: &[f64], task: Task, cfg: &ForestConfig) -> Result<Self> {
        if x.rows() == 0 || cfg.n_trees == 0 {
            return Err(MlError::Invalid("empty training set or zero trees".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch(format!(
                "{} rows vs {} labels",
                x.rows(),
                y.len()
            )));
        }
        check_row_capacity(x.rows())?;
        let max_features = cfg.max_features.unwrap_or(match task {
            Task::Classification { .. } => MaxFeatures::Sqrt,
            Task::Regression => MaxFeatures::Third,
        });
        let ranks = Ranks::new(x);
        // Every tree is fully determined by its pre-drawn (seed, rows) job,
        // so `par_map`'s ordered results are identical at any work-budget
        // size; the fit runs on the ambient budget (`ARDA_THREADS` at top
        // level, the stage's split when nested) and each tree plans with
        // its split of it, so nesting a fit under RIFS rounds or the
        // τ-sweep cannot oversubscribe.
        let trees: Vec<DecisionTree> =
            arda_par::par_map(&draw_jobs(cfg, x.rows()), 0, |_, (seed, rows)| {
                DecisionTree::grow(x, y, &ranks, rows, task, &cfg.tree(max_features, *seed))
            });
        let importances = mean_importances(&trees, x.cols());

        Ok(RandomForest {
            trees,
            task,
            importances,
        })
    }

    /// Predict rows of `x` (majority vote / mean over trees), fanning out
    /// over trees for prediction workloads large enough to amortise the
    /// thread spawn.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let threads = arda_par::threads_for(x.rows() * self.trees.len(), PAR_MIN_PREDICTIONS);
        let per_tree: Vec<Vec<f64>> = arda_par::par_map(&self.trees, threads, |_, t| t.predict(x))
            .into_iter()
            .collect::<Result<_>>()?;
        let n = x.rows();
        match self.task {
            Task::Regression => {
                let mut out = vec![0.0; n];
                for preds in &per_tree {
                    for (o, p) in out.iter_mut().zip(preds) {
                        *o += p;
                    }
                }
                out.iter_mut().for_each(|o| *o /= self.trees.len() as f64);
                Ok(out)
            }
            Task::Classification { n_classes } => {
                let mut votes = vec![vec![0usize; n_classes]; n];
                for preds in &per_tree {
                    for (row_votes, &p) in votes.iter_mut().zip(preds) {
                        let c = (p as usize).min(n_classes.saturating_sub(1));
                        row_votes[c] += 1;
                    }
                }
                Ok(votes
                    .into_iter()
                    .map(|v| {
                        v.iter()
                            .enumerate()
                            .max_by_key(|(_, &c)| c)
                            .map(|(k, _)| k as f64)
                            .unwrap_or(0.0)
                    })
                    .collect())
            }
        }
    }

    /// Normalised mean-impurity-decrease importances.
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Task the forest was trained for.
    pub fn task(&self) -> Task {
        self.task
    }
}

impl ForestConfig {
    /// The growth parameters of one tree.
    fn tree(&self, max_features: MaxFeatures, seed: u64) -> TreeConfig {
        TreeConfig {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_split,
            min_samples_leaf: self.min_samples_leaf,
            max_features,
            seed,
        }
    }
}

/// Each tree's (seed, sample rows), pre-drawn so results are independent
/// of thread scheduling.
fn draw_jobs(cfg: &ForestConfig, n: usize) -> Vec<(u64, Vec<usize>)> {
    let mut master = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.n_trees)
        .map(|_| {
            let seed: u64 = master.gen();
            let rows: Vec<usize> = if cfg.bootstrap {
                let mut r = StdRng::seed_from_u64(seed ^ 0xB00157);
                (0..n).map(|_| r.gen_range(0..n)).collect()
            } else {
                (0..n).collect()
            };
            (seed, rows)
        })
        .collect()
}

/// Mean impurity decrease over `trees`, normalised to sum to 1 (when
/// non-zero).
fn mean_importances(trees: &[DecisionTree], d: usize) -> Vec<f64> {
    let mut importances = vec![0.0; d];
    for t in trees {
        for (acc, v) in importances.iter_mut().zip(t.importances()) {
            *acc += v;
        }
    }
    let total: f64 = importances.iter().sum();
    if total > 0.0 {
        importances.iter_mut().for_each(|v| *v /= total);
    }
    importances
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn classification_blob(n: usize, seed: u64) -> Dataset {
        // Two Gaussian-ish blobs separated on feature 0; feature 1 is noise.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = (i % 2) as f64;
            let center = if cls == 0.0 { -2.0 } else { 2.0 };
            rows.push(vec![
                center + rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ]);
            y.push(cls);
        }
        Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            y,
            vec!["signal".into(), "noise".into()],
            Task::Classification { n_classes: 2 },
        )
        .unwrap()
    }

    #[test]
    fn separable_blobs_fit_perfectly() {
        let d = classification_blob(200, 1);
        let rf = RandomForest::fit(
            &d,
            &ForestConfig {
                n_trees: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let preds = rf.predict(&d.x).unwrap();
        let correct = preds.iter().zip(&d.y).filter(|(p, y)| p == y).count();
        assert!(correct as f64 / d.n_samples() as f64 > 0.97);
        assert_eq!(rf.n_trees(), 16);
    }

    #[test]
    fn importances_identify_signal() {
        let d = classification_blob(300, 2);
        let rf = RandomForest::fit(
            &d,
            &ForestConfig {
                n_trees: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let imp = rf.importances();
        assert!(imp[0] > imp[1] * 3.0, "signal {} noise {}", imp[0], imp[1]);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_recovers_linear_trend() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..300).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let rf = RandomForest::fit_xy(
            &x,
            &y,
            Task::Regression,
            &ForestConfig {
                n_trees: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let test = Matrix::from_rows(&[vec![5.0]]).unwrap();
        let p = rf.predict(&test).unwrap()[0];
        assert!((p - 15.0).abs() < 2.0, "prediction {p}");
    }

    #[test]
    fn deterministic_given_seed_regardless_of_threads() {
        let d = classification_blob(120, 4);
        let cfg = ForestConfig {
            n_trees: 8,
            seed: 9,
            ..Default::default()
        };
        let fit_at = |width: usize| {
            arda_par::with_ambient(&arda_par::Budget::isolated(width), || {
                RandomForest::fit(&d, &cfg).unwrap()
            })
        };
        let (rf1, rf2) = (fit_at(1), fit_at(4));
        assert_eq!(rf1.predict(&d.x).unwrap(), rf2.predict(&d.x).unwrap());
        assert_eq!(rf1.importances(), rf2.importances());
    }

    #[test]
    fn bootstrap_trees_match_sort_per_node_oracle_across_budgets() {
        use crate::tree::oracle;
        // √d classification at 300×60 sorts from the root; d/3 regression
        // and `Exact(4)` at 300×21 presort and switch to sorting mid-tree.
        let cases = [
            (
                Task::Classification { n_classes: 3 },
                60,
                MaxFeatures::Sqrt,
                1,
            ),
            (
                Task::Classification { n_classes: 3 },
                21,
                MaxFeatures::All,
                2,
            ),
            (Task::Regression, 21, MaxFeatures::Third, 1),
            (Task::Regression, 60, MaxFeatures::Exact(4), 3),
        ];
        for (case, &(task, d, max_features, min_samples_leaf)) in cases.iter().enumerate() {
            let (x, y) = oracle::mixed_case(300, d, task, 40 + case as u64);
            let cfg = ForestConfig {
                n_trees: 6,
                max_depth: 10,
                min_samples_leaf,
                max_features: Some(max_features),
                seed: case as u64,
                ..Default::default()
            };
            let oracle_trees: Vec<DecisionTree> = draw_jobs(&cfg, x.rows())
                .iter()
                .map(|(seed, rows)| {
                    let ys: Vec<f64> = rows.iter().map(|&r| y[r]).collect();
                    let xs = x.select_rows(rows).unwrap();
                    oracle::fit_xy(&xs, &ys, task, &cfg.tree(max_features, *seed))
                })
                .collect();
            let oracle_importances: Vec<u64> = mean_importances(&oracle_trees, d)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for width in [1, 2, 8] {
                let rf = arda_par::with_ambient(&arda_par::Budget::isolated(width), || {
                    RandomForest::fit_xy(&x, &y, task, &cfg).unwrap()
                });
                for (t, (tree, oracle)) in rf.trees.iter().zip(&oracle_trees).enumerate() {
                    assert_eq!(
                        tree.bits(),
                        oracle.bits(),
                        "case {case} tree {t} width {width}"
                    );
                }
                let importances: Vec<u64> = rf.importances().iter().map(|v| v.to_bits()).collect();
                assert_eq!(importances, oracle_importances, "case {case} width {width}");
            }
        }
    }

    #[test]
    fn errors_on_bad_input() {
        let d = classification_blob(10, 5);
        assert!(RandomForest::fit(
            &d,
            &ForestConfig {
                n_trees: 0,
                ..Default::default()
            }
        )
        .is_err());
        let rf = RandomForest::fit(
            &d,
            &ForestConfig {
                n_trees: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rf.predict(&Matrix::zeros(1, 7)).is_err());
    }
}
