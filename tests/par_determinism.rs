//! Parallel-vs-sequential determinism properties: every parallel hot path
//! in the workspace must produce output identical to its sequential run,
//! across random shapes, seeds and thread counts {1, 2, 8}.
//!
//! The `arda-par` primitives hand each worker contiguous, ordered chunks
//! and stitch results back in order, so these are *exact* equality
//! assertions (no tolerances). Kernel-level tests pin each width by running
//! under `with_ambient(&Budget::isolated(n), ..)`; tests that exercise
//! whole stages flip the global default with `set_default_threads`, which
//! is safe to do concurrently precisely because of the property under test
//! — results do not depend on the thread count.

use arda::linalg::Matrix;
use arda::prelude::*;
use arda_par::{set_default_threads, with_ambient, Budget};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Run `f` with the ambient work budget pinned to `threads`.
fn at<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    with_ambient(&Budget::isolated(threads), f)
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, sparse: bool) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if sparse && rng.gen_bool(0.4) {
                0.0
            } else {
                rng.gen_range(-5.0..5.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// Naive i-k-j reference product, independent of the library kernels.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + av * b.get(k, j));
            }
        }
    }
    out
}

#[test]
fn blocked_matmul_matches_reference_across_shapes_and_threads() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.gen_range(1usize..90);
        let k = rng.gen_range(1usize..300);
        let m = rng.gen_range(1usize..90);
        let a = random_matrix(&mut rng, n, k, case % 2 == 0);
        let b = random_matrix(&mut rng, k, m, case % 3 == 0);
        let expect = reference_matmul(&a, &b);
        for threads in THREAD_COUNTS {
            let got = at(threads, || a.matmul(&b)).unwrap();
            assert_eq!(
                got.data(),
                expect.data(),
                "case {case}: {n}x{k} * {k}x{m} at {threads} threads"
            );
        }
    }
}

#[test]
fn gram_matches_transpose_product_across_shapes_and_threads() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(100 + case);
        let n = rng.gen_range(1usize..400);
        let d = rng.gen_range(1usize..60);
        let x = random_matrix(&mut rng, n, d, case % 2 == 0);
        let (sequential, transposed) = at(1, || (x.gram(), x.transpose()));
        // Mathematical oracle (different accumulation order → tolerance).
        let explicit = reference_matmul(&transposed, &x);
        for (g, e) in sequential.data().iter().zip(explicit.data()) {
            assert!(
                (g - e).abs() < 1e-9 * (1.0 + e.abs()),
                "case {case}: gram vs XᵀX"
            );
        }
        for threads in THREAD_COUNTS {
            let (gram, transpose) = at(threads, || (x.gram(), x.transpose()));
            assert_eq!(
                gram.data(),
                sequential.data(),
                "case {case}: gram {n}x{d} at {threads} threads"
            );
            assert_eq!(
                transpose.data(),
                transposed.data(),
                "case {case}: transpose {n}x{d} at {threads} threads"
            );
        }
    }
}

/// Soft joins run their row scans in parallel above an internal row
/// threshold read from the global default worker count; results must be
/// identical at every count.
#[test]
fn soft_joins_identical_across_thread_counts() {
    for case in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(200 + case);
        let n_base = 6_000;
        let n_foreign = 500;
        let base = Table::new(
            "b",
            vec![Column::from_i64(
                "k",
                (0..n_base)
                    .map(|_| rng.gen_range(-10_000i64..10_000))
                    .collect(),
            )],
        )
        .unwrap();
        let foreign = Table::new(
            "f",
            vec![
                Column::from_i64(
                    "k",
                    (0..n_foreign)
                        .map(|_| rng.gen_range(-10_000i64..10_000))
                        .collect(),
                ),
                Column::from_f64(
                    "v",
                    (0..n_foreign).map(|_| rng.gen_range(-3.0..3.0)).collect(),
                ),
                Column::from_str(
                    "c",
                    (0..n_foreign)
                        .map(|i| if i % 2 == 0 { "even" } else { "odd" })
                        .collect(),
                ),
            ],
        )
        .unwrap();

        let nearest = JoinSpec::soft(
            "k",
            "k",
            SoftMethod::Nearest {
                tolerance: Some(40.0),
            },
        );
        let two_way = JoinSpec::soft("k", "k", SoftMethod::TwoWayNearest);
        let mut reference: Option<(Table, Table)> = None;
        for threads in THREAD_COUNTS {
            set_default_threads(threads);
            let a = execute_join(&base, &foreign, &nearest, case).unwrap();
            let b = execute_join(&base, &foreign, &two_way, case).unwrap();
            match &reference {
                None => reference = Some((a, b)),
                Some((ra, rb)) => {
                    assert_eq!(&a, ra, "case {case}: nearest join at {threads} threads");
                    assert_eq!(&b, rb, "case {case}: two-way join at {threads} threads");
                }
            }
        }
    }
}

/// One forest-determinism case: a classification set with a signal column
/// and two noise columns, or a regression set with heavily tied columns
/// (binary, 5-level, one-hot) next to continuous signal and noise.
fn forest_case(task: Task, case: u64) -> (Matrix, Vec<f64>) {
    let n = 240;
    match task {
        Task::Classification { .. } => {
            let mut rng = StdRng::seed_from_u64(300 + case);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let cls = (i % 2) as f64;
                    vec![
                        cls * 2.0 + rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ]
                })
                .collect();
            let y = (0..n).map(|i| (i % 2) as f64).collect();
            (Matrix::from_rows(&rows).unwrap(), y)
        }
        Task::Regression => {
            let mut rng = StdRng::seed_from_u64(310 + case);
            let mut y = Vec::with_capacity(n);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let signal: f64 = rng.gen_range(0.0..4.0);
                    let flag = rng.gen_range(0..2) as f64;
                    let level = rng.gen_range(0..5) as f64;
                    let hot = rng.gen_range(0..3);
                    y.push(signal + 2.0 * flag - 0.5 * level + rng.gen_range(-0.3..0.3));
                    vec![
                        signal,
                        flag,
                        level,
                        (hot == 0) as u8 as f64,
                        (hot == 1) as u8 as f64,
                        (hot == 2) as u8 as f64,
                        rng.gen_range(-1.0..1.0),
                    ]
                })
                .collect();
            (Matrix::from_rows(&rows).unwrap(), y)
        }
    }
}

/// FNV-1a over the bit patterns of `values`, continuing from `hash`.
fn fnv1a(hash: u64, values: &[f64]) -> u64 {
    values.iter().fold(hash, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

#[test]
fn forest_fit_identical_across_thread_counts() {
    // Golden fingerprints of every case's predictions and importances,
    // recorded with the original sort-per-node split search: a split-search
    // change that moves one bit of one tree fails here.
    let goldens = [
        (Task::Classification { n_classes: 2 }, 0xa42f_a248_4025_ec90),
        (Task::Regression, 0x2fd0_8733_f1b6_c526),
    ];
    for (task, golden) in goldens {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for case in 0..3u64 {
            let (x, y) = forest_case(task, case);
            let mut reference: Option<(Vec<f64>, Vec<f64>)> = None;
            for threads in THREAD_COUNTS {
                let cfg = arda::ml::ForestConfig {
                    n_trees: 12,
                    seed: case,
                    ..Default::default()
                };
                let rf = at(threads, || {
                    arda::ml::RandomForest::fit_xy(&x, &y, task, &cfg)
                })
                .unwrap();
                let got = (rf.predict(&x).unwrap(), rf.importances().to_vec());
                match &reference {
                    None => reference = Some(got),
                    Some(r) => {
                        assert_eq!(&got, r, "{task:?} case {case}: forest at {threads} threads")
                    }
                }
            }
            let (preds, importances) = reference.unwrap();
            hash = fnv1a(fnv1a(hash, &preds), &importances);
        }
        assert_eq!(
            hash, golden,
            "{task:?}: forest fingerprint drifted ({hash:#018x})"
        );
    }
}

#[test]
fn featurize_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(400);
    let n = 4_000;
    let cats = ["a", "b", "c", "d", "e"];
    let t = Table::new(
        "t",
        vec![
            Column::from_f64_opt(
                "num",
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.1) {
                            None
                        } else {
                            Some(rng.gen_range(-9.0..9.0))
                        }
                    })
                    .collect(),
            ),
            Column::from_str(
                "cat",
                (0..n).map(|_| cats[rng.gen_range(0..cats.len())]).collect(),
            ),
            Column::from_i64("count", (0..n).map(|_| rng.gen_range(0i64..50)).collect()),
            Column::from_f64("target", (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()),
        ],
    )
    .unwrap();
    let mut reference: Option<Dataset> = None;
    for threads in THREAD_COUNTS {
        set_default_threads(threads);
        let d = featurize(&t, "target", false, &FeaturizeOptions::default()).unwrap();
        match &reference {
            None => reference = Some(d),
            Some(r) => {
                assert_eq!(d.feature_names, r.feature_names, "{threads} threads");
                assert_eq!(d.x.data(), r.x.data(), "{threads} threads");
                assert_eq!(d.y, r.y, "{threads} threads");
            }
        }
    }
}

#[test]
fn rifs_fractions_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(500);
    let n = 120;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let cls = (i % 2) as f64;
            let mut row = vec![cls * 3.0 + rng.gen_range(-0.4..0.4)];
            for _ in 0..5 {
                row.push(rng.gen_range(-1.0..1.0));
            }
            row
        })
        .collect();
    let ds = Dataset::new(
        Matrix::from_rows(&rows).unwrap(),
        (0..n).map(|i| (i % 2) as f64).collect(),
        (0..6).map(|i| format!("f{i}")).collect(),
        Task::Classification { n_classes: 2 },
    )
    .unwrap();
    let cfg = RifsConfig {
        repeats: 4,
        rf_trees: 8,
        ..Default::default()
    };
    let mut reference: Option<Vec<f64>> = None;
    for threads in THREAD_COUNTS {
        set_default_threads(threads);
        let fr = arda::select::rifs_fractions(&ds, &cfg, 7).unwrap();
        match &reference {
            None => reference = Some(fr),
            Some(r) => assert_eq!(&fr, r, "{threads} threads"),
        }
    }
}

/// The full pipeline — coreset, parallel batch joins, imputation, parallel
/// featurization, RIFS, final estimate — is deterministic in the seed at
/// any worker count.
#[test]
fn pipeline_identical_across_thread_counts() {
    let sc = arda::synth::taxi(&ScenarioConfig {
        n_rows: 140,
        n_decoys: 3,
        seed: 11,
    });
    let repo = Repository::from_tables(sc.repository.clone());
    let config = ArdaConfig {
        selector: SelectorKind::Rifs(RifsConfig {
            repeats: 3,
            rf_trees: 8,
            ..Default::default()
        }),
        seed: 11,
        ..Default::default()
    };
    let mut reference: Option<(f64, f64, Vec<String>)> = None;
    for threads in THREAD_COUNTS {
        set_default_threads(threads);
        let report = Arda::new(config.clone())
            .run(&sc.base, &repo, &sc.target)
            .unwrap();
        let got = (
            report.base_score,
            report.augmented_score,
            report
                .selected
                .iter()
                .map(|s| format!("{}.{}", s.table, s.column))
                .collect(),
        );
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{threads} threads"),
        }
    }
}
