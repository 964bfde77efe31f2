//! Micro-benchmarks of the performance-critical primitives: CSV decoding of
//! lake-shaped shards, hard/soft join throughput, group-by
//! pre-aggregation, OSNAP sketching, the ℓ2,1 IRLS solver, random-forest
//! fitting (classification, and regression at a RIFS round's shape) and
//! RIFS fractions.
//!
//! Runs under `cargo bench -p arda-bench` with the in-repo timing harness
//! (`harness = false`; the build is offline, so no criterion). End-to-end
//! augmentation runs with per-stage timings are measured by `ardabench`.

use arda_bench::timing::{print_measurements, time_op, Measurement};
use arda_bench::{bench_rifs, Scale};
use arda_coreset::sketch_xy;
use arda_join::{execute_join, JoinSpec, SoftMethod};
use arda_linalg::{stats::standardize_columns, Matrix};
use arda_ml::{Dataset, ForestConfig, RandomForest, Task};
use arda_par::{with_ambient, Budget};
use arda_select::rifs_fractions;
use arda_select::sparse_regression::{l21_solve, target_matrix, L21Config};
use arda_synth::{school, taxi, ScenarioConfig};
use arda_table::{read_csv_str, write_csv, Column, GroupBy, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const WINDOW_SECS: f64 = 0.3;

fn tables(n_base: usize, n_foreign: usize) -> (Table, Table) {
    let mut rng = StdRng::seed_from_u64(0);
    let base = Table::new(
        "base",
        vec![
            Column::from_i64("k", (0..n_base).map(|i| (i % 500) as i64).collect()),
            Column::from_f64("v", (0..n_base).map(|_| rng.gen()).collect()),
        ],
    )
    .unwrap();
    let foreign = Table::new(
        "foreign",
        vec![
            Column::from_i64("k", (0..n_foreign).map(|i| i as i64).collect()),
            Column::from_f64("a", (0..n_foreign).map(|_| rng.gen()).collect()),
            Column::from_f64("b", (0..n_foreign).map(|_| rng.gen()).collect()),
        ],
    )
    .unwrap();
    (base, foreign)
}

/// Decode 32 shards of a 1000-row school lake (an Int key plus mixed
/// Float/Int/Str decoy columns, as `write_csv` writes them) from memory on
/// a one-wide budget, and print the decode rate in rows per second.
fn bench_csv_decode(out: &mut Vec<Measurement>) {
    let lake = school(
        &ScenarioConfig {
            n_rows: 1000,
            n_decoys: 348,
            seed: 8,
        },
        true,
    );
    let shards: Vec<String> = lake.repository[..32]
        .iter()
        .map(|t| {
            let mut buf = Vec::new();
            write_csv(t, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        })
        .collect();
    let rows: usize = lake.repository[..32].iter().map(Table::n_rows).sum();
    let m = with_ambient(&Budget::isolated(1), || {
        time_op("csv_decode_32_lake_shards_budget1", WINDOW_SECS, || {
            for text in &shards {
                black_box(read_csv_str("shard", text).unwrap());
            }
        })
    });
    println!(
        "csv_decode_32_lake_shards_budget1: {rows} rows, {:.0} rows/s",
        rows as f64 * m.ops_per_sec
    );
    out.push(m);
}

fn bench_joins(out: &mut Vec<Measurement>) {
    let (base, foreign) = tables(2_000, 500);
    out.push(time_op("hard_join_2k_x_500", WINDOW_SECS, || {
        black_box(execute_join(&base, &foreign, &JoinSpec::hard("k", "k"), 0).unwrap());
    }));
    let spec = JoinSpec::soft("k", "k", SoftMethod::TwoWayNearest);
    out.push(time_op("soft_2way_join_2k_x_500", WINDOW_SECS, || {
        black_box(execute_join(&base, &foreign, &spec, 0).unwrap());
    }));
}

fn bench_groupby(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(1);
    let t = Table::new(
        "t",
        vec![
            Column::from_i64("k", (0..5_000).map(|i| (i % 200) as i64).collect()),
            Column::from_f64("v", (0..5_000).map(|_| rng.gen()).collect()),
        ],
    )
    .unwrap();
    out.push(time_op(
        "groupby_aggregate_5k_rows_200_groups",
        WINDOW_SECS,
        || {
            black_box(
                GroupBy::new(&t, &["k"])
                    .unwrap()
                    .aggregate_default()
                    .unwrap(),
            );
        },
    ));
}

fn bench_sketch(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = Matrix::from_vec(
        2_000,
        50,
        (0..2_000 * 50).map(|_| rng.gen::<f64>()).collect(),
    )
    .unwrap();
    let y: Vec<f64> = (0..2_000).map(|_| rng.gen()).collect();
    out.push(time_op("osnap_sketch_2000x50_to_200", WINDOW_SECS, || {
        black_box(sketch_xy(&x, &y, false, 200, 0));
    }));
}

fn bench_l21(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut x = Matrix::from_vec(
        400,
        60,
        (0..400 * 60).map(|_| rng.gen::<f64>() - 0.5).collect(),
    )
    .unwrap();
    standardize_columns(&mut x);
    let y: Vec<f64> = (0..400).map(|i| x.get(i, 0) * 3.0 - x.get(i, 1)).collect();
    let ym = target_matrix(&y, Task::Regression);
    let cfg = L21Config {
        max_iter: 10,
        ..Default::default()
    };
    out.push(time_op("l21_irls_400x60_10iter", WINDOW_SECS, || {
        black_box(l21_solve(&x, &ym, &cfg).unwrap());
    }));
}

fn bench_forest(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(4);
    let rows: Vec<Vec<f64>> = (0..500)
        .map(|i| {
            let cls = (i % 2) as f64;
            (0..20)
                .map(|f| {
                    if f == 0 {
                        cls * 2.0 + rng.gen::<f64>()
                    } else {
                        rng.gen()
                    }
                })
                .collect()
        })
        .collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let y: Vec<f64> = (0..500).map(|i| (i % 2) as f64).collect();
    let cfg = ForestConfig {
        n_trees: 32,
        max_depth: 10,
        ..Default::default()
    };
    out.push(time_op(
        "random_forest_fit_500x20_32trees",
        WINDOW_SECS,
        || {
            black_box(
                RandomForest::fit_xy(&x, &y, Task::Classification { n_classes: 2 }, &cfg).unwrap(),
            );
        },
    ));
}

/// A regression forest at the shape of a RIFS injection round (about
/// 1500 rows × 216 features, 24 trees of depth 10): continuous signal and
/// noise columns next to binary ones, so fits run the presorted split
/// search with ties.
fn bench_forest_regression(out: &mut Vec<Measurement>) {
    let (n, d) = (1500, 216);
    let mut rng = StdRng::seed_from_u64(7);
    let data: Vec<f64> = (0..n * d)
        .map(|i| {
            if i % d % 4 == 3 {
                rng.gen_range(0..2) as f64
            } else {
                rng.gen::<f64>()
            }
        })
        .collect();
    let x = Matrix::from_vec(n, d, data).unwrap();
    let y: Vec<f64> = (0..n)
        .map(|r| (0..8).map(|c| x.get(r, c) * (c + 1) as f64).sum::<f64>() + rng.gen::<f64>())
        .collect();
    let cfg = ForestConfig {
        n_trees: 24,
        max_depth: 10,
        ..Default::default()
    };
    out.push(time_op(
        "random_forest_fit_1500x216_24trees_reg",
        WINDOW_SECS,
        || {
            black_box(RandomForest::fit_xy(&x, &y, Task::Regression, &cfg).unwrap());
        },
    ));
}

fn bench_rifs_fractions(out: &mut Vec<Measurement>) {
    let mut rng = StdRng::seed_from_u64(5);
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            let cls = (i % 2) as f64;
            (0..15)
                .map(|f| {
                    if f < 2 {
                        cls * 2.0 + rng.gen::<f64>()
                    } else {
                        rng.gen()
                    }
                })
                .collect()
        })
        .collect();
    let ds = Dataset::new(
        Matrix::from_rows(&rows).unwrap(),
        (0..200).map(|i| (i % 2) as f64).collect(),
        (0..15).map(|i| format!("f{i}")).collect(),
        Task::Classification { n_classes: 2 },
    )
    .unwrap();
    let mut cfg = bench_rifs(Scale::Quick);
    cfg.repeats = 3;
    out.push(time_op("rifs_fractions_200x15_3rep", WINDOW_SECS, || {
        black_box(rifs_fractions(&ds, &cfg, 0).unwrap());
    }));
}

fn bench_pipeline(out: &mut Vec<Measurement>) {
    let sc = taxi(&ScenarioConfig {
        n_rows: 120,
        n_decoys: 3,
        seed: 6,
    });
    let repo = arda_discovery::Repository::from_tables(sc.repository.clone());
    let config = arda_core::ArdaConfig {
        selector: arda_select::SelectorKind::Ranking(arda_select::RankingMethod::RandomForest),
        ..Default::default()
    };
    out.push(time_op(
        "pipeline_taxi_120rows_5tables_rf_selector",
        WINDOW_SECS,
        || {
            black_box(
                arda_core::Arda::new(config.clone())
                    .run(&sc.base, &repo, &sc.target)
                    .unwrap(),
            );
        },
    ));
}

fn main() {
    let mut results = Vec::new();
    bench_csv_decode(&mut results);
    bench_joins(&mut results);
    bench_groupby(&mut results);
    bench_sketch(&mut results);
    bench_l21(&mut results);
    bench_forest(&mut results);
    bench_forest_regression(&mut results);
    bench_rifs_fractions(&mut results);
    bench_pipeline(&mut results);
    print_measurements(
        &format!("micro benchmarks ({} threads)", arda_par::default_threads()),
        &results,
    );
}
