//! The Tuple-Ratio (TR) prefilter decides from the foreign-key domain
//! sizes discovery records on each candidate, so it never loads a table:
//! the recorded sizes must equal `join_stats` over the loaded tables on
//! every store and budget, an eliminated table's shard must not be needed
//! again after discovery, and the rule must cut joins without costing
//! score (the paper's Table 4).

use arda::join::stats::join_stats;
use arda::prelude::*;
use arda::select::{tuple_ratio_filter, TupleRatioDecision};
use arda::synth::{school, taxi};
use arda_par::{with_ambient, Budget};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arda_tr_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_csv_shards(dir: &Path, tables: &[Table]) {
    std::fs::create_dir_all(dir).unwrap();
    for t in tables {
        let f = std::fs::File::create(dir.join(format!("{}.csv", t.name()))).unwrap();
        arda::table::write_csv(t, f).unwrap();
    }
}

fn fast_config(seed: u64) -> ArdaConfig {
    ArdaConfig {
        selector: SelectorKind::Rifs(RifsConfig {
            repeats: 4,
            rf_trees: 12,
            ..Default::default()
        }),
        seed,
        ..Default::default()
    }
}

/// A regression base keyed by `id` with a target driven by the `signal`
/// table, plus `coarse_*` tables whose `id` column holds only 10 distinct
/// keys: at τ = 2 their tuple ratio (200 / 10) eliminates them.
fn coarse_scenario() -> (Table, Vec<Table>) {
    let n = 200i64;
    let signal: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 / 10.0).collect();
    let base = Table::new(
        "base",
        vec![
            Column::from_i64("id", (0..n).collect()),
            Column::from_f64("x", (0..n).map(|i| ((i * 13) % 7) as f64).collect()),
            Column::from_f64(
                "y",
                (0..n as usize)
                    .map(|i| 2.0 * signal[i] + ((i * 13) % 7) as f64 * 0.1)
                    .collect(),
            ),
        ],
    )
    .unwrap();
    let mut repo = vec![Table::new(
        "signal",
        vec![
            Column::from_i64("id", (0..n).collect()),
            Column::from_f64("s", signal),
        ],
    )
    .unwrap()];
    for k in 0..4i64 {
        repo.push(
            Table::new(
                format!("coarse_{k}"),
                vec![
                    Column::from_i64("id", (0..60).map(|i| i % 10).collect()),
                    Column::from_f64("v", (0..60).map(|i| ((i * (k + 3)) % 11) as f64).collect()),
                ],
            )
            .unwrap(),
        );
    }
    (base, repo)
}

fn assert_same_report(a: &AugmentationReport, b: &AugmentationReport) {
    assert_eq!(a.augmented, b.augmented);
    assert_eq!(a.selected, b.selected);
    assert_eq!(a.base_score.to_bits(), b.base_score.to_bits());
    assert_eq!(a.augmented_score.to_bits(), b.augmented_score.to_bits());
    assert_eq!(a.best_estimator, b.best_estimator);
    assert_eq!(a.joins_executed, b.joins_executed);
    assert_eq!(a.tr_eliminated, b.tr_eliminated);
}

/// With TR on, `augment` reads only the shards of candidates that survive
/// it. Deleting every eliminated table's shard after discovery (under a
/// one-shard cache, so none stays resident) must not change the run.
#[test]
fn tr_prefilter_never_loads_eliminated_tables() {
    let (base, tables) = coarse_scenario();
    let intact = scratch_dir("intact");
    let pruned = scratch_dir("pruned");
    write_csv_shards(&intact, &tables);
    write_csv_shards(&pruned, &tables);

    let tau = 2.0;
    let mut cfg = fast_config(5);
    cfg.tr_threshold = Some(tau);
    let arda = Arda::new(cfg.clone());

    let repo = Repository::from_dir(&pruned)
        .unwrap()
        .with_cache_capacity(1);
    let candidates = discover_joins(&base, &repo, &cfg.discovery).unwrap();
    let (mut deleted, mut eliminated) = (0, 0);
    for t in 0..repo.len() {
        let cands: Vec<&CandidateJoin> = candidates.iter().filter(|c| c.table_index == t).collect();
        assert!(!cands.is_empty(), "every table is a candidate");
        let all_eliminated = cands.iter().all(|c| {
            tuple_ratio_filter(base.n_rows(), c.foreign_distinct, tau)
                == TupleRatioDecision::Eliminate
        });
        let name = repo.name(t).unwrap().to_string();
        assert_eq!(all_eliminated, name.starts_with("coarse_"), "{name}");
        if all_eliminated {
            std::fs::remove_file(pruned.join(format!("{name}.csv"))).unwrap();
            deleted += 1;
            eliminated += cands.len();
        }
    }
    assert_eq!(deleted, 4);
    assert!(repo.resident_shards() <= 1);

    let got = arda.augment(&base, &repo, &candidates, "y").unwrap();
    let reference = arda
        .run(
            &base,
            &Repository::from_dir(&intact)
                .unwrap()
                .with_cache_capacity(1),
            "y",
        )
        .unwrap();
    assert_eq!(got.tr_eliminated, eliminated);
    assert_eq!(got.joins_executed, candidates.len() - eliminated);
    assert_same_report(&got, &reference);

    std::fs::remove_dir_all(&intact).ok();
    std::fs::remove_dir_all(&pruned).ok();
}

/// Every candidate's recorded `foreign_distinct` is `join_stats` over the
/// loaded tables, for eager, CSV-sharded and `.arda`-sharded repositories
/// (hard, soft, Int, Str and Timestamp keys) at budgets {1, 2, 8}.
#[test]
fn recorded_foreign_distinct_matches_join_stats() {
    let scenarios = [
        taxi(&ScenarioConfig {
            n_rows: 150,
            n_decoys: 4,
            seed: 11,
        }),
        school(
            &ScenarioConfig {
                n_rows: 150,
                n_decoys: 4,
                seed: 12,
            },
            false,
        ),
    ];
    for sc in &scenarios {
        let csv_dir = scratch_dir(&format!("{}_csv", sc.name));
        let arda_dir = scratch_dir(&format!("{}_arda", sc.name));
        write_csv_shards(&csv_dir, &sc.repository);
        let eager = Repository::from_tables(sc.repository.clone());
        eager.save_dir(&arda_dir).unwrap();
        let repos = [
            ("eager", eager),
            (
                "csv",
                Repository::from_dir(&csv_dir)
                    .unwrap()
                    .with_cache_capacity(2),
            ),
            (
                "arda",
                Repository::from_dir(&arda_dir)
                    .unwrap()
                    .with_cache_capacity(2),
            ),
        ];
        for (store, repo) in &repos {
            for width in [1, 2, 8] {
                let candidates = with_ambient(&Budget::isolated(width), || {
                    discover_joins(&sc.base, repo, &DiscoveryConfig::default())
                })
                .unwrap();
                assert!(!candidates.is_empty(), "{} {store}", sc.name);
                for c in &candidates {
                    let foreign = repo.table(c.table_index).unwrap();
                    let stats =
                        join_stats(&sc.base, &foreign, &[&c.base_key], &[&c.foreign_key]).unwrap();
                    assert_eq!(
                        c.foreign_distinct, stats.foreign_distinct,
                        "{} {store} width {width}: {}.{}",
                        sc.name, c.table_name, c.foreign_key
                    );
                }
            }
        }
        std::fs::remove_dir_all(&csv_dir).ok();
        std::fs::remove_dir_all(&arda_dir).ok();
    }
}

/// Table 4: the TR prefilter removes candidates before any join runs, and
/// the augmented score does not suffer for it. School (S) with τ = 2, the
/// value `table4_tr_prefilter` uses for it.
#[test]
fn tr_prefilter_cuts_joins_without_score_loss() {
    let sc = school(
        &ScenarioConfig {
            n_rows: 200,
            n_decoys: 8,
            seed: 81,
        },
        false,
    );
    let repo = Repository::from_tables(sc.repository.clone());
    let off = Arda::new(fast_config(81))
        .run(&sc.base, &repo, &sc.target)
        .unwrap();
    let mut cfg = fast_config(81);
    cfg.tr_threshold = Some(2.0);
    let on = Arda::new(cfg).run(&sc.base, &repo, &sc.target).unwrap();
    assert_eq!(off.tr_eliminated, 0);
    assert!(on.tr_eliminated > 0);
    assert!(
        on.joins_executed < off.joins_executed,
        "TR on executed {} joins, TR off {}",
        on.joins_executed,
        off.joins_executed
    );
    assert!(
        on.augmented_score >= off.augmented_score - 0.02,
        "TR on scored {}, TR off {}",
        on.augmented_score,
        off.augmented_score
    );
}
