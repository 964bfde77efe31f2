//! Hostile-input sweep over `Arda::run`: degenerate bases, targets and
//! repositories must each end in a clean `Err` or in a report whose
//! `augmented` table keeps every coreset row — never in a panic. A case
//! with no usable answer (an all-null target) must be an `Err`.
//!
//! Every case runs on the taxi (regression) and school (classification)
//! scenarios, each against an eager in-memory repository and a CSV-sharded
//! one, so the lazy shard path sees the same inputs.

use arda::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn config() -> ArdaConfig {
    ArdaConfig {
        selector: SelectorKind::Rifs(RifsConfig {
            repeats: 2,
            rf_trees: 4,
            ..Default::default()
        }),
        seed: 1,
        ..Default::default()
    }
}

/// `base` with every column `pick` accepts rebuilt by `rebuild`.
fn map_columns(
    base: &Table,
    pick: impl Fn(&Column) -> bool,
    rebuild: impl Fn(&Column) -> Column,
) -> Table {
    let cols = base
        .columns()
        .iter()
        .map(|c| if pick(c) { rebuild(c) } else { c.clone() })
        .collect();
    Table::new(base.name(), cols).unwrap()
}

fn all_null(c: &Column) -> Column {
    Column::from_values(c.name(), c.dtype(), vec![Value::Null; c.len()]).unwrap()
}

fn constant(c: &Column) -> Column {
    Column::from_values(c.name(), c.dtype(), vec![c.get(0); c.len()]).unwrap()
}

/// A named hostile case: the base table, the repository tables, and
/// whether only an `Err` is an acceptable answer.
type Case = (&'static str, Table, Vec<Table>, bool);

fn cases(sc: &Scenario) -> Vec<Case> {
    let target = sc.target.as_str();
    let is_target = |c: &Column| c.name() == target;
    let repo = sc.repository.clone();
    let empty_repo: Vec<Table> = repo.iter().map(|t| t.take(&[]).unwrap()).collect();
    vec![
        (
            "0-row base",
            sc.base.take(&[]).unwrap(),
            repo.clone(),
            false,
        ),
        ("1-row base", sc.base.head(1), repo.clone(), false),
        ("2-row base", sc.base.head(2), repo.clone(), false),
        (
            "constant target",
            map_columns(&sc.base, is_target, constant),
            repo.clone(),
            false,
        ),
        (
            "all-null target",
            map_columns(&sc.base, is_target, all_null),
            repo.clone(),
            true,
        ),
        (
            "all-null non-target base columns",
            map_columns(&sc.base, |c| !is_target(c), all_null),
            repo,
            false,
        ),
        ("every shard has 0 rows", sc.base.clone(), empty_repo, false),
    ]
}

fn shard_dir(tag: &str, case: usize, tables: &[Table]) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("arda_hostile_{tag}_{case}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for t in tables {
        let f = std::fs::File::create(dir.join(format!("{}.csv", t.name()))).unwrap();
        arda::table::write_csv(t, f).unwrap();
    }
    dir
}

/// Run every case of `sc` and return a description of each violation.
fn sweep(tag: &str, sc: &Scenario, sharded: bool) -> Vec<String> {
    let cfg = config();
    let mut failures = Vec::new();
    for (i, (case, base, tables, must_err)) in cases(sc).into_iter().enumerate() {
        let dir = sharded.then(|| shard_dir(tag, i, &tables));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let repo = match &dir {
                Some(dir) => Repository::from_dir(dir)?,
                None => Repository::from_tables(tables),
            };
            Arda::new(cfg.clone()).run(&base, &repo, &sc.target)
        }));
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir).ok();
        }
        match outcome {
            Err(_) => failures.push(format!("{tag} / {case}: panicked")),
            Ok(Err(_)) => {}
            Ok(Ok(_)) if must_err => failures.push(format!("{tag} / {case}: Ok, expected Err")),
            Ok(Ok(report)) => {
                let rows = cfg.coreset.resolve_size(base.n_rows());
                if report.augmented.n_rows() != rows {
                    failures.push(format!(
                        "{tag} / {case}: augmented has {} rows, coreset {rows}",
                        report.augmented.n_rows()
                    ));
                }
            }
        }
    }
    failures
}

fn scenario_config() -> ScenarioConfig {
    ScenarioConfig {
        n_rows: 60,
        n_decoys: 2,
        seed: 1,
    }
}

#[test]
fn taxi_eager_survives_hostile_inputs() {
    let failures = sweep("taxi_eager", &arda::synth::taxi(&scenario_config()), false);
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn taxi_sharded_survives_hostile_inputs() {
    let failures = sweep("taxi_csv", &arda::synth::taxi(&scenario_config()), true);
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn school_eager_survives_hostile_inputs() {
    let sc = arda::synth::school(&scenario_config(), false);
    let failures = sweep("school_eager", &sc, false);
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn school_sharded_survives_hostile_inputs() {
    let sc = arda::synth::school(&scenario_config(), false);
    let failures = sweep("school_csv", &sc, true);
    assert!(failures.is_empty(), "{failures:#?}");
}
