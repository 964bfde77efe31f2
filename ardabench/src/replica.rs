//! The traced run: `Arda::run` replayed as a sequence of public calls with
//! a span around each call, so every layer's share of a run can be read
//! off the trace. The replay must reproduce `Arda::run` bit for bit (the
//! benchmark checks it on every traced run); only then do the spans
//! describe the real program. Each step below mirrors the corresponding
//! step of `arda_core::pipeline::Arda::augment`.

use crate::trace::Trace;
use arda_core::{plan_batches, Arda, ArdaConfig, ArdaError, AugmentationReport, SelectedColumn};
use arda_coreset::row_coreset;
use arda_discovery::{discover_joins, CandidateJoin, KeyKind, Repository};
use arda_join::{execute_join, impute::impute, stats::join_stats, JoinKind, JoinSpec, SoftMethod};
use arda_ml::model::holdout_score;
use arda_ml::{featurize, Dataset, ModelKind};
use arda_select::ranking::order_by_scores;
use arda_select::{
    exponential_search, rank_features, rifs_fractions, tuple_ratio_filter, RifsConfig, SelectError,
    SelectionContext, SelectorKind, TupleRatioDecision,
};
use arda_table::{DataType, Table};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

type Result<T> = arda_core::Result<T>;

/// Output of the traced run.
pub struct Traced {
    pub report: AugmentationReport,
    /// The last dataset handed to the selector: the shape the probes of a
    /// RIFS round are timed at.
    pub last_selector_input: Option<Dataset>,
}

/// Replay `arda.run(base, repo, target)` under `t`.
pub fn run(
    arda: &Arda,
    base: &Table,
    repo: &Repository,
    target: &str,
    t: &mut Trace,
) -> Result<Traced> {
    let cfg = &arda.config;
    t.span("core.augment", |t| {
        let candidates = t.span("discovery.mine", |_| {
            discover_joins(base, repo, &cfg.discovery)
        })?;
        t.add("discovery.candidates", candidates.len() as f64);
        augment(cfg, base, repo, &candidates, target, t)
    })
}

/// One shard fetched through `Repository::table` inside a parallel stage:
/// its busy time and row count, reported back to the trace in order.
struct Fetch {
    seconds: f64,
    rows: usize,
}

fn fetch(repo: &Repository, index: usize) -> Result<(std::sync::Arc<Table>, Fetch)> {
    let start = Instant::now();
    let table = repo.table(index)?;
    let f = Fetch {
        seconds: start.elapsed().as_secs_f64(),
        rows: table.n_rows(),
    };
    Ok((table, f))
}

fn record_fetch(t: &mut Trace, f: &Fetch) {
    t.add("table.shard_load_s", f.seconds);
    t.add("table.rows_loaded", f.rows as f64);
}

fn augment(
    cfg: &ArdaConfig,
    base: &Table,
    repo: &Repository,
    candidates: &[CandidateJoin],
    target: &str,
    t: &mut Trace,
) -> Result<Traced> {
    let start = Instant::now();
    base.column(target)?;

    let (mut kept, base_columns) = t.span("coreset.sample", |_| -> Result<_> {
        let tcol = base.column(target)?;
        let is_cls = cfg.force_classification
            || !tcol.dtype().is_numeric()
            || tcol.dtype() == DataType::Bool;
        let labels: Option<Vec<f64>> = is_cls.then(|| {
            let mut ids: HashMap<String, usize> = HashMap::new();
            tcol.iter()
                .map(|v| {
                    let next = ids.len();
                    *ids.entry(v.to_string()).or_insert(next) as f64
                })
                .collect()
        });
        let idx = row_coreset(base.n_rows(), labels.as_deref(), &cfg.coreset);
        let kept = base.take(&idx)?;
        let names: HashSet<String> = kept
            .columns()
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        Ok((kept, names))
    })?;
    t.add("coreset.rows", kept.n_rows() as f64);

    let (active, tr_eliminated) = t.span("join.tr_prefilter", |t| -> Result<_> {
        for c in candidates {
            if c.table_index >= repo.len() {
                return Err(ArdaError::Invalid(format!(
                    "candidate references missing table {}",
                    c.table_index
                )));
            }
        }
        let mut active: Vec<CandidateJoin> = Vec::with_capacity(candidates.len());
        let mut eliminated = 0usize;
        if let Some(tau) = cfg.tr_threshold {
            let snapshot = &kept;
            let verdicts: Vec<Result<(TupleRatioDecision, Fetch)>> =
                arda_par::par_map(candidates, 0, |_, c| {
                    let (foreign, f) = fetch(repo, c.table_index)?;
                    let stats = join_stats(
                        snapshot,
                        &foreign,
                        &[c.base_key.as_str()],
                        &[c.foreign_key.as_str()],
                    )?;
                    let d = tuple_ratio_filter(snapshot.n_rows(), stats.foreign_distinct, tau);
                    Ok((d, f))
                });
            for (c, verdict) in candidates.iter().zip(verdicts) {
                let (d, f) = verdict?;
                record_fetch(t, &f);
                if d == TupleRatioDecision::Eliminate {
                    eliminated += 1;
                } else {
                    active.push(c.clone());
                }
            }
        } else {
            active.extend(candidates.iter().cloned());
        }
        Ok((active, eliminated))
    })?;
    t.add("select.tr_eliminated", tr_eliminated as f64);

    let base_score = t.span("ml.base_estimate", |t| -> Result<f64> {
        let ds = t.span("ml.featurize", |_| {
            featurize(&kept, target, cfg.force_classification, &cfg.featurize)
        })?;
        Ok(best_estimate(&ds, cfg.seed, t)?.0)
    })?;

    let batches = t.span("core.plan", |_| {
        plan_batches(&active, repo, cfg.join_plan, kept.n_rows())
    });
    let mut provenance: HashMap<String, String> = HashMap::new();
    let mut joins_executed = 0usize;
    let mut last_selector_input = None;

    for (batch_no, batch) in batches.iter().enumerate() {
        t.add("core.batches", 1.0);
        let stop = t.span("core.batch", |t| -> Result<bool> {
            let joined = t.span("join.execute", |t| -> Result<Table> {
                let snapshot = &kept;
                let extra_tables: Vec<Result<(Table, Fetch, usize)>> =
                    arda_par::par_map(batch, 0, |_, cand| {
                        let (foreign, f) = fetch(repo, cand.table_index)?;
                        let spec = JoinSpec {
                            base_keys: vec![cand.base_key.clone()],
                            foreign_keys: vec![cand.foreign_key.clone()],
                            kind: join_kind_for(snapshot, cand, cfg.soft_method),
                        };
                        let before: HashSet<&str> =
                            snapshot.columns().iter().map(|c| c.name()).collect();
                        let joined = execute_join(snapshot, &foreign, &spec, cfg.seed)?;
                        let mut extras = Table::empty(cand.table_name.clone());
                        for col in joined.columns() {
                            if !before.contains(col.name()) {
                                extras.add_column(col.clone())?;
                            }
                        }
                        Ok((extras, f, joined.n_rows()))
                    });

                let mut joined = kept.clone();
                for (cand, extras) in batch.iter().zip(extra_tables) {
                    let (extras, f, rows_out) = extras?;
                    record_fetch(t, &f);
                    t.add("join.count", 1.0);
                    t.add("join.rows_out", rows_out as f64);
                    if rows_out != snapshot.n_rows() {
                        t.add("join.rows_out_mismatches", 1.0);
                    }
                    t.add("join.null_cells", extras.null_count() as f64);
                    t.add("join.new_cells", (extras.n_rows() * extras.n_cols()) as f64);
                    let before: HashSet<String> = joined
                        .columns()
                        .iter()
                        .map(|c| c.name().to_string())
                        .collect();
                    joined = joined.hstack(&extras)?;
                    joins_executed += 1;
                    for col in joined.columns() {
                        if !before.contains(col.name()) {
                            provenance.insert(col.name().to_string(), cand.table_name.clone());
                        }
                    }
                }
                Ok(joined)
            })?;

            let (imputed, filled) = t.span("join.impute", |_| {
                impute(&joined, cfg.seed.wrapping_add(batch_no as u64))
            })?;
            t.add("join.cells_imputed", filled as f64);
            let ds = t.span("ml.featurize", |_| {
                featurize(&imputed, target, cfg.force_classification, &cfg.featurize)
            })?;
            t.add("select.features_in", ds.n_features() as f64);
            let ctx = SelectionContext::standard(&ds, cfg.seed);
            let (selected, holdout) = t.span("select", |t| select(&ds, &cfg.selector, &ctx, t))?;
            t.add("select.features_kept", selected.len() as f64);

            let mut keep_cols: Vec<String> = Vec::new();
            let mut seen: HashSet<String> = HashSet::new();
            for col in imputed.columns() {
                if base_columns.contains(col.name()) {
                    keep_cols.push(col.name().to_string());
                    seen.insert(col.name().to_string());
                }
            }
            for &f in &selected {
                let feature_name = &ds.feature_names[f];
                let source = feature_name.split('=').next().unwrap_or(feature_name);
                if !base_columns.contains(source) && !seen.contains(source) {
                    keep_cols.push(source.to_string());
                    seen.insert(source.to_string());
                }
            }
            let keep_refs: Vec<&str> = keep_cols.iter().map(String::as_str).collect();
            kept = imputed.select(&keep_refs)?;
            last_selector_input = Some(ds);
            Ok(cfg.stop_at_score.is_some_and(|stop| holdout >= stop))
        })?;
        if stop {
            break;
        }
    }

    let (augmented_score, best_estimator) = t.span("ml.final_estimate", |t| -> Result<_> {
        let ds = t.span("ml.featurize", |_| {
            featurize(&kept, target, cfg.force_classification, &cfg.featurize)
        })?;
        t.add("ml.features", ds.n_features() as f64);
        best_estimate(&ds, cfg.seed, t)
    })?;

    let selected: Vec<SelectedColumn> = kept
        .columns()
        .iter()
        .filter(|c| !base_columns.contains(c.name()))
        .map(|c| SelectedColumn {
            table: provenance.get(c.name()).cloned().unwrap_or_default(),
            column: c.name().to_string(),
        })
        .collect();

    Ok(Traced {
        report: AugmentationReport {
            augmented: kept,
            selected,
            base_score,
            augmented_score,
            best_estimator,
            joins_executed,
            tr_eliminated,
            seconds: start.elapsed().as_secs_f64(),
        },
        last_selector_input,
    })
}

/// Mirror of the pipeline's join-kind choice.
fn join_kind_for(base: &Table, cand: &CandidateJoin, soft: SoftMethod) -> JoinKind {
    let base_is_ts = base
        .column(&cand.base_key)
        .map(|c| c.dtype() == DataType::Timestamp)
        .unwrap_or(false);
    match cand.kind {
        KeyKind::Soft => JoinKind::SoftTimeResampled(soft),
        KeyKind::Hard if base_is_ts => JoinKind::HardTimeResampled,
        KeyKind::Hard => JoinKind::Hard,
    }
}

/// Mirror of `run_selector` for the selectors the workloads use, split
/// into a scoring phase (RIFS injection rounds, or a ranking method) and a
/// search phase (the RIFS τ sweep, or the exponential search over the
/// ranking), followed by the holdout evaluation of the chosen subset.
fn select(
    ds: &Dataset,
    kind: &SelectorKind,
    ctx: &SelectionContext,
    t: &mut Trace,
) -> Result<(Vec<usize>, f64)> {
    if !kind.supports(ds.task) {
        return Err(SelectError::Invalid(format!(
            "{} does not support {:?}",
            kind.name(),
            ds.task
        ))
        .into());
    }
    let selected = match kind {
        SelectorKind::Rifs(rc) => {
            if rc.thresholds.is_empty() {
                return Err(
                    SelectError::Invalid("RIFS needs a non-empty threshold grid".into()).into(),
                );
            }
            let fractions = t.span("select.score", |_| -> Result<_> {
                let train = ds.select_rows(&ctx.train)?;
                Ok(rifs_fractions(&train, rc, ctx.seed)?)
            })?;
            t.span("select.search", |t| tau_sweep(ds, ctx, rc, &fractions, t))?
        }
        SelectorKind::Ranking(method) => {
            let scores = t.span("select.score", |_| -> Result<_> {
                let train = ds.select_rows(&ctx.train)?;
                Ok(rank_features(&train, *method, ctx.seed)?)
            })?;
            t.span("select.search", |_| exponential_search(ds, ctx, &scores))?
        }
        other => {
            return Err(ArdaError::Invalid(format!(
                "the traced run does not replay the {} selector",
                other.name()
            )))
        }
    };
    let holdout = t.span("select.evaluate", |_| ctx.evaluate(ds, &selected))?;
    Ok((selected, holdout))
}

/// Mirror of the threshold wrapper of `rifs_select` (Algorithm 3): the
/// distinct subsets are evaluated up front on a wide budget, lazily on a
/// one-wide one, and the monotone walk keeps the last improving subset.
fn tau_sweep(
    ds: &Dataset,
    ctx: &SelectionContext,
    rc: &RifsConfig,
    fractions: &[f64],
    t: &mut Trace,
) -> Result<Vec<usize>> {
    let mut thresholds = rc.thresholds.clone();
    thresholds.sort_by(|a, b| a.total_cmp(b));
    let mut candidates: Vec<(f64, Vec<usize>)> = Vec::new();
    for &tau in &thresholds {
        let subset: Vec<usize> = (0..fractions.len())
            .filter(|&j| fractions[j] >= tau)
            .collect();
        if subset.is_empty() {
            break;
        }
        candidates.push((tau, subset));
    }
    let mut distinct: Vec<Vec<usize>> = Vec::new();
    let mut subset_of: Vec<usize> = Vec::with_capacity(candidates.len());
    for (_, subset) in &candidates {
        if distinct.last() != Some(subset) {
            distinct.push(subset.clone());
        }
        subset_of.push(distinct.len() - 1);
    }
    let mut scores: Vec<Option<f64>> = vec![None; distinct.len()];
    if arda_par::current_budget().width() > 1 {
        let evaluated = arda_par::par_map(&distinct, 0, |_, subset| ctx.evaluate(ds, subset));
        t.add("select.search_evals", distinct.len() as f64);
        for (slot, score) in scores.iter_mut().zip(evaluated) {
            *slot = Some(score?);
        }
    }
    let mut best: Option<(Vec<usize>, f64)> = None;
    for (i, (_, subset)) in candidates.into_iter().enumerate() {
        let score = match scores[subset_of[i]] {
            Some(s) => s,
            None => {
                t.add("select.search_evals", 1.0);
                let s = ctx.evaluate(ds, &subset)?;
                scores[subset_of[i]] = Some(s);
                s
            }
        };
        match &best {
            Some((_, prev)) if score < *prev => break,
            _ => best = Some((subset, score)),
        }
    }
    Ok(match best {
        Some((subset, _)) => subset,
        None => {
            let order = order_by_scores(fractions);
            t.add("select.search_evals", 1.0);
            ctx.evaluate(ds, &[order[0]])?;
            vec![order[0]]
        }
    })
}

/// Mirror of the pipeline's final-estimate protocol: a random forest,
/// plus an RBF-SVM for classification; the best holdout score wins. The
/// forest and the estimators after it get one span each.
fn best_estimate(data: &Dataset, seed: u64, t: &mut Trace) -> Result<(f64, ModelKind)> {
    let forest = ModelKind::RandomForest {
        n_trees: 64,
        max_depth: 12,
    };
    let mut others = Vec::new();
    if data.task.is_classification() {
        others.push(ModelKind::RbfSvm { c: 1.0 });
    }
    let (train, holdout) = if data.task.is_classification() {
        arda_ml::stratified_split(&data.y, 0.25, seed)
    } else {
        arda_ml::train_test_split(data.n_samples(), 0.25, seed)
    };
    let score = t.span("ml.forest_holdout", |_| {
        holdout_score(data, &forest, &train, &holdout, seed)
    })?;
    let mut best = (score, forest);
    t.span("ml.svm_holdout", |_| -> Result<()> {
        for kind in others {
            let score = holdout_score(data, &kind, &train, &holdout, seed)?;
            if score > best.0 {
                best = (score, kind);
            }
        }
        Ok(())
    })?;
    Ok(best)
}
