//! The ARDA benchmark.
//!
//! ```text
//! ardabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there). The
//! inputs of the named workload are generated from the seed by a child
//! process and written under `.bench_work/`; this process then only opens
//! them from disk, so its peak memory is the program's. With `--trace 0`
//! it times `Repository::from_dir` and `Arda::run` and prints the
//! end-to-end metrics; with `--trace 1` it alternates `Arda::run` with a
//! traced replica of it (see `replica.rs`), checks that the two agree bit
//! for bit, times `Repository::save_dir` and the layer probes, and prints
//! the per-layer metrics. The last line of standard output is the result
//! object.

mod json;
mod metrics;
mod replica;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use arda_core::{Arda, AugmentationReport};
use arda_discovery::{Repository, CATALOG_FILE};
use arda_ml::{Dataset, ForestConfig, RandomForest};
use arda_select::rifs::inject_features;
use arda_select::sparse_regression::{l21_solve, target_matrix};
use arda_select::{RifsConfig, SelectionContext, SelectorKind};
use arda_table::{Table, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Format, Inputs, Workload};

/// Set-up is repeated for about this long over all instances (and at
/// least `SETUP_MIN_REPS` times per instance); its median is `setup_s`.
const SETUP_SECONDS: f64 = 2.0;
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 200;
/// Conversions are repeated for about this long (and at least once per
/// instance); their median is `table.convert_s`.
const CONVERT_SECONDS: f64 = 1.0;
const CONVERT_MAX_REPS: usize = 400;
/// Largest share of the RIFS round time the shape probes may leave
/// unexplained before the run reports that they do not account for it.
const RECONCILE_TOLERANCE: f64 = 0.25;
/// Where generated inputs go, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    generate: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut generate) =
        (None, 0, 10.0, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--generate" => generate = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        generate,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ardabench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let wl =
        workloads::find(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
    if let Some(dir) = &args.generate {
        return wl.generate(args.seed, dir);
    }
    let spec = spec::Spec::load("BENCHMARK.json")?;
    if !spec.workloads.iter().any(|w| w.name == wl.name) {
        return Err(format!("{} is not declared in BENCHMARK.json", wl.name));
    }

    let work = WorkDir::create(wl, args.seed)?;
    let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args([
            "--workload",
            wl.name,
            "--seed",
            &args.seed.to_string(),
            "--generate",
        ])
        .arg(&work.0)
        .status()
        .map_err(|e| format!("cannot start the input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }

    let mut bench = Bench::new(wl, args.seconds);
    let values = if args.trace {
        bench.traced(&work.0, args.seed)?
    } else {
        bench.untraced(&work.0, args.seed)?
    };
    bench.report(&spec, &args, &values)
}

/// The per-run scratch directory; removed when the run ends, also on error.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(wl: &Workload, seed: u64) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{seed}-{}", wl.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the root behind only while another run is using it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// One generated dataset of a run.
struct Instance {
    inputs: Inputs,
    base: Table,
    /// Fingerprint of the first successful run's output.
    reference: Option<u64>,
    first: Option<AugmentationReport>,
}

/// State of one benchmark run: what was attempted, what failed, and which
/// correctness gates did not hold.
struct Bench {
    wl: &'static Workload,
    seconds: f64,
    arda: Arda,
    instances: Vec<Instance>,
    attempted: usize,
    failed: usize,
    violations: Vec<String>,
    provenance: BTreeMap<String, Vec<String>>,
    /// Header scans and catalog hit of the first instance's first index.
    first_index: (usize, bool),
}

impl Bench {
    fn new(wl: &'static Workload, seconds: f64) -> Bench {
        Bench {
            wl,
            seconds,
            arda: Arda::new(wl.config()),
            instances: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            provenance: BTreeMap::new(),
            first_index: (0, false),
        }
    }

    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("gate failed: {what}");
            self.violations.push(what);
        }
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance
            .entry(key.into())
            .or_default()
            .push(value.to_string());
    }

    fn budget(&self) -> usize {
        arda_par::default_threads()
    }

    /// Open every instance's inputs repeatedly, for about `SETUP_SECONDS`
    /// in all (cold each time on a CSV workload, whose catalog is removed
    /// first), and check the index counters. Returns the set-up and the
    /// index samples.
    fn setup(&mut self, work: &Path, seed: u64) -> Result<(Vec<f64>, Vec<f64>), String> {
        let (mut setup, mut index) = (Vec::new(), Vec::new());
        let share = SETUP_SECONDS / self.wl.instances as f64;
        for i in 0..self.wl.instances {
            let inputs = Inputs::new(work, i, self.wl.format);
            let started = Instant::now();
            let mut reps = 0;
            let mut base = None;
            while reps < SETUP_MIN_REPS
                || (started.elapsed().as_secs_f64() < share && reps < SETUP_MAX_REPS)
            {
                reps += 1;
                if self.wl.format == Format::Csv {
                    let _ = std::fs::remove_file(inputs.repo.join(CATALOG_FILE));
                }
                let t0 = Instant::now();
                let b = self.wl.read_base(&inputs)?;
                let t1 = Instant::now();
                let repo = self.wl.open_repo(&inputs)?;
                index.push(t1.elapsed().as_secs_f64());
                setup.push(t0.elapsed().as_secs_f64());
                let (scans, hit, n) = (repo.header_scans(), repo.catalog_hit(), repo.len());
                match self.wl.format {
                    Format::Csv => self.gate(scans == n && !hit, || {
                        format!("cold index read {scans} of {n} headers (catalog hit {hit})")
                    }),
                    Format::Arda => self.gate(scans == 0 && hit, || {
                        format!("warm index read {scans} headers (catalog hit {hit})")
                    }),
                }
                if reps == 1 {
                    if i == 0 {
                        self.first_index = (scans, hit);
                    }
                    self.note("shards", n);
                    self.note("index_header_scans", scans);
                    self.note("index_catalog_hit", u8::from(hit));
                }
                base = Some(b);
            }
            let base = base.expect("set-up runs at least once");
            self.note("instance_seed", self.wl.instance_seed(seed, i));
            self.note("base_rows", base.n_rows());
            self.instances.push(Instance {
                inputs,
                base,
                reference: None,
                first: None,
            });
        }
        self.note("setup_reps", setup.len());
        Ok((setup, index))
    }

    fn open_repo(&self, i: usize) -> Result<Repository, String> {
        self.wl.open_repo(&self.instances[i].inputs)
    }

    /// Check one run's output: it must equal the instance's first output,
    /// keep every coreset row and the target, and stay within the worker
    /// budget.
    fn check_report(&mut self, i: usize, r: &AugmentationReport, peak_workers: usize) -> bool {
        let fp = fingerprint(r);
        let rows = self
            .arda
            .config
            .coreset
            .resolve_size(self.instances[i].base.n_rows());
        let sane = r.augmented.n_rows() == rows
            && r.augmented.column(self.wl.target).is_ok()
            && r.base_score.is_finite()
            && r.augmented_score.is_finite();
        self.gate(sane, || {
            format!("output lost rows, the target or a finite score: {r:?}")
        });
        let budget = self.budget();
        self.gate(peak_workers <= budget, || {
            format!("{peak_workers} live workers exceed the budget of {budget}")
        });
        self.note("fingerprints", format!("{i}:{fp:016x}"));
        let inst = &mut self.instances[i];
        let first = *inst.reference.get_or_insert(fp);
        inst.first.get_or_insert_with(|| r.clone());
        fp == first && sane
    }

    /// One `Arda::run` on a freshly opened repository: its wall and CPU
    /// seconds, peak live workers, and the report.
    fn run_once(&self, i: usize) -> Result<(f64, f64, usize, AugmentationReport), String> {
        let repo = self.open_repo(i)?;
        arda_par::reset_spawn_counters();
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let r = self
            .arda
            .run(&self.instances[i].base, &repo, self.wl.target);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = match (cpu0, sys::cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => wall,
        };
        let report = r.map_err(|e| e.to_string())?;
        Ok((wall, cpu, arda_par::peak_spawned_workers() + 1, report))
    }

    /// One checked run of instance `i`; `None` when it failed.
    fn checked_run(&mut self, i: usize) -> Option<(f64, f64, AugmentationReport)> {
        self.attempted += 1;
        match self.run_once(i) {
            Ok((wall, cpu, peak, report)) => {
                if !self.check_report(i, &report, peak) {
                    self.failed += 1;
                }
                Some((wall, cpu, report))
            }
            Err(e) => {
                eprintln!("run failed: {e}");
                self.failed += 1;
                None
            }
        }
    }

    /// End-to-end metrics.
    fn untraced(&mut self, work: &Path, seed: u64) -> Result<BTreeMap<&'static str, f64>, String> {
        let (setup, _) = self.setup(work, seed)?;
        let (mut wall, mut cpu) = (Vec::new(), Vec::new());
        let started = Instant::now();
        for round in 0.. {
            let last = match self.checked_run(round % self.instances.len()) {
                Some((w, c, _)) => {
                    wall.push(w);
                    cpu.push(c);
                    w
                }
                None => 0.0,
            };
            // Start another run only if it should end within the budget.
            if started.elapsed().as_secs_f64() + last > self.seconds {
                break;
            }
        }

        let firsts: Vec<&AugmentationReport> = self
            .instances
            .iter()
            .filter_map(|i| i.first.as_ref())
            .collect();
        if firsts.is_empty() {
            return Err("every run failed".into());
        }
        // Scores are deterministic per instance, so they are averaged over
        // the instances rather than over repeated runs.
        let scores: Vec<f64> = firsts.iter().map(|r| r.augmented_score).collect();
        let gains: Vec<f64> = firsts
            .iter()
            .map(|r| r.augmented_score - r.base_score)
            .collect();
        let kept: Vec<(usize, usize)> = firsts.iter().map(|r| self.tables_kept(r)).collect();
        let signal: Vec<f64> = kept.iter().map(|k| k.0 as f64).collect();
        for (_, decoys) in &kept {
            self.note("decoy_tables_kept", decoys);
        }
        let mut v = BTreeMap::new();
        v.insert("setup_s", median(&setup));
        v.insert("augment_s", median(&wall));
        v.insert("augment_cpu_s", median(&cpu));
        v.insert("peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN));
        v.insert("augmented_score", mean(&scores));
        v.insert("score_gain", mean(&gains));
        v.insert("signal_tables_kept", mean(&signal));
        self.note("augment_runs", wall.len());
        print_samples("augment_s", &wall);
        print_samples("augment_cpu_s", &cpu);
        print_samples("setup_s", &setup);
        print_samples("augmented_score", &scores);
        print_samples("score_gain", &gains);
        Ok(v)
    }

    /// Time `save_dir` of an opened repository into a fresh directory,
    /// cycling through the instances for about `CONVERT_SECONDS` of
    /// conversions. Each instance's first copy is re-opened and compared
    /// with its source table by table (untimed).
    fn convert(&mut self, work: &Path) -> Result<Vec<f64>, String> {
        let mut samples: Vec<f64> = Vec::new();
        let n = self.instances.len();
        while samples.len() < n
            || (samples.iter().sum::<f64>() < CONVERT_SECONDS && samples.len() < CONVERT_MAX_REPS)
        {
            let i = samples.len() % n;
            let repo = self.open_repo(i)?;
            let out = work.join("convert");
            let t0 = Instant::now();
            repo.save_dir(&out).map_err(|e| e.to_string())?;
            samples.push(t0.elapsed().as_secs_f64());
            if samples.len() <= n {
                self.verify_copy(i, &repo, &out)?;
            }
            std::fs::remove_dir_all(&out).map_err(|e| e.to_string())?;
        }
        Ok(samples)
    }

    fn verify_copy(&mut self, i: usize, repo: &Repository, out: &Path) -> Result<(), String> {
        let copy = Repository::from_dir(out).map_err(|e| e.to_string())?;
        let same = copy.catalog_hit() && copy.len() == repo.len();
        self.gate(same, || {
            "converted repository lost shards or its catalog".into()
        });
        for s in 0..repo.len().min(copy.len()) {
            let (a, b) = (repo.table(s), copy.table(s));
            let equal = matches!((&a, &b), (Ok(a), Ok(b)) if a == b);
            self.gate(equal, || {
                format!("instance {i} shard {s} changed in conversion")
            });
        }
        Ok(())
    }

    /// Signal and decoy tables with at least one selected column.
    fn tables_kept(&self, r: &AugmentationReport) -> (usize, usize) {
        let mut tables: Vec<&str> = r.selected.iter().map(|s| s.table.as_str()).collect();
        tables.sort_unstable();
        tables.dedup();
        let signal = tables
            .iter()
            .filter(|t| self.wl.signal_tables.contains(t))
            .count();
        (signal, tables.len() - signal)
    }

    /// Per-layer metrics: alternate `Arda::run` with the traced replica,
    /// cycling through the instances until the time is up, check the
    /// replica against the run, then time the shape probes and the shard
    /// codecs once.
    fn traced(&mut self, work: &Path, seed: u64) -> Result<BTreeMap<&'static str, f64>, String> {
        let (_, index) = self.setup(work, seed)?;
        let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let mut last_input: Option<Dataset> = None;
        let started = Instant::now();
        for pair in 0.. {
            let pair_started = Instant::now();
            let i = pair % self.instances.len();
            // Alternate which of the two runs goes first, so warm-up and
            // drift do not land on one side of the overhead ratio.
            let untraced_first = pair % 2 == 0;
            let mut reference = None;
            if untraced_first {
                reference = self.checked_run(i);
            }
            self.attempted += 1;
            let repo = self.open_repo(i)?;
            arda_par::reset_spawn_counters();
            let mut t = trace::Trace::default();
            let t0 = Instant::now();
            let result = replica::run(
                &self.arda,
                &self.instances[i].base,
                &repo,
                self.wl.target,
                &mut t,
            );
            traced.push(t0.elapsed().as_secs_f64());
            let peak = arda_par::peak_spawned_workers() + 1;
            let spawns = arda_par::total_spawned_workers();
            if !untraced_first {
                reference = self.checked_run(i);
            }
            let reference = reference.map(|(wall, _, report)| {
                untraced.push(wall);
                report
            });
            match (result, reference) {
                (Ok(out), Some(reference)) => {
                    let same = fingerprint(&out.report) == fingerprint(&reference)
                        && out.report.augmented == reference.augmented;
                    self.gate(same, || {
                        format!("instance {i}: the traced replica differs from Arda::run")
                    });
                    if !same {
                        self.failed += 1;
                    }
                    let decoys = self.tables_kept(&out.report).1;
                    series
                        .entry("select.decoy_tables_kept")
                        .or_default()
                        .push(decoys as f64);
                    self.layer_values(&t, &repo, peak, spawns, &mut series);
                    last_input = out.last_selector_input;
                }
                (Err(e), _) => {
                    eprintln!("traced run failed: {e}");
                    self.failed += 1;
                }
                // The untraced run failed and was counted; nothing to compare.
                (Ok(_), None) => {}
            }
            if started.elapsed().as_secs_f64() + pair_started.elapsed().as_secs_f64() > self.seconds
            {
                break;
            }
        }

        let mut v: BTreeMap<&'static str, f64> =
            series.iter().map(|(k, s)| (*k, median(s))).collect();
        v.insert("discovery.index_s", median(&index));
        // Every instance's index is gated in `setup`; the first one's
        // counters stand for the workload.
        let (scans, hit) = self.first_index;
        v.insert("discovery.header_scans", scans as f64);
        v.insert("discovery.catalog_hit", f64::from(u8::from(hit)));
        let overhead = (median(&traced) / median(&untraced) - 1.0) * 100.0;
        v.insert("core.trace_overhead_pct", overhead);
        self.note("traced_pairs", traced.len());
        print_samples("untraced augment_s", &untraced);
        print_samples("traced augment_s", &traced);

        let input = last_input.ok_or("no traced run completed")?;
        self.probes(&input, &mut v)?;
        self.codecs(&mut v)?;
        let convert = self.convert(work)?;
        v.insert("table.convert_s", median(&convert));
        print_samples("table.convert_s", &convert);
        Ok(v)
    }

    /// Per-layer values of one traced run.
    fn layer_values(
        &mut self,
        t: &trace::Trace,
        repo: &Repository,
        peak: usize,
        spawns: usize,
        series: &mut BTreeMap<&'static str, Vec<f64>>,
    ) {
        let mut put = |k: &'static str, x: f64| series.entry(k).or_default().push(x);
        for (metric, span) in [
            ("discovery.mine_s", "discovery.mine"),
            ("coreset.sample_s", "coreset.sample"),
            ("join.tr_prefilter_s", "join.tr_prefilter"),
            ("join.execute_s", "join.execute"),
            ("join.impute_s", "join.impute"),
            ("ml.featurize_s", "ml.featurize"),
            ("select.score_s", "select.score"),
            ("select.search_s", "select.search"),
            ("select.evaluate_s", "select.evaluate"),
            ("ml.svm_holdout_s", "ml.svm_holdout"),
        ] {
            put(metric, t.total(span));
        }
        for counter in [
            "discovery.candidates",
            "table.shard_load_s",
            "table.rows_loaded",
            "select.tr_eliminated",
            "join.rows_out",
            "join.cells_imputed",
            "ml.features",
            "select.search_evals",
            "select.features_in",
            "select.features_kept",
            "core.batches",
        ] {
            put(counter, t.counter(counter));
        }
        let cells = t.counter("join.new_cells");
        put(
            "join.null_fill_rate",
            if cells > 0.0 {
                t.counter("join.null_cells") / cells
            } else {
                0.0
            },
        );
        put(
            "ml.final_forest_s",
            t.total_under("ml.forest_holdout", "ml.final_estimate"),
        );
        put("core.unattributed_s", t.self_time("core.augment"));
        put("discovery.resident_shards", repo.resident_shards() as f64);
        put("par.peak_workers", peak as f64);
        put("par.total_spawns", spawns as f64);

        let budget = self.budget();
        self.gate(peak <= budget, || {
            format!("traced run used {peak} workers, budget {budget}")
        });
        let mismatches = t.counter("join.rows_out_mismatches");
        self.gate(mismatches == 0.0, || {
            format!("{mismatches} joins changed the coreset row count")
        });
        if let Some(bound) = self.wl.cache_bound {
            let resident = repo.resident_shards();
            self.gate(resident <= bound, || {
                format!("{resident} shards resident, bound {bound}")
            });
        }
    }

    /// Shape probes at one RIFS round of the last selector input: the noise
    /// draw, a forest fit and an ℓ2,1 solve under the budget one round
    /// gets, and the residual product `X·W` of that solve.
    fn probes(
        &mut self,
        input: &Dataset,
        v: &mut BTreeMap<&'static str, f64>,
    ) -> Result<(), String> {
        let (rc, rifs) = match &self.arda.config.selector {
            SelectorKind::Rifs(rc) => (rc.clone(), true),
            _ => (RifsConfig::default(), false),
        };
        let seed = self.arda.config.seed;
        let ctx = SelectionContext::standard(input, seed);
        let train = input.select_rows(&ctx.train).map_err(|e| e.to_string())?;
        let t = ((rc.eta * train.n_features() as f64).ceil() as usize).max(1);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        // RIFS draws every round's noise up front, one round after another.
        let mut noise = None;
        let inject = repeat_pass(|| {
            noise = Some(inject_features(&train.x, t, rc.distribution, &mut rng));
            Ok(())
        })?;
        let noise = noise.expect("drawn at least once");
        let names = (0..t).map(|i| format!("__probe_noise_{i}")).collect();
        let aug = train
            .append_features(&noise, names)
            .map_err(|e| e.to_string())?;

        // RIFS fans its rounds out on the ambient budget: `slots` rounds run
        // at once, each planning with the split width.
        let slots = self.budget().min(rc.repeats.max(1));
        let round = arda_par::Budget::global().split(slots);
        let in_round = |f: &(dyn Fn() + Sync)| -> f64 {
            let samples: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    arda_par::par_map_budget(&[()], &round, |_, _| f());
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        };
        let forest_cfg = ForestConfig {
            n_trees: rc.rf_trees,
            max_depth: 10,
            seed,
            ..Default::default()
        };
        let fit = in_round(&|| {
            std::hint::black_box(RandomForest::fit_xy(&aug.x, &aug.y, aug.task, &forest_cfg).ok());
        });
        let mut xs = aug.x.clone();
        arda_linalg::stats::standardize_columns(&mut xs);
        let ym = target_matrix(&aug.y, aug.task);
        let solution = l21_solve(&xs, &ym, &rc.l21).map_err(|e| e.to_string())?;
        let solve = in_round(&|| {
            std::hint::black_box(l21_solve(&xs, &ym, &rc.l21).ok());
        });
        let product = repeat_pass(|| {
            std::hint::black_box(xs.matmul(&solution.w).map_err(|e| e.to_string())?);
            Ok(())
        })?;

        v.insert("ml.forest_fit_s", fit);
        v.insert("select.l21_solve_s", solve);
        v.insert("select.l21_iterations", solution.iterations as f64);
        v.insert("linalg.matmul_s", product);
        let rounds_s = v.get("select.score_s").copied().unwrap_or(0.0);
        let share = |probe: f64| {
            if rifs && rounds_s > 0.0 {
                rc.repeats as f64 * probe / (rounds_s * slots as f64)
            } else {
                0.0
            }
        };
        let (forest_share, l21_share) = (share(fit), share(solve));
        // The draws are sequential, so they do not divide by the slots.
        let inject_share = share(inject) * slots as f64;
        v.insert("select.inject_s", inject);
        v.insert("select.rifs_forest_share", forest_share);
        v.insert("select.rifs_l21_share", l21_share);
        v.insert("select.rifs_inject_share", inject_share);
        let remainder = if rifs {
            1.0 - forest_share - l21_share - inject_share
        } else {
            0.0
        };
        v.insert("select.rifs_remainder_share", remainder);
        self.note(
            "probe_shape",
            format!(
                "{}x{} ({t} noise), {slots} concurrent rounds",
                aug.n_samples(),
                aug.n_features()
            ),
        );
        if rifs {
            // A rough check, not a gate: the probes time one round alone,
            // while the real rounds share the machine.
            let verdict = if remainder.abs() <= RECONCILE_TOLERANCE {
                "the probes account for the rounds"
            } else {
                "the probes do NOT account for the rounds"
            };
            println!(
                "rifs rounds: forest {:.1}% + l21 {:.1}% + noise draws {:.1}% of select.score_s, remainder {:.1}%: {verdict}",
                forest_share * 100.0,
                l21_share * 100.0,
                inject_share * 100.0,
                remainder * 100.0
            );
        }
        Ok(())
    }

    /// Shard codec rates over every table of the first instance's
    /// repository, in memory so disk speed does not enter.
    fn codecs(&mut self, v: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
        let repo = self.open_repo(0)?;
        let tables: Vec<_> = (0..repo.len())
            .map(|i| repo.table(i).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let rows: usize = tables.iter().map(|t| t.n_rows()).sum();
        let mut csv = Vec::with_capacity(tables.len());
        for t in &tables {
            let mut buf = Vec::new();
            arda_table::write_csv(t, &mut buf).map_err(|e| e.to_string())?;
            csv.push(String::from_utf8(buf).map_err(|e| e.to_string())?);
        }
        let mut arda = Vec::new();
        let write_s = repeat_pass(|| {
            arda = tables
                .iter()
                .map(|t| {
                    let mut buf = Vec::new();
                    arda_table::write_arda(t, &mut buf).map(|_| buf)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            Ok(())
        })?;
        let read_arda_s = repeat_pass(|| {
            for (t, bytes) in tables.iter().zip(&arda) {
                let back =
                    arda_table::read_arda_bytes(t.name(), bytes).map_err(|e| e.to_string())?;
                std::hint::black_box(back);
            }
            Ok(())
        })?;
        let read_csv_s = repeat_pass(|| {
            for (t, text) in tables.iter().zip(&csv) {
                let back = arda_table::read_csv_str(t.name(), text).map_err(|e| e.to_string())?;
                std::hint::black_box(back);
            }
            Ok(())
        })?;
        // The decoders must give back what was encoded.
        for (t, bytes) in tables.iter().zip(&arda) {
            let back = arda_table::read_arda_bytes(t.name(), bytes).map_err(|e| e.to_string())?;
            self.gate(back == **t, || {
                format!("{} does not survive .arda", t.name())
            });
        }
        let csv_bytes: usize = csv.iter().map(String::len).sum();
        let arda_bytes: usize = arda.iter().map(Vec::len).sum();
        v.insert("table.csv_read_rows_per_s", rows as f64 / read_csv_s);
        v.insert("table.arda_read_rows_per_s", rows as f64 / read_arda_s);
        v.insert("table.arda_write_rows_per_s", rows as f64 / write_s);
        v.insert(
            "table.arda_bytes_per_csv_byte",
            arda_bytes as f64 / csv_bytes as f64,
        );
        Ok(())
    }

    /// Print every metric by name, unit and direction, the provenance,
    /// then the result object as the last line.
    fn report(
        &mut self,
        spec: &spec::Spec,
        args: &Args,
        values: &BTreeMap<&'static str, f64>,
    ) -> Result<(), String> {
        let table = if args.trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        let mut fields = Vec::new();
        for m in spec.metrics(args.trace) {
            let value = *values
                .get(m.name.as_str())
                .ok_or(format!("metric {} was not measured", m.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", m.name));
            }
            let about = table
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or("", |(_, a)| a);
            println!(
                "{} = {value} {} ({} is better) -- {about}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            fields.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(&m.name),
                json::quote(&m.unit)
            ));
        }
        self.note("workload", self.wl.name);
        self.note("seed", args.seed);
        self.note("available_parallelism", sys::available_parallelism());
        self.note("budget", self.budget());
        self.note("git_revision", sys::git_revision());
        let quoted: BTreeMap<String, String> = self
            .provenance
            .iter()
            .map(|(k, v)| (k.clone(), json::quote(&v.join(" "))))
            .collect();
        println!("provenance {}", json::object(&quoted));
        for v in &self.violations {
            println!("violation: {v}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}

/// Run `pass` until at least 0.2 s and three passes have gone by; the
/// median seconds of one pass.
fn repeat_pass(mut pass: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 3 || (t0.elapsed().as_secs_f64() < 0.2 && samples.len() < 1000) {
        let t1 = Instant::now();
        pass()?;
        samples.push(t1.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}

fn median(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(f64::NAN)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample count, median, quartiles and (when there are enough samples)
/// the highest percentile with ten samples beyond it.
fn print_samples(name: &str, samples: &[f64]) {
    let mut line = format!(
        "samples {name}: n={} median={:.6}",
        samples.len(),
        median(samples)
    );
    if let Some((q1, q3)) = stats::quartiles(samples) {
        line += &format!(" q1={q1:.6} q3={q3:.6}");
    }
    if let Some(spread) = stats::relative_spread(samples) {
        line += &format!(" spread={spread:.4}");
    }
    if let Some((p, x)) = stats::tail_percentile(samples) {
        line += &format!(" p{p}={x:.6}");
    }
    if samples.len() <= 20 {
        let all: Vec<String> = samples.iter().map(|x| format!("{x:.4}")).collect();
        line += &format!(" [{}]", all.join(" "));
    }
    println!("{line}");
}

/// FNV-1a over everything a run returns except its timing: the augmented
/// table (names, types, values; floats by bit pattern), both scores, the
/// estimator, the selected columns and the join counts.
fn fingerprint(r: &AugmentationReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for col in r.augmented.columns() {
        eat(col.name().as_bytes());
        eat(format!("{:?}", col.dtype()).as_bytes());
        for v in col.iter() {
            match v {
                Value::Float(x) => eat(&x.to_bits().to_le_bytes()),
                other => eat(format!("{other:?}").as_bytes()),
            }
        }
    }
    eat(&r.base_score.to_bits().to_le_bytes());
    eat(&r.augmented_score.to_bits().to_le_bytes());
    eat(format!("{:?}", r.best_estimator).as_bytes());
    for s in &r.selected {
        eat(s.table.as_bytes());
        eat(s.column.as_bytes());
    }
    eat(&(r.joins_executed as u64).to_le_bytes());
    eat(&(r.tr_eliminated as u64).to_le_bytes());
    h
}
