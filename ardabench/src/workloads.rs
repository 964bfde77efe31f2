//! The benchmark's workloads: which scenario each one generates from the
//! seed, how its inputs are stored on disk, and how ARDA is configured.

use arda_core::ArdaConfig;
use arda_coreset::{CoresetMethod, CoresetSpec};
use arda_discovery::Repository;
use arda_select::{RankingMethod, SelectorKind};
use arda_synth::{school, taxi, Scenario, ScenarioConfig};
use arda_table::Table;
use std::path::{Path, PathBuf};

/// How a workload's shards are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Text shards; the first index scans every header and writes the
    /// catalog (a cold index).
    Csv,
    /// Typed binary shards written by `Repository::save_dir`, with a fresh
    /// catalog (a warm index).
    Arda,
}

impl Format {
    pub fn ext(self) -> &'static str {
        match self {
            Format::Csv => "csv",
            Format::Arda => "arda",
        }
    }
}

/// One workload.
pub struct Workload {
    pub name: &'static str,
    pub format: Format,
    /// Bound on resident shards (`None` = unbounded, the default).
    pub cache_bound: Option<usize>,
    /// Scenario instances a run generates from its seed. A run cycles
    /// through them, so its medians average over several datasets: how
    /// long a run takes and what it scores depend on the data, not only
    /// on the program.
    pub instances: u64,
    /// Prediction target of the generated base table.
    pub target: &'static str,
    /// Repository tables the scenario planted the signal in; every other
    /// table is a decoy.
    pub signal_tables: &'static [&'static str],
    scenario: fn(u64) -> Scenario,
    config: fn() -> ArdaConfig,
}

fn taxi_rifs(seed: u64) -> Scenario {
    taxi(&ScenarioConfig {
        n_rows: 2000,
        n_decoys: 15,
        seed,
    })
}

fn lake_csv(seed: u64) -> Scenario {
    school(
        &ScenarioConfig {
            n_rows: 1000,
            n_decoys: 348,
            seed,
        },
        true,
    )
}

fn lake_config() -> ArdaConfig {
    ArdaConfig {
        coreset: CoresetSpec {
            method: CoresetMethod::Stratified,
            size: Some(256),
            seed: 0,
        },
        selector: SelectorKind::Ranking(RankingMethod::FTest),
        tr_threshold: Some(1.0),
        ..ArdaConfig::default()
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "taxi_rifs",
        format: Format::Arda,
        cache_bound: None,
        instances: 4,
        target: "collisions",
        signal_tables: &["weather", "events"],
        scenario: taxi_rifs,
        config: ArdaConfig::default,
    },
    Workload {
        name: "lake_csv",
        format: Format::Csv,
        cache_bound: Some(32),
        instances: 16,
        target: "result",
        signal_tables: &["funding", "demographics"],
        scenario: lake_csv,
        config: lake_config,
    },
];

/// Workload by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// File layout of one instance's generated inputs.
pub struct Inputs {
    pub base: PathBuf,
    pub repo: PathBuf,
}

impl Inputs {
    pub fn new(dir: &Path, instance: u64, format: Format) -> Inputs {
        let dir = dir.join(format!("i{instance}"));
        Inputs {
            base: dir.join(format!("base.{}", format.ext())),
            repo: dir.join("repo"),
        }
    }
}

impl Workload {
    pub fn config(&self) -> ArdaConfig {
        (self.config)()
    }

    /// Seed of instance `i` of a run seeded with `seed`; distinct seeds
    /// give disjoint instances.
    pub fn instance_seed(&self, seed: u64, i: u64) -> u64 {
        seed.wrapping_mul(self.instances).wrapping_add(i)
    }

    /// Generate the inputs of every instance of `seed` under `dir`, and
    /// flush them to disk, so that no write-back of the generated files
    /// runs while the measuring process times its reads.
    pub fn generate(&self, seed: u64, dir: &Path) -> Result<(), String> {
        (0..self.instances).try_for_each(|i| {
            self.generate_one(
                self.instance_seed(seed, i),
                &Inputs::new(dir, i, self.format),
            )
        })?;
        sync_tree(dir).map_err(|e| format!("cannot flush {}: {e}", dir.display()))
    }

    fn generate_one(&self, seed: u64, inputs: &Inputs) -> Result<(), String> {
        let sc = (self.scenario)(seed);
        if sc.target != self.target || sc.relevant_tables != self.signal_tables {
            return Err(format!("{}: scenario ground truth changed", self.name));
        }
        std::fs::create_dir_all(&inputs.repo).map_err(|e| e.to_string())?;
        write_table(&sc.base, &inputs.base, self.format)?;
        let shards = sc.repository.len();
        let rows: usize = sc.repository.iter().map(Table::n_rows).sum();
        match self.format {
            Format::Arda => Repository::from_tables(sc.repository)
                .save_dir(&inputs.repo)
                .map_err(|e| e.to_string())?,
            Format::Csv => sc.repository.iter().try_for_each(|t| {
                write_table(
                    t,
                    &inputs.repo.join(format!("{}.csv", t.name())),
                    Format::Csv,
                )
            })?,
        }
        let mut bytes = 0;
        for entry in std::fs::read_dir(&inputs.repo).map_err(|e| e.to_string())? {
            let meta = entry.and_then(|e| e.metadata());
            bytes += meta.map_err(|e| e.to_string())?.len();
        }
        println!(
            "generated {} seed {seed}: {} base rows, {shards} shards, {rows} foreign rows, {bytes} bytes",
            self.name,
            sc.base.n_rows()
        );
        Ok(())
    }

    /// Index an instance's repository as a user of the library would.
    /// On a CSV workload the index is cold when no catalog exists.
    pub fn open_repo(&self, inputs: &Inputs) -> Result<Repository, String> {
        let repo = Repository::from_dir(&inputs.repo).map_err(|e| e.to_string())?;
        Ok(match self.cache_bound {
            Some(bound) => repo.with_cache_capacity(bound),
            None => repo,
        })
    }

    pub fn read_base(&self, inputs: &Inputs) -> Result<Table, String> {
        match self.format {
            Format::Csv => arda_table::read_csv(&inputs.base),
            Format::Arda => arda_table::read_arda(&inputs.base),
        }
        .map_err(|e| format!("{}: {e}", inputs.base.display()))
    }
}

fn write_table(table: &Table, path: &Path, format: Format) -> Result<(), String> {
    match format {
        Format::Csv => {
            let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            let mut out = std::io::BufWriter::new(file);
            arda_table::write_csv(table, &mut out).map_err(|e| e.to_string())?;
            std::io::Write::flush(&mut out).map_err(|e| e.to_string())
        }
        Format::Arda => arda_table::write_arda_file(table, path).map_err(|e| e.to_string()),
    }
}

/// `fsync` every file and directory under `dir`.
fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}
