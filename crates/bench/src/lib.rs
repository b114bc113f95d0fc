//! # sane-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! SANE paper (ICDE 2021). One binary per exhibit:
//!
//! | Binary   | Exhibit | What it reports |
//! |----------|---------|-----------------|
//! | `table6` | Table VI  | accuracy / micro-F1 of 11 human GNNs, 4 NAS baselines and SANE on 4 datasets |
//! | `table7` | Table VII | search wall-clock of Random / Bayesian / GraphNAS / SANE |
//! | `table8` | Table VIII| Hits@{1,10,50} of JAPE / GCN-Align / SANE on the alignment task |
//! | `table9` | Table IX  | GraphNAS(-WS) on its own space vs the SANE space |
//! | `table10`| Table X   | Random / Bayesian searching MLP aggregators vs SANE |
//! | `fig2`   | Figure 2  | the searched architectures per dataset |
//! | `fig3`   | Figure 3  | test accuracy vs log-time search trajectories |
//! | `fig4a`  | Figure 4a | accuracy vs the ε random-explore parameter |
//! | `fig4b`  | Figure 4b | accuracy vs the number of layers K |
//!
//! Every binary accepts `--quick`, `--paper-scale` or `--scale <f>` to pick
//! a preset, `--dataset <name>` to filter datasets and `--out <dir>` for
//! the JSON dump (default `results/`).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::Serialize;

use sane_core::prelude::*;
use sane_data::{CitationConfig, PpiConfig};

pub mod runners;

/// Budget preset shared by all harness binaries.
#[derive(Clone, Debug)]
pub struct BenchScale {
    /// Preset name (quick / default / paper).
    pub name: String,
    /// Dataset size multiplier handed to the generators.
    pub data_scale: f64,
    /// PPI graph count (paper: 24).
    pub ppi_graphs: usize,
    /// Candidate evaluations for the trial-and-error searchers (paper: 200).
    pub nas_samples: usize,
    /// SANE supernet epochs (paper: 200).
    pub search_epochs: usize,
    /// Epochs per candidate / retraining run.
    pub train_epochs: usize,
    /// Retraining repeats for mean ± std (paper: 5).
    pub repeats: usize,
    /// Hyper-parameter fine-tuning iterations (paper: 50).
    pub finetune_iters: usize,
    /// Weight-sharing steps per candidate for the -WS evaluators.
    pub ws_steps: usize,
    /// Master seed.
    pub seed: u64,
}

impl BenchScale {
    /// Seconds-scale smoke preset.
    pub fn quick() -> Self {
        Self {
            name: "quick".into(),
            data_scale: 0.02,
            ppi_graphs: 6,
            nas_samples: 6,
            search_epochs: 10,
            train_epochs: 25,
            repeats: 2,
            finetune_iters: 4,
            ws_steps: 2,
            seed: 7,
        }
    }

    /// The default preset: minutes-scale on a laptop, preserving the
    /// paper's relative orderings.
    pub fn default_scale() -> Self {
        Self {
            name: "default".into(),
            data_scale: 0.08,
            ppi_graphs: 12,
            nas_samples: 25,
            search_epochs: 60,
            train_epochs: 80,
            repeats: 5,
            finetune_iters: 10,
            ws_steps: 4,
            seed: 7,
        }
    }

    /// Full paper-protocol sizes (hours of CPU time).
    pub fn paper() -> Self {
        Self {
            name: "paper".into(),
            data_scale: 1.0,
            ppi_graphs: 24,
            nas_samples: 200,
            search_epochs: 200,
            train_epochs: 400,
            repeats: 5,
            finetune_iters: 50,
            ws_steps: 10,
            seed: 7,
        }
    }
}

/// Parsed harness arguments.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Budget preset.
    pub scale: BenchScale,
    /// Dataset filter (lower-case prefixes: cora, citeseer, pubmed, ppi).
    pub datasets: Option<Vec<String>>,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
}

impl HarnessArgs {
    /// Parses `std::env::args()`-style arguments.
    ///
    /// # Panics
    /// Panics (with usage) on unknown flags.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut scale = BenchScale::default_scale();
        let mut datasets = None;
        let mut out_dir = PathBuf::from("results");
        let mut it = args.peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => scale = BenchScale::quick(),
                "--paper-scale" => scale = BenchScale::paper(),
                "--scale" => {
                    let f: f64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a float in (0,1]"); // lint:allow(expect) -- --scale needs a float in (0,1]
                    scale.data_scale = f;
                }
                "--dataset" => {
                    let name = it.next().expect("--dataset needs a name").to_lowercase(); // lint:allow(expect) -- --dataset needs a name
                    datasets.get_or_insert_with(Vec::new).push(name);
                }
                "--seed" => {
                    scale.seed =
                        it.next().and_then(|v| v.parse().ok()).expect("--seed needs a u64");
                    // lint:allow(expect) -- --seed needs a u64
                }
                "--samples" => {
                    scale.nas_samples =
                        it.next().and_then(|v| v.parse().ok()).expect("--samples needs a count");
                    // lint:allow(expect) -- --samples needs a count
                }
                "--search-epochs" => {
                    scale.search_epochs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--search-epochs needs a count"); // lint:allow(expect) -- --search-epochs needs a count
                }
                "--train-epochs" => {
                    scale.train_epochs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--train-epochs needs a count"); // lint:allow(expect) -- --train-epochs needs a count
                }
                "--repeats" => {
                    scale.repeats =
                        it.next().and_then(|v| v.parse().ok()).expect("--repeats needs a count");
                    // lint:allow(expect) -- --repeats needs a count
                }
                "--out" => out_dir = PathBuf::from(it.next().expect("--out needs a path")), // lint:allow(expect) -- --out needs a path
                other => panic!(
                    "unknown flag `{other}`; expected --quick | --paper-scale | --scale <f> | \
                     --dataset <name> | --seed <n> | --samples <n> | --search-epochs <n> | \
                     --train-epochs <n> | --repeats <n> | --out <dir>"
                ),
            }
        }
        Self { scale, datasets, out_dir }
    }

    /// Parses the real process arguments (skipping argv[0]).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// True if `name` passes the dataset filter.
    pub fn wants(&self, name: &str) -> bool {
        match &self.datasets {
            None => true,
            Some(filter) => filter.iter().any(|f| name.to_lowercase().starts_with(f.as_str())),
        }
    }
}

/// The four benchmark tasks of Tables VI / VII / IX / X, generated at the
/// preset's scale.
pub fn benchmark_tasks(args: &HarnessArgs) -> Vec<(String, Task)> {
    let s = &args.scale;
    let mut tasks = Vec::new();
    for cfg in [CitationConfig::cora(), CitationConfig::citeseer(), CitationConfig::pubmed()] {
        if !args.wants(&cfg.name) {
            continue;
        }
        // PubMed at full F=500 but 19k nodes is the big one; its scale
        // multiplier applies to nodes like the others.
        let cfg = cfg.scaled(s.data_scale).with_seed(s.seed);
        tasks.push((cfg.name.clone(), Task::node(cfg.generate())));
    }
    if args.wants("ppi") {
        let cfg = PpiConfig { num_graphs: s.ppi_graphs, ..PpiConfig::ppi().scaled(s.data_scale) }
            .with_seed(s.seed);
        tasks.push((cfg.name.clone(), Task::multi(cfg.generate())));
    }
    tasks
}

/// A `mean (std)` cell, formatted like the paper's tables.
#[derive(Clone, Debug, Serialize)]
pub struct Cell {
    /// Mean over repeats.
    pub mean: f64,
    /// Sample standard deviation over repeats.
    pub std: f64,
}

impl Cell {
    /// Computes a cell from raw per-run metrics.
    pub fn from_runs(runs: &[f64]) -> Self {
        let (mean, std) = sane_autodiff::metrics::mean_std(runs);
        Self { mean, std }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ({:.4})", self.mean, self.std)
    }
}

/// A result table keyed `(row, column) -> cell`, printed in paper layout
/// and serialisable to JSON.
#[derive(Default, Serialize)]
pub struct ResultTable {
    /// Table title.
    pub title: String,
    /// Column order.
    pub columns: Vec<String>,
    /// Row order.
    pub rows: Vec<String>,
    /// Cell text by row then column.
    pub cells: BTreeMap<String, BTreeMap<String, String>>,
}

impl ResultTable {
    /// Creates an empty table with fixed columns.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self { title: title.into(), columns, rows: Vec::new(), cells: BTreeMap::new() }
    }

    /// Sets one cell (creating the row on first use).
    pub fn set(&mut self, row: &str, column: &str, value: impl ToString) {
        if !self.rows.iter().any(|r| r == row) {
            self.rows.push(row.to_string());
        }
        self.cells
            .entry(row.to_string())
            .or_default()
            .insert(column.to_string(), value.to_string());
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| Method | {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|---{}|\n", "|---".repeat(self.columns.len())));
        for row in &self.rows {
            let cells: Vec<String> = self
                .columns
                .iter()
                .map(|c| {
                    self.cells
                        .get(row)
                        .and_then(|r| r.get(c))
                        .cloned()
                        .unwrap_or_else(|| "-".into())
                })
                .collect();
            out.push_str(&format!("| {} | {} |\n", row, cells.join(" | ")));
        }
        out
    }

    /// Prints to stdout and writes `<out_dir>/<file>.json`.
    pub fn emit(&self, out_dir: &std::path::Path, file: &str) {
        println!("{}", self.to_markdown()); // lint:allow(print) -- bench harness owns its console output
        std::fs::create_dir_all(out_dir).expect("create results dir"); // lint:allow(expect) -- create results dir
        let path = out_dir.join(format!("{file}.json"));
        let json = serde_json::to_string_pretty(self).expect("serialise table"); // lint:allow(expect) -- serialise table
        std::fs::write(&path, json).expect("write results json"); // lint:allow(expect) -- write results json
        println!("[saved {}]", path.display()); // lint:allow(print) -- bench harness owns its console output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> HarnessArgs {
        HarnessArgs::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn default_args() {
        let a = parse("");
        assert_eq!(a.scale.name, "default");
        assert!(a.wants("cora-syn"));
    }

    #[test]
    fn quick_and_filters() {
        let a = parse("--quick --dataset cora --dataset ppi");
        assert_eq!(a.scale.name, "quick");
        assert!(a.wants("cora-syn"));
        assert!(a.wants("ppi-syn"));
        assert!(!a.wants("pubmed-syn"));
    }

    #[test]
    fn scale_override() {
        let a = parse("--scale 0.5 --seed 42");
        assert!((a.scale.data_scale - 0.5).abs() < 1e-12);
        assert_eq!(a.scale.seed, 42);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flag() {
        let _ = parse("--bogus");
    }

    #[test]
    fn table_markdown_layout() {
        let mut t = ResultTable::new("T", vec!["A".into(), "B".into()]);
        t.set("row1", "A", "1.0");
        t.set("row1", "B", "2.0");
        t.set("row2", "A", "3.0");
        let md = t.to_markdown();
        assert!(md.contains("| row1 | 1.0 | 2.0 |"));
        assert!(md.contains("| row2 | 3.0 | - |"));
    }

    #[test]
    fn quick_tasks_generate() {
        let mut args = parse("--quick --dataset cora");
        args.scale.data_scale = 0.02;
        let tasks = benchmark_tasks(&args);
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].0, "cora-syn");
    }

    #[test]
    fn cell_formatting() {
        let c = Cell::from_runs(&[0.5, 0.6, 0.7]);
        assert!(c.to_string().starts_with("0.6000 (0.1000)"));
    }
}

#[cfg(test)]
mod flag_tests {
    use super::*;

    #[test]
    fn budget_override_flags() {
        let a = HarnessArgs::parse(
            "--samples 9 --search-epochs 11 --train-epochs 13 --repeats 2"
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(a.scale.nas_samples, 9);
        assert_eq!(a.scale.search_epochs, 11);
        assert_eq!(a.scale.train_epochs, 13);
        assert_eq!(a.scale.repeats, 2);
    }
}
