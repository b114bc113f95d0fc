//! The four workloads: what each generates, the search it runs, and the
//! checks every operation must pass.
//!
//! Each workload is closed-loop and single-process: one search runs at a
//! time, the next starts when the previous returns. Per-epoch work is
//! full-batch and fixed-shape, so a search's cost depends on the graph and
//! the epoch count, not on what α learns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sane_core::prelude::*;
use sane_data::{CitationConfig, MultiGraphDataset, NodeDataset, PpiConfig};
use sane_gnn::GraphContext;
use sane_telemetry as tel;

use crate::report::Ledger;

/// Layers `K` of the searched networks (the paper's setting).
pub const K: usize = 3;
/// Hidden width during search and stand-alone training (paper: 32).
pub const HIDDEN: usize = 32;
/// Seed of the random search's genome stream. Fixed, so every `--seed`
/// trains the same candidate architectures and the random search does the
/// same work on every input; `--seed` still changes the graph, the weights
/// and the dropout masks. Its first four genomes use every kernel the node
/// aggregators call and the LSTM layer aggregator, and none has every skip
/// set to ZERO (a model that cannot learn).
pub const CANDIDATE_SEED: u64 = 12;
/// Worker threads of every workload, set through `SANE_NUM_THREADS`. On
/// the two-core calibration host two workers gave search-ppi no speed-up
/// (step ratio ~0.97) and widened its run-to-run spread from 3% to 13%,
/// so every workload runs the serial kernels.
pub const THREADS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SearchCora,
    SearchPpi,
    SearchTiny,
    RandomCora,
}

/// Which synthetic dataset a workload generates.
#[derive(Clone, Copy, Debug)]
pub enum Data {
    /// cora-syn shrunk by `scale` (nodes, edges and feature width).
    Citation { scale: f64 },
    /// ppi-syn with `graphs` graphs of `nodes` nodes at the preset's
    /// average degree (~29).
    Ppi { graphs: usize, nodes: usize },
}

/// Which search a workload times.
#[derive(Clone, Copy, Debug)]
pub enum Method {
    /// First-order SANE search (Algorithm 1) for `epochs` epochs.
    Sane { epochs: usize },
    /// Random search over `SaneSpace::paper()` training `candidates`
    /// architectures from scratch (Table VII's trial-and-error row).
    Random { candidates: usize },
}

/// The fixed shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub data: Data,
    pub method: Method,
    /// Epochs of one stand-alone training: a retrain of the derived
    /// architecture, or one random-search candidate.
    pub train_epochs: usize,
    /// Retrains of the derived architecture that give `test_metric`.
    pub retrains: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SearchCora, Workload::SearchPpi, Workload::SearchTiny, Workload::RandomCora];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCora => "search-cora",
            Workload::SearchPpi => "search-ppi",
            Workload::SearchTiny => "search-tiny",
            Workload::RandomCora => "random-cora",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        let cora = Data::Citation { scale: 0.5 };
        match self {
            // Wide bag-of-words features: dense GEMM in the layer-0
            // projections of the 11 mixed ops dominates.
            Workload::SearchCora => Spec {
                data: cora,
                method: Method::Sane { epochs: 4 },
                train_epochs: 40,
                retrains: 2,
            },
            // Inductive, edge-heavy (degree ~29 against cora's ~4). Graphs
            // are a third of the preset's 2373 nodes: with larger graphs the
            // tapes overflowed the buffer pool and the search's time moved
            // with the host's other tenants, by up to 50% for minutes.
            Workload::SearchPpi => Spec {
                data: Data::Ppi { graphs: 3, nodes: 800 },
                method: Method::Sane { epochs: 6 },
                train_epochs: 10,
                retrains: 1,
            },
            // Cache-resident graph: many small kernel calls per epoch, so
            // per-call overhead (tape, pool, dispatch) sets the time.
            Workload::SearchTiny => Spec {
                data: Data::Citation { scale: 0.05 },
                method: Method::Sane { epochs: 100 },
                train_epochs: 100,
                retrains: 3,
            },
            // Same graph as search-cora, searched by trial and error: many
            // small single-path tapes, no 11-way mixing.
            Workload::RandomCora => Spec {
                data: cora,
                method: Method::Random { candidates: 4 },
                train_epochs: 12,
                retrains: 0,
            },
        }
    }
}

/// Generates the dataset and prepares the task: graph contexts and their
/// lazily built transposes, so no search pays for them.
pub fn setup(spec: &Spec, seed: u64) -> Task {
    enum Generated {
        Node(NodeDataset),
        Multi(MultiGraphDataset),
    }
    let generated = {
        let _span = tel::span("bench.setup.generate");
        match spec.data {
            Data::Citation { scale } => {
                Generated::Node(CitationConfig::cora().scaled(scale).with_seed(seed).generate())
            }
            Data::Ppi { graphs, nodes } => Generated::Multi(
                PpiConfig { num_graphs: graphs, nodes_per_graph: nodes, ..PpiConfig::ppi() }
                    .with_seed(seed)
                    .generate(),
            ),
        }
    };
    let _span = tel::span("bench.setup.context");
    let task = match generated {
        Generated::Node(ds) => Task::node(ds),
        Generated::Multi(ds) => Task::multi(ds),
    };
    match &task {
        Task::Node(t) => t.ctx.warm_backward(),
        Task::Multi(t) => t.ctxs.iter().for_each(GraphContext::warm_backward),
    }
    task
}

/// The supernet configuration of the `runners::run_sane` harness path.
pub fn supernet_config() -> SupernetConfig {
    SupernetConfig { k: K, hidden: HIDDEN, dropout: 0.5, ..SupernetConfig::default() }
}

fn train_config(spec: &Spec, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: spec.train_epochs,
        patience: 0,
        eval_every: 2,
        seed,
        ..TrainConfig::default()
    }
}

/// What one search found.
pub struct Found {
    pub arch: Architecture,
    /// Bit patterns of everything the search computed that must repeat
    /// exactly under the same seed: the final softmaxed α (SANE), or every
    /// candidate's validation and test metric (random search).
    pub fingerprint: Vec<u64>,
    /// Test metric of the best-by-validation candidate (random search).
    pub best_test: Option<f64>,
}

/// Runs `f`, turning a panic into an error so one failed operation never
/// aborts the run.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Runs one search and records it, and each candidate it trained, in
/// `ledger`; a search repeated under the same seed must reproduce
/// `reference`. Returns the search's wall time and what it found.
pub fn run_search(
    task: &Task,
    spec: &Spec,
    seed: u64,
    reference: Option<&Found>,
    ledger: &mut Ledger,
) -> (f64, Option<Found>) {
    let t = Instant::now();
    let (found, candidates) = search(task, spec, seed);
    let wall = t.elapsed().as_secs_f64();
    for c in candidates {
        ledger.record("candidate", c);
    }
    let found = found.and_then(|f| match reference {
        Some(r) => same_result(r, &f).map(|()| f),
        None => Ok(f),
    });
    ledger.record("search", found.as_ref().map(drop).map_err(Clone::clone));
    (wall, found.ok())
}

/// One search, and the outcome of each candidate it trained (random
/// search; empty for SANE).
fn search(task: &Task, spec: &Spec, seed: u64) -> (Result<Found, String>, Vec<Result<(), String>>) {
    match spec.method {
        Method::Sane { epochs } => (guarded(|| sane(task, epochs, seed)), Vec::new()),
        Method::Random { candidates } => random(task, spec, candidates, seed),
    }
}

/// A one-epoch (SANE) or one-candidate (random) search, run before any
/// timed search so that none of them pays for filling the buffer pool
/// and growing the heap.
pub fn warm_up(task: &Task, spec: &Spec, seed: u64) -> Result<(), String> {
    let method = match spec.method {
        Method::Sane { .. } => Method::Sane { epochs: 1 },
        Method::Random { .. } => Method::Random { candidates: 1 },
    };
    let (found, candidates) = search(task, &Spec { method, ..*spec }, seed);
    candidates.into_iter().chain([found.map(drop)]).collect()
}

fn sane(task: &Task, epochs: usize, seed: u64) -> Result<Found, String> {
    let cfg = SaneSearchConfig {
        supernet: supernet_config(),
        epochs,
        seed,
        ..SaneSearchConfig::default()
    };
    let out = sane_search(task, &cfg);
    out.arch.validate();
    let a = &out.alphas;
    let probs: Vec<f32> = a.node.iter().chain(&a.skip).flatten().chain(&a.layer).copied().collect();
    if probs.iter().any(|p| !p.is_finite()) {
        return Err("non-finite architecture weights".to_string());
    }
    let fingerprint = probs.iter().map(|p| u64::from(p.to_bits())).collect();
    Ok(Found { arch: out.arch, fingerprint, best_test: None })
}

fn random(
    task: &Task,
    spec: &Spec,
    candidates: usize,
    seed: u64,
) -> (Result<Found, String>, Vec<Result<(), String>>) {
    let space = SaneSpace::paper();
    let hyper = ModelHyper::default();
    let cfg = train_config(spec, seed);
    let mut outcomes = Vec::new();
    let mut fingerprint = Vec::new();
    let found = guarded(|| {
        let mut oracle = GenomeOracle::new(|genome: &[usize]| {
            let _span = tel::span("bench.candidate");
            let trained = guarded(|| {
                let o = train_architecture(task, &space.decode(genome), &hyper, &cfg);
                if o.val_metric.is_finite() && o.test_metric.is_finite() {
                    Ok(o)
                } else {
                    Err(format!("non-finite metric for genome {genome:?}"))
                }
            });
            let o = trained.clone().unwrap_or(TrainOutcome {
                val_metric: f64::NEG_INFINITY,
                test_metric: f64::NEG_INFINITY,
                epochs_run: 0,
            });
            fingerprint.extend([o.val_metric.to_bits(), o.test_metric.to_bits()]);
            outcomes.push(trained.map(drop));
            o
        });
        random_search(
            &space.space(),
            &mut oracle,
            &RandomSearchConfig { samples: candidates, seed: CANDIDATE_SEED },
        );
        let (genome, best, _) = oracle.finish();
        Ok((space.decode(&genome), check_quality(task, best.test_metric)?))
    });
    let found = found.map(|(arch, best)| Found { arch, fingerprint, best_test: Some(best) });
    (found, outcomes)
}

/// A repeat search under the same seed must reproduce the first one.
fn same_result(first: &Found, again: &Found) -> Result<(), String> {
    if first.arch != again.arch {
        return Err(format!(
            "repeat search derived {} after {}",
            again.arch.describe(),
            first.arch.describe()
        ));
    }
    if first.fingerprint != again.fingerprint {
        return Err("repeat search is not bitwise equal to the first".to_string());
    }
    Ok(())
}

/// Trains the derived architecture from scratch (retrain `r`) and returns
/// its test metric.
pub fn retrain(
    task: &Task,
    spec: &Spec,
    arch: &Architecture,
    seed: u64,
    r: u64,
) -> Result<f64, String> {
    guarded(|| {
        let cfg = train_config(spec, seed.wrapping_add(1000 + r));
        let o = train_architecture(task, arch, &ModelHyper::default(), &cfg);
        check_quality(task, o.test_metric)
    })
}

/// Rejects a test metric that is non-finite or no better than a model
/// that learned nothing.
fn check_quality(task: &Task, metric: f64) -> Result<f64, String> {
    let floor = quality_floor(task);
    if !metric.is_finite() {
        Err("non-finite test metric".to_string())
    } else if metric <= floor {
        Err(format!("test metric {metric:.4} at or below the floor {floor:.4}"))
    } else {
        Ok(metric)
    }
}

/// The majority-class rate of the test split (node tasks), or the
/// micro-F1 of predicting no label at all, which is 0 (PPI).
pub fn quality_floor(task: &Task) -> f64 {
    match task {
        Task::Node(t) => {
            let mut counts = vec![0usize; t.data.num_classes];
            for &row in t.data.test.iter() {
                counts[t.data.labels[row as usize] as usize] += 1;
            }
            let majority = counts.iter().copied().max().unwrap_or(0);
            majority as f64 / t.data.test.len().max(1) as f64
        }
        Task::Multi(_) => 0.0,
    }
}
