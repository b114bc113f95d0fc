//! Concurrent random-search trials sharing one telemetry run.
//!
//! The end-to-end proof of the cross-thread recorder: worker threads
//! (via `sane_autodiff::parallel::run_workers`, the workspace's only
//! thread fan-out) drain a queue of architecture trials. Each worker
//! attaches the owning run's `RecorderHandle`, so every trial's span
//! tree, events and kernel samples land in a single
//! `TRACE_trials.jsonl` that the strict validator accepts — with
//! correct parent links back to the owner's root span and a `thread`
//! field on every worker record.
//!
//! The binary validates its own trace in-process, reading it once into
//! typed records: it must pass the strict reader, at least two trial
//! spans must be open simultaneously, every trial span must parent to
//! the root span, and the merged histograms must expose p50/p90/p99 for
//! the `spmm`, `segment_max` and `tape_backward` kernel streams. CI
//! re-checks the trace with `cargo xtask trace-report`.
//!
//! Usage: `cargo run --release -p sane-bench --bin trials -- --quick`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

use sane_autodiff::parallel::{run_workers, with_threads};
use sane_bench::HarnessArgs;
use sane_core::prelude::*;
use sane_data::CitationConfig;
use sane_telemetry as tel;
use sane_telemetry::trace::{Kind, TraceSummary};

/// Index of a node aggregator in the SANE space's `O_n` ordering.
fn agg(kind: NodeAggKind) -> usize {
    NodeAggKind::ALL.iter().position(|k| *k == kind).expect("kind in O_n") // lint:allow(expect) -- kind in O_n
}

/// The trial genomes: the first two are pinned so the trace provably
/// exercises the `spmm` (GCN and SAGE-sum, which lowers to sparse
/// matmul) and `segment_max`/attention (GAT, SAGE-max) kernel streams
/// no matter how the sampler's RNG evolves; the rest are sampled
/// uniformly.
fn trial_genomes(space: &SaneSpace, trials: usize, seed: u64) -> Vec<Vec<usize>> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cat = space.space();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut genomes: Vec<Vec<usize>> = (0..trials).map(|_| cat.sample(&mut rng)).collect();
    let k = space.k;
    if let Some(g) = genomes.first_mut() {
        g[0] = agg(NodeAggKind::Gcn);
        g[1] = agg(NodeAggKind::SageSum);
        g[k - 1] = agg(NodeAggKind::Gcn);
    }
    if let Some(g) = genomes.get_mut(1) {
        g[0] = agg(NodeAggKind::Gat);
        g[1] = agg(NodeAggKind::SageMax);
        g[k - 1] = agg(NodeAggKind::Gat);
    }
    genomes
}

fn main() {
    let args = HarnessArgs::from_env();
    let quick = args.scale.name == "quick";
    std::fs::create_dir_all(&args.out_dir).expect("create results dir"); // lint:allow(expect) -- create results dir
    let path = args.out_dir.join("TRACE_trials.jsonl");

    let ds = CitationConfig::cora().scaled(0.04).with_seed(args.scale.seed).generate();
    let task = Task::node(ds);
    let space = SaneSpace::paper();
    let trials = if quick { 4 } else { 8 };
    let workers = 2usize;
    let genomes = trial_genomes(&space, trials, args.scale.seed);
    let hyper = ModelHyper { hidden: 16, heads: 1, dropout: 0.5, ..ModelHyper::default() };
    let cfg = TrainConfig {
        epochs: if quick { 4 } else { args.scale.train_epochs },
        patience: 10,
        eval_every: 2,
        seed: args.scale.seed,
        ..TrainConfig::default()
    };

    let results: Mutex<Vec<(usize, f64, String)>> = Mutex::new(Vec::new());
    {
        let recorder = tel::Recorder::new("trials")
            .with_jsonl(&path)
            .expect("open trace file") // lint:allow(expect) -- open trace file
            .with_console_env()
            .with_kernel_timing(true);
        let _guard = recorder.install();
        let root = tel::span("trials");
        let handle = tel::handle().expect("recorder is installed"); // lint:allow(expect) -- recorder is installed

        // Each worker's *first* trial holds its span open at the barrier,
        // so the trace provably contains `workers` concurrent trial trees.
        let barrier = Barrier::new(workers);
        let next = AtomicUsize::new(0);
        run_workers(workers, |w| {
            let _scope = handle.attach(format!("trial-worker-{w}"));
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(genome) = genomes.get(i) else { break };
                let span = tel::span_with("trial", &[("trial", tel::Value::UInt(i as u64))]);
                if i < workers {
                    barrier.wait();
                }
                let arch = space.decode(genome);
                // Trials are themselves the unit of parallelism here;
                // pinning kernels to one thread per trial keeps the two
                // workers from oversubscribing each other.
                let outcome = with_threads(1, || train_architecture(&task, &arch, &hyper, &cfg));
                tel::record("trial.val_metric", outcome.val_metric);
                tel::info(
                    "trial.done",
                    &[
                        ("trial", tel::Value::UInt(i as u64)),
                        ("val_metric", tel::Value::Num(outcome.val_metric)),
                        ("epochs_run", tel::Value::UInt(outcome.epochs_run as u64)),
                    ],
                );
                drop(span);
                results.lock().unwrap_or_else(PoisonError::into_inner).push((
                    i,
                    outcome.val_metric,
                    arch.describe(),
                ));
            }
        });

        drop(root);
    }

    let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_by_key(|r| r.0);
    assert_eq!(results.len(), trials, "every queued trial must report a result");
    for (i, val, desc) in &results {
        println!("trial {i}: val={val:.4} {desc}");
    }

    // The trace must pass the strict reader (monotone stamps, balanced
    // spans, no orphan parents, consistent histogram buckets).
    let records = tel::trace::read_file(&path).expect("valid run trace"); // lint:allow(expect) -- valid run trace
    let summary = TraceSummary::from_records(&records);
    let mut threads = summary.threads.clone();
    threads.sort();
    assert_eq!(threads, ["trial-worker-0", "trial-worker-1"], "both workers wrote the trace");

    // Concurrency + parentage proof from trace order: all first-wave trial
    // spans open (parented to the root span) before any trial closes.
    let mut root_id = None;
    let mut open_before_first_close = 0usize;
    for rec in &records {
        match &rec.kind {
            Kind::SpanOpen { id, parent, path, .. } => match path.last().map(String::as_str) {
                Some("trials") => root_id = Some(*id),
                Some("trial") => {
                    open_before_first_close += 1;
                    assert!(root_id.is_some(), "root span opens first");
                    assert_eq!(*parent, root_id, "trial span must parent to the run's root span");
                }
                _ => {}
            },
            Kind::SpanClose { path, .. } if path.last().map(String::as_str) == Some("trial") => {
                break;
            }
            _ => {}
        }
    }
    assert!(
        open_before_first_close >= 2,
        "expected ≥2 concurrent trial spans, saw {open_before_first_close}"
    );

    // The merged registry must expose percentiles for the kernel streams
    // the pinned genomes exercise, plus the tape itself.
    for stream in ["kernel.spmm.ns", "kernel.segment_max.ns", "kernel.tape_backward.ns"] {
        let hist = summary
            .hists
            .get(stream)
            .unwrap_or_else(|| panic!("{stream} missing from merged histograms"));
        assert!(hist.count > 0, "{stream} recorded no samples");
        assert!(
            hist.p50 > 0.0 && hist.p90 >= hist.p50 && hist.p99 >= hist.p90,
            "{stream} quantiles are not ordered: {hist:?}"
        );
    }
    println!("{summary}");
    println!("[saved {}]", path.display());
}
