//! Op-graph static-analysis gate: runs the combined audit + abstract
//! interpreter over the standard supernet and derived-architecture train
//! fixtures, fused ops included, and self-tests the search pre-flight
//! validator (valid genomes pass, an injected invalid genome is rejected).
//! Writes `results/GRAPH_AUDIT.json`.
//!
//! Exits non-zero when a fixture tape has findings or the pre-flight
//! self-test misbehaves.
//!
//! Usage: `cargo run --release -p sane-bench --bin graph_audit -- --quick`

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use sane_autodiff::{Tape, Tensor, VarStore};
use sane_bench::HarnessArgs;
use sane_core::prelude::*;
use sane_core::search::darts::node_task_of;
use sane_core::space::SaneSpace;
use sane_data::CitationConfig;
use sane_gnn::GnnModel;

/// Schema tag stamped on the artifact; bump on breaking changes.
const SCHEMA: &str = "sane.graph_audit.v2";

#[derive(Serialize)]
struct PhaseReport {
    name: String,
    nodes: usize,
    findings: usize,
    errors: bool,
    absint_analyzed: usize,
    absint_violations: usize,
    absint_unknown_shapes: usize,
    absint_iterations: usize,
    clean: bool,
}

#[derive(Serialize)]
struct PreflightReport {
    genomes_checked: usize,
    valid_accepted: bool,
    invalid_rejected: bool,
}

#[derive(Serialize)]
struct GraphAuditReport {
    schema: String,
    preset: String,
    phases: Vec<PhaseReport>,
    preflight: PreflightReport,
}

/// Audits one fixture tape with the abstract interpreter folded in.
fn run_phase(name: &str, store: &VarStore, build: &dyn Fn() -> (Tape, Tensor)) -> PhaseReport {
    let (tape, loss) = build();
    let (report, abs) = tape.audit_with_absint(loss, Some(store));
    let summary = report.absint.expect("audit_with_absint always records a summary"); // lint:allow(expect) -- invariant of audit_with_absint
    let phase = PhaseReport {
        name: name.to_string(),
        nodes: report.num_nodes,
        findings: report.findings.len(),
        errors: report.has_errors(),
        absint_analyzed: summary.analyzed,
        absint_violations: summary.violations,
        absint_unknown_shapes: summary.unknown_shapes,
        absint_iterations: summary.iterations,
        clean: report.is_clean() && abs.is_clean(),
    };
    println!(
        "{:<24} {:>5} nodes, {} finding(s), absint: {}",
        phase.name, phase.nodes, phase.findings, summary,
    );
    if phase.errors {
        eprintln!("graph-audit: phase `{name}` has error findings:\n{report}");
    }
    phase
}

fn main() {
    let args = HarnessArgs::from_env();
    let quick = args.scale.name == "quick";
    let data_scale = if quick { 0.05 } else { 0.25 };
    let hidden = if quick { 16 } else { 32 };

    let ds = CitationConfig::cora().scaled(data_scale).with_seed(args.scale.seed).generate();
    let task = Task::node(ds);
    let Some(t) = node_task_of(&task) else {
        unreachable!("the harness builds a node task");
    };
    println!(
        "graph-audit: preset={}, {} nodes, F={}, hidden={hidden}\n",
        args.scale.name,
        t.ctx.num_nodes(),
        task.feature_dim(),
    );

    // Phase 1: the fully-mixed supernet step — every candidate aggregator
    // materialized per layer, the widest op-graph the search records.
    let mut net_rng = StdRng::seed_from_u64(args.scale.seed);
    let mut store = VarStore::new();
    let cfg = SupernetConfig { hidden, ..SupernetConfig::default() };
    let net = Supernet::new(cfg, task.feature_dim(), task.num_outputs(), &mut store, &mut net_rng);
    let supernet_phase = run_phase("mixed_supernet_fwd", &store, &|| {
        let mut tape = Tape::new(0);
        let x = tape.input(Arc::clone(&t.data.features));
        let logits = net.forward_mixed(&mut tape, &store, &t.ctx, x, true);
        let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
        (tape, loss)
    });

    // Phase 2: a train step of the derived architecture — the tape shape
    // of retraining/fine-tuning after the search.
    let arch = net.derive(&store);
    let mut model_rng = StdRng::seed_from_u64(args.scale.seed + 1);
    let mut model_store = VarStore::new();
    let hyper = ModelHyper { hidden, ..ModelHyper::default() };
    let model = GnnModel::new(
        arch,
        task.feature_dim(),
        task.num_outputs(),
        hyper,
        &mut model_store,
        &mut model_rng,
    );
    let derived_phase = run_phase("derived_train_step", &model_store, &|| {
        let mut tape = Tape::new(7);
        let x = tape.input(Arc::clone(&t.data.features));
        let logits = model.forward(&mut tape, &model_store, &t.ctx, x, true);
        let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
        (tape, loss)
    });

    // Pre-flight self-test: sampled genomes must pass, a corrupted genome
    // must be rejected before any training would run.
    let pf = SanePreflight::new(SaneSpace::paper());
    let mut genome_rng = StdRng::seed_from_u64(args.scale.seed);
    let samples = if quick { 4 } else { 16 };
    let mut valid_accepted = true;
    for _ in 0..samples {
        let genome = pf.space().sample(&mut genome_rng);
        if let Err(e) = pf.check(&genome) {
            eprintln!("graph-audit: preflight rejected a valid genome {genome:?}: {e}");
            valid_accepted = false;
        }
    }
    let mut invalid = vec![0usize; pf.space().len()];
    invalid[0] = usize::MAX;
    let invalid_rejected = pf.check(&invalid).is_err();
    if !invalid_rejected {
        eprintln!("graph-audit: preflight accepted an out-of-range genome");
    }
    let preflight =
        PreflightReport { genomes_checked: samples + 1, valid_accepted, invalid_rejected };
    println!(
        "\npreflight: {} genome(s) checked, valid_accepted={}, invalid_rejected={}",
        preflight.genomes_checked, preflight.valid_accepted, preflight.invalid_rejected
    );

    let report = GraphAuditReport {
        schema: SCHEMA.to_string(),
        preset: args.scale.name.clone(),
        phases: vec![supernet_phase, derived_phase],
        preflight,
    };
    std::fs::create_dir_all(&args.out_dir).expect("create results dir"); // lint:allow(expect) -- harness has no recovery path
    let path = args.out_dir.join("GRAPH_AUDIT.json");
    let json = serde_json::to_string_pretty(&report).expect("serialise graph-audit report"); // lint:allow(expect) -- plain data, cannot fail
    std::fs::write(&path, json).expect("write graph-audit json"); // lint:allow(expect) -- harness has no recovery path
    println!("[saved {}]", path.display());

    let mut failed = false;
    for p in &report.phases {
        if p.errors || !p.clean {
            eprintln!("graph-audit: phase `{}` is not clean", p.name);
            failed = true;
        }
    }
    if !report.preflight.valid_accepted || !report.preflight.invalid_rejected {
        eprintln!("graph-audit: preflight self-test failed");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("graph-audit: all fixtures clean, preflight self-test passed");
}
