//! Dataflow memory-plan harness: runs the tape liveness/interference
//! analyzer over the standard supernet and derived-architecture train
//! fixtures, proves every plan with `check_memplan`, executes each tape
//! with and without the plan, and writes `results/MEMPLAN.json` with
//! planned vs. actual peak-resident numbers per phase.
//!
//! Exits non-zero when a plan fails its verifier, when plan-driven
//! gradients diverge bitwise from the eager sweep, or when a plan does
//! not reduce actual peak residency.
//!
//! Usage: `cargo run --release -p sane-bench --bin memplan -- --quick`

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use sane_autodiff::dataflow::{check_memplan, plan_memory};
use sane_autodiff::{Tape, Tensor, VarStore};
use sane_bench::HarnessArgs;
use sane_core::prelude::*;
use sane_core::search::darts::node_task_of;
use sane_data::CitationConfig;
use sane_gnn::GnnModel;

/// Schema tag stamped on the artifact; bump on breaking changes.
const SCHEMA: &str = "sane.memplan.v1";

#[derive(Serialize)]
struct PhaseReport {
    name: String,
    nodes: usize,
    dead_ops: Vec<usize>,
    slots: usize,
    aliases: usize,
    reuse_ratio: f64,
    /// Static prediction from the plan's event sweep.
    planned_peak_bytes: usize,
    /// Static prediction with every value held to the end.
    planned_baseline_peak_bytes: usize,
    /// Measured peak of an instrumented sweep with no plan.
    actual_baseline_peak_bytes: usize,
    /// Measured peak under plan-driven release.
    actual_planned_peak_bytes: usize,
    released_values: usize,
    released_bytes: usize,
    /// Plan-driven gradients are bitwise equal to the eager sweep's.
    grads_bitwise_equal: bool,
    verified: bool,
}

#[derive(Serialize)]
struct MemPlanReport {
    schema: String,
    preset: String,
    phases: Vec<PhaseReport>,
}

const MIB: f64 = 1024.0 * 1024.0;

/// Plans, verifies and measures one fixture. `build` must record the
/// identical tape on every call (same seeds, same inputs), so the plan
/// from the first recording is valid for the later ones.
fn run_phase(name: &str, store: &VarStore, build: &dyn Fn() -> (Tape, Tensor)) -> PhaseReport {
    let (tape, loss) = build();
    let graph = tape.op_graph(Some(loss));
    let plan = plan_memory(&graph);
    let verified = match check_memplan(&graph, &plan) {
        Ok(()) => true,
        Err(err) => {
            eprintln!("memplan: phase `{name}` failed verification: {err}");
            false
        }
    };
    drop(tape);

    // Baseline: instrumented sweep, nothing released.
    let (mut tape, loss) = build();
    let (eager_grads, base) = tape.backward_measured(loss, None);
    drop(tape);

    // Planned: identical tape, plan-driven release.
    let (mut tape, loss) = build();
    let (plan_grads, planned) = tape.backward_measured(loss, Some(&plan));
    drop(tape);

    let mut grads_bitwise_equal = true;
    for id in store.ids() {
        let same = match (eager_grads.get(id), plan_grads.get(id)) {
            (Some(a), Some(b)) => {
                a.shape() == b.shape()
                    && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (None, None) => true,
            _ => false,
        };
        if !same {
            eprintln!("memplan: phase `{name}` gradient diverged for param `{}`", store.name(id));
            grads_bitwise_equal = false;
        }
    }
    eager_grads.recycle();
    plan_grads.recycle();

    let report = PhaseReport {
        name: name.to_string(),
        nodes: graph.nodes.len(),
        dead_ops: plan.dead.clone(),
        slots: plan.slots.len(),
        aliases: plan.aliases.len(),
        reuse_ratio: plan.reuse_ratio,
        planned_peak_bytes: plan.planned_peak_bytes,
        planned_baseline_peak_bytes: plan.baseline_peak_bytes,
        actual_baseline_peak_bytes: base.peak_resident_bytes,
        actual_planned_peak_bytes: planned.peak_resident_bytes,
        released_values: planned.released_values,
        released_bytes: planned.released_bytes,
        grads_bitwise_equal,
        verified,
    };
    println!(
        "{:<24} {:>5} nodes, {:>3} slots (reuse x{:.2}), peak {:.2} -> {:.2} MiB \
         (planned {:.2}), released {} values / {:.2} MiB, verified={}",
        report.name,
        report.nodes,
        report.slots,
        report.reuse_ratio,
        report.actual_baseline_peak_bytes as f64 / MIB,
        report.actual_planned_peak_bytes as f64 / MIB,
        report.planned_peak_bytes as f64 / MIB,
        report.released_values,
        report.released_bytes as f64 / MIB,
        report.verified,
    );
    report
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
    t.ctx.warm_backward();
    println!(
        "memplan: preset={}, {} nodes, F={}, hidden={hidden}\n",
        args.scale.name,
        t.ctx.num_nodes(),
        task.feature_dim(),
    );

    // Phase 1: the fully-mixed supernet step (every candidate aggregator
    // materialized per layer — the peak-memory worst case of the search).
    let mut net_rng = StdRng::seed_from_u64(args.scale.seed);
    let mut store = VarStore::new();
    let cfg = SupernetConfig { hidden, ..SupernetConfig::default() };
    let net = Supernet::new(cfg, task.feature_dim(), task.num_outputs(), &mut store, &mut net_rng);
    let supernet_phase = run_phase("mixed_supernet_fwd_bwd", &store, &|| {
        let mut tape = Tape::new(0);
        let x = tape.input(Arc::clone(&t.data.features));
        let logits = net.forward_mixed(&mut tape, &store, &t.ctx, x, true);
        let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
        (tape, loss)
    });

    // Phase 2: a train step of the architecture the supernet derives —
    // the tape shape of retraining/fine-tuning after the search.
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

    let report = MemPlanReport {
        schema: SCHEMA.to_string(),
        preset: args.scale.name.clone(),
        phases: vec![supernet_phase, derived_phase],
    };
    std::fs::create_dir_all(&args.out_dir).expect("create results dir"); // lint:allow(expect) -- create results dir
    let path = args.out_dir.join("MEMPLAN.json");
    let json = serde_json::to_string_pretty(&report).expect("serialise memplan report"); // lint:allow(expect) -- serialise memplan report
    std::fs::write(&path, json).expect("write memplan json"); // lint:allow(expect) -- write memplan json
    println!("\n[saved {}]", path.display());

    let mut failed = false;
    for p in &report.phases {
        if !p.verified {
            eprintln!("memplan: phase `{}` has verifier findings", p.name);
            failed = true;
        }
        if !p.grads_bitwise_equal {
            eprintln!("memplan: phase `{}` gradients diverged under the plan", p.name);
            failed = true;
        }
        if p.actual_planned_peak_bytes >= p.actual_baseline_peak_bytes {
            eprintln!(
                "memplan: phase `{}` plan did not reduce peak residency ({} >= {})",
                p.name, p.actual_planned_peak_bytes, p.actual_baseline_peak_bytes
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("memplan: all phases verified, plans reduce peak residency");
}
