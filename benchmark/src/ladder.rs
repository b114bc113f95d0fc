//! The traced run: one search under a telemetry recorder, probes of the
//! training step and the mixed ops, and the ladder that ties them to the
//! search's wall time.
//!
//! Rungs, top down (all spans are the benchmark's own or ones the program
//! already emits; this run adds no tracing inside the program):
//!
//! 0. search — `bench.search`, one whole search;
//! 1. iteration — a SANE epoch (`search.epoch`) or a random-search
//!    candidate (`bench.candidate`);
//! 2. step — inside an iteration, the update work (SANE `search.arch_step`
//!    and `search.weight_step`; a candidate's training steps) and the
//!    evaluation work (SANE `search.epoch_eval`, which only runs when
//!    tracing is on; a candidate's validation passes). A candidate's split
//!    comes from the timestamps of the `train.epoch` / `train.eval` events
//!    its training loop already emits;
//! 3. ops — probes of each mixed op at the model's layer shapes, against a
//!    probe of one training step;
//! 4. kernels — the `parallel::timed` summaries recorded during the search.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sane_autodiff::optim::Adam;
use sane_autodiff::{pool, uniform_init, Matrix, ParamId, Tape, Tensor, VarStore};
use sane_core::prelude::*;
use sane_gnn::{build_aggregator, GnnModel, GraphContext, LayerAggregator};
use sane_telemetry::{self as tel, profile, MemoryBuffer, MetricSet, Value};

use crate::args::Args;
use crate::report::{self, numbers, Ledger, KERNELS};
use crate::stats::median;
use crate::workload::{self, Method, Spec, CANDIDATE_SEED, HIDDEN, K};

/// Step probe: untimed warm-up steps, then timed steps.
const STEP_WARMUP: usize = 2;
const STEP_REPS: usize = 5;
/// Mixed-op probe: one warm-up, then timed repetitions.
const OP_REPS: usize = 3;
/// A child rung may read at most this much more than its parent (clock
/// granularity, span bookkeeping) before the ladder counts as broken.
const CHILD_SLACK: f64 = 1.05;
/// The iteration and step rungs must attribute at least this share of
/// their parent.
const MIN_ATTRIBUTED: f64 = 0.90;

/// What a ladder rung is checked for.
#[derive(Clone, Copy, PartialEq)]
enum Check {
    /// Nested in its parent, and must account for most of it.
    Attributes,
    /// Nested in its parent.
    Nested,
    /// Compares two separately timed probes: a model of the parent, not a
    /// nested measurement, so it is reported without a check.
    Reported,
}

/// The outcome of one traced run.
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    pub ledger: Ledger,
    /// The `LAYERS_<workload>.json` document.
    pub doc: Value,
    /// Ladder checks that failed, each naming its rung.
    pub broken_rungs: Vec<String>,
}

pub fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let mut ledger = Ledger::default();
    let mut values = BTreeMap::new();

    // An untraced search first: the reference for the tracing overhead and
    // for the traced search's result.
    let (untraced_s, reference) = {
        let task = workload::setup(spec, args.seed);
        ledger.record("warm-up", workload::warm_up(&task, spec, args.seed));
        workload::run_search(&task, spec, args.seed, None, &mut ledger)
    };

    let buf = MemoryBuffer::default();
    let name = args.workload.name();
    let guard = tel::Recorder::new(&format!("bench_{name}"))
        .with_memory(buf.clone())
        .with_kernel_timing(true)
        .install();
    let task = workload::setup(spec, args.seed);

    let before = metrics_now();
    // Tracing must not change what the search computes: the traced search
    // must reproduce the untraced one.
    let (traced_s, traced) = {
        let _span = tel::span("bench.search");
        workload::run_search(&task, spec, args.seed, reference.as_ref(), &mut ledger)
    };
    let genotype = traced.map(|f| f.arch.describe()).unwrap_or_default();
    let kernels = kernel_delta(&before, &metrics_now());

    let (model, mut store) = build_model(&task, spec, args.seed);
    let graph = ProbeGraph::of(&task);
    let step = {
        let _span = tel::span("bench.probe.step");
        step_probe(&model, &mut store, &graph, args.seed)
    };
    let eval_forward_ms = {
        let _span = tel::span("bench.probe.eval");
        eval_probe(&model, &store, &graph)
    };
    let ops = {
        let _span = tel::span("bench.probe.ops");
        op_probes(&graph, task.feature_dim(), args.seed)
    };
    let peak_tape_bytes =
        metrics_now().gauges().get("tape.peak_resident_bytes").copied().unwrap_or(0.0);
    tel::flush_metrics();
    drop(guard);

    let text = buf.borrow().clone();
    let trace_path = args.out.join(format!("TRACE_bench_{name}.jsonl"));
    std::fs::write(&trace_path, &text)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let mut broken = Vec::new();
    if let Err(e) = tel::trace::summarize(&text) {
        broken.push(format!("trace: fails validation: {e}"));
    }
    let prof = profile::profile(&text)?;
    let frame = |path: &[&str]| -> (u64, f64) {
        prof.frames
            .iter()
            .find(|f| f.stack.iter().map(String::as_str).eq(path.iter().copied()))
            .map_or((0, 0.0), |f| (f.count, f.total_ns as f64 / 1e6))
    };

    let (_, search_ms) = frame(&["bench.search"]);
    let (iterations, iteration_ms, update_ms, eval_ms) = match spec.method {
        Method::Sane { .. } => {
            let epoch = ["bench.search", "search", "search.epoch"];
            let phase = |p: &str| frame(&[epoch[0], epoch[1], epoch[2], p]).1;
            let (n, total) = frame(&epoch);
            let update = phase("search.arch_step") + phase("search.weight_step");
            (n, total, update, phase("search.epoch_eval"))
        }
        Method::Random { .. } => {
            let (n, total) = frame(&["bench.search", "bench.candidate"]);
            let (update, eval) = training_phases(&text)?;
            (n, total, update, eval)
        }
    };
    let per_iteration = |ms: f64| ms / iterations.max(1) as f64;

    let (setups, generate_ms) = frame(&["bench.setup.generate"]);
    let (_, context_ms) = frame(&["bench.setup.context"]);
    values.insert("data.generate_ms".into(), generate_ms / setups.max(1) as f64);
    values.insert("gnn.context_ms".into(), context_ms / setups.max(1) as f64);
    values.insert("core.search.iteration_ms".into(), per_iteration(iteration_ms));
    values.insert("core.search.update_ms".into(), per_iteration(update_ms));
    values.insert("core.search.eval_ms".into(), per_iteration(eval_ms));
    values.insert("core.model.forward_ms".into(), step.forward_ms);
    values.insert("core.model.eval_forward_ms".into(), eval_forward_ms);
    values.insert("autodiff.tape.backward_ms".into(), step.backward_ms);
    values.insert("autodiff.optim.step_ms".into(), step.optim_ms);
    values.insert("autodiff.tape.nodes".into(), step.nodes as f64);
    values.insert("autodiff.tape.peak_resident_mib".into(), peak_tape_bytes / MIB);
    values.insert("autodiff.pool.misses_per_step".into(), step.pool_misses_per_step);
    values.insert("autodiff.pool.hit_rate".into(), step.pool_hit_rate);
    values.insert("autodiff.pool.pooled_mib".into(), step.pooled_mib);
    for (op, (fwd, bwd)) in ops.totals() {
        values.insert(format!("{op}.fwd_ms"), fwd);
        values.insert(format!("{op}.bwd_ms"), bwd);
    }
    for k in KERNELS {
        let (calls, ms) = kernels.get(k).copied().unwrap_or((0, 0.0));
        if calls == 0 {
            broken.push(format!("kernel rung: `{k}` was never called during the search"));
        }
        values.insert(format!("autodiff.kernel.{k}.ms"), ms);
        values.insert(format!("autodiff.kernel.{k}.calls"), calls as f64);
    }
    values.insert("telemetry.overhead_frac".into(), traced_s / untraced_s - 1.0);

    // `tape_backward` encloses the kernels its sweep runs; every other
    // kernel is a leaf, so their sum is time the search really spent in
    // kernels.
    let kernel_ms: f64 =
        kernels.iter().filter(|(k, _)| k.as_str() != "tape_backward").map(|(_, v)| v.1).sum();
    let step_model_ms = step.forward_ms + step.backward_ms;
    let ladder = [
        ("iteration", iteration_ms, search_ms, Check::Attributes),
        ("step", update_ms + eval_ms, iteration_ms, Check::Attributes),
        ("ops", ops.model_ms(&model), step_model_ms, Check::Reported),
        ("kernel", kernel_ms, search_ms, Check::Nested),
    ];
    for (rung, child, parent, check) in ladder {
        let frac = if parent > 0.0 { child / parent } else { f64::NAN };
        values.insert(format!("ladder.{rung}_frac"), frac);
        if check == Check::Reported {
            continue;
        }
        if frac.is_nan() || frac > CHILD_SLACK {
            broken.push(format!(
                "{rung} rung: {child:.3} ms exceeds its parent's {parent:.3} ms x {CHILD_SLACK}"
            ));
        } else if check == Check::Attributes && frac < MIN_ATTRIBUTED {
            broken.push(format!(
                "{rung} rung: attributes only {:.1}% of its parent (needs {:.0}%)",
                frac * 100.0,
                MIN_ATTRIBUTED * 100.0
            ));
        }
    }

    let mut doc = report::run_header(args);
    doc.extend([
        ("metrics".into(), numbers(&values)),
        (
            "search".into(),
            Value::Obj(vec![
                ("untraced_s".into(), Value::Num(untraced_s)),
                ("traced_s".into(), Value::Num(traced_s)),
                ("iterations".into(), Value::UInt(iterations)),
                ("genotype".into(), Value::Str(genotype)),
            ]),
        ),
        (
            "kernels".into(),
            Value::Obj(
                kernels
                    .iter()
                    .map(|(k, (calls, ms))| {
                        let row = vec![
                            ("calls".into(), Value::UInt(*calls)),
                            ("ms".into(), Value::Num(*ms)),
                        ];
                        (k.clone(), Value::Obj(row))
                    })
                    .collect(),
            ),
        ),
        (
            "probes".into(),
            Value::Obj(vec![
                ("step_warmup".into(), Value::UInt(STEP_WARMUP as u64)),
                ("step_reps".into(), Value::UInt(STEP_REPS as u64)),
                ("op_reps".into(), Value::UInt(OP_REPS as u64)),
            ]),
        ),
        ("attempted".into(), Value::UInt(ledger.attempted())),
        ("failed".into(), Value::UInt(ledger.failed())),
        ("broken_rungs".into(), Value::Arr(broken.iter().map(|b| Value::Str(b.clone())).collect())),
    ]);
    Ok(Outcome { values, ledger, doc: Value::Obj(doc), broken_rungs: broken })
}

const MIB: f64 = 1024.0 * 1024.0;

fn metrics_now() -> MetricSet {
    tel::handle().map(|h| h.merged_metrics()).unwrap_or_default()
}

/// `(calls, ms)` of every kernel between two metric snapshots.
fn kernel_delta(before: &MetricSet, after: &MetricSet) -> BTreeMap<String, (u64, f64)> {
    after
        .summaries()
        .iter()
        .filter_map(|(key, s)| {
            let kernel = key.strip_prefix("kernel.")?.strip_suffix(".ns")?;
            if kernel.contains('.') {
                return None; // `kernel.<name>.worker.ns`: worker slices
            }
            let base = before.summaries().get(key).copied().unwrap_or_default();
            let calls = s.count - base.count;
            (calls > 0).then(|| (kernel.to_string(), (calls, (s.sum - base.sum) / 1e6)))
        })
        .collect()
}

/// Splits the candidates' training time into update and evaluation from
/// the `train` spans and the `train.epoch` / `train.eval` events inside
/// them: an epoch's update ends at its `train.epoch` event, its
/// validation pass at its `train.eval` event.
fn training_phases(text: &str) -> Result<(f64, f64), String> {
    let mut marks: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut update_ns, mut eval_ns) = (0u64, 0u64);
    for line in text.lines() {
        let rec = Value::parse(line)?;
        let str_of = |k: &str| rec.get(k).and_then(Value::as_str);
        let t_ns = rec.get("t_ns").and_then(Value::as_u64).unwrap_or(0);
        match (str_of("kind"), str_of("name")) {
            (Some("span_open"), Some("train")) => {
                if let Some(id) = rec.get("id").and_then(Value::as_u64) {
                    marks.insert(id, t_ns);
                }
            }
            (Some("event"), Some(event @ ("train.epoch" | "train.eval"))) => {
                let span = rec.get("span").and_then(Value::as_u64);
                if let Some(mark) = span.and_then(|s| marks.get_mut(&s)) {
                    let dt = t_ns.saturating_sub(*mark);
                    *mark = t_ns;
                    if event == "train.epoch" {
                        update_ns += dt;
                    } else {
                        eval_ns += dt;
                    }
                }
            }
            _ => {}
        }
    }
    Ok((update_ns as f64 / 1e6, eval_ns as f64 / 1e6))
}

/// The model whose training step the probes time: the supernet in its
/// fully-mixed mode (SANE), or the random search's first candidate.
enum Model {
    Supernet(Supernet),
    Candidate(GnnModel),
}

impl Model {
    fn forward(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        ctx: &GraphContext,
        x: Tensor,
        training: bool,
    ) -> Tensor {
        match self {
            Model::Supernet(net) => net.forward_mixed(tape, store, ctx, x, training),
            Model::Candidate(m) => m.forward(tape, store, ctx, x, training),
        }
    }

    /// The parameters one training step updates (the supernet's weight
    /// step leaves α alone).
    fn trained_params(&self) -> Vec<ParamId> {
        match self {
            Model::Supernet(net) => net.weight_params().to_vec(),
            Model::Candidate(m) => m.params(),
        }
    }
}

fn build_model(task: &Task, spec: &Spec, seed: u64) -> (Model, VarStore) {
    let mut store = VarStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let (inputs, outputs) = (task.feature_dim(), task.num_outputs());
    let model = match spec.method {
        Method::Sane { .. } => Model::Supernet(Supernet::new(
            workload::supernet_config(),
            inputs,
            outputs,
            &mut store,
            &mut rng,
        )),
        Method::Random { .. } => {
            let space = SaneSpace::paper();
            let genome = space.space().sample(&mut StdRng::seed_from_u64(CANDIDATE_SEED));
            let arch = space.decode(&genome);
            let hyper = ModelHyper::default();
            Model::Candidate(GnnModel::new(arch, inputs, outputs, hyper, &mut store, &mut rng))
        }
    };
    (model, store)
}

/// The graph the probes run on, with the loss of one training step: the
/// citation graph, or PPI's first training graph (validation graph for
/// the evaluation forward).
struct ProbeGraph<'a> {
    ctx: &'a GraphContext,
    features: Arc<Matrix>,
    eval_ctx: &'a GraphContext,
    eval_features: Arc<Matrix>,
    loss: Loss,
}

enum Loss {
    Classes { labels: Arc<Vec<u32>>, rows: Arc<Vec<u32>> },
    Labels { targets: Arc<Matrix>, rows: Arc<Vec<u32>> },
}

impl<'a> ProbeGraph<'a> {
    fn of(task: &'a Task) -> Self {
        match task {
            Task::Node(t) => ProbeGraph {
                ctx: &t.ctx,
                features: Arc::clone(&t.data.features),
                eval_ctx: &t.ctx,
                eval_features: Arc::clone(&t.data.features),
                loss: Loss::Classes {
                    labels: Arc::clone(&t.data.labels),
                    rows: Arc::clone(&t.data.train),
                },
            },
            Task::Multi(t) => {
                let (gi, vi) = (t.data.train_graphs[0], t.data.val_graphs[0]);
                let g = &t.data.graphs[gi];
                ProbeGraph {
                    ctx: &t.ctxs[gi],
                    features: Arc::clone(&g.features),
                    eval_ctx: &t.ctxs[vi],
                    eval_features: Arc::clone(&t.data.graphs[vi].features),
                    loss: Loss::Labels { targets: Arc::clone(&g.targets), rows: g.all_nodes() },
                }
            }
        }
    }

    fn loss(&self, tape: &mut Tape, logits: Tensor) -> Tensor {
        match &self.loss {
            Loss::Classes { labels, rows } => tape.cross_entropy(logits, labels, rows),
            Loss::Labels { targets, rows } => tape.bce_with_logits(logits, targets, rows),
        }
    }
}

/// Medians of the timed training steps.
struct StepProbe {
    /// Forward pass plus loss.
    forward_ms: f64,
    backward_ms: f64,
    /// Gradient clipping, the Adam step, and returning the step's
    /// gradients and tape to the buffer pool.
    optim_ms: f64,
    nodes: usize,
    pool_misses_per_step: f64,
    pool_hit_rate: f64,
    pooled_mib: f64,
}

/// Repeats the public calls of one training step: forward, loss,
/// `Tape::backward`, `clip_global_norm` and `Adam::step_subset`.
fn step_probe(model: &Model, store: &mut VarStore, graph: &ProbeGraph, seed: u64) -> StepProbe {
    let params = model.trained_params();
    let mut opt = Adam::new(5e-3, 2e-4);
    let (mut fwd, mut bwd, mut upd) = (Vec::new(), Vec::new(), Vec::new());
    let mut nodes = 0;
    let mut pool_before = pool::stats();
    for i in 0..STEP_WARMUP + STEP_REPS {
        if i == STEP_WARMUP {
            pool_before = pool::stats();
        }
        let t = Instant::now();
        let mut tape = Tape::new(seed.wrapping_add(i as u64));
        let x = tape.input(Arc::clone(&graph.features));
        let logits = model.forward(&mut tape, store, graph.ctx, x, true);
        let loss = graph.loss(&mut tape, logits);
        let t_fwd = t.elapsed();
        nodes = tape.len();
        let mut grads = tape.backward(loss);
        let t_bwd = t.elapsed();
        grads.clip_global_norm(5.0);
        opt.step_subset(store, &grads, &params);
        grads.recycle();
        drop(tape);
        let t_all = t.elapsed();
        if i >= STEP_WARMUP {
            fwd.push(t_fwd.as_secs_f64() * 1e3);
            bwd.push((t_bwd - t_fwd).as_secs_f64() * 1e3);
            upd.push((t_all - t_bwd).as_secs_f64() * 1e3);
        }
    }
    let delta = pool::stats().since(&pool_before);
    StepProbe {
        forward_ms: median(&fwd),
        backward_ms: median(&bwd),
        optim_ms: median(&upd),
        nodes,
        pool_misses_per_step: delta.misses as f64 / STEP_REPS as f64,
        pool_hit_rate: delta.hit_rate(),
        pooled_mib: delta.floats as f64 * 4.0 / MIB,
    }
}

/// Median of evaluation-mode forwards (no dropout, no backward).
fn eval_probe(model: &Model, store: &VarStore, graph: &ProbeGraph) -> f64 {
    let mut ms = Vec::new();
    for i in 0..STEP_WARMUP + STEP_REPS {
        let t = Instant::now();
        let mut tape = Tape::new(0);
        let x = tape.input(Arc::clone(&graph.eval_features));
        std::hint::black_box(model.forward(&mut tape, store, graph.eval_ctx, x, false));
        drop(tape);
        if i >= STEP_WARMUP {
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    median(&ms)
}

/// `(fwd, bwd)` medians in ms.
type FwdBwd = (f64, f64);

/// Forward and backward medians of every mixed op, keyed by op name.
struct OpProbes {
    /// Node aggregators at the first layer's shape (features → hidden)
    /// and at a deeper layer's (hidden → hidden).
    node: BTreeMap<&'static str, [FwdBwd; 2]>,
    /// Layer aggregators over `K` hidden layers.
    layer: BTreeMap<&'static str, FwdBwd>,
}

impl OpProbes {
    /// Per-metric totals, node aggregators summed over the `K` layers.
    fn totals(&self) -> Vec<(String, FwdBwd)> {
        let deeper = (K - 1) as f64;
        let node = self.node.iter().map(|(name, [f, d])| {
            (format!("gnn.agg.{name}"), (f.0 + deeper * d.0, f.1 + deeper * d.1))
        });
        let layer = self.layer.iter().map(|(name, t)| (format!("gnn.layer_agg.{name}"), *t));
        node.chain(layer).collect()
    }

    /// Modelled time of the ops in one forward and backward of `model`.
    fn model_ms(&self, model: &Model) -> f64 {
        let both = |(f, b): FwdBwd| f + b;
        match model {
            Model::Supernet(_) => self.totals().into_iter().map(|(_, t)| both(t)).sum(),
            Model::Candidate(m) => {
                let arch = m.architecture();
                let aggs: f64 = arch
                    .node_aggs
                    .iter()
                    .enumerate()
                    .map(|(l, choice)| {
                        let shapes = self.node.get(choice.to_string().as_str());
                        shapes.map_or(0.0, |s| both(s[usize::from(l > 0)]))
                    })
                    .sum();
                let layer = arch.layer_agg.and_then(|k| self.layer.get(k.name()).copied());
                aggs + layer.map_or(0.0, both)
            }
        }
    }
}

/// Times one op: builds its tape with `forward`, then backward of the sum
/// of its output.
fn time_op(mut forward: impl FnMut(&mut Tape) -> Tensor) -> FwdBwd {
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for i in 0..=OP_REPS {
        let t = Instant::now();
        let mut tape = Tape::new(0);
        let out = forward(&mut tape);
        let t_fwd = t.elapsed();
        let loss = tape.sum_all(out);
        let t_loss = t.elapsed();
        let grads = tape.backward(loss);
        let t_bwd = t.elapsed();
        grads.recycle();
        if i > 0 {
            fwd.push(t_fwd.as_secs_f64() * 1e3);
            bwd.push((t_bwd - t_loss).as_secs_f64() * 1e3);
        }
    }
    (median(&fwd), median(&bwd))
}

/// Builds each mixed op with the public constructors at the models' layer
/// shapes on the probe graph and times it.
fn op_probes(graph: &ProbeGraph, in_dim: usize, seed: u64) -> OpProbes {
    let n = graph.ctx.num_nodes();
    let mut store = VarStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let hidden = store.add("probe.hidden", uniform_init(n, HIDDEN, 1.0, &mut rng));
    let layers: Vec<ParamId> = (0..K)
        .map(|l| store.add(format!("probe.layer{l}"), uniform_init(n, HIDDEN, 1.0, &mut rng)))
        .collect();
    let node_ops: Vec<_> = NodeAggKind::ALL
        .iter()
        .map(|&kind| {
            let first = build_aggregator(kind, &mut store, &mut rng, in_dim, HIDDEN, 1);
            let deep = build_aggregator(kind, &mut store, &mut rng, HIDDEN, HIDDEN, 1);
            (kind, first, deep)
        })
        .collect();
    let layer_ops: Vec<_> = LayerAggKind::ALL
        .iter()
        .map(|&kind| (kind, LayerAggregator::new(kind, &mut store, &mut rng, HIDDEN)))
        .collect();

    let store = &store;
    let node = node_ops
        .iter()
        .map(|(kind, first, deep)| {
            let f = time_op(|tape| {
                let x = tape.input(Arc::clone(&graph.features));
                first.forward(tape, store, graph.ctx, x)
            });
            let d = time_op(|tape| {
                let x = tape.param(store, hidden);
                deep.forward(tape, store, graph.ctx, x)
            });
            (kind.name(), [f, d])
        })
        .collect();
    let layer = layer_ops
        .iter()
        .map(|(kind, agg)| {
            let t = time_op(|tape| {
                let xs: Vec<Tensor> = layers.iter().map(|&id| tape.param(store, id)).collect();
                agg.forward(tape, store, &xs)
            });
            (kind.name(), t)
        })
        .collect();
    OpProbes { node, layer }
}
