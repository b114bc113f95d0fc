//! The SANE search algorithm (Algorithm 1 of the paper): differentiable
//! architecture search on the supernet.
//!
//! Each epoch performs one Adam step on `α` against the *validation* loss
//! and one Adam step on `w` against the *training* loss. The paper runs
//! the ξ = 0 first-order approximation of Eq. (8); the full second-order
//! rule (ξ > 0) is implemented too, using DARTS' finite-difference
//! approximation of the Hessian-vector product:
//!
//! ```text
//! ∇α L_val(w*, α) ≈ ∇α L_val(w', α)
//!                   - ξ · [∇α L_tra(w⁺, α) - ∇α L_tra(w⁻, α)] / (2ε)
//! w' = w - ξ ∇w L_tra(w, α),   w± = w ± ε ∇w' L_val(w', α)
//! ```
//!
//! The ε-random-explore knob of Section IV-E1 is included: with
//! probability ε an epoch samples one discrete path and updates only that
//! path's weights (no `α` update). ε = 0 is Algorithm 1; ε = 1 degenerates
//! into random search with weight sharing, and the final architecture is
//! then chosen by weight-sharing evaluation instead of arg-max over the
//! never-trained `α`.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sane_autodiff::metrics::accuracy;
use sane_autodiff::optim::Adam;
use sane_autodiff::{Gradients, ParamId, Tape, Tensor, VarStore};
use sane_gnn::Architecture;
use sane_telemetry as tel;

use crate::obs;
use crate::supernet::{
    AlphaSnapshot, MixedView, SampledPath, SampledView, Supernet, SupernetConfig,
};
use crate::train::{eval_inductive, MultiTask, NodeTask, Task};

/// Settings for one SANE search run.
#[derive(Clone, Debug)]
pub struct SaneSearchConfig {
    /// Supernet shape (layers, hidden width, dropout, activation).
    pub supernet: SupernetConfig,
    /// Search epochs `T` (paper: 200).
    pub epochs: usize,
    /// Learning rate for the operation weights `w` (paper: 5e-3).
    pub lr_w: f32,
    /// Weight decay for `w` (paper: 2e-4).
    pub wd_w: f32,
    /// Learning rate for the architecture parameters `α`.
    pub lr_alpha: f32,
    /// Weight decay for `α`.
    pub wd_alpha: f32,
    /// Inner learning rate ξ of Eq. (8). `0.0` selects the first-order
    /// approximation the paper uses in all experiments.
    pub xi: f32,
    /// Random-explore probability ε (Fig. 4a ablation; 0 = Algorithm 1).
    pub epsilon: f64,
    /// Record a derived-architecture checkpoint every this many epochs
    /// (0 disables; used to draw Figure 3's SANE trajectory).
    pub checkpoint_every: usize,
    /// Audit the mixed-supernet tape every this many epochs and emit the
    /// [`sane_autodiff::TapeReport`] as a `search.audit` telemetry event
    /// (0 disables). Debug aid: catches shape drift, dead `α`/`w`
    /// parameters and NaN onset during search without slowing the normal
    /// path.
    pub audit_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaneSearchConfig {
    fn default() -> Self {
        Self {
            supernet: SupernetConfig::default(),
            epochs: 200,
            lr_w: 5e-3,
            wd_w: 2e-4,
            lr_alpha: 3e-3,
            wd_alpha: 1e-3,
            xi: 0.0,
            epsilon: 0.0,
            checkpoint_every: 0,
            audit_every: 0,
            seed: 0,
        }
    }
}

/// Output of one SANE search run.
pub struct SaneSearchOutput {
    /// The derived top-1 architecture.
    pub arch: Architecture,
    /// Search wall-clock in seconds (the quantity in the paper's Table VII).
    pub wall_seconds: f64,
    /// `(seconds, derived architecture)` checkpoints for trajectory plots.
    pub checkpoints: Vec<(f64, Architecture)>,
    /// Final softmaxed `α` values.
    pub alphas: AlphaSnapshot,
}

/// Which loss a gradient computation targets.
#[derive(Copy, Clone, PartialEq, Eq)]
pub(crate) enum Split {
    Train,
    Val,
}

/// Runs the SANE search on a task.
pub fn sane_search(task: &Task, cfg: &SaneSearchConfig) -> SaneSearchOutput {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    let net = Supernet::new(
        cfg.supernet.clone(),
        task.feature_dim(),
        task.num_outputs(),
        &mut store,
        &mut rng,
    );
    let mut opt_w = Adam::new(cfg.lr_w, cfg.wd_w);
    let mut opt_alpha = Adam::new(cfg.lr_alpha, cfg.wd_alpha);
    let mut checkpoints = Vec::new();

    let _search_span = tel::span_with(
        "search",
        &[("task", task.name().into()), ("epochs", cfg.epochs.into()), ("seed", cfg.seed.into())],
    );

    for epoch in 0..cfg.epochs {
        let _epoch_span = tel::span("search.epoch");
        let explore = cfg.epsilon > 0.0 && rng.gen_bool(cfg.epsilon);
        let mut loss_w = None;
        let mut grad_norm_w = None;
        if explore {
            let _step_span = tel::phase_span("search.explore_step", "explore_step");
            let path = net.sample_path(&mut rng);
            step_weights_sampled(task, &net, &mut store, &mut opt_w, &path, cfg.seed, epoch);
        } else {
            // Line 2–3 of Algorithm 1: update α on the validation loss.
            {
                let _step_span = tel::phase_span("search.arch_step", "arch_step");
                if cfg.xi > 0.0 {
                    step_alpha_second_order(task, &net, &mut store, &mut opt_alpha, cfg, epoch);
                } else {
                    step_alpha_first_order(task, &net, &mut store, &mut opt_alpha, cfg.seed, epoch);
                }
            }
            // Line 4–5: update w on the training loss.
            let _step_span = tel::phase_span("search.weight_step", "weight_step");
            let (tape, loss) = mixed_loss_tape(task, &net, &store, Split::Train, cfg.seed, epoch);
            loss_w = Some(tape.value(loss).as_scalar());
            let mut grads = tape.backward(loss);
            if cfg.audit_every > 0 && (epoch + 1) % cfg.audit_every == 0 {
                let report = tape.audit_with_gradients(loss, Some(&store), &grads);
                obs::record_audit("search.audit", epoch, &report);
            }
            grad_norm_w = Some(grads.clip_global_norm(5.0));
            // The tape shares every weight's buffer; dropped first, the
            // update writes in place instead of cloning each weight.
            drop(tape);
            opt_w.step_subset(&mut store, &grads, net.weight_params());
            grads.recycle();
        }
        emit_epoch_telemetry(task, &net, &store, epoch, explore, loss_w, grad_norm_w);
        if cfg.checkpoint_every > 0 && (epoch + 1) % cfg.checkpoint_every == 0 {
            checkpoints.push((start.elapsed().as_secs_f64(), net.derive(&store)));
        }
    }

    let arch = if cfg.epsilon >= 0.999 {
        // α was (almost) never trained: pick among random paths by
        // weight-sharing validation accuracy instead.
        best_path_by_val(task, &net, &store, &mut rng, 10)
    } else {
        net.derive(&store)
    };
    let alphas = net.alpha_snapshot(&store);
    tel::info(
        "search.done",
        &[
            ("genotype", arch.describe().into()),
            ("wall_seconds", start.elapsed().as_secs_f64().into()),
        ],
    );
    SaneSearchOutput { arch, wall_seconds: start.elapsed().as_secs_f64(), checkpoints, alphas }
}

/// Per-epoch trace output: the softmaxed `α` distributions (one
/// `search.alpha` row per mixed op, enough to re-plot Fig. 3/4), the
/// derived genotype and the mixed-supernet validation metric, all in one
/// `search.epoch` event.
///
/// Everything here is read-only — the evaluation forward runs with
/// `training = false` on a fresh tape, consuming no search RNG — so a
/// search traced at `info` matches an untraced one bitwise (the
/// `telemetry_does_not_disturb_search` test holds this line). Gated on
/// [`tel::enabled`] so untraced runs skip the extra forward entirely.
fn emit_epoch_telemetry(
    task: &Task,
    net: &Supernet,
    store: &VarStore,
    epoch: usize,
    explore: bool,
    loss_w: Option<f32>,
    grad_norm_w: Option<f32>,
) {
    if !tel::enabled(tel::Level::Info) {
        return;
    }
    // Epoch evaluation (mixed-val forward) is its own attribution phase so
    // the profiler can separate it from arch/weight updates.
    let _eval_span = tel::phase_span("search.epoch_eval", "epoch_eval");
    let snap = net.alpha_snapshot(store);
    let groups: [(&'static str, &[Vec<f32>]); 2] = [("node", &snap.node), ("skip", &snap.skip)];
    for (group, rows) in groups {
        for (index, probs) in rows.iter().enumerate() {
            emit_alpha_row(epoch, group, index, probs);
        }
    }
    if !snap.layer.is_empty() {
        emit_alpha_row(epoch, "layer", 0, &snap.layer);
    }
    let mut fields: Vec<(&'static str, tel::Value)> = vec![
        ("epoch", epoch.into()),
        ("explore", explore.into()),
        ("genotype", net.derive(store).describe().into()),
        ("val_metric", eval_mixed_val(task, net, store).into()),
    ];
    if let Some(l) = loss_w {
        fields.push(("loss_w", l.into()));
    }
    if let Some(g) = grad_norm_w {
        fields.push(("grad_norm_w", g.into()));
    }
    tel::info("search.epoch", &fields);
}

fn emit_alpha_row(epoch: usize, group: &'static str, index: usize, probs: &[f32]) {
    tel::info(
        "search.alpha",
        &[
            ("epoch", epoch.into()),
            ("group", group.into()),
            ("index", index.into()),
            ("probs", probs.into()),
            ("entropy", obs::entropy(probs).into()),
        ],
    );
}

/// Validation metric of the fully-mixed supernet (no discretisation),
/// evaluated without dropout.
fn eval_mixed_val(task: &Task, net: &Supernet, store: &VarStore) -> f64 {
    match task {
        Task::Node(t) => {
            let mut tape = Tape::new(0);
            let x = tape.input(Arc::clone(&t.data.features));
            let logits = net.forward_mixed(&mut tape, store, &t.ctx, x, false);
            accuracy(tape.value(logits), &t.data.labels, &t.data.val)
        }
        Task::Multi(t) => eval_inductive(t, &MixedView(net), store, &t.data.val_graphs),
    }
}

/// Gradients of the fully-mixed supernet loss on one split, with respect
/// to `wrt` only (every other slot stays `None`).
fn mixed_grads(
    task: &Task,
    net: &Supernet,
    store: &VarStore,
    split: Split,
    seed: u64,
    epoch: usize,
    wrt: &[ParamId],
) -> Gradients {
    let (tape, loss) = mixed_loss_tape(task, net, store, split, seed, epoch);
    tape.backward_wrt(loss, wrt)
}

/// The first-order (ξ = 0) α update, lines 2–3 of Algorithm 1: one Adam
/// step on the validation loss, differentiated with respect to α alone so
/// the sweep forms no weight gradients.
pub(crate) fn step_alpha_first_order(
    task: &Task,
    net: &Supernet,
    store: &mut VarStore,
    opt_alpha: &mut Adam,
    seed: u64,
    epoch: usize,
) {
    let grads = mixed_grads(task, net, store, Split::Val, seed, epoch, net.alpha_params());
    opt_alpha.step_subset(store, &grads, net.alpha_params());
    grads.recycle();
}

/// Records the fully-mixed supernet forward + loss on one split and returns
/// the tape with the loss node, so callers can audit the tape as well as
/// run backward.
pub(crate) fn mixed_loss_tape(
    task: &Task,
    net: &Supernet,
    store: &VarStore,
    split: Split,
    seed: u64,
    epoch: usize,
) -> (Tape, Tensor) {
    let tape_seed = seed ^ ((epoch as u64) << 1 | u64::from(split == Split::Train));
    match task {
        Task::Node(t) => {
            let mut tape = Tape::new(tape_seed);
            let x = tape.input(Arc::clone(&t.data.features));
            let logits = net.forward_mixed(&mut tape, store, &t.ctx, x, true);
            let rows = match split {
                Split::Train => &t.data.train,
                Split::Val => &t.data.val,
            };
            let loss = tape.cross_entropy(logits, &t.data.labels, rows);
            (tape, loss)
        }
        Task::Multi(t) => {
            let graphs = match split {
                Split::Train => &t.data.train_graphs,
                Split::Val => &t.data.val_graphs,
            };
            let gi = graphs[epoch % graphs.len()];
            let g = &t.data.graphs[gi];
            let mut tape = Tape::new(tape_seed);
            let x = tape.input(Arc::clone(&g.features));
            let logits = net.forward_mixed(&mut tape, store, &t.ctxs[gi], x, true);
            let rows = g.all_nodes();
            let loss = tape.bce_with_logits(logits, &g.targets, &rows);
            (tape, loss)
        }
    }
}

/// Adds `scale * grads[id]` into each listed parameter's value.
fn apply_delta(store: &mut VarStore, ids: &[ParamId], grads: &Gradients, scale: f32) {
    for &id in ids {
        if let Some(g) = grads.get(id) {
            store.value_mut(id).add_scaled_assign(g, scale);
        }
    }
}

/// The full Eq. (8) update with the DARTS finite-difference Hessian-vector
/// approximation (see module docs).
fn step_alpha_second_order(
    task: &Task,
    net: &Supernet,
    store: &mut VarStore,
    opt_alpha: &mut Adam,
    cfg: &SaneSearchConfig,
    epoch: usize,
) {
    let w_ids = net.weight_params();
    let alpha_ids = net.alpha_params();
    let all_ids: Vec<ParamId> = store.ids().collect();
    let backup = store.snapshot();

    // w' = w - ξ ∇w L_tra(w, α).
    let g_tra = mixed_grads(task, net, store, Split::Train, cfg.seed, epoch, w_ids);
    apply_delta(store, w_ids, &g_tra, -cfg.xi);
    g_tra.recycle();

    // ∇ L_val at (w', α): the α part is term 1, the w' part drives the
    // finite difference.
    let mut g_val = mixed_grads(task, net, store, Split::Val, cfg.seed, epoch, &all_ids);
    let gw_norm = g_val.l2_norm_subset(w_ids);
    store.restore(&backup);

    if gw_norm > 1e-12 {
        let eps = 0.01 / gw_norm;
        apply_delta(store, w_ids, &g_val, eps);
        let g_plus = mixed_grads(task, net, store, Split::Train, cfg.seed, epoch, alpha_ids);
        store.restore(&backup);
        apply_delta(store, w_ids, &g_val, -eps);
        let g_minus = mixed_grads(task, net, store, Split::Train, cfg.seed, epoch, alpha_ids);
        store.restore(&backup);
        g_val.add_scaled(&g_plus, -cfg.xi / (2.0 * eps));
        g_val.add_scaled(&g_minus, cfg.xi / (2.0 * eps));
        g_plus.recycle();
        g_minus.recycle();
    }
    opt_alpha.step_subset(store, &g_val, alpha_ids);
    g_val.recycle();
}

fn step_weights_sampled(
    task: &Task,
    net: &Supernet,
    store: &mut VarStore,
    opt: &mut Adam,
    path: &SampledPath,
    seed: u64,
    epoch: usize,
) {
    let tape_seed = seed ^ ((epoch as u64) << 1 | 1);
    let mut grads = match task {
        Task::Node(t) => {
            let mut tape = Tape::new(tape_seed);
            let x = tape.input(Arc::clone(&t.data.features));
            let logits = net.forward_sampled(&mut tape, store, &t.ctx, x, true, path);
            let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
            tape.backward(loss)
        }
        Task::Multi(t) => {
            let gi = t.data.train_graphs[epoch % t.data.train_graphs.len()];
            let g = &t.data.graphs[gi];
            let mut tape = Tape::new(tape_seed);
            let x = tape.input(Arc::clone(&g.features));
            let logits = net.forward_sampled(&mut tape, store, &t.ctxs[gi], x, true, path);
            let rows = g.all_nodes();
            let loss = tape.bce_with_logits(logits, &g.targets, &rows);
            tape.backward(loss)
        }
    };
    grads.clip_global_norm(5.0);
    opt.step_subset(store, &grads, net.weight_params());
    grads.recycle();
}

/// Validation metric of one sampled path under the shared weights.
pub fn eval_path_val(task: &Task, net: &Supernet, store: &VarStore, path: &SampledPath) -> f64 {
    match task {
        Task::Node(t) => {
            let mut tape = Tape::new(0);
            let x = tape.input(Arc::clone(&t.data.features));
            let logits = net.forward_sampled(&mut tape, store, &t.ctx, x, false, path);
            accuracy(tape.value(logits), &t.data.labels, &t.data.val)
        }
        Task::Multi(t) => {
            let view = SampledView { net, path: path.clone() };
            eval_inductive(t, &view, store, &t.data.val_graphs)
        }
    }
}

fn best_path_by_val(
    task: &Task,
    net: &Supernet,
    store: &VarStore,
    rng: &mut StdRng,
    samples: usize,
) -> Architecture {
    let mut best: Option<(f64, SampledPath)> = None;
    for _ in 0..samples {
        let path = net.sample_path(rng);
        let val = eval_path_val(task, net, store, &path);
        if best.as_ref().map(|(b, _)| val > *b).unwrap_or(true) {
            best = Some((val, path));
        }
    }
    net.path_architecture(&best.expect("samples >= 1").1) // lint:allow(expect) -- samples >= 1
}

/// Helper for tests and `NodeTask` consumers.
pub fn node_task_of(task: &Task) -> Option<&NodeTask> {
    match task {
        Task::Node(t) => Some(t),
        _ => None,
    }
}

/// Helper for tests and `MultiTask` consumers.
pub fn multi_task_of(task: &Task) -> Option<&MultiTask> {
    match task {
        Task::Multi(t) => Some(t),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supernet::SupernetConfig;
    use sane_data::CitationConfig;
    use sane_gnn::Activation;

    fn tiny_task() -> Task {
        Task::node(CitationConfig::cora().scaled(0.025).generate())
    }

    fn tiny_cfg(epochs: usize) -> SaneSearchConfig {
        SaneSearchConfig {
            supernet: SupernetConfig {
                k: 2,
                hidden: 8,
                dropout: 0.2,
                activation: Activation::Relu,
                use_layer_agg: true,
            },
            epochs,
            checkpoint_every: 0,
            ..Default::default()
        }
    }

    #[test]
    fn search_produces_valid_architecture() {
        let task = tiny_task();
        let out = sane_search(&task, &tiny_cfg(8));
        out.arch.validate();
        assert_eq!(out.arch.depth(), 2);
        assert!(out.arch.layer_agg.is_some());
        assert!(out.wall_seconds > 0.0);
    }

    #[test]
    fn alpha_moves_away_from_uniform() {
        let task = tiny_task();
        let out = sane_search(&task, &tiny_cfg(15));
        // After 15 epochs at least one node-aggregator mixture should have
        // drifted from the uniform 1/11.
        let max_dev = out
            .alphas
            .node
            .iter()
            .flat_map(|row| row.iter().map(|&p| (p - 1.0 / 11.0).abs()))
            .fold(0.0f32, f32::max);
        assert!(max_dev > 1e-4, "alphas did not move (max dev {max_dev})");
    }

    #[test]
    fn checkpoints_are_recorded() {
        let task = tiny_task();
        let mut cfg = tiny_cfg(9);
        cfg.checkpoint_every = 3;
        let out = sane_search(&task, &cfg);
        assert_eq!(out.checkpoints.len(), 3);
        assert!(out.checkpoints.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn epsilon_one_uses_weight_sharing_derivation() {
        let task = tiny_task();
        let mut cfg = tiny_cfg(6);
        cfg.epsilon = 1.0;
        let out = sane_search(&task, &cfg);
        out.arch.validate();
        // α stayed uniform: every softmax entry near 1/11.
        for row in &out.alphas.node {
            for &p in row {
                assert!((p - 1.0 / 11.0).abs() < 1e-3, "alpha trained under ε=1: {p}");
            }
        }
    }

    /// The supernet's real mixed forward + loss must satisfy every op's
    /// declared shape/arity contract and leave no dead parameters: every
    /// `α` and every `w` recorded on the tape must receive gradient.
    #[test]
    fn supernet_mixed_tape_audits_clean() {
        let task = tiny_task();
        let cfg = tiny_cfg(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = VarStore::new();
        let net = Supernet::new(
            cfg.supernet.clone(),
            task.feature_dim(),
            task.num_outputs(),
            &mut store,
            &mut rng,
        );
        let (tape, loss) = mixed_loss_tape(&task, &net, &store, Split::Train, cfg.seed, 0);
        let grads = tape.backward(loss);
        let report = tape.audit_with_gradients(loss, Some(&store), &grads);
        assert!(report.is_clean(), "supernet tape has findings:\n{report}");
        // Shared inputs (features, per-layer hidden states) feed several
        // mixture branches, so accumulation points must exist.
        assert!(report.fan.accumulation_points > 0, "{report}");
        assert_eq!(report.reachable_nodes, report.num_nodes, "{report}");
    }

    /// A train-mode step of the derived architecture, dropout on, must
    /// audit clean too: it is the tape shape of retraining after the search.
    #[test]
    fn derived_train_step_tape_audits_clean() {
        use sane_gnn::{GnnModel, ModelHyper};
        let task = Task::node(CitationConfig::cora().scaled(0.05).with_seed(7).generate());
        let t = node_task_of(&task).expect("a node task");
        let hidden = 16;
        let mut store = VarStore::new();
        let net = Supernet::new(
            SupernetConfig { hidden, ..SupernetConfig::default() },
            task.feature_dim(),
            task.num_outputs(),
            &mut store,
            &mut StdRng::seed_from_u64(7),
        );
        let hyper = ModelHyper { hidden, ..ModelHyper::default() };
        assert!(hyper.dropout > 0.0);
        let mut model_store = VarStore::new();
        let model = GnnModel::new(
            net.derive(&store),
            task.feature_dim(),
            task.num_outputs(),
            hyper,
            &mut model_store,
            &mut StdRng::seed_from_u64(8),
        );
        let nodes = |training: bool| {
            let mut tape = Tape::new(7);
            let x = tape.input(Arc::clone(&t.data.features));
            let logits = model.forward(&mut tape, &model_store, &t.ctx, x, training);
            let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
            let report = tape.audit(loss, Some(&model_store));
            assert!(
                report.is_clean(),
                "derived tape (training: {training}) has findings:\n{report}"
            );
            report.num_nodes
        };
        assert!(nodes(true) > nodes(false), "train mode must record the dropout ops");
    }

    /// The α step's pruned sweep must hand Adam exactly the α gradients
    /// the full sweep computes, at every worker count, and form no weight
    /// gradient at all.
    #[test]
    fn alpha_only_sweep_matches_full_sweep_bitwise() {
        use sane_autodiff::parallel::with_threads;
        let task = tiny_task();
        let cfg = tiny_cfg(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = VarStore::new();
        let net = Supernet::new(
            cfg.supernet.clone(),
            task.feature_dim(),
            task.num_outputs(),
            &mut store,
            &mut rng,
        );
        let (tape, loss) = mixed_loss_tape(&task, &net, &store, Split::Val, cfg.seed, 0);
        for threads in [1usize, 2, 4] {
            let (full, alpha) = with_threads(threads, || {
                (tape.backward(loss), tape.backward_wrt(loss, net.alpha_params()))
            });
            for &id in net.alpha_params() {
                let f = full.get(id).expect("α reaches the loss");
                let a = alpha.get(id).unwrap_or_else(|| panic!("{threads} threads: no {id:?}"));
                assert_eq!(a.data(), f.data(), "{threads} threads: α {id:?} diverged");
            }
            for &id in net.weight_params() {
                assert!(alpha.get(id).is_none(), "{threads} threads: weight {id:?} got a gradient");
            }
            full.recycle();
            alpha.recycle();
        }
    }

    #[test]
    fn audit_flag_does_not_disturb_search() {
        let task = tiny_task();
        let mut cfg = tiny_cfg(4);
        cfg.audit_every = 2;
        let audited = sane_search(&task, &cfg);
        let plain = sane_search(&task, &tiny_cfg(4));
        assert_eq!(audited.arch, plain.arch, "auditing changed the search result");
    }

    #[test]
    fn search_is_deterministic_by_seed() {
        let task = tiny_task();
        let a = sane_search(&task, &tiny_cfg(6));
        let b = sane_search(&task, &tiny_cfg(6));
        assert_eq!(a.arch, b.arch);
    }

    #[test]
    fn second_order_search_runs_and_derives() {
        let task = tiny_task();
        let mut cfg = tiny_cfg(6);
        cfg.xi = cfg.lr_w;
        let out = sane_search(&task, &cfg);
        out.arch.validate();
        // The second-order correction must leave α finite and normalised.
        for row in out.alphas.node.iter().chain(out.alphas.skip.iter()) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(row.iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn second_order_differs_from_first_order() {
        let task = tiny_task();
        let first = sane_search(&task, &tiny_cfg(10));
        let mut cfg2 = tiny_cfg(10);
        cfg2.xi = 0.1;
        let second = sane_search(&task, &cfg2);
        // The α trajectories must diverge (the final snapshots differ),
        // even if the derived argmax architecture happens to coincide.
        assert_ne!(
            format!("{:?}", first.alphas.node),
            format!("{:?}", second.alphas.node),
            "ξ > 0 had no effect on the α trajectory"
        );
    }
}
