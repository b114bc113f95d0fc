//! Training and evaluation loops shared by every searcher.
//!
//! The loops are generic over a [`NodeModel`] so the same machinery trains
//! (a) discrete [`Architecture`]s, (b) the GraphNAS per-layer-dimension
//! models of Table IX and (c) supernet-sampled paths. Transductive tasks
//! use full-batch training with masked cross-entropy; inductive
//! (multi-graph) tasks iterate the training graphs each epoch and use
//! multi-label BCE with micro-F1.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sane_autodiff::metrics::{accuracy, micro_f1};
use sane_autodiff::optim::Adam;
use sane_autodiff::{Tape, Tensor, VarStore};
use sane_data::{MultiGraphDataset, NodeDataset};
use sane_gnn::{Architecture, GnnModel, GraphContext, ModelHyper};
use sane_telemetry as tel;

use crate::obs;

/// A prepared task: dataset plus precomputed graph contexts.
#[derive(Clone)]
pub enum Task {
    /// Transductive node classification (Cora / CiteSeer / PubMed-like).
    Node(Arc<NodeTask>),
    /// Inductive multi-graph, multi-label classification (PPI-like).
    Multi(Arc<MultiTask>),
}

/// Transductive task state.
pub struct NodeTask {
    /// The dataset.
    pub data: NodeDataset,
    /// Precomputed aggregation operators.
    pub ctx: GraphContext,
}

/// Inductive task state.
pub struct MultiTask {
    /// The dataset.
    pub data: MultiGraphDataset,
    /// One context per graph (same order as `data.graphs`).
    pub ctxs: Vec<GraphContext>,
}

impl Task {
    /// Prepares a transductive task.
    pub fn node(data: NodeDataset) -> Self {
        let ctx = GraphContext::new(&data.graph);
        Task::Node(Arc::new(NodeTask { data, ctx }))
    }

    /// Prepares an inductive task.
    pub fn multi(data: MultiGraphDataset) -> Self {
        let ctxs = data.graphs.iter().map(|g| GraphContext::new(&g.graph)).collect();
        Task::Multi(Arc::new(MultiTask { data, ctxs }))
    }

    /// Task name (dataset name).
    pub fn name(&self) -> &str {
        match self {
            Task::Node(t) => &t.data.name,
            Task::Multi(t) => &t.data.name,
        }
    }

    /// Input feature dimension.
    pub fn feature_dim(&self) -> usize {
        match self {
            Task::Node(t) => t.data.feature_dim(),
            Task::Multi(t) => t.data.feature_dim(),
        }
    }

    /// Output dimension (classes or labels).
    pub fn num_outputs(&self) -> usize {
        match self {
            Task::Node(t) => t.data.num_classes,
            Task::Multi(t) => t.data.num_labels,
        }
    }

    /// True for multi-label (BCE / micro-F1) tasks.
    pub fn is_multilabel(&self) -> bool {
        matches!(self, Task::Multi(_))
    }
}

/// Anything that maps node features to logits on a tape.
pub trait NodeModel {
    /// Records the forward pass and returns `n x num_outputs` logits.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        ctx: &GraphContext,
        features: Tensor,
        training: bool,
    ) -> Tensor;
}

impl NodeModel for GnnModel {
    fn forward(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        ctx: &GraphContext,
        features: Tensor,
        training: bool,
    ) -> Tensor {
        GnnModel::forward(self, tape, store, ctx, features, training)
    }
}

/// Optimisation settings for one training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
    /// Early-stopping patience in evaluation rounds (0 disables).
    pub patience: usize,
    /// Evaluate every `eval_every` epochs.
    pub eval_every: usize,
    /// Audit the training tape every this many epochs and emit the
    /// [`sane_autodiff::TapeReport`] as a `train.audit` telemetry event
    /// (0 disables). Debug aid for shape drift, dead parameters and NaN
    /// onset.
    pub audit_every: usize,
    /// RNG seed (weight init and dropout).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 120,
            lr: 5e-3,
            weight_decay: 5e-4,
            patience: 10,
            eval_every: 2,
            audit_every: 0,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// Epochs that must elapse before early stopping may fire. BCE-trained
    /// multi-label models predict *nothing* during the first epochs (all
    /// logits start negative for sparse labels), so a flat early metric
    /// must not abort the run.
    pub(crate) fn min_epochs(&self) -> usize {
        (self.epochs / 4).max(self.patience * self.eval_every.max(1))
    }
}

/// Result of training one model once.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    /// Best validation metric observed.
    pub val_metric: f64,
    /// Test metric at the best-validation epoch.
    pub test_metric: f64,
    /// Epochs actually run (early stopping may cut this short).
    pub epochs_run: usize,
}

/// Trains any [`NodeModel`] whose parameters live in `store`.
pub fn train_model(
    task: &Task,
    model: &dyn NodeModel,
    store: &mut VarStore,
    cfg: &TrainConfig,
) -> TrainOutcome {
    match task {
        Task::Node(t) => train_transductive(t, model, store, cfg),
        Task::Multi(t) => train_inductive(t, model, store, cfg),
    }
}

/// Builds a [`GnnModel`] for `task` from `arch` + `hyper`, trains it and
/// returns the outcome. This is the evaluation oracle of the paper's
/// trial-and-error searchers.
pub fn train_architecture(
    task: &Task,
    arch: &Architecture,
    hyper: &ModelHyper,
    cfg: &TrainConfig,
) -> TrainOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    let model = GnnModel::new(
        arch.clone(),
        task.feature_dim(),
        task.num_outputs(),
        hyper.clone(),
        &mut store,
        &mut rng,
    );
    train_model(task, &model, &mut store, cfg)
}

fn train_transductive(
    t: &NodeTask,
    model: &dyn NodeModel,
    store: &mut VarStore,
    cfg: &TrainConfig,
) -> TrainOutcome {
    let mut opt = Adam::new(cfg.lr, cfg.weight_decay);
    let mut best_val = f64::NEG_INFINITY;
    let mut test_at_best = 0.0;
    let mut since_best = 0usize;
    let mut epochs_run = 0;
    let _span = tel::phase_span_with("train", "train", &[("task", t.data.name.as_str().into())]);
    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        let mut tape = Tape::new(cfg.seed.wrapping_add(epoch as u64 + 1));
        let x = tape.input(Arc::clone(&t.data.features));
        let logits = model.forward(&mut tape, store, &t.ctx, x, true);
        let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
        let loss_value = tape.value(loss).as_scalar();
        let mut grads = tape.backward(loss);
        if cfg.audit_every > 0 && (epoch + 1) % cfg.audit_every == 0 {
            let report = tape.audit_with_gradients(loss, Some(store), &grads);
            obs::record_audit("train.audit", epoch, &report);
        }
        let grad_norm = grads.clip_global_norm(5.0);
        // Dropped before the update, the tape no longer shares the weights'
        // buffers, so the optimizer writes in place instead of cloning.
        drop(tape);
        opt.step(store, &grads);
        grads.recycle();
        tel::debug(
            "train.epoch",
            &[
                ("epoch", epoch.into()),
                ("loss", loss_value.into()),
                ("grad_norm", grad_norm.into()),
                ("lr", cfg.lr.into()),
            ],
        );

        if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
            let mut eval = Tape::new(0);
            let x = eval.input(Arc::clone(&t.data.features));
            let logits = model.forward(&mut eval, store, &t.ctx, x, false);
            let lv = eval.value(logits);
            let val = accuracy(lv, &t.data.labels, &t.data.val);
            let improved = val > best_val;
            tel::debug(
                "train.eval",
                &[
                    ("epoch", epoch.into()),
                    ("val_metric", val.into()),
                    ("improved", improved.into()),
                ],
            );
            if improved {
                best_val = val;
                test_at_best = accuracy(lv, &t.data.labels, &t.data.test);
                since_best = 0;
            } else {
                since_best += 1;
                if cfg.patience > 0 && since_best >= cfg.patience && epoch + 1 >= cfg.min_epochs() {
                    break;
                }
            }
        }
    }
    TrainOutcome { val_metric: best_val.max(0.0), test_metric: test_at_best, epochs_run }
}

/// Mean per-graph micro-F1 of `model` over a set of graphs (macro over
/// graphs, micro within each graph).
pub fn eval_inductive(
    t: &MultiTask,
    model: &dyn NodeModel,
    store: &VarStore,
    graph_ids: &[usize],
) -> f64 {
    let mut scores = Vec::with_capacity(graph_ids.len());
    for &gi in graph_ids {
        let g = &t.data.graphs[gi];
        let mut tape = Tape::new(0);
        let x = tape.input(Arc::clone(&g.features));
        let logits = model.forward(&mut tape, store, &t.ctxs[gi], x, false);
        let rows: Vec<u32> = (0..g.graph.num_nodes() as u32).collect();
        scores.push(micro_f1(tape.value(logits), &g.targets, &rows));
    }
    scores.iter().sum::<f64>() / scores.len().max(1) as f64
}

fn train_inductive(
    t: &MultiTask,
    model: &dyn NodeModel,
    store: &mut VarStore,
    cfg: &TrainConfig,
) -> TrainOutcome {
    let mut opt = Adam::new(cfg.lr, cfg.weight_decay);
    let mut best_val = f64::NEG_INFINITY;
    let mut test_at_best = 0.0;
    let mut since_best = 0usize;
    let mut epochs_run = 0;
    let _span = tel::phase_span_with("train", "train", &[("task", t.data.name.as_str().into())]);
    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        let mut epoch_loss = 0.0f64;
        let mut epoch_grad_norm = 0.0f64;
        for &gi in &t.data.train_graphs {
            let g = &t.data.graphs[gi];
            let mut tape = Tape::new(cfg.seed.wrapping_add((epoch * 131 + gi) as u64));
            let x = tape.input(Arc::clone(&g.features));
            let logits = model.forward(&mut tape, store, &t.ctxs[gi], x, true);
            let rows = g.all_nodes();
            let loss = tape.bce_with_logits(logits, &g.targets, &rows);
            epoch_loss += f64::from(tape.value(loss).as_scalar());
            let mut grads = tape.backward(loss);
            if cfg.audit_every > 0 && (epoch + 1) % cfg.audit_every == 0 {
                let report = tape.audit_with_gradients(loss, Some(store), &grads);
                obs::record_audit("train.audit", epoch, &report);
            }
            epoch_grad_norm += f64::from(grads.clip_global_norm(5.0));
            drop(tape);
            opt.step(store, &grads);
            grads.recycle();
        }
        let graphs = t.data.train_graphs.len().max(1) as f64;
        tel::debug(
            "train.epoch",
            &[
                ("epoch", epoch.into()),
                ("loss", (epoch_loss / graphs).into()),
                ("grad_norm", (epoch_grad_norm / graphs).into()),
                ("lr", cfg.lr.into()),
            ],
        );

        if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
            let val = eval_inductive(t, model, store, &t.data.val_graphs);
            let improved = val > best_val;
            tel::debug(
                "train.eval",
                &[
                    ("epoch", epoch.into()),
                    ("val_metric", val.into()),
                    ("improved", improved.into()),
                ],
            );
            if improved {
                best_val = val;
                test_at_best = eval_inductive(t, model, store, &t.data.test_graphs);
                since_best = 0;
            } else {
                since_best += 1;
                if cfg.patience > 0 && since_best >= cfg.patience && epoch + 1 >= cfg.min_epochs() {
                    break;
                }
            }
        }
    }
    TrainOutcome { val_metric: best_val.max(0.0), test_metric: test_at_best, epochs_run }
}

/// Trains an architecture `repeats` times with different seeds and returns
/// the per-run test metrics (the paper reports mean ± std over 5 runs).
pub fn repeated_test_metrics(
    task: &Task,
    arch: &Architecture,
    hyper: &ModelHyper,
    cfg: &TrainConfig,
    repeats: usize,
) -> Vec<f64> {
    (0..repeats)
        .map(|r| {
            let run_cfg =
                TrainConfig { seed: cfg.seed.wrapping_add(1000 + r as u64), ..cfg.clone() };
            train_architecture(task, arch, hyper, &run_cfg).test_metric
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sane_data::{CitationConfig, PpiConfig};
    use sane_gnn::NodeAggKind;

    fn tiny_node_task() -> Task {
        Task::node(CitationConfig::cora().scaled(0.03).generate())
    }

    #[test]
    fn gcn_learns_tiny_citation_graph() {
        let task = tiny_node_task();
        let arch = Architecture::uniform(NodeAggKind::Gcn, 2, None);
        let hyper = ModelHyper { hidden: 16, ..ModelHyper::default() };
        let cfg = TrainConfig { epochs: 60, patience: 0, ..TrainConfig::default() };
        let out = train_architecture(&task, &arch, &hyper, &cfg);
        // 7 classes => random is ~0.14; learning must beat it clearly.
        assert!(out.val_metric > 0.4, "val {}", out.val_metric);
        assert!(out.test_metric > 0.3, "test {}", out.test_metric);
    }

    #[test]
    fn early_stopping_cuts_epochs() {
        let task = tiny_node_task();
        let arch = Architecture::uniform(NodeAggKind::SageMean, 1, None);
        let hyper = ModelHyper { hidden: 8, ..ModelHyper::default() };
        let cfg = TrainConfig { epochs: 300, patience: 3, eval_every: 1, ..TrainConfig::default() };
        let out = train_architecture(&task, &arch, &hyper, &cfg);
        assert!(out.epochs_run < 300, "early stopping never triggered");
    }

    #[test]
    fn inductive_training_beats_empty_prediction() {
        let data = PpiConfig { num_graphs: 4, ..PpiConfig::ppi().scaled(0.03) }.generate();
        let task = Task::multi(data);
        let arch = Architecture::uniform(NodeAggKind::SageSum, 2, None);
        let hyper = ModelHyper { hidden: 16, dropout: 0.2, ..ModelHyper::default() };
        let cfg = TrainConfig { epochs: 40, patience: 0, ..TrainConfig::default() };
        let out = train_architecture(&task, &arch, &hyper, &cfg);
        assert!(out.test_metric > 0.3, "micro-F1 {}", out.test_metric);
    }

    /// A real GNN training tape must satisfy every op's declared contract:
    /// training with periodic audits enabled must match an unaudited run.
    #[test]
    fn audit_flag_does_not_disturb_training() {
        let task = tiny_node_task();
        let arch = Architecture::uniform(NodeAggKind::Gat, 2, Some(sane_gnn::LayerAggKind::Concat));
        let hyper = ModelHyper { hidden: 8, ..ModelHyper::default() };
        let plain_cfg = TrainConfig { epochs: 6, ..TrainConfig::default() };
        let audit_cfg = TrainConfig { audit_every: 3, ..plain_cfg.clone() };
        let plain = train_architecture(&task, &arch, &hyper, &plain_cfg);
        let audited = train_architecture(&task, &arch, &hyper, &audit_cfg);
        assert_eq!(plain.val_metric, audited.val_metric);
        assert_eq!(plain.test_metric, audited.test_metric);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let task = tiny_node_task();
        let arch = Architecture::uniform(NodeAggKind::Gcn, 2, None);
        let hyper = ModelHyper { hidden: 8, ..ModelHyper::default() };
        let cfg = TrainConfig { epochs: 10, ..TrainConfig::default() };
        let a = train_architecture(&task, &arch, &hyper, &cfg);
        let b = train_architecture(&task, &arch, &hyper, &cfg);
        assert_eq!(a.val_metric, b.val_metric);
        assert_eq!(a.test_metric, b.test_metric);
    }

    #[test]
    fn repeated_metrics_vary_with_seed() {
        let task = tiny_node_task();
        let arch = Architecture::uniform(NodeAggKind::Gcn, 1, None);
        let hyper = ModelHyper { hidden: 8, ..ModelHyper::default() };
        let cfg = TrainConfig { epochs: 8, ..TrainConfig::default() };
        let runs = repeated_test_metrics(&task, &arch, &hyper, &cfg, 3);
        assert_eq!(runs.len(), 3);
    }
}
