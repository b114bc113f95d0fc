//! Whole-graph classification — the paper's future-work extension
//! (Section V): the SANE search space augmented with searchable **graph
//! pooling** ops, plus trainers and a differentiable supernet for the
//! graph-level task.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use sane_autodiff::metrics::argmax_row;
use sane_autodiff::optim::Adam;
use sane_autodiff::{glorot_init, Matrix, ParamId, Tape, Tensor, VarStore};
use sane_data::GraphClsDataset;
use sane_gnn::{
    Architecture, GraphClsModel, GraphContext, GraphPooling, Linear, ModelHyper, PoolingKind,
};

use crate::space::{CategoricalSpace, SaneSpace};
use crate::supernet::{Supernet, SupernetConfig};
use crate::train::{TrainConfig, TrainOutcome};

/// A prepared graph-classification task.
pub struct GraphClsTask {
    /// The dataset.
    pub data: GraphClsDataset,
    /// One context per graph.
    pub ctxs: Vec<GraphContext>,
}

impl GraphClsTask {
    /// Builds contexts for every graph.
    pub fn new(data: GraphClsDataset) -> Self {
        let ctxs = data.graphs.iter().map(|g| GraphContext::new(&g.graph)).collect();
        Self { data, ctxs }
    }
}

/// The extended genotype: a node-level architecture plus a pooling readout.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphClsGenotype {
    /// The node-embedding architecture.
    pub arch: Architecture,
    /// The pooling readout.
    pub pooling: PoolingKind,
}

impl GraphClsGenotype {
    /// Human-readable description.
    pub fn describe(&self) -> String {
        format!("{} pooling={}", self.arch.describe(), self.pooling.name())
    }
}

/// The extended search space: `SaneSpace x O_p`
/// (`11^K · 2^K · 3 · 4` architectures).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphClsSpace {
    /// Number of GNN layers `K`.
    pub k: usize,
}

impl GraphClsSpace {
    /// The categorical encoding: the SANE dims plus one pooling dim.
    pub fn space(&self) -> CategoricalSpace {
        let mut dims = SaneSpace { k: self.k }.space().dims;
        dims.push(PoolingKind::ALL.len());
        CategoricalSpace::new(dims)
    }

    /// Decodes a genome.
    pub fn decode(&self, genome: &[usize]) -> GraphClsGenotype {
        self.space().check(genome);
        let arch = SaneSpace { k: self.k }.decode(&genome[..genome.len() - 1]);
        GraphClsGenotype { arch, pooling: PoolingKind::ALL[genome[genome.len() - 1]] }
    }
}

/// Mini-batch size (graphs per optimisation step).
const BATCH: usize = 16;

fn eval_split(
    task: &GraphClsTask,
    model: &GraphClsModel,
    store: &VarStore,
    split: &[usize],
) -> f64 {
    let mut correct = 0usize;
    for &gi in split {
        let g = &task.data.graphs[gi];
        let mut tape = Tape::new(0);
        let x = tape.input(Arc::clone(&g.features));
        let logits = model.forward(&mut tape, store, &task.ctxs[gi], x, false);
        if argmax_row(tape.value(logits).row(0)) == g.label as usize {
            correct += 1;
        }
    }
    correct as f64 / split.len().max(1) as f64
}

/// Trains a graph classifier and reports validation/test accuracy at the
/// best-validation epoch.
pub fn train_graph_classifier(
    task: &GraphClsTask,
    genotype: &GraphClsGenotype,
    hyper: &ModelHyper,
    cfg: &TrainConfig,
) -> TrainOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    let model = GraphClsModel::new(
        genotype.arch.clone(),
        genotype.pooling,
        task.data.feature_dim,
        task.data.num_classes,
        hyper.clone(),
        &mut store,
        &mut rng,
    );
    let mut opt = Adam::new(cfg.lr, cfg.weight_decay);

    let mut best_val = f64::NEG_INFINITY;
    let mut test_at_best = 0.0;
    let mut since_best = 0usize;
    let mut epochs_run = 0;
    let mut order_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5A11);
    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        // Shuffle so mini-batches mix classes (the split lists graphs in
        // class-sorted order).
        let mut order = task.data.train.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rand::Rng::gen_range(&mut order_rng, 0..=i));
        }
        for (b, batch) in order.chunks(BATCH).enumerate() {
            let mut tape = Tape::new(cfg.seed.wrapping_add((epoch * 977 + b) as u64));
            let mut rows = Vec::with_capacity(batch.len());
            for &gi in batch {
                let g = &task.data.graphs[gi];
                let x = tape.input(Arc::clone(&g.features));
                rows.push(model.forward(&mut tape, &store, &task.ctxs[gi], x, true));
            }
            // Stack the per-graph logit rows; CE over the batch.
            let logits = if rows.len() == 1 { rows[0] } else { stack_rows(&mut tape, &rows) };
            let labels =
                Arc::new(batch.iter().map(|&gi| task.data.graphs[gi].label).collect::<Vec<_>>());
            let idx = Arc::new((0..batch.len() as u32).collect::<Vec<_>>());
            let loss = tape.cross_entropy(logits, &labels, &idx);
            let mut grads = tape.backward(loss);
            grads.clip_global_norm(5.0);
            // Free the weights' buffers for an in-place update.
            drop(tape);
            opt.step(&mut store, &grads);
            grads.recycle();
        }
        if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
            let val = eval_split(task, &model, &store, &task.data.val);
            if val > best_val {
                best_val = val;
                test_at_best = eval_split(task, &model, &store, &task.data.test);
                since_best = 0;
            } else {
                since_best += 1;
                if cfg.patience > 0 && since_best >= cfg.patience && epoch + 1 >= cfg.epochs / 4 {
                    break;
                }
            }
        }
    }
    TrainOutcome { val_metric: best_val.max(0.0), test_metric: test_at_best, epochs_run }
}

/// Vertically stacks `1 x c` rows into an `m x c` matrix. Implemented with
/// per-row scatter through gather indices (differentiable by composition).
fn stack_rows(tape: &mut Tape, rows: &[Tensor]) -> Tensor {
    // Concatenate along columns after transposing is wasteful; instead sum
    // padded one-hot placements. For the small batch sizes used here a
    // simpler construction works: concat columns of transposed rows is not
    // available, so place each row by multiplying a fixed m x 1 indicator.
    let m = rows.len();
    let mut acc: Option<Tensor> = None;
    for (i, &row) in rows.iter().enumerate() {
        let mut indicator = Matrix::zeros(m, 1);
        indicator.set(i, 0, 1.0);
        let ind = tape.constant(indicator);
        let placed = tape.matmul(ind, row);
        acc = Some(match acc {
            Some(a) => tape.add(a, placed),
            None => placed,
        });
    }
    acc.expect("rows is non-empty") // lint:allow(expect) -- rows is non-empty
}

/// Configuration of the differentiable graph-classification search.
#[derive(Clone, Debug)]
pub struct GraphClsSearchConfig {
    /// Supernet shape.
    pub supernet: SupernetConfig,
    /// Search epochs.
    pub epochs: usize,
    /// Learning rate for `w`.
    pub lr_w: f32,
    /// Learning rate for `α` (including the pooling mixture).
    pub lr_alpha: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GraphClsSearchConfig {
    fn default() -> Self {
        Self {
            supernet: SupernetConfig { k: 2, hidden: 16, dropout: 0.2, ..Default::default() },
            epochs: 40,
            lr_w: 5e-3,
            lr_alpha: 3e-3,
            seed: 0,
        }
    }
}

/// Differentiable search over architecture *and* pooling: the node-level
/// supernet produces embeddings, four pooling candidates are mixed by a
/// softmaxed `α_p`, and the bi-level alternation of Algorithm 1 runs on
/// batched graph-level losses.
pub fn graphcls_search(task: &GraphClsTask, cfg: &GraphClsSearchConfig) -> GraphClsGenotype {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    let hidden = cfg.supernet.hidden;
    // The supernet's classifier head becomes a projection to `hidden`.
    let net =
        Supernet::new(cfg.supernet.clone(), task.data.feature_dim, hidden, &mut store, &mut rng);
    let poolings: Vec<GraphPooling> = PoolingKind::ALL
        .iter()
        .map(|&k| GraphPooling::new(k, &mut store, &mut rng, hidden))
        .collect();
    let alpha_pool =
        store.add("alpha_pool", Matrix::from_fn(1, PoolingKind::ALL.len(), |_, _| 0.0));
    let classifier =
        Linear::new(&mut store, &mut rng, "graphcls.head", hidden, task.data.num_classes);

    let mut w_params: Vec<ParamId> = net.weight_params().to_vec();
    for p in &poolings {
        w_params.extend(p.params());
    }
    w_params.extend(classifier.params());
    let mut alpha_params: Vec<ParamId> = net.alpha_params().to_vec();
    alpha_params.push(alpha_pool);

    let mut opt_w = Adam::new(cfg.lr_w, 1e-4);
    let mut opt_alpha = Adam::new(cfg.lr_alpha, 1e-3);

    // Mixed forward for one graph: supernet embeddings -> mixed pooling ->
    // classifier logits (1 x C).
    let forward_one = |tape: &mut Tape, store: &VarStore, gi: usize, training: bool| -> Tensor {
        let g = &task.data.graphs[gi];
        let x = tape.input(Arc::clone(&g.features));
        let emb = net.forward_mixed(tape, store, &task.ctxs[gi], x, training);
        let ap = tape.param(store, alpha_pool);
        let wp = tape.softmax_rows(ap);
        let pooled: Vec<Tensor> = poolings.iter().map(|p| p.forward(tape, store, emb)).collect();
        let mixed = tape.mix(wp, &pooled);
        classifier.forward(tape, store, mixed)
    };

    let batch_grads = |store: &VarStore, split: &[usize], seed: u64| {
        let mut tape = Tape::new(seed);
        let batch: Vec<usize> = split.iter().copied().take(BATCH).collect();
        let rows: Vec<Tensor> =
            batch.iter().map(|&gi| forward_one(&mut tape, store, gi, true)).collect();
        let logits = if rows.len() == 1 { rows[0] } else { stack_rows(&mut tape, &rows) };
        let labels =
            Arc::new(batch.iter().map(|&gi| task.data.graphs[gi].label).collect::<Vec<_>>());
        let idx = Arc::new((0..batch.len() as u32).collect::<Vec<_>>());
        let loss = tape.cross_entropy(logits, &labels, &idx);
        tape.backward(loss)
    };

    for epoch in 0..cfg.epochs {
        // Rotate which slice of each split forms the step's batch.
        let rot = |split: &[usize], e: usize| -> Vec<usize> {
            let mut v = split.to_vec();
            let shift = (e * BATCH) % v.len().max(1);
            v.rotate_left(shift);
            v
        };
        let val_batch = rot(&task.data.val, epoch);
        let grads = batch_grads(&store, &val_batch, cfg.seed ^ (epoch as u64) << 1);
        opt_alpha.step_subset(&mut store, &grads, &alpha_params);
        grads.recycle();

        let train_batch = rot(&task.data.train, epoch);
        let mut grads = batch_grads(&store, &train_batch, cfg.seed ^ ((epoch as u64) << 1 | 1));
        grads.clip_global_norm(5.0);
        opt_w.step_subset(&mut store, &grads, &w_params);
        grads.recycle();
    }

    let arch = net.derive(&store);
    let pooling = PoolingKind::ALL[argmax_row(store.value(alpha_pool).row(0))];
    GraphClsGenotype { arch, pooling }
}

/// Seeded helper mirroring `glorot_init` for external callers building
/// custom graph-level heads.
pub fn init_readout(dim: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    glorot_init(dim, 1, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sane_data::GraphClsConfig;
    use sane_gnn::NodeAggKind;

    fn tiny_task() -> GraphClsTask {
        GraphClsTask::new(GraphClsConfig::topology().scaled(0.12).generate())
    }

    #[test]
    fn space_size_is_sane_times_pooling() {
        let s = GraphClsSpace { k: 3 };
        assert_eq!(s.space().size(), 31_944 * 4);
        let genome = vec![0usize; 2 * 3 + 1 + 1];
        let g = s.decode(&genome);
        assert_eq!(g.pooling, PoolingKind::Sum);
        assert_eq!(g.arch.depth(), 3);
    }

    #[test]
    fn classifier_learns_topology_families() {
        let task = tiny_task();
        let genotype = GraphClsGenotype {
            arch: Architecture::uniform(NodeAggKind::Gin, 2, None),
            pooling: PoolingKind::Mean,
        };
        let hyper = ModelHyper { hidden: 16, dropout: 0.2, ..ModelHyper::default() };
        let cfg = TrainConfig { epochs: 40, patience: 0, ..TrainConfig::default() };
        let out = train_graph_classifier(&task, &genotype, &hyper, &cfg);
        // 3 balanced classes: random = 1/3. Topology families are easy for
        // a GIN + mean readout.
        assert!(out.val_metric > 0.55, "val acc {}", out.val_metric);
    }

    #[test]
    fn differentiable_search_returns_valid_genotype() {
        let task = tiny_task();
        let cfg = GraphClsSearchConfig { epochs: 6, ..Default::default() };
        let genotype = graphcls_search(&task, &cfg);
        genotype.arch.validate();
        assert!(PoolingKind::ALL.contains(&genotype.pooling));
        // Decode/encode through the categorical space roundtrips the arch.
        let space = GraphClsSpace { k: 2 };
        let mut genome = SaneSpace { k: 2 }.encode(&genotype.arch);
        genome.push(PoolingKind::ALL.iter().position(|&p| p == genotype.pooling).unwrap());
        assert_eq!(space.decode(&genome), genotype);
    }

    #[test]
    fn stack_rows_orders_and_grads() {
        let mut store = VarStore::new();
        let p = store.add("x", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut tape = Tape::new(0);
        let a = tape.param(&store, p);
        let b = tape.constant(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let stacked = stack_rows(&mut tape, &[a, b]);
        assert_eq!(tape.value(stacked).row(0), &[1.0, 2.0]);
        assert_eq!(tape.value(stacked).row(1), &[3.0, 4.0]);
        let loss = tape.sum_all(stacked);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(p).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn training_is_deterministic() {
        let task = tiny_task();
        let genotype = GraphClsGenotype {
            arch: Architecture::uniform(NodeAggKind::SageMean, 1, None),
            pooling: PoolingKind::Sum,
        };
        let hyper = ModelHyper { hidden: 8, dropout: 0.0, ..ModelHyper::default() };
        let cfg = TrainConfig { epochs: 6, ..TrainConfig::default() };
        let a = train_graph_classifier(&task, &genotype, &hyper, &cfg);
        let b = train_graph_classifier(&task, &genotype, &hyper, &cfg);
        assert_eq!(a.val_metric, b.val_metric);
    }
}
