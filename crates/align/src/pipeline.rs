//! Entity-alignment training pipelines: GCN-Align-style GNN alignment
//! (shared GNN weights over both KGs + margin ranking on seed links), the
//! JAPE-like translational baseline, and the SANE search restricted to the
//! DB-task protocol (2 layers, node aggregators only — Section IV-D).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sane_autodiff::optim::Adam;
use sane_autodiff::{glorot_init, EdgeIndex, ParamId, Tape, Tensor, VarStore};
use sane_core::supernet::{Supernet, SupernetConfig};
use sane_data::AlignmentDataset;
use sane_gnn::{Architecture, GnnModel, GraphContext, ModelHyper};

use crate::metrics::hits_both_directions;

/// The K values of Table VIII.
pub const HITS_KS: [usize; 3] = [1, 10, 50];

/// Training settings for alignment models.
#[derive(Clone, Debug)]
pub struct AlignTrainConfig {
    /// Output embedding dimension.
    pub embed_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Ranking margin γ.
    pub margin: f32,
    /// Negative samples per seed pair per direction.
    pub neg_samples: usize,
    /// Evaluate on validation pairs every this many epochs.
    pub eval_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlignTrainConfig {
    fn default() -> Self {
        Self {
            embed_dim: 64,
            epochs: 120,
            lr: 5e-3,
            weight_decay: 1e-4,
            margin: 3.0,
            neg_samples: 3,
            eval_every: 5,
            seed: 0,
        }
    }
}

/// Result of one alignment run.
#[derive(Clone, Debug)]
pub struct AlignOutcome {
    /// Best validation Hits@1 (percent).
    pub val_hits1: f64,
    /// Test Hits@{1,10,50} in the graph1→graph2 direction (percent).
    pub forward: Vec<f64>,
    /// Test Hits@{1,10,50} in the graph2→graph1 direction (percent).
    pub backward: Vec<f64>,
}

/// Prepared alignment task (contexts cached).
pub struct AlignTask {
    /// The dataset.
    pub data: AlignmentDataset,
    /// Context of graph 1.
    pub ctx1: GraphContext,
    /// Context of graph 2.
    pub ctx2: GraphContext,
}

impl AlignTask {
    /// Builds contexts for both views.
    pub fn new(data: AlignmentDataset) -> Self {
        let ctx1 = GraphContext::new(&data.graph1);
        let ctx2 = GraphContext::new(&data.graph2);
        Self { data, ctx1, ctx2 }
    }
}

/// Margin-ranking alignment loss with uniform negative sampling, recorded
/// on the tape. `emb1` / `emb2` are the two embedding tables.
fn margin_loss(
    tape: &mut Tape,
    emb1: Tensor,
    emb2: Tensor,
    pairs: &[(u32, u32)],
    margin: f32,
    neg_samples: usize,
    rng: &mut StdRng,
) -> Tensor {
    let n1 = tape.value(emb1).rows();
    let n2 = tape.value(emb2).rows();
    let p = pairs.len();
    let reps = neg_samples.max(1);
    let mut src_idx = Vec::with_capacity(p * reps);
    let mut dst_idx = Vec::with_capacity(p * reps);
    let mut neg1 = Vec::with_capacity(p * reps);
    let mut neg2 = Vec::with_capacity(p * reps);
    for &(a, b) in pairs {
        for _ in 0..reps {
            src_idx.push(a);
            dst_idx.push(b);
            neg1.push(rng.gen_range(0..n1) as u32);
            neg2.push(rng.gen_range(0..n2) as u32);
        }
    }
    let src_idx = Arc::new(EdgeIndex::new(src_idx));
    let dst_idx = Arc::new(EdgeIndex::new(dst_idx));
    let neg1 = Arc::new(EdgeIndex::new(neg1));
    let neg2 = Arc::new(EdgeIndex::new(neg2));

    let ea = tape.gather_rows(emb1, &src_idx);
    let eb = tape.gather_rows(emb2, &dst_idx);
    let d_pos = {
        let diff = tape.sub(ea, eb);
        let a = tape.abs(diff);
        tape.row_sum(a)
    };
    // Corrupt the target side.
    let en2 = tape.gather_rows(emb2, &neg2);
    let d_neg_t = {
        let diff = tape.sub(ea, en2);
        let a = tape.abs(diff);
        tape.row_sum(a)
    };
    // Corrupt the source side.
    let en1 = tape.gather_rows(emb1, &neg1);
    let d_neg_s = {
        let diff = tape.sub(en1, eb);
        let a = tape.abs(diff);
        tape.row_sum(a)
    };
    let hinge = |tape: &mut Tape, d_neg: Tensor| {
        let gap = tape.sub(d_pos, d_neg);
        let shifted = tape.add_scalar(gap, margin);
        let r = tape.relu(shifted);
        tape.mean_all(r)
    };
    let l_t = hinge(tape, d_neg_t);
    let l_s = hinge(tape, d_neg_s);
    let sum = tape.add(l_t, l_s);
    tape.scale(sum, 0.5)
}

/// An embedding producer: given a tape, yields the two embedding tables.
trait Embedder {
    fn embed(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        task: &AlignTask,
        training: bool,
    ) -> (Tensor, Tensor);
}

/// Shared-weight GNN embedder (GCN-Align generalised to any architecture).
struct GnnEmbedder<'a> {
    model: &'a GnnModel,
}

impl Embedder for GnnEmbedder<'_> {
    fn embed(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        task: &AlignTask,
        training: bool,
    ) -> (Tensor, Tensor) {
        let x1 = tape.input(Arc::clone(&task.data.features1));
        let x2 = tape.input(Arc::clone(&task.data.features2));
        let e1 = self.model.forward(tape, store, &task.ctx1, x1, training);
        let e2 = self.model.forward(tape, store, &task.ctx2, x2, training);
        (e1, e2)
    }
}

/// Free embedding tables with a structure-preservation term — the
/// JAPE-like baseline (no message passing).
struct TableEmbedder {
    e1: ParamId,
    e2: ParamId,
}

impl Embedder for TableEmbedder {
    fn embed(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        _task: &AlignTask,
        _training: bool,
    ) -> (Tensor, Tensor) {
        (tape.param(store, self.e1), tape.param(store, self.e2))
    }
}

/// An optional extra loss term added to the margin objective each epoch
/// (used by the refinement stage).
type ExtraLoss<'a> = &'a mut dyn FnMut(&mut Tape, Tensor, Tensor, &mut StdRng) -> Tensor;

/// Shared training loop: margin loss on train pairs, Hits@1 model selection
/// on validation pairs, Table VIII Hits on test pairs at the best epoch.
fn run_alignment(
    task: &AlignTask,
    embedder: &dyn Embedder,
    store: &mut VarStore,
    cfg: &AlignTrainConfig,
    mut extra_loss: Option<ExtraLoss<'_>>,
) -> AlignOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(77));
    let mut opt = Adam::new(cfg.lr, cfg.weight_decay);
    let mut best_val = f64::NEG_INFINITY;
    let mut best_snapshot = store.snapshot();

    for epoch in 0..cfg.epochs {
        let mut tape = Tape::new(cfg.seed.wrapping_add(epoch as u64));
        let (e1, e2) = embedder.embed(&mut tape, store, task, true);
        let mut loss = margin_loss(
            &mut tape,
            e1,
            e2,
            &task.data.train_pairs,
            cfg.margin,
            cfg.neg_samples,
            &mut rng,
        );
        if let Some(extra) = extra_loss.as_deref_mut() {
            let aux = extra(&mut tape, e1, e2, &mut rng);
            loss = tape.add(loss, aux);
        }
        let mut grads = tape.backward(loss);
        grads.clip_global_norm(5.0);
        // Free the weights' buffers for an in-place update.
        drop(tape);
        opt.step(store, &grads);

        if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
            let mut eval = Tape::new(0);
            let (e1, e2) = embedder.embed(&mut eval, store, task, false);
            let hits = crate::metrics::hits_at_k(
                eval.value(e1),
                eval.value(e2),
                &task.data.val_pairs,
                &[1],
            );
            if hits[0] > best_val {
                best_val = hits[0];
                best_snapshot = store.snapshot();
            }
        }
    }

    store.restore(&best_snapshot);
    let mut eval = Tape::new(0);
    let (e1, e2) = embedder.embed(&mut eval, store, task, false);
    let (forward, backward) =
        hits_both_directions(eval.value(e1), eval.value(e2), &task.data.test_pairs, &HITS_KS);
    AlignOutcome { val_hits1: best_val, forward, backward }
}

/// Trains a GNN alignment model with the given architecture. GCN-Align is
/// `Architecture::uniform(NodeAggKind::Gcn, 2, None)`; SANE plugs in its
/// searched combination.
pub fn train_gnn_align(
    task: &AlignTask,
    arch: &Architecture,
    cfg: &AlignTrainConfig,
) -> AlignOutcome {
    assert_eq!(arch.layer_agg, None, "the DB task removes the layer aggregator (Section IV-D)");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    let hyper =
        ModelHyper { hidden: cfg.embed_dim, heads: 1, dropout: 0.2, ..ModelHyper::default() };
    let model = GnnModel::new(
        arch.clone(),
        task.data.features1.cols(),
        cfg.embed_dim,
        hyper,
        &mut store,
        &mut rng,
    );
    let embedder = GnnEmbedder { model: &model };
    run_alignment(task, &embedder, &mut store, cfg, None)
}

/// Trains the JAPE-like baseline: free per-entity embeddings with the same
/// margin-ranking objective plus a neighbor-closeness structure term.
pub fn train_jape_like(task: &AlignTask, cfg: &AlignTrainConfig) -> AlignOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    let d = cfg.embed_dim;
    let n1 = task.data.graph1.num_nodes();
    let n2 = task.data.graph2.num_nodes();
    let e1 = store.add("jape.e1", glorot_init(n1, d, &mut rng));
    let e2 = store.add("jape.e2", glorot_init(n2, d, &mut rng));
    let embedder = TableEmbedder { e1, e2 };

    // Structure preservation: pull sampled edge endpoints together.
    let edges1: Vec<(u32, u32)> = task.data.graph1.edges().collect();
    let edges2: Vec<(u32, u32)> = task.data.graph2.edges().collect();
    let sample_edges = 512usize;
    let mut structure = move |tape: &mut Tape, t1: Tensor, t2: Tensor, rng: &mut StdRng| {
        let pull = |tape: &mut Tape, emb: Tensor, edges: &[(u32, u32)], rng: &mut StdRng| {
            let mut us = Vec::with_capacity(sample_edges);
            let mut vs = Vec::with_capacity(sample_edges);
            for _ in 0..sample_edges.min(edges.len()) {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                us.push(u);
                vs.push(v);
            }
            let us = Arc::new(EdgeIndex::new(us));
            let vs = Arc::new(EdgeIndex::new(vs));
            let eu = tape.gather_rows(emb, &us);
            let ev = tape.gather_rows(emb, &vs);
            let diff = tape.sub(eu, ev);
            let a = tape.abs(diff);
            let rs = tape.row_sum(a);
            tape.mean_all(rs)
        };
        let s1 = pull(tape, t1, &edges1, rng);
        let s2 = pull(tape, t2, &edges2, rng);
        let sum = tape.add(s1, s2);
        tape.scale(sum, 0.05)
    };
    run_alignment(task, &embedder, &mut store, cfg, Some(&mut structure))
}

/// SANE search settings for the DB task.
#[derive(Clone, Debug)]
pub struct AlignSearchConfig {
    /// Layers (the paper uses 2 for this task).
    pub k: usize,
    /// Supernet hidden width = embedding dim during search.
    pub hidden: usize,
    /// Search epochs.
    pub epochs: usize,
    /// Learning rate for `w`.
    pub lr_w: f32,
    /// Learning rate for `α`.
    pub lr_alpha: f32,
    /// Ranking margin.
    pub margin: f32,
    /// Negative samples per pair.
    pub neg_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlignSearchConfig {
    fn default() -> Self {
        Self {
            k: 2,
            hidden: 32,
            epochs: 60,
            lr_w: 5e-3,
            lr_alpha: 3e-3,
            margin: 3.0,
            neg_samples: 2,
            seed: 0,
        }
    }
}

/// Differentiable search over node-aggregator combinations for the
/// alignment task (supernet without skip/layer-aggregator edges).
pub fn sane_align_search(task: &AlignTask, cfg: &AlignSearchConfig) -> Architecture {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    let sn_cfg = SupernetConfig {
        k: cfg.k,
        hidden: cfg.hidden,
        dropout: 0.2,
        use_layer_agg: false,
        ..Default::default()
    };
    let net = Supernet::new(sn_cfg, task.data.features1.cols(), cfg.hidden, &mut store, &mut rng);
    let mut opt_w = Adam::new(cfg.lr_w, 1e-4);
    let mut opt_alpha = Adam::new(cfg.lr_alpha, 1e-3);

    let step = |store: &mut VarStore,
                opt: &mut Adam,
                params: &[ParamId],
                pairs: &[(u32, u32)],
                rng: &mut StdRng,
                seed: u64| {
        let mut tape = Tape::new(seed);
        let x1 = tape.input(Arc::clone(&task.data.features1));
        let x2 = tape.input(Arc::clone(&task.data.features2));
        let e1 = net.forward_mixed(&mut tape, store, &task.ctx1, x1, true);
        let e2 = net.forward_mixed(&mut tape, store, &task.ctx2, x2, true);
        let loss = margin_loss(&mut tape, e1, e2, pairs, cfg.margin, cfg.neg_samples, rng);
        let mut grads = tape.backward(loss);
        grads.clip_global_norm(5.0);
        drop(tape);
        opt.step_subset(store, &grads, params);
    };

    for epoch in 0..cfg.epochs {
        let seed = cfg.seed.wrapping_add(epoch as u64);
        step(
            &mut store,
            &mut opt_alpha,
            net.alpha_params(),
            &task.data.val_pairs,
            &mut rng,
            seed << 1,
        );
        step(
            &mut store,
            &mut opt_w,
            net.weight_params(),
            &task.data.train_pairs,
            &mut rng,
            (seed << 1) | 1,
        );
    }
    net.derive(&store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sane_data::AlignmentConfig;
    use sane_gnn::NodeAggKind;

    fn tiny_task() -> AlignTask {
        AlignTask::new(AlignmentConfig::dbp15k().scaled(0.02).generate())
    }

    fn quick_cfg() -> AlignTrainConfig {
        AlignTrainConfig { embed_dim: 16, epochs: 30, eval_every: 5, ..Default::default() }
    }

    #[test]
    fn gcn_align_beats_chance() {
        let task = tiny_task();
        let arch = Architecture::uniform(NodeAggKind::Gcn, 2, None);
        let out = train_gnn_align(&task, &arch, &quick_cfg());
        // Chance Hits@1 on ~300 entities is ~0.3%; learning must clear it.
        assert!(out.forward[0] > 5.0, "Hits@1 {} too low", out.forward[0]);
        // Monotone in K.
        assert!(out.forward[0] <= out.forward[1] && out.forward[1] <= out.forward[2]);
    }

    #[test]
    fn jape_like_runs_and_scores() {
        let task = tiny_task();
        let out = train_jape_like(&task, &quick_cfg());
        assert!(out.forward[2] > 0.0, "Hits@50 {}", out.forward[2]);
    }

    #[test]
    fn align_search_returns_two_layer_arch_without_layer_agg() {
        let task = tiny_task();
        let cfg = AlignSearchConfig { epochs: 4, hidden: 8, ..Default::default() };
        let arch = sane_align_search(&task, &cfg);
        assert_eq!(arch.depth(), 2);
        assert_eq!(arch.layer_agg, None);
        arch.validate();
    }

    #[test]
    #[should_panic(expected = "removes the layer aggregator")]
    fn gnn_align_rejects_layer_aggregator() {
        let task = tiny_task();
        let arch = Architecture::uniform(NodeAggKind::Gcn, 2, Some(sane_gnn::LayerAggKind::Concat));
        let _ = train_gnn_align(&task, &arch, &quick_cfg());
    }
}
