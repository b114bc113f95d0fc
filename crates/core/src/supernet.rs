//! The SANE supernet: the continuous relaxation of the search space
//! (Section III-B of the paper, Eq. 2–5).
//!
//! Every candidate operation of every edge is instantiated once; mixing
//! weights `α_n` (per layer, over `O_n`), `α_s` (per layer, over `O_s`) and
//! `α_l` (over `O_l`) are ordinary parameters, and the softmax of Eq. (2)
//! is part of the forward pass — so `∇_α L` falls out of the same reverse
//! sweep as the weight gradients.
//!
//! Layer aggregators produce different widths (`CONCAT` is `K·d`, the
//! others `d`), so each candidate gets a private projection back to `d`
//! before the `α_l` mixture; the derived *discrete* model has no such
//! projection — the supernet is a search surrogate, exactly as in DARTS.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sane_autodiff::{Matrix, ParamId, Tape, Tensor, VarStore};
use sane_gnn::{
    build_aggregator, Activation, AggChoice, Architecture, GraphContext, LayerAggKind,
    LayerAggregator, Linear, NodeAggKind, NodeAggregator, SkipOp,
};

use crate::train::NodeModel;

/// Supernet construction settings.
#[derive(Clone, Debug)]
pub struct SupernetConfig {
    /// Number of GNN layers `K`.
    pub k: usize,
    /// Hidden width during the search (paper: 32).
    pub hidden: usize,
    /// Dropout rate during search (paper: 0.6).
    pub dropout: f32,
    /// Post-layer activation.
    pub activation: Activation,
    /// Whether the space includes skip ops and a layer aggregator. The DB
    /// task (Table VIII) searches node aggregators only.
    pub use_layer_agg: bool,
}

impl Default for SupernetConfig {
    fn default() -> Self {
        Self { k: 3, hidden: 32, dropout: 0.6, activation: Activation::Relu, use_layer_agg: true }
    }
}

/// One discrete path through the supernet (used by ε-exploration and the
/// weight-sharing baselines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledPath {
    /// Node-aggregator index per layer (into [`NodeAggKind::ALL`]).
    pub node: Vec<usize>,
    /// Skip-op index per layer (into [`SkipOp::ALL`]).
    pub skip: Vec<usize>,
    /// Layer-aggregator index (into [`LayerAggKind::ALL`]).
    pub layer: usize,
}

/// The supernet with its architecture parameters.
pub struct Supernet {
    cfg: SupernetConfig,
    node_ops: Vec<Vec<Box<dyn NodeAggregator>>>,
    layer_aggs: Vec<LayerAggregator>,
    layer_projs: Vec<Linear>,
    classifier: Linear,
    alpha_node: Vec<ParamId>,
    alpha_skip: Vec<ParamId>,
    alpha_layer: Option<ParamId>,
    weight_params: Vec<ParamId>,
    alpha_params: Vec<ParamId>,
}

impl Supernet {
    /// Builds the supernet, registering all operation weights and all `α`
    /// parameters in `store`.
    pub fn new(
        cfg: SupernetConfig,
        in_dim: usize,
        num_outputs: usize,
        store: &mut VarStore,
        rng: &mut StdRng,
    ) -> Self {
        assert!(cfg.k >= 1, "supernet needs at least one layer");
        let d = cfg.hidden;
        let mut weight_params = Vec::new();

        let mut node_ops = Vec::with_capacity(cfg.k);
        for l in 0..cfg.k {
            let layer_in = if l == 0 { in_dim } else { d };
            let ops: Vec<Box<dyn NodeAggregator>> = NodeAggKind::ALL
                .iter()
                .map(|&kind| build_aggregator(kind, store, rng, layer_in, d, 1))
                .collect();
            for op in &ops {
                weight_params.extend(op.params());
            }
            node_ops.push(ops);
        }

        let (layer_aggs, layer_projs): (Vec<_>, Vec<_>) = if cfg.use_layer_agg {
            let aggs: Vec<LayerAggregator> = LayerAggKind::ALL
                .iter()
                .map(|&kind| LayerAggregator::new(kind, store, rng, d))
                .collect();
            let projs: Vec<Linear> = aggs
                .iter()
                .map(|a| {
                    Linear::new(
                        store,
                        rng,
                        &format!("supernet.proj_{}", a.kind()),
                        a.out_dim(cfg.k),
                        d,
                    )
                })
                .collect();
            (aggs, projs)
        } else {
            (Vec::new(), Vec::new())
        };
        for a in &layer_aggs {
            weight_params.extend(a.params());
        }
        for p in &layer_projs {
            weight_params.extend(p.params());
        }

        let classifier = Linear::new(store, rng, "supernet.classifier", d, num_outputs);
        weight_params.extend(classifier.params());

        // α initialised near-uniform with tiny noise to break symmetry.
        let alpha_init = |name: String, n: usize, store: &mut VarStore, rng: &mut StdRng| {
            let m = Matrix::from_fn(1, n, |_, _| rng.gen_range(-1e-3..1e-3));
            store.add(name, m)
        };
        let alpha_node: Vec<ParamId> = (0..cfg.k)
            .map(|l| alpha_init(format!("alpha_node.{l}"), NodeAggKind::ALL.len(), store, rng))
            .collect();
        let (alpha_skip, alpha_layer) = if cfg.use_layer_agg {
            let skips: Vec<ParamId> = (0..cfg.k)
                .map(|l| alpha_init(format!("alpha_skip.{l}"), SkipOp::ALL.len(), store, rng))
                .collect();
            let layer = alpha_init("alpha_layer".into(), LayerAggKind::ALL.len(), store, rng);
            (skips, Some(layer))
        } else {
            (Vec::new(), None)
        };

        let mut alpha_params = alpha_node.clone();
        alpha_params.extend(&alpha_skip);
        alpha_params.extend(alpha_layer);

        Self {
            cfg,
            node_ops,
            layer_aggs,
            layer_projs,
            classifier,
            alpha_node,
            alpha_skip,
            alpha_layer,
            weight_params,
            alpha_params,
        }
    }

    /// The architecture parameters `α = {α_n, α_s, α_l}`.
    pub fn alpha_params(&self) -> &[ParamId] {
        &self.alpha_params
    }

    /// The operation weights `w`.
    pub fn weight_params(&self) -> &[ParamId] {
        &self.weight_params
    }

    /// The construction settings.
    pub fn config(&self) -> &SupernetConfig {
        &self.cfg
    }

    /// Fully-mixed forward pass (Eq. 3–5): every op contributes, weighted
    /// by the softmax of its `α` vector. Each mixture is one
    /// [`Tape::mix`] node over its candidates' outputs.
    pub fn forward_mixed(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        ctx: &GraphContext,
        features: Tensor,
        training: bool,
    ) -> Tensor {
        let dropout = if training { self.cfg.dropout } else { 0.0 };
        let mut h = features;
        let mut layer_outputs = Vec::with_capacity(self.cfg.k);
        for l in 0..self.cfg.k {
            let h_in = tape.dropout(h, dropout);
            let alpha = tape.param(store, self.alpha_node[l]);
            let weights = tape.softmax_rows(alpha);
            let outs: Vec<Tensor> =
                self.node_ops[l].iter().map(|op| op.forward(tape, store, ctx, h_in)).collect();
            let mixed = tape.mix(weights, &outs);
            h = self.cfg.activation.apply(tape, mixed);
            layer_outputs.push(h);
        }

        let rep = if self.cfg.use_layer_agg {
            // Mixed skip: softmax(α_s) = (w_id, w_zero); the ZERO branch
            // contributes nothing, so the mixture is w_id · h_l.
            let contributions: Vec<Tensor> = layer_outputs
                .iter()
                .enumerate()
                .map(|(l, &t)| {
                    let alpha = tape.param(store, self.alpha_skip[l]);
                    let w = tape.softmax_rows(alpha);
                    tape.mix(w, &[t])
                })
                .collect();
            let alpha_l = tape.param(store, self.alpha_layer.expect("layer agg enabled")); // lint:allow(expect) -- layer agg enabled
            let wl = tape.softmax_rows(alpha_l);
            let outs: Vec<Tensor> = self
                .layer_aggs
                .iter()
                .zip(&self.layer_projs)
                .map(|(agg, proj)| {
                    let z = agg.forward(tape, store, &contributions);
                    proj.forward(tape, store, z)
                })
                .collect();
            tape.mix(wl, &outs)
        } else {
            *layer_outputs.last().expect("at least one layer") // lint:allow(expect) -- at least one layer
        };
        let rep = tape.dropout(rep, dropout);
        self.classifier.forward(tape, store, rep)
    }

    /// Single-path forward pass: only the sampled ops run (the ε-explore /
    /// weight-sharing mode). `α` does not participate.
    pub fn forward_sampled(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        ctx: &GraphContext,
        features: Tensor,
        training: bool,
        path: &SampledPath,
    ) -> Tensor {
        assert_eq!(path.node.len(), self.cfg.k, "path depth mismatch");
        let dropout = if training { self.cfg.dropout } else { 0.0 };
        let mut h = features;
        let mut layer_outputs = Vec::with_capacity(self.cfg.k);
        for l in 0..self.cfg.k {
            let h_in = tape.dropout(h, dropout);
            let out = self.node_ops[l][path.node[l]].forward(tape, store, ctx, h_in);
            h = self.cfg.activation.apply(tape, out);
            layer_outputs.push(h);
        }
        let rep = if self.cfg.use_layer_agg {
            assert_eq!(path.skip.len(), self.cfg.k, "path skip length mismatch");
            let contributions: Vec<Tensor> = layer_outputs
                .iter()
                .zip(&path.skip)
                .map(|(&t, &s)| SkipOp::ALL[s].apply(tape, t))
                .collect();
            let agg = &self.layer_aggs[path.layer];
            let z = agg.forward(tape, store, &contributions);
            self.layer_projs[path.layer].forward(tape, store, z)
        } else {
            *layer_outputs.last().expect("at least one layer") // lint:allow(expect) -- at least one layer
        };
        let rep = tape.dropout(rep, dropout);
        self.classifier.forward(tape, store, rep)
    }

    /// Uniformly samples a discrete path.
    pub fn sample_path(&self, rng: &mut StdRng) -> SampledPath {
        SampledPath {
            node: (0..self.cfg.k).map(|_| rng.gen_range(0..NodeAggKind::ALL.len())).collect(),
            skip: if self.cfg.use_layer_agg {
                (0..self.cfg.k).map(|_| rng.gen_range(0..SkipOp::ALL.len())).collect()
            } else {
                Vec::new()
            },
            layer: if self.cfg.use_layer_agg {
                rng.gen_range(0..LayerAggKind::ALL.len())
            } else {
                0
            },
        }
    }

    /// Derives the discrete architecture by arg-max over each `α` vector
    /// (the paper's `k = 1` retention rule).
    ///
    /// One guard is applied: the all-ZERO skip assignment would feed the
    /// layer aggregator nothing but zeros (a constant classifier — not a
    /// meaningful member of the space), so if every skip arg-max lands on
    /// ZERO, the layer whose `α_s` least prefers ZERO keeps its IDENTITY
    /// connection.
    pub fn derive(&self, store: &VarStore) -> Architecture {
        let argmax = |id: ParamId| -> usize {
            let row = store.value(id).row(0);
            sane_autodiff::metrics::argmax_row(row)
        };
        let node_aggs: Vec<AggChoice> = self
            .alpha_node
            .iter()
            .map(|&a| AggChoice::Standard(NodeAggKind::ALL[argmax(a)]))
            .collect();
        let (skips, layer_agg) = if self.cfg.use_layer_agg {
            let mut skips: Vec<SkipOp> =
                self.alpha_skip.iter().map(|&a| SkipOp::ALL[argmax(a)]).collect();
            if skips.iter().all(|&s| s == SkipOp::Zero) {
                // Identity logit minus zero logit = preference for keeping
                // the connection; revive the least-suppressed layer.
                let best = self
                    .alpha_skip
                    .iter()
                    .enumerate()
                    .max_by(|(_, &a), (_, &b)| {
                        let pref = |id: ParamId| {
                            let row = store.value(id).row(0);
                            row[0] - row[1]
                        };
                        pref(a).partial_cmp(&pref(b)).expect("finite alphas") // lint:allow(expect) -- finite alphas
                    })
                    .map(|(l, _)| l)
                    .expect("k >= 1"); // lint:allow(expect) -- k >= 1
                skips[best] = SkipOp::Identity;
            }
            let layer = Some(LayerAggKind::ALL[argmax(self.alpha_layer.expect("enabled"))]); // lint:allow(expect) -- enabled
            (skips, layer)
        } else {
            (vec![SkipOp::Identity; self.cfg.k], None)
        };
        Architecture { node_aggs, skips, layer_agg }
    }

    /// The derived architecture of a sampled path.
    pub fn path_architecture(&self, path: &SampledPath) -> Architecture {
        let node_aggs =
            path.node.iter().map(|&i| AggChoice::Standard(NodeAggKind::ALL[i])).collect();
        let (skips, layer_agg) = if self.cfg.use_layer_agg {
            (
                path.skip.iter().map(|&s| SkipOp::ALL[s]).collect(),
                Some(LayerAggKind::ALL[path.layer]),
            )
        } else {
            (vec![SkipOp::Identity; self.cfg.k], None)
        };
        Architecture { node_aggs, skips, layer_agg }
    }

    /// Softmaxed `α` snapshots for inspection / logging: `(node, skip,
    /// layer)` mixture weights.
    pub fn alpha_snapshot(&self, store: &VarStore) -> AlphaSnapshot {
        let softmax = |id: ParamId| -> Vec<f32> {
            let row = store.value(id).row(0);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            exps.into_iter().map(|v| v / sum).collect()
        };
        AlphaSnapshot {
            node: self.alpha_node.iter().map(|&a| softmax(a)).collect(),
            skip: self.alpha_skip.iter().map(|&a| softmax(a)).collect(),
            layer: self.alpha_layer.map(softmax).unwrap_or_default(),
        }
    }
}

/// Softmaxed architecture-parameter values.
#[derive(Clone, Debug)]
pub struct AlphaSnapshot {
    /// Per-layer mixture over the 11 node aggregators.
    pub node: Vec<Vec<f32>>,
    /// Per-layer mixture over (IDENTITY, ZERO).
    pub skip: Vec<Vec<f32>>,
    /// Mixture over (CONCAT, MAX, LSTM); empty when layer agg is disabled.
    pub layer: Vec<f32>,
}

/// Adapter: a supernet restricted to one sampled path behaves like a
/// discrete model (used by the weight-sharing oracles).
pub struct SampledView<'a> {
    /// The underlying supernet.
    pub net: &'a Supernet,
    /// The active path.
    pub path: SampledPath,
}

impl NodeModel for SampledView<'_> {
    fn forward(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        ctx: &GraphContext,
        features: Tensor,
        training: bool,
    ) -> Tensor {
        self.net.forward_sampled(tape, store, ctx, features, training, &self.path)
    }
}

/// Adapter: the fully-mixed supernet as a [`NodeModel`].
pub struct MixedView<'a>(pub &'a Supernet);

impl NodeModel for MixedView<'_> {
    fn forward(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        ctx: &GraphContext,
        features: Tensor,
        training: bool,
    ) -> Tensor {
        self.0.forward_mixed(tape, store, ctx, features, training)
    }
}

/// Convenience for tests: builds a deterministic RNG.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sane_graph::Graph;

    fn tiny() -> (GraphContext, Matrix) {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let x = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32).sin());
        (GraphContext::new(&g), x)
    }

    fn build(k: usize, use_layer_agg: bool) -> (Supernet, VarStore) {
        let mut store = VarStore::new();
        let mut rng = seeded_rng(7);
        let cfg =
            SupernetConfig { k, hidden: 8, dropout: 0.0, use_layer_agg, ..Default::default() };
        let net = Supernet::new(cfg, 4, 3, &mut store, &mut rng);
        (net, store)
    }

    #[test]
    fn mixed_forward_shapes() {
        let (ctx, x) = tiny();
        let (net, store) = build(3, true);
        let mut tape = Tape::new(0);
        let xt = tape.constant(x);
        let logits = net.forward_mixed(&mut tape, &store, &ctx, xt, false);
        assert_eq!(tape.value(logits).shape(), (6, 3));
        assert!(!tape.value(logits).has_non_finite());
    }

    #[test]
    fn alpha_and_weight_params_partition() {
        let (net, store) = build(2, true);
        // 2 node alphas + 2 skip alphas + 1 layer alpha.
        assert_eq!(net.alpha_params().len(), 5);
        let alphas: std::collections::HashSet<_> = net.alpha_params().iter().collect();
        for w in net.weight_params() {
            assert!(!alphas.contains(w), "param {} in both sets", store.name(*w));
        }
    }

    #[test]
    fn alpha_gradients_flow_through_mixed_forward() {
        let (ctx, x) = tiny();
        let (net, store) = build(2, true);
        let mut tape = Tape::new(0);
        let xt = tape.constant(x);
        let logits = net.forward_mixed(&mut tape, &store, &ctx, xt, false);
        let loss = tape.mean_all(logits);
        let grads = tape.backward(loss);
        for &a in net.alpha_params() {
            assert!(grads.get(a).is_some(), "no gradient for {}", store.name(a));
        }
    }

    #[test]
    fn sampled_forward_only_touches_sampled_ops() {
        let (ctx, x) = tiny();
        let (net, store) = build(2, true);
        let path = SampledPath { node: vec![3, 4], skip: vec![0, 0], layer: 1 };
        let mut tape = Tape::new(0);
        let xt = tape.constant(x);
        let logits = net.forward_sampled(&mut tape, &store, &ctx, xt, false, &path);
        let loss = tape.mean_all(logits);
        let grads = tape.backward(loss);
        // α must not receive gradients in sampled mode.
        for &a in net.alpha_params() {
            assert!(grads.get(a).is_none());
        }
        // The sampled op (layer 0, GCN = index 3) gets a gradient; an
        // unsampled op (layer 0, SAGE-SUM = index 0) does not.
        let sampled_param = net.node_ops[0][3].params()[0];
        let unsampled_param = net.node_ops[0][0].params()[0];
        assert!(grads.get(sampled_param).is_some());
        assert!(grads.get(unsampled_param).is_none());
    }

    #[test]
    fn derive_follows_alpha_argmax() {
        let (net, mut store) = build(2, true);
        // Force layer-0 α to prefer op 5 (GAT-SYM), layer-1 to prefer 10.
        let mut m = Matrix::zeros(1, 11);
        m.set(0, 5, 5.0);
        store.set(net.alpha_node[0], m);
        let mut m = Matrix::zeros(1, 11);
        m.set(0, 10, 5.0);
        store.set(net.alpha_node[1], m);
        // Skip: layer 0 prefers ZERO.
        let mut m = Matrix::zeros(1, 2);
        m.set(0, 1, 3.0);
        store.set(net.alpha_skip[0], m);
        // Layer agg prefers LSTM.
        let mut m = Matrix::zeros(1, 3);
        m.set(0, 2, 3.0);
        store.set(net.alpha_layer.unwrap(), m);

        let arch = net.derive(&store);
        assert_eq!(arch.node_aggs[0], AggChoice::Standard(NodeAggKind::GatSym));
        assert_eq!(arch.node_aggs[1], AggChoice::Standard(NodeAggKind::GeniePath));
        assert_eq!(arch.skips[0], SkipOp::Zero);
        assert_eq!(arch.skips[1], SkipOp::Identity);
        assert_eq!(arch.layer_agg, Some(LayerAggKind::Lstm));
    }

    #[test]
    fn no_layer_agg_mode_for_db_task() {
        let (ctx, x) = tiny();
        let (net, store) = build(2, false);
        assert_eq!(net.alpha_params().len(), 2);
        let mut tape = Tape::new(0);
        let xt = tape.constant(x);
        let logits = net.forward_mixed(&mut tape, &store, &ctx, xt, false);
        assert_eq!(tape.value(logits).shape(), (6, 3));
        let arch = net.derive(&store);
        assert_eq!(arch.layer_agg, None);
    }

    #[test]
    fn alpha_snapshot_rows_are_simplices() {
        let (net, store) = build(3, true);
        let snap = net.alpha_snapshot(&store);
        assert_eq!(snap.node.len(), 3);
        for row in snap.node.iter().chain(snap.skip.iter()) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!((snap.layer.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sample_path_is_in_range() {
        let (net, _) = build(3, true);
        let mut rng = seeded_rng(0);
        for _ in 0..20 {
            let p = net.sample_path(&mut rng);
            assert!(p.node.iter().all(|&i| i < 11));
            assert!(p.skip.iter().all(|&i| i < 2));
            assert!(p.layer < 3);
        }
    }
}

#[cfg(test)]
mod derive_guard_tests {
    use super::*;
    use sane_gnn::GraphContext;
    use sane_graph::Graph;

    #[test]
    fn all_zero_skips_are_revived_at_the_least_suppressed_layer() {
        let mut store = VarStore::new();
        let mut rng = seeded_rng(0);
        let cfg = SupernetConfig { k: 3, hidden: 4, dropout: 0.0, ..Default::default() };
        let net = Supernet::new(cfg, 3, 2, &mut store, &mut rng);
        // Push every skip toward ZERO, layer 1 least strongly.
        for (l, &id) in net.alpha_skip.iter().enumerate() {
            let strength = if l == 1 { 0.5 } else { 4.0 };
            store.set(id, Matrix::from_vec(1, 2, vec![0.0, strength]));
        }
        let arch = net.derive(&store);
        assert_eq!(arch.skips[0], SkipOp::Zero);
        assert_eq!(arch.skips[1], SkipOp::Identity, "least-suppressed layer must be revived");
        assert_eq!(arch.skips[2], SkipOp::Zero);
        // And the derived architecture is trainable: its representation is
        // not constant across nodes.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let ctx = GraphContext::new(&g);
        let mut rng2 = seeded_rng(1);
        let mut store2 = VarStore::new();
        let model = sane_gnn::GnnModel::new(
            arch,
            3,
            2,
            sane_gnn::ModelHyper { hidden: 4, dropout: 0.0, ..Default::default() },
            &mut store2,
            &mut rng2,
        );
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.3));
        let out = model.forward(&mut tape, &store2, &ctx, x, false);
        let first = tape.value(out).row(0).to_vec();
        assert!(
            (1..4).any(|r| tape.value(out).row(r) != &first[..]),
            "derived architecture still produces constant logits"
        );
    }
}
