//! GraphSAGE-family and GCN aggregators — the spmm-style members of `O_n`.
//!
//! SAGE-SUM, SAGE-MEAN and GCN project before they propagate: `Ã·(H W)`
//! equals `(Ã H)·W` in exact arithmetic, and the projected operand is
//! `out_dim` wide where `H` may be the 716-wide input features. The bias
//! goes on after propagation, so summing over a neighbourhood never
//! scales it.

use rand::rngs::StdRng;

use sane_autodiff::{ParamId, Tape, Tensor, VarStore};

use crate::agg::{Linear, NodeAggregator};
use crate::context::GraphContext;

/// `W · Σ_{u ∈ Ñ(v)} h_u + b`, computed as `Σ_{u ∈ Ñ(v)} (h_u W) + b`.
pub struct SageSumAggregator {
    linear: Linear,
    out_dim: usize,
}

impl SageSumAggregator {
    pub fn new(store: &mut VarStore, rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Self {
        Self { linear: Linear::new(store, rng, "sage_sum", in_dim, out_dim), out_dim }
    }
}

impl NodeAggregator for SageSumAggregator {
    fn forward(&self, tape: &mut Tape, store: &VarStore, ctx: &GraphContext, h: Tensor) -> Tensor {
        let hw = self.linear.project(tape, store, h);
        let agg = tape.spmm(&ctx.sum, hw);
        self.linear.add_bias(tape, store, agg)
    }

    fn params(&self) -> Vec<ParamId> {
        self.linear.params()
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// `W · mean_{u ∈ Ñ(v)} h_u + b`, computed as `mean_{u ∈ Ñ(v)} (h_u W) + b`.
pub struct SageMeanAggregator {
    linear: Linear,
    out_dim: usize,
}

impl SageMeanAggregator {
    pub fn new(store: &mut VarStore, rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Self {
        Self { linear: Linear::new(store, rng, "sage_mean", in_dim, out_dim), out_dim }
    }
}

impl NodeAggregator for SageMeanAggregator {
    fn forward(&self, tape: &mut Tape, store: &VarStore, ctx: &GraphContext, h: Tensor) -> Tensor {
        let hw = self.linear.project(tape, store, h);
        let agg = tape.spmm(&ctx.mean, hw);
        self.linear.add_bias(tape, store, agg)
    }

    fn params(&self) -> Vec<ParamId> {
        self.linear.params()
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Max-pooling GraphSAGE: `max_{u ∈ Ñ(v)} relu(W_pool h_u + b_pool)`.
///
/// The pooling transform runs on node features once (not per edge), then the
/// per-destination max is a segment reduction over the message layout that
/// reads each edge's source row through the layout's index list.
pub struct SageMaxAggregator {
    pool: Linear,
    out_dim: usize,
}

impl SageMaxAggregator {
    pub fn new(store: &mut VarStore, rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Self {
        Self { pool: Linear::new(store, rng, "sage_max.pool", in_dim, out_dim), out_dim }
    }
}

impl NodeAggregator for SageMaxAggregator {
    fn forward(&self, tape: &mut Tape, store: &VarStore, ctx: &GraphContext, h: Tensor) -> Tensor {
        let transformed = self.pool.forward(tape, store, h);
        let activated = tape.relu(transformed);
        // Each edge's message is its source row, read in place: no
        // `E x d` gathered plane lands on the tape.
        tape.segment_max(activated, Some(&ctx.layout.src), &ctx.layout.segments)
    }

    fn params(&self) -> Vec<ParamId> {
        self.pool.params()
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Kipf–Welling GCN: `D̃^{-1/2} Ã D̃^{-1/2} H W + b`.
pub struct GcnAggregator {
    linear: Linear,
    out_dim: usize,
}

impl GcnAggregator {
    pub fn new(store: &mut VarStore, rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Self {
        Self { linear: Linear::new(store, rng, "gcn", in_dim, out_dim), out_dim }
    }
}

impl NodeAggregator for GcnAggregator {
    fn forward(&self, tape: &mut Tape, store: &VarStore, ctx: &GraphContext, h: Tensor) -> Tensor {
        let hw = self.linear.project(tape, store, h);
        let agg = tape.spmm(&ctx.gcn, hw);
        self.linear.add_bias(tape, store, agg)
    }

    fn params(&self) -> Vec<ParamId> {
        self.linear.params()
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sane_autodiff::Matrix;
    use sane_graph::Graph;

    fn ctx() -> GraphContext {
        GraphContext::new(&Graph::from_edges(3, &[(0, 1), (1, 2)]))
    }

    /// With W = I and b = 0 the SAGE-MEAN output equals the mean operator
    /// applied to the features.
    #[test]
    fn sage_mean_with_identity_weights_is_plain_mean() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = SageMeanAggregator::new(&mut store, &mut rng, 2, 2);
        store.set(agg.linear.w, Matrix::eye(2));
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        // Node 0: mean of {0,1} = (0.5, 0.5); node 1: mean of {0,1,2} = (2/3, 2/3).
        assert!((tape.value(out).get(0, 0) - 0.5).abs() < 1e-6);
        assert!((tape.value(out).get(1, 0) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn sage_sum_scales_with_neighborhood_size() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = SageSumAggregator::new(&mut store, &mut rng, 1, 1);
        store.set(agg.linear.w, Matrix::scalar(1.0));
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::full(3, 1, 1.0));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        // |Ñ(0)| = 2, |Ñ(1)| = 3, |Ñ(2)| = 2.
        assert_eq!(tape.value(out).data(), &[2.0, 3.0, 2.0]);
    }

    #[test]
    fn sage_max_takes_neighborhood_max() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = SageMaxAggregator::new(&mut store, &mut rng, 1, 1);
        store.set(agg.pool.w, Matrix::scalar(1.0));
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_vec(3, 1, vec![1.0, 5.0, 2.0]));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        // relu is identity here; maxes over Ñ: node0 {1,5}=5, node1 {5,1,2}=5, node2 {2,5}=5.
        assert_eq!(tape.value(out).data(), &[5.0, 5.0, 5.0]);
    }

    #[test]
    fn gcn_matches_manual_normalised_product() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = GcnAggregator::new(&mut store, &mut rng, 1, 1);
        store.set(agg.linear.w, Matrix::scalar(2.0));
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        let expected = ctx.gcn.spmm(&Matrix::from_vec(3, 1, vec![2.0, 2.0, 2.0]));
        for (a, b) in tape.value(out).data().iter().zip(expected.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// The bias is added once per node after propagation, not propagated:
    /// `Â`'s rows do not sum to 1, so `Â·(HW + b)` would scale it by degree.
    #[test]
    fn gcn_adds_its_bias_after_propagation() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = GcnAggregator::new(&mut store, &mut rng, 2, 2);
        let w = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]);
        store.set(agg.linear.w, w.clone());
        store.set(agg.linear.b, Matrix::from_vec(1, 2, vec![0.75, -0.5]));
        let h = Matrix::from_vec(3, 2, vec![1.0, 2.0, -1.0, 0.5, 3.0, 1.0]);
        let mut tape = Tape::new(0);
        let x = tape.constant(h.clone());
        let out = agg.forward(&mut tape, &store, &ctx, x);
        let propagated = ctx.gcn.spmm(&h.matmul(&w));
        for r in 0..3 {
            for (c, b) in [0.75, -0.5].into_iter().enumerate() {
                let want = propagated.get(r, c) + b;
                assert!((tape.value(out).get(r, c) - want).abs() < 1e-6, "({r}, {c})");
            }
        }
    }

    #[test]
    fn gradients_flow_through_sage_mean() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let agg = SageMeanAggregator::new(&mut store, &mut rng, 2, 2);
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_fn(3, 2, |r, c| (r + c) as f32));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        let loss = tape.sum_all(out);
        let grads = tape.backward(loss);
        assert!(grads.get(agg.linear.w).is_some());
        assert!(grads.get(agg.linear.b).is_some());
    }
}
