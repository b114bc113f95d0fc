//! GIN aggregator: `MLP((1 + ε) · h_v + Σ_{u ∈ N(v)} h_u)` (Xu et al. 2019).

use rand::rngs::StdRng;

use sane_autodiff::{Matrix, ParamId, Tape, Tensor, VarStore};

use crate::agg::{Linear, NodeAggregator};
use crate::context::GraphContext;

/// Graph isomorphism network aggregator with a learnable `ε` and a
/// two-layer MLP (`in -> out -> out` with ReLU between).
pub struct GinAggregator {
    eps: ParamId,
    fc1: Linear,
    fc2: Linear,
    out_dim: usize,
}

impl GinAggregator {
    pub fn new(store: &mut VarStore, rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Self {
        Self {
            eps: store.add("gin.eps", Matrix::scalar(0.0)),
            fc1: Linear::new(store, rng, "gin.fc1", in_dim, out_dim),
            fc2: Linear::new(store, rng, "gin.fc2", out_dim, out_dim),
            out_dim,
        }
    }
}

impl NodeAggregator for GinAggregator {
    fn forward(&self, tape: &mut Tape, store: &VarStore, ctx: &GraphContext, h: Tensor) -> Tensor {
        // fc1 projects first: `((1 + ε) h + Σ h_u) W₁ + b₁` is
        // `(1 + ε)(h W₁) + Σ (h_u W₁) + b₁`, so the self term, the
        // neighbour sum and `ε`'s gradient are all `out_dim` wide.
        let hw = self.fc1.project(tape, store, h);
        let eps = tape.param(store, self.eps);
        let one_plus_eps = tape.add_scalar(eps, 1.0);
        let self_term = tape.mul_scalar_tensor(hw, one_plus_eps);
        let neighbor_sum = tape.spmm(&ctx.sum_no_self, hw);
        let combined = tape.add(self_term, neighbor_sum);
        let z1 = self.fc1.add_bias(tape, store, combined);
        let a1 = tape.relu(z1);
        self.fc2.forward(tape, store, a1)
    }

    fn params(&self) -> Vec<ParamId> {
        let mut p = vec![self.eps];
        p.extend(self.fc1.params());
        p.extend(self.fc2.params());
        p
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sane_graph::Graph;

    fn ctx() -> GraphContext {
        GraphContext::new(&Graph::from_edges(3, &[(0, 1), (1, 2)]))
    }

    #[test]
    fn gin_combines_self_and_neighbors() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = GinAggregator::new(&mut store, &mut rng, 1, 1);
        // Make the MLP the identity: fc1.w = 1, fc2.w = 1, biases 0; relu is
        // identity on the positive inputs used here.
        store.set(agg.fc1.w, Matrix::scalar(1.0));
        store.set(agg.fc2.w, Matrix::scalar(1.0));
        store.set(agg.eps, Matrix::scalar(0.5));
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_vec(3, 1, vec![1.0, 2.0, 4.0]));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        // node 0: 1.5*1 + 2 = 3.5 ; node 1: 1.5*2 + 1 + 4 = 8 ; node 2: 1.5*4 + 2 = 8.
        assert_eq!(tape.value(out).data(), &[3.5, 8.0, 8.0]);
    }

    #[test]
    fn eps_receives_gradient() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let agg = GinAggregator::new(&mut store, &mut rng, 2, 3);
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_fn(3, 2, |r, c| (r + c) as f32 + 1.0));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        let loss = tape.mean_all(out);
        let grads = tape.backward(loss);
        assert!(grads.get(agg.eps).is_some());
        assert_ne!(grads.get(agg.eps).unwrap().as_scalar(), 0.0);
    }
}
