//! MLP node aggregator — the "universal approximator" of the paper's
//! Table X ablation (Section IV-E4).
//!
//! Aggregates `Ñ(v)` by summation (as GIN does) and then applies an MLP of
//! configurable width `w ∈ {8, 16, 32, 64}` and depth `d ∈ {1, 2, 3}`.
//! The sum and the MLP's first linear layer commute, so the layer projects
//! before the sum and adds its bias after it.

use rand::rngs::StdRng;

use sane_autodiff::{ParamId, Tape, Tensor, VarStore};

use crate::agg::{Linear, NodeAggregator};
use crate::context::GraphContext;

/// Sum-then-MLP aggregator with a searchable MLP shape.
pub struct MlpAggregator {
    layers: Vec<Linear>,
    out_dim: usize,
}

impl MlpAggregator {
    /// `width` is the hidden size of the internal MLP, `depth >= 1` the
    /// number of hidden layers before the final projection to `out_dim`.
    ///
    /// # Panics
    /// Panics if `depth == 0` or `width == 0`.
    pub fn new(
        store: &mut VarStore,
        rng: &mut StdRng,
        in_dim: usize,
        out_dim: usize,
        width: usize,
        depth: usize,
    ) -> Self {
        assert!(depth >= 1, "MLP depth must be at least 1");
        assert!(width >= 1, "MLP width must be at least 1");
        let mut layers = Vec::with_capacity(depth + 1);
        let mut prev = in_dim;
        for l in 0..depth {
            layers.push(Linear::new(store, rng, &format!("mlp_agg.fc{l}"), prev, width));
            prev = width;
        }
        layers.push(Linear::new(store, rng, "mlp_agg.out", prev, out_dim));
        Self { layers, out_dim }
    }

    /// Number of hidden layers (excludes the output projection).
    pub fn depth(&self) -> usize {
        self.layers.len() - 1
    }
}

impl NodeAggregator for MlpAggregator {
    fn forward(&self, tape: &mut Tape, store: &VarStore, ctx: &GraphContext, h: Tensor) -> Tensor {
        let mut x = h;
        for (i, layer) in self.layers.iter().enumerate() {
            x = if i == 0 {
                let hw = layer.project(tape, store, x);
                let agg = tape.spmm(&ctx.sum, hw);
                layer.add_bias(tape, store, agg)
            } else {
                let a = tape.relu(x);
                layer.forward(tape, store, a)
            };
        }
        x
    }

    fn params(&self) -> Vec<ParamId> {
        self.layers.iter().flat_map(Linear::params).collect()
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

    #[test]
    fn shapes_for_all_searched_configs() {
        let ctx = ctx();
        for &width in &[8usize, 16, 32, 64] {
            for &depth in &[1usize, 2, 3] {
                let mut store = VarStore::new();
                let mut rng = StdRng::seed_from_u64(0);
                let agg = MlpAggregator::new(&mut store, &mut rng, 4, 6, width, depth);
                assert_eq!(agg.depth(), depth);
                let mut tape = Tape::new(0);
                let h = tape.constant(Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.1));
                let out = agg.forward(&mut tape, &store, &ctx, h);
                assert_eq!(tape.value(out).shape(), (3, 6));
            }
        }
    }

    #[test]
    fn parameter_count_scales_with_shape() {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let small = MlpAggregator::new(&mut store, &mut rng, 4, 2, 8, 1);
        let small_params = small.params().len();
        let deep = MlpAggregator::new(&mut store, &mut rng, 4, 2, 8, 3);
        assert!(deep.params().len() > small_params);
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_rejected() {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = MlpAggregator::new(&mut store, &mut rng, 4, 2, 8, 0);
    }
}
