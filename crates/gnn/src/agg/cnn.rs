//! LGCN-style CNN aggregator (Gao et al. 2018), used as a baseline model.
//!
//! LGCN ranks each node's neighborhood per feature channel and runs a 1-D
//! convolution over the ranked sequence; the paper's Table XI summarises it
//! as "equivalent to a weighted summation aggregator". We implement the
//! ranked view with three order statistics per channel — the node's own
//! value, the neighborhood max (rank-1) and the neighborhood mean (the
//! remaining taps of the kernel pooled) — combined by a learned 1-D kernel
//! and projected. This keeps the defining ranked-conv structure while
//! staying `O(edges)`.

use rand::rngs::StdRng;

use sane_autodiff::{Matrix, ParamId, Tape, Tensor, VarStore};

use crate::agg::{Linear, NodeAggregator};
use crate::context::GraphContext;

/// Ranked-neighborhood 1-D convolution aggregator.
pub struct CnnAggregator {
    /// The three kernel taps (self, max, mean), each a `1 x 1` scalar.
    tap_self: ParamId,
    tap_max: ParamId,
    tap_mean: ParamId,
    proj: Linear,
    out_dim: usize,
}

impl CnnAggregator {
    pub fn new(store: &mut VarStore, rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Self {
        Self {
            tap_self: store.add("cnn.tap_self", Matrix::scalar(1.0)),
            tap_max: store.add("cnn.tap_max", Matrix::scalar(0.5)),
            tap_mean: store.add("cnn.tap_mean", Matrix::scalar(0.5)),
            proj: Linear::new(store, rng, "cnn.proj", in_dim, out_dim),
            out_dim,
        }
    }
}

impl NodeAggregator for CnnAggregator {
    fn forward(&self, tape: &mut Tape, store: &VarStore, ctx: &GraphContext, h: Tensor) -> Tensor {
        let layout = &ctx.layout;
        let messages = tape.gather_rows(h, &layout.src);
        let nbr_max = tape.segment_max(messages, None, &layout.segments);
        let nbr_mean = tape.segment_mean(messages, &layout.segments);

        let t_self = tape.param(store, self.tap_self);
        let t_max = tape.param(store, self.tap_max);
        let t_mean = tape.param(store, self.tap_mean);
        let a = tape.mul_scalar_tensor(h, t_self);
        let b = tape.mul_scalar_tensor(nbr_max, t_max);
        let c = tape.mul_scalar_tensor(nbr_mean, t_mean);
        let ab = tape.add(a, b);
        let mixed = tape.add(ab, c);
        self.proj.forward(tape, store, mixed)
    }

    fn params(&self) -> Vec<ParamId> {
        let mut p = vec![self.tap_self, self.tap_max, self.tap_mean];
        p.extend(self.proj.params());
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

    #[test]
    fn forward_shape_and_taps_get_gradients() {
        let ctx = GraphContext::new(&Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let agg = CnnAggregator::new(&mut store, &mut rng, 3, 5);
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_fn(4, 3, |r, c| (r * c) as f32 * 0.1 + 0.5));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        assert_eq!(tape.value(out).shape(), (4, 5));
        let loss = tape.mean_all(out);
        let grads = tape.backward(loss);
        for p in [agg.tap_self, agg.tap_max, agg.tap_mean] {
            assert!(grads.get(p).is_some());
        }
    }

    #[test]
    fn constant_graph_signal_passes_through() {
        // With constant features, self/max/mean coincide, so the output is
        // (taps summed) * proj(constant) — uniform across nodes.
        let ctx = GraphContext::new(&Graph::from_edges(3, &[(0, 1), (1, 2)]));
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let agg = CnnAggregator::new(&mut store, &mut rng, 2, 2);
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::full(3, 2, 1.0));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        let first = tape.value(out).row(0).to_vec();
        for r in 1..3 {
            assert_eq!(tape.value(out).row(r), &first[..]);
        }
    }
}
