//! Graph pooling (readout) operations — the searchable component the
//! paper's conclusion proposes for whole-graph tasks.
//!
//! A pooling op maps the node-embedding matrix of one graph (`n x d`) to a
//! single `1 x d` graph representation. All four are implemented as
//! single-segment reductions, so they share the verified segment-op
//! backward passes.

use std::sync::Arc;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use sane_autodiff::{glorot_init, ParamId, Segments, Tape, Tensor, VarStore};

/// The searchable pooling operations `O_p`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolingKind {
    /// Sum readout (size-sensitive, GIN-style).
    Sum,
    /// Mean readout (size-invariant).
    Mean,
    /// Elementwise max readout.
    Max,
    /// Attention readout: softmax(h·a) weighted sum.
    Attention,
}

impl PoolingKind {
    /// All pooling ops.
    pub const ALL: [PoolingKind; 4] =
        [PoolingKind::Sum, PoolingKind::Mean, PoolingKind::Max, PoolingKind::Attention];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PoolingKind::Sum => "SUM",
            PoolingKind::Mean => "MEAN",
            PoolingKind::Max => "MAX",
            PoolingKind::Attention => "ATTENTION",
        }
    }

    /// Parses a name (case insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        let upper = name.to_ascii_uppercase();
        Self::ALL.iter().copied().find(|k| k.name() == upper)
    }
}

impl std::fmt::Display for PoolingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A built pooling op over `d`-dimensional node embeddings.
pub struct GraphPooling {
    kind: PoolingKind,
    /// Attention readout vector (`d x 1`), only for [`PoolingKind::Attention`].
    attn: Option<ParamId>,
}

impl GraphPooling {
    /// Builds the op, registering parameters if the kind needs any.
    pub fn new(kind: PoolingKind, store: &mut VarStore, rng: &mut StdRng, dim: usize) -> Self {
        let attn = (kind == PoolingKind::Attention)
            .then(|| store.add("pooling.attn", glorot_init(dim, 1, rng)));
        Self { kind, attn }
    }

    /// The op's kind.
    pub fn kind(&self) -> PoolingKind {
        self.kind
    }

    /// Parameters (empty except for attention).
    pub fn params(&self) -> Vec<ParamId> {
        self.attn.into_iter().collect()
    }

    /// Pools `h` (`n x d`) into a `1 x d` graph representation.
    ///
    /// # Panics
    /// Panics if `h` has zero rows.
    pub fn forward(&self, tape: &mut Tape, store: &VarStore, h: Tensor) -> Tensor {
        let n = tape.value(h).rows();
        assert!(n > 0, "cannot pool an empty graph");
        let whole = Arc::new(Segments::from_lengths(&[n]));
        match self.kind {
            PoolingKind::Sum => tape.segment_sum(h, &whole),
            PoolingKind::Mean => tape.segment_mean(h, &whole),
            PoolingKind::Max => tape.segment_max(h, None, &whole),
            PoolingKind::Attention => {
                let a = tape.param(store, self.attn.expect("attention has a readout vector")); // lint:allow(expect) -- attention has a readout vector
                let scores = tape.matmul(h, a);
                // `h` plays the messages role directly: the whole graph is
                // one segment, so the fused op is a softmax-weighted sum of
                // all node rows.
                tape.segment_attention(scores, h, &whole)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sane_autodiff::Matrix;

    fn pool(kind: PoolingKind, h: Matrix) -> Matrix {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let p = GraphPooling::new(kind, &mut store, &mut rng, h.cols());
        let mut tape = Tape::new(0);
        let ht = tape.constant(h);
        let out = p.forward(&mut tape, &store, ht);
        tape.value(out).clone()
    }

    #[test]
    fn sum_mean_max_values() {
        let h = Matrix::from_vec(3, 2, vec![1.0, -1.0, 3.0, 0.0, 2.0, 5.0]);
        assert_eq!(pool(PoolingKind::Sum, h.clone()).data(), &[6.0, 4.0]);
        assert_eq!(pool(PoolingKind::Mean, h.clone()).data(), &[2.0, 4.0 / 3.0]);
        assert_eq!(pool(PoolingKind::Max, h).data(), &[3.0, 5.0]);
    }

    #[test]
    fn attention_is_a_convex_combination() {
        let h = Matrix::from_vec(4, 1, vec![-2.0, 0.0, 1.0, 3.0]);
        let out = pool(PoolingKind::Attention, h);
        assert_eq!(out.shape(), (1, 1));
        let v = out.as_scalar();
        assert!((-2.0..=3.0).contains(&v), "attention output {v} outside hull");
    }

    #[test]
    fn names_roundtrip() {
        for k in PoolingKind::ALL {
            assert_eq!(PoolingKind::parse(k.name()), Some(k));
        }
        assert_eq!(PoolingKind::parse("mean"), Some(PoolingKind::Mean));
    }

    #[test]
    fn attention_params_receive_gradients() {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let p = GraphPooling::new(PoolingKind::Attention, &mut store, &mut rng, 3);
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_fn(5, 3, |r, c| (r + c) as f32 * 0.3));
        let out = p.forward(&mut tape, &store, h);
        let loss = tape.mean_all(out);
        let grads = tape.backward(loss);
        for id in p.params() {
            assert!(grads.get(id).is_some());
        }
    }

    #[test]
    fn mean_is_size_invariant_sum_is_not() {
        let small = Matrix::full(2, 2, 1.0);
        let large = Matrix::full(10, 2, 1.0);
        assert_eq!(pool(PoolingKind::Mean, small.clone()), pool(PoolingKind::Mean, large.clone()));
        assert_ne!(pool(PoolingKind::Sum, small), pool(PoolingKind::Sum, large));
    }
}
