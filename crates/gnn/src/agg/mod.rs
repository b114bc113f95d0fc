//! Node aggregators — the operation set `O_n` of the SANE search space
//! (Table I of the paper) plus the MLP aggregator used by the Table X
//! ablation and the LGCN-style CNN aggregator used as a baseline.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use sane_autodiff::{ParamId, Tape, Tensor, VarStore};

use crate::context::GraphContext;

mod cnn;
mod gat;
mod geniepath;
mod gin;
mod mlp;
mod sage;

pub use cnn::CnnAggregator;
pub use gat::{GatAggregator, GatScore};
pub use geniepath::GeniePathAggregator;
pub use gin::GinAggregator;
pub use mlp::MlpAggregator;
pub use sage::{GcnAggregator, SageMaxAggregator, SageMeanAggregator, SageSumAggregator};

/// The 11 node aggregators of the SANE search space.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeAggKind {
    /// GraphSAGE with sum pooling over `Ñ(v)`.
    SageSum,
    /// GraphSAGE with mean pooling over `Ñ(v)`.
    SageMean,
    /// GraphSAGE with max pooling of transformed neighbor features.
    SageMax,
    /// Kipf–Welling symmetric-normalised convolution.
    Gcn,
    /// Graph attention (Velickovic et al.).
    Gat,
    /// GAT with symmetrised scores `e_uv + e_vu`.
    GatSym,
    /// GAT with dot-product (cosine-style) scores.
    GatCos,
    /// GAT with `tanh`-linear scores.
    GatLinear,
    /// GAT with generalised linear scores.
    GatGenLinear,
    /// Graph isomorphism network aggregator.
    Gin,
    /// GeniePath: attentive breadth + gated depth.
    GeniePath,
}

impl NodeAggKind {
    /// All 11 aggregators, in the paper's Table I order.
    pub const ALL: [NodeAggKind; 11] = [
        NodeAggKind::SageSum,
        NodeAggKind::SageMean,
        NodeAggKind::SageMax,
        NodeAggKind::Gcn,
        NodeAggKind::Gat,
        NodeAggKind::GatSym,
        NodeAggKind::GatCos,
        NodeAggKind::GatLinear,
        NodeAggKind::GatGenLinear,
        NodeAggKind::Gin,
        NodeAggKind::GeniePath,
    ];

    /// Paper-style name (e.g. `SAGE-MEAN`, `GAT-SYM`).
    pub fn name(self) -> &'static str {
        match self {
            NodeAggKind::SageSum => "SAGE-SUM",
            NodeAggKind::SageMean => "SAGE-MEAN",
            NodeAggKind::SageMax => "SAGE-MAX",
            NodeAggKind::Gcn => "GCN",
            NodeAggKind::Gat => "GAT",
            NodeAggKind::GatSym => "GAT-SYM",
            NodeAggKind::GatCos => "GAT-COS",
            NodeAggKind::GatLinear => "GAT-LINEAR",
            NodeAggKind::GatGenLinear => "GAT-GEN-LINEAR",
            NodeAggKind::Gin => "GIN",
            NodeAggKind::GeniePath => "GeniePath",
        }
    }

    /// Parses a paper-style name (case insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        let upper = name.to_ascii_uppercase();
        Self::ALL.iter().copied().find(|k| k.name().to_ascii_uppercase() == upper)
    }

    /// True for the attention-based (GAT-family) aggregators.
    pub fn is_attention(self) -> bool {
        matches!(
            self,
            NodeAggKind::Gat
                | NodeAggKind::GatSym
                | NodeAggKind::GatCos
                | NodeAggKind::GatLinear
                | NodeAggKind::GatGenLinear
        )
    }
}

impl std::fmt::Display for NodeAggKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A built node aggregator: owns its parameters in a [`VarStore`] and maps
/// an `n x in_dim` feature tensor to `n x out_dim`.
pub trait NodeAggregator: Send + Sync {
    /// Records the aggregation on `tape` and returns the `n x out_dim`
    /// pre-activation output.
    fn forward(&self, tape: &mut Tape, store: &VarStore, ctx: &GraphContext, h: Tensor) -> Tensor;

    /// The parameters this aggregator owns.
    fn params(&self) -> Vec<ParamId>;

    /// Output feature dimension.
    fn out_dim(&self) -> usize;
}

/// Builds an aggregator of the given kind.
///
/// `heads` only affects the attention family; it must divide `out_dim`.
///
/// # Panics
/// Panics if `heads == 0`, or `heads` does not divide `out_dim` for an
/// attention aggregator.
pub fn build_aggregator(
    kind: NodeAggKind,
    store: &mut VarStore,
    rng: &mut StdRng,
    in_dim: usize,
    out_dim: usize,
    heads: usize,
) -> Box<dyn NodeAggregator> {
    assert!(heads > 0, "heads must be positive");
    match kind {
        NodeAggKind::SageSum => Box::new(SageSumAggregator::new(store, rng, in_dim, out_dim)),
        NodeAggKind::SageMean => Box::new(SageMeanAggregator::new(store, rng, in_dim, out_dim)),
        NodeAggKind::SageMax => Box::new(SageMaxAggregator::new(store, rng, in_dim, out_dim)),
        NodeAggKind::Gcn => Box::new(GcnAggregator::new(store, rng, in_dim, out_dim)),
        NodeAggKind::Gat => {
            Box::new(GatAggregator::new(store, rng, in_dim, out_dim, heads, GatScore::Gat))
        }
        NodeAggKind::GatSym => {
            Box::new(GatAggregator::new(store, rng, in_dim, out_dim, heads, GatScore::Sym))
        }
        NodeAggKind::GatCos => {
            Box::new(GatAggregator::new(store, rng, in_dim, out_dim, heads, GatScore::Cos))
        }
        NodeAggKind::GatLinear => {
            Box::new(GatAggregator::new(store, rng, in_dim, out_dim, heads, GatScore::Linear))
        }
        NodeAggKind::GatGenLinear => {
            Box::new(GatAggregator::new(store, rng, in_dim, out_dim, heads, GatScore::GenLinear))
        }
        NodeAggKind::Gin => Box::new(GinAggregator::new(store, rng, in_dim, out_dim)),
        NodeAggKind::GeniePath => Box::new(GeniePathAggregator::new(store, rng, in_dim, out_dim)),
    }
}

/// A linear layer `h · W + b`, the workhorse inside most aggregators (and
/// exported for downstream heads such as the supernet's projections).
pub struct Linear {
    /// Weight (`in_dim x out_dim`).
    pub w: ParamId,
    /// Bias (`1 x out_dim`).
    pub b: ParamId,
}

impl Linear {
    /// Registers a fresh Glorot-initialised linear layer.
    pub fn new(
        store: &mut VarStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(format!("{name}.w"), sane_autodiff::glorot_init(in_dim, out_dim, rng));
        let b = store.add(format!("{name}.b"), sane_autodiff::Matrix::zeros(1, out_dim));
        Self { w, b }
    }

    /// Applies `x · W + b`.
    pub fn forward(&self, tape: &mut Tape, store: &VarStore, x: Tensor) -> Tensor {
        let xw = self.project(tape, store, x);
        self.add_bias(tape, store, xw)
    }

    /// Applies `x · W` alone. Aggregators that propagate over the graph do
    /// it between this and [`Linear::add_bias`]: projecting first keeps
    /// the propagated operand `out_dim` wide, and adding the bias last
    /// keeps the neighbourhood sum from scaling it.
    pub fn project(&self, tape: &mut Tape, store: &VarStore, x: Tensor) -> Tensor {
        let w = tape.param(store, self.w);
        tape.matmul(x, w)
    }

    /// Adds the bias `b` to every row of `y`.
    pub fn add_bias(&self, tape: &mut Tape, store: &VarStore, y: Tensor) -> Tensor {
        let b = tape.param(store, self.b);
        tape.add_bias(y, b)
    }

    /// The two parameters of the layer.
    pub fn params(&self) -> Vec<ParamId> {
        vec![self.w, self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sane_autodiff::Matrix;
    use sane_graph::Graph;

    pub(crate) fn tiny_ctx() -> GraphContext {
        // 0-1, 1-2, 2-3, 3-0, 0-2 — 4 nodes, connected.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        GraphContext::new(&g)
    }

    #[test]
    fn kinds_roundtrip_names() {
        for kind in NodeAggKind::ALL {
            assert_eq!(NodeAggKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(NodeAggKind::parse("sage-mean"), Some(NodeAggKind::SageMean));
        assert_eq!(NodeAggKind::parse("nope"), None);
    }

    #[test]
    fn there_are_eleven_aggregators() {
        assert_eq!(NodeAggKind::ALL.len(), 11);
    }

    #[test]
    fn every_aggregator_builds_and_has_right_shapes() {
        let ctx = tiny_ctx();
        for kind in NodeAggKind::ALL {
            let mut store = VarStore::new();
            let mut rng = StdRng::seed_from_u64(3);
            let agg = build_aggregator(kind, &mut store, &mut rng, 5, 8, 2);
            assert_eq!(agg.out_dim(), 8, "{kind}");
            assert!(!agg.params().is_empty(), "{kind} registered no params");
            let mut tape = Tape::new(0);
            let h = tape.constant(Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.1));
            let out = agg.forward(&mut tape, &store, &ctx, h);
            assert_eq!(tape.value(out).shape(), (4, 8), "{kind}");
            assert!(!tape.value(out).has_non_finite(), "{kind} produced NaN/inf");
        }
    }

    #[test]
    fn aggregator_outputs_differ_across_kinds() {
        // Different aggregators should produce different functions even with
        // identical RNG seeds (they register different parameter layouts).
        let ctx = tiny_ctx();
        let mut outputs = Vec::new();
        for kind in [NodeAggKind::SageMean, NodeAggKind::Gcn, NodeAggKind::Gat] {
            let mut store = VarStore::new();
            let mut rng = StdRng::seed_from_u64(11);
            let agg = build_aggregator(kind, &mut store, &mut rng, 3, 4, 1);
            let mut tape = Tape::new(0);
            let h = tape.constant(Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.2 - 1.0));
            let out = agg.forward(&mut tape, &store, &ctx, h);
            outputs.push(tape.value(out).clone());
        }
        assert_ne!(outputs[0], outputs[1]);
        assert_ne!(outputs[1], outputs[2]);
    }
}
