//! Search-space definitions.
//!
//! Every space is presented to the searchers as a [`CategoricalSpace`] — a
//! vector of categorical decision dimensions — plus a decoder into a
//! concrete model specification. This lets Random, Bayesian/TPE and the
//! RL controller run unchanged over the SANE space (Table I), the
//! GraphNAS-style hyper-parameter space (Table IX) and the MLP-aggregator
//! space (Table X).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use sane_gnn::{Activation, AggChoice, Architecture, LayerAggKind, NodeAggKind, SkipOp};

/// A product of categorical decisions; `dims[i]` is the cardinality of
/// decision `i`. Genomes are index vectors.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoricalSpace {
    /// Cardinality of each decision.
    pub dims: Vec<usize>,
}

impl CategoricalSpace {
    /// Creates a space.
    ///
    /// # Panics
    /// Panics if any dimension has cardinality zero.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "every decision needs at least one option");
        Self { dims }
    }

    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// True for a space with no decisions.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Total number of architectures (saturating at `u128::MAX`).
    pub fn size(&self) -> u128 {
        self.dims.iter().fold(1u128, |acc, &d| acc.saturating_mul(d as u128))
    }

    /// Uniformly samples a genome.
    pub fn sample(&self, rng: &mut StdRng) -> Vec<usize> {
        self.dims.iter().map(|&d| rng.gen_range(0..d)).collect()
    }

    /// Checks a genome is well-formed for this space.
    ///
    /// # Panics
    /// Panics if the genome length or any entry is out of range.
    pub fn check(&self, genome: &[usize]) {
        assert_eq!(genome.len(), self.dims.len(), "genome length mismatch");
        for (i, (&g, &d)) in genome.iter().zip(&self.dims).enumerate() {
            assert!(g < d, "genome[{i}] = {g} out of range 0..{d}");
        }
    }

    /// Mutates one random decision to a new value (used by tests and the
    /// RL controller's exploration).
    pub fn mutate(&self, genome: &mut [usize], rng: &mut StdRng) {
        self.check(genome);
        let i = rng.gen_range(0..self.dims.len());
        if self.dims[i] > 1 {
            let mut v = rng.gen_range(0..self.dims[i] - 1);
            if v >= genome[i] {
                v += 1;
            }
            genome[i] = v;
        }
    }
}

/// The SANE search space (Table I): `K` node aggregators from `O_n` (11
/// options), `K` skip ops from `O_s` (2 options) and one layer aggregator
/// from `O_l` (3 options). For `K = 3` this is `11³ · 2³ · 3 = 31,944`
/// architectures, as reported in Section III-C of the paper.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SaneSpace {
    /// Number of GNN layers `K`.
    pub k: usize,
}

impl SaneSpace {
    /// The paper's default 3-layer space.
    pub fn paper() -> Self {
        Self { k: 3 }
    }

    /// The categorical encoding: `K` node dims, `K` skip dims, 1 layer dim.
    pub fn space(&self) -> CategoricalSpace {
        let mut dims = vec![NodeAggKind::ALL.len(); self.k];
        dims.extend(vec![SkipOp::ALL.len(); self.k]);
        dims.push(LayerAggKind::ALL.len());
        CategoricalSpace::new(dims)
    }

    /// Decodes a genome into an [`Architecture`].
    ///
    /// # Panics
    /// Panics on a malformed genome.
    pub fn decode(&self, genome: &[usize]) -> Architecture {
        self.space().check(genome);
        let node_aggs =
            (0..self.k).map(|l| AggChoice::Standard(NodeAggKind::ALL[genome[l]])).collect();
        let skips = (0..self.k).map(|l| SkipOp::ALL[genome[self.k + l]]).collect();
        let layer_agg = Some(LayerAggKind::ALL[genome[2 * self.k]]);
        Architecture { node_aggs, skips, layer_agg }
    }

    /// Encodes an architecture back into a genome.
    ///
    /// # Panics
    /// Panics if the architecture does not belong to this space (wrong
    /// depth, non-standard aggregators, or no layer aggregator).
    pub fn encode(&self, arch: &Architecture) -> Vec<usize> {
        assert_eq!(arch.depth(), self.k, "architecture depth mismatch");
        let mut genome = Vec::with_capacity(2 * self.k + 1);
        for choice in &arch.node_aggs {
            let AggChoice::Standard(kind) = choice else {
                panic!("architecture uses a non-O_n aggregator");
            };
            genome.push(NodeAggKind::ALL.iter().position(|k| k == kind).expect("kind in O_n"));
            // lint:allow(expect) -- kind in O_n
        }
        for skip in &arch.skips {
            genome.push(SkipOp::ALL.iter().position(|s| s == skip).expect("skip in O_s"));
            // lint:allow(expect) -- skip in O_s
        }
        let la = arch.layer_agg.expect("SANE architectures have a layer aggregator"); // lint:allow(expect) -- SANE architectures have a layer aggregator
        genome.push(LayerAggKind::ALL.iter().position(|l| *l == la).expect("layer agg in O_l")); // lint:allow(expect) -- layer agg in O_l
        genome
    }
}

/// The MLP-aggregator space of Table X: per layer a width
/// `w ∈ {8, 16, 32, 64}` and depth `d ∈ {1, 2, 3}`, with the SANE skip /
/// layer-aggregator decisions unchanged.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MlpSpace {
    /// Number of GNN layers `K`.
    pub k: usize,
}

/// MLP widths searched in Table X.
pub const MLP_WIDTHS: [usize; 4] = [8, 16, 32, 64];
/// MLP depths searched in Table X.
pub const MLP_DEPTHS: [usize; 3] = [1, 2, 3];

impl MlpSpace {
    /// Encoding: per layer `(width, depth)`, then `K` skips, then the
    /// layer aggregator.
    pub fn space(&self) -> CategoricalSpace {
        let mut dims = Vec::with_capacity(3 * self.k + 1);
        for _ in 0..self.k {
            dims.push(MLP_WIDTHS.len());
            dims.push(MLP_DEPTHS.len());
        }
        dims.extend(vec![SkipOp::ALL.len(); self.k]);
        dims.push(LayerAggKind::ALL.len());
        CategoricalSpace::new(dims)
    }

    /// Decodes a genome into an [`Architecture`] of MLP aggregators.
    pub fn decode(&self, genome: &[usize]) -> Architecture {
        self.space().check(genome);
        let node_aggs = (0..self.k)
            .map(|l| AggChoice::Mlp(MLP_WIDTHS[genome[2 * l]], MLP_DEPTHS[genome[2 * l + 1]]))
            .collect();
        let skips = (0..self.k).map(|l| SkipOp::ALL[genome[2 * self.k + l]]).collect();
        let layer_agg = Some(LayerAggKind::ALL[genome[3 * self.k]]);
        Architecture { node_aggs, skips, layer_agg }
    }
}

/// Aggregators available per layer in the GraphNAS-style space. GraphNAS
/// searches attention type + aggregator jointly; we expose the same
/// functional variety through `O_n` members.
pub const GRAPHNAS_AGGS: [NodeAggKind; 8] = [
    NodeAggKind::Gcn,
    NodeAggKind::SageSum,
    NodeAggKind::SageMean,
    NodeAggKind::SageMax,
    NodeAggKind::Gat,
    NodeAggKind::GatSym,
    NodeAggKind::GatCos,
    NodeAggKind::GatLinear,
];
/// Activations searched by GraphNAS.
pub const GRAPHNAS_ACTS: [Activation; 3] = [Activation::Relu, Activation::Elu, Activation::Tanh];
/// Hidden sizes searched by GraphNAS.
pub const GRAPHNAS_HIDDEN: [usize; 4] = [8, 16, 32, 64];

/// One layer of a GraphNAS-style model.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphNasLayer {
    /// Aggregator kind.
    pub agg: NodeAggKind,
    /// Post-layer activation.
    pub act: Activation,
    /// Hidden width of this layer.
    pub hidden: usize,
}

/// A decoded GraphNAS-style model specification.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphNasSpec {
    /// Per-layer choices.
    pub layers: Vec<GraphNasLayer>,
}

/// The GraphNAS-style search space of Table IX: per layer an aggregator
/// (8), an activation (3) and a hidden width (4) — no skip connections and
/// no layer aggregator. Mixing architecture with hyper-parameters is
/// exactly the design choice the paper criticises; for `K = 3` this space
/// has `(8·3·4)³ ≈ 8.8 × 10⁵` architectures versus SANE's `3.2 × 10⁴`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphNasSpace {
    /// Number of GNN layers `K`.
    pub k: usize,
}

impl GraphNasSpace {
    /// The categorical encoding: per layer `(agg, act, hidden)`.
    pub fn space(&self) -> CategoricalSpace {
        let mut dims = Vec::with_capacity(3 * self.k);
        for _ in 0..self.k {
            dims.push(GRAPHNAS_AGGS.len());
            dims.push(GRAPHNAS_ACTS.len());
            dims.push(GRAPHNAS_HIDDEN.len());
        }
        CategoricalSpace::new(dims)
    }

    /// Decodes a genome into a model spec.
    pub fn decode(&self, genome: &[usize]) -> GraphNasSpec {
        self.space().check(genome);
        let layers = (0..self.k)
            .map(|l| GraphNasLayer {
                agg: GRAPHNAS_AGGS[genome[3 * l]],
                act: GRAPHNAS_ACTS[genome[3 * l + 1]],
                hidden: GRAPHNAS_HIDDEN[genome[3 * l + 2]],
            })
            .collect();
        GraphNasSpec { layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sane_space_size_matches_paper() {
        // Section III-C: 11³ × 2³ × 3 = 31,944 for K = 3.
        assert_eq!(SaneSpace::paper().space().size(), 31_944);
    }

    #[test]
    fn sane_encode_decode_roundtrip() {
        let space = SaneSpace { k: 3 };
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let genome = space.space().sample(&mut rng);
            let arch = space.decode(&genome);
            assert_eq!(space.encode(&arch), genome);
        }
    }

    #[test]
    fn sane_space_emulates_table2_baselines() {
        // Every human-designed baseline of Table II must be expressible.
        let space = SaneSpace { k: 3 };
        for kind in NodeAggKind::ALL {
            for layer_agg in LayerAggKind::ALL {
                let arch = Architecture::uniform(kind, 3, Some(layer_agg));
                let genome = space.encode(&arch);
                assert_eq!(space.decode(&genome), arch);
            }
        }
    }

    #[test]
    fn every_sane_genome_corner_passes_the_tape_audit() {
        // All-minimum and all-maximum genomes exercise both extremes of
        // every decision, and sampled genomes mix them. Each decodes to a
        // model whose forward + loss tape has no error-severity finding:
        // the SANE space holds no statically invalid architecture.
        use std::sync::Arc;

        use sane_autodiff::{uniform_init, Tape, VarStore};
        use sane_gnn::{GnnModel, GraphContext, ModelHyper};
        use sane_graph::Graph;

        // A triangle with a pendant chain: degrees 1..3 keep every
        // aggregator's segment shapes irregular.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        let ctx = GraphContext::new(&g);
        let mut rng = StdRng::seed_from_u64(0x5a9e);
        let features = Arc::new(uniform_init(6, 5, 0.5, &mut rng));
        let labels = Arc::new(vec![0u32, 1, 2, 0, 1, 2]);
        let train_rows = Arc::new(vec![0u32, 2, 4]);
        // Small but GAT-compatible: hidden divisible by heads.
        let hyper = ModelHyper { hidden: 8, heads: 2, dropout: 0.0, ..ModelHyper::default() };

        let space = SaneSpace::paper();
        let cat = space.space();
        let lo: Vec<usize> = cat.dims.iter().map(|_| 0).collect();
        let hi: Vec<usize> = cat.dims.iter().map(|&d| d - 1).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let sampled: Vec<Vec<usize>> = (0..16).map(|_| cat.sample(&mut rng)).collect();
        for genome in [lo, hi].into_iter().chain(sampled) {
            let mut store = VarStore::new();
            let mut rng = StdRng::seed_from_u64(7);
            let model =
                GnnModel::new(space.decode(&genome), 5, 3, hyper.clone(), &mut store, &mut rng);
            let mut tape = Tape::new(0);
            let x = tape.input(Arc::clone(&features));
            let logits = model.forward(&mut tape, &store, &ctx, x, false);
            let loss = tape.cross_entropy(logits, &labels, &train_rows);
            let report = tape.audit(loss, Some(&store));
            assert!(!report.has_errors(), "genome {genome:?}:\n{report}");
        }
    }

    #[test]
    fn mlp_space_size() {
        // Per layer 4 × 3, plus 2^k skips and 3 layer aggs.
        let space = MlpSpace { k: 3 };
        assert_eq!(space.space().size(), (12u128).pow(3) * 8 * 3);
        let mut rng = StdRng::seed_from_u64(0);
        let genome = space.space().sample(&mut rng);
        let arch = space.decode(&genome);
        assert_eq!(arch.depth(), 3);
        assert!(matches!(arch.node_aggs[0], AggChoice::Mlp(_, _)));
    }

    #[test]
    fn graphnas_space_is_orders_larger_than_sane() {
        let gn = GraphNasSpace { k: 3 }.space().size();
        let sane = SaneSpace { k: 3 }.space().size();
        assert!(gn > 10 * sane, "graphnas {gn} vs sane {sane}");
    }

    #[test]
    fn graphnas_decode_shapes() {
        let space = GraphNasSpace { k: 2 };
        let spec = space.decode(&[0, 0, 0, 7, 2, 3]);
        assert_eq!(spec.layers.len(), 2);
        assert_eq!(spec.layers[0].agg, NodeAggKind::Gcn);
        assert_eq!(spec.layers[1].agg, NodeAggKind::GatLinear);
        assert_eq!(spec.layers[1].hidden, 64);
    }

    #[test]
    fn categorical_space_checks_genomes() {
        let s = CategoricalSpace::new(vec![2, 3]);
        s.check(&[1, 2]);
        assert!(std::panic::catch_unwind(|| s.check(&[2, 0])).is_err());
        assert!(std::panic::catch_unwind(|| s.check(&[0])).is_err());
    }

    #[test]
    fn mutate_changes_exactly_one_dim() {
        let s = CategoricalSpace::new(vec![5; 10]);
        let mut rng = StdRng::seed_from_u64(1);
        let base = s.sample(&mut rng);
        let mut mutated = base.clone();
        s.mutate(&mut mutated, &mut rng);
        let diff = base.iter().zip(&mutated).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1);
    }
}
