//! The GAT attention family: GAT, GAT-SYM, GAT-COS, GAT-LINEAR and
//! GAT-GEN-LINEAR (Table XI of the paper).
//!
//! All five share the same skeleton — project, score each edge, softmax the
//! scores over each destination's in-edges, aggregate weighted messages —
//! and differ only in the score function, captured by [`GatScore`].
//!
//! Multi-head attention splits the output dimension into `heads` equal
//! slices; each head owns its attention parameters and the head outputs are
//! concatenated.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use sane_autodiff::{glorot_init, Matrix, ParamId, Tape, Tensor, VarStore};

use crate::agg::NodeAggregator;
use crate::context::GraphContext;

/// Attention score functions (Table XI).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GatScore {
    /// `LeakyReLU(a_src·Wh_u + a_dst·Wh_v)`.
    Gat,
    /// Symmetrised: `e_uv + e_vu` with the GAT score.
    Sym,
    /// Dot product `⟨Wh_u, Wh_v⟩`.
    Cos,
    /// `tanh(a_src·Wh_u + a_dst·Wh_v)`.
    Linear,
    /// `w_G · tanh(W_src Wh_u + W_dst Wh_v)`.
    GenLinear,
}

struct Head {
    /// `head_dim x 1` attention vectors (unused by Cos/GenLinear).
    a_src: Option<ParamId>,
    a_dst: Option<ParamId>,
    /// GenLinear projections (`head_dim x head_dim`) and output (`head_dim x 1`).
    gen_src: Option<ParamId>,
    gen_dst: Option<ParamId>,
    gen_out: Option<ParamId>,
}

/// Multi-head graph attention aggregator.
pub struct GatAggregator {
    w: ParamId,
    bias: ParamId,
    heads: Vec<Head>,
    head_dim: usize,
    out_dim: usize,
    score: GatScore,
    negative_slope: f32,
}

impl GatAggregator {
    /// # Panics
    /// Panics if `heads` does not divide `out_dim`.
    pub fn new(
        store: &mut VarStore,
        rng: &mut StdRng,
        in_dim: usize,
        out_dim: usize,
        heads: usize,
        score: GatScore,
    ) -> Self {
        assert!(
            heads > 0 && out_dim.is_multiple_of(heads),
            "heads ({heads}) must divide out_dim ({out_dim})"
        );
        let head_dim = out_dim / heads;
        let w = store.add("gat.w", glorot_init(in_dim, out_dim, rng));
        let bias = store.add("gat.b", Matrix::zeros(1, out_dim));
        let heads = (0..heads)
            .map(|h| match score {
                GatScore::Gat | GatScore::Sym | GatScore::Linear => Head {
                    a_src: Some(
                        store.add(format!("gat.h{h}.a_src"), glorot_init(head_dim, 1, rng)),
                    ),
                    a_dst: Some(
                        store.add(format!("gat.h{h}.a_dst"), glorot_init(head_dim, 1, rng)),
                    ),
                    gen_src: None,
                    gen_dst: None,
                    gen_out: None,
                },
                GatScore::Cos => {
                    Head { a_src: None, a_dst: None, gen_src: None, gen_dst: None, gen_out: None }
                }
                GatScore::GenLinear => Head {
                    a_src: None,
                    a_dst: None,
                    gen_src: Some(
                        store
                            .add(format!("gat.h{h}.gen_src"), glorot_init(head_dim, head_dim, rng)),
                    ),
                    gen_dst: Some(
                        store
                            .add(format!("gat.h{h}.gen_dst"), glorot_init(head_dim, head_dim, rng)),
                    ),
                    gen_out: Some(
                        store.add(format!("gat.h{h}.gen_out"), glorot_init(head_dim, 1, rng)),
                    ),
                },
            })
            .collect();
        Self { w, bias, heads, head_dim, out_dim, score, negative_slope: 0.2 }
    }

    /// Per-edge scores for one head, given the head's projected features.
    fn edge_scores(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        ctx: &GraphContext,
        head: &Head,
        wh: Tensor,
    ) -> Tensor {
        let layout = &ctx.layout;
        match self.score {
            GatScore::Gat | GatScore::Sym | GatScore::Linear => {
                let a_src = tape.param(store, head.a_src.expect("score family has a_src")); // lint:allow(expect) -- score family has a_src
                let a_dst = tape.param(store, head.a_dst.expect("score family has a_dst")); // lint:allow(expect) -- score family has a_dst
                                                                                            // Per-node scalar scores, gathered per edge — O(n) matmuls
                                                                                            // instead of O(edges).
                let s_src = tape.matmul(wh, a_src);
                let s_dst = tape.matmul(wh, a_dst);
                let src_part = tape.gather_rows(s_src, &layout.src);
                let dst_part = tape.gather_rows(s_dst, &layout.dst);
                let raw = tape.add(src_part, dst_part);
                match self.score {
                    GatScore::Gat => tape.leaky_relu(raw, self.negative_slope),
                    GatScore::Linear => tape.tanh(raw),
                    GatScore::Sym => {
                        let e_fwd = tape.leaky_relu(raw, self.negative_slope);
                        // Reverse direction: u and v swap roles.
                        let src_rev = tape.gather_rows(s_src, &layout.dst);
                        let dst_rev = tape.gather_rows(s_dst, &layout.src);
                        let raw_rev = tape.add(src_rev, dst_rev);
                        let e_rev = tape.leaky_relu(raw_rev, self.negative_slope);
                        tape.add(e_fwd, e_rev)
                    }
                    _ => unreachable!(),
                }
            }
            // One fused op for gather ×2 → mul → row_sum: no `E x d` plane
            // lands on the tape.
            GatScore::Cos => tape.gather_dot(wh, &layout.src, &layout.dst),
            GatScore::GenLinear => {
                let gen_src = tape.param(store, head.gen_src.expect("gen-linear has gen_src")); // lint:allow(expect) -- gen-linear has gen_src
                let gen_dst = tape.param(store, head.gen_dst.expect("gen-linear has gen_dst")); // lint:allow(expect) -- gen-linear has gen_dst
                let gen_out = tape.param(store, head.gen_out.expect("gen-linear has gen_out")); // lint:allow(expect) -- gen-linear has gen_out
                let proj_src = tape.matmul(wh, gen_src);
                let proj_dst = tape.matmul(wh, gen_dst);
                // One fused op for gather ×2 → add → tanh → matmul: the
                // `E x d` planes of that chain never land on the tape.
                tape.gen_linear_score(proj_src, proj_dst, gen_out, &layout.src, &layout.dst)
            }
        }
    }
}

impl NodeAggregator for GatAggregator {
    fn forward(&self, tape: &mut Tape, store: &VarStore, ctx: &GraphContext, h: Tensor) -> Tensor {
        let w = tape.param(store, self.w);
        let wh_all = tape.matmul(h, w);
        let layout = &ctx.layout;
        let mut head_outputs = Vec::with_capacity(self.heads.len());
        for (hd, head) in self.heads.iter().enumerate() {
            let wh = if self.heads.len() == 1 {
                wh_all
            } else {
                tape.slice_cols(wh_all, hd * self.head_dim, (hd + 1) * self.head_dim)
            };
            let scores = self.edge_scores(tape, store, ctx, head, wh);
            // Fused gather + softmax + weighted aggregation: one op instead
            // of the gather → softmax → broadcast → segment_sum chain, so
            // neither the per-edge messages nor alpha ever land on the tape.
            head_outputs.push(tape.gather_attention(scores, wh, &layout.src, &layout.segments));
        }
        let combined =
            if head_outputs.len() == 1 { head_outputs[0] } else { tape.concat_cols(&head_outputs) };
        let bias = tape.param(store, self.bias);
        tape.add_bias(combined, bias)
    }

    fn params(&self) -> Vec<ParamId> {
        let mut p = vec![self.w, self.bias];
        for head in &self.heads {
            p.extend(
                [head.a_src, head.a_dst, head.gen_src, head.gen_dst, head.gen_out]
                    .into_iter()
                    .flatten(),
            );
        }
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
        GraphContext::new(&Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]))
    }

    fn forward_with(score: GatScore, heads: usize) -> Matrix {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let agg = GatAggregator::new(&mut store, &mut rng, 3, 4, heads, score);
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32).sin()));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        tape.value(out).clone()
    }

    #[test]
    fn all_score_variants_produce_finite_output() {
        for score in
            [GatScore::Gat, GatScore::Sym, GatScore::Cos, GatScore::Linear, GatScore::GenLinear]
        {
            let out = forward_with(score, 1);
            assert_eq!(out.shape(), (4, 4));
            assert!(!out.has_non_finite(), "{score:?}");
        }
    }

    #[test]
    fn multi_head_matches_shape() {
        let out = forward_with(GatScore::Gat, 2);
        assert_eq!(out.shape(), (4, 4));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn heads_must_divide_out_dim() {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = GatAggregator::new(&mut store, &mut rng, 3, 4, 3, GatScore::Gat);
    }

    /// With uniform attention the GAT output reduces to a mean aggregation:
    /// zero attention vectors give equal scores, so softmax is uniform.
    #[test]
    fn zero_attention_params_give_mean_aggregation() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let agg = GatAggregator::new(&mut store, &mut rng, 2, 2, 1, GatScore::Gat);
        store.set(agg.heads[0].a_src.unwrap(), Matrix::zeros(2, 1));
        store.set(agg.heads[0].a_dst.unwrap(), Matrix::zeros(2, 1));
        store.set(agg.w, Matrix::eye(2));
        let mut tape = Tape::new(0);
        let feat = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]);
        let h = tape.constant(feat.clone());
        let out = agg.forward(&mut tape, &store, &ctx, h);
        let expected = ctx.mean.spmm(&feat);
        for (a, b) in tape.value(out).data().iter().zip(expected.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn attention_weights_sum_to_one_implicitly() {
        // Constant features + identity W mean every message is identical, so
        // the aggregated output must equal that constant row regardless of
        // the learned attention parameters.
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let agg = GatAggregator::new(&mut store, &mut rng, 2, 2, 1, GatScore::Sym);
        store.set(agg.w, Matrix::eye(2));
        store.set(agg.bias, Matrix::zeros(1, 2));
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::full(4, 2, 3.5));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        for &v in tape.value(out).data() {
            assert!((v - 3.5).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_reach_attention_params() {
        let ctx = ctx();
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let agg = GatAggregator::new(&mut store, &mut rng, 3, 4, 2, GatScore::Gat);
        let mut tape = Tape::new(0);
        let h = tape.constant(Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f32 * 0.3));
        let out = agg.forward(&mut tape, &store, &ctx, h);
        let loss = tape.mean_all(out);
        let grads = tape.backward(loss);
        for p in agg.params() {
            assert!(grads.get(p).is_some(), "no gradient for {}", store.name(p));
        }
    }
}
