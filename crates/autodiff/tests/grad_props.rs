//! Property-based gradient verification: every differentiable op's
//! analytic backward pass is checked against central finite differences on
//! random shapes and values.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sane_autodiff::gradcheck::check_gradient;
use sane_autodiff::parallel::with_threads;
use sane_autodiff::{uniform_init, Csr, EdgeIndex, Matrix, Segments, Tape, Tensor, VarStore};

const TOL: f32 = 0.02;

fn input(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    uniform_init(rows, cols, 0.9, &mut rng)
}

/// Runs a gradient check on a fresh store holding a single `rows x cols`
/// parameter fed through `f`.
fn check(
    seed: u64,
    rows: usize,
    cols: usize,
    f: impl FnMut(&mut Tape, &VarStore, Tensor) -> Tensor,
) -> f32 {
    let mut store = VarStore::new();
    let p = store.add("x", input(seed, rows, cols));
    check_gradient(&mut store, p, 1e-2, f).max_rel_err
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn elementwise_chain_grads(seed in 0u64..10_000, rows in 1usize..5, cols in 1usize..6) {
        let err = check(seed, rows, cols, |t, _, x| {
            let a = t.tanh(x);
            let b = t.sigmoid(a);
            let c = t.mul(a, b);
            let d = t.scale(c, 1.5);
            let e = t.add_scalar(d, 0.3);
            t.mean_all(e)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn smooth_activations_grads(seed in 0u64..10_000, n in 1usize..8) {
        // elu/tanh/sigmoid are smooth; relu/leaky/abs have kinks that the
        // random draw avoids with high probability at |x| >= 0.05.
        let err = check(seed, 2, n, |t, _, x| {
            let shifted = t.add_scalar(x, 2.0); // keep relu away from the kink
            let a = t.relu(shifted);
            let b = t.elu(a);
            let c = t.leaky_relu(b, 0.2);
            t.sum_all(c)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn matmul_grads(seed in 0u64..10_000, m in 1usize..5, k in 1usize..5, n in 1usize..5) {
        let other = input(seed ^ 1, k, n);
        let err = check(seed, m, k, move |t, _, x| {
            let b = t.constant(other.clone());
            let c = t.matmul(x, b);
            t.mean_all(c)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn matmul_rhs_grads(seed in 0u64..10_000, m in 1usize..5, k in 1usize..5, n in 1usize..5) {
        let other = input(seed ^ 2, m, k);
        let err = check(seed, k, n, move |t, _, x| {
            let a = t.constant(other.clone());
            let c = t.matmul(a, x);
            t.mean_all(c)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn spmm_grads(seed in 0u64..10_000, n in 2usize..6, d in 1usize..4) {
        let sparse = Arc::new(Csr::from_coo(
            n,
            n,
            &(0..n).map(|i| (i as u32, ((i + 1) % n) as u32, 0.5 + i as f32 * 0.1)).collect::<Vec<_>>(),
        ));
        let err = check(seed, n, d, move |t, _, x| {
            let c = t.spmm(&sparse, x);
            t.sum_all(c)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn softmax_rows_grads(seed in 0u64..10_000, rows in 1usize..4, cols in 2usize..6) {
        let probe = input(seed ^ 3, rows, cols);
        let err = check(seed, rows, cols, move |t, _, x| {
            let p = t.softmax_rows(x);
            // Weighted probe makes the gradient non-degenerate.
            let w = t.constant(probe.clone());
            let m = t.mul(p, w);
            t.sum_all(m)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn log_softmax_grads(seed in 0u64..10_000, cols in 2usize..6) {
        let probe = input(seed ^ 4, 2, cols);
        let err = check(seed, 2, cols, move |t, _, x| {
            let p = t.log_softmax_rows(x);
            let w = t.constant(probe.clone());
            let m = t.mul(p, w);
            t.mean_all(m)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn concat_slice_grads(seed in 0u64..10_000, rows in 1usize..4, a in 1usize..4, b in 1usize..4) {
        let right = input(seed ^ 5, rows, b);
        let err = check(seed, rows, a, move |t, _, x| {
            let r = t.constant(right.clone());
            let cat = t.concat_cols(&[x, r]);
            let sl = t.slice_cols(cat, 0, a + b.min(1));
            t.sum_all(sl)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn gather_segment_grads(seed in 0u64..10_000, d in 1usize..4) {
        // 3 nodes, messages: [0,1 -> seg0], [1,2,0 -> seg1], [2 -> seg2]
        let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0, 2]));
        let segs = Arc::new(Segments::from_lengths(&[2, 3, 1]));
        let err = check(seed, 3, d, move |t, _, x| {
            let g = t.gather_rows(x, &idx);
            let s = t.segment_sum(g, &segs);
            let m = t.segment_mean(g, &segs);
            let combined = t.add(s, m);
            t.mean_all(combined)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn gather_dot_grads(seed in 0u64..10_000, d in 1usize..5) {
        // A self loop (0 -> 0), a repeated edge (1 -> 2 twice) and a node
        // that is only a source (3): both sides scatter into every row.
        let src = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 3, 2, 3]));
        let dst = Arc::new(EdgeIndex::new(vec![0u32, 2, 2, 0, 1, 2]));
        let err = check(seed, 4, d, move |t, _, x| {
            let scores = t.gather_dot(x, &src, &dst);
            let squashed = t.tanh(scores);
            t.sum_all(squashed)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn mix_grads(seed in 0u64..10_000, m in 1usize..4) {
        // Through the weights (a softmax row with one spare column, like the
        // skip mixture's ZERO op), and through one term.
        let terms: Vec<Matrix> = (0..m).map(|i| input(seed ^ (20 + i as u64), 3, 2)).collect();
        let fixed = terms.clone();
        let err = check(seed, 1, m + 1, move |t, _, x| {
            let w = t.softmax_rows(x);
            let outs: Vec<Tensor> = fixed.iter().map(|o| t.constant(o.clone())).collect();
            let y = t.mix(w, &outs);
            let sq = t.mul(y, y);
            t.sum_all(sq)
        });
        prop_assert!(err < TOL, "weights: rel err {err}");
        let weights = input(seed ^ 30, 1, m + 1);
        let err = check(seed, 3, 2, move |t, _, x| {
            let w = t.constant(weights.clone());
            let mut outs: Vec<Tensor> = terms[1..].iter().map(|o| t.constant(o.clone())).collect();
            outs.insert(0, x);
            let y = t.mix(w, &outs);
            let sq = t.mul(y, y);
            t.sum_all(sq)
        });
        prop_assert!(err < TOL, "term: rel err {err}");
    }

    #[test]
    fn segment_softmax_attention_grads(seed in 0u64..10_000) {
        // Full attention pattern: scores -> segment softmax -> weighted sum.
        let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0]));
        let segs = Arc::new(Segments::from_lengths(&[2, 2, 1]));
        let feats = input(seed ^ 6, 3, 3);
        let err = check(seed, 3, 1, move |t, _, x| {
            let scores = t.gather_rows(x, &idx);
            let alpha = t.segment_softmax(scores, &segs);
            let f = t.constant(feats.clone());
            let msgs = t.gather_rows(f, &idx);
            let weighted = t.mul_col_broadcast(msgs, alpha);
            let out = t.segment_sum(weighted, &segs);
            t.mean_all(out)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn mul_col_broadcast_weight_grads(seed in 0u64..10_000, rows in 1usize..5, cols in 1usize..4) {
        let feats = input(seed ^ 7, rows, cols);
        let err = check(seed, rows, 1, move |t, _, x| {
            let f = t.constant(feats.clone());
            let w = t.mul_col_broadcast(f, x);
            t.sum_all(w)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn cross_entropy_grads(seed in 0u64..10_000, n in 2usize..5, c in 2usize..5) {
        let labels = Arc::new((0..n as u32).map(|i| i % c as u32).collect::<Vec<_>>());
        let rows = Arc::new((0..n as u32).collect::<Vec<_>>());
        let err = check(seed, n, c, move |t, _, x| t.cross_entropy(x, &labels, &rows));
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn bce_grads(seed in 0u64..10_000, n in 1usize..4, c in 1usize..5) {
        let targets = Arc::new(Matrix::from_fn(n, c, |r, cc| ((r + cc) % 2) as f32));
        let rows = Arc::new((0..n as u32).collect::<Vec<_>>());
        let err = check(seed, n, c, move |t, _, x| t.bce_with_logits(x, &targets, &rows));
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn add_bias_and_scalar_tensor_grads(seed in 0u64..10_000, rows in 1usize..5, cols in 1usize..4) {
        let base = input(seed ^ 8, rows, cols);
        // Gradient w.r.t. the bias row.
        let err = check(seed, 1, cols, move |t, _, x| {
            let b = t.constant(base.clone());
            let y = t.add_bias(b, x);
            t.mean_all(y)
        });
        prop_assert!(err < TOL, "rel err {err}");
        // Gradient w.r.t. a 1x1 gate.
        let base2 = input(seed ^ 9, rows, cols);
        let err = check(seed ^ 10, 1, 1, move |t, _, x| {
            let b = t.constant(base2.clone());
            let y = t.mul_scalar_tensor(b, x);
            t.sum_all(y)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn sub_and_abs_grads(seed in 0u64..10_000, rows in 1usize..5, cols in 1usize..4) {
        let other = input(seed ^ 11, rows, cols);
        // abs has a kink at 0: inputs are in (-1.8, 1.8), so shifting by
        // +/-3 keeps every element at least 1.2 away from it.
        let err = check(seed, rows, cols, move |t, _, x| {
            let o = t.constant(other.clone());
            let d = t.sub(x, o);
            let pos_in = t.add_scalar(d, 3.0);
            let pos = t.abs(pos_in);
            let neg_in = t.add_scalar(d, -3.0);
            let neg_full = t.abs(neg_in);
            // Weight one branch so +1/-1 gradients do not cancel to zero.
            let neg = t.scale(neg_full, 0.5);
            let s = t.add(pos, neg);
            t.mean_all(s)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn row_sum_grads(seed in 0u64..10_000, rows in 1usize..5, cols in 1usize..4) {
        let probe = input(seed ^ 12, rows, cols);
        let err = check(seed, rows, cols, move |t, _, x| {
            let w = t.constant(probe.clone());
            let m = t.mul(x, w);
            let rs = t.row_sum(m);
            t.sum_all(rs)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn dropout_grads(seed in 0u64..10_000, rows in 1usize..5, cols in 1usize..4) {
        // check_gradient rebuilds every evaluation on `Tape::new(0)`, so
        // the dropout mask is identical across the analytic pass and both
        // finite-difference probes; the check is exact despite the op
        // being stochastic across differently seeded tapes.
        let probe = input(seed ^ 13, rows, cols);
        let err = check(seed, rows, cols, move |t, _, x| {
            let d = t.dropout(x, 0.4);
            let w = t.constant(probe.clone());
            let m = t.mul(d, w);
            t.sum_all(m)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn lstm_cell_composite_grads(seed in 0u64..10_000) {
        // The LSTM layer aggregator's cell, rebuilt from primitive ops:
        // two timesteps, gradient checked w.r.t. the input projection.
        let d = 2usize;
        let n = 3usize;
        let x0 = input(seed ^ 14, n, d);
        let x1 = input(seed ^ 15, n, d);
        let wh = input(seed ^ 16, d, 4 * d);
        let bias = input(seed ^ 17, 1, 4 * d);
        let err = check(seed, d, 4 * d, move |t, _, wx| {
            let wh_t = t.constant(wh.clone());
            let b = t.constant(bias.clone());
            let mut h = t.constant(Matrix::zeros(n, d));
            let mut c = t.constant(Matrix::zeros(n, d));
            for xm in [&x0, &x1] {
                let xt = t.constant((*xm).clone());
                let zx = t.matmul(xt, wx);
                let zh = t.matmul(h, wh_t);
                let zsum = t.add(zx, zh);
                let z = t.add_bias(zsum, b);
                let iz = t.slice_cols(z, 0, d);
                let i = t.sigmoid(iz);
                let fz = t.slice_cols(z, d, 2 * d);
                let f = t.sigmoid(fz);
                let oz = t.slice_cols(z, 2 * d, 3 * d);
                let o = t.sigmoid(oz);
                let gz = t.slice_cols(z, 3 * d, 4 * d);
                let g = t.tanh(gz);
                let keep = t.mul(f, c);
                let write = t.mul(i, g);
                c = t.add(keep, write);
                let ca = t.tanh(c);
                h = t.mul(o, ca);
            }
            t.mean_all(h)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }

    #[test]
    fn spmm_grads_parallel(seed in 0u64..10_000, n in 2usize..6, d in 1usize..4) {
        // Same op chain as `spmm_grads`, but with the parallel kernel path
        // forced at 2 and 4 workers: the analytic backward must stay within
        // finite-difference tolerance regardless of thread count.
        let sparse = Arc::new(Csr::from_coo(
            n,
            n,
            &(0..n).map(|i| (i as u32, ((i + 1) % n) as u32, 0.5 + i as f32 * 0.1)).collect::<Vec<_>>(),
        ));
        for threads in [2usize, 4] {
            let sparse = Arc::clone(&sparse);
            let err = with_threads(threads, || check(seed, n, d, move |t, _, x| {
                let c = t.spmm(&sparse, x);
                t.sum_all(c)
            }));
            prop_assert!(err < TOL, "rel err {err} at {threads} threads");
        }
    }

    #[test]
    fn segment_attention_grads_parallel(seed in 0u64..10_000) {
        // The attention pipeline of `segment_softmax_attention_grads` plus
        // sum/mean/max heads, gradient-checked under forced 2- and 4-way
        // parallel segment kernels.
        let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0, 2]));
        let segs = Arc::new(Segments::from_lengths(&[2, 3, 1]));
        let feats = input(seed ^ 20, 3, 3);
        for threads in [2usize, 4] {
            let idx = Arc::clone(&idx);
            let segs = Arc::clone(&segs);
            let feats = feats.clone();
            let err = with_threads(threads, || check(seed, 3, 1, move |t, _, x| {
                let scores = t.gather_rows(x, &idx);
                let alpha = t.segment_softmax(scores, &segs);
                let f = t.constant(feats.clone());
                let msgs = t.gather_rows(f, &idx);
                let weighted = t.mul_col_broadcast(msgs, alpha);
                let s = t.segment_sum(weighted, &segs);
                let m = t.segment_mean(weighted, &segs);
                let combined = t.add(s, m);
                t.mean_all(combined)
            }));
            prop_assert!(err < TOL, "rel err {err} at {threads} threads");
        }
    }

    #[test]
    fn segment_attention_fused_score_grads(seed in 0u64..10_000, d in 1usize..4) {
        // Fused softmax + weighted aggregation, gradient-checked w.r.t. the
        // scores — the path through the op-private alpha column — on both
        // the vectorized and the scalar reference kernels.
        let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0]));
        let segs = Arc::new(Segments::from_lengths(&[2, 0, 2, 1]));
        let feats = input(seed ^ 21, 3, d);
        let case = move |t: &mut Tape, _: &VarStore, x: Tensor| {
            let scores = t.gather_rows(x, &idx);
            let f = t.constant(feats.clone());
            let msgs = t.gather_rows(f, &idx);
            let out = t.segment_attention(scores, msgs, &segs);
            t.mean_all(out)
        };
        let err = check(seed, 3, 1, case.clone());
        prop_assert!(err < TOL, "rel err {err} (vectorized)");
        let err = sane_autodiff::simd::with_scalar(|| check(seed, 3, 1, case));
        prop_assert!(err < TOL, "rel err {err} (scalar reference)");
    }

    #[test]
    fn segment_attention_fused_message_grads(seed in 0u64..10_000, d in 1usize..4) {
        // Same op, gradient-checked w.r.t. the message features.
        let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0, 2]));
        let segs = Arc::new(Segments::from_lengths(&[2, 3, 1]));
        let scores = input(seed ^ 22, 6, 1);
        let case = move |t: &mut Tape, _: &VarStore, x: Tensor| {
            let s = t.constant(scores.clone());
            let msgs = t.gather_rows(x, &idx);
            let out = t.segment_attention(s, msgs, &segs);
            t.mean_all(out)
        };
        let err = check(seed, 3, d, case.clone());
        prop_assert!(err < TOL, "rel err {err} (vectorized)");
        let err = sane_autodiff::simd::with_scalar(|| check(seed, 3, d, case));
        prop_assert!(err < TOL, "rel err {err} (scalar reference)");
    }

    #[test]
    fn segment_attention_fused_grads_parallel(seed in 0u64..10_000, d in 1usize..4) {
        // The fused op under forced 2- and 4-way parallel segment kernels.
        let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0, 2]));
        let segs = Arc::new(Segments::from_lengths(&[2, 3, 1]));
        let feats = input(seed ^ 23, 3, d);
        for threads in [2usize, 4] {
            let idx = Arc::clone(&idx);
            let segs = Arc::clone(&segs);
            let feats = feats.clone();
            let err = with_threads(threads, || check(seed, 3, 1, move |t, _, x| {
                let scores = t.gather_rows(x, &idx);
                let f = t.constant(feats.clone());
                let msgs = t.gather_rows(f, &idx);
                let out = t.segment_attention(scores, msgs, &segs);
                t.mean_all(out)
            }));
            prop_assert!(err < TOL, "rel err {err} at {threads} threads");
        }
    }

    #[test]
    fn gather_attention_grads(seed in 0u64..10_000, d in 1usize..4) {
        // The gather-fused attention op, gradient-checked w.r.t. the node
        // features (the path through both the in-place row reads of the
        // forward pass and the direct scatter of the backward pass), on the
        // vectorized and scalar reference kernels. Repeated indices
        // exercise scatter collisions.
        let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0, 2]));
        let segs = Arc::new(Segments::from_lengths(&[2, 3, 1]));
        let scores = input(seed ^ 24, 6, 1);
        let case = move |t: &mut Tape, _: &VarStore, x: Tensor| {
            let s = t.constant(scores.clone());
            let out = t.gather_attention(s, x, &idx, &segs);
            t.mean_all(out)
        };
        let err = check(seed, 3, d, case.clone());
        prop_assert!(err < TOL, "rel err {err} (vectorized)");
        let err = sane_autodiff::simd::with_scalar(|| check(seed, 3, d, case));
        prop_assert!(err < TOL, "rel err {err} (scalar reference)");
    }

    #[test]
    fn gather_attention_score_grads_parallel(seed in 0u64..10_000, d in 1usize..4) {
        // Same op, gradient-checked w.r.t. the scores under forced 2- and
        // 4-way parallel forward kernels (the backward scatter is serial).
        let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0]));
        let segs = Arc::new(Segments::from_lengths(&[2, 0, 2, 1]));
        let feats = input(seed ^ 25, 3, d);
        for threads in [2usize, 4] {
            let idx = Arc::clone(&idx);
            let segs = Arc::clone(&segs);
            let feats = feats.clone();
            let err = with_threads(threads, || check(seed, 3, 1, move |t, _, x| {
                let scores = t.gather_rows(x, &idx);
                let f = t.constant(feats.clone());
                let out = t.gather_attention(scores, f, &idx, &segs);
                t.mean_all(out)
            }));
            prop_assert!(err < TOL, "rel err {err} at {threads} threads");
        }
    }

    #[test]
    fn gen_linear_score_grads(seed in 0u64..10_000, d in 1usize..5) {
        // The fused GAT-GEN-LINEAR score, gradient-checked w.r.t. each of
        // its three inputs in turn (the two scatter targets and the output
        // weights) on the vectorized and the scalar reference kernels.
        // Repeated indices exercise scatter collisions; the projections of
        // 3 and 4 rows keep the two scatter targets distinct.
        let src = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0, 2, 1]));
        let dst = Arc::new(EdgeIndex::new(vec![3u32, 0, 2, 2, 1, 0, 3]));
        let probe = input(seed ^ 26, src.len(), 1);
        let operands = [input(seed ^ 27, 3, d), input(seed ^ 28, 4, d), input(seed ^ 29, d, 1)];
        for which in 0..3 {
            let (src, dst, probe, operands) =
                (Arc::clone(&src), Arc::clone(&dst), probe.clone(), operands.clone());
            let (rows, cols) = operands[which].shape();
            let case = move |t: &mut Tape, _: &VarStore, x: Tensor| {
                let mut ins = operands.clone().map(|m| t.constant(m));
                ins[which] = x;
                let s = t.gen_linear_score(ins[0], ins[1], ins[2], &src, &dst);
                let p = t.constant(probe.clone());
                let weighted = t.mul(s, p);
                t.sum_all(weighted)
            };
            let err = check(seed ^ which as u64, rows, cols, case.clone());
            prop_assert!(err < TOL, "input {which}: rel err {err} (vectorized)");
            let err = sane_autodiff::simd::with_scalar(|| check(seed ^ which as u64, rows, cols, case));
            prop_assert!(err < TOL, "input {which}: rel err {err} (scalar reference)");
        }
    }

    #[test]
    fn max_stack_and_segment_max_grads(seed in 0u64..10_000, cols in 1usize..4) {
        // Kinked ops: pick inputs with distinct values so perturbation
        // does not flip the argmax.
        // Spaced by 10 and straddling the input range, so some positions
        // are won by the parameter and none flip under ±0.01 perturbation.
        let other = Matrix::from_fn(3, cols, |r, c| (r * cols + c) as f32 * 10.0 - 15.0);
        let err = check(seed, 3, cols, move |t, _, x| {
            let o = t.constant(other.clone());
            let m = t.max_stack(&[x, o]);
            let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 2, 0]));
            let segs = Arc::new(Segments::from_lengths(&[2, 2]));
            let g = t.gather_rows(m, &idx);
            let s = t.segment_max(g, None, &segs);
            // The indexed form reads the same rows without the gather.
            let direct = t.segment_max(m, Some(&idx), &segs);
            let both = t.add(s, direct);
            t.sum_all(both)
        });
        prop_assert!(err < TOL, "rel err {err}");
    }
}

/// Pins the vectorized kernels against the scalar reference paths: the
/// 8-lane `mul_add` tree is allowed to round differently, but it must stay
/// within a tight relative bound of the scalar left-fold on every kernel
/// the `simd` module backs — forward and backward.
#[test]
fn simd_kernels_stay_within_tolerance_of_scalar_reference() {
    let idx = Arc::new(EdgeIndex::new(vec![0u32, 1, 1, 2, 0, 2, 3, 3]));
    let segs = Arc::new(Segments::from_lengths(&[2, 3, 0, 3]));
    let sparse = Arc::new(Csr::from_coo(
        4,
        4,
        &[(0, 1, 0.7), (1, 0, -0.3), (1, 2, 1.1), (2, 3, 0.5), (3, 3, -0.9)],
    ));
    let feats = input(31, 4, 9); // odd width exercises the unroll tail
    let weights = input(32, 9, 5);
    let scores = input(33, 8, 1);

    let run = |scalar: bool| {
        let go = || {
            let mut store = VarStore::new();
            let p = store.add("w", weights.clone());
            let mut t = Tape::new(0);
            let x = t.constant(feats.clone());
            let w = t.param(&store, p);
            let h = t.matmul(x, w); // forward GEMM; backward: matmul_at_b / matmul_a_bt
            let prop = t.spmm(&sparse, h);
            let msgs = t.gather_rows(prop, &idx);
            let sc = t.constant(scores.clone());
            let att = t.segment_attention(sc, msgs, &segs);
            let pooled = t.segment_sum(msgs, &segs);
            let combined = t.add(att, pooled);
            let loss = t.mean_all(combined);
            let grads = t.backward(loss);
            let mut flat: Vec<f32> = t.value(combined).data().to_vec();
            flat.extend_from_slice(grads.get(p).expect("param grad").data());
            flat
        };
        if scalar {
            sane_autodiff::simd::with_scalar(go)
        } else {
            go()
        }
    };

    let vectorized = run(false);
    let scalar = run(true);
    assert_eq!(vectorized.len(), scalar.len());
    for (i, (v, s)) in vectorized.iter().zip(&scalar).enumerate() {
        let bound = 1e-4 * 1.0f32.max(s.abs());
        assert!(
            (v - s).abs() <= bound,
            "element {i}: vectorized {v} drifted past tolerance from scalar reference {s}"
        );
    }
}

/// The leaf ops, pinned exactly rather than by finite differences:
/// `param` is the one node that receives gradients, and `input` records a
/// constant that must stay gradient-free while still feeding the graph.
/// For `loss = sum(w ⊙ c)` the analytic gradient dloss/dw is exactly `c`.
#[test]
fn leaf_ops_input_and_param_route_gradients() {
    let mut store = VarStore::new();
    let p = store.add("w", input(7, 2, 3));
    let constant = input(8, 2, 3);

    let mut t = Tape::new(0);
    let w = t.param(&store, p);
    let c = t.input(Arc::new(constant.clone()));
    let prod = t.mul(w, c);
    let loss = t.sum_all(prod);
    let grads = t.backward(loss);

    let g = grads.get(p).expect("param leaf must receive a gradient");
    assert_eq!(g.data(), constant.data(), "d sum(w*c)/dw must equal c bitwise");
    assert_eq!(grads.iter().count(), 1, "the input constant must not appear among the gradients");
}
