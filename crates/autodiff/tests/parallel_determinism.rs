//! Bitwise determinism of the parallel kernels.
//!
//! Every parallel kernel partitions work at item boundaries (output rows,
//! CSR rows, segments) and runs the identical serial inner loop inside each
//! chunk, so the result must be *bitwise* equal for any worker count. These
//! tests pin that contract at 1, 2, 3 and 4 threads, forcing the parallel
//! path even though the matrices are far below the work threshold.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sane_autodiff::parallel::with_threads;
use sane_autodiff::{pool, uniform_init, Csr, Matrix, Segments, Tape, VarStore};

const THREADS: [usize; 4] = [1, 2, 3, 4];

fn seeded(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    uniform_init(rows, cols, 1.0, &mut rng)
}

fn random_csr(seed: u64, rows: usize, cols: usize, nnz: usize) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let triplets: Vec<(u32, u32, f32)> = (0..nnz)
        .map(|_| {
            (
                rng.gen_range(0..rows as u32),
                rng.gen_range(0..cols as u32),
                rng.gen_range(-1.0f32..1.0),
            )
        })
        .collect();
    Csr::from_coo(rows, cols, &triplets)
}

/// Two sparse hops + dense matmul, forward and backward: exercises the
/// parallel `spmm`, its transpose path, and `gemm` under one tape.
fn spmm_pipeline(threads: usize) -> (Vec<f32>, Vec<f32>) {
    with_threads(threads, || {
        let mut store = VarStore::new();
        let p = store.add("x", seeded(7, 40, 9));
        let w = store.add("w", seeded(8, 9, 5));
        let a = Arc::new(random_csr(11, 40, 40, 320));
        let mut tape = Tape::new(0);
        let x = tape.param(&store, p);
        let wt = tape.param(&store, w);
        let h = tape.spmm(&a, x);
        let h2 = tape.spmm(&a, h);
        let out = tape.matmul(h2, wt);
        let fwd = tape.value(out).data().to_vec();
        let loss = tape.sum_all(out);
        let grads = tape.backward(loss);
        let mut g = grads.get(p).unwrap().data().to_vec();
        g.extend_from_slice(grads.get(w).unwrap().data());
        (fwd, g)
    })
}

/// The full attention-style segment pipeline (gather, sum, mean, max,
/// softmax, column broadcast) with ragged segments including empty ones.
fn segment_pipeline(threads: usize) -> (Vec<f32>, Vec<f32>) {
    with_threads(threads, || {
        let mut rng = StdRng::seed_from_u64(3);
        let nodes = 30usize;
        let d = 6usize;
        let lengths: Vec<usize> = (0..nodes).map(|_| rng.gen_range(0..6)).collect();
        let total: usize = lengths.iter().sum();
        let idx =
            Arc::new((0..total).map(|_| rng.gen_range(0..nodes as u32)).collect::<Vec<u32>>());
        let segs = Arc::new(Segments::from_lengths(&lengths));

        let mut store = VarStore::new();
        let p = store.add("x", seeded(5, nodes, d));
        let ps = store.add("scores", seeded(9, nodes, 1));
        let mut tape = Tape::new(0);
        let x = tape.param(&store, p);
        let sc = tape.param(&store, ps);
        let msgs = tape.gather_rows(x, &idx);
        let ssum = tape.segment_sum(msgs, &segs);
        let smean = tape.segment_mean(msgs, &segs);
        let smax = tape.segment_max(msgs, &segs);
        let scores = tape.gather_rows(sc, &idx);
        let alpha = tape.segment_softmax(scores, &segs);
        let weighted = tape.mul_col_broadcast(msgs, alpha);
        let satt = tape.segment_sum(weighted, &segs);
        let scores2 = tape.gather_rows(sc, &idx);
        let fused = tape.segment_attention(scores2, msgs, &segs);
        let scores3 = tape.gather_rows(sc, &idx);
        let gfused = tape.gather_attention(scores3, x, &idx, &segs);
        let t1 = tape.add(ssum, smean);
        let t2 = tape.add(smax, satt);
        let t3 = tape.add(t2, fused);
        let t4 = tape.add(t3, gfused);
        let out = tape.add(t1, t4);
        let fwd = tape.value(out).data().to_vec();
        let loss = tape.sum_all(out);
        let grads = tape.backward(loss);
        let mut g = grads.get(p).unwrap().data().to_vec();
        g.extend_from_slice(grads.get(ps).unwrap().data());
        (fwd, g)
    })
}

fn assert_bitwise_eq(label: &str, serial: &[f32], parallel: &[f32], threads: usize) {
    assert_eq!(serial.len(), parallel.len(), "{label}: length mismatch at {threads} threads");
    for (i, (a, b)) in serial.iter().zip(parallel).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{label}: element {i} differs at {threads} threads: {a} vs {b}"
        );
    }
}

#[test]
fn spmm_forward_and_backward_are_bitwise_equal_across_thread_counts() {
    let (fwd1, grad1) = spmm_pipeline(1);
    for threads in THREADS {
        let (fwd, grad) = spmm_pipeline(threads);
        assert_bitwise_eq("spmm forward", &fwd1, &fwd, threads);
        assert_bitwise_eq("spmm backward", &grad1, &grad, threads);
    }
}

#[test]
fn segment_kernels_are_bitwise_equal_across_thread_counts() {
    let (fwd1, grad1) = segment_pipeline(1);
    for threads in THREADS {
        let (fwd, grad) = segment_pipeline(threads);
        assert_bitwise_eq("segment forward", &fwd1, &fwd, threads);
        assert_bitwise_eq("segment backward", &grad1, &grad, threads);
    }
}

/// The fused attention ops, the fused GEN-LINEAR edge score, the
/// vectorized activations and the SIMD-backed dense kernels, forward and
/// backward, at every thread count — in both the vectorized and the
/// scalar-reference mode. Each mode must be bitwise self-consistent across
/// thread counts; the two modes are *not* compared to each other (their
/// reduction orders legitimately differ — see the `simd-lane-drift`
/// determinism case).
#[test]
fn fused_attention_and_simd_kernels_are_bitwise_equal_across_thread_counts() {
    let pipeline = |threads: usize| {
        with_threads(threads, || {
            let segs = Arc::new(Segments::from_lengths(&[3, 0, 5, 2, 4, 1]));
            let total = segs.total_len();
            let mut rng = StdRng::seed_from_u64(44);
            let mut edges = || Arc::new((0..total).map(|_| rng.gen_range(0..6u32)).collect());
            let (src, dst): (Arc<Vec<u32>>, Arc<Vec<u32>>) = (edges(), edges());
            let mut store = VarStore::new();
            let pm = store.add("m", seeded(41, total, 9));
            let ps = store.add("s", seeded(42, total, 1));
            let pw = store.add("w", seeded(43, 9, 6));
            let pg = store.add("g", seeded(45, 6, 1));
            let mut tape = Tape::new(0);
            let m = tape.param(&store, pm);
            let s = tape.param(&store, ps);
            let w = tape.param(&store, pw);
            let g = tape.param(&store, pg);
            let att = tape.segment_attention(s, m, &segs);
            let out = tape.matmul(att, w); // gemm fwd, at_b/a_bt in backward

            // GAT-GEN-LINEAR scores over the node-level output, aggregated
            // back onto it; sigmoid-gated like GeniePath's LSTM cell.
            let scores = tape.gen_linear_score(out, out, g, &src, &dst);
            let agg = tape.gather_attention(scores, out, &src, &segs);
            let gate = tape.sigmoid(agg);
            let out = tape.mul(gate, out);
            let fwd = tape.value(out).data().to_vec();
            let loss = tape.sum_all(out);
            let grads = tape.backward(loss);
            let mut g = grads.get(pm).unwrap().data().to_vec();
            for p in [ps, pw, pg] {
                g.extend_from_slice(grads.get(p).unwrap().data());
            }
            (fwd, g)
        })
    };
    for scalar in [false, true] {
        let mode = if scalar { "scalar" } else { "vectorized" };
        let run = |threads: usize| {
            if scalar {
                sane_autodiff::simd::with_scalar(|| pipeline(threads))
            } else {
                pipeline(threads)
            }
        };
        let (fwd1, grad1) = run(1);
        for threads in THREADS {
            let (fwd, grad) = run(threads);
            assert_bitwise_eq(&format!("fused attention fwd ({mode})"), &fwd1, &fwd, threads);
            assert_bitwise_eq(&format!("fused attention bwd ({mode})"), &grad1, &grad, threads);
        }
    }
}

/// The matmul backward's `dA = dC·Wᵀ` at a production-sized shape: the
/// `m·n·k` work is above the spawn threshold and the reduction length
/// (`dC`'s 37 columns) leaves a `k % 8 = 5` tail after the lane chunks.
/// Each worker accumulates into its own pooled `8 x n` lane buffer, so the
/// gradient must not depend on how rows are split across workers.
#[test]
fn matmul_backward_lane_split_da_is_bitwise_equal_across_thread_counts() {
    let (m, k_in, n_out) = (300, 400, 37);
    assert!(m * k_in * n_out > sane_autodiff::parallel::PAR_WORK_THRESHOLD);
    let pipeline = |threads: usize| {
        with_threads(threads, || {
            let mut store = VarStore::new();
            let px = store.add("x", seeded(61, m, k_in));
            let pw = store.add("w", seeded(62, k_in, n_out));
            let mut tape = Tape::new(0);
            let x = tape.param(&store, px);
            let w = tape.param(&store, pw);
            let out = tape.matmul(x, w);
            let sq = tape.mul(out, out); // dC = 2·out, not a constant plane
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            let mut g = grads.get(px).unwrap().data().to_vec();
            g.extend_from_slice(grads.get(pw).unwrap().data());
            g
        })
    };
    for scalar in [false, true] {
        let mode = if scalar { "scalar" } else { "vectorized" };
        let run = |threads: usize| {
            if scalar {
                sane_autodiff::simd::with_scalar(|| pipeline(threads))
            } else {
                pipeline(threads)
            }
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_bitwise_eq(&format!("matmul dA/dW ({mode})"), &serial, &run(threads), threads);
        }
    }
}

#[test]
fn transpose_spmm_is_bitwise_equal_across_thread_counts() {
    let a = random_csr(17, 33, 21, 240);
    let x = seeded(19, 33, 7);
    let serial = with_threads(1, || a.t().spmm(&x));
    for threads in THREADS {
        let out = with_threads(threads, || a.t().spmm(&x));
        assert_bitwise_eq("csr.t().spmm", serial.data(), out.data(), threads);
    }
}

/// Steady-state training steps must be served entirely from the buffer
/// pool: after a warm-up, pool misses stop growing (i.e. no per-step heap
/// growth from tape values or gradients).
#[test]
fn pool_reaches_steady_state_across_training_steps() {
    pool::reset();
    let a = Arc::new(random_csr(21, 24, 24, 140));
    let mut store = VarStore::new();
    let p = store.add("w", seeded(2, 24, 4));
    let step = |store: &VarStore| {
        let mut tape = Tape::new(0);
        let x = tape.param(store, p);
        let h = tape.spmm(&a, x);
        let r = tape.relu(h);
        let loss = tape.mean_all(r);
        let grads = tape.backward(loss);
        grads.recycle();
    };
    for _ in 0..8 {
        step(&store);
    }
    let before = pool::stats();
    for _ in 0..32 {
        step(&store);
    }
    let after = pool::stats();
    assert_eq!(
        after.misses, before.misses,
        "steady-state steps must allocate nothing: {before} -> {after}"
    );
    assert!(after.hits > before.hits, "steady-state steps should reuse pooled buffers");
}
