//! Dense row-major `f32` matrix with cache-blocked, multi-threaded kernels.
//!
//! This is the value type flowing through the [`crate::tape`] autodiff engine.
//! Everything in SANE — node features, weights, attention scores — is a 2-D
//! matrix; vectors are `n x 1` or `1 x n` matrices.

use std::fmt;

use crate::parallel::{parallel_rows, parallel_rows_scratch};

/// Row-major dense matrix of `f32`.
///
/// Invariant: `data.len() == rows * cols`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// A `1 x 1` matrix holding `value` (the scalar representation on the tape).
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `1 x 1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1 x 1`.
    pub fn as_scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "as_scalar on a {}x{} matrix", self.rows, self.cols);
        self.data[0]
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self += scale * other`.
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32 // lint:allow(lossy-cast) -- count stays far below 2^24
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// True if any element is `NaN` or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// `self * other` (dense GEMM).
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        crate::parallel::timed("gemm", || {
            let mut out = crate::pool::zeros(self.rows, other.cols);
            gemm_ikj(&self.data, &other.data, &mut out.data, self.rows, self.cols, other.cols);
            out
        })
    }

    /// `selfᵀ * other` without materialising the transpose.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at_b dimension mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        crate::parallel::timed("gemm", || self.matmul_at_b_inner(other, k, m, n))
    }

    fn matmul_at_b_inner(&self, other: &Matrix, k: usize, m: usize, n: usize) -> Matrix {
        let mut out = crate::pool::zeros(m, n);
        // kᵗʰ row of A provides a rank-1 update: out[i,:] += A[k,i] * B[k,:].
        // The k loop stays outermost and serial so every out element
        // accumulates its terms in the same fixed order on every run.
        let fl = crate::simd::flavour();
        for kk in 0..k {
            let arow = &self.data[kk * m..(kk + 1) * m];
            let brow = &other.data[kk * n..(kk + 1) * n];
            for i in 0..m {
                let orow = &mut out.data[i * n..(i + 1) * n];
                fl.axpy(arow[i], brow, orow);
            }
        }
        out
    }

    /// `self * otherᵀ`, every element bitwise equal to
    /// [`Flavour::dot`](crate::simd::Flavour::dot) of a row of `self` with
    /// a row of `other`.
    ///
    /// Transposes `other` into pooled `k x n` scratch and realises `dot`'s
    /// pinned lane order row-wise ([`Flavour::dot_rows`]): each output row
    /// streams whole rows of the transpose through `axpy` into an `8 x n`
    /// lane buffer instead of reducing every element horizontally. Each
    /// worker owns its own pooled lane buffer, and each output row is
    /// computed by exactly one worker, so the result is the same at any
    /// thread count.
    ///
    /// [`Flavour::dot_rows`]: crate::simd::Flavour::dot_rows
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_a_bt dimension mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        crate::parallel::timed("gemm", || {
            // Scratch: the transpose and every output row are assigned in
            // full (`dot_rows` zeroes its own accumulators).
            let mut bt = crate::pool::scratch(k, n);
            for (j, brow) in other.data.chunks_exact(k.max(1)).enumerate() {
                for (t, &v) in brow.iter().enumerate() {
                    bt.data[t * n + j] = v;
                }
            }
            let mut out = crate::pool::scratch(m, n);
            let fl = crate::simd::flavour();
            let run = |rows: std::ops::Range<usize>, out_chunk: &mut [f32], lanes: &mut [f32]| {
                for (ri, i) in rows.enumerate() {
                    let arow = &self.data[i * k..(i + 1) * k];
                    fl.dot_rows(arow, &bt.data, lanes, &mut out_chunk[ri * n..(ri + 1) * n]);
                }
            };
            parallel_rows_scratch(m, n, crate::simd::LANES * n, m * n * k, &mut out.data, run);
            crate::pool::put(bt);
            out
        })
    }

    /// Column sums as a `1 x cols` matrix.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for (o, v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Row sums as a `rows x 1` matrix.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Copies rows listed in `idx` into a new `idx.len() x cols` matrix.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i as usize)); // lint:allow(lossy-cast) -- u32 index widens losslessly
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let cols = self.cols.min(8);
            let vals: Vec<String> = self.row(r)[..cols].iter().map(|v| format!("{v:.4}")).collect();
            let ell = if self.cols > cols { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", vals.join(", "), ell)?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// GEMM with i-k-j loop order: the inner loop streams rows of `b` and `out`.
///
/// Each output row is owned by exactly one worker and accumulates its k
/// terms serially through `simd::axpy`, so the reduction order per element
/// is fixed regardless of thread count. Zeros in `a` are multiplied like
/// any other value; `Tape::matmul` skips them by running mostly-zero left
/// operands through a CSR view instead (DESIGN.md §17, "Sparse views").
fn gemm_ikj(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let fl = crate::simd::flavour();
    let run = |rows: std::ops::Range<usize>, out_chunk: &mut [f32]| {
        for (ri, i) in rows.enumerate() {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out_chunk[ri * n..(ri + 1) * n];
            for (kk, &av) in arow.iter().enumerate() {
                let brow = &b[kk * n..(kk + 1) * n];
                fl.axpy(av, brow, orow);
            }
        }
    };
    parallel_rows(m, n, m * n * k, out, run);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
        }
    }

    fn rngmat(rows: usize, cols: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = rngmat(5, 5, 1);
        let i = Matrix::eye(5);
        assert_close(&a.matmul(&i), &a, 1e-6);
        assert_close(&i.matmul(&a), &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "matrix buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 9, 23), (64, 128, 32), (130, 70, 90)] {
            let a = rngmat(m, k, 7);
            let b = rngmat(k, n, 8);
            assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4);
        }
    }

    #[test]
    fn matmul_at_b_matches_transpose() {
        let a = rngmat(11, 6, 2);
        let b = rngmat(11, 9, 3);
        assert_close(&a.matmul_at_b(&b), &a.transpose().matmul(&b), 1e-4);
    }

    #[test]
    fn matmul_a_bt_matches_transpose() {
        let a = rngmat(12, 7, 4);
        let b = rngmat(10, 7, 5);
        assert_close(&a.matmul_a_bt(&b), &a.matmul(&b.transpose()), 1e-4);
    }

    /// One value of a `regime`: 0 uniform, 1 signed magnitudes from 1e-20
    /// to 1e20, 2 uniform with ±0, subnormals, ±inf and NaN sprinkled in,
    /// 3 all `-0.0`, 4 strictly positive, 5 mostly subnormal.
    fn regime_value(regime: usize, rng: &mut rand::rngs::StdRng) -> f32 {
        use rand::Rng;
        const SPECIALS: [f32; 8] =
            [0.0, -0.0, 1e-40, -3e-42, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        match regime {
            0 => rng.gen_range(-1.0..1.0),
            1 => sign * 10f32.powf(rng.gen_range(-20.0..20.0)),
            2 if rng.gen_bool(0.2) => SPECIALS[rng.gen_range(0..SPECIALS.len())],
            2 => rng.gen_range(-1.0..1.0),
            3 => -0.0,
            4 => rng.gen_range(0.5..2.0),
            _ if rng.gen_bool(0.8) => sign * f32::from_bits(rng.gen_range(1..0x0080_0000)),
            _ => rng.gen_range(-1.0..1.0),
        }
    }

    /// Row `r` drawn from regime `r % 6`.
    fn regime_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |r, _| regime_value(r % 6, &mut rng))
    }

    /// Bitwise equality, with every NaN equal to every other: Rust leaves
    /// NaN payloads unspecified, so only "is NaN" is a stable result.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn matmul_a_bt_is_bitwise_per_element_dot() {
        use crate::parallel::with_threads;
        use crate::simd::{with_scalar, Flavour};
        let mut ks: Vec<usize> = (0..=17).collect();
        ks.extend([31, 40]);
        for k in ks {
            for n in [1, 7, 8, 9, 33, 716] {
                let seed = (k * 1000 + n) as u64; // lint:allow(lossy-cast) -- small test grid
                let a = regime_mat(13, k, seed);
                let b = regime_mat(n, k, seed + 1);
                for fl in [Flavour::Vector, Flavour::Reference] {
                    for threads in [1, 2, 4] {
                        let run = || with_threads(threads, || a.matmul_a_bt(&b));
                        let got = if fl == Flavour::Reference { with_scalar(run) } else { run() };
                        assert_eq!(got.shape(), (13, n));
                        for i in 0..13 {
                            for j in 0..n {
                                let want = fl.dot(a.row(i), b.row(j));
                                let g = got.get(i, j);
                                assert!(
                                    same_bits(g, want),
                                    "{fl:?} k={k} n={n} threads={threads} ({i},{j}): \
                                     {g:e} ({:#010x}) vs dot {want:e} ({:#010x})",
                                    g.to_bits(),
                                    want.to_bits()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn large_parallel_matmul_matches_naive() {
        let a = rngmat(150, 80, 11);
        let b = rngmat(80, 120, 12);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-3);
    }

    #[test]
    fn transpose_involution() {
        let a = rngmat(5, 9, 20);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hcat_shapes_and_values() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![5.0, 6.0]);
        let c = a.hcat(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 6.0]);
    }

    #[test]
    fn gather_rows_copies() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.col_sums().data(), &[4.0, 2.0]);
        assert_eq!(a.row_sums().data(), &[-1.0, 7.0]);
    }

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(Matrix::scalar(2.5).as_scalar(), 2.5);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(1, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
