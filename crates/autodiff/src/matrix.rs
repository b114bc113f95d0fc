//! Dense row-major `f32` matrix and its GEMM kernels.
//!
//! This is the value type flowing through the [`crate::tape`] autodiff engine.
//! Everything in SANE — node features, weights, attention scores — is a 2-D
//! matrix; vectors are `n x 1` or `1 x n` matrices.
//!
//! The three products the tape needs — `A·B` ([`Matrix::matmul`]), `Aᵀ·B`
//! ([`Matrix::matmul_at_b`], the weight gradient) and `A·Bᵀ`
//! ([`Matrix::matmul_a_bt`], the input gradient) — share one register-tile
//! micro-kernel in the vectorized flavour. An `R x 8·C` block of outputs
//! stays in registers while the term loop runs innermost and ascending, so
//! every output element gets exactly the fused multiply-adds of its
//! per-element definition: a `madd` chain from `+0` for the first two,
//! [`Flavour::dot`] for the third. The tile changes speed, not bits. Each
//! output row is owned by one [`parallel_rows`] worker, so results do not
//! depend on the thread count. The reference flavour keeps plain row loops.

use std::fmt;

use crate::parallel::parallel_rows;
use crate::simd::{Flavour, LANES};

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
        let (m, k, n) = (self.rows, self.cols, other.cols);
        crate::parallel::timed("gemm", || {
            let fl = crate::simd::flavour();
            if fl == Flavour::Vector {
                let b = Padded::new(&other.data, k, n);
                let g = Chain {
                    a: &self.data,
                    transposed: false,
                    m,
                    b: b.data(),
                    stride: b.stride,
                    k,
                    n,
                };
                return tiled(&g, m, k);
            }
            let mut out = crate::pool::zeros(m, n);
            // i-k-j: each output row streams rows of `other` through `axpy`.
            let run = |rows: std::ops::Range<usize>, out_chunk: &mut [f32]| {
                for (ri, i) in rows.enumerate() {
                    let orow = &mut out_chunk[ri * n..(ri + 1) * n];
                    for (kk, &av) in self.data[i * k..(i + 1) * k].iter().enumerate() {
                        fl.axpy(av, &other.data[kk * n..(kk + 1) * n], orow);
                    }
                }
            };
            parallel_rows(m, n, m * n * k, &mut out.data, run);
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
        let fl = crate::simd::flavour();
        if fl == Flavour::Vector {
            // Row `i` of the result is column `i` of `self` against `other`:
            // the forward's tile, reading `self` down a column.
            let b = Padded::new(&other.data, k, n);
            let g =
                Chain { a: &self.data, transposed: true, m, b: b.data(), stride: b.stride, k, n };
            return tiled(&g, m, k);
        }
        let mut out = crate::pool::zeros(m, n);
        // kᵗʰ row of A provides a rank-1 update: out[i,:] += A[k,i] * B[k,:],
        // k ascending, so every element folds its terms in index order.
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
    /// [`Flavour::dot`] of a row of `self` with a row of `other`.
    ///
    /// Transposes `other` into pooled `k x n` scratch (rows padded to a
    /// multiple of 8 columns) so that both flavours stream whole rows of
    /// `Bᵀ`. The vectorized flavour runs the register tile once per `dot`
    /// lane `l`, over the terms `t = l, l+8, …` below `k − k % 8`, combines
    /// the eight lane tiles in `dot8`'s tree and folds the `k % 8` tail
    /// onto it in index order: `dot8`'s order, term for term. The reference
    /// flavour zeroes each row and folds every term in order with
    /// `axpy_scalar`, `dot_scalar`'s left fold. Each output row is computed
    /// by exactly one worker, so the result is the same at any thread
    /// count.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_a_bt dimension mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        crate::parallel::timed("gemm", || {
            let fl = crate::simd::flavour();
            let stride = n.next_multiple_of(V);
            // Scratch: every element of the transpose, pads included, and
            // every output row are assigned in full.
            let mut bt = crate::pool::scratch(k, stride);
            for t in 0..k {
                let row = &mut bt.data[t * stride..][..stride];
                for (j, v) in row.iter_mut().enumerate() {
                    *v = if j < n { other.data[j * k + t] } else { 0.0 };
                }
            }
            let out = if fl == Flavour::Vector {
                tiled(&LaneSplit { a: &self.data, bt: &bt.data, stride, k, n }, m, k)
            } else {
                let mut out = crate::pool::scratch(m, n);
                let run = |rows: std::ops::Range<usize>, out_chunk: &mut [f32]| {
                    for (ri, i) in rows.enumerate() {
                        let orow = &mut out_chunk[ri * n..(ri + 1) * n];
                        orow.fill(0.0);
                        for (t, &av) in self.data[i * k..(i + 1) * k].iter().enumerate() {
                            let btrow = &bt.data[t * stride..t * stride + n];
                            crate::simd::axpy_scalar(av, btrow, orow);
                        }
                    }
                };
                parallel_rows(m, n, m * n * k, &mut out.data, run);
                out
            };
            crate::pool::put(bt);
            out
        })
    }

    /// Column sums as a `1 x cols` matrix, drawn from the buffer pool.
    pub fn col_sums(&self) -> Matrix {
        let mut out = crate::pool::zeros(1, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for (o, v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Row sums as a `rows x 1` matrix, drawn from the buffer pool.
    pub fn row_sums(&self) -> Matrix {
        let mut out = crate::pool::scratch(self.rows, 1);
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

    /// Copies rows listed in `idx` into a pooled `idx.len() x cols` matrix:
    /// one element read per row when rows are one wide (the per-edge
    /// attention scores), one row copy otherwise. The output rows are split
    /// across workers.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let cols = self.cols;
        // Scratch: every output row is copied from the source.
        let mut out = crate::pool::scratch(idx.len(), cols);
        let run = |orange: std::ops::Range<usize>, chunk: &mut [f32]| {
            let idx = &idx[orange];
            if cols == 1 {
                for (o, &i) in chunk.iter_mut().zip(idx) {
                    *o = self.data[i as usize]; // lint:allow(lossy-cast) -- u32 index widens losslessly
                }
            } else {
                for (dst, &i) in chunk.chunks_exact_mut(cols).zip(idx) {
                    dst.copy_from_slice(self.row(i as usize)); // lint:allow(lossy-cast) -- u32 index widens losslessly
                }
            }
        };
        if cols > 0 {
            parallel_rows(idx.len(), cols, idx.len() * cols, &mut out.data, run);
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

/// Output columns per SIMD vector of the register tile.
const V: usize = 8;

/// `R x 8·C` tile accumulators, one `[f32; 8]` per SIMD vector.
type Acc<const R: usize, const C: usize> = [[[f32; V]; C]; R];

/// The `R` left-operand values a tile multiplies in at term `q`.
trait Panel<const R: usize> {
    fn at(&self, q: usize) -> [f32; R];
}

/// One slice of `a` per tile row, read every `STEP`th float:
/// `a(r, q) = rows[r][q·STEP]`. Each slice is cut once, to the floats
/// the tile reads, so the reads inside the term loop are mostly free of
/// bounds checks (all of them for `STEP = 1`).
struct Rows<'a, const R: usize, const STEP: usize>([&'a [f32]; R]);

impl<'a, const R: usize, const STEP: usize> Rows<'a, R, STEP> {
    /// Rows `start + r·row` of `a`, `terms` terms each (at least one).
    #[inline(always)]
    fn new(a: &'a [f32], start: usize, row: usize, terms: usize) -> Self {
        Rows(std::array::from_fn(|r| &a[start + r * row..][..(terms - 1) * STEP + 1]))
    }
}

impl<const R: usize, const STEP: usize> Panel<R> for Rows<'_, R, STEP> {
    #[inline(always)]
    fn at(&self, q: usize) -> [f32; R] {
        std::array::from_fn(|r| self.0[r][q * STEP])
    }
}

/// A column block of `a`: the `R` values of term `q` are adjacent,
/// `a(r, q) = a[start + q·term + r]`.
struct Cols<'a> {
    a: &'a [f32],
    start: usize,
    term: usize,
}

impl<const R: usize> Panel<R> for Cols<'_> {
    #[inline(always)]
    fn at(&self, q: usize) -> [f32; R] {
        let aq = &self.a[self.start + q * self.term..][..R];
        std::array::from_fn(|r| aq[r])
    }
}

/// The register-tile micro-kernel of all three GEMM forms: folds `terms`
/// terms into `acc` as `acc = a(r, q).mul_add(b(q, c), acc)`, `q`
/// ascending, where `b(q, c) = b[b0 + q·b_term + c]`.
///
/// Each output element gets exactly the chain `Flavour::axpy` builds one
/// output row per term, in the same order and with the same operand
/// order; the tile only keeps `R x 8·C` chains in registers instead of
/// re-loading and re-storing an output row per term. `R` and `C` are
/// compile-time constants, so the loops unroll into straight FMA code.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: &impl Panel<R>,
    b: &[f32],
    b0: usize,
    b_term: usize,
    terms: usize,
    mut acc: Acc<R, C>,
) -> Acc<R, C> {
    for q in 0..terms {
        let bq = &b[b0 + q * b_term..][..C * V];
        for (acc_r, av) in acc.iter_mut().zip(a.at(q)) {
            for (acc_v, bv) in acc_r.iter_mut().zip(bq.chunks_exact(V)) {
                for (o, &x) in acc_v.iter_mut().zip(bv) {
                    *o = av.mul_add(x, *o);
                }
            }
        }
    }
    acc
}

/// A row-major `k x n` right operand with rows `stride` floats apart,
/// `stride` the next multiple of 8: the caller's buffer when `n` already
/// is one, else a pooled copy with zeroed pads that goes back to the pool
/// when dropped. The pads let the last `n % 8` columns run the 8-wide
/// tile like any other; their outputs are never stored.
struct Padded<'a> {
    borrowed: &'a [f32],
    copy: Option<Matrix>,
    stride: usize,
}

impl<'a> Padded<'a> {
    fn new(b: &'a [f32], k: usize, n: usize) -> Self {
        let stride = n.next_multiple_of(V);
        if stride == n {
            return Padded { borrowed: b, copy: None, stride };
        }
        // Scratch: rows and pads are assigned in full.
        let mut copy = crate::pool::scratch(k, stride);
        for (dst, src) in copy.data.chunks_exact_mut(stride).zip(b.chunks_exact(n)) {
            dst[..n].copy_from_slice(src);
            dst[n..].fill(0.0);
        }
        Padded { borrowed: b, copy: Some(copy), stride }
    }

    fn data(&self) -> &[f32] {
        self.copy.as_ref().map_or(self.borrowed, Matrix::data)
    }
}

impl Drop for Padded<'_> {
    fn drop(&mut self) {
        if let Some(copy) = self.copy.take() {
            crate::pool::put(copy);
        }
    }
}

/// One GEMM form as the tile sees it: an `m x n` result whose columns are
/// read from a right operand padded to a multiple of 8.
trait TiledGemm: Sync {
    /// Output columns.
    fn n(&self) -> usize;
    /// Rows `i0..i0 + R`, columns `j0..j0 + 8·C` of the result (columns
    /// past `n` are pads).
    fn tile<const R: usize, const C: usize>(&self, i0: usize, j0: usize) -> Acc<R, C>;
}

/// The forward (`a` is `m x k`, read along rows) and `dW` (`a` is
/// `k x m`, read down columns) against the padded row-major `b`: one
/// chain of `k` terms per element.
struct Chain<'a> {
    a: &'a [f32],
    transposed: bool,
    m: usize,
    b: &'a [f32],
    stride: usize,
    k: usize,
    n: usize,
}

impl TiledGemm for Chain<'_> {
    fn n(&self) -> usize {
        self.n
    }

    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, i0: usize, j0: usize) -> Acc<R, C> {
        let (k, zero) = (self.k, [[[0.0; V]; C]; R]);
        if k == 0 {
            return zero;
        }
        if self.transposed {
            let a = Cols { a: self.a, start: i0, term: self.m };
            tile(&a, self.b, j0, self.stride, k, zero)
        } else {
            let a = Rows::<R, 1>::new(self.a, i0 * k, k, k);
            tile(&a, self.b, j0, self.stride, k, zero)
        }
    }
}

/// `dA = dC·Bᵀ` in `dot8`'s order: `a` is `m x k` and `bt` the pooled,
/// padded `k x n` transpose of `B`.
struct LaneSplit<'a> {
    a: &'a [f32],
    bt: &'a [f32],
    stride: usize,
    k: usize,
    n: usize,
}

impl LaneSplit<'_> {
    /// `dot8`'s lane `l` for a tile: the terms `l, l+8, …` below
    /// `k − k % 8`, folded from +0.
    ///
    /// Kept out of line: inlined eight times over, the lane tiles and the
    /// tree outgrow the register file and spill in the inner loops.
    #[inline(never)]
    fn lane<const R: usize, const C: usize>(&self, i0: usize, j0: usize, l: usize) -> Acc<R, C> {
        let (k, stride, terms) = (self.k, self.stride, self.k / LANES);
        let a = Rows::<R, LANES>::new(self.a, i0 * k + l, k, terms);
        tile(&a, self.bt, l * stride + j0, LANES * stride, terms, [[[0.0; V]; C]; R])
    }
}

/// `x + y`, elementwise.
#[inline(always)]
fn add<const R: usize, const C: usize>(mut x: Acc<R, C>, y: Acc<R, C>) -> Acc<R, C> {
    for (xr, yr) in x.iter_mut().zip(&y) {
        for (xv, yv) in xr.iter_mut().zip(yr) {
            for (o, &v) in xv.iter_mut().zip(yv) {
                *o += v;
            }
        }
    }
    x
}

impl TiledGemm for LaneSplit<'_> {
    fn n(&self) -> usize {
        self.n
    }

    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, i0: usize, j0: usize) -> Acc<R, C> {
        let (k, stride) = (self.k, self.stride);
        let full = k - k % LANES;
        let mut acc = [[[0.0f32; V]; C]; R];
        // `dot8`'s lane `l` folds the terms `l, l+8, …` below `full` from
        // +0. With no full chunk its tree of zeros is +0, which `acc`
        // already holds.
        if full > 0 {
            let lane = |l: usize| self.lane(i0, j0, l);
            // `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`, elementwise; pairing
            // as we go keeps fewer lane tiles live at once.
            acc = add(
                add(add(lane(0), lane(1)), add(lane(2), lane(3))),
                add(add(lane(4), lane(5)), add(lane(6), lane(7))),
            );
        }
        // The `k % 8` tail, folded onto the tree in index order.
        if k > full {
            let a = Rows::<R, 1>::new(self.a, i0 * k + full, k, k - full);
            acc = tile(&a, self.bt, full * stride + j0, stride, k - full, acc);
        }
        acc
    }
}

/// Runs a tiled form over all `m` rows of its `k`-term result, each
/// output row owned by one [`parallel_rows`] worker.
fn tiled(g: &impl TiledGemm, m: usize, k: usize) -> Matrix {
    let n = g.n();
    // Scratch: the tiles assign every element.
    let mut out = crate::pool::scratch(m, n);
    parallel_rows(m, n, m * n * k, &mut out.data, |rows, chunk| tiled_rows(g, rows, chunk));
    out
}

/// Fills one worker's rows (`out` holds exactly the output rows `rows`),
/// one column block at a time: 32-, 16- and 8-wide tiles, the last one
/// reaching into the pads. Each width has its own row count, so every
/// tile holds 8 vector accumulators; a worker's leftover rows run the same
/// tile with one row. Which rows share a tile changes no element.
fn tiled_rows(g: &impl TiledGemm, rows: std::ops::Range<usize>, out: &mut [f32]) {
    let n = g.n();
    let mut j = 0;
    while n - j >= 4 * V {
        column_block::<2, 4>(g, rows.clone(), out, j);
        j += 4 * V;
    }
    if n - j >= 2 * V {
        column_block::<4, 2>(g, rows.clone(), out, j);
        j += 2 * V;
    }
    while j < n {
        column_block::<8, 1>(g, rows.clone(), out, j);
        j += V;
    }
}

/// Columns `j0..j0 + 8·C` (clipped to `n`) of one worker's rows.
#[inline(always)]
fn column_block<const R: usize, const C: usize>(
    g: &impl TiledGemm,
    rows: std::ops::Range<usize>,
    out: &mut [f32],
    j0: usize,
) {
    let n = g.n();
    let split = rows.len() / R * R;
    let (blocks, rest) = out.split_at_mut(split * n);
    for (b, block) in blocks.chunks_exact_mut(R * n).enumerate() {
        store(&g.tile::<R, C>(rows.start + b * R, j0), block, n, j0);
    }
    for (r, row) in rest.chunks_exact_mut(n).enumerate() {
        store(&g.tile::<1, C>(rows.start + split + r, j0), row, n, j0);
    }
}

/// Writes tile `acc` to columns `j0..` of the `R x n` rows `out`, leaving
/// out the pads past `n`.
#[inline(always)]
fn store<const R: usize, const C: usize>(acc: &Acc<R, C>, out: &mut [f32], n: usize, j0: usize) {
    let w = (n - j0).min(C * V);
    for (acc_r, orow) in acc.iter().zip(out.chunks_exact_mut(n)) {
        let orow = &mut orow[j0..j0 + w];
        if w == C * V {
            for (o, acc_v) in orow.chunks_exact_mut(V).zip(acc_r) {
                o.copy_from_slice(acc_v);
            }
        } else {
            for (x, o) in orow.iter_mut().enumerate() {
                *o = acc_r[x / V][x % V];
            }
        }
    }
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
            for n in [1, 7, 8, 9, 16, 17, 20, 33, 40, 716] {
                for m in [1, 3, 13] {
                    let seed = (k * 1000 + n) as u64; // lint:allow(lossy-cast) -- small test grid
                    let a = regime_mat(m, k, seed);
                    let b = regime_mat(n, k, seed + 1);
                    for fl in [Flavour::Vector, Flavour::Reference] {
                        for threads in [1, 2, 4] {
                            let run = || with_threads(threads, || a.matmul_a_bt(&b));
                            let got =
                                if fl == Flavour::Reference { with_scalar(run) } else { run() };
                            assert_eq!(got.shape(), (m, n));
                            for i in 0..m {
                                for j in 0..n {
                                    let want = fl.dot(a.row(i), b.row(j));
                                    let g = got.get(i, j);
                                    assert!(
                                        same_bits(g, want),
                                        "{fl:?} m={m} k={k} n={n} threads={threads} ({i},{j}): \
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
    }

    /// `acc = fl.madd(x(t), y(t), acc)` from `+0`, `t` ascending: one
    /// element of the forward and of `dW` by definition.
    fn madd_chain(
        fl: crate::simd::Flavour,
        k: usize,
        x: impl Fn(usize) -> f32,
        y: impl Fn(usize) -> f32,
    ) -> f32 {
        (0..k).fold(0.0, |acc, t| fl.madd(x(t), y(t), acc))
    }

    #[test]
    fn matmul_and_matmul_at_b_are_bitwise_per_element_madd_chains() {
        use crate::parallel::with_threads;
        use crate::simd::{with_scalar, Flavour};
        let mut ns: Vec<usize> = (1..=9).collect();
        ns.extend([15, 16, 17, 31, 32, 33, 40, 716]);
        for m in [1, 2, 3, 13] {
            for &n in &ns {
                for k in [0, 1, 7, 8, 9, 33, 300] {
                    let seed = (m * 1_000_000 + n * 1000 + k) as u64; // lint:allow(lossy-cast) -- small test grid
                    let a = regime_mat(m, k, seed);
                    let at = regime_mat(k, m, seed + 1);
                    let b = regime_mat(k, n, seed + 2);
                    for fl in [Flavour::Vector, Flavour::Reference] {
                        let fwd = Matrix::from_fn(m, n, |i, j| {
                            madd_chain(fl, k, |t| a.get(i, t), |t| b.get(t, j))
                        });
                        let dw = Matrix::from_fn(m, n, |i, j| {
                            madd_chain(fl, k, |t| at.get(t, i), |t| b.get(t, j))
                        });
                        for threads in [1, 2, 4] {
                            let run = |f: &dyn Fn() -> Matrix| {
                                let go = || with_threads(threads, f);
                                if fl == Flavour::Reference {
                                    with_scalar(go)
                                } else {
                                    go()
                                }
                            };
                            let cases = [
                                ("matmul", run(&|| a.matmul(&b)), &fwd),
                                ("matmul_at_b", run(&|| at.matmul_at_b(&b)), &dw),
                            ];
                            for (form, got, want) in cases {
                                assert_eq!(got.shape(), (m, n), "{form}");
                                for (e, (&g, &w)) in got.data().iter().zip(want.data()).enumerate()
                                {
                                    assert!(
                                        same_bits(g, w),
                                        "{form} {fl:?} m={m} n={n} k={k} threads={threads} \
                                         ({}, {}): {g:e} ({:#010x}) vs chain {w:e} ({:#010x})",
                                        e / n,
                                        e % n,
                                        g.to_bits(),
                                        w.to_bits()
                                    );
                                }
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
