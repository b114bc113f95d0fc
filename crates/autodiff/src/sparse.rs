//! CSR sparse matrices used for neighborhood aggregation (`A_norm · H`).
//!
//! Aggregators such as GCN multiply a fixed sparse operator (the normalised
//! adjacency) into a dense feature matrix every layer. The operator never
//! changes during training, so [`Csr`] caches its transpose — the backward
//! pass of `S·B` needs `Sᵀ·dC` — but builds it lazily on first use:
//! eval-only graphs and bench data generators never pay for it.
//!
//! `spmm` is row-partitioned across the shared worker scheme in
//! [`crate::parallel`]: each output row is produced whole by one worker
//! running the identical serial inner loop, so the result is bitwise
//! independent of the thread count.

use std::sync::OnceLock;

use crate::fold::{by_blocks, madd_into, with_madd, Madd};
use crate::matrix::Matrix;
use crate::parallel::parallel_ranges;
use crate::pool;

/// Compressed-sparse-row `f32` matrix.
#[derive(Debug)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Transpose, built at most once on first [`Csr::t`] call and cached
    /// for every later backward pass.
    transpose: OnceLock<Box<Csr>>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        let transpose = OnceLock::new();
        if let Some(t) = self.transpose.get() {
            // Already paid for — carry it over rather than rebuilding lazily.
            let _ = transpose.set(t.clone());
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.clone(),
            transpose,
        }
    }
}

impl Csr {
    /// Builds a CSR matrix from COO triplets. Duplicate entries are summed.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn from_coo(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                (r as usize) < rows && (c as usize) < cols, // lint:allow(lossy-cast) -- u32 index widens losslessly
                "coo entry ({r},{c}) out of bounds for {rows}x{cols}"
            );
        }
        let mut sorted: Vec<(u32, u32, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f32> = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            if let (Some(&last_c), true) = (indices.last(), indptr[r as usize + 1] > 0) {
                // lint:allow(lossy-cast) -- u32 index widens losslessly
                // Merge duplicates within the current row. `indptr[r+1] > 0`
                // is what stops a duplicate column straddling a row boundary
                // from merging into the previous row: the first entry of row
                // `r` still sees `indptr[r+1] == 0`.
                if indptr[r as usize + 1] == indices.len() && last_c == c {
                    // lint:allow(lossy-cast) -- u32 index widens losslessly
                    *values.last_mut().expect("values parallel to indices") += v; // lint:allow(expect) -- values parallel to indices
                    continue;
                }
            }
            indices.push(c);
            values.push(v);
            indptr[r as usize + 1] = indices.len(); // lint:allow(lossy-cast) -- u32 index widens losslessly
        }
        // Rows with no entries inherit the previous offset.
        for r in 1..=rows {
            if indptr[r] == 0 {
                indptr[r] = indptr[r - 1];
            }
        }
        Self { rows, cols, indptr, indices, values, transpose: OnceLock::new() }
    }

    /// Builds directly from CSR arrays (used by the transpose constructor and
    /// by graph code that already holds CSR adjacency).
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent.
    pub fn from_csr_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indices.len(), values.len(), "indices/values length");
        assert_eq!(*indptr.last().unwrap_or(&0), indices.len(), "indptr terminator");
        assert!(indices.iter().all(|&c| (c as usize) < cols), "column index out of bounds"); // lint:allow(lossy-cast) -- u32 index widens losslessly
        Self { rows, cols, indptr, indices, values, transpose: OnceLock::new() }
    }

    /// CSR copy of `dense` if it has at most `max_nnz` nonzeros, else `None`.
    ///
    /// The count runs row by row and gives up once the budget is spent, so
    /// a dense matrix costs a scan of about `max_nnz` elements. Only the
    /// build is timed, as the `sparse_view` kernel. Both zeros (`0.0`,
    /// `-0.0`) are dropped; NaN and ±inf are kept like any other nonzero.
    pub(crate) fn from_dense_within(dense: &Matrix, max_nnz: usize) -> Option<Csr> {
        let (rows, cols) = dense.shape();
        u32::try_from(cols).ok()?;
        let mut nnz = 0;
        for r in 0..rows {
            nnz += dense.row(r).iter().filter(|&&v| v != 0.0).count();
            if nnz > max_nnz {
                return None;
            }
        }
        Some(crate::parallel::timed("sparse_view", || {
            // Every element is written at the fill mark, which only advances
            // past a nonzero: no branch to mispredict at 1-10% density.
            // Zeros after the last nonzero land one slot past the end.
            let mut indices = vec![0u32; nnz + 1];
            let mut values = vec![0.0f32; nnz + 1];
            let mut indptr = Vec::with_capacity(rows + 1);
            indptr.push(0);
            let mut at = 0;
            for r in 0..rows {
                for (c, &v) in dense.row(r).iter().enumerate() {
                    indices[at] = c as u32; // lint:allow(lossy-cast) -- c < cols, which fits u32 (checked above)
                    values[at] = v;
                    at += usize::from(v != 0.0);
                }
                indptr.push(at);
            }
            indices.truncate(nnz);
            values.truncate(nnz);
            Self { rows, cols, indptr, indices, values, transpose: OnceLock::new() }
        }))
    }

    fn build_transpose(&self) -> Csr {
        let nnz = self.values.len();
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1; // lint:allow(lossy-cast) -- u32 index widens losslessly
        }
        for i in 1..=self.cols {
            indptr[i] += indptr[i - 1];
        }
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut cursor = indptr.clone();
        for r in 0..self.rows {
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[k] as usize; // lint:allow(lossy-cast) -- u32 index widens losslessly
                let pos = cursor[c];
                indices[pos] = r as u32; // lint:allow(lossy-cast) -- row count fits the u32 CSR domain
                values[pos] = self.values[k];
                cursor[c] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
            transpose: OnceLock::new(),
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// `(column indices, values)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// The transpose, built on first call and cached for all later calls.
    pub fn t(&self) -> &Csr {
        self.transpose.get_or_init(|| Box::new(self.build_transpose()))
    }

    /// Whether the cached transpose has been built yet.
    pub fn has_transpose(&self) -> bool {
        self.transpose.get().is_some()
    }

    /// Sparse·dense product `self · dense`.
    ///
    /// Output rows are partitioned across workers at row boundaries with
    /// nnz-weighted load balancing; each row is computed whole by one
    /// worker, so the result is bitwise identical at any thread count.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        crate::parallel::timed("spmm", || self.spmm_inner(dense))
    }

    fn spmm_inner(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm dimension mismatch: {}x{} * {}x{}",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let n = dense.cols();
        // Scratch: every output row is folded from +0 and stored whole, an
        // empty row included.
        let mut out = pool::scratch(self.rows, n);
        with_madd!(crate::simd::flavour(), M => {
            self.spmm_rows::<M>(dense, out.data_mut())
        });
        out
    }

    /// Each output row folded in registers: per column block, from `+0`,
    /// one `madd` per nonzero in CSR order. That is the per-element order
    /// of the row-streaming `axpy` loop, so the bits are the same.
    fn spmm_rows<M: Madd>(&self, dense: &Matrix, out: &mut [f32]) {
        let n = dense.cols();
        if n == 0 {
            return;
        }
        let d = dense.data();
        let run = |rows: std::ops::Range<usize>, chunk: &mut [f32]| {
            for (orow, r) in chunk.chunks_exact_mut(n).zip(rows) {
                let (cols, vals) = self.row(r);
                by_blocks(orow, |j, acc| {
                    for (&c, &v) in cols.iter().zip(vals) {
                        let at = c as usize * n + j; // lint:allow(lossy-cast) -- u32 index widens losslessly
                        madd_into::<M>(v, &d[at..at + acc.len()], acc);
                    }
                });
            }
        };
        // `balanced_cuts` invariants at the call site: indptr is the
        // cumulative-weight array, so it must be monotone and span every
        // row, or the partitioner would cut inside a row's nonzeros.
        debug_assert_eq!(self.indptr.len(), self.rows + 1, "indptr must have rows + 1 entries");
        debug_assert!(
            self.indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be non-decreasing"
        );
        parallel_ranges(&self.indptr, &|r| r * n, self.nnz() * n, out, run);
    }

    /// Dense representation (tests / tiny graphs only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out.set(r, c as usize, out.get(r, c as usize) + v); // lint:allow(lossy-cast) -- u32 index widens losslessly
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        Csr::from_coo(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn from_coo_layout() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.indptr(), &[0, 2, 2, 4]);
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0f32, 2.0][..]));
        assert_eq!(m.row(1).0.len(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = Csr::from_coo(2, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(0).1, &[3.5]);
    }

    #[test]
    fn duplicate_merge_stops_at_row_boundaries() {
        // Row 0 ends with column 1; row 1 *starts* with column 1. The merge
        // condition must not fold the first entry of row 1 into row 0.
        let m = Csr::from_coo(3, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 4.0), (1, 1, 8.0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.indptr(), &[0, 2, 3, 3]);
        assert_eq!(m.row(0), (&[0u32, 1][..], &[1.0f32, 2.0][..]));
        // The within-row duplicate as the row's first entry still merges.
        assert_eq!(m.row(1), (&[1u32][..], &[12.0f32][..]));
    }

    #[test]
    fn duplicate_as_first_entry_after_empty_row_merges_within_its_row() {
        // Row 1 is empty, row 2's first two triplets are duplicates of each
        // other and share the column that closed row 0.
        let m = Csr::from_coo(3, 3, &[(0, 2, 1.0), (2, 2, 2.0), (2, 2, 3.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.indptr(), &[0, 1, 1, 2]);
        assert_eq!(m.row(0), (&[2u32][..], &[1.0f32][..]));
        assert_eq!(m.row(2), (&[2u32][..], &[5.0f32][..]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_coo_rejects_out_of_bounds() {
        let _ = Csr::from_coo(2, 2, &[(0, 5, 1.0)]);
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        assert_eq!(m.t().to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn transpose_is_lazy_and_cached() {
        let m = sample();
        assert!(!m.has_transpose(), "transpose must not be built at construction");
        let first = m.t() as *const Csr;
        assert!(m.has_transpose());
        assert_eq!(first, m.t() as *const Csr, "t() must return the same cached instance");
    }

    #[test]
    fn clone_preserves_a_built_transpose() {
        let fresh = sample().clone();
        assert!(!fresh.has_transpose(), "cloning an unbuilt transpose stays lazy");
        let m = sample();
        let _ = m.t();
        let cloned = m.clone();
        assert!(cloned.has_transpose(), "a paid-for transpose is carried by clone");
        assert_eq!(cloned.t().to_dense(), m.t().to_dense());
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = sample();
        let d = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.spmm(&d), m.to_dense().matmul(&d));
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = Csr::from_coo(4, 4, &[(3, 3, 1.0)]);
        let d = Matrix::full(4, 1, 2.0);
        let out = m.spmm(&d);
        assert_eq!(out.data(), &[0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn from_dense_within_keeps_nonzeros_and_respects_the_budget() {
        // Row 1 is empty, -0.0 is a zero, NaN and inf are nonzeros.
        let dense = Matrix::from_vec(
            3,
            4,
            vec![0.0, 2.0, -0.0, f32::NAN, 0.0, 0.0, -0.0, 0.0, f32::INFINITY, 0.0, 0.0, -1.5],
        );
        let m = Csr::from_dense_within(&dense, 4).expect("4 nonzeros fit a budget of 4");
        assert_eq!(m.indptr(), &[0, 2, 2, 4]);
        assert_eq!(m.indices(), &[1, 3, 0, 3]);
        let bits: Vec<u32> = m.values().iter().map(|v| v.to_bits()).collect();
        let want = [2.0f32, f32::NAN, f32::INFINITY, -1.5].map(f32::to_bits);
        assert_eq!(bits, want);
        assert!(Csr::from_dense_within(&dense, 3).is_none(), "4 nonzeros overrun a budget of 3");
        let empty = Csr::from_dense_within(&Matrix::zeros(2, 0), 0).expect("no entries");
        assert_eq!((empty.rows(), empty.cols(), empty.nnz()), (2, 0, 0));
    }

    #[test]
    fn from_csr_parts_roundtrip() {
        let m = sample();
        let m2 = Csr::from_csr_parts(
            m.rows(),
            m.cols(),
            m.indptr().to_vec(),
            m.indices().to_vec(),
            m.values().to_vec(),
        );
        assert_eq!(m2.to_dense(), m.to_dense());
    }

    /// The register-folded rows against the row-streaming loop they
    /// replace (zeroed rows, one flavour `axpy` per nonzero in CSR order),
    /// bit for bit (any NaN matches any NaN), in both flavours at 1/2/4
    /// threads. The operator has empty rows and repeated columns; the dense
    /// operand holds `±0`, NaN and `±inf`.
    #[test]
    fn spmm_rows_match_the_streaming_axpy_loop() {
        use crate::parallel::with_threads;
        use crate::simd::{flavour, with_scalar};
        let triplets: Vec<(u32, u32, f32)> = (0..40u32)
            .filter(|k| k % 5 != 2)
            .map(|k| (k * 7 % 9, k * 3 % 6, ((k as f32) * 0.61).sin() * 2.0))
            .collect();
        let m = Csr::from_coo(11, 6, &triplets);
        assert!((0..11).any(|r| m.row(r).0.is_empty()), "an empty row");
        for cols in [0, 1, 7, 8, 32, 33, 40] {
            let d = Matrix::from_fn(6, cols, |r, c| match (r * cols + c) % 17 {
                0 => -0.0,
                5 => f32::NAN,
                9 => f32::INFINITY,
                13 => f32::NEG_INFINITY,
                k => (k as f32 * 0.37).cos(),
            });
            for scalar in [false, true] {
                for threads in [1, 2, 4] {
                    let check = || {
                        let fl = flavour();
                        let mut want = Matrix::zeros(11, cols);
                        for r in 0..11 {
                            let (cs, vs) = m.row(r);
                            for (&c, &v) in cs.iter().zip(vs) {
                                fl.axpy(v, d.row(c as usize), want.row_mut(r));
                            }
                        }
                        let got = with_threads(threads, || m.spmm(&d));
                        for (k, (&x, &y)) in got.data().iter().zip(want.data()).enumerate() {
                            assert!(
                                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                                "{fl:?} at {threads} threads, {cols} wide, [{k}]: {x:e} vs {y:e}"
                            );
                        }
                    };
                    if scalar {
                        with_scalar(check)
                    } else {
                        check()
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_spmm_is_bitwise_equal_to_serial() {
        use crate::parallel::with_threads;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let (rows, cols, feat) = (64, 48, 7);
        let triplets: Vec<(u32, u32, f32)> = (0..600)
            .map(|_| {
                (
                    rng.gen_range(0..rows as u32),
                    rng.gen_range(0..cols as u32),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let m = Csr::from_coo(rows, cols, &triplets);
        let d = Matrix::from_fn(cols, feat, |_, _| rng.gen_range(-1.0..1.0));
        let serial = with_threads(1, || m.spmm(&d));
        for threads in [2, 3, 4] {
            let par = with_threads(threads, || m.spmm(&d));
            assert_eq!(par, serial, "spmm must be bitwise identical at {threads} threads");
        }
    }
}
