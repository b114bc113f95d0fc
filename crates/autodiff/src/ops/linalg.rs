//! Linear-algebra tape ops: dense/sparse products, bias, concat/slice,
//! reductions and row-wise softmaxes.

use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use crate::audit::{require_eq, Arity};
use crate::matrix::Matrix;
use crate::pool;
use crate::sparse::Csr;
use crate::tape::{Op, Tape, Tensor};

/// A value gets a sparse view when at most one entry in this many is
/// nonzero. Set well below the measured crossover (DESIGN.md §17); the
/// route is bitwise identical to the dense kernels, so this constant
/// changes speed, never results.
const VIEW_DENSITY_DENOM: usize = 8;

/// 2^-100. When the smallest nonzero magnitudes of the two operands
/// multiply to at least this, every product of nonzeros is a multiple of
/// 2^-149, the smallest subnormal.
const EXACT_PRODUCT_FLOOR: f64 = 7.888_609_052_210_118e-31;

/// A CSR copy of a mostly-zero tape value, built at most once per node
/// (the first time the node is the left operand of [`Tape::matmul`] or
/// is dropped out), or once per shared input ([`SparseView::of_shared`]).
pub(crate) struct SparseView {
    pub(crate) csr: Csr,
    /// Smallest nonzero magnitude stored in `csr` (`inf` when none).
    min_abs: f32,
    /// Whether the viewed value holds a `-0.0`, which `csr` cannot show;
    /// scanned for on the first ask.
    negative_zero: OnceLock<bool>,
}

/// The views of shared inputs ([`Tape::input`]), one per live `Arc`
/// allocation. Each entry holds a `Weak` of its value, so the allocation
/// cannot be freed and reused under a new value while the entry exists,
/// and `Arc::get_mut` or `Arc::make_mut` on the value reach its data only
/// in a new allocation. An address match is therefore the same value.
/// Entries whose value has died are pruned on every lookup.
static SHARED_VIEWS: Mutex<Vec<SharedView>> = Mutex::new(Vec::new());

struct SharedView {
    value: Weak<Matrix>,
    view: Option<Arc<SparseView>>,
}

impl SparseView {
    /// The view of `value`, or `None` when `value` is too dense for one.
    pub(crate) fn of(value: &Matrix) -> Option<Arc<SparseView>> {
        Csr::from_dense_within(value, value.len() / VIEW_DENSITY_DENOM).map(Self::wrap)
    }

    /// The view of `value`, whose nonzeros all lie at `pattern`'s entries:
    /// equal to [`SparseView::of`] but read at those entries only.
    pub(crate) fn within(value: &Matrix, pattern: &SparseView) -> Option<Arc<SparseView>> {
        Csr::from_dense_at(value, &pattern.csr, value.len() / VIEW_DENSITY_DENOM).map(Self::wrap)
    }

    /// [`SparseView::of`] the shared `value`, built by the first tape that
    /// asks and reused by every later one while the allocation lives.
    pub(crate) fn of_shared(value: &Arc<Matrix>) -> Option<Arc<SparseView>> {
        // No update below can leave the table half-done, so a panic on
        // another thread while it held the lock leaves it valid.
        let mut cache = SHARED_VIEWS.lock().unwrap_or_else(PoisonError::into_inner);
        cache.retain(|e| e.value.strong_count() > 0);
        if let Some(e) = cache.iter().find(|e| std::ptr::eq(e.value.as_ptr(), Arc::as_ptr(value))) {
            return e.view.clone();
        }
        let view = Self::of(value);
        cache.push(SharedView { value: Arc::downgrade(value), view: view.clone() });
        view
    }

    fn wrap(csr: Csr) -> Arc<SparseView> {
        let min_abs = csr.values().iter().fold(f32::INFINITY, |m, v| m.min(v.abs()));
        Arc::new(SparseView { csr, min_abs, negative_zero: OnceLock::new() })
    }

    /// Whether `value`, the matrix this view was built from, holds a `-0.0`.
    pub(crate) fn holds_negative_zero(&self, value: &Matrix) -> bool {
        *self
            .negative_zero
            .get_or_init(|| value.data().iter().any(|v| v.to_bits() == (-0.0f32).to_bits()))
    }

    /// Whether multiplying through the view gives the dense kernel's bits
    /// when `dense` is the other operand.
    ///
    /// The dense kernels fold `o = fma(a, b, o)` (or `o += a·b`) over every
    /// `a` of a row, zeros included, from `o = +0`; the view skips the zero
    /// `a`s. A skipped term is an exact no-op unless `0·b` is NaN (`b` not
    /// finite) or `o` is `-0`. An accumulator that starts at `+0` only
    /// becomes `-0` when an FMA's exact result rounds to zero from below,
    /// which needs a nonzero result smaller than 2^-149. Once the smallest
    /// nonzeros multiply to at least 2^-100, every term and every
    /// accumulator is a multiple of 2^-149, so that cannot happen.
    fn exact_against(&self, dense: &Matrix) -> bool {
        let (finite, min_abs) = finite_and_min_nonzero_abs(dense.data());
        finite && f64::from(self.min_abs) * f64::from(min_abs) >= EXACT_PRODUCT_FLOOR
    }
}

/// Whether every element of `xs` is finite, and the smallest nonzero
/// magnitude among the finite ones (`inf` when there is none).
///
/// Folded over eight independent lanes, then across them. The minimum of
/// a set does not depend on the order it is taken in, so this is the
/// serial fold's answer at the speed of a vector scan.
fn finite_and_min_nonzero_abs(xs: &[f32]) -> (bool, f32) {
    const LANES: usize = 8;
    let mut finite = [true; LANES];
    let mut min = [f32::INFINITY; LANES];
    let mut fold = |k: usize, v: f32| {
        let a = v.abs();
        finite[k] &= a.is_finite();
        // NaN and inf never compare below a finite minimum or inf, and a
        // zero is skipped, so neither can become the minimum.
        min[k] = if (a != 0.0) & (a < min[k]) { a } else { min[k] };
    };
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (k, &v) in chunk.iter().enumerate() {
            fold(k, v);
        }
    }
    for (k, &v) in tail.iter().enumerate() {
        fold(k, v);
    }
    (finite.iter().all(|&f| f), min.iter().fold(f32::INFINITY, |m, &v| m.min(v)))
}

pub(crate) struct MatMulOp {
    /// The left operand's sparse view, when it has one.
    pub(crate) view: Option<Arc<SparseView>>,
}
impl Op for MatMulOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        // C = A·B  =>  dA = dC·Bᵀ, dB = Aᵀ·dC; an operand the sweep does
        // not want (constant features, or W in the α-only step) costs no
        // GEMM. Through a view, row i of dB sums A[r,i]·dC[r,:] over the
        // nonzeros of column i in increasing r, as `matmul_at_b` does.
        let ga = wants[0].then(|| grad.matmul_a_bt(inputs[1]));
        let gb = wants[1].then(|| match &self.view {
            Some(v) if v.exact_against(grad) => v.csr.t().spmm(grad),
            _ => inputs[0].matmul_at_b(grad),
        });
        vec![ga, gb]
    }
    fn name(&self) -> &'static str {
        "matmul"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (a, b) = (inputs[0], inputs[1]);
        require_eq("matmul: inner dimensions disagree", a.1, b.0)?;
        Ok((a.0, b.1))
    }
}

struct SpmmOp {
    sparse: Arc<Csr>,
}
impl Op for SpmmOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        // C = S·B  =>  dB = Sᵀ·dC (S is a constant operator).
        vec![Some(self.sparse.t().spmm(grad))]
    }
    fn name(&self) -> &'static str {
        "spmm"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, cols) = inputs[0];
        require_eq(
            "spmm: dense rows must match sparse operator columns",
            rows,
            self.sparse.cols(),
        )?;
        Ok((self.sparse.rows(), cols))
    }
}

struct AddBiasOp;
impl Op for AddBiasOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        vec![wants[0].then(|| pool::clone_of(grad)), wants[1].then(|| grad.col_sums())]
    }
    fn name(&self) -> &'static str {
        "add_bias"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (a, b) = (inputs[0], inputs[1]);
        require_eq("add_bias: bias must be one row as wide as the input", b, (1, a.1))?;
        Ok(a)
    }
}

struct ConcatColsOp {
    widths: Vec<usize>,
}
impl Op for ConcatColsOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let rows = grad.rows();
        let mut grads = Vec::with_capacity(inputs.len());
        let mut offset = 0;
        for (&w, &want) in self.widths.iter().zip(wants) {
            grads.push(want.then(|| {
                // Scratch: every row of the slice is copied from the gradient.
                let mut g = pool::scratch(rows, w);
                for r in 0..rows {
                    g.row_mut(r).copy_from_slice(&grad.row(r)[offset..offset + w]);
                }
                g
            }));
            offset += w;
        }
        grads
    }
    fn name(&self) -> &'static str {
        "concat_cols"
    }
    fn arity(&self) -> Arity {
        Arity::AtLeast(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        require_eq("concat_cols: saved widths vs inputs", self.widths.len(), inputs.len())?;
        let rows = inputs[0].0;
        for (&(r, c), &w) in inputs.iter().zip(&self.widths) {
            require_eq("concat_cols: row counts disagree", r, rows)?;
            require_eq("concat_cols: saved width mismatch", c, w)?;
        }
        Ok((rows, self.widths.iter().sum()))
    }
}

struct SliceColsOp {
    start: usize,
    end: usize,
}
impl Op for SliceColsOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[0].shape();
        let mut g = pool::zeros(rows, cols);
        for r in 0..rows {
            g.row_mut(r)[self.start..self.end].copy_from_slice(grad.row(r));
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "slice_cols"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, cols) = inputs[0];
        if self.start >= self.end || self.end > cols {
            return Err(format!("slice {}..{} is empty or out of 0..{cols}", self.start, self.end));
        }
        Ok((rows, self.end - self.start))
    }
}

struct RowSumOp;
impl Op for RowSumOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[0].shape();
        // Scratch: every row is filled with its broadcast gradient.
        let mut g = pool::scratch(rows, cols);
        for r in 0..rows {
            let gv = grad.get(r, 0);
            g.row_mut(r).fill(gv);
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "row_sum"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok((inputs[0].0, 1))
    }
}

struct SumAllOp;
impl Op for SumAllOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[0].shape();
        vec![Some(pool::full(rows, cols, grad.as_scalar()))]
    }
    fn name(&self) -> &'static str {
        "sum_all"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, _: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok((1, 1))
    }
}

struct MeanAllOp;
impl Op for MeanAllOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (rows, cols) = inputs[0].shape();
        let n = (rows * cols) as f32; // lint:allow(lossy-cast) -- count stays far below 2^24
        vec![Some(pool::full(rows, cols, grad.as_scalar() / n))]
    }
    fn name(&self) -> &'static str {
        "mean_all"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, _: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok((1, 1))
    }
}

struct SoftmaxRowsOp;
impl Op for SoftmaxRowsOp {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        // dX[r] = P[r] ⊙ (dY[r] - <dY[r], P[r]>)
        // Scratch: the row loop assigns every element.
        let mut g = pool::scratch(out.rows(), out.cols());
        for r in 0..out.rows() {
            let p = out.row(r);
            let dy = grad.row(r);
            let dot: f32 = p.iter().zip(dy).map(|(p, d)| p * d).sum();
            for ((g, &p), &d) in g.row_mut(r).iter_mut().zip(p).zip(dy) {
                *g = p * (d - dot);
            }
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "softmax_rows"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

struct LogSoftmaxRowsOp;
impl Op for LogSoftmaxRowsOp {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        // dX[r] = dY[r] - exp(out[r]) * sum(dY[r])
        // Scratch: the row loop assigns every element.
        let mut g = pool::scratch(out.rows(), out.cols());
        for r in 0..out.rows() {
            let sum: f32 = grad.row(r).iter().sum();
            for ((g, &o), &d) in g.row_mut(r).iter_mut().zip(out.row(r)).zip(grad.row(r)) {
                *g = d - o.exp() * sum;
            }
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "log_softmax_rows"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

/// Elementwise max over `k` same-shaped tensors; the winner index per
/// element is saved at forward time.
struct MaxStackOp {
    winners: Arc<Vec<u8>>,
}
impl Op for MaxStackOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let shape = inputs[0].shape();
        let mut grads: Vec<Matrix> =
            (0..inputs.len()).map(|_| pool::zeros(shape.0, shape.1)).collect();
        for (i, (&w, &g)) in self.winners.iter().zip(grad.data()).enumerate() {
            grads[w as usize].data_mut()[i] = g; // lint:allow(lossy-cast) -- u32 index widens losslessly
        }
        grads.into_iter().map(Some).collect()
    }
    fn name(&self) -> &'static str {
        "max_stack"
    }
    fn arity(&self) -> Arity {
        Arity::AtLeast(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, cols) = inputs[0];
        for &s in inputs {
            require_eq("max_stack: operand shapes disagree", s, (rows, cols))?;
        }
        require_eq("max_stack: saved winner indices", self.winners.len(), rows * cols)?;
        Ok((rows, cols))
    }
}

/// Numerically-stable row softmax into a fresh (pooled) matrix.
pub(crate) fn softmax_rows_value(x: &Matrix) -> Matrix {
    let mut out = pool::clone_of(x);
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

impl Tape {
    /// The sparse view of `t`'s value, decided on the first ask: a shared
    /// input's comes from [`SparseView::of_shared`], any other node's is
    /// built for it alone.
    pub(crate) fn sparse_view(&self, t: Tensor) -> Option<Arc<SparseView>> {
        let node = self.node(t.0);
        node.view
            .get_or_init(|| {
                if node.shared {
                    SparseView::of_shared(&node.value)
                } else {
                    SparseView::of(&node.value)
                }
            })
            .clone()
    }

    /// Product `a · b`.
    ///
    /// When `a` is mostly zeros the product runs through its sparse view
    /// ([`Csr::spmm`], timed as `spmm`) whenever skipping the zeros
    /// provably changes no bit of the result (DESIGN.md §17); otherwise it
    /// is a dense GEMM.
    pub fn matmul(&mut self, a: Tensor, b: Tensor) -> Tensor {
        let view = self.sparse_view(a);
        let bv = self.value(b);
        let out = match &view {
            // A shape mismatch takes the dense kernel, whose assert names it.
            Some(v) if v.csr.cols() == bv.rows() && v.exact_against(bv) => v.csr.spmm(bv),
            _ => self.value(a).matmul(bv),
        };
        self.push_op(out, Box::new(MatMulOp { view }), vec![a, b])
    }

    /// Sparse·dense product with a constant sparse operator (e.g. the
    /// normalised adjacency of GCN).
    pub fn spmm(&mut self, sparse: &Arc<Csr>, b: Tensor) -> Tensor {
        let out = sparse.spmm(self.value(b));
        self.push_op(out, Box::new(SpmmOp { sparse: Arc::clone(sparse) }), vec![b])
    }

    /// Adds a `1 x c` bias row to every row of an `n x c` tensor.
    pub fn add_bias(&mut self, a: Tensor, bias: Tensor) -> Tensor {
        let av = self.value_arc(a);
        let bv = self.value_arc(bias);
        let (rows, cols) = av.shape();
        assert_eq!(bv.shape(), (1, cols), "bias must be 1x{cols}");
        let mut out = pool::clone_of(&av);
        for r in 0..rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bv.row(0)) {
                *o += b;
            }
        }
        self.push_op(out, Box::new(AddBiasOp), vec![a, bias])
    }

    /// Horizontal concatenation of tensors that share a row count.
    pub fn concat_cols(&mut self, parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols needs at least one tensor");
        let rows = self.value(parts[0]).rows();
        let widths: Vec<usize> = parts
            .iter()
            .map(|&t| {
                assert_eq!(self.value(t).rows(), rows, "concat_cols row mismatch");
                self.value(t).cols()
            })
            .collect();
        let total: usize = widths.iter().sum();
        // Scratch: every row is assembled from the parts' rows in full.
        let mut out = pool::scratch(rows, total);
        for r in 0..rows {
            let mut offset = 0;
            for (&t, &w) in parts.iter().zip(&widths) {
                out.row_mut(r)[offset..offset + w].copy_from_slice(self.value(t).row(r));
                offset += w;
            }
        }
        self.push_op(out, Box::new(ConcatColsOp { widths }), parts.to_vec())
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: Tensor, start: usize, end: usize) -> Tensor {
        let (rows, cols) = self.value(a).shape();
        assert!(start < end && end <= cols, "slice_cols {start}..{end} out of 0..{cols}");
        // Scratch: every row is copied from the source slice.
        let mut out = pool::scratch(rows, end - start);
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(&self.value(a).row(r)[start..end]);
        }
        self.push_op(out, Box::new(SliceColsOp { start, end }), vec![a])
    }

    /// Row sums: `n x c -> n x 1`.
    pub fn row_sum(&mut self, a: Tensor) -> Tensor {
        let out = self.value(a).row_sums();
        self.push_op(out, Box::new(RowSumOp), vec![a])
    }

    /// Sum of all elements as a `1 x 1` tensor.
    pub fn sum_all(&mut self, a: Tensor) -> Tensor {
        let out = Matrix::scalar(self.value(a).sum());
        self.push_op(out, Box::new(SumAllOp), vec![a])
    }

    /// Mean of all elements as a `1 x 1` tensor.
    pub fn mean_all(&mut self, a: Tensor) -> Tensor {
        let out = Matrix::scalar(self.value(a).mean());
        self.push_op(out, Box::new(MeanAllOp), vec![a])
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Tensor) -> Tensor {
        let out = softmax_rows_value(self.value(a));
        self.push_op(out, Box::new(SoftmaxRowsOp), vec![a])
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax_rows(&mut self, a: Tensor) -> Tensor {
        let mut out = pool::clone_of(self.value(a));
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = max + row.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
            for v in row.iter_mut() {
                *v -= lse;
            }
        }
        self.push_op(out, Box::new(LogSoftmaxRowsOp), vec![a])
    }

    /// Elementwise maximum over same-shaped tensors (the MAX layer
    /// aggregator of JK-Networks). Ties go to the earliest tensor.
    pub fn max_stack(&mut self, parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "max_stack needs at least one tensor");
        let shape = self.value(parts[0]).shape();
        for &t in parts {
            assert_eq!(self.value(t).shape(), shape, "max_stack shape mismatch");
        }
        assert!(parts.len() <= u8::MAX as usize, "max_stack supports at most 255 tensors"); // lint:allow(lossy-cast) -- constant widens losslessly
        let mut out = pool::clone_of(self.value(parts[0]));
        let mut winners = vec![0u8; out.len()];
        for (k, &t) in parts.iter().enumerate().skip(1) {
            let tv = self.value(t);
            for i in 0..tv.len() {
                let v = tv.data()[i];
                if v > out.data()[i] {
                    out.data_mut()[i] = v;
                    winners[i] = k as u8; // lint:allow(lossy-cast) -- guarded by the 255-tensor assert
                }
            }
        }
        self.push_op(out, Box::new(MaxStackOp { winners: Arc::new(winners) }), parts.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::VarStore;

    #[test]
    fn matmul_grads_match_formula() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = store.add("b", Matrix::from_vec(2, 1, vec![5.0, 6.0]));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let tb = tape.param(&store, b);
        let c = tape.matmul(ta, tb);
        let loss = tape.sum_all(c);
        let g = tape.backward(loss);
        // dA = 1·Bᵀ broadcast over rows; dB = Aᵀ·1
        assert_eq!(g.get(a).unwrap().data(), &[5.0, 6.0, 5.0, 6.0]);
        assert_eq!(g.get(b).unwrap().data(), &[4.0, 6.0]);
    }

    mod sparse_views {
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::*;
        use crate::parallel::with_threads;
        use crate::simd::{with_scalar, Flavour};
        use crate::tape::tests::with_kernel_calls;

        fn bits(m: &Matrix) -> Vec<u32> {
            m.data().iter().map(|v| v.to_bits()).collect()
        }

        /// A magnitude in `[0.25, 2)` with a random sign.
        fn nonzero(rng: &mut StdRng) -> f32 {
            let v = rng.gen_range(0.25f32..2.0);
            if rng.gen_bool(0.5) {
                v
            } else {
                -v
            }
        }

        /// Each entry nonzero with probability `density`; a third of the
        /// zeros are `-0.0`; with `empty_rows`, every third row is zero.
        fn operand(
            rng: &mut StdRng,
            rows: usize,
            cols: usize,
            density: f64,
            empty_rows: bool,
        ) -> Matrix {
            Matrix::from_fn(rows, cols, |r, _| {
                if !(empty_rows && r % 3 == 0) && rng.gen_bool(density) {
                    nonzero(rng)
                } else if rng.gen_bool(1.0 / 3.0) {
                    -0.0
                } else {
                    0.0
                }
            })
        }

        /// `a·b` on a tape whose backward is seeded with `grad`: the
        /// product, `dA`, `dB` and how many `spmm` calls they made.
        fn taped(a: &Matrix, b: &Matrix, grad: &Matrix) -> ([Matrix; 3], u64) {
            let (out, calls) = with_kernel_calls(|| {
                let mut store = VarStore::new();
                let (pa, pb) = (store.add("a", a.clone()), store.add("b", b.clone()));
                let mut tape = Tape::new(0);
                let (ta, tb) = (tape.param(&store, pa), tape.param(&store, pb));
                let c = tape.matmul(ta, tb);
                let value = tape.value(c).clone();
                let g = tape.backward_seeded(c, grad.clone());
                let grad_of = |p| g.get(p).cloned().expect("both operands are wanted");
                [value, grad_of(pa), grad_of(pb)]
            });
            (out, calls("spmm"))
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            /// The view route gives the dense kernels' bits on the product,
            /// `dA` and `dB` at 1/2/4 threads in both flavours, and falls
            /// back to them when `b` or the gradient is not finite.
            #[test]
            fn view_route_is_bitwise_identical_to_the_dense_kernels(
                seed in 0u64..1_000_000,
                (m, k, n) in (1usize..12, 1usize..40, 1usize..8),
                pick in 0u8..4,
                between in 0.0f64..1.0,
                empty_rows in 0u8..2,
                plant in 0u8..5,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let density = match pick {
                    0 => 0.0,
                    1 => 1.0,
                    2 => between / VIEW_DENSITY_DENOM as f64,
                    _ => between,
                };
                let a = operand(&mut rng, m, k, density, empty_rows == 1);
                let mut b = operand(&mut rng, k, n, 0.8, false);
                let mut grad = operand(&mut rng, m, n, 0.8, false);
                let poison = [f32::NAN, f32::INFINITY, f32::NAN, f32::NEG_INFINITY];
                let target = if plant <= 2 { &mut b } else { &mut grad };
                if plant > 0 {
                    let at = rng.gen_range(0..target.len());
                    target.data_mut()[at] = poison[usize::from(plant - 1)];
                }
                let nnz = a.data().iter().filter(|&&v| v != 0.0).count();
                let viewed = nnz <= a.len() / VIEW_DENSITY_DENOM;
                let routed = u64::from(viewed && !b.has_non_finite())
                    + u64::from(viewed && !grad.has_non_finite());
                for scalar in [false, true] {
                    for threads in [1, 2, 4] {
                        let run = || {
                            let dense =
                                [a.matmul(&b), grad.matmul_a_bt(&b), a.matmul_at_b(&grad)];
                            (dense, taped(&a, &b, &grad))
                        };
                        let (dense, (got, spmm)) = with_threads(threads, || {
                            if scalar { with_scalar(run) } else { run() }
                        });
                        let pairs = dense.iter().zip(&got);
                        for (what, (d, g)) in ["a·b", "dA", "dB"].iter().zip(pairs) {
                            let at = format!("{what} (scalar {scalar}, {threads} threads)");
                            prop_assert_eq!(bits(g), bits(d), "{}", at);
                        }
                        prop_assert_eq!(spmm, routed, "density {} plant {}", density, plant);
                    }
                }
            }
        }

        /// `exact_against`'s serial fold, as it was before the lane scan.
        fn serial_scan(xs: &[f32]) -> (bool, f32) {
            xs.iter().fold((true, f32::INFINITY), |(finite, m), &v| {
                let a = v.abs();
                (finite & a.is_finite(), if a == 0.0 { m } else { m.min(a) })
            })
        }

        /// A value of kind `kind % 8`: NaN, ±inf, a subnormal, ±0 or a
        /// normal float, drawn from `bits`.
        fn special(kind: u8, bits: u32) -> f32 {
            let sign = bits & 0x8000_0000;
            match kind % 8 {
                0 => f32::from_bits(0x7fc0_0000 | bits),
                1 => f32::from_bits(sign | 0x7f80_0000),
                2 => f32::from_bits(sign | (bits & 0x007f_ffff).max(1)),
                3 => 0.0,
                4 => -0.0,
                _ => f32::from_bits(sign | (bits % 0x7f00_0000).max(0x0080_0000)),
            }
        }

        fn assert_scans_agree(xs: &[f32]) {
            let (f, m) = finite_and_min_nonzero_abs(xs);
            let (sf, sm) = serial_scan(xs);
            assert_eq!(f, sf, "finite, {} elements", xs.len());
            assert_eq!(m.to_bits(), sm.to_bits(), "min, {} elements", xs.len());
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// The eight-lane scan gives the serial fold's finiteness and
            /// smallest nonzero magnitude, bit for bit.
            #[test]
            fn the_lane_scan_is_the_serial_fold(
                elems in prop::collection::vec((0u8..16, 0u32..=u32::MAX), 0..18),
            ) {
                let xs: Vec<f32> = elems.iter().map(|&(k, b)| special(k, b)).collect();
                assert_scans_agree(&xs);
            }

            /// The same at search-cora's gradient shape, 1354×32, normal
            /// values with a few specials planted.
            #[test]
            fn the_lane_scan_is_the_serial_fold_on_a_gradient(
                seed in 0u64..1_000_000,
                plants in prop::collection::vec((0u8..=u8::MAX, 0u32..=u32::MAX), 0..4),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut xs: Vec<f32> =
                    (0..1354 * 32).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
                for &(k, b) in &plants {
                    let at = rng.gen_range(0..xs.len());
                    xs[at] = special(k, b);
                }
                assert_scans_agree(&xs);
            }
        }

        /// `a·W` and `dW` on a fresh tape over the shared input `x`: the
        /// product and how many views the tape built.
        fn shared_step(x: &Arc<Matrix>, w: &Matrix) -> (Matrix, Matrix, u64) {
            let ((value, dw), calls) = with_kernel_calls(|| {
                let mut store = VarStore::new();
                let pw = store.add("w", w.clone());
                let mut tape = Tape::new(0);
                let (tx, tw) = (tape.input(Arc::clone(x)), tape.param(&store, pw));
                let y = tape.matmul(tx, tw);
                let loss = tape.sum_all(y);
                let value = tape.value(y).clone();
                let g = tape.backward(loss);
                (value, g.get(pw).cloned().expect("dW"))
            });
            (value, dw, calls("sparse_view"))
        }

        /// Asserts that a shared step over `x` gives the dense kernels' bits.
        fn assert_dense_bits(x: &Matrix, w: &Matrix, (value, dw, _): &(Matrix, Matrix, u64)) {
            let grad = Matrix::full(x.rows(), w.cols(), 1.0);
            assert_eq!(bits(value), bits(&x.matmul(w)), "x·W");
            assert_eq!(bits(dw), bits(&x.matmul_at_b(&grad)), "dW");
        }

        #[test]
        fn tapes_over_one_shared_input_build_one_view() {
            let mut rng = StdRng::seed_from_u64(3);
            let x = Arc::new(operand(&mut rng, 30, 40, 0.05, true));
            let w = operand(&mut rng, 40, 5, 0.9, false);
            let runs: Vec<_> = (0..3).map(|_| shared_step(&x, &w)).collect();
            let builds: Vec<u64> = runs.iter().map(|r| r.2).collect();
            assert_eq!(builds, [1, 0, 0], "the first tape builds the view, later ones reuse it");
            runs.iter().for_each(|r| assert_dense_bits(&x, &w, r));
            // A constant of the same matrix keeps its own view, per tape.
            let ((), calls) = with_kernel_calls(|| {
                for _ in 0..2 {
                    let mut tape = Tape::new(0);
                    let tx = tape.constant((*x).clone());
                    let tw = tape.constant(w.clone());
                    let _ = tape.matmul(tx, tw);
                }
            });
            assert_eq!(calls("sparse_view"), 2);
        }

        /// A view never outlives its value's allocation: an input that was
        /// dropped and reallocated, or mutated through `Arc::make_mut`
        /// (alone, or with other holders), gets a fresh view that matches
        /// the dense kernels.
        #[test]
        fn a_new_or_mutated_input_gets_a_fresh_view() {
            let mut rng = StdRng::seed_from_u64(4);
            let w = operand(&mut rng, 24, 3, 0.9, false);
            let first = operand(&mut rng, 16, 24, 0.05, false);
            let second = operand(&mut rng, 16, 24, 0.1, true);
            let x = Arc::new(first.clone());
            assert_eq!(shared_step(&x, &w).2, 1);
            drop(x);
            // Any lookup prunes the dead entry, freeing the old allocation
            // for the next one of the same size.
            let other = Arc::new(operand(&mut rng, 2, 16, 0.0, false));
            assert_eq!(shared_step(&other, &operand(&mut rng, 16, 1, 1.0, false)).2, 1);
            let x = Arc::new(second.clone());
            let run = shared_step(&x, &w);
            assert_eq!(run.2, 1, "a new allocation gets a new view");
            assert_dense_bits(&second, &w, &run);

            // Alone: `make_mut` moves the data away from the cached `Weak`.
            let mut x = x;
            Arc::make_mut(&mut x).data_mut().copy_from_slice(first.data());
            let run = shared_step(&x, &w);
            assert_eq!(run.2, 1, "a mutated input gets a new view");
            assert_dense_bits(&first, &w, &run);

            // Shared: `make_mut` clones, and the other holder keeps its view.
            let held = Arc::clone(&x);
            Arc::make_mut(&mut x).data_mut().copy_from_slice(second.data());
            let run = shared_step(&x, &w);
            assert_eq!(run.2, 1, "the clone gets its own view");
            assert_dense_bits(&second, &w, &run);
            let run = shared_step(&held, &w);
            assert_eq!(run.2, 0, "the untouched holder still has its view");
            assert_dense_bits(&first, &w, &run);
        }

        #[test]
        fn a_product_that_could_round_to_negative_zero_stays_dense() {
            // fma(2^-100, -2^-100, +0) rounds to -0, and the dense kernel's
            // next term, fma(0, 1, -0), makes it +0 again: skipping the
            // zero would leave -0. The view must not be used here.
            let tiny = f32::from_bits(27 << 23); // 2^-100
            let a = Matrix::from_fn(1, 16, |_, j| if j == 0 { tiny } else { 0.0 });
            let b = Matrix::from_fn(16, 1, |i, _| if i == 0 { -tiny } else { 1.0 });
            let dense = a.matmul(&b);
            if crate::simd::flavour() == Flavour::Vector {
                let skipped = Csr::from_dense_within(&a, 2).expect("one nonzero").spmm(&b);
                assert_ne!(bits(&skipped), bits(&dense), "the skip must be observable");
            }
            let ([got, ..], spmm) = taped(&a, &b, &Matrix::scalar(1.0));
            assert_eq!(bits(&got), bits(&dense));
            assert_eq!(spmm, 1, "only dB = aᵀ·grad may take the view");
        }
    }

    #[test]
    fn spmm_grads_use_transpose() {
        let s = Arc::new(Csr::from_coo(2, 3, &[(0, 0, 2.0), (1, 2, 3.0)]));
        let mut store = VarStore::new();
        let b = store.add("b", Matrix::full(3, 1, 1.0));
        let mut tape = Tape::new(0);
        let tb = tape.param(&store, b);
        let c = tape.spmm(&s, tb);
        assert_eq!(tape.value(c).data(), &[2.0, 3.0]);
        let loss = tape.sum_all(c);
        let g = tape.backward(loss);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 0.0, 3.0]);
    }

    #[test]
    fn add_bias_grad_is_col_sum() {
        let mut store = VarStore::new();
        let b = store.add("bias", Matrix::zeros(1, 2));
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::zeros(3, 2));
        let tb = tape.param(&store, b);
        let y = tape.add_bias(x, tb);
        let loss = tape.sum_all(y);
        let g = tape.backward(loss);
        assert_eq!(g.get(b).unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn concat_and_slice_roundtrip_grads() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let b = store.add("b", Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let tb = tape.param(&store, b);
        let cat = tape.concat_cols(&[ta, tb]);
        assert_eq!(tape.value(cat).row(0), &[1.0, 3.0, 4.0]);
        // Only keep the middle column => gradient reaches b's first column only.
        let mid = tape.slice_cols(cat, 1, 2);
        let loss = tape.sum_all(mid);
        let g = tape.backward(loss);
        assert!(g.get(a).unwrap().data().iter().all(|&v| v == 0.0));
        assert_eq!(g.get(b).unwrap().data(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_is_simplex() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -10.0, 0.0, 10.0]));
        let p = tape.softmax_rows(x);
        for r in 0..2 {
            let sum: f32 = tape.value(p).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(tape.value(p).row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]));
        let ls = tape.log_softmax_rows(x);
        let p = tape.softmax_rows(x);
        for (l, p) in tape.value(ls).data().iter().zip(tape.value(p).data()) {
            assert!((l - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn max_stack_routes_gradient_to_winner() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::from_vec(1, 2, vec![1.0, 5.0]));
        let b = store.add("b", Matrix::from_vec(1, 2, vec![3.0, 2.0]));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let tb = tape.param(&store, b);
        let m = tape.max_stack(&[ta, tb]);
        assert_eq!(tape.value(m).data(), &[3.0, 5.0]);
        let loss = tape.sum_all(m);
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[0.0, 1.0]);
        assert_eq!(g.get(b).unwrap().data(), &[1.0, 0.0]);
    }

    #[test]
    fn mean_all_grad_is_uniform() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::full(2, 2, 3.0));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let m = tape.mean_all(ta);
        assert_eq!(tape.value(m).as_scalar(), 3.0);
        let g = tape.backward(m);
        assert!(g.get(a).unwrap().data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn row_sum_shapes_and_grad() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::from_vec(2, 3, vec![1.0; 6]));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let rs = tape.row_sum(ta);
        assert_eq!(tape.value(rs).shape(), (2, 1));
        let loss = tape.sum_all(rs);
        let g = tape.backward(loss);
        assert!(g.get(a).unwrap().data().iter().all(|&v| v == 1.0));
    }
}
