//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] records one forward computation as a Wengert list. Values are
//! computed eagerly when an op is recorded, so every op can stash whatever
//! forward byproducts its backward pass needs (dropout masks, arg-max
//! indices, softmax outputs). [`Tape::backward`] then runs a single reverse
//! sweep and returns the gradient of a scalar output with respect to every
//! parameter that participated; [`Tape::backward_wrt`] restricts the sweep
//! to a chosen set. Either way the sweep is demand-driven: nodes that feed
//! no wanted parameter never receive a gradient.
//!
//! Parameters live outside the tape in a [`VarStore`], so the tape can be
//! rebuilt cheaply every training step (the idiom used by all GNN models in
//! this workspace).

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::audit::Arity;
use crate::matrix::Matrix;
use crate::ops::linalg::SparseView;
use crate::pool;

/// Handle to a node on a [`Tape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Tensor(pub(crate) usize);

impl Tensor {
    /// Index of this node on its tape (matches node indices in audit
    /// reports).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a trainable parameter in a [`VarStore`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index of this parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One differentiable operation.
///
/// Implementations receive the forward output, the incoming gradient, the
/// forward values of their inputs and the sweep's demand for each input,
/// and return one optional gradient per input (in the same order the inputs
/// were wired on the tape).
///
/// `wants[k]` is false when nothing the sweep differentiates depends on
/// input `k`. An op may skip that gradient and return `None`, or ignore the
/// mask: the driver discards gradients of unwanted inputs. Skipping one
/// side must leave the arithmetic of the other sides unchanged, so a
/// pruned sweep stays bitwise identical to a full one.
pub(crate) trait Op: Send + Sync {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>>;

    /// Human-readable name for error messages.
    fn name(&self) -> &'static str;

    /// Declared number of tape inputs, checked by the tape auditor.
    fn arity(&self) -> Arity;

    /// The op's one static contract: maps the `(rows, cols)` of the inputs
    /// (in wiring order) to the output's, or `Err` when the inputs violate
    /// the op's contract (e.g. `matmul` inner dimensions disagree, or a
    /// segment op's rows do not cover its segments).
    ///
    /// The tape auditor's shape pass checks every recorded node against it.
    /// Each implementation lives next to its op's `backward`; the audit
    /// tests record every op once and require a clean shape pass.
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String>;
}

/// Leaf op for constants / external inputs: no gradient flows past it.
struct InputOp;
impl Op for InputOp {
    fn backward(&self, _: &Matrix, _: &Matrix, _: &[&Matrix], _: &[bool]) -> Vec<Option<Matrix>> {
        Vec::new()
    }
    fn name(&self) -> &'static str {
        "input"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(0)
    }
    fn shape(&self, _: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Err("leaves have no shape rule: their recorded value is their shape".to_string())
    }
}

/// Leaf op for trainable parameters; the backward driver routes the
/// accumulated gradient into [`Gradients`].
struct ParamOp;
impl Op for ParamOp {
    fn backward(&self, _: &Matrix, _: &Matrix, _: &[&Matrix], _: &[bool]) -> Vec<Option<Matrix>> {
        Vec::new()
    }
    fn name(&self) -> &'static str {
        "param"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(0)
    }
    fn shape(&self, _: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Err("leaves have no shape rule: their recorded value is their shape".to_string())
    }
}

pub(crate) struct Node {
    pub(crate) value: Arc<Matrix>,
    pub(crate) op: Box<dyn Op>,
    pub(crate) inputs: Vec<Tensor>,
    /// `Some` when this node is a parameter leaf.
    pub(crate) param: Option<ParamId>,
    /// Sparse view of `value`, decided the first time the node is the left
    /// operand of [`Tape::matmul`] or is dropped out, or set when the node
    /// is recorded: `Some` when `value` is mostly zeros.
    pub(crate) view: OnceLock<Option<Arc<SparseView>>>,
    /// Whether the node is a [`Tape::input`], whose view is shared with
    /// every other tape that records the same allocation.
    pub(crate) shared: bool,
}

/// A single forward computation, recorded for reverse-mode differentiation.
///
/// Intermediate values are drawn from the thread-local [`crate::pool`] and
/// flow back into it when the tape is dropped, so the rebuild-every-step
/// idiom settles into zero steady-state allocation.
pub struct Tape {
    nodes: Vec<Node>,
    rng: StdRng,
    /// Pool counters at construction, so audits and telemetry can report
    /// per-tape activity instead of process-lifetime accumulation.
    pool_at_birth: pool::PoolStats,
}

impl Drop for Tape {
    fn drop(&mut self) {
        if sane_telemetry::active() {
            let resident: usize = self.nodes.iter().map(|n| n.value.len() * 4).sum();
            sane_telemetry::counter_add("tape.count", 1);
            sane_telemetry::counter_add("tape.ops", self.nodes.len() as u64);
            sane_telemetry::gauge_max("tape.peak_resident_bytes", resident as f64);
        }
        for node in self.nodes.drain(..) {
            // Values still shared (parameters in the `VarStore`, inputs or
            // outputs the caller kept an `Arc` to) fail the unwrap and drop
            // normally; everything tape-exclusive feeds the pool.
            if let Ok(value) = Arc::try_unwrap(node.value) {
                pool::put(value);
            }
        }
    }
}

impl Tape {
    /// Creates an empty tape. `seed` drives stochastic ops (dropout).
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: Vec::with_capacity(256),
            rng: StdRng::seed_from_u64(seed),
            pool_at_birth: pool::stats(),
        }
    }

    /// Buffer-pool activity attributable to this tape: counters since the
    /// tape was created (current pool contents stay absolute).
    pub fn pool_activity(&self) -> pool::PoolStats {
        pool::stats().since(&self.pool_at_birth)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Records a constant (no gradient) from a shared matrix.
    ///
    /// Use this for large fixed inputs — node features, adjacency-derived
    /// data — so each training step shares one allocation. Its sparse view,
    /// if it has one, is built once for the allocation and shared by every
    /// tape that records it (DESIGN.md §17).
    pub fn input(&mut self, value: Arc<Matrix>) -> Tensor {
        let t = self.push(value, Box::new(InputOp), Vec::new(), None);
        self.nodes[t.0].shared = true;
        t
    }

    /// Records a constant (no gradient), taking ownership of the matrix.
    pub fn constant(&mut self, value: Matrix) -> Tensor {
        self.push(Arc::new(value), Box::new(InputOp), Vec::new(), None)
    }

    /// Records an all-zeros `rows x cols` constant drawn from the buffer
    /// pool, so a zero state rebuilt every step allocates nothing.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        self.constant(pool::zeros(rows, cols))
    }

    /// Records a `1 x 1` constant.
    pub fn scalar(&mut self, value: f32) -> Tensor {
        self.constant(Matrix::scalar(value))
    }

    /// Records a trainable parameter from `store`.
    pub fn param(&mut self, store: &VarStore, id: ParamId) -> Tensor {
        let value = store.value_arc(id);
        self.push(value, Box::new(ParamOp), Vec::new(), Some(id))
    }

    /// The forward value of `t`.
    pub fn value(&self, t: Tensor) -> &Matrix {
        &self.nodes[t.0].value
    }

    /// Shared handle to the forward value of `t`.
    pub fn value_arc(&self, t: Tensor) -> Arc<Matrix> {
        Arc::clone(&self.nodes[t.0].value)
    }

    pub(crate) fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    pub(crate) fn push(
        &mut self,
        value: Arc<Matrix>,
        op: Box<dyn Op>,
        inputs: Vec<Tensor>,
        param: Option<ParamId>,
    ) -> Tensor {
        debug_assert!(inputs.iter().all(|t| t.0 < self.nodes.len()), "op wired to future tensor");
        self.nodes.push(Node { value, op, inputs, param, view: OnceLock::new(), shared: false });
        Tensor(self.nodes.len() - 1)
    }

    pub(crate) fn push_op(
        &mut self,
        value: Matrix,
        op: Box<dyn Op>,
        inputs: Vec<Tensor>,
    ) -> Tensor {
        self.push(Arc::new(value), op, inputs, None)
    }

    /// Reverse sweep from `output`, which must be scalar (`1 x 1`).
    ///
    /// Returns the gradients of all parameters reachable from `output`.
    /// Nodes that depend on no parameter (constants and chains of ops over
    /// them) are pruned from the sweep: see [`Tape::backward_wrt`].
    ///
    /// # Panics
    /// Panics if `output` is not `1 x 1`.
    pub fn backward(&self, output: Tensor) -> Gradients {
        self.assert_scalar(output);
        self.backward_seeded(output, Matrix::scalar(1.0))
    }

    /// Reverse sweep from the scalar `output` that differentiates with
    /// respect to `params` only.
    ///
    /// Before the sweep, one forward pass over the Wengert list marks the
    /// nodes that depend on a wanted parameter. Only those receive a
    /// gradient, so only their backward runs, and each op is told which of
    /// its inputs are wanted (a `matmul` with a constant left operand forms
    /// `dW` and never `dX`). Every consumer of a marked node is itself
    /// marked, so the wanted gradients accumulate the same terms in the
    /// same order as under [`Tape::backward`] and are bitwise identical to
    /// its; every other slot of the result is `None`.
    ///
    /// # Panics
    /// Panics if `output` is not `1 x 1`.
    pub fn backward_wrt(&self, output: Tensor, params: &[ParamId]) -> Gradients {
        self.assert_scalar(output);
        let mut bits = vec![0u64; params.iter().map(|p| p.0 / 64 + 1).max().unwrap_or(0)];
        for p in params {
            bits[p.0 / 64] |= 1 << (p.0 % 64);
        }
        let wanted = |p: ParamId| bits.get(p.0 / 64).is_some_and(|w| (w >> (p.0 % 64)) & 1 == 1);
        crate::parallel::timed("tape_backward", || {
            self.sweep(output, Matrix::scalar(1.0), &self.needs(wanted))
        })
    }

    /// Reverse sweep with an explicit seed gradient (same shape as
    /// `output`), with respect to every parameter.
    pub fn backward_seeded(&self, output: Tensor, seed: Matrix) -> Gradients {
        crate::parallel::timed("tape_backward", || self.sweep(output, seed, &self.needs(|_| true)))
    }

    fn assert_scalar(&self, output: Tensor) {
        assert_eq!(
            self.value(output).shape(),
            (1, 1),
            "backward requires a scalar output, got {:?}",
            self.value(output).shape()
        );
    }

    /// The demand mask of one reverse sweep: `needs[i]` holds iff node `i`
    /// is a parameter leaf that `wanted` accepts, or any of its inputs
    /// needs. Inputs precede their consumers, so one forward pass settles
    /// it.
    fn needs(&self, wanted: impl Fn(ParamId) -> bool) -> Vec<bool> {
        let mut needs = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let need = match node.param {
                Some(pid) => wanted(pid),
                None => node.inputs.iter().any(|t| needs[t.0]),
            };
            needs.push(need);
        }
        needs
    }

    /// The one reverse sweep. A parameter leaf banks its gradient in the
    /// result. An op node runs [`Op::backward`] with its inputs' demand,
    /// accumulates the gradients of demanded inputs, and recycles the rest
    /// along with its own. Only demanded nodes receive a gradient, so
    /// constant leaves are never visited.
    fn sweep(&self, output: Tensor, seed: Matrix, needs: &[bool]) -> Gradients {
        assert_eq!(seed.shape(), self.value(output).shape(), "seed gradient shape mismatch");
        let mut result = Gradients::default();
        if !needs[output.0] {
            pool::put(seed);
            return result;
        }
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[output.0] = Some(seed);
        // Nodes recorded after `output` cannot feed it.
        for i in (0..=output.0).rev() {
            let Some(grad) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            if let Some(pid) = node.param {
                result.accumulate(pid, grad);
                continue;
            }
            let input_vals: Vec<&Matrix> =
                node.inputs.iter().map(|t| &*self.nodes[t.0].value).collect();
            let wants: Vec<bool> = node.inputs.iter().map(|t| needs[t.0]).collect();
            let input_grads = node.op.backward(&node.value, &grad, &input_vals, &wants);
            assert_eq!(
                input_grads.len(),
                node.inputs.len(),
                "op `{}` returned {} gradients for {} inputs",
                node.op.name(),
                input_grads.len(),
                node.inputs.len()
            );
            for (t, g) in node.inputs.iter().zip(input_grads) {
                let Some(g) = g else { continue };
                if !needs[t.0] {
                    pool::put(g);
                    continue;
                }
                assert_eq!(
                    g.shape(),
                    self.nodes[t.0].value.shape(),
                    "op `{}` (node {i}) produced a gradient of the wrong shape for input node {}",
                    node.op.name(),
                    t.0
                );
                match &mut grads[t.0] {
                    Some(acc) => {
                        acc.add_assign(&g);
                        pool::put(g);
                    }
                    slot @ None => *slot = Some(g),
                }
            }
            // `grad` was fully distributed to the inputs; recycle it.
            pool::put(grad);
        }
        result
    }
}

/// Gradients of one backward sweep, keyed by [`ParamId`].
#[derive(Default)]
pub struct Gradients {
    slots: Vec<Option<Matrix>>,
}

impl Gradients {
    fn accumulate(&mut self, id: ParamId, grad: Matrix) {
        if self.slots.len() <= id.0 {
            self.slots.resize_with(id.0 + 1, || None);
        }
        match &mut self.slots[id.0] {
            Some(acc) => {
                acc.add_assign(&grad);
                pool::put(grad);
            }
            slot @ None => *slot = Some(grad),
        }
    }

    /// Gradient for `id`, if the parameter participated in the computation.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.slots.get(id.0).and_then(|s| s.as_ref())
    }

    /// Merges another gradient set into this one (summing overlaps).
    pub fn merge(&mut self, other: Gradients) {
        for (i, slot) in other.slots.into_iter().enumerate() {
            if let Some(g) = slot {
                self.accumulate(ParamId(i), g);
            }
        }
    }

    /// Adds `scale * other` into this gradient set (missing slots on either
    /// side are treated as zero). Used by the second-order bi-level update.
    pub fn add_scaled(&mut self, other: &Gradients, scale: f32) {
        for (id, g) in other.iter() {
            let mut scaled = pool::clone_of(g);
            scaled.scale_inplace(scale);
            self.accumulate(id, scaled);
        }
    }

    /// Joint L2 norm restricted to the given parameters.
    pub fn l2_norm_subset(&self, ids: &[ParamId]) -> f32 {
        let mut sq = 0.0f32;
        for &id in ids {
            if let Some(g) = self.get(id) {
                sq += g.data().iter().map(|v| v * v).sum::<f32>();
            }
        }
        sq.sqrt()
    }

    /// Global gradient-norm clipping: scales all gradients so the joint
    /// L2 norm does not exceed `max_norm`. Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let mut sq = 0.0f32;
        for slot in self.slots.iter().flatten() {
            sq += slot.data().iter().map(|v| v * v).sum::<f32>();
        }
        let norm = sq.sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for slot in self.slots.iter_mut().flatten() {
                slot.scale_inplace(s);
            }
        }
        norm
    }

    /// True if no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Iterates over `(id, grad)` pairs that received gradients.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|g| (ParamId(i), g)))
    }

    /// Consumes the gradient set, returning its buffers to the thread-local
    /// pool. Call after the optimiser step; skipping it only costs fresh
    /// allocations on the next backward sweep.
    pub fn recycle(self) {
        for slot in self.slots.into_iter().flatten() {
            pool::put(slot);
        }
    }
}

struct Slot {
    value: Arc<Matrix>,
    name: String,
}

/// Storage for trainable parameters, shared across training steps.
///
/// Values are held behind `Arc` so recording a parameter on a tape is a
/// reference-count bump, not a copy; optimizers mutate through
/// [`Arc::make_mut`] once the step's tapes are dropped.
#[derive(Default)]
pub struct VarStore {
    slots: Vec<Slot>,
}

impl VarStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value. Names are for debugging
    /// and need not be unique.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.slots.push(Slot { value: Arc::new(value), name: name.into() });
        ParamId(self.slots.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.slots[id.0].value
    }

    pub(crate) fn value_arc(&self, id: ParamId) -> Arc<Matrix> {
        Arc::clone(&self.slots[id.0].value)
    }

    /// Mutable access to a parameter's value (clones on write if a tape still
    /// holds the value).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        Arc::make_mut(&mut self.slots[id.0].value)
    }

    /// Replaces a parameter's value (shape may change; used when re-deriving
    /// architectures with different hidden sizes is *not* desired — prefer a
    /// fresh store for that).
    pub fn set(&mut self, id: ParamId, value: Matrix) {
        self.slots[id.0].value = Arc::new(value);
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.slots.len()).map(ParamId)
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// Deep snapshot of every parameter value (for retrain-from-best logic).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.slots.iter().map(|s| (*s.value).clone()).collect()
    }

    /// Restores a snapshot taken with [`VarStore::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the store's layout.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(snapshot.len(), self.slots.len(), "snapshot/store length mismatch");
        for (slot, value) in self.slots.iter_mut().zip(snapshot) {
            assert_eq!(
                slot.value.shape(),
                value.shape(),
                "snapshot shape mismatch for {}",
                slot.name
            );
            slot.value = Arc::new(value.clone());
        }
    }

    /// Re-initialises every parameter with `f(name, current) -> new`.
    pub fn reinit(&mut self, mut f: impl FnMut(&str, &Matrix) -> Matrix) {
        for slot in &mut self.slots {
            let new = f(&slot.name, &slot.value);
            assert_eq!(new.shape(), slot.value.shape(), "reinit changed shape of {}", slot.name);
            slot.value = Arc::new(new);
        }
    }
}

/// Fills a matrix with i.i.d. uniform values in `[-bound, bound]`.
pub fn uniform_init(rows: usize, cols: usize, bound: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound))
}

/// Glorot/Xavier uniform initialisation for a `rows x cols` weight.
pub fn glorot_init(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    uniform_init(rows, cols, bound, rng)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn constant_value_roundtrip() {
        let mut tape = Tape::new(0);
        let t = tape.constant(Matrix::scalar(3.0));
        assert_eq!(tape.value(t).as_scalar(), 3.0);
    }

    #[test]
    fn param_gradient_of_identity() {
        let mut store = VarStore::new();
        let p = store.add("w", Matrix::scalar(2.0));
        let mut tape = Tape::new(0);
        let t = tape.param(&store, p);
        let grads = tape.backward(t);
        assert_eq!(grads.get(p).unwrap().as_scalar(), 1.0);
    }

    #[test]
    #[should_panic(expected = "scalar output")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new(0);
        let t = tape.constant(Matrix::zeros(2, 2));
        let _ = tape.backward(t);
    }

    /// Runs `f` under a memory-sink recorder with kernel timing on and
    /// returns its result with how many times each kernel ran, read from
    /// the `kernel.<name>.ns` summaries that `parallel::timed` feeds.
    pub(crate) fn with_kernel_calls<R>(f: impl FnOnce() -> R) -> (R, impl Fn(&str) -> u64) {
        use sane_telemetry::trace;
        let buf = sane_telemetry::MemoryBuffer::default();
        let guard = sane_telemetry::Recorder::new("kernel-calls")
            .with_memory(buf.clone())
            .with_kernel_timing(true)
            .install();
        let out = f();
        sane_telemetry::flush_metrics();
        drop(guard);
        let records = trace::read(&buf.borrow()).expect("valid trace");
        let metrics = trace::last_metrics(&records).expect("a metrics record").clone();
        let calls = move |kernel: &str| {
            metrics.summaries().get(&format!("kernel.{kernel}.ns")).map_or(0, |s| s.count)
        };
        (out, calls)
    }

    #[test]
    fn constant_times_param_backward_runs_one_gemm() {
        let mut store = VarStore::new();
        let w = store.add("w", Matrix::from_fn(6, 3, |i, j| (i + 2 * j) as f32 * 0.1));
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_fn(5, 6, |i, j| (i * j) as f32 * 0.01));
        let tw = tape.param(&store, w);
        let h = tape.matmul(x, tw);
        let loss = tape.sum_all(h);
        let (grads, calls) = with_kernel_calls(|| tape.backward(loss));
        // dW = Xᵀ·dY only: the constant's dX = dY·Wᵀ is never formed.
        assert_eq!(calls("gemm"), 1);
        assert_eq!(calls("tape_backward"), 1);
        let expected = tape.value(x).matmul_at_b(&Matrix::full(5, 3, 1.0));
        assert_eq!(grads.get(w).expect("dW").data(), expected.data());
    }

    #[test]
    fn constant_only_chain_runs_no_backward() {
        let adj = Arc::new(crate::sparse::Csr::from_coo(
            4,
            4,
            &[(0, 1, 0.5), (1, 0, 0.5), (2, 3, 1.0), (3, 2, 1.0), (3, 3, 1.0)],
        ));
        let mut store = VarStore::new();
        let w = store.add("w", Matrix::from_fn(3, 2, |i, j| (i + j) as f32 * 0.25));
        let mut tape = Tape::new(5);
        let x = tape.constant(Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f32 * 0.1));
        let d = tape.dropout(x, 0.5);
        let s = tape.spmm(&adj, d);
        let tw = tape.param(&store, w);
        let h = tape.matmul(s, tw);
        let loss = tape.mean_all(h);
        assert!(!tape.needs(|_| true)[s.index()], "the constant chain carries no demand");
        let (grads, calls) = with_kernel_calls(|| tape.backward(loss));
        assert_eq!(calls("spmm"), 0, "the spmm backward ran on a constant chain");
        assert_eq!(calls("gemm"), 1);
        assert!(grads.get(w).is_some());
    }

    #[test]
    fn a_sparse_view_is_built_once_for_every_product_that_reads_it() {
        let mut store = VarStore::new();
        let ws: Vec<ParamId> = (0..4)
            .map(|s| store.add("w", Matrix::from_fn(32, 3, |i, j| (i + j + s) as f32 * 0.1)))
            .collect();
        // One entry in 32 of `x` is nonzero; `d` has no zeros at all.
        let x = Matrix::from_fn(20, 32, |i, j| if (i + j) % 32 == 0 { 1.5 } else { 0.0 });
        let d = Matrix::from_fn(20, 32, |i, j| (i * 32 + j + 1) as f32 * 0.01);
        let ((), calls) = with_kernel_calls(|| {
            let mut tape = Tape::new(0);
            let (tx, td) = (tape.constant(x), tape.constant(d));
            let mut outs: Vec<Tensor> = ws[..3]
                .iter()
                .map(|&w| {
                    let tw = tape.param(&store, w);
                    tape.matmul(tx, tw)
                })
                .collect();
            let tw = tape.param(&store, ws[3]);
            outs.push(tape.matmul(td, tw));
            let sums: Vec<Tensor> = outs.into_iter().map(|o| tape.sum_all(o)).collect();
            let loss = tape.concat_cols(&sums);
            let loss = tape.sum_all(loss);
            tape.backward(loss).recycle();
        });
        // `x` is scanned and built once, `d` is scanned and rejected.
        assert_eq!(calls("sparse_view"), 1);
        // Three `x·W` and three `dW = xᵀ·dY` products go through the view.
        assert_eq!(calls("spmm"), 6);
        // `d·W` and its `dW` stay dense.
        assert_eq!(calls("gemm"), 2);
    }

    #[test]
    fn backward_wrt_matches_backward_on_wanted_params_only() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::from_fn(3, 3, |i, j| (i as f32 - j as f32) * 0.3));
        let b = store.add("b", Matrix::from_fn(3, 3, |i, j| (i * j) as f32 * 0.2 + 0.1));
        let s = store.add("s", Matrix::scalar(0.7));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let tb = tape.param(&store, b);
        let ts = tape.param(&store, s);
        let ab = tape.matmul(ta, tb);
        let t = tape.tanh(ab);
        let m = tape.mul(t, ta);
        let g = tape.mul_scalar_tensor(m, ts);
        let loss = tape.sum_all(g);
        let full = tape.backward(loss);
        for wanted in [vec![a], vec![b], vec![s], vec![s, a]] {
            let part = tape.backward_wrt(loss, &wanted);
            for id in store.ids() {
                match part.get(id) {
                    Some(g) if wanted.contains(&id) => {
                        let f = full.get(id).expect("full sweep reaches every param");
                        assert_eq!(g.data(), f.data(), "{id:?} diverged for {wanted:?}");
                    }
                    None if !wanted.contains(&id) => {}
                    other => panic!("{id:?} for {wanted:?}: got {:?}", other.map(Matrix::shape)),
                }
            }
            part.recycle();
        }
        assert!(tape.backward_wrt(loss, &[]).is_empty());
        full.recycle();
    }

    #[test]
    fn gradients_merge_sums_overlaps() {
        let mut a = Gradients::default();
        a.accumulate(ParamId(0), Matrix::scalar(1.0));
        let mut b = Gradients::default();
        b.accumulate(ParamId(0), Matrix::scalar(2.0));
        b.accumulate(ParamId(2), Matrix::scalar(5.0));
        a.merge(b);
        assert_eq!(a.get(ParamId(0)).unwrap().as_scalar(), 3.0);
        assert_eq!(a.get(ParamId(2)).unwrap().as_scalar(), 5.0);
        assert!(a.get(ParamId(1)).is_none());
    }

    #[test]
    fn clip_global_norm_scales_down() {
        let mut g = Gradients::default();
        g.accumulate(ParamId(0), Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let norm = g.clip_global_norm(1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped = g.get(ParamId(0)).unwrap();
        assert!((clipped.frob_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn varstore_snapshot_restore() {
        let mut store = VarStore::new();
        let p = store.add("w", Matrix::scalar(1.0));
        let snap = store.snapshot();
        store.value_mut(p).data_mut()[0] = 9.0;
        store.restore(&snap);
        assert_eq!(store.value(p).as_scalar(), 1.0);
    }

    #[test]
    fn glorot_bound_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = glorot_init(30, 50, &mut rng);
        let bound = (6.0 / 80.0f32).sqrt();
        assert!(w.max_abs() <= bound + 1e-6);
        assert!(w.max_abs() > bound * 0.5, "suspiciously small init");
    }
}
