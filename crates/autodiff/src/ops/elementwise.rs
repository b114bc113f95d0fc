//! Elementwise tape ops: arithmetic, activations, dropout.

use std::sync::Arc;

use rand::Rng;

use crate::audit::{require_eq, Arity};
use crate::fold::product_sums;
use crate::matrix::Matrix;
use crate::ops::linalg::SparseView;
use crate::pool;
use crate::sparse::Csr;
use crate::tape::{Op, Tape, Tensor};

fn binary_shape_check(tape: &Tape, a: Tensor, b: Tensor, what: &str) {
    assert_eq!(
        tape.value(a).shape(),
        tape.value(b).shape(),
        "{what} shape mismatch: {:?} vs {:?}",
        tape.value(a).shape(),
        tape.value(b).shape()
    );
}

/// Shape rule of the binary elementwise ops: both operands and the output
/// share one shape.
fn same_shape(what: &str, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
    require_eq(&format!("{what}: operand shapes disagree"), inputs[0], inputs[1])?;
    Ok(inputs[0])
}

struct AddOp;
impl Op for AddOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        wants.iter().map(|&w| w.then(|| pool::clone_of(grad))).collect()
    }
    fn name(&self) -> &'static str {
        "add"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        same_shape("add", inputs)
    }
}

struct SubOp;
impl Op for SubOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let mut neg = pool::clone_of(grad);
        neg.scale_inplace(-1.0);
        vec![Some(pool::clone_of(grad)), Some(neg)]
    }
    fn name(&self) -> &'static str {
        "sub"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        same_shape("sub", inputs)
    }
}

struct MulOp;
impl Op for MulOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        // d(a⊙b)/da = grad⊙b and d/db = grad⊙a.
        let side = |other: &Matrix| {
            let mut g = pool::clone_of(grad);
            for (g, o) in g.data_mut().iter_mut().zip(other.data()) {
                *g *= o;
            }
            g
        };
        vec![wants[0].then(|| side(inputs[1])), wants[1].then(|| side(inputs[0]))]
    }
    fn name(&self) -> &'static str {
        "mul"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        same_shape("mul", inputs)
    }
}

struct ScaleOp(f32);
impl Op for ScaleOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let mut g = pool::clone_of(grad);
        g.scale_inplace(self.0);
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "scale"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

/// `a + c`; backward passes the gradient through unchanged.
struct AddScalarOp;
impl Op for AddScalarOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        vec![Some(pool::clone_of(grad))]
    }
    fn name(&self) -> &'static str {
        "add_scalar"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

/// `a * s` where `s` is a `1 x 1` tensor (differentiable scalar gate).
struct MulScalarTensorOp;
impl Op for MulScalarTensorOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let ga = wants[0].then(|| {
            let mut ga = pool::clone_of(grad);
            ga.scale_inplace(inputs[1].as_scalar());
            ga
        });
        let gs = wants[1].then(|| {
            Matrix::scalar(grad.data().iter().zip(inputs[0].data()).map(|(g, a)| g * a).sum())
        });
        vec![ga, gs]
    }
    fn name(&self) -> &'static str {
        "mul_scalar_tensor"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        require_eq("mul_scalar_tensor: the scale must be 1 x 1", inputs[1], (1, 1))?;
        Ok(inputs[0])
    }
}

/// `Σ_i w[i] · outs[i]` for a `1 x n` weight row and `m <= n` same-shape
/// tensors: one node for a softmax-weighted operation mixture. Wired
/// `[weights, outs...]`.
struct MixOp;
impl Op for MixOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (w, outs) = (inputs[0].row(0), &inputs[1..]);
        // Per term, `mul_scalar_tensor`'s backward: `g · w_i` for the
        // tensor and the `Σ g·o_i` fold for its weight. With two or more
        // terms the chain this replaces sliced each weight's gradient into
        // a zeroed row and summed the rows, which turns a `-0` into `+0`;
        // `+ 0.0` does the same. Columns without a term get `+0`.
        // Every `Σ g·o_i` is the chain `Iterator::sum` folds, all advanced
        // in one pass over `g`.
        let dw = wants[0].then(|| {
            let mut dw = pool::zeros(1, w.len());
            let dots = &mut dw.data_mut()[..outs.len()];
            product_sums(dots, |i| (grad.data(), outs[i].data()));
            if outs.len() >= 2 {
                dots.iter_mut().for_each(|d| *d += 0.0);
            }
            dw
        });
        let mut grads = vec![dw];
        grads.extend(w.iter().zip(&wants[1..]).map(|(&wi, &want)| {
            want.then(|| {
                let mut g = pool::clone_of(grad);
                g.scale_inplace(wi);
                g
            })
        }));
        grads
    }
    fn name(&self) -> &'static str {
        "mix"
    }
    fn arity(&self) -> Arity {
        Arity::AtLeast(2)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (w, outs) = (inputs[0], &inputs[1..]);
        require_eq("mix: the weights must be one row", w.0, 1)?;
        if outs.len() > w.1 {
            return Err(format!("mix: {} terms for {} weights", outs.len(), w.1));
        }
        for &o in &outs[1..] {
            require_eq("mix: term shapes disagree", o, outs[0])?;
        }
        Ok(outs[0])
    }
}

struct ReluOp;
impl Op for ReluOp {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let mut g = pool::clone_of(grad);
        for (g, &o) in g.data_mut().iter_mut().zip(out.data()) {
            if o <= 0.0 {
                *g = 0.0;
            }
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "relu"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

struct LeakyReluOp(f32);
impl Op for LeakyReluOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let mut g = pool::clone_of(grad);
        for (g, &x) in g.data_mut().iter_mut().zip(inputs[0].data()) {
            if x <= 0.0 {
                *g *= self.0;
            }
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "leaky_relu"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

struct EluOp;
impl Op for EluOp {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        // For x <= 0: out = exp(x) - 1, so d/dx = exp(x) = out + 1.
        let mut g = pool::clone_of(grad);
        for (g, &o) in g.data_mut().iter_mut().zip(out.data()) {
            if o < 0.0 {
                *g *= o + 1.0;
            }
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "elu"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

struct TanhOp;
impl Op for TanhOp {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let mut g = pool::clone_of(grad);
        for (g, &o) in g.data_mut().iter_mut().zip(out.data()) {
            *g *= 1.0 - o * o;
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "tanh"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

struct SigmoidOp;
impl Op for SigmoidOp {
    fn backward(
        &self,
        out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let mut g = pool::clone_of(grad);
        for (g, &o) in g.data_mut().iter_mut().zip(out.data()) {
            *g *= o * (1.0 - o);
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "sigmoid"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

struct AbsOp;
impl Op for AbsOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let mut g = pool::clone_of(grad);
        for (g, &x) in g.data_mut().iter_mut().zip(inputs[0].data()) {
            // Subgradient 0 at x == 0.
            *g *= if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            };
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "abs"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        Ok(inputs[0])
    }
}

/// Inverted dropout; the mask (with `1/(1-p)` scaling baked in) is saved at
/// forward time. Dropout of a constant leaf saves none: nothing can take
/// a gradient through it.
struct DropoutOp {
    mask: Option<Arc<Vec<f32>>>,
}
impl Op for DropoutOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let Some(mask) = &self.mask else { return vec![None] };
        let mut g = pool::clone_of(grad);
        for (g, &m) in g.data_mut().iter_mut().zip(mask.iter()) {
            *g *= m;
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "dropout"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, cols) = inputs[0];
        if let Some(mask) = &self.mask {
            require_eq("dropout: saved mask entries", mask.len(), rows * cols)?;
        }
        Ok(inputs[0])
    }
}

impl Tape {
    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Tensor, b: Tensor) -> Tensor {
        binary_shape_check(self, a, b, "add");
        let mut out = pool::clone_of(self.value(a));
        out.add_assign(self.value(b));
        self.push_op(out, Box::new(AddOp), vec![a, b])
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Tensor, b: Tensor) -> Tensor {
        binary_shape_check(self, a, b, "sub");
        let mut out = pool::clone_of(self.value(a));
        out.add_scaled_assign(self.value(b), -1.0);
        self.push_op(out, Box::new(SubOp), vec![a, b])
    }

    /// Elementwise (Hadamard) `a * b`.
    pub fn mul(&mut self, a: Tensor, b: Tensor) -> Tensor {
        binary_shape_check(self, a, b, "mul");
        let mut out = pool::clone_of(self.value(a));
        for (o, &bv) in out.data_mut().iter_mut().zip(self.value(b).data()) {
            *o *= bv;
        }
        self.push_op(out, Box::new(MulOp), vec![a, b])
    }

    /// `a * c` for a compile-time constant `c`.
    pub fn scale(&mut self, a: Tensor, c: f32) -> Tensor {
        let mut out = pool::clone_of(self.value(a));
        out.scale_inplace(c);
        self.push_op(out, Box::new(ScaleOp(c)), vec![a])
    }

    /// `a + c` for a constant `c`.
    pub fn add_scalar(&mut self, a: Tensor, c: f32) -> Tensor {
        let mut out = pool::clone_of(self.value(a));
        out.map_inplace(|x| x + c);
        self.push_op(out, Box::new(AddScalarOp), vec![a])
    }

    /// `a * s` where `s` is a differentiable `1 x 1` tensor. This is the
    /// building block of the supernet's softmax-weighted operation mixtures.
    pub fn mul_scalar_tensor(&mut self, a: Tensor, s: Tensor) -> Tensor {
        assert_eq!(self.value(s).shape(), (1, 1), "mul_scalar_tensor needs a 1x1 scale");
        let sv = self.value(s).as_scalar();
        let mut out = pool::clone_of(self.value(a));
        out.scale_inplace(sv);
        self.push_op(out, Box::new(MulScalarTensorOp), vec![a, s])
    }

    /// The mixture `Σ_i weights[0,i] · outs[i]` of same-shape tensors under
    /// a `1 x n` weight row, `outs.len() <= n`, as one node.
    ///
    /// Bitwise equal, in value and every gradient, to the chain
    /// `acc = mul_scalar_tensor(outs[0], slice_cols(weights, 0, 1))`, then
    /// `acc = add(acc, mul_scalar_tensor(outs[i], slice_cols(weights, i,
    /// i + 1)))`: the value is that left fold of plain products (no FMA),
    /// and the backward pass forms each gradient as the chain's ops did.
    /// Weight columns past `outs.len()` (the ZERO skip op, which has no
    /// term) take no part and get a `+0` gradient. None of the chain's
    /// scaled terms or partial sums lands on the tape.
    pub fn mix(&mut self, weights: Tensor, outs: &[Tensor]) -> Tensor {
        let wv = self.value_arc(weights);
        assert!(!outs.is_empty(), "mix needs at least one term");
        assert!(
            wv.rows() == 1 && outs.len() <= wv.cols(),
            "mix: {} terms under {:?} weights",
            outs.len(),
            wv.shape()
        );
        for &o in &outs[1..] {
            binary_shape_check(self, outs[0], o, "mix");
        }
        let w = wv.row(0);
        let mut out = pool::clone_of(self.value(outs[0]));
        out.scale_inplace(w[0]);
        for (&o, &wi) in outs[1..].iter().zip(&w[1..]) {
            for (acc, &v) in out.data_mut().iter_mut().zip(self.value(o).data()) {
                *acc += v * wi;
            }
        }
        let mut inputs = vec![weights];
        inputs.extend_from_slice(outs);
        self.push_op(out, Box::new(MixOp), inputs)
    }

    pub fn relu(&mut self, a: Tensor) -> Tensor {
        let mut out = pool::clone_of(self.value(a));
        out.map_inplace(|x| x.max(0.0));
        self.push_op(out, Box::new(ReluOp), vec![a])
    }

    pub fn leaky_relu(&mut self, a: Tensor, slope: f32) -> Tensor {
        let mut out = pool::clone_of(self.value(a));
        out.map_inplace(|x| if x > 0.0 { x } else { slope * x });
        self.push_op(out, Box::new(LeakyReluOp(slope)), vec![a])
    }

    pub fn elu(&mut self, a: Tensor) -> Tensor {
        let mut out = pool::clone_of(self.value(a));
        out.map_inplace(|x| if x > 0.0 { x } else { x.exp() - 1.0 });
        self.push_op(out, Box::new(EluOp), vec![a])
    }

    /// Elementwise `tanh` in the active [`crate::simd`] flavour.
    pub fn tanh(&mut self, a: Tensor) -> Tensor {
        let mut out = pool::clone_of(self.value(a));
        crate::simd::flavour().tanh(out.data_mut());
        self.push_op(out, Box::new(TanhOp), vec![a])
    }

    /// Elementwise logistic sigmoid in the active [`crate::simd`] flavour.
    pub fn sigmoid(&mut self, a: Tensor) -> Tensor {
        let mut out = pool::clone_of(self.value(a));
        crate::simd::flavour().sigmoid(out.data_mut());
        self.push_op(out, Box::new(SigmoidOp), vec![a])
    }

    pub fn abs(&mut self, a: Tensor) -> Tensor {
        let mut out = pool::clone_of(self.value(a));
        out.map_inplace(f32::abs);
        self.push_op(out, Box::new(AbsOp), vec![a])
    }

    /// Inverted dropout with keep-probability `1 - p`.
    ///
    /// With `p == 0.0` this records nothing and returns `a` unchanged, so
    /// callers can pass their configured rate and use `0.0` for evaluation.
    ///
    /// Over a constant leaf (an input with no parameter behind it, such as
    /// the node features) no gradient can flow, so no mask is kept. When
    /// that leaf has a sparse view and holds no `-0.0`, only its nonzeros
    /// are scaled, into a zeroed output, and the output's view is built
    /// from the leaf's entries at once (DESIGN.md §17). The random stream
    /// is the same on every route: one draw per element, in element order.
    pub fn dropout(&mut self, a: Tensor, p: f32) -> Tensor {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0,1), got {p}");
        if p == 0.0 {
            return a;
        }
        let scale = 1.0 / (1.0 - p);
        let node = self.node(a.0);
        let constant = node.inputs.is_empty() && node.param.is_none();
        if constant {
            let viewed = self.sparse_view(a).filter(|v| !v.holds_negative_zero(self.value(a)));
            if let Some(view) = viewed {
                let out = dropout_entries(&view.csr, p, scale, self.rng());
                let out_view = SparseView::within(&out, &view);
                let t = self.push_op(out, Box::new(DropoutOp { mask: None }), vec![a]);
                let _ = self.node(t.0).view.set(out_view);
                return t;
            }
        }
        let mut out = pool::clone_of(self.value(a));
        let rng = self.rng();
        if constant {
            for o in out.data_mut() {
                *o *= if rng.gen::<f32>() < p { 0.0 } else { scale };
            }
            return self.push_op(out, Box::new(DropoutOp { mask: None }), vec![a]);
        }
        let mask: Vec<f32> =
            (0..out.len()).map(|_| if rng.gen::<f32>() < p { 0.0 } else { scale }).collect();
        for (o, &m) in out.data_mut().iter_mut().zip(&mask) {
            *o *= m;
        }
        self.push_op(out, Box::new(DropoutOp { mask: Some(Arc::new(mask)) }), vec![a])
    }
}

/// The dropout of the matrix `x` views, which holds no `-0.0`: a zeroed
/// matrix with `v · m` at each entry `v` of `x`.
///
/// `m` is `0` or `scale` as the scaling loop over every element would draw
/// it: one draw per element in element order, the draws at `x`'s zeros
/// discarded. That loop turns each `+0` into `+0` (the mask is never
/// negative or NaN), and the multiply at an entry is the loop's own, so a
/// dropped `-v` stays `-0` and a NaN or `±inf` entry becomes NaN: the bits
/// are the loop's, and so is where the stream ends.
fn dropout_entries(x: &Csr, p: f32, scale: f32, rng: &mut impl Rng) -> Matrix {
    let (rows, cols) = (x.rows(), x.cols());
    let mut out = pool::zeros(rows, cols);
    let data = out.data_mut();
    let mut drawn = 0;
    for r in 0..rows {
        let (cs, vs) = x.row(r);
        for (&c, &v) in cs.iter().zip(vs) {
            let at = r * cols + c as usize; // lint:allow(lossy-cast) -- u32 index widens losslessly
            for _ in drawn..at {
                let _: f32 = rng.gen();
            }
            data[at] = v * if rng.gen::<f32>() < p { 0.0 } else { scale };
            drawn = at + 1;
        }
    }
    for _ in drawn..data.len() {
        let _: f32 = rng.gen();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::VarStore;

    /// d/dx of sum over a chain applied to a single scalar param.
    fn scalar_grad(x: f32, f: impl Fn(&mut Tape, Tensor) -> Tensor) -> f32 {
        let mut store = VarStore::new();
        let p = store.add("x", Matrix::scalar(x));
        let mut tape = Tape::new(0);
        let t = tape.param(&store, p);
        let y = f(&mut tape, t);
        tape.backward(y).get(p).unwrap().as_scalar()
    }

    #[test]
    fn add_sub_mul_grads() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::scalar(2.0));
        let b = store.add("b", Matrix::scalar(3.0));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let tb = tape.param(&store, b);
        let s = tape.add(ta, tb);
        let d = tape.sub(s, tb); // = a
        let m = tape.mul(d, tb); // = a*b
        assert_eq!(tape.value(m).as_scalar(), 6.0);
        let g = tape.backward(m);
        assert_eq!(g.get(a).unwrap().as_scalar(), 3.0);
        assert_eq!(g.get(b).unwrap().as_scalar(), 2.0);
    }

    #[test]
    fn activation_grads_at_points() {
        assert_eq!(scalar_grad(2.0, |t, x| t.relu(x)), 1.0);
        assert_eq!(scalar_grad(-2.0, |t, x| t.relu(x)), 0.0);
        assert_eq!(scalar_grad(-2.0, |t, x| t.leaky_relu(x, 0.1)), 0.1);
        // The vectorized tanh is within 3.5e-7 relative of libm, so
        // 1 - t² moves by at most 2·t·δt ≈ 1.6e-7 here: 1e-6 still holds.
        let g = scalar_grad(0.5, |t, x| t.tanh(x));
        assert!((g - (1.0 - 0.5f32.tanh().powi(2))).abs() < 1e-6);
        let g = scalar_grad(0.0, |t, x| t.sigmoid(x));
        assert!((g - 0.25).abs() < 1e-6);
        let g = scalar_grad(-1.0, |t, x| t.elu(x));
        assert!((g - (-1.0f32).exp()).abs() < 1e-6);
        assert_eq!(scalar_grad(-3.0, |t, x| t.abs(x)), -1.0);
    }

    #[test]
    fn mul_scalar_tensor_grads() {
        let mut store = VarStore::new();
        let a = store.add("a", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let s = store.add("s", Matrix::scalar(3.0));
        let mut tape = Tape::new(0);
        let ta = tape.param(&store, a);
        let ts = tape.param(&store, s);
        let y = tape.mul_scalar_tensor(ta, ts);
        let loss = tape.sum_all(y);
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[3.0, 3.0]);
        assert_eq!(g.get(s).unwrap().as_scalar(), 3.0); // 1 + 2
    }

    /// `mix` against the chain it replaces, bitwise in both flavours at
    /// 1/2/4 threads, with `m` terms under `n` weights: the skip mixture's
    /// one term under two weights, the layer and node mixtures' full rows,
    /// and a row with spare columns. One term is all `-0` and one weight is
    /// `-0`; with `probe`, both sides end in a product with a constant
    /// whose `±0` entries send `-0` upstream gradients into the mixture.
    #[test]
    fn mix_is_bitwise_equal_to_the_sliced_chain() {
        use crate::equivalence::{fused_vs_chain, Equivalence};
        use crate::simd::with_scalar;

        let wave = |rows: usize, cols: usize, salt: f32| {
            Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.37 + salt).sin() * 1.3)
        };
        let tail = |t: &mut Tape, y: Tensor, probe: bool| {
            if !probe {
                return y;
            }
            let (rows, cols) = t.value(y).shape();
            let p = t.constant(Matrix::from_fn(rows, cols, |r, c| match (r * cols + c) % 4 {
                0 => 0.0,
                1 => -0.0,
                k => k as f32 - 2.5,
            }));
            t.mul(y, p)
        };
        for (m, n) in [(1, 2), (3, 3), (11, 11), (2, 4)] {
            let mut inputs = vec![wave(1, n, 0.2)];
            inputs[0].data_mut()[n - 1] = -0.0;
            inputs.extend((0..m).map(|i| wave(5, 3, i as f32)));
            inputs[m] = Matrix::full(5, 3, -0.0);
            let wanted = vec![true; m + 1];
            for (scalar, probe) in [(false, false), (false, true), (true, false), (true, true)] {
                let fused = |t: &mut Tape, i: &[Tensor]| {
                    let y = t.mix(i[0], &i[1..]);
                    tail(t, y, probe)
                };
                let chain = |t: &mut Tape, i: &[Tensor]| {
                    let mut acc: Option<Tensor> = None;
                    for (k, &o) in i[1..].iter().enumerate() {
                        let w = t.slice_cols(i[0], k, k + 1);
                        let scaled = t.mul_scalar_tensor(o, w);
                        acc = Some(match acc {
                            Some(a) => t.add(a, scaled),
                            None => scaled,
                        });
                    }
                    let y = acc.expect("at least one term");
                    tail(t, y, probe)
                };
                let check =
                    || fused_vs_chain(Equivalence::Bitwise, &inputs, &wanted, &fused, &chain);
                let res = if scalar { with_scalar(check) } else { check() };
                res.unwrap_or_else(|e| panic!("{m} of {n}, scalar {scalar}, probe {probe}: {e}"));
            }
        }
    }

    /// The one-term mixture keeps a `-0` weight gradient as the chain's
    /// single slice does; with two terms both come back as `+0`.
    #[test]
    fn mix_weight_gradients_keep_the_chains_zero_signs() {
        for (m, want) in [(1, (-0.0f32).to_bits()), (2, 0.0f32.to_bits())] {
            let mut store = VarStore::new();
            let w = store.add("w", Matrix::from_vec(1, 2, vec![0.5, 0.5]));
            let outs: Vec<_> = (0..m).map(|_| store.add("o", Matrix::full(2, 2, -0.0))).collect();
            let mut tape = Tape::new(0);
            let tw = tape.param(&store, w);
            let to: Vec<Tensor> = outs.iter().map(|&o| tape.param(&store, o)).collect();
            let y = tape.mix(tw, &to);
            let loss = tape.sum_all(y);
            let grads = tape.backward(loss);
            let dw = grads.get(w).expect("dw");
            assert_eq!(dw.data()[0].to_bits(), want, "{m} terms");
            assert_eq!(dw.data()[1].to_bits(), 0.0f32.to_bits(), "{m} terms");
        }
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let mut tape = Tape::new(0);
        let a = tape.constant(Matrix::full(4, 4, 1.0));
        let d = tape.dropout(a, 0.0);
        assert_eq!(a, d);
    }

    #[test]
    fn dropout_preserves_expectation_roughly() {
        let mut tape = Tape::new(42);
        let a = tape.constant(Matrix::full(100, 100, 1.0));
        let d = tape.dropout(a, 0.5);
        let mean = tape.value(d).mean();
        assert!((mean - 1.0).abs() < 0.1, "inverted dropout mean {mean}");
    }

    #[test]
    fn dropout_grad_matches_mask() {
        let mut store = VarStore::new();
        let p = store.add("x", Matrix::full(10, 10, 2.0));
        let mut tape = Tape::new(7);
        let t = tape.param(&store, p);
        let d = tape.dropout(t, 0.3);
        let loss = tape.sum_all(d);
        let g = tape.backward(loss);
        // Gradient equals the saved mask: zero where dropped, 1/(1-p) elsewhere.
        for (&g, &o) in g.get(p).unwrap().data().iter().zip(tape.value(d).data()) {
            if o == 0.0 {
                assert_eq!(g, 0.0);
            } else {
                assert!((g - 1.0 / 0.7).abs() < 1e-6);
            }
        }
    }

    /// Dropout over a constant leaf keeps no mask, forms no gradient, and
    /// draws the same stream as dropout over a parameter.
    #[test]
    fn constant_dropout_keeps_no_mask() {
        let x = Matrix::from_fn(12, 9, |r, c| if (r + c) % 3 == 0 { 0.0 } else { r as f32 - 4.5 });
        let mut tape = Tape::new(9);
        let leaf = tape.constant(x.clone());
        let d = tape.dropout(leaf, 0.4);
        let mut store = VarStore::new();
        let p = store.add("x", x);
        let mut reference = Tape::new(9);
        let tp = reference.param(&store, p);
        let rd = reference.dropout(tp, 0.4);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(tape.value(d)), bits(reference.value(rd)), "one draw per element");
        let node = tape.node(d.0);
        let grads = node.op.backward(&node.value, &node.value, &[tape.value(leaf)], &[true]);
        assert!(grads[0].is_none(), "a constant's dropout forms no gradient");
    }

    mod dropout_routes {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        use super::*;

        /// The scaling loop over every element that a constant without a
        /// sparse view still takes, kept as the oracle for the route
        /// through the view.
        fn dropout_loop(x: &Matrix, p: f32, rng: &mut StdRng) -> Matrix {
            let scale = 1.0 / (1.0 - p);
            let mut out = x.clone();
            for o in out.data_mut() {
                *o *= if rng.gen::<f32>() < p { 0.0 } else { scale };
            }
            out
        }

        fn bits(xs: &[f32]) -> Vec<u32> {
            xs.iter().map(|v| v.to_bits()).collect()
        }

        /// A `rows x cols` matrix with `nnz` nonzeros at random positions
        /// outside every fifth row. `specials` go to the first positions
        /// drawn; `last` puts a nonzero in the last element.
        fn operand(
            (rows, cols): (usize, usize),
            nnz: usize,
            specials: &[f32],
            last: bool,
            seed: u64,
        ) -> Matrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut at: Vec<usize> = (0..rows * cols).filter(|i| (i / cols) % 5 != 1).collect();
            at.shuffle(&mut rng);
            at.truncate(nnz);
            if last {
                at.retain(|&i| i != rows * cols - 1);
                at.insert(0, rows * cols - 1);
                at.truncate(nnz);
            }
            let mut x = Matrix::zeros(rows, cols);
            for (k, &i) in at.iter().enumerate() {
                let v = rng.gen_range(0.25f32..2.0);
                x.data_mut()[i] =
                    specials.get(k).copied().unwrap_or(if k % 2 == 0 { v } else { -v });
            }
            x
        }

        /// Dropout of `x` as a shared input and as a constant, against the
        /// loop: the value's bits, the view (equal to `SparseView::of` of
        /// the value, and set at record time exactly when `direct`) and
        /// the next draw of the tape's stream.
        fn check(x: &Matrix, p: f32, direct: bool, what: &str) {
            for shared in [false, true] {
                let at = format!("{what}, p {p}, shared {shared}");
                let mut tape = Tape::new(11);
                let leaf =
                    if shared { tape.input(Arc::new(x.clone())) } else { tape.constant(x.clone()) };
                let d = tape.dropout(leaf, p);
                assert_eq!(tape.node(d.0).view.get().is_some(), direct, "{at}: route");
                let mut rng = StdRng::seed_from_u64(11);
                let want = dropout_loop(x, p, &mut rng);
                assert_eq!(bits(tape.value(d).data()), bits(want.data()), "{at}: value");
                let view = tape.sparse_view(d);
                let fresh = SparseView::of(tape.value(d));
                match (view, fresh) {
                    (Some(v), Some(f)) => {
                        assert_eq!(v.csr.indptr(), f.csr.indptr(), "{at}: indptr");
                        assert_eq!(v.csr.indices(), f.csr.indices(), "{at}: indices");
                        assert_eq!(bits(v.csr.values()), bits(f.csr.values()), "{at}: values");
                    }
                    (None, None) => {}
                    (v, f) => panic!("{at}: view {} vs {}", v.is_some(), f.is_some()),
                }
                assert_eq!(tape.rng().gen::<u64>(), rng.gen::<u64>(), "{at}: stream");
            }
        }

        #[test]
        fn the_view_route_is_the_scaling_loop() {
            let shape = (37, 45);
            let len = 37 * 45;
            for p in [0.1, 0.5, 0.9] {
                for (seed, nnz, direct, what) in [
                    (1, 0, true, "all zeros"),
                    (2, len / 100, true, "1%"),
                    (3, len / 8, true, "one in eight"),
                    (4, len / 8 + 1, false, "just over the bar"),
                ] {
                    check(&operand(shape, nnz, &[], false, seed), p, direct, what);
                    check(&operand(shape, nnz, &[], true, seed), p, direct, what);
                }
                let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN];
                check(&operand(shape, 40, &specials, true, 5), p, true, "NaN and inf");
                let mut signed = operand(shape, 40, &[], false, 6);
                let zero = signed.data().iter().position(|&v| v == 0.0).expect("a zero");
                signed.data_mut()[zero] = -0.0;
                check(&signed, p, false, "a -0.0");
                check(&operand((1, 8), 1, &[], true, 7), p, true, "one row");
                check(&operand((3, 0), 0, &[], false, 8), p, true, "no columns");
            }
        }

        /// The route leaves the stream where the loop does, so the mask of
        /// a later dropout, of a parameter, is the one the loop's stream
        /// draws.
        #[test]
        fn a_later_mask_is_unchanged() {
            let x = operand((20, 33), 30, &[], true, 9);
            let y = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32 - 17.0);
            let mut store = VarStore::new();
            let py = store.add("y", y.clone());
            let mut tape = Tape::new(4);
            let leaf = tape.input(Arc::new(x.clone()));
            let dx = tape.dropout(leaf, 0.3);
            assert!(tape.node(dx.0).view.get().is_some(), "the view route was taken");
            let ty = tape.param(&store, py);
            let dy = tape.dropout(ty, 0.3);
            let mut rng = StdRng::seed_from_u64(4);
            let _ = dropout_loop(&x, 0.3, &mut rng);
            let want = dropout_loop(&y, 0.3, &mut rng);
            assert_eq!(bits(tape.value(dy).data()), bits(want.data()));
        }
    }
}
