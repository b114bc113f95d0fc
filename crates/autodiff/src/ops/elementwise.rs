//! Elementwise tape ops: arithmetic, activations, dropout.

use std::sync::Arc;

use rand::Rng;

use crate::audit::{require_eq, Arity};
use crate::matrix::Matrix;
use crate::pool;
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
/// forward time.
struct DropoutOp {
    mask: Arc<Vec<f32>>,
}
impl Op for DropoutOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        _inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let mut g = pool::clone_of(grad);
        for (g, &m) in g.data_mut().iter_mut().zip(self.mask.iter()) {
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
        require_eq("dropout: saved mask entries", self.mask.len(), rows * cols)?;
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
    pub fn dropout(&mut self, a: Tensor, p: f32) -> Tensor {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0,1), got {p}");
        if p == 0.0 {
            return a;
        }
        let scale = 1.0 / (1.0 - p);
        let n = self.value(a).len();
        let mask: Vec<f32> = {
            let rng = self.rng();
            (0..n).map(|_| if rng.gen::<f32>() < p { 0.0 } else { scale }).collect()
        };
        let mut out = pool::clone_of(self.value(a));
        for (o, &m) in out.data_mut().iter_mut().zip(&mask) {
            *o *= m;
        }
        self.push_op(out, Box::new(DropoutOp { mask: Arc::new(mask) }), vec![a])
    }
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
}
