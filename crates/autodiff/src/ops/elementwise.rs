//! Elementwise tape ops: arithmetic, activations, dropout.

use std::sync::Arc;

use rand::Rng;

use crate::absint::{
    binary_elementwise, dilate, finite_arith, nan_free_addsub, nan_free_mul, require_compatible,
    AbsVal, Dim, Interval,
};
use crate::audit::Arity;
use crate::matrix::Matrix;
use crate::pool;
use crate::simd::ACTIVATION_REL_ERR;
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let (a, b) = (&inputs[0], &inputs[1]);
        let range = a.range.add(b.range);
        binary_elementwise("add", a, b, range, nan_free_addsub(a, b), finite_arith(range, &[a, b]))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let (a, b) = (&inputs[0], &inputs[1]);
        let range = a.range.sub(b.range);
        binary_elementwise("sub", a, b, range, nan_free_addsub(a, b), finite_arith(range, &[a, b]))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let (a, b) = (&inputs[0], &inputs[1]);
        let range = a.range.mul(b.range);
        binary_elementwise("mul", a, b, range, nan_free_mul(a, b), finite_arith(range, &[a, b]))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let a = &inputs[0];
        let range = a.range.scale(self.0);
        let (nan_free, inf_free) = if self.0 == 0.0 {
            // 0 * inf is NaN; the surviving entries are exactly zero.
            (a.nan_free && a.inf_free, true)
        } else {
            (
                a.nan_free && self.0.is_finite(),
                a.inf_free && self.0.is_finite() && range.is_finite(),
            )
        };
        Ok(a.with_range(range, nan_free, inf_free))
    }
}

/// `a + c`; the constant is kept so the abstract transfer can shift the
/// interval (backward never needs it).
struct AddScalarOp(f32);
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let a = &inputs[0];
        if self.0.is_nan() {
            return Ok(AbsVal::top(a.rows, a.cols));
        }
        let range = a.range.add(Interval::point(self.0));
        let nan_free = a.nan_free && (a.inf_free || self.0.is_finite());
        Ok(a.with_range(range, nan_free, a.inf_free && range.is_finite()))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let (a, s) = (&inputs[0], &inputs[1]);
        require_compatible("mul_scalar_tensor: scale rows", s.rows, Dim::Const(1))?;
        require_compatible("mul_scalar_tensor: scale cols", s.cols, Dim::Const(1))?;
        let range = a.range.mul(s.range);
        Ok(AbsVal {
            rows: a.rows,
            cols: a.cols,
            range,
            nan_free: nan_free_mul(a, s),
            inf_free: finite_arith(range, &[a, s]),
        })
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let a = &inputs[0];
        let range = Interval::new(a.range.lo.max(0.0), a.range.hi.max(0.0));
        Ok(a.with_range(range, a.nan_free, a.inf_free))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let a = &inputs[0];
        let slope = self.0;
        if slope.is_nan() || slope < 0.0 {
            // Negative or NaN slope: keep the shape, claim nothing.
            return Ok(AbsVal::top(a.rows, a.cols));
        }
        let pos = Interval::new(a.range.lo.max(0.0), a.range.hi.max(0.0));
        let neg = Interval::new(a.range.lo.min(0.0), a.range.hi.min(0.0)).scale(slope);
        let range = pos.join(neg);
        let nan_free = a.nan_free && (slope != 0.0 || a.inf_free);
        Ok(a.with_range(range, nan_free, a.inf_free))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let a = &inputs[0];
        let f = |x: f32| if x > 0.0 { x } else { x.exp() - 1.0 };
        // Monotone: the image of [lo, hi] is [f(lo), f(hi)], bounded below
        // by -1; only a +inf input keeps the output unbounded.
        let range = Interval::new(f(a.range.lo), f(a.range.hi));
        let inf_free = a.inf_free || a.range.hi <= 0.0;
        Ok(a.with_range(range, a.nan_free, inf_free))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let a = &inputs[0];
        // libm at the ends, widened by the vectorized kernel's error bound
        // (it is not monotone at ulp scale), then cut back to [-1, 1].
        let exact = Interval::new(a.range.lo.tanh(), a.range.hi.tanh());
        let range = dilate(exact, ACTIVATION_REL_ERR);
        let range = Interval::new(range.lo.max(-1.0), range.hi.min(1.0));
        Ok(a.with_range(range, a.nan_free, true))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let a = &inputs[0];
        let sig = |x: f32| 1.0 / (1.0 + (-x).exp());
        // As for tanh, plus an absolute MIN_POSITIVE where the outputs are
        // subnormal and the kernel's relative bound does not hold.
        let exact = Interval::new(sig(a.range.lo), sig(a.range.hi));
        let range = dilate(exact, ACTIVATION_REL_ERR);
        let range = Interval::new(
            (range.lo - f32::MIN_POSITIVE).max(0.0),
            (range.hi + f32::MIN_POSITIVE).min(1.0),
        );
        Ok(a.with_range(range, a.nan_free, true))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let a = &inputs[0];
        Ok(a.with_range(a.range.abs(), a.nan_free, a.inf_free))
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
    fn transfer(&self, inputs: &[AbsVal]) -> Result<AbsVal, String> {
        let a = &inputs[0];
        if let (Some(r), Some(c)) = (a.rows.known(), a.cols.known()) {
            if self.mask.len() != r * c {
                return Err(format!(
                    "saved mask has {} entries for a {r}x{c} input",
                    self.mask.len()
                ));
            }
        }
        let mask_hi = self.mask.iter().fold(0.0f32, |m, &v| m.max(v));
        let range = a.range.mul(Interval::new(0.0, mask_hi));
        // Dropping an infinite entry is 0 * inf = NaN.
        let nan_free = a.nan_free && a.inf_free;
        Ok(a.with_range(range, nan_free, a.inf_free && range.is_finite()))
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
        self.push_op(out, Box::new(AddScalarOp(c)), vec![a])
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
