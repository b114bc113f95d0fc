//! Pinned-order vectorized inner loops for the hot kernels.
//!
//! The kernels with a *reduction* ([`dot`]) or a *fused rounding* choice
//! ([`axpy`]) come in two flavours:
//!
//! * a **vectorized** path: `dot` uses eight fixed accumulator lanes fed
//!   with [`f32::mul_add`] and combined in a fixed binary tree (scalar tail
//!   folded in index order), so the reduction order is pinned by
//!   construction and identical for every call with the same slice length,
//!   regardless of thread count; `axpy` fuses the multiply-add to one
//!   rounding per element. Both are written as plain loops the compiler
//!   auto-vectorizes at full native width (the workspace builds with
//!   `target-cpu=x86-64-v3`, so `mul_add` lowers to hardware FMA).
//! * a **scalar reference** path that walks the slice once in index order
//!   with plain `mul`/`add` (two roundings), kept for gradcheck, Miri, and
//!   as the semantic ground truth the vectorized path is tested against.
//!
//! The dense GEMM kernels behind [`crate::Matrix`] keep these orders without
//! calling `dot` or `axpy` per element: their register tiles apply, to
//! every output element, exactly the `mul_add`s `axpy` would, in the same
//! order (and, for `A·Bᵀ`, `dot`'s eight lanes and tree). The
//! `matrix::tests` bitwise tests pin that, element for element and in
//! each flavour, signed zeros, subnormals, infinities and NaN included.
//!
//! The two flavours are *not* bitwise equal to each other: `mul_add` rounds
//! once where `a * b + c` rounds twice, and the 8-lane tree sums partial
//! products in a different order than a left fold. That drift is deliberate
//! and bounded (`simd_kernels_stay_within_tolerance_of_scalar_reference` in
//! `tests/grad_props.rs`); the determinism contract only requires that each flavour is bitwise
//! reproducible across thread counts, which both are because the dispatch
//! never depends on partition geometry.
//!
//! The transcendental kernels ([`Flavour::exp`], [`Flavour::tanh`],
//! [`Flavour::sigmoid`]) split the same way: a branch-free polynomial or
//! rational approximation the compiler vectorizes, against libm per
//! element. Each is a pure function of its element, so both flavours are
//! bitwise reproducible at any thread count.
//!
//! [`add_assign`] and [`scale`] have no flavour split at all: they are
//! per-element ops with exactly one rounding and no order freedom, so the
//! reference and the vectorized code are the same loop.
//!
//! Dispatch: the vectorized flavour is the default. Setting
//! `SANE_FORCE_SCALAR` to anything but `0`/empty at process start forces the
//! scalar references globally; [`with_scalar`] forces them for the current
//! thread inside a closure (used by tests and the lane-drift probe so both
//! flavours can run in one process). Hot kernels snapshot [`flavour()`]
//! *once* per kernel call and reuse the copy in their inner loops — the
//! thread-local read is cheap but not free at tens of thousands of calls
//! per step.

use std::cell::Cell;
use std::sync::OnceLock;

/// Accumulator lanes of the vectorized [`dot`]; the `A·Bᵀ` GEMM tile
/// splits its terms the same way.
pub(crate) const LANES: usize = 8;

fn env_force_scalar() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("SANE_FORCE_SCALAR").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

thread_local! {
    static SCALAR_OVERRIDE: Cell<bool> = const { Cell::new(false) };
}

/// True when the scalar reference paths are active on this thread, either via
/// the `SANE_FORCE_SCALAR` environment variable or a [`with_scalar`] scope.
pub fn scalar_forced() -> bool {
    SCALAR_OVERRIDE.with(|c| c.get()) || env_force_scalar()
}

/// The active kernel flavour, as a copyable token.
///
/// Kernels call [`flavour()`] once, outside their loops, and use the token's
/// inherent [`dot`](Flavour::dot) / [`axpy`](Flavour::axpy) in the hot path:
/// the mode check then costs one well-predicted branch per call instead of a
/// thread-local read. Capturing the token in a parallel kernel's worker
/// closure also pins the whole kernel to one flavour by construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flavour {
    /// Pinned-lane `mul_add` kernels (the default).
    Vector,
    /// Index-order scalar reference kernels.
    Reference,
}

/// Snapshot of the current thread's flavour (see [`scalar_forced`]).
pub fn flavour() -> Flavour {
    if scalar_forced() {
        Flavour::Reference
    } else {
        Flavour::Vector
    }
}

impl Flavour {
    /// Dot product in this flavour (see [`dot`]).
    #[inline]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Flavour::Vector => dot8(a, b),
            Flavour::Reference => dot_scalar(a, b),
        }
    }

    /// `out[j] += a * x[j]` in this flavour (see [`axpy`]).
    #[inline]
    pub fn axpy(self, a: f32, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), out.len());
        match self {
            Flavour::Vector => axpy_vec(a, x, out),
            Flavour::Reference => axpy_scalar(a, x, out),
        }
    }

    /// `out[k] = dot(rows(k), y)` for `out.len()` rows against one shared
    /// `y`, each exactly this flavour's [`Flavour::dot`]. The vector flavour
    /// runs eight rows at a time: their lane accumulators advance together,
    /// so the eight dependent FMA chains overlap, and `y`'s chunk is loaded
    /// once for all eight.
    #[inline]
    pub(crate) fn dots<'a>(self, rows: impl Fn(usize) -> &'a [f32], y: &[f32], out: &mut [f32]) {
        match self {
            Flavour::Vector => dots8(rows, y, out),
            Flavour::Reference => {
                for (k, o) in out.iter_mut().enumerate() {
                    *o = dot_scalar(rows(k), y);
                }
            }
        }
    }

    /// Fused `(dot(x, y), out[j] = a * y[j])` in one pass — the attention
    /// backward's per-edge pattern (gradient dot plus the weighted message
    /// gradient, both over the same upstream row `y`).
    ///
    /// The reduction uses exactly the same pinned order as [`Flavour::dot`]
    /// in each flavour, and the scale write is the same single-rounding
    /// multiply as [`scale`], so fusing changes no results — it only
    /// removes the second sweep over `y` and one call's loop overhead.
    #[inline]
    pub fn dot_scale(self, x: &[f32], y: &[f32], a: f32, out: &mut [f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        debug_assert_eq!(x.len(), out.len());
        match self {
            Flavour::Vector => dot_scale_vec(x, y, a, out),
            Flavour::Reference => {
                let mut acc = 0.0f32;
                for ((&xv, &yv), o) in x.iter().zip(y).zip(out.iter_mut()) {
                    acc += xv * yv;
                    *o = a * yv;
                }
                acc
            }
        }
    }

    /// `x[j] = e^{x[j]}` in place, for softmax-style kernels.
    ///
    /// The vectorized flavour is a branch-free `2^n · p(f)` split (degree-6
    /// polynomial on the reduced fraction, exponent applied through the
    /// bit pattern) that the compiler turns into straight vector code —
    /// relative error is under `1e-6` of [`f32::exp`], which the flavour
    /// drift contract already covers. Inputs are clamped to `[-87, 88]`:
    /// below that `e^x` underflows to zero anyway, above it the result
    /// saturates near `f32::MAX` instead of producing infinity, which is
    /// the behaviour the max-shifted softmax callers (`x ≤ 0`) never see.
    /// The reference flavour calls [`f32::exp`] per element.
    #[inline]
    pub fn exp(self, xs: &mut [f32]) {
        match self {
            Flavour::Vector => exp_vec(xs),
            Flavour::Reference => {
                for v in xs {
                    *v = v.exp();
                }
            }
        }
    }

    /// `x[j] = tanh(x[j])` in place.
    ///
    /// The vectorized flavour is a branch-free odd rational `x·p(x²)/q(x²)`
    /// (Eigen's minimax coefficients) on the input clamped to about ±8,
    /// where it reaches exactly ±1, and the identity for `|x| < 4e-4`,
    /// where `x` is already the correctly rounded answer. Over every `f32`
    /// in `[-12, 12]` it is within 6 ulp and 3.5e-7 relative of `tanh`
    /// ([`ACTIVATION_REL_ERR`] bounds it with margin). It is exactly odd,
    /// keeps the sign of ±0, maps ±inf to ±1 and propagates NaN. The
    /// reference flavour calls [`f32::tanh`] per element.
    #[inline]
    pub fn tanh(self, xs: &mut [f32]) {
        match self {
            Flavour::Vector => {
                for v in xs {
                    *v = tanh_lane(*v);
                }
            }
            Flavour::Reference => {
                for v in xs {
                    *v = v.tanh();
                }
            }
        }
    }

    /// `x[j] = 1 / (1 + e^{-x[j]})` in place.
    ///
    /// The vectorized flavour runs the same polynomial `exp` as
    /// [`Flavour::exp`], so it is within 4.2e-7 relative of the exact
    /// sigmoid wherever the result is a normal float (every `f32` checked).
    /// Below `-88`, where that `exp` saturates, the result flushes to `0`:
    /// the exact value is subnormal there. `+inf` maps to 1, `-inf` to 0,
    /// NaN propagates. The reference flavour evaluates the same formula
    /// with [`f32::exp`].
    #[inline]
    pub fn sigmoid(self, xs: &mut [f32]) {
        match self {
            Flavour::Vector => {
                for v in xs {
                    let s = 1.0 / (1.0 + exp_lane(-*v));
                    *v = if *v < -88.0 { 0.0 } else { s };
                }
            }
            Flavour::Reference => {
                for v in xs {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
        }
    }

    /// `acc + a·b` with this flavour's rounding: one `mul_add` in the
    /// vectorized flavour, `mul` then `add` in the reference flavour.
    ///
    /// This is one element of [`Flavour::axpy`] (`out[j] = madd(a, x[j],
    /// out[j])`), and `dot` of two length-1 slices is `madd(a, b, 0.0)`, so
    /// fused kernels that fold a reduction by hand stay bitwise equal to
    /// the GEMM calls they replace.
    #[inline]
    pub(crate) fn madd(self, a: f32, b: f32, acc: f32) -> f32 {
        match self {
            Flavour::Vector => a.mul_add(b, acc),
            Flavour::Reference => acc + a * b,
        }
    }
}

/// Relative error bound of the vectorized [`Flavour::tanh`] and
/// [`Flavour::sigmoid`] against the exact functions, with margin over the
/// measured 3.5e-7 and 4.2e-7. Below the smallest normal float only an
/// absolute bound holds: `sigmoid`'s output there is off by less than
/// [`f32::MIN_POSITIVE`].
pub const ACTIVATION_REL_ERR: f32 = 1e-6;

/// ULP distance between two floats: bit patterns mapped onto a single
/// monotone integer line (negatives mirrored below zero, `-0.0` and
/// `+0.0` coincide). NaN anywhere is infinitely far.
pub fn ulp_diff(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    let key = |x: f32| -> i64 {
        let i = i64::from(x.to_bits() as i32); // lint:allow(lossy-cast) -- bit-pattern reinterpretation, not a value cast
        if i < 0 {
            i64::from(i32::MIN) - i
        } else {
            i
        }
    };
    key(a).abs_diff(key(b))
}

/// Dot product with pinned reduction order.
///
/// Vectorized flavour: 8 fixed accumulator lanes (`acc[l]` sees elements
/// `l, l+8, l+16, ...` via `mul_add`), combined in the fixed tree
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then the tail (`len % 8`
/// elements) folded in index order with `mul_add`.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    flavour().dot(a, b)
}

/// `out[j] += a * x[j]` — one rounding per element (`mul_add`) in the
/// vectorized flavour, two (`mul` then `add`) in the reference flavour.
pub fn axpy(a: f32, x: &[f32], out: &mut [f32]) {
    flavour().axpy(a, x, out)
}

/// `out[j] += x[j]`, the accumulation step of the segment-sum kernels.
///
/// No flavour split: one add per element in index order is the only
/// possible evaluation, so reference and vectorized code coincide.
pub fn add_assign(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o += v;
    }
}

/// `out[j] = a * x[j]` (overwrite, not accumulate).
///
/// No flavour split: one multiply per element, no order freedom.
pub fn scale(a: f32, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o = a * v;
    }
}

/// Magnitude below which a per-edge factor's products go through
/// [`Exact`]: `2^-60`, a little above the middle of f32's normal exponent
/// range. A product `a·x` with `|a| ≥ 2^-60` can fall below the normal
/// range (`2^-126`) only if `|x| < 2^-66`, which no feature or gradient
/// the edge kernels scale comes near; a product with a smaller `|a|` may
/// be subnormal, and on Intel cores an f32 multiply with a subnormal
/// operand or result takes a microcode assist costing tens of normal
/// multiplies (DESIGN §13).
const TINY: f32 = f32::from_bits((127 - 60) << 23);

/// `2^-149`, the weight of the last mantissa bit of an f32 subnormal.
const SUBNORMAL_ULP: f64 = f64::from_bits((1023 - 149) << 52);

/// True when `0 < |a| < 2^-60` (see [`TINY`]); false for zeros and NaN.
#[inline]
pub(crate) fn is_tiny(a: f32) -> bool {
    (1..TINY.to_bits()).contains(&(a.to_bits() & 0x7fff_ffff))
}

/// An f32 factor widened exactly to f64, whose products with other f32
/// values run on the f64 unit and come back bit for bit as f32 products.
///
/// An f32 carries 24 significant bits, so the f64 product of two of them
/// (48 bits, exponent between `2^-298` and `2^256`) is exact, and its one
/// narrowing is the same single rounding the f32 multiply makes: the bits
/// equal `a * b` for every pair, signed zeros, subnormal results, overflow
/// to infinity and `0 · inf` included, NaN for NaN. Neither the f64
/// multiply nor the narrowing takes the subnormal assist.
#[derive(Clone, Copy)]
pub(crate) struct Exact(f64);

impl Exact {
    /// `a`, widened exactly.
    #[inline]
    pub(crate) fn new(a: f32) -> Self {
        // Opaque to the optimiser: LLVM folds `fptrunc(fmul(fpext a, fpext
        // b))` back into the f32 multiply it equals, assist included.
        Exact(std::hint::black_box(widen(a)))
    }

    /// `Some` exactly when [`is_tiny`]`(a)`: the per-edge test that routes
    /// a saturated softmax weight's products here.
    #[inline]
    pub(crate) fn tiny(a: f32) -> Option<Self> {
        is_tiny(a).then(|| Exact::new(a))
    }

    /// `a * b`, bitwise.
    #[inline]
    pub(crate) fn mul(self, b: f32) -> f32 {
        (self.0 * f64::from(b)) as f32 // lint:allow(lossy-cast) -- the exact f64 product, rounded once, is the f32 product
    }

    /// `out[j] = a * x[j]`, bitwise [`scale`].
    #[inline]
    pub(crate) fn scale(self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), out.len());
        for (o, &v) in out.iter_mut().zip(x) {
            *o = self.mul(v);
        }
    }
}

/// `a * b` for a per-edge factor `a`, through [`Exact`] when `a` is tiny.
#[inline]
pub(crate) fn edge_mul(a: f32, b: f32) -> f32 {
    match Exact::tiny(a) {
        Some(w) => w.mul(b),
        None => a * b,
    }
}

/// `out[j] += a * x[j]` for a per-edge factor `a`, the product rounded
/// before the add (the plain two-rounding scatter, not [`axpy`]'s fused
/// rounding), through [`Exact`] when `a` is tiny. The by-target folds call
/// it on a block of register accumulators, hence `inline(always)`.
#[inline(always)]
pub(crate) fn edge_add_scaled(a: f32, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    match Exact::tiny(a) {
        Some(w) => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o += w.mul(v);
            }
        }
        None => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o += a * v;
            }
        }
    }
}

/// `a` as an f64, exactly. A subnormal is rebuilt from its bits as
/// `mantissa · 2^-149`, so no floating-point instruction on the exact path
/// ever reads a subnormal operand.
#[inline]
fn widen(a: f32) -> f64 {
    let bits = a.to_bits();
    if bits & 0x7f80_0000 != 0 {
        return f64::from(a);
    }
    let magnitude = f64::from(bits & 0x007f_ffff) * SUBNORMAL_ULP;
    if a.is_sign_negative() {
        -magnitude
    } else {
        magnitude
    }
}

/// Run `f` with the scalar reference paths forced on the current thread.
///
/// The override is thread-local so concurrent callers (test threads) stay
/// independent, but it does follow the work into parallel kernels: the
/// dispatcher in [`crate::parallel`] snapshots the calling thread's mode
/// and re-applies it on every scoped worker, so a `with_scalar` scope
/// covers the whole kernel at any thread count.
pub fn with_scalar<R>(f: impl FnOnce() -> R) -> R {
    with_mode(true, f)
}

/// Runs `f` with the thread-local override set to `scalar`. The parallel
/// dispatcher uses this to hand the calling thread's mode to its scoped
/// workers, so a [`with_scalar`] scope covers the whole kernel even when
/// the work is split across threads.
pub(crate) fn with_mode<R>(scalar: bool, f: impl FnOnce() -> R) -> R {
    SCALAR_OVERRIDE.with(|c| {
        let prev = c.replace(scalar);
        let out = f();
        c.set(prev);
        out
    })
}

/// Scalar reference: left fold in index order, two roundings per element.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Scalar reference for [`axpy`]: `mul` then `add`, two roundings.
pub fn axpy_scalar(a: f32, x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o += a * v;
    }
}

fn dot8(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        // The lane index is the constant here: lane `l` only ever sees
        // elements congruent to `l` mod 8, so the per-lane reduction order is
        // fixed no matter how the caller partitioned the surrounding work.
        for l in 0..LANES {
            acc[l] = xs[l].mul_add(ys[l], acc[l]);
        }
    }
    let mut tree =
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tree = x.mul_add(y, tree);
    }
    tree
}

/// [`dot8`] of each row against `y`, eight rows per block: each row's
/// lanes, tree and tail are exactly `dot8`'s.
fn dots8<'a>(rows: impl Fn(usize) -> &'a [f32], y: &[f32], out: &mut [f32]) {
    let full = y.len() - y.len() % LANES;
    let done = out.len() - out.len() % LANES;
    let mut blocks = out.chunks_exact_mut(LANES);
    for (b, o) in (&mut blocks).enumerate() {
        let xs: [&[f32]; LANES] = std::array::from_fn(|r| &rows(b * LANES + r)[..y.len()]);
        let mut acc = [[0.0f32; LANES]; LANES];
        for q in (0..full).step_by(LANES) {
            let yq = &y[q..q + LANES];
            for (a, x) in acc.iter_mut().zip(&xs) {
                for ((al, &xl), &yl) in a.iter_mut().zip(&x[q..q + LANES]).zip(yq) {
                    *al = xl.mul_add(yl, *al);
                }
            }
        }
        for ((o, a), x) in o.iter_mut().zip(&acc).zip(&xs) {
            let mut tree = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
            for (&xv, &yv) in x[full..].iter().zip(&y[full..]) {
                tree = xv.mul_add(yv, tree);
            }
            *o = tree;
        }
    }
    for (k, o) in blocks.into_remainder().iter_mut().enumerate() {
        *o = dot8(rows(done + k), y);
    }
}

fn axpy_vec(a: f32, x: &[f32], out: &mut [f32]) {
    // Elementwise with no order freedom beyond the rounding choice: a plain
    // zip the compiler turns into full-width FMA.
    for (o, &v) in out.iter_mut().zip(x) {
        *o = a.mul_add(v, *o);
    }
}

fn dot_scale_vec(x: &[f32], y: &[f32], a: f32, out: &mut [f32]) -> f32 {
    // Same 8-lane pinned-tree reduction as `dot8`, with the independent
    // `a * y` write folded into the same pass over `y`.
    let mut acc = [0.0f32; LANES];
    let mut cx = x.chunks_exact(LANES);
    let mut cy = y.chunks_exact(LANES);
    let mut co = out.chunks_exact_mut(LANES);
    for ((xs, ys), os) in (&mut cx).zip(&mut cy).zip(&mut co) {
        for l in 0..LANES {
            acc[l] = xs[l].mul_add(ys[l], acc[l]);
            os[l] = a * ys[l];
        }
    }
    let mut tree =
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for ((&xv, &yv), o) in cx.remainder().iter().zip(cy.remainder()).zip(co.into_remainder()) {
        tree = xv.mul_add(yv, tree);
        *o = a * yv;
    }
    tree
}

fn exp_vec(xs: &mut [f32]) {
    for v in xs {
        *v = exp_lane(*v);
    }
}

#[inline(always)]
fn exp_lane(v: f32) -> f32 {
    use std::f32::consts::{LN_2, LOG2_E};
    // e^x = 2^n · e^f with n = round(x·log2 e), f = x − n·ln 2, so f is
    // in [−ln2/2, ln2/2] where the degree-6 Taylor series is accurate
    // to ~2e-7 relative. Every step is a pure per-element function of
    // the input, so the result is bitwise reproducible anywhere.
    let x = v.clamp(-87.0, 88.0);
    let n = (x * LOG2_E).round();
    let f = (-n).mul_add(LN_2, x);
    let p = f.mul_add(
        f.mul_add(
            f.mul_add(
                f.mul_add(f.mul_add(f.mul_add(1.0 / 720.0, 1.0 / 120.0), 1.0 / 24.0), 1.0 / 6.0),
                0.5,
            ),
            1.0,
        ),
        1.0,
    );
    // 2^n through the exponent bits: n is an integer in [−126, 127]
    // after the clamp, so the biased exponent n + 127 is in [1, 254].
    // Adding it to 2^23, where the float spacing is 1, leaves it exactly
    // in the low mantissa bits: a float-only path that vectorizes, where a
    // saturating `as i32` cast does not. A NaN `n` gives some exponent,
    // and `p` is NaN then, so the product is that same NaN either way.
    let biased = (n + (127.0 + 8_388_608.0)).to_bits() & 0xff;
    p * f32::from_bits(biased << 23)
}

#[inline(always)]
fn tanh_lane(a: f32) -> f32 {
    // Clamped where the FMA-evaluated rational is exactly 1 (Eigen's clamp
    // for FMA targets); the clamp keeps NaN, and ±inf lands on ±1.
    const CLAMP: f32 = 7.998_811_7;
    let x = a.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let mut p = x2.mul_add(-2.760_768_6e-16, 2.000_188e-13);
    p = x2.mul_add(p, -8.604_672e-11);
    p = x2.mul_add(p, 5.122_297e-8);
    p = x2.mul_add(p, 1.485_722_4e-5);
    p = x2.mul_add(p, 6.372_619_5e-4);
    p = x2.mul_add(p, 4.893_524_6e-3);
    p *= x;
    let mut q = x2.mul_add(1.198_258_4e-6, 1.185_347_1e-4);
    q = x2.mul_add(q, 2.268_434_5e-3);
    q = x2.mul_add(q, 4.893_525e-3);
    // Both polynomials see x only through x² and the final `* x`, so the
    // result is exactly odd; the select compiles to a blend.
    if a.abs() < 4e-4 {
        a
    } else {
        p / q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, salt: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.37 + salt).sin()) // lint:allow(lossy-cast) -- small integer grid, exact in f32
            .collect()
    }

    #[test]
    fn dot8_matches_scalar_within_eps() {
        for n in [0, 1, 7, 8, 9, 16, 31, 200] {
            let a = seq(n, 0.1);
            let b = seq(n, 1.9);
            let v = dot8(&a, &b);
            let s = dot_scalar(&a, &b);
            let scale = 1.0f32.max(s.abs());
            assert!((v - s).abs() <= 1e-4 * scale, "n={n}: vectorized {v} vs scalar {s}");
        }
    }

    #[test]
    fn dot8_is_bitwise_stable_across_calls() {
        let a = seq(123, 0.3);
        let b = seq(123, 2.7);
        let first = dot8(&a, &b);
        for _ in 0..8 {
            assert_eq!(first.to_bits(), dot8(&a, &b).to_bits());
        }
    }

    #[test]
    fn axpy_flavours_match_within_eps() {
        for n in [0, 3, 8, 17, 64] {
            let x = seq(n, 0.5);
            let mut v = seq(n, 4.2);
            let mut s = v.clone();
            axpy_vec(0.75, &x, &mut v);
            axpy_scalar(0.75, &x, &mut s);
            for (a, b) in v.iter().zip(&s) {
                assert!((a - b).abs() <= 1e-6, "axpy n={n}");
            }
        }
    }

    #[test]
    fn dot_scale_is_bitwise_identical_to_dot_plus_scale() {
        for fl in [Flavour::Vector, Flavour::Reference] {
            for n in [0, 1, 7, 8, 9, 31, 64] {
                let x = seq(n, 0.4);
                let y = seq(n, 3.1);
                let mut fused_out = vec![0.0f32; n];
                let fused_dot = fl.dot_scale(&x, &y, -0.6, &mut fused_out);
                let mut plain_out = vec![0.0f32; n];
                scale(-0.6, &y, &mut plain_out);
                assert_eq!(fused_dot.to_bits(), fl.dot(&x, &y).to_bits(), "{fl:?} n={n}");
                for (a, b) in fused_out.iter().zip(&plain_out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{fl:?} n={n}");
                }
            }
        }
    }

    /// Eight-row blocks and the leftover rows, at lengths that leave every
    /// tail, with `±0`, NaN and `±inf` in the rows.
    #[test]
    fn dots_are_each_rows_dot() {
        for n in [0, 1, 7, 8, 9, 17, 24] {
            for len in [0, 1, 7, 8, 9, 32, 33, 40] {
                let rows: Vec<Vec<f32>> = (0..n)
                    .map(|r| {
                        let mut row = seq(len, r as f32 * 0.7);
                        if let Some(v) = row.get_mut(r % 5) {
                            *v = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY][r % 5];
                        }
                        row
                    })
                    .collect();
                let y = seq(len, 4.1);
                for fl in [Flavour::Vector, Flavour::Reference] {
                    let mut out = vec![f32::NAN; n];
                    fl.dots(|k| &rows[k], &y, &mut out);
                    for (k, &o) in out.iter().enumerate() {
                        let want = fl.dot(&rows[k], &y);
                        let same = o.to_bits() == want.to_bits() || (o.is_nan() && want.is_nan());
                        assert!(same, "{fl:?} n={n} len={len} row {k}: {o:e} vs {want:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn add_and_scale_have_no_flavour_drift() {
        let x = seq(33, 0.8);
        let mut a = seq(33, 2.2);
        let mut b = a.clone();
        add_assign(&x, &mut a);
        with_scalar(|| add_assign(&x, &mut b));
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.to_bits(), q.to_bits(), "add_assign is flavour-free");
        }
        scale(-1.25, &x, &mut a);
        with_scalar(|| scale(-1.25, &x, &mut b));
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.to_bits(), q.to_bits(), "scale is flavour-free");
        }
    }

    #[test]
    fn exp_vec_matches_libm_within_rel_eps() {
        let mut xs: Vec<f32> = (-400..=80).map(|i| i as f32 * 0.217).collect(); // lint:allow(lossy-cast) -- small integer grid, exact in f32
        xs.extend([0.0, -0.0, f32::MIN_POSITIVE, -87.0, 1e-20]);
        let expect: Vec<f32> = xs.iter().map(|&x| x.exp()).collect();
        exp_vec(&mut xs);
        for (&got, &want) in xs.iter().zip(&expect) {
            let tol = 1e-6 * want.max(f32::MIN_POSITIVE);
            assert!((got - want).abs() <= tol, "exp_vec {got} vs libm {want}");
        }
        // Below the clamp the result saturates at e^-87 ~ 1.6e-38 — an
        // effective zero for the max-shifted softmax weights that feed it.
        let mut under = [-100.0f32, -2000.0];
        exp_vec(&mut under);
        for v in under {
            assert!(v.is_finite() && (0.0..=1.7e-38).contains(&v), "underflow region: {v}");
        }
    }

    #[test]
    fn exp_vec_is_bitwise_stable_across_calls() {
        let base: Vec<f32> = (0..97).map(|i| (i as f32 * 0.13).sin() * 40.0 - 30.0).collect(); // lint:allow(lossy-cast) -- small integer grid, exact in f32
        let mut first = base.clone();
        exp_vec(&mut first);
        for _ in 0..4 {
            let mut again = base.clone();
            exp_vec(&mut again);
            for (a, b) in first.iter().zip(&again) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Every 1/4096 step over [-12, 12] plus the small-magnitude band, and
    /// the off-grid points where the error peaks: the rational tanh's near
    /// ±2.85, 4.91 and 5.98, sigmoid's far left (where its outputs are
    /// still normal floats), and the edge and inside of tanh's identity
    /// band.
    fn activation_grid() -> Vec<f32> {
        let mut xs: Vec<f32> = (-49_152..=49_152).map(|i| i as f32 / 4096.0).collect(); // lint:allow(lossy-cast) -- small integer grid, exact in f32
        xs.extend((1..=400).flat_map(|i| {
            let x = i as f32 * 2.5e-6; // lint:allow(lossy-cast) -- small integer grid
            [x, -x]
        }));
        xs.extend([2.85, -2.85, 4.909_769_5, 5.981_79, -86.295_62, 0.0004, 1e-30]);
        xs
    }

    fn apply(fl: Flavour, f: fn(Flavour, &mut [f32]), xs: &[f32]) -> Vec<f32> {
        let mut out = xs.to_vec();
        f(fl, &mut out);
        out
    }

    #[test]
    fn tanh_vec_is_within_bound_of_f64() {
        let xs = activation_grid();
        let got = apply(Flavour::Vector, Flavour::tanh, &xs);
        for (&x, &t) in xs.iter().zip(&got) {
            let want = f64::from(x).tanh();
            let rel = if want == 0.0 {
                f64::from(t).abs()
            } else {
                (f64::from(t) - want).abs() / want.abs()
            };
            assert!(ulp_diff(t, want as f32) <= 6, "tanh({x}) = {t}, f64 says {want}"); // lint:allow(lossy-cast) -- rounding the f64 reference to f32 is the point
            assert!(
                rel <= 3.5e-7 && rel <= f64::from(ACTIVATION_REL_ERR),
                "tanh({x}): rel {rel:e}"
            );
            assert!(t.abs() <= 1.0);
        }
    }

    #[test]
    fn sigmoid_vec_is_within_bound_of_f64() {
        let xs = activation_grid();
        let got = apply(Flavour::Vector, Flavour::sigmoid, &xs);
        for (&x, &s) in xs.iter().zip(&got) {
            let want = 1.0 / (1.0 + (-f64::from(x)).exp());
            let rel = (f64::from(s) - want).abs() / want;
            assert!(
                rel <= 4.2e-7 && rel <= f64::from(ACTIVATION_REL_ERR),
                "sigmoid({x}): rel {rel:e}"
            );
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn tanh_and_sigmoid_special_values() {
        let specials =
            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40, -1e-40, 1e-45];
        for fl in [Flavour::Vector, Flavour::Reference] {
            let t = apply(fl, Flavour::tanh, &specials);
            assert_eq!(t[0].to_bits(), 0.0f32.to_bits(), "{fl:?}: tanh(+0) is +0");
            assert_eq!(t[1].to_bits(), (-0.0f32).to_bits(), "{fl:?}: tanh(-0) is -0");
            assert_eq!((t[2], t[3]), (1.0, -1.0), "{fl:?}: tanh(±inf)");
            assert!(t[4].is_nan(), "{fl:?}: tanh(NaN)");
            // Subnormals: tanh(x) = x to the last bit.
            for (&x, &v) in specials[5..].iter().zip(&t[5..]) {
                assert_eq!(v.to_bits(), x.to_bits(), "{fl:?}: tanh({x:e})");
            }
            let s = apply(fl, Flavour::sigmoid, &specials);
            assert_eq!((s[0], s[1]), (0.5, 0.5), "{fl:?}: sigmoid(±0)");
            assert_eq!((s[2], s[3]), (1.0, 0.0), "{fl:?}: sigmoid(±inf)");
            assert!(s[4].is_nan(), "{fl:?}: sigmoid(NaN)");
            assert!(s[5..].iter().all(|&v| v == 0.5), "{fl:?}: sigmoid(subnormal)");
        }
        // Far below -88 both flavours are within MIN_POSITIVE of zero.
        let deep = apply(Flavour::Vector, Flavour::sigmoid, &[-88.5, -100.0, -1e30]);
        assert!(deep.iter().all(|&v| (0.0..f32::MIN_POSITIVE).contains(&v)), "{deep:?}");
    }

    /// `exp_lane` as it was before `2^n` was built from the float's bits:
    /// through a saturating `as i32` cast, which blocks vectorization.
    fn exp_lane_cast(v: f32) -> f32 {
        use std::f32::consts::{LN_2, LOG2_E};
        let x = v.clamp(-87.0, 88.0);
        let n = (x * LOG2_E).round();
        let f = (-n).mul_add(LN_2, x);
        let p = f.mul_add(
            f.mul_add(
                f.mul_add(
                    f.mul_add(
                        f.mul_add(f.mul_add(1.0 / 720.0, 1.0 / 120.0), 1.0 / 24.0),
                        1.0 / 6.0,
                    ),
                    0.5,
                ),
                1.0,
            ),
            1.0,
        );
        p * f32::from_bits((((n as i32) + 127) << 23) as u32) // lint:allow(lossy-cast) -- the formula under test
    }

    /// `exp` and `sigmoid` give the cast formula's bits on a strided sweep
    /// of every bit pattern, on `±0`, `±inf`, NaN, around the clamps at
    /// -87 and 88, and where `x·log2 e` is a `round` tie.
    #[test]
    fn exp_and_sigmoid_match_the_cast_formula_bitwise() {
        use std::f32::consts::LOG2_E;
        let mut xs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]);
        xs.extend([87.0, -87.0, 88.0, -88.0, 87.5, -87.5, 88.5, -88.5, 86.9, -88.1]);
        let mut ties = 0;
        for k in -126i16..=126 {
            let t = f32::from(k) + 0.5;
            let near = (t / LOG2_E).to_bits();
            for d in -8..=8 {
                let x = f32::from_bits(near.wrapping_add_signed(d));
                if x * LOG2_E == t {
                    xs.push(x);
                    ties += 1;
                }
            }
        }
        assert!(ties > 50, "only {ties} round ties found");
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits();
        for &x in &xs {
            assert!(same(exp_lane(x), exp_lane_cast(x)), "exp({x:e}) [{:#010x}]", x.to_bits());
        }
        let exp = apply(Flavour::Vector, Flavour::exp, &xs);
        let sigmoid = apply(Flavour::Vector, Flavour::sigmoid, &xs);
        for ((&x, &e), &s) in xs.iter().zip(&exp).zip(&sigmoid) {
            let want = if x < -88.0 { 0.0 } else { 1.0 / (1.0 + exp_lane_cast(-x)) };
            assert!(same(e, exp_lane_cast(x)), "exp({x:e}) [{:#010x}]", x.to_bits());
            assert!(same(s, want), "sigmoid({x:e}) [{:#010x}]", x.to_bits());
        }
    }

    #[test]
    fn tanh_vec_is_exactly_odd() {
        let xs = activation_grid();
        let pos = apply(Flavour::Vector, Flavour::tanh, &xs);
        let negated: Vec<f32> = xs.iter().map(|x| -x).collect();
        let neg = apply(Flavour::Vector, Flavour::tanh, &negated);
        for ((&x, &p), &n) in xs.iter().zip(&pos).zip(&neg) {
            assert_eq!(n.to_bits(), (-p).to_bits(), "tanh(-{x}) != -tanh({x})");
        }
    }

    #[test]
    fn activations_are_bitwise_stable_across_calls() {
        let base: Vec<f32> = (0..97).map(|i| (i as f32 * 0.13).sin() * 14.0 - 2.0).collect(); // lint:allow(lossy-cast) -- small integer grid, exact in f32
        for f in [Flavour::tanh as fn(Flavour, &mut [f32]), Flavour::sigmoid] {
            let first = apply(Flavour::Vector, f, &base);
            for _ in 0..4 {
                let again = apply(Flavour::Vector, f, &base);
                for (a, b) in first.iter().zip(&again) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            // A slice is not processed differently by position: the same
            // value anywhere in a longer slice gives the same bits.
            let shifted = apply(Flavour::Vector, f, &base[3..]);
            for (a, b) in first[3..].iter().zip(&shifted) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn reference_activations_are_libm() {
        let xs = activation_grid();
        let t = apply(Flavour::Reference, Flavour::tanh, &xs);
        let s = apply(Flavour::Reference, Flavour::sigmoid, &xs);
        for ((&x, &tv), &sv) in xs.iter().zip(&t).zip(&s) {
            assert_eq!(tv.to_bits(), x.tanh().to_bits());
            assert_eq!(sv.to_bits(), (1.0 / (1.0 + (-x).exp())).to_bits());
        }
    }

    #[test]
    fn madd_is_one_element_of_axpy_and_dot() {
        let xs = seq(64, 0.9);
        let ys = seq(64, 2.3);
        for fl in [Flavour::Vector, Flavour::Reference] {
            for (&a, &b) in xs.iter().zip(&ys) {
                let mut out = [0.37f32];
                fl.axpy(a, &[b], &mut out);
                assert_eq!(fl.madd(a, b, 0.37).to_bits(), out[0].to_bits(), "{fl:?} axpy");
                assert_eq!(
                    fl.madd(a, b, 0.0).to_bits(),
                    fl.dot(&[a], &[b]).to_bits(),
                    "{fl:?} dot"
                );
            }
        }
    }

    /// Operand classes for the exact product, both signs: zeros, subnormals
    /// (the smallest, odd mantissas whose halved products tie, the
    /// largest), the normal boundary, tiny normals whose products
    /// underflow, either side of [`TINY`], ordinary normals, values whose
    /// products overflow, infinities and NaN.
    fn product_operands() -> Vec<f32> {
        let below_tiny = f32::from_bits(TINY.to_bits() - 1);
        let magnitudes = [
            0.0,
            f32::from_bits(1),
            f32::from_bits(3),
            f32::from_bits(0x0012_3457),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            2.0 * f32::MIN_POSITIVE,
            1e-30,
            3.3e-25,
            below_tiny,
            TINY,
            1e-12,
            0.5,
            0.75,
            1.0,
            1.5,
            3.0,
            1e10,
            3.0e30,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        magnitudes.iter().flat_map(|&m| [m, -m]).collect()
    }

    fn same_bits(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    #[test]
    fn exact_product_is_bitwise_the_f32_product() {
        let ops = product_operands();
        // Plus pseudo-random pairs, half of them with `a` drawn from
        // below `TINY`, where the kernels call it.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 32) as u32
        };
        let mut pairs: Vec<(f32, f32)> =
            ops.iter().flat_map(|&a| ops.iter().map(move |&b| (a, b))).collect();
        for k in 0..20_000 {
            let a = next();
            let a = if k % 2 == 0 { (a % TINY.to_bits()) | (a & 0x8000_0000) } else { a };
            pairs.push((f32::from_bits(a), f32::from_bits(next())));
        }
        for scalar in [false, true] {
            with_mode(scalar, || {
                for &(a, b) in &pairs {
                    let want = std::hint::black_box(a) * std::hint::black_box(b);
                    let got = Exact::new(a).mul(b);
                    assert!(same_bits(got, want), "{a:e} * {b:e}: exact {got:e}, f32 {want:e}");
                    assert!(same_bits(edge_mul(a, b), want), "edge_mul({a:e}, {b:e})");
                    if let Some(w) = Exact::tiny(a) {
                        assert!(same_bits(w.mul(b), want), "tiny {a:e} * {b:e}");
                    }
                }
            });
        }
    }

    #[test]
    fn tiny_is_the_open_band_below_2_pow_minus_60() {
        let below = f32::from_bits(TINY.to_bits() - 1);
        assert_eq!(TINY, 2.0f32.powi(-60));
        for a in [f32::from_bits(1), f32::MIN_POSITIVE, 1e-30, below] {
            assert!(is_tiny(a) && is_tiny(-a), "{a:e}");
        }
        for a in [0.0, TINY, 1e-12, 1.0, f32::INFINITY, f32::NAN] {
            assert!(!is_tiny(a) && !is_tiny(-a) && Exact::tiny(a).is_none(), "{a:e}");
        }
    }

    #[test]
    fn edge_row_products_match_scale_and_the_plain_loop() {
        let x: Vec<f32> = seq(37, 0.6).iter().map(|v| v * 3.0).collect();
        for a in [f32::from_bits(5), -f32::from_bits(0x0040_0001), 3.7e-39, -2.2e-25] {
            let w = Exact::tiny(a).expect("tiny");
            let (mut got, mut want) = (vec![0.0f32; 37], vec![0.0f32; 37]);
            w.scale(&x, &mut got);
            scale(a, &x, &mut want);
            assert!(got.iter().zip(&want).all(|(&p, &q)| same_bits(p, q)), "scale by {a:e}");
            let base = seq(37, 2.5);
            let (mut got, mut want) = (base.clone(), base);
            edge_add_scaled(a, &x, &mut got);
            for (o, &v) in want.iter_mut().zip(&x) {
                *o += std::hint::black_box(a) * v;
            }
            assert!(got.iter().zip(&want).all(|(&p, &q)| same_bits(p, q)), "add by {a:e}");
        }
    }

    #[test]
    fn with_scalar_routes_to_reference_paths() {
        let a = seq(50, 0.2);
        let b = seq(50, 1.1);
        let forced = with_scalar(|| dot(&a, &b));
        assert_eq!(forced.to_bits(), dot_scalar(&a, &b).to_bits());
        assert!(!scalar_forced());
        // Outside the scope the vectorized flavour is back (env permitting).
        if !scalar_forced() {
            assert_eq!(dot(&a, &b).to_bits(), dot8(&a, &b).to_bits());
        }
    }

    #[test]
    fn with_scalar_restores_previous_state_on_nesting() {
        with_scalar(|| {
            assert!(scalar_forced());
            assert_eq!(flavour(), Flavour::Reference);
            with_scalar(|| assert!(scalar_forced()));
            assert!(scalar_forced());
        });
        assert_eq!(flavour(), Flavour::Vector);
    }
}
