//! Graph-rewrite soundness: statically checked, golden-tested rewrites.
//!
//! A [`Rewrite`] names a pattern (the *original* subgraph) and its
//! *replacement*, both recorded on fixture tapes from the same inputs.
//! Every registered rewrite must discharge two kinds of obligation before
//! an optimizer may apply it:
//!
//! * **Static** ([`check_rewrite`]): both sides are abstractly evaluated
//!   with the rewrite's declared input domains pinned at the leaves
//!   (symbolic dims included — see [`crate::absint`]); the replacement
//!   must produce a provably equal shape, must not lose a NaN- or
//!   Inf-freedom guarantee the original established, and its value
//!   interval must stay inside the original's. Violations are typed
//!   [`RewriteError`]s, counted in telemetry.
//! * **Runtime** ([`golden_equivalence`]): forward values and per-param
//!   gradients must be bitwise identical between the two sides, at 1, 2
//!   and 4 worker threads (leaning on the determinism contract in
//!   [`crate::parallel`]). A gradient present on one side only must be
//!   numerically zero — that is exactly the dead-code case folding
//!   rewrites create.
//!
//! The built-in registry ([`builtin_rewrites`]) re-expresses the fused
//! attention ops (`segment_attention`, `gather_attention`) as checked
//! rewrites of their unfused chains, and adds constant folding of
//! zero/identity scales plus dead-branch elimination for zero-α mixtures.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::absint::{AbsVal, Dim, Interval};
use crate::ops::Segments;
use crate::tape::{Tape, Tensor, VarStore};
use crate::Matrix;

/// How closely the replacement must track the original numerically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Equivalence {
    /// Forward values and gradients must be bitwise identical (the
    /// default). Holds for rewrites that only change the schedule or the
    /// addressing — the determinism contract pins the arithmetic order.
    Bitwise,
    /// Each element must agree within `max_ulps` ULPs *or* `atol`
    /// absolutely — for rewrites that change the arithmetic itself (e.g.
    /// fusing a divide into a multiply-by-reciprocal, or swapping the
    /// scalar `exp` for the vectorized split). Cross-thread stability of
    /// each side individually is still checked bitwise.
    Approximate {
        /// Maximum units-in-the-last-place distance.
        max_ulps: u32,
        /// Absolute slack for near-zero cancellation.
        atol: f32,
    },
}

/// A registered graph rewrite: a matched pattern and its replacement,
/// recorded on caller-provided tapes from shared inputs.
pub trait Rewrite: Send + Sync {
    /// Registry name (kebab-case).
    fn name(&self) -> &'static str;

    /// The numeric obligation [`golden_equivalence`] enforces between the
    /// two sides. Defaults to [`Equivalence::Bitwise`].
    fn equivalence(&self) -> Equivalence {
        Equivalence::Bitwise
    }

    /// The abstract domain assumed for each input, in wiring order.
    /// Symbolic dims (`Dim::Sym`) express node/edge-count polymorphism;
    /// the obligations are checked over these domains, not over one
    /// concrete fixture.
    fn input_domains(&self) -> Vec<AbsVal>;

    /// Which inputs are differentiable. Gradient golden-equivalence is
    /// only required for trainable inputs; a dead-branch rewrite may
    /// declare its folded constant (e.g. a zero architecture weight)
    /// non-trainable. Defaults to all-trainable.
    fn trainable(&self) -> Vec<bool> {
        self.input_domains().iter().map(|_| true).collect()
    }

    /// Samples one concrete instantiation of the inputs, inside the
    /// declared domains.
    fn sample_inputs(&self, seed: u64) -> Vec<Matrix>;

    /// Records the original pattern; returns its output.
    fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor;

    /// Records the replacement subgraph; returns its output.
    fn replacement(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor;
}

/// Why a rewrite failed its static obligations.
#[derive(Clone, Debug, PartialEq)]
pub enum RewriteError {
    /// The replacement's output shape is not provably the original's.
    ShapeMismatch {
        /// Rewrite name.
        rewrite: &'static str,
        /// Original output shape.
        original: (Dim, Dim),
        /// Replacement output shape.
        replacement: (Dim, Dim),
    },
    /// The original is NaN-free over the domain but the replacement is not.
    NanObligation {
        /// Rewrite name.
        rewrite: &'static str,
    },
    /// The original is Inf-free over the domain but the replacement is not.
    InfObligation {
        /// Rewrite name.
        rewrite: &'static str,
    },
    /// The replacement's value interval escapes the original's.
    IntervalEscape {
        /// Rewrite name.
        rewrite: &'static str,
        /// Original output interval.
        original: Interval,
        /// Replacement output interval.
        replacement: Interval,
    },
    /// One side failed abstract evaluation (or the fixture escaped its own
    /// declared domain), so the obligations could not be discharged.
    AnalysisFailed {
        /// Rewrite name.
        rewrite: &'static str,
        /// Which side failed: `"original"`, `"replacement"` or `"fixture"`.
        side: &'static str,
        /// First violation message.
        message: String,
    },
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::ShapeMismatch { rewrite, original, replacement } => write!(
                f,
                "rewrite `{rewrite}`: replacement shape {}x{} is not provably the original \
                 {}x{}",
                replacement.0, replacement.1, original.0, original.1
            ),
            RewriteError::NanObligation { rewrite } => write!(
                f,
                "rewrite `{rewrite}`: original is NaN-free over the domain, replacement is not"
            ),
            RewriteError::InfObligation { rewrite } => write!(
                f,
                "rewrite `{rewrite}`: original is Inf-free over the domain, replacement is not"
            ),
            RewriteError::IntervalEscape { rewrite, original, replacement } => write!(
                f,
                "rewrite `{rewrite}`: replacement interval {replacement} escapes the original \
                 {original}"
            ),
            RewriteError::AnalysisFailed { rewrite, side, message } => {
                write!(
                    f,
                    "rewrite `{rewrite}`: abstract evaluation of the {side} failed: {message}"
                )
            }
        }
    }
}

/// The discharged static obligations of one rewrite.
#[derive(Clone, Debug)]
pub struct RewriteCheck {
    /// Abstract output of the original pattern.
    pub original: AbsVal,
    /// Abstract output of the replacement.
    pub replacement: AbsVal,
}

fn abs_output(
    rw: &dyn Rewrite,
    side: &'static str,
    inputs: &[Matrix],
    domains: &[AbsVal],
) -> Result<AbsVal, RewriteError> {
    let mut tape = Tape::new(0);
    let tensors: Vec<Tensor> = inputs.iter().map(|m| tape.input(Arc::new(m.clone()))).collect();
    let out = match side {
        "original" => rw.original(&mut tape, &tensors),
        _ => rw.replacement(&mut tape, &tensors),
    };
    let assumptions: Vec<(Tensor, AbsVal)> =
        tensors.iter().copied().zip(domains.iter().cloned()).collect();
    let report = tape.absint_assuming(&assumptions);
    if let Some(v) = report.violations.first() {
        return Err(RewriteError::AnalysisFailed {
            rewrite: rw.name(),
            side,
            message: v.to_string(),
        });
    }
    Ok(*report.value(out))
}

/// Statically verifies the rewrite's shape/NaN/Inf/interval obligations
/// over its declared input domains. Failures are emitted to telemetry and
/// counted under `absint.rewrite_rejected`.
pub fn check_rewrite(rw: &dyn Rewrite) -> Result<RewriteCheck, RewriteError> {
    let result = check_rewrite_inner(rw);
    match &result {
        Ok(_) => sane_telemetry::counter_add("absint.rewrite_checked", 1),
        Err(e) => {
            sane_telemetry::counter_add("absint.rewrite_rejected", 1);
            sane_telemetry::error(
                "absint.rewrite_rejected",
                &[("rewrite", rw.name().to_string().into()), ("error", e.to_string().into())],
            );
        }
    }
    result
}

fn check_rewrite_inner(rw: &dyn Rewrite) -> Result<RewriteCheck, RewriteError> {
    let domains = rw.input_domains();
    let inputs = rw.sample_inputs(0);
    assert_eq!(
        domains.len(),
        inputs.len(),
        "rewrite `{}` declares {} domains but samples {} inputs",
        rw.name(),
        domains.len(),
        inputs.len()
    );
    for (i, (m, d)) in inputs.iter().zip(&domains).enumerate() {
        if let Err(message) = d.over_approximates(m) {
            return Err(RewriteError::AnalysisFailed {
                rewrite: rw.name(),
                side: "fixture",
                message: format!("sampled input {i} escapes its declared domain: {message}"),
            });
        }
    }

    let orig = abs_output(rw, "original", &inputs, &domains)?;
    let repl = abs_output(rw, "replacement", &inputs, &domains)?;

    if !repl.rows.provably_equal(orig.rows) || !repl.cols.provably_equal(orig.cols) {
        return Err(RewriteError::ShapeMismatch {
            rewrite: rw.name(),
            original: (orig.rows, orig.cols),
            replacement: (repl.rows, repl.cols),
        });
    }
    if orig.nan_free && !repl.nan_free {
        return Err(RewriteError::NanObligation { rewrite: rw.name() });
    }
    if orig.inf_free && !repl.inf_free {
        return Err(RewriteError::InfObligation { rewrite: rw.name() });
    }
    if !repl.range.subset_of(orig.range) {
        return Err(RewriteError::IntervalEscape {
            rewrite: rw.name(),
            original: orig.range,
            replacement: repl.range,
        });
    }
    Ok(RewriteCheck { original: orig, replacement: repl })
}

/// One side's concrete run: forward bits plus per-param gradient bits.
struct SideRun {
    forward: Vec<u32>,
    shape: (usize, usize),
    grads: Vec<Option<Vec<u32>>>,
}

fn run_side(
    rw: &dyn Rewrite,
    side: &'static str,
    inputs: &[Matrix],
    trainable: &[bool],
) -> SideRun {
    let mut store = VarStore::new();
    let ids: Vec<Option<crate::tape::ParamId>> = inputs
        .iter()
        .zip(trainable)
        .enumerate()
        .map(|(i, (m, &tr))| tr.then(|| store.add(format!("in{i}"), m.clone())))
        .collect();
    let mut tape = Tape::new(0);
    let tensors: Vec<Tensor> = inputs
        .iter()
        .zip(&ids)
        .map(|(m, id)| match id {
            Some(id) => tape.param(&store, *id),
            None => tape.input(Arc::new(m.clone())),
        })
        .collect();
    let out = match side {
        "original" => rw.original(&mut tape, &tensors),
        _ => rw.replacement(&mut tape, &tensors),
    };
    let value = tape.value(out);
    let shape = value.shape();
    let forward: Vec<u32> = value.data().iter().map(|v| v.to_bits()).collect();
    let seed = Matrix::full(shape.0, shape.1, 1.0);
    let grads = tape.backward_seeded(out, seed);
    let grads = ids
        .iter()
        .map(|id| {
            id.and_then(|id| grads.get(id)).map(|g| g.data().iter().map(|v| v.to_bits()).collect())
        })
        .collect();
    SideRun { forward, shape, grads }
}

fn all_zero(bits: &[u32]) -> bool {
    // +0.0 and -0.0 both count: a dead branch may produce negative zeros.
    bits.iter().all(|&b| f32::from_bits(b) == 0.0)
}

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

fn bits_equal(a: &[u32], b: &[u32], eq: Equivalence) -> bool {
    match eq {
        Equivalence::Bitwise => a == b,
        Equivalence::Approximate { max_ulps, atol } => {
            a.len() == b.len()
                && a.iter().zip(b).all(|(&x, &y)| {
                    let (x, y) = (f32::from_bits(x), f32::from_bits(y));
                    (x - y).abs() <= atol || ulp_diff(x, y) <= u64::from(max_ulps)
                })
        }
    }
}

fn compare_sides(rw: &dyn Rewrite, o: &SideRun, r: &SideRun, ctx: &str) -> Result<(), String> {
    let eq = rw.equivalence();
    if o.shape != r.shape {
        return Err(format!(
            "rewrite `{}` {ctx}: forward shapes differ: {:?} vs {:?}",
            rw.name(),
            o.shape,
            r.shape
        ));
    }
    if !bits_equal(&o.forward, &r.forward, eq) {
        return Err(format!(
            "rewrite `{}` {ctx}: forward values are not bitwise identical",
            rw.name()
        ));
    }
    for (i, (go, gr)) in o.grads.iter().zip(&r.grads).enumerate() {
        match (go, gr) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                if !bits_equal(a, b, eq) {
                    return Err(format!(
                        "rewrite `{}` {ctx}: gradient {i} is not bitwise identical",
                        rw.name()
                    ));
                }
            }
            (Some(g), None) | (None, Some(g)) => {
                if !all_zero(g) {
                    return Err(format!(
                        "rewrite `{}` {ctx}: gradient {i} flows on one side only and is \
                         non-zero",
                        rw.name()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Runs the rewrite's runtime obligation: forward values and per-param
/// gradients must be bitwise identical between the original and the
/// replacement, and stable across 1/2/4 worker threads.
pub fn golden_equivalence(rw: &dyn Rewrite, seed: u64) -> Result<(), String> {
    let inputs = rw.sample_inputs(seed);
    let trainable = rw.trainable();
    assert_eq!(inputs.len(), trainable.len(), "trainable mask must cover every input");
    let mut baseline: Option<(SideRun, SideRun)> = None;
    for threads in [1usize, 2, 4] {
        let (o, r) = crate::parallel::with_threads(threads, || {
            (
                run_side(rw, "original", &inputs, &trainable),
                run_side(rw, "replacement", &inputs, &trainable),
            )
        });
        compare_sides(rw, &o, &r, &format!("at {threads} thread(s)"))?;
        if let Some((bo, _)) = &baseline {
            if o.forward != bo.forward || o.grads != bo.grads {
                return Err(format!(
                    "rewrite `{}`: original run at {threads} threads diverges from the \
                     single-thread baseline",
                    rw.name()
                ));
            }
        } else {
            baseline = Some((o, r));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Built-in rewrites.
// ---------------------------------------------------------------------------

fn sample(rng: &mut StdRng, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(lo..=hi)).collect())
}

/// The attention fixture shared by the fused-op rewrites: a handful of
/// segments including an empty one, exercising the non-empty-handling
/// invariant.
fn attention_segments() -> Arc<Segments> {
    Arc::new(Segments::from_lengths(&[3, 0, 4, 2, 1]))
}

/// `segment_softmax → mul_col_broadcast → segment_sum` fused into
/// [`Tape::segment_attention`].
struct SegmentAttentionFusion {
    segs: Arc<Segments>,
    cols: usize,
}

impl Rewrite for SegmentAttentionFusion {
    fn name(&self) -> &'static str {
        "segment-attention-fusion"
    }
    /// The fused kernel changes the arithmetic, not just the schedule: it
    /// normalises by multiplying with `1/sum` where `segment_softmax`
    /// divides, and it uses the vectorized `exp` split (relative error
    /// `< 1e-6` of `f32::exp`). The budget mirrors the `1e-5` pin in the
    /// kernel's own fused-vs-unfused test.
    fn equivalence(&self) -> Equivalence {
        Equivalence::Approximate { max_ulps: 256, atol: 1e-5 }
    }
    fn input_domains(&self) -> Vec<AbsVal> {
        vec![
            AbsVal::finite(Dim::Sym("E"), Dim::Const(1), -4.0, 4.0),
            AbsVal::finite(Dim::Sym("E"), Dim::Const(self.cols), -2.0, 2.0),
        ]
    }
    fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = self.segs.total_len();
        vec![sample(&mut rng, e, 1, -4.0, 4.0), sample(&mut rng, e, self.cols, -2.0, 2.0)]
    }
    fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
        let alpha = tape.segment_softmax(inputs[0], &self.segs);
        let weighted = tape.mul_col_broadcast(inputs[1], alpha);
        tape.segment_sum(weighted, &self.segs)
    }
    fn replacement(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
        tape.segment_attention(inputs[0], inputs[1], &self.segs)
    }
}

/// `gather_rows + segment_attention` fused into [`Tape::gather_attention`].
struct GatherAttentionFusion {
    idx: Arc<Vec<u32>>,
    segs: Arc<Segments>,
    nodes: usize,
    cols: usize,
}

impl Rewrite for GatherAttentionFusion {
    fn name(&self) -> &'static str {
        "gather-attention-fusion"
    }
    fn input_domains(&self) -> Vec<AbsVal> {
        vec![
            AbsVal::finite(Dim::Sym("E"), Dim::Const(1), -4.0, 4.0),
            AbsVal::finite(Dim::Sym("N"), Dim::Const(self.cols), -2.0, 2.0),
        ]
    }
    fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = self.segs.total_len();
        vec![sample(&mut rng, e, 1, -4.0, 4.0), sample(&mut rng, self.nodes, self.cols, -2.0, 2.0)]
    }
    fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
        let gathered = tape.gather_rows(inputs[1], &self.idx);
        tape.segment_attention(inputs[0], gathered, &self.segs)
    }
    fn replacement(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
        tape.gather_attention(inputs[0], inputs[1], &self.idx, &self.segs)
    }
}

/// `scale(x, 1.0)` folds to `x`.
struct IdentityScaleFold {
    rows: usize,
    cols: usize,
}

impl Rewrite for IdentityScaleFold {
    fn name(&self) -> &'static str {
        "identity-scale-fold"
    }
    fn input_domains(&self) -> Vec<AbsVal> {
        vec![AbsVal::finite(Dim::Const(self.rows), Dim::Const(self.cols), -2.0, 2.0)]
    }
    fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        vec![sample(&mut rng, self.rows, self.cols, -2.0, 2.0)]
    }
    fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
        tape.scale(inputs[0], 1.0)
    }
    fn replacement(&self, _tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
        inputs[0]
    }
}

/// `scale(x, 0.0)` folds to a zero constant. The domain is restricted to
/// non-negative inputs: `0.0 * x` is `-0.0` for negative `x`, which would
/// break bitwise equivalence with a `+0.0` constant.
struct ZeroScaleFold {
    rows: usize,
    cols: usize,
}

impl Rewrite for ZeroScaleFold {
    fn name(&self) -> &'static str {
        "zero-scale-fold"
    }
    fn input_domains(&self) -> Vec<AbsVal> {
        vec![AbsVal::finite(Dim::Const(self.rows), Dim::Const(self.cols), 0.0, 2.0)]
    }
    fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        vec![sample(&mut rng, self.rows, self.cols, 0.0, 2.0)]
    }
    fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
        tape.scale(inputs[0], 0.0)
    }
    fn replacement(&self, tape: &mut Tape, _inputs: &[Tensor]) -> Tensor {
        tape.constant(Matrix::zeros(self.rows, self.cols))
    }
}

/// `add(a, mul_scalar_tensor(b, α))` with `α` pinned to zero folds to `a`
/// — the dead branch a derived (non-mixed) architecture leaves behind.
/// `α` is declared non-trainable: the fold is for derived graphs where
/// the architecture weight is a constant, not a search parameter.
struct ZeroAlphaDeadBranch {
    rows: usize,
    cols: usize,
}

impl Rewrite for ZeroAlphaDeadBranch {
    fn name(&self) -> &'static str {
        "zero-alpha-dead-branch"
    }
    fn input_domains(&self) -> Vec<AbsVal> {
        vec![
            AbsVal::finite(Dim::Const(self.rows), Dim::Const(self.cols), -2.0, 2.0),
            AbsVal::finite(Dim::Const(self.rows), Dim::Const(self.cols), -2.0, 2.0),
            AbsVal::finite(Dim::Const(1), Dim::Const(1), 0.0, 0.0),
        ]
    }
    fn trainable(&self) -> Vec<bool> {
        vec![true, true, false]
    }
    fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        vec![
            sample(&mut rng, self.rows, self.cols, -2.0, 2.0),
            sample(&mut rng, self.rows, self.cols, -2.0, 2.0),
            Matrix::scalar(0.0),
        ]
    }
    fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
        let dead = tape.mul_scalar_tensor(inputs[1], inputs[2]);
        tape.add(inputs[0], dead)
    }
    fn replacement(&self, _tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
        inputs[0]
    }
}

/// Every rewrite the autodiff crate registers. Downstream crates (the GNN
/// layer registry) extend this set with their own fixtures.
pub fn builtin_rewrites() -> Vec<Box<dyn Rewrite>> {
    let segs = attention_segments();
    let idx: Arc<Vec<u32>> = Arc::new(vec![0, 3, 3, 1, 2, 0, 3, 2, 1, 0]);
    assert_eq!(idx.len(), segs.total_len());
    vec![
        Box::new(SegmentAttentionFusion { segs: segs.clone(), cols: 5 }),
        Box::new(GatherAttentionFusion { idx, segs, nodes: 4, cols: 5 }),
        Box::new(IdentityScaleFold { rows: 6, cols: 3 }),
        Box::new(ZeroScaleFold { rows: 6, cols: 3 }),
        Box::new(ZeroAlphaDeadBranch { rows: 6, cols: 3 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_rewrites_discharge_static_obligations() {
        for rw in builtin_rewrites() {
            let check = check_rewrite(rw.as_ref())
                .unwrap_or_else(|e| panic!("{} failed static check: {e}", rw.name()));
            assert!(
                check.replacement.range.subset_of(check.original.range),
                "{}: {} ⊄ {}",
                rw.name(),
                check.replacement.range,
                check.original.range
            );
        }
    }

    #[test]
    fn builtin_rewrites_are_golden_equivalent_across_threads() {
        for rw in builtin_rewrites() {
            for seed in [1u64, 42] {
                golden_equivalence(rw.as_ref(), seed)
                    .unwrap_or_else(|e| panic!("{} failed golden equivalence: {e}", rw.name()));
            }
        }
    }

    /// A corrupted rewrite: the replacement drops a column, so its shape
    /// is not provably the original's.
    struct ShapeMismatchedReplacement;
    impl Rewrite for ShapeMismatchedReplacement {
        fn name(&self) -> &'static str {
            "bad-shape"
        }
        fn input_domains(&self) -> Vec<AbsVal> {
            vec![AbsVal::finite(Dim::Const(3), Dim::Const(4), -2.0, 2.0)]
        }
        fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
            let mut rng = StdRng::seed_from_u64(seed);
            vec![sample(&mut rng, 3, 4, -2.0, 2.0)]
        }
        fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.relu(inputs[0])
        }
        fn replacement(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.slice_cols(inputs[0], 0, 3)
        }
    }

    #[test]
    fn shape_mismatched_replacement_is_rejected_statically() {
        let err = check_rewrite(&ShapeMismatchedReplacement).unwrap_err();
        assert!(matches!(err, RewriteError::ShapeMismatch { rewrite: "bad-shape", .. }), "{err}");
    }

    /// Replacement widens the value interval: `sigmoid` ⊆ [0,1] but the
    /// replacement scales the raw input.
    struct EscapingReplacement;
    impl Rewrite for EscapingReplacement {
        fn name(&self) -> &'static str {
            "bad-interval"
        }
        fn input_domains(&self) -> Vec<AbsVal> {
            vec![AbsVal::finite(Dim::Const(3), Dim::Const(4), -2.0, 2.0)]
        }
        fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
            let mut rng = StdRng::seed_from_u64(seed);
            vec![sample(&mut rng, 3, 4, -2.0, 2.0)]
        }
        fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.sigmoid(inputs[0])
        }
        fn replacement(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.scale(inputs[0], 2.0)
        }
    }

    #[test]
    fn interval_escape_is_rejected_statically() {
        let err = check_rewrite(&EscapingReplacement).unwrap_err();
        assert!(
            matches!(err, RewriteError::IntervalEscape { rewrite: "bad-interval", .. }),
            "{err}"
        );
    }

    /// Replacement loses the NaN-freedom guarantee (a NaN shift abstracts
    /// to top).
    struct NanLosingReplacement;
    impl Rewrite for NanLosingReplacement {
        fn name(&self) -> &'static str {
            "bad-nan"
        }
        fn input_domains(&self) -> Vec<AbsVal> {
            vec![AbsVal::finite(Dim::Const(3), Dim::Const(4), -2.0, 2.0)]
        }
        fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
            let mut rng = StdRng::seed_from_u64(seed);
            vec![sample(&mut rng, 3, 4, -2.0, 2.0)]
        }
        fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.scale(inputs[0], 1.0)
        }
        fn replacement(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.add_scalar(inputs[0], f32::NAN)
        }
    }

    #[test]
    fn nan_obligation_is_rejected_statically() {
        let err = check_rewrite(&NanLosingReplacement).unwrap_err();
        assert!(matches!(err, RewriteError::NanObligation { rewrite: "bad-nan" }), "{err}");
    }

    /// Replacement loses the Inf-freedom guarantee: `log_softmax` can
    /// produce `-inf`, `softmax` cannot.
    struct InfLosingReplacement;
    impl Rewrite for InfLosingReplacement {
        fn name(&self) -> &'static str {
            "bad-inf"
        }
        fn input_domains(&self) -> Vec<AbsVal> {
            vec![AbsVal::finite(Dim::Const(3), Dim::Const(4), -2.0, 2.0)]
        }
        fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
            let mut rng = StdRng::seed_from_u64(seed);
            vec![sample(&mut rng, 3, 4, -2.0, 2.0)]
        }
        fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.softmax_rows(inputs[0])
        }
        fn replacement(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.log_softmax_rows(inputs[0])
        }
    }

    #[test]
    fn inf_obligation_is_rejected_statically() {
        let err = check_rewrite(&InfLosingReplacement).unwrap_err();
        assert!(matches!(err, RewriteError::InfObligation { rewrite: "bad-inf" }), "{err}");
    }

    /// The declared domain violates an op contract (a 2x1 "scalar"), so
    /// abstract evaluation itself fails.
    struct ContractViolatingDomain;
    impl Rewrite for ContractViolatingDomain {
        fn name(&self) -> &'static str {
            "bad-domain"
        }
        fn input_domains(&self) -> Vec<AbsVal> {
            vec![
                AbsVal::finite(Dim::Const(3), Dim::Const(4), -2.0, 2.0),
                AbsVal::finite(Dim::Const(2), Dim::Const(1), 0.0, 1.0),
            ]
        }
        fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
            let mut rng = StdRng::seed_from_u64(seed);
            vec![sample(&mut rng, 3, 4, -2.0, 2.0), Matrix::scalar(0.5)]
        }
        fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.mul_scalar_tensor(inputs[0], inputs[1])
        }
        fn replacement(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            tape.mul_scalar_tensor(inputs[0], inputs[1])
        }
    }

    #[test]
    fn contract_violations_surface_as_analysis_failures() {
        let err = check_rewrite(&ContractViolatingDomain).unwrap_err();
        match err {
            RewriteError::AnalysisFailed { rewrite: "bad-domain", side, .. } => {
                // The sampled 1x1 scalar escapes the declared (broken) 2x1
                // domain before either side is evaluated.
                assert_eq!(side, "fixture");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    /// Statically plausible but numerically different: f32 addition is
    /// not associative, so the golden harness must reject it.
    struct ReassociatedSum;
    impl Rewrite for ReassociatedSum {
        fn name(&self) -> &'static str {
            "bad-reassociation"
        }
        fn input_domains(&self) -> Vec<AbsVal> {
            vec![
                // The magnitude disparity forces the two association orders
                // to round differently: b rounds into a's ulp before c can
                // contribute, or b+c is formed exactly first.
                AbsVal::finite(Dim::Const(8), Dim::Const(5), 1000.0, 2000.0),
                AbsVal::finite(Dim::Const(8), Dim::Const(5), -2.0, 2.0),
                AbsVal::finite(Dim::Const(8), Dim::Const(5), -2.0, 2.0),
            ]
        }
        fn sample_inputs(&self, seed: u64) -> Vec<Matrix> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = vec![sample(&mut rng, 8, 5, 1000.0, 2000.0)];
            v.extend((0..2).map(|_| sample(&mut rng, 8, 5, -2.0, 2.0)));
            v
        }
        fn original(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            let ab = tape.add(inputs[0], inputs[1]);
            tape.add(ab, inputs[2])
        }
        fn replacement(&self, tape: &mut Tape, inputs: &[Tensor]) -> Tensor {
            let bc = tape.add(inputs[1], inputs[2]);
            tape.add(inputs[0], bc)
        }
    }

    #[test]
    fn golden_harness_rejects_reassociation() {
        // Passes the static obligations (identical abstract values)...
        check_rewrite(&ReassociatedSum).expect("statically plausible");
        // ...but not the bitwise runtime one.
        let err = golden_equivalence(&ReassociatedSum, 1).unwrap_err();
        assert!(err.contains("not bitwise identical"), "{err}");
    }
}
