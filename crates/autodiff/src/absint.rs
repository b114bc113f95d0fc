//! Abstract interpretation over recorded tapes.
//!
//! Every [`crate::Tape`] node gets an abstract value — an [`AbsVal`] of
//! shape (with symbolic dims for node/edge counts), value interval, derived
//! sign, and NaN/Inf-freedom — propagated through the op registry via the
//! per-op [`Op::transfer`] functions declared alongside each op's
//! backward. `transfer` is each op's one static contract: the
//! tape auditor's shape pass calls the same function with shape-only
//! inputs. The analysis runs to a fixed point over the DAG; because the
//! Wengert list is topologically ordered the fixed point is reached in one
//! sweep plus one confirming pass, but the driver iterates until stability
//! so the invariant is checked, not assumed.
//!
//! Two entry points run the pass:
//!
//! * [`Tape::absint`] analyses a recorded tape from its concrete leaf
//!   values and cross-checks every abstract value against the concrete
//!   matrix stored on the node — a transfer function that fails to
//!   over-approximate its own op is reported, not trusted. The result
//!   feeds [`crate::TapeReport`] via `Tape::audit_with_absint`, which the
//!   graph-audit gate and the search pre-flight run on the real supernet
//!   and derived-architecture tapes, fused ops included.
//! * [`Tape::absint_assuming`] substitutes caller-provided abstract values
//!   (symbolic shapes, declared intervals) at chosen nodes, so a transfer
//!   can be evaluated over *all* inputs in a domain, not just one fixture;
//!   the property tests below check every op's transfer this way.
//!
//! Segment ops carry their boundary invariants through the transfer
//! functions: offsets are sorted and covering by [`Segments`] construction,
//! coverage of the value rows is re-checked whenever the row count is
//! concrete, and empty segments force every reduction interval to include
//! zero.

use crate::tape::{Tape, Tensor};
use crate::Matrix;

/// A tensor dimension: concrete, symbolic (named, e.g. `"N"` nodes or
/// `"E"` edges), or unknown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dim {
    /// A concrete extent.
    Const(usize),
    /// A named symbolic extent; two symbolic dims are equal iff their
    /// names are equal.
    Sym(&'static str),
    /// Unknown extent (top): compatible with everything, provably equal
    /// to nothing.
    Any,
}

impl Dim {
    /// The concrete extent, if this dim is constant.
    pub fn known(self) -> Option<usize> {
        match self {
            Dim::Const(n) => Some(n),
            Dim::Sym(_) | Dim::Any => None,
        }
    }

    /// True when the two dims *could* denote the same extent. `Any` is
    /// compatible with everything; a symbol is compatible with any
    /// constant (it may be instantiated to it).
    pub fn compatible(self, other: Dim) -> bool {
        match (self, other) {
            (Dim::Const(a), Dim::Const(b)) => a == b,
            (Dim::Sym(a), Dim::Sym(b)) => a == b,
            _ => true,
        }
    }

    /// True when the two dims *provably* denote the same extent.
    pub fn provably_equal(self, other: Dim) -> bool {
        match (self, other) {
            (Dim::Const(a), Dim::Const(b)) => a == b,
            (Dim::Sym(a), Dim::Sym(b)) => a == b,
            _ => false,
        }
    }

    /// Join for the fixed point: equal dims survive, disagreement widens
    /// to `Any`.
    pub fn join(self, other: Dim) -> Dim {
        if self.provably_equal(other) {
            self
        } else {
            Dim::Any
        }
    }

    fn describe(self) -> String {
        match self {
            Dim::Const(n) => n.to_string(),
            Dim::Sym(s) => s.to_string(),
            Dim::Any => "?".to_string(),
        }
    }
}

impl std::fmt::Display for Dim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// Requires two dims to be compatible, for transfer-function contracts.
pub(crate) fn require_compatible(what: &str, a: Dim, b: Dim) -> Result<(), String> {
    if a.compatible(b) {
        Ok(())
    } else {
        Err(format!("{what}: {a} vs {b}"))
    }
}

/// Sign abstraction, derived from the interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sign {
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
    /// Strictly negative.
    Negative,
    /// Zero or positive.
    NonNegative,
    /// Zero or negative.
    NonPositive,
    /// Both signs possible.
    Unknown,
}

/// A closed interval of non-NaN values. Infinite bounds mean "unbounded on
/// that side"; whether actual infinities occur is tracked separately by
/// [`AbsVal::inf_free`]. NaN never belongs to an interval —
/// [`AbsVal::nan_free`] carries that bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive; `-inf` = unbounded below).
    pub lo: f32,
    /// Upper bound (inclusive; `+inf` = unbounded above).
    pub hi: f32,
}

impl Interval {
    /// The unbounded interval.
    pub const TOP: Interval = Interval { lo: f32::NEG_INFINITY, hi: f32::INFINITY };

    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    /// Panics on NaN bounds or `lo > hi`.
    pub fn new(lo: f32, hi: f32) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval bounds must not be NaN");
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The single-point interval `[v, v]`.
    pub fn point(v: f32) -> Self {
        Self::new(v, v)
    }

    /// True when both bounds are finite.
    pub fn is_finite(self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// True when `v` lies inside (NaN is never contained).
    pub fn contains(self, v: f32) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// True when every value of `self` lies inside `outer`.
    pub fn subset_of(self, outer: Interval) -> bool {
        self.lo >= outer.lo && self.hi <= outer.hi
    }

    /// The smallest interval containing both.
    pub fn join(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Widens to include zero (the value every empty-segment reduction
    /// produces).
    pub fn hull_with_zero(self) -> Interval {
        Interval { lo: self.lo.min(0.0), hi: self.hi.max(0.0) }
    }

    /// Interval sum.
    #[allow(clippy::should_implement_trait)] // interval combinator, not operator overloading
    pub fn add(self, other: Interval) -> Interval {
        Self::from_corners(&[self.lo + other.lo, self.hi + other.hi])
    }

    /// Interval difference.
    #[allow(clippy::should_implement_trait)] // interval combinator, not operator overloading
    pub fn sub(self, other: Interval) -> Interval {
        Self::from_corners(&[self.lo - other.hi, self.hi - other.lo])
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)] // interval combinator, not operator overloading
    pub fn neg(self) -> Interval {
        Interval { lo: -self.hi, hi: -self.lo }
    }

    /// Four-corner interval product. Indeterminate corners (`0 * inf`)
    /// widen to [`Interval::TOP`].
    #[allow(clippy::should_implement_trait)] // interval combinator, not operator overloading
    pub fn mul(self, other: Interval) -> Interval {
        Self::from_corners(&[
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ])
    }

    /// Product with a constant.
    pub fn scale(self, c: f32) -> Interval {
        if c == 0.0 {
            // 0 * x = 0 for every non-NaN finite x; 0 * inf is NaN, which
            // intervals never describe — `nan_free` handles that case.
            return Interval::point(0.0);
        }
        self.mul(Interval::point(c))
    }

    /// Absolute value.
    pub fn abs(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Interval::new(0.0, self.hi.max(-self.lo))
        }
    }

    /// The interval of a sum of `count` terms, each drawn from `self`.
    /// A symbolic/unknown count keeps the bound's sign but loses its
    /// magnitude; a count of zero terms produces exactly zero.
    pub fn sum_of(self, count: Dim) -> Interval {
        match count.known() {
            Some(0) => Interval::point(0.0),
            Some(k) => {
                let k = k as f32; // lint:allow(lossy-cast) -- term counts are far below 2^24
                Self::from_corners(&[k * self.lo, k * self.hi])
            }
            None => Interval {
                lo: if self.lo >= 0.0 { 0.0 } else { f32::NEG_INFINITY },
                hi: if self.hi <= 0.0 { 0.0 } else { f32::INFINITY },
            },
        }
    }

    /// Derived sign.
    pub fn sign(self) -> Sign {
        if self.lo == 0.0 && self.hi == 0.0 {
            Sign::Zero
        } else if self.lo > 0.0 {
            Sign::Positive
        } else if self.hi < 0.0 {
            Sign::Negative
        } else if self.lo >= 0.0 {
            Sign::NonNegative
        } else if self.hi <= 0.0 {
            Sign::NonPositive
        } else {
            Sign::Unknown
        }
    }

    /// Builds the hull of raw corner values; any NaN corner (an
    /// indeterminate form such as `0 * inf`) widens to [`Interval::TOP`].
    fn from_corners(corners: &[f32]) -> Interval {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &c in corners {
            if c.is_nan() {
                return Interval::TOP;
            }
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Interval { lo, hi }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// The abstract value of one tape node: shape, interval, NaN/Inf-freedom.
/// Sign is derived from the interval via [`AbsVal::sign`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbsVal {
    /// Row extent.
    pub rows: Dim,
    /// Column extent.
    pub cols: Dim,
    /// Hull of every non-NaN entry the value can hold.
    pub range: Interval,
    /// Proven free of NaN entries.
    pub nan_free: bool,
    /// Proven free of `±inf` entries.
    pub inf_free: bool,
}

impl AbsVal {
    /// The least-informative value of a given shape.
    pub fn top(rows: Dim, cols: Dim) -> Self {
        Self { rows, cols, range: Interval::TOP, nan_free: false, inf_free: false }
    }

    /// A proven-finite value in `[lo, hi]`.
    pub fn finite(rows: Dim, cols: Dim, lo: f32, hi: f32) -> Self {
        Self { rows, cols, range: Interval::new(lo, hi), nan_free: true, inf_free: true }
    }

    /// The exact abstraction of a concrete matrix: tight interval over the
    /// non-NaN entries, NaN/Inf flags from a full scan. An empty matrix
    /// abstracts to the point `[0, 0]` (vacuously sound).
    pub fn from_matrix(m: &Matrix) -> Self {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        let mut nan_free = true;
        let mut inf_free = true;
        for &v in m.data() {
            if v.is_nan() {
                nan_free = false;
            } else {
                lo = lo.min(v);
                hi = hi.max(v);
                if v.is_infinite() {
                    inf_free = false;
                }
            }
        }
        let range = if lo <= hi { Interval::new(lo, hi) } else { Interval::point(0.0) };
        Self { rows: Dim::Const(m.rows()), cols: Dim::Const(m.cols()), range, nan_free, inf_free }
    }

    /// Derived sign of the interval.
    pub fn sign(&self) -> Sign {
        self.range.sign()
    }

    /// Least upper bound; shapes join dimension-wise, flags conjoin.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            rows: self.rows.join(other.rows),
            cols: self.cols.join(other.cols),
            range: self.range.join(other.range),
            nan_free: self.nan_free && other.nan_free,
            inf_free: self.inf_free && other.inf_free,
        }
    }

    /// Checks that this abstract value admits the concrete matrix: shape
    /// compatible, every non-NaN entry inside the interval, and no
    /// NaN/Inf entry where freedom was claimed.
    pub fn over_approximates(&self, m: &Matrix) -> Result<(), String> {
        if !self.rows.compatible(Dim::Const(m.rows()))
            || !self.cols.compatible(Dim::Const(m.cols()))
        {
            return Err(format!(
                "abstract shape {}x{} excludes concrete {}x{}",
                self.rows,
                self.cols,
                m.rows(),
                m.cols()
            ));
        }
        for (i, &v) in m.data().iter().enumerate() {
            if v.is_nan() {
                if self.nan_free {
                    return Err(format!("claimed nan-free but entry {i} is NaN"));
                }
                continue;
            }
            if v.is_infinite() && self.inf_free {
                return Err(format!("claimed inf-free but entry {i} is {v}"));
            }
            if !self.range.contains(v) {
                return Err(format!("entry {i} = {v} escapes {}", self.range));
            }
        }
        Ok(())
    }

    /// Convenience for unary identity-shaped transfers: keeps the shape,
    /// replaces the value facts.
    pub(crate) fn with_range(&self, range: Interval, nan_free: bool, inf_free: bool) -> AbsVal {
        AbsVal { rows: self.rows, cols: self.cols, range, nan_free, inf_free }
    }
}

impl std::fmt::Display for AbsVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{} {}{}{}",
            self.rows,
            self.cols,
            self.range,
            if self.nan_free { "" } else { " nan?" },
            if self.inf_free { "" } else { " inf?" },
        )
    }
}

// ---------------------------------------------------------------------------
// Shared transfer-function helpers used by the op registry.
// ---------------------------------------------------------------------------

/// Transfer for binary elementwise ops: shapes must agree, value facts come
/// from `range`, and the NaN/Inf conclusions are supplied by the op.
pub(crate) fn binary_elementwise(
    name: &str,
    a: &AbsVal,
    b: &AbsVal,
    range: Interval,
    nan_free: bool,
    inf_free: bool,
) -> Result<AbsVal, String> {
    require_compatible(&format!("{name}: row mismatch"), a.rows, b.rows)?;
    require_compatible(&format!("{name}: col mismatch"), a.cols, b.cols)?;
    Ok(AbsVal { rows: a.rows.join2(b.rows), cols: a.cols.join2(b.cols), range, nan_free, inf_free })
}

impl Dim {
    /// Picks the more informative of two compatible dims (a constant or
    /// symbol beats `Any`).
    pub(crate) fn join2(self, other: Dim) -> Dim {
        match (self, other) {
            (Dim::Any, d) => d,
            (d, _) => d,
        }
    }
}

/// Widens an interval outward by a relative margin, for transfers whose
/// bound is exact only in real arithmetic: the fused attention ops (the
/// kernel's `1/sum` reciprocal and vectorized `exp` can overshoot the hull
/// by a few ulps) and the vectorized activations (a few ulps off libm).
pub(crate) fn dilate(iv: Interval, rel: f32) -> Interval {
    let w = rel * iv.lo.abs().max(iv.hi.abs());
    if w.is_finite() {
        Interval::new(iv.lo - w, iv.hi + w)
    } else {
        iv
    }
}

/// `inf_free` conclusion for an arithmetic result: inputs must be finite
/// and the computed interval must not have overflowed to an infinite bound.
pub(crate) fn finite_arith(range: Interval, inputs: &[&AbsVal]) -> bool {
    inputs.iter().all(|v| v.inf_free) && range.is_finite()
}

/// `nan_free` conclusion for an addition/subtraction: `inf - inf` is the
/// only NaN-producing form, so it suffices that either side is inf-free.
pub(crate) fn nan_free_addsub(a: &AbsVal, b: &AbsVal) -> bool {
    a.nan_free && b.nan_free && (a.inf_free || b.inf_free)
}

/// `nan_free` conclusion for a product: `0 * inf` is the NaN-producing
/// form — possible only when one side may be infinite while the other
/// may be zero.
pub(crate) fn nan_free_mul(a: &AbsVal, b: &AbsVal) -> bool {
    let zero_times_inf =
        (!a.inf_free && b.range.contains(0.0)) || (!b.inf_free && a.range.contains(0.0));
    a.nan_free && b.nan_free && !zero_times_inf
}

// ---------------------------------------------------------------------------
// The analysis driver.
// ---------------------------------------------------------------------------

/// One transfer-function failure: the op's declared contract rejected its
/// abstract inputs, or the abstract value failed to admit the concrete one.
#[derive(Clone, Debug)]
pub struct AbsViolation {
    /// Tape index of the offending node.
    pub node: usize,
    /// Op name.
    pub op: &'static str,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AbsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} ({}): {}", self.node, self.op, self.message)
    }
}

/// Counters of one analysis run, embedded in [`crate::TapeReport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AbsSummary {
    /// Nodes analysed.
    pub analyzed: usize,
    /// Transfer/over-approximation failures.
    pub violations: usize,
    /// Non-leaf nodes whose abstract shape stayed unknown.
    pub unknown_shapes: usize,
    /// Fixed-point sweeps until stability.
    pub iterations: usize,
}

impl std::fmt::Display for AbsSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} node(s) analyzed, {} violation(s), {} unknown shape(s), \
             fixed point in {} sweep(s)",
            self.analyzed, self.violations, self.unknown_shapes, self.iterations
        )
    }
}

/// The result of one abstract-interpretation pass.
#[derive(Debug)]
pub struct AbsReport {
    /// Per-node abstract values, indexed like the tape.
    pub values: Vec<AbsVal>,
    /// Contract violations found during the stable sweep.
    pub violations: Vec<AbsViolation>,
    /// Non-leaf nodes whose shape could not be inferred.
    pub unknown_shapes: Vec<usize>,
    /// Sweeps until the fixed point was confirmed.
    pub iterations: usize,
}

impl AbsReport {
    /// The abstract value of a tensor.
    pub fn value(&self, t: Tensor) -> &AbsVal {
        &self.values[t.index()]
    }

    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The embedded-report summary.
    pub fn summary(&self) -> AbsSummary {
        AbsSummary {
            analyzed: self.values.len(),
            violations: self.violations.len(),
            unknown_shapes: self.unknown_shapes.len(),
            iterations: self.iterations,
        }
    }
}

impl Tape {
    /// Runs the abstract interpreter from the tape's concrete leaf values
    /// and cross-checks every abstract value against the concrete matrix
    /// recorded on its node.
    pub fn absint(&self) -> AbsReport {
        self.absint_assuming(&[])
    }

    /// Runs the abstract interpreter with caller-supplied abstract values
    /// pinned at the given tensors (normally leaves). Pinned nodes are
    /// never recomputed; everything else flows through the per-op transfer
    /// functions. With a non-empty assumption set the concrete
    /// cross-check is skipped — the recorded values are one sample of the
    /// assumed domain, not its bound.
    pub fn absint_assuming(&self, assumptions: &[(Tensor, AbsVal)]) -> AbsReport {
        let n = self.len();
        let mut pinned = vec![false; n];
        let mut values: Vec<AbsVal> = (0..n)
            .map(|i| {
                let node = self.node(i);
                AbsVal::from_matrix(&node.value)
            })
            .collect();
        for (t, v) in assumptions {
            values[t.index()] = *v;
            pinned[t.index()] = true;
        }

        let mut violations = Vec::new();
        let mut iterations = 0usize;
        // The Wengert list is topologically ordered, so one sweep reaches
        // the fixed point; the loop re-sweeps until nothing changes to
        // *check* that property rather than assume it, and is bounded by
        // the node count as a backstop.
        loop {
            iterations += 1;
            violations.clear();
            let mut changed = false;
            for i in 0..n {
                let node = self.node(i);
                if pinned[i] || node.inputs.is_empty() {
                    continue;
                }
                let ins: Vec<AbsVal> = node.inputs.iter().map(|t| values[t.index()]).collect();
                let next = match node.op.transfer(&ins) {
                    Ok(v) => v,
                    Err(message) => {
                        violations.push(AbsViolation { node: i, op: node.op.name(), message });
                        // Fall back to the concrete shape with unknown
                        // values so downstream nodes stay analysable.
                        AbsVal::top(Dim::Const(node.value.rows()), Dim::Const(node.value.cols()))
                    }
                };
                if next != values[i] {
                    values[i] = next;
                    changed = true;
                }
            }
            if !changed || iterations > n + 1 {
                break;
            }
        }

        if assumptions.is_empty() {
            for (i, val) in values.iter().enumerate() {
                let node = self.node(i);
                if let Err(message) = val.over_approximates(&node.value) {
                    violations.push(AbsViolation { node: i, op: node.op.name(), message });
                }
            }
        }

        let unknown_shapes: Vec<usize> = (0..n)
            .filter(|&i| {
                !self.node(i).inputs.is_empty()
                    && (values[i].rows == Dim::Any || values[i].cols == Dim::Any)
            })
            .collect();

        AbsReport { values, violations, unknown_shapes, iterations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mat(rows: usize, cols: usize, f: impl FnMut(usize) -> f32) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(f).collect())
    }

    #[test]
    fn interval_arithmetic_corners() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(1.0, 4.0);
        assert_eq!(a.add(b), Interval::new(-1.0, 7.0));
        assert_eq!(a.sub(b), Interval::new(-6.0, 2.0));
        assert_eq!(a.mul(b), Interval::new(-8.0, 12.0));
        assert_eq!(a.neg(), Interval::new(-3.0, 2.0));
        assert_eq!(a.abs(), Interval::new(0.0, 3.0));
        assert_eq!(a.scale(0.0), Interval::point(0.0));
        assert_eq!(Interval::TOP.mul(Interval::point(0.0)), Interval::TOP);
    }

    #[test]
    fn interval_sum_of_counts() {
        let p = Interval::new(0.5, 2.0);
        assert_eq!(p.sum_of(Dim::Const(3)), Interval::new(1.5, 6.0));
        assert_eq!(p.sum_of(Dim::Const(0)), Interval::point(0.0));
        let s = p.sum_of(Dim::Sym("N"));
        assert_eq!(s.lo, 0.0);
        assert_eq!(s.hi, f32::INFINITY);
    }

    #[test]
    fn signs_derive_from_intervals() {
        assert_eq!(Interval::point(0.0).sign(), Sign::Zero);
        assert_eq!(Interval::new(0.5, 2.0).sign(), Sign::Positive);
        assert_eq!(Interval::new(-2.0, -0.5).sign(), Sign::Negative);
        assert_eq!(Interval::new(0.0, 2.0).sign(), Sign::NonNegative);
        assert_eq!(Interval::new(-2.0, 0.0).sign(), Sign::NonPositive);
        assert_eq!(Interval::new(-1.0, 1.0).sign(), Sign::Unknown);
    }

    #[test]
    fn from_matrix_is_tight_and_flags_specials() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -3.0, f32::INFINITY, 2.0]);
        let v = AbsVal::from_matrix(&m);
        assert_eq!(v.range.lo, -3.0);
        assert_eq!(v.range.hi, f32::INFINITY);
        assert!(v.nan_free);
        assert!(!v.inf_free);
        assert!(v.over_approximates(&m).is_ok());
    }

    #[test]
    fn over_approximation_rejects_escapes() {
        let v = AbsVal::finite(Dim::Const(1), Dim::Const(2), 0.0, 1.0);
        let inside = Matrix::from_vec(1, 2, vec![0.25, 1.0]);
        let outside = Matrix::from_vec(1, 2, vec![0.25, 1.5]);
        let nan = Matrix::from_vec(1, 2, vec![0.25, f32::NAN]);
        assert!(v.over_approximates(&inside).is_ok());
        assert!(v.over_approximates(&outside).is_err());
        assert!(v.over_approximates(&nan).is_err());
    }

    #[test]
    fn concrete_tape_analysis_is_clean_and_tracks_ranges() {
        let mut tape = Tape::new(0);
        let x = tape.constant(mat(3, 2, |i| {
            i as f32 - 2.0 // lint:allow(lossy-cast) -- tiny test indices
        }));
        let r = tape.relu(x);
        let s = tape.sigmoid(r);
        let out = tape.sum_all(s);
        let report = tape.absint();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.value(r).range.lo >= 0.0);
        let sv = report.value(s);
        assert!(sv.range.subset_of(Interval::new(0.0, 1.0)));
        assert!(sv.nan_free && sv.inf_free);
        assert!(report.value(out).nan_free);
        assert!(report.unknown_shapes.is_empty());
        // Topological order: fixed point confirmed on the second sweep.
        assert_eq!(report.iterations, 2);
    }

    #[test]
    fn assumed_symbolic_dims_flow_through() {
        let mut tape = Tape::new(0);
        let x = tape.constant(mat(4, 3, |_| 0.5));
        let y = tape.relu(x);
        let assumed = AbsVal::finite(Dim::Sym("N"), Dim::Const(3), -1.0, 1.0);
        let report = tape.absint_assuming(&[(x, assumed)]);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        let yv = report.value(y);
        assert_eq!(yv.rows, Dim::Sym("N"));
        assert_eq!(yv.range, Interval::new(0.0, 1.0));
    }

    /// Property harness: the abstract transfer of an op must over-
    /// approximate 256 random concrete executions drawn from the declared
    /// input domains.
    fn assert_over_approximates(
        domains: &[(usize, usize, Interval)],
        record: impl Fn(&mut Tape, &[Tensor]) -> Tensor,
    ) {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        // Abstract result, computed once from the declared domains.
        let mut probe = Tape::new(0);
        let probe_inputs: Vec<Tensor> = domains
            .iter()
            .map(|&(r, c, iv)| {
                probe.constant(mat(r, c, |_| (0.5 * (iv.lo + iv.hi)).clamp(iv.lo, iv.hi)))
            })
            .collect();
        let probe_out = record(&mut probe, &probe_inputs);
        let assumptions: Vec<(Tensor, AbsVal)> = probe_inputs
            .iter()
            .zip(domains)
            .map(|(&t, &(r, c, iv))| {
                (t, AbsVal::finite(Dim::Const(r), Dim::Const(c), iv.lo, iv.hi))
            })
            .collect();
        let abs = probe.absint_assuming(&assumptions);
        assert!(abs.is_clean(), "abstract eval failed: {:?}", abs.violations);
        let abs_out = *abs.value(probe_out);

        for run in 0..256 {
            let mut tape = Tape::new(run);
            let inputs: Vec<Tensor> = domains
                .iter()
                .map(|&(r, c, iv)| tape.constant(mat(r, c, |_| rng.gen_range(iv.lo..=iv.hi))))
                .collect();
            let out = record(&mut tape, &inputs);
            let concrete = tape.value(out).clone();
            abs_out
                .over_approximates(&concrete)
                .unwrap_or_else(|e| panic!("run {run}: {e}; abstract {abs_out}"));
        }
    }

    #[test]
    fn transfer_over_approximates_add_sub_mul() {
        let d = [(3, 2, Interval::new(-2.0, 2.0)), (3, 2, Interval::new(-1.0, 3.0))];
        assert_over_approximates(&d, |t, i| t.add(i[0], i[1]));
        assert_over_approximates(&d, |t, i| t.sub(i[0], i[1]));
        assert_over_approximates(&d, |t, i| t.mul(i[0], i[1]));
    }

    #[test]
    fn transfer_over_approximates_unary_activations() {
        let d = [(4, 3, Interval::new(-3.0, 3.0))];
        assert_over_approximates(&d, |t, i| t.relu(i[0]));
        assert_over_approximates(&d, |t, i| t.leaky_relu(i[0], 0.2));
        assert_over_approximates(&d, |t, i| t.elu(i[0]));
        assert_over_approximates(&d, |t, i| t.tanh(i[0]));
        assert_over_approximates(&d, |t, i| t.sigmoid(i[0]));
        assert_over_approximates(&d, |t, i| t.abs(i[0]));
        assert_over_approximates(&d, |t, i| t.scale(i[0], -1.5));
        assert_over_approximates(&d, |t, i| t.scale(i[0], 0.0));
        assert_over_approximates(&d, |t, i| t.add_scalar(i[0], 2.5));
        // Train-mode dropout: every run draws its own mask.
        assert_over_approximates(&d, |t, i| t.dropout(i[0], 0.5));
        // Degenerate domains pin the transfer to libm at a single point, so
        // only the widening by the vectorized kernels' error bound admits
        // their result: the rational tanh's error peaks near 2.85 and 5.98,
        // sigmoid's exp-driven error is largest far left, and below -88 the
        // vectorized sigmoid flushes to zero while libm is still subnormal.
        for p in [2.85, -2.85, 4.9097695, 5.98179, -86.29562, -88.5, 0.0004, 1e-30] {
            let point = [(2, 2, Interval::point(p))];
            assert_over_approximates(&point, |t, i| t.tanh(i[0]));
            assert_over_approximates(&point, |t, i| t.sigmoid(i[0]));
        }
    }

    #[test]
    fn transfer_over_approximates_linalg() {
        let mm = [(3, 4, Interval::new(-1.0, 1.0)), (4, 2, Interval::new(-2.0, 2.0))];
        assert_over_approximates(&mm, |t, i| t.matmul(i[0], i[1]));
        // Mixed-sign sparse values, and row 1 is empty.
        let s = std::sync::Arc::new(crate::Csr::from_coo(
            4,
            3,
            &[(0, 0, 1.5), (0, 2, -2.0), (2, 1, 0.5), (3, 0, -0.25), (3, 1, 3.0), (3, 2, 1.0)],
        ));
        let sp = [(3, 2, Interval::new(-2.0, 2.0))];
        assert_over_approximates(&sp, move |t, i| t.spmm(&s, i[0]));
        let one = [(3, 4, Interval::new(-2.0, 2.0))];
        assert_over_approximates(&one, |t, i| t.row_sum(i[0]));
        assert_over_approximates(&one, |t, i| t.sum_all(i[0]));
        assert_over_approximates(&one, |t, i| t.mean_all(i[0]));
        assert_over_approximates(&one, |t, i| t.softmax_rows(i[0]));
        assert_over_approximates(&one, |t, i| t.log_softmax_rows(i[0]));
        assert_over_approximates(&one, |t, i| t.slice_cols(i[0], 1, 3));
        let bias = [(3, 4, Interval::new(-1.0, 1.0)), (1, 4, Interval::new(-0.5, 0.5))];
        assert_over_approximates(&bias, |t, i| t.add_bias(i[0], i[1]));
        let cc = [(3, 2, Interval::new(-1.0, 1.0)), (3, 3, Interval::new(0.0, 2.0))];
        assert_over_approximates(&cc, |t, i| t.concat_cols(&[i[0], i[1]]));
        assert_over_approximates(&cc, |t, i| {
            let sliced = t.slice_cols(i[1], 0, 2);
            t.max_stack(&[i[0], sliced])
        });
        let bw = [(3, 4, Interval::new(-1.0, 1.0)), (3, 1, Interval::new(0.0, 1.0))];
        assert_over_approximates(&bw, |t, i| t.mul_col_broadcast(i[0], i[1]));
        let ms = [(3, 4, Interval::new(-1.0, 1.0)), (1, 1, Interval::new(-2.0, 2.0))];
        assert_over_approximates(&ms, |t, i| t.mul_scalar_tensor(i[0], i[1]));
    }

    #[test]
    fn transfer_over_approximates_segment_ops() {
        use crate::ops::Segments;
        use std::sync::Arc;
        // Includes an empty segment: every reduction interval must admit 0.
        let segs = Arc::new(Segments::from_lengths(&[3, 0, 4, 2, 1]));
        let total = segs.total_len();
        let d = [(total, 3, Interval::new(-2.0, 2.0))];
        let s1 = segs.clone();
        assert_over_approximates(&d, move |t, i| t.segment_sum(i[0], &s1));
        let s2 = segs.clone();
        assert_over_approximates(&d, move |t, i| t.segment_mean(i[0], &s2));
        let s3 = segs.clone();
        assert_over_approximates(&d, move |t, i| t.segment_max(i[0], &s3));
        let scores = [(total, 1, Interval::new(-3.0, 3.0))];
        let s4 = segs.clone();
        assert_over_approximates(&scores, move |t, i| t.segment_softmax(i[0], &s4));
        let att = [(total, 1, Interval::new(-3.0, 3.0)), (total, 3, Interval::new(-2.0, 2.0))];
        let s5 = segs.clone();
        assert_over_approximates(&att, move |t, i| t.segment_attention(i[0], i[1], &s5));
        let idx: Arc<Vec<u32>> = Arc::new(vec![0, 3, 3, 1, 2, 0, 3, 2, 1, 0]);
        let gather = [(4, 3, Interval::new(-2.0, 2.0))];
        let gi = idx.clone();
        assert_over_approximates(&gather, move |t, i| t.gather_rows(i[0], &gi));
        let ga = [(total, 1, Interval::new(-3.0, 3.0)), (4, 3, Interval::new(-2.0, 2.0))];
        let s6 = segs.clone();
        let gi = idx.clone();
        assert_over_approximates(&ga, move |t, i| t.gather_attention(i[0], i[1], &gi, &s6));
        // |score| ≤ Σ|w_k|; the point domain puts every tanh at its
        // saturated ±1, where the bound is tight.
        let to: Arc<Vec<u32>> = Arc::new(vec![1, 0, 2, 2, 0, 1, 1, 2, 0, 0]);
        for gl in [
            [
                (4, 3, Interval::new(-2.0, 2.0)),
                (3, 3, Interval::new(-1.0, 3.0)),
                (3, 1, Interval::new(-1.5, 0.5)),
            ],
            [
                (4, 3, Interval::point(9.0)),
                (3, 3, Interval::point(9.0)),
                (3, 1, Interval::point(0.7)),
            ],
        ] {
            let (gi, gt) = (idx.clone(), to.clone());
            assert_over_approximates(&gl, move |t, i| {
                t.gen_linear_score(i[0], i[1], i[2], &gi, &gt)
            });
        }
    }

    #[test]
    fn transfer_over_approximates_losses() {
        use std::sync::Arc;
        let logits = [(6, 4, Interval::new(-4.0, 4.0))];
        let labels: Arc<Vec<u32>> = Arc::new(vec![0, 1, 2, 3, 0, 1]);
        let rows: Arc<Vec<u32>> = Arc::new(vec![0, 1, 3, 4, 5]);
        let r1 = rows.clone();
        assert_over_approximates(&logits, move |t, i| t.cross_entropy(i[0], &labels, &r1));
        let bce = [(6, 2, Interval::new(-4.0, 4.0))];
        let targets: Arc<Matrix> = Arc::new(Matrix::from_vec(
            6,
            2,
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
        ));
        assert_over_approximates(&bce, move |t, i| t.bce_with_logits(i[0], &targets, &rows));
    }

    #[test]
    fn shape_violation_is_reported_not_dropped() {
        // Pin an abstract shape that contradicts the recorded op wiring:
        // add() of 3x2 and (assumed) 3x5 must violate the transfer contract.
        let mut tape = Tape::new(0);
        let a = tape.constant(mat(3, 2, |_| 1.0));
        let b = tape.constant(mat(3, 2, |_| 2.0));
        let sum = tape.add(a, b);
        let bad = AbsVal::finite(Dim::Const(3), Dim::Const(5), 0.0, 1.0);
        let report = tape.absint_assuming(&[(b, bad)]);
        assert!(!report.is_clean());
        assert_eq!(report.violations[0].node, sum.index());
        assert!(report.violations[0].message.contains("col mismatch"));
    }

    #[test]
    fn segment_coverage_violation_is_reported() {
        use crate::ops::Segments;
        use std::sync::Arc;
        // segment_sum over 6 value rows with segments covering 5: the
        // recorded tape cannot even be built (the kernel asserts), so pin
        // an abstract row count that contradicts the segment total.
        let segs = Arc::new(Segments::from_lengths(&[3, 2]));
        let mut tape = Tape::new(0);
        let x = tape.constant(mat(5, 2, |_| 1.0));
        let out = tape.segment_sum(x, &segs);
        let bad = AbsVal::finite(Dim::Const(6), Dim::Const(2), -1.0, 1.0);
        let report = tape.absint_assuming(&[(x, bad)]);
        assert!(!report.is_clean());
        assert_eq!(report.violations[0].node, out.index());
        assert!(report.violations[0].message.contains("segment"), "{}", report.violations[0]);
    }
}
