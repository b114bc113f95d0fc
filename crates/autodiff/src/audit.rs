//! Static analysis of recorded tapes.
//!
//! A [`Tape`] is a Wengert list: a flat, already-scheduled dataflow graph
//! with eagerly computed forward values. That makes it cheap to *audit*
//! without running backward — every op declares its input arity and one
//! shape rule ([`Op::arity`] / [`Op::shape`]), and the auditor replays
//! those declarations against what was actually recorded.
//!
//! [`Tape::audit`] runs five passes and collects everything it finds into a
//! [`TapeReport`]:
//!
//! 1. **Arity check** — each node's recorded input count matches its op's
//!    declared [`Arity`].
//! 2. **Shape consistency** — the op's shape rule accepts the recorded
//!    input shapes (e.g. `matmul` inner dimensions agree) and infers the
//!    recorded output shape.
//! 3. **Reachability** — a reverse walk from the loss node flags recorded
//!    compute that can never receive gradient (dead compute) and parameter
//!    leaves the loss does not depend on (dead parameters, the classic
//!    silently-frozen-weight bug).
//! 4. **Fan accounting** — counts fan-out per node; nodes consumed more than
//!    once are gradient *accumulation points* (their backward contributions
//!    are summed), which is where reordering or missed contributions would
//!    bite. Summary statistics land in [`FanStats`].
//! 5. **Non-finite scan** — forward values are scanned for `NaN`/`±inf`;
//!    only *origins* (non-finite nodes whose inputs are all finite) are
//!    reported, with op-name provenance, so one overflow does not drown the
//!    report in downstream noise. [`Tape::audit_with_gradients`] extends the
//!    scan to a [`Gradients`] set, naming offending parameters via the
//!    [`VarStore`].
//!
//! The report is `Display`-able and is what the training and search loops
//! emit behind their `audit_every` debug flags.
//!
//! [`Op::arity`]: crate::tape::Op::arity
//! [`Op::shape`]: crate::tape::Op::shape

use crate::tape::{Gradients, Tape, Tensor, VarStore};

/// Declared number of inputs an op consumes from the tape.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n` inputs.
    Exact(usize),
    /// `n` or more inputs (variadic ops such as `concat_cols`).
    AtLeast(usize),
}

impl Arity {
    /// Whether a recorded input count satisfies this declaration.
    pub fn accepts(self, n: usize) -> bool {
        match self {
            Arity::Exact(k) => n == k,
            Arity::AtLeast(k) => n >= k,
        }
    }
}

impl std::fmt::Display for Arity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arity::Exact(k) => write!(f, "exactly {k}"),
            Arity::AtLeast(k) => write!(f, "at least {k}"),
        }
    }
}

/// The building block of every op's shape rule: `Err` naming `what` unless
/// `a == b`.
pub(crate) fn require_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    a: T,
    b: T,
) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} vs {b:?}"))
    }
}

/// How bad a finding is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong (dead compute, dead parameters).
    Warning,
    /// The tape violates an op contract or carries non-finite numbers.
    Error,
}

/// What kind of defect a finding describes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// A node's recorded input count contradicts its op's declared arity.
    ArityMismatch,
    /// A node's recorded shapes contradict its op's shape rule.
    ShapeMismatch,
    /// A non-leaf node the loss does not depend on: wasted forward compute.
    DeadCompute,
    /// A parameter leaf the loss does not depend on: it will never train.
    DeadParam,
    /// A forward value where `NaN`/`±inf` first appears.
    NonFiniteValue,
    /// A parameter gradient containing `NaN`/`±inf`.
    NonFiniteGradient,
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FindingKind::ArityMismatch => "arity-mismatch",
            FindingKind::ShapeMismatch => "shape-mismatch",
            FindingKind::DeadCompute => "dead-compute",
            FindingKind::DeadParam => "dead-param",
            FindingKind::NonFiniteValue => "non-finite-value",
            FindingKind::NonFiniteGradient => "non-finite-gradient",
        };
        f.write_str(s)
    }
}

/// One defect the auditor found, with provenance.
#[derive(Clone, Debug)]
pub struct Finding {
    pub kind: FindingKind,
    pub severity: Severity,
    /// Index of the offending node on the tape, when the finding is about a
    /// node (gradient findings are about parameters instead).
    pub node: Option<usize>,
    /// Name of the offending op, when known.
    pub op: Option<&'static str>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "[{sev}] {}", self.kind)?;
        if let Some(n) = self.node {
            write!(f, " @ node {n}")?;
        }
        if let Some(op) = self.op {
            write!(f, " ({op})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Fan-in / fan-out accounting over the tape.
#[derive(Clone, Debug, Default)]
pub struct FanStats {
    /// Nodes consumed by more than one downstream op — their gradients are
    /// accumulated (summed) during backward.
    pub accumulation_points: usize,
    /// Largest number of consumers of any single node.
    pub max_fan_out: usize,
    /// Node achieving `max_fan_out`, if any node has consumers.
    pub max_fan_out_node: Option<usize>,
    /// Largest number of inputs of any single node.
    pub max_fan_in: usize,
    /// Node achieving `max_fan_in`, if any node has inputs.
    pub max_fan_in_node: Option<usize>,
}

/// Result of auditing one recorded tape.
#[derive(Clone, Debug)]
pub struct TapeReport {
    /// Everything the auditor flagged, in pass order.
    pub findings: Vec<Finding>,
    /// Total recorded nodes.
    pub num_nodes: usize,
    /// Nodes the loss depends on (including leaves).
    pub reachable_nodes: usize,
    /// Parameter leaves recorded on the tape.
    pub num_param_nodes: usize,
    /// Fan-in / fan-out summary.
    pub fan: FanStats,
    /// Buffer-pool activity attributable to *this tape* (counters since
    /// the tape was created; `buffers`/`floats` describe the pool's
    /// current contents). In steady-state training the per-tape hit rate
    /// approaches 1.0 and `misses` stays at zero — per-step heap growth
    /// from tape buffers is zero. Earlier versions reported
    /// process-lifetime counters here, which accumulated across epochs
    /// and hid late-run regressions.
    pub pool: crate::pool::PoolStats,
}

impl TapeReport {
    /// True when the auditor found nothing at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// True when at least one finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Findings of one kind (convenience for tests and callers).
    pub fn of_kind(&self, kind: FindingKind) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.kind == kind)
    }
}

impl std::fmt::Display for TapeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "tape audit: {} nodes ({} reachable from loss, {} params), \
             {} accumulation points (max fan-out {}{})",
            self.num_nodes,
            self.reachable_nodes,
            self.num_param_nodes,
            self.fan.accumulation_points,
            self.fan.max_fan_out,
            match self.fan.max_fan_out_node {
                Some(n) => format!(" at node {n}"),
                None => String::new(),
            },
        )?;
        writeln!(f, "  buffer pool: {}", self.pool)?;
        if self.findings.is_empty() {
            write!(f, "  clean: no findings")
        } else {
            write!(f, "  {} finding(s):", self.findings.len())?;
            for finding in &self.findings {
                write!(f, "\n  {finding}")?;
            }
            Ok(())
        }
    }
}

impl Tape {
    /// Per-node reachability from `output` via a reverse walk over inputs:
    /// `true` for every node the output depends on, itself included.
    fn reachable_from(&self, output: Tensor) -> Vec<bool> {
        let mut reachable = vec![false; self.len()];
        let mut stack = vec![output.0];
        reachable[output.0] = true;
        while let Some(i) = stack.pop() {
            for t in &self.node(i).inputs {
                if !reachable[t.0] {
                    reachable[t.0] = true;
                    stack.push(t.0);
                }
            }
        }
        reachable
    }

    /// Audits the tape as a computation ending at `output` (the loss node).
    ///
    /// Runs all static passes: arity, shape consistency, reachability /
    /// dead compute / dead parameters, fan accounting and the non-finite
    /// scan of forward values. Does not execute any backward computation.
    ///
    /// Pass the [`VarStore`] used to record parameters so dead-parameter
    /// findings can name the offending parameter.
    pub fn audit(&self, output: Tensor, store: Option<&VarStore>) -> TapeReport {
        let n = self.len();
        assert!(output.0 < n, "audit output node {} out of range", output.0);
        let mut findings = Vec::new();

        // Pass 1 + 2: declared arity and shape rule vs recorded reality.
        for i in 0..n {
            let node = self.node(i);
            let op_name = node.op.name();
            let shapes: Vec<(usize, usize)> =
                node.inputs.iter().map(|t| self.value(*t).shape()).collect();

            let arity = node.op.arity();
            if !arity.accepts(shapes.len()) {
                findings.push(Finding {
                    kind: FindingKind::ArityMismatch,
                    severity: Severity::Error,
                    node: Some(i),
                    op: Some(op_name),
                    message: format!(
                        "recorded with {} input(s) but declares {arity}",
                        shapes.len()
                    ),
                });
                // Shape inference over a malformed input list is meaningless.
                continue;
            }

            // Leaves have nothing to infer from; their recorded value is
            // their shape.
            if shapes.is_empty() {
                continue;
            }
            let actual = node.value.shape();
            let message = match node.op.shape(&shapes) {
                Err(msg) => format!("inconsistent input shapes {shapes:?}: {msg}"),
                Ok(out) if out != actual => {
                    format!(
                        "inputs {shapes:?} infer output {out:?} but recorded value is {actual:?}"
                    )
                }
                Ok(_) => continue,
            };
            findings.push(Finding {
                kind: FindingKind::ShapeMismatch,
                severity: Severity::Error,
                node: Some(i),
                op: Some(op_name),
                message,
            });
        }

        // Fan accounting.
        let mut fan_out = vec![0usize; n];
        let mut fan = FanStats::default();
        for i in 0..n {
            let node = self.node(i);
            for t in &node.inputs {
                fan_out[t.0] += 1;
            }
            if node.inputs.len() > fan.max_fan_in {
                fan.max_fan_in = node.inputs.len();
                fan.max_fan_in_node = Some(i);
            }
        }
        for (i, &fo) in fan_out.iter().enumerate() {
            if fo > 1 {
                fan.accumulation_points += 1;
            }
            if fo > fan.max_fan_out {
                fan.max_fan_out = fo;
                fan.max_fan_out_node = Some(i);
            }
        }

        // Pass 3: reachability from the loss.
        let reachable = self.reachable_from(output);
        let reachable_nodes = reachable.iter().filter(|&&r| r).count();

        let mut num_param_nodes = 0;
        for i in 0..n {
            let node = self.node(i);
            if let Some(pid) = node.param {
                num_param_nodes += 1;
                if !reachable[i] {
                    let name = store
                        .map(|s| format!("`{}`", s.name(pid)))
                        .unwrap_or_else(|| format!("#{}", pid.index()));
                    findings.push(Finding {
                        kind: FindingKind::DeadParam,
                        severity: Severity::Warning,
                        node: Some(i),
                        op: Some(node.op.name()),
                        message: format!(
                            "parameter {name} is recorded but the loss does \
                             not depend on it; it will receive no gradient"
                        ),
                    });
                }
            } else if !reachable[i] && !node.inputs.is_empty() {
                findings.push(Finding {
                    kind: FindingKind::DeadCompute,
                    severity: Severity::Warning,
                    node: Some(i),
                    op: Some(node.op.name()),
                    message: "computed but the loss does not depend on it \
                              (wasted forward work)"
                        .to_string(),
                });
            }
        }

        // Pass 5: non-finite origins in forward values. A node is an origin
        // when its value is non-finite but all its inputs are finite, so the
        // report names where the overflow *started*, not everything it
        // poisoned downstream.
        let non_finite: Vec<bool> = (0..n).map(|i| self.node(i).value.has_non_finite()).collect();
        for i in 0..n {
            if non_finite[i] && self.node(i).inputs.iter().all(|t| !non_finite[t.0]) {
                findings.push(Finding {
                    kind: FindingKind::NonFiniteValue,
                    severity: Severity::Error,
                    node: Some(i),
                    op: Some(self.node(i).op.name()),
                    message: "forward value contains NaN/inf and all inputs \
                              are finite (non-finite origin)"
                        .to_string(),
                });
            }
        }

        TapeReport {
            findings,
            num_nodes: n,
            reachable_nodes,
            num_param_nodes,
            fan,
            pool: self.pool_activity(),
        }
    }

    /// [`Tape::audit`], extended with a non-finite scan over a gradient set
    /// produced by this tape's backward sweep.
    pub fn audit_with_gradients(
        &self,
        output: Tensor,
        store: Option<&VarStore>,
        grads: &Gradients,
    ) -> TapeReport {
        let mut report = self.audit(output, store);
        for (pid, g) in grads.iter() {
            if g.has_non_finite() {
                let name = store
                    .map(|s| format!("`{}`", s.name(pid)))
                    .unwrap_or_else(|| format!("#{}", pid.index()));
                report.findings.push(Finding {
                    kind: FindingKind::NonFiniteGradient,
                    severity: Severity::Error,
                    node: None,
                    op: None,
                    message: format!("gradient of parameter {name} contains NaN/inf"),
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::tape::Op;

    fn small_loss_tape() -> (Tape, VarStore, Tensor) {
        let mut store = VarStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]));
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(3, 2, vec![1.0; 6]));
        let wt = tape.param(&store, w);
        let h = tape.matmul(x, wt);
        let a = tape.relu(h);
        let loss = tape.mean_all(a);
        (tape, store, loss)
    }

    #[test]
    fn clean_tape_audits_clean() {
        let (tape, store, loss) = small_loss_tape();
        let report = tape.audit(loss, Some(&store));
        assert!(report.is_clean(), "unexpected findings:\n{report}");
        assert_eq!(report.num_nodes, 5);
        assert_eq!(report.reachable_nodes, 5);
        assert_eq!(report.num_param_nodes, 1);
    }

    #[test]
    fn fan_out_counts_accumulation_points() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        // x is consumed twice: gradient w.r.t. x accumulates.
        let y = tape.mul(x, x);
        let loss = tape.sum_all(y);
        let report = tape.audit(loss, None);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.fan.accumulation_points, 1);
        assert_eq!(report.fan.max_fan_out, 2);
        assert_eq!(report.fan.max_fan_out_node, Some(x.index()));
    }

    /// Mutation test: an op whose recorded output contradicts its declared
    /// shape rule must produce a `ShapeMismatch` error.
    #[test]
    fn wrong_shape_op_is_flagged() {
        struct BrokenTransposeOp;
        impl Op for BrokenTransposeOp {
            fn backward(
                &self,
                _: &Matrix,
                grad: &Matrix,
                _: &[&Matrix],
                _wants: &[bool],
            ) -> Vec<Option<Matrix>> {
                vec![Some(grad.clone())]
            }
            fn name(&self) -> &'static str {
                "broken_transpose"
            }
            fn arity(&self) -> Arity {
                Arity::Exact(1)
            }
            fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
                // Declares a transpose...
                Ok((inputs[0].1, inputs[0].0))
            }
        }

        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 3, vec![1.0; 6]));
        // ...but records the identity: (2, 3) instead of the declared (3, 2).
        let bad = tape.push_op(
            Matrix::from_vec(2, 3, vec![1.0; 6]),
            Box::new(BrokenTransposeOp),
            vec![x],
        );
        let loss = tape.sum_all(bad);
        let report = tape.audit(loss, None);
        let f: Vec<_> = report.of_kind(FindingKind::ShapeMismatch).collect();
        assert_eq!(f.len(), 1, "{report}");
        assert_eq!(f[0].node, Some(bad.index()));
        assert_eq!(f[0].op, Some("broken_transpose"));
        assert!(report.has_errors());
    }

    /// A matmul wired with incompatible inner dimensions (which
    /// `Tape::matmul` itself would refuse to record) fails its shape rule.
    #[test]
    fn inconsistent_matmul_is_a_shape_mismatch() {
        let mut tape = Tape::new(0);
        let a = tape.constant(Matrix::from_vec(2, 3, vec![1.0; 6]));
        let b = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        let bad = tape.push_op(
            Matrix::from_vec(2, 2, vec![0.0; 4]),
            Box::new(crate::ops::linalg::MatMulOp { view: None }),
            vec![a, b],
        );
        let loss = tape.sum_all(bad);
        let report = tape.audit(loss, None);
        let f: Vec<_> = report.of_kind(FindingKind::ShapeMismatch).collect();
        assert_eq!((f.len(), f[0].node), (1, Some(bad.index())), "{report}");
        assert!(f[0].message.contains("inner dimensions"), "{}", f[0].message);
        assert!(report.has_errors());
    }

    /// Every op's shape rule, checked on one tape that records each of the
    /// 37 ops at least once, with non-square shapes so a rule that swaps
    /// rows and columns cannot pass. The fixtures cover the boundary
    /// cases: a sparse operator with an empty row, a segment layout with
    /// an empty segment, train-mode dropout, and both losses.
    #[test]
    fn every_op_passes_the_shape_pass() {
        use crate::ops::{EdgeIndex, Segments};
        use crate::Csr;
        use std::collections::BTreeSet;
        use std::sync::Arc;

        let mat = |rows: usize, cols: usize, salt: f32| {
            Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.37 + salt).sin())
        };
        let mut tape = Tape::new(3);
        let mut outs = Vec::new();

        // Elementwise ops on 4 x 3 operands.
        let a = tape.constant(mat(4, 3, 0.0));
        let b = tape.constant(mat(4, 3, 1.0));
        let s = tape.scalar(0.5);
        outs.push(tape.add(a, b));
        outs.push(tape.sub(a, b));
        outs.push(tape.mul(a, b));
        outs.push(tape.scale(a, -1.5));
        outs.push(tape.add_scalar(a, 2.5));
        outs.push(tape.mul_scalar_tensor(a, s));
        let mix_w = tape.constant(mat(1, 3, 0.5));
        outs.push(tape.mix(mix_w, &[a, b]));
        outs.push(tape.relu(a));
        outs.push(tape.leaky_relu(a, 0.2));
        outs.push(tape.elu(a));
        outs.push(tape.tanh(a));
        outs.push(tape.sigmoid(a));
        outs.push(tape.abs(a));
        outs.push(tape.dropout(a, 0.5));

        // Linear algebra: a 4 x 3 by 3 x 2 product, an operator with an
        // empty row, and the row-wise reductions.
        let w = tape.constant(mat(3, 2, 2.0));
        outs.push(tape.matmul(a, w));
        let op =
            Arc::new(Csr::from_coo(5, 4, &[(0, 0, 1.5), (0, 2, -2.0), (2, 1, 0.5), (4, 3, 1.0)]));
        outs.push(tape.spmm(&op, a));
        let bias = tape.constant(mat(1, 3, 3.0));
        outs.push(tape.add_bias(a, bias));
        let narrow = tape.constant(mat(4, 2, 4.0));
        outs.push(tape.concat_cols(&[a, narrow]));
        let sliced = tape.slice_cols(a, 1, 3);
        outs.push(tape.max_stack(&[sliced, narrow]));
        outs.push(tape.row_sum(a));
        outs.push(tape.sum_all(a));
        outs.push(tape.mean_all(a));
        outs.push(tape.softmax_rows(a));
        outs.push(tape.log_softmax_rows(a));

        // Graph ops over 10 edges into 5 segments, one of them empty.
        let segs = Arc::new(Segments::from_lengths(&[3, 0, 4, 2, 1]));
        let src: Arc<EdgeIndex> = Arc::new(EdgeIndex::new(vec![0, 3, 3, 1, 2, 0, 3, 2, 1, 0]));
        let dst: Arc<EdgeIndex> = Arc::new(EdgeIndex::new(vec![1, 0, 2, 2, 0, 1, 1, 2, 0, 0]));
        let edges = tape.gather_rows(a, &src);
        outs.push(tape.segment_sum(edges, &segs));
        outs.push(tape.segment_mean(edges, &segs));
        outs.push(tape.segment_max(edges, None, &segs));
        outs.push(tape.segment_max(a, Some(&src), &segs));
        let scores = tape.constant(mat(10, 1, 5.0));
        outs.push(tape.segment_softmax(scores, &segs));
        outs.push(tape.segment_attention(scores, edges, &segs));
        outs.push(tape.gather_attention(scores, a, &src, &segs));
        let proj_dst = tape.constant(mat(3, 3, 6.0));
        let gen_out = tape.constant(mat(3, 1, 7.0));
        outs.push(tape.gen_linear_score(a, proj_dst, gen_out, &src, &dst));
        outs.push(tape.gather_dot(a, &src, &dst));
        let col = tape.constant(mat(10, 1, 8.0));
        outs.push(tape.mul_col_broadcast(edges, col));

        // Both losses over a row subset of 6 x 4 logits.
        let logits = tape.constant(mat(6, 4, 9.0));
        let labels: Arc<Vec<u32>> = Arc::new(vec![0, 1, 2, 3, 0, 1]);
        let rows: Arc<Vec<u32>> = Arc::new(vec![0, 1, 3, 4, 5]);
        outs.push(tape.cross_entropy(logits, &labels, &rows));
        let targets = Arc::new(Matrix::from_fn(6, 4, |r, c| ((r + c) % 2) as f32));
        outs.push(tape.bce_with_logits(logits, &targets, &rows));

        let mut loss = tape.scalar(0.0);
        for out in outs {
            let total = tape.sum_all(out);
            loss = tape.add(loss, total);
        }
        let report = tape.audit(loss, None);
        assert!(report.is_clean(), "{report}");

        let ops: BTreeSet<&str> = (0..tape.len())
            .map(|i| tape.node(i).op.name())
            .filter(|&name| name != "input" && name != "param")
            .collect();
        assert_eq!(ops.len(), 37, "every op recorded once: {ops:?}");
    }

    /// The segment ops check that their rows cover the segments; the tape
    /// builders assert it too, so only the rule itself can be handed a
    /// wrong row count.
    #[test]
    fn segment_rows_that_miss_the_segments_are_rejected() {
        use crate::ops::Segments;
        use std::sync::Arc;

        let segs = Arc::new(Segments::from_lengths(&[3, 2]));
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(5, 2, vec![1.0; 10]));
        let out = tape.segment_sum(x, &segs);
        let rule = &tape.node(out.index()).op;
        assert_eq!(rule.shape(&[(5, 2)]), Ok((2, 2)));
        let err = rule.shape(&[(6, 2)]).expect_err("6 rows do not cover 5 segmented elements");
        assert!(err.contains("segment"), "{err}");
    }
    /// Mutation test: an op recorded with the wrong number of inputs must
    /// produce an `ArityMismatch` error.
    #[test]
    fn wrong_arity_is_flagged() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        let y = tape.constant(Matrix::from_vec(2, 2, vec![2.0; 4]));
        // matmul declares exactly 2 inputs; wire it with 3.
        let bad = tape.push_op(
            Matrix::from_vec(2, 2, vec![0.0; 4]),
            Box::new(crate::ops::linalg::MatMulOp { view: None }),
            vec![x, y, x],
        );
        let loss = tape.sum_all(bad);
        let report = tape.audit(loss, None);
        let f: Vec<_> = report.of_kind(FindingKind::ArityMismatch).collect();
        assert_eq!(f.len(), 1, "{report}");
        assert_eq!(f[0].op, Some("matmul"));
    }

    /// Mutation test: a parameter the loss does not depend on must produce a
    /// `DeadParam` warning naming the parameter.
    #[test]
    fn dead_parameter_is_flagged() {
        let mut store = VarStore::new();
        let used = store.add("w_used", Matrix::scalar(1.0));
        let unused = store.add("w_frozen", Matrix::scalar(2.0));
        let mut tape = Tape::new(0);
        let a = tape.param(&store, used);
        let _b = tape.param(&store, unused);
        let loss = tape.mul(a, a);
        let report = tape.audit(loss, Some(&store));
        let f: Vec<_> = report.of_kind(FindingKind::DeadParam).collect();
        assert_eq!(f.len(), 1, "{report}");
        assert!(f[0].message.contains("w_frozen"), "{}", f[0].message);
        assert!(!report.has_errors(), "dead params are warnings, not errors");
    }

    /// Every op of a dead chain is flagged, in node order, and nothing the
    /// loss depends on is: leaves and the loss itself stay out of the list.
    #[test]
    fn dead_compute_report_lists_every_dead_op() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        let w1 = tape.relu(x);
        let w2 = tape.add_scalar(w1, 1.0); // dead chain of two ops
        let live = tape.tanh(x);
        let loss = tape.sum_all(live);
        let report = tape.audit(loss, None);
        let audit_dead: Vec<usize> = report
            .of_kind(FindingKind::DeadCompute)
            .map(|f| f.node.expect("dead-compute findings name a node")) // lint:allow(expect) -- dead-compute findings name a node
            .collect();
        assert_eq!(audit_dead, vec![w1.index(), w2.index()], "{report}");
        assert_eq!(report.reachable_nodes, 3, "{report}");
    }

    #[test]
    fn dead_compute_is_flagged() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0; 4]));
        let _wasted = tape.relu(x); // never feeds the loss
        let loss = tape.sum_all(x);
        let report = tape.audit(loss, None);
        let f: Vec<_> = report.of_kind(FindingKind::DeadCompute).collect();
        assert_eq!(f.len(), 1, "{report}");
        assert_eq!(f[0].op, Some("relu"));
    }

    /// Mutation test: injected NaN must be flagged at its origin only, not
    /// at every downstream node it poisons.
    #[test]
    fn nan_injection_is_flagged_at_origin() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0, f32::NAN, 3.0, 4.0]));
        let h = tape.relu(x); // poisoned downstream
        let loss = tape.sum_all(h);
        let report = tape.audit(loss, None);
        let f: Vec<_> = report.of_kind(FindingKind::NonFiniteValue).collect();
        assert_eq!(f.len(), 1, "origin only, got:\n{report}");
        assert_eq!(f[0].node, Some(x.index()));
        assert_eq!(f[0].op, Some("input"));
    }

    #[test]
    fn non_finite_gradient_is_flagged() {
        let mut store = VarStore::new();
        let w = store.add("w", Matrix::scalar(1e20));
        let mut tape = Tape::new(0);
        let a = tape.param(&store, w);
        let b = tape.mul(a, a); // 1e40 overflows f32 -> inf
        let loss = tape.mul(b, b);
        let grads = tape.backward(loss);
        let report = tape.audit_with_gradients(loss, Some(&store), &grads);
        let f: Vec<_> = report.of_kind(FindingKind::NonFiniteGradient).collect();
        assert_eq!(f.len(), 1, "{report}");
        assert!(f[0].message.contains('w'), "{}", f[0].message);
    }

    /// The report's pool stats must cover this tape only — not accumulate
    /// across every tape the thread ever built (the old behaviour, which
    /// made per-epoch audit output useless after the first epoch).
    #[test]
    fn pool_stats_are_per_tape_not_cumulative() {
        crate::pool::reset();
        // Warm the pool with a first step's worth of buffers.
        {
            let (tape, store, loss) = small_loss_tape();
            tape.backward(loss).recycle();
            let _ = (store, tape);
        }
        let warmed = crate::pool::stats();
        assert!(warmed.misses > 0, "first step must have allocated");
        // A second, identical step audits with only its own activity.
        let (tape, store, loss) = small_loss_tape();
        let report = tape.audit(loss, Some(&store));
        assert!(
            report.pool.misses < warmed.misses,
            "report must not accumulate earlier tapes' misses \
             (report {} vs process {})",
            report.pool.misses,
            warmed.misses
        );
        drop(tape);
        crate::pool::reset();
    }

    #[test]
    fn report_display_is_readable() {
        let (tape, store, loss) = small_loss_tape();
        let report = tape.audit(loss, Some(&store));
        let text = format!("{report}");
        assert!(text.contains("clean"), "{text}");
        assert!(text.contains("5 nodes"), "{text}");
    }
}
