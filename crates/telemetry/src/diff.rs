//! Regression forensics: align two recorded traces into a diff tree and
//! attribute a regressed gate metric to the hottest changed subtree.
//!
//! ## Alignment model
//!
//! Both traces are first replayed into [`Profile`]s, so the differ works
//! on the same attribution the flamegraph uses. Span nodes align by full
//! **stack path** (root-first span names); kernel nodes align by
//! **(phase tag, kernel name)** — a span renamed between runs therefore
//! shows up as a removed path plus an added path, while its kernels (which
//! keep their phase tag) still align and diff cleanly. Nodes present on
//! only one side carry a [`Presence`] marker instead of being dropped.
//!
//! ## Delta model
//!
//! Span nodes diff total and self nanoseconds; self time has the phased
//! kernel nanoseconds grafted under the path subtracted (exactly as
//! [`Profile::to_collapsed`] does), so a kernel slowdown is charged to the
//! kernel node once, never also to its enclosing span's self time. Kernel
//! nodes diff total time and histogram quantiles; a p50/p99 shift smaller
//! than twice [`crate::metrics::QUANTILE_REL_ERROR`] is within the
//! histogram's bucket resolution and rendered as noise, not signal.
//!
//! ## Attribution
//!
//! [`attribute`] scopes the diff tree to the regressed metric's scenario
//! (first dotted component of the metric key matched against stack
//! frames), ranks the positive-delta nodes, and marks each suspect
//! significant when its delta clears a [`NoiseModel`] derived from the
//! baseline history window — `max(3 × MAD, gate floor)` — so scheduler
//! jitter on a sub-millisecond kernel is never reported as the cause of a
//! regression.
//!
//! The differential collapsed-stack export ([`TraceDiff::to_collapsed`])
//! puts regressions under a synthetic `regressed` root frame and
//! improvements (delta-magnitude-weighted) under `improved`, and
//! round-trips through [`crate::profile::parse_collapsed`].

use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::QUANTILE_REL_ERROR;
use crate::profile::{graftable, KernelStat, Profile};
use crate::value::Value;

/// Schema tag stamped on every `DIFF_<bench>.json` artifact.
pub const DIFF_SCHEMA: &str = "sane.diff.v1";

/// Which side(s) of the diff a node appeared on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Presence {
    Both,
    BaselineOnly,
    CandidateOnly,
}

impl Presence {
    pub fn label(self) -> &'static str {
        match self {
            Presence::Both => "both",
            Presence::BaselineOnly => "baseline_only",
            Presence::CandidateOnly => "candidate_only",
        }
    }

    fn marker(self) -> char {
        match self {
            Presence::Both => ' ',
            Presence::BaselineOnly => '-',
            Presence::CandidateOnly => '+',
        }
    }
}

/// One side's aggregate for a diff node. Span nodes carry `self_ns` with
/// grafted kernel time already subtracted; kernel nodes mirror their
/// total into `self_ns` and carry quantiles when the trace recorded a
/// histogram for the stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Side {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// `(p50, p99)` nanoseconds, kernel nodes only.
    pub quantiles: Option<(f64, f64)>,
}

/// One aligned node of the diff tree.
#[derive(Clone, Debug)]
pub struct DiffNode {
    /// Root-first stack path; kernel nodes end in a `kernel:<name>` leaf
    /// under the phase-declaring span path (the flamegraph convention).
    pub stack: Vec<String>,
    /// Kernel name for kernel nodes, `None` for span nodes.
    pub kernel: Option<String>,
    pub presence: Presence,
    pub base: Side,
    pub cand: Side,
}

impl DiffNode {
    pub fn total_delta_ns(&self) -> i64 {
        self.cand.total_ns as i64 - self.base.total_ns as i64
    }

    pub fn self_delta_ns(&self) -> i64 {
        self.cand.self_ns as i64 - self.base.self_ns as i64
    }

    /// The delta this node is *responsible* for: total time for kernels,
    /// grafted-adjusted self time for spans — additive across the tree,
    /// so one slow kernel is never charged twice.
    pub fn attributable_delta_ns(&self) -> i64 {
        if self.kernel.is_some() {
            self.total_delta_ns()
        } else {
            self.self_delta_ns()
        }
    }

    fn attributable_sides_ns(&self) -> (u64, u64) {
        if self.kernel.is_some() {
            (self.base.total_ns, self.cand.total_ns)
        } else {
            (self.base.self_ns, self.cand.self_ns)
        }
    }

    /// Relative change of the attributable time; `None` when the baseline
    /// side is empty (a ratio against zero carries no information).
    pub fn rel_change(&self) -> Option<f64> {
        let (b, _) = self.attributable_sides_ns();
        (b > 0).then(|| self.attributable_delta_ns() as f64 / b as f64)
    }

    /// Relative `(p50, p99)` shifts, when both sides carry quantiles with
    /// a nonzero baseline.
    pub fn quantile_shifts(&self) -> Option<(f64, f64)> {
        let (b50, b99) = self.base.quantiles?;
        let (c50, c99) = self.cand.quantiles?;
        (b50 > 0.0 && b99 > 0.0).then(|| ((c50 - b50) / b50, (c99 - b99) / b99))
    }
}

/// True when a relative quantile shift exceeds what histogram bucket
/// resolution alone can produce (each side reads back within
/// [`QUANTILE_REL_ERROR`] of the true value).
pub fn quantile_shift_significant(shift: f64) -> bool {
    shift.abs() > 2.0 * QUANTILE_REL_ERROR
}

/// The aligned diff of two traces.
#[derive(Clone, Debug, Default)]
pub struct TraceDiff {
    pub base_run: String,
    pub cand_run: String,
    pub base_wall_ns: u64,
    pub cand_wall_ns: u64,
    /// Span nodes in stack-path order, then kernel nodes in
    /// (phase, name) order — deterministic for byte-stable artifacts.
    pub nodes: Vec<DiffNode>,
}

fn kernel_side(k: &KernelStat) -> Side {
    Side {
        count: k.count,
        total_ns: k.total_ns,
        self_ns: k.total_ns,
        quantiles: k.quantiles.map(|(p50, _p90, p99)| (p50, p99)),
    }
}

/// Aligns two profiled traces into a [`TraceDiff`]. Pure and total: any
/// pair of valid profiles diffs, including empty or disjoint ones.
pub fn diff(base: &Profile, cand: &Profile) -> TraceDiff {
    let mut out = TraceDiff {
        base_run: base.run.clone(),
        cand_run: cand.run.clone(),
        base_wall_ns: base.wall_ns,
        cand_wall_ns: cand.wall_ns,
        nodes: Vec::new(),
    };

    // Span nodes: align by stack path, self time net of grafted kernels.
    let base_grafted = base.grafted_by_path();
    let cand_grafted = cand.grafted_by_path();
    let mut spans: BTreeMap<&[String], (Option<Side>, Option<Side>)> = BTreeMap::new();
    for f in &base.frames {
        let taken = base_grafted.get(&f.stack).copied().unwrap_or(0);
        let side = Side {
            count: f.count,
            total_ns: f.total_ns,
            self_ns: f.self_ns.saturating_sub(taken),
            quantiles: None,
        };
        spans.entry(&f.stack).or_default().0 = Some(side);
    }
    for f in &cand.frames {
        let taken = cand_grafted.get(&f.stack).copied().unwrap_or(0);
        let side = Side {
            count: f.count,
            total_ns: f.total_ns,
            self_ns: f.self_ns.saturating_sub(taken),
            quantiles: None,
        };
        spans.entry(&f.stack).or_default().1 = Some(side);
    }
    for (stack, (b, c)) in spans {
        out.nodes.push(DiffNode {
            stack: stack.to_vec(),
            kernel: None,
            presence: presence_of(b.is_some(), c.is_some()),
            base: b.unwrap_or_default(),
            cand: c.unwrap_or_default(),
        });
    }

    // Kernel nodes: align by (phase, name); the stack path is taken from
    // whichever side has the node (candidate wins when both do, so the
    // report shows current paths).
    type KernelKey = (Option<String>, String);
    let mut kernels: BTreeMap<KernelKey, (Option<&KernelStat>, Option<&KernelStat>)> =
        BTreeMap::new();
    for k in &base.kernels {
        kernels.entry((k.phase.clone(), k.name.clone())).or_default().0 = Some(k);
    }
    for k in &cand.kernels {
        kernels.entry((k.phase.clone(), k.name.clone())).or_default().1 = Some(k);
    }
    for ((_phase, name), (b, c)) in kernels {
        let stack = match (b, c) {
            (_, Some(k)) => cand.kernel_stack(k),
            (Some(k), None) => base.kernel_stack(k),
            (None, None) => continue,
        };
        out.nodes.push(DiffNode {
            stack,
            kernel: Some(name),
            presence: presence_of(b.is_some(), c.is_some()),
            base: b.map(kernel_side).unwrap_or_default(),
            cand: c.map(kernel_side).unwrap_or_default(),
        });
    }
    out
}

fn presence_of(base: bool, cand: bool) -> Presence {
    match (base, cand) {
        (true, false) => Presence::BaselineOnly,
        (false, true) => Presence::CandidateOnly,
        _ => Presence::Both,
    }
}

impl TraceDiff {
    /// Nodes with any delta or one-sided presence, hottest (largest
    /// absolute attributable delta) first; ties break on stack path.
    pub fn changed(&self) -> Vec<&DiffNode> {
        let mut out: Vec<&DiffNode> = self
            .nodes
            .iter()
            .filter(|n| n.attributable_delta_ns() != 0 || n.presence != Presence::Both)
            .collect();
        out.sort_by(|a, b| {
            b.attributable_delta_ns()
                .abs()
                .cmp(&a.attributable_delta_ns().abs())
                .then_with(|| a.stack.cmp(&b.stack))
        });
        out
    }

    /// The machine-readable diff ([`DIFF_SCHEMA`]); `attributions` are the
    /// per-regressed-metric verdicts produced by [`attribute`].
    pub fn to_json(&self, attributions: &[Attribution]) -> Value {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let side = |s: &Side| {
                    let mut fields = vec![
                        ("count".to_string(), Value::UInt(s.count)),
                        ("total_ns".to_string(), Value::UInt(s.total_ns)),
                        ("self_ns".to_string(), Value::UInt(s.self_ns)),
                    ];
                    if let Some((p50, p99)) = s.quantiles {
                        fields.push(("p50_ns".to_string(), Value::Num(p50)));
                        fields.push(("p99_ns".to_string(), Value::Num(p99)));
                    }
                    Value::Obj(fields)
                };
                Value::Obj(vec![
                    (
                        "stack".to_string(),
                        Value::Arr(n.stack.iter().cloned().map(Value::Str).collect()),
                    ),
                    (
                        "kind".to_string(),
                        Value::Str(if n.kernel.is_some() { "kernel" } else { "span" }.to_string()),
                    ),
                    ("presence".to_string(), Value::Str(n.presence.label().to_string())),
                    ("base".to_string(), side(&n.base)),
                    ("cand".to_string(), side(&n.cand)),
                    ("total_delta_ns".to_string(), Value::Int(n.total_delta_ns())),
                    ("self_delta_ns".to_string(), Value::Int(n.self_delta_ns())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(DIFF_SCHEMA.to_string())),
            ("base_run".to_string(), Value::Str(self.base_run.clone())),
            ("cand_run".to_string(), Value::Str(self.cand_run.clone())),
            ("base_wall_ns".to_string(), Value::UInt(self.base_wall_ns)),
            ("cand_wall_ns".to_string(), Value::UInt(self.cand_wall_ns)),
            ("nodes".to_string(), Value::Arr(nodes)),
            (
                "attributions".to_string(),
                Value::Arr(attributions.iter().map(Attribution::to_json).collect()),
            ),
        ])
    }

    /// Differential collapsed stacks: regressions grow under a synthetic
    /// `regressed` root, improvements under `improved` (weighted by delta
    /// magnitude, since collapsed counts are unsigned). Load either root
    /// in a flamegraph viewer to see where the time went. Output parses
    /// with [`crate::profile::parse_collapsed`]; enclosing kernels (whose
    /// samples contain other kernels) are excluded, as in single-run
    /// flamegraphs.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            if n.kernel.as_deref().is_some_and(|k| !graftable(k)) {
                continue;
            }
            let delta = n.attributable_delta_ns();
            if delta == 0 {
                continue;
            }
            out.push_str(if delta > 0 { "regressed;" } else { "improved;" });
            out.push_str(&n.stack.join(";"));
            out.push(' ');
            out.push_str(&delta.unsigned_abs().to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let wall_delta = self.cand_wall_ns as i64 - self.base_wall_ns as i64;
        writeln!(
            f,
            "trace diff: `{}` -> `{}` ({:.3} ms -> {:.3} ms wall, {:+.3} ms)",
            self.base_run,
            self.cand_run,
            self.base_wall_ns as f64 / 1e6,
            self.cand_wall_ns as f64 / 1e6,
            wall_delta as f64 / 1e6
        )?;
        let changed = self.changed();
        if changed.is_empty() {
            return writeln!(f, "  no changed nodes: traces attribute identically");
        }
        writeln!(
            f,
            "   {:<52} {:>10} {:>10} {:>10} {:>8}  p50/p99",
            "node (kernels carry total, spans self time)", "base ms", "cand ms", "delta ms", "rel"
        )?;
        const SHOWN: usize = 24;
        for n in changed.iter().take(SHOWN) {
            let (b, c) = n.attributable_sides_ns();
            let rel = match n.rel_change() {
                Some(r) => format!("{:+.1}%", r * 100.0),
                None => "-".to_string(),
            };
            let quant = match n.quantile_shifts() {
                Some((p50, p99)) => {
                    let mark = |s: f64| {
                        if quantile_shift_significant(s) {
                            format!("{:+.0}%", s * 100.0)
                        } else {
                            // Under bucket resolution: noise, not signal.
                            "~".to_string()
                        }
                    };
                    format!("{}/{}", mark(p50), mark(p99))
                }
                None => String::new(),
            };
            writeln!(
                f,
                "  {} {:<52} {:>10.3} {:>10.3} {:>+10.3} {:>8}  {quant}",
                n.presence.marker(),
                n.stack.join(";"),
                b as f64 / 1e6,
                c as f64 / 1e6,
                n.attributable_delta_ns() as f64 / 1e6,
                rel
            )?;
        }
        if changed.len() > SHOWN {
            writeln!(
                f,
                "  ... {} more changed node(s) in the JSON artifact",
                changed.len() - SHOWN
            )?;
        }
        Ok(())
    }
}

/// Median absolute deviation: the robust per-sample scatter of a history
/// window (insensitive to the spikes the gate's median already absorbs).
/// Zero for empty or constant windows.
pub fn mad(samples: &[f64]) -> f64 {
    fn median(mut xs: Vec<f64>) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        if n % 2 == 1 {
            xs[n / 2]
        } else {
            (xs[n / 2 - 1] + xs[n / 2]) / 2.0
        }
    }
    if samples.is_empty() {
        return 0.0;
    }
    let m = median(samples.to_vec());
    median(samples.iter().map(|x| (x - m).abs()).collect())
}

/// Expected run-to-run scatter of one gate metric, derived from its
/// baseline history window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NoiseModel {
    /// Robust per-sample scatter (MAD of the window), milliseconds.
    pub sigma_ms: f64,
    /// The gate's absolute floor, milliseconds.
    pub floor_ms: f64,
}

impl NoiseModel {
    /// Builds the model from the trailing history window of the metric
    /// (the same samples the gate took its median over).
    pub fn from_window(window: &[f64], floor_ms: f64) -> Self {
        NoiseModel { sigma_ms: mad(window), floor_ms }
    }

    /// A suspect's delta must clear this to count as signal: three robust
    /// sigmas, but never below the gate's own floor.
    pub fn threshold_ms(&self) -> f64 {
        (3.0 * self.sigma_ms).max(self.floor_ms)
    }
}

/// One ranked cause candidate for a regressed metric.
#[derive(Clone, Debug)]
pub struct Suspect {
    pub stack: Vec<String>,
    /// Attributable delta (kernel total / span self), milliseconds.
    pub delta_ms: f64,
    pub base_ms: f64,
    pub cand_ms: f64,
    pub rel: Option<f64>,
    pub p50_shift: Option<f64>,
    pub p99_shift: Option<f64>,
    /// Delta clears the noise threshold.
    pub significant: bool,
    pub presence: Presence,
}

/// The attribution verdict for one regressed gate metric.
#[derive(Clone, Debug)]
pub struct Attribution {
    pub metric: String,
    /// Scenario frame the diff tree was scoped to; `None` when no frame
    /// matched and the whole tree was ranked.
    pub scope: Option<String>,
    /// Gate numbers: the regressed median and committed base, ms.
    pub median_ms: f64,
    pub base_ms: f64,
    pub noise: NoiseModel,
    /// Positive-delta nodes, hottest first.
    pub suspects: Vec<Suspect>,
}

impl Attribution {
    /// The hottest suspect — the report's one-line answer.
    pub fn top(&self) -> Option<&Suspect> {
        self.suspects.first()
    }

    pub fn to_json(&self) -> Value {
        let opt = |v: Option<f64>| v.map(Value::Num).unwrap_or(Value::Null);
        let suspects = self
            .suspects
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    (
                        "stack".to_string(),
                        Value::Arr(s.stack.iter().cloned().map(Value::Str).collect()),
                    ),
                    ("delta_ms".to_string(), Value::Num(s.delta_ms)),
                    ("base_ms".to_string(), Value::Num(s.base_ms)),
                    ("cand_ms".to_string(), Value::Num(s.cand_ms)),
                    ("rel".to_string(), opt(s.rel)),
                    ("p50_shift".to_string(), opt(s.p50_shift)),
                    ("p99_shift".to_string(), opt(s.p99_shift)),
                    ("significant".to_string(), Value::Bool(s.significant)),
                    ("presence".to_string(), Value::Str(s.presence.label().to_string())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("metric".to_string(), Value::Str(self.metric.clone())),
            ("scope".to_string(), self.scope.clone().map(Value::Str).unwrap_or(Value::Null)),
            ("median_ms".to_string(), Value::Num(self.median_ms)),
            ("base_ms".to_string(), Value::Num(self.base_ms)),
            (
                "noise".to_string(),
                Value::Obj(vec![
                    ("sigma_ms".to_string(), Value::Num(self.noise.sigma_ms)),
                    ("floor_ms".to_string(), Value::Num(self.noise.floor_ms)),
                    ("threshold_ms".to_string(), Value::Num(self.noise.threshold_ms())),
                ]),
            ),
            ("suspects".to_string(), Value::Arr(suspects)),
        ])
    }
}

impl fmt::Display for Attribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "metric `{}`: median {:.4} ms vs base {:.4} ms ({:+.1}%), noise ±{:.4} ms \
             (threshold {:.4} ms)",
            self.metric,
            self.median_ms,
            self.base_ms,
            if self.base_ms > 0.0 {
                (self.median_ms - self.base_ms) / self.base_ms * 100.0
            } else {
                0.0
            },
            self.noise.sigma_ms,
            self.noise.threshold_ms()
        )?;
        match &self.scope {
            Some(s) => writeln!(f, "  suspects (scoped to `{s}`):")?,
            None => writeln!(f, "  suspects (no scenario frame matched; whole tree):")?,
        }
        if self.suspects.is_empty() {
            return writeln!(
                f,
                "    none: no node slowed down — the regression is outside the traced scope \
                 (setup, allocator, environment)"
            );
        }
        for (i, s) in self.suspects.iter().enumerate() {
            let rel = match s.rel {
                Some(r) => format!("x{:.2}", 1.0 + r),
                None => "new".to_string(),
            };
            let quant = match (s.p50_shift, s.p99_shift) {
                (Some(p50), Some(p99))
                    if quantile_shift_significant(p50) || quantile_shift_significant(p99) =>
                {
                    format!(", p50 {:+.0}% p99 {:+.0}%", p50 * 100.0, p99 * 100.0)
                }
                _ => String::new(),
            };
            writeln!(
                f,
                "   {:>2}. {} {:<52} {:+.4} ms ({rel}{quant}){}",
                i + 1,
                s.presence.marker(),
                s.stack.join(";"),
                s.delta_ms,
                if s.significant { "  SIGNIFICANT" } else { "  (within noise)" }
            )?;
        }
        Ok(())
    }
}

/// True when `frame` names `scenario`: exactly, or as the final dotted /
/// colon-separated component (`bench.spmm_forward` and `kernel:spmm` both
/// match their scenarios).
fn frame_matches(frame: &str, scenario: &str) -> bool {
    frame == scenario
        || frame
            .strip_suffix(scenario)
            .is_some_and(|prefix| prefix.ends_with('.') || prefix.ends_with(':'))
}

/// Attributes one regressed gate metric to the diff tree's hottest
/// changed nodes. `gate_ms` is the `(median, base)` pair the gate
/// reported; `top` caps the suspect list.
pub fn attribute(
    d: &TraceDiff,
    metric: &str,
    gate_ms: (f64, f64),
    noise: NoiseModel,
    top: usize,
) -> Attribution {
    let scenario = metric.split('.').next().unwrap_or(metric);
    let in_scope: Vec<&DiffNode> =
        d.nodes.iter().filter(|n| n.stack.iter().any(|fr| frame_matches(fr, scenario))).collect();
    let (scope, nodes) = if in_scope.is_empty() {
        (None, d.nodes.iter().collect::<Vec<_>>())
    } else {
        (Some(scenario.to_string()), in_scope)
    };

    let mut suspects: Vec<Suspect> = nodes
        .into_iter()
        .filter(|n| n.attributable_delta_ns() > 0)
        .map(|n| {
            let (b, c) = n.attributable_sides_ns();
            let delta_ms = n.attributable_delta_ns() as f64 / 1e6;
            let shifts = n.quantile_shifts();
            Suspect {
                stack: n.stack.clone(),
                delta_ms,
                base_ms: b as f64 / 1e6,
                cand_ms: c as f64 / 1e6,
                rel: n.rel_change(),
                p50_shift: shifts.map(|(p50, _)| p50),
                p99_shift: shifts.map(|(_, p99)| p99),
                significant: delta_ms >= noise.threshold_ms(),
                presence: n.presence,
            }
        })
        .collect();
    suspects.sort_by(|a, b| {
        b.delta_ms
            .partial_cmp(&a.delta_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.stack.cmp(&b.stack))
    });
    suspects.truncate(top);
    Attribution {
        metric: metric.to_string(),
        scope,
        median_ms: gate_ms.0,
        base_ms: gate_ms.1,
        noise,
        suspects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{parse_collapsed, profile};
    use std::fmt::Write as _;

    /// One synthetic kernel row: name, phase, count, summed ns. Every
    /// sample of a row takes the same time, so its quantiles are the
    /// per-call time exactly.
    type KernelRow<'a> = (&'a str, Option<&'a str>, u64, u64);

    /// Hand-built deterministic trace: a chain of nested spans (opened in
    /// order, closed in reverse) plus a metrics record holding each
    /// (kernel, phase) row's samples, exactly as the recorder would emit
    /// them.
    fn synth(run: &str, spans: &[(&str, Option<&str>, u64)], kernels: &[KernelRow]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, r#"{{"kind":"run_start","t_ns":0,"level":"info","run":"{run}"}}"#);
        for (i, (name, phase, _)) in spans.iter().enumerate() {
            let parent = if i == 0 { String::new() } else { format!(r#""parent":{i},"#) };
            let phase = phase.map(|p| format!(r#""phase":"{p}","#)).unwrap_or_default();
            let id = i + 1;
            let _ = writeln!(
                out,
                r#"{{"kind":"span_open","t_ns":{id},"level":"debug","id":{id},{parent}{phase}"name":"{name}"}}"#
            );
        }
        for (i, (name, _, elapsed)) in spans.iter().enumerate().rev() {
            let id = i + 1;
            let _ = writeln!(
                out,
                r#"{{"kind":"span_close","t_ns":{},"level":"debug","id":{id},"name":"{name}","elapsed_ns":{elapsed}}}"#,
                100 + (spans.len() - i)
            );
        }
        // A phased sample books into its phase's stream and the kernel's
        // total, which the profiler subtracts phases from.
        let mut metrics = crate::MetricSet::default();
        for &(kernel, phase, count, sum) in kernels {
            for _ in 0..count {
                let ns = (sum / count) as f64;
                metrics.record_latency(&format!("kernel.{kernel}.ns"), ns);
                if let Some(phase) = phase {
                    metrics.record_latency(&format!("phase.{phase}.kernel.{kernel}.ns"), ns);
                }
            }
        }
        let mut record = vec![
            ("kind".to_string(), Value::from("metrics")),
            ("t_ns".to_string(), Value::UInt(500)),
            ("level".to_string(), Value::from("debug")),
        ];
        record.extend(metrics.to_fields());
        let _ = writeln!(out, "{}", Value::Obj(record).to_json());
        let _ = writeln!(
            out,
            r#"{{"kind":"run_end","t_ns":1000,"level":"info","elapsed_ns":1000000,"open_spans":0}}"#
        );
        out
    }

    fn base_trace() -> String {
        synth(
            "base",
            &[("bench", None, 900_000), ("spmm_forward", Some("spmm_forward"), 500_000)],
            &[("spmm", Some("spmm_forward"), 4, 400_000)],
        )
    }

    fn node<'a>(d: &'a TraceDiff, leaf: &str) -> &'a DiffNode {
        d.nodes
            .iter()
            .find(|n| n.stack.last().map(String::as_str) == Some(leaf))
            .unwrap_or_else(|| panic!("no node ending in {leaf}"))
    }

    #[test]
    fn identical_traces_diff_to_zero() {
        let p = profile(&base_trace()).expect("valid trace");
        let d = diff(&p, &p);
        assert!(d.changed().is_empty(), "{d}");
        assert!(d.nodes.iter().all(|n| n.presence == Presence::Both));
        assert!(d.nodes.iter().all(|n| n.total_delta_ns() == 0 && n.self_delta_ns() == 0));
        assert_eq!(d.to_collapsed(), "");
        // And nothing ranks as a suspect.
        let a = attribute(&d, "spmm_forward.ms_1t", (1.0, 1.0), NoiseModel::default(), 5);
        assert!(a.suspects.is_empty(), "{a}");
        assert!(a.to_string().contains("none:"), "{a}");
    }

    #[test]
    fn kernel_slowdown_diffs_and_attributes_top_1() {
        let base = profile(&base_trace()).expect("valid trace");
        // Candidate: the spmm kernel doubles; everything else unchanged.
        let cand = profile(&synth(
            "cand",
            &[("bench", None, 900_000), ("spmm_forward", Some("spmm_forward"), 900_000)],
            &[("spmm", Some("spmm_forward"), 4, 800_000)],
        ))
        .expect("valid trace");
        let d = diff(&base, &cand);
        let k = node(&d, "kernel:spmm");
        assert_eq!(k.total_delta_ns(), 400_000);
        assert_eq!(k.presence, Presence::Both);
        let (p50, p99) = k.quantile_shifts().expect("quantiles on both sides");
        assert!(quantile_shift_significant(p50), "p50 shift {p50}");
        assert!(quantile_shift_significant(p99), "p99 shift {p99}");
        // The span's grafted-adjusted self time did not change: its extra
        // 400 µs total is exactly the kernel's, charged to the kernel.
        let span = node(&d, "spmm_forward");
        assert_eq!(span.self_delta_ns(), 0);
        assert_eq!(span.total_delta_ns(), 400_000);

        let noise = NoiseModel::from_window(&[1.0, 1.01, 0.99, 1.0, 1.02], 0.05);
        let a = attribute(&d, "spmm_forward.ms_1t", (2.0, 1.0), noise, 5);
        assert_eq!(a.scope.as_deref(), Some("spmm_forward"));
        let top = a.top().expect("has a suspect");
        assert_eq!(top.stack.last().map(String::as_str), Some("kernel:spmm"));
        assert!(top.significant, "{a}");

        // The differential flame has the kernel under the regressed root
        // and round-trips through the collapsed parser.
        let flame = d.to_collapsed();
        let rows = parse_collapsed(&flame).expect("diff flame parses");
        assert!(
            rows.iter().any(|(stack, n)| stack.first().map(String::as_str) == Some("regressed")
                && stack.last().map(String::as_str) == Some("kernel:spmm")
                && *n == 400_000),
            "{flame}"
        );
        // JSON artifact carries the schema and both sections.
        let json = d.to_json(&[a]);
        assert_eq!(json.get("schema").and_then(Value::as_str), Some(DIFF_SCHEMA));
        assert!(json.get("nodes").and_then(Value::as_arr).is_some_and(|n| !n.is_empty()));
        assert_eq!(json.get("attributions").and_then(Value::as_arr).map(<[Value]>::len), Some(1));
    }

    #[test]
    fn renamed_span_shows_as_remove_plus_add_while_kernels_align() {
        let base = profile(&base_trace()).expect("valid trace");
        // The span was renamed but kept its phase tag: span nodes split
        // into one-sided pairs, the kernel still aligns by (phase, name).
        let cand = profile(&synth(
            "cand",
            &[("bench", None, 900_000), ("spmm_fwd_renamed", Some("spmm_forward"), 500_000)],
            &[("spmm", Some("spmm_forward"), 4, 400_000)],
        ))
        .expect("valid trace");
        let d = diff(&base, &cand);
        assert_eq!(node(&d, "spmm_forward").presence, Presence::BaselineOnly);
        assert_eq!(node(&d, "spmm_fwd_renamed").presence, Presence::CandidateOnly);
        let k = node(&d, "kernel:spmm");
        assert_eq!(k.presence, Presence::Both);
        assert_eq!(k.total_delta_ns(), 0);
        // The kernel frame renders under the *candidate's* current path.
        assert!(k.stack.contains(&"spmm_fwd_renamed".to_string()), "{:?}", k.stack);
    }

    #[test]
    fn one_sided_kernel_and_span_only_baseline() {
        // Baseline recorded spans but no kernel timing at all.
        let base = profile(&synth("base", &[("bench", None, 900_000)], &[])).expect("valid trace");
        let cand = profile(&base_trace()).expect("valid trace");
        let d = diff(&base, &cand);
        let k = node(&d, "kernel:spmm");
        assert_eq!(k.presence, Presence::CandidateOnly);
        assert_eq!(k.base, Side::default());
        assert_eq!(k.total_delta_ns(), 400_000);
        assert_eq!(k.rel_change(), None, "no baseline side: no ratio");
        // It still ranks as a suspect (a new kernel is a real change)...
        let a = attribute(&d, "spmm_forward.ms_1t", (2.0, 1.0), NoiseModel::default(), 5);
        assert!(a.suspects.iter().any(|s| s.presence == Presence::CandidateOnly));
        // ...and the report renders it as `new`.
        assert!(a.to_string().contains("new"), "{a}");
    }

    #[test]
    fn quantile_shifts_below_bucket_resolution_are_noise() {
        assert!(!quantile_shift_significant(QUANTILE_REL_ERROR));
        assert!(!quantile_shift_significant(-2.0 * QUANTILE_REL_ERROR));
        assert!(quantile_shift_significant(2.0 * QUANTILE_REL_ERROR + 0.01));
        assert!(quantile_shift_significant(-0.5));
    }

    #[test]
    fn mad_is_robust_to_single_spikes() {
        assert_eq!(mad(&[]), 0.0);
        assert_eq!(mad(&[1.0, 1.0, 1.0]), 0.0);
        // One 10× spike barely moves the MAD.
        let m = mad(&[1.0, 1.1, 0.9, 1.0, 10.0]);
        assert!(m <= 0.2, "mad={m}");
        let noise = NoiseModel::from_window(&[1.0, 1.1, 0.9, 1.0, 10.0], 0.05);
        assert!((noise.threshold_ms() - 3.0 * m).abs() < 1e-12 || noise.threshold_ms() == 0.05);
    }
}
