//! The perf regression gate behind `cargo xtask perf`: the benchmark's own
//! runs, gated at tolerances derived from their measured noise.
//!
//! Inputs:
//!
//! * `BENCHMARK.json` — the benchmark's manifest ([`Manifest`]): its
//!   command, its workloads, and each metric's unit, direction (`better`)
//!   and, for end-to-end metrics, bound.
//! * `results/BENCH_history.jsonl` — one `sane.bench.v1` line per workload
//!   per round (`bench` = workload, `preset` = [`PRESET`]), appended by
//!   `xtask perf --quick` from the benchmark's result lines
//!   ([`parse_result`]).
//! * `results/BENCH_baseline.json` — the committed reference (schema
//!   [`BASELINE_SCHEMA`]): per `<workload>/<metric>` key, the median
//!   `base` and the MAD `mad` of the window it was seeded from.
//!
//! Gated metrics are the manifest's `end_to_end` list plus every
//! `per_layer` metric whose unit is `ms`; counts, fractions and memory
//! gauges of single layers ride along in the history but are not gated.
//! A metric's samples come only from its own workload. The gate takes the
//! **median of the last [`WINDOW`] samples** and fails when it is worse
//! than `base` by more than [`MetricSpec::tolerance`]: three MADs of the
//! seeded window, never less than the manifest's bound × base (and
//! [`HOST_DRIFT`] × base for times), and for `ms` metrics never less than
//! [`ABS_FLOOR_MS`]. A baselined metric with no samples fails the gate
//! too.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use sane_telemetry::diff::{self, Attribution, NoiseModel, TraceDiff};
use sane_telemetry::Value;

/// History schema accepted by [`parse_history`].
pub const HISTORY_SCHEMA: &str = "sane.bench.v1";
/// Baseline schema emitted and accepted by this module.
pub const BASELINE_SCHEMA: &str = "sane.bench.baseline.v2";
/// Trend-report schema emitted by [`TrendReport::to_json`].
pub const TREND_SCHEMA: &str = "sane.trend.v1";

/// Samples per gate window: `perf --quick` runs this many rounds, so the
/// gated median is always one invocation's own samples.
pub const WINDOW: usize = 5;
/// The preset every history line written by `perf --quick` carries.
pub const PRESET: &str = "quick";
/// Absolute floor for `ms` metrics: a change must exceed it to count
/// (sub-floor timings are scheduler noise at any ratio).
pub const ABS_FLOOR_MS: f64 = 0.05;
/// Least share of its base a time metric (`ms`, `s`) may worsen by. A
/// window's MAD only sees the noise inside one invocation; on the shared
/// 2-vCPU host the baseline is seeded on, whole invocations minutes apart
/// ran up to ~1.5× faster or slower across all of a workload's timings.
pub const HOST_DRIFT: f64 = 0.5;

/// Changepoint detector half-window: medians are compared across `w`
/// samples on each side of a boundary. Wider than the gate window on
/// purpose — trend analysis looks for *persistent* steps, not fresh ones.
pub const DEFAULT_TREND_WINDOW: usize = 8;
/// Minimum relative median shift a changepoint must show. Tuned against
/// the committed history: CI kernel timings routinely drift ±30%, so
/// anything below a 50% step is indistinguishable from environment noise.
pub const DEFAULT_TREND_MIN_SHIFT: f64 = 0.5;
/// Minimum shift in units of the trailing-context MAD (robust sigma of
/// the 3·w samples before the boundary).
pub const DEFAULT_TREND_MAD_MULT: f64 = 6.0;
/// Soft cap on history entries per `(bench, preset)`: the gate warns past
/// this and `xtask perf compact` trims back down to it.
pub const DEFAULT_HISTORY_CAP: usize = 40;

// ---------------------------------------------------------------------------
// The benchmark manifest and the benchmark's result line.
// ---------------------------------------------------------------------------

/// One gated metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `better: higher` in the manifest.
    pub higher_is_better: bool,
    /// Share of the base a metric may worsen by, where the manifest
    /// declares one.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// The absolute floor a change must clear: [`ABS_FLOOR_MS`] for `ms`
    /// metrics, none for other units.
    pub fn floor(&self) -> f64 {
        if self.unit == "ms" {
            ABS_FLOOR_MS
        } else {
            0.0
        }
    }

    /// The metric's noise model under `m`: the seeded window's MAD and the
    /// unit's floor.
    pub fn noise(&self, m: &BaselineMetric) -> NoiseModel {
        NoiseModel { sigma_ms: m.mad, floor_ms: self.floor() }
    }

    /// How far a window median may move from `base` in the worse
    /// direction before the gate fails: three MADs, the unit's floor, or
    /// the bound (at least [`HOST_DRIFT`] for a time) × base, whichever
    /// is widest.
    pub fn tolerance(&self, m: &BaselineMetric) -> f64 {
        let drift = if matches!(self.unit.as_str(), "ms" | "s") { HOST_DRIFT } else { 0.0 };
        let bound = self.bound.unwrap_or(0.0).max(drift);
        self.noise(m).threshold_ms().max(bound * m.base.abs())
    }
}

/// What the gate reads from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// The benchmark's command line; workload flags are appended to it.
    pub command: Vec<String>,
    pub workloads: Vec<String>,
    /// The `end_to_end` metrics, then the `ms` metrics of `per_layer`.
    pub gated: Vec<MetricSpec>,
}

impl Manifest {
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.gated.iter().find(|m| m.name == name)
    }
}

/// Parses `BENCHMARK.json`. Every missing or mistyped field is an error
/// naming it.
pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let doc = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: missing `{key}` list"))
    };
    let string = |v: &Value, at: &str, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: {at}: missing `{key}` string"))
    };
    let command = list("command")?
        .iter()
        .map(|v| {
            v.as_str().map(str::to_string).ok_or("BENCHMARK.json: `command` holds a non-string")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let workloads = list("workloads")?
        .iter()
        .enumerate()
        .map(|(i, w)| string(w, &format!("`workloads[{i}]`"), "name"))
        .collect::<Result<Vec<_>, _>>()?;
    let mut gated = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for (i, m) in list(key)?.iter().enumerate() {
            let at = format!("`{key}[{i}]`");
            let unit = string(m, &at, "unit")?;
            let higher_is_better = match string(m, &at, "better")?.as_str() {
                "lower" => false,
                "higher" => true,
                other => {
                    return Err(format!("BENCHMARK.json: {at}: `better` is `{other}`"));
                }
            };
            let bound = m
                .get("bound")
                .map(|b| b.as_f64())
                .map(|b| b.ok_or_else(|| format!("BENCHMARK.json: {at}: `bound` is not a number")));
            let bound = bound.transpose()?;
            if key == "end_to_end" || unit == "ms" {
                gated.push(MetricSpec {
                    name: string(m, &at, "name")?,
                    unit,
                    higher_is_better,
                    bound,
                });
            }
        }
    }
    Ok(Manifest { command, workloads, gated })
}

/// One benchmark run as its final stdout line reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

/// Reads a benchmark run's stdout. The result is its last non-blank line,
/// `{"correct": …, "metrics": {name: {"value": …, "unit": …}}, …}`; the
/// lines above it are the same metrics echoed for people. A malformed
/// result line is an error naming the line or the offending key.
pub fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("result line: the run printed nothing")?;
    let rec = Value::parse(line).map_err(|e| format!("result line: {e}"))?;
    let Some(&Value::Bool(correct)) = rec.get("correct") else {
        return Err("result line: missing `correct` boolean".into());
    };
    let fields = rec.get("metrics").and_then(Value::as_obj);
    let fields = fields.ok_or("result line: missing `metrics` object")?;
    let metrics = read_metrics(fields, "result line", |v| v.get("value")?.as_f64())?;
    Ok(RunResult { correct, metrics })
}

/// Reads a metrics object, refusing a missing or non-finite value and a
/// repeated name (a map would silently keep one of them).
fn read_metrics(
    fields: &[(String, Value)],
    at: &str,
    value: impl Fn(&Value) -> Option<f64>,
) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (k, v) in fields {
        let x = value(v).filter(|x| x.is_finite());
        let x = x.ok_or_else(|| format!("{at}: metric `{k}` is not a number"))?;
        if out.insert(k.clone(), x).is_some() {
            return Err(format!("{at}: metric `{k}` appears twice"));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// History and baseline.
// ---------------------------------------------------------------------------

/// One parsed history line.
#[derive(Clone, Debug)]
pub struct HistoryEntry {
    pub bench: String,
    pub preset: String,
    pub metrics: BTreeMap<String, f64>,
}

/// One history line for `workload`: a round's end-to-end and per-layer
/// metrics.
pub fn history_line(workload: &str, unix_ms: u64, metrics: &BTreeMap<String, f64>) -> String {
    Value::Obj(vec![
        ("schema".into(), Value::Str(HISTORY_SCHEMA.into())),
        ("bench".into(), Value::Str(workload.into())),
        ("preset".into(), Value::Str(PRESET.into())),
        ("unix_ms".into(), Value::UInt(unix_ms)),
        (
            "metrics".into(),
            Value::Obj(metrics.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect()),
        ),
    ])
    .to_json()
}

/// Parses `BENCH_history.jsonl` text. Lines with other schemas, without a
/// `bench` or `preset` string, or with a non-numeric or repeated metric
/// are an error naming the line (the file is owned by this tooling);
/// blank lines are skipped.
pub fn parse_history(text: &str) -> Result<Vec<HistoryEntry>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let rec = Value::parse(line).map_err(|e| format!("history line {lineno}: {e}"))?;
        let schema = rec.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != HISTORY_SCHEMA {
            return Err(format!("history line {lineno}: unknown schema `{schema}`"));
        }
        let fields = rec.get("metrics").and_then(Value::as_obj);
        let fields =
            fields.ok_or_else(|| format!("history line {lineno}: missing metrics object"))?;
        let metrics = read_metrics(fields, &format!("history line {lineno}"), Value::as_f64)?;
        let field = |key: &str| {
            rec.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("history line {lineno}: missing `{key}` string"))
        };
        out.push(HistoryEntry { bench: field("bench")?, preset: field("preset")?, metrics });
    }
    Ok(out)
}

/// One baselined metric: the seeded window's median and MAD.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineMetric {
    pub base: f64,
    pub mad: f64,
}

/// The committed reference, keyed `<workload>/<metric>`.
pub type Baseline = BTreeMap<String, BaselineMetric>;

/// Parses a committed `BENCH_baseline.json`. An unknown schema, a key
/// that is not `<workload>/<metric>`, a repeated key, or a missing or
/// non-numeric `base`/`mad` is an error naming the key.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let rec = Value::parse(text).map_err(|e| format!("baseline: {e}"))?;
    let schema = rec.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != BASELINE_SCHEMA {
        return Err(format!("baseline: unknown schema `{schema}` (want {BASELINE_SCHEMA})"));
    }
    let mut out = Baseline::new();
    for (k, v) in
        rec.get("metrics").and_then(Value::as_obj).ok_or("baseline: missing `metrics` object")?
    {
        if !k.split_once('/').is_some_and(|(w, m)| !w.is_empty() && !m.is_empty()) {
            return Err(format!("baseline metric `{k}`: key is not `<workload>/<metric>`"));
        }
        let field = |name: &str| {
            v.get(name).and_then(Value::as_f64).filter(|x| x.is_finite()).ok_or_else(|| {
                format!("baseline metric `{k}`: `{name}` is missing or not a number")
            })
        };
        let m = BaselineMetric { base: field("base")?, mad: field("mad")? };
        if m.mad < 0.0 {
            return Err(format!("baseline metric `{k}`: `mad` is negative"));
        }
        if out.insert(k.clone(), m).is_some() {
            return Err(format!("baseline metric `{k}`: appears twice"));
        }
    }
    Ok(out)
}

/// Serialises a baseline, one metric per line so reseeds diff readably.
pub fn baseline_to_json(b: &Baseline) -> String {
    let rows: Vec<String> = b
        .iter()
        .map(|(k, m)| {
            let row = Value::Obj(vec![
                ("base".into(), Value::Num(m.base)),
                ("mad".into(), Value::Num(m.mad)),
            ]);
            format!("{}:{}", Value::Str(k.clone()).to_json(), row.to_json())
        })
        .collect();
    format!(
        "{{\"schema\":{},\"metrics\":{{\n{}\n}}}}\n",
        Value::Str(BASELINE_SCHEMA.into()).to_json(),
        rows.join(",\n")
    )
}

/// The last [`WINDOW`] samples of `metric` in `workload`'s
/// [`PRESET`] history lines, in append order — the samples the gate
/// medians over and a seed takes its MAD of.
pub fn window_samples(history: &[HistoryEntry], workload: &str, metric: &str) -> Vec<f64> {
    let mut samples: Vec<f64> = history
        .iter()
        .filter(|e| e.bench == workload && e.preset == PRESET)
        .filter_map(|e| e.metrics.get(metric).copied())
        .collect();
    let keep = samples.len().saturating_sub(WINDOW);
    samples.drain(..keep);
    samples
}

fn median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    Some(if n % 2 == 1 { xs[n / 2] } else { (xs[n / 2 - 1] + xs[n / 2]) / 2.0 })
}

/// Builds a baseline from each workload's window of every gated metric.
/// A gated metric with no samples is an error: the runs and the manifest
/// disagree, and a baseline without it could never notice it vanish.
pub fn seed_baseline(history: &[HistoryEntry], manifest: &Manifest) -> Result<Baseline, String> {
    let mut out = Baseline::new();
    let mut missing = Vec::new();
    for w in &manifest.workloads {
        for spec in &manifest.gated {
            let key = format!("{w}/{}", spec.name);
            let samples = window_samples(history, w, &spec.name);
            if let Some(base) = median(samples.clone()) {
                out.insert(key, BaselineMetric { base, mad: diff::mad(&samples) });
            } else {
                missing.push(format!("`{key}`"));
            }
        }
    }
    if missing.is_empty() {
        Ok(out)
    } else {
        Err(format!("no `{PRESET}` samples for {}", missing.join(", ")))
    }
}

// ---------------------------------------------------------------------------
// The gate.
// ---------------------------------------------------------------------------

/// Verdict for one baselined metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Median within tolerance of the base.
    Ok,
    /// Median worse than the base by more than the tolerance.
    Regression,
    /// Median better than the base by more than the tolerance — worth
    /// re-seeding.
    Improvement,
    /// No samples, or the manifest no longer gates the metric: a renamed
    /// or dropped metric. Fails the gate.
    Missing,
}

/// One gated metric's row.
#[derive(Clone, Debug, PartialEq)]
pub struct GateRow {
    /// `<workload>/<metric>`.
    pub key: String,
    pub unit: String,
    pub median: Option<f64>,
    pub base: f64,
    /// The median's worst acceptable value.
    pub limit: f64,
    pub verdict: Verdict,
}

/// The gate's full output: one row per baselined metric.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    pub rows: Vec<GateRow>,
}

impl GateReport {
    fn count(&self, v: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == v).count()
    }

    pub fn regressions(&self) -> usize {
        self.count(Verdict::Regression)
    }

    pub fn missing(&self) -> usize {
        self.count(Verdict::Missing)
    }

    /// True when no baselined metric regressed or went missing.
    pub fn passed(&self) -> bool {
        self.regressions() == 0 && self.missing() == 0
    }
}

impl fmt::Display for GateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<48} {:>5} {:>12} {:>12} {:>12}  verdict",
            "metric", "unit", "median", "base", "limit"
        )?;
        for r in &self.rows {
            let median = r.median.map_or_else(|| "-".to_string(), |m| format!("{m:.6}"));
            let verdict = match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Improvement => "improvement",
                Verdict::Missing => "MISSING",
            };
            writeln!(
                f,
                "{:<48} {:>5} {median:>12} {:>12.6} {:>12.6}  {verdict}",
                r.key, r.unit, r.base, r.limit
            )?;
        }
        write!(
            f,
            "{} metric(s) checked, {} regression(s), {} missing",
            self.rows.len(),
            self.regressions(),
            self.missing()
        )
    }
}

/// Runs the gate: every baselined metric's window median against its
/// limit. Extra metrics in the history are ignored — the baseline is the
/// contract, and the manifest says how to read it.
pub fn gate(history: &[HistoryEntry], baseline: &Baseline, manifest: &Manifest) -> GateReport {
    let mut report = GateReport::default();
    for (key, m) in baseline {
        let (workload, metric) = key.split_once('/').unwrap_or((key, ""));
        let spec = manifest.metric(metric);
        let median = median(window_samples(history, workload, metric));
        let row = |unit: &str, limit: f64, verdict: Verdict| GateRow {
            key: key.clone(),
            unit: unit.to_string(),
            median,
            base: m.base,
            limit,
            verdict,
        };
        report.rows.push(match (spec, median) {
            (Some(spec), Some(median)) => {
                let tol = spec.tolerance(m);
                // Positive = worse, in the metric's own direction.
                let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
                let worse_by = sign * (median - m.base);
                let verdict = if worse_by > tol {
                    Verdict::Regression
                } else if -worse_by > tol {
                    Verdict::Improvement
                } else {
                    Verdict::Ok
                };
                row(&spec.unit, m.base + sign * tol, verdict)
            }
            (Some(spec), None) => row(&spec.unit, m.base, Verdict::Missing),
            (None, _) => row("-", m.base, Verdict::Missing),
        });
    }
    report
}

// ---------------------------------------------------------------------------
// Cross-run trend analysis: changepoint detection over the history file.
// ---------------------------------------------------------------------------

/// One detected step in a metric's history series.
#[derive(Clone, Debug, PartialEq)]
pub struct Changepoint {
    pub bench: String,
    pub preset: String,
    pub metric: String,
    /// The metric's unit in `BENCHMARK.json`.
    pub unit: String,
    /// Index of the first sample of the shifted regime within the
    /// metric's per-preset series (append order).
    pub index: usize,
    pub series_len: usize,
    /// Median of the `window` samples before / after the boundary.
    pub before: f64,
    pub after: f64,
    /// `(after - before) / before`.
    pub shift_frac: f64,
    /// Shift in units of the trailing-context MAD (capped at 999 so a
    /// perfectly quiet context stays renderable).
    pub mad_score: f64,
}

/// Output of [`trend`]: every gated metric series scanned, the steps that
/// survived the noise criteria.
#[derive(Clone, Debug, Default)]
pub struct TrendReport {
    pub window: usize,
    /// Number of `(bench, preset, metric)` series scanned.
    pub series: usize,
    pub changepoints: Vec<Changepoint>,
}

impl TrendReport {
    pub fn to_json(&self) -> Value {
        let cps = self
            .changepoints
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("bench".into(), Value::Str(c.bench.clone())),
                    ("preset".into(), Value::Str(c.preset.clone())),
                    ("metric".into(), Value::Str(c.metric.clone())),
                    ("unit".into(), Value::Str(c.unit.clone())),
                    ("index".into(), Value::UInt(c.index as u64)),
                    ("series_len".into(), Value::UInt(c.series_len as u64)),
                    ("before".into(), Value::Num(c.before)),
                    ("after".into(), Value::Num(c.after)),
                    ("shift_frac".into(), Value::Num(c.shift_frac)),
                    ("mad_score".into(), Value::Num(c.mad_score)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str(TREND_SCHEMA.into())),
            ("window".into(), Value::UInt(self.window as u64)),
            ("series".into(), Value::UInt(self.series as u64)),
            ("changepoints".into(), Value::Arr(cps)),
        ])
    }
}

impl fmt::Display for TrendReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trend: {} series scanned (window {}), {} changepoint(s)",
            self.series,
            self.window,
            self.changepoints.len()
        )?;
        for c in &self.changepoints {
            writeln!(
                f,
                "  {}/{} `{}`: step at sample {}/{}: {:.4} -> {:.4} {} \
                 ({:+.0}%, {:.1}x MAD)",
                c.bench,
                c.preset,
                c.metric,
                c.index,
                c.series_len,
                c.before,
                c.after,
                c.unit,
                c.shift_frac * 100.0,
                c.mad_score
            )?;
        }
        Ok(())
    }
}

/// One flagged boundary inside a single series (see [`detect_steps`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Step {
    pub index: usize,
    pub before: f64,
    pub after: f64,
    pub shift_frac: f64,
    pub mad_score: f64,
}

/// Median-shift changepoint detection over one series.
///
/// At every boundary `i`, the medians of the `window` samples before and
/// after are compared. A boundary is flagged when the upward shift
/// clears **all three** criteria:
///
/// 1. more than `abs_floor` absolute, in the series' unit (sub-floor
///    kernels are scheduler noise at any ratio),
/// 2. more than `min_shift_frac` of the before-median (CI timings drift
///    tens of percent run-to-run),
/// 3. more than `mad_mult` times the MAD of the 3·`window` samples
///    *trailing* the boundary — the context scatter. The trailing (not
///    whole-series) context matters: the step itself must not inflate
///    the noise estimate it is judged against.
///
/// Runs of adjacent flagged boundaries (one real step flags several
/// overlapping windows) are merged, keeping the largest-shift boundary.
/// Parameters were tuned on the committed history: zero flags on real
/// noise, reliable detection of 2× injected steps.
pub fn detect_steps(
    vals: &[f64],
    window: usize,
    min_shift_frac: f64,
    mad_mult: f64,
    abs_floor: f64,
) -> Vec<Step> {
    let mut flagged: Vec<Step> = Vec::new();
    if window == 0 || vals.len() < 2 * window {
        return flagged;
    }
    for i in window..=vals.len() - window {
        let Some(before) = median(vals[i - window..i].to_vec()) else { continue };
        let Some(after) = median(vals[i..i + window].to_vec()) else { continue };
        let shift = after - before;
        if shift <= abs_floor || before <= 0.0 {
            continue;
        }
        let shift_frac = shift / before;
        if shift_frac <= min_shift_frac {
            continue;
        }
        let ctx = &vals[i.saturating_sub(3 * window)..i];
        let noise = diff::mad(ctx);
        if noise > 0.0 && shift <= mad_mult * noise {
            continue;
        }
        let mad_score = if noise > 0.0 { (shift / noise).min(999.0) } else { 999.0 };
        flagged.push(Step { index: i, before, after, shift_frac, mad_score });
    }
    // One real step flags a run of boundaries as the windows slide over
    // it; merge everything within one window into the strongest
    // representative (steps closer together than the window cannot be
    // resolved anyway).
    let mut merged: Vec<Step> = Vec::new();
    for s in flagged {
        match merged.last_mut() {
            Some(last) if s.index <= last.index + window => {
                if s.after - s.before > last.after - last.before {
                    *last = s;
                }
            }
            _ => merged.push(s),
        }
    }
    merged
}

/// Scans the history series of every metric the gate gates for step
/// regressions that crept in under the per-run tolerance. The absolute
/// floor applies to `ms` metrics only.
pub fn trend(
    history: &[HistoryEntry],
    manifest: &Manifest,
    window: usize,
    min_shift_frac: f64,
    mad_mult: f64,
) -> TrendReport {
    let mut series: BTreeMap<(&str, &str, &str), (&MetricSpec, Vec<f64>)> = BTreeMap::new();
    for e in history {
        for (k, v) in &e.metrics {
            if let Some(spec) = manifest.metric(k) {
                let key = (e.bench.as_str(), e.preset.as_str(), k.as_str());
                series.entry(key).or_insert_with(|| (spec, Vec::new())).1.push(*v);
            }
        }
    }
    let mut report = TrendReport { window, series: series.len(), changepoints: Vec::new() };
    for ((bench, preset, metric), (spec, vals)) in series {
        for s in detect_steps(&vals, window, min_shift_frac, mad_mult, spec.floor()) {
            report.changepoints.push(Changepoint {
                bench: bench.to_string(),
                preset: preset.to_string(),
                metric: metric.to_string(),
                unit: spec.unit.clone(),
                index: s.index,
                series_len: vals.len(),
                before: s.before,
                after: s.after,
                shift_frac: s.shift_frac,
                mad_score: s.mad_score,
            });
        }
    }
    report
}

// ---------------------------------------------------------------------------
// History compaction.
// ---------------------------------------------------------------------------

/// `(bench, preset)` pairs whose entry count exceeds `cap`, with their
/// counts — what the gate warns about.
pub fn history_overflow(history: &[HistoryEntry], cap: usize) -> Vec<(String, String, usize)> {
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for e in history {
        *counts.entry((&e.bench, &e.preset)).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .filter(|(_, n)| *n > cap)
        .map(|((b, p), n)| (b.to_string(), p.to_string(), n))
        .collect()
}

/// Rewrites history text keeping only the last `keep` entries per
/// `(bench, preset)`, preserving each surviving line byte-for-byte and
/// the overall append order. `keep` is clamped to at least the gate
/// window so compaction can never eat the gate median's samples.
/// Returns the new text and the number of dropped lines.
pub fn compact_history(text: &str, keep: usize) -> Result<(String, usize), String> {
    let keep = keep.max(WINDOW);
    let entries = parse_history(text)?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    // parse_history yields one entry per non-empty line, in order.
    let mut total: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for e in &entries {
        *total.entry((&e.bench, &e.preset)).or_insert(0) += 1;
    }
    let mut seen: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut out = String::new();
    let mut dropped = 0usize;
    for (line, e) in lines.iter().zip(&entries) {
        let key = (e.bench.as_str(), e.preset.as_str());
        let idx = seen.entry(key).or_insert(0);
        *idx += 1;
        if *idx + keep > total[&key] {
            out.push_str(line);
            out.push('\n');
        } else {
            dropped += 1;
        }
    }
    Ok((out, dropped))
}

// ---------------------------------------------------------------------------
// Gate-failure forensics: diff the workload's traced run against the
// retained baseline trace and attribute each regressed metric.
// ---------------------------------------------------------------------------

/// Retained baseline trace of a workload's traced run (committed next to
/// the baseline JSON; refreshed by `xtask perf --seed-baseline`).
pub fn baseline_trace_path(results_dir: &Path, workload: &str) -> PathBuf {
    results_dir.join(format!("TRACE_bench_{workload}_baseline.jsonl"))
}

/// The trace the benchmark's latest `--trace 1` run of a workload wrote.
pub fn candidate_trace_path(results_dir: &Path, workload: &str) -> PathBuf {
    results_dir.join(format!("TRACE_bench_{workload}.jsonl"))
}

/// The frame of a benchmark trace that times `metric`, as the scenario
/// [`diff::attribute`] scopes its suspects to: the probe span of a
/// per-layer probe (`bench.probe.ops`, `.step`, `.eval`), the kernel of a
/// kernel total (`kernel:<k>`), the search for the search rungs. `None`
/// ranks the whole tree.
pub fn trace_scope(metric: &str) -> Option<&str> {
    const SCOPES: [(&str, &str); 10] = [
        ("gnn.agg.", "ops"),
        ("gnn.layer_agg.", "ops"),
        ("core.model.forward_ms", "step"),
        ("autodiff.tape.backward_ms", "step"),
        ("autodiff.optim.step_ms", "step"),
        ("core.model.eval_forward_ms", "eval"),
        ("core.search.", "search"),
        ("search_s", "search"),
        ("data.generate_ms", "generate"),
        ("gnn.context_ms", "context"),
    ];
    metric
        .strip_prefix("autodiff.kernel.")
        .and_then(|k| k.strip_suffix(".ms"))
        .or_else(|| SCOPES.iter().find(|(prefix, _)| metric.starts_with(prefix)).map(|(_, s)| *s))
}

/// Forensics for one workload with at least one regressed metric.
#[derive(Clone, Debug)]
pub struct WorkloadForensics {
    pub workload: String,
    pub diff: TraceDiff,
    pub attributions: Vec<Attribution>,
    /// Written artifacts: `DIFF_<workload>.json`, `FLAMEDIFF_<workload>.txt`.
    pub diff_path: PathBuf,
    pub flame_path: PathBuf,
}

/// Explains a failed gate: groups the regressed rows by workload, diffs
/// each workload's candidate trace against its retained baseline trace,
/// attributes every regressed metric to the hottest changed subtree (noise
/// model from the metric's baseline MAD), and writes the
/// `DIFF_<workload>.json` / `FLAMEDIFF_<workload>.txt` artifacts into
/// `results_dir`.
pub fn explain(
    results_dir: &Path,
    baseline: &Baseline,
    manifest: &Manifest,
    report: &GateReport,
) -> Result<Vec<WorkloadForensics>, String> {
    let mut by_workload: BTreeMap<&str, Vec<&GateRow>> = BTreeMap::new();
    for row in report.rows.iter().filter(|r| r.verdict == Verdict::Regression) {
        let (workload, _) = row.key.split_once('/').unwrap_or((&row.key, ""));
        by_workload.entry(workload).or_default().push(row);
    }

    let mut out = Vec::new();
    for (workload, rows) in by_workload {
        let base_path = baseline_trace_path(results_dir, workload);
        let cand_path = candidate_trace_path(results_dir, workload);
        let base_prof = sane_telemetry::profile::profile_file(&base_path).map_err(|e| {
            format!(
                "no usable baseline trace for workload `{workload}` ({}: {e}); \
                 retain one with `cargo xtask perf --quick --seed-baseline`",
                base_path.display()
            )
        })?;
        let cand_prof = sane_telemetry::profile::profile_file(&cand_path).map_err(|e| {
            format!(
                "no usable candidate trace for workload `{workload}` ({}: {e}); \
                 record one with `cargo xtask perf --quick`",
                cand_path.display()
            )
        })?;
        let d = diff::diff(&base_prof, &cand_prof);
        let attributions: Vec<Attribution> = rows
            .iter()
            .filter_map(|row| {
                let (_, metric) = row.key.split_once('/')?;
                let noise = manifest.metric(metric)?.noise(baseline.get(&row.key)?);
                let gate_ms = (row.median?, row.base);
                // `attribute` scopes to the first dotted component.
                let scoped =
                    trace_scope(metric).map_or(metric.to_string(), |s| format!("{s}.{metric}"));
                let mut a = diff::attribute(&d, &scoped, gate_ms, noise, 8);
                a.metric = metric.to_string();
                Some(a)
            })
            .collect();

        let diff_path = results_dir.join(format!("DIFF_{workload}.json"));
        std::fs::write(&diff_path, d.to_json(&attributions).to_json())
            .map_err(|e| format!("cannot write {}: {e}", diff_path.display()))?;
        let flame = d.to_collapsed();
        sane_telemetry::profile::parse_collapsed(&flame)
            .map_err(|e| format!("emitted differential flame does not re-parse: {e}"))?;
        let flame_path = results_dir.join(format!("FLAMEDIFF_{workload}.txt"));
        std::fs::write(&flame_path, flame)
            .map_err(|e| format!("cannot write {}: {e}", flame_path.display()))?;
        out.push(WorkloadForensics {
            workload: workload.to_string(),
            diff: d,
            attributions,
            diff_path,
            flame_path,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, unit: &str, bound: Option<f64>) -> MetricSpec {
        MetricSpec { name: name.into(), unit: unit.into(), higher_is_better: false, bound }
    }

    fn manifest() -> Manifest {
        Manifest {
            command: vec!["bench".into()],
            workloads: vec!["tiny".into(), "cora".into()],
            gated: vec![
                spec("search_s", "s", Some(0.25)),
                spec("peak_rss_mib", "MiB", Some(0.1)),
                spec("gnn.agg.GAT.fwd_ms", "ms", None),
            ],
        }
    }

    fn entry(bench: &str, metrics: &[(&str, f64)]) -> HistoryEntry {
        HistoryEntry {
            bench: bench.into(),
            preset: PRESET.into(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn baseline(metrics: &[(&str, f64, f64)]) -> Baseline {
        metrics
            .iter()
            .map(|(k, base, mad)| (k.to_string(), BaselineMetric { base: *base, mad: *mad }))
            .collect()
    }

    fn window(bench: &str, metric: &str, vals: &[f64]) -> Vec<HistoryEntry> {
        vals.iter().map(|v| entry(bench, &[(metric, *v)])).collect()
    }

    #[test]
    fn manifest_gates_end_to_end_and_ms_layers_only() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let m = parse_manifest(&text).expect("BENCHMARK.json parses");
        assert_eq!(m.command[0], "cargo");
        assert_eq!(m.workloads.len(), 4);
        let search = m.metric("search_s").expect("end-to-end metrics are gated");
        assert_eq!((search.unit.as_str(), search.bound), ("s", Some(0.25)));
        assert!(m.metric("peak_rss_mib").is_some());
        let cos = m.metric("gnn.agg.GAT-COS.fwd_ms").expect("ms layers are gated");
        assert_eq!((cos.bound, cos.floor()), (None, ABS_FLOOR_MS));
        assert_eq!(search.floor(), 0.0, "the ms floor applies to ms metrics only");
        for ungated in ["autodiff.tape.nodes", "autodiff.pool.hit_rate", "autodiff.pool.pooled_mib"]
        {
            assert!(m.metric(ungated).is_none(), "{ungated} is not an ms metric");
        }
        assert!(m.gated.iter().skip(3).all(|s| s.unit == "ms"));
    }

    #[test]
    fn malformed_manifests_name_the_field() {
        for (bad, want) in [
            (r#"{"workloads":[],"end_to_end":[],"per_layer":[]}"#, "missing `command` list"),
            (
                r#"{"command":["x"],"workloads":[{}],"end_to_end":[],"per_layer":[]}"#,
                "`workloads[0]`: missing `name` string",
            ),
            (
                r#"{"command":["x"],"workloads":[],"end_to_end":[{"name":"a","unit":"s","better":"up"}],"per_layer":[]}"#,
                "`end_to_end[0]`: `better` is `up`",
            ),
            (
                r#"{"command":["x"],"workloads":[],"end_to_end":[],"per_layer":[{"name":"a","unit":"ms","better":"lower","bound":"big"}]}"#,
                "`per_layer[0]`: `bound` is not a number",
            ),
        ] {
            let err = parse_manifest(bad).expect_err(bad);
            assert_eq!(err, format!("BENCHMARK.json: {want}"));
        }
    }

    #[test]
    fn metrics_scope_to_the_trace_frame_that_times_them() {
        assert_eq!(trace_scope("gnn.agg.GAT-COS.fwd_ms"), Some("ops"));
        assert_eq!(trace_scope("gnn.layer_agg.LSTM.bwd_ms"), Some("ops"));
        assert_eq!(trace_scope("autodiff.kernel.gather_attention.ms"), Some("gather_attention"));
        assert_eq!(trace_scope("autodiff.tape.backward_ms"), Some("step"));
        assert_eq!(trace_scope("core.model.eval_forward_ms"), Some("eval"));
        assert_eq!(trace_scope("core.search.iteration_ms"), Some("search"));
        assert_eq!(trace_scope("peak_rss_mib"), None);
    }

    #[test]
    fn synthetic_two_x_slowdown_fails_the_gate() {
        // Base 1 ms with a 0.05 ms MAD: tolerance 0.5 ms (host drift). A
        // genuine 2× slowdown across the whole window must regress.
        let base = baseline(&[("cora/gnn.agg.GAT.fwd_ms", 1.0, 0.05)]);
        let history = window("cora", "gnn.agg.GAT.fwd_ms", &[2.0; WINDOW]);
        let report = gate(&history, &base, &manifest());
        assert!(!report.passed());
        assert_eq!(report.regressions(), 1);
        let row = &report.rows[0];
        assert_eq!((row.median, row.unit.as_str()), (Some(2.0), "ms"));
        assert!((row.limit - 1.5).abs() < 1e-12, "limit {}", row.limit);
    }

    #[test]
    fn tolerance_is_the_widest_of_noise_bound_drift_and_floor() {
        let m = manifest();
        let tol = |name: &str, base: f64, mad: f64| {
            m.metric(name).expect("gated").tolerance(&BaselineMetric { base, mad })
        };
        // Three MADs when they exceed the host drift ...
        assert!((tol("gnn.agg.GAT.fwd_ms", 2.0, 0.5) - 1.5).abs() < 1e-12);
        // ... else HOST_DRIFT × base ...
        assert_eq!(tol("gnn.agg.GAT.fwd_ms", 2.0, 0.1), 1.0);
        // ... else the 0.05 ms floor, which seconds metrics do not get.
        assert_eq!(tol("gnn.agg.GAT.fwd_ms", 0.05, 0.0), ABS_FLOOR_MS);
        assert_eq!(tol("search_s", 0.05, 0.0), 0.025);
        // A bound wider than the drift wins; memory does not drift with
        // host speed, so its bound stands alone.
        assert_eq!(tol("search_s", 2.0, 0.01), 1.0);
        assert_eq!(tol("peak_rss_mib", 100.0, 0.0), 10.0);
        assert_eq!(tol("peak_rss_mib", 100.0, 4.0), 12.0);
        assert_eq!(tol("search_s", 0.0, 0.0), 0.0);
    }

    #[test]
    fn sub_floor_regressions_do_not_fail() {
        // A 3× slowdown on a 10 µs layer is under the absolute floor:
        // scheduler noise, not a regression.
        let base = baseline(&[("cora/gnn.agg.GAT.fwd_ms", 0.01, 0.0)]);
        let history = window("cora", "gnn.agg.GAT.fwd_ms", &[0.03; WINDOW]);
        assert!(gate(&history, &base, &manifest()).passed());
        // A seconds metric has no such floor: a 0.03 s slip past a zero
        // tolerance fails.
        let base = baseline(&[("cora/search_s", 0.0, 0.0)]);
        let history = window("cora", "search_s", &[0.03; WINDOW]);
        assert_eq!(gate(&history, &base, &manifest()).regressions(), 1);
    }

    #[test]
    fn missing_metrics_fail_the_gate() {
        // The run no longer reports the metric (renamed or dropped) ...
        let base = baseline(&[("cora/gnn.agg.GAT.fwd_ms", 1.0, 0.05)]);
        let history = window("cora", "gnn.agg.GAT.bwd_ms", &[1.0; WINDOW]);
        let report = gate(&history, &base, &manifest());
        assert!(!report.passed(), "{report}");
        assert_eq!((report.missing(), report.regressions()), (1, 0));
        assert_eq!(report.rows[0].verdict, Verdict::Missing);
        // ... or the manifest no longer gates it.
        let base = baseline(&[("cora/gnn.agg.GONE.fwd_ms", 1.0, 0.05)]);
        let history = window("cora", "gnn.agg.GONE.fwd_ms", &[1.0; WINDOW]);
        assert_eq!(gate(&history, &base, &manifest()).missing(), 1);
    }

    #[test]
    fn samples_come_only_from_the_metric_s_own_workload() {
        // Two workloads share a metric name; tiny's fast samples must not
        // mask cora's regression, nor cora's slow ones fail tiny.
        let base = baseline(&[
            ("cora/gnn.agg.GAT.fwd_ms", 1.0, 0.05),
            ("tiny/gnn.agg.GAT.fwd_ms", 0.1, 0.005),
        ]);
        let mut history = window("cora", "gnn.agg.GAT.fwd_ms", &[3.0; WINDOW]);
        history.extend(window("tiny", "gnn.agg.GAT.fwd_ms", &[0.1; WINDOW]));
        let report = gate(&history, &base, &manifest());
        let verdict = |key: &str| report.rows.iter().find(|r| r.key == key).map(|r| r.verdict);
        assert_eq!(verdict("cora/gnn.agg.GAT.fwd_ms"), Some(Verdict::Regression));
        assert_eq!(verdict("tiny/gnn.agg.GAT.fwd_ms"), Some(Verdict::Ok));
    }

    #[test]
    fn gate_ignores_other_presets() {
        let base = baseline(&[("cora/gnn.agg.GAT.fwd_ms", 1.0, 0.05)]);
        // Slow paper-preset rows must not pollute the quick gate, even
        // when they are the most recent lines.
        let mut history = window("cora", "gnn.agg.GAT.fwd_ms", &[1.0; WINDOW]);
        let paper = entry("cora", &[("gnn.agg.GAT.fwd_ms", 40.0)]);
        history.extend((0..3).map(|_| HistoryEntry { preset: "paper".into(), ..paper.clone() }));
        assert!(gate(&history, &base, &manifest()).passed());
        assert_eq!(window_samples(&history, "cora", "gnn.agg.GAT.fwd_ms"), [1.0; WINDOW]);
    }

    #[test]
    fn single_noisy_spike_is_absorbed_by_the_median() {
        let base = baseline(&[("cora/gnn.agg.GAT.fwd_ms", 1.0, 0.05)]);
        // Four honest samples and one 5× outlier: the median stays at 1.0.
        let history = window("cora", "gnn.agg.GAT.fwd_ms", &[1.0, 1.0, 5.0, 1.0, 1.0]);
        let report = gate(&history, &base, &manifest());
        assert!(report.passed(), "{report}");
        assert_eq!(report.rows[0].median, Some(1.0));
    }

    #[test]
    fn median_uses_only_the_trailing_window() {
        // Seven slow samples, then WINDOW fast ones: the gate sees only the
        // trailing fast window.
        let base = baseline(&[("cora/gnn.agg.GAT.fwd_ms", 1.0, 0.05)]);
        let mut history = window("cora", "gnn.agg.GAT.fwd_ms", &[100.0; 7]);
        history.extend(window("cora", "gnn.agg.GAT.fwd_ms", &[1.0; WINDOW]));
        assert_eq!(window_samples(&history, "cora", "gnn.agg.GAT.fwd_ms"), [1.0; WINDOW]);
        let report = gate(&history, &base, &manifest());
        assert!(report.passed(), "{report}");
        assert_eq!(report.rows[0].median, Some(1.0));
        assert!(window_samples(&history, "cora", "missing").is_empty());
        assert!(window_samples(&history, "tiny", "gnn.agg.GAT.fwd_ms").is_empty());
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let mut m = manifest();
        m.gated
            .push(MetricSpec { higher_is_better: true, ..spec("hit_rate", "fraction", Some(0.1)) });
        let base = baseline(&[("cora/hit_rate", 0.9, 0.0)]);
        let report = gate(&window("cora", "hit_rate", &[0.5; WINDOW]), &base, &m);
        assert_eq!(report.rows[0].verdict, Verdict::Regression);
        assert!((report.rows[0].limit - 0.81).abs() < 1e-12);
        let report = gate(&window("cora", "hit_rate", &[1.2; WINDOW]), &base, &m);
        assert_eq!(report.rows[0].verdict, Verdict::Improvement);
    }

    #[test]
    fn history_and_baseline_round_trip_through_json() {
        let metrics: BTreeMap<String, f64> =
            [("gnn.agg.GAT.fwd_ms".to_string(), 1.25), ("search_s".to_string(), 0.5)].into();
        let line = history_line("cora", 1, &metrics);
        let history = parse_history(&line).expect("history parses");
        assert_eq!(history.len(), 1);
        assert_eq!((history[0].bench.as_str(), history[0].preset.as_str()), ("cora", PRESET));
        assert_eq!(history[0].metrics, metrics);
        assert!(parse_history("{\"schema\":\"bogus\"}").is_err());
        assert!(parse_history("not json").is_err());

        let mut history = Vec::new();
        for w in ["tiny", "cora"] {
            for i in 0..WINDOW {
                let ms = 1.0 + 0.1 * i as f64;
                history.push(entry(
                    w,
                    &[
                        ("gnn.agg.GAT.fwd_ms", ms),
                        ("search_s", 2.0),
                        ("peak_rss_mib", 30.0),
                        ("nodes", 7.0),
                    ],
                ));
            }
        }
        let seeded = seed_baseline(&history, &manifest()).expect("every gated metric has samples");
        // Only gated metrics are baselined, one key per workload.
        assert_eq!(seeded.len(), 6);
        assert_eq!(seeded["cora/gnn.agg.GAT.fwd_ms"].base, 1.2);
        assert!((seeded["cora/gnn.agg.GAT.fwd_ms"].mad - 0.1).abs() < 1e-12);
        assert_eq!(seeded["tiny/search_s"], BaselineMetric { base: 2.0, mad: 0.0 });
        let back = parse_baseline(&baseline_to_json(&seeded)).expect("baseline round-trips");
        assert_eq!(back, seeded);

        // A freshly seeded baseline always gates green on the history that
        // produced it, and seeding refuses a gated metric with no samples.
        assert!(gate(&history, &back, &manifest()).passed());
        let err = seed_baseline(&history[..WINDOW], &manifest()).expect_err("cora has no samples");
        assert!(err.contains("`cora/search_s`"), "{err}");
    }

    #[test]
    fn malformed_history_lines_are_line_numbered_errors() {
        let ok =
            r#"{"schema":"sane.bench.v1","bench":"cora","preset":"quick","metrics":{"k_ms":1.0}}"#;
        for (bad, want) in [
            (
                r#"{"schema":"sane.bench.v1","bench":"cora","preset":"quick","metrics":{"k_ms":"fast"}}"#,
                "history line 2: metric `k_ms` is not a number",
            ),
            (
                r#"{"schema":"sane.bench.v1","preset":"quick","metrics":{"k_ms":1.0}}"#,
                "history line 2: missing `bench` string",
            ),
            (
                r#"{"schema":"sane.bench.v1","bench":"cora","metrics":{"k_ms":1.0}}"#,
                "history line 2: missing `preset` string",
            ),
            (
                r#"{"schema":"sane.bench.v1","bench":"cora","preset":"quick","metrics":{"k_ms":1.0,"k_ms":2.0}}"#,
                "history line 2: metric `k_ms` appears twice",
            ),
            (
                r#"{"schema":"sane.bench.v1","bench":"cora","preset":"quick","metrics":{"k_ms":1e999}}"#,
                "history line 2: metric `k_ms` is not a number",
            ),
        ] {
            let err = parse_history(&format!("{ok}\n{bad}\n")).expect_err(bad);
            assert_eq!(err, want);
        }
    }

    #[test]
    fn malformed_baselines_are_errors_naming_the_key() {
        let doc = |m: &str| format!(r#"{{"schema":"sane.bench.baseline.v2","metrics":{{{m}}}}}"#);
        let missing =
            |k: &str| format!("baseline metric `cora/x_ms`: `{k}` is missing or not a number");
        for (bad, want) in [
            (
                r#"{"schema":"sane.bench.baseline.v1","metrics":{}}"#.to_string(),
                "baseline: unknown schema `sane.bench.baseline.v1` (want sane.bench.baseline.v2)"
                    .to_string(),
            ),
            (
                r#"{"schema":"sane.bench.baseline.v2"}"#.into(),
                "baseline: missing `metrics` object".into(),
            ),
            (doc(r#""cora/x_ms":{"mad":0.1}"#), missing("base")),
            (doc(r#""cora/x_ms":{"base":"1.0","mad":0.1}"#), missing("base")),
            (doc(r#""cora/x_ms":{"base":1.0}"#), missing("mad")),
            (doc(r#""cora/x_ms":{"base":1.0,"mad":null}"#), missing("mad")),
            (
                doc(r#""cora/x_ms":{"base":1.0,"mad":-0.1}"#),
                "baseline metric `cora/x_ms`: `mad` is negative".into(),
            ),
            (
                doc(r#""x_ms":{"base":1.0,"mad":0.1}"#),
                "baseline metric `x_ms`: key is not `<workload>/<metric>`".into(),
            ),
            (
                doc(r#""cora/x_ms":{"base":1.0,"mad":0.1},"cora/x_ms":{"base":1.0,"mad":0.1}"#),
                "baseline metric `cora/x_ms`: appears twice".into(),
            ),
        ] {
            assert_eq!(parse_baseline(&bad).expect_err(&bad), want);
        }
    }

    #[test]
    fn result_lines_parse_and_malformed_ones_name_the_key() {
        let out = "search_s 1.5 s\n\
                   {\"correct\":true,\"attempted\":2,\"failed\":0,\"metrics\":{\"search_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n";
        let r = parse_result(out).expect("result parses");
        assert!(r.correct);
        assert_eq!(r.metrics, [("search_s".to_string(), 1.5)].into());
        let failed = parse_result(r#"{"correct":false,"metrics":{}}"#).expect("parses");
        assert!(!failed.correct);
        for (bad, want) in [
            ("", "result line: the run printed nothing"),
            (r#"{"metrics":{}}"#, "result line: missing `correct` boolean"),
            (r#"{"correct":"yes","metrics":{}}"#, "result line: missing `correct` boolean"),
            (r#"{"correct":true}"#, "result line: missing `metrics` object"),
            (
                r#"{"correct":true,"metrics":{"search_s":{"unit":"s"}}}"#,
                "result line: metric `search_s` is not a number",
            ),
            (
                r#"{"correct":true,"metrics":{"a":{"value":1},"a":{"value":2}}}"#,
                "result line: metric `a` appears twice",
            ),
        ] {
            assert_eq!(parse_result(bad).expect_err(bad), want);
        }
    }

    /// Deterministic ±10% ripple around `level` — CI-like noise without
    /// touching an RNG.
    fn noisy(level: f64, i: usize) -> f64 {
        level * (1.0 + 0.1 * ((i * 7 + 3) % 5) as f64 / 2.0 - 0.1)
    }

    #[test]
    fn changepoint_flags_a_step_and_ignores_noise() {
        let detect = |vals: &[f64]| {
            detect_steps(
                vals,
                DEFAULT_TREND_WINDOW,
                DEFAULT_TREND_MIN_SHIFT,
                DEFAULT_TREND_MAD_MULT,
                ABS_FLOOR_MS,
            )
        };
        // 20 noisy samples at ~1 ms, then 20 at ~2 ms: one step.
        let vals: Vec<f64> = (0..40).map(|i| noisy(if i < 20 { 1.0 } else { 2.0 }, i)).collect();
        let steps = detect(&vals);
        assert_eq!(steps.len(), 1, "{steps:?}");
        let s = steps[0];
        // The merged representative lands on/near the true boundary.
        assert!((18..=22).contains(&s.index), "index {}", s.index);
        assert!(s.shift_frac > 0.5, "{s:?}");

        // Pure ripple without a step stays silent.
        let flat: Vec<f64> = (0..40).map(|i| noisy(1.0, i)).collect();
        assert!(detect(&flat).is_empty());

        // Downward steps (improvements) never flag.
        let down: Vec<f64> = (0..40).map(|i| noisy(if i < 20 { 2.0 } else { 1.0 }, i)).collect();
        assert!(detect(&down).is_empty());

        // Sub-floor steps are scheduler noise at any ratio.
        let tiny: Vec<f64> = (0..40).map(|i| if i < 20 { 0.01 } else { 0.03 }).collect();
        assert!(detect(&tiny).is_empty());
        // Without a floor (a non-ms unit) the same step flags.
        assert_eq!(detect_steps(&tiny, 8, 0.5, 6.0, 0.0).len(), 1);
    }

    #[test]
    fn trend_scans_gated_series_only_and_renders() {
        let mut history: Vec<HistoryEntry> = Vec::new();
        for i in 0..32 {
            let s = if i < 16 { 0.01 } else { 0.03 };
            history.push(entry(
                "cora",
                &[("search_s", noisy(s, i)), ("gnn.agg.GAT.fwd_ms", 1.0), ("nodes", i as f64)],
            ));
        }
        let report = trend(
            &history,
            &manifest(),
            DEFAULT_TREND_WINDOW,
            DEFAULT_TREND_MIN_SHIFT,
            DEFAULT_TREND_MAD_MULT,
        );
        // `nodes` is not gated, so two series scan; the seconds step is
        // far below 0.05 but the ms floor does not apply to it.
        assert_eq!(report.series, 2);
        assert_eq!(report.changepoints.len(), 1, "{report}");
        let cp = &report.changepoints[0];
        assert_eq!((cp.metric.as_str(), cp.unit.as_str()), ("search_s", "s"));
        let json = report.to_json();
        assert_eq!(json.get("schema").and_then(Value::as_str), Some(TREND_SCHEMA));
        assert!(report.to_string().contains(" s (+"), "{report}");
    }

    #[test]
    fn compact_keeps_the_trailing_window_per_pair() {
        let mut text = String::new();
        for i in 0..20 {
            text.push_str(&format!(
                "{{\"schema\":\"sane.bench.v1\",\"bench\":\"cora\",\"preset\":\"quick\",\
                 \"unix_ms\":{i},\"metrics\":{{\"k_ms\":{i}.0}}}}\n"
            ));
        }
        text.push_str(
            "{\"schema\":\"sane.bench.v1\",\"bench\":\"memplan\",\"preset\":\"quick\",\
             \"unix_ms\":99,\"metrics\":{\"m.peak_mb\":1.0}}\n",
        );
        let (out, dropped) = compact_history(&text, 6).expect("compacts");
        assert_eq!(dropped, 14);
        let entries = parse_history(&out).expect("compacted output still parses");
        assert_eq!(entries.len(), 7);
        // The survivors are the *latest* cora entries, order preserved.
        assert_eq!(entries[0].metrics["k_ms"], 14.0);
        assert_eq!(entries[5].metrics["k_ms"], 19.0);
        // The single memplan entry is untouched.
        assert_eq!(entries[6].bench, "memplan");
        // keep below the gate window clamps up: nothing below 5 survives.
        let (out, _) = compact_history(&text, 1).expect("compacts");
        assert_eq!(parse_history(&out).expect("parses").len(), 6);
        // And the overflow warning trips only past the cap.
        let history = parse_history(&text).expect("parses");
        assert_eq!(history_overflow(&history, 40), Vec::new());
        let over = history_overflow(&history, 10);
        assert_eq!(over, vec![("cora".to_string(), "quick".to_string(), 20)]);
    }
}
