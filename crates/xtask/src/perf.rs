//! The noise-aware perf regression gate behind `cargo xtask perf`.
//!
//! Inputs:
//!
//! * `results/BENCH_history.jsonl` — one line per bench run, appended by
//!   the `kernels` / `search_smoke` binaries (schema `sane.bench.v1`).
//! * `results/BENCH_baseline.json` — the committed reference (schema
//!   `sane.bench.baseline.v1`): per-metric base values and relative
//!   tolerances plus a global absolute floor.
//!
//! The gate takes the **median of the last `window` samples** of each
//! baselined metric, so a single noisy run cannot fail CI, and flags a
//! regression only when the median exceeds the base by *both* the
//! relative tolerance and the absolute floor (sub-floor kernels finish in
//! microseconds; a 2× blip there is scheduler noise, not a regression).
//! Only metrics where higher is always worse are baselined: time-shaped
//! keys (`.ms_*`, `.wall_ms`, `.ms_per_epoch`) and the memory planner's
//! `.peak_mb` keys; ratio metrics such as
//! speedups ride along in the history for trend analysis but are never
//! gated — their healthy direction is machine-dependent, and the
//! `kernels` bench already excludes oversubscribed thread configs from
//! the history entirely.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use sane_telemetry::diff::{self, Attribution, NoiseModel, TraceDiff};
use sane_telemetry::Value;

/// History schema accepted by [`parse_history`].
pub const HISTORY_SCHEMA: &str = "sane.bench.v1";
/// Baseline schema emitted and accepted by this module.
pub const BASELINE_SCHEMA: &str = "sane.bench.baseline.v1";
/// Trend-report schema emitted by [`TrendReport::to_json`].
pub const TREND_SCHEMA: &str = "sane.trend.v1";

/// Default number of trailing samples the median is taken over.
pub const DEFAULT_WINDOW: usize = 5;
/// Default per-metric relative tolerance (CI runners are noisy; the
/// median already absorbs single-run spikes).
pub const DEFAULT_REL_TOL: f64 = 0.5;
/// Default absolute floor in milliseconds: a regression must also exceed
/// the base by this much to count.
pub const DEFAULT_ABS_FLOOR_MS: f64 = 0.05;

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

/// One parsed history line.
#[derive(Clone, Debug)]
pub struct HistoryEntry {
    pub bench: String,
    pub preset: String,
    pub metrics: BTreeMap<String, f64>,
}

/// One baselined metric: reference value and its relative tolerance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineMetric {
    pub base: f64,
    pub rel_tol: f64,
}

/// The committed reference the gate compares against.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    pub preset: String,
    pub window: usize,
    pub abs_floor_ms: f64,
    pub metrics: BTreeMap<String, BaselineMetric>,
}

/// Verdict for one baselined metric.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Median within tolerance of the base.
    Ok { median: f64, base: f64 },
    /// Median exceeds base by more than both thresholds.
    Regression { median: f64, base: f64, limit: f64 },
    /// Median at least `rel_tol` *below* base — worth re-seeding.
    Improvement { median: f64, base: f64 },
    /// No history samples for this metric (machine-dependent metrics may
    /// legitimately be absent; this warns, it does not fail).
    Missing,
}

/// The gate's full output: one verdict per baselined metric.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    pub rows: Vec<(String, Verdict)>,
}

impl GateReport {
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|(_, v)| matches!(v, Verdict::Regression { .. })).count()
    }

    pub fn missing(&self) -> usize {
        self.rows.iter().filter(|(_, v)| matches!(v, Verdict::Missing)).count()
    }

    /// True when no baselined metric regressed.
    pub fn passed(&self) -> bool {
        self.regressions() == 0
    }
}

impl fmt::Display for GateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<40} {:>12} {:>12} {:>12}  verdict", "metric", "median", "base", "limit")?;
        for (name, v) in &self.rows {
            match v {
                Verdict::Ok { median, base } => {
                    writeln!(f, "{name:<40} {median:>12.4} {base:>12.4} {:>12}  ok", "-")?
                }
                Verdict::Regression { median, base, limit } => {
                    writeln!(f, "{name:<40} {median:>12.4} {base:>12.4} {limit:>12.4}  REGRESSION")?
                }
                Verdict::Improvement { median, base } => {
                    writeln!(f, "{name:<40} {median:>12.4} {base:>12.4} {:>12}  improvement", "-")?
                }
                Verdict::Missing => {
                    writeln!(f, "{name:<40} {:>12} {:>12} {:>12}  missing (warn)", "-", "-", "-")?
                }
            }
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

/// Parses `BENCH_history.jsonl` text. Lines with other schemas, without a
/// `bench` or `preset` string, or with a non-numeric metric are an error
/// naming the line (the file is owned by this tooling); blank lines are
/// skipped.
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
        let metrics = rec
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("history line {lineno}: missing metrics object"))?
            .iter()
            .map(|(k, v)| {
                let x = v.as_f64().ok_or_else(|| {
                    format!("history line {lineno}: metric `{k}` is not a number")
                })?;
                Ok((k.clone(), x))
            })
            .collect::<Result<_, String>>()?;
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

/// Parses a committed `BENCH_baseline.json`.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let rec = Value::parse(text).map_err(|e| format!("baseline: {e}"))?;
    let schema = rec.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != BASELINE_SCHEMA {
        return Err(format!("baseline: unknown schema `{schema}` (want {BASELINE_SCHEMA})"));
    }
    let metrics = rec
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("baseline: missing metrics object")?
        .iter()
        .map(|(k, v)| {
            let base = v
                .get("base")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("baseline metric `{k}`: missing base"))?;
            let rel_tol = v.get("rel_tol").and_then(Value::as_f64).unwrap_or(DEFAULT_REL_TOL);
            Ok((k.clone(), BaselineMetric { base, rel_tol }))
        })
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    Ok(Baseline {
        preset: rec.get("preset").and_then(Value::as_str).unwrap_or("quick").to_string(),
        window: rec.get("window").and_then(Value::as_u64).unwrap_or(DEFAULT_WINDOW as u64) as usize,
        abs_floor_ms: rec
            .get("abs_floor_ms")
            .and_then(Value::as_f64)
            .unwrap_or(DEFAULT_ABS_FLOOR_MS),
        metrics,
    })
}

/// Serialises a baseline back to pretty-printable JSON text.
pub fn baseline_to_json(b: &Baseline) -> String {
    let metrics = b
        .metrics
        .iter()
        .map(|(k, m)| {
            (
                k.clone(),
                Value::Obj(vec![
                    ("base".into(), Value::Num(m.base)),
                    ("rel_tol".into(), Value::Num(m.rel_tol)),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str(BASELINE_SCHEMA.into())),
        ("preset".into(), Value::Str(b.preset.clone())),
        ("window".into(), Value::UInt(b.window as u64)),
        ("abs_floor_ms".into(), Value::Num(b.abs_floor_ms)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .to_json()
}

/// True for metric keys the gate owns: time-shaped or memory-shaped,
/// higher-is-worse. `.peak_mb` entries come from the dataflow memory
/// planner and are pure functions of the seeded fixture, so they gate
/// with zero run-to-run noise.
pub fn gated_metric(key: &str) -> bool {
    key.ends_with(".wall_ms")
        || key.ends_with(".ms_per_epoch")
        || key.contains(".ms_")
        || key.ends_with(".peak_mb")
}

/// The last `window` samples of `key` across matching-preset history
/// entries, in append order — the exact samples the gate medians over,
/// also used to derive a metric's [`NoiseModel`].
pub fn window_samples(
    history: &[HistoryEntry],
    preset: &str,
    key: &str,
    window: usize,
) -> Vec<f64> {
    let mut samples: Vec<f64> = history
        .iter()
        .filter(|e| e.preset == preset)
        .filter_map(|e| e.metrics.get(key).copied())
        .collect();
    let keep = samples.len().saturating_sub(window);
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

/// Median of the last `window` samples of `key` across matching-preset
/// history entries, in append order.
pub fn median_of_last(
    history: &[HistoryEntry],
    preset: &str,
    key: &str,
    window: usize,
) -> Option<f64> {
    if window == 0 {
        return None;
    }
    median(window_samples(history, preset, key, window))
}

/// Runs the gate: every baselined metric is checked against the median of
/// its recent history. Extra metrics in the history are ignored — the
/// baseline is the contract.
pub fn gate(history: &[HistoryEntry], baseline: &Baseline) -> GateReport {
    let mut report = GateReport::default();
    for (key, m) in &baseline.metrics {
        let verdict = match median_of_last(history, &baseline.preset, key, baseline.window) {
            None => Verdict::Missing,
            Some(median) => {
                let limit = m.base * (1.0 + m.rel_tol);
                if median > limit && median - m.base > baseline.abs_floor_ms {
                    Verdict::Regression { median, base: m.base, limit }
                } else if median < m.base * (1.0 - m.rel_tol) {
                    Verdict::Improvement { median, base: m.base }
                } else {
                    Verdict::Ok { median, base: m.base }
                }
            }
        };
        report.rows.push((key.clone(), verdict));
    }
    report
}

/// Builds a fresh baseline from history medians: every gated (time-shaped)
/// metric present in the history gets its median as base with the default
/// tolerance.
pub fn seed_baseline(history: &[HistoryEntry], preset: &str, window: usize) -> Baseline {
    let mut keys: Vec<String> = Vec::new();
    for e in history.iter().filter(|e| e.preset == preset) {
        for k in e.metrics.keys() {
            if gated_metric(k) && !keys.contains(k) {
                keys.push(k.clone());
            }
        }
    }
    let metrics = keys
        .into_iter()
        .filter_map(|k| {
            let base = median_of_last(history, preset, &k, window)?;
            Some((k, BaselineMetric { base, rel_tol: DEFAULT_REL_TOL }))
        })
        .collect();
    Baseline { preset: preset.to_string(), window, abs_floor_ms: DEFAULT_ABS_FLOOR_MS, metrics }
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
                "  {}/{} `{}`: step at sample {}/{}: {:.4} -> {:.4} ms \
                 ({:+.0}%, {:.1}x MAD)",
                c.bench,
                c.preset,
                c.metric,
                c.index,
                c.series_len,
                c.before,
                c.after,
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
/// 1. more than `abs_floor_ms` absolute (sub-floor kernels are scheduler
///    noise at any ratio),
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
    abs_floor_ms: f64,
) -> Vec<Step> {
    let mut flagged: Vec<Step> = Vec::new();
    if window == 0 || vals.len() < 2 * window {
        return flagged;
    }
    for i in window..=vals.len() - window {
        let Some(before) = median(vals[i - window..i].to_vec()) else { continue };
        let Some(after) = median(vals[i..i + window].to_vec()) else { continue };
        let shift = after - before;
        if shift <= abs_floor_ms || before <= 0.0 {
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

/// Scans every gated metric series in the history for step regressions
/// that crept in under the per-run tolerance.
pub fn trend(
    history: &[HistoryEntry],
    window: usize,
    min_shift_frac: f64,
    mad_mult: f64,
    abs_floor_ms: f64,
) -> TrendReport {
    let mut series_keys: Vec<(String, String, String)> = Vec::new();
    for e in history {
        for k in e.metrics.keys() {
            if !gated_metric(k) {
                continue;
            }
            let triple = (e.bench.clone(), e.preset.clone(), k.clone());
            if !series_keys.contains(&triple) {
                series_keys.push(triple);
            }
        }
    }
    series_keys.sort();
    let mut report = TrendReport { window, series: series_keys.len(), changepoints: Vec::new() };
    for (bench, preset, metric) in series_keys {
        let vals: Vec<f64> = history
            .iter()
            .filter(|e| e.bench == bench && e.preset == preset)
            .filter_map(|e| e.metrics.get(&metric).copied())
            .collect();
        for s in detect_steps(&vals, window, min_shift_frac, mad_mult, abs_floor_ms) {
            report.changepoints.push(Changepoint {
                bench: bench.clone(),
                preset: preset.clone(),
                metric: metric.clone(),
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
/// the overall append order. `keep` is clamped to at least the default
/// gate window so compaction can never eat the baseline median's samples.
/// Returns the new text and the number of dropped lines.
pub fn compact_history(text: &str, keep: usize) -> Result<(String, usize), String> {
    let keep = keep.max(DEFAULT_WINDOW);
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
// Gate-failure forensics: diff the candidate trace against the retained
// baseline trace and attribute each regressed metric.
// ---------------------------------------------------------------------------

/// Retained baseline trace path for a bench (committed next to the
/// baseline JSON; refreshed by `xtask perf --seed-baseline`).
pub fn baseline_trace_path(results_dir: &Path, bench: &str) -> PathBuf {
    results_dir.join(format!("TRACE_{bench}_baseline.jsonl"))
}

/// Candidate (latest-run) trace path for a bench.
pub fn candidate_trace_path(results_dir: &Path, bench: &str) -> PathBuf {
    results_dir.join(format!("TRACE_{bench}.jsonl"))
}

/// Forensics for one bench with at least one regressed metric.
#[derive(Clone, Debug)]
pub struct BenchForensics {
    pub bench: String,
    pub diff: TraceDiff,
    pub attributions: Vec<Attribution>,
    /// Written artifacts: `DIFF_<bench>.json`, `FLAMEDIFF_<bench>.txt`.
    pub diff_path: PathBuf,
    pub flame_path: PathBuf,
}

/// Everything `xtask perf --explain` produced for one gate failure.
#[derive(Clone, Debug, Default)]
pub struct ExplainReport {
    pub benches: Vec<BenchForensics>,
    /// Regressed metrics no history entry claims — nothing to diff.
    pub unmapped: Vec<String>,
}

/// Explains a failed gate: maps each regressed metric to the bench whose
/// history entries record it, diffs that bench's candidate trace against
/// its retained baseline trace, attributes the regression to the hottest
/// changed subtree (noise model from the metric's own history window),
/// and writes the `DIFF_<bench>.json` / `FLAMEDIFF_<bench>.txt`
/// artifacts into `results_dir`.
pub fn explain(
    results_dir: &Path,
    history: &[HistoryEntry],
    baseline: &Baseline,
    report: &GateReport,
) -> Result<ExplainReport, String> {
    let mut out = ExplainReport::default();
    // Regressed metrics, grouped by the bench that records them (the
    // most recent matching-preset history entry wins).
    let mut by_bench: BTreeMap<String, Vec<(String, f64, f64)>> = BTreeMap::new();
    for (metric, verdict) in &report.rows {
        let Verdict::Regression { median, base, .. } = verdict else { continue };
        let bench = history
            .iter()
            .rev()
            .find(|e| e.preset == baseline.preset && e.metrics.contains_key(metric))
            .map(|e| e.bench.clone());
        match bench {
            Some(b) => by_bench.entry(b).or_default().push((metric.clone(), *median, *base)),
            None => out.unmapped.push(metric.clone()),
        }
    }

    for (bench, regressed) in by_bench {
        let base_path = baseline_trace_path(results_dir, &bench);
        let cand_path = candidate_trace_path(results_dir, &bench);
        let base_prof = sane_telemetry::profile::profile_file(&base_path).map_err(|e| {
            format!(
                "no usable baseline trace for bench `{bench}` ({}: {e}); \
                 retain one with `cargo xtask perf --quick --seed-baseline`",
                base_path.display()
            )
        })?;
        let cand_prof = sane_telemetry::profile::profile_file(&cand_path).map_err(|e| {
            format!(
                "no usable candidate trace for bench `{bench}` ({}: {e}); \
                 record one with `cargo xtask perf --quick`",
                cand_path.display()
            )
        })?;
        let d = diff::diff(&base_prof, &cand_prof);
        let attributions: Vec<Attribution> = regressed
            .iter()
            .map(|(metric, median, base)| {
                let window = window_samples(history, &baseline.preset, metric, baseline.window);
                let noise = NoiseModel::from_window(&window, baseline.abs_floor_ms);
                diff::attribute(&d, metric, (*median, *base), noise, 8)
            })
            .collect();

        let diff_path = results_dir.join(format!("DIFF_{bench}.json"));
        std::fs::write(&diff_path, d.to_json(&attributions).to_json())
            .map_err(|e| format!("cannot write {}: {e}", diff_path.display()))?;
        let flame = d.to_collapsed();
        sane_telemetry::profile::parse_collapsed(&flame)
            .map_err(|e| format!("emitted differential flame does not re-parse: {e}"))?;
        let flame_path = results_dir.join(format!("FLAMEDIFF_{bench}.txt"));
        std::fs::write(&flame_path, flame)
            .map_err(|e| format!("cannot write {}: {e}", flame_path.display()))?;
        out.benches.push(BenchForensics { bench, diff: d, attributions, diff_path, flame_path });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(preset: &str, metrics: &[(&str, f64)]) -> HistoryEntry {
        HistoryEntry {
            bench: "kernels".into(),
            preset: preset.into(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn baseline(metrics: &[(&str, f64, f64)]) -> Baseline {
        Baseline {
            preset: "quick".into(),
            window: 5,
            abs_floor_ms: DEFAULT_ABS_FLOOR_MS,
            metrics: metrics
                .iter()
                .map(|(k, base, tol)| {
                    (k.to_string(), BaselineMetric { base: *base, rel_tol: *tol })
                })
                .collect(),
        }
    }

    #[test]
    fn synthetic_two_x_slowdown_fails_the_gate() {
        // Base 1 ms, tolerance 35%: a genuine 2× slowdown across the
        // whole window must regress (the ISSUE's acceptance criterion).
        let base = baseline(&[("spmm_forward.ms_1t", 1.0, 0.35)]);
        let history: Vec<HistoryEntry> =
            (0..5).map(|_| entry("quick", &[("spmm_forward.ms_1t", 2.0)])).collect();
        let report = gate(&history, &base);
        assert!(!report.passed());
        assert_eq!(report.regressions(), 1);
        assert!(matches!(report.rows[0].1, Verdict::Regression { median, .. } if median == 2.0));
    }

    #[test]
    fn single_noisy_spike_is_absorbed_by_the_median() {
        let base = baseline(&[("spmm_forward.ms_1t", 1.0, 0.35)]);
        // Four honest samples and one 5× outlier: median stays at 1.0.
        let mut history: Vec<HistoryEntry> =
            (0..4).map(|_| entry("quick", &[("spmm_forward.ms_1t", 1.0)])).collect();
        history.push(entry("quick", &[("spmm_forward.ms_1t", 5.0)]));
        let report = gate(&history, &base);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn sub_floor_regressions_do_not_fail() {
        // A 3× slowdown on a 10 µs kernel is under the absolute floor:
        // scheduler noise, not a regression.
        let base = baseline(&[("tiny.ms_1t", 0.01, 0.35)]);
        let history: Vec<HistoryEntry> =
            (0..5).map(|_| entry("quick", &[("tiny.ms_1t", 0.03)])).collect();
        assert!(gate(&history, &base).passed());
    }

    #[test]
    fn missing_metrics_warn_but_pass() {
        // Machine-dependent metrics (multi-thread timings on a 1-core
        // runner) may be absent from the history entirely.
        let base = baseline(&[("spmm_forward.ms_2t", 1.0, 0.35)]);
        let history = vec![entry("quick", &[("spmm_forward.ms_1t", 1.0)])];
        let report = gate(&history, &base);
        assert!(report.passed());
        assert_eq!(report.missing(), 1);
    }

    #[test]
    fn gate_ignores_other_presets() {
        let base = baseline(&[("spmm_forward.ms_1t", 1.0, 0.35)]);
        // Slow paper-preset rows must not pollute the quick gate.
        let mut history: Vec<HistoryEntry> =
            (0..3).map(|_| entry("paper", &[("spmm_forward.ms_1t", 40.0)])).collect();
        history.extend((0..3).map(|_| entry("quick", &[("spmm_forward.ms_1t", 1.0)])));
        assert!(gate(&history, &base).passed());
    }

    #[test]
    fn median_uses_only_the_trailing_window() {
        let history: Vec<HistoryEntry> = (0..10)
            .map(|i| entry("quick", &[("k.ms_1t", if i < 7 { 100.0 } else { 1.0 })]))
            .collect();
        // Window 3 sees only the three most recent (fast) samples.
        assert_eq!(median_of_last(&history, "quick", "k.ms_1t", 3), Some(1.0));
        assert_eq!(median_of_last(&history, "quick", "missing", 3), None);
    }

    #[test]
    fn history_and_baseline_round_trip_through_json() {
        let line = r#"{"schema":"sane.bench.v1","bench":"kernels","preset":"quick","unix_ms":1,"metrics":{"spmm_forward.ms_1t":1.25,"spmm_forward.speedup_2t":1.8}}"#;
        let history = parse_history(line).expect("history parses");
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].metrics.get("spmm_forward.ms_1t"), Some(&1.25));
        assert!(parse_history("{\"schema\":\"bogus\"}").is_err());
        assert!(parse_history("not json").is_err());

        let seeded = seed_baseline(&history, "quick", 5);
        // Speedups are not time-shaped: never baselined.
        assert_eq!(seeded.metrics.len(), 1);
        assert!(seeded.metrics.contains_key("spmm_forward.ms_1t"));
        let back = parse_baseline(&baseline_to_json(&seeded)).expect("baseline round-trips");
        assert_eq!(back.metrics, seeded.metrics);
        assert_eq!(back.window, seeded.window);

        // And a freshly seeded baseline always gates green on the history
        // that produced it.
        assert!(gate(&history, &back).passed());
    }

    #[test]
    fn malformed_history_lines_are_line_numbered_errors() {
        let ok = r#"{"schema":"sane.bench.v1","bench":"kernels","preset":"quick","metrics":{"k.ms_1t":1.0}}"#;
        for (bad, want) in [
            (
                r#"{"schema":"sane.bench.v1","bench":"kernels","preset":"quick","metrics":{"k.ms_1t":"fast"}}"#,
                "history line 2: metric `k.ms_1t` is not a number",
            ),
            (
                r#"{"schema":"sane.bench.v1","preset":"quick","metrics":{"k.ms_1t":1.0}}"#,
                "history line 2: missing `bench` string",
            ),
            (
                r#"{"schema":"sane.bench.v1","bench":"kernels","metrics":{"k.ms_1t":1.0}}"#,
                "history line 2: missing `preset` string",
            ),
        ] {
            let err = parse_history(&format!("{ok}\n{bad}\n")).expect_err(bad);
            assert_eq!(err, want);
        }
    }

    /// Deterministic ±10% ripple around `level` — CI-like noise without
    /// touching an RNG.
    fn noisy(level: f64, i: usize) -> f64 {
        level * (1.0 + 0.1 * ((i * 7 + 3) % 5) as f64 / 2.0 - 0.1)
    }

    #[test]
    fn changepoint_flags_a_step_and_ignores_noise() {
        // 20 noisy samples at ~1 ms, then 20 at ~2 ms: one step.
        let vals: Vec<f64> = (0..40).map(|i| noisy(if i < 20 { 1.0 } else { 2.0 }, i)).collect();
        let steps = detect_steps(
            &vals,
            DEFAULT_TREND_WINDOW,
            DEFAULT_TREND_MIN_SHIFT,
            DEFAULT_TREND_MAD_MULT,
            DEFAULT_ABS_FLOOR_MS,
        );
        assert_eq!(steps.len(), 1, "{steps:?}");
        let s = steps[0];
        // The merged representative lands on/near the true boundary.
        assert!((18..=22).contains(&s.index), "index {}", s.index);
        assert!(s.shift_frac > 0.5, "{s:?}");

        // Pure ripple without a step stays silent.
        let flat: Vec<f64> = (0..40).map(|i| noisy(1.0, i)).collect();
        assert!(detect_steps(
            &flat,
            DEFAULT_TREND_WINDOW,
            DEFAULT_TREND_MIN_SHIFT,
            DEFAULT_TREND_MAD_MULT,
            DEFAULT_ABS_FLOOR_MS,
        )
        .is_empty());

        // Downward steps (improvements) never flag.
        let down: Vec<f64> = (0..40).map(|i| noisy(if i < 20 { 2.0 } else { 1.0 }, i)).collect();
        assert!(detect_steps(
            &down,
            DEFAULT_TREND_WINDOW,
            DEFAULT_TREND_MIN_SHIFT,
            DEFAULT_TREND_MAD_MULT,
            DEFAULT_ABS_FLOOR_MS,
        )
        .is_empty());

        // Sub-floor steps are scheduler noise at any ratio.
        let tiny: Vec<f64> = (0..40).map(|i| if i < 20 { 0.01 } else { 0.03 }).collect();
        assert!(detect_steps(&tiny, 8, 0.5, 6.0, DEFAULT_ABS_FLOOR_MS).is_empty());
    }

    #[test]
    fn trend_scans_gated_series_only_and_renders() {
        let mut history: Vec<HistoryEntry> = Vec::new();
        for i in 0..32 {
            let ms = if i < 16 { 1.0 } else { 2.5 };
            history.push(entry(
                "quick",
                &[("spmm_forward.ms_1t", noisy(ms, i)), ("spmm_forward.speedup_2t", 1.8)],
            ));
        }
        let report = trend(
            &history,
            DEFAULT_TREND_WINDOW,
            DEFAULT_TREND_MIN_SHIFT,
            DEFAULT_TREND_MAD_MULT,
            DEFAULT_ABS_FLOOR_MS,
        );
        // The speedup ratio is not gated, so exactly one series scans.
        assert_eq!(report.series, 1);
        assert_eq!(report.changepoints.len(), 1, "{report}");
        assert_eq!(report.changepoints[0].metric, "spmm_forward.ms_1t");
        let json = report.to_json();
        assert_eq!(json.get("schema").and_then(Value::as_str), Some(TREND_SCHEMA));
        assert!(report.to_string().contains("changepoint"), "{report}");
    }

    #[test]
    fn compact_keeps_the_trailing_window_per_pair() {
        let mut text = String::new();
        for i in 0..20 {
            text.push_str(&format!(
                "{{\"schema\":\"sane.bench.v1\",\"bench\":\"kernels\",\"preset\":\"quick\",\
                 \"unix_ms\":{i},\"metrics\":{{\"k.ms_1t\":{i}.0}}}}\n"
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
        // The survivors are the *latest* kernels entries, order preserved.
        assert_eq!(entries[0].metrics["k.ms_1t"], 14.0);
        assert_eq!(entries[5].metrics["k.ms_1t"], 19.0);
        // The single memplan entry is untouched.
        assert_eq!(entries[6].bench, "memplan");
        // keep below the gate window clamps up: nothing below 5 survives.
        let (out, _) = compact_history(&text, 1).expect("compacts");
        assert_eq!(parse_history(&out).expect("parses").len(), 6);
        // And the overflow warning trips only past the cap.
        let history = parse_history(&text).expect("parses");
        assert_eq!(history_overflow(&history, 40), Vec::new());
        let over = history_overflow(&history, 10);
        assert_eq!(over, vec![("kernels".to_string(), "quick".to_string(), 20)]);
    }
}
