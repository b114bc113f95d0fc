//! Reading side: parse and validate a recorded JSONL trace, once.
//!
//! [`read`] is the one place the trace format is decoded: it parses every
//! line, checks it, and returns typed [`Record`]s. [`TraceSummary`] (what
//! `cargo xtask trace-report <file>` prints), the profiler's
//! [`crate::profile::Profile`] and the search [`crate::report::Dashboard`]
//! are folds over those records, so every reader accepts and rejects
//! exactly the same traces, with the same error.
//!
//! [`read`] is strict on purpose: a trace with unparseable lines,
//! backwards timestamps, unknown record kinds, missing fields, unbalanced
//! or orphan-parented spans, inconsistent histogram buckets, non-monotone
//! epochs or alpha rows that are not probability distributions is an
//! **error** naming its line, so CI fails on a malformed trace instead of
//! summarising garbage. The same checks cover multi-thread traces:
//! attached workers write through the recorder's serialising lock, so
//! `t_ns` stays monotone in file order and every worker span's `parent`
//! must already be open when the worker opens it.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::metrics::MetricSet;
use crate::value::Value;

/// One validated trace line.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Nanoseconds since the recorder was installed, monotone in file order.
    pub t_ns: u64,
    /// The worker label on records written by attached workers.
    pub thread: Option<String>,
    pub kind: Kind,
}

/// A record's payload, by its `kind` field.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    RunStart {
        run: String,
    },
    RunEnd {
        elapsed_ns: u64,
    },
    /// `path` is the span's root-first name path: its parent's path plus
    /// its own name.
    SpanOpen {
        id: u64,
        parent: Option<u64>,
        path: Vec<String>,
        phase: Option<String>,
    },
    /// `path` is the path the span was opened with.
    SpanClose {
        path: Vec<String>,
        elapsed_ns: u64,
    },
    Event(Event),
    /// A cumulative metrics snapshot: later ones supersede earlier ones.
    Metrics(MetricSet),
}

/// An `event` record. The search events are parsed into typed rows;
/// every other event is kept by name.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    Alpha(AlphaRow),
    Epoch(EpochRow),
    Other(String),
}

/// One `search.alpha` event: one mixed op's α softmax row at one epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct AlphaRow {
    pub epoch: u64,
    /// α group (`node`, `skip`, `layer`).
    pub group: String,
    /// Mixed-op index within the group.
    pub index: usize,
    /// A probability distribution: entries in [0, 1] summing to 1.
    pub probs: Vec<f64>,
    pub entropy: f64,
}

/// One `search.epoch` event.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRow {
    pub epoch: u64,
    pub val_metric: Option<f64>,
    /// Weight-step training loss (explore epochs skip the weight step).
    pub loss_w: Option<f64>,
    pub genotype: Option<String>,
}

/// Parses and validates one JSONL trace. See the module docs for what
/// counts as malformed; every error names its line, or the whole-trace
/// condition (no `run_start`, no `run_end`, spans left open).
pub fn read(text: &str) -> Result<Vec<Record>, String> {
    let mut reader = Reader::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = reader.record(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        reader.records.push(rec);
    }
    reader.finish()
}

/// Reads and validates a trace file.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<Record>, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    read(&text)
}

/// The validation state carried from line to line.
#[derive(Default)]
struct Reader {
    records: Vec<Record>,
    last_t: u64,
    /// Open spans by id, with their root-first name paths.
    open: BTreeMap<u64, Vec<String>>,
    last_epoch: Option<u64>,
    saw_end: bool,
}

/// A required field of `rec`; `what` names the record in the error.
fn req<'a, T>(
    rec: &'a Value,
    key: &str,
    what: &str,
    as_t: impl Fn(&'a Value) -> Option<T>,
) -> Result<T, String> {
    rec.get(key).and_then(as_t).ok_or_else(|| format!("{what} without {key}"))
}

/// An optional field of `rec`: absent and `null` (a non-finite number, as
/// the writer renders it) are `None`, any other value must convert.
fn opt<'a, T>(
    rec: &'a Value,
    key: &str,
    what: &str,
    as_t: impl Fn(&'a Value) -> Option<T>,
) -> Result<Option<T>, String> {
    match rec.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => as_t(v).map(Some).ok_or_else(|| format!("{what} has a malformed {key}")),
    }
}

impl Reader {
    fn record(&mut self, line: &str) -> Result<Record, String> {
        let rec = Value::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let Some(fields) = rec.as_obj() else {
            return Err("record is not a JSON object".to_string());
        };
        let t_ns = req(&rec, "t_ns", "record", Value::as_u64)?;
        if t_ns < self.last_t {
            return Err(format!("t_ns went backwards ({t_ns} < {})", self.last_t));
        }
        self.last_t = t_ns;
        let thread = opt(&rec, "thread", "record", Value::as_str)?.map(str::to_string);
        let kind = match req(&rec, "kind", "record", Value::as_str)? {
            "run_start" => {
                if !self.records.is_empty() {
                    return Err("run_start must be the first record".to_string());
                }
                Kind::RunStart { run: req(&rec, "run", "run_start", Value::as_str)?.to_string() }
            }
            "run_end" => {
                self.saw_end = true;
                Kind::RunEnd { elapsed_ns: req(&rec, "elapsed_ns", "run_end", Value::as_u64)? }
            }
            "span_open" => self.open_span(&rec)?,
            "span_close" => self.close_span(&rec)?,
            "event" => Kind::Event(self.event(&rec)?),
            "metrics" => Kind::Metrics(MetricSet::from_fields(fields)?),
            other => return Err(format!("unknown record kind `{other}`")),
        };
        Ok(Record { t_ns, thread, kind })
    }

    fn open_span(&mut self, rec: &Value) -> Result<Kind, String> {
        let id = req(rec, "id", "span_open", Value::as_u64)?;
        let name = req(rec, "name", "span_open", Value::as_str)?;
        let parent = opt(rec, "parent", "span_open", Value::as_u64)?;
        let phase = opt(rec, "phase", "span_open", Value::as_str)?.map(str::to_string);
        // A span's parent must be open at open time: worker root spans
        // parent to the owning thread's span, which stays open while
        // workers run, so a miss means a broken link.
        let mut path = match parent {
            Some(p) => self
                .open
                .get(&p)
                .cloned()
                .ok_or_else(|| format!("span id {id} has orphan parent {p} (not open)"))?,
            None => Vec::new(),
        };
        path.push(name.to_string());
        if self.open.insert(id, path.clone()).is_some() {
            return Err(format!("span id {id} opened twice"));
        }
        Ok(Kind::SpanOpen { id, parent, path, phase })
    }

    fn close_span(&mut self, rec: &Value) -> Result<Kind, String> {
        let id = req(rec, "id", "span_close", Value::as_u64)?;
        let path =
            self.open.remove(&id).ok_or_else(|| format!("span id {id} closed but never opened"))?;
        let elapsed_ns = req(rec, "elapsed_ns", "span_close", Value::as_u64)?;
        Ok(Kind::SpanClose { path, elapsed_ns })
    }

    fn event(&mut self, rec: &Value) -> Result<Event, String> {
        let name = req(rec, "name", "event", Value::as_str)?;
        Ok(match name {
            "search.epoch" => {
                let fields = req(rec, "fields", name, Some)?;
                let epoch = req(fields, "epoch", name, Value::as_u64)?;
                if let Some(prev) = self.last_epoch {
                    if epoch <= prev {
                        return Err(format!("epochs not monotone ({epoch} after {prev})"));
                    }
                }
                self.last_epoch = Some(epoch);
                Event::Epoch(EpochRow {
                    epoch,
                    val_metric: opt(fields, "val_metric", name, Value::as_f64)?,
                    loss_w: opt(fields, "loss_w", name, Value::as_f64)?,
                    genotype: opt(fields, "genotype", name, Value::as_str)?.map(str::to_string),
                })
            }
            "search.alpha" => Event::Alpha(alpha_row(req(rec, "fields", name, Some)?)?),
            other => Event::Other(other.to_string()),
        })
    }

    fn finish(self) -> Result<Vec<Record>, String> {
        match self.records.first() {
            None => return Err("trace is empty".to_string()),
            Some(Record { kind: Kind::RunStart { .. }, .. }) => {}
            Some(_) => return Err("trace has no run_start record".to_string()),
        }
        if !self.saw_end {
            return Err("trace has no run_end record (run aborted or trace truncated)".to_string());
        }
        if !self.open.is_empty() {
            let names: Vec<&str> =
                self.open.values().filter_map(|p| p.last()).map(String::as_str).collect();
            return Err(format!("{} span(s) never closed: {}", names.len(), names.join(", ")));
        }
        Ok(self.records)
    }
}

/// A `search.alpha` row must be a probability distribution: every entry
/// finite in [0, 1], summing to 1 within 1e-3, with a finite non-negative
/// entropy field.
fn alpha_row(fields: &Value) -> Result<AlphaRow, String> {
    let what = "search.alpha";
    let probs = req(fields, "probs", what, Value::as_arr)?;
    if probs.is_empty() {
        return Err("search.alpha probs is empty".to_string());
    }
    let probs = probs
        .iter()
        .map(|p| p.as_f64().ok_or_else(|| "non-numeric alpha probability".to_string()))
        .collect::<Result<Vec<f64>, String>>()?;
    if let Some(p) = probs.iter().find(|p| !p.is_finite() || !(0.0..=1.0).contains(*p)) {
        return Err(format!("alpha probability {p} outside [0,1]"));
    }
    let sum: f64 = probs.iter().sum();
    if (sum - 1.0).abs() > 1e-3 {
        return Err(format!("alpha probs sum to {sum}, not 1"));
    }
    let entropy = req(fields, "entropy", what, Value::as_f64)?;
    if !entropy.is_finite() || entropy < -1e-6 {
        return Err(format!("invalid alpha entropy {entropy}"));
    }
    Ok(AlphaRow {
        epoch: req(fields, "epoch", what, Value::as_u64)?,
        group: req(fields, "group", what, Value::as_str)?.to_string(),
        index: req(fields, "index", what, Value::as_u64)? as usize,
        probs,
        entropy,
    })
}

/// The run's last `metrics` record: metrics are cumulative, so it
/// supersedes every earlier one.
pub fn last_metrics(records: &[Record]) -> Option<&MetricSet> {
    records.iter().rev().find_map(|rec| match &rec.kind {
        Kind::Metrics(m) => Some(m),
        _ => None,
    })
}

/// Mean α entropy per group per epoch, epochs ascending: Fig. 3's
/// sharpening view, shared by the summary and the dashboard.
pub(crate) fn entropy_curves(records: &[Record]) -> BTreeMap<String, Vec<(u64, f64)>> {
    let mut acc: BTreeMap<(&str, u64), (f64, u64)> = BTreeMap::new();
    for rec in records {
        if let Kind::Event(Event::Alpha(row)) = &rec.kind {
            let a = acc.entry((row.group.as_str(), row.epoch)).or_insert((0.0, 0));
            a.0 += row.entropy;
            a.1 += 1;
        }
    }
    let mut curves: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
    for ((group, epoch), (sum, n)) in acc {
        curves.entry(group.to_string()).or_default().push((epoch, sum / n as f64));
    }
    curves
}

/// Aggregated time of one span name across the trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStat {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
}

/// Quantiles of one latency histogram from the last `metrics` record.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistStat {
    pub count: u64,
    pub dropped: u64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

/// What a valid trace contained.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    pub run: String,
    /// Run wall time from the `run_end` record.
    pub elapsed_ns: u64,
    pub records: usize,
    pub events: usize,
    /// Span totals, longest first.
    pub spans: Vec<SpanStat>,
    /// `search.epoch` rows in trace order (strictly increasing epochs).
    pub epochs: Vec<EpochRow>,
    /// Number of `search.alpha` rows validated as softmax distributions.
    pub alpha_rows: usize,
    /// Mean softmax entropy per alpha group (`node`, `skip`, `layer`),
    /// at the last epoch that reported each group.
    pub final_entropy: BTreeMap<String, f64>,
    /// Distinct genotypes in first-seen order with the epoch they appeared.
    pub genotypes: Vec<(u64, String)>,
    /// Counters from the last `metrics` record.
    pub counters: BTreeMap<String, u64>,
    /// Gauges from the last `metrics` record.
    pub gauges: BTreeMap<String, f64>,
    /// Kernel timing summaries (`kernel.<name>.ns`) from the last
    /// `metrics` record: (name, count, total_ns, mean_ns).
    pub kernels: Vec<(String, u64, f64, f64)>,
    /// Latency histogram quantiles from the last `metrics` record, keyed
    /// by full stream name (`kernel.spmm.ns`, `span.trial.ns`, …).
    pub hists: BTreeMap<String, HistStat>,
    /// Distinct worker labels (`thread` fields) seen in the trace.
    pub threads: Vec<String>,
}

impl TraceSummary {
    /// Folds a validated trace into its summary.
    pub fn from_records(records: &[Record]) -> Self {
        let mut out = TraceSummary { records: records.len(), ..TraceSummary::default() };
        let mut span_totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for rec in records {
            if let Some(thread) = &rec.thread {
                if !out.threads.contains(thread) {
                    out.threads.push(thread.clone());
                }
            }
            match &rec.kind {
                Kind::RunStart { run } => out.run = run.clone(),
                Kind::RunEnd { elapsed_ns } => out.elapsed_ns = *elapsed_ns,
                Kind::SpanOpen { .. } | Kind::Metrics(_) => {}
                Kind::SpanClose { path, elapsed_ns, .. } => {
                    if let Some(name) = path.last() {
                        let entry = span_totals.entry(name).or_insert((0, 0));
                        entry.0 += 1;
                        entry.1 += elapsed_ns;
                    }
                }
                Kind::Event(event) => {
                    out.events += 1;
                    match event {
                        Event::Epoch(row) => {
                            if let Some(g) = &row.genotype {
                                if out.genotypes.last().map(|(_, prev)| prev) != Some(g) {
                                    out.genotypes.push((row.epoch, g.clone()));
                                }
                            }
                            out.epochs.push(row.clone());
                        }
                        Event::Alpha(_) => out.alpha_rows += 1,
                        Event::Other(_) => {}
                    }
                }
            }
        }
        if let Some(m) = last_metrics(records) {
            out.counters = m.counters().clone();
            out.gauges = m.gauges().clone();
            out.kernels = m
                .summaries()
                .iter()
                .filter_map(|(k, s)| {
                    let short = k.strip_prefix("kernel.")?.strip_suffix(".ns")?;
                    Some((short.to_string(), s.count, s.sum, s.mean()))
                })
                .collect();
            out.hists = m
                .hists()
                .iter()
                .map(|(k, h)| {
                    let stat = HistStat {
                        count: h.count(),
                        dropped: h.dropped(),
                        p50: h.quantile(0.5),
                        p90: h.quantile(0.9),
                        p99: h.quantile(0.99),
                        max: h.max(),
                    };
                    (k.clone(), stat)
                })
                .collect();
        }
        out.spans = span_totals
            .into_iter()
            .map(|(name, (count, total_ns))| SpanStat { name: name.to_string(), count, total_ns })
            .collect();
        out.spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        out.final_entropy = entropy_curves(records)
            .into_iter()
            .filter_map(|(g, curve)| Some((g, curve.last()?.1)))
            .collect();
        out
    }

    /// The genotype the search settled on, if any epoch reported one.
    pub fn final_genotype(&self) -> Option<&str> {
        self.epochs.iter().rev().find_map(|e| e.genotype.as_deref())
    }

    /// Per-epoch validation metric series `(epoch, val_metric)`.
    pub fn val_curve(&self) -> Vec<(u64, f64)> {
        self.epochs.iter().filter_map(|e| Some((e.epoch, e.val_metric?))).collect()
    }
}

/// Validates and summarises one JSONL trace.
pub fn summarize(text: &str) -> Result<TraceSummary, String> {
    read(text).map(|records| TraceSummary::from_records(&records))
}

/// Recorded trace files (`TRACE_*.jsonl`) directly under `dir`, sorted by
/// file name. Missing or unreadable directories yield an empty list — the
/// callers' error paths list whatever is available.
pub fn list_traces(dir: impl AsRef<Path>) -> Vec<std::path::PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir.as_ref()) else { return Vec::new() };
    let mut out: Vec<std::path::PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("TRACE_") && n.ends_with(".jsonl"))
        })
        .collect();
    out.sort();
    out
}

/// The most recently modified trace file under `dir`, for tooling that
/// defaults to "the run you just recorded". Ties (or filesystems without
/// mtimes) fall back to name order, so the pick stays deterministic.
pub fn newest_trace(dir: impl AsRef<Path>) -> Option<std::path::PathBuf> {
    list_traces(dir)
        .into_iter()
        .max_by_key(|p| (std::fs::metadata(p).and_then(|m| m.modified()).ok(), p.clone()))
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run `{}`: {} record(s), {} event(s)", self.run, self.records, self.events)?;
        writeln!(f, "  wall time: {:.3}s", self.elapsed_ns as f64 / 1e9)?;
        if !self.spans.is_empty() {
            writeln!(f, "  top spans by total time:")?;
            for s in self.spans.iter().take(8) {
                writeln!(
                    f,
                    "    {:<28} {:>6}x {:>12.3} ms",
                    s.name,
                    s.count,
                    s.total_ns as f64 / 1e6
                )?;
            }
        }
        if !self.threads.is_empty() {
            writeln!(f, "  worker threads: {}", self.threads.join(", "))?;
        }
        if let (Some(first), Some(last)) = (self.epochs.first(), self.epochs.last()) {
            write!(f, "  epochs {}..={}", first.epoch, last.epoch)?;
            if let Some(v) = last.val_metric {
                write!(f, ", final val metric {v:.4}")?;
            }
            writeln!(f)?;
        }
        if self.alpha_rows > 0 {
            write!(f, "  {} alpha row(s) validated; final mean entropy:", self.alpha_rows)?;
            for (g, e) in &self.final_entropy {
                write!(f, " {g}={e:.3}")?;
            }
            writeln!(f)?;
        }
        if let Some(last) = self.genotypes.last() {
            writeln!(
                f,
                "  genotype changed {} time(s); stable since epoch {}",
                self.genotypes.len().saturating_sub(1),
                last.0
            )?;
            if let Some(g) = self.final_genotype() {
                writeln!(f, "  final genotype: {g}")?;
            }
        }
        let pool: Vec<(&String, &u64)> =
            self.counters.iter().filter(|(k, _)| k.starts_with("pool.")).collect();
        if !pool.is_empty() {
            write!(f, "  pool:")?;
            for (k, v) in pool {
                write!(f, " {}={v}", k.trim_start_matches("pool."))?;
            }
            writeln!(f)?;
        }
        if !self.kernels.is_empty() {
            writeln!(f, "  kernels:")?;
            let mut by_total: Vec<_> = self.kernels.clone();
            by_total.sort_by(|a, b| b.2.total_cmp(&a.2));
            for (name, count, sum, mean) in by_total {
                write!(
                    f,
                    "    {:<28} {:>8}x {:>12.3} ms total {:>10.1} ns/call",
                    name,
                    count,
                    sum / 1e6,
                    mean
                )?;
                if let Some(h) = self.hists.get(&format!("kernel.{name}.ns")) {
                    write!(f, "  p50 {:>9.0} p90 {:>9.0} p99 {:>9.0} ns", h.p50, h.p90, h.p99)?;
                }
                writeln!(f)?;
            }
        }
        // Span latency streams with quantiles (per-trial spans etc.);
        // kernel and per-phase streams already render via the profiler.
        let other: Vec<(&String, &HistStat)> = self
            .hists
            .iter()
            .filter(|(k, _)| !k.starts_with("kernel.") && !k.starts_with("phase."))
            .collect();
        if !other.is_empty() {
            writeln!(f, "  latency quantiles:")?;
            for (name, h) in other {
                writeln!(
                    f,
                    "    {:<28} {:>8}x p50 {:>11.0} p90 {:>11.0} p99 {:>11.0} max {:>11.0} ns",
                    name, h.count, h.p50, h.p90, h.p99, h.max
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Level;
    use crate::recorder::{self, Recorder};
    use crate::sink::MemoryBuffer;
    use crate::value::Value;

    fn recorded_trace(run: impl FnOnce()) -> String {
        let buf = MemoryBuffer::default();
        let guard = Recorder::new("test").with_memory(buf.clone()).install();
        run();
        drop(guard);
        let text = buf.borrow().clone();
        text
    }

    fn alpha_fields(epoch: i64, probs: &[f32]) -> Vec<(&'static str, Value)> {
        let entropy: f64 = probs
            .iter()
            .map(|&p| {
                let p = p as f64;
                if p > 0.0 {
                    -p * p.ln()
                } else {
                    0.0
                }
            })
            .sum();
        vec![
            ("epoch", Value::Int(epoch)),
            ("group", Value::from("node")),
            ("index", Value::Int(0)),
            ("probs", Value::from(probs)),
            ("entropy", Value::Num(entropy)),
        ]
    }

    #[test]
    fn well_formed_trace_summarises() {
        let text = recorded_trace(|| {
            let _search = recorder::span("search");
            for epoch in 0..3i64 {
                let _e = recorder::span("epoch");
                recorder::event(Level::Info, "search.alpha", &alpha_fields(epoch, &[0.25; 4]));
                recorder::event(
                    Level::Info,
                    "search.epoch",
                    &[
                        ("epoch", Value::Int(epoch)),
                        ("val_metric", Value::Num(0.5 + epoch as f64 * 0.1)),
                        ("genotype", Value::from(if epoch < 2 { "a" } else { "b" })),
                    ],
                );
            }
            recorder::kernel_sample("spmm", 500);
            recorder::flush_metrics();
        });
        let s = summarize(&text).expect("valid trace");
        assert_eq!(s.run, "test");
        assert_eq!(s.epochs.len(), 3);
        assert_eq!(s.alpha_rows, 3);
        assert_eq!(s.final_genotype(), Some("b"));
        assert_eq!(s.genotypes.len(), 2);
        assert_eq!(s.val_curve(), vec![(0, 0.5), (1, 0.6), (2, 0.7)]);
        assert_eq!(s.spans[0].name, "search");
        assert!(s.kernels.iter().any(|(k, count, ..)| k == "spmm" && *count == 1));
        // And the report renders.
        let report = s.to_string();
        assert!(report.contains("final genotype: b"), "{report}");
    }

    #[test]
    fn bad_alpha_row_is_rejected() {
        let text = recorded_trace(|| {
            recorder::event(
                Level::Info,
                "search.alpha",
                &[
                    ("epoch", Value::Int(0)),
                    ("group", Value::from("node")),
                    ("probs", Value::from(&[0.9f32, 0.9][..])),
                    ("entropy", Value::Num(0.3)),
                ],
            );
        });
        let err = summarize(&text).expect_err("sum 1.8 must fail");
        assert!(err.contains("sum"), "{err}");
    }

    #[test]
    fn non_monotone_epochs_are_rejected() {
        let text = recorded_trace(|| {
            for epoch in [1i64, 0] {
                recorder::event(Level::Info, "search.epoch", &[("epoch", Value::Int(epoch))]);
            }
        });
        let err = summarize(&text).expect_err("0 after 1 must fail");
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn spans_without_alpha_rows_summarise_with_empty_search_views() {
        // A train-only trace (spans + kernels, no search events) is valid;
        // the search-facing accessors degrade to empty, not panic.
        let text = recorded_trace(|| {
            let _t = recorder::span("train");
            recorder::kernel_sample("gemm", 800);
            recorder::flush_metrics();
        });
        let s = summarize(&text).expect("span-only trace is valid");
        assert_eq!(s.alpha_rows, 0);
        assert!(s.epochs.is_empty());
        assert_eq!(s.val_curve(), Vec::new());
        assert_eq!(s.final_genotype(), None);
        assert!(s.final_entropy.is_empty());
        assert!(s.genotypes.is_empty());
        assert_eq!(s.spans[0].name, "train");
    }

    #[test]
    fn duplicate_epoch_events_are_rejected() {
        // Two `search.epoch` records for the same epoch would make
        // val_curve()/final_genotype() ambiguous; the validator treats a
        // repeat as a monotonicity violation.
        let text = recorded_trace(|| {
            for _ in 0..2 {
                recorder::event(
                    Level::Info,
                    "search.epoch",
                    &[("epoch", Value::Int(3)), ("val_metric", Value::Num(0.5))],
                );
            }
        });
        let err = summarize(&text).expect_err("duplicate epoch 3 must fail");
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn histograms_surface_quantiles_and_validate_buckets() {
        let text = recorded_trace(|| {
            let _t = recorder::span("train");
            for ns in [1_000u64, 2_000, 50_000] {
                recorder::kernel_sample("spmm", ns);
            }
            recorder::flush_metrics();
        });
        let s = summarize(&text).expect("valid trace");
        let h = s.hists.get("kernel.spmm.ns").expect("spmm histogram");
        assert_eq!(h.count, 3);
        assert_eq!(h.max, 50_000.0);
        assert!(h.p50 >= 2_000.0 && h.p50 <= 2_000.0 * 1.13, "p50={}", h.p50);
        assert!(h.p99 >= h.p90 && h.p90 >= h.p50);
        let report = s.to_string();
        assert!(report.contains("p99"), "{report}");

        // A histogram whose buckets disagree with its count is malformed.
        let broken = text.replace("\"count\":3", "\"count\":4");
        let err = summarize(&broken).expect_err("inconsistent buckets must fail");
        assert!(err.contains("buckets sum"), "{err}");
    }

    #[test]
    fn worker_records_carry_thread_and_parent_links() {
        let text = recorded_trace(|| {
            let _root = recorder::span("root");
            let h = recorder::handle().expect("active");
            let _w = h.attach("w7");
            let _trial = recorder::span("trial");
        });
        let s = summarize(&text).expect("worker trace validates");
        assert_eq!(s.threads, vec!["w7".to_string()]);
        assert!(s.spans.iter().any(|sp| sp.name == "trial"));
    }

    #[test]
    fn orphan_span_parents_are_rejected() {
        let text = recorded_trace(|| {
            let _s = recorder::span("root");
        });
        // Rewrite the root span's parent to an id that was never opened.
        let broken: Vec<String> = text
            .lines()
            .map(|l| {
                if l.contains("span_open") {
                    l.replace("\"name\":\"root\"", "\"name\":\"root\",\"parent\":999")
                } else {
                    l.to_string()
                }
            })
            .collect();
        let err = summarize(&broken.join("\n")).expect_err("orphan parent must fail");
        assert!(err.contains("orphan parent"), "{err}");
    }

    #[test]
    fn records_carry_resolved_span_paths_and_typed_metrics() {
        let text = recorded_trace(|| {
            let _outer = recorder::span("outer");
            let _inner = recorder::phase_span("inner", "arch_step");
            recorder::kernel_sample("spmm", 700);
            recorder::flush_metrics();
        });
        let records = read(&text).expect("valid trace");
        let path_of = |want: &str| {
            records.iter().find_map(|r| match &r.kind {
                Kind::SpanClose { path, .. } if path.last().map(String::as_str) == Some(want) => {
                    Some(path.clone())
                }
                _ => None,
            })
        };
        assert_eq!(path_of("inner"), Some(vec!["outer".to_string(), "inner".to_string()]));
        let phase = records.iter().find_map(|r| match &r.kind {
            Kind::SpanOpen { phase: Some(phase), .. } => Some(phase.as_str()),
            _ => None,
        });
        assert_eq!(phase, Some("arch_step"));
        let m = last_metrics(&records).expect("metrics record");
        assert_eq!(m.summaries()["kernel.spmm.ns"].count, 1);
        assert_eq!(m.hists()["phase.arch_step.kernel.spmm.ns"].count(), 1);
    }

    /// Wraps body lines (stamped 1, 2, …) in a run_start and a run_end.
    fn run_of(body: &[&str]) -> String {
        let mut lines = vec![r#"{"t_ns":0,"kind":"run_start","level":"info","run":"bad"}"#];
        lines.extend_from_slice(body);
        lines.push(
            r#"{"t_ns":900,"kind":"run_end","level":"info","elapsed_ns":900,"open_spans":0}"#,
        );
        lines.join("\n")
    }

    #[test]
    fn every_reader_rejects_the_same_malformed_traces() {
        let open = |t: u64, id: u64, parent: Option<u64>| match parent {
            Some(p) => format!(
                r#"{{"t_ns":{t},"kind":"span_open","level":"debug","id":{id},"name":"s{id}","parent":{p}}}"#
            ),
            None => {
                format!(
                    r#"{{"t_ns":{t},"kind":"span_open","level":"debug","id":{id},"name":"s{id}"}}"#
                )
            }
        };
        let close = |t: u64, id: u64| {
            format!(
                r#"{{"t_ns":{t},"kind":"span_close","level":"debug","id":{id},"name":"s{id}","elapsed_ns":1}}"#
            )
        };
        let event = |t: u64, name: &str, fields: &str| {
            format!(
                r#"{{"t_ns":{t},"kind":"event","level":"info","name":"{name}","fields":{{{fields}}}}}"#
            )
        };
        let hist = concat!(
            r#"{"t_ns":1,"kind":"metrics","level":"info","counters":{},"gauges":{},"summaries":{},"#,
            r#""hists":{"kernel.spmm.ns":{"count":3,"dropped":0,"sum":30,"min":10,"max":10,"#,
            r#""p50":10,"p90":10,"p99":10,"buckets":[[34,2]]}}}"#
        );
        let alpha = r#""epoch":0,"group":"node","index":0,"probs":[0.9,0.9],"entropy":0.3"#;
        let cases: Vec<(&str, String, &str)> = vec![
            (
                "orphan parent",
                run_of(&[&open(1, 1, Some(99)), &close(2, 1)]),
                "line 2: span id 1 has orphan parent 99 (not open)",
            ),
            (
                "t_ns going backwards",
                run_of(&[&event(5, "a", ""), &event(3, "b", "")]),
                "line 3: t_ns went backwards (3 < 5)",
            ),
            (
                "unknown kind",
                run_of(&[r#"{"t_ns":1,"kind":"bogus","level":"info"}"#]),
                "line 2: unknown record kind `bogus`",
            ),
            (
                "span opened twice",
                run_of(&[&open(1, 1, None), &open(2, 1, None), &close(3, 1)]),
                "line 3: span id 1 opened twice",
            ),
            (
                "close without open",
                run_of(&[&close(1, 7)]),
                "line 2: span id 7 closed but never opened",
            ),
            (
                "histogram buckets not summing to count",
                run_of(&[hist]),
                "line 2: histogram `kernel.spmm.ns`: buckets sum to 2, count says 3",
            ),
            (
                "alpha row not summing to 1",
                run_of(&[&event(1, "search.alpha", alpha)]),
                "line 2: alpha probs sum to 1.8, not 1",
            ),
            (
                "non-monotone epochs",
                run_of(&[
                    &event(1, "search.epoch", r#""epoch":1"#),
                    &event(2, "search.epoch", r#""epoch":0"#),
                ]),
                "line 3: epochs not monotone (0 after 1)",
            ),
            (
                "no run_start",
                run_of(&[]).lines().skip(1).collect::<Vec<_>>().join("\n"),
                "trace has no run_start record",
            ),
            (
                "no run_end",
                run_of(&[]).lines().take(1).collect::<Vec<_>>().join("\n"),
                "trace has no run_end record (run aborted or trace truncated)",
            ),
            ("unclosed span", run_of(&[&open(1, 4, None)]), "1 span(s) never closed: s4"),
        ];
        for (case, text, want) in &cases {
            let err = summarize(text).expect_err(case);
            assert_eq!(err, *want, "{case}");
            let profile_err = crate::profile::profile(text).expect_err(case);
            assert_eq!(profile_err, err, "{case}: profile disagrees");
            let dashboard_err = crate::report::dashboard(text).expect_err(case);
            assert_eq!(dashboard_err, err, "{case}: dashboard disagrees");
        }
    }

    #[test]
    fn truncated_trace_is_rejected() {
        let text = recorded_trace(|| {});
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop(); // drop run_end
        let err = summarize(&lines.join("\n")).expect_err("no run_end must fail");
        assert!(err.contains("run_end"), "{err}");
        assert!(summarize("not json").is_err());
        assert!(summarize("").is_err());
    }
}
