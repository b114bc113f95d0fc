//! Trace profiler: folds a validated trace's span tree and the
//! `kernel.<name>.ns` timing summaries into per-phase / per-kernel wall
//! time attribution, and exports `inferno`-compatible collapsed-stack
//! flamegraph text (no external dependencies; the emitted format
//! round-trips through [`parse_collapsed`]).
//!
//! ## Attribution model
//!
//! Spans form a tree (`span_open` carries `parent`, and the trace reader
//! resolves each span's *stack path* of root-first span names); each
//! closed span contributes its `elapsed_ns` to the aggregate of its path.
//! **Self time** is a path's total time minus the total time of its
//! direct child paths, so sums stay additive.
//! Kernel samples live in the `metrics` record, not the span stream;
//! phase-tagged spans ([`crate::phase_span`]) book each sample against
//! the innermost phase (`phase.<phase>.kernel.<name>.ns`), which lets the
//! profiler graft kernel frames *under* the span path that declared the
//! phase — splitting e.g. arch-step from weight-step kernel time — while
//! subtracting the grafted nanoseconds from that path's self time to keep
//! the flamegraph additive. Kernel time sampled outside any phase is
//! reported in the kernel table but not grafted (it is already inside
//! some span's self time).

use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::MetricSet;
use crate::trace::{self, Kind, Record};

/// Aggregated statistics of one span stack path.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameStat {
    /// Root-first span names.
    pub stack: Vec<String>,
    /// Number of span instances closed on this path.
    pub count: u64,
    /// Total elapsed nanoseconds (inclusive of children).
    pub total_ns: u64,
    /// Elapsed nanoseconds minus direct children (exclusive).
    pub self_ns: u64,
}

/// Aggregated time of one kernel, optionally within one phase.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelStat {
    pub name: String,
    /// Phase the samples were booked under; `None` for the remainder
    /// sampled outside any phase-tagged span.
    pub phase: Option<String>,
    pub count: u64,
    pub total_ns: u64,
    /// Latency quantiles `(p50, p90, p99)` in nanoseconds, from the
    /// stream's histogram. Phase rows read the per-phase histogram; the
    /// remainder row only carries quantiles when *all* samples were
    /// unphased (quantiles, unlike sums, cannot be subtracted).
    pub quantiles: Option<(f64, f64, f64)>,
}

/// Per-phase / per-kernel attribution of one run trace.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    pub run: String,
    /// Run wall time from the `run_end` record.
    pub wall_ns: u64,
    /// Span aggregates keyed by stack path, depth-first order.
    pub frames: Vec<FrameStat>,
    /// Kernel aggregates: one row per `(kernel, phase)` plus a `None`
    /// phase row for the unattributed remainder of each kernel.
    pub kernels: Vec<KernelStat>,
    /// `tape.peak_resident_bytes` gauge, when the run recorded tapes.
    pub peak_resident_bytes: Option<f64>,
    /// Counters from the final metrics snapshot.
    pub counters: BTreeMap<String, u64>,
    /// Span stack paths per phase tag, from `span_open` records.
    /// A phase maps to one path in well-formed instrumentation; multiple
    /// paths disable grafting for that phase.
    pub phase_paths: BTreeMap<String, Vec<Vec<String>>>,
}

/// Kernels whose samples *enclose* other sampled kernels (`tape_backward`
/// times a whole backward pass, which itself runs spmm/gemm/segment
/// kernels). Their time is reported in the kernel table but never grafted
/// into the flamegraph — grafting would count the inner kernels twice.
const ENCLOSING_KERNELS: [&str; 1] = ["tape_backward"];

pub(crate) fn graftable(kernel: &str) -> bool {
    !ENCLOSING_KERNELS.contains(&kernel)
}

impl Profile {
    /// Nanoseconds covered by top-level spans.
    pub fn attributed_ns(&self) -> u64 {
        self.frames.iter().filter(|f| f.stack.len() == 1).map(|f| f.total_ns).sum()
    }

    /// Fraction of the run's wall time covered by top-level spans
    /// (0 when the trace recorded no wall time).
    pub fn attributed_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.attributed_ns() as f64 / self.wall_ns as f64
    }

    /// Total nanoseconds of `kernel` across all phases.
    pub fn kernel_total_ns(&self, kernel: &str) -> u64 {
        self.kernels.iter().filter(|k| k.name == kernel).map(|k| k.total_ns).sum()
    }

    /// The stack path a `(phase, kernel)` row renders under in collapsed
    /// output: the unambiguous phase-declaring span path plus a
    /// `kernel:<name>` leaf, or a synthetic `phase:<tag>` root when the
    /// phase was declared on several paths.
    pub fn kernel_stack(&self, k: &KernelStat) -> Vec<String> {
        let mut stack = match k.phase.as_deref() {
            Some(phase) => match self.graft_path(phase) {
                Some(path) => path.to_vec(),
                None => vec![format!("phase:{phase}")],
            },
            None => Vec::new(),
        };
        stack.push(format!("kernel:{}", k.name));
        stack
    }

    /// The single span path that declared `phase`, when unambiguous.
    pub(crate) fn graft_path(&self, phase: &str) -> Option<&[String]> {
        match self.phase_paths.get(phase).map(Vec::as_slice) {
            Some([path]) => Some(path),
            _ => None,
        }
    }

    /// Kernel nanoseconds grafted under each span path (see module docs).
    pub(crate) fn grafted_by_path(&self) -> BTreeMap<Vec<String>, u64> {
        let mut grafted: BTreeMap<Vec<String>, u64> = BTreeMap::new();
        for k in &self.kernels {
            let Some(phase) = k.phase.as_deref() else { continue };
            if !graftable(&k.name) {
                continue;
            }
            if let Some(path) = self.graft_path(phase) {
                *grafted.entry(path.to_vec()).or_insert(0) += k.total_ns;
            }
        }
        grafted
    }

    /// Renders the profile as collapsed stacks (`frame;frame;... count`,
    /// counts in nanoseconds of self time) — the input format of
    /// `inferno-flamegraph` / Brendan Gregg's `flamegraph.pl`. Phased
    /// kernel time appears as `kernel:<name>` leaf frames under the span
    /// path that declared the phase, and is subtracted from that path's
    /// self time so every nanosecond is counted once.
    pub fn to_collapsed(&self) -> String {
        let grafted = self.grafted_by_path();
        let mut out = String::new();
        for f in &self.frames {
            let taken = grafted.get(&f.stack).copied().unwrap_or(0);
            let self_ns = f.self_ns.saturating_sub(taken);
            if self_ns > 0 {
                out.push_str(&f.stack.join(";"));
                out.push(' ');
                out.push_str(&self_ns.to_string());
                out.push('\n');
            }
        }
        for k in &self.kernels {
            if k.phase.is_none() || k.total_ns == 0 || !graftable(&k.name) {
                continue;
            }
            out.push_str(&self.kernel_stack(k).join(";"));
            out.push(' ');
            out.push_str(&k.total_ns.to_string());
            out.push('\n');
        }
        out
    }
}

/// Parses collapsed-stack text back into `(stack, count)` rows — the
/// inverse of [`Profile::to_collapsed`], used by its round-trip test and
/// by anything that post-processes the emitted flamegraph files.
pub fn parse_collapsed(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut rows = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let (stack, count) =
            line.rsplit_once(' ').ok_or_else(|| format!("line {lineno}: no count after stack"))?;
        let count: u64 =
            count.parse().map_err(|_| format!("line {lineno}: malformed count `{count}`"))?;
        if stack.is_empty() {
            return Err(format!("line {lineno}: empty stack"));
        }
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(String::is_empty) {
            return Err(format!("line {lineno}: empty frame in `{stack}`"));
        }
        rows.push((frames, count));
    }
    Ok(rows)
}

/// Validates one JSONL trace (see [`trace::read`]) and profiles it.
pub fn profile(text: &str) -> Result<Profile, String> {
    trace::read(text).map(|records| Profile::from_records(&records))
}

impl Profile {
    /// Folds a validated trace into its attribution.
    pub fn from_records(records: &[Record]) -> Profile {
        let mut out = Profile::default();
        // Path -> (count, total); keyed by path for stable, depth-grouped
        // output.
        let mut agg: BTreeMap<&[String], (u64, u64)> = BTreeMap::new();
        for rec in records {
            match &rec.kind {
                Kind::RunStart { run } => out.run = run.clone(),
                Kind::RunEnd { elapsed_ns } => out.wall_ns = *elapsed_ns,
                Kind::SpanOpen { path, phase: Some(phase), .. } => {
                    let paths = out.phase_paths.entry(phase.clone()).or_default();
                    if !paths.contains(path) {
                        paths.push(path.clone());
                    }
                }
                Kind::SpanClose { path, elapsed_ns, .. } => {
                    let entry = agg.entry(path).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += elapsed_ns;
                }
                _ => {}
            }
        }
        let mut child_ns: BTreeMap<&[String], u64> = BTreeMap::new();
        for (path, &(_, total_ns)) in &agg {
            if let Some((_, parent)) = path.split_last() {
                *child_ns.entry(parent).or_insert(0) += total_ns;
            }
        }
        out.frames = agg
            .iter()
            .map(|(path, &(count, total_ns))| FrameStat {
                stack: path.to_vec(),
                count,
                total_ns,
                self_ns: total_ns.saturating_sub(child_ns.get(path).copied().unwrap_or(0)),
            })
            .collect();
        if let Some(m) = trace::last_metrics(records) {
            out.apply_metrics(m);
        }
        out
    }

    /// Takes counters, the peak-resident gauge and the kernel rows from
    /// the run's last `metrics` record.
    fn apply_metrics(&mut self, m: &MetricSet) {
        self.counters = m.counters().clone();
        self.peak_resident_bytes = m.gauges().get("tape.peak_resident_bytes").copied();
        // Histogram quantiles per full stream name, when it has them.
        let quantiles_of = |stream: &str| {
            m.hists().get(stream).map(|h| (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)))
        };
        // First the phased rows, tracking how much of each kernel they cover.
        let mut phased: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (key, s) in m.summaries() {
            let Some((phase, kernel)) = key
                .strip_prefix("phase.")
                .and_then(|rest| rest.split_once(".kernel."))
                .and_then(|(p, k)| Some((p, k.strip_suffix(".ns")?)))
            else {
                continue;
            };
            let ns = s.sum as u64;
            let covered = phased.entry(kernel).or_insert((0, 0));
            covered.0 += s.count;
            covered.1 += ns;
            self.kernels.push(KernelStat {
                name: kernel.to_string(),
                phase: Some(phase.to_string()),
                count: s.count,
                total_ns: ns,
                quantiles: quantiles_of(key),
            });
        }
        // Then the per-kernel totals; whatever the phases did not cover is
        // the `None`-phase remainder.
        for (key, s) in m.summaries() {
            let Some(kernel) = key.strip_prefix("kernel.").and_then(|k| k.strip_suffix(".ns"))
            else {
                continue;
            };
            let (pc, pns) = phased.get(kernel).copied().unwrap_or((0, 0));
            let rest_count = s.count.saturating_sub(pc);
            let rest_ns = (s.sum as u64).saturating_sub(pns);
            if rest_count > 0 || rest_ns > 0 {
                self.kernels.push(KernelStat {
                    name: kernel.to_string(),
                    phase: None,
                    count: rest_count,
                    total_ns: rest_ns,
                    quantiles: if pc == 0 { quantiles_of(key) } else { None },
                });
            }
        }
        self.kernels.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile of run `{}`: {:.3}s wall, {:.1}% attributed to spans",
            self.run,
            self.wall_ns as f64 / 1e9,
            self.attributed_fraction() * 100.0
        )?;
        if !self.frames.is_empty() {
            writeln!(
                f,
                "  {:<44} {:>8} {:>12} {:>12} {:>7}",
                "span path", "calls", "total ms", "self ms", "% wall"
            )?;
            for fr in &self.frames {
                let label = format!(
                    "{}{}",
                    "  ".repeat(fr.stack.len().saturating_sub(1)),
                    fr.stack.last().map(String::as_str).unwrap_or("?")
                );
                let pct = if self.wall_ns == 0 {
                    0.0
                } else {
                    fr.total_ns as f64 / self.wall_ns as f64 * 100.0
                };
                writeln!(
                    f,
                    "  {:<44} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
                    label,
                    fr.count,
                    fr.total_ns as f64 / 1e6,
                    fr.self_ns as f64 / 1e6,
                    pct
                )?;
            }
        }
        if !self.kernels.is_empty() {
            writeln!(f, "  {:<28} {:<16} {:>10} {:>12}", "kernel", "phase", "calls", "total ms")?;
            for k in &self.kernels {
                write!(
                    f,
                    "  {:<28} {:<16} {:>10} {:>12.3}",
                    k.name,
                    k.phase.as_deref().unwrap_or("(unphased)"),
                    k.count,
                    k.total_ns as f64 / 1e6
                )?;
                if let Some((p50, p90, p99)) = k.quantiles {
                    write!(f, "  p50 {p50:>9.0} p90 {p90:>9.0} p99 {p99:>9.0} ns")?;
                }
                writeln!(f)?;
            }
        }
        if let Some(bytes) = self.peak_resident_bytes {
            writeln!(f, "  peak tape-resident: {:.2} MiB", bytes / (1024.0 * 1024.0))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two search epochs, each an arch step (one 400 µs spmm) and a weight
    /// step (a 900 µs spmm and a 300 µs gemm), plus one 50 µs spmm outside
    /// any phase. Timestamps are synthetic round numbers, so every
    /// attribution below is exact.
    const BUSY_TRACE: &str = concat!(
        r#"{"t_ns":0,"kind":"run_start","level":"info","run":"prof"}"#,
        "\n",
        r#"{"t_ns":1000,"kind":"span_open","level":"debug","id":1,"name":"search"}"#,
        "\n",
        r#"{"t_ns":2000,"kind":"span_open","level":"debug","id":2,"name":"search.epoch","parent":1}"#,
        "\n",
        r#"{"t_ns":3000,"kind":"span_open","level":"debug","id":3,"name":"search.arch_step","parent":2,"phase":"arch_step"}"#,
        "\n",
        r#"{"t_ns":2003000,"kind":"span_close","level":"debug","id":3,"name":"search.arch_step","elapsed_ns":2000000}"#,
        "\n",
        r#"{"t_ns":2004000,"kind":"span_open","level":"debug","id":4,"name":"search.weight_step","parent":2,"phase":"weight_step"}"#,
        "\n",
        r#"{"t_ns":5004000,"kind":"span_close","level":"debug","id":4,"name":"search.weight_step","elapsed_ns":3000000}"#,
        "\n",
        r#"{"t_ns":5005000,"kind":"span_close","level":"debug","id":2,"name":"search.epoch","elapsed_ns":5003000}"#,
        "\n",
        r#"{"t_ns":5006000,"kind":"span_open","level":"debug","id":5,"name":"search.epoch","parent":1}"#,
        "\n",
        r#"{"t_ns":5007000,"kind":"span_open","level":"debug","id":6,"name":"search.arch_step","parent":5,"phase":"arch_step"}"#,
        "\n",
        r#"{"t_ns":7007000,"kind":"span_close","level":"debug","id":6,"name":"search.arch_step","elapsed_ns":2000000}"#,
        "\n",
        r#"{"t_ns":7008000,"kind":"span_open","level":"debug","id":7,"name":"search.weight_step","parent":5,"phase":"weight_step"}"#,
        "\n",
        r#"{"t_ns":10008000,"kind":"span_close","level":"debug","id":7,"name":"search.weight_step","elapsed_ns":3000000}"#,
        "\n",
        r#"{"t_ns":10009000,"kind":"span_close","level":"debug","id":5,"name":"search.epoch","elapsed_ns":5003000}"#,
        "\n",
        r#"{"t_ns":10010000,"kind":"metrics","level":"info","counters":{},"gauges":{},"#,
        r#""summaries":{"#,
        r#""kernel.gemm.ns":{"count":2,"sum":600000,"min":300000,"max":300000,"mean":300000,"dropped":0},"#,
        r#""kernel.spmm.ns":{"count":5,"sum":2650000,"min":50000,"max":900000,"mean":530000,"dropped":0},"#,
        r#""phase.arch_step.kernel.spmm.ns":{"count":2,"sum":800000,"min":400000,"max":400000,"mean":400000,"dropped":0},"#,
        r#""phase.weight_step.kernel.gemm.ns":{"count":2,"sum":600000,"min":300000,"max":300000,"mean":300000,"dropped":0},"#,
        r#""phase.weight_step.kernel.spmm.ns":{"count":2,"sum":1800000,"min":900000,"max":900000,"mean":900000,"dropped":0}},"#,
        r#""hists":{"#,
        r#""kernel.gemm.ns":{"count":2,"dropped":0,"sum":600000,"min":300000,"max":300000,"p50":300000,"p90":300000,"p99":300000,"buckets":[[145,2]]},"#,
        r#""kernel.spmm.ns":{"count":5,"dropped":0,"sum":2650000,"min":50000,"max":900000,"p50":425984,"p90":900000,"p99":900000,"buckets":[[124,1],[148,2],[157,2]]},"#,
        r#""phase.arch_step.kernel.spmm.ns":{"count":2,"dropped":0,"sum":800000,"min":400000,"max":400000,"p50":400000,"p90":400000,"p99":400000,"buckets":[[148,2]]},"#,
        r#""phase.weight_step.kernel.gemm.ns":{"count":2,"dropped":0,"sum":600000,"min":300000,"max":300000,"p50":300000,"p90":300000,"p99":300000,"buckets":[[145,2]]},"#,
        r#""phase.weight_step.kernel.spmm.ns":{"count":2,"dropped":0,"sum":1800000,"min":900000,"max":900000,"p50":900000,"p90":900000,"p99":900000,"buckets":[[157,2]]}}}"#,
        "\n",
        r#"{"t_ns":10011000,"kind":"span_close","level":"debug","id":1,"name":"search","elapsed_ns":10010000}"#,
        "\n",
        r#"{"t_ns":10012000,"kind":"run_end","level":"info","elapsed_ns":10012000,"open_spans":0}"#,
        "\n",
    );

    fn frame<'a>(p: &'a Profile, path: &[&str]) -> &'a FrameStat {
        p.frames
            .iter()
            .find(|f| f.stack.iter().map(String::as_str).eq(path.iter().copied()))
            .unwrap_or_else(|| panic!("no frame {path:?}"))
    }

    #[test]
    fn span_tree_attribution_is_additive() {
        let p = profile(BUSY_TRACE).expect("valid trace");
        assert_eq!(p.run, "prof");
        let search = frame(&p, &["search"]);
        let epoch = frame(&p, &["search", "search.epoch"]);
        let arch = frame(&p, &["search", "search.epoch", "search.arch_step"]);
        let weight = frame(&p, &["search", "search.epoch", "search.weight_step"]);
        assert_eq!(search.count, 1);
        assert_eq!(epoch.count, 2);
        assert_eq!(arch.count, 2);
        assert_eq!(weight.count, 2);
        // Totals nest; self time excludes children.
        assert_eq!(search.total_ns, 10_010_000);
        assert_eq!(epoch.total_ns, 10_006_000);
        assert_eq!(arch.total_ns, 4_000_000);
        assert_eq!(weight.total_ns, 6_000_000);
        assert_eq!(search.self_ns, search.total_ns - epoch.total_ns);
        assert_eq!(epoch.self_ns, epoch.total_ns - arch.total_ns - weight.total_ns);
        // Only the 2 µs outside the root span goes unattributed.
        assert_eq!(p.wall_ns, 10_012_000);
        assert_eq!(p.attributed_ns(), 10_010_000);
    }

    #[test]
    fn kernels_split_by_phase_with_remainder() {
        let p = profile(BUSY_TRACE).expect("valid trace");
        let get = |name: &str, phase: Option<&str>| {
            p.kernels
                .iter()
                .find(|k| k.name == name && k.phase.as_deref() == phase)
                .unwrap_or_else(|| panic!("no kernel {name}/{phase:?}"))
        };
        assert_eq!(get("spmm", Some("arch_step")).total_ns, 800_000);
        assert_eq!(get("spmm", Some("weight_step")).total_ns, 1_800_000);
        assert_eq!(get("gemm", Some("weight_step")).total_ns, 600_000);
        // The sample outside any phase is the remainder row.
        assert_eq!(get("spmm", None).total_ns, 50_000);
        assert_eq!(p.kernel_total_ns("spmm"), 2_650_000);
        // Phase rows carry quantiles from the per-phase histogram; the
        // remainder row does not (spmm also has phased samples).
        let (p50, p90, p99) = get("spmm", Some("weight_step")).quantiles.expect("quantiles");
        assert!((900_000.0..=900_000.0 * 1.13).contains(&p50), "p50={p50}");
        assert!(p99 >= p90 && p90 >= p50);
        assert!(get("spmm", None).quantiles.is_none());
        // The rendering shows them.
        let report = p.to_string();
        assert!(report.contains("p99"), "{report}");
    }

    #[test]
    fn collapsed_stacks_round_trip_and_stay_additive() {
        let p = profile(BUSY_TRACE).expect("valid trace");
        let text = p.to_collapsed();
        let rows = parse_collapsed(&text).expect("own output parses");
        assert!(!rows.is_empty());
        // Kernel frames are grafted under the phase-declaring span path.
        assert!(
            rows.iter().any(|(stack, _)| stack.last().map(String::as_str) == Some("kernel:spmm")
                && stack.contains(&"search.weight_step".to_string())),
            "{text}"
        );
        // Total collapsed nanoseconds equal the root spans' total time:
        // grafting subtracts kernel time from span self time, so nothing
        // is double-counted.
        let collapsed_total: u64 = rows.iter().map(|(_, n)| n).sum();
        assert_eq!(collapsed_total, p.attributed_ns(), "{text}");
        // And the profile renders.
        let report = p.to_string();
        assert!(report.contains("attributed"), "{report}");
    }

    #[test]
    fn parse_collapsed_rejects_malformed_lines() {
        assert!(parse_collapsed("no_count_here").is_err());
        assert!(parse_collapsed("a;b notanumber").is_err());
        assert!(parse_collapsed("a;;b 3").is_err());
        assert_eq!(parse_collapsed("").expect("empty ok").len(), 0);
    }

    #[test]
    fn truncated_or_empty_traces_are_rejected() {
        assert!(profile("").is_err());
        let without_end: Vec<&str> =
            BUSY_TRACE.lines().filter(|l| !l.contains("run_end")).collect();
        assert!(profile(&without_end.join("\n")).is_err());
    }
}
