//! End-to-end regression forensics.
//!
//! * A synthetic ~2× slowdown injected into one kernel of a recorded
//!   trace must be attributed to exactly that kernel (top-1) by the
//!   `xtask perf --explain` machinery, with the `DIFF_<workload>.json` and
//!   `FLAMEDIFF_<workload>.txt` artifacts written and well-formed.
//! * The changepoint detector must flag an injected step in synthetic
//!   history while staying silent on the committed real history.
//! * History compaction must round-trip the committed history file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sane_telemetry::diff::DIFF_SCHEMA;
use sane_telemetry::Value;
use xtask::perf::{
    self, gate, parse_history, trend, Baseline, BaselineMetric, HistoryEntry, Manifest, MetricSpec,
    DEFAULT_TREND_MAD_MULT, DEFAULT_TREND_MIN_SHIFT, DEFAULT_TREND_WINDOW, PRESET, WINDOW,
};

/// One synthetic kernel row: name, phase, count, summed ns, quantiles.
type KernelRow<'a> = (&'a str, &'a str, u64, u64, (f64, f64, f64));

/// Hand-built deterministic trace: a chain of nested spans plus
/// per-(kernel, phase) timing summaries, in the exact JSONL shape the
/// recorder emits (see `sane_telemetry::diff` tests for the twin).
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
    let mut summaries = String::new();
    let mut hists = String::new();
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for &(kernel, phase, count, sum, (p50, p90, p99)) in kernels {
        let t = totals.entry(kernel).or_insert((0, 0));
        t.0 += count;
        t.1 += sum;
        let stream = format!("phase.{phase}.kernel.{kernel}.ns");
        let _ = write!(summaries, r#""{stream}":{{"count":{count},"sum":{sum}.0}},"#);
        let _ = write!(hists, r#""{stream}":{{"p50":{p50},"p90":{p90},"p99":{p99}}},"#);
    }
    for (kernel, (count, sum)) in &totals {
        let _ = write!(summaries, r#""kernel.{kernel}.ns":{{"count":{count},"sum":{sum}.0}},"#);
    }
    summaries.pop();
    hists.pop();
    let _ = writeln!(
        out,
        r#"{{"kind":"metrics","t_ns":500,"level":"debug","counters":{{}},"gauges":{{}},"summaries":{{{summaries}}},"hists":{{{hists}}}}}"#
    );
    let _ = writeln!(
        out,
        r#"{{"kind":"run_end","t_ns":1000,"level":"info","elapsed_ns":1000000,"open_spans":0}}"#
    );
    out
}

/// A fresh per-test scratch dir under the target-adjacent temp root.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sane_forensics_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn entry(bench: &str, metrics: &[(&str, f64)]) -> HistoryEntry {
    HistoryEntry {
        bench: bench.into(),
        preset: PRESET.into(),
        metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    }
}

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name)
}

fn committed_history_path() -> PathBuf {
    repo_file("results/BENCH_history.jsonl")
}

fn committed_manifest() -> Manifest {
    let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    perf::parse_manifest(&text).expect("BENCHMARK.json parses")
}

/// A one-workload manifest gating `spmm_forward.ms`, and a gate fixture
/// whose window sits at 2 ms against a quiet 1 ms base — a clean
/// regression on `tiny/spmm_forward.ms`.
fn regressed_fixture() -> (Manifest, Vec<HistoryEntry>, Baseline) {
    let manifest = Manifest {
        command: vec!["bench".into()],
        workloads: vec!["tiny".into()],
        gated: vec![MetricSpec {
            name: "spmm_forward.ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: None,
        }],
    };
    let history: Vec<HistoryEntry> =
        (0..WINDOW).map(|_| entry("tiny", &[("spmm_forward.ms", 2.0)])).collect();
    let baseline: Baseline =
        [("tiny/spmm_forward.ms".to_string(), BaselineMetric { base: 1.0, mad: 0.01 })].into();
    (manifest, history, baseline)
}

#[test]
fn injected_kernel_slowdown_is_attributed_top_1() {
    let dir = scratch("attribution");

    // Baseline run: the spmm kernel costs 0.4 ms inside the
    // `spmm_forward` scenario; a sibling scenario rides along untouched.
    let base = synth(
        "bench_tiny",
        &[
            ("bench", None, 2_000_000),
            ("spmm_forward", Some("spmm_forward"), 500_000),
            ("segment_sum_fwd_bwd", Some("segment_sum_fwd_bwd"), 700_000),
        ],
        &[
            ("spmm", "spmm_forward", 4, 400_000, (100_000.0, 110_000.0, 120_000.0)),
            ("segment_sum", "segment_sum_fwd_bwd", 4, 600_000, (150_000.0, 155_000.0, 160_000.0)),
        ],
    );
    // Candidate run: the same trace with the spmm kernel ~2× slower —
    // the injected regression the explainer must find. Everything else
    // is bit-identical.
    let cand = synth(
        "bench_tiny",
        &[
            ("bench", None, 2_400_000),
            ("spmm_forward", Some("spmm_forward"), 900_000),
            ("segment_sum_fwd_bwd", Some("segment_sum_fwd_bwd"), 700_000),
        ],
        &[
            ("spmm", "spmm_forward", 4, 800_000, (200_000.0, 220_000.0, 240_000.0)),
            ("segment_sum", "segment_sum_fwd_bwd", 4, 600_000, (150_000.0, 155_000.0, 160_000.0)),
        ],
    );
    std::fs::write(perf::baseline_trace_path(&dir, "tiny"), base).expect("write baseline");
    std::fs::write(perf::candidate_trace_path(&dir, "tiny"), cand).expect("write candidate");

    let (manifest, history, baseline) = regressed_fixture();
    let report = gate(&history, &baseline, &manifest);
    assert_eq!(report.regressions(), 1, "fixture must regress: {report}");

    let explained = perf::explain(&dir, &baseline, &manifest, &report).expect("explain succeeds");
    assert_eq!(explained.len(), 1);
    let fx = &explained[0];
    assert_eq!(fx.workload, "tiny", "the metric's key names its workload");
    assert!(fx.diff_path.ends_with("DIFF_tiny.json"));
    assert!(fx.flame_path.ends_with("FLAMEDIFF_tiny.txt"));
    assert_eq!(fx.attributions.len(), 1);

    let attr = &fx.attributions[0];
    assert_eq!(attr.metric, "spmm_forward.ms");
    assert_eq!(attr.scope.as_deref(), Some("spmm_forward"), "scoped to the metric's scenario");
    let top = attr.top().expect("the injected slowdown yields a suspect");
    assert_eq!(
        top.stack.last().map(String::as_str),
        Some("kernel:spmm"),
        "top-1 suspect must be the slowed kernel, got {:?}",
        top.stack
    );
    assert!(top.significant, "0.4 ms against a quiet window clears the noise threshold");
    assert!((top.delta_ms - 0.4).abs() < 1e-9, "kernel delta is the injected 0.4 ms");
    // The untouched sibling kernel must not be a suspect at all: it is
    // outside the scenario scope and its delta is zero.
    assert!(
        attr.suspects
            .iter()
            .all(|s| s.stack.last().map(String::as_str) != Some("kernel:segment_sum")),
        "unchanged sibling kernel must not appear: {attr}"
    );

    // Machine-readable artifact: schema-tagged, with the attribution.
    let diff_json = std::fs::read_to_string(&fx.diff_path).expect("DIFF json written");
    let parsed = Value::parse(&diff_json).expect("DIFF json parses");
    assert_eq!(parsed.get("schema").and_then(Value::as_str), Some(DIFF_SCHEMA));
    let attributions = parsed.get("attributions").and_then(Value::as_arr).expect("attributions");
    assert_eq!(attributions.len(), 1);

    // Differential flame: inferno-compatible collapsed lines, with the
    // regressed kernel under the `regressed` root.
    let flame = std::fs::read_to_string(&fx.flame_path).expect("FLAMEDIFF written");
    sane_telemetry::profile::parse_collapsed(&flame).expect("collapsed lines re-parse");
    assert!(
        flame.lines().any(|l| l.starts_with("regressed;") && l.contains("kernel:spmm")),
        "flame must carry the regressed kernel: {flame}"
    );
}

#[test]
fn explain_without_a_baseline_trace_names_the_fix() {
    let dir = scratch("missing_trace");
    let (manifest, history, baseline) = regressed_fixture();
    let report = gate(&history, &baseline, &manifest);
    let err = perf::explain(&dir, &baseline, &manifest, &report)
        .expect_err("no traces on disk: explain must fail with guidance");
    assert!(err.contains("--seed-baseline"), "error must say how to retain a baseline: {err}");
    assert!(err.contains("TRACE_bench_tiny_baseline.jsonl"), "error names the file: {err}");
}

#[test]
fn changepoint_flags_injected_step_but_not_committed_history() {
    let real = std::fs::read_to_string(committed_history_path())
        .expect("committed BENCH_history.jsonl exists");
    let history = parse_history(&real).expect("committed history parses");
    assert!(!history.is_empty(), "committed history has entries");

    let manifest = committed_manifest();
    let scan = |h: &[HistoryEntry]| {
        trend(h, &manifest, DEFAULT_TREND_WINDOW, DEFAULT_TREND_MIN_SHIFT, DEFAULT_TREND_MAD_MULT)
    };
    let quiet = scan(&history);
    assert!(quiet.series > 0, "committed history yields gated series");
    assert!(
        quiet.changepoints.is_empty(),
        "detector must stay silent on the committed history: {quiet}"
    );

    // Same detector, same parameters, with a synthetic series of a gated
    // metric appended: a 1 ms aggregator steps to 2 ms halfway through,
    // under the same ±10% deterministic ripple the unit tests use.
    let noisy = |level: f64, i: usize| level * (1.0 + 0.1 * ((i * 7 + 3) % 5) as f64 / 2.0 - 0.1);
    let mut text = real.clone();
    for i in 0..32 {
        let level = if i < 16 { 1.0 } else { 2.0 };
        text.push_str(&format!(
            "{{\"schema\":\"sane.bench.v1\",\"bench\":\"synthwave\",\"preset\":\"quick\",\
             \"unix_ms\":{i},\"metrics\":{{\"gnn.agg.GAT.fwd_ms\":{:.6}}}}}\n",
            noisy(level, i)
        ));
    }
    let spiked = parse_history(&text).expect("appended history still parses");
    let flagged = scan(&spiked);
    assert_eq!(flagged.changepoints.len(), 1, "exactly the injected step: {flagged}");
    let cp = &flagged.changepoints[0];
    assert_eq!(cp.bench, "synthwave");
    assert_eq!((cp.metric.as_str(), cp.unit.as_str()), ("gnn.agg.GAT.fwd_ms", "ms"));
    assert!(
        (14..=18).contains(&cp.index),
        "step located at the injection boundary, got {}",
        cp.index
    );
    assert!(cp.shift_frac > 0.5, "the 2× step clears the relative criterion");
}

#[test]
fn compaction_round_trips_the_committed_history() {
    let real = std::fs::read_to_string(committed_history_path())
        .expect("committed BENCH_history.jsonl exists");
    let lines_before = real.lines().filter(|l| !l.trim().is_empty()).count();

    // A cap above the current size must change nothing but trailing
    // whitespace normalisation.
    let (kept_all, dropped) =
        perf::compact_history(&real, lines_before.max(perf::DEFAULT_HISTORY_CAP))
            .expect("compaction parses the committed history");
    assert_eq!(dropped, 0, "cap above size drops nothing");
    let norm = |t: &str| t.lines().filter(|l| !l.trim().is_empty()).collect::<Vec<_>>().join("\n");
    assert_eq!(norm(&kept_all), norm(&real), "surviving lines are byte-identical");

    // A tight cap keeps exactly the trailing window per (bench, preset)
    // and the result still parses and gates.
    let (tight, dropped) = perf::compact_history(&real, WINDOW).expect("compacts");
    let tight_entries = parse_history(&tight).expect("compacted history parses");
    assert_eq!(tight_entries.len() + dropped, lines_before, "every line kept or counted dropped");
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for e in &tight_entries {
        *counts.entry((e.bench.clone(), e.preset.clone())).or_insert(0) += 1;
    }
    assert!(
        counts.values().all(|&n| n <= WINDOW),
        "no pair exceeds the window after compaction: {counts:?}"
    );
    assert!(perf::history_overflow(&tight_entries, perf::DEFAULT_HISTORY_CAP).is_empty());
}
