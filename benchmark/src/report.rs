//! The metric registry and the result the benchmark prints.
//!
//! The registry is the single in-code list of metric names: a run refuses
//! to print a result whose names differ from it, and a test holds it equal
//! to `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use sane_autodiff::parallel::hardware_threads;
use sane_gnn::{LayerAggKind, NodeAggKind};
use sane_telemetry::Value;

use crate::args::Args;
use crate::workload::THREADS;

/// One declared metric. Which direction is better is declared in
/// `BENCHMARK.json` only; nothing here depends on it.
#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit }
}

/// Metrics a user of the search sees; measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![def("setup_s", "s"), def("search_s", "s"), def("peak_rss_mib", "MiB")]
}

/// Kernels that every workload's search calls, named as the
/// `sane_autodiff::parallel` timing hook names them.
pub const KERNELS: [&str; 7] = [
    "gemm",
    "spmm",
    "gather_rows",
    "gather_attention",
    "segment_max",
    "mul_col_broadcast",
    "tape_backward",
];

/// Metrics of single layers, from the traced run (`--trace 1`).
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = vec![
        def("data.generate_ms", "ms"),
        def("gnn.context_ms", "ms"),
        def("core.search.iteration_ms", "ms"),
        def("core.search.update_ms", "ms"),
        def("core.search.eval_ms", "ms"),
        def("core.model.forward_ms", "ms"),
        def("core.model.eval_forward_ms", "ms"),
        def("autodiff.tape.backward_ms", "ms"),
        def("autodiff.optim.step_ms", "ms"),
        def("autodiff.tape.nodes", "count"),
        def("autodiff.tape.peak_resident_mib", "MiB"),
        def("autodiff.pool.misses_per_step", "count"),
        def("autodiff.pool.hit_rate", "fraction"),
        def("autodiff.pool.pooled_mib", "MiB"),
    ];
    for kind in NodeAggKind::ALL {
        out.push(def(format!("gnn.agg.{}.fwd_ms", kind.name()), "ms"));
        out.push(def(format!("gnn.agg.{}.bwd_ms", kind.name()), "ms"));
    }
    for kind in LayerAggKind::ALL {
        out.push(def(format!("gnn.layer_agg.{}.fwd_ms", kind.name()), "ms"));
        out.push(def(format!("gnn.layer_agg.{}.bwd_ms", kind.name()), "ms"));
    }
    for kernel in KERNELS {
        out.push(def(format!("autodiff.kernel.{kernel}.ms"), "ms"));
        out.push(def(format!("autodiff.kernel.{kernel}.calls"), "count"));
    }
    out.extend([
        def("telemetry.overhead_frac", "fraction"),
        def("ladder.iteration_frac", "fraction"),
        def("ladder.step_frac", "fraction"),
        def("ladder.ops_frac", "fraction"),
        def("ladder.kernel_frac", "fraction"),
    ]);
    out
}

/// Counts operations (searches, candidates, retrains) and their failures.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            eprintln!("benchmark: {what} failed: {why}");
            self.failures.push(format!("{what}: {why}"));
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// The metrics of one run, checked against the registry, rendered as the
/// final stdout line.
pub fn result_line(
    defs: &[MetricDef],
    values: &BTreeMap<String, f64>,
    ledger: &Ledger,
    checks_passed: bool,
) -> Result<String, String> {
    let declared: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    let emitted: Vec<&str> = values.keys().map(String::as_str).collect();
    let mut sorted = declared.clone();
    sorted.sort_unstable();
    if sorted != emitted {
        return Err(format!("emitted metrics {emitted:?} differ from the registry {sorted:?}"));
    }
    if let Some((name, v)) = values.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite ({v})"));
    }
    let metrics = defs
        .iter()
        .map(|d| {
            let value = Value::Obj(vec![
                ("value".into(), Value::Num(values[&d.name])),
                ("unit".into(), Value::Str(d.unit.into())),
            ]);
            (d.name.clone(), value)
        })
        .collect::<BTreeMap<_, _>>();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(checks_passed && ledger.failed() == 0)),
        ("attempted".into(), Value::UInt(ledger.attempted())),
        ("failed".into(), Value::UInt(ledger.failed())),
        ("metrics".into(), Value::Obj(metrics.into_iter().collect())),
    ]);
    Ok(line.to_json())
}

/// Prints `name value unit` for every metric.
pub fn print_metrics(defs: &[MetricDef], values: &BTreeMap<String, f64>) {
    for d in defs {
        if let Some(v) = values.get(&d.name) {
            println!("{} {v} {}", d.name, d.unit);
        }
    }
}

/// Writes a JSON document built from ordered maps.
pub fn write_json(path: &Path, doc: Value) -> Result<(), String> {
    std::fs::write(path, doc.to_json() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The fields every output document starts with.
pub fn run_header(args: &Args) -> Vec<(String, Value)> {
    vec![
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("threads".into(), Value::UInt(THREADS as u64)),
        ("hardware_threads".into(), Value::UInt(hardware_threads() as u64)),
    ]
}

/// `BTreeMap` of numbers as a JSON object.
pub fn numbers(map: &BTreeMap<String, f64>) -> Value {
    Value::Obj(map.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of each metric in one list of the manifest.
    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
        let list = doc.get(key).and_then(Value::as_arr).expect("metric list");
        for m in list {
            assert!(matches!(field(m, "better").as_str(), "lower" | "higher"), "{m:?}");
        }
        list.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
    }

    fn pairs(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter().map(|d| (d.name.clone(), d.unit.to_string())).collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let doc = manifest();
        assert_eq!(declared(&doc, "end_to_end"), pairs(&end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), pairs(&per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
            .collect();
        let registry: Vec<&str> = crate::workload::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, registry);
    }

    #[test]
    fn names_are_well_formed_and_within_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()), "{} end-to-end metrics", e2e.len());
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
            assert!(!d.name.is_empty() && d.name.len() <= 64, "{}", d.name);
            assert!(d.name.chars().all(ok), "bad metric name {}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
        }
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_rejects_names_outside_the_registry() {
        let defs = end_to_end();
        let mut values: BTreeMap<String, f64> =
            defs.iter().map(|d| (d.name.clone(), 1.5)).collect();
        let ok = result_line(&defs, &values, &Ledger::default(), true).unwrap();
        assert!(ok.starts_with(r#"{"correct":true,"attempted":0,"failed":0,"metrics":{"#), "{ok}");
        assert!(ok.contains(r#""search_s":{"value":1.5,"unit":"s"}"#), "{ok}");
        values.insert("bogus".into(), 1.0);
        assert!(result_line(&defs, &values, &Ledger::default(), true).is_err());
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let defs = end_to_end();
        let values: BTreeMap<String, f64> = defs.iter().map(|d| (d.name.clone(), 1.0)).collect();
        let mut ledger = Ledger::default();
        ledger.record("search", Ok(()));
        ledger.record("retrain", Err("test metric at the floor".into()));
        let line = result_line(&defs, &values, &ledger, true).unwrap();
        assert!(line.starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#), "{line}");
    }
}
