//! Bench-history records: one JSONL line per harness run, appended to
//! `results/BENCH_history.jsonl` so each gate binary's trajectory
//! accumulates instead of being overwritten. `cargo xtask perf` appends
//! the benchmark's lines to the same file in the same schema and gates
//! only those.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

/// Schema tag stamped on every history line; bump on breaking changes.
pub const HISTORY_SCHEMA: &str = "sane.bench.v1";

/// Default history location under the canonical results root.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// One appended run: which bench produced it, at which preset, and its
/// scalar metrics (milliseconds for `*.ms_*` keys, ratios otherwise).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistoryRecord {
    pub schema: String,
    /// Producing binary (`memplan`, `graph_audit`, `trials`).
    pub bench: String,
    /// Budget preset name (`quick`, `default`, `paper`).
    pub preset: String,
    /// Wall-clock milliseconds since the unix epoch at append time.
    pub unix_ms: u64,
    /// Metric name → value. Only metrics that are comparable across
    /// machines belong here; oversubscribed thread configs are excluded
    /// by the producers.
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryRecord {
    /// Builds a record stamped with the current wall clock.
    pub fn new(bench: &str, preset: &str, metrics: BTreeMap<String, f64>) -> Self {
        let unix_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        Self {
            schema: HISTORY_SCHEMA.to_string(),
            bench: bench.to_string(),
            preset: preset.to_string(),
            unix_ms,
            metrics,
        }
    }

    /// Appends this record as one line of `<out_dir>/BENCH_history.jsonl`,
    /// creating the directory and file as needed.
    pub fn append(&self, out_dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(out_dir)?;
        let path = out_dir.join(HISTORY_FILE);
        let line = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        writeln!(f, "{line}")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_append_as_parseable_jsonl() {
        let dir = std::env::temp_dir().join(format!("sane_bench_history_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut metrics = BTreeMap::new();
        metrics.insert("spmm.ms_1t".to_string(), 1.25);
        let rec = HistoryRecord::new("kernels", "quick", metrics.clone());
        let path = rec.append(&dir).expect("append"); // lint:allow(expect) -- append
        let rec2 = HistoryRecord::new("kernels", "quick", metrics);
        rec2.append(&dir).expect("append"); // lint:allow(expect) -- append

        let text = std::fs::read_to_string(&path).expect("read"); // lint:allow(expect) -- read
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "append accumulates, never truncates");
        for line in lines {
            let back: HistoryRecord = serde_json::from_str(line).expect("line parses"); // lint:allow(expect) -- line parses
            assert_eq!(back.schema, HISTORY_SCHEMA);
            assert_eq!(back.bench, "kernels");
            assert_eq!(back.metrics.get("spmm.ms_1t"), Some(&1.25));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
