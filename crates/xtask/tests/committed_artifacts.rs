//! The perf gate's committed inputs agree with each other.
//!
//! `perf::gate` walks the baseline's keys only, so a gated metric that
//! `BENCHMARK.json` adds but `results/BENCH_baseline.json` lacks would
//! never be gated, and a baseline key the manifest dropped would fail
//! every gate run as missing. This test holds the committed manifest,
//! baseline and history to one key set and one full window per workload.

use std::collections::BTreeSet;
use std::path::PathBuf;

use xtask::perf::{self, PRESET, WINDOW};

fn repo_text(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn committed_history_and_baseline_agree_with_the_manifest() {
    let manifest = perf::parse_manifest(&repo_text("BENCHMARK.json")).expect("manifest parses");
    let history = perf::parse_history(&repo_text("results/BENCH_history.jsonl"))
        .expect("committed history parses");
    let baseline = perf::parse_baseline(&repo_text("results/BENCH_baseline.json"))
        .expect("committed baseline parses");

    for w in &manifest.workloads {
        let rounds = history.iter().filter(|e| &e.bench == w && e.preset == PRESET).count();
        assert!(rounds >= WINDOW, "history holds {rounds} `{PRESET}` line(s) for `{w}`");
    }

    let gated: BTreeSet<String> = manifest
        .workloads
        .iter()
        .flat_map(|w| manifest.gated.iter().map(move |m| format!("{w}/{}", m.name)))
        .collect();
    let baselined: BTreeSet<String> = baseline.keys().cloned().collect();
    let unbaselined: Vec<_> = gated.difference(&baselined).collect();
    let ungated: Vec<_> = baselined.difference(&gated).collect();
    assert!(unbaselined.is_empty(), "gated but not baselined: {unbaselined:?}");
    assert!(ungated.is_empty(), "baselined but not gated: {ungated:?}");
}
