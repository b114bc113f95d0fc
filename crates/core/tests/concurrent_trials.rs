//! Concurrent training trials sharing one telemetry run.
//!
//! Two worker threads (via `sane_autodiff::parallel::run_workers`, the
//! workspace's only thread fan-out) each attach the owning run's
//! `RecorderHandle` and train one architecture. Read back through the
//! strict reader (`trace::read`), the single trace must show both
//! workers, both trial spans open at once and parented to the run's root
//! span, and ordered p50/p90/p99 for the `spmm`, `segment_max` and
//! `tape_backward` kernel streams merged across the workers.

use std::sync::Barrier;

use sane_autodiff::parallel::{run_workers, with_threads};
use sane_core::prelude::*;
use sane_data::CitationConfig;
use sane_telemetry as tel;
use sane_telemetry::trace::{self, Kind, TraceSummary};

/// The two trials: GCN and SAGE-SUM lower to `spmm`; GAT and SAGE-MAX
/// run `segment_max`.
fn trial_archs() -> [Architecture; 2] {
    let arch = |a: NodeAggKind, b: NodeAggKind| Architecture {
        node_aggs: vec![a.into(), b.into()],
        skips: vec![SkipOp::Identity; 2],
        layer_agg: Some(LayerAggKind::Concat),
    };
    [arch(NodeAggKind::Gcn, NodeAggKind::SageSum), arch(NodeAggKind::Gat, NodeAggKind::SageMax)]
}

#[test]
fn concurrent_trials_share_one_valid_trace() {
    let task = Task::node(CitationConfig::cora().scaled(0.04).with_seed(7).generate());
    let archs = trial_archs();
    let hyper = ModelHyper { hidden: 16, heads: 1, dropout: 0.5, ..ModelHyper::default() };
    let cfg =
        TrainConfig { epochs: 4, patience: 10, eval_every: 2, seed: 7, ..TrainConfig::default() };

    let buf = tel::MemoryBuffer::default();
    {
        let _guard = tel::Recorder::new("trials")
            .with_memory(buf.clone())
            .with_kernel_timing(true)
            .install();
        let root = tel::span("trials");
        let handle = tel::handle().expect("recorder is installed");
        // Each worker holds its trial span open at the barrier, so the
        // trace must contain two concurrent trial trees.
        let barrier = Barrier::new(archs.len());
        run_workers(archs.len(), |w| {
            let _scope = handle.attach(format!("trial-worker-{w}"));
            let span = tel::span_with("trial", &[("trial", tel::Value::UInt(w as u64))]);
            barrier.wait();
            // The trials are the unit of parallelism here; one kernel
            // thread per trial keeps the workers from oversubscribing.
            let outcome = with_threads(1, || train_architecture(&task, &archs[w], &hyper, &cfg));
            assert!(outcome.val_metric.is_finite(), "trial {w}: {outcome:?}");
            drop(span);
        });
        drop(root);
    }

    let text = buf.borrow().clone();
    let records = trace::read(&text).expect("the shared trace passes the strict reader");
    let summary = TraceSummary::from_records(&records);
    let mut threads = summary.threads.clone();
    threads.sort();
    assert_eq!(threads, ["trial-worker-0", "trial-worker-1"], "both workers wrote the trace");

    // Concurrency and parentage from trace order: every trial span opens,
    // parented to the root span, before any trial closes.
    let mut root_id = None;
    let mut open_before_first_close = 0usize;
    for rec in &records {
        match &rec.kind {
            Kind::SpanOpen { id, parent, path, .. } => match path.last().map(String::as_str) {
                Some("trials") => root_id = Some(*id),
                Some("trial") => {
                    open_before_first_close += 1;
                    assert!(root_id.is_some(), "root span opens first");
                    assert_eq!(*parent, root_id, "trial span must parent to the run's root span");
                }
                _ => {}
            },
            Kind::SpanClose { path, .. } if path.last().map(String::as_str) == Some("trial") => {
                break;
            }
            _ => {}
        }
    }
    assert!(
        open_before_first_close >= 2,
        "expected ≥2 concurrent trial spans, saw {open_before_first_close}"
    );

    for stream in ["kernel.spmm.ns", "kernel.segment_max.ns", "kernel.tape_backward.ns"] {
        let hist = summary
            .hists
            .get(stream)
            .unwrap_or_else(|| panic!("{stream} missing from merged histograms"));
        assert!(hist.count > 0, "{stream} recorded no samples");
        assert!(
            hist.p50 > 0.0 && hist.p90 >= hist.p50 && hist.p99 >= hist.p90,
            "{stream} quantiles are not ordered: {hist:?}"
        );
    }
}
