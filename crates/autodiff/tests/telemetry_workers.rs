//! Cross-thread telemetry proofs that need real OS threads.
//!
//! The telemetry crate's own tests exercise attach/detach on a single
//! thread (the raw-thread audit confines `std::thread` to
//! `sane_autodiff::parallel`), so the genuinely concurrent contracts are
//! proven here through [`sane_autodiff::parallel::run_workers`]:
//!
//! * four workers writing spans/events into one trace interleave without
//!   breaking the strict validator (monotone `t_ns`, balanced spans, no
//!   orphan parents), and
//! * histogram bucket counts for a fixed fixture are bitwise identical
//!   whether 1, 2 or 4 workers recorded it — the merge is
//!   order-independent even when a racing work queue scrambles which
//!   worker sees which sample — and so are the profile's kernel rows
//!   built from such a trace.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use sane_autodiff::parallel::run_workers;
use sane_telemetry::trace::{self, Kind, TraceSummary};
use sane_telemetry::{MemoryBuffer, Recorder, Value};

#[test]
fn four_attached_workers_interleave_into_one_valid_trace() {
    let buf = MemoryBuffer::default();
    let guard = Recorder::new("workers-interleaved")
        .with_memory(buf.clone())
        .with_kernel_timing(true)
        .install();
    let root = sane_telemetry::span("test.root");
    let handle = sane_telemetry::handle().expect("recorder is installed");

    // All four workers hold their span open at the barrier, so the trace
    // must contain four simultaneously-open worker spans.
    let barrier = Barrier::new(4);
    run_workers(4, |w| {
        let _scope = handle.attach(format!("w{w}"));
        let span = sane_telemetry::span("test.worker");
        sane_telemetry::info("test.worker.step", &[("idx", Value::UInt(w as u64))]);
        sane_telemetry::record_latency("test.latency.ns", (w as f64 + 1.0) * 100.0);
        barrier.wait();
        drop(span);
    });

    drop(root);
    drop(guard);
    let text = buf.borrow().clone();
    let records = trace::read(&text).expect("interleaved trace must validate strictly");
    let summary = TraceSummary::from_records(&records);

    let mut threads = summary.threads.clone();
    threads.sort();
    assert_eq!(threads, ["w0", "w1", "w2", "w3"]);

    let worker_spans =
        summary.spans.iter().find(|s| s.name == "test.worker").expect("worker spans recorded");
    assert_eq!(worker_spans.count, 4);

    let hist = summary.hists.get("test.latency.ns").expect("merged worker latencies");
    assert_eq!(hist.count, 4);
    assert_eq!(hist.dropped, 0);
    assert!(hist.max >= 400.0, "largest worker sample survives the merge");

    // Concurrency proof from the trace order itself: every worker span
    // opens before any of them closes (the barrier guarantees it), and
    // each one parents to the owner's root span.
    let mut open_before_first_close = 0usize;
    let mut root_id = None;
    for rec in &records {
        match &rec.kind {
            Kind::SpanOpen { id, parent, path, .. } => match path.last().map(String::as_str) {
                Some("test.root") => root_id = Some(*id),
                Some("test.worker") => {
                    open_before_first_close += 1;
                    assert!(root_id.is_some(), "root opens before workers");
                    assert_eq!(*parent, root_id, "worker span must parent to the owner's span");
                }
                _ => {}
            },
            Kind::SpanClose { path, .. }
                if path.last().map(String::as_str) == Some("test.worker") =>
            {
                break;
            }
            _ => {}
        }
    }
    assert_eq!(open_before_first_close, 4, "all worker spans open before the first closes");
}

#[test]
fn histogram_buckets_are_identical_across_1_2_4_workers() {
    // Deterministic fixture: a fixed multiset of "latencies" spread over
    // several octaves. Workers race over an atomic queue, so *which*
    // worker records a value is nondeterministic — the merged buckets
    // must not care.
    let fixture: Vec<f64> =
        (0..10_000u64).map(|i| (i.wrapping_mul(2_654_435_761) % 5_000_000) as f64).collect();

    let mut runs: Vec<BTreeMap<u16, u64>> = Vec::new();
    for workers in [1usize, 2, 4] {
        let guard = Recorder::new("bucket-determinism").install();
        let handle = sane_telemetry::handle().expect("recorder is installed");
        let next = AtomicUsize::new(0);
        run_workers(workers, |w| {
            let _scope = handle.attach(format!("w{w}"));
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(v) = fixture.get(i) else { break };
                sane_telemetry::record_latency("fixture.ns", *v);
            }
        });
        let merged = handle.merged_metrics();
        let hist = merged.hists().get("fixture.ns").expect("fixture stream recorded");
        assert_eq!(hist.count(), fixture.len() as u64);
        assert_eq!(hist.dropped(), 0);
        runs.push(hist.buckets().clone());
        drop(guard);
    }

    assert_eq!(runs[0], runs[1], "1-worker and 2-worker bucket counts diverged");
    assert_eq!(runs[0], runs[2], "1-worker and 4-worker bucket counts diverged");
}

/// Records one span-free trace: `workers` attached threads race over an
/// atomic queue of integer kernel stamps, each booking its share with
/// [`sane_telemetry::kernel_sample`]. Only the merged metrics carry
/// timing, so the resulting profile is a pure function of the stamp
/// multiset — no wall-clock anywhere.
fn record_kernel_trace(workers: usize, stamps: &[u64]) -> String {
    let buf = MemoryBuffer::default();
    let guard =
        Recorder::new("kernels").with_memory(buf.clone()).with_kernel_timing(true).install();
    let handle = sane_telemetry::handle().expect("recorder is installed");
    let next = AtomicUsize::new(0);
    run_workers(workers, |w| {
        let _scope = handle.attach(format!("w{w}"));
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(ns) = stamps.get(i) else { break };
            sane_telemetry::kernel_sample("spmm", *ns);
        }
    });
    sane_telemetry::flush_metrics();
    drop(guard);
    let text = buf.borrow().clone();
    text
}

#[test]
fn profile_kernel_rows_are_identical_across_1_2_4_worker_traces() {
    // A fixed stamp multiset. Which worker books which stamp is racy by
    // design — the kernel rows the profile reads back must not care.
    let stamps: Vec<u64> = (0..512u64).map(|i| 40_000 + (i * 977) % 30_000).collect();

    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let prof = sane_telemetry::profile::profile(&record_kernel_trace(workers, &stamps))
            .expect("kernel trace profiles");
        runs.push(prof.kernels);
    }

    let [row] = runs[0].as_slice() else { panic!("one spmm row, got {:?}", runs[0]) };
    assert_eq!((row.name.as_str(), row.phase.as_deref()), ("spmm", None));
    assert_eq!(row.count, stamps.len() as u64);
    assert_eq!(row.total_ns, stamps.iter().sum::<u64>());
    assert!(row.quantiles.is_some(), "an all-unphased kernel carries its quantiles");
    assert_eq!(runs[0], runs[1], "1-worker and 2-worker kernel rows diverged");
    assert_eq!(runs[0], runs[2], "1-worker and 4-worker kernel rows diverged");
}
