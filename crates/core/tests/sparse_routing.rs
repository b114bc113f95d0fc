//! Which products of a supernet training step take the sparse route
//! through their left operand's view (DESIGN.md §17), counted from the
//! `parallel::timed` kernel samples under a memory-sink recorder.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sane_autodiff::{Matrix, Tape, VarStore};
use sane_core::supernet::{Supernet, SupernetConfig};
use sane_data::{CitationConfig, PpiConfig};
use sane_gnn::GraphContext;
use sane_telemetry::trace;

/// How many times each kernel ran during each of `steps` mixed-supernet
/// training steps (forward, loss, full backward) on `features`, one tape
/// per step over the same `Arc`.
fn step_calls(ctx: &GraphContext, features: &Arc<Matrix>, steps: u64) -> Vec<impl Fn(&str) -> u64> {
    let mut store = VarStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = SupernetConfig { hidden: 16, ..SupernetConfig::default() };
    let net = Supernet::new(cfg, features.cols(), 4, &mut store, &mut rng);
    (0..steps)
        .map(|step| {
            let buf = sane_telemetry::MemoryBuffer::default();
            let guard = sane_telemetry::Recorder::new("sparse-routing")
                .with_memory(buf.clone())
                .with_kernel_timing(true)
                .install();
            let mut tape = Tape::new(3 + step);
            let x = tape.input(Arc::clone(features));
            let logits = net.forward_mixed(&mut tape, &store, ctx, x, true);
            let loss = tape.mean_all(logits);
            tape.backward(loss).recycle();
            sane_telemetry::flush_metrics();
            drop(guard);
            let records = trace::read(&buf.borrow()).expect("valid trace");
            let metrics = trace::last_metrics(&records).expect("a metrics record").clone();
            move |kernel: &str| {
                metrics.summaries().get(&format!("kernel.{kernel}.ns")).map_or(0, |s| s.count)
            }
        })
        .collect()
}

#[test]
fn cora_layer0_products_take_the_sparse_route() {
    let ds = CitationConfig::cora().scaled(0.25).with_seed(5).generate();
    let ctx = GraphContext::new(&ds.graph);
    let sparse = step_calls(&ctx, &ds.features, 2);
    // The same tape over features with no zeros: no layer-0 value is
    // mostly zeros, so its products all stay dense.
    let dense = step_calls(&ctx, &Arc::new(ds.features.map(|v| v + 1.0)), 2);
    for (step, (sparse, dense)) in sparse.iter().zip(&dense).enumerate() {
        let routed = dense("gemm") - sparse("gemm");
        assert_eq!(sparse("spmm") - dense("spmm"), routed, "each saved GEMM ran as an spmm");
        // Twelve layer-0 products read a mostly-zero value, once forward
        // and once for their weight's gradient. Every one of them projects
        // the dropped-out features themselves: SAGE-SUM, SAGE-MEAN,
        // SAGE-MAX, GCN, the five GATs, GIN's first layer and GeniePath's
        // two.
        assert_eq!(routed, 24, "step {step}");
        // So all twelve read one value, viewed once, as the dropout builds
        // it from the features' view. The first step also builds that
        // view of the features; the second reuses it.
        let builds = if step == 0 { 2 } else { 1 };
        assert_eq!(sparse("sparse_view") - dense("sparse_view"), builds, "step {step}");
    }
}

#[test]
fn dense_feature_tape_never_takes_the_sparse_route() {
    let ds = PpiConfig { num_graphs: 3, nodes_per_graph: 144, ..PpiConfig::ppi() }.generate();
    let g = &ds.graphs[0];
    for calls in step_calls(&GraphContext::new(&g.graph), &g.features, 2) {
        // The one mostly-zero value is the LSTM layer aggregator's
        // all-zero initial state; no product over the features gets a
        // view.
        assert_eq!(calls("sparse_view"), 1);
    }
}
