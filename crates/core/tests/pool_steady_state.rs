//! The buffer pool reaches a steady state across repeated searches: once a
//! search has run, running the same search again takes out of the pool
//! everything it puts back. A per-step buffer allocated outside the pool
//! (or a weight cloned because a tape still shares it during the optimizer
//! step) comes back at tape teardown without ever being asked for again,
//! so the pool would grow with every epoch.

use sane_autodiff::pool;
use sane_core::prelude::*;
use sane_data::{CitationConfig, PpiConfig};

#[test]
fn repeated_searches_leave_the_pool_flat() {
    let task = Task::node(CitationConfig::cora().scaled(0.05).with_seed(7).generate());
    let cfg = SaneSearchConfig {
        supernet: SupernetConfig { k: 2, hidden: 16, ..SupernetConfig::default() },
        epochs: 4,
        seed: 7,
        ..SaneSearchConfig::default()
    };
    pool::reset();
    let mut floats = Vec::new();
    for _ in 0..3 {
        let _ = sane_search(&task, &cfg);
        floats.push(pool::stats().floats);
    }
    pool::reset();
    // The first search fills the pool; the later ones may only shuffle it.
    // `1 x 1` scalars (losses, seed gradients) still come back unrequested,
    // but their size class is capped at a few hundred buffers. One leaked
    // `1 x hidden` bias gradient per bias per search is already past this
    // slack, and a weight or a `nodes x hidden` state per epoch far past it.
    const SLACK_FLOATS: usize = 1024;
    let (second, third) = (floats[1], floats[2]);
    assert!(
        third <= second + SLACK_FLOATS,
        "the pool grew from {second} to {third} floats between identical searches \
         (after each search: {floats:?})"
    );
}

/// ppi-syn at the preset's graph size (3 graphs of 2373 nodes, ~29 edges
/// per node), searched with the benchmark's supernet: once a one-epoch
/// search has filled the pool, the next search takes every buffer from it
/// and gives every buffer back. A tape whose working set outgrows the
/// pool's float cap shows here as misses and dropped buffers on every step.
#[test]
fn ppi_at_the_preset_size_fits_the_pool() {
    let task = Task::multi(PpiConfig { num_graphs: 3, ..PpiConfig::ppi() }.with_seed(7).generate());
    let cfg = SaneSearchConfig {
        supernet: SupernetConfig { k: 3, hidden: 32, dropout: 0.5, ..SupernetConfig::default() },
        epochs: 1,
        seed: 7,
        ..SaneSearchConfig::default()
    };
    pool::reset();
    let _ = sane_search(&task, &cfg);
    let warm = pool::stats();
    let _ = sane_search(&task, &cfg);
    let second = pool::stats().since(&warm);
    pool::reset();
    assert_eq!((second.misses, second.dropped), (0, 0), "second search: {second}");
}
