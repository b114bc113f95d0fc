//! Golden fingerprints of short SANE searches: a hash of the final
//! softmaxed `α` bits and the derived genotype, pinned per kernel flavour.
//!
//! A change that only reschedules the arithmetic (a fused op, a different
//! tile order, a tape that records fewer nodes) must leave every bit of
//! the search unchanged, so it leaves these constants unchanged. A change
//! that means to move the numbers updates them and says why.

use sane_autodiff::simd;
use sane_core::prelude::*;
use sane_data::{CitationConfig, PpiConfig};

/// The search the benchmark workloads run (K = 3, 32 wide, dropout 0.5),
/// cut to a few epochs.
///
/// Adam normalises each `α` step by the gradient's own scale, so a
/// last-bit change in one epoch's gradient often rounds away in `α` within
/// a few epochs. The epoch counts below are the shortest at which the two
/// kernel flavours, which differ in their last bits almost everywhere,
/// already give different `α`.
fn search_cfg(epochs: usize) -> SaneSearchConfig {
    SaneSearchConfig {
        supernet: SupernetConfig { k: 3, hidden: 32, dropout: 0.5, ..SupernetConfig::default() },
        epochs,
        seed: 7,
        ..SaneSearchConfig::default()
    }
}

/// 64-bit FNV-1a over the `α` bit patterns, then the genotype's text.
fn fingerprint(task: &Task, cfg: &SaneSearchConfig) -> u64 {
    let out = sane_search(task, cfg);
    let a = &out.alphas;
    let bits = a
        .node
        .iter()
        .chain(&a.skip)
        .flatten()
        .chain(&a.layer)
        .flat_map(|p| p.to_bits().to_le_bytes());
    let genotype = out.arch.describe().into_bytes();
    bits.chain(genotype)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `(vector, scalar)` fingerprints of `search` on `task`. With
/// `SANE_FORCE_SCALAR` set, the default flavour is the scalar one too.
fn check(what: &str, task: &Task, cfg: &SaneSearchConfig, want: (u64, u64)) {
    let default = fingerprint(task, cfg);
    let scalar = simd::with_scalar(|| fingerprint(task, cfg));
    let want_default = if simd::scalar_forced() { want.1 } else { want.0 };
    assert_eq!(
        (default, scalar),
        (want_default, want.1),
        "{what}: the search's α or genotype moved (got {default:#018x}, {scalar:#018x})"
    );
}

#[test]
fn cora_search_fingerprint_is_pinned() {
    let task = Task::node(CitationConfig::cora().scaled(0.05).with_seed(7).generate());
    check("cora-syn x0.05", &task, &search_cfg(12), (0x7466_2a2c_c4c7_8c2d, 0x6678_4ab6_09a9_2d96));
}

#[test]
fn ppi_search_fingerprint_is_pinned() {
    let ds = PpiConfig { num_graphs: 3, nodes_per_graph: 120, ..PpiConfig::ppi() }.with_seed(7);
    let task = Task::multi(ds.generate());
    check(
        "ppi-syn 3 x 120",
        &task,
        &search_cfg(10),
        (0xac6d_87b6_87bf_935d, 0x5bac_9ea5_22e3_0e78),
    );
}
