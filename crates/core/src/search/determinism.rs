//! Bitwise fingerprint of one SANE search step — the probe behind the
//! cross-thread determinism test at the bottom of this module.
//!
//! The whole reproduction stack rests on one claim: the parallel kernels
//! in `sane-autodiff` are *bitwise* deterministic at any worker count,
//! because work is only ever cut at item boundaries and each item runs the
//! identical serial inner loop (see `sane_autodiff::parallel` for the
//! partition contract). A DARTS-style search amplifies any violation — a
//! single last-bit difference in one gradient changes the Adam trajectory
//! and, eventually, which architecture wins — so the test does not compare
//! a kernel in isolation. It runs a **full search step**
//! (fully-mixed supernet forward, backward, α Adam update on the
//! validation loss, then w Adam update on the training loss — exactly
//! Algorithm 1's epoch body in first-order mode, through the same α-step
//! helper and α-only backward sweep `sane_search` runs) and fingerprints every
//! observable: the loss scalar, every gradient matrix, every parameter
//! after the updates, and the softmaxed α rows.
//!
//! Fingerprints store `f32` *bit patterns* (`u32`), not floats: the test
//! must distinguish `0.0` from `-0.0` and compare NaNs by representation,
//! which `==` on floats cannot do.
//!
//! `fingerprint_is_bitwise_identical_across_thread_counts` runs this probe
//! under `sane_autodiff::parallel::with_threads` at 1, 2 and 4 workers and
//! names every section that diverges from the serial run.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sane_autodiff::optim::Adam;
use sane_autodiff::VarStore;

use super::darts::{mixed_loss_tape, step_alpha_first_order, SaneSearchConfig, Split};
use crate::supernet::Supernet;
use crate::train::Task;

/// Bit-exact snapshot of everything one search step produces.
///
/// Entries are `(label, f32-bit-patterns)` pairs sorted by label, so two
/// fingerprints from the same config are comparable entry-by-entry and a
/// mismatch names the exact tensor that diverged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepFingerprint {
    /// Bit pattern of the weight-step training loss.
    pub loss: u32,
    /// Post-clip weight-step gradients, keyed by parameter name.
    pub grads: Vec<(String, Vec<u32>)>,
    /// Every parameter value after the α and w Adam updates.
    pub params: Vec<(String, Vec<u32>)>,
    /// Softmaxed α rows (`node[i]`, `skip[i]`, `layer`).
    pub alphas: Vec<(String, Vec<u32>)>,
}

impl StepFingerprint {
    /// Labels of every section that differs between two fingerprints, in
    /// a fixed order (`loss`, then `grad:*`, `param:*`, `alpha:*`). Empty
    /// means bitwise identical.
    pub fn diff(&self, other: &StepFingerprint) -> Vec<String> {
        let mut out = Vec::new();
        if self.loss != other.loss {
            out.push("loss".to_string());
        }
        for (prefix, a, b) in [
            ("grad", &self.grads, &other.grads),
            ("param", &self.params, &other.params),
            ("alpha", &self.alphas, &other.alphas),
        ] {
            if a.len() != b.len() {
                out.push(format!("{prefix}:<section length {} vs {}>", a.len(), b.len()));
                continue;
            }
            for ((la, va), (lb, vb)) in a.iter().zip(b) {
                if la != lb {
                    out.push(format!("{prefix}:<label {la} vs {lb}>"));
                } else if va != vb {
                    out.push(format!("{prefix}:{la}"));
                }
            }
        }
        out
    }

    /// Total number of fingerprinted scalars.
    pub fn num_scalars(&self) -> usize {
        1 + [&self.grads, &self.params, &self.alphas]
            .iter()
            .flat_map(|sec| sec.iter().map(|(_, v)| v.len()))
            .sum::<usize>()
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs one full SANE search step (epoch 0 of Algorithm 1, first-order,
/// no ε-explore) from a fresh seeded supernet and fingerprints it.
///
/// Identical `task` + `cfg` must yield identical fingerprints regardless
/// of the active worker count — that is the property the determinism test
/// asserts by calling this under `with_threads(1 | 2 | 4)`.
pub fn search_step_fingerprint(task: &Task, cfg: &SaneSearchConfig) -> StepFingerprint {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    let net = Supernet::new(
        cfg.supernet.clone(),
        task.feature_dim(),
        task.num_outputs(),
        &mut store,
        &mut rng,
    );
    let mut opt_w = Adam::new(cfg.lr_w, cfg.wd_w);
    let mut opt_alpha = Adam::new(cfg.lr_alpha, cfg.wd_alpha);

    // Lines 2–3 of Algorithm 1: α Adam step on the validation loss, the
    // same α-only sweep `sane_search` runs.
    step_alpha_first_order(task, &net, &mut store, &mut opt_alpha, cfg.seed, 0);

    // Lines 4–5: w Adam step on the training loss.
    let (tape, loss) = mixed_loss_tape(task, &net, &store, Split::Train, cfg.seed, 0);
    let loss_bits = tape.value(loss).as_scalar().to_bits();
    let mut grads = tape.backward(loss);
    grads.clip_global_norm(5.0);

    let mut grad_bits: Vec<(String, Vec<u32>)> =
        grads.iter().map(|(id, m)| (store.name(id).to_string(), bits(m.data()))).collect();
    grad_bits.sort_by(|a, b| a.0.cmp(&b.0));

    drop(tape);
    opt_w.step_subset(&mut store, &grads, net.weight_params());
    grads.recycle();

    let mut param_bits: Vec<(String, Vec<u32>)> =
        store.ids().map(|id| (store.name(id).to_string(), bits(store.value(id).data()))).collect();
    param_bits.sort_by(|a, b| a.0.cmp(&b.0));

    let snap = net.alpha_snapshot(&store);
    let mut alphas = Vec::new();
    for (i, row) in snap.node.iter().enumerate() {
        alphas.push((format!("node[{i}]"), bits(row)));
    }
    for (i, row) in snap.skip.iter().enumerate() {
        alphas.push((format!("skip[{i}]"), bits(row)));
    }
    if !snap.layer.is_empty() {
        alphas.push(("layer".to_string(), bits(&snap.layer)));
    }

    StepFingerprint { loss: loss_bits, grads: grad_bits, params: param_bits, alphas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supernet::SupernetConfig;
    use sane_autodiff::parallel::with_threads;
    use sane_data::CitationConfig;
    use sane_gnn::Activation;

    fn tiny_task() -> Task {
        Task::node(CitationConfig::cora().scaled(0.025).generate())
    }

    /// A two-layer supernet of the given width, with all three layer
    /// aggregators (CONCAT, MAX, LSTM) mixed in.
    fn cfg_of_width(hidden: usize) -> SaneSearchConfig {
        SaneSearchConfig {
            supernet: SupernetConfig {
                k: 2,
                hidden,
                dropout: 0.2,
                activation: Activation::Relu,
                use_layer_agg: true,
            },
            epochs: 1,
            ..Default::default()
        }
    }

    fn tiny_cfg() -> SaneSearchConfig {
        cfg_of_width(8)
    }

    #[test]
    fn fingerprint_is_reproducible() {
        let task = tiny_task();
        let cfg = tiny_cfg();
        let a = search_step_fingerprint(&task, &cfg);
        let b = search_step_fingerprint(&task, &cfg);
        assert_eq!(a.diff(&b), Vec::<String>::new());
        assert!(!a.grads.is_empty() && !a.params.is_empty() && !a.alphas.is_empty());
        assert!(a.num_scalars() > 100, "fingerprint too small to be a real step");
    }

    #[test]
    fn fingerprint_is_bitwise_identical_across_thread_counts() {
        let task = tiny_task();
        // Width 20 = 16 + 4 runs the GEMM's 16-wide tile and a 4-wide tail
        // into the padding, and k = 20 for the lane-split dA: two full
        // lane chunks plus a 4-term tail.
        for hidden in [8usize, 20] {
            let cfg = cfg_of_width(hidden);
            let reference = with_threads(1, || search_step_fingerprint(&task, &cfg));
            for threads in [2usize, 4] {
                let probe = with_threads(threads, || search_step_fingerprint(&task, &cfg));
                let diff = reference.diff(&probe);
                assert!(
                    diff.is_empty(),
                    "hidden {hidden}: {threads} threads diverged from serial: {diff:?}"
                );
            }
        }
    }

    #[test]
    fn fingerprint_detects_a_changed_seed() {
        let task = tiny_task();
        let cfg = tiny_cfg();
        let mut other_cfg = tiny_cfg();
        other_cfg.seed = cfg.seed ^ 0x5EED;
        let a = search_step_fingerprint(&task, &cfg);
        let b = search_step_fingerprint(&task, &other_cfg);
        assert!(!a.diff(&b).is_empty(), "different seeds must not collide bitwise");
    }
}
