//! Cross-thread determinism gate: runs one full SANE search step (mixed
//! forward + backward + α and w Adam updates) at 1/2/4/`hardware` worker
//! threads and bitwise-compares the resulting
//! [`sane_core::search::StepFingerprint`]s — loss, every gradient, every
//! parameter and every α row. Any divergence fails the process (and CI).
//!
//! On mismatch the report attributes the divergence: each run records
//! per-kernel telemetry samples (`kernel.<name>.ns`), and kernels whose
//! sample counts differ from the serial reference are listed as suspects —
//! a different invocation count means a different code path, which is
//! exactly where a thread-count-dependent kernel hides.
//!
//! A final `simd-lane-drift` case fingerprints the same step on the scalar
//! reference kernels (`sane_autodiff::simd::with_scalar`, the in-process
//! equivalent of `SANE_FORCE_SCALAR=1`) and *reports* — without gating —
//! how many sections drift from the vectorized default, and how far the
//! vectorized `tanh` and `sigmoid` drift from libm over a dense grid.
//!
//! Emits `DETERMINISM.json`. Usage:
//! `cargo run --release -p sane-bench --bin determinism -- --quick`

use std::collections::BTreeMap;

use serde::Serialize;

use sane_autodiff::parallel::{hardware_threads, with_threads};
use sane_autodiff::simd::{ulp_diff, Flavour};
use sane_bench::HarnessArgs;
use sane_core::prelude::*;
use sane_core::search::{search_step_fingerprint, StepFingerprint};
use sane_data::CitationConfig;
use sane_gnn::Activation;
use sane_telemetry::trace;

#[derive(Serialize)]
struct RunReport {
    threads: usize,
    /// Telemetry kernel-sample counts observed during this run.
    kernel_counts: BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct Mismatch {
    threads: usize,
    /// Fingerprint sections that diverged from the 1-thread reference
    /// (e.g. `loss`, `grad:layer0.gcn.w`, `alpha:node[1]`).
    labels: Vec<String>,
    /// Kernels whose telemetry sample count differs from the reference
    /// run — the per-kernel attribution hint for the divergence.
    suspect_kernels: Vec<String>,
}

/// The `simd-lane-drift` case: the same step fingerprinted on the scalar
/// reference kernels (as `SANE_FORCE_SCALAR=1` would select) against the
/// vectorized default. Drift here is *reported, not gated* — the pinned
/// 8-lane `mul_add` tree legitimately rounds differently than the scalar
/// left fold; the determinism contract only binds each mode across thread
/// counts. Keeping the drift observable stops the scalar path from rotting
/// into something that silently computes a different function.
#[derive(Serialize)]
struct SimdLaneDrift {
    /// Fingerprint sections where scalar and vectorized kernels differ
    /// bitwise (expected to be most of them once a GEMM is involved).
    drifted_sections: usize,
    /// Total sections compared.
    total_sections: usize,
    /// First few drifted section labels, for eyeballing the report.
    sample_labels: Vec<String>,
    /// Vectorized `tanh`/`sigmoid` against their libm references.
    activations: Vec<ActivationDrift>,
}

/// Drift of one vectorized activation from its reference flavour over a
/// dense grid of inputs.
#[derive(Serialize)]
struct ActivationDrift {
    op: String,
    /// Grid points: every 1/1024 step over [-12, 12].
    points: usize,
    /// Points where the two flavours differ bitwise.
    differing: usize,
    /// Largest distance in units in the last place.
    max_ulps: u64,
    /// Largest relative difference.
    max_rel: f64,
}

fn activation_drift(op: &str, f: fn(Flavour, &mut [f32])) -> ActivationDrift {
    let xs: Vec<f32> = (-12_288..=12_288).map(|i| i as f32 / 1024.0).collect(); // lint:allow(lossy-cast) -- small integer grid, exact in f32
    let (mut vector, mut reference) = (xs.clone(), xs);
    f(Flavour::Vector, &mut vector);
    f(Flavour::Reference, &mut reference);
    let mut drift = ActivationDrift {
        op: op.into(),
        points: vector.len(),
        differing: 0,
        max_ulps: 0,
        max_rel: 0.0,
    };
    for (&v, &r) in vector.iter().zip(&reference) {
        if v.to_bits() != r.to_bits() {
            drift.differing += 1;
            drift.max_ulps = drift.max_ulps.max(ulp_diff(v, r));
            let rel = (f64::from(v) - f64::from(r)).abs() / f64::from(r).abs();
            drift.max_rel = drift.max_rel.max(rel);
        }
    }
    drift
}

#[derive(Serialize)]
struct DeterminismReport {
    preset: String,
    threads: Vec<usize>,
    available_parallelism: usize,
    /// Scalars covered by each fingerprint (loss + grads + params + α).
    fingerprint_scalars: usize,
    passed: bool,
    runs: Vec<RunReport>,
    mismatches: Vec<Mismatch>,
    simd_lane_drift: SimdLaneDrift,
}

/// Runs the probe under an installed recorder and returns the fingerprint
/// plus the per-kernel sample counts from the flushed metrics record.
fn probe(
    task: &Task,
    cfg: &SaneSearchConfig,
    threads: usize,
) -> (StepFingerprint, BTreeMap<String, u64>) {
    let buf = sane_telemetry::MemoryBuffer::default();
    let fp = {
        let _guard = sane_telemetry::Recorder::new("determinism")
            .with_memory(buf.clone())
            .with_kernel_timing(true)
            .install();
        let fp = with_threads(threads, || search_step_fingerprint(task, cfg));
        sane_telemetry::flush_metrics();
        fp
    };
    let counts = kernel_counts(&buf.borrow());
    (fp, counts)
}

/// `kernel.<name>.ns` sample counts from the last `metrics` record of a
/// telemetry trace.
fn kernel_counts(jsonl: &str) -> BTreeMap<String, u64> {
    let records = trace::read(jsonl).expect("probe trace validates"); // lint:allow(expect) -- the recorder wrote it
    let Some(metrics) = trace::last_metrics(&records) else { return BTreeMap::new() };
    metrics
        .summaries()
        .iter()
        .filter_map(|(name, s)| {
            Some((name.strip_prefix("kernel.")?.strip_suffix(".ns")?.to_string(), s.count))
        })
        .collect()
}

fn suspect_kernels(
    reference: &BTreeMap<String, u64>,
    observed: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut suspects: Vec<String> = reference
        .iter()
        .filter(|(k, v)| observed.get(*k) != Some(v))
        .map(|(k, _)| k.clone())
        .collect();
    suspects.extend(observed.keys().filter(|k| !reference.contains_key(*k)).cloned());
    suspects.sort();
    suspects.dedup();
    suspects
}

fn main() {
    let args = HarnessArgs::from_env();
    let quick = args.scale.name == "quick";
    let data_scale = if quick { 0.025 } else { 0.1 };
    let ds = CitationConfig::cora().scaled(data_scale).with_seed(args.scale.seed).generate();
    let task = Task::node(ds);
    let cfg = SaneSearchConfig {
        supernet: SupernetConfig {
            k: 2,
            // 20 = 16 + 4: the quick gate runs the GEMM's 16-wide tile and
            // a narrow tail into the padding (and k = 20 for the lane-split
            // dA: two full lane chunks plus a 4-term tail).
            hidden: if quick { 20 } else { 16 },
            dropout: 0.2,
            activation: Activation::Relu,
            use_layer_agg: true,
        },
        epochs: 1,
        seed: args.scale.seed,
        ..Default::default()
    };

    let mut threads: Vec<usize> = vec![1, 2, 4, hardware_threads()];
    threads.sort_unstable();
    threads.dedup();
    println!(
        "determinism gate: preset={}, {} fingerprinted thread count(s), {} hardware threads",
        args.scale.name,
        threads.len(),
        hardware_threads(),
    );

    let (reference, ref_counts) = probe(&task, &cfg, threads[0]);
    println!(
        "  {} scalars fingerprinted per step ({} kernels sampled)",
        reference.num_scalars(),
        ref_counts.len(),
    );

    let mut runs = vec![RunReport { threads: threads[0], kernel_counts: ref_counts.clone() }];
    let mut mismatches = Vec::new();
    for &t in &threads[1..] {
        let (fp, counts) = probe(&task, &cfg, t);
        let labels = reference.diff(&fp);
        if labels.is_empty() {
            println!("  {t} thread(s): bitwise identical to serial");
        } else {
            let suspects = suspect_kernels(&ref_counts, &counts);
            println!(
                "  {t} thread(s): DIVERGED on {} section(s): {:?} (suspect kernels: {:?})",
                labels.len(),
                &labels[..labels.len().min(8)],
                suspects,
            );
            mismatches.push(Mismatch { threads: t, labels, suspect_kernels: suspects });
        }
        runs.push(RunReport { threads: t, kernel_counts: counts });
    }

    // simd-lane-drift case: scalar reference kernels vs the vectorized
    // default, reported but never gated (see `SimdLaneDrift`).
    let (scalar_fp, _) = sane_autodiff::simd::with_scalar(|| probe(&task, &cfg, threads[0]));
    let drift_labels = reference.diff(&scalar_fp);
    let simd_lane_drift = SimdLaneDrift {
        drifted_sections: drift_labels.len(),
        total_sections: reference.num_sections(),
        sample_labels: drift_labels.iter().take(8).cloned().collect(),
        activations: vec![
            activation_drift("tanh", Flavour::tanh),
            activation_drift("sigmoid", Flavour::sigmoid),
        ],
    };
    println!(
        "  simd-lane-drift: scalar reference differs on {}/{} section(s) (expected, not gated)",
        simd_lane_drift.drifted_sections, simd_lane_drift.total_sections,
    );
    for a in &simd_lane_drift.activations {
        println!(
            "  simd-lane-drift: {} differs from libm at {}/{} points, max {} ulp, max rel {:.2e}",
            a.op, a.differing, a.points, a.max_ulps, a.max_rel,
        );
    }

    let report = DeterminismReport {
        preset: args.scale.name.clone(),
        threads,
        available_parallelism: hardware_threads(),
        fingerprint_scalars: reference.num_scalars(),
        passed: mismatches.is_empty(),
        runs,
        mismatches,
        simd_lane_drift,
    };
    std::fs::create_dir_all(&args.out_dir).expect("create results dir"); // lint:allow(expect) -- create results dir
    let path = args.out_dir.join("DETERMINISM.json");
    let json = serde_json::to_string_pretty(&report).expect("serialise report"); // lint:allow(expect) -- serialise report
    std::fs::write(&path, json).expect("write determinism json"); // lint:allow(expect) -- write determinism json
    println!("[saved {}]", path.display());

    assert!(
        report.passed,
        "search step is not bitwise deterministic across thread counts; see {}",
        path.display()
    );
    println!("determinism gate passed: bitwise identical at every thread count");
}
