//! Static pre-flight validation of search candidates.
//!
//! Training a candidate architecture costs seconds to minutes; statically
//! checking that its tape is well-formed costs microseconds. The pre-flight
//! validator builds the candidate's model over a tiny probe graph, records
//! one forward pass, and runs [`Tape::audit`] over it. A genome whose tape
//! has any error-severity finding — arity or shape-rule contradictions,
//! non-finite values — is rejected before any training budget is spent.
//! A searcher opts in with `GenomeOracle::with_preflight`, which counts
//! checks and rejections in telemetry (`search.preflight.checked` /
//! `search.preflight.rejected`); none of the built-in searchers installs
//! it, since every genome of the SANE space decodes to a valid
//! architecture (the tests below check a sample of them).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sane_autodiff::{Matrix, Tape, Tensor, VarStore};
use sane_gnn::{GnnModel, GraphContext, ModelHyper};
use sane_graph::Graph;

use crate::space::{CategoricalSpace, SaneSpace};

/// Why a candidate was rejected before training.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PreflightError {
    /// The genome has the wrong number of decisions for the space.
    GenomeLength {
        /// Decisions the space declares.
        expected: usize,
        /// Decisions the genome carries.
        actual: usize,
    },
    /// A decision index is outside its cardinality.
    GenomeValue {
        /// Which decision.
        index: usize,
        /// The out-of-range value.
        value: usize,
        /// The decision's cardinality.
        cardinality: usize,
    },
    /// The candidate's probe tape failed the static analysis.
    StaticViolations {
        /// Error-severity findings, one rendered line each.
        findings: Vec<String>,
    },
}

impl std::fmt::Display for PreflightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::GenomeLength { expected, actual } => {
                write!(f, "genome has {actual} decision(s), space declares {expected}")
            }
            Self::GenomeValue { index, value, cardinality } => {
                write!(f, "genome[{index}] = {value} out of range 0..{cardinality}")
            }
            Self::StaticViolations { findings } => {
                write!(f, "probe tape failed static analysis: {}", findings.join("; "))
            }
        }
    }
}

impl std::error::Error for PreflightError {}

/// Non-panicking genome well-formedness check — the searcher-facing twin
/// of [`CategoricalSpace::check`], which panics (appropriate for internal
/// invariants, not for candidates arriving from an external proposer).
pub fn check_genome(space: &CategoricalSpace, genome: &[usize]) -> Result<(), PreflightError> {
    if genome.len() != space.dims.len() {
        return Err(PreflightError::GenomeLength {
            expected: space.dims.len(),
            actual: genome.len(),
        });
    }
    for (index, (&value, &cardinality)) in genome.iter().zip(&space.dims).enumerate() {
        if value >= cardinality {
            return Err(PreflightError::GenomeValue { index, value, cardinality });
        }
    }
    Ok(())
}

/// Audits a recorded probe tape and rejects on any error-severity finding.
pub fn preflight_tape(
    tape: &Tape,
    loss: Tensor,
    store: Option<&VarStore>,
) -> Result<(), PreflightError> {
    let report = tape.audit(loss, store);
    if report.has_errors() {
        let findings = report
            .findings
            .iter()
            .filter(|f| f.severity == sane_autodiff::Severity::Error)
            .map(|f| f.to_string())
            .collect();
        return Err(PreflightError::StaticViolations { findings });
    }
    Ok(())
}

/// Pre-flight validator for the SANE space: decodes a genome, instantiates
/// the model over a fixed tiny probe graph, and statically analyses one
/// forward + loss tape.
///
/// The probe fixture is deliberately small (6 nodes, 5 features, 3
/// classes) — the static properties being checked (op wiring, shape
/// rules, finite values) do not depend on graph scale.
pub struct SanePreflight {
    space: SaneSpace,
    cat: CategoricalSpace,
    ctx: GraphContext,
    features: Arc<Matrix>,
    labels: Arc<Vec<u32>>,
    train_rows: Arc<Vec<u32>>,
    hyper: ModelHyper,
}

impl SanePreflight {
    /// Builds the probe fixture for `space`.
    pub fn new(space: SaneSpace) -> Self {
        // A triangle with a pendant chain: degrees 1..3 keep every
        // aggregator's segment shapes irregular.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        let ctx = GraphContext::new(&g);
        let mut rng = StdRng::seed_from_u64(0x5a9e);
        let features = Arc::new(sane_autodiff::uniform_init(6, 5, 0.5, &mut rng));
        let labels = Arc::new(vec![0u32, 1, 2, 0, 1, 2]);
        let train_rows = Arc::new(vec![0u32, 2, 4]);
        let cat = space.space();
        // Small but GAT-compatible: hidden divisible by heads.
        let hyper = ModelHyper { hidden: 8, heads: 2, dropout: 0.0, ..ModelHyper::default() };
        Self { space, cat, ctx, features, labels, train_rows, hyper }
    }

    /// The categorical encoding this validator checks genomes against.
    pub fn space(&self) -> &CategoricalSpace {
        &self.cat
    }

    /// Validates one genome: well-formedness, then static tape analysis of
    /// the decoded candidate.
    pub fn check(&self, genome: &[usize]) -> Result<(), PreflightError> {
        check_genome(&self.cat, genome)?;
        let arch = self.space.decode(genome);
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = VarStore::new();
        let model = GnnModel::new(arch, 5, 3, self.hyper.clone(), &mut store, &mut rng);
        let mut tape = Tape::new(0);
        let x = tape.input(Arc::clone(&self.features));
        let logits = model.forward(&mut tape, &store, &self.ctx, x, false);
        let loss = tape.cross_entropy(logits, &self.labels, &self.train_rows);
        preflight_tape(&tape, loss, Some(&store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_genomes_pass_check() {
        let cat = CategoricalSpace::new(vec![3, 2, 4]);
        assert!(check_genome(&cat, &[2, 1, 3]).is_ok());
        assert_eq!(
            check_genome(&cat, &[0, 1]),
            Err(PreflightError::GenomeLength { expected: 3, actual: 2 })
        );
        assert_eq!(
            check_genome(&cat, &[0, 2, 0]),
            Err(PreflightError::GenomeValue { index: 1, value: 2, cardinality: 2 })
        );
    }

    #[test]
    fn every_sane_genome_corner_passes_preflight() {
        // All-minimum and all-maximum genomes exercise both extremes of
        // every decision, and sampled genomes mix them; the validator must
        // accept them all — the SANE space contains no statically-invalid
        // architecture by design.
        let pf = SanePreflight::new(SaneSpace::paper());
        let dims = pf.space().dims.clone();
        let lo: Vec<usize> = dims.iter().map(|_| 0).collect();
        let hi: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let sampled = (0..16).map(|_| pf.space().sample(&mut rng));
        for genome in [lo, hi].into_iter().chain(sampled) {
            assert_eq!(pf.check(&genome), Ok(()), "genome {genome:?}");
        }
    }

    /// Acceptance pin: an injected statically-invalid candidate is rejected
    /// before training. The corrupted tape carries a NaN constant into the
    /// loss — the class of poisoned-weights / broken-initialiser bug the
    /// static analysis catches without spending a training step. (Invalid
    /// *wiring* — e.g. non-covering segments — is asserted at record time
    /// by the tape builders and pinned inside `sane-autodiff`.)
    #[test]
    fn injected_invalid_candidate_is_rejected_statically() {
        let mut tape = Tape::new(0);
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0, f32::NAN, 0.0, 2.0]));
        let y = tape.relu(x);
        let loss = tape.sum_all(y);
        let err = preflight_tape(&tape, loss, None).expect_err("must reject");
        let PreflightError::StaticViolations { findings } = err else {
            panic!("wrong rejection kind: {err}");
        };
        assert!(
            findings.iter().any(|f| f.to_lowercase().contains("finite")),
            "violation should name the non-finite value: {findings:?}"
        );

        // Malformed genomes are rejected even earlier, without building a
        // model at all.
        let pf = SanePreflight::new(SaneSpace::paper());
        let mut bad = vec![0usize; pf.space().len()];
        bad[0] = 99;
        assert!(matches!(pf.check(&bad), Err(PreflightError::GenomeValue { .. })));
    }
}
