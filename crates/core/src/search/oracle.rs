//! Evaluation oracles: map a genome to a validation score, recording
//! wall-clock traces and caching repeats.
//!
//! The trial-and-error searchers (Random, Bayesian/TPE, GraphNAS) only see
//! this interface, so the same searcher runs over the SANE space, the
//! GraphNAS space (Table IX) and the MLP space (Table X), and with either
//! train-from-scratch or weight-sharing evaluation.

use std::collections::HashMap;
use std::time::Instant;

use crate::search::trace::{SearchTrace, TracePoint};
use crate::train::TrainOutcome;

/// The boxed evaluation closure held by a [`GenomeOracle`].
type EvalFn<'a> = Box<dyn FnMut(&[usize]) -> TrainOutcome + 'a>;

/// A genome evaluator with bookkeeping.
pub struct GenomeOracle<'a> {
    eval: EvalFn<'a>,
    cache: HashMap<Vec<usize>, TrainOutcome>,
    trace: SearchTrace,
    start: Instant,
    evaluations: usize,
    best: Option<(Vec<usize>, TrainOutcome)>,
}

impl<'a> GenomeOracle<'a> {
    /// Wraps an evaluation function (typically: decode genome, train,
    /// return the outcome).
    pub fn new(eval: impl FnMut(&[usize]) -> TrainOutcome + 'a) -> Self {
        Self {
            eval: Box::new(eval),
            cache: HashMap::new(),
            trace: SearchTrace::default(),
            start: Instant::now(),
            evaluations: 0,
            best: None,
        }
    }

    /// Evaluates a genome (cached) and returns its validation metric.
    pub fn evaluate(&mut self, genome: &[usize]) -> f64 {
        if let Some(hit) = self.cache.get(genome) {
            return hit.val_metric;
        }
        let outcome = (self.eval)(genome);
        self.evaluations += 1;
        let is_better =
            self.best.as_ref().map(|(_, b)| outcome.val_metric > b.val_metric).unwrap_or(true);
        if is_better {
            self.best = Some((genome.to_vec(), outcome.clone()));
        }
        let best = self.best.as_ref().expect("just set"); // lint:allow(expect) -- just set
        self.trace.push(TracePoint {
            seconds: self.start.elapsed().as_secs_f64(),
            evaluations: self.evaluations,
            best_val: best.1.val_metric,
            test_at_best: best.1.test_metric,
        });
        let val = outcome.val_metric;
        self.cache.insert(genome.to_vec(), outcome);
        val
    }

    /// Number of (uncached) evaluations performed.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// The best genome and its outcome, if any evaluation happened.
    pub fn best(&self) -> Option<(&[usize], &TrainOutcome)> {
        self.best.as_ref().map(|(g, o)| (g.as_slice(), o))
    }

    /// The recorded trajectory.
    pub fn trace(&self) -> &SearchTrace {
        &self.trace
    }

    /// Consumes the oracle, returning `(best genome, best outcome, trace)`.
    ///
    /// # Panics
    /// Panics if no evaluation was performed.
    pub fn finish(self) -> (Vec<usize>, TrainOutcome, SearchTrace) {
        let (g, o) = self.best.expect("oracle finished without evaluations"); // lint:allow(expect) -- oracle finished without evaluations
        (g, o, self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(val: f64) -> TrainOutcome {
        TrainOutcome { val_metric: val, test_metric: val - 0.05, epochs_run: 1 }
    }

    #[test]
    fn oracle_tracks_best_and_caches() {
        let mut calls = 0usize;
        {
            let mut oracle = GenomeOracle::new(|g: &[usize]| {
                calls += 1;
                outcome(g[0] as f64 / 10.0)
            });
            assert_eq!(oracle.evaluate(&[3]), 0.3);
            assert_eq!(oracle.evaluate(&[7]), 0.7);
            assert_eq!(oracle.evaluate(&[3]), 0.3); // cached
            assert_eq!(oracle.evaluations(), 2);
            let (g, o) = oracle.best().unwrap();
            assert_eq!(g, &[7]);
            assert!((o.test_metric - 0.65).abs() < 1e-12);
            assert_eq!(oracle.trace().points.len(), 2);
        }
        assert_eq!(calls, 2);
    }

    #[test]
    fn trace_best_is_monotone() {
        let mut oracle = GenomeOracle::new(|g: &[usize]| outcome(g[0] as f64));
        for &v in &[5usize, 2, 9, 1] {
            oracle.evaluate(&[v]);
        }
        let best_vals: Vec<f64> = oracle.trace().points.iter().map(|p| p.best_val).collect();
        assert_eq!(best_vals, vec![5.0, 5.0, 9.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "without evaluations")]
    fn finish_requires_evaluations() {
        let oracle = GenomeOracle::new(|_: &[usize]| outcome(0.0));
        let _ = oracle.finish();
    }
}
