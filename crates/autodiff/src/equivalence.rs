//! Fused-vs-chain equivalence checks for tests.
//!
//! A fused op (`segment_attention`, `gather_attention`,
//! `gen_linear_score`) replaces a chain of plain tape ops. Its soundness
//! has two halves: its shape rule must agree with what it records, which
//! the tape audit checks, and it must compute what the chain computes,
//! which [`fused_vs_chain`] checks here. The same
//! check bounds a reordered model computation against the order it
//! replaces, such as an aggregator that projects before it propagates.

use crate::parallel::with_threads;
use crate::simd::ulp_diff;
use crate::tape::{ParamId, Tape, Tensor, VarStore};
use crate::Matrix;

/// How closely a fused op must track its unfused chain.
#[derive(Clone, Copy, Debug)]
pub enum Equivalence {
    /// Forward values and gradients are bitwise identical. Holds for
    /// fusions that only change the schedule or the addressing: the
    /// determinism contract pins the arithmetic order.
    Bitwise,
    /// Each element agrees within `max_ulps` ULPs *or* `atol` absolutely,
    /// for fusions that change the arithmetic itself (a divide turned into
    /// a multiply by the reciprocal, the scalar `exp` swapped for the
    /// vectorized one). Each side must still be bitwise stable across
    /// thread counts.
    Approximate {
        /// Maximum units-in-the-last-place distance.
        max_ulps: u32,
        /// Absolute slack for near-zero cancellation.
        atol: f32,
    },
}

/// One side's forward value and the gradient of each input.
struct Run {
    value: Matrix,
    grads: Vec<Option<Matrix>>,
}

/// Records `side` over `inputs` (all parameters) and differentiates
/// `Σ out ⊙ U` with respect to the `wanted` inputs, where `U` is a fixed
/// non-uniform upstream gradient, so every output element is weighted
/// differently.
fn run(side: &dyn Fn(&mut Tape, &[Tensor]) -> Tensor, inputs: &[Matrix], wanted: &[bool]) -> Run {
    let mut store = VarStore::new();
    let ids: Vec<ParamId> = inputs.iter().map(|m| store.add("in", m.clone())).collect();
    let mut tape = Tape::new(0);
    let ts: Vec<Tensor> = ids.iter().map(|&p| tape.param(&store, p)).collect();
    let out = side(&mut tape, &ts);
    let value = tape.value(out).clone();
    let (rows, cols) = value.shape();
    let upstream = tape.constant(Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f32 * 0.61 + 0.3).sin() * 1.7
    }));
    let weighted = tape.mul(out, upstream);
    let loss = tape.sum_all(weighted);
    let want: Vec<ParamId> = ids.iter().zip(wanted).filter(|(_, &w)| w).map(|(&p, _)| p).collect();
    let grads = tape.backward_wrt(loss, &want);
    Run { value, grads: ids.iter().map(|&p| grads.get(p).cloned()).collect() }
}

fn close(eq: Equivalence, a: &Matrix, b: &Matrix) -> Result<(), String> {
    if a.shape() != b.shape() {
        return Err(format!("shapes {:?} vs {:?}", a.shape(), b.shape()));
    }
    for (k, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
        let ok = match eq {
            Equivalence::Bitwise => x.to_bits() == y.to_bits(),
            Equivalence::Approximate { max_ulps, atol } => {
                (x - y).abs() <= atol || ulp_diff(x, y) <= u64::from(max_ulps)
            }
        };
        if !ok {
            return Err(format!("element {k}: {x:e} vs {y:e} ({eq:?})"));
        }
    }
    Ok(())
}

fn compare(eq: Equivalence, a: &Run, b: &Run, wanted: &[bool]) -> Result<(), String> {
    close(eq, &a.value, &b.value).map_err(|e| format!("forward values differ: {e}"))?;
    for (i, ((ga, gb), &w)) in a.grads.iter().zip(&b.grads).zip(wanted).enumerate() {
        match (ga, gb) {
            (Some(x), Some(y)) if w => {
                close(eq, x, y).map_err(|e| format!("gradient of input {i} differs: {e}"))?
            }
            (None, None) if !w => {}
            _ => {
                return Err(format!(
                    "gradient of input {i} (wanted: {w}) formed: {} vs {}",
                    ga.is_some(),
                    gb.is_some()
                ))
            }
        }
    }
    Ok(())
}

/// Records `fused` and its unfused `chain` from the same `inputs` at 1, 2
/// and 4 worker threads, and requires the forward values and the gradient
/// of each `wanted` input to agree under `eq`, with no gradient formed for
/// the others. Each side must also match its own single-thread run
/// bitwise.
pub fn fused_vs_chain(
    eq: Equivalence,
    inputs: &[Matrix],
    wanted: &[bool],
    fused: &dyn Fn(&mut Tape, &[Tensor]) -> Tensor,
    chain: &dyn Fn(&mut Tape, &[Tensor]) -> Tensor,
) -> Result<(), String> {
    assert_eq!(inputs.len(), wanted.len(), "one `wanted` flag per input");
    let mut single: Option<(Run, Run)> = None;
    for threads in [1, 2, 4] {
        let (f, c) =
            with_threads(threads, || (run(fused, inputs, wanted), run(chain, inputs, wanted)));
        compare(eq, &f, &c, wanted)
            .map_err(|e| format!("fused vs chain at {threads} threads: {e}"))?;
        match &single {
            Some((f1, c1)) => {
                for (side, now, first) in [("fused", &f, f1), ("chain", &c, c1)] {
                    compare(Equivalence::Bitwise, now, first, wanted)
                        .map_err(|e| format!("{side} at {threads} threads vs 1 thread: {e}"))?;
                }
            }
            None => single = Some((f, c)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f32 addition is not associative: `(a + b) + c` is no fusion of
    /// `a + (b + c)`, however plausible its shapes and ranges.
    #[test]
    fn a_reassociated_sum_is_rejected() {
        // The magnitude gap makes the two orders round differently: `b`
        // rounds into `a`'s ulp before `c` can contribute, or `b + c` is
        // formed exactly first.
        let wave =
            |salt: f32| Matrix::from_fn(8, 5, move |r, c| ((r * 5 + c) as f32 * 0.77 + salt).sin());
        let a = wave(0.0).map(|v| 1500.0 + 500.0 * v);
        let inputs = [a, wave(1.0).map(|v| 2.0 * v), wave(2.0).map(|v| 2.0 * v)];
        let left = |t: &mut Tape, i: &[Tensor]| {
            let ab = t.add(i[0], i[1]);
            t.add(ab, i[2])
        };
        let right = |t: &mut Tape, i: &[Tensor]| {
            let bc = t.add(i[1], i[2]);
            t.add(i[0], bc)
        };
        let err = fused_vs_chain(Equivalence::Bitwise, &inputs, &[true; 3], &left, &right)
            .expect_err("reassociation changes the rounding");
        assert!(err.contains("forward values differ"), "{err}");
        // The two orders are a rounding apart, inside an approximate budget.
        let budget = Equivalence::Approximate { max_ulps: 2, atol: 0.0 };
        fused_vs_chain(budget, &inputs, &[true; 3], &left, &right).expect("within 2 ulps");
    }
}
