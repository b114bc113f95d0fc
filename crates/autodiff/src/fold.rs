//! Register-resident row folds for the sparse and edge kernels.
//!
//! A sparse or edge kernel builds each output row as a fold over a list of
//! terms: a CSR row's nonzeros, a segment's edges, or the edges that
//! address one node. Walking the terms outermost and streaming each one
//! into the output row loads and stores that row once per term, and a
//! scatter over edges does so at random rows. [`by_blocks`] instead cuts
//! one output row into column blocks of 32, 16, 8, 4, 2 and 1 and hands
//! each block's accumulators to the kernel as a fixed-width array: the
//! kernel walks its terms over that block, and the block is stored once.
//!
//! Every output element still sees the same operations, in the same order,
//! from the same starting value, so a fold is bitwise the streaming loop
//! it replaces. Because each output row is owned by whoever folds it, the
//! folds partition at row boundaries and stay bitwise at any thread count.

/// Folds one output row block by block.
///
/// `fold(j, acc)` receives the first column `j` of a block and the block's
/// accumulators, all `+0`, and leaves the block's values in them; they are
/// then stored into `out[j..j + acc.len()]`. Block widths are compile-time
/// constants, so once `fold` is inlined its column loops unroll into
/// straight vector code over accumulators that stay in registers.
#[inline(always)]
pub(crate) fn by_blocks(out: &mut [f32], mut fold: impl FnMut(usize, &mut [f32])) {
    let n = out.len();
    let mut j = 0;
    while n - j >= 32 {
        block::<32>(&mut out[j..j + 32], j, &mut fold);
        j += 32;
    }
    if n - j >= 16 {
        block::<16>(&mut out[j..j + 16], j, &mut fold);
        j += 16;
    }
    if n - j >= 8 {
        block::<8>(&mut out[j..j + 8], j, &mut fold);
        j += 8;
    }
    if n - j >= 4 {
        block::<4>(&mut out[j..j + 4], j, &mut fold);
        j += 4;
    }
    if n - j >= 2 {
        block::<2>(&mut out[j..j + 2], j, &mut fold);
        j += 2;
    }
    if n - j == 1 {
        block::<1>(&mut out[j..], j, &mut fold);
    }
}

#[inline(always)]
fn block<const W: usize>(out: &mut [f32], j: usize, fold: &mut impl FnMut(usize, &mut [f32])) {
    let mut acc = [0.0f32; W];
    fold(j, &mut acc);
    out.copy_from_slice(&acc);
}

/// A flavour's multiply-add as a type, so a fold is compiled once per
/// flavour with no dispatch inside its loops.
pub(crate) trait Madd: Copy + Sync {
    /// `acc + a·x` with the flavour's rounding (see
    /// [`Flavour::madd`](crate::simd::Flavour::madd)).
    fn madd(a: f32, x: f32, acc: f32) -> f32;
}

/// The vector flavour: one rounding (`mul_add`).
#[derive(Clone, Copy)]
pub(crate) struct Fused;

/// The reference flavour: `mul`, then `add`.
#[derive(Clone, Copy)]
pub(crate) struct Plain;

impl Madd for Fused {
    #[inline(always)]
    fn madd(a: f32, x: f32, acc: f32) -> f32 {
        a.mul_add(x, acc)
    }
}

impl Madd for Plain {
    #[inline(always)]
    fn madd(a: f32, x: f32, acc: f32) -> f32 {
        acc + a * x
    }
}

/// Runs `$body` with `$m` bound to the [`Madd`] type of flavour `$fl`.
macro_rules! with_madd {
    ($fl:expr, $m:ident => $body:expr) => {
        match $fl {
            $crate::simd::Flavour::Vector => {
                type $m = $crate::fold::Fused;
                $body
            }
            $crate::simd::Flavour::Reference => {
                type $m = $crate::fold::Plain;
                $body
            }
        }
    };
}
pub(crate) use with_madd;

/// `acc[c] = madd(a, x[c], acc[c])` over one block, `x` already cut to it.
#[inline(always)]
pub(crate) fn madd_into<M: Madd>(a: f32, x: &[f32], acc: &mut [f32]) {
    for (o, &v) in acc.iter_mut().zip(x) {
        *o = M::madd(a, v, *o);
    }
}

/// Independent dot-product chains advanced together:
/// `out[i] = Σ_k a_i[k]·b_i[k]` with `(a_i, b_i) = pair(i)`.
///
/// Each sum is one serial chain, a `mul` then an `add` per term in `k`
/// order from `-0`: term for term the `Iterator::sum` of the products,
/// whose identity for `f32` is `-0` (an empty or all-`-0` sum is `-0`).
/// The chains go eight, four, two or one at a time through a loop over
/// `k`, so their add latencies overlap instead of queuing; no chain's own
/// order changes, so neither do its bits.
///
/// # Panics
/// Panics if the two slices of a pair differ in length from the first
/// pair of their group.
#[inline(always)]
pub(crate) fn product_sums<'a>(out: &mut [f32], pair: impl Fn(usize) -> (&'a [f32], &'a [f32])) {
    let n = out.len();
    let mut i = 0;
    while n - i >= 8 {
        chains::<8>(&mut out[i..i + 8], i, &pair);
        i += 8;
    }
    if n - i >= 4 {
        chains::<4>(&mut out[i..i + 4], i, &pair);
        i += 4;
    }
    if n - i >= 2 {
        chains::<2>(&mut out[i..i + 2], i, &pair);
        i += 2;
    }
    if n - i == 1 {
        chains::<1>(&mut out[i..], i, &pair);
    }
}

#[inline(always)]
fn chains<'a, const N: usize>(
    out: &mut [f32],
    first: usize,
    pair: &impl Fn(usize) -> (&'a [f32], &'a [f32]),
) {
    let pairs: [(&[f32], &[f32]); N] = std::array::from_fn(|k| pair(first + k));
    let len = pairs[0].0.len();
    for (a, b) in &pairs {
        assert!(a.len() == len && b.len() == len, "product_sums: chain lengths differ");
    }
    let mut acc = [-0.0f32; N];
    for k in 0..len {
        for (s, (a, b)) in acc.iter_mut().zip(&pairs) {
            *s += a[k] * b[k];
        }
    }
    out.copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Flavour;

    #[test]
    fn by_blocks_covers_every_width_once() {
        for n in [0, 1, 2, 3, 7, 8, 15, 16, 20, 31, 32, 33, 40, 63, 64, 71] {
            let mut out = vec![f32::NAN; n];
            let mut seen = vec![0u8; n];
            by_blocks(&mut out, |j, acc| {
                assert!(acc.iter().all(|&a| a.to_bits() == 0), "blocks start at +0");
                for (c, a) in acc.iter_mut().enumerate() {
                    seen[j + c] += 1;
                    *a = (j + c) as f32;
                }
            });
            assert!(seen.iter().all(|&s| s == 1), "n = {n}: {seen:?}");
            assert!(out.iter().enumerate().all(|(c, &v)| v == c as f32), "n = {n}");
        }
    }

    /// `Iterator::sum` of `f32` folds from `-0`, which `product_sums`
    /// relies on: an empty sum and a sum of `-0`s are `-0`.
    #[test]
    fn iterator_sum_of_f32_starts_at_negative_zero() {
        let neg = (-0.0f32).to_bits();
        assert_eq!(std::iter::empty::<f32>().sum::<f32>().to_bits(), neg);
        assert_eq!([-0.0f32, -0.0].iter().sum::<f32>().to_bits(), neg);
        assert_eq!([-0.0f32, 0.0].iter().sum::<f32>().to_bits(), 0.0f32.to_bits());
    }

    /// Every chain against its own serial `Iterator::sum`, bit for bit (any
    /// NaN matches any NaN), for 0 to 19 chains of length 0 to 37: random
    /// values with `±0`, NaN, `±inf`, subnormals, and all-`-0` products.
    #[test]
    fn product_sums_are_each_chains_iterator_sum() {
        let value = |i: usize, k: usize, salt: usize| match (i * 31 + k * 7 + salt) % 23 {
            0 => -0.0,
            1 => 0.0,
            5 => f32::NAN,
            9 => f32::INFINITY,
            13 => f32::NEG_INFINITY,
            17 => 1e-42,
            m => ((m * 37 + i + k) as f32 * 0.613).sin() * 3.0,
        };
        for n in 0..20 {
            for len in [0, 1, 2, 7, 8, 9, 31, 37] {
                for all_negative_zero in [false, true] {
                    let (a, b): (Vec<Vec<f32>>, Vec<Vec<f32>>) = (0..n)
                        .map(|i| {
                            let row = |salt| {
                                (0..len)
                                    .map(|k| {
                                        if all_negative_zero {
                                            if salt == 0 {
                                                -0.0
                                            } else {
                                                1.5
                                            }
                                        } else {
                                            value(i, k, salt)
                                        }
                                    })
                                    .collect::<Vec<f32>>()
                            };
                            (row(0), row(3))
                        })
                        .unzip();
                    let mut got = vec![f32::NAN; n];
                    product_sums(&mut got, |i| (&a[i], &b[i]));
                    for i in 0..n {
                        let want: f32 = a[i].iter().zip(&b[i]).map(|(x, y)| x * y).sum();
                        let ok = got[i].to_bits() == want.to_bits()
                            || (got[i].is_nan() && want.is_nan());
                        assert!(ok, "{n} chains of {len}, [{i}]: {:e} vs {want:e}", got[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn madd_types_are_the_flavours_madd() {
        let vals = [0.0f32, -0.0, 1.5, -2.25, 1e-40, 3.0e38, f32::INFINITY, f32::NAN];
        for &a in &vals {
            for &x in &vals {
                for &acc in &vals {
                    let same =
                        |p: f32, q: f32| p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan());
                    assert!(same(Fused::madd(a, x, acc), Flavour::Vector.madd(a, x, acc)));
                    assert!(same(Plain::madd(a, x, acc), Flavour::Reference.madd(a, x, acc)));
                }
            }
        }
    }
}
