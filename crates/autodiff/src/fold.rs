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
