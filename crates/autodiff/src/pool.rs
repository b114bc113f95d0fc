//! Thread-local buffer pool recycling tape value and gradient allocations.
//!
//! The training and search loops in `sane-core` build a fresh [`crate::Tape`]
//! every step, so every intermediate value and every gradient matrix used to
//! be a `vec![0.0; n]` that lived for one step and hit the allocator twice.
//! This pool intercepts that churn: kernels draw their output buffers from
//! per-size free lists via [`zeros`] / [`clone_of`], and buffers flow back via
//! [`put`] at the points where the engine can prove a matrix is dead — tape
//! teardown (`Drop for Tape`), gradient consumption inside the tape's one
//! reverse sweep, and `Gradients::recycle` after an optimiser step. In
//! steady state a training step allocates nothing for tape buffers, provided
//! every per-step buffer is drawn from here: a buffer allocated elsewhere
//! still comes back at tape teardown, so its size class gains one buffer
//! that no request takes out, and the pool grows every step.
//!
//! The pool is **thread-local** on purpose: only the thread driving the tape
//! ever allocates (kernel worker threads write into pre-split `&mut [f32]`
//! chunks of a buffer the caller already owns — see [`crate::parallel`]), so
//! a thread-local free list needs no locks and keeps test processes, which
//! run tests on many threads, from sharing state. Everything here is safe
//! code; returning a buffer is always optional, and a matrix that escapes
//! (e.g. a value kept by the caller) simply never comes back.
//!
//! Size classes are exact lengths. Training shapes are stable across steps
//! (same graph, same layer widths), so exact-length reuse hits nearly 100%
//! after the first step without any rounding waste.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

use crate::matrix::Matrix;

/// Per-size-class cap on pooled buffers. The fully-mixed supernet forward
/// holds hundreds of live `n x hidden` matrices on one tape (every
/// aggregator of every layer), and all of them come back at tape teardown,
/// so the cap must cover a whole step's worth of one shape or steady-state
/// steps keep allocating. Memory is bounded by [`MAX_POOLED_FLOATS`], not
/// this count; the class cap only guards degenerate many-tiny-shapes churn.
const MAX_BUFFERS_PER_CLASS: usize = 512;

/// Cap on total pooled floats (64 Mi floats = 256 MiB). Beyond this the
/// pool drops returned buffers instead of growing without bound.
const MAX_POOLED_FLOATS: usize = 64 << 20;

/// Snapshot of the calling thread's pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Buffer requests served from the free lists.
    pub hits: u64,
    /// Buffer requests that had to allocate.
    pub misses: u64,
    /// Buffers accepted back into the free lists.
    pub recycled: u64,
    /// Buffers offered back but dropped (class full or float cap hit).
    pub dropped: u64,
    /// Buffers currently held in the free lists.
    pub buffers: usize,
    /// Total floats currently held in the free lists.
    pub floats: usize,
}

impl PoolStats {
    /// Fraction of buffer requests served without allocating.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Internal bookkeeping invariant: every buffer held by the pool
    /// arrived through a recycle and leaves through a hit, so the live
    /// buffer count must equal `recycled - hits` exactly. A violation
    /// means a buffer leaked into or double-counted in the free lists —
    /// the cross-thread failure mode the pool's thread-locality exists to
    /// prevent. Checked by the parallel worker tests and cheap enough to
    /// assert anywhere.
    pub fn consistent(&self) -> bool {
        self.recycled >= self.hits && self.buffers as u64 == self.recycled - self.hits
    }

    /// Activity since an `earlier` snapshot: the counters become deltas,
    /// while `buffers`/`floats` stay absolute (they describe what the pool
    /// holds *now*, not what happened in between). This is how
    /// [`crate::audit::TapeReport`] scopes pool stats to one tape instead
    /// of accumulating them across a whole run.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            recycled: self.recycled.saturating_sub(earlier.recycled),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            buffers: self.buffers,
            floats: self.floats,
        }
    }
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {} pooled buffers ({:.1} MiB), \
             {} recycled, {} dropped",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.buffers,
            self.floats as f64 * 4.0 / (1024.0 * 1024.0),
            self.recycled,
            self.dropped,
        )
    }
}

#[derive(Default)]
struct Pool {
    /// Free lists keyed by exact buffer length.
    classes: BTreeMap<usize, Vec<Vec<f32>>>,
    floats: usize,
    buffers: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
    dropped: u64,
}

impl Pool {
    /// A buffer of exactly `len` floats with unspecified contents; the
    /// caller must overwrite every element or zero it.
    fn take(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        match self.classes.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                self.hits += 1;
                self.buffers -= 1;
                self.floats -= len;
                buf
            }
            None => {
                self.misses += 1;
                vec![0.0; len]
            }
        }
    }

    fn put(&mut self, buf: Vec<f32>) {
        let len = buf.len();
        if len == 0 {
            return;
        }
        if self.floats + len > MAX_POOLED_FLOATS {
            self.dropped += 1;
            return;
        }
        let class = self.classes.entry(len).or_default();
        if class.len() >= MAX_BUFFERS_PER_CLASS {
            self.dropped += 1;
            return;
        }
        class.push(buf);
        self.buffers += 1;
        self.floats += len;
        self.recycled += 1;
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// An all-zeros `rows x cols` matrix drawn from this thread's pool.
pub(crate) fn zeros(rows: usize, cols: usize) -> Matrix {
    let mut buf = POOL.with(|p| p.borrow_mut().take(rows * cols));
    buf.fill(0.0);
    Matrix::from_vec(rows, cols, buf)
}

/// A `rows x cols` matrix with *unspecified contents* for overwrite-only
/// kernels, drawn from this thread's pool.
///
/// Skipping the `fill(0.0)` of [`zeros`] matters on wide buffers that are
/// about to be fully overwritten anyway (gather outputs, broadcast-style
/// backward planes): the memset is pure memory traffic. The caller must
/// write **every** element before any element is read — a partial write
/// would expose stale floats from a recycled buffer, which is exactly the
/// kind of history-dependent state the determinism contract forbids. Debug
/// builds poison the buffer with NaN so a read-before-write (or a row left
/// unwritten) surfaces as NaN in the test suites instead of silently
/// reading recycled data; release builds skip the fill entirely.
pub(crate) fn scratch(rows: usize, cols: usize) -> Matrix {
    let mut buf = POOL.with(|p| p.borrow_mut().take(rows * cols));
    if cfg!(debug_assertions) {
        buf.fill(f32::NAN);
    }
    Matrix::from_vec(rows, cols, buf)
}

/// A `rows x cols` matrix filled with `value`, drawn from this thread's pool.
pub(crate) fn full(rows: usize, cols: usize, value: f32) -> Matrix {
    let mut buf = POOL.with(|p| p.borrow_mut().take(rows * cols));
    buf.fill(value);
    Matrix::from_vec(rows, cols, buf)
}

/// A pooled copy of `m`.
pub(crate) fn clone_of(m: &Matrix) -> Matrix {
    let mut buf = POOL.with(|p| p.borrow_mut().take(m.len()));
    buf.copy_from_slice(m.data());
    Matrix::from_vec(m.rows(), m.cols(), buf)
}

/// Returns a dead matrix's buffer to this thread's pool.
///
/// Always safe to skip: a buffer that never comes back is ordinary garbage.
pub(crate) fn put(m: Matrix) {
    POOL.with(|p| p.borrow_mut().put(m.into_vec()));
}

/// Counters for the calling thread's pool.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            hits: p.hits,
            misses: p.misses,
            recycled: p.recycled,
            dropped: p.dropped,
            buffers: p.buffers,
            floats: p.floats,
        }
    })
}

/// Empties the calling thread's pool and zeroes its counters.
///
/// Benchmarks and tests call this between scenarios so hit rates and
/// steady-state allocation counts are attributable to one workload.
pub fn reset() {
    POOL.with(|p| *p.borrow_mut() = Pool::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_the_allocation() {
        reset();
        let a = zeros(4, 3);
        assert_eq!(stats().misses, 1);
        put(a);
        assert_eq!(stats().recycled, 1);
        let b = zeros(4, 3);
        assert_eq!(stats().hits, 1, "same-size request must reuse the buffer");
        assert!(b.data().iter().all(|&v| v == 0.0), "pooled zeros must be zeroed");
        put(b);
        reset();
    }

    #[test]
    fn scratch_reuses_without_zeroing_and_poisons_in_debug() {
        reset();
        let mut a = zeros(4, 3);
        a.data_mut().fill(3.25);
        put(a);
        let b = scratch(4, 3);
        assert_eq!(stats().hits, 1, "scratch must draw from the free list");
        if cfg!(debug_assertions) {
            assert!(
                b.data().iter().all(|v| v.is_nan()),
                "debug scratch must be NaN-poisoned, not stale"
            );
        }
        put(b);
        reset();
    }

    #[test]
    fn clone_of_copies_and_full_fills() {
        reset();
        let src = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let c = clone_of(&src);
        assert_eq!(c, src);
        put(c);
        let f = full(2, 2, 7.5);
        assert_eq!(stats().hits, 1);
        assert!(f.data().iter().all(|&v| v == 7.5), "recycled buffer must be refilled");
        reset();
    }

    #[test]
    fn class_cap_drops_excess_buffers() {
        reset();
        for _ in 0..MAX_BUFFERS_PER_CLASS + 3 {
            put(Matrix::zeros(2, 2));
        }
        let s = stats();
        assert_eq!(s.recycled as usize, MAX_BUFFERS_PER_CLASS);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.buffers, MAX_BUFFERS_PER_CLASS);
        reset();
    }

    #[test]
    fn zero_len_buffers_bypass_the_pool() {
        reset();
        let e = zeros(0, 5);
        assert_eq!(e.len(), 0);
        put(e);
        assert_eq!(stats(), PoolStats::default());
        reset();
    }
}
