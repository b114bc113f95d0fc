//! # sane-autodiff
//!
//! Dense `f32` tensors and tape-based reverse-mode automatic differentiation,
//! built from scratch as the numerical substrate for the SANE reproduction
//! (Zhao, Yao & Tu, *Search to Aggregate NEighborhood for Graph Neural
//! Network*, ICDE 2021).
//!
//! The engine is deliberately small and auditable:
//!
//! * [`Matrix`] — row-major dense matrix with parallel blocked GEMM.
//! * [`Csr`] — sparse operator for neighborhood aggregation (`A_norm · H`),
//!   and the sparse view through which [`Tape::matmul`] skips the zeros of
//!   a mostly-zero left operand.
//! * [`Tape`] / [`VarStore`] — define-by-run Wengert list; every op computes
//!   its value eagerly and stores whatever its backward pass needs.
//! * Graph-specific ops — [`Tape::gather_rows`], segment reductions and
//!   [`Tape::segment_softmax`] implement message passing and graph attention
//!   without ever materialising dense `N x N` matrices.
//! * [`optim`] — SGD and Adam with decoupled weight decay.
//! * [`gradcheck`] — finite-difference verification used by the test suite.
//! * [`audit`] — static tape analysis: arity and shape checking against
//!   each op's declared arity and shape rule, dead-compute and
//!   dead-parameter detection, gradient-accumulation accounting and
//!   NaN/inf provenance.
//! * [`parallel`] — the one threading policy every dense/sparse/segment
//!   kernel partitions through (`SANE_NUM_THREADS` to override).
//! * [`simd`] — pinned-reduction-order vectorized inner loops (8 fixed
//!   `mul_add` lanes, fixed combine tree) with scalar reference paths
//!   (`SANE_FORCE_SCALAR=1` or [`simd::with_scalar`] to select them).
//! * [`pool`] — thread-local buffer pool; tape values and gradients are
//!   recycled across steps so steady-state training allocates nothing.
//!
//! ## Example
//!
//! ```
//! use sane_autodiff::{Matrix, Tape, VarStore, optim::Adam};
//!
//! let mut store = VarStore::new();
//! let w = store.add("w", Matrix::scalar(0.0));
//! let mut opt = Adam::new(0.1, 0.0);
//! for _ in 0..100 {
//!     let mut tape = Tape::new(0);
//!     let x = tape.param(&store, w);
//!     let target = tape.scalar(2.0);
//!     let diff = tape.sub(x, target);
//!     let loss = tape.mul(diff, diff);
//!     let grads = tape.backward(loss);
//!     opt.step(&mut store, &grads);
//! }
//! assert!((store.value(w).as_scalar() - 2.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

mod fold;
mod matrix;
mod sparse;
mod tape;

pub mod audit;
pub mod equivalence;
pub mod gradcheck;
pub mod metrics;
pub mod optim;
pub mod parallel;
pub mod pool;
pub mod simd;

/// Differentiable operations recorded on a [`Tape`].
pub mod ops {
    pub(crate) mod elementwise;
    pub(crate) mod graphops;
    pub(crate) mod linalg;
    pub(crate) mod loss;

    pub use graphops::{EdgeIndex, Segments};
}

pub use audit::{Arity, FanStats, Finding, FindingKind, Severity, TapeReport};
pub use matrix::Matrix;
pub use ops::{EdgeIndex, Segments};
pub use pool::PoolStats;
pub use sparse::Csr;
pub use tape::{glorot_init, uniform_init, Gradients, ParamId, Tape, Tensor, VarStore};
