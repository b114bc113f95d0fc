//! # sane-gnn
//!
//! The GNN model zoo of the SANE (ICDE 2021) reproduction: all 11 node
//! aggregators of the search space `O_n` (Table I / XI), the three layer
//! aggregators of `O_l`, the skip ops of `O_s`, and the discrete
//! [`GnnModel`] that both implements the human-designed baselines of
//! Table VI and retrains architectures derived by the search.
//!
//! Everything is built on the `sane-autodiff` tape, so models are assembled
//! per-forward-pass from parameters held in a
//! [`VarStore`](sane_autodiff::VarStore).

#![forbid(unsafe_code)]

pub mod agg;
mod context;
mod graph_model;
mod layer_agg;
mod model;
mod pooling;

pub use agg::{build_aggregator, Linear, NodeAggKind, NodeAggregator};
pub use context::GraphContext;
pub use graph_model::GraphClsModel;
pub use layer_agg::{LayerAggKind, LayerAggregator, SkipOp};
pub use model::{Activation, AggChoice, Architecture, GnnModel, ModelHyper};
pub use pooling::{GraphPooling, PoolingKind};
