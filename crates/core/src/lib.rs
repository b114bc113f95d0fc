//! # sane-core
//!
//! SANE — *Search to Aggregate NEighborhood* (Zhao, Yao & Tu, ICDE 2021):
//! differentiable neural architecture search for graph neural networks,
//! reproduced in Rust.
//!
//! The crate provides:
//!
//! * [`space`] — the SANE search space (Table I; `11^K · 2^K · 3`
//!   architectures), plus the GraphNAS-style space of Table IX and the
//!   MLP-aggregator space of Table X, all behind one categorical encoding.
//! * [`supernet`] — the continuous relaxation of Eq. (2)–(5): every
//!   candidate op instantiated once, mixed by softmaxed `α` parameters.
//! * [`search`] — Algorithm 1 (first-order bi-level gradient descent) with
//!   the ε-random-explore ablation, and the baselines: Random, Bayesian
//!   (TPE), GraphNAS (REINFORCE) with and without weight sharing.
//! * [`train`] — shared training / evaluation loops for transductive and
//!   inductive tasks.
//! * [`hyper`] — the post-search hyper-parameter fine-tuning stage
//!   (hyperopt stand-in, Table XII).
//!
//! ## Quick start
//!
//! ```
//! use sane_core::prelude::*;
//! use sane_data::CitationConfig;
//!
//! // A small synthetic citation graph and a short search budget so the
//! // example runs in seconds; scale both up for real experiments.
//! let task = Task::node(CitationConfig::cora().scaled(0.02).generate());
//! let cfg = SaneSearchConfig {
//!     supernet: SupernetConfig { k: 2, hidden: 8, ..Default::default() },
//!     epochs: 5,
//!     ..Default::default()
//! };
//! let result = sane_search(&task, &cfg);
//! println!("searched architecture: {}", result.arch.describe());
//! ```

#![forbid(unsafe_code)]

pub mod graphcls;
pub mod hyper;
mod obs;
pub mod search;
pub mod space;
pub mod supernet;
pub mod train;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::hyper::{fine_tune, FineTuneConfig};
    pub use crate::search::{
        evolution_search, random_search, reinforce_search, sane_search, tpe_search,
        EvolutionConfig, GenomeOracle, RandomSearchConfig, ReinforceConfig, SaneSearchConfig,
        SearchTrace, TpeConfig, WsEvaluator,
    };
    pub use crate::space::{CategoricalSpace, GraphNasSpace, MlpSpace, SaneSpace};
    pub use crate::supernet::{SampledPath, Supernet, SupernetConfig};
    pub use crate::train::{
        repeated_test_metrics, train_architecture, Task, TrainConfig, TrainOutcome,
    };
    pub use sane_gnn::{Architecture, LayerAggKind, ModelHyper, NodeAggKind, SkipOp};
}
