//! Search algorithms: the SANE differentiable search and every NAS
//! baseline the paper compares against.

pub mod darts;
pub mod determinism;
pub mod evolution;
pub mod graphnas;
pub mod oracle;
pub mod random;
pub mod reinforce;
pub mod tpe;
pub mod trace;
pub mod ws;

pub use darts::{sane_search, SaneSearchConfig, SaneSearchOutput};
pub use determinism::{search_step_fingerprint, StepFingerprint};
pub use evolution::{evolution_search, EvolutionConfig};
pub use graphnas::{train_graphnas_spec, GraphNasModel, GraphNasSharedPool};
pub use oracle::GenomeOracle;
pub use random::{random_search, RandomSearchConfig};
pub use reinforce::{reinforce_search, Controller, ReinforceConfig};
pub use tpe::{tpe_search, TpeConfig};
pub use trace::{SearchTrace, TracePoint};
pub use ws::WsEvaluator;
