//! Library surface of the workspace `xtask` tool.
//!
//! The binary (`src/main.rs`) is the CLI; the modules live here so
//! integration tests can drive the lints and the perf gate as plain
//! functions instead of subprocess round-trips.

#![forbid(unsafe_code)]

pub mod lints;
pub mod perf;
