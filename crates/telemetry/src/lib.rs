//! # sane-telemetry
//!
//! Structured spans, metrics and search-trace recording for the SANE
//! workspace — zero external dependencies.
//!
//! ## Model
//!
//! A run installs a [`Recorder`] on its thread; until the returned
//! [`RecorderGuard`] drops, every span, event and metric from that thread
//! streams to the recorder's sinks:
//!
//! * a JSONL sink (`results/TRACE_<run>.jsonl`) recording every line for
//!   `cargo xtask trace-report` and offline analysis,
//! * a console sink printing one-line human renderings to stderr, filtered
//!   by the `SANE_LOG` environment variable (`error|warn|info|debug|trace`
//!   or `off`; default `warn`),
//! * an in-memory sink for tests.
//!
//! With **no** recorder installed, events still reach stderr when
//! `SANE_LOG` admits them (default: warnings and errors), so library
//! warnings are never lost; spans and metrics become no-ops.
//!
//! ## Cross-thread recording
//!
//! One run's state is shared: the owning thread captures a `Send + Sync`
//! [`RecorderHandle`] with [`handle`], and worker threads
//! [`attach`](RecorderHandle::attach) it for a scope. Attached workers
//! emit spans/events/samples into the same trace — records carry a
//! `thread` field and worker root spans parent to the owner's span at
//! capture time — while their metrics buffer thread-locally and merge on
//! detach. See the recorder module docs for the full model.
//!
//! ## Span convention
//!
//! Spans nest `search → epoch → {arch_step, weight_step} → kernel`, named
//! with the subsystem as prefix (`search`, `search.epoch`,
//! `search.arch_step`, `train.epoch`, …). Timings are monotonic
//! (`std::time::Instant`) and reported in nanoseconds.
//!
//! ## Record schema (one JSON object per line)
//!
//! | `kind`       | extra fields                                            |
//! |--------------|---------------------------------------------------------|
//! | `run_start`  | `run`                                                   |
//! | `span_open`  | `id`, `name`, `parent?`, `fields?`                      |
//! | `span_close` | `id`, `name`, `elapsed_ns`                              |
//! | `event`      | `name`, `span?`, `fields` (event payload)               |
//! | `metrics`    | `counters`, `gauges`, `summaries`, `hists` (cumulative) |
//! | `run_end`    | `elapsed_ns`, `open_spans`                              |
//!
//! Every record carries `t_ns` (monotone nanoseconds since install —
//! also across attached workers: stamps are taken inside the writer
//! lock) and `level`; records from attached workers additionally carry
//! `thread`. `hists` entries expose `p50`/`p90`/`p99` quantiles and raw
//! log-scale buckets for every latency stream.
//!
//! ## Reading a trace
//!
//! [`trace::read`] parses and validates a trace once into typed
//! [`trace::Record`]s — strictly, including that a `span_open`'s `parent`
//! refers to a span that is open at that point in the trace — and a
//! `metrics` record back into a [`MetricSet`]. The summary
//! ([`trace::TraceSummary`]), the profile ([`profile::Profile`]) and the
//! search dashboard ([`report::Dashboard`]) are folds over those records.

#![forbid(unsafe_code)]

mod level;
mod metrics;
pub mod profile;
mod recorder;
pub mod report;
mod sink;
pub mod trace;
mod value;

pub use level::Level;
pub use metrics::{Histogram, MetricSet, Summary, QUANTILE_REL_ERROR};
pub use recorder::{
    active, counter_add, enabled, event, flush_metrics, gauge_max, gauge_set, handle,
    kernel_sample, kernel_timing_enabled, phase_span, phase_span_with, record, record_latency,
    span, span_with, Recorder, RecorderGuard, RecorderHandle, SpanGuard, WorkerGuard,
};
pub use sink::MemoryBuffer;
pub use value::Value;

/// Emits an error event: the run's output is suspect.
pub fn error(name: &'static str, fields: &[(&'static str, Value)]) {
    event(Level::Error, name, fields);
}

/// Emits a warning event.
pub fn warn(name: &'static str, fields: &[(&'static str, Value)]) {
    event(Level::Warn, name, fields);
}

/// Emits an info event (per-epoch progress).
pub fn info(name: &'static str, fields: &[(&'static str, Value)]) {
    event(Level::Info, name, fields);
}

/// Emits a debug event (per-step detail).
pub fn debug(name: &'static str, fields: &[(&'static str, Value)]) {
    event(Level::Debug, name, fields);
}
