//! The run recorder: hierarchical spans, metrics and trace records.
//!
//! A [`Recorder`] is built, given sinks, then **installed** on the current
//! thread. Every telemetry call from that thread — spans, events, counters,
//! the kernel-timing hooks inside `sane_autodiff` — reports to the
//! installed recorder until its [`RecorderGuard`] drops, which flushes the
//! metrics registry, closes the trace with a `run_end` record and restores
//! whatever recorder (usually none) was active before.
//!
//! ## Cross-thread model
//!
//! The recorder is installed **per thread**, but one run's state is
//! shared: the owning thread holds the [`RecorderGuard`], and any other
//! thread may join the same run for a scope by attaching a
//! [`RecorderHandle`] (obtained with [`handle`] on the owning thread,
//! `Send + Sync`). Attached workers get their own span/phase stacks and a
//! private metrics buffer — the hot [`kernel_sample`] path stays one
//! thread-local access with no lock — while trace records from every
//! thread funnel through one serialising writer lock. Timestamps are
//! taken *inside* that lock, so `t_ns` is non-decreasing in file order
//! and the strict validator's monotonicity check holds for multi-thread
//! traces. Worker records carry a `thread` field; worker root spans
//! parent to the span that was innermost on the owning thread when the
//! handle was captured, so per-trial span trees land in the owning run's
//! trace with correct parent links. A worker's buffered metrics merge
//! into the run's registry when its [`WorkerGuard`] detaches.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::level::{env_console_level, Level};
use crate::metrics::MetricSet;
use crate::sink::{ConsoleSink, JsonlSink, MemoryBuffer, MemorySink, Rendered, Sink};
use crate::value::Value;

/// State shared by every thread reporting into one run.
struct Shared {
    run: String,
    start: Instant,
    /// Most detailed level any sink accepts; records above it skip
    /// rendering entirely.
    max_level: Level,
    kernel_timing: bool,
    /// Span ids are allocated here so they are unique across threads.
    next_span_id: AtomicU64,
    /// The sink set. The lock serialises record writes across threads;
    /// timestamps are taken while holding it (see module docs).
    out: Mutex<Vec<Box<dyn Sink>>>,
    /// Metrics merged from detached workers and drained thread buffers.
    merged: Mutex<MetricSet>,
    /// Currently attached worker scopes (leak detection at run end).
    attached: AtomicUsize,
    /// One `telemetry.bad_sample` warning per run.
    warned_bad_sample: AtomicBool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-thread view of a run: the owning thread's, or one attached
/// worker's. Span and phase stacks are thread-private; `local` buffers
/// metrics until a flush or detach drains them into `Shared::merged`.
struct Inner {
    shared: Arc<Shared>,
    /// Worker label stamped on this thread's records (`None` on the
    /// owning thread).
    thread: Option<String>,
    /// Parent for this thread's root spans: the owning thread's innermost
    /// span at [`handle`] time (`None` on the owning thread).
    parent: Option<u64>,
    span_stack: Vec<u64>,
    /// Innermost-last stack of phase tags from [`phase_span`] guards;
    /// kernel samples are attributed to the top entry.
    phase_stack: Vec<&'static str>,
    local: MetricSet,
}

thread_local! {
    static ACTIVE: RefCell<Option<Rc<RefCell<Inner>>>> = const { RefCell::new(None) };
}

/// Builder for a run recorder. See the module docs for the lifecycle.
pub struct Recorder {
    run: String,
    sinks: Vec<Box<dyn Sink>>,
    max_level: Level,
    kernel_timing: bool,
}

impl Recorder {
    /// A recorder for a run named `run` with no sinks yet.
    pub fn new(run: &str) -> Self {
        Self {
            run: run.to_string(),
            sinks: Vec::new(),
            max_level: Level::Error,
            kernel_timing: true,
        }
    }

    fn add_sink(mut self, sink: Box<dyn Sink>) -> Self {
        self.max_level = self.max_level.max(sink.level());
        self.sinks.push(sink);
        self
    }

    /// Streams every record as a JSON line to `path` (created/truncated;
    /// parent directories are created as needed).
    pub fn with_jsonl(self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(self.add_sink(Box::new(JsonlSink::create(path.as_ref(), Level::Trace)?)))
    }

    /// Adds a human console sink on stderr at `level`.
    pub fn with_console(self, level: Level) -> Self {
        self.add_sink(Box::new(ConsoleSink::new(level)))
    }

    /// Adds a console sink at the level `SANE_LOG` requests (default:
    /// warnings and errors; `SANE_LOG=off` adds no sink).
    pub fn with_console_env(self) -> Self {
        match env_console_level() {
            Some(level) => self.with_console(level),
            None => self,
        }
    }

    /// Collects JSON lines into `buf` (tests).
    pub fn with_memory(self, buf: MemoryBuffer) -> Self {
        self.add_sink(Box::new(MemorySink::new(buf, Level::Trace)))
    }

    /// Whether the `sane_autodiff::parallel` kernel hooks sample timings
    /// into this recorder's metrics (default: on).
    pub fn with_kernel_timing(mut self, on: bool) -> Self {
        self.kernel_timing = on;
        self
    }

    /// Installs the recorder on the current thread and emits `run_start`.
    ///
    /// The clock starts here rather than at `new` so setup (file
    /// creation, dataset generation between build and install) is not
    /// charged to the run.
    pub fn install(self) -> RecorderGuard {
        let shared = Arc::new(Shared {
            run: self.run,
            start: Instant::now(),
            max_level: self.max_level,
            kernel_timing: self.kernel_timing,
            next_span_id: AtomicU64::new(0),
            out: Mutex::new(self.sinks),
            merged: Mutex::new(MetricSet::default()),
            attached: AtomicUsize::new(0),
            warned_bad_sample: AtomicBool::new(false),
        });
        let run = Value::Str(shared.run.clone());
        let pretty = format!("run_start {}", shared.run);
        emit_record(&shared, None, Level::Info, "run_start", vec![("run".into(), run)], &pretty);
        let mine = Rc::new(RefCell::new(Inner {
            shared,
            thread: None,
            parent: None,
            span_stack: Vec::new(),
            phase_stack: Vec::new(),
            local: MetricSet::default(),
        }));
        let prev = ACTIVE.with(|a| a.borrow_mut().replace(Rc::clone(&mine)));
        RecorderGuard { prev, mine }
    }
}

/// Uninstalls and finalises the recorder when dropped.
pub struct RecorderGuard {
    prev: Option<Rc<RefCell<Inner>>>,
    mine: Rc<RefCell<Inner>>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        let leaked;
        {
            let mut inner = self.mine.borrow_mut();
            // Workers still attached at run end would lose their buffered
            // samples (they merge on detach, which now cannot land in the
            // final metrics record): warn in the trace, then fail loudly
            // in debug builds once the record stream is safely closed.
            leaked = inner.shared.attached.load(Ordering::Acquire);
            if leaked > 0 {
                let fields = vec![
                    ("name".to_string(), Value::Str("telemetry.leaked_worker".to_string())),
                    (
                        "fields".to_string(),
                        Value::Obj(vec![("attached".to_string(), Value::UInt(leaked as u64))]),
                    ),
                ];
                let pretty = format!("telemetry.leaked_worker attached={leaked}");
                emit_record(&inner.shared, None, Level::Warn, "event", fields, &pretty);
            }
            flush_metrics_inner(&mut inner);
            let elapsed = inner.shared.start.elapsed().as_nanos() as u64;
            let open_spans = inner.span_stack.len();
            let pretty = format!("run_end ({:.3}s)", elapsed as f64 / 1e9);
            emit_record(
                &inner.shared,
                None,
                Level::Info,
                "run_end",
                vec![
                    ("elapsed_ns".into(), Value::UInt(elapsed)),
                    ("open_spans".into(), Value::UInt(open_spans as u64)),
                ],
                &pretty,
            );
            for sink in lock(&inner.shared.out).iter_mut() {
                sink.flush();
            }
        }
        ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
        debug_assert!(
            leaked == 0,
            "telemetry: {leaked} worker scope(s) still attached at run end — \
             detach every WorkerGuard before dropping the RecorderGuard"
        );
    }
}

/// Cloneable, `Send + Sync` handle to the run installed on the current
/// thread, for worker threads to [`attach`](RecorderHandle::attach) to.
/// Captures the innermost open span at creation time as the parent for
/// the workers' root spans.
#[derive(Clone)]
pub struct RecorderHandle {
    shared: Arc<Shared>,
    parent: Option<u64>,
}

/// The handle to this thread's active run, or `None` without a recorder.
pub fn handle() -> Option<RecorderHandle> {
    with_active(|inner| RecorderHandle {
        shared: Arc::clone(&inner.shared),
        parent: inner.span_stack.last().copied().or(inner.parent),
    })
}

impl RecorderHandle {
    /// Run name this handle reports into.
    pub fn run(&self) -> &str {
        &self.shared.run
    }

    /// Nanoseconds since the run was installed.
    pub fn elapsed_ns(&self) -> u64 {
        self.shared.start.elapsed().as_nanos() as u64
    }

    /// Number of worker scopes currently attached to the run.
    pub fn attached(&self) -> usize {
        self.shared.attached.load(Ordering::Acquire)
    }

    /// Attaches the current thread to the run for the guard's lifetime.
    /// `label` is stamped as the `thread` field on this thread's records.
    /// Spans opened while attached parent to the handle's capture-time
    /// span; metrics buffer locally and merge into the run on detach.
    pub fn attach(&self, label: impl Into<String>) -> WorkerGuard {
        self.shared.attached.fetch_add(1, Ordering::AcqRel);
        let mine = Rc::new(RefCell::new(Inner {
            shared: Arc::clone(&self.shared),
            thread: Some(label.into()),
            parent: self.parent,
            span_stack: Vec::new(),
            phase_stack: Vec::new(),
            local: MetricSet::default(),
        }));
        let prev = ACTIVE.with(|a| a.borrow_mut().replace(Rc::clone(&mine)));
        WorkerGuard { prev, mine }
    }

    /// Drains the calling thread's metric buffer (when it reports into
    /// this run) and returns a clone of the merged registry, a live view
    /// of the run so far. Metrics still buffered on
    /// *other* attached threads appear once those threads detach.
    pub fn merged_metrics(&self) -> MetricSet {
        with_active(|inner| {
            if Arc::ptr_eq(&inner.shared, &self.shared) {
                let local = std::mem::take(&mut inner.local);
                lock(&self.shared.merged).merge(local);
            }
        });
        lock(&self.shared.merged).clone()
    }
}

/// Detaches a worker scope when dropped: merges the thread's buffered
/// metrics into the run and restores the thread's previous recorder
/// state. Must drop on the thread that attached (the guard is `!Send`).
pub struct WorkerGuard {
    prev: Option<Rc<RefCell<Inner>>>,
    mine: Rc<RefCell<Inner>>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let open;
        {
            let mut inner = self.mine.borrow_mut();
            let local = std::mem::take(&mut inner.local);
            lock(&inner.shared.merged).merge(local);
            inner.shared.attached.fetch_sub(1, Ordering::AcqRel);
            open = inner.span_stack.len();
        }
        ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
        debug_assert!(open == 0, "telemetry: worker detached with {open} span(s) still open");
    }
}

/// Open span handle; closing (dropping) it emits the `span_close` record
/// with the span's monotonic elapsed time.
pub struct SpanGuard {
    /// `None` when no recorder was installed at open time.
    id: Option<u64>,
    name: &'static str,
    /// Set when the span carries a phase tag (see [`phase_span`]); popped
    /// from the recorder's phase stack on close.
    phase: Option<&'static str>,
    start: Instant,
    /// `Rc` upstream makes this `!Send` already; the marker documents that
    /// a span must close on the thread that opened it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let elapsed = self.start.elapsed().as_nanos() as u64;
        with_active(|inner| {
            // Defensive: drop order inside one scope is reverse
            // declaration order, so the id is normally on top; anything
            // above it leaked its guard and is closed implicitly.
            while let Some(top) = inner.span_stack.pop() {
                if top == id {
                    break;
                }
            }
            if self.phase.is_some() {
                inner.phase_stack.pop();
            }
            inner.local.record_latency(&format!("span.{}.ns", self.name), elapsed as f64);
            if Level::Debug <= inner.shared.max_level {
                let pretty = format!("<  {} ({:.3} ms)", self.name, elapsed as f64 / 1e6);
                emit_record(
                    &inner.shared,
                    inner.thread.as_deref(),
                    Level::Debug,
                    "span_close",
                    vec![
                        ("id".into(), Value::UInt(id)),
                        ("name".into(), Value::Str(self.name.to_string())),
                        ("elapsed_ns".into(), Value::UInt(elapsed)),
                    ],
                    &pretty,
                );
            }
        });
    }
}

fn with_active<R>(f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
    ACTIVE.with(|a| {
        let active = a.borrow();
        active.as_ref().map(|rc| f(&mut rc.borrow_mut()))
    })
}

/// True when a recorder is installed on this thread.
pub fn active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// True when an event at `level` would reach any sink — the gate callers
/// use before computing expensive payloads (per-epoch validation metrics,
/// alpha snapshots). Falls back to the `SANE_LOG` console level when no
/// recorder is installed.
pub fn enabled(level: Level) -> bool {
    with_active(|inner| level <= inner.shared.max_level)
        .unwrap_or_else(|| env_console_level().is_some_and(|l| level <= l))
}

/// True when kernel-timing hooks should sample (recorder installed with
/// kernel timing on). Called on every hot kernel; one thread-local read.
pub fn kernel_timing_enabled() -> bool {
    with_active(|inner| inner.shared.kernel_timing).unwrap_or(false)
}

fn emit_record(
    shared: &Shared,
    thread: Option<&str>,
    level: Level,
    kind: &str,
    fields: Vec<(String, Value)>,
    pretty: &str,
) {
    if level > shared.max_level {
        return;
    }
    let mut sinks = lock(&shared.out);
    // Timestamp *inside* the writer lock: sink writes are serialised, so
    // file order agrees with stamp order even with attached workers and
    // the validator's t_ns monotonicity check stays strict.
    let t_ns = shared.start.elapsed().as_nanos() as u64;
    let mut obj = vec![
        ("t_ns".to_string(), Value::UInt(t_ns)),
        ("kind".to_string(), Value::Str(kind.to_string())),
        ("level".to_string(), Value::Str(level.as_str().to_string())),
    ];
    if let Some(t) = thread {
        obj.push(("thread".to_string(), Value::Str(t.to_string())));
    }
    obj.extend(fields);
    let json = Value::Obj(obj).to_json();
    let pretty_line = match thread {
        Some(t) => format!("[{:>9.3}s {:<5} {t}] {}", t_ns as f64 / 1e9, level, pretty),
        None => format!("[{:>9.3}s {:<5}] {}", t_ns as f64 / 1e9, level, pretty),
    };
    let rec = Rendered { level, json: &json, pretty: &pretty_line };
    for sink in sinks.iter_mut() {
        if rec.level <= sink.level() {
            sink.write(&rec);
        }
    }
}

/// Renders `name fields...` for console output.
fn pretty_event(name: &str, fields: &[(&'static str, Value)]) -> String {
    let mut out = String::with_capacity(64);
    out.push_str(name);
    for (k, v) in fields {
        let _ = write!(out, " {k}={v}");
    }
    out
}

/// Emits a point event. With no recorder installed, falls back to stderr
/// when `SANE_LOG` (default: warn) admits the level.
pub fn event(level: Level, name: &'static str, fields: &[(&'static str, Value)]) {
    let emitted = with_active(|inner| {
        if level > inner.shared.max_level {
            return;
        }
        let span = inner.span_stack.last().copied().or(inner.parent);
        let mut rec_fields = vec![("name".to_string(), Value::Str(name.to_string()))];
        if let Some(id) = span {
            rec_fields.push(("span".to_string(), Value::UInt(id)));
        }
        rec_fields.push((
            "fields".to_string(),
            Value::Obj(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()),
        ));
        emit_record(
            &inner.shared,
            inner.thread.as_deref(),
            level,
            "event",
            rec_fields,
            &pretty_event(name, fields),
        );
    });
    if emitted.is_none() {
        if let Some(console) = env_console_level() {
            if level <= console {
                let t = process_elapsed();
                eprintln!("[{t:>9.3}s {level:<5}] {}", pretty_event(name, fields));
            }
        }
    }
}

/// Seconds since the first telemetry call in this process (fallback
/// timestamps when no recorder is installed).
fn process_elapsed() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Opens a span. A no-op (returning an inert guard) without a recorder.
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None, &[])
}

/// Opens a span with fields attached to its `span_open` record.
pub fn span_with(name: &'static str, fields: &[(&'static str, Value)]) -> SpanGuard {
    open_span(name, None, fields)
}

/// Opens a **phase-tagged** span: while the guard lives, every
/// [`kernel_sample`] is additionally attributed to `phase` (as a
/// `phase.<phase>.kernel.<name>.ns` summary) and the `span_open` record
/// carries a top-level `phase` field, so the profiler can split kernel
/// time between e.g. the architecture step and the weight step. Phases
/// nest; the innermost tag wins.
pub fn phase_span(name: &'static str, phase: &'static str) -> SpanGuard {
    open_span(name, Some(phase), &[])
}

/// [`phase_span`] with fields attached to the `span_open` record.
pub fn phase_span_with(
    name: &'static str,
    phase: &'static str,
    fields: &[(&'static str, Value)],
) -> SpanGuard {
    open_span(name, Some(phase), fields)
}

fn open_span(
    name: &'static str,
    phase: Option<&'static str>,
    fields: &[(&'static str, Value)],
) -> SpanGuard {
    let id = with_active(|inner| {
        let id = inner.shared.next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = inner.span_stack.last().copied().or(inner.parent);
        inner.span_stack.push(id);
        if let Some(phase) = phase {
            inner.phase_stack.push(phase);
        }
        if Level::Debug <= inner.shared.max_level {
            let mut rec_fields = vec![
                ("id".to_string(), Value::UInt(id)),
                ("name".to_string(), Value::Str(name.to_string())),
            ];
            if let Some(p) = parent {
                rec_fields.push(("parent".to_string(), Value::UInt(p)));
            }
            if let Some(phase) = phase {
                rec_fields.push(("phase".to_string(), Value::Str(phase.to_string())));
            }
            if !fields.is_empty() {
                rec_fields.push((
                    "fields".to_string(),
                    Value::Obj(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()),
                ));
            }
            let pretty = format!(">  {}", pretty_event(name, fields));
            emit_record(
                &inner.shared,
                inner.thread.as_deref(),
                Level::Debug,
                "span_open",
                rec_fields,
                &pretty,
            );
        }
        id
    });
    // The guard only pops the phase stack when a recorder accepted the
    // push, which `id.is_some()` captures exactly.
    let phase = if id.is_some() { phase } else { None };
    SpanGuard { id, name, phase, start: Instant::now(), _not_send: std::marker::PhantomData }
}

pub fn counter_add(name: &str, delta: u64) {
    with_active(|inner| inner.local.counter_add(name, delta));
}

pub fn gauge_set(name: &str, v: f64) {
    with_active(|inner| inner.local.gauge_set(name, v));
}

pub fn gauge_max(name: &str, v: f64) {
    with_active(|inner| inner.local.gauge_max(name, v));
}

/// Warns (once per run) that a NaN/negative sample was dropped from
/// `stream`. Called with the thread's `Inner` already borrowed, so it
/// must emit through `emit_record` directly, not `event`.
fn warn_bad_sample(inner: &Inner, stream: &str) {
    if inner.shared.warned_bad_sample.swap(true, Ordering::Relaxed) {
        return;
    }
    let fields = vec![
        ("name".to_string(), Value::Str("telemetry.bad_sample".to_string())),
        (
            "fields".to_string(),
            Value::Obj(vec![("stream".to_string(), Value::Str(stream.to_string()))]),
        ),
    ];
    let pretty = format!("telemetry.bad_sample stream={stream}");
    emit_record(&inner.shared, inner.thread.as_deref(), Level::Warn, "event", fields, &pretty);
}

/// Records one sample into a named summary (timings, sizes). NaN or
/// negative samples are dropped (counted in the summary's `dropped`
/// field) with one warning per run.
pub fn record(name: &str, v: f64) {
    with_active(|inner| {
        if !inner.local.record(name, v) {
            warn_bad_sample(inner, name);
        }
    });
}

/// Records one latency sample into both the summary and the histogram of
/// `name`, so flushed metrics carry p50/p90/p99 for the stream.
pub fn record_latency(name: &str, v: f64) {
    with_active(|inner| {
        if !inner.local.record_latency(name, v) {
            warn_bad_sample(inner, name);
        }
    });
}

/// Records one kernel invocation of `kernel` that took `ns` nanoseconds.
/// This is the sink side of the hooks in `sane_autodiff::parallel`.
/// Inside a [`phase_span`] the sample is also booked against the
/// innermost phase so the profiler can attribute kernel time per phase.
pub fn kernel_sample(kernel: &'static str, ns: u64) {
    with_active(|inner| {
        inner.local.record_latency(&format!("kernel.{kernel}.ns", kernel = kernel), ns as f64);
        if let Some(phase) = inner.phase_stack.last() {
            inner.local.record_latency(&format!("phase.{phase}.kernel.{kernel}.ns"), ns as f64);
        }
    });
}

fn flush_metrics_inner(inner: &mut Inner) {
    let local = std::mem::take(&mut inner.local);
    let fields;
    let pretty;
    {
        let mut merged = lock(&inner.shared.merged);
        merged.merge(local);
        if merged.is_empty() {
            return;
        }
        fields = merged.to_fields();
        pretty = format!(
            "metrics: {} counter(s), {} gauge(s), {} summarie(s), {} histogram(s)",
            merged.counters().len(),
            merged.gauges().len(),
            merged.summaries().len(),
            merged.hists().len(),
        );
        // Release the registry lock before taking the writer lock so the
        // recorder only ever holds one lock at a time.
    }
    emit_record(&inner.shared, inner.thread.as_deref(), Level::Info, "metrics", fields, &pretty);
}

/// Writes the current metrics registry as one `metrics` record, after
/// draining this thread's buffer into the run's merged registry.
/// Cumulative: flushing twice emits two snapshots; readers take the last.
/// Samples still buffered on other attached threads join the registry
/// when those workers detach.
pub fn flush_metrics() {
    with_active(flush_metrics_inner);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemoryBuffer;

    fn memory_recorder(run: &str) -> (RecorderGuard, MemoryBuffer) {
        let buf = MemoryBuffer::default();
        let guard = Recorder::new(run).with_memory(buf.clone()).install();
        (guard, buf)
    }

    fn lines_of(buf: &MemoryBuffer) -> Vec<Value> {
        buf.borrow().lines().map(|l| Value::parse(l).expect("every trace line parses")).collect()
    }

    #[test]
    fn run_lifecycle_brackets_the_trace() {
        let (guard, buf) = memory_recorder("unit");
        event(Level::Info, "hello", &[("x", Value::Int(1))]);
        drop(guard);
        let lines = lines_of(&buf);
        assert_eq!(lines[0].get("kind").and_then(Value::as_str), Some("run_start"));
        assert_eq!(lines[0].get("run").and_then(Value::as_str), Some("unit"));
        assert_eq!(lines[1].get("kind").and_then(Value::as_str), Some("event"));
        let last = lines.last().expect("run_end");
        assert_eq!(last.get("kind").and_then(Value::as_str), Some("run_end"));
        assert_eq!(last.get("open_spans").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn spans_nest_and_time_monotonically() {
        let (guard, buf) = memory_recorder("spans");
        {
            let _outer = span("outer");
            let _inner = span_with("inner", &[("epoch", Value::Int(0))]);
            event(Level::Info, "inside", &[]);
        }
        drop(guard);
        let lines = lines_of(&buf);
        let opens: Vec<&Value> = lines
            .iter()
            .filter(|l| l.get("kind").and_then(Value::as_str) == Some("span_open"))
            .collect();
        assert_eq!(opens.len(), 2);
        assert_eq!(opens[1].get("parent"), opens[0].get("id"));
        // The event inside carries the innermost span id.
        let ev = lines
            .iter()
            .find(|l| l.get("kind").and_then(Value::as_str) == Some("event"))
            .expect("event");
        assert_eq!(ev.get("span"), opens[1].get("id"));
        // Inner closes before outer; both carry elapsed_ns.
        let closes: Vec<&Value> = lines
            .iter()
            .filter(|l| l.get("kind").and_then(Value::as_str) == Some("span_close"))
            .collect();
        assert_eq!(closes.len(), 2);
        assert_eq!(closes[0].get("name").and_then(Value::as_str), Some("inner"));
        assert!(closes.iter().all(|c| c.get("elapsed_ns").and_then(Value::as_u64).is_some()));
        // Timestamps never go backwards.
        let stamps: Vec<u64> =
            lines.iter().map(|l| l.get("t_ns").and_then(Value::as_u64).expect("t_ns")).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "t_ns must be monotone: {stamps:?}");
    }

    #[test]
    fn metrics_flush_into_one_record() {
        let (guard, buf) = memory_recorder("metrics");
        counter_add("tapes", 3);
        gauge_set("hit_rate", 0.75);
        kernel_sample("spmm", 1_000);
        kernel_sample("spmm", 3_000);
        flush_metrics();
        drop(guard);
        let lines = lines_of(&buf);
        let m = lines
            .iter()
            .find(|l| l.get("kind").and_then(Value::as_str) == Some("metrics"))
            .expect("metrics record");
        assert_eq!(m.get("counters").and_then(|c| c.get("tapes")).and_then(Value::as_u64), Some(3));
        let spmm = m.get("summaries").and_then(|s| s.get("kernel.spmm.ns")).expect("spmm summary");
        assert_eq!(spmm.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(spmm.get("mean").and_then(Value::as_f64), Some(2_000.0));
        // Kernel streams carry a histogram with percentiles alongside.
        let hist = m.get("hists").and_then(|h| h.get("kernel.spmm.ns")).expect("spmm hist");
        assert_eq!(hist.get("count").and_then(Value::as_u64), Some(2));
        let p99 = hist.get("p99").and_then(Value::as_f64).expect("p99");
        assert!((3_000.0..=3_000.0 * 1.13).contains(&p99), "p99={p99}");
    }

    #[test]
    fn phase_spans_attribute_kernel_samples() {
        let (guard, buf) = memory_recorder("phases");
        {
            let _search = span("search");
            {
                let _arch = phase_span("search.arch_step", "arch_step");
                kernel_sample("spmm", 1_000);
            }
            {
                let _w = phase_span("search.weight_step", "weight_step");
                kernel_sample("spmm", 3_000);
                kernel_sample("gemm", 500);
            }
            // Outside any phase: counts only toward the plain summary.
            kernel_sample("spmm", 10_000);
        }
        flush_metrics();
        drop(guard);
        let lines = lines_of(&buf);
        let m = lines
            .iter()
            .find(|l| l.get("kind").and_then(Value::as_str) == Some("metrics"))
            .expect("metrics record");
        let summaries = m.get("summaries").expect("summaries");
        let sum_of = |key: &str| {
            summaries.get(key).and_then(|s| s.get("sum")).and_then(Value::as_f64).unwrap_or(-1.0)
        };
        assert_eq!(sum_of("kernel.spmm.ns"), 14_000.0);
        assert_eq!(sum_of("phase.arch_step.kernel.spmm.ns"), 1_000.0);
        assert_eq!(sum_of("phase.weight_step.kernel.spmm.ns"), 3_000.0);
        assert_eq!(sum_of("phase.weight_step.kernel.gemm.ns"), 500.0);
        // The span_open record carries the phase tag for the profiler.
        let tagged = lines.iter().any(|l| {
            l.get("kind").and_then(Value::as_str) == Some("span_open")
                && l.get("phase").and_then(Value::as_str) == Some("arch_step")
        });
        assert!(tagged, "span_open must carry the phase field");
    }

    #[test]
    fn guard_restores_previous_recorder() {
        assert!(!active());
        let (outer, outer_buf) = memory_recorder("outer");
        {
            let (inner, _inner_buf) = memory_recorder("inner");
            event(Level::Info, "to_inner", &[]);
            drop(inner);
        }
        event(Level::Info, "to_outer", &[]);
        drop(outer);
        assert!(!active());
        let text = outer_buf.borrow();
        assert!(text.contains("to_outer"));
        assert!(!text.contains("to_inner"), "inner events must not leak to the outer recorder");
    }

    #[test]
    fn disabled_levels_are_cheap_and_silent() {
        let buf = MemoryBuffer::default();
        // A recorder whose only sink caps at Info records no span records.
        let guard = Recorder::new("quiet")
            .add_sink(Box::new(MemorySink::new(buf.clone(), Level::Info)))
            .install();
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        {
            let _s = span("invisible");
        }
        drop(guard);
        assert!(!buf.borrow().contains("span_open"));
    }

    #[test]
    fn bad_samples_warn_once_and_never_poison() {
        let (guard, buf) = memory_recorder("badsample");
        record("stream", 1.0);
        record("stream", f64::NAN);
        record("stream", -5.0);
        record_latency("lat", f64::INFINITY);
        flush_metrics();
        drop(guard);
        let lines = lines_of(&buf);
        let warns: Vec<&Value> = lines
            .iter()
            .filter(|l| l.get("name").and_then(Value::as_str) == Some("telemetry.bad_sample"))
            .collect();
        assert_eq!(warns.len(), 1, "exactly one bad-sample warning per run");
        let m = lines
            .iter()
            .find(|l| l.get("kind").and_then(Value::as_str) == Some("metrics"))
            .expect("metrics record");
        let s = m.get("summaries").and_then(|s| s.get("stream")).expect("stream summary");
        assert_eq!(s.get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(s.get("dropped").and_then(Value::as_u64), Some(2));
        assert_eq!(s.get("min").and_then(Value::as_f64), Some(1.0));
        assert_eq!(s.get("max").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn attach_on_same_thread_records_thread_field_and_merges_metrics() {
        // Single-thread attach exercise of the worker lifecycle (the
        // multi-thread version lives in sane-autodiff's integration
        // tests, the only crate allowed to spawn threads).
        let (guard, buf) = memory_recorder("attach");
        let root = span("root");
        let h = handle().expect("active recorder");
        assert_eq!(h.run(), "attach");
        {
            let _w = h.attach("w0");
            let _s = span("trial");
            kernel_sample("spmm", 2_000);
            event(Level::Info, "inside_worker", &[]);
        }
        assert_eq!(h.attached(), 0);
        drop(root);
        flush_metrics();
        drop(guard);
        let lines = lines_of(&buf);
        let trial_open = lines
            .iter()
            .find(|l| {
                l.get("kind").and_then(Value::as_str) == Some("span_open")
                    && l.get("name").and_then(Value::as_str) == Some("trial")
            })
            .expect("trial span_open");
        let root_open = lines
            .iter()
            .find(|l| {
                l.get("kind").and_then(Value::as_str) == Some("span_open")
                    && l.get("name").and_then(Value::as_str) == Some("root")
            })
            .expect("root span_open");
        assert_eq!(trial_open.get("parent"), root_open.get("id"), "worker span parents to root");
        assert_eq!(trial_open.get("thread").and_then(Value::as_str), Some("w0"));
        let ev = lines
            .iter()
            .find(|l| l.get("name").and_then(Value::as_str) == Some("inside_worker"))
            .expect("worker event");
        assert_eq!(ev.get("thread").and_then(Value::as_str), Some("w0"));
        // The worker's buffered kernel sample merged into the flushed set.
        let m = lines
            .iter()
            .find(|l| l.get("kind").and_then(Value::as_str) == Some("metrics"))
            .expect("metrics record");
        let spmm = m.get("summaries").and_then(|s| s.get("kernel.spmm.ns")).expect("spmm");
        assert_eq!(spmm.get("count").and_then(Value::as_u64), Some(1));
    }

    #[test]
    #[should_panic(expected = "still attached at run end")]
    #[cfg(debug_assertions)]
    fn leaked_worker_fails_loudly_in_debug() {
        let (guard, _buf) = memory_recorder("leak");
        let h = handle().expect("active recorder");
        let w = h.attach("w0");
        // Dropping the run guard with the worker still attached must
        // debug_assert after warning in the trace.
        drop(guard);
        drop(w);
    }

    #[test]
    fn leaked_worker_warns_in_trace() {
        let lines = {
            let (guard, buf) = memory_recorder("leakwarn");
            let h = handle().expect("active recorder");
            let w = h.attach("w0");
            let lines = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(guard);
                lines_of(&buf)
            }));
            drop(w);
            // In release builds the drop returns normally; in debug it
            // panics after the trace is complete — read the buffer back
            // from the payload-free catch in either case.
            match lines {
                Ok(lines) => lines,
                Err(_) => lines_of(&buf),
            }
        };
        let warn = lines
            .iter()
            .find(|l| l.get("name").and_then(Value::as_str) == Some("telemetry.leaked_worker"))
            .expect("leaked_worker warning");
        assert_eq!(
            warn.get("fields").and_then(|f| f.get("attached")).and_then(Value::as_u64),
            Some(1)
        );
        // The trace still closes with run_end after the warning.
        let last = lines.last().expect("records");
        assert_eq!(last.get("kind").and_then(Value::as_str), Some("run_end"));
    }
}
