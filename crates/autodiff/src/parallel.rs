//! The workspace's single threading policy.
//!
//! Every multi-threaded kernel — dense GEMM in [`crate::matrix`], sparse
//! `spmm` in [`crate::sparse`], the segment reductions in
//! `crate::ops::graphops` — partitions its work through the helpers in this
//! module, and nothing outside it is allowed to touch `std::thread` (the
//! `xtask` audit enforces that). One module owning the worker count, the
//! spawn threshold and the partitioning rules keeps three invariants easy
//! to state:
//!
//! 1. **Determinism.** Work is split at *item* boundaries (output rows,
//!    CSR rows, segments) and every item is computed by exactly one worker
//!    running the same inner loop as the serial path, so results are
//!    bitwise identical at any thread count.
//! 2. **One knob.** The worker count comes from `SANE_NUM_THREADS` (or
//!    `min(available_parallelism, 4)` when unset) for every kernel at once.
//! 3. **No runaway spawns.** Kernels below [`PAR_WORK_THRESHOLD`] scalar
//!    operations never spawn; scoped threads cost ~100µs, which only a
//!    few milliseconds of arithmetic amortises.
//!
//! Worker threads never allocate: callers pre-split the output buffer and
//! each worker writes only its own chunk, so the thread-local buffer pool
//! ([`crate::pool`]) stays a calling-thread concern.
//!
//! Since PR 5 the invariants are *checked*, not just stated: every spawn
//! goes through [`run_plan`]/[`run_plan_pair`], which in check mode (debug
//! builds, or `SANE_CHECK_PLANS` in release) prove an explicit
//! [`PartitionPlan`] sound before running and audit per-worker shadow
//! write sets after the join — see [`crate::analysis`] for the contract.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

use crate::analysis::{self, PartitionPlan, ShadowLog};

/// Minimum number of scalar operations (multiply-adds, exps, copies)
/// before a kernel bothers spawning threads. Spawning scoped threads costs
/// on the order of a hundred microseconds (more on old kernels), so
/// parallelism only pays for kernels with at least a few milliseconds of
/// work.
pub const PAR_WORK_THRESHOLD: usize = 4 << 20;

/// The configured worker count: `SANE_NUM_THREADS` when set to a positive
/// integer, otherwise `min(available_parallelism, 4)`.
///
/// Cached: `available_parallelism` reads cgroup state from `/sys` on
/// Linux, which is far too slow to query per kernel call. The env var is
/// therefore read once per process.
fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("SANE_NUM_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => return n,
                _ => sane_telemetry::warn(
                    "parallel.bad_num_threads",
                    &[
                        ("value", sane_telemetry::Value::from(v.as_str())),
                        ("hint", "not a positive integer; using the default".into()),
                    ],
                ),
            }
        }
        std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(1)
    })
}

thread_local! {
    /// Per-thread override installed by [`with_threads`]. `Some(n)` pins
    /// the worker count to `n` *and* bypasses [`PAR_WORK_THRESHOLD`], so
    /// tests and benchmarks can force the parallel partitioning on inputs
    /// of any size.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads the next kernel invocation on this thread will
/// use.
pub fn num_threads() -> usize {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(configured_threads)
}

/// Number of hardware threads the OS reports (1 when unknown). Exposed so
/// diagnostics outside this crate never touch `std::thread` directly.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the worker count pinned to `threads` on this thread.
///
/// While the override is active the work-size threshold is bypassed:
/// kernels partition across exactly `threads` workers no matter how small
/// the input (with `threads == 1` forcing the serial path). This is the
/// hook the determinism tests use to compare 1/2/4-thread runs within one
/// process, and the `overhead` bench binary to pin 2 workers; production
/// code should rely on `SANE_NUM_THREADS` instead.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "with_threads needs at least one thread");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(threads))));
    f()
}

fn forced() -> bool {
    OVERRIDE.with(|o| o.get()).is_some()
}

thread_local! {
    /// Name of the kernel currently executing on this thread, maintained
    /// by [`timed`]. Safety reports from [`crate::analysis`] use it to
    /// attribute a bad plan or a shadow race to the kernel that produced
    /// it (nested kernels report the innermost name).
    static CURRENT_KERNEL: Cell<&'static str> = const { Cell::new("") };
}

/// The kernel name the safety analysis should attribute findings to.
pub(crate) fn current_kernel() -> &'static str {
    let k = CURRENT_KERNEL.with(|c| c.get());
    if k.is_empty() {
        "unattributed"
    } else {
        k
    }
}

/// Times one kernel invocation into the installed telemetry recorder's
/// `kernel.<name>.ns` summary, and labels the thread with the kernel name
/// for the duration so safety findings are attributable.
///
/// This is the workspace's single kernel-timing hook: every hot kernel —
/// spmm, the segment reductions, GEMM, the tape's backward sweep — runs
/// through it. The disabled path (no recorder on this thread, or the
/// recorder built with `with_kernel_timing(false)`) is two thread-local
/// accesses and no clock call, so the hook is safe to leave in release
/// binaries.
pub(crate) fn timed<R>(kernel: &'static str, f: impl FnOnce() -> R) -> R {
    struct RestoreKernel(&'static str);
    impl Drop for RestoreKernel {
        fn drop(&mut self) {
            CURRENT_KERNEL.with(|c| c.set(self.0));
        }
    }
    let _restore = RestoreKernel(CURRENT_KERNEL.with(|c| c.replace(kernel)));
    if !sane_telemetry::kernel_timing_enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    sane_telemetry::kernel_sample(kernel, start.elapsed().as_nanos() as u64); // lint:allow(lossy-cast) -- u64 nanoseconds overflow after 584 years
    out
}

/// Verifies `cuts` against the output mapping and, in check mode, returns
/// the proven [`PartitionPlan`] plus a [`ShadowLog`] sized for it.
///
/// Returns `None` outside check mode (see [`analysis::checks_enabled`]) so
/// the release fast path pays one cached boolean read and nothing else.
///
/// # Panics
/// Panics (via [`analysis::deny_plan`]) if the plan fails verification —
/// an unsound split is a kernel logic bug and must never reach the spawn.
fn prove_plan(
    label: String,
    items: usize,
    cuts: &[usize],
    out_offset: &(dyn Fn(usize) -> usize + Sync),
    out_len: usize,
) -> Option<(PartitionPlan, ShadowLog)> {
    if !analysis::checks_enabled() {
        return None;
    }
    let plan = PartitionPlan::from_cuts(label, items, cuts.to_vec(), out_offset, out_len);
    if let Err(err) = analysis::check_plan(&plan, out_offset) {
        analysis::deny_plan(&plan, &err);
    }
    let shadow = ShadowLog::new(plan.kernel.clone(), cuts.len().saturating_sub(1));
    Some((plan, shadow))
}

/// Spawns one scoped worker per non-empty cut window, handing worker `w`
/// the output slice `out_offset(cuts[w])..out_offset(cuts[w + 1])`.
///
/// This is the single execution path behind [`parallel_rows`] and
/// [`parallel_ranges`]: the same `cuts` array that the (check-mode) plan
/// proof validated drives the actual `split_at_mut` partitioning, so the
/// proof and the execution cannot drift apart silently — and in check mode
/// each worker also records the interval it really received into the
/// shadow log, which is audited against the plan after the join.
fn run_plan<T: Send>(
    items: usize,
    cuts: &[usize],
    out_offset: &(dyn Fn(usize) -> usize + Sync),
    out: &mut [T],
    run: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let kernel = current_kernel();
    let checked = prove_plan(kernel.to_string(), items, cuts, out_offset, out.len());
    let shadow = checked.as_ref().map(|(_, s)| s);
    // Workers must compute exactly what the calling thread would have: the
    // scalar/SIMD mode is part of that contract, so it rides along.
    let scalar = crate::simd::scalar_forced();
    let mut slice_ns = worker_slice_slots(cuts);
    std::thread::scope(|s| {
        let mut rest = out;
        let mut consumed = 0usize;
        let mut ns_rest = slice_ns.as_mut_slice();
        for (worker, w) in cuts.windows(2).enumerate() {
            let slot = match std::mem::take(&mut ns_rest).split_first_mut() {
                Some((slot, tail)) => {
                    ns_rest = tail;
                    Some(slot)
                }
                None => None,
            };
            let (start, end) = (w[0], w[1]);
            if start == end {
                continue;
            }
            let stop = out_offset(end);
            let (chunk, tail) = rest.split_at_mut(stop - consumed);
            let chunk_start = consumed;
            rest = tail;
            consumed = stop;
            let run = &run;
            s.spawn(move || {
                if let Some(log) = shadow {
                    log.record(worker, chunk_start, chunk_start + chunk.len());
                }
                match slot {
                    Some(slot) => {
                        let t0 = std::time::Instant::now();
                        crate::simd::with_mode(scalar, || run(start..end, chunk));
                        *slot = t0.elapsed().as_nanos() as u64; // lint:allow(lossy-cast) -- u64 nanoseconds overflow after 584 years
                    }
                    None => crate::simd::with_mode(scalar, || run(start..end, chunk)),
                }
            });
        }
    });
    book_worker_slices(kernel, &slice_ns);
    if let Some((plan, log)) = &checked {
        analysis::deny_shadow(&log.audit_against(plan));
    }
}

/// One duration slot per partition window when the caller's recorder is
/// sampling kernels, else empty (workers then skip the clock entirely).
fn worker_slice_slots(cuts: &[usize]) -> Vec<u64> {
    if sane_telemetry::kernel_timing_enabled() {
        vec![0u64; cuts.len().saturating_sub(1)]
    } else {
        Vec::new()
    }
}

/// Books the workers' slice durations into the run's
/// `kernel.<name>.worker.ns` stream — separate from the caller-level
/// `kernel.<name>.ns` sample [`timed`] records around the whole
/// invocation, so worker slices never double-count kernel time.
///
/// Workers only stamp a pre-split slot each; the caller does the actual
/// recording after the scope joins. Attaching every ~100µs-lived kernel
/// worker to the run (the [`sane_telemetry::RecorderHandle::attach`]
/// path long-lived workers use) costs more than the slice it would
/// book, and the kernels bench gates that overhead budget in CI.
fn book_worker_slices(kernel: &'static str, slice_ns: &[u64]) {
    if slice_ns.is_empty() {
        return;
    }
    let stream = format!("kernel.{kernel}.worker.ns");
    for &ns in slice_ns {
        // Zero marks a window the partition plan left empty: no worker
        // was spawned for it, so there is no slice to book.
        if ns > 0 {
            sane_telemetry::record_latency(&stream, ns as f64); // lint:allow(lossy-cast) -- f64 is exact below 2^53 ns ≈ 104 days
        }
    }
}

/// Two-buffer variant of [`run_plan`]: one cut array drives both outputs,
/// each with its own offset mapping, plan proof and shadow log.
fn run_plan_pair<A: Send, B: Send>(
    items: usize,
    cuts: &[usize],
    out_offset_a: &(dyn Fn(usize) -> usize + Sync),
    out_offset_b: &(dyn Fn(usize) -> usize + Sync),
    a: &mut [A],
    b: &mut [B],
    run: impl Fn(Range<usize>, &mut [A], &mut [B]) + Sync,
) {
    let kernel = current_kernel();
    let checked_a = prove_plan(format!("{kernel}.a"), items, cuts, out_offset_a, a.len());
    let checked_b = prove_plan(format!("{kernel}.b"), items, cuts, out_offset_b, b.len());
    let shadow_a = checked_a.as_ref().map(|(_, s)| s);
    let shadow_b = checked_b.as_ref().map(|(_, s)| s);
    let scalar = crate::simd::scalar_forced();
    let mut slice_ns = worker_slice_slots(cuts);
    std::thread::scope(|s| {
        let (mut rest_a, mut rest_b) = (a, b);
        let (mut done_a, mut done_b) = (0usize, 0usize);
        let mut ns_rest = slice_ns.as_mut_slice();
        for (worker, w) in cuts.windows(2).enumerate() {
            let slot = match std::mem::take(&mut ns_rest).split_first_mut() {
                Some((slot, tail)) => {
                    ns_rest = tail;
                    Some(slot)
                }
                None => None,
            };
            let (start, end) = (w[0], w[1]);
            if start == end {
                continue;
            }
            let (stop_a, stop_b) = (out_offset_a(end), out_offset_b(end));
            let (ca, ta) = rest_a.split_at_mut(stop_a - done_a);
            let (cb, tb) = rest_b.split_at_mut(stop_b - done_b);
            let (ca_start, cb_start) = (done_a, done_b);
            rest_a = ta;
            rest_b = tb;
            done_a = stop_a;
            done_b = stop_b;
            let run = &run;
            s.spawn(move || {
                if let Some(log) = shadow_a {
                    log.record(worker, ca_start, ca_start + ca.len());
                }
                if let Some(log) = shadow_b {
                    log.record(worker, cb_start, cb_start + cb.len());
                }
                match slot {
                    Some(slot) => {
                        let t0 = std::time::Instant::now();
                        crate::simd::with_mode(scalar, || run(start..end, ca, cb));
                        *slot = t0.elapsed().as_nanos() as u64; // lint:allow(lossy-cast) -- u64 nanoseconds overflow after 584 years
                    }
                    None => crate::simd::with_mode(scalar, || run(start..end, ca, cb)),
                }
            });
        }
    });
    book_worker_slices(kernel, &slice_ns);
    for (plan, log) in [&checked_a, &checked_b].into_iter().flatten() {
        analysis::deny_shadow(&log.audit_against(plan));
    }
}

/// Runs `f(worker_index)` on `workers` scoped threads and joins them all.
///
/// This is the workspace's only general-purpose thread fan-out: higher
/// layers (the `trials` bench's concurrent search trials, the
/// multi-thread telemetry tests) go through it so `std::thread` stays
/// confined to this module, as the `xtask` audit demands. Unlike the
/// kernel helpers there is no output partitioning or plan proof — `f`
/// owns its synchronisation (typically an atomic work queue plus a
/// mutexed result vector). Telemetry is not attached automatically:
/// callers that want worker records in a trace capture a
/// `sane_telemetry::RecorderHandle` before the call and attach it inside
/// `f` with their own labels. A panic in any worker propagates to the
/// caller when the scope joins.
pub fn run_workers(workers: usize, f: impl Fn(usize) + Sync) {
    std::thread::scope(|s| {
        for w in 0..workers {
            let f = &f;
            s.spawn(move || f(w));
        }
    });
}

/// Equal-size item cuts: `items` split into `workers` contiguous windows
/// of `ceil(items / workers)` items (the last window may be short, and
/// trailing workers may get empty windows). The row analogue of
/// [`balanced_cuts`] for kernels whose items all weigh the same.
fn even_cuts(items: usize, workers: usize) -> Vec<usize> {
    let chunk = items.div_ceil(workers.max(1)).max(1);
    let mut cuts = Vec::with_capacity(workers + 1);
    let mut at = 0usize;
    cuts.push(at);
    while at < items {
        at = (at + chunk).min(items);
        cuts.push(at);
    }
    if cuts.len() < 2 {
        cuts.push(items);
    }
    cuts
}

/// Splits the output rows of an `m x n` result into equal contiguous row
/// chunks across worker threads when `work` (total scalar operations)
/// justifies the spawn cost.
///
/// `run(rows, chunk)` receives a row range and the output slice covering
/// exactly those rows; it must write every element it owns.
pub(crate) fn parallel_rows(
    m: usize,
    n: usize,
    work: usize,
    out: &mut [f32],
    run: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    debug_assert_eq!(out.len(), m * n, "output must be exactly m x n");
    let workers = num_threads();
    if workers <= 1 || m < 2 || n == 0 || (!forced() && work < PAR_WORK_THRESHOLD) {
        run(0..m, out);
        return;
    }
    let cuts = even_cuts(m, workers);
    run_plan(m, &cuts, &|i| i * n, out, run);
}

/// Like [`parallel_rows`] but for kernels that fill *two* parallel output
/// buffers row by row (e.g. a gradient and a per-row reduction).
pub(crate) fn parallel_rows_pair<A: Send, B: Send>(
    m: usize,
    na: usize,
    nb: usize,
    work: usize,
    a: &mut [A],
    b: &mut [B],
    run: impl Fn(Range<usize>, &mut [A], &mut [B]) + Sync,
) {
    debug_assert_eq!(a.len(), m * na, "output a must be exactly m x na");
    debug_assert_eq!(b.len(), m * nb, "output b must be exactly m x nb");
    let workers = num_threads();
    if workers <= 1 || m < 2 || na == 0 || nb == 0 || (!forced() && work < PAR_WORK_THRESHOLD) {
        run(0..m, a, b);
        return;
    }
    let cuts = even_cuts(m, workers);
    run_plan_pair(m, &cuts, &|i| i * na, &|i| i * nb, a, b, run);
}

/// Computes contiguous item ranges (`cuts[w]..cuts[w + 1]` per worker)
/// that share `offsets`-weighted load as evenly as item boundaries allow.
///
/// `offsets` is a monotone cumulative-weight array of length `items + 1`
/// (a CSR `indptr`, or segment offsets): item `i` carries weight
/// `offsets[i + 1] - offsets[i]`. Degenerate inputs are handled, not
/// assumed away: an empty or single-entry `offsets` (zero items) yields
/// the trivial plan `[0, 0]`, and `workers > items` produces trailing
/// empty windows that the spawn loop skips.
fn balanced_cuts(offsets: &[usize], workers: usize) -> Vec<usize> {
    if offsets.len() <= 1 {
        return vec![0, 0];
    }
    debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be non-decreasing");
    let items = offsets.len() - 1;
    let total = offsets[items] - offsets[0];
    let mut cuts = Vec::with_capacity(workers.max(1) + 1);
    cuts.push(0);
    for w in 1..workers {
        let target = offsets[0] + total * w / workers;
        let at = offsets.partition_point(|&o| o < target).min(items);
        let last = *cuts.last().unwrap_or(&0);
        cuts.push(at.max(last));
    }
    cuts.push(items);
    cuts
}

/// Partitions `items` contiguous work items (CSR rows, segments) across
/// workers, cutting only at item boundaries so each item is computed
/// whole by one worker — the serial inner loop per item is preserved and
/// the result is bitwise identical at any thread count.
///
/// * `offsets` — cumulative weight per item (length `items + 1`); the load
///   balancer splits so workers get roughly equal weight (e.g. nonzeros
///   for spmm, edges for segment ops), not equal item counts.
/// * `out_offset(i)` — flat index in `out` where item `i`'s output starts;
///   must be monotone with `out_offset(0) == 0` and
///   `out_offset(items) == out.len()`.
/// * `run(items, chunk)` — computes an item range into the output slice
///   covering exactly those items.
pub(crate) fn parallel_ranges<T: Send>(
    offsets: &[usize],
    out_offset: &(dyn Fn(usize) -> usize + Sync),
    work: usize,
    out: &mut [T],
    run: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let items = offsets.len() - 1;
    debug_assert_eq!(out_offset(items), out.len(), "out_offset must cover the output");
    let workers = num_threads();
    if workers <= 1 || items < 2 || (!forced() && work < PAR_WORK_THRESHOLD) {
        run(0..items, out);
        return;
    }
    let cuts = balanced_cuts(offsets, workers);
    run_plan(items, &cuts, out_offset, out, run);
}

/// Two-buffer variant of [`parallel_ranges`] for kernels that fill a pair
/// of outputs with per-item chunks (e.g. `segment_max` values + winner
/// indices).
#[allow(clippy::too_many_arguments)]
pub(crate) fn parallel_ranges_pair<A: Send, B: Send>(
    offsets: &[usize],
    out_offset_a: &(dyn Fn(usize) -> usize + Sync),
    out_offset_b: &(dyn Fn(usize) -> usize + Sync),
    work: usize,
    a: &mut [A],
    b: &mut [B],
    run: impl Fn(Range<usize>, &mut [A], &mut [B]) + Sync,
) {
    let items = offsets.len() - 1;
    debug_assert_eq!(out_offset_a(items), a.len(), "out_offset_a must cover the output");
    debug_assert_eq!(out_offset_b(items), b.len(), "out_offset_b must cover the output");
    let workers = num_threads();
    if workers <= 1 || items < 2 || (!forced() && work < PAR_WORK_THRESHOLD) {
        run(0..items, a, b);
        return;
    }
    let cuts = balanced_cuts(offsets, workers);
    run_plan_pair(items, &cuts, out_offset_a, out_offset_b, a, b, run);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(1, || assert_eq!(num_threads(), 1));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn parallel_rows_covers_all_rows_once() {
        let (m, n) = (10, 3);
        let mut out = vec![0.0f32; m * n];
        with_threads(4, || {
            parallel_rows(m, n, 0, &mut out, |rows, chunk| {
                for (ri, r) in rows.enumerate() {
                    for c in 0..n {
                        chunk[ri * n + c] += (r * n + c) as f32;
                    }
                }
            });
        });
        let expect: Vec<f32> = (0..m * n).map(|i| i as f32).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_ranges_splits_at_item_boundaries() {
        // Item i occupies rows offsets[i]..offsets[i+1] of a 1-column out.
        let offsets = vec![0usize, 4, 4, 5, 9, 12];
        let mut out = vec![-1.0f32; 12];
        with_threads(4, || {
            parallel_ranges(&offsets, &|i| offsets[i], 0, &mut out, |items, chunk| {
                let base = offsets[items.start];
                for i in items {
                    for e in offsets[i]..offsets[i + 1] {
                        chunk[e - base] = i as f32;
                    }
                }
            });
        });
        let expect = [0.0, 0.0, 0.0, 0.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0];
        assert_eq!(out, expect);
    }

    #[test]
    fn balanced_cuts_are_monotone_and_complete() {
        let offsets = vec![0usize, 100, 100, 101, 102, 103, 200];
        for workers in 1..6 {
            let cuts = balanced_cuts(&offsets, workers);
            assert_eq!(cuts[0], 0);
            assert_eq!(*cuts.last().expect("non-empty"), 6);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
        }
    }

    /// Any cut array `balanced_cuts` produces must pass the plan checker
    /// for a 1-column output (out_offset == offsets themselves).
    fn assert_plan_sound(offsets: &[usize], cuts: Vec<usize>) {
        let items = offsets.len().saturating_sub(1);
        let base = offsets.first().copied().unwrap_or(0);
        let off = move |i: usize| offsets.get(i).copied().unwrap_or(base) - base;
        let out_len = off(items);
        let plan = crate::analysis::PartitionPlan::from_cuts("test", items, cuts, &off, out_len);
        assert_eq!(crate::analysis::check_plan(&plan, &off), Ok(()), "{plan:?}");
    }

    #[test]
    fn balanced_cuts_degenerate_empty_offsets() {
        assert_eq!(balanced_cuts(&[], 4), vec![0, 0]);
        assert_eq!(balanced_cuts(&[7], 4), vec![0, 0]);
    }

    #[test]
    fn balanced_cuts_degenerate_single_row() {
        let offsets = [0usize, 5];
        let cuts = balanced_cuts(&offsets, 4);
        assert_eq!(cuts[0], 0);
        assert_eq!(*cuts.last().expect("non-empty"), 1);
        assert_plan_sound(&offsets, cuts);
    }

    #[test]
    fn balanced_cuts_degenerate_more_workers_than_rows() {
        let offsets = [0usize, 2, 3, 9];
        let cuts = balanced_cuts(&offsets, 8);
        assert_eq!(cuts.len(), 9);
        assert_eq!(*cuts.last().expect("non-empty"), 3);
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
        assert_plan_sound(&offsets, cuts);
    }

    #[test]
    fn balanced_cuts_degenerate_all_equal_offsets() {
        // Zero total weight: every item is empty; the cuts must still
        // cover all items without reversing.
        let offsets = [3usize, 3, 3, 3];
        let cuts = balanced_cuts(&offsets, 2);
        assert_eq!(cuts[0], 0);
        assert_eq!(*cuts.last().expect("non-empty"), 3);
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
        assert_plan_sound(&offsets, cuts);
    }

    #[test]
    fn even_cuts_cover_items_for_any_worker_count() {
        for items in [0usize, 1, 2, 7, 16] {
            for workers in 1..6 {
                let cuts = even_cuts(items, workers);
                assert!(cuts.len() >= 2, "{items} items / {workers} workers: {cuts:?}");
                assert_eq!(cuts[0], 0);
                assert_eq!(*cuts.last().expect("non-empty"), items);
                assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
            }
        }
    }

    #[test]
    fn forced_partitioning_passes_safety_checks() {
        // Debug builds run the plan proof + shadow audit on every spawn;
        // a clean pass here means the real split arithmetic conforms.
        assert!(crate::analysis::checks_enabled() || !cfg!(debug_assertions));
        let offsets = vec![0usize, 3, 3, 4, 10, 11];
        let mut out = vec![0.0f32; 22];
        with_threads(4, || {
            parallel_ranges(&offsets, &|i| offsets[i] * 2, 0, &mut out, |items, chunk| {
                let base = offsets[items.start] * 2;
                for i in items {
                    for e in offsets[i] * 2..offsets[i + 1] * 2 {
                        chunk[e - base] = 1.0;
                    }
                }
            });
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn worker_pool_recycling_stays_thread_local() {
        // Workers run on scoped threads with their own thread-local pools;
        // a worker recycling or drawing buffers must neither leak into nor
        // double-count in the calling thread's `PoolStats`.
        crate::pool::reset();
        let caller_before = crate::pool::stats();
        let mut out = vec![0.0f32; 8];
        with_threads(4, || {
            parallel_rows(8, 1, 0, &mut out, |_, chunk| {
                // Simulate a worker that (against policy) touches the pool:
                // everything lands in the *worker's* pool, which dies with
                // the scoped thread.
                let m = crate::pool::zeros(4, 4);
                crate::pool::put(m);
                let stats = crate::pool::stats();
                assert!(stats.consistent(), "worker-local stats inconsistent: {stats:?}");
                assert_eq!(stats.misses, 1, "worker pool must start empty");
                chunk.fill(1.0);
            });
        });
        let caller_after = crate::pool::stats();
        assert_eq!(
            caller_after, caller_before,
            "worker pool activity must not leak into the caller's stats"
        );
        assert!(caller_after.consistent());
        crate::pool::reset();
    }

    #[test]
    fn pool_stats_are_consistent_under_with_threads() {
        crate::pool::reset();
        for threads in [1usize, 2, 4] {
            with_threads(threads, || {
                let a = crate::pool::zeros(6, 2);
                let b = crate::pool::clone_of(&a);
                crate::pool::put(a);
                crate::pool::put(b);
            });
            let stats = crate::pool::stats();
            assert!(
                stats.consistent(),
                "caller stats inconsistent at {threads} threads: {stats:?}"
            );
        }
        let stats = crate::pool::stats();
        // Three rounds of two takes / two puts on the caller thread: all
        // recycles must be visible here and balance against the holdings.
        assert_eq!(stats.recycled, 6);
        assert_eq!(stats.buffers as u64, stats.recycled - stats.hits);
        crate::pool::reset();
    }

    #[test]
    fn parallel_ranges_pair_keeps_buffers_aligned() {
        let offsets = vec![0usize, 2, 5, 6];
        let mut vals = vec![0.0f32; 3 * 2]; // 2 cols per item
        let mut tags = vec![0u32; 3]; // 1 tag per item
        with_threads(2, || {
            parallel_ranges_pair(
                &offsets,
                &|i| i * 2,
                &|i| i,
                0,
                &mut vals,
                &mut tags,
                |items, va, tb| {
                    let base = items.start;
                    for i in items {
                        va[(i - base) * 2] = i as f32;
                        va[(i - base) * 2 + 1] = i as f32;
                        tb[i - base] = i as u32;
                    }
                },
            );
        });
        assert_eq!(vals, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        assert_eq!(tags, [0, 1, 2]);
    }
}
