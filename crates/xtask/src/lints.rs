//! Source-level lints over the workspace.
//!
//! Each lint is a pure function from source text to findings so it can be
//! unit-tested on string fixtures without touching the filesystem. The
//! binary in `main.rs` walks the workspace and feeds files in.
//!
//! Lints:
//!
//! * `no-unwrap` / `no-expect` — forbid `.unwrap()` and `.expect(` in
//!   non-test library code. `#[cfg(test)]` modules are skipped. A site can
//!   be waived with a `// lint:allow(unwrap)` / `// lint:allow(expect)`
//!   comment (trailing, or alone on the next line when rustfmt moves it
//!   there); the `.expect()` message must then
//!   state the invariant that makes the panic unreachable. Waivers are
//!   counted and reported so they stay visible.
//! * `unseeded-rng` — forbid `thread_rng`, `from_entropy` and
//!   `rand::random`, in tests as well as library code: every experiment in
//!   this repository must be reproducible from a seed.
//! * `gradcheck-coverage` — cross-reference the autodiff op registry
//!   (every `Op::name()` literal) against the finite-difference property
//!   suite; an op that never appears in `grad_props.rs` fails the lint.
//! * `raw-thread` — forbid direct `std::thread` use outside
//!   `crates/autodiff/src/parallel.rs`: that module owns the workspace's
//!   one threading policy (worker count, spawn threshold, deterministic
//!   partitioning), and ad-hoc spawns elsewhere would bypass all three.
//! * `no-print` — forbid `println!` / `eprintln!` in non-test library
//!   code outside the telemetry crate (whose sinks own console output),
//!   xtask itself, and `src/bin/` driver binaries. Everything else must
//!   emit structured `sane_telemetry` events so output respects the
//!   `SANE_LOG` level and lands in run traces. Waivable with
//!   `// lint:allow(print)`.
//! * `forbid-unsafe` — every first-party crate root must carry
//!   `#![forbid(unsafe_code)]`.
//! * `nondeterministic-iteration` — forbid iterating a `HashMap` /
//!   `HashSet` in non-test library code: hash iteration order varies
//!   between runs (and std versions), so anything emitted from such a loop
//!   — telemetry records, report rows, partition work lists — breaks
//!   reproducibility. Membership tests and lookups are fine; iterate a
//!   `BTreeMap`/`BTreeSet` or a sorted `Vec` instead. Waivable with
//!   `// lint:allow(nondeterministic-iteration)` when the loop provably
//!   feeds an order-insensitive reduction — except in the files listed in
//!   [`ARTIFACT_RENDER_PATHS`], which render committed or CI-gated
//!   artifacts (trace summaries, profiles, dashboards, merged metric
//!   registries): there every loop ultimately feeds rendered output, no
//!   reduction is order-insensitive, and the waiver is refused.
//! * `waiver-reason` — every `lint:allow(...)` waiver must carry a
//!   `-- reason` suffix stating why the site is sound. Not waivable
//!   per-site; `xtask audit --allow-unreasoned-waivers` disables it
//!   globally for bulk migrations.
//!
//! [`parse_sanitizer_log`] is not a source lint but shares the [`Finding`]
//! shape: it scans Miri / ThreadSanitizer output fed to
//! `xtask audit --sanitizer-report` for diagnostics.
//!
//! The needles below are assembled with `concat!` so this file does not
//! itself contain the forbidden tokens and can be linted like any other
//! crate.

use std::fmt;

/// One lint violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Lint identifier, e.g. `no-unwrap`.
    pub lint: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.lint, self.message)
        } else {
            write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
        }
    }
}

/// Findings plus the number of explicitly waived sites.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Violations that fail the audit.
    pub findings: Vec<Finding>,
    /// Sites carrying a `lint:allow` waiver (reported, not fatal).
    pub waived: usize,
}

const UNWRAP_NEEDLE: &str = concat!(".unwrap", "()");
const EXPECT_NEEDLE: &str = concat!(".expect", "(");
const UNWRAP_WAIVER: &str = concat!("lint:allow", "(unwrap)");
const EXPECT_WAIVER: &str = concat!("lint:allow", "(expect)");
const RNG_NEEDLES: [&str; 3] =
    [concat!("thread", "_rng"), concat!("from_", "entropy"), concat!("rand::", "random")];
const THREAD_NEEDLE: &str = concat!("std::", "thread");
/// The one file allowed to touch the needle above.
const THREAD_HOME: &str = "crates/autodiff/src/parallel.rs";
const PRINT_NEEDLES: [&str; 2] = [concat!("println", "!"), concat!("eprintln", "!")];
const PRINT_WAIVER: &str = concat!("lint:allow", "(print)");
/// Crates whose library code may print: the telemetry sinks (console
/// output is their entire job) and the xtask harness itself.
const PRINT_HOMES: [&str; 2] = ["crates/telemetry/", "crates/xtask/"];
/// Type needles that mark a binding as hash-ordered.
const HASH_TYPE_NEEDLES: [&str; 4] = [
    concat!("Hash", "Map<"),
    concat!("Hash", "Set<"),
    concat!("Hash", "Map::"),
    concat!("Hash", "Set::"),
];
/// Method calls that iterate a collection in storage order.
const ITER_METHOD_NEEDLES: [&str; 5] =
    [".iter()", ".keys()", ".values()", ".into_iter()", ".drain("];
const ITERATION_WAIVER: &str = concat!("lint:allow", "(nondeterministic-iteration)");

/// Files whose loops render committed or CI-gated artifacts: the merged
/// metric registry, the trace summary/profile/dashboard renderers, and the
/// perf gate's history and baseline files. Hash-ordered iteration anywhere in these files is
/// forbidden outright — `// lint:allow(nondeterministic-iteration)` is
/// refused, because output that is diffed, gated or committed can never
/// treat iteration order as an implementation detail.
const ARTIFACT_RENDER_PATHS: [&str; 5] = [
    "crates/telemetry/src/metrics.rs",
    "crates/telemetry/src/trace.rs",
    "crates/telemetry/src/profile.rs",
    "crates/telemetry/src/report.rs",
    "crates/xtask/src/perf.rs",
];

/// True when `file` renders committed/gated artifacts and therefore gets
/// no iteration-order waivers.
fn renders_artifacts(file: &str) -> bool {
    ARTIFACT_RENDER_PATHS.iter().any(|p| file == *p || file.ends_with(p))
}
const LOSSY_CAST_WAIVER: &str = concat!("lint:allow", "(lossy-cast)");
/// Cast targets flagged by the lossy-cast lint. An `as` cast between any
/// two of these silently truncates, wraps, or rounds — `usize as f32`
/// loses exactness above 2^24, the precision regime of large graphs.
const NUMERIC_CAST_TYPES: [&str; 12] =
    ["f32", "f64", "usize", "isize", "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64"];
/// Directories whose every file is a numeric kernel path.
const KERNEL_DIRS: [&str; 2] = ["crates/autodiff/src/ops/", "crates/gnn/src/agg/"];
/// Individual kernel-path files outside those directories.
const KERNEL_FILES: [&str; 6] = [
    "crates/autodiff/src/matrix.rs",
    "crates/autodiff/src/sparse.rs",
    "crates/autodiff/src/parallel.rs",
    "crates/autodiff/src/simd.rs",
    "crates/gnn/src/layer_agg.rs",
    "crates/gnn/src/pooling.rs",
];
/// Diagnostics that mark a sanitizer run as failed. Substring match per
/// log line; the first hit per line wins so overlapping patterns (a TSan
/// warning naming a data race) yield one finding, not two.
const SANITIZER_PATTERNS: [&str; 4] = [
    "error: Undefined Behavior",
    "WARNING: ThreadSanitizer",
    "data race",
    "error: unsupported operation",
];

/// Splits one source line into (code, comment) at the first `//` that is
/// not inside a string literal.
fn split_comment(line: &str) -> (&str, &str) {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut escaped = false;
    for i in 0..bytes.len() {
        let b = bytes[i];
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_string => escaped = true,
            b'"' => in_string = !in_string,
            b'/' if !in_string && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return (&line[..i], &line[i..]);
            }
            _ => {}
        }
    }
    (line, "")
}

/// Returns the source split into lines with every `#[cfg(test)]` item
/// blanked out, preserving line numbers.
///
/// Brace counting is textual: a `{` or `}` inside a string still counts.
/// That is fine in practice — format strings carry balanced brace pairs —
/// and keeps the scanner trivial.
pub fn strip_test_code(src: &str) -> Vec<String> {
    let mut lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() == "#[cfg(test)]" {
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                let (code, _) = split_comment(&lines[j]);
                for ch in code.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                let done = opened && depth <= 0;
                lines[j].clear();
                if done {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    lines
}

/// Forbids `.unwrap()` / `.expect(` in non-test library code.
///
/// `src` is the full file text; `#[cfg(test)]` modules are stripped before
/// scanning. A violating line is waived by a `// lint:allow(unwrap)` or
/// `// lint:allow(expect)` comment, trailing or on the next line.
pub fn lint_unwrap_expect(file: &str, src: &str) -> LintOutcome {
    let mut out = LintOutcome::default();
    let lines = strip_test_code(src);
    for (idx, line) in lines.iter().enumerate() {
        let (code, comment) = split_comment(line);
        // rustfmt moves a trailing comment that no longer fits onto its
        // own line below the statement, so a waiver is honoured on the
        // violating line or the line immediately after it.
        let next_comment = lines.get(idx + 1).map(|l| l.trim()).filter(|l| l.starts_with("//"));
        for (needle, waiver, lint) in [
            (UNWRAP_NEEDLE, UNWRAP_WAIVER, "no-unwrap"),
            (EXPECT_NEEDLE, EXPECT_WAIVER, "no-expect"),
        ] {
            if !code.contains(needle) {
                continue;
            }
            if comment.contains(waiver) || next_comment.is_some_and(|c| c.contains(waiver)) {
                out.waived += 1;
            } else {
                out.findings.push(Finding {
                    file: file.to_string(),
                    line: idx + 1,
                    lint,
                    message: format!(
                        "`{needle}` in library code; handle the error or waive with `// {waiver}` \
                         and an invariant message",
                    ),
                });
            }
        }
    }
    out
}

/// Forbids `println!` / `eprintln!` in non-test library code: ad-hoc
/// prints bypass the telemetry sinks, ignore `SANE_LOG`, and never reach
/// run traces. Library code must emit `sane_telemetry` events instead.
///
/// The telemetry crate and xtask are exempt wholesale (see
/// [`PRINT_HOMES`]); `src/bin/` driver binaries are exempted by the
/// caller. A deliberate site is waived with `// lint:allow(print)`,
/// trailing or on the next line.
pub fn lint_no_print(file: &str, src: &str) -> LintOutcome {
    let mut out = LintOutcome::default();
    if PRINT_HOMES.iter().any(|home| file.starts_with(home)) {
        return out;
    }
    let lines = strip_test_code(src);
    for (idx, line) in lines.iter().enumerate() {
        let (code, comment) = split_comment(line);
        let Some(needle) = PRINT_NEEDLES.iter().find(|n| code.contains(*n)) else { continue };
        let next_comment = lines.get(idx + 1).map(|l| l.trim()).filter(|l| l.starts_with("//"));
        if comment.contains(PRINT_WAIVER) || next_comment.is_some_and(|c| c.contains(PRINT_WAIVER))
        {
            out.waived += 1;
        } else {
            out.findings.push(Finding {
                file: file.to_string(),
                line: idx + 1,
                lint: "no-print",
                message: format!(
                    "`{needle}` in library code bypasses the telemetry sinks; emit a \
                     `sane_telemetry` event instead or waive with `// {PRINT_WAIVER}`"
                ),
            });
        }
    }
    out
}

/// Forbids unseeded RNG entry points (`thread_rng`, `from_entropy`,
/// `rand::random`) everywhere, including test code: reproducibility is a
/// workspace-wide invariant, so there is no waiver.
pub fn lint_unseeded_rng(file: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let (code, _) = split_comment(line);
        for needle in RNG_NEEDLES {
            if code.contains(needle) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: idx + 1,
                    lint: "unseeded-rng",
                    message: format!("`{needle}` breaks reproducibility; seed a StdRng instead"),
                });
            }
        }
    }
    findings
}

/// Forbids direct `std::thread` use (spawns, scopes, parallelism queries)
/// anywhere but the autodiff `parallel` module, tests included: the worker
/// count, the spawn threshold and the boundary-partitioning rules that
/// make parallel kernels bitwise deterministic all live there, and an
/// ad-hoc spawn elsewhere would bypass every one of them. There is no
/// waiver — new threading needs go through `parallel`'s helpers.
pub fn lint_raw_thread(file: &str, src: &str) -> Vec<Finding> {
    if file.ends_with(THREAD_HOME) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let (code, _) = split_comment(line);
        if code.contains(THREAD_NEEDLE) {
            findings.push(Finding {
                file: file.to_string(),
                line: idx + 1,
                lint: "raw-thread",
                message: format!(
                    "`{THREAD_NEEDLE}` outside {THREAD_HOME}; route threading through the \
                     `parallel` module so the worker count and determinism rules stay centralised"
                ),
            });
        }
    }
    findings
}

/// The trailing identifier of `head`, e.g. `let mut counts` -> `counts`,
/// `fn f(m` -> `m`. Empty when `head` does not end in an identifier.
fn trailing_ident(head: &str) -> &str {
    let head = head.trim_end();
    let start =
        head.rfind(|c: char| !(c.is_alphanumeric() || c == '_')).map(|i| i + 1).unwrap_or(0);
    &head[start..]
}

/// Index of the last declaration separator in `head`: a `:` that is not
/// part of a `::` path, or a `=` that is not part of `==`/`=>`/`<=` etc.
fn last_decl_separator(head: &str) -> Option<usize> {
    let b = head.as_bytes();
    (0..b.len()).rev().find(|&i| {
        let prev = i.checked_sub(1).map(|p| b[p]);
        let next = b.get(i + 1).copied();
        match b[i] {
            b':' => prev != Some(b':') && next != Some(b':'),
            b'=' => {
                !matches!(prev, Some(b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/'))
                    && !matches!(next, Some(b'=' | b'>'))
            }
            _ => false,
        }
    })
}

/// Names bound to a hash-ordered collection in `lines`: `let` bindings,
/// struct fields and fn args whose declaration line mentions a
/// `HashMap`/`HashSet` type or constructor.
fn hash_ordered_bindings(lines: &[String]) -> Vec<String> {
    let mut names = Vec::new();
    for line in lines {
        let (code, _) = split_comment(line);
        let Some(pos) = HASH_TYPE_NEEDLES.iter().filter_map(|n| code.find(n)).min() else {
            continue;
        };
        // The identifier being declared sits just before the `:` (typed
        // binding, field, arg) or `=` (inferred `let`) that precedes the
        // type needle. A `::` path separator or `=>`/`==` is not a
        // declaration separator, so those are skipped.
        let head = &code[..pos];
        let head = last_decl_separator(head).map(|i| &head[..i]).unwrap_or(head);
        let name = trailing_ident(head);
        if !name.is_empty()
            && !matches!(name, "let" | "mut" | "pub" | "fn" | "use" | "super" | "std")
            && !names.iter().any(|n| n == name)
        {
            names.push(name.to_string());
        }
    }
    names
}

/// `true` when `code` contains `pat` delimited by non-identifier chars.
fn mentions_ident(code: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(i) = code[from..].find(pat) {
        let start = from + i;
        let end = start + pat.len();
        let before_ok =
            code[..start].chars().next_back().is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        let after_ok =
            code[end..].chars().next().is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Forbids iterating `HashMap`/`HashSet` bindings in non-test library
/// code: hash iteration order is not deterministic across runs, so loops
/// over it leak nondeterminism into anything they emit. Detection is
/// declaration-driven — a binding declared with a hash type anywhere in
/// the file is flagged wherever it is iterated (`.iter()`, `.keys()`,
/// `.values()`, `.into_iter()`, `.drain(`, or as a bare `for .. in`
/// operand). Membership tests and indexed lookups are untouched.
pub fn lint_nondeterministic_iteration(file: &str, src: &str) -> LintOutcome {
    let mut out = LintOutcome::default();
    let lines = strip_test_code(src);
    let names = hash_ordered_bindings(&lines);
    if names.is_empty() {
        return out;
    }
    for (idx, line) in lines.iter().enumerate() {
        let (code, comment) = split_comment(line);
        let hit = names.iter().find(|name| {
            ITER_METHOD_NEEDLES.iter().any(|m| mentions_ident(code, &format!("{name}{m}")))
                || (code.contains("for ")
                    && [format!("in {name}"), format!("in &{name}"), format!("in &mut {name}")]
                        .iter()
                        .any(|p| mentions_ident(code, p)))
        });
        let Some(name) = hit else { continue };
        let next_comment = lines.get(idx + 1).map(|l| l.trim()).filter(|l| l.starts_with("//"));
        let waiver = comment.contains(ITERATION_WAIVER)
            || next_comment.is_some_and(|c| c.contains(ITERATION_WAIVER));
        if waiver && !renders_artifacts(file) {
            out.waived += 1;
        } else if waiver {
            out.findings.push(Finding {
                file: file.to_string(),
                line: idx + 1,
                lint: "nondeterministic-iteration",
                message: format!(
                    "`{name}` is hash-ordered and this file renders committed/gated artifacts, \
                     so the waiver is refused; iterate a BTreeMap/BTreeSet or sort first"
                ),
            });
        } else {
            out.findings.push(Finding {
                file: file.to_string(),
                line: idx + 1,
                lint: "nondeterministic-iteration",
                message: format!(
                    "`{name}` is hash-ordered and its iteration order varies between runs; \
                     use a BTreeMap/BTreeSet or sort first, or waive with \
                     `// {ITERATION_WAIVER}` if the loop feeds an order-insensitive reduction"
                ),
            });
        }
    }
    out
}

/// True for files whose arithmetic runs inside hot numeric kernels —
/// the op implementations, aggregators, and the sparse/dense/parallel
/// primitives they call. Bookkeeping modules (tape, pool, optim,
/// metrics, audit) are out of scope: their casts count bytes and
/// indices, not graph-scale float data.
pub fn is_kernel_path(file: &str) -> bool {
    KERNEL_DIRS.iter().any(|d| file.starts_with(d)) || KERNEL_FILES.contains(&file)
}

/// Returns the target type of the first numeric `as` cast in a code
/// fragment, honouring identifier boundaries so `as f32` matches but
/// `as f32x8` (some hypothetical wider type) would not.
fn numeric_cast_target(code: &str) -> Option<&'static str> {
    let mut rest = code;
    while let Some(pos) = rest.find(" as ") {
        let after = &rest[pos + 4..];
        for ty in NUMERIC_CAST_TYPES {
            if let Some(tail) = after.strip_prefix(ty) {
                let bounded = tail.chars().next().is_none_or(|c| !c.is_alphanumeric() && c != '_');
                if bounded {
                    return Some(ty);
                }
            }
        }
        rest = after;
    }
    None
}

/// Flags `as` casts to a numeric type in kernel-path files (see
/// [`is_kernel_path`]): a silent `usize as f32` in an index-heavy kernel
/// rounds exactly where dataflow analysis cannot see it. A deliberate
/// site is waived with `// lint:allow(lossy-cast)` (trailing or on the
/// next line) after checking the value range genuinely fits the target.
pub fn lint_lossy_cast(file: &str, src: &str) -> LintOutcome {
    let mut out = LintOutcome::default();
    if !is_kernel_path(file) {
        return out;
    }
    let lines = strip_test_code(src);
    for (idx, line) in lines.iter().enumerate() {
        let (code, comment) = split_comment(line);
        let Some(ty) = numeric_cast_target(code) else { continue };
        let next_comment = lines.get(idx + 1).map(|l| l.trim()).filter(|l| l.starts_with("//"));
        if comment.contains(LOSSY_CAST_WAIVER)
            || next_comment.is_some_and(|c| c.contains(LOSSY_CAST_WAIVER))
        {
            out.waived += 1;
        } else {
            out.findings.push(Finding {
                file: file.to_string(),
                line: idx + 1,
                lint: "lossy-cast",
                message: format!(
                    "numeric `as {ty}` cast in a kernel path can silently truncate or round; \
                     prove the range fits and waive with `// {LOSSY_CAST_WAIVER}`"
                ),
            });
        }
    }
    out
}

const WAIVER_PREFIX: &str = concat!("lint:", "allow(");

/// Requires every `lint:allow(...)` waiver to carry a `-- reason` suffix:
///
/// ```text
/// // lint:allow(lossy-cast) -- nnz fits in f32's exact integer range
/// ```
///
/// A waiver without its reason is a finding. The rationale used to live in
/// free-form leading comments (or only in the author's head); the suffix
/// form makes it greppable, keeps it attached when rustfmt rewraps, and
/// lets reviewers audit every waived site with one search. This lint is
/// itself not waivable per-site — a waiver of the waiver-reason lint is
/// exactly the loophole it closes — and can only be disabled globally
/// (`xtask audit --allow-unreasoned-waivers`, for bulk migrations).
///
/// Doc comments (`///`, `//!`) are skipped: they *mention* waiver syntax,
/// they do not waive anything.
pub fn lint_waiver_reason(file: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let (_, comment) = split_comment(line);
        let trimmed = comment.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") {
            continue;
        }
        let mut rest = comment;
        while let Some(pos) = rest.find(WAIVER_PREFIX) {
            let after_open = &rest[pos + WAIVER_PREFIX.len()..];
            let Some(close) = after_open.find(')') else { break };
            let lint_name = &after_open[..close];
            let tail = after_open[close + 1..].trim_start();
            let reason_ok = tail
                .strip_prefix("--")
                .map(str::trim_start)
                .is_some_and(|r| !r.is_empty() && !r.starts_with(WAIVER_PREFIX));
            if !reason_ok {
                findings.push(Finding {
                    file: file.to_string(),
                    line: idx + 1,
                    lint: "waiver-reason",
                    message: format!(
                        "`{WAIVER_PREFIX}{lint_name})` waiver has no reason; append \
                         `-- <why this site is sound>`"
                    ),
                });
            }
            rest = &after_open[close + 1..];
        }
    }
    findings
}

/// Scans a Miri / ThreadSanitizer log for diagnostics. Each matching line
/// becomes a `sanitizer` finding, so `xtask audit --sanitizer-report`
/// fails exactly when the sanitizer run surfaced UB or a data race.
pub fn parse_sanitizer_log(file: &str, log: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in log.lines().enumerate() {
        if SANITIZER_PATTERNS.iter().any(|p| line.contains(p)) {
            findings.push(Finding {
                file: file.to_string(),
                line: idx + 1,
                lint: "sanitizer",
                message: line.trim().to_string(),
            });
        }
    }
    findings
}

/// Extracts every op name registered via `fn name(&self) -> &'static str`
/// from an autodiff source file, skipping `#[cfg(test)]` fixtures.
///
/// Only `impl Op for ...` blocks count: another trait may share the `name`
/// signature, and its names are not ops to cross-reference against the
/// gradcheck suite. The string literal is expected on the declaration line
/// or within the following two lines (rustfmt puts it on the next line).
pub fn extract_op_names(src: &str) -> Vec<String> {
    let lines = strip_test_code(src);
    let mut names = Vec::new();
    let mut in_op_impl = false;
    for (idx, line) in lines.iter().enumerate() {
        let (code, _) = split_comment(line);
        if code.contains("impl ") && code.contains(" for ") {
            in_op_impl = code.contains(" Op for ");
        } else if code.trim_start().starts_with("trait ") || code.contains(" trait ") {
            in_op_impl = false;
        }
        if !in_op_impl || !line.contains("fn name(&self) -> &'static str") {
            continue;
        }
        for probe in lines.iter().skip(idx).take(3) {
            if let Some(name) = first_string_literal(probe) {
                names.push(name);
                break;
            }
        }
    }
    names
}

fn first_string_literal(line: &str) -> Option<String> {
    let start = line.find('"')?;
    let rest = &line[start + 1..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Cross-references registered op names against the gradcheck property
/// suite: every op must appear as a `.{name}(` call in `grad_props_src`.
/// There is no exemption list: even the leaf ops (`input`, `param`) must
/// appear in the suite, pinning down that constants stay gradient-free
/// and parameters receive exact gradients.
pub fn lint_gradcheck_coverage(
    op_names: &[(String, String)],
    grad_props_file: &str,
    grad_props_src: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (file, name) in op_names {
        let call = format!(".{name}(");
        if !grad_props_src.contains(&call) {
            findings.push(Finding {
                file: file.clone(),
                line: 0,
                lint: "gradcheck-coverage",
                message: format!(
                    "op `{name}` has no finite-difference test: add a `{call}...)` case to \
                     {grad_props_file}"
                ),
            });
        }
    }
    findings
}

/// Requires `#![forbid(unsafe_code)]` in a crate root.
pub fn lint_forbid_unsafe(file: &str, src: &str) -> Vec<Finding> {
    if src.contains("#![forbid(unsafe_code)]") {
        Vec::new()
    } else {
        vec![Finding {
            file: file.to_string(),
            line: 0,
            lint: "forbid-unsafe",
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fixtures assemble forbidden tokens with `concat!` so this test
    // module never trips the very lints it exercises.

    #[test]
    fn clean_source_has_no_findings() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n";
        let out = lint_unwrap_expect("lib.rs", src);
        assert!(out.findings.is_empty());
        assert_eq!(out.waived, 0);
        assert!(lint_unseeded_rng("lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let src = concat!("fn f(x: Option<u32>) -> u32 {\n    x", ".unwrap", "()\n}\n");
        let out = lint_unwrap_expect("lib.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "no-unwrap");
        assert_eq!(out.findings[0].line, 2);
    }

    #[test]
    fn expect_in_library_code_is_flagged_and_waivable() {
        let bare = concat!("let v = x", ".expect", "(\"set by ctor\");\n");
        let out = lint_unwrap_expect("lib.rs", bare);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "no-expect");

        let waived =
            concat!("let v = x", ".expect", "(\"set by ctor\"); // ", "lint:allow", "(expect)\n");
        let out = lint_unwrap_expect("lib.rs", waived);
        assert!(out.findings.is_empty());
        assert_eq!(out.waived, 1);
    }

    #[test]
    fn waiver_on_the_next_line_counts() {
        // rustfmt pushes an overlong trailing comment below the statement.
        let src = concat!(
            "let v = some_long_call(a, b)",
            ".expect",
            "(\"set by ctor\");\n",
            "// ",
            "lint:allow",
            "(expect)\n",
        );
        let out = lint_unwrap_expect("lib.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.waived, 1);
    }

    #[test]
    fn waiver_must_be_in_a_comment() {
        let src = concat!("let m = \"", "lint:allow", "(expect)\"; let v = x", ".expect", "(m);\n");
        let out = lint_unwrap_expect("lib.rs", src);
        assert_eq!(out.findings.len(), 1, "a waiver inside a string literal must not count");
    }

    #[test]
    fn test_modules_are_exempt_from_unwrap_lint() {
        let src = concat!(
            "pub fn lib() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { Some(1)",
            ".unwrap",
            "(); }\n",
            "}\n",
        );
        let out = lint_unwrap_expect("lib.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn code_after_a_test_module_is_still_linted() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() {}\n",
            "}\n",
            "pub fn f(x: Option<u32>) -> u32 { x",
            ".unwrap",
            "() }\n",
        );
        let out = lint_unwrap_expect("lib.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].line, 5);
    }

    #[test]
    fn seeded_rng_violation_is_flagged() {
        // The acceptance fixture from the issue: introducing a
        // `thread_rng()` call must make the audit fail.
        let src = concat!("let mut rng = rand::", "thread", "_rng", "();\n");
        let findings = lint_unseeded_rng("lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "unseeded-rng");
        // Mentioning it in a comment is fine.
        let comment = concat!("// never call ", "thread", "_rng", " here\n");
        assert!(lint_unseeded_rng("lib.rs", comment).is_empty());
    }

    #[test]
    fn rng_lint_applies_to_test_code_too() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let r = SmallRng::",
            "from_",
            "entropy",
            "(); }\n",
            "}\n",
        );
        assert_eq!(lint_unseeded_rng("lib.rs", src).len(), 1);
    }

    #[test]
    fn op_names_are_extracted_from_impl_blocks() {
        let src = "impl Op for AddOp {\n    fn name(&self) -> &'static str {\n        \
                   \"add\"\n    }\n}\n";
        assert_eq!(extract_op_names(src), vec!["add".to_string()]);
    }

    #[test]
    fn non_op_trait_names_are_not_registered() {
        // Another trait's `name` shares the signature but is not an op.
        let src = "impl Scenario for Gemm {\n    fn name(&self) -> &'static str {\n        \
                   \"gemm-256\"\n    }\n}\nimpl Op for AddOp {\n    fn name(&self) -> \
                   &'static str {\n        \"add\"\n    }\n}\n";
        assert_eq!(extract_op_names(src), vec!["add".to_string()]);
    }

    #[test]
    fn test_fixture_ops_are_not_registered() {
        let src = "#[cfg(test)]\nmod tests {\n    impl Op for BrokenOp {\n        fn \
                   name(&self) -> &'static str {\n            \"broken\"\n        }\n    }\n}\n";
        assert!(extract_op_names(src).is_empty());
    }

    #[test]
    fn uncovered_op_fails_coverage_lint() {
        let ops = vec![
            ("ops/a.rs".to_string(), "add".to_string()),
            ("ops/b.rs".to_string(), "mystery".to_string()),
            ("tape.rs".to_string(), "input".to_string()),
        ];
        let tests = "fn case(t: &mut Tape) { let c = t.input(m); let y = t.add(x, c); }";
        let findings = lint_gradcheck_coverage(&ops, "grad_props.rs", tests);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("mystery"));
    }

    #[test]
    fn leaf_ops_are_not_exempt_from_coverage() {
        // The former exemption list for `input`/`param` is gone: leaf ops
        // without a case in the suite fail the lint like any other op.
        let ops = vec![
            ("tape.rs".to_string(), "input".to_string()),
            ("tape.rs".to_string(), "param".to_string()),
        ];
        let findings = lint_gradcheck_coverage(&ops, "grad_props.rs", "fn case() {}");
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn hash_map_iteration_is_flagged() {
        let src = concat!(
            "use std::collections::Hash",
            "Map;\n",
            "fn emit(counts: &Hash",
            "Map<String, u64>) {\n",
            "    for (k, v) in counts.iter() {\n",
            "        record(k, v);\n",
            "    }\n",
            "}\n",
        );
        let out = lint_nondeterministic_iteration("crates/core/src/report.rs", src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].lint, "nondeterministic-iteration");
        assert_eq!(out.findings[0].line, 3);
    }

    #[test]
    fn hash_set_for_loop_and_drain_are_flagged() {
        let src = concat!(
            "let mut seen = Hash",
            "Set::new();\n",
            "for id in &seen { push(id); }\n",
            "let drained: Vec<_> = seen.drain().collect();\n",
        );
        let out = lint_nondeterministic_iteration("lib.rs", src);
        assert_eq!(out.findings.len(), 2, "{:?}", out.findings);
    }

    #[test]
    fn hash_membership_and_btree_iteration_are_fine() {
        // Lookups on a hash map are order-free; BTreeMap iteration is
        // deterministic. Neither may trip the lint.
        let src = concat!(
            "let mut cache: Hash",
            "Map<u32, f32> = Hash",
            "Map::new();\n",
            "if cache.contains_key(&k) { return cache[&k]; }\n",
            "let ordered = std::collections::BTreeMap::new();\n",
            "for (k, v) in ordered.iter() { emit(k, v); }\n",
        );
        let out = lint_nondeterministic_iteration("lib.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn hash_iteration_waiver_and_test_modules_are_honoured() {
        let waived = concat!(
            "let total: u64 = counts.values().sum(); // ",
            "lint:allow",
            "(nondeterministic-iteration)\n",
            "fn f(counts: &Hash",
            "Map<String, u64>) {}\n",
        );
        let out = lint_nondeterministic_iteration("lib.rs", waived);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.waived, 1);

        let test_only = concat!(
            "pub fn lib() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(m: Hash",
            "Map<u32, u32>) { for k in m.keys() { use_it(k); } }\n",
            "}\n",
        );
        let out = lint_nondeterministic_iteration("lib.rs", test_only);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn artifact_rendering_files_refuse_the_iteration_waiver() {
        // The same waived line that passes in ordinary library code must
        // still be a finding in a file that renders committed/gated
        // artifacts: trace summaries and merged registries have no
        // order-insensitive loops.
        let waived = concat!(
            "let total: u64 = counts.values().sum(); // ",
            "lint:allow",
            "(nondeterministic-iteration)\n",
            "fn f(counts: &Hash",
            "Map<String, u64>) {}\n",
        );
        for file in ["crates/telemetry/src/trace.rs", "crates/telemetry/src/metrics.rs"] {
            let out = lint_nondeterministic_iteration(file, waived);
            assert_eq!(out.findings.len(), 1, "{file}: {:?}", out.findings);
            assert!(out.findings[0].message.contains("waiver is refused"), "{:?}", out.findings);
            assert_eq!(out.waived, 0);
        }
        let out = lint_nondeterministic_iteration("crates/core/src/train.rs", waived);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.waived, 1);
    }

    #[test]
    fn hash_binding_prefixes_do_not_confuse_the_lint() {
        // `counts_sorted` is a different binding than the hash-ordered
        // `counts`; identifier boundaries must be respected.
        let src = concat!(
            "let counts = Hash",
            "Map::new();\n",
            "let counts_sorted: Vec<_> = sorted(&counts);\n",
            "for (k, v) in counts_sorted.iter() { emit(k, v); }\n",
        );
        let out = lint_nondeterministic_iteration("lib.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn qualified_hash_paths_still_bind_the_name() {
        // `std::collections::HashSet` declarations must resolve to the
        // binding name, not get lost behind the `::` path separators.
        let src = concat!(
            "let mut seen = std::collections::Hash",
            "Set::new();\n",
            "for g in seen.iter() { emit(g); }\n",
        );
        let out = lint_nondeterministic_iteration("lib.rs", src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("seen"));
    }

    #[test]
    fn waiver_without_reason_is_flagged() {
        let bare = concat!("let v = x", ".expect", "(\"set\"); // ", "lint:allow", "(expect)\n");
        let findings = lint_waiver_reason("lib.rs", bare);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "waiver-reason");
        assert!(findings[0].message.contains("expect"));

        // Leading free-form reasons do not count: the suffix form is the
        // contract, so rationale stays attached to the waiver token.
        let leading = concat!("// set by ctor // ", "lint:allow", "(expect)\n");
        assert_eq!(lint_waiver_reason("lib.rs", leading).len(), 1);
    }

    #[test]
    fn waiver_with_reason_suffix_passes() {
        let src = concat!(
            "let v = x",
            ".expect",
            "(\"set\"); // ",
            "lint:allow",
            "(expect) -- set by the constructor\n",
        );
        assert!(lint_waiver_reason("lib.rs", src).is_empty());
        // Two waivers on one line each need their own reason.
        let double = concat!(
            "do_it(); // ",
            "lint:allow",
            "(expect) -- ctor invariant // ",
            "lint:allow",
            "(print) -- table output\n",
        );
        assert!(lint_waiver_reason("lib.rs", double).is_empty());
        let half = concat!(
            "do_it(); // ",
            "lint:allow",
            "(expect) -- ctor invariant // ",
            "lint:allow",
            "(print)\n",
        );
        assert_eq!(lint_waiver_reason("lib.rs", half).len(), 1);
    }

    #[test]
    fn waiver_reason_skips_doc_comments_and_strings() {
        // Doc comments mention the syntax without waiving anything.
        let doc = concat!("/// waive with `// ", "lint:allow", "(unwrap)`\n");
        assert!(lint_waiver_reason("lib.rs", doc).is_empty());
        let moddoc = concat!("//! e.g. `// ", "lint:allow", "(print)`\n");
        assert!(lint_waiver_reason("lib.rs", moddoc).is_empty());
        // Inside a string literal: the lint messages themselves quote the
        // waiver token; only comments count.
        let in_str = concat!("let m = \"waive with ", "lint:allow", "(print)\";\n");
        assert!(lint_waiver_reason("lib.rs", in_str).is_empty());
        // An empty reason is no reason.
        let empty = concat!("f(); // ", "lint:allow", "(unwrap) -- \n");
        assert_eq!(lint_waiver_reason("lib.rs", empty).len(), 1);
    }

    /// A kernel or artifact-rendering path that no longer exists is a
    /// lint entry that silently checks nothing: every listed file and
    /// directory must be present.
    #[test]
    fn every_kernel_lint_path_exists() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for file in KERNEL_FILES {
            assert!(root.join(file).is_file(), "KERNEL_FILES lists missing `{file}`");
            assert!(is_kernel_path(file));
        }
        for dir in KERNEL_DIRS {
            assert!(root.join(dir).is_dir(), "KERNEL_DIRS lists missing `{dir}`");
        }
        for file in ARTIFACT_RENDER_PATHS {
            assert!(root.join(file).is_file(), "ARTIFACT_RENDER_PATHS lists missing `{file}`");
            assert!(renders_artifacts(file));
        }
    }

    #[test]
    fn sanitizer_diagnostics_become_findings() {
        let log = concat!(
            "running 12 tests\n",
            "test parallel::tests::rows ... ok\n",
            "WARNING: ThreadSanitizer: data race (pid=421)\n",
            "  Write of size 4 at 0x7b04 by thread T2:\n",
            "error: Undefined Behavior: attempting a read under a protector\n",
        );
        let findings = parse_sanitizer_log("tsan.log", log);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.lint == "sanitizer"));
        assert_eq!(findings[0].line, 3);
        assert_eq!(findings[1].line, 5);

        let clean = "running 12 tests\ntest result: ok. 12 passed\n";
        assert!(parse_sanitizer_log("miri.log", clean).is_empty());
    }

    #[test]
    fn raw_thread_outside_parallel_module_is_flagged() {
        let src = concat!("    std::", "thread", "::spawn(|| work());\n");
        let findings = lint_raw_thread("crates/core/src/train.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "raw-thread");
        // The parallel module itself is the one allowed home.
        assert!(lint_raw_thread("crates/autodiff/src/parallel.rs", src).is_empty());
        // Mentions in comments do not count.
        let comment = concat!("// std::", "thread", " is forbidden here\n");
        assert!(lint_raw_thread("crates/core/src/train.rs", comment).is_empty());
    }

    #[test]
    fn print_in_library_code_is_flagged() {
        let src = concat!("fn report() { ", "eprintln", "!(\"done\"); }\n");
        let out = lint_no_print("crates/core/src/train.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "no-print");
        // Telemetry and xtask own console output; bin targets are
        // exempted by the caller, not here.
        assert!(lint_no_print("crates/telemetry/src/sink.rs", src).findings.is_empty());
        assert!(lint_no_print("crates/xtask/src/main.rs", src).findings.is_empty());
        // Mentions in comments (incl. doc comments) do not count.
        let comment = concat!("//! println", "!(\"example\");\n");
        assert!(lint_no_print("crates/core/src/lib.rs", comment).findings.is_empty());
    }

    #[test]
    fn print_waiver_and_test_modules_are_honoured() {
        let waived = concat!("println", "!(\"table\"); // ", "lint:allow", "(print)\n");
        let out = lint_no_print("crates/bench/src/lib.rs", waived);
        assert!(out.findings.is_empty());
        assert_eq!(out.waived, 1);

        let test_only = concat!(
            "pub fn lib() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { ",
            "println",
            "!(\"dbg\"); }\n",
            "}\n",
        );
        assert!(lint_no_print("crates/core/src/lib.rs", test_only).findings.is_empty());
    }

    #[test]
    fn missing_forbid_unsafe_is_flagged() {
        assert_eq!(lint_forbid_unsafe("lib.rs", "pub fn f() {}\n").len(), 1);
        assert!(lint_forbid_unsafe("lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n").is_empty());
    }

    #[test]
    fn lossy_cast_in_kernel_path_is_flagged() {
        let src = concat!("let w = 1.0 / (count", " as f32", ");\n");
        let out = lint_lossy_cast("crates/autodiff/src/ops/loss.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "lossy-cast");
        assert_eq!(out.findings[0].line, 1);
        // Bookkeeping modules and other crates are out of scope.
        assert!(lint_lossy_cast("crates/autodiff/src/tape.rs", src).findings.is_empty());
        assert!(lint_lossy_cast("crates/core/src/train.rs", src).findings.is_empty());
    }

    #[test]
    fn lossy_cast_waiver_comments_and_tests_are_honoured() {
        let waived = concat!(
            "let n = rows",
            " as f64",
            "; // counts stay far below 2^53 // ",
            "lint:allow",
            "(lossy-cast)\n",
        );
        let out = lint_lossy_cast("crates/gnn/src/agg/gat.rs", waived);
        assert!(out.findings.is_empty());
        assert_eq!(out.waived, 1);

        // Waiver on the continuation line (rustfmt wraps long comments).
        let next_line =
            concat!("let n = rows", " as f64", ";\n// ", "lint:allow", "(lossy-cast)\n",);
        assert_eq!(lint_lossy_cast("crates/gnn/src/agg/gat.rs", next_line).waived, 1);

        // Comment mentions and test modules do not count.
        let comment = concat!("// never write idx", " as f32", " here\n");
        assert!(lint_lossy_cast("crates/autodiff/src/sparse.rs", comment).findings.is_empty());
        let test_only = concat!(
            "pub fn lib() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() -> f32 { 3usize",
            " as f32",
            " }\n",
            "}\n",
        );
        assert!(lint_lossy_cast("crates/autodiff/src/matrix.rs", test_only).findings.is_empty());
    }

    #[test]
    fn lossy_cast_requires_an_identifier_boundary() {
        // A non-numeric cast target is not a finding.
        let boxed = concat!("let b = v", " as Box<dyn Op>;\n");
        assert!(lint_lossy_cast("crates/autodiff/src/ops/linalg.rs", boxed).findings.is_empty());
        // `usize` inside a longer identifier does not match.
        let ident = concat!("let x = y", " as usize_like;\n");
        assert!(lint_lossy_cast("crates/autodiff/src/ops/linalg.rs", ident).findings.is_empty());
        // A bare cast at end of line still matches.
        let eol = concat!("let x = y", " as usize", "\n");
        assert_eq!(lint_lossy_cast("crates/autodiff/src/ops/linalg.rs", eol).findings.len(), 1);
    }
}
