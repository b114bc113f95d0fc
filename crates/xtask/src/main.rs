//! Workspace automation: `cargo run -p xtask -- <command>`.
//!
//! * `audit`  — run the custom source lints (see [`lints`]) over every
//!   first-party crate. Exits non-zero on any finding.
//! * `fmt`    — drive `cargo fmt --check` over the first-party crates.
//! * `clippy` — drive `cargo clippy -D warnings` over the first-party
//!   crates (vendored stand-ins under `vendor/` are excluded).
//! * `ci`     — `audit` + `fmt` + `clippy`, first failure wins.
//! * `trace-report [TRACE.jsonl]` — validate and summarise a telemetry
//!   run trace (see `sane_telemetry::trace`); with no argument the
//!   newest `results/TRACE_*.jsonl` is picked. Exits non-zero on a
//!   malformed trace.
//! * `profile <TRACE.jsonl>` — per-phase/per-kernel time attribution:
//!   prints the attribution tables and writes the collapsed-stack
//!   flamegraph (`FLAME_<run>.txt`) and search-dashboard JSON
//!   (`DASH_<run>.json`) next to the trace.
//! * `perf`   — the benchmark's regression gate (see [`perf`]):
//!   `--quick` runs `BENCHMARK.json`'s command for every workload, once
//!   end to end and once with `--trace 1`, for one gate window of rounds,
//!   failing on a non-zero exit or `"correct":false`, and appends one line
//!   per workload per round to `results/BENCH_history.jsonl`. `--check`
//!   gates each `<workload>/<metric>` window median against
//!   `results/BENCH_baseline.json` at a tolerance derived from the
//!   metric's measured noise and exits non-zero on a regression or a
//!   missing metric. `--seed-baseline` recomputes the baseline (median and
//!   MAD) from the history. `--history <file>` and `--baseline <file>`
//!   point the gate at other copies.
//!
//! Correctness checks — tape audits (every op's shape rule, the supernet,
//! derived-model and search-space tapes), bitwise determinism across
//! 1/2/4 threads, concurrent-worker traces — are tests and run under
//! `cargo test`, not here.
//!
//! `audit` additionally accepts `--sanitizer-report <log>` (repeatable):
//! each file is scanned for Miri / ThreadSanitizer diagnostics, which are
//! folded into the findings so nightly sanitizer jobs gate through the
//! same audit exit code.
//!
//! The vendored dependency stand-ins under `vendor/` are deliberately out
//! of scope: they imitate external crates and are not held to this
//! workspace's conventions.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use sane_telemetry::profile::Profile;
use sane_telemetry::report::Dashboard;
use sane_telemetry::trace::TraceSummary;
use xtask::perf;

use xtask::lints::{
    extract_op_names, lint_forbid_unsafe, lint_gradcheck_coverage, lint_lossy_cast, lint_no_print,
    lint_nondeterministic_iteration, lint_raw_thread, lint_unseeded_rng, lint_unwrap_expect,
    lint_waiver_reason, parse_sanitizer_log, Finding,
};

/// First-party packages, used to scope the fmt/clippy drivers.
const PACKAGES: [&str; 10] = [
    "sane",
    "sane-telemetry",
    "sane-autodiff",
    "sane-graph",
    "sane-data",
    "sane-gnn",
    "sane-core",
    "sane-align",
    "sane-bench",
    "xtask",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("audit") => audit(&root, &args[1..]),
        Some("fmt") => cargo_driver(&root, &["fmt", "--check"]),
        Some("clippy") => clippy(&root),
        Some("ci") => {
            let steps =
                [audit(&root, &[]), cargo_driver(&root, &["fmt", "--check"]), clippy(&root)];
            steps.into_iter().find(|c| *c != ExitCode::SUCCESS).unwrap_or(ExitCode::SUCCESS)
        }
        Some("trace-report") => trace_report(&root, args.get(1).map(String::as_str)),
        Some("profile") => profile_cmd(&root, &args[1..]),
        Some("perf") => perf_cmd(&root, &args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <audit [--sanitizer-report <log>] \
                 [--allow-unreasoned-waivers]|fmt|clippy|ci|\
                 trace-report [file]|\
                 profile <file>|\
                 perf [--quick] [--check] [--seed-baseline] [--history <file>] \
                 [--baseline <file>]>"
            );
            ExitCode::from(2)
        }
    }
}

/// Profiles a run trace: attribution tables to stdout, collapsed-stack
/// flamegraph and dashboard JSON written next to the trace file.
fn profile_cmd(root: &Path, args: &[String]) -> ExitCode {
    let mut trace: Option<PathBuf> = None;
    for arg in args {
        match arg.as_str() {
            other if trace.is_none() && !other.starts_with('-') => {
                let p = Path::new(other);
                trace = Some(if p.is_absolute() { p.to_path_buf() } else { root.join(p) });
            }
            other => {
                eprintln!("xtask profile: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(trace) = trace else {
        eprintln!("usage: cargo run -p xtask -- profile <TRACE.jsonl>");
        return ExitCode::from(2);
    };

    let records = match sane_telemetry::trace::read_file(&trace) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("xtask profile: {}: {e}", trace.display());
            return ExitCode::FAILURE;
        }
    };
    let profile = Profile::from_records(&records);
    println!("{profile}");
    let out_dir = trace.parent().unwrap_or(root);

    let collapsed = profile.to_collapsed();
    if let Err(e) = sane_telemetry::profile::parse_collapsed(&collapsed) {
        eprintln!("xtask profile: emitted collapsed stacks do not re-parse: {e}");
        return ExitCode::FAILURE;
    }
    let flame = out_dir.join(format!("FLAME_{}.txt", profile.run));
    if let Err(e) = std::fs::write(&flame, collapsed) {
        eprintln!("xtask profile: cannot write {}: {e}", flame.display());
        return ExitCode::FAILURE;
    }
    println!("[saved {}]", flame.display());

    let dash = Dashboard::from_records(&records);
    let dash_path = out_dir.join(format!("DASH_{}.json", profile.run));
    if let Err(e) = std::fs::write(&dash_path, dash.to_json().to_json()) {
        eprintln!("xtask profile: cannot write {}: {e}", dash_path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", dash.to_text());
    println!("[saved {}]", dash_path.display());

    println!(
        "attributed {:.1}% of wall time to named spans",
        profile.attributed_fraction() * 100.0
    );
    ExitCode::SUCCESS
}

/// The perf gate driver: optionally runs one gate window of benchmark
/// rounds, then seeds or checks the baseline from the accumulated history.
fn perf_cmd(root: &Path, args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut check = false;
    let mut seed = false;
    let mut history_path = root.join("results").join("BENCH_history.jsonl");
    let mut baseline_path = root.join("results").join("BENCH_baseline.json");
    let resolve = |v: &str| {
        let p = Path::new(v);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            root.join(p)
        }
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--seed-baseline" => seed = true,
            "--history" => {
                let Some(v) = it.next() else {
                    eprintln!("xtask perf: --history needs a path");
                    return ExitCode::from(2);
                };
                history_path = resolve(v);
            }
            "--baseline" => {
                let Some(v) = it.next() else {
                    eprintln!("xtask perf: --baseline needs a path");
                    return ExitCode::from(2);
                };
                baseline_path = resolve(v);
            }
            other => {
                eprintln!("xtask perf: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let run = || -> Result<bool, String> {
        let manifest = load_manifest(root)?;
        if quick {
            run_bench_rounds(root, &manifest, &history_path)?;
        }
        let history = perf::parse_history(&read_text(&history_path)?)?;
        eprintln!("xtask perf: {} history record(s) in {}", history.len(), history_path.display());
        if seed {
            let baseline = perf::seed_baseline(&history, &manifest)?;
            std::fs::write(&baseline_path, perf::baseline_to_json(&baseline))
                .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
            println!("seeded {} metric(s) -> {}", baseline.len(), baseline_path.display());
            return Ok(true);
        }
        let baseline = perf::parse_baseline(&read_text(&baseline_path)?)?;
        let report = perf::gate(&history, &baseline, &manifest);
        println!("{report}");
        Ok(report.passed())
    };
    match run() {
        Ok(passed) if passed || !check => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("xtask perf: PERF GATE FAILED against {}", baseline_path.display());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Reads and parses `BENCHMARK.json` at the workspace root.
fn load_manifest(root: &Path) -> Result<perf::Manifest, String> {
    perf::parse_manifest(&read_text(&root.join("BENCHMARK.json"))?)
}

/// Runs one gate window of rounds: each round runs every workload once
/// end to end and once traced, with the manifest's own command, and
/// appends one history line per workload holding both runs' metrics. Any
/// run that exits non-zero or prints `"correct":false` fails the rounds.
fn run_bench_rounds(
    root: &Path,
    manifest: &perf::Manifest,
    history_path: &Path,
) -> Result<(), String> {
    let Some((program, base_args)) = manifest.command.split_first() else {
        return Err("BENCHMARK.json: `command` is empty".into());
    };
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history_path)
        .map_err(|e| format!("cannot open {}: {e}", history_path.display()))?;
    for round in 1..=perf::WINDOW {
        for w in &manifest.workloads {
            let mut metrics = std::collections::BTreeMap::new();
            for trace in ["0", "1"] {
                eprintln!("xtask perf: round {round}/{}: {w} --trace {trace}", perf::WINDOW);
                let mut cmd = Command::new(program);
                // The run's diagnostics (failed searches, broken ladder
                // rungs) go to stderr; only stdout is parsed.
                cmd.current_dir(root).args(base_args).stderr(Stdio::inherit());
                cmd.args(["--workload", w, "--seconds", "1", "--trace", trace, "--out", "results"]);
                let out = cmd.output().map_err(|e| format!("cannot launch {cmd:?}: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                if !out.status.success() {
                    let last = stdout.lines().last().unwrap_or("");
                    return Err(format!(
                        "`{w}` --trace {trace} exited with {}: {last}",
                        out.status
                    ));
                }
                let result = perf::parse_result(&stdout)
                    .map_err(|e| format!("`{w}` --trace {trace}: {e}"))?;
                if !result.correct {
                    return Err(format!("`{w}` --trace {trace} printed \"correct\":false"));
                }
                metrics.extend(result.metrics);
            }
            let unix_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
            writeln!(file, "{}", perf::history_line(w, unix_ms, &metrics))
                .map_err(|e| format!("cannot append to {}: {e}", history_path.display()))?;
        }
    }
    Ok(())
}

/// Validates a JSONL run trace and prints its summary. A malformed trace
/// (parse error, non-monotone clock, unbalanced spans, invalid α rows…)
/// exits non-zero.
fn trace_report(root: &Path, arg: Option<&str>) -> ExitCode {
    let results_dir = root.join("results");
    let list_available = || {
        let traces = sane_telemetry::trace::list_traces(&results_dir);
        if traces.is_empty() {
            eprintln!(
                "xtask trace-report: no TRACE_*.jsonl under {}; record one with \
                 `cargo xtask perf --quick`",
                results_dir.display()
            );
        } else {
            eprintln!("xtask trace-report: available traces:");
            for t in traces {
                eprintln!("  {}", t.display());
            }
        }
    };
    let path = match arg {
        Some(arg) => {
            let p = Path::new(arg);
            if p.is_absolute() {
                p.to_path_buf()
            } else {
                root.join(p)
            }
        }
        // No argument: the run you just recorded.
        None => match sane_telemetry::trace::newest_trace(&results_dir) {
            Some(p) => {
                eprintln!("xtask trace-report: defaulting to newest trace {}", p.display());
                p
            }
            None => {
                list_available();
                return ExitCode::from(2);
            }
        },
    };
    if !path.is_file() {
        eprintln!("xtask trace-report: no such trace: {}", path.display());
        list_available();
        return ExitCode::FAILURE;
    }
    match sane_telemetry::trace::read_file(&path) {
        Ok(records) => {
            println!("{}", TraceSummary::from_records(&records));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask trace-report: {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_path_buf(),
        None => manifest,
    }
}

fn read(path: &Path) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            // Unreadable sources fail the audit loudly rather than being
            // silently skipped.
            eprintln!("xtask: cannot read {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// Collects `.rs` files under `dir` recursively, sorted for stable output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `true` for files under a `src/bin/` directory: binary entry points are
/// drivers, not library code, so the unwrap/expect lint skips them.
fn is_bin_target(rel: &Path) -> bool {
    let comps: Vec<_> = rel.components().map(|c| c.as_os_str().to_string_lossy()).collect();
    comps.windows(2).any(|w| w[0] == "src" && w[1] == "bin")
}

fn audit(root: &Path, args: &[String]) -> ExitCode {
    let mut sanitizer_reports: Vec<PathBuf> = Vec::new();
    let mut allow_unreasoned_waivers = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--allow-unreasoned-waivers" => allow_unreasoned_waivers = true,
            "--sanitizer-report" => {
                let Some(v) = it.next() else {
                    eprintln!("xtask audit: --sanitizer-report needs a path");
                    return ExitCode::from(2);
                };
                let p = Path::new(v);
                sanitizer_reports.push(if p.is_absolute() {
                    p.to_path_buf()
                } else {
                    root.join(p)
                });
            }
            other => {
                eprintln!("xtask audit: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    // Crate source roots: every first-party crate plus the root package.
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        eprintln!("xtask: no crates/ directory under {}", root.display());
        return ExitCode::from(2);
    };
    let mut crates: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    crates.sort();
    crate_dirs.extend(crates.into_iter().filter(|p| p.is_dir()));
    crate_dirs.push(root.to_path_buf());

    let mut findings: Vec<Finding> = Vec::new();
    let mut waived_expect = 0usize;
    let mut waived_print = 0usize;
    let mut waived_iteration = 0usize;
    let mut waived_cast = 0usize;
    let mut scanned = 0usize;
    let mut op_registry: Vec<(String, String)> = Vec::new();

    for dir in &crate_dirs {
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        rust_files(&dir.join("tests"), &mut files);
        rust_files(&dir.join("benches"), &mut files);
        let autodiff = dir.file_name().is_some_and(|n| n == "autodiff");

        for path in files {
            let rel_root = path.strip_prefix(root).unwrap_or(&path);
            let rel_crate = path.strip_prefix(dir).unwrap_or(&path);
            let name = rel_root.display().to_string();
            let src = read(&path);
            scanned += 1;

            // Unseeded RNG is forbidden everywhere, tests included.
            findings.extend(lint_unseeded_rng(&name, &src));

            // Every waiver must state its reason. Not waivable per-site;
            // --allow-unreasoned-waivers turns it off globally for bulk
            // migrations.
            if !allow_unreasoned_waivers {
                findings.extend(lint_waiver_reason(&name, &src));
            }

            // Raw threading is forbidden outside the autodiff parallel
            // module, tests included.
            findings.extend(lint_raw_thread(&name, &src));

            // unwrap/expect and raw prints: non-test library code only.
            let in_src = rel_crate.starts_with("src");

            // Hash-order iteration in emitting (non-test src) paths breaks
            // run-to-run reproducibility; bin drivers emit output too.
            if in_src {
                let out = lint_nondeterministic_iteration(&name, &src);
                findings.extend(out.findings);
                waived_iteration += out.waived;

                // Numeric `as` casts in kernel paths silently round; the
                // lint scopes itself to kernel files internally.
                let out = lint_lossy_cast(&name, &src);
                findings.extend(out.findings);
                waived_cast += out.waived;
            }

            if in_src && !is_bin_target(rel_crate) {
                let out = lint_unwrap_expect(&name, &src);
                findings.extend(out.findings);
                waived_expect += out.waived;
                let out = lint_no_print(&name, &src);
                findings.extend(out.findings);
                waived_print += out.waived;
            }

            // Op registry for the coverage cross-reference.
            if autodiff && in_src {
                for op in extract_op_names(&src) {
                    op_registry.push((name.clone(), op));
                }
            }
        }

        // Crate roots must forbid unsafe code.
        for entry in ["src/lib.rs", "src/main.rs"] {
            let path = dir.join(entry);
            if path.is_file() {
                let name = path.strip_prefix(root).unwrap_or(&path).display().to_string();
                findings.extend(lint_forbid_unsafe(&name, &read(&path)));
            }
        }
    }

    // Every registered op needs a finite-difference test.
    let grad_props = root.join("crates/autodiff/tests/grad_props.rs");
    if grad_props.is_file() {
        findings.extend(lint_gradcheck_coverage(
            &op_registry,
            "crates/autodiff/tests/grad_props.rs",
            &read(&grad_props),
        ));
    } else {
        findings.push(Finding {
            file: "crates/autodiff/tests/grad_props.rs".to_string(),
            line: 0,
            lint: "gradcheck-coverage",
            message: "gradient property suite is missing".to_string(),
        });
    }

    // Sanitizer logs (Miri / ThreadSanitizer) from nightly CI jobs are
    // folded into the same findings stream, so one exit code gates both.
    let mut sanitizer_findings = 0usize;
    for report in &sanitizer_reports {
        let name = report.strip_prefix(root).unwrap_or(report).display().to_string();
        let log = read(report);
        let parsed = parse_sanitizer_log(&name, &log);
        sanitizer_findings += parsed.len();
        findings.extend(parsed);
    }

    for f in &findings {
        eprintln!("{f}");
    }
    eprintln!(
        "xtask audit: {} file(s), {} registered op(s), {} finding(s), {} waived site(s) \
         ({} lint:allow(print), {} lint:allow(unwrap/expect), \
         {} lint:allow(nondeterministic-iteration), {} lint:allow(lossy-cast)), \
         0 gradcheck-coverage exemption(s), \
         {} sanitizer report(s) ({} sanitizer finding(s))",
        scanned,
        op_registry.len(),
        findings.len(),
        waived_expect + waived_print + waived_iteration + waived_cast,
        waived_print,
        waived_expect,
        waived_iteration,
        waived_cast,
        sanitizer_reports.len(),
        sanitizer_findings
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `cargo <args>` scoped to the first-party packages.
fn cargo_driver(root: &Path, args: &[&str]) -> ExitCode {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(root);
    cmd.arg(args[0]);
    for p in PACKAGES {
        cmd.args(["-p", p]);
    }
    cmd.args(&args[1..]);
    run(cmd)
}

fn clippy(root: &Path) -> ExitCode {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(root);
    cmd.arg("clippy");
    for p in PACKAGES {
        cmd.args(["-p", p]);
    }
    cmd.args(["--all-targets", "--", "-D", "warnings"]);
    run(cmd)
}

fn run(mut cmd: Command) -> ExitCode {
    eprintln!("xtask: running {cmd:?}");
    match cmd.status() {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask: failed to launch {cmd:?}: {e}");
            ExitCode::from(2)
        }
    }
}
