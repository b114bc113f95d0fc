//! The SANE benchmark: times the paper's cost unit, a whole architecture
//! search, on four workloads, and in a separate traced run breaks that
//! time down layer by layer, from search epoch to kernel.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload search-cora [--seed 7] [--seconds 20] [--trace 0|1] [--out .bench_out]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` in this directory.

#![forbid(unsafe_code)]

mod args;
mod e2e;
mod ladder;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &args::Args) -> Result<String, String> {
    let spec = args.workload.spec();
    // The kernels read SANE_NUM_THREADS once, at their first call; set it
    // before any, so the workload runs the production threading path.
    std::env::set_var("SANE_NUM_THREADS", workload::THREADS.to_string());
    let threads = sane_autodiff::parallel::num_threads();
    if threads != workload::THREADS {
        return Err(format!("worker count is {threads}, expected {}", workload::THREADS));
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let name = args.workload.name();
    if args.trace {
        let outcome = ladder::run(args, &spec)?;
        let defs = report::per_layer();
        report::print_metrics(&defs, &outcome.values);
        report::write_json(&args.out.join(format!("LAYERS_{name}.json")), outcome.doc)?;
        for broken in &outcome.broken_rungs {
            eprintln!("benchmark: ladder check failed: {broken}");
        }
        let line = report::result_line(
            &defs,
            &outcome.values,
            &outcome.ledger,
            outcome.broken_rungs.is_empty(),
        )?;
        if outcome.broken_rungs.is_empty() {
            Ok(line)
        } else {
            println!("{line}");
            Err(format!("{} ladder check(s) failed", outcome.broken_rungs.len()))
        }
    } else {
        let outcome = e2e::run(args, &spec)?;
        let defs = report::end_to_end();
        report::print_metrics(&defs, &outcome.values);
        report::write_json(&args.out.join(format!("BENCH_{name}.json")), outcome.doc)?;
        report::result_line(&defs, &outcome.values, &outcome.ledger, true)
    }
}
