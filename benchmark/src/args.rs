//! Command-line parsing. Everything arrives from outside the program, so
//! every flag and value is checked here and converted to typed fields.

use std::path::PathBuf;

use crate::workload::Workload;

pub const USAGE: &str =
    "usage: benchmark --workload <search-cora|search-ppi|search-tiny|random-cora> \
     [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <dir>]";

/// One invocation's settings.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    /// Drives dataset generation, the search seed and the retrain seeds.
    pub seed: u64,
    /// How long the end-to-end loop keeps starting new searches.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory for `BENCH_*`, `TRACE_*` and `LAYERS_*` files.
    pub out: PathBuf,
}

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                };
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn accepts_a_full_command_line() {
        let a = parse_str("--workload search-ppi --seed 11 --seconds 16 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::SearchPpi);
        assert_eq!((a.seed, a.seconds, a.trace), (11, 16.0, true));
        let a = parse_str("--workload random-cora --trace 0 --out o").unwrap();
        assert_eq!((a.seed, a.trace, a.out), (7, false, PathBuf::from("o")));
    }

    #[test]
    fn rejects_unknown_workload() {
        let err = parse_str("--workload search-pubmed").unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = parse_str("--workload search-tiny --fast").unwrap_err();
        assert!(err.contains("unknown argument `--fast`"), "{err}");
    }

    #[test]
    fn rejects_bad_values() {
        for bad in [
            "--workload search-tiny --seed -1",
            "--workload search-tiny --seconds 0",
            "--workload search-tiny --seconds nan",
            "--workload search-tiny --trace yes",
            "--workload search-tiny --seed",
            "--seed 3",
        ] {
            assert!(parse_str(bad).is_err(), "accepted `{bad}`");
        }
    }
}
