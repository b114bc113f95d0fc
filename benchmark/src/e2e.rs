//! The end-to-end run: tracing off, repeated set-ups and searches, medians.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sane_telemetry::Value;

use crate::args::Args;
use crate::report::{self, numbers, Ledger};
use crate::stats::{median, quartiles};
use crate::workload::{self, Found, Method, Spec};

/// Timed set-up repeats: at least this many, then until `SETUP_BUDGET` is
/// spent or `MAX_SETUPS` is reached. Set-up takes well under a millisecond
/// on search-tiny's graph, so its median needs many samples to be steady.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET: Duration = Duration::from_millis(300);

/// The outcome of one end-to-end run.
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    pub ledger: Ledger,
    /// The `BENCH_<workload>.json` document.
    pub doc: Value,
}

pub fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let mut ledger = Ledger::default();

    let task = workload::setup(spec, args.seed);
    ledger.record("warm-up", workload::warm_up(&task, spec, args.seed));

    // Start another search while it is expected to end within `seconds`.
    // Always two: the second checks that the first repeats exactly.
    let mut search_s = Vec::new();
    let mut first: Option<Found> = None;
    let mut peak_rss_mib = None;
    let loop_start = Instant::now();
    while search_s.len() < 2
        || loop_start.elapsed().as_secs_f64() + median(&search_s) <= args.seconds
    {
        let (wall, found) =
            workload::run_search(&task, spec, args.seed, first.as_ref(), &mut ledger);
        search_s.push(wall);
        if first.is_none() {
            first = found;
        }
        // The peak is read after a fixed amount of work, the first two
        // searches: every further search raises it a little, and how many
        // fit in `seconds` depends on the host's speed.
        if search_s.len() == 2 {
            peak_rss_mib = Some(report::peak_rss_mib()?);
        }
    }

    // Set-up is timed after the searches, in a warm process: timed first
    // thing in a fresh process, search-tiny's set-up median varied twofold
    // between runs.
    let mut setup_s = Vec::new();
    let setup_start = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_start.elapsed() < SETUP_BUDGET && setup_s.len() < MAX_SETUPS)
    {
        let t = Instant::now();
        drop(workload::setup(spec, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Quality of the found architecture: the mean test metric of its
    // retrains, or the best random candidate's.
    let mut test_metrics = Vec::new();
    if let Some(found) = &first {
        match spec.method {
            Method::Sane { .. } => {
                for r in 0..spec.retrains as u64 {
                    let retrained = workload::retrain(&task, spec, &found.arch, args.seed, r);
                    if let Ok(m) = retrained {
                        test_metrics.push(m);
                    }
                    ledger.record("retrain", retrained.map(drop));
                }
            }
            Method::Random { .. } => test_metrics.extend(found.best_test),
        }
    }
    let test_metric = if test_metrics.is_empty() {
        f64::NAN
    } else {
        test_metrics.iter().sum::<f64>() / test_metrics.len() as f64
    };

    let mut values = BTreeMap::new();
    values.insert("setup_s".to_string(), median(&setup_s));
    values.insert("search_s".to_string(), median(&search_s));
    values.insert("peak_rss_mib".to_string(), peak_rss_mib.unwrap_or(f64::NAN));

    let samples = |xs: &[f64]| {
        let [q1, med, q3] = quartiles(xs);
        Value::Obj(vec![
            ("count".into(), Value::UInt(xs.len() as u64)),
            ("q1".into(), Value::Num(q1)),
            ("median".into(), Value::Num(med)),
            ("q3".into(), Value::Num(q3)),
        ])
    };
    let mut doc = report::run_header(args);
    doc.extend([
        ("metrics".into(), numbers(&values)),
        (
            "samples".into(),
            Value::Obj(vec![
                ("setup_s".into(), samples(&setup_s)),
                ("search_s".into(), samples(&search_s)),
            ]),
        ),
        ("search_s".into(), Value::Arr(search_s.iter().map(|&s| Value::Num(s)).collect())),
        ("test_metric".into(), Value::Num(test_metric)),
        ("test_metric_floor".into(), Value::Num(workload::quality_floor(&task))),
        ("genotype".into(), first.as_ref().map_or(Value::Null, |f| Value::Str(f.arch.describe()))),
        ("attempted".into(), Value::UInt(ledger.attempted())),
        ("failed".into(), Value::UInt(ledger.failed())),
        (
            "failures".into(),
            Value::Arr(ledger.failures().iter().map(|f| Value::Str(f.clone())).collect()),
        ),
    ]);
    Ok(Outcome { values, ledger, doc: Value::Obj(doc) })
}
