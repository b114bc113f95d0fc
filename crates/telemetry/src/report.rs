//! Search dashboards: re-derive the paper's search-dynamics views (SANE
//! ICDE 2021, Figs. 3–4) from a recorded run trace.
//!
//! [`Dashboard::from_records`] folds the typed `search.alpha` /
//! `search.epoch` rows of a trace validated by [`crate::trace::read`] — a
//! malformed trace is an error, never a half-empty chart — into:
//!
//! * **per-op softmax trajectories**: for every mixed op (`group`,
//!   `index`), the α softmax row per epoch,
//! * **entropy curves**: mean softmax entropy per α group per epoch
//!   (Fig. 3's collapse-of-uncertainty view),
//! * the **genotype timeline**: every derived-architecture change with
//!   the epoch it appeared,
//! * the **mixed-val curve**: the supernet validation metric per epoch
//!   (and the weight-step training loss when recorded).
//!
//! The dashboard serialises to JSON ([`Dashboard::to_json`]) for plotting
//! and renders aligned text tables ([`Dashboard::to_text`]) for terminals
//! and CI logs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{self, Event, Kind, Record, TraceSummary};
use crate::value::Value;

/// The α softmax trajectory of one mixed op across the search.
#[derive(Clone, Debug, PartialEq)]
pub struct AlphaTrajectory {
    /// α group (`node`, `skip`, `layer`).
    pub group: String,
    /// Mixed-op index within the group.
    pub index: usize,
    /// Epochs with a recorded row, in trace order.
    pub epochs: Vec<u64>,
    /// One softmax row per entry of `epochs`.
    pub probs: Vec<Vec<f64>>,
    /// Recorded softmax entropy per entry of `epochs`.
    pub entropy: Vec<f64>,
}

impl AlphaTrajectory {
    /// The final softmax row, if any epoch recorded one.
    pub fn final_probs(&self) -> Option<&[f64]> {
        self.probs.last().map(Vec::as_slice)
    }
}

/// Everything needed to redraw the search dashboards from one trace.
#[derive(Clone, Debug, Default)]
pub struct Dashboard {
    pub run: String,
    /// `(epoch, mixed-supernet validation metric)` per epoch.
    pub val_curve: Vec<(u64, f64)>,
    /// `(epoch, weight-step training loss)` where recorded (explore
    /// epochs skip the weight step, so this can be sparser).
    pub loss_curve: Vec<(u64, f64)>,
    /// One trajectory per mixed op, ordered by (group, index).
    pub trajectories: Vec<AlphaTrajectory>,
    /// Mean softmax entropy per α group per epoch.
    pub entropy_curves: BTreeMap<String, Vec<(u64, f64)>>,
    /// Distinct genotypes in first-seen order with their epoch.
    pub genotypes: Vec<(u64, String)>,
    /// The genotype the search settled on.
    pub final_genotype: Option<String>,
    /// Mean entropy per group at the last epoch that reported the group,
    /// as in [`TraceSummary::final_entropy`].
    pub final_entropy: BTreeMap<String, f64>,
}

/// Validates one JSONL trace (see [`trace::read`]) and builds its
/// dashboard.
pub fn dashboard(text: &str) -> Result<Dashboard, String> {
    trace::read(text).map(|records| Dashboard::from_records(&records))
}

impl Dashboard {
    /// Folds a validated trace into its dashboard.
    pub fn from_records(records: &[Record]) -> Dashboard {
        let summary = TraceSummary::from_records(records);
        let mut trajectories: BTreeMap<(&str, usize), AlphaTrajectory> = BTreeMap::new();
        let mut loss_curve = Vec::new();
        for rec in records {
            match &rec.kind {
                Kind::Event(Event::Alpha(row)) => {
                    let t = trajectories.entry((&row.group, row.index)).or_insert_with(|| {
                        AlphaTrajectory {
                            group: row.group.clone(),
                            index: row.index,
                            epochs: Vec::new(),
                            probs: Vec::new(),
                            entropy: Vec::new(),
                        }
                    });
                    t.epochs.push(row.epoch);
                    t.probs.push(row.probs.clone());
                    t.entropy.push(row.entropy);
                }
                Kind::Event(Event::Epoch(row)) => {
                    if let Some(loss) = row.loss_w {
                        loss_curve.push((row.epoch, loss));
                    }
                }
                _ => {}
            }
        }
        Dashboard {
            val_curve: summary.val_curve(),
            final_genotype: summary.final_genotype().map(str::to_string),
            run: summary.run,
            loss_curve,
            trajectories: trajectories.into_values().collect(),
            entropy_curves: trace::entropy_curves(records),
            genotypes: summary.genotypes,
            final_entropy: summary.final_entropy,
        }
    }
}

fn curve_to_json(curve: &[(u64, f64)]) -> Value {
    Value::Arr(
        curve.iter().map(|&(e, v)| Value::Arr(vec![Value::UInt(e), Value::Num(v)])).collect(),
    )
}

impl Dashboard {
    /// Serialises the full dashboard (trajectories included) to a JSON
    /// value; `.to_json().to_json()` gives the file text.
    pub fn to_json(&self) -> Value {
        let trajectories = self
            .trajectories
            .iter()
            .map(|t| {
                Value::Obj(vec![
                    ("group".into(), Value::Str(t.group.clone())),
                    ("index".into(), Value::UInt(t.index as u64)),
                    (
                        "epochs".into(),
                        Value::Arr(t.epochs.iter().map(|&e| Value::UInt(e)).collect()),
                    ),
                    (
                        "probs".into(),
                        Value::Arr(
                            t.probs
                                .iter()
                                .map(|row| Value::Arr(row.iter().map(|&p| Value::Num(p)).collect()))
                                .collect(),
                        ),
                    ),
                    (
                        "entropy".into(),
                        Value::Arr(t.entropy.iter().map(|&e| Value::Num(e)).collect()),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str("sane.dashboard.v1".into())),
            ("run".into(), Value::Str(self.run.clone())),
            ("val_curve".into(), curve_to_json(&self.val_curve)),
            ("loss_curve".into(), curve_to_json(&self.loss_curve)),
            (
                "entropy_curves".into(),
                Value::Obj(
                    self.entropy_curves
                        .iter()
                        .map(|(g, c)| (g.clone(), curve_to_json(c)))
                        .collect(),
                ),
            ),
            (
                "genotypes".into(),
                Value::Arr(
                    self.genotypes
                        .iter()
                        .map(|(e, g)| Value::Arr(vec![Value::UInt(*e), Value::Str(g.clone())]))
                        .collect(),
                ),
            ),
            (
                "final_genotype".into(),
                match &self.final_genotype {
                    Some(g) => Value::Str(g.clone()),
                    None => Value::Null,
                },
            ),
            (
                "final_entropy".into(),
                Value::Obj(
                    self.final_entropy.iter().map(|(g, &e)| (g.clone(), Value::Num(e))).collect(),
                ),
            ),
            ("trajectories".into(), Value::Arr(trajectories)),
        ])
    }

    /// Renders the dashboard as aligned text tables for terminals / CI.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "search dashboard for run `{}`", self.run);

        if !self.val_curve.is_empty() {
            let _ = writeln!(out, "\nmixed-supernet curve:");
            let _ = writeln!(out, "  {:>6} {:>10} {:>10}", "epoch", "val", "loss_w");
            let loss: BTreeMap<u64, f64> = self.loss_curve.iter().copied().collect();
            for &(e, v) in &self.val_curve {
                match loss.get(&e) {
                    Some(l) => {
                        let _ = writeln!(out, "  {e:>6} {v:>10.4} {l:>10.4}");
                    }
                    None => {
                        let _ = writeln!(out, "  {e:>6} {v:>10.4} {:>10}", "-");
                    }
                }
            }
        }

        if !self.entropy_curves.is_empty() {
            let groups: Vec<&String> = self.entropy_curves.keys().collect();
            let _ = writeln!(out, "\nalpha entropy (mean per epoch):");
            let mut header = format!("  {:>6}", "epoch");
            for g in &groups {
                let _ = write!(header, " {g:>10}");
            }
            let _ = writeln!(out, "{header}");
            let epochs: std::collections::BTreeSet<u64> =
                self.entropy_curves.values().flat_map(|c| c.iter().map(|&(e, _)| e)).collect();
            let by_group: BTreeMap<&String, BTreeMap<u64, f64>> =
                self.entropy_curves.iter().map(|(g, c)| (g, c.iter().copied().collect())).collect();
            for e in epochs {
                let mut row = format!("  {e:>6}");
                for g in &groups {
                    match by_group.get(*g).and_then(|c| c.get(&e)) {
                        Some(v) => {
                            let _ = write!(row, " {v:>10.4}");
                        }
                        None => {
                            let _ = write!(row, " {:>10}", "-");
                        }
                    }
                }
                let _ = writeln!(out, "{row}");
            }
        }

        if !self.genotypes.is_empty() {
            let _ = writeln!(out, "\ngenotype timeline:");
            for (e, g) in &self.genotypes {
                let _ = writeln!(out, "  epoch {e:>5}  {g}");
            }
        }

        if !self.trajectories.is_empty() {
            let _ = writeln!(out, "\nfinal softmax per mixed op:");
            for t in &self.trajectories {
                if let Some(probs) = t.final_probs() {
                    let cells: Vec<String> = probs.iter().map(|p| format!("{p:.3}")).collect();
                    let _ = writeln!(
                        out,
                        "  {:<10} [{}]",
                        format!("{}[{}]", t.group, t.index),
                        cells.join(", ")
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Level;
    use crate::recorder::{self, Recorder};
    use crate::sink::MemoryBuffer;

    /// The shared fixture: a small synthetic search trace with drifting α
    /// rows, recorded through the real recorder so it is exactly what
    /// `trace::summarize` validates.
    fn fixture_trace() -> String {
        let buf = MemoryBuffer::default();
        let guard = Recorder::new("fixture").with_memory(buf.clone()).install();
        {
            let _search = recorder::span("search");
            for epoch in 0..4i64 {
                let _e = recorder::span("search.epoch");
                // Two node ops drifting apart plus one skip op.
                let drift = 0.05 * epoch as f32;
                for (index, base) in [(0usize, 0.25f32), (1, 0.25)] {
                    let probs =
                        [base + drift, base - drift / 3.0, base - drift / 3.0, base - drift / 3.0];
                    emit_alpha(epoch, "node", index, &probs);
                }
                emit_alpha(epoch, "skip", 0, &[0.5, 0.5]);
                recorder::event(
                    Level::Info,
                    "search.epoch",
                    &[
                        ("epoch", Value::Int(epoch)),
                        ("val_metric", Value::Num(0.5 + 0.05 * epoch as f64)),
                        ("loss_w", Value::Num(2.0 - 0.1 * epoch as f64)),
                        ("genotype", Value::from(if epoch < 2 { "gcn" } else { "gat" })),
                    ],
                );
            }
        }
        drop(guard);
        let text = buf.borrow().clone();
        text
    }

    fn emit_alpha(epoch: i64, group: &'static str, index: usize, probs: &[f32]) {
        let entropy: f64 = probs
            .iter()
            .map(|&p| {
                let p = f64::from(p);
                if p > 0.0 {
                    -p * p.ln()
                } else {
                    0.0
                }
            })
            .sum();
        recorder::event(
            Level::Info,
            "search.alpha",
            &[
                ("epoch", Value::Int(epoch)),
                ("group", Value::from(group)),
                ("index", Value::UInt(index as u64)),
                ("probs", Value::from(probs)),
                ("entropy", Value::Num(entropy)),
            ],
        );
    }

    #[test]
    fn dashboard_matches_summarize_on_the_shared_fixture() {
        let text = fixture_trace();
        let summary = trace::summarize(&text).expect("fixture validates");
        let dash = dashboard(&text).expect("fixture dashboards");

        // The dashboard recomputes entropy and curves independently from
        // the α rows; both readers must agree exactly.
        assert_eq!(dash.final_entropy, summary.final_entropy);
        assert_eq!(dash.val_curve, summary.val_curve());
        assert_eq!(dash.genotypes, summary.genotypes);
        assert_eq!(dash.final_genotype.as_deref(), summary.final_genotype());

        // Every α row the validator counted is in exactly one trajectory.
        let rows: usize = dash.trajectories.iter().map(|t| t.epochs.len()).sum();
        assert_eq!(rows, summary.alpha_rows);
    }

    #[test]
    fn trajectories_track_probs_and_entropy_per_epoch() {
        let dash = dashboard(&fixture_trace()).expect("dashboard");
        assert_eq!(dash.trajectories.len(), 3, "node[0], node[1], skip[0]");
        let node0 =
            dash.trajectories.iter().find(|t| t.group == "node" && t.index == 0).expect("node[0]");
        assert_eq!(node0.epochs, vec![0, 1, 2, 3]);
        assert_eq!(node0.probs.len(), 4);
        // The first op's probability drifts upward in the fixture.
        let first = node0.probs.first().and_then(|r| r.first()).copied().unwrap_or(0.0);
        let last = node0.final_probs().and_then(|r| r.first()).copied().unwrap_or(0.0);
        assert!(last > first, "expected drift: {first} -> {last}");
        // Recorded entropy matches recomputation from the probs.
        for (row, &e) in node0.probs.iter().zip(&node0.entropy) {
            let recomputed: f64 =
                row.iter().map(|&p| if p > 0.0 { -p * p.ln() } else { 0.0 }).sum();
            assert!((recomputed - e).abs() < 1e-6, "{recomputed} vs {e}");
        }
        // Entropy falls as α sharpens.
        let curve = &dash.entropy_curves["node"];
        assert!(curve.first().map(|f| f.1) > curve.last().map(|l| l.1), "{curve:?}");
    }

    #[test]
    fn json_and_text_renderings_cover_the_dashboard() {
        let dash = dashboard(&fixture_trace()).expect("dashboard");
        let json = dash.to_json().to_json();
        let back = Value::parse(&json).expect("dashboard JSON parses");
        assert_eq!(back.get("run").and_then(Value::as_str), Some("fixture"));
        assert_eq!(back.get("trajectories").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
        assert_eq!(back.get("final_genotype").and_then(Value::as_str), Some("gat"));
        let text = dash.to_text();
        assert!(text.contains("mixed-supernet curve"), "{text}");
        assert!(text.contains("genotype timeline"), "{text}");
        assert!(text.contains("node[0]"), "{text}");
    }

    #[test]
    fn malformed_traces_are_rejected_not_half_rendered() {
        assert!(dashboard("").is_err());
        assert!(dashboard("not json").is_err());
    }
}
