//! The recorder's metric registry: counters, gauges, summaries and
//! log-bucketed latency histograms.
//!
//! Metrics accumulate silently on the active recorder and are written out
//! as one `metrics` record per [`crate::flush_metrics`] call (the search
//! and train loops flush once per run; benches flush per scenario). High
//! rate sources — the kernel timing hooks in `sane_autodiff::parallel` —
//! therefore cost a map update, not a trace record, per sample.
//!
//! Since the cross-thread recorder refactor every attached worker owns a
//! private `MetricSet` buffer that is [`MetricSet::merge`]d into the run's
//! shared registry on detach. Merging is commutative for counters, gauges
//! (max), extremes and **histogram bucket counts**; only the floating
//! `sum` fields depend on merge order (addition is not associative in
//! f64), which is why determinism checks compare buckets, not sums.

use std::collections::BTreeMap;

use crate::value::Value;

/// Summary statistics of one stream of samples.
///
/// Non-finite or negative samples would poison `min`/`max`/`sum` for the
/// rest of the run, so they are skipped and counted in `dropped` instead
/// (the recorder emits one `telemetry.bad_sample` warning per run).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// NaN/negative samples rejected by [`Summary::record`].
    pub dropped: u64,
}

impl Summary {
    /// Records one sample; returns `false` (and counts it as dropped)
    /// when the sample is NaN, infinite or negative.
    pub fn record(&mut self, v: f64) -> bool {
        if !v.is_finite() || v < 0.0 {
            self.dropped += 1;
            return false;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        true
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds another summary of the same stream into this one (worker
    /// detach). Order-independent except for the f64 `sum`.
    pub fn merge(&mut self, other: &Summary) {
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.dropped += other.dropped;
    }

    fn to_value(self) -> Value {
        Value::Obj(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("sum".to_string(), Value::Num(self.sum)),
            ("min".to_string(), Value::Num(self.min)),
            ("max".to_string(), Value::Num(self.max)),
            ("mean".to_string(), Value::Num(self.mean())),
            ("dropped".to_string(), Value::UInt(self.dropped)),
        ])
    }

    /// Inverse of `to_value`; the derived `mean` is not read back.
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Summary {
            count: u64_at(v, "count")?,
            sum: f64_at(v, "sum")?,
            min: f64_at(v, "min")?,
            max: f64_at(v, "max")?,
            dropped: u64_at(v, "dropped")?,
        })
    }
}

/// A required non-negative integer field of a rendered metric.
fn u64_at(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing or malformed `{key}`"))
}

/// A required number field of a rendered metric; `null` is how the writer
/// renders a non-finite value.
fn f64_at(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(number).ok_or_else(|| format!("missing or malformed `{key}`"))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Null => Some(f64::NAN),
        v => v.as_f64(),
    }
}

/// Sub-buckets per power-of-two octave: 8, so a bucket spans at most
/// 1/8th of its octave and a quantile read off a bucket edge carries at
/// most ~12.5% relative error.
const SUB_BITS: u32 = 3;
const SUBS: u64 = 1 << SUB_BITS;

/// Worst-case relative error of a quantile read back from the histogram:
/// a bucket spans at most 1/[`SUBS`]th of its octave, so any value inside
/// reads back within ~12.5% of its true magnitude. Consumers comparing
/// quantiles across runs (the trace differ) treat shifts inside this band
/// as bucket-resolution noise, not signal.
pub const QUANTILE_REL_ERROR: f64 = 1.0 / SUBS as f64;

/// Log-bucketed latency histogram (HDR-style). Each power-of-two octave
/// of the sample magnitude is split into [`SUBS`] linear sub-buckets, so
/// bucketing a sample is a handful of integer ops with no configuration:
/// the same histogram covers nanosecond kernels and second-long trials.
/// Buckets are **unit-agnostic** pure magnitudes; callers record whatever
/// unit the stream's name declares (`.ns` streams record nanoseconds).
///
/// Buckets hold sample *counts*, which makes cross-worker merges exact
/// and order-independent — the property the multi-thread determinism
/// tests rely on, and the reason workers ship buckets instead of raw
/// sample vectors (bounded memory, commutative merge).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    dropped: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Sparse bucket index → sample count. Index 511 is the ceiling for
    /// u64-range magnitudes (octave 63), so u16 never saturates.
    buckets: BTreeMap<u16, u64>,
}

/// Bucket index of a magnitude: `octave * SUBS + sub` where `octave` is
/// `floor(log2(v))` and `sub` the top [`SUB_BITS`] mantissa bits below
/// the leading one. Samples below 1 share bucket 0.
fn bucket_index(v: f64) -> u16 {
    if v < 2.0 {
        return 0;
    }
    let b = if v >= u64::MAX as f64 { u64::MAX } else { v as u64 };
    let octave = 63 - u64::from(b.leading_zeros());
    let sub = if octave <= u64::from(SUB_BITS) {
        b - (1 << octave)
    } else {
        (b >> (octave - u64::from(SUB_BITS))) - SUBS
    };
    (octave * SUBS + sub) as u16
}

/// Exclusive upper edge of a bucket, computed in f64 (the top octaves
/// would overflow u64).
fn bucket_upper(idx: u16) -> f64 {
    let octave = u64::from(idx) / SUBS;
    let sub = u64::from(idx) % SUBS;
    if octave <= u64::from(SUB_BITS) {
        ((1 << octave) + sub + 1) as f64
    } else {
        (SUBS + sub + 1) as f64 * f64::exp2((octave - u64::from(SUB_BITS)) as f64)
    }
}

impl Histogram {
    /// Records one sample; returns `false` (and counts it as dropped)
    /// when the sample is NaN, infinite or negative.
    pub fn record(&mut self, v: f64) -> bool {
        if !v.is_finite() || v < 0.0 {
            self.dropped += 1;
            return false;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        true
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Sparse bucket table (index → count).
    pub fn buckets(&self) -> &BTreeMap<u16, u64> {
        &self.buckets
    }

    /// Estimated `q`-quantile: the upper edge of the bucket holding the
    /// `ceil(q * count)`-th sample, clamped to the observed extremes
    /// (so `quantile(1.0) == max` exactly). 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram of the same stream into this one. Bucket
    /// counts add exactly, so the merged buckets are identical for every
    /// merge order; only `sum` is order-sensitive (f64 addition).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.dropped += other.dropped;
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("dropped".to_string(), Value::UInt(self.dropped)),
            ("sum".to_string(), Value::Num(self.sum)),
            ("min".to_string(), Value::Num(self.min)),
            ("max".to_string(), Value::Num(self.max)),
            ("p50".to_string(), Value::Num(self.quantile(0.5))),
            ("p90".to_string(), Value::Num(self.quantile(0.9))),
            ("p99".to_string(), Value::Num(self.quantile(0.99))),
            (
                "buckets".to_string(),
                Value::Arr(
                    self.buckets
                        .iter()
                        .map(|(&idx, &n)| {
                            Value::Arr(vec![Value::UInt(u64::from(idx)), Value::UInt(n)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of `to_value`: the derived quantiles are not read back, and
    /// the bucket counts must account for every kept sample.
    fn from_value(v: &Value) -> Result<Self, String> {
        let count = u64_at(v, "count")?;
        let rows =
            v.get("buckets").and_then(Value::as_arr).ok_or("missing or malformed `buckets`")?;
        let mut buckets = BTreeMap::new();
        for row in rows {
            let (idx, n) = match row.as_arr() {
                Some([idx, n]) => (idx.as_u64().and_then(|i| u16::try_from(i).ok()), n.as_u64()),
                _ => (None, None),
            };
            let (Some(idx), Some(n)) = (idx, n) else {
                return Err(format!("malformed bucket {}", row.to_json()));
            };
            *buckets.entry(idx).or_insert(0) += n;
        }
        let total: u64 = buckets.values().sum();
        if total != count {
            return Err(format!("buckets sum to {total}, count says {count}"));
        }
        Ok(Histogram {
            count,
            dropped: u64_at(v, "dropped")?,
            sum: f64_at(v, "sum")?,
            min: f64_at(v, "min")?,
            max: f64_at(v, "max")?,
            buckets,
        })
    }
}

/// All metrics of one recorder (or of one attached worker's buffer).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// Kernel and span timing summaries, in the sample's own unit
    /// (nanoseconds for the autodiff hooks).
    summaries: BTreeMap<String, Summary>,
    /// Latency histograms for the streams fed via [`MetricSet::record_latency`];
    /// keys mirror `summaries` so readers can pair totals with quantiles.
    hists: BTreeMap<String, Histogram>,
}

impl MetricSet {
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Keeps the maximum of all observations (peak gauges).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = g.max(v),
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Records one sample into a named summary; `false` when dropped.
    pub fn record(&mut self, name: &str, v: f64) -> bool {
        match self.summaries.get_mut(name) {
            Some(s) => s.record(v),
            None => {
                let mut s = Summary::default();
                let ok = s.record(v);
                self.summaries.insert(name.to_string(), s);
                ok
            }
        }
    }

    /// Records one latency sample into both the summary and the
    /// histogram of `name`, so the stream reports totals *and*
    /// p50/p90/p99; `false` when dropped.
    pub fn record_latency(&mut self, name: &str, v: f64) -> bool {
        let ok = self.record(name, v);
        match self.hists.get_mut(name) {
            Some(h) => {
                h.record(v);
            }
            None => {
                let mut h = Histogram::default();
                h.record(v);
                self.hists.insert(name.to_string(), h);
            }
        }
        ok
    }

    /// Folds another metric set into this one (worker detach): counters
    /// and histogram buckets add, summaries merge, gauges keep the max
    /// (the only order-independent choice for concurrent writers).
    pub fn merge(&mut self, other: MetricSet) {
        for (k, v) in other.counters {
            match self.counters.get_mut(&k) {
                Some(c) => *c += v,
                None => {
                    self.counters.insert(k, v);
                }
            }
        }
        for (k, v) in other.gauges {
            match self.gauges.get_mut(&k) {
                Some(g) => *g = g.max(v),
                None => {
                    self.gauges.insert(k, v);
                }
            }
        }
        for (k, s) in other.summaries {
            match self.summaries.get_mut(&k) {
                Some(d) => d.merge(&s),
                None => {
                    self.summaries.insert(k, s);
                }
            }
        }
        for (k, h) in other.hists {
            match self.hists.get_mut(&k) {
                Some(d) => d.merge(&h),
                None => {
                    self.hists.insert(k, h);
                }
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.summaries.is_empty()
            && self.hists.is_empty()
    }

    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    pub fn summaries(&self) -> &BTreeMap<String, Summary> {
        &self.summaries
    }

    pub fn hists(&self) -> &BTreeMap<String, Histogram> {
        &self.hists
    }

    /// The payload fields of a `metrics` trace record.
    pub fn to_fields(&self) -> Vec<(String, Value)> {
        vec![
            (
                "counters".to_string(),
                Value::Obj(
                    self.counters.iter().map(|(k, &v)| (k.clone(), Value::UInt(v))).collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Value::Obj(self.gauges.iter().map(|(k, &v)| (k.clone(), Value::Num(v))).collect()),
            ),
            (
                "summaries".to_string(),
                Value::Obj(
                    self.summaries.iter().map(|(k, &s)| (k.clone(), s.to_value())).collect(),
                ),
            ),
            (
                "hists".to_string(),
                Value::Obj(self.hists.iter().map(|(k, h)| (k.clone(), h.to_value())).collect()),
            ),
        ]
    }

    /// Parses the payload of a `metrics` trace record: the inverse of
    /// [`to_fields`](Self::to_fields). Fields other than the four
    /// sections (a record's `t_ns`, `kind`, …) are ignored.
    pub fn from_fields(fields: &[(String, Value)]) -> Result<MetricSet, String> {
        Ok(MetricSet {
            counters: section(fields, "counters", "counter", |v| {
                v.as_u64().ok_or_else(|| "not a non-negative integer".to_string())
            })?,
            gauges: section(fields, "gauges", "gauge", |v| {
                number(v).ok_or_else(|| "not a number".to_string())
            })?,
            summaries: section(fields, "summaries", "summary", Summary::from_value)?,
            hists: section(fields, "hists", "histogram", Histogram::from_value)?,
        })
    }
}

/// One named section of a `metrics` record, each entry parsed by `parse`;
/// errors name the entry.
fn section<T>(
    fields: &[(String, Value)],
    key: &str,
    what: &str,
    parse: impl Fn(&Value) -> Result<T, String>,
) -> Result<BTreeMap<String, T>, String> {
    let entries = fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_obj())
        .ok_or_else(|| format!("metrics without {key}"))?;
    entries
        .iter()
        .map(|(name, v)| Ok((name.clone(), parse(v).map_err(|e| format!("{what} `{name}`: {e}"))?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut m = MetricSet::default();
        m.counter_add("tapes", 2);
        m.counter_add("tapes", 3);
        m.gauge_set("hit_rate", 0.5);
        m.gauge_set("hit_rate", 0.9);
        m.gauge_max("peak", 10.0);
        m.gauge_max("peak", 4.0);
        assert_eq!(m.counters()["tapes"], 5);
        assert_eq!(m.gauges()["hit_rate"], 0.9);
        assert_eq!(m.gauges()["peak"], 10.0);
    }

    #[test]
    fn summary_tracks_extremes_and_mean() {
        let mut m = MetricSet::default();
        for v in [4.0, 1.0, 7.0] {
            m.record("spmm", v);
        }
        let s = m.summaries()["spmm"];
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.mean(), 4.0);
    }

    #[test]
    fn bad_samples_are_dropped_not_poisonous() {
        let mut s = Summary::default();
        assert!(s.record(2.0));
        assert!(!s.record(f64::NAN));
        assert!(!s.record(-1.0));
        assert!(!s.record(f64::INFINITY));
        assert!(s.record(4.0));
        assert_eq!(s.count, 2);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 4.0);

        let mut h = Histogram::default();
        assert!(h.record(2.0));
        assert!(!h.record(f64::NAN));
        assert!(!h.record(-3.0));
        assert_eq!(h.count(), 1);
        assert_eq!(h.dropped(), 2);
        assert_eq!(h.buckets().values().sum::<u64>(), 1);
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let mut h = Histogram::default();
        for i in 1..=1000u64 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 1000.0);
        // Log buckets guarantee at most 1/SUBS relative error upward.
        let p50 = h.quantile(0.5);
        assert!((500.0..=580.0).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((990.0..=1000.0 * 1.13).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 1000.0);
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_bucket_edges_are_consistent() {
        // Every sample's bucket upper edge must be >= the sample, and the
        // index function must be monotone in the sample.
        let mut prev_idx = 0u16;
        for v in [0.0, 0.5, 1.0, 3.0, 8.0, 9.0, 100.0, 1e6, 1e12, 1e18] {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "index not monotone at {v}");
            assert!(bucket_upper(idx) > v || v < 2.0, "upper edge below sample at {v}");
            prev_idx = idx;
        }
    }

    #[test]
    fn histogram_merge_is_order_independent_on_buckets() {
        let chunks: Vec<Vec<f64>> =
            vec![vec![10.0, 500.0, 3.0], vec![70_000.0, 12.0], vec![1e9, 2.0, 640.0]];
        let mut whole = Histogram::default();
        for v in chunks.iter().flatten() {
            whole.record(*v);
        }
        // Merge the per-chunk histograms in two different orders.
        let parts: Vec<Histogram> = chunks
            .iter()
            .map(|c| {
                let mut h = Histogram::default();
                for &v in c {
                    h.record(v);
                }
                h
            })
            .collect();
        let mut fwd = Histogram::default();
        let mut rev = Histogram::default();
        for p in &parts {
            fwd.merge(p);
        }
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.buckets(), whole.buckets());
        assert_eq!(rev.buckets(), whole.buckets());
        assert_eq!(fwd.count(), rev.count());
        assert_eq!(fwd.min(), rev.min());
        assert_eq!(fwd.max(), rev.max());
    }

    #[test]
    fn metric_set_merge_combines_all_kinds() {
        let mut a = MetricSet::default();
        a.counter_add("n", 1);
        a.gauge_max("peak", 5.0);
        a.record("s", 1.0);
        a.record_latency("lat", 100.0);
        let mut b = MetricSet::default();
        b.counter_add("n", 2);
        b.gauge_max("peak", 9.0);
        b.record("s", 3.0);
        b.record_latency("lat", 900.0);
        a.merge(b);
        assert_eq!(a.counters()["n"], 3);
        assert_eq!(a.gauges()["peak"], 9.0);
        assert_eq!(a.summaries()["s"].count, 2);
        let h = &a.hists()["lat"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 100.0);
        assert_eq!(h.max(), 900.0);
    }

    #[test]
    fn from_fields_inverts_to_fields() {
        let mut m = MetricSet::default();
        m.counter_add("pool.hits", 7);
        m.gauge_set("pool.hit_rate", 0.875);
        m.gauge_max("tape.peak_resident_bytes", 1.5e9);
        m.record("trial.val_metric", 0.8125);
        m.record("trial.val_metric", f64::NAN);
        for ns in [1_000.0, 2_500.0, 47_000.0, 3.0e9] {
            m.record_latency("kernel.spmm.ns", ns);
        }
        m.record_latency("kernel.spmm.ns", -1.0);
        // Through the text a trace line carries, not just the value tree.
        let text = Value::Obj(m.to_fields()).to_json();
        let back = Value::parse(&text).expect("parse");
        let back = MetricSet::from_fields(back.as_obj().expect("object")).expect("from_fields");
        assert_eq!(back, m);
        assert_eq!(back.summaries()["trial.val_metric"].dropped, 1);
        assert_eq!(back.hists()["kernel.spmm.ns"].dropped(), 1);
        assert_eq!(
            MetricSet::from_fields(&MetricSet::default().to_fields()),
            Ok(MetricSet::default())
        );
    }

    #[test]
    fn fields_serialise_to_json() {
        let mut m = MetricSet::default();
        m.counter_add("n", 1);
        m.record("k", 2.0);
        m.record_latency("lat", 50.0);
        let obj = Value::Obj(m.to_fields().into_iter().collect());
        let text = obj.to_json();
        let back = Value::parse(&text).expect("parse");
        assert_eq!(back.get("counters").and_then(|c| c.get("n")).and_then(Value::as_u64), Some(1));
        assert_eq!(
            back.get("summaries")
                .and_then(|s| s.get("k"))
                .and_then(|k| k.get("mean"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
        let lat = back.get("hists").and_then(|h| h.get("lat")).expect("lat histogram");
        assert_eq!(lat.get("count").and_then(Value::as_u64), Some(1));
        assert!(lat.get("p99").and_then(Value::as_f64).is_some());
        let buckets = lat.get("buckets").and_then(Value::as_arr).expect("buckets");
        assert_eq!(buckets.len(), 1);
    }
}
