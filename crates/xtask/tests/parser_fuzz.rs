//! Truncated and garbled input for the perf gate's three parsers: the
//! history reader, the baseline reader and the benchmark result reader.
//! Each must either parse every record it was given or return an error
//! naming the line or key at fault — never panic, never drop a record
//! silently.

use std::collections::BTreeMap;

use proptest::prelude::*;
use xtask::perf::{
    baseline_to_json, history_line, parse_baseline, parse_history, parse_result, BaselineMetric,
};

fn history_text() -> String {
    let mut text = String::new();
    for (i, w) in ["search-tiny", "search-cora", "random-cora"].iter().enumerate() {
        let metrics: BTreeMap<String, f64> = [
            ("search_s".to_string(), 1.25 + i as f64),
            ("gnn.agg.GAT-COS.fwd_ms".to_string(), 3.5),
            ("autodiff.tape.nodes".to_string(), 650.0),
        ]
        .into();
        text.push_str(&history_line(w, 1_700_000_000_000 + i as u64, &metrics));
        text.push('\n');
    }
    text
}

fn baseline_text() -> String {
    let metric = |k: &str, base, mad| (k.to_string(), BaselineMetric { base, mad });
    baseline_to_json(&BTreeMap::from([
        metric("search-tiny/search_s", 1.25, 0.02),
        metric("search-tiny/gnn.agg.GAT.fwd_ms", 0.5, 0.04),
        metric("search-cora/peak_rss_mib", 150.0, 0.5),
    ]))
}

const RESULT: &str = "search_s 1.25 s\npeak_rss_mib 34.5 MiB\n\
    {\"correct\":true,\"attempted\":6,\"failed\":0,\"metrics\":{\
    \"peak_rss_mib\":{\"value\":34.5,\"unit\":\"MiB\"},\
    \"search_s\":{\"value\":1.25,\"unit\":\"s\"}}}\n";

/// One edit at `pos`: replace, delete or insert a byte drawn from JSON's
/// punctuation, digits, letters and whitespace — or truncate there.
fn mutate(text: &str, op: u8, pos: usize, b: u8) -> String {
    const ALPHABET: &[u8] = b"\n\"{}[],:.-0123456789eEabcxyz /\\\t";
    let c = ALPHABET[b as usize % ALPHABET.len()] as char;
    let mut chars: Vec<char> = text.chars().collect();
    let pos = pos % (chars.len() + 1);
    match op % 4 {
        0 if pos < chars.len() => chars[pos] = c,
        1 if pos < chars.len() => _ = chars.remove(pos),
        3 => chars.truncate(pos),
        _ => chars.insert(pos, c),
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 600, ..ProptestConfig::default() })]

    /// History: every non-blank line becomes an entry, or the error names
    /// a line that exists.
    #[test]
    fn mangled_history_fails_on_a_named_line(
        op in 0u8..4, pos in 0usize..100_000, b in 0u8..64, op2 in 0u8..4, pos2 in 0usize..100_000
    ) {
        let text = mutate(&mutate(&history_text(), op, pos, b), op2, pos2, b.wrapping_add(7));
        match parse_history(&text) {
            Ok(entries) => {
                let records = text.lines().filter(|l| !l.trim().is_empty()).count();
                prop_assert_eq!(entries.len(), records, "a line was skipped silently:\n{}", text);
            }
            Err(e) => {
                let n = e.strip_prefix("history line ").and_then(|r| r.split(':').next());
                let n: usize = n.and_then(|n| n.parse().ok()).expect(&e);
                prop_assert!((1..=text.lines().count()).contains(&n), "{}", e);
            }
        }
    }

    /// Baseline: one JSON document. A syntax error names the byte offset
    /// or the unterminated end; every other error names the key.
    #[test]
    fn mangled_baseline_fails_naming_the_key(op in 0u8..4, pos in 0usize..100_000, b in 0u8..64) {
        let text = mutate(&baseline_text(), op, pos, b);
        match parse_baseline(&text) {
            Ok(baseline) => prop_assert_eq!(baseline.len(), 3, "a metric was dropped:\n{}", text),
            Err(e) => {
                let names_place = ["`", "offset", "end of input", "unterminated"]
                    .iter()
                    .any(|p| e.contains(p));
                prop_assert!(e.starts_with("baseline") && names_place, "{}", e);
            }
        }
    }

    /// Result line: all metrics, or an error about the result line or one
    /// of its keys.
    #[test]
    fn mangled_result_fails_on_the_result_line(op in 0u8..4, pos in 0usize..100_000, b in 0u8..64) {
        let text = mutate(RESULT, op, pos, b);
        match parse_result(&text) {
            Ok(r) => prop_assert_eq!(r.metrics.len(), 2, "a metric was dropped:\n{}", text),
            Err(e) => prop_assert!(e.starts_with("result line"), "{}", e),
        }
    }
}

#[test]
fn cutting_into_the_last_record_never_parses() {
    // Cutting only the trailing newline keeps a whole document.
    let cuts = |text: &str| {
        (text.len() - 4..text.len() - 1).map(|c| text[..c].to_string()).collect::<Vec<_>>()
    };
    for cut in cuts(&history_text()) {
        assert!(parse_history(&cut).is_err(), "{cut}");
    }
    for cut in cuts(&baseline_text()) {
        assert!(parse_baseline(&cut).is_err(), "{cut}");
    }
    for cut in cuts(RESULT) {
        assert!(parse_result(&cut).is_err(), "{cut}");
    }
}
