//! Golden test: the canonical span-tree export (`cm5-serve-spans/2`) for
//! advise+verify+simulate queries is pinned byte for byte.
//!
//! The canonical export strips every wall-clock field (durations live only
//! in the Chrome-trace view, which is quarantined like the live metrics
//! snapshot), so the document is a pure function of the
//! request — any diff means the span *shape* changed: a phase added,
//! dropped, renamed, or its advise-hit/advise-miss derivation altered.
//! All must be deliberate. To re-bless after a deliberate change:
//!
//! ```sh
//! CM5_BLESS=1 cargo test -p cm5-serve --test golden_spans
//! ```

use cm5_obs::spans_json;
use cm5_serve::{Service, ServiceConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/query_spans.json");

/// Two exchange queries sharing one advise key, then two workload queries
/// sharing one pattern spec: in each pair the first records `advise-miss`
/// and the second `advise-hit`, and all four run verify + simulate. The
/// second workload query hits the stats memo, yet its span has the same
/// phases as the first.
fn spanned_queries() -> String {
    let service = Service::new(ServiceConfig::default());
    let lines = [
        r#"{"id":1,"query":{"kind":"exchange","n":8,"bytes":256},"verify":true,"simulate":true}"#,
        r#"{"id":2,"query":{"kind":"exchange","n":8,"bytes":256},"verify":true,"simulate":true}"#,
        r#"{"id":3,"query":{"kind":"workload","name":"euler545","n":8},"verify":true,"simulate":true}"#,
        r#"{"id":4,"query":{"kind":"workload","name":"euler545","n":8},"verify":true,"simulate":true}"#,
    ];
    let spans: Vec<_> = lines
        .iter()
        .enumerate()
        .map(|(seq, line)| {
            let (resp, span) = service.handle_line_spanned(seq as u64, line);
            assert!(resp.contains("\"ok\":true"), "{resp}");
            span
        })
        .collect();
    assert_eq!(service.metrics().counters["stats_memo_hits"], 1);
    spans_json(&spans)
}

#[test]
fn advise_verify_simulate_span_tree_is_pinned() {
    let actual = spanned_queries();
    if std::env::var_os("CM5_BLESS").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden");
    }
    let expected =
        std::fs::read_to_string(GOLDEN).expect("golden file exists (bless with CM5_BLESS=1)");
    assert_eq!(
        actual, expected,
        "span-tree export drifted from the golden file; \
         if the change is deliberate, re-bless with CM5_BLESS=1"
    );
}

#[test]
fn span_tree_is_stable_across_runs() {
    assert_eq!(spanned_queries(), spanned_queries());
}

#[test]
fn golden_covers_every_phase_kind_and_both_cache_outcomes() {
    let json = spanned_queries();
    for phase in [
        "parse",
        "stats",
        "advise-miss",
        "advise-hit",
        "build",
        "verify",
        "simulate",
        "render",
    ] {
        assert!(
            json.contains(&format!("\"phase\": \"{phase}\"")),
            "golden query must exercise the {phase} phase:\n{json}"
        );
    }
    // The canonical export must stay wall-clock-free.
    assert!(!json.contains("_ns"), "no timing fields allowed:\n{json}");
}
