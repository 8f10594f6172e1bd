//! The behavioural contract: a full-size run of every registered
//! scenario must reproduce the FNV-1a output checksums committed in
//! `BENCH_suite.json` at the repository root.
//!
//! Every kernel rewrite that claims to be exact is held to this. A
//! checksum that moves means some scenario printed different output,
//! so the test fails and names each scenario that moved. It is
//! `#[ignore]`d because a full-size run takes minutes even in release
//! mode; the `contract` stage of `scripts/ci.sh` runs it:
//!
//! ```text
//! cargo test --release -q -p lgv-bench --test contract -- --ignored --nocapture
//! ```
//!
//! After a change that is *meant* to alter output, regenerate the
//! artifact (`cargo run --release -p lgv-bench --bin suite -- --out
//! BENCH_suite.json`) and say why in CHANGES.md.

use lgv_bench::json::Value;
use lgv_bench::suite::{registry, run_suite};
use std::collections::BTreeMap;

/// `name → checksum` from the committed full-size artifact.
fn committed_checksums() -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_suite.json");
    let text = std::fs::read_to_string(path).expect("BENCH_suite.json missing at repo root");
    let doc = Value::parse(&text).expect("committed BENCH_suite.json must parse");
    assert_eq!(
        doc.get("quick"),
        Some(&Value::Bool(false)),
        "the committed artifact must be a full-size run"
    );
    doc.get("scenarios")
        .expect("scenarios array")
        .items()
        .iter()
        .map(|s| {
            let field = |k: &str| {
                s.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("scenario entry without {k:?}: {s:?}"))
                    .to_string()
            };
            (field("name"), field("checksum"))
        })
        .collect()
}

#[test]
#[ignore = "runs the full-size suite (minutes in release mode); ci.sh stage `contract` runs it"]
fn full_suite_reproduces_committed_checksums() {
    let committed = committed_checksums();
    let scenarios = registry();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = run_suite(&scenarios, threads, false, false);

    let mut failures = Vec::new();
    for r in &report.results {
        eprintln!("{:<14} {:>10.1} ms  {}", r.name, r.wall_ms, r.checksum);
        match (&r.error, committed.get(&r.name)) {
            (Some(e), _) => failures.push(format!("{}: scenario failed: {e}", r.name)),
            (None, None) => failures.push(format!(
                "{}: not in BENCH_suite.json (regenerate the artifact)",
                r.name
            )),
            (None, Some(want)) if *want != r.checksum => failures.push(format!(
                "{}: checksum {} differs from the committed {want} ({} output bytes)",
                r.name,
                r.checksum,
                r.output.len()
            )),
            _ => {}
        }
    }
    for name in committed.keys() {
        if !report.results.iter().any(|r| &r.name == name) {
            failures.push(format!("{name}: in BENCH_suite.json but not registered"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} scenarios break the behavioural contract:\n  {}",
        failures.len(),
        committed.len(),
        failures.join("\n  ")
    );
}
