//! Integration tests for the parallel evaluation harness.
//!
//! The load-bearing property: running the suite with N worker threads
//! produces **byte-identical** scenario outputs to running it with one.
//! Each scenario runs on its own virtual clock, its own seeded RNGs,
//! and its own captured output buffer, so parallelism must not be able
//! to leak into results. These tests compare the same FNV-1a checksums
//! that land in `BENCH_suite.json`.
//!
//! The full all-scenario comparison is `#[ignore]`d because debug-mode
//! missions are slow; `scripts/ci.sh` runs it in release mode
//! (`cargo test --release -p lgv-bench --test suite -- --ignored`).

use lgv_bench::suite::{registry, run_suite, Scenario};

/// Profiled and unprofiled suite runs share one process-wide collection
/// flag; tests that turn it on (or assert it stayed off) must not
/// overlap.
static PROF_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Scenarios cheap enough to run twice in a debug-mode test.
fn fast_scenarios() -> Vec<Scenario> {
    let fast = ["table1", "fig7", "fig10", "fig11"];
    registry()
        .into_iter()
        .filter(|s| fast.contains(&s.name))
        .collect()
}

fn assert_identical_runs(scenarios: &[Scenario], quick: bool) {
    let _guard = PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Profile one of the two runs: wall-clock profiling must never
    // leak into scenario outputs either.
    let serial = run_suite(scenarios, 1, quick, false);
    let parallel = run_suite(scenarios, 4, quick, true);
    assert_eq!(serial.results.len(), parallel.results.len());
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(s.name, p.name, "result order must match registry order");
        assert_eq!(s.error, p.error, "{}: error mismatch", s.name);
        assert_eq!(
            s.checksum,
            p.checksum,
            "{}: serial and parallel outputs differ:\n--- serial ---\n{}\n--- parallel ---\n{}",
            s.name,
            String::from_utf8_lossy(&s.output),
            String::from_utf8_lossy(&p.output),
        );
        assert_eq!(s.output, p.output, "{}: checksum collision?", s.name);
        assert_eq!(s.events, p.events, "{}: trace event count differs", s.name);
        assert_eq!(
            s.sim_time_s, p.sim_time_s,
            "{}: virtual time differs",
            s.name
        );
    }
}

#[test]
fn fast_scenarios_parallel_matches_serial() {
    let scenarios = fast_scenarios();
    assert!(scenarios.len() >= 4, "fast subset shrank — update the test");
    assert_identical_runs(&scenarios, true);
}

/// The full contract over every registered scenario, in quick mode.
/// Slow in debug builds; the CI gate runs it with `--release`.
#[test]
#[ignore = "runs every scenario twice; ci.sh runs this in release mode"]
fn all_scenarios_parallel_matches_serial() {
    assert_identical_runs(&registry(), true);
}

#[test]
fn suite_json_is_valid_and_lists_every_scenario() {
    let scenarios = fast_scenarios();
    let report = run_suite(&scenarios, 2, true, false);
    let json = report.to_json();
    json_validate(&json).expect("suite JSON must parse");
    assert!(json.contains("\"schema\": \"lgv-bench-suite/v3\""));
    assert!(json.contains(&format!("\"scenario_count\": {}", scenarios.len())));
    assert!(json.contains("\"total_sim_time_s\": "));
    for s in &scenarios {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", s.name)),
            "missing {}",
            s.name
        );
    }
    // fig7 and fig10 emit no trace events: the artifact must say
    // "not traced", not "zero seconds of simulation".
    for line in json.lines() {
        if line.contains("\"name\": \"fig7\"") || line.contains("\"name\": \"fig10\"") {
            assert!(
                line.contains("\"sim_time_s\": null, \"events\": null"),
                "untraced scenario should serialize null sim fields: {line}"
            );
        }
        if line.contains("\"name\": \"fig11\"") {
            assert!(
                !line.contains("null"),
                "traced scenario lost its sim-time fields: {line}"
            );
        }
    }
}

/// `--profile` must produce a parseable `lgv-bench-profile/v1`
/// artifact whose scope attribution covers the instrumented scenarios,
/// with named kernels (not unattributed residue) on top.
#[test]
fn profile_json_is_valid_and_attributes_named_kernels() {
    if !lgv_trace::prof::is_available() {
        eprintln!("prof feature compiled out; skipping");
        return;
    }
    let _guard = PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scenarios: Vec<Scenario> = registry()
        .into_iter()
        .filter(|s| s.name == "fig11")
        .collect();
    let report = run_suite(&scenarios, 1, true, true);
    assert!(report.profiled);
    let json = report.profile_json();
    json_validate(&json).expect("profile JSON must parse");
    assert!(json.contains("\"schema\": \"lgv-bench-profile/v1\""));
    assert!(json.contains("\"name\": \"fig11\""));
    // fig11 drives the UDP channel directly (no mission engine), so
    // its profile is the channel-delivery kernel.
    assert!(
        json.contains("\"path\": \"net/channel_tick\""),
        "missing net/channel_tick in:\n{json}"
    );
    let r = &report.results[0];
    let root = r
        .profile
        .children_sorted(0)
        .into_iter()
        .find(|&n| r.profile.nodes()[n].name == "fig11")
        .expect("job root scope");
    assert!(r.profile.nodes()[root].count == 1);
    assert!(!r.profile.nodes()[root].children.is_empty());
}

/// The headline acceptance property, on the dominant scenario: with
/// profiling on, fig13's instrumented scopes account for most of its
/// wall time and the top self-time scope is a named kernel, not
/// unattributed residue. Release-only (a debug fig13 run is minutes);
/// `scripts/ci.sh` runs it via the `--ignored` release pass.
#[test]
#[ignore = "runs fig13; ci.sh runs this in release mode"]
fn profiled_fig13_covers_its_wall_time_with_named_kernels() {
    if !lgv_trace::prof::is_available() {
        eprintln!("prof feature compiled out; skipping");
        return;
    }
    let _guard = PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scenarios: Vec<Scenario> = registry()
        .into_iter()
        .filter(|s| s.name == "fig13")
        .collect();
    let report = run_suite(&scenarios, 1, true, true);
    let r = &report.results[0];
    assert!(r.error.is_none(), "{:?}", r.error);
    let root = r
        .profile
        .children_sorted(0)
        .into_iter()
        .find(|&n| r.profile.nodes()[n].name == "fig13")
        .expect("job root scope");
    let profiled_ns: u64 = r.profile.nodes()[root]
        .children
        .iter()
        .map(|&c| r.profile.nodes()[c].total_ns)
        .sum();
    let coverage = (profiled_ns as f64 / 1e6) / r.wall_ms;
    assert!(
        coverage >= 0.8,
        "profiled scopes cover {:.1}% of fig13's wall time (need >= 80%)",
        coverage * 100.0
    );
    // Top self-time scope below the root must be a named kernel.
    let (top, _) = r
        .profile
        .walk()
        .into_iter()
        .filter(|&(n, _)| n != root)
        .max_by_key(|&(n, _)| r.profile.self_ns(n))
        .expect("at least one scope");
    let name = &r.profile.nodes()[top].name;
    assert!(
        name.contains('/'),
        "top self-time scope {name:?} is not a subsystem/kernel name"
    );
    assert!(
        r.profile.self_ns(top) > r.profile.self_ns(root),
        "unattributed residue ({} ns) outweighs the top kernel {name:?} ({} ns)",
        r.profile.self_ns(root),
        r.profile.self_ns(top)
    );
}

/// A run without `--profile` must carry no profile data (and still
/// render a valid, explicitly-unprofiled artifact).
#[test]
fn unprofiled_run_has_empty_trees() {
    let _guard = PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scenarios: Vec<Scenario> = registry()
        .into_iter()
        .filter(|s| s.name == "table1")
        .collect();
    let report = run_suite(&scenarios, 1, true, false);
    assert!(!report.profiled);
    assert!(report.results[0].profile.is_empty());
    let json = report.profile_json();
    json_validate(&json).expect("even an empty profile renders valid JSON");
    assert!(json.contains("\"profiled\": false"));
    assert!(json.contains("\"coverage\": 0.0000"));
}

/// The committed artifact must stay in sync with the registry: valid
/// JSON, current schema tag, one entry per registered scenario.
#[test]
fn committed_bench_artifact_matches_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_suite.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_suite.json missing at repo root — regenerate with `suite`");
    json_validate(&text).expect("committed BENCH_suite.json must parse");
    assert!(text.contains("\"schema\": \"lgv-bench-suite/v3\""));
    for s in registry() {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", s.name)),
            "committed artifact lacks scenario {:?} — regenerate with `suite`",
            s.name
        );
    }
}

// ------------------------------------------------------------------
// Minimal JSON syntax checker (the workspace is hermetic — no
// JSON crate), enough to catch malformed artifacts: verifies the text
// is exactly one well-formed JSON value.

fn json_validate(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    json_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn json_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                json_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                json_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                json_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => json_string(b, pos),
        Some(b't') => json_literal(b, pos, b"true"),
        Some(b'f') => json_literal(b, pos, b"false"),
        Some(b'n') => json_literal(b, pos, b"null"),
        Some(_) => json_number(b, pos),
    }
}

fn json_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn json_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn json_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected value at offset {start}"));
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|_| ())
        .ok_or_else(|| format!("bad number at offset {start}"))
}
