//! The machine-readable check report (`--report-json`).
//!
//! One builder produces the document for the local `llhsc check
//! --report-json` and for the daemon's `check` op with `"report":
//! true`, so the bytes a client writes are identical to a local run by
//! construction — [`crate::json::Json`] renders objects with sorted
//! keys, making the output canonical.
//!
//! The document is deliberately free of wall-clock times and other
//! run-dependent noise: two runs over the same input produce the same
//! bytes, whether the verdict was computed fresh or replayed from the
//! daemon cache (the cache stores the fresh run's counters and spans,
//! see [`crate::cache::CachedTreeCheck`]). The solver totals are the
//! solver work of the *fresh* check, so they equal the sum over the
//! `"solve"` spans of a traced run (`--trace`) — and over the `"solve"`
//! entries of the document's own `spans` array, which carries the span
//! tree (names, parent links, counters) without timestamps.

use llhsc::{CertStats, RegionCheckStats, SessionStats, SolverStats};
use llhsc_obs::SpanRecord;

use crate::check::CheckReport;
use crate::json::Json;

/// Version stamp of the report layout. Bump on breaking changes.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Builds the `check` report document. `cert` carries the
/// certification counters of a proof-emitting run (`llhsc check
/// --certify`/`--proof`); the `proof` object is only present when it
/// is, so an uncertified report renders byte-identically to what it
/// always did.
pub fn check_report_json(
    report: &CheckReport,
    stats: &RegionCheckStats,
    solver: &SolverStats,
    session: &SessionStats,
    spans: &[SpanRecord],
    cert: Option<&CertStats>,
) -> Json {
    let mut doc = check_report_fields(report, stats, solver, session, spans);
    if let (Json::Obj(map), Some(c)) = (&mut doc, cert) {
        map.insert("proof".to_string(), proof_json(c));
    }
    doc
}

/// The DRAT certification counters: how many `Unsat` verdicts carried a
/// proof, the total proof length, and how many lemmas the backward
/// checker actually had to verify. `verified` is definitionally `true` —
/// a failed certification panics the check instead of reporting.
pub fn proof_json(c: &CertStats) -> Json {
    Json::obj([
        ("proofs", c.proofs.into()),
        ("steps", c.steps.into()),
        ("checked", c.checked.into()),
        ("verified", Json::Bool(true)),
    ])
}

fn check_report_fields(
    report: &CheckReport,
    stats: &RegionCheckStats,
    solver: &SolverStats,
    session: &SessionStats,
    spans: &[SpanRecord],
) -> Json {
    Json::obj([
        ("schema_version", REPORT_SCHEMA_VERSION.into()),
        ("kind", "check".into()),
        ("clean", Json::Bool(report.clean)),
        ("input_error", Json::Bool(report.input_error)),
        ("stdout", report.stdout.as_str().into()),
        ("stderr", report.stderr.as_str().into()),
        (
            "region_stats",
            Json::obj([
                ("regions", stats.regions.into()),
                ("pairs_considered", stats.pairs_considered.into()),
                ("pairs_encoded", stats.pairs_encoded.into()),
                ("terms", stats.terms.into()),
                ("terms_encoded", stats.terms_encoded.into()),
                ("terms_reused", stats.terms_reused.into()),
            ]),
        ),
        ("solver", solver_json(solver)),
        ("session", session_json(session)),
        ("spans", spans_json(spans)),
    ])
}

/// The solver-session reuse counters: how much encoding and assertion
/// work the check amortized against already bit-blasted slices. Like
/// the solver totals these describe the *fresh* run — a daemon cache
/// hit replays the recorded values.
pub fn session_json(s: &SessionStats) -> Json {
    Json::obj([
        ("slices_created", s.slices_created.into()),
        ("slices_reused", s.slices_reused.into()),
        ("asserts_encoded", s.asserts_encoded.into()),
        ("asserts_reused", s.asserts_reused.into()),
        ("checks", s.checks.into()),
    ])
}

/// The span tree, time-free: names, parent links (span indices) and
/// accumulated counters only, so the bytes do not depend on the clock
/// behind the tracer.
pub fn spans_json(spans: &[SpanRecord]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", s.name.as_str().into()),
                    (
                        "parent",
                        match s.parent {
                            Some(p) => u64::from(p.index()).into(),
                            None => Json::Null,
                        },
                    ),
                    (
                        "counters",
                        Json::Obj(
                            s.counters
                                .iter()
                                .map(|(k, v)| (k.clone(), (*v).into()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// The solver-counter object shared by the report document, the `stats`
/// op and the bench harness.
pub fn solver_json(s: &SolverStats) -> Json {
    Json::obj([
        ("solves", s.solves.into()),
        ("decisions", s.decisions.into()),
        ("propagations", s.propagations.into()),
        ("conflicts", s.conflicts.into()),
        ("restarts", s.restarts.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic_and_versioned() {
        let report = CheckReport {
            stdout: "checked 3 nodes: ok\n".into(),
            stderr: String::new(),
            clean: true,
            input_error: false,
        };
        let stats = RegionCheckStats::default();
        let solver = SolverStats {
            solves: 2,
            decisions: 5,
            ..SolverStats::default()
        };
        // Spans from a wall-clock and a stopped-clock tracer render the
        // same bytes: the document is time-free.
        let spans = |stopped: bool| {
            let t = if stopped {
                llhsc_obs::Tracer::with_clock(Box::new(llhsc_obs::ManualClock::new()))
            } else {
                llhsc_obs::Tracer::wall()
            };
            let root = t.begin("check", None);
            let solve = t.begin("solve", Some(root));
            t.add(solve, "solves", 2);
            t.end(solve);
            t.end(root);
            t.spans()
        };
        let session = SessionStats::default();
        let a =
            check_report_json(&report, &stats, &solver, &session, &spans(false), None).to_string();
        let b =
            check_report_json(&report, &stats, &solver, &session, &spans(true), None).to_string();
        assert_eq!(a, b);
        assert!(a.contains(r#""spans":[{"counters":{},"name":"check","parent":null}"#));
        let parsed = Json::parse(&a).expect("report parses");
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_int),
            Some(REPORT_SCHEMA_VERSION as i64)
        );
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("check"));
        assert_eq!(
            parsed
                .get("solver")
                .and_then(|s| s.get("decisions"))
                .and_then(Json::as_int),
            Some(5)
        );
        // Parse → print round-trips to the same canonical bytes.
        assert_eq!(parsed.to_string(), a);
    }

    #[test]
    fn proof_object_appears_only_when_certified() {
        let report = CheckReport {
            stdout: "checked 3 nodes: ok\n".into(),
            stderr: String::new(),
            clean: true,
            input_error: false,
        };
        let stats = RegionCheckStats::default();
        let solver = SolverStats::default();
        let session = SessionStats::default();
        let plain = check_report_json(&report, &stats, &solver, &session, &[], None);
        assert!(plain.get("proof").is_none(), "uncertified report is as-was");
        let cert = CertStats {
            proofs: 3,
            steps: 120,
            checked: 7,
        };
        let certified = check_report_json(&report, &stats, &solver, &session, &[], Some(&cert));
        let p = certified.get("proof").expect("certified report has proof");
        assert_eq!(p.get("proofs").and_then(Json::as_int), Some(3));
        assert_eq!(p.get("steps").and_then(Json::as_int), Some(120));
        assert_eq!(p.get("checked").and_then(Json::as_int), Some(7));
        assert_eq!(p.get("verified"), Some(&Json::Bool(true)));
        // Everything else is untouched.
        let mut stripped = certified.clone();
        if let Json::Obj(m) = &mut stripped {
            m.remove("proof");
        }
        assert_eq!(stripped.to_string(), plain.to_string());
    }
}
