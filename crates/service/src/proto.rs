//! The llhsc-service wire protocol: typed requests and response frames.
//!
//! One request per line, one response per line, both JSON (see
//! [`crate::json`] and `docs/SERVICE.md`). Every response is an object
//! with an `"ok"` boolean: `true` frames carry the op's payload,
//! `false` frames carry an `"error"` string. A *check finding* is not a
//! protocol error — a `check`/`build` against an invalid configuration
//! answers `ok: true` with `clean: false`; error frames are for
//! malformed requests, oversized payloads and frontend parse failures.

use llhsc::{Diagnostic, PipelineError, PipelineOutput, RegionCheckStats, STAGE_SPANS};
use llhsc_obs::Tracer;
use llhsc_schema::SchemaSet;

use crate::check::CheckReport;
use crate::json::Json;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Check one tree (canonical DTS text, includes already resolved).
    Check {
        /// The DTS source to parse and check.
        dts: String,
        /// Also return the machine-readable report document (see
        /// [`crate::report`]) in the response's `"report"` field.
        report: bool,
    },
    /// Run the full pipeline.
    Build(Box<BuildRequest>),
    /// Count the valid configurations of a feature model.
    Count {
        /// The feature-model source.
        model: String,
        /// Counting parameters (budget, mode, (ε, δ), seed).
        params: crate::analytics::CountParams,
    },
    /// Draw diverse near-uniform configurations of a feature model.
    Sample {
        /// The feature-model source.
        model: String,
        /// Number of configurations requested.
        k: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Service counters.
    Stats,
    /// Prometheus text-format metrics.
    Metrics,
    /// The flight recorder's recent-request ring.
    Flightdump,
    /// Drain in-flight work and stop the daemon.
    Shutdown,
}

/// The inputs of a `build` request, still as source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildRequest {
    /// The core DTS module.
    pub core: String,
    /// The delta modules (one source, `delta … { … }` blocks).
    pub deltas: String,
    /// The feature model.
    pub model: String,
    /// Extra binding schemas (YAML), appended to the standard set.
    pub schemas: Vec<String>,
    /// `(name, features)` per VM.
    pub vms: Vec<(String, Vec<String>)>,
    /// Verify the whole product line family-level (one lifted solver
    /// query per rule family) instead of building the listed VMs. The
    /// family covers every valid configuration, so `vms` may be empty.
    pub family: bool,
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn u64_field_or(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_int()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

/// Fractions travel as decimal strings — the wire format carries only
/// integers (see [`crate::json`]).
fn fraction_field_or(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("field {key:?} must be a positive decimal string")),
    }
}

impl Request {
    /// Parses a request object. The error string is ready for an
    /// [`error_frame`].
    pub fn from_json(j: &Json) -> Result<Request, String> {
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing or non-string field \"op\"")?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "flightdump" => Ok(Request::Flightdump),
            "shutdown" => Ok(Request::Shutdown),
            "check" => Ok(Request::Check {
                dts: str_field(j, "dts")?,
                report: j.get("report").and_then(Json::as_bool).unwrap_or(false),
            }),
            "count" => {
                let d = crate::analytics::CountParams::default();
                let delta = fraction_field_or(j, "delta", d.delta)?;
                if delta >= 1.0 {
                    return Err("field \"delta\" must be below 1".to_string());
                }
                Ok(Request::Count {
                    model: str_field(j, "model")?,
                    params: crate::analytics::CountParams {
                        budget: u64_field_or(j, "budget", d.budget)?,
                        approx: j.get("approx").and_then(Json::as_bool).unwrap_or(false),
                        epsilon: fraction_field_or(j, "epsilon", d.epsilon)?,
                        delta,
                        seed: u64_field_or(j, "seed", d.seed)?,
                    },
                })
            }
            "sample" => Ok(Request::Sample {
                model: str_field(j, "model")?,
                k: usize::try_from(u64_field_or(
                    j,
                    "k",
                    crate::analytics::DEFAULT_SAMPLE_K as u64,
                )?)
                .map_err(|_| "field \"k\" is out of range".to_string())?,
                seed: u64_field_or(j, "seed", 1)?,
            }),
            "build" => {
                let schemas = match j.get("schemas") {
                    None => Vec::new(),
                    Some(s) => s
                        .as_arr()
                        .ok_or("field \"schemas\" must be an array of strings")?
                        .iter()
                        .map(|s| {
                            s.as_str()
                                .map(str::to_string)
                                .ok_or("field \"schemas\" must be an array of strings")
                        })
                        .collect::<Result<_, _>>()?,
                };
                let family = j.get("family").and_then(Json::as_bool).unwrap_or(false);
                // Family-mode verification ranges over every valid
                // configuration, so the VM list is optional there.
                let vms_json = match (j.get("vms").and_then(Json::as_arr), family) {
                    (Some(v), _) => v,
                    (None, true) => &[],
                    (None, false) => return Err("missing or non-array field \"vms\"".to_string()),
                };
                let mut vms = Vec::new();
                for vm in vms_json {
                    let name = str_field(vm, "name").map_err(|e| format!("in \"vms\": {e}"))?;
                    let features = vm
                        .get("features")
                        .and_then(Json::as_arr)
                        .ok_or("in \"vms\": missing or non-array field \"features\"")?
                        .iter()
                        .map(|f| {
                            f.as_str()
                                .map(str::to_string)
                                .ok_or("in \"vms\": features must be strings")
                        })
                        .collect::<Result<_, _>>()?;
                    vms.push((name, features));
                }
                Ok(Request::Build(Box::new(BuildRequest {
                    core: str_field(j, "core")?,
                    deltas: str_field(j, "deltas")?,
                    model: str_field(j, "model")?,
                    schemas,
                    vms,
                    family,
                })))
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

impl BuildRequest {
    /// Parses every input text through the existing frontends.
    ///
    /// # Errors
    ///
    /// The first frontend failure, prefixed with the artifact name
    /// (`core.dts: …`), matching the local `llhsc build` rendering.
    pub fn to_pipeline_input(&self) -> Result<llhsc::PipelineInput, String> {
        let core = llhsc_dts::parse(&self.core).map_err(|e| format!("core.dts: {e}"))?;
        let deltas = llhsc_delta::DeltaModule::parse_all(&self.deltas)
            .map_err(|e| format!("deltas.delta: {e}"))?;
        let model = llhsc_fm::parse_model(&self.model).map_err(|e| format!("model.fm: {e}"))?;
        let mut schemas = SchemaSet::standard();
        for (i, text) in self.schemas.iter().enumerate() {
            let schema =
                llhsc_schema::Schema::parse(text).map_err(|e| format!("schema {}: {e}", i + 1))?;
            schemas.push(schema);
        }
        let vms = self
            .vms
            .iter()
            .map(|(name, features)| llhsc::VmSpec {
                name: name.clone(),
                features: features.clone(),
            })
            .collect();
        Ok(llhsc::PipelineInput {
            core,
            deltas,
            model,
            schemas,
            vms,
        })
    }
}

/// An `ok: false` frame.
pub fn error_frame(message: impl Into<String>) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

/// The `ping` response.
pub fn ping_frame() -> Json {
    Json::obj([("ok", Json::Bool(true)), ("op", "ping".into())])
}

/// The `shutdown` acknowledgement (sent before the daemon drains).
pub fn shutdown_frame() -> Json {
    Json::obj([("ok", Json::Bool(true)), ("op", "shutdown".into())])
}

/// The `check` response: the exact bytes of `llhsc check`, the verdict
/// and whether the answer came from the cache. With `report_doc`, the
/// machine-readable report document rides along under `"report"`.
pub fn check_frame(report: &CheckReport, cached: bool, report_doc: Option<Json>) -> Json {
    let mut frame = Json::obj([
        ("ok", Json::Bool(true)),
        ("clean", Json::Bool(report.clean)),
        ("input_error", Json::Bool(report.input_error)),
        ("stdout", report.stdout.as_str().into()),
        ("stderr", report.stderr.as_str().into()),
        ("cached", Json::Bool(cached)),
    ]);
    if let (Json::Obj(map), Some(doc)) = (&mut frame, report_doc) {
        map.insert("report".to_string(), doc);
    }
    frame
}

/// The `count`/`sample` response: the text rendering, the canonical
/// document and whether the answer was replayed from the analytics
/// cache. Fresh and replayed answers carry identical `text` and `doc`
/// bytes.
pub fn analytics_frame(
    op: &str,
    outcome: &crate::analytics::AnalyticsOutcome,
    cached: bool,
) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", op.into()),
        ("text", outcome.text.as_str().into()),
        ("doc", outcome.doc.clone()),
        ("cached", Json::Bool(cached)),
    ])
}

/// The `flightdump` response: the flight ring's contents oldest first,
/// plus the lifetime record count and the ring size.
pub fn flightdump_frame(records: &[llhsc_obs::FlightRecord], total: u64, capacity: usize) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", "flightdump".into()),
        ("total", total.into()),
        ("capacity", Json::from(capacity as u64)),
        (
            "records",
            Json::Arr(
                records
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("seq", r.seq.into()),
                            ("trace_id", r.trace_id.as_str().into()),
                            ("op", r.op.as_str().into()),
                            ("dur_us", r.dur_us.into()),
                            ("slow", Json::Bool(r.slow)),
                            ("error", Json::Bool(r.error)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `metrics` response: the Prometheus text exposition as one
/// string field (the transport is JSON lines; a scraper unwraps it).
pub fn metrics_frame(text: String) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", "metrics".into()),
        ("text", Json::Str(text)),
    ])
}

fn diagnostics_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(
        diags
            .iter()
            .map(|d| {
                Json::obj([
                    ("severity", d.severity.to_string().into()),
                    ("stage", d.stage.to_string().into()),
                    ("vm", d.vm.map_or(Json::Null, |v| Json::Int(v as i64))),
                    ("message", d.message.as_str().into()),
                    ("rendered", d.to_string().into()),
                ])
            })
            .collect(),
    )
}

/// The run's stage timings: the durations of its stage spans, and
/// their sum.
fn timings_json(tracer: &Tracer) -> Json {
    let stages = STAGE_SPANS.map(|stage| (format!("{stage}_us"), tracer.total_us(stage)));
    let total: u64 = stages.iter().map(|(_, us)| us).sum();
    let fields = stages.into_iter().chain([("total_us".to_string(), total)]);
    Json::Obj(fields.map(|(key, us)| (key, us.into())).collect())
}

fn region_stats_json(s: &RegionCheckStats) -> Json {
    Json::obj([
        ("regions", s.regions.into()),
        ("pairs_considered", s.pairs_considered.into()),
        ("pairs_encoded", s.pairs_encoded.into()),
        ("terms", s.terms.into()),
        ("solves", s.solver.solves.into()),
        ("decisions", s.solver.decisions.into()),
        ("propagations", s.solver.propagations.into()),
        ("conflicts", s.solver.conflicts.into()),
    ])
}

/// The `build` response for a run that produced outputs, its timings
/// read from the run's span tree in `tracer`.
pub fn build_ok_frame(out: &PipelineOutput, tracer: &Tracer) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("clean", Json::Bool(true)),
        ("diagnostics", diagnostics_json(&out.diagnostics)),
        ("platform_dts", out.platform_dts.as_str().into()),
        (
            "vm_dts",
            Json::Arr(out.vm_dts.iter().map(|s| s.as_str().into()).collect()),
        ),
        ("platform_c", out.platform_c.as_str().into()),
        (
            "vm_c",
            Json::Arr(out.vm_c.iter().map(|s| s.as_str().into()).collect()),
        ),
        ("timings", timings_json(tracer)),
        ("region_stats", region_stats_json(&out.semantic_stats)),
    ])
}

/// The `build` response for a configuration the checkers rejected.
/// Still `ok: true` — the protocol worked; the configuration didn't.
pub fn build_rejected_frame(err: &PipelineError) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("clean", Json::Bool(false)),
        ("diagnostics", diagnostics_json(&err.diagnostics)),
    ])
}

/// The `build` response in family mode: the whole-line verdict, how it
/// was decided, and the lifted-check counters — no artifacts.
pub fn build_family_frame(report: &llhsc::family::FamilyReport, cached: bool) -> Json {
    let findings = Json::Arr(
        report
            .findings
            .iter()
            .map(|f| {
                Json::obj([
                    ("family", f.family.name().into()),
                    (
                        "witness",
                        Json::Arr(f.witness.iter().map(|w| w.as_str().into()).collect()),
                    ),
                    ("diagnostics", diagnostics_json(&f.diagnostics)),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("ok", Json::Bool(true)),
        ("clean", Json::Bool(report.is_ok())),
        ("family", Json::Bool(true)),
        ("lifted", Json::Bool(report.lifted)),
        (
            "fallback",
            report.fallback.as_deref().map_or(Json::Null, |r| r.into()),
        ),
        ("products", report.products.into()),
        ("products_exact", Json::Bool(report.products_exact)),
        ("obligations_lifted", report.stats.obligations_lifted.into()),
        ("family_solves", report.stats.family_solves.into()),
        (
            "witnesses_extracted",
            report.stats.witnesses_extracted.into(),
        ),
        ("products_checked", report.stats.products_checked.into()),
        ("findings", findings),
        ("cached", Json::Bool(cached)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let parse = |s: &str| Request::from_json(&Json::parse(s).unwrap());
        assert_eq!(parse(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse(r#"{"op":"stats"}"#), Ok(Request::Stats));
        assert_eq!(parse(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
        assert_eq!(parse(r#"{"op":"metrics"}"#), Ok(Request::Metrics));
        assert_eq!(parse(r#"{"op":"flightdump"}"#), Ok(Request::Flightdump));
        assert_eq!(
            parse(r#"{"op":"check","dts":"/ { };"}"#),
            Ok(Request::Check {
                dts: "/ { };".into(),
                report: false,
            })
        );
        assert_eq!(
            parse(r#"{"op":"check","dts":"/ { };","report":true}"#),
            Ok(Request::Check {
                dts: "/ { };".into(),
                report: true,
            })
        );
        let build = parse(
            r#"{"op":"build","core":"/ { };","deltas":"","model":"feature A { }",
                "vms":[{"name":"vm1","features":["a","b"]}]}"#,
        )
        .unwrap();
        match build {
            Request::Build(b) => {
                assert_eq!(b.vms, vec![("vm1".into(), vec!["a".into(), "b".into()])]);
                assert!(b.schemas.is_empty());
            }
            other => panic!("expected build, got {other:?}"),
        }
    }

    #[test]
    fn parses_count_and_sample_ops() {
        let parse = |s: &str| Request::from_json(&Json::parse(s).unwrap());
        let d = crate::analytics::CountParams::default();
        assert_eq!(
            parse(r#"{"op":"count","model":"feature A { }"}"#),
            Ok(Request::Count {
                model: "feature A { }".into(),
                params: d.clone(),
            })
        );
        assert_eq!(
            parse(
                r#"{"op":"count","model":"m","budget":4,"approx":true,
                    "epsilon":"1.5","delta":"0.1","seed":9}"#
            ),
            Ok(Request::Count {
                model: "m".into(),
                params: crate::analytics::CountParams {
                    budget: 4,
                    approx: true,
                    epsilon: 1.5,
                    delta: 0.1,
                    seed: 9,
                },
            })
        );
        assert_eq!(
            parse(r#"{"op":"sample","model":"m","k":5,"seed":3}"#),
            Ok(Request::Sample {
                model: "m".into(),
                k: 5,
                seed: 3,
            })
        );
        assert!(parse(r#"{"op":"count"}"#)
            .unwrap_err()
            .contains("\"model\""));
        assert!(parse(r#"{"op":"count","model":"m","epsilon":"nope"}"#)
            .unwrap_err()
            .contains("\"epsilon\""));
        assert!(parse(r#"{"op":"count","model":"m","delta":"1.5"}"#)
            .unwrap_err()
            .contains("\"delta\""));
        assert!(parse(r#"{"op":"sample","model":"m","k":-1}"#)
            .unwrap_err()
            .contains("\"k\""));
    }

    #[test]
    fn rejects_malformed_requests() {
        let parse = |s: &str| Request::from_json(&Json::parse(s).unwrap());
        assert!(parse(r#"{"op":"warp"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse(r#"{"nop":"ping"}"#).unwrap_err().contains("\"op\""));
        assert!(parse(r#"{"op":"check"}"#).unwrap_err().contains("\"dts\""));
        assert!(parse(r#"{"op":"check","dts":7}"#)
            .unwrap_err()
            .contains("\"dts\""));
        assert!(
            parse(r#"{"op":"build","core":"x","deltas":"","model":"m"}"#)
                .unwrap_err()
                .contains("\"vms\"")
        );
    }

    #[test]
    fn error_frames_render() {
        assert_eq!(
            error_frame("boom").to_string(),
            r#"{"error":"boom","ok":false}"#
        );
    }

    #[test]
    fn build_request_parses_frontends() {
        let b = BuildRequest {
            core: "/ { };".into(),
            deltas: String::new(),
            model: "feature A {\n}".into(),
            schemas: Vec::new(),
            vms: vec![("vm1".into(), vec!["A".into()])],
            family: false,
        };
        let input = b.to_pipeline_input().expect("parses");
        assert_eq!(input.vms.len(), 1);
        let bad = BuildRequest {
            core: "not a tree".into(),
            ..b
        };
        assert!(bad
            .to_pipeline_input()
            .unwrap_err()
            .starts_with("core.dts:"));
    }
}
