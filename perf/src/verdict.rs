//! What llhsc answered — over the CLI, the daemon or in-process — and
//! whether it matches the oracle.

use llhsc_service::Json;

use crate::gen::{CheckCounts, Expect, Payload};

/// The verdict of a `build` request, as far as the transport shows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildOutcome {
    /// The configuration passed every checker.
    pub accepted: bool,
    /// Per accepted VM, the CPU nodes of its derived tree (when the
    /// transport returns the trees).
    pub vm_cpus: Option<Vec<Vec<String>>>,
    /// The stage of the first error of a rejected build (when shown).
    pub stage: Option<String>,
}

/// One answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A single-tree check.
    Check(CheckCounts),
    /// A pipeline run.
    Build(BuildOutcome),
}

/// Parses the `llhsc check` rendering: one `checked N nodes, R regions,
/// K schema rules: ok|INVALID` line on stdout and one `error[…]` line
/// per finding on stderr.
pub fn check_counts(stdout: &str, stderr: &str) -> Result<CheckCounts, String> {
    let bad = || format!("unexpected check output {stdout:?}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("checked "))
        .ok_or_else(bad)?;
    let words: Vec<&str> = line.split_whitespace().collect();
    let num = |i: usize| -> Result<usize, String> {
        words
            .get(i)
            .and_then(|w| w.trim_end_matches(',').parse().ok())
            .ok_or_else(bad)
    };
    let mut counts = CheckCounts {
        nodes: num(1)?,
        regions: num(3)?,
        ..CheckCounts::default()
    };
    for l in stderr.lines() {
        if l.starts_with("error[syntactic]:") {
            counts.syntactic += 1;
        } else if l.starts_with("error[semantic]: interrupt line") {
            counts.interrupts += 1;
        } else if l.starts_with("error[semantic]:") {
            counts.overlaps += 1;
        } else if !l.trim().is_empty() {
            return Err(format!("unexpected stderr line {l:?}"));
        }
    }
    if line.ends_with(": ok") != counts.clean() {
        return Err(format!("summary {line:?} disagrees with the findings"));
    }
    Ok(counts)
}

/// The `cpu@…` node names of a printed tree.
pub fn cpus_of(dts: &str) -> Vec<String> {
    dts.lines()
        .filter_map(|l| {
            let l = l.trim_start();
            l.starts_with("cpu@")
                .then(|| l.split_whitespace().next().unwrap_or(l).to_string())
        })
        .collect()
}

/// Decodes the daemon's response frame to `payload`.
pub fn from_frame(frame: &Json, payload: &Payload) -> Result<Outcome, String> {
    let family = matches!(payload, Payload::Build { family: true, .. });
    if frame.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = frame.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("error frame: {error}"));
    }
    let text = |key: &str| frame.get(key).and_then(Json::as_str).unwrap_or("");
    let clean = frame
        .get("clean")
        .and_then(Json::as_bool)
        .ok_or("frame without \"clean\"")?;
    if matches!(payload, Payload::Check { .. }) {
        if frame.get("input_error").and_then(Json::as_bool) != Some(false) {
            return Err("the daemon could not interpret the tree".into());
        }
        return check_counts(text("stdout"), text("stderr")).map(Outcome::Check);
    }
    let vm_cpus = (clean && !family).then(|| {
        frame
            .get("vm_dts")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|d| cpus_of(d.as_str().unwrap_or("")))
            .collect()
    });
    let stage = frame
        .get("diagnostics")
        .and_then(Json::as_arr)
        .and_then(|ds| {
            ds.iter()
                .find(|d| d.get("severity").and_then(Json::as_str) == Some("error"))
        })
        .and_then(|d| d.get("stage").and_then(Json::as_str))
        .map(str::to_string);
    Ok(Outcome::Build(BuildOutcome {
        accepted: clean,
        vm_cpus,
        stage,
    }))
}

/// The stage named by the first `error[stage]` tag of a rejected
/// `llhsc build`'s stderr.
pub fn stage_of_stderr(stderr: &str) -> Option<String> {
    stderr.lines().find_map(|l| {
        let rest = l.trim_start().strip_prefix("error[")?;
        Some(rest.split(']').next()?.to_string())
    })
}

impl Expect {
    /// `Ok` when `got` is what the oracle predicted.
    pub fn verify(&self, got: &Outcome) -> Result<(), String> {
        match (self, got) {
            (Expect::Check(want), Outcome::Check(got)) => {
                if want == got {
                    Ok(())
                } else {
                    Err(format!("check: expected {want:?}, got {got:?}"))
                }
            }
            (Expect::Build(want), Outcome::Build(got)) => {
                if want.accepted != got.accepted {
                    return Err(format!(
                        "build: expected accepted={}, got accepted={} (stage {:?})",
                        want.accepted, got.accepted, got.stage
                    ));
                }
                if let (false, Some(stage)) = (got.accepted, &got.stage) {
                    if stage != want.reject_stage {
                        return Err(format!(
                            "build rejected at {stage}, expected {}",
                            want.reject_stage
                        ));
                    }
                }
                if let (true, Some(vm_cpus)) = (got.accepted && want.vms > 0, &got.vm_cpus) {
                    if vm_cpus.len() != want.vms || vm_cpus.iter().any(|c| c.len() != 1) {
                        return Err(format!(
                            "build: expected one CPU in each of {} VMs, got {vm_cpus:?}",
                            want.vms
                        ));
                    }
                    let owned: Vec<&String> = vm_cpus.iter().map(|c| &c[0]).collect();
                    let distinct: std::collections::BTreeSet<_> = owned.iter().collect();
                    if distinct.len() != owned.len() {
                        return Err(format!("build: VMs share a CPU: {owned:?}"));
                    }
                    if let Some(pinned) = &want.cpus {
                        if owned.iter().zip(pinned).any(|(a, b)| *a != b) {
                            return Err(format!("build: expected CPUs {pinned:?}, got {owned:?}"));
                        }
                    }
                }
                Ok(())
            }
            _ => Err("answer of the wrong kind".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::BuildExpect;

    #[test]
    fn parses_check_rendering() {
        let counts = check_counts(
            "checked 12 nodes, 9 regions, 4 schema rules: INVALID\n",
            "error[semantic]: interrupt line 33 claimed by /a, /b\n\
             error[semantic]: /a reg[0] overlaps /c reg[0] at 0x1000\n\
             error[syntactic]: /cpus/cpu@0 violates cpu\n",
        )
        .unwrap();
        assert_eq!(
            counts,
            CheckCounts {
                nodes: 12,
                regions: 9,
                syntactic: 1,
                interrupts: 1,
                overlaps: 1
            }
        );
        assert!(check_counts("checked 3 nodes, 1 regions, 0 schema rules: INVALID\n", "").is_err());
        assert!(check_counts("garbage", "").is_err());
    }

    #[test]
    fn build_verification() {
        let want = Expect::Build(BuildExpect {
            accepted: true,
            vms: 2,
            cpus: None,
            reject_stage: "allocation",
        });
        let got = |cpus: &[&str]| {
            Outcome::Build(BuildOutcome {
                accepted: true,
                vm_cpus: Some(cpus.iter().map(|c| vec![c.to_string()]).collect()),
                stage: None,
            })
        };
        assert!(want.verify(&got(&["cpu@0", "cpu@3"])).is_ok());
        assert!(want.verify(&got(&["cpu@1", "cpu@1"])).is_err());
        assert!(want.verify(&got(&["cpu@1"])).is_err());
        let rejected = Outcome::Build(BuildOutcome {
            accepted: false,
            vm_cpus: None,
            stage: Some("allocation".into()),
        });
        assert!(want.verify(&rejected).is_err());
        assert_eq!(
            stage_of_stderr("error: llhsc pipeline failed:\n  error[allocation]: x\n"),
            Some("allocation".into())
        );
        assert_eq!(
            cpus_of("/ {\n\tcpus {\n\t\tcpu@3 {\n\t\t};\n\t};\n};"),
            vec!["cpu@3"]
        );
    }
}
