//! Unified diagnostics across pipeline stages.

use std::fmt;

use llhsc_delta::Provenance;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational (e.g. applied delta order).
    Info,
    /// Suspicious but not fatal (e.g. unit-address mismatch).
    Warning,
    /// The configuration is invalid.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which checker produced a finding (the three checkers of §IV plus
/// the generation stages around them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Feature-model / resource-allocation checking (§IV-A).
    Allocation,
    /// Delta activation, ordering and application (§III-B).
    DeltaApplication,
    /// Schema-based syntactic checking (§IV-B).
    Syntactic,
    /// Address/interrupt semantic checking (§IV-C).
    Semantic,
    /// Hypervisor configuration generation (§II-C).
    Generation,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Allocation => "allocation",
            Stage::DeltaApplication => "delta",
            Stage::Syntactic => "syntactic",
            Stage::Semantic => "semantic",
            Stage::Generation => "generation",
        })
    }
}

/// One finding, optionally blamed on a delta module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub severity: Severity,
    /// Producing stage.
    pub stage: Stage,
    /// Which VM the finding concerns (`None` = platform / global).
    pub vm: Option<usize>,
    /// Human-readable message.
    pub message: String,
    /// The delta operations that touched the offending node, if the
    /// finding is attributable (the paper's traceability, §III-B).
    pub blamed: Vec<Provenance>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            stage,
            vm: None,
            message: message.into(),
            blamed: Vec::new(),
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            stage,
            vm: None,
            message: message.into(),
            blamed: Vec::new(),
        }
    }

    /// Attaches a VM index.
    pub fn for_vm(mut self, vm: usize) -> Diagnostic {
        self.vm = Some(vm);
        self
    }

    /// Attaches delta provenance.
    pub fn blame(mut self, provenance: Vec<Provenance>) -> Diagnostic {
        self.blamed = provenance;
        self
    }
}

/// Removes exact-duplicate diagnostics, keeping the first occurrence
/// and the original order.
///
/// Per-VM checking can surface the same finding more than once — a
/// platform-tree problem shows up identically in every VM that inherits
/// the offending node — and rendering it repeatedly buries the signal.
/// Two diagnostics are duplicates when every field (severity, stage, VM
/// index, message, blame) matches; findings that differ only in their
/// VM index are deliberately kept separate.
pub fn dedup_diagnostics(diagnostics: &mut Vec<Diagnostic>) {
    let mut seen = std::collections::HashSet::new();
    diagnostics.retain(|d| {
        seen.insert((
            d.severity,
            d.stage,
            d.vm,
            d.message.clone(),
            d.blamed.clone(),
        ))
    });
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.stage)?;
        if let Some(vm) = self.vm {
            write!(f, "[vm{}]", vm + 1)?;
        }
        write!(f, ": {}", self.message)?;
        if !self.blamed.is_empty() {
            write!(f, " (introduced by")?;
            for p in &self.blamed {
                write!(f, " {}:{} {}", p.delta, p.op, p.path)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_blame() {
        let d = Diagnostic::error(Stage::Semantic, "collision at 0x0")
            .for_vm(0)
            .blame(vec![Provenance {
                delta: "d4".into(),
                op: "modifies".into(),
                path: "/memory@40000000".into(),
            }]);
        let s = d.to_string();
        assert!(s.contains("error[semantic][vm1]"));
        assert!(s.contains("d4:modifies /memory@40000000"));
    }

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        let a = Diagnostic::error(Stage::Semantic, "clash at 0x1000");
        let b = Diagnostic::error(Stage::Syntactic, "missing \"reg\"").for_vm(0);
        let mut diags = vec![a.clone(), b.clone(), a.clone(), b.clone(), a.clone()];
        dedup_diagnostics(&mut diags);
        assert_eq!(diags, vec![a, b]);
    }

    #[test]
    fn dedup_keeps_distinct_vm_indices() {
        let a = Diagnostic::error(Stage::Semantic, "clash").for_vm(0);
        let b = Diagnostic::error(Stage::Semantic, "clash").for_vm(1);
        let mut diags = vec![a.clone(), b.clone()];
        dedup_diagnostics(&mut diags);
        assert_eq!(diags.len(), 2);
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
