//! # argo-verify — independent static verification of the toolflow
//!
//! The pipeline *claims* its parallelization is sound: the extractor
//! claims its dependence edges cover every conflict, the scheduler
//! claims its schedule respects them, the placement claims it fits the
//! scratchpads, the parallel model claims its signal/wait pairs realize
//! the cross-core edges. This crate re-derives and checks each claim
//! from the finished [`BackendResult`], independently of the passes
//! that produced it — the correctness backbone PR 1's reactively-fixed
//! dependence bug showed the golden-report diff alone cannot be.
//!
//! Three passes, all emitting [`Finding`]s (a [`Severity`] plus a
//! structured [`Diagnostic`]):
//!
//! * [`race`] — may-happen-in-parallel data-race detection: MHP task
//!   pairs under each [`MhpMode`] (and from the concrete schedule),
//!   intersected read/write sets, array conflicts refined with
//!   [`argo_htg::deps::AccessRange`] disjointness; each task's access
//!   summary is derived once per result, not once per pair;
//! * [`schedule`] — schedule/placement validation: precedence edges
//!   (via the `TaskGraphIndex`), timing consistency, per-core
//!   exclusivity, SPM byte budgets, signal/wait comm ordering;
//! * [`lint`] — IR lints on the slot-resolved mirror
//!   ([`argo_ir::resolve`]; [`verify_backend`] reads the frontend's,
//!   which the parallel program shares): uninitialized read
//!   (def-before-use dataflow over slot-indexed bitsets), dead store,
//!   unreachable statement, unbounded loop.
//!
//! ## Verify and lint codes
//!
//! | code | severity | what it catches | how to allow |
//! |------|----------|-----------------|--------------|
//! | `data-race` | error | unordered MHP task pair with conflicting accesses to one variable | `--allow data-race` / [`VerifyConfig::allow`] |
//! | `unsound-schedule` | error | precedence, timing-consistency, core-range or exclusivity violation in a schedule | `--allow unsound-schedule` |
//! | `placement-overflow` | error | a memory placement exceeding a core's scratchpad byte budget | `--allow placement-overflow` |
//! | `comm-ordering` | error | per-core plans mis-ordering signal/wait around the tasks they protect, or a cross-core edge with no synchronization at all | `--allow comm-ordering` |
//! | `uninit-read` | warning | a scalar that may be read before any assignment reaches it | `--allow uninit-read` |
//! | `dead-store` | warning | a scalar assigned but never read anywhere in its function | `--allow dead-store` |
//! | `unreachable-stmt` | warning | a statement after a `return` in the same block | `--allow unreachable-stmt` |
//! | `unbounded-loop` | warning | a `while` loop carrying no annotated trip-count bound | `--allow unbounded-loop` |
//!
//! The default gate ([`VerifyReport::gate`]) fails only on
//! [`Severity::Error`] findings, so warning-level lints never break a
//! clean pipeline run; CI runs the verifier over every seed app × MHP
//! mode and expects zero findings at that severity.
//!
//! Reports are deterministic: findings are sorted by (severity,
//! code, entity, message) and [`VerifyReport::render_text`] contains
//! no timing or environment data, so verifier output is byte-identical
//! across runs and thread counts (pinned by golden tests).

pub mod lint;
pub mod race;
pub mod schedule;
pub mod session;

pub use session::ToolflowVerifyExt;

use argo_adl::Platform;
use argo_core::{Artifact, BackendResult, Diagnostic, ErrorCode, Fingerprint, FingerprintHasher};
use argo_wcet::system::MhpMode;
use std::fmt;

/// How bad a finding is. Ordered: `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never gates.
    Note,
    /// Suspicious but not demonstrably unsound; never gates by default.
    Warning,
    /// A soundness violation; fails the default gate.
    Error,
}

impl Severity {
    /// Stable lower-case label.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One verifier finding: a severity plus the structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How bad it is (drives the gate).
    pub severity: Severity,
    /// What, where and why (always at [`argo_core::Stage::Verify`]).
    pub diagnostic: Diagnostic,
}

impl Finding {
    /// Builds a finding.
    pub fn new(severity: Severity, diagnostic: Diagnostic) -> Finding {
        Finding {
            severity,
            diagnostic,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = &self.diagnostic;
        write!(f, "{} [{}/{}]", self.severity, d.stage, d.code)?;
        if let Some(entity) = &d.entity {
            write!(f, " at `{entity}`")?;
        }
        write!(f, ": {}", d.message)
    }
}

/// Verifier configuration: the MHP mode the race detector uses and the
/// per-lint allow list.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// MHP precision for the race detector (matches the system-level
    /// analysis mode the pipeline ran under).
    pub mhp: MhpMode,
    /// Codes to drop from the report entirely (see the code table in
    /// the [crate docs](crate)).
    pub allow: Vec<ErrorCode>,
}

impl Default for VerifyConfig {
    fn default() -> VerifyConfig {
        VerifyConfig {
            mhp: MhpMode::Static,
            allow: Vec::new(),
        }
    }
}

/// Parses a kebab-case code label (as printed in reports and accepted
/// by `--allow`) back to its [`ErrorCode`].
pub fn parse_code(label: &str) -> Option<ErrorCode> {
    let all = [
        ErrorCode::DataRace,
        ErrorCode::UnsoundSchedule,
        ErrorCode::PlacementOverflow,
        ErrorCode::CommOrdering,
        ErrorCode::UninitRead,
        ErrorCode::DeadStore,
        ErrorCode::UnreachableStmt,
        ErrorCode::UnboundedLoop,
    ];
    all.into_iter().find(|c| c.label() == label)
}

/// The verifier's output artifact: every surviving finding, stably
/// ordered, plus the MHP mode the race detector ran under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// MHP mode the race detector used.
    pub mhp: MhpMode,
    /// Findings sorted by (severity desc, code, entity, message).
    pub findings: Vec<Finding>,
}

impl VerifyReport {
    /// Number of findings at [`Severity::Error`].
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// `true` when no findings survived the allow list.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The default gate: `Err` carrying the first error-severity
    /// finding's diagnostic, `Ok` otherwise (warnings never gate).
    ///
    /// # Errors
    ///
    /// The first [`Severity::Error`] finding, as a [`Diagnostic`].
    pub fn gate(&self) -> Result<(), Diagnostic> {
        match self.findings.iter().find(|f| f.severity == Severity::Error) {
            Some(f) => Err(f.diagnostic.clone()),
            None => Ok(()),
        }
    }

    /// Deterministic human-readable rendering (no timing, no
    /// environment data — byte-identical across runs and threads).
    pub fn render_text(&self) -> String {
        let mut out = format!("verify report (mhp={}): ", self.mhp);
        if self.is_clean() {
            out.push_str("clean\n");
            return out;
        }
        let errors = self.error_count();
        let warnings = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count();
        out.push_str(&format!(
            "{} finding{} ({errors} error{}, {warnings} warning{})\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
        ));
        for f in &self.findings {
            out.push_str(&format!("  {f}\n"));
        }
        out
    }
}

impl Artifact for VerifyReport {
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_str("verify-report");
        h.write_str(&self.mhp.to_string());
        for f in &self.findings {
            h.write_str(f.severity.label());
            h.write_str(f.diagnostic.code.label());
            h.write_str(f.diagnostic.entity.as_deref().unwrap_or(""));
            h.write_str(&f.diagnostic.message);
        }
        h.finish()
    }

    fn summary(&self) -> String {
        if self.is_clean() {
            "clean".to_string()
        } else {
            format!(
                "{} findings ({} errors)",
                self.findings.len(),
                self.error_count()
            )
        }
    }
}

/// Sorts findings into the stable report order: severity (errors
/// first), then code label, entity, message.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.diagnostic.code.label().cmp(b.diagnostic.code.label()))
            .then_with(|| a.diagnostic.entity.cmp(&b.diagnostic.entity))
            .then_with(|| a.diagnostic.message.cmp(&b.diagnostic.message))
    });
}

/// Runs all three verification passes over a finished backend result
/// and returns the stably-ordered report.
///
/// Race detection, schedule/placement validation, plan checking and
/// the lint each run under their own span (`verify.race`,
/// `verify.schedule`, `verify.plans`, `verify.lint`), inert unless
/// tracing is on; they show in `--trace` files and flame summaries,
/// never in the report.
///
/// This is the standalone entry point (CLI, DSE rows, tests); inside a
/// session prefer [`ToolflowVerifyExt::run_verify`], which adds
/// observer events.
pub fn verify_backend(
    result: &BackendResult,
    platform: &Platform,
    cfg: &VerifyConfig,
) -> VerifyReport {
    let pp = &result.parallel;
    let mut findings = {
        let _span = argo_trace::span("verify.race");
        race::check_races(result, cfg.mhp)
    };
    {
        let _span = argo_trace::span("verify.schedule");
        findings.extend(schedule::check_schedule(
            &pp.graph,
            platform,
            &pp.schedule,
            Some(&pp.memory_map),
        ));
    }
    {
        let _span = argo_trace::span("verify.plans");
        findings.extend(schedule::check_plans(pp));
    }
    {
        let _span = argo_trace::span("verify.lint");
        findings.extend(lint::lint_resolution(&pp.resolution));
    }
    findings.retain(|f| !cfg.allow.contains(&f.diagnostic.code));
    sort_findings(&mut findings);
    VerifyReport {
        mhp: cfg.mhp,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_core::Stage;

    fn finding(sev: Severity, code: ErrorCode, entity: &str, msg: &str) -> Finding {
        Finding::new(
            sev,
            Diagnostic::new(Stage::Verify, code, msg).with_entity(entity),
        )
    }

    #[test]
    fn sort_puts_errors_first_then_code_entity_message() {
        let mut v = vec![
            finding(Severity::Warning, ErrorCode::DeadStore, "f::x", "w1"),
            finding(Severity::Error, ErrorCode::UnsoundSchedule, "t1", "e2"),
            finding(Severity::Error, ErrorCode::DataRace, "buf", "e1"),
            finding(Severity::Warning, ErrorCode::DeadStore, "f::a", "w2"),
        ];
        sort_findings(&mut v);
        let labels: Vec<_> = v
            .iter()
            .map(|f| (f.severity.label(), f.diagnostic.entity.clone().unwrap()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("error", "buf".to_string()),
                ("error", "t1".to_string()),
                ("warning", "f::a".to_string()),
                ("warning", "f::x".to_string()),
            ]
        );
    }

    #[test]
    fn gate_fails_only_on_errors() {
        let clean = VerifyReport {
            mhp: MhpMode::Static,
            findings: vec![finding(
                Severity::Warning,
                ErrorCode::DeadStore,
                "f::x",
                "w",
            )],
        };
        assert!(clean.gate().is_ok());
        let racy = VerifyReport {
            mhp: MhpMode::Static,
            findings: vec![finding(Severity::Error, ErrorCode::DataRace, "buf", "e")],
        };
        let d = racy.gate().unwrap_err();
        assert_eq!(d.code, ErrorCode::DataRace);
        assert_eq!(d.stage, Stage::Verify);
    }

    #[test]
    fn render_text_is_deterministic_and_labelled() {
        let r = VerifyReport {
            mhp: MhpMode::Naive,
            findings: vec![
                finding(Severity::Error, ErrorCode::DataRace, "buf", "conflict"),
                finding(Severity::Warning, ErrorCode::UninitRead, "f::x", "maybe"),
            ],
        };
        let t = r.render_text();
        assert_eq!(t, r.render_text());
        assert!(t.starts_with("verify report (mhp=naive): 2 findings (1 error, 1 warning)"));
        assert!(
            t.contains("error [verify/data-race] at `buf`: conflict"),
            "{t}"
        );
        assert!(
            t.contains("warning [verify/uninit-read] at `f::x`: maybe"),
            "{t}"
        );
    }

    #[test]
    fn parse_code_round_trips_all_verify_codes() {
        for label in [
            "data-race",
            "unsound-schedule",
            "placement-overflow",
            "comm-ordering",
            "uninit-read",
            "dead-store",
            "unreachable-stmt",
            "unbounded-loop",
        ] {
            let code = parse_code(label).unwrap_or_else(|| panic!("{label} should parse"));
            assert_eq!(code.label(), label);
        }
        assert_eq!(parse_code("no-such-code"), None);
    }

    #[test]
    fn report_fingerprint_tracks_contents() {
        let a = VerifyReport {
            mhp: MhpMode::Static,
            findings: vec![],
        };
        let b = VerifyReport {
            mhp: MhpMode::Static,
            findings: vec![finding(Severity::Error, ErrorCode::DataRace, "buf", "e")],
        };
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.summary(), "clean");
        assert_eq!(b.summary(), "1 findings (1 errors)");
    }
}
