//! Structured tool-flow diagnostics: the pipeline [`Stage`] a failure
//! belongs to, a machine-matchable [`ErrorCode`], the offending entity
//! when known (a function, loop, core or variable name), and a rendered
//! human-readable message.

use std::fmt;

/// The coarse pipeline stage a session runs (and a diagnostic belongs
/// to). The first three are the artifact-producing stages of the staged
/// driver — `frontend → seed-costs → backend` — mirroring the cache
/// tiers of `argo-dse`; the fourth is the independent static checker
/// (`argo-verify`) run over a finished backend result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Program-side stages: validation, predictability transformations,
    /// loop-bound value analysis, HTG extraction (§ II-B).
    Frontend,
    /// Round-0 code-level WCET seeding (platform-dependent, scheduler-
    /// independent).
    SeedCosts,
    /// Platform-side stages: the schedule ↔ placement ↔ WCET feedback
    /// loop (§ II-E), parallel model (§ II-C), system-level WCET
    /// (§ II-D).
    Backend,
    /// Independent static verification of the backend's claims: MHP
    /// race detection, schedule/placement soundness, IR lints
    /// (`argo-verify`).
    Verify,
}

impl Stage {
    /// Every stage, in pipeline order. A stage's index here is its
    /// declaration index and its codec tag.
    pub const ALL: [Stage; 4] = [
        Stage::Frontend,
        Stage::SeedCosts,
        Stage::Backend,
        Stage::Verify,
    ];

    /// Stable span name, `stage.<label>`: the session driver records one
    /// span of this name per stage it runs.
    pub fn span_name(&self) -> &'static str {
        match self {
            Stage::Frontend => "stage.frontend",
            Stage::SeedCosts => "stage.seed-costs",
            Stage::Backend => "stage.backend",
            Stage::Verify => "stage.verify",
        }
    }

    /// Stable lower-case label (used in rendered messages and reports):
    /// the span name without its `stage.` prefix.
    pub fn label(&self) -> &'static str {
        &self.span_name()["stage.".len()..]
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Machine-matchable classification of a tool-flow failure (the
/// [crate-level docs](crate) list which stage emits each code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The input (or transformed) program failed IR validation.
    InvalidProgram,
    /// A program/use-case *name* could not be resolved to a program at
    /// all (emitted by drivers that look programs up by name, e.g. the
    /// `argo-dse` explorer's use-case registry).
    UnknownProgram,
    /// The requested entry function does not exist in the program.
    UnknownEntry,
    /// A session method that needs a platform was run on a session
    /// built without [`crate::Toolflow::platform`].
    MissingPlatform,
    /// The platform description is inconsistent (zero cores, bad WRR
    /// weights, mesh overflow, …).
    InvalidPlatform,
    /// A predictability transformation (constant folding, DOALL
    /// chunking) failed.
    TransformFailed,
    /// The value analysis could not bound a loop's trip count — WCET
    /// analysis is impossible for the program as written.
    UnboundedLoop,
    /// HTG task extraction failed.
    ExtractionFailed,
    /// Task extraction produced no top-level tasks (the entry function
    /// has no statements to parallelize).
    EmptyHtg,
    /// The code-level WCET analysis (function or task level) failed.
    CodeWcetFailed,
    /// WCET-directed memory placement failed.
    MemAssignFailed,
    /// Construction of the explicitly parallel program model failed.
    ParallelModelFailed,
    /// Two tasks that may happen in parallel perform conflicting
    /// accesses to the same memory (`argo-verify` race detector).
    DataRace,
    /// A schedule violates precedence, timing-consistency or per-core
    /// exclusivity constraints (`argo-verify` schedule validator).
    UnsoundSchedule,
    /// A memory placement exceeds a scratchpad's byte budget
    /// (`argo-verify` placement validator).
    PlacementOverflow,
    /// Per-core plans mis-order signal/wait synchronization relative to
    /// the tasks they protect (`argo-verify` comm-ordering check).
    CommOrdering,
    /// Lint: a scalar may be read before any assignment reaches it
    /// (`argo-verify` def-before-use dataflow).
    UninitRead,
    /// Lint: a scalar is assigned but its value is never read
    /// (`argo-verify`).
    DeadStore,
    /// Lint: a statement can never execute (it follows a `return` in
    /// its block) (`argo-verify`).
    UnreachableStmt,
    /// An infrastructure failure inside the toolflow itself — a worker
    /// panic caught at an isolation boundary, an unexpected internal
    /// invariant violation. Unlike every code above it says nothing
    /// about the *program*: retrying the identical request may succeed.
    InternalError,
    /// The request's deadline elapsed before the pipeline finished; the
    /// session was cancelled at a stage boundary. Transient by
    /// definition — the same request may finish under a looser deadline.
    DeadlineExceeded,
    /// A coalesced (single-flight) request's leader failed before
    /// producing a result; the follower received no answer. Transient:
    /// a fresh request elects a fresh leader.
    LeaderFailed,
}

impl ErrorCode {
    /// Every code, in declaration order. A code's index here is its
    /// codec tag.
    pub const ALL: [ErrorCode; 22] = [
        ErrorCode::InvalidProgram,
        ErrorCode::UnknownProgram,
        ErrorCode::UnknownEntry,
        ErrorCode::MissingPlatform,
        ErrorCode::InvalidPlatform,
        ErrorCode::TransformFailed,
        ErrorCode::UnboundedLoop,
        ErrorCode::ExtractionFailed,
        ErrorCode::EmptyHtg,
        ErrorCode::CodeWcetFailed,
        ErrorCode::MemAssignFailed,
        ErrorCode::ParallelModelFailed,
        ErrorCode::DataRace,
        ErrorCode::UnsoundSchedule,
        ErrorCode::PlacementOverflow,
        ErrorCode::CommOrdering,
        ErrorCode::UninitRead,
        ErrorCode::DeadStore,
        ErrorCode::UnreachableStmt,
        ErrorCode::InternalError,
        ErrorCode::DeadlineExceeded,
        ErrorCode::LeaderFailed,
    ];

    /// Stable kebab-case label (used in rendered messages and reports).
    pub fn label(&self) -> &'static str {
        match self {
            ErrorCode::InvalidProgram => "invalid-program",
            ErrorCode::UnknownProgram => "unknown-program",
            ErrorCode::UnknownEntry => "unknown-entry",
            ErrorCode::MissingPlatform => "missing-platform",
            ErrorCode::InvalidPlatform => "invalid-platform",
            ErrorCode::TransformFailed => "transform-failed",
            ErrorCode::UnboundedLoop => "unbounded-loop",
            ErrorCode::ExtractionFailed => "extraction-failed",
            ErrorCode::EmptyHtg => "empty-htg",
            ErrorCode::CodeWcetFailed => "code-wcet-failed",
            ErrorCode::MemAssignFailed => "mem-assign-failed",
            ErrorCode::ParallelModelFailed => "parallel-model-failed",
            ErrorCode::DataRace => "data-race",
            ErrorCode::UnsoundSchedule => "unsound-schedule",
            ErrorCode::PlacementOverflow => "placement-overflow",
            ErrorCode::CommOrdering => "comm-ordering",
            ErrorCode::UninitRead => "uninit-read",
            ErrorCode::DeadStore => "dead-store",
            ErrorCode::UnreachableStmt => "unreachable-stmt",
            ErrorCode::InternalError => "internal-error",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::LeaderFailed => "leader-failed",
        }
    }

    /// `true` for failures of the *infrastructure* rather than the
    /// program: panics caught at isolation boundaries
    /// ([`ErrorCode::InternalError`]), elapsed request deadlines
    /// ([`ErrorCode::DeadlineExceeded`]) and single-flight leader
    /// failures ([`ErrorCode::LeaderFailed`]).
    ///
    /// Transient diagnostics are **not deterministic in the request's
    /// inputs** — retrying the identical request may succeed — so they
    /// must never be archived in content-addressed caches (the
    /// `argo-dse` point tier persists ordinary diagnostics as part of a
    /// point's outcome, but skips transient ones: a cached
    /// `deadline-exceeded` would replay forever).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ErrorCode::InternalError | ErrorCode::DeadlineExceeded | ErrorCode::LeaderFailed
        )
    }
}

/// The text of a caught panic payload, for the
/// [`ErrorCode::InternalError`] diagnostic or message that reports it
/// (`&str` and `String` payloads cover `panic!` and failed assertions).
///
/// Pass `&*payload`: a `&Box<dyn Any + Send>` coerces to the box
/// itself, which holds no string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A structured tool-flow failure: stage, code, offending entity and a
/// rendered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The pipeline stage the failing input/step belongs to.
    pub stage: Stage,
    /// Machine-matchable failure classification.
    pub code: ErrorCode,
    /// The offending entity when one is known: a function, loop, core,
    /// platform or variable name.
    pub entity: Option<String>,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic with no entity.
    pub fn new(stage: Stage, code: ErrorCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            stage,
            code,
            entity: None,
            message: message.into(),
        }
    }

    /// Attaches the offending entity.
    #[must_use]
    pub fn with_entity(mut self, entity: impl Into<String>) -> Diagnostic {
        self.entity = Some(entity.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "toolflow error [{}/{}]", self.stage, self.code)?;
        if let Some(entity) = &self.entity {
            write!(f, " at `{entity}`")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_includes_stage_code_and_entity() {
        let d = Diagnostic::new(Stage::Frontend, ErrorCode::UnknownEntry, "no such function")
            .with_entity("main2");
        let s = d.to_string();
        assert!(s.contains("[frontend/unknown-entry]"), "{s}");
        assert!(s.contains("`main2`"), "{s}");
        assert!(s.contains("no such function"), "{s}");
    }

    #[test]
    fn rendering_without_entity_omits_backticks() {
        let d = Diagnostic::new(Stage::Backend, ErrorCode::InvalidPlatform, "no cores");
        assert_eq!(
            d.to_string(),
            "toolflow error [backend/invalid-platform]: no cores"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Stage::SeedCosts.label(), "seed-costs");
        assert_eq!(Stage::Verify.label(), "verify");
        assert_eq!(ErrorCode::EmptyHtg.label(), "empty-htg");
        assert_eq!(ErrorCode::DataRace.label(), "data-race");
        assert_eq!(ErrorCode::UnsoundSchedule.label(), "unsound-schedule");
        assert_eq!(ErrorCode::InternalError.label(), "internal-error");
        assert_eq!(ErrorCode::DeadlineExceeded.label(), "deadline-exceeded");
        assert_eq!(ErrorCode::LeaderFailed.label(), "leader-failed");
        assert_eq!(Stage::Backend.span_name(), "stage.backend");
    }

    #[test]
    fn variant_tables_are_in_declaration_order() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "{stage}");
        }
        for (i, code) in ErrorCode::ALL.into_iter().enumerate() {
            assert_eq!(code as usize, i, "{code}");
        }
    }

    #[test]
    fn panic_messages_read_str_and_string_payloads() {
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(&*payload), "boom 7");
        let payload = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(&*payload), "static");
        let payload = std::panic::catch_unwind(|| std::panic::panic_any(7u8)).unwrap_err();
        assert_eq!(panic_message(&*payload), "<non-string panic payload>");
    }

    #[test]
    fn transient_codes_are_exactly_the_infrastructure_ones() {
        assert!(ErrorCode::InternalError.is_transient());
        assert!(ErrorCode::DeadlineExceeded.is_transient());
        assert!(ErrorCode::LeaderFailed.is_transient());
        for code in [
            ErrorCode::InvalidProgram,
            ErrorCode::UnboundedLoop,
            ErrorCode::DataRace,
            ErrorCode::UnsoundSchedule,
            ErrorCode::UnreachableStmt,
        ] {
            assert!(!code.is_transient(), "{code} must be deterministic");
        }
    }
}
