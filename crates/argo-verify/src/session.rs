//! The `run_verify` session stage: observer-bracketed verification of
//! a finished backend result, as an extension trait on
//! [`Toolflow`] (argo-core stays free of a dependency on this crate).

use crate::{verify_backend, VerifyConfig, VerifyReport};
use argo_core::{BackendResult, Diagnostic, ErrorCode, Stage, Toolflow};

/// Adds the verification stage to [`Toolflow`] sessions.
pub trait ToolflowVerifyExt {
    /// Runs the full verification suite (race detection under the
    /// session's configured MHP mode, schedule/placement validation,
    /// IR lints) over `result` as the session's [`Stage::Verify`]
    /// stage ([`Toolflow::run_stage`]): the observer's checkpoint is
    /// polled first, then the run is bracketed by its events.
    ///
    /// # Errors
    ///
    /// The checkpoint's diagnostic (e.g. a passed request deadline),
    /// or [`ErrorCode::MissingPlatform`] when the session has no
    /// platform bound. Findings do *not* error here — inspect the
    /// returned report (or its [`VerifyReport::gate`]).
    fn run_verify(&self, result: &BackendResult) -> Result<VerifyReport, Diagnostic>;
}

impl ToolflowVerifyExt for Toolflow<'_> {
    fn run_verify(&self, result: &BackendResult) -> Result<VerifyReport, Diagnostic> {
        let cfg = VerifyConfig {
            mhp: self.cfg().mhp,
            ..VerifyConfig::default()
        };
        self.run_stage(Stage::Verify, || {
            let platform = self.configured_platform().ok_or_else(|| {
                Diagnostic::new(
                    Stage::Verify,
                    ErrorCode::MissingPlatform,
                    "session has no platform; call Toolflow::platform(..) before verifying",
                )
            })?;
            Ok(verify_backend(result, platform, &cfg))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_adl::Platform;
    use argo_core::{CancelToken, CollectingObserver, Fanout, StageEvent, ToolchainConfig};
    use argo_ir::parse::parse_program;

    const PIPE: &str = r#"
        void main(real a[64], real b[64], real c[64], real d[64]) {
            int i;
            for (i = 0; i < 64; i = i + 1) { b[i] = a[i] * 2.0; }
            for (i = 0; i < 64; i = i + 1) { c[i] = a[i] + 1.0; }
            for (i = 0; i < 64; i = i + 1) { d[i] = b[i] + c[i]; }
        }
    "#;

    #[test]
    fn run_verify_is_clean_on_a_sound_pipeline_and_emits_events() {
        let program = parse_program(PIPE).unwrap();
        let platform = Platform::xentium_manycore(2);
        let obs = CollectingObserver::default();
        let flow = Toolflow::new(program, "main")
            .platform(&platform)
            .config(ToolchainConfig::default())
            .observer(&obs);
        let result = flow.run().expect("compile");
        let report = flow.run_verify(&result).expect("verify runs");
        assert!(report.is_clean(), "{}", report.render_text());

        let events = obs.events();
        let started = events
            .iter()
            .any(|e| matches!(e, StageEvent::Started(Stage::Verify, _)));
        let finished = events.iter().any(
            |e| matches!(e, StageEvent::Finished(s) if s.stage == Stage::Verify && s.detail == "clean"),
        );
        assert!(started && finished, "verify events missing: {events:?}");
    }

    /// Verify is a stage boundary: a request whose token trips while
    /// the backend runs stops before verification, with no verify event.
    #[test]
    fn a_checkpoint_tripping_at_verify_aborts_before_any_verify_event() {
        let program = parse_program(PIPE).unwrap();
        let platform = Platform::xentium_manycore(2);
        let token = CancelToken::new();
        let events = CollectingObserver::default();
        let obs = Fanout(&token, &events);
        let flow = Toolflow::new(program, "main")
            .platform(&platform)
            .observer(&obs);
        let result = flow.run().expect("compile");
        token.cancel();
        let err = flow.run_verify(&result).unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert_eq!(err.stage, Stage::Verify);
        assert_eq!(events.finished_count(Stage::Backend), 1);
        assert!(
            events.events().iter().all(|e| !matches!(
                e,
                StageEvent::Started(Stage::Verify, _) | StageEvent::Errored(Stage::Verify, ..)
            )) && events.finished_count(Stage::Verify) == 0,
            "{:?}",
            events.events()
        );
    }

    #[test]
    fn run_verify_without_platform_reports_missing_platform() {
        let program = parse_program(PIPE).unwrap();
        let result = {
            let platform = Platform::xentium_manycore(2);
            Toolflow::new(program.clone(), "main")
                .platform(&platform)
                .run()
                .expect("compile")
        };
        let flow = Toolflow::new(program, "main");
        let err = flow.run_verify(&result).unwrap_err();
        assert_eq!(err.code, ErrorCode::MissingPlatform);
        assert_eq!(err.stage, Stage::Verify);
    }
}
