//! The pipeline calls every workload shares, and the correctness
//! oracle every timed result is checked against.
//!
//! The oracle replays a compiled parallel program in the cycle
//! simulator (`argo-sim`) under worst-case and under seeded random
//! arbitration: the simulated cycles must not exceed the system WCET
//! bound, and the outputs must equal the sequential interpreter's on
//! the original program.

use argo::apps::UseCase;
use argo::core::{BackendResult, ToolchainConfig};
use argo::dse::{DesignSpace, ExplorationPoint};
use argo::ir::interp::ArrayData;
use argo::sim::{sequential_reference, simulate, SimConfig, SimMode};
use argo::trace::span;
use argo::wcet::value::ValueCtx;
use argo::{Diagnostic, Toolflow, ToolflowVerifyExt};

/// Synthetic-input seed of the use cases, as the DSE and the daemon
/// default to it: the programs are fixed, the benchmark seed only
/// orders and draws requests.
const APP_SEED: u64 = 42;

/// One use case with its sequential reference outputs.
pub struct App {
    pub uc: UseCase,
    reference: Vec<(String, ArrayData)>,
}

impl App {
    /// Builds the named use case and runs the sequential reference.
    ///
    /// # Panics
    ///
    /// On an unknown name or a failing reference run: both are bugs in
    /// the workload definition.
    pub fn new(name: &str) -> App {
        let uc = match name {
            "egpws" => argo::apps::egpws::use_case(APP_SEED),
            "polka" => argo::apps::polka::use_case(APP_SEED),
            "weaa" => argo::apps::weaa::use_case(APP_SEED),
            other => panic!("no use case `{other}`"),
        };
        let reference = sequential_reference(&uc.program, uc.entry, uc.args.clone())
            .unwrap_or_else(|e| panic!("sequential reference of {name}: {e}"));
        App { uc, reference }
    }

    /// Replays `result` (compiled from this app for `point`) in the
    /// simulator and returns the worst-case-mode cycles.
    ///
    /// # Errors
    ///
    /// Describes the first violated property.
    pub fn simulate(
        &self,
        point: &ExplorationPoint,
        result: &BackendResult,
        random_seed: u64,
    ) -> Result<u64, String> {
        let platform = point.platform.build(point.cores, point.spm_bytes);
        let label = point.label();
        let mut worst_case = 0;
        for mode in [SimMode::WorstCase, SimMode::Random { seed: random_seed }] {
            let sim = simulate(
                &result.parallel,
                &platform,
                self.uc.args.clone(),
                &SimConfig { mode },
            )
            .map_err(|e| format!("{label}: simulation ({mode:?}) failed: {e}"))?;
            if sim.cycles > result.system.bound {
                return Err(format!(
                    "{label}: {mode:?} simulation took {} cycles, above the bound {}",
                    sim.cycles, result.system.bound
                ));
            }
            if sim.outputs != self.reference {
                return Err(format!(
                    "{label}: {mode:?} outputs differ from the sequential reference"
                ));
            }
            if mode == SimMode::WorstCase {
                worst_case = sim.cycles;
            }
        }
        Ok(worst_case.max(1))
    }
}

/// The toolchain configuration `point` runs with inside `space` — the
/// same mapping `argo-dse` applies.
fn config(point: &ExplorationPoint, space: &DesignSpace) -> ToolchainConfig {
    ToolchainConfig {
        granularity: point.granularity,
        chunk_loops: point.chunk_loops,
        scheduler: point.scheduler,
        mhp: point.mhp,
        feedback_rounds: space.feedback_rounds,
        value_ctx: ValueCtx::default(),
    }
}

/// One cold compile in a fresh `Toolflow` session, driven stage by
/// stage as `Explorer::evaluate_point` does on a cache miss, with one
/// span per layer call (inert while spans are off).
///
/// # Errors
///
/// The first stage's diagnostic, or the verify gate's first error.
pub fn compile(
    app: &App,
    point: &ExplorationPoint,
    space: &DesignSpace,
) -> Result<BackendResult, Diagnostic> {
    let platform = point.platform.build(point.cores, point.spm_bytes);
    let flow = Toolflow::borrowed(&app.uc.program, app.uc.entry)
        .platform(&platform)
        .config(config(point, space));
    let artifact = {
        let _layer = span("argo-core.frontend");
        flow.run_frontend()?
    };
    let costs = {
        let _layer = span("argo-core.seed_costs");
        flow.run_seed_costs(&artifact)?
    };
    let result = {
        let _layer = span("argo-core.backend");
        flow.run_backend(artifact, Some(&costs))?
    };
    let _layer = span("argo-verify");
    flow.run_verify(&result)?.gate()?;
    Ok(result)
}
