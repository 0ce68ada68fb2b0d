//! Quickstart: drive the complete ARGO flow (paper Fig. 1) on a small
//! mini-C program through a [`Toolflow`] session — the typed, observable
//! driver API — then print the tool-chain report, the per-core parallel
//! pseudo-C, and the simulated validation run.
//!
//! The session is built with a fluent builder and runs the staged
//! pipeline (`frontend → seed-costs → backend`); the attached
//! `TraceObserver` streams per-stage progress (artifact fingerprints,
//! timings, feedback-round snapshots) to stderr, so stdout keeps only
//! the report. The one-call form is
//! `Toolflow::new(program, "main").platform(&platform).config(cfg).run()`.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use argo_adl::Platform;
use argo_core::{Artifact, ToolchainConfig, Toolflow, TraceObserver};
use argo_ir::interp::{ArgVal, ArrayData};
use argo_sim::{simulate, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The application: a compute-heavy map + reduction in mini-C.
    let src = r#"
        real main(real a[256], real b[256]) {
            real s; int i;
            s = 0.0;
            for (i = 0; i < 256; i = i + 1) {
                b[i] = sqrt(a[i]) * 2.0 + sin(a[i]);
            }
            for (i = 0; i < 256; i = i + 1) { s = s + b[i]; }
            return s;
        }
    "#;
    let program = argo_ir::parse::parse_program(src)?;

    // 2. The platform: a 4-core Xentium-style DSP with a WRR bus,
    //    described by the ADL object model.
    let platform = Platform::xentium_manycore(4);

    // 3. Run the tool chain as an observed session, stage by stage:
    //    transforms → HTG → schedule → parallel model → code-level +
    //    system-level WCET, with iterative feedback traced to stderr.
    let trace = TraceObserver::stderr();
    let flow = Toolflow::new(program, "main")
        .platform(&platform)
        .config(ToolchainConfig::default())
        .observer(&trace);
    let artifact = flow.run_frontend()?;
    eprintln!(
        "[quickstart] frontend artifact fingerprint: {}",
        artifact.fingerprint()
    );
    let costs = flow.run_seed_costs(&artifact)?;
    let result = flow.run_backend(artifact, Some(&costs))?;
    println!("{}", result.report());

    // 4. Inspect the explicitly parallel program (per-core pseudo-C).
    println!("{}", argo_parir::emit::emit_pseudo_c(&result.parallel));

    // 5. Validate on the platform simulator: observed ≤ bound.
    let input: Vec<f64> = (0..256).map(|i| 1.0 + i as f64 * 0.01).collect();
    let args = vec![
        ArgVal::Array(ArrayData::from_reals(&input)),
        ArgVal::Array(ArrayData::from_reals(&[0.0; 256])),
    ];
    let sim = simulate(&result.parallel, &platform, args, &SimConfig::default())?;
    println!("simulated (worst-case ops): {:>9} cycles", sim.cycles);
    println!(
        "system-level WCET bound:    {:>9} cycles",
        result.system.bound
    );
    println!(
        "bound / observed tightness: {:>9.2}",
        result.system.bound as f64 / sim.cycles as f64
    );
    assert!(sim.cycles <= result.system.bound, "soundness violated!");
    println!("OK: observed ≤ bound (soundness holds)");
    Ok(())
}
