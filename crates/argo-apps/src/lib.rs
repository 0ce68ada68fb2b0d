//! # argo-apps — the ARGO use-case applications (paper § IV)
//!
//! Faithful synthetic reconstructions of the three evaluation
//! applications, written in mini-C against the public tool-chain API:
//!
//! * [`egpws`] — Enhanced Ground Proximity Warning System (aerospace, DLR):
//!   terrain-clearance scan along a predicted flight path over a terrain
//!   database, with alert classification;
//! * [`weaa`] — Wake Encounter Avoidance and Advisory (aerospace, DLR):
//!   wake-vortex prediction (decaying vortex-pair model), conflict
//!   detection along the own-ship trajectory and evasion-candidate
//!   scoring;
//! * [`polka`] — POLKA polarization camera (industrial image processing,
//!   Fraunhofer IIS): 2×2 polarization superpixel processing to Stokes
//!   parameters, degree/angle of linear polarization, and a stress
//!   threshold map.
//!
//! The paper's actual input data (terrain databases, recorded wakes,
//! camera frames) is proprietary; each module ships a seeded synthetic
//! generator that reproduces the *computational* structure — array sizes,
//! loop nests, arithmetic mix — which is all the parallelization and WCET
//! machinery observes (see DESIGN.md substitution table).

pub mod egpws;
pub mod polka;
pub mod weaa;

use argo_ir::ast::Program;
use argo_ir::interp::ArgVal;

/// A packaged use case: program + entry + representative inputs.
pub struct UseCase {
    /// Short identifier (`"egpws"`, `"weaa"`, `"polka"`).
    pub name: &'static str,
    /// The mini-C program.
    pub program: Program,
    /// Entry function name.
    pub entry: &'static str,
    /// Representative argument vector (seeded synthetic data).
    pub args: Vec<ArgVal>,
}

/// Builds a use case from an RNG seed.
pub type Builder = fn(u64) -> UseCase;

/// The built-in use cases, in report order: (name, one-line title,
/// builder). The name equals the built [`UseCase::name`]. Every driver
/// that names a use case looks it up here.
pub const USE_CASES: [(&str, &str, Builder); 3] = [
    (
        "egpws",
        "Enhanced Ground Proximity Warning System (aerospace)",
        egpws::use_case,
    ),
    (
        "weaa",
        "Wake Encounter Avoidance and Advisory (aerospace)",
        weaa::use_case,
    ),
    (
        "polka",
        "POLKA polarization camera (industrial imaging)",
        polka::use_case,
    ),
];

/// Builds every built-in use case with the given RNG seed, in
/// [`USE_CASES`] order.
///
/// # Panics
///
/// Panics only if the embedded sources fail to parse — a bug, covered by
/// tests.
pub fn all_use_cases(seed: u64) -> Vec<UseCase> {
    USE_CASES.iter().map(|(_, _, build)| build(seed)).collect()
}

/// Builds the built-in use case called `name` with the given RNG seed,
/// or `None` if no use case has that name.
pub fn use_case(name: &str, seed: u64) -> Option<UseCase> {
    let (_, _, build) = USE_CASES.iter().find(|(known, ..)| *known == name)?;
    Some(build(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_ir::interp::{Interp, NullHook};

    #[test]
    fn all_use_cases_parse_validate_and_run() {
        for uc in all_use_cases(42) {
            argo_ir::validate::validate(&uc.program).unwrap_or_else(|e| panic!("{}: {e}", uc.name));
            let mut interp = Interp::new(&uc.program);
            interp
                .call_full(uc.entry, uc.args.clone(), &mut NullHook)
                .unwrap_or_else(|e| panic!("{}: {e}", uc.name));
        }
    }

    #[test]
    fn use_case_looks_names_up_in_the_registry() {
        let modules: [Builder; 3] = [egpws::use_case, weaa::use_case, polka::use_case];
        for (name, module) in ["egpws", "weaa", "polka"].into_iter().zip(modules) {
            let (found, direct) = (use_case(name, 42).unwrap(), module(42));
            assert_eq!(found.name, name);
            assert_eq!(found.entry, direct.entry, "{name}");
            assert_eq!(
                argo_ir::printer::print_program(&found.program),
                argo_ir::printer::print_program(&direct.program),
                "{name}"
            );
            assert_eq!(
                format!("{:?}", found.args),
                format!("{:?}", direct.args),
                "{name}"
            );
        }
        assert!(use_case("nosuchapp", 42).is_none());
        let order: Vec<&str> = all_use_cases(42).iter().map(|uc| uc.name).collect();
        assert_eq!(order, ["egpws", "weaa", "polka"]);
    }

    #[test]
    fn use_cases_are_deterministic_per_seed() {
        let a = egpws::use_case(7);
        let b = egpws::use_case(7);
        let c = egpws::use_case(8);
        assert_eq!(format!("{:?}", a.args), format!("{:?}", b.args));
        assert_ne!(format!("{:?}", a.args), format!("{:?}", c.args));
    }
}
