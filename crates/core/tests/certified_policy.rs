//! Identity suite for the certified policy-only value-iteration solve
//! (`ValueIteration::solve_policy`, behind `SolvedMdpPolicy::value_iteration_on`):
//! on the per-RSU cache MDPs of the fig1a scenario (replicate seeds 1–4 and
//! the default seed) it must return exactly the policy of the
//! full-tolerance `solve_compiled`, in fewer full sweeps (with exact
//! evaluations of the greedy policy between them at full size), and the
//! same counters and policy for every worker count.
//!
//! The default tests run the fig1a scenarios at a reduced catalog (3
//! contents per RSU, age cap 6: 216 states) so they stay fast in debug
//! builds. The `#[ignore]`d test repeats the identity check at the true
//! fig1a solver size (5 contents, age cap 9: 59,049 states × 6 actions);
//! run it in release:
//!
//! ```text
//! cargo test --release -p aoi-cache --test certified_policy -- --ignored
//! ```

use aoi_cache::{presets, CacheScenario, CacheSimulation, CompiledRsuMdp, SolvedMdpPolicy};
use mdp::solver::{StopReason, ValueIteration};
use simkit::executor;
use std::sync::Mutex;

/// Discounts the suite covers: the serving config, the paper's flagship,
/// and a slow-mixing one.
const GAMMAS: [f64; 3] = [0.9, 0.95, 0.99];

/// `force_workers` is process-global; every test that solves holds this
/// lock so none runs while another forces a worker count.
static WORKERS: Mutex<()> = Mutex::new(());

fn lock_workers() -> std::sync::MutexGuard<'static, ()> {
    WORKERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fig1a replicate seeds 1–4 plus the default scenario's own seed.
fn seeds() -> [u64; 5] {
    [1, 2, 3, 4, CacheScenario::default().seed]
}

/// The fig1a scenario at `seed`, with the catalog shrunk to 3 contents
/// per RSU at age cap 6 unless `full_size`.
fn scenario(seed: u64, full_size: bool) -> CacheScenario {
    let fig1a = CacheScenario {
        seed,
        ..presets::fig1a_scenario()
    };
    if full_size {
        return fig1a;
    }
    CacheScenario {
        regions_per_rsu: 3,
        age_cap: 6,
        max_age_min: 3,
        max_age_max: 5,
        ..fig1a
    }
}

/// The compiled per-RSU kernels of one scenario.
fn kernels(scenario: CacheScenario) -> Vec<CompiledRsuMdp> {
    CacheSimulation::new(scenario)
        .unwrap()
        .compiled()
        .unwrap()
        .to_vec()
}

/// The certified solve returns the full-tolerance policy, stops by its
/// certificate, and takes fewer sweeps, on every kernel at every discount.
fn assert_certified_identity(full_size: bool) {
    let _guard = lock_workers();
    for seed in seeds() {
        for (k, compiled) in kernels(scenario(seed, full_size)).iter().enumerate() {
            let kernel = &compiled.kernel;
            assert!(kernel.has_unit_mass_rows(), "seed {seed} rsu {k}");
            for gamma in GAMMAS {
                let label = format!("seed {seed} rsu {k} γ={gamma}");
                let vi = ValueIteration::new(gamma);
                let full = vi.solve_compiled(kernel).unwrap();
                assert!(full.converged, "{label}");
                let certified = vi.solve_policy(kernel).unwrap();
                let counters = certified.counters;
                assert_eq!(certified.policy, full.policy, "{label}: policy differs");
                assert_eq!(counters.stop, StopReason::Certified, "{label}");
                assert!(
                    counters.sweeps < full.sweeps,
                    "{label}: {} sweeps vs {}",
                    counters.sweeps,
                    full.sweeps
                );
                assert!(
                    counters.margin > 2.0 * gamma * counters.span / (1.0 - gamma),
                    "{label}: {counters:?}"
                );
                // At full size no kernel certifies on its first full sweep,
                // so the solve evaluates exactly between full sweeps.
                if full_size {
                    assert!(counters.evaluations > 0, "{label}: {counters:?}");
                }
            }
        }
    }
}

#[test]
fn certified_policy_equals_full_tolerance_policy_in_fewer_sweeps() {
    assert_certified_identity(false);
}

#[test]
#[ignore = "true fig1a size, ~1 min in release; run with --release -- --ignored"]
fn certified_policy_identity_at_fig1a_solver_size() {
    assert_certified_identity(true);
}

#[test]
fn serial_and_pooled_solves_agree_on_sweeps_and_policy() {
    let _guard = lock_workers();
    for seed in seeds() {
        for compiled in kernels(scenario(seed, false)) {
            for gamma in GAMMAS {
                let vi = ValueIteration::new(gamma);
                let serial = executor::serialized(|| vi.solve_policy(&compiled.kernel)).unwrap();
                for workers in [1, 2, 3] {
                    executor::force_workers(Some(workers));
                    let pooled = vi.solve_policy(&compiled.kernel);
                    executor::force_workers(None);
                    assert_eq!(
                        pooled.unwrap(),
                        serial,
                        "seed {seed} γ={gamma}, {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn solved_policy_keeps_the_solve_counters() {
    let _guard = lock_workers();
    let compiled = &kernels(scenario(2, false))[1];
    let solved = SolvedMdpPolicy::value_iteration_on(compiled, 0.95).unwrap();
    let direct = ValueIteration::new(0.95)
        .solve_policy(&compiled.kernel)
        .unwrap();
    assert_eq!(solved.tabular(), &direct.policy);
    assert_eq!(solved.solve_counters(), Some(&direct.counters));
    let pi = SolvedMdpPolicy::policy_iteration_on(compiled, 0.95).unwrap();
    assert_eq!(pi.solve_counters(), None);
}
