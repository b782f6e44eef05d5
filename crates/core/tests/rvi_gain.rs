//! Gain pin for the `mdp-avg` solver (`RelativeValueIteration`, behind
//! `SolvedMdpPolicy::average_reward_on`): on the per-RSU cache MDPs of the
//! fig1a scenario (replicate seeds 1–4, reduced catalog), the tables it
//! returns at aperiodicity damping τ ∈ {0.5, 0.7, 0.9} must earn the same
//! long-run gain in every state.
//!
//! Some of these models have several optimal recurrent cycles, so the
//! tables themselves differ between dampings among gain-optimal actions;
//! the gain they earn must not. Each table's per-state gain is
//! the exact cycle-mean gain of its functional graph
//! (`CompiledMdp::policy_gain`), which differs between two tables that
//! reach the same cycles only by the order the cycle rewards are summed
//! in: a few ulps of the reward bound.

use aoi_cache::{presets, CacheScenario, CacheSimulation, CompiledRsuMdp};
use mdp::solver::RelativeValueIteration;
use mdp::CompiledMdp;

/// Dampings the suite covers; 0.5 is the one `mdp-avg` uses.
const DAMPINGS: [f64; 3] = [0.5, 0.7, 0.9];

/// Ulps of the reward bound two equal gains may differ by.
const GAIN_ULPS: f64 = 4.0;

/// The fig1a scenario at `seed` with the catalog shrunk to 3 contents per
/// RSU at age cap 6 (216 states), as in `certified_policy.rs`.
fn reduced_fig1a(seed: u64) -> CacheScenario {
    CacheScenario {
        seed,
        regions_per_rsu: 3,
        age_cap: 6,
        max_age_min: 3,
        max_age_max: 5,
        ..presets::fig1a_scenario()
    }
}

fn kernels(scenario: CacheScenario) -> Vec<CompiledRsuMdp> {
    CacheSimulation::new(scenario)
        .unwrap()
        .compiled()
        .unwrap()
        .to_vec()
}

/// Largest `|E[r]|` over the valid rows.
fn reward_bound(kernel: &CompiledMdp) -> f64 {
    let mut bound: f64 = 0.0;
    for s in 0..kernel.n_states() {
        for a in 0..kernel.n_actions() {
            if kernel.is_valid(s, a) {
                bound = bound.max(kernel.expected_reward(s, a).abs());
            }
        }
    }
    bound
}

#[test]
fn rvi_tables_earn_equal_gain_in_every_state_at_every_damping() {
    let mut differing_tables = 0;
    for seed in 1..=4 {
        for (k, compiled) in kernels(reduced_fig1a(seed)).iter().enumerate() {
            let kernel = &compiled.kernel;
            assert!(kernel.has_dense_layout(), "seed {seed} rsu {k}");
            let allowed = GAIN_ULPS * f64::EPSILON * reward_bound(kernel);
            let outcomes: Vec<_> = DAMPINGS
                .iter()
                .map(|&damping| {
                    RelativeValueIteration {
                        damping,
                        ..RelativeValueIteration::new().tolerance(1e-10)
                    }
                    .solve_compiled(kernel)
                    .unwrap()
                })
                .collect();
            if outcomes.iter().any(|o| o.policy != outcomes[0].policy) {
                differing_tables += 1;
            }
            let gains: Vec<Vec<f64>> = outcomes
                .iter()
                .map(|o| kernel.policy_gain(&o.policy).unwrap())
                .collect();
            let reference = &gains[0];
            for ((&damping, outcome), gain) in DAMPINGS.iter().zip(&outcomes).zip(&gains) {
                let label = format!("seed {seed} rsu {k} τ={damping}");
                for (s, (g, want)) in gain.iter().zip(reference).enumerate() {
                    assert!(
                        (g - want).abs() <= allowed,
                        "{label} state {s}: gain {g} vs {want} at τ=0.5"
                    );
                }
                // The exact gain is the optimal one RVI converged to.
                for g in gain {
                    let reported = outcome.gain;
                    assert!((g - reported).abs() < 1e-8, "{label}: {g} vs {reported}");
                }
            }
        }
    }
    // The pin means something only if some tables differ between
    // dampings (5 of these 16 models do).
    assert!(
        differing_tables > 0,
        "every damping returned the same tables"
    );
}
