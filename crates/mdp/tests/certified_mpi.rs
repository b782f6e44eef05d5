//! Identity suite for `ValueIteration::solve_policy`: on dense kernels
//! full Bellman sweeps alternate with exact evaluations of their greedy
//! policy, on CSR kernels plain value iteration runs, and in both the
//! action-gap certificate ends the solve. On models with unit-mass rows it
//! must return exactly `solve_compiled(..).policy`, certified, and the
//! same outcome for every worker count.
//!
//! The random models draw their row probabilities from dyadic splits
//! (1, ½ + ½, ½ + ¼ + ¼), which sum to exactly 1.0 in floating point, so
//! the certificate applies; the stochastic ones compile to CSR and run
//! plain certified value iteration, the single-transition ones compile to
//! the dense layout and run the exact evaluations. Both chains pay their one
//! reward at the far end, so states the reward has not reached tie at 0
//! for two full sweeps and the solve restarts as plain value iteration,
//! which certifies. The gridworld's optimal policy has exact action ties,
//! so its restarted solve stops by the tolerance rule where
//! `solve_compiled` does.

use mdp::solver::{StopReason, ValueIteration};
use mdp::{reference, CompiledMdp, FiniteMdp, TabularMdp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simkit::executor;
use std::sync::Mutex;

/// Discounts the suite covers: fast, serving-like and slow-mixing.
const GAMMAS: [f64; 3] = [0.5, 0.9, 0.99];

/// `force_workers` is process-global; every test holds this lock so no
/// solve runs while another test forces a worker count.
static WORKERS: Mutex<()> = Mutex::new(());

fn lock_workers() -> std::sync::MutexGuard<'static, ()> {
    WORKERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// How a model's solve must end.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Expect {
    /// Certified between exact evaluations (dense kernels).
    Exact,
    /// Certified by plain value iteration from the start (CSR kernels).
    Plain,
    /// Restarted as plain value iteration, which certifies.
    Restarted,
    /// Restarted, and stopped by the tolerance rule on exact ties.
    Tied,
}

/// A seeded random MDP whose every row splits its mass dyadically over 1–3
/// random destinations (duplicates allowed), or over one destination when
/// `deterministic`, with rewards in `[-1, 1)`.
fn dyadic_mdp(seed: u64, n_states: usize, n_actions: usize, deterministic: bool) -> TabularMdp {
    const SPLITS: [&[f64]; 3] = [&[1.0], &[0.5, 0.5], &[0.5, 0.25, 0.25]];
    let splits = if deterministic {
        &SPLITS[..1]
    } else {
        &SPLITS[..]
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TabularMdp::builder(n_states, n_actions);
    for s in 0..n_states {
        for a in 0..n_actions {
            for &p in splits[rng.gen_range(0..splits.len())] {
                let next = rng.gen_range(0..n_states);
                let reward = rng.gen_range(-1.0..1.0);
                builder = builder.transition(s, a, next, p, reward);
            }
        }
    }
    builder.build().expect("dyadic rows form distributions")
}

/// The models the suite solves, each with a label and its expected end.
fn models() -> Vec<(String, CompiledMdp, Expect)> {
    let mut models = Vec::new();
    for seed in 0..10u64 {
        let deterministic = seed >= 6;
        let mdp = dyadic_mdp(
            seed,
            40 + 30 * seed as usize,
            2 + seed as usize % 4,
            deterministic,
        );
        let kernel = compile(&mdp);
        assert_eq!(kernel.has_dense_layout(), deterministic, "seed {seed}");
        let expect = if deterministic {
            Expect::Exact
        } else {
            Expect::Plain
        };
        models.push((format!("dyadic seed {seed}"), kernel, expect));
    }
    for (label, (mdp, _), expect) in [
        (
            "chain(24, 1.0)",
            reference::chain(24, 1.0),
            Expect::Restarted,
        ),
        (
            "chain(16, 0.75)",
            reference::chain(16, 0.75),
            Expect::Restarted,
        ),
        (
            "gridworld(9, 7, 0.25)",
            reference::gridworld(9, 7, 0.25),
            Expect::Tied,
        ),
    ] {
        models.push((label.to_string(), compile(&mdp), expect));
    }
    models
}

fn compile(mdp: &impl FiniteMdp) -> CompiledMdp {
    let kernel = CompiledMdp::compile(mdp).unwrap();
    assert!(kernel.has_unit_mass_rows(), "the certificate must apply");
    kernel
}

#[test]
fn certified_solve_returns_the_full_solve_policy() {
    let _guard = lock_workers();
    for (label, kernel, expect) in models() {
        for gamma in GAMMAS {
            let label = format!("{label} γ={gamma}");
            let vi = ValueIteration::new(gamma);
            let full = vi.solve_compiled(&kernel).unwrap();
            assert!(full.converged, "{label}");
            let certified = vi.solve_policy(&kernel).unwrap();
            let counters = certified.counters;
            assert_eq!(certified.policy, full.policy, "{label}: policy differs");
            // A restart reports the plain value iteration's counts only.
            assert_eq!(
                counters.evaluations > 0,
                expect == Expect::Exact,
                "{label}: {counters:?}"
            );
            if expect == Expect::Exact {
                // Each uncertified full sweep is followed by one exact
                // evaluation, and Howard's policy iteration needs a
                // handful of rounds at any γ (at most 9 here, where the
                // CSR models' plain certified solves take up to 211).
                assert_eq!(
                    counters.evaluations + 1,
                    counters.sweeps,
                    "{label}: {counters:?}"
                );
                assert!(counters.sweeps <= 16, "{label}: {counters:?}");
            }
            if expect == Expect::Tied {
                assert_eq!(counters.stop, StopReason::Tolerance, "{label}");
                assert_eq!(counters.margin, 0.0, "{label}");
                assert_eq!(counters.sweeps, full.sweeps, "{label}");
                continue;
            }
            assert_eq!(
                counters.stop,
                StopReason::Certified,
                "{label}: {counters:?}"
            );
            assert!(counters.sweeps <= full.sweeps, "{label}: {counters:?}");
            assert!(
                counters.margin > 2.0 * gamma * counters.span / (1.0 - gamma),
                "{label}: {counters:?}"
            );
        }
    }
}

/// At loose tolerances plain value iteration can stop while some greedy
/// actions are still suboptimal, after the exact evaluations could
/// already certify the optimal ones; the solve must return the tolerance
/// stop's table all the same.
#[test]
fn loose_tolerances_keep_the_tolerance_stop_table() {
    let _guard = lock_workers();
    for seed in 0..400u64 {
        let (n, m) = (2 + seed as usize % 4, 2 + seed as usize % 2);
        let kernel = compile(&dyadic_mdp(seed, n, m, seed % 2 == 0));
        for gamma in [0.5, 0.9, 0.95] {
            for tolerance in [0.1, 0.3] {
                let vi = ValueIteration::new(gamma).tolerance(tolerance);
                let full = vi.solve_compiled(&kernel).unwrap();
                let certified = vi.solve_policy(&kernel).unwrap();
                assert_eq!(
                    certified.policy, full.policy,
                    "seed {seed} γ={gamma} tolerance {tolerance}: {:?}",
                    certified.counters
                );
            }
        }
    }
}

#[test]
fn serial_and_pooled_solves_agree() {
    let _guard = lock_workers();
    for (label, kernel, _) in models() {
        for gamma in GAMMAS {
            let vi = ValueIteration::new(gamma);
            let serial = executor::serialized(|| vi.solve_policy(&kernel)).unwrap();
            executor::force_workers(Some(3));
            let pooled = vi.solve_policy(&kernel);
            executor::force_workers(None);
            assert_eq!(pooled.unwrap(), serial, "{label} γ={gamma}");
        }
    }
}
