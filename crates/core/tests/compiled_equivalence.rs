//! Differential tests on the paper's per-RSU cache MDP: the compiled CSR
//! kernel must reproduce the trait-callback reference solvers exactly, and
//! parallel sweeps must match serial ones bit-for-bit.

use aoi_cache::{Age, CompiledRsuMdp, PopularityModel, RewardModel, RsuCacheMdp, RsuSpec};
use mdp::solver::{PolicyIteration, RelativeValueIteration, ValueIteration};
use mdp::FiniteMdp;
use proptest::prelude::*;
use simkit::executor;

fn arb_spec() -> impl Strategy<Value = RsuSpec> {
    (
        2usize..4,
        2u32..5,
        0u32..3,
        proptest::collection::vec(0.05f64..1.0, 4),
    )
        .prop_map(|(n, base_max, extra, weights)| {
            let max_ages: Vec<Age> = (0..n)
                .map(|i| Age::new(base_max + (i as u32 % (extra + 1))).unwrap())
                .collect();
            let cap = Age::new(base_max + extra + 2).unwrap();
            let total: f64 = weights[..n].iter().sum();
            let popularity: Vec<f64> = weights[..n].iter().map(|w| w / total).collect();
            RsuSpec {
                max_ages,
                popularity,
                age_cap: cap,
                weight: 1.0,
                update_cost: 0.3,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_vi_matches_callback_on_cache_mdp(spec in arb_spec(), gamma in 0.8f64..0.98) {
        let compiled = CompiledRsuMdp::from_spec(&spec).unwrap();
        let solver = ValueIteration::new(gamma).tolerance(1e-12);
        let kernel = solver.solve_compiled(&compiled.kernel).unwrap();
        let callback = solver.solve_callback(&compiled.model).unwrap();
        prop_assert!(kernel.converged && callback.converged);
        for (a, b) in kernel.values.iter().zip(&callback.values) {
            prop_assert!((a - b).abs() < 1e-10, "value gap {a} vs {b}");
        }
        prop_assert_eq!(kernel.policy.actions(), callback.policy.actions());
    }

    #[test]
    fn compiled_pi_matches_callback_on_cache_mdp(spec in arb_spec()) {
        let compiled = CompiledRsuMdp::from_spec(&spec).unwrap();
        let solver = PolicyIteration::new(0.9).eval_tolerance(1e-12);
        let kernel = solver.solve_compiled(&compiled.kernel).unwrap();
        let callback = solver.solve_callback(&compiled.model).unwrap();
        prop_assert!(kernel.converged && callback.converged);
        prop_assert_eq!(kernel.policy.actions(), callback.policy.actions());
        for (a, b) in kernel.values.iter().zip(&callback.values) {
            prop_assert!((a - b).abs() < 1e-8, "value gap {a} vs {b}");
        }
    }

    #[test]
    fn parallel_and_serial_sweeps_agree_on_cache_mdp(spec in arb_spec(), gamma in 0.8f64..0.98) {
        let compiled = CompiledRsuMdp::from_spec(&spec).unwrap();
        let solver = ValueIteration::new(gamma);
        let serial = executor::serialized(|| solver.solve_compiled(&compiled.kernel)).unwrap();
        let parallel = solver.solve_compiled(&compiled.kernel).unwrap();
        prop_assert_eq!(serial.sweeps, parallel.sweeps);
        prop_assert_eq!(&serial.values, &parallel.values);
        prop_assert_eq!(serial.policy.actions(), parallel.policy.actions());
    }
}

/// A cache MDP big enough (4 contents × cap 8 → 4096 states) to engage the
/// worker pool for real: serial and parallel solves must stay bit-for-bit
/// identical, and the compiled rows must match the model's callback rows.
#[test]
fn large_cache_mdp_parallel_matches_serial_bitwise() {
    let n_contents = 4;
    let reward = RewardModel::new(1.0, 0.3, vec![Age::new(6).unwrap(); n_contents]).unwrap();
    let popularity: Vec<f64> = (1..=n_contents).map(|i| i as f64).collect();
    let total: f64 = popularity.iter().sum();
    let model = RsuCacheMdp::new(
        reward,
        Age::new(8).unwrap(),
        PopularityModel::Static(popularity.into_iter().map(|p| p / total).collect()),
    )
    .unwrap();
    assert_eq!(model.n_states(), 4096);
    let kernel = model.compile().unwrap();

    let solver = ValueIteration::new(0.95).tolerance(1e-10);
    let serial = executor::serialized(|| solver.solve_compiled(&kernel)).unwrap();
    let parallel = solver.solve_compiled(&kernel).unwrap();
    assert_eq!(serial.sweeps, parallel.sweeps);
    assert_eq!(serial.values, parallel.values, "bit-for-bit values");
    assert_eq!(serial.policy.actions(), parallel.policy.actions());

    let rvi = RelativeValueIteration::new().tolerance(1e-9);
    let rvi_serial = executor::serialized(|| rvi.solve_compiled(&kernel)).unwrap();
    let rvi_parallel = rvi.solve_compiled(&kernel).unwrap();
    assert_eq!(rvi_serial.sweeps, rvi_parallel.sweeps);
    assert_eq!(rvi_serial.bias, rvi_parallel.bias, "bit-for-bit bias");
    assert_eq!(rvi_serial.policy.actions(), rvi_parallel.policy.actions());
    assert_eq!(rvi_serial.gain, rvi_parallel.gain);

    // Spot-check CSR rows against the callback rows.
    let mut want = Vec::new();
    let mut got = Vec::new();
    for s in (0..model.n_states()).step_by(97) {
        for a in 0..model.n_actions() {
            model.transitions(s, a, &mut want);
            kernel.transitions(s, a, &mut got);
            assert_eq!(want, got, "row ({s}, {a})");
        }
    }
}
