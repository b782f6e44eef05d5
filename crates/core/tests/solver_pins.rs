//! Byte pins for the learners and the sweep solvers: the exact bit
//! patterns of the `QLearning` and `Sarsa` Q-tables and of the
//! `PolicyIteration` policy and values, on the reference gridworld and on
//! one small compiled RSU cache model, under fixed seeds; and of relative
//! value iteration and value iteration (`solve_policy`, `solve_compiled`)
//! on RSU cache models of 16 and 2,401 states. The other suites compare
//! one run against another; these digests catch a change to the step-size
//! or exploration schedule, the restart cadence, the evaluation caps or
//! the sweep kernels that moves any output bit.
//!
//! The `#[ignore]`d test repeats the sweep-solver pins on the four
//! full-size fig1a RSU models of seed 1 (59,049 states × 6 actions); run
//! it in release:
//!
//! ```text
//! cargo test --release -p aoi-cache --test solver_pins -- --ignored
//! ```

use aoi_cache::{presets, Age, CacheScenario, CacheSimulation, CompiledRsuMdp, RsuSpec};
use mdp::reference;
use mdp::solver::{
    PolicyIteration, QLearning, RelativeValueIteration, Sarsa, StopReason, ValueIteration,
};
use mdp::{CompiledMdp, FiniteMdp, QTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Byte-wise FNV-1a over a sequence of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            acc = (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc
}

fn q_digest(q: &QTable) -> u64 {
    fnv((0..q.n_states())
        .flat_map(|s| (0..q.n_actions()).map(move |a| (s, a)))
        .map(|(s, a)| q.get(s, a).to_bits()))
}

/// Digests of one model: Q-learning table, SARSA table, PI policy, PI values.
fn digests<M: FiniteMdp>(mdp: &M, kernel: &CompiledMdp, gamma: f64, seed: u64) -> [u64; 4] {
    let ql = QLearning::new(gamma)
        .steps(20_000)
        .learn(mdp, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    let sarsa = Sarsa::new(gamma)
        .steps(20_000)
        .learn(mdp, &mut StdRng::seed_from_u64(seed + 1))
        .unwrap();
    let pi = PolicyIteration::new(gamma).solve_compiled(kernel).unwrap();
    assert!(pi.converged);
    [
        q_digest(&ql),
        q_digest(&sarsa),
        fnv(pi.policy.actions().iter().map(|&a| a as u64)),
        fnv(pi.values.iter().map(|v| v.to_bits())),
    ]
}

/// The small two-content RSU cache model (16 states × 3 actions).
fn small_rsu() -> CompiledRsuMdp {
    let spec = RsuSpec {
        max_ages: vec![Age::new(2).unwrap(), Age::new(3).unwrap()],
        popularity: vec![0.7, 0.3],
        age_cap: Age::new(4).unwrap(),
        weight: 1.0,
        update_cost: 0.3,
    };
    CompiledRsuMdp::from_spec(&spec).unwrap()
}

#[test]
fn learner_and_policy_iteration_outputs_are_pinned() {
    let (grid, gamma) = reference::gridworld(4, 3, 0.15);
    let grid_kernel = CompiledMdp::compile(&grid).unwrap();
    assert_eq!(
        digests(&grid, &grid_kernel, gamma, 7),
        [
            0x5f09_ee40_0e7a_c886,
            0x9fb0_418a_e74b_0afb,
            0xcc7d_992a_daa4_2f65,
            0xc46d_65b6_995e_540b,
        ],
        "gridworld(4, 3, 0.15): [Q-learning, SARSA, PI policy, PI values]"
    );

    let rsu = small_rsu();
    assert_eq!(
        digests(&rsu.kernel, &rsu.kernel, 0.9, 11),
        [
            0xf9cd_a289_ea01_e4dd,
            0x75de_dbbf_3cad_15ce,
            0x357e_54fc_2188_2dc7,
            0x480f_02f9_ea69_7cb7,
        ],
        "RSU cache model: [Q-learning, SARSA, PI policy, PI values]"
    );
}

/// Digests of the sweep solvers on one kernel: relative value iteration
/// at tolerance 1e-10 and dampings 0.5 and 0.9 (gain bits, bias bits,
/// policy, sweeps); value iteration's certified `solve_policy` at γ 0.95
/// (policy, sweeps, evaluations, stop, margin and span bits); and its
/// `solve_compiled` at γ 0.95 (values, policy, sweeps, residual bits).
fn sweep_digests(kernel: &CompiledMdp) -> [u64; 4] {
    let rvi = |damping: f64| {
        let out = RelativeValueIteration {
            damping,
            ..RelativeValueIteration::new().tolerance(1e-10)
        }
        .solve_compiled(kernel)
        .unwrap();
        fnv(std::iter::once(out.gain.to_bits())
            .chain(out.bias.iter().map(|v| v.to_bits()))
            .chain(out.policy.actions().iter().map(|&a| a as u64))
            .chain([out.sweeps as u64]))
    };
    let vi = ValueIteration::new(0.95);
    let certified = vi.solve_policy(kernel).unwrap();
    let c = certified.counters;
    let full = vi.solve_compiled(kernel).unwrap();
    assert!(full.converged);
    [
        rvi(0.5),
        rvi(0.9),
        fnv(certified.policy.actions().iter().map(|&a| a as u64).chain([
            c.sweeps as u64,
            c.evaluations as u64,
            u64::from(c.stop == StopReason::Certified),
            c.margin.to_bits(),
            c.span.to_bits(),
        ])),
        fnv(full
            .values
            .iter()
            .map(|v| v.to_bits())
            .chain(full.policy.actions().iter().map(|&a| a as u64))
            .chain([full.sweeps as u64, full.residual.to_bits()])),
    ]
}

/// 2,401 states (4 contents, age cap 7): more than one 1,024-state sweep
/// block and not a multiple of 4 or 8, so sweeps cross block boundaries
/// and end on a short tail.
fn mid_rsu() -> CompiledRsuMdp {
    let spec = RsuSpec {
        max_ages: [3, 4, 5, 6].map(|a| Age::new(a).unwrap()).to_vec(),
        popularity: vec![0.4, 0.3, 0.2, 0.1],
        age_cap: Age::new(7).unwrap(),
        weight: 1.0,
        update_cost: 0.3,
    };
    CompiledRsuMdp::from_spec(&spec).unwrap()
}

#[test]
fn sweep_solver_outputs_are_pinned() {
    let small = small_rsu();
    assert_eq!(small.kernel.n_states(), 16);
    assert_eq!(
        sweep_digests(&small.kernel),
        [
            0x730a_8ae2_c6ad_7130,
            0x3b9e_cbef_edc2_107a,
            0x1f5c_8424_fccc_4303,
            0xf453_20f0_306e_db0b,
        ],
        "small RSU model: [RVI τ=0.5, RVI τ=0.9, VI solve_policy, VI solve_compiled]"
    );
    let mid = mid_rsu();
    assert_eq!(mid.kernel.n_states(), 2_401);
    assert!(mid.kernel.has_dense_layout());
    assert_eq!(
        sweep_digests(&mid.kernel),
        [
            0x2dd5_a8b1_facc_cc6c,
            0x23f4_12f6_8939_c4dd,
            0xc9df_1d7a_bd65_8c85,
            0x2c80_825a_5fb5_4d21,
        ],
        "2,401-state RSU model: [RVI τ=0.5, RVI τ=0.9, VI solve_policy, VI solve_compiled]"
    );
}

/// The sweep-solver pins at the true fig1a size: the four RSU models of
/// the fig1a scenario at seed 1.
#[test]
#[ignore = "full fig1a size; run in release"]
fn sweep_solver_outputs_are_pinned_at_fig1a_size() {
    let scenario = CacheScenario {
        seed: 1,
        ..presets::fig1a_scenario()
    };
    let simulation = CacheSimulation::new(scenario).unwrap();
    let digests: Vec<[u64; 4]> = simulation
        .compiled()
        .unwrap()
        .iter()
        .map(|rsu| {
            assert_eq!(rsu.kernel.n_states(), 59_049);
            sweep_digests(&rsu.kernel)
        })
        .collect();
    assert_eq!(
        digests,
        vec![
            [
                0x866e_12ab_4d82_03c7,
                0x9058_556f_6b50_044e,
                0x68eb_80ec_2a24_2e7c,
                0x2006_41ff_16d3_d660,
            ],
            [
                0x0f32_4b40_66ee_1355,
                0xafe8_8d09_6399_515a,
                0x494c_6500_cad7_4d87,
                0xe680_4970_55e2_ae0b,
            ],
            [
                0x60e4_e4af_a493_3fbe,
                0xb87c_c2cb_f70f_9d51,
                0x7fa2_9093_ea78_18c8,
                0xc0bb_7915_40a2_3f6b,
            ],
            [
                0x60c1_be37_c61a_897b,
                0x2cf0_bb8b_f1cc_09dd,
                0xeeda_984d_bfcc_a6e8,
                0x6805_d5e8_7e12_edb1,
            ],
        ],
        "fig1a seed 1, per RSU: [RVI τ=0.5, RVI τ=0.9, VI solve_policy, VI solve_compiled]"
    );
}
