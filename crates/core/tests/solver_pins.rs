//! Byte pins for the learners and policy iteration: the exact bit
//! patterns of the `QLearning` and `Sarsa` Q-tables and of the
//! `PolicyIteration` policy and values, on the reference gridworld and on
//! one small compiled RSU cache model, under fixed seeds. The other suites
//! compare one run against another; these digests catch a change to the
//! step-size or exploration schedule, the restart cadence or the
//! evaluation caps that moves any output bit.

use aoi_cache::{Age, CompiledRsuMdp, RsuSpec};
use mdp::reference;
use mdp::solver::{PolicyIteration, QLearning, Sarsa};
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

    let spec = RsuSpec {
        max_ages: vec![Age::new(2).unwrap(), Age::new(3).unwrap()],
        popularity: vec![0.7, 0.3],
        age_cap: Age::new(4).unwrap(),
        weight: 1.0,
        update_cost: 0.3,
    };
    let rsu = CompiledRsuMdp::from_spec(&spec).unwrap();
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
