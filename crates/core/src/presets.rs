//! Ready-made scenarios matching the paper's evaluation section, used by
//! the benchmark harness, the examples and EXPERIMENTS.md.

use crate::cache_sim::CacheScenario;
use crate::experiment::ExperimentPlan;
use crate::joint_sim::JointScenario;
use crate::policy::CachePolicyKind;
use crate::service::ServicePolicyKind;
use crate::service_sim::ServiceScenario;

/// The Fig. 1a experiment: 4 RSUs × 5 contents (20 contents managed by the
/// MBS), 1000 slots, random initial ages and per-content `A^max`; the
/// proposed MDP update policy.
///
/// The paper plots (i) the AoI of two selected contents of RSU 1 over time
/// and (ii) the cumulative MBS reward.
pub fn fig1a_scenario() -> CacheScenario {
    CacheScenario::default()
}

/// The cache policy the paper proposes for Fig. 1a (exact MDP via value
/// iteration).
pub fn fig1a_policy() -> CachePolicyKind {
    CachePolicyKind::ValueIteration { gamma: 0.95 }
}

/// The Fig. 1b experiment: one RSU queue over 1000 slots under Poisson
/// request arrivals; the proposed drift-plus-penalty rule against the two
/// baseline extremes.
pub fn fig1b_scenario() -> ServiceScenario {
    ServiceScenario::default()
}

/// The three service policies compared in Fig. 1b: the proposed rule plus
/// the two extremes the paper's Eq. 5 sanity analysis describes.
pub fn fig1b_policies() -> [ServicePolicyKind; 3] {
    [
        ServicePolicyKind::Lyapunov { v: 20.0 },
        ServicePolicyKind::AlwaysServe,
        ServicePolicyKind::CostGreedy,
    ]
}

/// The joint two-stage extension experiment on the vehicular-network
/// substrate (not a paper figure; exercises both stages end to end).
pub fn joint_scenario() -> JointScenario {
    JointScenario::default()
}

/// The Fig. 1a experiment as an *ensemble*: the proposed MDP policy against
/// the strongest baselines, replicated over `n_seeds` seeds, producing the
/// mean/CI cumulative-reward curves the paper's figures average over.
pub fn fig1a_ensemble(n_seeds: u64) -> ExperimentPlan {
    ExperimentPlan::cache(
        vec![fig1a_scenario()],
        vec![
            fig1a_policy(),
            CachePolicyKind::AverageReward,
            CachePolicyKind::Myopic,
            CachePolicyKind::AgeThreshold { margin: 1 },
            CachePolicyKind::Random { probability: 0.5 },
            CachePolicyKind::Never,
        ],
    )
    .replicate_seeds((1..=n_seeds.max(1)).collect())
}

/// The Fig. 1b experiment as an ensemble: the drift-plus-penalty rule and
/// the two baseline extremes over `n_seeds` replicate arrival traces.
pub fn fig1b_ensemble(n_seeds: u64) -> ExperimentPlan {
    ExperimentPlan::service(vec![fig1b_scenario()], fig1b_policies().to_vec())
        .replicate_seeds((1..=n_seeds.max(1)).collect())
}

/// A deliberately small grid (2 policies × 2 seeds on a tiny scenario) used
/// by the CI smoke steps and the bench harness to keep both executor paths
/// (one worker and a pool) green.
pub fn smoke_grid() -> ExperimentPlan {
    let scenario = CacheScenario {
        n_rsus: 2,
        regions_per_rsu: 3,
        age_cap: 6,
        max_age_min: 3,
        max_age_max: 5,
        horizon: 200,
        ..CacheScenario::default()
    };
    ExperimentPlan::cache(
        vec![scenario],
        vec![
            CachePolicyKind::ValueIteration { gamma: 0.9 },
            CachePolicyKind::Myopic,
        ],
    )
    .replicate_seeds(vec![1, 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_matches_paper_scale() {
        let s = fig1a_scenario();
        assert_eq!(s.n_rsus, 4);
        assert_eq!(s.regions_per_rsu, 5);
        assert_eq!(s.n_contents(), 20);
        assert_eq!(s.horizon, 1000);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn fig1b_has_three_policies() {
        let s = fig1b_scenario();
        assert_eq!(s.horizon, 1000);
        assert!(s.validate().is_ok());
        let kinds = fig1b_policies();
        assert_eq!(kinds.len(), 3);
        assert_eq!(kinds[0].label(), "lyapunov");
    }

    #[test]
    fn joint_scenario_is_valid() {
        assert!(joint_scenario().validate().is_ok());
    }

    #[test]
    fn ensemble_presets_have_expected_shapes() {
        let a = fig1a_ensemble(5);
        assert_eq!(a.n_replicates(), 5);
        assert_eq!(a.n_cells(), 30);
        let b = fig1b_ensemble(3);
        assert_eq!(b.n_cells(), 9);
        // Degenerate requests still yield at least one replicate.
        assert_eq!(fig1a_ensemble(0).n_replicates(), 1);
    }

    #[test]
    fn smoke_grid_runs_quickly_and_deterministically() {
        let report = smoke_grid().run().unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.ensembles.len(), 2);
        let again = smoke_grid().run().unwrap();
        assert_eq!(report, again);
    }
}
