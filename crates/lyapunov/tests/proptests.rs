//! Property-based tests for the Lyapunov framework.
//!
//! Invariants:
//! * queues never go negative and conserve work,
//! * the DPP rule is monotone in backlog (service never decreases as the
//!   queue grows),
//! * DPP stabilizes any load that *some* stationary decision could stabilize,
//! * higher `V` never yields higher long-run cost on the same workload.

use lyapunov::{DecisionOption, DriftPlusPenalty, Queue};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_options() -> impl Strategy<Value = Vec<DecisionOption>> {
    proptest::collection::vec((0.0f64..5.0, 0.0f64..5.0), 1..6).prop_map(|raw| {
        let mut opts: Vec<DecisionOption> = raw
            .into_iter()
            .map(|(c, s)| DecisionOption::new(c, s))
            .collect();
        // Always include a free idle decision so "doing nothing" is possible.
        opts.insert(0, DecisionOption::new(0.0, 0.0));
        opts
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_is_never_negative_and_conserves_work(
        events in proptest::collection::vec((0.0f64..5.0, 0.0f64..5.0), 1..200)
    ) {
        let mut q = Queue::new();
        let (mut arrived, mut drained) = (0.0, 0.0);
        for (a, d) in &events {
            drained += q.step(*a, *d);
            arrived += a;
            prop_assert!(q.backlog() >= 0.0);
        }
        // Work conservation: arrivals = backlog + drained.
        let balance = arrived - (q.backlog() + drained);
        prop_assert!(balance.abs() < 1e-9, "work imbalance {balance}");
    }

    #[test]
    fn dpp_service_is_monotone_in_backlog(
        options in arb_options(),
        v in 0.0f64..100.0,
        q1 in 0.0f64..1000.0,
        dq in 0.0f64..1000.0,
    ) {
        let dpp = DriftPlusPenalty::new(v).unwrap();
        let s1 = options[dpp.decide(q1, &options).unwrap()].service;
        let s2 = options[dpp.decide(q1 + dq, &options).unwrap()].service;
        prop_assert!(s2 >= s1 - 1e-12, "service decreased with backlog: {s1} -> {s2}");
    }

    #[test]
    fn dpp_stabilizes_feasible_loads(
        options in arb_options(),
        v in 0.0f64..50.0,
        seed in 0u64..1000,
    ) {
        let max_service = options.iter().map(|o| o.service).fold(0.0, f64::max);
        // Offer a load well inside the service capacity region.
        prop_assume!(max_service > 0.2);
        let mean_arrival = max_service * 0.4;
        // The DPP queue hovers around the serve/idle threshold V·c/b; the
        // transient to reach it and the hover level itself are both O(V).
        let max_cost = options.iter().map(|o| o.cost).fold(0.0, f64::max);
        let hover = 2.0 * v * max_cost / max_service + 2.0 * mean_arrival;

        let mut rng = StdRng::seed_from_u64(seed);
        let dpp = DriftPlusPenalty::new(v).unwrap();
        let mut queue = Queue::new();
        let slots = 20_000u64;
        for _ in 0..slots {
            let chosen = options[dpp.decide(queue.backlog(), &options).unwrap()];
            queue.step(rng.gen_range(0.0..2.0 * mean_arrival), chosen.service);
        }
        // Rate stability up to the O(V) hover level: the backlog must not
        // grow past the hover point by more than diffusion noise.
        let final_backlog = queue.backlog();
        let noise = 4.0 * max_service * (slots as f64).sqrt();
        prop_assert!(
            final_backlog <= hover + noise,
            "backlog {final_backlog} exceeds hover bound {hover} + noise {noise} (V={v})"
        );
    }

    #[test]
    fn higher_v_never_costs_more(
        options in arb_options(),
        seed in 0u64..1000,
    ) {
        let max_service = options.iter().map(|o| o.service).fold(0.0, f64::max);
        prop_assume!(max_service > 0.2);
        let mean_arrival = max_service * 0.4;

        let run = |v: f64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let dpp = DriftPlusPenalty::new(v).unwrap();
            let mut queue = Queue::new();
            let mut cost = 0.0;
            for _ in 0..6_000 {
                let chosen = options[dpp.decide(queue.backlog(), &options).unwrap()];
                queue.step(rng.gen_range(0.0..2.0 * mean_arrival), chosen.service);
                cost += chosen.cost;
            }
            cost / 6_000.0
        };
        let cost_small = run(1.0);
        let cost_large = run(100.0);
        // O(1/V): average cost is non-increasing in V (allow simulation noise).
        prop_assert!(cost_large <= cost_small + 0.05, "{cost_large} > {cost_small}");
    }

    #[test]
    fn dpp_objective_is_truly_minimal(
        options in arb_options(),
        v in 0.0f64..100.0,
        q in 0.0f64..500.0,
    ) {
        let dpp = DriftPlusPenalty::new(v).unwrap();
        let chosen = dpp.decide(q, &options).unwrap();
        let obj = |o: &DecisionOption| v * o.cost - q * o.service;
        let chosen_obj = obj(&options[chosen]);
        for o in &options {
            prop_assert!(chosen_obj <= obj(o) + 1e-9);
        }
    }
}
