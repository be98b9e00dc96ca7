//! Property tests for the cost-based join planner.
//!
//! The load-bearing property: `Strategy::Auto` is *pure dispatch*. Whatever
//! strategy the planner selects, the join must produce exactly the pairs the
//! corresponding engine constructor produces with the same parameters and RNG
//! state — the planner may only choose, never change, a join's semantics. A
//! second property pins that *every* strategy a plan could dispatch to stays
//! valid under Definition 1 and that the builder's fixed strategies, the
//! plan's dispatch and the engine constructors agree bit for bit; a third
//! pins that plans are deterministic functions of the sampled statistics.

use ips_core::brute::BorrowedBruteIndex;
use ips_core::engine::JoinEngine;
use ips_core::facade::Join;
use ips_core::join::{alsh_engine, sketch_engine, symmetric_engine};
use ips_core::planner::{JoinPlan, JoinPlanner, Strategy};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_linalg::DenseVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A workload inside the unit ball (all strategies eligible): `n` data
/// vectors, `m` queries, all with coordinates small enough that norms stay
/// below 1 for dimensions up to 6.
fn workload(seed: u64, n: usize, m: usize, dim: usize) -> (Vec<DenseVector>, Vec<DenseVector>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..n)
        .map(|_| {
            ips_linalg::random::random_ball_vector(&mut rng, dim, 1.0)
                .unwrap()
                .scaled(0.9)
        })
        .collect();
    let queries = (0..m)
        .map(|_| ips_linalg::random::random_unit_vector(&mut rng, dim).unwrap())
        .collect();
    (data, queries)
}

/// Runs `strategy` through its engine constructor with the plan's resolved
/// parameters — the call a user would have written by hand.
fn manual_run(
    plan: &JoinPlan,
    strategy: Strategy,
    rng: &mut StdRng,
    data: &[DenseVector],
    queries: &[DenseVector],
) -> Vec<MatchPair> {
    match strategy {
        Strategy::BruteForce => {
            JoinEngine::with_config(BorrowedBruteIndex::new(data, plan.spec), plan.engine)
                .run(queries)
                .unwrap()
        }
        Strategy::Alsh => alsh_engine(
            rng,
            data,
            plan.spec,
            plan.alsh_params,
            plan.engine,
            plan.scoring,
        )
        .unwrap()
        .run(queries)
        .unwrap(),
        Strategy::Symmetric => symmetric_engine(
            rng,
            data,
            plan.spec,
            plan.symmetric_params,
            plan.engine,
            plan.scoring,
        )
        .unwrap()
        .run(queries)
        .unwrap(),
        Strategy::Sketch => sketch_engine(
            rng,
            data,
            plan.spec,
            plan.sketch_config,
            plan.sketch_leaf_size,
            plan.engine,
        )
        .unwrap()
        .run(queries)
        .unwrap(),
    }
}

/// Runs `strategy` as a fixed-strategy builder join with the plan's resolved
/// parameters, seeded with `seed`.
fn builder_run(
    plan: &JoinPlan,
    strategy: Strategy,
    seed: u64,
    data: &[DenseVector],
    queries: &[DenseVector],
) -> Vec<MatchPair> {
    Join::data(data)
        .queries(queries)
        .spec(plan.spec)
        .strategy(strategy.into())
        .alsh_params(plan.alsh_params)
        .symmetric_params(plan.symmetric_params)
        .sketch_config(plan.sketch_config)
        .sketch_leaf_size(plan.sketch_leaf_size)
        .engine(plan.engine)
        .scoring(plan.scoring)
        .seed(seed)
        .run()
        .unwrap()
        .matches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Strategy::Auto ≡ planning, then the engine constructor of whichever
    // strategy was selected, drawing from the same RNG.
    #[test]
    fn auto_join_matches_the_selected_strategy_exactly(
        data_seed in any::<u64>(),
        seed in any::<u64>(),
        s in 0.05f64..0.5,
        c in 0.3f64..0.95,
        signed in any::<bool>(),
    ) {
        let (data, queries) = workload(data_seed, 60, 12, 6);
        let variant = if signed { JoinVariant::Signed } else { JoinVariant::Unsigned };
        let spec = JoinSpec::new(s, c, variant).unwrap();
        let auto = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(ips_core::Strategy::Auto)
            .seed(seed)
            .run()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = JoinPlanner::default()
            .plan(&mut rng, &data, &queries, spec)
            .unwrap();
        prop_assert_eq!(auto.plan.as_ref(), Some(&plan));
        prop_assert_eq!(auto.strategy, plan.choice);
        let manual = manual_run(&plan, plan.choice, &mut rng, &data, &queries);
        prop_assert_eq!(auto.matches, manual, "choice = {}", plan.choice);
    }

    // Every strategy a plan could dispatch to — not just the chosen one —
    // produces valid output with the plan's resolved parameters, so a
    // different (even wrong) choice can never break Definition 1.
    #[test]
    fn every_dispatchable_strategy_stays_valid(
        data_seed in any::<u64>(),
        exec_seed in any::<u64>(),
        s in 0.1f64..0.5,
        c in 0.4f64..0.9,
    ) {
        let (data, queries) = workload(data_seed, 50, 8, 5);
        let spec = JoinSpec::new(s, c, JoinVariant::Signed).unwrap();
        let plan = JoinPlanner::default()
            .plan(&mut StdRng::seed_from_u64(exec_seed ^ 0x5EED), &data, &queries, spec)
            .unwrap();
        for estimate in &plan.estimates {
            if !estimate.eligible {
                continue;
            }
            let mut forced = plan.clone();
            forced.choice = estimate.strategy;
            let pairs = forced
                .execute(&mut StdRng::seed_from_u64(exec_seed), &data, &queries)
                .unwrap();
            let (_, valid) = evaluate_join(&data, &queries, &spec, &pairs).unwrap();
            prop_assert!(valid, "{} reported a pair below cs", estimate.strategy);
            // The plan's dispatch, the builder's fixed strategy and the engine
            // constructor are one code path: same seed, same pairs.
            let manual = manual_run(
                &plan,
                estimate.strategy,
                &mut StdRng::seed_from_u64(exec_seed),
                &data,
                &queries,
            );
            prop_assert_eq!(&pairs, &manual, "{} dispatch vs constructor", estimate.strategy);
            let built = builder_run(&plan, estimate.strategy, exec_seed, &data, &queries);
            prop_assert_eq!(&pairs, &built, "{} dispatch vs builder", estimate.strategy);
        }
    }

    // Planning is deterministic: the same workload and planning seed yield
    // the same plan (choice, estimates, resolved parameters).
    #[test]
    fn planning_is_deterministic(
        data_seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let (data, queries) = workload(data_seed, 40, 10, 5);
        let spec = JoinSpec::new(0.3, 0.7, JoinVariant::Signed).unwrap();
        let planner = JoinPlanner::default();
        let a = planner
            .plan(&mut StdRng::seed_from_u64(plan_seed), &data, &queries, spec)
            .unwrap();
        let b = planner
            .plan(&mut StdRng::seed_from_u64(plan_seed), &data, &queries, spec)
            .unwrap();
        prop_assert_eq!(a, b);
    }
}
