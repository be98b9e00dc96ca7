//! Property tests of the fluent facade: `JoinBuilder::run` with
//! `Strategy::Brute` must be **bit-identical** to the exact scan it fronts —
//! the parallel brute join and the engine over a prebuilt brute index — so the
//! builder adds no randomness or reordering of its own.
//!
//! "Bit-identical" is literal: [`ips_core::problem::MatchPair`] compares its
//! `f64` inner product with `==`, so any drift in dispatch path or reassembly
//! would fail these tests. The randomized strategies are pinned against their
//! engine constructors, with the same RNG, in `proptest_planner.rs`.

use ips_core::brute::brute_force_join_parallel;
use ips_core::engine::JoinEngine;
use ips_core::facade::{Join, Strategy};
use ips_core::mips::BruteForceMipsIndex;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_linalg::DenseVector;
use proptest::prelude::*;
// The facade's `Strategy` enum shadows proptest's `Strategy` trait above; bring
// the trait's methods back into scope anonymously.
use proptest::strategy::Strategy as _;

/// A small workload inside the unit ball: `n` data vectors and `m` queries of a
/// shared dimension, coordinates bounded so every norm stays well below 1
/// (keeping the ALSH and symmetric constructors happy).
fn workload(
    n: std::ops::Range<usize>,
    m: std::ops::Range<usize>,
) -> impl proptest::strategy::Strategy<Value = (Vec<DenseVector>, Vec<DenseVector>)> {
    (n, m, 2usize..5).prop_flat_map(|(n, m, dim)| {
        let bound = 0.9 / (dim as f64).sqrt();
        let vec = move |count: usize| {
            prop::collection::vec(
                prop::collection::vec(-bound..bound, dim..=dim),
                count..=count,
            )
            .prop_map(|rows| rows.into_iter().map(DenseVector::new).collect::<Vec<_>>())
        };
        (vec(n), vec(m))
    })
}

fn spec(s: f64, c: f64, signed: bool) -> JoinSpec {
    let variant = if signed {
        JoinVariant::Signed
    } else {
        JoinVariant::Unsigned
    };
    JoinSpec::new(s, c, variant).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Strategy::Brute` ≡ the engine-parallel brute scan ≡ the engine over
    /// the owned brute index (no randomness involved; the builder must not
    /// introduce any).
    #[test]
    fn brute_builder_matches_legacy(
        (data, queries) in workload(1..24, 1..10),
        s in 0.01f64..0.4,
        c in 0.2f64..1.0,
        signed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec(s, c, signed);
        let report = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(Strategy::Brute)
            .seed(seed)
            .run()
            .unwrap();
        let legacy = brute_force_join_parallel(&data, &queries, &spec, 3).unwrap();
        prop_assert_eq!(&report.matches, &legacy);
        let via_index = JoinEngine::new(BruteForceMipsIndex::new(data.clone(), spec))
            .run(&queries)
            .unwrap();
        prop_assert_eq!(&report.matches, &via_index);
    }
}
