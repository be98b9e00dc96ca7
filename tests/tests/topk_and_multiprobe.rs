//! Integration tests for the top-`k` variants (the paper's footnote-1 join semantics)
//! and the multi-probe / Sign-ALSH additions to the hashing layer.

use ips_core::asymmetric::{AlshMipsIndex, AlshParams};
use ips_core::mips::BruteForceMipsIndex;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::topk::{top_k_join, top_k_recall, TopKMipsIndex};
use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_linalg::random::{correlated_unit_pair, random_unit_vector};
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::sign_alsh::{SignAlshFamily, SignAlshParams};
use ips_lsh::table::{IndexParams, LshIndex};
use ips_lsh::traits::{AsymmetricHashFunction, AsymmetricLshFamily};
use ips_lsh::SymmetricAsAsymmetric;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x70CB5)
}

#[test]
fn top_k_join_on_recommender_data_respects_definition1_per_pair() {
    let mut rng = rng();
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 300,
            users: 25,
            dim: 24,
            popularity_sigma: 0.5,
        },
    )
    .unwrap();
    let s = model.best_ip_quantile(0.3).unwrap();
    let spec = JoinSpec::new(s, 0.7, JoinVariant::Signed).unwrap();
    let exact = BruteForceMipsIndex::new(model.items().to_vec(), spec);
    let k = 5;
    let pairs = top_k_join(&exact, model.users(), k).unwrap();
    let mut per_query = std::collections::HashMap::new();
    for p in &pairs {
        assert!(spec.acceptable(p.inner_product));
        let ip = model.items()[p.data_index]
            .dot(&model.users()[p.query_index])
            .unwrap();
        assert!((ip - p.inner_product).abs() < 1e-9);
        *per_query.entry(p.query_index).or_insert(0usize) += 1;
    }
    assert!(per_query.values().all(|&c| c <= k));
    // Every query with at least one acceptable item gets at least one pair from the
    // exact index.
    for (j, user) in model.users().iter().enumerate() {
        let has_acceptable = model
            .items()
            .iter()
            .any(|p| spec.acceptable(p.dot(user).unwrap()));
        if has_acceptable {
            assert!(
                per_query.contains_key(&j),
                "query {j} unanswered by exact top-k"
            );
        }
    }
}

#[test]
fn alsh_top_k_recall_improves_with_more_tables() {
    let mut rng = rng();
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 400,
            users: 30,
            dim: 24,
            popularity_sigma: 0.5,
        },
    )
    .unwrap();
    let s = model.best_ip_quantile(0.2).unwrap();
    let spec = JoinSpec::new(s, 0.6, JoinVariant::Signed).unwrap();
    let exact = BruteForceMipsIndex::new(model.items().to_vec(), spec);
    let mut recalls = Vec::new();
    for tables in [4usize, 64] {
        let index = AlshMipsIndex::build(
            &mut rng,
            model.items().to_vec(),
            spec,
            AlshParams {
                bits_per_table: 6,
                tables,
                ..Default::default()
            },
        )
        .unwrap();
        let mut total = 0.0;
        for user in model.users() {
            let exact_top = exact.search_top_k(user, 3).unwrap();
            let approx_top = index.search_top_k(user, 3).unwrap();
            total += top_k_recall(&exact_top, &approx_top);
        }
        recalls.push(total / model.users().len() as f64);
    }
    assert!(
        recalls[1] >= recalls[0],
        "recall did not improve with more tables: {recalls:?}"
    );
    assert!(
        recalls[1] >= 0.6,
        "64-table top-3 recall too low: {recalls:?}"
    );
}

#[test]
fn multiprobe_trades_probes_for_tables() {
    let mut rng = rng();
    let dim = 24;
    let mut data: Vec<_> = (0..400)
        .map(|_| random_unit_vector(&mut rng, dim).unwrap())
        .collect();
    let queries: Vec<_> = (0..25)
        .map(|_| random_unit_vector(&mut rng, dim).unwrap())
        .collect();
    // Plant a high-similarity partner for every query.
    for (j, q) in queries.iter().enumerate() {
        data[j * 16] = q.scaled(0.98);
    }
    // Six tables of 12-bit SimHash keys, queried with `total` buckets per table:
    // the home bucket plus `total - 1` query-directed probes.
    let family = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(dim).unwrap());
    let index = LshIndex::build(&family, IndexParams { k: 12, l: 6 }, &data, &mut rng).unwrap();
    let recall_at = |total: usize| -> f64 {
        let mut hit = 0usize;
        for (j, q) in queries.iter().enumerate() {
            if index
                .probe_lookup(q, total - 1)
                .unwrap()
                .contains(&(j * 16))
            {
                hit += 1;
            }
        }
        hit as f64 / queries.len() as f64
    };
    let single = recall_at(1);
    let multi = recall_at(24);
    assert!(multi >= single, "probing more buckets lost candidates");
    assert!(
        multi >= 0.9,
        "multi-probe recall too low: single {single}, multi {multi}"
    );
}

#[test]
fn sign_alsh_collision_probability_tracks_the_inner_product() {
    let mut rng = rng();
    let dim = 16;
    let family = SignAlshFamily::new(dim, 1.0, SignAlshParams::default()).unwrap();
    let mut rates = Vec::new();
    for &ip in &[0.2, 0.6, 0.95] {
        let (a, b) = correlated_unit_pair(&mut rng, dim, ip).unwrap();
        let data = a.scaled(0.9);
        let trials = 2500;
        let mut collisions = 0usize;
        for _ in 0..trials {
            let f = family.sample(&mut rng).unwrap();
            if f.collides(&data, &b).unwrap() {
                collisions += 1;
            }
        }
        rates.push(collisions as f64 / trials as f64);
    }
    assert!(
        rates[0] < rates[1] && rates[1] < rates[2],
        "Sign-ALSH collision rates not monotone: {rates:?}"
    );
}
