//! Property tests pinning packed hyperplane hashing ([`ips_lsh::packed`]) to
//! the per-plane path it replaced, for both hyperplane families an
//! [`LshIndex`] packs: SIMPLE-ALSH and symmetric SimHash.
//!
//! The oracle is the composite functions' own `AndFunction::hash_data` /
//! `hash_query` and `ProbeSequence::probe_query`, which hash plane by plane.
//! Against it, for random dimensions, widths `k`, table counts `l` and bits
//! per component:
//!
//! 1. **Keys are bit-identical** — every table of a built, restored or
//!    incrementally maintained index holds exactly the buckets the oracle
//!    computes, with ids in the same order, and [`PackedHasher`] returns the
//!    oracle's keys and probe sequences. The inputs include the cases where a
//!    different accumulation order could flip a sign: zero vectors, points
//!    lying exactly on a plane (margin `±0.0`) and vectors on the edge of the
//!    unit ball (or of the query ball).
//! 2. **Lookups are unchanged** — `probe_lookup` for probes ∈ {0, 1, 4, 8}
//!    (and `query_candidates`) equals the oracle's union of probed buckets.
//! 3. **Restoring validates** — `from_raw_parts` rejects a function list
//!    whose sphere transforms disagree.
//! 4. **Old snapshots still answer** — a snapshot written before packed
//!    hashing existed (`tests/fixtures/pre_packed/`) loads and returns the
//!    candidate sets and search answers recorded from the code that wrote it,
//!    both as a bare snapshot and served through `Index::open`.

use ips_core::mips::MipsIndex;
use ips_linalg::random::{random_ball_vector, random_unit_vector};
use ips_linalg::DenseVector;
use ips_lsh::amplify::AndFunction;
use ips_lsh::hyperplane::{HyperplaneFamily, HyperplaneFunction};
use ips_lsh::packed::PackedHasher;
use ips_lsh::probe::ProbeSequence;
use ips_lsh::simple_alsh::{SimpleAlshFamily, SimpleAlshFunction};
use ips_lsh::table::{IndexParams, LshIndex};
use ips_lsh::traits::{
    AsymmetricHashFunction, AsymmetricLshFamily, SymmetricAsAsymmetric, SymmetricFunctionPair,
};
use ips_store::{AnyIndex, Index, Snapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

type Table = HashMap<u64, Vec<u32>>;

const PROBES: [usize; 4] = [0, 1, 4, 8];

/// Tables filled plane by plane: `data[i]` under id `ids[i]`, in order.
fn oracle_tables<H: AsymmetricHashFunction>(
    functions: &[AndFunction<H>],
    data: &[DenseVector],
    ids: &[u32],
) -> Vec<Table> {
    functions
        .iter()
        .map(|f| {
            let mut table = Table::new();
            for (p, &id) in data.iter().zip(ids) {
                table.entry(f.hash_data(p).unwrap()).or_default().push(id);
            }
            table
        })
        .collect()
}

/// `probe_lookup` computed plane by plane: the sorted union of every table's
/// probed buckets.
fn oracle_lookup<H>(
    functions: &[AndFunction<H>],
    tables: &[Table],
    q: &DenseVector,
    probes: usize,
) -> Vec<usize>
where
    H: AsymmetricHashFunction,
    AndFunction<H>: ProbeSequence,
{
    let mut out = Vec::new();
    for (f, table) in functions.iter().zip(tables) {
        for bucket in f.probe_query(q, probes).unwrap() {
            if let Some(ids) = table.get(&bucket) {
                out.extend(ids.iter().map(|&id| id as usize));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Checks an index holding `data` under ids `ids` against the oracle: its
/// tables, its lookups at every probe count, and the packed hasher's keys and
/// probe sequences for every data point and query.
fn check<F>(
    index: &LshIndex<F>,
    data: &[DenseVector],
    ids: &[u32],
    queries: &[DenseVector],
) -> Result<(), TestCaseError>
where
    F: AsymmetricLshFamily + Clone,
    AndFunction<F::Function>: ProbeSequence,
{
    let functions = index.functions();
    prop_assert_eq!(index.tables(), &oracle_tables(functions, data, ids)[..]);
    let packed = PackedHasher::from_functions(functions)
        .unwrap()
        .expect("hyperplane family packs");
    for p in data {
        let keys: Vec<u64> = functions.iter().map(|f| f.hash_data(p).unwrap()).collect();
        prop_assert_eq!(packed.hash_data(p).unwrap(), keys);
    }
    for q in queries {
        let keys: Vec<u64> = functions.iter().map(|f| f.hash_query(q).unwrap()).collect();
        prop_assert_eq!(packed.hash_query(q).unwrap(), keys);
        prop_assert_eq!(
            index.query_candidates(q).unwrap(),
            oracle_lookup(functions, index.tables(), q, 0)
        );
        for probes in PROBES {
            let sequences: Vec<Vec<u64>> = functions
                .iter()
                .map(|f| f.probe_query(q, probes).unwrap())
                .collect();
            prop_assert_eq!(packed.probe_query(q, probes).unwrap(), sequences);
            prop_assert_eq!(
                index.probe_lookup(q, probes).unwrap(),
                oracle_lookup(functions, index.tables(), q, probes)
            );
        }
    }
    Ok(())
}

/// Restores `functions` into an empty index, inserts `data` under ids
/// `0..n`, checks it, then removes every other point and checks the rest.
fn check_incremental<F>(
    functions: Vec<AndFunction<F::Function>>,
    k: usize,
    data: &[DenseVector],
    queries: &[DenseVector],
) -> Result<(), TestCaseError>
where
    F: AsymmetricLshFamily + Clone,
    AndFunction<F::Function>: ProbeSequence,
{
    let l = functions.len();
    let params = IndexParams { k, l };
    let mut index =
        LshIndex::<F>::from_raw_parts(functions, vec![Table::new(); l], params, 0).unwrap();
    let ids: Vec<u32> = (0..data.len() as u32).collect();
    for (p, &id) in data.iter().zip(&ids) {
        index.insert(id, p).unwrap();
    }
    check(&index, data, &ids, queries)?;
    for (p, &id) in data.iter().zip(&ids).step_by(2) {
        prop_assert!(index.remove(id, p).unwrap());
    }
    let kept: Vec<usize> = (1..data.len()).step_by(2).collect();
    let kept_data: Vec<DenseVector> = kept.iter().map(|&i| data[i].clone()).collect();
    let kept_ids: Vec<u32> = kept.iter().map(|&i| ids[i]).collect();
    prop_assert_eq!(index.len(), kept.len());
    check(&index, &kept_data, &kept_ids, queries)
}

/// The axis plane `±e_i` in `dim` dimensions.
fn axis(dim: usize, i: usize, sign: f64) -> DenseVector {
    let mut v = DenseVector::zeros(dim);
    v.as_mut_slice()[i] = sign;
    v
}

/// Planes of length `dim` that the [`near_points`] and [`on_tie`] points lie
/// on or within rounding of, where a different accumulation would flip a sign:
/// - `(1, −1, 0, …)`: points with equal first two coordinates lie on it;
/// - `(−1, 0.7, 0, …)`: `(0.21, 0.3, 0, …)` lies on it when `0.3 × 0.7` is
///   rounded (to `0.21`) before the sum, and below it under a fused
///   multiply-add;
/// - `(1, 1, 1, 0, …)`: `(0.5, −5e-11, −0.5, …)` and `(0.5, −0.5, −5e-18, …)`
///   lie just below it summed in coordinate order, and on it summed in `f32`
///   (`0.5 − 5e-11` rounds to `0.5`) or back to front (`−5e-18 − 0.5` rounds
///   to `−0.5`).
fn near_planes(dim: usize) -> Vec<DenseVector> {
    padded(dim, &[&[1.0, -1.0], &[-1.0, 0.7], &[1.0, 1.0, 1.0]])
}

/// The fixed points of [`near_planes`] that fit in `dim` coordinates.
fn near_points(dim: usize) -> Vec<DenseVector> {
    padded(
        dim,
        &[&[0.21, 0.3], &[0.5, -5e-11, -0.5], &[0.5, -0.5, -5e-18]],
    )
}

/// Each head zero-padded to length `dim`, skipping heads longer than `dim`.
fn padded(dim: usize, heads: &[&[f64]]) -> Vec<DenseVector> {
    heads
        .iter()
        .filter(|head| head.len() <= dim)
        .map(|head| {
            let mut v = DenseVector::zeros(dim);
            v.as_mut_slice()[..head.len()].copy_from_slice(head);
            v
        })
        .collect()
}

/// A random point of norm at most `0.9 × radius` whose first two coordinates
/// are equal (`dim ≥ 2`).
fn on_tie(rng: &mut StdRng, dim: usize, radius: f64) -> DenseVector {
    let mut v = random_ball_vector(rng, dim, 1.0).unwrap();
    v.as_mut_slice()[1] = v[0];
    // One factor for every coordinate keeps the first two equal.
    let scale = 0.9 * radius / v.norm().max(1.0);
    v.scaled(scale)
}

/// `f` with its planes replaced by `planes`, cycled from position `shift`
/// (left unchanged when `planes` is empty).
fn with_planes(f: &HyperplaneFunction, planes: &[DenseVector], shift: usize) -> HyperplaneFunction {
    let mut all = f.planes().to_vec();
    for (slot, plane) in all.iter_mut().zip(planes.iter().cycle().skip(shift)) {
        *slot = plane.clone();
    }
    HyperplaneFunction::from_planes(all).unwrap()
}

fn first_replaced<H: Clone>(f: &AndFunction<H>, first: H) -> AndFunction<H> {
    let mut components = f.functions().to_vec();
    components[0] = first;
    AndFunction::from_functions(components).unwrap()
}

/// Random data in the unit ball plus the zero vector, a unit vector, its
/// negation, and (for `dim ≥ 2`) a tie point and the [`near_points`].
fn data_points(rng: &mut StdRng, n: usize, dim: usize) -> Vec<DenseVector> {
    let mut data: Vec<DenseVector> = (0..n)
        .map(|_| random_ball_vector(rng, dim, 1.0).unwrap())
        .collect();
    let edge = random_unit_vector(rng, dim).unwrap();
    data.push(DenseVector::zeros(dim));
    data.push(edge.negated());
    data.push(edge);
    if dim >= 2 {
        data.push(on_tie(rng, dim, 1.0));
    }
    data.extend(near_points(dim));
    data
}

/// Queries of the same shapes, in the ball of radius `radius`.
fn query_points(rng: &mut StdRng, dim: usize, radius: f64) -> Vec<DenseVector> {
    let mut queries: Vec<DenseVector> = (0..6)
        .map(|_| random_ball_vector(rng, dim, radius).unwrap())
        .collect();
    queries.push(DenseVector::zeros(dim));
    queries.push(random_unit_vector(rng, dim).unwrap().scaled(radius));
    if dim >= 2 {
        queries.push(on_tie(rng, dim, radius));
    }
    queries.extend(near_points(dim));
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alsh_packed_hashing_matches_the_per_plane_oracle(
        seed in any::<u64>(),
        dim in 1usize..10,
        k in 1usize..5,
        l in 1usize..6,
        bits in 1usize..3,
        n in 1usize..40,
        wide_queries in any::<bool>(),
    ) {
        let radius = if wide_queries { 1.5 } else { 1.0 };
        let mut rng = StdRng::seed_from_u64(seed);
        let family = SimpleAlshFamily::new(dim, radius, bits).unwrap();
        let data = data_points(&mut rng, n, dim);
        let queries = query_points(&mut rng, dim, radius);

        let params = IndexParams { k, l };
        let built = LshIndex::build(&family, params, &data, &mut rng).unwrap();
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        check(&built, &data, &ids, &queries)?;

        // Each table's first component gets planes the data and queries lie
        // on or within rounding of: the data side's last embedded coordinate
        // is 0, the query side's second-to-last is 0, and the near planes.
        let out = dim + 2;
        let mut ties = vec![axis(out, dim + 1, -1.0), axis(out, dim, 1.0)];
        ties.extend(near_planes(out));
        let functions: Vec<AndFunction<SimpleAlshFunction>> = built
            .functions()
            .iter()
            .enumerate()
            .map(|(t, f)| {
                let c = &f.functions()[0];
                let planes = with_planes(c.hyperplane(), &ties, t);
                first_replaced(f, SimpleAlshFunction::from_parts(c.transform().clone(), planes).unwrap())
            })
            .collect();
        check_incremental::<SimpleAlshFamily>(functions, k, &data, &queries)?;
    }

    #[test]
    fn symmetric_packed_hashing_matches_the_per_plane_oracle(
        seed in any::<u64>(),
        dim in 1usize..10,
        k in 1usize..5,
        l in 1usize..6,
        bits in 1usize..3,
        n in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let family = SymmetricAsAsymmetric(HyperplaneFamily::new(dim, bits).unwrap());
        let data = data_points(&mut rng, n, dim);
        let queries = query_points(&mut rng, dim, 1.0);

        let params = IndexParams { k, l };
        let built = LshIndex::build(&family, params, &data, &mut rng).unwrap();
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        check(&built, &data, &ids, &queries)?;

        // Zero vectors sit on every plane, and the near points on or within
        // rounding of the near planes.
        let ties = near_planes(dim);
        let functions: Vec<AndFunction<SymmetricFunctionPair<HyperplaneFunction>>> = built
            .functions()
            .iter()
            .enumerate()
            .map(|(t, f)| {
                let planes = with_planes(&f.functions()[0].0, &ties, t);
                first_replaced(f, SymmetricFunctionPair(planes))
            })
            .collect();
        check_incremental::<SymmetricAsAsymmetric<HyperplaneFamily>>(functions, k, &data, &queries)?;
    }
}

/// Large enough for the build to hash its points on several threads.
#[test]
fn threaded_build_matches_the_per_plane_oracle() {
    let mut rng = StdRng::seed_from_u64(41);
    let data = data_points(&mut rng, 5000, 5);
    let queries = query_points(&mut rng, 5, 1.0);
    let family = SimpleAlshFamily::new(5, 1.0, 1).unwrap();
    let index = LshIndex::build(&family, IndexParams { k: 6, l: 4 }, &data, &mut rng).unwrap();
    let ids: Vec<u32> = (0..data.len() as u32).collect();
    check(&index, &data, &ids, &queries).unwrap();
}

#[test]
fn from_raw_parts_rejects_disagreeing_sphere_transforms() {
    let mut rng = StdRng::seed_from_u64(42);
    let data = data_points(&mut rng, 10, 4);
    let params = IndexParams { k: 3, l: 2 };
    let unit = SimpleAlshFamily::new(4, 1.0, 1).unwrap();
    let wide = SimpleAlshFamily::new(4, 2.0, 1).unwrap();
    let a = LshIndex::build(&unit, params, &data, &mut rng).unwrap();
    let b = LshIndex::build(&wide, params, &data, &mut rng).unwrap();

    let restore = |functions: Vec<_>, tables: Vec<Table>| {
        LshIndex::<SimpleAlshFamily>::from_raw_parts(functions, tables, params, data.len())
    };
    // Each table from its own index is fine …
    assert!(restore(a.functions().to_vec(), a.tables().to_vec()).is_ok());
    // … but one table per transform is not, in either order.
    let mixed = vec![a.functions()[0].clone(), b.functions()[1].clone()];
    let tables = vec![a.tables()[0].clone(), b.tables()[1].clone()];
    assert!(restore(mixed, tables.clone()).is_err());
    let mixed = vec![b.functions()[0].clone(), a.functions()[1].clone()];
    assert!(restore(mixed, tables).is_err());
    // So do components of one composite function.
    let components = vec![
        a.functions()[0].functions()[0].clone(),
        b.functions()[0].functions()[1].clone(),
        a.functions()[0].functions()[2].clone(),
    ];
    let mixed = vec![
        AndFunction::from_functions(components).unwrap(),
        a.functions()[1].clone(),
    ];
    assert!(restore(mixed, a.tables().to_vec()).is_err());
}

/// `tests/fixtures/pre_packed/` was written by the `ips` CLI before packed
/// hashing existed: `ips generate kind=latent n=200 queries=24 dim=6 seed=5`,
/// then `ips build … s=0.5 c=0.5 algorithm=alsh seed=3 bits=8 tables=16`.
/// `expected.txt` records, from that same code, every query's
/// `probe_lookup` candidates for probes 0, 1, 4 and 8, and its `search`
/// answer with the inner product's bits. The file is read twice: as a bare
/// snapshot, and through the serving open path (`Index::open(..)
/// .serve_sharded()`), whose batched `query` must give the `search` answers.
#[test]
fn snapshot_from_before_packed_hashing_answers_identically() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/pre_packed");
    let snapshot = Snapshot::load(&dir.join("alsh.snap")).unwrap();
    let queries = ips_cli::dataset::read_vectors(&dir.join("queries.csv")).unwrap();
    let AnyIndex::Alsh(index) = &snapshot.index else {
        panic!("the fixture is an ALSH snapshot");
    };
    let mut got = String::new();
    for (i, q) in queries.iter().enumerate() {
        for probes in PROBES {
            let ids = index.lsh_index().probe_lookup(q, probes).unwrap();
            let ids: Vec<String> = ids.iter().map(usize::to_string).collect();
            writeln!(
                got,
                "query {i} probes {probes} candidates {}",
                ids.join(" ")
            )
            .unwrap();
        }
        match index.search(q).unwrap() {
            Some(hit) => writeln!(
                got,
                "query {i} search {} {:016x}",
                hit.data_index,
                hit.inner_product.to_bits()
            ),
            None => writeln!(got, "query {i} search none"),
        }
        .unwrap();
    }
    let expected = std::fs::read_to_string(dir.join("expected.txt")).unwrap();
    assert_eq!(got, expected);

    let served = Index::open(dir.join("alsh.snap")).serve_sharded().unwrap();
    assert_eq!(served.shard_count(), 1, "a v1 file opens as one shard");
    let pairs = served.query(&queries).unwrap();
    let mut got = String::new();
    for i in 0..queries.len() {
        match pairs.iter().find(|p| p.query_index == i) {
            Some(p) => writeln!(
                got,
                "query {i} search {} {:016x}",
                p.data_index,
                p.inner_product.to_bits()
            ),
            None => writeln!(got, "query {i} search none"),
        }
        .unwrap();
    }
    let expected: String = expected
        .lines()
        .filter(|line| line.contains(" search "))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(got, expected);
}
