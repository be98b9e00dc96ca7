//! Multi-table LSH indexes (the OR-construction).
//!
//! An [`LshIndex`] holds `L` hash tables. Table `i` stores every data point under the
//! bucket produced by an independently sampled composite (ANDed) function; querying
//! returns the union of the query's buckets across tables. With per-function collision
//! probabilities `P1 > P2`, choosing `k ≈ log n / log(1/P2)` and `L ≈ n^ρ` gives the
//! classical `O(n^ρ)` query time that all the upper-bound discussions in the paper
//! (Sections 1.1 and 4) refer to.
//!
//! For the two hyperplane families (SIMPLE-ALSH and symmetric SimHash) every entry
//! point — build, insert, remove, lookup and probing — hashes through one
//! [`PackedHasher`] holding all `L × k` functions' planes, which embeds a vector once
//! and produces keys bit-identical to hashing table by table (see [`crate::packed`]).
//! Any other family hashes with each table's function in turn.
//!
//! The index is *dynamic*: [`LshIndex::insert`] and [`LshIndex::remove`] maintain the
//! `L` tables incrementally (hashing the point with each table's stored function), so a
//! long-lived serving process can mutate an index without rebuilding it; and it is
//! *persistable*: [`LshIndex::functions`] / [`LshIndex::tables`] /
//! [`LshIndex::from_raw_parts`] expose exactly the state a snapshot needs to restore an
//! index bit-identically (same sampled functions, same buckets, same query results).

use crate::amplify::AndConstruction;
use crate::error::{LshError, Result};
use crate::packed::PackedHasher;
use crate::probe::ProbeSequence;
use crate::traits::{AsymmetricHashFunction, AsymmetricLshFamily};
use ips_linalg::DenseVector;
use rand::Rng;
use std::collections::HashMap;

/// Parameters of a multi-table index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexParams {
    /// Number of concatenated hash functions per table (AND-construction width).
    pub k: usize,
    /// Number of tables (OR-construction width).
    pub l: usize,
}

impl IndexParams {
    /// Standard parameter choice for `n` points given collision probabilities `p1 > p2`:
    /// `k = ⌈ln n / ln(1/p2)⌉` and `L = ⌈n^ρ⌉` with `ρ = ln p1 / ln p2`.
    pub fn theoretical(n: usize, p1: f64, p2: f64) -> Result<Self> {
        if !(p2 > 0.0 && p2 < 1.0 && p1 > p2 && p1 < 1.0) {
            return Err(LshError::InvalidParameter {
                name: "p1/p2",
                reason: format!("need 0 < p2 < p1 < 1, got p1={p1}, p2={p2}"),
            });
        }
        let n = n.max(2) as f64;
        let k = (n.ln() / (1.0 / p2).ln()).ceil().max(1.0) as usize;
        let rho = p1.ln() / p2.ln();
        let l = n.powf(rho).ceil().max(1.0) as usize;
        Ok(Self { k, l })
    }
}

/// A multi-table LSH index over data vectors, generic over any asymmetric family.
pub struct LshIndex<F: AsymmetricLshFamily> {
    functions: Vec<<AndConstruction<F> as AsymmetricLshFamily>::Function>,
    tables: Vec<HashMap<u64, Vec<u32>>>,
    params: IndexParams,
    len: usize,
    /// Every table's planes packed for one-pass hashing, when the family hashes
    /// by hyperplane signs (SIMPLE-ALSH and symmetric SimHash); `None` hashes
    /// function by function.
    packed: Option<PackedHasher>,
}

impl<F: AsymmetricLshFamily + Clone> LshIndex<F> {
    /// Builds an index over `data` using `params.l` tables of `params.k`-wise composite
    /// functions sampled from `family`.
    pub fn build<R: Rng + ?Sized>(
        family: &F,
        params: IndexParams,
        data: &[DenseVector],
        rng: &mut R,
    ) -> Result<Self> {
        if params.l == 0 {
            return Err(LshError::InvalidParameter {
                name: "l",
                reason: "index needs at least one table".into(),
            });
        }
        if data.len() > u32::MAX as usize {
            return Err(LshError::InvalidParameter {
                name: "data",
                reason: "index supports at most 2^32 - 1 points".into(),
            });
        }
        let composite = AndConstruction::new(family.clone(), params.k)?;
        let functions = (0..params.l)
            .map(|_| composite.sample(rng))
            .collect::<Result<Vec<_>>>()?;
        let packed = PackedHasher::from_functions(&functions)?;
        let mut tables: Vec<HashMap<u64, Vec<u32>>> = vec![HashMap::new(); params.l];
        if let Some(hasher) = &packed {
            // Hash every point into every table first, then fill each table in
            // ascending id order — the same bucket contents as the loop below.
            let keys = hasher.hash_data_batch(data)?;
            for (t, table) in tables.iter_mut().enumerate() {
                for (idx, row) in keys.chunks_exact(params.l).enumerate() {
                    table.entry(row[t]).or_default().push(idx as u32);
                }
            }
        } else {
            for (f, table) in functions.iter().zip(tables.iter_mut()) {
                for (idx, p) in data.iter().enumerate() {
                    table.entry(f.hash_data(p)?).or_default().push(idx as u32);
                }
            }
        }
        Ok(Self {
            functions,
            tables,
            params,
            len: data.len(),
            packed,
        })
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> IndexParams {
        self.params
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the (deduplicated) candidate indices colliding with the query in at
    /// least one table, in ascending order.
    pub fn query_candidates(&self, q: &DenseVector) -> Result<Vec<usize>> {
        let keys: Vec<u64> = match &self.packed {
            Some(hasher) => hasher.hash_query(q)?,
            None => self
                .functions
                .iter()
                .map(|f| f.hash_query(q))
                .collect::<Result<_>>()?,
        };
        Ok(self.collect_candidates(keys.into_iter().map(std::iter::once)))
    }

    /// Like [`LshIndex::query_candidates`], but additionally visits up to `probes`
    /// extra buckets per table, chosen by the query-directed probe sequence of each
    /// table's composite function (see [`crate::probe`]): the buckets the query came
    /// closest to hashing into, in decreasing estimated collision probability.
    ///
    /// `probes = 0` takes the exact [`LshIndex::query_candidates`] code path, so the
    /// default is bit-identical to the classical lookup. The candidate set is always a
    /// superset of the classical one, deduplicated and in ascending order — the union
    /// over tables of the union over probed buckets, so the result is deterministic
    /// for a given index structure regardless of probe count.
    ///
    /// ```
    /// use ips_lsh::simple_alsh::SimpleAlshFamily;
    /// use ips_lsh::table::{IndexParams, LshIndex};
    /// use ips_linalg::random::random_ball_vector;
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = StdRng::seed_from_u64(5);
    /// let family = SimpleAlshFamily::new(8, 1.0, 1)?;
    /// let data: Vec<_> = (0..50)
    ///     .map(|_| random_ball_vector(&mut rng, 8, 1.0).unwrap())
    ///     .collect();
    /// let index = LshIndex::build(&family, IndexParams { k: 4, l: 4 }, &data, &mut rng)?;
    /// let q = random_ball_vector(&mut rng, 8, 1.0)?;
    /// let classical = index.query_candidates(&q)?;
    /// assert_eq!(index.probe_lookup(&q, 0)?, classical);
    /// let probed = index.probe_lookup(&q, 4)?;
    /// assert!(classical.iter().all(|id| probed.contains(id)));
    /// # Ok::<(), ips_lsh::LshError>(())
    /// ```
    pub fn probe_lookup(&self, q: &DenseVector, probes: usize) -> Result<Vec<usize>>
    where
        <AndConstruction<F> as AsymmetricLshFamily>::Function: ProbeSequence,
    {
        if probes == 0 {
            return self.query_candidates(q);
        }
        let buckets = match &self.packed {
            Some(hasher) => hasher.probe_query(q, probes)?,
            None => self
                .functions
                .iter()
                .map(|f| f.probe_query(q, probes))
                .collect::<Result<_>>()?,
        };
        Ok(self.collect_candidates(buckets))
    }

    /// The ids stored under table `t`'s buckets `keys[t]`, over all tables, in
    /// ascending order without repeats (an id collides in many tables).
    fn collect_candidates<K>(&self, keys: impl IntoIterator<Item = K>) -> Vec<usize>
    where
        K: IntoIterator<Item = u64>,
    {
        let mut out = Vec::new();
        for (table, keys) in self.tables.iter().zip(keys) {
            for key in keys {
                if let Some(ids) = table.get(&key) {
                    out.extend(ids.iter().map(|&id| id as usize));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total number of stored (bucket, point) entries across all tables — a proxy for
    /// the index's memory footprint used by the benchmarks.
    pub fn stored_entries(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// The `L` sampled composite functions, in table order (persistence accessor).
    pub fn functions(&self) -> &[<AndConstruction<F> as AsymmetricLshFamily>::Function] {
        &self.functions
    }

    /// The `L` hash tables, in table order (persistence accessor). Each maps a bucket
    /// key to the point ids stored under it, in insertion order.
    pub fn tables(&self) -> &[HashMap<u64, Vec<u32>>] {
        &self.tables
    }

    /// Reassembles an index from previously extracted state — the inverse of
    /// [`LshIndex::functions`] / [`LshIndex::tables`] / [`LshIndex::params`], used by
    /// snapshot persistence to restore an index without re-sampling its functions.
    ///
    /// `len` is the number of *distinct* points stored (each point appears once per
    /// table). Returns an error when the function and table counts disagree with each
    /// other or with `params.l`, when any table's entry count differs from `len`, or
    /// when hyperplane functions disagree on their sphere transform or shape (see
    /// [`PackedHasher::from_functions`]).
    pub fn from_raw_parts(
        functions: Vec<<AndConstruction<F> as AsymmetricLshFamily>::Function>,
        tables: Vec<HashMap<u64, Vec<u32>>>,
        params: IndexParams,
        len: usize,
    ) -> Result<Self> {
        if functions.is_empty() || functions.len() != tables.len() || functions.len() != params.l {
            return Err(LshError::InvalidParameter {
                name: "functions/tables",
                reason: format!(
                    "need params.l = {} non-empty matching function and table lists, got {} and {}",
                    params.l,
                    functions.len(),
                    tables.len()
                ),
            });
        }
        for table in &tables {
            let entries: usize = table.values().map(Vec::len).sum();
            if entries != len {
                return Err(LshError::InvalidParameter {
                    name: "tables",
                    reason: format!("table holds {entries} entries for a length-{len} index"),
                });
            }
        }
        let packed = PackedHasher::from_functions(&functions)?;
        Ok(Self {
            functions,
            tables,
            params,
            len,
            packed,
        })
    }

    /// Inserts a point under id `id`, hashing it into every table with that table's
    /// stored function — the dynamic-maintenance half of the serving layer.
    ///
    /// The caller owns the id space; inserting an id that is already present stores it
    /// twice and is a logic error.
    pub fn insert(&mut self, id: u32, p: &DenseVector) -> Result<()> {
        // Hash against every table before mutating any of them, so a domain or
        // dimension error cannot leave the point half-inserted.
        let buckets = self.data_keys(p)?;
        for (table, bucket) in self.tables.iter_mut().zip(buckets) {
            table.entry(bucket).or_default().push(id);
        }
        self.len += 1;
        Ok(())
    }

    /// Removes the point stored under id `id`, locating its bucket in each table by
    /// re-hashing the vector `p` it was inserted with.
    ///
    /// Returns `true` when the id was found (in any table) and removed. Buckets left
    /// empty are dropped, so a remove exactly undoes the matching insert.
    pub fn remove(&mut self, id: u32, p: &DenseVector) -> Result<bool> {
        let buckets = self.data_keys(p)?;
        let mut removed = false;
        for (table, bucket) in self.tables.iter_mut().zip(buckets) {
            if let Some(ids) = table.get_mut(&bucket) {
                if let Some(pos) = ids.iter().position(|&x| x == id) {
                    ids.remove(pos);
                    removed = true;
                }
                if ids.is_empty() {
                    table.remove(&bucket);
                }
            }
        }
        if removed {
            self.len -= 1;
        }
        Ok(removed)
    }

    /// The data-side key of `p` in every table, in table order.
    fn data_keys(&self, p: &DenseVector) -> Result<Vec<u64>> {
        match &self.packed {
            Some(hasher) => hasher.hash_data(p),
            None => self.functions.iter().map(|f| f.hash_data(p)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::HyperplaneFamily;
    use crate::simple_alsh::SimpleAlshFamily;
    use crate::traits::SymmetricAsAsymmetric;
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn theoretical_params_sane() {
        let p = IndexParams::theoretical(1000, 0.8, 0.4).unwrap();
        assert!(p.k >= 1 && p.l >= 1);
        assert!(IndexParams::theoretical(1000, 0.4, 0.8).is_err());
        assert!(IndexParams::theoretical(1000, 1.1, 0.5).is_err());
    }

    #[test]
    fn build_rejects_zero_tables() {
        let mut rng = StdRng::seed_from_u64(91);
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(4).unwrap());
        let data = vec![DenseVector::from(&[1.0, 0.0, 0.0, 0.0][..])];
        assert!(LshIndex::build(&fam, IndexParams { k: 1, l: 0 }, &data, &mut rng).is_err());
    }

    #[test]
    fn near_duplicates_are_found() {
        let mut rng = StdRng::seed_from_u64(92);
        let dim = 16;
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(dim).unwrap());
        let mut data: Vec<DenseVector> = (0..200)
            .map(|_| random_unit_vector(&mut rng, dim).unwrap())
            .collect();
        // Plant a near-duplicate of the query at index 0.
        let query = random_unit_vector(&mut rng, dim).unwrap();
        data[0] = query.scaled(1.0 - 1e-9);
        let index = LshIndex::build(&fam, IndexParams { k: 4, l: 16 }, &data, &mut rng).unwrap();
        assert_eq!(index.len(), 200);
        assert!(!index.is_empty());
        assert!(index.stored_entries() >= 200 * 16);
        let candidates = index.query_candidates(&query).unwrap();
        assert!(
            candidates.contains(&0),
            "planted near-duplicate not retrieved; got {candidates:?}"
        );
        // The candidate set should be (much) smaller than the full data set.
        assert!(candidates.len() < 200);
    }

    #[test]
    fn asymmetric_family_index_finds_high_inner_product() {
        let mut rng = StdRng::seed_from_u64(93);
        let dim = 12;
        let fam = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let query = random_unit_vector(&mut rng, dim).unwrap();
        let mut data: Vec<DenseVector> = (0..150)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        data[7] = query.scaled(0.98); // high inner product with the query
        let index = LshIndex::build(&fam, IndexParams { k: 6, l: 24 }, &data, &mut rng).unwrap();
        let candidates = index.query_candidates(&query).unwrap();
        assert!(
            candidates.contains(&7),
            "high-IP point missed: {candidates:?}"
        );
    }

    #[test]
    fn dynamic_insert_and_remove_match_a_fresh_build() {
        let mut rng = StdRng::seed_from_u64(95);
        let dim = 10;
        let fam = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let params = IndexParams { k: 3, l: 8 };
        let data: Vec<DenseVector> = (0..60)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        // Build over the first 40 points, then insert the remaining 20 dynamically.
        let mut dynamic = LshIndex::build(&fam, params, &data[..40], &mut rng).unwrap();
        for (i, p) in data[40..].iter().enumerate() {
            dynamic.insert((40 + i) as u32, p).unwrap();
        }
        assert_eq!(dynamic.len(), 60);
        // Same functions, so querying must see the inserted points exactly as if they
        // had been present at build time: remove them again and the tables must return
        // to the built state.
        let before: Vec<_> = (0..5)
            .map(|i| dynamic.query_candidates(&data[i]).unwrap())
            .collect();
        for (i, p) in data[40..].iter().enumerate() {
            assert!(dynamic.remove((40 + i) as u32, p).unwrap());
        }
        assert_eq!(dynamic.len(), 40);
        for t in dynamic.tables() {
            assert!(t.values().all(|ids| ids.iter().all(|&id| id < 40)));
        }
        // Candidates after removal never contain removed ids.
        for i in 0..5 {
            let after = dynamic.query_candidates(&data[i]).unwrap();
            assert!(after.iter().all(|&id| id < 40));
            let expected: Vec<usize> = before[i].iter().copied().filter(|&id| id < 40).collect();
            assert_eq!(after, expected);
        }
        // Removing an id that is not stored reports false and changes nothing.
        assert!(!dynamic.remove(99, &data[59]).unwrap());
        assert_eq!(dynamic.len(), 40);
    }

    #[test]
    fn raw_parts_roundtrip_preserves_queries() {
        let mut rng = StdRng::seed_from_u64(96);
        let dim = 8;
        let fam = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let data: Vec<DenseVector> = (0..30)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        let params = IndexParams { k: 2, l: 6 };
        let index = LshIndex::build(&fam, params, &data, &mut rng).unwrap();
        let rebuilt = LshIndex::<SimpleAlshFamily>::from_raw_parts(
            index.functions().to_vec(),
            index.tables().to_vec(),
            index.params(),
            index.len(),
        )
        .unwrap();
        for q in &data[..5] {
            assert_eq!(
                index.query_candidates(q).unwrap(),
                rebuilt.query_candidates(q).unwrap()
            );
        }
        // Validation: mismatched table count and wrong entry totals are rejected.
        assert!(LshIndex::<SimpleAlshFamily>::from_raw_parts(
            index.functions().to_vec(),
            index.tables()[..3].to_vec(),
            index.params(),
            index.len(),
        )
        .is_err());
        assert!(LshIndex::<SimpleAlshFamily>::from_raw_parts(
            index.functions().to_vec(),
            index.tables().to_vec(),
            index.params(),
            index.len() + 1,
        )
        .is_err());
    }

    #[test]
    fn probe_lookup_is_a_superset_and_identical_at_zero() {
        let mut rng = StdRng::seed_from_u64(97);
        let dim = 12;
        let fam = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let data: Vec<DenseVector> = (0..120)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        let index = LshIndex::build(&fam, IndexParams { k: 6, l: 8 }, &data, &mut rng).unwrap();
        let mut grew = false;
        for q in &data[..10] {
            let classical = index.query_candidates(q).unwrap();
            assert_eq!(index.probe_lookup(q, 0).unwrap(), classical);
            let mut previous = classical;
            for probes in [1usize, 2, 4, 8] {
                let probed = index.probe_lookup(q, probes).unwrap();
                assert!(previous.iter().all(|id| probed.contains(id)));
                grew |= probed.len() > previous.len();
                previous = probed;
            }
        }
        assert!(grew, "probing never found an extra candidate");
    }

    #[test]
    fn params_accessor_roundtrips() {
        let mut rng = StdRng::seed_from_u64(94);
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(4).unwrap());
        let data = vec![DenseVector::from(&[0.5, 0.5, 0.5, 0.5][..])];
        let params = IndexParams { k: 2, l: 3 };
        let index = LshIndex::build(&fam, params, &data, &mut rng).unwrap();
        assert_eq!(index.params(), params);
    }
}
