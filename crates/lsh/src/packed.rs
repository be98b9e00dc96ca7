//! Packed hyperplane hashing: every sign of a multi-table index in one pass.
//!
//! The two production families of [`crate::table::LshIndex`] — SIMPLE-ALSH
//! ([`crate::simple_alsh::SimpleAlshFamily`]) and symmetric SimHash
//! (`SymmetricAsAsymmetric<HyperplaneFamily>`) — hash a vector by embedding it
//! (the ball-to-sphere map, or nothing) and taking the sign of its inner product
//! with each of `tables × k × bits` Gaussian planes. Hashed one function at a
//! time, that re-embeds the vector per function and walks the planes as scattered
//! heap vectors. [`PackedHasher`] instead stores all planes as one dim-major `f64`
//! matrix, embeds each vector once, and accumulates every plane's margin in one
//! sweep over the coordinates, vectorised across planes.
//!
//! Keys are **bit-identical** to the per-function path: each plane's margin is
//! the same sequence of `f64` multiply-then-add steps in coordinate order that
//! [`DenseVector::dot`] performs (no `f32`, no fused multiply-add, no
//! reassociation), the embedding is the same [`SphereTransform`] call, and the
//! signs fold through the same [`combine_hashes`] chain. A margin within
//! rounding of `0` therefore lands on the same side in both paths, and indexes,
//! snapshots and probe sequences do not change. See `docs/ARCHITECTURE.md`,
//! "Packed hashing".

use crate::amplify::{combine_hashes, AndFunction};
use crate::error::{LshError, Result};
use crate::simple_alsh::SphereTransform;
use crate::traits::AsymmetricHashFunction;
use ips_linalg::DenseVector;
use std::borrow::Cow;
use std::num::NonZeroUsize;
use std::thread;

/// Planes per register block. The plane count is padded to a multiple of
/// this, so every block is full.
const LANES: usize = 8;

/// Below this many points per thread, a batch is hashed on the calling thread.
const MIN_POINTS_PER_THREAD: usize = 1024;

/// The hyperplane view of a sign hash function: bit `i` of its bucket is set
/// exactly when `planes[i] · x ≥ 0`, where `x` is the input after `transform`
/// (the data-side map for data, the query-side map for queries) or the input
/// itself when `transform` is `None`.
///
/// A function exposes this through
/// [`AsymmetricHashFunction::sign_planes`], which is what lets
/// [`PackedHasher::from_functions`] pack it.
#[derive(Debug, Clone, Copy)]
pub struct SignPlanes<'a> {
    /// The ball-to-sphere embedding applied before the planes, if any.
    pub transform: Option<&'a SphereTransform>,
    /// The hyperplane normals, in bit order.
    pub planes: &'a [DenseVector],
}

/// Which side of an asymmetric pair is being hashed.
#[derive(Clone, Copy)]
enum Side {
    Data,
    Query,
}

/// One probe candidate of a table: the sign flip of one plane (and optionally
/// of a second plane in a later component). Planes are numbered within the
/// table, `c · bits + b`.
struct Candidate {
    /// The squared-margin cost, then the candidate's position in the
    /// per-function path's generation order, as one integer ordered the way
    /// a stable sort by `f64::total_cmp` of the cost orders that path's list.
    rank: u128,
    first: usize,
    second: Option<usize>,
}

impl Candidate {
    fn new(cost: f64, generation: usize, first: usize, second: Option<usize>) -> Self {
        // `f64::total_cmp`'s order as an unsigned integer.
        let bits = cost.to_bits();
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        Self {
            rank: u128::from(key) << 64 | generation as u128,
            first,
            second,
        }
    }
}

/// All the hyperplanes of a multi-table index of sign hash functions, packed
/// into one dim-major matrix so a vector is embedded once and hashed into every
/// table in one pass.
///
/// Built from the composite functions of an index (one [`AndFunction`] per
/// table, each of `k` components with `bits` planes). Every key it produces
/// equals the composite function's own `hash_data` / `hash_query`, and
/// [`PackedHasher::probe_query`] equals its `ProbeSequence::probe_query`.
///
/// ```
/// use ips_linalg::random::random_ball_vector;
/// use ips_lsh::amplify::AndConstruction;
/// use ips_lsh::packed::PackedHasher;
/// use ips_lsh::simple_alsh::SimpleAlshFamily;
/// use ips_lsh::traits::{AsymmetricHashFunction, AsymmetricLshFamily};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let composite = AndConstruction::new(SimpleAlshFamily::new(6, 1.0, 1)?, 4)?;
/// let functions: Vec<_> = (0..3)
///     .map(|_| composite.sample(&mut rng))
///     .collect::<Result<_, _>>()?;
/// let packed = PackedHasher::from_functions(&functions)?.expect("hyperplane family");
///
/// let p = random_ball_vector(&mut rng, 6, 1.0)?;
/// let keys = packed.hash_data(&p)?; // one key per table
/// assert_eq!(keys.len(), 3);
/// for (f, key) in functions.iter().zip(&keys) {
///     assert_eq!(f.hash_data(&p)?, *key); // bit-identical to the per-function path
/// }
/// # Ok::<(), ips_lsh::LshError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedHasher {
    transform: Option<SphereTransform>,
    /// Length of each plane (the embedded dimension).
    dim: usize,
    tables: usize,
    k: usize,
    bits: usize,
    /// Row length of `planes`: `tables × k × bits` rounded up to [`LANES`].
    stride: usize,
    /// `planes[j * stride + i]` is coordinate `j` of plane `i`, where plane
    /// `(t · k + c) · bits + b` is bit `b` of component `c` of table `t`.
    /// Padding planes are zero and never read back.
    planes: Vec<f64>,
}

impl PackedHasher {
    /// Packs the planes of an index's composite functions, one per table.
    ///
    /// Returns `Ok(None)` when the list is empty or any component is not a
    /// sign hash (its [`AsymmetricHashFunction::sign_planes`] is `None`) or has
    /// zero-length planes; such functions keep hashing one by one. Returns an
    /// error when the components disagree with each other: on their sphere
    /// transform, their plane dimension, or the number of components or planes
    /// per function.
    pub fn from_functions<H: AsymmetricHashFunction>(
        functions: &[AndFunction<H>],
    ) -> Result<Option<Self>> {
        let Some(first) = functions.first().and_then(|f| f.functions().first()) else {
            return Ok(None);
        };
        let Some(view) = first.sign_planes() else {
            return Ok(None);
        };
        let (transform, bits) = (view.transform, view.planes.len());
        let dim = view.planes.first().map_or(0, DenseVector::dim);
        if dim == 0 {
            // No coordinate to accumulate over (or no plane at all): leave such
            // degenerate functions to the per-function path.
            return Ok(None);
        }
        let k = functions[0].functions().len();
        let tables = functions.len();
        let width = tables * k * bits;
        let stride = width.next_multiple_of(LANES);
        let mut planes = vec![0.0; dim * stride];
        for (t, f) in functions.iter().enumerate() {
            if f.functions().len() != k {
                return Err(disagree(format!(
                    "table {t} has {} components, table 0 has {k}",
                    f.functions().len()
                )));
            }
            for (c, component) in f.functions().iter().enumerate() {
                let Some(view) = component.sign_planes() else {
                    return Ok(None);
                };
                if view.transform != transform {
                    return Err(disagree(format!(
                        "table {t} component {c} has a different sphere transform"
                    )));
                }
                if view.planes.len() != bits {
                    return Err(disagree(format!(
                        "table {t} component {c} has {} planes, expected {bits}",
                        view.planes.len()
                    )));
                }
                for (b, plane) in view.planes.iter().enumerate() {
                    if plane.dim() != dim {
                        return Err(LshError::DimensionMismatch {
                            expected: dim,
                            actual: plane.dim(),
                        });
                    }
                    let i = (t * k + c) * bits + b;
                    for (j, &w) in plane.iter().enumerate() {
                        planes[j * stride + i] = w;
                    }
                }
            }
        }
        if let Some(t) = transform {
            if t.output_dim() != dim {
                return Err(LshError::DimensionMismatch {
                    expected: t.output_dim(),
                    actual: dim,
                });
            }
        }
        Ok(Some(Self {
            transform: transform.cloned(),
            dim,
            tables,
            k,
            bits,
            stride,
            planes,
        }))
    }

    /// The data-side key of `p` in every table, in table order.
    pub fn hash_data(&self, p: &DenseVector) -> Result<Vec<u64>> {
        self.keys(p, Side::Data)
    }

    /// The query-side key of `q` in every table, in table order.
    pub fn hash_query(&self, q: &DenseVector) -> Result<Vec<u64>> {
        self.keys(q, Side::Query)
    }

    fn keys(&self, v: &DenseVector, side: Side) -> Result<Vec<u64>> {
        let mut keys = vec![0; self.tables];
        let mut margins = vec![0.0; self.stride];
        self.keys_into(v, side, &mut margins, &mut keys)?;
        Ok(keys)
    }

    /// The data-side keys of every point, point-major: the key of `data[i]` in
    /// table `t` is at `i × tables + t`.
    ///
    /// Large batches are split into contiguous chunks hashed on scoped threads,
    /// up to [`std::thread::available_parallelism`]. The keys do not depend on
    /// the split. On failure, the error is that of the first failing point.
    pub fn hash_data_batch(&self, data: &[DenseVector]) -> Result<Vec<u64>> {
        let mut keys = vec![0; data.len() * self.tables];
        let threads = thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(data.len() / MIN_POINTS_PER_THREAD)
            .max(1);
        if threads == 1 {
            self.hash_chunk(data, &mut keys)?;
            return Ok(keys);
        }
        let chunk = data.len().div_ceil(threads);
        let mut parts = data.chunks(chunk).zip(keys.chunks_mut(chunk * self.tables));
        let (head, head_keys) = parts.next().expect("at least one chunk");
        thread::scope(|s| {
            let rest: Vec<_> = parts
                .map(|(pts, out)| s.spawn(move || self.hash_chunk(pts, out)))
                .collect();
            let head_result = self.hash_chunk(head, head_keys);
            rest.into_iter().fold(head_result, |acc, h| {
                let result = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                acc.and(result)
            })
        })?;
        Ok(keys)
    }

    /// The buckets to visit for `q` in every table, in table order: the home
    /// bucket first, then up to `extra` perturbed buckets in increasing cost.
    ///
    /// Equal, table by table, to `ProbeSequence::probe_query` of the composite
    /// functions the hasher was packed from: the same candidates (single flips,
    /// then flips in two distinct components), the same squared-margin costs,
    /// and the same stable order.
    pub fn probe_query(&self, q: &DenseVector, extra: usize) -> Result<Vec<Vec<u64>>> {
        let mut margins = vec![0.0; self.stride];
        self.margins_into(q, Side::Query, &mut margins)?;
        let per_table = self.k * self.bits;
        let mut homes = vec![0u64; self.k];
        let mut prefix = vec![0u64; self.k];
        let (mut costs, mut best) = (Vec::with_capacity(per_table), Vec::new());
        let mut out = Vec::with_capacity(self.tables);
        for table in margins[..self.tables * per_table].chunks_exact(per_table) {
            let mut acc = 0u64;
            for (c, signs) in table.chunks_exact(self.bits).enumerate() {
                homes[c] = sign_bits(signs);
                prefix[c] = acc;
                acc = combine_hashes(acc, homes[c]);
            }
            let mut probes = Vec::with_capacity(extra + 1);
            probes.push(acc);
            if extra > 0 {
                costs.clear();
                costs.extend(table.iter().map(|m| m * m));
                self.cheapest_flips(&costs, extra, &mut best);
                for cand in &best {
                    let hash = rechain(&homes, &prefix, self.bits, cand);
                    if !probes.contains(&hash) {
                        probes.push(hash);
                    }
                }
            }
            out.push(probes);
        }
        Ok(out)
    }

    /// The `extra` cheapest probe candidates of one table, in the order a
    /// stable sort by cost gives the per-function path's candidate list: every
    /// single flip by (component, bit), then every pair of flips in distinct
    /// components `ci < cj`, by `(ci, cj, bit in ci, bit in cj)`.
    /// `costs[c · bits + b]` is the squared margin of bit `b` of component `c`.
    fn cheapest_flips(&self, costs: &[f64], extra: usize, best: &mut Vec<Candidate>) {
        let (singles, bits) = (costs.len(), self.bits);
        best.clear();
        best.extend(
            costs
                .iter()
                .enumerate()
                .map(|(i, &cost)| Candidate::new(cost, i, i, None)),
        );
        best.sort_unstable_by_key(|c| c.rank);
        // A pair costs at least as much as each of its flips and comes after
        // every single in generation order, so only pairs cheaper than the
        // `extra`-th single can be kept. Walking the singles in cost order the
        // sums only grow, so each loop stops at the first sum that is not
        // cheaper. NaN costs break that order; then every pair is ranked.
        let cutoff = (singles >= extra && !costs.iter().any(|c| c.is_nan()))
            .then(|| costs[best[extra - 1].first]);
        let cheaper = |cost: f64| cutoff.is_none_or(|t| cost.total_cmp(&t).is_lt());
        for a in 0..singles {
            let x = best[a].first;
            if a + 1 < singles && !cheaper(costs[x] + costs[best[a + 1].first]) {
                break;
            }
            for b in a + 1..singles {
                let y = best[b].first;
                let cost = costs[x] + costs[y];
                if !cheaper(cost) {
                    break;
                }
                let (i, j) = (x.min(y), x.max(y));
                let (ci, cj) = (i / bits, j / bits);
                if ci < cj {
                    // Pairs follow the singles, block by block over components
                    // `ci < cj`, then by bit in `ci` and bit in `cj`.
                    let block = ci * (2 * self.k - ci - 1) / 2 + (cj - ci - 1);
                    let generation =
                        singles + (block * bits + i - ci * bits) * bits + j - cj * bits;
                    best.push(Candidate::new(cost, generation, i, Some(j)));
                }
            }
        }
        best.sort_unstable_by_key(|c| c.rank);
        best.truncate(extra);
    }

    fn hash_chunk(&self, data: &[DenseVector], keys: &mut [u64]) -> Result<()> {
        let mut margins = vec![0.0; self.stride];
        for (p, out) in data.iter().zip(keys.chunks_exact_mut(self.tables)) {
            self.keys_into(p, Side::Data, &mut margins, out)?;
        }
        Ok(())
    }

    fn keys_into(
        &self,
        v: &DenseVector,
        side: Side,
        margins: &mut [f64],
        keys: &mut [u64],
    ) -> Result<()> {
        self.margins_into(v, side, margins)?;
        self.fold_keys(margins, keys);
        Ok(())
    }

    /// Folds each table's signs through the `combine_hashes` chain.
    fn fold_keys(&self, margins: &[f64], keys: &mut [u64]) {
        let per_table = self.k * self.bits;
        for (key, table) in keys.iter_mut().zip(margins.chunks_exact(per_table)) {
            *key = table
                .chunks_exact(self.bits)
                .fold(0, |acc, signs| combine_hashes(acc, sign_bits(signs)));
        }
    }

    /// Embeds `v` once and writes every plane's margin into `margins`.
    fn margins_into(&self, v: &DenseVector, side: Side, margins: &mut [f64]) -> Result<()> {
        let x = self.embed(v, side)?;
        for base in (0..self.stride).step_by(LANES) {
            self.margins_block(base, &x, &mut margins[base..base + LANES]);
        }
        Ok(())
    }

    /// The vector the planes apply to: `v` after the side's sphere map, or
    /// `v` itself.
    fn embed<'v>(&self, v: &'v DenseVector, side: Side) -> Result<Cow<'v, [f64]>> {
        Ok(match (&self.transform, side) {
            (Some(t), Side::Data) => Cow::Owned(t.transform_data(v)?.into_vec()),
            (Some(t), Side::Query) => Cow::Owned(t.transform_query(v)?.into_vec()),
            (None, _) if v.dim() != self.dim => {
                return Err(LshError::DimensionMismatch {
                    expected: self.dim,
                    actual: v.dim(),
                })
            }
            (None, _) => Cow::Borrowed(v.as_slice()),
        })
    }

    /// Writes the margins of the embedded point `x` against the [`LANES`]
    /// planes starting at plane `base` into `out`.
    fn margins_block(&self, base: usize, x: &[f64], out: &mut [f64]) {
        let column = |j: usize| -> &[f64; LANES] {
            let start = j * self.stride + base;
            self.planes[start..start + LANES]
                .try_into()
                .expect("block of LANES planes")
        };
        // Same steps as `DenseVector::dot` per plane: the first product, then
        // `acc + x[j] * w[j]` for j = 1, 2, … in order.
        let mut acc = column(0).map(|w| x[0] * w);
        for (j, &xj) in x.iter().enumerate().skip(1) {
            for (a, &w) in acc.iter_mut().zip(column(j)) {
                *a += xj * w;
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// The bucket bits of one component: bit `b` set when its margin is `≥ 0`.
fn sign_bits(margins: &[f64]) -> u64 {
    margins
        .iter()
        .enumerate()
        .fold(0, |h, (b, &m)| if m >= 0.0 { h | (1u64 << b) } else { h })
}

/// The table key with the candidate's flipped components substituted,
/// re-chained from the first of them (`prefix[c]` is the chain before `c`).
fn rechain(homes: &[u64], prefix: &[u64], bits: usize, cand: &Candidate) -> u64 {
    let flipped = |i: usize| (i / bits, homes[i / bits] ^ (1u64 << (i % bits)));
    let (start, first) = flipped(cand.first);
    let second = cand.second.map(flipped);
    let mut acc = combine_hashes(prefix[start], first);
    for (c, &home) in homes.iter().enumerate().skip(start + 1) {
        let value = match second {
            Some((j, h)) if j == c => h,
            _ => home,
        };
        acc = combine_hashes(acc, value);
    }
    acc
}

fn disagree(reason: String) -> LshError {
    LshError::InvalidParameter {
        name: "functions",
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amplify::AndConstruction;
    use crate::hyperplane::HyperplaneFamily;
    use crate::minhash::MinHashFamily;
    use crate::probe::ProbeSequence;
    use crate::simple_alsh::{SimpleAlshFamily, SimpleAlshFunction};
    use crate::traits::{AsymmetricLshFamily, SymmetricAsAsymmetric};
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample<F: AsymmetricLshFamily>(
        family: F,
        k: usize,
        l: usize,
        rng: &mut StdRng,
    ) -> Vec<AndFunction<F::Function>> {
        let composite = AndConstruction::new(family, k).unwrap();
        (0..l).map(|_| composite.sample(rng).unwrap()).collect()
    }

    #[test]
    fn alsh_keys_and_probes_match_per_function_path() {
        let mut rng = StdRng::seed_from_u64(1);
        let fs = sample(SimpleAlshFamily::new(7, 1.5, 3).unwrap(), 4, 5, &mut rng);
        let packed = PackedHasher::from_functions(&fs).unwrap().unwrap();
        for _ in 0..20 {
            let p = random_ball_vector(&mut rng, 7, 1.0).unwrap();
            let q = random_ball_vector(&mut rng, 7, 1.5).unwrap();
            let data: Vec<u64> = fs.iter().map(|f| f.hash_data(&p).unwrap()).collect();
            let query: Vec<u64> = fs.iter().map(|f| f.hash_query(&q).unwrap()).collect();
            assert_eq!(packed.hash_data(&p).unwrap(), data);
            assert_eq!(packed.hash_query(&q).unwrap(), query);
            for extra in [0, 1, 5, 40] {
                let oracle: Vec<Vec<u64>> = fs
                    .iter()
                    .map(|f| f.probe_query(&q, extra).unwrap())
                    .collect();
                assert_eq!(packed.probe_query(&q, extra).unwrap(), oracle);
            }
        }
    }

    #[test]
    fn symmetric_batch_matches_per_function_path_across_threads() {
        let mut rng = StdRng::seed_from_u64(2);
        let family = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(5).unwrap());
        let fs = sample(family, 3, 4, &mut rng);
        let packed = PackedHasher::from_functions(&fs).unwrap().unwrap();
        let data: Vec<DenseVector> = (0..3 * MIN_POINTS_PER_THREAD)
            .map(|_| random_unit_vector(&mut rng, 5).unwrap())
            .collect();
        let keys = packed.hash_data_batch(&data).unwrap();
        for (p, row) in data.iter().zip(keys.chunks_exact(4)) {
            let oracle: Vec<u64> = fs.iter().map(|f| f.hash_data(p).unwrap()).collect();
            assert_eq!(row, &oracle[..]);
        }
        assert!(packed.hash_query(&DenseVector::zeros(4)).is_err());
    }

    #[test]
    fn batch_reports_the_first_failing_point() {
        let mut rng = StdRng::seed_from_u64(3);
        let fs = sample(SimpleAlshFamily::new(4, 1.0, 1).unwrap(), 2, 2, &mut rng);
        let packed = PackedHasher::from_functions(&fs).unwrap().unwrap();
        let mut data = vec![DenseVector::from(&[0.1, 0.0, 0.0, 0.0][..]); 2500];
        data[2400] = DenseVector::zeros(3);
        data[1700] = DenseVector::from(&[2.0, 0.0, 0.0, 0.0][..]);
        let err = packed.hash_data_batch(&data).unwrap_err();
        assert!(matches!(err, LshError::DomainViolation { .. }), "{err}");
    }

    #[test]
    fn non_sign_families_are_not_packed() {
        let mut rng = StdRng::seed_from_u64(4);
        let fs = sample(
            SymmetricAsAsymmetric(MinHashFamily::new(3).unwrap()),
            2,
            2,
            &mut rng,
        );
        assert!(PackedHasher::from_functions(&fs).unwrap().is_none());
        let none: Vec<AndFunction<SimpleAlshFunction>> = Vec::new();
        assert!(PackedHasher::from_functions(&none).unwrap().is_none());
    }

    #[test]
    fn disagreeing_transforms_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut fs = sample(SimpleAlshFamily::new(4, 1.0, 1).unwrap(), 2, 2, &mut rng);
        fs.extend(sample(
            SimpleAlshFamily::new(4, 2.0, 1).unwrap(),
            2,
            1,
            &mut rng,
        ));
        assert!(PackedHasher::from_functions(&fs).is_err());
    }
}
