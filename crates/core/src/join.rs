//! The join layer: one engine constructor per Section 4 data structure.
//!
//! A join is "build an index over `P`, query it with every `q ∈ Q`" (the reduction the
//! paper uses throughout: a subquadratic-query index immediately gives a subquadratic
//! join). Each constructor here builds one of the paper's indexes over the data and
//! wraps it in a [`JoinEngine`] — the unified parallel, chunk-batched driver:
//!
//! * [`alsh_engine`] — the Section 4.1 asymmetric-LSH index ([`AlshMipsIndex`]);
//! * [`symmetric_engine`] — the Section 4.2 symmetric LSH ([`SymmetricLshMips`]);
//! * [`sketch_engine`] — the Section 4.3 linear-sketch structure
//!   ([`SketchMipsAdapter`] over `ips-sketch`).
//!
//! Use them directly to reuse a built index across query batches or to pick a custom
//! [`EngineConfig`]; a prebuilt [`crate::mips::MipsIndex`] joins through
//! `JoinEngine::new(&index).run(queries)`. A one-shot join is spelled with the fluent
//! [`crate::facade::JoinBuilder`] (`Join::data(d).queries(q)…run()`). Its fixed
//! strategies and the planner's [`crate::planner::JoinPlan::execute`] share one
//! dispatch over these constructors, so a planned join is bit-identical to the manual
//! join of the strategy it chose, given the same parameters and RNG state.
//!
//! # Contract
//!
//! Every join honours the validity half of Definition 1 by construction —
//! no reported pair falls below `cs` — and only ever *misses* promised queries;
//! see the [`JoinSpec`](crate::problem::JoinSpec#validity-contract) rustdoc for
//! the full contract. Engine semantics note: an **empty query set** joins to an
//! empty result for every strategy (the seed's sketch path used to reject
//! it; the engine unified the behaviour). An empty *data* set still fails at
//! index construction or on the first search, as before.

use crate::asymmetric::{AlshMipsIndex, AlshParams};
use crate::brute::BorrowedBruteIndex;
use crate::engine::{EngineConfig, JoinEngine};
use crate::error::Result;
use crate::kernel::ScoringOptions;
use crate::mips::SketchMipsAdapter;
use crate::planner::Strategy;
use crate::problem::{JoinSpec, MatchPair};
use crate::symmetric::{SymmetricLshMips, SymmetricParams};
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use rand::Rng;

/// Builds the Section 4.1 asymmetric-LSH index over `data` and wraps it in an engine.
/// `scoring` selects the candidate-scoring kernel: `quantized=true` scores in `i8`
/// and rescores survivors exactly (identical results — see [`crate::kernel`]); the
/// default options keep the exact `f64` path.
pub fn alsh_engine<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[DenseVector],
    spec: JoinSpec,
    params: AlshParams,
    config: EngineConfig,
    scoring: ScoringOptions,
) -> Result<JoinEngine<AlshMipsIndex>> {
    let mut index = AlshMipsIndex::build(rng, data.to_vec(), spec, params)?;
    index.set_scoring(scoring)?;
    Ok(JoinEngine::with_config(index, config))
}

/// Builds the Section 4.2 symmetric-LSH index over `data` and wraps it in an engine,
/// with the same `scoring` selection as [`alsh_engine`].
pub fn symmetric_engine<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[DenseVector],
    spec: JoinSpec,
    params: SymmetricParams,
    config: EngineConfig,
    scoring: ScoringOptions,
) -> Result<JoinEngine<SymmetricLshMips>> {
    let mut index = SymmetricLshMips::build(rng, data.to_vec(), spec, params)?;
    index.set_scoring(scoring)?;
    Ok(JoinEngine::with_config(index, config))
}

/// Builds the Section 4.3 sketch structure over `data` and wraps it in an engine.
/// The spec's variant is ignored — the sketch structure is inherently unsigned (it
/// estimates `‖Aq‖_∞`).
pub fn sketch_engine<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[DenseVector],
    spec: JoinSpec,
    config: MaxIpConfig,
    leaf_size: usize,
    engine_config: EngineConfig,
) -> Result<JoinEngine<SketchMipsAdapter>> {
    let index = SketchMipsAdapter::build(rng, data.to_vec(), spec, config, leaf_size)?;
    Ok(JoinEngine::with_config(index, engine_config))
}

/// One concrete strategy with every parameter it runs with: the single dispatch
/// behind both the facade's fixed strategies and [`crate::planner::JoinPlan::execute`].
pub(crate) struct Dispatch {
    pub(crate) strategy: Strategy,
    pub(crate) spec: JoinSpec,
    pub(crate) alsh: AlshParams,
    pub(crate) symmetric: SymmetricParams,
    pub(crate) sketch: MaxIpConfig,
    pub(crate) sketch_leaf_size: usize,
    pub(crate) engine: EngineConfig,
    pub(crate) scoring: ScoringOptions,
}

impl Dispatch {
    /// Builds the strategy's index over `data` and joins `queries` against it. The
    /// index constructors draw from `rng` (brute force draws nothing), so the same
    /// RNG state gives bit-identical pairs.
    pub(crate) fn run<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        data: &[DenseVector],
        queries: &[DenseVector],
    ) -> Result<Vec<MatchPair>> {
        match self.strategy {
            Strategy::BruteForce => JoinEngine::with_config(
                BorrowedBruteIndex::with_options(data, self.spec, self.scoring)?,
                self.engine,
            )
            .run(queries),
            Strategy::Alsh => {
                alsh_engine(rng, data, self.spec, self.alsh, self.engine, self.scoring)?
                    .run(queries)
            }
            Strategy::Symmetric => symmetric_engine(
                rng,
                data,
                self.spec,
                self.symmetric,
                self.engine,
                self.scoring,
            )?
            .run(queries),
            Strategy::Sketch => sketch_engine(
                rng,
                data,
                self.spec,
                self.sketch,
                self.sketch_leaf_size,
                self.engine,
            )?
            .run(queries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_join;
    use crate::problem::{evaluate_join, JoinVariant};
    use ips_datagen::planted::{PlantedConfig, PlantedInstance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x10B5)
    }

    fn run_alsh(
        rng: &mut StdRng,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
    ) -> Vec<MatchPair> {
        alsh_engine(
            rng,
            data,
            spec,
            AlshParams::default(),
            EngineConfig::default(),
            ScoringOptions::default(),
        )
        .unwrap()
        .run(queries)
        .unwrap()
    }

    fn run_sketch(
        rng: &mut StdRng,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
        config: MaxIpConfig,
    ) -> Vec<MatchPair> {
        sketch_engine(rng, data, spec, config, 8, EngineConfig::default())
            .unwrap()
            .run(queries)
            .unwrap()
    }

    fn planted(rng: &mut StdRng) -> PlantedInstance {
        PlantedInstance::generate(
            rng,
            PlantedConfig {
                data: 250,
                queries: 30,
                dim: 24,
                background_scale: 0.05,
                planted_ip: 0.85,
                planted: 6,
            },
        )
        .unwrap()
    }

    #[test]
    fn alsh_join_recovers_planted_pairs() {
        let mut r = rng();
        let inst = planted(&mut r);
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        let pairs = run_alsh(&mut r, inst.data(), inst.queries(), spec);
        let reported: Vec<(usize, usize)> = pairs
            .iter()
            .map(|p| (p.data_index, p.query_index))
            .collect();
        let recall = inst.recall(&reported, spec.relaxed_threshold());
        assert!(recall >= 0.8, "ALSH join recall too low: {recall}");
        let (_, valid) = evaluate_join(inst.data(), inst.queries(), &spec, &pairs).unwrap();
        assert!(valid, "ALSH join reported an invalid pair");
    }

    #[test]
    fn sketch_join_recovers_planted_pairs() {
        let mut r = rng();
        let inst = planted(&mut r);
        let spec = JoinSpec::new(0.8, 0.5, JoinVariant::Unsigned).unwrap();
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 11,
            rows: None,
        };
        let pairs = run_sketch(&mut r, inst.data(), inst.queries(), spec, config);
        let reported: Vec<(usize, usize)> = pairs
            .iter()
            .map(|p| (p.data_index, p.query_index))
            .collect();
        let recall = inst.recall(&reported, spec.relaxed_threshold());
        assert!(recall >= 0.8, "sketch join recall too low: {recall}");
        let (_, valid) = evaluate_join(inst.data(), inst.queries(), &spec, &pairs).unwrap();
        assert!(valid, "sketch join reported an invalid pair");
    }

    #[test]
    fn joins_agree_with_brute_force_on_which_queries_have_partners() {
        let mut r = rng();
        let inst = planted(&mut r);
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        let exact = brute_force_join(inst.data(), inst.queries(), &spec).unwrap();
        let exact_queries: std::collections::HashSet<usize> =
            exact.iter().map(|p| p.query_index).collect();
        // Every planted query is found by brute force.
        for &(_, qi) in inst.planted_pairs() {
            assert!(exact_queries.contains(&qi));
        }
        // The approximate joins may only report queries among those (no false answers
        // above cs exist for other queries in this instance because the background is
        // far below cs).
        let pairs = run_alsh(&mut r, inst.data(), inst.queries(), spec);
        for p in &pairs {
            assert!(exact_queries.contains(&p.query_index));
        }
    }

    #[test]
    fn empty_query_set_joins_to_empty_everywhere() {
        let mut r = rng();
        let inst = planted(&mut r);
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Unsigned).unwrap();
        let index = crate::mips::BruteForceMipsIndex::new(inst.data().to_vec(), spec);
        assert!(JoinEngine::new(&index).run(&[]).unwrap().is_empty());
        assert!(run_alsh(&mut r, inst.data(), &[], spec).is_empty());
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 5,
            rows: None,
        };
        assert!(run_sketch(&mut r, inst.data(), &[], spec, config).is_empty());
    }

    #[test]
    fn symmetric_join_runs_on_shared_domain() {
        let mut r = rng();
        // Small instance: symmetric construction is heavier due to the tag dimension.
        let inst = PlantedInstance::generate(
            &mut r,
            PlantedConfig {
                data: 60,
                queries: 8,
                dim: 12,
                background_scale: 0.05,
                planted_ip: 0.9,
                planted: 3,
            },
        )
        .unwrap();
        let spec = JoinSpec::new(0.8, 0.5, JoinVariant::Signed).unwrap();
        let pairs = symmetric_engine(
            &mut r,
            inst.data(),
            spec,
            SymmetricParams::default(),
            EngineConfig::default(),
            ScoringOptions::default(),
        )
        .unwrap()
        .run(inst.queries())
        .unwrap();
        let reported: Vec<(usize, usize)> = pairs
            .iter()
            .map(|p| (p.data_index, p.query_index))
            .collect();
        let recall = inst.recall(&reported, spec.relaxed_threshold());
        assert!(
            recall >= 2.0 / 3.0,
            "symmetric join recall too low: {recall}"
        );
        let (_, valid) = evaluate_join(inst.data(), inst.queries(), &spec, &pairs).unwrap();
        assert!(valid);
    }
}
