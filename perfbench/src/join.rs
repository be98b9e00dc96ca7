//! `join-needles`: the batch join over planted needles, through
//! `Join::data(..)` with the brute, ALSH and auto strategies in every pass.

use crate::proc::{C, S};
use crate::report::{median, percentile, Outcome, Tracer};
use crate::{dot, Ctx, Inject, Inputs, SETUPS};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_core::{Join, Strategy};
use ips_linalg::DenseVector;
use std::time::Instant;

/// Fewest passes a run makes, so each join time is a median of at least three.
const MIN_PASSES: usize = 3;

/// The exact answer of one query: the data index of the largest inner
/// product (first on ties) and that product, when it clears `s`.
fn exact_answers(data: &[DenseVector], queries: &[DenseVector]) -> Vec<Option<(usize, f64)>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = queries.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| {
                scope.spawn(move || {
                    qs.iter()
                        .map(|q| {
                            let mut best = (0usize, f64::NEG_INFINITY);
                            for (i, p) in data.iter().enumerate() {
                                let ip = dot(p, q);
                                if ip > best.1 {
                                    best = (i, ip);
                                }
                            }
                            (best.1 >= S).then_some(best)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("exact-answer worker panicked"))
            .collect()
    })
}

/// Checks a brute-force join against the exact answer: the same queries
/// answered, each by a data vector whose product ties the maximum. Queries
/// whose maximum lies within rounding of `s` may go either way.
fn check_exact(
    data: &[DenseVector],
    queries: &[DenseVector],
    exact: &[Option<(usize, f64)>],
    pairs: &[MatchPair],
) -> Option<String> {
    let mut got: Vec<Option<&MatchPair>> = vec![None; queries.len()];
    for p in pairs {
        match got.get_mut(p.query_index) {
            Some(slot @ None) => *slot = Some(p),
            Some(Some(_)) => return Some(format!("query {} answered twice", p.query_index)),
            None => return Some(format!("query index {} out of range", p.query_index)),
        }
    }
    for (j, (want, have)) in exact.iter().zip(&got).enumerate() {
        let borderline = |ip: f64| (ip - S).abs() < 1e-9;
        match (want, have) {
            (None, None) => {}
            (Some((_, ip)), None) if borderline(*ip) => {}
            (Some((d, ip)), None) => {
                return Some(format!(
                    "query {j}: exact partner {d} (ip {ip}) not reported"
                ))
            }
            (None, Some(p)) => {
                let ip = data.get(p.data_index).map(|v| dot(v, &queries[j]));
                if !ip.is_some_and(borderline) {
                    return Some(format!(
                        "query {j}: reported {} but no partner clears s",
                        p.data_index
                    ));
                }
            }
            (Some((_, best)), Some(p)) => {
                let Some(v) = data.get(p.data_index) else {
                    return Some(format!(
                        "query {j}: data index {} out of range",
                        p.data_index
                    ));
                };
                let ip = dot(v, &queries[j]);
                if (ip - best).abs() > 1e-12 || (p.inner_product - ip).abs() > 1e-9 {
                    return Some(format!(
                        "query {j}: reported {} (ip {}) but the maximum is {best}",
                        p.data_index, p.inner_product
                    ));
                }
            }
        }
    }
    None
}

/// Checks that every reported pair clears `cs` and carries its true product.
pub fn check_valid(
    data: &[DenseVector],
    queries: &[DenseVector],
    pairs: &[MatchPair],
) -> Option<String> {
    let cs = C * S;
    for p in pairs {
        let (Some(v), Some(q)) = (data.get(p.data_index), queries.get(p.query_index)) else {
            return Some(format!(
                "pair ({}, {}) out of range",
                p.query_index, p.data_index
            ));
        };
        let ip = dot(v, q);
        if ip < cs - 1e-9 || (ip - p.inner_product).abs() > 1e-9 {
            return Some(format!(
                "pair (query {}, data {}) has ip {ip}, reported {}, cs = {cs}",
                p.query_index, p.data_index, p.inner_product
            ));
        }
    }
    None
}

/// Replaces the first pair's partner by a data vector below `cs`.
fn corrupt(data: &[DenseVector], queries: &[DenseVector], pairs: &mut [MatchPair]) {
    if let Some(p) = pairs.first_mut() {
        let q = &queries[p.query_index];
        if let Some(d) = (0..data.len()).find(|&d| dot(&data[d], q) < C * S) {
            p.data_index = d;
        }
    }
}

pub fn run(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let generated = Inputs::generate(ctx);
        setups.push(start.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");
    let (data, queries) = (&inputs.data, &inputs.queries);
    let spec = JoinSpec::new(S, C, JoinVariant::Signed).expect("valid spec");
    let exact = exact_answers(data, queries);
    println!(
        "join-needles: n={} m={} dim={} planted={} s={S} c={C}; {} queries have a partner above s",
        data.len(),
        queries.len(),
        ctx.sizes().dim,
        ctx.sizes().planted,
        exact.iter().flatten().count()
    );

    let strategies = [Strategy::Brute, Strategy::Alsh, Strategy::Auto];
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut recall = f64::NAN;
    let mut auto_choice = String::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let pass_start = Instant::now();
        let pass_span = tracer
            .as_deref_mut()
            .map(|t| t.record("join.pass", 0, pass as u64, pass_start, pass_start));
        for (k, &strategy) in strategies.iter().enumerate() {
            let t0 = Instant::now();
            let result = Join::data(data)
                .queries(queries)
                .threshold(S)
                .approximation(C)
                .strategy(strategy)
                .seed(ctx.seed)
                .run();
            let t1 = Instant::now();
            if let (Some(t), Some(parent)) = (tracer.as_deref_mut(), pass_span) {
                t.record(strategy_span(strategy), parent, pass as u64, t0, t1);
            }
            let mut report = match result {
                Ok(r) => r,
                Err(e) => {
                    out.op(Some(format!("{} join failed: {e}", strategy.name())));
                    continue;
                }
            };
            walls[k].push((t1 - t0).as_secs_f64());
            if strategy == Strategy::Alsh && pass == 0 && ctx.inject == Some(Inject::Pair) {
                corrupt(data, queries, &mut report.matches);
            }
            let verdict = match strategy {
                Strategy::Brute => check_exact(data, queries, &exact, &report.matches),
                _ => check_valid(data, queries, &report.matches),
            };
            out.op(verdict.map(|e| format!("{} join: {e}", strategy.name())));
            if strategy == Strategy::Alsh && pass == 0 {
                match evaluate_join(data, queries, &spec, &report.matches) {
                    Ok((r, true)) => recall = r,
                    Ok((_, false)) => out.fail("evaluate_join: an ALSH pair is below cs".into()),
                    Err(e) => out.fail(format!("evaluate_join: {e}")),
                }
            }
            if strategy == Strategy::Auto {
                auto_choice = report.strategy.name().to_string();
            }
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), pass_span) {
            let end = t.ns(Instant::now());
            t.spans[id as usize - 1].end_ns = end;
        }
        pass += 1;
    }

    let passes = format!("median of {pass} passes");
    let names = ["join_brute_s", "join_alsh_s", "join_auto_s"];
    for (k, w) in walls.iter().enumerate() {
        let chose = if k == 2 {
            format!("; planner chose {auto_choice}")
        } else {
            String::new()
        };
        out.show("e2e", names[k], median(w), "s", &format!("{passes}{chose}"));
    }
    // The gated figures are first quartiles over the passes: on a VM with
    // steal every disturbance only adds time, and over ten runs the medians
    // spread 0.10-0.15 of their value.
    let [brute, alsh, auto] = walls.map(|w| percentile(&w, 25.0));
    out.show(
        "e2e",
        "recall_alsh",
        recall,
        "ratio",
        "evaluate_join against the exact answer",
    );
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        "median of 5 input generations",
    );
    out.metric("primary_ms", alsh * 1e3, "ms", "= ALSH join, p25 of passes");
    out.metric(
        "secondary_ms",
        brute * 1e3,
        "ms",
        "= brute join, p25 of passes",
    );
    out.metric(
        "tertiary_ms",
        auto * 1e3,
        "ms",
        "= auto join, p25 of passes",
    );
    out
}

fn strategy_span(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Brute => "join.brute",
        Strategy::Alsh => "join.alsh",
        _ => "join.auto",
    }
}
