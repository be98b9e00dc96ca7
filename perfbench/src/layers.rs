//! The traced layer replay: a workload's inputs fed through each crate's
//! public entry points, called from outside, one span per call.
//!
//! Calls are made one layer at a time, so spans of one request do not nest
//! in time. Each span's parent is the call one layer up for the same
//! request, and a layer's self time is its span minus its child span. A
//! request makes two chains of calls:
//!
//! * `net.rtt` → `cli.session.coalesced` → `store.coalesce`: the TCP round
//!   trip, the same line through `serve_session_with` with the default
//!   coalescer (as `ips serve listen=` runs it), and `Coalescer::query`;
//! * `cli.session` → `store.query` → `core.search` → `lsh.gather`: the line
//!   through a session without the coalescer, then one layer down at a time.

use crate::gen::{open_loop, poisson_dues, Conn, Req};
use crate::proc::{Server, WorkDir, C, S};
use crate::report::{median, Outcome, Tracer};
use crate::{csv, dot, Ctx, Inputs, Workload};
use ips_cli::serve::{serve_session_with, SessionOptions};
use ips_core::asymmetric::{AlshMipsIndex, AlshParams};
use ips_core::brute::BorrowedBruteIndex;
use ips_core::planner::{CostModel, JoinPlanner, PlannerConfig};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::{EngineConfig, Join, JoinEngine, MipsIndex, Strategy};
use ips_lsh::simple_alsh::SimpleAlshFamily;
use ips_lsh::table::{IndexParams, LshIndex};
use ips_obs::Stage;
use ips_store::{CoalesceConfig, Coalescer, Index, ServingConfig, ShardedServingIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-layer metrics every traced run reports.
pub const PER_LAYER_METRICS: [&str; 26] = [
    "lsh.build_s",
    "lsh.hash_evals",
    "lsh.ns_per_hash_eval",
    "lsh.gather_us",
    "lsh.candidates_per_query",
    "lsh.candidate_yield",
    "core.alsh_build_s",
    "core.search_us",
    "core.rescore_us",
    "core.brute_join_s",
    "core.brute_gflops",
    "core.plan_ms",
    "core.plan_regret",
    "store.build_s",
    "store.save_ms",
    "store.open_ms",
    "store.query_us",
    "store.coalesce_wait_us",
    "store.vectors_per_pass",
    "store.insert_us",
    "store.delete_us",
    "store.rebuilds",
    "store.rebuild_s",
    "cli.session_us",
    "cli.net_us",
    "bench.gen_late_us",
];

/// Queries replayed one at a time through the request chain.
fn chain_queries(ctx: &Ctx) -> usize {
    if ctx.smoke {
        60
    } else {
        600
    }
}

fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u64,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, u64, f64) {
    let t0 = Instant::now();
    let value = f();
    let t1 = Instant::now();
    let id = tracer.record(name, parent, request, t0, t1);
    (value, id, (t1 - t0).as_secs_f64())
}

pub fn replay(ctx: &Ctx, inputs: &Inputs, tracer: &mut Tracer, e2e_late_us: &[f64]) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = replay_inner(ctx, inputs, tracer, e2e_late_us, &mut out) {
        out.fail(format!("layer replay aborted: {e}"));
    }
    out
}

fn replay_inner(
    ctx: &Ctx,
    inputs: &Inputs,
    tracer: &mut Tracer,
    e2e_late_us: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let (data, queries) = (&inputs.data, &inputs.queries);
    let (n, m, dim) = (data.len(), queries.len(), ctx.sizes().dim);
    let spec = JoinSpec::new(S, C, JoinVariant::Signed).expect("valid spec");
    let params = AlshParams::default();
    let root = {
        let now = Instant::now();
        tracer.record("replay", 0, 0, now, now)
    };

    // ips-lsh: the ALSH family's table build on its own.
    let family = SimpleAlshFamily::new(dim, params.query_radius, 1).map_err(|e| e.to_string())?;
    let index_params = IndexParams {
        k: params.bits_per_table,
        l: params.tables,
    };
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let (built, _, lsh_build_s) = timed(tracer, "lsh.build", root, 0, || {
        LshIndex::build(&family, index_params, data, &mut rng)
    });
    built.map_err(|e| format!("LshIndex::build: {e}"))?;
    let hash_evals = (n * params.tables * params.bits_per_table) as f64;
    out.metric(
        "lsh.build_s",
        lsh_build_s,
        "s",
        "LshIndex::build, ALSH family",
    );
    out.metric("lsh.hash_evals", hash_evals, "count", "n x tables x bits");
    out.metric(
        "lsh.ns_per_hash_eval",
        lsh_build_s * 1e9 / hash_evals,
        "ns",
        "",
    );

    // ips-core: the ALSH index build (embedding and validation on top).
    let owned = data.clone();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let (alsh, _, alsh_build_s) = timed(tracer, "core.alsh_build", root, 0, || {
        AlshMipsIndex::build(&mut rng, owned, spec, params)
    });
    let alsh = alsh.map_err(|e| format!("AlshMipsIndex::build: {e}"))?;
    out.metric(
        "core.alsh_build_s",
        alsh_build_s,
        "s",
        "AlshMipsIndex::build",
    );

    // ips-store: build, save, open.
    let work = WorkDir::new(&ctx.out, "layers").map_err(|e| e.to_string())?;
    let snap = work.path("replay.snap");
    let owned = data.clone();
    let (built, _, store_build_s) = timed(tracer, "store.build", root, 0, || {
        Index::build(owned)
            .spec(spec)
            .strategy(Strategy::Alsh)
            .seed(ctx.seed)
            .serve_sharded()
    });
    let built = built.map_err(|e| format!("store build: {e}"))?;
    let (saved, _, save_s) = timed(tracer, "store.save", root, 0, || built.save(&snap));
    saved.map_err(|e| format!("save: {e}"))?;
    drop(built);
    let mut open_ms = Vec::new();
    let mut served = None;
    for _ in 0..3 {
        let (opened, _, s) = timed(tracer, "store.open", root, 0, || {
            ShardedServingIndex::open(&snap, ServingConfig::default())
        });
        served = Some(opened.map_err(|e| format!("open: {e}"))?);
        open_ms.push(s * 1e3);
    }
    let served = Arc::new(served.expect("opened three times"));
    out.metric(
        "store.build_s",
        store_build_s,
        "s",
        "Index::build(..).serve_sharded(), ALSH",
    );
    out.metric("store.save_ms", save_s * 1e3, "ms", "");
    out.metric("store.open_ms", median(&open_ms), "ms", "median of 3");

    // The request chain, from the network down to the bucket gather.
    let k = chain_queries(ctx).min(m);
    let lines: Vec<String> = queries[..k]
        .iter()
        .map(|q| format!("query {}", csv(q)))
        .collect();
    let (server, _) = Server::start(&ctx.ips, &snap)?;
    let mut conn = vec![Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?];
    // A low rate on one connection, so round trips do not queue.
    let rate = 400.0;
    let mut rng = ctx.rng(30);
    let dues = poisson_dues(&mut rng, rate, 1.2 * k as f64 / rate);
    let reqs: Vec<Req> = dues
        .iter()
        .take(k)
        .enumerate()
        .map(|(j, &due_ns)| Req {
            conn: 0,
            due_ns,
            line: lines[j].clone(),
        })
        .collect();
    let done = open_loop(&mut conn, &reqs, Duration::from_secs(30)).map_err(|e| e.to_string())?;
    drop(conn);
    server.shutdown()?;
    let base = tracer.ns(Instant::now());
    let mut rtt_span = vec![0u64; k];
    for (j, d) in done.iter().enumerate() {
        let Some(recv) = d.recv_ns else {
            out.fail(format!("replay query {j}: no reply"));
            continue;
        };
        rtt_span[j] =
            tracer.record_ns("net.rtt", root, j as u64 + 1, base + d.sent_ns, base + recv);
    }
    let coalescer = Coalescer::new(Arc::clone(&served), CoalesceConfig::default());
    let coalesced = SessionOptions {
        coalescer: Some(&coalescer),
        ..SessionOptions::default()
    };
    let direct = SessionOptions::default();
    let mut session = |tracer: &mut Tracer,
                       j: usize,
                       name: &'static str,
                       parent: u64,
                       options: &SessionOptions<'_>| {
        let input = format!("{}\n", lines[j]);
        let mut output = Vec::new();
        let (r, id, _) = timed(tracer, name, parent, j as u64 + 1, || {
            serve_session_with(&served, options, input.as_bytes(), &mut output)
        });
        let reply = String::from_utf8_lossy(&output)
            .lines()
            .nth(1)
            .unwrap_or("")
            .to_string();
        let tcp = &done[j].reply;
        out.op(match r {
            Err(e) => Some(format!("replay query {j}: session: {e}")),
            Ok(_) if reply != *tcp => Some(format!(
                "replay query {j}: session `{reply}` != tcp `{tcp}`"
            )),
            Ok(_) => None,
        });
        id
    };
    let mut coalesced_span = vec![0u64; k];
    for j in 0..reqs.len() {
        coalesced_span[j] = session(tracer, j, "cli.session.coalesced", rtt_span[j], &coalesced);
    }
    for j in 0..reqs.len() {
        let (r, _, _) = timed(
            tracer,
            "store.coalesce",
            coalesced_span[j],
            j as u64 + 1,
            || coalescer.query(vec![queries[j].clone()]),
        );
        r.map_err(|e| format!("coalescer: {e}"))?;
    }
    // The direct chain, request by request. The session and the store call
    // each run once untimed first, so both are timed in the same cache
    // state and their small difference is not drowned by cache misses. The
    // gather is warmed before `search` is timed, so `search` minus the
    // (warm) gather is the rescoring, over candidate vectors this request
    // has not touched yet.
    let (mut candidates, mut useful) = (0usize, 0usize);
    for j in 0..reqs.len() {
        let (request, q) = (j as u64 + 1, &queries[j]);
        let one = [q.clone()];
        let warm = format!("{}\n", lines[j]);
        serve_session_with(&served, &direct, warm.as_bytes(), &mut Vec::new())
            .map_err(|e| format!("session: {e}"))?;
        let session_id = session(tracer, j, "cli.session", root, &direct);
        served
            .query(&one)
            .map_err(|e| format!("store query: {e}"))?;
        let (r, store_id, _) = timed(tracer, "store.query", session_id, request, || {
            served.query(&one)
        });
        r.map_err(|e| format!("store query: {e}"))?;
        let gather = || alsh.lsh_index().query_candidates(q);
        gather().map_err(|e| format!("gather: {e}"))?;
        let (r, search_id, _) = timed(tracer, "core.search", store_id, request, || alsh.search(q));
        r.map_err(|e| format!("search: {e}"))?;
        let (r, _, _) = timed(tracer, "lsh.gather", search_id, request, gather);
        let cands = r.map_err(|e| format!("gather: {e}"))?;
        candidates += cands.len();
        useful += cands.iter().filter(|&&c| dot(&data[c], q) >= C * S).count();
    }
    let asked = reqs.len().max(1) as f64;
    out.metric(
        "lsh.gather_us",
        tracer.median_us("lsh.gather"),
        "us",
        "LshIndex::query_candidates, median",
    );
    out.metric(
        "lsh.candidates_per_query",
        candidates as f64 / asked,
        "count",
        "mean",
    );
    out.metric(
        "lsh.candidate_yield",
        useful as f64 / candidates.max(1) as f64,
        "ratio",
        "candidates clearing cs / candidates",
    );
    out.metric(
        "core.search_us",
        tracer.median_us("core.search"),
        "us",
        "MipsIndex::search, median",
    );
    out.metric(
        "core.rescore_us",
        tracer.median_self_us("core.search"),
        "us",
        "search minus gather, median",
    );
    out.metric(
        "store.query_us",
        tracer.median_us("store.query"),
        "us",
        "ShardedServingIndex::query, one vector",
    );
    out.metric(
        "store.coalesce_wait_us",
        tracer.median_us("store.coalesce") - tracer.median_us("store.query"),
        "us",
        "Coalescer::query minus store.query_us, one caller",
    );
    out.metric(
        "cli.session_us",
        tracer.median_self_us("cli.session"),
        "us",
        "serve_session_with minus store.query",
    );
    out.metric(
        "cli.net_us",
        tracer.median_self_us("net.rtt"),
        "us",
        "TCP round trip minus the coalesced session",
    );

    // Batching: one closed-loop caller per CPU on the coalescer.
    let callers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(2, 4);
    let per_caller = if ctx.smoke { 50 } else { 300 };
    let passes_before = served.telemetry().stage(Stage::CoalesceWait).count();
    let failures: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let coalescer = &coalescer;
                scope.spawn(move || {
                    (0..per_caller)
                        .filter(|i| {
                            coalescer
                                .query(vec![queries[(c * per_caller + i) % m].clone()])
                                .is_err()
                        })
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller panicked"))
            .sum()
    });
    if failures > 0 {
        out.fail(format!("{failures} coalesced queries failed"));
    }
    let passes = served.telemetry().stage(Stage::CoalesceWait).count() - passes_before;
    out.metric(
        "store.vectors_per_pass",
        (callers * per_caller) as f64 / passes.max(1) as f64,
        "count",
        &format!("{callers} closed-loop callers"),
    );
    drop(coalescer);

    // Writes: alternate inserts of fresh vectors and deletes of the oldest id
    // until the shard has rebuilt twice.
    let rebuilds_before = served.stats().rebuilds;
    let (mut insert_s, mut delete_s, mut rebuild_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut w = 0usize;
    while rebuild_s.len() < 2 {
        let Some(v) = inputs.fresh.get(w) else {
            return Err(format!(
                "{} fresh vectors ran out before two rebuilds",
                inputs.fresh.len()
            ));
        };
        let (r, _, s) = timed(tracer, "store.insert", root, w as u64, || {
            served.insert(v.clone())
        });
        r.map_err(|e| format!("insert: {e}"))?;
        insert_s.push(s);
        let before = served.stats().rebuilds;
        let t0 = Instant::now();
        let r = served.delete(w as u64);
        let t1 = Instant::now();
        r.map_err(|e| format!("delete: {e}"))?;
        if served.stats().rebuilds > before {
            tracer.record("store.rebuild", root, w as u64, t0, t1);
            rebuild_s.push((t1 - t0).as_secs_f64());
        } else {
            tracer.record("store.delete", root, w as u64, t0, t1);
            delete_s.push((t1 - t0).as_secs_f64());
        }
        w += 1;
    }
    out.metric("store.insert_us", median(&insert_s) * 1e6, "us", "median");
    out.metric(
        "store.delete_us",
        median(&delete_s) * 1e6,
        "us",
        "median, deletes that did not rebuild",
    );
    out.metric(
        "store.rebuilds",
        (served.stats().rebuilds - rebuilds_before) as f64,
        "count",
        &format!("over {w} insert/delete pairs"),
    );
    out.metric(
        "store.rebuild_s",
        median(&rebuild_s),
        "s",
        "median delete that rebuilt",
    );

    // ips-core joins: the brute-force engine, the planner, and its regret.
    let (joined, _, brute_s) = timed(tracer, "core.brute_join", root, 0, || {
        JoinEngine::with_config(BorrowedBruteIndex::new(data, spec), EngineConfig::default())
            .run(queries)
    });
    joined.map_err(|e| format!("brute join: {e}"))?;
    out.metric(
        "core.brute_join_s",
        brute_s,
        "s",
        "JoinEngine over BorrowedBruteIndex",
    );
    out.metric(
        "core.brute_gflops",
        2.0 * (n * m * dim) as f64 / brute_s / 1e9,
        "GFLOP/s",
        "2nmd / time",
    );
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let planner = JoinPlanner::new(PlannerConfig::default(), CostModel::default());
    let (plan, _, plan_s) = timed(tracer, "core.plan", root, 0, || {
        planner.plan(&mut rng, data, queries, spec)
    });
    plan.map_err(|e| format!("plan: {e}"))?;
    out.metric(
        "core.plan_ms",
        plan_s * 1e3,
        "ms",
        "JoinPlanner::plan incl. sampling",
    );
    let mut wall = [0.0; 3];
    for (i, strategy) in [Strategy::Brute, Strategy::Alsh, Strategy::Auto]
        .into_iter()
        .enumerate()
    {
        let (r, _, s) = timed(tracer, "core.join", root, i as u64, || {
            Join::data(data)
                .queries(queries)
                .threshold(S)
                .approximation(C)
                .strategy(strategy)
                .seed(ctx.seed)
                .run()
        });
        r.map_err(|e| format!("{} join: {e}", strategy.name()))?;
        wall[i] = s;
    }
    out.metric(
        "core.plan_regret",
        wall[2] / wall[0].min(wall[1]),
        "ratio",
        "auto join / faster of brute and ALSH",
    );

    let late: Vec<f64> = e2e_late_us
        .iter()
        .copied()
        .chain(done.iter().map(|d| d.late_us()))
        .collect();
    let note = if ctx.workload == Workload::JoinNeedles {
        "replay's open loop"
    } else {
        "traced run's open loops and the replay's"
    };
    out.metric(
        "bench.gen_late_us",
        median(&late),
        "us",
        &format!("median generator lateness, {note}"),
    );
    Ok(())
}
