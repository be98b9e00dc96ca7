//! `serve-read` and `serve-churn`: `ips serve` over TCP, driven by the
//! open-loop generator in [`crate::gen`].

use crate::gen::{closed_loop, open_loop, poisson_dues, Conn, Done, Req};
use crate::proc::{self, Server, WorkDir, C, S};
use crate::report::{median, percentile, Outcome, Tracer};
use crate::{csv, dot, Ctx, Inject, Inputs, SETUPS};
use ips_cli::serve::{serve_session_with, SessionOptions};
use ips_linalg::DenseVector;
use ips_store::{ServingConfig, ShardedServingIndex};
use rand::Rng;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Offered query rates of serve-read's two open-loop phases, per second.
/// Each connection's session answers its requests one at a time, and with
/// the default 200 us coalescing window one request measured ~0.9 ms on a
/// 2-vCPU VM with 15-30% steal, so two connections saturate near 2000/s, and
/// at 1000/s the median moved between 0.67 and 1.27 ms from run to run;
/// these rates stay below that.
pub const READ_RATES: [f64; 2] = [400.0, 800.0];
/// serve-churn's offered query rate (one connection, kept below the knee for
/// the same reason) and write rate, per second.
pub const CHURN_QUERY_RATE: f64 = 400.0;
pub const CHURN_WRITE_RATE: f64 = 500.0;
/// The generator's own validity bound: a run whose median lateness exceeds
/// this did not offer the load it claims.
pub const LATE_BOUND_US: f64 = 500.0;
/// Where in the churn phase its first rebuild falls due, as a share of the
/// phase; priming writes before the phase bring the shard that close. With
/// a 30 s phase and a 10 s rebuild cycle, every run sees exactly three.
const FIRST_REBUILD_AT: f64 = 0.25;

/// Connections of the closed-loop peak phase: one per CPU, within the four
/// sessions `ips serve` admits by default.
fn peak_conns() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 4)
}

fn write_csv(path: &Path, vectors: &[DenseVector]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for v in vectors {
        writeln!(f, "{}", csv(v))?;
    }
    f.flush()
}

fn query_line(q: &DenseVector) -> String {
    format!("query {}", csv(q))
}

/// Reads `key=value` out of a `stats` reply.
fn stat(reply: &str, key: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Compares the server's `stats` counters with what the generator sent.
fn check_stats(out: &mut Outcome, reply: &str, expected: &[(&str, u64)], inject: bool) {
    for (k, (key, want)) in expected.iter().enumerate() {
        let want = want + u64::from(inject && k == 0);
        let got = stat(reply, key);
        out.op((got != Some(want)).then(|| format!("stats {key}={got:?}, generator sent {want}")));
    }
}

/// Starts `SETUPS` servers (running `before` ahead of each) and keeps the
/// last; the others are shut down. Returns it with the median set-up time.
fn start_servers(
    ctx: &Ctx,
    snapshot: &Path,
    mut before: impl FnMut() -> Result<Duration, String>,
) -> Result<(Server, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let pre = before()?;
        let (server, t) = Server::start(&ctx.ips, snapshot)?;
        times.push((pre + t).as_secs_f64());
        if let Some(old) = kept.replace(server) {
            Server::shutdown(old)?;
        }
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Windows the closed-loop peak phase is cut into.
const PEAK_WINDOWS: usize = 12;

/// Median completion rate over `windows` equal windows of `seconds`.
fn window_rate(done: &[Done], seconds: f64, windows: usize) -> f64 {
    let width = seconds / windows as f64;
    let mut counts = vec![0usize; windows];
    for d in done {
        if let Some(r) = d.recv_ns {
            let w = (r as f64 / 1e9 / width) as usize;
            if w < windows {
                counts[w] += 1;
            }
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

fn latencies(done: &[Done]) -> Vec<f64> {
    done.iter().filter_map(Done::latency_us).collect()
}

/// Records a phase span and one span per request, from due to reply.
fn trace_requests(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    phase: &'static str,
    base: Instant,
    done: &[Done],
) {
    if let Some(t) = tracer.as_deref_mut() {
        let off = t.ns(base);
        let end = done.iter().filter_map(|d| d.recv_ns).max().unwrap_or(0);
        let phase_span = t.record_ns(phase, 0, 0, off, off + end);
        for (k, d) in done.iter().enumerate() {
            let recv = d.recv_ns.unwrap_or(d.sent_ns);
            t.record_ns(name, phase_span, k as u64, off + d.due_ns, off + recv);
        }
    }
}

fn lateness(out: &mut Outcome, done: &[Done], phase: &str) {
    let late: Vec<f64> = done.iter().map(Done::late_us).collect();
    let (p50, p99) = (median(&late), percentile(&late, 99.0));
    out.show(
        "info",
        &format!("gen_late_us.{phase}"),
        p50,
        "us",
        &format!("median; p99 {p99:.1} us"),
    );
    if p50 > LATE_BOUND_US {
        out.fail(format!(
            "generator ran late in {phase}: median {p50:.1} us > {LATE_BOUND_US} us; run invalid"
        ));
    }
    out.late_us.extend(late);
}

/// serve-read: an ALSH snapshot built untimed, then served by `ips serve`
/// and queried in an open loop at two offered rates and a closed-loop peak.
pub fn read(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = read_inner(ctx, &mut tracer, &mut out) {
        out.fail(format!("serve-read aborted: {e}"));
    }
    out
}

fn read_inner(
    ctx: &Ctx,
    tracer: &mut Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let inputs = Inputs::generate(ctx);
    let work = WorkDir::new(&ctx.out, "serve-read").map_err(|e| e.to_string())?;
    let (data_csv, snap) = (work.path("data.csv"), work.path("read.snap"));
    write_csv(&data_csv, &inputs.data).map_err(|e| e.to_string())?;
    proc::build(&ctx.ips, &data_csv, &snap, ctx.seed)?;
    let index_bytes = std::fs::metadata(&snap).map_err(|e| e.to_string())?.len();

    // The oracle: the same snapshot answered in-process, line by line.
    let lines: Vec<String> = inputs.queries.iter().map(query_line).collect();
    let oracle = {
        let index = ShardedServingIndex::open(&snap, ServingConfig::default())
            .map_err(|e| format!("oracle open: {e}"))?;
        let input = lines.join("\n") + "\n";
        let mut output = Vec::new();
        serve_session_with(
            &index,
            &SessionOptions::default(),
            input.as_bytes(),
            &mut output,
        )
        .map_err(|e| format!("oracle session: {e}"))?;
        let text = String::from_utf8(output).map_err(|e| e.to_string())?;
        let expected: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
        if expected.len() != lines.len() {
            return Err(format!(
                "oracle answered {} of {} queries",
                expected.len(),
                lines.len()
            ));
        }
        expected
    };
    for (j, reply) in oracle.iter().enumerate() {
        if let Some(e) = check_hit(reply, &inputs.queries[j], |id| inputs.data.get(id as usize)) {
            out.fail(format!("oracle reply to query {j}: {e}"));
        }
    }
    println!(
        "serve-read: n={} pool={} dim={} snapshot {index_bytes} bytes; oracle hits {} of {}",
        inputs.data.len(),
        lines.len(),
        ctx.sizes().dim,
        oracle.iter().filter(|r| r.starts_with("hit")).count(),
        lines.len()
    );

    let (server, setup_s) = start_servers(ctx, &snap, || Ok(Duration::ZERO))?;
    let conns_n = peak_conns().max(2);
    let mut conns: Vec<Conn> = (0..conns_n)
        .map(|_| Conn::connect(server.addr))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;

    let mut rng = ctx.rng(10);
    let mut sent = 0u64;
    let mut p25 = [0.0; 2];
    for (r, &rate) in READ_RATES.iter().enumerate() {
        let phase = format!("r{rate}");
        let dues = poisson_dues(&mut rng, rate, 0.35 * ctx.seconds);
        let picks: Vec<usize> = dues.iter().map(|_| rng.gen_range(0..lines.len())).collect();
        let reqs: Vec<Req> = dues
            .iter()
            .zip(&picks)
            .enumerate()
            .map(|(k, (&due_ns, &j))| Req {
                conn: k % 2,
                due_ns,
                line: lines[j].clone(),
            })
            .collect();
        let base = Instant::now();
        let mut done = open_loop(&mut conns[..2], &reqs, Duration::from_secs(30))
            .map_err(|e| format!("{phase}: {e}"))?;
        if r == 0 && ctx.inject == Some(Inject::Reply) {
            if let Some(d) = done.first_mut() {
                d.reply.replace_range(0..1, "X");
            }
        }
        sent += done.len() as u64;
        check_replies(out, &done, &picks, &oracle, &phase);
        let span = ["phase.low_rate", "phase.high_rate"][r];
        trace_requests(tracer, "request.query", span, base, &done);
        lateness(out, &done, &phase);
        let lat = latencies(&done);
        p25[r] = percentile(&lat, 25.0);
        out.show(
            "e2e",
            &format!("query_p50_us.{phase}"),
            median(&lat),
            "us",
            &format!(
                "n={}; p25 {:.1} us; p99 {:.1} us, informational only",
                lat.len(),
                p25[r],
                percentile(&lat, 99.0)
            ),
        );
    }

    // Closed-loop peak: one request outstanding per connection. Its rate is
    // the median over short windows, so a burst of steal in one window does
    // not set it. The gated figure is the round trip's first quartile: over
    // ten runs the rate halved with hypervisor steal while it moved ~8%.
    let peak_s = 0.3 * ctx.seconds;
    let mut picks = Vec::new();
    let base = Instant::now();
    let done = closed_loop(
        &mut conns[..peak_conns()],
        |_| {
            let j = rng.gen_range(0..lines.len());
            picks.push(j);
            lines[j].clone()
        },
        Duration::from_secs_f64(peak_s),
    )
    .map_err(|e| format!("peak: {e}"))?;
    sent += done.len() as u64;
    check_replies(out, &done, &picks, &oracle, "peak");
    trace_requests(tracer, "request.query", "phase.peak", base, &done);
    let peak_qps = window_rate(&done, peak_s, PEAK_WINDOWS);
    let rtt: Vec<f64> = done
        .iter()
        .filter_map(|d| d.recv_ns.map(|r| r.saturating_sub(d.sent_ns) as f64 / 1e3))
        .collect();
    let peak_rtt_p25 = percentile(&rtt, 25.0);
    out.show(
        "e2e",
        "peak_qps",
        peak_qps,
        "1/s",
        &format!(
            "closed loop, {} connections, median over {PEAK_WINDOWS} windows",
            peak_conns()
        ),
    );

    let stats = conns[0].call("stats").map_err(|e| format!("stats: {e}"))?;
    check_stats(
        out,
        &stats,
        &[("queries", sent), ("connections", conns.len() as u64)],
        ctx.inject == Some(Inject::Stats),
    );
    drop(conns);
    server.shutdown()?;

    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.show(
        "e2e",
        "setup_s",
        setup_s,
        "s",
        "snapshot open to listening, median of 5",
    );
    out.show(
        "e2e",
        "index_bytes",
        index_bytes as f64,
        "bytes",
        "saved snapshot",
    );
    out.show(
        "e2e",
        "failed_ratio",
        ratio,
        "ratio",
        &format!("{} of {}", out.failed, out.attempted),
    );
    out.metric(
        "setup_s",
        setup_s,
        "s",
        "snapshot open to listening, median of 5",
    );
    out.metric(
        "primary_ms",
        p25[1] / 1e3,
        "ms",
        &format!("= query latency p25 at {}/s", READ_RATES[1]),
    );
    out.metric(
        "secondary_ms",
        p25[0] / 1e3,
        "ms",
        &format!("= query latency p25 at {}/s", READ_RATES[0]),
    );
    out.metric(
        "tertiary_ms",
        peak_rtt_p25 / 1e3,
        "ms",
        "= closed-loop round trip p25 at peak",
    );
    Ok(())
}

/// Checks every reply of a phase against the oracle, byte for byte.
fn check_replies(
    out: &mut Outcome,
    done: &[Done],
    picks: &[usize],
    oracle: &[String],
    phase: &str,
) {
    for (k, (d, &j)) in done.iter().zip(picks).enumerate() {
        let error = if d.recv_ns.is_none() {
            Some(format!("{phase} request {k}: no reply"))
        } else if d.reply != oracle[j] {
            Some(format!(
                "{phase} request {k}: reply `{}` != oracle `{}`",
                d.reply, oracle[j]
            ))
        } else {
            None
        };
        out.op(error);
    }
}

/// Checks a `hit <id> <ip>` / `miss` reply: a hit must clear `cs` and print
/// the inner product of the vector `vector(id)` returns.
fn check_hit<'a>(
    reply: &str,
    q: &DenseVector,
    vector: impl Fn(u64) -> Option<&'a DenseVector>,
) -> Option<String> {
    if reply == "miss" {
        return None;
    }
    let mut parts = reply.split_whitespace();
    let (Some("hit"), Some(id), Some(ip), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Some(format!("malformed reply `{reply}`"));
    };
    let (Ok(id), Ok(printed)) = (id.parse::<u64>(), ip.parse::<f64>()) else {
        return Some(format!("malformed reply `{reply}`"));
    };
    let Some(v) = vector(id) else {
        return Some(format!("hit on unknown or dead id {id}"));
    };
    let ip = dot(v, q);
    let cs = C * S;
    if ip < cs - 1e-9 || printed < cs - 5e-7 {
        return Some(format!(
            "hit {id} has ip {ip} (printed {printed}) below cs = {cs}"
        ));
    }
    if (printed - ip).abs() > 5e-7 + 1e-9 {
        return Some(format!("hit {id} printed ip {printed}, true ip {ip}"));
    }
    None
}

/// Deletes already applied before the timed churn phase starts, so its first
/// rebuild falls due `FIRST_REBUILD_AT` into the phase.
fn churn_priming(ctx: &Ctx, n: usize) -> usize {
    let early = (FIRST_REBUILD_AT * ctx.seconds * CHURN_WRITE_RATE / 2.0) as usize;
    Ctx::rebuild_deletes(n).saturating_sub(early)
}

/// Fresh vectors serve-churn inserts: priming plus the timed phase, with room
/// for the Poisson schedule running above its mean.
pub fn churn_inserts_needed(ctx: &Ctx, n: usize) -> usize {
    churn_priming(ctx, n) + (ctx.seconds * CHURN_WRITE_RATE / 2.0 * 1.5) as usize + 64
}

/// serve-churn: `ips build` then `ips serve`, with one connection querying
/// and another alternating inserts of fresh vectors and deletes of the oldest
/// live id — a sliding window that rebuilds the shard as deletes pile up.
pub fn churn(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = churn_inner(ctx, &mut tracer, &mut out) {
        out.fail(format!("serve-churn aborted: {e}"));
    }
    out
}

/// Which vector an id holds, and when it stopped being live.
struct Ids<'a> {
    inputs: &'a Inputs,
    /// Phase-relative time the delete of id `k` was acknowledged; priming
    /// deletes (acknowledged before the phase) read 0.
    deleted_ns: Vec<Option<u64>>,
    /// Phase-relative time the insert of fresh vector `k` was sent.
    inserted_ns: Vec<Option<u64>>,
}

impl<'a> Ids<'a> {
    /// The vector behind `id` if it was live at some point between `sent`
    /// and `recv` (phase-relative nanoseconds).
    fn live(&self, id: u64, sent: u64, recv: u64) -> Option<&'a DenseVector> {
        let n = self.inputs.data.len() as u64;
        if id < n {
            match self.deleted_ns.get(id as usize).copied().flatten() {
                Some(t) if t <= sent => None,
                _ => self.inputs.data.get(id as usize),
            }
        } else {
            let k = (id - n) as usize;
            match self.inserted_ns.get(k).copied().flatten() {
                Some(t) if t <= recv => self.inputs.fresh.get(k),
                _ => None,
            }
        }
    }
}

fn churn_inner(
    ctx: &Ctx,
    tracer: &mut Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let inputs = Inputs::generate(ctx);
    let n = inputs.data.len();
    let work = WorkDir::new(&ctx.out, "serve-churn").map_err(|e| e.to_string())?;
    let (data_csv, snap) = (work.path("data.csv"), work.path("churn.snap"));
    write_csv(&data_csv, &inputs.data).map_err(|e| e.to_string())?;
    let mut build_s = Vec::new();
    let (server, setup_s) = start_servers(ctx, &snap, || {
        let t = proc::build(&ctx.ips, &data_csv, &snap, ctx.seed)?;
        build_s.push(t.as_secs_f64());
        Ok(t)
    })?;
    let index_bytes = std::fs::metadata(&snap).map_err(|e| e.to_string())?.len();
    let mut conns = vec![
        Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?,
        Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?,
    ];

    // Priming: alternate insert/delete, one at a time, untimed.
    let primed = churn_priming(ctx, n);
    for k in 0..primed {
        let ins = conns[1]
            .call(&format!("insert {}", csv(&inputs.fresh[k])))
            .map_err(|e| format!("priming insert: {e}"))?;
        let want = format!("inserted {}", n + k);
        out.op((ins != want).then(|| format!("priming: `{ins}` != `{want}`")));
        let del = conns[1]
            .call(&format!("delete {k}"))
            .map_err(|e| format!("priming delete: {e}"))?;
        out.op((del != format!("deleted {k}")).then(|| format!("priming: `{del}` for delete {k}")));
    }

    // The timed phase: queries on connection 0, writes on connection 1.
    let mut rng = ctx.rng(20);
    let query_dues = poisson_dues(&mut rng, CHURN_QUERY_RATE, ctx.seconds);
    let write_dues = poisson_dues(&mut rng, CHURN_WRITE_RATE, ctx.seconds);
    let writes = write_dues.len();
    let inserts = writes.div_ceil(2);
    if primed + inserts > inputs.fresh.len() || primed + writes / 2 >= n {
        return Err(format!(
            "{} fresh vectors and {n} initial ids for {} inserts and {} deletes",
            inputs.fresh.len(),
            primed + inserts,
            primed + writes / 2
        ));
    }
    // (due, conn, query pick or write number)
    let mut plan: Vec<(u64, usize, usize)> = query_dues
        .iter()
        .map(|&d| (d, 0, rng.gen_range(0..inputs.queries.len())))
        .chain(write_dues.iter().enumerate().map(|(w, &d)| (d, 1, w)))
        .collect();
    plan.sort_by_key(|&(due, conn, _)| (due, conn));
    let reqs: Vec<Req> = plan
        .iter()
        .map(|&(due_ns, conn, x)| Req {
            conn,
            due_ns,
            line: if conn == 0 {
                query_line(&inputs.queries[x])
            } else if x % 2 == 0 {
                format!("insert {}", csv(&inputs.fresh[primed + x / 2]))
            } else {
                format!("delete {}", primed + x / 2)
            },
        })
        .collect();
    let base = Instant::now();
    let mut done =
        open_loop(&mut conns, &reqs, Duration::from_secs(60)).map_err(|e| format!("churn: {e}"))?;

    let mut ids = Ids {
        inputs: &inputs,
        deleted_ns: vec![None; n],
        inserted_ns: vec![None; inputs.fresh.len()],
    };
    for k in 0..primed {
        ids.deleted_ns[k] = Some(0);
        ids.inserted_ns[k] = Some(0);
    }
    let (mut query_lat, mut write_lat) = (Vec::new(), Vec::new());
    let (mut queries_sent, mut inserts_sent, mut deletes_sent) =
        (0u64, primed as u64, primed as u64);
    let mut injected = ctx.inject != Some(Inject::Hit);
    // Writes first: their acknowledgements decide which ids were live.
    for (&(_, conn, x), d) in plan.iter().zip(&done) {
        if conn != 1 {
            continue;
        }
        let (want, is_insert) = if x % 2 == 0 {
            (format!("inserted {}", n + primed + x / 2), true)
        } else {
            (format!("deleted {}", primed + x / 2), false)
        };
        if is_insert {
            inserts_sent += 1;
            ids.inserted_ns[primed + x / 2] = Some(d.sent_ns);
        } else {
            deletes_sent += 1;
            ids.deleted_ns[primed + x / 2] = d.recv_ns;
        }
        write_lat.extend(d.latency_us());
        out.op((d.reply != want).then(|| format!("write {x}: `{}` != `{want}`", d.reply)));
    }
    for (&(_, conn, j), d) in plan.iter().zip(done.iter_mut()) {
        if conn != 0 {
            continue;
        }
        queries_sent += 1;
        let Some(recv) = d.recv_ns else {
            out.op(Some("query: no reply".into()));
            continue;
        };
        query_lat.extend(d.latency_us());
        if !injected && d.reply.starts_with("hit ") {
            let id = d.reply.split_whitespace().nth(1).unwrap_or("0").to_string();
            d.reply = format!("hit {id} +0.100000");
            injected = true;
        }
        let error = check_hit(&d.reply, &inputs.queries[j], |id| {
            ids.live(id, d.sent_ns, recv)
        });
        out.op(error.map(|e| format!("churn query: {e}")));
    }
    let (queries_done, writes_done): (Vec<Done>, Vec<Done>) = {
        let mut q = Vec::new();
        let mut w = Vec::new();
        for (&(_, conn, _), d) in plan.iter().zip(done) {
            if conn == 0 {
                q.push(d)
            } else {
                w.push(d)
            }
        }
        (q, w)
    };
    trace_requests(tracer, "request.query", "phase.churn", base, &queries_done);
    trace_requests(tracer, "request.write", "phase.churn", base, &writes_done);
    lateness(out, &[queries_done, writes_done].concat(), "churn");

    let stats = conns[0].call("stats").map_err(|e| format!("stats: {e}"))?;
    check_stats(
        out,
        &stats,
        &[
            ("queries", queries_sent),
            ("inserts", inserts_sent),
            ("deletes", deletes_sent),
            ("connections", conns.len() as u64),
        ],
        ctx.inject == Some(Inject::Stats),
    );
    let rebuilds = stat(&stats, "rebuilds").unwrap_or(0);
    out.op((rebuilds < 2)
        .then(|| format!("run covered {rebuilds} rebuild cycles, fewer than 2; run invalid")));
    drop(conns);
    server.shutdown()?;

    let (q50, q99, w50) = (
        median(&query_lat),
        percentile(&query_lat, 99.0),
        median(&write_lat),
    );
    let (q25, w25) = (percentile(&query_lat, 25.0), percentile(&write_lat, 25.0));
    println!(
        "serve-churn: n={n} dim={} primed {primed} insert/delete pairs; {queries_sent} queries and {writes} writes sent; {rebuilds} rebuilds",
        ctx.sizes().dim
    );
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.show(
        "e2e",
        "setup_s",
        setup_s,
        "s",
        "ips build + open to listening, median of 5",
    );
    let rate = CHURN_QUERY_RATE;
    out.show(
        "e2e",
        &format!("query_p50_us.r{rate}"),
        q50,
        "us",
        &format!("n={}; p25 {q25:.1} us", query_lat.len()),
    );
    out.show(
        "e2e",
        &format!("query_p99_ms.r{rate}"),
        q99 / 1e3,
        "ms",
        &format!("n={}", query_lat.len()),
    );
    out.show(
        "e2e",
        "write_p50_us",
        w50,
        "us",
        &format!("n={}; p25 {w25:.1} us", write_lat.len()),
    );
    out.show(
        "e2e",
        "failed_ratio",
        ratio,
        "ratio",
        &format!("{} of {}", out.failed, out.attempted),
    );
    out.show(
        "info",
        "build_s",
        median(&build_s),
        "s",
        "ips build alone, median of 5",
    );
    out.show(
        "info",
        "index_bytes",
        index_bytes as f64,
        "bytes",
        "built snapshot",
    );
    out.metric(
        "setup_s",
        setup_s,
        "s",
        "ips build + open to listening, median of 5",
    );
    out.metric(
        "primary_ms",
        q25 / 1e3,
        "ms",
        &format!("= query latency p25 at {rate}/s"),
    );
    out.metric("secondary_ms", w25 / 1e3, "ms", "= write latency p25");
    out.metric(
        "tertiary_ms",
        q99 / 1e3,
        "ms",
        &format!("= query_p99_ms.r{rate}"),
    );
    Ok(())
}
