//! The repository benchmark: three workloads over the IPS join, end to end
//! and layer by layer. See `README.md` beside this package for the
//! workloads, the metrics and how to run it; `run.py` builds and runs it.
//!
//! ```text
//! perfbench --workload <join-needles|serve-read|serve-churn> --seed <n>
//!           --seconds <n> --trace <0|1> --ips <path to the ips binary>
//!           [--out <dir>] [--commit <id>] [--smoke] [--inject <gate>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! non-zero when any correctness gate failed.

mod gen;
mod join;
mod layers;
mod proc;
mod report;
mod serve;

use ips_datagen::planted::{PlantedConfig, PlantedInstance};
use ips_linalg::DenseVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::{json_line, Outcome, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JoinNeedles,
    ServeRead,
    ServeChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "join-needles" => Some(Self::JoinNeedles),
            "serve-read" => Some(Self::ServeRead),
            "serve-churn" => Some(Self::ServeChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::JoinNeedles => "join-needles",
            Self::ServeRead => "serve-read",
            Self::ServeChurn => "serve-churn",
        }
    }
}

/// A deliberately corrupted input, to show that a correctness gate fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// serve-read: one reply byte differs from the oracle's.
    Reply,
    /// serve-churn: one hit's printed inner product is below `cs`.
    Hit,
    /// join-needles: one ALSH pair is replaced by a pair below `cs`.
    Pair,
    /// serve-read / serve-churn: one `stats` counter disagrees with the load sent.
    Stats,
}

impl Inject {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "reply" => Some(Self::Reply),
            "hit" => Some(Self::Hit),
            "pair" => Some(Self::Pair),
            "stats" => Some(Self::Stats),
            _ => None,
        }
    }
}

/// Everything a run is parameterised by.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub inject: Option<Inject>,
    pub ips: PathBuf,
    pub out: PathBuf,
}

/// Set-ups per run; the reported set-up time is their median.
pub const SETUPS: usize = 5;

/// Rebuild threshold of `ips serve` (its `rebuild-threshold` default): a
/// shard rebuilds once its dead slots exceed this share of its live vectors.
pub const REBUILD_THRESHOLD: f64 = 0.25;

/// Dimension, data count, query-pool size and planted pairs of a workload.
pub struct Sizes {
    pub dim: usize,
    pub n: usize,
    pub m: usize,
    pub planted: usize,
}

impl Ctx {
    pub fn sizes(&self) -> Sizes {
        match (self.workload, self.smoke) {
            (Workload::ServeChurn, false) => Sizes {
                dim: 48,
                n: 10_000,
                m: 1000,
                planted: 250,
            },
            (_, false) => Sizes {
                dim: 48,
                n: 20_000,
                m: 2000,
                planted: 500,
            },
            (Workload::ServeChurn, true) => Sizes {
                dim: 16,
                n: 800,
                m: 100,
                planted: 25,
            },
            (_, true) => Sizes {
                dim: 16,
                n: 1500,
                m: 150,
                planted: 40,
            },
        }
    }

    /// Deletes after which a shard of `n` live vectors rebuilds.
    pub fn rebuild_deletes(n: usize) -> usize {
        (REBUILD_THRESHOLD * n as f64).floor() as usize + 1
    }

    /// A seeded generator for one purpose of the run (`salt` names it).
    pub fn rng(&self, salt: u64) -> StdRng {
        let workload = self.workload as u64 + 1;
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(workload << 32)
                .wrapping_add(salt),
        )
    }
}

/// A workload's vectors: the data set, the query pool, and fresh vectors of
/// the same distribution for inserts.
pub struct Inputs {
    pub data: Vec<DenseVector>,
    pub queries: Vec<DenseVector>,
    pub fresh: Vec<DenseVector>,
}

impl Inputs {
    /// Generates the inputs from the run's seed with `ips_datagen`: planted
    /// needles (background norm 0.05, planted inner product 0.85).
    pub fn generate(ctx: &Ctx) -> Inputs {
        let sizes = ctx.sizes();
        let planted = |rng: &mut StdRng, data: usize, queries: usize, planted: usize| {
            PlantedInstance::generate(
                rng,
                PlantedConfig {
                    data,
                    queries,
                    dim: sizes.dim,
                    background_scale: 0.05,
                    planted_ip: 0.85,
                    planted,
                },
            )
            .expect("the planted configuration is valid")
        };
        let inst = planted(&mut ctx.rng(1), sizes.n, sizes.m, sizes.planted);
        // Inserts for two rebuild cycles in the layer replay, and for the
        // churn workload's priming and timed phase.
        let mut fresh_count = 2 * Ctx::rebuild_deletes(sizes.n) + 16;
        if ctx.workload == Workload::ServeChurn {
            fresh_count = fresh_count.max(serve::churn_inserts_needed(ctx, sizes.n));
        }
        let fresh = planted(&mut ctx.rng(2), fresh_count, 1, 1);
        Inputs {
            data: inst.data().to_vec(),
            queries: inst.queries().to_vec(),
            fresh: fresh.data().to_vec(),
        }
    }
}

/// The program's line format for one vector (shortest round-trip decimals,
/// so the server parses exactly the generated coordinates).
pub fn csv(v: &DenseVector) -> String {
    let parts: Vec<String> = v.as_slice().iter().map(|x| format!("{x}")).collect();
    parts.join(",")
}

/// Plain dot product, kept independent of the program's kernels.
pub fn dot(a: &DenseVector, b: &DenseVector) -> f64 {
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        for k in 0..4 {
            acc[k] += a[4 * i + k] * b[4 * i + k];
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in 4 * chunks..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

fn run_e2e(ctx: &Ctx, tracer: Option<&mut Tracer>) -> Outcome {
    match ctx.workload {
        Workload::JoinNeedles => join::run(ctx, tracer),
        Workload::ServeRead => serve::read(ctx, tracer),
        Workload::ServeChurn => serve::churn(ctx, tracer),
    }
}

struct Args {
    ctx: Ctx,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ips = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut commit = "unknown".to_string();
    let mut smoke = false;
    let mut inject = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--ips" => ips = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            "--commit" => commit = value.to_string(),
            "--inject" => {
                inject = Some(Inject::parse(value).ok_or_else(|| format!("unknown gate {value}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        ctx: Ctx {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            smoke,
            inject,
            ips: ips.ok_or("--ips is required")?,
            out,
        },
        trace: trace.ok_or("--trace is required")?,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out.display());
        return ExitCode::from(2);
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // EngineConfig::default() runs one engine worker per CPU.
    println!(
        "perfbench workload={} seed={} seconds={} trace={} smoke={} available_parallelism={cpus} engine_threads={cpus} commit={}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        ctx.smoke,
        args.commit
    );

    let (mut outcome, expected): (Outcome, &[&str]) = if !args.trace {
        (run_e2e(ctx, None), &E2E_METRICS)
    } else {
        println!("-- untraced end-to-end run");
        let untraced = run_e2e(ctx, None);
        println!("-- traced end-to-end run");
        let mut tracer = Tracer::new();
        let traced = run_e2e(ctx, Some(&mut tracer));
        for m in &traced.metrics {
            if let Some(u) = untraced.value(&m.name) {
                println!(
                    "overhead {} = {:+} {} ({:+.2}% of the untraced run)",
                    m.name,
                    m.value - u,
                    m.unit,
                    100.0 * (m.value - u) / u
                );
            }
        }
        println!("-- layer replay");
        let inputs = Inputs::generate(ctx);
        let mut layer = layers::replay(ctx, &inputs, &mut tracer, &traced.late_us);
        let spans = ctx.out.join(format!(
            "spans-{}-seed{}.jsonl",
            ctx.workload.name(),
            ctx.seed
        ));
        match tracer.write(&spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans.len(),
                spans.display()
            ),
            Err(e) => layer.fail(format!("cannot write {}: {e}", spans.display())),
        }
        layer.attempted += untraced.attempted + traced.attempted;
        layer.failed += untraced.failed + traced.failed;
        layer.failures.extend(untraced.failures);
        layer.failures.extend(traced.failures);
        (layer, &layers::PER_LAYER_METRICS)
    };

    for name in expected {
        match outcome.value(name) {
            Some(v) if v.is_finite() => {}
            _ => outcome.fail(format!("metric {name} was not measured")),
        }
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        json_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics every workload reports; see README.md for what
/// each slot measures on each workload.
pub const E2E_METRICS: [&str; 4] = ["setup_s", "primary_ms", "secondary_ms", "tertiary_ms"];
