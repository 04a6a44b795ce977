//! End-to-end and per-layer benchmark of the CePS query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hubs|cold|batch --seed N --seconds S --trace 0|1 \
//!     [--repeat N [--sets K]]
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it runs the same inputs again with client-side spans and
//! replays every request through the layers, printing the per-layer
//! metrics, a ledger table and a span dump. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--repeat N` runs the workload N times in child processes (seeds
//! `N..`) and prints each metric's median and quartiles; `--sets 2` does
//! that twice and compares the medians. See `perfbench/README.md`.

mod batch;
mod layers;
mod repeat;
mod serve;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use ceps_bench::Scale;
use ceps_core::{CepsEngine, ServeReply};
use ceps_graph::NodeId;
use ceps_load::MixKind;
use ceps_rwr::{RwrConfig, RwrEngine};

use crate::layers::LayerTally;
use crate::stats::median;

/// EXTRACT budget `b` for every workload.
pub const BUDGET: usize = 20;

/// The end-to-end metrics (`--trace 0`), with units, in print order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), with units, in print order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("load.send_lag_p99_ms", "ms"),
    ("load.sent", "count"),
    ("net.rtt_p50_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.reply_bytes", "bytes"),
    ("net.queue_p99_ms", "ms"),
    ("net.sheds", "count"),
    ("serve.scores_ms", "ms"),
    ("cache.hit_frac", "frac"),
    ("cache.probe_us", "us"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.fill_frac", "frac"),
    ("rwr.solve_ms", "ms"),
    ("rwr.rows", "count"),
    ("rwr.sweeps", "count"),
    ("rwr.sweep_ms", "ms"),
    ("rwr.final_delta", "l1"),
    ("rwr.gbps", "GB/s"),
    ("pool.rounds", "count"),
    ("pool.speedup", "x"),
    ("combine.ms", "ms"),
    ("extract.ms", "ms"),
    ("extract.paths", "count"),
    ("extract.nodes", "count"),
    ("extract.orphan_frac", "frac"),
    ("setup.datagen_s", "s"),
    ("setup.engine_s", "s"),
    ("setup.op_mb", "MB"),
    ("setup.boot_s", "s"),
    ("ledger.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["hubs", "cold", "batch"];

/// One workload's fixed shape.
#[derive(Debug, Clone)]
pub enum Spec {
    Serve(serve::ServeSpec),
    Batch(batch::BatchSpec),
}

/// The fixed shape of a named workload.
pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "hubs" => Spec::Serve(serve::ServeSpec {
            scale: Scale::Small,
            mix: MixKind::Hubs,
            repeat: 0.9,
            nominal_rps: 300.0,
            saturation_rps: 5000.0,
            tail_pct: 90.0,
            streams: 8,
            setup_reps: 11,
        }),
        "cold" => Spec::Serve(serve::ServeSpec {
            scale: Scale::Medium,
            mix: MixKind::Uniform,
            repeat: 0.0,
            nominal_rps: 25.0,
            saturation_rps: 250.0,
            tail_pct: 90.0,
            streams: 1,
            setup_reps: 11,
        }),
        "batch" => Spec::Batch(batch::BatchSpec {
            scale: Scale::Large,
            threads: 2,
            set_size: 48,
            checked: 4,
            traced: 16,
            tail_pct: 75.0,
            setup_reps: 5,
        }),
        _ => return None,
    })
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one workload run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub report: String,
}

/// Set-up time of one repetition, split by stage.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub datagen_s: f64,
    pub engine_s: f64,
    pub boot_s: f64,
    pub op_mb: f64,
}

/// Where a run writes: span dumps and ledgers, and its scratch sockets.
#[derive(Debug, Clone)]
pub struct Dirs {
    pub out: PathBuf,
    pub tmp: PathBuf,
}

/// The instant all spans are timed from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    ceps_bench::rss::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// A 64-bit digest of a reply covering every field, scores bit for bit.
/// Runs keep this instead of the reply, so memory does not grow with the
/// number of requests.
pub fn digest(reply: &ServeReply) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    reply.k.hash(&mut h);
    reply.members.len().hash(&mut h);
    for m in &reply.members {
        m.id.0.hash(&mut h);
        m.score.to_bits().hash(&mut h);
        m.is_query.hash(&mut h);
    }
    reply.paths.len().hash(&mut h);
    for p in &reply.paths {
        p.source_index.hash(&mut h);
        p.nodes.hash(&mut h);
    }
    h.finish()
}

/// Outcome of comparing replies against the reference.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Distinct query sets compared.
    pub checked: usize,
    /// Replies that differed from the reference.
    pub wrong: u64,
    /// The first mismatching query set.
    pub first: Option<Vec<NodeId>>,
}

/// The reference engine: a separate, uncached, sequential (`threads(1)`)
/// engine over the same graph and settings.
pub fn reference_engine(engine: &CepsEngine) -> Result<CepsEngine, String> {
    let cfg = engine.config().threads(1);
    CepsEngine::new(std::sync::Arc::clone(engine.shared_graph()), cfg)
        .map_err(|e| format!("reference engine: {e}"))
}

/// Compares each reply (by [`digest`]) with the reference answer for its
/// query set; the reference is computed once per distinct set, on two
/// threads, outside any timed window. Returns the tally and a per-reply
/// verdict.
pub fn check_replies(
    engine: &CepsEngine,
    replies: &[(&[NodeId], u64)],
) -> Result<(Check, Vec<bool>), String> {
    let reference = reference_engine(engine)?;
    let mut distinct: Vec<&[NodeId]> = Vec::new();
    let mut slot: HashMap<&[NodeId], usize> = HashMap::new();
    for (q, _) in replies {
        slot.entry(q).or_insert_with(|| {
            distinct.push(q);
            distinct.len() - 1
        });
    }
    let mut answers: Vec<Option<u64>> = vec![None; distinct.len()];
    let half = distinct.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        for (chunk, out) in distinct.chunks(half).zip(answers.chunks_mut(half)) {
            let reference = &reference;
            scope.spawn(move || {
                for (q, a) in chunk.iter().zip(out) {
                    *a = reference
                        .run(q)
                        .ok()
                        .map(|r| digest(&ServeReply::from_result(&r, q)));
                }
            });
        }
    });
    let mut check = Check {
        checked: distinct.len(),
        ..Check::default()
    };
    let verdicts = replies
        .iter()
        .map(|(q, reply)| {
            let good = answers[slot[q]] == Some(*reply);
            if !good {
                check.wrong += 1;
                check.first.get_or_insert_with(|| q.to_vec());
            }
            good
        })
        .collect();
    Ok((check, verdicts))
}

/// Appends the correctness line to a report.
pub fn report_check(report: &mut String, check: &Check) {
    report.push_str(&format!(
        "check: {} distinct query sets against the uncached threads(1) reference, {} wrong replies\n",
        check.checked, check.wrong
    ));
    if let Some(q) = &check.first {
        let ids: Vec<u32> = q.iter().map(|n| n.0).collect();
        report.push_str(&format!("check: first mismatching query {ids:?}\n"));
    }
}

/// Times `solve_block` over `queries` at `threads(1)` and `threads(2)`
/// (median of three after one warm-up each); returns the ratio.
pub fn pool_speedup(engine: &CepsEngine, queries: &[NodeId]) -> f64 {
    let time = |threads: usize| {
        let cfg = RwrConfig {
            threads,
            ..engine.config().rwr
        };
        let rwr = RwrEngine::new(engine.transition(), cfg).expect("valid solver settings");
        let mut runs = Vec::new();
        for i in 0..4 {
            let t = Instant::now();
            let out = rwr.solve_block(queries).expect("valid query nodes");
            std::hint::black_box(out);
            if i > 0 {
                runs.push(t.elapsed().as_secs_f64());
            }
        }
        median(&runs)
    };
    time(1) / time(2)
}

/// Per-layer metrics every workload derives the same way from the replay
/// tally over `reqs` replayed requests and the set-up repetitions.
pub fn layer_metrics(
    t: &LayerTally,
    reqs: usize,
    setups: &[SetupTimes],
    speedup: f64,
) -> Vec<Metric> {
    let per_req = |x: f64| x / reqs.max(1) as f64;
    let solves = t.solves.max(1) as f64;
    let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new("net.encode_us", per_req(t.encode_us), "us"),
        Metric::new("net.decode_us", per_req(t.decode_us), "us"),
        Metric::new("net.reply_bytes", per_req(t.reply_bytes as f64), "bytes"),
        Metric::new("serve.scores_ms", per_req(t.scores_ms), "ms"),
        Metric::new("rwr.solve_ms", t.solve_ms / solves, "ms"),
        Metric::new("rwr.rows", per_req(t.rows as f64), "count"),
        Metric::new(
            "rwr.sweeps",
            t.sweeps_sum as f64 / t.rows.max(1) as f64,
            "count",
        ),
        Metric::new(
            "rwr.sweep_ms",
            t.solve_ms / t.block_sweeps.max(1) as f64,
            "ms",
        ),
        Metric::new(
            "rwr.final_delta",
            t.final_delta_sum / t.rows.max(1) as f64,
            "l1",
        ),
        Metric::new(
            "rwr.gbps",
            if t.solve_ms > 0.0 {
                t.bytes_moved / (t.solve_ms / 1e3) / 1e9
            } else {
                0.0
            },
            "GB/s",
        ),
        Metric::new("pool.rounds", per_req(t.pool_rounds as f64), "count"),
        Metric::new("pool.speedup", speedup, "x"),
        Metric::new("combine.ms", per_req(t.combine_ms), "ms"),
        Metric::new("extract.ms", per_req(t.extract_ms), "ms"),
        Metric::new("extract.paths", per_req(t.paths as f64), "count"),
        Metric::new("extract.nodes", per_req(t.nodes as f64), "count"),
        Metric::new(
            "extract.orphan_frac",
            t.orphans as f64 / t.destinations.max(1) as f64,
            "frac",
        ),
        Metric::new("setup.datagen_s", setup(|s| s.datagen_s), "s"),
        Metric::new("setup.engine_s", setup(|s| s.engine_s), "s"),
        Metric::new("setup.op_mb", setup(|s| s.op_mb), "MB"),
        Metric::new("setup.boot_s", setup(|s| s.boot_s), "s"),
    ]
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    sets: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).copied();
    let num = |k: &str, default: &str| -> Result<f64, String> {
        get(k)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("--{k}: {e}"))
    };
    let workload = get("workload").ok_or("--workload is required")?.to_string();
    if spec(&workload).is_none() {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = num("seconds", "10")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: get("seed")
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        repeat: num("repeat", "0")? as usize,
        sets: num("sets", "1")?.max(1.0) as usize,
    })
}

/// Runs one workload in this process; `scale` overrides its preset (the
/// self-tests run every workload on `tiny`).
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Option<Scale>,
    dirs: &Dirs,
) -> Result<Outcome, String> {
    match spec(name).ok_or_else(|| format!("unknown workload {name}"))? {
        Spec::Serve(mut s) => {
            s.scale = scale.unwrap_or(s.scale);
            serve::run(name, &s, seed, seconds, trace, dirs)
        }
        Spec::Batch(mut b) => {
            b.scale = scale.unwrap_or(b.scale);
            batch::run(name, &b, seed, seconds, trace, dirs)
        }
    }
}

/// The result line: one JSON object with exactly the contract's keys.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Orders the metrics as declared and checks every declared one is there
/// exactly once, finite.
fn finalize(mut o: Outcome, trace: bool) -> Result<Outcome, String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let m = o
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != unit || !m.value.is_finite() {
            return Err(format!(
                "metric {name} = {} {} (want a finite value in {unit})",
                m.value, m.unit
            ));
        }
        ordered.push(m.clone());
    }
    if o.metrics.len() != declared.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            o.metrics.len(),
            declared.len()
        ));
    }
    o.metrics = ordered;
    Ok(o)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.repeat > 0 {
        let code = repeat::run(
            &argv,
            &args.workload,
            args.seed,
            args.repeat,
            args.sets,
            args.trace,
        );
        std::process::exit(code);
    }
    let _ = epoch();
    let dirs = Dirs {
        out: PathBuf::from(".perfbench/out"),
        tmp: PathBuf::from(format!(".perfbench/tmp/{}", std::process::id())),
    };
    for d in [&dirs.out, &dirs.tmp] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("perfbench: cannot create {}: {e}", d.display());
            std::process::exit(2);
        }
    }
    let outcome = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        None,
        &dirs,
    )
    .and_then(|o| finalize(o, args.trace));
    let _ = std::fs::remove_dir_all(&dirs.tmp);
    match outcome {
        Ok(o) => {
            print!("{}", o.report);
            println!(
                "error_frac = {} ({} failed of {} attempted: transport errors, sheds, timeouts, wrong replies)",
                o.failed as f64 / o.attempted.max(1) as f64,
                o.failed,
                o.attempted
            );
            for m in &o.metrics {
                println!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(&o));
        }
        Err(e) => {
            eprintln!("perfbench [{}]: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests;
