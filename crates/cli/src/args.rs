//! Argument parsing — hand-rolled to stay within the workspace's
//! dependency policy (no clap).

use std::collections::HashMap;
use std::path::PathBuf;

use ceps_core::QueryType;
use ceps_graph::Precision;
use ceps_load::{ArrivalKind, MixKind, DEFAULT_HOT_POOL};

use crate::CliError;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `ceps generate` — write a synthetic co-authorship graph.
    Generate {
        /// Scale preset name.
        scale: String,
        /// Generator seed.
        seed: u64,
        /// Edge-list output path.
        out: PathBuf,
        /// Optional labels output path.
        labels_out: Option<PathBuf>,
    },
    /// `ceps stats` — print basic graph statistics.
    Stats {
        /// Edge-list input path.
        graph: PathBuf,
    },
    /// `ceps query` — run a center-piece query.
    Query {
        /// Edge-list input path.
        graph: PathBuf,
        /// Optional labels file (one name per line, line i = node i).
        labels: Option<PathBuf>,
        /// Comma-separated query nodes (names if labels given, else ids).
        queries: String,
        /// Query type.
        query_type: QueryType,
        /// Budget `b`.
        budget: usize,
        /// Normalization exponent `α`.
        alpha: f64,
        /// Optional DOT output path.
        dot: Option<PathBuf>,
        /// Emit JSON instead of text.
        json: bool,
        /// Forward-push threshold (None = power iteration).
        push: Option<f64>,
        /// RWR worker threads (`0` = auto: all available cores).
        threads: usize,
        /// Storage precision of the normalized operator (`f64` | `f32`).
        precision: Precision,
        /// Record per-stage spans/counters and print the profile tree.
        profile: bool,
        /// Where to write the `ceps-obs/v1` snapshot (default
        /// `results/OBS_profile.json`); only used with `--profile`.
        profile_out: Option<PathBuf>,
    },
    /// `ceps partition` — k-way partition a graph.
    Partition {
        /// Edge-list input path.
        graph: PathBuf,
        /// Number of parts.
        parts: usize,
        /// Seed.
        seed: u64,
        /// Output path for `node part` lines.
        out: PathBuf,
    },
    /// `ceps serve` — replay a synthetic query stream through a
    /// [`ceps_core::CepsService`] and report throughput + cache behaviour.
    Serve {
        /// Edge-list input path.
        graph: PathBuf,
        /// Number of query sets to serve.
        requests: usize,
        /// Query nodes per request.
        queries_per: usize,
        /// Worker threads serving the stream.
        workers: usize,
        /// Probability a query node is drawn from the hot (hub) pool.
        repeat: f64,
        /// Budget `b`.
        budget: usize,
        /// Normalization exponent `α`.
        alpha: f64,
        /// Row-cache budget in MiB (0 disables the cache).
        cache_mb: usize,
        /// Fraction of the cache byte budget pre-filled at startup by
        /// degree-weighted warming (0 = no warming).
        warm_frac: f64,
        /// Stream seed.
        seed: u64,
        /// RWR worker threads per solve (`0` = auto).
        threads: usize,
        /// Storage precision of the normalized operator (`f64` | `f32`).
        precision: Precision,
        /// Emit JSON instead of text.
        json: bool,
        /// Record per-stage spans/counters and print the profile tree.
        profile: bool,
        /// Where to write the `ceps-obs/v1` snapshot (default
        /// `results/OBS_profile.json`); only used with `--profile`.
        profile_out: Option<PathBuf>,
        /// Where to write the live Prometheus exposition file; enables the
        /// background metrics exporter (a `.jsonl` event stream is written
        /// next to it).
        metrics_out: Option<PathBuf>,
        /// Exporter flush interval in milliseconds.
        metrics_interval_ms: u64,
        /// Where to write sampled `ceps-trace/v1` request traces; enables
        /// per-request tracing.
        trace_out: Option<PathBuf>,
        /// Head-sampling rate for traces, in `[0, 1]`.
        trace_sample: f64,
        /// Listen address (`tcp://host:port`, `unix:///path`, `host:port`
        /// or a socket path). When set, `serve` runs a long-lived
        /// `ceps-wire/v1` server instead of replaying a synthetic stream.
        listen: Option<String>,
        /// Where to write the flight-recorder ring (`ceps-flight/v1`
        /// JSONL) when the server drains or panics; enables the recorder.
        flight_out: Option<PathBuf>,
    },
    /// `ceps client` — talk `ceps-wire/v1` to a running `serve --listen`.
    Client {
        /// Server address (same grammar as `--listen`).
        connect: String,
        /// What to ask the server.
        action: ClientAction,
        /// Emit JSON instead of text.
        json: bool,
        /// Reply deadline in milliseconds (`0` waits forever).
        timeout_ms: u64,
        /// Where to write client-side `ceps-trace/v1` lines (one per
        /// query reply); enables end-to-end trace propagation.
        trace_out: Option<PathBuf>,
    },
    /// `ceps loadgen` — open-loop load generation against a running
    /// `serve --listen`, with coordinated-omission-free latency and an
    /// optional SLO capacity search.
    Loadgen {
        /// Server address (same grammar as `--listen`).
        connect: String,
        /// Offered request rate (requests/second across all connections).
        rps: f64,
        /// Run length in seconds, warmup included.
        duration_s: f64,
        /// Leading seconds excluded from the measurement phase.
        warmup_s: f64,
        /// Arrival process.
        arrival: ArrivalKind,
        /// Concurrent client connections.
        connections: usize,
        /// Query nodes per request.
        queries_per: usize,
        /// Node ids are drawn from `0..nodes`.
        node_space: usize,
        /// Probability a request repeats an earlier query verbatim.
        repeat: f64,
        /// Node sampling of fresh queries (uniform vs hub-skewed).
        mix: MixKind,
        /// Hot-pool width for the hub-skewed mix.
        pool_size: usize,
        /// Schedule/query-mix seed.
        seed: u64,
        /// SLO: measurement-phase p99 bound in milliseconds.
        slo_p99_ms: f64,
        /// SLO: max sheds+errors fraction.
        max_error_rate: f64,
        /// Run the capacity search instead of a single fixed-rate run.
        search: bool,
        /// Emit JSON instead of text.
        json: bool,
        /// Also write the JSON report/curve to this path.
        out: Option<PathBuf>,
    },
    /// `ceps autok` — infer the softAND coefficient for a query set.
    AutoK {
        /// Edge-list input path.
        graph: PathBuf,
        /// Optional labels file.
        labels: Option<PathBuf>,
        /// Comma-separated query nodes.
        queries: String,
        /// Normalization exponent.
        alpha: f64,
        /// Worker threads for the RWR solves (`0` = auto).
        threads: usize,
    },
    /// `ceps import` — convert tab-separated co-author pairs to the
    /// edge-list + labels formats.
    Import {
        /// Co-author pairs input path.
        pairs: PathBuf,
        /// Edge-list output path.
        out: PathBuf,
        /// Labels output path.
        labels_out: PathBuf,
    },
    /// `ceps help` / no args.
    Help,
}

/// What a `ceps client` invocation asks the server to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// One-shot query: comma-separated node ids.
    Query(String),
    /// Batch mode: one comma-separated query set per stdin line.
    Stdin,
    /// Server-side `K_softAND` inference for comma-separated node ids.
    AutoK(String),
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Fetch the server's flight-recorder ring as `ceps-flight/v1` JSONL.
    DumpFlight,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// Usage text shown by `ceps help` and on argument errors.
pub const USAGE: &str = "\
ceps — center-piece subgraph discovery (Tong & Faloutsos)

USAGE:
  ceps generate --scale <tiny|small|medium|large> [--seed N] --out FILE [--labels-out FILE]
  ceps stats    --graph FILE
  ceps query    --graph FILE [--labels FILE] --queries \"a,b,...\"
                [--type and|or|softand:K] [--budget N] [--alpha A]
                [--dot FILE] [--json] [--push EPS] [--threads N]
                [--precision f64|f32]
                [--profile] [--profile-out FILE]
  ceps serve    --graph FILE [--requests N] [--queries-per Q] [--workers W]
                [--repeat R] [--budget N] [--alpha A] [--cache-mb M]
                [--warm-frac F] [--seed N] [--threads N]
                [--precision f64|f32] [--json]
                [--profile] [--profile-out FILE]
                [--metrics-out FILE.prom] [--metrics-interval MS]
                [--trace-out FILE.jsonl] [--trace-sample RATE]
                [--listen ADDR] [--flight-out FILE.jsonl]
  ceps client   --connect ADDR (--queries \"a,b,...\" | --stdin |
                --autok \"a,b,...\" | --ping | --stats | --dump-flight |
                --shutdown)
                [--json] [--timeout MS] [--trace-out FILE.jsonl]
  ceps loadgen  --connect ADDR [--rps R] [--duration S] [--warmup S]
                [--arrival poisson|constant] [--connections N]
                [--queries-per Q] [--nodes N] [--repeat R]
                [--mix uniform|hubs] [--pool-size N] [--seed N]
                [--slo-p99-ms X] [--max-error-rate F] [--search]
                [--json] [--out FILE]
  ceps partition --graph FILE --parts K [--seed N] --out FILE
  ceps autok    --graph FILE [--labels FILE] --queries \"a,b,...\" [--alpha A]
                [--threads N]
  ceps import   --pairs FILE --out FILE --labels-out FILE
  ceps help
  ceps <command> --help      (or -h) prints this text

  --threads N uses a persistent worker pool for the RWR solves; 0 = auto
  (all available cores, default 1). Small solves fall back to the
  sequential kernel automatically, so 0 is safe on any graph.

  --precision f32 stores the normalized operator's coefficients in half
  the memory (accumulation stays f64); scores drift by at most the f32
  rounding of each coefficient. Default f64 is bitwise-exact.

  serve --listen ADDR turns serve into a long-lived ceps-wire/v1 server
  (ADDR: tcp://host:port, unix:///path, host:port, or a socket path);
  client talks to it over the same address grammar. Wire replies are
  byte-identical to the in-process API's results.

  serve keeps RWR rows in a shared row cache (--cache-mb, 0 disables
  it); concurrent requests missing the same row wait for one solve
  instead of repeating it. --warm-frac F pre-solves the top-degree rows
  into the cache at startup, up to F of the cache byte budget. Both
  preserve bitwise-identical replies.

  loadgen drives a running serve --listen open-loop: arrivals fire on a
  pre-built deterministic schedule and every latency is charged to the
  intended send time, so a stalled server cannot hide its backlog
  (coordinated-omission correction). --search steps/bisects the offered
  rate to find the max load meeting the SLO and prints the
  throughput-latency curve with the knee marked. --mix hubs draws fresh
  query nodes rank-weighted from a seeded hot pool (--pool-size ids) —
  hub-shaped traffic that exercises the server's row cache.

  client --trace-out attaches a trace context to every query; the server
  adopts it, so client and server ceps-trace/v1 lines share one trace_id
  per request. serve --flight-out enables the in-memory flight recorder
  and writes its ring (ceps-flight/v1 JSONL) when the server drains or
  panics; client --dump-flight fetches the same ring over the wire.
";

fn take_flags(args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        if key == "-h" || key == "--help" {
            flags.insert("help".to_string(), "true".to_string());
            i += 1;
            continue;
        }
        if !key.starts_with("--") {
            return Err(CliError(format!("unexpected argument {key:?}")));
        }
        if matches!(
            key.as_str(),
            "--json"
                | "--profile"
                | "--stdin"
                | "--ping"
                | "--stats"
                | "--dump-flight"
                | "--shutdown"
                | "--search"
        ) {
            flags.insert(key[2..].to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError(format!("flag {key} needs a value")))?;
        flags.insert(key[2..].to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn parse_query_type(s: &str) -> Result<QueryType, CliError> {
    match s {
        "and" => Ok(QueryType::And),
        "or" => Ok(QueryType::Or),
        _ => {
            if let Some(k) = s.strip_prefix("softand:") {
                let k: usize = k
                    .parse()
                    .map_err(|_| CliError(format!("bad softand coefficient {k:?}")))?;
                Ok(QueryType::SoftAnd(k))
            } else {
                Err(CliError(format!(
                    "unknown query type {s:?} (and|or|softand:K)"
                )))
            }
        }
    }
}

fn parse_precision(flags: &HashMap<String, String>) -> Result<Precision, CliError> {
    match flags.get("precision") {
        None => Ok(Precision::F64),
        Some(v) => Precision::parse(v)
            .ok_or_else(|| CliError(format!("bad value for --precision: {v:?} (f64|f32)"))),
    }
}

fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError(format!("bad value for --{key}: {v:?}"))),
    }
}

fn required(flags: &HashMap<String, String>, key: &str) -> Result<String, CliError> {
    flags
        .get(key)
        .cloned()
        .ok_or_else(|| CliError(format!("missing required flag --{key}")))
}

/// Parses a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let flags = take_flags(&args[1..]);
    if flags.as_ref().is_ok_and(|f| f.contains_key("help")) {
        return Ok(Command::Help);
    }
    match cmd.as_str() {
        "generate" => {
            let flags = flags?;
            Ok(Command::Generate {
                scale: flags
                    .get("scale")
                    .cloned()
                    .unwrap_or_else(|| "small".into()),
                seed: num(&flags, "seed", 0u64)?,
                out: PathBuf::from(required(&flags, "out")?),
                labels_out: flags.get("labels-out").map(PathBuf::from),
            })
        }
        "stats" => {
            let flags = flags?;
            Ok(Command::Stats {
                graph: PathBuf::from(required(&flags, "graph")?),
            })
        }
        "query" => {
            let flags = flags?;
            Ok(Command::Query {
                graph: PathBuf::from(required(&flags, "graph")?),
                labels: flags.get("labels").map(PathBuf::from),
                queries: required(&flags, "queries")?,
                query_type: parse_query_type(
                    flags.get("type").map(String::as_str).unwrap_or("and"),
                )?,
                budget: num(&flags, "budget", 20usize)?,
                alpha: num(&flags, "alpha", 0.5f64)?,
                dot: flags.get("dot").map(PathBuf::from),
                json: flags.contains_key("json"),
                push: flags
                    .get("push")
                    .map(|v| {
                        v.parse::<f64>()
                            .map_err(|_| CliError(format!("bad push threshold {v:?}")))
                    })
                    .transpose()?,
                threads: num(&flags, "threads", 1usize)?,
                precision: parse_precision(&flags)?,
                profile: flags.contains_key("profile"),
                profile_out: flags.get("profile-out").map(PathBuf::from),
            })
        }
        "serve" => {
            let flags = flags?;
            let repeat: f64 = num(&flags, "repeat", 0.5f64)?;
            if !(0.0..=1.0).contains(&repeat) {
                return Err(CliError(format!("--repeat {repeat} must lie in [0, 1]")));
            }
            let trace_sample: f64 = num(&flags, "trace-sample", 1.0f64)?;
            if !(0.0..=1.0).contains(&trace_sample) {
                return Err(CliError(format!(
                    "--trace-sample {trace_sample} must lie in [0, 1]"
                )));
            }
            let metrics_interval_ms: u64 = num(&flags, "metrics-interval", 500u64)?;
            if metrics_interval_ms == 0 {
                return Err(CliError("--metrics-interval must be at least 1 ms".into()));
            }
            let warm_frac: f64 = num(&flags, "warm-frac", 0.0f64)?;
            if !(0.0..=1.0).contains(&warm_frac) {
                return Err(CliError(format!(
                    "--warm-frac {warm_frac} must lie in [0, 1]"
                )));
            }
            Ok(Command::Serve {
                graph: PathBuf::from(required(&flags, "graph")?),
                requests: num(&flags, "requests", 64usize)?,
                queries_per: num(&flags, "queries-per", 3usize)?,
                workers: num(&flags, "workers", 4usize)?,
                repeat,
                budget: num(&flags, "budget", 20usize)?,
                alpha: num(&flags, "alpha", 0.5f64)?,
                cache_mb: num(&flags, "cache-mb", 64usize)?,
                warm_frac,
                seed: num(&flags, "seed", 0u64)?,
                threads: num(&flags, "threads", 1usize)?,
                precision: parse_precision(&flags)?,
                json: flags.contains_key("json"),
                profile: flags.contains_key("profile"),
                profile_out: flags.get("profile-out").map(PathBuf::from),
                metrics_out: flags.get("metrics-out").map(PathBuf::from),
                metrics_interval_ms,
                trace_out: flags.get("trace-out").map(PathBuf::from),
                trace_sample,
                listen: flags.get("listen").cloned(),
                flight_out: flags.get("flight-out").map(PathBuf::from),
            })
        }
        "client" => {
            let flags = flags?;
            let mut actions = Vec::new();
            if let Some(q) = flags.get("queries") {
                actions.push(ClientAction::Query(q.clone()));
            }
            if let Some(q) = flags.get("autok") {
                actions.push(ClientAction::AutoK(q.clone()));
            }
            if flags.contains_key("stdin") {
                actions.push(ClientAction::Stdin);
            }
            if flags.contains_key("ping") {
                actions.push(ClientAction::Ping);
            }
            if flags.contains_key("stats") {
                actions.push(ClientAction::Stats);
            }
            if flags.contains_key("dump-flight") {
                actions.push(ClientAction::DumpFlight);
            }
            if flags.contains_key("shutdown") {
                actions.push(ClientAction::Shutdown);
            }
            let action = match actions.len() {
                0 => {
                    return Err(CliError(
                        "client needs exactly one action: --queries, --stdin, --autok, \
                         --ping, --stats, --dump-flight or --shutdown"
                            .into(),
                    ))
                }
                1 => actions.pop().expect("len checked"),
                _ => {
                    return Err(CliError(
                        "client takes one action at a time (got several of --queries/\
                         --stdin/--autok/--ping/--stats/--dump-flight/--shutdown)"
                            .into(),
                    ))
                }
            };
            Ok(Command::Client {
                connect: required(&flags, "connect")?,
                action,
                json: flags.contains_key("json"),
                timeout_ms: num(&flags, "timeout", 30_000u64)?,
                trace_out: flags.get("trace-out").map(PathBuf::from),
            })
        }
        "loadgen" => {
            let flags = flags?;
            let arrival_str = flags
                .get("arrival")
                .map(String::as_str)
                .unwrap_or("poisson");
            let arrival = ArrivalKind::parse(arrival_str).ok_or_else(|| {
                CliError(format!(
                    "bad value for --arrival: {arrival_str:?} (poisson|constant)"
                ))
            })?;
            let rps: f64 = num(&flags, "rps", 100.0f64)?;
            if rps <= 0.0 {
                return Err(CliError(format!("--rps {rps} must be positive")));
            }
            let duration_s: f64 = num(&flags, "duration", 10.0f64)?;
            let warmup_s: f64 = num(&flags, "warmup", (duration_s / 5.0).min(2.0))?;
            if !(0.0..duration_s).contains(&warmup_s) {
                return Err(CliError(format!(
                    "--warmup {warmup_s} must leave a measurement window inside \
                     --duration {duration_s}"
                )));
            }
            let repeat: f64 = num(&flags, "repeat", 0.3f64)?;
            if !(0.0..=1.0).contains(&repeat) {
                return Err(CliError(format!("--repeat {repeat} must lie in [0, 1]")));
            }
            let mix_str = flags.get("mix").map(String::as_str).unwrap_or("uniform");
            let mix = MixKind::parse(mix_str).ok_or_else(|| {
                CliError(format!("bad value for --mix: {mix_str:?} (uniform|hubs)"))
            })?;
            let pool_size: usize = num(&flags, "pool-size", DEFAULT_HOT_POOL)?;
            if pool_size == 0 {
                return Err(CliError("--pool-size must be at least 1".into()));
            }
            Ok(Command::Loadgen {
                connect: required(&flags, "connect")?,
                rps,
                duration_s,
                warmup_s,
                arrival,
                connections: num(&flags, "connections", 4usize)?,
                queries_per: num(&flags, "queries-per", 3usize)?,
                node_space: num(&flags, "nodes", 1000usize)?,
                repeat,
                mix,
                pool_size,
                seed: num(&flags, "seed", 42u64)?,
                slo_p99_ms: num(&flags, "slo-p99-ms", 100.0f64)?,
                max_error_rate: num(&flags, "max-error-rate", 0.01f64)?,
                search: flags.contains_key("search"),
                json: flags.contains_key("json"),
                out: flags.get("out").map(PathBuf::from),
            })
        }
        "autok" => {
            let flags = flags?;
            Ok(Command::AutoK {
                graph: PathBuf::from(required(&flags, "graph")?),
                labels: flags.get("labels").map(PathBuf::from),
                queries: required(&flags, "queries")?,
                alpha: num(&flags, "alpha", 0.5f64)?,
                threads: num(&flags, "threads", 1usize)?,
            })
        }
        "import" => {
            let flags = flags?;
            Ok(Command::Import {
                pairs: PathBuf::from(required(&flags, "pairs")?),
                out: PathBuf::from(required(&flags, "out")?),
                labels_out: PathBuf::from(required(&flags, "labels-out")?),
            })
        }
        "partition" => {
            let flags = flags?;
            Ok(Command::Partition {
                graph: PathBuf::from(required(&flags, "graph")?),
                parts: num(&flags, "parts", 0usize).and_then(|p| {
                    if p == 0 {
                        Err(CliError("missing or zero --parts".into()))
                    } else {
                        Ok(p)
                    }
                })?,
                seed: num(&flags, "seed", 0u64)?,
                out: PathBuf::from(required(&flags, "out")?),
            })
        }
        other => Err(CliError(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
        // `--help` / `-h` after any subcommand prints usage too.
        for cmd in [
            "generate",
            "stats",
            "query",
            "partition",
            "serve",
            "client",
            "loadgen",
            "autok",
            "import",
        ] {
            for flag in ["--help", "-h"] {
                assert_eq!(
                    parse(&v(&[cmd, flag])).unwrap(),
                    Command::Help,
                    "{cmd} {flag}"
                );
            }
        }
        // Anywhere in the flag list, even after required flags.
        assert_eq!(
            parse(&v(&["query", "--graph", "g", "--help"])).unwrap(),
            Command::Help
        );
        // As the value of a flag, "-h" stays a value.
        assert!(parse(&v(&["query", "--graph", "-h"])).is_err());
    }

    #[test]
    fn generate_defaults_and_overrides() {
        let c = parse(&v(&["generate", "--out", "g.txt"])).unwrap();
        match c {
            Command::Generate {
                scale,
                seed,
                out,
                labels_out,
            } => {
                assert_eq!(scale, "small");
                assert_eq!(seed, 0);
                assert_eq!(out, PathBuf::from("g.txt"));
                assert!(labels_out.is_none());
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&v(&[
            "generate",
            "--scale",
            "tiny",
            "--seed",
            "9",
            "--out",
            "g",
            "--labels-out",
            "l",
        ]))
        .unwrap();
        assert!(matches!(c, Command::Generate { seed: 9, .. }));
    }

    #[test]
    fn query_parses_types() {
        let base = ["query", "--graph", "g", "--queries", "0,1"];
        let c = parse(&v(&base)).unwrap();
        assert!(matches!(
            c,
            Command::Query {
                query_type: QueryType::And,
                budget: 20,
                ..
            }
        ));

        let mut with_type = v(&base);
        with_type.extend(v(&["--type", "softand:2", "--budget", "5", "--json"]));
        let c = parse(&with_type).unwrap();
        match c {
            Command::Query {
                query_type,
                budget,
                json,
                ..
            } => {
                assert_eq!(query_type, QueryType::SoftAnd(2));
                assert_eq!(budget, 5);
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn profile_flags_parse_on_query_and_serve() {
        let c = parse(&v(&["query", "--graph", "g", "--queries", "0,1"])).unwrap();
        assert!(matches!(
            c,
            Command::Query {
                profile: false,
                profile_out: None,
                ..
            }
        ));
        let c = parse(&v(&[
            "query",
            "--graph",
            "g",
            "--queries",
            "0,1",
            "--profile",
        ]))
        .unwrap();
        assert!(matches!(c, Command::Query { profile: true, .. }));
        let c = parse(&v(&[
            "serve",
            "--graph",
            "g",
            "--profile",
            "--profile-out",
            "/tmp/p.json",
        ]))
        .unwrap();
        match c {
            Command::Serve {
                profile,
                profile_out,
                ..
            } => {
                assert!(profile);
                assert_eq!(profile_out, Some(PathBuf::from("/tmp/p.json")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_defaults_and_bounds() {
        let c = parse(&v(&["serve", "--graph", "g"])).unwrap();
        match c {
            Command::Serve {
                requests,
                queries_per,
                workers,
                repeat,
                cache_mb,
                json,
                ..
            } => {
                assert_eq!(requests, 64);
                assert_eq!(queries_per, 3);
                assert_eq!(workers, 4);
                assert_eq!(repeat, 0.5);
                assert_eq!(cache_mb, 64);
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&v(&[
            "serve",
            "--graph",
            "g",
            "--repeat",
            "0.9",
            "--cache-mb",
            "0",
            "--json",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                cache_mb: 0,
                json: true,
                ..
            }
        ));
        assert!(parse(&v(&["serve", "--graph", "g", "--repeat", "1.5"]))
            .unwrap_err()
            .0
            .contains("--repeat"));
        assert!(parse(&v(&["serve"])).unwrap_err().0.contains("--graph"));
    }

    #[test]
    fn serve_warming_flag_parses_with_bounds() {
        let c = parse(&v(&["serve", "--graph", "g"])).unwrap();
        match c {
            Command::Serve { warm_frac, .. } => {
                assert_eq!(warm_frac, 0.0, "warming defaults to off")
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&v(&["serve", "--graph", "g", "--warm-frac", "0.25"])).unwrap();
        match c {
            Command::Serve { warm_frac, .. } => assert_eq!(warm_frac, 0.25),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["serve", "--graph", "g", "--warm-frac", "1.5"]))
            .unwrap_err()
            .0
            .contains("--warm-frac"));
    }

    #[test]
    fn serve_telemetry_flags_parse_with_defaults_and_bounds() {
        let c = parse(&v(&["serve", "--graph", "g"])).unwrap();
        match c {
            Command::Serve {
                metrics_out,
                metrics_interval_ms,
                trace_out,
                trace_sample,
                ..
            } => {
                assert!(metrics_out.is_none());
                assert_eq!(metrics_interval_ms, 500);
                assert!(trace_out.is_none());
                assert_eq!(trace_sample, 1.0);
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&v(&[
            "serve",
            "--graph",
            "g",
            "--metrics-out",
            "m.prom",
            "--metrics-interval",
            "250",
            "--trace-out",
            "t.jsonl",
            "--trace-sample",
            "0.1",
        ]))
        .unwrap();
        match c {
            Command::Serve {
                metrics_out,
                metrics_interval_ms,
                trace_out,
                trace_sample,
                ..
            } => {
                assert_eq!(metrics_out, Some(PathBuf::from("m.prom")));
                assert_eq!(metrics_interval_ms, 250);
                assert_eq!(trace_out, Some(PathBuf::from("t.jsonl")));
                assert_eq!(trace_sample, 0.1);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse(&v(&["serve", "--graph", "g", "--trace-sample", "1.5"]))
                .unwrap_err()
                .0
                .contains("--trace-sample")
        );
        assert!(
            parse(&v(&["serve", "--graph", "g", "--metrics-interval", "0"]))
                .unwrap_err()
                .0
                .contains("--metrics-interval")
        );
    }

    #[test]
    fn precision_flag_parses_on_query_and_serve() {
        let c = parse(&v(&["query", "--graph", "g", "--queries", "0,1"])).unwrap();
        assert!(matches!(
            c,
            Command::Query {
                precision: Precision::F64,
                ..
            }
        ));
        let c = parse(&v(&[
            "query",
            "--graph",
            "g",
            "--queries",
            "0,1",
            "--precision",
            "f32",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Query {
                precision: Precision::F32,
                ..
            }
        ));
        let c = parse(&v(&["serve", "--graph", "g", "--precision", "f32"])).unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                precision: Precision::F32,
                ..
            }
        ));
        assert!(parse(&v(&[
            "query",
            "--graph",
            "g",
            "--queries",
            "0",
            "--precision",
            "f16"
        ]))
        .unwrap_err()
        .0
        .contains("--precision"));
    }

    #[test]
    fn autok_and_import_parse() {
        let c = parse(&v(&["autok", "--graph", "g", "--queries", "a,b"])).unwrap();
        assert!(matches!(c, Command::AutoK { .. }));
        let c = parse(&v(&[
            "import",
            "--pairs",
            "p.tsv",
            "--out",
            "g.txt",
            "--labels-out",
            "l.txt",
        ]))
        .unwrap();
        assert!(matches!(c, Command::Import { .. }));
        assert!(parse(&v(&["import", "--pairs", "p"])).is_err());
    }

    #[test]
    fn serve_listen_and_client_parse() {
        let c = parse(&v(&["serve", "--graph", "g"])).unwrap();
        assert!(matches!(c, Command::Serve { listen: None, .. }));
        let c = parse(&v(&[
            "serve",
            "--graph",
            "g",
            "--listen",
            "unix:///tmp/c.sock",
        ]))
        .unwrap();
        match c {
            Command::Serve { listen, .. } => {
                assert_eq!(listen.as_deref(), Some("unix:///tmp/c.sock"))
            }
            other => panic!("{other:?}"),
        }

        let c = parse(&v(&[
            "client",
            "--connect",
            "/tmp/c.sock",
            "--queries",
            "0,4",
        ]))
        .unwrap();
        match c {
            Command::Client {
                connect,
                action,
                json,
                timeout_ms,
                trace_out,
            } => {
                assert_eq!(connect, "/tmp/c.sock");
                assert_eq!(action, ClientAction::Query("0,4".into()));
                assert!(!json);
                assert_eq!(timeout_ms, 30_000);
                assert!(trace_out.is_none());
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&v(&[
            "client",
            "--connect",
            "tcp://127.0.0.1:7070",
            "--ping",
            "--json",
            "--timeout",
            "500",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Client {
                action: ClientAction::Ping,
                json: true,
                timeout_ms: 500,
                ..
            }
        ));
        for flag in ["--stdin", "--stats", "--dump-flight", "--shutdown"] {
            let c = parse(&v(&["client", "--connect", "a", flag])).unwrap();
            assert!(matches!(c, Command::Client { .. }));
        }
        let c = parse(&v(&["client", "--connect", "a", "--autok", "1,2,3"])).unwrap();
        assert!(matches!(
            c,
            Command::Client {
                action: ClientAction::AutoK(_),
                ..
            }
        ));

        // Exactly one action.
        assert!(parse(&v(&["client", "--connect", "a"]))
            .unwrap_err()
            .0
            .contains("exactly one action"));
        assert!(
            parse(&v(&["client", "--connect", "a", "--ping", "--stats"]))
                .unwrap_err()
                .0
                .contains("one action at a time")
        );
        assert!(parse(&v(&["client", "--ping"]))
            .unwrap_err()
            .0
            .contains("--connect"));
    }

    #[test]
    fn tracing_and_flight_flags_parse() {
        let c = parse(&v(&["serve", "--graph", "g"])).unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                flight_out: None,
                ..
            }
        ));
        let c = parse(&v(&[
            "serve",
            "--graph",
            "g",
            "--listen",
            "unix:///tmp/c.sock",
            "--flight-out",
            "flight.jsonl",
        ]))
        .unwrap();
        match c {
            Command::Serve { flight_out, .. } => {
                assert_eq!(flight_out, Some(PathBuf::from("flight.jsonl")))
            }
            other => panic!("{other:?}"),
        }

        let c = parse(&v(&["client", "--connect", "a", "--dump-flight"])).unwrap();
        assert!(matches!(
            c,
            Command::Client {
                action: ClientAction::DumpFlight,
                ..
            }
        ));
        let c = parse(&v(&[
            "client",
            "--connect",
            "a",
            "--queries",
            "0,4",
            "--trace-out",
            "client-trace.jsonl",
        ]))
        .unwrap();
        match c {
            Command::Client { trace_out, .. } => {
                assert_eq!(trace_out, Some(PathBuf::from("client-trace.jsonl")))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loadgen_defaults_overrides_and_bounds() {
        let c = parse(&v(&["loadgen", "--connect", "unix:///tmp/c.sock"])).unwrap();
        match c {
            Command::Loadgen {
                connect,
                rps,
                duration_s,
                warmup_s,
                arrival,
                connections,
                search,
                json,
                out,
                ..
            } => {
                assert_eq!(connect, "unix:///tmp/c.sock");
                assert_eq!(rps, 100.0);
                assert_eq!(duration_s, 10.0);
                assert_eq!(warmup_s, 2.0);
                assert_eq!(arrival, ArrivalKind::Poisson);
                assert_eq!(connections, 4);
                assert!(!search && !json);
                assert!(out.is_none());
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&v(&[
            "loadgen",
            "--connect",
            "a",
            "--rps",
            "500",
            "--duration",
            "4",
            "--warmup",
            "1",
            "--arrival",
            "constant",
            "--connections",
            "8",
            "--slo-p99-ms",
            "25",
            "--search",
            "--json",
            "--out",
            "curve.json",
        ]))
        .unwrap();
        match c {
            Command::Loadgen {
                rps,
                duration_s,
                warmup_s,
                arrival,
                connections,
                slo_p99_ms,
                search,
                json,
                out,
                ..
            } => {
                assert_eq!(rps, 500.0);
                assert_eq!(duration_s, 4.0);
                assert_eq!(warmup_s, 1.0);
                assert_eq!(arrival, ArrivalKind::Constant);
                assert_eq!(connections, 8);
                assert_eq!(slo_p99_ms, 25.0);
                assert!(search && json);
                assert_eq!(out, Some(PathBuf::from("curve.json")));
            }
            other => panic!("{other:?}"),
        }

        // Query-mix flags: uniform with the default pool unless asked.
        let c = parse(&v(&["loadgen", "--connect", "a"])).unwrap();
        assert!(matches!(
            c,
            Command::Loadgen {
                mix: MixKind::Uniform,
                pool_size: DEFAULT_HOT_POOL,
                ..
            }
        ));
        let c = parse(&v(&[
            "loadgen",
            "--connect",
            "a",
            "--mix",
            "hubs",
            "--pool-size",
            "48",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Loadgen {
                mix: MixKind::Hubs,
                pool_size: 48,
                ..
            }
        ));
        assert!(parse(&v(&["loadgen", "--connect", "a", "--mix", "zipf"]))
            .unwrap_err()
            .0
            .contains("--mix"));
        assert!(
            parse(&v(&["loadgen", "--connect", "a", "--pool-size", "0"]))
                .unwrap_err()
                .0
                .contains("--pool-size")
        );

        assert!(parse(&v(&["loadgen"])).unwrap_err().0.contains("--connect"));
        assert!(
            parse(&v(&["loadgen", "--connect", "a", "--arrival", "uniform"]))
                .unwrap_err()
                .0
                .contains("--arrival")
        );
        assert!(parse(&v(&["loadgen", "--connect", "a", "--rps", "0"]))
            .unwrap_err()
            .0
            .contains("--rps"));
        assert!(parse(&v(&[
            "loadgen",
            "--connect",
            "a",
            "--duration",
            "2",
            "--warmup",
            "2"
        ]))
        .unwrap_err()
        .0
        .contains("--warmup"));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&v(&["bogus"]))
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(parse(&v(&["stats"])).unwrap_err().0.contains("--graph"));
        assert!(parse(&v(&[
            "query",
            "--graph",
            "g",
            "--queries",
            "a",
            "--type",
            "nand"
        ]))
        .unwrap_err()
        .0
        .contains("unknown query type"));
        assert!(parse(&v(&["partition", "--graph", "g", "--out", "o"]))
            .unwrap_err()
            .0
            .contains("--parts"));
        assert!(parse(&v(&["stats", "--graph"]))
            .unwrap_err()
            .0
            .contains("needs a value"));
    }
}
