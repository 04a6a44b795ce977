//! The `hubs` and `cold` workloads: a `CepsServer` on a Unix socket in
//! this process, driven open-loop over two client lanes.
//!
//! Each run has three phases, all from one seeded schedule built with
//! `ceps_load::arrival_schedule` and one `ceps_load::QueryMix` stream:
//! a warm-up, a nominal phase at a fixed Poisson rate far below capacity
//! (open-loop latency, charged to each request's intended send time), and
//! a saturation phase at a rate far above it (round trips and throughput
//! with both lanes busy: the gated figures). Each lane keeps one request
//! in flight. The saturation phase is split into segments, each served by
//! a freshly booted server instance, and the gated figures are trimmed
//! means over the segments: on a shared host, two instances booted one
//! after the other differ by up to a quarter (likely with where their
//! graph, engine and cache land in memory), and an average over instances
//! does not.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ceps_bench::Scale;
use ceps_core::{CepsConfig, CepsEngine, CepsServiceBuilder, ServeRequest};
use ceps_graph::NodeId;
use ceps_load::{arrival_schedule, splitmix64, ArrivalKind, MixKind, QueryMix};
use ceps_net::{
    CepsClient, CepsServer, Reply, ServerConfig, ServerStats, UnixTransport, WireErrorKind,
};
use ceps_rwr::RwrRowCache;

use crate::layers::{wire_codec, LayerTally, Layers};
use crate::stats::{median, percentile, sorted, trimmed_mean};
use crate::trace::{Ledger, Recorder};
use crate::{check_replies, peak_rss_mb, pool_speedup, Metric, Outcome, SetupTimes};

/// Client lanes (connections); each keeps one request in flight.
pub const LANES: usize = 2;
/// Server connection workers, as `ceps serve` is run here.
const WORKERS: usize = 2;
/// Query nodes per request (the paper's `Q`).
pub const QUERIES_PER: usize = 3;
/// Hot-pool width of the hub-skewed mix.
const HOT_POOL: usize = 32;
/// Shares of the measured seconds: warm-up and nominal (both on the first
/// server instance), and saturation (split over the instances).
const WARMUP_SHARE: f64 = 0.05;
const NOMINAL_SHARE: f64 = 0.2;
const SATURATION_SHARE: f64 = 0.75;
/// Saturation segments, each on a freshly booted server instance.
pub const SEGMENTS: usize = 8;
/// The head of each saturation segment that is not counted: it fills a
/// fresh instance's row cache and gets both lanes going.
const SEGMENT_WARM_SHARE: f64 = 0.15;
/// Decorrelates the saturation schedule from the nominal one.
const SATURATION_SALT: u64 = 0x5a7_0ad5;
/// The run is invalid when the generator's own lateness (time from when a
/// request could first have gone out to when it did) has a p99 above this.
pub const LAG_LIMIT_MS: f64 = 50.0;
/// Reply deadline per request; a timeout counts as a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub scale: Scale,
    pub mix: MixKind,
    pub repeat: f64,
    pub nominal_rps: f64,
    pub saturation_rps: f64,
    /// The percentile reported as `tail_ms`, fixed per workload so it keeps
    /// at least ten samples beyond it.
    pub tail_pct: f64,
    /// Independent query streams interleaved into one schedule; under the
    /// hub mix each has its own hot pool, so one seed's choice of hubs
    /// does not set the whole run's cost.
    pub streams: usize,
    pub setup_reps: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Warmup,
    Nominal,
    Saturation,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Warmup => "warmup",
            Phase::Nominal => "nominal",
            Phase::Saturation => "saturation",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub phase: Phase,
    /// The server instance that serves it: 0 for warm-up and nominal, the
    /// saturation segment's index otherwise.
    pub segment: usize,
    /// Intended send time, seconds from the start of its phase.
    pub offset_s: f64,
    pub queries: Vec<NodeId>,
}

/// The generated inputs of one run: a pure function of the seed.
pub fn inputs(spec: &ServeSpec, node_space: usize, seed: u64, seconds: f64) -> Vec<Item> {
    let warm_s = seconds * WARMUP_SHARE;
    let nominal = arrival_schedule(
        ArrivalKind::Poisson,
        spec.nominal_rps,
        seconds * (WARMUP_SHARE + NOMINAL_SHARE),
        seed,
    );
    let segment_s = seconds * SATURATION_SHARE / SEGMENTS as f64;
    // Independent client populations, each with its own seeded stream
    // (and, under the hub mix, its own hot pool), served in turn.
    let mut sub = seed;
    let mut mixes: Vec<QueryMix> = (0..spec.streams.max(1))
        .map(|_| {
            let s = splitmix64(&mut sub);
            QueryMix::with_mix(node_space, QUERIES_PER, spec.repeat, s, spec.mix, HOT_POOL)
        })
        .collect();
    let mut drawn = 0usize;
    let mut next = |phase, segment, offset_s| {
        let mix = &mut mixes[drawn % spec.streams.max(1)];
        drawn += 1;
        Item {
            phase,
            segment,
            offset_s,
            queries: mix
                .next_query()
                .into_iter()
                .map(|n| NodeId(n as u32))
                .collect(),
        }
    };
    let mut items: Vec<Item> = nominal
        .into_iter()
        .map(|t| {
            next(
                if t < warm_s {
                    Phase::Warmup
                } else {
                    Phase::Nominal
                },
                0,
                t,
            )
        })
        .collect();
    for k in 0..SEGMENTS {
        let saturation = arrival_schedule(
            ArrivalKind::Poisson,
            spec.saturation_rps,
            segment_s,
            seed ^ SATURATION_SALT ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        items.extend(
            saturation
                .into_iter()
                .map(|t| next(Phase::Saturation, k, t)),
        );
    }
    items
}

/// A running server and what it took to get it there.
struct Booted {
    server: Arc<CepsServer>,
    thread: JoinHandle<std::io::Result<ServerStats>>,
    sock: PathBuf,
    times: SetupTimes,
}

impl Booted {
    fn engine(&self) -> &CepsEngine {
        self.server.service().engine()
    }

    fn stop(self) {
        self.server.request_stop();
        let _ = self.thread.join().expect("server thread panicked");
    }
}

/// Set-up: datagen, `CepsEngine::new`, service build and server boot, up
/// to the first answered ping. `ceps serve` defaults: 64 MiB row cache, no
/// coalescing, no warming, engine `threads(1)`.
fn boot(scale: Scale, dir: &Path, rep: usize) -> Result<Booted, String> {
    let t0 = Instant::now();
    let graph = scale.config().generate().into_graph();
    let t1 = Instant::now();
    let cfg = CepsConfig::default().budget(crate::BUDGET).threads(1);
    let engine = CepsEngine::new(graph, cfg).map_err(|e| format!("engine: {e}"))?;
    let t2 = Instant::now();
    let op_mb = engine.transition().memory_bytes() as f64 / (1 << 20) as f64;
    let service = CepsServiceBuilder::new()
        .cache_bytes(ceps_core::serve::DEFAULT_CACHE_BYTES)
        .workers(WORKERS)
        .build(engine);
    let server = Arc::new(CepsServer::new(
        service,
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    ));
    let sock = dir.join(format!("s{rep}.sock"));
    let mut transport =
        UnixTransport::bind(&sock).map_err(|e| format!("bind {}: {e}", sock.display()))?;
    let srv = Arc::clone(&server);
    let thread = std::thread::spawn(move || srv.serve(&mut transport));
    let mut probe = CepsClient::connect_unix(&sock).map_err(|e| format!("connect: {e}"))?;
    probe.ping().map_err(|e| format!("ping: {e}"))?;
    drop(probe);
    let t3 = Instant::now();
    Ok(Booted {
        server,
        thread,
        sock,
        times: SetupTimes {
            total_s: (t3 - t0).as_secs_f64(),
            datagen_s: (t1 - t0).as_secs_f64(),
            engine_s: (t2 - t1).as_secs_f64(),
            boot_s: (t3 - t2).as_secs_f64(),
            op_mb,
        },
    })
}

/// How one request ended.
#[derive(Debug, Clone)]
enum Result_ {
    /// The reply's [`digest`](crate::digest).
    Ok(u64),
    Shed,
    Error(String),
}

/// One sent request, timestamped by its lane.
#[derive(Debug, Clone)]
struct Sample {
    idx: usize,
    intended: Instant,
    /// When the lane could first have sent it: its intended time, or the
    /// previous reply on the lane if that came later.
    ready: Instant,
    send: Instant,
    recv: Instant,
    result: Result_,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.recv - self.intended).as_secs_f64() * 1e3
    }

    fn rtt_ms(&self) -> f64 {
        (self.recv - self.send).as_secs_f64() * 1e3
    }

    fn own_lag_ms(&self) -> f64 {
        self.send
            .saturating_duration_since(self.ready)
            .as_secs_f64()
            * 1e3
    }
}

/// Fires one phase's items over the lanes from `base`: each lane takes
/// the next unsent item in schedule order as soon as it is free (one
/// request in flight per lane); with a `deadline`, lanes stop sending once
/// it passes.
fn run_phase(
    clients: &mut [CepsClient],
    items: &[Item],
    idxs: &[usize],
    deadline: Option<Instant>,
    rec: Option<&mut Recorder>,
) -> Vec<Sample> {
    let base = Instant::now();
    let traced = rec.is_some();
    let cursor = AtomicUsize::new(0);
    let mut samples = Vec::with_capacity(idxs.len());
    let mut recorders = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut lane_rec = traced.then(|| Recorder::new(crate::epoch()));
                    let mut out = Vec::new();
                    let mut prev_recv = base;
                    while let Some(&idx) = idxs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let item = &items[idx];
                        let intended = base + Duration::from_secs_f64(item.offset_s);
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let now = Instant::now();
                        if intended > now {
                            std::thread::sleep(intended - now);
                        }
                        let ready = intended.max(prev_recv);
                        let send = Instant::now();
                        let req = ServeRequest::new(item.queries.clone());
                        let (result, dead) = match client.send_request(&req) {
                            Ok(id) => match client.recv_reply() {
                                Ok(Reply::Scores { id: rid, reply }) if rid == id => {
                                    (Result_::Ok(crate::digest(&reply)), false)
                                }
                                Ok(Reply::Error { error, .. })
                                    if error.kind == WireErrorKind::Overloaded =>
                                {
                                    (Result_::Shed, false)
                                }
                                Ok(other) => {
                                    (Result_::Error(format!("unexpected reply {other:?}")), false)
                                }
                                Err(e) => (Result_::Error(format!("recv: {e}")), true),
                            },
                            Err(e) => (Result_::Error(format!("send: {e}")), true),
                        };
                        let recv = Instant::now();
                        prev_recv = recv;
                        if let Some(r) = lane_rec.as_mut() {
                            let request = idx as u64 + 1;
                            let root = r.record(request, None, "request", intended, recv);
                            r.record(request, Some(root), "load.wait", intended, send);
                            r.record(request, Some(root), "net.rtt", send, recv);
                        }
                        out.push(Sample {
                            idx,
                            intended,
                            ready,
                            send,
                            recv,
                            result,
                        });
                        if dead {
                            break;
                        }
                    }
                    (out, lane_rec)
                })
            })
            .collect();
        for h in handles {
            let (out, lane_rec) = h.join().expect("lane panicked");
            samples.extend(out);
            recorders.extend(lane_rec);
        }
    });
    if let Some(rec) = rec {
        for r in recorders {
            rec.absorb(r);
        }
    }
    samples
}

/// Everything one pass over the schedule produced.
struct Pass {
    samples: Vec<Sample>,
    /// Per saturation segment: the start of its counted window and its
    /// deadline.
    windows: Vec<(Instant, Instant)>,
    /// The `Stats` reply of each instance, in segment order.
    stats: Vec<ServerStats>,
}

fn connect(sock: &Path) -> Result<CepsClient, String> {
    let mut c = CepsClient::connect_unix(sock).map_err(|e| format!("connect: {e}"))?;
    c.set_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    Ok(c)
}

/// Runs the whole schedule: warm-up, nominal and the first saturation
/// segment on one freshly booted instance, then each further segment on
/// its own. Instances boot with sockets `s{first_rep}.sock` onwards.
fn pass(
    spec: &ServeSpec,
    items: &[Item],
    seconds: f64,
    dir: &Path,
    first_rep: usize,
    mut rec: Option<&mut Recorder>,
) -> Result<Pass, String> {
    let of = |phases: &[Phase], segment: usize| -> Vec<usize> {
        (0..items.len())
            .filter(|&i| phases.contains(&items[i].phase) && items[i].segment == segment)
            .collect()
    };
    let segment_s = seconds * SATURATION_SHARE / SEGMENTS as f64;
    let mut samples = Vec::new();
    let mut windows = Vec::new();
    let mut stats = Vec::new();
    for k in 0..SEGMENTS {
        let booted = boot(spec.scale, dir, first_rep + k)?;
        let mut clients = (0..LANES)
            .map(|_| connect(&booted.sock))
            .collect::<Result<Vec<_>, _>>()?;
        if k == 0 {
            samples.extend(run_phase(
                &mut clients,
                items,
                &of(&[Phase::Warmup, Phase::Nominal], 0),
                None,
                rec.as_deref_mut(),
            ));
        }
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(segment_s);
        samples.extend(run_phase(
            &mut clients,
            items,
            &of(&[Phase::Saturation], k),
            Some(deadline),
            rec.as_deref_mut(),
        ));
        windows.push((
            start + Duration::from_secs_f64(segment_s * SEGMENT_WARM_SHARE),
            deadline,
        ));
        drop(clients);
        stats.push(
            connect(&booted.sock)?
                .stats()
                .map_err(|e| format!("stats: {e}"))?,
        );
        booted.stop();
    }
    Ok(Pass {
        samples,
        windows,
        stats,
    })
}

/// Sent vs scheduled and the generator's own lateness, per phase; an
/// error when the generator fell behind its own schedule.
fn validity(items: &[Item], samples: &[Sample], report: &mut String) -> Result<(), String> {
    let mut invalid = Vec::new();
    for phase in [Phase::Warmup, Phase::Nominal, Phase::Saturation] {
        let scheduled = items.iter().filter(|i| i.phase == phase).count();
        let lags: Vec<f64> = samples
            .iter()
            .filter(|s| items[s.idx].phase == phase)
            .map(Sample::own_lag_ms)
            .collect();
        let lags = sorted(&lags);
        let lag_p99 = percentile(&lags, 99.0);
        report.push_str(&format!(
            "generator [{}]: scheduled {scheduled}, sent {}, own send lag p50 {:.4} p90 {:.4} p99 {lag_p99:.4} max {:.4} ms\n",
            phase.name(),
            lags.len(),
            percentile(&lags, 50.0),
            percentile(&lags, 90.0),
            percentile(&lags, 100.0),
        ));
        if lag_p99 > LAG_LIMIT_MS {
            invalid.push(format!(
                "{} send lag p99 {lag_p99:.3} ms > {LAG_LIMIT_MS} ms",
                phase.name()
            ));
        }
        // The saturation phase stops at its deadline by design; the others
        // must send every scheduled request.
        if phase != Phase::Saturation && lags.len() < scheduled {
            invalid.push(format!(
                "{} sent {} of {scheduled} scheduled",
                phase.name(),
                lags.len()
            ));
        }
    }
    if invalid.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "run invalid, the generator fell behind: {}",
            invalid.join("; ")
        ))
    }
}

/// The generator's own send lag p99 (ms) of its worst phase.
fn worst_lag_p99(items: &[Item], samples: &[Sample]) -> f64 {
    [Phase::Warmup, Phase::Nominal, Phase::Saturation]
        .into_iter()
        .map(|phase| {
            let lags: Vec<f64> = samples
                .iter()
                .filter(|s| items[s.idx].phase == phase)
                .map(Sample::own_lag_ms)
                .collect();
            percentile(&sorted(&lags), 99.0)
        })
        .fold(0.0, f64::max)
}

/// The end-to-end figures of one pass, all from the saturation phase:
/// send-to-reply round-trip percentiles with both connections busy back to
/// back, and correct replies per second. Each is taken over the counted
/// window of every segment, and the trimmed mean over the segments
/// ([`trimmed_mean`]) is reported: an instance's figures sit at one of two
/// or three levels, so a median over a few instances would jump between
/// them from run to run.
/// Open-loop latency from the nominal phase is reported but not used here:
/// on a shared 2-vCPU host it swings with every host stall (see
/// `perfbench/README.md`).
struct Estimates {
    p50_ms: f64,
    tail_ms: f64,
    qps: f64,
    /// Per-segment p50 round trips, ms, in segment order.
    segment_p50_ms: Vec<f64>,
    /// Round trips counted over all segments.
    samples: usize,
}

fn estimates(spec: &ServeSpec, items: &[Item], pass: &Pass, correct: &[bool]) -> Estimates {
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut rates = Vec::new();
    let mut samples = 0;
    for (k, &(start, deadline)) in pass.windows.iter().enumerate() {
        let mut rtt = Vec::new();
        let mut done = 0usize;
        for (s, &ok) in pass.samples.iter().zip(correct) {
            let item = &items[s.idx];
            if item.phase != Phase::Saturation || item.segment != k {
                continue;
            }
            if s.recv > start && s.recv <= deadline {
                done += usize::from(ok);
                if s.send >= start {
                    rtt.push(s.rtt_ms());
                }
            }
        }
        let rtt = sorted(&rtt);
        samples += rtt.len();
        p50s.push(percentile(&rtt, 50.0));
        tails.push(percentile(&rtt, spec.tail_pct));
        rates.push(done as f64 / (deadline - start).as_secs_f64());
    }
    Estimates {
        p50_ms: trimmed_mean(&p50s),
        tail_ms: trimmed_mean(&tails),
        qps: trimmed_mean(&rates),
        segment_p50_ms: p50s,
        samples,
    }
}

/// Runs one serving workload.
pub fn run(
    name: &str,
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    dirs: &crate::Dirs,
) -> Result<Outcome, String> {
    let node_space = spec.scale.config().author_count();
    let items = inputs(spec, node_space, seed, seconds);
    let mut report = String::new();

    // Set up several times; keep the last engine for the reference check
    // and the replay. The passes boot instances of their own.
    let mut setups = Vec::new();
    let mut engine = None;
    for rep in 0..spec.setup_reps.max(1) {
        let b = boot(spec.scale, &dirs.tmp, rep)?;
        setups.push(b.times);
        engine = Some(b.engine().clone());
        b.stop();
    }
    let engine = engine.expect("at least one set-up");
    assert_eq!(engine.graph().node_count(), node_space, "preset node count");

    let reps = spec.setup_reps.max(1);
    let untraced = pass(spec, &items, seconds, &dirs.tmp, reps, None)?;
    let rss_mb = peak_rss_mb();
    validity(&items, &untraced.samples, &mut report)?;

    // Every distinct reply against an uncached, sequential reference.
    let ok: Vec<&Sample> = untraced
        .samples
        .iter()
        .filter(|s| matches!(s.result, Result_::Ok(_)))
        .collect();
    let replies: Vec<(&[NodeId], u64)> = ok
        .iter()
        .map(|s| match s.result {
            Result_::Ok(r) => (items[s.idx].queries.as_slice(), r),
            _ => unreachable!("filtered to Ok replies"),
        })
        .collect();
    let (mut check, good) = check_replies(&engine, &replies)?;

    let attempted = untraced.samples.len() as u64;
    let errors = attempted - ok.len() as u64;
    if let Some(first) = untraced.samples.iter().find_map(|s| match &s.result {
        Result_::Error(e) => Some(e.clone()),
        _ => None,
    }) {
        report.push_str(&format!("first transport error: {first}\n"));
    }
    let verdict: HashMap<usize, bool> = ok.iter().zip(&good).map(|(s, &g)| (s.idx, g)).collect();
    let correct: Vec<bool> = untraced
        .samples
        .iter()
        .map(|s| verdict.get(&s.idx).copied().unwrap_or(false))
        .collect();
    let est = estimates(spec, &items, &untraced, &correct);
    let lat = sorted(
        &untraced
            .samples
            .iter()
            .filter(|s| items[s.idx].phase == Phase::Nominal)
            .map(Sample::latency_ms)
            .collect::<Vec<_>>(),
    );
    report.push_str(&format!(
        "open loop [{name}]: nominal {} rps, {} samples, intended-time p50 {:.4} p75 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} p99.9 {:.4} ms\n",
        spec.nominal_rps,
        lat.len(),
        percentile(&lat, 50.0),
        percentile(&lat, 75.0),
        percentile(&lat, 90.0),
        percentile(&lat, 95.0),
        percentile(&lat, 99.0),
        percentile(&lat, 99.9),
    ));
    report.push_str(&format!(
        "saturation [{name}]: {} rps offered, {} segments on fresh instances, {} round trips counted; trimmed means over segments: p50 {:.4} ms, p{} {:.4} ms ({:.0} beyond it per segment), {:.3} correct replies/s\n",
        spec.saturation_rps,
        est.segment_p50_ms.len(),
        est.samples,
        est.p50_ms,
        spec.tail_pct,
        est.tail_ms,
        est.samples as f64 * (1.0 - spec.tail_pct / 100.0) / est.segment_p50_ms.len().max(1) as f64,
        est.qps,
    ));
    let per_segment: Vec<String> = est
        .segment_p50_ms
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect();
    report.push_str(&format!(
        "saturation [{name}]: p50 ms per segment {}\n",
        per_segment.join(" ")
    ));

    let median_setup =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let metrics = if !trace {
        vec![
            Metric::new("setup_s", median_setup(|s| s.total_s), "s"),
            Metric::new("p50_ms", est.p50_ms, "ms"),
            Metric::new("tail_ms", est.tail_ms, "ms"),
            Metric::new("qps", est.qps, "1/s"),
            Metric::new("peak_rss_mb", rss_mb, "MB"),
        ]
    } else {
        // A second pass of the same schedule on fresh instances, spans on.
        let mut rec = Recorder::new(crate::epoch());
        let traced = pass(
            spec,
            &items,
            seconds,
            &dirs.tmp,
            reps + SEGMENTS,
            Some(&mut rec),
        )?;
        validity(&items, &traced.samples, &mut report)?;
        let traced_p50 = estimates(spec, &items, &traced, &vec![true; traced.samples.len()]).p50_ms;

        // Replay every sent request in send order through the layers, with
        // the replay cache emptied where the pass moved to a fresh
        // instance, so it sees what each instance's cache saw.
        let mut order: Vec<&Sample> = traced.samples.iter().collect();
        order.sort_by_key(|s| s.send);
        let layers = Layers::new(
            &engine,
            Some(RwrRowCache::new(ceps_core::serve::DEFAULT_CACHE_BYTES)),
        );
        let rtt_span: HashMap<u64, u64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "net.rtt")
            .map(|s| (s.request, s.id))
            .collect();
        let mut tally = LayerTally::default();
        let mut overheads = Vec::new();
        let mut nominal_reqs = Vec::new();
        let cache = layers.cache().expect("serve replay is cached");
        let mut instances: Vec<(ceps_rwr::CacheStats, f64)> = Vec::new();
        let mut close_instance = || {
            instances.push((
                cache.stats(),
                cache.bytes() as f64 / cache.byte_budget() as f64,
            ));
            cache.clear();
        };
        let mut segment = 0;
        for s in &order {
            if items[s.idx].segment != segment {
                close_instance();
                segment = items[s.idx].segment;
            }
            let Result_::Ok(wire_reply) = s.result else {
                continue;
            };
            let req = s.idx as u64 + 1;
            let queries = &items[s.idx].queries;
            let mut one = LayerTally::default();
            let replay = rec.open(req, rtt_span.get(&req).copied(), "replay");
            let reply = layers.serve(queries, &mut rec, req, replay, &mut one);
            wire_codec(queries, &reply, &mut rec, req, replay, &mut one);
            rec.close(replay);
            if crate::digest(&reply) != wire_reply {
                check.wrong += 1;
                check.first.get_or_insert_with(|| queries.clone());
            }
            if items[s.idx].phase == Phase::Nominal {
                nominal_reqs.push(req);
                overheads.push(s.rtt_ms() - (one.scores_ms + one.combine_ms + one.extract_ms));
            }
            tally.add(&one);
        }
        close_instance();
        let sum = |f: fn(&ceps_rwr::CacheStats) -> u64| -> u64 {
            instances.iter().map(|(c, _)| f(c)).sum()
        };
        let (hits, misses) = (sum(|c| c.hits), sum(|c| c.misses));
        let fill = instances.iter().map(|&(_, f)| f).fold(0.0, f64::max);

        let ledger = Ledger::build(
            rec.spans(),
            &nominal_reqs,
            "net.rtt",
            &[
                "net.encode",
                "net.decode",
                "cache.probe",
                "cache.insert",
                "rwr.solve_block",
                "serve.scores",
                "combine",
                "extract",
                "replay",
            ],
        );
        report.push_str(&ledger.render(name));
        let spans_path = dirs.out.join(format!("{name}-seed{seed}-spans.jsonl"));
        rec.dump(&spans_path)
            .map_err(|e| format!("span dump: {e}"))?;
        std::fs::write(
            dirs.out.join(format!("{name}-seed{seed}-ledger.txt")),
            ledger.render(name),
        )
        .map_err(|e| format!("ledger: {e}"))?;
        report.push_str(&format!("spans: {}\n", spans_path.display()));

        let nominal: Vec<&Sample> = traced
            .samples
            .iter()
            .filter(|s| items[s.idx].phase == Phase::Nominal)
            .collect();
        let reqs = order
            .iter()
            .filter(|s| matches!(s.result, Result_::Ok(_)))
            .count();
        let speedup = pool_speedup(&engine, &items[0].queries);
        let mut m = crate::layer_metrics(&tally, reqs, &setups, speedup);
        m.extend([
            Metric::new(
                "load.send_lag_p99_ms",
                worst_lag_p99(&items, &traced.samples),
                "ms",
            ),
            Metric::new("load.sent", traced.samples.len() as f64, "count"),
            Metric::new(
                "net.rtt_p50_ms",
                percentile(
                    &sorted(&nominal.iter().map(|s| s.rtt_ms()).collect::<Vec<_>>()),
                    50.0,
                ),
                "ms",
            ),
            Metric::new("net.overhead_ms", median(&overheads), "ms"),
            Metric::new(
                "net.queue_p99_ms",
                median(
                    &traced
                        .stats
                        .iter()
                        .map(|s| s.queue_p99_ms)
                        .collect::<Vec<_>>(),
                ),
                "ms",
            ),
            Metric::new(
                "net.sheds",
                traced.stats.iter().map(|s| s.sheds).sum::<u64>() as f64,
                "count",
            ),
            Metric::new(
                "cache.hit_frac",
                hits as f64 / (hits + misses).max(1) as f64,
                "frac",
            ),
            Metric::new(
                "cache.probe_us",
                1e3 * tally.probe_ms / tally.probes.max(1) as f64,
                "us",
            ),
            Metric::new("cache.insertions", sum(|c| c.insertions) as f64, "count"),
            Metric::new("cache.evictions", sum(|c| c.evictions) as f64, "count"),
            Metric::new("cache.fill_frac", fill, "frac"),
            Metric::new(
                "ledger.unattributed_frac",
                ledger.unattributed_frac(),
                "frac",
            ),
            Metric::new("trace.overhead_frac", traced_p50 / est.p50_ms - 1.0, "frac"),
        ]);
        m
    };
    crate::report_check(&mut report, &check);
    Ok(Outcome {
        correct: check.wrong == 0 && check.checked > 0,
        attempted,
        failed: errors + check.wrong,
        metrics,
        report,
    })
}
