//! The `batch` workload: the paper's offline setting. One caller runs a
//! fixed, seeded query set through `CepsEngine::run` in a closed loop, in
//! process (no wire, no cache), with the engine at `threads(2)`.

use std::time::Instant;

use ceps_bench::Scale;
use ceps_core::{CepsConfig, CepsEngine, ServeReply};
use ceps_datagen::QueryRepository;
use ceps_graph::NodeId;
use ceps_load::splitmix64;

use crate::layers::{wire_codec, LayerTally, Layers};
use crate::serve::QUERIES_PER;
use crate::stats::{median, percentile, sorted};
use crate::trace::{Ledger, Recorder};
use crate::{check_replies, digest, peak_rss_mb, pool_speedup, Metric, Outcome, SetupTimes};

/// The batch workload's fixed shape.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    pub scale: Scale,
    /// Engine worker threads.
    pub threads: usize,
    /// Distinct query sets, cycled through for the whole run.
    pub set_size: usize,
    /// How many of them (seeded) are compared with the reference.
    pub checked: usize,
    /// How many of them, from the first, the traced pass runs.
    pub traced: usize,
    pub tail_pct: f64,
    pub setup_reps: usize,
}

/// Set-up: datagen and `CepsEngine::new`. There is no server to boot.
fn setup(spec: &BatchSpec) -> Result<(QueryRepository, CepsEngine, SetupTimes), String> {
    let t0 = Instant::now();
    let data = spec.scale.config().generate();
    let repo = QueryRepository::from_graph(&data);
    let t1 = Instant::now();
    let cfg = CepsConfig::default()
        .budget(crate::BUDGET)
        .threads(spec.threads);
    let engine = CepsEngine::new(data.into_graph(), cfg).map_err(|e| format!("engine: {e}"))?;
    let t2 = Instant::now();
    let times = SetupTimes {
        total_s: (t2 - t0).as_secs_f64(),
        datagen_s: (t1 - t0).as_secs_f64(),
        engine_s: (t2 - t1).as_secs_f64(),
        boot_s: 0.0,
        op_mb: engine.transition().memory_bytes() as f64 / (1 << 20) as f64,
    };
    Ok((repo, engine, times))
}

/// The seeded query set: alternately within one community and across
/// communities, as in the paper's source-query workloads.
pub fn query_set(repo: &QueryRepository, size: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut state = seed;
    (0..size)
        .map(|i| {
            let s = splitmix64(&mut state);
            if i % 2 == 0 {
                repo.sample_within_community(QUERIES_PER, s)
            } else {
                repo.sample_across_communities(QUERIES_PER, s)
            }
        })
        .collect()
}

/// One executed query.
struct Call {
    set_index: usize,
    /// Gap since the previous call ended: the caller's own overhead.
    gap_ms: f64,
    wall_ms: f64,
    /// The reply's [`digest`](crate::digest); `None` when the call failed.
    reply: Option<u64>,
}

/// The closed loop: cycle through `set` until `seconds` have passed.
fn closed_loop(engine: &CepsEngine, set: &[Vec<NodeId>], seconds: f64) -> (Vec<Call>, f64) {
    let start = Instant::now();
    let mut calls = Vec::new();
    let mut prev_end = start;
    for i in (0..set.len()).cycle() {
        if !calls.is_empty() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t = Instant::now();
        let reply = engine
            .run(&set[i])
            .ok()
            .map(|r| digest(&ServeReply::from_result(&r, &set[i])));
        let end = Instant::now();
        calls.push(Call {
            set_index: i,
            gap_ms: (t - prev_end).as_secs_f64() * 1e3,
            wall_ms: (end - t).as_secs_f64() * 1e3,
            reply,
        });
        prev_end = end;
    }
    (calls, start.elapsed().as_secs_f64())
}

/// Runs the batch workload.
pub fn run(
    name: &str,
    spec: &BatchSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    dirs: &crate::Dirs,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..spec.setup_reps.max(1) {
        // Free the previous repetition's graph before building the next.
        drop(ready.take());
        let (repo, engine, times) = setup(spec)?;
        setups.push(times);
        ready = Some((repo, engine));
    }
    let (repo, engine) = ready.expect("at least one set-up");
    let set = query_set(&repo, spec.set_size, seed);

    let (calls, wall_s) = closed_loop(&engine, &set, seconds);
    let rss_mb = peak_rss_mb();
    let mut report = String::new();

    // Every execution of a query set must give the reply its first
    // execution gave; a seeded subset is also checked against the reference.
    let mut first: Vec<Option<u64>> = vec![None; set.len()];
    let mut unstable = 0u64;
    for c in &calls {
        if let Some(r) = c.reply {
            match first[c.set_index] {
                None => first[c.set_index] = Some(r),
                Some(f) if f != r => unstable += 1,
                Some(_) => {}
            }
        }
    }
    let mut state = seed ^ 0xc4ec;
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < spec.checked.min(set.len()) {
        let i = (splitmix64(&mut state) % set.len() as u64) as usize;
        if !picked.contains(&i) && first[i].is_some() {
            picked.push(i);
        }
        if first.iter().filter(|f| f.is_some()).count() <= picked.len() {
            break;
        }
    }
    let to_check: Vec<(&[NodeId], u64)> = picked
        .iter()
        .map(|&i| (set[i].as_slice(), first[i].expect("picked executed sets")))
        .collect();
    let (mut check, verdicts) = check_replies(&engine, &to_check)?;
    let bad_sets: Vec<usize> = picked
        .iter()
        .zip(&verdicts)
        .filter(|(_, &good)| !good)
        .map(|(&i, _)| i)
        .collect();
    check.wrong = unstable
        + calls
            .iter()
            .filter(|c| bad_sets.contains(&c.set_index))
            .count() as u64;
    if unstable > 0 {
        report.push_str(&format!(
            "check: {unstable} repeated executions disagreed with the first\n"
        ));
    }

    let errors = calls.iter().filter(|c| c.reply.is_none()).count() as u64;
    let attempted = calls.len() as u64;
    let wall = sorted(&calls.iter().map(|c| c.wall_ms).collect::<Vec<_>>());
    let correct = attempted - errors - check.wrong.min(attempted - errors);
    let beyond = wall.len() as f64 * (1.0 - spec.tail_pct / 100.0);
    report.push_str(&format!(
        "latency [{name}]: {} queries over {} distinct sets, p50 {:.4} ms, p{} {:.4} ms ({beyond:.0} samples beyond it)\n",
        calls.len(),
        set.len(),
        percentile(&wall, 50.0),
        spec.tail_pct,
        percentile(&wall, spec.tail_pct),
    ));

    let metrics = if !trace {
        vec![
            Metric::new(
                "setup_s",
                median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
                "s",
            ),
            Metric::new("p50_ms", percentile(&wall, 50.0), "ms"),
            Metric::new("tail_ms", percentile(&wall, spec.tail_pct), "ms"),
            Metric::new("qps", correct as f64 / wall_s, "1/s"),
            Metric::new("peak_rss_mb", rss_mb, "MB"),
        ]
    } else {
        // Traced pass: the first `spec.traced` sets, once each. The `call`
        // span is the untouched `CepsEngine::run`; the replay re-runs it
        // layer by layer.
        let layers = Layers::new(&engine, None);
        let mut rec = Recorder::new(crate::epoch());
        let mut tally = LayerTally::default();
        let mut codec = LayerTally::default();
        let mut overheads = Vec::new();
        let mut traced_wall = Vec::new();
        let mut reqs = Vec::new();
        for (i, queries) in set.iter().take(spec.traced).enumerate() {
            let req = i as u64 + 1;
            let root = rec.open(req, None, "request");
            let t = Instant::now();
            let called = engine
                .run(queries)
                .ok()
                .map(|r| digest(&ServeReply::from_result(&r, queries)));
            let end = Instant::now();
            rec.record(req, Some(root), "call", t, end);
            let call_ms = (end - t).as_secs_f64() * 1e3;
            let mut one = LayerTally::default();
            let replay = rec.open(req, Some(root), "replay");
            let reply = layers.serve(queries, &mut rec, req, replay, &mut one);
            rec.close(replay);
            // What the wire would add; outside the ledger, since this
            // workload has no wire.
            wire_codec(queries, &reply, &mut rec, req, root, &mut codec);
            rec.close(root);
            if called != Some(digest(&reply)) {
                check.wrong += 1;
                check.first.get_or_insert_with(|| queries.clone());
            }
            overheads.push(call_ms - (one.scores_ms + one.combine_ms + one.extract_ms));
            traced_wall.push(call_ms);
            reqs.push(req);
            tally.add(&one);
        }
        tally.encode_us = codec.encode_us;
        tally.decode_us = codec.decode_us;
        tally.reply_bytes = codec.reply_bytes;
        let ledger = Ledger::build(
            rec.spans(),
            &reqs,
            "call",
            &[
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

        let speedup = pool_speedup(&engine, &set[0]);
        let mut m = crate::layer_metrics(&tally, reqs.len(), &setups, speedup);
        let gaps = sorted(&calls.iter().map(|c| c.gap_ms).collect::<Vec<_>>());
        m.extend([
            Metric::new("load.send_lag_p99_ms", percentile(&gaps, 99.0), "ms"),
            Metric::new("load.sent", calls.len() as f64, "count"),
            // No wire: the round trip is the in-process call.
            Metric::new("net.rtt_p50_ms", median(&traced_wall), "ms"),
            Metric::new("net.overhead_ms", median(&overheads), "ms"),
            Metric::new("net.queue_p99_ms", 0.0, "ms"),
            Metric::new("net.sheds", 0.0, "count"),
            // No cache on this workload.
            Metric::new("cache.hit_frac", 0.0, "frac"),
            Metric::new("cache.probe_us", 0.0, "us"),
            Metric::new("cache.insertions", 0.0, "count"),
            Metric::new("cache.evictions", 0.0, "count"),
            Metric::new("cache.fill_frac", 0.0, "frac"),
            Metric::new(
                "ledger.unattributed_frac",
                ledger.unattributed_frac(),
                "frac",
            ),
            // Against the untraced calls of the same sets.
            Metric::new(
                "trace.overhead_frac",
                median(&traced_wall)
                    / median(
                        &calls
                            .iter()
                            .filter(|c| c.set_index < spec.traced)
                            .map(|c| c.wall_ms)
                            .collect::<Vec<_>>(),
                    )
                    - 1.0,
                "frac",
            ),
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
