//! In-process replay of one request through each layer's public calls.
//!
//! Step 1 is reassembled from `RwrRowCache::get`/`insert` and
//! `RwrEngine::solve_block` over the rows that missed (no cache: every row
//! is solved), Step 2 is `combine_scores` and Step 3 is `extract`. Each
//! call runs under a span, so the trace shows each layer's share of a
//! request. The reassembled reply must equal what the service returned.

use std::sync::Arc;
use std::time::Instant;

use ceps_core::extract::{extract, ExtractParams};
use ceps_core::{CepsEngine, CepsResult, ServeReply, SharingRule};
use ceps_graph::NodeId;
use ceps_net::wire::{encode_frame, FrameBuffer};
use ceps_net::{Reply, Request, DEFAULT_MAX_FRAME_BYTES};
use ceps_rwr::{combine::combine_scores, RwrEngine, RwrRowCache, ScoreMatrix, ScratchPool};

use crate::trace::Recorder;

/// Counters one replayed request adds to the per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTally {
    /// Cache probes issued and their summed time.
    pub probes: u64,
    pub probe_ms: f64,
    /// Step 1 assembly time (probes + solve + inserts).
    pub scores_ms: f64,
    /// `solve_block` calls, rows solved, time, and solver diagnostics.
    pub solves: u64,
    pub rows: u64,
    pub solve_ms: f64,
    pub sweeps_sum: u64,
    pub block_sweeps: u64,
    pub final_delta_sum: f64,
    pub bytes_moved: f64,
    pub pool_rounds: u64,
    pub combine_ms: f64,
    pub extract_ms: f64,
    pub paths: u64,
    pub nodes: u64,
    pub destinations: u64,
    pub orphans: u64,
    /// Wire codec work measured on this request's frames.
    pub encode_us: f64,
    pub decode_us: f64,
    pub reply_bytes: u64,
}

impl LayerTally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, o: &LayerTally) {
        self.probes += o.probes;
        self.probe_ms += o.probe_ms;
        self.scores_ms += o.scores_ms;
        self.solves += o.solves;
        self.rows += o.rows;
        self.solve_ms += o.solve_ms;
        self.sweeps_sum += o.sweeps_sum;
        self.block_sweeps += o.block_sweeps;
        self.final_delta_sum += o.final_delta_sum;
        self.bytes_moved += o.bytes_moved;
        self.pool_rounds += o.pool_rounds;
        self.combine_ms += o.combine_ms;
        self.extract_ms += o.extract_ms;
        self.paths += o.paths;
        self.nodes += o.nodes;
        self.destinations += o.destinations;
        self.orphans += o.orphans;
        self.encode_us += o.encode_us;
        self.decode_us += o.decode_us;
        self.reply_bytes += o.reply_bytes;
    }
}

/// The layers of one engine, called one by one.
pub struct Layers<'a> {
    engine: &'a CepsEngine,
    rwr: RwrEngine<'a>,
    cache: Option<RwrRowCache>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl<'a> Layers<'a> {
    /// Replays over `engine`'s operator, pool and solver settings; with
    /// `cache` set, Step 1 goes through it as the service's does.
    pub fn new(engine: &'a CepsEngine, cache: Option<RwrRowCache>) -> Self {
        let rwr = RwrEngine::with_pool(
            engine.transition(),
            engine.config().rwr,
            engine.pool().clone(),
            Arc::new(ScratchPool::new()),
        )
        .expect("the engine's own solver settings are valid");
        Layers { engine, rwr, cache }
    }

    /// The replay cache, if any.
    pub fn cache(&self) -> Option<&RwrRowCache> {
        self.cache.as_ref()
    }

    fn pool_rounds(&self) -> u64 {
        self.engine.pool().get().map_or(0, |p| p.rounds())
    }

    /// Step 1: cache probes, one `solve_block` over the distinct misses,
    /// inserts, and the score matrix in query order.
    fn scores(
        &self,
        queries: &[NodeId],
        rec: &mut Recorder,
        req: u64,
        parent: u64,
        tally: &mut LayerTally,
    ) -> ScoreMatrix {
        let n = self.engine.graph().node_count();
        let mut rows: Vec<Option<Arc<Vec<f64>>>> = vec![None; queries.len()];
        let mut missing: Vec<NodeId> = Vec::new();
        for (i, &q) in queries.iter().enumerate() {
            if let Some(j) = queries[..i].iter().position(|&p| p == q) {
                rows[i] = rows[j].clone();
                continue;
            }
            let Some(cache) = &self.cache else {
                missing.push(q);
                continue;
            };
            let t = Instant::now();
            let hit = cache.get(q, n);
            rec.record(req, Some(parent), "cache.probe", t, Instant::now());
            tally.probes += 1;
            tally.probe_ms += ms_since(t);
            match hit {
                Some(row) => rows[i] = Some(row),
                None => missing.push(q),
            }
        }
        if !missing.is_empty() {
            let rounds = self.pool_rounds();
            let t = Instant::now();
            let (solved, stats) = self
                .rwr
                .solve_block(&missing)
                .expect("query nodes were validated by the generator");
            rec.record(req, Some(parent), "rwr.solve_block", t, Instant::now());
            let solve_ms = ms_since(t);
            let sweeps = stats.iter().map(|s| s.iterations).max().unwrap_or(0) as u64;
            tally.solves += 1;
            tally.rows += missing.len() as u64;
            tally.solve_ms += solve_ms;
            tally.sweeps_sum += stats.iter().map(|s| s.iterations as u64).sum::<u64>();
            tally.block_sweeps += sweeps;
            tally.final_delta_sum += stats.iter().map(|s| s.final_delta).sum::<f64>();
            // Computed bytes, not measured: each sweep streams the operator
            // once and reads and writes an N x A block of f64.
            let per_sweep = self.engine.transition().memory_bytes() + 2 * n * missing.len() * 8;
            tally.bytes_moved += (sweeps as usize * per_sweep) as f64;
            tally.pool_rounds += self.pool_rounds() - rounds;
            let t = Instant::now();
            for (r, &q) in missing.iter().enumerate() {
                let row = Arc::new(solved.row(r).to_vec());
                if let Some(cache) = &self.cache {
                    cache.insert(q, Arc::clone(&row));
                }
                for (i, &p) in queries.iter().enumerate() {
                    if p == q {
                        rows[i] = Some(Arc::clone(&row));
                    }
                }
            }
            if self.cache.is_some() {
                rec.record(req, Some(parent), "cache.insert", t, Instant::now());
            }
        }
        let rows: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|r| r.expect("every query row resolved").as_ref().clone())
            .collect();
        ScoreMatrix::new(queries.to_vec(), rows).expect("rows match the graph")
    }

    /// Steps 1-3 for one request, with every layer's span a child of
    /// `replay`; returns the reassembled reply.
    pub fn serve(
        &self,
        queries: &[NodeId],
        rec: &mut Recorder,
        req: u64,
        replay: u64,
        tally: &mut LayerTally,
    ) -> ServeReply {
        let cfg = self.engine.config();

        let t = Instant::now();
        let step1 = rec.open(req, Some(replay), "serve.scores");
        let scores = self.scores(queries, rec, req, step1, tally);
        rec.close(step1);
        tally.scores_ms += ms_since(t);

        let k = cfg
            .query
            .soft_and_k(queries.len())
            .expect("the generator sends valid query sets");
        let t = Instant::now();
        let combined = combine_scores(&scores, k).expect("score rows are well formed");
        rec.record(req, Some(replay), "combine", t, Instant::now());
        tally.combine_ms += ms_since(t);

        let t = Instant::now();
        let outcome = extract(ExtractParams {
            graph: self.engine.graph(),
            scores: &scores,
            combined: &combined,
            k,
            budget: cfg.budget,
            max_path_len: cfg.effective_path_len(k),
            sharing: SharingRule::FreeSharedNodes,
        });
        rec.record(req, Some(replay), "extract", t, Instant::now());
        tally.extract_ms += ms_since(t);
        tally.paths += outcome.paths.len() as u64;
        tally.nodes += outcome.subgraph.len() as u64;
        tally.destinations += outcome.destinations.len() as u64;
        tally.orphans += outcome.orphan_destinations.len() as u64;

        let result = CepsResult {
            subgraph: outcome.subgraph,
            scores,
            combined,
            k,
            destinations: outcome.destinations,
            paths: outcome.paths,
            orphan_destinations: outcome.orphan_destinations,
        };
        ServeReply::from_result(&result, queries)
    }
}

/// Encodes and decodes one request frame and one reply frame with the
/// wire codec, as client and server do for every query; records the
/// `net.encode`/`net.decode` spans under `parent`.
pub fn wire_codec(
    queries: &[NodeId],
    reply: &ServeReply,
    rec: &mut Recorder,
    req: u64,
    parent: u64,
    tally: &mut LayerTally,
) {
    let request = Request::Query {
        id: req,
        req: ceps_core::ServeRequest::new(queries.to_vec()),
        trace: None,
    };
    let answer = Reply::Scores {
        id: req,
        reply: reply.clone(),
    };
    let t = Instant::now();
    let req_frame = encode_frame(&request);
    let reply_frame = encode_frame(&answer);
    rec.record(req, Some(parent), "net.encode", t, Instant::now());
    tally.encode_us += t.elapsed().as_secs_f64() * 1e6;
    tally.reply_bytes += reply_frame.len() as u64;

    let t = Instant::now();
    let mut buf = FrameBuffer::new(DEFAULT_MAX_FRAME_BYTES);
    buf.extend(&req_frame);
    buf.extend(&reply_frame);
    let decoded_req: Request = decode(&mut buf);
    let decoded_reply: Reply = decode(&mut buf);
    rec.record(req, Some(parent), "net.decode", t, Instant::now());
    tally.decode_us += t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(decoded_req.id(), req, "request frame round-trips");
    assert_eq!(decoded_reply, answer, "reply frame round-trips");
}

fn decode<T: serde::Deserialize>(buf: &mut FrameBuffer) -> T {
    let payload = buf
        .next_frame()
        .expect("frames written by encode_frame parse")
        .expect("a whole frame is buffered");
    serde_json::from_str(&payload).expect("frames written by encode_frame decode")
}
