//! Golden replies: `ServeReply` digests for seeded query sets, recorded
//! once from a known-good build and committed in
//! `tests/fixtures/golden_replies.txt`. Every later build must reproduce
//! them bit for bit — scores, member order, and every key path — so a
//! rewrite of EXTRACT (or of anything feeding it) that changes a single
//! reply fails here.
//!
//! The sets cover the `small` preset under AND, OR and softAND(2) (random,
//! within-community, cross-community and hub queries, plus a budget wide
//! enough for EXTRACT's dense-DP fallback), a few `medium` sets, and four
//! `large` sets solved through the worker pool. The `large` check is slow
//! in a debug build, so it is ignored there; run it with
//! `cargo test --release --test golden_replies -- --include-ignored`.
//!
//! Re-record only when a reply change is intended (each test rewrites its
//! own presets' lines):
//! `CEPS_BLESS_GOLDEN=1 cargo test --release --test golden_replies -- --include-ignored`.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use ceps_repro::prelude::*;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_replies.txt")
}

/// FNV-1a over a canonical byte encoding of every reply field (scores as
/// raw bits). Stable across toolchains, unlike `DefaultHasher`.
fn digest(reply: &ServeReply) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(reply.k as u64).to_le_bytes());
    eat(&(reply.members.len() as u64).to_le_bytes());
    for m in &reply.members {
        eat(&m.id.0.to_le_bytes());
        eat(&m.score.to_bits().to_le_bytes());
        eat(&[u8::from(m.is_query)]);
    }
    eat(&(reply.paths.len() as u64).to_le_bytes());
    for p in &reply.paths {
        eat(&(p.source_index as u64).to_le_bytes());
        eat(&(p.nodes.len() as u64).to_le_bytes());
        for v in &p.nodes {
            eat(&v.0.to_le_bytes());
        }
    }
    h
}

fn type_tag(t: QueryType) -> String {
    match t {
        QueryType::And => "and".into(),
        QueryType::Or => "or".into(),
        QueryType::SoftAnd(k) => format!("softand{k}"),
    }
}

/// The seeded query sets of one preset.
fn query_sets(data: &CoauthorGraph, sets: u64) -> Vec<Vec<NodeId>> {
    let repo = QueryRepository::from_graph(data);
    let mut out = Vec::new();
    for seed in 0..sets {
        out.push(repo.sample(3, seed));
        out.push(repo.sample_within_community(3, 100 + seed));
        out.push(repo.sample_across_communities(3, 200 + seed));
    }
    // Hub queries: the top authors of three communities, the skewed sets
    // whose score rows have the most local maxima.
    let hubs: Vec<Vec<NodeId>> = (0..3).map(|c| data.community_hubs(c, 3)).collect();
    out.push(vec![hubs[0][0], hubs[1][0], hubs[2][0]]);
    out.push(hubs[0].clone());
    out
}

/// Appends one golden line, `preset type budget queries digest`, per
/// (query set, run) pair. Each set's score rows are solved once (on
/// `threads` RWR workers) and shared by its runs — `run_with_scores` is
/// the serving path's entry point.
fn record(
    lines: &mut Vec<String>,
    preset: &str,
    data: &CoauthorGraph,
    sets: &[Vec<NodeId>],
    runs: &[(QueryType, usize)],
    threads: usize,
) {
    let engines: Vec<CepsEngine> = runs
        .iter()
        .map(|&(qt, budget)| {
            let cfg = CepsConfig::default()
                .budget(budget)
                .query_type(qt)
                .threads(threads);
            CepsEngine::new(&data.graph, cfg).unwrap()
        })
        .collect();
    for queries in sets {
        let scores = engines[0].individual_scores(queries).unwrap();
        let ids: Vec<String> = queries.iter().map(|q| q.0.to_string()).collect();
        for (&(qt, budget), engine) in runs.iter().zip(&engines) {
            let result = engine.run_with_scores(queries, scores.clone()).unwrap();
            let reply = ServeReply::from_result(&result, queries);
            lines.push(format!(
                "{preset} {} {budget} {} {:016x}",
                type_tag(qt),
                ids.join(","),
                digest(&reply)
            ));
        }
    }
}

fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let small = CoauthorConfig::small().generate();
    // Budget 80 under OR: path length 80 > 63, the dense-DP fallback.
    let runs = [
        (QueryType::And, 20),
        (QueryType::Or, 20),
        (QueryType::SoftAnd(2), 20),
        (QueryType::Or, 80),
    ];
    record(
        &mut lines,
        "small",
        &small,
        &query_sets(&small, 4),
        &runs,
        1,
    );
    let medium = CoauthorConfig::medium().generate();
    let runs = [(QueryType::And, 20), (QueryType::SoftAnd(2), 20)];
    record(
        &mut lines,
        "medium",
        &medium,
        &query_sets(&medium, 1)[..2],
        &runs,
        1,
    );
    lines
}

/// The `large` preset (80K nodes): random, within-community,
/// cross-community and hub sets under AND and softAND(2), solved on two
/// pool workers.
fn large_golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let large = CoauthorConfig::large().generate();
    let runs = [(QueryType::And, 20), (QueryType::SoftAnd(2), 20)];
    record(
        &mut lines,
        "large",
        &large,
        &query_sets(&large, 1)[..4],
        &runs,
        2,
    );
    lines
}

/// Fixture presets in file order.
const PRESETS: [&str; 3] = ["small", "medium", "large"];

fn preset_of(line: &str) -> &str {
    line.split(' ').next().unwrap_or("")
}

/// Compares `got` with the fixture lines of `presets`, or rewrites those
/// lines under `CEPS_BLESS_GOLDEN`.
fn check(presets: &[&str], got: Vec<String>) {
    // Blessing is a read-modify-write of the shared fixture; the tests of
    // this file run in parallel, so they take turns.
    static FIXTURE: Mutex<()> = Mutex::new(());
    let _turn = FIXTURE.lock().unwrap_or_else(PoisonError::into_inner);
    let path = fixture_path();
    let fixture = std::fs::read_to_string(&path).unwrap_or_default();
    let ours = |line: &&str| presets.contains(&preset_of(line));
    if std::env::var_os("CEPS_BLESS_GOLDEN").is_some() {
        let mut lines: Vec<String> = fixture
            .lines()
            .filter(|l| !ours(l))
            .map(String::from)
            .chain(got)
            .collect();
        lines.sort_by_key(|l| PRESETS.iter().position(|p| *p == preset_of(l)));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        return;
    }
    let want: Vec<&str> = fixture.lines().filter(ours).collect();
    assert!(!want.is_empty(), "golden fixture has no {presets:?} lines");
    assert_eq!(want.len(), got.len(), "golden set size changed");
    let diverged: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| *w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} golden replies diverged:\n{}",
        diverged.len(),
        got.len(),
        diverged.join("\n")
    );
}

#[test]
fn replies_match_the_committed_digests() {
    check(&["small", "medium"], golden_lines());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large preset; run with --release")]
fn large_replies_match_the_committed_digests() {
    check(&["large"], large_golden_lines());
}
