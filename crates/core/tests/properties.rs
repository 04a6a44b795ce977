//! Property tests for ceps-core: EXTRACT, the pipeline contract under both
//! score methods, the auto-k inference bounds, and reply identity under
//! concurrent cached serving.

use std::cmp::Reverse;

use ceps_core::extract::active::active_sources;
use ceps_core::extract::{extract, ExtractOutcome, ExtractParams, KeyPath, SharingRule};
use ceps_core::{
    infer_soft_and_k, CepsConfig, CepsEngine, CepsServiceBuilder, QueryType, ServeReply,
    ServeRequest,
};
use ceps_graph::{CsrGraph, GraphBuilder, NodeId, Subgraph};
use ceps_rwr::{combine::combine_scores, ScoreMatrix};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Connected random graph: spanning path + chords.
fn arb_graph() -> impl Strategy<Value = ceps_graph::CsrGraph> {
    (4usize..=24).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n, 0..n, 0.2f64..8.0), 0..3 * n);
        (Just(n), chords).prop_map(|(n, chords)| {
            let mut b = GraphBuilder::with_nodes(n);
            for i in 0..n - 1 {
                b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0)
                    .unwrap();
            }
            for (a, c, w) in chords {
                if a != c {
                    b.add_edge(NodeId(a as u32), NodeId(c as u32), w).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

/// Distinct query picks within the graph.
fn queries_for(g: &ceps_graph::CsrGraph, picks: &[usize]) -> Vec<NodeId> {
    let mut qs: Vec<NodeId> = picks
        .iter()
        .map(|&p| NodeId((p % g.node_count()) as u32))
        .collect();
    qs.sort_unstable();
    qs.dedup();
    qs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Structural accounting of an AND run: fragmentation is bounded by
    /// the orphan count (each path is connected and touches its source;
    /// only orphan destinations can open new components), and with no
    /// orphans the subgraph is fully connected.
    #[test]
    fn and_subgraph_fragmentation_bounded_by_orphans(
        g in arb_graph(),
        picks in proptest::collection::vec(0usize..24, 2..4),
        budget in 1usize..10,
    ) {
        let queries = queries_for(&g, &picks);
        prop_assume!(queries.len() >= 2);
        let cfg = CepsConfig::default().budget(budget).query_type(QueryType::And);
        let res = CepsEngine::new(&g, cfg).unwrap().run(&queries).unwrap();
        let components = res.subgraph.component_count(&g);
        // Provable bound: H starts as ≤ Q query singletons; every key path
        // attaches to its source (never increasing the count) and every
        // orphan adds at most one component.
        prop_assert!(
            components <= queries.len() + res.orphan_destinations.len(),
            "{components} components with {} queries and {} orphans",
            queries.len(),
            res.orphan_destinations.len()
        );
    }

    /// Push scoring approximates iterative scoring: combined scores agree
    /// within a small tolerance and the pipeline contract holds. (Exact
    /// subgraph equality is NOT asserted — push perturbs exact score ties
    /// on symmetric graphs, legitimately flipping tie-breaks.)
    #[test]
    fn push_and_iterative_scores_agree(
        g in arb_graph(),
        picks in proptest::collection::vec(0usize..24, 2..4),
    ) {
        let queries = queries_for(&g, &picks);
        prop_assume!(queries.len() >= 2);
        let base = CepsConfig::default().budget(5);
        // Iterate beyond m=50 so truncation error is far below the push
        // threshold and both solvers approximate Eq. 12 well.
        let mut tight = base;
        tight.rwr.max_iterations = 200;
        let it = CepsEngine::new(&g, tight).unwrap().run(&queries).unwrap();
        let mut pushed_cfg = base.push_scores(1e-9);
        pushed_cfg.rwr.max_iterations = 200;
        let pu = CepsEngine::new(&g, pushed_cfg).unwrap().run(&queries).unwrap();
        for j in 0..g.node_count() {
            let d = (it.combined[j] - pu.combined[j]).abs();
            prop_assert!(d < 1e-6, "node {j}: combined differs by {d}");
        }
        for &q in &queries {
            prop_assert!(pu.subgraph.contains(q));
        }
    }

    /// auto-k always returns a coefficient in 1..=Q with Q-1 rank entries.
    #[test]
    fn auto_k_bounds(
        g in arb_graph(),
        picks in proptest::collection::vec(0usize..24, 1..5),
    ) {
        let queries = queries_for(&g, &picks);
        let engine = CepsEngine::new(&g, CepsConfig::default()).unwrap();
        let inf = infer_soft_and_k(&engine, &queries).unwrap();
        prop_assert!(inf.k >= 1 && inf.k <= queries.len(), "k = {} of Q = {}", inf.k, queries.len());
        if queries.len() > 1 {
            prop_assert_eq!(inf.mean_ranks.len(), queries.len() - 1);
            prop_assert!(inf.mean_ranks.iter().all(|&r| r >= 1.0));
        }
    }

    /// The acceptance-criteria identity: serving through the **cached +
    /// single-flight + warmed** path, across concurrent workers, warm
    /// budgets and repeat rates, returns replies **bitwise-identical** to
    /// sequential per-request runs on the bare engine. `pool` controls the
    /// repeat rate (small pool → nearly every request repeats the same few
    /// nodes, the single-flight hot case; large pool → mostly distinct
    /// traffic).
    #[test]
    fn singleflight_warmed_replies_match_sequential_serve(
        g in arb_graph(),
        plan in proptest::collection::vec(proptest::collection::vec(0usize..24, 1..4), 4..10),
        workers in 1usize..5,
        pool in 1usize..25,
        warm_pct in 0usize..101,
    ) {
        let requests: Vec<ServeRequest> = plan
            .iter()
            .map(|picks| {
                let mut qs: Vec<NodeId> = picks
                    .iter()
                    .map(|&p| NodeId(((p % pool) % g.node_count()) as u32))
                    .collect();
                qs.sort_unstable();
                qs.dedup();
                ServeRequest::new(qs)
            })
            .collect();

        let cfg = CepsConfig::default().budget(4).threads(1);
        let engine = CepsEngine::new(&g, cfg).unwrap();
        // Sequential ground truth: one bare-engine run per request.
        let expected: Vec<ServeReply> = requests
            .iter()
            .map(|r| ServeReply::from_result(&engine.run(&r.queries).unwrap(), &r.queries))
            .collect();

        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .workers(workers)
            .build(engine);
        service.warm((1usize << 20) * warm_pct / 100).unwrap();

        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let mut replies: Vec<Option<ServeReply>> = vec![None; requests.len()];
        let slots: Vec<std::sync::Mutex<&mut Option<ServeReply>>> =
            replies.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let (service, requests, cursor, slots) = (&service, &requests, &cursor, &slots);
                s.spawn(move || loop {
                    let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(req) = requests.get(i) else { break };
                    let (result, _) = service.run(&req.queries).unwrap();
                    **slots[i].lock().unwrap() =
                        Some(ServeReply::from_result(&result, &req.queries));
                });
            }
        });
        for (i, reply) in replies.into_iter().enumerate() {
            prop_assert_eq!(
                reply.unwrap(),
                expected[i].clone(),
                "request {} diverged (workers={}, pool={}, warm_pct={})",
                i, workers, pool, warm_pct
            );
        }
    }

    /// Explanations account for every extracted path exactly once.
    #[test]
    fn explanations_partition_the_paths(
        g in arb_graph(),
        picks in proptest::collection::vec(0usize..24, 2..4),
        budget in 1usize..8,
    ) {
        let queries = queries_for(&g, &picks);
        prop_assume!(queries.len() >= 2);
        let cfg = CepsConfig::default().budget(budget);
        let res = CepsEngine::new(&g, cfg).unwrap().run(&queries).unwrap();
        let expl = ceps_core::explain::explain(&res);
        let total: usize = expl.destinations.iter().map(|d| d.path_indices.len()).sum();
        prop_assert_eq!(total, res.paths.len());
        let mut seen = std::collections::HashSet::new();
        for d in &expl.destinations {
            for &pi in &d.path_indices {
                prop_assert!(seen.insert(pi), "path {pi} explained twice");
            }
        }
    }
}

/// Strict downhill order key of the reference: score, ties by lower id.
fn ref_key(individual: &[f64], v: u32) -> (f64, Reverse<u32>) {
    (individual[v as usize], Reverse(v))
}

/// Every node with a strictly key-descending walk from `source`.
fn ref_cone(graph: &CsrGraph, individual: &[f64], source: NodeId) -> Vec<bool> {
    let mut cone = vec![false; graph.node_count()];
    let mut stack = vec![source.0];
    cone[source.index()] = true;
    while let Some(v) = stack.pop() {
        for &u in graph.neighbor_ids(NodeId(v)) {
            if !cone[u as usize] && ref_key(individual, u) < ref_key(individual, v) {
                cone[u as usize] = true;
                stack.push(u);
            }
        }
    }
    cone
}

/// Table 3 as written: the source's full downhill cone, then the dense DP
/// over every cone node in the band `[key(pd), key(q_i)]`, relaxing each
/// node's in-edges in adjacency order.
fn ref_key_path(
    p: &ExtractParams<'_>,
    in_h: &[bool],
    i: usize,
    dest: NodeId,
) -> Option<Vec<NodeId>> {
    let (graph, individual) = (p.graph, p.scores.row(i));
    let source = p.scores.sources()[i];
    if source == dest || ref_key(individual, source.0) < ref_key(individual, dest.0) {
        return None;
    }
    let cone = ref_cone(graph, individual, source);
    if !cone[dest.index()] {
        return None;
    }
    let floor = ref_key(individual, dest.0);
    let mut band: Vec<u32> = (0..graph.node_count() as u32)
        .filter(|&u| cone[u as usize] && ref_key(individual, u) >= floor)
        .collect();
    band.sort_by(|&a, &b| {
        ref_key(individual, b)
            .partial_cmp(&ref_key(individual, a))
            .unwrap()
    });
    let mut pos = vec![usize::MAX; graph.node_count()];
    for (at, &v) in band.iter().enumerate() {
        pos[v as usize] = at;
    }

    let width = p.max_path_len + 1;
    let share_free = p.sharing == SharingRule::FreeSharedNodes;
    let mut dp = vec![f64::NEG_INFINITY; band.len() * width];
    let mut parent = vec![(usize::MAX, usize::MAX); band.len() * width];
    let s0 = usize::from(!(share_free && in_h[source.index()]));
    if s0 >= width {
        return None;
    }
    dp[s0] = p.combined[source.index()];
    for at in 1..band.len() {
        let v = band[at];
        let v_free = share_free && in_h[v as usize];
        for &u in graph.neighbor_ids(NodeId(v)) {
            let up = pos[u as usize];
            if up == usize::MAX || ref_key(individual, u) <= ref_key(individual, v) {
                continue;
            }
            for s in usize::from(!v_free)..width {
                let s_prev = if v_free { s } else { s - 1 };
                let val = dp[up * width + s_prev] + p.combined[v as usize];
                if dp[up * width + s_prev] != f64::NEG_INFINITY && val > dp[at * width + s] {
                    dp[at * width + s] = val;
                    parent[at * width + s] = (up, s_prev);
                }
            }
        }
    }
    let last = band.len() - 1;
    let mut best: Option<(usize, f64)> = None;
    for s in 1..width {
        let v = dp[last * width + s];
        if v != f64::NEG_INFINITY && best.is_none_or(|(_, r)| v / s as f64 > r) {
            best = Some((s, v / s as f64));
        }
    }
    let (mut s, _) = best?;
    let (mut at, mut path) = (last, Vec::new());
    loop {
        path.push(NodeId(band[at]));
        if at == 0 {
            break;
        }
        (at, s) = parent[at * width + s];
    }
    path.reverse();
    Some(path)
}

/// Table 4 as written: an `O(n)` Eq. 11 scan every round and
/// [`ref_key_path`] for every active source.
fn ref_extract(p: ExtractParams<'_>) -> ExtractOutcome {
    let n = p.graph.node_count();
    let queries = p.scores.sources();
    let mut in_h = vec![false; n];
    let mut subgraph = Subgraph::new();
    for &q in queries {
        in_h[q.index()] = true;
        subgraph.insert(q);
    }
    let (mut destinations, mut paths, mut orphans) = (Vec::new(), Vec::new(), Vec::new());
    let mut added = 0;
    let mut col = vec![0.0; queries.len()];
    while added < p.budget {
        let mut pd: Option<(u32, f64)> = None;
        for j in 0..n as u32 {
            if !in_h[j as usize] && pd.is_none_or(|(_, b)| p.combined[j as usize] > b) {
                pd = Some((j, p.combined[j as usize]));
            }
        }
        let Some((pd, score)) = pd else { break };
        if score <= 0.0 {
            break;
        }
        let pd = NodeId(pd);
        destinations.push(pd);
        p.scores.column_into(pd, &mut col);
        let mut found_any = false;
        for i in active_sources(&col, p.k) {
            let Some(nodes) = ref_key_path(&p, &in_h, i, pd) else {
                continue;
            };
            found_any = true;
            for &v in &nodes {
                if !in_h[v.index()] {
                    in_h[v.index()] = true;
                    subgraph.insert(v);
                    added += 1;
                }
            }
            paths.push(KeyPath {
                source_index: i,
                dest: pd,
                nodes,
            });
        }
        if !found_any {
            in_h[pd.index()] = true;
            subgraph.insert(pd);
            added += 1;
            orphans.push(pd);
        }
    }
    ExtractOutcome {
        subgraph,
        destinations,
        paths,
        orphan_destinations: orphans,
    }
}

/// Spanning path over `0..n` (minus the edge at `cut`, when `cut < n - 1`:
/// two components) plus weighted chords and a star: `leaves` extra nodes
/// hung off `hub`, which makes the hub out-score its other neighbours — a
/// planted local maximum, so the band is larger than the downhill cone.
fn planted_graph(
    n: usize,
    cut: usize,
    chords: &[(usize, usize)],
    (hub, leaves): (usize, usize),
    rng: &mut impl Rng,
) -> CsrGraph {
    let mut b = GraphBuilder::with_nodes(n + leaves);
    for i in (0..n - 1).filter(|&i| i != cut) {
        b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0)
            .unwrap();
    }
    for &(a, c) in chords.iter().filter(|(a, c)| a != c) {
        let w = f64::from(rng.gen_range(1u32..4));
        b.add_edge(NodeId(a as u32), NodeId(c as u32), w).unwrap();
    }
    for leaf in n..n + leaves {
        b.add_edge(NodeId(hub as u32), NodeId(leaf as u32), 1.0)
            .unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// `extract` returns exactly the outcome of Tables 3–4 as written (full
    /// downhill cone, unpruned dense DP, a destination scan every round).
    /// Scores come from three sources: exact RWR rows, RWR rows rounded to
    /// a coarse grid (score ties in both the DP order and Eq. 11), and
    /// random levels with zeros (many local maxima, early stops). Both
    /// sharing rules run, and path lengths above 63 take the dense-DP
    /// fallback.
    #[test]
    fn extract_matches_the_unpruned_reference(
        (n, cut) in (6usize..=28).prop_flat_map(|n| (Just(n), 0..2 * n)),
        chords in proptest::collection::vec((0usize..28, 0usize..28), 0..40),
        star in (0usize..28, 0usize..10),
        picks in proptest::collection::vec(0usize..28, 1..5),
        (mode, seed) in (0usize..3, 0u64..1 << 32),
        (k_pick, budget, len, share) in (0usize..4, 1usize..40, 2usize..=80, 0usize..2),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let chords: Vec<(usize, usize)> = chords.iter().map(|&(a, c)| (a % n, c % n)).collect();
        let graph = planted_graph(n, cut, &chords, (star.0 % n, star.1), &mut rng);
        let total = graph.node_count();
        let mut queries: Vec<NodeId> = picks.iter().map(|&p| NodeId((p % total) as u32)).collect();
        queries.sort_unstable();
        queries.dedup();
        let k = k_pick % queries.len() + 1;

        let (scores, combined) = if mode < 2 {
            let engine = CepsEngine::new(&graph, CepsConfig::default()).unwrap();
            let mut scores = engine.individual_scores(&queries).unwrap();
            if mode == 1 {
                let rows = (0..queries.len())
                    .map(|i| scores.row(i).iter().map(|x| (x * 40.0).round() / 40.0).collect())
                    .collect();
                scores = ScoreMatrix::new(queries.clone(), rows).unwrap();
            }
            let combined = combine_scores(&scores, k).unwrap();
            (scores, combined)
        } else {
            let mut level = |top: u32| f64::from(rng.gen_range(0..top)) / 4.0;
            let rows = (0..queries.len())
                .map(|_| (0..total).map(|_| level(5)).collect())
                .collect();
            let combined = (0..total).map(|_| level(4)).collect();
            (ScoreMatrix::new(queries.clone(), rows).unwrap(), combined)
        };
        let sharing = if share == 0 {
            SharingRule::FreeSharedNodes
        } else {
            SharingRule::CountAllNodes
        };
        let params = ExtractParams {
            graph: &graph,
            scores: &scores,
            combined: &combined,
            k,
            budget,
            max_path_len: len,
            sharing,
        };
        prop_assert_eq!(
            extract(params),
            ref_extract(params),
            "mode {} k {} budget {} len {} {:?}",
            mode, k, budget, len, sharing
        );
    }
}

/// The planted case by hand: hub 2 out-scores its neighbour 1, so it sits
/// in source 0's band for destination 3 without being in its downhill
/// cone. The band sweep from 3 marks it; it must stay massless.
#[test]
fn band_nodes_outside_the_cone_carry_no_mass() {
    let mut b = GraphBuilder::with_nodes(7);
    for (x, y) in [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (2, 5), (2, 6)] {
        b.add_edge(NodeId(x), NodeId(y), 1.0).unwrap();
    }
    let graph = b.build().unwrap();
    let row = vec![0.9, 0.5, 0.7, 0.3, 0.4, 0.4, 0.4];
    let cone = ref_cone(&graph, &row, NodeId(0));
    assert!(
        !cone[2] && cone[3],
        "hub 2 must be in the band but not the cone"
    );
    let scores = ScoreMatrix::new(vec![NodeId(0)], vec![row]).unwrap();
    let combined = vec![0.9, 0.2, 0.8, 0.6, 0.1, 0.1, 0.1];
    let params = ExtractParams {
        graph: &graph,
        scores: &scores,
        combined: &combined,
        k: 1,
        budget: 3,
        max_path_len: 3,
        sharing: SharingRule::FreeSharedNodes,
    };
    let out = extract(params);
    assert_eq!(out, ref_extract(params));
    // Destination 2 (the hub) is unreachable downhill: an orphan. Then 3
    // is reached directly from the source.
    assert_eq!(out.orphan_destinations, vec![NodeId(2)]);
    assert!(out
        .paths
        .iter()
        .any(|p| p.nodes == vec![NodeId(0), NodeId(3)]));
}
