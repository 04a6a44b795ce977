//! Property tests for ceps-core: EXTRACT, the pipeline contract under both
//! score methods, the auto-k inference bounds, and reply identity under
//! concurrent cached serving.

use ceps_core::{
    infer_soft_and_k, CepsConfig, CepsEngine, CepsServiceBuilder, QueryType, ServeReply,
    ServeRequest,
};
use ceps_graph::{GraphBuilder, NodeId};
use proptest::prelude::*;

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
