//! Property-based tests for the RWR engine and score combinators.

use ceps_graph::{normalize::Normalization, GraphBuilder, NodeId, Transition};
use ceps_rwr::{
    combine::{and, at_least_k, at_least_k_bruteforce, combine_rows, combine_scores, or},
    exact::solve_exact,
    push::forward_push,
    RwrConfig, RwrEngine, ScratchPool,
};
use proptest::prelude::*;

/// Strategy: a connected random graph of 3..=20 nodes — a spanning path plus
/// random chords — with weights in (0.1, 10).
fn arb_connected_graph() -> impl Strategy<Value = ceps_graph::CsrGraph> {
    (3usize..=20).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n, 0..n, 0.1f64..10.0), 0..2 * n);
        let spine = proptest::collection::vec(0.1f64..10.0, n - 1);
        (Just(n), spine, chords).prop_map(|(n, spine, chords)| {
            let mut b = GraphBuilder::with_nodes(n);
            for (i, w) in spine.iter().enumerate() {
                b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), *w)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Power iteration with many iterations matches the dense closed form.
    #[test]
    fn power_iteration_matches_exact_solver(
        g in arb_connected_graph(),
        c in 0.1f64..0.9,
        alpha in 0.0f64..1.0,
        q_pick in 0usize..20,
    ) {
        let q = NodeId((q_pick % g.node_count()) as u32);
        let t = Transition::new(&g, Normalization::DegreePenalized { alpha });
        let exact = solve_exact(&t, c, &[q]).unwrap();
        let cfg = RwrConfig { c, max_iterations: 2000, tolerance: Some(1e-14), threads: 1 };
        let approx = RwrEngine::new(&t, cfg).unwrap().solve_many(&[q]).unwrap();
        for j in 0..g.node_count() {
            let d = (exact.row(0)[j] - approx.row(0)[j]).abs();
            prop_assert!(d < 1e-8, "node {j}: diff {d}");
        }
    }

    /// RWR rows are probability distributions on connected graphs.
    #[test]
    fn rwr_rows_are_distributions(g in arb_connected_graph(), q_pick in 0usize..20) {
        let q = NodeId((q_pick % g.node_count()) as u32);
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let m = RwrEngine::new(&t, RwrConfig::default()).unwrap().solve_many(&[q]).unwrap();
        let row = m.row(0);
        prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
        let sum: f64 = row.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    /// The Poisson-binomial DP equals exponential enumeration for all k.
    #[test]
    fn at_least_k_equals_bruteforce(
        probs in proptest::collection::vec(0.0f64..1.0, 1..8),
        k in 0usize..9,
    ) {
        let fast = at_least_k(&probs, k);
        let slow = at_least_k_bruteforce(&probs, k);
        prop_assert!((fast - slow).abs() < 1e-10, "k={k}: {fast} vs {slow}");
    }

    /// Meeting probability is monotone non-increasing in k (Eq. 8 intuition:
    /// requiring more particles can only lower the probability).
    #[test]
    fn meeting_probability_monotone_in_k(
        probs in proptest::collection::vec(0.0f64..1.0, 2..8),
    ) {
        for k in 1..probs.len() {
            prop_assert!(at_least_k(&probs, k) + 1e-12 >= at_least_k(&probs, k + 1));
        }
    }

    /// Combined scores never exceed the OR score and never fall below AND.
    #[test]
    fn combined_scores_bracketed(
        g in arb_connected_graph(),
        picks in proptest::collection::vec(0usize..20, 2..5),
    ) {
        let queries: Vec<NodeId> = picks
            .iter()
            .map(|&p| NodeId((p % g.node_count()) as u32))
            .collect();
        // Dedup to keep the query set well-formed.
        let mut queries = queries;
        queries.sort_unstable();
        queries.dedup();
        prop_assume!(queries.len() >= 2);

        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let m = RwrEngine::new(&t, RwrConfig::default()).unwrap().solve_many(&queries).unwrap();
        let q = queries.len();
        let or = combine_scores(&m, 1).unwrap();
        let and = combine_scores(&m, q).unwrap();
        for mid_k in 1..=q {
            let mid = combine_scores(&m, mid_k).unwrap();
            for j in 0..g.node_count() {
                prop_assert!(mid[j] <= or[j] + 1e-12);
                prop_assert!(mid[j] + 1e-12 >= and[j]);
            }
        }
    }

    /// The batched block solve reproduces the per-source solves: every row
    /// of `solve_block`'s matrix (and its stats) must match the
    /// corresponding `solve_single` within 1e-12 — in fact bitwise, since
    /// the per-column arithmetic order is identical.
    #[test]
    fn solve_block_matches_solve_single(
        g in arb_connected_graph(),
        c in 0.1f64..0.9,
        alpha in 0.0f64..1.0,
        picks in proptest::collection::vec(0usize..20, 1..6),
    ) {
        let mut queries: Vec<NodeId> = picks
            .iter()
            .map(|&p| NodeId((p % g.node_count()) as u32))
            .collect();
        queries.sort_unstable();
        queries.dedup();
        let t = Transition::new(&g, Normalization::DegreePenalized { alpha });
        let cfg = RwrConfig { c, max_iterations: 60, tolerance: None, threads: 1 };
        let engine = RwrEngine::new(&t, cfg).unwrap();
        let (matrix, stats) = engine.solve_block(&queries).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let (row, single_stats) = engine.solve_single(q).unwrap();
            for j in 0..g.node_count() {
                let d = (matrix.row(i)[j] - row[j]).abs();
                prop_assert!(d < 1e-12, "query {i} node {j}: diff {d}");
                prop_assert_eq!(matrix.row(i)[j], row[j]);
            }
            prop_assert_eq!(stats[i], single_stats);
        }
    }

    /// Column freezing (tolerance-based early exit) never changes results:
    /// each frozen column holds exactly the value the per-source solve
    /// stops at, even when the other columns keep iterating.
    #[test]
    fn freezing_matches_per_source_early_stop(
        g in arb_connected_graph(),
        c in 0.1f64..0.9,
        tol_exp in 2u32..10,
        picks in proptest::collection::vec(0usize..20, 2..6),
    ) {
        let mut queries: Vec<NodeId> = picks
            .iter()
            .map(|&p| NodeId((p % g.node_count()) as u32))
            .collect();
        queries.sort_unstable();
        queries.dedup();
        prop_assume!(queries.len() >= 2);
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let cfg = RwrConfig {
            c,
            max_iterations: 500,
            tolerance: Some(10f64.powi(-(tol_exp as i32))),
            threads: 1,
        };
        let engine = RwrEngine::new(&t, cfg).unwrap();
        let (matrix, stats) = engine.solve_block(&queries).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let (row, single_stats) = engine.solve_single(q).unwrap();
            prop_assert_eq!(stats[i], single_stats, "query {}", i);
            for j in 0..g.node_count() {
                prop_assert_eq!(matrix.row(i)[j], row[j], "query {} node {}", i, j);
            }
        }
    }

    /// Without a tolerance the block solve sums the L1 delta only on its
    /// last sweep; the stats it reports must still be `solve_single`'s,
    /// `final_delta` bits included, for any sweep count (0 and 1 too) and
    /// normalization, on the calling thread and through a forced-parallel
    /// pool (`min_work` 0).
    #[test]
    fn unconverged_block_stats_match_single_bitwise(
        g in arb_connected_graph(),
        c in 0.1f64..0.9,
        sweeps in 0usize..12,
        // (normalization, threads) over a 3 x 2 grid.
        grid_pick in 0usize..6,
        picks in proptest::collection::vec(0usize..20, 1..10),
    ) {
        let mut queries: Vec<NodeId> = picks
            .iter()
            .map(|&p| NodeId((p % g.node_count()) as u32))
            .collect();
        queries.sort_unstable();
        queries.dedup();
        let norm = [
            Normalization::ColumnStochastic,
            Normalization::DegreePenalized { alpha: 0.5 },
            Normalization::Symmetric,
        ][grid_pick % 3];
        let threads = [1usize, 3][grid_pick / 3];
        let t = Transition::new(&g, norm);
        let cfg = RwrConfig { c, max_iterations: sweeps, tolerance: None, threads };
        let engine = RwrEngine::with_pool(
            &t,
            cfg,
            ceps_pool::PoolHandle::with_min_work(threads, 0),
            std::sync::Arc::new(ScratchPool::new()),
        )
        .unwrap();
        let (matrix, stats) = engine.solve_block(&queries).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let (row, single) = engine.solve_single(q).unwrap();
            prop_assert_eq!(stats[i].iterations, single.iterations, "query {}", i);
            prop_assert_eq!(
                stats[i].final_delta.to_bits(),
                single.final_delta.to_bits(),
                "query {}: final_delta {} vs {}", i, stats[i].final_delta, single.final_delta
            );
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(matrix.row(i)), bits(&row), "query {}", i);
        }
    }

    /// The row-sweeping combiner equals the per-node column combinators
    /// bitwise for every k — `and` at k = Q, `or` at k = 1, the Eq. 9 DP in
    /// between (auto-k relies on this interchangeability).
    #[test]
    fn combine_rows_matches_column_dp(
        g in arb_connected_graph(),
        picks in proptest::collection::vec(0usize..20, 2..6),
    ) {
        let mut queries: Vec<NodeId> = picks
            .iter()
            .map(|&p| NodeId((p % g.node_count()) as u32))
            .collect();
        queries.sort_unstable();
        queries.dedup();
        prop_assume!(queries.len() >= 2);
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let m = RwrEngine::new(&t, RwrConfig::default()).unwrap().solve_many(&queries).unwrap();
        let rows: Vec<&[f64]> = (0..queries.len()).map(|i| m.row(i)).collect();
        let mut out = vec![0f64; g.node_count()];
        let q = queries.len();
        for k in 1..=q {
            combine_rows(&rows, k, &mut out).unwrap();
            for j in 0..g.node_count() {
                let col: Vec<f64> = rows.iter().map(|r| r[j]).collect();
                let reference = if k == q {
                    and(&col)
                } else if k == 1 {
                    or(&col)
                } else {
                    at_least_k(&col, k)
                };
                prop_assert_eq!(out[j], reference, "k={} node {}", k, j);
            }
        }
    }

    /// Forward push stays within its self-reported residual bound of the
    /// exact solution, for any graph, source and threshold.
    #[test]
    fn forward_push_error_within_reported_residual(
        g in arb_connected_graph(),
        c in 0.1f64..0.9,
        q_pick in 0usize..20,
        eps_exp in 1u32..8,
    ) {
        let q = NodeId((q_pick % g.node_count()) as u32);
        let eps = 10f64.powi(-(eps_exp as i32));
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let exact = solve_exact(&t, c, &[q]).unwrap();
        let push = forward_push(&t, c, q, eps).unwrap();
        let l1: f64 = (0..g.node_count())
            .map(|j| (exact.row(0)[j] - push.scores[j]).abs())
            .sum();
        prop_assert!(l1 <= push.residual_mass + 1e-9,
            "l1 {l1} exceeds residual bound {}", push.residual_mass);
        // Mass conservation: settled + residual = 1 on connected graphs.
        let settled: f64 = push.scores.iter().sum();
        prop_assert!((settled + push.residual_mass - 1.0).abs() < 1e-9);
    }
}
