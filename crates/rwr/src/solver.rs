//! Power-iteration RWR solver (Eq. 4).

use std::sync::Arc;

use ceps_graph::{NodeId, Restart, Transition};
use ceps_pool::PoolHandle;

use crate::{scratch::ScratchPool, Result, RwrError, ScoreMatrix};

/// Tuning knobs for the RWR solver.
///
/// Defaults follow the paper's experimental setup (Sec. 7, "Parameter
/// Setting"): restart coefficient `c = 0.5` and `m = 50` iterations, at which
/// point the authors "do not observe performance improvement with more
/// iteration steps".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RwrConfig {
    /// Probability of continuing the walk (the `c` multiplying `W̃` in
    /// Eq. 4); `1 − c` is the fly-out/restart probability.
    pub c: f64,
    /// Maximum number of power iterations (`m` in Table 2).
    pub max_iterations: usize,
    /// Optional early-exit: stop once the L1 change between successive
    /// iterates drops below this. `None` always runs `max_iterations`.
    pub tolerance: Option<f64>,
    /// Number of worker threads for the sparse-times-block product inside
    /// multi-source solves. `0` = auto (the machine's available
    /// parallelism, the default); `1` = always sequential. Even with
    /// multiple threads the engine falls back to the sequential kernel for
    /// small products (see [`ceps_pool::DEFAULT_MIN_WORK`]), so small
    /// graphs and presets never pay dispatch overhead.
    pub threads: usize,
}

impl Default for RwrConfig {
    fn default() -> Self {
        RwrConfig {
            c: 0.5,
            max_iterations: 50,
            tolerance: None,
            threads: 0,
        }
    }
}

impl RwrConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// [`RwrError::InvalidRestart`] unless `0 < c < 1`.
    pub fn validate(&self) -> Result<()> {
        if !(self.c > 0.0 && self.c < 1.0) {
            return Err(RwrError::InvalidRestart { c: self.c });
        }
        Ok(())
    }

    /// The effective worker count: `threads` with `0` resolved to the
    /// machine's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        ceps_pool::resolve_threads(self.threads)
    }
}

/// Convergence diagnostics from a single-source solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations actually performed.
    pub iterations: usize,
    /// L1 difference between the final two iterates.
    pub final_delta: f64,
}

/// Solves Eq. 4 over a fixed normalized operator.
///
/// Borrows the [`Transition`]; one engine serves any number of queries, which
/// is how the pipeline amortizes normalization across the repeated solves of
/// the evaluation sweeps. The engine also carries a lazy [`PoolHandle`] (no
/// threads spawned until a solve actually clears the parallel-work
/// threshold) and a [`ScratchPool`] of reusable iteration buffers; both are
/// shared across clones, and long-lived owners (backends, services) can
/// inject their own via [`RwrEngine::with_pool`] so repeated solves reuse
/// one set of workers and buffers.
#[derive(Debug, Clone)]
pub struct RwrEngine<'t> {
    transition: &'t Transition,
    config: RwrConfig,
    pool: PoolHandle,
    scratch: Arc<ScratchPool>,
}

impl<'t> RwrEngine<'t> {
    /// Creates an engine over `transition` with `config`, with its own
    /// (lazy) worker pool and scratch pool.
    ///
    /// # Errors
    /// Propagates [`RwrConfig::validate`].
    pub fn new(transition: &'t Transition, config: RwrConfig) -> Result<Self> {
        Self::with_pool(
            transition,
            config,
            PoolHandle::new(config.threads),
            Arc::new(ScratchPool::new()),
        )
    }

    /// Creates an engine sharing an existing worker-pool handle and
    /// scratch pool — the constructor long-lived owners use so per-request
    /// engines never respawn threads or reallocate iteration buffers.
    ///
    /// # Errors
    /// Propagates [`RwrConfig::validate`].
    pub fn with_pool(
        transition: &'t Transition,
        config: RwrConfig,
        pool: PoolHandle,
        scratch: Arc<ScratchPool>,
    ) -> Result<Self> {
        config.validate()?;
        Ok(RwrEngine {
            transition,
            config,
            pool,
            scratch,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RwrConfig {
        &self.config
    }

    /// The operator the engine walks.
    pub fn transition(&self) -> &Transition {
        self.transition
    }

    /// The worker-pool handle multi-source solves dispatch through.
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// The scratch pool backing the solver's ping-pong buffers.
    pub fn scratch(&self) -> &Arc<ScratchPool> {
        &self.scratch
    }

    fn check_node(&self, q: NodeId) -> Result<()> {
        if q.index() >= self.transition.node_count() {
            return Err(RwrError::BadQueryNode {
                node: q,
                node_count: self.transition.node_count(),
            });
        }
        Ok(())
    }

    /// Stationary distribution `r(i, ·)` for a single query node.
    pub fn solve_single(&self, q: NodeId) -> Result<(Vec<f64>, SolveStats)> {
        self.check_node(q)?;
        let _span = ceps_obs::span("rwr.solve_single");
        let n = self.transition.node_count();
        let c = self.config.c;
        let restart = 1.0 - c;

        let mut x = vec![0f64; n];
        x[q.index()] = 1.0;
        let mut next = vec![0f64; n];
        let mut stats = SolveStats {
            iterations: 0,
            final_delta: f64::INFINITY,
        };

        for it in 0..self.config.max_iterations {
            self.transition.apply(&x, &mut next);
            let mut delta = 0.0;
            for (i, slot) in next.iter_mut().enumerate() {
                let v = c * *slot + if i == q.index() { restart } else { 0.0 };
                delta += (v - x[i]).abs();
                *slot = v;
            }
            std::mem::swap(&mut x, &mut next);
            stats.iterations = it + 1;
            stats.final_delta = delta;
            if let Some(tol) = self.config.tolerance {
                if delta < tol {
                    break;
                }
            }
        }
        if ceps_obs::enabled() {
            ceps_obs::counter("rwr.solves", 1);
            ceps_obs::counter("rwr.columns", 1);
            ceps_obs::record("rwr.iterations", stats.iterations as f64);
            ceps_obs::record("rwr.exit_residual", stats.final_delta);
        }
        Ok((x, stats))
    }

    /// Batched power iteration: all `Q` stationary distributions at once.
    ///
    /// Iterates `X ← c · M X + (1 − c) E` on an `N × A` block (node-major,
    /// stride `A` = currently-active columns) with ping-ponged buffers
    /// drawn from the shared [`ScratchPool`], so each sparse entry of `M`
    /// is loaded once per iteration and reused across all active columns —
    /// instead of `Q` separate passes over the CSR arrays as in repeated
    /// [`RwrEngine::solve_single`] calls. Each iteration is one
    /// [`Transition::rwr_sweep`]: the restart step runs inside the row
    /// kernel, so the sweep returns the finished iterate. When the product
    /// (`nnz × A` fused ops) clears the pool threshold, the rows are
    /// chunked across the persistent worker pool; otherwise the sweep runs
    /// on the calling thread.
    ///
    /// The L1 change between iterates is summed only when something reads
    /// it: every iteration when a `tolerance` is set, otherwise only on the
    /// last one (it becomes [`SolveStats::final_delta`]). The sum runs
    /// serially in ascending node order, as in `solve_single`.
    ///
    /// Per column the arithmetic order matches `solve_single` exactly, so
    /// each returned row and its [`SolveStats`] are bitwise-identical to
    /// the single-source solve. With a `tolerance` set, columns freeze
    /// individually the iteration their L1 delta drops below it — exactly
    /// where `solve_single` stops — and are **compacted out of the
    /// iteration block**: their final values move straight into the output
    /// matrix and the remaining columns close ranks to a narrower stride,
    /// so frozen columns cost nothing in later iterations.
    ///
    /// # Errors
    /// [`RwrError::NoQueries`] on an empty slice or
    /// [`RwrError::BadQueryNode`] for an out-of-range query.
    pub fn solve_block(&self, queries: &[NodeId]) -> Result<(ScoreMatrix, Vec<SolveStats>)> {
        if queries.is_empty() {
            return Err(RwrError::NoQueries);
        }
        for &q in queries {
            self.check_node(q)?;
        }
        let _span = ceps_obs::span("rwr.solve_block");
        let n = self.transition.node_count();
        let q_count = queries.len();
        let c = self.config.c;
        let nnz = self.transition.nnz();
        let last = self.config.max_iterations.saturating_sub(1);

        // The row-major Q x N output; frozen columns transpose into it the
        // iteration they converge, the rest on exit.
        let mut data = vec![0f64; q_count * n];

        let mut x = self.scratch.take(n * q_count);
        for (j, q) in queries.iter().enumerate() {
            x[q.index() * q_count + j] = 1.0;
        }
        let mut next = self.scratch.take(n * q_count);
        let mut stats = vec![
            SolveStats {
                iterations: 0,
                final_delta: f64::INFINITY,
            };
            q_count
        ];
        // act[jj] = original query index of the jj-th still-active column;
        // sources[jj] = its query node.
        let mut act: Vec<usize> = (0..q_count).collect();
        let mut sources: Vec<NodeId> = queries.to_vec();
        let mut deltas = vec![0f64; q_count];
        let mut newly: Vec<usize> = Vec::new();

        for it in 0..self.config.max_iterations {
            let a = act.len();
            if a == 0 {
                break;
            }
            let restart = Restart {
                c,
                sources: &sources,
            };
            let pool = self.pool.acquire(nnz.saturating_mul(a)).map(Arc::as_ref);
            self.transition
                .rwr_sweep(&x[..n * a], &mut next[..n * a], a, restart, pool);
            let measured = self.config.tolerance.is_some() || it == last;
            if measured {
                deltas[..a].fill(0.0);
                for (xrow, nrow) in x[..n * a]
                    .chunks_exact(a)
                    .zip(next[..n * a].chunks_exact(a))
                {
                    for ((d, v), old) in deltas.iter_mut().zip(nrow).zip(xrow) {
                        *d += (v - old).abs();
                    }
                }
            }
            std::mem::swap(&mut x, &mut next);
            newly.clear();
            for (jj, &orig) in act.iter().enumerate() {
                stats[orig].iterations = it + 1;
                if measured {
                    stats[orig].final_delta = deltas[jj];
                }
                if let Some(tol) = self.config.tolerance {
                    if deltas[jj] < tol {
                        newly.push(jj);
                    }
                }
            }
            if !newly.is_empty() {
                self.freeze_columns(&mut x, &mut act, &newly, &mut data, n);
                sources = act.iter().map(|&orig| queries[orig]).collect();
            }
        }

        // Drain the still-active columns into the output.
        let a = act.len();
        for u in 0..n {
            let row = u * a;
            for (jj, &orig) in act.iter().enumerate() {
                data[orig * n + u] = x[row + jj];
            }
        }
        self.scratch.put(x);
        self.scratch.put(next);

        if ceps_obs::enabled() {
            ceps_obs::counter("rwr.solves", 1);
            ceps_obs::counter("rwr.columns", q_count as u64);
            let early = q_count - act.len();
            ceps_obs::counter("rwr.frozen_columns", early as u64);
            for s in &stats {
                ceps_obs::record("rwr.iterations", s.iterations as f64);
                ceps_obs::record("rwr.exit_residual", s.final_delta);
            }
        }

        Ok((ScoreMatrix::from_flat(queries.to_vec(), data, n)?, stats))
    }

    /// Moves the `newly`-converged columns (positions in the current active
    /// layout, ascending) out of the node-major block `x` into the
    /// row-major output `data`, compacting the surviving columns to the
    /// narrower stride in place.
    ///
    /// The single ascending pass is clobber-free: for row `u`, frozen reads
    /// at `u·a + jj` happen before that row's compaction writes, every
    /// write `u·a_new + k` lands at or before its read `u·a + keep[k]`
    /// (because `a_new ≤ a` and `keep[k] ≥ k`), and row `u`'s writes all
    /// end before row `u + 1`'s reads begin.
    fn freeze_columns(
        &self,
        x: &mut [f64],
        act: &mut Vec<usize>,
        newly: &[usize],
        data: &mut [f64],
        n: usize,
    ) {
        let a = act.len();
        let mut frozen = vec![false; a];
        for &jj in newly {
            frozen[jj] = true;
        }
        let keep: Vec<usize> = (0..a).filter(|&jj| !frozen[jj]).collect();
        let a_new = keep.len();
        for u in 0..n {
            let row = u * a;
            for &jj in newly {
                data[act[jj] * n + u] = x[row + jj];
            }
            let dst = u * a_new;
            for (k, &jj) in keep.iter().enumerate() {
                x[dst + k] = x[row + jj];
            }
        }
        *act = keep.into_iter().map(|jj| act[jj]).collect();
    }

    /// Stationary distributions for every query node, as the `R` matrix.
    ///
    /// Runs the batched kernel ([`RwrEngine::solve_block`]); results are
    /// bitwise-identical to per-source [`RwrEngine::solve_single`] calls.
    ///
    /// # Errors
    /// [`RwrError::NoQueries`] on an empty slice or
    /// [`RwrError::BadQueryNode`] for an out-of-range query.
    pub fn solve_many(&self, queries: &[NodeId]) -> Result<ScoreMatrix> {
        Ok(self.solve_block(queries)?.0)
    }

    /// Reference multi-source path: one [`RwrEngine::solve_single`] per
    /// query, sequentially. Kept for differential tests and as the
    /// benchmark baseline the batched kernel is measured against.
    ///
    /// # Errors
    /// [`RwrError::NoQueries`] on an empty slice or
    /// [`RwrError::BadQueryNode`] for an out-of-range query.
    pub fn solve_many_unbatched(&self, queries: &[NodeId]) -> Result<ScoreMatrix> {
        if queries.is_empty() {
            return Err(RwrError::NoQueries);
        }
        let mut rows = Vec::with_capacity(queries.len());
        for &q in queries {
            rows.push(self.solve_single(q)?.0);
        }
        ScoreMatrix::new(queries.to_vec(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceps_graph::{normalize::Normalization, GraphBuilder};

    fn line_graph(n: u32) -> Transition {
        let mut b = GraphBuilder::new();
        for i in 0..n - 1 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        Transition::new(&g, Normalization::ColumnStochastic)
    }

    #[test]
    fn rejects_bad_restart() {
        let t = line_graph(3);
        for c in [0.0, 1.0, -0.5, 2.0] {
            let cfg = RwrConfig {
                c,
                ..Default::default()
            };
            assert!(RwrEngine::new(&t, cfg).is_err());
        }
    }

    #[test]
    fn rejects_bad_query_node_and_empty_set() {
        let t = line_graph(3);
        let engine = RwrEngine::new(&t, RwrConfig::default()).unwrap();
        assert!(matches!(
            engine.solve_single(NodeId(5)),
            Err(RwrError::BadQueryNode { .. })
        ));
        assert!(matches!(engine.solve_many(&[]), Err(RwrError::NoQueries)));
    }

    #[test]
    fn distribution_sums_to_one_and_peaks_at_source() {
        let t = line_graph(6);
        let engine = RwrEngine::new(&t, RwrConfig::default()).unwrap();
        let (r, stats) = engine.solve_single(NodeId(2)).unwrap();
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        let argmax = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(argmax, 2);
        assert_eq!(stats.iterations, 50);
    }

    #[test]
    fn score_decays_with_distance_on_a_path() {
        let t = line_graph(8);
        let engine = RwrEngine::new(&t, RwrConfig::default()).unwrap();
        let (r, _) = engine.solve_single(NodeId(0)).unwrap();
        for j in 0..7 {
            assert!(
                r[j] > r[j + 1],
                "r[{j}]={} <= r[{}]={}",
                r[j],
                j + 1,
                r[j + 1]
            );
        }
    }

    #[test]
    fn tolerance_stops_early() {
        let t = line_graph(6);
        let cfg = RwrConfig {
            tolerance: Some(1e-3),
            max_iterations: 500,
            ..Default::default()
        };
        let engine = RwrEngine::new(&t, cfg).unwrap();
        let (_, stats) = engine.solve_single(NodeId(0)).unwrap();
        assert!(stats.iterations < 500);
        assert!(stats.final_delta < 1e-3);
    }

    /// Tests that spawn real pool workers share the process-global
    /// [`ceps_pool::live_workers`] counter, so they run one at a time.
    fn pool_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parallel_solve_matches_sequential() {
        let _guard = pool_serial();
        let t = line_graph(12);
        let queries = [NodeId(0), NodeId(3), NodeId(7), NodeId(11)];
        let seq_cfg = RwrConfig {
            threads: 1,
            ..Default::default()
        };
        let seq = RwrEngine::new(&t, seq_cfg)
            .unwrap()
            .solve_many(&queries)
            .unwrap();
        // min_work 0 forces the pooled kernel even on this tiny graph.
        let par_cfg = RwrConfig {
            threads: 3,
            ..Default::default()
        };
        let par = RwrEngine::with_pool(
            &t,
            par_cfg,
            ceps_pool::PoolHandle::with_min_work(3, 0),
            Arc::new(ScratchPool::new()),
        )
        .unwrap()
        .solve_many(&queries)
        .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn pooled_solve_reuses_workers_and_scratch_and_joins_on_drop() {
        let _guard = pool_serial();
        let t = line_graph(12);
        let queries = [NodeId(0), NodeId(5), NodeId(11)];
        let before = ceps_pool::live_workers();
        let handle = ceps_pool::PoolHandle::with_min_work(3, 0);
        let scratch = Arc::new(ScratchPool::new());
        let cfg = RwrConfig {
            threads: 3,
            ..Default::default()
        };
        let engine = RwrEngine::with_pool(&t, cfg, handle.clone(), Arc::clone(&scratch)).unwrap();

        let first = engine.solve_many(&queries).unwrap();
        let pool = Arc::clone(handle.get().expect("first solve materializes the pool"));
        assert_eq!(ceps_pool::live_workers(), before + 2);
        let rounds = pool.rounds();
        assert!(rounds >= 1, "the solve dispatched through the pool");

        let second = engine.solve_many(&queries).unwrap();
        assert!(
            Arc::ptr_eq(&pool, handle.get().unwrap()),
            "second solve reuses the same pool"
        );
        assert!(pool.rounds() > rounds, "reused workers took new rounds");
        assert_eq!(first, second);
        assert!(
            scratch.pooled() >= 2,
            "ping-pong buffers returned for reuse, got {}",
            scratch.pooled()
        );

        drop(engine);
        drop(handle);
        drop(pool);
        assert_eq!(
            ceps_pool::live_workers(),
            before,
            "dropping the last handle joins every worker"
        );
    }

    #[test]
    fn staggered_freezing_compacts_without_changing_results() {
        // A clique hanging off a long path: clique columns converge many
        // iterations before far-path columns, so the active block compacts
        // several times mid-solve. Rows and stats must still be
        // bitwise-identical to per-source solves.
        let mut b = GraphBuilder::new();
        for i in 0..11 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        for x in 12..16u32 {
            for y in (x + 1)..16 {
                b.add_edge(NodeId(x), NodeId(y), 4.0).unwrap();
            }
        }
        b.add_edge(NodeId(0), NodeId(12), 1.0).unwrap();
        let g = b.build().unwrap();
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let cfg = RwrConfig {
            tolerance: Some(1e-9),
            max_iterations: 2000,
            threads: 1,
            ..Default::default()
        };
        let engine = RwrEngine::new(&t, cfg).unwrap();
        let queries = [NodeId(14), NodeId(11), NodeId(5), NodeId(13)];
        let (matrix, stats) = engine.solve_block(&queries).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let (row, single) = engine.solve_single(q).unwrap();
            assert_eq!(stats[i], single, "query {i}");
            assert_eq!(matrix.row(i), &row[..], "query {i}");
        }
        let iters: std::collections::BTreeSet<usize> = stats.iter().map(|s| s.iterations).collect();
        assert!(
            iters.len() >= 2,
            "expected staggered freezing, got {stats:?}"
        );
    }

    #[test]
    fn batched_solve_matches_unbatched_bitwise() {
        let t = line_graph(10);
        let queries = [NodeId(0), NodeId(4), NodeId(9)];
        let engine = RwrEngine::new(&t, RwrConfig::default()).unwrap();
        let batched = engine.solve_many(&queries).unwrap();
        let unbatched = engine.solve_many_unbatched(&queries).unwrap();
        assert_eq!(batched, unbatched);
    }

    #[test]
    fn block_stats_match_single_source_stats() {
        let t = line_graph(10);
        let queries = [NodeId(0), NodeId(9)];
        let cfg = RwrConfig {
            tolerance: Some(1e-6),
            max_iterations: 500,
            threads: 1,
            ..Default::default()
        };
        let engine = RwrEngine::new(&t, cfg).unwrap();
        let (matrix, stats) = engine.solve_block(&queries).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let (row, single) = engine.solve_single(q).unwrap();
            assert_eq!(stats[i], single, "query {i}");
            assert_eq!(matrix.row(i), &row[..], "query {i}");
        }
    }

    #[test]
    fn symmetric_normalization_gives_symmetric_scores() {
        // Appendix Variant 1: with S = D^{-1/2} W D^{-1/2}, r(i, j) = r(j, i).
        let mut b = GraphBuilder::new();
        for (a, bb, w) in [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (2, 3, 1.5)] {
            b.add_edge(NodeId(a), NodeId(bb), w).unwrap();
        }
        let g = b.build().unwrap();
        let t = Transition::new(&g, Normalization::Symmetric);
        let engine = RwrEngine::new(&t, RwrConfig::default()).unwrap();
        let m = engine
            .solve_many(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
            .unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let a = m.score(i, NodeId(j as u32));
                let b = m.score(j, NodeId(i as u32));
                assert!((a - b).abs() < 1e-9, "r({i},{j})={a} vs r({j},{i})={b}");
            }
        }
    }
}
