//! Umbrella crate for the CePS reproduction workspace.
//!
//! This crate exists to host the workspace-level integration tests (`tests/`)
//! and runnable examples (`examples/`). It re-exports the member crates under
//! short names, and [`prelude`] gives examples a one-import surface over the
//! whole pipeline — engine, config, serving layer, graph building and the
//! unified [`CepsError`]:
//!
//! ```
//! use ceps_repro::prelude::*;
//!
//! fn center_piece() -> Result<(), CepsError> {
//!     let mut b = GraphBuilder::new();
//!     for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
//!         b.add_edge(NodeId(x), NodeId(y), 1.0)?;
//!     }
//!     let engine = CepsEngine::new(b.build()?, CepsConfig::default().budget(2))?;
//!     let service = CepsServiceBuilder::new().cache_bytes(16 << 20).build(engine);
//!     let request = ServeRequest::new(vec![NodeId(0), NodeId(4)]);
//!     let (result, _metrics) = service.run(&request.queries)?;
//!     let reply = ServeReply::from_result(&result, &request.queries);
//!     assert!(reply.members.iter().any(|m| m.id == NodeId(2)));
//!     Ok(())
//! }
//! center_piece().unwrap();
//! ```
//!
//! The same [`ServeRequest`](prelude::ServeRequest) /
//! [`ServeReply`](prelude::ServeReply) pair also travels the
//! [`ceps_net`] wire boundary verbatim, so in-process and remote callers
//! share one vocabulary.

pub use ceps_baselines;
pub use ceps_core;
pub use ceps_datagen;
pub use ceps_graph;
pub use ceps_net;
pub use ceps_partition;
pub use ceps_rwr;
pub use ceps_viz;

use std::fmt;

/// One error type over every workspace crate, so examples and integration
/// tests can use a single `Result<_, CepsError>` with `?` across layers.
///
/// Each member crate keeps its own typed error (re-exported here as the
/// variant payload); this enum only adds the `From` conversions.
#[derive(Debug)]
#[non_exhaustive]
pub enum CepsError {
    /// Graph substrate errors ([`ceps_graph`]).
    Graph(ceps_graph::GraphError),
    /// RWR solver and cache errors ([`ceps_rwr`]).
    Rwr(ceps_rwr::RwrError),
    /// Partitioner errors ([`ceps_partition`]).
    Partition(ceps_partition::PartitionError),
    /// Pipeline errors ([`ceps_core`]).
    Core(ceps_core::CepsError),
    /// Baseline-method errors ([`ceps_baselines`]).
    Baseline(ceps_baselines::BaselineError),
}

impl fmt::Display for CepsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CepsError::Graph(e) => write!(f, "graph error: {e}"),
            CepsError::Rwr(e) => write!(f, "rwr error: {e}"),
            CepsError::Partition(e) => write!(f, "partition error: {e}"),
            CepsError::Core(e) => write!(f, "ceps error: {e}"),
            CepsError::Baseline(e) => write!(f, "baseline error: {e}"),
        }
    }
}

impl std::error::Error for CepsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CepsError::Graph(e) => Some(e),
            CepsError::Rwr(e) => Some(e),
            CepsError::Partition(e) => Some(e),
            CepsError::Core(e) => Some(e),
            CepsError::Baseline(e) => Some(e),
        }
    }
}

impl From<ceps_graph::GraphError> for CepsError {
    fn from(e: ceps_graph::GraphError) -> Self {
        CepsError::Graph(e)
    }
}

impl From<ceps_rwr::RwrError> for CepsError {
    fn from(e: ceps_rwr::RwrError) -> Self {
        CepsError::Rwr(e)
    }
}

impl From<ceps_partition::PartitionError> for CepsError {
    fn from(e: ceps_partition::PartitionError) -> Self {
        CepsError::Partition(e)
    }
}

impl From<ceps_core::CepsError> for CepsError {
    fn from(e: ceps_core::CepsError) -> Self {
        CepsError::Core(e)
    }
}

impl From<ceps_baselines::BaselineError> for CepsError {
    fn from(e: ceps_baselines::BaselineError) -> Self {
        CepsError::Baseline(e)
    }
}

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::CepsError;
    pub use ceps_core::{
        CepsConfig, CepsEngine, CepsResult, CepsService, CepsServiceBuilder, FastCeps, QueryType,
        ScoreMethod, ServeOutcome, ServeReply, ServeRequest,
    };
    pub use ceps_datagen::{CoauthorConfig, CoauthorGraph, QueryRepository};
    pub use ceps_graph::{CsrGraph, GraphBuilder, IntoSharedGraph, NodeId};
    pub use ceps_net::{CepsClient, CepsServer, ListenAddr, ServerConfig};
    pub use ceps_rwr::{CacheStats, RwrConfig, RwrEngine, RwrRowCache, ScoreBackend};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_error_converts_from_every_layer() {
        use std::error::Error;
        let from_graph: CepsError = ceps_graph::GraphError::EmptyGraph.into();
        let from_rwr: CepsError = ceps_rwr::RwrError::NoQueries.into();
        let from_core: CepsError = ceps_core::CepsError::NoQueries.into();
        for e in [&from_graph, &from_rwr, &from_core] {
            assert!(e.source().is_some());
            assert!(!e.to_string().is_empty());
        }
    }
}
