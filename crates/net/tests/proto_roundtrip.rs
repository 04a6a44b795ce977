//! Property tests for the `ceps-wire/v1` codec and transport seam:
//! arbitrary request/reply payloads must survive framing across arbitrary
//! chunk boundaries, oversized frames must be rejected from the header,
//! and pipelined (interleaved-id) conversations must stay matched.

use std::io::{self, Read, Write};

use ceps_core::{CepsConfig, CepsServiceBuilder, ReplyMember, ReplyPath, ServeReply, ServeRequest};
use ceps_graph::{GraphBuilder, NodeId};
use ceps_net::{
    in_proc, CepsServer, Framed, NetError, Reply, Request, ServerConfig, WireErrorKind, WireTrace,
};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_request() -> impl Strategy<Value = Request> {
    (0u64..1_000_000, vec(0u32..10_000, 1..8), 0u32..5).prop_map(|(id, nodes, kind)| {
        let queries: Vec<NodeId> = nodes.into_iter().map(NodeId).collect();
        match kind {
            0 => Request::Query {
                id,
                req: ServeRequest::new(queries),
                // Traced and untraced frames must both round-trip; derive
                // the optional context deterministically from the id.
                trace: (id % 2 == 0).then(|| WireTrace {
                    trace_id: format!("{:016x}", id | 1),
                    parent_span: format!("{:016x}", id ^ 0xabcd),
                    sampled: id % 4 == 0,
                }),
            },
            1 => Request::AutoK { id, queries },
            2 => Request::Ping { id },
            3 => Request::Stats { id },
            _ => Request::Shutdown { id },
        }
    })
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        0u64..1_000_000,
        1usize..6,
        vec((0u32..10_000, -1.0..1.0f64, 0u32..2), 0..10),
        vec((0usize..4, vec(0u32..10_000, 0..5)), 0..4),
    )
        .prop_map(|(id, k, members, paths)| Reply::Scores {
            id,
            reply: ServeReply {
                k,
                members: members
                    .into_iter()
                    .map(|(n, score, is_q)| ReplyMember {
                        id: NodeId(n),
                        score,
                        is_query: is_q == 1,
                    })
                    .collect(),
                paths: paths
                    .into_iter()
                    .map(|(source_index, nodes)| ReplyPath {
                        source_index,
                        nodes: nodes.into_iter().map(NodeId).collect(),
                    })
                    .collect(),
            },
        })
}

// ---------------------------------------------------------------------
// A Read/Write pair that dribbles bytes out in scripted chunk sizes, so
// the decoder sees every possible frame split.
// ---------------------------------------------------------------------

struct ChunkedStream {
    bytes: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    turn: usize,
}

impl ChunkedStream {
    fn new(bytes: Vec<u8>, chunks: Vec<usize>) -> Self {
        ChunkedStream {
            bytes,
            pos: 0,
            chunks,
            turn: 0,
        }
    }
}

impl Read for ChunkedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.bytes.len() {
            return Ok(0);
        }
        let step = self.chunks[self.turn % self.chunks.len()].max(1);
        self.turn += 1;
        let n = step.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for ChunkedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any request survives framing + arbitrary read-chunk boundaries,
    /// and re-encoding the decoded value reproduces the exact bytes.
    #[test]
    fn requests_round_trip_across_chunk_boundaries(
        req in arb_request(),
        chunks in vec(1usize..9, 1..6),
    ) {
        let bytes = ceps_net::wire::encode_frame(&req);
        let mut framed = Framed::new(ChunkedStream::new(bytes.clone(), chunks), 1 << 20);
        let back: Request = framed.recv().unwrap().expect("one full frame");
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(ceps_net::wire::encode_frame(&back), bytes);
        // Clean EOF at the frame boundary.
        prop_assert!(framed.recv::<Request>().unwrap().is_none());
    }

    /// Any reply (scores with arbitrary f64 payloads included) survives
    /// framing byte-identically.
    #[test]
    fn replies_round_trip_byte_identically(
        reply in arb_reply(),
        chunks in vec(1usize..17, 1..5),
    ) {
        let bytes = ceps_net::wire::encode_frame(&reply);
        let mut framed = Framed::new(ChunkedStream::new(bytes.clone(), chunks), 1 << 20);
        let back: Reply = framed.recv().unwrap().expect("one full frame");
        prop_assert_eq!(&back, &reply);
        prop_assert_eq!(ceps_net::wire::encode_frame(&back), bytes);
    }

    /// Back-to-back frames split at arbitrary boundaries all arrive, in
    /// order.
    #[test]
    fn frame_sequences_preserve_order(
        reqs in vec(arb_request(), 1..5),
        chunks in vec(1usize..13, 1..5),
    ) {
        let mut bytes = Vec::new();
        for r in &reqs {
            bytes.extend_from_slice(&ceps_net::wire::encode_frame(r));
        }
        let mut framed = Framed::new(ChunkedStream::new(bytes, chunks), 1 << 20);
        for r in &reqs {
            let back: Request = framed.recv().unwrap().expect("frame present");
            prop_assert_eq!(&back, r);
        }
        prop_assert!(framed.recv::<Request>().unwrap().is_none());
    }

    /// A frame whose header announces more than the cap is rejected
    /// before the payload is consumed, whatever the chunking.
    #[test]
    fn oversized_frames_rejected_from_the_header(
        req in arb_request(),
        cap in 1usize..16,
        chunks in vec(1usize..9, 1..4),
    ) {
        let bytes = ceps_net::wire::encode_frame(&req);
        prop_assume!(bytes.len() > cap + 4); // header digits + newlines
        let mut framed = Framed::new(ChunkedStream::new(bytes, chunks), cap);
        match framed.recv::<Request>() {
            Err(NetError::TooLarge { len, max }) => {
                prop_assert_eq!(max, cap);
                prop_assert!(len > cap);
            }
            other => prop_assert!(false, "expected TooLarge, got {:?}", other.is_ok()),
        }
    }
}

// ---------------------------------------------------------------------
// Live-transport properties: pipelined ids against a real server.
// ---------------------------------------------------------------------

fn tiny_service() -> ceps_core::CepsService {
    let mut b = GraphBuilder::new();
    for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)] {
        b.add_edge(NodeId(x), NodeId(y), 1.0).unwrap();
    }
    CepsServiceBuilder::new()
        .cache_bytes(1 << 20)
        .workers(2)
        .build_from_graph(b.build().unwrap(), CepsConfig::default().budget(3))
        .unwrap()
}

fn tiny_server() -> CepsServer {
    CepsServer::new(tiny_service(), ServerConfig::default())
}

/// Pipelining: many requests written before any reply is read come back
/// in order with matching ids, and concurrent connections don't cross
/// their streams.
#[test]
fn interleaved_request_ids_stay_matched_across_connections() {
    let server = tiny_server();
    let (mut transport, connector) = in_proc();
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.serve(&mut transport).unwrap());

        let mut workers = Vec::new();
        for conn_idx in 0u64..3 {
            let connector = connector.clone();
            workers.push(s.spawn(move || {
                let conn = connector.connect().unwrap();
                let mut framed = Framed::new(conn, 1 << 20);
                // Distinct id space per connection, sent all up front.
                let ids: Vec<u64> = (0..8).map(|i| conn_idx * 1000 + i).collect();
                for &id in &ids {
                    let frame: Request = if id % 2 == 0 {
                        Request::Query {
                            id,
                            req: ServeRequest::new(vec![NodeId((id % 6) as u32)]),
                            trace: None,
                        }
                    } else {
                        Request::Ping { id }
                    };
                    framed.send(&frame).unwrap();
                }
                // Replies arrive strictly in request order, ids echoed.
                for &id in &ids {
                    let reply: Reply = framed.recv().unwrap().expect("reply per request");
                    assert_eq!(reply.id(), id, "conn {conn_idx} got crossed streams");
                    match reply {
                        Reply::Scores { .. } | Reply::Pong { .. } => {}
                        other => panic!("unexpected reply {other:?}"),
                    }
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }

        let mut client = ceps_net::CepsClient::from_conn(Box::new(connector.connect().unwrap()));
        let stats = client.stats().unwrap();
        assert_eq!(stats.queries, 12, "3 connections x 4 queries each");
        client.shutdown().unwrap();
    });
}

/// A shared byte sink for trace JSONL written from server workers and
/// client threads alike.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end trace identity under pipelining: arbitrary query
    /// batches, pipelined (all sends before any recv) across concurrent
    /// connections, come back with every client trace line joined to
    /// exactly one server trace line by `trace_id` — and the traced
    /// replies carry the same score bits as an untraced in-process run,
    /// so tracing is observation-only.
    #[test]
    fn pipelined_traced_queries_keep_trace_ids_matched_end_to_end(
        plans in vec(vec((0u32..6, 1usize..4), 1..5), 1..4),
    ) {
        // Untraced ground truth: recorder off, no tracer, no contexts.
        let reference = tiny_service();
        let expected: Vec<Vec<ServeReply>> = plans
            .iter()
            .map(|sets| {
                sets.iter()
                    .map(|&(node, extra)| {
                        let queries: Vec<NodeId> =
                            (0..extra).map(|j| NodeId((node + j as u32) % 6)).collect();
                        let (result, _) = reference.run(&queries).unwrap();
                        ServeReply::from_result(&result, &queries)
                    })
                    .collect()
            })
            .collect();

        let server_sink = SharedBuf::default();
        let server = tiny_server().with_tracer(ceps_core::RequestTracer::new(
            Box::new(server_sink.clone()),
            1.0,
        ));
        let client_sink = SharedBuf::default();
        let (mut transport, connector) = in_proc();
        std::thread::scope(|s| {
            let server = &server;
            s.spawn(move || server.serve(&mut transport).unwrap());

            let mut conns = Vec::new();
            for (conn_idx, sets) in plans.iter().enumerate() {
                let connector = connector.clone();
                let sink = client_sink.clone();
                let expected = &expected[conn_idx];
                conns.push(s.spawn(move || {
                    let mut client =
                        ceps_net::CepsClient::from_conn(Box::new(connector.connect().unwrap()))
                            .with_trace_sink(Box::new(sink));
                    // Pipeline: every request on the wire before the
                    // first reply is read.
                    let mut sent = Vec::new();
                    for &(node, extra) in sets {
                        let queries: Vec<NodeId> =
                            (0..extra).map(|j| NodeId((node + j as u32) % 6)).collect();
                        let id = client.send_request(&ServeRequest::new(queries)).unwrap();
                        let trace_id = client.trace_id_of(id).expect("pending id is traced");
                        sent.push((id, trace_id));
                    }
                    for (&(id, trace_id), want) in sent.iter().zip(expected) {
                        let reply = client.recv_reply().unwrap();
                        assert_eq!(reply.id(), id, "pipelined replies arrive in order");
                        match reply {
                            Reply::Scores { reply, .. } => assert_eq!(
                                &reply, want,
                                "traced wire reply diverged from untraced serve()"
                            ),
                            other => panic!("unexpected reply {other:?}"),
                        }
                        assert_ne!(trace_id, 0, "root contexts are nonzero");
                    }
                    sent
                }));
            }
            let sent: Vec<(u64, u64)> = conns.into_iter().flat_map(|c| c.join().unwrap()).collect();

            let mut shutter =
                ceps_net::CepsClient::from_conn(Box::new(connector.connect().unwrap()));
            shutter.shutdown().unwrap();

            // Join the two JSONL streams on trace_id: every request the
            // clients traced must appear exactly once on each side, with
            // matching request ids.
            let server_lines: Vec<serde_json::Value> = server_sink
                .text()
                .lines()
                .map(|l| serde_json::from_str(l).unwrap())
                .collect();
            let client_lines: Vec<serde_json::Value> = client_sink
                .text()
                .lines()
                .map(|l| serde_json::from_str(l).unwrap())
                .collect();
            let total: usize = plans.iter().map(Vec::len).sum();
            assert_eq!(server_lines.len(), total, "head rate 1.0 keeps every request");
            assert_eq!(client_lines.len(), total);

            for &(id, trace_id) in &sent {
                let hex = format!("{trace_id:016x}");
                let on_server: Vec<&serde_json::Value> = server_lines
                    .iter()
                    .filter(|d| d["trace_id"].as_str() == Some(hex.as_str()))
                    .collect();
                assert_eq!(
                    on_server.len(), 1,
                    "trace {} must hit exactly one server line", hex
                );
                assert_eq!(on_server[0]["request_id"].as_u64(), Some(id));
                assert_eq!(on_server[0]["schema"].as_str(), Some("ceps-trace/v1"));
                assert!(on_server[0].get("side").is_none(), "server lines carry no side");

                let on_client: Vec<&serde_json::Value> = client_lines
                    .iter()
                    .filter(|d| d["trace_id"].as_str() == Some(hex.as_str()))
                    .collect();
                assert_eq!(on_client.len(), 1, "trace {} on exactly one client line", hex);
                assert_eq!(on_client[0]["request_id"].as_u64(), Some(id));
                assert_eq!(on_client[0]["side"].as_str(), Some("client"));
            }
        });
    }
}

/// A malformed frame gets a structured `Malformed` error reply (id 0)
/// and the connection is closed; the server stays up for new clients.
#[test]
fn malformed_frames_close_only_their_connection() {
    let server = tiny_server();
    let (mut transport, connector) = in_proc();
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.serve(&mut transport).unwrap());

        let mut bad = connector.connect().unwrap();
        bad.write_all(b"not-a-length\n{}\n").unwrap();
        let mut framed = Framed::new(bad, 1 << 20);
        let reply: Reply = framed.recv().unwrap().expect("structured goodbye");
        match reply {
            Reply::Error { id, error } => {
                assert_eq!(id, 0);
                assert_eq!(error.kind, WireErrorKind::Malformed);
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert!(framed.recv::<Reply>().unwrap().is_none(), "conn closed");

        // Fresh connection still works.
        let mut client = ceps_net::CepsClient::from_conn(Box::new(connector.connect().unwrap()));
        client.ping().unwrap();
        client.shutdown().unwrap();
    });
}
