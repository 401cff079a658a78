//! The scale-out reactor runtime: a sharded, epoll-backed readiness loop
//! that hosts thousands of DiBA agents per poller thread.
//!
//! The blocking substrates ([`crate::channel`], [`crate::tcp`]) spend one
//! OS thread per node, which tops out around a thousand agents per
//! process. The reactor inverts that: a handful of *poller shards* (one
//! thread each, sized by the load-driven auto-tune or `--shards K`) own
//! contiguous node ranges cut by [`dpc_topology::Graph::shard_offsets`],
//! and every agent is a state machine stepped when its inputs are ready —
//! memory and threads are O(agents) and O(shards) respectively, never
//! O(agents) threads.
//!
//! Each shard's agents live in one agent block (`agent::AgentBlock`).
//! An edge between two agents of the same shard never leaves it: a send
//! writes the receiver's mailbox directly, with no framing. Traffic
//! between shards is coalesced onto **carriers**, one byte stream per
//! pair of shards that share an edge, chosen at bring-up:
//!
//! * a real nonblocking loopback TCP socket driven by the shard's epoll —
//!   at most `shards·(shards−1)/2` sockets total;
//! * an in-memory pipe (signalled through the receiving shard's eventfd)
//!   if the file-descriptor budget is ever that tight.
//!
//! Every carrier moves the identical length-prefixed byte stream: one
//! handshake per carrier, then round traffic packed into
//! [`crate::wire::DataBatch`] frames whose entries are addressed by the
//! *receiving* shard's link index (computed here, centrally, so routing
//! needs no lookups) and decoded into the same mailboxes. Agents still
//! consume exactly one entry per live slot per round in slot order, so
//! the arithmetic is bitwise-identical to the in-process and lockstep
//! substrates at equal seeds (pinned by the transport-equivalence tests)
//! — where an entry travels changes how it moves, never what it says.

mod conn;
mod shard;
mod sys;
mod wheel;

use conn::{Carrier, CarrierEnd, CarrierState, MemPipe, SockConn};
use shard::{run_shard, Shard, IN_SHARD};
use sys::{nofile_limit, Epoll, EventFd};

use crate::agent::AgentBlock;
use crate::cluster::{RuntimeConfig, ShardCount};
use crate::error::RuntimeError;
use crate::node::{NodeReport, NodeSpec};
use crate::wire::ClusterIdentity;
use dpc_alg::exec::host_parallelism;
use dpc_topology::Graph;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;

/// What a reactor deployment produced, beyond the reports themselves.
pub struct ReactorRun {
    /// Per-node reports, ordered by node id.
    pub reports: Vec<NodeReport>,
    /// Threads the runtime ran the deployment on: one per shard plus the
    /// coordinating caller — the number that substantiates the
    /// O(shards)-not-O(agents) claim.
    pub threads: u32,
    /// Peak resident set size (KiB) of the whole *process* (`VmHWM` from
    /// `/proc/self/status`), when the platform exposes it. A process
    /// metric, not a runtime one: it also counts whatever else the
    /// process holds or runs concurrently.
    pub peak_rss_kb: Option<u64>,
    /// Poller shards actually deployed (the auto-tune's pick, or the
    /// clamped fixed request) — re-reported in the cluster header.
    pub shards: usize,
}

/// File descriptors held back from the socket budget: listener, epoll
/// and eventfd per shard, stdio, and whatever the test harness has open.
const FD_RESERVE: u64 = 128;

/// Auto-tune target: per-round work units (Σ degree+4 over hosted nodes,
/// the same cost model [`Graph::shard_offsets`] balances) one shard can
/// carry before splitting pays. Calibrated from the runtime bench's
/// measured per-shard round cost — below this, cross-shard carrier
/// latency eats what parallelism buys (see DESIGN.md, "Auto-sharding").
const AUTO_WORK_PER_SHARD: usize = 16_384;

/// Most shards the auto-tune will deploy, matching the previous flag's
/// clamp; fixed `--shards K` may exceed it explicitly.
const AUTO_MAX_SHARDS: usize = 8;

/// Resolves the configured shard count against the actual load: a fixed
/// request is clamped to `[1, n]`, while [`ShardCount::Auto`] sizes from
/// total round work, host parallelism, and `AUTO_WORK_PER_SHARD`.
pub fn resolve_shard_count(requested: ShardCount, graph: &Graph) -> usize {
    let n = graph.len();
    match requested {
        ShardCount::Fixed(k) => k.clamp(1, n.max(1)),
        ShardCount::Auto => {
            let cores = host_parallelism().clamp(1, AUTO_MAX_SHARDS);
            let total_work: usize = (0..n).map(|v| graph.neighbors(v).len() + 4).sum();
            total_work
                .div_ceil(AUTO_WORK_PER_SHARD)
                .clamp(1, cores)
                .clamp(1, n.max(1))
        }
    }
}

fn shard_of(cuts: &[usize], node: usize) -> usize {
    cuts.partition_point(|&c| c <= node) - 1
}

/// Byte carrier for one unordered shard pair, consumed by both endpoint
/// shards during assembly.
enum PairRes {
    Mem {
        /// Low→high pipe.
        ab: Arc<MemPipe>,
        /// High→low pipe.
        ba: Arc<MemPipe>,
    },
    Sock {
        /// Low shard's stream, `take`n once.
        a: Option<TcpStream>,
        /// High shard's stream, `take`n once.
        b: Option<TcpStream>,
    },
}

fn bringup_io(source: io::Error) -> RuntimeError {
    RuntimeError::Io {
        peer: "reactor bring-up".to_string(),
        source,
    }
}

fn proc_status_value(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            if let Some(rest) = rest.strip_prefix(':') {
                return rest.split_whitespace().next()?.parse().ok();
            }
        }
    }
    None
}

/// Runs a full cluster on the reactor substrate and waits for every
/// agent's report.
///
/// # Errors
///
/// Bring-up failures (socket bind/connect, epoll/eventfd creation) and
/// the first protocol/handshake/decode error any shard hits; every
/// error names the peer it happened against.
///
/// # Panics
///
/// Panics if `specs` does not hold exactly one spec per graph node, or
/// if a shard thread itself panics (a bug, not an environmental failure).
pub fn run_reactor_cluster(
    specs: Vec<NodeSpec>,
    graph: &Graph,
    rt: &RuntimeConfig,
) -> Result<ReactorRun, RuntimeError> {
    let n = graph.len();
    assert_eq!(specs.len(), n, "one node spec per graph node");
    let shards = resolve_shard_count(rt.shards, graph);
    let handles: Vec<_> = assemble(specs, graph, rt, shards)?
        .into_iter()
        .map(|sh| {
            thread::Builder::new()
                .name(format!("dpc-reactor-{}", sh.id))
                .spawn(move || run_shard(sh))
                .expect("spawning a reactor shard thread")
        })
        .collect();

    let mut reports: Vec<NodeReport> = Vec::with_capacity(n);
    let mut first_err = None;
    for handle in handles {
        match handle.join().expect("reactor shard panicked") {
            Ok(part) => reports.extend(part),
            Err(e) if first_err.is_none() => first_err = Some(e),
            Err(_) => {}
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    // Shards host ascending node ranges and report in block order.
    assert_eq!(reports.len(), n, "every agent reports exactly once");
    debug_assert!(reports.iter().enumerate().all(|(i, r)| r.node == i));
    Ok(ReactorRun {
        reports,
        threads: shards as u32 + 1,
        peak_rss_kb: proc_status_value("VmHWM"),
        shards,
    })
}

/// Wires `shards` shards over contiguous node ranges: carriers for every
/// shard pair that shares an edge, each shard's block, and the routing
/// columns of its cross-shard links.
fn assemble(
    specs: Vec<NodeSpec>,
    graph: &Graph,
    rt: &RuntimeConfig,
    shards: usize,
) -> Result<Vec<Shard>, RuntimeError> {
    let n = graph.len();
    let cuts = graph.shard_offsets(shards);
    let identity = ClusterIdentity {
        n_nodes: n as u32,
        topology_hash: graph.topology_hash(),
    };

    // Shard wakeups first: cross-shard mem carriers signal the receiver's
    // eventfd, so the fds must exist before any carrier is wired.
    let mut wakes = Vec::with_capacity(shards);
    for _ in 0..shards {
        wakes.push(Arc::new(EventFd::new().map_err(bringup_io)?));
    }

    // Which shard pairs exchange traffic (each gets one carrier).
    let mut pair_set: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (u, v) in graph.edges() {
        let (su, sv) = (shard_of(&cuts, u), shard_of(&cuts, v));
        if su != sv {
            pair_set.insert((su.min(sv), su.max(sv)));
        }
    }

    // One socket pair per cross-shard carrier while the fd budget lasts
    // (it essentially always does: carriers are O(shards²), not O(edges)),
    // then spill to signalled mem pipes — in deterministic (sorted) pair
    // order, so two runs always make identical choices.
    let mut sock_quota = (nofile_limit().unwrap_or(1024).saturating_sub(FD_RESERVE) / 2) as usize;
    let mut listener: Option<TcpListener> = None;
    let mut pairs: HashMap<(usize, usize), PairRes> = HashMap::new();
    for &(a, b) in &pair_set {
        if sock_quota > 0 {
            sock_quota -= 1;
            if listener.is_none() {
                listener = Some(TcpListener::bind(("127.0.0.1", 0)).map_err(|source| {
                    RuntimeError::Bind {
                        addr: "127.0.0.1:0".to_string(),
                        source,
                    }
                })?);
            }
            let l = listener.as_ref().expect("listener just bound");
            let addr = l.local_addr().map_err(bringup_io)?;
            // Sequential connect-then-accept on loopback: the accepted
            // stream is always the one just dialed.
            let dial = TcpStream::connect(addr).map_err(|source| RuntimeError::Connect {
                peer: addr.to_string(),
                source,
            })?;
            let (acc, _) = l.accept().map_err(bringup_io)?;
            for s in [&dial, &acc] {
                s.set_nodelay(true).map_err(bringup_io)?;
                s.set_nonblocking(true).map_err(bringup_io)?;
            }
            pairs.insert(
                (a, b),
                PairRes::Sock {
                    a: Some(dial),
                    b: Some(acc),
                },
            );
        } else {
            pairs.insert(
                (a, b),
                PairRes::Mem {
                    ab: MemPipe::new(Some(Arc::clone(&wakes[b]))),
                    ba: MemPipe::new(Some(Arc::clone(&wakes[a]))),
                },
            );
        }
    }

    // Every link's shard-local index is its block's CSR position (agents
    // ascending, neighbor slots in order), so an outgoing entry can be
    // tagged with the *receiver's* index: `first_link[node]` plus the
    // sender's slot in the receiver's neighbor row.
    let mut first_link = Vec::with_capacity(n);
    for s in 0..shards {
        let mut counter = 0u32;
        for node in cuts[s]..cuts[s + 1] {
            first_link.push(counter);
            counter += graph.neighbors(node).len() as u32;
        }
    }

    // Assemble each shard: carriers in deterministic order (peer shards
    // ascending), then the block and its cross-shard routing columns.
    let abort = Arc::new(AtomicBool::new(false));
    let mut specs = specs.into_iter();
    let mut shard_structs = Vec::with_capacity(shards);
    for s in 0..shards {
        let epoll = Epoll::new().map_err(bringup_io)?;
        let mut carriers: Vec<Carrier> = Vec::new();
        let mut conns: Vec<SockConn> = Vec::new();
        let mut carrier_of_shard = vec![IN_SHARD; shards];
        for &(a, b) in &pair_set {
            if a != s && b != s {
                continue;
            }
            let peer_shard = if a == s { b } else { a };
            let end = match pairs.get_mut(&(a, b)).expect("pair carrier exists") {
                PairRes::Mem { ab, ba } => {
                    let (rx, tx) = if s == a {
                        (Arc::clone(ba), Arc::clone(ab))
                    } else {
                        (Arc::clone(ab), Arc::clone(ba))
                    };
                    CarrierEnd::Mem { rx, tx }
                }
                PairRes::Sock { a: sa, b: sb } => {
                    let stream = if s == a { sa.take() } else { sb.take() }
                        .expect("socket endpoint consumed once");
                    let conn_idx = conns.len() as u32;
                    conns.push(SockConn {
                        stream,
                        out: conn::RingBuf::new(),
                        want_write: false,
                        closed: false,
                        closing: false,
                        carrier: carriers.len() as u32,
                    });
                    CarrierEnd::Sock(conn_idx)
                }
            };
            carrier_of_shard[peer_shard] = carriers.len() as u32;
            carriers.push(Carrier::new(peer_shard, end, CarrierState::AwaitHello));
        }

        let hosted = cuts[s]..cuts[s + 1];
        let block = AgentBlock::new(
            specs.by_ref().take(hosted.len()).collect(),
            hosted.clone().map(|node| graph.neighbors(node)),
        );
        let mut link_carrier = Vec::with_capacity(block.link_count());
        let mut peer_slot = Vec::with_capacity(block.link_count());
        for node in hosted {
            for &peer in graph.neighbors(node) {
                let ci = carrier_of_shard[shard_of(&cuts, peer)];
                let back = if ci == IN_SHARD {
                    IN_SHARD
                } else {
                    carriers[ci as usize]
                        .fed_links
                        .push(link_carrier.len() as u32);
                    let row = graph.neighbors(peer);
                    first_link[peer]
                        + row.binary_search(&node).expect("graph edges are symmetric") as u32
                };
                link_carrier.push(ci);
                peer_slot.push(back);
            }
        }
        shard_structs.push(Shard {
            id: s,
            epoll,
            wake: Arc::clone(&wakes[s]),
            block,
            link_carrier,
            peer_slot,
            carriers,
            conns,
            identity,
            handshake_timeout: rt.handshake_timeout,
            abort: Arc::clone(&abort),
        });
    }

    Ok(shard_structs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::node_specs;
    use crate::wire::{encode_batch_into, encode_frame_into, BatchEntry, EntryKind, WireMsg};
    use crate::PROTOCOL_VERSION;
    use dpc_alg::diba::DibaConfig;
    use dpc_alg::problem::PowerBudgetProblem;
    use dpc_models::units::Watts;
    use dpc_models::workload::ClusterBuilder;
    use std::io::Write;
    use std::time::Duration;

    /// Runs shard 1 of a two-shard 6-ring while the test plays shard 0:
    /// `bytes` go down shard 1's inbound socket, and the error shard 1
    /// ends with comes back.
    fn shard_one_fed(bytes: &[u8]) -> RuntimeError {
        let graph = Graph::ring(6);
        let cluster = ClusterBuilder::new(6).seed(3).build();
        let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(1020.0)).unwrap();
        let rt = RuntimeConfig {
            handshake_timeout: Duration::from_secs(5),
            ..RuntimeConfig::default()
        };
        let specs = node_specs(&problem, &graph, DibaConfig::default(), &rt).unwrap();
        let mut shards = assemble(specs, &graph, &rt, 2).unwrap();
        let victim = shards.pop().expect("shard 1");
        let mut played = shards.pop().expect("shard 0");
        let mut stream = played.conns.pop().expect("a socket carrier").stream;
        stream.set_nonblocking(false).unwrap();
        stream.write_all(bytes).unwrap();
        let err = run_shard(victim).expect_err("malformed input must fail the shard");
        drop(stream);
        err
    }

    fn hello() -> Vec<u8> {
        let graph = Graph::ring(6);
        let mut bytes = Vec::new();
        encode_frame_into(
            &WireMsg::Hello {
                version: PROTOCOL_VERSION,
                node: 0,
                n_nodes: 6,
                topology_hash: graph.topology_hash(),
            },
            &mut bytes,
        );
        bytes
    }

    fn entry(slot: u32) -> BatchEntry {
        BatchEntry {
            slot,
            e: -1.0,
            transfer: 0.0,
            settled: false,
            kind: EntryKind::Data,
        }
    }

    #[test]
    fn malformed_cross_shard_input_ends_in_named_errors() {
        // Shard 1 hosts nodes 3..6; node 3's links are [2 (shard 0), 4
        // (in-shard)], so link 1 never rides a carrier.
        let misrouted = |slot| {
            let mut bytes = hello();
            encode_batch_into(1, &[entry(slot)], &mut bytes);
            shard_one_fed(&bytes)
        };
        for slot in [1, 99] {
            match misrouted(slot) {
                RuntimeError::Protocol { peer, got } => {
                    assert_eq!((peer.as_str(), got), ("shard 0", "misrouted-batch-entry"));
                }
                other => panic!("slot {slot}: expected a misrouted entry, got {other:?}"),
            }
        }

        let mut early = Vec::new();
        encode_batch_into(1, &[entry(0)], &mut early);
        match shard_one_fed(&early) {
            RuntimeError::Protocol { peer, got } => {
                assert_eq!((peer.as_str(), got), ("shard 0", "data-batch"));
            }
            other => panic!("expected a pre-handshake batch error, got {other:?}"),
        }

        let mut again = hello();
        again.extend_from_slice(&hello());
        match shard_one_fed(&again) {
            RuntimeError::Protocol { peer, got } => {
                assert_eq!((peer.as_str(), got), ("shard 0", "hello"));
            }
            other => panic!("expected a mid-run handshake error, got {other:?}"),
        }

        let mut garbage = hello();
        garbage.extend_from_slice(&[3, 0, 0, 0, 0xEE, 0xEE, 0xEE]);
        match shard_one_fed(&garbage) {
            RuntimeError::Decode { peer, .. } => assert_eq!(peer, "shard 0"),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }
}
