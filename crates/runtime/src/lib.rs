//! # dpc-runtime — the deployable node runtime
//!
//! The paper's claim is that DiBA is *fully decentralized*: every server
//! runs an autonomous agent that converges using only neighbor messages.
//! This crate is that claim made operational. Each node is an actor
//! ([`node::run_node`]) speaking a versioned, length-prefixed binary
//! protocol ([`wire`]) over a pluggable link layer ([`transport::Transport`]):
//! crossbeam channels in-process ([`channel`]) or real TCP sockets
//! ([`tcp`]). The per-round protocol — the math of
//! [`dpc_alg::diba::node_action`], heartbeats, pruning, goodbyes and the
//! drain — lives once, in an agent block that the blocking node
//! loop, the [`lockstep`] executor and the [`reactor`] shards all drive,
//! so every substrate converges to the same allocation (the
//! transport-equivalence tests pin it).
//!
//! Lifecycle: dial-low/accept-high link establishment with a `Hello` /
//! `HelloAck` handshake that validates protocol version, cluster size, and
//! a topology fingerprint ([`dpc_topology::Graph::topology_hash`]); silent
//! peers pruned after `detect_after` consecutive quiet rounds (the
//! simulator's fault-detection semantics); clean shutdown by convergence
//! quorum with `Goodbye` frames and a conservation-preserving drain.
//!
//! ```
//! use dpc_alg::{diba::DibaConfig, problem::PowerBudgetProblem};
//! use dpc_models::{units::Watts, workload::ClusterBuilder};
//! use dpc_runtime::cluster::{run_cluster, RuntimeConfig};
//! use dpc_topology::Graph;
//!
//! let cluster = ClusterBuilder::new(4).seed(7).build();
//! let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(680.0)).unwrap();
//! let outcome = run_cluster(
//!     problem,
//!     Graph::ring(4),
//!     DibaConfig::default(),
//!     &RuntimeConfig::default(),
//! )
//! .unwrap();
//! assert!(outcome.converged);
//! assert!(outcome.total_power() <= Watts(680.0) + Watts(1e-6));
//! ```

#![warn(missing_docs)]

pub(crate) mod agent;
pub mod channel;
pub mod cluster;
pub mod error;
pub mod lockstep;
pub mod node;
pub mod reactor;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use cluster::{run_cluster, ClusterOutcome, RuntimeConfig, TransportKind};
pub use error::{HandshakeFailure, RuntimeError};
pub use node::{NodeReport, NodeSpec};
pub use transport::Transport;
pub use wire::{WireMsg, PROTOCOL_VERSION};
