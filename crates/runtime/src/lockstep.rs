//! Serial lockstep executor: the whole cluster in one thread, no sockets.
//!
//! Every substrate in this crate delivers frames round-aligned: node `i`'s
//! round `r` consumes exactly node `j`'s round-`r` entry on each live link
//! (FIFO per link, one entry per neighbor per round). That makes the
//! trajectory *schedule-independent* — so a global serial schedule that
//! runs a send phase for every agent, then a receive phase for every
//! agent, reproduces the threaded runs bitwise. This module is that
//! schedule over one agent block (`agent::AgentBlock`) holding the whole
//! cluster: every link is local, so entries go straight into the
//! receivers' mailboxes.
//!
//! Why it earns its keep:
//!
//! * it is the cheap reference at any N — no threads, no fds, no
//!   timeouts — so the 10k-agent reactor acceptance run has an oracle
//!   that costs seconds;
//! * it is deterministic by construction, which turns "reactor equals
//!   inproc" into two comparisons against one fixed point.
//!
//! Shutdown is the block's: an agent that reaches convergence quorum says
//! `Goodbye` on every live link and lingers in a drain, holding in-flight
//! entries and absorbing them in slot order once every link has closed —
//! on the peer's goodbye, its exit, or once its link back is dead so it
//! can provably never send again (the lockstep stand-in for the blocking
//! drain's quiet-period timeout).

use crate::agent::{AgentBlock, NoRemote, Phase};
use crate::error::RuntimeError;
use crate::node::{NodeReport, NodeSpec};
use dpc_topology::Graph;

/// Runs every agent to completion on the serial lockstep schedule and
/// returns the per-node reports in node-id order.
///
/// `specs` must hold one spec per graph node, in node-id order (the shape
/// [`crate::cluster::node_specs`] produces).
///
/// # Errors
///
/// None today: every entry stays inside one block, so nothing can be
/// corrupt or misrouted. The `Result` keeps the error surface of the
/// other substrates.
pub fn run_lockstep(specs: Vec<NodeSpec>, graph: &Graph) -> Result<Vec<NodeReport>, RuntimeError> {
    let n = specs.len();
    assert_eq!(n, graph.len(), "one spec per graph node");
    let iteration_cap = specs
        .iter()
        .map(|s| s.max_rounds + s.detect_after)
        .max()
        .unwrap_or(0)
        + 8;
    let mut block = AgentBlock::new(specs, (0..n).map(|i| graph.neighbors(i)));

    for _iteration in 0..iteration_cap {
        if block.done() == n {
            break;
        }

        // Phase A: every active agent computes its round and sends one
        // entry per live link, in node-id order (order is irrelevant to
        // the values because consumption is round-aligned, but fixing it
        // keeps the executor trivially deterministic). An agent out of
        // rounds exits unconverged, like the blocking loop falling out of
        // its `while`.
        for a in 0..n {
            if block.phase(a) != Phase::NeedSend {
                continue;
            }
            if block.rounds_remaining(a) {
                block.send_round(a, &mut NoRemote);
            } else {
                block.finish(a, &mut NoRemote);
            }
        }

        // Phase B: every agent that sent receives one entry per live link
        // in slot order, then checks quorum. A goodbye pushed here by a
        // lower-id agent sits *behind* its round entry in the FIFO, so it
        // is consumed next round — the same order the threaded runs see.
        for a in 0..n {
            if block.phase(a) == Phase::AwaitFrames {
                block.receive_round(a, &mut NoRemote);
            }
        }

        // Phase C: draining agents close what they can and fold once every
        // link is closed. Absorption is slot-ordered whenever it happens,
        // so close timing only affects how many iterations a drain lingers.
        for a in 0..n {
            if block.phase(a) == Phase::Draining {
                block.absorb_drain(a, &mut NoRemote);
            }
        }
        block.clear_ready();
    }

    assert_eq!(
        block.done(),
        n,
        "lockstep executor stalled: an agent neither advanced nor drained \
         within the iteration cap"
    );
    Ok(block.into_reports())
}
