//! The node actor: one DiBA agent driven over a [`Transport`].
//!
//! The loop is the deployed protocol of the paper's prototype (one message
//! per neighbor per round, neighbor state one round stale), with three
//! runtime additions on top of the `dpc-agents` thread prototype:
//!
//! * **Silent-peer detection** uses the simulator's
//!   [`FaultPlan::detect_after`](dpc_alg::faults::FaultPlan) semantics — a
//!   neighbor is pruned only after `detect_after` *consecutive* silent
//!   rounds, not on the first late message, so a slow peer is tolerated
//!   and a crashed one is eventually routed around.
//! * **Heartbeat suppression**: once a node is settled and a neighbor
//!   already holds its exact residual (nothing changed since the last
//!   `Data` and the round's transfer is zero), the node sends the 6-byte
//!   `Heartbeat` instead of the 22-byte `Data` — same semantics, fewer
//!   bytes at the converged tail.
//! * **Convergence-quorum shutdown**: a node exits once it has been
//!   settled for the configured streak *and* every remaining neighbor has
//!   declared itself settled (or left). It says `Goodbye` on every live
//!   link first, so neighbors account the departure instead of burning
//!   `detect_after` rounds on silence.

use crate::agent::{AgentBlock, Mail, Outlet, Phase};
use crate::error::RuntimeError;
use crate::transport::{Delivery, Incoming, Transport};
use crate::wire::{EntryKind, WireMsg};
use dpc_alg::diba::NodeParams;
use dpc_alg::message::RoundMsg;
use dpc_models::QuadraticUtility;
use std::time::Duration;

/// Everything one node needs at launch (the per-node slice of the problem
/// plus the runtime knobs). Initial `(p, e)` and [`NodeParams`] come from
/// the same bridge the thread prototype uses
/// ([`dpc_alg::diba::DibaRun::new`]), so every substrate starts from the
/// identical state.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// This node's id.
    pub id: usize,
    /// The local utility function.
    pub utility: QuadraticUtility,
    /// Initial power (watts).
    pub p: f64,
    /// Initial residual estimate (watts).
    pub e: f64,
    /// Resolved algorithm parameters.
    pub params: NodeParams,
    /// Barrier-continuation boost at start (≥ 1; 1 disables).
    pub eta_boost: f64,
    /// Per-round multiplicative decay of the boost.
    pub boost_decay: f64,
    /// A round's power move below this magnitude (watts) counts toward the
    /// settled streak.
    pub settle_tol: f64,
    /// Consecutive sub-tolerance rounds before the node declares itself
    /// settled on the wire.
    pub stable_rounds: usize,
    /// Consecutive silent rounds before a neighbor is pruned as dead.
    pub detect_after: usize,
    /// Hard round budget; the node reports `converged: false` if quorum
    /// never forms.
    pub max_rounds: usize,
    /// Per-link receive deadline each round.
    pub round_timeout: Duration,
    /// Record a trace sample every this many rounds (0 = no trace).
    pub sample_every: usize,
}

/// One trace sample of a node's local state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSample {
    /// Round the sample was taken after (1-based).
    pub round: usize,
    /// Power (watts).
    pub p: f64,
    /// Residual estimate (watts).
    pub e: f64,
    /// Messages sent so far (cumulative).
    pub msgs_sent: u64,
}

/// What a node came back with.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Reporting node id.
    pub node: usize,
    /// Final power (watts).
    pub p: f64,
    /// Final residual estimate (watts).
    pub e: f64,
    /// Rounds executed.
    pub rounds: usize,
    /// `true` when the node exited through convergence quorum (rather
    /// than exhausting `max_rounds`).
    pub converged: bool,
    /// Total messages sent (including heartbeats and goodbyes).
    pub msgs_sent: u64,
    /// Total messages received.
    pub msgs_received: u64,
    /// Heartbeats among the messages sent.
    pub heartbeats_sent: u64,
    /// Neighbors pruned as silent (crash suspicion), in detection order.
    pub pruned: Vec<usize>,
    /// Trace samples (empty unless `sample_every > 0`).
    pub trace: Vec<NodeSample>,
}

/// Runs one node actor to completion over an established transport.
/// [`Transport::handshake`] must have succeeded already.
///
/// The protocol arithmetic lives in the agent block (`agent::AgentBlock`);
/// this function drives a block of one agent whose links are all remote —
/// it moves entries between the block and the transport in the canonical
/// phase order (send pass, receive pass in slot order, quorum goodbyes,
/// slot-sequential lame-duck drain). The serial lockstep executor and the
/// reactor shards drive the identical block code through the identical
/// phases, which is what makes cross-substrate runs bitwise comparable.
///
/// # Errors
///
/// Propagates transport failures ([`RuntimeError::Decode`] on corrupt
/// frames, [`RuntimeError::Protocol`] on a handshake message arriving
/// mid-run). Peer disappearances are *not* errors — they are operating
/// conditions handled by pruning.
pub fn run_node<T: Transport>(
    spec: &NodeSpec,
    transport: &mut T,
) -> Result<NodeReport, RuntimeError> {
    let degree = transport.degree();
    let peers: Vec<usize> = (0..degree).map(|slot| transport.peer(slot)).collect();
    let mut block = AgentBlock::new(vec![spec.clone()], [peers.as_slice()]);

    while block.phase(0) == Phase::NeedSend && block.rounds_remaining(0) {
        // Send pass: one frame per live link; the block reclaims the
        // transfer when the link turns out to be gone.
        block.send_round(0, &mut Blocking(transport));

        // Fill each live link's mailbox with its round frame (or its
        // closure), then run the block's slot-ordered receive pass; a link
        // left empty counts a silent round.
        for slot in 0..degree {
            if !block.is_alive(slot) {
                continue;
            }
            match transport.recv(slot, spec.round_timeout)? {
                Incoming::Msg(msg) => match mail_of(&msg) {
                    Some(mail) => block.deliver(slot, mail),
                    None => {
                        return Err(RuntimeError::Protocol {
                            peer: transport.peer_label(slot),
                            got: msg.kind(),
                        })
                    }
                },
                Incoming::Timeout => {}
                Incoming::Closed => block.set_eof(slot),
            }
        }
        block.receive_round(0, &mut Blocking(transport));
    }

    if block.phase(0) == Phase::Draining {
        // Lame-duck drain: a neighbor may have sent one more round's frame
        // before it processes our goodbye. Absorb any transfer mass still
        // in flight so the residual invariant survives the shutdown, then
        // leave at the first silence/close per link.
        let drain_timeout = spec.round_timeout.min(Duration::from_millis(100));
        for slot in 0..degree {
            if !block.is_alive(slot) {
                continue;
            }
            // Anything but a round frame — silence, closure, a handshake
            // frame, even a corrupt frame — ends the link's drain; we are
            // leaving either way.
            while let Ok(Incoming::Msg(msg)) = transport.recv(slot, drain_timeout) {
                let Some(mail) = mail_of(&msg) else { break };
                block.deliver(slot, mail);
                if mail.kind == EntryKind::Goodbye {
                    break;
                }
            }
        }
        block.finish_drain(0, &mut Blocking(transport));
    }
    Ok(block.into_reports().pop().expect("a block of one"))
}

/// The mailbox form of a round frame; `None` for anything else.
fn mail_of(msg: &WireMsg) -> Option<Mail> {
    match *msg {
        WireMsg::Data { msg, settled, .. } => Some(Mail {
            e: msg.e,
            transfer: msg.transfer,
            kind: EntryKind::Data,
            settled,
        }),
        WireMsg::Heartbeat { settled, .. } => Some(Mail {
            e: 0.0,
            transfer: 0.0,
            kind: EntryKind::Heartbeat,
            settled,
        }),
        WireMsg::Goodbye { msg } => Some(Mail {
            e: msg.e,
            transfer: msg.transfer,
            kind: EntryKind::Goodbye,
            settled: false,
        }),
        _ => None,
    }
}

/// A blocking transport as the outlet of a block of one.
struct Blocking<'a, T>(&'a mut T);

impl<T: Transport> Outlet for Blocking<'_, T> {
    fn send(&mut self, link: usize, round: u32, mail: Mail) -> bool {
        let msg = match mail.kind {
            EntryKind::Data => WireMsg::Data {
                round,
                msg: RoundMsg {
                    e: mail.e,
                    transfer: mail.transfer,
                },
                settled: mail.settled,
            },
            EntryKind::Heartbeat => WireMsg::Heartbeat {
                round,
                settled: mail.settled,
            },
            EntryKind::Goodbye => WireMsg::Goodbye {
                msg: RoundMsg {
                    e: mail.e,
                    transfer: mail.transfer,
                },
            },
            EntryKind::Eof => unreachable!("end of stream is never mail"),
        };
        self.0.send(link, &msg) == Delivery::Sent
    }

    /// Blocking links end when their transport drops.
    fn eof(&mut self, _link: usize, _round: u32) {}
}
