//! The protocol brain of DiBA agents, stored as one block of records so
//! every substrate executes the *same* arithmetic in the same order.
//!
//! An [`AgentBlock`] holds a set of agents as two flat arrays of small
//! records: one agent record (`p`, `e`, boost, settled streak, round
//! counter, phase, message counters, readiness count) per agent and, in
//! CSR order behind each agent, one link record (last heard residual, last
//! sent residual, liveness, peer-settled, silence count, end-of-stream,
//! and the link's mailbox) per link. A step reads and writes nearly every
//! field of its agent's records, so each lives in one or two cache lines
//! rather than spread over a column per field. No agent owns a heap
//! buffer; one kernel scratch serves the whole block.
//!
//! Three substrates drive a block:
//!
//! * the serial lockstep executor ([`crate::lockstep`]) — one block for
//!   the whole cluster, every link local;
//! * the reactor shards ([`crate::reactor`]) — one block per shard; links
//!   to agents of other shards are *remote* and go out through an
//!   [`Outlet`] onto the shard's wire carriers;
//! * the blocking actor loop ([`crate::node::run_node`]) — a block of one,
//!   every link remote, the outlet being a [`crate::transport::Transport`].
//!
//! A link whose peer lives in the same block is *local*: sending on it
//! writes straight into the peer's mailbox for the reverse link, with no
//! encoding. A remote link's inbound entries are handed to
//! [`AgentBlock::deliver`] by the substrate once decoded.
//!
//! The round is split into phases — [`AgentBlock::send_round`] (compute,
//! stage one entry per live link), [`AgentBlock::receive_round`] (one entry
//! per live link in slot order, boost decay, trace, quorum and goodbyes),
//! and the drain ([`AgentBlock::absorb_drain`] /
//! [`AgentBlock::finish_drain`]). Each touches `(p, e)` in the same order
//! whatever the substrate, so trajectories agree bitwise across them;
//! the transport-equivalence tests pin this.
//!
//! **Readiness is counted, not scanned.** When an agent sends its round,
//! `missing` records how many live links still lack an entry (or an
//! end-of-stream). Each delivery into an empty mailbox, and each
//! end-of-stream on one, decrements it; the agent joins the ready set
//! the moment it reaches zero.
//!
//! **Boundary first, interior in id order.** The ready set has two
//! classes. *Boundary* agents (at least one remote link) step first, in
//! the order they became ready, so entries for other blocks are staged
//! as early as possible. *Interior* agents (every link local) are marked
//! in a bitmap and stepped in an ascending id sweep from a wrapping
//! cursor, so a large block walks its records in memory order, as the
//! lockstep schedule does, instead of in wavefront order. One `queued`
//! bit per agent, shared by both classes, holds each agent at most once.
//!
//! **The mailbox bound.** A peer can only send round `r + 1` after it has
//! consumed our round-`r` entry, and it consumes that only after we sent
//! it, i.e. while we wait for round `r`. So a healthy link holds at most
//! two entries — two rounds, or a round and the peer's goodbye — which is
//! exactly the inline capacity. Only the round-timeout path (a receive
//! pass run with an entry missing, consumed a round late) can back a link
//! up further; that spills into a per-block overflow store.

use crate::node::{NodeReport, NodeSample, NodeSpec};
use crate::wire::EntryKind;
use dpc_alg::diba::{node_action_into, NodeParams, NodeScratch};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// One round entry as a link's mailbox holds it: what a `Data`,
/// `Heartbeat` or `Goodbye` frame says, without framing or addressing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mail {
    /// Sender's residual (`+0.0` for heartbeats).
    pub e: f64,
    /// Slack mass carried (`+0.0` for heartbeats and goodbyes).
    pub transfer: f64,
    /// What the entry means ([`EntryKind::Eof`] never enters a mailbox:
    /// end-of-stream is the link's `eof` flag).
    pub kind: EntryKind,
    /// Sender considers itself settled (data/heartbeat only).
    pub settled: bool,
}

impl Mail {
    const EMPTY: Mail = Mail {
        e: 0.0,
        transfer: 0.0,
        kind: EntryKind::Heartbeat,
        settled: false,
    };
}

/// Entries a link's mailbox holds inline: the healthy-path bound (see the
/// module docs). Anything beyond spills to the block's overflow store.
pub const MAILBOX_INLINE: usize = 2;

/// Entries of backed-up links past their inline capacity, by link; touched
/// only on the round-timeout path.
type Spill = HashMap<u32, VecDeque<Mail>>;

/// One link's FIFO mailbox: its oldest [`MAILBOX_INLINE`] entries inline,
/// the rest in the block's [`Spill`] under the link's index `l`.
#[derive(Debug, Clone, Copy)]
struct Inbox {
    slots: [Mail; MAILBOX_INLINE],
    /// Entries held, inline and spilled together.
    held: u32,
}

impl Inbox {
    const EMPTY: Inbox = Inbox {
        slots: [Mail::EMPTY; MAILBOX_INLINE],
        held: 0,
    };

    /// Whether the mailbox holds nothing.
    fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Appends `mail` to link `l`'s queue.
    #[inline]
    fn push(&mut self, spill: &mut Spill, l: usize, mail: Mail) {
        let n = self.held as usize;
        if n < MAILBOX_INLINE {
            self.slots[n] = mail;
        } else {
            spill_push(spill, l, mail);
        }
        self.held += 1;
    }

    /// Takes the oldest entry of link `l`.
    #[inline]
    fn pop(&mut self, spill: &mut Spill, l: usize) -> Option<Mail> {
        let n = self.held as usize;
        if n == 0 {
            return None;
        }
        let head = self.slots[0];
        for k in 1..MAILBOX_INLINE {
            self.slots[k - 1] = self.slots[k];
        }
        if n > MAILBOX_INLINE {
            self.slots[MAILBOX_INLINE - 1] = spill_pop(spill, l);
        }
        self.held -= 1;
        Some(head)
    }

    /// The newest entry of link `l`.
    fn back<'a>(&'a self, spill: &'a Spill, l: usize) -> Option<&'a Mail> {
        match self.held as usize {
            0 => None,
            n if n <= MAILBOX_INLINE => Some(&self.slots[n - 1]),
            _ => spill.get(&(l as u32)).and_then(|q| q.back()),
        }
    }

    /// Drops everything link `l` holds.
    fn clear(&mut self, spill: &mut Spill, l: usize) {
        if self.held as usize > MAILBOX_INLINE {
            spill.remove(&(l as u32));
        }
        self.held = 0;
    }
}

/// Queues `mail` behind link `l`'s full inline slots.
#[cold]
fn spill_push(spill: &mut Spill, l: usize, mail: Mail) {
    spill.entry(l as u32).or_default().push_back(mail);
}

/// Takes link `l`'s oldest spilled entry, releasing an emptied queue.
#[cold]
fn spill_pop(spill: &mut Spill, l: usize) -> Mail {
    let queue = spill.get_mut(&(l as u32)).expect("spilled entries");
    let mail = queue.pop_front().expect("spilled entry");
    if queue.is_empty() {
        spill.remove(&(l as u32));
    }
    mail
}

/// Where an agent is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Ready to compute and send the next round.
    NeedSend,
    /// Round sent; waiting for every live link's entry.
    AwaitFrames,
    /// Goodbyes sent; holding in-flight entries until every link closes.
    Draining,
    /// Finished (quorum drain complete or round budget exhausted).
    Done,
}

/// The transport side of a block's remote links.
pub trait Outlet {
    /// Hands `mail` for remote link `link` to the transport, stamped with
    /// the sender's round counter. Returns `false` when the link is gone
    /// (the block then reclaims the entry's transfer).
    fn send(&mut self, link: usize, round: u32, mail: Mail) -> bool;

    /// The agent behind remote link `link` will never write it again (it
    /// finished, or closed the link on the peer's goodbye): announce the
    /// link's end of stream, if the transport has such a thing.
    fn eof(&mut self, link: usize, round: u32);
}

/// The outlet of a block whose links are all local (the lockstep
/// executor): nothing ever leaves the block.
pub struct NoRemote;

impl Outlet for NoRemote {
    fn send(&mut self, _link: usize, _round: u32, _mail: Mail) -> bool {
        unreachable!("every link of this block is local")
    }

    fn eof(&mut self, _link: usize, _round: u32) {
        unreachable!("every link of this block is local")
    }
}

/// `reverse` marker of a link whose peer lives outside the block.
const REMOTE: u32 = u32::MAX;

/// One agent's round state.
#[derive(Debug, Clone, Copy)]
struct Agent {
    p: f64,
    e: f64,
    boost: f64,
    msgs_sent: u64,
    msgs_received: u64,
    heartbeats_sent: u64,
    streak: u32,
    rounds: u32,
    /// Live links still lacking an entry or end of stream this round.
    missing: u32,
    settled: bool,
    converged: bool,
    phase: Phase,
}

/// One link's state.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The peer's last residual.
    heard_e: f64,
    /// Last residual handed over in a `Data` entry (NaN until the first
    /// send, so the first round always sends `Data`).
    sent_e: f64,
    inbox: Inbox,
    /// The agent the link belongs to.
    owner: u32,
    /// The peer's link back to us when the peer is in this block, else
    /// [`REMOTE`].
    reverse: u32,
    /// Consecutive rounds the peer has been silent.
    silent: u32,
    alive: bool,
    /// The peer said goodbye (as opposed to being pruned or lost).
    graceful: bool,
    peer_settled: bool,
    /// The peer will never write this link again.
    eof: bool,
}

/// A set of agents with consecutive node ids: one [`Agent`] record per
/// agent and, in CSR order, one [`Link`] record per link.
pub struct AgentBlock {
    specs: Vec<NodeSpec>,
    agent: Vec<Agent>,
    /// CSR offsets: agent `a`'s links are `first_link[a]..first_link[a+1]`.
    first_link: Vec<u32>,
    link: Vec<Link>,
    /// Neighbor node id behind each link.
    peer: Vec<u32>,
    spill: Spill,

    // Rare per-agent output, appended in event order.
    pruned: Vec<(u32, u32)>,
    /// Sampled trace, one list per agent (each empty unless sampling),
    /// moved into its report as is. A block-wide list would need a sort
    /// and a copy at the end, and on a sampled 10k run those transient
    /// buffers run to tens of megabytes that the shard thread's allocator
    /// arena keeps resident after the run.
    trace: Vec<Vec<NodeSample>>,

    /// Bit per agent: every link is local.
    interior: Vec<u64>,
    /// Bit per agent: held in the ready set (either class).
    queued: Vec<u64>,
    /// Ready boundary agents, oldest first.
    boundary_ready: VecDeque<u32>,
    /// Ready interior agents (their `queued & interior` bits).
    interior_ready: usize,
    /// Where the interior sweep resumes.
    cursor: usize,
    done: usize,
    neigh_e: Vec<f64>,
    scratch: NodeScratch,
}

impl AgentBlock {
    /// Builds the launch state of `specs` (consecutive node ids, ascending);
    /// `rows` yields each agent's neighbor node ids in slot order
    /// (ascending, matching [`dpc_topology::Graph::neighbors`]). A neighbor
    /// whose id falls inside the block's range is wired as a local link.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not yield exactly one row per spec, or if a
    /// local neighbor does not list the agent back.
    pub fn new<'a>(specs: Vec<NodeSpec>, rows: impl IntoIterator<Item = &'a [usize]>) -> Self {
        let n = specs.len();
        let base = specs.first().map_or(0, |s| s.id);
        debug_assert!(
            specs.iter().enumerate().all(|(k, s)| s.id == base + k),
            "block agents have consecutive ids"
        );
        let mut first_link = Vec::with_capacity(n + 1);
        first_link.push(0u32);
        let mut peer = Vec::new();
        let mut owner = Vec::new();
        for (a, row) in rows.into_iter().enumerate() {
            peer.extend(row.iter().map(|&j| j as u32));
            owner.resize(peer.len(), a as u32);
            first_link.push(peer.len() as u32);
        }
        assert_eq!(first_link.len(), n + 1, "one neighbor row per spec");
        let local = |node: usize| node.checked_sub(base).filter(|&b| b < n);
        let link: Vec<Link> = (0..peer.len())
            .map(|l| {
                let reverse = match local(peer[l] as usize) {
                    Some(b) => {
                        let row = &peer[first_link[b] as usize..first_link[b + 1] as usize];
                        let me = (base + owner[l] as usize) as u32;
                        let pos = row.binary_search(&me).expect("graph edges are symmetric");
                        first_link[b] + pos as u32
                    }
                    None => REMOTE,
                };
                Link {
                    heard_e: specs[owner[l] as usize].e,
                    sent_e: f64::NAN,
                    inbox: Inbox::EMPTY,
                    owner: owner[l],
                    reverse,
                    silent: 0,
                    alive: true,
                    graceful: false,
                    peer_settled: false,
                    eof: false,
                }
            })
            .collect();
        let max_degree = (0..n)
            .map(|a| (first_link[a + 1] - first_link[a]) as usize)
            .max()
            .unwrap_or(0);
        let mut interior = vec![0u64; n.div_ceil(64)];
        for a in 0..n {
            let links = first_link[a] as usize..first_link[a + 1] as usize;
            if link[links].iter().all(|l| l.reverse != REMOTE) {
                interior[a / 64] |= 1 << (a % 64);
            }
        }
        AgentBlock {
            agent: specs
                .iter()
                .map(|s| Agent {
                    p: s.p,
                    e: s.e,
                    boost: s.eta_boost.max(1.0),
                    msgs_sent: 0,
                    msgs_received: 0,
                    heartbeats_sent: 0,
                    streak: 0,
                    rounds: 0,
                    missing: 0,
                    settled: false,
                    converged: false,
                    phase: Phase::NeedSend,
                })
                .collect(),
            first_link,
            link,
            peer,
            spill: Spill::new(),
            pruned: Vec::new(),
            trace: vec![Vec::new(); n],
            queued: vec![0; interior.len()],
            interior,
            boundary_ready: VecDeque::new(),
            interior_ready: 0,
            cursor: 0,
            done: 0,
            neigh_e: Vec::with_capacity(max_degree),
            scratch: NodeScratch::with_capacity(max_degree),
            specs,
        }
    }

    /// Agents in the block.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Total links of the block's agents.
    pub fn link_count(&self) -> usize {
        self.link.len()
    }

    /// Agent `a`'s links, in slot order.
    pub fn links(&self, a: usize) -> Range<usize> {
        self.first_link[a] as usize..self.first_link[a + 1] as usize
    }

    /// Agent `a`'s launch spec.
    pub fn spec(&self, a: usize) -> &NodeSpec {
        &self.specs[a]
    }

    /// Agent `a`'s lifecycle phase.
    pub fn phase(&self, a: usize) -> Phase {
        self.agent[a].phase
    }

    /// Rounds agent `a` has started.
    pub fn rounds(&self, a: usize) -> usize {
        self.agent[a].rounds as usize
    }

    /// `true` while agent `a`'s round budget allows another round.
    pub fn rounds_remaining(&self, a: usize) -> bool {
        (self.agent[a].rounds as usize) < self.specs[a].max_rounds
    }

    /// Whether link `l` is still alive (while draining: still open).
    pub fn is_alive(&self, l: usize) -> bool {
        self.link[l].alive
    }

    /// Whether every live link of agent `a` holds its round input.
    pub fn is_ready(&self, a: usize) -> bool {
        self.agent[a].missing == 0
    }

    /// Agents that have finished.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Next agent whose inputs became complete (or, while draining, whose
    /// links changed): boundary agents first, in the order they became
    /// ready, then interior agents in ascending id order from where the
    /// last sweep stopped, wrapping around.
    pub fn pop_ready(&mut self) -> Option<usize> {
        let a = match self.boundary_ready.pop_front() {
            Some(a) => a as usize,
            None if self.interior_ready > 0 => self.next_interior(),
            None => return None,
        };
        self.queued[a / 64] &= !(1 << (a % 64));
        Some(a)
    }

    /// The first ready interior agent at or after the cursor, wrapping
    /// around; at least one must be ready.
    fn next_interior(&mut self) -> usize {
        let words = self.queued.len();
        let start = if self.cursor < self.len() {
            self.cursor
        } else {
            0
        };
        let mut w = start / 64;
        // The cursor's own word is first searched from the cursor up; a
        // wrapped sweep comes back to it with every bit.
        let mut bits = self.queued[w] & self.interior[w] & (!0 << (start % 64));
        while bits == 0 {
            w = if w + 1 == words { 0 } else { w + 1 };
            bits = self.queued[w] & self.interior[w];
        }
        let a = w * 64 + bits.trailing_zeros() as usize;
        self.interior_ready -= 1;
        self.cursor = a + 1;
        a
    }

    /// Queues agent `a` for stepping; an agent already queued stays where
    /// it is.
    #[inline]
    pub fn wake(&mut self, a: usize) {
        let (w, bit) = (a / 64, 1u64 << (a % 64));
        if self.queued[w] & bit != 0 {
            return;
        }
        self.queued[w] |= bit;
        if self.interior[w] & bit != 0 {
            self.interior_ready += 1;
        } else {
            self.boundary_ready.push_back(a as u32);
        }
    }

    /// Queues every agent (bring-up).
    pub fn wake_all(&mut self) {
        for a in 0..self.len() {
            self.wake(a);
        }
    }

    /// Forgets queued wakeups (substrates that step on a fixed schedule).
    pub fn clear_ready(&mut self) {
        self.boundary_ready.clear();
        self.queued.fill(0);
        self.interior_ready = 0;
    }

    /// An entry arrived on link `l`. Dropped when the link is dead or its
    /// agent finished: neither is ever read again.
    #[inline]
    pub fn deliver(&mut self, l: usize, mail: Mail) {
        let link = &mut self.link[l];
        let a = link.owner as usize;
        if !link.alive || self.agent[a].phase == Phase::Done {
            return;
        }
        let was_empty = link.inbox.is_empty();
        link.inbox.push(&mut self.spill, l, mail);
        if was_empty && !link.eof {
            self.filled(a);
        } else if self.agent[a].phase == Phase::Draining {
            self.wake(a);
        }
    }

    /// Link `l`'s peer will never write it again.
    pub fn set_eof(&mut self, l: usize) {
        let link = &mut self.link[l];
        if link.eof {
            return;
        }
        link.eof = true;
        let a = link.owner as usize;
        if !link.alive {
            return;
        }
        if link.inbox.is_empty() {
            self.filled(a);
        } else if self.agent[a].phase == Phase::Draining {
            self.wake(a);
        }
    }

    /// A live link of agent `a` went from lacking input to holding some.
    #[inline]
    fn filled(&mut self, a: usize) {
        let agent = &mut self.agent[a];
        match agent.phase {
            Phase::AwaitFrames => {
                agent.missing -= 1;
                if agent.missing == 0 {
                    self.wake(a);
                }
            }
            Phase::Draining => self.wake(a),
            Phase::NeedSend | Phase::Done => {}
        }
    }

    /// Link `l` died: nothing on it is ever read again.
    fn kill(&mut self, l: usize) {
        let link = &mut self.link[l];
        link.alive = false;
        link.inbox.clear(&mut self.spill, l);
        // A draining local peer may now close its link back to us.
        let rev = link.reverse;
        if rev != REMOTE {
            let b = self.link[rev as usize].owner as usize;
            if self.agent[b].phase == Phase::Draining {
                self.wake(b);
            }
        }
    }

    /// Hands one entry to link `l`'s peer: straight into its mailbox when
    /// local, through `out` when remote. `false` when the link is gone.
    #[inline]
    fn transmit(&mut self, l: usize, round: u32, mail: Mail, out: &mut impl Outlet) -> bool {
        let link = &self.link[l];
        if link.eof {
            return false;
        }
        match link.reverse {
            REMOTE => out.send(l, round, mail),
            rev => {
                self.deliver(rev as usize, mail);
                true
            }
        }
    }

    /// Compute pass of agent `a`: assemble the neighbor view, take the
    /// node action, apply `(p, e)`, update the settled streak, and send one
    /// entry per live link — a `Heartbeat` instead of `Data` once settled
    /// and the peer already holds this exact residual. A link found gone
    /// has its transfer reclaimed so no slack mass is destroyed.
    pub fn send_round(&mut self, a: usize, out: &mut impl Outlet) {
        debug_assert_eq!(self.agent[a].phase, Phase::NeedSend);
        let links = self.links(a);
        self.neigh_e.clear();
        for link in &self.link[links.clone()] {
            if link.alive {
                self.neigh_e.push(link.heard_e);
            }
        }
        let spec = &self.specs[a];
        let agent = &mut self.agent[a];
        agent.rounds += 1;
        let round = agent.rounds;
        let round_params = NodeParams {
            eta: spec.params.eta * agent.boost,
            ..spec.params
        };
        let dp = node_action_into(
            &spec.utility,
            agent.p,
            agent.e,
            &self.neigh_e,
            &round_params,
            &mut self.scratch,
        );
        // Same accounting (and summation order) as
        // `NodeAction::own_residual_delta`, without the per-round `Vec`.
        let sent_total: f64 = self.scratch.transfers.iter().sum();
        agent.p += dp;
        agent.e += dp - sent_total;
        agent.streak = if dp.abs() < spec.settle_tol {
            agent.streak + 1
        } else {
            0
        };
        let settled = agent.streak as usize >= spec.stable_rounds;
        agent.settled = settled;

        // Every entry carries the post-update residual; reclaims from
        // closed links land in `e` without rewriting entries already sent.
        let e_round = agent.e;
        // Our own mailboxes cannot change while we send, so the links still
        // lacking round input are counted in the same pass.
        let mut missing = 0;
        let mut k = 0;
        for l in links {
            if !self.link[l].alive {
                continue;
            }
            let transfer = self.scratch.transfers[k];
            k += 1;
            let redundant = settled && transfer == 0.0 && e_round == self.link[l].sent_e;
            let mail = if redundant {
                Mail {
                    settled: true,
                    ..Mail::EMPTY
                }
            } else {
                Mail {
                    e: e_round,
                    transfer,
                    kind: EntryKind::Data,
                    settled,
                }
            };
            if self.transmit(l, round, mail, out) {
                let agent = &mut self.agent[a];
                let link = &mut self.link[l];
                agent.msgs_sent += 1;
                if redundant {
                    agent.heartbeats_sent += 1;
                } else {
                    link.sent_e = agent.e;
                }
                missing += u32::from(link.inbox.is_empty() && !link.eof);
            } else {
                self.agent[a].e += transfer;
                self.kill(l);
                self.pruned.push((a as u32, self.peer[l]));
            }
        }
        let agent = &mut self.agent[a];
        agent.missing = missing;
        agent.phase = Phase::AwaitFrames;
    }

    /// Receive pass of agent `a`: one entry per live link in slot order. A
    /// link with nothing buffered is closed if its peer's stream ended and
    /// otherwise counts a silent round (pruned after `detect_after` in a
    /// row) — the round-deadline path. Then boost decay, trace sampling,
    /// and the quorum check: settled with every neighbor settled or gone
    /// sends `Goodbye` on every live link and enters the drain.
    pub fn receive_round(&mut self, a: usize, out: &mut impl Outlet) {
        debug_assert_eq!(self.agent[a].phase, Phase::AwaitFrames);
        let detect_after = self.specs[a].detect_after;
        for l in self.links(a) {
            let link = &mut self.link[l];
            if !link.alive {
                continue;
            }
            match link.inbox.pop(&mut self.spill, l) {
                Some(m) => {
                    match m.kind {
                        EntryKind::Data => {
                            link.heard_e = m.e;
                            self.agent[a].e += m.transfer;
                            link.peer_settled = m.settled;
                            link.silent = 0;
                        }
                        EntryKind::Heartbeat => {
                            link.peer_settled = m.settled;
                            link.silent = 0;
                        }
                        EntryKind::Goodbye => {
                            self.agent[a].e += m.transfer;
                            link.graceful = true;
                            link.peer_settled = true;
                            // Nothing more goes to the draining peer: a
                            // remote one learns it now, as a local one does
                            // from the dead reverse link, and does not wait
                            // out its drain's quiet period.
                            let announce = link.reverse == REMOTE && !link.eof;
                            self.kill(l);
                            if announce {
                                out.eof(l, self.agent[a].rounds);
                            }
                        }
                        EntryKind::Eof => unreachable!("end of stream is a flag, never mail"),
                    }
                    self.agent[a].msgs_received += 1;
                }
                None if link.eof => {
                    self.kill(l);
                    self.pruned.push((a as u32, self.peer[l]));
                }
                None => {
                    link.silent += 1;
                    if link.silent as usize >= detect_after {
                        self.kill(l);
                        self.pruned.push((a as u32, self.peer[l]));
                    }
                }
            }
        }

        let spec = &self.specs[a];
        let agent = &mut self.agent[a];
        agent.boost = (agent.boost * spec.boost_decay.clamp(0.0, 1.0)).max(1.0);
        let round = agent.rounds as usize;
        if spec.sample_every > 0 && round.is_multiple_of(spec.sample_every) {
            self.trace[a].push(NodeSample {
                round,
                p: agent.p,
                e: agent.e,
                msgs_sent: agent.msgs_sent,
            });
        }

        let links = self.links(a);
        let quorum = self.agent[a].settled
            && self.link[links.clone()]
                .iter()
                .all(|link| !link.alive || link.peer_settled);
        if !quorum {
            self.agent[a].phase = Phase::NeedSend;
            return;
        }
        let round = self.agent[a].rounds;
        let bye = Mail {
            e: self.agent[a].e,
            transfer: 0.0,
            kind: EntryKind::Goodbye,
            settled: false,
        };
        // A goodbye carries no mass, so a peer already gone loses nothing
        // by missing it. It counts on every live link either way: whether
        // a peer that ended this same round (its round cap) got there first
        // is scheduling, and must not show in the counters.
        for l in links {
            if self.link[l].alive {
                self.transmit(l, round, bye, out);
                self.agent[a].msgs_sent += 1;
            }
        }
        self.agent[a].phase = Phase::Draining;
    }

    /// Drain check of agent `a`: a live link closes once it holds the
    /// peer's goodbye, its stream ended, or (local peers) the peer's link
    /// back is dead so it can never send again. Entries stay in the
    /// mailboxes until every link is closed, then [`Self::finish_drain`]
    /// absorbs them. Returns `true` when the agent finished.
    pub fn absorb_drain(&mut self, a: usize, out: &mut impl Outlet) -> bool {
        debug_assert_eq!(self.agent[a].phase, Phase::Draining);
        let mut open = false;
        for l in self.links(a) {
            let link = &self.link[l];
            if !link.alive {
                continue;
            }
            let said_goodbye =
                matches!(link.inbox.back(&self.spill, l), Some(m) if m.kind == EntryKind::Goodbye);
            let reverse_dead = match link.reverse {
                REMOTE => false,
                rev => !self.link[rev as usize].alive,
            };
            if said_goodbye || link.eof || reverse_dead {
                // Closed, but the held entries stay for `finish_drain`.
                self.link[l].alive = false;
            } else {
                open = true;
            }
        }
        if open {
            return false;
        }
        self.finish_drain(a, out);
        true
    }

    /// Ends agent `a`'s drain now (every link closed, or the quiet period
    /// elapsed): absorbs the held entries link by link in slot order — the
    /// sequential accounting of the blocking drain, so the final residual
    /// does not depend on arrival interleaving — and finishes converged.
    /// Heartbeats are counted but never touch `e`, so even a `-0.0`
    /// residual survives bit-exact.
    pub fn finish_drain(&mut self, a: usize, out: &mut impl Outlet) {
        for l in self.links(a) {
            while let Some(m) = self.link[l].inbox.pop(&mut self.spill, l) {
                let agent = &mut self.agent[a];
                if m.kind != EntryKind::Heartbeat {
                    agent.e += m.transfer;
                }
                agent.msgs_received += 1;
            }
        }
        self.agent[a].converged = true;
        self.finish(a, out);
    }

    /// Agent `a` stops for good: every peer learns its end of stream.
    pub fn finish(&mut self, a: usize, out: &mut impl Outlet) {
        let agent = &mut self.agent[a];
        agent.phase = Phase::Done;
        let round = agent.rounds;
        self.done += 1;
        for l in self.links(a) {
            let link = &self.link[l];
            match link.reverse {
                // A link closed on the peer's goodbye announced its end then.
                REMOTE if !link.eof && !link.graceful => out.eof(l, round),
                REMOTE => {}
                rev => self.set_eof(rev as usize),
            }
        }
    }

    /// Folds every agent's final state into its report, in block order.
    pub fn into_reports(mut self) -> Vec<NodeReport> {
        // A stable sort keeps each agent's prunings in event order.
        self.pruned.sort_by_key(|&(a, _)| a);
        let mut pruned = self.pruned.into_iter().peekable();
        (0..self.specs.len())
            .map(|a| {
                let tag = a as u32;
                let agent = &self.agent[a];
                let mut report = NodeReport {
                    node: self.specs[a].id,
                    p: agent.p,
                    e: agent.e,
                    rounds: agent.rounds as usize,
                    converged: agent.converged,
                    msgs_sent: agent.msgs_sent,
                    msgs_received: agent.msgs_received,
                    heartbeats_sent: agent.heartbeats_sent,
                    pruned: Vec::new(),
                    trace: std::mem::take(&mut self.trace[a]),
                };
                while let Some((_, node)) = pruned.next_if(|&(owner, _)| owner == tag) {
                    report.pruned.push(node as usize);
                }
                report
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{node_specs, RuntimeConfig};
    use dpc_alg::diba::DibaConfig;
    use dpc_alg::problem::PowerBudgetProblem;
    use dpc_models::units::Watts;
    use dpc_models::workload::ClusterBuilder;
    use dpc_topology::Graph;

    /// The block hosting `hosted` of a seeded ring of `n`: its first and
    /// last agents are boundary agents, the rest interior.
    fn ring_block(n: usize, hosted: Range<usize>) -> AgentBlock {
        let graph = Graph::ring(n);
        let cluster = ClusterBuilder::new(n).seed(5).build();
        let problem =
            PowerBudgetProblem::new(cluster.utilities(), Watts(170.0 * n as f64)).unwrap();
        let specs = node_specs(
            &problem,
            &graph,
            DibaConfig::default(),
            &RuntimeConfig::default(),
        )
        .unwrap();
        let rows = hosted.clone().map(|i| graph.neighbors(i));
        AgentBlock::new(specs[hosted].to_vec(), rows)
    }

    fn drain_ready(block: &mut AgentBlock) -> Vec<usize> {
        std::iter::from_fn(|| block.pop_ready()).collect()
    }

    /// An outlet that takes every entry.
    struct Sink;

    impl Outlet for Sink {
        fn send(&mut self, _link: usize, _round: u32, _mail: Mail) -> bool {
            true
        }

        fn eof(&mut self, _link: usize, _round: u32) {}
    }

    #[test]
    fn boundary_agents_step_first_then_interior_in_id_order_from_the_cursor() {
        // Agents 0 and 149 have a link outside the block; 1..149 span two
        // full bitmap words and a partial tail word.
        let mut block = ring_block(200, 0..150);
        for a in [100, 149, 5, 0, 130, 149, 70, 5] {
            block.wake(a);
        }
        assert_eq!(drain_ready(&mut block), [149, 0, 5, 70, 100, 130]);

        // The sweep resumes past 130 and wraps around to the lower ids.
        for a in [20, 140, 64, 131, 63] {
            block.wake(a);
        }
        assert_eq!(drain_ready(&mut block), [131, 140, 20, 63, 64]);

        // A wrapped sweep comes back to the cursor's own word for the bits
        // below the cursor.
        for a in [64, 66] {
            block.wake(a);
        }
        assert_eq!(drain_ready(&mut block), [66, 64]);

        // Every agent woken twice is held once; the sweep starts past 64.
        block.wake_all();
        block.wake_all();
        let expected: Vec<usize> = [0, 149].into_iter().chain(65..149).chain(1..65).collect();
        assert_eq!(drain_ready(&mut block), expected);

        for a in [3, 0, 140, 149] {
            block.wake(a);
        }
        block.clear_ready();
        assert_eq!(block.pop_ready(), None, "both classes cleared");
        block.wake(3);
        block.wake(149);
        assert_eq!(drain_ready(&mut block), [149, 3]);
    }

    #[test]
    fn a_block_of_one_holds_at_most_one_ready_entry_however_many_rounds_run() {
        // The blocking actor loop drives its block of one by phase and
        // never pops the ready set the deliveries fill.
        let mut block = ring_block(3, 1..2);
        let rounds = 5_000;
        for _ in 0..rounds {
            block.send_round(0, &mut Sink);
            for l in block.links(0) {
                block.deliver(l, Mail::EMPTY);
            }
            block.receive_round(0, &mut Sink);
            assert_eq!(block.phase(0), Phase::NeedSend);
            assert!(block.boundary_ready.len() + block.interior_ready <= block.len());
        }
        assert_eq!(block.rounds(0), rounds);
        assert_eq!(block.pop_ready(), Some(0));
        assert_eq!(block.pop_ready(), None);
    }

    fn data(e: f64) -> Mail {
        Mail {
            e,
            transfer: -e,
            kind: EntryKind::Data,
            settled: false,
        }
    }

    #[test]
    fn mailbox_spills_past_inline_capacity_and_pops_fifo() {
        let mut spill = Spill::new();
        let mut mb = [Inbox::EMPTY; 3];
        let pushed = 3 * MAILBOX_INLINE + 1;
        for k in 0..pushed {
            mb[1].push(&mut spill, 1, data(k as f64));
            // Interleave a neighbor link to show spills stay per link.
            if k % 2 == 0 {
                mb[2].push(&mut spill, 2, data(100.0 + k as f64));
            }
        }
        assert_eq!(mb[1].held as usize, pushed);
        assert_eq!(spill.len(), 2, "links 1 and 2 both spilled");
        assert_eq!(mb[1].back(&spill, 1), Some(&data((pushed - 1) as f64)));
        assert!(mb[0].is_empty());
        for k in 0..pushed {
            assert_eq!(
                mb[1].pop(&mut spill, 1),
                Some(data(k as f64)),
                "entry {k} out of order"
            );
            if k == 1 {
                // Refill mid-drain: new entries queue behind the spill.
                mb[1].push(&mut spill, 1, data(1000.0));
            }
        }
        assert_eq!(mb[1].pop(&mut spill, 1), Some(data(1000.0)));
        assert_eq!(mb[1].pop(&mut spill, 1), None);
        assert_eq!(spill.len(), 1, "link 1's spill is released once drained");
        mb[2].clear(&mut spill, 2);
        assert!(spill.is_empty());
        assert_eq!(mb[2].pop(&mut spill, 2), None);
    }
}
