//! The protocol brain of DiBA agents, stored as one columnar block so
//! every substrate executes the *same* arithmetic in the same order.
//!
//! An [`AgentBlock`] holds a set of agents as rows of flat columns: the
//! agent columns (`p`, `e`, boost, settled streak, round counter, phase,
//! message counters) and, in CSR order behind each agent, the link columns
//! (last heard residual, last sent residual, liveness, peer-settled,
//! silence count, end-of-stream) plus one [`Mailboxes`] slot per link.
//! No agent owns a heap buffer; one kernel scratch serves the whole block.
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
//! end-of-stream on one, decrements it; the agent joins the ready queue
//! the moment it reaches zero.
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

/// Per-link FIFO mailboxes: the oldest [`MAILBOX_INLINE`] entries of each
/// link sit in a flat inline column; further entries of a backed-up link
/// live in one shared overflow map, touched only on the round-timeout path.
#[derive(Debug, Default)]
pub struct Mailboxes {
    inline: Vec<[Mail; MAILBOX_INLINE]>,
    /// Entries held per link, inline and spilled together.
    len: Vec<u32>,
    spill: HashMap<u32, VecDeque<Mail>>,
}

impl Mailboxes {
    /// Empty mailboxes for `links` links.
    pub fn new(links: usize) -> Mailboxes {
        Mailboxes {
            inline: vec![[Mail::EMPTY; MAILBOX_INLINE]; links],
            len: vec![0; links],
            spill: HashMap::new(),
        }
    }

    /// Whether link `l` holds nothing.
    pub fn is_empty(&self, l: usize) -> bool {
        self.len[l] == 0
    }

    /// Appends `mail` to link `l`'s queue.
    pub fn push(&mut self, l: usize, mail: Mail) {
        let n = self.len[l] as usize;
        if n < MAILBOX_INLINE {
            self.inline[l][n] = mail;
        } else {
            self.spill.entry(l as u32).or_default().push_back(mail);
        }
        self.len[l] += 1;
    }

    /// Takes the oldest entry of link `l`.
    pub fn pop(&mut self, l: usize) -> Option<Mail> {
        let n = self.len[l] as usize;
        if n == 0 {
            return None;
        }
        let slots = &mut self.inline[l];
        let head = slots[0];
        slots.copy_within(1.., 0);
        if n > MAILBOX_INLINE {
            let queue = self.spill.get_mut(&(l as u32)).expect("spilled entries");
            slots[MAILBOX_INLINE - 1] = queue.pop_front().expect("spilled entry");
            if queue.is_empty() {
                self.spill.remove(&(l as u32));
            }
        }
        self.len[l] -= 1;
        Some(head)
    }

    /// The newest entry of link `l`.
    pub fn back(&self, l: usize) -> Option<&Mail> {
        match self.len[l] as usize {
            0 => None,
            n if n <= MAILBOX_INLINE => Some(&self.inline[l][n - 1]),
            _ => self.spill.get(&(l as u32)).and_then(|q| q.back()),
        }
    }

    /// Drops everything link `l` holds.
    pub fn clear(&mut self, l: usize) {
        if self.len[l] as usize > MAILBOX_INLINE {
            self.spill.remove(&(l as u32));
        }
        self.len[l] = 0;
    }
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

/// A set of agents with consecutive node ids, stored column by column.
pub struct AgentBlock {
    // Agent columns.
    specs: Vec<NodeSpec>,
    p: Vec<f64>,
    e: Vec<f64>,
    boost: Vec<f64>,
    streak: Vec<u32>,
    rounds: Vec<u32>,
    settled: Vec<bool>,
    converged: Vec<bool>,
    phase: Vec<Phase>,
    msgs_sent: Vec<u64>,
    msgs_received: Vec<u64>,
    heartbeats_sent: Vec<u64>,
    /// Live links still lacking an entry or end of stream this round.
    missing: Vec<u32>,
    /// CSR offsets: agent `a`'s links are `first_link[a]..first_link[a+1]`.
    first_link: Vec<u32>,

    // Link columns.
    owner: Vec<u32>,
    /// Neighbor node id behind the link.
    peer: Vec<u32>,
    /// The peer's link back to us when the peer is in this block, else
    /// [`REMOTE`].
    reverse: Vec<u32>,
    heard_e: Vec<f64>,
    /// Last residual handed over in a `Data` entry (NaN until the first
    /// send, so the first round always sends `Data`).
    sent_e: Vec<f64>,
    alive: Vec<bool>,
    /// The peer said goodbye (as opposed to being pruned or lost).
    graceful: Vec<bool>,
    peer_settled: Vec<bool>,
    /// The peer will never write this link again.
    eof: Vec<bool>,
    silent: Vec<u32>,
    mail: Mailboxes,

    // Rare per-agent output, appended in event order.
    pruned: Vec<(u32, u32)>,
    /// Sampled trace, one list per agent (each empty unless sampling),
    /// moved into its report as is. A block-wide list would need a sort
    /// and a copy at the end, and on a sampled 10k run those transient
    /// buffers run to tens of megabytes that the shard thread's allocator
    /// arena keeps resident after the run.
    trace: Vec<Vec<NodeSample>>,

    /// Agents to step, oldest first.
    ready: VecDeque<u32>,
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
        let links = peer.len();
        let local = |node: usize| node.checked_sub(base).filter(|&b| b < n);
        let reverse: Vec<u32> = (0..links)
            .map(|l| match local(peer[l] as usize) {
                Some(b) => {
                    let row = &peer[first_link[b] as usize..first_link[b + 1] as usize];
                    let me = (base + owner[l] as usize) as u32;
                    let pos = row.binary_search(&me).expect("graph edges are symmetric");
                    first_link[b] + pos as u32
                }
                None => REMOTE,
            })
            .collect();
        let heard_e = (0..links).map(|l| specs[owner[l] as usize].e).collect();
        let max_degree = (0..n)
            .map(|a| (first_link[a + 1] - first_link[a]) as usize)
            .max()
            .unwrap_or(0);
        AgentBlock {
            p: specs.iter().map(|s| s.p).collect(),
            e: specs.iter().map(|s| s.e).collect(),
            boost: specs.iter().map(|s| s.eta_boost.max(1.0)).collect(),
            streak: vec![0; n],
            rounds: vec![0; n],
            settled: vec![false; n],
            converged: vec![false; n],
            phase: vec![Phase::NeedSend; n],
            msgs_sent: vec![0; n],
            msgs_received: vec![0; n],
            heartbeats_sent: vec![0; n],
            missing: vec![0; n],
            first_link,
            owner,
            peer,
            reverse,
            heard_e,
            sent_e: vec![f64::NAN; links],
            alive: vec![true; links],
            graceful: vec![false; links],
            peer_settled: vec![false; links],
            eof: vec![false; links],
            silent: vec![0; links],
            mail: Mailboxes::new(links),
            pruned: Vec::new(),
            trace: vec![Vec::new(); n],
            ready: VecDeque::new(),
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
        self.peer.len()
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
        self.phase[a]
    }

    /// Rounds agent `a` has started.
    pub fn rounds(&self, a: usize) -> usize {
        self.rounds[a] as usize
    }

    /// `true` while agent `a`'s round budget allows another round.
    pub fn rounds_remaining(&self, a: usize) -> bool {
        (self.rounds[a] as usize) < self.specs[a].max_rounds
    }

    /// Whether link `l` is still alive (while draining: still open).
    pub fn is_alive(&self, l: usize) -> bool {
        self.alive[l]
    }

    /// Whether every live link of agent `a` holds its round input.
    pub fn is_ready(&self, a: usize) -> bool {
        self.missing[a] == 0
    }

    /// Agents that have finished.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Next agent whose inputs became complete (or, while draining, whose
    /// links changed), in the order they became so. An agent may be queued
    /// more than once; stepping it again is harmless.
    pub fn pop_ready(&mut self) -> Option<usize> {
        self.ready.pop_front().map(|a| a as usize)
    }

    /// Queues agent `a` for stepping.
    pub fn wake(&mut self, a: usize) {
        self.ready.push_back(a as u32);
    }

    /// Queues every agent (bring-up).
    pub fn wake_all(&mut self) {
        self.ready.extend(0..self.len() as u32);
    }

    /// Forgets queued wakeups (substrates that step on a fixed schedule).
    pub fn clear_ready(&mut self) {
        self.ready.clear();
    }

    /// An entry arrived on link `l`. Dropped when the link is dead or its
    /// agent finished: neither is ever read again.
    pub fn deliver(&mut self, l: usize, mail: Mail) {
        let a = self.owner[l] as usize;
        if !self.alive[l] || self.phase[a] == Phase::Done {
            return;
        }
        let was_empty = self.mail.is_empty(l);
        self.mail.push(l, mail);
        if was_empty && !self.eof[l] {
            self.filled(a);
        } else if self.phase[a] == Phase::Draining {
            self.wake(a);
        }
    }

    /// Link `l`'s peer will never write it again.
    pub fn set_eof(&mut self, l: usize) {
        if self.eof[l] {
            return;
        }
        self.eof[l] = true;
        let a = self.owner[l] as usize;
        if !self.alive[l] {
            return;
        }
        if self.mail.is_empty(l) {
            self.filled(a);
        } else if self.phase[a] == Phase::Draining {
            self.wake(a);
        }
    }

    /// A live link of agent `a` went from lacking input to holding some.
    fn filled(&mut self, a: usize) {
        match self.phase[a] {
            Phase::AwaitFrames => {
                self.missing[a] -= 1;
                if self.missing[a] == 0 {
                    self.wake(a);
                }
            }
            Phase::Draining => self.wake(a),
            Phase::NeedSend | Phase::Done => {}
        }
    }

    /// Link `l` died: nothing on it is ever read again.
    fn kill(&mut self, l: usize) {
        self.alive[l] = false;
        self.mail.clear(l);
        // A draining local peer may now close its link back to us.
        let rev = self.reverse[l];
        if rev != REMOTE {
            let b = self.owner[rev as usize] as usize;
            if self.phase[b] == Phase::Draining {
                self.wake(b);
            }
        }
    }

    /// Hands one entry to link `l`'s peer: straight into its mailbox when
    /// local, through `out` when remote. `false` when the link is gone.
    fn transmit(&mut self, l: usize, round: u32, mail: Mail, out: &mut impl Outlet) -> bool {
        if self.eof[l] {
            return false;
        }
        match self.reverse[l] {
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
        debug_assert_eq!(self.phase[a], Phase::NeedSend);
        self.rounds[a] += 1;
        let round = self.rounds[a];
        let links = self.links(a);

        self.neigh_e.clear();
        for l in links.clone() {
            if self.alive[l] {
                self.neigh_e.push(self.heard_e[l]);
            }
        }
        let spec = &self.specs[a];
        let round_params = NodeParams {
            eta: spec.params.eta * self.boost[a],
            ..spec.params
        };
        let dp = node_action_into(
            &spec.utility,
            self.p[a],
            self.e[a],
            &self.neigh_e,
            &round_params,
            &mut self.scratch,
        );
        // Same accounting (and summation order) as
        // `NodeAction::own_residual_delta`, without the per-round `Vec`.
        let sent_total: f64 = self.scratch.transfers.iter().sum();
        self.p[a] += dp;
        self.e[a] += dp - sent_total;
        self.streak[a] = if dp.abs() < spec.settle_tol {
            self.streak[a] + 1
        } else {
            0
        };
        let settled = self.streak[a] as usize >= spec.stable_rounds;
        self.settled[a] = settled;

        // Every entry carries the post-update residual; reclaims from
        // closed links land in `e` without rewriting entries already sent.
        let e_round = self.e[a];
        // Our own mailboxes cannot change while we send, so the links still
        // lacking round input are counted in the same pass.
        let mut missing = 0;
        let mut k = 0;
        for l in links {
            if !self.alive[l] {
                continue;
            }
            let transfer = self.scratch.transfers[k];
            k += 1;
            let redundant = settled && transfer == 0.0 && e_round == self.sent_e[l];
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
                self.msgs_sent[a] += 1;
                if redundant {
                    self.heartbeats_sent[a] += 1;
                } else {
                    self.sent_e[l] = self.e[a];
                }
                missing += u32::from(self.mail.is_empty(l) && !self.eof[l]);
            } else {
                self.e[a] += transfer;
                self.kill(l);
                self.pruned.push((a as u32, self.peer[l]));
            }
        }
        self.missing[a] = missing;
        self.phase[a] = Phase::AwaitFrames;
    }

    /// Receive pass of agent `a`: one entry per live link in slot order. A
    /// link with nothing buffered is closed if its peer's stream ended and
    /// otherwise counts a silent round (pruned after `detect_after` in a
    /// row) — the round-deadline path. Then boost decay, trace sampling,
    /// and the quorum check: settled with every neighbor settled or gone
    /// sends `Goodbye` on every live link and enters the drain.
    pub fn receive_round(&mut self, a: usize, out: &mut impl Outlet) {
        debug_assert_eq!(self.phase[a], Phase::AwaitFrames);
        let detect_after = self.specs[a].detect_after;
        for l in self.links(a) {
            if !self.alive[l] {
                continue;
            }
            match self.mail.pop(l) {
                Some(m) => {
                    match m.kind {
                        EntryKind::Data => {
                            self.heard_e[l] = m.e;
                            self.e[a] += m.transfer;
                            self.peer_settled[l] = m.settled;
                            self.silent[l] = 0;
                        }
                        EntryKind::Heartbeat => {
                            self.peer_settled[l] = m.settled;
                            self.silent[l] = 0;
                        }
                        EntryKind::Goodbye => {
                            self.e[a] += m.transfer;
                            self.graceful[l] = true;
                            self.peer_settled[l] = true;
                            self.kill(l);
                            // Nothing more goes to the draining peer: a
                            // remote one learns it now, as a local one does
                            // from the dead reverse link, and does not wait
                            // out its drain's quiet period.
                            if self.reverse[l] == REMOTE && !self.eof[l] {
                                out.eof(l, self.rounds[a]);
                            }
                        }
                        EntryKind::Eof => unreachable!("end of stream is a flag, never mail"),
                    }
                    self.msgs_received[a] += 1;
                }
                None if self.eof[l] => {
                    self.kill(l);
                    self.pruned.push((a as u32, self.peer[l]));
                }
                None => {
                    self.silent[l] += 1;
                    if self.silent[l] as usize >= detect_after {
                        self.kill(l);
                        self.pruned.push((a as u32, self.peer[l]));
                    }
                }
            }
        }

        let spec = &self.specs[a];
        self.boost[a] = (self.boost[a] * spec.boost_decay.clamp(0.0, 1.0)).max(1.0);
        let round = self.rounds[a] as usize;
        if spec.sample_every > 0 && round.is_multiple_of(spec.sample_every) {
            self.trace[a].push(NodeSample {
                round,
                p: self.p[a],
                e: self.e[a],
                msgs_sent: self.msgs_sent[a],
            });
        }

        let quorum = self.settled[a]
            && self
                .links(a)
                .all(|l| !self.alive[l] || self.peer_settled[l]);
        if !quorum {
            self.phase[a] = Phase::NeedSend;
            return;
        }
        let bye = Mail {
            e: self.e[a],
            transfer: 0.0,
            kind: EntryKind::Goodbye,
            settled: false,
        };
        // A goodbye carries no mass, so a peer already gone loses nothing
        // by missing it. It counts on every live link either way: whether
        // a peer that ended this same round (its round cap) got there first
        // is scheduling, and must not show in the counters.
        for l in self.links(a) {
            if self.alive[l] {
                self.transmit(l, self.rounds[a], bye, out);
                self.msgs_sent[a] += 1;
            }
        }
        self.phase[a] = Phase::Draining;
    }

    /// Drain check of agent `a`: a live link closes once it holds the
    /// peer's goodbye, its stream ended, or (local peers) the peer's link
    /// back is dead so it can never send again. Entries stay in the
    /// mailboxes until every link is closed, then [`Self::finish_drain`]
    /// absorbs them. Returns `true` when the agent finished.
    pub fn absorb_drain(&mut self, a: usize, out: &mut impl Outlet) -> bool {
        debug_assert_eq!(self.phase[a], Phase::Draining);
        let mut open = false;
        for l in self.links(a) {
            if !self.alive[l] {
                continue;
            }
            let said_goodbye = matches!(self.mail.back(l), Some(m) if m.kind == EntryKind::Goodbye);
            let reverse_dead = match self.reverse[l] {
                REMOTE => false,
                rev => !self.alive[rev as usize],
            };
            if said_goodbye || self.eof[l] || reverse_dead {
                // Closed, but the held entries stay for `finish_drain`.
                self.alive[l] = false;
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
            while let Some(m) = self.mail.pop(l) {
                if m.kind != EntryKind::Heartbeat {
                    self.e[a] += m.transfer;
                }
                self.msgs_received[a] += 1;
            }
        }
        self.converged[a] = true;
        self.finish(a, out);
    }

    /// Agent `a` stops for good: every peer learns its end of stream.
    pub fn finish(&mut self, a: usize, out: &mut impl Outlet) {
        self.phase[a] = Phase::Done;
        self.done += 1;
        let round = self.rounds[a];
        for l in self.links(a) {
            match self.reverse[l] {
                // A link closed on the peer's goodbye announced its end then.
                REMOTE if !self.eof[l] && !self.graceful[l] => out.eof(l, round),
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
                let mut report = NodeReport {
                    node: self.specs[a].id,
                    p: self.p[a],
                    e: self.e[a],
                    rounds: self.rounds[a] as usize,
                    converged: self.converged[a],
                    msgs_sent: self.msgs_sent[a],
                    msgs_received: self.msgs_received[a],
                    heartbeats_sent: self.heartbeats_sent[a],
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
        let mut mb = Mailboxes::new(3);
        let pushed = 3 * MAILBOX_INLINE + 1;
        for k in 0..pushed {
            mb.push(1, data(k as f64));
            // Interleave a neighbor link to show spills stay per link.
            if k % 2 == 0 {
                mb.push(2, data(100.0 + k as f64));
            }
        }
        assert_eq!(mb.len[1] as usize, pushed);
        assert_eq!(mb.spill.len(), 2, "links 1 and 2 both spilled");
        assert_eq!(mb.back(1), Some(&data((pushed - 1) as f64)));
        assert!(mb.is_empty(0));
        for k in 0..pushed {
            assert_eq!(mb.pop(1), Some(data(k as f64)), "entry {k} out of order");
            if k == 1 {
                // Refill mid-drain: new entries queue behind the spill.
                mb.push(1, data(1000.0));
            }
        }
        assert_eq!(mb.pop(1), Some(data(1000.0)));
        assert_eq!(mb.pop(1), None);
        assert_eq!(mb.spill.len(), 1, "link 1's spill is released once drained");
        mb.clear(2);
        assert!(mb.spill.is_empty());
        assert_eq!(mb.pop(2), None);
    }
}
