//! One poller shard: an epoll loop owning a contiguous range of agents —
//! one [`AgentBlock`] — the carriers its cross-shard links ride, and a
//! deadline wheel.
//!
//! The loop body is: wait (bounded by the wheel's next deadline) → ingest
//! carrier bytes into per-carrier reassembly buffers → deliver decoded
//! batch entries into the block's mailboxes → step every agent the block
//! reports ready → flush staged outbound bytes, one write per carrier →
//! fire expired timers. A send to an agent of the same shard never leaves
//! the block: it lands in the receiver's mailbox directly, so intra-shard
//! traffic completes entire rounds inside one pump with no framing.
//!
//! An agent steps round `r` only when every live link holds an entry (or
//! its stream ended) — counted per agent as entries land, never scanned —
//! and its receive pass consumes them in slot order, so the values
//! computed are independent of the order bytes happened to arrive in and
//! of the order ready agents are stepped in (boundary agents first, then
//! interior agents in id order; see `pump`), which is what makes
//! reactor runs bitwise-identical to the inproc and lockstep substrates.
//!
//! The hot path allocates nothing: cross-shard entries encode straight
//! into each carrier's persistent staging buffer through a
//! [`crate::wire::BatchWriter`], and inbound batches decode into one
//! reused [`DataBatch`] scratch.

use super::conn::{Carrier, CarrierEnd, CarrierState, SockConn};
use super::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use super::wheel::{TimerKey, TimerKind, Wheel};
use crate::agent::{AgentBlock, Mail, Outlet, Phase};
use crate::error::{HandshakeFailure, RuntimeError};
use crate::node::NodeReport;
use crate::wire::{
    encode_frame_into, BatchEntry, DataBatch, EntryKind, FrameKind, WireMsg, PROTOCOL_VERSION,
};
use std::net::Shutdown;
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epoll token reserved for the shard's wakeup eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Agent steps between mid-pump carrier flushes. A step is a few hundred
/// nanoseconds and a flush with nothing staged costs a header check per
/// carrier, so peer shards wait at most tens of microseconds for entries
/// staged early in a long pump.
const FLUSH_EVERY: usize = 256;

/// `link_carrier` marker of a link whose peer is hosted by the same shard.
pub const IN_SHARD: u32 = u32::MAX;

/// Everything one shard thread owns.
pub struct Shard {
    /// Shard index (thread name, handshake identity, diagnostics).
    pub id: usize,
    /// This shard's epoll instance.
    pub epoll: Epoll,
    /// Wakeup eventfd (registered under [`WAKE_TOKEN`]).
    pub wake: Arc<EventFd>,
    /// Hosted agents and their links.
    pub block: AgentBlock,
    /// Per block link: the carrier a cross-shard link rides, or
    /// [`IN_SHARD`].
    pub link_carrier: Vec<u32>,
    /// Per block link: the *receiving* shard's index for the reverse link
    /// of a cross-shard link. Outgoing entries are tagged with it so the
    /// peer shard routes them without any lookup.
    pub peer_slot: Vec<u32>,
    /// Byte carriers: one per peer shard this shard exchanges traffic
    /// with.
    pub carriers: Vec<Carrier>,
    /// Socket connections backing [`CarrierEnd::Sock`] carriers.
    pub conns: Vec<SockConn>,
    /// Cluster identity validated in carrier handshakes.
    pub identity: crate::wire::ClusterIdentity,
    /// Handshake deadline.
    pub handshake_timeout: Duration,
    /// Set by any shard (or the coordinator) to abandon the run.
    pub abort: Arc<std::sync::atomic::AtomicBool>,
}

/// The shard's cross-shard links as the block's [`Outlet`]: entries are
/// encoded into the staging buffer of the carrier each link rides.
struct Wire<'a> {
    carriers: &'a mut [Carrier],
    conns: &'a [SockConn],
    link_carrier: &'a [u32],
    peer_slot: &'a [u32],
}

impl Wire<'_> {
    /// Stages one batch entry for `link`. Returns `false` when the
    /// carrier's outbound side is gone, mirroring the blocking transports'
    /// `Delivery::Closed`; a staged entry counts as delivered, exactly like
    /// buffered blocking TCP.
    fn push(&mut self, link: usize, round: u32, mail: Mail) -> bool {
        let c = &mut self.carriers[self.link_carrier[link] as usize];
        if c.closed_out {
            return false;
        }
        if let CarrierEnd::Sock(conn_idx) = c.end {
            if self.conns[conn_idx as usize].closed {
                return false;
            }
        }
        let entry = BatchEntry {
            slot: self.peer_slot[link],
            e: mail.e,
            transfer: mail.transfer,
            settled: mail.settled,
            kind: mail.kind,
        };
        c.writer.push(&mut c.staging, round, entry, true);
        true
    }
}

impl Outlet for Wire<'_> {
    fn send(&mut self, link: usize, round: u32, mail: Mail) -> bool {
        self.push(link, round, mail)
    }

    /// One in-band EOF entry: peers see a per-link FIN ordered after the
    /// entries already staged, while the carrier stays open for the
    /// shard's other agents.
    fn eof(&mut self, link: usize, round: u32) {
        let eof = Mail {
            e: 0.0,
            transfer: 0.0,
            kind: EntryKind::Eof,
            settled: false,
        };
        self.push(link, round, eof);
    }
}

/// The block and its outlet, borrowed side by side.
fn split(shard: &mut Shard) -> (&mut AgentBlock, Wire<'_>) {
    (
        &mut shard.block,
        Wire {
            carriers: &mut shard.carriers,
            conns: &shard.conns,
            link_carrier: &shard.link_carrier,
            peer_slot: &shard.peer_slot,
        },
    )
}

/// The shard loop's working state.
struct Loop {
    wheel: Wheel,
    /// Socket read buffer.
    scratch: Vec<u8>,
    /// Mem-pipe take buffer.
    mem_scratch: Vec<u8>,
    /// Inbound batch decode scratch, reused across every frame.
    batch: DataBatch,
    /// Fired timer keys, reused across every sweep.
    expired: Vec<TimerKey>,
    /// Carriers whose handshake has not completed.
    hs_pending: usize,
    /// Every carrier is established and the agents run rounds.
    released: bool,
    /// Per agent: the round it was caught waiting in by the previous round
    /// check (`u32::MAX` when it was not waiting).
    stalled_at: Vec<u32>,
    /// Per agent: lazy-cancellation sequence of its drain timer.
    drain_seq: Vec<u32>,
    /// Period of the round check: the shortest round deadline hosted.
    round_check: Duration,
}

/// Runs the shard to completion: every hosted agent reports, a protocol
/// error aborts the whole run, or the abort flag stops the loop early
/// (another shard failed).
///
/// # Errors
///
/// First [`RuntimeError`] hit by any hosted carrier or agent.
pub fn run_shard(mut shard: Shard) -> Result<Vec<NodeReport>, RuntimeError> {
    let n_agents = shard.block.len();
    let origin = Instant::now();
    let mut lp = Loop {
        wheel: Wheel::new(Duration::from_millis(8), 1024, origin),
        scratch: vec![0u8; 64 * 1024],
        mem_scratch: Vec::new(),
        batch: DataBatch::default(),
        expired: Vec::new(),
        hs_pending: shard.carriers.len(),
        released: false,
        stalled_at: vec![u32::MAX; n_agents],
        drain_seq: vec![0; n_agents],
        round_check: (0..n_agents)
            .map(|a| shard.block.spec(a).round_timeout)
            .min()
            .unwrap_or(Duration::from_secs(2)),
    };

    let result = drive(&mut shard, &mut lp, n_agents);
    if result.is_err() {
        shard.abort.store(true, Ordering::Release);
    }
    // Seal, flush, and close every outbound carrier — on success so peers
    // see orderly EOF after the in-flight frames, on failure so peer
    // shards observe closed streams instead of waiting out their failure
    // detectors.
    teardown(&mut shard);
    result.map(|()| shard.block.into_reports())
}

fn drive(shard: &mut Shard, lp: &mut Loop, n_agents: usize) -> Result<(), RuntimeError> {
    // Register every socket and the wake eventfd.
    for (idx, conn) in shard.conns.iter().enumerate() {
        shard
            .epoll
            .add(conn.stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, idx as u64)
            .map_err(|source| RuntimeError::Io {
                peer: shard.carriers[conn.carrier as usize].peer_label(),
                source,
            })?;
    }
    shard
        .epoll
        .add(shard.wake.raw(), EPOLLIN, WAKE_TOKEN)
        .map_err(|source| RuntimeError::Io {
            peer: format!("shard {}", shard.id),
            source,
        })?;

    // Kick off carrier handshakes: the lower shard id sends Hello, the
    // higher waits and acks. One handshake per carrier — not per link —
    // so bring-up cost is O(shard pairs).
    let now = Instant::now();
    for ci in 0..shard.carriers.len() {
        if shard.id < shard.carriers[ci].peer_shard {
            let hello = WireMsg::Hello {
                version: PROTOCOL_VERSION,
                node: shard.id as u32,
                n_nodes: shard.identity.n_nodes,
                topology_hash: shard.identity.topology_hash,
            };
            shard.carriers[ci].state = CarrierState::AwaitAck;
            stage_msg(shard, ci, &hello);
        } else {
            shard.carriers[ci].state = CarrierState::AwaitHello;
        }
        lp.wheel.arm(
            now + shard.handshake_timeout,
            TimerKey {
                kind: TimerKind::Handshake,
                idx: ci as u32,
                seq: shard.carriers[ci].hs_seq,
            },
        );
    }
    if lp.hs_pending == 0 {
        release_agents(shard, lp);
    }

    let mut events = vec![EpollEvent::default(); 512];
    loop {
        pump(shard, lp)?;
        if shard.block.done() == n_agents {
            return Ok(());
        }
        if shard.abort.load(Ordering::Acquire) {
            return Ok(());
        }

        let now = Instant::now();
        let timeout_ms = match lp.wheel.next_wake(now) {
            Some(wake) => wake
                .saturating_duration_since(now)
                .as_millis()
                .clamp(1, 100) as i32,
            None => 100,
        };
        let n = shard
            .epoll
            .wait(&mut events, timeout_ms)
            .map_err(|source| RuntimeError::Io {
                peer: format!("shard {}", shard.id),
                source,
            })?;
        for ev in events.iter().take(n).copied() {
            let token = ev.data;
            if token == WAKE_TOKEN {
                shard.wake.drain();
                continue;
            }
            handle_conn_event(shard, lp, token as usize, ev.events)?;
        }
        fire_timers(shard, lp)?;
    }
}

/// Every carrier established: start the agents' rounds, and the periodic
/// round check that backs up frame-starved agents.
fn release_agents(shard: &mut Shard, lp: &mut Loop) {
    lp.released = true;
    shard.block.wake_all();
    arm_round_check(lp);
}

/// Steps ready agents and ingests mem-pipe bytes until neither moves
/// anything, then flushes every carrier in one write each. Intra-shard
/// traffic completes entire rounds inside one pump.
///
/// The block hands out boundary agents (those with a cross-shard link)
/// first, in the order they became ready, and the carriers are flushed
/// every [`FLUSH_EVERY`] steps rather than only at the end: the peer shard
/// gets the next round's boundary entries while this shard is still
/// working through its interior, and the two shards overlap instead of
/// taking turns. Interior agents step in ascending id order from a
/// wrapping cursor, so a shard whose records outgrow the cache walks them
/// in memory order rather than in the wavefront order readiness spreads
/// in.
fn pump(shard: &mut Shard, lp: &mut Loop) -> Result<(), RuntimeError> {
    loop {
        let moved = sweep_mem(shard, lp)?;
        let mut stepped = 0usize;
        if lp.released {
            while let Some(a) = shard.block.pop_ready() {
                step_agent(shard, lp, a);
                stepped += 1;
                if stepped.is_multiple_of(FLUSH_EVERY) {
                    flush_cross(shard);
                }
            }
        }
        if !moved && stepped == 0 {
            break;
        }
    }
    flush_cross(shard);
    Ok(())
}

/// Takes pending bytes out of every dirty cross-shard mem carrier into
/// its reassembly buffer and routes the complete frames.
fn sweep_mem(shard: &mut Shard, lp: &mut Loop) -> Result<bool, RuntimeError> {
    let mut moved = false;
    for ci in 0..shard.carriers.len() {
        let rx = match &shard.carriers[ci].end {
            CarrierEnd::Mem { rx, .. } => Arc::clone(rx),
            CarrierEnd::Sock(_) => continue,
        };
        if shard.carriers[ci].eof || !rx.is_dirty() {
            continue;
        }
        lp.mem_scratch.clear();
        let closed = rx.take(&mut lp.mem_scratch);
        if !lp.mem_scratch.is_empty() {
            shard.carriers[ci].reasm.push(&lp.mem_scratch);
            moved |= route_carrier(shard, lp, ci)?;
        }
        if closed {
            carrier_stream_eof(shard, ci);
            moved = true;
        }
    }
    Ok(moved)
}

/// Pops every complete frame out of a carrier's reassembly buffer,
/// running scalar frames through the handshake state machine and batch
/// entries into their links' mailboxes.
fn route_carrier(shard: &mut Shard, lp: &mut Loop, ci: usize) -> Result<bool, RuntimeError> {
    let mut any = false;
    loop {
        let mut batch = std::mem::take(&mut lp.batch);
        let next = shard.carriers[ci].reasm.next_frame_into(&mut batch);
        lp.batch = batch;
        match next {
            Ok(None) => return Ok(any),
            Err(source) => {
                return Err(RuntimeError::Decode {
                    peer: shard.carriers[ci].peer_label(),
                    source,
                })
            }
            Ok(Some(FrameKind::Batch)) => {
                any = true;
                if shard.carriers[ci].state != CarrierState::Data {
                    return Err(RuntimeError::Protocol {
                        peer: shard.carriers[ci].peer_label(),
                        got: "data-batch",
                    });
                }
                for k in 0..lp.batch.entries.len() {
                    let entry = lp.batch.entries[k];
                    route_entry(shard, ci, entry)?;
                }
            }
            Ok(Some(FrameKind::Msg(msg))) => {
                any = true;
                match shard.carriers[ci].state {
                    CarrierState::AwaitHello => accept_hello(shard, lp, ci, msg)?,
                    CarrierState::AwaitAck => accept_ack(shard, lp, ci, msg)?,
                    CarrierState::Data => {
                        return Err(RuntimeError::Protocol {
                            peer: shard.carriers[ci].peer_label(),
                            got: msg.kind(),
                        })
                    }
                }
            }
        }
    }
}

/// Delivers one decoded entry to the link it addresses, which must ride
/// the carrier it came in on.
fn route_entry(shard: &mut Shard, ci: usize, entry: BatchEntry) -> Result<(), RuntimeError> {
    let slot = entry.slot as usize;
    if shard.link_carrier.get(slot) != Some(&(ci as u32)) {
        return Err(RuntimeError::Protocol {
            peer: shard.carriers[ci].peer_label(),
            got: "misrouted-batch-entry",
        });
    }
    if entry.kind == EntryKind::Eof {
        shard.block.set_eof(slot);
    } else {
        shard.block.deliver(
            slot,
            Mail {
                e: entry.e,
                transfer: entry.transfer,
                kind: entry.kind,
                settled: entry.settled,
            },
        );
    }
    Ok(())
}

/// The whole inbound stream of a carrier ended (peer shard finished or
/// died): every link riding it is at EOF.
fn carrier_stream_eof(shard: &mut Shard, ci: usize) {
    if shard.carriers[ci].eof {
        return;
    }
    shard.carriers[ci].eof = true;
    for &link in &shard.carriers[ci].fed_links {
        shard.block.set_eof(link as usize);
    }
}

fn handshake_fail(shard: &Shard, ci: usize, reason: HandshakeFailure) -> RuntimeError {
    RuntimeError::Handshake {
        peer: shard.carriers[ci].peer_label(),
        reason,
    }
}

fn accept_hello(
    shard: &mut Shard,
    lp: &mut Loop,
    ci: usize,
    msg: WireMsg,
) -> Result<(), RuntimeError> {
    let peer_shard = shard.carriers[ci].peer_shard;
    match msg {
        WireMsg::Hello {
            version,
            node,
            n_nodes,
            topology_hash,
        } => {
            if node as usize != peer_shard {
                return Err(handshake_fail(
                    shard,
                    ci,
                    HandshakeFailure::UnexpectedPeer {
                        expected: Some(peer_shard),
                        got: node as usize,
                    },
                ));
            }
            if let Err(reason) = shard
                .identity
                .validate_hello(version, n_nodes, topology_hash)
            {
                // Staged now, flushed by the error-path teardown.
                stage_msg(shard, ci, &WireMsg::Reject { reason });
                return Err(handshake_fail(
                    shard,
                    ci,
                    HandshakeFailure::RejectedPeer { node, reason },
                ));
            }
            let ack = WireMsg::HelloAck {
                version: PROTOCOL_VERSION,
                node: shard.id as u32,
            };
            stage_msg(shard, ci, &ack);
            carrier_established(shard, lp, ci);
            Ok(())
        }
        other => Err(handshake_fail(
            shard,
            ci,
            HandshakeFailure::UnexpectedMessage { got: other.kind() },
        )),
    }
}

fn accept_ack(
    shard: &mut Shard,
    lp: &mut Loop,
    ci: usize,
    msg: WireMsg,
) -> Result<(), RuntimeError> {
    let peer_shard = shard.carriers[ci].peer_shard;
    match msg {
        WireMsg::HelloAck { version, node } => {
            if version != PROTOCOL_VERSION {
                return Err(handshake_fail(
                    shard,
                    ci,
                    HandshakeFailure::VersionMismatch {
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    },
                ));
            }
            if node as usize != peer_shard {
                return Err(handshake_fail(
                    shard,
                    ci,
                    HandshakeFailure::UnexpectedPeer {
                        expected: Some(peer_shard),
                        got: node as usize,
                    },
                ));
            }
            carrier_established(shard, lp, ci);
            Ok(())
        }
        WireMsg::Reject { reason } => Err(handshake_fail(
            shard,
            ci,
            HandshakeFailure::Rejected(reason),
        )),
        other => Err(handshake_fail(
            shard,
            ci,
            HandshakeFailure::UnexpectedMessage { got: other.kind() },
        )),
    }
}

fn carrier_established(shard: &mut Shard, lp: &mut Loop, ci: usize) {
    let c = &mut shard.carriers[ci];
    c.state = CarrierState::Data;
    c.hs_seq = c.hs_seq.wrapping_add(1);
    lp.hs_pending -= 1;
    if lp.hs_pending == 0 {
        release_agents(shard, lp);
    }
}

/// Appends one scalar frame (handshake traffic) to a carrier's staging,
/// sealing any open batch first.
fn stage_msg(shard: &mut Shard, ci: usize, msg: &WireMsg) {
    let c = &mut shard.carriers[ci];
    if c.closed_out {
        return;
    }
    c.writer.seal(&mut c.staging);
    encode_frame_into(msg, &mut c.staging);
}

/// Moves every carrier's staged bytes to its transport: one
/// mutex-guarded append per mem carrier, one (vectored) socket write per
/// sock carrier. This — not per-message writes — is what makes the
/// per-round wire cost O(carriers).
fn flush_cross(shard: &mut Shard) {
    for ci in 0..shard.carriers.len() {
        let c = &mut shard.carriers[ci];
        c.writer.seal(&mut c.staging);
        if c.staging.is_empty() {
            continue;
        }
        if c.closed_out {
            c.staging.clear();
            continue;
        }
        match &c.end {
            CarrierEnd::Mem { tx, .. } => {
                tx.send(&c.staging);
                c.staging.clear();
            }
            CarrierEnd::Sock(conn_idx) => {
                let conn_idx = *conn_idx as usize;
                let conn = &mut shard.conns[conn_idx];
                conn.out.extend_from_slice(&c.staging);
                c.staging.clear();
                flush_conn(shard, conn_idx);
            }
        }
    }
}

/// Pushes buffered outbound bytes into the kernel with vectored writes
/// where the ring wraps; arms `EPOLLOUT` on `WouldBlock`, completes a
/// pending graceful close once drained.
fn flush_conn(shard: &mut Shard, conn_idx: usize) {
    let conn = &mut shard.conns[conn_idx];
    while !conn.out.is_empty() && !conn.closed {
        match conn.out.write_to(&mut conn.stream) {
            Ok(0) => conn.closed = true,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => conn.closed = true,
        }
    }
    let flushed = conn.out.is_empty();
    let want = !flushed && !conn.closed;
    if want != conn.want_write {
        conn.want_write = want;
        let interest = if want {
            EPOLLIN | EPOLLRDHUP | EPOLLOUT
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        let _ = shard
            .epoll
            .modify(conn.stream.as_raw_fd(), interest, conn_idx as u64);
    }
    if flushed && conn.closing && !conn.closed {
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.closing = false;
    }
}

fn handle_conn_event(
    shard: &mut Shard,
    lp: &mut Loop,
    conn_idx: usize,
    events: u32,
) -> Result<(), RuntimeError> {
    if conn_idx >= shard.conns.len() {
        return Ok(());
    }
    if events & EPOLLOUT != 0 {
        flush_conn(shard, conn_idx);
    }
    if events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
        let ci = shard.conns[conn_idx].carrier as usize;
        let mut saw_eof = events & (EPOLLERR | EPOLLHUP) != 0;
        loop {
            let conn = &mut shard.conns[conn_idx];
            if conn.closed {
                break;
            }
            match std::io::Read::read(&mut conn.stream, &mut lp.scratch) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    shard.carriers[ci].reasm.push(&lp.scratch[..n]);
                    route_carrier(shard, lp, ci)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    saw_eof = true;
                    break;
                }
            }
        }
        if saw_eof {
            let conn = &mut shard.conns[conn_idx];
            if !conn.closed {
                conn.closed = true;
                let _ = shard.epoll.delete(conn.stream.as_raw_fd());
            }
            carrier_stream_eof(shard, ci);
        }
    }
    Ok(())
}

/// Advances one agent as far as its buffered input allows.
fn step_agent(shard: &mut Shard, lp: &mut Loop, a: usize) {
    let (block, mut wire) = split(shard);
    loop {
        match block.phase(a) {
            Phase::Done => return,
            Phase::NeedSend if !block.rounds_remaining(a) => {
                block.finish(a, &mut wire);
                return;
            }
            Phase::NeedSend => block.send_round(a, &mut wire),
            Phase::AwaitFrames if block.is_ready(a) => block.receive_round(a, &mut wire),
            Phase::AwaitFrames => return,
            Phase::Draining => {
                if !block.absorb_drain(a, &mut wire) {
                    // The drain's start, or an entry arriving, restarts
                    // the quiet period, like the blocking drain's
                    // per-receive timeout.
                    arm_drain_timer(lp, block, a);
                }
                return;
            }
        }
    }
}

fn arm_drain_timer(lp: &mut Loop, block: &AgentBlock, a: usize) {
    lp.drain_seq[a] = lp.drain_seq[a].wrapping_add(1);
    let quiet = block.spec(a).round_timeout.min(Duration::from_millis(100));
    lp.wheel.arm(
        Instant::now() + quiet,
        TimerKey {
            kind: TimerKind::Drain,
            idx: a as u32,
            seq: lp.drain_seq[a],
        },
    );
}

/// Seals and flushes every carrier's remaining bytes, then closes the
/// outbound sides (mem: closed flag; sock: drain then FIN). Socket tails
/// fall back to bounded blocking writes so goodbye/EOF frames are not
/// lost when the loop is no longer around to answer `EPOLLOUT`.
fn teardown(shard: &mut Shard) {
    for ci in 0..shard.carriers.len() {
        let c = &mut shard.carriers[ci];
        c.writer.seal(&mut c.staging);
        if c.closed_out {
            c.staging.clear();
            continue;
        }
        c.closed_out = true;
        match &c.end {
            CarrierEnd::Mem { tx, .. } => {
                if !c.staging.is_empty() {
                    tx.send(&c.staging);
                    c.staging.clear();
                }
                tx.close();
            }
            CarrierEnd::Sock(conn_idx) => {
                let conn_idx = *conn_idx as usize;
                let conn = &mut shard.conns[conn_idx];
                conn.out.extend_from_slice(&c.staging);
                c.staging.clear();
                if conn.closed {
                    continue;
                }
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(2)));
                while !conn.out.is_empty() {
                    match conn.out.write_to(&mut conn.stream) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
                let _ = conn.stream.shutdown(Shutdown::Write);
            }
        }
    }
}

/// One shard-level wheel entry covers every agent: per-agent deadlines
/// would arm a timer per round per agent for no benefit, since the
/// deadline only matters on the (rare) faulty path.
fn arm_round_check(lp: &mut Loop) {
    lp.wheel.arm(
        Instant::now() + lp.round_check,
        TimerKey {
            kind: TimerKind::Round,
            idx: u32::MAX,
            seq: 0,
        },
    );
}

/// The round deadline: an agent caught waiting in the same round by two
/// consecutive checks has waited at least one full period, so its receive
/// pass runs with what it has — each missing link counts a silent round.
fn check_rounds(shard: &mut Shard, lp: &mut Loop) {
    let (block, mut wire) = split(shard);
    for a in 0..block.len() {
        if block.phase(a) != Phase::AwaitFrames {
            lp.stalled_at[a] = u32::MAX;
            continue;
        }
        let round = block.rounds(a) as u32;
        if lp.stalled_at[a] == round {
            lp.stalled_at[a] = u32::MAX;
            block.receive_round(a, &mut wire);
            block.wake(a);
        } else {
            lp.stalled_at[a] = round;
        }
    }
    if block.done() < block.len() {
        arm_round_check(lp);
    }
}

fn fire_timers(shard: &mut Shard, lp: &mut Loop) -> Result<(), RuntimeError> {
    if lp.wheel.armed() == 0 {
        return Ok(());
    }
    let mut expired = std::mem::take(&mut lp.expired);
    lp.wheel.expired(Instant::now(), &mut expired);
    for key in expired.drain(..) {
        match key.kind {
            TimerKind::Handshake => {
                let c = &shard.carriers[key.idx as usize];
                if c.hs_seq == key.seq && c.state != CarrierState::Data {
                    return Err(handshake_fail(
                        shard,
                        key.idx as usize,
                        HandshakeFailure::Timeout,
                    ));
                }
            }
            TimerKind::Round => check_rounds(shard, lp),
            TimerKind::Drain => {
                let a = key.idx as usize;
                if shard.block.phase(a) == Phase::Draining && lp.drain_seq[a] == key.seq {
                    // Quiet period elapsed: close every link still open.
                    let (block, mut wire) = split(shard);
                    block.finish_drain(a, &mut wire);
                }
            }
        }
    }
    lp.expired = expired;
    pump(shard, lp)
}
