//! Hashed timing wheel for shard deadlines: handshake timeouts, round
//! (silent-peer) timeouts, and drain quiet periods.
//!
//! Deadlines are bucketed by tick (`deadline / tick mod buckets`);
//! [`Wheel::expired`] advances a cursor through due ticks, popping entries
//! whose deadline passed and re-bucketing far-future (wrapped) entries for
//! the next lap. Cancellation is lazy: every armed entry carries a
//! sequence number, and the shard ignores fired keys whose sequence no
//! longer matches the owner's current one — arming is O(1), cancelling is
//! free, and stale pops cost one comparison.

use std::time::{Duration, Instant};

/// What a fired timer refers to. `idx`/`slot` address a shard-local
/// object; `seq` must match the owner's current sequence or the pop is
/// stale and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerKey {
    /// Which deadline family fired.
    pub kind: TimerKind,
    /// Shard-local index of the owner (carrier or agent index).
    pub idx: u32,
    /// Lazy-cancellation sequence number.
    pub seq: u32,
}

/// The deadline families a shard arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// A carrier's handshake must complete by the deadline (`idx` =
    /// carrier).
    Handshake,
    /// The shard's periodic round-deadline check (`idx` unused).
    Round,
    /// A draining agent's quiet period elapsed (`idx` = agent).
    Drain,
}

struct Entry {
    tick: u64,
    key: TimerKey,
}

/// The wheel itself. One per shard; single-threaded.
pub struct Wheel {
    buckets: Vec<Vec<Entry>>,
    tick: Duration,
    origin: Instant,
    /// Next tick to be processed by `expired`.
    cursor: u64,
    /// Entries armed with a deadline behind the cursor. They cannot be
    /// bucketed (their tick was already swept), so they fire on the next
    /// `expired` call regardless of `now`.
    overdue: Vec<TimerKey>,
    len: usize,
}

impl Wheel {
    /// A wheel with `buckets` slots of `tick` width each; deadlines beyond
    /// `buckets × tick` wrap and are re-bucketed on the fly.
    pub fn new(tick: Duration, buckets: usize, origin: Instant) -> Wheel {
        assert!(buckets.is_power_of_two(), "bucket count must be 2^k");
        assert!(tick > Duration::ZERO, "tick must be positive");
        Wheel {
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            tick,
            origin,
            cursor: 0,
            overdue: Vec::new(),
            len: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.origin);
        (since.as_nanos() / self.tick.as_nanos()) as u64
    }

    /// Arms `key` to fire at `deadline`. A deadline whose tick the cursor
    /// has already swept goes to the overdue queue and fires on the next
    /// `expired` call — not a lap later, and not a tick later either.
    pub fn arm(&mut self, deadline: Instant, key: TimerKey) {
        let tick = self.tick_of(deadline);
        if tick < self.cursor {
            self.overdue.push(key);
        } else {
            let slot = (tick as usize) & (self.buckets.len() - 1);
            self.buckets[slot].push(Entry { tick, key });
        }
        self.len += 1;
    }

    /// Number of armed (possibly stale) entries.
    pub fn armed(&self) -> usize {
        self.len
    }

    /// A wake-up instant that is never later than the earliest armed
    /// deadline (it may be earlier for wrapped far-future entries — a
    /// harmless spurious wake). `None` when nothing is armed.
    pub fn next_wake(&self, now: Instant) -> Option<Instant> {
        if self.len == 0 {
            return None;
        }
        if !self.overdue.is_empty() {
            return Some(now);
        }
        let b = self.buckets.len() as u64;
        let start = self.cursor.max(self.tick_of(now));
        for t in self.cursor..self.cursor + b {
            let slot = (t as usize) & (self.buckets.len() - 1);
            if !self.buckets[slot].is_empty() {
                let fire = t.max(start);
                return Some(self.origin + self.tick.mul_f64(fire as f64));
            }
        }
        // Entries exist but every bucket scan missed them — cannot happen;
        // fall back to an immediate wake rather than sleeping forever.
        Some(now)
    }

    /// Pops every entry whose deadline tick is ≤ `now` into `out`,
    /// re-bucketing wrapped future entries. The caller filters stale keys
    /// by sequence number.
    pub fn expired(&mut self, now: Instant, out: &mut Vec<TimerKey>) {
        self.len -= self.overdue.len();
        out.append(&mut self.overdue);
        let due = self.tick_of(now);
        while self.cursor <= due {
            let slot = (self.cursor as usize) & (self.buckets.len() - 1);
            let mut i = 0;
            while i < self.buckets[slot].len() {
                if self.buckets[slot][i].tick <= due {
                    let entry = self.buckets[slot].swap_remove(i);
                    out.push(entry.key);
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(kind: TimerKind, idx: u32, seq: u32) -> TimerKey {
        TimerKey { kind, idx, seq }
    }

    #[test]
    fn fires_in_deadline_order_across_buckets() {
        let t0 = Instant::now();
        let mut w = Wheel::new(Duration::from_millis(8), 16, t0);
        w.arm(t0 + Duration::from_millis(40), key(TimerKind::Round, 1, 0));
        w.arm(t0 + Duration::from_millis(16), key(TimerKind::Drain, 2, 0));
        let mut out = Vec::new();
        w.expired(t0 + Duration::from_millis(20), &mut out);
        assert_eq!(out, vec![key(TimerKind::Drain, 2, 0)]);
        out.clear();
        w.expired(t0 + Duration::from_millis(60), &mut out);
        assert_eq!(out, vec![key(TimerKind::Round, 1, 0)]);
        assert_eq!(w.armed(), 0);
    }

    #[test]
    fn wrapped_far_future_entries_survive_a_lap() {
        let t0 = Instant::now();
        // 16 buckets × 8 ms = 128 ms horizon; 200 ms wraps.
        let mut w = Wheel::new(Duration::from_millis(8), 16, t0);
        w.arm(
            t0 + Duration::from_millis(200),
            key(TimerKind::Handshake, 3, 1),
        );
        let mut out = Vec::new();
        w.expired(t0 + Duration::from_millis(128), &mut out);
        assert!(out.is_empty(), "wrapped entry fired a lap early");
        w.expired(t0 + Duration::from_millis(210), &mut out);
        assert_eq!(out, vec![key(TimerKind::Handshake, 3, 1)]);
    }

    #[test]
    fn next_wake_is_never_later_than_the_earliest_deadline() {
        let t0 = Instant::now();
        let mut w = Wheel::new(Duration::from_millis(8), 16, t0);
        assert!(w.next_wake(t0).is_none());
        let deadline = t0 + Duration::from_millis(48);
        w.arm(deadline, key(TimerKind::Round, 0, 0));
        let wake = w.next_wake(t0).expect("armed wheel proposes a wake");
        assert!(wake <= deadline);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_sweep() {
        let t0 = Instant::now();
        let mut w = Wheel::new(Duration::from_millis(8), 16, t0);
        let mut out = Vec::new();
        w.expired(t0 + Duration::from_millis(100), &mut out);
        // Arming "in the past" (before the cursor) must not wait a lap.
        w.arm(t0 + Duration::from_millis(50), key(TimerKind::Drain, 7, 2));
        w.expired(t0 + Duration::from_millis(101), &mut out);
        assert_eq!(out, vec![key(TimerKind::Drain, 7, 2)]);
    }
}
