//! At-least-once delivery over best-effort channels.
//!
//! The paper's deployment runs DVM over TCP; the simulator's
//! fault-injection transport instead models a lossy management network
//! that drops, duplicates, reorders and delays envelopes. This module
//! rebuilds the TCP guarantees the protocol relies on:
//!
//! * a [`SenderWindow`] assigns per-`(from, to)` channel sequence
//!   numbers, keeps every unacknowledged envelope, and schedules
//!   timeout-driven retransmissions with exponential backoff;
//! * a [`ReceiverLedger`] suppresses duplicates and releases envelopes
//!   strictly in channel order (buffering out-of-order arrivals), so
//!   each verifier observes exactly the per-link FIFO semantics of §5.2.
//!
//! Delivery is *at-least-once* on the wire and *exactly-once, in-order*
//! at the verifier; since `UPDATE`/`SUBSCRIBE` application is also
//! idempotent (diff-based against `CIBOut`, grow-only scopes), counting
//! results converge to the same fixpoint as over a perfect channel.
//!
//! The structures are pure state machines over virtual time — the
//! transport decides what "now" is and when to ask for retransmissions,
//! so the same code serves the instant FIFO reference and the
//! virtual-time event simulator.
//!
//! Both halves are *bounded*: the sender's unacked window and the
//! receiver's out-of-order buffer carry explicit per-channel caps and
//! refuse further growth with a [`ReliableError`] instead of letting a
//! sustained reorder storm (or a dead peer) grow them without limit.
//! They are also *epoch-aware*: when a topology churn bumps the
//! [`Envelope::epoch`] generation, channels can be reset wholesale so
//! stale sequence state cannot block the new round.

use crate::dvm::message::Envelope;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use tulkun_netmodel::DeviceId;
use tulkun_telemetry::Telemetry;

/// A directed sender→receiver channel.
pub type ChannelKey = (DeviceId, DeviceId);

/// Default per-channel cap for both the sender's unacked window and the
/// receiver's out-of-order buffer. Far above anything the verifier
/// workloads reach; hitting it means the peer is dead or the channel is
/// pathologically reordered, and the caller must apply backpressure.
pub const DEFAULT_CHANNEL_CAP: usize = 1024;

/// Backpressure: a bounded reliability structure refused to grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReliableError {
    /// The sender window for `ch` already holds `cap` unacked envelopes.
    WindowFull {
        /// The saturated channel.
        ch: ChannelKey,
        /// Its configured cap.
        cap: usize,
    },
    /// The receiver's out-of-order buffer for `ch` already holds `cap`
    /// gap-buffered envelopes.
    ReorderFull {
        /// The saturated channel.
        ch: ChannelKey,
        /// Its configured cap.
        cap: usize,
    },
}

impl fmt::Display for ReliableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReliableError::WindowFull { ch, cap } => {
                write!(
                    f,
                    "sender window full on {:?}->{:?} (cap {cap})",
                    ch.0, ch.1
                )
            }
            ReliableError::ReorderFull { ch, cap } => {
                write!(
                    f,
                    "reorder buffer full on {:?}->{:?} (cap {cap})",
                    ch.0, ch.1
                )
            }
        }
    }
}

impl std::error::Error for ReliableError {}

/// One envelope awaiting acknowledgment.
#[derive(Debug, Clone)]
pub struct Pending {
    /// The sequenced envelope (retransmitted verbatim).
    pub env: Envelope,
    /// Virtual time at which the retransmission timer fires.
    pub deadline: u64,
    /// Retransmissions performed so far.
    pub attempts: u32,
}

/// Sender half: sequence assignment, the unacked window, backoff.
#[derive(Debug)]
pub struct SenderWindow {
    next_seq: BTreeMap<ChannelKey, u64>,
    unacked: BTreeMap<(ChannelKey, u64), Pending>,
    /// Unacked count per channel (kept in sync with `unacked`).
    per_ch: BTreeMap<ChannelKey, usize>,
    cap: usize,
    tel: Arc<Telemetry>,
}

impl Default for SenderWindow {
    fn default() -> Self {
        SenderWindow {
            next_seq: BTreeMap::new(),
            unacked: BTreeMap::new(),
            per_ch: BTreeMap::new(),
            cap: DEFAULT_CHANNEL_CAP,
            tel: Telemetry::disabled(),
        }
    }
}

impl SenderWindow {
    /// A fresh window (all channels start at sequence 1).
    pub fn new() -> SenderWindow {
        SenderWindow::default()
    }

    /// A fresh window with a non-default per-channel unacked cap.
    pub fn with_cap(cap: usize) -> SenderWindow {
        assert!(cap > 0, "sender window cap must be positive");
        SenderWindow {
            cap,
            ..SenderWindow::default()
        }
    }

    /// The per-channel unacked cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Attaches a telemetry handle recording retransmit/ack events.
    pub fn set_telemetry(&mut self, tel: Arc<Telemetry>) {
        self.tel = tel;
    }

    /// Assigns the next sequence number on the envelope's channel,
    /// stamps it into `env`, and registers the envelope as unacked with
    /// its first retransmission deadline at `now + rto_ns`.
    ///
    /// Refuses with [`ReliableError::WindowFull`] — leaving `env`
    /// untouched — when the channel already holds `cap` unacked
    /// envelopes; the caller must hold the envelope back until acks
    /// drain the window.
    pub fn assign(
        &mut self,
        env: &mut Envelope,
        now: u64,
        rto_ns: u64,
    ) -> Result<(), ReliableError> {
        let ch = (env.from, env.to);
        let in_flight = self.per_ch.entry(ch).or_insert(0);
        if *in_flight >= self.cap {
            self.tel
                .count(env.from, "tulkun_reliable_backpressure_total", 1);
            return Err(ReliableError::WindowFull { ch, cap: self.cap });
        }
        *in_flight += 1;
        let seq = self.next_seq.entry(ch).or_insert(1);
        env.seq = *seq;
        *seq += 1;
        self.unacked.insert(
            (ch, env.seq),
            Pending {
                env: env.clone(),
                deadline: now.saturating_add(rto_ns),
                attempts: 0,
            },
        );
        self.tel.count(env.from, "tulkun_reliable_sent_total", 1);
        Ok(())
    }

    /// Clears one acknowledged envelope; returns whether it was still
    /// outstanding (duplicate acks return `false`).
    pub fn ack(&mut self, ch: ChannelKey, seq: u64) -> bool {
        let cleared = self.unacked.remove(&(ch, seq)).is_some();
        if cleared {
            self.decrement(ch);
            self.tel.count(ch.0, "tulkun_reliable_acked_total", 1);
        }
        cleared
    }

    fn decrement(&mut self, ch: ChannelKey) {
        if let Some(n) = self.per_ch.get_mut(&ch) {
            *n = n.saturating_sub(1);
        }
    }

    /// Unacked envelopes currently in flight on one channel.
    pub fn outstanding_on(&self, ch: ChannelKey) -> usize {
        self.per_ch.get(&ch).copied().unwrap_or(0)
    }

    /// Full channel reset: forgets every sequence counter and unacked
    /// entry. Used by the epoch fence, which atomically drops all
    /// in-flight traffic so restarting every channel at sequence 1 is
    /// coherent.
    pub fn reset(&mut self) {
        self.next_seq.clear();
        self.unacked.clear();
        self.per_ch.clear();
    }

    /// Resets only the channels *into* `dev` (sequence counters and
    /// unacked entries): the crash/restart purge, where all in-flight
    /// traffic toward the restarted device is dropped with it.
    /// Returns how many unacked entries were dropped.
    pub fn reset_channels_into(&mut self, dev: DeviceId) -> usize {
        let stale: Vec<(ChannelKey, u64)> = self
            .unacked
            .keys()
            .filter(|((_, to), _)| *to == dev)
            .copied()
            .collect();
        for key in &stale {
            self.unacked.remove(key);
        }
        self.next_seq.retain(|(_, to), _| *to != dev);
        self.per_ch.retain(|(_, to), _| *to != dev);
        stale.len()
    }

    /// The unacked entry with the earliest retransmission deadline.
    pub fn earliest_due(&self) -> Option<(ChannelKey, u64)> {
        self.unacked
            .iter()
            .min_by_key(|(_, p)| p.deadline)
            .map(|((ch, seq), _)| (*ch, *seq))
    }

    /// The current retransmission deadline of one unacked entry.
    pub fn deadline_of(&self, ch: ChannelKey, seq: u64) -> Option<u64> {
        self.unacked.get(&(ch, seq)).map(|p| p.deadline)
    }

    /// Advances one entry's timer for a retransmission at `now`: bumps
    /// the attempt count and pushes the deadline out by the backed-off
    /// timeout (`rto_ns << attempts`, exponent capped). Returns a clone
    /// of the envelope to resend plus the new attempt count.
    pub fn bump(
        &mut self,
        ch: ChannelKey,
        seq: u64,
        now: u64,
        rto_ns: u64,
        max_backoff_exp: u32,
    ) -> Option<(Envelope, u32)> {
        let p = self.unacked.get_mut(&(ch, seq))?;
        p.attempts += 1;
        let timeout = rto_ns.saturating_mul(1u64 << p.attempts.min(max_backoff_exp));
        p.deadline = now.max(p.deadline).saturating_add(timeout);
        let (env, attempts) = (p.env.clone(), p.attempts);
        self.tel.count(ch.0, "tulkun_reliable_retransmits_total", 1);
        // Event tick is host time (one timeline per trace); the
        // substrate's virtual `now` rides in aux.
        self.tel
            .instant(ch.0, "reliable.retransmit", "reliable", env.trace, now);
        Some((env, attempts))
    }

    /// Number of unacknowledged envelopes.
    pub fn outstanding(&self) -> usize {
        self.unacked.len()
    }

    /// Is every sent envelope acknowledged?
    pub fn is_empty(&self) -> bool {
        self.unacked.is_empty()
    }
}

/// What the receiver ledger decided about one arrival.
#[derive(Debug)]
pub enum Accepted {
    /// New in-order envelopes, released for delivery (the arrival
    /// itself plus any buffered successors it unblocked). Each carries
    /// the virtual time at which it becomes deliverable.
    Ready(Vec<(u64, Envelope)>),
    /// Out-of-order: buffered until the gap fills. Still acked.
    Buffered,
    /// Already seen (retransmission or injected duplicate). Re-acked.
    Duplicate,
}

/// Receiver half: duplicate suppression and in-order release.
#[derive(Debug)]
pub struct ReceiverLedger {
    expected: BTreeMap<ChannelKey, u64>,
    /// Out-of-order arrivals, per channel, keyed by sequence.
    buffered: BTreeMap<ChannelKey, BTreeMap<u64, (u64, Envelope)>>,
    cap: usize,
    tel: Arc<Telemetry>,
}

impl Default for ReceiverLedger {
    fn default() -> Self {
        ReceiverLedger {
            expected: BTreeMap::new(),
            buffered: BTreeMap::new(),
            cap: DEFAULT_CHANNEL_CAP,
            tel: Telemetry::disabled(),
        }
    }
}

impl ReceiverLedger {
    /// A fresh ledger (all channels expect sequence 1).
    pub fn new() -> ReceiverLedger {
        ReceiverLedger::default()
    }

    /// A fresh ledger with a non-default per-channel reorder-buffer cap.
    pub fn with_cap(cap: usize) -> ReceiverLedger {
        assert!(cap > 0, "reorder buffer cap must be positive");
        ReceiverLedger {
            cap,
            ..ReceiverLedger::default()
        }
    }

    /// The per-channel reorder-buffer cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Attaches a telemetry handle recording gap-buffer/dup events.
    pub fn set_telemetry(&mut self, tel: Arc<Telemetry>) {
        self.tel = tel;
    }

    /// Processes one data arrival at virtual time `arrival`.
    ///
    /// Refuses with [`ReliableError::ReorderFull`] when the arrival is
    /// out of order and the channel's gap buffer already holds `cap`
    /// envelopes. The refused envelope is *not* recorded; since it is
    /// also not acked, the sender's retransmission redelivers it once
    /// the gap fills and the buffer drains — backpressure, not loss.
    pub fn accept(&mut self, arrival: u64, env: Envelope) -> Result<Accepted, ReliableError> {
        debug_assert!(env.seq > 0, "data envelopes must be sequenced");
        let ch = (env.from, env.to);
        let expected = self.expected.entry(ch).or_insert(1);
        if env.seq < *expected {
            self.tel.count(env.to, "tulkun_reliable_dups_total", 1);
            return Ok(Accepted::Duplicate);
        }
        if env.seq > *expected {
            let slot = self.buffered.entry(ch).or_default();
            if slot.contains_key(&env.seq) {
                self.tel.count(env.to, "tulkun_reliable_dups_total", 1);
                return Ok(Accepted::Duplicate);
            }
            if slot.len() >= self.cap {
                self.tel
                    .count(env.to, "tulkun_reliable_backpressure_total", 1);
                return Err(ReliableError::ReorderFull { ch, cap: self.cap });
            }
            self.tel
                .count(env.to, "tulkun_reliable_gap_buffered_total", 1);
            self.tel.instant(
                env.to,
                "reliable.gap_buffer",
                "reliable",
                env.trace,
                arrival,
            );
            slot.insert(env.seq, (arrival, env));
            return Ok(Accepted::Buffered);
        }
        // In order: release it plus any directly following buffered
        // envelopes. A released successor becomes deliverable no earlier
        // than the arrival that unblocked it.
        let mut ready = vec![(arrival, env)];
        *expected += 1;
        if let Some(slot) = self.buffered.get_mut(&ch) {
            while let Some((a, e)) = slot.remove(expected) {
                ready.push((a.max(arrival), e));
                *expected += 1;
            }
        }
        Ok(Accepted::Ready(ready))
    }

    /// Envelopes currently buffered out of order.
    pub fn buffered_len(&self) -> usize {
        self.buffered.values().map(BTreeMap::len).sum()
    }

    /// Envelopes buffered out of order on one channel.
    pub fn buffered_on(&self, ch: ChannelKey) -> usize {
        self.buffered.get(&ch).map(BTreeMap::len).unwrap_or(0)
    }

    /// Full channel reset (the receiver side of the epoch fence).
    pub fn reset(&mut self) {
        self.expected.clear();
        self.buffered.clear();
    }

    /// Resets only the channels *into* `dev` (the crash/restart purge):
    /// forgets expected counters and drops gap-buffered arrivals, so
    /// the restarted device's channels restart coherently at sequence 1.
    /// Returns how many buffered envelopes were dropped.
    pub fn reset_channels_into(&mut self, dev: DeviceId) -> usize {
        let dropped = self
            .buffered
            .iter()
            .filter(|((_, to), _)| *to == dev)
            .map(|(_, slot)| slot.len())
            .sum();
        self.expected.retain(|(_, to), _| *to != dev);
        self.buffered.retain(|(_, to), _| *to != dev);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvm::message::Payload;

    fn env(from: u32, to: u32) -> Envelope {
        Envelope::data(DeviceId(from), DeviceId(to), Payload::Ack { of: 0 })
    }

    #[test]
    fn sender_assigns_monotonic_seqs_per_channel() {
        let mut w = SenderWindow::new();
        let mut a = env(1, 2);
        let mut b = env(1, 2);
        let mut c = env(1, 3);
        w.assign(&mut a, 0, 100).unwrap();
        w.assign(&mut b, 0, 100).unwrap();
        w.assign(&mut c, 0, 100).unwrap();
        assert_eq!((a.seq, b.seq, c.seq), (1, 2, 1));
        assert_eq!(w.outstanding(), 3);
        assert!(w.ack((DeviceId(1), DeviceId(2)), 1));
        assert!(!w.ack((DeviceId(1), DeviceId(2)), 1), "double ack");
        assert_eq!(w.outstanding(), 2);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut w = SenderWindow::new();
        let mut a = env(1, 2);
        w.assign(&mut a, 0, 100).unwrap();
        let ch = (DeviceId(1), DeviceId(2));
        assert_eq!(w.earliest_due(), Some((ch, 1)));
        let (_, n1) = w.bump(ch, 1, 100, 100, 3).unwrap();
        assert_eq!(n1, 1);
        // deadline = max(100, 100) + 100<<1 = 300.
        let (_, n2) = w.bump(ch, 1, 300, 100, 3).unwrap();
        assert_eq!(n2, 2);
        // Exponent caps at 3: attempts 5 uses 100<<3.
        for now in [700, 1500, 2300] {
            w.bump(ch, 1, now, 100, 3).unwrap();
        }
        let p = w.unacked.get(&(ch, 1)).unwrap();
        assert_eq!(p.attempts, 5);
        assert_eq!(p.deadline, 2300 + (100 << 3));
        // Unknown entries bump to None.
        assert!(w.bump(ch, 99, 0, 100, 3).is_none());
    }

    #[test]
    fn receiver_releases_in_order_and_suppresses_dups() {
        let mut r = ReceiverLedger::new();
        let mk = |seq: u64| {
            let mut e = env(1, 2);
            e.seq = seq;
            e
        };
        // 2 arrives first: buffered.
        assert!(matches!(r.accept(20, mk(2)), Ok(Accepted::Buffered)));
        assert_eq!(r.buffered_len(), 1);
        // 2 again while buffered: duplicate.
        assert!(matches!(r.accept(21, mk(2)), Ok(Accepted::Duplicate)));
        // 1 arrives: releases 1 then 2, with 2 no earlier than 1's
        // unblocking arrival.
        match r.accept(30, mk(1)) {
            Ok(Accepted::Ready(v)) => {
                assert_eq!(v.len(), 2);
                assert_eq!((v[0].0, v[0].1.seq), (30, 1));
                assert_eq!((v[1].0, v[1].1.seq), (30, 2));
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        // Replays of released seqs are duplicates.
        assert!(matches!(r.accept(40, mk(1)), Ok(Accepted::Duplicate)));
        assert!(matches!(r.accept(40, mk(2)), Ok(Accepted::Duplicate)));
        // The next in-order seq flows straight through.
        assert!(matches!(r.accept(50, mk(3)), Ok(Accepted::Ready(_))));
        assert_eq!(r.buffered_len(), 0);
    }

    #[test]
    fn sender_window_cap_applies_backpressure() {
        let mut w = SenderWindow::with_cap(2);
        let ch = (DeviceId(1), DeviceId(2));
        let mut a = env(1, 2);
        let mut b = env(1, 2);
        w.assign(&mut a, 0, 100).unwrap();
        w.assign(&mut b, 0, 100).unwrap();
        assert_eq!(w.outstanding_on(ch), 2);
        // Third unacked envelope on the same channel: refused, untouched.
        let mut c = env(1, 2);
        assert_eq!(
            w.assign(&mut c, 0, 100),
            Err(ReliableError::WindowFull { ch, cap: 2 })
        );
        assert_eq!(c.seq, 0, "refused envelope must stay unsequenced");
        // Other channels are unaffected by this channel's saturation.
        let mut d = env(1, 3);
        w.assign(&mut d, 0, 100).unwrap();
        assert_eq!(d.seq, 1);
        // An ack frees a slot and the held-back envelope fits again.
        assert!(w.ack(ch, 1));
        w.assign(&mut c, 0, 100).unwrap();
        assert_eq!(c.seq, 3, "seq numbering continues past the refusal");
    }

    #[test]
    fn reorder_buffer_cap_applies_backpressure() {
        let mut r = ReceiverLedger::with_cap(2);
        let ch = (DeviceId(1), DeviceId(2));
        let mk = |seq: u64| {
            let mut e = env(1, 2);
            e.seq = seq;
            e
        };
        // Seqs 3 and 4 gap-buffer (expected is 1); 5 is refused.
        assert!(matches!(r.accept(10, mk(3)), Ok(Accepted::Buffered)));
        assert!(matches!(r.accept(11, mk(4)), Ok(Accepted::Buffered)));
        assert_eq!(
            r.accept(12, mk(5)).unwrap_err(),
            ReliableError::ReorderFull { ch, cap: 2 }
        );
        assert_eq!(r.buffered_on(ch), 2, "refused arrival is not recorded");
        // A buffered duplicate is still reported as Duplicate, not refused.
        assert!(matches!(r.accept(13, mk(3)), Ok(Accepted::Duplicate)));
        // Filling the gap drains the buffer; the refused seq can then be
        // retransmitted and flows straight through.
        match r.accept(20, mk(1)).unwrap() {
            Accepted::Ready(v) => assert_eq!(v.len(), 1),
            other => panic!("expected Ready, got {other:?}"),
        }
        match r.accept(21, mk(2)).unwrap() {
            Accepted::Ready(v) => {
                let seqs: Vec<u64> = v.iter().map(|(_, e)| e.seq).collect();
                assert_eq!(seqs, vec![2, 3, 4]);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        assert!(matches!(r.accept(22, mk(5)), Ok(Accepted::Ready(_))));
        assert_eq!(r.buffered_len(), 0);
    }

    #[test]
    fn channel_reset_restarts_sequences_coherently() {
        let mut w = SenderWindow::new();
        let mut r = ReceiverLedger::new();
        let mut a = env(1, 2);
        let mut b = env(3, 2);
        let mut c = env(1, 3);
        w.assign(&mut a, 0, 100).unwrap();
        w.assign(&mut b, 0, 100).unwrap();
        w.assign(&mut c, 0, 100).unwrap();
        assert!(matches!(r.accept(5, a.clone()), Ok(Accepted::Ready(_))));
        let mut gap = env(1, 2);
        gap.seq = 3;
        assert!(matches!(r.accept(6, gap), Ok(Accepted::Buffered)));
        // Reset everything into device 2: its unacked entries and
        // buffered arrivals vanish, other channels are untouched.
        assert_eq!(w.reset_channels_into(DeviceId(2)), 2);
        assert_eq!(r.reset_channels_into(DeviceId(2)), 1);
        assert_eq!(w.outstanding(), 1, "1->3 survives");
        assert_eq!(r.buffered_len(), 0);
        // Channels into 2 restart at sequence 1 and deliver cleanly.
        let mut a2 = env(1, 2);
        w.assign(&mut a2, 0, 100).unwrap();
        assert_eq!(a2.seq, 1);
        assert!(matches!(r.accept(9, a2), Ok(Accepted::Ready(_))));
        // Full reset clears the remaining channel too.
        w.reset();
        r.reset();
        assert!(w.is_empty());
        let mut c2 = env(1, 3);
        w.assign(&mut c2, 0, 100).unwrap();
        assert_eq!(c2.seq, 1);
    }
}
