//! Fault injection for the management network.
//!
//! The paper's prototype runs DVM over TCP, so its correctness under a
//! lossy management network is inherited from the kernel. This module
//! makes that assumption testable: [`FaultyTransport`] decorates any
//! [`Transport`] with seeded drops, duplicates, reorders and delays
//! (per a [`FaultProfile`]) and pairs the damage with the at-least-once
//! machinery of [`tulkun_core::dvm::reliable`] — sequence numbers,
//! acks, timeout-driven retransmission with exponential backoff, and
//! in-order duplicate-suppressed release at the receiver.
//!
//! The decorated transport still satisfies the [`Transport`] contract
//! the engine's quiescence rule needs: `recv` returns `None` only when
//! nothing is in flight *and* every data envelope has been delivered
//! exactly once and acknowledged. Termination under arbitrary loss
//! rates is guaranteed by `FaultProfile::force_after_attempts`: after
//! that many retransmissions an envelope bypasses the injector, and
//! re-acks prompted by suppressed duplicates always bypass it.
//!
//! An epoch fence wipes all of it — copies in flight, stashes, parked
//! sends, both reliability endpoints — and reports how much there was:
//! zero exactly when the fence lands at quiescence, which is what lets
//! the engine skip the repair wave (see [`Transport::epoch_fence`]).
//!
//! The transport keeps its own clock (`now`: retransmission timers fire
//! no earlier than the latest send or arrival seen), and that clock is
//! **per round, like the engine's**: the driver rewinds every device
//! timeline to t=0 when the exchange reaches quiescence, so `now`
//! rewinds at the same point — where `recv` returns `None`. A clock
//! that only grew would fire every later round's retransmissions at
//! the end of all earlier rounds and make completion times cumulative
//! over the run.
//!
//! Everything is driven by one seeded ChaCha stream, so a run under
//! faults is exactly reproducible — the property the `fault-matrix` CI
//! stage builds on.

use crate::runtime::Transport;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use tulkun_core::dvm::reliable::{Accepted, ChannelKey, ReceiverLedger, SenderWindow};
use tulkun_core::dvm::{Envelope, Payload};
use tulkun_core::fault::{FaultProfile, FaultStats};
use tulkun_netmodel::DeviceId;
use tulkun_telemetry::{JournalKind, Telemetry};

/// A [`Transport`] decorator that injects seeded message faults and
/// recovers from them with at-least-once delivery.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    profile: FaultProfile,
    rng: ChaCha8Rng,
    sender: SenderWindow,
    receiver: ReceiverLedger,
    /// In-order envelopes released by the ledger, awaiting delivery.
    ready: VecDeque<(u64, Envelope)>,
    /// Copies stashed by reorder injection; flushed behind the next
    /// send (or at the next idle point).
    held: Vec<(u64, Envelope)>,
    /// Sends parked by window backpressure, still un-sequenced; they
    /// re-enter the sender window in order as acks free capacity.
    backlog: VecDeque<(DeviceId, Envelope)>,
    stats: FaultStats,
    /// Latest substrate time observed (send or arrival) in this round;
    /// rewinds to 0 at quiescence, with the engine's timelines.
    now: u64,
    /// Current fence generation (updated by `epoch_fence`), stamped
    /// onto journal entries.
    cur_epoch: u64,
    /// Telemetry handle: injected faults are recorded as instant
    /// events (`fault.*`, substrate time in `aux`); disabled by
    /// default.
    tel: Arc<Telemetry>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Decorates `inner` with the faults of `profile`.
    pub fn new(inner: T, profile: FaultProfile) -> FaultyTransport<T> {
        Self::with_telemetry(inner, profile, Telemetry::disabled())
    }

    /// Like [`FaultyTransport::new`], recording injected faults and
    /// reliability-layer events into `tel`.
    pub fn with_telemetry(
        inner: T,
        profile: FaultProfile,
        tel: Arc<Telemetry>,
    ) -> FaultyTransport<T> {
        let mut sender = SenderWindow::new();
        let mut receiver = ReceiverLedger::new();
        sender.set_telemetry(tel.clone());
        receiver.set_telemetry(tel.clone());
        FaultyTransport {
            inner,
            profile,
            rng: ChaCha8Rng::seed_from_u64(profile.seed),
            sender,
            receiver,
            ready: VecDeque::new(),
            held: Vec::new(),
            backlog: VecDeque::new(),
            stats: FaultStats::default(),
            now: 0,
            cur_epoch: 0,
            tel,
        }
    }

    /// Like [`FaultyTransport::new`], with an explicit per-channel cap
    /// on both the retransmission window and the reorder buffer
    /// (exercises backpressure; the default cap is
    /// [`tulkun_core::dvm::reliable::DEFAULT_CHANNEL_CAP`]).
    pub fn with_channel_cap(inner: T, profile: FaultProfile, cap: usize) -> FaultyTransport<T> {
        let mut t = Self::new(inner, profile);
        t.sender = SenderWindow::with_cap(cap);
        t.receiver = ReceiverLedger::with_cap(cap);
        t.sender.set_telemetry(t.tel.clone());
        t.receiver.set_telemetry(t.tel.clone());
        t
    }

    /// The active fault profile.
    pub fn profile(&self) -> FaultProfile {
        self.profile
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Bernoulli roll that consumes no randomness at rate zero, so a
    /// quiet profile leaves the ChaCha stream untouched.
    fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else {
            self.rng.gen_bool(p.min(1.0))
        }
    }

    /// Pushes one (possibly duplicated/delayed/reordered) wire copy of
    /// a sequenced envelope toward the inner transport.
    fn inject_copies(&mut self, from: DeviceId, at: u64, env: &Envelope) {
        let copies = if self.roll(self.profile.dup_rate) {
            self.stats.dups += 1;
            self.fault_event(from, "fault.dup", env.trace, at);
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut t = at;
            if self.roll(self.profile.delay_rate) {
                self.stats.delays += 1;
                t += self.rng.gen_range(0..=self.profile.max_delay_ns);
                self.fault_event(from, "fault.delay", env.trace, t);
            }
            if self.roll(self.profile.reorder_rate) {
                self.stats.reorders += 1;
                self.fault_event(from, "fault.reorder", env.trace, t);
                self.held.push((t, env.clone()));
            } else {
                self.inner.send(from, t, env.clone());
            }
        }
    }

    /// Records one injected fault as an instant event (substrate time
    /// in `aux`) and a flight-recorder entry; a single branch per sink
    /// when telemetry is disabled.
    fn fault_event(&self, dev: DeviceId, name: &'static str, trace: u64, at: u64) {
        self.tel.instant(dev, name, "fault", trace, at);
        self.tel.journal(
            JournalKind::FaultInjected,
            dev,
            self.cur_epoch,
            trace,
            None,
            || name.to_string(),
        );
    }

    /// Emits an ack for `env` back to its sender, subject (unless
    /// `forced`) to the same drop probability as data.
    fn send_ack(&mut self, arrival: u64, env: &Envelope, forced: bool) {
        if !forced && self.roll(self.profile.drop_rate) {
            self.stats.ack_drops += 1;
            self.fault_event(env.to, "fault.ack_drop", env.trace, arrival);
            return;
        }
        let ack = Envelope::data(env.to, env.from, Payload::Ack { of: env.seq });
        self.stats.acks += 1;
        self.stats.ack_bytes += ack.wire_bytes() as u64;
        self.inner.send(env.to, arrival, ack);
    }

    /// Flushes reorder-stashed copies into the inner transport.
    fn flush_held(&mut self) -> bool {
        if self.held.is_empty() {
            return false;
        }
        for (t, env) in std::mem::take(&mut self.held) {
            let from = env.from;
            self.inner.send(from, t, env);
        }
        true
    }

    /// Sequences one envelope into the sender window and exposes it to
    /// the injector (or counts a drop). A full window gives the
    /// (untouched) envelope back for parking.
    fn launch(&mut self, from: DeviceId, at: u64, mut env: Envelope) -> Result<(), Envelope> {
        if self
            .sender
            .assign(&mut env, at, self.profile.rto_ns)
            .is_err()
        {
            return Err(env);
        }
        if self.roll(self.profile.drop_rate) {
            self.stats.drops += 1;
            self.fault_event(from, "fault.drop", env.trace, at);
        } else {
            self.inject_copies(from, at, &env);
        }
        Ok(())
    }

    /// Re-attempts parked sends as window capacity frees up, preserving
    /// per-channel order (a channel that refuses again blocks its later
    /// entries but not other channels').
    fn drain_backlog(&mut self) -> bool {
        if self.backlog.is_empty() {
            return false;
        }
        let mut blocked: BTreeSet<ChannelKey> = BTreeSet::new();
        let pending = std::mem::take(&mut self.backlog);
        let mut launched = false;
        for (from, env) in pending {
            let ch = (env.from, env.to);
            if blocked.contains(&ch) {
                self.backlog.push_back((from, env));
                continue;
            }
            let at = self.now;
            match self.launch(from, at, env) {
                Ok(()) => launched = true,
                Err(env) => {
                    blocked.insert(ch);
                    self.backlog.push_back((from, env));
                }
            }
        }
        launched
    }

    /// Retransmits the unacked envelope whose timer fires next.
    /// Retransmissions keep passing through the injector until the
    /// forcing cap, after which they bypass it — the termination bound.
    fn retransmit_due(&mut self) -> bool {
        let Some((ch, seq)) = self.sender.earliest_due() else {
            return false;
        };
        let fire = self
            .sender
            .deadline_of(ch, seq)
            .unwrap_or(self.now)
            .max(self.now);
        self.now = fire;
        let Some((env, attempts)) = self.sender.bump(
            ch,
            seq,
            fire,
            self.profile.rto_ns,
            self.profile.max_backoff_exp,
        ) else {
            return false;
        };
        self.stats.retransmits += 1;
        self.stats.retransmit_bytes += env.wire_bytes() as u64;
        let from = env.from;
        self.tel.journal(
            JournalKind::Retransmit,
            from,
            self.cur_epoch,
            env.trace,
            None,
            || format!("retransmit #{attempts} d{}->d{}", env.from.0, env.to.0),
        );
        if attempts >= self.profile.force_after_attempts {
            self.stats.forced += 1;
            self.fault_event(from, "fault.forced", env.trace, fire);
            self.inner.send(from, fire, env);
        } else {
            self.inject_copies(from, fire, &env);
        }
        true
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    /// Sequences the envelope, registers it for retransmission, then
    /// exposes it to the injector. A stash from an earlier reorder roll
    /// is flushed *behind* this send, producing a genuine inversion.
    fn send(&mut self, from: DeviceId, at: u64, env: Envelope) {
        self.now = self.now.max(at);
        let stash = std::mem::take(&mut self.held);
        // Per-channel FIFO: if earlier sends on this channel are parked,
        // this one parks behind them instead of jumping the queue.
        let ch = (env.from, env.to);
        let parked_ahead = self.backlog.iter().any(|(_, e)| (e.from, e.to) == ch);
        let refused = if parked_ahead {
            Some(env)
        } else {
            self.launch(from, at, env).err()
        };
        if let Some(env) = refused {
            self.stats.backpressure += 1;
            self.fault_event(from, "fault.backpressure", env.trace, at);
            self.backlog.push_back((from, env));
        }
        for (t, held) in stash {
            let hfrom = held.from;
            self.inner.send(hfrom, t, held);
        }
    }

    /// Delivers the next in-order data envelope; acks, duplicates and
    /// retransmissions are consumed here and never reach the engine.
    /// Returns `None` only at true quiescence: inner transport dry, no
    /// stashed copies, every data envelope acknowledged. That is where
    /// the engine's round ends and its clock rewinds, so ours does too.
    fn recv(&mut self) -> Option<(u64, Envelope)> {
        loop {
            if let Some(ready) = self.ready.pop_front() {
                return Some(ready);
            }
            match self.inner.recv() {
                Some((t, env)) => {
                    self.now = self.now.max(t);
                    if let Payload::Ack { of } = env.payload {
                        // An ack from `env.from` acknowledges data we
                        // sent on the (env.to, env.from) channel.
                        self.sender.ack((env.to, env.from), of);
                        // Freed window capacity re-admits parked sends.
                        self.drain_backlog();
                        continue;
                    }
                    match self.receiver.accept(t, env.clone()) {
                        Ok(Accepted::Ready(released)) => {
                            self.send_ack(t, &env, false);
                            self.ready.extend(released);
                        }
                        Ok(Accepted::Buffered) => {
                            self.send_ack(t, &env, false);
                        }
                        Ok(Accepted::Duplicate) => {
                            // The sender is retransmitting: our ack was
                            // lost. Re-ack reliably so it can stop.
                            self.stats.dup_suppressed += 1;
                            self.send_ack(t, &env, true);
                        }
                        Err(_) => {
                            // Reorder buffer at cap: refuse *without*
                            // acking — backpressure, not loss. The
                            // sender's retransmission redelivers once
                            // the gap fills and the buffer drains.
                            self.stats.backpressure += 1;
                            self.fault_event(env.to, "fault.backpressure", env.trace, t);
                        }
                    }
                }
                None => {
                    if self.flush_held() {
                        continue;
                    }
                    if self.drain_backlog() {
                        continue;
                    }
                    if self.retransmit_due() {
                        continue;
                    }
                    debug_assert!(self.sender.is_empty(), "quiescent with unacked data");
                    debug_assert!(self.backlog.is_empty(), "quiescent with parked sends");
                    self.now = 0;
                    return None;
                }
            }
        }
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(self.stats)
    }

    /// A topology-epoch bump supersedes *everything* in flight: data,
    /// duplicates, delayed copies, stashed reorders, parked sends and
    /// acks alike are dropped, and both reliability endpoints restart
    /// (sequences from 1, empty windows). Coherent because the engine
    /// fences before any new-epoch send. The return counts every copy
    /// dropped plus every unacknowledged send; at quiescence (`recv`
    /// returned `None`) all of these are empty, so a quiet fence
    /// reports zero and the engine skips the repair wave, while any
    /// loss makes re-announcement repair the state the dropped
    /// messages carried.
    fn epoch_fence(&mut self, epoch: u64) -> usize {
        self.cur_epoch = epoch;
        let dropped =
            self.ready.len() + self.held.len() + self.backlog.len() + self.sender.outstanding();
        self.ready.clear();
        self.held.clear();
        self.backlog.clear();
        self.sender.reset();
        self.receiver.reset();
        dropped + self.inner.epoch_fence(epoch)
    }

    /// Clears every pending envelope addressed to a crash-restarted
    /// device — released-but-undelivered, reorder-stashed, parked and
    /// in-flight copies (including delayed duplicates) — plus stale
    /// acks it originated, and restarts the reliability channels into
    /// it. Neighbor replays rebuild the dropped content; without this
    /// purge a delayed pre-crash copy could land on the fresh state.
    fn purge_for_restart(&mut self, dev: DeviceId) {
        self.ready.retain(|(_, e)| e.to != dev);
        self.held.retain(|(_, e)| e.to != dev);
        self.backlog.retain(|(_, e)| e.to != dev);
        self.inner.purge_for_restart(dev);
        self.sender.reset_channels_into(dev);
        self.receiver.reset_channels_into(dev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{FifoTransport, LatencyTransport};
    use tulkun_core::dpvnet::NodeId;
    use tulkun_core::dvm::EdgeRef;
    use tulkun_netmodel::Topology;

    fn data(from: u32, to: u32) -> Envelope {
        let m = tulkun_bdd::BddManager::new(1);
        Envelope::data(
            DeviceId(from),
            DeviceId(to),
            Payload::Subscribe {
                edge: EdgeRef {
                    up: NodeId(0),
                    down: NodeId(1),
                },
                space: tulkun_bdd::serial::export(&m, m.verum()),
            },
        )
    }

    /// Drains every deliverable envelope, asserting termination.
    fn drain<T: Transport>(t: &mut FaultyTransport<T>) -> Vec<Envelope> {
        let mut out = Vec::new();
        for _ in 0..100_000 {
            match t.recv() {
                Some((_, env)) => out.push(env),
                None => return out,
            }
        }
        panic!("transport did not quiesce");
    }

    #[test]
    fn quiet_profile_is_transparent_fifo() {
        let mut t = FaultyTransport::new(FifoTransport::default(), FaultProfile::none(1));
        for _ in 0..5 {
            t.send(DeviceId(1), 0, data(1, 2));
        }
        let got = drain(&mut t);
        assert_eq!(got.len(), 5);
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        let st = t.stats();
        assert_eq!(st.drops + st.dups + st.reorders + st.delays, 0);
        assert_eq!(st.retransmits, 0);
    }

    #[test]
    fn heavy_loss_still_delivers_everything_in_order() {
        let mut t = FaultyTransport::new(FifoTransport::default(), FaultProfile::loss(42, 0.5));
        let n = 200;
        for _ in 0..n {
            t.send(DeviceId(1), 0, data(1, 2));
        }
        let got = drain(&mut t);
        assert_eq!(got.len(), n);
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (1..=n as u64).collect::<Vec<_>>()
        );
        let st = t.stats();
        assert!(st.drops > 0, "50% loss must drop something");
        assert!(st.retransmits >= st.drops, "every drop needs a retransmit");
        assert!(t.fault_stats().is_some());
    }

    #[test]
    fn chaos_profile_delivers_exactly_once_per_channel_in_order() {
        let mut t = FaultyTransport::new(FifoTransport::default(), FaultProfile::chaos(7));
        let n = 100;
        for i in 0..n {
            t.send(DeviceId(1), i, data(1, 2));
            t.send(DeviceId(3), i, data(3, 2));
        }
        let got = drain(&mut t);
        assert_eq!(got.len(), 2 * n as usize);
        for from in [1u32, 3] {
            let seqs: Vec<u64> = got
                .iter()
                .filter(|e| e.from == DeviceId(from))
                .map(|e| e.seq)
                .collect();
            assert_eq!(seqs, (1..=n).collect::<Vec<_>>(), "channel {from} order");
        }
        let st = t.stats();
        assert!(st.dups + st.reorders + st.delays > 0, "chaos must act");
    }

    #[test]
    fn window_cap_parks_sends_then_releases_in_order() {
        let mut t =
            FaultyTransport::with_channel_cap(FifoTransport::default(), FaultProfile::none(1), 2);
        for _ in 0..5 {
            t.send(DeviceId(1), 0, data(1, 2));
        }
        // Only the window's worth launched; the rest parked under
        // backpressure rather than being dropped or panicking.
        assert!(t.stats().backpressure >= 3, "3 of 5 sends must park");
        let got = drain(&mut t);
        assert_eq!(got.len(), 5, "parked sends drain as acks free capacity");
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5],
            "backlog preserves per-channel order"
        );
    }

    /// Regression (crash-restart purge): a profile that duplicates and
    /// delays every envelope stashes copies addressed to a device; a
    /// crash-restart of that device must clear them all, or a delayed
    /// pre-crash copy lands on the rebooted (re-sequenced) state.
    #[test]
    fn crash_restart_purges_delayed_and_duplicated_envelopes() {
        let profile = FaultProfile {
            seed: 5,
            dup_rate: 1.0,
            delay_rate: 1.0,
            max_delay_ns: 1_000_000,
            ..FaultProfile::none(5)
        };
        let mut t = FaultyTransport::new(FifoTransport::default(), profile);
        for _ in 0..4 {
            t.send(DeviceId(1), 0, data(1, 2));
        }
        t.purge_for_restart(DeviceId(2));
        let got = drain(&mut t);
        assert!(
            got.is_empty(),
            "no pre-crash envelope may survive the purge, got {got:?}"
        );
        // The reliability channel into the rebooted device restarted:
        // a fresh send gets seq 1 and is accepted, not treated as a
        // stale duplicate of the purged stream.
        t.send(DeviceId(1), 0, data(1, 2));
        let got = drain(&mut t);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 1, "channel into rebooted device restarts");
    }

    #[test]
    fn epoch_fence_drops_all_inflight_state() {
        let mut t = FaultyTransport::new(FifoTransport::default(), FaultProfile::chaos(11));
        for _ in 0..20 {
            t.send(DeviceId(1), 0, data(1, 2));
            t.send(DeviceId(3), 0, data(3, 2));
        }
        assert!(t.epoch_fence(1) >= 40, "every unacked send counts as lost");
        let got = drain(&mut t);
        assert!(got.is_empty(), "fence must drop every in-flight envelope");
        t.send(DeviceId(1), 0, data(1, 2));
        let got = drain(&mut t);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 1, "channels restart after the fence");
        assert_eq!(t.epoch_fence(2), 0, "a quiescent fence loses nothing");
    }

    /// The transport's clock is per round: after a round that ended
    /// late, a retransmission of the next round fires one timeout after
    /// its own send, not at the old round's end.
    #[test]
    fn a_quiescent_round_rewinds_the_retransmission_clock() {
        // Every first copy (and every first ack) is lost; the first
        // retransmission bypasses the injector.
        let profile = FaultProfile {
            force_after_attempts: 1,
            ..FaultProfile::loss(3, 1.0)
        };
        // Three unlinked devices: every hop costs the fallback latency.
        let hop = 10;
        let mut topo = Topology::new();
        for name in ["x", "y", "z"] {
            topo.add_device(name);
        }
        let links = LatencyTransport::new(topo, hop);
        let mut t = FaultyTransport::new(links, profile);
        let late = 50 * profile.rto_ns;
        t.send(DeviceId(1), late, data(1, 2));
        let (arrival, _) = t.recv().expect("the retransmission delivers");
        assert_eq!(arrival, late + profile.rto_ns + hop);
        assert!(t.recv().is_none(), "round one quiesces");
        t.send(DeviceId(1), 0, data(1, 2));
        let (arrival, env) = t.recv().expect("the retransmission delivers");
        assert_eq!(env.seq, 2);
        assert_eq!(
            arrival,
            profile.rto_ns + hop,
            "timers restart with the round"
        );
        assert!(t.recv().is_none());
        assert_eq!(t.stats().drops, 2);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let mut t = FaultyTransport::new(FifoTransport::default(), FaultProfile::chaos(seed));
            for i in 0..50 {
                t.send(DeviceId(1), i, data(1, 2));
            }
            drain(&mut t);
            let s = t.stats();
            (s.drops, s.dups, s.reorders, s.delays, s.retransmits)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should diverge");
    }
}
