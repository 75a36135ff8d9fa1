//! The shared device-runtime layer.
//!
//! The paper's core claim is that the *same* on-device verifier code
//! runs everywhere — testbed switches, simulation, emulation (§8–9).
//! This module is the repro's embodiment of that claim: the event
//! lifecycle — stage a FIB batch, crash/restart an agent, deliver an
//! epoch fence, assemble a [`Report`] — is written once, in
//! [`Runtime`]. A runtime changes only through
//! [`Substrate::apply_event`], over the whole [`RuntimeEvent`]
//! alphabet; [`Runtime::stage_event`] and [`Runtime::stage_batch`]
//! enqueue without driving, and [`Runtime::run_to_quiescence`] drives.
//! The lifecycle is written over the only thing two substrates differ
//! in: a [`Fabric`], which hosts the verifiers, runs an injected operation
//! on one device, moves the envelopes it emits, and says when the
//! exchange is quiescent. Both host one verifier per topology device,
//! built at construction by one `build_verifiers` call. A verifier is
//! the runtime's only copy of its device's FIB and LEC table: one that
//! hosts no node still folds every FIB batch, so the fence that first
//! tasks it, or a backend move, finds its data plane current.
//!
//! * [`Engine`] is the runtime over the single-driver, virtual-time
//!   fabric ([`Driver`]): one pull loop owns every verifier, a boxed
//!   [`Transport`] decides *when and in what order* envelopes arrive
//!   ([`LatencyTransport`] replays link latencies through a
//!   virtual-time heap, `FaultyTransport` decorates it with seeded
//!   loss, [`FifoTransport`] is the in-order fake tests substitute),
//!   and a [`VirtualClock`] charges measured host CPU time, scaled by a
//!   [`SwitchModel`], to per-device timelines. A clean and a lossy
//!   engine are the same type built by two constructors
//!   ([`Engine::new`], [`Engine::lossy`]).
//! * [`ThreadedEngine`] is the runtime over the thread-per-device
//!   fabric ([`Threads`]) — the deployment shape of the paper's
//!   prototype. It shares the constructor (`Recipe::build`), the
//!   device step (`step`: run one envelope or injected op, time it,
//!   record its span, book its stats and each envelope it sent), the
//!   quiescence rule (an in-flight gauge: a message's outputs are
//!   counted before its own count is released) and [`RuntimeStats`].
//!   A step that panics kills its device, not the run: the dead device
//!   keeps releasing what reaches it, its nodes read `Stale`, and
//!   [`ThreadedEngine::shutdown`] returns the panic.
//!
//! `Transport` is a trait because its implementations are real
//! alternatives (and `FaultyTransport` is unit-tested over the FIFO
//! fake); the clock is not, because every engine charges virtual time.
//!
//! Epoch fences cost what they change. [`Fabric::fence`] returns what
//! it dropped ([`Transport::epoch_fence`], or the in-flight gauge);
//! only a non-zero answer makes the devices run the repair wave
//! (`ControlPlane::seal`). A fence on a quiescent exchange delivers the
//! changed tasks and nothing else.
//!
//! Every substrate reports through one [`RuntimeStats`] so the Fig. 14
//! (init overhead), Fig. 15 (message overhead) and ablation harnesses
//! read a single API regardless of how the verifiers were driven.
//!
//! Adding a new backend (real TCP, sharded partitions) means writing a
//! `Transport` impl — roughly a hundred lines — not another copy of
//! the lifecycle.

use crate::faults::FaultyTransport;
use crate::models::SwitchModel;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tulkun_bdd::HeaderLayout;
use tulkun_core::control::{ControlPlane, Decision, DeviceFence, FencePlan};
use tulkun_core::dpvnet::NodeId;
use tulkun_core::dvm::{DeviceVerifier, Envelope, NodeResult, Payload, VerifierConfig};
use tulkun_core::event::{EventOutcome, RuntimeEvent, Substrate};
use tulkun_core::explain::{self, Explanation, Subject};
use tulkun_core::fault::{FaultProfile, FaultStats};
use tulkun_core::intent::{IntentId, IntentStore};
use tulkun_core::planner::{CountingPlan, PlanError};
use tulkun_core::spec::PacketSpace;
use tulkun_core::verify::{self, Freshness, Report, Verdicts, Violation};
use tulkun_netmodel::fib::Fib;
use tulkun_netmodel::network::{coalesce, Network, RuleUpdate};
use tulkun_netmodel::{DeviceId, Topology};
use tulkun_predicate::{network_ip_only, BackendKind};
use tulkun_telemetry::{
    Histogram, JournalKind, Layer, Telemetry, DVM_ACK, DVM_SUBSCRIBE, DVM_UPDATE, FENCE_PLAN,
    INIT_BUILD, INJECT,
};

/// The value behind a lock, poisoned or not. Every lock and condvar in
/// this module goes through here: a poisoned lock means a device thread
/// panicked while holding it, which [`ThreadedEngine::shutdown`]
/// already reports as a [`DevicePanic`], so the data is read on rather
/// than turned into a second panic on the coordinator. That is sound
/// because every update made under these locks is one map operation
/// (or none: the gauge's lock guards `()`), so the data is whole at
/// whatever step a holder panicked.
fn unpoisoned<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Per-device counters for the §9.4 overhead figures.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Scaled CPU time spent initializing (LEC + initial counting).
    pub init_ns: u64,
    /// Scaled CPU time spent processing DVM messages.
    pub busy_ns: u64,
    /// DVM messages handled.
    pub messages: u64,
    /// Wire bytes of every envelope the device sent: what its
    /// construction and each of its steps (a handled message or an
    /// injected operation) emitted.
    pub bytes_sent: u64,
    /// Backend memory units allocated (BDD nodes, stored intervals or
    /// atom-list entries, depending on the predicate backend).
    pub bdd_nodes: usize,
    /// Scaled per-message processing time (ns), one observation per
    /// DVM message, booked by the device step on either fabric.
    pub msg_ns: Histogram,
}

impl DeviceStats {
    fn absorb_message(&mut self, cpu_ns: u64, bdd_nodes: usize) {
        self.busy_ns += cpu_ns;
        self.messages += 1;
        self.msg_ns.observe(cpu_ns);
        self.bdd_nodes = bdd_nodes;
    }

    /// Books `out`, what the device just sent, and returns its wire
    /// bytes: the one place an envelope is counted.
    fn book_sent(&mut self, out: &[Envelope]) -> u64 {
        let bytes = out.iter().map(|env| env.wire_bytes() as u64).sum();
        self.bytes_sent += bytes;
        bytes
    }
}

/// The single observability surface of the runtime layer: every
/// substrate fills one of these, and every harness (Fig. 14, Fig. 15,
/// the ablation bench) reads it the same way.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Per-device overhead counters.
    pub per_device: BTreeMap<DeviceId, DeviceStats>,
    /// Reliability-layer counters (drops, retransmits, acks, …) when the
    /// run used a fault-injecting transport; all-zero otherwise.
    pub fault: FaultStats,
    /// Device crash/restart events recovered without aborting the run.
    pub crashes_recovered: u64,
}

impl RuntimeStats {
    /// DVM messages handled, across every device.
    pub fn messages(&self) -> u64 {
        self.per_device.values().map(|st| st.messages).sum()
    }

    /// Wire bytes sent, across every device.
    pub fn bytes(&self) -> u64 {
        self.per_device.values().map(|st| st.bytes_sent).sum()
    }

    /// Scaled per-message processing time across every device (the
    /// Fig. 15 distribution): quantiles within 3.2 %, count and max
    /// exact.
    pub fn msg_ns(&self) -> Histogram {
        let mut all = Histogram::default();
        for st in self.per_device.values() {
            all.merge(&st.msg_ns);
        }
        all
    }

    fn merge_device(&mut self, dev: DeviceId, st: DeviceStats) {
        let e = self.per_device.entry(dev).or_default();
        e.init_ns += st.init_ns;
        e.busy_ns += st.busy_ns;
        e.messages += st.messages;
        e.bytes_sent += st.bytes_sent;
        e.bdd_nodes = st.bdd_nodes;
        e.msg_ns.merge(&st.msg_ns);
    }
}

/// The timeline slice one message occupied on its device.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// When processing started (arrival, or later if the device was
    /// busy).
    pub begin: u64,
    /// Charged (scaled) CPU time.
    pub cpu_ns: u64,
    /// `begin + cpu_ns`.
    pub finish: u64,
}

/// The event-simulator clock: each device is a sequential processor; a
/// message arriving at `t` starts at `max(t, device_free)` and runs for
/// its *measured* host CPU time scaled by the switch model (§9.3.1).
#[derive(Debug, Clone)]
pub struct VirtualClock {
    /// The switch model whose CPU factor scales measured host time.
    pub model: SwitchModel,
    free_at: BTreeMap<DeviceId, u64>,
}

impl VirtualClock {
    /// A virtual clock for one switch model.
    pub fn new(model: SwitchModel) -> VirtualClock {
        VirtualClock {
            model,
            free_at: BTreeMap::new(),
        }
    }

    /// Charges `host_ns` of measured work to `dev` for a message that
    /// arrived at `arrival`; returns the occupied span.
    pub fn charge(&mut self, dev: DeviceId, arrival: u64, host_ns: u64) -> Span {
        let begin = arrival.max(self.free_at.get(&dev).copied().unwrap_or(0));
        let cpu_ns = self.model.scale_ns(host_ns);
        let finish = begin + cpu_ns;
        self.free_at.insert(dev, finish);
        Span {
            begin,
            cpu_ns,
            finish,
        }
    }

    /// Resets all per-device timelines to zero (per-round relative
    /// timing, as the incremental harnesses need).
    pub fn reset(&mut self) {
        for t in self.free_at.values_mut() {
            *t = 0;
        }
    }

    /// Marks a device busy until `t` without charging CPU (used when
    /// init cost is accounted outside the message loop).
    pub fn set_free_at(&mut self, dev: DeviceId, t: u64) {
        self.free_at.insert(dev, t);
    }
}

/// The centralized-collection clock (§9.3.1): data planes travel to a
/// verifier device over lowest-latency paths, plus serialization time
/// through the verifier's management uplink. The central baseline
/// substrate is this clock plus a measured compute phase — it has no
/// transport because nothing is distributed.
#[derive(Debug, Clone)]
pub struct CollectionClock {
    /// Lowest-latency distance from every device to the verifier
    /// location (`u64::MAX` = unreachable).
    dist: Vec<u64>,
    /// Management-network bandwidth into the verifier, bits/second.
    pub mgmt_bandwidth_bps: u64,
}

impl CollectionClock {
    /// Precomputes lowest-latency paths to `verifier_loc`.
    pub fn new(topo: &Topology, verifier_loc: DeviceId, mgmt_bandwidth_bps: u64) -> Self {
        CollectionClock {
            dist: topo.dijkstra_latency(verifier_loc, &[]),
            mgmt_bandwidth_bps,
        }
    }

    /// Latency for every device to ship `total_bytes` of data plane to
    /// the verifier: the slowest reachable device's propagation delay
    /// plus the serialization time of all bytes through the uplink.
    pub fn collect_all(&self, total_bytes: u64) -> u64 {
        let prop = self
            .dist
            .iter()
            .filter(|&&d| d != u64::MAX)
            .max()
            .copied()
            .unwrap_or(0);
        prop + total_bytes * 8 * 1_000_000_000 / self.mgmt_bandwidth_bps
    }

    /// Latency for one device's update to reach the verifier.
    pub fn collect_from(&self, dev: DeviceId) -> u64 {
        match self.dist.get(dev.idx()).copied().unwrap_or(u64::MAX) {
            u64::MAX => 0,
            d => d,
        }
    }
}

/// Measures one closure's host CPU time in nanoseconds.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let wall = Instant::now();
    let out = f();
    (out, wall.elapsed().as_nanos() as u64)
}

/// Decides when and in what order envelopes are delivered.
pub trait Transport {
    /// Accepts an envelope sent by `from` at (substrate) time `at`.
    fn send(&mut self, from: DeviceId, at: u64, env: Envelope);
    /// The next envelope to deliver, with its arrival time, or `None`
    /// when no message is in flight (quiescence).
    fn recv(&mut self) -> Option<(u64, Envelope)>;
    /// Reliability-layer counters, for transports that inject faults
    /// (see `FaultyTransport` in the sim crate). Perfect transports
    /// report `None`.
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }
    /// Epoch fence: the topology generation bumped, so every in-flight
    /// envelope (data *and* acks) is superseded — drop them all, reset
    /// any reliability state, and return how many were dropped. Called
    /// by the engine *before* any new-epoch send, so the wipe is
    /// coherent; a non-zero return is what makes the engine run the
    /// repair wave (re-announcement under the new epoch repairs exactly
    /// the state the dropped messages carried), zero means the fence
    /// landed on a quiescent exchange and lost nothing.
    fn epoch_fence(&mut self, _epoch: u64) -> usize {
        0
    }
    /// A device's verification agent crashed and restarted: drop every
    /// pending envelope addressed to it (delayed/duplicated copies must
    /// not land on the fresh state) plus any stale acks it originated,
    /// and restart reliability channels into it (neighbor replays rebuild
    /// the content).
    fn purge_for_restart(&mut self, _dev: DeviceId) {}
}

/// Delivery through the topology's links: each envelope arrives after
/// its link's propagation latency, and the earliest arrival is
/// delivered first (a virtual-time event heap). A link is an in-order
/// channel: a later send never overtakes an earlier one on the same
/// directed link, even when the engine rewinds its clock for a new
/// round while a staged wave is still in flight.
///
/// The transport keeps the base topology through churn: an envelope
/// only travels a link the live topology has (the fence drops
/// old-epoch traffic, and new-epoch tasks follow live links), and
/// churn only removes base links, so the base's latencies are the live
/// ones.
pub struct LatencyTransport {
    topo: Topology,
    /// Latency used when two communicating devices share no direct
    /// link (only possible for virtual constructions).
    fallback_latency_ns: u64,
    queue: BinaryHeap<Reverse<(u64, u64, EnvelopeOrd)>>,
    seq: u64,
    /// Latest arrival scheduled per directed link among the envelopes
    /// in flight (emptied whenever the queue runs dry).
    last_arrival: BTreeMap<(DeviceId, DeviceId), u64>,
}

impl LatencyTransport {
    /// A transport over one topology snapshot.
    pub fn new(topo: Topology, fallback_latency_ns: u64) -> LatencyTransport {
        LatencyTransport {
            topo,
            fallback_latency_ns,
            queue: BinaryHeap::new(),
            seq: 0,
            last_arrival: BTreeMap::new(),
        }
    }

    fn latency(&self, a: DeviceId, b: DeviceId) -> u64 {
        if a == b {
            return 0;
        }
        match self.topo.link_between(a, b) {
            Some(l) => self.topo.link(l).latency_ns,
            None => self.fallback_latency_ns,
        }
    }
}

impl Transport for LatencyTransport {
    fn send(&mut self, from: DeviceId, at: u64, env: Envelope) {
        let due = at + self.latency(from, env.to);
        let last = self.last_arrival.entry((from, env.to)).or_default();
        let arrival = due.max(*last);
        *last = arrival;
        self.seq += 1;
        self.queue
            .push(Reverse((arrival, self.seq, EnvelopeOrd(env))));
    }

    fn recv(&mut self) -> Option<(u64, Envelope)> {
        let next = self.queue.pop();
        if next.is_none() {
            self.last_arrival.clear();
        }
        next.map(|Reverse((arrival, _, EnvelopeOrd(env)))| (arrival, env))
    }

    fn epoch_fence(&mut self, _epoch: u64) -> usize {
        let dropped = self.queue.len();
        self.queue.clear();
        self.last_arrival.clear();
        dropped
    }

    fn purge_for_restart(&mut self, dev: DeviceId) {
        let kept: Vec<_> = self
            .queue
            .drain()
            .filter(|Reverse((_, _, EnvelopeOrd(env)))| !purged_by_restart(env, dev))
            .collect();
        self.queue = kept.into_iter().collect();
    }
}

/// Is this in-flight envelope invalidated by `dev` crash-restarting?
/// Anything addressed to the restarted device, plus any ack it sent
/// before dying (a stale ack could acknowledge a fresh post-restart
/// sequence number after the channel reset).
fn purged_by_restart(env: &Envelope, dev: DeviceId) -> bool {
    env.to == dev || (matches!(env.payload, Payload::Ack { .. }) && env.from == dev)
}

/// Instant in-order delivery: the synchronous reference semantics
/// (zero latency, FIFO), and the natural transport for communication-
/// free local plans.
#[derive(Debug, Default)]
pub struct FifoTransport {
    queue: VecDeque<Envelope>,
}

impl Transport for FifoTransport {
    fn send(&mut self, _from: DeviceId, _at: u64, env: Envelope) {
        self.queue.push_back(env);
    }

    fn recv(&mut self) -> Option<(u64, Envelope)> {
        self.queue.pop_front().map(|env| (0, env))
    }

    fn epoch_fence(&mut self, _epoch: u64) -> usize {
        let dropped = self.queue.len();
        self.queue.clear();
        dropped
    }

    fn purge_for_restart(&mut self, dev: DeviceId) {
        self.queue.retain(|env| !purged_by_restart(env, dev));
    }
}

/// Envelope wrapper ordered by heap sequence only (`BinaryHeap` needs
/// `Ord`; envelopes themselves are not ordered).
struct EnvelopeOrd(Envelope);

impl PartialEq for EnvelopeOrd {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for EnvelopeOrd {}
impl PartialOrd for EnvelopeOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EnvelopeOrd {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// Engine construction options shared by every substrate.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Switch model whose CPU factor scales measured host time.
    pub model: SwitchModel,
    /// Telemetry handle shared by the engine, its verifiers and (for
    /// fault substrates) the transport. Defaults to the disabled
    /// handle, under which every record call is a single branch — no
    /// locks on the disabled path.
    pub telemetry: Arc<Telemetry>,
    /// Predicate backend every verifier runs on. Engine construction
    /// panics if the network is outside its capabilities (interval
    /// backends require a destination-prefix-only workload); callers
    /// that take the kind from outside the program run
    /// [`BackendKind::check`] themselves first.
    pub backend: BackendKind,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            model: SwitchModel::MELLANOX,
            telemetry: Telemetry::disabled(),
            backend: BackendKind::Bdd,
        }
    }
}

/// Latency the engines' [`LatencyTransport`] charges when two
/// communicating devices share no direct link.
const FALLBACK_LATENCY_NS: u64 = 10_000;

/// Causal trace id of the initial burst wave (every later internal
/// event allocates a fresh id starting at [`FIRST_EVENT_TRACE`]).
const INIT_TRACE: u64 = 1;
/// First trace id handed to post-burst events.
const FIRST_EVENT_TRACE: u64 = 2;

/// The timed layer of one handled DVM envelope, by payload kind.
fn dvm_layer(payload: &Payload) -> &'static Layer {
    match payload {
        Payload::Update { .. } => &DVM_UPDATE,
        Payload::Subscribe { .. } => &DVM_SUBSCRIBE,
        Payload::Ack { .. } => &DVM_ACK,
    }
}

/// Everything building a verifier takes but the device, its share of
/// the nodes and the FIB it reads: one per engine, shared by the builds
/// at construction and the rebuilds of a backend move.
struct Recipe {
    layout: HeaderLayout,
    vcfg: VerifierConfig,
    /// Every verifier of one run uses the same encoding (wire bytes
    /// are backend-neutral, so this is a pure performance choice).
    kind: BackendKind,
    tel: Arc<Telemetry>,
}

impl Recipe {
    fn new(net: &Network, plan: &CountingPlan, cfg: &EngineConfig) -> Recipe {
        // The contract `EngineConfig::backend` documents: callers holding
        // outside input run `BackendKind::check` first. The daemon
        // (`DaemonSession`) never reaches the panic below: it picks the backend
        // the network and base packet space fit, and later moves only to
        // `bdd`, which holds everything (`Engine::rehost`).
        let kind = cfg.backend.check(network_ip_only(net));
        Recipe {
            layout: net.layout,
            vcfg: VerifierConfig::of(plan),
            kind: kind.unwrap_or_else(|e| panic!("{e}")),
            tel: cfg.telemetry.clone(),
        }
    }

    /// Builds `dev`'s verifier over `fib` and has it apply `share` at
    /// `epoch` under the causal `trace`: the one constructor. `share`
    /// is the device's part of [`ControlPlane::hosted`], so a new
    /// verifier counts what the control plane has its device host.
    /// Times the build (LEC table + initial counting) as the
    /// `init.build` layer and returns the verifier, what it sent and
    /// the host ns both took.
    fn build(
        &self,
        dev: DeviceId,
        fib: Fib,
        share: DeviceFence,
        (epoch, trace): (u64, u64),
    ) -> (DeviceVerifier, Vec<Envelope>, u64) {
        let tel = &self.tel;
        let start = Instant::now();
        let (v, out) = tel.timed(dev, &INIT_BUILD, trace, 0, || {
            let mut v =
                DeviceVerifier::new(dev, self.layout, fib, self.vcfg, self.kind, tel.clone());
            let mut out = Vec::new();
            v.apply_fence(epoch, trace, share, &mut out);
            (v, out)
        });
        (v, out, start.elapsed().as_nanos() as u64)
    }
}

/// One constructed device verifier with its init byproducts.
struct BuiltVerifier {
    dev: DeviceId,
    verifier: DeviceVerifier,
    init_out: Vec<Envelope>,
    /// The build booked: scaled init time, backend memory and what
    /// `init_out` puts on the wire.
    stats: DeviceStats,
}

/// Builds the verifier of every topology device — the roster of both
/// fabrics — in device order, with its share of `hosted`
/// ([`ControlPlane::hosted`] at epoch 0), timing each construction
/// (LEC build + initial counting) as init cost; the whole initial burst
/// is one causal wave.
fn build_verifiers(
    net: &Network,
    mut hosted: BTreeMap<DeviceId, DeviceFence>,
    recipe: &Recipe,
    model: SwitchModel,
) -> Vec<BuiltVerifier> {
    let build_one = |dev: DeviceId| {
        let (share, fib) = (
            hosted.remove(&dev).unwrap_or_default(),
            net.fib(dev).clone(),
        );
        let init = (0, INIT_TRACE);
        let (verifier, init_out, host_ns) = recipe.build(dev, fib, share, init);
        let mut stats = DeviceStats {
            init_ns: model.scale_ns(host_ns),
            bdd_nodes: verifier.mem_units(),
            ..DeviceStats::default()
        };
        stats.book_sent(&init_out);
        BuiltVerifier {
            dev,
            verifier,
            init_out,
            stats,
        }
    };
    net.topology.devices().map(build_one).collect()
}

/// A verifier operation the lifecycle injects from outside the DVM
/// exchange: a coalesced FIB batch, a replay toward a restarted peer,
/// or a device's share of an epoch fence (a restart included).
type Injected = Box<dyn FnOnce(&mut DeviceVerifier, &mut Vec<Envelope>) + Send>;

/// One input to a device's verifier.
enum Input {
    /// A DVM envelope from a peer.
    Dvm(Envelope),
    /// An injected operation under the causal trace id of the wave it
    /// starts.
    Op(u64, Injected),
}

/// Runs one input on a device's verifier: the one device step both
/// fabrics take. Sets the trace (an envelope carries its own), times
/// the work, has `charge` turn the host time into the span the device
/// was busy for, records it as the input's layer — an envelope feeds
/// `HANDLE_NS` its charged time, an injected op `INJECT` its host time
/// — and books it and everything it sent on `stats`. Returns the span,
/// what the verifier emitted and its wire bytes; moving it is the
/// caller's.
fn step(
    v: &mut DeviceVerifier,
    input: Input,
    tel: &Telemetry,
    stats: &mut DeviceStats,
    charge: impl FnOnce(u64) -> Span,
) -> (Span, Vec<Envelope>, u64) {
    let begin = tel.start();
    let wall = Instant::now();
    let mut out = Vec::new();
    let (layer, trace, envelope) = match input {
        Input::Dvm(env) => {
            v.handle(&env, &mut out);
            (dvm_layer(&env.payload), env.trace, true)
        }
        Input::Op(trace, op) => {
            v.set_trace(trace);
            op(v, &mut out);
            (&INJECT, trace, false)
        }
    };
    let span = charge(wall.elapsed().as_nanos() as u64);
    let dev = v.device();
    // Host-tick timeline; the device's virtual begin time rides in aux
    // for offline re-keying.
    let charged = envelope.then_some(span.cpu_ns);
    tel.finish(dev, layer, trace, span.begin, begin, charged);
    if envelope {
        stats.absorb_message(span.cpu_ns, v.mem_units());
    } else {
        stats.busy_ns += span.cpu_ns;
    }
    let bytes = stats.book_sent(&out);
    (span, out, bytes)
}

/// What the two substrates differ in: which devices host a verifier,
/// how an input reaches one, how the envelopes it emits travel, and
/// when the exchange is quiescent. Everything else is [`Runtime`].
pub trait Fabric {
    /// Runs `op` on `dev`'s verifier at the start of the round under
    /// the causal `trace` id, books its cost and sends what it emitted.
    /// An id outside the topology names no verifier and is skipped.
    fn inject(&mut self, dev: DeviceId, trace: u64, op: Injected);
    /// Epoch fence: supersedes everything in flight *before* any
    /// new-epoch send and returns how many envelopes were dropped (or
    /// may still land on old-epoch state) — what decides whether the
    /// repair wave runs.
    fn fence(&mut self, plan: &FencePlan) -> usize;
    /// `dev`'s agent restarts: nothing pending may land on its fresh
    /// state. Counts one recovered crash.
    fn purge_for_restart(&mut self, dev: DeviceId);
    /// Drives the exchange to quiescence: the messages and bytes the
    /// round's steps sent and its completion time, as far as the fabric
    /// counts them.
    fn drain(&mut self) -> EventOutcome;
    /// Exports `node`'s counting results from `dev`'s verifier.
    fn collect(&mut self, dev: DeviceId, node: NodeId) -> NodeResult;
    /// Devices a watchdog declared stalled (device → epoch at stall).
    fn stalled(&self) -> BTreeMap<DeviceId, u64> {
        BTreeMap::new()
    }
}

/// The device runtime: the event lifecycle, written once over a
/// [`Fabric`]. It changes only through [`Substrate::apply_event`],
/// which drives the exchange to quiescence; [`Runtime::stage_event`]
/// and [`Runtime::stage_batch`] only enqueue, so a churn event or a
/// crash can land while their messages are in flight, and
/// [`Runtime::run_to_quiescence`] drives what they left.
pub struct Runtime<F> {
    /// The lifecycle owner: intents, churn, epoch, journal and gauges.
    control: ControlPlane,
    fabric: F,
    tel: Arc<Telemetry>,
    /// Next causal trace id handed to an injected event (init is
    /// [`INIT_TRACE`]).
    next_trace: u64,
    /// Each source's verdict as last evaluated and rendered.
    verdicts: Verdicts,
}

/// The single-driver engine: deterministic, virtual-time, over a clean
/// ([`Engine::new`]) or lossy ([`Engine::lossy`]) management network.
pub type Engine = Runtime<Driver>;

/// The genuinely concurrent substrate: one OS thread per device
/// verifier, in-order channels for DVM links — the deployment shape of
/// the paper's prototype (one verification agent per switch over TCP).
pub type ThreadedEngine = Runtime<Threads>;

impl<F: Fabric> Runtime<F> {
    fn assemble(control: ControlPlane, fabric: F, cfg: &EngineConfig) -> Runtime<F> {
        Runtime {
            control,
            fabric,
            tel: cfg.telemetry.clone(),
            next_trace: FIRST_EVENT_TRACE,
            verdicts: Verdicts::default(),
        }
    }

    /// Allocates a fresh causal trace id for one injected event.
    fn alloc_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace - 1
    }

    /// Drives staged (or otherwise in-flight) messages to quiescence,
    /// the initial exchange of a new runtime included.
    pub fn run_to_quiescence(&mut self) -> EventOutcome {
        self.fabric.drain()
    }

    /// Stages a burst of rule updates *without* driving the exchange:
    /// the coalesced per-device batches are applied and their DVM
    /// messages enqueued, but delivery does not start. Follow with
    /// [`Runtime::run_to_quiescence`] (or any driven event) to drain.
    pub fn stage_batch(&mut self, updates: &[RuleUpdate]) {
        let trace = self.alloc_trace();
        let coalesced = coalesce(updates);
        let first = coalesced.first().map_or(DeviceId(0), |(d, _)| *d);
        let (n, epoch) = (updates.len(), self.epoch());
        self.tel
            .journal(JournalKind::BatchApplied, first, epoch, trace, None, || {
                format!("{n} updates")
            });
        // Every verifier, quarantined or hosting no node, folds in its
        // rule updates: a quarantined device hosts nothing, so it
        // recounts and announces nothing, and a later `DeviceUp`,
        // first task or backend move finds the current data plane —
        // mirroring the reference session.
        for (dev, ops) in coalesced {
            let op = move |v: &mut DeviceVerifier, out: &mut Vec<Envelope>| {
                v.handle_fib_batch(&ops, out)
            };
            self.fabric.inject(dev, trace, Box::new(op));
        }
    }

    /// Crashes and restarts one device's verification agent
    /// ([`ControlPlane::restart`]): the restarted verifier applies its
    /// restart share, and each of the share's peers replays its durable
    /// protocol state toward it ([`DeviceVerifier::replay_for_restart`]),
    /// and the run recovers instead of aborting: the Report re-converges
    /// to the pre-crash fixpoint. Journaled and counted alike on both
    /// fabrics; an id outside the topology is a no-op. Not driven.
    fn stage_crash(&mut self, dev: DeviceId) {
        // Journaled under the next trace id, which a crash that names
        // no agent leaves unspent.
        let Some(restart) = self.control.restart(dev, self.next_trace) else {
            return;
        };
        let (trace, epoch) = (self.alloc_trace(), self.epoch());
        // Pending envelopes addressed to the dead agent (delayed or
        // duplicated copies included) must not land on the fresh state;
        // neighbor replays rebuild everything they carried. The restart
        // share is injected *before* any replay, so on in-order
        // channels the replayed messages land on the fresh state too.
        self.fabric.purge_for_restart(dev);
        let peers = restart.peers();
        let op = move |v: &mut DeviceVerifier, out: &mut Vec<Envelope>| {
            v.apply_fence(epoch, trace, restart, out)
        };
        self.fabric.inject(dev, trace, Box::new(op));
        for nb in peers {
            let op = move |v: &mut DeviceVerifier, out: &mut Vec<Envelope>| {
                v.replay_for_restart(dev, out)
            };
            self.fabric.inject(nb, trace, Box::new(op));
        }
    }

    /// The current fence generation (0 until the first churn event or
    /// intent install/remove).
    pub fn epoch(&self) -> u64 {
        self.control.epoch()
    }

    /// Has the control plane decide one event under a fresh trace id,
    /// then delivers the resulting fence (if any): the fabric drops
    /// everything in flight *before* any new-epoch send, what it
    /// dropped decides whether the devices run the repair wave
    /// (`ControlPlane::seal`), and every device gets its share as one
    /// atomic injected op. `decide` names the event's intent. Not
    /// driven: the caller drains.
    fn fenced(
        &mut self,
        decide: impl FnOnce(&mut ControlPlane, u64) -> Result<(Option<IntentId>, Decision), PlanError>,
    ) -> Result<EventOutcome, PlanError> {
        let trace = self.alloc_trace();
        let begin = self.tel.start();
        let (intent, mut decision) = decide(&mut self.control, trace)?;
        if let Some(mut plan) = decision.fence.take() {
            let epoch = plan.epoch;
            let first = plan.devices.keys().next().copied().unwrap_or(DeviceId(0));
            self.tel
                .finish(first, &FENCE_PLAN, trace, epoch, begin, None);
            let dropped = self.fabric.fence(&plan);
            self.control.seal(&mut plan, dropped, trace);
            for (dev, fence) in plan.devices {
                let op = move |v: &mut DeviceVerifier, out: &mut Vec<Envelope>| {
                    v.apply_fence(epoch, trace, fence, out)
                };
                self.fabric.inject(dev, trace, Box::new(op));
            }
        }
        Ok(decision.outcome(intent))
    }

    /// Applies one [`RuntimeEvent`] without driving the exchange: its
    /// operations are injected and their messages left in flight. On
    /// the threaded substrate this is the non-blocking entry point —
    /// follow with [`ThreadedEngine::wait_quiescent_watched`] to tell
    /// a slow convergence from a wedged device.
    pub fn stage_event(&mut self, ev: &RuntimeEvent) -> Result<EventOutcome, PlanError> {
        use RuntimeEvent as E;
        match ev {
            E::Batch(updates) => {
                self.stage_batch(updates);
                Ok(EventOutcome::default())
            }
            E::CrashRestart(dev) => {
                self.stage_crash(*dev);
                Ok(EventOutcome::default())
            }
            E::Topology {
                event,
                base,
                invariant,
            } => self.fenced(|c, t| Ok((None, c.topology_event(event, base, invariant, t)?))),
            E::InstallIntent { name, invariant } => self.fenced(|c, t| {
                let (id, d) = c.install(name, invariant, t)?;
                Ok((Some(id), d))
            }),
            E::RemoveIntent(id) => self.fenced(|c, t| Ok((Some(*id), c.remove(*id, t)?))),
        }
    }

    /// Evaluates every live intent at its DPVNet sources. Takes `&mut
    /// self` because result export runs through each device's BDD
    /// manager. After a churn event the report also carries per-node
    /// freshness markers and the quarantined-device list.
    pub fn report(&mut self) -> Report {
        let mut r = self.verdicts().report();
        self.control.annotate(&mut r, &self.fabric.stalled());
        r
    }

    /// Brings the per-source verdicts up to date and returns them: a
    /// source re-renders only when its export changed since the last
    /// evaluation ([`verify::evaluate_intents`]). The count of sources
    /// rendered is `tulkun_report_sources_rendered_total`.
    pub fn verdicts(&mut self) -> &Verdicts {
        let fabric = &mut self.fabric;
        let store = self.control.intents();
        let rendered = verify::evaluate_intents(store, &mut self.verdicts, |dev, node| {
            fabric.collect(dev, node)
        });
        let counter = "tulkun_report_sources_rendered_total";
        self.tel.count(counter, rendered as u64);
        &self.verdicts
    }

    /// Per-node freshness after topology churn (empty before any), as
    /// [`Runtime::report`] carries it, without evaluating a verdict.
    pub fn freshness(&self) -> Vec<(NodeId, Freshness)> {
        let mut r = Report::default();
        self.control.annotate(&mut r, &self.fabric.stalled());
        r.freshness
    }

    /// Why `subject` looks the way it does: its verdict and the ranked
    /// causal chain ([`explain::explain`]) walked out of the journal
    /// entries visible to `source` (`None`: every source). A device is
    /// judged over the nodes it hosts and a live intent over its
    /// global nodes ([`explain::verdict`], freshness as
    /// [`Runtime::freshness`] reads it, violations from the
    /// [`Verdicts`] memo); a parked install is `parked(awaiting epoch
    /// e+1)` and a removed intent `removed`. An intent id no install
    /// allocated is an `Err`.
    pub fn explain(
        &mut self,
        source: Option<&str>,
        subject: Subject,
    ) -> Result<Explanation, String> {
        let store = self.control.intents();
        // The nodes the subject is judged over, or the verdict of an
        // intent with no slice to judge.
        let judged: Result<BTreeSet<NodeId>, String> = match subject {
            Subject::Device(dev) => Ok(store.nodes_on(dev).collect()),
            Subject::Intent(id) if id >= store.next_intent_id() => {
                return Err(format!("unknown intent {id}"))
            }
            Subject::Intent(id) if store.is_parked(IntentId(id)) => {
                Err(format!("parked(awaiting epoch {})", self.epoch() + 1))
            }
            Subject::Intent(id) => store
                .get(IntentId(id))
                .map(|i| i.global_nodes())
                .ok_or_else(|| "removed".to_string()),
        };
        let verdict = match judged {
            Ok(nodes) => {
                let names = |v: &Violation| subject.names(v.device, Some(v.intent));
                let violated = self.verdicts().violations().any(names);
                let freshness = self.freshness();
                let judged = freshness.iter().filter(|(n, _)| nodes.contains(n));
                explain::verdict(judged.map(|(_, f)| f), violated)
            }
            Err(settled) => settled,
        };
        let events = self.tel.journal_visible_to(source, usize::MAX);
        Ok(explain::explain(&events, subject, &verdict))
    }

    /// The runtime intent store (read-only).
    pub fn intents(&self) -> &IntentStore {
        self.control.intents()
    }

    /// The counting plan driving this engine.
    pub fn plan(&self) -> &CountingPlan {
        self.control.plan()
    }
}

impl<F: Fabric> Substrate for Runtime<F> {
    /// Applies one [`RuntimeEvent`] ([`Runtime::stage_event`]) and
    /// drives the exchange to quiescence. `messages` and `bytes` stay 0
    /// on the threaded substrate: per-event counts are not tracked
    /// across threads (its [`RuntimeStats`] count them per device).
    fn apply_event(&mut self, ev: &RuntimeEvent) -> Result<EventOutcome, PlanError> {
        let staged = self.stage_event(ev)?;
        let run = self.run_to_quiescence();
        Ok(EventOutcome {
            messages: run.messages,
            bytes: run.bytes,
            completion_ns: run.completion_ns,
            ..staged
        })
    }
}

/// The single-driver, virtual-time fabric: one pull loop owns every
/// verifier, a [`Transport`] orders the envelopes and a
/// [`VirtualClock`] charges each device's measured work to its own
/// timeline. A round starts at t=0: timelines rewind whenever the
/// exchange reaches quiescence, so times are per round.
pub struct Driver {
    verifiers: BTreeMap<DeviceId, DeviceVerifier>,
    transport: Box<dyn Transport>,
    clock: VirtualClock,
    stats: RuntimeStats,
    /// The messages and bytes this round's steps sent so far (the
    /// first round's include the initial wave).
    round: EventOutcome,
    /// Latest finish time of this round's work, so its completion time
    /// covers work that caused no message.
    watermark: u64,
    recipe: Recipe,
}

impl Driver {
    /// The one device step on this fabric: runs `input` on `dev`'s
    /// verifier, charged to the device's timeline from `arrival`, and
    /// sends what it emitted at the span's finish. A `dev` with no
    /// verifier runs nothing.
    fn run(&mut self, dev: DeviceId, arrival: u64, input: Input) {
        let Some(v) = self.verifiers.get_mut(&dev) else {
            return;
        };
        let (clock, tel) = (&mut self.clock, &self.recipe.tel);
        let stats = self.stats.per_device.entry(dev).or_default();
        let (span, out, bytes) = step(v, input, tel, stats, |ns| clock.charge(dev, arrival, ns));
        self.watermark = self.watermark.max(span.finish);
        self.send(dev, span.finish, out, bytes);
    }

    /// Counts what `dev` sent (`bytes` on the wire, already booked on
    /// its stats) in the round and hands it to the transport at `at`.
    fn send(&mut self, dev: DeviceId, at: u64, out: Vec<Envelope>, bytes: u64) {
        self.round.messages += out.len();
        self.round.bytes += bytes;
        for env in out {
            self.transport.send(dev, at, env);
        }
    }

    /// Rebuilds `dev`'s verifier from the FIB it holds under the
    /// recipe's current backend, hosting `share` at `epoch`. Its init
    /// is charged from the start of the round.
    fn rebuild(&mut self, dev: DeviceId, share: DeviceFence, epoch: u64, trace: u64) {
        let Some(fib) = self.verifiers.get(&dev).map(|v| v.fib().clone()) else {
            return;
        };
        let (v, out, host_ns) = self.recipe.build(dev, fib, share, (epoch, trace));
        let span = self.clock.charge(dev, 0, host_ns);
        let st = self.stats.per_device.entry(dev).or_default();
        (st.init_ns, st.bdd_nodes) = (span.cpu_ns, v.mem_units());
        let bytes = st.book_sent(&out);
        self.watermark = self.watermark.max(span.finish);
        self.send(dev, span.finish, out, bytes);
        self.verifiers.insert(dev, v);
    }
}

impl Fabric for Driver {
    fn inject(&mut self, dev: DeviceId, trace: u64, op: Injected) {
        self.run(dev, 0, Input::Op(trace, op));
    }

    fn fence(&mut self, plan: &FencePlan) -> usize {
        self.transport.epoch_fence(plan.epoch)
    }

    fn purge_for_restart(&mut self, dev: DeviceId) {
        self.transport.purge_for_restart(dev);
        self.stats.crashes_recovered += 1;
    }

    /// Delivers messages until the transport runs dry (quiescence).
    fn drain(&mut self) -> EventOutcome {
        while let Some((arrival, env)) = self.transport.recv() {
            self.run(env.to, arrival, Input::Dvm(env));
        }
        let out = EventOutcome {
            completion_ns: self.watermark,
            ..std::mem::take(&mut self.round)
        };
        // The next round starts at t=0 on every device.
        self.watermark = 0;
        self.clock.reset();
        if let Some(f) = self.transport.fault_stats() {
            self.stats.fault = f;
        }
        out
    }

    fn collect(&mut self, dev: DeviceId, node: NodeId) -> NodeResult {
        let v = self.verifiers.get_mut(&dev);
        v.map_or_else(|| Vec::new().into(), |v| v.node_result(node))
    }
}

impl Runtime<Driver> {
    /// Builds an engine over a clean management network: envelopes
    /// travel the topology's links with their propagation latency
    /// ([`LatencyTransport`]). Verifier construction (LEC building and
    /// initial counting) is timed as init cost; call
    /// [`Runtime::run_to_quiescence`] to run the initial exchange.
    pub fn new(net: &Network, plan: &CountingPlan, ps: &PacketSpace, cfg: EngineConfig) -> Engine {
        let links = LatencyTransport::new(net.topology.clone(), FALLBACK_LATENCY_NS);
        Self::over(net, plan, ps, &cfg, Box::new(links))
    }

    /// Builds an engine over a *faulty* management network: the same
    /// links behind a `FaultyTransport`, so messages are dropped,
    /// duplicated, reordered and delayed per a seeded [`FaultProfile`]
    /// and recovered by the at-least-once reliability layer. The
    /// Report converges to the same fixpoint as over the clean network;
    /// `stats().fault` records what it cost.
    pub fn lossy(
        net: &Network,
        plan: &CountingPlan,
        ps: &PacketSpace,
        cfg: EngineConfig,
        profile: FaultProfile,
    ) -> Engine {
        let links = LatencyTransport::new(net.topology.clone(), FALLBACK_LATENCY_NS);
        let lossy = FaultyTransport::with_telemetry(links, profile, cfg.telemetry.clone());
        Self::over(net, plan, ps, &cfg, Box::new(lossy))
    }

    /// Builds an engine over any transport (tests substitute
    /// [`FifoTransport`]): the one `Driver` assembly.
    pub fn over(
        net: &Network,
        plan: &CountingPlan,
        ps: &PacketSpace,
        cfg: &EngineConfig,
        transport: Box<dyn Transport>,
    ) -> Engine {
        let mut control =
            ControlPlane::new(&net.topology, net.layout, plan, ps, cfg.telemetry.clone());
        let recipe = Recipe::new(net, plan, cfg);
        let built = build_verifiers(net, control.hosted(), &recipe, cfg.model);
        let mut driver = Driver {
            verifiers: BTreeMap::new(),
            transport,
            clock: VirtualClock::new(cfg.model),
            stats: RuntimeStats::default(),
            round: EventOutcome::default(),
            watermark: 0,
            recipe,
        };
        for b in built {
            let init_ns = b.stats.init_ns;
            driver.clock.set_free_at(b.dev, init_ns);
            driver.send(b.dev, init_ns, b.init_out, b.stats.bytes_sent);
            driver.stats.per_device.insert(b.dev, b.stats);
            driver.verifiers.insert(b.dev, b.verifier);
        }
        Runtime::assemble(control, driver, cfg)
    }

    /// The runtime observability surface.
    pub fn stats(&self) -> &RuntimeStats {
        &self.fabric.stats
    }

    /// The predicate backend the verifiers run on.
    pub fn backend(&self) -> BackendKind {
        self.fabric.recipe.kind
    }

    /// The header layout of the network the engine verifies.
    pub fn layout(&self) -> HeaderLayout {
        self.fabric.recipe.layout
    }

    /// Moves every verifier to the `kind` predicate backend in place.
    /// The lifecycle stays as it is: the control plane keeps intents,
    /// parked installs, churn and the epoch, trace ids keep counting,
    /// and the transport keeps its routing and reliability state. Each
    /// verifier is rebuilt from the FIB it holds (every batch reached
    /// it, quarantined or not; its init booked from the start of the
    /// round) by the one constructor, hosting at the current epoch
    /// every node the control plane has it host
    /// ([`ControlPlane::hosted`]). Wire bytes are backend-neutral, so
    /// the drained Report equals the one before the move. Call it on a
    /// quiescent engine: a rebuilt node restarts from zero, and so do
    /// the peers it talks to. `kind` must hold the workload, as for
    /// [`EngineConfig::backend`] ([`BackendKind::check`]).
    pub fn rehost(&mut self, kind: BackendKind) -> EventOutcome {
        let (trace, epoch) = (self.alloc_trace(), self.epoch());
        let mut hosted = self.control.hosted();
        let driver = &mut self.fabric;
        driver.recipe.kind = kind;
        let devices: Vec<DeviceId> = driver.verifiers.keys().copied().collect();
        for dev in devices {
            let share = hosted.remove(&dev).unwrap_or_default();
            driver.rebuild(dev, share, epoch, trace);
        }
        self.run_to_quiescence()
    }
}

// ---------------------------------------------------------------------
// The concurrent fabric: one OS thread per device.
// ---------------------------------------------------------------------

enum DeviceMsg {
    /// One input for the device step. A device's share of an epoch
    /// fence is one injected op (atomic; a peer that fenced first may
    /// get a new-epoch message in ahead of it, which the verifier holds
    /// until the fence arrives).
    Run(Input),
    Collect(NodeId, mpsc::Sender<NodeResult>),
    /// Test-only: block the device thread until the paired sender is
    /// dropped, so watchdog stalls can be staged deterministically.
    #[cfg(test)]
    Hang(mpsc::Receiver<()>),
    Shutdown,
}

/// Quiescence gauge shared by all device threads: a message's outputs
/// are added (and counted) before its own count is released, so the
/// gauge only reaches zero when no message is queued or being
/// processed anywhere.
struct InflightGauge {
    count: AtomicI64,
    zero: Condvar,
    lock: Mutex<()>,
}

impl InflightGauge {
    fn new() -> Arc<InflightGauge> {
        Arc::new(InflightGauge {
            count: AtomicI64::new(0),
            zero: Condvar::new(),
            lock: Mutex::new(()),
        })
    }

    fn add(&self, n: i64) {
        self.count.fetch_add(n, Ordering::SeqCst);
    }

    fn release(&self) {
        if self.count.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = unpoisoned(self.lock.lock());
            self.zero.notify_all();
        }
    }

    /// Messages queued or being processed right now.
    fn current(&self) -> usize {
        self.count.load(Ordering::SeqCst).max(0) as usize
    }

    fn wait_zero(&self) {
        let mut guard = unpoisoned(self.lock.lock());
        while self.count.load(Ordering::SeqCst) != 0 {
            guard = unpoisoned(self.zero.wait(guard));
        }
    }

    /// Waits for the gauge to reach zero, giving up after `timeout`.
    /// Returns whether quiescence was observed.
    fn wait_zero_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = unpoisoned(self.lock.lock());
        while self.count.load(Ordering::SeqCst) != 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = unpoisoned(self.zero.wait_timeout(guard, deadline - now));
            guard = g;
        }
        true
    }
}

/// Per-device progress accounting for the convergence watchdog:
/// messages enqueued toward each device versus messages its thread has
/// processed. A device whose backlog is non-empty while its processed
/// counter stops advancing is stalled (dead, wedged or partitioned) —
/// as opposed to a run that is merely still converging, where some
/// counter always advances between heartbeats.
struct Progress {
    enqueued: BTreeMap<DeviceId, AtomicU64>,
    processed: BTreeMap<DeviceId, AtomicU64>,
}

impl Progress {
    fn new(devs: impl Iterator<Item = DeviceId> + Clone) -> Arc<Progress> {
        Arc::new(Progress {
            enqueued: devs.clone().map(|d| (d, AtomicU64::new(0))).collect(),
            processed: devs.map(|d| (d, AtomicU64::new(0))).collect(),
        })
    }

    fn note_enqueued(&self, dev: DeviceId) {
        if let Some(c) = self.enqueued.get(&dev) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_processed(&self, dev: DeviceId) {
        if let Some(c) = self.processed.get(&dev) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot_processed(&self) -> BTreeMap<DeviceId, u64> {
        self.processed
            .iter()
            .map(|(d, c)| (*d, c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Devices with enqueued work their thread has not processed.
    fn lagging(&self) -> Vec<DeviceId> {
        self.enqueued
            .iter()
            .filter(|(d, e)| {
                let done = self
                    .processed
                    .get(d)
                    .map(|c| c.load(Ordering::Relaxed))
                    .unwrap_or(0);
                e.load(Ordering::Relaxed) > done
            })
            .map(|(d, _)| *d)
            .collect()
    }
}

/// Convergence-watchdog tuning for [`ThreadedEngine::wait_quiescent_watched`].
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// How often per-device progress is sampled while waiting.
    pub heartbeat: Duration,
    /// Consecutive heartbeats with zero progress anywhere before the
    /// run is declared stalled. Separates "still converging" (some
    /// counter advances every heartbeat) from "partitioned/dead device"
    /// (backlog exists, nothing advances).
    pub stall_heartbeats: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            heartbeat: Duration::from_millis(100),
            stall_heartbeats: 5,
        }
    }
}

/// The watchdog's verdict on a watched wait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchdogVerdict {
    /// The run reached quiescence.
    Converged,
    /// No progress for the configured window; `devices` hold unprocessed
    /// backlog (dead, wedged or partitioned device threads).
    Stalled {
        /// Devices with enqueued-but-unprocessed messages at stall time.
        devices: Vec<DeviceId>,
    },
}

/// A device-task panic, surfaced by [`ThreadedEngine::shutdown`].
#[derive(Debug)]
pub struct DevicePanic {
    /// The device whose thread panicked.
    pub device: DeviceId,
    /// The panic payload rendered to a string.
    pub message: String,
}

/// The thread-per-device fabric: every verifier runs on its own OS
/// thread behind an in-order channel, an in-flight gauge detects
/// quiescence and per-device progress counters feed the convergence
/// watchdog. Threads cannot be added after spawn, so every topology
/// device gets one.
pub struct Threads {
    senders: BTreeMap<DeviceId, mpsc::Sender<DeviceMsg>>,
    inflight: Arc<InflightGauge>,
    handles: Vec<(DeviceId, std::thread::JoinHandle<DeviceStats>)>,
    /// Coordinator-side stats (init cost, recovered crashes); the
    /// per-device message stats come back when the threads join.
    stats: RuntimeStats,
    /// Per-device progress counters feeding the convergence watchdog.
    progress: Arc<Progress>,
    /// Devices the watchdog declared stalled (device → epoch at stall);
    /// cleared when a later watched wait converges.
    stalled: Mutex<BTreeMap<DeviceId, u64>>,
    /// Devices whose step panicked (device → its verifier's epoch then),
    /// written by their own threads. A dead device stays stale.
    dead: Arc<Mutex<BTreeMap<DeviceId, u64>>>,
    joined: bool,
}

impl Fabric for Threads {
    /// Enqueues the op on the device's channel, counted as in flight
    /// until its thread has run it.
    fn inject(&mut self, dev: DeviceId, trace: u64, op: Injected) {
        let Some(tx) = self.senders.get(&dev) else {
            return;
        };
        self.inflight.add(1);
        if tx.send(DeviceMsg::Run(Input::Op(trace, op))).is_ok() {
            self.progress.note_enqueued(dev);
        } else {
            self.inflight.release();
        }
    }

    /// Whatever the in-flight gauge counts right now is old-epoch
    /// traffic: the verifier-level fence discards it (or what it would
    /// have caused). Only the coordinator injects work (`&mut self`),
    /// so a zero gauge stays zero until the fences are posted.
    fn fence(&mut self, _plan: &FencePlan) -> usize {
        self.inflight.current()
    }

    /// Channels are in-order and the restart share is enqueued before
    /// any replay toward it, so every replay lands on the fresh state
    /// and nothing needs purging.
    fn purge_for_restart(&mut self, _dev: DeviceId) {
        self.stats.crashes_recovered += 1;
    }

    fn drain(&mut self) -> EventOutcome {
        self.inflight.wait_zero();
        EventOutcome::default()
    }

    fn collect(&mut self, dev: DeviceId, node: NodeId) -> NodeResult {
        let (reply_tx, reply_rx) = mpsc::channel();
        let sent = self
            .senders
            .get(&dev)
            .is_some_and(|tx| tx.send(DeviceMsg::Collect(node, reply_tx)).is_ok());
        match reply_rx.recv() {
            Ok(result) if sent => result,
            _ => Vec::new().into(),
        }
    }

    fn stalled(&self) -> BTreeMap<DeviceId, u64> {
        let mut stalled = unpoisoned(self.stalled.lock()).clone();
        stalled.extend(unpoisoned(self.dead.lock()).iter());
        stalled
    }
}

impl Threads {
    /// Joins every device thread; a panicked one is surfaced, not
    /// leaked.
    fn join(&mut self) -> Result<RuntimeStats, Vec<DevicePanic>> {
        let mut stats = std::mem::take(&mut self.stats);
        let mut panics = Vec::new();
        for tx in self.senders.values() {
            let _ = tx.send(DeviceMsg::Shutdown);
        }
        for (dev, h) in self.handles.drain(..) {
            match h.join() {
                Ok(st) => stats.merge_device(dev, st),
                Err(payload) => panics.push(DevicePanic {
                    device: dev,
                    message: panic_message(payload),
                }),
            }
        }
        self.joined = true;
        if !panics.is_empty() {
            return Err(panics);
        }
        Ok(stats)
    }
}

impl Drop for Threads {
    /// Dropping without an explicit [`ThreadedEngine::shutdown`] still
    /// joins every device thread so no task leaks past the engine's
    /// lifetime (panics are swallowed here — call `shutdown` to
    /// observe them).
    fn drop(&mut self) {
        if !self.joined {
            let _ = self.join();
        }
    }
}

impl Runtime<Threads> {
    /// Spawns one verifier thread per topology device and injects the
    /// initial (burst) exchange; call [`Runtime::run_to_quiescence`]
    /// to let it drain.
    pub fn spawn(net: &Network, plan: &CountingPlan, ps: &PacketSpace) -> ThreadedEngine {
        Self::spawn_with(net, plan, ps, &EngineConfig::default())
    }

    /// Like [`ThreadedEngine::spawn`], with explicit engine options.
    pub fn spawn_with(
        net: &Network,
        plan: &CountingPlan,
        ps: &PacketSpace,
        cfg: &EngineConfig,
    ) -> ThreadedEngine {
        let mut control =
            ControlPlane::new(&net.topology, net.layout, plan, ps, cfg.telemetry.clone());
        let recipe = Recipe::new(net, plan, cfg);
        let built = build_verifiers(net, control.hosted(), &recipe, cfg.model);

        let inflight = InflightGauge::new();
        let progress = Progress::new(built.iter().map(|b| b.dev));
        let channels: Vec<(mpsc::Sender<DeviceMsg>, mpsc::Receiver<DeviceMsg>)> =
            built.iter().map(|_| mpsc::channel()).collect();
        let senders: BTreeMap<DeviceId, mpsc::Sender<DeviceMsg>> = built
            .iter()
            .zip(&channels)
            .map(|(b, (tx, _))| (b.dev, tx.clone()))
            .collect();

        let mut init_stats = RuntimeStats::default();
        let dead = Arc::new(Mutex::new(BTreeMap::new()));
        let mut handles = Vec::new();
        for (b, (_, rx)) in built.into_iter().zip(channels) {
            let BuiltVerifier {
                dev,
                mut verifier,
                init_out,
                stats,
            } = b;
            init_stats.per_device.insert(dev, stats);
            let peers = senders.clone();
            let inflight = inflight.clone();
            let progress = progress.clone();
            let dead = dead.clone();
            let model = cfg.model;
            let tel = cfg.telemetry.clone();

            // The initial messages count as in-flight before any thread
            // starts, so quiescence cannot be observed prematurely.
            route(&peers, init_out, &inflight, &progress);

            handles.push((
                dev,
                std::thread::spawn(move || {
                    let mut stats = DeviceStats::default();
                    // No shared timeline: a step is busy for its scaled
                    // host time.
                    let scaled = |ns| {
                        let cpu_ns = model.scale_ns(ns);
                        Span {
                            begin: 0,
                            cpu_ns,
                            finish: cpu_ns,
                        }
                    };
                    // A step that panicked leaves the verifier in no
                    // known state, so the device is dead from then on:
                    // it still releases every input that reaches it, so
                    // the exchange quiesces, answers every read with
                    // nothing, and re-raises the panic at shutdown.
                    let mut died = None;
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            DeviceMsg::Run(input) => {
                                if died.is_none() {
                                    let v = &mut verifier;
                                    let stepped =
                                        std::panic::catch_unwind(AssertUnwindSafe(|| {
                                            step(v, input, &tel, &mut stats, scaled)
                                        }));
                                    match stepped {
                                        Ok((_, out, _)) => route(&peers, out, &inflight, &progress),
                                        Err(payload) => {
                                            unpoisoned(dead.lock()).insert(dev, verifier.epoch());
                                            died = Some(payload);
                                        }
                                    }
                                }
                                progress.note_processed(dev);
                                inflight.release();
                            }
                            DeviceMsg::Collect(node, reply) => {
                                let result = match died {
                                    None => verifier.node_result(node),
                                    Some(_) => Vec::new().into(),
                                };
                                let _ = reply.send(result);
                            }
                            #[cfg(test)]
                            DeviceMsg::Hang(unblock) => {
                                // Blocks until the test drops the sender,
                                // wedging this thread while its channel
                                // backlog grows — a staged stall.
                                let _ = unblock.recv();
                            }
                            DeviceMsg::Shutdown => break,
                        }
                    }
                    if let Some(payload) = died {
                        std::panic::resume_unwind(payload);
                    }
                    stats
                }),
            ));
        }

        let threads = Threads {
            senders,
            inflight,
            handles,
            stats: init_stats,
            progress,
            stalled: Mutex::new(BTreeMap::new()),
            dead,
            joined: false,
        };
        Runtime::assemble(control, threads, cfg)
    }

    /// Waits for quiescence under a convergence watchdog: per-device
    /// progress heartbeats distinguish a run that is still converging
    /// (some processed counter advances every heartbeat) from one that
    /// is stalled (backlog exists, nothing advances for
    /// `stall_heartbeats` consecutive samples — a dead, wedged or
    /// partitioned device). A stall records the offending devices so
    /// [`ThreadedEngine::report`] marks their nodes `Stale`; a later
    /// converged wait clears them.
    pub fn wait_quiescent_watched(&self, cfg: &WatchdogConfig) -> WatchdogVerdict {
        let mut last = self.fabric.progress.snapshot_processed();
        let mut stalls = 0u32;
        loop {
            if self.fabric.inflight.wait_zero_timeout(cfg.heartbeat) {
                unpoisoned(self.fabric.stalled.lock()).clear();
                return WatchdogVerdict::Converged;
            }
            let snap = self.fabric.progress.snapshot_processed();
            if snap != last {
                stalls = 0;
                last = snap;
                continue;
            }
            stalls += 1;
            if stalls >= cfg.stall_heartbeats.max(1) {
                let devices = self.fabric.progress.lagging();
                let epoch = self.epoch();
                let mut stalled = unpoisoned(self.fabric.stalled.lock());
                for d in &devices {
                    stalled.insert(*d, epoch);
                    self.tel.count("tulkun_watchdog_stalls_total", 1);
                    self.tel
                        .instant(*d, "churn.watchdog_stall", "churn", 0, epoch);
                    self.tel
                        .journal(JournalKind::WatchdogStall, *d, epoch, 0, None, || {
                            format!("watchdog declared d{} stalled (unprocessed backlog)", d.0)
                        });
                }
                return WatchdogVerdict::Stalled { devices };
            }
        }
    }

    /// Wedges one device thread until the returned sender is dropped —
    /// a staged genuine stall (thread alive, backlog growing) for
    /// watchdog tests.
    #[cfg(test)]
    fn inject_hang(&self, dev: DeviceId) -> mpsc::Sender<()> {
        let (tx, rx) = mpsc::channel();
        if let Some(ch) = self.fabric.senders.get(&dev) {
            let _ = ch.send(DeviceMsg::Hang(rx));
        }
        tx
    }

    /// Shuts all device threads down, joining every handle. Per-device
    /// runtime stats (merged with the init-time stats) come back on
    /// success; a panicked device task is surfaced as [`DevicePanic`]
    /// instead of being silently leaked.
    pub fn shutdown(mut self) -> Result<RuntimeStats, Vec<DevicePanic>> {
        self.fabric.join()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Sends each envelope down its device's channel, counted in flight
/// until that device has run it.
fn route(
    peers: &BTreeMap<DeviceId, mpsc::Sender<DeviceMsg>>,
    out: Vec<Envelope>,
    inflight: &InflightGauge,
    progress: &Progress,
) {
    inflight.add(out.len() as i64);
    for env in out {
        let to = env.to;
        match peers.get(&to) {
            Some(tx) if tx.send(DeviceMsg::Run(Input::Dvm(env))).is_ok() => {
                progress.note_enqueued(to);
            }
            _ => inflight.release(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_core::churn::{ChurnState, TopologyEvent};
    use tulkun_core::count::CountExpr;
    use tulkun_core::planner::Planner;
    use tulkun_core::spec::{table1, Behavior, Invariant, PathExpr};
    use tulkun_core::verify::{Freshness, Session};
    use tulkun_datasets::fig2a_network;
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};

    /// `exist >= 1` over loop-free `path` from its first device.
    fn exist_inv(path: &str) -> Invariant {
        Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress([path.split_whitespace().next().unwrap()])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse(path).unwrap().loop_free(),
            ))
            .build()
            .unwrap()
    }

    pub(crate) fn waypoint_inv() -> Invariant {
        exist_inv("S .* W .* D")
    }

    pub(crate) fn waypoint_plan(net: &Network) -> (CountingPlan, PacketSpace) {
        let inv = waypoint_inv();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        (cp, inv.packet_space)
    }

    /// The reference semantics: the engine over the in-order fake.
    fn fifo_engine(net: &Network, cp: &CountingPlan, ps: &PacketSpace) -> Engine {
        let cfg = EngineConfig::default();
        Engine::over(net, cp, ps, &cfg, Box::<FifoTransport>::default())
    }

    /// A live churn event of the waypoint session, as a [`RuntimeEvent`].
    fn churn_event(net: &Network, event: TopologyEvent) -> RuntimeEvent {
        RuntimeEvent::Topology {
            event,
            base: net.topology.clone(),
            invariant: waypoint_inv(),
        }
    }

    /// The churn acceptance reference: a *fresh* plan + run of the
    /// post-churn topology, with no churn machinery involved.
    fn fresh_report_bytes(base: &Network, churn: &ChurnState) -> Vec<u8> {
        let net = Network {
            topology: churn.apply_to(&base.topology),
            fibs: base.fibs.clone(),
            layout: base.layout,
        };
        let inv = waypoint_inv();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        let mut engine = fifo_engine(&net, &cp, &inv.packet_space);
        engine.run_to_quiescence();
        engine.report().canonical_bytes()
    }

    #[test]
    fn fifo_engine_matches_reference_verdict() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = fifo_engine(&net, &cp, &ps);
        let r = engine.run_to_quiescence();
        assert!(r.messages > 0);
        let report = engine.report();
        assert!(!report.holds());
        assert_eq!(report.violations.len(), 1);
    }

    /// A device hosts every invariant on its one verifier, so it builds
    /// its LEC table once (§8): with INet2's destinations installed as
    /// intents on one engine, every verifier still counts one LEC
    /// build, and each intent's violations are those a standalone
    /// engine finds for its invariant (two destinations blackholed).
    #[test]
    fn one_engine_hosts_every_destination_on_one_lec_table() {
        use tulkun_netmodel::routing::{inject_errors, InjectedError};
        let ds = tulkun_datasets::by_name("INet2", tulkun_datasets::Scale::Tiny).unwrap();
        let mut net = ds.network;
        let topo = net.topology.clone();
        let dsts: BTreeMap<DeviceId, _> = topo.external_map().collect();
        let holes: Vec<InjectedError> = (dsts.iter().take(2))
            .map(|(dst, prefix)| InjectedError::Blackhole {
                device: topo.devices().find(|v| v != dst).unwrap(),
                prefix: *prefix,
            })
            .collect();
        inject_errors(&mut net, &holes);
        let invs: Vec<Invariant> = dsts
            .keys()
            .map(|d| table1::subset_reachability_to(&topo, *d).unwrap())
            .collect();
        let standalone = |inv: &Invariant| {
            let plan = Planner::new(&topo).plan(inv).unwrap();
            let cp = plan.counting().unwrap();
            let mut e = Engine::new(&net, cp, &inv.packet_space, EngineConfig::default());
            e.run_to_quiescence();
            e.report().violations
        };
        let base = Planner::new(&topo).plan(&invs[0]).unwrap();
        let (cp, ps) = (base.counting().unwrap(), &invs[0].packet_space);
        let tel = Telemetry::enabled();
        let cfg = EngineConfig {
            telemetry: tel.clone(),
            ..EngineConfig::default()
        };
        let mut shared = Engine::new(&net, cp, ps, cfg);
        shared.run_to_quiescence();
        let mut ids = vec![0];
        for (i, inv) in invs.iter().enumerate().skip(1) {
            let install = RuntimeEvent::InstallIntent {
                name: format!("dst-{i}"),
                invariant: inv.clone(),
            };
            ids.push(shared.apply_event(&install).unwrap().intent.unwrap().0);
        }
        // A table is built with its verifier, and never again.
        let builds = tel.metrics().hists["tulkun_init_build_ns"].count();
        assert_eq!(builds, topo.devices().count() as u64);
        let report = shared.report();
        let mut violated = 0;
        for (id, inv) in ids.into_iter().zip(&invs) {
            let mut own = report.violations.clone();
            own.retain(|v| v.intent == id);
            own.iter_mut().for_each(|v| v.intent = 0);
            let alone = standalone(inv);
            violated += usize::from(!alone.is_empty());
            let bytes = |violations| {
                Report {
                    violations,
                    ..Report::default()
                }
                .canonical_bytes()
            };
            assert_eq!(bytes(own), bytes(alone), "intent {id}");
        }
        assert_eq!(violated, 2, "each blackhole breaks one destination");
    }

    #[test]
    fn threaded_engine_converges_and_reports() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = ThreadedEngine::spawn(&net, &cp, &ps);
        engine.run_to_quiescence();
        let report = engine.report();
        assert!(!report.holds());
        let stats = engine.shutdown().expect("no panics");
        assert!(stats.messages() > 0);
        assert!(stats.per_device.values().any(|s| s.messages > 0));
    }

    /// A step that panics mid-wave kills its device, not the run: the
    /// dead device still releases every input that reaches it, so the
    /// wave quiesces, the report marks its nodes stale, and shutdown
    /// surfaces exactly that panic.
    #[test]
    fn threaded_engine_surfaces_device_panics() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = ThreadedEngine::spawn(&net, &cp, &ps);
        engine.run_to_quiescence();
        let participants = engine.fabric.handles.len();
        assert!(participants > 1, "test needs surviving threads");
        let [a, b, w] = ["A", "B", "W"].map(|n| net.topology.expect_device(n));
        // W panics right after applying its share of a link-down fence,
        // while the wave the fence starts is in flight.
        let down = churn_event(&net, TopologyEvent::LinkDown(a, b));
        engine.stage_event(&down).unwrap();
        let boom = |_: &mut DeviceVerifier, _: &mut Vec<Envelope>| panic!("injected step panic");
        engine.fabric.inject(w, 0, Box::new(boom));
        let (done, finished) = mpsc::channel();
        let driver = std::thread::spawn(move || {
            engine.run_to_quiescence();
            let _ = done.send(());
            engine
        });
        let quiesced = finished.recv_timeout(Duration::from_secs(60));
        quiesced.expect("a dead device must not wedge the exchange");
        let mut engine = driver
            .join()
            .expect("the driving thread returns the engine");

        let on_w: BTreeSet<NodeId> = engine.intents().nodes_on(w).collect();
        let freshness = engine.report().freshness;
        let (dead, alive): (Vec<_>, Vec<_>) = freshness.iter().partition(|(n, _)| on_w.contains(n));
        assert!(!dead.is_empty(), "W hosts nodes");
        assert!(
            dead.iter().all(|(_, f)| *f == Freshness::Stale(1)),
            "{dead:?}"
        );
        assert!(
            alive.iter().any(|(_, f)| *f == Freshness::Fresh),
            "{alive:?}"
        );

        let err = engine.shutdown().expect_err("the panic must be surfaced");
        assert_eq!(
            err.len(),
            1,
            "only W may panic; the other {} threads must join cleanly",
            participants - 1
        );
        assert_eq!(err[0].device, w);
        assert_eq!(err[0].message, "injected step panic");
    }

    /// Both fabrics count traffic the same way, each sent envelope once:
    /// the first destination's session under a 48-update trace applied
    /// 8 at a time books equal messages and bytes on the event engine
    /// and the threaded one, and on the event engine what the rounds
    /// report sent adds up to the per-device totals.
    #[test]
    fn both_fabrics_count_each_sent_envelope_once() {
        for name in ["INet2", "AT1-2"] {
            let ds = tulkun_datasets::by_name(name, tulkun_datasets::Scale::Tiny).unwrap();
            let net = &ds.network;
            let (inv, cp) = table1::first_destination_counting(&net.topology).unwrap();
            let ps = &inv.packet_space;
            let mut e = Engine::new(net, &cp, ps, EngineConfig::default());
            let mut t = ThreadedEngine::spawn(net, &cp, ps);
            let mut rounds = vec![e.run_to_quiescence()];
            t.run_to_quiescence();
            for chunk in tulkun_datasets::rule_updates(net, 48, 7).chunks(8) {
                let batch = RuntimeEvent::Batch(chunk.to_vec());
                rounds.push(e.apply_event(&batch).unwrap());
                t.apply_event(&batch).unwrap();
            }
            let threaded = t.shutdown().expect("no panics");
            let event = e.stats();
            assert!(event.bytes() > 0, "{name}");
            assert_eq!(event.messages(), threaded.messages(), "{name}: messages");
            assert_eq!(event.bytes(), threaded.bytes(), "{name}: bytes");
            let sent = rounds.iter().map(|r| r.messages as u64).sum::<u64>();
            let bytes = rounds.iter().map(|r| r.bytes).sum::<u64>();
            assert_eq!(
                (sent, bytes),
                (event.messages(), event.bytes()),
                "{name}: rounds"
            );
        }
    }

    #[test]
    fn engine_crash_restart_reconverges_to_same_report() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = Engine::new(&net, &cp, &ps, EngineConfig::default());
        engine.run_to_quiescence();
        let before = engine.report().canonical_bytes();
        // Crash every participating device in turn; each recovery must
        // land back on the identical Report.
        let devs: Vec<DeviceId> = engine.fabric.verifiers.keys().copied().collect();
        for dev in devs {
            let r = engine
                .apply_event(&RuntimeEvent::CrashRestart(dev))
                .unwrap();
            assert!(r.messages > 0, "recovery exchanges messages");
            assert_eq!(
                engine.report().canonical_bytes(),
                before,
                "crash of {dev:?} must recover the pre-crash Report"
            );
        }
        assert_eq!(
            engine.stats().crashes_recovered,
            engine.fabric.verifiers.len() as u64
        );
    }

    /// The export memo has one invalidation point, so no event may
    /// leave it stale: after every event of the churn-intent alphabet
    /// (FIB batches — driven and staged under a fence —, link and
    /// device churn, intent install/remove) plus a crash/restart of
    /// every device, each hosted node's memoised `node_result` equals
    /// a fresh merge/export of its `LocCIB` (`unmemoised_result`). The
    /// read fills the memo for the *next* event to invalidate or not.
    #[test]
    fn export_memo_is_never_stale() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = Engine::lossy(
            &net,
            &cp,
            &ps,
            EngineConfig::default(),
            FaultProfile::loss(7, 0.10),
        );
        engine.run_to_quiescence();
        type Exports = BTreeMap<(DeviceId, NodeId), NodeResult>;
        let check = |engine: &mut Engine, after: &str| -> Exports {
            let mut seen = Exports::new();
            for (dev, v) in engine.fabric.verifiers.iter_mut() {
                for node in v.node_ids() {
                    let memo = v.node_result(node);
                    let fresh = v.unmemoised_result(node);
                    assert_eq!(
                        memo, fresh,
                        "stale export of {node:?} on {dev:?} after {after}"
                    );
                    seen.insert((*dev, node), memo);
                }
            }
            seen
        };
        let dev = |name: &str| net.topology.expect_device(name);
        let route = MatchSpec::dst("10.0.1.0/24".parse().unwrap());
        let withdraw = RuleUpdate::Remove {
            device: dev("B"),
            priority: 10,
            matches: route,
        };
        let restore = RuleUpdate::Insert {
            device: dev("B"),
            rule: Rule {
                priority: 10,
                matches: route,
                action: Action::fwd(dev("D")),
            },
        };
        let install = |name: &str, path: &str| RuntimeEvent::InstallIntent {
            name: name.to_string(),
            invariant: exist_inv(path),
        };
        let mut script: Vec<(&str, RuntimeEvent)> = vec![
            ("withdraw", RuntimeEvent::Batch(vec![withdraw.clone()])),
            ("install a-reach", install("a-reach", "A .* D")),
            (
                "link-down",
                churn_event(&net, TopologyEvent::LinkDown(dev("A"), dev("B"))),
            ),
            ("restore", RuntimeEvent::Batch(vec![restore])),
            ("install b-way", install("b-way", "S .* B .* D")),
            (
                "device-down",
                churn_event(&net, TopologyEvent::DeviceDown(dev("B"))),
            ),
            ("remove a-reach", RuntimeEvent::RemoveIntent(IntentId(1))),
            (
                "device-up",
                churn_event(&net, TopologyEvent::DeviceUp(dev("B"))),
            ),
            (
                "link-up",
                churn_event(&net, TopologyEvent::LinkUp(dev("A"), dev("B"))),
            ),
        ];
        for d in net.topology.devices() {
            script.push(("crash", RuntimeEvent::CrashRestart(d)));
        }
        let mut last = check(&mut engine, "the burst");
        let mut moved = 0;
        for (what, ev) in &script {
            engine
                .apply_event(ev)
                .unwrap_or_else(|e| panic!("{what}: {e:?}"));
            let now = check(&mut engine, what);
            moved += usize::from(now != last);
            last = now;
        }
        // A wave left in flight when the next fence lands.
        engine.stage_batch(&[withdraw]);
        check(&mut engine, "a staged withdraw");
        let flap = churn_event(&net, TopologyEvent::LinkDown(dev("A"), dev("W")));
        engine.apply_event(&flap).unwrap();
        check(&mut engine, "a fence over a staged wave");
        assert!(
            moved >= 4,
            "the script must move exports to test anything: {moved}"
        );
    }

    #[test]
    fn threaded_engine_crash_restart_reconverges() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = ThreadedEngine::spawn(&net, &cp, &ps);
        engine.run_to_quiescence();
        let before = engine.report().canonical_bytes();
        let dev = net.topology.device("W").unwrap();
        engine
            .apply_event(&RuntimeEvent::CrashRestart(dev))
            .unwrap();
        engine.run_to_quiescence();
        assert_eq!(engine.report().canonical_bytes(), before);
        let stats = engine.shutdown().expect("no panics");
        assert_eq!(stats.crashes_recovered, 1);
    }

    #[test]
    fn engine_linkdown_matches_fresh_plan_of_post_churn_topology() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = fifo_engine(&net, &cp, &ps);
        engine.run_to_quiescence();
        let base_bytes = engine.report().canonical_bytes();
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();

        let down = TopologyEvent::LinkDown(a, b);
        engine.apply_event(&churn_event(&net, down)).unwrap();
        assert_eq!(engine.epoch(), 1);
        let mut churn = ChurnState::new();
        churn.apply(&down);
        assert_eq!(
            engine.report().canonical_bytes(),
            fresh_report_bytes(&net, &churn),
            "incremental re-plan must match a fresh plan of the post-churn topology"
        );

        // Applying the same event again is a no-op: no epoch bump.
        engine.apply_event(&churn_event(&net, down)).unwrap();
        assert_eq!(engine.epoch(), 1);

        // Recovery converges back to the original verdict.
        let up = TopologyEvent::LinkUp(a, b);
        engine.apply_event(&churn_event(&net, up)).unwrap();
        assert_eq!(engine.epoch(), 2);
        assert_eq!(engine.report().canonical_bytes(), base_bytes);
        let fresh = engine.report();
        assert!(
            fresh.freshness.iter().all(|(_, f)| *f == Freshness::Fresh),
            "no device is quarantined or stalled: everything is fresh"
        );
    }

    #[test]
    fn engine_devicedown_quarantines_and_marks_unreachable() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = fifo_engine(&net, &cp, &ps);
        engine.run_to_quiescence();
        let base_bytes = engine.report().canonical_bytes();
        let b = net.topology.device("B").unwrap();

        let down = TopologyEvent::DeviceDown(b);
        engine.apply_event(&churn_event(&net, down)).unwrap();
        let report = engine.report();
        assert_eq!(report.quarantined, vec![b]);
        assert!(
            report
                .freshness
                .iter()
                .any(|(_, f)| *f == Freshness::Unreachable),
            "the quarantined device's old nodes must be marked unreachable"
        );
        let mut churn = ChurnState::new();
        churn.apply(&down);
        assert_eq!(
            report.canonical_bytes(),
            fresh_report_bytes(&net, &churn),
            "reachable results must match a fresh plan without the dead device"
        );

        // The device comes back: quarantine lifts, its share creates
        // its nodes again, and the report returns to the original.
        let up = TopologyEvent::DeviceUp(b);
        engine.apply_event(&churn_event(&net, up)).unwrap();
        let report = engine.report();
        assert!(report.quarantined.is_empty());
        assert!(report.freshness.iter().all(|(_, f)| *f == Freshness::Fresh));
        assert_eq!(report.canonical_bytes(), base_bytes);
    }

    #[test]
    fn engine_staged_midflight_churn_terminates_and_matches_fresh() {
        // Acceptance shape: a FIB batch is staged (enqueued, not yet
        // drained) when LinkDown and DeviceDown land mid-flight. The
        // run must terminate and match a fresh plan of the post-churn
        // topology with the same update applied.
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let inv = waypoint_inv();
        let w = net.topology.device("W").unwrap();
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();
        let update = RuleUpdate::Insert {
            device: a,
            rule: Rule {
                priority: 50,
                matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
                action: Action::fwd(w),
            },
        };
        let mut engine = Engine::new(&net, &cp, &ps, EngineConfig::default());
        engine.run_to_quiescence();
        engine.stage_batch(std::slice::from_ref(&update));
        let mut churn = ChurnState::new();
        for ev in [TopologyEvent::LinkDown(a, b), TopologyEvent::DeviceDown(b)] {
            churn.apply(&ev);
            engine.apply_event(&churn_event(&net, ev)).unwrap();
        }
        engine.run_to_quiescence();
        assert_eq!(engine.epoch(), 2);

        // Reference: fresh engine on the post-churn topology, same
        // update applied after its burst.
        let fresh_net = Network {
            topology: churn.apply_to(&net.topology),
            fibs: net.fibs.clone(),
            layout: net.layout,
        };
        let fresh_plan = Planner::new(&fresh_net.topology).plan(&inv).unwrap();
        let fresh_cp = fresh_plan.counting().unwrap().clone();
        let mut fresh = fifo_engine(&fresh_net, &fresh_cp, &ps);
        fresh.run_to_quiescence();
        fresh
            .apply_event(&RuntimeEvent::Batch(vec![update.clone()]))
            .unwrap();
        assert_eq!(
            engine.report().canonical_bytes(),
            fresh.report().canonical_bytes()
        );
        assert_eq!(engine.report().quarantined, vec![b]);
    }

    #[test]
    fn threaded_engine_churn_matches_single_driver() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();
        let events = [TopologyEvent::LinkDown(a, b), TopologyEvent::DeviceDown(b)];

        let mut reference = fifo_engine(&net, &cp, &ps);
        reference.run_to_quiescence();
        for ev in &events {
            reference.apply_event(&churn_event(&net, *ev)).unwrap();
        }

        let mut threaded = ThreadedEngine::spawn(&net, &cp, &ps);
        threaded.run_to_quiescence();
        let cfg = WatchdogConfig::default();
        for ev in &events {
            threaded.stage_event(&churn_event(&net, *ev)).unwrap();
            // A healthy re-convergence must never trip the watchdog.
            assert_eq!(
                threaded.wait_quiescent_watched(&cfg),
                WatchdogVerdict::Converged
            );
        }
        assert_eq!(threaded.epoch(), 2);
        assert_eq!(
            threaded.report().canonical_bytes(),
            reference.report().canonical_bytes()
        );
        let mut churn = ChurnState::new();
        for ev in &events {
            churn.apply(ev);
        }
        assert_eq!(
            threaded.report().canonical_bytes(),
            fresh_report_bytes(&net, &churn)
        );
        assert_eq!(threaded.report().quarantined, vec![b]);
        threaded.shutdown().expect("no panics");
    }

    #[test]
    fn watchdog_flags_wedged_device_and_recovers() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        let mut engine = ThreadedEngine::spawn(&net, &cp, &ps);
        engine.run_to_quiescence();

        // Bump the epoch once so freshness marking is active.
        let down = churn_event(&net, TopologyEvent::LinkDown(a, b));
        engine.stage_event(&down).unwrap();
        let cfg = WatchdogConfig {
            heartbeat: Duration::from_millis(5),
            stall_heartbeats: 3,
        };
        assert_eq!(
            engine.wait_quiescent_watched(&cfg),
            WatchdogVerdict::Converged
        );

        // Wedge W, then hand it work it cannot process: the watchdog
        // must blame exactly the wedged device, not the healthy ones.
        let unblock = engine.inject_hang(w);
        engine.stage_batch(&[RuleUpdate::Insert {
            device: w,
            rule: Rule {
                priority: 50,
                matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
                action: Action::fwd(b),
            },
        }]);
        match engine.wait_quiescent_watched(&cfg) {
            WatchdogVerdict::Stalled { devices } => assert_eq!(devices, vec![w]),
            v => panic!("expected a stall, got {v:?}"),
        }
        // While stalled, the report marks the wedged device's nodes
        // Stale at the stalling epoch — degraded, not wrong.
        let report = engine.report();
        assert!(
            report
                .freshness
                .iter()
                .any(|(_, f)| *f == Freshness::Stale(1)),
            "the wedged device's results must be marked stale"
        );

        // Unblocking lets the backlog drain; a later converged wait
        // clears the stall record and the report is fresh again.
        drop(unblock);
        assert_eq!(
            engine.wait_quiescent_watched(&cfg),
            WatchdogVerdict::Converged
        );
        let report = engine.report();
        assert!(report
            .freshness
            .iter()
            .all(|(_, f)| *f != Freshness::Stale(1)));
        engine.shutdown().expect("no panics");
    }

    #[test]
    fn churn_replan_to_untasked_device_fails_gracefully() {
        // A re-plan that needs a verifier on a device which had no
        // tasks in the running plan cannot be applied live: the engine
        // must refuse with `Unsupported` and stay on the old epoch,
        // not panic or half-apply.
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = fifo_engine(&net, &cp, &ps);
        engine.run_to_quiescence();
        let before = engine.report().canonical_bytes();
        let s = net.topology.device("S").unwrap();
        let d = net.topology.device("D").unwrap();
        // Isolating the destination makes the invariant unplannable.
        let ev = TopologyEvent::DeviceDown(d);
        let err = engine.apply_event(&churn_event(&net, ev));
        if err.is_err() {
            assert_eq!(engine.epoch(), 0, "failed churn must not bump the epoch");
            assert_eq!(engine.report().canonical_bytes(), before);
        } else {
            // If the planner still supports the degenerate topology the
            // engine must at least have stayed coherent.
            assert_eq!(engine.report().quarantined, vec![d]);
        }
        let _ = s;
    }

    /// A link is an in-order channel even when the engine rewinds its
    /// clock with a staged wave in flight: the later send may not
    /// overtake. Once the link runs dry the clamp is gone.
    #[test]
    fn latency_transport_links_are_fifo_across_a_clock_rewind() {
        let net = fig2a_network();
        let (a, b) = (
            net.topology.expect_device("A"),
            net.topology.expect_device("B"),
        );
        let latency = net.topology.link(net.topology.link_between(a, b).unwrap());
        let latency = latency.latency_ns;
        let mut t = LatencyTransport::new(net.topology.clone(), 10_000);
        let numbered = |of| Envelope::data(a, b, Payload::Ack { of });
        t.send(a, 5_000, numbered(1));
        t.send(a, 0, numbered(2)); // the clock was reset in between
        let got: Vec<_> = std::iter::from_fn(|| t.recv()).collect();
        let order: Vec<_> = got.iter().map(|(_, e)| e.payload.clone()).collect();
        assert_eq!(order, [Payload::Ack { of: 1 }, Payload::Ack { of: 2 }]);
        assert_eq!(
            got[1].0,
            5_000 + latency,
            "held back to the earlier arrival"
        );
        t.send(a, 0, numbered(3));
        assert_eq!(t.recv().map(|(at, _)| at), Some(latency));
    }

    /// The Fig. 2 repair: B forwards the broken /24 to the waypoint.
    fn repair(net: &Network) -> RuleUpdate {
        RuleUpdate::Insert {
            device: net.topology.expect_device("B"),
            rule: Rule {
                priority: 50,
                matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
                action: Action::fwd(net.topology.expect_device("W")),
            },
        }
    }

    /// A backend move re-hosts the verifiers under the same lifecycle:
    /// on a clean and on a lossy fabric, after a link-down and the
    /// install of an intent over a second packet space, a move from
    /// intervals to BDDs bumps no epoch and keeps the Report, and a
    /// batch only BDDs hold then lands as on an engine that ran on BDDs
    /// from the start.
    #[test]
    fn rehost_keeps_the_lifecycle_and_the_report() {
        // fig2a without its port and proto rules: a network the
        // intervals hold.
        let mut net = fig2a_network();
        let devices: Vec<DeviceId> = net.topology.devices().collect();
        for dev in devices {
            let fib = net.fib_mut(dev);
            let rich: Vec<Rule> = (fib.rules().iter())
                .filter(|r| r.matches.dst_port.is_some() || r.matches.proto.is_some())
                .cloned()
                .collect();
            for r in rich {
                fib.remove(r.priority, &r.matches);
            }
        }
        assert!(network_ip_only(&net));
        let (cp, ps) = waypoint_plan(&net);
        let dev = |n: &str| net.topology.expect_device(n);
        let down = TopologyEvent::LinkDown(dev("A"), dev("B"));
        let narrow = Invariant {
            packet_space: PacketSpace::dst_prefix("10.0.1.0/24"),
            ..exist_inv("B .* D")
        };
        let acl = RuleUpdate::Insert {
            device: dev("B"),
            rule: Rule {
                priority: 90,
                matches: MatchSpec::dst("10.0.0.0/24".parse().unwrap()).with_port(22),
                action: Action::Drop,
            },
        };
        let run = |lossy: bool, rehost: bool| {
            let cfg = EngineConfig {
                backend: [BackendKind::Bdd, BackendKind::Intervals][rehost as usize],
                ..EngineConfig::default()
            };
            let mut e = match lossy {
                true => Engine::lossy(&net, &cp, &ps, cfg, FaultProfile::loss(5, 0.2)),
                false => Engine::new(&net, &cp, &ps, cfg),
            };
            e.run_to_quiescence();
            e.apply_event(&churn_event(&net, down)).unwrap();
            let install = RuntimeEvent::InstallIntent {
                name: "narrow".into(),
                invariant: narrow.clone(),
            };
            e.apply_event(&install).unwrap();
            let before = (e.epoch(), e.report().canonical_bytes());
            if rehost {
                e.rehost(BackendKind::Bdd);
                assert_eq!(e.backend(), BackendKind::Bdd);
                assert_eq!((e.epoch(), e.report().canonical_bytes()), before);
            }
            e.apply_event(&RuntimeEvent::Batch(vec![acl.clone(), repair(&net)]))
                .unwrap();
            e.report().canonical_bytes()
        };
        let want = run(false, false);
        for lossy in [false, true] {
            assert_eq!(run(lossy, true), want, "lossy: {lossy}");
        }
    }

    /// Construction is a fence share, and so are quarantine, revival
    /// and a crash restart: once built, and after each of those, every
    /// device of each substrate hosts exactly its share of
    /// `ControlPlane::hosted` (a down device hosts nothing) and the
    /// Reports agree; after a backend move it hosts its share again,
    /// with the Report it had before the move.
    #[test]
    fn every_device_hosts_its_share_of_hosted() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let devices: Vec<DeviceId> = net.topology.devices().collect();
        type Hosting = BTreeMap<DeviceId, BTreeSet<NodeId>>;
        // Per device, the nodes the control plane has it host.
        let shares = |c: &mut ControlPlane| -> Hosting {
            let mut hosted = c.hosted();
            let mut nodes = |dev| {
                let share = hosted.remove(dev).unwrap_or_default().tasks.into_iter();
                share.map(|(_, t)| t.node).collect()
            };
            devices.iter().map(|dev| (*dev, nodes(dev))).collect()
        };
        let hosts = |e: &Engine| -> Hosting {
            let verifiers = e.fabric.verifiers.iter();
            verifiers
                .map(|(dev, v)| (*dev, v.node_ids().into_iter().collect()))
                .collect()
        };
        let by_session = |s: &Session| -> Hosting {
            let verifiers = devices.iter().map(|dev| (*dev, s.verifier(*dev)));
            let hosted = |v: Option<&DeviceVerifier>| v.expect("a verifier per device").node_ids();
            verifiers
                .map(|(dev, v)| (dev, hosted(v).into_iter().collect()))
                .collect()
        };
        // A threaded device answers for a node exactly when it hosts it
        // (a hosted node's results cover its scope); fig2a mints fewer
        // than 64 ids.
        let answered = |t: &mut ThreadedEngine| -> Hosting {
            let mut answers = |dev: DeviceId, n: u32| !t.fabric.collect(dev, NodeId(n)).is_empty();
            let mut of = |dev: DeviceId| (0..64).filter(|n| answers(dev, *n)).map(NodeId).collect();
            devices.iter().map(|dev| (*dev, of(*dev))).collect()
        };

        let mut session = Session::from_counting(&net, cp.clone(), &ps);
        let tel = Telemetry::disabled();
        let mut control = ControlPlane::new(&net.topology, net.layout, &cp, &ps, tel);
        assert_eq!(by_session(&session), shares(&mut control));

        let mut e = Engine::new(&net, &cp, &ps, EngineConfig::default());
        assert_eq!(hosts(&e), shares(&mut e.control));

        let mut t = ThreadedEngine::spawn(&net, &cp, &ps);
        t.run_to_quiescence();
        let want = shares(&mut t.control);
        assert!(want.values().flatten().all(|n| n.0 < 64));
        assert_eq!(answered(&mut t), want);
        session.run_to_quiescence();
        let reference = session.report().canonical_bytes();
        assert_eq!(t.report().canonical_bytes(), reference);
        e.run_to_quiescence();
        assert_eq!(e.report().canonical_bytes(), reference);

        let dev = |n: &str| net.topology.expect_device(n);
        let (b, w) = (dev("B"), dev("W"));
        assert!(
            e.intents().nodes_on(w).next().is_some(),
            "the crash hits a host"
        );
        let steps = [
            churn_event(&net, TopologyEvent::DeviceDown(b)),
            churn_event(&net, TopologyEvent::DeviceUp(b)),
            RuntimeEvent::CrashRestart(w),
        ];
        for (i, ev) in steps.iter().enumerate() {
            e.apply_event(ev).unwrap();
            t.apply_event(ev).unwrap();
            session.apply_event(ev).unwrap();
            let want = shares(&mut e.control);
            assert_eq!(want[&b].is_empty(), i == 0, "a down B hosts nothing");
            assert_eq!(hosts(&e), want, "engine after {ev:?}");
            assert_eq!(answered(&mut t), want, "threaded after {ev:?}");
            assert_eq!(by_session(&session), want, "session after {ev:?}");
            let reference = session.report().canonical_bytes();
            assert_eq!(e.report().canonical_bytes(), reference, "after {ev:?}");
            assert_eq!(t.report().canonical_bytes(), reference, "after {ev:?}");
        }
        t.shutdown().expect("no panics");

        // A churned, two-context engine re-hosted on another backend.
        let down = TopologyEvent::LinkDown(dev("A"), dev("B"));
        e.apply_event(&churn_event(&net, down)).unwrap();
        let narrow = Invariant {
            packet_space: PacketSpace::dst_prefix("10.0.1.0/24"),
            ..exist_inv("B .* D")
        };
        let install = RuntimeEvent::InstallIntent {
            name: "narrow".into(),
            invariant: narrow,
        };
        e.apply_event(&install).unwrap();
        let before = e.report().canonical_bytes();
        e.rehost(BackendKind::Bdd);
        assert_eq!(hosts(&e), shares(&mut e.control));
        assert_eq!(e.report().canonical_bytes(), before);
    }

    /// §6: a failed device drops out of the counting. Once B is down
    /// under `S .* W .* D`, its verifier hosts no node, so a FIB batch
    /// at B recounts nothing and sends nothing: on the event engine,
    /// the threaded engine and the reference session alike.
    #[test]
    fn a_down_device_hosts_nothing_and_says_nothing() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let b = net.topology.expect_device("B");
        let down = TopologyEvent::DeviceDown(b);
        let batch = [repair(&net)];

        let mut e = Engine::new(&net, &cp, &ps, EngineConfig::default());
        e.run_to_quiescence();
        e.apply_event(&churn_event(&net, down)).unwrap();
        let sent = |e: &Engine| e.stats().per_device[&b].bytes_sent;
        assert_eq!(
            e.fabric.verifiers[&b].node_ids(),
            [],
            "engine: B hosts nothing"
        );
        let before = sent(&e);
        assert_eq!(
            e.apply_event(&RuntimeEvent::Batch(batch.to_vec()))
                .unwrap()
                .messages,
            0,
            "engine: sent"
        );
        assert_eq!(sent(&e), before, "engine: B sent");

        let mut s = Session::from_counting(&net, cp.clone(), &ps);
        s.run_to_quiescence();
        s.apply_event(&churn_event(&net, down)).unwrap();
        let hosted = s.verifier(b).map(|v| v.node_ids());
        assert_eq!(hosted, Some(Vec::new()), "session: B hosts nothing");
        // The session delivers everything the batch sent.
        let out = s.apply_event(&RuntimeEvent::Batch(batch.to_vec()));
        assert_eq!(out.unwrap().messages, 0, "session: delivered");

        // A threaded verifier is reached through its channel: B answers
        // for no node, and the batch delivers no message to anyone.
        let tel = Telemetry::new(tulkun_telemetry::TelemetryConfig::enabled());
        let cfg = EngineConfig {
            telemetry: tel.clone(),
            ..EngineConfig::default()
        };
        let mut t = ThreadedEngine::spawn_with(&net, &cp, &ps, &cfg);
        t.run_to_quiescence();
        t.apply_event(&churn_event(&net, down)).unwrap();
        let minted = t.intents().global_tasks().iter().map(|t| t.node.0).max();
        let bound = minted.map_or(0, |n| n + 8);
        let answers = (0..bound).filter(|n| !t.fabric.collect(b, NodeId(*n)).is_empty());
        assert_eq!(answers.count(), 0, "threaded: B hosts nothing");
        let delivered = || {
            let counters = tel.metrics().counters;
            let get = |name: &str| counters.get(name).copied().unwrap_or(0);
            get("tulkun_dvm_updates_total") + get("tulkun_dvm_subscribes_total")
        };
        let before = delivered();
        t.apply_event(&RuntimeEvent::Batch(batch.to_vec())).unwrap();
        assert_eq!(delivered(), before, "threaded: delivered");
        t.shutdown().expect("no panics");
    }

    /// The event simulator over fig2a's waypoint plan, not yet driven.
    fn waypoint_sim() -> (Network, Engine) {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let sim = Engine::new(&net, &cp, &ps, EngineConfig::default());
        (net, sim)
    }

    #[test]
    fn burst_matches_reference_semantics() {
        let (_, mut sim) = waypoint_sim();
        let r = sim.run_to_quiescence();
        assert!(r.messages > 0);
        assert!(r.completion_ns > 0);
        // Same verdict as the synchronous reference driver.
        let report = sim.report();
        assert!(!report.holds());
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn completion_includes_propagation_latency() {
        let (net, mut sim) = waypoint_sim();
        let r = sim.run_to_quiescence();
        // At least one message crossed a link, so completion exceeds one
        // link latency (1000 ns in fig2a).
        let links = net.topology.links();
        let min_lat = links.iter().map(|l| l.latency_ns).min().unwrap();
        assert!(r.completion_ns >= min_lat);
    }

    #[test]
    fn incremental_update_converges_and_is_cheaper() {
        let (net, mut sim) = waypoint_sim();
        let burst = sim.run_to_quiescence();
        let incr = sim
            .apply_event(&RuntimeEvent::Batch(vec![repair(&net)]))
            .unwrap();
        assert!(sim.report().holds());
        assert!(incr.messages < burst.messages);
    }

    fn reachability_plan(net: &Network) -> (CountingPlan, PacketSpace) {
        use tulkun_core::spec::table1;
        let inv = table1::reachability(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "D").unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        (plan.counting().unwrap().clone(), inv.packet_space)
    }

    #[test]
    fn local_contract_counterpart_runs() {
        // Smoke-check the all-shortest-path invariant through the
        // counting path as well (sanity that deliver actions work).
        let net = fig2a_network();
        let (cp, ps) = reachability_plan(&net);
        let mut sim = Engine::new(&net, &cp, &ps, EngineConfig::default());
        sim.run_to_quiescence();
        assert!(sim.report().holds());
    }

    #[test]
    fn slower_switch_models_scale_completion() {
        // The same workload on the ARM (Centec) model must report a
        // longer simulated completion than on the x86 (Mellanox) model
        // whenever CPU time is a visible fraction of completion.
        let net = fig2a_network();
        let (cp, ps) = reachability_plan(&net);
        let total_cpu = |model: SwitchModel| {
            let cfg = EngineConfig {
                model,
                ..Default::default()
            };
            let mut sim = Engine::new(&net, &cp, &ps, cfg);
            sim.run_to_quiescence();
            let per_device = sim.stats().per_device.values();
            per_device.map(|s| s.init_ns + s.busy_ns).sum::<u64>()
        };
        let fast = total_cpu(SwitchModel::MELLANOX);
        let slow = total_cpu(SwitchModel::CENTEC);
        // Wall-clock noise exists, but a 2.5x scale factor dominates it.
        assert!(
            slow > fast,
            "Centec ({slow}) must accumulate more CPU than Mellanox ({fast})"
        );
    }

    #[test]
    fn lossy_engine_report_matches_clean_engine() {
        let (net, mut clean) = waypoint_sim();
        clean.run_to_quiescence();
        let reference = clean.report().canonical_bytes();
        let (cp, ps) = waypoint_plan(&net);
        let profile = FaultProfile::loss(3, 0.10);
        let mut faulty = Engine::lossy(&net, &cp, &ps, EngineConfig::default(), profile);
        faulty.run_to_quiescence();
        assert_eq!(
            faulty.report().canonical_bytes(),
            reference,
            "10% loss must be invisible to the Report"
        );
        let f = faulty.stats().fault;
        assert!(f.drops > 0, "loss profile must drop something");
        assert!(f.retransmits >= f.drops);
        assert!(f.acks > 0);

        // A crash mid-run over the faulty channel also recovers.
        let w = net.topology.device("W").unwrap();
        faulty.apply_event(&RuntimeEvent::CrashRestart(w)).unwrap();
        assert_eq!(faulty.report().canonical_bytes(), reference);
        assert_eq!(faulty.stats().crashes_recovered, 1);
    }

    #[test]
    fn churn_under_loss_matches_clean_engine() {
        // Topology churn over a lossy channel: the epoch fence wipes
        // the reliability layer's in-flight state, and re-convergence
        // must still reach the clean substrate's exact report.
        let (net, mut clean) = waypoint_sim();
        clean.run_to_quiescence();
        let (cp, ps) = waypoint_plan(&net);
        let profile = FaultProfile::loss(9, 0.10);
        let mut faulty = Engine::lossy(&net, &cp, &ps, EngineConfig::default(), profile);
        faulty.run_to_quiescence();
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        use TopologyEvent as Ev;
        for ev in [Ev::LinkDown(a, b), Ev::DeviceDown(b), Ev::DeviceUp(b)] {
            for sim in [&mut clean, &mut faulty] {
                sim.apply_event(&churn_event(&net, ev)).unwrap();
            }
            assert_eq!(
                faulty.report().canonical_bytes(),
                clean.report().canonical_bytes(),
                "churn {ev:?} must converge identically under 10% loss"
            );
        }
        assert_eq!(clean.epoch(), 3);
        assert_eq!(faulty.epoch(), 3);
        // A crash_restart composed after churn still reconverges.
        clean.apply_event(&RuntimeEvent::CrashRestart(w)).unwrap();
        faulty.apply_event(&RuntimeEvent::CrashRestart(w)).unwrap();
        assert_eq!(
            faulty.report().canonical_bytes(),
            clean.report().canonical_bytes()
        );
    }

    /// Completion times are per round over a lossy network too: the
    /// transport's retransmission clock rewinds with the engine's, so
    /// the fortieth flap of a link converges as fast as the first. (On
    /// WAN-scale links: with fig2a's 1 µs links what follows a late
    /// retransmission is too short for a stale clock to show.)
    #[test]
    fn repeated_flaps_under_loss_do_not_accumulate_completion_time() {
        let mut net = fig2a_network();
        let mut wan = Topology::new();
        for d in net.topology.devices() {
            wan.add_device(net.topology.name(d));
        }
        for l in net.topology.links() {
            wan.add_link(l.a, l.b, 1_000_000);
        }
        for (d, prefix) in net.topology.external_map() {
            wan.add_external_prefix(d, prefix);
        }
        net.topology = wan;
        let (cp, ps) = waypoint_plan(&net);
        let profile = FaultProfile::loss(9, 0.10);
        let mut faulty = Engine::lossy(&net, &cp, &ps, EngineConfig::default(), profile);
        faulty.run_to_quiescence();
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();
        use TopologyEvent as Ev;
        let mut flaps = Vec::new();
        for _ in 0..40 {
            let mut ns = 0;
            for ev in [Ev::LinkDown(a, b), Ev::LinkUp(a, b)] {
                let r = faulty.apply_event(&churn_event(&net, ev));
                ns += r.unwrap().completion_ns;
            }
            flaps.push(ns);
        }
        let mean = |r: &[u64]| r.iter().sum::<u64>() / r.len() as u64;
        let (first, last) = (mean(&flaps[..10]), mean(&flaps[30..]));
        assert!(
            last <= 2 * first,
            "first ten {first} ns, last ten {last} ns"
        );
    }

    #[test]
    fn device_stats_are_collected() {
        let (_, mut sim) = waypoint_sim();
        sim.run_to_quiescence();
        let stats = &sim.stats().per_device;
        assert!(!stats.is_empty());
        assert!(stats.values().any(|s| s.messages > 0));
        assert!(stats.values().all(|s| s.bdd_nodes > 2));
    }

    /// Fig. 15's per-message distribution is booked by the device step,
    /// so both fabrics fill it: one observation per delivered message,
    /// its maximum the largest device's.
    #[test]
    fn both_fabrics_book_the_per_message_distribution() {
        let (net, mut engine, mut threaded, _) = both_fabrics(&waypoint_inv());
        engine
            .apply_event(&RuntimeEvent::Batch(vec![repair(&net)]))
            .unwrap();
        threaded
            .apply_event(&RuntimeEvent::Batch(vec![repair(&net)]))
            .unwrap();
        let engine_stats = engine.stats().clone();
        for stats in [engine_stats, threaded.shutdown().expect("no panics")] {
            let msg_ns = stats.msg_ns();
            assert!(stats.messages() > 0);
            assert_eq!(msg_ns.count(), stats.messages());
            let max = stats.per_device.values().map(|s| s.msg_ns.max()).max();
            assert_eq!(Some(msg_ns.max()), max);
        }
    }

    /// A crash restart costs only what it touches: on either fabric W's
    /// restart share is one injected op, and only the devices its
    /// tasks name as upstream or downstream replay toward it.
    #[test]
    fn a_crash_restart_injects_on_the_device_and_its_peers_only() {
        let (net, mut engine, mut threaded, tels) = both_fabrics(&waypoint_inv());
        let w = net.topology.expect_device("W");
        let on_w = engine
            .intents()
            .global_tasks()
            .into_iter()
            .filter(|t| t.dev == w);
        let ends = on_w.flat_map(|t| [t.upstream, t.downstream].concat());
        let peers: BTreeSet<DeviceId> = ends.map(|(_, d)| d).filter(|d| *d != w).collect();
        assert!(peers.len() + 1 < net.topology.num_devices(), "{peers:?}");
        let injected = |tel: &Telemetry| tel.histogram(INJECT.hist).count();
        let before = tels.each_ref().map(|tel| injected(tel));
        let crash = RuntimeEvent::CrashRestart(w);
        engine.apply_event(&crash).unwrap();
        threaded.apply_event(&crash).unwrap();
        threaded.shutdown().expect("no panics");
        for (tel, before) in tels.iter().zip(before) {
            assert_eq!(injected(tel) - before, 1 + peers.len() as u64);
        }
    }

    /// Every span with a duration is a timed layer feeding exactly one
    /// histogram: over a burst, a FIB batch, an install, a link-down and
    /// a crash on either fabric, each layer's span count equals its
    /// histogram's count, the envelope layers together `HANDLE_NS`'s.
    /// The install and the link-down run the planner and re-intern the
    /// slices they changed, each inside its `fence.plan` span.
    #[test]
    fn every_duration_span_feeds_one_histogram() {
        use tulkun_telemetry::{
            SpanEvent, CIB_RECOMPUTE, FIB_BATCH, HANDLE_NS, INTENT_REFIT, LEC_DELTA, PLANNER_PLAN,
        };
        let (net, mut engine, mut threaded, tels) = both_fabrics(&waypoint_inv());
        let (a, b) = (
            net.topology.expect_device("A"),
            net.topology.expect_device("B"),
        );
        let script = [
            RuntimeEvent::Batch(vec![repair(&net)]),
            RuntimeEvent::InstallIntent {
                name: "from-a".into(),
                invariant: from_a(),
            },
            churn_event(&net, TopologyEvent::LinkDown(a, b)),
            RuntimeEvent::CrashRestart(net.topology.expect_device("W")),
        ];
        for ev in &script {
            engine.apply_event(ev).unwrap();
            threaded.apply_event(ev).unwrap();
        }
        threaded.shutdown().expect("no panics");
        let layers = [
            DVM_UPDATE,
            DVM_SUBSCRIBE,
            DVM_ACK,
            INJECT,
            FIB_BATCH,
            LEC_DELTA,
            CIB_RECOMPUTE,
            INIT_BUILD,
            FENCE_PLAN,
            PLANNER_PLAN,
            INTENT_REFIT,
        ];
        // A rewriting hop subscribes (fig2a has none), and the reliable
        // transport consumes acks before any verifier sees them.
        let never = [DVM_SUBSCRIBE.span, DVM_ACK.span];
        for tel in &tels {
            assert_eq!(tel.spans_dropped(), 0);
            let spans = tel.spans();
            let timed: Vec<&str> = spans.iter().filter(|s| s.dur > 0).map(|s| s.name).collect();
            let mut per_hist: BTreeMap<&str, u64> = BTreeMap::new();
            for l in &layers {
                let n = timed.iter().filter(|&&name| name == l.span).count() as u64;
                assert_eq!(n == 0, never.contains(&l.span), "{}: {n} spans", l.span);
                *per_hist.entry(l.hist).or_default() += n;
            }
            assert_eq!(
                per_hist.values().sum::<u64>(),
                timed.len() as u64,
                "{timed:?}"
            );
            for (hist, n) in per_hist {
                assert_eq!(tel.histogram(hist).count(), n, "{hist}");
            }
            let envelopes = [DVM_UPDATE, DVM_SUBSCRIBE, DVM_ACK].map(|l| l.span);
            let handled = timed.iter().filter(|name| envelopes.contains(name)).count();
            assert_eq!(tel.histogram(HANDLE_NS).count(), handled as u64);
            let within = |outer: &SpanEvent, inner: &SpanEvent| {
                outer.begin <= inner.begin && inner.begin + inner.dur <= outer.begin + outer.dur
            };
            let fences: Vec<&SpanEvent> =
                spans.iter().filter(|s| s.name == FENCE_PLAN.span).collect();
            for inner in spans
                .iter()
                .filter(|s| [PLANNER_PLAN.span, INTENT_REFIT.span].contains(&s.name))
            {
                assert!(
                    fences.iter().any(|f| within(f, inner)),
                    "{inner:?} outside every fence.plan"
                );
            }
        }
    }

    #[test]
    fn threaded_run_matches_reference() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut run = ThreadedEngine::spawn(&net, &cp, &ps);
        run.run_to_quiescence();
        let report = run.report();
        assert!(!report.holds());
        assert_eq!(report.violations.len(), 1);

        // Incremental fix, as in Fig. 2.
        run.apply_event(&RuntimeEvent::Batch(vec![repair(&net)]))
            .unwrap();
        let report = run.report();
        assert!(report.holds(), "{:?}", report.violations);
        let stats = run.shutdown().expect("clean shutdown");
        assert!(stats.messages() > 0);
        assert!(stats.per_device.values().any(|s| s.busy_ns > 0));
    }

    /// Reachability from A: a plan that tasks nothing on S.
    fn from_a() -> Invariant {
        exist_inv("A .* D")
    }

    /// Both fabrics over one plan of fig2a under the default config,
    /// converged, each journaling into its own recorder.
    fn both_fabrics(inv: &Invariant) -> (Network, Engine, ThreadedEngine, [Arc<Telemetry>; 2]) {
        let net = fig2a_network();
        let plan = Planner::new(&net.topology).plan(inv).unwrap();
        let (cp, ps) = (plan.counting().unwrap(), &inv.packet_space);
        let tels = [(); 2].map(|()| Telemetry::new(tulkun_telemetry::TelemetryConfig::enabled()));
        let cfg = |tel: &Arc<Telemetry>| EngineConfig {
            telemetry: tel.clone(),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(&net, cp, ps, cfg(&tels[0]));
        engine.run_to_quiescence();
        let mut threaded = ThreadedEngine::spawn_with(&net, cp, ps, &cfg(&tels[1]));
        threaded.run_to_quiescence();
        (net, engine, threaded, tels)
    }

    /// A recorder's journal as (kind, epoch, intent) records.
    fn lifecycle(tel: &Telemetry) -> Vec<(JournalKind, u64, Option<u64>)> {
        let events = tel.journal_events();
        events.iter().map(|e| (e.kind, e.epoch, e.intent)).collect()
    }

    /// Fig. 2a's base `A .* D` tasks nothing on S. Installing `S .* D`
    /// tasks it, and losing A–B re-plans both slices: each fabric takes
    /// every event — both built S's verifier at construction, and the
    /// install's fence first tasks it — and they end on one Report and
    /// one journal.
    #[test]
    fn a_threaded_engine_hosts_an_intent_the_base_skips() {
        let (net, mut engine, mut threaded, tels) = both_fabrics(&from_a());
        let dev = |name: &str| net.topology.expect_device(name);
        let on_s = |e: &Engine| e.intents().global_tasks().iter().any(|t| t.dev == dev("S"));
        assert!(!on_s(&engine));
        let script = [
            RuntimeEvent::InstallIntent {
                name: "from-s".into(),
                invariant: exist_inv("S .* D"),
            },
            RuntimeEvent::Topology {
                event: TopologyEvent::LinkDown(dev("A"), dev("B")),
                base: net.topology.clone(),
                invariant: from_a(),
            },
        ];
        for ev in &script {
            let x = engine.apply_event(ev).unwrap();
            let y = threaded.apply_event(ev).unwrap();
            assert_eq!((x.intent, x.parked), (y.intent, y.parked));
            assert_eq!(
                engine.report().canonical_bytes(),
                threaded.report().canonical_bytes(),
                "after {ev:?}"
            );
        }
        assert!(on_s(&engine), "the install tasks S");
        assert_eq!(engine.epoch(), 2);
        assert_eq!(lifecycle(&tels[0]), lifecycle(&tels[1]));
        threaded.shutdown().expect("no panics");
    }

    /// A crash names a topology device, not a verifier: crashing S,
    /// which hosts no node of `A .* D`, is journaled and counted alike
    /// on both fabrics and leaves the Report as it was; an id outside
    /// the topology names no agent.
    #[test]
    fn crashing_a_device_that_hosts_no_node_is_journaled_alike_on_both_fabrics() {
        let (net, mut engine, mut threaded, tels) = both_fabrics(&from_a());
        let s = net.topology.expect_device("S");
        assert!(engine.intents().global_tasks().iter().all(|t| t.dev != s));
        let before = engine.report().canonical_bytes();
        for dev in [s, DeviceId(net.topology.num_devices() as u32)] {
            engine
                .apply_event(&RuntimeEvent::CrashRestart(dev))
                .unwrap();
            threaded
                .apply_event(&RuntimeEvent::CrashRestart(dev))
                .unwrap();
        }
        assert_eq!(engine.report().canonical_bytes(), before);
        assert_eq!(threaded.report().canonical_bytes(), before);
        let journal = lifecycle(&tels[0]);
        let kinds: Vec<&str> = journal.iter().map(|e| e.0.as_str()).collect();
        assert_eq!(kinds, ["crash_restart"]);
        assert_eq!(lifecycle(&tels[1]), journal);
        assert_eq!(engine.stats().crashes_recovered, 1);
        assert_eq!(threaded.shutdown().unwrap().crashes_recovered, 1);
    }

    #[test]
    fn a_link_down_fence_books_busy_time_on_every_retasked_device() {
        let (net, mut sim) = waypoint_sim();
        sim.run_to_quiescence();
        let tasks = sim.intents().global_tasks();
        let busy = |sim: &Engine| -> BTreeMap<DeviceId, u64> {
            let per_device = sim.stats().per_device.iter();
            per_device.map(|(d, s)| (*d, s.busy_ns)).collect()
        };
        let before = busy(&sim);
        let (a, b) = (
            net.topology.expect_device("A"),
            net.topology.expect_device("B"),
        );
        let down = churn_event(&net, TopologyEvent::LinkDown(a, b));
        sim.apply_event(&down).unwrap();
        let after = busy(&sim);
        let retasked = sim.intents().global_tasks().into_iter();
        let retasked: Vec<DeviceId> = retasked
            .filter(|t| !tasks.contains(t))
            .map(|t| t.dev)
            .collect();
        assert!(!retasked.is_empty(), "losing A–B re-tasks someone");
        for dev in retasked {
            let was = before.get(&dev).copied().unwrap_or(0);
            assert!(after[&dev] > was, "{dev:?} was re-tasked for free");
        }
    }

    /// One script of every lifecycle event, through the uniform entry
    /// point of both fabrics: the journals must agree record for record
    /// — what the equivalence harness (`tests/matrix.rs`) checks after
    /// every op of every case.
    #[test]
    fn both_fabrics_journal_one_lifecycle() {
        let (net, mut engine, mut threaded, tels) = both_fabrics(&waypoint_inv());
        let (a, b) = (
            net.topology.expect_device("A"),
            net.topology.expect_device("B"),
        );
        let script = [
            RuntimeEvent::Batch(vec![repair(&net)]),
            RuntimeEvent::InstallIntent {
                name: "from-a".into(),
                invariant: from_a(),
            },
            churn_event(&net, TopologyEvent::LinkDown(a, b)),
            RuntimeEvent::CrashRestart(net.topology.expect_device("W")),
            RuntimeEvent::RemoveIntent(IntentId(1)),
        ];
        for ev in &script {
            let x = engine.apply_event(ev).unwrap();
            let y = threaded.apply_event(ev).unwrap();
            let slice = |o: &EventOutcome| (o.delta.total_nodes, o.delta.reused_nodes);
            assert_eq!(
                (x.intent, slice(&x), x.parked),
                (y.intent, slice(&y), y.parked)
            );
        }
        assert_eq!(lifecycle(&tels[0]).len(), 8, "{:?}", lifecycle(&tels[0]));
        assert_eq!(lifecycle(&tels[0]), lifecycle(&tels[1]));
        assert_eq!(
            engine.report().canonical_bytes(),
            threaded.report().canonical_bytes()
        );
        threaded.shutdown().expect("no panics");
    }
}
