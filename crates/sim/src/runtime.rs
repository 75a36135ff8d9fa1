//! The shared device-runtime layer.
//!
//! The paper's core claim is that the *same* on-device verifier code
//! runs everywhere — testbed switches, simulation, emulation (§8–9).
//! This module is the repro's embodiment of that claim: one generic
//! [`Engine`] owns verifier construction, envelope routing, quiescence
//! detection, result collection and [`Report`] assembly, while the
//! execution substrates differ only in two small policy objects:
//!
//! * a [`Transport`] decides *when and in what order* envelopes are
//!   delivered ([`LatencyTransport`] replays topology link latencies
//!   through a virtual-time heap; [`FifoTransport`] delivers instantly
//!   in order — the synchronous reference semantics);
//! * a [`Clock`] decides *what processing costs* (a [`VirtualClock`]
//!   charges measured host CPU time scaled by a [`SwitchModel`] to a
//!   per-device timeline; an [`InstantClock`] charges nothing).
//!
//! The genuinely concurrent substrate — one OS thread per device, the
//! deployment shape of the paper's prototype — is [`ThreadedEngine`].
//! It shares the engine's constructor ([`build_verifiers`]), its
//! quiescence rule (an in-flight gauge: a message's outputs are counted
//! before its own count is released) and its [`RuntimeStats`]; only the
//! driver loop runs on worker threads instead of a pull loop.
//!
//! Epoch fences cost what they change. [`Transport::epoch_fence`]
//! returns what it dropped and [`ThreadedEngine`] reads its in-flight
//! gauge; only a non-zero answer makes the devices run the repair wave
//! (`ControlPlane::seal`). A fence on a quiescent exchange delivers the
//! changed tasks and nothing else.
//!
//! Every substrate reports through one [`RuntimeStats`] so the Fig. 14
//! (init overhead), Fig. 15 (message overhead) and ablation harnesses
//! read a single API regardless of how the verifiers were driven.
//!
//! Adding a new backend (real TCP, sharded partitions) means writing a
//! `Transport` impl — roughly a hundred lines — not a fourth copy of
//! the spawn/route/quiesce/collect loop.

use crate::models::SwitchModel;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tulkun_bdd::serial::PortablePred;
use tulkun_core::churn::TopologyEvent;
use tulkun_core::control::{ControlPlane, Decision, FencePlan};
use tulkun_core::count::Counts;
use tulkun_core::dpvnet::NodeId;
use tulkun_core::dvm::{DeviceVerifier, Envelope, Payload, VerifierConfig};
use tulkun_core::event::{EventOutcome, RuntimeEvent, Substrate};
use tulkun_core::fault::FaultStats;
use tulkun_core::intent::{IntentDelta, IntentId, IntentStore};
use tulkun_core::planner::{CountingPlan, NodeTask, PlanError};
use tulkun_core::spec::{Invariant, PacketSpace};
use tulkun_core::verify::{self, Report};
use tulkun_netmodel::network::{Network, RuleUpdate, UpdateBatch};
use tulkun_netmodel::{DeviceId, Topology};
use tulkun_predicate::{network_ip_only, BackendKind};
use tulkun_telemetry::{JournalKind, Reservoir, Telemetry, HANDLE_NS};

/// One device's exported LEC table (predicates + actions).
pub type LecTable = Vec<(PortablePred, tulkun_netmodel::fib::Action)>;

/// Number of lock shards in a [`LecCache`]. Device ids hash trivially
/// (`idx % SHARDS`), so any modest power of two spreads contention.
const LEC_CACHE_SHARDS: usize = 16;

/// A shared per-device LEC-table cache (exported predicates + actions),
/// valid as long as the device's FIB is unchanged. One device builds
/// its LEC table once for all invariants — the paper's §8 architecture.
///
/// The cache is sharded per device: each shard has its own lock, and
/// tables are handed out as `Arc`s, so `parallel_init` workers and
/// concurrent batch application never serialize on one global `Mutex`.
/// All methods take `&self`; existing `&mut LecCache` call sites keep
/// working through auto-coercion.
///
/// Generic over the stored value; the default [`LecTable`] holds the
/// backend-neutral wire encoding (exported predicates are canonical
/// ROBDD bytes whatever backend produced them), so one cache serves
/// engines running different predicate backends.
pub struct LecCache<V = LecTable> {
    shards: [Mutex<BTreeMap<DeviceId, Arc<V>>>; LEC_CACHE_SHARDS],
}

impl<V> LecCache<V> {
    /// An empty cache.
    pub fn new() -> LecCache<V> {
        LecCache {
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
        }
    }

    fn shard(&self, dev: DeviceId) -> &Mutex<BTreeMap<DeviceId, Arc<V>>> {
        &self.shards[dev.idx() % LEC_CACHE_SHARDS]
    }

    /// The cached LEC table of a device, if any.
    pub fn get(&self, dev: DeviceId) -> Option<Arc<V>> {
        self.shard(dev).lock().unwrap().get(&dev).cloned()
    }

    /// Caches a device's exported LEC table.
    pub fn insert(&self, dev: DeviceId, lecs: V) {
        self.shard(dev).lock().unwrap().insert(dev, Arc::new(lecs));
    }

    /// Number of devices with a cached table.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True if no device has a cached table.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().unwrap().is_empty())
    }
}

impl<V> Default for LecCache<V> {
    fn default() -> LecCache<V> {
        LecCache::new()
    }
}

/// Per-device counters for the §9.4 overhead figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceStats {
    /// Scaled CPU time spent initializing (LEC + initial counting).
    pub init_ns: u64,
    /// Scaled CPU time spent processing DVM messages.
    pub busy_ns: u64,
    /// DVM messages processed.
    pub messages: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Backend memory units allocated (BDD nodes, stored intervals or
    /// atom-list entries, depending on the predicate backend).
    pub bdd_nodes: usize,
    /// Largest scaled single-message processing time (ns). Per-message
    /// *samples* live in [`RuntimeStats::msg_ns_samples`].
    pub max_msg_ns: u64,
}

impl DeviceStats {
    fn absorb_message(&mut self, cpu_ns: u64, bytes_sent: u64, bdd_nodes: usize) {
        self.busy_ns += cpu_ns;
        self.messages += 1;
        self.max_msg_ns = self.max_msg_ns.max(cpu_ns);
        self.bytes_sent += bytes_sent;
        self.bdd_nodes = bdd_nodes;
    }
}

/// The single observability surface of the runtime layer: every
/// substrate fills one of these, and every harness (Fig. 14, Fig. 15,
/// the ablation bench) reads it the same way.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Per-device overhead counters.
    pub per_device: BTreeMap<DeviceId, DeviceStats>,
    /// Scaled per-message processing-time samples (ns), offered in
    /// delivery order to a bounded reservoir
    /// ([`tulkun_telemetry::RESERVOIR_CAP`] = 65 536 kept samples, a
    /// deterministic uniform sample once a long replay exceeds the
    /// cap — unbounded growth was a leak on multi-million-message
    /// runs). Drain with [`RuntimeStats::drain_msg_samples`] (the
    /// Fig. 15 harness does).
    pub msg_ns_samples: Reservoir,
    /// Messages delivered across all devices.
    pub messages: usize,
    /// Total bytes on the wire.
    pub bytes: u64,
    /// Reliability-layer counters (drops, retransmits, acks, …) when the
    /// run used a fault-injecting transport; all-zero otherwise.
    pub fault: FaultStats,
    /// Device crash/restart events recovered without aborting the run.
    pub crashes_recovered: u64,
}

impl RuntimeStats {
    /// Takes the per-message samples kept so far, leaving the
    /// reservoir empty (so repeated harness phases don't
    /// double-count).
    pub fn drain_msg_samples(&mut self) -> Vec<u64> {
        self.msg_ns_samples.drain()
    }

    /// Histogram of the current per-message samples: `bounds` are the
    /// inclusive upper edges of each bucket; one overflow bucket is
    /// appended, so the result has `bounds.len() + 1` entries.
    pub fn msg_ns_histogram(&self, bounds: &[u64]) -> Vec<usize> {
        let mut h = vec![0usize; bounds.len() + 1];
        for &s in self.msg_ns_samples.as_slice() {
            let i = bounds.iter().position(|&b| s <= b).unwrap_or(bounds.len());
            h[i] += 1;
        }
        h
    }

    /// Largest single-message processing time across all devices.
    pub fn max_msg_ns(&self) -> u64 {
        self.per_device
            .values()
            .map(|s| s.max_msg_ns)
            .max()
            .unwrap_or(0)
    }

    fn merge_device(&mut self, dev: DeviceId, st: DeviceStats) {
        let e = self.per_device.entry(dev).or_default();
        e.init_ns += st.init_ns;
        e.busy_ns += st.busy_ns;
        e.messages += st.messages;
        e.bytes_sent += st.bytes_sent;
        e.bdd_nodes = st.bdd_nodes;
        e.max_msg_ns = e.max_msg_ns.max(st.max_msg_ns);
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

/// Maps measured host CPU time onto a substrate's notion of time.
pub trait Clock {
    /// Charges `host_ns` of measured work to `dev` for a message that
    /// arrived at `arrival`; returns the occupied span.
    fn charge(&mut self, dev: DeviceId, arrival: u64, host_ns: u64) -> Span;
    /// Resets all per-device timelines to zero (per-event relative
    /// timing, as the incremental harnesses need).
    fn reset(&mut self);
    /// Marks a device busy until `t` without charging CPU (used when
    /// init cost is accounted outside the message loop).
    fn set_free_at(&mut self, dev: DeviceId, t: u64);
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
}

impl Clock for VirtualClock {
    fn charge(&mut self, dev: DeviceId, arrival: u64, host_ns: u64) -> Span {
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

    fn reset(&mut self) {
        for t in self.free_at.values_mut() {
            *t = 0;
        }
    }

    fn set_free_at(&mut self, dev: DeviceId, t: u64) {
        self.free_at.insert(dev, t);
    }
}

/// The zero-cost clock of the synchronous reference substrate: message
/// processing takes no simulated time, so only the verdict (not the
/// timeline) is meaningful.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstantClock;

impl Clock for InstantClock {
    fn charge(&mut self, _dev: DeviceId, _arrival: u64, _host_ns: u64) -> Span {
        Span {
            begin: 0,
            cpu_ns: 0,
            finish: 0,
        }
    }
    fn reset(&mut self) {}
    fn set_free_at(&mut self, _dev: DeviceId, _t: u64) {}
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
    /// The topology changed under live churn; latency-aware transports
    /// re-route future sends against the new link set.
    fn set_topology(&mut self, _topo: &Topology) {}
}

/// A boxed transport is a transport: lets one engine type run over a
/// transport chosen at run time (the service's clean or lossy channel).
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, from: DeviceId, at: u64, env: Envelope) {
        (**self).send(from, at, env)
    }
    fn recv(&mut self) -> Option<(u64, Envelope)> {
        (**self).recv()
    }
    fn fault_stats(&self) -> Option<FaultStats> {
        (**self).fault_stats()
    }
    fn epoch_fence(&mut self, epoch: u64) -> usize {
        (**self).epoch_fence(epoch)
    }
    fn purge_for_restart(&mut self, dev: DeviceId) {
        (**self).purge_for_restart(dev)
    }
    fn set_topology(&mut self, topo: &Topology) {
        (**self).set_topology(topo)
    }
}

/// Delivery through the topology's links: each envelope arrives after
/// its link's propagation latency, and the earliest arrival is
/// delivered first (a virtual-time event heap). A link is an in-order
/// channel: a later send never overtakes an earlier one on the same
/// directed link, even when the engine rewinds its clock for a new
/// round while a staged wave is still in flight.
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

    fn set_topology(&mut self, topo: &Topology) {
        self.topo = topo.clone();
    }
}

/// Is this in-flight envelope invalidated by `dev` crash-restarting?
/// Anything addressed to the rebooted device, plus any ack it sent
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
    /// Latency used when two communicating devices share no direct
    /// link.
    pub fallback_latency_ns: u64,
    /// Build per-device verifiers (LEC tables + initial counting)
    /// concurrently with scoped threads. The resulting [`Report`] is
    /// identical to sequential init — construction is deterministic
    /// per device and initial envelopes are enqueued in device order —
    /// but wall-clock burst-init time drops on multi-core hosts.
    pub parallel_init: bool,
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
    /// Build a verifier for *every* topology device, not only those
    /// with tasks in the initial plan. The threaded substrate cannot
    /// add device threads after spawn, so runtime intent installs
    /// ([`ThreadedEngine::install_intent`]) that pull in a previously
    /// task-less device need its thread to already exist. Off by
    /// default: idle verifiers cost init time on large topologies.
    pub all_devices: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            model: SwitchModel::MELLANOX,
            fallback_latency_ns: 10_000,
            parallel_init: false,
            telemetry: Telemetry::disabled(),
            backend: BackendKind::Bdd,
            all_devices: false,
        }
    }
}

/// Causal trace id of the initial burst wave (every later internal
/// event allocates a fresh id starting at [`FIRST_EVENT_TRACE`]).
const INIT_TRACE: u64 = 1;
/// First trace id handed to post-burst events.
const FIRST_EVENT_TRACE: u64 = 2;

/// Span name for one handled DVM envelope, by payload kind.
fn dvm_span_name(payload: &Payload) -> &'static str {
    match payload {
        Payload::Update { .. } => "dvm.update",
        Payload::Subscribe { .. } => "dvm.subscribe",
        Payload::Ack { .. } => "dvm.ack",
    }
}

/// The configured backend, checked against the network's workload.
fn checked_backend(cfg: &EngineConfig, net: &Network) -> BackendKind {
    cfg.backend
        .check(network_ip_only(net))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// One constructed device verifier with its init byproducts.
struct BuiltVerifier {
    dev: DeviceId,
    verifier: DeviceVerifier,
    init_out: Vec<Envelope>,
    /// Scaled init time.
    init_ns: u64,
}

/// Builds one `DeviceVerifier` per participating device, timing each
/// construction (LEC build + initial counting) as init cost. With
/// `parallel` set, devices build concurrently under scoped threads —
/// the sharded [`LecCache`] is used directly (per-shard locking, no
/// global mutex), and results are returned in device order so
/// downstream scheduling stays deterministic.
fn plan_vcfg(plan: &CountingPlan) -> VerifierConfig {
    VerifierConfig {
        n_exprs: plan.exprs.len(),
        track_escapes: plan.track_escapes,
        reduce: plan.reduce,
        dest_mode: Default::default(),
    }
}

fn build_verifiers(
    net: &Network,
    plan: &CountingPlan,
    packet_space: &PortablePred,
    cfg: &EngineConfig,
    lec_cache: &LecCache,
) -> Vec<BuiltVerifier> {
    let vcfg = plan_vcfg(plan);
    let mut by_dev: BTreeMap<DeviceId, Vec<NodeTask>> = BTreeMap::new();
    for t in &plan.tasks {
        by_dev.entry(t.dev).or_default().push(t.clone());
    }
    if cfg.all_devices {
        // Idle verifiers (no tasks) for every device the plan skipped,
        // so runtime intents can task them later.
        for d in 0..net.topology.num_devices() as u32 {
            by_dev.entry(DeviceId(d)).or_default();
        }
    }

    // Every verifier of one run uses the same encoding (wire bytes are
    // backend-neutral, so this is a pure performance choice).
    let kind = checked_backend(cfg, net);

    let tel = &cfg.telemetry;
    let build_one = |dev: DeviceId, tasks: Vec<NodeTask>, worker: u64| -> BuiltVerifier {
        let begin = tel.host_tick();
        let start = Instant::now();
        let cached = lec_cache.get(dev);
        let mut v = DeviceVerifier::builder(
            dev,
            net.layout,
            net.fib(dev).clone(),
            packet_space,
            vcfg.clone(),
        )
        .backend(kind)
        .tasks(tasks)
        .maybe_lecs(cached.as_deref().map(Vec::as_slice))
        .telemetry(tel.clone())
        .build();
        if cached.is_none() {
            lec_cache.insert(dev, v.export_lecs());
        }
        // The whole initial burst is one causal wave.
        v.set_trace(INIT_TRACE);
        let mut init_out = Vec::new();
        v.init(&mut init_out);
        let host_ns = start.elapsed().as_nanos() as u64;
        // Per-device init span, attributed to its worker (aux) so the
        // EXPERIMENTS parallel-init entry can read actual occupancy.
        tel.span_aux(
            dev,
            "init.build",
            "init",
            begin,
            host_ns.max(1),
            INIT_TRACE,
            worker,
        );
        let init_ns = cfg.model.scale_ns(host_ns);
        BuiltVerifier {
            dev,
            verifier: v,
            init_out,
            init_ns,
        }
    };

    if !cfg.parallel_init {
        return by_dev
            .into_iter()
            .map(|(dev, tasks)| build_one(dev, tasks, 0))
            .collect();
    }

    // Worker pool sized to the host, not one thread per device: devices
    // outnumber cores on every evaluation topology, and per-device
    // spawns serialize into pure overhead on small hosts.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(by_dev.len().max(1));
    let jobs: Mutex<Vec<(DeviceId, Vec<NodeTask>)>> = Mutex::new(by_dev.into_iter().collect());
    let results: Mutex<Vec<BuiltVerifier>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in 0..workers {
            let jobs = &jobs;
            let results = &results;
            let build_one = &build_one;
            s.spawn(move || {
                while let Some((dev, tasks)) = {
                    let mut q = jobs.lock().unwrap();
                    q.pop()
                } {
                    let built = build_one(dev, tasks, w as u64);
                    results.lock().unwrap().push(built);
                }
            });
        }
    });
    let mut out = results.into_inner().unwrap();
    out.sort_by_key(|b| b.dev);
    out
}

/// The outcome of one driven round (burst, incremental update, link
/// event or fault-scene swap).
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Substrate completion (quiescence) time in ns.
    pub completion_ns: u64,
    /// Messages delivered this round.
    pub messages: usize,
    /// Bytes on the wire this round.
    pub bytes: u64,
}

impl From<RunOutcome> for EventOutcome {
    fn from(r: RunOutcome) -> EventOutcome {
        EventOutcome {
            messages: r.messages,
            completion_ns: r.completion_ns,
            ..EventOutcome::default()
        }
    }
}

/// The generic single-driver engine: owns the verifiers, a [`Clock`],
/// a [`Transport`] and the [`RuntimeStats`]; every deterministic
/// substrate is an instantiation of this one loop.
pub struct Engine<T: Transport, C: Clock> {
    /// The lifecycle owner: intents, churn, epoch, journal and gauges.
    control: ControlPlane,
    verifiers: BTreeMap<DeviceId, DeviceVerifier>,
    transport: T,
    clock: C,
    stats: RuntimeStats,
    watermark: u64,
    tel: Arc<Telemetry>,
    /// Next causal trace id handed to an injected internal event.
    next_trace: u64,
    /// Network snapshot kept current across [`Engine::stage_batch`], so
    /// lazy verifier builds see live FIBs.
    net: Network,
    /// Compiled base packet space, for lazily built verifiers.
    packet_space: PortablePred,
    /// Verifier profile shared by every intent of this engine.
    vcfg: VerifierConfig,
    /// Predicate backend (every verifier of one run uses the
    /// same encoding).
    kind: BackendKind,
}

impl<T: Transport, C: Clock> Engine<T, C> {
    /// Builds an engine over a network snapshot and a counting plan,
    /// sharing a per-device LEC cache across engines. Verifier
    /// construction is timed as init cost; call [`Engine::burst`] to
    /// run the initial exchange to quiescence.
    pub fn new_cached(
        net: &Network,
        plan: &CountingPlan,
        ps: &PacketSpace,
        cfg: &EngineConfig,
        lec_cache: &LecCache,
        mut transport: T,
        mut clock: C,
    ) -> Engine<T, C> {
        let packet_space = verify::compile_packet_space(&net.layout, ps);
        let built = build_verifiers(net, plan, &packet_space, cfg, lec_cache);
        let mut verifiers = BTreeMap::new();
        let mut stats = RuntimeStats::default();
        for b in built {
            let st = stats.per_device.entry(b.dev).or_default();
            st.init_ns = b.init_ns;
            st.bdd_nodes = b.verifier.bdd_nodes();
            clock.set_free_at(b.dev, b.init_ns);
            for env in b.init_out {
                transport.send(b.dev, b.init_ns, env);
            }
            verifiers.insert(b.dev, b.verifier);
        }
        Engine {
            control: ControlPlane::new(
                &net.topology,
                net.layout,
                plan,
                ps,
                verifiers.keys().copied(),
                false,
                cfg.telemetry.clone(),
            ),
            verifiers,
            transport,
            clock,
            stats,
            watermark: 0,
            tel: cfg.telemetry.clone(),
            next_trace: FIRST_EVENT_TRACE,
            net: net.clone(),
            packet_space,
            vcfg: plan_vcfg(plan),
            kind: checked_backend(cfg, net),
        }
    }

    /// Allocates a fresh causal trace id for one injected event.
    fn alloc_trace(&mut self) -> u64 {
        let t = self.next_trace;
        self.next_trace += 1;
        t
    }

    /// Delivers messages until the transport runs dry (quiescence).
    fn run(&mut self) -> RunOutcome {
        let mut out = RunOutcome::default();
        let mut last_finish = self.watermark;
        while let Some((arrival, env)) = self.transport.recv() {
            let dev = env.to;
            if self.control.is_quarantined(dev) {
                continue;
            }
            let Some(v) = self.verifiers.get_mut(&dev) else {
                continue;
            };
            let begin_tick = self.tel.host_tick();
            let wall = Instant::now();
            let bytes_before = v.stats.bytes_sent;
            let mut replies = Vec::new();
            v.handle(&env, &mut replies);
            let host_ns = wall.elapsed().as_nanos() as u64;
            let sent = v.stats.bytes_sent - bytes_before;
            let bdd_nodes = v.bdd_nodes();
            let span = self.clock.charge(dev, arrival, host_ns);
            if self.tel.is_enabled() {
                // Host-tick timeline; the substrate's virtual begin
                // time rides in aux for offline re-keying.
                self.tel.span_aux(
                    dev,
                    dvm_span_name(&env.payload),
                    "dvm",
                    begin_tick,
                    host_ns.max(1),
                    env.trace,
                    span.begin,
                );
                self.tel.observe(dev, &HANDLE_NS, span.cpu_ns);
            }
            last_finish = last_finish.max(span.finish);
            out.messages += 1;
            out.bytes += env.wire_bytes() as u64;
            self.stats.messages += 1;
            self.stats.bytes += env.wire_bytes() as u64;
            self.stats.msg_ns_samples.push(span.cpu_ns);
            self.stats
                .per_device
                .entry(dev)
                .or_default()
                .absorb_message(span.cpu_ns, sent, bdd_nodes);
            for env in replies {
                self.transport.send(dev, span.finish, env);
            }
        }
        self.watermark = last_finish;
        out.completion_ns = last_finish;
        if let Some(f) = self.transport.fault_stats() {
            self.stats.fault = f;
        }
        out
    }

    /// The burst phase: all FIBs arrive at t=0 (already ingested during
    /// construction); runs the initial counting to quiescence.
    pub fn burst(&mut self) -> RunOutcome {
        self.run()
    }

    /// One incremental rule update: a one-element batch through the
    /// single update code path ([`Engine::apply_batch`]).
    pub fn incremental(&mut self, update: &RuleUpdate) -> RunOutcome {
        self.apply_batch(std::slice::from_ref(update))
    }

    /// Applies a burst of rule updates: the batch is coalesced per
    /// device ([`UpdateBatch::coalesced`]), each affected device applies
    /// its whole sub-batch with one LEC delta and one recompute per
    /// node, and the resulting coalesced UPDATEs are driven to
    /// quiescence. All updates arrive "now" (relative clock reset to 0
    /// so results are per-burst times).
    pub fn apply_batch(&mut self, updates: &[RuleUpdate]) -> RunOutcome {
        self.stage_batch(updates);
        let last_span = self.watermark;
        let mut r = self.run();
        r.completion_ns = r.completion_ns.max(last_span);
        r
    }

    /// Stages a burst of rule updates *without* driving the exchange:
    /// the coalesced per-device batches are applied and their DVM
    /// messages enqueued, but delivery does not start — so a churn
    /// event or a crash can be injected while those messages are still
    /// in flight. Follow with [`Engine::run_staged`] (or any driven
    /// round) to drain.
    pub fn stage_batch(&mut self, updates: &[RuleUpdate]) {
        self.reset_time();
        let trace = self.alloc_trace();
        let batch: UpdateBatch = updates.iter().cloned().collect();
        // Keep the network snapshot current: intent compilation and
        // lazy verifier builds must see the live FIBs.
        self.net.apply_batch(&batch);
        if self.tel.journal_on() {
            let n = updates.len();
            let first = batch
                .coalesced()
                .first()
                .map(|(d, _)| *d)
                .unwrap_or(DeviceId(0));
            self.tel.journal(
                JournalKind::BatchApplied,
                first,
                self.epoch(),
                trace,
                None,
                || format!("{n} updates"),
            );
        }
        let mut last_span = 0;
        for (dev, ops) in batch.coalesced() {
            // Quarantine blocks *protocol* deliveries, not the
            // device's own FIB: a quarantined verifier still folds in
            // rule updates (it owns no plan nodes, so nothing is
            // announced), so a later `DeviceUp` revives it against the
            // current data plane — mirroring the reference session.
            let Some(v) = self.verifiers.get_mut(&dev) else {
                continue;
            };
            let wall = Instant::now();
            let mut replies = Vec::new();
            v.set_trace(trace);
            v.handle_fib_batch(&ops, &mut replies);
            let span = self.clock.charge(dev, 0, wall.elapsed().as_nanos() as u64);
            self.stats.per_device.entry(dev).or_default().busy_ns += span.cpu_ns;
            last_span = last_span.max(span.finish);
            for env in replies {
                self.transport.send(dev, span.finish, env);
            }
        }
        // Remember the staging high-water mark so a later `run` still
        // reports a completion time covering the staged work.
        self.watermark = last_span;
    }

    /// Drives staged (or otherwise in-flight) messages to quiescence.
    pub fn run_staged(&mut self) -> RunOutcome {
        self.run()
    }

    /// A link failure/recovery event delivered to both endpoints at
    /// t=0.
    pub fn link_event(&mut self, a: DeviceId, b: DeviceId, up: bool) -> RunOutcome {
        self.reset_time();
        let trace = self.alloc_trace();
        self.tel
            .journal(JournalKind::LinkEvent, a, self.epoch(), trace, None, || {
                let dir = if up { "up" } else { "down" };
                format!("link-{dir} d{}-d{}", a.0, b.0)
            });
        for (x, y) in [(a, b), (b, a)] {
            let Some(v) = self.verifiers.get_mut(&x) else {
                continue;
            };
            let wall = Instant::now();
            let mut replies = Vec::new();
            v.set_trace(trace);
            v.handle_link_event(y, up, &mut replies);
            let span = self.clock.charge(x, 0, wall.elapsed().as_nanos() as u64);
            for env in replies {
                self.transport.send(x, span.finish, env);
            }
        }
        self.run()
    }

    /// Swaps every verifier to a fault-scene task view (after
    /// link-state flooding, §6) and recounts. `flood_ns` models the
    /// flooding delay added to the completion time.
    pub fn apply_scene(&mut self, tasks: &[NodeTask], flood_ns: u64) -> RunOutcome {
        self.reset_time();
        let trace = self.alloc_trace();
        if self.tel.journal_on() {
            let n = tasks.len();
            let first = tasks.first().map(|t| t.dev).unwrap_or(DeviceId(0));
            self.tel.journal(
                JournalKind::SceneApplied,
                first,
                self.epoch(),
                trace,
                None,
                || format!("fault-scene recount over {n} tasks"),
            );
        }
        let mut by_dev: BTreeMap<DeviceId, Vec<NodeTask>> = BTreeMap::new();
        for t in tasks {
            by_dev.entry(t.dev).or_default().push(t.clone());
        }
        for (dev, tasks) in by_dev {
            let Some(v) = self.verifiers.get_mut(&dev) else {
                continue;
            };
            let wall = Instant::now();
            let mut replies = Vec::new();
            v.set_trace(trace);
            v.set_tasks(tasks, &mut replies);
            let span = self
                .clock
                .charge(dev, flood_ns, wall.elapsed().as_nanos() as u64);
            for env in replies {
                self.transport.send(dev, span.finish, env);
            }
        }
        let mut r = self.run();
        r.completion_ns = r.completion_ns.max(flood_ns);
        r
    }

    /// Crashes and restarts one device's verification agent (§8: the
    /// agent is a process beside the FIB agent — it can die without the
    /// switch losing its FIB). The crashed verifier loses all soft
    /// counting state and recounts from scratch; every *other* verifier
    /// replays its durable protocol state toward the restarted device
    /// ([`DeviceVerifier::replay_for_restart`]), and the exchange is
    /// driven to quiescence — the run recovers instead of aborting, and
    /// the Report re-converges to the pre-crash fixpoint.
    pub fn crash_restart(&mut self, dev: DeviceId) -> RunOutcome {
        self.reset_time();
        let trace = self.alloc_trace();
        self.tel.journal(
            JournalKind::CrashRestart,
            dev,
            self.epoch(),
            trace,
            None,
            || format!("verification agent on d{} crashed and restarted", dev.0),
        );
        // Pending envelopes addressed to the dead agent (delayed or
        // duplicated copies included) must not land on the fresh state;
        // neighbor replays rebuild everything they carried.
        self.transport.purge_for_restart(dev);
        {
            let Some(v) = self.verifiers.get_mut(&dev) else {
                return RunOutcome::default();
            };
            let wall = Instant::now();
            let mut replies = Vec::new();
            v.set_trace(trace);
            v.reboot(&mut replies);
            let span = self.clock.charge(dev, 0, wall.elapsed().as_nanos() as u64);
            self.stats.per_device.entry(dev).or_default().busy_ns += span.cpu_ns;
            for env in replies {
                self.transport.send(dev, span.finish, env);
            }
        }
        let others: Vec<DeviceId> = self
            .verifiers
            .keys()
            .copied()
            .filter(|d| *d != dev)
            .collect();
        for nb in others {
            let v = self.verifiers.get_mut(&nb).unwrap();
            let wall = Instant::now();
            let mut replays = Vec::new();
            v.set_trace(trace);
            v.replay_for_restart(dev, &mut replays);
            if replays.is_empty() {
                continue;
            }
            let span = self.clock.charge(nb, 0, wall.elapsed().as_nanos() as u64);
            self.stats.per_device.entry(nb).or_default().busy_ns += span.cpu_ns;
            for env in replays {
                self.transport.send(nb, span.finish, env);
            }
        }
        self.stats.crashes_recovered += 1;
        self.run()
    }

    fn reset_time(&mut self) {
        self.watermark = 0;
        self.clock.reset();
    }

    /// The current fence generation (0 until the first churn event or
    /// intent install/remove).
    pub fn epoch(&self) -> u64 {
        self.control.epoch()
    }

    /// Has the control plane decide one event under a fresh trace id,
    /// then delivers the resulting fence (if any) to quiescence.
    fn fenced(
        &mut self,
        decide: impl FnOnce(&mut ControlPlane, u64) -> Result<Decision, PlanError>,
    ) -> Result<(Decision, RunOutcome), PlanError> {
        let trace = self.alloc_trace();
        let begin = self.tel.host_tick();
        let wall = Instant::now();
        let mut decision = decide(&mut self.control, trace)?;
        let Some(plan) = decision.fence.take() else {
            return Ok((decision, RunOutcome::default()));
        };
        if self.tel.is_enabled() {
            let first = self.verifiers.keys().next().copied().unwrap_or(DeviceId(0));
            let plan_ns = (wall.elapsed().as_nanos() as u64).max(1);
            self.tel.span_aux(
                first,
                "fence.plan",
                "fence",
                begin,
                plan_ns,
                trace,
                plan.epoch,
            );
        }
        Ok((decision, self.deliver(plan, trace)))
    }

    /// Delivers one fence. The transport drops everything in flight
    /// *before* any new-epoch send, and what it dropped decides whether
    /// the devices run the repair wave; then every device applies its
    /// share at t=0 on its own clock, and the exchange is driven to
    /// quiescence.
    fn deliver(&mut self, mut plan: FencePlan, trace: u64) -> RunOutcome {
        self.reset_time();
        let dropped = self.transport.epoch_fence(plan.epoch);
        self.control.seal(&mut plan, dropped, trace);
        if let Some(topo) = &plan.topology {
            self.transport.set_topology(topo);
        }
        for (dev, fence) in plan.devices {
            if !self.verifiers.contains_key(&dev) {
                self.build_verifier_lazily(dev, trace);
            }
            let v = self.verifiers.get_mut(&dev).expect("built above");
            let begin = self.tel.host_tick();
            let wall = Instant::now();
            let mut replies = Vec::new();
            v.apply_fence(plan.epoch, trace, fence, &mut replies);
            let host_ns = wall.elapsed().as_nanos() as u64;
            let span = self.clock.charge(dev, 0, host_ns);
            self.stats.per_device.entry(dev).or_default().busy_ns += span.cpu_ns;
            if self.tel.is_enabled() {
                self.tel.span_aux(
                    dev,
                    "fence.apply",
                    "fence",
                    begin,
                    host_ns.max(1),
                    trace,
                    plan.epoch,
                );
            }
            for env in replies {
                self.transport.send(dev, span.finish, env);
            }
        }
        self.run()
    }

    /// Applies one live topology churn event
    /// ([`ControlPlane::topology_event`]; `base` is the original
    /// topology, `inv` the invariant the running plan was compiled
    /// from) and drives re-convergence to quiescence. An `Err` leaves
    /// the engine on the old epoch.
    pub fn apply_topology_event(
        &mut self,
        ev: &TopologyEvent,
        base: &Topology,
        inv: &Invariant,
    ) -> Result<RunOutcome, PlanError> {
        self.fenced(|c, trace| c.topology_event(ev, base, inv, trace))
            .map(|(_, r)| r)
    }

    /// Builds one verifier after construction time, for a device a
    /// later intent or churn re-plan pulls into the plan (no LEC cache:
    /// a late-joining device builds its table once).
    fn build_verifier_lazily(&mut self, dev: DeviceId, trace: u64) {
        let begin = self.tel.host_tick();
        let wall = Instant::now();
        let mut v = DeviceVerifier::builder(
            dev,
            self.net.layout,
            self.net.fib(dev).clone(),
            &self.packet_space,
            self.vcfg.clone(),
        )
        .backend(self.kind)
        .tasks(Vec::new())
        .telemetry(self.tel.clone())
        .build();
        v.set_trace(trace);
        let mut out = Vec::new();
        v.init(&mut out);
        let host_ns = wall.elapsed().as_nanos() as u64;
        let span = self.clock.charge(dev, 0, host_ns);
        let st = self.stats.per_device.entry(dev).or_default();
        st.init_ns = span.cpu_ns;
        st.bdd_nodes = v.bdd_nodes();
        if self.tel.is_enabled() {
            self.tel
                .span_aux(dev, "init.build", "init", begin, host_ns.max(1), trace, 0);
        }
        for env in out {
            self.transport.send(dev, span.finish, env);
        }
        self.verifiers.insert(dev, v);
    }

    /// Evaluates the invariant at the DPVNet sources. Takes `&mut self`
    /// because result export runs through each device's BDD manager.
    /// After a churn event the report also carries per-node freshness
    /// markers and the quarantined-device list.
    pub fn report(&mut self) -> Report {
        let verifiers = &mut self.verifiers;
        let mut r = verify::evaluate_intents(self.control.intents(), |dev, node| {
            verifiers
                .get_mut(&dev)
                .map(|v| v.node_result(node, None))
                .unwrap_or_default()
        });
        self.control.annotate(&mut r, &BTreeMap::new());
        r
    }

    /// The runtime intent store (read-only).
    pub fn intents(&self) -> &IntentStore {
        self.control.intents()
    }

    /// Compiles `inv`, installs it as a new runtime intent
    /// ([`ControlPlane::install`]) and drives the exchange to
    /// quiescence. Returns the new id, the applied delta (its
    /// `reused_nodes` / `touched_devices` evidence slicing locality)
    /// and the driven round.
    pub fn install_intent(
        &mut self,
        name: &str,
        inv: &Invariant,
    ) -> Result<(IntentId, IntentDelta, RunOutcome), PlanError> {
        let (d, r) = self.fenced(|c, trace| c.install(None, name, inv, trace))?;
        Ok((d.intent.expect("installs name their intent"), d.delta, r))
    }

    /// [`Engine::install_intent`] under a caller-chosen id — for
    /// deterministic replay (a hot backend swap re-building the engine
    /// must keep every live intent's id stable).
    pub fn install_intent_as(
        &mut self,
        id: IntentId,
        name: &str,
        inv: &Invariant,
    ) -> Result<(IntentId, IntentDelta, RunOutcome), PlanError> {
        let (d, r) = self.fenced(|c, trace| c.install(Some(id), name, inv, trace))?;
        Ok((id, d.delta, r))
    }

    /// Removes a live intent ([`ControlPlane::remove`]) and
    /// re-converges.
    pub fn remove_intent(&mut self, id: IntentId) -> Result<(IntentDelta, RunOutcome), PlanError> {
        let (d, r) = self.fenced(|c, trace| c.remove(id, trace))?;
        Ok((d.delta, r))
    }

    /// The runtime observability surface.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Mutable stats access (to drain per-message samples).
    pub fn stats_mut(&mut self) -> &mut RuntimeStats {
        &mut self.stats
    }

    /// Mutable access to one verifier (used by the replay harness).
    pub fn verifier_mut(&mut self, dev: DeviceId) -> Option<&mut DeviceVerifier> {
        self.verifiers.get_mut(&dev)
    }

    /// The counting plan driving this engine.
    pub fn plan(&self) -> &CountingPlan {
        self.control.plan()
    }
}

impl<T: Transport, C: Clock> Substrate for Engine<T, C> {
    /// Applies one [`RuntimeEvent`] and drives the exchange to
    /// quiescence. Backend hot-swap lives in the service layer (it
    /// rebuilds the engine), so [`RuntimeEvent::SetBackend`] is
    /// rejected here.
    fn apply_event(&mut self, ev: &RuntimeEvent) -> Result<EventOutcome, PlanError> {
        use RuntimeEvent as E;
        let (d, r) = match ev {
            E::Batch(updates) => return Ok(self.apply_batch(updates).into()),
            E::CrashRestart(dev) => return Ok(self.crash_restart(*dev).into()),
            E::SetBackend(_) => {
                return Err(PlanError::Unsupported(
                    "hot backend swap is a service-layer event (the engine \
                     must be rebuilt); use the verification service"
                        .to_string(),
                ))
            }
            E::Topology {
                event,
                base,
                invariant,
            } => self.fenced(|c, t| c.topology_event(event, base, invariant, t))?,
            E::InstallIntent { name, invariant } => {
                self.fenced(|c, t| c.install(None, name, invariant, t))?
            }
            E::RemoveIntent(id) => self.fenced(|c, t| c.remove(*id, t))?,
        };
        Ok(d.outcome(r.messages, r.completion_ns))
    }
}

// ---------------------------------------------------------------------
// The concurrent substrate: one OS thread per device.
// ---------------------------------------------------------------------

/// One node's exported counting results.
type NodeResults = Vec<(NodeId, Vec<(PortablePred, Counts)>)>;

/// A verifier operation the coordinator injects from outside the DVM
/// exchange, run on the device's own thread.
type Injected = Box<dyn FnOnce(&mut DeviceVerifier, &mut Vec<Envelope>) + Send>;

enum DeviceMsg {
    Dvm(Envelope),
    /// An injected operation — a coalesced FIB batch, a reboot, a
    /// replay toward a restarted peer, or this device's share of an
    /// epoch fence (atomic; a peer that fenced first may get a
    /// new-epoch message in ahead of it, which the verifier holds until
    /// the fence arrives) — under the causal trace id of the wave it
    /// starts.
    Inject(u64, Injected),
    Collect(Vec<NodeId>, mpsc::Sender<NodeResults>),
    #[cfg(test)]
    Crash,
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
            let _guard = self.lock.lock().unwrap();
            self.zero.notify_all();
        }
    }

    /// Messages queued or being processed right now.
    fn current(&self) -> usize {
        self.count.load(Ordering::SeqCst).max(0) as usize
    }

    fn wait_zero(&self) {
        let mut guard = self.lock.lock().unwrap();
        while self.count.load(Ordering::SeqCst) != 0 {
            guard = self.zero.wait(guard).unwrap();
        }
    }

    /// Waits for the gauge to reach zero, giving up after `timeout`.
    /// Returns whether quiescence was observed.
    fn wait_zero_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.lock.lock().unwrap();
        while self.count.load(Ordering::SeqCst) != 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self.zero.wait_timeout(guard, deadline - now).unwrap();
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

/// The genuinely concurrent substrate: one OS thread per device
/// verifier, in-order channels for DVM links — the deployment shape of
/// the paper's prototype (one verification agent per switch over TCP).
///
/// Construction, quiescence accounting, stats and report assembly are
/// the runtime layer's; only the driver loop runs on worker threads.
pub struct ThreadedEngine {
    /// The lifecycle owner: intents, churn, epoch, journal and gauges.
    /// Its roster is fixed to the device threads spawned here.
    control: ControlPlane,
    senders: BTreeMap<DeviceId, mpsc::Sender<DeviceMsg>>,
    inflight: Arc<InflightGauge>,
    handles: Vec<(DeviceId, std::thread::JoinHandle<DeviceStats>)>,
    init_stats: RuntimeStats,
    /// Next causal trace id for injected events (init is [`INIT_TRACE`];
    /// injections count up from [`FIRST_EVENT_TRACE`]). Atomic because
    /// `inject_batch` takes `&self`.
    next_trace: AtomicU64,
    /// Per-device progress counters feeding the convergence watchdog.
    progress: Arc<Progress>,
    /// Devices the watchdog declared stalled (device → epoch at stall);
    /// cleared when a later watched wait converges.
    stalled: Mutex<BTreeMap<DeviceId, u64>>,
    tel: Arc<Telemetry>,
    joined: bool,
}

impl ThreadedEngine {
    /// Spawns one verifier thread per participating device and injects
    /// the initial (burst) exchange; call
    /// [`ThreadedEngine::wait_quiescent`] to let it drain.
    pub fn spawn(net: &Network, plan: &CountingPlan, ps: &PacketSpace) -> ThreadedEngine {
        Self::spawn_with(net, plan, ps, &EngineConfig::default(), &LecCache::new())
    }

    /// Like [`ThreadedEngine::spawn`], with explicit engine options and
    /// a shared LEC cache (`parallel_init` builds device verifiers
    /// concurrently before the threads start).
    pub fn spawn_with(
        net: &Network,
        plan: &CountingPlan,
        ps: &PacketSpace,
        cfg: &EngineConfig,
        lec_cache: &LecCache,
    ) -> ThreadedEngine {
        let packet_space = verify::compile_packet_space(&net.layout, ps);
        let built = build_verifiers(net, plan, &packet_space, cfg, lec_cache);

        let inflight = InflightGauge::new();
        let progress = Progress::new(built.iter().map(|b| b.dev));
        let mut senders: BTreeMap<DeviceId, mpsc::Sender<DeviceMsg>> = BTreeMap::new();
        let mut receivers: BTreeMap<DeviceId, mpsc::Receiver<DeviceMsg>> = BTreeMap::new();
        for b in &built {
            let (tx, rx) = mpsc::channel();
            senders.insert(b.dev, tx);
            receivers.insert(b.dev, rx);
        }

        let mut init_stats = RuntimeStats::default();
        let mut handles = Vec::new();
        for b in built {
            let BuiltVerifier {
                dev,
                mut verifier,
                init_out,
                init_ns,
            } = b;
            {
                let st = init_stats.per_device.entry(dev).or_default();
                st.init_ns = init_ns;
                st.bdd_nodes = verifier.bdd_nodes();
            }
            let rx = receivers.remove(&dev).expect("receiver");
            let peers = senders.clone();
            let inflight = inflight.clone();
            let progress = progress.clone();
            let model = cfg.model;
            let tel = cfg.telemetry.clone();

            // The initial messages count as in-flight before any thread
            // starts, so quiescence cannot be observed prematurely.
            inflight.add(init_out.len() as i64);
            for env in init_out {
                match peers.get(&env.to) {
                    Some(tx) => {
                        let to = env.to;
                        if tx.send(DeviceMsg::Dvm(env)).is_ok() {
                            progress.note_enqueued(to);
                        } else {
                            inflight.release();
                        }
                    }
                    _ => inflight.release(),
                }
            }

            handles.push((
                dev,
                std::thread::spawn(move || {
                    let mut stats = DeviceStats::default();
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            DeviceMsg::Dvm(env) => {
                                let begin = tel.host_tick();
                                let wall = Instant::now();
                                let bytes_before = verifier.stats.bytes_sent;
                                let mut out = Vec::new();
                                verifier.handle(&env, &mut out);
                                let host_ns = wall.elapsed().as_nanos() as u64;
                                let cpu = model.scale_ns(host_ns);
                                stats.absorb_message(
                                    cpu,
                                    verifier.stats.bytes_sent - bytes_before,
                                    verifier.bdd_nodes(),
                                );
                                if tel.is_enabled() {
                                    tel.span(
                                        dev,
                                        dvm_span_name(&env.payload),
                                        "dvm",
                                        begin,
                                        host_ns.max(1),
                                        env.trace,
                                    );
                                    tel.observe(dev, &HANDLE_NS, cpu);
                                }
                                route(&peers, out, &inflight, &progress);
                                progress.note_processed(dev);
                                inflight.release();
                            }
                            DeviceMsg::Inject(trace, op) => {
                                let begin = tel.host_tick();
                                let wall = Instant::now();
                                let mut out = Vec::new();
                                verifier.set_trace(trace);
                                op(&mut verifier, &mut out);
                                let host_ns = wall.elapsed().as_nanos() as u64;
                                stats.busy_ns += model.scale_ns(host_ns);
                                if tel.is_enabled() {
                                    tel.span(dev, "inject", "dvm", begin, host_ns.max(1), trace);
                                }
                                route(&peers, out, &inflight, &progress);
                                progress.note_processed(dev);
                                inflight.release();
                            }
                            DeviceMsg::Collect(nodes, reply) => {
                                let results = nodes
                                    .into_iter()
                                    .map(|n| (n, verifier.node_result(n, None)))
                                    .collect();
                                let _ = reply.send(results);
                            }
                            #[cfg(test)]
                            DeviceMsg::Crash => panic!("injected device-task crash"),
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
                    stats
                }),
            ));
        }

        ThreadedEngine {
            control: ControlPlane::new(
                &net.topology,
                net.layout,
                plan,
                ps,
                senders.keys().copied(),
                true,
                cfg.telemetry.clone(),
            ),
            senders,
            inflight,
            handles,
            init_stats,
            next_trace: AtomicU64::new(FIRST_EVENT_TRACE),
            progress,
            stalled: Mutex::new(BTreeMap::new()),
            tel: cfg.telemetry.clone(),
            joined: false,
        }
    }

    /// Enqueues one message on a device's channel, counted as in flight
    /// until its thread has processed it.
    fn post(&self, dev: DeviceId, msg: DeviceMsg) {
        let Some(tx) = self.senders.get(&dev) else {
            return;
        };
        self.inflight.add(1);
        if tx.send(msg).is_ok() {
            self.progress.note_enqueued(dev);
        } else {
            self.inflight.release();
        }
    }

    fn alloc_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::SeqCst)
    }

    /// Blocks until no DVM message is queued or being processed.
    pub fn wait_quiescent(&self) {
        self.inflight.wait_zero();
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
        let mut last = self.progress.snapshot_processed();
        let mut stalls = 0u32;
        loop {
            if self.inflight.wait_zero_timeout(cfg.heartbeat) {
                self.stalled.lock().unwrap().clear();
                return WatchdogVerdict::Converged;
            }
            let snap = self.progress.snapshot_processed();
            if snap != last {
                stalls = 0;
                last = snap;
                continue;
            }
            stalls += 1;
            if stalls >= cfg.stall_heartbeats.max(1) {
                let devices = self.progress.lagging();
                let epoch = self.epoch();
                let mut stalled = self.stalled.lock().unwrap();
                for d in &devices {
                    stalled.insert(*d, epoch);
                    self.tel.count(*d, "tulkun_watchdog_stalls_total", 1);
                    if self.tel.is_enabled() {
                        self.tel.span_aux(
                            *d,
                            "churn.watchdog_stall",
                            "churn",
                            self.tel.host_tick(),
                            1,
                            0,
                            epoch,
                        );
                    }
                    self.tel
                        .journal(JournalKind::WatchdogStall, *d, epoch, 0, None, || {
                            format!("watchdog declared d{} stalled (unprocessed backlog)", d.0)
                        });
                }
                return WatchdogVerdict::Stalled { devices };
            }
        }
    }

    /// The current fence generation (0 until the first churn event or
    /// intent install/remove).
    pub fn epoch(&self) -> u64 {
        self.control.epoch()
    }

    /// Has the control plane decide one event under a fresh trace id,
    /// then sends each device thread its share of the resulting fence
    /// as one atomic channel message. Whatever the in-flight gauge
    /// counts at that moment is old-epoch traffic: the verifier-level
    /// fence discards it (or what it would have caused), so a non-zero
    /// gauge is what makes the devices run the repair wave. Only this
    /// coordinator injects work (`&mut self`), so a zero gauge stays
    /// zero until the fences are posted.
    fn fenced(
        &mut self,
        decide: impl FnOnce(&mut ControlPlane, u64) -> Result<Decision, PlanError>,
    ) -> Result<Decision, PlanError> {
        let trace = self.alloc_trace();
        let mut decision = decide(&mut self.control, trace)?;
        if let Some(mut plan) = decision.fence.take() {
            self.control.seal(&mut plan, self.inflight.current(), trace);
            let epoch = plan.epoch;
            for (dev, fence) in plan.devices {
                let op = move |v: &mut DeviceVerifier, out: &mut Vec<Envelope>| {
                    v.apply_fence(epoch, trace, fence, out)
                };
                self.post(dev, DeviceMsg::Inject(trace, Box::new(op)));
            }
        }
        Ok(decision)
    }

    /// Applies one live topology churn event
    /// ([`ControlPlane::topology_event`]). Device threads are fixed at
    /// spawn, so a slice that would task a thread-less device degrades
    /// (the base plan doing so is an `Err`, leaving the old epoch).
    /// Call [`ThreadedEngine::wait_quiescent`] (or the watched
    /// variant) afterwards to let re-convergence drain.
    pub fn apply_topology_event(
        &mut self,
        ev: &TopologyEvent,
        base: &Topology,
        inv: &Invariant,
    ) -> Result<(), PlanError> {
        self.fenced(|c, trace| c.topology_event(ev, base, inv, trace))
            .map(|_| ())
    }

    /// The runtime intent store (read-only).
    pub fn intents(&self) -> &IntentStore {
        self.control.intents()
    }

    /// Compiles `inv` and installs it as a runtime intent
    /// ([`ControlPlane::install`]). Device threads are fixed at spawn,
    /// so a slice touching a thread-less device is rejected (spawn
    /// with [`EngineConfig::all_devices`] to keep every device
    /// taskable). Call [`ThreadedEngine::wait_quiescent`] afterwards.
    pub fn install_intent(
        &mut self,
        name: &str,
        inv: &Invariant,
    ) -> Result<(IntentId, IntentDelta), PlanError> {
        let d = self.fenced(|c, trace| c.install(None, name, inv, trace))?;
        Ok((d.intent.expect("installs name their intent"), d.delta))
    }

    /// [`ThreadedEngine::install_intent`] under a caller-chosen id —
    /// for deterministic replay.
    pub fn install_intent_as(
        &mut self,
        id: IntentId,
        name: &str,
        inv: &Invariant,
    ) -> Result<(IntentId, IntentDelta), PlanError> {
        let d = self.fenced(|c, trace| c.install(Some(id), name, inv, trace))?;
        Ok((id, d.delta))
    }

    /// Removes a live intent ([`ControlPlane::remove`]). Call
    /// [`ThreadedEngine::wait_quiescent`] afterwards.
    pub fn remove_intent(&mut self, id: IntentId) -> Result<IntentDelta, PlanError> {
        Ok(self.fenced(|c, trace| c.remove(id, trace))?.delta)
    }

    /// Injects a rule update at its device (counts as one in-flight
    /// event until processed).
    pub fn inject_update(&self, update: RuleUpdate) {
        self.inject_batch(vec![update]);
    }

    /// Injects a burst of rule updates: coalesced per device
    /// ([`UpdateBatch::coalesced`]), one `FibBatch` message per affected
    /// device (each counts as one in-flight event until processed).
    pub fn inject_batch(&self, updates: Vec<RuleUpdate>) {
        let trace = self.alloc_trace();
        let n = updates.len();
        let batch: UpdateBatch = updates.into_iter().collect();
        if self.tel.journal_on() {
            let first = batch
                .coalesced()
                .first()
                .map(|(d, _)| *d)
                .unwrap_or(DeviceId(0));
            self.tel.journal(
                JournalKind::BatchApplied,
                first,
                self.epoch(),
                trace,
                None,
                || format!("{n} updates"),
            );
        }
        for (dev, ops) in batch.coalesced() {
            // Quarantined devices still fold in their own FIB updates
            // (no plan nodes, so nothing is announced) so `DeviceUp`
            // revives them against the current data plane — mirroring
            // the single-driver engine and the reference session.
            let op = move |v: &mut DeviceVerifier, out: &mut Vec<Envelope>| {
                v.handle_fib_batch(&ops, out)
            };
            self.post(dev, DeviceMsg::Inject(trace, Box::new(op)));
        }
    }

    /// Crashes and restarts one device's verification agent, then has
    /// every other device replay its durable protocol state toward it
    /// (the concurrent analogue of [`Engine::crash_restart`]). The
    /// `Reboot` is enqueued on the crashed device's channel *before*
    /// any neighbor is told to replay, so per-channel FIFO guarantees
    /// the replayed messages land on the fresh state. Call
    /// [`ThreadedEngine::wait_quiescent`] afterwards to let the
    /// recovery exchange drain.
    pub fn crash_restart(&mut self, dev: DeviceId) {
        if !self.senders.contains_key(&dev) {
            return;
        }
        let trace = self.alloc_trace();
        self.tel.journal(
            JournalKind::CrashRestart,
            dev,
            self.epoch(),
            trace,
            None,
            || format!("verification agent on d{} crashed and restarted", dev.0),
        );
        self.post(
            dev,
            DeviceMsg::Inject(trace, Box::new(|v, out| v.reboot(out))),
        );
        for nb in self.senders.keys().filter(|nb| **nb != dev) {
            let op = move |v: &mut DeviceVerifier, out: &mut Vec<Envelope>| {
                v.replay_for_restart(dev, out)
            };
            self.post(*nb, DeviceMsg::Inject(trace, Box::new(op)));
        }
        self.init_stats.crashes_recovered += 1;
    }

    #[cfg(test)]
    fn inject_crash(&self, dev: DeviceId) {
        if let Some(tx) = self.senders.get(&dev) {
            let _ = tx.send(DeviceMsg::Crash);
        }
    }

    /// Wedges one device thread until the returned sender is dropped —
    /// a staged genuine stall (thread alive, backlog growing) for
    /// watchdog tests.
    #[cfg(test)]
    fn inject_hang(&self, dev: DeviceId) -> mpsc::Sender<()> {
        let (tx, rx) = mpsc::channel();
        if let Some(ch) = self.senders.get(&dev) {
            let _ = ch.send(DeviceMsg::Hang(rx));
        }
        tx
    }

    /// Collects source results and evaluates the invariant — the same
    /// report assembly as the single-driver engine, over channels.
    pub fn report(&self) -> Report {
        // One Collect round trip per device covering every live
        // intent's source nodes (global ids, deduplicated across
        // overlapping slices).
        let mut by_dev: BTreeMap<DeviceId, BTreeSet<NodeId>> = BTreeMap::new();
        for intent in self.control.intents().live() {
            if intent.is_degraded() {
                // Not evaluated; its stale global ids may have been
                // reassigned by a later fence.
                continue;
            }
            for (dev, local) in intent.plan.dpvnet.sources() {
                let global = intent.to_global[local.0 as usize];
                by_dev.entry(*dev).or_default().insert(global);
            }
        }
        let mut results: BTreeMap<(DeviceId, NodeId), Vec<(PortablePred, Counts)>> =
            BTreeMap::new();
        for (dev, nodes) in by_dev {
            let Some(tx) = self.senders.get(&dev) else {
                continue;
            };
            let (reply_tx, reply_rx) = mpsc::channel();
            if tx
                .send(DeviceMsg::Collect(nodes.into_iter().collect(), reply_tx))
                .is_err()
            {
                continue;
            }
            if let Ok(rs) = reply_rx.recv() {
                for (node, r) in rs {
                    results.insert((dev, node), r);
                }
            }
        }
        let mut r = verify::evaluate_intents(self.control.intents(), |dev, node| {
            results.get(&(dev, node)).cloned().unwrap_or_default()
        });
        let stalled = self.stalled.lock().unwrap().clone();
        self.control.annotate(&mut r, &stalled);
        r
    }

    /// Shuts all device threads down, joining every handle. Per-device
    /// runtime stats (merged with the init-time stats) come back on
    /// success; a panicked device task is surfaced as [`DevicePanic`]
    /// instead of being silently leaked.
    pub fn shutdown(mut self) -> Result<RuntimeStats, Vec<DevicePanic>> {
        let mut stats = std::mem::take(&mut self.init_stats);
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
        if panics.is_empty() {
            for st in stats.per_device.values() {
                stats.messages += st.messages as usize;
                stats.bytes += st.bytes_sent;
            }
            Ok(stats)
        } else {
            Err(panics)
        }
    }
}

impl Substrate for ThreadedEngine {
    /// Applies one [`RuntimeEvent`] and waits for quiescence (the
    /// threaded substrate is fire-and-forget internally, so the uniform
    /// entry point drains before returning; `messages` is 0 — per-event
    /// message counts are not tracked across threads).
    fn apply_event(&mut self, ev: &RuntimeEvent) -> Result<EventOutcome, PlanError> {
        use RuntimeEvent as E;
        let out = match ev {
            E::Batch(updates) => {
                self.inject_batch(updates.clone());
                EventOutcome::default()
            }
            E::CrashRestart(dev) => {
                self.crash_restart(*dev);
                EventOutcome::default()
            }
            E::SetBackend(_) => {
                return Err(PlanError::Unsupported(
                    "hot backend swap is a service-layer event (the \
                     engine must be rebuilt); use the verification \
                     service"
                        .to_string(),
                ))
            }
            E::Topology {
                event,
                base,
                invariant,
            } => self
                .fenced(|c, t| c.topology_event(event, base, invariant, t))?
                .outcome(0, 0),
            E::InstallIntent { name, invariant } => self
                .fenced(|c, t| c.install(None, name, invariant, t))?
                .outcome(0, 0),
            E::RemoveIntent(id) => self.fenced(|c, t| c.remove(*id, t))?.outcome(0, 0),
        };
        self.wait_quiescent();
        Ok(out)
    }
}

impl Drop for ThreadedEngine {
    /// Dropping without an explicit [`ThreadedEngine::shutdown`] still
    /// joins every device thread so no task leaks past the engine's
    /// lifetime (panics are swallowed here — call `shutdown` to
    /// observe them).
    fn drop(&mut self) {
        if self.joined {
            return;
        }
        for tx in self.senders.values() {
            let _ = tx.send(DeviceMsg::Shutdown);
        }
        for (_, h) in self.handles.drain(..) {
            let _ = h.join();
        }
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
            Some(tx) if tx.send(DeviceMsg::Dvm(env)).is_ok() => {
                progress.note_enqueued(to);
            }
            _ => inflight.release(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_core::churn::ChurnState;
    use tulkun_core::count::CountExpr;
    use tulkun_core::planner::Planner;
    use tulkun_core::spec::{Behavior, Invariant, PathExpr};
    use tulkun_core::verify::Freshness;
    use tulkun_datasets::fig2a_network;
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};

    pub(crate) fn waypoint_inv() -> Invariant {
        Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("S .* W .* D").unwrap().loop_free(),
            ))
            .build()
            .unwrap()
    }

    pub(crate) fn waypoint_plan(net: &Network) -> (CountingPlan, PacketSpace) {
        let inv = waypoint_inv();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        (cp, inv.packet_space)
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
        let cache = LecCache::new();
        let mut engine = Engine::new_cached(
            &net,
            &cp,
            &inv.packet_space,
            &EngineConfig::default(),
            &cache,
            FifoTransport::default(),
            InstantClock,
        );
        engine.burst();
        engine.report().canonical_bytes()
    }

    #[test]
    fn fifo_engine_matches_reference_verdict() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let cache = LecCache::new();
        let mut engine = Engine::new_cached(
            &net,
            &cp,
            &ps,
            &EngineConfig::default(),
            &cache,
            FifoTransport::default(),
            InstantClock,
        );
        let r = engine.burst();
        assert!(r.messages > 0);
        assert_eq!(r.completion_ns, 0, "instant clock charges nothing");
        let report = engine.report();
        assert!(!report.holds());
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn parallel_init_report_is_identical() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let run = |parallel_init: bool| {
            let cache = LecCache::new();
            let cfg = EngineConfig {
                parallel_init,
                ..Default::default()
            };
            let mut engine = Engine::new_cached(
                &net,
                &cp,
                &ps,
                &cfg,
                &cache,
                LatencyTransport::new(net.topology.clone(), cfg.fallback_latency_ns),
                VirtualClock::new(cfg.model),
            );
            engine.burst();
            engine.report().canonical_bytes()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn threaded_engine_converges_and_reports() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let engine = ThreadedEngine::spawn(&net, &cp, &ps);
        engine.wait_quiescent();
        let report = engine.report();
        assert!(!report.holds());
        let stats = engine.shutdown().expect("no panics");
        assert!(stats.messages > 0);
        assert!(stats.per_device.values().any(|s| s.messages > 0));
    }

    #[test]
    fn threaded_engine_surfaces_device_panics() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let engine = ThreadedEngine::spawn(&net, &cp, &ps);
        engine.wait_quiescent();
        let participants = engine.handles.len();
        assert!(participants > 1, "test needs surviving threads");
        let dev = net.topology.device("W").unwrap();
        engine.inject_crash(dev);
        // shutdown() drains every handle: returning at all means the
        // surviving threads joined; the error must name exactly the
        // crashed device and nothing else.
        let err = engine.shutdown().expect_err("panic must be surfaced");
        assert_eq!(
            err.len(),
            1,
            "only the crashed device may panic; the other {} threads must join cleanly",
            participants - 1
        );
        assert_eq!(err[0].device, dev);
        assert!(err[0].message.contains("injected device-task crash"));
    }

    #[test]
    fn engine_crash_restart_reconverges_to_same_report() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let cache = LecCache::new();
        let mut engine = Engine::new_cached(
            &net,
            &cp,
            &ps,
            &EngineConfig::default(),
            &cache,
            LatencyTransport::new(net.topology.clone(), 10_000),
            VirtualClock::new(SwitchModel::MELLANOX),
        );
        engine.burst();
        let before = engine.report().canonical_bytes();
        // Crash every participating device in turn; each recovery must
        // land back on the identical Report.
        let devs: Vec<DeviceId> = engine.verifiers.keys().copied().collect();
        for dev in devs {
            let r = engine.crash_restart(dev);
            assert!(r.messages > 0, "recovery exchanges messages");
            assert_eq!(
                engine.report().canonical_bytes(),
                before,
                "crash of {dev:?} must recover the pre-crash Report"
            );
        }
        assert_eq!(
            engine.stats().crashes_recovered,
            engine.verifiers.len() as u64
        );
    }

    #[test]
    fn threaded_engine_crash_restart_reconverges() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let mut engine = ThreadedEngine::spawn(&net, &cp, &ps);
        engine.wait_quiescent();
        let before = engine.report().canonical_bytes();
        let dev = net.topology.device("W").unwrap();
        engine.crash_restart(dev);
        engine.wait_quiescent();
        assert_eq!(engine.report().canonical_bytes(), before);
        let stats = engine.shutdown().expect("no panics");
        assert_eq!(stats.crashes_recovered, 1);
    }

    #[test]
    fn engine_linkdown_matches_fresh_plan_of_post_churn_topology() {
        let net = fig2a_network();
        let (cp, ps) = waypoint_plan(&net);
        let inv = waypoint_inv();
        let cache = LecCache::new();
        let mut engine = Engine::new_cached(
            &net,
            &cp,
            &ps,
            &EngineConfig::default(),
            &cache,
            FifoTransport::default(),
            InstantClock,
        );
        engine.burst();
        let base_bytes = engine.report().canonical_bytes();
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();

        let down = TopologyEvent::LinkDown(a, b);
        engine
            .apply_topology_event(&down, &net.topology, &inv)
            .unwrap();
        assert_eq!(engine.epoch(), 1);
        let mut churn = ChurnState::new();
        churn.apply(&down);
        assert_eq!(
            engine.report().canonical_bytes(),
            fresh_report_bytes(&net, &churn),
            "incremental re-plan must match a fresh plan of the post-churn topology"
        );

        // Applying the same event again is a no-op: no epoch bump.
        engine
            .apply_topology_event(&down, &net.topology, &inv)
            .unwrap();
        assert_eq!(engine.epoch(), 1);

        // Recovery converges back to the original verdict.
        let up = TopologyEvent::LinkUp(a, b);
        engine
            .apply_topology_event(&up, &net.topology, &inv)
            .unwrap();
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
        let inv = waypoint_inv();
        let cache = LecCache::new();
        let mut engine = Engine::new_cached(
            &net,
            &cp,
            &ps,
            &EngineConfig::default(),
            &cache,
            FifoTransport::default(),
            InstantClock,
        );
        engine.burst();
        let base_bytes = engine.report().canonical_bytes();
        let b = net.topology.device("B").unwrap();

        let down = TopologyEvent::DeviceDown(b);
        engine
            .apply_topology_event(&down, &net.topology, &inv)
            .unwrap();
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

        // The device comes back: quarantine lifts, its verifier is
        // wiped and re-tasked, and the report returns to the original.
        let up = TopologyEvent::DeviceUp(b);
        engine
            .apply_topology_event(&up, &net.topology, &inv)
            .unwrap();
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
        let cache = LecCache::new();
        let mut engine = Engine::new_cached(
            &net,
            &cp,
            &ps,
            &EngineConfig::default(),
            &cache,
            LatencyTransport::new(net.topology.clone(), 10_000),
            VirtualClock::new(SwitchModel::MELLANOX),
        );
        engine.burst();
        engine.stage_batch(std::slice::from_ref(&update));
        let mut churn = ChurnState::new();
        for ev in [TopologyEvent::LinkDown(a, b), TopologyEvent::DeviceDown(b)] {
            churn.apply(&ev);
            engine
                .apply_topology_event(&ev, &net.topology, &inv)
                .unwrap();
        }
        engine.run_staged();
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
        let fresh_cache = LecCache::new();
        let mut fresh = Engine::new_cached(
            &fresh_net,
            &fresh_cp,
            &ps,
            &EngineConfig::default(),
            &fresh_cache,
            FifoTransport::default(),
            InstantClock,
        );
        fresh.burst();
        fresh.apply_batch(std::slice::from_ref(&update));
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
        let inv = waypoint_inv();
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();
        let events = [TopologyEvent::LinkDown(a, b), TopologyEvent::DeviceDown(b)];

        let cache = LecCache::new();
        let mut reference = Engine::new_cached(
            &net,
            &cp,
            &ps,
            &EngineConfig::default(),
            &cache,
            FifoTransport::default(),
            InstantClock,
        );
        reference.burst();
        for ev in &events {
            reference
                .apply_topology_event(ev, &net.topology, &inv)
                .unwrap();
        }

        let mut threaded = ThreadedEngine::spawn(&net, &cp, &ps);
        threaded.wait_quiescent();
        let cfg = WatchdogConfig::default();
        for ev in &events {
            threaded
                .apply_topology_event(ev, &net.topology, &inv)
                .unwrap();
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
        let inv = waypoint_inv();
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        let mut engine = ThreadedEngine::spawn(&net, &cp, &ps);
        engine.wait_quiescent();

        // Bump the epoch once so freshness marking is active.
        engine
            .apply_topology_event(&TopologyEvent::LinkDown(a, b), &net.topology, &inv)
            .unwrap();
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
        engine.inject_update(RuleUpdate::Insert {
            device: w,
            rule: Rule {
                priority: 50,
                matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
                action: Action::fwd(b),
            },
        });
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
        let inv = waypoint_inv();
        let cache = LecCache::new();
        let mut engine = Engine::new_cached(
            &net,
            &cp,
            &ps,
            &EngineConfig::default(),
            &cache,
            FifoTransport::default(),
            InstantClock,
        );
        engine.burst();
        let before = engine.report().canonical_bytes();
        let s = net.topology.device("S").unwrap();
        let d = net.topology.device("D").unwrap();
        // Isolating the destination makes the invariant unplannable.
        let ev = TopologyEvent::DeviceDown(d);
        let err = engine.apply_topology_event(&ev, &net.topology, &inv);
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

    #[test]
    fn histogram_and_drain() {
        let mut stats = RuntimeStats::default();
        for s in [5, 50, 500, 5000] {
            stats.msg_ns_samples.push(s);
        }
        assert_eq!(stats.msg_ns_histogram(&[10, 100, 1000]), vec![1, 1, 1, 1]);
        assert_eq!(stats.drain_msg_samples().len(), 4);
        assert!(stats.msg_ns_samples.is_empty());
    }
}
