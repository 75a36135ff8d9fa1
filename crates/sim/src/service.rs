//! The always-on verification service: admission control + SLO
//! tracking around one long-lived simulator harness.
//!
//! Batch runs answer "does the invariant hold for this snapshot?";
//! [`Service`] answers the paper's end-state question — does it *keep*
//! holding while FIB batches and topology churn stream in from many
//! independent sources, and is the verifier keeping up? It is the
//! protocol-facing driver loop the `tulkun daemon` subcommand wraps:
//! requests are *admitted* into bounded per-source queues (the same
//! cap philosophy as the reliability layer's
//! [`DEFAULT_CHANNEL_CAP`]), *drained* round-robin at the caller's
//! cadence, and judged against a latency budget by a
//! [`SloTracker`] rolling one window per drain round.
//!
//! Ordering contract: requests from one source are applied in their
//! arrival order (per-source FIFO); ordering *across* sources is
//! round-robin per drain round, which is the fairness guarantee — a
//! source flooding its queue cannot starve another source's single
//! update. Reports are snapshots-on-demand: [`Service::report`] never
//! drains the ingress queues, it evaluates what the devices have
//! converged to so far.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::runtime::{Engine, EngineConfig};
use tulkun_bdd::HeaderLayout;
use tulkun_core::churn::TopologyEvent;
use tulkun_core::dpvnet::NodeId;
use tulkun_core::dvm::reliable::DEFAULT_CHANNEL_CAP;
use tulkun_core::event::{EventOutcome, RuntimeEvent, Substrate};
use tulkun_core::explain::{Explanation, Subject};
use tulkun_core::fault::FaultProfile;
use tulkun_core::intent::{IntentId, IntentStore};
use tulkun_core::planner::CountingPlan;
use tulkun_core::spec::{Invariant, PacketSpace};
use tulkun_core::verify::{compile_packet_space, Freshness, Report};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::topology::{DeviceId, Topology};
use tulkun_predicate::{network_ip_only, pred_ip_only, update_ip_only, BackendCaps, BackendKind};
use tulkun_telemetry::{
    JournalKind, SloPolicy, SloTracker, SloVerdict, Telemetry, TelemetryConfig, CONVERGENCE_LAG_NS,
    REPORT_BUILD, REPORT_ENCODE,
};

/// What to do with a request that arrives while its queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject the request (the caller sees [`ServiceError::Shed`] and
    /// may retry after a drain). Never blocks the ingress path.
    Shed,
    /// Drain every queued request first, then admit. Trades ingress
    /// latency for losslessness — the service applies backpressure the
    /// way [`DEFAULT_CHANNEL_CAP`] does on the wire.
    Block,
}

/// Configuration for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Full-queue behavior.
    pub policy: AdmissionPolicy,
    /// Total queued requests across all sources before admission
    /// control engages.
    pub queue_cap: usize,
    /// Queued requests one source may hold before admission control
    /// engages for that source (fairness: one flooding source hits
    /// this long before the shared cap).
    pub per_source_cap: usize,
    /// Latency budgets for the SLO tracker.
    pub slo: SloPolicy,
    /// Run over a lossy management network (the reliability layer
    /// recovers; the SLO windows see the retransmission cost).
    pub faults: Option<FaultProfile>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            policy: AdmissionPolicy::Block,
            queue_cap: DEFAULT_CHANNEL_CAP,
            per_source_cap: DEFAULT_CHANNEL_CAP / 4,
            slo: SloPolicy::default(),
            faults: None,
        }
    }
}

/// Does a packet space compile to a predicate on destination bits
/// only — one the interval encodings can hold?
fn space_ip_only(layout: &HeaderLayout, ps: &PacketSpace) -> bool {
    pred_ip_only(&compile_packet_space(layout, ps))
}

/// One admitted unit of work.
#[derive(Debug, Clone)]
pub enum ServiceRequest {
    /// A burst of FIB rule updates, applied as one coalesced batch.
    Batch(Vec<RuleUpdate>),
    /// A live topology churn event (epoch fence + incremental re-plan).
    Churn(TopologyEvent),
    /// Install an invariant as a runtime intent (its DPVNet slice is
    /// deduplicated against live intents).
    IntentAdd {
        /// Human-readable intent name.
        name: String,
        /// The invariant to compile and install.
        invariant: Invariant,
    },
    /// Remove a live intent; shared nodes survive.
    IntentRemove(IntentId),
}

/// Why the service refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Shed by admission control: the named queue was full.
    Shed {
        /// The source whose request was shed.
        source: String,
        /// Requests queued for that source at the time.
        queued: usize,
    },
    /// A request refused before it was queued (a batch naming a
    /// device outside the topology), or a churn event the planner
    /// rejected (e.g. downing the only ingress); the old epoch and
    /// report stand.
    Rejected(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Shed { source, queued } => {
                write!(
                    f,
                    "shed: queue for source {source:?} is full ({queued} queued)"
                )
            }
            ServiceError::Rejected(why) => write!(f, "rejected: {why}"),
        }
    }
}

/// Counters and queue state for `tulkun status`.
#[derive(Debug, Clone, Default)]
pub struct ServiceStatus {
    /// Requests accepted into a queue since start.
    pub admitted: u64,
    /// Requests refused by admission control since start.
    pub shed: u64,
    /// Requests applied to the harness since start.
    pub processed: u64,
    /// Churn events the planner rejected (epoch unchanged).
    pub rejected_churn: u64,
    /// Intent requests the planner or store rejected (e.g. a slice the
    /// plan cannot count, or removing an unknown id).
    pub rejected_intents: u64,
    /// Installs parked behind an active topology fence, waiting to be
    /// re-planned against the next epoch (parked is *not* rejected).
    pub parked: u64,
    /// Live intents currently degraded because churn severed their
    /// slice; they revive on a later fence.
    pub degraded: u64,
    /// Requests currently queued across all sources.
    pub queued: usize,
    /// Drain rounds run.
    pub drains: u64,
    /// Current topology generation.
    pub epoch: u64,
    /// The predicate backend the device verifiers run on.
    pub backend: BackendKind,
    /// Requests applied per source, in source order.
    pub per_source: Vec<(String, u64)>,
    /// Live intents in id order: id, name and slice freshness (`false`
    /// when any of the intent's nodes is stale or unreachable).
    pub intents: Vec<IntentStatus>,
}

/// One live intent's row in `tulkun status`.
#[derive(Debug, Clone)]
pub struct IntentStatus {
    /// The intent's id (0 = the base intent the service started with).
    pub id: u64,
    /// Human-readable name.
    pub name: String,
    /// Global DPVNet nodes in the intent's slice (shared nodes counted
    /// once per intent).
    pub nodes: usize,
    /// Every node of the slice is counted against the current epoch.
    pub fresh: bool,
    /// The slice was severed by churn; the intent reports stale
    /// results until a later fence revives it.
    pub degraded: bool,
}

impl ServiceStatus {
    /// The status as a compact JSON object (one line).
    pub fn to_json(&self) -> tulkun_json::Json {
        use tulkun_json::Json;
        Json::Object(vec![
            ("admitted".into(), Json::Int(self.admitted as i64)),
            ("shed".into(), Json::Int(self.shed as i64)),
            ("processed".into(), Json::Int(self.processed as i64)),
            (
                "rejected_churn".into(),
                Json::Int(self.rejected_churn as i64),
            ),
            (
                "rejected_intents".into(),
                Json::Int(self.rejected_intents as i64),
            ),
            ("parked".into(), Json::Int(self.parked as i64)),
            ("degraded".into(), Json::Int(self.degraded as i64)),
            ("queued".into(), Json::Int(self.queued as i64)),
            ("drains".into(), Json::Int(self.drains as i64)),
            ("epoch".into(), Json::Int(self.epoch as i64)),
            ("backend".into(), Json::Str(self.backend.to_string())),
            (
                "per_source".into(),
                Json::Object(
                    self.per_source
                        .iter()
                        .map(|(s, n)| (s.clone(), Json::Int(*n as i64)))
                        .collect(),
                ),
            ),
            ("intent_count".into(), Json::Int(self.intents.len() as i64)),
            (
                "intents".into(),
                Json::Array(
                    self.intents
                        .iter()
                        .map(|i| {
                            Json::Object(vec![
                                ("id".into(), Json::Int(i.id as i64)),
                                ("name".into(), Json::Str(i.name.clone())),
                                ("nodes".into(), Json::Int(i.nodes as i64)),
                                ("fresh".into(), Json::Bool(i.fresh)),
                                ("degraded".into(), Json::Bool(i.degraded)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The always-on verification service. See the module docs for the
/// admission/ordering contract.
pub struct Service {
    cfg: ServiceConfig,
    /// The one long-lived engine the service drives, over perfect or
    /// lossy channels as configured; both converge to the same Report
    /// fixpoint. It also says which predicate backend the verifiers
    /// run on (see [`Service::new`] for how it is chosen).
    harness: Engine,
    /// The pre-churn topology every churn re-plan diffs against.
    base_topo: Topology,
    inv: Invariant,
    /// Per-source FIFO queues, drained round-robin in key order.
    queues: BTreeMap<String, VecDeque<ServiceRequest>>,
    queued: usize,
    processed_by: BTreeMap<String, u64>,
    admitted: u64,
    shed: u64,
    processed: u64,
    rejected_churn: u64,
    rejected_intents: u64,
    drains: u64,
    tel: Arc<Telemetry>,
    slo: SloTracker,
    /// An SLO breach or an `Unreachable` verdict was observed since the
    /// last [`Service::take_dump_pending`]: the embedding daemon should
    /// auto-dump the journal.
    dump_pending: bool,
}

impl Service {
    /// Builds the service over a network snapshot and runs the initial
    /// burst (all FIBs at t=0) so the first report is already the
    /// converged baseline.
    ///
    /// The predicate backend follows the workload, with no option for
    /// it: the service starts on `intervals` when every FIB rule and
    /// the invariant's packet space stay within the
    /// destination-prefix-only fragment, and on `bdd` otherwise. A
    /// later request the interval encoding cannot hold moves it to
    /// `bdd` for good, re-hosting the verifiers ([`Engine::rehost`]).
    pub fn new(net: &Network, plan: &CountingPlan, inv: &Invariant, cfg: ServiceConfig) -> Service {
        let ip_only = network_ip_only(net) && space_ip_only(&net.layout, &inv.packet_space);
        // The service's own always-enabled telemetry handle: the SLO
        // windows are the product, not an optional debugging aid. It
        // keeps histograms, counters and the journal, but no spans: no
        // verb reads them, and rings that fill with every op would
        // make memory grow with throughput.
        let tel = Telemetry::new(TelemetryConfig {
            ring_capacity: 0,
            ..TelemetryConfig::enabled()
        });
        let ecfg = EngineConfig {
            telemetry: tel.clone(),
            backend: BackendKind::fitting(ip_only),
            ..EngineConfig::default()
        };
        let mut harness = match cfg.faults {
            Some(profile) => Engine::lossy(net, plan, &inv.packet_space, ecfg, profile),
            None => Engine::new(net, plan, &inv.packet_space, ecfg),
        };
        harness.run_to_quiescence();
        let mut slo = SloTracker::new(cfg.slo);
        // Roll the init wave into its own window so steady-state
        // windows start from the post-burst baseline.
        slo.roll(&tel);
        Service {
            harness,
            base_topo: net.topology.clone(),
            inv: inv.clone(),
            queues: BTreeMap::new(),
            queued: 0,
            processed_by: BTreeMap::new(),
            admitted: 0,
            shed: 0,
            processed: 0,
            rejected_churn: 0,
            rejected_intents: 0,
            drains: 0,
            tel,
            slo,
            dump_pending: false,
            cfg,
        }
    }

    /// Makes room for a request before it is applied: when the request
    /// carries something the running encoding cannot hold (`fits` is
    /// false), the service moves to `bdd` first ([`Engine::rehost`]:
    /// the verifiers change encoding, the lifecycle does not),
    /// journaled as one `backend_swap` at the current epoch whose
    /// detail names `cause`. The move is one-way — going back would
    /// mean re-scanning every FIB rule at each batch, and could thrash
    /// between rebuilds. The rebuild's init wave lands in the SLO
    /// windows: a move is not free, and the tracker says so.
    fn make_room(&mut self, fits: bool, cause: &str) {
        if fits || self.harness.backend().caps() == BackendCaps::FULL {
            return;
        }
        let from = self.harness.backend();
        self.harness.rehost(BackendKind::Bdd);
        let epoch = self.harness.epoch();
        let detail = || {
            format!(
                "moved the predicate backend to bdd for {cause} \
                 (verifiers re-hosted from {from})"
            )
        };
        self.tel.journal(
            JournalKind::BackendSwap,
            DeviceId(0),
            epoch,
            0,
            None,
            detail,
        );
    }

    /// Offers one request from `source`. A batch naming a device
    /// outside the topology is refused with [`ServiceError::Rejected`]
    /// before it is queued: nothing changes. Under
    /// [`AdmissionPolicy::Shed`] a full queue returns
    /// [`ServiceError::Shed`]; under [`AdmissionPolicy::Block`] the
    /// service drains everything first and then admits.
    pub fn offer(&mut self, source: &str, req: ServiceRequest) -> Result<(), ServiceError> {
        if let ServiceRequest::Batch(updates) = &req {
            let devices = self.base_topo.num_devices();
            let outside = updates.iter().find(|u| u.device().0 as usize >= devices);
            if let Some(u) = outside {
                let d = u.device().0;
                return Err(ServiceError::Rejected(format!(
                    "batch names device {d}, outside the {devices}-device topology"
                )));
            }
        }
        let per_source = self.queues.get(source).map_or(0, |q| q.len());
        let full = self.queued >= self.cfg.queue_cap.max(1)
            || per_source >= self.cfg.per_source_cap.max(1);
        if full {
            match self.cfg.policy {
                AdmissionPolicy::Shed => {
                    self.shed += 1;
                    let epoch = self.harness.epoch();
                    self.tel.journal(
                        JournalKind::AdmissionShed,
                        DeviceId(0),
                        epoch,
                        0,
                        None,
                        || format!("shed request from {source:?} ({per_source} queued)"),
                    );
                    return Err(ServiceError::Shed {
                        source: source.to_string(),
                        queued: per_source,
                    });
                }
                AdmissionPolicy::Block => {
                    let epoch = self.harness.epoch();
                    let queued = self.queued;
                    self.tel.journal(
                        JournalKind::AdmissionBlocked,
                        DeviceId(0),
                        epoch,
                        0,
                        None,
                        || format!("blocked ingress from {source:?}: draining {queued} queued"),
                    );
                    self.drain();
                }
            }
        }
        self.queues
            .entry(source.to_string())
            .or_default()
            .push_back(req);
        self.queued += 1;
        self.admitted += 1;
        Ok(())
    }

    /// Drains every queued request. Returns the number applied.
    pub fn drain(&mut self) -> usize {
        self.drain_upto(usize::MAX)
    }

    /// Drains at most `max` requests, round-robin across sources in
    /// source order (one request per non-empty source per pass), and
    /// rolls one SLO window over what ran. Returns the number applied.
    pub fn drain_upto(&mut self, max: usize) -> usize {
        let mut n = 0;
        // Virtual ns elapsed in this round so far: request i's
        // convergence lag is the round's running quiescence time when
        // its own application quiesces, so queueing behind earlier
        // requests counts against the budget.
        let mut round_ns: u64 = 0;
        let sources: Vec<String> = self.queues.keys().cloned().collect();
        'round: loop {
            let mut any = false;
            for src in &sources {
                if n >= max {
                    break 'round;
                }
                let Some(req) = self.queues.get_mut(src).and_then(|q| q.pop_front()) else {
                    continue;
                };
                any = true;
                self.queued -= 1;
                // Journal entries recorded while this request applies
                // carry its source tag (`events <source>` filtering).
                self.tel.journal_scope(Some(src));
                let outcome = self.apply(req);
                self.tel.journal_scope(None);
                n += 1;
                self.processed += 1;
                *self.processed_by.entry(src.clone()).or_default() += 1;
                if let Some(outcome) = outcome {
                    round_ns = round_ns.saturating_add(outcome.completion_ns);
                    self.tel.observe(CONVERGENCE_LAG_NS, round_ns);
                }
            }
            if !any {
                break;
            }
        }
        if n > 0 {
            self.drains += 1;
            self.slo.roll(&self.tel);
            if !self.slo.verdict().ok() {
                let epoch = self.harness.epoch();
                let drains = self.drains;
                self.tel
                    .journal(JournalKind::SloBreach, DeviceId(0), epoch, 0, None, || {
                        format!("SLO breach after drain round {drains}")
                    });
                self.dump_pending = true;
            }
        }
        n
    }

    /// Writes every intent gauge from `freshness` and returns the live
    /// intents' rows: the population totals (`tulkun_intent_count` is
    /// the control plane's own), and one labeled series per live or
    /// parked id and none for any other, so a removed or rejected
    /// intent's series leave with it. A live id reads parked 0: it was
    /// never parked or has since landed. `status` and `metrics_text`
    /// call it before they read.
    fn export_intent_gauges(&self, freshness: &[(NodeId, Freshness)]) -> Vec<IntentStatus> {
        let stale: BTreeSet<NodeId> = freshness
            .iter()
            .filter(|(_, f)| !matches!(f, Freshness::Fresh))
            .map(|(n, _)| *n)
            .collect();
        let store = self.harness.intents();
        let intents: Vec<IntentStatus> = store
            .live()
            .map(|i| {
                let nodes = i.global_nodes();
                IntentStatus {
                    id: i.id.0,
                    name: i.name.clone(),
                    nodes: nodes.len(),
                    fresh: !i.is_degraded() && nodes.iter().all(|n| !stale.contains(n)),
                    degraded: i.is_degraded(),
                }
            })
            .collect();
        for (name, value) in [
            ("tulkun_rejected_intents", self.rejected_intents as usize),
            ("tulkun_parked_intents", store.parked_count()),
            ("tulkun_degraded_intents", store.degraded_count()),
        ] {
            self.tel.gauge_set(DeviceId(0), name, value as i64);
        }
        let label = |id: u64| format!("intent=\"{id}\"");
        let live = |value: fn(&IntentStatus) -> bool| -> Vec<(String, i64)> {
            intents
                .iter()
                .map(|i| (label(i.id), value(i) as i64))
                .collect()
        };
        let mut parked_series = live(|_| false);
        parked_series.extend(store.parked().map(|p| (label(p.id.0), 1)));
        for (name, series) in [
            ("tulkun_intent_fresh", live(|i| i.fresh)),
            ("tulkun_degraded_intents", live(|i| i.degraded)),
            ("tulkun_parked_intents", parked_series),
        ] {
            self.tel.gauge_set_family(name, series);
        }
        intents
    }

    /// Applies one request to the harness as one [`RuntimeEvent`]
    /// (a churn request names the service's base topology and
    /// invariant); `None` means it was rejected (counted and journaled;
    /// FIBs, epoch and Report unchanged). A request the running
    /// encoding cannot hold moves the service to `bdd` first
    /// ([`Service::make_room`]).
    fn apply(&mut self, req: ServiceRequest) -> Option<EventOutcome> {
        let ev = match req {
            ServiceRequest::Batch(updates) => {
                let fits = updates.iter().all(update_ip_only);
                self.make_room(fits, &format!("batch of {}", updates.len()));
                RuntimeEvent::Batch(updates)
            }
            ServiceRequest::Churn(event) => RuntimeEvent::Topology {
                event,
                base: self.base_topo.clone(),
                invariant: self.inv.clone(),
            },
            ServiceRequest::IntentAdd { name, invariant } => {
                let fits = space_ip_only(&self.harness.layout(), &invariant.packet_space);
                self.make_room(fits, &format!("install of intent {name:?}"));
                RuntimeEvent::InstallIntent { name, invariant }
            }
            ServiceRequest::IntentRemove(id) => RuntimeEvent::RemoveIntent(id),
        };
        let e = match self.harness.apply_event(&ev) {
            Ok(outcome) => return Some(outcome),
            Err(e) => e,
        };
        let (kind, why, dev, intent) = match ev {
            RuntimeEvent::Topology { event: ev, .. } => {
                self.rejected_churn += 1;
                let why = format!("planner rejected {}: {e:?}", ev.describe());
                (JournalKind::ChurnRejected, why, ev.primary_device(), None)
            }
            RuntimeEvent::InstallIntent { name, .. } => {
                let why = format!("install of intent {name:?} rejected: {e:?}");
                (JournalKind::IntentRejected, why, DeviceId(0), None)
            }
            RuntimeEvent::RemoveIntent(id) => {
                let why = format!("remove of intent {id} rejected: {e:?}");
                (JournalKind::IntentRejected, why, DeviceId(0), Some(id.0))
            }
            // Neither is ever refused, and no request maps to a crash.
            RuntimeEvent::Batch(_) | RuntimeEvent::CrashRestart(_) => return None,
        };
        if kind == JournalKind::IntentRejected {
            self.rejected_intents += 1;
        }
        self.tel
            .journal(kind, dev, self.harness.epoch(), 0, intent, || why);
        None
    }

    /// A Report snapshot *without* draining the ingress queues: the
    /// sources are evaluated as they have converged so far. Call
    /// [`Service::drain`] first for a quiescent report.
    pub fn report(&mut self) -> Report {
        self.harness.report()
    }

    /// [`Report::canonical_bytes`] of [`Service::report`], in two timed
    /// layers: `report.build` brings the per-source verdicts up to date
    /// (only sources whose export changed since the last call are
    /// evaluated and rendered again), and `report.encode` splices the
    /// rendered violations ([`tulkun_core::verify::Verdicts::canonical_bytes`]).
    pub fn report_bytes(&mut self) -> Vec<u8> {
        let tel = Arc::clone(&self.tel);
        let verdicts = tel.timed(DeviceId(0), &REPORT_BUILD, 0, 0, || self.harness.verdicts());
        tel.timed(DeviceId(0), &REPORT_ENCODE, 0, 0, || {
            verdicts.canonical_bytes()
        })
    }

    /// Counters, queue state and per-intent freshness. Takes `&mut
    /// self` because an `Unreachable` node arms the journal auto-dump;
    /// the ingress queues are *not* drained and no verdict is
    /// evaluated.
    pub fn status(&mut self) -> ServiceStatus {
        let freshness = self.harness.freshness();
        if freshness
            .iter()
            .any(|(_, f)| matches!(f, Freshness::Unreachable))
        {
            self.dump_pending = true;
        }
        let intents = self.export_intent_gauges(&freshness);
        let store = self.harness.intents();
        let (parked, degraded) = (store.parked_count() as u64, store.degraded_count() as u64);
        ServiceStatus {
            admitted: self.admitted,
            shed: self.shed,
            processed: self.processed,
            rejected_churn: self.rejected_churn,
            rejected_intents: self.rejected_intents,
            parked,
            degraded,
            queued: self.queued,
            drains: self.drains,
            epoch: self.harness.epoch(),
            backend: self.harness.backend(),
            per_source: self
                .processed_by
                .iter()
                .map(|(s, n)| (s.clone(), *n))
                .collect(),
            intents,
        }
    }

    /// Requests currently queued across all sources (what an admission
    /// reply echoes — no Report evaluation, unlike [`Service::status`]).
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// The runtime intent store (read-only).
    pub fn intents(&self) -> &IntentStore {
        self.harness.intents()
    }

    /// The SLO verdict over the rolling drain-round windows.
    pub fn slo(&self) -> SloVerdict {
        self.slo.verdict()
    }

    /// Replaces the SLO budgets (live config edit).
    pub fn set_slo(&mut self, policy: SloPolicy) {
        self.slo.set_policy(policy);
    }

    /// The active SLO budgets.
    pub fn slo_policy(&self) -> &SloPolicy {
        self.slo.policy()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Replaces the admission policy (live config edit).
    pub fn set_policy(&mut self, policy: AdmissionPolicy) {
        self.cfg.policy = policy;
    }

    /// Prometheus text exposition: the full registry (cumulative since
    /// start — the SLO verdict covers only the rolling windows), its
    /// intent gauges written first, plus the `tulkun_slo_*` verdict
    /// gauges.
    pub fn metrics_text(&self) -> String {
        self.export_intent_gauges(&self.harness.freshness());
        let mut out = self.tel.prometheus_text();
        out.push_str(&self.slo.verdict().prometheus_text());
        out
    }

    /// The predicate backend the device verifiers run on.
    pub fn backend(&self) -> BackendKind {
        self.harness.backend()
    }

    /// The full journal as one deterministic JSON document
    /// (`tulkun-journal-v1`).
    pub fn journal_json(&self) -> String {
        self.tel.journal_json()
    }

    /// True once per SLO breach or `Unreachable` sighting: the caller
    /// (the daemon) should dump the journal now. Clears the flag.
    pub fn take_dump_pending(&mut self) -> bool {
        std::mem::take(&mut self.dump_pending)
    }

    /// The service's telemetry handle (journal + metrics), for
    /// embedding surfaces that render exports directly.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.tel
    }

    /// Explains a subject's verdict from the journal entries visible to
    /// `source` ([`Engine::explain`]); an `unreachable` verdict arms the
    /// journal auto-dump.
    pub fn explain(
        &mut self,
        source: Option<&str>,
        subject: Subject,
    ) -> Result<Explanation, String> {
        let explanation = self.harness.explain(source, subject)?;
        self.dump_pending |= explanation.verdict.contains("unreachable");
        Ok(explanation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_core::count::CountExpr;
    use tulkun_core::planner::Planner;
    use tulkun_core::spec::{Behavior, PacketSpace, PathExpr};
    use tulkun_datasets::fig2a_network;
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
    use tulkun_netmodel::topology::Topology;

    fn fixture() -> (Network, CountingPlan, Invariant) {
        let net = fig2a_network();
        let inv = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("S .* D").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        (net, cp, inv)
    }

    /// An IP-only line S → B → W → D (dst-prefix matches only), so the
    /// interval backends are legal for the swap test.
    fn line_fixture() -> (Network, CountingPlan, Invariant) {
        let mut t = Topology::new();
        let s = t.add_device("S");
        let b = t.add_device("B");
        let w = t.add_device("W");
        let d = t.add_device("D");
        t.add_link(s, b, 1000);
        t.add_link(b, w, 1000);
        t.add_link(w, d, 1000);
        let p: tulkun_netmodel::prefix::IpPrefix = "10.0.0.0/23".parse().unwrap();
        t.add_external_prefix(d, p);
        let mut net = Network::new(t);
        for (dev, hop) in [(s, Some(b)), (b, Some(w)), (w, Some(d)), (d, None)] {
            net.fib_mut(dev).insert(Rule {
                priority: 24,
                matches: MatchSpec::dst(p),
                action: match hop {
                    Some(h) => Action::fwd(h),
                    None => Action::deliver(),
                },
            });
        }
        let inv = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("S .* D").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        (net, cp, inv)
    }

    fn some_update(net: &Network, prio: u32) -> RuleUpdate {
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        RuleUpdate::Insert {
            device: b,
            rule: Rule {
                priority: prio,
                matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
                action: Action::fwd(w),
            },
        }
    }

    #[test]
    fn shed_policy_rejects_beyond_per_source_cap() {
        let (net, cp, inv) = fixture();
        let cfg = ServiceConfig {
            policy: AdmissionPolicy::Shed,
            per_source_cap: 2,
            ..ServiceConfig::default()
        };
        let mut svc = Service::new(&net, &cp, &inv, cfg);
        for i in 0..2 {
            svc.offer("a", ServiceRequest::Batch(vec![some_update(&net, 40 + i)]))
                .unwrap();
        }
        let err = svc
            .offer("a", ServiceRequest::Batch(vec![some_update(&net, 50)]))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Shed { queued: 2, .. }));
        // Fairness: source "b" is unaffected by "a"'s full queue.
        svc.offer("b", ServiceRequest::Batch(vec![some_update(&net, 51)]))
            .unwrap();
        let st = svc.status();
        assert_eq!((st.admitted, st.shed, st.queued), (3, 1, 3));
        svc.drain();
        assert_eq!(svc.status().queued, 0);
        assert_eq!(svc.status().processed, 3);
    }

    #[test]
    fn block_policy_drains_instead_of_shedding() {
        let (net, cp, inv) = fixture();
        let cfg = ServiceConfig {
            policy: AdmissionPolicy::Block,
            per_source_cap: 1,
            ..ServiceConfig::default()
        };
        let mut svc = Service::new(&net, &cp, &inv, cfg);
        svc.offer("a", ServiceRequest::Batch(vec![some_update(&net, 40)]))
            .unwrap();
        // Queue full: this offer forces a drain, then admits.
        svc.offer("a", ServiceRequest::Batch(vec![some_update(&net, 41)]))
            .unwrap();
        let st = svc.status();
        assert_eq!(st.shed, 0);
        assert_eq!(st.processed, 1, "the blocked offer drained first");
        assert_eq!(st.queued, 1);
    }

    #[test]
    fn drain_is_round_robin_across_sources() {
        let (net, cp, inv) = fixture();
        let mut svc = Service::new(&net, &cp, &inv, ServiceConfig::default());
        for i in 0..3 {
            svc.offer("a", ServiceRequest::Batch(vec![some_update(&net, 40 + i)]))
                .unwrap();
        }
        svc.offer("b", ServiceRequest::Batch(vec![some_update(&net, 50)]))
            .unwrap();
        // Two slots: one must go to each source, not both to "a".
        assert_eq!(svc.drain_upto(2), 2);
        let st = svc.status();
        assert_eq!(
            st.per_source,
            vec![("a".to_string(), 1), ("b".to_string(), 1)]
        );
        assert_eq!(svc.drain(), 2);
    }

    #[test]
    fn service_report_matches_direct_replay_including_churn() {
        let (net, cp, inv) = fixture();
        let mut svc = Service::new(&net, &cp, &inv, ServiceConfig::default());
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        let up = some_update(&net, 40);
        svc.offer("cp", ServiceRequest::Batch(vec![up.clone()]))
            .unwrap();
        svc.offer("cp", ServiceRequest::Churn(TopologyEvent::LinkDown(b, w)))
            .unwrap();
        svc.drain();
        assert_eq!(svc.status().epoch, 1);

        let mut reference = Engine::new(&net, &cp, &inv.packet_space, EngineConfig::default());
        reference.run_to_quiescence();
        reference
            .apply_event(&RuntimeEvent::Batch(vec![up.clone()]))
            .unwrap();
        reference
            .apply_event(&RuntimeEvent::Topology {
                event: TopologyEvent::LinkDown(b, w),
                base: net.topology.clone(),
                invariant: inv.clone(),
            })
            .unwrap();
        assert_eq!(
            svc.report().canonical_bytes(),
            reference.report().canonical_bytes()
        );
        // SLO machinery saw the work: windows rolled, samples recorded.
        assert!(svc.slo().samples > 0);
        assert!(svc.slo().lag_samples >= 2);
    }

    /// The service records histograms, counters and its journal but no
    /// span, and a repeated `report` splices what the first rendered.
    #[test]
    fn service_records_no_spans_and_reports_what_changed() {
        let (net, cp, inv) = fixture();
        let mut svc = Service::new(&net, &cp, &inv, ServiceConfig::default());
        svc.offer("cp", ServiceRequest::Batch(vec![some_update(&net, 40)]))
            .unwrap();
        svc.drain();
        let bytes = svc.report_bytes();
        assert_eq!(bytes, svc.report().canonical_bytes());
        let tel = Arc::clone(svc.telemetry());
        assert!(tel.spans().is_empty());
        assert!(tel.histogram(REPORT_BUILD.hist).count() > 0);
        let rendered = || tel.metrics().counters["tulkun_report_sources_rendered_total"];
        let first = rendered();
        assert!(first > 0, "the first report renders every source");
        assert_eq!(svc.report_bytes(), bytes);
        assert_eq!(
            rendered(),
            first,
            "an unchanged source is not rendered again"
        );
    }

    #[test]
    fn lossy_service_converges_to_clean_report() {
        let (net, cp, inv) = fixture();
        let cfg = ServiceConfig {
            faults: Some(FaultProfile::loss(23, 0.10)),
            ..ServiceConfig::default()
        };
        let mut svc = Service::new(&net, &cp, &inv, cfg);
        for i in 0..4 {
            svc.offer("s", ServiceRequest::Batch(vec![some_update(&net, 40 + i)]))
                .unwrap();
        }
        svc.drain();
        let mut clean = Engine::new(&net, &cp, &inv.packet_space, EngineConfig::default());
        clean.run_to_quiescence();
        for i in 0..4 {
            clean
                .apply_event(&RuntimeEvent::Batch(vec![some_update(&net, 40 + i)]))
                .unwrap();
        }
        assert_eq!(
            svc.report().canonical_bytes(),
            clean.report().canonical_bytes()
        );
    }

    #[test]
    fn the_backend_follows_the_workload() {
        let (net, cp, inv) = line_fixture();
        let svc = Service::new(&net, &cp, &inv, ServiceConfig::default());
        assert_eq!(svc.backend(), BackendKind::Intervals);
        // A port in the base packet space, or in one FIB rule, is more
        // than the interval encoding holds.
        let web = Invariant {
            packet_space: inv.packet_space.clone().and(PacketSpace::dst_port(80)),
            ..inv.clone()
        };
        let cp_web = Planner::new(&net.topology).plan(&web).unwrap();
        let cp_web = cp_web.counting().unwrap().clone();
        let svc = Service::new(&net, &cp_web, &web, ServiceConfig::default());
        assert_eq!(svc.backend(), BackendKind::Bdd);
        let mut acl = net.clone();
        let b = acl.topology.device("B").unwrap();
        acl.fib_mut(b).insert(Rule {
            priority: 90,
            matches: MatchSpec::dst("10.0.0.0/24".parse().unwrap()).with_port(22),
            action: Action::Drop,
        });
        let svc = Service::new(&acl, &cp, &inv, ServiceConfig::default());
        assert_eq!(svc.backend(), BackendKind::Bdd);
    }

    #[test]
    fn backend_swap_preserves_report_and_queues() {
        let (net, cp, inv) = line_fixture();
        let mut svc = Service::new(&net, &cp, &inv, ServiceConfig::default());
        assert_eq!(svc.backend(), BackendKind::Intervals);
        // An intent over its own packet space, so the move re-hosts
        // nodes of two contexts.
        let narrow = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.1.0/24"))
            .ingress(["B"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("B .* D").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let b = net.topology.device("B").unwrap();
        let acl = RuleUpdate::Insert {
            device: b,
            rule: Rule {
                priority: 90,
                matches: MatchSpec::dst("10.0.0.0/24".parse().unwrap()).with_port(22),
                action: Action::Drop,
            },
        };
        let install = ServiceRequest::IntentAdd {
            name: "narrow".into(),
            invariant: narrow.clone(),
        };
        svc.offer("s", install).unwrap();
        svc.offer("s", ServiceRequest::Batch(vec![some_update(&net, 40)]))
            .unwrap();
        svc.drain();
        let epoch = svc.status().epoch;
        // A rule the intervals cannot hold moves the service to BDDs
        // before it applies, with one more request queued under it.
        svc.offer("s", ServiceRequest::Batch(vec![acl.clone()]))
            .unwrap();
        svc.offer("s", ServiceRequest::Batch(vec![some_update(&net, 41)]))
            .unwrap();
        assert_eq!(svc.drain_upto(1), 1);
        let st = svc.status();
        assert_eq!(st.backend, BackendKind::Bdd);
        assert_eq!((st.epoch, st.queued), (epoch, 1), "the lifecycle stays");
        let swaps = svc.telemetry().journal_events();
        let swaps = swaps.iter().filter(|e| e.kind == JournalKind::BackendSwap);
        assert_eq!(swaps.count(), 1);
        svc.drain();
        let mut reference = Engine::new(&net, &cp, &inv.packet_space, EngineConfig::default());
        reference.run_to_quiescence();
        let install = RuntimeEvent::InstallIntent {
            name: "narrow".to_string(),
            invariant: narrow,
        };
        let id = reference.apply_event(&install).unwrap().intent;
        assert_eq!(id, Some(IntentId(1)));
        for batch in [some_update(&net, 40), acl, some_update(&net, 41)] {
            reference
                .apply_event(&RuntimeEvent::Batch(vec![batch]))
                .unwrap();
        }
        assert_eq!(
            svc.report().canonical_bytes(),
            reference.report().canonical_bytes()
        );
    }
}
