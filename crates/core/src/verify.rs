//! In-process verification driver.
//!
//! [`Session`] instantiates one on-device verifier per topology device,
//! applies every [`RuntimeEvent`] through [`Substrate::apply_event`]
//! (FIB batches, topology churn, crash restarts, intent installs and
//! removals), delivers DVM messages until quiescence, and evaluates the
//! invariant's formula at the DPVNet sources. The discrete-event
//! simulator and the threaded runner drive the same verifiers with real
//! latencies; this driver is the clockless synchronous one (and the
//! reference semantics the others are tested against).

use crate::control::{ControlPlane, Decision};
use crate::count::Counts;
use crate::dpvnet::NodeId;
use crate::dvm::{DeviceVerifier, Envelope, NodeResult, VerifierConfig};
use crate::event::{EventOutcome, RuntimeEvent, Substrate};
use crate::intent::{InstalledIntent, IntentId, IntentStore};
use crate::localcheck::{ContractViolation, LocalChecker};
use crate::planner::{CountingPlan, Plan, PlanError, PlanKind};
use crate::spec::PacketSpace;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use tulkun_bdd::serial::{self, PortablePred};
use tulkun_bdd::{BddManager, HeaderLayout};
use tulkun_json::{Json, ToJson};
use tulkun_netmodel::network::{Network, RuleUpdate, UpdateBatch};
use tulkun_netmodel::DeviceId;
use tulkun_predicate::BackendKind;
use tulkun_telemetry::{JournalKind, Telemetry};

/// Why an invariant does not hold.
#[derive(Debug, Clone)]
pub enum ViolationKind {
    /// A universe's outcome vector fails the behavior formula at a
    /// source.
    Counting {
        /// The per-universe outcome set at the source.
        counts: Counts,
    },
    /// A local contract is broken (`equal` behaviors).
    Contract {
        /// Required forwarding set.
        expected: Vec<DeviceId>,
        /// Observed forwarding set.
        found: Vec<DeviceId>,
        /// Human-readable explanation.
        reason: String,
    },
}

/// One violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The device reporting the violation (a source for counting; the
    /// contract holder for `equal`).
    pub device: DeviceId,
    /// Its DPVNet node, in the *violated intent's* local numbering —
    /// the same id a standalone session for that intent would report.
    pub node: NodeId,
    /// The violating packet set.
    pub pred: PortablePred,
    /// What went wrong.
    pub kind: ViolationKind,
    /// The intent that failed (0 = the base intent; omitted from the
    /// JSON encoding when 0, so single-intent sessions keep their
    /// pre-intent byte encoding).
    pub intent: u64,
}

/// How current one DPVNet node's contribution to the verdict is after
/// topology churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Counted against the current epoch's plan.
    Fresh,
    /// The node's device last converged in the given (superseded)
    /// epoch — e.g. the convergence watchdog gave up on it mid-round.
    Stale(u64),
    /// The node's device is quarantined (dead or partitioned); its last
    /// known results are not part of the current plan at all.
    Unreachable,
}

/// The verification verdict.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Everything that failed (empty = the invariant holds).
    pub violations: Vec<Violation>,
    /// Per-node freshness markers, sorted by node id. Empty until a
    /// topology churn occurs; callers then get explicit partial results
    /// (`Fresh`/`Stale`/`Unreachable`) instead of a hang. Excluded from
    /// [`Report::canonical_bytes`] — the verdict over reachable nodes
    /// must stay substrate-identical.
    pub freshness: Vec<(NodeId, Freshness)>,
    /// Devices currently quarantined (dead or partitioned), sorted.
    pub quarantined: Vec<DeviceId>,
}

impl ToJson for ViolationKind {
    fn to_json(&self) -> Json {
        match self {
            ViolationKind::Counting { counts } => Json::Object(vec![(
                "Counting".to_string(),
                Json::Object(vec![("counts".to_string(), counts.to_json())]),
            )]),
            ViolationKind::Contract {
                expected,
                found,
                reason,
            } => Json::Object(vec![(
                "Contract".to_string(),
                Json::Object(vec![
                    ("expected".to_string(), expected.to_json()),
                    ("found".to_string(), found.to_json()),
                    ("reason".to_string(), reason.to_json()),
                ]),
            )]),
        }
    }
}

impl tulkun_json::FromJson for ViolationKind {
    fn from_json(v: &Json) -> Result<Self, tulkun_json::JsonError> {
        use tulkun_json::{FromJson, JsonError};
        if let Some(c) = v.get("Counting") {
            return Ok(ViolationKind::Counting {
                counts: FromJson::from_json(
                    c.get("counts")
                        .ok_or_else(|| JsonError::missing_field("counts"))?,
                )?,
            });
        }
        if let Some(c) = v.get("Contract") {
            let field = |name: &str| c.get(name).ok_or_else(|| JsonError::missing_field(name));
            return Ok(ViolationKind::Contract {
                expected: FromJson::from_json(field("expected")?)?,
                found: FromJson::from_json(field("found")?)?,
                reason: FromJson::from_json(field("reason")?)?,
            });
        }
        Err(JsonError::expected("violation kind", v))
    }
}

// Hand-written (not `impl_json_object!`) so `intent` is only emitted
// when non-zero: the base intent's violations keep the exact bytes the
// pre-intent encoding produced, which `Report::canonical_bytes`
// equivalence gates across substrates and sessions depend on.
impl ToJson for Violation {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("device".to_string(), self.device.to_json()),
            ("node".to_string(), self.node.to_json()),
            ("pred".to_string(), self.pred.to_json()),
            ("kind".to_string(), self.kind.to_json()),
        ];
        if self.intent != 0 {
            fields.push(("intent".to_string(), self.intent.to_json()));
        }
        Json::Object(fields)
    }
}

impl tulkun_json::FromJson for Violation {
    fn from_json(v: &Json) -> Result<Self, tulkun_json::JsonError> {
        use tulkun_json::{FromJson, JsonError};
        let field = |name: &str| v.get(name).ok_or_else(|| JsonError::missing_field(name));
        Ok(Violation {
            device: FromJson::from_json(field("device")?)?,
            node: FromJson::from_json(field("node")?)?,
            pred: FromJson::from_json(field("pred")?)?,
            kind: FromJson::from_json(field("kind")?)?,
            intent: match v.get("intent") {
                Some(i) => FromJson::from_json(i)?,
                None => 0,
            },
        })
    }
}

impl Report {
    /// Does the invariant hold?
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// A deterministic, substrate-independent byte encoding of the
    /// verdict: violations serialized to JSON and sorted. The message
    /// count is deliberately excluded — it is a property of the
    /// execution substrate (the event simulator, the threaded runner
    /// and the synchronous reference deliver different message
    /// schedules), while the verdict itself must be identical.
    /// Predicates are already canonical: BDD export is children-first
    /// post-order over a hash-consed DAG, so equal functions under the
    /// same variable order serialize to equal bytes on every substrate.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let rendered: Vec<String> = self.violations.iter().map(tulkun_json::to_string).collect();
        splice(rendered.iter().map(String::as_str).collect())
    }
}

/// The canonical encoding of rendered violations: sorted, joined into
/// one JSON array.
fn splice(mut rendered: Vec<&str>) -> Vec<u8> {
    rendered.sort_unstable();
    let len = rendered.iter().map(|r| r.len() + 1).sum::<usize>() + 1;
    let mut out = Vec::with_capacity(len);
    out.push(b'[');
    for (i, r) in rendered.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(r.as_bytes());
    }
    out.push(b']');
    out
}

/// The verdict of every evaluated source as last rendered: what
/// [`evaluate_intents`] reuses for a source whose export has not
/// changed, and what a daemon reply splices.
///
/// Per hosted live intent it keeps the intent's plan `Arc` and, per
/// source of that plan in plan order, the export `Arc` last read, the
/// violations it gave and their rendered JSON. A source whose read
/// returns the same `Arc` reuses its entry: a verifier replaces a
/// node's export exactly when the node's `LocCIB` changes, and the memo
/// holds every `Arc` it compares, so no address is reused under it. A
/// changed plan pointer drops the intent's entries, since a re-plan may
/// hand a global node, export and all, to a source with another
/// intent-local id; so do degradation and removal, and a source that
/// is no longer visited goes with its plan.
#[derive(Debug, Default)]
pub struct Verdicts {
    intents: BTreeMap<IntentId, IntentVerdicts>,
}

#[derive(Debug)]
struct IntentVerdicts {
    plan: Arc<CountingPlan>,
    /// One per `plan.dpvnet.sources()`, in order.
    sources: Vec<SourceVerdict>,
}

#[derive(Debug)]
struct SourceVerdict {
    /// The export the verdict was evaluated on.
    read: NodeResult,
    violations: Vec<Violation>,
    rendered: Vec<String>,
}

impl SourceVerdict {
    /// Evaluates `intent`'s formula on every entry `read` exports for
    /// its source `(dev, local)`, and renders what fails.
    fn evaluate(intent: &InstalledIntent, dev: DeviceId, local: NodeId, read: NodeResult) -> Self {
        let (formula, escape_idx) = (&intent.plan.formula, intent.plan.escape_idx());
        let violations: Vec<Violation> = read
            .iter()
            .filter(|(_, counts)| counts.iter().any(|u| !formula.eval(u, escape_idx)))
            .map(|(pred, counts)| Violation {
                device: dev,
                node: local,
                pred: pred.clone(),
                kind: ViolationKind::Counting {
                    counts: counts.clone(),
                },
                intent: intent.id.0,
            })
            .collect();
        let rendered = violations.iter().map(tulkun_json::to_string).collect();
        SourceVerdict {
            read,
            violations,
            rendered,
        }
    }
}

impl Verdicts {
    fn sources(&self) -> impl Iterator<Item = &SourceVerdict> {
        self.intents.values().flat_map(|i| &i.sources)
    }

    /// Every violation, intent by intent in id order and source by
    /// source in plan order.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.sources().flat_map(|s| &s.violations)
    }

    /// The verdict as a [`Report`]: [`Verdicts::violations`], cloned.
    pub fn report(&self) -> Report {
        Report {
            violations: self.violations().cloned().collect(),
            ..Report::default()
        }
    }

    /// [`Report::canonical_bytes`] of [`Verdicts::report`], spliced
    /// from the rendered violations without rendering any.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let rendered = self.sources().flat_map(|s| &s.rendered);
        splice(rendered.map(String::as_str).collect())
    }
}

/// Compiles a packet space to a portable predicate.
pub fn compile_packet_space(layout: &HeaderLayout, ps: &PacketSpace) -> PortablePred {
    let mut m = BddManager::new(layout.num_vars());
    let p = ps.compile(&mut m, layout);
    serial::export(&m, p)
}

/// A live distributed-counting session over a network snapshot: the
/// clockless reference substrate. It changes only through
/// [`Substrate::apply_event`], over the whole [`RuntimeEvent`]
/// alphabet, crash restarts included, and drives with
/// [`Session::run_to_quiescence`]. Lifecycle decisions are the
/// [`ControlPlane`]'s; the session only builds verifiers, queues each
/// device's fence output and delivers to quiescence.
pub struct Session {
    control: ControlPlane,
    verifiers: BTreeMap<DeviceId, DeviceVerifier>,
    queue: VecDeque<Envelope>,
    verdicts: Verdicts,
    /// Observability handle (disabled by default; see
    /// [`Session::set_telemetry`]). The reference session records only
    /// flight-recorder journal entries — no spans, its clockless
    /// delivery has nothing to time.
    tel: Arc<Telemetry>,
}

impl Session {
    /// Builds a verifier for every topology device, each hosting its
    /// share of [`ControlPlane::hosted`]. Panics if the plan
    /// is not a counting plan (use [`verify_snapshot`] for the generic
    /// entry point).
    pub fn new(net: &Network, plan: &Plan) -> Session {
        let PlanKind::Counting(cp) = &plan.kind else {
            // A caller's contract, not an input's: no daemon path builds
            // a `Session` (the daemon's service runs an `Engine`), and
            // every caller hands it a plan it planned as counting.
            panic!("Session requires a counting plan; use verify_snapshot for local plans");
        };
        Session::from_counting(net, cp.clone(), &plan.invariant.packet_space)
    }

    /// Builds a session directly from a counting plan (on the default
    /// BDD backend).
    pub fn from_counting(net: &Network, cp: CountingPlan, ps: &PacketSpace) -> Session {
        Session::from_counting_with_backend(net, cp, ps, BackendKind::Bdd)
    }

    /// Like [`Session::from_counting`], with an explicit predicate
    /// backend. Panics if the network is outside the backend's
    /// capabilities; callers that take the kind from outside the
    /// program run [`BackendKind::check`] themselves first.
    pub fn from_counting_with_backend(
        net: &Network,
        cp: CountingPlan,
        ps: &PacketSpace,
        backend: BackendKind,
    ) -> Session {
        // The contract documented above: a kind from outside the
        // program is checked by its caller first. The reference
        // sessions in the tests and the benchmark pick `bdd` or a kind
        // their destination-only datasets fit; no daemon input reaches
        // this.
        let kind = backend
            .check(tulkun_predicate::network_ip_only(net))
            .unwrap_or_else(|e| panic!("{e}"));
        let cfg = VerifierConfig::of(&cp);
        let tel = Telemetry::disabled();
        let mut control = ControlPlane::new(&net.topology, net.layout, &cp, ps, tel.clone());
        let mut hosted = control.hosted();
        let mut queue = VecDeque::new();
        // Like both fabrics of the runtime: one verifier per topology
        // device, the only copy of its FIB, so the fence that first
        // tasks a device finds its data plane current.
        let verifiers = net.topology.devices().map(|dev| {
            let share = hosted.remove(&dev).unwrap_or_default();
            let fib = net.fib(dev).clone();
            let mut v = DeviceVerifier::builder(dev, net.layout, fib, cfg)
                .backend(kind)
                .build();
            v.apply_fence(0, 0, share, &mut queue);
            (dev, v)
        });
        let verifiers = verifiers.collect();
        Session {
            control,
            verifiers,
            queue,
            verdicts: Verdicts::default(),
            tel,
        }
    }

    /// Attach an observability handle: flight-recorder journal entries
    /// for every fence/churn/intent event the session applies. The
    /// default handle is disabled (every record call is one branch).
    pub fn set_telemetry(&mut self, tel: Arc<Telemetry>) {
        self.control.set_telemetry(tel.clone());
        self.tel = tel;
    }

    /// The counting plan driving this session.
    pub fn plan(&self) -> &CountingPlan {
        self.control.plan()
    }

    /// Access a device's verifier.
    pub fn verifier(&self, dev: DeviceId) -> Option<&DeviceVerifier> {
        self.verifiers.get(&dev)
    }

    /// Mutable access to a device's verifier (result export needs the
    /// device's BDD manager).
    pub fn verifier_mut(&mut self, dev: DeviceId) -> Option<&mut DeviceVerifier> {
        self.verifiers.get_mut(&dev)
    }

    /// Delivers queued messages until no messages are in flight: the
    /// messages and wire bytes it took (no clock, so no completion
    /// time).
    pub fn run_to_quiescence(&mut self) -> EventOutcome {
        let mut out = EventOutcome::default();
        while let Some(env) = self.queue.pop_front() {
            out.messages += 1;
            out.bytes += env.wire_bytes() as u64;
            if let Some(v) = self.verifiers.get_mut(&env.to) {
                v.handle(&env, &mut self.queue);
            }
        }
        out
    }

    /// Injects a burst of rule updates *without* running to quiescence:
    /// the UPDATE wave each coalesced per-device batch causes stays in
    /// the in-flight queue. The always-on service uses this to admit
    /// work while deferring propagation to its own drain cadence;
    /// [`Session::report`] stays callable in between — it evaluates
    /// whatever each source has converged to so far, so a snapshot
    /// never has to wait for (or force) quiescence.
    pub fn stage_batch(&mut self, updates: &[RuleUpdate]) {
        let batch: UpdateBatch = updates.iter().cloned().collect();
        let n = updates.len();
        let mut journaled = false;
        for (dev, ops) in batch.coalesced() {
            if !journaled {
                journaled = true;
                self.tel.journal(
                    JournalKind::BatchApplied,
                    dev,
                    self.epoch(),
                    0,
                    None,
                    || format!("{n} updates"),
                );
            }
            if let Some(v) = self.verifiers.get_mut(&dev) {
                v.handle_fib_batch(&ops, &mut self.queue);
            }
        }
    }

    /// Messages currently in flight (staged but not yet delivered).
    /// Zero means every past batch has fully propagated, i.e. a
    /// [`Session::report`] taken now is quiescent, not just current.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The current fence generation (0 until the first churn event or
    /// intent install/remove).
    pub fn epoch(&self) -> u64 {
        self.control.epoch()
    }

    /// Queues the fence of a decision, if any: every device's fence
    /// output. Whatever is still queued belongs to an older epoch —
    /// every verifier discards it on delivery — so it is what this
    /// fence loses. Not driven; returns the outcome of the event that
    /// named `intent`.
    fn deliver(&mut self, intent: Option<IntentId>, mut d: Decision) -> EventOutcome {
        if let Some(mut plan) = d.fence.take() {
            self.control.seal(&mut plan, self.queue.len(), 0);
            for (dev, fence) in plan.devices {
                if let Some(v) = self.verifiers.get_mut(&dev) {
                    v.apply_fence(plan.epoch, 0, fence, &mut self.queue);
                }
            }
        }
        d.outcome(intent)
    }

    /// Crashes and restarts `dev`'s verification agent the way the
    /// engines do ([`ControlPlane::restart`]): what is queued for it is
    /// dropped, it applies its restart share, and each of the share's
    /// peers replays its durable protocol state toward it. Not driven.
    fn restart(&mut self, dev: DeviceId) {
        let Some(share) = self.control.restart(dev, 0) else {
            return;
        };
        self.queue.retain(|env| env.to != dev);
        let (epoch, peers) = (self.epoch(), share.peers());
        if let Some(v) = self.verifiers.get_mut(&dev) {
            v.apply_fence(epoch, 0, share, &mut self.queue);
        }
        for nb in peers {
            if let Some(v) = self.verifiers.get_mut(&nb) {
                v.replay_for_restart(dev, &mut self.queue);
            }
        }
    }

    /// Evaluates every live intent at its DPVNet sources (each universe
    /// of each packet set must satisfy the intent's formula).
    pub fn report(&mut self) -> Report {
        let mut r = self.verdicts().report();
        self.control.annotate(&mut r, &BTreeMap::new());
        r
    }

    /// Brings the per-source verdicts up to date ([`evaluate_intents`])
    /// and returns them.
    pub fn verdicts(&mut self) -> &Verdicts {
        let verifiers = &mut self.verifiers;
        evaluate_intents(self.control.intents(), &mut self.verdicts, |dev, node| {
            let v = verifiers.get_mut(&dev);
            v.map_or_else(|| Vec::new().into(), |v| v.node_result(node))
        });
        &self.verdicts
    }

    /// The live intents and their shared global node table.
    pub fn intents(&self) -> &IntentStore {
        self.control.intents()
    }
}

impl Substrate for Session {
    fn apply_event(&mut self, ev: &RuntimeEvent) -> Result<EventOutcome, PlanError> {
        use RuntimeEvent as E;
        let staged = match ev {
            E::Batch(updates) => {
                self.stage_batch(updates);
                EventOutcome::default()
            }
            E::CrashRestart(dev) => {
                self.restart(*dev);
                EventOutcome::default()
            }
            E::Topology {
                event,
                base,
                invariant,
            } => {
                let d = self.control.topology_event(event, base, invariant, 0)?;
                self.deliver(None, d)
            }
            E::InstallIntent { name, invariant } => {
                let (id, d) = self.control.install(name, invariant, 0)?;
                self.deliver(Some(id), d)
            }
            E::RemoveIntent(id) => {
                let d = self.control.remove(*id, 0)?;
                self.deliver(Some(*id), d)
            }
        };
        let run = self.run_to_quiescence();
        Ok(EventOutcome {
            messages: run.messages,
            bytes: run.bytes,
            ..staged
        })
    }
}

/// Evaluates every live intent's formula at its own DPVNet sources
/// into `memo`, given a way to read a *global* node's counting results
/// (each substrate reads its own verifiers). Violations carry the
/// intent id and the intent-local source node id, so a multi-intent
/// report over the shared node table is byte-equal to the
/// concatenation of each intent's standalone report (with non-base
/// intents tagged). A source whose export is the one `memo` last read
/// keeps its verdict; returns how many sources were evaluated afresh.
pub fn evaluate_intents(
    store: &IntentStore,
    memo: &mut Verdicts,
    mut node_result: impl FnMut(DeviceId, NodeId) -> NodeResult,
) -> usize {
    let mut last = std::mem::take(&mut memo.intents);
    let mut evaluated = 0;
    // A degraded intent's slice is not hosted by the current topology:
    // its stale results are reported via freshness, not as verdicts.
    for intent in store.live().filter(|i| !i.is_degraded()) {
        let mut kept = match last.remove(&intent.id) {
            Some(v) if Arc::ptr_eq(&v.plan, &intent.plan) => v.sources.into_iter(),
            _ => Vec::new().into_iter(),
        };
        let mut sources = Vec::with_capacity(intent.plan.dpvnet.sources().len());
        for &(dev, local) in intent.plan.dpvnet.sources() {
            let read = node_result(dev, intent.to_global[local.idx()]);
            sources.push(match kept.next() {
                Some(v) if Arc::ptr_eq(&v.read, &read) => v,
                _ => {
                    evaluated += 1;
                    SourceVerdict::evaluate(intent, dev, local, read)
                }
            });
        }
        let plan = Arc::clone(&intent.plan);
        memo.intents
            .insert(intent.id, IntentVerdicts { plan, sources });
    }
    evaluated
}

/// Verifies a network snapshot against a plan (counting or local) and
/// reports the verdict.
pub fn verify_snapshot(net: &Network, plan: &Plan) -> Report {
    match &plan.kind {
        PlanKind::Counting(_) => {
            let mut s = Session::new(net, plan);
            s.run_to_quiescence();
            s.report()
        }
        PlanKind::Local(lp) => {
            let packet_space = compile_packet_space(&net.layout, &plan.invariant.packet_space);
            let mut violations = Vec::new();
            let mut by_dev: BTreeMap<DeviceId, Vec<crate::planner::LocalContract>> =
                BTreeMap::new();
            for c in &lp.contracts {
                by_dev.entry(c.dev).or_default().push(c.clone());
            }
            for (dev, contracts) in by_dev {
                let mut checker = LocalChecker::new(
                    dev,
                    net.layout,
                    net.fib(dev).clone(),
                    contracts,
                    &packet_space,
                );
                violations.extend(checker.check().into_iter().map(Violation::from));
            }
            Report {
                violations,
                ..Report::default()
            }
        }
    }
}

impl From<ContractViolation> for Violation {
    fn from(cv: ContractViolation) -> Violation {
        Violation {
            device: cv.device,
            node: cv.node,
            pred: cv.pred,
            kind: ViolationKind::Contract {
                expected: cv.expected,
                found: cv.found,
                reason: cv.reason,
            },
            intent: 0,
        }
    }
}
