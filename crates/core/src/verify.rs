//! In-process verification driver.
//!
//! [`Session`] instantiates one on-device verifier per participating
//! device, delivers DVM messages until quiescence, and evaluates the
//! invariant's formula at the DPVNet sources. The discrete-event
//! simulator and the threaded runner drive the same verifiers with real
//! latencies; this driver is the convenient synchronous API (and the
//! reference semantics the others are tested against).

use crate::churn::TopologyEvent;
use crate::control::{ControlPlane, FencePlan};
use crate::count::Counts;
use crate::dpvnet::NodeId;
use crate::dvm::{DeviceVerifier, Envelope, NodeResult, VerifierConfig};
use crate::event::{EventOutcome, RuntimeEvent, Substrate};
use crate::intent::{InstalledIntent, IntentDelta, IntentId, IntentStore};
use crate::localcheck::{ContractViolation, LocalChecker};
use crate::planner::{CountingPlan, NodeTask, Plan, PlanError, PlanKind};
use crate::spec::{Invariant, PacketSpace};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use tulkun_bdd::serial::{self, PortablePred};
use tulkun_bdd::{BddManager, HeaderLayout};
use tulkun_json::{Json, ToJson};
use tulkun_netmodel::network::{Network, RuleUpdate, UpdateBatch};
use tulkun_netmodel::topology::Topology;
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
    /// DVM messages processed to reach quiescence.
    pub messages: usize,
    /// Per-node freshness markers, sorted by node id. Empty until a
    /// topology churn occurs; callers then get explicit partial results
    /// (`Fresh`/`Stale`/`Unreachable`) instead of a hang. Like
    /// `messages`, excluded from [`Report::canonical_bytes`] — the
    /// verdict over reachable nodes must stay substrate-identical.
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

    /// The verdict as a [`Report`]: every violation, intent by intent
    /// in id order and source by source in plan order.
    pub fn report(&self) -> Report {
        Report {
            violations: self
                .sources()
                .flat_map(|s| &s.violations)
                .cloned()
                .collect(),
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
/// clockless reference substrate. Lifecycle decisions are the
/// [`ControlPlane`]'s; the session only builds verifiers, queues each
/// device's fence output and delivers to quiescence.
pub struct Session {
    control: ControlPlane,
    packet_space: PortablePred,
    verifiers: BTreeMap<DeviceId, DeviceVerifier>,
    queue: VecDeque<Envelope>,
    /// Messages processed since creation.
    pub messages_processed: usize,
    verdicts: Verdicts,
    /// The network snapshot, kept current under rule updates so
    /// verifiers can be built lazily for devices a later intent pulls
    /// into the plan.
    net: Network,
    cfg: VerifierConfig,
    backend_kind: BackendKind,
    /// Observability handle (disabled by default; see
    /// [`Session::set_telemetry`]). The reference session records only
    /// flight-recorder journal entries — no spans, its clockless
    /// delivery has nothing to time.
    tel: Arc<Telemetry>,
}

impl Session {
    /// Builds verifiers for every device with a task. Panics if the plan
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
        let tel = Telemetry::disabled();
        let mut session = Session {
            control: ControlPlane::new(&net.topology, net.layout, &cp, ps, tel.clone()),
            packet_space: compile_packet_space(&net.layout, ps),
            verifiers: BTreeMap::new(),
            queue: VecDeque::new(),
            messages_processed: 0,
            verdicts: Verdicts::default(),
            net: net.clone(),
            cfg: VerifierConfig {
                n_exprs: cp.exprs.len(),
                track_escapes: cp.track_escapes,
                reduce: cp.reduce,
            },
            // The contract documented above: a kind from outside the
            // program is checked by its caller first. The reference
            // sessions in the tests and the benchmark pick `bdd` or a
            // kind their destination-only datasets fit; no daemon input
            // reaches this.
            backend_kind: backend
                .check(tulkun_predicate::network_ip_only(net))
                .unwrap_or_else(|e| panic!("{e}")),
            tel,
        };
        let s = &mut session;
        for (dev, tasks) in cp.tasks_by_device() {
            let (ps, queue) = (&s.packet_space, &mut s.queue);
            let v = build_verifier(&s.net, ps, &s.cfg, s.backend_kind, dev, tasks, queue);
            s.verifiers.insert(dev, v);
        }
        session
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

    /// Delivers queued messages until no messages are in flight.
    /// Returns the number processed.
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut n = 0;
        while let Some(env) = self.queue.pop_front() {
            n += 1;
            if self.control.is_quarantined(env.to) {
                continue;
            }
            if let Some(v) = self.verifiers.get_mut(&env.to) {
                v.handle(&env, &mut self.queue);
            }
        }
        self.messages_processed += n;
        n
    }

    /// Applies a rule update at its device and re-runs to quiescence.
    /// Returns the number of messages the update caused.
    pub fn apply_rule_update(&mut self, update: &RuleUpdate) -> usize {
        self.apply_batch(std::slice::from_ref(update))
    }

    /// Applies a burst of rule updates — one coalesced per-device batch
    /// each — and re-runs to quiescence. Returns the number of messages
    /// the burst caused.
    pub fn apply_batch(&mut self, updates: &[RuleUpdate]) -> usize {
        self.stage_batch(updates);
        self.run_to_quiescence()
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
        // Keep the snapshot current: a verifier built lazily for a
        // later intent must see the post-update FIB.
        self.net.apply_batch(&batch);
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

    /// Delivers one fence: builds the verifiers it pulls in, queues
    /// every device's fence output and runs to quiescence. Whatever is
    /// still queued belongs to an older epoch — every verifier discards
    /// it on delivery — so it is what this fence loses. Returns the
    /// messages the fence caused (0 when there is nothing to deliver).
    fn deliver(&mut self, fence: Option<FencePlan>) -> usize {
        let Some(mut plan) = fence else {
            return 0;
        };
        self.control.seal(&mut plan, self.queue.len(), 0);
        let (net, ps, cfg, kind) = (&self.net, &self.packet_space, &self.cfg, self.backend_kind);
        for (dev, fence) in plan.devices {
            let v = self.verifiers.entry(dev).or_insert_with(|| {
                build_verifier(net, ps, cfg, kind, dev, Vec::new(), &mut self.queue)
            });
            v.apply_fence(plan.epoch, 0, fence, &mut self.queue);
        }
        self.run_to_quiescence()
    }

    /// Applies one live topology churn event
    /// ([`ControlPlane::topology_event`]; `base` must be the topology
    /// the session was constructed on, `inv` the invariant its base plan
    /// was compiled from) and re-runs to quiescence. Returns the number
    /// of messages the churn caused. An `Err` leaves the session on the
    /// old epoch.
    pub fn apply_topology_event(
        &mut self,
        ev: &TopologyEvent,
        base: &Topology,
        inv: &Invariant,
    ) -> Result<usize, PlanError> {
        let decision = self.control.topology_event(ev, base, inv, 0)?;
        Ok(self.deliver(decision.fence))
    }

    /// Evaluates every live intent at its DPVNet sources (each universe
    /// of each packet set must satisfy the intent's formula).
    pub fn report(&mut self) -> Report {
        let mut r = self.verdicts().report();
        r.messages = self.messages_processed;
        self.control.annotate(&mut r, &BTreeMap::new());
        r
    }

    /// Brings the per-source verdicts up to date ([`evaluate_intents`])
    /// and returns them.
    pub fn verdicts(&mut self) -> &Verdicts {
        let verifiers = &mut self.verifiers;
        evaluate_intents(self.control.intents(), &mut self.verdicts, |dev, node| {
            let v = verifiers.get_mut(&dev);
            v.map_or_else(|| Vec::new().into(), |v| v.node_result(node, None))
        });
        &self.verdicts
    }

    /// The live intents and their shared global node table.
    pub fn intents(&self) -> &IntentStore {
        self.control.intents()
    }

    /// Compiles `inv` against the session's topology, installs it as a
    /// new runtime intent ([`ControlPlane::install`]) and re-converges.
    /// Returns the new intent id and the applied delta (its
    /// `reused_nodes` / `touched_devices` evidence slicing locality).
    pub fn install_intent(
        &mut self,
        name: &str,
        inv: &Invariant,
    ) -> Result<(IntentId, IntentDelta), PlanError> {
        let (id, mut d) = self.control.install(name, inv, 0)?;
        self.deliver(d.fence.take());
        Ok((id, d.delta))
    }

    /// Removes a live intent ([`ControlPlane::remove`]) and
    /// re-converges. Removing the base intent (id 0) is an `Err`.
    pub fn remove_intent(&mut self, id: IntentId) -> Result<IntentDelta, PlanError> {
        let mut d = self.control.remove(id, 0)?;
        self.deliver(d.fence.take());
        Ok(d.delta)
    }

    /// The invariant's packet space as a portable predicate.
    pub fn packet_space(&self) -> &PortablePred {
        &self.packet_space
    }
}

impl Substrate for Session {
    fn apply_event(&mut self, ev: &RuntimeEvent) -> Result<EventOutcome, PlanError> {
        use RuntimeEvent as E;
        let (intent, mut d) = match ev {
            E::Batch(updates) => {
                return Ok(EventOutcome {
                    messages: self.apply_batch(updates),
                    ..EventOutcome::default()
                })
            }
            E::CrashRestart(_) => {
                return Err(PlanError::Unsupported(
                    "the synchronous reference session has no crash/restart model".to_string(),
                ))
            }
            E::Topology {
                event,
                base,
                invariant,
            } => (
                None,
                self.control.topology_event(event, base, invariant, 0)?,
            ),
            E::InstallIntent { name, invariant } => {
                let (id, d) = self.control.install(name, invariant, 0)?;
                (Some(id), d)
            }
            E::RemoveIntent(id) => (Some(*id), self.control.remove(*id, 0)?),
        };
        let messages = self.deliver(d.fence.take());
        Ok(d.outcome(intent, messages))
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

/// Builds `dev`'s verifier over the FIB in `net` and queues what its
/// init sends: the session's one constructor, at construction and when
/// a fence first tasks a device.
fn build_verifier(
    net: &Network,
    packet_space: &PortablePred,
    cfg: &VerifierConfig,
    kind: BackendKind,
    dev: DeviceId,
    tasks: Vec<NodeTask>,
    queue: &mut VecDeque<Envelope>,
) -> DeviceVerifier {
    let fib = net.fib(dev).clone();
    let mut v = DeviceVerifier::builder(dev, net.layout, fib, packet_space, cfg.clone())
        .backend(kind)
        .tasks(tasks)
        .build();
    v.init(queue);
    v
}

/// Verifies a network snapshot against a plan (counting or local) and
/// reports the verdict.
pub fn verify_snapshot(net: &Network, plan: &Plan) -> Report {
    match &plan.kind {
        PlanKind::Counting(_) => {
            let mut s = Session::new(net, plan);
            let n = s.run_to_quiescence();
            let mut r = s.report();
            r.messages = n;
            r
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
                for cv in checker.check() {
                    violations.push(contract_violation(cv));
                }
            }
            Report {
                violations,
                messages: 0,
                ..Report::default()
            }
        }
    }
}

fn contract_violation(cv: ContractViolation) -> Violation {
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
