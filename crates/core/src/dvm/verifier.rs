//! The on-device verifier: executes counting tasks and speaks DVM (§5).
//!
//! Every device runs one `DeviceVerifier` holding:
//!
//! * a private predicate backend (a BDD manager, a Delta-net atom
//!   partition, or an interval-set universe — see
//!   [`tulkun_predicate::PredicateBackend`]) and the device's **LEC
//!   table** (predicate → action classes built from the FIB, §5.1);
//! * per DPVNet node mapped to this device: `CIBIn` (latest results per
//!   downstream neighbor), `LocCIB` (this node's counting results) and
//!   `CIBOut` (what upstream neighbors currently believe);
//! * the counting scope (invariant packet space, grown by `SUBSCRIBE`
//!   messages when upstream devices rewrite headers).
//!
//! The backend is chosen at runtime ([`DeviceVerifier::new`]);
//! wire messages always carry the canonical [`PortablePred`] ROBDD
//! encoding, so verifiers running different backends interoperate
//! byte-for-byte (the wire-format invariant of `tulkun-predicate`).
//!
//! Deviation from §5.2, documented in DESIGN.md: affected `LocCIB`
//! entries are recomputed from the stored `CIBIn` tables instead of
//! applying the inverse-⊗/⊕ trick; the two are equivalent because
//! `CIBIn` always holds the latest complete results (the UPDATE message
//! principle).

use crate::control::DeviceFence;
use crate::count::{Counts, ReduceMode};
use crate::dpvnet::NodeId;
use crate::dvm::message::{EdgeRef, Envelope, Payload};
use crate::planner::{CountingPlan, NodeTask};
use std::collections::BTreeMap;
use std::sync::Arc;
use tulkun_bdd::serial::PortablePred;
use tulkun_bdd::HeaderLayout;
use tulkun_netmodel::fib::{Action, ActionType, Fib, MatchSpec, NextHop, Rewrite};
use tulkun_netmodel::network::RuleUpdate;
use tulkun_netmodel::DeviceId;
use tulkun_predicate::{BackendKind, DynBackend, DynPred, PredicateBackend};
use tulkun_telemetry::{Telemetry, CIB_RECOMPUTE, FIB_BATCH, LEC_DELTA};

/// Static configuration shared by all verifiers of one plan: its
/// counting profile. The verifiers carry one outcome-vector dimension
/// and reduction mode for all hosted nodes, so every intent of one
/// store must share it (`IntentStore` refuses an install that does
/// not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierConfig {
    /// Number of path expressions.
    pub n_exprs: usize,
    /// Track the escape component (`covered` behaviors).
    pub track_escapes: bool,
    /// Minimal-counting-information reduction (Proposition 1).
    pub reduce: ReduceMode,
}

impl VerifierConfig {
    /// The counting profile of `plan`.
    pub fn of(plan: &CountingPlan) -> VerifierConfig {
        VerifierConfig {
            n_exprs: plan.exprs.len(),
            track_escapes: plan.track_escapes,
            reduce: plan.reduce,
        }
    }

    /// Outcome-vector dimension.
    pub fn dim(&self) -> usize {
        self.n_exprs + usize::from(self.track_escapes)
    }
}

#[derive(Debug)]
struct NodeState {
    task: NodeTask,
    /// The node's base packet space: the space of the intent (or plan)
    /// that installed it. Nodes of one verifier may belong to different
    /// intents with different packet spaces; `scope` always starts at
    /// this base.
    base: DynPred,
    /// Packet sets this node counts for (base space + subscriptions).
    scope: DynPred,
    /// Indices of LEC classes intersecting `scope` — the only classes
    /// counting ever touches (devices hold thousands of classes, an
    /// invariant's packet space usually overlaps a handful).
    relevant: Vec<usize>,
    /// Latest results per downstream node (predicates in downstream
    /// header space). Missing coverage means count zero.
    cib_in: BTreeMap<NodeId, Vec<(DynPred, Counts)>>,
    /// This node's counting results (partitions `scope`).
    loc_cib: LocCib,
    /// What upstream currently believes (reduced counts; partitions
    /// `scope`).
    cib_out: Vec<(DynPred, Counts)>,
    /// Scope already requested from each downstream device.
    sent_subs: BTreeMap<NodeId, DynPred>,
}

/// One node's exported counting results ([`DeviceVerifier::node_result`]):
/// shared, so a reader that keeps none of it copies none of it.
pub type NodeResult = Arc<[(PortablePred, Counts)]>;

use loc_cib::LocCib;

mod loc_cib {
    use super::{Counts, DynPred, NodeResult};

    /// A node's `LocCIB` together with the memo of its unfiltered
    /// export. The fields are private to this module so the table can
    /// only change through [`LocCib::edit`] — the memo's single
    /// invalidation point. (A node that is removed or re-created
    /// takes its memo with it.)
    #[derive(Debug)]
    pub(super) struct LocCib {
        entries: Vec<(DynPred, Counts)>,
        exported: Option<NodeResult>,
    }

    impl LocCib {
        pub(super) fn new(entries: Vec<(DynPred, Counts)>) -> LocCib {
            LocCib {
                entries,
                exported: None,
            }
        }

        pub(super) fn entries(&self) -> &[(DynPred, Counts)] {
            &self.entries
        }

        /// Mutable access to the table; forgets the exported form.
        pub(super) fn edit(&mut self) -> &mut Vec<(DynPred, Counts)> {
            self.exported = None;
            &mut self.entries
        }

        pub(super) fn exported(&self) -> Option<&NodeResult> {
            self.exported.as_ref()
        }

        /// Remembers `result` as the export of the current table.
        pub(super) fn set_exported(&mut self, result: NodeResult) {
            self.exported = Some(result);
        }
    }
}

/// The event-driven on-device verifier, over the predicate backend
/// chosen at build time.
pub struct DeviceVerifier {
    dev: DeviceId,
    backend: DynBackend,
    fib: Fib,
    lecs: Vec<(DynPred, Action)>,
    cfg: VerifierConfig,
    nodes: BTreeMap<NodeId, NodeState>,
    /// Causal trace id of the event currently being processed; stamped
    /// onto every emitted envelope (see [`Envelope::trace`]).
    trace: u64,
    /// Topology generation this verifier is planned against; stamped
    /// onto every emitted envelope (see [`Envelope::epoch`]). Incoming
    /// envelopes from an older generation are discarded at the fence.
    epoch: u64,
    /// Envelopes stamped with a *newer* generation than `epoch`: a peer
    /// applied its share of a fence this device has not seen yet. They
    /// describe a node table this verifier does not hold yet, so they
    /// wait here and [`DeviceVerifier::apply_fence`] replays them once
    /// the epochs match.
    early: Vec<Envelope>,
    /// Telemetry sink (with a disabled handle every record call is a
    /// single branch).
    tel: Arc<Telemetry>,
}

impl DeviceVerifier {
    /// Builds `dev`'s verifier over the `kind` predicate backend,
    /// deriving its LEC table from `fib`; it hosts no node yet. Nodes
    /// arrive with a fence share ([`DeviceVerifier::apply_fence`]),
    /// each new one with its base packet space. The caller has checked
    /// `kind` against the workload ([`BackendKind::check`]); `tel` may
    /// be the disabled handle ([`Telemetry::disabled`]).
    ///
    /// One device's LEC table is shared by all the tasks it hosts,
    /// across invariants (§8): a device hosts every intent's nodes on
    /// its one verifier, so the table is derived once, here.
    pub fn new(
        dev: DeviceId,
        layout: HeaderLayout,
        fib: Fib,
        cfg: VerifierConfig,
        kind: BackendKind,
        tel: Arc<Telemetry>,
    ) -> DeviceVerifier {
        let mut v = DeviceVerifier {
            dev,
            backend: DynBackend::new(kind, layout),
            fib,
            lecs: Vec::new(),
            cfg,
            nodes: BTreeMap::new(),
            trace: 0,
            epoch: 0,
            early: Vec::new(),
            tel,
        };
        v.rebuild_lecs();
        v.export_mem_gauges();
        v
    }

    /// The device this verifier runs on.
    pub fn device(&self) -> DeviceId {
        self.dev
    }

    /// The device's FIB, as every rule update applied so far left it.
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// The predicate backend in use.
    pub fn backend(&self) -> &DynBackend {
        &self.backend
    }

    /// Sets the causal trace id stamped onto subsequently emitted
    /// envelopes. Runtimes call this before injecting an internal
    /// event (FIB batch, fence share, replay) so the whole
    /// resulting UPDATE wave shares one id; incoming envelopes set it
    /// automatically in [`DeviceVerifier::handle`].
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// The topology generation currently in effect.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamps the current trace id and epoch and forwards `env` to
    /// `out`. Every data envelope leaves through here.
    fn emit(&mut self, mut env: Envelope, out: &mut Vec<Envelope>) {
        env.trace = self.trace;
        env.epoch = self.epoch;
        out.push(env);
    }

    /// DPVNet nodes hosted here.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Backend memory proxy for §9.4: BDD nodes, stored intervals, or
    /// atoms + list entries, depending on the representation.
    pub fn mem_units(&self) -> usize {
        self.backend.mem_units()
    }

    /// Exports this device's predicate-memory gauges (§9.4, Fig. 15):
    /// backend table size and operation-memo size. Set as this
    /// device's value where the table grows in bulk — build, FIB batch,
    /// fence; a metrics snapshot reports the largest device's current
    /// value, i.e. the heaviest device.
    fn export_mem_gauges(&self) {
        if !self.tel.is_enabled() {
            return;
        }
        let nodes = self.backend.mem_units() as i64;
        let memo = self.backend.memo_entries() as i64;
        self.tel.gauge_set(self.dev, "tulkun_bdd_nodes", nodes);
        self.tel
            .gauge_set(self.dev, "tulkun_bdd_memo_entries", memo);
    }

    fn rebuild_lecs(&mut self) {
        self.lecs = tulkun_predicate::lecs(&self.fib, &mut self.backend);
        self.refresh_relevance();
    }

    /// Recomputes every node's relevant-LEC index after the LEC table
    /// changed.
    fn refresh_relevance(&mut self) {
        for id in self.node_ids() {
            self.refresh_relevance_of(id);
        }
    }

    /// Recomputes one node's relevant-LEC index after its scope changed
    /// (or it was just installed).
    fn refresh_relevance_of(&mut self, node: NodeId) {
        let scope = self.nodes[&node].scope;
        let (lecs, be) = (&self.lecs, &mut self.backend);
        let relevant = (0..lecs.len())
            .filter(|&i| be.intersects(lecs[i].0, scope))
            .collect();
        if let Some(st) = self.nodes.get_mut(&node) {
            st.relevant = relevant;
        }
    }

    /// The LEC classes that can matter for one node (those intersecting
    /// its scope).
    fn relevant_lecs(&self, node: NodeId) -> Vec<(DynPred, Action)> {
        let st = &self.nodes[&node];
        st.relevant.iter().map(|&i| self.lecs[i].clone()).collect()
    }

    /// Handles one incoming DVM message, writing any responses to `out`.
    ///
    /// The **epoch fence**: an envelope stamped with a generation older
    /// than this verifier's is in-flight residue of a superseded
    /// topology and is discarded unprocessed — its counting results
    /// describe a DPVNet that no longer exists, and applying them would
    /// corrupt the new round. An envelope from a *newer* generation is
    /// held aside until this device's share of that fence arrives
    /// (fences reach devices one at a time; a peer that already applied
    /// its share may speak first).
    pub fn handle(&mut self, env: &Envelope, out: &mut Vec<Envelope>) {
        assert_eq!(env.to, self.dev, "message routed to the wrong device");
        if env.epoch > self.epoch {
            self.early.push(env.clone());
            return;
        }
        if env.epoch < self.epoch {
            self.tel.count("tulkun_epoch_discarded_total", 1);
            return;
        }
        self.trace = env.trace;
        match &env.payload {
            Payload::Update {
                edge,
                withdrawn,
                results,
            } => {
                self.tel.count("tulkun_dvm_updates_total", 1);
                self.handle_update(*edge, withdrawn, results, out);
            }
            Payload::Subscribe { edge, space } => {
                self.tel.count("tulkun_dvm_subscribes_total", 1);
                self.handle_subscribe(*edge, space, out);
            }
            // Acks belong to the reliability layer; a verifier that sees
            // one (e.g. over a perfect transport) ignores it.
            Payload::Ack { .. } => {}
        }
    }

    fn handle_update(
        &mut self,
        edge: EdgeRef,
        withdrawn: &[PortablePred],
        results: &[(PortablePred, Counts)],
        out: &mut Vec<Envelope>,
    ) {
        let node = edge.up;
        let v = edge.down;
        let Some(st) = self.nodes.get(&node) else {
            return; // stale message after a plan change
        };
        // A fence re-tasks a child together with the parent that
        // dropped it, and a device that goes down drops every node, so
        // within one epoch a child speaks only on edges its parent's
        // task has. An UPDATE on any other edge is counted and dropped.
        let Some(&(_, vdev)) = st.task.downstream.iter().find(|(n, _)| *n == v) else {
            self.tel.count("tulkun_dvm_stray_updates_total", 1);
            return;
        };
        // Step 1: update CIBIn(v).
        let mut w = self.backend.falsum();
        for p in withdrawn {
            let p = self.backend.import(p);
            w = self.backend.or(w, p);
        }
        let mut incoming = Vec::with_capacity(results.len());
        for (p, c) in results {
            let p = self.backend.import(p);
            incoming.push((p, c.clone()));
        }
        {
            let Some(st) = self.nodes.get_mut(&node) else {
                return;
            };
            let entry = st.cib_in.entry(v).or_default();
            let be = &mut self.backend;
            entry.retain_mut(|(p, _)| {
                *p = be.diff(*p, w);
                !be.is_false(*p)
            });
            entry.extend(incoming);
        }
        // Step 2 + 3: recompute the affected region of LocCIB and emit.
        let region = self.affected_region(node, vdev, w);
        self.recompute_node(node, region, out);
    }

    /// Upstream region affected by a change of downstream predicates `w`
    /// at neighbor device `vdev` (the causality lookup of §5.2): LEC
    /// classes forwarding to `vdev`, pulled back through any rewrite.
    fn affected_region(&mut self, node: NodeId, vdev: DeviceId, w: DynPred) -> DynPred {
        let mut region = self.backend.falsum();
        let lecs = self.relevant_lecs(node);
        for (pred, action) in &lecs {
            let Action::Forward {
                next_hops, rewrite, ..
            } = action
            else {
                continue;
            };
            if !next_hops.contains(&NextHop::Device(vdev)) {
                continue;
            }
            let wback = match rewrite {
                Some(rw) => self.preimage(w, rw),
                None => w,
            };
            let hit = self.backend.and(*pred, wback);
            region = self.backend.or(region, hit);
        }
        region
    }

    fn handle_subscribe(&mut self, edge: EdgeRef, space: &PortablePred, out: &mut Vec<Envelope>) {
        let node = edge.down;
        if !self.nodes.contains_key(&node) {
            return;
        }
        let s = self.backend.import(space);
        let scope = self.nodes[&node].scope;
        let grow = self.backend.diff(s, scope);
        if self.backend.is_false(grow) {
            return;
        }
        let zero = self.zero();
        {
            let be = &mut self.backend;
            let Some(st) = self.nodes.get_mut(&node) else {
                return;
            };
            st.scope = be.or(st.scope, grow);
            // The new region starts at the implicit zero on both tables.
            st.loc_cib.edit().push((grow, zero.clone()));
            st.cib_out.push((grow, zero));
        }
        // The grown scope may make more LEC classes relevant.
        self.refresh_relevance_of(node);
        self.emit_subscriptions(node, grow, out);
        self.recompute_node(node, grow, out);
    }

    /// Applies a whole burst of FIB rule updates for this device with a
    /// *single* LEC delta and one CIB recompute per affected node,
    /// emitting one coalesced UPDATE per upstream edge instead of one
    /// per rule. The LEC table is maintained *incrementally*: only the
    /// updated rules' match regions can change class, so the classes
    /// inside the union of those regions are re-derived — from the
    /// rules whose destination prefix overlaps the burst, not from the
    /// table ([`tulkun_predicate::lecs_in`]) — and spliced in: the §5.1
    /// "maintain a table of a minimal number of LECs" behaviour at the
    /// cost of what the burst touches.
    ///
    /// The batch leaves the verifier in exactly the state sequential
    /// application would: the FIB mutations happen in order, and the LEC
    /// splice derives the *final* classes inside the touched region.
    pub fn handle_fib_batch(&mut self, updates: &[RuleUpdate], out: &mut Vec<Envelope>) {
        if updates.is_empty() {
            return;
        }
        let tel = self.tel.clone();
        tel.timed(self.dev, &FIB_BATCH, self.trace, 0, || {
            self.fib_batch_inner(updates, out)
        });
        tel.count("tulkun_fib_updates_total", updates.len() as u64);
        self.export_mem_gauges();
    }

    fn fib_batch_inner(&mut self, updates: &[RuleUpdate], out: &mut Vec<Envelope>) {
        let touched = self.fold_into_fib(updates);
        let tel = self.tel.clone();
        let changed = tel.timed(self.dev, &LEC_DELTA, self.trace, 0, || {
            self.splice_lecs(&touched)
        });
        if self.backend.is_false(changed) {
            return;
        }
        let ids = self.node_ids();
        for id in ids {
            self.emit_subscriptions(id, changed, out);
            self.recompute_node(id, changed, out);
        }
    }

    /// Applies every FIB mutation in order; returns what each touched.
    fn fold_into_fib(&mut self, updates: &[RuleUpdate]) -> Vec<MatchSpec> {
        let mut touched = Vec::with_capacity(updates.len());
        for update in updates {
            assert_eq!(update.device(), self.dev);
            touched.push(match update {
                RuleUpdate::Insert { rule, .. } => {
                    self.fib.insert(rule.clone());
                    rule.matches
                }
                RuleUpdate::Remove {
                    priority, matches, ..
                } => {
                    self.fib.remove(*priority, matches);
                    *matches
                }
            });
        }
        touched
    }

    /// The LEC delta: brings the table in line with the (already
    /// mutated) FIB inside the `touched` match regions and returns the
    /// packets whose action changed.
    fn splice_lecs(&mut self, touched: &[MatchSpec]) -> DynPred {
        // The final classes inside the union `m` of the touched regions.
        let (m, fresh) = tulkun_predicate::lecs_in(&self.fib, touched, &mut self.backend);
        // Splice, first half: strip the region from every class it
        // reaches, keeping the old effective actions inside it (for
        // the changed-region diff).
        let mut old_in: Vec<(DynPred, Action)> = Vec::new();
        {
            let be = &mut self.backend;
            self.lecs.retain_mut(|(p, a)| {
                let inside = be.and(*p, m);
                if be.is_false(inside) {
                    return true;
                }
                old_in.push((inside, a.clone()));
                *p = be.diff(*p, m);
                !be.is_false(*p)
            });
        }
        // Second half: merge the fresh same-action classes back.
        let mut changed = self.backend.falsum();
        for (fp, fa) in fresh {
            // Changed where the new action differs from the old one.
            for (op, oa) in &old_in {
                if *oa == fa {
                    continue;
                }
                let i = self.backend.and(*op, fp);
                changed = self.backend.or(changed, i);
            }
            match self.lecs.iter_mut().find(|(_, a)| *a == fa) {
                Some((p, _)) => *p = self.backend.or(*p, fp),
                None => self.lecs.push((fp, fa)),
            }
        }
        self.refresh_relevance();
        changed
    }

    /// Installs (or re-tasks) DPVNet nodes, in order. A task for a node
    /// not hosted here creates it, counting over the space the task
    /// carries (its base; each distinct space is imported once). An
    /// existing node keeps the base it was installed with and only its
    /// task (edges, accept flags) is replaced: `CIBOut` is preserved —
    /// it still reflects what upstream neighbours believe, so
    /// diff-based UPDATEs stay correct — and `CIBIn` and the
    /// subscription ledger keep their entries for surviving downstream
    /// nodes only. This is how a fence re-tasks a node that kept its id
    /// while its edges changed.
    fn install_tasks(
        &mut self,
        tasks: Vec<(Option<PortablePred>, NodeTask)>,
        out: &mut Vec<Envelope>,
    ) {
        // Per touched node, the upstream edges it did not have before.
        // Only an existing node can gain a listener that has not heard
        // it: a new node starts at the zero its upstream assumes, and
        // its first recount below tells every edge what differs.
        let mut touched: Vec<(NodeId, Vec<(NodeId, DeviceId)>)> = Vec::with_capacity(tasks.len());
        let mut imported: Vec<(PortablePred, DynPred)> = Vec::new();
        for (space, task) in tasks {
            assert_eq!(task.dev, self.dev, "task assigned to the wrong device");
            let node = task.node;
            let mut gained = Vec::new();
            if let Some(st) = self.nodes.get_mut(&node) {
                gained.extend(
                    task.upstream
                        .iter()
                        .filter(|e| !st.task.upstream.contains(e)),
                );
                // A child this node no longer has is forgotten whole: a
                // node outlives many tables (its downstream is fixed
                // within one, not for life), and a child that returns
                // is subscribed again, into a scope that already
                // covers the request.
                let kept = |n: &NodeId| task.downstream.iter().any(|(d, _)| d == n);
                st.cib_in.retain(|n, _| kept(n));
                st.sent_subs.retain(|n, _| kept(n));
                st.task = task;
            } else {
                // The control plane ships the space with every node it
                // creates.
                debug_assert!(space.is_some(), "new node {node:?} without a base");
                let Some(space) = space else {
                    continue;
                };
                let mut devs: Vec<DeviceId> = task.downstream.iter().map(|(_, d)| *d).collect();
                devs.sort();
                let uniq = devs.windows(2).all(|w| w[0] != w[1]);
                debug_assert!(uniq, "downstream devices of one node must be distinct");
                let base = match imported.iter().find(|(p, _)| *p == space) {
                    Some((_, base)) => *base,
                    None => {
                        let base = self.backend.import(&space);
                        imported.push((space, base));
                        base
                    }
                };
                let zero = Counts::zero(self.cfg.dim());
                self.nodes.insert(
                    node,
                    NodeState {
                        task,
                        base,
                        scope: base,
                        relevant: Vec::new(),
                        cib_in: BTreeMap::new(),
                        loc_cib: LocCib::new(vec![(base, zero.clone())]),
                        cib_out: vec![(base, zero)],
                        sent_subs: BTreeMap::new(),
                    },
                );
                // A new node's relevance index is empty; recounting
                // through it would see no LEC classes and silently zero
                // the node out. Untouched nodes keep theirs: neither
                // their scope nor the LEC table changed.
                self.refresh_relevance_of(node);
            }
            touched.push((node, gained));
        }
        for (node, gained) in touched {
            let scope = self.nodes[&node].scope;
            self.emit_subscriptions(node, scope, out);
            self.recompute_node(node, scope, out);
            // After the recount, so the gained edge's last word on this
            // channel is the whole current `CIBOut`.
            self.announce(node, |e| gained.contains(e), |_| false, out);
        }
    }

    /// Applies this device's share of an epoch fence — the one place
    /// the steps are sequenced, and the one way a device's nodes
    /// change: move to the new epoch (so every emission below carries
    /// it), drop nodes no longer assigned here, apply the tasks in
    /// order (a new node counts over the space its task carries and
    /// speaks first; a re-tasked node that gains an upstream edge
    /// announces its `CIBOut` to that edge), run the repair wave if the
    /// fence discarded in-flight state, then replay whatever faster
    /// peers already sent under the new epoch. A verifier just built
    /// applies its share of the nodes its device hosts this way, and a
    /// restarted agent one that removes and re-creates each node: its
    /// soft state is lost, its FIB and LEC table survive.
    pub fn apply_fence(
        &mut self,
        epoch: u64,
        trace: u64,
        fence: DeviceFence,
        out: &mut Vec<Envelope>,
    ) {
        self.set_trace(trace);
        self.epoch = epoch;
        // Nodes a re-plan no longer assigns here. In-flight messages
        // naming one are tolerated by the stale-node guard in UPDATE
        // handling.
        for n in &fence.remove {
            self.nodes.remove(n);
        }
        self.install_tasks(fence.tasks, out);
        if fence.reannounce {
            self.reannounce(out);
        }
        for env in std::mem::take(&mut self.early) {
            self.handle(&env, out);
        }
        self.export_mem_gauges();
    }

    /// Sends one node's durable protocol state along the edges the
    /// filters keep: a full-scope UPDATE carrying the current `CIBOut`
    /// on each kept upstream edge (the `withdrawn = scope` form makes it
    /// idempotent) and a SUBSCRIBE re-stating everything ever requested
    /// beyond the base packet space toward each kept downstream device.
    fn announce(
        &mut self,
        node: NodeId,
        ups: impl Fn(&(NodeId, DeviceId)) -> bool,
        downs: impl Fn(DeviceId) -> bool,
        out: &mut Vec<Envelope>,
    ) {
        let st = &self.nodes[&node];
        let ups: Vec<(NodeId, DeviceId)> = st
            .task
            .upstream
            .iter()
            .copied()
            .filter(|e| ups(e))
            .collect();
        let downs: Vec<(NodeId, DeviceId, DynPred)> = st
            .task
            .downstream
            .iter()
            .filter(|(_, d)| downs(*d))
            .filter_map(|(n, d)| st.sent_subs.get(n).map(|s| (*n, *d, *s)))
            .filter(|(_, _, s)| !self.backend.is_false(*s))
            .collect();
        if !ups.is_empty() {
            let withdrawn = vec![self.backend.export(st.scope)];
            let results: Vec<(PortablePred, Counts)> = st
                .cib_out
                .iter()
                .map(|(p, c)| (self.backend.export(*p), c.clone()))
                .collect();
            for (un, ud) in ups {
                let payload = Payload::Update {
                    edge: EdgeRef { up: un, down: node },
                    withdrawn: withdrawn.clone(),
                    results: results.clone(),
                };
                self.emit(Envelope::data(self.dev, ud, payload), out);
            }
        }
        for (vn, vd, space) in downs {
            let payload = Payload::Subscribe {
                edge: EdgeRef { up: node, down: vn },
                space: self.backend.export(space),
            };
            self.emit(Envelope::data(self.dev, vd, payload), out);
        }
    }

    /// The repair wave: re-announces every node's durable protocol
    /// state to *all* its neighbors (`announce` on every edge). An
    /// epoch fence that lands on a non-quiescent exchange discards
    /// whatever was in flight; re-announcing repairs exactly the
    /// `CIBIn`/scope entries those lost messages carried, so the new
    /// epoch re-converges to the fixpoint of a fresh plan. A fence that
    /// dropped nothing needs no repair ([`DeviceFence::reannounce`]).
    fn reannounce(&mut self, out: &mut Vec<Envelope>) {
        for node in self.node_ids() {
            self.announce(node, |_| true, |_| true, out);
        }
    }

    /// Re-sends this device's durable protocol state toward a freshly
    /// restarted neighbor so it can rebuild its lost soft state:
    ///
    /// * for each hosted node with an *upstream* edge into `restarted`,
    ///   a full-scope UPDATE carrying the current `CIBOut` (the
    ///   neighbor's `CIBIn` entry for us, lost in the crash — the
    ///   `withdrawn = scope` form makes the replay idempotent);
    /// * for each *downstream* edge into `restarted`, a SUBSCRIBE
    ///   re-stating every packet space we ever requested beyond the
    ///   invariant's (the neighbor's scope reset to the packet space).
    ///
    /// Replays are plain DVM messages, so the protocol re-converges to
    /// the same fixpoint it held before the crash.
    pub fn replay_for_restart(&mut self, restarted: DeviceId, out: &mut Vec<Envelope>) {
        for node in self.node_ids() {
            self.announce(node, |(_, d)| *d == restarted, |d| d == restarted, out);
        }
    }

    /// Exports a node's current counting results.
    ///
    /// The export is canonical: `LocCIB` may hold one outcome split over
    /// several disjoint predicates (regions recomputed by different
    /// messages are spliced in, never re-merged — which halves arrive
    /// first follows delivery order), so entries with equal counts are
    /// unioned here, where Reports read them. Equal converged states
    /// then export byte-equal results on every substrate.
    ///
    /// The export is memoised per node until the node's `LocCIB` next
    /// changes (see [`LocCib`]): a report, status or explain read
    /// re-exports only the nodes an update reached.
    pub fn node_result(&mut self, node: NodeId) -> NodeResult {
        let Some(st) = self.nodes.get(&node) else {
            return Vec::new().into();
        };
        if let Some(memo) = st.loc_cib.exported().cloned() {
            debug_assert_eq!(memo, self.unmemoised_result(node), "stale export memo");
            return memo;
        }
        let result = self.unmemoised_result(node);
        // Hosted: checked on entry.
        if let Some(st) = self.nodes.get_mut(&node) {
            st.loc_cib.set_exported(result.clone());
        }
        result
    }

    /// The canonical export behind [`DeviceVerifier::node_result`],
    /// computed afresh from the hosted `node`'s entries merged by
    /// outcome: what a memoised read must equal (debug builds and the
    /// memo tests compare the two).
    pub fn unmemoised_result(&mut self, node: NodeId) -> NodeResult {
        let (st, be) = (&self.nodes[&node], &mut self.backend);
        let mut merged: Vec<(DynPred, &Counts)> = Vec::new();
        for (p, c) in st.loc_cib.entries() {
            match merged.iter_mut().find(|(_, mc)| *mc == c) {
                Some((mp, _)) => *mp = be.or(*mp, *p),
                None => merged.push((*p, c)),
            }
        }
        merged
            .into_iter()
            .map(|(p, c)| (be.export(p), c.clone()))
            .collect()
    }

    // ------------------------------------------------------------------
    // Counting core
    // ------------------------------------------------------------------

    fn zero(&self) -> Counts {
        Counts::zero(self.cfg.dim())
    }

    /// Escape outcome: zeros with the escape component set to `n`
    /// (or plain zero when escapes are not tracked).
    fn esc(&self, n: u32) -> Counts {
        if self.cfg.track_escapes && n > 0 {
            let mut v = vec![0u32; self.cfg.dim()];
            if let Some(escapes) = v.last_mut() {
                *escapes = n;
            }
            Counts::single(v)
        } else {
            self.zero()
        }
    }

    /// Base contribution of a node: its own acceptance, axiomatically
    /// (destination initialization, §2.2.2: "one copy will be sent to
    /// the correct external ports", whatever its own FIB does).
    fn base(&self, accept: &[bool]) -> Counts {
        let mut v = vec![0u32; self.cfg.dim()];
        for (i, &a) in accept.iter().enumerate() {
            v[i] = u32::from(a);
        }
        Counts::single(v)
    }

    /// Recomputes `LocCIB` over `region` for one node and writes the
    /// UPDATE messages for its upstream neighbors (steps 2–3 of §5.2)
    /// to `out`.
    fn recompute_node(&mut self, node: NodeId, region: DynPred, out: &mut Vec<Envelope>) {
        let tel = self.tel.clone();
        tel.timed(self.dev, &CIB_RECOMPUTE, self.trace, 0, || {
            self.recompute_node_inner(node, region, out)
        });
    }

    fn recompute_node_inner(&mut self, node: NodeId, region: DynPred, out: &mut Vec<Envelope>) {
        let scope = self.nodes[&node].scope;
        let r = self.backend.and(region, scope);
        if self.backend.is_false(r) {
            return;
        }
        let new_entries = self.compute_entries(node, r);

        // Replace the region in LocCIB.
        {
            let be = &mut self.backend;
            let Some(st) = self.nodes.get_mut(&node) else {
                return;
            };
            let loc_cib = st.loc_cib.edit();
            loc_cib.retain_mut(|(p, _)| {
                *p = be.diff(*p, r);
                !be.is_false(*p)
            });
            loc_cib.extend(new_entries.iter().cloned());
        }

        // Reduce (Proposition 1) and diff against CIBOut.
        let reduced: Vec<(DynPred, Counts)> = new_entries
            .iter()
            .map(|(p, c)| (*p, c.reduce(self.cfg.reduce)))
            .collect();
        let mut changed = self.backend.falsum();
        {
            let old_out = self.nodes[&node].cib_out.clone();
            for (p, c) in &reduced {
                for (q, oc) in &old_out {
                    if c != oc {
                        let i = self.backend.and(*p, *q);
                        changed = self.backend.or(changed, i);
                    }
                }
            }
        }
        if self.backend.is_false(changed) {
            return;
        }
        // Update CIBOut over the changed region.
        let mut out_results: Vec<(DynPred, Counts)> = Vec::new();
        {
            let be = &mut self.backend;
            let Some(st) = self.nodes.get_mut(&node) else {
                return;
            };
            st.cib_out.retain_mut(|(p, _)| {
                *p = be.diff(*p, changed);
                !be.is_false(*p)
            });
            for (p, c) in &reduced {
                let pc = be.and(*p, changed);
                if be.is_false(pc) {
                    continue;
                }
                match out_results.iter_mut().find(|(_, oc)| oc == c) {
                    Some((op, _)) => *op = be.or(*op, pc),
                    None => out_results.push((pc, c.clone())),
                }
            }
            st.cib_out.extend(out_results.iter().cloned());
        }

        // Emit one UPDATE per upstream edge.
        let withdrawn = vec![self.backend.export(changed)];
        let results: Vec<(PortablePred, Counts)> = out_results
            .iter()
            .map(|(p, c)| (self.backend.export(*p), c.clone()))
            .collect();
        let ups = self.nodes[&node].task.upstream.clone();
        for (un, udev) in ups {
            let env = Envelope::data(
                self.dev,
                udev,
                Payload::Update {
                    edge: EdgeRef { up: un, down: node },
                    withdrawn: withdrawn.clone(),
                    results: results.clone(),
                },
            );
            self.emit(env, out);
        }
    }

    /// Computes fresh `(predicate, counts)` entries partitioning `r`
    /// (Equations (1) and (2) refined per packet set).
    fn compute_entries(&mut self, node: NodeId, r: DynPred) -> Vec<(DynPred, Counts)> {
        let lecs = self.relevant_lecs(node);
        let accept = self.nodes[&node].task.accept.clone();
        let mut out: Vec<(DynPred, Counts)> = Vec::new();
        for (lp, action) in &lecs {
            let p0 = self.backend.and(*lp, r);
            if self.backend.is_false(p0) {
                continue;
            }
            for (p, c) in self.combine(node, p0, &accept, action) {
                // Merge equal outcome sets.
                match out.iter_mut().find(|(_, oc)| *oc == c) {
                    Some((op, _)) => *op = self.backend.or(*op, p),
                    None => out.push((p, c)),
                }
            }
        }
        out
    }

    /// Applies Equations (1)/(2) for one LEC piece.
    fn combine(
        &mut self,
        node: NodeId,
        p0: DynPred,
        accept: &[bool],
        action: &Action,
    ) -> Vec<(DynPred, Counts)> {
        let accepting_any = accept.iter().any(|&a| a);
        let base = self.base(accept);
        let (mode, hops, rewrite, ext) = match action {
            Action::Drop => {
                let c = base.cross_sum(&self.esc(u32::from(!accepting_any)));
                return vec![(p0, c)];
            }
            Action::Forward {
                mode,
                next_hops,
                rewrite,
            } => {
                let mut hops: Vec<DeviceId> = next_hops
                    .iter()
                    .filter_map(|nh| match nh {
                        NextHop::Device(d) => Some(*d),
                        NextHop::External => None,
                    })
                    .collect();
                hops.sort();
                hops.dedup();
                let ext = next_hops.contains(&NextHop::External);
                (*mode, hops, *rewrite, ext)
            }
        };
        if hops.is_empty() && !ext {
            let c = base.cross_sum(&self.esc(u32::from(!accepting_any)));
            return vec![(p0, c)];
        }

        // Split hops into DPVNet-covered downstream nodes and escapes.
        let task_down = self.nodes[&node].task.downstream.clone();
        let mut relevant: Vec<NodeId> = Vec::new();
        let mut missing = 0u32;
        for h in &hops {
            match task_down.iter().find(|(_, d)| d == h) {
                Some((n, _)) => relevant.push(*n),
                None => missing += 1,
            }
        }

        // Joint refinement of p0 against the relevant CIBIn partitions.
        let pieces = self.refine(node, p0, &relevant, rewrite.as_ref());

        let mut out = Vec::with_capacity(pieces.len());
        for (p, cs) in pieces {
            let fwd = match mode {
                ActionType::All => {
                    let mut acc = cs.iter().fold(self.zero(), |acc, c| acc.cross_sum(c));
                    if missing > 0 {
                        acc = acc.cross_sum(&self.esc(missing));
                    }
                    if ext && !accepting_any {
                        acc = acc.cross_sum(&self.esc(1));
                    }
                    acc
                }
                ActionType::Any => {
                    let mut options: Vec<Counts> = cs;
                    if missing > 0 {
                        options.push(self.esc(1));
                    }
                    if ext {
                        options.push(if accepting_any {
                            self.zero()
                        } else {
                            self.esc(1)
                        });
                    }
                    let mut it = options.into_iter();
                    let first = it.next().unwrap_or_else(|| self.zero());
                    it.fold(first, |acc, c| acc.union(&c))
                }
            };
            out.push((p, base.cross_sum(&fwd)));
        }
        out
    }

    /// Refines `p0` against the CIBIn partitions of the relevant
    /// downstream nodes, yielding `(piece, per-node counts)` with missing
    /// coverage defaulting to zero.
    fn refine(
        &mut self,
        node: NodeId,
        p0: DynPred,
        relevant: &[NodeId],
        rewrite: Option<&Rewrite>,
    ) -> Vec<(DynPred, Vec<Counts>)> {
        let mut pieces: Vec<(DynPred, Vec<Counts>)> = vec![(p0, Vec::new())];
        for v in relevant {
            let parts: Vec<(DynPred, Counts)> =
                self.nodes[&node].cib_in.get(v).cloned().unwrap_or_default();
            let mut next = Vec::with_capacity(pieces.len().max(parts.len()));
            for (p, cs) in pieces {
                let mut rem = p;
                for (q, c) in &parts {
                    if self.backend.is_false(rem) {
                        break;
                    }
                    let pq = match rewrite {
                        Some(rw) => self.preimage(*q, rw),
                        None => *q,
                    };
                    let hit = self.backend.and(rem, pq);
                    if self.backend.is_false(hit) {
                        continue;
                    }
                    let mut ncs = cs.clone();
                    ncs.push(c.clone());
                    next.push((hit, ncs));
                    rem = self.backend.diff(rem, pq);
                }
                if !self.backend.is_false(rem) {
                    let mut ncs = cs;
                    ncs.push(self.zero());
                    next.push((rem, ncs));
                }
            }
            pieces = next;
        }
        pieces
    }

    /// Image of a packet set under a rewrite: the top `to.len` bits of
    /// the destination address are replaced by the prefix bits.
    fn image(&mut self, p: DynPred, rw: &Rewrite) -> DynPred {
        self.backend.rewrite_image(p, rw)
    }

    /// Preimage of a downstream packet set under a rewrite.
    fn preimage(&mut self, q: DynPred, rw: &Rewrite) -> DynPred {
        self.backend.rewrite_preimage(q, rw)
    }

    /// Emits SUBSCRIBE messages (§5.2): downstream devices must count
    /// the *image* of this node's scope under its forwarding — the
    /// transformed space for rewriting classes, and any subscribed
    /// region beyond the invariant's packet space for plain forwarding
    /// (subscriptions propagate transitively toward destinations).
    fn emit_subscriptions(&mut self, node: NodeId, region: DynPred, out: &mut Vec<Envelope>) {
        let lecs = self.relevant_lecs(node);
        let scope = self.nodes[&node].scope;
        let r = self.backend.and(region, scope);
        for (lp, action) in &lecs {
            let Action::Forward {
                next_hops, rewrite, ..
            } = action
            else {
                continue;
            };
            let p = self.backend.and(*lp, r);
            if self.backend.is_false(p) {
                continue;
            }
            let img = match rewrite {
                Some(rw) => self.image(p, rw),
                None => p,
            };
            let task_down = self.nodes[&node].task.downstream.clone();
            for (vn, vdev) in task_down {
                if !next_hops.contains(&NextHop::Device(vdev)) {
                    continue;
                }
                let already = self.nodes[&node]
                    .sent_subs
                    .get(&vn)
                    .copied()
                    .unwrap_or_else(|| self.backend.falsum());
                // Downstream scopes start at the node's base packet
                // space (every DPVNet edge connects nodes installed by
                // the same intent, hence sharing a base); only the
                // region beyond it needs subscribing.
                let base = self.nodes[&node].base;
                let known = self.backend.or(already, base);
                let newspace = self.backend.diff(img, known);
                if self.backend.is_false(newspace) {
                    continue;
                }
                let merged = self.backend.or(already, newspace);
                if let Some(st) = self.nodes.get_mut(&node) {
                    st.sent_subs.insert(vn, merged);
                }
                let env = Envelope::data(
                    self.dev,
                    vdev,
                    Payload::Subscribe {
                        edge: EdgeRef { up: node, down: vn },
                        space: self.backend.export(newspace),
                    },
                );
                self.emit(env, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use tulkun_netmodel::fib::Rule;
    use tulkun_netmodel::IpPrefix;

    /// A two-device line `d1 -> d0`: `d0` hosts destination node 0,
    /// already counting, with no upstream yet; `d1` forwards the packet
    /// space to `d0` and hosts nothing. Both report to `tel`. Returns
    /// both verifiers and the packet space.
    fn dest_and_idle_upstream(
        tel: Arc<Telemetry>,
    ) -> (DeviceVerifier, DeviceVerifier, PortablePred) {
        let layout = HeaderLayout::ipv4_tcp();
        let dst = MatchSpec::dst("10.0.0.0/24".parse().unwrap());
        let mut be = DynBackend::new(BackendKind::Bdd, layout);
        let whole = be.match_pred(&dst);
        let space = be.export(whole);
        let cfg = VerifierConfig {
            n_exprs: 1,
            track_escapes: false,
            reduce: ReduceMode::None,
        };
        let bdd = BackendKind::Bdd;
        let mut d0 = DeviceVerifier::new(DeviceId(0), layout, Fib::new(), cfg, bdd, tel.clone());
        host(&mut d0, &space, dest_task(Vec::new()), &mut Vec::new());
        let mut fib = Fib::new();
        fib.insert(Rule {
            priority: 10,
            matches: dst,
            action: Action::fwd(DeviceId(0)),
        });
        let d1 = DeviceVerifier::new(DeviceId(1), layout, fib, cfg, bdd, tel);
        (d0, d1, space)
    }

    /// Has a verifier just built host `task`, counting over `space`:
    /// its share of the nodes its device hosts, applied at epoch 0.
    fn host(v: &mut DeviceVerifier, space: &PortablePred, task: NodeTask, out: &mut Vec<Envelope>) {
        let share = DeviceFence {
            tasks: vec![(Some(space.clone()), task)],
            ..DeviceFence::default()
        };
        v.apply_fence(0, 0, share, out);
    }

    fn dest_task(upstream: Vec<(NodeId, DeviceId)>) -> NodeTask {
        NodeTask {
            node: NodeId(0),
            dev: DeviceId(0),
            downstream: Vec::new(),
            upstream,
            accept: vec![true],
        }
    }

    /// The fence that re-tasks `d0`'s node 0 under new upstream node 1.
    fn gain_edge_fence() -> DeviceFence {
        DeviceFence {
            tasks: vec![(None, dest_task(vec![(NodeId(1), DeviceId(1))]))],
            ..DeviceFence::default()
        }
    }

    /// A fence costs what it changes: nothing to apply and nothing lost
    /// emits nothing, even from a node with listeners; gaining one
    /// upstream edge emits exactly one full-scope UPDATE, to that edge;
    /// only the repair wave speaks to everyone.
    #[test]
    fn fence_announces_only_to_gained_edges() {
        let (mut d0, _, space) = dest_and_idle_upstream(Telemetry::disabled());
        let mut out: Vec<Envelope> = Vec::new();
        d0.apply_fence(1, 7, gain_edge_fence(), &mut out);
        assert_eq!(out.len(), 1, "one gained edge, one envelope: {out:?}");
        let env = &out[0];
        assert_eq!((env.to, env.epoch, env.trace), (DeviceId(1), 1, 7));
        let Payload::Update {
            edge,
            withdrawn,
            results,
        } = &env.payload
        else {
            panic!("gained edge gets an UPDATE, got {env:?}");
        };
        let (up, down) = (NodeId(1), NodeId(0));
        assert_eq!(*edge, EdgeRef { up, down });
        assert_eq!(withdrawn, &[space], "full scope");
        assert_eq!(**results, *d0.node_result(NodeId(0)), "whole CIBOut");

        out.clear();
        d0.apply_fence(2, 8, DeviceFence::default(), &mut out);
        assert!(out.is_empty(), "a quiet fence emits nothing: {out:?}");
        // Re-tasking under the same edges gains nothing either.
        d0.apply_fence(3, 9, gain_edge_fence(), &mut out);
        assert!(out.is_empty(), "no gained edge, no envelope: {out:?}");

        let repair = DeviceFence {
            reannounce: true,
            ..DeviceFence::default()
        };
        d0.apply_fence(4, 10, repair, &mut out);
        assert_eq!(out.len(), 1, "the repair wave covers every upstream edge");
    }

    /// A node a fence share creates counts over the space its task
    /// carries — here another context's than the node the device
    /// already hosts — and keeps that base when a later share re-tasks
    /// it, and through a restart share that removes and creates it
    /// again.
    #[test]
    fn a_created_node_counts_over_its_context_and_a_retask_keeps_it() {
        let (mut d0, _, space) = dest_and_idle_upstream(Telemetry::disabled());
        let mut be = DynBackend::new(BackendKind::Bdd, HeaderLayout::ipv4_tcp());
        let other = be.match_pred(&MatchSpec::dst("10.0.1.0/24".parse().unwrap()));
        let (node, base) = (NodeId(5), be.import(&space));
        let task = |upstream| NodeTask {
            node,
            dev: DeviceId(0),
            downstream: Vec::new(),
            upstream,
            accept: vec![true],
        };
        // The whole packet set `n` counts over, read back through `be`.
        let counted = |v: &mut DeviceVerifier, be: &mut DynBackend, n: NodeId| {
            let result = v.node_result(n);
            assert_eq!(result.len(), 1, "one outcome over the scope");
            be.import(&result[0].0)
        };
        let created = DeviceFence {
            tasks: vec![(Some(be.export(other)), task(Vec::new()))],
            ..DeviceFence::default()
        };
        d0.apply_fence(1, 0, created, &mut Vec::new());
        assert_eq!(counted(&mut d0, &mut be, node), other);
        assert_eq!(counted(&mut d0, &mut be, NodeId(0)), base);

        let retask = DeviceFence {
            tasks: vec![(None, task(vec![(NodeId(1), DeviceId(1))]))],
            ..DeviceFence::default()
        };
        d0.apply_fence(2, 0, retask, &mut Vec::new());
        assert_eq!(d0.nodes[&node].task.upstream.len(), 1, "re-tasked");
        assert_eq!(counted(&mut d0, &mut be, node), other);
        let restart = DeviceFence {
            remove: vec![node],
            tasks: vec![(Some(be.export(other)), d0.nodes[&node].task.clone())],
            ..DeviceFence::default()
        };
        d0.apply_fence(2, 0, restart, &mut Vec::new());
        assert_eq!(counted(&mut d0, &mut be, node), other);
    }

    /// Fences reach devices one at a time, so a peer that fenced first
    /// can get a new-epoch UPDATE in ahead of this device's own fence —
    /// naming a node only that fence creates. Early delivery must end
    /// in the state in-order delivery reaches.
    #[test]
    fn early_newer_epoch_envelope_waits_for_the_fence() {
        let run = |early: bool| {
            let tel = Telemetry::enabled();
            // Only `d1` handles envelopes, so the counters are its own.
            let handled = || {
                let counters = tel.metrics().counters;
                let get = |name: &str| counters.get(name).copied().unwrap_or(0);
                (
                    get("tulkun_dvm_updates_total"),
                    get("tulkun_epoch_discarded_total"),
                )
            };
            let (mut d0, mut d1, space) = dest_and_idle_upstream(tel.clone());
            let mut update: Vec<Envelope> = Vec::new();
            d0.apply_fence(1, 7, gain_edge_fence(), &mut update);
            let fence = DeviceFence {
                tasks: vec![(
                    Some(space),
                    NodeTask {
                        node: NodeId(1),
                        dev: DeviceId(1),
                        downstream: vec![(NodeId(0), DeviceId(0))],
                        upstream: Vec::new(),
                        accept: vec![false],
                    },
                )],
                ..DeviceFence::default()
            };
            let mut out: Vec<Envelope> = Vec::new();
            if early {
                d1.handle(&update[0], &mut out);
                assert_eq!(handled().0, 0, "held, not applied");
                d1.apply_fence(1, 7, fence, &mut out);
            } else {
                d1.apply_fence(1, 7, fence, &mut out);
                d1.handle(&update[0], &mut out);
            }
            assert_eq!(handled(), (1, 0));
            d1.node_result(NodeId(1))
        };
        let in_order = run(false);
        assert_eq!(in_order.len(), 1);
        assert_eq!(in_order[0].1, Counts::single(vec![1]), "d0's copy arrived");
        assert_eq!(run(true), in_order);
    }

    const MID: NodeId = NodeId(1);
    const LISTENER: NodeId = NodeId(9);

    /// A node that keeps its id while a re-plan changes its edges:
    /// `d1` hosts [`MID`], whose FIB replicates `10.0.0.0/24` to `d2`
    /// and `d3` (rewritten into `rewrite`, if given) and whose only
    /// child so far is node 2 on `d2`; `d9` hosts [`LISTENER`], its one
    /// upstream neighbour, which forwards the same space to `d1`.
    /// Both are initialised and the listener has heard `MID`'s zero.
    struct Retasked {
        mid: DeviceVerifier,
        listener: DeviceVerifier,
        space: PortablePred,
        epoch: u64,
    }

    fn mid_task(child: u32) -> NodeTask {
        NodeTask {
            node: MID,
            dev: DeviceId(1),
            downstream: vec![(NodeId(child), DeviceId(child))],
            upstream: vec![(LISTENER, DeviceId(9))],
            accept: vec![false],
        }
    }

    impl Retasked {
        fn new(rewrite: Option<Rewrite>) -> Retasked {
            let layout = HeaderLayout::ipv4_tcp();
            let dst = MatchSpec::dst("10.0.0.0/24".parse().unwrap());
            let mut be = DynBackend::new(BackendKind::Bdd, layout);
            let whole = be.match_pred(&dst);
            let space = be.export(whole);
            let cfg = VerifierConfig {
                n_exprs: 1,
                track_escapes: false,
                reduce: ReduceMode::None,
            };
            let fib_to = |action: Action| {
                let mut fib = Fib::new();
                fib.insert(Rule {
                    priority: 10,
                    matches: dst,
                    action,
                });
                fib
            };
            let replicate = Action::Forward {
                mode: ActionType::All,
                next_hops: vec![NextHop::Device(DeviceId(2)), NextHop::Device(DeviceId(3))],
                rewrite,
            };
            let build = |dev, fib| {
                DeviceVerifier::new(
                    dev,
                    layout,
                    fib,
                    cfg,
                    BackendKind::Bdd,
                    Telemetry::disabled(),
                )
            };
            let mut mid = build(DeviceId(1), fib_to(replicate));
            let listening = NodeTask {
                node: LISTENER,
                dev: DeviceId(9),
                downstream: vec![(MID, DeviceId(1))],
                upstream: Vec::new(),
                accept: vec![false],
            };
            let to_mid = fib_to(Action::fwd(DeviceId(1)));
            let mut listener = build(DeviceId(9), to_mid);
            host(&mut listener, &space, listening, &mut Vec::new());
            let mut out = Vec::new();
            host(&mut mid, &space, mid_task(2), &mut out);
            let mut world = Retasked {
                mid,
                listener,
                space,
                epoch: 0,
            };
            world.relay(out);
            world
        }

        /// Delivers what `MID` emitted: UPDATEs to the listener, the
        /// rest (SUBSCRIBEs to children nobody plays) dropped. Returns
        /// the UPDATEs.
        fn relay(&mut self, out: Vec<Envelope>) -> Vec<Envelope> {
            let ups: Vec<Envelope> = out
                .into_iter()
                .filter(|e| matches!(e.payload, Payload::Update { .. }))
                .collect();
            for env in &ups {
                assert_eq!(env.to, DeviceId(9), "UPDATEs go upstream: {env:?}");
                self.listener.handle(env, &mut Vec::new());
            }
            ups
        }

        /// Child `child` tells `MID` its whole result; returns the
        /// UPDATEs `MID` sent upstream because of it.
        fn child_says(
            &mut self,
            child: u32,
            results: Vec<(PortablePred, Counts)>,
        ) -> Vec<Envelope> {
            let payload = Payload::Update {
                edge: EdgeRef {
                    up: MID,
                    down: NodeId(child),
                },
                withdrawn: vec![self.space.clone()],
                results,
            };
            let mut env = Envelope::data(DeviceId(child), DeviceId(1), payload);
            env.epoch = self.epoch;
            let mut out = Vec::new();
            self.mid.handle(&env, &mut out);
            self.relay(out)
        }

        /// The next fence re-tasks `MID` under child `child` (both
        /// devices move to its epoch); returns `MID`'s upstream UPDATEs.
        fn retask(&mut self, child: u32) -> Vec<Envelope> {
            self.epoch += 1;
            let fence = DeviceFence {
                tasks: vec![(None, mid_task(child))],
                ..DeviceFence::default()
            };
            let quiet = DeviceFence::default();
            self.listener
                .apply_fence(self.epoch, 0, quiet, &mut Vec::new());
            let mut out = Vec::new();
            self.mid.apply_fence(self.epoch, 0, fence, &mut out);
            self.relay(out)
        }

        fn heard(&mut self) -> NodeResult {
            self.listener.node_result(LISTENER)
        }
    }

    /// The re-task path a node takes when it keeps its id while its
    /// child moves from node 2 to node 3. The fence recounts with
    /// nothing heard from the new child yet (one UPDATE, to zero), the
    /// child's announce brings the counts back (one UPDATE); with equal
    /// counts the listener ends where it began and nothing further is
    /// owed, and `CIBIn` no longer holds the old child.
    #[test]
    fn a_moved_downstream_edge_with_equal_counts_leaves_upstream_as_it_was() {
        let mut w = Retasked::new(None);
        let one = vec![(w.space.clone(), Counts::single(vec![1]))];
        assert_eq!(w.child_says(2, one.clone()).len(), 1);
        let before = w.heard();
        assert_eq!(*before, *one, "the listener counts what the child does");

        assert_eq!(w.retask(3).len(), 1, "the old child's counts are withdrawn");
        assert_ne!(w.heard(), before);
        let st = &w.mid.nodes[&MID];
        assert!(
            !st.cib_in.contains_key(&NodeId(2)),
            "CIBIn[old child] is gone"
        );
        assert_eq!(
            w.child_says(3, one).len(),
            1,
            "the new child's counts arrive"
        );
        assert_eq!(w.heard(), before, "equal counts: upstream is as it was");
        // Settled: the same task again changes nothing and says nothing.
        assert!(w.retask(3).is_empty());
        assert_eq!(w.heard(), before);
    }

    /// Same move, but the new child counts differently on half of the
    /// space: the UPDATE its announce causes carries exactly the two
    /// halves, and the listener ends on the new child's counts.
    #[test]
    fn a_moved_downstream_edge_with_other_counts_sends_the_difference() {
        let mut w = Retasked::new(None);
        let one = vec![(w.space.clone(), Counts::single(vec![1]))];
        w.child_says(2, one);
        w.retask(3);
        let mut be = DynBackend::new(BackendKind::Bdd, HeaderLayout::ipv4_tcp());
        let mut half = |s: &str| {
            let p = be.match_pred(&MatchSpec::dst(s.parse().unwrap()));
            be.export(p)
        };
        let halves = vec![
            (half("10.0.0.0/25"), Counts::single(vec![1])),
            (half("10.0.0.128/25"), Counts::single(vec![2])),
        ];
        let ups = w.child_says(3, halves.clone());
        assert_eq!(ups.len(), 1, "one upstream edge, one UPDATE: {ups:?}");
        let Payload::Update {
            withdrawn, results, ..
        } = &ups[0].payload
        else {
            unreachable!("relay keeps UPDATEs only");
        };
        assert_eq!(withdrawn, &[w.space.clone()], "all of it was zero");
        let sent: BTreeSet<_> = results.iter().cloned().collect();
        assert_eq!(sent, halves.iter().cloned().collect::<BTreeSet<_>>());
        assert_eq!(w.heard().len(), 2);
        assert!(halves.iter().all(|h| w.heard().contains(h)));
    }

    /// A node that lives across many tables holds state for the
    /// children it has now, not for every child it ever had: 200 flaps,
    /// each moving the edge to a child with a new id, leave `CIBIn` and
    /// the subscription ledger (in use here: the FIB rewrites out of
    /// the base space, so every child is subscribed) at one entry.
    #[test]
    fn two_hundred_flaps_leave_one_child_in_cib_in_and_the_ledger() {
        let to = "10.9.0.0/24".parse().unwrap();
        let mut w = Retasked::new(Some(Rewrite { to }));
        for flap in 0..200u32 {
            // Children alternate between the two next hops.
            let child = 2 + flap % 2;
            let mut task = mid_task(child);
            task.downstream[0].0 = NodeId(100 + flap);
            w.epoch += 1;
            let fence = DeviceFence {
                tasks: vec![(None, task.clone())],
                ..DeviceFence::default()
            };
            let mut out: Vec<Envelope> = Vec::new();
            w.mid.apply_fence(w.epoch, 0, fence, &mut out);
            let subscribed = |e: &Envelope| {
                let wanted = EdgeRef {
                    up: MID,
                    down: NodeId(100 + flap),
                };
                matches!(&e.payload, Payload::Subscribe { edge, .. } if *edge == wanted)
            };
            assert!(out.iter().any(subscribed), "flap {flap}: {out:?}");
            let st = &w.mid.nodes[&MID];
            let children: Vec<NodeId> = task.downstream.iter().map(|(n, _)| *n).collect();
            let ledger: Vec<NodeId> = st.sent_subs.keys().copied().collect();
            assert_eq!(ledger, children, "flap {flap}");
            assert!(st.cib_in.keys().all(|n| children.contains(n)));
        }
    }

    /// One outcome split over two disjoint `LocCIB` predicates (what
    /// message-order-dependent splicing can leave behind) exports as
    /// their union — byte-equal to the unsplit table, on every backend.
    #[test]
    fn node_result_merges_split_loc_cib_entries() {
        let layout = HeaderLayout::ipv4_tcp();
        let dst = |s: &str| MatchSpec::dst(s.parse().unwrap());
        let node = NodeId(0);
        for kind in BackendKind::CONCRETE {
            let mut be = DynBackend::new(kind, layout);
            let whole = be.match_pred(&dst("10.0.0.0/23"));
            let space = be.export(whole);
            let cfg = VerifierConfig {
                n_exprs: 1,
                track_escapes: false,
                reduce: ReduceMode::None,
            };
            let tel = Telemetry::disabled();
            let mut v = DeviceVerifier::new(DeviceId(0), layout, Fib::new(), cfg, kind, tel);
            let task = NodeTask {
                node,
                dev: DeviceId(0),
                downstream: Vec::new(),
                upstream: Vec::new(),
                accept: vec![true],
            };
            host(&mut v, &space, task, &mut Vec::new());
            let unsplit = v.node_result(node);
            assert_eq!(unsplit.len(), 1);

            let lo = v.backend.match_pred(&dst("10.0.0.0/24"));
            let hi = v.backend.match_pred(&dst("10.0.1.0/24"));
            let other = v.backend.match_pred(&dst("10.9.0.0/24"));
            let counts = unsplit[0].1.clone();
            let st = v.nodes.get_mut(&node).unwrap();
            *st.loc_cib.edit() = vec![
                (hi, counts.clone()),
                (other, Counts::single(vec![7])),
                (lo, counts),
            ];
            let merged = v.node_result(node);
            assert_eq!(merged.len(), 2, "{kind}: equal counts stay split");
            assert_eq!(merged[0], unsplit[0], "{kind}: union is not the whole");
        }
    }

    /// A rule drawn from a small space so bursts overlap the table and
    /// each other: few priorities (ties), nested prefixes inside
    /// 10.0.0.0/8, few actions; `rich` adds port and protocol matches.
    fn rule_of((prio, plen, net, act, port, proto): RuleSeed, rich: bool) -> Rule {
        let mut matches = MatchSpec::dst(IpPrefix::new(0x0A00_0000 | (net << 12), plen));
        if rich {
            matches.dst_port = port.map(|p| (p, p + 3));
            matches.proto = proto;
        }
        let action = match act {
            0 => Action::Drop,
            1 => Action::deliver(),
            2 => Action::fwd(DeviceId(1)),
            _ => Action::fwd_all([DeviceId(1), DeviceId(2)]),
        };
        Rule {
            priority: prio,
            matches,
            action,
        }
    }

    type RuleSeed = (u32, u8, u32, u32, Option<u16>, Option<u8>);

    fn rule_seed() -> impl Strategy<Value = RuleSeed> {
        (
            0u32..4,
            14u8..28,
            0u32..48,
            0u32..4,
            proptest::option::of(0u16..6),
            proptest::option::of(6u8..8),
        )
    }

    /// A table as the set of its `(wire predicate, action)` classes.
    fn wire_classes(
        be: &DynBackend,
        classes: &[(DynPred, Action)],
    ) -> BTreeSet<(PortablePred, Action)> {
        let wire = classes.iter().map(|(p, a)| (be.export(*p), a.clone()));
        wire.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The LEC delta against the from-scratch builder: after every
        /// burst the spliced table is the table `lecs()` derives from
        /// the mutated FIB, and the `changed` region is exactly where
        /// the old and new from-scratch tables disagree on the action —
        /// on every backend (port/proto rules on `bdd` only).
        #[test]
        fn lec_delta_equals_a_rebuild(
            table in proptest::collection::vec(rule_seed(), 0..24),
            bursts in proptest::collection::vec(
                proptest::collection::vec((any::<bool>(), rule_seed(), 0usize..64), 1..17),
                1..5,
            ),
        ) {
            let layout = HeaderLayout::ipv4_tcp();
            for kind in BackendKind::CONCRETE {
                let rich = kind == BackendKind::Bdd;
                let mut fib = Fib::new();
                for seed in &table {
                    fib.insert(rule_of(*seed, rich));
                }
                let cfg = VerifierConfig {
                    n_exprs: 1,
                    track_escapes: false,
                    reduce: ReduceMode::None,
                };
                let tel = Telemetry::disabled();
                let mut v = DeviceVerifier::new(DeviceId(0), layout, fib, cfg, kind, tel);
                for burst in &bursts {
                    let updates: Vec<RuleUpdate> = burst
                        .iter()
                        .map(|(insert, seed, victim)| {
                            let rule = rule_of(*seed, rich);
                            // Remove a rule that exists (by index) when
                            // there is one, else whatever the seed names.
                            let live = v.fib.rules();
                            match (insert, live.get(victim % live.len().max(1))) {
                                (true, _) => RuleUpdate::Insert { device: v.dev, rule },
                                (false, live) => {
                                    let r = live.unwrap_or(&rule);
                                    RuleUpdate::Remove {
                                        device: v.dev,
                                        priority: r.priority,
                                        matches: r.matches,
                                    }
                                }
                            }
                        })
                        .collect();
                    let mut scratch = DynBackend::new(kind, layout);
                    let before = tulkun_predicate::lecs(&v.fib, &mut scratch);
                    let touched = v.fold_into_fib(&updates);
                    let changed = v.splice_lecs(&touched);
                    let after = tulkun_predicate::lecs(&v.fib, &mut scratch);
                    prop_assert_eq!(
                        wire_classes(&v.backend, &v.lecs),
                        wire_classes(&scratch, &after),
                        "{}: spliced table differs from a rebuild", kind
                    );
                    let mut moved = scratch.falsum();
                    for (op, oa) in &before {
                        for (np, _) in after.iter().filter(|(_, na)| na != oa) {
                            let both = scratch.and(*op, *np);
                            moved = scratch.or(moved, both);
                        }
                    }
                    prop_assert_eq!(
                        v.backend.export(changed),
                        scratch.export(moved),
                        "{}: changed region differs from the rebuilds' diff", kind
                    );
                }
            }
        }
    }
}
