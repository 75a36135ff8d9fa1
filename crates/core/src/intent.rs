//! The runtime intent store: invariant add/remove as first-class
//! events, with per-intent DPVNet slices deduplicated across intents.
//!
//! Production networks carry many concurrent reachability intents that
//! come and go independently; each compiles to its own DPVNet touching
//! only a slice of the network. The store keeps every installed
//! intent's plan in its *intent-local* node ids and maintains one
//! *global* node table shared by all of them:
//!
//! * **Slicing** — installing an intent only produces tasks for the
//!   devices its DPVNet actually touches ([`IntentDelta::changed`]);
//!   the rest of the network is untouched (the delta's
//!   `total_nodes`/`reused_nodes` counters evidence this).
//! * **Dedup** — structurally identical nodes of different intents
//!   (same packet-space context, device, accept flags and downstream
//!   cone) are hash-consed onto one global node, so two intents sharing
//!   a node pay for its counting once. Ownership is refcounted
//!   ([`GlobalNode`]'s owner and per-upstream-edge intent sets):
//!   removing an intent only uninstalls what no surviving intent needs.
//! * **Epoch interaction** — the store is pure bookkeeping, mutated
//!   only by [`crate::control::ControlPlane`], which turns every
//!   [`IntentDelta`] into an epoch fence (bump, apply tasks, repair if
//!   anything in flight was lost), so in-flight CIB messages from a
//!   superseded intent set can never corrupt the new fixpoint. A fence
//!   costs what it changes because an id is a name for one place in
//!   one slice, not for a cone: within one table the key pins a node's
//!   downstream cone, and across a churn re-plan a node whose cone
//!   changed keeps the id of the node it replaces (see "Id stability"
//!   on [`IntentStore::replan_all_for_churn`]), so everything above it
//!   finds its children under the ids it knew and is not re-tasked. A
//!   node that keeps its id keeps the `CIBIn` it holds for the
//!   children it still has, is re-tasked when its edges changed, and a
//!   parent that is new to it always shows up as a *gained* upstream
//!   edge — the only listener it has to announce to. Ids are never
//!   recycled: one that drops out of the table is gone for good.
//!
//! * **Scenes** — every installed intent carries a *scene table*: the
//!   plans (or planner refusals) of the topology scenes it has been
//!   planned on, keyed by [`ChurnState`] (see [`SceneTable`]). It is
//!   §6's scene-labelled fault-tolerant plan filled lazily, one scene
//!   at a time, and the only way a plan reaches the store: the second
//!   half of every link flap returns to a scene already planned and
//!   costs a pointer copy instead of a planner run.
//!
//! Soundness of sharing: a node's counting results depend only on its
//! downstream cone (accept flags + structure), its device's FIB, and
//! its base packet space. The interning key covers all three — the
//! packet-space *context* is part of the key, so nodes of intents with
//! different packet spaces never merge — hence a shared node computes
//! exactly what each owning intent's standalone plan would.

use crate::churn::ChurnState;
use crate::count::ReduceMode;
use crate::dpvnet::NodeId;
use crate::planner::{CountingPlan, NodeTask, PlanError, PlanKind, Planner};
use crate::spec::{Invariant, PacketSpace};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tulkun_netmodel::topology::Topology;
use tulkun_netmodel::DeviceId;

/// Identifier of one installed intent. Id 0 is the *base* intent: the
/// plan the substrate was constructed with (legacy single-plan
/// sessions are exactly "a store holding only intent 0").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntentId(pub u64);

impl IntentId {
    /// The base intent: the invariant the substrate was constructed
    /// with. It anchors the session and cannot be removed.
    pub const BASE: IntentId = IntentId(0);
}

impl std::fmt::Display for IntentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The counting profile every intent of one store must share: the
/// on-device verifiers carry a single outcome-vector dimension and
/// reduction mode for all hosted nodes, so intents with a different
/// shape are rejected at install time instead of corrupting counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntentProfile {
    /// Number of path expressions (outcome-vector components).
    pub n_exprs: usize,
    /// Whether the escape component is tracked.
    pub track_escapes: bool,
    /// Minimal-counting-information reduction mode.
    pub reduce: ReduceMode,
}

impl IntentProfile {
    fn of(plan: &CountingPlan) -> IntentProfile {
        IntentProfile {
            n_exprs: plan.exprs.len(),
            track_escapes: plan.track_escapes,
            reduce: plan.reduce,
        }
    }
}

/// Scenes one intent remembers at most; the least recently used goes
/// first. A constant, like the BDD memo's bound: a table serves the
/// handful of scenes a flapping network keeps returning to, so its
/// size follows from what recurs, not from a deployment.
pub(crate) const MAX_SCENES: usize = 32;

/// One intent's slice as the store holds it: the plan and, worked
/// out once where the plan enters the store, the order its tasks are
/// interned in — a function of the plan alone that every rebuild on
/// the scene would otherwise recompute.
#[derive(Debug, Clone)]
struct Slice {
    plan: Arc<CountingPlan>,
    /// Indices into `plan.tasks`, children first: an iterative DFS
    /// post-order from every node in ascending id, along downstream
    /// edges (deterministic, so replicas mint the same ids).
    order: Arc<[u32]>,
}

impl Slice {
    fn of(plan: Arc<CountingPlan>) -> Slice {
        let index: BTreeMap<NodeId, u32> = (0u32..)
            .zip(&plan.tasks)
            .map(|(i, t)| (t.node, i))
            .collect();
        let mut order = Vec::with_capacity(index.len());
        let mut done = vec![false; plan.tasks.len()];
        for &root in index.values() {
            // (task, next child index) stack.
            let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
            while let Some((n, i)) = stack.pop() {
                if done[n as usize] {
                    continue;
                }
                if let Some((c, _)) = plan.tasks[n as usize].downstream.get(i) {
                    stack.push((n, i + 1));
                    // An edge to a node the plan has no task for
                    // leads nowhere.
                    stack.extend(index.get(c).map(|c| (*c, 0)));
                } else {
                    done[n as usize] = true;
                    order.push(n);
                }
            }
        }
        Slice {
            plan,
            order: order.into(),
        }
    }
}

/// What planning one intent on one scene gave: its slice, or why the
/// scene cannot host it.
type Planned = Result<Slice, PlanError>;

/// One intent's plans by scene — §6's fault-tolerant DPVNet, learned
/// one scene at a time instead of precomputed from an operator's scene
/// list. A scene is the cumulative [`ChurnState`] (down links and down
/// devices). That key is complete because everything else a plan
/// depends on is fixed for the table's lifetime: the intent's own
/// invariant, the base topology and base invariant of the owning
/// control plane (which calls [`IntentStore::forget_scenes`] when a
/// caller hands it different ones), and the taskable roster, which is
/// constant whenever it is `Some`. Refusals are remembered too: a
/// scene that degrades the intent degrades it again without a planner
/// run. The table lives inside its [`InstalledIntent`], so it dies
/// with it — a re-used id starts empty.
#[derive(Debug, Clone, Default)]
struct SceneTable {
    /// Most recently used first.
    seen: Vec<(ChurnState, Planned)>,
}

impl SceneTable {
    /// The table of an intent that enters the store with `plan`, made
    /// for `scene`. An empty slice is the one plan an install accepts
    /// and the re-planner refuses (it degrades), so it is not
    /// remembered.
    fn opened_by(scene: &ChurnState, slice: &Slice) -> SceneTable {
        let mut table = SceneTable::default();
        if !slice.plan.tasks.is_empty() {
            table.record(scene, Ok(slice.clone()));
        }
        table
    }

    /// What this scene gave last time, if remembered (a pointer copy).
    fn get(&mut self, scene: &ChurnState) -> Option<Planned> {
        let at = self.seen.iter().position(|(s, _)| s == scene)?;
        self.seen[..=at].rotate_right(1);
        Some(self.seen[0].1.clone())
    }

    /// Remembers what a scene gave, dropping the least recently used
    /// scene beyond [`MAX_SCENES`].
    fn record(&mut self, scene: &ChurnState, planned: Planned) {
        self.seen.retain(|(s, _)| s != scene);
        self.seen.insert(0, (scene.clone(), planned));
        self.seen.truncate(MAX_SCENES);
    }
}

/// Planning work done on the live path, for the control plane's
/// counters: planner runs, and scene-table hits that avoided one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanWork {
    /// Planner runs ([`plan_intent_on`] or `Planner::plan`).
    pub planner_calls: u64,
    /// Plans answered from an intent's scene table.
    pub table_hits: u64,
}

/// One installed intent: its own counting plan (intent-local node ids)
/// plus the mapping onto the store's global node table.
#[derive(Debug, Clone)]
pub struct InstalledIntent {
    /// The intent's id.
    pub id: IntentId,
    /// Human-readable name (daemon protocol, status lines).
    pub name: String,
    /// The invariant, when known. The base intent of a store built
    /// straight from a counting plan has none.
    pub invariant: Option<Invariant>,
    /// The intent's counting plan on the scene in force, in
    /// intent-local node ids — exactly what a standalone session for
    /// this invariant would run. Shared with the intent's scene table
    /// (and, for the base intent, the control plane): a churn fence
    /// that returns to a remembered scene swaps the pointer.
    pub plan: Arc<CountingPlan>,
    /// Intent-local node id (as index) → global node id.
    pub to_global: Vec<NodeId>,
    ctx: usize,
    degraded: bool,
    scenes: SceneTable,
}

impl InstalledIntent {
    /// Index of the intent's packet-space context in its store (nodes
    /// only ever merge within one context).
    pub fn context(&self) -> usize {
        self.ctx
    }

    /// Whether the intent is *degraded*: the current post-churn
    /// topology cannot host its slice (e.g. its ingress is isolated),
    /// so it owns no global nodes and is excluded from evaluation
    /// until a later churn event makes it plannable again. Its `plan`
    /// and `to_global` are the last good (pre-degradation) ones.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The distinct global nodes of this intent's slice.
    pub fn global_nodes(&self) -> BTreeSet<NodeId> {
        self.to_global.iter().copied().collect()
    }

    /// The devices this intent's slice touches.
    pub fn devices(&self) -> BTreeSet<DeviceId> {
        self.plan.tasks.iter().map(|t| t.dev).collect()
    }

    /// Scenes this intent's table remembers (never above its bound).
    #[cfg(test)]
    pub(crate) fn scenes_remembered(&self) -> usize {
        self.scenes.seen.len()
    }
}

/// The structural part of a [`SigKey`]: device, accept vector, sorted
/// downstream edges. Used to count same-signature duplicates while
/// seeding.
type NodeSig = (DeviceId, Vec<bool>, Vec<(NodeId, DeviceId)>);

/// Hash-consing key of a global node. `children` are *global* ids, so
/// within one table a node's identity is exact (its whole downstream
/// cone is pinned by construction); `occurrence` separates
/// structurally identical duplicates *within* one intent so a
/// standalone plan's node multiplicity is preserved. The first three
/// fields are the node's *site*, which its id names for life; the
/// rest may change when a churn re-plan hands the id on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SigKey {
    ctx: usize,
    dev: DeviceId,
    accept: Vec<bool>,
    children: Vec<(NodeId, DeviceId)>,
    occurrence: u32,
}

/// One node of the global table, refcounted by owning intents.
#[derive(Debug, Clone)]
struct GlobalNode {
    dev: DeviceId,
    accept: Vec<bool>,
    /// Downstream edges (global child ids), fixed within one table —
    /// part of the node's hash-consed identity there. A churn re-plan
    /// may hand the id to the node that takes this one's place, with
    /// other edges.
    downstream: Vec<(NodeId, DeviceId)>,
    /// Upstream edges → the intents contributing each. An edge dies
    /// when its last contributor is removed.
    upstream: BTreeMap<(NodeId, DeviceId), BTreeSet<u64>>,
    /// Intents that installed this node.
    owners: BTreeSet<u64>,
    key: SigKey,
}

/// The table a rebuild supersedes — where a rebuilt node's id comes
/// from ([`IntentStore::replan_all_for_churn`], "Id stability").
/// Installs and removals build on the live table and pass an empty one.
#[derive(Debug, Default)]
struct PrevTable {
    intern: BTreeMap<SigKey, NodeId>,
    nodes: BTreeMap<NodeId, GlobalNode>,
}

impl PrevTable {
    /// The id of this table that intent `intent`'s rebuilt node `key`
    /// takes, if any: the node with exactly that key, else the node at
    /// the same site — context, device, accept vector — that `intent`
    /// owned and that shares the most downstream edges with `key`
    /// (lowest id on ties). `claimed` is the table being built; an id
    /// in it names a node of that table already and is not offered
    /// twice.
    fn id_for(
        &self,
        key: &SigKey,
        intent: u64,
        claimed: &BTreeMap<NodeId, GlobalNode>,
    ) -> Option<NodeId> {
        let free = |g: &NodeId| !claimed.contains_key(g);
        if let Some(g) = self.intern.get(key).copied().filter(free) {
            return Some(g);
        }
        // `intern` is ordered by site first: one site is one range.
        let site = SigKey {
            ctx: key.ctx,
            dev: key.dev,
            accept: key.accept.clone(),
            children: Vec::new(),
            occurrence: 0,
        };
        let same_site = |k: &SigKey| (k.ctx, k.dev, &k.accept) == (key.ctx, key.dev, &key.accept);
        self.intern
            .range(&site..)
            .take_while(|(k, _)| same_site(k))
            .filter(|(_, g)| {
                free(g)
                    && self
                        .nodes
                        .get(g)
                        .is_some_and(|n| n.owners.contains(&intent))
            })
            .max_by_key(|(k, g)| {
                let common = k.children.iter().filter(|e| key.children.contains(e));
                (common.count(), std::cmp::Reverse(**g))
            })
            .map(|(_, g)| *g)
    }
}

/// What a substrate must apply after an install/remove: per-device
/// task changes and node removals (global ids), plus the slice-reuse
/// accounting that evidences slicing locality.
#[derive(Debug, Clone, Default)]
pub struct IntentDelta {
    /// Tasks to install or re-task, per device (global node ids).
    pub changed: BTreeMap<DeviceId, Vec<NodeTask>>,
    /// Nodes to drop, per device.
    pub removed: BTreeMap<DeviceId, Vec<NodeId>>,
    /// Base packet space for *new* nodes (the installing intent's);
    /// `None` for removals (removals never create nodes).
    pub space: Option<PacketSpace>,
    /// Distinct global nodes in the intent's slice.
    pub total_nodes: usize,
    /// Slice nodes shared with previously installed intents.
    pub reused_nodes: usize,
}

impl IntentDelta {
    /// Devices this delta touches (re-plan locality evidence).
    pub fn touched_devices(&self) -> BTreeSet<DeviceId> {
        self.changed
            .keys()
            .chain(self.removed.keys())
            .copied()
            .collect()
    }
}

/// How many churn fences a parked install may ride before it is
/// rejected with a journaled, explainable error instead of waiting
/// forever (see [`PendingIntent`]).
pub const MAX_INTENT_RETRIES: u32 = 3;

/// An install that raced a topology fence: its invariant could not be
/// planned against the *current* effective topology, so it waits in
/// the store's pending queue and is deterministically re-planned on
/// every subsequent fence. Its [`IntentId`] is allocated at park time,
/// so replicas that make the same park decisions agree on ids.
#[derive(Debug, Clone)]
pub struct PendingIntent {
    /// The id the intent will carry once it lands.
    pub id: IntentId,
    /// Human-readable name (daemon protocol, status lines).
    pub name: String,
    /// The invariant to plan once the topology allows it.
    pub invariant: Invariant,
    /// Failed re-plan attempts so far; at [`MAX_INTENT_RETRIES`] the
    /// intent is rejected instead of retried.
    pub retries: u32,
}

/// One per-device task group of a [`StoreReplan`]. Groups carry the
/// packet-space context their *new* nodes must be seeded with:
/// `ctx: None` means every node in the group already exists on the
/// device (pure re-task — apply with `set_tasks`); `ctx: Some(i)`
/// means the group introduces nodes of context `i` (apply with
/// `install_tasks` under [`IntentStore::context_space`]). Groups for
/// one device are ordered `None` first, then contexts ascending.
#[derive(Debug, Clone)]
pub struct ReplanTaskGroup {
    /// Packet-space context index for new nodes; `None` for re-tasks.
    pub ctx: Option<usize>,
    /// The tasks, sorted by global node id.
    pub tasks: Vec<NodeTask>,
}

/// What [`IntentStore::replan_all_for_churn`] asks a substrate to
/// apply under one epoch fence, plus the per-intent lifecycle
/// transitions the fence caused (for journaling and gauges).
#[derive(Debug, Clone)]
pub struct StoreReplan {
    /// The post-churn topology every surviving slice was planned
    /// against.
    pub topology: Topology,
    /// Per device: task groups to apply (see [`ReplanTaskGroup`]).
    /// Devices whose hosted nodes all survived verbatim are absent —
    /// unaffected slices ship zero tasks.
    pub changed: BTreeMap<DeviceId, Vec<ReplanTaskGroup>>,
    /// Per device: nodes of the old table no longer present.
    pub removed: BTreeMap<DeviceId, Vec<NodeId>>,
    /// Nodes of the *old* table hosted on now-quarantined devices;
    /// their last results are reported `Unreachable`, not recomputed.
    pub unreachable: Vec<(NodeId, DeviceId)>,
    /// Intents whose slice cannot be planned on the new topology, with
    /// the planner's reason. Includes intents that were already
    /// degraded and still fail; substrates diff against their own
    /// records to journal only fresh transitions.
    pub degraded: Vec<(IntentId, String)>,
    /// Previously degraded intents that planned again this fence.
    pub revived: Vec<IntentId>,
    /// Parked installs that landed this fence (now live intents).
    pub unparked: Vec<IntentId>,
    /// Parked installs that exhausted [`MAX_INTENT_RETRIES`], with the
    /// last planner error; they are dropped from the queue.
    pub rejected: Vec<(IntentId, String)>,
    /// Nodes in the rebuilt global table.
    pub total_nodes: usize,
    /// Nodes whose id *and* task survived the re-plan verbatim (no
    /// recount, no re-task, nothing to send).
    pub reused_nodes: usize,
}

/// The `IntentId`-keyed intent store (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct IntentStore {
    profile: Option<IntentProfile>,
    contexts: Vec<PacketSpace>,
    nodes: BTreeMap<NodeId, GlobalNode>,
    intern: BTreeMap<SigKey, NodeId>,
    intents: BTreeMap<u64, InstalledIntent>,
    parked: BTreeMap<u64, PendingIntent>,
    next_node: u32,
    next_intent: u64,
}

impl IntentStore {
    /// An empty store (no base intent).
    pub fn new() -> IntentStore {
        IntentStore::default()
    }

    /// A store seeded with the *base* intent (id 0) under an
    /// **identity** local↔global node mapping, so a legacy single-plan
    /// substrate behaves byte-identically to before the store existed.
    /// The plan is remembered as the base intent's quiet scene.
    pub fn with_base(
        plan: Arc<CountingPlan>,
        space: PacketSpace,
        invariant: Option<Invariant>,
    ) -> IntentStore {
        let mut store = IntentStore::new();
        store.seed_base(plan, space, invariant);
        store
    }

    fn seed_base(
        &mut self,
        plan: Arc<CountingPlan>,
        space: PacketSpace,
        invariant: Option<Invariant>,
    ) {
        assert!(self.intents.is_empty(), "base intent must be seeded first");
        self.profile = Some(IntentProfile::of(&plan));
        self.contexts.push(space);
        let slice = Slice::of(plan);
        let tasks = &slice.plan.tasks;
        let mut occ: BTreeMap<NodeSig, u32> = BTreeMap::new();
        for t in slice.order.iter().map(|&i| &tasks[i as usize]) {
            let ln = t.node;
            // Identity mapping: the base intent's local ids ARE the
            // global ids.
            let children = sorted_edges(t.downstream.iter().map(|(n, d)| (*n, *d)));
            let sig = (t.dev, t.accept.clone(), children.clone());
            let o = occ.entry(sig).or_insert(0);
            let key = SigKey {
                ctx: 0,
                dev: t.dev,
                accept: t.accept.clone(),
                children: children.clone(),
                occurrence: *o,
            };
            *o += 1;
            self.intern.insert(key.clone(), ln);
            self.nodes.insert(
                ln,
                GlobalNode {
                    dev: t.dev,
                    accept: t.accept.clone(),
                    downstream: children,
                    upstream: BTreeMap::new(),
                    owners: BTreeSet::from([0u64]),
                    key,
                },
            );
            self.next_node = self.next_node.max(ln.0 + 1);
        }
        for t in tasks {
            for (cl, _) in &t.downstream {
                // An edge to a node the plan has no task for has no
                // listener to register with.
                let Some(child) = self.nodes.get_mut(cl) else {
                    continue;
                };
                let edge = child.upstream.entry((t.node, t.dev)).or_default();
                edge.insert(0);
            }
        }
        let to_global: Vec<NodeId> = (0..tasks.len() as u32).map(NodeId).collect();
        self.intents.insert(
            0,
            InstalledIntent {
                id: IntentId(0),
                name: "base".to_string(),
                invariant,
                scenes: SceneTable::opened_by(&ChurnState::new(), &slice),
                plan: slice.plan,
                to_global,
                ctx: 0,
                degraded: false,
            },
        );
        self.next_intent = 1;
    }

    /// Installs an intent: interns its DPVNet slice into the global
    /// table (children-first, so sharing with existing cones is found
    /// bottom-up) and returns the per-device delta a substrate must
    /// apply under an epoch bump. Pass `id = None` to allocate the
    /// next id; an explicit id is for deterministic replay (hot
    /// backend swap) and must be unused. `scene` is the churn in force,
    /// which the plan was made for: it opens the intent's scene table.
    pub(crate) fn install(
        &mut self,
        id: Option<IntentId>,
        name: &str,
        invariant: Option<Invariant>,
        plan: Arc<CountingPlan>,
        space: PacketSpace,
        scene: &ChurnState,
    ) -> Result<(IntentId, IntentDelta), PlanError> {
        let profile = IntentProfile::of(&plan);
        match self.profile {
            None => self.profile = Some(profile),
            Some(p) if p == profile => {}
            Some(p) => {
                return Err(PlanError::Unsupported(format!(
                    "intent {name:?} has counting profile {profile:?}, \
                     but this session runs {p:?} (one outcome-vector \
                     shape per session)"
                )));
            }
        }
        let id = self.claim_id(id)?;
        let ctx = self.context_of(&space);
        let slice = Slice::of(plan);
        let (to_global, fresh, grown) = self.intern_plan(id.0, &slice, ctx, &PrevTable::default());
        // Every local node either created a global node or shared one.
        let reused = to_global.len() - fresh.len();
        // A grown upstream edge set means the child must be re-tasked
        // so it announces along the new edge.
        let retask: BTreeSet<NodeId> = fresh.union(&grown).copied().collect();

        let mut delta = IntentDelta {
            space: Some(self.contexts[ctx].clone()),
            total_nodes: to_global.iter().collect::<BTreeSet<_>>().len(),
            reused_nodes: reused,
            ..IntentDelta::default()
        };
        for g in retask {
            let task = self.global_task(g);
            delta.changed.entry(task.dev).or_default().push(task);
        }
        self.intents.insert(
            id.0,
            InstalledIntent {
                id,
                name: name.to_string(),
                invariant,
                scenes: SceneTable::opened_by(scene, &slice),
                plan: slice.plan,
                to_global,
                ctx,
                degraded: false,
            },
        );
        Ok((id, delta))
    }

    /// Removes an intent: drops its ownership refs, removes nodes no
    /// surviving intent owns, shrinks upstream edge sets, and returns
    /// the delta a substrate must apply under an epoch bump. The
    /// intent's scene table goes with it.
    pub(crate) fn remove(&mut self, id: IntentId) -> Result<IntentDelta, PlanError> {
        if id == IntentId::BASE {
            return Err(PlanError::Unsupported(
                "the base intent anchors the session and cannot be removed".into(),
            ));
        }
        // A parked install can be cancelled before it ever lands: the
        // pending-queue entry is drained and no device hosts anything
        // for it, so the delta is empty (no `Unsupported` mid-fence).
        if self.parked.remove(&id.0).is_some() {
            return Ok(IntentDelta::default());
        }
        let Some(intent) = self.intents.remove(&id.0) else {
            return Err(PlanError::Unsupported(format!(
                "intent {id} is not installed"
            )));
        };
        if intent.degraded {
            // A degraded intent owns no nodes in the current global
            // table (its slice was not re-planned in); dropping the
            // record is the whole removal.
            return Ok(IntentDelta::default());
        }
        // Withdraw this intent's upstream-edge contributions.
        let mut shrunk: BTreeSet<NodeId> = BTreeSet::new();
        for t in &intent.plan.tasks {
            let pg = intent.to_global[t.node.0 as usize];
            let pdev = t.dev;
            for (cl, _) in &t.downstream {
                let cg = intent.to_global[cl.0 as usize];
                // A live slice's map names table nodes only; one that
                // is gone has no edge left to withdraw.
                let Some(node) = self.nodes.get_mut(&cg) else {
                    continue;
                };
                if let Some(refs) = node.upstream.get_mut(&(pg, pdev)) {
                    refs.remove(&id.0);
                    if refs.is_empty() {
                        node.upstream.remove(&(pg, pdev));
                        shrunk.insert(cg);
                    }
                }
            }
        }
        // Drop ownership; sweep nodes nobody owns anymore.
        let mut delta = IntentDelta::default();
        for g in intent.global_nodes() {
            let Entry::Occupied(mut node) = self.nodes.entry(g) else {
                continue;
            };
            node.get_mut().owners.remove(&id.0);
            if node.get().owners.is_empty() {
                let node = node.remove();
                self.intern.remove(&node.key);
                shrunk.remove(&g);
                delta.removed.entry(node.dev).or_default().push(g);
            }
        }
        for g in shrunk {
            let task = self.global_task(g);
            delta.changed.entry(task.dev).or_default().push(task);
        }
        delta.total_nodes = intent.to_global.iter().collect::<BTreeSet<_>>().len();
        delta.reused_nodes =
            delta.total_nodes - delta.removed.values().map(Vec::len).sum::<usize>();
        Ok(delta)
    }

    /// The current [`NodeTask`] of one global node (global ids, sorted
    /// edges).
    fn global_task(&self, g: NodeId) -> NodeTask {
        let node = &self.nodes[&g];
        NodeTask {
            node: g,
            dev: node.dev,
            downstream: node.downstream.clone(),
            upstream: node.upstream.keys().copied().collect(),
            accept: node.accept.clone(),
        }
    }

    /// Live intents, in id order.
    pub fn live(&self) -> impl Iterator<Item = &InstalledIntent> {
        self.intents.values()
    }

    /// One live intent.
    pub fn get(&self, id: IntentId) -> Option<&InstalledIntent> {
        self.intents.get(&id.0)
    }

    /// Number of live intents.
    pub fn len(&self) -> usize {
        self.intents.len()
    }

    /// Whether no intent is installed.
    pub fn is_empty(&self) -> bool {
        self.intents.is_empty()
    }

    /// Number of distinct global nodes currently installed.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Every installed node's current task (global ids) — the union
    /// task table across intents, deduplicated.
    pub fn global_tasks(&self) -> Vec<NodeTask> {
        self.nodes.keys().map(|g| self.global_task(*g)).collect()
    }

    /// The devices currently hosting at least one node.
    pub fn devices(&self) -> BTreeSet<DeviceId> {
        self.nodes.values().map(|n| n.dev).collect()
    }

    /// The id the next `install(None, ..)` will allocate (ids are
    /// never reused, so this only ever grows).
    pub fn next_intent_id(&self) -> u64 {
        self.next_intent
    }

    /// How many intents own the given global node (dedup evidence).
    pub fn owner_count(&self, g: NodeId) -> usize {
        self.nodes.get(&g).map_or(0, |n| n.owners.len())
    }

    /// Parks an install that raced a topology fence: allocates the
    /// intent's id now (so replicas agree on ids) and queues it for
    /// re-planning on the next fence (see [`PendingIntent`]). An
    /// explicit id is for deterministic replay and must be unused.
    pub(crate) fn park(
        &mut self,
        id: Option<IntentId>,
        name: &str,
        invariant: Invariant,
    ) -> Result<IntentId, PlanError> {
        let id = self.claim_id(id)?;
        self.parked.insert(
            id.0,
            PendingIntent {
                id,
                name: name.to_string(),
                invariant,
                retries: 0,
            },
        );
        Ok(id)
    }

    /// Parked installs, in id order.
    pub fn parked(&self) -> impl Iterator<Item = &PendingIntent> {
        self.parked.values()
    }

    /// Number of parked installs.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Whether this id is waiting in the pending queue.
    pub fn is_parked(&self, id: IntentId) -> bool {
        self.parked.contains_key(&id.0)
    }

    /// Live intents currently degraded (see
    /// [`InstalledIntent::is_degraded`]), in id order.
    pub fn degraded_ids(&self) -> Vec<IntentId> {
        self.intents
            .values()
            .filter(|i| i.degraded)
            .map(|i| i.id)
            .collect()
    }

    /// Number of live-but-degraded intents.
    pub fn degraded_count(&self) -> usize {
        self.intents.values().filter(|i| i.degraded).count()
    }

    /// The base intent's counting plan (`None` only for an empty
    /// store). After a churn fence this is the post-churn base plan.
    pub fn base_plan(&self) -> Option<&Arc<CountingPlan>> {
        self.intents.get(&0).map(|i| &i.plan)
    }

    /// Empties every intent's scene table. The tables answer for one
    /// base topology and one base invariant (see [`SceneTable`]); the
    /// control plane calls this when handed any other.
    pub(crate) fn forget_scenes(&mut self) {
        for intent in self.intents.values_mut() {
            intent.scenes = SceneTable::default();
        }
    }

    /// The packet space of one interning context (see
    /// [`ReplanTaskGroup::ctx`]).
    pub fn context_space(&self, ctx: usize) -> &PacketSpace {
        &self.contexts[ctx]
    }

    /// Re-plans **every** live intent slice against the post-churn
    /// topology under one shared fence, rebuilds the global node table
    /// with stable ids for unchanged cones, retries parked installs,
    /// and returns the per-device diff plus the intent lifecycle
    /// transitions.
    ///
    /// "Re-plans" asks each intent's scene table first ([`SceneTable`]):
    /// a scene the intent has been planned on before — the second half
    /// of every flap, every later flap of the same link — is a pointer
    /// copy; only a scene it has never seen runs [`plan_intent_on`],
    /// and the answer, slice or refusal, is remembered. `work` counts
    /// both. The rebuild and the diff run either way: this is the one
    /// re-planner, with one rebuild behind it. The caller keeps `base`
    /// and `base_inv` the same from call to call, or calls
    /// [`IntentStore::forget_scenes`].
    ///
    /// * The **base** intent failing to plan rejects the whole event
    ///   (`Err`; nothing but scene tables touched, and those only
    ///   learn) — the session keeps verifying the old epoch, exactly
    ///   like the single-intent re-planner.
    /// * Any **other** intent failing degrades that intent only: it
    ///   stays installed but owns no nodes and is skipped by
    ///   evaluation until a later fence revives it.
    /// * **Parked** installs are re-planned; successes land as live
    ///   intents (`unparked`), failures burn one retry, and at
    ///   [`MAX_INTENT_RETRIES`] they are dropped (`rejected`).
    ///
    /// Id stability: a rebuilt node whose hash-consing key (context,
    /// device, accept vector, global downstream cone) matches a
    /// pre-churn node keeps that node's id. By bottom-up induction the
    /// whole unchanged cone keeps its exact ids *and* tasks, so it
    /// appears in neither `changed` nor `removed` — unaffected slices
    /// ship zero tasks and send nothing. A rebuilt node whose key
    /// matches nothing — it lost or gained an edge — *inherits* the id
    /// of a pre-churn node no rebuilt node has claimed yet, at the same
    /// site (context, device, accept vector) and owned by the same
    /// intent: the one sharing the most downstream edges, the lowest
    /// id on ties ([`PrevTable::id_for`]). Children are interned first,
    /// so once the changed node has its old id its parents' keys match
    /// exactly again: the renaming stops at the nodes the event
    /// touched, which are re-tasked, instead of running up to every
    /// source. Ids are names — the devices are told each node's task
    /// by id, and a re-tasked node recounts — so any assignment that
    /// gives distinct nodes distinct ids and keeps an id on its device
    /// and packet space computes the same Report; how well heirs are
    /// matched decides only how much is re-tasked. The owner rule
    /// keeps a degraded intent's last ids, which freshness still
    /// reports, out of other intents' slices. An id that drops out of
    /// the table is gone for good (`next_node` only grows, and only
    /// the immediately preceding table's ids can be reclaimed), so a
    /// node that reappears later is new to every neighbour.
    ///
    /// `taskable` restricts which devices plans may task (substrates
    /// with a fixed thread-per-device set pass their roster; lazily
    /// building substrates pass `None`). A base plan tasking an
    /// unlisted device is an error; any other intent degrades.
    pub(crate) fn replan_all_for_churn(
        &mut self,
        base: &Topology,
        base_inv: Option<&Invariant>,
        churn: &ChurnState,
        taskable: Option<&BTreeSet<DeviceId>>,
        work: &mut PlanWork,
    ) -> Result<StoreReplan, PlanError> {
        let topology = churn.apply_to(base);

        // Phase 1: plan every live intent (degraded ones included, so
        // recovery revives them), from its scene table where it can.
        // Nothing but the tables is committed until the base plan is
        // known good.
        let mut new_plans: BTreeMap<u64, Slice> = BTreeMap::new();
        let mut degraded: Vec<(IntentId, String)> = Vec::new();
        for intent in self.intents.values_mut() {
            let inv = match intent.invariant.as_ref() {
                Some(inv) => inv,
                None if intent.id == IntentId::BASE => match base_inv {
                    Some(inv) => inv,
                    None => {
                        return Err(PlanError::Unsupported(
                            "base intent has no invariant to re-plan under churn".into(),
                        ))
                    }
                },
                None => {
                    degraded.push((
                        intent.id,
                        "no invariant recorded; cannot re-plan".to_string(),
                    ));
                    continue;
                }
            };
            let planned = match intent.scenes.get(churn) {
                Some(remembered) => {
                    work.table_hits += 1;
                    remembered
                }
                None => {
                    work.planner_calls += 1;
                    let fresh = plan_intent_on(&topology, inv, churn, taskable)
                        .map(|cp| Slice::of(Arc::new(cp)));
                    intent.scenes.record(churn, fresh.clone());
                    fresh
                }
            };
            match planned {
                Ok(cp) => {
                    new_plans.insert(intent.id.0, cp);
                }
                Err(e) if intent.id == IntentId::BASE => return Err(e),
                Err(e) => degraded.push((intent.id, e.to_string())),
            }
        }

        // Phase 2: retry parked installs against the new topology (a
        // parked install has no table yet: it gets one when it lands).
        let mut unpark_plans: Vec<(PendingIntent, Slice)> = Vec::new();
        let mut rejected: Vec<(IntentId, String)> = Vec::new();
        let mut still_parked: BTreeMap<u64, PendingIntent> = BTreeMap::new();
        for (pid, mut p) in std::mem::take(&mut self.parked) {
            work.planner_calls += 1;
            let attempt = plan_intent_on(&topology, &p.invariant, churn, taskable).and_then(|cp| {
                let profile = IntentProfile::of(&cp);
                match self.profile {
                    Some(pr) if pr != profile => Err(PlanError::Unsupported(format!(
                        "intent {:?} has counting profile {profile:?}, \
                         but this session runs {pr:?}",
                        p.name
                    ))),
                    _ => Ok(cp),
                }
            });
            match attempt {
                Ok(cp) => unpark_plans.push((p, Slice::of(Arc::new(cp)))),
                Err(e) => {
                    p.retries += 1;
                    if p.retries >= MAX_INTENT_RETRIES {
                        rejected.push((
                            p.id,
                            format!(
                                "parked intent exhausted {MAX_INTENT_RETRIES} \
                                 re-plan attempts; last error: {e}"
                            ),
                        ));
                    } else {
                        still_parked.insert(pid, p);
                    }
                }
            }
        }
        self.parked = still_parked;

        // Phase 3: snapshot the old table and rebuild from scratch,
        // claiming old ids wherever the hash-consing key survives and,
        // where it does not, the id of the node the new one replaces.
        let old_tasks: BTreeMap<NodeId, NodeTask> = self
            .nodes
            .keys()
            .map(|g| (*g, self.global_task(*g)))
            .collect();
        let prev = PrevTable {
            intern: std::mem::take(&mut self.intern),
            nodes: std::mem::take(&mut self.nodes),
        };

        let mut revived: Vec<IntentId> = Vec::new();
        // `intern_plan` works on the node table alone, so the intents
        // can sit outside the store while it runs.
        let mut intents = std::mem::take(&mut self.intents);
        for (id, it) in intents.iter_mut() {
            // Phase 1 planned every intent it did not degrade.
            let Some(cp) = new_plans.remove(id) else {
                it.degraded = true;
                continue;
            };
            let (to_global, ..) = self.intern_plan(*id, &cp, it.ctx, &prev);
            it.plan = cp.plan;
            it.to_global = to_global;
            if it.degraded {
                it.degraded = false;
                revived.push(it.id);
            }
        }
        self.intents = intents;
        let mut unparked: Vec<IntentId> = Vec::new();
        for (p, cp) in unpark_plans {
            if self.profile.is_none() {
                self.profile = Some(IntentProfile::of(&cp.plan));
            }
            let ctx = self.context_of(&p.invariant.packet_space);
            let (to_global, ..) = self.intern_plan(p.id.0, &cp, ctx, &prev);
            self.intents.insert(
                p.id.0,
                InstalledIntent {
                    id: p.id,
                    name: p.name,
                    invariant: Some(p.invariant),
                    scenes: SceneTable::opened_by(churn, &cp),
                    plan: cp.plan,
                    to_global,
                    ctx,
                    degraded: false,
                },
            );
            unparked.push(p.id);
        }

        // Phase 4: diff old table vs new. Down devices' old nodes are
        // unreachable (never removed — the planner tasks them with
        // nothing and a later DeviceUp wipes the verifier anyway).
        let mut removed: BTreeMap<DeviceId, Vec<NodeId>> = BTreeMap::new();
        let mut unreachable: Vec<(NodeId, DeviceId)> = Vec::new();
        for (g, old) in &old_tasks {
            if churn.is_down(old.dev) {
                unreachable.push((*g, old.dev));
            } else if !self.nodes.contains_key(g) {
                removed.entry(old.dev).or_default().push(*g);
            }
        }
        for list in removed.values_mut() {
            list.sort();
        }
        let mut reused_nodes = 0usize;
        let mut retask: BTreeMap<DeviceId, Vec<NodeTask>> = BTreeMap::new();
        let mut fresh: BTreeMap<DeviceId, BTreeMap<usize, Vec<NodeTask>>> = BTreeMap::new();
        for (g, node) in &self.nodes {
            let task = self.global_task(*g);
            match old_tasks.get(g) {
                Some(old) if *old == task => reused_nodes += 1,
                Some(_) => retask.entry(node.dev).or_default().push(task),
                None => fresh
                    .entry(node.dev)
                    .or_default()
                    .entry(node.key.ctx)
                    .or_default()
                    .push(task),
            }
        }
        let mut changed: BTreeMap<DeviceId, Vec<ReplanTaskGroup>> = BTreeMap::new();
        for (dev, mut tasks) in retask {
            tasks.sort_by_key(|t| t.node);
            changed
                .entry(dev)
                .or_default()
                .push(ReplanTaskGroup { ctx: None, tasks });
        }
        for (dev, by_ctx) in fresh {
            for (ctx, mut tasks) in by_ctx {
                tasks.sort_by_key(|t| t.node);
                changed.entry(dev).or_default().push(ReplanTaskGroup {
                    ctx: Some(ctx),
                    tasks,
                });
            }
        }
        Ok(StoreReplan {
            total_nodes: self.nodes.len(),
            topology,
            changed,
            removed,
            unreachable,
            degraded,
            revived,
            unparked,
            rejected,
            reused_nodes,
        })
    }

    /// Allocates the next intent id, or claims an explicit one (for
    /// deterministic replay), which must be unused.
    fn claim_id(&mut self, id: Option<IntentId>) -> Result<IntentId, PlanError> {
        let id = id.unwrap_or(IntentId(self.next_intent));
        if self.intents.contains_key(&id.0) || self.parked.contains_key(&id.0) {
            return Err(PlanError::Unsupported(format!(
                "intent id {id} is already installed"
            )));
        }
        self.next_intent = self.next_intent.max(id.0 + 1);
        Ok(id)
    }

    /// The interning context of a packet space, added if new.
    fn context_of(&mut self, space: &PacketSpace) -> usize {
        self.contexts
            .iter()
            .position(|c| c == space)
            .unwrap_or_else(|| {
                self.contexts.push(space.clone());
                self.contexts.len() - 1
            })
    }

    /// Interns one plan's DPVNet slice into the global table,
    /// children-first so sharing with existing cones is found
    /// bottom-up. A node whose hash-consing key is in the table is
    /// shared; otherwise it is created, under the id `prev` offers it
    /// when a rebuild wants pre-churn ids kept ([`PrevTable::id_for`])
    /// and a new one when it offers none. Returns the local → global
    /// mapping, the nodes created, and the existing nodes that gained
    /// their first contributor on some upstream edge.
    fn intern_plan(
        &mut self,
        id: u64,
        slice: &Slice,
        ctx: usize,
        prev: &PrevTable,
    ) -> (Vec<NodeId>, BTreeSet<NodeId>, BTreeSet<NodeId>) {
        let tasks = &slice.plan.tasks;
        let mut to_global = vec![NodeId(u32::MAX); tasks.len()];
        let mut occ: BTreeMap<SigKey, u32> = BTreeMap::new();
        let mut fresh: BTreeSet<NodeId> = BTreeSet::new();
        for t in slice.order.iter().map(|&i| &tasks[i as usize]) {
            let children = sorted_edges(
                t.downstream
                    .iter()
                    .map(|(n, d)| (to_global[n.0 as usize], *d)),
            );
            let mut key = SigKey {
                ctx,
                dev: t.dev,
                accept: t.accept.clone(),
                children: children.clone(),
                occurrence: 0,
            };
            // Nth structurally identical duplicate within this intent
            // claims the Nth matching global node.
            let o = occ.entry(key.clone()).or_insert(0);
            key.occurrence = *o;
            *o += 1;
            let g = match self.intern.get(&key) {
                Some(&g) => {
                    // `intern` and `nodes` move in lockstep: `g` is in both.
                    if let Some(node) = self.nodes.get_mut(&g) {
                        node.owners.insert(id);
                    }
                    g
                }
                None => {
                    let g = prev.id_for(&key, id, &self.nodes).unwrap_or_else(|| {
                        let g = NodeId(self.next_node);
                        self.next_node += 1;
                        g
                    });
                    self.intern.insert(key.clone(), g);
                    self.nodes.insert(
                        g,
                        GlobalNode {
                            dev: t.dev,
                            accept: t.accept.clone(),
                            downstream: children,
                            upstream: BTreeMap::new(),
                            owners: BTreeSet::from([id]),
                            key,
                        },
                    );
                    fresh.insert(g);
                    g
                }
            };
            to_global[t.node.0 as usize] = g;
        }
        let mut grown: BTreeSet<NodeId> = BTreeSet::new();
        for t in tasks {
            let pg = to_global[t.node.0 as usize];
            for (cl, _) in &t.downstream {
                let cg = to_global[cl.0 as usize];
                // An edge to a node the plan has no task for has no
                // listener to register with.
                let Some(node) = self.nodes.get_mut(&cg) else {
                    continue;
                };
                let edge = node.upstream.entry((pg, t.dev)).or_default();
                if edge.is_empty() {
                    grown.insert(cg);
                }
                edge.insert(id);
            }
        }
        (to_global, fresh, grown)
    }
}

/// Plans one invariant against a (post-churn) topology from scratch,
/// returning its counting plan — the planner run a scene-table miss
/// costs ([`IntentStore::replan_all_for_churn`]), and what a hit must
/// equal. Rejects plans that task a quarantined device (the
/// device is down — nothing can run there; e.g. an intent whose
/// ingress is the isolated device still "plans" onto it) and, with
/// `taskable`, plans that task a device outside the roster (fixed
/// thread-per-device substrates cannot grow verifiers after spawn).
/// Substrates use this for installs racing an active fence: an `Err`
/// here means "park it", not "reject it".
pub fn plan_intent_on(
    topology: &Topology,
    inv: &Invariant,
    churn: &ChurnState,
    taskable: Option<&BTreeSet<DeviceId>>,
) -> Result<CountingPlan, PlanError> {
    let PlanKind::Counting(cp) = Planner::new(topology).plan(inv)?.kind else {
        return Err(PlanError::Unsupported(
            "churn re-planning needs a counting plan".into(),
        ));
    };
    if cp.tasks.is_empty() {
        // No DPVNet node materialized (e.g. the ingress is isolated):
        // there is nothing to count anywhere, which would report the
        // invariant as vacuously holding. Degrade instead.
        return Err(PlanError::Unsupported(
            "slice has no DPVNet nodes on the current topology".into(),
        ));
    }
    for t in &cp.tasks {
        if churn.is_down(t.dev) {
            return Err(PlanError::Unsupported(format!(
                "slice tasks quarantined device d{}",
                t.dev.0
            )));
        }
        if let Some(ok) = taskable {
            if !ok.contains(&t.dev) {
                return Err(PlanError::Unsupported(format!(
                    "plan tasks device d{} but this substrate has no verifier \
                     for it (spawn with all_devices)",
                    t.dev.0
                )));
            }
        }
    }
    Ok(cp)
}

fn sorted_edges(it: impl Iterator<Item = (NodeId, DeviceId)>) -> Vec<(NodeId, DeviceId)> {
    let mut v: Vec<(NodeId, DeviceId)> = it.collect();
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::count::CountExpr;
    use crate::planner::Planner;
    use crate::spec::{Behavior, PacketSpace, PathExpr};
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
    use tulkun_netmodel::network::Network;
    use tulkun_netmodel::topology::Topology;
    use tulkun_netmodel::IpPrefix;

    fn pfx(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    /// The Figure 2a network (S → A → {B, W} → D).
    pub(crate) fn fig2a_network() -> Network {
        let mut t = Topology::new();
        let s = t.add_device("S");
        let a = t.add_device("A");
        let b = t.add_device("B");
        let w = t.add_device("W");
        let d = t.add_device("D");
        t.add_link(s, a, 1000);
        t.add_link(a, b, 1000);
        t.add_link(a, w, 1000);
        t.add_link(b, w, 1000);
        t.add_link(b, d, 1000);
        t.add_link(w, d, 1000);
        t.add_external_prefix(d, pfx("10.0.0.0/23"));
        let mut net = Network::new(t);
        net.fib_mut(s).insert(Rule {
            priority: 23,
            matches: MatchSpec::dst(pfx("10.0.0.0/23")),
            action: Action::fwd(a),
        });
        net.fib_mut(a).insert(Rule {
            priority: 10,
            matches: MatchSpec::dst(pfx("10.0.0.0/23")),
            action: Action::fwd_all([b, w]),
        });
        net.fib_mut(b).insert(Rule {
            priority: 10,
            matches: MatchSpec::dst(pfx("10.0.0.0/23")),
            action: Action::fwd(d),
        });
        net.fib_mut(w).insert(Rule {
            priority: 23,
            matches: MatchSpec::dst(pfx("10.0.0.0/23")),
            action: Action::fwd(d),
        });
        net.fib_mut(d).insert(Rule {
            priority: 23,
            matches: MatchSpec::dst(pfx("10.0.0.0/23")),
            action: Action::deliver(),
        });
        net
    }

    pub(crate) fn plan_for(net: &Network, expr: &str) -> (Invariant, Arc<CountingPlan>) {
        let inv = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress([expr.split_whitespace().next().unwrap()])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse(expr).unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        (inv, Arc::new(cp))
    }

    /// Overlapping intents share tasks; removal keeps shared tasks
    /// alive (the dedup-refcount contract of the intent store).
    #[test]
    fn dedup_refcounts_shared_tasks() {
        let net = fig2a_network();
        let (inv_a, cp_a) = plan_for(&net, "S .* D");
        let (inv_b, cp_b) = plan_for(&net, "A .* D");
        let mut store = IntentStore::with_base(
            cp_a.clone(),
            inv_a.packet_space.clone(),
            Some(inv_a.clone()),
        );
        let before = store.node_count();
        let (id_b, delta_b) = store
            .install(
                None,
                "b",
                Some(inv_b.clone()),
                cp_b.clone(),
                inv_b.packet_space.clone(),
                &ChurnState::new(),
            )
            .unwrap();
        assert!(
            delta_b.reused_nodes > 0,
            "S.*D and A.*D share the suffix cone toward D: {delta_b:?}"
        );
        assert_eq!(
            store.node_count(),
            before + delta_b.total_nodes - delta_b.reused_nodes
        );
        // A shared node is owned by both intents...
        let b = store.get(id_b).unwrap();
        let shared: Vec<NodeId> = b
            .global_nodes()
            .into_iter()
            .filter(|g| store.owner_count(*g) == 2)
            .collect();
        assert_eq!(shared.len(), delta_b.reused_nodes);
        // ...and removing one intent keeps every shared node alive.
        let delta_rm = store.remove(id_b).unwrap();
        for g in &shared {
            assert_eq!(store.owner_count(*g), 1, "shared node {g:?} must survive");
        }
        let removed: usize = delta_rm.removed.values().map(Vec::len).sum();
        assert_eq!(removed, delta_b.total_nodes - delta_b.reused_nodes);
        assert_eq!(store.node_count(), before);
        assert_eq!(
            store.live().map(|i| i.id).collect::<Vec<_>>(),
            [IntentId::BASE]
        );
    }

    /// Installing the same invariant twice is a full interning hit.
    #[test]
    fn duplicate_intent_is_fully_shared() {
        let net = fig2a_network();
        let (inv, cp) = plan_for(&net, "S .* W .* D");
        let mut store =
            IntentStore::with_base(cp.clone(), inv.packet_space.clone(), Some(inv.clone()));
        let (id, delta) = store
            .install(
                None,
                "dup",
                Some(inv.clone()),
                cp.clone(),
                inv.packet_space.clone(),
                &ChurnState::new(),
            )
            .unwrap();
        assert_eq!(delta.total_nodes, delta.reused_nodes, "{delta:?}");
        assert!(delta.removed.is_empty());
        let before = store.node_count();
        let delta_rm = store.remove(id).unwrap();
        assert!(delta_rm.removed.is_empty(), "{delta_rm:?}");
        assert_eq!(store.node_count(), before);
    }

    /// Intents with a different packet space never merge nodes.
    #[test]
    fn contexts_keep_packet_spaces_apart() {
        let net = fig2a_network();
        let (inv, cp) = plan_for(&net, "S .* D");
        let other = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
            .ingress(["S"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("S .* D").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let ocp = Planner::new(&net.topology)
            .plan(&other)
            .unwrap()
            .counting()
            .unwrap()
            .clone();
        let mut store = IntentStore::with_base(cp, inv.packet_space.clone(), Some(inv.clone()));
        let (_, delta) = store
            .install(
                None,
                "other-space",
                Some(other.clone()),
                Arc::new(ocp),
                other.packet_space.clone(),
                &ChurnState::new(),
            )
            .unwrap();
        assert_eq!(delta.reused_nodes, 0, "{delta:?}");
    }

    /// A mismatched counting profile is rejected, not mis-counted.
    #[test]
    fn profile_mismatch_rejected() {
        let net = fig2a_network();
        let (inv, cp) = plan_for(&net, "S .* D");
        let covered = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(Behavior::covered(
                PathExpr::parse("S .* D").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let ccp = Planner::new(&net.topology)
            .plan(&covered)
            .unwrap()
            .counting()
            .unwrap()
            .clone();
        let mut store = IntentStore::with_base(cp, inv.packet_space.clone(), Some(inv));
        if IntentProfile::of(&store.get(IntentId(0)).unwrap().plan) != IntentProfile::of(&ccp) {
            let err = store.install(
                None,
                "covered",
                Some(covered.clone()),
                Arc::new(ccp),
                covered.packet_space.clone(),
                &ChurnState::new(),
            );
            assert!(err.is_err());
        }
    }

    use crate::churn::{ChurnState, TopologyEvent};

    /// The names of one table: each id's hash-consing key and owners.
    pub(crate) struct Names(BTreeMap<NodeId, (SigKey, BTreeSet<u64>)>);

    impl Names {
        /// Ids of this table whose key is in `after` under another id.
        pub(crate) fn displaced(&self, after: &IntentStore) -> Vec<NodeId> {
            let moved = |(g, (key, _)): (&NodeId, &(SigKey, BTreeSet<u64>))| {
                after
                    .intern
                    .get(key)
                    .is_some_and(|now| now != g)
                    .then_some(*g)
            };
            self.0.iter().filter_map(moved).collect()
        }
    }

    impl IntentStore {
        pub(crate) fn names(&self) -> Names {
            let named = |(g, n): (&NodeId, &GlobalNode)| (*g, (n.key.clone(), n.owners.clone()));
            Names(self.nodes.iter().map(named).collect())
        }

        /// Holds the table to what every substrate assumes of it: one
        /// id per node and one node per id, and every live slice maps
        /// node by node (distinct local nodes to distinct ids) onto
        /// table nodes it owns, at its tasks' device, accept vector
        /// and — through the map — edges. With `before`, the table
        /// the last fence superseded, also holds that fence to the
        /// inheritance rule: an id in both tables names the same site
        /// (context, device, accept vector), and one whose cone
        /// changed stayed with an intent that owned it.
        pub(crate) fn assert_consistent(&self, before: Option<&Names>) {
            assert_eq!(self.intern.len(), self.nodes.len(), "one key per id");
            for (key, g) in &self.intern {
                let node = self.nodes.get(g).expect("an interned id is in the table");
                assert_eq!(node.key, *key, "{g:?} is filed under its own key");
                assert!(g.0 < self.next_node, "{g:?} was minted");
            }
            for it in self.intents.values().filter(|it| !it.degraded) {
                let id = it.id;
                assert_eq!(it.to_global.len(), it.plan.tasks.len(), "intent {id}");
                let distinct = it.global_nodes().len();
                assert_eq!(
                    distinct,
                    it.to_global.len(),
                    "intent {id}: two nodes, one id"
                );
                let global = |n: &NodeId| it.to_global[n.0 as usize];
                for t in &it.plan.tasks {
                    let g = global(&t.node);
                    let node = self.nodes.get(&g);
                    let node =
                        node.unwrap_or_else(|| panic!("intent {id}: {g:?} not in the table"));
                    assert_eq!(
                        (node.key.ctx, node.dev, &node.accept),
                        (it.ctx, t.dev, &t.accept)
                    );
                    let children = sorted_edges(t.downstream.iter().map(|(n, d)| (global(n), *d)));
                    assert_eq!(node.downstream, children, "intent {id}: {g:?}");
                    assert!(node.owners.contains(&id.0), "intent {id} owns {g:?}");
                    for (c, _) in &children {
                        let heard = &self.nodes[c].upstream[&(g, t.dev)];
                        assert!(heard.contains(&id.0), "intent {id}: edge {g:?} -> {c:?}");
                    }
                }
            }
            let Some(Names(before)) = before else {
                return;
            };
            for (g, node) in &self.nodes {
                let Some((old, owners)) = before.get(g) else {
                    continue;
                };
                let site = |k: &SigKey| (k.ctx, k.dev, k.accept.clone());
                assert_eq!(site(old), site(&node.key), "{g:?} moved site");
                let kept = old.children == node.key.children;
                let by_owner = !owners.is_disjoint(&node.owners);
                assert!(
                    kept || by_owner,
                    "{g:?} went to a stranger: {owners:?} -> {node:?}"
                );
            }
        }
    }

    /// One churn fence on `store` that the base slice survives.
    fn replan(store: &mut IntentStore, net: &Network, churn: &ChurnState) -> StoreReplan {
        let mut work = PlanWork::default();
        let before = store.names();
        let r = store.replan_all_for_churn(&net.topology, None, churn, None, &mut work);
        store.assert_consistent(Some(&before));
        r.unwrap()
    }

    fn two_intent_store(net: &Network) -> (IntentStore, IntentId) {
        let (inv_a, cp_a) = plan_for(net, "S .* D");
        let (inv_b, cp_b) = plan_for(net, "A .* D");
        let mut store =
            IntentStore::with_base(cp_a, inv_a.packet_space.clone(), Some(inv_a.clone()));
        let (id_b, _) = store
            .install(
                None,
                "b",
                Some(inv_b.clone()),
                cp_b,
                inv_b.packet_space.clone(),
                &ChurnState::new(),
            )
            .unwrap();
        (store, id_b)
    }

    /// A scene table holds [`MAX_SCENES`] scenes and forgets the one
    /// least recently used, which a hit is a use of.
    #[test]
    fn scene_table_forgets_the_least_recently_used_scene() {
        let scene = |i: usize| {
            let mut churn = ChurnState::new();
            churn.apply(&TopologyEvent::LinkDown(
                DeviceId(0),
                DeviceId(1 + i as u32),
            ));
            churn
        };
        let refusal = || Err(PlanError::Unsupported("unplannable".into()));
        let mut table = SceneTable::default();
        for i in 0..MAX_SCENES {
            table.record(&scene(i), refusal());
        }
        assert!(table.get(&scene(0)).is_some());
        table.record(&scene(MAX_SCENES), refusal());
        assert_eq!(table.seen.len(), MAX_SCENES);
        assert!(table.get(&scene(0)).is_some(), "the hit kept scene 0");
        assert!(table.get(&scene(1)).is_none(), "scene 1 made room");
        assert!(table.get(&scene(MAX_SCENES)).is_some());

        // A slice with tasks opens its intent's table; an empty one
        // (which the re-planner would refuse) is not remembered.
        let (_, cp) = plan_for(&fig2a_network(), "S .* D");
        assert_eq!(
            SceneTable::opened_by(&scene(0), &Slice::of(cp.clone()))
                .seen
                .len(),
            1
        );
        let mut empty = CountingPlan::clone(&cp);
        empty.tasks.clear();
        let table = SceneTable::opened_by(&scene(0), &Slice::of(Arc::new(empty)));
        assert!(table.seen.is_empty());
    }

    /// A fence with no effective topology change must rebuild the
    /// table onto the exact same ids and ship zero tasks — the "my
    /// slice is unaffected" guarantee.
    #[test]
    fn quiet_replan_is_idempotent() {
        let net = fig2a_network();
        let (mut store, id_b) = two_intent_store(&net);
        let before_base = store.get(IntentId::BASE).unwrap().to_global.clone();
        let before_b = store.get(id_b).unwrap().to_global.clone();
        let nodes_before = store.node_count();
        let r = replan(&mut store, &net, &ChurnState::new());
        assert!(
            r.changed.is_empty(),
            "unchanged plan must diff empty: {r:?}"
        );
        assert!(r.removed.is_empty());
        assert!(r.unreachable.is_empty() && r.degraded.is_empty());
        assert_eq!(r.reused_nodes, r.total_nodes);
        assert_eq!(store.node_count(), nodes_before);
        assert_eq!(store.get(IntentId::BASE).unwrap().to_global, before_base);
        assert_eq!(store.get(id_b).unwrap().to_global, before_b);
    }

    /// The inheritance rule clause by clause, on a hand-made previous
    /// table: one rightful predecessor and, beside it, a node that
    /// shares more edges with the rebuilt key but is off by exactly one
    /// clause — another context, device or accept vector, another
    /// owner, or an id already claimed.
    #[test]
    fn an_heir_comes_from_the_same_site_and_owner_and_is_claimed_once() {
        let (x, y, z) = (NodeId(90), NodeId(91), NodeId(92));
        let edges = |ns: &[NodeId]| -> Vec<(NodeId, DeviceId)> {
            ns.iter().map(|n| (*n, DeviceId(9))).collect()
        };
        let site = |ctx: usize, dev: u32, accept: bool, children: &[NodeId]| SigKey {
            ctx,
            dev: DeviceId(dev),
            accept: vec![accept],
            children: edges(children),
            occurrence: 0,
        };
        let mut prev = PrevTable::default();
        let mut add = |g: u32, key: SigKey, owner: u64| {
            prev.intern.insert(key.clone(), NodeId(g));
            let node = GlobalNode {
                dev: key.dev,
                accept: key.accept.clone(),
                downstream: key.children.clone(),
                upstream: BTreeMap::new(),
                owners: BTreeSet::from([owner]),
                key,
            };
            prev.nodes.insert(NodeId(g), node);
        };
        let me = 7;
        add(1, site(0, 1, false, &[x]), me); // the predecessor: one edge lost
        add(2, site(0, 1, false, &[y]), me); // ties with it on shared edges
        add(3, site(1, 1, false, &[x, y]), me); // another context
        add(4, site(0, 2, false, &[x, y]), me); // another device
        add(5, site(0, 1, true, &[x, y]), me); // another accept vector
        add(6, site(0, 1, false, &[x, y]), 8); // another intent's
        let rebuilt = site(0, 1, false, &[x, y, z]);
        let mut claimed: BTreeMap<NodeId, GlobalNode> = BTreeMap::new();
        let heir =
            |claimed: &BTreeMap<NodeId, GlobalNode>, key: &SigKey| prev.id_for(key, me, claimed);
        assert_eq!(
            heir(&claimed, &rebuilt),
            Some(NodeId(1)),
            "lowest id on ties"
        );
        // An exact key wins over any number of shared edges, whoever
        // owned it (a cone that is unchanged is the same node).
        assert_eq!(heir(&claimed, &site(0, 1, false, &[x, y])), Some(NodeId(6)));
        // Once claimed an id is not offered again: not to the next
        // best match, not to the exact one.
        claimed.insert(NodeId(1), prev.nodes[&NodeId(1)].clone());
        assert_eq!(heir(&claimed, &rebuilt), Some(NodeId(2)));
        assert_eq!(heir(&claimed, &site(0, 1, false, &[x])), Some(NodeId(2)));
        claimed.insert(NodeId(2), prev.nodes[&NodeId(2)].clone());
        assert_eq!(
            heir(&claimed, &rebuilt),
            None,
            "nothing left at this site: a new id"
        );
    }

    /// A link event re-tasks the nodes it changed and nothing above
    /// them. On fig2a under `S .* D`, losing A–W takes away A's edge
    /// to its W child and the two nodes below that edge; A keeps its
    /// id, so S — whose only child is A — is not touched at all, on the
    /// way down or on the way back.
    #[test]
    fn a_link_down_retasks_only_the_nodes_that_lost_an_edge_and_their_neighbours() {
        let net = fig2a_network();
        let (inv, cp) = plan_for(&net, "S .* D");
        let mut store = IntentStore::with_base(cp, inv.packet_space.clone(), Some(inv));
        let dev = |n: &str| net.topology.expect_device(n);
        let tasks = |store: &IntentStore| -> BTreeMap<NodeId, NodeTask> {
            let tasks = store.global_tasks().into_iter();
            tasks.map(|t| (t.node, t)).collect()
        };
        let shipped = |r: &StoreReplan| -> Vec<NodeTask> {
            let groups = r.changed.values().flatten();
            groups.flat_map(|g| g.tasks.iter().cloned()).collect()
        };
        let quiet = tasks(&store);
        let only_on = |name: &str| {
            let mut here = quiet.values().filter(|t| t.dev == dev(name));
            let node = here.next().map(|t| t.node);
            node.filter(|_| here.next().is_none())
        };
        let (s, a) = (only_on("S").unwrap(), only_on("A").unwrap());

        let mut churn = ChurnState::new();
        churn.apply(&TopologyEvent::LinkDown(dev("A"), dev("W")));
        let r = replan(&mut store, &net, &churn);
        let down = tasks(&store);
        let removed: BTreeSet<NodeId> = r.removed.values().flatten().copied().collect();
        assert_eq!(removed.len(), 2, "the W child of A and the B node below it");
        assert!(
            down.keys().all(|g| quiet.contains_key(g)),
            "a loss mints no id"
        );
        // The one node that lost a downstream edge is A, under the id
        // it had; every other task shipped is for a direct neighbour
        // of a node that went.
        let lost_an_edge = |g: &NodeId| quiet[g].downstream != down[g].downstream;
        let edged: Vec<NodeId> = down.keys().copied().filter(lost_an_edge).collect();
        assert_eq!(edged, [a]);
        for t in shipped(&r) {
            let was = &quiet[&t.node];
            let mut edges = was.upstream.iter().chain(&was.downstream);
            let beside = edges.any(|(n, _)| removed.contains(n));
            assert!(
                beside,
                "shipped a task for a node the loss did not touch: {t:?}"
            );
            assert_ne!(t.node, s, "S only hears from A");
        }
        assert_eq!(down[&s], quiet[&s]);
        assert_eq!(r.reused_nodes + shipped(&r).len(), r.total_nodes);

        // The way back mints the two nodes again and A takes the edge
        // back under its id: S is still not told anything.
        churn.apply(&TopologyEvent::LinkUp(dev("A"), dev("W")));
        let r = replan(&mut store, &net, &churn);
        let back = tasks(&store);
        assert_eq!(back.len(), quiet.len());
        assert_eq!(back.keys().filter(|g| !down.contains_key(g)).count(), 2);
        assert_eq!(back[&a].upstream, quiet[&a].upstream);
        assert_eq!(back[&a].downstream.len(), quiet[&a].downstream.len());
        assert!(shipped(&r).iter().all(|t| t.node != s));
        assert_eq!(back[&s], quiet[&s]);
    }

    /// An intent whose ingress goes down degrades (stays installed,
    /// owns no nodes) instead of poisoning the store, and revives on
    /// recovery.
    #[test]
    fn unplannable_intent_degrades_then_revives() {
        let net = fig2a_network();
        let (inv_s, cp_s) = plan_for(&net, "S .* D");
        let (inv_b, cp_b) = plan_for(&net, "B .* D");
        let mut store =
            IntentStore::with_base(cp_s, inv_s.packet_space.clone(), Some(inv_s.clone()));
        let (id_b, _) = store
            .install(
                None,
                "from-b",
                Some(inv_b.clone()),
                cp_b,
                inv_b.packet_space.clone(),
                &ChurnState::new(),
            )
            .unwrap();
        let b = net.topology.expect_device("B");
        let mut churn = ChurnState::new();
        churn.apply(&TopologyEvent::DeviceDown(b));
        let r = replan(&mut store, &net, &churn);
        assert_eq!(r.degraded.len(), 1, "{r:?}");
        assert_eq!(r.degraded[0].0, id_b);
        assert!(store.get(id_b).unwrap().is_degraded());
        assert_eq!(store.degraded_count(), 1);
        // The degraded slice owns nothing in the rebuilt table.
        assert!(store.nodes.values().all(|n| !n.owners.contains(&id_b.0)));
        // The base intent still verifies (S→A→W→D survives B's loss).
        assert!(!store.get(IntentId::BASE).unwrap().is_degraded());
        // Recovery re-plans the degraded slice back in.
        churn.apply(&TopologyEvent::DeviceUp(b));
        let r = replan(&mut store, &net, &churn);
        assert_eq!(r.revived, vec![id_b], "{r:?}");
        assert!(!store.get(id_b).unwrap().is_degraded());
        assert_eq!(store.degraded_count(), 0);
    }

    /// Parked installs land on the first fence that makes them
    /// plannable; hopeless ones are rejected after the retry cap.
    #[test]
    fn parked_intent_unparks_or_rejects() {
        let net = fig2a_network();
        let (inv_s, cp_s) = plan_for(&net, "S .* D");
        let mut store =
            IntentStore::with_base(cp_s, inv_s.packet_space.clone(), Some(inv_s.clone()));
        let (inv_a, _) = plan_for(&net, "A .* D");
        let id = store.park(None, "from-a", inv_a).unwrap();
        assert!(store.is_parked(id));
        let r = replan(&mut store, &net, &ChurnState::new());
        assert_eq!(r.unparked, vec![id], "{r:?}");
        assert!(!store.is_parked(id));
        assert!(!store.get(id).unwrap().is_degraded());
        // A never-plannable park burns its retries and is rejected.
        let (inv_b, _) = plan_for(&net, "B .* D");
        let hopeless = store.park(None, "from-b", inv_b).unwrap();
        let b = net.topology.expect_device("B");
        let mut churn = ChurnState::new();
        churn.apply(&TopologyEvent::DeviceDown(b));
        for round in 1..=MAX_INTENT_RETRIES {
            let r = replan(&mut store, &net, &churn);
            if round < MAX_INTENT_RETRIES {
                assert!(store.is_parked(hopeless), "round {round}: {r:?}");
                assert!(r.rejected.is_empty());
            } else {
                assert!(!store.is_parked(hopeless));
                assert_eq!(r.rejected.len(), 1);
                assert_eq!(r.rejected[0].0, hopeless);
            }
        }
        assert!(store.get(hopeless).is_none(), "rejected, never installed");
    }

    /// Satellite regression: `remove` during an in-flight fence drains
    /// the pending-queue entry instead of returning `Unsupported`.
    #[test]
    fn remove_drains_parked_entry() {
        let net = fig2a_network();
        let (inv_s, cp_s) = plan_for(&net, "S .* D");
        let mut store =
            IntentStore::with_base(cp_s, inv_s.packet_space.clone(), Some(inv_s.clone()));
        let (inv_a, _) = plan_for(&net, "A .* D");
        let id = store.park(None, "from-a", inv_a).unwrap();
        let delta = store.remove(id).expect("drain, not Unsupported");
        assert!(delta.changed.is_empty() && delta.removed.is_empty());
        assert_eq!(store.parked_count(), 0);
        // The drained park never resurrects on the next fence.
        let r = replan(&mut store, &net, &ChurnState::new());
        assert!(r.unparked.is_empty());
        assert!(store.get(id).is_none());
    }

    /// Removing a degraded intent is a pure bookkeeping drop (it owns
    /// no nodes), and the store stays consistent afterwards.
    #[test]
    fn remove_degraded_intent_is_clean() {
        let net = fig2a_network();
        let (inv_s, cp_s) = plan_for(&net, "S .* D");
        let (inv_b, cp_b) = plan_for(&net, "B .* D");
        let mut store =
            IntentStore::with_base(cp_s, inv_s.packet_space.clone(), Some(inv_s.clone()));
        let (id_b, _) = store
            .install(
                None,
                "from-b",
                Some(inv_b.clone()),
                cp_b,
                inv_b.packet_space.clone(),
                &ChurnState::new(),
            )
            .unwrap();
        let b = net.topology.expect_device("B");
        let mut churn = ChurnState::new();
        churn.apply(&TopologyEvent::DeviceDown(b));
        replan(&mut store, &net, &churn);
        assert!(store.get(id_b).unwrap().is_degraded());
        let delta = store.remove(id_b).unwrap();
        assert!(delta.changed.is_empty() && delta.removed.is_empty());
        assert!(store.get(id_b).is_none());
        replan(&mut store, &net, &churn);
        assert_eq!(
            store.live().map(|i| i.id).collect::<Vec<_>>(),
            [IntentId::BASE]
        );
    }
}
