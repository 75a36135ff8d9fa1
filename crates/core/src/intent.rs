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
//! * **In place** — every change to the table is one re-intern of the
//!   slices that changed ([`Table::refit`]: install, revive, unpark and
//!   re-plan take a plan, remove and degrade give one up), against the
//!   live table where their old nodes still sit. A slice whose plan did
//!   not change is not read, and only the nodes the re-intern wrote are
//!   diffed, so a fence costs what it changed, not the table's size.
//!
//! * **Scenes** — the store keeps *scene tables*: for each plan key
//!   (an invariant without its name, see [`SceneTable`]) the plans, or
//!   planner refusals, of the topology scenes it has been planned on,
//!   keyed by [`ChurnState`]. They are §6's scene-labelled
//!   fault-tolerant plan filled lazily, one scene at a time, and the
//!   only way a plan reaches the store: an install, a re-plan and a
//!   parked retry all ask [`SceneTable::answer`], which runs the one
//!   re-planner ([`plan_intent_on`]) only for a scene the key has never
//!   seen. The second half of every link flap returns to a scene
//!   already planned, a re-installed invariant or a second intent with
//!   the same one finds the scenes the first planned, and each costs a
//!   pointer copy instead of a planner run; a link failure a slice is
//!   outside of keeps the slice's plan without one ([`Cut`]). A table
//!   belongs to its key, not to an intent: it outlives the intents that
//!   filled it.
//!
//! Soundness of sharing: a node's counting results depend only on its
//! downstream cone (accept flags + structure), its device's FIB, and
//! its base packet space. The interning key covers all three — the
//! packet-space *context* is part of the key, so nodes of intents with
//! different packet spaces never merge — hence a shared node computes
//! exactly what each owning intent's standalone plan would.

use crate::churn::ChurnState;
use crate::control::SHARD;
use crate::count::ReduceMode;
use crate::dpvnet::NodeId;
use crate::fault::{link_pair, LinkPair};
use crate::planner::{CountingPlan, NodeTask, PlanError, PlanKind, Planner};
use crate::spec::{Invariant, PacketSpace};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tulkun_netmodel::topology::Topology;
use tulkun_netmodel::DeviceId;
use tulkun_telemetry::{Telemetry, INTENT_REFIT, PLANNER_PLAN};

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

/// Scenes one table remembers at most; the least recently used goes
/// first. A constant, like the BDD memo's bound: a table serves the
/// handful of scenes a flapping network keeps returning to, so its
/// size follows from what recurs, not from a deployment.
pub(crate) const MAX_SCENES: usize = 32;

/// Tables the store keeps at most besides those of the invariants it
/// holds (live and parked intents, and the base invariant of the last
/// re-plan); the least recently used goes first. A constant for the
/// reason [`MAX_SCENES`] is: the tables of retired invariants serve the
/// handful an operator keeps rotating back in.
pub(crate) const MAX_TABLES: usize = 32;

/// One intent's slice as the store holds it: the plan and, worked
/// out once where the plan enters the store, how its tasks are
/// interned — a function of the plan alone that every re-intern on
/// the scene would otherwise recompute.
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    plan: Arc<CountingPlan>,
    /// `(index into plan.tasks, occurrence)`, children first: an
    /// iterative DFS post-order from every node in ascending id, along
    /// downstream edges (deterministic, so replicas mint the same ids).
    /// The occurrence counts the tasks before this one in that order
    /// with the same device, accept vector and children; a slice maps
    /// distinct local nodes to distinct ids, so local children are
    /// equal exactly when global ones are, and it numbers a
    /// structurally identical duplicate (a [`SigKey`] field) before any
    /// child has an id.
    order: Arc<[(u32, u32)]>,
}

impl Slice {
    pub(crate) fn of(plan: Arc<CountingPlan>) -> Slice {
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
        let mut seen: BTreeMap<(DeviceId, &[bool], Vec<NodeId>), u32> = BTreeMap::new();
        let order = order.into_iter().map(|i| {
            let t = &plan.tasks[i as usize];
            let mut children: Vec<NodeId> = t.downstream.iter().map(|(c, _)| *c).collect();
            children.sort();
            children.dedup();
            let o = seen.entry((t.dev, &t.accept, children)).or_insert(0);
            *o += 1;
            (i, *o - 1)
        });
        let order = order.collect();
        Slice { plan, order }
    }
}

/// What planning one invariant on one scene gave: its slice, or why
/// the scene cannot host it.
type Planned = Result<Slice, PlanError>;

/// Whether `a` and `b` are one plan key: whether every field the
/// planner may read of an invariant is equal — all but the diagnostic
/// name. The destructuring names every field, so a field added to
/// [`Invariant`] does not compile until it is ruled in or out here.
fn same_plan_key(a: &Invariant, b: &Invariant) -> bool {
    let Invariant {
        name: _,
        packet_space,
        ingress,
        behavior,
        fault_scenes,
    } = a;
    packet_space == &b.packet_space
        && ingress == &b.ingress
        && behavior == &b.behavior
        && fault_scenes == &b.fault_scenes
}

/// One plan key's plans by scene — §6's fault-tolerant DPVNet, learned
/// one scene at a time instead of precomputed from an operator's scene
/// list. The key is an invariant without its name ([`same_plan_key`])
/// and a scene the cumulative [`ChurnState`] (down links and down
/// devices). Together they are complete because the only other thing
/// a plan depends on, the control plane's base topology, is fixed for
/// the store's lifetime: the control plane refuses a topology event
/// that names another. An entry is what the re-planner gives on its
/// scene, whether a planner run put it there or a [`Cut`] showed the
/// run would return the plan already in force. Refusals are remembered
/// too: a scene that degrades an intent degrades it again, and refuses
/// or parks an install of it, without a planner run. Every intent with
/// the key reads and fills the one table, which outlives them all
/// ([`MAX_TABLES`]).
#[derive(Debug, Clone)]
struct SceneTable {
    /// The plan key.
    key: Invariant,
    /// Most recently used first.
    seen: Vec<(ChurnState, Planned)>,
    /// What the planner reads for the key, once a [`Cut`] asked.
    reads: Option<Reads>,
}

impl SceneTable {
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

    /// What `inv`, of this table's key, gives on `scene`, whose
    /// effective topology is `topology`: the table's entry if it has
    /// one; else `kept`, a live slice's plan, if its link-down check
    /// shows a planner run would return it ([`Cut`]); else what
    /// [`plan_intent_on`] gives. The answer is remembered, and `work`
    /// counts which of the three it was.
    fn answer(
        &mut self,
        inv: &Invariant,
        topology: &Topology,
        scene: &ChurnState,
        kept: Option<(Slice, &mut CutCheck)>,
        work: &mut PlanWork,
    ) -> Planned {
        if let Some(hit) = self.get(scene) {
            work.table_hits += 1;
            return hit;
        }
        let kept = kept.and_then(|(slice, cut)| {
            let keeps = cut.keeps(&slice.plan, &mut self.reads, inv);
            keeps.then_some(slice)
        });
        let planned = match kept {
            Some(slice) => {
                work.unaffected += 1;
                Ok(slice)
            }
            None => work.plan(topology, inv, scene),
        };
        self.record(scene, planned.clone());
        planned
    }
}

/// The store's scene tables, most recently used first.
#[derive(Debug, Clone, Default)]
struct SceneTables(Vec<SceneTable>);

impl SceneTables {
    /// The table of `inv`'s plan key, opened empty if there is none;
    /// looking it up is a use.
    fn of(&mut self, inv: &Invariant) -> &mut SceneTable {
        let at = self.0.iter().position(|t| same_plan_key(&t.key, inv));
        let at = at.unwrap_or_else(|| {
            let key = Invariant {
                name: String::new(),
                ..inv.clone()
            };
            self.0.push(SceneTable {
                key,
                seen: Vec::new(),
                reads: None,
            });
            self.0.len() - 1
        });
        self.0[..=at].rotate_right(1);
        &mut self.0[0]
    }

    /// Drops the least recently used tables beyond [`MAX_TABLES`] whose
    /// key none of `held` has.
    fn trim(&mut self, held: &[&Invariant]) {
        if self.0.len() <= MAX_TABLES {
            return;
        }
        let mut free = 0;
        self.0.retain(|t| {
            let kept = held.iter().any(|inv| same_plan_key(&t.key, inv));
            free += usize::from(!kept);
            kept || free <= MAX_TABLES
        });
    }
}

/// Planning work done on the live path: planner runs and the plans
/// that needed none, for the control plane's counters. Every planner
/// run ([`PLANNER_PLAN`]) and every re-intern ([`INTENT_REFIT`]) is
/// timed on the control plane's telemetry under the decision's trace.
#[derive(Debug, Clone)]
pub struct PlanWork {
    tel: Arc<Telemetry>,
    trace: u64,
    /// Planner runs ([`plan_intent_on`]).
    pub planner_calls: u64,
    /// Plans answered from a scene table.
    pub table_hits: u64,
    /// Slices that kept their plan across a link-down they are outside
    /// of ([`Cut`]).
    pub unaffected: u64,
}

impl PlanWork {
    /// No work yet, for the decision traced as `trace`.
    pub(crate) fn new(tel: &Arc<Telemetry>, trace: u64) -> PlanWork {
        PlanWork {
            tel: Arc::clone(tel),
            trace,
            planner_calls: 0,
            table_hits: 0,
            unaffected: 0,
        }
    }

    /// One planner run, as a slice.
    fn plan(&mut self, topology: &Topology, inv: &Invariant, scene: &ChurnState) -> Planned {
        self.planner_calls += 1;
        let run = || plan_intent_on(topology, inv, scene);
        let planned = self.tel.timed(SHARD, &PLANNER_PLAN, self.trace, 0, run);
        planned.map(|cp| Slice::of(Arc::new(cp)))
    }

    /// One [`Table::refit`]; none when no slice changed.
    fn refit(&self, table: &mut Table, refits: &[Refit]) -> Refitted {
        if refits.is_empty() {
            return Refitted::default();
        }
        let refit = || table.refit(refits);
        self.tel.timed(SHARD, &INTENT_REFIT, self.trace, 0, refit)
    }
}

/// A link-down as a re-plan may read it: the failed link and the
/// effective topology the plans in force were made on, with the link
/// still up. The caller passes one only for a `LinkDown` that adds that
/// one link to the scene in force, on the base topology the scene
/// tables answer for.
///
/// A live slice — not degraded and carrying its invariant, so its plan
/// is what the re-planner gave on the scene in force — keeps its plan
/// without a planner run when no DPVNet edge of it runs over the link
/// and the link moves no distance the planner reads for it ([`Reads`]).
/// That is exact: every valid path of the plan survives the cut and the
/// cut adds none, each path's length filters and the enumeration bound
/// compare the same distances, and the enumeration walks the surviving
/// neighbours in the same order — so a planner run would return the
/// plan already in force.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut<'a> {
    /// The failed link.
    pub link: LinkPair,
    /// The effective topology before it failed.
    pub before: &'a Topology,
}

/// What the planner reads of a topology for one plan key besides the
/// links of its valid paths: the distance from each ingress to each
/// destination device of its path expressions (length filters and the
/// enumeration bound), and on the `(device, slack)` fast path every
/// device's distance from the destination (the DAG's node labels). The
/// devices are a function of the invariant and the device names, which
/// churn leaves alone, so they are worked out once per scene table.
#[derive(Debug, Clone)]
struct Reads {
    ingress: Vec<DeviceId>,
    dests: Vec<DeviceId>,
    slack_dst: Option<DeviceId>,
}

impl Reads {
    fn of(topo: &Topology, inv: &Invariant) -> Reads {
        let planner = Planner::new(topo);
        let exprs = inv.behavior.path_exprs().into_iter();
        let mut dests: Vec<DeviceId> = exprs
            .flat_map(|pe| planner.destination_devices(&pe.regex))
            .collect();
        dests.sort();
        dests.dedup();
        Reads {
            ingress: inv.ingress.iter().filter_map(|n| topo.device(n)).collect(),
            dests,
            slack_dst: planner.slack_destination(inv),
        }
    }
}

/// One re-plan's [`Cut`] with the topology after it, and the BFS
/// distances read so far, before and after, by source device.
struct CutCheck<'a> {
    cut: Cut<'a>,
    after: &'a Topology,
    hops: BTreeMap<DeviceId, [Vec<u32>; 2]>,
}

impl CutCheck<'_> {
    /// Whether `plan`, what the re-planner gave `inv` on the scene
    /// before the cut, is what it gives on the scene after (see
    /// [`Cut`]). `reads` is the key's, worked out here on first use.
    fn keeps(&mut self, plan: &CountingPlan, reads: &mut Option<Reads>, inv: &Invariant) -> bool {
        let reads = &*reads.get_or_insert_with(|| Reads::of(self.cut.before, inv));
        let link = self.cut.link;
        let crosses = |t: &NodeTask| {
            t.downstream
                .iter()
                .any(|(_, d)| link_pair(t.dev, *d) == link)
        };
        if plan.tasks.iter().any(crosses) {
            return false;
        }
        let dests = &reads.dests;
        if !reads.ingress.iter().all(|i| self.unmoved(*i, dests)) {
            return false;
        }
        reads.slack_dst.is_none_or(|d| {
            let devices: Vec<DeviceId> = plan.tasks.iter().map(|t| t.dev).collect();
            self.unmoved(d, &devices)
        })
    }

    /// Whether the cut leaves the distance from `from` to every device
    /// of `to` as it was.
    fn unmoved(&mut self, from: DeviceId, to: &[DeviceId]) -> bool {
        let (before, after) = (self.cut.before, self.after);
        let [was, is] = self
            .hops
            .entry(from)
            .or_insert_with(|| [before.bfs_hops(from, &[]), after.bfs_hops(from, &[])]);
        to.iter().all(|d| was[d.idx()] == is[d.idx()])
    }
}

/// One installed intent: its own counting plan (intent-local node ids)
/// plus the mapping onto the store's global node table.
#[derive(Debug, Clone)]
pub struct InstalledIntent {
    /// The intent's id.
    pub id: IntentId,
    /// Human-readable name (daemon protocol, status lines).
    pub name: String,
    /// The invariant. Only the base intent is without one, until its
    /// first re-plan records the base invariant the topology event
    /// named ([`IntentStore::replan_all_for_churn`]).
    pub invariant: Option<Invariant>,
    /// The intent's counting plan on the scene in force, in
    /// intent-local node ids — exactly what a standalone session for
    /// this invariant would run. Shared with its key's scene table
    /// (and, for the base intent, the control plane): a churn fence
    /// that returns to a remembered scene swaps the pointer.
    pub plan: Arc<CountingPlan>,
    /// Intent-local node id (as index) → global node id.
    pub to_global: Vec<NodeId>,
    /// `plan`'s interning order ([`Slice::order`]).
    order: Arc<[(u32, u32)]>,
    ctx: usize,
    degraded: bool,
}

impl InstalledIntent {
    /// An intent entering the store with `slice`.
    fn new(
        id: IntentId,
        name: String,
        invariant: Option<Invariant>,
        slice: Slice,
        to_global: Vec<NodeId>,
        ctx: usize,
    ) -> InstalledIntent {
        InstalledIntent {
            id,
            name,
            invariant,
            plan: slice.plan,
            order: slice.order,
            to_global,
            ctx,
            degraded: false,
        }
    }

    fn slice(&self) -> Slice {
        Slice {
            plan: Arc::clone(&self.plan),
            order: Arc::clone(&self.order),
        }
    }

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
}

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

impl SigKey {
    /// The key of task `t` of a slice in context `ctx`, once every
    /// child has an id in `map` (local id as index); `None` before.
    fn of(ctx: usize, t: &NodeTask, occurrence: u32, map: &[Option<NodeId>]) -> Option<SigKey> {
        let mut children = Vec::with_capacity(t.downstream.len());
        for (c, d) in &t.downstream {
            children.push((map[c.idx()]?, *d));
        }
        children.sort();
        children.dedup();
        Some(SigKey {
            ctx,
            dev: t.dev,
            accept: t.accept.clone(),
            children,
            occurrence,
        })
    }
}

/// One node of the global table, refcounted by owning intents.
#[derive(Debug, Clone)]
struct GlobalNode {
    dev: DeviceId,
    accept: Vec<bool>,
    /// Downstream edges (global child ids) — part of the node's
    /// hash-consed identity. A re-plan may hand the id to the node that
    /// takes this one's place, with other edges.
    downstream: Vec<(NodeId, DeviceId)>,
    /// Upstream edges → the intents contributing each. An edge dies
    /// when its last contributor is removed.
    upstream: BTreeMap<(NodeId, DeviceId), BTreeSet<u64>>,
    /// Intents that installed this node.
    owners: BTreeSet<u64>,
    key: SigKey,
}

/// The global node table: the nodes, the hash-consing index over their
/// keys, and the next id to mint.
#[derive(Debug, Clone, Default)]
struct Table {
    nodes: BTreeMap<NodeId, GlobalNode>,
    intern: BTreeMap<SigKey, NodeId>,
    /// Only grows: an id that left the table is never minted again.
    next_node: u32,
}

/// One slice's part in a [`Table::refit`].
struct Refit<'a> {
    intent: u64,
    ctx: usize,
    /// The slice's map onto the table; `None` when it owns nothing (an
    /// install, a revive, an unpark).
    old: Option<&'a [NodeId]>,
    /// The slice it takes; `None` when it gives its nodes up (a
    /// removal, a degradation).
    new: Option<&'a Slice>,
}

/// The working state of one [`Table::refit`].
#[derive(Default)]
struct Refitting {
    /// The intents whose slices the refit names.
    changing: BTreeSet<u64>,
    /// Per refit, what pass 1 found: each new node's exact match.
    exact: Vec<Vec<Option<NodeId>>>,
    /// Old id → the (refit, local node) pairs that expect it.
    expected: BTreeMap<NodeId, Vec<(usize, usize)>>,
    /// Ids pass 2 has given to a node.
    claimed: BTreeSet<NodeId>,
    /// Every node written, with its task before (`None`: minted).
    written: BTreeMap<NodeId, Option<NodeTask>>,
}

/// What a [`Table::refit`] changed on the devices.
#[derive(Default)]
struct Refitted {
    /// Per refit, in order: the new slice's local → global map (empty
    /// for a withdrawal).
    maps: Vec<Vec<NodeId>>,
    /// Per device, in id order: every node written whose task changed,
    /// with `Some(ctx)` when it is new to the table.
    shipped: BTreeMap<DeviceId, Vec<(Option<usize>, NodeTask)>>,
    /// Per device, in id order: the nodes that left the table.
    removed: BTreeMap<DeviceId, Vec<NodeId>>,
}

impl Table {
    /// The current [`NodeTask`] of one global node (global ids, sorted
    /// edges).
    fn task(&self, g: NodeId) -> NodeTask {
        let node = &self.nodes[&g];
        NodeTask {
            node: g,
            dev: node.dev,
            downstream: node.downstream.clone(),
            upstream: node.upstream.keys().copied().collect(),
            accept: node.accept.clone(),
        }
    }

    /// Remembers `g`'s task before its first write.
    fn note(&self, written: &mut BTreeMap<NodeId, Option<NodeTask>>, g: NodeId) {
        if self.nodes.contains_key(&g) {
            written.entry(g).or_insert_with(|| Some(self.task(g)));
        }
    }

    /// Re-interns the slices that changed, in place, in three passes
    /// over `refits` (in order), and reports what the devices must
    /// apply. Slices not named are not read: their nodes keep id, key
    /// and task.
    ///
    /// 1. Each new plan is hash-consed children-first against the table
    ///    as it stands, writing nothing, to learn which old node each of
    ///    its nodes *expects*: the one whose key it matches exactly, its
    ///    whole cone below unchanged.
    /// 2. A slice at a time, its plan gets ids children-first. A node
    ///    whose key is in the table is that node (it may share one an
    ///    earlier slice just wrote); one that matches nothing inherits
    ///    an id ([`Table::heir`]) or mints one. An heir never takes a
    ///    node a later slice expects, and takes one a later node of its
    ///    own slice expects only when that is the cheaper of the two: a
    ///    node that merged with its twin when a link went down and
    ///    splits from it when the link comes back keeps the twin's id
    ///    with whichever of the two has more parents, so fewer parents
    ///    re-point (the id with the heir re-keys one node more, hence
    ///    a margin of one). A node that is written gets its new key and
    ///    downstream edges.
    /// 3. Each slice's ownership and upstream-edge contributions are
    ///    diffed, old against new, and only the differences written. A
    ///    node no slice owns any more leaves the table.
    ///
    /// Only the nodes written are diffed for the devices.
    fn refit(&mut self, refits: &[Refit]) -> Refitted {
        let mut work = Refitting {
            changing: refits.iter().map(|r| r.intent).collect(),
            ..Refitting::default()
        };
        for (k, r) in refits.iter().enumerate() {
            let exact = r.new.map(|s| self.exact(r.ctx, s)).unwrap_or_default();
            for (n, g) in exact.iter().enumerate() {
                if let Some(g) = g {
                    work.expected.entry(*g).or_default().push((k, n));
                }
            }
            work.exact.push(exact);
        }
        let mut maps: Vec<Vec<NodeId>> = Vec::with_capacity(refits.len());
        for (k, r) in refits.iter().enumerate() {
            let map = r.new.map(|slice| self.place(k, r, slice, &mut work));
            maps.push(map.unwrap_or_default());
        }
        let Refitting { mut written, .. } = work;
        let mut released: BTreeSet<NodeId> = BTreeSet::new();
        for (r, map) in refits.iter().zip(&maps) {
            self.transfer(r, map, &mut released, &mut written);
        }
        for g in released {
            if self.nodes.get(&g).is_some_and(|n| n.owners.is_empty()) {
                self.note(&mut written, g);
                if let Some(node) = self.nodes.remove(&g) {
                    self.intern.remove(&node.key);
                }
            }
        }
        let mut done = Refitted {
            maps,
            shipped: BTreeMap::new(),
            removed: BTreeMap::new(),
        };
        for (g, before) in written {
            match (self.nodes.get(&g), before) {
                (Some(node), before) => {
                    let now = self.task(g);
                    if before.as_ref() != Some(&now) {
                        let fresh = before.is_none().then_some(node.key.ctx);
                        done.shipped.entry(node.dev).or_default().push((fresh, now));
                    }
                }
                (None, Some(old)) => done.removed.entry(old.dev).or_default().push(g),
                // Pass 3 gives every node written in pass 2 an owner.
                (None, None) => {}
            }
        }
        done
    }

    /// Pass 1 of [`Table::refit`]: the id of every node of `slice` whose
    /// key is in the table as it stands.
    fn exact(&self, ctx: usize, slice: &Slice) -> Vec<Option<NodeId>> {
        let tasks = &slice.plan.tasks;
        let mut map = vec![None; tasks.len()];
        for &(i, occurrence) in slice.order.iter() {
            let t = &tasks[i as usize];
            if let Some(key) = SigKey::of(ctx, t, occurrence, &map) {
                map[t.node.idx()] = self.intern.get(&key).copied();
            }
        }
        map
    }

    /// Pass 2 of [`Table::refit`] for refit `k`, `r`, which takes
    /// `slice`: its local → global map.
    fn place(&mut self, k: usize, r: &Refit, slice: &Slice, work: &mut Refitting) -> Vec<NodeId> {
        let tasks = &slice.plan.tasks;
        // The slice's old nodes, by device: where its heirs come from.
        let mut mine: BTreeMap<DeviceId, Vec<NodeId>> = BTreeMap::new();
        for g in r.old.into_iter().flatten() {
            if let Some(node) = self.nodes.get(g) {
                mine.entry(node.dev).or_default().push(*g);
            }
        }
        let mut map: Vec<Option<NodeId>> = vec![None; tasks.len()];
        for &(i, occurrence) in slice.order.iter() {
            let t = &tasks[i as usize];
            // A node whose children kept the ids pass 1 found them under
            // is the node pass 1 found, unless an heir has taken it since
            // (an id written here is an heir's or new).
            let exact = &work.exact[k];
            let kept = |(c, _): &(NodeId, DeviceId)| map[c.idx()] == exact[c.idx()];
            if let Some(g) = exact[t.node.idx()] {
                if !work.written.contains_key(&g) && t.downstream.iter().all(kept) {
                    work.claimed.insert(g);
                    map[t.node.idx()] = Some(g);
                    continue;
                }
            }
            // Children come first in the order: each has its id.
            let Some(key) = SigKey::of(r.ctx, t, occurrence, &map) else {
                continue;
            };
            let g = match self.intern.get(&key) {
                Some(g) => *g,
                None => {
                    // An old node a later slice expects stays with it; one
                    // that a later node `n` of this slice expects goes to
                    // `t` only if `t` has two parents more than `n`.
                    let parents = |n: usize| tasks[n].upstream.len();
                    let yields = |(by, n): (usize, usize)| {
                        by < k
                            || (by == k && (map[n].is_some() || parents(n) + 1 < t.upstream.len()))
                    };
                    let free = |g: &&NodeId| {
                        let expects = work.expected.get(*g).into_iter().flatten();
                        !work.claimed.contains(*g) && expects.copied().all(yields)
                    };
                    let mine = mine.get(&key.dev).into_iter().flatten().filter(free);
                    match self.heir(&key, r.intent, mine.copied(), &work.changing) {
                        Some(g) => {
                            self.note(&mut work.written, g);
                            self.rekey(g, key);
                            g
                        }
                        None => {
                            let g = self.mint(key);
                            work.written.insert(g, None);
                            g
                        }
                    }
                }
            };
            work.claimed.insert(g);
            map[t.node.idx()] = Some(g);
        }
        // Every node got an id: a DPVNet is acyclic.
        map.into_iter()
            .map(|g| g.unwrap_or(NodeId(u32::MAX)))
            .collect()
    }

    /// The id `intent`'s node `key`, which matches no key in the table,
    /// inherits from `candidates`, its slice's old nodes on the key's
    /// device that are still free: one at the key's site (context,
    /// device, accept vector) that only slices in `changing` own — each
    /// of which lets go of it or re-keys it in this refit, so no slice
    /// left alone loses a node. Of those, the one sharing the most
    /// downstream edges with `key`, the lowest id on ties; `None` when
    /// there is none.
    fn heir(
        &self,
        key: &SigKey,
        intent: u64,
        candidates: impl Iterator<Item = NodeId>,
        changing: &BTreeSet<u64>,
    ) -> Option<NodeId> {
        let site =
            |n: &GlobalNode| (n.key.ctx, n.dev, &n.accept) == (key.ctx, key.dev, &key.accept);
        candidates
            .filter_map(|g| self.nodes.get(&g).map(|n| (g, n)))
            .filter(|(_, n)| site(n) && n.owners.contains(&intent) && n.owners.is_subset(changing))
            .max_by_key(|(g, n)| {
                let shared = n
                    .downstream
                    .iter()
                    .filter(|e| key.children.binary_search(e).is_ok());
                (shared.count(), Reverse(*g))
            })
            .map(|(g, _)| g)
    }

    /// Hands `g` to the node `key`: new key, new downstream edges.
    fn rekey(&mut self, g: NodeId, key: SigKey) {
        let Some(node) = self.nodes.get_mut(&g) else {
            return;
        };
        self.intern.remove(&node.key);
        self.intern.insert(key.clone(), g);
        node.downstream = key.children.clone();
        node.key = key;
    }

    /// A new node `key`, under a new id; owners and upstream edges come
    /// with pass 3.
    fn mint(&mut self, key: SigKey) -> NodeId {
        let g = NodeId(self.next_node);
        self.next_node += 1;
        self.intern.insert(key.clone(), g);
        let node = GlobalNode {
            dev: key.dev,
            accept: key.accept.clone(),
            downstream: key.children.clone(),
            upstream: BTreeMap::new(),
            owners: BTreeSet::new(),
            key,
        };
        self.nodes.insert(g, node);
        g
    }

    /// Pass 3 of [`Table::refit`] for one slice: moves its ownership and
    /// upstream-edge contributions from its old map to `map`, writing
    /// only what differs. Nodes it let go of are `released`.
    ///
    /// A slice contributes, for each node it owns, that node's edges to
    /// its children, so only the nodes it took or let go of and the
    /// nodes pass 2 re-keyed can move an edge; the rest are skipped.
    fn transfer(
        &mut self,
        r: &Refit,
        map: &[NodeId],
        released: &mut BTreeSet<NodeId>,
        written: &mut BTreeMap<NodeId, Option<NodeTask>>,
    ) {
        let id = r.intent;
        let sorted = |m: &[NodeId]| {
            let mut m = m.to_vec();
            m.sort();
            m.dedup();
            m
        };
        let old = r.old.map(sorted).unwrap_or_default();
        let new = sorted(map);
        // A node's edges before this refit (its first write kept its
        // old task) and now.
        let edges = |g: &NodeId, then: bool| -> Vec<Edge> {
            let was = written.get(g).and_then(Option::as_ref).filter(|_| then);
            let Some(node) = self.nodes.get(g) else {
                return Vec::new();
            };
            let down = was.map_or(&node.downstream, |t| &t.downstream);
            down.iter().map(|(c, _)| (*c, (*g, node.dev))).collect()
        };
        let (lost, took): (Vec<NodeId>, Vec<NodeId>) = (
            only_in(&old, &new).copied().collect(),
            only_in(&new, &old).copied().collect(),
        );
        let mut gone: Vec<Edge> = lost.iter().flat_map(|g| edges(g, true)).collect();
        let mut came: Vec<Edge> = took.iter().flat_map(|g| edges(g, false)).collect();
        let kept = |g: &&NodeId| old.binary_search(g).is_ok() && new.binary_search(g).is_ok();
        for g in written.keys().filter(kept) {
            let (was, is) = (edges(g, true), edges(g, false));
            gone.extend(only_in(&was, &is));
            came.extend(only_in(&is, &was));
        }
        for g in &lost {
            if let Some(node) = self.nodes.get_mut(g) {
                node.owners.remove(&id);
            }
        }
        for g in &took {
            if let Some(node) = self.nodes.get_mut(g) {
                node.owners.insert(id);
            }
        }
        released.extend(lost);
        for (child, up) in &gone {
            let last = |n: &GlobalNode| {
                n.upstream
                    .get(up)
                    .is_some_and(|refs| refs.iter().all(|i| *i == id))
            };
            if self.nodes.get(child).is_some_and(last) {
                self.note(written, *child);
            }
            let Some(node) = self.nodes.get_mut(child) else {
                continue;
            };
            if let Some(refs) = node.upstream.get_mut(up) {
                refs.remove(&id);
                if refs.is_empty() {
                    node.upstream.remove(up);
                }
            }
        }
        for (child, up) in &came {
            if self
                .nodes
                .get(child)
                .is_some_and(|n| !n.upstream.contains_key(up))
            {
                self.note(written, *child);
            }
            if let Some(node) = self.nodes.get_mut(child) {
                node.upstream.entry(*up).or_default().insert(id);
            }
        }
    }
}

/// A child's upstream edge: the child, and the parent with its device.
type Edge = (NodeId, (NodeId, DeviceId));

/// The items of sorted `a` that sorted `b` lacks.
fn only_in<'a, T: Ord>(a: &'a [T], b: &'a [T]) -> impl Iterator<Item = &'a T> {
    a.iter().filter(|x| b.binary_search(x).is_err())
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
    /// The packet-space context new nodes count over (the installing
    /// intent's, see [`IntentStore::context_space`]); `None` for
    /// removals, which never create nodes.
    pub ctx: Option<usize>,
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
/// device (pure re-task, under the verifier's own packet space);
/// `ctx: Some(i)` means the group introduces nodes of context `i`
/// (seeded with [`IntentStore::context_space`]). Groups for
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
#[derive(Debug, Clone)]
pub struct IntentStore {
    /// The base intent's, which every other intent must share.
    profile: IntentProfile,
    contexts: Vec<PacketSpace>,
    table: Table,
    intents: BTreeMap<u64, InstalledIntent>,
    parked: BTreeMap<u64, PendingIntent>,
    next_intent: u64,
    scenes: SceneTables,
}

impl IntentStore {
    /// A store seeded with the *base* intent (id 0) under an
    /// **identity** local↔global node mapping, so a legacy single-plan
    /// substrate behaves byte-identically to before the store existed.
    /// The base intent carries no invariant until its first re-plan.
    pub fn with_base(plan: Arc<CountingPlan>, space: PacketSpace) -> IntentStore {
        let slice = Slice::of(plan);
        let tasks = &slice.plan.tasks;
        let mut table = Table::default();
        for &(i, occurrence) in slice.order.iter() {
            let t = &tasks[i as usize];
            // Identity mapping: the base intent's local ids ARE the
            // global ids.
            let children = sorted_edges(t.downstream.iter().copied());
            let key = SigKey {
                ctx: 0,
                dev: t.dev,
                accept: t.accept.clone(),
                children: children.clone(),
                occurrence,
            };
            table.intern.insert(key.clone(), t.node);
            table.nodes.insert(
                t.node,
                GlobalNode {
                    dev: t.dev,
                    accept: t.accept.clone(),
                    downstream: children,
                    upstream: BTreeMap::new(),
                    owners: BTreeSet::from([0u64]),
                    key,
                },
            );
            table.next_node = table.next_node.max(t.node.0 + 1);
        }
        for t in tasks {
            for (cl, _) in &t.downstream {
                // An edge to a node the plan has no task for has no
                // listener to register with.
                let Some(child) = table.nodes.get_mut(cl) else {
                    continue;
                };
                let edge = child.upstream.entry((t.node, t.dev)).or_default();
                edge.insert(0);
            }
        }
        let to_global: Vec<NodeId> = (0..tasks.len() as u32).map(NodeId).collect();
        let profile = IntentProfile::of(&slice.plan);
        let id = IntentId::BASE;
        let base = InstalledIntent::new(id, "base".into(), None, slice, to_global, 0);
        IntentStore {
            profile,
            contexts: vec![space],
            table,
            intents: BTreeMap::from([(0, base)]),
            parked: BTreeMap::new(),
            next_intent: 1,
            scenes: SceneTables::default(),
        }
    }

    /// What an install of `inv` gets on `scene`, the churn in force,
    /// whose effective topology is `topology`: its key's scene table
    /// answers ([`SceneTable::answer`]), so a refusal is the
    /// re-planner's.
    pub(crate) fn plan_install(
        &mut self,
        inv: &Invariant,
        topology: &Topology,
        scene: &ChurnState,
        work: &mut PlanWork,
    ) -> Result<Slice, PlanError> {
        let planned = self.scenes.of(inv).answer(inv, topology, scene, None, work);
        self.trim_tables();
        planned
    }

    /// `slice`, for the intent `name`, if its counting profile is the
    /// one every intent of this store shares ([`IntentProfile`]).
    fn fits(&self, name: &str, slice: Slice) -> Result<Slice, PlanError> {
        let (profile, runs) = (IntentProfile::of(&slice.plan), self.profile);
        if profile != runs {
            return Err(PlanError::Unsupported(format!(
                "intent {name:?} has counting profile {profile:?}, but this \
                 session runs {runs:?} (one outcome-vector shape per session)"
            )));
        }
        Ok(slice)
    }

    /// Installs an intent under the next id: interns its DPVNet slice
    /// into the global table (children-first, so sharing with existing
    /// cones is found bottom-up) and returns the per-device delta a
    /// substrate must apply under an epoch bump.
    pub(crate) fn install(
        &mut self,
        name: &str,
        invariant: Invariant,
        slice: Slice,
        work: &PlanWork,
    ) -> Result<(IntentId, IntentDelta), PlanError> {
        let slice = self.fits(name, slice)?;
        let id = self.claim_id();
        let ctx = self.context_of(&invariant.packet_space);
        let install = Refit {
            intent: id.0,
            ctx,
            old: None,
            new: Some(&slice),
        };
        let mut done = work.refit(&mut self.table, &[install]);
        let to_global = done.maps.pop().unwrap_or_default();
        // A new node or a grown upstream edge set is shipped, so the
        // child announces along the new edge; every local node either
        // created a global node or shared one.
        let (changed, fresh) = tasks_of(done.shipped);
        let delta = IntentDelta {
            changed,
            removed: done.removed,
            ctx: Some(ctx),
            total_nodes: to_global.iter().collect::<BTreeSet<_>>().len(),
            reused_nodes: to_global.len() - fresh,
        };
        let inv = Some(invariant);
        let intent = InstalledIntent::new(id, name.into(), inv, slice, to_global, ctx);
        self.intents.insert(id.0, intent);
        Ok((id, delta))
    }

    /// Removes an intent: drops its ownership refs, removes nodes no
    /// surviving intent owns, shrinks upstream edge sets, and returns
    /// the delta a substrate must apply under an epoch bump. Its key's
    /// scene table stays, for the next intent with the key.
    pub(crate) fn remove(
        &mut self,
        id: IntentId,
        work: &PlanWork,
    ) -> Result<IntentDelta, PlanError> {
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
        let withdraw = Refit {
            intent: id.0,
            ctx: intent.ctx,
            old: Some(&intent.to_global),
            new: None,
        };
        let done = work.refit(&mut self.table, &[withdraw]);
        let total_nodes = intent.global_nodes().len();
        let removed: usize = done.removed.values().map(Vec::len).sum();
        Ok(IntentDelta {
            changed: tasks_of(done.shipped).0,
            removed: done.removed,
            ctx: None,
            total_nodes,
            reused_nodes: total_nodes - removed,
        })
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
        self.table.nodes.len()
    }

    /// Every installed node's current task (global ids) — the union
    /// task table across intents, deduplicated.
    pub fn global_tasks(&self) -> Vec<NodeTask> {
        self.table
            .nodes
            .keys()
            .map(|g| self.table.task(*g))
            .collect()
    }

    /// Every installed node's current task with the packet-space
    /// context it counts over, in node order.
    pub(crate) fn tasks_in_context(&self) -> impl Iterator<Item = (usize, NodeTask)> + '_ {
        let nodes = self.table.nodes.iter();
        nodes.map(|(g, n)| (n.key.ctx, self.table.task(*g)))
    }

    /// The devices currently hosting at least one node.
    pub fn devices(&self) -> BTreeSet<DeviceId> {
        self.table.nodes.values().map(|n| n.dev).collect()
    }

    /// The id the next install or park will allocate (ids are
    /// never reused, so this only ever grows).
    pub fn next_intent_id(&self) -> u64 {
        self.next_intent
    }

    /// How many intents own the given global node (dedup evidence).
    pub fn owner_count(&self, g: NodeId) -> usize {
        self.table.nodes.get(&g).map_or(0, |n| n.owners.len())
    }

    /// Parks an install that raced a topology fence: allocates the
    /// intent's id now (so replicas agree on ids) and queues it for
    /// re-planning on the next fence (see [`PendingIntent`]).
    pub(crate) fn park(&mut self, name: &str, invariant: Invariant) -> IntentId {
        let id = self.claim_id();
        self.parked.insert(
            id.0,
            PendingIntent {
                id,
                name: name.to_string(),
                invariant,
                retries: 0,
            },
        );
        id
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

    /// The packet space of one interning context (see
    /// [`ReplanTaskGroup::ctx`]).
    pub fn context_space(&self, ctx: usize) -> &PacketSpace {
        &self.contexts[ctx]
    }

    /// Re-plans **every** live intent slice against the post-churn
    /// topology under one shared fence, re-interns in place the slices
    /// whose plan changed, retries parked installs, and returns the
    /// per-device diff plus the intent lifecycle transitions.
    ///
    /// "Re-plans" asks the scene table of each intent's plan key
    /// ([`SceneTable::answer`]; the base intent's key is `base_inv`
    /// until it carries the invariant, which this records): a scene the
    /// key has been planned on before — by this intent or another with
    /// the key, the second half of every flap, every later flap of the
    /// same link — is a pointer copy. Then, given the `cut` of a
    /// link-down, a live slice the link is outside of keeps its plan
    /// ([`Cut`]). Only what neither answers runs [`plan_intent_on`];
    /// either way the answer, slice or refusal, is remembered, and
    /// `work` counts all three. Parked installs ask the table too. A
    /// slice whose plan comes back as the pointer in force is not
    /// touched: this is the one re-planner, and it costs what changed.
    /// The caller passes the same `base` and `base_inv` on every call.
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
    /// Id stability ([`Table::refit`]): a re-interned node whose
    /// hash-consing key (context, device, accept vector, global
    /// downstream cone) is in the table is that node. By bottom-up
    /// induction a whole unchanged cone keeps its exact ids *and*
    /// tasks, so it appears in neither `changed` nor `removed`. A node
    /// whose key matches nothing — it lost or gained an edge —
    /// *inherits* the id of an old node of its own slice at the same
    /// site (context, device, accept vector) that only slices changing
    /// in this fence own and that nothing has claimed: the one sharing
    /// the most downstream edges, the lowest id on ties
    /// ([`Table::heir`]). Children are interned first, so once the
    /// changed node has its old id its parents' keys match exactly
    /// again: the renaming stops at the nodes the event touched, which
    /// are re-tasked, instead of running up to every source. Ids are
    /// names — the devices are told each node's task by id, and a
    /// re-tasked node recounts — so any assignment that gives distinct
    /// nodes distinct ids and keeps an id on its device and packet
    /// space computes the same Report; how well heirs are matched
    /// decides only how much is re-tasked. Taking heirs from the
    /// slice's own nodes keeps a degraded intent's last ids, which
    /// freshness still reports, out of other intents' slices. An id
    /// that drops out of the table is gone for good (ids are minted
    /// from a counter that only grows, and an heir is a node still in
    /// the table), so a node that reappears later is new to every
    /// neighbour.
    pub(crate) fn replan_all_for_churn(
        &mut self,
        base: &Topology,
        base_inv: &Invariant,
        churn: &ChurnState,
        cut: Option<Cut>,
        work: &mut PlanWork,
    ) -> Result<StoreReplan, PlanError> {
        let topology = churn.apply_to(base);

        // Phase 1: plan every live intent (degraded ones included, so
        // recovery revives them). Nothing but the tables is committed
        // until the base plan is known good.
        let mut cut = cut.map(|cut| CutCheck {
            cut,
            after: &topology,
            hops: BTreeMap::new(),
        });
        let mut new_plans: BTreeMap<u64, Slice> = BTreeMap::new();
        let mut degraded: Vec<(IntentId, String)> = Vec::new();
        for intent in self.intents.values() {
            let inv = intent.invariant.as_ref().unwrap_or(base_inv);
            let live = !intent.degraded && intent.invariant.is_some();
            let kept = cut.as_mut().filter(|_| live).map(|c| (intent.slice(), c));
            let table = self.scenes.of(inv);
            match table.answer(inv, &topology, churn, kept, work) {
                Ok(slice) => {
                    new_plans.insert(intent.id.0, slice);
                }
                Err(e) if intent.id == IntentId::BASE => return Err(e),
                Err(e) => degraded.push((intent.id, e.to_string())),
            }
        }

        // Phase 2: retry parked installs against the new topology.
        let mut unpark_plans: Vec<(PendingIntent, Slice)> = Vec::new();
        let mut rejected: Vec<(IntentId, String)> = Vec::new();
        let mut still_parked: BTreeMap<u64, PendingIntent> = BTreeMap::new();
        for (pid, mut p) in std::mem::take(&mut self.parked) {
            let table = self.scenes.of(&p.invariant);
            let planned = table.answer(&p.invariant, &topology, churn, None, work);
            match planned.and_then(|slice| self.fits(&p.name, slice)) {
                Ok(slice) => unpark_plans.push((p, slice)),
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

        // Phase 3: re-intern in place the slices that changed — a new
        // plan, a degradation, a revival, an unpark — and only those.
        let unpark_ctx: Vec<usize> = unpark_plans
            .iter()
            .map(|(p, _)| self.context_of(&p.invariant.packet_space))
            .collect();
        let mut refits: Vec<Refit> = Vec::new();
        for (id, it) in &self.intents {
            let old = (!it.degraded).then_some(it.to_global.as_slice());
            let new = new_plans.get(id);
            let same = match new {
                Some(s) => old.is_some() && Arc::ptr_eq(&it.plan, &s.plan),
                None => old.is_none(),
            };
            if !same {
                refits.push(Refit {
                    intent: *id,
                    ctx: it.ctx,
                    old,
                    new,
                });
            }
        }
        for ((p, slice), ctx) in unpark_plans.iter().zip(&unpark_ctx) {
            let (ctx, new) = (*ctx, Some(slice));
            refits.push(Refit {
                intent: p.id.0,
                ctx,
                old: None,
                new,
            });
        }
        let done = work.refit(&mut self.table, &refits);
        let refitted: Vec<u64> = refits.iter().map(|r| r.intent).collect();
        let mut maps: BTreeMap<u64, Vec<NodeId>> = refitted.into_iter().zip(done.maps).collect();

        let mut revived: Vec<IntentId> = Vec::new();
        for (id, it) in self.intents.iter_mut() {
            // Phase 1 planned every intent it did not degrade.
            match new_plans.remove(id) {
                None => it.degraded = true,
                Some(slice) => {
                    if let Some(map) = maps.remove(id) {
                        it.to_global = map;
                    }
                    (it.plan, it.order) = (slice.plan, slice.order);
                    if it.degraded {
                        it.degraded = false;
                        revived.push(it.id);
                    }
                }
            }
            it.invariant.get_or_insert_with(|| base_inv.clone());
        }
        let mut unparked: Vec<IntentId> = Vec::new();
        for ((p, slice), ctx) in unpark_plans.into_iter().zip(unpark_ctx) {
            let to_global = maps.remove(&p.id.0).unwrap_or_default();
            let inv = Some(p.invariant);
            let intent = InstalledIntent::new(p.id, p.name, inv, slice, to_global, ctx);
            self.intents.insert(p.id.0, intent);
            unparked.push(p.id);
        }
        self.trim_tables();

        // Phase 4: what the refit wrote, for the devices. Down devices'
        // old nodes are unreachable, not removed (the planner tasks them
        // with nothing and a later DeviceUp wipes the verifier anyway).
        let mut removed: BTreeMap<DeviceId, Vec<NodeId>> = BTreeMap::new();
        let mut unreachable: Vec<(NodeId, DeviceId)> = Vec::new();
        for (dev, gone) in done.removed {
            if churn.is_down(dev) {
                unreachable.extend(gone.into_iter().map(|g| (g, dev)));
            } else {
                removed.insert(dev, gone);
            }
        }
        let mut shipped = 0;
        let mut changed: BTreeMap<DeviceId, Vec<ReplanTaskGroup>> = BTreeMap::new();
        for (dev, tasks) in done.shipped {
            shipped += tasks.len();
            let mut groups: BTreeMap<Option<usize>, Vec<NodeTask>> = BTreeMap::new();
            for (ctx, task) in tasks {
                groups.entry(ctx).or_default().push(task);
            }
            let groups = groups.into_iter();
            let groups = groups.map(|(ctx, tasks)| ReplanTaskGroup { ctx, tasks });
            changed.insert(dev, groups.collect());
        }
        let total_nodes = self.table.nodes.len();
        Ok(StoreReplan {
            total_nodes,
            topology,
            changed,
            removed,
            unreachable,
            degraded,
            revived,
            unparked,
            rejected,
            reused_nodes: total_nodes - shipped,
        })
    }

    /// Drops the least recently used scene tables beyond
    /// [`MAX_TABLES`] whose key no live or parked intent holds.
    fn trim_tables(&mut self) {
        let live = self.intents.values().filter_map(|i| i.invariant.as_ref());
        let parked = self.parked.values().map(|p| &p.invariant);
        let held: Vec<&Invariant> = live.chain(parked).collect();
        self.scenes.trim(&held);
    }

    /// Allocates the next intent id (ids are never reused).
    fn claim_id(&mut self) -> IntentId {
        self.next_intent += 1;
        IntentId(self.next_intent - 1)
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
}

/// Plans one invariant against an effective topology from scratch,
/// returning its counting plan: the one planner of the live path, run
/// on a scene-table miss ([`SceneTable::answer`]) for an install, a
/// re-plan or a parked retry alike, and what a hit must equal. Refuses
/// a behavior with no DPVNet slice, a slice with no nodes, and a plan
/// that tasks a quarantined device (the device is down — nothing can
/// run there; e.g. an intent whose ingress is the isolated device
/// still "plans" onto it). A refusal is an `Err` for an install on a
/// quiet network, parks one under churn, and degrades a live intent.
pub fn plan_intent_on(
    topology: &Topology,
    inv: &Invariant,
    churn: &ChurnState,
) -> Result<CountingPlan, PlanError> {
    let PlanKind::Counting(cp) = Planner::new(topology).plan(inv)?.kind else {
        return Err(PlanError::Unsupported(
            "runtime intents need a counting plan (a local-contract \
             behavior has no DPVNet slice to install or re-plan)"
                .into(),
        ));
    };
    if cp.tasks.is_empty() {
        // No DPVNet node materialized (no valid path, or the ingress
        // is isolated): there is nothing to count anywhere, which would
        // report the invariant as vacuously holding. Refuse instead.
        return Err(PlanError::Unsupported(
            "slice has no DPVNet nodes on the current topology".into(),
        ));
    }
    if let Some(t) = cp.tasks.iter().find(|t| churn.is_down(t.dev)) {
        return Err(PlanError::Unsupported(format!(
            "slice tasks quarantined device d{}",
            t.dev.0
        )));
    }
    Ok(cp)
}

fn sorted_edges(it: impl Iterator<Item = (NodeId, DeviceId)>) -> Vec<(NodeId, DeviceId)> {
    let mut v: Vec<(NodeId, DeviceId)> = it.collect();
    v.sort();
    v.dedup();
    v
}

/// A refit's shipped tasks as an intent delta lists them, and how many
/// of them are new to the table.
fn tasks_of(
    shipped: BTreeMap<DeviceId, Vec<(Option<usize>, NodeTask)>>,
) -> (BTreeMap<DeviceId, Vec<NodeTask>>, usize) {
    let mut fresh = 0;
    let mut changed = BTreeMap::new();
    for (dev, tasks) in shipped {
        fresh += tasks.iter().filter(|(ctx, _)| ctx.is_some()).count();
        changed.insert(dev, tasks.into_iter().map(|(_, t)| t).collect());
    }
    (changed, fresh)
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
        let mut store = IntentStore::with_base(cp_a.clone(), inv_a.packet_space.clone());
        let before = store.node_count();
        let (id_b, delta_b) = store
            .install("b", inv_b.clone(), Slice::of(cp_b.clone()), &work())
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
        let delta_rm = store.remove(id_b, &work()).unwrap();
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
        let mut store = IntentStore::with_base(cp.clone(), inv.packet_space.clone());
        let (id, delta) = store
            .install("dup", inv.clone(), Slice::of(cp.clone()), &work())
            .unwrap();
        assert_eq!(delta.total_nodes, delta.reused_nodes, "{delta:?}");
        assert!(delta.removed.is_empty());
        let before = store.node_count();
        let delta_rm = store.remove(id, &work()).unwrap();
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
        let mut store = IntentStore::with_base(cp, inv.packet_space.clone());
        let (_, delta) = store
            .install(
                "other-space",
                other.clone(),
                Slice::of(Arc::new(ocp)),
                &work(),
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
        let mut store = IntentStore::with_base(cp, inv.packet_space.clone());
        if IntentProfile::of(&store.get(IntentId(0)).unwrap().plan) != IntentProfile::of(&ccp) {
            let err = store.install(
                "covered",
                covered.clone(),
                Slice::of(Arc::new(ccp)),
                &work(),
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
                    .table
                    .intern
                    .get(key)
                    .is_some_and(|now| now != g)
                    .then_some(*g)
            };
            self.0.iter().filter_map(moved).collect()
        }
    }

    /// No planning work yet, timed nowhere.
    pub(crate) fn work() -> PlanWork {
        PlanWork::new(&Telemetry::disabled(), 0)
    }

    impl IntentStore {
        /// Holds the scene tables to their bounds: [`MAX_SCENES`] scenes
        /// each, and [`MAX_TABLES`] besides one per invariant the store
        /// holds, the base's included.
        pub(crate) fn assert_tables_bounded(&self) {
            let SceneTables(tables) = &self.scenes;
            assert!(tables.iter().all(|t| t.seen.len() <= MAX_SCENES));
            let held = self.intents.len() + self.parked.len() + 1;
            assert!(tables.len() <= MAX_TABLES + held, "{} tables", tables.len());
        }

        pub(crate) fn names(&self) -> Names {
            let named = |(g, n): (&NodeId, &GlobalNode)| (*g, (n.key.clone(), n.owners.clone()));
            Names(self.table.nodes.iter().map(named).collect())
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
            let Table {
                nodes,
                intern,
                next_node,
            } = &self.table;
            assert_eq!(intern.len(), nodes.len(), "one key per id");
            for (key, g) in intern {
                let node = nodes.get(g).expect("an interned id is in the table");
                assert_eq!(node.key, *key, "{g:?} is filed under its own key");
                assert!(g.0 < *next_node, "{g:?} was minted");
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
                    let node = nodes.get(&g);
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
                        let heard = &nodes[c].upstream[&(g, t.dev)];
                        assert!(heard.contains(&id.0), "intent {id}: edge {g:?} -> {c:?}");
                    }
                }
            }
            let Some(Names(before)) = before else {
                return;
            };
            for (g, node) in nodes {
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

    /// One churn fence on `store`, whose base is `S .* D`, that the
    /// base slice survives.
    fn replan(store: &mut IntentStore, net: &Network, churn: &ChurnState) -> StoreReplan {
        let (mut work, base) = (work(), plan_for(net, "S .* D").0);
        let before = store.names();
        let r = store.replan_all_for_churn(&net.topology, &base, churn, None, &mut work);
        store.assert_consistent(Some(&before));
        r.unwrap()
    }

    fn two_intent_store(net: &Network) -> (IntentStore, IntentId) {
        let (inv_a, cp_a) = plan_for(net, "S .* D");
        let (inv_b, cp_b) = plan_for(net, "A .* D");
        let mut store = IntentStore::with_base(cp_a, inv_a.packet_space.clone());
        let (id_b, _) = store
            .install("b", inv_b.clone(), Slice::of(cp_b), &work())
            .unwrap();
        (store, id_b)
    }

    /// The store keeps at most [`MAX_TABLES`] scene tables besides
    /// those of the invariants it holds, and each at most
    /// [`MAX_SCENES`] scenes; the least recently used goes first, and a
    /// lookup is a use. A name is no part of a key.
    #[test]
    fn scene_tables_forget_the_least_recently_used_key_and_scene() {
        let scene = |i: usize| {
            let mut churn = ChurnState::new();
            churn.apply(&TopologyEvent::LinkDown(
                DeviceId(0),
                DeviceId(1 + i as u32),
            ));
            churn
        };
        let refusal = || Err(PlanError::Unsupported("unplannable".into()));
        let (inv, _) = plan_for(&fig2a_network(), "S .* D");
        let mut tables = SceneTables::default();
        let table = tables.of(&inv);
        for i in 0..MAX_SCENES {
            table.record(&scene(i), refusal());
        }
        assert!(table.get(&scene(0)).is_some());
        table.record(&scene(MAX_SCENES), refusal());
        assert_eq!(table.seen.len(), MAX_SCENES);
        assert!(table.get(&scene(0)).is_some(), "the hit kept scene 0");
        assert!(table.get(&scene(1)).is_none(), "scene 1 made room");
        assert!(table.get(&scene(MAX_SCENES)).is_some());

        let renamed = Invariant {
            name: "another name".into(),
            ..inv.clone()
        };
        assert!(tables.of(&renamed).get(&scene(0)).is_some());
        let keyed = |i: usize| Invariant {
            packet_space: PacketSpace::dst_prefix(&format!("10.1.{i}.0/24")),
            ..inv.clone()
        };
        for i in 0..=MAX_TABLES {
            tables.of(&keyed(i)).record(&scene(0), refusal());
        }
        tables.of(&keyed(0));
        let has = |tables: &SceneTables, inv: &Invariant| {
            tables.0.iter().any(|t| same_plan_key(&t.key, inv))
        };
        // `inv`'s table is the least recently used, but held.
        tables.trim(&[&inv]);
        assert_eq!(tables.0.len(), MAX_TABLES + 1);
        assert!(has(&tables, &inv) && has(&tables, &keyed(0)));
        assert!(!has(&tables, &keyed(1)), "keyed(1) made room");
        tables.trim(&[]);
        assert_eq!(tables.0.len(), MAX_TABLES);
        assert!(!has(&tables, &inv));
    }

    /// An install asks its key's scene table, and what the re-planner
    /// gave it — a slice on the quiet scene, a refusal under churn —
    /// answers the next install of the key: the same pointer, or the
    /// same refusal, without a planner run.
    #[test]
    fn an_install_remembers_what_the_replanner_would_give() {
        let net = fig2a_network();
        let (inv, cp) = plan_for(&net, "S .* D");
        let mut store = IntentStore::with_base(cp, inv.packet_space.clone());
        let (quiet, mut churn) = (ChurnState::new(), ChurnState::new());
        churn.apply(&TopologyEvent::DeviceDown(net.topology.expect_device("B")));
        let down = churn.apply_to(&net.topology);
        let from_b = plan_for(&net, "B .* D").0;
        let mut w = work();
        let mut install = |topology, scene| store.plan_install(&from_b, topology, scene, &mut w);
        let planned = install(&net.topology, &quiet).unwrap();
        let again = install(&net.topology, &quiet).unwrap();
        assert!(Arc::ptr_eq(&planned.plan, &again.plan));
        let refused = install(&down, &churn).unwrap_err();
        assert_eq!(install(&down, &churn).unwrap_err(), refused);
        assert_eq!((w.planner_calls, w.table_hits), (2, 2));
    }

    /// A refusal on the quiet scene is remembered like any other answer:
    /// the next install of the key gets the same refusal without a
    /// planner run, and another key is planned for itself.
    #[test]
    fn a_quiet_refusal_answers_the_next_install_of_its_key() {
        let net = fig2a_network();
        let (inv, cp) = plan_for(&net, "S .* D");
        let mut store = IntentStore::with_base(cp, inv.packet_space.clone());
        let quiet = ChurnState::new();
        let no_path = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("S D").unwrap(),
            ))
            .build()
            .unwrap();
        let mut w = work();
        let refused = store
            .plan_install(&no_path, &net.topology, &quiet, &mut w)
            .unwrap_err();
        assert!(refused.to_string().contains("slice has no DPVNet nodes"));
        let again = store.plan_install(&no_path, &net.topology, &quiet, &mut w);
        assert_eq!(again.unwrap_err(), refused);
        assert_eq!((w.planner_calls, w.table_hits), (1, 1));
        let from_b = plan_for(&net, "B .* D").0;
        assert!(store
            .plan_install(&from_b, &net.topology, &quiet, &mut w)
            .is_ok());
        assert_eq!((w.planner_calls, w.table_hits), (2, 1));
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

    /// The inheritance rule clause by clause, on a hand-made table: one
    /// rightful predecessor and, beside it, nodes that share more edges
    /// with the new key but are each off by exactly one clause —
    /// another context, device or accept vector, not the intent's own,
    /// also held by a slice that is not changing, or already claimed.
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
        let mut table = Table::default();
        let mut add = |g: u32, key: SigKey, owners: &[u64]| {
            table.intern.insert(key.clone(), NodeId(g));
            let node = GlobalNode {
                dev: key.dev,
                accept: key.accept.clone(),
                downstream: key.children.clone(),
                upstream: BTreeMap::new(),
                owners: owners.iter().copied().collect(),
                key,
            };
            table.nodes.insert(NodeId(g), node);
        };
        let (me, other, bystander) = (7, 8, 9);
        add(1, site(0, 1, false, &[x]), &[me, other]); // the predecessor: one edge lost
        add(2, site(0, 1, false, &[y]), &[me]); // ties with it on shared edges
        add(3, site(1, 1, false, &[x, y]), &[me]); // another context
        add(4, site(0, 2, false, &[x, y]), &[me]); // another device
        add(5, site(0, 1, true, &[x, y]), &[me]); // another accept vector
        add(6, site(0, 1, false, &[x, y]), &[other]); // another intent's
        add(7, site(0, 1, false, &[x, y]), &[me, bystander]); // held by a slice left alone
        let mine: Vec<NodeId> = (1..=7).map(NodeId).collect();
        let changing = BTreeSet::from([me, other]);
        let mut claimed: BTreeSet<NodeId> = BTreeSet::new();
        let new = site(0, 1, false, &[x, y, z]);
        let heir = |claimed: &BTreeSet<NodeId>| {
            let free = mine.iter().filter(|g| !claimed.contains(g));
            table.heir(&new, me, free.copied(), &changing)
        };
        assert_eq!(heir(&claimed), Some(NodeId(1)), "lowest id on ties");
        // Once claimed an id is not offered again.
        claimed.insert(NodeId(1));
        assert_eq!(heir(&claimed), Some(NodeId(2)));
        claimed.insert(NodeId(2));
        assert_eq!(heir(&claimed), None, "nothing left at this site: a new id");
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
        let mut store = IntentStore::with_base(cp, inv.packet_space.clone());
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
        let mut store = IntentStore::with_base(cp_s, inv_s.packet_space.clone());
        let (id_b, _) = store
            .install("from-b", inv_b.clone(), Slice::of(cp_b), &work())
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
        let nodes = &store.table.nodes;
        assert!(nodes.values().all(|n| !n.owners.contains(&id_b.0)));
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
        let mut store = IntentStore::with_base(cp_s, inv_s.packet_space.clone());
        let (inv_a, _) = plan_for(&net, "A .* D");
        let id = store.park("from-a", inv_a);
        assert!(store.is_parked(id));
        let r = replan(&mut store, &net, &ChurnState::new());
        assert_eq!(r.unparked, vec![id], "{r:?}");
        assert!(!store.is_parked(id));
        assert!(!store.get(id).unwrap().is_degraded());
        // A never-plannable park burns its retries and is rejected.
        let (inv_b, _) = plan_for(&net, "B .* D");
        let hopeless = store.park("from-b", inv_b);
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
        let mut store = IntentStore::with_base(cp_s, inv_s.packet_space.clone());
        let (inv_a, _) = plan_for(&net, "A .* D");
        let id = store.park("from-a", inv_a);
        let delta = store.remove(id, &work()).expect("drain, not Unsupported");
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
        let mut store = IntentStore::with_base(cp_s, inv_s.packet_space.clone());
        let (id_b, _) = store
            .install("from-b", inv_b.clone(), Slice::of(cp_b), &work())
            .unwrap();
        let b = net.topology.expect_device("B");
        let mut churn = ChurnState::new();
        churn.apply(&TopologyEvent::DeviceDown(b));
        replan(&mut store, &net, &churn);
        assert!(store.get(id_b).unwrap().is_degraded());
        let delta = store.remove(id_b, &work()).unwrap();
        assert!(delta.changed.is_empty() && delta.removed.is_empty());
        assert!(store.get(id_b).is_none());
        replan(&mut store, &net, &churn);
        assert_eq!(
            store.live().map(|i| i.id).collect::<Vec<_>>(),
            [IntentId::BASE]
        );
    }
}
