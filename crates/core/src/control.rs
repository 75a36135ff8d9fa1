//! The control plane: one owner of the intent/churn lifecycle.
//!
//! The paper splits the system into a planner that decides *what* each
//! device must count and on-device verifiers that only execute tasks
//! and exchange results. [`ControlPlane`] is the planner side at
//! runtime: it owns the [`IntentStore`], the cumulative [`ChurnState`],
//! the epoch counter and every journal record and gauge of the
//! plan → park/degrade → fence lifecycle, and maps a topology event, an
//! intent install or an intent removal to a [`Decision`] — usually a
//! [`FencePlan`] holding one [`DeviceFence`] per device — and a crash
//! restart to the restarted device's share ([`ControlPlane::restart`]). It never
//! touches a verifier or a message: a substrate (`Session`, `Engine`,
//! `ThreadedEngine`) delivers each `DeviceFence` its own way through
//! [`DeviceVerifier::apply_fence`] and drives to quiescence.
//!
//! Every entry point is transactional: an `Err` leaves the control
//! plane exactly as it was before the call, as far as anything can
//! observe (a scene table may have learned what a scene gives — see
//! [`IntentStore::replan_all_for_churn`]).
//!
//! [`DeviceVerifier::apply_fence`]: crate::dvm::DeviceVerifier::apply_fence

use crate::churn::{ChurnState, TopologyEvent};
use crate::dpvnet::NodeId;
use crate::event::EventOutcome;
use crate::fault::link_pair;
use crate::intent::{
    Cut, IntentDelta, IntentId, IntentStore, PlanWork, StoreReplan, MAX_INTENT_RETRIES,
};
use crate::planner::{CountingPlan, NodeTask, PlanError};
use crate::spec::{Invariant, PacketSpace};
use crate::verify::{compile_packet_space, Freshness, Report};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tulkun_bdd::serial::PortablePred;
use tulkun_bdd::HeaderLayout;
use tulkun_netmodel::topology::Topology;
use tulkun_netmodel::DeviceId;
use tulkun_telemetry::{JournalKind, Telemetry};

/// The journal cause of an intent fence.
const INTENT: &str = "intent churn";

/// The device an intent fence is journaled under: the first one whose
/// tasks change, else the first that drops a node.
fn first_touched(delta: &IntentDelta) -> DeviceId {
    let mut touched = delta.changed.keys().chain(delta.removed.keys());
    touched.next().copied().unwrap_or(DeviceId(0))
}

/// One device's share of an epoch fence, applied atomically by
/// [`DeviceVerifier::apply_fence`](crate::dvm::DeviceVerifier::apply_fence):
/// move to the new epoch, drop `remove`, apply `tasks` in order, then
/// repair if `reannounce`. A verifier hosts exactly its device's share
/// of [`ControlPlane::hosted`], and fences are the only thing that
/// changes it: one built from nothing applies that share, a device
/// that goes down has all its nodes removed, and one that comes back
/// has its nodes created again.
#[derive(Debug, Clone, Default)]
pub struct DeviceFence {
    /// Nodes no longer assigned here.
    pub remove: Vec<NodeId>,
    /// Tasks to apply, in order. A task that creates a node carries the
    /// compiled packet space the node counts over (its base); one that
    /// re-tasks a hosted node carries `None`, and the node keeps its
    /// base.
    pub tasks: Vec<(Option<PortablePred>, NodeTask)>,
    /// Run the repair wave afterwards: the substrate's fence discarded
    /// in-flight state. Planned `true` for every device;
    /// [`ControlPlane::seal`] clears it when the substrate reports that
    /// nothing was lost. (A down device's share has removed every node
    /// it hosted, so it has nothing to re-announce.)
    pub reannounce: bool,
}

impl DeviceFence {
    /// The other devices this share's tasks name as upstream or
    /// downstream: the verifiers with a DVM edge to its device once it
    /// is applied. After a crash restart, only these have protocol
    /// state to replay toward it.
    pub fn peers(&self) -> BTreeSet<DeviceId> {
        let tasks = self.tasks.iter().map(|(_, t)| t);
        let edges = tasks.flat_map(|t| {
            let ends = t.upstream.iter().chain(&t.downstream);
            ends.filter(move |(_, d)| *d != t.dev).map(|(_, d)| *d)
        });
        edges.collect()
    }
}

/// What a substrate must deliver for one epoch bump.
#[derive(Debug, Clone)]
pub struct FencePlan {
    /// The new epoch. Everything in flight under an older one is
    /// superseded: a transport drops it *before* any new-epoch send.
    pub epoch: u64,
    /// One fence per device some plan has tasked since construction,
    /// this fence's included: every device whose verifier holds, or
    /// after this fence needs, counting state. A fabric that hosts a
    /// verifier on any other device leaves it be until a plan tasks it.
    pub devices: BTreeMap<DeviceId, DeviceFence>,
    /// The device and cause the `EpochFence` record is journaled
    /// under, once [`ControlPlane::seal`] knows what the fence cost.
    anchor: (DeviceId, &'static str),
}

/// What the control plane decided for one event.
#[derive(Debug, Clone, Default)]
pub struct Decision {
    /// The install raced a topology fence and waits for the next one.
    pub parked: bool,
    /// The store-level delta of the event: what the fence ships, and
    /// the slice accounting.
    pub delta: IntentDelta,
    /// The fence to deliver; `None` when nothing on any device changes
    /// (a repeated topology event, a parked install, or the removal of
    /// a parked or degraded intent) — no epoch was burned.
    pub fence: Option<FencePlan>,
}

impl Decision {
    /// The outcome of the event that named `intent`, before the
    /// substrate drives it: its change set and whether it parked (the
    /// drive adds messages, bytes and completion time).
    pub fn outcome(self, intent: Option<IntentId>) -> EventOutcome {
        EventOutcome {
            intent,
            delta: self.delta,
            parked: self.parked,
            ..EventOutcome::default()
        }
    }
}

/// The single owner of lifecycle state (see the module docs).
#[derive(Debug, Clone)]
pub struct ControlPlane {
    store: IntentStore,
    churn: ChurnState,
    /// Event-fence generation: bumped by every applied churn event and
    /// every intent install/remove that changes a device.
    epoch: u64,
    /// Applied topology events (freshness marking is churn-era only;
    /// intent churn alone never degrades a report).
    churn_events: u64,
    /// The nodes each quarantined device hosted when it went down.
    unreachable: BTreeMap<NodeId, DeviceId>,
    /// Intent id → the epoch whose fence degraded it.
    degraded_epochs: BTreeMap<u64, u64>,
    /// The base intent's current counting plan (the store's pointer).
    plan: Arc<CountingPlan>,
    /// The base topology: the one every topology event must name, and
    /// what every scene table answers for.
    topology: Topology,
    /// `churn` applied to `topology`: the effective topology installs
    /// plan on, and a link-down's [`Cut`] starts from.
    effective: Topology,
    layout: HeaderLayout,
    /// The store's packet-space contexts compiled, by index: contexts
    /// are append-only, so each is compiled once.
    spaces: Vec<PortablePred>,
    /// Every device some plan has tasked since construction: the
    /// devices each fence goes to.
    tasked: BTreeSet<DeviceId>,
    tel: Arc<Telemetry>,
}

impl ControlPlane {
    /// A control plane whose store holds `plan` as the base intent.
    pub fn new(
        topology: &Topology,
        layout: HeaderLayout,
        plan: &CountingPlan,
        space: &PacketSpace,
        tel: Arc<Telemetry>,
    ) -> ControlPlane {
        let tasked = plan.tasks.iter().map(|t| t.dev).collect();
        let plan = Arc::new(plan.clone());
        let cp = ControlPlane {
            store: IntentStore::with_base(plan.clone(), space.clone()),
            churn: ChurnState::new(),
            epoch: 0,
            churn_events: 0,
            unreachable: BTreeMap::new(),
            degraded_epochs: BTreeMap::new(),
            plan,
            topology: topology.clone(),
            effective: topology.clone(),
            layout,
            spaces: Vec::new(),
            tasked,
            tel,
        };
        cp.export_intent_count();
        cp.count_planning(&cp.work(0));
        cp.count_fence_work(0, 0, 0);
        cp
    }

    /// Replaces the observability handle.
    pub fn set_telemetry(&mut self, tel: Arc<Telemetry>) {
        self.tel = tel;
        self.export_intent_count();
        self.count_planning(&self.work(0));
        self.count_fence_work(0, 0, 0);
    }

    /// The current fence generation (0 until the first fence).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The base intent's current counting plan.
    pub fn plan(&self) -> &CountingPlan {
        &self.plan
    }

    /// The live intents and their shared global node table.
    pub fn intents(&self) -> &IntentStore {
        &self.store
    }

    fn export_intent_count(&self) {
        let count = self.store.len() as i64;
        self.tel
            .gauge_set(DeviceId(0), "tulkun_intent_count", count);
    }

    /// No planning work yet, for the decision traced as `trace`.
    fn work(&self, trace: u64) -> PlanWork {
        PlanWork::new(&self.tel, trace)
    }

    /// Counts planning work done on the live path: planner runs, and
    /// the scene-table hits and unaffected slices that avoided one.
    /// Counting nothing still exports the counters, so `metrics` shows
    /// them from the start.
    fn count_planning(&self, work: &PlanWork) {
        let tel = &self.tel;
        tel.count("tulkun_planner_calls_total", work.planner_calls);
        tel.count("tulkun_plan_table_hits_total", work.table_hits);
        tel.count("tulkun_plan_unaffected_total", work.unaffected);
    }

    /// The compiled packet space of store context `ctx`.
    fn space(&mut self, ctx: usize) -> PortablePred {
        while self.spaces.len() <= ctx {
            let next = self.store.context_space(self.spaces.len());
            self.spaces.push(compile_packet_space(&self.layout, next));
        }
        self.spaces[ctx].clone()
    }

    /// Every node each device hosts, as its share of a fence that
    /// creates them all — built as every fence's shares are: what a
    /// verifier built from nothing applies at the current epoch to
    /// count what the table has it count, at construction and on a
    /// backend move. A degraded intent owns no node, and no report
    /// reads one from a device.
    pub fn hosted(&mut self) -> BTreeMap<DeviceId, DeviceFence> {
        let delta = self.store.hosted(None);
        self.shares(&delta)
    }

    /// Each device's share of `delta`: its removals, and its tasks in
    /// node order, each that creates a node carrying the compiled space
    /// of the node's context. The one way a delta reaches the devices.
    fn shares(&mut self, delta: &IntentDelta) -> BTreeMap<DeviceId, DeviceFence> {
        let mut shares: BTreeMap<DeviceId, DeviceFence> = BTreeMap::new();
        for (dev, gone) in &delta.removed {
            shares.entry(*dev).or_default().remove = gone.clone();
        }
        for (dev, tasks) in &delta.changed {
            let mut share = Vec::with_capacity(tasks.len());
            for (ctx, task) in tasks {
                share.push((ctx.map(|c| self.space(c)), task.clone()));
            }
            shares.entry(*dev).or_default().tasks = share;
        }
        shares
    }

    /// Counts what one churn fence asks of the devices: tasks shipped
    /// (new nodes and re-tasks), nodes removed, and nodes that kept id
    /// and task and so cost nothing. Exported from zero, like the
    /// planning counters.
    fn count_fence_work(&self, shipped: usize, removed: usize, reused: usize) {
        let tel = &self.tel;
        tel.count("tulkun_fence_tasks_shipped_total", shipped as u64);
        tel.count("tulkun_fence_nodes_removed_total", removed as u64);
        tel.count("tulkun_fence_nodes_reused_total", reused as u64);
    }

    /// Journals one lifecycle record at the current epoch.
    fn note(
        &self,
        kind: JournalKind,
        dev: DeviceId,
        trace: u64,
        intent: Option<IntentId>,
        detail: impl FnOnce() -> String,
    ) {
        let intent = intent.map(|i| i.0);
        self.tel
            .journal(kind, dev, self.epoch, trace, intent, detail);
    }

    /// Seals a fence with what the substrate's own fence discarded
    /// (`dropped` envelopes in flight under older epochs): counts and
    /// journals the epoch bump, and keeps the repair wave only if
    /// something was lost. Call once per [`FencePlan`], after dropping
    /// in-flight state and before delivering any [`DeviceFence`]; an
    /// unsealed plan repairs everywhere, which is correct but costs a
    /// full re-announcement.
    pub fn seal(&self, plan: &mut FencePlan, dropped: usize, trace: u64) {
        self.tel.count("tulkun_epoch_bumps_total", 1);
        if dropped == 0 {
            plan.devices.values_mut().for_each(|f| f.reannounce = false);
        } else {
            self.tel.count("tulkun_fence_repairs_total", 1);
        }
        let (dev, cause) = plan.anchor;
        let epoch = plan.epoch;
        let detail = || format!("fence to epoch {epoch} ({cause}), {dropped} in flight dropped");
        self.tel
            .journal(JournalKind::EpochFence, dev, epoch, trace, None, detail);
    }

    /// Bumps the epoch and plans its fence: one per tasked device (the
    /// devices `delta` tasks join them), its share of `delta`, with the
    /// repair wave [`ControlPlane::seal`] may drop. `anchor` is the
    /// journal device and cause.
    fn fence_plan(&mut self, anchor: (DeviceId, &'static str), delta: &IntentDelta) -> FencePlan {
        self.epoch += 1;
        let mut shares = self.shares(delta);
        self.tasked.extend(delta.changed.keys().copied());
        let devices = self
            .tasked
            .iter()
            .map(|dev| {
                let mut fence = shares.remove(dev).unwrap_or_default();
                fence.reannounce = true;
                (*dev, fence)
            })
            .collect();
        FencePlan {
            epoch: self.epoch,
            devices,
            anchor,
        }
    }

    /// Crashes and restarts `dev`'s verification agent (§8: the agent
    /// is a process beside the FIB agent, so it can die without the
    /// switch losing its FIB): journals the crash under `trace` and
    /// returns the share the restarted verifier applies at the current
    /// epoch. The share removes every node of the device's part of
    /// [`ControlPlane::hosted`] and creates each again, so the verifier
    /// loses all soft counting state and recounts from scratch; only
    /// that part is built. No epoch is burned: the substrate drops what
    /// is in flight *to* the device, and each of the share's
    /// [`DeviceFence::peers`] replays its durable protocol state toward
    /// it
    /// ([`replay_for_restart`](crate::dvm::DeviceVerifier::replay_for_restart)).
    /// Every topology device has an agent, whether or not it hosts a
    /// node; an id outside the topology names none and is `None`.
    pub fn restart(&mut self, dev: DeviceId, trace: u64) -> Option<DeviceFence> {
        if dev.0 as usize >= self.topology.num_devices() {
            return None;
        }
        self.note(JournalKind::CrashRestart, dev, trace, None, || {
            format!("verification agent on d{} crashed and restarted", dev.0)
        });
        let delta = self.store.hosted(Some(dev));
        let share = self.shares(&delta).remove(&dev).unwrap_or_default();
        Some(DeviceFence {
            remove: share.tasks.iter().map(|(_, t)| t.node).collect(),
            ..share
        })
    }

    /// Applies one live topology event: folds it into the cumulative
    /// churn, re-plans **every** live intent against the post-churn
    /// topology under one fence, and returns each device's share. The
    /// event must name this control plane's base topology (`base`, the
    /// one it was constructed with) and the base invariant (`inv`, the
    /// one its plan was compiled from, recorded by the first event that
    /// re-plans it): any other is refused with an `Err` that leaves
    /// everything untouched, since the scene tables answer for that one
    /// pair; so is a link event whose two endpoints the base does not
    /// link (a self-loop included). A scene an intent's plan key has
    /// been planned on before costs no planner run (its scene table
    /// answers), and neither does a link-down that a slice is outside
    /// of ([`Cut`]). Slices the new topology cannot host degrade, parked
    /// installs get their bounded retry, and only a base plan that no
    /// longer plans is an `Err`. A `DeviceDown` quarantines its device,
    /// whose share removes every node it hosted; a `DeviceUp` re-tasks
    /// it, its share creating the nodes the new plans put there.
    pub fn topology_event(
        &mut self,
        ev: &TopologyEvent,
        base: &Topology,
        inv: &Invariant,
        trace: u64,
    ) -> Result<Decision, PlanError> {
        if *base != self.topology {
            return Err(PlanError::Unsupported(
                "a topology event must name the session's base topology".into(),
            ));
        }
        let recorded = self
            .store
            .get(IntentId::BASE)
            .and_then(|b| b.invariant.as_ref());
        if recorded.is_some_and(|b| b != inv) {
            return Err(PlanError::Unsupported(
                "a topology event must name the session's base invariant".into(),
            ));
        }
        if let TopologyEvent::LinkDown(a, b) | TopologyEvent::LinkUp(a, b) = *ev {
            let n = base.num_devices() as u32;
            if a.0 >= n || b.0 >= n || base.link_between(a, b).is_none() {
                let what = ev.describe();
                let why = format!("{what} names no link of the base topology");
                return Err(PlanError::Unsupported(why));
            }
        }
        let mut churn = self.churn.clone();
        if !churn.apply(ev) {
            let n = self.store.node_count();
            let delta = IntentDelta {
                total_nodes: n,
                reused_nodes: n,
                ..IntentDelta::default()
            };
            return Ok(Decision {
                delta,
                ..Decision::default()
            });
        }
        let cut = match *ev {
            TopologyEvent::LinkDown(a, b) => Some(Cut {
                link: link_pair(a, b),
                before: &self.effective,
            }),
            _ => None,
        };
        let mut work = self.work(trace);
        let replan = self
            .store
            .replan_all_for_churn(&self.topology, inv, &churn, cut, &mut work);
        self.count_planning(&work);
        let replan = replan?;
        self.churn = churn;
        self.churn_events += 1;
        if matches!(ev, TopologyEvent::DeviceDown(_)) {
            self.tel.count("tulkun_quarantined_total", 1);
        }
        let dev = ev.primary_device();
        let fence = self.fence_plan((dev, "churn"), &replan.delta);
        self.note(JournalKind::TopologyChurn, dev, trace, None, || {
            ev.describe()
        });
        self.journal_transitions(&replan, dev, trace, &ev.describe());
        let delta = replan.delta;
        self.count_fence_work(
            delta.changed.values().map(Vec::len).sum(),
            delta.removed.values().map(Vec::len).sum(),
            delta.reused_nodes,
        );
        self.unreachable.retain(|_, d| self.churn.is_down(*d));
        self.unreachable.extend(replan.unreachable);
        self.effective = replan.topology;
        if let Some(p) = self.store.base_plan() {
            self.plan = Arc::clone(p);
        }
        self.export_intent_count();
        Ok(Decision {
            parked: false,
            delta,
            fence: Some(fence),
        })
    }

    /// Journals the per-intent transitions of one churn fence (degrade
    /// / revive / unpark / give-up) and keeps the intent →
    /// degradation-epoch record freshness attribution reads.
    /// `StoreReplan::degraded` lists *every* currently-unplannable
    /// intent, so only newly degraded ones get an entry.
    fn journal_transitions(
        &mut self,
        replan: &StoreReplan,
        dev: DeviceId,
        trace: u64,
        cause: &str,
    ) {
        use JournalKind as K;
        let epoch = self.epoch;
        for (id, reason) in &replan.degraded {
            if let std::collections::btree_map::Entry::Vacant(e) = self.degraded_epochs.entry(id.0)
            {
                e.insert(epoch);
                self.note(K::IntentDegraded, dev, trace, Some(*id), || {
                    format!("degraded by {cause}: {reason}")
                });
            }
        }
        for id in &replan.revived {
            self.degraded_epochs.remove(&id.0);
            self.note(K::IntentReplanned, dev, trace, Some(*id), || {
                format!("revived by {cause} at epoch {epoch}")
            });
        }
        for id in &replan.unparked {
            self.note(K::IntentReplanned, dev, trace, Some(*id), || {
                format!("unparked: re-planned against epoch {epoch}")
            });
        }
        for (id, reason) in &replan.rejected {
            self.note(K::IntentRejected, dev, trace, Some(*id), || {
                format!("parked install gave up after {MAX_INTENT_RETRIES} fences: {reason}")
            });
        }
    }

    /// Compiles `inv` and installs it as a runtime intent under the
    /// next id: its DPVNet slice is interned into the shared node
    /// table, so only devices whose tasks change are re-tasked. The
    /// plan is the re-planner's on the scene in force, from the scene
    /// table of `inv`'s plan key ([`IntentStore::plan_install`]). A
    /// slice the scene cannot host is an `Err` on a quiet topology;
    /// while churn is in effect it is *parked* for bounded retry on the
    /// next topology fence instead. Returns the intent's id (installed
    /// or parked) and the decision.
    pub fn install(
        &mut self,
        name: &str,
        inv: &Invariant,
        trace: u64,
    ) -> Result<(IntentId, Decision), PlanError> {
        let mut work = self.work(trace);
        let (effective, churn) = (&self.effective, &self.churn);
        let planned = self.store.plan_install(inv, effective, churn, &mut work);
        self.count_planning(&work);
        let slice = match planned {
            Ok(slice) => slice,
            Err(e) if self.churn.is_quiet() => return Err(e),
            Err(e) => {
                let id = self.store.park(name, inv.clone());
                self.note(
                    JournalKind::IntentParked,
                    DeviceId(0),
                    trace,
                    Some(id),
                    || format!("parked behind fence @epoch {}: {e}", self.epoch),
                );
                let parked = Decision {
                    parked: true,
                    ..Decision::default()
                };
                return Ok((id, parked));
            }
        };
        let (id, delta) = self.store.install(name, inv.clone(), slice, &work)?;
        let fence = self.fence_plan((first_touched(&delta), INTENT), &delta);
        let dev = delta.changed.keys().next().copied().unwrap_or(DeviceId(0));
        self.note(JournalKind::IntentInstalled, dev, trace, Some(id), || {
            format!("intent {name:?} installed")
        });
        self.export_intent_count();
        let fence = Some(fence);
        Ok((
            id,
            Decision {
                parked: false,
                delta,
                fence,
            },
        ))
    }

    /// Removes an intent: only nodes no surviving intent owns are
    /// uninstalled. A parked or degraded intent owns no on-device
    /// state, so removing it drains the bookkeeping without a fence.
    /// The base intent and unknown ids are an `Err`.
    pub fn remove(&mut self, id: IntentId, trace: u64) -> Result<Decision, PlanError> {
        let no_footprint =
            self.store.is_parked(id) || self.store.get(id).is_some_and(|i| i.is_degraded());
        let delta = self.store.remove(id, &self.work(trace))?;
        self.degraded_epochs.remove(&id.0);
        let anchor = (first_touched(&delta), INTENT);
        let fence = (!no_footprint).then(|| self.fence_plan(anchor, &delta));
        let mut touched = delta.removed.keys().chain(delta.changed.keys());
        let dev = touched.next().copied().unwrap_or(DeviceId(0));
        self.note(JournalKind::IntentRemoved, dev, trace, Some(id), || {
            format!("intent {id} removed")
        });
        self.export_intent_count();
        Ok(Decision {
            parked: false,
            delta,
            fence,
        })
    }

    /// Fills a churn-era report's freshness and quarantine fields (a
    /// no-op until the first topology event): every global node a
    /// non-degraded intent owns is `Fresh` unless its device appears
    /// in `stale_devices` (a watchdog's stall map, device → epoch at
    /// stall); the nodes a quarantined device hosted when it went down
    /// are `Unreachable`; a *degraded* intent's last-good source nodes
    /// are `Stale(e)` at the epoch whose fence degraded it, or
    /// `Unreachable` on a quarantined device. Quarantined and degraded
    /// entries refer to a superseded table's numbering; both entries
    /// are kept when an id collides.
    pub fn annotate(&self, r: &mut Report, stale_devices: &BTreeMap<DeviceId, u64>) {
        if self.churn_events == 0 {
            return;
        }
        let mut fr: Vec<(NodeId, Freshness)> = Vec::new();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for intent in self.store.live().filter(|i| !i.is_degraded()) {
            for t in &intent.plan.tasks {
                let g = intent.to_global[t.node.0 as usize];
                if seen.insert(g) {
                    fr.push(match stale_devices.get(&t.dev) {
                        Some(e) => (g, Freshness::Stale(*e)),
                        None => (g, Freshness::Fresh),
                    });
                }
            }
        }
        fr.extend(
            self.unreachable
                .keys()
                .map(|n| (*n, Freshness::Unreachable)),
        );
        for intent in self.store.live().filter(|i| i.is_degraded()) {
            let e = self.degraded_epochs.get(&intent.id.0).copied().unwrap_or(0);
            for (dev, local) in intent.plan.dpvnet.sources() {
                let g = intent.to_global[local.0 as usize];
                let f = if self.churn.is_down(*dev) {
                    Freshness::Unreachable
                } else {
                    Freshness::Stale(e)
                };
                fr.push((g, f));
            }
        }
        fr.sort_by_key(|(n, _)| *n);
        r.freshness = fr;
        r.quarantined = self.churn.down_devices().iter().copied().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvm::{DeviceVerifier, VerifierConfig};
    use crate::intent::tests::{fig2a_network, plan_for, work};
    use crate::intent::{plan_intent_on, Slice};
    use crate::spec::table1;
    use proptest::prelude::*;
    use tulkun_netmodel::network::Network;
    use tulkun_predicate::BackendKind;

    /// A control plane over `net` with `base` as intent 0. No verifier,
    /// no transport: fences are only read.
    fn control(net: &Network, base: &str) -> (ControlPlane, Invariant) {
        let (inv, cp) = plan_for(net, base);
        let tel = Telemetry::disabled();
        let control = ControlPlane::new(&net.topology, net.layout, &cp, &inv.packet_space, tel);
        (control, inv)
    }

    /// `dev`'s verifier, built empty and hosting its share of
    /// `c.hosted()` at the current epoch, as a substrate builds it.
    fn hosting(net: &Network, c: &mut ControlPlane, dev: DeviceId) -> DeviceVerifier {
        let cfg = VerifierConfig::of(c.plan());
        let (fib, tel) = (net.fib(dev).clone(), Telemetry::disabled());
        let mut v = DeviceVerifier::new(dev, net.layout, fib, cfg, BackendKind::Bdd, tel);
        let share = c.hosted().remove(&dev).unwrap_or_default();
        v.apply_fence(c.epoch(), 0, share, &mut Vec::new());
        v
    }

    /// Everything an `Err` must leave untouched.
    fn fingerprint(c: &ControlPlane) -> impl PartialEq + std::fmt::Debug {
        (
            (c.epoch, c.churn_events, c.churn.clone()),
            c.store
                .parked()
                .map(|p| (p.id, p.retries))
                .collect::<Vec<_>>(),
            c.store
                .live()
                .map(|i| {
                    (
                        (i.id, i.is_degraded(), i.invariant.clone()),
                        i.plan.tasks.clone(),
                        i.to_global.clone(),
                    )
                })
                .collect::<Vec<_>>(),
            (c.store.global_tasks(), c.store.next_intent_id()),
            (c.unreachable.clone(), c.degraded_epochs.clone()),
            c.tasked.clone(),
        )
    }

    #[test]
    fn parked_install_retries_then_is_rejected() {
        let net = fig2a_network();
        let (mut c, base) = control(&net, "S .* D");
        let dev = |n: &str| net.topology.expect_device(n);
        let topo = &net.topology;
        let down_b = TopologyEvent::DeviceDown(dev("B"));
        assert!(c
            .topology_event(&down_b, topo, &base, 0)
            .unwrap()
            .fence
            .is_some());
        assert_eq!(c.epoch(), 1);
        // A repeated event changes nothing and burns no epoch.
        assert!(c
            .topology_event(&down_b, topo, &base, 0)
            .unwrap()
            .fence
            .is_none());
        assert_eq!(c.epoch(), 1);

        let (from_b, _) = plan_for(&net, "B .* D");
        let (id, d) = c.install("from-b", &from_b, 0).unwrap();
        assert!(d.parked && d.fence.is_none());
        assert!(c.intents().is_parked(id));
        assert_eq!(c.epoch(), 1, "parking burns no epoch");

        // Each later fence re-plans the parked install; B stays down,
        // so every attempt fails and the last one gives up.
        let flaps = [("A", "B"), ("B", "W"), ("B", "D")];
        assert_eq!(flaps.len() as u32, MAX_INTENT_RETRIES);
        for (round, (a, b)) in flaps.iter().enumerate() {
            assert!(c.intents().is_parked(id), "round {round}");
            let ev = TopologyEvent::LinkDown(dev(a), dev(b));
            c.topology_event(&ev, topo, &base, 0).unwrap();
            assert_eq!(c.epoch(), 2 + round as u64);
        }
        assert!(!c.intents().is_parked(id));
        assert!(c.intents().get(id).is_none(), "rejected, never installed");
    }

    #[test]
    fn degrade_revive_and_the_fence_each_device_gets() {
        let net = fig2a_network();
        let (mut c, base) = control(&net, "S .* D");
        let b = net.topology.expect_device("B");
        let topo = &net.topology;
        let (from_b, _) = plan_for(&net, "B .* D");
        let (id, d) = c.install("from-b", &from_b, 0).unwrap();
        let fence = d.fence.expect("a live install fences");
        assert_eq!((fence.epoch, c.epoch()), (1, 1));
        assert_eq!(
            fence.devices.keys().copied().collect::<BTreeSet<_>>(),
            c.tasked,
            "one fence per tasked device"
        );
        assert!(fence.devices.values().all(|f| f.reannounce));
        // Every node B's share creates carries its space.
        let carried = fence.devices[&b].tasks.iter();
        let carried = carried.filter_map(|(sp, t)| sp.as_ref().map(|_| t.node));
        let created = d.delta.changed[&b].iter();
        let created = created.filter_map(|(ctx, t)| ctx.map(|_| t.node));
        assert_eq!(carried.collect::<Vec<_>>(), created.collect::<Vec<_>>());

        let on_b: BTreeSet<NodeId> = c.intents().nodes_on(b).collect();
        assert!(!on_b.is_empty());
        let mut at_b = hosting(&net, &mut c, b);
        assert_eq!(at_b.node_ids().into_iter().collect::<BTreeSet<_>>(), on_b);
        let down = c
            .topology_event(&TopologyEvent::DeviceDown(b), topo, &base, 0)
            .unwrap()
            .fence
            .unwrap();
        assert_eq!(down.epoch, 2);
        assert!(down.devices.values().all(|f| f.reannounce));
        let gone: BTreeSet<NodeId> = down.devices[&b].remove.iter().copied().collect();
        assert_eq!(gone, on_b, "B's share removes every node it hosted");
        assert!(down.devices[&b].tasks.is_empty());
        // The quarantined device stays silent: with every node gone,
        // its repair wave has nothing to re-announce.
        let mut said = Vec::new();
        at_b.apply_fence(down.epoch, 0, down.devices[&b].clone(), &mut said);
        assert!(said.is_empty(), "the down device says nothing: {said:?}");
        assert!(at_b.node_ids().is_empty());
        assert_eq!(c.intents().nodes_on(b).count(), 0);
        assert!(c.intents().get(id).unwrap().is_degraded());
        let mut r = Report::default();
        c.annotate(&mut r, &BTreeMap::new());
        assert_eq!(r.quarantined, vec![b]);
        assert!(r
            .freshness
            .iter()
            .any(|(_, f)| *f == Freshness::Unreachable));

        let up = c
            .topology_event(&TopologyEvent::DeviceUp(b), topo, &base, 0)
            .unwrap()
            .fence
            .unwrap();
        assert_eq!(up.epoch, 3);
        assert!(up.devices.values().all(|f| f.reannounce));
        let revived = &up.devices[&b];
        assert!(revived.remove.is_empty(), "a revived device hosts nothing");
        assert!(!revived.tasks.is_empty(), "the revived device is re-tasked");
        assert!(
            revived.tasks.iter().all(|(sp, _)| sp.is_some()),
            "every task it gets creates a node"
        );
        assert!(!c.intents().get(id).unwrap().is_degraded());
        c.annotate(&mut r, &BTreeMap::new());
        assert!(r.quarantined.is_empty());
        assert!(r.freshness.iter().all(|(_, f)| *f == Freshness::Fresh));
    }

    /// `seal` is where a fence learns what it cost: the repair wave
    /// survives only if the substrate lost in-flight state, and the
    /// `EpochFence` record and the repair counter say so.
    #[test]
    fn seal_keeps_the_repair_wave_only_after_loss() {
        use tulkun_telemetry::TelemetryConfig;
        let net = fig2a_network();
        let (mut c, base) = control(&net, "S .* D");
        let tel = Telemetry::new(TelemetryConfig::enabled());
        c.set_telemetry(tel.clone());
        let dev = |n: &str| net.topology.expect_device(n);
        let fence_detail = || {
            let fences = tel.journal_events();
            let last = fences.iter().rfind(|e| e.kind == JournalKind::EpochFence);
            last.map(|e| (e.epoch, e.trace, e.detail.clone()))
        };

        let mut at_b = hosting(&net, &mut c, dev("B"));
        assert!(!at_b.node_ids().is_empty());
        let down = TopologyEvent::DeviceDown(dev("B"));
        let d = c.topology_event(&down, &net.topology, &base, 5).unwrap();
        let mut lossy = d.fence.unwrap();
        assert_eq!(fence_detail(), None, "journaled at seal, with the cost");
        c.seal(&mut lossy, 3, 5);
        assert!(lossy.devices.values().all(|f| f.reannounce));
        // Quarantine stays silent: the repair wave survives the seal,
        // but B's share has removed every node it would re-announce.
        let mut said = Vec::new();
        at_b.apply_fence(lossy.epoch, 5, lossy.devices[&dev("B")].clone(), &mut said);
        assert!(said.is_empty(), "the down device says nothing: {said:?}");
        let detail = "fence to epoch 1 (churn), 3 in flight dropped".to_string();
        assert_eq!(fence_detail(), Some((1, 5, detail)));

        let up = TopologyEvent::DeviceUp(dev("B"));
        let d = c.topology_event(&up, &net.topology, &base, 6).unwrap();
        let mut quiet = d.fence.unwrap();
        c.seal(&mut quiet, 0, 6);
        assert!(quiet.devices.values().all(|f| !f.reannounce));
        assert_eq!(counter(&tel, "tulkun_epoch_bumps_total"), 2);
        assert_eq!(counter(&tel, "tulkun_fence_repairs_total"), 1);
    }

    #[test]
    fn removing_a_parked_or_degraded_intent_burns_no_epoch() {
        let net = fig2a_network();
        let (mut c, base) = control(&net, "S .* D");
        let b = net.topology.expect_device("B");
        let (from_b, _) = plan_for(&net, "B .* D");
        let (from_a, _) = plan_for(&net, "A .* D");
        let (live, _) = c.install("from-a", &from_a, 0).unwrap();
        let (degraded, _) = c.install("from-b", &from_b, 0).unwrap();
        c.topology_event(&TopologyEvent::DeviceDown(b), &net.topology, &base, 0)
            .unwrap();
        let (parked, _) = c.install("from-b", &from_b, 0).unwrap();
        assert_eq!(c.epoch(), 3);
        assert!(c.remove(parked, 0).unwrap().fence.is_none());
        assert!(c.remove(degraded, 0).unwrap().fence.is_none());
        assert_eq!(c.epoch(), 3);
        assert!(c.remove(live, 0).unwrap().fence.is_some());
        assert_eq!(c.epoch(), 4);
        assert!(c.remove(IntentId::BASE, 0).is_err());
        assert!(c.remove(live, 0).is_err(), "already gone");
        assert_eq!(c.epoch(), 4);
    }

    /// Freshness names nodes by id, and a degraded intent's entries
    /// name the ids its slice had in the table its degradation
    /// superseded. So no slice that is still live may inherit one of
    /// those ids from it: an heir takes only an id its own intent
    /// owned. Here `from-a` — `A .* D`'s plan, on record under `A B D`,
    /// which losing A–B leaves no path, so the fence degrades it — owns
    /// the source node at A alone, and the waypoint intent's own node at
    /// A loses its edge to B in the same fence — by shared edges the two
    /// old nodes tie, and the lower id is the degraded intent's.
    #[test]
    fn a_live_slice_never_inherits_an_id_only_a_degraded_intent_owned() {
        let net = fig2a_network();
        let (mut c, base) = control(&net, "B .* D");
        let dev = |n: &str| net.topology.expect_device(n);
        let cp = plan_for(&net, "A .* D").1;
        let only_over_a_b = plan_for(&net, "A B D").0;
        let (orphan, _) = c
            .store
            .install("from-a", only_over_a_b, Slice::of(cp), &work())
            .unwrap();
        let waypoint = plan_for(&net, "S .* W .* D").0;
        let (live, _) = c.install("waypoint", &waypoint, 0).unwrap();

        let sources = |c: &ControlPlane, id: IntentId| -> Vec<NodeId> {
            let it = c.store.get(id).unwrap();
            let sources = it.plan.dpvnet.sources().iter();
            sources.map(|(_, n)| it.to_global[n.0 as usize]).collect()
        };
        let lone = sources(&c, orphan);
        assert!(lone.iter().all(|g| c.store.owner_count(*g) == 1));
        let at_a = |c: &ControlPlane| -> BTreeSet<NodeId> {
            let it = c.store.get(live).unwrap();
            let there = it.plan.tasks.iter().filter(|t| t.dev == dev("A"));
            there.map(|t| it.to_global[t.node.0 as usize]).collect()
        };
        let before = (c.store.names(), at_a(&c));
        let cut = TopologyEvent::LinkDown(dev("A"), dev("B"));
        c.topology_event(&cut, &net.topology, &base, 0).unwrap();
        c.store.assert_consistent(Some(&before.0));
        assert_eq!(c.store.degraded_ids(), [orphan]);
        assert_eq!(at_a(&c), before.1, "the live node at A kept its own id");

        let mut r = Report::default();
        c.annotate(&mut r, &BTreeMap::new());
        for g in lone {
            let said: Vec<&Freshness> = r
                .freshness
                .iter()
                .filter(|(n, _)| *n == g)
                .map(|(_, f)| f)
                .collect();
            assert_eq!(
                said,
                [&Freshness::Stale(c.epoch())],
                "{g:?}: {:?}",
                r.freshness
            );
        }
        assert!(sources(&c, live).iter().all(|g| {
            let fresh = (*g, Freshness::Fresh);
            r.freshness.contains(&fresh)
        }));
    }

    /// A generated 13-device network: a ring `n0..n11`, a chord from
    /// every third device to the third after it, and `leaf` hanging off
    /// `n1` by the first link (losing it cuts an ingress off). `n11`
    /// announces the prefix [`plan_for`] asks about.
    fn ring_network() -> Network {
        let mut t = Topology::new();
        let n: Vec<DeviceId> = (0..12).map(|i| t.add_device(format!("n{i}"))).collect();
        let leaf = t.add_device("leaf");
        t.add_link(leaf, n[1], 1000);
        for i in 0..12 {
            t.add_link(n[i], n[(i + 1) % 12], 1000);
        }
        for i in (0..12).step_by(3) {
            t.add_link(n[i], n[(i + 3) % 12], 1000);
        }
        t.add_external_prefix(n[11], "10.0.0.0/23".parse().unwrap());
        Network::new(t)
    }

    /// A network, the base intent's path, the intents and the topology
    /// events a random history draws from. `events[4]` takes the base
    /// intent's destination down: always rejected.
    struct World {
        net: Network,
        base: &'static str,
        pool: Vec<Invariant>,
        events: Vec<TopologyEvent>,
    }

    fn fig2a_world() -> World {
        let net = fig2a_network();
        let dev = |n: &str| net.topology.expect_device(n);
        use TopologyEvent as Ev;
        let events = vec![
            Ev::DeviceDown(dev("B")),
            Ev::DeviceUp(dev("B")),
            Ev::LinkDown(dev("A"), dev("W")),
            Ev::LinkUp(dev("A"), dev("W")),
            Ev::DeviceDown(dev("D")), // the base cannot plan: Err
            Ev::DeviceDown(dev("S")), // likewise
            Ev::LinkDown(dev("B"), dev("D")),
            Ev::LinkUp(dev("B"), dev("D")),
        ];
        let ps = PacketSpace::dst_prefix("10.0.0.0/23");
        let pool = vec![
            plan_for(&net, "B .* D").0,
            plan_for(&net, "A .* D").0,
            plan_for(&net, "S .* W .* D").0,
            // A local-contract behavior has no slice to install: Err.
            table1::all_shortest_path(ps, "S", "D").unwrap(),
        ];
        let base = "S .* D";
        World {
            net,
            base,
            pool,
            events,
        }
    }

    fn ring_world() -> World {
        let net = ring_network();
        let dev = |n: &str| net.topology.expect_device(n);
        use TopologyEvent as Ev;
        let events = vec![
            Ev::LinkDown(dev("leaf"), dev("n1")),
            Ev::LinkUp(dev("leaf"), dev("n1")),
            Ev::DeviceDown(dev("n6")),
            Ev::DeviceUp(dev("n6")),
            Ev::DeviceDown(dev("n11")), // the base cannot plan: Err
            Ev::LinkDown(dev("n0"), dev("n11")),
            Ev::LinkUp(dev("n0"), dev("n11")),
            Ev::DeviceDown(dev("n2")),
            Ev::DeviceUp(dev("n2")),
            Ev::LinkDown(dev("n3"), dev("n6")),
            Ev::LinkUp(dev("n3"), dev("n6")),
        ];
        let pool = ["leaf .* n11", "n2 .* n11", "n5 .* n7 .* n11", "n6 .* n11"];
        let pool = pool.iter().map(|path| plan_for(&net, path).0).collect();
        let base = "n0 .* n11";
        World {
            net,
            base,
            pool,
            events,
        }
    }

    /// The ring network under nine long-lived intents — the base and
    /// the eight returned paths, each to `n11` — with counters on.
    fn nine_intents_on_the_ring() -> (Network, ControlPlane, Invariant, Arc<Telemetry>) {
        use tulkun_telemetry::TelemetryConfig;
        let net = ring_network();
        let (mut c, base) = control(&net, "n0 .* n11");
        let tel = Telemetry::new(TelemetryConfig::enabled());
        c.set_telemetry(tel.clone());
        for path in ["leaf", "n2", "n3", "n4", "n5 .* n7", "n6", "n8", "n9"] {
            let inv = plan_for(&net, &format!("{path} .* n11")).0;
            c.install(path, &inv, 0).unwrap();
        }
        (net, c, base, tel)
    }

    fn counter(tel: &Telemetry, name: &str) -> u64 {
        tel.metrics().counters.get(name).copied().unwrap_or(0)
    }

    /// The work-count gate of the scene tables: flapping every link of
    /// a 16-link pool under eight long-lived intents plans each
    /// (intent, scene) pair at most once — refusals included — every
    /// link-down a slice is outside of costs it no planner run, and a
    /// second pass over the pool never runs the planner.
    #[test]
    fn a_second_pass_over_the_link_pool_makes_no_planner_call() {
        let (net, mut c, base, tel) = nine_intents_on_the_ring();
        let work = || {
            let calls = counter(&tel, "tulkun_planner_calls_total");
            let hits = counter(&tel, "tulkun_plan_table_hits_total");
            (calls, hits, counter(&tel, "tulkun_plan_unaffected_total"))
        };
        let intents = c.intents().len() as u64;
        assert_eq!(work(), (intents - 1, 0, 0), "one planner run per install");

        // One pass: every pool link goes down and comes back. Returns
        // the planner calls, table hits and unaffected slices it cost,
        // and how many intents its link losses degraded.
        let pool = &net.topology.links()[..16];
        let mut pass = || {
            let before = work();
            let mut degrading = 0;
            for l in pool {
                use TopologyEvent as Ev;
                for ev in [Ev::LinkDown(l.a, l.b), Ev::LinkUp(l.a, l.b)] {
                    c.topology_event(&ev, &net.topology, &base, 0).unwrap();
                    degrading += c.intents().degraded_count();
                }
            }
            let after = work();
            let spent = (after.0 - before.0, after.1 - before.1);
            (spent.0, spent.1, after.2 - before.2, degrading)
        };
        let (scenes, events) = (1 + pool.len() as u64, 2 * pool.len() as u64);
        let (calls, hits, unaffected, degrading) = pass();
        assert_eq!(calls + hits + unaffected, intents * events);
        // Before slices kept their plan across a cut, this pass made 153
        // planner calls, one per (intent, scene) pair; now 133: on this
        // ring most slices hold most links.
        assert!(calls <= 133, "{calls} planner calls");
        assert!(unaffected > 0 && calls + unaffected <= intents * scenes);
        assert!(degrading > 0, "losing the leaf link cuts an ingress off");
        assert_eq!(pass(), (0, intents * events, 0, degrading));
    }

    /// The work-count gate of node identity, on the same world: a link
    /// event ships tasks for the nodes it changed and their
    /// neighbours, not for everything above them. `BEFORE` is what
    /// each event of a pass cost — tasks shipped plus nodes removed —
    /// when ids were hash-consed over the whole cone and one lost edge
    /// renamed every ancestor (the commit before inheritance, both
    /// passes alike). On this ring most of what is left is nodes that
    /// really come and go with the link and the neighbours that must
    /// hear of it.
    #[test]
    fn a_link_event_ships_tasks_for_what_it_changed() {
        const BEFORE: [u64; 32] = [
            5, 5, 65, 65, 64, 64, 65, 65, 69, 69, 70, 70, 69, 69, 71, 71, 71, 71, 70, 70, 79, 79,
            79, 79, 79, 79, 68, 68, 69, 69, 68, 68,
        ];
        let (net, mut c, base, tel) = nine_intents_on_the_ring();
        let cost = || {
            let shipped = counter(&tel, "tulkun_fence_tasks_shipped_total");
            shipped + counter(&tel, "tulkun_fence_nodes_removed_total")
        };
        assert_eq!(cost(), 0, "installs are not churn fences");
        let table = |c: &ControlPlane| -> BTreeMap<NodeId, NodeTask> {
            let tasks = c.store.global_tasks().into_iter();
            tasks.map(|t| (t.node, t)).collect()
        };
        let mut costs: Vec<u64> = Vec::new();
        // Nodes no cone of which, before or after, holds an edge over
        // the flapped link; and those of them whose downstream changed
        // all the same (a child was renamed under them).
        let (mut apart, mut renamed) = (0u64, 0u64);
        // Nodes whose whole cone came through unchanged and whose id
        // had all the same gone to an heir interned before them: the
        // greedy match's known miss, here once per returning link (a
        // node new to the slice takes the id of an unchanged node at
        // its site that is interned after it).
        let mut displaced = 0;
        let pool = &net.topology.links()[..16];
        for l in pool.iter().chain(pool) {
            use TopologyEvent as Ev;
            for ev in [Ev::LinkDown(l.a, l.b), Ev::LinkUp(l.a, l.b)] {
                let (names, old, before) = (c.store.names(), table(&c), cost());
                let d = c.topology_event(&ev, &net.topology, &base, 0).unwrap();
                c.store.assert_consistent(Some(&names));
                displaced += names.displaced(&c.store).len();
                costs.push(cost() - before);
                let fences = d.fence.unwrap().devices.into_values();
                let in_fences = |f: DeviceFence| (f.tasks.len() + f.remove.len()) as u64;
                let delivered: u64 = fences.map(in_fences).sum();
                assert_eq!(Some(&delivered), costs.last(), "{ev:?}: counters vs fence");

                let new = table(&c);
                let over_the_link = |table: &BTreeMap<NodeId, NodeTask>, g: NodeId| {
                    let (mut seen, mut stack) = (BTreeSet::new(), vec![g]);
                    while let Some(t) = stack.pop().map(|n| &table[&n]) {
                        for (child, dev) in &t.downstream {
                            if [(t.dev, *dev), (*dev, t.dev)].contains(&(l.a, l.b)) {
                                return true;
                            }
                            if seen.insert(*child) {
                                stack.push(*child);
                            }
                        }
                    }
                    false
                };
                for (g, was) in &old {
                    let Some(is) = new.get(g) else { continue };
                    if over_the_link(&old, *g) || over_the_link(&new, *g) {
                        continue;
                    }
                    apart += 1;
                    renamed += u64::from(was.downstream != is.downstream);
                }
            }
        }
        for (i, now) in costs.iter().enumerate() {
            let then = BEFORE[i % BEFORE.len()];
            assert!(
                now <= &then,
                "event {i}: {now} tasks + removals, {then} before"
            );
        }
        let (now, then) = (costs.iter().sum::<u64>(), 2 * BEFORE.iter().sum::<u64>());
        let events = costs.len();
        assert!(
            5 * now <= 2 * then,
            "{events} link events shipped + removed {now}; {then} before ids were inherited"
        );
        assert!(
            displaced <= events / 2,
            "{displaced} unchanged cones renamed in {events} link events"
        );
        assert!(
            100 * renamed <= apart,
            "{renamed} of {apart} nodes away from the link had a child renamed"
        );
    }

    /// The scene tables against a planner that remembers nothing: every
    /// live intent runs exactly the plan a fresh [`plan_intent_on`]
    /// makes on the scene in force, an intent is degraded exactly when
    /// that refuses, and no table outgrows its bound. `topology` and
    /// `base` are the ones the last topology event was given.
    fn assert_plans_are_fresh(c: &ControlPlane, topology: &Topology, base: &Invariant) {
        let effective = c.churn.apply_to(topology);
        for intent in c.store.live() {
            let inv = intent.invariant.as_ref().unwrap_or(base);
            let id = intent.id;
            match plan_intent_on(&effective, inv, &c.churn) {
                Ok(fresh) => {
                    assert!(!intent.is_degraded(), "intent {id} plans: {:?}", c.churn);
                    assert_eq!(intent.plan.tasks, fresh.tasks, "intent {id}: {:?}", c.churn);
                }
                Err(_) => assert!(intent.is_degraded(), "intent {id}: {:?}", c.churn),
            }
        }
        c.store.assert_tables_bounded();
    }

    /// A control plane over `net` with counters on, and a reader of its
    /// planning counters: planner calls and unaffected slices.
    fn counted(net: &Network, base: &str) -> (ControlPlane, Invariant, impl Fn() -> (u64, u64)) {
        use tulkun_telemetry::TelemetryConfig;
        let (mut c, inv) = control(net, base);
        let tel = Telemetry::new(TelemetryConfig::enabled());
        c.set_telemetry(tel.clone());
        let work = move || {
            let calls = counter(&tel, "tulkun_planner_calls_total");
            (calls, counter(&tel, "tulkun_plan_unaffected_total"))
        };
        (c, inv, work)
    }

    /// A cut the slice is outside of keeps its plan only if it moves no
    /// distance the planner reads. Fig. 2a plus a link A–D, under
    /// `S .* W .* D` within one hop of the shortest S→D path: the slice
    /// is S–A–W–D alone, and A–D is on no path of it. Losing A–D
    /// stretches the shortest S→D path from two hops to three, which
    /// admits S–A–B–W–D and S–A–W–B–D: the slice is re-planned. Losing
    /// B–D instead moves nothing it reads, so it keeps its plan.
    #[test]
    fn a_cut_that_moves_a_distance_the_slice_reads_replans_it() {
        let mut net = fig2a_network();
        let dev = |n: &str| net.topology.expect_device(n);
        let (a, b, d) = (dev("A"), dev("B"), dev("D"));
        net.topology.add_link(a, d, 1000);
        let (mut c, base, work) = counted(&net, "S .* D");
        let waypoint = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(crate::spec::Behavior::exist(
                crate::count::CountExpr::ge(1),
                crate::spec::PathExpr::parse("S .* W .* D")
                    .unwrap()
                    .loop_free()
                    .shortest_plus(1),
            ))
            .build()
            .unwrap();
        let (id, _) = c.install("waypoint", &waypoint, 0).unwrap();
        let paths = |c: &ControlPlane| c.store.get(id).unwrap().plan.dpvnet.num_paths();
        assert_eq!(paths(&c), 1.0, "S-A-W-D");
        let mut apply = |ev: TopologyEvent| {
            let before = work();
            c.topology_event(&ev, &net.topology, &base, 0).unwrap();
            assert_plans_are_fresh(&c, &net.topology, &base);
            let after = work();
            (after.0 - before.0, after.1 - before.1, paths(&c))
        };
        // Both slices re-planned: the base runs over A–D.
        assert_eq!(apply(TopologyEvent::LinkDown(a, d)), (2, 0, 3.0));
        apply(TopologyEvent::LinkUp(a, d));
        // The base runs over B–D; the waypoint slice does not, and the
        // shortest S→D path is still S–A–D.
        assert_eq!(apply(TopologyEvent::LinkDown(b, d)), (1, 1, 1.0));
    }

    /// A link-up never keeps a plan, even one whose slice is outside the
    /// link and whose distances it leaves alone: a link that comes back
    /// can add valid paths. On Fig. 2a with A–W and B–W down, `S .* D`
    /// is S–A–B–D alone; B–W coming back adds S–A–B–W–D and leaves the
    /// shortest S→D path at three hops.
    #[test]
    fn a_link_up_never_keeps_a_plan() {
        let net = fig2a_network();
        let dev = |n: &str| net.topology.expect_device(n);
        let (a, b, w) = (dev("A"), dev("B"), dev("W"));
        let (mut c, base, work) = counted(&net, "S .* D");
        // B–W first, so the scene B–W's return leads to is new.
        for ev in [TopologyEvent::LinkDown(b, w), TopologyEvent::LinkDown(a, w)] {
            c.topology_event(&ev, &net.topology, &base, 0).unwrap();
        }
        assert_eq!(c.plan().dpvnet.num_paths(), 1.0, "S-A-B-D");
        let before = work();
        let up = TopologyEvent::LinkUp(b, w);
        c.topology_event(&up, &net.topology, &base, 0).unwrap();
        assert_plans_are_fresh(&c, &net.topology, &base);
        assert_eq!(c.plan().dpvnet.num_paths(), 2.0);
        let after = work();
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 0));
    }

    /// A scene table belongs to a plan key, not to an id: an install
    /// after a removal is planned for its own invariant on every scene
    /// the removed intent had seen.
    #[test]
    fn an_install_after_a_removal_is_planned_for_its_own_invariant() {
        let net = fig2a_network();
        let (mut c, base) = control(&net, "S .* D");
        let dev = |n: &str| net.topology.expect_device(n);
        let flap = [
            TopologyEvent::LinkDown(dev("B"), dev("D")),
            TopologyEvent::LinkUp(dev("B"), dev("D")),
        ];
        for path in ["A .* D", "B .* D"] {
            let (id, _) = c.install(path, &plan_for(&net, path).0, 0).unwrap();
            for ev in &flap {
                c.topology_event(ev, &net.topology, &base, 0).unwrap();
                assert_plans_are_fresh(&c, &net.topology, &base);
            }
            c.remove(id, 0).unwrap();
        }
    }

    /// Parked installs read and fill the scene tables like live
    /// intents: an install under churn whose scene is a remembered
    /// refusal parks, and a parked retry on one burns its retry, with
    /// no planner run; a retry on a scene with a remembered slice
    /// unparks with none. Each answer is a table hit.
    #[test]
    fn parked_installs_read_the_scene_tables() {
        use tulkun_telemetry::TelemetryConfig;
        let net = fig2a_network();
        let (mut c, base) = control(&net, "S .* D");
        let tel = Telemetry::new(TelemetryConfig::enabled());
        c.set_telemetry(tel.clone());
        let dev = |n: &str| net.topology.expect_device(n);
        let mut spent = {
            let mut last = (0, 0);
            move || {
                let hits = counter(&tel, "tulkun_plan_table_hits_total");
                let now = (counter(&tel, "tulkun_planner_calls_total"), hits);
                let spent = (now.0 - last.0, now.1 - last.1);
                last = now;
                spent
            }
        };
        let apply = |c: &mut ControlPlane, ev: TopologyEvent| {
            c.topology_event(&ev, &net.topology, &base, 0).unwrap();
            assert_plans_are_fresh(c, &net.topology, &base);
        };
        let from_b = plan_for(&net, "B .* D").0;
        // The quiet scene's slice is remembered, then B goes down.
        let (id, _) = c.install("from-b", &from_b, 0).unwrap();
        c.remove(id, 0).unwrap();
        apply(&mut c, TopologyEvent::DeviceDown(dev("B")));
        assert_eq!(spent(), (2, 0), "the install; the base on a new scene");
        let (first, d) = c.install("first", &from_b, 0).unwrap();
        assert!(d.parked);
        assert_eq!(spent(), (1, 0), "the first install learns the refusal");
        let (second, d) = c.install("second", &from_b, 0).unwrap();
        assert!(d.parked);
        assert_eq!(spent(), (0, 1), "the second parks on it");
        // A new scene is planned once for both retries; returning to a
        // remembered refusal burns their retries for free.
        apply(&mut c, TopologyEvent::LinkDown(dev("B"), dev("D")));
        assert_eq!(spent(), (1, 1), "the base is outside the cut");
        apply(&mut c, TopologyEvent::LinkUp(dev("B"), dev("D")));
        assert_eq!(spent(), (0, 3), "every answer remembered");
        let retries: Vec<u32> = c.store.parked().map(|p| p.retries).collect();
        assert_eq!(retries, [2, 2]);
        // B's return is the remembered quiet scene: both land from it.
        apply(&mut c, TopologyEvent::DeviceUp(dev("B")));
        assert_eq!(spent(), (1, 2), "the base on quiet; both unparks hit");
        assert_eq!(c.store.parked_count(), 0);
        let plan = |id| Arc::clone(&c.store.get(id).unwrap().plan);
        assert!(Arc::ptr_eq(&plan(first), &plan(second)));
    }

    /// The plan key is everything the planner reads of an invariant.
    /// Against an intent that has planned the quiet scene and a link
    /// flap, a second intent that differs from it only in ingress, only
    /// in packet space or only in behavior plans its own — on install,
    /// beside it and after it is gone — while one that differs only in
    /// name is installed from its table and shares its plan pointer.
    #[test]
    fn intents_share_plans_exactly_when_only_their_names_differ() {
        use crate::count::CountExpr;
        use crate::spec::{Behavior, PathExpr};
        use tulkun_telemetry::TelemetryConfig;
        let net = fig2a_network();
        let dev = |n: &str| net.topology.expect_device(n);
        let flap = [
            TopologyEvent::LinkDown(dev("B"), dev("D")),
            TopologyEvent::LinkUp(dev("B"), dev("D")),
        ];
        let intent = |name: &str, space: &str, ingress: &str, path: &str| {
            let path = PathExpr::parse(path).unwrap().loop_free();
            Invariant::builder()
                .name(name)
                .packet_space(PacketSpace::dst_prefix(space))
                .ingress([ingress])
                .behavior(Behavior::exist(CountExpr::ge(1), path))
                .build()
                .unwrap()
        };
        let first = intent("first", "10.0.0.0/23", "A", ".* D");
        let others = [
            (
                "ingress",
                intent("first", "10.0.0.0/23", "B", ".* D"),
                false,
            ),
            ("space", intent("first", "10.0.0.0/24", "A", ".* D"), false),
            (
                "behavior",
                intent("first", "10.0.0.0/23", "A", ".* W .* D"),
                false,
            ),
            ("name", intent("second", "10.0.0.0/23", "A", ".* D"), true),
        ];
        for (differs_in, other, shares) in others {
            let (mut c, base) = control(&net, "S .* D");
            let tel = Telemetry::new(TelemetryConfig::enabled());
            c.set_telemetry(tel.clone());
            let work = || {
                let hits = counter(&tel, "tulkun_plan_table_hits_total");
                (counter(&tel, "tulkun_planner_calls_total"), hits)
            };
            let apply = |c: &mut ControlPlane, ev: &TopologyEvent| {
                c.topology_event(ev, &net.topology, &base, 0).unwrap();
                assert_plans_are_fresh(c, &net.topology, &base);
            };
            let (id, _) = c.install("first", &first, 0).unwrap();
            flap.iter().for_each(|ev| apply(&mut c, ev));
            let before = work();
            let (other_id, _) = c.install("other", &other, 0).unwrap();
            let after = work();
            let spent = (after.0 - before.0, after.1 - before.1);
            let hit = if shares { (0, 1) } else { (1, 0) };
            assert_eq!(spent, hit, "{differs_in}: planner calls, table hits");
            let plan = |c: &ControlPlane, id| Arc::clone(&c.store.get(id).unwrap().plan);
            let shared = Arc::ptr_eq(&plan(&c, id), &plan(&c, other_id));
            assert_eq!(shared, shares, "{differs_in}: one plan");
            assert_plans_are_fresh(&c, &net.topology, &base);
            flap.iter().for_each(|ev| apply(&mut c, ev));
            c.remove(id, 0).unwrap();
            flap.iter().for_each(|ev| apply(&mut c, ev));
        }
    }

    /// `exist >= 1` over `S D` on Fig. 2a: S and D are not adjacent, so
    /// no path is valid.
    fn no_valid_path() -> Invariant {
        Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(crate::spec::Behavior::exist(
                crate::count::CountExpr::ge(1),
                crate::spec::PathExpr::parse("S D").unwrap(),
            ))
            .build()
            .unwrap()
    }

    /// An install with no valid path never lands as an empty slice: it
    /// is refused on a quiet network with the re-planner's reason, and
    /// the refusal changes nothing; while a link is down it parks; once
    /// the flap has returned to the quiet topology it is refused again.
    #[test]
    fn an_install_with_no_valid_path_is_refused_quiet_and_parks_under_churn() {
        let net = fig2a_network();
        let dev = |n: &str| net.topology.expect_device(n);
        let (mut c, base) = control(&net, "S .* D");
        let inv = no_valid_path();
        let refused = |c: &mut ControlPlane| {
            let before = (fingerprint(c), c.epoch());
            let e = c.install("s-d", &inv, 0).unwrap_err();
            assert!(e.to_string().contains("slice has no DPVNet nodes"), "{e}");
            assert_eq!(
                (fingerprint(c), c.epoch()),
                before,
                "a refusal changed state"
            );
        };
        refused(&mut c);
        let (a, w) = (dev("A"), dev("W"));
        c.topology_event(&TopologyEvent::LinkDown(a, w), &net.topology, &base, 0)
            .unwrap();
        let (id, d) = c.install("s-d", &inv, 0).unwrap();
        assert!(d.parked && c.intents().is_parked(id));
        c.topology_event(&TopologyEvent::LinkUp(a, w), &net.topology, &base, 0)
            .unwrap();
        refused(&mut c);
        assert_eq!(c.store.live().count(), 1, "only the base intent is live");
    }

    /// A behavior the planner answers with local contracts has no slice
    /// to install: the re-planner refuses it on a quiet network, and the
    /// refusal changes nothing.
    #[test]
    fn a_local_contract_install_is_refused_and_changes_nothing() {
        let net = fig2a_network();
        let (mut c, _) = control(&net, "S .* D");
        let space = PacketSpace::dst_prefix("10.0.0.0/23");
        let equal = table1::all_shortest_path(space, "S", "D").unwrap();
        let before = (fingerprint(&c), c.epoch());
        let e = c.install("equal", &equal, 0).unwrap_err();
        assert!(
            e.to_string()
                .contains("runtime intents need a counting plan"),
            "{e}"
        );
        assert_eq!((fingerprint(&c), c.epoch()), before);
    }

    /// One counting profile per session, checked in one place: an
    /// install whose plan has another outcome-vector shape (two path
    /// expressions against the base's one) is refused quiet or under
    /// churn — never parked, since no scene would fix it — and the
    /// refusal changes nothing.
    #[test]
    fn an_install_of_another_counting_profile_is_refused_never_parked() {
        use crate::count::CountExpr;
        use crate::spec::{Behavior, PathExpr};
        let net = fig2a_network();
        let dev = |n: &str| net.topology.expect_device(n);
        let (mut c, base) = control(&net, "S .* D");
        let exist =
            |p: &str| Behavior::exist(CountExpr::ge(1), PathExpr::parse(p).unwrap().loop_free());
        let two = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(exist("S .* D").and(exist("S .* W .* D")))
            .build()
            .unwrap();
        let refused = |c: &mut ControlPlane| {
            let before = (fingerprint(c), c.epoch());
            let e = c.install("two", &two, 0).unwrap_err();
            assert!(e.to_string().contains("counting profile"), "{e}");
            assert_eq!((fingerprint(c), c.epoch()), before);
        };
        refused(&mut c);
        let down = TopologyEvent::LinkDown(dev("B"), dev("D"));
        c.topology_event(&down, &net.topology, &base, 0).unwrap();
        refused(&mut c);
        assert_eq!(c.intents().parked_count(), 0);
    }

    /// The scene tables answer for one base topology: an event naming
    /// another is an `Err` — before and after the base has recorded its
    /// invariant — that runs no planner, burns no epoch and changes
    /// nothing, while the same event on the control plane's own base is
    /// taken.
    #[test]
    fn an_event_naming_another_base_topology_is_refused() {
        let net = fig2a_network();
        let home = &net.topology;
        let dev = |n: &str| home.expect_device(n);
        let (mut c, base, work) = counted(&net, "S .* D");
        let scene = crate::fault::FaultScene::new([(dev("A"), dev("W"))]);
        let elsewhere = crate::fault::subtopology(home, &scene);
        let flap = [
            TopologyEvent::LinkDown(dev("B"), dev("D")),
            TopologyEvent::LinkUp(dev("B"), dev("D")),
        ];
        for ev in &flap {
            let before = (fingerprint(&c), c.epoch(), work());
            let e = c.topology_event(ev, &elsewhere, &base, 0).unwrap_err();
            assert!(e.to_string().contains("base topology"), "{e}");
            assert_eq!((fingerprint(&c), c.epoch(), work()), before);
            c.topology_event(ev, home, &base, 0).unwrap();
            assert_eq!(c.epoch(), before.1 + 1);
            assert_plans_are_fresh(&c, home, &base);
        }
    }

    /// A link event must name a link of the base: one between two
    /// devices the base does not link, a self-loop or an endpoint
    /// outside the topology is an `Err` that runs no planner, burns no
    /// epoch and leaves the churn state as it was; a real link is
    /// still taken afterwards.
    #[test]
    fn a_link_event_naming_no_link_is_refused() {
        let net = fig2a_network();
        let home = &net.topology;
        let dev = |n: &str| home.expect_device(n);
        let (mut c, base, work) = counted(&net, "S .* D");
        let (s, d) = (dev("S"), dev("D"));
        let outside = DeviceId(home.num_devices() as u32);
        let bogus = [
            TopologyEvent::LinkDown(s, d),
            TopologyEvent::LinkUp(s, d),
            TopologyEvent::LinkDown(s, s),
            TopologyEvent::LinkUp(d, d),
            TopologyEvent::LinkDown(s, outside),
        ];
        for ev in &bogus {
            let before = (fingerprint(&c), c.epoch(), work());
            let e = c.topology_event(ev, home, &base, 0).unwrap_err();
            assert!(e.to_string().contains("names no link"), "{e}");
            assert_eq!((fingerprint(&c), c.epoch(), work()), before);
        }
        let down = TopologyEvent::LinkDown(dev("B"), dev("D"));
        c.topology_event(&down, home, &base, 0).unwrap();
        assert_eq!(c.epoch(), 1);
    }

    /// The base intent records the invariant its first re-plan names;
    /// from then on an event naming another invariant is an `Err` that
    /// changes nothing, and the recorded one is still taken.
    #[test]
    fn an_event_naming_another_invariant_is_refused_once_the_base_records_its_own() {
        let net = fig2a_network();
        let home = &net.topology;
        let dev = |n: &str| home.expect_device(n);
        let (mut c, base) = control(&net, "S .* D");
        let recorded = |c: &ControlPlane| c.store.get(IntentId::BASE).unwrap().invariant.clone();
        assert_eq!(recorded(&c), None);
        let down = TopologyEvent::LinkDown(dev("B"), dev("D"));
        let up = TopologyEvent::LinkUp(dev("B"), dev("D"));
        c.topology_event(&down, home, &base, 0).unwrap();
        assert_eq!(recorded(&c), Some(base.clone()));
        let waypoint = plan_for(&net, "S .* W .* D").0;
        let before = (fingerprint(&c), c.epoch());
        let e = c.topology_event(&up, home, &waypoint, 0).unwrap_err();
        assert!(e.to_string().contains("base invariant"), "{e}");
        assert_eq!((fingerprint(&c), c.epoch()), before);
        c.topology_event(&up, home, &base, 0).unwrap();
        assert_eq!(c.epoch(), before.1 + 1);
        assert_plans_are_fresh(&c, home, &base);
    }

    /// A plan is kept across a link-down only for a live intent that
    /// carries its invariant; the base intent carries one only from its
    /// first re-plan on. Fig. 2a plus a link A–D, with the base
    /// `S .* W .* D` within one hop of the shortest S→D path: its slice
    /// is S–A–W–D alone, and losing B–W or B–D moves no distance it
    /// reads. The first cut still re-plans it; a later one keeps it.
    #[test]
    fn the_base_keeps_no_plan_across_a_cut_until_it_records_its_invariant() {
        use tulkun_telemetry::TelemetryConfig;
        let mut net = fig2a_network();
        let dev = |n: &str| net.topology.expect_device(n);
        let (a, b, w, d) = (dev("A"), dev("B"), dev("W"), dev("D"));
        net.topology.add_link(a, d, 1000);
        let base = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(crate::spec::Behavior::exist(
                crate::count::CountExpr::ge(1),
                crate::spec::PathExpr::parse("S .* W .* D")
                    .unwrap()
                    .loop_free()
                    .shortest_plus(1),
            ))
            .build()
            .unwrap();
        let planned = crate::planner::Planner::new(&net.topology).plan(&base);
        let cp = planned.unwrap().counting().unwrap().clone();
        let tel = Telemetry::new(TelemetryConfig::enabled());
        let mut c = ControlPlane::new(
            &net.topology,
            net.layout,
            &cp,
            &base.packet_space,
            tel.clone(),
        );
        let mut apply = |ev: TopologyEvent| {
            let work = || {
                let calls = counter(&tel, "tulkun_planner_calls_total");
                (calls, counter(&tel, "tulkun_plan_unaffected_total"))
            };
            let before = work();
            c.topology_event(&ev, &net.topology, &base, 0).unwrap();
            assert_plans_are_fresh(&c, &net.topology, &base);
            let after = work();
            (after.0 - before.0, after.1 - before.1)
        };
        assert_eq!(
            apply(TopologyEvent::LinkDown(b, w)),
            (1, 0),
            "not yet recorded"
        );
        apply(TopologyEvent::LinkUp(b, w));
        assert_eq!(apply(TopologyEvent::LinkDown(b, d)), (0, 1), "kept");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever the history — link and device churn, installs that
        /// land, park or are refused, removals, ids re-used by another
        /// invariant, topology events naming another base topology or
        /// invariant — every plan is the one a fresh planner makes (the
        /// scene tables cannot be seen), the node table is one the
        /// slices map onto (ids unique, every `to_global` entry
        /// resolves, an inherited id stays at its site and with an
        /// owner), a call that returns `Err` leaves the control plane
        /// as it found it, a call that returns `Ok` burns an epoch
        /// exactly when it fences, and an event naming another base
        /// topology, or another invariant once the base has recorded
        /// its own, is an `Err`.
        #[test]
        fn plans_match_a_fresh_planner_and_an_err_leaves_no_trace(
            (ops, ring) in (
                proptest::collection::vec((0usize..7, 0usize..60), 1..24),
                any::<bool>(),
            )
        ) {
            let world = if ring { ring_world() } else { fig2a_world() };
            let World { net, base, pool, events } = world;
            let (mut c, base) = control(&net, base);
            let home = &net.topology;
            let l = &home.links()[0];
            let elsewhere = crate::fault::subtopology(home, &crate::fault::FaultScene::new([(l.a, l.b)]));
            // Applies one op, holding the properties; returns `is_err`.
            let mut step = |kind: usize, i: usize| {
                let before = (fingerprint(&c), c.epoch());
                let names = c.store.names();
                let ev = &events[i % events.len()];
                let recorded = c.store.get(IntentId::BASE).is_some_and(|b| b.invariant.is_some());
                let foreign = kind == 5 || (kind == 6 && recorded);
                let result = match kind {
                    0 | 1 => c.topology_event(ev, home, &base, 0),
                    2 => c.install("p", &pool[i % pool.len()], 0).map(|(_, d)| d),
                    3 => c.install("again", &pool[i / 3 % pool.len()], 0).map(|(_, d)| d),
                    4 => c.remove(IntentId(i as u64 % 4), 0),
                    5 => c.topology_event(ev, &elsewhere, &base, 0),
                    // Until the base has recorded an invariant, the
                    // event that re-plans it first names the one it
                    // records: the base's own.
                    _ => c.topology_event(ev, home, if recorded { &pool[i % pool.len()] } else { &base }, 0),
                };
                match &result {
                    Err(_) => assert!(before.0 == fingerprint(&c), "Err mutated state"),
                    Ok(d) => assert_eq!(c.epoch(), before.1 + d.fence.is_some() as u64),
                }
                assert!(!foreign || result.is_err(), "a foreign event was taken");
                assert_plans_are_fresh(&c, home, &base);
                c.store.assert_consistent(Some(&names));
                result.is_err()
            };
            for (kind, i) in ops {
                step(kind, i);
            }
            // Whatever the history, these three are rejected: the base
            // cannot plan without its destination, the base is pinned,
            // and another base topology is not this control plane's.
            prop_assert!(step(0, 4) && step(4, 0) && step(5, 0));
        }
    }
}
