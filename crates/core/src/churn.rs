//! Runtime topology churn: epoch-fenced incremental re-planning.
//!
//! §3's `fault_scenes` cover *statically declared* failures; this module
//! makes live topology change a first-class event. A churn event
//! ([`TopologyEvent`]) folds into a cumulative [`ChurnState`], the
//! incremental re-planner ([`replan_for_churn`]) compiles the invariant
//! against the post-churn topology and diffs the resulting per-device
//! task lists against the running plan, and the runtime applies only the
//! diff: devices with changed tasks swap them in (a re-tasked node that
//! gains an upstream edge tells that one new listener its whole
//! `CIBOut`), everything else only learns the new epoch. LEC tables, BDD
//! managers and FIB state are untouched — re-planning is cheap exactly
//! because the expensive per-device state survives.
//!
//! The **epoch fence** makes this safe while messages are in flight:
//! every bump of the generation number invalidates envelopes stamped
//! with the old epoch (see [`crate::dvm::message::Envelope::epoch`]), so
//! results computed against the superseded DPVNet cannot corrupt the new
//! round. Only a fence that really discarded something pays for it: the
//! repair wave ([`crate::dvm::DeviceVerifier::reannounce`]) re-sends
//! every node's durable state and repairs exactly what those dropped
//! messages carried; a fence on a quiescent exchange skips it.

use crate::dpvnet::NodeId;
use crate::fault::{link_pair, subtopology, FaultScene, LinkPair};
use crate::planner::{CountingPlan, NodeTask, PlanError, Planner};
use crate::spec::Invariant;
use std::collections::{BTreeMap, BTreeSet};
use tulkun_netmodel::topology::{DeviceId, Topology};

/// One live topology change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyEvent {
    /// The link between two devices failed.
    LinkDown(DeviceId, DeviceId),
    /// A previously failed link recovered.
    LinkUp(DeviceId, DeviceId),
    /// A device died: all its links fail and it is quarantined (the
    /// runtime stops delivering to it and marks its results
    /// unreachable).
    DeviceDown(DeviceId),
    /// A quarantined device came back (the runtime reboots its verifier
    /// and replays neighbor state, as after a crash).
    DeviceUp(DeviceId),
}

impl TopologyEvent {
    /// A stable human/journal description, e.g. `"link-down d2-d3"`.
    pub fn describe(&self) -> String {
        match self {
            TopologyEvent::LinkDown(a, b) => format!("link-down d{}-d{}", a.0, b.0),
            TopologyEvent::LinkUp(a, b) => format!("link-up d{}-d{}", a.0, b.0),
            TopologyEvent::DeviceDown(d) => format!("device-down d{}", d.0),
            TopologyEvent::DeviceUp(d) => format!("device-up d{}", d.0),
        }
    }

    /// The device the event is primarily about (the first endpoint for
    /// link events) — the journal's attribution device.
    pub fn primary_device(&self) -> DeviceId {
        match self {
            TopologyEvent::LinkDown(a, _) | TopologyEvent::LinkUp(a, _) => *a,
            TopologyEvent::DeviceDown(d) | TopologyEvent::DeviceUp(d) => *d,
        }
    }
}

/// Cumulative churn: which links and devices are currently down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnState {
    down_links: BTreeSet<LinkPair>,
    down_devices: BTreeSet<DeviceId>,
}

impl ChurnState {
    /// The no-churn state.
    pub fn new() -> ChurnState {
        ChurnState::default()
    }

    /// Folds one event in; returns whether the state actually changed
    /// (a `LinkDown` of an already-down link does not).
    pub fn apply(&mut self, ev: &TopologyEvent) -> bool {
        match ev {
            TopologyEvent::LinkDown(a, b) => self.down_links.insert(link_pair(*a, *b)),
            TopologyEvent::LinkUp(a, b) => self.down_links.remove(&link_pair(*a, *b)),
            TopologyEvent::DeviceDown(d) => self.down_devices.insert(*d),
            TopologyEvent::DeviceUp(d) => self.down_devices.remove(d),
        }
    }

    /// Devices currently down (quarantined).
    pub fn down_devices(&self) -> &BTreeSet<DeviceId> {
        &self.down_devices
    }

    /// Links currently down by explicit link events (device-down links
    /// are implied, not listed here).
    pub fn down_links(&self) -> &BTreeSet<LinkPair> {
        &self.down_links
    }

    /// Is this device quarantined?
    pub fn is_down(&self, dev: DeviceId) -> bool {
        self.down_devices.contains(&dev)
    }

    /// Is any churn in effect?
    pub fn is_quiet(&self) -> bool {
        self.down_links.is_empty() && self.down_devices.is_empty()
    }

    /// The scene of failed links this state implies on `base`: explicit
    /// link failures plus every link incident to a down device.
    pub fn scene(&self, base: &Topology) -> FaultScene {
        let mut pairs: Vec<LinkPair> = self.down_links.iter().copied().collect();
        for l in base.links() {
            if self.down_devices.contains(&l.a) || self.down_devices.contains(&l.b) {
                pairs.push(link_pair(l.a, l.b));
            }
        }
        FaultScene::new(pairs)
    }

    /// The post-churn topology (device ids preserved; down devices stay
    /// present but isolated).
    pub fn apply_to(&self, base: &Topology) -> Topology {
        subtopology(base, &self.scene(base))
    }
}

/// What an incremental re-plan asks the runtime to do.
#[derive(Debug, Clone)]
pub struct ReplanDelta {
    /// The full post-churn counting plan (becomes the runtime's plan).
    pub plan: CountingPlan,
    /// The post-churn topology the plan was compiled against.
    pub topology: Topology,
    /// Per device: the new task list, present only where it differs
    /// from the old plan. These devices swap tasks and recount.
    pub changed: BTreeMap<DeviceId, Vec<NodeTask>>,
    /// Per device: nodes of the old plan no longer assigned to it.
    pub removed: BTreeMap<DeviceId, Vec<NodeId>>,
    /// Nodes of the *old* plan hosted on now-quarantined devices; their
    /// last results are reported `Unreachable`, not recomputed.
    pub unreachable: Vec<(NodeId, DeviceId)>,
    /// Nodes in the new plan.
    pub total_nodes: usize,
    /// Nodes whose task survived the re-plan verbatim (no recount).
    pub reused_nodes: usize,
}

impl ReplanDelta {
    /// Devices whose task list changed (must recount).
    pub fn changed_devices(&self) -> usize {
        self.changed.len()
    }
}

fn tasks_by_device(tasks: &[NodeTask]) -> BTreeMap<DeviceId, Vec<NodeTask>> {
    let mut by_dev: BTreeMap<DeviceId, Vec<NodeTask>> = BTreeMap::new();
    for t in tasks {
        by_dev.entry(t.dev).or_default().push(t.clone());
    }
    for list in by_dev.values_mut() {
        list.sort_by_key(|t| t.node);
    }
    by_dev
}

/// Re-plans the invariant against the post-churn topology and diffs the
/// result against the running plan.
///
/// The diff is per device: a device appears in `changed` iff its sorted
/// task list differs from the old plan's (new nodes, dropped nodes, or
/// re-wired neighbor lists all count), and in `removed` with the node
/// ids it must forget. Everything else keeps its counting state and has
/// nothing to send.
///
/// Fails with the planner's error when the post-churn topology no longer
/// supports the invariant at all (e.g. the destination is unreachable
/// from every ingress); the caller decides whether to keep verifying the
/// old epoch or surface the error.
pub fn replan_for_churn(
    base: &Topology,
    inv: &Invariant,
    old: &CountingPlan,
    churn: &ChurnState,
) -> Result<ReplanDelta, PlanError> {
    let topology = churn.apply_to(base);
    let plan = Planner::new(&topology).plan(inv)?;
    let new = plan
        .counting()
        .ok_or_else(|| PlanError::Unsupported("churn re-planning needs a counting plan".into()))?
        .clone();

    let old_by_dev = tasks_by_device(&old.tasks);
    let new_by_dev = tasks_by_device(&new.tasks);
    let mut changed = BTreeMap::new();
    let mut removed = BTreeMap::new();
    let mut unreachable = Vec::new();
    let mut reused_nodes = 0;
    let devices: BTreeSet<DeviceId> = old_by_dev
        .keys()
        .chain(new_by_dev.keys())
        .copied()
        .collect();
    for dev in devices {
        let old_tasks = old_by_dev.get(&dev);
        let new_tasks = new_by_dev.get(&dev);
        if churn.is_down(dev) {
            // Quarantined: its old nodes become unreachable; it is not
            // asked to recount (the planner assigns it nothing anyway —
            // no path crosses an isolated device).
            if let Some(old_tasks) = old_tasks {
                unreachable.extend(old_tasks.iter().map(|t| (t.node, dev)));
            }
            continue;
        }
        match (old_tasks, new_tasks) {
            (Some(o), Some(n)) if o == n => {
                reused_nodes += n.len();
            }
            (o, n) => {
                if let Some(n) = n {
                    changed.insert(dev, n.clone());
                }
                let kept: BTreeSet<NodeId> = n
                    .map(|n| n.iter().map(|t| t.node).collect())
                    .unwrap_or_default();
                let gone: Vec<NodeId> = o
                    .map(|o| {
                        o.iter()
                            .map(|t| t.node)
                            .filter(|id| !kept.contains(id))
                            .collect()
                    })
                    .unwrap_or_default();
                if !gone.is_empty() {
                    removed.insert(dev, gone);
                }
            }
        }
    }
    Ok(ReplanDelta {
        total_nodes: new.tasks.len(),
        plan: new,
        topology,
        changed,
        removed,
        unreachable,
        reused_nodes,
    })
}

/// A deterministic sequence of churn events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule(pub Vec<TopologyEvent>);

impl ChurnSchedule {
    /// Generates `len` seeded link-churn events (downs and recoveries)
    /// that always leave the invariant plannable: each candidate event
    /// is admitted only if re-planning the resulting cumulative state
    /// succeeds. Deterministic per `(seed, len)`; composes with the
    /// equally seeded message-fault profiles for chaos testing.
    pub fn seeded(base: &Topology, inv: &Invariant, seed: u64, len: usize) -> ChurnSchedule {
        // xorshift, as in `sample_scenes` — reproducible without a rand
        // dependency in core.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let all_links: Vec<LinkPair> = base.links().iter().map(|l| link_pair(l.a, l.b)).collect();
        let mut churn = ChurnState::new();
        let old = match Planner::new(base)
            .plan(inv)
            .ok()
            .and_then(|p| p.counting().cloned())
        {
            Some(cp) => cp,
            None => return ChurnSchedule(Vec::new()),
        };
        let mut events = Vec::new();
        'outer: while events.len() < len {
            // Candidates: recover any down link, or fail any up link.
            let mut cands: Vec<TopologyEvent> = churn
                .down_links()
                .iter()
                .map(|(a, b)| TopologyEvent::LinkUp(*a, *b))
                .collect();
            cands.extend(
                all_links
                    .iter()
                    .filter(|p| !churn.down_links().contains(*p))
                    .map(|(a, b)| TopologyEvent::LinkDown(*a, *b)),
            );
            // Random order; first plannable candidate wins.
            for _ in 0..cands.len() {
                let i = (next() as usize) % cands.len();
                let ev = cands.swap_remove(i);
                let mut trial = churn.clone();
                trial.apply(&ev);
                if replan_for_churn(base, inv, &old, &trial).is_ok() {
                    churn = trial;
                    events.push(ev);
                    continue 'outer;
                }
                if cands.is_empty() {
                    break;
                }
            }
            break;
        }
        ChurnSchedule(events)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{table1, PacketSpace};

    fn fig2a_topo() -> Topology {
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
        t.add_external_prefix(d, "10.0.0.0/23".parse().unwrap());
        t
    }

    fn waypoint() -> Invariant {
        table1::waypoint(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "W", "D").unwrap()
    }

    fn base_plan(topo: &Topology, inv: &Invariant) -> CountingPlan {
        Planner::new(topo)
            .plan(inv)
            .unwrap()
            .counting()
            .unwrap()
            .clone()
    }

    #[test]
    fn no_churn_diffs_to_nothing() {
        let topo = fig2a_topo();
        let inv = waypoint();
        let old = base_plan(&topo, &inv);
        let delta = replan_for_churn(&topo, &inv, &old, &ChurnState::new()).unwrap();
        assert!(delta.changed.is_empty(), "identical plan must diff empty");
        assert!(delta.removed.is_empty());
        assert!(delta.unreachable.is_empty());
        assert_eq!(delta.reused_nodes, delta.total_nodes);
    }

    #[test]
    fn link_down_then_up_round_trips() {
        let topo = fig2a_topo();
        let inv = waypoint();
        let old = base_plan(&topo, &inv);
        let a = topo.expect_device("A");
        let b = topo.expect_device("B");
        let mut churn = ChurnState::new();
        assert!(churn.apply(&TopologyEvent::LinkDown(a, b)));
        assert!(!churn.apply(&TopologyEvent::LinkDown(b, a)), "idempotent");
        let down = replan_for_churn(&topo, &inv, &old, &churn).unwrap();
        assert!(
            !down.changed.is_empty(),
            "losing a link on valid paths must change some tasks"
        );
        assert_eq!(down.topology.num_links(), topo.num_links() - 1);
        assert!(churn.apply(&TopologyEvent::LinkUp(a, b)));
        assert!(churn.is_quiet());
        let up = replan_for_churn(&topo, &inv, &old, &churn).unwrap();
        assert!(up.changed.is_empty(), "recovery restores the exact plan");
        assert_eq!(up.reused_nodes, old.tasks.len());
    }

    #[test]
    fn device_down_isolates_and_quarantines() {
        let topo = fig2a_topo();
        let inv = waypoint();
        let old = base_plan(&topo, &inv);
        let b = topo.expect_device("B");
        let mut churn = ChurnState::new();
        churn.apply(&TopologyEvent::DeviceDown(b));
        assert!(churn.is_down(b));
        let delta = replan_for_churn(&topo, &inv, &old, &churn).unwrap();
        // B had nodes in the old plan (paths S-A-B-W-D etc. cross it).
        assert!(
            delta.unreachable.iter().any(|(_, d)| *d == b),
            "quarantined device's old nodes must be reported unreachable"
        );
        assert!(
            !delta.changed.contains_key(&b),
            "a quarantined device is never asked to recount"
        );
        assert!(delta.plan.tasks.iter().all(|t| t.dev != b));
        // All B links are gone from the post-churn topology.
        for l in delta.topology.links() {
            assert!(l.a != b && l.b != b);
        }
    }

    #[test]
    fn delta_reconstructs_the_fresh_plan() {
        // Applying (changed ∪ kept-old − removed) per device must equal
        // the fresh plan's task map exactly.
        let topo = fig2a_topo();
        let inv = waypoint();
        let old = base_plan(&topo, &inv);
        let a = topo.expect_device("A");
        let w = topo.expect_device("W");
        let mut churn = ChurnState::new();
        churn.apply(&TopologyEvent::LinkDown(a, w));
        let delta = replan_for_churn(&topo, &inv, &old, &churn).unwrap();
        let mut rebuilt = tasks_by_device(&old.tasks);
        for (dev, gone) in &delta.removed {
            if let Some(list) = rebuilt.get_mut(dev) {
                list.retain(|t| !gone.contains(&t.node));
            }
        }
        for (dev, tasks) in &delta.changed {
            rebuilt.insert(*dev, tasks.clone());
        }
        rebuilt.retain(|_, v| !v.is_empty());
        assert_eq!(rebuilt, tasks_by_device(&delta.plan.tasks));
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_plannable() {
        let topo = fig2a_topo();
        let inv = waypoint();
        let s1 = ChurnSchedule::seeded(&topo, &inv, 7, 6);
        let s2 = ChurnSchedule::seeded(&topo, &inv, 7, 6);
        assert_eq!(s1, s2, "same seed, same schedule");
        assert_eq!(s1.len(), 6);
        let s3 = ChurnSchedule::seeded(&topo, &inv, 23, 6);
        assert_ne!(s1, s3, "different seeds should diverge on fig2a");
        // Every prefix of the schedule leaves the invariant plannable.
        let old = base_plan(&topo, &inv);
        let mut churn = ChurnState::new();
        for ev in &s1.0 {
            churn.apply(ev);
            replan_for_churn(&topo, &inv, &old, &churn).unwrap();
        }
    }
}
