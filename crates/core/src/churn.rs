//! Runtime topology churn: epoch-fenced incremental re-planning.
//!
//! Live topology change is a first-class event, and the only way a
//! failed link reaches the verifiers: a scene declared in §3's
//! `fault_scenes` arrives as its link-downs like any other. A churn event
//! ([`TopologyEvent`]) folds into a cumulative [`ChurnState`], the
//! control plane ([`crate::control::ControlPlane::topology_event`])
//! re-plans every live intent against the post-churn topology and
//! diffs the resulting per-device task lists against the running ones,
//! and the runtime applies only the diff: devices with changed tasks
//! swap them in (a re-tasked node that gains an upstream edge tells
//! that one new listener its whole `CIBOut`), everything else only
//! learns the new epoch. LEC tables, BDD managers and FIB state are
//! untouched — re-planning is cheap exactly because the expensive
//! per-device state survives.
//!
//! The **epoch fence** makes this safe while messages are in flight:
//! every bump of the generation number invalidates envelopes stamped
//! with the old epoch (see [`crate::dvm::message::Envelope::epoch`]), so
//! results computed against the superseded DPVNet cannot corrupt the new
//! round. Only a fence that really discarded something pays for it: the
//! repair wave ([`crate::control::DeviceFence::reannounce`]) re-sends
//! every node's durable state and repairs exactly what those dropped
//! messages carried; a fence on a quiescent exchange skips it.

use crate::fault::{link_pair, subtopology, FaultScene, LinkPair};
use crate::intent::plan_intent_on;
use crate::spec::Invariant;
use std::collections::BTreeSet;
use tulkun_netmodel::topology::{DeviceId, Topology};

/// One live topology change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyEvent {
    /// The link between two devices failed.
    LinkDown(DeviceId, DeviceId),
    /// A previously failed link recovered.
    LinkUp(DeviceId, DeviceId),
    /// A device died: all its links fail and it is quarantined. Its
    /// fence share removes every node it hosted, so its verifier counts
    /// nothing and sends nothing, and the Report marks those nodes'
    /// last results unreachable.
    DeviceDown(DeviceId),
    /// A quarantined device came back. It hosts nothing, so its fence
    /// share creates the nodes the new plans put on it, and they count
    /// from scratch like any new node.
    DeviceUp(DeviceId),
}

impl TopologyEvent {
    /// A stable human/journal description, e.g. `"link-down d2-d3"`.
    pub fn describe(&self) -> String {
        self.render(|d| format!("d{}", d.0))
    }

    /// The description with `topo`'s device names, e.g.
    /// `"link-down SEAT-LOSA"`: what an operator reads.
    pub fn describe_on(&self, topo: &Topology) -> String {
        self.render(|d| topo.name(d).to_string())
    }

    fn render(&self, name: impl Fn(DeviceId) -> String) -> String {
        match self {
            TopologyEvent::LinkDown(a, b) => format!("link-down {}-{}", name(*a), name(*b)),
            TopologyEvent::LinkUp(a, b) => format!("link-up {}-{}", name(*a), name(*b)),
            TopologyEvent::DeviceDown(d) => format!("device-down {}", name(*d)),
            TopologyEvent::DeviceUp(d) => format!("device-up {}", name(*d)),
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

/// A deterministic sequence of churn events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule(pub Vec<TopologyEvent>);

impl ChurnSchedule {
    /// Generates `len` seeded link-churn events (downs and recoveries)
    /// that always leave the invariant plannable: each candidate event
    /// is admitted only if the live re-planner would accept the
    /// resulting cumulative state as a base slice
    /// ([`plan_intent_on`] — the rule itself, not a copy of it).
    /// Deterministic per `(seed, len)`; composes with the equally
    /// seeded message-fault profiles for chaos testing.
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
        let plannable =
            |churn: &ChurnState| plan_intent_on(&churn.apply_to(base), inv, churn).is_ok();
        if !plannable(&churn) {
            return ChurnSchedule(Vec::new());
        }
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
                if plannable(&trial) {
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
    use crate::control::{ControlPlane, FencePlan};
    use crate::intent::tests::{fig2a_network, plan_for};
    use crate::planner::NodeTask;
    use std::collections::BTreeMap;
    use tulkun_netmodel::network::Network;
    use tulkun_telemetry::Telemetry;

    /// A control plane over fig2a with the waypoint invariant as its
    /// base intent.
    fn control(net: &Network) -> (ControlPlane, Invariant) {
        let (inv, cp) = plan_for(net, "S .* W .* D");
        let tel = Telemetry::disabled();
        let c = ControlPlane::new(&net.topology, net.layout, &cp, &inv.packet_space, tel);
        (c, inv)
    }

    /// Applies one event and returns its fence (`None`: nothing changed).
    fn fence(
        c: &mut ControlPlane,
        net: &Network,
        inv: &Invariant,
        ev: TopologyEvent,
    ) -> Option<FencePlan> {
        c.topology_event(&ev, &net.topology, inv, 0).unwrap().fence
    }

    fn by_device(tasks: &[NodeTask]) -> BTreeMap<DeviceId, Vec<NodeTask>> {
        let mut by_dev: BTreeMap<DeviceId, Vec<NodeTask>> = BTreeMap::new();
        for t in tasks {
            by_dev.entry(t.dev).or_default().push(t.clone());
        }
        by_dev.values_mut().for_each(|l| l.sort_by_key(|t| t.node));
        by_dev
    }

    /// The per-device tasks after `fence` is applied to `before`: drop
    /// `remove`, then each re-tasked node replaces its old task.
    fn apply(before: &[NodeTask], fence: &FencePlan) -> BTreeMap<DeviceId, Vec<NodeTask>> {
        let mut tasks = by_device(before);
        for (dev, f) in &fence.devices {
            let list = tasks.entry(*dev).or_default();
            list.retain(|t| !f.remove.contains(&t.node));
            for (_, new) in &f.tasks {
                list.retain(|t| t.node != new.node);
                list.push(new.clone());
            }
            list.sort_by_key(|t| t.node);
        }
        tasks.retain(|_, l| !l.is_empty());
        tasks
    }

    #[test]
    fn an_event_names_its_devices_by_id_or_by_name() {
        let net = fig2a_network();
        let topo = &net.topology;
        let (a, w) = (topo.expect_device("A"), topo.expect_device("W"));
        let down = TopologyEvent::LinkDown(a, w);
        assert_eq!(down.describe(), format!("link-down d{}-d{}", a.0, w.0));
        assert_eq!(down.describe_on(topo), "link-down A-W");
        assert_eq!(TopologyEvent::DeviceUp(w).describe_on(topo), "device-up W");
    }

    #[test]
    fn link_down_then_up_round_trips() {
        let net = fig2a_network();
        let (mut c, inv) = control(&net);
        let base_tasks = by_device(&c.plan().tasks);
        let (a, b) = (
            net.topology.expect_device("A"),
            net.topology.expect_device("B"),
        );
        let crosses = |t: &NodeTask| {
            let hop = |d: DeviceId| [(t.dev, d), (d, t.dev)].contains(&(a, b));
            t.downstream.iter().any(|(_, d)| hop(*d))
        };
        assert!(c.intents().global_tasks().iter().any(crosses));
        let mut churn = ChurnState::new();
        assert!(churn.apply(&TopologyEvent::LinkDown(a, b)));
        assert!(!churn.apply(&TopologyEvent::LinkDown(b, a)), "idempotent");
        let down = fence(&mut c, &net, &inv, TopologyEvent::LinkDown(a, b)).unwrap();
        assert!(
            down.devices.values().any(|f| !f.tasks.is_empty()),
            "losing a link on valid paths must change some tasks"
        );
        let live = c.intents().global_tasks();
        assert!(!live.iter().any(crosses), "no task forwards over A-B");
        assert!(fence(&mut c, &net, &inv, TopologyEvent::LinkDown(b, a)).is_none());
        assert!(churn.apply(&TopologyEvent::LinkUp(a, b)));
        assert!(churn.is_quiet());
        fence(&mut c, &net, &inv, TopologyEvent::LinkUp(a, b)).unwrap();
        assert_eq!(
            by_device(&c.plan().tasks),
            base_tasks,
            "recovery restores the exact plan"
        );
    }

    #[test]
    fn device_down_isolates_and_quarantines() {
        let net = fig2a_network();
        let (mut c, inv) = control(&net);
        let b = net.topology.expect_device("B");
        // B had nodes in the old plan (paths S-A-B-W-D etc. cross it).
        assert!(c.intents().global_tasks().iter().any(|t| t.dev == b));
        let mut churn = ChurnState::new();
        churn.apply(&TopologyEvent::DeviceDown(b));
        assert!(churn.is_down(b));
        let before = c.intents().global_tasks();
        let down = fence(&mut c, &net, &inv, TopologyEvent::DeviceDown(b)).unwrap();
        assert!(
            down.devices[&b].tasks.is_empty(),
            "a quarantined device is never asked to recount"
        );
        assert!(c.intents().global_tasks().iter().all(|t| t.dev != b));
        assert_eq!(
            apply(&before, &down),
            by_device(&c.intents().global_tasks()),
            "the fence leaves the quarantined device hosting nothing"
        );
        let mut report = crate::verify::Report::default();
        c.annotate(&mut report, &BTreeMap::new());
        assert_eq!(report.quarantined, vec![b]);
        assert!(
            report
                .freshness
                .iter()
                .any(|(_, f)| *f == crate::verify::Freshness::Unreachable),
            "quarantined device's old nodes must be reported unreachable"
        );
    }

    #[test]
    fn fence_reconstructs_the_fresh_plan() {
        // Applying the fence (old − removed, re-tasked replaced) per
        // device must equal the post-churn task map exactly.
        let net = fig2a_network();
        let (mut c, inv) = control(&net);
        let before = c.intents().global_tasks();
        let (a, w) = (
            net.topology.expect_device("A"),
            net.topology.expect_device("W"),
        );
        let down = fence(&mut c, &net, &inv, TopologyEvent::LinkDown(a, w)).unwrap();
        assert_eq!(
            apply(&before, &down),
            by_device(&c.intents().global_tasks())
        );
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_plannable() {
        let net = fig2a_network();
        let topo = &net.topology;
        let (_, inv) = control(&net);
        let s1 = ChurnSchedule::seeded(topo, &inv, 7, 6);
        let s2 = ChurnSchedule::seeded(topo, &inv, 7, 6);
        assert_eq!(s1, s2, "same seed, same schedule");
        assert_eq!(s1.len(), 6);
        let s3 = ChurnSchedule::seeded(topo, &inv, 23, 6);
        assert_ne!(s1, s3, "different seeds should diverge on fig2a");
        // Every scheduled event is one the live control plane accepts
        // (seed 7 used to schedule a cut that still "planned" — onto an
        // empty DPVNet — which the re-planner refuses as a base slice).
        for seed in [7, 23] {
            let (mut c, inv) = control(&net);
            for ev in &ChurnSchedule::seeded(topo, &inv, seed, 6).0 {
                let decided = c.topology_event(ev, topo, &inv, 0);
                assert!(decided.is_ok(), "seed {seed}: {ev:?} refused: {decided:?}");
            }
        }
    }
}
