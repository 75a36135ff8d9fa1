//! Divide-and-conquer verification for very large path sets (§7).
//!
//! For invariants whose valid path set is too large for one DPVNet, the
//! paper proposes dividing the network into partitions abstracted as
//! "one big switch" each, constructing the DPVNet on the abstract
//! network, and running intra-/inter-partition verification. The same
//! mechanism powers incremental deployment (§7): each partition can be
//! verified by one off-device instance.
//!
//! This module implements that scheme for reachability invariants
//! (`src .* dst`, `exist >= 1`), and makes the combination **sound and
//! complete** with respect to flat verification:
//!
//! * [`Partitioning`] — groups devices into connected regions
//!   (operator-provided, or [`Partitioning::by_regions`]).
//! * [`plan_hierarchical`] — builds, per partition, a subnetwork where
//!   every *foreign neighbor* device is replaced by a virtual egress
//!   that delivers everything, plus one *intra task* per entry border:
//!   a single counting session from the entry whose path expressions
//!   track, per packet universe, whether the packets reach the
//!   destination inside the partition and/or which foreign entries
//!   they are handed over to.
//! * [`verify_hierarchical`] — runs the intra tasks (independently —
//!   each partition is its own verification domain) and combines the
//!   per-universe handover predicates with a least fixed point over the
//!   entry graph: a universe is delivered from entry `e` iff, under
//!   every nondeterministic forwarding outcome, it reaches the
//!   destination inside `e`'s partition or is handed to a foreign
//!   entry from which it is (recursively) delivered. The least fixed
//!   point makes cross-partition forwarding loops fail naturally, and
//!   detours that leave a partition and re-enter it later are followed
//!   instead of being miscounted as losses.
//!
//! Why completeness needs the fixed point: real FIB paths do not
//! respect region boundaries — a shortest path toward the destination
//! region may cut through a third region or leave the destination
//! region and come back. A per-partition check that requires packets
//! to stay inside the partition until the next hop on an abstract
//! shortest-path DAG rejects such networks even though the invariant
//! holds; following the observed handovers entry-by-entry accepts
//! exactly the networks flat verification accepts.

use crate::count::{CountExpr, Counts};
use crate::planner::{PlanError, Planner, PlannerOptions};
use crate::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use crate::verify::Session;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tulkun_bdd::serial;
use tulkun_bdd::{BddManager, Pred};
use tulkun_netmodel::fib::{Action, Fib, NextHop, Rule};
use tulkun_netmodel::network::Network;
use tulkun_netmodel::topology::{DeviceId, Topology};

/// A partition of the device set into named groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    groups: Vec<Vec<DeviceId>>,
    /// Device → group index.
    of: Vec<usize>,
}

impl Partitioning {
    /// Builds a partitioning from explicit groups (must cover every
    /// device exactly once).
    pub fn new(topo: &Topology, groups: Vec<Vec<DeviceId>>) -> Result<Partitioning, PlanError> {
        let n = topo.num_devices();
        let mut of = vec![usize::MAX; n];
        for (gi, g) in groups.iter().enumerate() {
            for d in g {
                if of[d.idx()] != usize::MAX {
                    return Err(PlanError::Unsupported(format!(
                        "device {} in two partitions",
                        topo.name(*d)
                    )));
                }
                of[d.idx()] = gi;
            }
        }
        if of.contains(&usize::MAX) {
            return Err(PlanError::Unsupported(
                "partitioning does not cover all devices".into(),
            ));
        }
        Ok(Partitioning { groups, of })
    }

    /// Grows `k` connected regions by parallel BFS from spread-out
    /// seeds.
    pub fn by_regions(topo: &Topology, k: usize) -> Partitioning {
        let n = topo.num_devices();
        let k = k.clamp(1, n);
        // Seeds: greedy farthest-point sampling.
        let mut seeds = vec![DeviceId(0)];
        while seeds.len() < k {
            let mut best = (0u32, DeviceId(0));
            for d in topo.devices() {
                let mind = seeds
                    .iter()
                    .map(|s| topo.bfs_hops(*s, &[])[d.idx()])
                    .min()
                    .unwrap_or(0);
                if mind != u32::MAX && mind > best.0 {
                    best = (mind, d);
                }
            }
            if best.0 == 0 {
                break;
            }
            seeds.push(best.1);
        }
        // Multi-source BFS assignment.
        let mut of = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        for (gi, s) in seeds.iter().enumerate() {
            of[s.idx()] = gi;
            queue.push_back(*s);
        }
        while let Some(d) = queue.pop_front() {
            for &(nb, _) in topo.neighbors(d) {
                if of[nb.idx()] == usize::MAX {
                    of[nb.idx()] = of[d.idx()];
                    queue.push_back(nb);
                }
            }
        }
        // Unreached devices (disconnected): own group 0.
        for g in of.iter_mut() {
            if *g == usize::MAX {
                *g = 0;
            }
        }
        let mut groups = vec![Vec::new(); seeds.len()];
        for d in topo.devices() {
            groups[of[d.idx()]].push(d);
        }
        Partitioning { groups, of }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when there is a single group.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group index of a device.
    pub fn group_of(&self, d: DeviceId) -> usize {
        self.of[d.idx()]
    }

    /// Devices of one group.
    pub fn group(&self, gi: usize) -> &[DeviceId] {
        &self.groups[gi]
    }
}

/// Where one of an intra task's path expressions leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressTarget {
    /// The concrete destination inside this partition.
    Destination,
    /// A handover: the foreign entry device (full-network id) on the
    /// other end of a cut link.
    Entry(DeviceId),
}

/// One partition's abstracted subnetwork.
#[derive(Debug, Clone)]
pub struct GroupSubnet {
    /// Partition devices plus one virtual egress per foreign neighbor.
    pub subnet: Network,
    /// Full-network device → subnetwork device, for partition members.
    pub dev_map: BTreeMap<DeviceId, DeviceId>,
    /// Foreign neighbor (full-network id) → its virtual egress device.
    pub egress: BTreeMap<DeviceId, DeviceId>,
}

/// One intra-partition counting session: packets entering the
/// partition at `entry` are traced to the destination and to every
/// virtual egress, in one session with one path expression per target.
#[derive(Debug, Clone)]
pub struct IntraTask {
    /// The partition index.
    pub group: usize,
    /// The entry device (full-network id); also the source partition's
    /// ingress.
    pub entry: DeviceId,
    /// The multi-target sub-invariant verified on the group subnet.
    pub invariant: Invariant,
    /// Targets, index-aligned with the invariant's path expressions
    /// (and thus with outcome-vector components).
    pub targets: Vec<EgressTarget>,
}

/// The hierarchical plan: per-group subnetworks plus intra tasks keyed
/// by entry device.
#[derive(Debug)]
pub struct HierarchicalPlan {
    /// The device grouping.
    pub partitioning: Partitioning,
    /// Undirected group adjacency `(min, max)` — for display.
    pub abstract_edges: Vec<(usize, usize)>,
    /// The source device's partition.
    pub src_group: usize,
    /// The destination device's partition.
    pub dst_group: usize,
    /// The source device.
    pub src: DeviceId,
    /// The destination device.
    pub dst: DeviceId,
    /// The invariant's packet space.
    pub packet_space: PacketSpace,
    /// One abstracted subnetwork per group.
    pub group_subnets: Vec<GroupSubnet>,
    /// All intra-partition sessions.
    pub tasks: Vec<IntraTask>,
}

/// Plans a reachability invariant hierarchically. Supports
/// single-source `exist >= 1` behaviors with an unfiltered
/// `src .* dst` expression (`loop_free` is fine: a cross-partition
/// walk that reaches the destination always contains a loop-free
/// path).
pub fn plan_hierarchical(
    net: &Network,
    inv: &Invariant,
    partitioning: Partitioning,
) -> Result<HierarchicalPlan, PlanError> {
    let topo = &net.topology;
    let (src, dst) = extract_reachability(inv, topo)?;
    let sg = partitioning.group_of(src);
    let dg = partitioning.group_of(dst);

    // Group adjacency (display) and entry borders: every endpoint of a
    // cut link is an entry of its own group.
    let mut abstract_edges = BTreeSet::new();
    let mut entries: BTreeSet<DeviceId> = BTreeSet::new();
    for l in topo.links() {
        let (ga, gb) = (partitioning.group_of(l.a), partitioning.group_of(l.b));
        if ga != gb {
            abstract_edges.insert((ga.min(gb), ga.max(gb)));
            entries.insert(l.a);
            entries.insert(l.b);
        }
    }
    entries.insert(src);

    let group_subnets: Vec<GroupSubnet> = (0..partitioning.len())
        .map(|g| make_group_subnet(net, &partitioning, g))
        .collect();

    let mut tasks = Vec::new();
    for &entry in &entries {
        let g = partitioning.group_of(entry);
        let task = make_intra_task(topo, inv, &group_subnets[g], g, entry, dst)?;
        match task {
            Some(t) => tasks.push(t),
            None if entry == src => {
                return Err(PlanError::Unsupported(
                    "source partition has no egress and no destination".into(),
                ))
            }
            None => {}
        }
    }
    Ok(HierarchicalPlan {
        partitioning,
        abstract_edges: abstract_edges.into_iter().collect(),
        src_group: sg,
        dst_group: dg,
        src,
        dst,
        packet_space: inv.packet_space.clone(),
        group_subnets,
        tasks,
    })
}

/// The hierarchical verdict.
#[derive(Debug, Clone)]
pub struct HierarchicalReport {
    /// Does the invariant hold across partitions?
    pub holds: bool,
    /// Used entries from which some in-scope packets are not
    /// delivered, as `(group, entry)`. The source appears here when
    /// the invariant fails.
    pub failed: Vec<(usize, DeviceId)>,
    /// Intra sessions run (each is an independent verification
    /// domain).
    pub sessions: usize,
}

/// Runs every intra task and combines the per-universe handover
/// predicates with a least fixed point over the entry graph.
pub fn verify_hierarchical(hp: &HierarchicalPlan) -> HierarchicalReport {
    let layout = hp.group_subnets[hp.src_group].subnet.layout;
    let mut m = BddManager::new(layout.num_vars());
    let space = hp.packet_space.compile(&mut m, &layout);

    // Run each intra session and import its per-universe results into
    // the shared manager.
    struct EntryResult {
        group: usize,
        targets: Vec<EgressTarget>,
        universes: Vec<(Pred, Counts)>,
    }
    let mut results: BTreeMap<DeviceId, EntryResult> = BTreeMap::new();
    for t in &hp.tasks {
        let gs = &hp.group_subnets[t.group];
        let planner = Planner::with_options(
            &gs.subnet.topology,
            PlannerOptions {
                skip_consistency_check: true,
                ..Default::default()
            },
        );
        let mut universes = Vec::new();
        if let Ok(plan) = planner.plan(&t.invariant) {
            let mut session = Session::new(&gs.subnet, &plan);
            session.run_to_quiescence();
            let sub_entry = gs.dev_map[&t.entry];
            let sources: Vec<_> = plan_sources(&plan, sub_entry);
            for node in sources {
                if let Some(v) = session.verifier_mut(sub_entry) {
                    for (pred, counts) in v.node_result(node, None).iter() {
                        if let Ok(p) = serial::import(&mut m, pred) {
                            universes.push((p, counts.clone()));
                        }
                    }
                }
            }
        }
        // A task whose plan fails (e.g. path explosion) keeps an empty
        // universe list: nothing is delivered from it — conservative.
        results.insert(
            t.entry,
            EntryResult {
                group: t.group,
                targets: t.targets.clone(),
                universes,
            },
        );
    }

    // Least fixed point: delivered(e) = set of packets that, from
    // entry e, reach the destination under every forwarding outcome —
    // directly or through recursively-delivered handovers.
    let mut delivered: BTreeMap<DeviceId, Pred> =
        results.keys().map(|&e| (e, Pred::FALSE)).collect();
    let cap = 2 * results.len() + 2;
    for _ in 0..cap {
        let mut changed = false;
        for (&e, res) in &results {
            let mut acc = Pred::FALSE;
            for (pred, counts) in &res.universes {
                // AND over nondeterministic outcomes; OR over the
                // handovers each outcome can use.
                let mut univ_ok = Pred::TRUE;
                for v in counts.iter() {
                    let mut out_ok = Pred::FALSE;
                    for (j, tgt) in res.targets.iter().enumerate() {
                        if v.get(j).copied().unwrap_or(0) == 0 {
                            continue;
                        }
                        match tgt {
                            EgressTarget::Destination => out_ok = Pred::TRUE,
                            EgressTarget::Entry(y) => {
                                let dy = delivered.get(y).copied().unwrap_or(Pred::FALSE);
                                out_ok = m.or(out_ok, dy);
                            }
                        }
                        if out_ok == Pred::TRUE {
                            break;
                        }
                    }
                    univ_ok = m.and(univ_ok, out_ok);
                    if univ_ok == Pred::FALSE {
                        break;
                    }
                }
                let good = m.and(*pred, univ_ok);
                acc = m.or(acc, good);
            }
            acc = m.and(acc, space);
            if acc != delivered[&e] {
                delivered.insert(e, acc);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Used entries: reachable from the source in the handover graph,
    // restricted to handovers some in-scope universe actually takes.
    let mut used: BTreeSet<DeviceId> = BTreeSet::new();
    let mut q = VecDeque::from([hp.src]);
    used.insert(hp.src);
    while let Some(e) = q.pop_front() {
        let Some(res) = results.get(&e) else { continue };
        for (pred, counts) in &res.universes {
            if m.and(*pred, space) == Pred::FALSE {
                continue;
            }
            for v in counts.iter() {
                for (j, tgt) in res.targets.iter().enumerate() {
                    if v.get(j).copied().unwrap_or(0) == 0 {
                        continue;
                    }
                    if let EgressTarget::Entry(y) = tgt {
                        if used.insert(*y) {
                            q.push_back(*y);
                        }
                    }
                }
            }
        }
    }

    let src_ok = delivered.get(&hp.src).copied().unwrap_or(Pred::FALSE);
    let holds = m.implies(space, src_ok);
    let mut failed = Vec::new();
    if !holds {
        for (&e, res) in &results {
            if !used.contains(&e) {
                continue;
            }
            if !m.implies(space, delivered[&e]) {
                failed.push((res.group, e));
            }
        }
    }
    HierarchicalReport {
        holds,
        failed,
        sessions: hp.tasks.len(),
    }
}

/// Source DPVNet nodes of `plan` rooted at `dev`.
fn plan_sources(plan: &crate::planner::Plan, dev: DeviceId) -> Vec<crate::dpvnet::NodeId> {
    match &plan.kind {
        crate::planner::PlanKind::Counting(cp) => cp
            .dpvnet
            .sources()
            .iter()
            .filter(|(d, _)| *d == dev)
            .map(|(_, n)| *n)
            .collect(),
        crate::planner::PlanKind::Local(_) => Vec::new(),
    }
}

/// Extracts `(src, dst)` from a supported reachability invariant.
fn extract_reachability(
    inv: &Invariant,
    topo: &Topology,
) -> Result<(DeviceId, DeviceId), PlanError> {
    let Behavior::Exist { count, path } = &inv.behavior else {
        return Err(PlanError::Unsupported(
            "hierarchical planning supports single `exist` reachability".into(),
        ));
    };
    if *count != CountExpr::Ge(1) {
        return Err(PlanError::Unsupported(
            "hierarchical planning supports `exist >= 1` (path counts do not compose across partitions)"
                .into(),
        ));
    }
    if !path.filters.is_empty() {
        return Err(PlanError::Unsupported(
            "hierarchical planning does not support length filters (lengths do not compose across partitions)"
                .into(),
        ));
    }
    if inv.ingress.len() != 1 {
        return Err(PlanError::Unsupported(
            "hierarchical planning needs one ingress".into(),
        ));
    }
    let devs = path.regex.referenced_devices();
    if devs.len() != 2 {
        return Err(PlanError::Unsupported(
            "expected a `src .* dst` expression".into(),
        ));
    }
    let src = topo
        .device(&inv.ingress[0])
        .ok_or_else(|| PlanError::UnknownDevice(inv.ingress[0].clone()))?;
    let dst_name = devs.iter().find(|d| **d != inv.ingress[0]).unwrap();
    let dst = topo
        .device(dst_name)
        .ok_or_else(|| PlanError::UnknownDevice(dst_name.to_string()))?;
    Ok((src, dst))
}

/// Builds one group's subnetwork: partition devices plus one virtual
/// egress per foreign neighbor device (so the reached egress identifies
/// the exact remote entry), each delivering everything it receives.
fn make_group_subnet(net: &Network, partitioning: &Partitioning, group: usize) -> GroupSubnet {
    let topo = &net.topology;
    let members: BTreeSet<DeviceId> = partitioning.group(group).iter().copied().collect();

    let mut sub = Topology::new();
    let mut dev_map: BTreeMap<DeviceId, DeviceId> = BTreeMap::new();
    for &d in &members {
        dev_map.insert(d, sub.add_device(topo.name(d)));
    }
    let mut egress: BTreeMap<DeviceId, DeviceId> = BTreeMap::new();
    for l in topo.links() {
        let (ga, gb) = (partitioning.group_of(l.a), partitioning.group_of(l.b));
        if ga == group && gb == group {
            sub.add_link(dev_map[&l.a], dev_map[&l.b], l.latency_ns);
        } else if ga == group || gb == group {
            let (inside, foreign) = if ga == group { (l.a, l.b) } else { (l.b, l.a) };
            let v = *egress
                .entry(foreign)
                .or_insert_with(|| sub.add_device(format!("__to_{}", topo.name(foreign))));
            if sub.link_between(dev_map[&inside], v).is_none() {
                sub.add_link(dev_map[&inside], v, l.latency_ns);
            }
        }
    }

    // FIBs: members keep their rules with foreign next hops remapped to
    // the matching virtual egress; egresses deliver everything.
    let mut subnet = Network::new(sub);
    for &d in &members {
        let mut fib = Fib::new();
        for rule in net.fib(d).rules() {
            let action = remap_action(&rule.action, &members, &dev_map, &egress);
            fib.insert(Rule {
                priority: rule.priority,
                matches: rule.matches,
                action,
            });
        }
        *subnet.fib_mut(dev_map[&d]) = fib;
    }
    for &v in egress.values() {
        subnet.fib_mut(v).insert(Rule {
            priority: 0,
            matches: tulkun_netmodel::fib::MatchSpec::dst(tulkun_netmodel::IpPrefix::new(0, 0)),
            action: Action::deliver(),
        });
    }
    GroupSubnet {
        subnet,
        dev_map,
        egress,
    }
}

/// Builds the intra task for one entry: a single session whose path
/// expressions track the destination (when it lives in this group) and
/// every virtual egress. Returns `None` when the group has no targets
/// at all (an isolated group without the destination).
fn make_intra_task(
    topo: &Topology,
    inv: &Invariant,
    gs: &GroupSubnet,
    group: usize,
    entry: DeviceId,
    dst: DeviceId,
) -> Result<Option<IntraTask>, PlanError> {
    let entry_name = gs.subnet.topology.name(gs.dev_map[&entry]).to_string();
    let mut targets = Vec::new();
    let mut target_names = Vec::new();
    if let Some(&sub_dst) = gs.dev_map.get(&dst) {
        targets.push(EgressTarget::Destination);
        target_names.push(gs.subnet.topology.name(sub_dst).to_string());
    }
    for (&foreign, &v) in &gs.egress {
        targets.push(EgressTarget::Entry(foreign));
        target_names.push(gs.subnet.topology.name(v).to_string());
    }
    if targets.is_empty() {
        return Ok(None);
    }

    let mut behavior: Option<Behavior> = None;
    for name in &target_names {
        // When the entry IS the destination, the delivering path is the
        // single-device path: `entry .* entry` would demand length >= 2.
        let text = if name == &entry_name {
            entry_name.clone()
        } else {
            format!("{entry_name} .* {name}")
        };
        let pe = PathExpr::parse(&text)
            .map_err(|e| PlanError::Unsupported(e.to_string()))?
            .loop_free();
        let b = Behavior::exist(CountExpr::ge(1), pe);
        behavior = Some(match behavior {
            None => b,
            Some(prev) => Behavior::Or(Box::new(prev), Box::new(b)),
        });
    }
    let invariant = Invariant::builder()
        .name(format!(
            "intra[{group}] {entry_name} -> {{{}}}",
            target_names.join(", ")
        ))
        .packet_space(inv.packet_space.clone())
        .ingress([entry_name])
        .behavior(behavior.expect("at least one target"))
        .build()
        .map_err(|e| PlanError::Unsupported(e.to_string()))?;
    let _ = topo; // names already resolved through the subnet
    Ok(Some(IntraTask {
        group,
        entry,
        invariant,
        targets,
    }))
}

fn remap_action(
    action: &Action,
    members: &BTreeSet<DeviceId>,
    dev_map: &BTreeMap<DeviceId, DeviceId>,
    egress: &BTreeMap<DeviceId, DeviceId>,
) -> Action {
    match action {
        Action::Drop => Action::Drop,
        Action::Forward {
            mode,
            next_hops,
            rewrite,
        } => {
            let mut hops: Vec<NextHop> = Vec::new();
            for nh in next_hops {
                match nh {
                    NextHop::External => hops.push(NextHop::External),
                    NextHop::Device(d) => {
                        if members.contains(d) {
                            hops.push(NextHop::Device(dev_map[d]));
                        } else if let Some(v) = egress.get(d) {
                            if !hops.contains(&NextHop::Device(*v)) {
                                hops.push(NextHop::Device(*v));
                            }
                        }
                        // Hops to non-neighbors vanish (impossible for
                        // topology-consistent FIBs).
                    }
                }
            }
            if hops.is_empty() {
                Action::Drop
            } else {
                Action::Forward {
                    mode: *mode,
                    next_hops: hops,
                    rewrite: *rewrite,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_snapshot;
    use tulkun_netmodel::routing::{generate_fibs, RoutingOptions};

    /// Two triangles joined by two parallel cross links:
    /// (a0,a1,a2) — (b0,b1,b2), src=a0, dst=b2.
    fn two_cluster_net() -> Network {
        let mut t = Topology::new();
        let a: Vec<DeviceId> = (0..3).map(|i| t.add_device(format!("a{i}"))).collect();
        let b: Vec<DeviceId> = (0..3).map(|i| t.add_device(format!("b{i}"))).collect();
        for &(x, y) in &[(0, 1), (1, 2), (0, 2)] {
            t.add_link(a[x], a[y], 1000);
            t.add_link(b[x], b[y], 1000);
        }
        t.add_link(a[1], b[0], 1000);
        t.add_link(a[2], b[1], 1000);
        t.add_external_prefix(b[2], "10.0.0.0/24".parse().unwrap());
        let fibs = generate_fibs(&t, &RoutingOptions::default());
        let mut net = Network::new(t);
        net.fibs = fibs;
        net
    }

    fn reach_inv() -> Invariant {
        Invariant::builder()
            .name("a0 -> b2")
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
            .ingress(["a0"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("a0 .* b2").unwrap().loop_free(),
            ))
            .build()
            .unwrap()
    }

    fn cluster_partitioning(net: &Network) -> Partitioning {
        let t = &net.topology;
        let ga: Vec<DeviceId> = t
            .devices()
            .filter(|d| t.name(*d).starts_with('a'))
            .collect();
        let gb: Vec<DeviceId> = t
            .devices()
            .filter(|d| t.name(*d).starts_with('b'))
            .collect();
        Partitioning::new(t, vec![ga, gb]).unwrap()
    }

    #[test]
    fn partitioning_by_regions_covers_everything() {
        let net = two_cluster_net();
        let p = Partitioning::by_regions(&net.topology, 2);
        assert_eq!(p.len(), 2);
        let total: usize = (0..p.len()).map(|g| p.group(g).len()).sum();
        assert_eq!(total, net.topology.num_devices());
    }

    #[test]
    fn hierarchical_verification_holds_on_clean_network() {
        let net = two_cluster_net();
        let hp = plan_hierarchical(&net, &reach_inv(), cluster_partitioning(&net)).unwrap();
        assert_eq!(hp.abstract_edges, vec![(0, 1)]);
        assert!(hp.tasks.len() >= 2, "intra tasks for both partitions");
        let report = verify_hierarchical(&hp);
        assert!(report.holds, "failed: {:?}", report.failed);
    }

    #[test]
    fn hierarchical_detects_partition_internal_blackhole() {
        let mut net = two_cluster_net();
        // Blackhole the prefix inside the destination partition (b0 and
        // b1 both drop): no entry of group 1 can reach b2.
        let p: tulkun_netmodel::IpPrefix = "10.0.0.0/24".parse().unwrap();
        for name in ["b0", "b1"] {
            let d = net.topology.device(name).unwrap();
            net.fib_mut(d).insert(Rule {
                priority: 99,
                matches: tulkun_netmodel::fib::MatchSpec::dst(p),
                action: Action::Drop,
            });
        }
        let hp = plan_hierarchical(&net, &reach_inv(), cluster_partitioning(&net)).unwrap();
        let report = verify_hierarchical(&hp);
        assert!(!report.holds);
        assert!(report.failed.iter().any(|(g, _)| *g == 1));
    }

    #[test]
    fn hierarchical_detects_cross_border_misrouting() {
        let mut net = two_cluster_net();
        // Make the a-side route everything back toward a0 (a loop inside
        // partition 0): partition 0 can no longer hand packets to 1.
        let p: tulkun_netmodel::IpPrefix = "10.0.0.0/24".parse().unwrap();
        let a1 = net.topology.device("a1").unwrap();
        let a2 = net.topology.device("a2").unwrap();
        let a0 = net.topology.device("a0").unwrap();
        for d in [a1, a2] {
            net.fib_mut(d).insert(Rule {
                priority: 99,
                matches: tulkun_netmodel::fib::MatchSpec::dst(p),
                action: Action::fwd(a0),
            });
        }
        net.fib_mut(a0).insert(Rule {
            priority: 99,
            matches: tulkun_netmodel::fib::MatchSpec::dst(p),
            action: Action::fwd(a1),
        });
        let hp = plan_hierarchical(&net, &reach_inv(), cluster_partitioning(&net)).unwrap();
        let report = verify_hierarchical(&hp);
        assert!(!report.holds);
        assert!(report.failed.iter().any(|(g, e)| *g == 0 && *e == a0));
    }

    #[test]
    fn detour_through_foreign_region_is_followed() {
        // A path chain a0–a1–b0–b1–a2–c: partition {a0,a1,a2} vs
        // {b0,b1,c...}? Build a line where the only route from a0 to the
        // destination leaves partition 0, crosses partition 1, and
        // re-enters partition 0 before exiting to the destination's
        // partition. A region-locked scheme rejects this; the handover
        // fixed point must accept it.
        let mut t = Topology::new();
        let a0 = t.add_device("a0");
        let b0 = t.add_device("b0");
        let a1 = t.add_device("a1");
        let c0 = t.add_device("c0");
        t.add_link(a0, b0, 1000);
        t.add_link(b0, a1, 1000);
        t.add_link(a1, c0, 1000);
        t.add_external_prefix(c0, "10.0.0.0/24".parse().unwrap());
        let fibs = generate_fibs(&t, &RoutingOptions::default());
        let mut net = Network::new(t);
        net.fibs = fibs;
        // Partition: {a0, a1} / {b0} / {c0} — the a0→c0 path is
        // a0, b0, a1, c0: leaves group 0 and comes back.
        let part =
            Partitioning::new(&net.topology, vec![vec![a0, a1], vec![b0], vec![c0]]).unwrap();
        let inv = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
            .ingress(["a0"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("a0 .* c0").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let flat = verify_snapshot(&net, &Planner::new(&net.topology).plan(&inv).unwrap());
        assert!(flat.holds(), "premise: flat verification holds");
        let hp = plan_hierarchical(&net, &inv, part).unwrap();
        let report = verify_hierarchical(&hp);
        assert!(report.holds, "failed: {:?}", report.failed);
    }

    #[test]
    fn cross_partition_loop_fails_the_fixed_point() {
        // a0 → b0 → a1 → b1 → a1 ... : rules that bounce the prefix
        // between partitions forever must not verify (least fixed
        // point, not greatest).
        let mut t = Topology::new();
        let a0 = t.add_device("a0");
        let b0 = t.add_device("b0");
        let a1 = t.add_device("a1");
        let b1 = t.add_device("b1");
        let c0 = t.add_device("c0");
        t.add_link(a0, b0, 1000);
        t.add_link(b0, a1, 1000);
        t.add_link(a1, b1, 1000);
        t.add_link(b1, c0, 1000);
        t.add_external_prefix(c0, "10.0.0.0/24".parse().unwrap());
        let p: tulkun_netmodel::IpPrefix = "10.0.0.0/24".parse().unwrap();
        let mut net = Network::new(t);
        for (d, nh) in [(a0, b0), (b0, a1), (a1, b1), (b1, a1)] {
            net.fib_mut(d).insert(Rule {
                priority: 10,
                matches: tulkun_netmodel::fib::MatchSpec::dst(p),
                action: Action::fwd(nh),
            });
        }
        let part =
            Partitioning::new(&net.topology, vec![vec![a0, a1], vec![b0, b1], vec![c0]]).unwrap();
        let inv = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
            .ingress(["a0"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("a0 .* c0").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let hp = plan_hierarchical(&net, &inv, part).unwrap();
        let report = verify_hierarchical(&hp);
        assert!(
            !report.holds,
            "a forwarding loop across partitions must fail"
        );
    }

    #[test]
    fn rejects_unsupported_shapes() {
        let net = two_cluster_net();
        let inv = Invariant::builder()
            .packet_space(PacketSpace::All)
            .ingress(["a0", "a1"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("a0 .* b2").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        assert!(plan_hierarchical(&net, &inv, cluster_partitioning(&net)).is_err());
        // Length filters do not compose across partitions.
        let inv = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
            .ingress(["a0"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("a0 .* b2")
                    .unwrap()
                    .loop_free()
                    .shortest_plus(1),
            ))
            .build()
            .unwrap();
        assert!(plan_hierarchical(&net, &inv, cluster_partitioning(&net)).is_err());
        // Path counts do not compose across partitions.
        let inv = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
            .ingress(["a0"])
            .behavior(Behavior::exist(
                CountExpr::ge(2),
                PathExpr::parse("a0 .* b2").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        assert!(plan_hierarchical(&net, &inv, cluster_partitioning(&net)).is_err());
    }

    /// The whole point of the rewrite: hierarchical must agree with
    /// flat verification on random networks and random partitionings.
    #[test]
    fn hierarchical_agrees_with_flat_on_random_nets() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for trial in 0..12 {
            let n = rng.gen_range(6..14);
            let mut t = Topology::new();
            let devs: Vec<DeviceId> = (0..n).map(|i| t.add_device(format!("r{i}"))).collect();
            // Random connected graph: a ring plus chords.
            for i in 0..n {
                t.add_link(devs[i], devs[(i + 1) % n], 1000);
            }
            for _ in 0..n / 2 {
                let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if x != y && t.link_between(devs[x], devs[y]).is_none() {
                    t.add_link(devs[x], devs[y], 1000);
                }
            }
            let dst = devs[rng.gen_range(0..n)];
            t.add_external_prefix(dst, "10.1.0.0/24".parse().unwrap());
            let fibs = generate_fibs(&t, &RoutingOptions::default());
            let mut net = Network::new(t);
            net.fibs = fibs;
            // Randomly break a third of the trials.
            if trial % 3 == 0 {
                let victim = devs[rng.gen_range(0..n)];
                if victim != dst {
                    net.fib_mut(victim).insert(Rule {
                        priority: 99,
                        matches: tulkun_netmodel::fib::MatchSpec::dst(
                            "10.1.0.0/24".parse().unwrap(),
                        ),
                        action: Action::Drop,
                    });
                }
            }
            let src = devs.iter().copied().find(|d| *d != dst).unwrap();
            let inv = Invariant::builder()
                .packet_space(PacketSpace::dst_prefix("10.1.0.0/24"))
                .ingress([net.topology.name(src)])
                .behavior(Behavior::exist(
                    CountExpr::ge(1),
                    PathExpr::parse(&format!(
                        "{} .* {}",
                        net.topology.name(src),
                        net.topology.name(dst)
                    ))
                    .unwrap()
                    .loop_free(),
                ))
                .build()
                .unwrap();
            let flat = verify_snapshot(&net, &Planner::new(&net.topology).plan(&inv).unwrap());
            let k = rng.gen_range(2..5);
            let part = Partitioning::by_regions(&net.topology, k);
            let hp = plan_hierarchical(&net, &inv, part).unwrap();
            let hier = verify_hierarchical(&hp);
            assert_eq!(
                flat.holds(),
                hier.holds,
                "trial {trial}: flat={} hier={} (k={k}, n={n})",
                flat.holds(),
                hier.holds
            );
        }
    }
}
