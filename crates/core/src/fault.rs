//! Fault-tolerant verification (§6): fault scenes and the
//! fault-tolerant DPVNet.
//!
//! [`expand_fault_spec`] turns an invariant's `fault_scenes` into
//! concrete scenes, and [`build_ft_dpvnet`] computes the union of valid
//! paths over all of them (iterating scenes in ascending failure count
//! and reusing path sets when Proposition 2 applies), labelling every
//! DPVNet edge and acceptance flag with the scenes it is valid in. The
//! Fig. 13 and scene-reuse figures measure that union. A scene reaches
//! the running verifiers one way only: as `LinkDown` / `LinkUp` topology
//! events through the control plane's epoch fence, where each intent's
//! scene table answers a scene it has planned before.
//!
//! Besides *data-plane* faults (failed links), this module also models
//! *management-plane* faults: [`FaultProfile`] describes a lossy
//! best-effort channel between verifiers (drop, duplicate, reorder,
//! delay) plus the retransmission parameters the DVM reliability layer
//! ([`crate::dvm::reliable`]) uses to mask it, and [`FaultStats`]
//! carries the injection/recovery counters every runtime substrate
//! surfaces.

use crate::dpvnet::{self, DpvNet, DpvNetError, NodeId, ValidPath};
use crate::planner::PlanError;
use crate::spec::{FaultSpec, PathExpr};
use std::collections::{BTreeMap, HashMap, HashSet};
use tulkun_netmodel::topology::{DeviceId, Topology};

/// Describes the behaviour of a lossy management network between
/// device verifiers, plus the retransmission policy that masks it.
///
/// All randomness is drawn from one seeded stream, so a profile plus a
/// seed fully determines a run: the CI fault matrix exercises fixed
/// `(seed, drop_rate)` grids and asserts byte-identical [`Report`]s.
///
/// [`Report`]: crate::verify::Report
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed of the ChaCha stream all fault decisions are drawn from.
    pub seed: u64,
    /// Probability that a freshly sent data envelope is dropped.
    pub drop_rate: f64,
    /// Probability that a data envelope is delivered twice.
    pub dup_rate: f64,
    /// Probability that a data envelope is held back and released only
    /// after a later send (an explicit order inversion).
    pub reorder_rate: f64,
    /// Probability that a data envelope is delayed by up to
    /// [`FaultProfile::max_delay_ns`] extra nanoseconds.
    pub delay_rate: f64,
    /// Upper bound of the injected extra delay.
    pub max_delay_ns: u64,
    /// Initial retransmission timeout of the at-least-once layer.
    pub rto_ns: u64,
    /// Cap on the exponential-backoff exponent (timeout never exceeds
    /// `rto_ns << max_backoff_exp`).
    pub max_backoff_exp: u32,
    /// After this many retransmissions of one envelope, further copies
    /// bypass the fault injector — the channel is lossy but *fair*, so
    /// persistent retransmission eventually succeeds; this bounds the
    /// simulated run deterministically.
    pub force_after_attempts: u32,
}

impl FaultProfile {
    /// A fault-free profile (the reliability layer still runs: every
    /// envelope is sequenced and acked, nothing is ever lost).
    pub fn none(seed: u64) -> FaultProfile {
        FaultProfile {
            seed,
            drop_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            delay_rate: 0.0,
            max_delay_ns: 0,
            rto_ns: 1_000_000,
            max_backoff_exp: 8,
            force_after_attempts: 16,
        }
    }

    /// Pure message loss at the given rate (applies to data and acks).
    pub fn loss(seed: u64, rate: f64) -> FaultProfile {
        FaultProfile {
            drop_rate: rate,
            ..FaultProfile::none(seed)
        }
    }

    /// Everything at once: loss, duplication, reordering and delay —
    /// the adversarial profile of the CI fault matrix.
    pub fn chaos(seed: u64) -> FaultProfile {
        FaultProfile {
            drop_rate: 0.05,
            dup_rate: 0.05,
            reorder_rate: 0.10,
            delay_rate: 0.10,
            max_delay_ns: 50_000,
            ..FaultProfile::none(seed)
        }
    }

    /// Does this profile inject no faults at all?
    pub fn is_quiet(&self) -> bool {
        self.drop_rate <= 0.0
            && self.dup_rate <= 0.0
            && self.reorder_rate <= 0.0
            && self.delay_rate <= 0.0
    }
}

/// Injection and recovery counters of one faulty channel, surfaced
/// through the runtime layer's `RuntimeStats` so the overhead harnesses
/// can report the cost of verification under loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Data envelopes dropped by the injector.
    pub drops: u64,
    /// Acks dropped by the injector.
    pub ack_drops: u64,
    /// Duplicate data copies injected.
    pub dups: u64,
    /// Envelopes held back to invert delivery order.
    pub reorders: u64,
    /// Envelopes given extra delay.
    pub delays: u64,
    /// Retransmissions performed by the at-least-once layer.
    pub retransmits: u64,
    /// Bytes spent on retransmissions.
    pub retransmit_bytes: u64,
    /// Retransmissions forced past the injector after the attempt cap.
    pub forced: u64,
    /// Envelopes discarded by receiver-side duplicate suppression.
    pub dup_suppressed: u64,
    /// Acks delivered to the sender window.
    pub acks: u64,
    /// Bytes spent on acks.
    pub ack_bytes: u64,
    /// Sends parked (window at cap) plus arrivals refused (reorder
    /// buffer at cap) by the bounded reliability layer's backpressure.
    pub backpressure: u64,
}

/// A failed link named by its (canonically ordered) endpoint devices —
/// stable across subtopologies, unlike `LinkId`.
pub type LinkPair = (DeviceId, DeviceId);

/// Canonicalizes a device pair.
pub fn link_pair(a: DeviceId, b: DeviceId) -> LinkPair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// One fault scene: a sorted set of failed links.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultScene(pub Vec<LinkPair>);

impl FaultScene {
    /// The no-failure scene.
    pub fn none() -> FaultScene {
        FaultScene(Vec::new())
    }

    /// Builds a scene, canonicalizing and sorting the pairs.
    pub fn new(pairs: impl IntoIterator<Item = LinkPair>) -> FaultScene {
        let mut v: Vec<LinkPair> = pairs.into_iter().map(|(a, b)| link_pair(a, b)).collect();
        v.sort();
        v.dedup();
        FaultScene(v)
    }

    /// Number of failed links.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is this the no-failure scene?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Expands a [`FaultSpec`] into concrete scenes. Scene 0 is always the
/// no-failure scene. `AnyK` enumerates all combinations; an error is
/// returned if that exceeds `cap` (sample with [`sample_scenes`]
/// instead).
pub fn expand_fault_spec(
    topo: &Topology,
    spec: &FaultSpec,
    cap: usize,
) -> Result<Vec<FaultScene>, PlanError> {
    let mut scenes = vec![FaultScene::none()];
    match spec {
        FaultSpec::None => {}
        FaultSpec::Scenes(list) => {
            for scene in list {
                let mut pairs = Vec::new();
                for (a, b) in scene {
                    let a = topo
                        .device(a)
                        .ok_or_else(|| PlanError::UnknownDevice(a.clone()))?;
                    let b = topo
                        .device(b)
                        .ok_or_else(|| PlanError::UnknownDevice(b.clone()))?;
                    pairs.push(link_pair(a, b));
                }
                scenes.push(FaultScene::new(pairs));
            }
        }
        FaultSpec::AnyK(k) => {
            let mut links: Vec<LinkPair> =
                topo.links().iter().map(|l| link_pair(l.a, l.b)).collect();
            links.sort();
            links.dedup();
            let mut current: Vec<FaultScene> = vec![FaultScene::none()];
            for _ in 0..*k {
                let mut next = Vec::new();
                for scene in &current {
                    let start = scene
                        .0
                        .last()
                        .map(|last| links.iter().position(|l| l > last).unwrap_or(links.len()))
                        .unwrap_or(0);
                    for &l in &links[start..] {
                        let mut pairs = scene.0.clone();
                        pairs.push(l);
                        next.push(FaultScene(pairs));
                    }
                }
                scenes.extend(next.iter().cloned());
                current = next;
                if scenes.len() > cap {
                    return Err(PlanError::Unsupported(format!(
                        "fault spec expands to more than {cap} scenes; sample instead"
                    )));
                }
            }
        }
    }
    scenes.sort_by_key(|s| (s.len(), s.0.clone()));
    scenes.dedup();
    Ok(scenes)
}

/// Samples `n` random scenes with 1..=k failed links (plus the
/// no-failure scene), weighted toward fewer failures like real WAN
/// failure statistics.
pub fn sample_scenes(topo: &Topology, k: u32, n: usize, seed: u64) -> Vec<FaultScene> {
    // Simple xorshift for reproducibility without a rand dependency here.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let links: Vec<LinkPair> = topo.links().iter().map(|l| link_pair(l.a, l.b)).collect();
    let mut scenes = vec![FaultScene::none()];
    let mut seen: HashSet<FaultScene> = HashSet::new();
    while scenes.len() < n + 1 && seen.len() < n * 4 {
        // Sizes 1..=k weighted 1/size (single failures dominate).
        let mut size = 1u32;
        let r = next() % 100;
        if k >= 2 && r >= 60 {
            size = 2;
        }
        if k >= 3 && r >= 85 {
            size = 3;
        }
        let mut pairs = Vec::new();
        for _ in 0..size {
            pairs.push(links[(next() as usize) % links.len()]);
        }
        let scene = FaultScene::new(pairs);
        if scene.is_empty() || !seen.insert(scene.clone()) {
            continue;
        }
        // Keep the network connected so reachability stays meaningful.
        let down: Vec<_> = scene
            .0
            .iter()
            .filter_map(|(a, b)| topo.link_between(*a, *b))
            .collect();
        if !topo.connected_without(&down) {
            continue;
        }
        scenes.push(scene);
    }
    scenes
}

/// A copy of the topology with the given links removed (device ids are
/// preserved).
pub fn subtopology(topo: &Topology, down: &FaultScene) -> Topology {
    let mut t = Topology::new();
    for d in topo.devices() {
        t.add_device(topo.name(d));
    }
    for l in topo.links() {
        if down.0.contains(&link_pair(l.a, l.b)) {
            continue;
        }
        t.add_link(l.a, l.b, l.latency_ns);
    }
    for (d, p) in topo.external_map() {
        t.add_external_prefix(d, p);
    }
    t
}

/// A bitmask over scene indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SceneMask(Vec<u64>);

impl SceneMask {
    /// All-zero mask for `n` scenes.
    pub fn empty(n: usize) -> SceneMask {
        SceneMask(vec![0; n.div_ceil(64)])
    }

    /// Sets scene `i`.
    pub fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Is scene `i` set?
    pub fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Union in place.
    pub fn or_assign(&mut self, other: &SceneMask) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
}

/// The fault-tolerant DPVNet: the union DAG plus per-scene validity.
#[derive(Debug, Clone)]
pub struct FtDpvNet {
    /// Union DAG (accept flags = valid in *some* scene).
    pub dpvnet: DpvNet,
    /// The pre-specified scenes (index 0 = no failure).
    pub scenes: Vec<FaultScene>,
    /// Scenes in which each edge lies on a valid path.
    pub edge_scenes: HashMap<(NodeId, NodeId), SceneMask>,
    /// Per node, per expression: scenes in which a valid path ends here.
    pub accept_scenes: Vec<Vec<SceneMask>>,
    /// Scene indices with no valid path at all (recorded as intolerable;
    /// the paper reports these to the operator).
    pub intolerable: Vec<usize>,
    /// How many scenes were recomputed from scratch vs reused via
    /// Proposition 2.
    pub reused_scenes: usize,
}

/// Builds the fault-tolerant DPVNet for an invariant's path expressions
/// over the given scenes (§6's iterative computation).
pub fn build_ft_dpvnet(
    topo: &Topology,
    ingress: &[DeviceId],
    exprs: &[PathExpr],
    scenes: &[FaultScene],
    path_cap: usize,
) -> Result<FtDpvNet, DpvNetError> {
    assert!(
        !scenes.is_empty() && scenes[0].is_empty(),
        "scene 0 must be the base"
    );
    let symbolic = exprs.iter().any(PathExpr::has_symbolic_filter);

    // Base path set and the topology edges it uses.
    let base_paths = dpvnet::enumerate_valid_paths(topo, ingress, exprs, path_cap)?;
    let mut used: HashSet<LinkPair> = HashSet::new();
    for p in &base_paths {
        for w in p.devices.windows(2) {
            used.insert(link_pair(w[0], w[1]));
        }
    }
    // Endpoints whose shortest distances the symbolic filters depend on.
    let endpoints: Vec<(DeviceId, DeviceId)> = {
        let mut v: Vec<(DeviceId, DeviceId)> = base_paths
            .iter()
            .filter_map(|p| Some((*p.devices.first()?, *p.devices.last()?)))
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let base_dist: BTreeMap<DeviceId, Vec<u32>> = ingress
        .iter()
        .map(|&s| (s, topo.bfs_hops(s, &[])))
        .collect();

    // Per-scene path sets (Proposition 2: reuse when nothing relevant
    // changed).
    let mut per_scene: Vec<Vec<ValidPath>> = Vec::with_capacity(scenes.len());
    let mut intolerable = Vec::new();
    let mut reused = 0usize;
    for (i, scene) in scenes.iter().enumerate() {
        let paths = if i == 0 {
            base_paths.clone()
        } else {
            let touches_used = scene.0.iter().any(|p| used.contains(p));
            let sub = subtopology(topo, scene);
            let dist_unchanged = !symbolic
                || endpoints
                    .iter()
                    .all(|(s, d)| sub.bfs_hops(*s, &[])[d.idx()] == base_dist[s][d.idx()]);
            if !touches_used && dist_unchanged {
                reused += 1;
                base_paths.clone()
            } else {
                dpvnet::enumerate_valid_paths(&sub, ingress, exprs, path_cap)?
            }
        };
        if paths.is_empty() {
            intolerable.push(i);
        }
        per_scene.push(paths);
    }

    // Union trie with per-scene labels.
    let dim = exprs.len();
    let n_scenes = scenes.len();
    struct TNode {
        dev: DeviceId,
        children: Vec<(DeviceId, usize)>,
        accept: Vec<SceneMask>,
        /// Scenes in which the edge from the parent into this node is on
        /// a valid path.
        edge_mask: SceneMask,
    }
    let mk_accept = |n: usize| (0..dim).map(|_| SceneMask::empty(n)).collect::<Vec<_>>();
    let mut trie: Vec<TNode> = vec![TNode {
        dev: DeviceId(u32::MAX),
        children: Vec::new(),
        accept: mk_accept(n_scenes),
        edge_mask: SceneMask::empty(n_scenes),
    }];
    for (si, paths) in per_scene.iter().enumerate() {
        for p in paths {
            let mut cur = 0usize;
            for &d in &p.devices {
                cur = match trie[cur].children.iter().find(|(cd, _)| *cd == d) {
                    Some(&(_, idx)) => idx,
                    None => {
                        let idx = trie.len();
                        trie.push(TNode {
                            dev: d,
                            children: Vec::new(),
                            accept: mk_accept(n_scenes),
                            edge_mask: SceneMask::empty(n_scenes),
                        });
                        trie[cur].children.push((d, idx));
                        idx
                    }
                };
                trie[cur].edge_mask.set(si);
            }
            for (e, &a) in p.accept.iter().enumerate() {
                if a {
                    trie[cur].accept[e].set(si);
                }
            }
        }
    }

    // Bottom-up hash-consing with masks in the signature.
    type Sig = (DeviceId, Vec<SceneMask>, Vec<(NodeId, SceneMask)>);
    let mut canon_of: Vec<Option<NodeId>> = vec![None; trie.len()];
    let mut sig_map: HashMap<Sig, NodeId> = HashMap::new();
    // Final node data (converted to a DpvNet at the end).
    struct FNode {
        dev: DeviceId,
        out: Vec<(NodeId, SceneMask)>,
        accept_any: Vec<bool>,
        accept_scenes: Vec<SceneMask>,
    }
    let mut fnodes: Vec<FNode> = Vec::new();

    let mut stack: Vec<(usize, bool)> = vec![(0, false)];
    while let Some((t, expanded)) = stack.pop() {
        if !expanded {
            stack.push((t, true));
            for &(_, c) in &trie[t].children {
                stack.push((c, false));
            }
            continue;
        }
        if t == 0 {
            continue;
        }
        let mut kids: Vec<(NodeId, SceneMask)> = Vec::new();
        for &(_, c) in &trie[t].children {
            let id = canon_of[c].unwrap();
            let mask = trie[c].edge_mask.clone();
            match kids.iter_mut().find(|(k, _)| *k == id) {
                Some((_, m)) => m.or_assign(&mask),
                None => kids.push((id, mask)),
            }
        }
        kids.sort_by_key(|(k, _)| *k);
        let sig: Sig = (trie[t].dev, trie[t].accept.clone(), kids.clone());
        let id = match sig_map.get(&sig) {
            Some(&id) => id,
            None => {
                let id = NodeId(fnodes.len() as u32);
                fnodes.push(FNode {
                    dev: trie[t].dev,
                    out: kids,
                    accept_any: trie[t]
                        .accept
                        .iter()
                        .map(|m| m.0.iter().any(|&w| w != 0))
                        .collect(),
                    accept_scenes: trie[t].accept.clone(),
                });
                sig_map.insert(sig, id);
                id
            }
        };
        canon_of[t] = Some(id);
    }

    // Assemble the DpvNet + side tables.
    let mut edge_scenes: HashMap<(NodeId, NodeId), SceneMask> = HashMap::new();
    let mut accept_scenes: Vec<Vec<SceneMask>> = Vec::with_capacity(fnodes.len());
    let mut nodes: Vec<crate::dpvnet::DpvNode> = Vec::with_capacity(fnodes.len());
    let mut label_count: HashMap<DeviceId, u32> = HashMap::new();
    for (i, f) in fnodes.iter().enumerate() {
        let c = label_count.entry(f.dev).or_insert(0);
        *c += 1;
        nodes.push(crate::dpvnet::DpvNode {
            dev: f.dev,
            out: f.out.iter().map(|(k, _)| *k).collect(),
            inn: Vec::new(),
            accept: f.accept_any.clone(),
            label: format!("{}{}", topo.name(f.dev), c),
        });
        for (k, m) in &f.out {
            edge_scenes.insert((NodeId(i as u32), *k), m.clone());
        }
        accept_scenes.push(f.accept_scenes.clone());
    }
    for i in 0..nodes.len() {
        let outs = nodes[i].out.clone();
        for o in outs {
            nodes[o.idx()].inn.push(NodeId(i as u32));
        }
    }
    for n in &mut nodes {
        n.inn.sort();
        n.inn.dedup();
    }
    let mut sources: Vec<(DeviceId, NodeId)> = trie[0]
        .children
        .iter()
        .filter_map(|&(d, c)| canon_of[c].map(|id| (d, id)))
        .collect();
    sources.sort();
    sources.dedup();
    let dpvnet = DpvNet::from_parts(nodes, sources, dim);

    Ok(FtDpvNet {
        dpvnet,
        scenes: scenes.to_vec(),
        edge_scenes,
        accept_scenes,
        intolerable,
        reused_scenes: reused,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PathExpr;

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
        t
    }

    #[test]
    fn expand_any_two() {
        let topo = fig2a_topo(); // 6 links
        let scenes = expand_fault_spec(&topo, &crate::spec::FaultSpec::AnyK(2), 1000).unwrap();
        // 1 + 6 + C(6,2) = 1 + 6 + 15 = 22.
        assert_eq!(scenes.len(), 22);
        assert!(scenes[0].is_empty());
        assert!(scenes.windows(2).all(|w| w[0].len() <= w[1].len()));
    }

    #[test]
    fn expand_cap_enforced() {
        let topo = fig2a_topo();
        assert!(expand_fault_spec(&topo, &crate::spec::FaultSpec::AnyK(3), 10).is_err());
    }

    #[test]
    fn subtopology_removes_links() {
        let topo = fig2a_topo();
        let a = topo.device("A").unwrap();
        let b = topo.device("B").unwrap();
        let scene = FaultScene::new([(a, b)]);
        let sub = subtopology(&topo, &scene);
        assert_eq!(sub.num_links(), 5);
        assert!(sub.link_between(a, b).is_none());
        assert_eq!(sub.num_devices(), topo.num_devices());
    }

    #[test]
    fn scene_masks() {
        let mut m = SceneMask::empty(130);
        m.set(0);
        m.set(64);
        m.set(129);
        assert!(m.get(0) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(128));
        let mut m2 = SceneMask::empty(130);
        m2.set(5);
        m2.or_assign(&m);
        assert!(m2.get(5) && m2.get(129));
    }

    #[test]
    fn ft_dpvnet_matches_figure_8_shape() {
        // Fig. 8: (<= shortest+1) reachability S→D in Fig. 2a under
        // 2-link failures. Base shortest = 3, so base paths have ≤ 4
        // hops; under failures the shortest can grow and longer paths
        // become valid.
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let pe = PathExpr::parse("S .* D")
            .unwrap()
            .loop_free()
            .shortest_plus(1);
        let scenes = expand_fault_spec(&topo, &crate::spec::FaultSpec::AnyK(2), 1000).unwrap();
        let ft = build_ft_dpvnet(&topo, &[s], std::slice::from_ref(&pe), &scenes, 100_000).unwrap();

        // Scene 0 view reproduces the failure-free DPVNet's path count.
        let base = DpvNet::build(&topo, &[s], std::slice::from_ref(&pe)).unwrap();
        assert_eq!(count_paths(&ft, 0), base.num_paths());

        // The union has at least as many paths as the base.
        assert!(ft.dpvnet.num_paths() >= base.num_paths());

        // Scenes that disconnect S from D are intolerable.
        let sa = link_pair(s, topo.device("A").unwrap());
        let cut = ft.scenes.iter().position(|sc| sc.0 == vec![sa]).unwrap();
        assert!(ft.intolerable.contains(&cut));

        // Some scenes were reused via Proposition 2 (those not touching
        // used links with unchanged shortest distances) — in this dense
        // little topology every link is used, so just sanity-check the
        // counter is consistent.
        assert!(ft.reused_scenes <= ft.scenes.len());
    }

    #[test]
    fn scene_view_drops_failed_paths() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let b = topo.device("B").unwrap();
        let d = topo.device("D").unwrap();
        let pe = PathExpr::parse("S .* D")
            .unwrap()
            .loop_free()
            .shortest_plus(1);
        let scenes = expand_fault_spec(&topo, &crate::spec::FaultSpec::AnyK(1), 1000).unwrap();
        let ft = build_ft_dpvnet(&topo, &[s], &[pe], &scenes, 100_000).unwrap();
        // Scene where link B–D fails: no edge from B to D is labelled
        // with it.
        let scene = FaultScene::new([(b, d)]);
        let idx = ft.scenes.iter().position(|sc| *sc == scene).unwrap();
        for (id, n) in ft.dpvnet.iter().filter(|(_, n)| n.dev == b) {
            for &o in n.out.iter().filter(|&&o| ft.dpvnet.node(o).dev == d) {
                assert!(
                    !ft.edge_scenes[&(id, o)].get(idx),
                    "B must not point at D in this scene"
                );
            }
        }
        // An undeclared scene has no index.
        let w = topo.device("W").unwrap();
        assert!(!ft
            .scenes
            .contains(&FaultScene::new([(b, d), (w, d), (s, w)])));
    }

    /// Counts source→accept paths in one scene's view of the union:
    /// only the edges and acceptance flags labelled with `scene`.
    fn count_paths(ft: &FtDpvNet, scene: usize) -> f64 {
        fn rec(ft: &FtDpvNet, n: NodeId, scene: usize, memo: &mut HashMap<NodeId, f64>) -> f64 {
            if let Some(&c) = memo.get(&n) {
                return c;
            }
            let accept = ft.accept_scenes[n.idx()].iter().any(|m| m.get(scene));
            let mut c = if accept { 1.0 } else { 0.0 };
            for &o in &ft.dpvnet.node(n).out {
                if ft.edge_scenes[&(n, o)].get(scene) {
                    c += rec(ft, o, scene, memo);
                }
            }
            memo.insert(n, c);
            c
        }
        let mut memo = HashMap::new();
        let sources = ft.dpvnet.sources().iter();
        sources.map(|(_, n)| rec(ft, *n, scene, &mut memo)).sum()
    }
}
