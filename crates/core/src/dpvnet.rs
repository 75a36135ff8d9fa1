//! DPVNet: the DAG of all valid paths of an invariant (§4.1).
//!
//! A DPVNet is built by multiplying the path-expression automata with the
//! topology. Devices map 1-to-many onto DPVNet nodes (`B1`, `B2`, …);
//! edges follow topology links; every source-to-sink path of the DAG is a
//! valid path of the invariant and vice versa.
//!
//! Construction here enumerates the (finite) valid path set — every
//! invariant the paper evaluates is bounded by `loop_free` and/or a
//! length filter — and then performs the paper's *state minimization* by
//! suffix merging: nodes with the same device and identical downstream
//! structure are hash-consed together, yielding the minimal DAG of the
//! path language (the construction of Figure 2c). Two fast paths avoid
//! enumeration where the paper's evaluation needs scale:
//!
//! * [`DpvNet::shortest_path_dag`] — the all-sources shortest-path DAG
//!   toward one destination (used by `equal` / RCDC-style invariants on
//!   data centers);
//! * [`DpvNet::slack_dag`] — the `(device, slack)` unrolling for
//!   `<= shortest + k` reachability, linear in `|E| · k`.

use crate::spec::PathExpr;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use tulkun_automata::Dfa;
use tulkun_netmodel::topology::{DeviceId, Topology};

/// A node in a DPVNet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index as usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl tulkun_json::ToJson for NodeId {
    fn to_json(&self) -> tulkun_json::Json {
        tulkun_json::ToJson::to_json(&self.0)
    }
}

impl tulkun_json::FromJson for NodeId {
    fn from_json(v: &tulkun_json::Json) -> Result<Self, tulkun_json::JsonError> {
        tulkun_json::FromJson::from_json(v).map(NodeId)
    }
}

/// A DPVNet node: one (device, automaton-progress) point.
#[derive(Debug, Clone)]
pub struct DpvNode {
    /// The network device this node's task runs on.
    pub dev: DeviceId,
    /// Downstream neighbors (toward destinations; counting results flow
    /// *against* these edges).
    pub out: Vec<NodeId>,
    /// Upstream neighbors.
    pub inn: Vec<NodeId>,
    /// Per path expression: does a valid path of that expression end
    /// here?
    pub accept: Vec<bool>,
    /// Display label, e.g. `"B2"`.
    pub label: String,
}

impl DpvNode {
    /// Is this a destination node for at least one expression?
    pub fn is_accepting(&self) -> bool {
        self.accept.iter().any(|&a| a)
    }
}

/// The DAG of all valid paths, with one source node per ingress device.
#[derive(Debug, Clone)]
pub struct DpvNet {
    nodes: Vec<DpvNode>,
    /// `(ingress device, its source node)` pairs.
    sources: Vec<(DeviceId, NodeId)>,
    /// Number of path expressions (`accept` vector length).
    dim: usize,
}

/// Errors from DPVNet construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpvNetError {
    /// A device referenced by the invariant does not exist.
    UnknownDevice(String),
    /// The path language is infinite: no `loop_free` and no concrete or
    /// symbolic length bound.
    UnboundedPathSet,
    /// Path enumeration exceeded the safety cap; use divide-and-conquer
    /// or a fast-path construction.
    PathExplosion {
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for DpvNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpvNetError::UnknownDevice(d) => write!(f, "unknown device {d:?}"),
            DpvNetError::UnboundedPathSet => write!(
                f,
                "path expression matches unboundedly many paths; add loop_free or a length filter"
            ),
            DpvNetError::PathExplosion { cap } => {
                write!(f, "more than {cap} valid paths; use divide-and-conquer")
            }
        }
    }
}

impl std::error::Error for DpvNetError {}

/// Default cap on enumerated paths before construction aborts.
pub const DEFAULT_PATH_CAP: usize = 2_000_000;

impl DpvNet {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &DpvNode {
        &self.nodes[id.idx()]
    }

    /// All nodes with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &DpvNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Source nodes per ingress device.
    pub fn sources(&self) -> &[(DeviceId, NodeId)] {
        &self.sources
    }

    /// Number of path expressions.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Accepting (destination) nodes.
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter()
            .filter(|(_, n)| n.is_accepting())
            .map(|(id, _)| id)
    }

    /// Nodes in reverse topological order (downstream before upstream) —
    /// the traversal order of Algorithm 1.
    pub fn reverse_topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut out_deg: Vec<usize> = self.nodes.iter().map(|nd| nd.out.len()).collect();
        let mut queue: Vec<NodeId> = (0..n)
            .filter(|&i| out_deg[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            for &up in &self.nodes[id.idx()].inn {
                out_deg[up.idx()] -= 1;
                if out_deg[up.idx()] == 0 {
                    queue.push(up);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "DPVNet must be acyclic");
        order
    }

    /// All nodes mapped to a device.
    pub fn nodes_on_device(&self, dev: DeviceId) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.dev == dev)
            .map(|(id, _)| id)
            .collect()
    }

    /// Total number of source-to-sink paths (may be astronomically large;
    /// saturates at `f64`).
    pub fn num_paths(&self) -> f64 {
        let order = self.reverse_topo_order();
        let mut count = vec![0f64; self.nodes.len()];
        for id in order {
            let n = &self.nodes[id.idx()];
            let mut c = if n.is_accepting() { 1.0 } else { 0.0 };
            for &o in &n.out {
                c += count[o.idx()];
            }
            count[id.idx()] = c;
        }
        self.sources.iter().map(|(_, s)| count[s.idx()]).sum()
    }

    /// GraphViz rendering for documentation and debugging.
    pub fn to_dot(&self, topo: &Topology) -> String {
        let mut s = String::from("digraph dpvnet {\n  rankdir=LR;\n");
        for (id, n) in self.iter() {
            let shape = if n.is_accepting() {
                "doublecircle"
            } else {
                "circle"
            };
            s.push_str(&format!(
                "  n{} [label=\"{}\" shape={} tooltip=\"{}\"];\n",
                id.0,
                n.label,
                shape,
                topo.name(n.dev)
            ));
        }
        for (id, n) in self.iter() {
            for &o in &n.out {
                s.push_str(&format!("  n{} -> n{};\n", id.0, o.0));
            }
        }
        s.push_str("}\n");
        s
    }

    /// Builds the DPVNet for a set of path expressions over one topology
    /// (the union construction of §4.3): enumerates all valid paths from
    /// the ingress devices, inserts them into a prefix trie, and suffix-
    /// merges the trie into the minimal DAG.
    pub fn build(
        topo: &Topology,
        ingress: &[DeviceId],
        exprs: &[PathExpr],
    ) -> Result<DpvNet, DpvNetError> {
        Self::build_with_cap(topo, ingress, exprs, DEFAULT_PATH_CAP)
    }

    /// [`DpvNet::build`] with an explicit path cap.
    pub fn build_with_cap(
        topo: &Topology,
        ingress: &[DeviceId],
        exprs: &[PathExpr],
        cap: usize,
    ) -> Result<DpvNet, DpvNetError> {
        let paths = enumerate_valid_paths(topo, ingress, exprs, cap)?;
        Ok(from_paths(&paths, exprs.len(), topo))
    }

    /// Fast path: the all-sources shortest-path DAG toward `dst`
    /// (the DPVNet of `(. * dst, == shortest)` from every device), used
    /// for `equal` invariants like RCDC's all-shortest-path availability.
    pub fn shortest_path_dag(
        topo: &Topology,
        dst: DeviceId,
        down: &[tulkun_netmodel::LinkId],
    ) -> DpvNet {
        let dist = topo.bfs_hops(dst, down);
        // One node per reachable device; edges from d to neighbors one
        // hop closer to dst.
        let mut map: HashMap<DeviceId, NodeId> = HashMap::new();
        let mut nodes = Vec::new();
        for d in topo.devices() {
            if dist[d.idx()] == u32::MAX {
                continue;
            }
            let id = NodeId(nodes.len() as u32);
            map.insert(d, id);
            nodes.push(DpvNode {
                dev: d,
                out: Vec::new(),
                inn: Vec::new(),
                accept: vec![d == dst],
                label: format!("{}1", topo.name(d)),
            });
        }
        for d in topo.devices() {
            let Some(&id) = map.get(&d) else { continue };
            if d == dst {
                continue;
            }
            for &(n, l) in topo.neighbors(d) {
                if down.contains(&l) {
                    continue;
                }
                if dist[n.idx()] != u32::MAX && dist[n.idx()] + 1 == dist[d.idx()] {
                    let nid = map[&n];
                    nodes[id.idx()].out.push(nid);
                    nodes[nid.idx()].inn.push(id);
                }
            }
        }
        let sources = topo
            .devices()
            .filter(|d| *d != dst)
            .filter_map(|d| map.get(&d).map(|&id| (d, id)))
            .collect();
        DpvNet {
            nodes,
            sources,
            dim: 1,
        }
    }

    /// Fast path: the `(device, slack)` DAG of all walks from `src` to
    /// `dst` with at most `shortest + k` hops. Linear in `|E|·k`; unlike
    /// [`DpvNet::build`] it does not exclude device revisits (a revisit
    /// costs ≥ 2 slack, so for `k < 2` the two constructions coincide).
    pub fn slack_dag(topo: &Topology, src: DeviceId, dst: DeviceId, k: u32) -> DpvNet {
        let dist = topo.bfs_hops(dst, &[]);
        let mut map: HashMap<(DeviceId, u32), NodeId> = HashMap::new();
        let mut nodes: Vec<DpvNode> = Vec::new();
        if dist[src.idx()] == u32::MAX {
            // Unreachable: a lone, non-accepting source node.
            let id = NodeId(0);
            nodes.push(DpvNode {
                dev: src,
                out: vec![],
                inn: vec![],
                accept: vec![false],
                label: format!("{}1", topo.name(src)),
            });
            return DpvNet {
                nodes,
                sources: vec![(src, id)],
                dim: 1,
            };
        }
        let mut label_count: HashMap<DeviceId, u32> = HashMap::new();
        let mut mk = |dev: DeviceId,
                      slack: u32,
                      nodes: &mut Vec<DpvNode>,
                      map: &mut HashMap<(DeviceId, u32), NodeId>| {
            *map.entry((dev, slack)).or_insert_with(|| {
                let id = NodeId(nodes.len() as u32);
                let c = label_count.entry(dev).or_insert(0);
                *c += 1;
                nodes.push(DpvNode {
                    dev,
                    out: vec![],
                    inn: vec![],
                    accept: vec![dev == dst],
                    label: format!("{}{}", topo.name(dev), c),
                });
                id
            })
        };
        // BFS over (device, slack) pairs from the source.
        let start = mk(src, 0, &mut nodes, &mut map);
        let mut queue = vec![(src, 0u32)];
        let mut head = 0;
        while head < queue.len() {
            let (d, slack) = queue[head];
            head += 1;
            if d == dst {
                continue; // paths end at the destination
            }
            let id = map[&(d, slack)];
            for &(n, _) in topo.neighbors(d) {
                if dist[n.idx()] == u32::MAX {
                    continue;
                }
                // Moving d→n costs 1 hop; slack grows by 1+dist(n)-dist(d).
                let delta = 1 + dist[n.idx()] as i64 - dist[d.idx()] as i64;
                let ns = slack as i64 + delta;
                if ns < 0 || ns > k as i64 {
                    continue;
                }
                let existed = map.contains_key(&(n, ns as u32));
                let nid = mk(n, ns as u32, &mut nodes, &mut map);
                if !nodes[id.idx()].out.contains(&nid) {
                    nodes[id.idx()].out.push(nid);
                    nodes[nid.idx()].inn.push(id);
                }
                if !existed {
                    queue.push((n, ns as u32));
                }
            }
        }
        prune_dead(&mut nodes, start);
        DpvNet {
            nodes,
            sources: vec![(src, start)],
            dim: 1,
        }
    }
}

/// Removes nodes that cannot reach an accepting node (keeps the source
/// even if dead so sources always exist), compacting ids.
fn prune_dead(nodes: &mut Vec<DpvNode>, source: NodeId) {
    let n = nodes.len();
    let mut live = vec![false; n];
    // Reverse reachability from accepting nodes.
    let mut stack: Vec<usize> = (0..n)
        .filter(|&i| nodes[i].accept.iter().any(|&a| a))
        .collect();
    for &s in &stack {
        live[s] = true;
    }
    while let Some(i) = stack.pop() {
        for &up in &nodes[i].inn {
            if !live[up.idx()] {
                live[up.idx()] = true;
                stack.push(up.idx());
            }
        }
    }
    live[source.idx()] = true;
    if live.iter().all(|&l| l) {
        return;
    }
    let mut remap = vec![NodeId(u32::MAX); n];
    let mut new_nodes = Vec::new();
    for i in 0..n {
        if live[i] {
            remap[i] = NodeId(new_nodes.len() as u32);
            new_nodes.push(nodes[i].clone());
        }
    }
    for node in &mut new_nodes {
        node.out = node
            .out
            .iter()
            .filter(|o| live[o.idx()])
            .map(|o| remap[o.idx()])
            .collect();
        node.inn = node
            .inn
            .iter()
            .filter(|o| live[o.idx()])
            .map(|o| remap[o.idx()])
            .collect();
    }
    *nodes = new_nodes;
}

/// One enumerated valid path plus its per-expression acceptance marks.
#[derive(Debug, Clone)]
pub struct ValidPath {
    /// The devices of the path, in order.
    pub devices: Vec<DeviceId>,
    /// Per expression: does the path satisfy it?
    pub accept: Vec<bool>,
}

/// Per-expression enumeration context: DFA, liveness, bounds and the
/// distance-to-destination table used for branch-and-bound pruning.
struct ExprCtx {
    dfa: Dfa,
    live: Vec<bool>,
    /// Absolute hop bound for this expression, possibly tightened per
    /// ingress (symbolic `<= shortest + k` filters).
    static_bound: u32,
    /// `shortest + k` slack for symbolic `<=` filters, if any.
    symbolic_le: Option<u32>,
    /// Minimum hops from each device to any destination device of the
    /// expression (`u32::MAX` when unreachable).
    dist_to_dest: Vec<u32>,
}

/// Enumerates all valid paths from the ingress devices (DFS over the
/// product of the topology and the per-expression DFAs, with
/// branch-and-bound pruning on remaining distance to the destinations).
pub fn enumerate_valid_paths(
    topo: &Topology,
    ingress: &[DeviceId],
    exprs: &[PathExpr],
    cap: usize,
) -> Result<Vec<ValidPath>, DpvNetError> {
    let alphabet: Vec<String> = topo.devices().map(|d| topo.name(d).to_string()).collect();
    let n_dev = topo.num_devices() as u32;

    let mut ctxs = Vec::with_capacity(exprs.len());
    for e in exprs {
        let dfa = Dfa::compile(&e.regex, &alphabet);
        let live = dfa.live_states();
        // Destination devices: symbols that can complete an accepted
        // path; pruning distance is the BFS distance to the nearest one.
        let mut dest_devs: Vec<DeviceId> = Vec::new();
        for sym in 0..alphabet.len() {
            if (0..dfa.num_states() as u32).any(|q| dfa.is_accepting(dfa.step(q, sym))) {
                dest_devs.push(DeviceId(sym as u32));
            }
        }
        let mut dist_to_dest = vec![u32::MAX; topo.num_devices()];
        for &d in &dest_devs {
            for (i, h) in topo.bfs_hops(d, &[]).into_iter().enumerate() {
                dist_to_dest[i] = dist_to_dest[i].min(h);
            }
        }

        let symbolic_le = e
            .filters
            .iter()
            .filter_map(|f| match (f.op, f.bound) {
                (crate::spec::FilterOp::Le, crate::spec::LengthBound::ShortestPlus(k)) => {
                    Some(k.max(0) as u32)
                }
                (crate::spec::FilterOp::Eq, crate::spec::LengthBound::ShortestPlus(k)) => {
                    Some(k.max(0) as u32)
                }
                _ => None,
            })
            .min();

        let mut candidates: Vec<u32> = Vec::new();
        if let Some(b) = e.concrete_hop_bound() {
            candidates.push(b);
        }
        if e.has_symbolic_filter() {
            candidates.push(n_dev - 1 + symbolic_le.unwrap_or(0));
        }
        // Intrinsically finite languages (e.g. `S A B D`, `SD|S.D|S..D`)
        // carry their own hop bound.
        if let Some(len) = dfa.max_word_len() {
            candidates.push(len.saturating_sub(1));
        }
        if e.loop_free {
            candidates.push(n_dev - 1);
        }
        let static_bound = match candidates.into_iter().min() {
            Some(b) => b.min(n_dev - 1 + 8),
            None => return Err(DpvNetError::UnboundedPathSet),
        };
        ctxs.push(ExprCtx {
            dfa,
            live,
            static_bound,
            symbolic_le,
            dist_to_dest,
        });
    }
    let all_loop_free = exprs.iter().all(|e| e.loop_free);

    // Shortest-path matrices for symbolic filters, computed lazily per
    // ingress device.
    let mut shortest_from: HashMap<DeviceId, Vec<u32>> = HashMap::new();

    let mut paths: Vec<ValidPath> = Vec::new();
    for &ing in ingress {
        // Per-ingress tightened bounds: for symbolic `<= shortest + k`,
        // no accepted path from this ingress exceeds
        // max_d(shortest(ing, d)) + k over destination devices.
        let bounds: Vec<u32> = ctxs
            .iter()
            .map(|c| match c.symbolic_le {
                Some(k) => {
                    let dist = shortest_from
                        .entry(ing)
                        .or_insert_with(|| topo.bfs_hops(ing, &[]));
                    let max_sp = c
                        .dist_to_dest
                        .iter()
                        .enumerate()
                        .filter(|(_, &dd)| dd == 0)
                        .map(|(i, _)| dist[i])
                        .filter(|&h| h != u32::MAX)
                        .max()
                        .unwrap_or(0);
                    c.static_bound.min(max_sp + k)
                }
                None => c.static_bound,
            })
            .collect();
        let global_bound = bounds.iter().copied().max().unwrap_or(0);
        let mut visited = vec![0u32; topo.num_devices()];
        let mut stack_path: Vec<DeviceId> = Vec::new();
        let states0: Vec<u32> = ctxs.iter().map(|c| c.dfa.start()).collect();
        dfs(
            topo,
            &ctxs,
            exprs,
            &bounds,
            global_bound,
            all_loop_free,
            ing,
            states0,
            &mut visited,
            &mut stack_path,
            &mut shortest_from,
            &mut paths,
            cap,
        )?;
    }
    Ok(paths)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    topo: &Topology,
    ctxs: &[ExprCtx],
    exprs: &[PathExpr],
    bounds: &[u32],
    global_bound: u32,
    all_loop_free: bool,
    dev: DeviceId,
    states: Vec<u32>,
    visited: &mut Vec<u32>,
    path: &mut Vec<DeviceId>,
    shortest_from: &mut HashMap<DeviceId, Vec<u32>>,
    out: &mut Vec<ValidPath>,
    cap: usize,
) -> Result<(), DpvNetError> {
    // Consume `dev` in every automaton.
    let states: Vec<u32> = states
        .iter()
        .zip(ctxs)
        .map(|(&s, c)| c.dfa.step(s, dev.idx()))
        .collect();
    let hops = path.len() as u32; // after pushing dev below
                                  // Feasibility per expression: the DFA state must be live AND the
                                  // remaining distance to a destination must fit the hop bound
                                  // (branch-and-bound).
    let feasible = |i: usize, s: u32| {
        let c = &ctxs[i];
        if !c.live[s as usize] {
            return false;
        }
        let dd = c.dist_to_dest[dev.idx()];
        dd != u32::MAX && hops + dd <= bounds[i]
    };
    if !(0..ctxs.len()).any(|i| feasible(i, states[i])) {
        return Ok(()); // no expression can still be completed
    }
    path.push(dev);
    visited[dev.idx()] += 1;

    // Acceptance per expression.
    let mut accept = vec![false; ctxs.len()];
    let mut any = false;
    for (i, c) in ctxs.iter().enumerate() {
        if !c.dfa.is_accepting(states[i]) || hops > bounds[i] {
            continue;
        }
        if exprs[i].loop_free && visited.iter().any(|&v| v > 1) {
            continue;
        }
        // Length filters: shortest distance between path endpoints.
        let src = path[0];
        let shortest = if exprs[i].filters.is_empty() {
            0
        } else {
            let dist = shortest_from
                .entry(src)
                .or_insert_with(|| topo.bfs_hops(src, &[]));
            dist[dev.idx()]
        };
        if exprs[i].filters.iter().all(|f| f.accepts(hops, shortest)) {
            accept[i] = true;
            any = true;
        }
    }
    if any {
        if out.len() >= cap {
            path.pop();
            visited[dev.idx()] -= 1;
            return Err(DpvNetError::PathExplosion { cap });
        }
        out.push(ValidPath {
            devices: path.clone(),
            accept,
        });
    }

    if hops < global_bound {
        for &(n, _) in topo.neighbors(dev) {
            if all_loop_free && visited[n.idx()] > 0 {
                continue;
            }
            dfs(
                topo,
                ctxs,
                exprs,
                bounds,
                global_bound,
                all_loop_free,
                n,
                states.clone(),
                visited,
                path,
                shortest_from,
                out,
                cap,
            )?;
        }
    }
    path.pop();
    visited[dev.idx()] -= 1;
    Ok(())
}

/// The scenes a path, a DAG edge or an acceptance flag is valid in, as
/// [`merge_suffixes`] labels them: `bool` for one path set, §6's
/// [`SceneMask`](crate::fault::SceneMask) for the fault-tolerant union.
pub(crate) trait Scenes: Clone + Eq + Hash {
    /// None of `n` scenes.
    fn none(n: usize) -> Self;
    /// Adds scene `i`.
    fn add(&mut self, i: usize);
    /// Adds every scene of `other`.
    fn add_all(&mut self, other: &Self);
    /// Whether any scene is in.
    fn any(&self) -> bool;
}

impl Scenes for bool {
    fn none(_: usize) -> bool {
        false
    }

    fn add(&mut self, _: usize) {
        *self = true;
    }

    fn add_all(&mut self, other: &bool) {
        *self |= other;
    }

    fn any(&self) -> bool {
        *self
    }
}

/// Builds the minimal suffix-merged DAG from an enumerated path set
/// (trie insertion + bottom-up hash-consing: the paper's state
/// minimization step).
pub fn from_paths(paths: &[ValidPath], dim: usize, topo: &Topology) -> DpvNet {
    merge_suffixes::<bool, _>(std::slice::from_ref(&paths), dim, topo, |_, _, _| {})
}

/// Builds the minimal suffix-merged DAG of scene-labelled path sets,
/// `scenes[i]` being scene `i`'s valid paths: trie insertion, then
/// bottom-up hash-consing of trie nodes on their device, the scenes
/// each expression accepts at them in, and their children with the
/// scenes each edge into a child is valid in. Two nodes merge only when
/// every scene sees them alike, so each scene's view of the DAG is the
/// minimal DAG of its own paths. A node accepts an expression when it
/// does so in some scene. `label` is told each new node's acceptance
/// and out-edge scenes, in node id order.
pub(crate) fn merge_suffixes<S: Scenes, P: AsRef<[ValidPath]>>(
    scenes: &[P],
    dim: usize,
    topo: &Topology,
    mut label: impl FnMut(NodeId, &[S], &[(NodeId, S)]),
) -> DpvNet {
    // Trie with a virtual root; `edge` is the scenes of the edge from
    // the parent.
    struct TrieNode<S> {
        dev: DeviceId,
        children: Vec<(DeviceId, usize)>,
        accept: Vec<S>,
        edge: S,
    }
    let n = scenes.len();
    let node = |dev| TrieNode {
        dev,
        children: Vec::new(),
        accept: vec![S::none(n); dim],
        edge: S::none(n),
    };
    let mut trie: Vec<TrieNode<S>> = vec![node(DeviceId(u32::MAX))];
    for (si, paths) in scenes.iter().enumerate() {
        for p in paths.as_ref() {
            let mut cur = 0usize;
            for &d in &p.devices {
                cur = match trie[cur].children.iter().find(|(cd, _)| *cd == d) {
                    Some(&(_, idx)) => idx,
                    None => {
                        let idx = trie.len();
                        trie.push(node(d));
                        trie[cur].children.push((d, idx));
                        idx
                    }
                };
                trie[cur].edge.add(si);
            }
            for (i, &a) in p.accept.iter().enumerate() {
                if a {
                    trie[cur].accept[i].add(si);
                }
            }
        }
    }

    // Bottom-up hash-consing: canonical id per (dev, accept, children).
    // The trie is a tree, so children always precede parents in a
    // post-order traversal.
    type Sig<S> = (DeviceId, Vec<S>, Vec<(NodeId, S)>);
    let mut canon_of: Vec<Option<NodeId>> = vec![None; trie.len()];
    let mut sig_map: HashMap<Sig<S>, NodeId> = HashMap::new();
    let mut nodes: Vec<DpvNode> = Vec::new();
    let mut label_count: HashMap<DeviceId, u32> = HashMap::new();

    // Iterative post-order over trie (skip virtual root for canon).
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
            continue; // virtual root has no canonical node
        }
        let mut kids: Vec<(NodeId, S)> = Vec::with_capacity(trie[t].children.len());
        for &(_, c) in &trie[t].children {
            let id = canon_of[c].expect("a child precedes its parent in post-order");
            kids.push((id, trie[c].edge.clone()));
        }
        kids.sort_by_key(|(k, _)| *k);
        kids.dedup_by(|(k, scenes), (kept, into)| {
            let same = k == kept;
            if same {
                into.add_all(scenes);
            }
            same
        });
        let dev = trie[t].dev;
        let sig = (dev, std::mem::take(&mut trie[t].accept), kids);
        let id = match sig_map.entry(sig) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = NodeId(nodes.len() as u32);
                let (_, accept, kids) = e.key();
                label(id, accept, kids);
                let c = label_count.entry(dev).or_insert(0);
                *c += 1;
                nodes.push(DpvNode {
                    dev,
                    out: kids.iter().map(|(k, _)| *k).collect(),
                    inn: Vec::new(),
                    accept: accept.iter().map(S::any).collect(),
                    label: format!("{}{}", topo.name(dev), c),
                });
                *e.insert(id)
            }
        };
        canon_of[t] = Some(id);
    }

    // Fill in upstream edges.
    for i in 0..nodes.len() {
        let outs = nodes[i].out.clone();
        for o in outs {
            nodes[o.idx()].inn.push(NodeId(i as u32));
        }
    }
    for node in &mut nodes {
        node.inn.sort();
        node.inn.dedup();
    }

    // Sources: canonical first-level trie children keyed by device.
    let mut sources: Vec<(DeviceId, NodeId)> = Vec::new();
    for &(d, c) in &trie[0].children {
        if let Some(id) = canon_of[c] {
            sources.push((d, id));
        }
    }
    sources.sort();
    DpvNet {
        nodes,
        sources,
        dim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PathExpr;

    /// The paper's Fig. 2a topology (without C).
    pub(crate) fn fig2a_topo() -> Topology {
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
    fn waypoint_dpvnet_matches_fig2c() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let pe = PathExpr::parse("S .* W .* D").unwrap().loop_free();
        let net = DpvNet::build(&topo, &[s], &[pe]).unwrap();
        // Fig. 2c: S1, A1, B1, B2, W1, W2, D1 = 7 nodes.
        assert_eq!(net.num_nodes(), 7);
        assert_eq!(net.num_paths(), 3.0); // SAWD, SABWD, SAWBD
                                          // Exactly one destination node (device D).
        let dests: Vec<NodeId> = net.destinations().collect();
        assert_eq!(dests.len(), 1);
        assert_eq!(topo.name(net.node(dests[0]).dev), "D");
        // Device B maps to two nodes, W to two nodes.
        let b = topo.device("B").unwrap();
        let w = topo.device("W").unwrap();
        assert_eq!(net.nodes_on_device(b).len(), 2);
        assert_eq!(net.nodes_on_device(w).len(), 2);
        // One source at S.
        assert_eq!(net.sources().len(), 1);
        assert_eq!(net.sources()[0].0, s);
    }

    #[test]
    fn reverse_topo_order_is_consistent() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let pe = PathExpr::parse("S .* W .* D").unwrap().loop_free();
        let net = DpvNet::build(&topo, &[s], &[pe]).unwrap();
        let order = net.reverse_topo_order();
        assert_eq!(order.len(), net.num_nodes());
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for (id, n) in net.iter() {
            for &o in &n.out {
                assert!(pos[&o] < pos[&id], "downstream must come first");
            }
        }
    }

    #[test]
    fn simple_reachability_paths() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let pe = PathExpr::parse("S .* D").unwrap().loop_free();
        let net = DpvNet::build(&topo, &[s], &[pe]).unwrap();
        // Simple S→D paths: SABD? S-A-B-D, S-A-W-D, S-A-B-W-D, S-A-W-B-D = 4.
        assert_eq!(net.num_paths(), 4.0);
    }

    #[test]
    fn length_filter_prunes_paths() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        // shortest S→D = 3 hops; allow exactly shortest.
        let pe = PathExpr::parse("S .* D")
            .unwrap()
            .loop_free()
            .shortest_only();
        let net = DpvNet::build(&topo, &[s], &[pe]).unwrap();
        assert_eq!(net.num_paths(), 2.0); // SABD and SAWD
        let pe = PathExpr::parse("S .* D")
            .unwrap()
            .loop_free()
            .shortest_plus(1);
        let net = DpvNet::build(&topo, &[s], &[pe]).unwrap();
        assert_eq!(net.num_paths(), 4.0);
    }

    #[test]
    fn unbounded_expression_is_rejected() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let pe = PathExpr::parse("S .* D").unwrap(); // no loop_free, no filter
        assert_eq!(
            DpvNet::build(&topo, &[s], &[pe]).unwrap_err(),
            DpvNetError::UnboundedPathSet
        );
    }

    #[test]
    fn path_cap_triggers() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let pe = PathExpr::parse("S .* D").unwrap().loop_free();
        let err = DpvNet::build_with_cap(&topo, &[s], &[pe], 2).unwrap_err();
        assert!(matches!(err, DpvNetError::PathExplosion { cap: 2 }));
    }

    #[test]
    fn multi_ingress_sources() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let b = topo.device("B").unwrap();
        let pe = PathExpr::parse("(S|B) .* D").unwrap().loop_free();
        let net = DpvNet::build(&topo, &[s, b], &[pe]).unwrap();
        assert_eq!(net.sources().len(), 2);
    }

    #[test]
    fn union_of_two_exprs_shares_nodes() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let p1 = PathExpr::parse("S .* D").unwrap().loop_free();
        let p2 = PathExpr::parse("S .* W").unwrap().loop_free();
        let net = DpvNet::build(&topo, &[s], &[p1, p2]).unwrap();
        assert_eq!(net.dim(), 2);
        // Destination nodes exist for both exprs.
        let mut saw = [false, false];
        for (_, n) in net.iter() {
            for (i, s) in saw.iter_mut().enumerate() {
                if n.accept[i] {
                    *s = true;
                }
            }
        }
        assert!(saw[0] && saw[1]);
    }

    #[test]
    fn shortest_path_dag_covers_all_sources() {
        let topo = fig2a_topo();
        let d = topo.device("D").unwrap();
        let net = DpvNet::shortest_path_dag(&topo, d, &[]);
        assert_eq!(net.num_nodes(), 5); // every device reaches D
        assert_eq!(net.sources().len(), 4);
        // B and W point straight at D; A at both; S at A.
        let a = topo.device("A").unwrap();
        let na = net.nodes_on_device(a)[0];
        assert_eq!(net.node(na).out.len(), 2);
        // Paths: from S: SABD, SAWD → but num_paths sums over all sources.
        assert_eq!(net.num_paths(), 2.0 + 1.0 + 1.0 + 2.0); // S:2, A:2, B:1, W:1
    }

    #[test]
    fn slack_dag_matches_enumeration_for_k0_and_k1() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let d = topo.device("D").unwrap();
        for k in [0u32, 1] {
            let fast = DpvNet::slack_dag(&topo, s, d, k);
            let pe = PathExpr::parse("S .* D")
                .unwrap()
                .loop_free()
                .shortest_plus(k as i32);
            let exact = DpvNet::build(&topo, &[s], &[pe]).unwrap();
            assert_eq!(fast.num_paths(), exact.num_paths(), "k={k}");
        }
    }

    #[test]
    fn slack_dag_unreachable_destination() {
        let mut topo = Topology::new();
        let s = topo.add_device("S");
        let d = topo.add_device("D");
        let _ = topo.add_device("X");
        topo.add_link(s, topo.device("X").unwrap(), 1);
        let net = DpvNet::slack_dag(&topo, s, d, 2);
        assert_eq!(net.num_paths(), 0.0);
        assert_eq!(net.sources().len(), 1);
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let topo = fig2a_topo();
        let s = topo.device("S").unwrap();
        let pe = PathExpr::parse("S .* W .* D").unwrap().loop_free();
        let net = DpvNet::build(&topo, &[s], &[pe]).unwrap();
        let dot = net.to_dot(&topo);
        for (_, n) in net.iter() {
            assert!(dot.contains(&n.label));
        }
    }
}
