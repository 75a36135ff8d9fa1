//! The verification planner (§4): compiles an invariant against a
//! topology into either distributed counting tasks on a DPVNet or
//! communication-free local contracts (`equal` behaviors).

use crate::count::{CountExpr, ReduceMode};
use crate::dpvnet::{DpvNet, DpvNetError, NodeId};
use crate::spec::{Behavior, FilterOp, Invariant, LengthBound, PathExpr};
use std::fmt;
use tulkun_automata::{Dfa, Regex};
use tulkun_netmodel::topology::{DeviceId, Topology};

/// The behavior formula compiled to indices into the plan's expression
/// list, evaluated per universe on the final outcome vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// Count of expression `expr` satisfies `count`.
    Exist {
        /// Index into the plan's expression list.
        expr: usize,
        /// The count expression to satisfy.
        count: CountExpr,
    },
    /// No trace escapes the valid path set (the escape component is 0).
    Covered,
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// Evaluates on one universe's outcome vector. With an escape
    /// component, it is the last element of `v`.
    pub fn eval(&self, v: &[u32], escape_idx: Option<usize>) -> bool {
        match self {
            Formula::Exist { expr, count } => count.satisfied(v[*expr]),
            Formula::Covered => v[escape_idx.expect("escape component missing")] == 0,
            Formula::Not(f) => !f.eval(v, escape_idx),
            Formula::And(a, b) => a.eval(v, escape_idx) && b.eval(v, escape_idx),
            Formula::Or(a, b) => a.eval(v, escape_idx) || b.eval(v, escape_idx),
        }
    }

    /// Is the formula a single positive `exist` (so Proposition 1
    /// reductions apply)?
    pub fn single_positive_exist(&self) -> Option<CountExpr> {
        match self {
            Formula::Exist { count, .. } => Some(*count),
            _ => None,
        }
    }
}

/// The counting task assigned to one DPVNet node, shipped to its device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTask {
    /// The DPVNet node.
    pub node: NodeId,
    /// The device it runs on.
    pub dev: DeviceId,
    /// Downstream neighbors `(node, device)` whose results feed this task.
    pub downstream: Vec<(NodeId, DeviceId)>,
    /// Upstream neighbors to send results to.
    pub upstream: Vec<(NodeId, DeviceId)>,
    /// Per path expression: valid paths end here.
    pub accept: Vec<bool>,
}

/// A distributed-counting plan.
#[derive(Debug, Clone)]
pub struct CountingPlan {
    /// The DAG of valid paths.
    pub dpvnet: DpvNet,
    /// The invariant's path expressions (outcome-vector components).
    pub exprs: Vec<PathExpr>,
    /// The behavior formula over those components.
    pub formula: Formula,
    /// Whether an escape component is tracked (any `covered` in the
    /// behavior): outcome vectors get one extra trailing element counting
    /// traces that leave the valid path set.
    pub track_escapes: bool,
    /// Minimal counting information nodes propagate (Proposition 1).
    pub reduce: ReduceMode,
    /// Per DPVNet node (indexed by `NodeId`).
    pub tasks: Vec<NodeTask>,
}

impl CountingPlan {
    /// Vector dimension of outcome vectors (expressions + escape).
    pub fn vec_dim(&self) -> usize {
        self.exprs.len() + usize::from(self.track_escapes)
    }

    /// Index of the escape component, if tracked.
    pub fn escape_idx(&self) -> Option<usize> {
        self.track_escapes.then_some(self.exprs.len())
    }
}

/// One local contract (the `equal` operator, §4.2): the device of `node`
/// must forward the packet space to exactly `required_next_hops`, and
/// deliver externally iff `must_deliver`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalContract {
    /// The DPVNet node of the contract.
    pub node: NodeId,
    /// The device that must honor it.
    pub dev: DeviceId,
    /// Exactly these devices must be in the forwarding group.
    pub required_next_hops: Vec<DeviceId>,
    /// Must the device deliver externally (destination nodes)?
    pub must_deliver: bool,
}

/// A local-contract plan (communication-free; the minimal counting
/// information of every node is the empty set).
#[derive(Debug, Clone)]
pub struct LocalPlan {
    /// The valid-path DAG the contracts were derived from.
    pub dpvnet: DpvNet,
    /// One contract per (node, device).
    pub contracts: Vec<LocalContract>,
}

/// A compiled plan.
#[derive(Debug, Clone)]
pub enum PlanKind {
    /// Distributed counting over a DPVNet.
    Counting(CountingPlan),
    /// Communication-free local contracts (`equal`).
    Local(LocalPlan),
}

/// A plan for one invariant.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The invariant being verified.
    pub invariant: Invariant,
    /// How it is verified.
    pub kind: PlanKind,
}

impl Plan {
    /// The counting plan, if this is one.
    pub fn counting(&self) -> Option<&CountingPlan> {
        match &self.kind {
            PlanKind::Counting(c) => Some(c),
            PlanKind::Local(_) => None,
        }
    }

    /// The local plan, if this is one.
    pub fn local(&self) -> Option<&LocalPlan> {
        match &self.kind {
            PlanKind::Local(l) => Some(l),
            PlanKind::Counting(_) => None,
        }
    }
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A referenced device does not exist in the topology.
    UnknownDevice(String),
    /// DPVNet construction failed.
    DpvNet(DpvNetError),
    /// §3 convenience check: the packet space's destination prefixes are
    /// not announced by any destination device of the path expressions.
    InconsistentDestination {
        /// The packet-space prefix nobody announces.
        prefix: String,
        /// The destination devices checked.
        destinations: Vec<String>,
    },
    /// The invariant shape is not supported by this planner.
    Unsupported(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownDevice(d) => write!(f, "unknown device {d:?}"),
            PlanError::DpvNet(e) => write!(f, "{e}"),
            PlanError::InconsistentDestination {
                prefix,
                destinations,
            } => write!(
                f,
                "packet space {prefix} is not announced at any path destination {destinations:?}"
            ),
            PlanError::Unsupported(s) => write!(f, "unsupported invariant: {s}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<DpvNetError> for PlanError {
    fn from(e: DpvNetError) -> Self {
        PlanError::DpvNet(e)
    }
}

/// Planner options.
#[derive(Debug, Clone, Default)]
pub struct PlannerOptions {
    /// Skip the §3 destination-consistency check (useful when the
    /// topology carries no external-port map).
    pub skip_consistency_check: bool,
}

/// The verification planner.
pub struct Planner<'a> {
    topo: &'a Topology,
    opts: PlannerOptions,
}

impl<'a> Planner<'a> {
    /// A planner over a topology with default options.
    pub fn new(topo: &'a Topology) -> Self {
        Planner {
            topo,
            opts: PlannerOptions::default(),
        }
    }

    /// A planner with explicit options.
    pub fn with_options(topo: &'a Topology, opts: PlannerOptions) -> Self {
        Planner { topo, opts }
    }

    /// Compiles an invariant into a plan.
    pub fn plan(&self, inv: &Invariant) -> Result<Plan, PlanError> {
        let ingress = self.resolve_devices(&inv.ingress)?;
        self.validate_regex_devices(inv)?;
        if !self.opts.skip_consistency_check {
            self.consistency_check(inv)?;
        }
        let kind = if inv.behavior.has_equal() {
            PlanKind::Local(self.plan_local(inv, &ingress)?)
        } else {
            PlanKind::Counting(self.plan_counting(inv, &ingress)?)
        };
        Ok(Plan {
            invariant: inv.clone(),
            kind,
        })
    }

    fn resolve_devices(&self, names: &[String]) -> Result<Vec<DeviceId>, PlanError> {
        names
            .iter()
            .map(|n| {
                self.topo
                    .device(n)
                    .ok_or_else(|| PlanError::UnknownDevice(n.clone()))
            })
            .collect()
    }

    fn validate_regex_devices(&self, inv: &Invariant) -> Result<(), PlanError> {
        for pe in inv.behavior.path_exprs() {
            for d in pe.regex.referenced_devices() {
                if self.topo.device(d).is_none() {
                    return Err(PlanError::UnknownDevice(d.to_string()));
                }
            }
        }
        Ok(())
    }

    /// §3 convenience check: destination IPs of the packet space must be
    /// reachable via external ports of the path expressions' destination
    /// devices. Only enforced when the topology has an external-port map.
    fn consistency_check(&self, inv: &Invariant) -> Result<(), PlanError> {
        let prefixes = inv.packet_space.positive_dst_prefixes();
        if prefixes.is_empty() || self.topo.external_map().next().is_none() {
            return Ok(());
        }
        let mut dests: Vec<DeviceId> = Vec::new();
        for pe in inv.behavior.path_exprs() {
            dests.extend(self.destination_devices(&pe.regex));
        }
        dests.sort();
        dests.dedup();
        if dests.is_empty() {
            return Ok(());
        }
        for p in prefixes {
            let announced = dests.iter().any(|d| {
                self.topo
                    .external_prefixes(*d)
                    .iter()
                    .any(|ep| ep.overlaps(&p))
            });
            if !announced {
                return Err(PlanError::InconsistentDestination {
                    prefix: p.to_string(),
                    destinations: dests
                        .iter()
                        .map(|d| self.topo.name(*d).to_string())
                        .collect(),
                });
            }
        }
        Ok(())
    }

    /// Devices on which a path matching `regex` can end: symbols `s`
    /// with `δ(q, s) ∈ F` for some state `q`.
    pub fn destination_devices(&self, regex: &Regex) -> Vec<DeviceId> {
        let alphabet: Vec<String> = self
            .topo
            .devices()
            .map(|d| self.topo.name(d).to_string())
            .collect();
        let dfa = Dfa::compile(regex, &alphabet);
        let mut out = Vec::new();
        for sym in 0..alphabet.len() {
            let ends = (0..dfa.num_states() as u32).any(|q| dfa.is_accepting(dfa.step(q, sym)));
            if ends {
                out.push(DeviceId(sym as u32));
            }
        }
        out
    }

    fn plan_counting(
        &self,
        inv: &Invariant,
        ingress: &[DeviceId],
    ) -> Result<CountingPlan, PlanError> {
        let exprs: Vec<PathExpr> = inv.behavior.path_exprs().into_iter().cloned().collect();
        let (formula, track_escapes) = compile_formula(&inv.behavior, &exprs)?;

        let dpvnet = match self.try_slack_fastpath(&exprs, ingress) {
            Some(net) => net,
            None => DpvNet::build(self.topo, ingress, &exprs)?,
        };

        let reduce = if exprs.len() == 1 && !track_escapes {
            formula
                .single_positive_exist()
                .map(|c| c.reduce_mode())
                .unwrap_or(ReduceMode::None)
        } else {
            ReduceMode::None
        };

        let tasks = make_tasks(&dpvnet);
        Ok(CountingPlan {
            dpvnet,
            exprs,
            formula,
            track_escapes,
            reduce,
            tasks,
        })
    }

    /// Topologies with at least this many devices take the
    /// `(device, slack)` fast path.
    const SLACK_FASTPATH_DEVICES: usize = 200;

    /// Detects `src .* dst` with a single `<= shortest+k` filter on large
    /// topologies and builds the `(device, slack)` DAG instead of
    /// enumerating paths.
    fn try_slack_fastpath(&self, exprs: &[PathExpr], ingress: &[DeviceId]) -> Option<DpvNet> {
        let (src, dst, k) = self.slack_fastpath(exprs, ingress)?;
        Some(DpvNet::slack_dag(self.topo, src, dst, k))
    }

    /// The `(src, dst, k)` of the `(device, slack)` fast path, when the
    /// planner takes it for these expressions and ingress.
    fn slack_fastpath(
        &self,
        exprs: &[PathExpr],
        ingress: &[DeviceId],
    ) -> Option<(DeviceId, DeviceId, u32)> {
        if exprs.len() != 1
            || ingress.len() != 1
            || self.topo.num_devices() < Self::SLACK_FASTPATH_DEVICES
        {
            return None;
        }
        let pe = &exprs[0];
        let (src, dst) = match_src_any_dst(&pe.regex)?;
        let k = match pe.filters.as_slice() {
            [f] if f.op == FilterOp::Le => match f.bound {
                LengthBound::ShortestPlus(k) if k >= 0 => k as u32,
                _ => return None,
            },
            _ => return None,
        };
        let src = self.topo.device(&src)?;
        let dst = self.topo.device(&dst)?;
        (ingress == [src]).then_some((src, dst, k))
    }

    /// The destination of `inv`'s `(device, slack)` DAG, when its
    /// counting plan takes that fast path: the DAG's nodes are then
    /// labelled by every device's distance from it.
    pub(crate) fn slack_destination(&self, inv: &Invariant) -> Option<DeviceId> {
        let ingress = self.resolve_devices(&inv.ingress).ok()?;
        let exprs: Vec<PathExpr> = inv.behavior.path_exprs().into_iter().cloned().collect();
        self.slack_fastpath(&exprs, &ingress).map(|(_, dst, _)| dst)
    }

    fn plan_local(&self, inv: &Invariant, ingress: &[DeviceId]) -> Result<LocalPlan, PlanError> {
        let Behavior::Equal { path } = &inv.behavior else {
            return Err(PlanError::Unsupported(
                "`equal` must be the entire behavior".into(),
            ));
        };
        // Fast path: `src .* dst (== shortest)` or `.* dst (== shortest)`
        // → the shortest-path DAG.
        let fast_dst = match_src_any_dst(&path.regex)
            .map(|(_, dst)| dst)
            .or_else(|| match_any_dst(&path.regex));
        let dpvnet = match (fast_dst, path.filters.as_slice()) {
            (Some(dst), [f]) if f.op == FilterOp::Eq && f.bound == LengthBound::ShortestPlus(0) => {
                let dst = self
                    .topo
                    .device(&dst)
                    .ok_or(PlanError::UnknownDevice(dst))?;
                DpvNet::shortest_path_dag(self.topo, dst, &[])
            }
            _ => DpvNet::build(self.topo, ingress, std::slice::from_ref(path))?,
        };
        // Keep only nodes on ingress→destination paths.
        let keep = reachable_from_sources(&dpvnet, ingress);
        let mut contracts = Vec::new();
        for (id, n) in dpvnet.iter() {
            if !keep[id.idx()] {
                continue;
            }
            let mut req: Vec<DeviceId> = n.out.iter().map(|o| dpvnet.node(*o).dev).collect();
            req.sort();
            req.dedup();
            contracts.push(LocalContract {
                node: id,
                dev: n.dev,
                required_next_hops: req,
                must_deliver: n.is_accepting(),
            });
        }
        Ok(LocalPlan { dpvnet, contracts })
    }
}

fn reachable_from_sources(net: &DpvNet, ingress: &[DeviceId]) -> Vec<bool> {
    let mut keep = vec![false; net.num_nodes()];
    let mut stack: Vec<NodeId> = net
        .sources()
        .iter()
        .filter(|(d, _)| ingress.contains(d))
        .map(|(_, s)| *s)
        .collect();
    for &s in &stack {
        keep[s.idx()] = true;
    }
    while let Some(id) = stack.pop() {
        for &o in &net.node(id).out {
            if !keep[o.idx()] {
                keep[o.idx()] = true;
                stack.push(o);
            }
        }
    }
    keep
}

/// Builds per-node tasks from a DPVNet.
pub fn make_tasks(net: &DpvNet) -> Vec<NodeTask> {
    net.iter()
        .map(|(id, n)| NodeTask {
            node: id,
            dev: n.dev,
            downstream: n.out.iter().map(|&o| (o, net.node(o).dev)).collect(),
            upstream: n.inn.iter().map(|&i| (i, net.node(i).dev)).collect(),
            accept: n.accept.clone(),
        })
        .collect()
}

/// Does the regex have the shape `src .* dst`?
fn match_src_any_dst(re: &Regex) -> Option<(String, String)> {
    use tulkun_automata::ast::SymClass;
    // seq(dev(src), star(any), dev(dst)) associates as
    // Concat(Concat(src, star), dst).
    if let Regex::Concat(ab, c) = re {
        if let Regex::Concat(a, b) = &**ab {
            if let (
                Regex::Sym(SymClass::One(src)),
                Regex::Star(inner),
                Regex::Sym(SymClass::One(dst)),
            ) = (&**a, &**b, &**c)
            {
                if matches!(&**inner, Regex::Sym(SymClass::Any)) {
                    return Some((src.clone(), dst.clone()));
                }
            }
        }
    }
    None
}

/// Does the regex have the shape `.* dst` (any source)?
fn match_any_dst(re: &Regex) -> Option<String> {
    use tulkun_automata::ast::SymClass;
    if let Regex::Concat(a, b) = re {
        if let (Regex::Star(inner), Regex::Sym(SymClass::One(dst))) = (&**a, &**b) {
            if matches!(&**inner, Regex::Sym(SymClass::Any)) {
                return Some(dst.clone());
            }
        }
    }
    None
}

fn compile_formula(b: &Behavior, exprs: &[PathExpr]) -> Result<(Formula, bool), PlanError> {
    let mut track = false;
    let f = compile_rec(b, exprs, &mut track)?;
    Ok((f, track))
}

fn compile_rec(b: &Behavior, exprs: &[PathExpr], track: &mut bool) -> Result<Formula, PlanError> {
    Ok(match b {
        Behavior::Exist { count, path } => {
            let idx = exprs
                .iter()
                .position(|p| p == path)
                .expect("expr collected");
            Formula::Exist {
                expr: idx,
                count: *count,
            }
        }
        Behavior::Covered { .. } => {
            *track = true;
            Formula::Covered
        }
        Behavior::Equal { .. } => {
            return Err(PlanError::Unsupported(
                "`equal` inside a counting behavior".into(),
            ))
        }
        Behavior::Not(x) => Formula::Not(Box::new(compile_rec(x, exprs, track)?)),
        Behavior::And(a, c) => Formula::And(
            Box::new(compile_rec(a, exprs, track)?),
            Box::new(compile_rec(c, exprs, track)?),
        ),
        Behavior::Or(a, c) => Formula::Or(
            Box::new(compile_rec(a, exprs, track)?),
            Box::new(compile_rec(c, exprs, track)?),
        ),
    })
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

    #[test]
    fn plans_waypoint_counting() {
        let topo = fig2a_topo();
        let inv = table1::waypoint(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "W", "D").unwrap();
        let plan = Planner::new(&topo).plan(&inv).unwrap();
        let cp = plan.counting().unwrap();
        assert_eq!(cp.exprs.len(), 1);
        assert_eq!(cp.reduce, ReduceMode::Min);
        assert!(!cp.track_escapes);
        assert_eq!(cp.tasks.len(), cp.dpvnet.num_nodes());
        for t in &cp.tasks {
            for (n, d) in &t.downstream {
                assert_eq!(cp.dpvnet.node(*n).dev, *d);
            }
        }
    }

    #[test]
    fn plans_local_contracts_for_equal() {
        let topo = fig2a_topo();
        let inv =
            table1::all_shortest_path(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "D").unwrap();
        let plan = Planner::new(&topo).plan(&inv).unwrap();
        let lp = plan.local().unwrap();
        let s = topo.device("S").unwrap();
        let a = topo.device("A").unwrap();
        let cs = lp.contracts.iter().find(|c| c.dev == s).unwrap();
        assert_eq!(cs.required_next_hops, vec![a]);
        let ca = lp.contracts.iter().find(|c| c.dev == a).unwrap();
        assert_eq!(ca.required_next_hops.len(), 2);
        let d = topo.device("D").unwrap();
        let cd = lp.contracts.iter().find(|c| c.dev == d).unwrap();
        assert!(cd.must_deliver);
        assert!(cd.required_next_hops.is_empty());
    }

    #[test]
    fn consistency_check_rejects_wrong_destination() {
        let topo = fig2a_topo();
        // Packet space prefix is announced at D, but the path ends at W.
        let inv = table1::reachability(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "W").unwrap();
        let err = Planner::new(&topo).plan(&inv).unwrap_err();
        assert!(
            matches!(err, PlanError::InconsistentDestination { .. }),
            "{err}"
        );
    }

    #[test]
    fn consistency_check_passes_for_correct_destination() {
        let topo = fig2a_topo();
        let inv = table1::reachability(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "D").unwrap();
        assert!(Planner::new(&topo).plan(&inv).is_ok());
    }

    #[test]
    fn unknown_devices_are_rejected() {
        let topo = fig2a_topo();
        let inv = table1::reachability(PacketSpace::All, "S", "Z").unwrap();
        let err = Planner::new(&topo).plan(&inv).unwrap_err();
        assert_eq!(err, PlanError::UnknownDevice("Z".into()));
        let inv2 = table1::reachability(PacketSpace::All, "Q", "D").unwrap();
        assert!(matches!(
            Planner::new(&topo).plan(&inv2),
            Err(PlanError::UnknownDevice(_))
        ));
    }

    #[test]
    fn anycast_compiles_to_two_expr_formula() {
        // Fig. 5a-like: S—A—D, S—B—E.
        let mut t = Topology::new();
        let s = t.add_device("S");
        let a = t.add_device("A");
        let b = t.add_device("B");
        let d = t.add_device("D");
        let e = t.add_device("E");
        t.add_link(s, a, 1);
        t.add_link(s, b, 1);
        t.add_link(a, d, 1);
        t.add_link(b, e, 1);
        let inv = table1::anycast(PacketSpace::All, "S", "D", "E").unwrap();
        let plan = Planner::new(&t).plan(&inv).unwrap();
        let cp = plan.counting().unwrap();
        assert_eq!(cp.exprs.len(), 2);
        assert_eq!(cp.vec_dim(), 2);
        assert_eq!(cp.reduce, ReduceMode::None);
        assert!(matches!(cp.formula, Formula::Or(..)));
    }

    #[test]
    fn subset_tracks_escapes() {
        let topo = fig2a_topo();
        let inv = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(Behavior::subset(
                PathExpr::parse("S .* D").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let plan = Planner::new(&topo).plan(&inv).unwrap();
        let cp = plan.counting().unwrap();
        assert!(cp.track_escapes);
        assert_eq!(cp.vec_dim(), 2);
        assert_eq!(cp.escape_idx(), Some(1));
    }

    #[test]
    fn formula_eval() {
        let f = Formula::Or(
            Box::new(Formula::And(
                Box::new(Formula::Exist {
                    expr: 0,
                    count: CountExpr::Ge(1),
                }),
                Box::new(Formula::Exist {
                    expr: 1,
                    count: CountExpr::Eq(0),
                }),
            )),
            Box::new(Formula::And(
                Box::new(Formula::Exist {
                    expr: 0,
                    count: CountExpr::Eq(0),
                }),
                Box::new(Formula::Exist {
                    expr: 1,
                    count: CountExpr::Eq(1),
                }),
            )),
        );
        assert!(f.eval(&[1, 0], None));
        assert!(f.eval(&[0, 1], None));
        assert!(!f.eval(&[1, 1], None));
        assert!(!f.eval(&[0, 0], None));
    }

    #[test]
    fn destination_devices_of_regex() {
        let topo = fig2a_topo();
        let planner = Planner::new(&topo);
        let re = Regex::parse("S .* D").unwrap();
        let dests = planner.destination_devices(&re);
        assert_eq!(dests, vec![topo.device("D").unwrap()]);
        let re = Regex::parse("S .* (D | W)").unwrap();
        let dests = planner.destination_devices(&re);
        assert_eq!(dests.len(), 2);
    }

    #[test]
    fn slack_fastpath_engages_on_large_topologies() {
        // A ring of 210 devices (>= the 200-device threshold).
        let mut t = Topology::new();
        let ids: Vec<DeviceId> = (0..210).map(|i| t.add_device(format!("n{i}"))).collect();
        for i in 0..210 {
            t.add_link(ids[i], ids[(i + 1) % 210], 1);
        }
        let inv = Invariant::builder()
            .packet_space(PacketSpace::All)
            .ingress(["n0"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("n0 .* n100").unwrap().shortest_plus(2),
            ))
            .build()
            .unwrap();
        let plan = Planner::new(&t).plan(&inv).unwrap();
        let cp = plan.counting().unwrap();
        assert_eq!(cp.dpvnet.sources().len(), 1);
        assert!(cp.dpvnet.num_paths() >= 1.0);
    }
}
