//! Judge (ii): what a Report should say, worked out without the verifier.
//!
//! The oracle enumerates the simple paths of the effective topology and
//! matches them against the path expressions with its own matcher over
//! the regex AST. It walks `Fib::rules` on one concrete packet per cell,
//! replicating on ALL, taking the union on ANY and applying rewrites,
//! and evaluates the `Behavior` AST on every universe's outcome vector.
//! It uses no BDD, DFA, DPVNet, planner or counting code: apart from the
//! network and spec data types it shares nothing with what it judges.
//! DESIGN.md, "Simplifications", lists the trace semantics it encodes.

use std::collections::{BTreeMap, BTreeSet};
use tulkun::automata::{ast::SymClass, Regex};
use tulkun::core::churn::ChurnState;
use tulkun::core::count::CountExpr;
use tulkun::core::spec::{Behavior, FilterOp, Invariant, LengthBound, PacketSpace, PathExpr};
use tulkun::netmodel::fib::{Action, ActionType, Fib, NextHop};
use tulkun::netmodel::{DeviceId, IpPrefix, Network};

/// One concrete packet.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    pub dst: u32,
    pub port: u16,
    pub proto: u8,
}

/// One outcome vector per universe: a count per path expression, then
/// the number of traces that escaped.
type Outcomes = BTreeSet<Vec<u32>>;

fn within(p: &IpPrefix, addr: u32) -> bool {
    p.len == 0 || (p.addr ^ addr) >> (32 - u32::from(p.len)) == 0
}

fn in_space(s: &PacketSpace, p: &Packet) -> bool {
    match s {
        PacketSpace::All => true,
        PacketSpace::DstPrefix(q) => within(q, p.dst),
        PacketSpace::DstPort(lo, hi) => (*lo..=*hi).contains(&p.port),
        PacketSpace::Proto(x) => p.proto == *x,
        PacketSpace::And(a, b) => in_space(a, p) && in_space(b, p),
        PacketSpace::Or(a, b) => in_space(a, p) || in_space(b, p),
        PacketSpace::Not(a) => !in_space(a, p),
    }
}

/// The prefixes, and the port and protocol cut points, a space names.
type Cuts = (Vec<IpPrefix>, BTreeSet<u32>, BTreeSet<u32>);

fn cuts(s: &PacketSpace, c: &mut Cuts) {
    match s {
        PacketSpace::All => {}
        PacketSpace::DstPrefix(q) => c.0.push(*q),
        PacketSpace::DstPort(lo, hi) => c.1.extend([u32::from(*lo), u32::from(*hi) + 1]),
        PacketSpace::Proto(x) => c.2.extend([u32::from(*x), u32::from(*x) + 1]),
        PacketSpace::And(a, b) | PacketSpace::Or(a, b) => {
            cuts(a, c);
            cuts(b, c);
        }
        PacketSpace::Not(a) => cuts(a, c),
    }
}

/// One packet per cell. Destinations are cut at every prefix boundary
/// and, inside a prefix, at the longest prefix length in play: a
/// rewrite keeps the low bits, so no cell may straddle a boundary they
/// can land on. Ports and protocols are cut at every constant a rule or
/// a space names.
pub fn packets(net: &Network, spaces: &[&PacketSpace]) -> Vec<Packet> {
    let mut c: Cuts = (Vec::new(), BTreeSet::from([0]), BTreeSet::from([0]));
    for r in net.fibs.iter().flat_map(Fib::rules) {
        let m = r.matches;
        let port = m.dst_port.map(|(lo, hi)| PacketSpace::DstPort(lo, hi));
        let rewrite = match &r.action {
            Action::Forward {
                rewrite: Some(rw), ..
            } => Some(PacketSpace::DstPrefix(rw.to)),
            _ => None,
        };
        let named = [
            Some(PacketSpace::DstPrefix(m.dst)),
            port,
            m.proto.map(PacketSpace::Proto),
        ];
        named
            .iter()
            .chain([&rewrite])
            .flatten()
            .for_each(|s| cuts(s, &mut c));
    }
    spaces.iter().for_each(|s| cuts(s, &mut c));
    let step = 1u64 << (32 - c.0.iter().map(|p| u32::from(p.len)).max().unwrap_or(0));
    let mut dsts = BTreeSet::from([0]);
    for p in &c.0 {
        let (at, size) = (u64::from(p.addr), 1u64 << (32 - p.len));
        let cells = if size / step <= 256 { size / step } else { 1 };
        dsts.extend((0..cells).map(|i| at + i * step).chain([at + size]));
    }
    let mut out = Vec::new();
    for dst in dsts.into_iter().filter_map(|d| u32::try_from(d).ok()) {
        for port in c.1.iter().filter_map(|p| u16::try_from(*p).ok()) {
            let protos = c.2.iter().filter_map(|p| u8::try_from(*p).ok());
            out.extend(protos.map(|proto| Packet { dst, port, proto }));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------

/// Where in `word` a match of `re` starting at `at` can end.
fn ends(re: &Regex, word: &[&str], at: usize) -> BTreeSet<usize> {
    match re {
        Regex::Empty => BTreeSet::new(),
        Regex::Epsilon => BTreeSet::from([at]),
        Regex::Sym(class) => {
            let hit = word.get(at).is_some_and(|name| match class {
                SymClass::Any => true,
                SymClass::One(d) => d == name,
                SymClass::In(ds) => ds.iter().any(|d| d == name),
                SymClass::NotIn(ds) => ds.iter().all(|d| d != name),
            });
            hit.then_some(at + 1).into_iter().collect()
        }
        Regex::Concat(a, b) => {
            let mid = ends(a, word, at).into_iter();
            mid.flat_map(|m| ends(b, word, m)).collect()
        }
        Regex::Alt(a, b) => &ends(a, word, at) | &ends(b, word, at),
        Regex::Star(a) => {
            let (mut out, mut todo) = (BTreeSet::from([at]), vec![at]);
            while let Some(i) = todo.pop() {
                todo.extend(ends(a, word, i).into_iter().filter(|j| out.insert(*j)));
            }
            out
        }
    }
}

fn accepts(e: &PathExpr, names: &[&str], shortest: usize) -> bool {
    assert!(e.loop_free, "the oracle enumerates simple paths only");
    let hops = names.len() as i64 - 1;
    let within_filters = e.filters.iter().all(|f| {
        let bound = match f.bound {
            LengthBound::Hops(b) => i64::from(b),
            LengthBound::ShortestPlus(k) => shortest as i64 + i64::from(k),
        };
        match f.op {
            FilterOp::Le => hops <= bound,
            FilterOp::Lt => hops < bound,
            FilterOp::Ge => hops >= bound,
            FilterOp::Gt => hops > bound,
            FilterOp::Eq => hops == bound,
        }
    });
    within_filters && ends(&e.regex, names, 0).contains(&names.len())
}

/// Every simple path some expression accepts from an ingress of `inv`,
/// over the effective topology (base links, minus failed ones and every
/// link of a device that is down), and every prefix of one: the places
/// a trace can be without having escaped. Each maps to its
/// per-expression acceptance.
struct Paths(BTreeMap<Vec<DeviceId>, Vec<bool>>);

impl Paths {
    fn new(net: &Network, churn: &ChurnState, inv: &Invariant, exprs: &[&PathExpr]) -> Paths {
        let topo = &net.topology;
        let mut adj = vec![Vec::new(); topo.num_devices()];
        for l in topo.links() {
            let down = churn.down_links();
            let failed = down.contains(&(l.a, l.b)) || down.contains(&(l.b, l.a));
            if !failed && !churn.is_down(l.a) && !churn.is_down(l.b) {
                adj[l.a.idx()].push(l.b);
                adj[l.b.idx()].push(l.a);
            }
        }
        let mut paths = Paths(BTreeMap::new());
        for s in ingress(net, inv) {
            // Breadth first: the first walk to reach a device is a
            // shortest one.
            let (mut walks, mut shortest) = (vec![vec![s]], BTreeMap::new());
            let mut i = 0;
            while let Some(w) = walks.get(i).cloned() {
                i += 1;
                let last = w[w.len() - 1];
                shortest.entry(last).or_insert(w.len() - 1);
                let longer = adj[last.idx()].iter().filter(|n| !w.contains(n));
                walks.extend(longer.map(|n| [&w[..], &[*n]].concat()));
            }
            for w in walks {
                let names: Vec<&str> = w.iter().map(|d| topo.name(*d)).collect();
                let far = shortest[&w[w.len() - 1]];
                let accept: Vec<bool> = exprs.iter().map(|e| accepts(e, &names, far)).collect();
                if accept.contains(&true) {
                    for k in 1..w.len() {
                        let none = vec![false; exprs.len()];
                        paths.0.entry(w[..k].to_vec()).or_insert(none);
                    }
                    paths.0.insert(w, accept);
                }
            }
        }
        paths
    }
}

fn ingress(net: &Network, inv: &Invariant) -> Vec<DeviceId> {
    let topo = &net.topology;
    inv.ingress.iter().map(|n| topo.expect_device(n)).collect()
}

/// The behavior's path expressions, each once.
fn exprs(b: &Behavior) -> Vec<&PathExpr> {
    match b {
        Behavior::Exist { path, .. } | Behavior::Covered { path } => vec![path],
        Behavior::Equal { path } => vec![path],
        Behavior::Not(x) => exprs(x),
        Behavior::And(x, y) | Behavior::Or(x, y) => {
            let mut out = exprs(x);
            for p in exprs(y) {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
            out
        }
    }
}

/// Would the planner give the intent a slice on this scene: some
/// ingress has a valid path, and none passes a device that is down.
pub fn plannable(net: &Network, churn: &ChurnState, inv: &Invariant) -> bool {
    let paths = Paths::new(net, churn, inv, &exprs(&inv.behavior));
    !paths.0.is_empty() && paths.0.keys().flatten().all(|d| !churn.is_down(*d))
}

// ---------------------------------------------------------------------
// Counting
// ---------------------------------------------------------------------

fn lookup(fib: &Fib, p: Packet) -> Option<&Action> {
    let hit = fib.rules().iter().find(|r| {
        let m = &r.matches;
        let port = m
            .dst_port
            .is_none_or(|(lo, hi)| (lo..=hi).contains(&p.port));
        within(&m.dst, p.dst) && port && m.proto.is_none_or(|x| x == p.proto)
    });
    hit.map(|r| &r.action)
}

/// The device next hops of an action, each once, and whether it leaves
/// the network.
fn hops(next_hops: &[NextHop]) -> (BTreeSet<DeviceId>, bool) {
    let devices = next_hops.iter().filter_map(|h| match h {
        NextHop::Device(d) => Some(*d),
        NextHop::External => None,
    });
    (devices.collect(), next_hops.contains(&NextHop::External))
}

/// Every pairing of universes, counts adding: replicated copies
/// co-occur.
fn sum(a: &Outcomes, b: &Outcomes) -> Outcomes {
    let add = |x: &Vec<u32>, y: &Vec<u32>| x.iter().zip(y).map(|(i, j)| i + j).collect();
    a.iter()
        .flat_map(|x| b.iter().map(move |y| add(x, y)))
        .collect()
}

struct Counter<'a> {
    net: &'a Network,
    paths: &'a Paths,
    /// Path expressions, plus the escape component.
    dim: usize,
}

impl Counter<'_> {
    fn escapes(&self, n: u32) -> Outcomes {
        let mut v = vec![0; self.dim];
        v[self.dim - 1] = n;
        BTreeSet::from([v])
    }

    /// What the traces of `pkt` that have reached `walk` deliver, per
    /// universe. A destination counts one copy whatever it does next.
    fn outcomes(&self, walk: &mut Vec<DeviceId>, pkt: Packet) -> Outcomes {
        let accept = &self.paths.0[walk.as_slice()];
        let own = BTreeSet::from([accept.iter().map(|a| u32::from(*a)).chain([0]).collect()]);
        // Dropping, or leaving the network, anywhere but at a
        // destination is an escape.
        let stray = u32::from(!accept.contains(&true));
        let (mode, next_hops, rewrite) = match lookup(self.net.fib(walk[walk.len() - 1]), pkt) {
            Some(Action::Forward {
                mode,
                next_hops,
                rewrite,
            }) if !next_hops.is_empty() => (mode, next_hops, rewrite),
            _ => return sum(&own, &self.escapes(stray)),
        };
        // A rewrite replaces the top `len` bits of the destination.
        let keep = rewrite.map_or(u32::MAX, |rw| {
            u32::MAX.checked_shr(rw.to.len.into()).unwrap_or(0)
        });
        let dst = rewrite.map_or(0, |rw| rw.to.addr & !keep) | (pkt.dst & keep);
        let (devices, leaves) = hops(next_hops);
        let (mut kids, mut off_path) = (Vec::new(), 0);
        for h in devices {
            walk.push(h);
            if self.paths.0.contains_key(walk.as_slice()) {
                kids.push(self.outcomes(walk, Packet { dst, ..pkt }));
            } else {
                off_path += 1; // leaving the valid paths is an escape
            }
            walk.pop();
        }
        let out = self.escapes(u32::from(leaves) * stray);
        let onward = match mode {
            // Every copy goes on, and the counts add.
            ActionType::All => {
                let esc = sum(&out, &self.escapes(off_path));
                kids.iter().fold(esc, |acc, k| sum(&acc, k))
            }
            // One hop per universe, chosen for each trace on its own.
            ActionType::Any => {
                let mut any: Outcomes = kids.into_iter().flatten().collect();
                if off_path > 0 {
                    any.extend(self.escapes(1));
                }
                if leaves {
                    any.extend(out);
                }
                any
            }
        };
        sum(&own, &onward)
    }
}

fn eval(b: &Behavior, u: &[u32], exprs: &[&PathExpr]) -> bool {
    let count = |p: &PathExpr| u[exprs.iter().position(|e| *e == p).expect("collected")];
    match b {
        Behavior::Exist { count: c, path } => match *c {
            CountExpr::Eq(k) => count(path) == k,
            CountExpr::Ge(k) => count(path) >= k,
            CountExpr::Gt(k) => count(path) > k,
            CountExpr::Le(k) => count(path) <= k,
            CountExpr::Lt(k) => count(path) < k,
        },
        Behavior::Covered { .. } => u[exprs.len()] == 0,
        Behavior::Equal { .. } => unreachable!("`equal` is judged by equal_verdicts"),
        Behavior::Not(x) => !eval(x, u, exprs),
        Behavior::And(x, y) => eval(x, u, exprs) && eval(y, u, exprs),
        Behavior::Or(x, y) => eval(x, u, exprs) || eval(y, u, exprs),
    }
}

/// Hears, for each sub-behavior judged, whether every universe
/// satisfies it.
type Tally<'a> = &'a mut dyn FnMut(&Behavior, bool);

/// Whether every universe satisfies `b`.
fn judge(b: &Behavior, outs: &Outcomes, exprs: &[&PathExpr], tally: Tally) -> bool {
    let holds = outs.iter().all(|u| eval(b, u, exprs));
    tally(b, holds);
    let parts: Vec<&Behavior> = match b {
        Behavior::Not(x) => vec![x],
        Behavior::And(x, y) | Behavior::Or(x, y) => vec![x, y],
        _ => vec![],
    };
    for x in parts {
        judge(x, outs, exprs, tally);
    }
    holds
}

/// The verdict on each packet of `packets` in the intent's space at
/// each ingress with a valid path (an ingress without one has no
/// source, hence no verdict): whether every universe satisfies the
/// behavior.
pub fn verdicts(
    net: &Network,
    churn: &ChurnState,
    inv: &Invariant,
    packets: &[Packet],
    tally: Tally,
) -> Vec<(DeviceId, Packet, bool)> {
    let exprs = exprs(&inv.behavior);
    let paths = Paths::new(net, churn, inv, &exprs);
    let counter = Counter {
        net,
        paths: &paths,
        dim: exprs.len() + 1,
    };
    let mut out = Vec::new();
    for s in ingress(net, inv)
        .into_iter()
        .filter(|s| paths.0.contains_key(&vec![*s]))
    {
        for p in packets.iter().filter(|p| in_space(&inv.packet_space, p)) {
            let outs = counter.outcomes(&mut vec![s], *p);
            out.push((s, *p, judge(&inv.behavior, &outs, &exprs, tally)));
        }
    }
    out
}

/// The `equal` verdict (on the quiet topology) on each packet of
/// `packets` in the invariant's space: from every ingress, the traces
/// over all universes are exactly the valid paths, and no rewrite
/// happens on the way. That is, every place a valid path passes
/// forwards to exactly the next hops valid paths take from there, and
/// leaves the network exactly where one ends.
pub fn equal_verdicts(net: &Network, inv: &Invariant, packets: &[Packet]) -> Vec<(Packet, bool)> {
    let paths = Paths::new(net, &ChurnState::new(), inv, &exprs(&inv.behavior));
    let mut places = Vec::new();
    for (walk, accept) in &paths.0 {
        let next = net.topology.devices();
        let next = next.filter(|d| paths.0.contains_key(&[&walk[..], &[*d]].concat()));
        places.push((walk[walk.len() - 1], (next.collect(), accept[0])));
    }
    let holds = |p: &Packet| {
        places
            .iter()
            .all(|(here, contract)| match lookup(net.fib(*here), *p) {
                Some(Action::Forward {
                    next_hops,
                    rewrite: None,
                    ..
                }) => hops(next_hops) == *contract,
                _ => false,
            })
    };
    let mine = packets.iter().filter(|p| in_space(&inv.packet_space, p));
    mine.map(|p| (*p, holds(p))).collect()
}
