//! The equivalence harness: the matrix binary of `ci.sh equivalence`.
//!
//! A seeded generator draws small networks (≤ 8 devices; ALL / ANY /
//! drop / deliver / rewrite actions, port-80 rules, an update stream
//! with lower-priority inserts and removals), intents of one counting
//! profile built from the spec AST, and a script over the whole
//! `RuntimeEvent` alphabet. One lockstep loop feeds each op to five
//! substrates — `Session`, `Engine` over `FifoTransport`, `Engine::new`,
//! `Engine::lossy` and `ThreadedEngine` — built with one backend,
//! telemetry mode and batching mode per case and otherwise the default
//! `EngineConfig`; the engines build every device's verifier up front,
//! `Session` a device's when a fence first tasks it. After every op,
//! judge (i) holds every Report, and the bytes each substrate's verdict
//! memo splices for the daemon, byte-equal to the merged per-intent fresh
//! `Session` on the effective network and the substrates to one
//! lifecycle; judge (ii), the [`oracle`], which shares no code with the
//! verifier, checks every verdict. The paper's scenarios are fixed
//! scripts of the same loop, and a failing generated case prints
//! itself as one. The INet2 locality tests at the end stand apart.

#[path = "matrix/oracle.rs"]
mod oracle;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use tulkun::bdd::{serial, BddManager};
use tulkun::core::churn::{ChurnState, TopologyEvent};
use tulkun::core::event::{EventOutcome, RuntimeEvent, Substrate};
use tulkun::core::fault::FaultProfile;
use tulkun::core::intent::IntentId;
use tulkun::core::spec::{FilterOp, LengthBound, LengthFilter};
use tulkun::core::verify::{Freshness, Session, Violation};
use tulkun::netmodel::fib::{MatchSpec, NextHop, Rewrite};
use tulkun::netmodel::network::{coalesce, RuleUpdate};
use tulkun::netmodel::IpPrefix;
use tulkun::prelude::*;
use tulkun::sim::localsim::LocalSim;
use tulkun::sim::runtime::FifoTransport;
use tulkun::sim::{BackendKind, Engine, EngineConfig, SwitchModel, ThreadedEngine};
use tulkun::telemetry::{JournalKind as K, Telemetry, TelemetryConfig};
use Op::*;

// ---------------------------------------------------------------------
// Worlds and scripts
// ---------------------------------------------------------------------

/// What every substrate of a case records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tel {
    Off,
    On,
    NoJournal,
}

/// The construction-time axes of one case.
#[derive(Debug, Clone, Copy)]
struct Axes {
    backend: BackendKind,
    /// The management network under the lossy engine.
    loss: FaultProfile,
    tel: Tel,
    /// Feed k updates as k singleton batches, not one batch of k.
    singletons: bool,
}

/// What a script runs against.
struct World {
    net: Network,
    /// Intent 0, which every substrate is built with.
    base: Invariant,
    /// What `Install` draws from, in the base's counting profile.
    pool: Vec<Invariant>,
    /// Judged by local contracts, on the `verify_snapshot` path.
    equal: Option<Invariant>,
    /// What `Updates` and `Staged` consume, in order, cyclically.
    updates: Vec<RuleUpdate>,
    axes: Axes,
}

/// One step of a script; devices are indices.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The next n updates: one `Batch`, or n singleton batches.
    Updates(usize),
    /// The same, staged: the UPDATE wave is left in flight.
    Staged(usize),
    LinkDown(u32, u32),
    LinkUp(u32, u32),
    DeviceDown(u32),
    DeviceUp(u32),
    Crash(u32),
    /// Install `pool[i % len]`.
    Install(usize),
    /// Remove the `i % len`-th runtime intent admitted (live, parked or
    /// degraded alike).
    Remove(usize),
}

/// A world whose invariants are printed and parsed back: the parser
/// must give the same AST, and the parsed copies are what get driven.
fn world(net: Network, base: Invariant, pool: Vec<Invariant>, axes: Axes) -> World {
    World {
        net,
        base: reparsed(base),
        pool: pool.into_iter().map(reparsed).collect(),
        equal: None,
        updates: Vec::new(),
        axes,
    }
}

fn reparsed(inv: Invariant) -> Invariant {
    let text = inv.to_string();
    let back = Invariant::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(back, inv, "{text} does not parse back to its AST");
    back
}

fn rule(priority: u32, matches: MatchSpec, action: Action) -> Rule {
    Rule {
        priority,
        matches,
        action,
    }
}

// ---------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------

/// splitmix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// Every generated prefix: 10.0.0.0/22, its halves, quarters and
/// eighths, so a shorter rule covers a longer one from either half.
fn prefixes() -> Vec<IpPrefix> {
    let all = (22..=25u8).flat_map(|len| (0..1u32 << (len - 22)).map(move |i| (i, len)));
    let prefix = |(i, len): (u32, u8)| IpPrefix::new((10 << 24) + (i << (32 - len)), len);
    all.map(prefix).collect()
}

/// The counting profile of a case, which all its intents share.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A lone `exist` of one count class (one Proposition-1 reduction).
    Exist(usize),
    /// And / or / not over this many path expressions, with or
    /// without a `covered` leaf.
    Tree(usize, bool),
}

/// Draws one case.
struct Gen {
    r: Rng,
    net: Network,
    /// The device announcing 10.0.0.0/22, where every path ends.
    dst: DeviceId,
    /// No port rules, port spaces or rewrites: every backend can run it.
    dst_only: bool,
    /// Hops from each device to `dst`.
    dist: Vec<u32>,
}

impl Gen {
    fn device(&mut self) -> DeviceId {
        DeviceId(self.r.below(self.net.topology.num_devices()) as u32)
    }

    fn name(&self, d: DeviceId) -> String {
        self.net.topology.name(d).to_string()
    }

    /// A device other than the destination.
    fn source(&mut self) -> DeviceId {
        let d = self.device();
        if d == self.dst {
            self.source()
        } else {
            d
        }
    }

    /// The neighbours of `d`, nearest the destination first.
    fn neighbors(&self, d: DeviceId) -> Vec<DeviceId> {
        let mut nbrs: Vec<_> = self.net.topology.neighbors(d).iter().map(|n| n.0).collect();
        nbrs.sort_by_key(|n| self.dist[n.idx()]);
        nbrs
    }

    fn action(&mut self, d: DeviceId) -> Action {
        let nbrs = self.neighbors(d);
        let dev = NextHop::Device;
        let (one, other) = (dev(self.r.pick(&nbrs)), dev(self.r.pick(&nbrs)));
        let mode = self.r.pick(&[ActionType::All, ActionType::Any]);
        let (next_hops, rewrite) = match self.r.below(10) {
            0 => return Action::Drop,
            1 => return Action::deliver(),
            2 | 3 => (vec![dev(nbrs[0])], None),
            4 => (vec![one], None),
            5 | 6 => (vec![one, other], None),
            7 => (vec![one, NextHop::External], None),
            8 if !self.dst_only => {
                let to = self.r.pick(&prefixes()[1..]);
                (vec![dev(nbrs[0])], Some(Rewrite { to }))
            }
            _ => (nbrs.into_iter().map(dev).collect(), None),
        };
        Action::Forward {
            mode,
            next_hops,
            rewrite,
        }
    }

    fn rule(&mut self, d: DeviceId) -> Rule {
        let mut matches = MatchSpec::dst(self.r.pick(&prefixes()));
        if !self.dst_only && self.r.one_in(4) {
            matches = matches.with_port(80);
        }
        rule(1 + self.r.below(40) as u32, matches, self.action(d))
    }

    /// An insert at a random priority (often below a rule it overlaps),
    /// or the removal of a rule `at` holds.
    fn update(&mut self, at: &Network) -> RuleUpdate {
        let device = self.device();
        let rules = at.fib(device).rules();
        if rules.is_empty() || !self.r.one_in(3) {
            return RuleUpdate::Insert {
                device,
                rule: self.rule(device),
            };
        }
        let victim = &rules[self.r.below(rules.len())];
        let (priority, matches) = (victim.priority, victim.matches);
        RuleUpdate::Remove {
            device,
            priority,
            matches,
        }
    }

    /// Mostly the bound one delivered copy decides: two copies are rare.
    fn count(&mut self, class: usize) -> CountExpr {
        let (k, rare) = (self.r.below(2) as u32, u32::from(self.r.one_in(4)));
        match (class, self.r.one_in(2)) {
            (0, true) => CountExpr::Ge(1 + rare),
            (0, false) => CountExpr::Gt(rare),
            (1, true) => CountExpr::Le(k),
            (1, false) => CountExpr::Lt(1 + rare),
            _ => CountExpr::Eq(k),
        }
    }

    /// A loop-free path expression from `start` to the destination —
    /// plain, through a waypoint, avoiding devices or through one of
    /// two — with a hop filter, a `shortest` filter or none.
    fn path(&mut self, start: &str) -> PathExpr {
        let (w, x) = (self.device(), self.device());
        let (w, x, dst) = (self.name(w), self.name(x), self.name(self.dst));
        let mid = match self.r.below(5) {
            0 | 1 => ".*".to_string(),
            2 => format!(".* {w} .*"),
            3 => format!("[^{w} {x}]*"),
            _ => format!(".* ({w} | {x}) .*"),
        };
        let end = if self.r.one_in(4) {
            format!("({dst} | {x})")
        } else {
            dst
        };
        let p = PathExpr::parse(&format!("{start} {mid} {end}"))
            .unwrap()
            .loop_free();
        let (op, bound) = match self.r.below(6) {
            0 => (FilterOp::Le, LengthBound::Hops(2 + self.r.below(3) as u32)),
            1 => (
                FilterOp::Le,
                LengthBound::ShortestPlus(self.r.below(2) as i32),
            ),
            2 => (FilterOp::Eq, LengthBound::ShortestPlus(0)),
            3 => (FilterOp::Ge, LengthBound::Hops(2)),
            _ => return p,
        };
        PathExpr {
            filters: vec![LengthFilter { op, bound }],
            ..p
        }
    }

    fn behavior(&mut self, shape: Shape, start: &str) -> Behavior {
        let (exprs, covered) = match shape {
            Shape::Exist(class) => return Behavior::exist(self.count(class), self.path(start)),
            Shape::Tree(exprs, covered) => (exprs, covered),
        };
        let mut paths = vec![self.path(start)];
        while paths.len() < exprs {
            let p = self.path(start);
            if !paths.contains(&p) {
                paths.push(p);
            }
        }
        let mut leaves = Vec::new();
        for i in 0..exprs + usize::from(self.r.one_in(2)) {
            let (class, p) = (self.r.below(3), paths[i % exprs].clone());
            leaves.push(Behavior::exist(self.count(class), p));
        }
        if covered {
            let p = paths[self.r.below(exprs)].clone();
            leaves.push(if self.r.one_in(3) {
                Behavior::subset(p)
            } else {
                Behavior::covered(p)
            });
        }
        while leaves.len() > 1 {
            let a = leaves.swap_remove(self.r.below(leaves.len()));
            let b = leaves.swap_remove(self.r.below(leaves.len()));
            let ab = if self.r.one_in(3) { a.or(b) } else { a.and(b) };
            leaves.push(if self.r.one_in(4) { ab.not() } else { ab });
        }
        match leaves.pop().unwrap() {
            // A bare `exist` would be the other profile.
            b @ Behavior::Exist { .. } => b.not(),
            b => b,
        }
    }

    fn space(&mut self) -> PacketSpace {
        let p = PacketSpace::DstPrefix(self.r.pick(&prefixes()[..7]));
        match self.r.below(8) {
            _ if self.dst_only => p,
            0 => p.and(PacketSpace::dst_port(80)),
            1 => p.and(PacketSpace::dst_port(80).not()),
            _ => p,
        }
    }

    fn intent(&mut self, shape: Shape) -> Invariant {
        let (a, b) = (self.source(), self.source());
        let (ingress, start) = match self.r.below(8) {
            0 if a != b => (vec![a, b], format!("[{} {}]", self.name(a), self.name(b))),
            0 | 1 => (vec![a, b], ".".into()),
            2 => (vec![a], ".".into()),
            _ => (vec![a], self.name(a)),
        };
        let ingress: BTreeSet<String> = ingress.into_iter().map(|d| self.name(d)).collect();
        let (space, behavior) = (self.space(), self.behavior(shape, &start));
        let inv = Invariant::builder().packet_space(space).ingress(ingress);
        inv.behavior(behavior).build().unwrap()
    }

    /// An `equal` invariant from one source. Random FIBs almost never
    /// satisfy one, so half the time its prefix is first routed along
    /// every shortest path to the destination, where a `src .* dst (==
    /// shortest)` expression then holds.
    fn equal(&mut self) -> Invariant {
        let (src, conform) = (self.source(), self.r.one_in(2));
        let (start, dst, space) = (self.name(src), self.name(self.dst), self.space());
        let shortest = |text: String| PathExpr::parse(&text).unwrap().loop_free().shortest_only();
        let path = match self.r.below(3) {
            0 => shortest(format!("{start} .* {dst}")),
            1 => shortest(format!(".* {dst}")),
            _ => self.path(&start),
        };
        let matches = MatchSpec::dst(space.positive_dst_prefixes()[0]);
        let devices: Vec<DeviceId> = self.net.topology.devices().collect();
        if conform {
            for d in devices {
                let closer = |n: &DeviceId| self.dist[n.idx()] < self.dist[d.idx()];
                let toward = Action::fwd_any(self.neighbors(d).into_iter().filter(closer));
                let action = if d == self.dst {
                    Action::deliver()
                } else {
                    toward
                };
                self.net.fib_mut(d).insert(rule(45, matches, action));
            }
        }
        let inv = Invariant::builder().packet_space(space).ingress([start]);
        inv.behavior(Behavior::equal(path)).build().unwrap()
    }
}

impl World {
    fn generated(seed: u64) -> World {
        let mut r = Rng(seed);
        let n = 4 + r.below(5);
        // A random tree (so it is connected) plus a few chords.
        let mut topo = Topology::new();
        let ids: Vec<DeviceId> = (0..n).map(|i| topo.add_device(format!("d{i}"))).collect();
        for i in 1..n {
            topo.add_link(ids[r.below(i)], ids[i], 1000);
        }
        for _ in 0..n / 2 {
            let (a, b) = (ids[r.below(n)], ids[r.below(n)]);
            if a != b && topo.link_between(a, b).is_none() {
                topo.add_link(a, b, 1000);
            }
        }
        let (dst, dst_only) = (ids[r.below(n)], r.one_in(3));
        topo.add_external_prefix(dst, prefixes()[0]);
        let dist = topo.bfs_hops(dst, &[]);
        let mut g = Gen {
            r,
            net: Network::new(topo),
            dst,
            dst_only,
            dist,
        };
        // Mostly a route toward the destination for the whole /22, under
        // random rules for its parts.
        for &d in &ids {
            let default = match (d == dst, g.r.one_in(4)) {
                (true, _) => Action::deliver(),
                (false, true) => g.action(d),
                (false, false) => Action::fwd(g.neighbors(d)[0]),
            };
            let default = rule(20, MatchSpec::dst(prefixes()[0]), default);
            g.net.fib_mut(d).insert(default);
            for _ in 0..g.r.below(3) {
                let extra = g.rule(d);
                g.net.fib_mut(d).insert(extra);
            }
        }
        let shape = match g.r.below(6) {
            class @ 0..=2 => Shape::Exist(class),
            _ => Shape::Tree(1 + g.r.below(2), g.r.one_in(2)),
        };
        let base = loop {
            let inv = g.intent(shape);
            if oracle::plannable(&g.net, &ChurnState::new(), &inv) {
                break inv;
            }
        };
        let pool = (0..3 + g.r.below(2)).map(|_| g.intent(shape)).collect();
        let equal = g.r.one_in(3).then(|| reparsed(g.equal()));
        // Drawn against the FIBs the stream itself has left, so its
        // removals name rules in place when they are applied.
        let (mut at, mut updates) = (g.net.clone(), Vec::new());
        for _ in 0..48 {
            updates.push(g.update(&at));
            at.apply(updates.last().unwrap());
        }
        let loss = match g.r.below(4) {
            3 => FaultProfile::chaos(seed),
            i => FaultProfile::loss(seed, [0.0, 0.01, 0.10][i]),
        };
        let backend = if dst_only {
            g.r.pick(&BackendKind::CONCRETE)
        } else {
            BackendKind::Bdd
        };
        let tel = g.r.pick(&[Tel::Off, Tel::On, Tel::NoJournal]);
        let axes = Axes {
            backend,
            loss,
            tel,
            singletons: g.r.one_in(2),
        };
        World {
            equal,
            updates,
            ..world(g.net, base, pool, axes)
        }
    }
}

/// A seeded script over the whole event alphabet. An up mostly names
/// what the script took down; one that does not is a no-op event every
/// substrate must agree on too.
fn script(world: &World, seed: u64) -> Vec<Op> {
    let mut r = Rng(seed ^ 0x0123_4567_89ab_cdef);
    let topo = &world.net.topology;
    let links: Vec<(u32, u32)> = topo.links().iter().map(|l| (l.a.0, l.b.0)).collect();
    let (devices, len) = (topo.num_devices(), 6 + r.below(7));
    let (mut links_down, mut devices_down) = (Vec::new(), Vec::new());
    let mut op = || match r.below(20) {
        0..=5 => Updates(1 + r.below(4)),
        6 => Staged(1 + r.below(3)),
        7..=9 => {
            let (a, b) = r.pick(&links);
            links_down.push((a, b));
            LinkDown(a, b)
        }
        10 | 11 if !links_down.is_empty() => {
            let (a, b) = links_down.swap_remove(r.below(links_down.len()));
            LinkUp(a, b)
        }
        12 => {
            let x = r.below(devices) as u32;
            devices_down.push(x);
            DeviceDown(x)
        }
        13 if !devices_down.is_empty() => {
            DeviceUp(devices_down.swap_remove(r.below(devices_down.len())))
        }
        14 | 15 => Crash(r.below(devices) as u32),
        16..=18 => Install(r.below(world.pool.len())),
        _ => Remove(r.below(4)),
    };
    (0..len).map(|_| op()).collect()
}

// ---------------------------------------------------------------------
// Lockstep execution
// ---------------------------------------------------------------------

const SUBSTRATES: [&str; 5] = ["session", "fifo", "event", "lossy", "threaded"];
const REPAIRS: &str = "tulkun_fence_repairs_total";
/// UPDATEs a parent received on an edge its task lacks.
const STRAY: &str = "tulkun_dvm_stray_updates_total";

/// The substrates under test.
struct Subs {
    session: Session,
    fifo: Engine,
    event: Engine,
    lossy: Engine,
    threaded: ThreadedEngine,
    /// Devices some plan has tasked so far: every other verifier has
    /// only folded FIB batches since it was built.
    tasked: BTreeSet<DeviceId>,
}

/// `[$e; 5]`, `$e` evaluated with `$s` bound to each substrate of
/// `$subs` in turn, in `SUBSTRATES` order.
macro_rules! all {
    ($subs:expr, $s:ident => $e:expr) => {{
        let subs = &mut *$subs;
        [
            {
                let $s = &mut subs.session;
                $e
            },
            {
                let $s = &mut subs.fifo;
                $e
            },
            {
                let $s = &mut subs.event;
                $e
            },
            {
                let $s = &mut subs.lossy;
                $e
            },
            {
                let $s = &mut subs.threaded;
                $e
            },
        ]
    }};
}

fn counter(tel: &Telemetry, name: &str) -> u64 {
    tel.metrics().counters.get(name).copied().unwrap_or(0)
}

impl Subs {
    /// The five substrates over the world's base plan, each quiescent.
    fn new(world: &World, tels: &[Arc<Telemetry>]) -> Subs {
        let (net, ps, backend) = (&world.net, &world.base.packet_space, world.axes.backend);
        let plan = Planner::new(&net.topology)
            .plan(&world.base)
            .expect("the base plans");
        let cp = plan.counting().expect("a counting base");
        let cfg = |i: usize| EngineConfig {
            backend,
            telemetry: tels[i].clone(),
            ..EngineConfig::default()
        };
        let mut session = Session::from_counting_with_backend(net, cp.clone(), ps, backend);
        session.set_telemetry(tels[0].clone());
        let fifo = Box::<FifoTransport>::default();
        let mut subs = Subs {
            session,
            fifo: Engine::over(net, cp, ps, &cfg(1), fifo),
            event: Engine::new(net, cp, ps, cfg(2)),
            lossy: Engine::lossy(net, cp, ps, cfg(3), world.axes.loss),
            threaded: ThreadedEngine::spawn_with(net, cp, ps, &cfg(4)),
            tasked: cp.tasks.iter().map(|t| t.dev).collect(),
        };
        subs.drain();
        subs
    }

    fn drain(&mut self) {
        all!(self, s => s.run_to_quiescence());
    }

    /// Applies `ev` on every substrate; none may refuse it.
    fn everywhere(&mut self, ev: &RuntimeEvent, ctx: &str) -> Vec<EventOutcome> {
        let outs = all!(self, s => s.apply_event(ev))
            .into_iter()
            .zip(SUBSTRATES);
        outs.map(|(o, name)| o.unwrap_or_else(|e| panic!("{ctx}: {name} refused it: {e:?}")))
            .collect()
    }
}

/// What the substrates should be tracking.
struct Model {
    /// The base topology with the current FIBs.
    net: Network,
    churn: ChurnState,
    /// Every intent admitted and not removed, by id: the base, and each
    /// install no substrate refused.
    tracked: Vec<(u64, Invariant)>,
    /// Position in the world's update stream.
    cursor: usize,
    /// A staged wave nothing has driven to quiescence yet.
    undrained: bool,
    crashes: u64,
}

/// What a script left behind, for fixed scripts to assert on.
struct Finish {
    cov: Coverage,
    /// Fences that ran the repair wave on the event engine.
    repairs: u64,
    /// The lossy engine's parked, degraded and live intents, and
    /// whether its Report is `Fresh` everywhere.
    lossy: (usize, usize, usize, bool),
    /// The Report holds.
    holds: bool,
}

/// Drives `ops` through the five substrates in lockstep; both judges
/// rule after every op that leaves them quiescent.
fn run(world: &World, ops: &[Op]) -> Finish {
    let recorder = || match world.axes.tel {
        Tel::Off => Telemetry::disabled(),
        // Roomy: fault entries must not evict a lifecycle entry.
        Tel::On => Telemetry::new(TelemetryConfig {
            journal_capacity: 1 << 16,
            ..TelemetryConfig::enabled()
        }),
        Tel::NoJournal => Telemetry::new(TelemetryConfig::enabled_without_journal()),
    };
    let tels: Vec<Arc<Telemetry>> = (0..5).map(|_| recorder()).collect();
    let mut subs = Subs::new(world, &tels);
    let mut m = Model {
        net: world.net.clone(),
        churn: ChurnState::new(),
        tracked: vec![(0, world.base.clone())],
        cursor: 0,
        undrained: false,
        crashes: 0,
    };
    let mut cov = Coverage::default();
    cov.axes(&world.axes);
    judge(&mut subs, world, &m, &mut cov, "after the burst");
    for (i, &op) in ops.iter().enumerate() {
        let ctx = format!("op {i} ({op:?})");
        let (epoch, quiet) = (subs.session.epoch(), !m.undrained);
        let repairs: Vec<u64> = tels.iter().map(|t| counter(t, REPAIRS)).collect();
        let Some(rescened) = step(&mut subs, world, &mut m, op, &ctx, &mut cov) else {
            continue;
        };
        // Every fence is driven to quiescence.
        m.undrained &= subs.session.epoch() == epoch;
        // Devices first tasked by this op's fence: verifiers that hosted
        // nothing and only folded FIB batches until now.
        let store = subs.event.intents();
        let now: BTreeSet<DeviceId> = store.global_tasks().iter().map(|t| t.dev).collect();
        cov.add(
            "first tasked by a fence",
            now.difference(&subs.tasked).count() as u64,
        );
        subs.tasked.extend(now);
        let epochs = all!(&mut subs, s => s.epoch());
        assert!(
            epochs.iter().all(|e| *e == epochs[0]),
            "{ctx}: epochs {epochs:?}"
        );
        for (k, (t, name)) in tels.iter().zip(SUBSTRATES).enumerate() {
            let bumps = |t: &Telemetry| counter(t, "tulkun_epoch_bumps_total");
            assert_eq!(bumps(t), bumps(&tels[0]), "{ctx}: {name}'s epoch bumps");
            // A fence that lands on a quiescent exchange repairs nothing
            // (the threaded runner may still be draining a crash).
            let repaired = k < 4 && quiet && counter(t, REPAIRS) != repairs[k];
            assert!(!repaired, "{ctx}: a quiet fence repaired on {name}");
            // A child speaks only on its parents' edges: a node that
            // lost its parent was re-tasked or removed with it.
            assert_eq!(counter(t, STRAY), 0, "{ctx}: stray UPDATEs on {name}");
        }
        if world.axes.tel == Tel::On {
            journals_agree(&tels, &ctx);
        }
        lifecycle(&mut subs, world, &mut m, rescened, &ctx);
        if m.undrained {
            if i + 1 < ops.len() {
                continue; // a later op drains it
            }
            subs.drain();
            m.undrained = false;
        }
        judge(&mut subs, world, &m, &mut cov, &ctx);
    }
    finish(subs, &tels, world, &m, cov)
}

/// Feeds one op to every substrate: `None` if it names nothing to do,
/// else whether it moved every intent to a new scene.
fn step(
    subs: &mut Subs,
    world: &World,
    m: &mut Model,
    op: Op,
    ctx: &str,
    cov: &mut Coverage,
) -> Option<bool> {
    let d = DeviceId;
    let event = match op {
        Updates(n) | Staged(n) => {
            let stream = &world.updates;
            let batch: Vec<_> = (m.cursor..m.cursor + n)
                .map(|k| stream[k % stream.len()].clone())
                .collect();
            (m.cursor, m.undrained) = (m.cursor + n, matches!(op, Staged(_)));
            batch.iter().for_each(|u| m.net.apply(u));
            for chunk in batch.chunks(if world.axes.singletons { 1 } else { n }) {
                if m.undrained {
                    all!(subs, s => s.stage_batch(chunk));
                } else {
                    subs.everywhere(&RuntimeEvent::Batch(chunk.to_vec()), ctx);
                }
            }
            cov.fed(if m.undrained { "staged batch" } else { "batch" });
            return Some(false);
        }
        Crash(x) if m.churn.is_down(d(x)) => return None, // no agent to crash
        Crash(x) => {
            // Every substrate takes it, the reference session included,
            // and its Report joins the byte-equality check below.
            let crash = RuntimeEvent::CrashRestart(d(x));
            let refused = all!(subs, s => s.apply_event(&crash).is_err());
            assert_eq!(refused, [false; 5], "{ctx}");
            (m.undrained, m.crashes) = (false, m.crashes + 1);
            cov.fed("crash/restart");
            return Some(false);
        }
        Install(p) => {
            let inv = world.pool[p % world.pool.len()].clone();
            let name = format!("pool-{p}");
            let ev = RuntimeEvent::InstallIntent {
                name,
                invariant: inv.clone(),
            };
            // (ii) An install the scene cannot host is refused by every
            // substrate on a quiet network and parks under churn.
            let unhosted = !oracle::plannable(&world.net, &m.churn, &inv);
            if unhosted && m.churn.is_quiet() {
                let refused = all!(subs, s => s.apply_event(&ev).is_err());
                assert_eq!(refused, [true; 5], "{ctx}: refused");
                cov.fed("refused install");
                return Some(false);
            }
            let outs: Vec<_> = subs
                .everywhere(&ev, ctx)
                .iter()
                .map(|o| (o.intent, o.parked))
                .collect();
            assert!(outs.iter().all(|o| *o == outs[0]), "{ctx}: {outs:?}");
            assert_eq!(outs[0].1, unhosted, "{ctx}: parked");
            m.tracked
                .push((outs[0].0.expect("installs name their intent").0, inv));
            cov.fed("install");
            return Some(false);
        }
        Remove(k) => {
            let ids: Vec<u64> = m
                .tracked
                .iter()
                .map(|t| t.0)
                .filter(|id| *id != 0)
                .collect();
            let id = IntentId(*ids.get(k % ids.len().max(1))?);
            subs.everywhere(&RuntimeEvent::RemoveIntent(id), ctx);
            let held = all!(subs, s => s.intents().is_parked(id) || s.intents().get(id).is_some());
            assert_eq!(held, [false; 5], "{ctx}: intent {id} is still held");
            m.tracked.retain(|t| t.0 != id.0);
            cov.fed("remove");
            return Some(false);
        }
        LinkDown(a, b) => TopologyEvent::LinkDown(d(a), d(b)),
        LinkUp(a, b) => TopologyEvent::LinkUp(d(a), d(b)),
        DeviceDown(x) => TopologyEvent::DeviceDown(d(x)),
        DeviceUp(x) => TopologyEvent::DeviceUp(d(x)),
    };
    let (base, invariant) = (world.net.topology.clone(), world.base.clone());
    let ev = RuntimeEvent::Topology {
        event,
        base,
        invariant,
    };
    let took = all!(subs, s => s.apply_event(&ev).is_ok());
    assert!(
        took.iter().all(|t| *t == took[0]),
        "{ctx}: accepted {took:?}"
    );
    // (ii) Only a base slice the new scene cannot host refuses it.
    let mut next = m.churn.clone();
    let changed = next.apply(&event);
    let hosted = oracle::plannable(&world.net, &next, &world.base);
    assert_eq!(
        took[0],
        !changed || hosted,
        "{ctx}: accepted, base hosted {hosted}"
    );
    if took[0] && changed {
        m.churn = next;
    }
    cov.fed(match event {
        TopologyEvent::LinkDown(..) => "link down",
        TopologyEvent::LinkUp(..) => "link up",
        TopologyEvent::DeviceDown(_) => "device down",
        TopologyEvent::DeviceUp(_) => "device up",
    });
    Some(took[0] && changed)
}

/// (i) The lifecycle is decided in one place, so every substrate
/// journals it alike, and an install shares its trace with a fence.
fn journals_agree(tels: &[Arc<Telemetry>], ctx: &str) {
    let journal = |tel: &Arc<Telemetry>| -> Vec<(K, u64, Option<u64>, u64)> {
        let events = tel.journal_events();
        let lifecycle = |k: K| {
            k.as_str().starts_with("intent_")
                || [K::EpochFence, K::TopologyChurn, K::CrashRestart].contains(&k)
        };
        let kept = events.iter().filter(|e| lifecycle(e.kind));
        kept.map(|e| (e.kind, e.epoch, e.intent, e.trace)).collect()
    };
    let journals: Vec<_> = tels.iter().map(journal).collect();
    let untraced = |j: &[(K, u64, Option<u64>, u64)]| -> Vec<_> {
        j.iter().map(|e| (e.0, e.1, e.2)).collect()
    };
    for (j, name) in journals.iter().zip(SUBSTRATES) {
        assert_eq!(
            untraced(j),
            untraced(&journals[0]),
            "{ctx}: {name}'s journal"
        );
        let fenced = |t: u64| j.iter().any(|e| e.0 == K::EpochFence && e.3 == t);
        let unfenced = j.iter().find(|e| e.0 == K::IntentInstalled && !fenced(e.3));
        assert!(
            unfenced.is_none(),
            "{ctx}: {name}: {unfenced:?} shares no trace with a fence"
        );
    }
}

/// (i) Every store agrees on each admitted intent's lifecycle; (ii) an
/// intent is parked only on a scene that cannot host it and, after a
/// fence to a new scene re-planned it, degraded exactly when the scene
/// cannot host it. (An install never lands on a scene that cannot host
/// it: `step` holds it refused on a quiet network and parked under
/// churn.) Installs every store gave up on are dropped.
fn lifecycle(subs: &mut Subs, world: &World, m: &mut Model, rescened: bool, ctx: &str) {
    let stores = all!(subs, s => s.intents());
    let churn = &m.churn;
    m.tracked.retain(|(id, inv)| {
        let id = IntentId(*id);
        let state = stores.map(|s| (s.is_parked(id), s.get(id).map(|i| i.is_degraded())));
        assert!(
            state.iter().all(|s| *s == state[0]),
            "{ctx}: intent {id}: {state:?}"
        );
        let hosted = oracle::plannable(&world.net, churn, inv);
        match state[0] {
            (true, _) => assert!(
                !hosted,
                "{ctx}: intent {id} parked on a scene that hosts it"
            ),
            (false, None) => return false,
            (false, Some(degraded)) => {
                assert!(!rescened || degraded != hosted, "{ctx}: intent {id}")
            }
        }
        true
    });
}

/// A membership test for the packets a Report flags, by intent and
/// (optionally) device: the one place the oracle's answers meet the
/// verifier's predicates, through a BDD `eval` on one packet.
fn flagged(
    report: &Report,
    net: &Network,
) -> impl Fn(u64, Option<DeviceId>, oracle::Packet) -> bool {
    let layout = net.layout;
    let mut mgr = BddManager::new(layout.num_vars());
    let mut import = |v: &Violation| {
        (
            v.intent,
            v.device,
            serial::import(&mut mgr, &v.pred).unwrap(),
        )
    };
    let preds: Vec<_> = report.violations.iter().map(&mut import).collect();
    move |intent, dev, p| {
        let mut bits = vec![false; layout.num_vars() as usize];
        let fields = [
            (layout.dst_ip, p.dst),
            (layout.dst_port, p.port.into()),
            (layout.proto, p.proto.into()),
        ];
        for (f, v) in fields {
            for i in 0..f.width {
                bits[(f.offset + i) as usize] = (v >> (f.width - 1 - i)) & 1 == 1;
            }
        }
        let hit = |(i, d, q): &(u64, DeviceId, _)| {
            *i == intent && dev.is_none_or(|x| x == *d) && mgr.eval(*q, &bits)
        };
        preds.iter().any(hit)
    }
}

/// Both judges on a quiescent state: (i) every Report is byte-equal to
/// the merged per-intent fresh `Session` on the effective network; (ii)
/// the oracle agrees with each of its verdicts, and with local
/// contracts on the world's `equal` invariant.
fn judge(subs: &mut Subs, world: &World, m: &Model, cov: &mut Coverage, ctx: &str) {
    let store = subs.session.intents();
    let hosted = |t: &&(u64, Invariant)| store.get(IntentId(t.0)).is_some_and(|i| !i.is_degraded());
    let evaluated: Vec<_> = m.tracked.iter().filter(hosted).collect();
    let post = Network {
        topology: m.churn.apply_to(&world.net.topology),
        ..m.net.clone()
    };
    let mut merged = Vec::new();
    for (id, inv) in &evaluated {
        let plan = Planner::new(&post.topology)
            .plan(inv)
            .expect("a hosted intent plans");
        let mut fresh = Session::new(&post, &plan);
        fresh.run_to_quiescence();
        merged.extend(
            fresh
                .report()
                .violations
                .into_iter()
                .map(|v| Violation { intent: *id, ..v }),
        );
    }
    let expect = Report {
        violations: merged,
        ..Report::default()
    }
    .canonical_bytes();
    // The daemon's path: the bytes spliced from each substrate's
    // per-source verdict memo, taken before `report` reads it again.
    let spliced = all!(subs, s => s.verdicts().canonical_bytes());
    for (bytes, name) in spliced.iter().zip(SUBSTRATES) {
        assert!(
            *bytes == expect,
            "{ctx}: {name}'s spliced Report is not the fresh one"
        );
    }
    let reports = all!(subs, s => s.report());
    for (r, name) in reports.iter().zip(SUBSTRATES) {
        assert!(
            r.canonical_bytes() == expect,
            "{ctx}: {name}'s Report is not the fresh one"
        );
    }
    let report = &reports[0];
    let flags = flagged(report, &m.net);
    let mut spaces: Vec<&PacketSpace> = evaluated.iter().map(|t| &t.1.packet_space).collect();
    spaces.extend(world.equal.iter().map(|e| &e.packet_space));
    let packets = oracle::packets(&m.net, &spaces);
    let mut sources = BTreeSet::new();
    for (id, inv) in &evaluated {
        let mut tally = |b: &Behavior, holds| cov.verdict(b, holds);
        for (dev, p, holds) in oracle::verdicts(&m.net, &m.churn, inv, &packets, &mut tally) {
            sources.insert((*id, dev));
            let at = world.net.topology.name(dev);
            assert_eq!(
                flags(*id, Some(dev), p),
                !holds,
                "{ctx}: {inv} at {at} on {p:?}"
            );
        }
    }
    let stray = report
        .violations
        .iter()
        .find(|v| !sources.contains(&(v.intent, v.device)));
    assert!(stray.is_none(), "{ctx}: {stray:?} is at no source");
    let Some(eq) = &world.equal else { return };
    let plan = Planner::new(&world.net.topology)
        .plan(eq)
        .expect("`equal` plans");
    let snapshot = verify_snapshot(&m.net, &plan);
    let lp = plan.local().expect("local contracts");
    let local = LocalSim::new(&m.net, lp, &eq.packet_space, SwitchModel::MELLANOX).burst();
    assert_eq!(
        local.violations.len(),
        snapshot.violations.len(),
        "{ctx}: LocalSim"
    );
    let flags = flagged(&snapshot, &m.net);
    for (p, holds) in oracle::equal_verdicts(&m.net, eq, &packets) {
        cov.verdict(&eq.behavior, holds);
        assert_eq!(flags(0, None, p), !holds, "{ctx}: {eq} on {p:?}");
    }
}

/// The end of a script: crash recovery, loss accounting and what each
/// telemetry mode recorded.
fn finish(
    mut subs: Subs,
    tels: &[Arc<Telemetry>],
    world: &World,
    m: &Model,
    mut cov: Coverage,
) -> Finish {
    let report = subs.lossy.report();
    let fresh = report.freshness.iter().all(|(_, f)| *f == Freshness::Fresh);
    let store = subs.lossy.intents();
    let lossy = (
        store.parked_count(),
        store.degraded_count(),
        store.live().count(),
        fresh,
    );
    let (repairs, holds) = (counter(&tels[2], REPAIRS), subs.session.report().holds());
    let mut recovered = vec![
        subs.threaded
            .shutdown()
            .expect("no thread panics")
            .crashes_recovered,
    ];
    recovered.extend([&subs.fifo, &subs.event, &subs.lossy].map(|e| e.stats().crashes_recovered));
    assert_eq!(recovered, [m.crashes; 4], "crashes recovered");
    let (f, loss) = (subs.lossy.stats().fault, world.axes.loss);
    let clean = !loss.is_quiet() || (f.drops, f.retransmits) == (0, 0);
    assert!(clean && f.retransmits >= f.drops, "{loss:?}: {f:?}");
    if loss.drop_rate >= 0.10 {
        cov.add("drops at 10% loss", f.drops);
    }
    for (t, name) in tels.iter().zip(SUBSTRATES) {
        let (metrics, journaled) = (t.metrics(), t.journal_recorded());
        let ok = match world.axes.tel {
            Tel::Off => t.spans().is_empty() && metrics.counters.is_empty() && journaled == 0,
            // The session has no clock: it journals, and times nothing.
            Tel::On => {
                journaled > 0
                    && (name == "session" || (!t.spans().is_empty() && !metrics.hists.is_empty()))
            }
            Tel::NoJournal => journaled == 0 && t.journal_events().is_empty(),
        };
        assert!(
            ok,
            "{name} recorded the wrong things for telemetry {:?}",
            world.axes.tel
        );
    }
    Finish {
        cov,
        repairs,
        lossy,
        holds,
    }
}

// ---------------------------------------------------------------------
// Coverage
// ---------------------------------------------------------------------

const EVENTS: &str =
    "batch|staged batch|link down|link up|device down|device up|crash/restart|install|remove";
const AXES: &str = "backend bdd|backend deltanet|backend intervals|loss 0%|loss 1%|loss 10%|\
    loss chaos|drops at 10% loss|telemetry Off|telemetry On|telemetry NoJournal|\
    one batch of k|k singleton batches|first tasked by a fence";
const VERDICTS: &str = "exist|covered|equal|not|and|or|==|>=|>|<=|<";

/// How often each cell of the coverage table was exercised.
#[derive(Default)]
struct Coverage(BTreeMap<String, u64>);

impl Coverage {
    fn add(&mut self, cell: impl Into<String>, n: u64) {
        *self.0.entry(cell.into()).or_default() += n;
    }

    fn get(&self, cell: &str) -> u64 {
        self.0.get(cell).copied().unwrap_or(0)
    }

    /// One event, fed to every substrate.
    fn fed(&mut self, event: &str) {
        for s in SUBSTRATES {
            self.add(format!("{event} / {s}"), 1);
        }
    }

    fn axes(&mut self, a: &Axes) {
        let loss = if a.loss.dup_rate > 0.0 {
            "chaos".to_string()
        } else {
            format!("{:.0}%", a.loss.drop_rate * 100.0)
        };
        let batching = if a.singletons {
            "k singleton batches"
        } else {
            "one batch of k"
        };
        self.add(format!("backend {}", a.backend), 1);
        self.add(format!("loss {loss}"), 1);
        self.add(format!("telemetry {:?}", a.tel), 1);
        self.add(batching, 1);
    }

    /// One oracle verdict on a (sub-)behavior.
    fn verdict(&mut self, b: &Behavior, holds: bool) {
        let side = if holds { "holds" } else { "violated" };
        let op = match b {
            Behavior::Exist { count, .. } => {
                let cmp = count.to_string();
                self.add(format!("{} {side}", &cmp[..cmp.find(' ').unwrap()]), 1);
                "exist"
            }
            Behavior::Covered { .. } => "covered",
            Behavior::Equal { .. } => "equal",
            Behavior::Not(_) => "not",
            Behavior::And(..) => "and",
            Behavior::Or(..) => "or",
        };
        self.add(format!("{op} {side}"), 1);
    }

    /// Prints the table; fails on a cell never exercised, or on a
    /// verdict row with under 10 % of its verdicts on either side.
    fn check(&self) {
        let mut bad = Vec::new();
        let mut out = format!(
            "{:<16}{}",
            "fed to",
            SUBSTRATES.map(|s| format!("{s:>10}")).concat()
        );
        for e in EVENTS.split('|') {
            let cells = SUBSTRATES.map(|s| self.get(&format!("{e} / {s}")));
            out += &format!("\n{e:<16}{}", cells.map(|n| format!("{n:>10}")).concat());
            bad.extend(cells.contains(&0).then(|| e.to_string()));
        }
        for a in AXES.split('|') {
            out += &format!("\n{a:<26}{:>10}", self.get(a));
            bad.extend((self.get(a) == 0).then(|| a.to_string()));
        }
        out += &format!("\n{:<16}{:>10}{:>10}", "oracle", "holds", "violated");
        for v in VERDICTS.split('|') {
            let (h, x) = (
                self.get(&format!("{v} holds")),
                self.get(&format!("{v} violated")),
            );
            out += &format!("\n{v:<16}{h:>10}{x:>10}");
            bad.extend((h.min(x) == 0 || h.min(x) * 10 < h + x).then(|| format!("{v} {h}/{x}")));
        }
        println!("{out}");
        assert!(bad.is_empty(), "coverage: {bad:?}");
    }
}

/// Seeded cases — how many depends only on the build profile — each
/// under both judges, then the coverage table.
#[test]
fn generated_cases_agree_with_both_judges() {
    let mut cov = Coverage::default();
    for seed in 0..if cfg!(debug_assertions) { 128 } else { 512 } {
        let world = World::generated(seed);
        let ops = script(&world, seed);
        match catch_unwind(AssertUnwindSafe(|| run(&world, &ops))) {
            Ok(f) => f.cov.0.into_iter().for_each(|(cell, n)| cov.add(cell, n)),
            Err(panic) => {
                eprintln!("case {seed} failed; as a fixed script:");
                eprintln!("    run(&World::generated({seed}), &{ops:?});");
                resume_unwind(panic)
            }
        }
    }
    cov.check();
}

// ---------------------------------------------------------------------
// Fixed scripts
// ---------------------------------------------------------------------

/// `exist >= 1` over loop-free paths matching `expr`, for packets to
/// 10.0.0.0/23 entering at the expression's first device.
fn reach(expr: &str) -> Invariant {
    let path = PathExpr::parse(expr).unwrap().loop_free();
    let inv = Invariant::builder().packet_space(PacketSpace::dst_prefix("10.0.0.0/23"));
    let inv = inv.ingress([expr.split(' ').next().unwrap()]);
    inv.behavior(Behavior::exist(CountExpr::ge(1), path))
        .build()
        .unwrap()
}

/// B's route to 10.0.1.0/24, and an update putting `action` there at
/// `priority`.
fn b_route(priority: u32, action: Action) -> (MatchSpec, RuleUpdate) {
    let route = MatchSpec::dst("10.0.1.0/24".parse().unwrap());
    (
        route,
        RuleUpdate::Insert {
            device: DeviceId(2),
            rule: rule(priority, route, action),
        },
    )
}

/// Figure 2a (S, A, B, W, D are devices 0 to 4) with base intent `S .*
/// D`, installable `S .* W .* D`, `A .* D` and `S .* B .* D` (B is the
/// waypoint a device-down takes away), and an update stream that
/// withdraws and restores B's route to 10.0.1.0/24.
fn fig2a(loss: FaultProfile) -> World {
    let (matches, restore) = b_route(10, Action::fwd(DeviceId(4)));
    let withdraw = RuleUpdate::Remove {
        device: DeviceId(2),
        priority: 10,
        matches,
    };
    let pool = ["S .* W .* D", "A .* D", "S .* B .* D"].map(reach).to_vec();
    let axes = Axes {
        backend: BackendKind::Bdd,
        loss,
        tel: Tel::On,
        singletons: false,
    };
    let net = tulkun::datasets::fig2a_network();
    World {
        updates: vec![withdraw, restore],
        ..world(net, reach("S .* D"), pool, axes)
    }
}

/// A removal that lands while its install is still parked behind the
/// fence drains the pending entry on every substrate.
#[test]
fn remove_while_parked_drains_the_pending_queue_everywhere() {
    let ops = [DeviceDown(2), Install(2), Remove(0), DeviceUp(2)];
    run(&fig2a(FaultProfile::loss(23, 0.10)), &ops);
}

/// Fences that land on a staged FIB wave — a link flap, an install and
/// a device death — discard it and must repair it; a removal after a
/// batch at the dead device finds nothing in flight. Every op ends
/// byte-equal to the fresh reference.
#[test]
fn fences_on_a_staged_exchange_repair_and_match_fresh() {
    let s = Staged(1);
    let mut ops = vec![
        Install(0),
        s,
        LinkDown(1, 2),
        s,
        Install(1),
        s,
        DeviceDown(2),
        s,
    ];
    ops.extend([Remove(0), DeviceUp(2), s]);
    for loss in [0.0, 0.10] {
        // The link-down, the second install and B's death each land on
        // a staged wave. The wave staged after B's death is a batch at
        // the quarantined B, which hosts nothing and so sends nothing:
        // the removal lands on a quiet exchange, as does the revival.
        let f = run(&fig2a(FaultProfile::loss(7, loss)), &ops);
        assert_eq!(f.repairs, 3, "loss {loss}");
    }
}

/// Eight installs around a link flap under 10 % loss: none is refused,
/// and since the flap is net-zero every intent ends live and `Fresh`.
#[test]
fn eight_intents_survive_a_link_flap_under_loss() {
    let mut ops: Vec<Op> = (0..4).map(Install).collect();
    ops.extend([
        LinkDown(1, 2),
        Install(4),
        Install(5),
        LinkUp(1, 2),
        Install(6),
        Install(7),
    ]);
    let f = run(&fig2a(FaultProfile::loss(7, 0.10)), &ops);
    assert_eq!(
        f.lossy,
        (0, 0, 9, true),
        "(parked, degraded, live, all Fresh)"
    );
}

/// A batch that blackholes B's /24, repairs it toward the waypoint and
/// removes the blackhole again: coalescing drops the cancelled insert,
/// and the repaired network verifies.
#[test]
fn insert_then_remove_cancels_inside_a_batch() {
    let ((matches, blackhole), (_, repair)) = (
        b_route(99, Action::Drop),
        b_route(50, Action::fwd(DeviceId(3))),
    );
    let unblackhole = RuleUpdate::Remove {
        device: DeviceId(2),
        priority: 99,
        matches,
    };
    let updates = vec![blackhole, repair, unblackhole];
    let groups: Vec<usize> = coalesce(&updates).iter().map(|(_, g)| g.len()).collect();
    assert_eq!(
        groups,
        [2],
        "the cancelled insert must not survive coalescing"
    );
    let base = reparsed(reach("S .* W .* D"));
    let world = World {
        base,
        updates,
        ..fig2a(FaultProfile::loss(1, 0.10))
    };
    assert!(
        run(&world, &[Updates(3)]).holds,
        "the repaired network verifies"
    );
}

/// Local contracts (`verify_snapshot` and `LocalSim`) on Figure 2a's
/// all-shortest-path `equal` invariant, before and after B's route is
/// withdrawn and restored.
#[test]
fn local_contracts_agree_with_verify_snapshot() {
    let path = PathExpr::parse("S .* D")
        .unwrap()
        .loop_free()
        .shortest_only();
    let equal = Invariant::builder().packet_space(PacketSpace::dst_prefix("10.0.0.0/23"));
    let equal = equal
        .ingress(["S"])
        .behavior(Behavior::equal(path))
        .build()
        .unwrap();
    let world = World {
        equal: Some(reparsed(equal)),
        ..fig2a(FaultProfile::none(1))
    };
    run(&world, &[Updates(1), Updates(1)]);
}

/// Crashes under 10 % loss — B around the withdrawal of its route, then
/// the destination and the source — are recovered on every engine, and
/// the restored route verifies.
#[test]
fn crash_restart_under_loss_recovers_the_report() {
    let ops = [
        Crash(2),
        Updates(1),
        Crash(2),
        Crash(4),
        Updates(1),
        Crash(0),
    ];
    let f = run(&fig2a(FaultProfile::loss(101, 0.10)), &ops);
    assert!(f.holds, "the restored network verifies");
}

/// Link and device churn under loss, ending on the base topology: every
/// engine's Report ends `Fresh`.
#[test]
fn topology_churn_under_loss_ends_fresh() {
    let ops = [
        LinkDown(1, 2),
        Updates(1),
        DeviceDown(3),
        LinkUp(1, 2),
        Updates(1),
        DeviceUp(3),
    ];
    let f = run(&fig2a(FaultProfile::loss(23, 0.10)), &ops);
    assert!(f.lossy.3, "the lossy Report is not Fresh everywhere");
}

/// Installs and removals interleaved with updates under loss: the three
/// installs that are never removed end live.
#[test]
fn intent_churn_under_loss_ends_live() {
    let ops = [
        Install(0),
        Install(1),
        Updates(1),
        Remove(0),
        Install(2),
        Updates(1),
        Install(3),
        Remove(1),
        Install(4),
    ];
    let f = run(&fig2a(FaultProfile::loss(1, 0.10)), &ops);
    assert_eq!(
        f.lossy,
        (0, 0, 4, true),
        "(parked, degraded, live, all Fresh)"
    );
}

/// Figure 2a's script over the whole event alphabet: an update, an
/// install, a link down, a staged wave under a fence, a crash, a device
/// down that parks an install, a removal, the revival, and the flap's
/// end. Every event kind must have been fed.
fn tour(world: &World) {
    let ops = [
        Updates(1),
        Install(0),
        LinkDown(1, 2),
        Staged(1),
        Install(1),
        Crash(3),
        DeviceDown(2),
        Install(2),
        Remove(0),
        DeviceUp(2),
        LinkUp(1, 2),
        Crash(0),
        Updates(2),
    ];
    let f = run(world, &ops);
    for e in EVENTS.split('|') {
        assert!(f.cov.get(&format!("{e} / session")) > 0, "{e} was not fed");
    }
}

/// Figure 2a without A's port-80 rule, so the destination-only backends
/// can run it, on `backend`.
fn fig2a_dst_only(backend: BackendKind) -> World {
    let mut world = fig2a(FaultProfile::loss(7, 0.10));
    world.net.apply(&RuleUpdate::Remove {
        device: DeviceId(1),
        priority: 30,
        matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()).with_port(80),
    });
    world.axes.backend = backend;
    world
}

/// The tour with one construction-time axis moved off `fig2a`'s default
/// (bdd, telemetry on, one batch of k).
fn tour_with(loss: FaultProfile, edit: impl FnOnce(&mut Axes)) {
    let mut world = fig2a(loss);
    edit(&mut world.axes);
    tour(&world);
}

#[test]
fn tour_agrees_under_ten_percent_loss() {
    tour_with(FaultProfile::loss(7, 0.10), |_| {});
}

#[test]
fn tour_agrees_under_one_percent_loss() {
    tour_with(FaultProfile::loss(7, 0.01), |_| {});
}

#[test]
fn tour_agrees_under_chaos() {
    tour_with(FaultProfile::chaos(7), |_| {});
}

#[test]
fn tour_agrees_with_telemetry_off() {
    tour_with(FaultProfile::loss(7, 0.10), |a| a.tel = Tel::Off);
}

#[test]
fn tour_agrees_without_the_journal() {
    tour_with(FaultProfile::loss(7, 0.10), |a| a.tel = Tel::NoJournal);
}

#[test]
fn tour_agrees_fed_as_singleton_batches() {
    tour_with(FaultProfile::loss(7, 0.10), |a| a.singletons = true);
}

#[test]
fn tour_agrees_on_the_deltanet_backend() {
    tour(&fig2a_dst_only(BackendKind::DeltaNet));
}

#[test]
fn tour_agrees_on_the_intervals_backend() {
    tour(&fig2a_dst_only(BackendKind::Intervals));
}

// ---------------------------------------------------------------------
// Generated cases that caught a seeded bug
// ---------------------------------------------------------------------

/// The first `n` ops of generated case `seed`. Each test below pins the
/// shortest prefix that failed under one mutant of the verifier, so the
/// bug stays caught by name; a change to the generator re-rolls them.
fn generated_prefix(seed: u64, n: usize) {
    let world = World::generated(seed);
    run(&world, &script(&world, seed)[..n]);
}

/// ANY next hops fold with ⊕ (union), not ⊗; judge (ii) sees it.
#[test]
fn case_8_any_next_hops_take_the_union() {
    generated_prefix(8, 1);
}

/// A withdrawn predicate leaves a device's CIB, and so does the export
/// memo that summarised it.
#[test]
fn case_0_a_withdrawn_space_leaves_the_cib() {
    generated_prefix(0, 1);
}

/// A link that comes back announces on every edge it gained.
#[test]
fn case_3_a_gained_edge_is_announced() {
    generated_prefix(3, 6);
}

/// Overlapping prefixes make the generated base plan consistently.
#[test]
fn case_1_overlapping_prefixes_plan() {
    generated_prefix(1, 0);
}

/// The LEC delta of an update sees every prefix it overlaps.
#[test]
fn case_2_the_lec_delta_sees_every_overlap() {
    generated_prefix(2, 3);
}

/// Two scenes with the same links down but different devices down plan
/// apart.
#[test]
fn case_9_scenes_differ_by_down_devices() {
    generated_prefix(9, 2);
}

/// A re-planned node inherits an id only from a node on its own device.
#[test]
fn case_95_an_heir_stays_on_its_device() {
    generated_prefix(95, 8);
}

/// A churn re-plan may hand a global node, its export unchanged, to a
/// source with another intent-local id: the intent's memoised verdicts
/// go with its old plan.
#[test]
fn case_37_a_replanned_intent_drops_its_rendered_verdicts() {
    generated_prefix(37, 8);
}

/// An install whose scene gives it no valid path is refused on a quiet
/// network: it never lands as an empty slice, which would report
/// `holds` and which a later link-down it is outside of would keep.
#[test]
fn case_28_an_empty_slice_is_replanned() {
    let ops = [
        Remove(0),
        Remove(0),
        Updates(1),
        Remove(2),
        Install(3),
        Updates(3),
        Install(3),
        DeviceDown(2),
        LinkDown(2, 4),
    ];
    let f = run(&World::generated(28), &ops);
    assert!(f.cov.get("refused install / session") > 0);
}

// ---------------------------------------------------------------------
// Slice locality (INet2)
// ---------------------------------------------------------------------

/// The event that installs `inv` as intent `name`.
fn install(name: &str, inv: &Invariant) -> RuntimeEvent {
    RuntimeEvent::InstallIntent {
        name: name.to_string(),
        invariant: inv.clone(),
    }
}

/// Installing one intent on a real dataset (INet2) must re-task only
/// the devices in that intent's slice, reusing base-plan nodes where
/// the slices overlap — not re-plan the whole network.
#[test]
fn inet2_intent_install_is_slice_local() {
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let net = &ds.network;
    let (inv, cp) = tulkun::daemon::dataset_session(net, "INet2").unwrap();

    let mut sim = Engine::new(net, &cp, &inv.packet_space, EngineConfig::default());
    sim.run_to_quiescence();
    let before = sim.report().canonical_bytes();

    // A narrower intent over the same destination: one ingress only.
    let topo = &net.topology;
    let (dst, _) = topo.external_map().next().unwrap();
    let dst_name = topo.name(dst);
    let ingress = topo
        .devices()
        .find(|d| *d != dst)
        .map(|d| topo.name(d).to_string())
        .unwrap();
    // Same outcome-vector shape as the base session (exist ∧ covered,
    // escape-tracked): one counting profile per session.
    let path = PathExpr::parse(&format!(". * {dst_name}"))
        .unwrap()
        .loop_free()
        .shortest_plus(2);
    let narrow = Invariant::builder()
        .name("narrow reach")
        .packet_space(inv.packet_space.clone())
        .ingress([ingress.clone()])
        .behavior(Behavior::exist(CountExpr::ge(1), path.clone()).and(Behavior::covered(path)))
        .build()
        .unwrap();

    let out = sim.apply_event(&install("narrow reach", &narrow)).unwrap();
    let (id, delta) = (out.intent.unwrap(), out.delta);
    assert!(
        delta.changed.len() < topo.num_devices(),
        "install re-tasked the whole network: {} of {} devices",
        delta.changed.len(),
        topo.num_devices()
    );
    assert!(
        delta.reused_nodes > 0,
        "overlapping slices must share counting tasks: {delta:?}"
    );

    // Removal un-tasks at most the installed slice and restores the
    // pre-install verdict byte-for-byte.
    let rm = sim
        .apply_event(&RuntimeEvent::RemoveIntent(id))
        .unwrap()
        .delta;
    assert!(rm.removed.values().map(Vec::len).sum::<usize>() <= delta.total_nodes);
    assert_eq!(sim.report().canonical_bytes(), before);
}

/// A fence costs what it changes. On a quiescent session holding the
/// base and one other runtime intent, swapping a third intent out and
/// back in delivers messages only to the devices the two deltas touch
/// and their DPVNet neighbours — every other device's slice keeps the
/// `CIBIn` it already holds and hears nothing — and the re-install
/// costs no more messages than installing the same intent beside the
/// base alone (sharing can only save work).
#[test]
fn intent_swap_reaches_only_its_slice_and_its_neighbours() {
    use std::collections::BTreeSet;
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let net = &ds.network;
    let topo = &net.topology;
    // Reachability from one ingress to a destination's first external
    // prefix, along loop-free paths at most one hop off the shortest.
    let reach = |from: &str, to: &str| {
        let prefix = topo.external_prefixes(topo.expect_device(to))[0];
        let path = PathExpr::parse(&format!("{from} .* {to}")).unwrap();
        Invariant::builder()
            .name(format!("{from}->{to}"))
            .packet_space(PacketSpace::DstPrefix(prefix))
            .ingress([from])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                path.loop_free().shortest_plus(1),
            ))
            .build()
            .unwrap()
    };
    let base = reach("SEAT", "NEWY");
    let (other, swapped) = (reach("LOSA", "WASH"), reach("KANS", "CHIC"));
    let plan = Planner::new(topo).plan(&base).unwrap();
    let cp = plan.counting().unwrap();
    let engine = || {
        let mut e = Engine::new(net, cp, &base.packet_space, EngineConfig::default());
        e.run_to_quiescence();
        e
    };

    let mut shared = engine();
    shared.apply_event(&install("other", &other)).unwrap();
    let id = shared
        .apply_event(&install("swapped", &swapped))
        .unwrap()
        .intent;
    // Devices hosting a slice node adjacent to one on a touched device.
    let neighbours = |e: &Engine, touched: &BTreeSet<DeviceId>| -> BTreeSet<DeviceId> {
        let tasks = e.intents().global_tasks();
        let near = tasks.iter().filter(|t| touched.contains(&t.dev));
        near.flat_map(|t| t.upstream.iter().chain(&t.downstream))
            .map(|(_, d)| *d)
            .collect()
    };
    let heard = |e: &Engine| -> Vec<(DeviceId, u64)> {
        let per_device = &e.stats().per_device;
        per_device.iter().map(|(d, s)| (*d, s.messages)).collect()
    };
    let before = heard(&shared);
    let removed = shared
        .apply_event(&RuntimeEvent::RemoveIntent(id.unwrap()))
        .unwrap()
        .delta;
    let mut reached = removed.touched_devices();
    reached.extend(neighbours(&shared, &removed.touched_devices()));
    let outcome = shared.apply_event(&install("swapped", &swapped)).unwrap();
    let added = outcome.delta.touched_devices();
    reached.extend(added.iter().copied());
    reached.extend(neighbours(&shared, &added));
    assert!(
        outcome.messages > 0,
        "the swap announces to its new parents"
    );
    let quiet: Vec<_> = before
        .iter()
        .filter(|(d, _)| !reached.contains(d))
        .collect();
    // Not vacuous: some untouched device hosts a node with children,
    // the audience of a network-wide re-announcement.
    let tasks = shared.intents().global_tasks();
    let listens = |d: &DeviceId| {
        tasks
            .iter()
            .any(|t| t.dev == *d && !t.downstream.is_empty())
    };
    assert!(quiet.iter().any(|(d, _)| listens(d)), "{quiet:?}");
    for (d, n) in &quiet {
        let now = shared.stats().per_device[d].messages;
        assert_eq!(now, *n, "untouched {d:?} heard the swap");
    }

    let mut solo = engine();
    let alone = solo.apply_event(&install("swapped", &swapped)).unwrap();
    assert!(
        outcome.messages <= alone.messages,
        "installing beside another intent cost {} messages, alone {}",
        outcome.messages,
        alone.messages
    );
}
