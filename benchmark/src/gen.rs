//! The input generator. Everything a workload sends is drawn here from
//! `--seed`; the daemon receives only the generated protocol lines.
//!
//! The generator is a pure function of `(workload, seed, topology)`: op
//! `i` never depends on a daemon reply, so the same seed replays the
//! same script however fast the host is, and a time-bounded run is a
//! prefix of one fixed script.

use std::collections::VecDeque;

use tulkun::core::churn::TopologyEvent;
use tulkun::netmodel::fib::{Action, MatchSpec, Rule};
use tulkun::netmodel::network::RuleUpdate;
use tulkun::netmodel::topology::{DeviceId, Topology};
use tulkun::netmodel::IpPrefix;

use crate::rng::Rng;

/// Outstanding inserted rules the FIB generator keeps live. With the
/// stock unbounded `datasets::rule_updates` trace the FIBs (and the BDD
/// tables behind them) grow for the whole run and latency drifts; with
/// a bounded live set the workload is stationary.
pub const LIVE_CAP: usize = 64;

/// Share of the FIB pool's rules whose prefix lies inside the verified
/// packet space. The base session verifies one destination, so uniform
/// draws would land only ~1/devices of the updates where the verifier
/// has anything to recount.
pub const HIT_SHARE: f64 = 0.5;

/// Updates per `batch` line on `fib-burst`.
pub const BURST: usize = 8;

/// Untimed warm-up ops on `trickle-read` after the live set is full
/// (counted in `setup_s`).
pub const WARMUP_OPS: usize = 256;

/// The same on `fib-burst`, where an op costs ten times as much: more
/// would bury the LEC build, which `setup_s` is there to show, under
/// warm-up.
pub const WARMUP_BURSTS: usize = 36;

/// Intents pre-installed (and kept live by swapping) on `plan-churn*`.
pub const LIVE_INTENTS: usize = 8;

/// Ingress source name every request is admitted under (one source, so
/// per-source FIFO makes apply order equal script order).
pub const SOURCE: &str = "cp";

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bursts of 8 FIB updates on the largest WAN dataset.
    FibBurst,
    /// Single-update writes alternating with a six-verb read.
    TrickleRead,
    /// Intent swaps and link flaps over a clean management network.
    PlanChurn,
    /// `PlanChurn` over a 10 % lossy management network.
    PlanChurnLossy,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FibBurst,
        Workload::TrickleRead,
        Workload::PlanChurn,
        Workload::PlanChurnLossy,
    ];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FibBurst => "fib-burst",
            Workload::TrickleRead => "trickle-read",
            Workload::PlanChurn => "plan-churn",
            Workload::PlanChurnLossy => "plan-churn-lossy",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The (Tiny-scale) dataset the workload runs on.
    pub fn dataset(self) -> &'static str {
        match self {
            Workload::FibBurst => "AT2-2",
            Workload::TrickleRead => "AT1-2",
            Workload::PlanChurn | Workload::PlanChurnLossy => "NTT",
        }
    }

    /// Management-plane loss rate (fault seed 31).
    pub fn loss(self) -> Option<f64> {
        (self == Workload::PlanChurnLossy).then_some(0.10)
    }

    /// The op kind `primary_ms_*` reports.
    pub fn primary(self) -> OpKind {
        match self {
            Workload::FibBurst | Workload::TrickleRead => OpKind::Fib,
            Workload::PlanChurn | Workload::PlanChurnLossy => OpKind::Churn,
        }
    }

    /// The op kind `secondary_ms_*` reports.
    pub fn secondary(self) -> OpKind {
        match self {
            Workload::FibBurst | Workload::TrickleRead => OpKind::Read,
            Workload::PlanChurn | Workload::PlanChurnLossy => OpKind::Swap,
        }
    }

    /// The percentile `primary_ms_tail` is taken at: fixed per workload,
    /// so the metric's meaning never shifts with the sample count, and
    /// with several times the ten samples beyond it that a tail needs —
    /// on a shared host the last ten samples of a run are mostly the
    /// host's.
    pub fn primary_tail(self) -> f64 {
        match self {
            Workload::FibBurst => 0.90,
            Workload::TrickleRead => 0.95,
            Workload::PlanChurn | Workload::PlanChurnLossy => 0.75,
        }
    }
}

/// What one timed operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `batch` → `drain` → `report`.
    Fib,
    /// `status`, `report`, `slo`, `metrics`, `events`, `explain`.
    Read,
    /// `intent remove` + `intent add` → `drain` → `report`.
    Swap,
    /// `churn link-down|link-up` → `drain` → `report`.
    Churn,
}

impl OpKind {
    /// All kinds.
    pub const ALL: [OpKind; 4] = [OpKind::Fib, OpKind::Read, OpKind::Swap, OpKind::Churn];

    /// The kind's name in span names (`op.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Fib => "fib",
            OpKind::Read => "read",
            OpKind::Swap => "swap",
            OpKind::Churn => "churn",
        }
    }

    /// The kind's span name.
    pub fn span(self) -> &'static str {
        match self {
            OpKind::Fib => "op.fib",
            OpKind::Read => "op.read",
            OpKind::Swap => "op.swap",
            OpKind::Churn => "op.churn",
        }
    }
}

/// A runtime intent as the script states it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentSpec {
    /// Intent name.
    pub name: String,
    /// Invariant in the spec surface syntax.
    pub spec: String,
}

impl IntentSpec {
    /// The `intent add` protocol line.
    pub fn add_line(&self) -> String {
        format!(
            "intent add {SOURCE} {{\"name\":{},\"spec\":{}}}",
            tulkun::json::to_string(self.name.as_str()),
            tulkun::json::to_string(self.spec.as_str())
        )
    }
}

/// One scripted operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Admit a FIB batch, apply it, read the Report that reflects it.
    Fib(Vec<RuleUpdate>),
    /// The six read-only verbs back to back; `explain` asks about this
    /// device.
    Read(String),
    /// Retire the oldest runtime intent and install the next one.
    Swap {
        /// Id of the intent to remove.
        remove: u64,
        /// The intent to install.
        add: IntentSpec,
    },
    /// A link fails or recovers.
    Link {
        /// The event.
        event: TopologyEvent,
        /// Endpoint names, as the protocol line spells them.
        names: (String, String),
    },
}

impl Op {
    /// The op's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Fib(_) => OpKind::Fib,
            Op::Read(_) => OpKind::Read,
            Op::Swap { .. } => OpKind::Swap,
            Op::Link { .. } => OpKind::Churn,
        }
    }

    /// The protocol lines the op sends, in order. The `report` reply is
    /// the one the correctness oracle checks.
    pub fn lines(&self) -> Vec<String> {
        match self {
            Op::Fib(updates) => vec![
                format!("batch {SOURCE} {}", tulkun::json::to_string(updates)),
                "drain".into(),
                "report".into(),
            ],
            Op::Read(device) => vec![
                "status".into(),
                "report".into(),
                "slo".into(),
                "metrics".into(),
                "events * 16".into(),
                format!("explain * {device}"),
            ],
            Op::Swap { remove, add } => vec![
                format!("intent remove {SOURCE} {remove}"),
                add.add_line(),
                "drain".into(),
                "report".into(),
            ],
            Op::Link { event, names } => {
                let verb = match event {
                    TopologyEvent::LinkDown(..) => "link-down",
                    _ => "link-up",
                };
                vec![
                    format!("churn {SOURCE} {verb} {} {}", names.0, names.1),
                    "drain".into(),
                    "report".into(),
                ]
            }
        }
    }
}

/// A fixed pool visited in seeded order, pass after pass.
///
/// What a run costs depends far more on *which* rules, links and
/// intents it touches than on anything a code change is likely to move
/// (link events on one topology differ by 50 %). So the candidates are
/// drawn once, from [`POOL_SEED`], and `--seed` decides only the order
/// they are visited in and therefore what is live beside what: every
/// seed covers the same inputs, a different way round.
#[derive(Debug, Clone)]
struct Pool<T> {
    items: Vec<T>,
    at: usize,
    rng: Rng,
}

impl<T: Clone> Pool<T> {
    fn new(items: Vec<T>, rng: Rng) -> Pool<T> {
        assert!(!items.is_empty());
        Pool {
            at: items.len(),
            items,
            rng,
        }
    }

    /// The next item of the current pass that `usable` accepts (one it
    /// rejects keeps its turn for later); a new pass reshuffles.
    fn next(&mut self, usable: impl Fn(&T) -> bool) -> T {
        loop {
            if self.at == self.items.len() {
                self.rng.shuffle(&mut self.items);
                self.at = 0;
            }
            if let Some(j) = (self.at..self.items.len()).find(|j| usable(&self.items[*j])) {
                self.items.swap(self.at, j);
                self.at += 1;
                return self.items[self.at - 1].clone();
            }
            // Nothing usable is left in this pass.
            self.at = self.items.len();
        }
    }
}

/// The seed every pool is drawn from, whatever `--seed` is.
const POOL_SEED: u64 = 2022;

/// Distinct rule inserts in the FIB pool: half inside the verified
/// packet space, half outside.
pub const FIB_POOL: usize = 256;

/// Links, and intents, in the `plan-churn*` pools.
pub const PLAN_POOL: usize = 16;

/// Hops between an intent's ingress and its destination.
pub const INTENT_HOPS: u32 = 2;

type RuleKey = (DeviceId, u32, MatchSpec);

fn key_of(rule: &(DeviceId, Rule)) -> RuleKey {
    (rule.0, rule.1.priority, rule.1.matches)
}

/// FIB-update generator with a stated hit share and a bounded live set.
#[derive(Debug, Clone)]
pub struct FibGen {
    pool: Pool<(DeviceId, Rule)>,
    live: VecDeque<RuleKey>,
}

impl FibGen {
    /// A generator over `topo`. The verified packet space is the first
    /// announcing device's prefixes — the destination
    /// `daemon::dataset_session` picks.
    pub fn new(topo: &Topology, seed: u64) -> FibGen {
        let (dst, _) = topo
            .external_map()
            .next()
            .expect("dataset announces prefixes");
        let (hit, miss): (Vec<_>, Vec<_>) = topo.external_map().partition(|(d, _)| *d == dst);
        let neighbors: Vec<Vec<DeviceId>> = topo
            .devices()
            .map(|d| topo.neighbors(d).iter().map(|(n, _)| *n).collect())
            .collect();
        // 55 % re-pins of a route to a random neighbour at priority
        // 60-75, 45 % /25 sub-prefix drops at priority 90.
        let mut rng = Rng::new(POOL_SEED, 1);
        let mut rules: Vec<(DeviceId, Rule)> = Vec::new();
        while rules.len() < FIB_POOL {
            let wants_hit = rules.len() < (FIB_POOL as f64 * HIT_SHARE) as usize;
            let from = if wants_hit { &hit } else { &miss };
            let (announcer, prefix) = from[rng.below(from.len())];
            // A rule on the announcing device is not a route.
            let device = DeviceId(rng.below(neighbors.len()) as u32);
            if device == announcer || neighbors[device.idx()].is_empty() {
                continue;
            }
            let rule = if rng.chance(0.55) {
                let nbrs = &neighbors[device.idx()];
                Rule {
                    priority: 60 + (rules.len() % 16) as u32,
                    matches: MatchSpec::dst(prefix),
                    action: Action::fwd(nbrs[rng.below(nbrs.len())]),
                }
            } else {
                let (lo, hi) = prefix.split();
                Rule {
                    priority: 90,
                    matches: MatchSpec::dst(if rng.chance(0.5) { lo } else { hi }),
                    action: Action::Drop,
                }
            };
            // `Remove` withdraws every rule with its priority and match,
            // so a key appears once.
            let candidate = (device, rule);
            if !rules.iter().any(|r| key_of(r) == key_of(&candidate)) {
                rules.push(candidate);
            }
        }
        FibGen {
            pool: Pool::new(rules, Rng::new(seed, 1)),
            live: VecDeque::new(),
        }
    }

    /// Rules currently inserted and not yet removed.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// The next update: the removal of the oldest live rule when the
    /// live set is full, else the insert of the pool's next rule that is
    /// not live.
    pub fn next_update(&mut self) -> RuleUpdate {
        if self.live.len() >= LIVE_CAP {
            let (device, priority, matches) = self.live.pop_front().expect("live set is full");
            return RuleUpdate::Remove {
                device,
                priority,
                matches,
            };
        }
        let live = &self.live;
        let (device, rule) = self.pool.next(|r| !live.contains(&key_of(r)));
        self.live.push_back((device, rule.priority, rule.matches));
        RuleUpdate::Insert { device, rule }
    }

    /// The next `n` updates as one batch.
    pub fn batch(&mut self, n: usize) -> Vec<RuleUpdate> {
        (0..n).map(|_| self.next_update()).collect()
    }
}

/// Intent and link-event generator for the `plan-churn*` workloads.
#[derive(Debug, Clone)]
pub struct PlanGen {
    names: Vec<String>,
    /// Subset-reachability specs: a destination other than the base
    /// session's, one ingress [`INTENT_HOPS`] hops from it.
    intents: Pool<String>,
    /// Links whose loss leaves the topology connected.
    links: Pool<(DeviceId, DeviceId)>,
    /// The link that is down, waiting for its link-up.
    down: Option<(DeviceId, DeviceId)>,
    issued: u64,
    /// Ids and specs of the live runtime intents, oldest first. Ids are
    /// allocated sequentially from 1 (0 is the base session), so the
    /// script knows them without asking.
    live: VecDeque<(u64, String)>,
}

impl PlanGen {
    /// A generator over `topo`.
    pub fn new(topo: &Topology, seed: u64) -> PlanGen {
        let names: Vec<String> = topo.devices().map(|d| topo.name(d).to_string()).collect();
        let mut rng = Rng::new(POOL_SEED, 2);
        let (base, _) = topo
            .external_map()
            .next()
            .expect("dataset announces prefixes");
        let mut dests: Vec<(DeviceId, IpPrefix)> = topo
            .devices()
            .filter(|d| *d != base)
            .filter_map(|d| topo.external_prefixes(d).first().map(|p| (d, *p)))
            .collect();
        rng.shuffle(&mut dests);
        // The size of an intent's slice follows the distance it spans
        // (15 to 190 tasks over random pairs on NTT, 40 to 76 at two
        // hops), and the size of the live set sets the cost of *every*
        // control op: at one distance the cost level does not wander as
        // intents come and go.
        let intents: Vec<String> = dests
            .iter()
            .filter_map(|(dst, prefix)| {
                let hops = topo.bfs_hops(*dst, &[]);
                let near: Vec<usize> = (0..names.len())
                    .filter(|d| hops[*d] == INTENT_HOPS)
                    .collect();
                let ingress = &names[*near.get(rng.below(near.len().max(1)))?];
                Some(format!(
                    "(dstIP={prefix}, [{ingress}], (subset, /. * {}/ loop_free (<= shortest+2)))",
                    names[dst.idx()]
                ))
            })
            .take(PLAN_POOL)
            .collect();
        let mut links: Vec<(DeviceId, DeviceId)> = topo
            .links()
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                topo.connected_without(&[tulkun::netmodel::topology::LinkId(*i as u32)])
            })
            .map(|(_, l)| (l.a, l.b))
            .collect();
        rng.shuffle(&mut links);
        links.truncate(PLAN_POOL);
        assert!(intents.len() > LIVE_INTENTS && !links.is_empty());
        PlanGen {
            names,
            intents: Pool::new(intents, Rng::new(seed, 2)),
            links: Pool::new(links, Rng::new(seed, 3)),
            down: None,
            issued: 0,
            live: VecDeque::new(),
        }
    }

    /// The next intent: the pool's next spec that is not live.
    pub fn next_intent(&mut self) -> IntentSpec {
        let live = &self.live;
        let spec = self.intents.next(|s| !live.iter().any(|(_, l)| l == s));
        self.issued += 1;
        self.live.push_back((self.issued, spec.clone()));
        IntentSpec {
            name: format!("reach-{}", self.issued),
            spec,
        }
    }

    /// A swap: remove the oldest live intent, install the next.
    pub fn next_swap(&mut self) -> Op {
        let (remove, _) = self.live.pop_front().expect("intents are pre-installed");
        Op::Swap {
            remove,
            add: self.next_intent(),
        }
    }

    /// Link-down of the pool's next link, then (on the following call)
    /// link-up of the same link.
    pub fn next_link(&mut self) -> Op {
        let (event, (a, b)) = match self.down.take() {
            Some((a, b)) => (TopologyEvent::LinkUp(a, b), (a, b)),
            None => {
                let (a, b) = self.links.next(|_| true);
                self.down = Some((a, b));
                (TopologyEvent::LinkDown(a, b), (a, b))
            }
        };
        Op::Link {
            event,
            names: (self.names[a.idx()].clone(), self.names[b.idx()].clone()),
        }
    }
}

/// One workload's script: set-up lines, warm-up ops, then an endless
/// stream of timed ops.
#[derive(Debug, Clone)]
pub struct Script {
    workload: Workload,
    fib: FibGen,
    plan: PlanGen,
    names: Vec<String>,
    issued: u64,
}

impl Script {
    /// The script of `workload` for `seed` over the dataset's topology.
    pub fn new(workload: Workload, seed: u64, topo: &Topology) -> Script {
        Script {
            workload,
            fib: FibGen::new(topo, seed),
            plan: PlanGen::new(topo, seed),
            names: topo.devices().map(|d| topo.name(d).to_string()).collect(),
            issued: 0,
        }
    }

    /// Intents installed before warm-up (none on the FIB workloads).
    pub fn preinstall(&mut self) -> Vec<IntentSpec> {
        match self.workload {
            Workload::FibBurst | Workload::TrickleRead => Vec::new(),
            Workload::PlanChurn | Workload::PlanChurnLossy => {
                (0..LIVE_INTENTS).map(|_| self.plan.next_intent()).collect()
            }
        }
    }

    /// The untimed warm-up: fill the FIB live set, then
    /// [`WARMUP_OPS`] ordinary ops (one full round of every op kind at
    /// least, so lazily built state exists before timing starts).
    pub fn warmup(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        match self.workload {
            Workload::FibBurst | Workload::TrickleRead => {
                while self.fib.live() < LIVE_CAP {
                    let room = LIVE_CAP - self.fib.live();
                    ops.push(Op::Fib(self.fib.batch(room.min(BURST))));
                }
                let n = if self.workload == Workload::FibBurst {
                    WARMUP_BURSTS
                } else {
                    WARMUP_OPS
                };
                ops.extend((0..n).map(|_| self.next_op()));
            }
            // A control op costs ~100x a FIB op: two rounds warm every
            // path without dominating set-up.
            Workload::PlanChurn | Workload::PlanChurnLossy => {
                ops.extend((0..6).map(|_| self.next_op()));
            }
        }
        ops
    }

    /// The next timed op.
    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            // Every ninth op is a read, so `secondary_ms_p50` exists
            // here too and a read-path change shows beside bursts.
            Workload::FibBurst => {
                if i % 9 == 8 {
                    self.read(i)
                } else {
                    Op::Fib(self.fib.batch(BURST))
                }
            }
            Workload::TrickleRead => {
                if i % 2 == 1 {
                    self.read(i)
                } else {
                    Op::Fib(self.fib.batch(1))
                }
            }
            Workload::PlanChurn | Workload::PlanChurnLossy => match i % 3 {
                0 => self.plan.next_swap(),
                _ => self.plan.next_link(),
            },
        }
    }

    fn read(&self, i: u64) -> Op {
        Op::Read(self.names[(i / 2) as usize % self.names.len()].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun::datasets::{by_name, Scale};

    fn topo(name: &str) -> Topology {
        by_name(name, Scale::Tiny).unwrap().network.topology
    }

    fn script_text(w: Workload, seed: u64, ops: usize) -> String {
        let t = topo(w.dataset());
        let mut s = Script::new(w, seed, &t);
        let mut out: Vec<String> = s.preinstall().iter().map(IntentSpec::add_line).collect();
        for op in s.warmup() {
            out.extend(op.lines());
        }
        for _ in 0..ops {
            out.extend(s.next_op().lines());
        }
        out.join("\n")
    }

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for w in Workload::ALL {
            let n = if w.primary() == OpKind::Fib { 200 } else { 30 };
            let a = script_text(w, 7, n);
            assert_eq!(a, script_text(w, 7, n), "{}", w.name());
            assert_ne!(a, script_text(w, 8, n), "{}", w.name());
        }
    }

    #[test]
    fn live_set_is_bounded_and_every_insert_is_removed() {
        let mut g = FibGen::new(&topo("AT1-2"), 7);
        let mut live: Vec<(DeviceId, u32, MatchSpec)> = Vec::new();
        let mut removed = 0u64;
        for _ in 0..5000 {
            match g.next_update() {
                RuleUpdate::Insert { device, rule } => {
                    let key = (device, rule.priority, rule.matches);
                    assert!(!live.contains(&key), "duplicate live key");
                    live.push(key);
                }
                RuleUpdate::Remove {
                    device,
                    priority,
                    matches,
                } => {
                    // Oldest first: every insert is removed after
                    // exactly LIVE_CAP later inserts.
                    assert_eq!(live.remove(0), (device, priority, matches));
                    removed += 1;
                }
            }
            assert!(live.len() <= LIVE_CAP && g.live() == live.len());
        }
        assert!(removed > 2000);
    }

    #[test]
    fn hit_share_is_as_stated() {
        for seed in [7, 8, 9] {
            let t = topo("AT2-2");
            // The verified packet space: the first announcer's prefixes.
            let (dst, _) = t.external_map().next().unwrap();
            let verified = t.external_prefixes(dst);
            let mut g = FibGen::new(&t, seed);
            let (mut inserts, mut hits) = (0u32, 0u32);
            for _ in 0..20_000 {
                if let RuleUpdate::Insert { rule, .. } = g.next_update() {
                    inserts += 1;
                    hits += verified.iter().any(|p| p.overlaps(&rule.matches.dst)) as u32;
                }
            }
            let share = f64::from(hits) / f64::from(inserts);
            assert!((share - HIT_SHARE).abs() <= 0.02, "seed {seed}: {share}");
        }
    }

    #[test]
    fn plan_script_swaps_oldest_and_pairs_link_events() {
        let t = topo("NTT");
        let mut s = Script::new(Workload::PlanChurn, 7, &t);
        assert_eq!(s.preinstall().len(), LIVE_INTENTS);
        let mut down = None;
        for i in 0..60u64 {
            match s.next_op() {
                Op::Swap { remove, add } => {
                    assert_eq!(remove, i / 3 + 1);
                    assert!(tulkun::core::spec::Invariant::parse(&add.spec).is_ok());
                }
                Op::Link { event, .. } => match event {
                    TopologyEvent::LinkDown(a, b) => down = Some((a, b)),
                    TopologyEvent::LinkUp(a, b) => assert_eq!(down.take(), Some((a, b))),
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn batch_lines_decode_to_the_generated_updates() {
        let mut g = FibGen::new(&topo("AT1-2"), 7);
        let updates = g.batch(BURST);
        let line = Op::Fib(updates.clone()).lines().remove(0);
        let json = line.strip_prefix("batch cp ").unwrap();
        let back: Vec<RuleUpdate> = tulkun::json::from_str(json).unwrap();
        assert_eq!(back, updates);
    }
}
