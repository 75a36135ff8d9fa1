//! Message-reordering robustness: DVM only assumes in-order delivery
//! *per link* (TCP sessions between neighbors). Interleaving across
//! links is arbitrary in a real deployment, so the final verdict must
//! not depend on it.
//!
//! This driver keeps one FIFO per (from, to) device pair and picks the
//! next channel to deliver from at random (seeded), including while
//! updates are being injected mid-flight.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use tulkun_core::control::ControlPlane;
use tulkun_core::count::CountExpr;
use tulkun_core::dvm::{DeviceVerifier, Envelope, VerifierConfig};
use tulkun_core::intent::IntentStore;
use tulkun_core::planner::Planner;
use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use tulkun_core::verify;
use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::DeviceId;
use tulkun_predicate::BackendKind::Bdd;
use tulkun_telemetry::Telemetry;

struct ChannelDriver {
    verifiers: BTreeMap<DeviceId, DeviceVerifier>,
    channels: BTreeMap<(DeviceId, DeviceId), VecDeque<Envelope>>,
    rng: ChaCha8Rng,
}

impl ChannelDriver {
    fn new(net: &Network, plan: &tulkun_core::planner::Plan, seed: u64) -> ChannelDriver {
        let cp = plan.counting().unwrap();
        let (ps, tel) = (&plan.invariant.packet_space, Telemetry::disabled());
        let mut control = ControlPlane::new(&net.topology, net.layout, cp, ps, tel);
        let cfg = VerifierConfig::of(cp);
        let mut driver = ChannelDriver {
            verifiers: BTreeMap::new(),
            channels: BTreeMap::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        };
        for (dev, share) in control.hosted() {
            let fib = net.fib(dev).clone();
            let mut v = DeviceVerifier::new(dev, net.layout, fib, cfg, Bdd, Telemetry::disabled());
            let mut out = Vec::new();
            v.apply_fence(0, 0, share, &mut out);
            for env in out {
                driver.push(env);
            }
            driver.verifiers.insert(dev, v);
        }
        driver
    }

    fn push(&mut self, env: Envelope) {
        self.channels
            .entry((env.from, env.to))
            .or_default()
            .push_back(env);
    }

    /// Delivers one message from a random non-empty channel. Returns
    /// false when quiescent.
    fn step(&mut self) -> bool {
        let keys: Vec<_> = self
            .channels
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(k, _)| *k)
            .collect();
        if keys.is_empty() {
            return false;
        }
        let k = keys[self.rng.gen_range(0..keys.len())];
        let env = self.channels.get_mut(&k).unwrap().pop_front().unwrap();
        let mut out = Vec::new();
        if let Some(v) = self.verifiers.get_mut(&env.to) {
            v.handle(&env, &mut out);
        }
        for env in out {
            self.push(env);
        }
        true
    }

    fn run(&mut self) {
        while self.step() {}
    }

    fn inject(&mut self, update: &RuleUpdate) {
        let mut out = Vec::new();
        if let Some(v) = self.verifiers.get_mut(&update.device()) {
            v.handle_fib_batch(std::slice::from_ref(update), &mut out);
        }
        for env in out {
            self.push(env);
        }
    }
}

fn fig2a() -> Network {
    // Reuse the canonical example network (inline to avoid a dev-dep
    // cycle with tulkun-datasets).
    let mut t = tulkun_netmodel::Topology::new();
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
    let mut net = Network::new(t);
    let p23: tulkun_netmodel::IpPrefix = "10.0.0.0/23".parse().unwrap();
    let p24a: tulkun_netmodel::IpPrefix = "10.0.0.0/24".parse().unwrap();
    let p24b: tulkun_netmodel::IpPrefix = "10.0.1.0/24".parse().unwrap();
    net.fib_mut(s).insert(Rule {
        priority: 23,
        matches: MatchSpec::dst(p23),
        action: Action::fwd(a),
    });
    net.fib_mut(a).insert(Rule {
        priority: 30,
        matches: MatchSpec::dst(p24b).with_port(80),
        action: Action::fwd_any([b, w]),
    });
    net.fib_mut(a).insert(Rule {
        priority: 20,
        matches: MatchSpec::dst(p24b),
        action: Action::fwd(w),
    });
    net.fib_mut(a).insert(Rule {
        priority: 10,
        matches: MatchSpec::dst(p24a),
        action: Action::fwd_all([b, w]),
    });
    net.fib_mut(b).insert(Rule {
        priority: 10,
        matches: MatchSpec::dst(p24a),
        action: Action::Drop,
    });
    net.fib_mut(b).insert(Rule {
        priority: 10,
        matches: MatchSpec::dst(p24b),
        action: Action::fwd(d),
    });
    net.fib_mut(w).insert(Rule {
        priority: 23,
        matches: MatchSpec::dst(p23),
        action: Action::fwd(d),
    });
    net.fib_mut(d).insert(Rule {
        priority: 23,
        matches: MatchSpec::dst(p23),
        action: Action::deliver(),
    });
    net
}

fn waypoint_plan(net: &Network) -> tulkun_core::planner::Plan {
    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* W .* D").unwrap().loop_free(),
        ))
        .build()
        .unwrap();
    Planner::new(&net.topology).plan(&inv).unwrap()
}

fn verdict(driver: &mut ChannelDriver, plan: &tulkun_core::planner::Plan) -> usize {
    let cp = plan.counting().unwrap().clone();
    let store = IntentStore::with_base(cp.into(), plan.invariant.packet_space.clone());
    let verifiers = &mut driver.verifiers;
    let mut verdicts = verify::Verdicts::default();
    verify::evaluate_intents(&store, &mut verdicts, |dev, node| {
        verifiers
            .get_mut(&dev)
            .map(|v| v.node_result(node))
            .unwrap_or_default()
    });
    verdicts.report().violations.len()
}

#[test]
fn verdict_is_order_independent() {
    let net = fig2a();
    let plan = waypoint_plan(&net);
    let mut verdicts = std::collections::BTreeSet::new();
    for seed in 0..20 {
        let mut driver = ChannelDriver::new(&net, &plan, seed);
        driver.run();
        verdicts.insert(verdict(&mut driver, &plan));
    }
    assert_eq!(
        verdicts.len(),
        1,
        "verdict depends on delivery order: {verdicts:?}"
    );
    assert_eq!(verdicts.into_iter().next().unwrap(), 1);
}

#[test]
fn verdict_is_order_independent_with_midflight_updates() {
    // Inject the Fig. 2 repair while burst messages are still in
    // flight, at a random point, under random interleavings: eventual
    // consistency demands the same final verdict every time.
    let net = fig2a();
    let plan = waypoint_plan(&net);
    let b = net.topology.device("B").unwrap();
    let w = net.topology.device("W").unwrap();
    let update = RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 50,
            matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
            action: Action::fwd(w),
        },
    };
    for seed in 0..20 {
        let mut driver = ChannelDriver::new(&net, &plan, seed);
        // Deliver a random number of messages before the update lands.
        let k = (seed as usize * 7) % 12;
        for _ in 0..k {
            if !driver.step() {
                break;
            }
        }
        driver.inject(&update);
        driver.run();
        assert_eq!(
            verdict(&mut driver, &plan),
            0,
            "seed {seed}: repaired network must verify regardless of interleaving"
        );
    }
}
