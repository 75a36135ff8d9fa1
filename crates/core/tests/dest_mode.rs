//! Destination-delivery semantics: the paper's axiomatic destination
//! initialization (§2.2.2, "one copy will be sent to the correct
//! external ports") vs the stricter mode that checks the destination's
//! own FIB.

use tulkun_core::count::CountExpr;
use tulkun_core::dvm::{DestMode, DeviceVerifier, Envelope, VerifierConfig};
use tulkun_core::intent::IntentStore;
use tulkun_core::planner::Planner;
use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use tulkun_core::verify::{compile_packet_space, evaluate_intents};
use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
use tulkun_netmodel::network::Network;
use tulkun_netmodel::topology::Topology;

/// S → A → D where D's own FIB drops the prefix (a last-hop blackhole).
fn net_with_dst_drop() -> Network {
    let mut t = Topology::new();
    let s = t.add_device("S");
    let a = t.add_device("A");
    let d = t.add_device("D");
    t.add_link(s, a, 1000);
    t.add_link(a, d, 1000);
    t.add_external_prefix(d, "10.0.0.0/24".parse().unwrap());
    let mut net = Network::new(t);
    let p = "10.0.0.0/24".parse().unwrap();
    net.fib_mut(s).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(p),
        action: Action::fwd(a),
    });
    net.fib_mut(a).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(p),
        action: Action::fwd(d),
    });
    // D has no rule: the packet dies at the destination switch.
    net
}

fn run_with_mode(net: &Network, mode: DestMode) -> bool {
    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S A D").unwrap(),
        ))
        .build()
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();
    let psp = compile_packet_space(&net.layout, &inv.packet_space);
    let cfg = VerifierConfig {
        n_exprs: 1,
        track_escapes: false,
        reduce: cp.reduce,
        dest_mode: mode,
    };
    let mut verifiers: std::collections::BTreeMap<_, _> = Default::default();
    let mut queue: std::collections::VecDeque<Envelope> = Default::default();
    for task in &cp.tasks {
        let mut v = DeviceVerifier::builder(
            task.dev,
            net.layout,
            net.fib(task.dev).clone(),
            &psp,
            cfg.clone(),
        )
        .tasks(vec![task.clone()])
        .build();
        v.init(&mut queue);
        verifiers.insert(task.dev, v);
    }
    while let Some(env) = queue.pop_front() {
        if let Some(v) = verifiers.get_mut(&env.to) {
            v.handle(&env, &mut queue);
        }
    }
    let store = IntentStore::with_base(cp.clone().into(), inv.packet_space, None);
    evaluate_intents(&store, |dev, node| {
        verifiers
            .get_mut(&dev)
            .map(|v| v.node_result(node, None))
            .unwrap_or_default()
    })
    .holds()
}

#[test]
fn axiomatic_mode_trusts_the_destination() {
    // The paper's semantics: D1 counts 1 by definition, so the invariant
    // holds even though D's FIB drops.
    let net = net_with_dst_drop();
    assert!(run_with_mode(&net, DestMode::Axiomatic));
}

#[test]
fn check_delivery_mode_catches_last_hop_blackholes() {
    let net = net_with_dst_drop();
    assert!(!run_with_mode(&net, DestMode::CheckDelivery));
}

#[test]
fn check_delivery_passes_when_destination_delivers() {
    let mut net = net_with_dst_drop();
    let d = net.topology.device("D").unwrap();
    net.fib_mut(d).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst("10.0.0.0/24".parse().unwrap()),
        action: Action::deliver(),
    });
    assert!(run_with_mode(&net, DestMode::CheckDelivery));
    assert!(run_with_mode(&net, DestMode::Axiomatic));
}
