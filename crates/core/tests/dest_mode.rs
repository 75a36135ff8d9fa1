//! Destination-delivery semantics: the paper's axiomatic destination
//! initialization (§2.2.2, "one copy will be sent to the correct
//! external ports"), whatever the destination's own FIB does.

use tulkun_core::control::DeviceFence;
use tulkun_core::count::CountExpr;
use tulkun_core::dvm::{DeviceVerifier, Envelope, VerifierConfig};
use tulkun_core::intent::IntentStore;
use tulkun_core::planner::Planner;
use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use tulkun_core::verify::{compile_packet_space, evaluate_intents, Verdicts};
use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
use tulkun_netmodel::network::Network;
use tulkun_netmodel::topology::Topology;
use tulkun_predicate::BackendKind::Bdd;
use tulkun_telemetry::Telemetry;

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

fn holds(net: &Network) -> bool {
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
    };
    let mut verifiers: std::collections::BTreeMap<_, _> = Default::default();
    let mut queue: Vec<Envelope> = Vec::new();
    for task in &cp.tasks {
        let fib = net.fib(task.dev).clone();
        let mut v = DeviceVerifier::new(task.dev, net.layout, fib, cfg, Bdd, Telemetry::disabled());
        let share = DeviceFence {
            tasks: vec![(Some(psp.clone()), task.clone())],
            ..DeviceFence::default()
        };
        v.apply_fence(0, 0, share, &mut queue);
        verifiers.insert(task.dev, v);
    }
    // Wave by wave, each in order: first in, first out.
    while !queue.is_empty() {
        for env in std::mem::take(&mut queue) {
            if let Some(v) = verifiers.get_mut(&env.to) {
                v.handle(&env, &mut queue);
            }
        }
    }
    let store = IntentStore::with_base(cp.clone().into(), inv.packet_space);
    let mut verdicts = Verdicts::default();
    evaluate_intents(&store, &mut verdicts, |dev, node| {
        verifiers
            .get_mut(&dev)
            .map(|v| v.node_result(node))
            .unwrap_or_default()
    });
    verdicts.report().holds()
}

#[test]
fn axiomatic_mode_trusts_the_destination() {
    // The paper's semantics: D counts 1 by definition, so the invariant
    // holds even though D's FIB drops.
    assert!(holds(&net_with_dst_drop()));
}

#[test]
fn a_blackhole_before_the_destination_is_a_violation() {
    // Trusting the destination is not trusting the path: when A drops,
    // no copy reaches D and the count at S is 0.
    let mut net = net_with_dst_drop();
    let a = net.topology.device("A").unwrap();
    let p = "10.0.0.0/24".parse().unwrap();
    assert_eq!(net.fib_mut(a).remove(24, &MatchSpec::dst(p)), 1);
    assert!(!holds(&net));
}

#[test]
fn a_destination_that_delivers_holds_too() {
    let mut net = net_with_dst_drop();
    let d = net.topology.device("D").unwrap();
    net.fib_mut(d).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst("10.0.0.0/24".parse().unwrap()),
        action: Action::deliver(),
    });
    assert!(holds(&net));
}
