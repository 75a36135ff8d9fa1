//! Packet transformation handling (§5.2): a device that rewrites
//! headers makes its downstream neighbors count the *transformed* space
//! via SUBSCRIBE messages.

use tulkun_core::count::CountExpr;
use tulkun_core::event::{RuntimeEvent, Substrate};
use tulkun_core::planner::{Planner, PlannerOptions};
use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use tulkun_core::verify::{verify_snapshot, Session};
use tulkun_netmodel::fib::{Action, ActionType, MatchSpec, NextHop, Rewrite, Rule};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::topology::Topology;
use tulkun_netmodel::IpPrefix;

fn pfx(s: &str) -> IpPrefix {
    s.parse().unwrap()
}

/// S → A → B → D, where A NATs 10.0.0.0/24 into 10.1.0.0/24 and the
/// rest of the network only routes the translated prefix.
fn nat_network(b_forwards: bool) -> Network {
    let mut t = Topology::new();
    let s = t.add_device("S");
    let a = t.add_device("A");
    let b = t.add_device("B");
    let d = t.add_device("D");
    t.add_link(s, a, 1000);
    t.add_link(a, b, 1000);
    t.add_link(b, d, 1000);
    t.add_external_prefix(d, pfx("10.1.0.0/24"));

    let mut net = Network::new(t);
    net.fib_mut(s).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(pfx("10.0.0.0/24")),
        action: Action::fwd(a),
    });
    net.fib_mut(a).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(pfx("10.0.0.0/24")),
        action: Action::Forward {
            mode: ActionType::All,
            next_hops: vec![NextHop::Device(b)],
            rewrite: Some(Rewrite {
                to: pfx("10.1.0.0/24"),
            }),
        },
    });
    if b_forwards {
        net.fib_mut(b).insert(Rule {
            priority: 24,
            matches: MatchSpec::dst(pfx("10.1.0.0/24")),
            action: Action::fwd(d),
        });
    }
    net.fib_mut(d).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(pfx("10.1.0.0/24")),
        action: Action::deliver(),
    });
    net
}

fn nat_invariant() -> Invariant {
    Invariant::builder()
        .name("reachability through NAT")
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S A B D").unwrap(),
        ))
        .build()
        .unwrap()
}

fn plan(net: &Network) -> tulkun_core::planner::Plan {
    Planner::with_options(
        &net.topology,
        PlannerOptions {
            skip_consistency_check: true,
        },
    )
    .plan(&nat_invariant())
    .unwrap()
}

#[test]
fn reachability_through_rewrite_holds() {
    // B only has rules for the *translated* prefix; the counting still
    // works because A subscribes B to 10.1.0.0/24.
    let net = nat_network(true);
    let report = verify_snapshot(&net, &plan(&net));
    assert!(report.holds(), "{:?}", report.violations);
}

#[test]
fn rewrite_violation_detected_when_downstream_drops() {
    let net = nat_network(false); // B drops the translated prefix
    let report = verify_snapshot(&net, &plan(&net));
    assert!(!report.holds());
}

#[test]
fn subscribe_messages_flow() {
    let net = nat_network(true);
    let plan = plan(&net);
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    // A must have sent at least one SUBSCRIBE (B's scope grew beyond the
    // invariant's packet space).
    let a = net.topology.device("A").unwrap();
    let va = session.verifier(a).unwrap();
    assert!(va.stats.messages_sent > 0);
    let b = net.topology.device("B").unwrap();
    let vb = session.verifier(b).unwrap();
    assert!(
        vb.stats.subscribes_processed >= 1,
        "B must receive a SUBSCRIBE"
    );
}

#[test]
fn downstream_update_in_translated_space_propagates_back() {
    // Start broken (B drops), then install B's rule for the translated
    // prefix: the incremental update must flip the verdict at S.
    let net = nat_network(false);
    let plan = plan(&net);
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    assert!(!session.report().holds());

    let b = net.topology.device("B").unwrap();
    let d = net.topology.device("D").unwrap();
    session
        .apply_event(&RuntimeEvent::Batch(vec![RuleUpdate::Insert {
            device: b,
            rule: Rule {
                priority: 24,
                matches: MatchSpec::dst(pfx("10.1.0.0/24")),
                action: Action::fwd(d),
            },
        }]))
        .unwrap();
    assert!(
        session.report().holds(),
        "{:?}",
        session.report().violations
    );
}

#[test]
fn rewrite_installed_by_update_triggers_subscribe() {
    // A initially forwards without rewriting (so nothing reaches D's
    // translated-prefix FIB); installing the NAT rule via an update must
    // send the SUBSCRIBE and fix the verdict.
    let mut net = nat_network(true);
    let a = net.topology.device("A").unwrap();
    let b = net.topology.device("B").unwrap();
    // Replace A's NAT with a plain forward first.
    net.fib_mut(a)
        .remove(24, &MatchSpec::dst(pfx("10.0.0.0/24")));
    net.fib_mut(a).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(pfx("10.0.0.0/24")),
        action: Action::fwd(b),
    });
    let plan = plan(&net);
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    assert!(
        !session.report().holds(),
        "without the NAT, B drops the packets"
    );

    session
        .apply_event(&RuntimeEvent::Batch(vec![RuleUpdate::Insert {
            device: a,
            rule: Rule {
                priority: 50,
                matches: MatchSpec::dst(pfx("10.0.0.0/24")),
                action: Action::Forward {
                    mode: ActionType::All,
                    next_hops: vec![NextHop::Device(b)],
                    rewrite: Some(Rewrite {
                        to: pfx("10.1.0.0/24"),
                    }),
                },
            },
        }]))
        .unwrap();
    assert!(
        session.report().holds(),
        "{:?}",
        session.report().violations
    );
}
