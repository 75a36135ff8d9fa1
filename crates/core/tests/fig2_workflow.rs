#![allow(clippy::needless_range_loop)] // bit-packing loops read clearer indexed
//! End-to-end reproduction of the paper's worked example (Figure 2):
//! the 5-device network, its data plane, the waypoint invariant, the
//! backward counting result, and the incremental update of §2.2.3.

use tulkun_core::churn::TopologyEvent;
use tulkun_core::count::CountExpr;
use tulkun_core::count::Counts;
use tulkun_core::event::{RuntimeEvent, Substrate};
use tulkun_core::planner::Planner;
use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use tulkun_core::verify::{verify_snapshot, Session};
use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::topology::Topology;
use tulkun_netmodel::IpPrefix;

fn pfx(s: &str) -> IpPrefix {
    s.parse().unwrap()
}

/// The network of Figure 2a with the data plane described in §2:
///
/// * `P2 = 10.0.0.0/24`: A replicates to both B and W (`ALL`); B drops.
/// * `P3 = 10.0.1.0/24 ∧ port 80`: A picks B or W (`ANY`); B and W
///   forward to D.
/// * `P4 = 10.0.1.0/24 ∧ port ≠ 80`: A forwards to W only.
fn fig2a_network() -> Network {
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
    t.add_external_prefix(d, pfx("10.0.0.0/23"));

    let mut net = Network::new(t);
    // S: everything in P1 toward A.
    net.fib_mut(s).insert(Rule {
        priority: 23,
        matches: MatchSpec::dst(pfx("10.0.0.0/23")),
        action: Action::fwd(a),
    });
    // A: P3 → ANY{B, W}; P4 (rest of 10.0.1.0/24) → W; P2 → ALL{B, W}.
    net.fib_mut(a).insert(Rule {
        priority: 30,
        matches: MatchSpec::dst(pfx("10.0.1.0/24")).with_port(80),
        action: Action::fwd_any([b, w]),
    });
    net.fib_mut(a).insert(Rule {
        priority: 20,
        matches: MatchSpec::dst(pfx("10.0.1.0/24")),
        action: Action::fwd(w),
    });
    net.fib_mut(a).insert(Rule {
        priority: 10,
        matches: MatchSpec::dst(pfx("10.0.0.0/24")),
        action: Action::fwd_all([b, w]),
    });
    // B: drops P2, forwards 10.0.1.0/24 to D.
    net.fib_mut(b).insert(Rule {
        priority: 10,
        matches: MatchSpec::dst(pfx("10.0.0.0/24")),
        action: Action::Drop,
    });
    net.fib_mut(b).insert(Rule {
        priority: 10,
        matches: MatchSpec::dst(pfx("10.0.1.0/24")),
        action: Action::fwd(d),
    });
    // W: all of P1 to D.
    net.fib_mut(w).insert(Rule {
        priority: 23,
        matches: MatchSpec::dst(pfx("10.0.0.0/23")),
        action: Action::fwd(d),
    });
    // D: delivers externally.
    net.fib_mut(d).insert(Rule {
        priority: 23,
        matches: MatchSpec::dst(pfx("10.0.0.0/23")),
        action: Action::deliver(),
    });
    net
}

/// Figure 2b: all packets to 10.0.0.0/23 entering at S must reach D via
/// a simple path through W, in every universe.
fn fig2b_invariant() -> Invariant {
    Invariant::builder()
        .name("fig2b waypoint")
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* W .* D").unwrap().loop_free(),
        ))
        .build()
        .unwrap()
}

#[test]
fn fig2_snapshot_detects_the_p3_violation() {
    let net = fig2a_network();
    let plan = Planner::new(&net.topology)
        .plan(&fig2b_invariant())
        .unwrap();
    let report = verify_snapshot(&net, &plan);
    // The invariant does NOT hold: in the universe where A sends P3 to B,
    // zero copies reach D through W.
    assert!(!report.holds());
    // Exactly one violating packet class (P3 = 10.0.1.0/24:80).
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
}

#[test]
fn fig2_violating_class_is_p3() {
    let net = fig2a_network();
    let plan = Planner::new(&net.topology)
        .plan(&fig2b_invariant())
        .unwrap();
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    let report = session.report();
    assert_eq!(report.violations.len(), 1);

    // Check the violating predicate is P3 by evaluating it on specimen
    // packets: 10.0.1.1:80 ∈ P3, 10.0.1.1:81 ∈ P4, 10.0.0.1 ∈ P2.
    let v = &report.violations[0];
    let layout = tulkun_bdd::HeaderLayout::ipv4_tcp();
    let mut m = tulkun_bdd::BddManager::new(layout.num_vars());
    let pred = tulkun_bdd::serial::import(&mut m, &v.pred).unwrap();
    let eval = |m: &tulkun_bdd::BddManager, ip: [u8; 4], port: u16| {
        let mut bits = vec![false; layout.num_vars() as usize];
        let addr = u32::from_be_bytes(ip);
        for i in 0..32 {
            bits[i] = (addr >> (31 - i)) & 1 == 1;
        }
        for i in 0..16 {
            bits[32 + i] = (port >> (15 - i)) & 1 == 1;
        }
        m.eval(pred, &bits)
    };
    assert!(eval(&m, [10, 0, 1, 1], 80), "P3 must violate");
    assert!(!eval(&m, [10, 0, 1, 1], 81), "P4 must not violate");
    assert!(!eval(&m, [10, 0, 0, 1], 80), "P2 must not violate");

    // And the counts are the paper's [0, 1] (or the reduced [0]).
    let tulkun_core::verify::ViolationKind::Counting { counts } = &v.kind else {
        panic!("expected a counting violation")
    };
    assert!(
        counts.iter().any(|u| u[0] == 0),
        "a universe must deliver 0 copies"
    );
}

#[test]
fn fig2_incremental_update_fixes_the_violation() {
    // §2.2.3: B updates its action to forward P3 ∪ P4 to W instead of D.
    let net = fig2a_network();
    let plan = Planner::new(&net.topology)
        .plan(&fig2b_invariant())
        .unwrap();
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    assert!(!session.report().holds());

    let b = net.topology.device("B").unwrap();
    let w = net.topology.device("W").unwrap();
    let update = RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 50,
            matches: MatchSpec::dst(pfx("10.0.1.0/24")),
            action: Action::fwd(w),
        },
    };
    let msgs = session
        .apply_event(&RuntimeEvent::Batch(vec![update]))
        .unwrap()
        .messages;
    assert!(msgs > 0, "the update must trigger DVM messages");
    let report = session.report();
    assert!(
        report.holds(),
        "after the update the invariant holds: {:?}",
        report.violations
    );
}

#[test]
fn fig2_update_message_flow_is_incremental() {
    // Only devices whose results change send messages: the B rule update
    // must not make S recompute everything (S receives one update from
    // A at most).
    let net = fig2a_network();
    let plan = Planner::new(&net.topology)
        .plan(&fig2b_invariant())
        .unwrap();
    let mut session = Session::new(&net, &plan);
    let burst_msgs = session.run_to_quiescence().messages;

    let b = net.topology.device("B").unwrap();
    let w = net.topology.device("W").unwrap();
    let update = RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 50,
            matches: MatchSpec::dst(pfx("10.0.1.0/24")),
            action: Action::fwd(w),
        },
    };
    let incr_msgs = session
        .apply_event(&RuntimeEvent::Batch(vec![update]))
        .unwrap()
        .messages;
    assert!(
        incr_msgs < burst_msgs,
        "incremental ({incr_msgs}) must be cheaper than burst ({burst_msgs})"
    );
}

#[test]
fn fig2_s1_final_counts_match_the_paper() {
    // The paper's final counting result at S1:
    // [(P2 ∪ P4, 1), (P3, [0, 1])]. With Proposition 1's reduction for
    // `exist >= 1`, S receives min(c) from A, so S1 sees (P3, [0]).
    let net = fig2a_network();
    let plan = Planner::new(&net.topology)
        .plan(&fig2b_invariant())
        .unwrap();
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();

    let s = net.topology.device("S").unwrap();
    let cp = session.plan().clone();
    let (_, src_node) = cp.dpvnet.sources()[0];
    let verifier = session.verifier_mut(s).unwrap();
    let results = verifier.node_result(src_node, None);

    // Two outcome classes: count {1} for P2 ∪ P4 and count {0} for P3
    // (min-reduced from [0,1] on the wire).
    let mut counts: Vec<Counts> = results.iter().map(|(_, c)| c.clone()).collect();
    counts.sort();
    assert_eq!(
        counts.len(),
        2,
        "expected two packet classes at S1: {counts:?}"
    );
    assert_eq!(counts[0], Counts::scalars([0]));
    assert_eq!(counts[1], Counts::scalars([1]));
}

#[test]
fn multicast_and_isolation_on_fig2a() {
    let net = fig2a_network();
    // "Multicast" to B and D fails for P3/P4 (B only gets P3 sometimes),
    // but plain reachability S→D holds for all of P1? No: P2's B-copy is
    // dropped, but the W-copy reaches D, so reachability holds.
    let inv =
        tulkun_core::spec::table1::reachability(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "D")
            .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let report = verify_snapshot(&net, &plan);
    assert!(report.holds(), "{:?}", report.violations);

    // Isolation S -x-> D must fail (packets do reach D).
    let inv =
        tulkun_core::spec::table1::isolation(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "D")
            .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let report = verify_snapshot(&net, &plan);
    assert!(!report.holds());
}

#[test]
fn blackhole_freeness_fails_because_b_drops_p2() {
    let net = fig2a_network();
    let inv = tulkun_core::spec::table1::blackhole_freeness(
        PacketSpace::dst_prefix("10.0.0.0/24"),
        "S",
        "D",
    )
    .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let report = verify_snapshot(&net, &plan);
    // P2 is replicated at A; the B copy is dropped at B — an escaped
    // trace, so coverage fails.
    assert!(!report.holds());
}

#[test]
fn link_event_recounting() {
    // Kill link W–D: the only waypoint paths die, so even P2/P4 violate.
    let net = fig2a_network();
    let inv = fig2b_invariant();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();

    let w = net.topology.device("W").unwrap();
    let d = net.topology.device("D").unwrap();
    let link = |event| RuntimeEvent::Topology {
        event,
        base: net.topology.clone(),
        invariant: inv.clone(),
    };
    session
        .apply_event(&link(TopologyEvent::LinkDown(w, d)))
        .unwrap();
    let report = session.report();
    assert!(!report.holds());
    // Bring it back: the original single violation returns.
    session
        .apply_event(&link(TopologyEvent::LinkUp(w, d)))
        .unwrap();
    let report = session.report();
    assert_eq!(report.violations.len(), 1);
}
