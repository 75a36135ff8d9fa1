//! The compound-invariant constructions of §4.3: the union DPVNet for
//! different destinations (Figure 5) and the virtual-destination
//! handling rationale for same destinations (Figure 6). Both strawmen
//! the paper refutes would raise false positives; Tulkun's construction
//! must not.

use tulkun::core::spec::table1;
use tulkun::prelude::*;

#[test]
fn fig5_anycast_union_dpvnet_no_false_positive() {
    // Fig. 5a: S → {A → D | B → E} with an ANY split at S: in every
    // universe the packet reaches exactly one of D, E.
    let net = tulkun::datasets::fig5a_network();
    let inv = table1::anycast(PacketSpace::dst_prefix("10.1.0.0/24"), "S", "D", "E").unwrap();
    let planner = Planner::with_options(
        &net.topology,
        tulkun::core::planner::PlannerOptions {
            skip_consistency_check: true,
        },
    );
    let plan = planner.plan(&inv).unwrap();
    let cp = plan.counting().unwrap();
    // One union DPVNet carrying both expressions.
    assert_eq!(cp.exprs.len(), 2);
    assert_eq!(cp.vec_dim(), 2);
    let report = verify_snapshot(&net, &plan);
    assert!(
        report.holds(),
        "anycast holds on Fig. 5a — the per-destination cross product \
         would wrongly flag it: {:?}",
        report.violations
    );
}

#[test]
fn fig5_anycast_detects_real_violation() {
    // Break it: S replicates to both sides (ALL) → both D and E get a
    // copy → anycast genuinely violated.
    let mut net = tulkun::datasets::fig5a_network();
    let s = net.topology.expect_device("S");
    let a = net.topology.expect_device("A");
    let b = net.topology.expect_device("B");
    net.apply(&tulkun::netmodel::network::RuleUpdate::Insert {
        device: s,
        rule: Rule {
            priority: 99,
            matches: tulkun::netmodel::fib::MatchSpec::dst("10.1.0.0/24".parse().unwrap()),
            action: Action::fwd_all([a, b]),
        },
    });
    let inv = table1::anycast(PacketSpace::dst_prefix("10.1.0.0/24"), "S", "D", "E").unwrap();
    let planner = Planner::with_options(
        &net.topology,
        tulkun::core::planner::PlannerOptions {
            skip_consistency_check: true,
        },
    );
    let plan = planner.plan(&inv).unwrap();
    let report = verify_snapshot(&net, &plan);
    assert!(!report.holds());
}

#[test]
fn fig6_same_destination_no_phantom_error() {
    // Fig. 6a: S replicates to A (→W→D) and B (→D). The invariant
    // "2 copies reach D on simple paths, OR 1 copy reaches D through W"
    // holds; separate per-expression DPVNets cross-multiplied would
    // raise a phantom error. The union construction keeps universes
    // joint, so no false positive.
    let net = tulkun::datasets::fig6a_network();
    let p_simple = PathExpr::parse("S .* D").unwrap().loop_free();
    let p_way = PathExpr::parse("S .* W .* D").unwrap().loop_free();
    let inv = Invariant::builder()
        .name("fig6 compound")
        .packet_space(PacketSpace::dst_prefix("10.2.0.0/24"))
        .ingress(["S"])
        .behavior(
            Behavior::exist(CountExpr::ge(2), p_simple)
                .or(Behavior::exist(CountExpr::ge(1), p_way)),
        )
        .build()
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();
    assert_eq!(cp.vec_dim(), 2);
    let report = verify_snapshot(&net, &plan);
    assert!(report.holds(), "{:?}", report.violations);
}

#[test]
fn fig6_detects_real_violation_when_both_branches_fail() {
    // Drop the B branch: only 1 simple-path copy arrives, but it goes
    // through W, so the invariant still holds (branch 2). Then also
    // break the waypoint branch by dropping at W: nothing holds.
    let mut net = tulkun::datasets::fig6a_network();
    let b = net.topology.expect_device("B");
    let w = net.topology.expect_device("W");
    let m = tulkun::netmodel::fib::MatchSpec::dst("10.2.0.0/24".parse().unwrap());
    net.apply(&tulkun::netmodel::network::RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 99,
            matches: m,
            action: Action::Drop,
        },
    });
    let p_simple = PathExpr::parse("S .* D").unwrap().loop_free();
    let p_way = PathExpr::parse("S .* W .* D").unwrap().loop_free();
    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.2.0.0/24"))
        .ingress(["S"])
        .behavior(
            Behavior::exist(CountExpr::ge(2), p_simple)
                .or(Behavior::exist(CountExpr::ge(1), p_way)),
        )
        .build()
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    assert!(
        verify_snapshot(&net, &plan).holds(),
        "waypoint branch still satisfies"
    );

    net.apply(&tulkun::netmodel::network::RuleUpdate::Insert {
        device: w,
        rule: Rule {
            priority: 99,
            matches: m,
            action: Action::Drop,
        },
    });
    assert!(!verify_snapshot(&net, &plan).holds());
}

#[test]
fn multicast_needs_joint_universes_too() {
    // On Fig. 2a, multicast S → {B?, D} with the ANY split: there is a
    // universe where B receives nothing (the W branch), so multicast to
    // {B, D} must fail even though each destination is reachable in
    // *some* universe — exactly the all-universes semantics.
    let net = tulkun::datasets::fig2a_network();
    let inv = table1::multicast(
        PacketSpace::dst_prefix("10.0.1.0/24").and(PacketSpace::dst_port(80)),
        "S",
        &["B", "D"],
    )
    .unwrap();
    let planner = Planner::with_options(
        &net.topology,
        tulkun::core::planner::PlannerOptions {
            skip_consistency_check: true,
        },
    );
    let plan = planner.plan(&inv).unwrap();
    let report = verify_snapshot(&net, &plan);
    assert!(!report.holds());
}
