//! The five functionality demos of §9.1, each run against a correct and
//! an erroneous data plane of the Figure 2a network:
//!
//! 1. loop-free waypoint reachability S → D,
//! 2. loop-free multicast from S to W and D,
//! 3. loop-free anycast from S to B and D,
//! 4. different-ingress consistent reachability from S and B to D,
//! 5. all-shortest-path availability from S to D (RCDC-style).
//!
//! ```sh
//! cargo run --example demos
//! ```

use tulkun::core::spec::table1;
use tulkun::core::verify::verify_snapshot;
use tulkun::netmodel::fib::MatchSpec;
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;

fn check(name: &str, net: &Network, inv: &Invariant, expect_holds: bool) {
    let planner = Planner::with_options(
        &net.topology,
        tulkun::core::planner::PlannerOptions {
            skip_consistency_check: true,
        },
    );
    let plan = planner.plan(inv).unwrap();
    let report = verify_snapshot(net, &plan);
    let verdict = if report.holds() { "holds" } else { "VIOLATED" };
    println!(
        "  {name}: {verdict} ({} violation classes)",
        report.violations.len()
    );
    assert_eq!(report.holds(), expect_holds, "{name}");
}

fn main() {
    let ps = || PacketSpace::dst_prefix("10.0.0.0/23");
    // A *correct* data plane for all five demos: replace B's drop and
    // A's port-80 ECMP so everything flows S → A → W → D.
    let correct = {
        let mut net = tulkun::datasets::fig2a_network();
        let a = net.topology.expect_device("A");
        let b = net.topology.expect_device("B");
        let w = net.topology.expect_device("W");
        let d = net.topology.expect_device("D");
        // A sends everything to W; B forwards to D (unused but clean).
        net.apply(&RuleUpdate::Insert {
            device: a,
            rule: Rule {
                priority: 99,
                matches: MatchSpec::dst("10.0.0.0/23".parse().unwrap()),
                action: Action::fwd(w),
            },
        });
        net.apply(&RuleUpdate::Insert {
            device: b,
            rule: Rule {
                priority: 99,
                matches: MatchSpec::dst("10.0.0.0/23".parse().unwrap()),
                action: Action::fwd(d),
            },
        });
        net
    };
    // The erroneous plane is Fig. 2a's original (B drops P2; A's ANY
    // group lets P3 skip W).
    let erroneous = tulkun::datasets::fig2a_network();

    println!("demo 1: loop-free waypoint reachability S -> W -> D");
    let wp = table1::waypoint(ps(), "S", "W", "D").unwrap();
    check("correct plane", &correct, &wp, true);
    check("erroneous plane", &erroneous, &wp, false);

    println!("demo 2: loop-free multicast S -> {{W, D}}");
    let mc = table1::multicast(ps(), "S", &["W", "D"]).unwrap();
    check("correct plane", &correct, &mc, true);
    check("erroneous plane", &erroneous, &mc, false);

    println!("demo 3: loop-free anycast S -> B xor D");
    // On the correct plane everything reaches D and nothing terminates
    // at B — exactly one of the two, so anycast holds.
    let ac = table1::anycast(ps(), "S", "B", "D").unwrap();
    check("correct plane", &correct, &ac, true);
    // On the erroneous plane P2 reaches neither B-terminal nor... it
    // reaches D once; but P3's B-universe ends at D too — still one.
    // The interesting failure: replicate to both B and D.
    let mut both = correct.clone();
    let a = both.topology.expect_device("A");
    let b = both.topology.expect_device("B");
    let w = both.topology.expect_device("W");
    both.apply(&RuleUpdate::Insert {
        device: a,
        rule: Rule {
            priority: 100,
            matches: MatchSpec::dst("10.0.0.0/23".parse().unwrap()),
            action: Action::fwd_all([b, w]),
        },
    });
    // Make B deliver locally (terminate) so both B and D receive copies.
    both.apply(&RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 100,
            matches: MatchSpec::dst("10.0.0.0/23".parse().unwrap()),
            action: Action::deliver(),
        },
    });
    check("replicating plane", &both, &ac, false);

    println!("demo 4: different-ingress consistent reachability {{S, B}} -> D");
    let di = table1::different_ingress_reachability(ps(), &["S", "B"], "D").unwrap();
    check("correct plane", &correct, &di, true);
    check("erroneous plane", &erroneous, &di, false);

    println!("demo 5: all-shortest-path availability S -> D (local contracts)");
    let asp = table1::all_shortest_path(ps(), "S", "D").unwrap();
    // The ECMP-complete plane: A must use BOTH B and W (the two
    // shortest S→D paths run through them).
    let mut ecmp = tulkun::datasets::fig2a_network();
    let bdev = ecmp.topology.expect_device("B");
    let d = ecmp.topology.expect_device("D");
    ecmp.apply(&RuleUpdate::Insert {
        device: a_of(&ecmp),
        rule: Rule {
            priority: 99,
            matches: MatchSpec::dst("10.0.0.0/23".parse().unwrap()),
            action: Action::fwd_any([bdev, ecmp.topology.expect_device("W")]),
        },
    });
    ecmp.apply(&RuleUpdate::Insert {
        device: bdev,
        rule: Rule {
            priority: 99,
            matches: MatchSpec::dst("10.0.0.0/23".parse().unwrap()),
            action: Action::fwd(d),
        },
    });
    check("ECMP-complete plane", &ecmp, &asp, true);
    check("single-path plane", &correct, &asp, false);

    println!("all demos behaved as expected");
}

fn a_of(net: &Network) -> tulkun::netmodel::DeviceId {
    net.topology.expect_device("A")
}
