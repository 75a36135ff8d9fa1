//! Why backward propagation? (§7 "Why not forward propagation?")
//!
//! Because counting results flow *from the destination toward sources*,
//! every device ends up knowing, for each packet class, how many copies
//! IT can still deliver — not just the ingress. That is exactly the
//! information routing services need: §1 cites convergence-free routing
//! and fast data-plane switching as consumers.
//!
//! This example shows a transit device using its neighbors' DVM results
//! to make a *local* reroute decision when its primary next hop stops
//! delivering — no controller, no global recomputation.
//!
//! ```sh
//! cargo run --example local_reroute
//! ```

use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::verify::Session;
use tulkun::netmodel::fib::MatchSpec;
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;

fn main() {
    // Diamond: S → A → {B | W} → D. A routes via B; B will blackhole.
    let mut t = Topology::new();
    let s = t.add_device("S");
    let a = t.add_device("A");
    let b = t.add_device("B");
    let w = t.add_device("W");
    let d = t.add_device("D");
    t.add_link(s, a, 1000);
    t.add_link(a, b, 1000);
    t.add_link(a, w, 1000);
    t.add_link(b, d, 1000);
    t.add_link(w, d, 1000);
    let prefix: tulkun::netmodel::IpPrefix = "10.0.0.0/24".parse().unwrap();
    t.add_external_prefix(d, prefix);

    let mut net = Network::new(t);
    net.fib_mut(s).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(prefix),
        action: Action::fwd(a),
    });
    net.fib_mut(a).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(prefix),
        action: Action::fwd(b),
    });
    net.fib_mut(b).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(prefix),
        action: Action::fwd(d),
    });
    net.fib_mut(w).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(prefix),
        action: Action::fwd(d),
    });
    net.fib_mut(d).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(prefix),
        action: Action::deliver(),
    });

    let inv = Invariant::builder()
        .name("S reaches D")
        .packet_space(PacketSpace::DstPrefix(prefix))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* D").unwrap().loop_free(),
        ))
        .build()
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    assert!(session.report().holds());

    // A's own view: counts from each of its DPVNet neighbors.
    let show_counts = |session: &mut Session, dev, label: &str| {
        let v = session.verifier_mut(dev).unwrap();
        for node in v.node_ids() {
            for (_, counts) in v.node_result(node).iter() {
                println!(
                    "  {label} ({}): deliverable copies {counts}",
                    cp.dpvnet.node(node).label
                );
            }
        }
    };
    println!("before the failure:");
    show_counts(&mut session, a, "A");
    show_counts(&mut session, b, "B");
    show_counts(&mut session, w, "W");

    // B blackholes the prefix. DVM pushes B's count drop to A within one
    // message — A now *locally* knows its primary path is dead while W
    // still delivers.
    let blackhole = RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 99,
            matches: MatchSpec::dst(prefix),
            action: Action::Drop,
        },
    };
    session
        .apply_event(&RuntimeEvent::Batch(vec![blackhole]))
        .unwrap();
    println!(
        "\nafter B blackholes (invariant holds = {}):",
        session.report().holds()
    );
    show_counts(&mut session, a, "A");
    show_counts(&mut session, b, "B");
    show_counts(&mut session, w, "W");
    assert!(!session.report().holds());

    // The local routing service on A reads its neighbors' counts and
    // re-pins to the neighbor that still delivers — W.
    let b_count: Vec<_> = {
        let v = session.verifier_mut(b).unwrap();
        let nodes = v.node_ids();
        nodes
            .iter()
            .flat_map(|n| v.node_result(*n).to_vec())
            .map(|(_, c)| c)
            .collect()
    };
    assert!(b_count.iter().all(|c| c.is_zero()), "B no longer delivers");
    println!("\nA re-pins its route to W (local decision, no controller):");
    let reroute = RuleUpdate::Insert {
        device: a,
        rule: Rule {
            priority: 99,
            matches: MatchSpec::dst(prefix),
            action: Action::fwd(w),
        },
    };
    session
        .apply_event(&RuntimeEvent::Batch(vec![reroute]))
        .unwrap();
    println!("invariant holds = {}", session.report().holds());
    assert!(session.report().holds());
}
