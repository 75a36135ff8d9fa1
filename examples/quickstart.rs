//! Quickstart: verify the paper's running example (Figure 2) end to end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds the 5-device network of Fig. 2a, specifies the waypoint
//! invariant of Fig. 2b, plans it into a DPVNet, runs the distributed
//! counting to quiescence, prints the verdict, then applies the
//! incremental rule update of §2.2.3 and shows the violation disappear.

use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::verify::Session;
use tulkun::prelude::*;

fn main() {
    // The example network and data plane of Fig. 2a.
    let net = tulkun::datasets::fig2a_network();
    println!("network: {}", net.topology);

    // Fig. 2b: packets to 10.0.0.0/23 entering at S must reach D via a
    // simple path through the waypoint W — in every universe.
    let invariant = Invariant::builder()
        .name("fig2b waypoint")
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* W .* D").unwrap().loop_free(),
        ))
        .build()
        .unwrap();

    // The same invariant in the textual surface syntax:
    let textual =
        Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))")
            .unwrap();
    assert_eq!(textual.behavior, invariant.behavior);

    // Plan: invariant × topology → DPVNet → per-device counting tasks.
    let plan = Planner::new(&net.topology).plan(&invariant).unwrap();
    let cp = plan.counting().unwrap();
    println!(
        "DPVNet: {} nodes, {} valid paths, {} on-device tasks",
        cp.dpvnet.num_nodes(),
        cp.dpvnet.num_paths(),
        cp.tasks.len()
    );
    println!("{}", cp.dpvnet.to_dot(&net.topology));

    // Run the on-device verifiers to quiescence.
    let mut session = Session::new(&net, &plan);
    let messages = session.run_to_quiescence().messages;
    let report = session.report();
    println!("burst: {messages} DVM messages, holds = {}", report.holds());
    for v in &report.violations {
        println!(
            "  violation at {} ({}): counts {:?}",
            net.topology.name(v.device),
            cp.dpvnet.node(v.node).label,
            v.kind
        );
    }
    assert!(
        !report.holds(),
        "Fig. 2a violates the waypoint invariant (P3 may skip W)"
    );

    // §2.2.3: B reroutes 10.0.1.0/24 toward W. The network re-verifies
    // incrementally — only affected devices recount.
    let b = net.topology.expect_device("B");
    let w = net.topology.expect_device("W");
    let update = tulkun::netmodel::network::RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 50,
            matches: tulkun::netmodel::fib::MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
            action: Action::fwd(w),
        },
    };
    let incr_messages = session
        .apply_event(&RuntimeEvent::Batch(vec![update]))
        .unwrap()
        .messages;
    let report = session.report();
    println!(
        "after update: {incr_messages} DVM messages, holds = {}",
        report.holds()
    );
    assert!(report.holds());
    println!("ok: the violation is repaired and verified distributively");
}
