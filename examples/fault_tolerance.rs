//! Fault-tolerant verification (§6): a failed link is a topology event.
//! The control plane fences the on-device verifiers onto the surviving
//! DPVNet and they recount. The planner runs the first time a scene is
//! seen; after that the scene table answers.
//!
//! ```sh
//! cargo run --example fault_tolerance
//! ```

use tulkun::core::churn::TopologyEvent;
use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::spec::FaultSpec;
use tulkun::prelude::*;
use tulkun::sim::{Engine, EngineConfig, Telemetry, TelemetryConfig};

fn main() {
    let net = tulkun::datasets::fig2a_network();
    let topo = &net.topology;

    // (<= shortest+1) reachability S → D that must survive any two link
    // failures — the invariant of the paper's Figure 8.
    let inv = Invariant::builder()
        .name("2-fault-tolerant reachability")
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* D")
                .unwrap()
                .loop_free()
                .shortest_plus(1),
        ))
        .fault_scenes(FaultSpec::AnyK(2))
        .build()
        .unwrap();

    // Burst-verify the intact network.
    let plan = Planner::new(topo).plan(&inv).unwrap();
    let tel = Telemetry::new(TelemetryConfig::enabled());
    let cfg = EngineConfig {
        telemetry: tel.clone(),
        ..EngineConfig::default()
    };
    let mut sim = Engine::new(&net, plan.counting().unwrap(), &inv.packet_space, cfg);
    sim.run_to_quiescence();
    println!("no failures: holds = {}", sim.report().holds());
    assert!(sim.report().holds());

    let b = topo.expect_device("B");
    let d = topo.expect_device("D");
    let w = topo.expect_device("W");
    let link = |event| RuntimeEvent::Topology {
        event,
        base: topo.clone(),
        invariant: inv.clone(),
    };
    let planner_calls = || {
        let counters = tel.metrics().counters;
        counters
            .get("tulkun_planner_calls_total")
            .copied()
            .unwrap_or(0)
    };

    // Fail link B–D: the verifiers are fenced onto the surviving
    // subgraph and recount. The FIBs have NOT been repaired yet, so the
    // copies B still pushes over the dead link are lost, and the
    // recount flags it.
    let r = sim
        .apply_event(&link(TopologyEvent::LinkDown(b, d)))
        .unwrap();
    println!(
        "B–D down, routes not yet repaired: recounted in {} messages, holds = {}",
        r.messages,
        sim.report().holds()
    );
    assert!(
        !sim.report().holds(),
        "B still forwards into the dead link; the recount must flag it"
    );

    // The control plane repairs B's route (B → W instead of B → D); the
    // verifiers re-verify the repair incrementally.
    let repair = tulkun::netmodel::network::RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 120,
            matches: tulkun::netmodel::fib::MatchSpec::dst("10.0.0.0/23".parse().unwrap()),
            action: Action::fwd(w),
        },
    };
    sim.apply_event(&RuntimeEvent::Batch(vec![repair])).unwrap();
    println!(
        "after the control plane reroutes B via W: holds = {}",
        sim.report().holds()
    );
    assert!(sim.report().holds());

    // B–D comes back up.
    sim.apply_event(&link(TopologyEvent::LinkUp(b, d))).unwrap();
    assert!(sim.report().holds());

    // A second flap revisits two scenes the intent has been planned on:
    // its scene table answers both, and the planner is not called.
    let calls = planner_calls();
    for event in [TopologyEvent::LinkDown(b, d), TopologyEvent::LinkUp(b, d)] {
        sim.apply_event(&link(event)).unwrap();
        assert!(sim.report().holds());
    }
    assert_eq!(planner_calls(), calls, "a revisited scene is a table hit");
    println!("second B–D flap: +0 planner calls, holds = true");
}
