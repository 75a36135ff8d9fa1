//! Fault-tolerant verification (§6): precompute a fault-tolerant DPVNet
//! for 2-link-failure reachability, fail links, and watch the on-device
//! verifiers recount without contacting the planner.
//!
//! ```sh
//! cargo run --example fault_tolerance
//! ```

use tulkun::core::fault::{plan_fault_tolerant, FaultScene};
use tulkun::core::spec::FaultSpec;
use tulkun::prelude::*;
use tulkun::sim::{Engine, EngineConfig};

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

    let (plan, ft) = plan_fault_tolerant(topo, &inv, 10_000, 100_000).unwrap();
    println!(
        "fault-tolerant DPVNet: {} nodes, {} scenes ({} reused via Prop. 2), {} intolerable",
        ft.dpvnet.num_nodes(),
        ft.scenes.len(),
        ft.reused_scenes,
        ft.intolerable.len()
    );
    for &i in &ft.intolerable {
        let names: Vec<String> = ft.scenes[i]
            .0
            .iter()
            .map(|(a, b)| format!("{}–{}", topo.name(*a), topo.name(*b)))
            .collect();
        println!("  intolerable scene: {{{}}}", names.join(", "));
    }

    // Burst-verify the base scene.
    let mut sim = Engine::new(&net, &plan, &inv.packet_space, EngineConfig::default());
    sim.burst();
    println!("scene 0 (no failures): holds = {}", sim.report().holds());
    assert!(sim.report().holds());

    // Fail link B–D: verifiers flood the event, switch to the scene's
    // task view, and recount — with no planner involvement. The FIBs
    // have NOT been repaired yet, so the copies B used to push over the
    // dead link are lost and the verifiers catch it instantly.
    let b = topo.expect_device("B");
    let w = topo.expect_device("W");
    let scene = FaultScene::new([(b, topo.expect_device("D"))]);
    let idx = ft.scene_index(&scene).expect("pre-specified scene");
    let r = sim.apply_scene(&ft.scene_tasks(idx), 10_000);
    println!(
        "scene {{B–D}}, routes not yet repaired: recounted in {} messages, holds = {}",
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
    sim.incremental(&repair);
    println!(
        "after the control plane reroutes B via W: holds = {}",
        sim.report().holds()
    );
    assert!(sim.report().holds());

    // An unspecified 3-link scene is reported to the planner.
    let s = topo.expect_device("S");
    let a = topo.expect_device("A");
    let d = topo.expect_device("D");
    let wild = FaultScene::new([(b, d), (w, d), (s, a)]);
    assert!(ft.scene_index(&wild).is_none());
    println!("unspecified 3-link scene correctly routed to the planner");
}
