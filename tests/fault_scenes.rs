//! Fault-tolerance integration (§6 / Figure 8): online scene switching
//! must produce the same verdict as planning each failed topology from
//! scratch — for every single-link scene of the example network, and
//! for scene round-trips (fail → recover).

use tulkun::core::churn::{ChurnSchedule, TopologyEvent};
use tulkun::core::count::CountExpr;
use tulkun::core::explain::{device_verdict, explain, Explanation, Subject};
use tulkun::core::fault::{plan_fault_tolerant, subtopology, FaultScene};
use tulkun::core::planner::Planner;
use tulkun::core::spec::FaultSpec;
use tulkun::prelude::*;
use tulkun::sim::{Engine, EngineConfig, Telemetry, TelemetryConfig};
use tulkun::telemetry::JournalKind;

fn ft_invariant(net: &Network) -> Invariant {
    Invariant::builder()
        .name("ft reachability")
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* D")
                .unwrap()
                .loop_free()
                .shortest_plus(1),
        ))
        .fault_scenes(FaultSpec::AnyK(1))
        .build()
        .unwrap_or_else(|e| panic!("{e} for {net:?}"))
}

/// Fresh verdict for one scene: re-plan on the failed topology.
fn fresh_verdict(net: &Network, scene: &FaultScene) -> Option<bool> {
    let sub = subtopology(&net.topology, scene);
    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* D")
                .unwrap()
                .loop_free()
                .shortest_plus(1),
        ))
        .build()
        .unwrap();
    let planner = Planner::with_options(
        &sub,
        tulkun::core::planner::PlannerOptions {
            skip_consistency_check: true,
            ..Default::default()
        },
    );
    let plan = planner.plan(&inv).ok()?;
    // Use the same FIBs over the surviving topology; counting treats
    // forwards over removed links as escapes because the DPVNet has no
    // such edge.
    let mut sub_net = Network::new(sub);
    sub_net.fibs = net.fibs.clone();
    Some(verify_snapshot(&sub_net, &plan).holds())
}

#[test]
fn online_recounting_matches_fresh_planning_per_scene() {
    let net = tulkun::datasets::fig2a_network();
    let inv = ft_invariant(&net);
    let (plan, ft) = plan_fault_tolerant(&net.topology, &inv, 10_000, 100_000).unwrap();
    let mut sim = Engine::new(&net, &plan, &inv.packet_space, EngineConfig::default());
    sim.burst();
    let base_holds = sim.report().holds();
    assert!(base_holds);

    for (idx, scene) in ft.scenes.iter().enumerate().skip(1) {
        if ft.intolerable.contains(&idx) {
            continue; // no valid path at all: the planner alerts instead
        }
        sim.apply_scene(&ft.scene_tasks(idx), 1_000);
        let online = sim.report().holds();
        let fresh = fresh_verdict(&net, scene).expect("plan per scene");
        assert_eq!(
            online, fresh,
            "scene {scene:?}: online recount disagrees with fresh planning"
        );
        // Restore the base scene and confirm the verdict returns.
        sim.apply_scene(&ft.scene_tasks(0), 1_000);
        assert_eq!(
            sim.report().holds(),
            base_holds,
            "scene round-trip broke state"
        );
    }
}

#[test]
fn intolerable_scenes_are_identified() {
    let net = tulkun::datasets::fig2a_network();
    let inv = ft_invariant(&net);
    let (_, ft) = plan_fault_tolerant(&net.topology, &inv, 10_000, 100_000).unwrap();
    // S–A is the only cut link for S→D: exactly its scene is intolerable
    // among single-failure scenes.
    let s = net.topology.expect_device("S");
    let a = net.topology.expect_device("A");
    let idx = ft.scene_index(&FaultScene::new([(s, a)])).unwrap();
    assert!(ft.intolerable.contains(&idx));
    assert_eq!(
        ft.intolerable
            .iter()
            .filter(|&&i| ft.scenes[i].len() == 1)
            .count(),
        1,
        "only the S–A cut is intolerable under single failures"
    );
}

#[test]
fn symbolic_filter_widens_the_ft_dpvnet() {
    // With a symbolic `<= shortest` filter, a 2-link scene that
    // lengthens the shortest path (e.g. {A–B, W–D}: the only surviving
    // route is S,A,W,B,D with 4 hops) admits paths outside the
    // no-failure DPVNet — the union must be strictly larger.
    let net = tulkun::datasets::fig2a_network();
    let base_pe = PathExpr::parse("S .* D")
        .unwrap()
        .loop_free()
        .shortest_plus(0);
    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(CountExpr::ge(1), base_pe.clone()))
        .fault_scenes(FaultSpec::AnyK(2))
        .build()
        .unwrap();
    let (_, ft) = plan_fault_tolerant(&net.topology, &inv, 10_000, 100_000).unwrap();
    let base = tulkun::core::dpvnet::DpvNet::build(
        &net.topology,
        &[net.topology.expect_device("S")],
        std::slice::from_ref(&base_pe),
    )
    .unwrap();
    assert!(
        ft.dpvnet.num_paths() > base.num_paths(),
        "fault-tolerant union ({}) must exceed the base path set ({})",
        ft.dpvnet.num_paths(),
        base.num_paths()
    );
}

/// Runs the `tulkun explain` fault scene — seeded link-down + crash of
/// the affected device over a 10% lossy management network under the
/// deterministic lockstep clock — and returns the injected event, the
/// device it names, and the explanation for that device.
fn explain_scene(seed: u64) -> (TopologyEvent, tulkun::netmodel::DeviceId, Explanation) {
    use tulkun::core::fault::FaultProfile;

    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let net = &ds.network;
    let topo = &net.topology;
    let (inv, cp) = tulkun::daemon::dataset_session(net, "INet2").unwrap();
    let telemetry = Telemetry::new(TelemetryConfig::enabled());
    let cfg = EngineConfig {
        telemetry: telemetry.clone(),
        model: tulkun::sim::SwitchModel::LOCKSTEP,
        ..EngineConfig::default()
    };
    let mut sim = Engine::lossy(
        net,
        &cp,
        &inv.packet_space,
        cfg,
        FaultProfile::loss(seed, 0.10),
    );
    sim.burst();
    let schedule = ChurnSchedule::seeded(topo, &inv, seed, 8);
    let ev = *schedule
        .0
        .iter()
        .find(|e| matches!(e, TopologyEvent::LinkDown(..)))
        .expect("a plannable link-down in the seeded schedule");
    sim.apply_topology_event(&ev, topo, &inv).unwrap();
    let dev = ev.primary_device();
    sim.crash_restart(dev);
    let report = sim.report();
    let nodes: Vec<u32> = sim
        .intents()
        .global_tasks()
        .iter()
        .filter(|t| t.dev == dev)
        .map(|t| t.node.0)
        .collect();
    let verdict = device_verdict(&report, dev, &nodes);
    let x = explain(&telemetry.journal_events(), Subject::Device(dev), &verdict);
    (ev, dev, x)
}

/// Golden `explain` test: in the seeded fault scene (link-down under
/// 10% loss plus a crash/restart), the explain engine must name the
/// injected link-down as the top-ranked root cause — correct device,
/// epoch, and event kind — and render byte-identical JSON across
/// reruns. Held for two different seeds so the verdict is not an
/// artifact of one lucky schedule.
#[test]
fn explain_names_the_injected_root_cause() {
    for seed in [3u64, 11] {
        let (ev, dev, x) = explain_scene(seed);
        let (ev2, dev2, x2) = explain_scene(seed);
        assert_eq!(ev, ev2, "seed {seed}: scene not reproducible");
        assert_eq!(dev, dev2);
        assert_eq!(
            x.to_json(),
            x2.to_json(),
            "seed {seed}: explain JSON not byte-identical across reruns"
        );
        let root = x.causes.first().expect("a non-empty causal chain");
        assert_eq!(
            root.event.kind,
            JournalKind::TopologyChurn,
            "seed {seed}: root cause is not the injected churn event"
        );
        assert_eq!(
            root.event.device, dev,
            "seed {seed}: root cause names the wrong device"
        );
        assert_eq!(
            root.event.epoch, 1,
            "seed {seed}: the link-down fences epoch 0 -> 1"
        );
        assert_eq!(root.event.detail, ev.describe());
        // The crash/restart of the same device must appear in the
        // chain, outranked by the churn event.
        assert!(
            x.causes
                .iter()
                .any(|c| c.event.kind == JournalKind::CrashRestart && c.event.device == dev),
            "seed {seed}: the injected crash is missing from the chain"
        );
    }
}
