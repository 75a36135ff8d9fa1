//! Fault-tolerance integration (§6 / Figure 8): a declared fault scene
//! reaches the verifiers as topology events through the epoch fence.
//! Every single-link scene of the example network must give the verdict
//! of planning the failed topology from scratch, the link's return must
//! give back the base verdict, and a second walk over the scenes is
//! answered by the scene tables without one planner call.

use tulkun::core::churn::{ChurnSchedule, TopologyEvent};
use tulkun::core::count::CountExpr;
use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::explain::{device_verdict, explain, Explanation, Subject};
use tulkun::core::fault::{build_ft_dpvnet, expand_fault_spec, subtopology, FaultScene, FtDpvNet};
use tulkun::core::spec::FaultSpec;
use tulkun::prelude::*;
use tulkun::sim::{Engine, EngineConfig, Telemetry, TelemetryConfig};
use tulkun::telemetry::JournalKind;

fn ft_invariant(faults: FaultSpec, shortest_plus: i32) -> Invariant {
    Invariant::builder()
        .name("ft reachability")
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* D")
                .unwrap()
                .loop_free()
                .shortest_plus(shortest_plus),
        ))
        .fault_scenes(faults)
        .build()
        .unwrap()
}

/// The fault-tolerant DPVNet of `inv` over its declared scenes.
fn ft_dpvnet(net: &Network, inv: &Invariant) -> FtDpvNet {
    let topo = &net.topology;
    let scenes = expand_fault_spec(topo, &inv.fault_scenes, 10_000).unwrap();
    let exprs: Vec<PathExpr> = inv.behavior.path_exprs().into_iter().cloned().collect();
    let ingress = [topo.expect_device("S")];
    build_ft_dpvnet(topo, &ingress, &exprs, &scenes, 100_000).unwrap()
}

/// Fresh verdict for one scene: plan the failed topology from scratch
/// and run it over the same FIBs (a forward over a removed link has no
/// DPVNet edge to count along). `None` when the scene leaves no valid
/// path to count.
fn fresh_verdict(net: &Network, inv: &Invariant, scene: &FaultScene) -> Option<bool> {
    let sub = subtopology(&net.topology, scene);
    let plan = Planner::new(&sub).plan(inv).ok()?;
    if plan.counting()?.tasks.is_empty() {
        return None;
    }
    let mut sub_net = Network::new(sub);
    sub_net.fibs = net.fibs.clone();
    Some(verify_snapshot(&sub_net, &plan).holds())
}

#[test]
fn online_recounting_matches_fresh_planning_per_scene() {
    let net = tulkun::datasets::fig2a_network();
    let topo = &net.topology;
    let inv = ft_invariant(FaultSpec::AnyK(1), 1);
    let plan = Planner::new(topo).plan(&inv).unwrap();
    let tel = Telemetry::new(TelemetryConfig::enabled());
    let cfg = EngineConfig {
        telemetry: tel.clone(),
        ..EngineConfig::default()
    };
    let mut sim = Engine::new(&net, plan.counting().unwrap(), &inv.packet_space, cfg);
    sim.burst();
    let base = sim.report();
    assert!(base.holds());
    let event = |event| RuntimeEvent::Topology {
        event,
        base: topo.clone(),
        invariant: inv.clone(),
    };
    let work = || {
        let counters = tel.metrics().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        let calls = count("tulkun_planner_calls_total");
        (calls, count("tulkun_plan_table_hits_total"))
    };
    let scenes = expand_fault_spec(topo, &inv.fault_scenes, 10_000).unwrap();

    // One walk over the declared scenes, one event at a time: the scene
    // goes down, then comes back up. Returns the scenes the live path
    // refused, the events issued, and the planner calls and table hits
    // they cost.
    let mut walk = || {
        let (before, mut events, mut refused) = (work(), 0, Vec::new());
        for scene in &scenes[1..] {
            let &[(x, y)] = scene.0.as_slice() else {
                panic!("AnyK(1) declares single links: {scene:?}");
            };
            let epoch = sim.epoch();
            events += 1;
            match sim.apply_event(&event(TopologyEvent::LinkDown(x, y))) {
                Ok(_) => {
                    let online = sim.report().holds();
                    let fresh = fresh_verdict(&net, &inv, scene);
                    assert_eq!(Some(online), fresh, "{scene:?}: online != fresh planning");
                    events += 1;
                    sim.apply_event(&event(TopologyEvent::LinkUp(x, y)))
                        .unwrap();
                    let back = sim.report().canonical_bytes();
                    assert_eq!(back, base.canonical_bytes(), "{scene:?} came back wrong");
                }
                Err(e) => {
                    assert_eq!(fresh_verdict(&net, &inv, scene), None, "{scene:?}: {e}");
                    assert_eq!(sim.epoch(), epoch, "a refused scene burns no epoch");
                    refused.push(scene.clone());
                }
            }
        }
        let after = work();
        (refused, events, after.0 - before.0, after.1 - before.1)
    };

    let (refused, events, calls, _) = walk();
    assert!(calls > 0, "the first walk plans what it has not seen");
    // S–A is the only cut link for S→D, and the live path refuses
    // exactly the scenes the fault-tolerant DPVNet finds intolerable.
    let (s, a) = (topo.expect_device("S"), topo.expect_device("A"));
    assert_eq!(refused, [FaultScene::new([(s, a)])]);
    let ft = ft_dpvnet(&net, &inv);
    let intolerable: Vec<_> = ft
        .intolerable
        .iter()
        .map(|&i| ft.scenes[i].clone())
        .collect();
    assert_eq!(refused, intolerable);

    assert_eq!(
        walk(),
        (refused, events, 0, events),
        "the second walk is all table hits"
    );
}

#[test]
fn intolerable_scenes_are_identified() {
    let net = tulkun::datasets::fig2a_network();
    let ft = ft_dpvnet(&net, &ft_invariant(FaultSpec::AnyK(1), 1));
    // S–A is the only cut link for S→D: exactly its scene is intolerable
    // among single-failure scenes.
    let s = net.topology.expect_device("S");
    let a = net.topology.expect_device("A");
    let cut = FaultScene::new([(s, a)]);
    let idx = ft.scenes.iter().position(|sc| *sc == cut).unwrap();
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
    let inv = ft_invariant(FaultSpec::AnyK(2), 0);
    let ft = ft_dpvnet(&net, &inv);
    let pe = inv.behavior.path_exprs()[0].clone();
    let ingress = [net.topology.expect_device("S")];
    let base = DpvNet::build(&net.topology, &ingress, std::slice::from_ref(&pe)).unwrap();
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
