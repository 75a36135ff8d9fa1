//! Cross-crate integration: the Figure 2 workflow through the facade
//! crate (datasets → spec → planner → DVM session → verdict).

use tulkun::core::verify::Session;
use tulkun::netmodel::fib::MatchSpec;
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;

#[test]
fn fig2_full_workflow() {
    let net = tulkun::datasets::fig2a_network();
    let inv = Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))")
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let report = verify_snapshot(&net, &plan);
    assert!(!report.holds());
    assert_eq!(report.violations.len(), 1);

    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    let b = net.topology.expect_device("B");
    let w = net.topology.expect_device("W");
    session.apply_rule_update(&RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 50,
            matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
            action: Action::fwd(w),
        },
    });
    assert!(session.report().holds());
}

#[test]
fn textual_and_builder_specs_agree() {
    let net = tulkun::datasets::fig2a_network();
    let textual = Invariant::parse(
        "(dstIP=10.0.1.0/24 && dstPort=80, [S], (exist >= 1, /S .* W .* D/ loop_free))",
    )
    .unwrap();
    let built = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.0.1.0/24").and(PacketSpace::dst_port(80)))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* W .* D").unwrap().loop_free(),
        ))
        .build()
        .unwrap();
    let pa = Planner::new(&net.topology).plan(&textual).unwrap();
    let pb = Planner::new(&net.topology).plan(&built).unwrap();
    // Scoped to P3 only, both detect the violation.
    let ra = verify_snapshot(&net, &pa);
    let rb = verify_snapshot(&net, &pb);
    assert!(!ra.holds() && !rb.holds());
    assert_eq!(ra.violations.len(), rb.violations.len());
}

#[test]
fn quickstart_docs_flow() {
    // The README quickstart, kept honest.
    let net = tulkun::datasets::fig2a_network();
    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* W .* D").unwrap().loop_free(),
        ))
        .build()
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let report = verify_snapshot(&net, &plan);
    assert!(!report.holds());
}

/// On Figure 2a, `exist >= 1` over `S D` has no valid path (S and D are
/// not adjacent). It never lands as an empty slice that reports
/// `holds`: on `Session` and `Engine` alike the re-planner refuses it
/// on a quiet network, parks it while a link is down, and refuses it
/// again once an A–W flap has returned to the same topology.
#[test]
fn an_intent_with_no_valid_path_is_refused_quiet_and_parked_under_churn() {
    use tulkun::core::churn::TopologyEvent;
    use tulkun::core::event::{RuntimeEvent, Substrate};
    use tulkun::sim::{Engine, EngineConfig};

    let net = tulkun::datasets::fig2a_network();
    let base = Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))")
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&base).unwrap();
    let install = RuntimeEvent::InstallIntent {
        name: "s-d".into(),
        invariant: Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S D/))").unwrap(),
    };
    let (a, w) = (
        net.topology.expect_device("A"),
        net.topology.expect_device("W"),
    );
    let link = |event| RuntimeEvent::Topology {
        event,
        base: net.topology.clone(),
        invariant: base.clone(),
    };
    let script = |s: &mut dyn Substrate| {
        let refused = |s: &mut dyn Substrate| {
            let e = s
                .apply_event(&install)
                .expect_err("no valid path, no install");
            assert!(e.to_string().contains("slice has no DPVNet nodes"), "{e}");
        };
        refused(s);
        s.apply_event(&link(TopologyEvent::LinkDown(a, w))).unwrap();
        assert!(s.apply_event(&install).unwrap().parked);
        s.apply_event(&link(TopologyEvent::LinkUp(a, w))).unwrap();
        refused(s);
    };

    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    script(&mut session);
    let cp = plan.counting().unwrap();
    let mut engine = Engine::new(&net, cp, &base.packet_space, EngineConfig::default());
    engine.burst();
    script(&mut engine);
    // The parked install is still waiting; only the base intent is live.
    assert_eq!(
        (session.intents().len(), session.intents().parked_count()),
        (1, 1)
    );
    assert_eq!(
        (engine.intents().len(), engine.intents().parked_count()),
        (1, 1)
    );
    assert_eq!(
        session.report().canonical_bytes(),
        engine.report().canonical_bytes()
    );
}

/// A session has one base: a topology event naming another base
/// topology, or — once the base intent has recorded its own — another
/// invariant, is refused alike by `Session`, `Engine` and
/// `ThreadedEngine`, burns no epoch and leaves the Report as it was,
/// while the same events naming the session's base are taken.
#[test]
fn an_event_naming_another_base_is_refused_on_every_substrate() {
    use tulkun::core::churn::TopologyEvent;
    use tulkun::core::event::{RuntimeEvent, Substrate};
    use tulkun::sim::{Engine, EngineConfig, ThreadedEngine};

    let net = tulkun::datasets::fig2a_network();
    let base = Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))")
        .unwrap();
    let other =
        Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* D/ loop_free))").unwrap();
    let plan = Planner::new(&net.topology).plan(&base).unwrap();
    let dev = |n: &str| net.topology.expect_device(n);
    let mut elsewhere = net.topology.clone();
    elsewhere.add_link(dev("S"), dev("D"), 1000);
    let (down, up) = (
        TopologyEvent::LinkDown(dev("B"), dev("D")),
        TopologyEvent::LinkUp(dev("B"), dev("D")),
    );
    let event =
        |event: &TopologyEvent, base: &Topology, invariant: &Invariant| RuntimeEvent::Topology {
            event: *event,
            base: base.clone(),
            invariant: invariant.clone(),
        };
    // Each refused event, and the event naming the session's base taken
    // after it.
    let script = [
        (
            event(&down, &elsewhere, &base),
            "base topology",
            event(&down, &net.topology, &base),
        ),
        (
            event(&up, &net.topology, &other),
            "base invariant",
            event(&up, &net.topology, &base),
        ),
    ];
    macro_rules! run {
        ($s:expr) => {{
            let s = $s;
            for (foreign, why, own) in &script {
                let before = (s.epoch(), s.report().canonical_bytes());
                let e = s.apply_event(foreign).expect_err("another base");
                assert!(e.to_string().contains(why), "{e}");
                assert_eq!((s.epoch(), s.report().canonical_bytes()), before, "{e}");
                s.apply_event(own).unwrap();
                assert_eq!(s.epoch(), before.0 + 1);
            }
            s.report().canonical_bytes()
        }};
    }

    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    let cp = plan.counting().unwrap();
    let mut engine = Engine::new(&net, cp, &base.packet_space, EngineConfig::default());
    engine.burst();
    let mut threaded = ThreadedEngine::spawn(&net, cp, &base.packet_space);
    threaded.wait_quiescent();
    let reports = [run!(&mut session), run!(&mut engine), run!(&mut threaded)];
    threaded.shutdown().expect("no device thread panicked");
    assert!(reports.iter().all(|r| *r == reports[0]));
}
