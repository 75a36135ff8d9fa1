//! Cross-substrate equivalence: every execution substrate the runtime
//! layer hosts must produce the *same verdict, byte for byte* for the
//! Figure 2a waypoint workflow — before and after the repair update.
//!
//! Substrates compared against the reference `Session`:
//! * `Engine` over `FifoTransport` — reference delivery order on the
//!   shared engine loop,
//! * `Engine` — discrete-event simulator (latency heap + virtual clock),
//! * `ThreadedEngine` — one OS thread per device, channel transport.
//!
//! The local-contract substrate cannot express the waypoint counting
//! invariant (it needs DVM counting), so a second test pins the local
//! path against `verify_snapshot` on a plan where it applies.

use tulkun::core::planner::Planner;
use tulkun::core::verify::Session;
use tulkun::netmodel::fib::MatchSpec;
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;
use tulkun::sim::runtime::FifoTransport;
use tulkun::sim::{Engine, EngineConfig, LecCache, ThreadedEngine};

fn fig2_setup() -> (Network, Invariant, RuleUpdate) {
    let net = tulkun::datasets::fig2a_network();
    let inv = Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))")
        .unwrap();
    let b = net.topology.expect_device("B");
    let w = net.topology.expect_device("W");
    let update = RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 50,
            matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
            action: Action::fwd(w),
        },
    };
    (net, inv, update)
}

#[test]
fn all_substrates_agree_byte_for_byte() {
    let (net, inv, update) = fig2_setup();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();

    // Reference: the core DVM session.
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    let ref_before = session.report().canonical_bytes();
    session.apply_rule_update(&update);
    let ref_after = session.report().canonical_bytes();
    assert_ne!(ref_before, ref_after, "repair update must change verdict");

    // Engine over the reference FIFO transport.
    let (cfg, cache) = (EngineConfig::default(), LecCache::new());
    let fifo = Box::<FifoTransport>::default();
    let mut engine = Engine::over(&net, cp, &inv.packet_space, &cfg, &cache, fifo);
    engine.burst();
    assert_eq!(
        engine.report().canonical_bytes(),
        ref_before,
        "fifo engine, burst"
    );
    engine.incremental(&update);
    assert_eq!(
        engine.report().canonical_bytes(),
        ref_after,
        "fifo engine, update"
    );

    // Discrete-event simulator (latency-ordered delivery, virtual time).
    let mut sim = Engine::new(&net, cp, &inv.packet_space, EngineConfig::default());
    sim.burst();
    assert_eq!(
        sim.report().canonical_bytes(),
        ref_before,
        "event sim, burst"
    );
    sim.incremental(&update);
    assert_eq!(
        sim.report().canonical_bytes(),
        ref_after,
        "event sim, update"
    );

    // Threaded runner: real concurrency, nondeterministic interleaving —
    // the verdict must still converge to the same bytes.
    let mut run = ThreadedEngine::spawn(&net, cp, &inv.packet_space);
    run.wait_quiescent();
    assert_eq!(
        run.report().canonical_bytes(),
        ref_before,
        "threaded, burst"
    );
    run.incremental(&update);
    assert_eq!(
        run.report().canonical_bytes(),
        ref_after,
        "threaded, update"
    );
    run.shutdown().expect("clean shutdown");
}

#[test]
fn local_contract_substrate_agrees_where_applicable() {
    use tulkun::core::spec::table1;
    use tulkun::sim::localsim::LocalSim;
    use tulkun::sim::models::SwitchModel;

    let d = tulkun::datasets::by_name("FT-48", tulkun::datasets::Scale::Tiny).unwrap();
    let (dst, prefix) = d.network.topology.external_map().next().unwrap();
    let dst_name = d.network.topology.name(dst).to_string();
    let src = d
        .network
        .topology
        .devices()
        .find(|x| d.network.topology.name(*x).starts_with("tor") && *x != dst)
        .unwrap();
    let src_name = d.network.topology.name(src).to_string();
    let inv =
        table1::all_shortest_path(PacketSpace::DstPrefix(prefix), &src_name, &dst_name).unwrap();
    let plan = Planner::new(&d.network.topology).plan(&inv).unwrap();
    let lp = plan
        .local()
        .expect("shortest-path plan lowers to local contracts");

    let reference = verify_snapshot(&d.network, &plan);
    let mut sim = LocalSim::new(
        &d.network,
        lp,
        &plan.invariant.packet_space,
        SwitchModel::MELLANOX,
    );
    let r = sim.burst();
    assert_eq!(r.violations.is_empty(), reference.holds());
    assert_eq!(r.violations.len(), reference.violations.len());
}
