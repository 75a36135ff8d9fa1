//! Predicate-backend equivalence: every on-device LEC encoding must
//! produce *byte-identical* Reports on every substrate, with and
//! without management-network loss. The backend changes how fast the
//! hot path runs, never what goes on the wire — `PortablePred` bytes
//! are a pure function of the packet set — so swapping encodings can
//! never change a verdict.
//!
//! Matrix: backend {deltanet, intervals} x substrate {event sim,
//! faulty event sim, threaded run} x loss {0%, 10%}, on one WAN
//! destination's counting session over tiny INet2 with a 24-update
//! churn trace applied in bursts of 8.

use tulkun::core::fault::FaultProfile;
use tulkun::core::planner::Planner;
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;
use tulkun::sim::{BackendKind, Engine, EngineConfig, LecCache, ThreadedEngine};

const BURST: usize = 8;

fn inet2_setup() -> (
    Network,
    Invariant,
    tulkun::core::planner::CountingPlan,
    Vec<RuleUpdate>,
) {
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let net = ds.network.clone();
    let topo = &net.topology;
    let (dst, prefix) = topo.external_map().next().unwrap();
    let dst_name = topo.name(dst).to_string();
    let ingress: Vec<String> = topo
        .devices()
        .filter(|d| *d != dst)
        .map(|d| topo.name(d).to_string())
        .collect();
    let inv = Invariant::builder()
        .packet_space(PacketSpace::DstPrefix(prefix))
        .ingress(ingress)
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse(&format!(". * {dst_name}"))
                .unwrap()
                .loop_free(),
        ))
        .build()
        .unwrap();
    let plan = Planner::new(topo).plan(&inv).unwrap();
    let cp = plan.counting().unwrap().clone();
    let trace = tulkun::datasets::rule_updates(&net, 24, 7);
    (net, inv, cp, trace)
}

fn sim_cfg(backend: BackendKind) -> EngineConfig {
    EngineConfig {
        backend,
        ..EngineConfig::default()
    }
}

/// The non-reference backends under test.
const BACKENDS: [BackendKind; 2] = [BackendKind::DeltaNet, BackendKind::Intervals];

#[test]
fn backends_agree_on_the_event_simulator() {
    let (net, inv, cp, trace) = inet2_setup();
    let run = |backend| {
        let mut sim = Engine::new(&net, &cp, &inv.packet_space, sim_cfg(backend));
        sim.burst();
        for chunk in trace.chunks(BURST) {
            sim.apply_batch(chunk);
        }
        sim.report().canonical_bytes()
    };
    let reference = run(BackendKind::Bdd);
    for backend in BACKENDS {
        assert_eq!(
            run(backend),
            reference,
            "{backend} diverged from bdd on the event simulator"
        );
    }
}

#[test]
fn backends_agree_under_loss() {
    let (net, inv, cp, trace) = inet2_setup();
    let run = |backend, loss| {
        let mut sim = Engine::lossy(
            &net,
            &cp,
            &inv.packet_space,
            sim_cfg(backend),
            FaultProfile::loss(23, loss),
        );
        sim.burst();
        for chunk in trace.chunks(BURST) {
            sim.apply_batch(chunk);
        }
        sim.report().canonical_bytes()
    };
    let reference = run(BackendKind::Bdd, 0.0);
    for backend in BACKENDS {
        for loss in [0.0, 0.10] {
            assert_eq!(
                run(backend, loss),
                reference,
                "{backend} diverged from bdd at {:.0}% loss",
                loss * 100.0
            );
        }
    }
}

#[test]
fn backends_agree_on_the_threaded_runner() {
    let (net, inv, cp, trace) = inet2_setup();
    let run = |backend| {
        let ecfg = EngineConfig {
            backend,
            ..EngineConfig::default()
        };
        let cache = LecCache::new();
        let mut run = ThreadedEngine::spawn_with(&net, &cp, &inv.packet_space, &ecfg, &cache);
        run.wait_quiescent();
        for u in &trace {
            run.stage_batch(std::slice::from_ref(u));
        }
        run.wait_quiescent();
        let report = run.report().canonical_bytes();
        run.shutdown().expect("device task panicked");
        report
    };
    let reference = run(BackendKind::Bdd);
    for backend in BACKENDS {
        assert_eq!(
            run(backend),
            reference,
            "{backend} diverged from bdd on the threaded runner"
        );
    }
}
