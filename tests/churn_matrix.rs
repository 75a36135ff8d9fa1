//! The `ci.sh churn-matrix` gate: substrate equivalence under live
//! topology churn.
//!
//! Random interleavings of churn events (seeded link schedules plus
//! device down/up), message loss in {0%, 10%}, and mid-sequence
//! `crash_restart` are driven simultaneously against the event
//! simulator ([`tulkun::sim::Engine::new`]), the lossy event simulator
//! ([`tulkun::sim::Engine::lossy`]) and the per-device-thread runner
//! ([`tulkun::sim::ThreadedEngine`]). After every interleaving the
//! epoch-final Reports must be *byte-identical* across substrates and
//! — for the reachable portion of the network — identical to a fresh
//! plan of the post-churn topology. Any divergence is a protocol bug
//! in the epoch fence, the incremental re-planner, or the reliability
//! layer.
//!
//! Run via `./ci.sh churn-matrix` (a release-mode invocation of this
//! file); the same tests also run in the plain workspace test pass.

use proptest::prelude::*;
use tulkun::core::churn::{ChurnSchedule, ChurnState, TopologyEvent};
use tulkun::core::fault::FaultProfile;
use tulkun::core::planner::Planner;
use tulkun::prelude::*;
use tulkun::sim::{Engine, EngineConfig, ThreadedEngine};

/// The fixed CI seed matrix (same as `fault_matrix`).
const SEEDS: [u64; 4] = [1, 7, 23, 101];
/// The loss rates of the churn acceptance criterion.
const LOSS_RATES: [f64; 2] = [0.0, 0.10];

fn fig2_setup() -> (Network, Invariant) {
    let net = tulkun::datasets::fig2a_network();
    let inv = Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))")
        .unwrap();
    (net, inv)
}

/// One step of an interleaving: a topology churn event or a device
/// crash/restart between events.
#[derive(Debug, Clone)]
enum Op {
    Churn(TopologyEvent),
    Crash(DeviceId),
}

/// Builds the op sequence for one case: the seeded link schedule,
/// optionally a device-down/up pair around the midpoint, and a
/// crash/restart of W spliced in at `crash_pos`.
fn build_ops(
    net: &Network,
    inv: &Invariant,
    schedule_seed: u64,
    events: usize,
    device_churn: bool,
    crash_pos: usize,
) -> Vec<Op> {
    let schedule = ChurnSchedule::seeded(&net.topology, inv, schedule_seed, events);
    let mut ops: Vec<Op> = schedule.0.into_iter().map(Op::Churn).collect();
    if device_churn {
        let b = net.topology.expect_device("B");
        let at = ops.len() / 2;
        ops.insert(at, Op::Churn(TopologyEvent::DeviceDown(b)));
        ops.push(Op::Churn(TopologyEvent::DeviceUp(b)));
    }
    let w = net.topology.expect_device("W");
    ops.insert(crash_pos.min(ops.len()), Op::Crash(w));
    ops
}

/// Report bytes from a fresh plan + burst of the post-churn topology —
/// the ground truth the churned engines must converge to.
fn fresh_report_bytes(net: &Network, inv: &Invariant, churn: &ChurnState) -> Option<Vec<u8>> {
    let topo = churn.apply_to(&net.topology);
    let post = Network {
        topology: topo,
        fibs: net.fibs.clone(),
        layout: net.layout,
    };
    let plan = Planner::new(&post.topology).plan(inv).ok()?;
    let cp = plan.counting()?.clone();
    let mut sim = Engine::new(&post, &cp, &inv.packet_space, EngineConfig::default());
    sim.burst();
    Some(sim.report().canonical_bytes())
}

/// Drives one op sequence through all three substrates in lockstep,
/// asserting equal accept/reject per event, byte-identical Reports
/// after every op, and an epoch-final Report equal to a fresh plan of
/// the post-churn topology.
fn drive_interleaving(net: &Network, inv: &Invariant, ops: &[Op], loss: f64, seed: u64) {
    let plan = Planner::new(&net.topology).plan(inv).unwrap();
    let cp = plan.counting().unwrap().clone();

    let mut clean = Engine::new(net, &cp, &inv.packet_space, EngineConfig::default());
    clean.burst();
    let mut lossy = Engine::lossy(
        net,
        &cp,
        &inv.packet_space,
        EngineConfig::default(),
        FaultProfile::loss(seed, loss),
    );
    lossy.burst();
    let mut threaded = ThreadedEngine::spawn(net, &cp, &inv.packet_space);
    threaded.wait_quiescent();

    let mut churn = ChurnState::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Churn(ev) => {
                let a = clean.apply_topology_event(ev, &net.topology, inv);
                let b = lossy.apply_topology_event(ev, &net.topology, inv);
                let c = threaded.apply_topology_event(ev, &net.topology, inv);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "clean/lossy accept divergence at op {i} ({ev:?}, seed {seed}, loss {loss})"
                );
                assert_eq!(
                    a.is_ok(),
                    c.is_ok(),
                    "clean/threaded accept divergence at op {i} ({ev:?}, seed {seed}, loss {loss})"
                );
                if a.is_ok() {
                    churn.apply(ev);
                }
            }
            Op::Crash(dev) => {
                if churn.is_down(*dev) {
                    continue; // a quarantined agent has nothing to crash
                }
                clean.crash_restart(*dev);
                lossy.crash_restart(*dev);
                threaded.crash_restart(*dev);
            }
        }
        assert_eq!(clean.epoch(), lossy.epoch(), "epoch skew at op {i}");
        assert_eq!(clean.epoch(), threaded.epoch(), "epoch skew at op {i}");
        let rc = clean.report().canonical_bytes();
        assert_eq!(
            rc,
            lossy.report().canonical_bytes(),
            "clean/lossy Report diverged at op {i} (seed {seed}, loss {loss})"
        );
        assert_eq!(
            rc,
            threaded.report().canonical_bytes(),
            "clean/threaded Report diverged at op {i} (seed {seed}, loss {loss})"
        );
    }

    // Epoch-final: the churned engines must agree with a fresh plan of
    // the post-churn topology (reachable portion of the network).
    if let Some(fresh) = fresh_report_bytes(net, inv, &churn) {
        assert_eq!(
            clean.report().canonical_bytes(),
            fresh,
            "epoch-final Report diverged from fresh post-churn plan (seed {seed}, loss {loss})"
        );
    }
    threaded.shutdown().expect("clean shutdown");
}

#[test]
fn seed_matrix_churn_under_loss_and_crash_stays_byte_identical() {
    let (net, inv) = fig2_setup();
    for seed in SEEDS {
        for loss in LOSS_RATES {
            let ops = build_ops(&net, &inv, seed, 3, true, 1);
            drive_interleaving(&net, &inv, &ops, loss, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_interleavings_keep_substrates_byte_identical(
        (schedule_seed, events, loss_idx, device_churn, crash_pos) in
            (1u64..512, 1usize..5, 0usize..2, any::<bool>(), 0usize..6)
    ) {
        let (net, inv) = fig2_setup();
        let ops = build_ops(&net, &inv, schedule_seed, events, device_churn, crash_pos);
        prop_assert!(!ops.is_empty(), "empty interleaving");
        drive_interleaving(&net, &inv, &ops, LOSS_RATES[loss_idx], schedule_seed);
    }
}
