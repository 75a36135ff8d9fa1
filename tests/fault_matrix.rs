//! Substrate equivalence under injected message faults (part of the
//! `ci.sh equivalence` gate).
//!
//! With a fixed fault seed, the event simulator over a lossy management
//! network ([`tulkun::sim::Engine`]) must produce Reports
//! *byte-identical* to the perfect-channel reference — at every loss
//! rate in {0%, 1%, 10%}, for every seed in the matrix, before and
//! after the Figure 2a repair update. Retransmission makes loss
//! invisible to results; these tests fail on any divergence.
//!
//! Run via `./ci.sh equivalence` (a release-mode invocation of the
//! matrix files); the same tests also run in the plain workspace test
//! pass.

use tulkun::core::fault::FaultProfile;
use tulkun::core::planner::{CountingPlan, Planner};
use tulkun::netmodel::fib::MatchSpec;
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;
use tulkun::sim::{Engine, EngineConfig};

/// The fixed CI seed matrix.
const SEEDS: [u64; 4] = [1, 7, 23, 101];
/// The loss rates of the acceptance criterion.
const LOSS_RATES: [f64; 3] = [0.0, 0.01, 0.10];

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

/// Burst, then the repair update: the Reports before and after — one
/// body for a clean and a lossy engine alike.
fn drive(sim: &mut Engine, update: &RuleUpdate) -> (Vec<u8>, Vec<u8>) {
    sim.burst();
    let before = sim.report().canonical_bytes();
    sim.incremental(update);
    (before, sim.report().canonical_bytes())
}

/// Reference Reports (burst, post-update) over the perfect channel.
fn reference_reports(
    net: &Network,
    cp: &CountingPlan,
    inv: &Invariant,
    update: &RuleUpdate,
) -> (Vec<u8>, Vec<u8>) {
    let mut sim = Engine::new(net, cp, &inv.packet_space, EngineConfig::default());
    let (before, after) = drive(&mut sim, update);
    assert_ne!(before, after, "repair update must change the verdict");
    (before, after)
}

fn lossy(net: &Network, cp: &CountingPlan, inv: &Invariant, profile: FaultProfile) -> Engine {
    Engine::lossy(net, cp, &inv.packet_space, EngineConfig::default(), profile)
}

#[test]
fn seed_matrix_loss_rates_leave_reports_byte_identical() {
    let (net, inv, update) = fig2_setup();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();
    let reference = reference_reports(&net, cp, &inv, &update);

    let mut high_loss_drops = 0u64;
    for seed in SEEDS {
        for rate in LOSS_RATES {
            let mut sim = lossy(&net, cp, &inv, FaultProfile::loss(seed, rate));
            assert!(
                drive(&mut sim, &update) == reference,
                "burst or post-update Report diverged (seed {seed}, loss {rate})"
            );
            let f = sim.stats().fault;
            if rate == 0.0 {
                assert_eq!(f.drops, 0, "0% loss must drop nothing (seed {seed})");
                assert_eq!(f.retransmits, 0, "0% loss needs no retransmits");
            } else {
                assert!(
                    f.retransmits >= f.drops,
                    "every dropped envelope needs at least one retransmit"
                );
                if rate >= 0.10 {
                    high_loss_drops += f.drops;
                }
            }
        }
    }
    // The workload is small, so one unlucky seed may drop nothing —
    // but across the whole matrix, 10% loss must actually bite.
    assert!(
        high_loss_drops > 0,
        "10% loss dropped nothing across the entire seed matrix"
    );
}

#[test]
fn chaos_profile_reports_stay_byte_identical() {
    // Drops + duplicates + reorders + delays together, same matrix
    // seeds: the reliability layer must mask all four fault kinds.
    let (net, inv, update) = fig2_setup();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();
    let reference = reference_reports(&net, cp, &inv, &update);

    for seed in SEEDS {
        let mut sim = lossy(&net, cp, &inv, FaultProfile::chaos(seed));
        assert!(
            drive(&mut sim, &update) == reference,
            "chaos burst or post-update Report diverged (seed {seed})"
        );
    }
}

#[test]
fn crash_restart_under_loss_recovers_the_report() {
    // Device crash/restart on top of a lossy channel: the restarted
    // agent recounts from scratch, neighbors replay their durable
    // state, and the Report must land back on the pre-crash bytes. A
    // clean and a lossy engine are one type: both sit in one `Vec` and
    // run through one loop body, to byte-equal Reports at every step.
    let (net, inv, update) = fig2_setup();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();

    let w = net.topology.expect_device("W");
    let s = net.topology.expect_device("S");
    for seed in SEEDS {
        let mut engines: Vec<Engine> = vec![
            Engine::new(&net, cp, &inv.packet_space, EngineConfig::default()),
            lossy(&net, cp, &inv, FaultProfile::loss(seed, 0.05)),
        ];
        let mut reports = Vec::new();
        for sim in &mut engines {
            let (_, after) = drive(sim, &update);
            for dev in [w, s] {
                sim.crash_restart(dev);
                assert!(
                    sim.report().canonical_bytes() == after,
                    "crash of {:?} diverged (seed {seed})",
                    net.topology.name(dev)
                );
            }
            assert_eq!(sim.stats().crashes_recovered, 2);
            reports.push(after);
        }
        assert!(
            reports[0] == reports[1],
            "loss changed the Report (seed {seed})"
        );
    }
}
