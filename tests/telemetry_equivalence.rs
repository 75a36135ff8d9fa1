//! Telemetry must be a pure observer: turning it on cannot perturb the
//! verification result by a single byte, on any substrate.
//!
//! For each execution substrate — the reference `Engine` on a FIFO
//! transport, the discrete-event `Engine`, the fault-injecting
//! `Engine`, and the threaded `ThreadedEngine` — the Figure 2a
//! workflow runs twice: once with the default (disabled) telemetry
//! handle and once with an enabled one. The final
//! `Report::canonical_bytes()` must match exactly, while the enabled
//! handle must actually have recorded spans and metrics (so the test
//! cannot pass vacuously) and the disabled handle must have recorded
//! nothing.
//!
//! A second test pins the metrics registry's histogram arithmetic to a
//! hand-computed sequence: exact bucket counts, sum, count, and the
//! bucket-quantized quantiles.

use std::sync::Arc;

use tulkun::core::fault::FaultProfile;
use tulkun::core::planner::{CountingPlan, Planner};
use tulkun::netmodel::fib::MatchSpec;
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;
use tulkun::sim::runtime::FifoTransport;
use tulkun::sim::{Engine, EngineConfig, LecCache, ThreadedEngine};
use tulkun::telemetry::{HistogramSpec, Telemetry, TelemetryConfig};

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

/// Burst + repair update on the FIFO-transport reference engine.
fn run_fifo(
    net: &Network,
    cp: &CountingPlan,
    ps: &PacketSpace,
    update: &RuleUpdate,
    telemetry: Arc<Telemetry>,
) -> Vec<u8> {
    let cfg = EngineConfig {
        telemetry,
        ..EngineConfig::default()
    };
    let cache = LecCache::new();
    let mut engine = Engine::over(net, cp, ps, &cfg, &cache, Box::<FifoTransport>::default());
    engine.burst();
    engine.incremental(update);
    engine.report().canonical_bytes()
}

/// Burst + repair update on the discrete-event simulator.
fn run_sim(
    net: &Network,
    cp: &CountingPlan,
    ps: &PacketSpace,
    update: &RuleUpdate,
    telemetry: Arc<Telemetry>,
) -> Vec<u8> {
    let cfg = EngineConfig {
        telemetry,
        ..EngineConfig::default()
    };
    let mut sim = Engine::new(net, cp, ps, cfg);
    sim.burst();
    sim.incremental(update);
    sim.report().canonical_bytes()
}

/// Burst + repair update under 10% loss (fixed seed) with
/// crash/restart, so the fault spans and recovery paths execute.
fn run_faulty(
    net: &Network,
    cp: &CountingPlan,
    ps: &PacketSpace,
    update: &RuleUpdate,
    telemetry: Arc<Telemetry>,
) -> Vec<u8> {
    let cfg = EngineConfig {
        telemetry,
        ..EngineConfig::default()
    };
    let mut sim = Engine::lossy(net, cp, ps, cfg, FaultProfile::loss(23, 0.10));
    sim.burst();
    sim.incremental(update);
    sim.crash_restart(net.topology.expect_device("W"));
    sim.report().canonical_bytes()
}

/// Burst + repair update on the threaded runner.
fn run_threaded(
    net: &Network,
    cp: &CountingPlan,
    ps: &PacketSpace,
    update: &RuleUpdate,
    telemetry: Arc<Telemetry>,
) -> Vec<u8> {
    let cfg = EngineConfig {
        telemetry,
        ..EngineConfig::default()
    };
    let cache = LecCache::new();
    let mut run = ThreadedEngine::spawn_with(net, cp, ps, &cfg, &cache);
    run.wait_quiescent();
    run.incremental(update);
    let bytes = run.report().canonical_bytes();
    run.shutdown().expect("clean shutdown");
    bytes
}

/// Burst + repair update on the synchronous reference [`Session`]
/// (the substrate with no clock and no causal trace ids — its journal
/// entries carry trace 0).
fn run_session(
    net: &Network,
    cp: &CountingPlan,
    ps: &PacketSpace,
    update: &RuleUpdate,
    telemetry: Arc<Telemetry>,
) -> Vec<u8> {
    use tulkun::core::verify::Session;
    let mut s = Session::from_counting(net, cp.clone(), ps);
    s.set_telemetry(telemetry);
    s.run_to_quiescence();
    s.apply_rule_update(update);
    s.report().canonical_bytes()
}

#[test]
fn reports_byte_identical_with_telemetry_on_and_off() {
    let (net, inv, update) = fig2_setup();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap().clone();
    let ps = &inv.packet_space;

    type Runner = fn(&Network, &CountingPlan, &PacketSpace, &RuleUpdate, Arc<Telemetry>) -> Vec<u8>;
    let substrates: [(&str, Runner); 5] = [
        ("session", run_session),
        ("fifo engine", run_fifo),
        ("event sim", run_sim),
        ("faulty sim", run_faulty),
        ("threaded", run_threaded),
    ];
    for (name, run) in substrates {
        let off = Telemetry::disabled();
        let on = Telemetry::new(TelemetryConfig::enabled());
        // Telemetry on but the flight-recorder ring sized to zero: the
        // journal hot path must stay a pure observer too.
        let no_journal = Telemetry::new(TelemetryConfig::enabled_without_journal());
        let report_off = run(&net, &cp, ps, &update, off.clone());
        let report_on = run(&net, &cp, ps, &update, on.clone());
        let report_no_journal = run(&net, &cp, ps, &update, no_journal.clone());
        assert_eq!(
            report_off, report_on,
            "{name}: enabling telemetry changed the Report bytes"
        );
        assert_eq!(
            report_on, report_no_journal,
            "{name}: disabling the journal changed the Report bytes"
        );
        assert!(
            !on.spans().is_empty() || name == "session",
            "{name}: enabled telemetry recorded no spans (vacuous test)"
        );
        assert!(
            !on.metrics().hists.is_empty() || name == "session",
            "{name}: enabled telemetry recorded no histograms"
        );
        assert!(
            on.journal_recorded() > 0,
            "{name}: enabled telemetry journaled nothing (vacuous test)"
        );
        assert!(
            off.spans().is_empty(),
            "{name}: disabled telemetry recorded spans"
        );
        assert!(
            off.metrics().counters.is_empty() && off.metrics().hists.is_empty(),
            "{name}: disabled telemetry recorded metrics"
        );
        assert_eq!(
            off.journal_recorded(),
            0,
            "{name}: disabled telemetry journaled events"
        );
        assert_eq!(
            no_journal.journal_recorded(),
            0,
            "{name}: zero-capacity journal recorded events"
        );
        assert!(
            no_journal.journal_events().is_empty(),
            "{name}: zero-capacity journal returned events"
        );
    }
}

#[test]
fn histogram_buckets_match_hand_computed_sequence() {
    const SPEC: HistogramSpec = HistogramSpec {
        name: "test_hand_computed",
        bounds: &[10, 20, 50],
    };
    let net = tulkun::datasets::fig2a_network();
    let a = net.topology.expect_device("S");
    let b = net.topology.expect_device("D");
    let tel = Telemetry::new(TelemetryConfig::enabled());
    // Observed from two devices so the sharded registry must merge:
    // one value at each bucket's upper bound, one just above it.
    for v in [1, 10, 11, 20] {
        tel.observe(a, &SPEC, v);
    }
    for v in [21, 50, 51, 1000] {
        tel.observe(b, &SPEC, v);
    }
    let snap = tel.metrics();
    let h = snap.hists.get(SPEC.name).expect("histogram recorded");
    assert_eq!(h.bounds, vec![10, 20, 50]);
    // Buckets are non-cumulative per bound plus one overflow bucket;
    // bounds are inclusive, so 10/20/50 land in their own buckets.
    assert_eq!(h.buckets, vec![2, 2, 2, 2]);
    assert_eq!(h.count, 8);
    assert_eq!(h.sum, 1 + 10 + 11 + 20 + 21 + 50 + 51 + 1000);
    // Quantiles are quantized to bucket upper bounds; the overflow
    // bucket reports the last finite bound as a lower bound.
    assert_eq!(h.quantile(0.25), Some(10));
    assert_eq!(h.quantile(0.50), Some(20));
    assert_eq!(h.quantile(0.75), Some(50));
    assert_eq!(h.quantile(0.99), Some(50));
    assert_eq!(snap.percentile(SPEC.name, 0.50), Some(20));
}
