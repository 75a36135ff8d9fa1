//! The discrete-event simulator for distributed counting plans — the
//! [`crate::runtime::Engine`] instantiated with a virtual-time
//! [`LatencyTransport`] and a [`VirtualClock`].
//!
//! Each device is a sequential processor: an event arriving at time `t`
//! starts processing at `max(t, device_free)`, runs for its *measured*
//! host CPU time scaled by the switch model, and emits its messages at
//! completion. Messages between neighboring devices add the link's
//! propagation latency. Verification time is the instant the system
//! quiesces — the same definition as §9.3.1 ("from the arrival of rule
//! updates at devices to the time when all invariants are verified,
//! including the propagation delays").

use crate::faults::FaultyTransport;
use crate::runtime::{Engine, EngineConfig, LatencyTransport, VirtualClock};
use tulkun_core::fault::FaultProfile;
use tulkun_core::planner::CountingPlan;
use tulkun_core::spec::PacketSpace;
use tulkun_netmodel::network::Network;

pub use crate::runtime::{DeviceStats, LecCache, RunOutcome as SimResult};

/// Simulator configuration: the engine's, under its historical name.
pub type SimConfig = EngineConfig;

/// The simulator: a virtual-time instantiation of the runtime engine.
pub type DvmSim = Engine<LatencyTransport, VirtualClock>;

impl DvmSim {
    /// Builds a simulator over a network snapshot and a counting plan.
    /// Verifier construction (LEC building and initial counting) is
    /// timed as initialization; call [`Engine::burst`] to run it.
    pub fn new(net: &Network, plan: &CountingPlan, ps: &PacketSpace, cfg: SimConfig) -> DvmSim {
        Self::with_cache(net, plan, ps, cfg, &LecCache::new())
    }

    /// Like [`DvmSim::new`], but shares a per-device LEC cache across
    /// simulators (one device builds its LEC table once for all
    /// invariants — the paper's §8 architecture). The cached build cost
    /// is still charged to init time on the first build.
    pub fn with_cache(
        net: &Network,
        plan: &CountingPlan,
        ps: &PacketSpace,
        cfg: SimConfig,
        lec_cache: &LecCache,
    ) -> DvmSim {
        let transport = LatencyTransport::new(net.topology.clone(), cfg.fallback_latency_ns);
        let clock = VirtualClock::new(cfg.model);
        Engine::new_cached(net, plan, ps, &cfg, lec_cache, transport, clock)
    }
}

/// The event simulator over a *faulty* management network: identical to
/// [`DvmSim`] except envelopes travel through a
/// [`FaultyTransport`]-decorated [`LatencyTransport`], so messages are
/// dropped, duplicated, reordered and delayed per a seeded
/// [`FaultProfile`] and recovered by the at-least-once reliability
/// layer. The Report converges to the same fixpoint as the perfect-
/// channel simulator; `stats().fault` records what it cost.
pub type FaultyDvmSim = Engine<FaultyTransport<LatencyTransport>, VirtualClock>;

impl FaultyDvmSim {
    /// Builds a fault-injecting simulator (see [`DvmSim::new`]).
    pub fn new(
        net: &Network,
        plan: &CountingPlan,
        ps: &PacketSpace,
        cfg: SimConfig,
        profile: FaultProfile,
    ) -> FaultyDvmSim {
        let transport = FaultyTransport::with_telemetry(
            LatencyTransport::new(net.topology.clone(), cfg.fallback_latency_ns),
            profile,
            cfg.telemetry.clone(),
        );
        let clock = VirtualClock::new(cfg.model);
        Engine::new_cached(net, plan, ps, &cfg, &LecCache::new(), transport, clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_core::planner::Planner;
    use tulkun_core::spec::table1;
    use tulkun_core::spec::PacketSpace;
    use tulkun_datasets::fig2a_network;
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
    use tulkun_netmodel::network::RuleUpdate;

    fn waypoint_sim() -> (tulkun_netmodel::Network, DvmSim) {
        let net = fig2a_network();
        let inv = tulkun_core::spec::Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(tulkun_core::spec::Behavior::exist(
                tulkun_core::count::CountExpr::ge(1),
                tulkun_core::spec::PathExpr::parse("S .* W .* D")
                    .unwrap()
                    .loop_free(),
            ))
            .build()
            .unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        let sim = DvmSim::new(
            &net,
            &cp,
            &plan.invariant.packet_space,
            SimConfig::default(),
        );
        (net, sim)
    }

    #[test]
    fn burst_matches_reference_semantics() {
        let (_, mut sim) = waypoint_sim();
        let r = sim.burst();
        assert!(r.messages > 0);
        assert!(r.completion_ns > 0);
        // Same verdict as the synchronous reference driver.
        let report = sim.report();
        assert!(!report.holds());
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn completion_includes_propagation_latency() {
        let (net, mut sim) = waypoint_sim();
        let r = sim.burst();
        // At least one message crossed a link, so completion exceeds one
        // link latency (1000 ns in fig2a).
        let min_lat = net
            .topology
            .links()
            .iter()
            .map(|l| l.latency_ns)
            .min()
            .unwrap();
        assert!(r.completion_ns >= min_lat);
    }

    #[test]
    fn incremental_update_converges_and_is_cheaper() {
        let (net, mut sim) = waypoint_sim();
        let burst = sim.burst();
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        let update = RuleUpdate::Insert {
            device: b,
            rule: Rule {
                priority: 50,
                matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
                action: Action::fwd(w),
            },
        };
        let incr = sim.incremental(&update);
        assert!(sim.report().holds());
        assert!(incr.messages < burst.messages);
    }

    #[test]
    fn local_contract_counterpart_runs() {
        // Smoke-check the all-shortest-path invariant through the
        // counting path as well (sanity that deliver actions work).
        let net = fig2a_network();
        let inv = table1::reachability(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "D").unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        let mut sim = DvmSim::new(
            &net,
            &cp,
            &plan.invariant.packet_space,
            SimConfig::default(),
        );
        sim.burst();
        assert!(sim.report().holds());
    }

    #[test]
    fn slower_switch_models_scale_completion() {
        // The same workload on the ARM (Centec) model must report a
        // longer simulated completion than on the x86 (Mellanox) model
        // whenever CPU time is a visible fraction of completion.
        let net = fig2a_network();
        let inv = table1::reachability(PacketSpace::dst_prefix("10.0.0.0/23"), "S", "D").unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        let total_cpu = |model: crate::models::SwitchModel| {
            let mut sim = DvmSim::new(
                &net,
                &cp,
                &plan.invariant.packet_space,
                SimConfig {
                    model,
                    ..Default::default()
                },
            );
            sim.burst();
            sim.stats()
                .per_device
                .values()
                .map(|s| s.init_ns + s.busy_ns)
                .sum::<u64>()
        };
        let fast = total_cpu(crate::models::SwitchModel::MELLANOX);
        let slow = total_cpu(crate::models::SwitchModel::CENTEC);
        // Wall-clock noise exists, but a 2.5x scale factor dominates it.
        assert!(
            slow > fast,
            "Centec ({slow}) must accumulate more CPU than Mellanox ({fast})"
        );
    }

    #[test]
    fn faulty_sim_report_matches_clean_sim() {
        let (net, mut clean) = waypoint_sim();
        clean.burst();
        let reference = clean.report().canonical_bytes();
        let inv = tulkun_core::spec::Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(tulkun_core::spec::Behavior::exist(
                tulkun_core::count::CountExpr::ge(1),
                tulkun_core::spec::PathExpr::parse("S .* W .* D")
                    .unwrap()
                    .loop_free(),
            ))
            .build()
            .unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        let mut faulty = FaultyDvmSim::new(
            &net,
            &cp,
            &inv.packet_space,
            SimConfig::default(),
            FaultProfile::loss(3, 0.10),
        );
        faulty.burst();
        assert_eq!(
            faulty.report().canonical_bytes(),
            reference,
            "10% loss must be invisible to the Report"
        );
        let f = faulty.stats().fault;
        assert!(f.drops > 0, "loss profile must drop something");
        assert!(f.retransmits >= f.drops);
        assert!(f.acks > 0);

        // A crash mid-run over the faulty channel also recovers.
        let w = net.topology.device("W").unwrap();
        faulty.crash_restart(w);
        assert_eq!(faulty.report().canonical_bytes(), reference);
        assert_eq!(faulty.stats().crashes_recovered, 1);
    }

    #[test]
    fn churn_under_loss_matches_clean_sim() {
        // Topology churn over a lossy channel: the epoch fence wipes
        // the reliability layer's in-flight state, and re-convergence
        // must still reach the clean substrate's exact report.
        let (net, mut clean) = waypoint_sim();
        clean.burst();
        let inv = tulkun_core::spec::Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(tulkun_core::spec::Behavior::exist(
                tulkun_core::count::CountExpr::ge(1),
                tulkun_core::spec::PathExpr::parse("S .* W .* D")
                    .unwrap()
                    .loop_free(),
            ))
            .build()
            .unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap().clone();
        let mut faulty = FaultyDvmSim::new(
            &net,
            &cp,
            &inv.packet_space,
            SimConfig::default(),
            FaultProfile::loss(9, 0.10),
        );
        faulty.burst();
        let a = net.topology.device("A").unwrap();
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        use tulkun_core::churn::TopologyEvent as Ev;
        for ev in [Ev::LinkDown(a, b), Ev::DeviceDown(b), Ev::DeviceUp(b)] {
            clean
                .apply_topology_event(&ev, &net.topology, &inv)
                .unwrap();
            faulty
                .apply_topology_event(&ev, &net.topology, &inv)
                .unwrap();
            assert_eq!(
                faulty.report().canonical_bytes(),
                clean.report().canonical_bytes(),
                "churn {ev:?} must converge identically under 10% loss"
            );
        }
        assert_eq!(clean.epoch(), 3);
        assert_eq!(faulty.epoch(), 3);
        // A crash_restart composed after churn still reconverges.
        clean.crash_restart(w);
        faulty.crash_restart(w);
        assert_eq!(
            faulty.report().canonical_bytes(),
            clean.report().canonical_bytes()
        );
    }

    #[test]
    fn device_stats_are_collected() {
        let (_, mut sim) = waypoint_sim();
        sim.burst();
        let stats = &sim.stats().per_device;
        assert!(!stats.is_empty());
        assert!(stats.values().any(|s| s.messages > 0));
        assert!(stats.values().all(|s| s.bdd_nodes > 2));
        // Per-message samples are drainable for the Fig. 15 harness.
        let total_msgs: u64 = sim.stats().per_device.values().map(|s| s.messages).sum();
        let samples = sim.stats_mut().drain_msg_samples();
        assert_eq!(samples.len() as u64, total_msgs);
        assert!(sim.stats().msg_ns_samples.is_empty());
    }
}
