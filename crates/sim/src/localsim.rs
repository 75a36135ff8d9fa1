//! Simulated execution of `equal`-operator local contracts (RCDC-style):
//! every device checks its contracts in parallel with no communication,
//! so verification time is the slowest device's measured check time.
//!
//! Communication-free means there is no transport to drive; the
//! substrate still runs on the runtime layer — a [`VirtualClock`]
//! charges each device's measured check time and a [`RuntimeStats`]
//! carries the per-device counters the harnesses read. It is also the
//! one substrate the fault-injection layer ([`crate::faults`]) cannot
//! touch: with no messages there is nothing to drop, so its
//! `RuntimeStats::fault` counters stay zero by construction.

use crate::models::SwitchModel;
use crate::runtime::{RuntimeStats, VirtualClock};
use std::collections::BTreeMap;
use std::time::Instant;
use tulkun_core::localcheck::{ContractViolation, LocalChecker};
use tulkun_core::planner::{LocalContract, LocalPlan};
use tulkun_core::spec::PacketSpace;
use tulkun_core::verify::compile_packet_space;
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::DeviceId;

/// Outcome of a local-contract round.
#[derive(Debug, Clone, Default)]
pub struct LocalSimResult {
    /// Max scaled per-device check time (devices run in parallel).
    pub completion_ns: u64,
    /// Sum of all device check times (the centralized-equivalent cost).
    pub total_cpu_ns: u64,
    /// Scaled check time per participating device.
    pub per_device: Vec<(DeviceId, u64)>,
    /// Contract violations found.
    pub violations: Vec<ContractViolation>,
}

/// The set of per-device checkers for one local plan.
pub struct LocalSim {
    clock: VirtualClock,
    checkers: BTreeMap<DeviceId, LocalChecker>,
    stats: RuntimeStats,
}

impl LocalSim {
    /// Builds one checker per device holding contracts, timing each
    /// construction (its LEC table included) as the device's init.
    pub fn new(net: &Network, plan: &LocalPlan, ps: &PacketSpace, model: SwitchModel) -> LocalSim {
        let psp = compile_packet_space(&net.layout, ps);
        let mut by_dev: BTreeMap<DeviceId, Vec<LocalContract>> = BTreeMap::new();
        for c in &plan.contracts {
            by_dev.entry(c.dev).or_default().push(c.clone());
        }
        let mut stats = RuntimeStats::default();
        let clock = VirtualClock::new(model);
        let checkers = by_dev
            .into_iter()
            .map(|(dev, contracts)| {
                let wall = Instant::now();
                let fib = net.fib(dev).clone();
                let checker = LocalChecker::new(dev, net.layout, fib, contracts, &psp);
                stats.per_device.entry(dev).or_default().init_ns =
                    model.scale_ns(wall.elapsed().as_nanos() as u64);
                (dev, checker)
            })
            .collect();
        LocalSim {
            clock,
            checkers,
            stats,
        }
    }

    /// Runs one device's check through the clock, recording it in the
    /// runtime stats; `update` is folded into its checker first.
    fn check_device(
        &mut self,
        dev: DeviceId,
        out: &mut LocalSimResult,
        update: Option<&RuleUpdate>,
    ) {
        let Some(checker) = self.checkers.get_mut(&dev) else {
            return;
        };
        let wall = Instant::now();
        if let Some(update) = update {
            checker.apply(update);
        }
        let v = checker.check();
        let span = self.clock.charge(dev, 0, wall.elapsed().as_nanos() as u64);
        self.stats.per_device.entry(dev).or_default().busy_ns += span.cpu_ns;
        out.completion_ns = out.completion_ns.max(span.cpu_ns);
        out.total_cpu_ns += span.cpu_ns;
        out.per_device.push((dev, span.cpu_ns));
        out.violations.extend(v);
    }

    /// Runs every device's checks (burst).
    pub fn burst(&mut self) -> LocalSimResult {
        self.clock.reset();
        let mut out = LocalSimResult::default();
        let devices: Vec<DeviceId> = self.checkers.keys().copied().collect();
        for dev in devices {
            self.check_device(dev, &mut out, None);
        }
        out
    }

    /// Applies a rule update: only the updated device folds it into
    /// its own FIB and re-checks.
    pub fn incremental(&mut self, update: &RuleUpdate) -> LocalSimResult {
        self.clock.reset();
        let mut out = LocalSimResult::default();
        self.check_device(update.device(), &mut out, Some(update));
        out
    }

    /// The runtime observability surface (per-device init/busy time).
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_core::planner::Planner;
    use tulkun_core::spec::table1;
    use tulkun_core::verify::{verify_snapshot, Report, Violation};
    use tulkun_datasets::{by_name, Scale};
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};

    #[test]
    fn dc_local_contracts_run_in_parallel() {
        let d = by_name("FT-48", Scale::Tiny).unwrap();
        let (dst, prefix) = d.network.topology.external_map().next().unwrap();
        let dst_name = d.network.topology.name(dst).to_string();
        let some_tor = d
            .network
            .topology
            .devices()
            .find(|x| d.network.topology.name(*x).starts_with("tor") && *x != dst)
            .unwrap();
        let src_name = d.network.topology.name(some_tor).to_string();
        let inv = table1::all_shortest_path(PacketSpace::DstPrefix(prefix), &src_name, &dst_name)
            .unwrap();
        let plan = Planner::new(&d.network.topology).plan(&inv).unwrap();
        let lp = plan.local().unwrap();
        let mut sim = LocalSim::new(
            &d.network,
            lp,
            &plan.invariant.packet_space,
            SwitchModel::MELLANOX,
        );
        let r = sim.burst();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.completion_ns <= r.total_cpu_ns);
        assert!(r.completion_ns > 0);
        assert!(sim.stats().per_device.values().any(|s| s.busy_ns > 0));

        // Break the ECMP group at one aggregation switch: the checker
        // folds the update into its own FIB, and finds what a fresh
        // check of the updated network finds.
        let topo = &d.network.topology;
        let agg = topo
            .devices()
            .find(|x| topo.name(*x).starts_with("agg"))
            .unwrap();
        let up = RuleUpdate::Insert {
            device: agg,
            rule: Rule {
                priority: 99,
                matches: MatchSpec::dst(prefix),
                action: Action::Drop,
            },
        };
        let r = sim.incremental(&up);
        assert!(!r.violations.is_empty());
        let mut net = d.network.clone();
        net.apply(&up);
        let found = Report {
            violations: r.violations.into_iter().map(Violation::from).collect(),
            ..Report::default()
        };
        let snapshot = verify_snapshot(&net, &plan);
        assert_eq!(found.canonical_bytes(), snapshot.canonical_bytes());
    }
}
