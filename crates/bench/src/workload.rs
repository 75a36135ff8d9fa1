//! Evaluation workloads (§9.3.1).
//!
//! * WAN/LAN: all-pair, loop-free, blackhole-free reachability along
//!   `<= shortest + 2`-hop paths — for Tulkun this is one invariant per
//!   destination device (a multi-ingress subset behavior); for the
//!   centralized baselines it is the all-pairs workload of
//!   [`tulkun_baselines::Workload`].
//! * DC: all-ToR-pair shortest-path availability — `equal` behaviors
//!   verified as communication-free local contracts (RCDC-style).

use std::collections::BTreeMap;
use tulkun_baselines::Workload as BaselineWorkload;
use tulkun_core::event::{RuntimeEvent, Substrate};
use tulkun_core::planner::Planner;
use tulkun_core::spec::table1::subset_reachability_to;
use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use tulkun_datasets::{Dataset, NetKind};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::{DeviceId, IpPrefix};
use tulkun_sim::localsim::LocalSim;
use tulkun_sim::{Engine, EngineConfig, SwitchModel};
use tulkun_telemetry::Histogram;

/// The baseline workload for a dataset (all announced pairs).
pub fn all_pair_workload(net: &Network) -> BaselineWorkload {
    BaselineWorkload::all_pairs(net)
}

/// The per-destination DC invariant: all-ToR-pair shortest-path
/// availability (`equal`, verified by local contracts).
pub fn dc_invariant(net: &Network, dst: DeviceId, prefixes: &[IpPrefix]) -> Invariant {
    let topo = &net.topology;
    let dst_name = topo.name(dst);
    let ingress: Vec<String> = topo
        .devices()
        .filter(|s| *s != dst && topo.name(*s).starts_with("tor"))
        .map(|s| topo.name(s).to_string())
        .collect();
    let mut ps = PacketSpace::DstPrefix(prefixes[0]);
    for p in &prefixes[1..] {
        ps = ps.or(PacketSpace::DstPrefix(*p));
    }
    Invariant::builder()
        .name(format!("all-shortest-path availability -> {dst_name}"))
        .packet_space(ps)
        .ingress(ingress)
        .behavior(Behavior::equal(
            PathExpr::parse(&format!(". * {dst_name}"))
                .unwrap()
                .shortest_only(),
        ))
        .build()
        .expect("dc invariant")
}

/// Per-destination state of a running Tulkun all-pair session.
#[allow(clippy::large_enum_variant)] // one variant per destination, boxed-by-Vec anyway
enum PerDst {
    Counting {
        prefixes: Vec<IpPrefix>,
        sim: Engine,
    },
    Local {
        prefixes: Vec<IpPrefix>,
        sim: LocalSim,
    },
}

/// The result of one Tulkun phase over all destinations.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllPairRun {
    /// Estimated wall-clock completion: destinations verify in
    /// parallel, but one device's CPU is shared across its tasks —
    /// `max(max_dst completion, max_device Σ busy)`.
    pub completion_ns: u64,
    pub messages: usize,
    pub bytes: u64,
    pub violations: usize,
}

/// A Tulkun all-pair verification session over a dataset: one
/// per-destination DPVNet (WAN/LAN counting) or local-contract set (DC).
pub struct TulkunAllPairs {
    per_dst: Vec<PerDst>,
    /// Planner (DPVNet) computation time, not part of verification time
    /// (precomputed; reported separately like the paper's Fig. 13).
    pub plan_ns: u64,
}

/// Announced prefixes grouped per destination device.
pub fn destinations(net: &Network) -> Vec<(DeviceId, Vec<IpPrefix>)> {
    let mut dsts: Vec<(DeviceId, Vec<IpPrefix>)> = Vec::new();
    for (d, p) in net.topology.external_map() {
        match dsts.iter_mut().find(|(x, _)| *x == d) {
            Some((_, ps)) => ps.push(p),
            None => dsts.push((d, vec![p])),
        }
    }
    dsts.sort_by_key(|(d, _)| *d);
    dsts
}

fn build_per_dst(
    ds: &Dataset,
    model: SwitchModel,
    dst: DeviceId,
    prefixes: Vec<IpPrefix>,
    plan_ns: &mut u64,
) -> PerDst {
    let net = &ds.network;
    let planner = Planner::new(&net.topology);
    let inv = match ds.spec.kind {
        NetKind::Dc => dc_invariant(net, dst, &prefixes),
        _ => subset_reachability_to(&net.topology, dst).expect("wan invariant"),
    };
    let t0 = std::time::Instant::now();
    let plan = planner.plan(&inv).expect("plan");
    *plan_ns += t0.elapsed().as_nanos() as u64;
    match &plan.kind {
        tulkun_core::planner::PlanKind::Counting(cp) => {
            let cfg = EngineConfig {
                model,
                ..Default::default()
            };
            let sim = Engine::new(net, cp, &plan.invariant.packet_space, cfg);
            PerDst::Counting { prefixes, sim }
        }
        tulkun_core::planner::PlanKind::Local(lp) => {
            let sim = LocalSim::new(net, lp, &plan.invariant.packet_space, model);
            PerDst::Local { prefixes, sim }
        }
    }
}

/// Folds the burst of one destination after another into the
/// all-pair result.
#[derive(Default)]
struct BurstTally {
    run: AllPairRun,
    max_dst: u64,
    per_device_busy: BTreeMap<DeviceId, u64>,
    /// One device hosts every destination's tasks on one verifier with
    /// one LEC table (it depends only on the FIB), so its build cost is
    /// paid once per device, not once per destination: the max init,
    /// not the sum.
    per_device_init: BTreeMap<DeviceId, u64>,
}

impl BurstTally {
    fn burst(&mut self, pd: &mut PerDst) {
        match pd {
            PerDst::Counting { sim, .. } => {
                let r = sim.run_to_quiescence();
                self.max_dst = self.max_dst.max(r.completion_ns);
                self.run.messages += r.messages;
                self.run.bytes += r.bytes;
                self.run.violations += sim.report().violations.len();
                for (dev, st) in &sim.stats().per_device {
                    *self.per_device_busy.entry(*dev).or_default() += st.busy_ns;
                    let e = self.per_device_init.entry(*dev).or_default();
                    *e = (*e).max(st.init_ns);
                }
            }
            PerDst::Local { sim, .. } => {
                let r = sim.burst();
                self.max_dst = self.max_dst.max(r.completion_ns);
                self.run.violations += r.violations.len();
                for (dev, ns) in &r.per_device {
                    *self.per_device_busy.entry(*dev).or_default() += ns;
                }
            }
        }
    }

    fn finish(mut self) -> AllPairRun {
        let max_dev = self
            .per_device_busy
            .iter()
            .map(|(d, b)| b + self.per_device_init.get(d).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        self.run.completion_ns = self.max_dst.max(max_dev);
        self.run
    }
}

impl TulkunAllPairs {
    /// Plans and instantiates the session for a dataset (all
    /// destinations held in memory — use [`TulkunAllPairs::build_for`]
    /// or [`burst_streaming`] on very large datasets).
    pub fn build(ds: &Dataset, model: SwitchModel) -> TulkunAllPairs {
        Self::build_for(ds, model, |_| true)
    }

    /// Like [`TulkunAllPairs::build`] but keeps only the destinations
    /// accepted by `keep` (e.g. those an update stream touches).
    pub fn build_for(
        ds: &Dataset,
        model: SwitchModel,
        keep: impl Fn(DeviceId) -> bool,
    ) -> TulkunAllPairs {
        let mut plan_ns = 0;
        let per_dst = destinations(&ds.network)
            .into_iter()
            .filter(|(d, _)| keep(*d))
            .map(|(dst, prefixes)| build_per_dst(ds, model, dst, prefixes, &mut plan_ns))
            .collect();
        TulkunAllPairs { per_dst, plan_ns }
    }

    /// Runs the burst phase for every destination.
    pub fn burst(&mut self) -> AllPairRun {
        let mut tally = BurstTally::default();
        for pd in &mut self.per_dst {
            tally.burst(pd);
        }
        tally.finish()
    }

    /// Applies one rule update, re-verifying only the destinations whose
    /// packet space overlaps it. Returns the incremental verification
    /// time (max across the affected destinations, which run in
    /// parallel) and the number of current violations among them.
    pub fn incremental(&mut self, update: &RuleUpdate) -> AllPairRun {
        let prefix = match update {
            RuleUpdate::Insert { rule, .. } => rule.matches.dst,
            RuleUpdate::Remove { matches, .. } => matches.dst,
        };
        let mut run = AllPairRun::default();
        for pd in &mut self.per_dst {
            match pd {
                PerDst::Counting { prefixes, sim } => {
                    if !prefixes.iter().any(|p| p.overlaps(&prefix)) {
                        continue;
                    }
                    let batch = RuntimeEvent::Batch(vec![update.clone()]);
                    let r = sim.apply_event(&batch).expect("a batch is never refused");
                    run.completion_ns = run.completion_ns.max(r.completion_ns);
                    run.messages += r.messages;
                    run.bytes += r.bytes;
                    run.violations += sim.report().violations.len();
                }
                PerDst::Local { prefixes, sim } => {
                    if !prefixes.iter().any(|p| p.overlaps(&prefix)) {
                        continue;
                    }
                    let r = sim.incremental(update);
                    run.completion_ns = run.completion_ns.max(r.completion_ns);
                    run.violations += r.violations.len();
                }
            }
        }
        run
    }

    /// Number of destination sessions.
    pub fn destinations(&self) -> usize {
        self.per_dst.len()
    }

    /// The per-message processing-time histogram and per-device
    /// `(busy, memory, load)` triples of all counting sims (Fig. 15).
    pub fn message_stats(&self) -> (Histogram, Vec<(u64, u64, f64)>) {
        let mut msg = Histogram::default();
        let mut dev: BTreeMap<DeviceId, (u64, u64)> = Default::default();
        for pd in &self.per_dst {
            if let PerDst::Counting { sim, .. } = pd {
                msg.merge(&sim.stats().msg_ns());
                for (d, st) in &sim.stats().per_device {
                    let e = dev.entry(*d).or_default();
                    e.0 += st.busy_ns;
                    e.1 = e.1.max(st.bdd_nodes as u64 * 16);
                }
            }
        }
        let total: u64 = dev.values().map(|(b, _)| *b).max().unwrap_or(1).max(1);
        let out = dev
            .into_values()
            .map(|(busy, mem)| (busy, mem, busy as f64 / total as f64))
            .collect();
        (msg, out)
    }
}

/// Streaming burst: builds, bursts and drops one destination at a time —
/// constant memory in the number of destinations.
pub fn burst_streaming(ds: &Dataset, model: SwitchModel) -> (AllPairRun, u64) {
    let mut tally = BurstTally::default();
    let mut plan_ns = 0u64;
    for (dst, prefixes) in destinations(&ds.network) {
        let mut pd = build_per_dst(ds, model, dst, prefixes, &mut plan_ns);
        tally.burst(&mut pd);
    }
    (tally.finish(), plan_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_datasets::{by_name, rule_updates, Scale};
    use tulkun_netmodel::routing::{inject_errors, InjectedError};

    #[test]
    fn wan_all_pairs_clean_then_error() {
        let ds = by_name("INet2", Scale::Tiny).unwrap();
        let mut s = TulkunAllPairs::build(&ds, SwitchModel::MELLANOX);
        assert_eq!(s.destinations(), 9);
        let burst = s.burst();
        assert_eq!(burst.violations, 0, "clean INet2 must verify");
        assert!(burst.completion_ns > 0);
        assert!(burst.messages > 0);

        // Inject a blackhole via an incremental update: must be caught.
        let (dst, prefix) = ds.network.topology.external_map().next().unwrap();
        let victim = ds.network.topology.devices().find(|v| *v != dst).unwrap();
        let err = InjectedError::Blackhole {
            device: victim,
            prefix,
        };
        let r = s.incremental(&err.to_update());
        assert!(r.violations > 0, "blackhole must be detected");
        assert!(r.completion_ns > 0);
    }

    #[test]
    fn dc_all_pairs_local_contracts() {
        let ds = by_name("FT-48", Scale::Tiny).unwrap();
        let mut s = TulkunAllPairs::build(&ds, SwitchModel::MELLANOX);
        let burst = s.burst();
        assert_eq!(burst.violations, 0, "clean fat tree must verify");
        assert_eq!(burst.messages, 0, "local contracts need no messages");
        assert!(burst.completion_ns > 0);
    }

    #[test]
    fn update_stream_runs() {
        let ds = by_name("B4-13", Scale::Tiny).unwrap();
        let mut s = TulkunAllPairs::build(&ds, SwitchModel::MELLANOX);
        s.burst();
        let mut times = Vec::new();
        for u in rule_updates(&ds.network, 20, 5) {
            times.push(s.incremental(&u).completion_ns);
        }
        assert_eq!(times.len(), 20);
    }

    #[test]
    fn burst_detects_preinjected_errors() {
        let ds = by_name("B4-13", Scale::Tiny).unwrap();
        let mut ds = ds;
        let (dst, prefix) = ds.network.topology.external_map().next().unwrap();
        let victim = ds.network.topology.devices().find(|v| *v != dst).unwrap();
        inject_errors(
            &mut ds.network,
            &[InjectedError::Blackhole {
                device: victim,
                prefix,
            }],
        );
        let mut s = TulkunAllPairs::build(&ds, SwitchModel::MELLANOX);
        let burst = s.burst();
        assert!(burst.violations > 0);
    }
}
