//! Communication-free local contracts for `equal` behaviors (§4.2).
//!
//! For an invariant with the `equal` match operator, the minimal counting
//! information of every node is the empty set: each device only checks
//! that it forwards the invariant's packets to exactly the devices of its
//! downstream DPVNet neighbors (and delivers externally at destination
//! nodes). This generalizes Azure RCDC's local contracts for
//! all-shortest-path availability.

use crate::planner::LocalContract;
use tulkun_bdd::serial::PortablePred;
use tulkun_bdd::{HeaderLayout, Pred};
use tulkun_netmodel::fib::{Action, Fib};
use tulkun_netmodel::network::RuleUpdate;
use tulkun_netmodel::DeviceId;
use tulkun_predicate::{lecs, BddBackend, PredicateBackend};

/// A local-contract violation found on a device.
#[derive(Debug, Clone)]
pub struct ContractViolation {
    /// The device that broke its contract.
    pub device: DeviceId,
    /// The DPVNet node whose contract it is.
    pub node: crate::dpvnet::NodeId,
    /// The offending packet set.
    pub pred: PortablePred,
    /// What the contract requires.
    pub expected: Vec<DeviceId>,
    /// What the data plane does.
    pub found: Vec<DeviceId>,
    /// Human-readable reason.
    pub reason: String,
}

/// The per-device checker for `equal` plans: holds the device's FIB,
/// LEC table and contracts, and checks them locally, with no
/// communication.
pub struct LocalChecker {
    dev: DeviceId,
    backend: BddBackend,
    fib: Fib,
    contracts: Vec<LocalContract>,
    packet_space: Pred,
    /// LEC table of `fib`, rebuilt when a rule update changes it.
    lecs: Vec<(Pred, Action)>,
}

impl LocalChecker {
    /// Creates a checker for `dev` with its assigned contracts and
    /// builds its LEC table.
    pub fn new(
        dev: DeviceId,
        layout: HeaderLayout,
        fib: Fib,
        contracts: Vec<LocalContract>,
        packet_space: &PortablePred,
    ) -> Self {
        let mut backend = BddBackend::new(layout);
        let ps = backend.import(packet_space);
        for c in &contracts {
            assert_eq!(c.dev, dev, "contract assigned to the wrong device");
        }
        let lecs = lecs(&fib, &mut backend);
        LocalChecker {
            dev,
            backend,
            fib,
            contracts,
            packet_space: ps,
            lecs,
        }
    }

    /// Folds one of this device's rule updates into its FIB and LEC
    /// table (incremental checking).
    pub fn apply(&mut self, update: &RuleUpdate) {
        assert_eq!(update.device(), self.dev);
        match update {
            RuleUpdate::Insert { rule, .. } => self.fib.insert(rule.clone()),
            RuleUpdate::Remove {
                priority, matches, ..
            } => {
                self.fib.remove(*priority, matches);
            }
        }
        self.lecs = lecs(&self.fib, &mut self.backend);
    }

    /// Runs all contracts against the current FIB.
    pub fn check(&mut self) -> Vec<ContractViolation> {
        let LocalChecker {
            dev,
            backend,
            contracts,
            packet_space,
            lecs,
            ..
        } = self;
        let mut out = Vec::new();
        for contract in contracts.iter() {
            if contract.required_next_hops.is_empty() && !contract.must_deliver {
                continue; // dead node: nothing to check locally
            }
            for (pred, action) in lecs.iter() {
                let p = backend.and(*pred, *packet_space);
                if backend.is_false(p) {
                    continue;
                }
                let mut found = action.device_next_hops();
                found.sort();
                found.dedup();
                let delivers = action.delivers_external();
                let reason = if found != contract.required_next_hops {
                    Some(format!(
                        "forwarding group {found:?} differs from contract {:?}",
                        contract.required_next_hops
                    ))
                } else if delivers != contract.must_deliver {
                    Some(if contract.must_deliver {
                        "destination does not deliver externally".to_string()
                    } else {
                        "unexpected external delivery".to_string()
                    })
                } else if matches!(
                    action,
                    Action::Forward {
                        rewrite: Some(_),
                        ..
                    }
                ) {
                    Some("unexpected header rewrite".to_string())
                } else {
                    None
                };
                if let Some(reason) = reason {
                    out.push(ContractViolation {
                        device: *dev,
                        node: contract.node,
                        pred: backend.export(p),
                        expected: contract.required_next_hops.clone(),
                        found,
                        reason,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use crate::spec::{table1, PacketSpace};
    use tulkun_bdd::{serial, BddManager};
    use tulkun_netmodel::fib::{MatchSpec, Rule};
    use tulkun_netmodel::routing::{generate_fibs, RoutingOptions};
    use tulkun_netmodel::topology::Topology;
    use tulkun_netmodel::IpPrefix;

    fn diamond() -> Topology {
        // S - A - D, S - B - D: two equal-cost paths.
        let mut t = Topology::new();
        let s = t.add_device("S");
        let a = t.add_device("A");
        let b = t.add_device("B");
        let d = t.add_device("D");
        t.add_link(s, a, 1);
        t.add_link(s, b, 1);
        t.add_link(a, d, 1);
        t.add_link(b, d, 1);
        t.add_external_prefix(d, "10.0.0.0/24".parse().unwrap());
        t
    }

    fn packet_space_portable(layout: &HeaderLayout, ps: &PacketSpace) -> PortablePred {
        let mut m = BddManager::new(layout.num_vars());
        let p = ps.compile(&mut m, layout);
        serial::export(&m, p)
    }

    #[test]
    fn correct_ecmp_data_plane_passes() {
        let topo = diamond();
        let fibs = generate_fibs(&topo, &RoutingOptions::default());
        let ps = PacketSpace::dst_prefix("10.0.0.0/24");
        let inv = table1::all_shortest_path(ps.clone(), "S", "D").unwrap();
        let plan = Planner::new(&topo).plan(&inv).unwrap();
        let lp = plan.local().unwrap();
        let layout = HeaderLayout::ipv4_tcp();
        let psp = packet_space_portable(&layout, &ps);

        for dev in topo.devices() {
            let contracts: Vec<LocalContract> = lp
                .contracts
                .iter()
                .filter(|c| c.dev == dev)
                .cloned()
                .collect();
            if contracts.is_empty() {
                continue;
            }
            let mut checker =
                LocalChecker::new(dev, layout, fibs[dev.idx()].clone(), contracts, &psp);
            let v = checker.check();
            assert!(v.is_empty(), "device {} violations: {v:?}", topo.name(dev));
        }
    }

    #[test]
    fn missing_ecmp_member_is_caught() {
        let topo = diamond();
        let mut fibs = generate_fibs(&topo, &RoutingOptions::default());
        // Break S: forward only via A instead of the ECMP pair {A, B}.
        let s = topo.device("S").unwrap();
        let a = topo.device("A").unwrap();
        let p: IpPrefix = "10.0.0.0/24".parse().unwrap();
        fibs[s.idx()] = Fib::new();
        fibs[s.idx()].insert(Rule {
            priority: 24,
            matches: MatchSpec::dst(p),
            action: Action::fwd(a),
        });

        let ps = PacketSpace::dst_prefix("10.0.0.0/24");
        let inv = table1::all_shortest_path(ps.clone(), "S", "D").unwrap();
        let plan = Planner::new(&topo).plan(&inv).unwrap();
        let lp = plan.local().unwrap();
        let layout = HeaderLayout::ipv4_tcp();
        let psp = packet_space_portable(&layout, &ps);

        let contracts: Vec<LocalContract> = lp
            .contracts
            .iter()
            .filter(|c| c.dev == s)
            .cloned()
            .collect();
        let mut checker = LocalChecker::new(s, layout, fibs[s.idx()].clone(), contracts, &psp);
        let v = checker.check();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].found, vec![a]);
        assert_eq!(v[0].expected.len(), 2);
    }

    #[test]
    fn destination_must_deliver() {
        let topo = diamond();
        let mut fibs = generate_fibs(&topo, &RoutingOptions::default());
        let d = topo.device("D").unwrap();
        fibs[d.idx()] = Fib::new(); // destination drops everything

        let ps = PacketSpace::dst_prefix("10.0.0.0/24");
        let inv = table1::all_shortest_path(ps.clone(), "S", "D").unwrap();
        let plan = Planner::new(&topo).plan(&inv).unwrap();
        let lp = plan.local().unwrap();
        let layout = HeaderLayout::ipv4_tcp();
        let psp = packet_space_portable(&layout, &ps);

        let contracts: Vec<LocalContract> = lp
            .contracts
            .iter()
            .filter(|c| c.dev == d)
            .cloned()
            .collect();
        let mut checker = LocalChecker::new(d, layout, fibs[d.idx()].clone(), contracts, &psp);
        let v = checker.check();
        assert_eq!(v.len(), 1);
        assert!(v[0].reason.contains("deliver"), "{}", v[0].reason);
    }
}
