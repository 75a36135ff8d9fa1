//! Delta-net-style baseline: persistent IP-interval *atoms* with a
//! per-atom, per-device action table. Incremental updates split atoms in
//! place and repaint only the updated device — fast updates at the price
//! of an atoms × devices table (the memory-out of the paper's NGDC run).

use crate::common::{reach_set, BaselineReport, CentralizedDpv, Workload};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::DeviceId;
use tulkun_predicate::{AtomAction, AtomPartition};

/// The Delta-net baseline.
#[derive(Default)]
pub struct DeltaNet {
    atoms: AtomPartition,
    /// `table[atom][device]`.
    table: Vec<Vec<AtomAction>>,
    net: Option<Network>,
    workload: Workload,
}

impl DeltaNet {
    /// Fresh instance.
    pub fn new() -> Self {
        DeltaNet {
            atoms: AtomPartition::new(),
            table: Vec::new(),
            net: None,
            workload: Workload { pairs: Vec::new() },
        }
    }

    /// Verifies the workload restricted to an atom set (`None` = all).
    fn verify_atoms(&self, filter: Option<&[usize]>) -> BaselineReport {
        let net = self.net.as_ref().expect("verify_burst first");
        let n = net.topology.num_devices();
        let mut report = BaselineReport::default();
        for (dst, prefix) in &self.workload.pairs {
            for atom in self.atoms.atoms_of(prefix) {
                if let Some(f) = filter {
                    if !f.contains(&atom) {
                        continue;
                    }
                }
                report.classes += 1;
                let row = &self.table[atom];
                let edges: Vec<Vec<DeviceId>> = row.iter().map(|a| a.next_hops.clone()).collect();
                let delivered = row[dst.idx()].delivers;
                let reached = reach_set(n, &edges, *dst);
                for d in net.topology.devices() {
                    if d == *dst {
                        continue;
                    }
                    report.checked += 1;
                    if !delivered || !reached[d.idx()] {
                        report.violations += 1;
                    }
                }
            }
        }
        report
    }
}

impl CentralizedDpv for DeltaNet {
    fn name(&self) -> &'static str {
        "Delta-net"
    }

    fn verify_burst(&mut self, net: &Network, workload: &Workload) -> BaselineReport {
        // Atoms from every rule's destination prefix plus the workload's.
        let rule_prefixes = net
            .fibs
            .iter()
            .flat_map(|f| f.rules().iter().map(|r| &r.matches.dst));
        let wl_prefixes = workload.pairs.iter().map(|(_, p)| p);
        let all: Vec<_> = rule_prefixes.chain(wl_prefixes).cloned().collect();
        self.atoms = AtomPartition::from_prefixes(all.iter());

        // Paint all devices, then transpose to atom-major.
        let per_dev: Vec<Vec<AtomAction>> = net.fibs.iter().map(|f| self.atoms.paint(f)).collect();
        let n_atoms = self.atoms.len();
        self.table = (0..n_atoms)
            .map(|a| per_dev.iter().map(|col| col[a].clone()).collect())
            .collect();
        self.net = Some(net.clone());
        self.workload = workload.clone();
        self.verify_atoms(None)
    }

    fn apply_update(&mut self, update: &RuleUpdate) -> BaselineReport {
        let net = self.net.as_mut().expect("verify_burst first");
        net.apply(update);
        let dev = update.device();
        let prefix = match update {
            RuleUpdate::Insert { rule, .. } => rule.matches.dst,
            RuleUpdate::Remove { matches, .. } => matches.dst,
        };
        // Split atoms in place; duplicate table rows accordingly.
        for e in self.atoms.insert(&prefix) {
            let row = self.table[e].clone();
            self.table.insert(e, row);
        }
        // Repaint only the updated device over the touched atoms.
        let range = self.atoms.atoms_of(&prefix);
        let fib = self.net.as_ref().unwrap().fib(dev).clone();
        let painted = self.atoms.paint(&fib);
        let affected: Vec<usize> = range.collect();
        for &a in &affected {
            self.table[a][dev.idx()] = painted[a].clone();
        }
        self.verify_atoms(Some(&affected))
    }

    fn reverify(&mut self) -> BaselineReport {
        self.verify_atoms(None)
    }

    fn memory_bytes(&self) -> usize {
        // Per cell: the Vec header + hops; the dominant cost at scale.
        self.table
            .iter()
            .map(|row| {
                row.iter()
                    .map(|a| 32 + 4 * a.next_hops.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_datasets::{by_name, rule_updates, Scale};
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
    use tulkun_netmodel::routing::InjectedError;

    #[test]
    fn clean_network_verifies() {
        let d = by_name("INet2", Scale::Tiny).unwrap();
        let wl = Workload::all_pairs(&d.network);
        let mut tool = DeltaNet::new();
        let report = tool.verify_burst(&d.network, &wl);
        assert_eq!(report.violations, 0, "clean dataset must verify");
        assert!(report.checked > 0);
        assert!(tool.memory_bytes() > 0);
    }

    #[test]
    fn blackhole_is_detected() {
        let d = by_name("INet2", Scale::Tiny).unwrap();
        let mut net = d.network.clone();
        let (dst, prefix) = net.topology.external_map().next().unwrap();
        // Blackhole at a device that routes toward dst.
        let victim = net.topology.devices().find(|v| *v != dst).unwrap();
        tulkun_netmodel::routing::inject_errors(
            &mut net,
            &[InjectedError::Blackhole {
                device: victim,
                prefix,
            }],
        );
        let wl = Workload::all_pairs(&net);
        let mut tool = DeltaNet::new();
        let report = tool.verify_burst(&net, &wl);
        assert!(report.violations > 0, "blackhole must be detected");
    }

    #[test]
    fn incremental_update_detects_new_drop() {
        let d = by_name("B4-13", Scale::Tiny).unwrap();
        let wl = Workload::all_pairs(&d.network);
        let mut tool = DeltaNet::new();
        assert_eq!(tool.verify_burst(&d.network, &wl).violations, 0);

        // Drop one announced /24 at a transit device.
        let (dst, prefix) = d.network.topology.external_map().next().unwrap();
        let victim = d.network.topology.devices().find(|v| *v != dst).unwrap();
        let update = RuleUpdate::Insert {
            device: victim,
            rule: Rule {
                priority: 99,
                matches: MatchSpec::dst(prefix),
                action: Action::Drop,
            },
        };
        let report = tool.apply_update(&update);
        assert!(report.violations > 0);
        // The incremental check looked at far fewer classes than burst.
        assert!(report.classes <= 4);
    }

    #[test]
    fn random_update_stream_applies() {
        let d = by_name("INet2", Scale::Tiny).unwrap();
        let wl = Workload::all_pairs(&d.network);
        let mut tool = DeltaNet::new();
        tool.verify_burst(&d.network, &wl);
        for u in rule_updates(&d.network, 50, 3) {
            tool.apply_update(&u);
        }
    }
}
