//! VeriFlow-style baseline: equivalence classes computed *per query*
//! from the rules overlapping the queried prefix (trie-slice style).
//! No persistent atom table — cheap memory, but bursts recompute
//! everything and updates recompute the overlapping ECs.

use crate::common::{reach_set, BaselineReport, CentralizedDpv, Workload};
use tulkun_netmodel::fib::Fib;
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::{DeviceId, IpPrefix};
use tulkun_predicate::ipset::prefix_iv;
use tulkun_predicate::{AtomAction, AtomPartition};

/// The VeriFlow baseline.
#[derive(Default)]
pub struct VeriFlow {
    net: Option<Network>,
    workload: Workload,
}

impl VeriFlow {
    /// Fresh instance.
    pub fn new() -> Self {
        VeriFlow {
            net: None,
            workload: Workload { pairs: Vec::new() },
        }
    }

    /// Local ECs of a prefix: boundaries contributed by every rule that
    /// overlaps it, across all devices.
    fn local_atoms(net: &Network, prefix: &IpPrefix) -> AtomPartition {
        let overlapping: Vec<IpPrefix> = net
            .fibs
            .iter()
            .flat_map(|f| f.rules().iter().map(|r| r.matches.dst))
            .filter(|p| p.overlaps(prefix))
            .chain(std::iter::once(*prefix))
            .collect();
        AtomPartition::from_prefixes(overlapping.iter())
    }

    /// Resolves one device's action for an atom by longest-priority
    /// lookup on a sample address.
    fn resolve(fib: &Fib, sample: u64) -> AtomAction {
        for rule in fib.rules() {
            let (lo, hi) = prefix_iv(&rule.matches.dst);
            if (lo..hi).contains(&sample) {
                return AtomAction::from_action(&rule.action);
            }
        }
        AtomAction::default()
    }

    /// Verifies all ECs of `prefix` toward `dst`.
    fn verify_pair(
        &self,
        dst: DeviceId,
        prefix: &IpPrefix,
        scope: Option<&IpPrefix>,
    ) -> BaselineReport {
        let net = self.net.as_ref().expect("verify_burst first");
        let n = net.topology.num_devices();
        let atoms = Self::local_atoms(net, prefix);
        let mut report = BaselineReport::default();
        for atom in atoms.atoms_of(prefix) {
            let sample = atoms.span(atom).0;
            if let Some(scope) = scope {
                let (lo, hi) = prefix_iv(scope);
                if !(lo..hi).contains(&sample) {
                    continue;
                }
            }
            report.classes += 1;
            let actions: Vec<AtomAction> =
                net.fibs.iter().map(|f| Self::resolve(f, sample)).collect();
            let edges: Vec<Vec<DeviceId>> = actions.iter().map(|a| a.next_hops.clone()).collect();
            let delivered = actions[dst.idx()].delivers;
            let reached = reach_set(n, &edges, dst);
            for d in net.topology.devices() {
                if d == dst {
                    continue;
                }
                report.checked += 1;
                if !delivered || !reached[d.idx()] {
                    report.violations += 1;
                }
            }
        }
        report
    }
}

impl CentralizedDpv for VeriFlow {
    fn name(&self) -> &'static str {
        "VeriFlow"
    }

    fn verify_burst(&mut self, net: &Network, workload: &Workload) -> BaselineReport {
        self.net = Some(net.clone());
        self.workload = workload.clone();
        let pairs = self.workload.pairs.clone();
        let mut report = BaselineReport::default();
        for (dst, prefix) in &pairs {
            report.absorb(self.verify_pair(*dst, prefix, None));
        }
        report
    }

    fn apply_update(&mut self, update: &RuleUpdate) -> BaselineReport {
        let net = self.net.as_mut().expect("verify_burst first");
        net.apply(update);
        let prefix = match update {
            RuleUpdate::Insert { rule, .. } => rule.matches.dst,
            RuleUpdate::Remove { matches, .. } => matches.dst,
        };
        // Re-verify only the workload pairs whose prefix overlaps the
        // update, restricted to the update's range.
        let pairs = self.workload.pairs.clone();
        let mut report = BaselineReport::default();
        for (dst, p) in &pairs {
            if p.overlaps(&prefix) {
                report.absorb(self.verify_pair(*dst, p, Some(&prefix)));
            }
        }
        report
    }

    fn reverify(&mut self) -> BaselineReport {
        // VeriFlow keeps no persistent EC structures: a re-verification
        // recomputes everything.
        let pairs = self.workload.pairs.clone();
        let mut report = BaselineReport::default();
        for (dst, prefix) in &pairs {
            report.absorb(self.verify_pair(*dst, prefix, None));
        }
        report
    }

    fn memory_bytes(&self) -> usize {
        // Only the retained snapshot.
        self.net
            .as_ref()
            .map(|n| n.total_rules() * std::mem::size_of::<tulkun_netmodel::fib::Rule>())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_datasets::{by_name, Scale};
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};

    #[test]
    fn clean_network_verifies_and_detects_injected_error() {
        let d = by_name("B4-13", Scale::Tiny).unwrap();
        let wl = Workload::all_pairs(&d.network);
        let mut tool = VeriFlow::new();
        assert_eq!(tool.verify_burst(&d.network, &wl).violations, 0);

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
        let r = tool.apply_update(&update);
        assert!(r.violations > 0);
    }

    #[test]
    fn update_scope_is_narrow() {
        let d = by_name("INet2", Scale::Tiny).unwrap();
        let wl = Workload::all_pairs(&d.network);
        let mut tool = VeriFlow::new();
        let burst = tool.verify_burst(&d.network, &wl);
        // A /26 sub-prefix drop only re-verifies classes inside the /26.
        let (_, prefix) = d.network.topology.external_map().next().unwrap();
        let (sub, _) = prefix.split();
        let (sub, _) = sub.split();
        let dev = d.network.topology.devices().next().unwrap();
        let update = RuleUpdate::Insert {
            device: dev,
            rule: Rule {
                priority: 99,
                matches: MatchSpec::dst(sub),
                action: Action::Drop,
            },
        };
        let incr = tool.apply_update(&update);
        assert!(incr.classes < burst.classes);
    }
}
