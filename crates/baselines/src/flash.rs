//! Flash-style baseline: batch equivalence-class computation (fast
//! bursts over massive rule sets), slower per-update incremental
//! processing, and the *early detection* mode that verifies with
//! incomplete information (§1's missing-devices experiment).

use crate::common::{reach_set, BaselineReport, CentralizedDpv, Workload};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::DeviceId;
use tulkun_predicate::{AtomAction, AtomPartition};

/// The Flash baseline.
#[derive(Default)]
pub struct Flash {
    atoms: AtomPartition,
    /// `table[device][atom]` (device-major: Flash's per-device batch
    /// painting).
    table: Vec<Vec<AtomAction>>,
    net: Option<Network>,
    workload: Workload,
}

impl Flash {
    /// Fresh instance.
    pub fn new() -> Self {
        Flash {
            atoms: AtomPartition::new(),
            table: Vec::new(),
            net: None,
            workload: Workload { pairs: Vec::new() },
        }
    }

    fn rebuild(&mut self) {
        let net = self.net.as_ref().expect("snapshot");
        let rule_prefixes = net
            .fibs
            .iter()
            .flat_map(|f| f.rules().iter().map(|r| &r.matches.dst));
        let wl_prefixes = self.workload.pairs.iter().map(|(_, p)| p);
        let all: Vec<_> = rule_prefixes.chain(wl_prefixes).cloned().collect();
        self.atoms = AtomPartition::from_prefixes(all.iter());
        self.table = net.fibs.iter().map(|f| self.atoms.paint(f)).collect();
    }

    fn verify_atoms(&self, filter: Option<std::ops::Range<usize>>) -> BaselineReport {
        self.verify_atoms_missing(filter, &[])
    }

    fn verify_atoms_missing(
        &self,
        filter: Option<std::ops::Range<usize>>,
        missing: &[DeviceId],
    ) -> BaselineReport {
        let net = self.net.as_ref().expect("verify_burst first");
        let n = net.topology.num_devices();
        let mut report = BaselineReport::default();
        for (dst, prefix) in &self.workload.pairs {
            for atom in self.atoms.atoms_of(prefix) {
                if let Some(f) = &filter {
                    if !f.contains(&atom) {
                        continue;
                    }
                }
                report.classes += 1;
                let mut edges: Vec<Vec<DeviceId>> = self
                    .table
                    .iter()
                    .map(|col| col[atom].next_hops.clone())
                    .collect();
                let mut delivered = self.table[dst.idx()][atom].delivers;
                // Early detection with incomplete information: a missing
                // device's behaviour is unknown; Flash optimistically
                // assumes it is correct (it cannot prove an error through
                // it), so errors at or behind missing devices go
                // undetected.
                for &m in missing {
                    edges[m.idx()] = vec![*dst];
                    if m == *dst {
                        delivered = true;
                    }
                }
                let reached = reach_set(n, &edges, *dst);
                for d in net.topology.devices() {
                    if d == *dst {
                        continue;
                    }
                    report.checked += 1;
                    if missing.contains(&d) {
                        continue; // unknown source FIB: nothing to claim
                    }
                    if !delivered || !reached[d.idx()] {
                        report.violations += 1;
                    }
                }
            }
        }
        report
    }

    /// The §1 experiment: verify while the rules of `missing` devices
    /// have not reached the verifier. Returns how many violations are
    /// still detectable.
    pub fn verify_with_missing(
        &mut self,
        net: &Network,
        workload: &Workload,
        missing: &[DeviceId],
    ) -> BaselineReport {
        self.net = Some(net.clone());
        self.workload = workload.clone();
        self.rebuild();
        self.verify_atoms_missing(None, missing)
    }
}

impl CentralizedDpv for Flash {
    fn name(&self) -> &'static str {
        "Flash"
    }

    fn verify_burst(&mut self, net: &Network, workload: &Workload) -> BaselineReport {
        self.net = Some(net.clone());
        self.workload = workload.clone();
        self.rebuild();
        self.verify_atoms(None)
    }

    fn apply_update(&mut self, update: &RuleUpdate) -> BaselineReport {
        // Flash processes updates as (mini-)batches: apply, then rebuild
        // the partition and repaint every device before re-verifying the
        // touched range — correct but heavyweight per single update,
        // which is exactly the paper's observation.
        let net = self.net.as_mut().expect("verify_burst first");
        net.apply(update);
        let prefix = match update {
            RuleUpdate::Insert { rule, .. } => rule.matches.dst,
            RuleUpdate::Remove { matches, .. } => matches.dst,
        };
        self.rebuild();
        let range = self.atoms.atoms_of(&prefix);
        self.verify_atoms(Some(range))
    }

    fn reverify(&mut self) -> BaselineReport {
        self.verify_atoms(None)
    }

    fn memory_bytes(&self) -> usize {
        self.table
            .iter()
            .map(|col| {
                col.iter()
                    .map(|a| 32 + 4 * a.next_hops.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_datasets::{by_name, Scale};
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};

    #[test]
    fn burst_and_incremental() {
        let d = by_name("STFD", Scale::Tiny).unwrap();
        let wl = Workload::all_pairs(&d.network);
        let mut tool = Flash::new();
        assert_eq!(tool.verify_burst(&d.network, &wl).violations, 0);
        let (dst, prefix) = d.network.topology.external_map().next().unwrap();
        let victim = d.network.topology.devices().find(|v| *v != dst).unwrap();
        let r = tool.apply_update(&RuleUpdate::Insert {
            device: victim,
            rule: Rule {
                priority: 99,
                matches: MatchSpec::dst(prefix),
                action: Action::Drop,
            },
        });
        assert!(r.violations > 0);
    }

    #[test]
    fn missing_devices_hide_errors() {
        // Reproduce the §1 observation: a blackhole at a device whose
        // rules the verifier never received is undetectable.
        let d = by_name("INet2", Scale::Tiny).unwrap();
        let mut net = d.network.clone();
        let (dst, prefix) = net.topology.external_map().next().unwrap();
        let victim = net.topology.devices().find(|v| *v != dst).unwrap();
        net.apply(&RuleUpdate::Insert {
            device: victim,
            rule: Rule {
                priority: 99,
                matches: MatchSpec::dst(prefix),
                action: Action::Drop,
            },
        });
        let wl = Workload::all_pairs(&net);

        let mut tool = Flash::new();
        let full = tool.verify_burst(&net, &wl);
        assert!(full.violations > 0, "with full info the error is visible");

        let mut tool = Flash::new();
        let partial = tool.verify_with_missing(&net, &wl, &[victim]);
        assert!(
            partial.violations < full.violations,
            "missing the victim's rules must hide (some of) the error"
        );
    }
}
