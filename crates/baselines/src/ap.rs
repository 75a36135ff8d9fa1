//! Atomic-predicates baselines: AP (Yang & Lam) and APKeep (Zhang et
//! al.). Both represent packet sets as BDDs and partition the header
//! space into *atomic predicates*; they differ in how updates are
//! handled — AP re-derives the atom set, APKeep maintains it
//! incrementally.

use crate::common::{reach_set, BaselineReport, CentralizedDpv, Workload};
use tulkun_bdd::{BddManager, HeaderLayout, Pred};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::DeviceId;
use tulkun_predicate::AtomAction;

struct State {
    mgr: BddManager,
    layout: HeaderLayout,
    /// The atomic predicates (a partition of the header space).
    atoms: Vec<Pred>,
    /// Per distinct match predicate: the atoms inside it (AP represents
    /// every packet set as a set of atom indices).
    pred_atoms: std::collections::HashMap<Pred, Vec<usize>>,
    /// `table[device][atom]`.
    table: Vec<Vec<AtomAction>>,
    net: Network,
    workload: Workload,
    /// Per workload pair: the atoms inside its prefix.
    pair_atoms: Vec<Vec<usize>>,
}

impl State {
    fn build(net: &Network, workload: &Workload) -> State {
        let layout = net.layout;
        let mut mgr = BddManager::new(layout.num_vars());
        // Distinct match predicates from every rule plus workload
        // prefixes.
        let mut preds: Vec<Pred> = Vec::new();
        let mut seen: std::collections::HashSet<Pred> = std::collections::HashSet::new();
        for fib in &net.fibs {
            for rule in fib.rules() {
                let p = rule.matches.to_pred(&mut mgr, &layout);
                if seen.insert(p) {
                    preds.push(p);
                }
            }
        }
        for (_, prefix) in &workload.pairs {
            let p = prefix.to_pred(&mut mgr, &layout);
            if seen.insert(p) {
                preds.push(p);
            }
        }
        let full = mgr.verum();
        let atoms = refine(&mut mgr, vec![full], &preds);
        // Index every predicate as its atom set (the AP representation).
        let mut pred_atoms = std::collections::HashMap::new();
        for &p in &preds {
            let inside: Vec<usize> = atoms
                .iter()
                .enumerate()
                .filter(|(_, &a)| mgr.implies(a, p))
                .map(|(i, _)| i)
                .collect();
            pred_atoms.insert(p, inside);
        }
        let mut st = State {
            mgr,
            layout,
            atoms,
            pred_atoms,
            table: Vec::new(),
            net: net.clone(),
            workload: workload.clone(),
            pair_atoms: Vec::new(),
        };
        st.paint_all();
        st.index_pairs();
        st
    }

    /// Paints every device's per-atom action.
    fn paint_all(&mut self) {
        let n = self.net.topology.num_devices();
        self.table = (0..n)
            .map(|d| self.paint_device(DeviceId(d as u32)))
            .collect();
    }

    fn paint_device(&mut self, dev: DeviceId) -> Vec<AtomAction> {
        let fib = self.net.fib(dev).clone();
        let mut out = vec![AtomAction::default(); self.atoms.len()];
        // Paint ascending priority so higher priorities overwrite; each
        // rule's atom set comes from the shared index.
        for rule in fib.rules().iter().rev() {
            let mp = rule.matches.to_pred(&mut self.mgr, &self.layout);
            let act = AtomAction::from_action(&rule.action);
            if let Some(ids) = self.pred_atoms.get(&mp) {
                for &i in ids {
                    out[i] = act.clone();
                }
            } else {
                // Predicate unseen at build time (possible after an
                // APKeep split): fall back to implication tests and
                // memoize.
                let ids: Vec<usize> = self
                    .atoms
                    .iter()
                    .enumerate()
                    .filter(|(_, &a)| self.mgr.implies(a, mp))
                    .map(|(i, _)| i)
                    .collect();
                for &i in &ids {
                    out[i] = act.clone();
                }
                self.pred_atoms.insert(mp, ids);
            }
        }
        out
    }

    fn index_pairs(&mut self) {
        self.pair_atoms = self
            .workload
            .pairs
            .clone()
            .iter()
            .map(|(_, prefix)| {
                let pp = prefix.to_pred(&mut self.mgr, &self.layout);
                self.atoms
                    .iter()
                    .enumerate()
                    .filter(|(_, &a)| self.mgr.implies(a, pp))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
    }

    fn verify(&self, filter: Option<&[usize]>) -> BaselineReport {
        let n = self.net.topology.num_devices();
        let mut report = BaselineReport::default();
        for (pi, (dst, _)) in self.workload.pairs.iter().enumerate() {
            for &atom in &self.pair_atoms[pi] {
                if let Some(f) = filter {
                    if !f.contains(&atom) {
                        continue;
                    }
                }
                report.classes += 1;
                let edges: Vec<Vec<DeviceId>> = self
                    .table
                    .iter()
                    .map(|col| col[atom].next_hops.clone())
                    .collect();
                let delivered = self.table[dst.idx()][atom].delivers;
                let reached = reach_set(n, &edges, *dst);
                for d in self.net.topology.devices() {
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

    fn memory_bytes(&self) -> usize {
        self.mgr.node_count() * 16
            + self
                .table
                .iter()
                .map(|col| {
                    col.iter()
                        .map(|a| 32 + 4 * a.next_hops.len())
                        .sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// Refines a partition with a predicate list.
fn refine(mgr: &mut BddManager, start: Vec<Pred>, preds: &[Pred]) -> Vec<Pred> {
    let mut atoms = start;
    for &p in preds {
        let mut next = Vec::with_capacity(atoms.len() + 8);
        for &a in &atoms {
            let inside = mgr.and(a, p);
            if mgr.is_false(inside) {
                next.push(a);
                continue;
            }
            let outside = mgr.diff(a, p);
            next.push(inside);
            if !mgr.is_false(outside) {
                next.push(outside);
            }
        }
        atoms = next;
    }
    atoms
}

/// The AP baseline: snapshot verification with BDD atomic predicates;
/// updates re-derive atoms and repaint every device.
#[derive(Default)]
pub struct Ap {
    st: Option<State>,
}

impl Ap {
    /// Fresh instance.
    pub fn new() -> Self {
        Ap { st: None }
    }
}

impl CentralizedDpv for Ap {
    fn name(&self) -> &'static str {
        "AP"
    }

    fn verify_burst(&mut self, net: &Network, workload: &Workload) -> BaselineReport {
        let st = State::build(net, workload);
        let r = st.verify(None);
        self.st = Some(st);
        r
    }

    fn apply_update(&mut self, update: &RuleUpdate) -> BaselineReport {
        let st = self.st.as_mut().expect("verify_burst first");
        st.net.apply(update);
        // AP has no incremental atom maintenance: rebuild.
        let rebuilt = State::build(&st.net.clone(), &st.workload.clone());
        *st = rebuilt;
        // Re-verify the pairs overlapping the update.
        let prefix = match update {
            RuleUpdate::Insert { rule, .. } => rule.matches.dst,
            RuleUpdate::Remove { matches, .. } => matches.dst,
        };
        let affected: Vec<usize> = {
            let pp = prefix.to_pred(&mut st.mgr, &st.layout);
            st.atoms
                .iter()
                .enumerate()
                .filter(|(_, &a)| st.mgr.intersects(a, pp))
                .map(|(i, _)| i)
                .collect()
        };
        st.verify(Some(&affected))
    }

    fn reverify(&mut self) -> BaselineReport {
        self.st.as_ref().expect("verify_burst first").verify(None)
    }

    fn memory_bytes(&self) -> usize {
        self.st.as_ref().map(State::memory_bytes).unwrap_or(0)
    }
}

/// The APKeep baseline: maintains the atom partition incrementally —
/// an update splits only the atoms its predicate cuts, repaints only the
/// updated device, and re-verifies only the affected atoms.
#[derive(Default)]
pub struct ApKeep {
    st: Option<State>,
}

impl ApKeep {
    /// Fresh instance.
    pub fn new() -> Self {
        ApKeep { st: None }
    }
}

impl CentralizedDpv for ApKeep {
    fn name(&self) -> &'static str {
        "APKeep"
    }

    fn verify_burst(&mut self, net: &Network, workload: &Workload) -> BaselineReport {
        let st = State::build(net, workload);
        let r = st.verify(None);
        self.st = Some(st);
        r
    }

    fn apply_update(&mut self, update: &RuleUpdate) -> BaselineReport {
        let st = self.st.as_mut().expect("verify_burst first");
        st.net.apply(update);
        let dev = update.device();
        let (matches,) = match update {
            RuleUpdate::Insert { rule, .. } => (rule.matches,),
            RuleUpdate::Remove { matches, .. } => (*matches,),
        };
        let mp = matches.to_pred(&mut st.mgr, &st.layout);

        // Incrementally split atoms cut by the new predicate; duplicate
        // table columns and pair indices accordingly.
        let mut affected: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < st.atoms.len() {
            let a = st.atoms[i];
            let inside = st.mgr.and(a, mp);
            if st.mgr.is_false(inside) {
                i += 1;
                continue;
            }
            let outside = st.mgr.diff(a, mp);
            if st.mgr.is_false(outside) {
                affected.push(i);
                i += 1;
                continue;
            }
            // Split: atom i becomes `inside`; `outside` is appended
            // right after, inheriting the action rows.
            st.atoms[i] = inside;
            st.atoms.insert(i + 1, outside);
            for col in &mut st.table {
                let row = col[i].clone();
                col.insert(i + 1, row);
            }
            for pa in &mut st.pair_atoms {
                let mut add = Vec::new();
                for idx in pa.iter_mut() {
                    if *idx > i {
                        *idx += 1;
                    } else if *idx == i {
                        add.push(i + 1);
                    }
                }
                pa.extend(add);
            }
            affected.push(i);
            i += 2;
        }

        // Atom indices shifted: the predicate→atoms index is stale.
        st.pred_atoms.clear();
        // Repaint only the updated device on the affected atoms.
        let painted = st.paint_device(dev);
        for &a in &affected {
            st.table[dev.idx()][a] = painted[a].clone();
        }
        st.verify(Some(&affected))
    }

    fn reverify(&mut self) -> BaselineReport {
        self.st.as_ref().expect("verify_burst first").verify(None)
    }

    fn memory_bytes(&self) -> usize {
        self.st.as_ref().map(State::memory_bytes).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_datasets::{by_name, Scale};
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};

    fn blackhole_update(net: &Network) -> (RuleUpdate, usize) {
        let (dst, prefix) = net.topology.external_map().next().unwrap();
        let victim = net.topology.devices().find(|v| *v != dst).unwrap();
        (
            RuleUpdate::Insert {
                device: victim,
                rule: Rule {
                    priority: 99,
                    matches: MatchSpec::dst(prefix),
                    action: Action::Drop,
                },
            },
            victim.idx(),
        )
    }

    #[test]
    fn ap_burst_and_update() {
        let d = by_name("INet2", Scale::Tiny).unwrap();
        let wl = Workload::all_pairs(&d.network);
        let mut tool = Ap::new();
        let burst = tool.verify_burst(&d.network, &wl);
        assert_eq!(burst.violations, 0);
        assert!(burst.classes >= wl.pairs.len());
        let (u, _) = blackhole_update(&d.network);
        let r = tool.apply_update(&u);
        assert!(r.violations > 0);
    }

    #[test]
    fn apkeep_burst_and_update_agree_with_ap() {
        let d = by_name("B4-13", Scale::Tiny).unwrap();
        let wl = Workload::all_pairs(&d.network);
        let mut ap = Ap::new();
        let mut apk = ApKeep::new();
        let b1 = ap.verify_burst(&d.network, &wl);
        let b2 = apk.verify_burst(&d.network, &wl);
        assert_eq!(b1.violations, b2.violations);

        let (u, _) = blackhole_update(&d.network);
        let r1 = ap.apply_update(&u);
        let r2 = apk.apply_update(&u);
        assert_eq!(r1.violations > 0, r2.violations > 0);
        // APKeep touches no more classes than AP.
        assert!(r2.classes <= r1.classes);
    }

    #[test]
    fn apkeep_subprefix_split() {
        let d = by_name("INet2", Scale::Tiny).unwrap();
        let wl = Workload::all_pairs(&d.network);
        let mut apk = ApKeep::new();
        apk.verify_burst(&d.network, &wl);
        let atoms_before = apk.st.as_ref().unwrap().atoms.len();
        // Insert a /26 drop: splits one atom.
        let (_, prefix) = d.network.topology.external_map().next().unwrap();
        let (sub, _) = prefix.split();
        let (sub, _) = sub.split();
        let dev = d.network.topology.devices().next().unwrap();
        let r = apk.apply_update(&RuleUpdate::Insert {
            device: dev,
            rule: Rule {
                priority: 99,
                matches: MatchSpec::dst(sub),
                action: Action::Drop,
            },
        });
        let atoms_after = apk.st.as_ref().unwrap().atoms.len();
        assert!(atoms_after > atoms_before);
        assert!(r.classes >= 1);
        // The drop at a transit device is a violation for the /26.
        assert!(r.violations > 0);
    }
}
