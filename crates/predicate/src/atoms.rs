//! Delta-net *atoms*: the partition of the 32-bit destination space
//! induced by a set of boundaries, and the per-atom action a FIB
//! resolves to on it.
//!
//! This is the one boundary-partition implementation of the workspace:
//! [`crate::DeltaNetBackend`] keeps its predicates as atom-id lists over
//! an [`AtomPartition`], and the centralized interval baselines
//! (Delta-net, VeriFlow, Flash) keep their per-atom forwarding tables
//! aligned with one.

use std::ops::Range;

use tulkun_netmodel::fib::{Action, Fib};
use tulkun_netmodel::{DeviceId, IpPrefix};

use crate::ipset::{prefix_iv, Iv};

/// A partition of `[0, 2³²)` into elementary intervals (*atoms*, in
/// Delta-net's terminology) induced by a set of boundaries.
#[derive(Debug, Clone)]
pub struct AtomPartition {
    /// Sorted, deduplicated boundaries; always starts with 0 and ends
    /// with 2³². Atom `i` is `[bounds[i], bounds[i+1])`.
    bounds: Vec<u64>,
}

impl Default for AtomPartition {
    fn default() -> Self {
        AtomPartition::new()
    }
}

impl AtomPartition {
    /// The trivial partition (one atom covering everything).
    pub fn new() -> Self {
        AtomPartition {
            bounds: vec![0, 1 << 32],
        }
    }

    /// Builds the partition induced by a set of prefixes.
    pub fn from_prefixes<'a>(prefixes: impl Iterator<Item = &'a IpPrefix>) -> Self {
        let mut bounds = vec![0u64, 1 << 32];
        for p in prefixes {
            let (lo, hi) = prefix_iv(p);
            bounds.push(lo);
            bounds.push(hi);
        }
        bounds.sort_unstable();
        bounds.dedup();
        AtomPartition { bounds }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// True if only the trivial atom exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// The addresses of atom `i`; its low end doubles as a
    /// representative address inside the atom.
    pub fn span(&self, i: usize) -> Iv {
        (self.bounds[i], self.bounds[i + 1])
    }

    /// The atom index range covering `[lo, hi)` (exact when both ends
    /// are boundaries).
    pub fn atoms_in(&self, (lo, hi): Iv) -> Range<usize> {
        let a = self.bounds.partition_point(|&b| b < lo);
        let b = self.bounds.partition_point(|&b| b < hi);
        a..b
    }

    /// The atom index range covering a prefix (assumes the prefix's
    /// boundaries are present — they are whenever the prefix came from a
    /// rule used to build the partition).
    pub fn atoms_of(&self, p: &IpPrefix) -> Range<usize> {
        self.atoms_in(prefix_iv(p))
    }

    /// Makes `v` a boundary. Returns the index of the atom it split in
    /// two (atoms after it shift up by one), or `None` if `v` already
    /// was a boundary.
    pub fn split_at(&mut self, v: u64) -> Option<usize> {
        debug_assert!(v <= 1 << 32);
        match self.bounds.binary_search(&v) {
            Ok(_) => None,
            Err(i) => {
                // v falls strictly inside atom i-1.
                self.bounds.insert(i, v);
                Some(i - 1)
            }
        }
    }

    /// Inserts the boundaries of a prefix. Returns *duplication events*:
    /// for each event `e`, applied in order, a side table `t` aligned
    /// with the atoms must execute `t.insert(e, t[e].clone())` — the atom
    /// at `e` was split in two.
    pub fn insert(&mut self, p: &IpPrefix) -> Vec<usize> {
        let (lo, hi) = prefix_iv(p);
        [lo, hi]
            .into_iter()
            .filter_map(|v| self.split_at(v))
            .collect()
    }

    /// Resolves a device's next hops per atom by painting rules from
    /// lowest to highest priority (higher priority wins). Returns, per
    /// atom, the device next hops (empty = drop) and whether it delivers
    /// externally.
    pub fn paint(&self, fib: &Fib) -> Vec<AtomAction> {
        let mut out = vec![AtomAction::default(); self.len()];
        // `Fib::rules()` is descending priority; paint in reverse.
        for rule in fib.rules().iter().rev() {
            // Interval machinery models destination-IP forwarding only (the
            // same restriction the paper notes for Delta-net's atoms); port
            // or proto constraints are ignored here.
            let act = AtomAction::from_action(&rule.action);
            for slot in &mut out[self.atoms_of(&rule.matches.dst)] {
                *slot = act.clone();
            }
        }
        out
    }
}

/// A resolved per-atom action.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomAction {
    /// Device next hops for the atom.
    pub next_hops: Vec<DeviceId>,
    /// Does the device deliver the atom externally?
    pub delivers: bool,
}

impl AtomAction {
    /// Projects a FIB action.
    pub fn from_action(a: &Action) -> AtomAction {
        AtomAction {
            next_hops: a.device_next_hops(),
            delivers: a.delivers_external(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_netmodel::fib::{MatchSpec, Rule};

    fn pfx(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    #[test]
    fn partition_from_prefixes() {
        let ps = [pfx("10.0.0.0/24"), pfx("10.0.0.0/23"), pfx("10.0.1.0/24")];
        let atoms = AtomPartition::from_prefixes(ps.iter());
        // Boundaries: 0, 10.0.0.0, 10.0.1.0, 10.0.2.0, 2^32 → 4 atoms.
        assert_eq!(atoms.len(), 4);
        assert_eq!(atoms.atoms_of(&pfx("10.0.0.0/23")), 1..3);
        assert_eq!(atoms.atoms_of(&pfx("10.0.0.0/24")), 1..2);
        assert_eq!(atoms.atoms_of(&pfx("10.0.1.0/24")), 2..3);
    }

    #[test]
    fn insert_splits_atoms() {
        let mut atoms = AtomPartition::from_prefixes([pfx("10.0.0.0/23")].iter());
        assert_eq!(atoms.len(), 3);
        let split = atoms.insert(&pfx("10.0.0.0/24"));
        // 10.0.0.0 existed; 10.0.1.0 splits the middle atom (index 1).
        assert_eq!(split, vec![1]);
        assert_eq!(atoms.len(), 4);
        // Re-inserting changes nothing.
        assert!(atoms.insert(&pfx("10.0.0.0/24")).is_empty());
    }

    #[test]
    fn insert_can_split_twice() {
        let mut atoms = AtomPartition::new();
        let events = atoms.insert(&pfx("10.0.0.0/24"));
        assert_eq!(events, vec![0, 1]);
        assert_eq!(atoms.len(), 3);
        // Applying the events to an aligned side table keeps it aligned.
        let mut table = vec!["x"];
        for e in events {
            table.insert(e, table[e]);
        }
        assert_eq!(table.len(), atoms.len());
    }

    #[test]
    fn paint_respects_priority() {
        let atoms = AtomPartition::from_prefixes([pfx("10.0.0.0/23"), pfx("10.0.0.0/24")].iter());
        let mut fib = Fib::new();
        fib.insert(Rule {
            priority: 23,
            matches: MatchSpec::dst(pfx("10.0.0.0/23")),
            action: Action::fwd(DeviceId(1)),
        });
        fib.insert(Rule {
            priority: 24,
            matches: MatchSpec::dst(pfx("10.0.0.0/24")),
            action: Action::Drop,
        });
        let painted = atoms.paint(&fib);
        let r24 = atoms.atoms_of(&pfx("10.0.0.0/24"));
        assert!(
            painted[r24.start].next_hops.is_empty(),
            "/24 must be dropped"
        );
        let r23 = atoms.atoms_of(&pfx("10.0.0.0/23"));
        assert_eq!(painted[r23.end - 1].next_hops, vec![DeviceId(1)]);
        // Outside both prefixes: default drop.
        assert!(painted[0].next_hops.is_empty());
    }
}
