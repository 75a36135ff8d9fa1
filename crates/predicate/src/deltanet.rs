//! Delta-net-style predicate backend.
//!
//! Maintains one global, splittable partition of the destination space
//! into *atoms* — maximal address ranges not split by any boundary seen
//! so far — and represents every predicate as an interned sorted list
//! of atom ids. Set algebra is then plain sorted-list merging with no
//! interval arithmetic at all, which is Delta-net's core claim: once
//! the boundary set stabilises (steady-state churn over a stable prefix
//! population), updates never split atoms and the hot path touches only
//! small id lists.
//!
//! Inserting a new boundary splits one atom and renumbers the ones
//! after it; all interned predicates are remapped in place, so handles
//! held by the verifier stay valid (handle 0 stays the empty set,
//! handle 1 the full space).

use crate::atoms::AtomPartition;
use crate::dst_only::{DstOnlyBackend, DstRepr, Interner};
use crate::ipset::Iv;

/// The atom-list representation over a splittable global
/// [`AtomPartition`].
#[derive(Default)]
pub struct AtomRepr {
    atoms: AtomPartition,
    /// Atom splits performed since construction (boundary insertions).
    splits: u64,
}

/// Predicate backend over a splittable global atom partition.
pub type DeltaNetBackend = DstOnlyBackend<AtomRepr>;

impl DeltaNetBackend {
    /// Atom splits performed so far (zero in steady state).
    pub fn split_count(&self) -> u64 {
        self.repr().splits
    }
}

impl DstRepr for AtomRepr {
    type Elem = u32;
    const NAME: &'static str = "deltanet";

    fn and(a: &[u32], b: &[u32]) -> Vec<u32> {
        merge_intersect(a, b)
    }

    fn or(a: &[u32], b: &[u32]) -> Vec<u32> {
        merge_union(a, b)
    }

    fn diff(a: &[u32], b: &[u32]) -> Vec<u32> {
        merge_diff(a, b)
    }

    fn overlaps(a: &[u32], b: &[u32]) -> bool {
        sorted_overlap(a, b)
    }

    fn encode(&mut self, ivs: &[Iv], sets: &mut Interner<u32>) -> Vec<u32> {
        for &(lo, hi) in ivs {
            for bound in [lo, hi] {
                let Some(split) = self.atoms.split_at(bound) else {
                    continue;
                };
                // Atom `split` became `split` and `split + 1`; later
                // atoms shifted up by one.
                self.splits += 1;
                let split = split as u32;
                sets.remap(|set| {
                    let mut remapped = Vec::with_capacity(set.len() + 1);
                    for &id in set {
                        if id < split {
                            remapped.push(id);
                        } else if id == split {
                            remapped.push(split);
                            remapped.push(split + 1);
                        } else {
                            remapped.push(id + 1);
                        }
                    }
                    remapped
                });
            }
        }
        // Canonical interval lists are sorted and disjoint, so the atom
        // runs are already in ascending order.
        ivs.iter()
            .flat_map(|&iv| self.atoms.atoms_in(iv))
            .map(|a| a as u32)
            .collect()
    }

    fn decode(&self, set: &[u32]) -> Vec<Iv> {
        let mut out: Vec<Iv> = Vec::new();
        for &id in set {
            let (lo, hi) = self.atoms.span(id as usize);
            match out.last_mut() {
                Some(last) if last.1 == lo => last.1 = hi,
                _ => out.push((lo, hi)),
            }
        }
        out
    }

    fn overhead_units(&self) -> usize {
        self.atoms.len() + 1
    }
}

/// Sorted-list set operations over atom ids.
fn merge_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
            if i < a.len() && j < b.len() && a[i] == b[j] {
                j += 1;
            }
            let v = a[i];
            i += 1;
            v
        } else {
            let v = b[j];
            j += 1;
            v
        };
        out.push(next);
    }
    out
}

fn merge_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    out
}

fn merge_diff(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        while j < b.len() && b[j] < a[i] {
            j += 1;
        }
        if j < b.len() && b[j] == a[i] {
            i += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out
}

fn sorted_overlap(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ipset, PredicateBackend};
    use tulkun_bdd::builder::HeaderLayout;
    use tulkun_netmodel::fib::MatchSpec;
    use tulkun_netmodel::prefix::IpPrefix;

    fn dst(addr: u32, len: u8) -> MatchSpec {
        MatchSpec::dst(IpPrefix::new(addr, len))
    }

    #[test]
    fn splits_remap_existing_handles() {
        let mut be = DeltaNetBackend::new(HeaderLayout::ipv4_tcp());
        let a = be.match_pred(&dst(0x0a000000, 8)); // 10/8
        let full = be.verum();
        // Overlapping narrower prefix splits 10/8's atom; `a` and the
        // full-space handle must still denote the same address sets.
        let b = be.match_pred(&dst(0x0a000000, 9)); // 10.0/9
        assert!(be.split_count() > 0);
        assert_eq!(be.and(a, b), b, "10.0/9 is inside 10/8");
        assert_eq!(be.ivs(a), vec![(0x0a000000, 0x0b000000)]);
        assert_eq!(be.ivs(full), vec![ipset::FULL]);
        let rest = be.diff(full, a);
        assert_eq!(be.or(rest, a), full);
    }

    #[test]
    fn steady_state_has_no_splits() {
        let mut be = DeltaNetBackend::new(HeaderLayout::ipv4_tcp());
        for i in 0..16u32 {
            be.match_pred(&dst(i << 24, 8));
        }
        let after_warmup = be.split_count();
        // Re-announcing the same prefix population: pure list algebra.
        for i in 0..16u32 {
            let p = be.match_pred(&dst(i << 24, 8));
            let q = be.match_pred(&dst(((i + 1) % 16) << 24, 8));
            let u = be.or(p, q);
            let d = be.diff(u, q);
            assert!(!be.is_false(d));
        }
        assert_eq!(be.split_count(), after_warmup);
    }

    #[test]
    fn wire_round_trip_is_identity() {
        let mut be = DeltaNetBackend::new(HeaderLayout::ipv4_tcp());
        let a = be.match_pred(&dst(0xc0a80000, 16));
        let b = be.match_pred(&dst(0x0a000000, 23));
        let u = be.or(a, b);
        let enc = be.export(u);
        assert_eq!(be.import(&enc), u);
    }
}
