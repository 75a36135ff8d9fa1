//! Canonical interval sets over the 32-bit destination space and their
//! conversion to/from the [`PortablePred`] wire encoding.
//!
//! A set of destination addresses is represented as a sorted list of
//! disjoint, non-adjacent half-open intervals `[lo, hi)` with
//! `0 <= lo < hi <= 2^32`. Coalescing adjacent intervals makes the
//! representation canonical: equal sets have equal lists, which the
//! interval backends rely on for complete handle equality.
//!
//! The wire codec is the heart of the backend-neutrality story: the
//! encoder writes the set's ROBDD directly, one node per split of the
//! address space an interval boundary falls in — ROBDD canonicity under
//! the fixed variable order guarantees the exported bytes match what
//! [`crate::BddBackend`] would emit for the same set — and the decoder
//! walks a portable node list back into intervals.

use tulkun_bdd::builder::HeaderLayout;
use tulkun_bdd::serial::{self, PortablePred};
use tulkun_bdd::BddManager;
use tulkun_netmodel::IpPrefix;

/// One half-open interval `[lo, hi)` of destination addresses.
pub type Iv = (u64, u64);

/// Width of the destination field: the first variables of the header
/// layout, the only ones an interval set can constrain.
pub const DST_BITS: u32 = 32;

/// The full destination space as a single interval.
pub const FULL: Iv = (0, 1 << 32);

/// Set union of two canonical interval lists.
pub fn union(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    let mut out: Vec<Iv> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = if j >= b.len() || (i < a.len() && a[i].0 <= b[j].0) {
            let v = a[i];
            i += 1;
            v
        } else {
            let v = b[j];
            j += 1;
            v
        };
        match out.last_mut() {
            // Overlapping or adjacent: coalesce.
            Some(last) if next.0 <= last.1 => last.1 = last.1.max(next.1),
            _ => out.push(next),
        }
    }
    out
}

/// Set intersection of two canonical interval lists.
pub fn intersect(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Set difference `a \ b` of two canonical interval lists.
pub fn diff(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    let mut out = Vec::new();
    let mut j = 0;
    for &(mut lo, hi) in a {
        while lo < hi {
            // Skip b-intervals entirely before the remaining piece.
            while j < b.len() && b[j].1 <= lo {
                j += 1;
            }
            match b.get(j) {
                Some(&(blo, bhi)) if blo < hi => {
                    if lo < blo {
                        out.push((lo, blo));
                    }
                    lo = bhi.max(lo);
                }
                _ => {
                    out.push((lo, hi));
                    lo = hi;
                }
            }
        }
        // The next a-interval may start before b[j] ends; j never needs
        // to move backwards because a is sorted and we only advanced j
        // past b-intervals ending at or before the current position.
    }
    out
}

/// Do the two canonical interval lists share an address?
pub fn overlaps(a: &[Iv], b: &[Iv]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0.max(b[j].0) < a[i].1.min(b[j].1) {
            return true;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

/// The addresses of a destination prefix as one interval — the one
/// prefix→range helper of the workspace.
pub fn prefix_iv(p: &IpPrefix) -> Iv {
    assert!(p.len <= 32);
    let span = 1u64 << (32 - p.len as u64);
    let lo = (p.addr as u64) & !(span - 1);
    (lo, lo + span)
}

/// Encodes a canonical interval list as the ROBDD wire predicate.
///
/// Builds the set top-down ([`tulkun_bdd::builder::Field::ranges`]: one node per
/// split, no apply) and exports it; ROBDD canonicity (one reduced DAG
/// per boolean function under a fixed variable order) plus the
/// deterministic post-order serialization make the resulting bytes
/// identical to a [`crate::BddBackend`] export of the same set, whatever
/// sequence of operations produced it there.
pub fn to_portable(ivs: &[Iv], layout: &HeaderLayout) -> PortablePred {
    let mut m = BddManager::new(layout.num_vars());
    let p = layout.dst_ip.ranges(&mut m, ivs);
    serial::export(&m, p)
}

/// Decodes a wire predicate into a canonical interval list.
///
/// Walks the children-first node list bottom-up; a node at variable `v`
/// denotes a subset of the `2^(32-v)` suffixes below it, and skipped
/// variables are don't-cares handled by doubling (`S ∪ (S + width)`),
/// which coalesces back into one interval whenever `S` spans its whole
/// suffix space. Panics if the predicate constrains any variable
/// outside the destination field — interval backends only cover the
/// destination-prefix-only fragment.
pub fn from_portable(p: &PortablePred) -> Vec<Iv> {
    // (var, set-over-[0, 2^(32-var))) per local node; terminals pinned.
    assert!(
        crate::pred_ip_only(p),
        "predicate constrains a variable outside the destination field; \
         interval backends support destination-prefix-only workloads"
    );
    let mut solved: Vec<(u32, Vec<Iv>)> = Vec::with_capacity(p.len() + 2);
    solved.push((32, Vec::new())); // local 0 = FALSE
    solved.push((32, vec![(0, 1)])); // local 1 = TRUE
    for &(var, lo, hi) in p.nodes() {
        let lo_set = lift(&solved[lo as usize].1, solved[lo as usize].0, var + 1);
        let mut hi_set = lift(&solved[hi as usize].1, solved[hi as usize].0, var + 1);
        // Variable `var` is the MSB of the remaining suffix space: the
        // hi child covers the upper half.
        let half = 1u64 << (31 - var as u64);
        for iv in &mut hi_set {
            iv.0 += half;
            iv.1 += half;
        }
        solved.push((var, union(&lo_set, &hi_set)));
    }
    let root = p.root() as usize;
    let (var, set) = &solved[root];
    lift(set, *var, 0)
}

/// Expands a set over the suffix space below `from_var` into the suffix
/// space below `to_var <= from_var` by replicating across the skipped
/// don't-care variables.
fn lift(set: &[Iv], from_var: u32, to_var: u32) -> Vec<Iv> {
    let mut out = set.to_vec();
    let mut width = 1u64 << (32 - from_var as u64);
    for _ in to_var..from_var {
        let shifted: Vec<Iv> = out
            .iter()
            .map(|&(lo, hi)| (lo + width, hi + width))
            .collect();
        out = union(&out, &shifted);
        width <<= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_ops_are_canonical() {
        let a = vec![(0u64, 10u64), (20, 30)];
        let b = vec![(10u64, 20u64)];
        // Union coalesces adjacency into one canonical interval.
        assert_eq!(union(&a, &b), vec![(0, 30)]);
        assert_eq!(intersect(&a, &b), Vec::<Iv>::new());
        assert_eq!(diff(&a, &b), a);
        assert_eq!(diff(&[(0, 30)], &b), vec![(0, 10), (20, 30)]);
        assert!(!overlaps(&a, &b));
        assert!(overlaps(&a, &[(25, 26)]));
        assert_eq!(diff(&[(0, 100)], &[(0, 100)]), Vec::<Iv>::new());
    }

    #[test]
    fn diff_with_many_holes() {
        let a = vec![(0u64, 100u64)];
        let b = vec![(10u64, 20u64), (30, 40), (99, 100)];
        assert_eq!(diff(&a, &b), vec![(0, 10), (20, 30), (40, 99)]);
        // Later a-intervals re-overlapping earlier b-intervals.
        let d = diff(&[(5, 15), (35, 50)], &b);
        assert_eq!(d, vec![(5, 10), (40, 50)]);
    }

    #[test]
    fn prefix_interval() {
        let iv = |addr, len| prefix_iv(&IpPrefix::new(addr, len));
        assert_eq!(iv(0x0a000000, 8), (0x0a000000, 0x0b000000));
        assert_eq!(iv(0xffffffff, 32), (0xffffffff, 0x100000000));
        assert_eq!(iv(0, 0), FULL);
    }

    #[test]
    fn portable_round_trip() {
        let layout = HeaderLayout::ipv4_tcp();
        let cases: Vec<Vec<Iv>> = vec![
            vec![],
            vec![FULL],
            vec![prefix_iv(&IpPrefix::new(0x0a000000, 23))],
            vec![(3, 17), (1u64 << 31, (1u64 << 31) + 1000)],
            vec![(0, 1), (0xfffffffe, 0x100000000)],
        ];
        for ivs in cases {
            let enc = to_portable(&ivs, &layout);
            assert_eq!(from_portable(&enc), ivs, "round trip of {ivs:?}");
        }
    }

    #[test]
    fn portable_matches_bdd_build() {
        // The encoder must produce byte-identical output to a native
        // BDD build of the same set, whatever the operation order.
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        let a = layout.dst_prefix(&mut m, [10, 0, 1, 0], 24);
        let b = layout.dst_prefix(&mut m, [10, 0, 0, 0], 23);
        let c = layout.dst_prefix(&mut m, [192, 168, 0, 0], 16);
        let ab = m.or(b, c);
        let p = m.diff(ab, a);
        let native = serial::export(&m, p);
        let ivs = from_portable(&native);
        assert_eq!(to_portable(&ivs, &layout), native);
    }

    #[test]
    #[should_panic(expected = "destination-prefix-only")]
    fn decoder_rejects_port_predicates() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        let p = layout.dst_port_eq(&mut m, 80);
        from_portable(&serial::export(&m, p));
    }
}
