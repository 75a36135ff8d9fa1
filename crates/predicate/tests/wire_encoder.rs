//! The interval wire encoder against an independent reference.
//!
//! `ipset::to_portable` writes an interval list's ROBDD top-down with
//! `Field::ranges`. The reference here shares no code with it: each
//! interval is cut into its aligned prefixes, each prefix is one
//! `Field::prefix` chain, and `BddManager::or` unions them. ROBDD
//! canonicity makes the two exports byte-equal exactly when they
//! denote the same set, and `from_portable` must give the list back.

use proptest::prelude::*;
use tulkun_bdd::serial::{self, PortablePred};
use tulkun_bdd::{BddManager, HeaderLayout};
use tulkun_predicate::ipset::{from_portable, to_portable, Iv, FULL};

const SPACE: u64 = 1 << 32;

/// The union of the aligned prefixes that tile each interval, built
/// with prefix chains and `or`.
fn reference(ivs: &[Iv], layout: &HeaderLayout) -> PortablePred {
    let mut m = BddManager::new(layout.num_vars());
    let mut acc = m.falsum();
    for &(mut lo, hi) in ivs {
        while lo < hi {
            // The largest aligned block starting at `lo` that fits.
            let mut size = if lo == 0 {
                SPACE
            } else {
                1 << lo.trailing_zeros()
            };
            while lo + size > hi {
                size /= 2;
            }
            let plen = 32 - size.trailing_zeros();
            let p = layout.dst_ip.prefix(&mut m, lo, plen);
            acc = m.or(acc, p);
            lo += size;
        }
    }
    serial::export(&m, acc)
}

fn check(ivs: &[Iv]) {
    let layout = HeaderLayout::ipv4_tcp();
    let enc = to_portable(ivs, &layout);
    assert_eq!(enc, reference(ivs, &layout), "encoding of {ivs:?}");
    assert_eq!(from_portable(&enc), ivs, "round trip of {ivs:?}");
}

/// A boundary point: anywhere in the space, or within one of a split
/// midpoint `k · 2^j` of some level `j`.
fn point() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..=SPACE,
        (0u32..32, any::<u32>(), 0u64..3).prop_map(|(j, k, d)| {
            let mid = (k as u64) << j & (SPACE - 1);
            (mid + d).saturating_sub(1).min(SPACE)
        }),
    ]
}

/// A canonical list: distinct sorted boundaries paired up, so the
/// intervals are non-empty, disjoint and never adjacent.
fn canonical() -> impl Strategy<Value = Vec<Iv>> {
    proptest::collection::btree_set(point(), 0..16).prop_map(|pts| {
        let pts: Vec<u64> = pts.into_iter().collect();
        pts.chunks_exact(2).map(|c| (c[0], c[1])).collect()
    })
}

#[test]
fn edge_cases_encode_like_the_prefix_union() {
    let split = 1u64 << 31;
    let cases: Vec<Vec<Iv>> = vec![
        vec![],
        vec![FULL],
        // Single addresses, at both ends and beside the top split.
        vec![(0, 1)],
        vec![(SPACE - 1, SPACE)],
        vec![(split - 1, split)],
        vec![(split - 1, split), (split + 1, split + 2)],
        // A /32 and a /0.
        vec![(0x0a00_0001, 0x0a00_0002)],
        vec![(0, SPACE)],
        // Intervals ending at 2^32.
        vec![(3, SPACE)],
        vec![(0, 5), (split, SPACE)],
        // Boundaries next to split midpoints at every level.
        vec![(split - 1, split + 1)],
        vec![(1 << 16, (1 << 16) + 1), ((1 << 17) - 1, (1 << 17) + 1)],
        vec![(0x0a00_0000, 0x0a00_0200)],
        vec![(1, SPACE - 1)],
    ];
    for ivs in cases {
        check(&ivs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_portable_is_the_prefix_union(ivs in canonical()) {
        check(&ivs);
    }
}
