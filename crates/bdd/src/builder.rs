//! Predicate builders over a packet-header variable layout.
//!
//! Tulkun models packets by the header fields its invariants and FIBs match
//! on: destination IPv4 address, destination transport port, and protocol.
//! Each field occupies a contiguous run of BDD variables, most significant
//! bit first, so longest-prefix matches become short conjunctions near the
//! root of the variable order.

use crate::manager::{BddManager, Pred};

/// A contiguous field of bits inside the header variable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// First BDD variable of the field (the field's MSB).
    pub offset: u32,
    /// Field width in bits.
    pub width: u32,
}

impl Field {
    /// Predicate: the field equals `value` exactly.
    pub fn eq(&self, m: &mut BddManager, value: u64) -> Pred {
        self.prefix(m, value, self.width)
    }

    /// Predicate: the top `plen` bits of the field equal the top `plen`
    /// bits of `value` (a longest-prefix match). `plen == 0` matches all.
    pub fn prefix(&self, m: &mut BddManager, value: u64, plen: u32) -> Pred {
        assert!(plen <= self.width, "prefix length exceeds field width");
        // A prefix is one chain of `plen` nodes; built from its last bit
        // up, each step is one hash-consed node — no intermediate
        // chains, no memo entries (conjoining literals top-down rebuilt
        // the whole chain per bit: `plen²/2` nodes, all but `plen` of
        // them garbage the arena never frees).
        let mut acc = Pred::TRUE;
        for i in (0..plen).rev() {
            // Bit i of the prefix is bit (width-1-i) of the value.
            let bit = (value >> (self.width - 1 - i)) & 1;
            let var = self.offset + i;
            acc = if bit == 1 {
                m.branch(var, Pred::FALSE, acc)
            } else {
                m.branch(var, acc, Pred::FALSE)
            };
        }
        acc
    }

    /// Predicate: `lo <= field <= hi` (inclusive integer range).
    pub fn range(&self, m: &mut BddManager, lo: u64, hi: u64) -> Pred {
        assert!(lo <= hi, "empty range");
        self.ranges(m, &[(lo, hi + 1)])
    }

    /// Predicate: the field lies in one of `ranges`, sorted, disjoint,
    /// non-empty half-open `[lo, hi)` ranges with `hi <= 2^width`.
    ///
    /// Built top-down by halving the value space: a sub-space no range
    /// meets is FALSE, one a single range covers is TRUE, and any other
    /// splits on its top bit into one hash-consed node. Only sub-spaces
    /// holding a range boundary split, so the cost is O(ranges × width)
    /// nodes, with no apply and no memo entry; the result is the
    /// canonical ROBDD of the union.
    pub fn ranges(&self, m: &mut BddManager, ranges: &[(u64, u64)]) -> Pred {
        assert!(self.width < 64, "field too wide for half-open ranges");
        let space = 1u64 << self.width;
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            assert!(
                lo < hi && hi <= space,
                "range [{lo}, {hi}) outside the field"
            );
            assert!(
                i == 0 || ranges[i - 1].1 <= lo,
                "ranges are not sorted and disjoint"
            );
        }
        self.cover(m, 0, 0, ranges)
    }

    /// The union of `ranges` within the sub-space `[base, base +
    /// 2^(width - bit))`, every one of which meets that sub-space.
    fn cover(&self, m: &mut BddManager, bit: u32, base: u64, ranges: &[(u64, u64)]) -> Pred {
        let Some(&(lo, hi)) = ranges.first() else {
            return Pred::FALSE;
        };
        let size = 1u64 << (self.width - bit);
        // A one-value sub-space that a range meets is covered.
        if bit == self.width || (lo <= base && base + size <= hi) {
            return Pred::TRUE;
        }
        let mid = base + size / 2;
        let below = ranges.partition_point(|r| r.0 < mid);
        let above = ranges.partition_point(|r| r.1 <= mid);
        let lo = self.cover(m, bit + 1, base, &ranges[..below]);
        let hi = self.cover(m, bit + 1, mid, &ranges[above..]);
        m.branch(self.offset + bit, lo, hi)
    }
}

tulkun_json::impl_json_object!(Field { offset, width });

/// The variable layout of the packet headers Tulkun reasons about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderLayout {
    /// Destination IPv4 address (32 bits).
    pub dst_ip: Field,
    /// Destination transport port (16 bits).
    pub dst_port: Field,
    /// IP protocol number (8 bits).
    pub proto: Field,
}

impl HeaderLayout {
    /// The standard layout: dstIP (32) ∥ dstPort (16) ∥ proto (8).
    pub fn ipv4_tcp() -> Self {
        HeaderLayout {
            dst_ip: Field {
                offset: 0,
                width: 32,
            },
            dst_port: Field {
                offset: 32,
                width: 16,
            },
            proto: Field {
                offset: 48,
                width: 8,
            },
        }
    }

    /// Total number of BDD variables the layout requires.
    pub fn num_vars(&self) -> u32 {
        (self.dst_ip.width + self.dst_port.width + self.proto.width).max(
            [self.dst_ip, self.dst_port, self.proto]
                .iter()
                .map(|f| f.offset + f.width)
                .max()
                .unwrap_or(0),
        )
    }

    /// Predicate for a destination prefix `a.b.c.d/plen`.
    pub fn dst_prefix(&self, m: &mut BddManager, octets: [u8; 4], plen: u32) -> Pred {
        let value = u32::from_be_bytes(octets) as u64;
        self.dst_ip.prefix(m, value, plen)
    }

    /// Predicate for an exact destination port.
    pub fn dst_port_eq(&self, m: &mut BddManager, port: u16) -> Pred {
        self.dst_port.eq(m, port as u64)
    }

    /// Predicate for an inclusive destination port range.
    pub fn dst_port_range(&self, m: &mut BddManager, lo: u16, hi: u16) -> Pred {
        self.dst_port.range(m, lo as u64, hi as u64)
    }
}

tulkun_json::impl_json_object!(HeaderLayout {
    dst_ip,
    dst_port,
    proto
});

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_ip(m: &BddManager, layout: &HeaderLayout, p: Pred, ip: u32, port: u16) -> bool {
        let mut bits = vec![false; layout.num_vars() as usize];
        for i in 0..32 {
            bits[(layout.dst_ip.offset + i) as usize] = (ip >> (31 - i)) & 1 == 1;
        }
        for i in 0..16 {
            bits[(layout.dst_port.offset + i) as usize] = (port >> (15 - i)) & 1 == 1;
        }
        m.eval(p, &bits)
    }

    /// A prefix is the conjunction of its literals — and costs one node
    /// per bit and no memo entry to build.
    #[test]
    fn prefix_is_one_chain() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        let (addr, plen) = (0x0A64_2A80u64, 25);
        let p = layout.dst_ip.prefix(&mut m, addr, plen);
        assert_eq!((m.node_count(), m.memo_entries()), (2 + plen as usize, 0));
        let conj = (0..plen).fold(Pred::TRUE, |acc, i| {
            let var = layout.dst_ip.offset + i;
            let lit = if addr >> (31 - i) & 1 == 1 {
                m.var(var)
            } else {
                m.nvar(var)
            };
            m.and(acc, lit)
        });
        assert_eq!(p, conj);
        assert_eq!(layout.dst_ip.prefix(&mut m, addr, 0), Pred::TRUE);
    }

    #[test]
    fn prefix_semantics() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        let p = layout.dst_prefix(&mut m, [10, 0, 0, 0], 23);
        assert!(eval_ip(
            &m,
            &layout,
            p,
            u32::from_be_bytes([10, 0, 0, 5]),
            0
        ));
        assert!(eval_ip(
            &m,
            &layout,
            p,
            u32::from_be_bytes([10, 0, 1, 200]),
            0
        ));
        assert!(!eval_ip(
            &m,
            &layout,
            p,
            u32::from_be_bytes([10, 0, 2, 0]),
            0
        ));
        assert!(!eval_ip(
            &m,
            &layout,
            p,
            u32::from_be_bytes([11, 0, 0, 0]),
            0
        ));
    }

    #[test]
    fn prefix_nesting() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        let p23 = layout.dst_prefix(&mut m, [10, 0, 0, 0], 23);
        let p24a = layout.dst_prefix(&mut m, [10, 0, 0, 0], 24);
        let p24b = layout.dst_prefix(&mut m, [10, 0, 1, 0], 24);
        assert!(m.implies(p24a, p23));
        assert!(m.implies(p24b, p23));
        assert!(!m.intersects(p24a, p24b));
        let u = m.or(p24a, p24b);
        assert_eq!(u, p23);
    }

    #[test]
    fn zero_length_prefix_matches_everything() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        let p = layout.dst_prefix(&mut m, [1, 2, 3, 4], 0);
        assert!(m.is_true(p));
    }

    #[test]
    fn port_eq_and_range() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        let p80 = layout.dst_port_eq(&mut m, 80);
        assert!(eval_ip(&m, &layout, p80, 0, 80));
        assert!(!eval_ip(&m, &layout, p80, 0, 81));

        let r = layout.dst_port_range(&mut m, 1000, 2000);
        assert!(!eval_ip(&m, &layout, r, 0, 999));
        assert!(eval_ip(&m, &layout, r, 0, 1000));
        assert!(eval_ip(&m, &layout, r, 0, 1500));
        assert!(eval_ip(&m, &layout, r, 0, 2000));
        assert!(!eval_ip(&m, &layout, r, 0, 2001));
        // Count must match exactly: sat_count over non-port vars scales by 2^(32+8).
        let total = m.sat_count(r);
        let expected = 1001.0 * 2f64.powi(40);
        assert_eq!(total, expected);
    }

    #[test]
    fn range_degenerate_single_value_equals_eq() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        let a = layout.dst_port_range(&mut m, 443, 443);
        let b = layout.dst_port_eq(&mut m, 443);
        assert_eq!(a, b);
    }

    /// Every range of a 5-bit field, alone and one value past a second
    /// range, denotes exactly its values — built with no operation memo.
    #[test]
    fn ranges_denote_their_values() {
        let f = Field {
            offset: 1,
            width: 5,
        };
        let mut m = BddManager::new(7);
        let holds = |m: &BddManager, p: Pred, v: u64| {
            let bits: Vec<bool> = (0..7)
                .map(|i| (1..6).contains(&i) && v >> (5 - i) & 1 == 1)
                .collect();
            m.eval(p, &bits)
        };
        for lo in 0..32 {
            for hi in lo + 1..=32 {
                let p = f.ranges(&mut m, &[(lo, hi)]);
                let before = lo.saturating_sub(1);
                let q = f.ranges(&mut m, &[(0, before), (lo, hi)][usize::from(before == 0)..]);
                for v in 0..32 {
                    let (in_p, in_q) = ((lo..hi).contains(&v), v < before);
                    assert_eq!(holds(&m, p, v), in_p, "[{lo}, {hi}) at {v}");
                    assert_eq!(
                        holds(&m, q, v),
                        in_p || in_q,
                        "[0, {before}) ∪ [{lo}, {hi}) at {v}"
                    );
                }
            }
        }
        assert_eq!(m.memo_entries(), 0);
        assert_eq!(f.ranges(&mut m, &[]), Pred::FALSE);
        assert_eq!(f.ranges(&mut m, &[(0, 32)]), Pred::TRUE);
    }

    #[test]
    fn full_range_is_true() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        let r = layout.dst_port_range(&mut m, 0, u16::MAX);
        assert!(m.is_true(r));
    }
}
