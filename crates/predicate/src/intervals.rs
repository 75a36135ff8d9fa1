//! Interval-set predicate backend.
//!
//! Represents each predicate as a canonical sorted list of disjoint,
//! non-adjacent half-open address intervals (the encoding of the
//! IntervalSet/veriflow-style baselines, promoted to a first-class
//! on-device backend); set operations are the linear merges of
//! [`crate::ipset`].

use crate::dst_only::{DstOnlyBackend, DstRepr, Interner};
use crate::ipset::{self, Iv};

/// The interval-list representation: the wire decoder's output is
/// already the stored form.
#[derive(Default)]
pub struct IntervalRepr;

impl DstRepr for IntervalRepr {
    type Elem = Iv;
    const NAME: &'static str = "intervals";

    fn and(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
        ipset::intersect(a, b)
    }

    fn or(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
        ipset::union(a, b)
    }

    fn diff(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
        ipset::diff(a, b)
    }

    fn overlaps(a: &[Iv], b: &[Iv]) -> bool {
        ipset::overlaps(a, b)
    }

    fn encode(&mut self, ivs: &[Iv], _sets: &mut Interner<Iv>) -> Vec<Iv> {
        ivs.to_vec()
    }

    fn decode(&self, set: &[Iv]) -> Vec<Iv> {
        set.to_vec()
    }
}

/// Predicate backend over canonical destination-interval sets.
pub type IntervalSetBackend = DstOnlyBackend<IntervalRepr>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredicateBackend;
    use tulkun_bdd::builder::HeaderLayout;
    use tulkun_netmodel::fib::MatchSpec;
    use tulkun_netmodel::prefix::IpPrefix;

    #[test]
    fn handles_are_canonical() {
        let mut be = IntervalSetBackend::new(HeaderLayout::ipv4_tcp());
        let a = be.match_pred(&MatchSpec::dst(IpPrefix::new(0x0a000000, 8)));
        let b = be.match_pred(&MatchSpec::dst(IpPrefix::new(0x0a000000, 9)));
        let c = be.match_pred(&MatchSpec::dst(IpPrefix::new(0x0a800000, 9)));
        // Two halves re-union to the parent prefix: same interned id.
        assert_eq!(be.or(b, c), a);
        // Everything minus everything is the canonical empty handle.
        assert_eq!(be.diff(a, a), be.falsum());
        let rest = be.diff(be.verum(), a);
        assert!(!be.intersects(rest, a));
        assert_eq!(be.or(rest, a), be.verum());
    }

    #[test]
    fn wire_round_trip_is_identity() {
        let mut be = IntervalSetBackend::new(HeaderLayout::ipv4_tcp());
        let a = be.match_pred(&MatchSpec::dst(IpPrefix::new(0xc0a80000, 16)));
        let b = be.match_pred(&MatchSpec::dst(IpPrefix::new(0x0a000000, 23)));
        let u = be.or(a, b);
        let enc = be.export(u);
        assert_eq!(be.import(&enc), u);
    }

    #[test]
    #[should_panic(expected = "destination-prefix-only")]
    fn rejects_port_matches() {
        let mut be = IntervalSetBackend::new(HeaderLayout::ipv4_tcp());
        let mut m = MatchSpec::dst(IpPrefix::new(0, 0));
        m.dst_port = Some((80, 80));
        be.match_pred(&m);
    }
}
