//! The reference backend: a private ROBDD manager per verifier, exactly
//! the representation the on-device hot path used before it became
//! generic. Supports the full header space (ports, protocol, rewrites).

use tulkun_bdd::builder::HeaderLayout;
use tulkun_bdd::serial::{self, PortablePred};
use tulkun_bdd::{BddManager, Pred};
use tulkun_netmodel::fib::{MatchSpec, Rewrite};

use crate::PredicateBackend;

/// ROBDD predicate backend over a private [`BddManager`].
pub struct BddBackend {
    layout: HeaderLayout,
    mgr: BddManager,
}

impl BddBackend {
    /// Creates a fresh manager sized for `layout`.
    pub fn new(layout: HeaderLayout) -> Self {
        let mgr = BddManager::new(layout.num_vars());
        BddBackend { layout, mgr }
    }

    /// The header layout this backend encodes.
    pub fn layout(&self) -> &HeaderLayout {
        &self.layout
    }

    /// Direct access to the underlying manager, for callers that need
    /// BDD-only operations (model enumeration, sat counting).
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Mutable access to the underlying manager.
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.mgr
    }
}

impl PredicateBackend for BddBackend {
    type Pred = Pred;

    fn falsum(&self) -> Pred {
        Pred::FALSE
    }

    fn verum(&self) -> Pred {
        Pred::TRUE
    }

    fn and(&mut self, a: Pred, b: Pred) -> Pred {
        self.mgr.and(a, b)
    }

    fn or(&mut self, a: Pred, b: Pred) -> Pred {
        self.mgr.or(a, b)
    }

    fn diff(&mut self, a: Pred, b: Pred) -> Pred {
        self.mgr.diff(a, b)
    }

    fn is_false(&self, p: Pred) -> bool {
        self.mgr.is_false(p)
    }

    fn intersects(&mut self, a: Pred, b: Pred) -> bool {
        self.mgr.intersects(a, b)
    }

    fn match_pred(&mut self, m: &MatchSpec) -> Pred {
        m.to_pred(&mut self.mgr, &self.layout)
    }

    fn rewrite_image(&mut self, p: Pred, rw: &Rewrite) -> Pred {
        let off = self.layout.dst_ip.offset;
        let len = rw.to.len as u32;
        let e = self.mgr.exists_range(p, off, off + len);
        let pref = self
            .layout
            .dst_ip
            .prefix(&mut self.mgr, rw.to.addr as u64, len);
        self.mgr.and(e, pref)
    }

    fn rewrite_preimage(&mut self, q: Pred, rw: &Rewrite) -> Pred {
        let off = self.layout.dst_ip.offset;
        let len = rw.to.len as u32;
        let pref = self
            .layout
            .dst_ip
            .prefix(&mut self.mgr, rw.to.addr as u64, len);
        let qq = self.mgr.and(q, pref);
        self.mgr.exists_range(qq, off, off + len)
    }

    fn import(&mut self, p: &PortablePred) -> Pred {
        serial::import(&mut self.mgr, p).expect("malformed portable predicate")
    }

    fn export(&self, p: Pred) -> PortablePred {
        serial::export(&self.mgr, p)
    }

    fn mem_units(&self) -> usize {
        self.mgr.node_count()
    }

    fn trim(&mut self) {
        self.mgr.clear_caches();
    }

    fn memo_entries(&self) -> usize {
        self.mgr.memo_entries()
    }

    fn name(&self) -> &'static str {
        "bdd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_netmodel::prefix::IpPrefix;

    #[test]
    fn wire_round_trip_is_identity() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut be = BddBackend::new(layout);
        let m = MatchSpec::dst(IpPrefix::new(0x0a000000, 9));
        let p = be.match_pred(&m);
        let enc = be.export(p);
        assert_eq!(be.import(&enc), p);
    }

    #[test]
    fn rewrite_image_lands_in_target_prefix() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut be = BddBackend::new(layout);
        let src = be.match_pred(&MatchSpec::dst(IpPrefix::new(0xac100000, 12)));
        let rw = Rewrite {
            to: IpPrefix::new(0x0a090000, 16),
        };
        let img = be.rewrite_image(src, &rw);
        let target = be.match_pred(&MatchSpec::dst(IpPrefix::new(0x0a090000, 16)));
        assert_eq!(be.and(img, target), img);
        let back = be.rewrite_preimage(img, &rw);
        let overlap = be.and(back, src);
        assert_eq!(overlap, src);
    }
}
