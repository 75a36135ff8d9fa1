//! Runtime backend selection.
//!
//! [`DynBackend`] wraps the three concrete backends behind one type so
//! the verifier substrates can pick an encoding per run (CLI flag or
//! config) without monomorphising the whole engine three times.
//! Handles are erased to a plain `u32` ([`DynPred`]); every concrete
//! backend's handle is a `u32` underneath and keeps its canonicity, so
//! erased handle equality still means set equality within one backend
//! instance.

use tulkun_bdd::builder::HeaderLayout;
use tulkun_bdd::serial::PortablePred;
use tulkun_bdd::Pred;
use tulkun_netmodel::fib::{MatchSpec, Rewrite};

use crate::dst_only::DstPred;
use crate::{BackendKind, BddBackend, DeltaNetBackend, IntervalSetBackend, PredicateBackend};

/// Erased predicate handle for [`DynBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DynPred(u32);

/// A concrete backend chosen at runtime.
pub enum DynBackend {
    /// Full-header ROBDD backend (the default).
    Bdd(BddBackend),
    /// Delta-net atom partition (destination-prefix-only).
    DeltaNet(DeltaNetBackend),
    /// Canonical interval sets (destination-prefix-only).
    Intervals(IntervalSetBackend),
}

/// Runs `$body` on whichever concrete backend `$dyn` wraps, bound to
/// `$be`. Every arm is the same expression: handles cross the erasure
/// through the `From` impls below.
macro_rules! on_backend {
    ($dyn:expr, $be:ident => $body:expr) => {
        match $dyn {
            DynBackend::Bdd($be) => $body,
            DynBackend::DeltaNet($be) => $body,
            DynBackend::Intervals($be) => $body,
        }
    };
}

impl DynBackend {
    /// Instantiates the backend of the given kind.
    pub fn new(kind: BackendKind, layout: HeaderLayout) -> Self {
        match kind {
            BackendKind::Bdd => DynBackend::Bdd(BddBackend::new(layout)),
            BackendKind::DeltaNet => DynBackend::DeltaNet(DeltaNetBackend::new(layout)),
            BackendKind::Intervals => DynBackend::Intervals(IntervalSetBackend::new(layout)),
        }
    }

    /// The kind of the wrapped backend.
    pub fn kind(&self) -> BackendKind {
        match self {
            DynBackend::Bdd(_) => BackendKind::Bdd,
            DynBackend::DeltaNet(_) => BackendKind::DeltaNet,
            DynBackend::Intervals(_) => BackendKind::Intervals,
        }
    }

    /// The header layout the wrapped backend encodes.
    pub fn layout(&self) -> &HeaderLayout {
        on_backend!(self, be => be.layout())
    }
}

impl From<Pred> for DynPred {
    fn from(p: Pred) -> DynPred {
        DynPred(p.index())
    }
}

impl From<DynPred> for Pred {
    fn from(p: DynPred) -> Pred {
        Pred::from_index(p.0)
    }
}

impl From<DstPred> for DynPred {
    fn from(p: DstPred) -> DynPred {
        DynPred(p.0)
    }
}

impl From<DynPred> for DstPred {
    fn from(p: DynPred) -> DstPred {
        DstPred(p.0)
    }
}

impl PredicateBackend for DynBackend {
    type Pred = DynPred;

    fn falsum(&self) -> DynPred {
        on_backend!(self, be => be.falsum().into())
    }

    fn verum(&self) -> DynPred {
        on_backend!(self, be => be.verum().into())
    }

    fn and(&mut self, a: DynPred, b: DynPred) -> DynPred {
        on_backend!(self, be => be.and(a.into(), b.into()).into())
    }

    fn or(&mut self, a: DynPred, b: DynPred) -> DynPred {
        on_backend!(self, be => be.or(a.into(), b.into()).into())
    }

    fn diff(&mut self, a: DynPred, b: DynPred) -> DynPred {
        on_backend!(self, be => be.diff(a.into(), b.into()).into())
    }

    fn is_false(&self, p: DynPred) -> bool {
        on_backend!(self, be => be.is_false(p.into()))
    }

    fn intersects(&mut self, a: DynPred, b: DynPred) -> bool {
        on_backend!(self, be => be.intersects(a.into(), b.into()))
    }

    fn match_pred(&mut self, m: &MatchSpec) -> DynPred {
        on_backend!(self, be => be.match_pred(m).into())
    }

    fn rewrite_image(&mut self, p: DynPred, rw: &Rewrite) -> DynPred {
        on_backend!(self, be => be.rewrite_image(p.into(), rw).into())
    }

    fn rewrite_preimage(&mut self, q: DynPred, rw: &Rewrite) -> DynPred {
        on_backend!(self, be => be.rewrite_preimage(q.into(), rw).into())
    }

    fn import(&mut self, p: &PortablePred) -> DynPred {
        on_backend!(self, be => be.import(p).into())
    }

    fn export(&self, p: DynPred) -> PortablePred {
        on_backend!(self, be => be.export(p.into()))
    }

    fn trim(&mut self) {
        on_backend!(self, be => be.trim())
    }

    fn memo_entries(&self) -> usize {
        on_backend!(self, be => be.memo_entries())
    }

    fn mem_units(&self) -> usize {
        on_backend!(self, be => be.mem_units())
    }

    fn name(&self) -> &'static str {
        on_backend!(self, be => be.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_netmodel::prefix::IpPrefix;

    #[test]
    fn all_kinds_agree_on_wire_bytes() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut encs = Vec::new();
        for kind in BackendKind::CONCRETE {
            let mut be = DynBackend::new(kind, layout);
            let a = be.match_pred(&MatchSpec::dst(IpPrefix::new(0x0a000000, 8)));
            let b = be.match_pred(&MatchSpec::dst(IpPrefix::new(0x0a004200, 24)));
            let d = be.diff(a, b);
            encs.push((kind, be.export(d)));
        }
        let (_, reference) = &encs[0];
        for (kind, enc) in &encs {
            assert_eq!(enc, reference, "{kind} disagrees with bdd wire bytes");
        }
    }
}
