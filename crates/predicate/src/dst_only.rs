//! The destination-prefix-only backends: one interning + wire-memo
//! shell ([`DstOnlyBackend`]) around a set representation
//! ([`DstRepr`]) — canonical interval lists or Delta-net atom lists.
//!
//! Handles are interned list ids, so handle equality is set equality —
//! exactly what the CIB dedup paths need. Matches on ports or protocol,
//! and rewrite image/preimage, panic; [`crate::BackendKind::check`]
//! refuses these backends for workloads outside that fragment before a
//! rule ever reaches them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;

use tulkun_bdd::builder::HeaderLayout;
use tulkun_bdd::serial::PortablePred;
use tulkun_netmodel::fib::{MatchSpec, Rewrite};

use crate::ipset::{self, Iv};
use crate::PredicateBackend;

/// How a destination-only backend stores one set: a canonical sorted
/// list of `Elem`s (equal sets are equal lists) plus whatever global
/// state gives the elements their meaning.
pub trait DstRepr: Default {
    /// One list element (an interval, an atom id).
    type Elem: Copy + Eq + Hash;
    /// Short stable backend name.
    const NAME: &'static str;

    /// Set intersection of two canonical lists.
    fn and(a: &[Self::Elem], b: &[Self::Elem]) -> Vec<Self::Elem>;
    /// Set union of two canonical lists.
    fn or(a: &[Self::Elem], b: &[Self::Elem]) -> Vec<Self::Elem>;
    /// Set difference `a \ b` of two canonical lists.
    fn diff(a: &[Self::Elem], b: &[Self::Elem]) -> Vec<Self::Elem>;
    /// Do the two canonical lists share an address?
    fn overlaps(a: &[Self::Elem], b: &[Self::Elem]) -> bool;

    /// Encodes a canonical interval list. A representation whose
    /// encoding of already-interned sets changes with new input (atom
    /// splits) rewrites them through `sets`.
    fn encode(&mut self, ivs: &[Iv], sets: &mut Interner<Self::Elem>) -> Vec<Self::Elem>;
    /// Decodes a list back into canonical intervals.
    fn decode(&self, set: &[Self::Elem]) -> Vec<Iv>;
    /// Memory units held outside the interned lists.
    fn overhead_units(&self) -> usize {
        0
    }
}

/// Interned canonical lists: one id per concrete set, forever.
pub struct Interner<E> {
    sets: Vec<Vec<E>>,
    ids: HashMap<Vec<E>, u32>,
}

impl<E: Copy + Eq + Hash> Interner<E> {
    fn intern(&mut self, set: Vec<E>) -> u32 {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(set.clone());
        self.ids.insert(set, id);
        id
    }

    fn get(&self, id: u32) -> &[E] {
        &self.sets[id as usize]
    }

    /// Rewrites every interned list in place; ids keep their meaning
    /// (the rewrite must preserve each list's concrete set and
    /// canonicity).
    pub fn remap(&mut self, f: impl Fn(&[E]) -> Vec<E>) {
        for set in &mut self.sets {
            *set = f(set);
        }
        self.ids = self
            .sets
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
    }
}

/// Interned handle to a canonical list of a [`DstOnlyBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DstPred(pub(crate) u32);

/// Predicate backend over destination-address sets in representation
/// `R`; handle 0 is the empty set, handle 1 the full destination space.
pub struct DstOnlyBackend<R: DstRepr> {
    layout: HeaderLayout,
    repr: R,
    sets: Interner<R::Elem>,
    // Wire encoding writes the set's ROBDD afresh (≈ 12 µs for a few
    // intervals on a 2-vCPU Xeon, against ≈ 0.4 µs for a memo hit,
    // and nine exports in ten hit); a handle denotes one concrete set
    // forever (remapping preserves meaning), so exports memoize per
    // handle and imports per wire predicate. Wire bytes are a pure
    // function of the concrete set, so an import seeds the export
    // cache.
    exports: RefCell<HashMap<u32, PortablePred>>,
    imports: HashMap<PortablePred, u32>,
}

impl<R: DstRepr> DstOnlyBackend<R> {
    /// Fresh backend.
    pub fn new(layout: HeaderLayout) -> Self {
        let mut be = DstOnlyBackend {
            layout,
            repr: R::default(),
            sets: Interner {
                sets: Vec::new(),
                ids: HashMap::new(),
            },
            exports: RefCell::new(HashMap::new()),
            imports: HashMap::new(),
        };
        be.intern_ivs(&[]);
        be.intern_ivs(&[ipset::FULL]);
        be
    }

    /// The header layout used for wire encoding.
    pub fn layout(&self) -> &HeaderLayout {
        &self.layout
    }

    /// The representation's global state.
    pub(crate) fn repr(&self) -> &R {
        &self.repr
    }

    fn intern_ivs(&mut self, ivs: &[Iv]) -> DstPred {
        let set = self.repr.encode(ivs, &mut self.sets);
        DstPred(self.sets.intern(set))
    }

    /// The concrete set behind a handle, as canonical intervals.
    pub(crate) fn ivs(&self, p: DstPred) -> Vec<Iv> {
        self.repr.decode(self.sets.get(p.0))
    }

    fn unsupported(what: &str) -> ! {
        panic!(
            "{} backend supports destination-prefix-only workloads (got a {what}); \
             use --backend bdd",
            R::NAME
        )
    }
}

impl<R: DstRepr> PredicateBackend for DstOnlyBackend<R> {
    type Pred = DstPred;

    fn falsum(&self) -> DstPred {
        DstPred(0)
    }

    fn verum(&self) -> DstPred {
        DstPred(1)
    }

    fn and(&mut self, a: DstPred, b: DstPred) -> DstPred {
        if a == b || b == self.verum() {
            return a;
        }
        if a == self.verum() {
            return b;
        }
        let r = R::and(self.sets.get(a.0), self.sets.get(b.0));
        DstPred(self.sets.intern(r))
    }

    fn or(&mut self, a: DstPred, b: DstPred) -> DstPred {
        if a == b {
            return a;
        }
        let r = R::or(self.sets.get(a.0), self.sets.get(b.0));
        DstPred(self.sets.intern(r))
    }

    fn diff(&mut self, a: DstPred, b: DstPred) -> DstPred {
        if a == b {
            return DstPred(0);
        }
        let r = R::diff(self.sets.get(a.0), self.sets.get(b.0));
        DstPred(self.sets.intern(r))
    }

    fn is_false(&self, p: DstPred) -> bool {
        p.0 == 0
    }

    fn intersects(&mut self, a: DstPred, b: DstPred) -> bool {
        R::overlaps(self.sets.get(a.0), self.sets.get(b.0))
    }

    fn match_pred(&mut self, m: &MatchSpec) -> DstPred {
        if m.dst_port.is_some() || m.proto.is_some() {
            Self::unsupported("port/proto match");
        }
        self.intern_ivs(&[ipset::prefix_iv(&m.dst)])
    }

    fn rewrite_image(&mut self, _p: DstPred, _rw: &Rewrite) -> DstPred {
        Self::unsupported("rewrite action")
    }

    fn rewrite_preimage(&mut self, _q: DstPred, _rw: &Rewrite) -> DstPred {
        Self::unsupported("rewrite action")
    }

    fn import(&mut self, p: &PortablePred) -> DstPred {
        if let Some(&id) = self.imports.get(p) {
            return DstPred(id);
        }
        let h = self.intern_ivs(&ipset::from_portable(p));
        self.imports.insert(p.clone(), h.0);
        self.exports
            .borrow_mut()
            .entry(h.0)
            .or_insert_with(|| p.clone());
        h
    }

    fn export(&self, p: DstPred) -> PortablePred {
        self.exports
            .borrow_mut()
            .entry(p.0)
            .or_insert_with(|| ipset::to_portable(&self.ivs(p), &self.layout))
            .clone()
    }

    fn mem_units(&self) -> usize {
        self.repr.overhead_units() + self.sets.sets.iter().map(Vec::len).sum::<usize>()
    }

    fn name(&self) -> &'static str {
        R::NAME
    }
}
