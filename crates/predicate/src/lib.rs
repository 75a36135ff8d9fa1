#![warn(missing_docs)]
//! Pluggable predicate backends for the on-device verifier.
//!
//! The paper's core loop — local LEC delta → CIB recompute →
//! counting-message exchange — does not require BDDs; it requires *any*
//! canonical predicate algebra. This crate extracts the operations the
//! hot path actually uses into the [`PredicateBackend`] trait and
//! provides three interchangeable implementations:
//!
//! * [`BddBackend`] — the original ROBDD representation
//!   ([`tulkun_bdd::BddManager`]); supports the full header layout
//!   (ports, protocol, rewrites).
//! * [`IntervalSetBackend`] — canonical sorted disjoint interval sets
//!   over the 32-bit destination space; set operations are linear
//!   merges. Destination-prefix-only workloads.
//! * [`DeltaNetBackend`] — Delta-net-style *atoms*: a global splittable
//!   boundary array over the destination space; a predicate is an
//!   interned sorted atom-id list and every set operation is a sorted
//!   list merge. On a stable prefix set, steady-state churn inserts no
//!   new boundaries, which is exactly where Delta-net beats BDDs.
//!
//! # The wire-format invariant
//!
//! DVM messages carry predicates as [`PortablePred`] — the canonical
//! children-first ROBDD node list. `export` of *any* backend produces
//! the ROBDD encoding of the same packet set under the same fixed
//! variable order, so the bytes on the wire are **byte-identical
//! regardless of backend**: devices running different backends
//! interoperate, cached LEC tables are backend-neutral, and Reports
//! (whose violation predicates are exported) compare byte-equal across
//! backends. Interval backends pay an encode/decode at the wire; they
//! win it back on the set operations in between.
//!
//! # Selection
//!
//! [`BackendKind`] names a backend (`bdd`, `deltanet` or `intervals`;
//! `bdd` is the default). Interval representations require a
//! destination-prefix-only workload (no port/proto matches, no header
//! rewrites — see [`network_ip_only`]); [`BackendKind::check`] is the
//! one place that rule lives, and every substrate constructor, the CLI
//! and the daemon's `config backend` / `batch` paths go through it.
//!
//! # One LEC builder
//!
//! [`lecs`] / [`lecs_in`] compile a FIB into its LEC table on any
//! backend; nothing else in the workspace does.

use std::fmt;
use std::hash::Hash;
use std::str::FromStr;

use tulkun_bdd::serial::PortablePred;
use tulkun_netmodel::fib::{Action, Fib, MatchSpec, Rewrite};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::prefix::IpPrefix;

pub mod atoms;
mod bdd_backend;
mod deltanet;
mod dst_only;
mod dynamic;
mod intervals;
pub mod ipset;

pub use atoms::{AtomAction, AtomPartition};
pub use bdd_backend::BddBackend;
pub use deltanet::DeltaNetBackend;
pub use dynamic::{DynBackend, DynPred};
pub use intervals::IntervalSetBackend;

/// What a backend can represent ([`BackendKind::caps`]). Upstream code
/// checks capabilities before selecting a backend
/// ([`BackendKind::check`]); the builder methods of an unsupported
/// feature panic with a clear message if the check is bypassed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCaps {
    /// Destination-port and protocol match conditions.
    pub ports: bool,
    /// Header rewrites (image/preimage of a packet set).
    pub rewrites: bool,
}

impl BackendCaps {
    /// Everything the header layout can express.
    pub const FULL: BackendCaps = BackendCaps {
        ports: true,
        rewrites: true,
    };
    /// Destination-prefix-only workloads.
    pub const DST_ONLY: BackendCaps = BackendCaps {
        ports: false,
        rewrites: false,
    };
}

/// The operations the DVM hot path performs on predicates, extracted
/// from what `DeviceVerifier` and the LEC builder actually use.
///
/// A backend owns its whole predicate universe (the analogue of one
/// private `BddManager` per device); `Pred` handles are only meaningful
/// with the backend that produced them. Handle equality must be
/// *complete* set equality — every implementation interns canonical
/// representations, so `a == b` ⇔ same packet set. That is what CIB
/// deduplication and the subscription ledger rely on.
pub trait PredicateBackend {
    /// Handle to one predicate inside this backend.
    type Pred: Copy + Eq + Ord + Hash + fmt::Debug;

    /// The empty set.
    fn falsum(&self) -> Self::Pred;
    /// The full set.
    fn verum(&self) -> Self::Pred;
    /// Set intersection.
    fn and(&mut self, a: Self::Pred, b: Self::Pred) -> Self::Pred;
    /// Set union.
    fn or(&mut self, a: Self::Pred, b: Self::Pred) -> Self::Pred;
    /// Set difference `a \ b`.
    fn diff(&mut self, a: Self::Pred, b: Self::Pred) -> Self::Pred;
    /// Is the predicate the empty set?
    fn is_false(&self, p: Self::Pred) -> bool;
    /// Do the two sets share a packet?
    fn intersects(&mut self, a: Self::Pred, b: Self::Pred) -> bool;

    /// Compiles a FIB match condition (build-from-rule).
    fn match_pred(&mut self, m: &MatchSpec) -> Self::Pred;

    /// Image of a packet set under a destination rewrite: the top
    /// `rw.to.len` bits of the destination are replaced by the prefix
    /// bits. Panics on backends without rewrite capability.
    fn rewrite_image(&mut self, p: Self::Pred, rw: &Rewrite) -> Self::Pred;
    /// Preimage of a downstream packet set under a destination rewrite.
    /// Panics on backends without rewrite capability.
    fn rewrite_preimage(&mut self, q: Self::Pred, rw: &Rewrite) -> Self::Pred;

    /// Decodes a wire predicate into this backend. Panics on malformed
    /// input (wire predicates are produced by `export` and only travel
    /// between trusted verifiers) and on predicates outside the
    /// backend's capabilities.
    fn import(&mut self, p: &PortablePred) -> Self::Pred;
    /// Encodes a predicate into the canonical wire form. The bytes are
    /// a pure function of the packet set — identical across backends
    /// (the wire-format invariant).
    fn export(&self, p: Self::Pred) -> PortablePred;

    /// Releases memoization scratch a bulk build leaves behind (handles
    /// and results stay valid). [`lecs`] ends with it: compiling a whole
    /// FIB leaves the BDD operation memo full of intermediate results
    /// that never recur — within its bound, but a table's worth per
    /// device.
    fn trim(&mut self) {}

    /// Entries the backend's operation memo currently holds — the
    /// scratch [`PredicateBackend::trim`] drops. Zero for
    /// representations that memoise nothing per operation.
    fn memo_entries(&self) -> usize {
        0
    }

    /// Memory proxy: BDD nodes, stored intervals, or atoms + list
    /// entries, depending on the representation.
    fn mem_units(&self) -> usize;
    /// Short stable name (`"bdd"`, `"deltanet"`, `"intervals"`).
    fn name(&self) -> &'static str;
}

/// The **LEC builder** generic over the predicate backend (§5.1):
/// compresses a prioritized table into `(predicate, action)` classes
/// that partition the full packet space; packets matching no rule fall
/// into a `Drop` class, classes with identical actions are merged.
pub fn lecs<B: PredicateBackend>(fib: &Fib, b: &mut B) -> Vec<(B::Pred, Action)> {
    // The default route's prefix touches every rule.
    let everything = MatchSpec::dst(IpPrefix::new(0, 0));
    let (_, classes) = lecs_in(fib, &[everything], b);
    b.trim();
    classes
}

/// [`lecs`] restricted to the packets the `touched` match conditions
/// cover: returns that region and the classes partitioning it. This is
/// incremental LEC maintenance after a rule update — only the updated
/// rules' match regions can change class — and it costs the rules that
/// *overlap* the update, not the table (the Delta-net argument): a rule
/// whose destination prefix overlaps no touched prefix is skipped
/// before any backend call. The skip is exact, not a heuristic: port
/// and protocol conditions only narrow a match, so disjoint prefixes
/// mean the rule matches nothing in the region — it would have
/// contributed an empty class and removed nothing from `remaining`.
pub fn lecs_in<B: PredicateBackend>(
    fib: &Fib,
    touched: &[MatchSpec],
    b: &mut B,
) -> (B::Pred, Vec<(B::Pred, Action)>) {
    let mut region = b.falsum();
    for m in touched {
        let mp = b.match_pred(m);
        region = b.or(region, mp);
    }
    let mut remaining = region;
    let mut by_action: Vec<(Action, B::Pred)> = Vec::new();
    for rule in fib.rules() {
        if !touched.iter().any(|m| m.dst.overlaps(&rule.matches.dst)) {
            continue;
        }
        // Nothing left to classify: lower priorities are shadowed.
        if b.is_false(remaining) {
            break;
        }
        let mp = b.match_pred(&rule.matches);
        let eff = b.and(mp, remaining);
        if b.is_false(eff) {
            continue;
        }
        remaining = b.diff(remaining, mp);
        match by_action.iter_mut().find(|(a, _)| *a == rule.action) {
            Some((_, p)) => *p = b.or(*p, eff),
            None => by_action.push((rule.action.clone(), eff)),
        }
    }
    if !b.is_false(remaining) {
        match by_action.iter_mut().find(|(a, _)| *a == Action::Drop) {
            Some((_, p)) => *p = b.or(*p, remaining),
            None => by_action.push((Action::Drop, remaining)),
        }
    }
    let classes = by_action.into_iter().map(|(a, p)| (p, a)).collect();
    (region, classes)
}

/// Names a predicate backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// ROBDDs (the original representation; full capability).
    #[default]
    Bdd,
    /// Delta-net atoms over the destination space (IP-only workloads).
    DeltaNet,
    /// Canonical disjoint interval sets (IP-only workloads).
    Intervals,
}

/// A workload outside the named backend's [`BackendCaps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedWorkload(pub BackendKind);

impl fmt::Display for UnsupportedWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backend {} supports destination-prefix-only workloads, but this one uses \
             port/proto matches or header rewrites; use backend bdd",
            self.0
        )
    }
}

impl std::error::Error for UnsupportedWorkload {}

impl BackendKind {
    /// Every kind, for matrix tests and benches.
    pub const CONCRETE: [BackendKind; 3] = [
        BackendKind::Bdd,
        BackendKind::DeltaNet,
        BackendKind::Intervals,
    ];

    /// What a backend of this kind can represent.
    pub fn caps(self) -> BackendCaps {
        match self {
            BackendKind::Bdd => BackendCaps::FULL,
            BackendKind::DeltaNet | BackendKind::Intervals => BackendCaps::DST_ONLY,
        }
    }

    /// The capability check: may this backend run a workload that is
    /// (`ip_only`) or is not within the destination-prefix-only
    /// fragment (see [`network_ip_only`], [`update_ip_only`])? Returns
    /// the kind itself so constructors can chain on it.
    pub fn check(self, ip_only: bool) -> Result<BackendKind, UnsupportedWorkload> {
        if ip_only || self.caps() == BackendCaps::FULL {
            Ok(self)
        } else {
            Err(UnsupportedWorkload(self))
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Bdd => "bdd",
            BackendKind::DeltaNet => "deltanet",
            BackendKind::Intervals => "intervals",
        })
    }
}

/// Error from parsing a [`BackendKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError(pub String);

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend {:?}; expected bdd, deltanet or intervals",
            self.0
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendKind {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bdd" => Ok(BackendKind::Bdd),
            "deltanet" | "delta-net" => Ok(BackendKind::DeltaNet),
            "intervals" | "intervalset" => Ok(BackendKind::Intervals),
            other => Err(ParseBackendError(other.to_string())),
        }
    }
}

fn rule_ip_only(matches: &MatchSpec, action: Option<&Action>) -> bool {
    matches.dst_port.is_none()
        && matches.proto.is_none()
        && !matches!(
            action,
            Some(Action::Forward {
                rewrite: Some(_),
                ..
            })
        )
}

/// Does a FIB need nothing beyond destination prefixes? (No
/// destination-port or protocol match conditions, no header rewrites.)
pub fn fib_ip_only(fib: &Fib) -> bool {
    fib.rules()
        .iter()
        .all(|r| rule_ip_only(&r.matches, Some(&r.action)))
}

/// Does a rule update stay within the destination-prefix-only fragment?
pub fn update_ip_only(update: &RuleUpdate) -> bool {
    match update {
        RuleUpdate::Insert { rule, .. } => rule_ip_only(&rule.matches, Some(&rule.action)),
        RuleUpdate::Remove { matches, .. } => rule_ip_only(matches, None),
    }
}

/// Does every device FIB of the network stay within the
/// destination-prefix-only fragment the interval backends cover?
pub fn network_ip_only(net: &Network) -> bool {
    net.topology.devices().all(|d| fib_ip_only(net.fib(d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_and_displays() {
        for (s, k) in [
            ("bdd", BackendKind::Bdd),
            ("deltanet", BackendKind::DeltaNet),
            ("intervals", BackendKind::Intervals),
        ] {
            assert_eq!(s.parse::<BackendKind>().unwrap(), k);
            assert_eq!(k.to_string(), s);
        }
        for unknown in ["jdd", "auto"] {
            assert!(unknown.parse::<BackendKind>().is_err());
        }
    }

    #[test]
    fn check_admits_what_the_caps_cover() {
        for kind in BackendKind::CONCRETE {
            assert_eq!(kind.check(true), Ok(kind), "{kind} runs ip-only workloads");
        }
        assert_eq!(BackendKind::Bdd.check(false), Ok(BackendKind::Bdd));
    }

    #[test]
    fn check_rejects_rich_workloads_on_interval_backends() {
        for kind in [BackendKind::DeltaNet, BackendKind::Intervals] {
            let err = kind.check(false).unwrap_err();
            assert_eq!(err, UnsupportedWorkload(kind));
            assert!(err.to_string().contains("destination-prefix-only"));
        }
    }

    #[test]
    fn ip_only_sees_ports_protos_and_rewrites() {
        use tulkun_netmodel::fib::Rule;
        use tulkun_netmodel::{DeviceId, IpPrefix};
        let dst = MatchSpec::dst(IpPrefix::new(0x0a000000, 8));
        let insert = |matches, action| RuleUpdate::Insert {
            device: DeviceId(0),
            rule: Rule {
                priority: 1,
                matches,
                action,
            },
        };
        assert!(update_ip_only(&insert(dst, Action::Drop)));
        assert!(!update_ip_only(&insert(dst.with_port(80), Action::Drop)));
        let rewriting = Action::Forward {
            mode: tulkun_netmodel::fib::ActionType::All,
            next_hops: vec![],
            rewrite: Some(Rewrite {
                to: IpPrefix::new(0, 8),
            }),
        };
        assert!(!update_ip_only(&insert(dst, rewriting)));
        assert!(!update_ip_only(&RuleUpdate::Remove {
            device: DeviceId(0),
            priority: 1,
            matches: dst.with_port(80),
        }));
    }
}
