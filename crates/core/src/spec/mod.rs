//! The declarative invariant specification language (§3).
//!
//! An invariant is a `(packet_space, ingress_set, behavior,
//! [fault_scenes])` tuple. Behaviors are boolean combinations of
//! `(match_op, path_exp)` pairs:
//!
//! * `exist count_exp` — in each universe, the number of traces matching
//!   `path_exp` satisfies `count_exp`;
//! * `equal` — the union of universes equals *all* paths matching
//!   `path_exp` (verified communication-free, §4.2);
//! * `covered` — every trace matches `path_exp` (the second half of the
//!   paper's `subset` sugar, also how `exist == 0` over a complemented
//!   expression is realized).
//!
//! [`table1`] provides ready-made constructors for every invariant family
//! in the paper's Table 1; [`parse`] implements a textual surface syntax.

pub mod parse;
pub mod table1;

use crate::count::CountExpr;
use std::fmt;
use tulkun_automata::Regex;
use tulkun_bdd::{BddManager, HeaderLayout, Pred};
use tulkun_netmodel::IpPrefix;

/// A symbolic set of packets, compiled to a BDD predicate on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketSpace {
    /// All packets.
    All,
    /// Destination address within a prefix.
    DstPrefix(IpPrefix),
    /// Destination port within an inclusive range.
    DstPort(u16, u16),
    /// Exact IP protocol.
    Proto(u8),
    /// Intersection.
    And(Box<PacketSpace>, Box<PacketSpace>),
    /// Union.
    Or(Box<PacketSpace>, Box<PacketSpace>),
    /// Complement.
    Not(Box<PacketSpace>),
}

impl PacketSpace {
    /// Packets destined to `prefix` (e.g. `"10.0.0.0/23"`).
    /// Panics on malformed prefixes — use [`PacketSpace::try_dst_prefix`]
    /// for fallible parsing.
    pub fn dst_prefix(prefix: &str) -> PacketSpace {
        Self::try_dst_prefix(prefix).expect("malformed prefix")
    }

    /// Fallible version of [`PacketSpace::dst_prefix`].
    pub fn try_dst_prefix(prefix: &str) -> Result<PacketSpace, SpecError> {
        prefix
            .parse::<IpPrefix>()
            .map(PacketSpace::DstPrefix)
            .map_err(|e| SpecError(e.to_string()))
    }

    /// Exact destination port.
    pub fn dst_port(port: u16) -> PacketSpace {
        PacketSpace::DstPort(port, port)
    }

    /// Intersection with another space.
    pub fn and(self, other: PacketSpace) -> PacketSpace {
        PacketSpace::And(Box::new(self), Box::new(other))
    }

    /// Union with another space.
    pub fn or(self, other: PacketSpace) -> PacketSpace {
        PacketSpace::Or(Box::new(self), Box::new(other))
    }

    /// Complement.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> PacketSpace {
        PacketSpace::Not(Box::new(self))
    }

    /// Compiles the space to a predicate.
    pub fn compile(&self, m: &mut BddManager, layout: &HeaderLayout) -> Pred {
        match self {
            PacketSpace::All => m.verum(),
            PacketSpace::DstPrefix(p) => p.to_pred(m, layout),
            PacketSpace::DstPort(lo, hi) => layout.dst_port.range(m, *lo as u64, *hi as u64),
            PacketSpace::Proto(p) => layout.proto.eq(m, *p as u64),
            PacketSpace::And(a, b) => {
                let pa = a.compile(m, layout);
                let pb = b.compile(m, layout);
                m.and(pa, pb)
            }
            PacketSpace::Or(a, b) => {
                let pa = a.compile(m, layout);
                let pb = b.compile(m, layout);
                m.or(pa, pb)
            }
            PacketSpace::Not(a) => {
                let pa = a.compile(m, layout);
                m.not(pa)
            }
        }
    }

    /// Destination prefixes mentioned positively (used by the §3
    /// consistency check between packet spaces and path destinations).
    pub fn positive_dst_prefixes(&self) -> Vec<IpPrefix> {
        match self {
            PacketSpace::DstPrefix(p) => vec![*p],
            PacketSpace::And(a, b) | PacketSpace::Or(a, b) => {
                let mut v = a.positive_dst_prefixes();
                v.extend(b.positive_dst_prefixes());
                v
            }
            _ => Vec::new(),
        }
    }
}

/// A length-filter comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `==`
    Eq,
}

/// A length-filter bound: concrete hop count, or symbolic relative to the
/// shortest path between a path's endpoints (§6 distinguishes the two for
/// fault tolerance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthBound {
    /// A fixed hop count.
    Hops(u32),
    /// `shortest + k` where `shortest` is recomputed per topology
    /// (symbolic; changes under fault scenes).
    ShortestPlus(i32),
}

/// A length filter on matched paths, e.g. `(<= shortest+1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthFilter {
    /// The comparison.
    pub op: FilterOp,
    /// The bound compared against.
    pub bound: LengthBound,
}

impl LengthFilter {
    /// Is the bound symbolic (depends on the surviving topology)?
    pub fn is_symbolic(&self) -> bool {
        matches!(self.bound, LengthBound::ShortestPlus(_))
    }

    /// Evaluates the filter on a path of `hops` edges whose endpoints are
    /// `shortest` hops apart in the relevant topology.
    pub fn accepts(&self, hops: u32, shortest: u32) -> bool {
        let bound = match self.bound {
            LengthBound::Hops(h) => h as i64,
            LengthBound::ShortestPlus(k) => shortest as i64 + k as i64,
        };
        let hops = hops as i64;
        match self.op {
            FilterOp::Le => hops <= bound,
            FilterOp::Lt => hops < bound,
            FilterOp::Ge => hops >= bound,
            FilterOp::Gt => hops > bound,
            FilterOp::Eq => hops == bound,
        }
    }
}

/// A path expression: a regular expression over devices plus optional
/// length filters and the `loop_free` shortcut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathExpr {
    /// The regular expression over device names.
    pub regex: Regex,
    /// Source text of the regex (kept for display and hashing).
    pub source: String,
    /// Length filters on matched paths.
    pub filters: Vec<LengthFilter>,
    /// Restrict to simple paths (no repeated device).
    pub loop_free: bool,
}

impl PathExpr {
    /// Parses a regex into a path expression with no filters.
    pub fn parse(source: &str) -> Result<PathExpr, SpecError> {
        let regex = Regex::parse(source).map_err(|e| SpecError(e.to_string()))?;
        Ok(PathExpr {
            regex,
            source: source.to_string(),
            filters: Vec::new(),
            loop_free: false,
        })
    }

    /// The `loop_free` shortcut of the language.
    pub fn loop_free(mut self) -> PathExpr {
        self.loop_free = true;
        self
    }

    /// Adds a `<= n` hop filter.
    pub fn max_hops(mut self, n: u32) -> PathExpr {
        self.filters.push(LengthFilter {
            op: FilterOp::Le,
            bound: LengthBound::Hops(n),
        });
        self
    }

    /// Adds a `<= shortest + k` filter (the `shortest` shortcut).
    pub fn shortest_plus(mut self, k: i32) -> PathExpr {
        self.filters.push(LengthFilter {
            op: FilterOp::Le,
            bound: LengthBound::ShortestPlus(k),
        });
        self
    }

    /// Adds an `== shortest` filter.
    pub fn shortest_only(mut self) -> PathExpr {
        self.filters.push(LengthFilter {
            op: FilterOp::Eq,
            bound: LengthBound::ShortestPlus(0),
        });
        self
    }

    /// Does the expression carry any symbolic filter? (Proposition 2.)
    pub fn has_symbolic_filter(&self) -> bool {
        self.filters.iter().any(LengthFilter::is_symbolic)
    }

    /// A concrete hop-count upper bound implied by the filters, if any.
    pub fn concrete_hop_bound(&self) -> Option<u32> {
        self.filters
            .iter()
            .filter_map(|f| match (f.op, f.bound) {
                (FilterOp::Le, LengthBound::Hops(h)) => Some(h),
                (FilterOp::Lt, LengthBound::Hops(h)) => Some(h.saturating_sub(1)),
                (FilterOp::Eq, LengthBound::Hops(h)) => Some(h),
                _ => None,
            })
            .min()
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}/", self.source)?;
        if self.loop_free {
            write!(f, " loop_free")?;
        }
        for filt in &self.filters {
            let op = match filt.op {
                FilterOp::Le => "<=",
                FilterOp::Lt => "<",
                FilterOp::Ge => ">=",
                FilterOp::Gt => ">",
                FilterOp::Eq => "==",
            };
            match filt.bound {
                LengthBound::Hops(h) => write!(f, " ({op} {h})")?,
                LengthBound::ShortestPlus(0) => write!(f, " ({op} shortest)")?,
                LengthBound::ShortestPlus(k) if k > 0 => write!(f, " ({op} shortest+{k})")?,
                LengthBound::ShortestPlus(k) => write!(f, " ({op} shortest{k})")?,
            }
        }
        Ok(())
    }
}

/// A verification behavior: a boolean combination of match operations on
/// path expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// In every universe, the number of traces matching `path` satisfies
    /// `count`.
    Exist {
        /// The count constraint.
        count: CountExpr,
        /// The path expression matched against traces.
        path: PathExpr,
    },
    /// Every trace matches `path` (no trace escapes the valid path set).
    Covered {
        /// The path expression every trace must match.
        path: PathExpr,
    },
    /// The union of universes equals all paths matching `path`
    /// (equivalence behavior, verified by local contracts).
    Equal {
        /// The path expression defining the required path set.
        path: PathExpr,
    },
    /// Negation.
    Not(Box<Behavior>),
    /// Conjunction.
    And(Box<Behavior>, Box<Behavior>),
    /// Disjunction.
    Or(Box<Behavior>, Box<Behavior>),
}

impl Behavior {
    /// `exist count path`.
    pub fn exist(count: CountExpr, path: PathExpr) -> Behavior {
        Behavior::Exist { count, path }
    }

    /// `covered path`.
    pub fn covered(path: PathExpr) -> Behavior {
        Behavior::Covered { path }
    }

    /// `equal path`.
    pub fn equal(path: PathExpr) -> Behavior {
        Behavior::Equal { path }
    }

    /// The `subset` sugar of the language: at least one trace matches and
    /// every trace matches.
    pub fn subset(path: PathExpr) -> Behavior {
        Behavior::exist(CountExpr::ge(1), path.clone()).and(Behavior::covered(path))
    }

    /// Conjunction.
    pub fn and(self, other: Behavior) -> Behavior {
        Behavior::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Behavior) -> Behavior {
        Behavior::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Behavior {
        Behavior::Not(Box::new(self))
    }

    /// All path expressions appearing in the behavior, in a stable
    /// left-to-right order, deduplicated.
    pub fn path_exprs(&self) -> Vec<&PathExpr> {
        let mut out = Vec::new();
        self.collect_paths(&mut out);
        let mut seen = Vec::new();
        out.retain(|p| {
            if seen.contains(p) {
                false
            } else {
                seen.push(p);
                true
            }
        });
        out
    }

    fn collect_paths<'a>(&'a self, out: &mut Vec<&'a PathExpr>) {
        match self {
            Behavior::Exist { path, .. }
            | Behavior::Covered { path }
            | Behavior::Equal { path } => out.push(path),
            Behavior::Not(b) => b.collect_paths(out),
            Behavior::And(a, b) | Behavior::Or(a, b) => {
                a.collect_paths(out);
                b.collect_paths(out);
            }
        }
    }

    /// Does the behavior contain an `equal` operator?
    pub fn has_equal(&self) -> bool {
        match self {
            Behavior::Equal { .. } => true,
            Behavior::Exist { .. } | Behavior::Covered { .. } => false,
            Behavior::Not(b) => b.has_equal(),
            Behavior::And(a, b) | Behavior::Or(a, b) => a.has_equal() || b.has_equal(),
        }
    }
}

/// Fault-tolerance specification (§6): which failure scenes the invariant
/// must additionally hold under.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FaultSpec {
    /// No fault tolerance requested.
    #[default]
    None,
    /// Explicit scenes, each a set of failed links given as device-name
    /// pairs.
    Scenes(Vec<Vec<(String, String)>>),
    /// All scenes of up to `k` failed links (`any_two` sugar is `AnyK(2)`).
    AnyK(u32),
}

/// A complete invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Invariant {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// The packets the invariant concerns.
    pub packet_space: PacketSpace,
    /// Ingress device names.
    pub ingress: Vec<String>,
    /// The required behavior.
    pub behavior: Behavior,
    /// Optional fault tolerance (§6).
    pub fault_scenes: FaultSpec,
}

impl Invariant {
    /// Starts a builder.
    pub fn builder() -> InvariantBuilder {
        InvariantBuilder::default()
    }

    /// Parses the textual surface syntax (see [`parse`]).
    pub fn parse(input: &str) -> Result<Invariant, SpecError> {
        parse::parse_invariant(input)
    }
}

/// Builder for [`Invariant`].
#[derive(Debug, Default)]
pub struct InvariantBuilder {
    name: Option<String>,
    packet_space: Option<PacketSpace>,
    ingress: Vec<String>,
    behavior: Option<Behavior>,
    fault_scenes: FaultSpec,
}

impl InvariantBuilder {
    /// Optional human-readable name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// The packet space (required).
    pub fn packet_space(mut self, ps: PacketSpace) -> Self {
        self.packet_space = Some(ps);
        self
    }

    /// Ingress devices (required, at least one).
    pub fn ingress<S: Into<String>>(mut self, devices: impl IntoIterator<Item = S>) -> Self {
        self.ingress = devices.into_iter().map(Into::into).collect();
        self
    }

    /// The behavior (required).
    pub fn behavior(mut self, b: Behavior) -> Self {
        self.behavior = Some(b);
        self
    }

    /// Fault-tolerance scenes.
    pub fn fault_scenes(mut self, f: FaultSpec) -> Self {
        self.fault_scenes = f;
        self
    }

    /// Finishes the invariant, validating required fields.
    pub fn build(self) -> Result<Invariant, SpecError> {
        let behavior = self
            .behavior
            .ok_or_else(|| SpecError("missing behavior".into()))?;
        if self.ingress.is_empty() {
            return Err(SpecError("at least one ingress device is required".into()));
        }
        if behavior.has_equal() && !matches!(behavior, Behavior::Equal { .. }) {
            return Err(SpecError(
                "`equal` cannot be combined with other match operators".into(),
            ));
        }
        Ok(Invariant {
            name: self.name.unwrap_or_else(|| "invariant".into()),
            packet_space: self
                .packet_space
                .ok_or_else(|| SpecError("missing packet space".into()))?,
            ingress: self.ingress,
            behavior,
            fault_scenes: self.fault_scenes,
        })
    }
}

impl fmt::Display for PacketSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketSpace::All => write!(f, "*"),
            PacketSpace::DstPrefix(p) => write!(f, "dstIP={p}"),
            PacketSpace::DstPort(lo, hi) if lo == hi => write!(f, "dstPort={lo}"),
            PacketSpace::DstPort(lo, hi) => write!(f, "dstPort={lo}..{hi}"),
            PacketSpace::Proto(p) => write!(f, "proto={p}"),
            PacketSpace::And(a, b) => write!(f, "{a} && {b}"),
            PacketSpace::Or(a, b) => write!(f, "{a} || {b}"),
            PacketSpace::Not(a) => match &**a {
                PacketSpace::DstPort(lo, hi) if lo == hi => write!(f, "dstPort!={lo}"),
                other => write!(f, "!{other}"),
            },
        }
    }
}

impl fmt::Display for Behavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Behavior::Exist { count, path } => write!(f, "(exist {count}, {path})"),
            Behavior::Covered { path } => write!(f, "(covered, {path})"),
            Behavior::Equal { path } => write!(f, "(equal, {path})"),
            Behavior::Not(b) => write!(f, "not {b}"),
            Behavior::And(a, b) => write!(f, "({a} and {b})"),
            Behavior::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

impl fmt::Display for Invariant {
    /// Prints the textual surface syntax; invariants built from the
    /// surface syntax round-trip through [`Invariant::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, [{}], {}",
            self.packet_space,
            self.ingress.join(", "),
            self.behavior
        )?;
        match &self.fault_scenes {
            FaultSpec::None => {}
            FaultSpec::AnyK(k) => write!(f, ", faults: any {k}")?,
            FaultSpec::Scenes(scenes) => {
                write!(f, ", faults:")?;
                for s in scenes {
                    write!(f, " {{")?;
                    for (i, (a, b)) in s.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "({a},{b})")?;
                    }
                    write!(f, "}}")?;
                }
            }
        }
        write!(f, ")")
    }
}

/// An error constructing or parsing a specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_fields() {
        assert!(Invariant::builder().build().is_err());
        assert!(Invariant::builder()
            .packet_space(PacketSpace::All)
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("S .* D").unwrap()
            ))
            .build()
            .is_err()); // no ingress
        let inv = Invariant::builder()
            .packet_space(PacketSpace::All)
            .ingress(["S"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("S .* D").unwrap(),
            ))
            .build()
            .unwrap();
        assert_eq!(inv.ingress, vec!["S"]);
    }

    #[test]
    fn equal_cannot_be_combined() {
        let eq = Behavior::equal(PathExpr::parse("S .* D").unwrap().shortest_only());
        let ex = Behavior::exist(CountExpr::ge(1), PathExpr::parse("S .* D").unwrap());
        let bad = Invariant::builder()
            .packet_space(PacketSpace::All)
            .ingress(["S"])
            .behavior(eq.and(ex))
            .build();
        assert!(bad.is_err());
    }

    #[test]
    fn packet_space_compiles() {
        let layout = HeaderLayout::ipv4_tcp();
        let mut m = BddManager::new(layout.num_vars());
        // Fig. 2: P3 = 10.0.1.0/24 ∧ port 80; P4 = 10.0.1.0/24 ∧ port ≠ 80.
        let p24 = PacketSpace::dst_prefix("10.0.1.0/24");
        let p3 = p24.clone().and(PacketSpace::dst_port(80));
        let p4 = p24.clone().and(PacketSpace::dst_port(80).not());
        let c24 = p24.compile(&mut m, &layout);
        let c3 = p3.compile(&mut m, &layout);
        let c4 = p4.compile(&mut m, &layout);
        assert!(!m.intersects(c3, c4));
        let u = m.or(c3, c4);
        assert_eq!(u, c24);
    }

    #[test]
    fn path_expr_filters() {
        let pe = PathExpr::parse("S .* D")
            .unwrap()
            .shortest_plus(1)
            .loop_free();
        assert!(pe.has_symbolic_filter());
        assert_eq!(pe.concrete_hop_bound(), None);
        let f = pe.filters[0];
        assert!(f.accepts(3, 2));
        assert!(!f.accepts(4, 2));
        let pe2 = PathExpr::parse("S .* D").unwrap().max_hops(3);
        assert_eq!(pe2.concrete_hop_bound(), Some(3));
        assert!(!pe2.has_symbolic_filter());
    }

    #[test]
    fn behavior_path_collection_dedupes() {
        let p = PathExpr::parse("S .* D").unwrap();
        let b = Behavior::subset(p.clone());
        assert_eq!(b.path_exprs().len(), 1);
        let q = PathExpr::parse("S .* E").unwrap();
        let b2 = Behavior::exist(CountExpr::ge(1), p).and(Behavior::exist(CountExpr::eq(0), q));
        assert_eq!(b2.path_exprs().len(), 2);
    }

    #[test]
    fn display_path_expr() {
        let pe = PathExpr::parse("S .* W .* D")
            .unwrap()
            .loop_free()
            .shortest_plus(1);
        assert_eq!(pe.to_string(), "/S .* W .* D/ loop_free (<= shortest+1)");
        let pe = PathExpr::parse("S .* D").unwrap().shortest_only();
        assert_eq!(pe.to_string(), "/S .* D/ (== shortest)");
        let pe = PathExpr::parse("S .* D").unwrap().max_hops(5);
        assert_eq!(pe.to_string(), "/S .* D/ (<= 5)");
    }

    #[test]
    fn positive_dst_prefixes() {
        let ps = PacketSpace::dst_prefix("10.0.0.0/23").and(PacketSpace::dst_port(80));
        assert_eq!(
            ps.positive_dst_prefixes(),
            vec!["10.0.0.0/23".parse().unwrap()]
        );
    }
}
