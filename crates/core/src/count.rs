//! Per-universe count sets and the operators of §4.2.
//!
//! A [`Counts`] value records, for one packet set at one DPVNet node, the
//! *set of possible outcomes across universes*: each element is a vector
//! with one entry per path expression of the invariant (most invariants
//! have a single expression, so elements are usually scalars). `ALL`-type
//! forwarding combines children with the cross-product sum ⊗; `ANY`-type
//! forwarding takes the union ⊕ of the children's outcome sets
//! (Equations (1) and (2)).

use std::collections::BTreeSet;
use std::fmt;

/// A count expression `count_exp` of the specification language (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountExpr {
    /// `== N`
    Eq(u32),
    /// `>= N`
    Ge(u32),
    /// `> N`
    Gt(u32),
    /// `<= N`
    Le(u32),
    /// `< N`
    Lt(u32),
}

impl CountExpr {
    /// `>= n`.
    pub fn ge(n: u32) -> Self {
        CountExpr::Ge(n)
    }

    /// `== n`.
    pub fn eq(n: u32) -> Self {
        CountExpr::Eq(n)
    }

    /// Does a single universe's count satisfy the expression?
    pub fn satisfied(&self, count: u32) -> bool {
        match *self {
            CountExpr::Eq(n) => count == n,
            CountExpr::Ge(n) => count >= n,
            CountExpr::Gt(n) => count > n,
            CountExpr::Le(n) => count <= n,
            CountExpr::Lt(n) => count < n,
        }
    }

    /// The minimal counting information a node must propagate for this
    /// expression (Proposition 1).
    pub fn reduce_mode(&self) -> ReduceMode {
        match self {
            CountExpr::Ge(_) | CountExpr::Gt(_) => ReduceMode::Min,
            CountExpr::Le(_) | CountExpr::Lt(_) => ReduceMode::Max,
            CountExpr::Eq(_) => ReduceMode::TwoSmallest,
        }
    }
}

impl fmt::Display for CountExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountExpr::Eq(n) => write!(f, "== {n}"),
            CountExpr::Ge(n) => write!(f, ">= {n}"),
            CountExpr::Gt(n) => write!(f, "> {n}"),
            CountExpr::Le(n) => write!(f, "<= {n}"),
            CountExpr::Lt(n) => write!(f, "< {n}"),
        }
    }
}

/// How a node shrinks its count set before propagating it upstream
/// (Proposition 1: the *minimal counting information*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceMode {
    /// Send everything (used for compound, multi-expression invariants,
    /// where reductions do not commute with the behavior formula).
    None,
    /// Send only the minimum (sufficient for `>= N` / `> N`).
    Min,
    /// Send only the maximum (sufficient for `<= N` / `< N`).
    Max,
    /// Send the two smallest elements (sufficient for `== N`).
    TwoSmallest,
}

/// A set of per-universe outcome vectors.
///
/// Invariants maintained: elements are unique and sorted (BTreeSet),
/// every element has length `dim`, and the set is never empty (an empty
/// outcome set is meaningless — "no universes" — so constructors always
/// produce at least one element).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Counts {
    dim: usize,
    elems: BTreeSet<Vec<u32>>,
}

impl tulkun_json::ToJson for Counts {
    fn to_json(&self) -> tulkun_json::Json {
        tulkun_json::Json::Object(vec![
            ("dim".to_string(), tulkun_json::ToJson::to_json(&self.dim)),
            (
                "elems".to_string(),
                tulkun_json::ToJson::to_json(&self.elems),
            ),
        ])
    }
}

impl tulkun_json::FromJson for Counts {
    fn from_json(v: &tulkun_json::Json) -> Result<Self, tulkun_json::JsonError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| tulkun_json::JsonError::missing_field(name))
        };
        let dim: usize = tulkun_json::FromJson::from_json(field("dim")?)?;
        let elems: BTreeSet<Vec<u32>> = tulkun_json::FromJson::from_json(field("elems")?)?;
        if elems.is_empty() {
            return Err(tulkun_json::JsonError::new("empty outcome set"));
        }
        if elems.iter().any(|e| e.len() != dim) {
            return Err(tulkun_json::JsonError::new("outcome vector dim mismatch"));
        }
        Ok(Counts { dim, elems })
    }
}

impl Counts {
    /// The "nothing delivered" outcome: a single all-zero vector.
    pub fn zero(dim: usize) -> Counts {
        let mut elems = BTreeSet::new();
        elems.insert(vec![0; dim]);
        Counts { dim, elems }
    }

    /// A single fixed outcome vector.
    pub fn single(vec: Vec<u32>) -> Counts {
        assert!(!vec.is_empty(), "outcome vectors must have dim >= 1");
        let dim = vec.len();
        let mut elems = BTreeSet::new();
        elems.insert(vec);
        Counts { dim, elems }
    }

    /// A scalar outcome set (dim 1) from the given counts.
    pub fn scalars(counts: impl IntoIterator<Item = u32>) -> Counts {
        let elems: BTreeSet<Vec<u32>> = counts.into_iter().map(|c| vec![c]).collect();
        assert!(!elems.is_empty(), "scalar outcome set may not be empty");
        Counts { dim: 1, elems }
    }

    /// Vector dimension (number of path expressions).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct universes outcomes.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Always false (outcome sets are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the outcome vectors.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.elems.iter()
    }

    /// Is this exactly the all-zero singleton?
    pub fn is_zero(&self) -> bool {
        self.elems.len() == 1 && self.elems.iter().next().unwrap().iter().all(|&c| c == 0)
    }

    /// The cross-product sum ⊗ (Equation (1)): with `ALL`-type
    /// replication, every combination of child universes co-occurs and
    /// counts add.
    pub fn cross_sum(&self, other: &Counts) -> Counts {
        assert_eq!(self.dim, other.dim, "dimension mismatch in ⊗");
        let mut elems = BTreeSet::new();
        for a in &self.elems {
            for b in &other.elems {
                elems.insert(a.iter().zip(b).map(|(x, y)| x + y).collect());
            }
        }
        Counts {
            dim: self.dim,
            elems,
        }
    }

    /// The union ⊕ (Equation (2)): with `ANY`-type selection, each child
    /// outcome is a separate universe.
    pub fn union(&self, other: &Counts) -> Counts {
        assert_eq!(self.dim, other.dim, "dimension mismatch in ⊕");
        let mut elems = self.elems.clone();
        elems.extend(other.elems.iter().cloned());
        Counts {
            dim: self.dim,
            elems,
        }
    }

    /// Applies a minimal-information reduction (Proposition 1). Only
    /// meaningful for scalar sets; vector sets pass through unchanged.
    pub fn reduce(&self, mode: ReduceMode) -> Counts {
        if self.dim != 1 || self.elems.len() <= 1 {
            return self.clone();
        }
        let mut elems = BTreeSet::new();
        match mode {
            ReduceMode::None => return self.clone(),
            ReduceMode::Min => {
                elems.insert(self.elems.iter().next().unwrap().clone());
            }
            ReduceMode::Max => {
                elems.insert(self.elems.iter().next_back().unwrap().clone());
            }
            ReduceMode::TwoSmallest => {
                for e in self.elems.iter().take(2) {
                    elems.insert(e.clone());
                }
            }
        }
        Counts { dim: 1, elems }
    }

    /// Checks a scalar count expression against *every* universe
    /// (Tulkun verifies invariants across all universes, §2.1).
    /// `idx` selects the vector component (the path expression).
    pub fn all_satisfy(&self, idx: usize, expr: &CountExpr) -> bool {
        self.elems.iter().all(|v| expr.satisfied(v[idx]))
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if self.dim == 1 {
                write!(f, "{}", v[0])?;
            } else {
                write!(f, "{v:?}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_sum_matches_paper_example() {
        // W2 in Fig. 2c: downstream counts [1] from D1; W only forwards to
        // D, so its count is [1], not the sum with B2.
        let d1 = Counts::scalars([1]);
        let base = Counts::zero(1);
        assert_eq!(base.cross_sum(&d1), Counts::scalars([1]));
    }

    #[test]
    fn union_matches_paper_example() {
        // A1 in Fig. 2c for P3: B1 gives [0], W3 gives [1]; ANY-type →
        // [0, 1].
        let b1 = Counts::scalars([0]);
        let w3 = Counts::scalars([1]);
        assert_eq!(b1.union(&w3), Counts::scalars([0, 1]));
    }

    #[test]
    fn cross_sum_of_sets_is_pairwise() {
        let a = Counts::scalars([0, 1]);
        let b = Counts::scalars([1, 2]);
        // {0,1} ⊗ {1,2} = {1, 2, 3} (2 appears twice, sets dedupe).
        assert_eq!(a.cross_sum(&b), Counts::scalars([1, 2, 3]));
    }

    #[test]
    fn operators_are_commutative_and_associative() {
        let a = Counts::scalars([0, 2]);
        let b = Counts::scalars([1]);
        let c = Counts::scalars([0, 1]);
        assert_eq!(a.cross_sum(&b), b.cross_sum(&a));
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.cross_sum(&b).cross_sum(&c), a.cross_sum(&b.cross_sum(&c)));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    }

    #[test]
    fn zero_is_identity_for_cross_sum() {
        let a = Counts::scalars([3, 5]);
        assert_eq!(a.cross_sum(&Counts::zero(1)), a);
    }

    #[test]
    fn reductions() {
        let a = Counts::scalars([2, 5, 9]);
        assert_eq!(a.reduce(ReduceMode::Min), Counts::scalars([2]));
        assert_eq!(a.reduce(ReduceMode::Max), Counts::scalars([9]));
        assert_eq!(a.reduce(ReduceMode::TwoSmallest), Counts::scalars([2, 5]));
        assert_eq!(a.reduce(ReduceMode::None), a);
        let single = Counts::scalars([4]);
        assert_eq!(single.reduce(ReduceMode::TwoSmallest), single);
    }

    #[test]
    fn reduction_preserves_ge_verdict() {
        // Prop 1: min is sufficient for >= N.
        let expr = CountExpr::ge(1);
        for set in [vec![0, 1], vec![1, 2, 3], vec![0], vec![2]] {
            let full = Counts::scalars(set.clone());
            let red = full.reduce(ReduceMode::Min);
            assert_eq!(
                full.all_satisfy(0, &expr),
                red.all_satisfy(0, &expr),
                "set {set:?}"
            );
        }
    }

    #[test]
    fn reduction_preserves_eq_verdict() {
        let expr = CountExpr::eq(1);
        for set in [
            vec![1],
            vec![1, 1],
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0],
        ] {
            let full = Counts::scalars(set.clone());
            let red = full.reduce(ReduceMode::TwoSmallest);
            assert_eq!(
                full.all_satisfy(0, &expr),
                red.all_satisfy(0, &expr),
                "set {set:?}"
            );
        }
    }

    #[test]
    fn vector_counts_for_compound_invariants() {
        // Fig. 5b: D1 = (1, 0), E1 = (0, 1); S picks one of them (ANY).
        let d1 = Counts::single(vec![1, 0]);
        let e1 = Counts::single(vec![0, 1]);
        let s = d1.union(&e1);
        assert_eq!(s.len(), 2);
        // Anycast holds: in each universe exactly one of the two is 1.
        for v in s.iter() {
            assert_eq!(v.iter().sum::<u32>(), 1);
        }
        // The *incorrect* strawman (cross product of separate DPVNets)
        // would contain (0,0) and (1,1) — ⊗ shows why.
        let wrong = Counts::scalars([0, 1]);
        let cross = wrong.cross_sum(&Counts::scalars([0, 1]));
        assert!(cross.iter().any(|v| v[0] == 0) && cross.iter().any(|v| v[0] == 2));
    }

    #[test]
    fn count_expr_semantics() {
        assert!(CountExpr::Ge(1).satisfied(1));
        assert!(!CountExpr::Ge(1).satisfied(0));
        assert!(CountExpr::Gt(1).satisfied(2));
        assert!(!CountExpr::Gt(1).satisfied(1));
        assert!(CountExpr::Le(2).satisfied(2));
        assert!(!CountExpr::Le(2).satisfied(3));
        assert!(CountExpr::Lt(1).satisfied(0));
        assert!(CountExpr::Eq(0).satisfied(0));
        assert!(!CountExpr::Eq(0).satisfied(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Counts::scalars([0, 1]).to_string(), "[0, 1]");
        assert_eq!(CountExpr::ge(1).to_string(), ">= 1");
    }
}
