//! The BDD node arena and core logical operations.

use std::collections::HashMap;

/// A handle to a predicate: the index of a BDD root node inside one
/// [`BddManager`].
///
/// Handles are only meaningful together with the manager that produced
/// them; moving predicates between managers goes through
/// [`crate::serial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub(crate) u32);

impl Pred {
    /// The canonical false (empty set) predicate in every manager.
    pub const FALSE: Pred = Pred(0);
    /// The canonical true (full set) predicate in every manager.
    pub const TRUE: Pred = Pred(1);

    /// Raw node index (stable within one manager for the manager's
    /// lifetime; exposed for hashing and diagnostics).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a raw index previously obtained with
    /// [`Pred::index`]. The index must come from the *same* manager the
    /// handle will be used with; passing anything else yields a handle
    /// whose operations are meaningless (or panic on out-of-range
    /// accesses). Exists so backend facades can wrap predicate handles
    /// of several representations behind one uniform handle type.
    pub fn from_index(index: u32) -> Pred {
        Pred(index)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    /// Decision variable. Terminals use `u32::MAX`.
    var: u32,
    /// Child when the variable is 0.
    lo: u32,
    /// Child when the variable is 1.
    hi: u32,
}

const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
    /// `a \ b`; the only non-commutative operation.
    Diff,
    /// "`a ∧ b` is non-empty", as a terminal: memoised like the rest,
    /// builds nothing.
    Meet,
}

/// Operation-memo entries every manager may keep regardless of its
/// size (see [`BddManager::memo_bound`]).
const MEMO_FLOOR: usize = 4096;

/// An arena of reduced, ordered, hash-consed BDD nodes.
///
/// Variables are `0..num_vars`, ordered by index (variable 0 is the root
/// level). The node table grows monotonically (no garbage collection);
/// the operation memo does not: it is dropped whenever it outgrows the
/// node table it serves ([`BddManager::memo_bound`]).
#[derive(Debug, Clone)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<Node, u32>,
    cache: HashMap<(Op, u32, u32), u32>,
    not_cache: HashMap<u32, u32>,
    num_vars: u32,
}

impl BddManager {
    /// Creates a manager for predicates over `num_vars` boolean variables.
    pub fn new(num_vars: u32) -> Self {
        let nodes = vec![
            // 0 = FALSE terminal, 1 = TRUE terminal.
            Node {
                var: TERMINAL_VAR,
                lo: 0,
                hi: 0,
            },
            Node {
                var: TERMINAL_VAR,
                lo: 1,
                hi: 1,
            },
        ];
        BddManager {
            nodes,
            unique: HashMap::new(),
            cache: HashMap::new(),
            not_cache: HashMap::new(),
            num_vars,
        }
    }

    /// Number of boolean variables in this manager's order.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total nodes allocated (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Entries currently held by the operation memo. Between
    /// operations this never exceeds [`BddManager::memo_bound`].
    pub fn memo_entries(&self) -> usize {
        self.cache.len() + self.not_cache.len()
    }

    /// The most entries the operation memo may hold between operations:
    /// `max(4096, 4 × node_count)`. A long-running manager whose
    /// operands keep changing (one FIB update after another) would
    /// otherwise keep every intermediate result it ever saw. The rule
    /// is a constant, not a setting: a memo entry is about half a
    /// node's bytes (arena slot plus unique-table entry), so the memo
    /// may cost up to twice the table it indexes and no more — while
    /// the recurring working set of a converged verifier (measured:
    /// 0.3–1.9 entries per node) stays well clear of it. That margin
    /// is the point: a bound *at* the working set refills and clears in
    /// a loop, and every clear recomputes what the next operation
    /// needs.
    pub fn memo_bound(&self) -> usize {
        MEMO_FLOOR.max(4 * self.nodes.len())
    }

    /// Drops the operation memo and its allocations (what fills it
    /// next is a different working set of unknown size). Every handle
    /// and result stays valid — the tables only memoize.
    pub fn clear_caches(&mut self) {
        self.cache = HashMap::new();
        self.not_cache = HashMap::new();
    }

    /// Runs one top-level operation and then enforces the memo bound.
    /// Never mid-recursion: an operation keeps its own sub-results
    /// until it returns, so its complexity bound is untouched.
    fn bounded(&mut self, op: impl FnOnce(&mut Self) -> u32) -> Pred {
        let r = op(self);
        if self.memo_entries() > self.memo_bound() {
            self.clear_caches();
        }
        Pred(r)
    }

    /// The empty predicate (no packets).
    pub fn falsum(&self) -> Pred {
        Pred::FALSE
    }

    /// The full predicate (all packets).
    pub fn verum(&self) -> Pred {
        Pred::TRUE
    }

    /// The predicate "variable `var` is 1".
    pub fn var(&mut self, var: u32) -> Pred {
        assert!(var < self.num_vars, "variable {var} out of range");
        Pred(self.mk(var, 0, 1))
    }

    /// The predicate "variable `var` is 0".
    pub fn nvar(&mut self, var: u32) -> Pred {
        assert!(var < self.num_vars, "variable {var} out of range");
        Pred(self.mk(var, 1, 0))
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&idx) = self.unique.get(&node) {
            return idx;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.unique.insert(node, idx);
        idx
    }

    fn node(&self, idx: u32) -> Node {
        self.nodes[idx as usize]
    }

    fn level(&self, idx: u32) -> u32 {
        // Terminals sort below all decision variables.
        self.nodes[idx as usize].var
    }

    fn apply(&mut self, op: Op, a: u32, b: u32) -> u32 {
        // Terminal cases.
        match op {
            Op::And => {
                if a == 0 || b == 0 {
                    return 0;
                }
                if a == 1 {
                    return b;
                }
                if b == 1 || a == b {
                    return a;
                }
            }
            Op::Or => {
                if a == 1 || b == 1 {
                    return 1;
                }
                if a == 0 {
                    return b;
                }
                if b == 0 || a == b {
                    return a;
                }
            }
            Op::Xor => {
                if a == b {
                    return 0;
                }
                if a == 0 {
                    return b;
                }
                if b == 0 {
                    return a;
                }
            }
            Op::Diff => {
                if a == 0 || b == 1 || a == b {
                    return 0;
                }
                if b == 0 {
                    return a;
                }
                if a == 1 {
                    return self.not_rec(b);
                }
            }
            Op::Meet => unreachable!("meet_rec builds no node and never applies"),
        }
        // Commutative ops: normalize the cache key.
        let key = if a <= b || op == Op::Diff {
            (op, a, b)
        } else {
            (op, b, a)
        };
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let na = self.node(a);
        let nb = self.node(b);
        let (var, alo, ahi, blo, bhi) = if self.level(a) < self.level(b) {
            (na.var, na.lo, na.hi, b, b)
        } else if self.level(b) < self.level(a) {
            (nb.var, a, a, nb.lo, nb.hi)
        } else {
            (na.var, na.lo, na.hi, nb.lo, nb.hi)
        };
        let lo = self.apply(op, alo, blo);
        let hi = self.apply(op, ahi, bhi);
        let r = self.mk(var, lo, hi);
        self.cache.insert(key, r);
        r
    }

    /// Set intersection.
    pub fn and(&mut self, a: Pred, b: Pred) -> Pred {
        self.bounded(|m| m.apply(Op::And, a.0, b.0))
    }

    /// Set union.
    pub fn or(&mut self, a: Pred, b: Pred) -> Pred {
        self.bounded(|m| m.apply(Op::Or, a.0, b.0))
    }

    /// Symmetric difference.
    pub fn xor(&mut self, a: Pred, b: Pred) -> Pred {
        self.bounded(|m| m.apply(Op::Xor, a.0, b.0))
    }

    /// Set complement.
    pub fn not(&mut self, a: Pred) -> Pred {
        self.bounded(|m| m.not_rec(a.0))
    }

    fn not_rec(&mut self, a: u32) -> u32 {
        if a == 0 {
            return 1;
        }
        if a == 1 {
            return 0;
        }
        if let Some(&r) = self.not_cache.get(&a) {
            return r;
        }
        let n = self.node(a);
        let lo = self.not_rec(n.lo);
        let hi = self.not_rec(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache.insert(a, r);
        self.not_cache.insert(r, a);
        r
    }

    /// Set difference `a \ b`, applied directly: `¬b` is never built
    /// (only the sub-diagrams of it that end up in the result are).
    pub fn diff(&mut self, a: Pred, b: Pred) -> Pred {
        self.bounded(|m| m.apply(Op::Diff, a.0, b.0))
    }

    /// Is the predicate the empty set?
    pub fn is_false(&self, a: Pred) -> bool {
        a.0 == 0
    }

    /// Is the predicate the full set?
    pub fn is_true(&self, a: Pred) -> bool {
        a.0 == 1
    }

    /// Does `a ⊆ b` hold (every packet in `a` also matches `b`)?
    pub fn implies(&mut self, a: Pred, b: Pred) -> bool {
        self.diff(a, b) == Pred::FALSE
    }

    /// Do `a` and `b` share at least one packet? Walks the product
    /// until the first common path; the product itself is never built
    /// (no node is allocated — only the verdicts are memoised).
    pub fn intersects(&mut self, a: Pred, b: Pred) -> bool {
        self.bounded(|m| m.meet_rec(a.0, b.0)) == Pred::TRUE
    }

    fn meet_rec(&mut self, a: u32, b: u32) -> u32 {
        if a == 0 || b == 0 {
            return 0;
        }
        // Reduced diagrams: every non-FALSE node has a satisfying path.
        if a == 1 || b == 1 || a == b {
            return 1;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.cache.get(&(Op::Meet, a, b)) {
            return r;
        }
        let (na, nb) = (self.node(a), self.node(b));
        let (alo, ahi, blo, bhi) = if na.var < nb.var {
            (na.lo, na.hi, b, b)
        } else if nb.var < na.var {
            (a, a, nb.lo, nb.hi)
        } else {
            (na.lo, na.hi, nb.lo, nb.hi)
        };
        let r = u32::from(self.meet_rec(alo, blo) == 1 || self.meet_rec(ahi, bhi) == 1);
        self.cache.insert((Op::Meet, a, b), r);
        r
    }

    /// Number of satisfying assignments over all `num_vars` variables,
    /// as an `f64` (exact for < 2^53).
    pub fn sat_count(&self, a: Pred) -> f64 {
        let mut memo: HashMap<u32, f64> = HashMap::new();
        self.sat_rec(a.0, &mut memo) * 2f64.powi(self.level_gap(0, a.0) as i32)
    }

    fn level_gap(&self, upper: u32, idx: u32) -> u32 {
        let var = self.level(idx);
        let var = if var == TERMINAL_VAR {
            self.num_vars
        } else {
            var
        };
        var - upper
    }

    fn sat_rec(&self, idx: u32, memo: &mut HashMap<u32, f64>) -> f64 {
        if idx == 0 {
            return 0.0;
        }
        if idx == 1 {
            return 1.0;
        }
        if let Some(&c) = memo.get(&idx) {
            return c;
        }
        let n = self.node(idx);
        let lo = self.sat_rec(n.lo, memo) * 2f64.powi(self.level_gap(n.var + 1, n.lo) as i32);
        let hi = self.sat_rec(n.hi, memo) * 2f64.powi(self.level_gap(n.var + 1, n.hi) as i32);
        let c = lo + hi;
        memo.insert(idx, c);
        c
    }

    /// Existentially quantifies away all variables in `lo..hi`
    /// (`∃ x_lo..x_hi. a`). Used to compute the image of a packet set
    /// under a header rewrite.
    pub fn exists_range(&mut self, a: Pred, lo: u32, hi: u32) -> Pred {
        let mut memo = HashMap::new();
        self.bounded(|m| m.exists_rec(a.0, lo, hi, &mut memo))
    }

    fn exists_rec(&mut self, idx: u32, lo: u32, hi: u32, memo: &mut HashMap<u32, u32>) -> u32 {
        if idx <= 1 {
            return idx;
        }
        let var = self.level(idx);
        if var >= hi {
            return idx; // below the quantified range: unchanged
        }
        if let Some(&r) = memo.get(&idx) {
            return r;
        }
        let n = self.node(idx);
        let l = self.exists_rec(n.lo, lo, hi, memo);
        let h = self.exists_rec(n.hi, lo, hi, memo);
        let r = if var >= lo {
            self.apply(Op::Or, l, h)
        } else {
            self.mk(n.var, l, h)
        };
        memo.insert(idx, r);
        r
    }

    /// One satisfying assignment (variable index → value), or `None` for
    /// the empty predicate. Unconstrained variables are omitted.
    pub fn any_model(&self, a: Pred) -> Option<Vec<(u32, bool)>> {
        if a.0 == 0 {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = a.0;
        while cur != 1 {
            let n = self.node(cur);
            if n.hi != 0 {
                out.push((n.var, true));
                cur = n.hi;
            } else {
                out.push((n.var, false));
                cur = n.lo;
            }
        }
        Some(out)
    }

    /// Evaluates the predicate on a concrete assignment (a bit per
    /// variable, indexed by variable number).
    pub fn eval(&self, a: Pred, assignment: &[bool]) -> bool {
        let mut cur = a.0;
        loop {
            if cur == 0 {
                return false;
            }
            if cur == 1 {
                return true;
            }
            let n = self.node(cur);
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
    }

    /// Iterates over the nodes reachable from `root` in post-order
    /// (children strictly before parents — required by serialization).
    /// Yields `(index, var, lo, hi)`.
    pub(crate) fn reachable(&self, root: u32) -> Vec<(u32, u32, u32, u32)> {
        let mut seen: HashMap<u32, ()> = HashMap::new();
        let mut order = Vec::new();
        let mut stack = vec![(root, false)];
        while let Some((idx, expanded)) = stack.pop() {
            if idx <= 1 {
                continue;
            }
            let n = self.node(idx);
            if expanded {
                order.push((idx, n.var, n.lo, n.hi));
                continue;
            }
            if seen.insert(idx, ()).is_some() {
                continue;
            }
            stack.push((idx, true));
            stack.push((n.lo, false));
            stack.push((n.hi, false));
        }
        order
    }

    pub(crate) fn mk_raw(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        self.mk(var, lo, hi)
    }

    /// The node deciding `var` between `lo` (var = 0) and `hi` (var =
    /// 1), for children over later variables only: one hash-consed
    /// node, no apply.
    pub(crate) fn branch(&mut self, var: u32, lo: Pred, hi: Pred) -> Pred {
        debug_assert!(var < self.num_vars && self.level(lo.0).min(self.level(hi.0)) > var);
        Pred(self.mk(var, lo.0, hi.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_canonical() {
        let m = BddManager::new(4);
        assert!(m.is_false(Pred::FALSE));
        assert!(m.is_true(Pred::TRUE));
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn var_and_negation() {
        let mut m = BddManager::new(4);
        let x = m.var(0);
        let nx = m.nvar(0);
        assert_eq!(m.not(x), nx);
        assert_eq!(m.and(x, nx), Pred::FALSE);
        assert_eq!(m.or(x, nx), Pred::TRUE);
    }

    #[test]
    fn hash_consing_produces_identical_handles() {
        let mut m = BddManager::new(4);
        let a = {
            let x = m.var(0);
            let y = m.var(1);
            m.and(x, y)
        };
        let b = {
            let y = m.var(1);
            let x = m.var(0);
            m.and(y, x)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn de_morgan() {
        let mut m = BddManager::new(4);
        let x = m.var(0);
        let y = m.var(1);
        let lhs = {
            let o = m.or(x, y);
            m.not(o)
        };
        let rhs = {
            let nx = m.not(x);
            let ny = m.not(y);
            m.and(nx, ny)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn sat_count_basic() {
        let mut m = BddManager::new(3);
        assert_eq!(m.sat_count(Pred::TRUE), 8.0);
        assert_eq!(m.sat_count(Pred::FALSE), 0.0);
        let x = m.var(0);
        assert_eq!(m.sat_count(x), 4.0);
        let y = m.var(2);
        let xy = m.and(x, y);
        assert_eq!(m.sat_count(xy), 2.0);
        let xoy = m.or(x, y);
        assert_eq!(m.sat_count(xoy), 6.0);
    }

    #[test]
    fn implies_and_intersects() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let xy = m.and(x, y);
        assert!(m.implies(xy, x));
        assert!(!m.implies(x, xy));
        assert!(m.intersects(x, y));
        let nx = m.not(x);
        assert!(!m.intersects(x, nx));
    }

    #[test]
    fn xor_and_diff() {
        let mut m = BddManager::new(2);
        let x = m.var(0);
        let y = m.var(1);
        let d = m.diff(x, y);
        // x \ y = x & !y: one assignment out of 4.
        assert_eq!(m.sat_count(d), 1.0);
        let xo = m.xor(x, y);
        assert_eq!(m.sat_count(xo), 2.0);
    }

    #[test]
    fn exists_range_drops_constraints() {
        let mut m = BddManager::new(4);
        let x = m.var(1);
        let y = m.var(3);
        let p = m.and(x, y);
        // Quantify away var 1: result should be just y.
        let q = m.exists_range(p, 0, 2);
        assert_eq!(q, y);
        // Quantify everything: nonempty set → TRUE.
        let all = m.exists_range(p, 0, 4);
        assert!(m.is_true(all));
        // Empty stays empty.
        let e = m.exists_range(Pred::FALSE, 0, 4);
        assert!(m.is_false(e));
    }

    #[test]
    fn exists_range_of_disjunction() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let nx = m.not(x);
        let a = m.and(x, y);
        let b = {
            let ny = m.not(y);
            m.and(nx, ny)
        };
        let p = m.or(a, b);
        // ∃x. p = y ∨ ¬y = TRUE.
        let q = m.exists_range(p, 0, 1);
        assert!(m.is_true(q));
    }

    #[test]
    fn eval_and_model_agree() {
        let mut m = BddManager::new(4);
        let x = m.var(1);
        let y = m.nvar(3);
        let p = m.and(x, y);
        let model = m.any_model(p).unwrap();
        let mut assignment = vec![false; 4];
        for (v, b) in model {
            assignment[v as usize] = b;
        }
        assert!(m.eval(p, &assignment));
        assert!(m.any_model(Pred::FALSE).is_none());
    }
}
