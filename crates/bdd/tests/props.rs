//! Property-based tests: BDD operations against a brute-force
//! truth-table model, and serialization round-trips.

use proptest::prelude::*;
use tulkun_bdd::{serial, BddManager, Pred};

/// A tiny boolean-expression AST we can evaluate both ways.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

const VARS: u32 = 6;

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = (0..VARS).prop_map(Expr::Var);
    leaf.prop_recursive(5, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn build(m: &mut BddManager, e: &Expr) -> Pred {
    match e {
        Expr::Var(i) => m.var(*i),
        Expr::Not(a) => {
            let x = build(m, a);
            m.not(x)
        }
        Expr::And(a, b) => {
            let x = build(m, a);
            let y = build(m, b);
            m.and(x, y)
        }
        Expr::Or(a, b) => {
            let x = build(m, a);
            let y = build(m, b);
            m.or(x, y)
        }
        Expr::Xor(a, b) => {
            let x = build(m, a);
            let y = build(m, b);
            m.xor(x, y)
        }
    }
}

fn eval_model(e: &Expr, bits: &[bool]) -> bool {
    match e {
        Expr::Var(i) => bits[*i as usize],
        Expr::Not(a) => !eval_model(a, bits),
        Expr::And(a, b) => eval_model(a, bits) && eval_model(b, bits),
        Expr::Or(a, b) => eval_model(a, bits) || eval_model(b, bits),
        Expr::Xor(a, b) => eval_model(a, bits) != eval_model(b, bits),
    }
}

proptest! {
    #[test]
    fn bdd_agrees_with_truth_table(e in expr_strategy()) {
        let mut m = BddManager::new(VARS);
        let p = build(&mut m, &e);
        let mut count = 0u64;
        for assignment in 0..(1u32 << VARS) {
            let bits: Vec<bool> = (0..VARS).map(|i| assignment >> i & 1 == 1).collect();
            let expected = eval_model(&e, &bits);
            prop_assert_eq!(m.eval(p, &bits), expected);
            count += u64::from(expected);
        }
        prop_assert_eq!(m.sat_count(p), count as f64);
    }

    #[test]
    fn canonicity(e in expr_strategy()) {
        // Building the same function twice (even via double negation)
        // yields the identical node handle.
        let mut m = BddManager::new(VARS);
        let p = build(&mut m, &e);
        let q = build(&mut m, &e);
        prop_assert_eq!(p, q);
        let np = m.not(p);
        let nnp = m.not(np);
        prop_assert_eq!(nnp, p);
    }

    #[test]
    fn export_import_round_trip(e in expr_strategy()) {
        let mut src = BddManager::new(VARS);
        let p = build(&mut src, &e);
        let enc = serial::export(&src, p);
        // Into a fresh manager with unrelated noise first.
        let mut dst = BddManager::new(VARS);
        let _noise = build(&mut dst, &Expr::Xor(
            Box::new(Expr::Var(0)),
            Box::new(Expr::Var(VARS - 1)),
        ));
        let q = serial::import(&mut dst, &enc).unwrap();
        let native = build(&mut dst, &e);
        prop_assert_eq!(q, native, "import must re-canonicalize to the same function");
    }

    #[test]
    fn exists_matches_model(e in expr_strategy(), lo in 0u32..VARS, width in 1u32..3) {
        let hi = (lo + width).min(VARS);
        let mut m = BddManager::new(VARS);
        let p = build(&mut m, &e);
        let q = m.exists_range(p, lo, hi);
        for assignment in 0..(1u32 << VARS) {
            let bits: Vec<bool> = (0..VARS).map(|i| assignment >> i & 1 == 1).collect();
            // ∃x_lo..x_hi . e — true iff some completion of those bits
            // satisfies e.
            let mut expected = false;
            let quantified = hi - lo;
            for fill in 0..(1u32 << quantified) {
                let mut b = bits.clone();
                for (k, item) in b.iter_mut().enumerate().take(hi as usize).skip(lo as usize) {
                    *item = fill >> (k as u32 - lo) & 1 == 1;
                }
                if eval_model(&e, &b) {
                    expected = true;
                    break;
                }
            }
            prop_assert_eq!(m.eval(q, &bits), expected);
        }
    }

    #[test]
    fn implies_is_subset(a in expr_strategy(), b in expr_strategy()) {
        let mut m = BddManager::new(VARS);
        let pa = build(&mut m, &a);
        let pb = build(&mut m, &b);
        let imp = m.implies(pa, pb);
        let mut model_subset = true;
        for assignment in 0..(1u32 << VARS) {
            let bits: Vec<bool> = (0..VARS).map(|i| assignment >> i & 1 == 1).collect();
            if eval_model(&a, &bits) && !eval_model(&b, &bits) {
                model_subset = false;
                break;
            }
        }
        prop_assert_eq!(imp, model_subset);
    }

    #[test]
    fn diff_and_intersects_agree_with_and_not(a in expr_strategy(), b in expr_strategy()) {
        let mut m = BddManager::new(VARS);
        let pa = build(&mut m, &a);
        let pb = build(&mut m, &b);
        // `intersects` first: it must answer from a cold product
        // without building it.
        let nodes = m.node_count();
        let hit = m.intersects(pa, pb);
        prop_assert_eq!(m.node_count(), nodes);
        let d = m.diff(pa, pb);
        let nb = m.not(pb);
        prop_assert_eq!(d, m.and(pa, nb));
        prop_assert_eq!(hit, m.and(pa, pb) != Pred::FALSE);
        // Warm now: a memoised verdict answers instead of the walk.
        prop_assert_eq!(m.intersects(pa, pb), hit);
    }
}

/// 10^5 operations shaped like a daemon folding in one FIB update
/// after another — a fresh prefix moved between a dozen long-lived
/// classes — never leave more memo entries behind than `memo_bound()`,
/// and the bound engages (every step mints more entries than nodes).
#[test]
fn memo_stays_bounded_over_random_ops() {
    use rand::{Rng, RngCore, SeedableRng};
    const BITS: u32 = 32;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(19);
    let mut m = BddManager::new(BITS);
    let mut classes = [Pred::FALSE; 12];
    classes[0] = Pred::TRUE;
    let (mut ops, mut cleared, mut last) = (0usize, 0u32, 0usize);
    while ops < 100_000 {
        let (addr, len) = (rng.next_u32(), rng.gen_range(8..=BITS));
        // Low bits first: each step adds one node to the chain.
        let prefix = (0..len).rev().fold(Pred::TRUE, |p, i| {
            let bit = if addr >> (31 - i) & 1 == 1 {
                m.var(i)
            } else {
                m.nvar(i)
            };
            m.and(p, bit)
        });
        let to = rng.gen_range(0..classes.len());
        for (i, class) in classes.iter_mut().enumerate() {
            // What a verifier asks about an update before splicing it.
            let old = m.and(*class, prefix);
            let rest = m.diff(prefix, *class);
            assert_eq!(m.intersects(*class, prefix), old != Pred::FALSE);
            assert_eq!(m.or(old, rest), prefix);
            *class = if i == to {
                m.or(*class, prefix)
            } else {
                m.diff(*class, prefix)
            };
        }
        ops += len as usize + 5 * classes.len();
        let memo = m.memo_entries();
        assert_eq!(m.memo_bound(), (4 * m.node_count()).max(4096));
        assert!(
            memo <= m.memo_bound(),
            "after {ops} ops: {memo} memo entries over {} nodes",
            m.node_count()
        );
        cleared += u32::from(memo < last);
        last = memo;
    }
    // The classes still partition the space: the memo only memoises.
    let all = classes.iter().fold(Pred::FALSE, |u, c| m.or(u, *c));
    assert_eq!(all, Pred::TRUE);
    assert!(cleared > 0, "the bound never engaged: {last} entries");
}
