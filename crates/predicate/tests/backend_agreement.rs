//! Backend agreement on LEC classification.
//!
//! The Delta-net and interval-set encodings started life as
//! centralized baselines; promoted to on-device backends, they must
//! classify *any* destination-prefix FIB exactly like the BDD backend:
//! same equivalence classes in the same order, same action per class,
//! and byte-identical exported wire predicates (the invariant that
//! keeps the DVM protocol and the shared LEC cache backend-neutral).

use proptest::prelude::*;
use tulkun_bdd::serial::PortablePred;
use tulkun_bdd::HeaderLayout;
use tulkun_netmodel::fib::{Action, Fib, MatchSpec, Rule};
use tulkun_netmodel::prefix::IpPrefix;
use tulkun_netmodel::DeviceId;
use tulkun_predicate::{lecs, BackendKind, DynBackend, PredicateBackend};

fn rule_strategy() -> impl Strategy<Value = Rule> {
    (any::<u32>(), 0u8..=32, 0u8..4, 1u32..16).prop_map(|(addr, len, act, priority)| Rule {
        priority,
        matches: MatchSpec::dst(IpPrefix::new(addr, len)),
        action: match act {
            0 => Action::Drop,
            1 => Action::deliver(),
            n => Action::fwd(DeviceId(n as u32)),
        },
    })
}

/// The FIB's exported LEC table on one backend: `(wire bytes, action)`
/// per class, in classification order.
fn classify(fib: &Fib, kind: BackendKind) -> Vec<(PortablePred, Action)> {
    let mut be = DynBackend::new(kind, HeaderLayout::ipv4_tcp());
    lecs(fib, &mut be)
        .into_iter()
        .map(|(p, a)| (be.export(p), a))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn promoted_backends_classify_like_bdd(rules in proptest::collection::vec(rule_strategy(), 0..24)) {
        let mut fib = Fib::new();
        for r in rules {
            fib.insert(r);
        }
        let reference = classify(&fib, BackendKind::Bdd);
        for kind in [BackendKind::DeltaNet, BackendKind::Intervals] {
            let got = classify(&fib, kind);
            prop_assert_eq!(
                reference.len(),
                got.len(),
                "{} produced a different number of classes",
                kind
            );
            for (i, (b, o)) in reference.iter().zip(&got).enumerate() {
                prop_assert_eq!(&b.1, &o.1, "{} class {} action diverged", kind, i);
                prop_assert_eq!(
                    b.0.wire_bytes(),
                    o.0.wire_bytes(),
                    "{} class {} wire size diverged",
                    kind,
                    i
                );
                prop_assert!(b.0 == o.0, "{} class {} wire bytes diverged", kind, i);
            }
        }
    }
}
