//! Runtime intent churn on the synchronous reference session: merged
//! multi-intent reports must be byte-equal to standalone per-intent
//! sessions, removal must restore the pre-install verdict, and slices
//! must stay local to the devices they touch.

use tulkun_core::count::CountExpr;
use tulkun_core::event::{RuntimeEvent, Substrate};
use tulkun_core::intent::IntentId;
use tulkun_core::planner::Planner;
use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use tulkun_core::verify::{Report, Session};
use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::topology::Topology;
use tulkun_netmodel::IpPrefix;

fn pfx(s: &str) -> IpPrefix {
    s.parse().unwrap()
}

/// The Figure 2a network of the paper (S → A → {B, W} → D) with the §2
/// data plane (A replicates P2, splits P3, detours P4).
fn fig2a_network() -> Network {
    let mut t = Topology::new();
    let s = t.add_device("S");
    let a = t.add_device("A");
    let b = t.add_device("B");
    let w = t.add_device("W");
    let d = t.add_device("D");
    t.add_link(s, a, 1000);
    t.add_link(a, b, 1000);
    t.add_link(a, w, 1000);
    t.add_link(b, w, 1000);
    t.add_link(b, d, 1000);
    t.add_link(w, d, 1000);
    t.add_external_prefix(d, pfx("10.0.0.0/23"));
    let mut net = Network::new(t);
    net.fib_mut(s).insert(Rule {
        priority: 23,
        matches: MatchSpec::dst(pfx("10.0.0.0/23")),
        action: Action::fwd(a),
    });
    net.fib_mut(a).insert(Rule {
        priority: 30,
        matches: MatchSpec::dst(pfx("10.0.1.0/24")).with_port(80),
        action: Action::fwd_any([b, w]),
    });
    net.fib_mut(a).insert(Rule {
        priority: 20,
        matches: MatchSpec::dst(pfx("10.0.1.0/24")),
        action: Action::fwd(w),
    });
    net.fib_mut(a).insert(Rule {
        priority: 10,
        matches: MatchSpec::dst(pfx("10.0.0.0/24")),
        action: Action::fwd_all([b, w]),
    });
    net.fib_mut(b).insert(Rule {
        priority: 10,
        matches: MatchSpec::dst(pfx("10.0.0.0/24")),
        action: Action::Drop,
    });
    net.fib_mut(b).insert(Rule {
        priority: 10,
        matches: MatchSpec::dst(pfx("10.0.1.0/24")),
        action: Action::fwd(d),
    });
    net.fib_mut(w).insert(Rule {
        priority: 23,
        matches: MatchSpec::dst(pfx("10.0.0.0/23")),
        action: Action::fwd(d),
    });
    net.fib_mut(d).insert(Rule {
        priority: 23,
        matches: MatchSpec::dst(pfx("10.0.0.0/23")),
        action: Action::deliver(),
    });
    net
}

fn invariant(name: &str, expr: &str) -> Invariant {
    Invariant::builder()
        .name(name)
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress([expr.split_whitespace().next().unwrap()])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse(expr).unwrap().loop_free(),
        ))
        .build()
        .unwrap()
}

/// A quiesced standalone session's report for one invariant.
fn fresh_report(net: &Network, inv: &Invariant) -> Report {
    let plan = Planner::new(&net.topology).plan(inv).unwrap();
    let mut s = Session::new(net, &plan);
    s.run_to_quiescence();
    s.report()
}

/// The expected merged verdict: each surviving intent's standalone
/// report, violations re-tagged with the live intent id, concatenated
/// in id order.
fn merged_reference(net: &Network, intents: &[(u64, &Invariant)]) -> Vec<u8> {
    let mut all = Vec::new();
    for (id, inv) in intents {
        let mut r = fresh_report(net, inv);
        for v in &mut r.violations {
            v.intent = *id;
        }
        all.extend(r.violations);
    }
    Report {
        violations: all,
        ..Report::default()
    }
    .canonical_bytes()
}

fn session_for(net: &Network, inv: &Invariant) -> Session {
    let plan = Planner::new(&net.topology).plan(inv).unwrap();
    let mut s = Session::new(net, &plan);
    s.run_to_quiescence();
    s
}

#[test]
fn overlapping_intents_report_like_standalone_sessions() {
    let net = fig2a_network();
    let base = invariant("reach", "S .* D");
    let way = invariant("waypoint", "S .* W .* D");
    let mut s = session_for(&net, &base);
    assert_eq!(
        s.report().canonical_bytes(),
        merged_reference(&net, &[(0, &base)])
    );

    let (way_id, delta) = s.install_intent("waypoint", &way).unwrap();
    assert!(delta.reused_nodes > 0, "slices overlap: {delta:?}");
    assert_eq!(
        s.report().canonical_bytes(),
        merged_reference(&net, &[(0, &base), (way_id.0, &way)]),
        "merged report must equal the two standalone sessions"
    );

    // Removal restores the pre-install verdict exactly.
    let rm = s.remove_intent(way_id).unwrap();
    assert!(
        rm.removed.values().map(Vec::len).sum::<usize>() < delta.total_nodes,
        "shared nodes must survive removal: {rm:?}"
    );
    assert_eq!(
        s.report().canonical_bytes(),
        merged_reference(&net, &[(0, &base)])
    );
}

#[test]
fn intent_install_is_slice_local_and_lazy() {
    let net = fig2a_network();
    // The base intent never touches S: its slice starts at A.
    let base = invariant("a-reach", "A .* D");
    let way = invariant("s-way", "S .* W .* D");
    let mut s = session_for(&net, &base);
    let hosted = |s: &Session| {
        s.verifier(net.topology.expect_device("S"))
            .map(|v| v.node_ids())
    };
    assert_eq!(hosted(&s), Some(Vec::new()), "S hosts no node");

    let (way_id, delta) = s.install_intent("s-way", &way).unwrap();
    // S's verifier, built with the session, is tasked when an intent
    // pulls it in.
    assert!(hosted(&s).is_some_and(|nodes| !nodes.is_empty()));
    let touched = delta.touched_devices();
    assert!(
        !touched.contains(&net.topology.expect_device("B"))
            || delta.changed.len() < net.topology.num_devices(),
        "install must not re-task the whole network: {delta:?}"
    );
    assert_eq!(
        s.report().canonical_bytes(),
        merged_reference(&net, &[(0, &base), (way_id.0, &way)])
    );
}

#[test]
fn intent_churn_interleaved_with_fib_churn() {
    let net = fig2a_network();
    let base = invariant("reach", "S .* D");
    let way = invariant("waypoint", "S .* W .* D");
    let mut s = session_for(&net, &base);
    let (way_id, _) = s.install_intent("waypoint", &way).unwrap();

    // Break B→D for 10.0.1.0/24, then heal it, with the intent set
    // changing in between; the final verdict must match fresh plans of
    // the surviving set against the final FIBs.
    let b = net.topology.expect_device("B");
    let d = net.topology.expect_device("D");
    let withdraw = RuleUpdate::Remove {
        device: b,
        priority: 10,
        matches: MatchSpec::dst(pfx("10.0.1.0/24")),
    };
    let restore = RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 10,
            matches: MatchSpec::dst(pfx("10.0.1.0/24")),
            action: Action::fwd(d),
        },
    };
    s.apply_batch(std::slice::from_ref(&withdraw));
    let mut churned = net.clone();
    churned.apply(&withdraw);
    assert_eq!(
        s.report().canonical_bytes(),
        merged_reference(&churned, &[(0, &base), (way_id.0, &way)])
    );

    s.remove_intent(way_id).unwrap();
    s.apply_batch(std::slice::from_ref(&restore));
    churned.apply(&restore);
    assert_eq!(
        s.report().canonical_bytes(),
        merged_reference(&churned, &[(0, &base)])
    );

    // Re-install after FIB churn: planning sees the current FIB state.
    let (way_id2, _) = s.install_intent("waypoint", &way).unwrap();
    assert_eq!(
        s.report().canonical_bytes(),
        merged_reference(&churned, &[(0, &base), (way_id2.0, &way)])
    );
    assert_eq!(way_id2, IntentId(way_id.0 + 1), "ids are never reused");
}

#[test]
fn apply_event_covers_every_mutation() {
    let net = fig2a_network();
    let base = invariant("reach", "S .* D");
    let way = invariant("waypoint", "S .* W .* D");
    let mut s = session_for(&net, &base);

    let out = s
        .apply_event(&RuntimeEvent::InstallIntent {
            name: "waypoint".to_string(),
            invariant: way.clone(),
        })
        .unwrap();
    let id = out.intent.unwrap();
    let (total, reused) = out.slice.unwrap();
    assert!(total > 0 && reused > 0);

    let b = net.topology.expect_device("B");
    s.apply_event(&RuntimeEvent::Batch(vec![RuleUpdate::Remove {
        device: b,
        priority: 10,
        matches: MatchSpec::dst(pfx("10.0.1.0/24")),
    }]))
    .unwrap();
    s.apply_event(&RuntimeEvent::RemoveIntent(id)).unwrap();

    // An event outside the synchronous model is rejected, not ignored.
    assert!(s.apply_event(&RuntimeEvent::CrashRestart(b)).is_err());
}
