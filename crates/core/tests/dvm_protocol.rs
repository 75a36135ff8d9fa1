//! DVM protocol-level tests (§5.2): message principle, incremental
//! minimality, Proposition-1 reductions on the wire, and verifier
//! bookkeeping.

use tulkun_bdd::{serial, BddManager};
use tulkun_core::control::DeviceFence;
use tulkun_core::count::{CountExpr, Counts};
use tulkun_core::dvm::{DeviceVerifier, Envelope, Payload, VerifierConfig};
use tulkun_core::event::{RuntimeEvent, Substrate};
use tulkun_core::planner::{NodeTask, Planner};
use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use tulkun_core::verify::{compile_packet_space, Session};
use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_netmodel::topology::Topology;
use tulkun_predicate::BackendKind::Bdd;
use tulkun_telemetry::Telemetry;

/// Line S → A → D, invariant: reachability with >= 1.
fn line_setup() -> (Network, tulkun_core::planner::Plan) {
    let mut t = Topology::new();
    let s = t.add_device("S");
    let a = t.add_device("A");
    let d = t.add_device("D");
    t.add_link(s, a, 1000);
    t.add_link(a, d, 1000);
    t.add_external_prefix(d, "10.0.0.0/24".parse().unwrap());
    let mut net = Network::new(t);
    let p = "10.0.0.0/24".parse().unwrap();
    net.fib_mut(s).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(p),
        action: Action::fwd(a),
    });
    net.fib_mut(a).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(p),
        action: Action::fwd(d),
    });
    net.fib_mut(d).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(p),
        action: Action::deliver(),
    });
    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S A D").unwrap(),
        ))
        .build()
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    (net, plan)
}

/// Collects all envelopes a verifier emits during init.
fn init_envelopes(net: &Network, plan: &tulkun_core::planner::Plan) -> Vec<Envelope> {
    let cp = plan.counting().unwrap();
    let psp = compile_packet_space(&net.layout, &plan.invariant.packet_space);
    let cfg = VerifierConfig {
        n_exprs: 1,
        track_escapes: false,
        reduce: cp.reduce,
    };
    let mut out = Vec::new();
    for task in &cp.tasks {
        let fib = net.fib(task.dev).clone();
        let mut v = DeviceVerifier::new(task.dev, net.layout, fib, cfg, Bdd, Telemetry::disabled());
        v.apply_fence(0, 0, share(&psp, task), &mut out);
    }
    out
}

/// The fence share that has a verifier just built host `task`, counting
/// over `psp`.
fn share(psp: &serial::PortablePred, task: &NodeTask) -> DeviceFence {
    DeviceFence {
        tasks: vec![(Some(psp.clone()), task.clone())],
        ..DeviceFence::default()
    }
}

#[test]
fn update_message_principle_holds() {
    // For every UPDATE: union(withdrawn) == union(result predicates).
    let (net, plan) = line_setup();
    for env in init_envelopes(&net, &plan) {
        let Payload::Update {
            withdrawn, results, ..
        } = &env.payload
        else {
            continue;
        };
        let mut m = BddManager::new(net.layout.num_vars());
        let mut wu = m.falsum();
        for w in withdrawn {
            let p = serial::import(&mut m, w).unwrap();
            wu = m.or(wu, p);
        }
        let mut ru = m.falsum();
        for (p, _) in results {
            let p = serial::import(&mut m, p).unwrap();
            ru = m.or(ru, p);
        }
        assert_eq!(wu, ru, "UPDATE principle violated");
    }
}

#[test]
fn only_destinations_speak_first() {
    // At init, the only non-trivial results come from the destination
    // device (everyone else is at the implicit zero).
    let (net, plan) = line_setup();
    let d = net.topology.device("D").unwrap();
    for env in init_envelopes(&net, &plan) {
        if let Payload::Update { .. } = &env.payload {
            assert_eq!(env.from, d, "only D changes its result at init");
        }
    }
}

#[test]
fn quiescent_session_is_silent_on_noop_updates() {
    let (net, plan) = line_setup();
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    assert!(session.report().holds());
    // Re-inserting an identical rule changes nothing: no DVM messages.
    let a = net.topology.device("A").unwrap();
    let d = net.topology.device("D").unwrap();
    let p = "10.0.0.0/24".parse().unwrap();
    let noop = RuleUpdate::Insert {
        device: a,
        rule: Rule {
            priority: 50,
            matches: MatchSpec::dst(p),
            action: Action::fwd(d),
        },
    };
    let msgs = session
        .apply_event(&RuntimeEvent::Batch(vec![noop]))
        .unwrap()
        .messages;
    assert_eq!(msgs, 0, "a no-op update must not generate messages");
    assert!(session.report().holds());
}

#[test]
fn stage_batch_defers_propagation_and_report_never_blocks() {
    let (net, plan) = line_setup();
    let a = net.topology.device("A").unwrap();
    let p = "10.0.0.0/24".parse().unwrap();
    let cut = vec![RuleUpdate::Remove {
        device: a,
        priority: 24,
        matches: MatchSpec::dst(p),
    }];

    let mut staged = Session::new(&net, &plan);
    staged.run_to_quiescence();
    staged.stage_batch(&cut);
    assert!(
        staged.pending() > 0,
        "the UPDATE wave must be staged, not run"
    );
    // A snapshot taken mid-flight still answers — it reflects what the
    // sources have converged to so far (the pre-cut state here).
    assert!(
        staged.report().holds(),
        "pre-drain snapshot sees the old state"
    );
    staged.run_to_quiescence();
    assert_eq!(staged.pending(), 0);

    let mut reference = Session::new(&net, &plan);
    reference.run_to_quiescence();
    reference.apply_event(&RuntimeEvent::Batch(cut)).unwrap();
    assert_eq!(
        staged.report().canonical_bytes(),
        reference.report().canonical_bytes(),
        "stage + run must equal apply_event"
    );
    assert!(!staged.report().holds(), "the cut breaks reachability");
}

#[test]
fn reduction_min_is_on_the_wire() {
    // With `exist >= 1` the wire carries only min(c): build the Fig. 2a
    // diamond where A has an ANY group so A's own LocCIB holds [0, 1],
    // but S must receive just [0].
    let mut t = Topology::new();
    let s = t.add_device("S");
    let a = t.add_device("A");
    let b = t.add_device("B");
    let w = t.add_device("W");
    let d = t.add_device("D");
    t.add_link(s, a, 1);
    t.add_link(a, b, 1);
    t.add_link(a, w, 1);
    t.add_link(w, d, 1);
    t.add_link(b, d, 1);
    t.add_external_prefix(d, "10.0.0.0/24".parse().unwrap());
    let mut net = Network::new(t);
    let p: tulkun_netmodel::IpPrefix = "10.0.0.0/24".parse().unwrap();
    net.fib_mut(s).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(p),
        action: Action::fwd(a),
    });
    net.fib_mut(a).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(p),
        action: Action::fwd_any([b, w]),
    });
    // b drops; w forwards.
    net.fib_mut(w).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(p),
        action: Action::fwd(d),
    });
    net.fib_mut(d).insert(Rule {
        priority: 24,
        matches: MatchSpec::dst(p),
        action: Action::deliver(),
    });

    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/24"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* D").unwrap().loop_free(),
        ))
        .build()
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    // S's LocCIB for the source node holds the reduced [0] (not [0,1]).
    let cp = session.plan();
    let (sdev, snode) = cp.dpvnet.sources()[0];
    let results = session.verifier_mut(sdev).unwrap().node_result(snode);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].1, Counts::scalars([0]));
    assert!(!session.report().holds());
}

#[test]
fn loccib_partitions_scope() {
    // After arbitrary update churn, each verifier's LocCIB entries stay
    // disjoint and cover the packet space.
    let (net, plan) = line_setup();
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    let a = net.topology.device("A").unwrap();
    let d = net.topology.device("D").unwrap();
    let s = net.topology.device("S").unwrap();
    let p: tulkun_netmodel::IpPrefix = "10.0.0.0/24".parse().unwrap();
    let (sub, _) = p.split();
    for (i, up) in [
        RuleUpdate::Insert {
            device: a,
            rule: Rule {
                priority: 60,
                matches: MatchSpec::dst(sub),
                action: Action::Drop,
            },
        },
        RuleUpdate::Insert {
            device: a,
            rule: Rule {
                priority: 61,
                matches: MatchSpec::dst(sub),
                action: Action::fwd(d),
            },
        },
        RuleUpdate::Remove {
            device: a,
            priority: 60,
            matches: MatchSpec::dst(sub),
        },
    ]
    .into_iter()
    .enumerate()
    {
        session.apply_event(&RuntimeEvent::Batch(vec![up])).unwrap();
        for dev in [s, a, d] {
            let v = session.verifier_mut(dev).unwrap();
            for node in v.node_ids() {
                let entries = v.node_result(node);
                let mut m = BddManager::new(net.layout.num_vars());
                let mut union = m.falsum();
                let preds: Vec<_> = entries
                    .iter()
                    .map(|(p, _)| serial::import(&mut m, p).unwrap())
                    .collect();
                for (x, &px) in preds.iter().enumerate() {
                    for &py in &preds[x + 1..] {
                        assert!(!m.intersects(px, py), "step {i}: overlapping LocCIB");
                    }
                    union = m.or(union, px);
                }
                let ps = compile_packet_space(&net.layout, &plan.invariant.packet_space);
                let ps = serial::import(&mut m, &ps).unwrap();
                assert!(
                    m.implies(ps, union),
                    "step {i}: LocCIB does not cover the scope"
                );
            }
        }
    }
    assert!(session.report().holds());
}

#[test]
fn set_tasks_keeps_upstream_consistent() {
    // A fence that re-tasks a node must preserve CIBOut semantics:
    // removing the only downstream edge drives the source's count to 0
    // via a real UPDATE.
    let (net, plan) = line_setup();
    let cp = plan.counting().unwrap().clone();
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();
    assert!(session.report().holds());

    // Build a task view where A's node loses its downstream edge.
    let mut tasks = cp.tasks.clone();
    let a = net.topology.device("A").unwrap();
    for t in &mut tasks {
        if t.dev == a {
            t.downstream.clear();
        }
    }
    // Deliver it through the fence, the one way a device's tasks
    // change — on a fresh Session-less driver.
    let psp = compile_packet_space(&net.layout, &plan.invariant.packet_space);
    let cfg = VerifierConfig {
        n_exprs: 1,
        track_escapes: false,
        reduce: cp.reduce,
    };
    let mut verifiers: std::collections::BTreeMap<_, _> = Default::default();
    let mut queue: Vec<Envelope> = Vec::new();
    for task in &cp.tasks {
        let fib = net.fib(task.dev).clone();
        let mut v = DeviceVerifier::new(task.dev, net.layout, fib, cfg, Bdd, Telemetry::disabled());
        v.apply_fence(0, 0, share(&psp, task), &mut queue);
        verifiers.insert(task.dev, v);
    }
    // Wave by wave, each in order: first in, first out.
    while !queue.is_empty() {
        for env in std::mem::take(&mut queue) {
            if let Some(v) = verifiers.get_mut(&env.to) {
                v.handle(&env, &mut queue);
            }
        }
    }
    // Fence every device to epoch 1; A's share re-tasks its node under
    // its own packet space.
    let new_a_tasks: Vec<_> = tasks.iter().filter(|t| t.dev == a).cloned().collect();
    for (dev, v) in verifiers.iter_mut() {
        let mut fence = DeviceFence::default();
        if *dev == a {
            fence.tasks = new_a_tasks.iter().map(|t| (None, t.clone())).collect();
        }
        v.apply_fence(1, 0, fence, &mut queue);
    }
    // Wave by wave, each in order: first in, first out.
    while !queue.is_empty() {
        for env in std::mem::take(&mut queue) {
            if let Some(v) = verifiers.get_mut(&env.to) {
                v.handle(&env, &mut queue);
            }
        }
    }
    // The source now sees count 0.
    let (sdev, snode) = cp.dpvnet.sources()[0];
    let results = verifiers.get_mut(&sdev).unwrap().node_result(snode);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].1, Counts::scalars([0]));
}
