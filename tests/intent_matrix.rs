//! The `ci.sh intent-matrix` gate: substrate equivalence under runtime
//! intent churn.
//!
//! Random interleavings of intent installs/removals and FIB batches —
//! all delivered through the unified [`RuntimeEvent`] API — are driven
//! simultaneously against the synchronous reference session
//! ([`tulkun::core::verify::Session`]), the event simulator
//! ([`tulkun::sim::Engine::new`]), the lossy event simulator
//! ([`tulkun::sim::Engine::lossy`], 10% management-plane loss) and the
//! per-device-thread runner ([`tulkun::sim::ThreadedEngine`]). After
//! every op the Reports must be *byte-identical* across substrates and
//! equal to the merged standalone verdict of the surviving intent set
//! against the current FIBs (each intent freshly planned from scratch,
//! violations re-tagged with its live id). Any divergence is a bug in
//! per-intent slicing, task dedup/refcounting, or the epoch fence.
//!
//! Run via `./ci.sh intent-matrix` (a release-mode invocation of this
//! file); the same tests also run in the plain workspace test pass.

use proptest::prelude::*;
use tulkun::core::count::CountExpr;
use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::fault::FaultProfile;
use tulkun::core::intent::IntentId;
use tulkun::core::planner::Planner;
use tulkun::core::spec::{Behavior, PathExpr};
use tulkun::core::verify::{Report, Session};
use tulkun::netmodel::fib::{Action, MatchSpec, Rule};
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;
use tulkun::sim::{Engine, EngineConfig, LecCache, ThreadedEngine};

/// The fixed CI seed matrix (same as `churn_matrix`).
const SEEDS: [u64; 4] = [1, 7, 23, 101];
/// The loss rates of the intent acceptance criterion.
const LOSS_RATES: [f64; 2] = [0.0, 0.10];

/// One-behavior reachability invariant over the fig2a packet space,
/// with the first path atom as ingress.
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

/// The intents a random interleaving may install (repeats allowed —
/// identical intents must dedup to fully shared slices).
fn intent_pool() -> Vec<(&'static str, Invariant)> {
    vec![
        ("waypoint", invariant("waypoint", "S .* W .* D")),
        ("a-reach", invariant("a-reach", "A .* D")),
        ("b-way", invariant("b-way", "S .* B .* D")),
    ]
}

/// One step of an interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Install `intent_pool()[i % len]`.
    Install(usize),
    /// Remove the `i % len`-th live non-base intent (skipped when none
    /// are live).
    Remove(usize),
    /// Toggle B's `10.0.1.0/24` route (withdraw, then restore, ...).
    FibToggle,
}

/// A quiesced standalone session's report for one invariant.
fn fresh_report(net: &Network, inv: &Invariant) -> Report {
    let plan = Planner::new(&net.topology).plan(inv).unwrap();
    let mut s = Session::new(net, &plan);
    s.run_to_quiescence();
    s.report()
}

/// The expected merged verdict: each surviving intent's standalone
/// report against the current FIBs, violations re-tagged with the live
/// intent id, concatenated in id order.
fn merged_reference(net: &Network, intents: &[(u64, Invariant)]) -> Vec<u8> {
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

fn withdraw_update(net: &Network) -> RuleUpdate {
    RuleUpdate::Remove {
        device: net.topology.expect_device("B"),
        priority: 10,
        matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
    }
}

fn restore_update(net: &Network) -> RuleUpdate {
    RuleUpdate::Insert {
        device: net.topology.expect_device("B"),
        rule: Rule {
            priority: 10,
            matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
            action: Action::fwd(net.topology.expect_device("D")),
        },
    }
}

/// Drives one op sequence through all four substrates in lockstep via
/// [`Substrate::apply_event`], asserting equal accept/reject and
/// intent-id allocation per event, and byte-identical Reports equal to
/// the merged standalone reference after every op.
fn drive_interleaving(ops: &[Op], loss: f64, seed: u64) {
    let net = tulkun::datasets::fig2a_network();
    let base = invariant("reach", "S .* D");
    let pool = intent_pool();

    let plan = Planner::new(&net.topology).plan(&base).unwrap();
    let cp = plan.counting().unwrap().clone();

    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();

    // Intents may task devices the base plan skipped, so every
    // substrate gets a verifier per topology device up front.
    let sim_cfg = EngineConfig {
        all_devices: true,
        ..EngineConfig::default()
    };
    let mut clean = Engine::new(&net, &cp, &base.packet_space, sim_cfg.clone());
    clean.burst();
    let mut lossy = Engine::lossy(
        &net,
        &cp,
        &base.packet_space,
        sim_cfg,
        FaultProfile::loss(seed, loss),
    );
    lossy.burst();
    let ecfg = EngineConfig {
        all_devices: true,
        ..EngineConfig::default()
    };
    let mut threaded =
        ThreadedEngine::spawn_with(&net, &cp, &base.packet_space, &ecfg, &LecCache::new());
    threaded.wait_quiescent();

    // The model the substrates must track: live intents + current FIBs.
    let mut live: Vec<(u64, Invariant)> = vec![(0, base.clone())];
    let mut net_now = net.clone();
    let mut withdrawn = false;

    for (i, op) in ops.iter().enumerate() {
        let ev = match op {
            Op::Install(p) => {
                let (name, inv) = &pool[p % pool.len()];
                RuntimeEvent::InstallIntent {
                    name: name.to_string(),
                    invariant: inv.clone(),
                }
            }
            Op::Remove(p) => {
                let non_base: Vec<u64> = live
                    .iter()
                    .map(|(id, _)| *id)
                    .filter(|id| *id != 0)
                    .collect();
                if non_base.is_empty() {
                    continue;
                }
                RuntimeEvent::RemoveIntent(IntentId(non_base[p % non_base.len()]))
            }
            Op::FibToggle => {
                let u = if withdrawn {
                    restore_update(&net)
                } else {
                    withdraw_update(&net)
                };
                withdrawn = !withdrawn;
                RuntimeEvent::Batch(vec![u])
            }
        };

        let a = session.apply_event(&ev);
        let b = clean.apply_event(&ev);
        let c = lossy.apply_event(&ev);
        let d = threaded.apply_event(&ev);
        assert_eq!(
            a.is_ok(),
            b.is_ok(),
            "session/clean accept divergence at op {i} ({op:?}, seed {seed}, loss {loss})"
        );
        assert_eq!(
            a.is_ok(),
            c.is_ok(),
            "session/lossy accept divergence at op {i} ({op:?}, seed {seed}, loss {loss})"
        );
        assert_eq!(
            a.is_ok(),
            d.is_ok(),
            "session/threaded accept divergence at op {i} ({op:?}, seed {seed}, loss {loss})"
        );

        // Track the model and check intent-id agreement.
        if let Ok(out) = &a {
            match &ev {
                RuntimeEvent::InstallIntent { invariant, .. } => {
                    let id = out.intent.expect("install outcome carries the id");
                    for (o, n) in [(b, "clean"), (c, "lossy"), (d, "threaded")] {
                        assert_eq!(
                            o.unwrap().intent,
                            Some(id),
                            "{n} allocated a different intent id at op {i}"
                        );
                    }
                    live.push((id.0, invariant.clone()));
                }
                RuntimeEvent::RemoveIntent(id) => {
                    live.retain(|(l, _)| *l != id.0);
                }
                RuntimeEvent::Batch(updates) => {
                    for u in updates {
                        net_now.apply(u);
                    }
                }
                _ => unreachable!(),
            }
        }

        let expect = merged_reference(&net_now, &live);
        assert_eq!(
            session.report().canonical_bytes(),
            expect,
            "session Report diverged from merged reference at op {i} (seed {seed}, loss {loss})"
        );
        let rc = clean.report().canonical_bytes();
        assert_eq!(
            rc, expect,
            "clean Report diverged from merged reference at op {i} (seed {seed}, loss {loss})"
        );
        assert_eq!(
            lossy.report().canonical_bytes(),
            expect,
            "lossy Report diverged at op {i} (seed {seed}, loss {loss})"
        );
        assert_eq!(
            threaded.report().canonical_bytes(),
            expect,
            "threaded Report diverged at op {i} (seed {seed}, loss {loss})"
        );
    }
    threaded.shutdown().expect("clean shutdown");
}

/// The deterministic CI matrix: a fixed install/remove/FIB interleaving
/// per seed, at 0% and 10% loss.
#[test]
fn seed_matrix_intent_churn_under_loss_stays_byte_identical() {
    let ops = [
        Op::Install(0),
        Op::FibToggle,
        Op::Install(1),
        Op::Remove(0),
        Op::Install(2),
        Op::FibToggle,
        Op::Remove(1),
    ];
    for seed in SEEDS {
        for loss in LOSS_RATES {
            drive_interleaving(&ops, loss, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_interleavings_keep_substrates_byte_identical(
        (raw, loss_idx, seed) in (
            proptest::collection::vec((0usize..3, 0usize..4), 1..6),
            0usize..2,
            1u64..512,
        )
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(kind, idx)| match kind {
                0 => Op::Install(idx),
                1 => Op::Remove(idx),
                _ => Op::FibToggle,
            })
            .collect();
        drive_interleaving(&ops, LOSS_RATES[loss_idx], seed);
    }
}

/// Installing one intent on a real dataset (INet2) must re-task only
/// the devices in that intent's slice, reusing base-plan nodes where
/// the slices overlap — not re-plan the whole network.
#[test]
fn inet2_intent_install_is_slice_local() {
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let net = &ds.network;
    let (inv, cp) = tulkun::daemon::dataset_session(net, "INet2").unwrap();

    let sim_cfg = EngineConfig {
        all_devices: true,
        ..EngineConfig::default()
    };
    let mut sim = Engine::new(net, &cp, &inv.packet_space, sim_cfg);
    sim.burst();
    let before = sim.report().canonical_bytes();

    // A narrower intent over the same destination: one ingress only.
    let topo = &net.topology;
    let (dst, _) = topo.external_map().next().unwrap();
    let dst_name = topo.name(dst);
    let ingress = topo
        .devices()
        .find(|d| *d != dst)
        .map(|d| topo.name(d).to_string())
        .unwrap();
    // Same outcome-vector shape as the base session (exist ∧ covered,
    // escape-tracked): one counting profile per session.
    let path = PathExpr::parse(&format!(". * {dst_name}"))
        .unwrap()
        .loop_free()
        .shortest_plus(2);
    let narrow = Invariant::builder()
        .name("narrow reach")
        .packet_space(inv.packet_space.clone())
        .ingress([ingress.clone()])
        .behavior(Behavior::exist(CountExpr::ge(1), path.clone()).and(Behavior::covered(path)))
        .build()
        .unwrap();

    let (id, delta, _) = sim.install_intent("narrow reach", &narrow).unwrap();
    assert!(
        delta.changed.len() < topo.num_devices(),
        "install re-tasked the whole network: {} of {} devices",
        delta.changed.len(),
        topo.num_devices()
    );
    assert!(
        delta.reused_nodes > 0,
        "overlapping slices must share counting tasks: {delta:?}"
    );

    // Removal un-tasks at most the installed slice and restores the
    // pre-install verdict byte-for-byte.
    let (rm, _) = sim.remove_intent(id).unwrap();
    assert!(rm.removed.values().map(Vec::len).sum::<usize>() <= delta.total_nodes);
    assert_eq!(sim.report().canonical_bytes(), before);
}

/// A fence costs what it changes. On a quiescent session holding the
/// base and one other runtime intent, swapping a third intent out and
/// back in delivers messages only to the devices the two deltas touch
/// and their DPVNet neighbours — every other device's slice keeps the
/// `CIBIn` it already holds and hears nothing — and the re-install
/// costs no more messages than installing the same intent beside the
/// base alone (sharing can only save work).
#[test]
fn intent_swap_reaches_only_its_slice_and_its_neighbours() {
    use std::collections::BTreeSet;
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let net = &ds.network;
    let topo = &net.topology;
    // Reachability from one ingress to a destination's first external
    // prefix, along loop-free paths at most one hop off the shortest.
    let reach = |from: &str, to: &str| {
        let prefix = topo.external_prefixes(topo.expect_device(to))[0];
        let path = PathExpr::parse(&format!("{from} .* {to}")).unwrap();
        Invariant::builder()
            .name(format!("{from}->{to}"))
            .packet_space(PacketSpace::DstPrefix(prefix))
            .ingress([from])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                path.loop_free().shortest_plus(1),
            ))
            .build()
            .unwrap()
    };
    let base = reach("SEAT", "NEWY");
    let (other, swapped) = (reach("LOSA", "WASH"), reach("KANS", "CHIC"));
    let plan = Planner::new(topo).plan(&base).unwrap();
    let cp = plan.counting().unwrap();
    let engine = || {
        let cfg = EngineConfig {
            all_devices: true,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(net, cp, &base.packet_space, cfg);
        e.burst();
        e
    };

    let mut shared = engine();
    shared.install_intent("other", &other).unwrap();
    let (id, ..) = shared.install_intent("swapped", &swapped).unwrap();
    // Devices hosting a slice node adjacent to one on a touched device.
    let neighbours = |e: &Engine, touched: &BTreeSet<DeviceId>| -> BTreeSet<DeviceId> {
        let tasks = e.intents().global_tasks();
        let near = tasks.iter().filter(|t| touched.contains(&t.dev));
        near.flat_map(|t| t.upstream.iter().chain(&t.downstream))
            .map(|(_, d)| *d)
            .collect()
    };
    let heard = |e: &Engine| -> Vec<(DeviceId, u64)> {
        let per_device = &e.stats().per_device;
        per_device.iter().map(|(d, s)| (*d, s.messages)).collect()
    };
    let before = heard(&shared);
    let (removed, _) = shared.remove_intent(id).unwrap();
    let mut reached = removed.touched_devices();
    reached.extend(neighbours(&shared, &removed.touched_devices()));
    let (_, added, outcome) = shared.install_intent("swapped", &swapped).unwrap();
    reached.extend(added.touched_devices());
    reached.extend(neighbours(&shared, &added.touched_devices()));
    assert!(
        outcome.messages > 0,
        "the swap announces to its new parents"
    );
    let quiet: Vec<_> = before
        .iter()
        .filter(|(d, _)| !reached.contains(d))
        .collect();
    // Not vacuous: some untouched device hosts a node with children,
    // the audience of a network-wide re-announcement.
    let tasks = shared.intents().global_tasks();
    let listens = |d: &DeviceId| {
        tasks
            .iter()
            .any(|t| t.dev == *d && !t.downstream.is_empty())
    };
    assert!(quiet.iter().any(|(d, _)| listens(d)), "{quiet:?}");
    for (d, n) in &quiet {
        let now = shared.stats().per_device[d].messages;
        assert_eq!(now, *n, "untouched {d:?} heard the swap");
    }

    let mut solo = engine();
    let (.., alone) = solo.install_intent("swapped", &swapped).unwrap();
    assert!(
        outcome.messages <= alone.messages,
        "installing beside another intent cost {} messages, alone {}",
        outcome.messages,
        alone.messages
    );
}
