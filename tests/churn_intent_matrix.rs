//! The `ci.sh churn-intent-matrix` gate: substrate equivalence under
//! *overlapping* intent and topology churn.
//!
//! `intent_matrix` holds substrate equivalence for intent churn on a
//! quiet topology; `churn_matrix` holds it for topology churn with a
//! frozen intent set. This suite interleaves both at once — installs
//! and removals racing link/device events, under 10% management-plane
//! loss and mid-sequence `crash_restart` — across the event simulator
//! ([`tulkun::sim::Engine::new`]), the lossy event simulator
//! ([`tulkun::sim::Engine::lossy`]) and the per-device-thread runner
//! ([`tulkun::sim::ThreadedEngine`]), with the synchronous reference
//! [`Session`] driven alongside for its Report. A FIB batch may be
//! *staged* — applied at its device, its UPDATE wave left in flight —
//! so the next fence lands on a non-quiescent exchange, discards that
//! wave and must repair it.
//!
//! There are no "rejected" arms for intent ops: an install racing a
//! fence *parks* (bounded retry against the next epoch) and an intent
//! whose slice churn severed *degrades* (no verdicts, revived later) —
//! neither surfaces as `PlanError::Unsupported`. After every op the
//! three substrates must agree byte-for-byte and on each intent's
//! lifecycle state (live / parked / degraded / given-up), degradation
//! must equal an independent `plan_intent_on` probe of the effective
//! topology, and the Reports must equal the merged from-scratch
//! verdict of the surviving non-degraded intents on the post-churn
//! network.
//!
//! Run via `./ci.sh churn-intent-matrix` (a release-mode invocation of
//! this file); the same tests also run in the plain workspace pass.

use proptest::prelude::*;
use tulkun::core::churn::{ChurnSchedule, ChurnState, TopologyEvent};
use tulkun::core::count::CountExpr;
use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::fault::FaultProfile;
use tulkun::core::intent::{plan_intent_on, IntentId, IntentStore};
use tulkun::core::planner::Planner;
use tulkun::core::spec::{Behavior, PathExpr};
use tulkun::core::verify::{Freshness, Report, Session};
use tulkun::netmodel::fib::{Action, MatchSpec, Rule};
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;
use tulkun::sim::{Engine, EngineConfig, LecCache, Telemetry, TelemetryConfig, ThreadedEngine};
use tulkun::telemetry::JournalKind;

/// The fixed CI seed matrix (same as `churn_matrix`/`intent_matrix`).
const SEEDS: [u64; 4] = [1, 7, 23, 101];
/// The loss rates of the acceptance criterion.
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

/// The intents a random interleaving may install. `b-way` pins the
/// waypoint B that the device-churn arm takes down, so installs racing
/// that fence exercise parking and live slices exercise degradation.
fn intent_pool() -> Vec<(&'static str, Invariant)> {
    vec![
        ("waypoint", invariant("waypoint", "S .* W .* D")),
        ("a-reach", invariant("a-reach", "A .* D")),
        ("b-way", invariant("b-way", "S .* B .* D")),
    ]
}

/// One step of an interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Install `intent_pool()[i % len]`.
    Install(usize),
    /// Remove the `i % len`-th tracked non-base intent — live, parked
    /// or degraded alike (skipped when none exist).
    Remove(usize),
    /// Toggle B's `10.0.1.0/24` route (withdraw, then restore, ...).
    /// `staged` leaves the resulting UPDATE wave undelivered, for the
    /// next op to land on.
    FibToggle { staged: bool },
    /// A topology churn event.
    Churn(TopologyEvent),
    /// Crash/restart one device's agent between events.
    Crash(DeviceId),
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

/// The merged from-scratch verdict of the surviving non-degraded
/// intents on the post-churn network: each freshly planned and driven
/// to quiescence alone, violations re-tagged with the live id,
/// concatenated in id order.
fn merged_reference(net: &Network, churn: &ChurnState, intents: &[(u64, Invariant)]) -> Vec<u8> {
    let post = Network {
        topology: churn.apply_to(&net.topology),
        fibs: net.fibs.clone(),
        layout: net.layout,
    };
    let mut all = Vec::new();
    for (id, inv) in intents {
        let plan = Planner::new(&post.topology).plan(inv).unwrap();
        let mut s = Session::new(&post, &plan);
        s.run_to_quiescence();
        let mut r = s.report();
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

/// Per-intent lifecycle agreement across the three stores, and the
/// surviving evaluated set `(id, invariant)` the reference is built
/// from. Intents every store dropped (parked installs past the retry
/// cap) are pruned from `tracked`.
fn check_lifecycle_agreement(
    stores: [&IntentStore; 3],
    tracked: &mut Vec<(u64, Invariant)>,
    net: &Network,
    churn: &ChurnState,
    ctx: &str,
) -> Vec<(u64, Invariant)> {
    let [a, b, c] = stores;
    let mut evaluated = Vec::new();
    tracked.retain(|(id, inv)| {
        let iid = IntentId(*id);
        let parked = a.is_parked(iid);
        assert_eq!(
            parked,
            b.is_parked(iid),
            "parked skew for intent {id} {ctx}"
        );
        assert_eq!(
            parked,
            c.is_parked(iid),
            "parked skew for intent {id} {ctx}"
        );
        let live = a.get(iid).is_some();
        assert_eq!(
            live,
            b.get(iid).is_some(),
            "live skew for intent {id} {ctx}"
        );
        assert_eq!(
            live,
            c.get(iid).is_some(),
            "live skew for intent {id} {ctx}"
        );
        if parked {
            return true;
        }
        if !live {
            // A parked install that burned its retry budget: every
            // substrate must have given it up together.
            return false;
        }
        let degraded = a.get(iid).unwrap().is_degraded();
        for s in [b, c] {
            assert_eq!(
                degraded,
                s.get(iid).unwrap().is_degraded(),
                "degraded skew for intent {id} {ctx}"
            );
        }
        // Degradation is exactly "the slice no longer plans on the
        // effective topology" — independently recomputed.
        let effective = churn.apply_to(&net.topology);
        assert_eq!(
            degraded,
            plan_intent_on(&effective, inv, churn, None).is_err(),
            "intent {id} degradation disagrees with a fresh plan probe {ctx}"
        );
        if !degraded {
            evaluated.push((*id, inv.clone()));
        }
        true
    });
    evaluated
}

/// A flight recorder roomy enough that a lossy run's fault entries
/// never evict a lifecycle entry before it is compared.
fn recorder() -> std::sync::Arc<Telemetry> {
    Telemetry::new(TelemetryConfig {
        journal_capacity: 1 << 16,
        ..TelemetryConfig::enabled()
    })
}

/// Fences so far that re-announced (`tulkun_fence_repairs_total`).
fn repairs(tel: &Telemetry) -> u64 {
    let counters = tel.metrics().counters;
    counters
        .get("tulkun_fence_repairs_total")
        .copied()
        .unwrap_or(0)
}

/// The lifecycle entries one substrate journaled since `seen` (advanced
/// to the newest entry), as `(kind, epoch, intent, trace)`.
fn lifecycle_since(tel: &Telemetry, seen: &mut u64) -> Vec<(JournalKind, u64, Option<u64>, u64)> {
    use JournalKind as K;
    let events = tel.journal_events();
    let fresh = events.iter().filter(|e| e.seq > *seen);
    let out = fresh
        .filter(|e| {
            matches!(
                e.kind,
                K::TopologyChurn
                    | K::EpochFence
                    | K::IntentParked
                    | K::IntentInstalled
                    | K::IntentRemoved
                    | K::IntentDegraded
                    | K::IntentReplanned
                    | K::IntentRejected
            )
        })
        .map(|e| (e.kind, e.epoch, e.intent, e.trace))
        .collect();
    *seen = events.last().map_or(*seen, |e| e.seq);
    out
}

/// Drives one op sequence through all three substrates in lockstep via
/// the unified event API, asserting: no intent op is ever rejected,
/// equal accept/reject for churn events, lifecycle agreement, and
/// byte-identical Reports equal to the merged from-scratch reference
/// after every op. Returns how many fences made the clean engine run
/// the repair wave — only ones that landed on a staged exchange may.
fn drive_interleaving(ops: &[Op], loss: f64, seed: u64) -> u64 {
    let net = tulkun::datasets::fig2a_network();
    let base = invariant("reach", "S .* D");
    let pool = intent_pool();

    let plan = Planner::new(&net.topology).plan(&base).unwrap();
    let cp = plan.counting().unwrap().clone();

    // Intents may task devices the base plan skipped, so every
    // substrate gets a verifier per topology device up front.
    // One recorder per substrate: the lifecycle is decided in one
    // place, so all three must journal and count it identically.
    let recorders = [recorder(), recorder(), recorder()];
    let mut seen = [0u64; 3];
    let sim_cfg = |tel: &std::sync::Arc<Telemetry>| EngineConfig {
        all_devices: true,
        telemetry: tel.clone(),
        ..EngineConfig::default()
    };
    let mut clean = Engine::new(&net, &cp, &base.packet_space, sim_cfg(&recorders[0]));
    clean.burst();
    let mut lossy = Engine::lossy(
        &net,
        &cp,
        &base.packet_space,
        sim_cfg(&recorders[1]),
        FaultProfile::loss(seed, loss),
    );
    lossy.burst();
    let ecfg: EngineConfig = sim_cfg(&recorders[2]);
    let mut threaded =
        ThreadedEngine::spawn_with(&net, &cp, &base.packet_space, &ecfg, &LecCache::new());
    threaded.wait_quiescent();
    // The reference session has no crash model (a crash recovers to
    // the fixpoint it interrupted, so skipping it changes no Report);
    // only its Report is compared.
    let mut session = Session::new(&net, &plan);
    session.run_to_quiescence();

    // The model: every admitted intent (live, parked or degraded) plus
    // the base, the cumulative accepted churn, and the current FIBs.
    let mut tracked: Vec<(u64, Invariant)> = vec![(0, base.clone())];
    let mut churn = ChurnState::new();
    let mut net_now = net.clone();
    let mut withdrawn = false;
    // A staged wave nothing has driven to quiescence yet.
    let mut undrained = false;

    for (i, op) in ops.iter().enumerate() {
        let ctx = format!("at op {i} ({op:?}, seed {seed}, loss {loss})");
        let epoch_before = clean.epoch();
        let repairs_before = recorders.each_ref().map(|tel| repairs(tel));
        let quiescent_before = !undrained;
        match op {
            Op::Install(p) => {
                let (name, inv) = &pool[p % pool.len()];
                let ev = RuntimeEvent::InstallIntent {
                    name: name.to_string(),
                    invariant: inv.clone(),
                };
                // The whole point of the fence-race protocol: installs
                // are *never* rejected, with or without churn in
                // flight.
                let a = clean.apply_event(&ev).unwrap_or_else(|e| {
                    panic!("clean rejected an install {ctx}: {e:?}");
                });
                let b = lossy.apply_event(&ev).unwrap_or_else(|e| {
                    panic!("lossy rejected an install {ctx}: {e:?}");
                });
                let c = threaded.apply_event(&ev).unwrap_or_else(|e| {
                    panic!("threaded rejected an install {ctx}: {e:?}");
                });
                session.apply_event(&ev).unwrap_or_else(|e| {
                    panic!("session rejected an install {ctx}: {e:?}");
                });
                let id = a.intent.expect("install outcome carries the id");
                assert_eq!(b.intent, Some(id), "lossy allocated a different id {ctx}");
                assert_eq!(
                    c.intent,
                    Some(id),
                    "threaded allocated a different id {ctx}"
                );
                assert_eq!(a.parked, b.parked, "parked-outcome skew {ctx}");
                assert_eq!(a.parked, c.parked, "parked-outcome skew {ctx}");
                tracked.push((id.0, inv.clone()));
            }
            Op::Remove(p) => {
                let non_base: Vec<u64> = tracked
                    .iter()
                    .map(|(id, _)| *id)
                    .filter(|id| *id != 0)
                    .collect();
                if non_base.is_empty() {
                    continue;
                }
                let id = non_base[p % non_base.len()];
                let ev = RuntimeEvent::RemoveIntent(IntentId(id));
                // Removal is uniform across lifecycle states: a parked
                // entry is drained from the queue, a degraded record is
                // dropped, a live slice is un-tasked — never an error.
                for (s, r) in [
                    ("clean", clean.apply_event(&ev)),
                    ("lossy", lossy.apply_event(&ev)),
                    ("threaded", threaded.apply_event(&ev)),
                    ("session", session.apply_event(&ev)),
                ] {
                    r.unwrap_or_else(|e| panic!("{s} rejected a removal {ctx}: {e:?}"));
                }
                tracked.retain(|(t, _)| *t != id);
            }
            Op::FibToggle { staged } => {
                let u = if withdrawn {
                    restore_update(&net)
                } else {
                    withdraw_update(&net)
                };
                withdrawn = !withdrawn;
                net_now.apply(&u);
                if *staged {
                    let batch = std::slice::from_ref(&u);
                    clean.stage_batch(batch);
                    lossy.stage_batch(batch);
                    threaded.stage_batch(batch);
                    session.stage_batch(batch);
                } else {
                    let ev = RuntimeEvent::Batch(vec![u]);
                    clean.apply_event(&ev).unwrap();
                    lossy.apply_event(&ev).unwrap();
                    threaded.apply_event(&ev).unwrap();
                    session.apply_event(&ev).unwrap();
                }
                undrained = *staged;
            }
            Op::Churn(ev) => {
                let a = clean.apply_topology_event(ev, &net.topology, &base);
                let b = lossy.apply_topology_event(ev, &net.topology, &base);
                let c = threaded.apply_topology_event(ev, &net.topology, &base);
                let d = session.apply_topology_event(ev, &net.topology, &base);
                assert_eq!(
                    a.is_ok(),
                    d.is_ok(),
                    "clean/session accept divergence {ctx}"
                );
                assert_eq!(a.is_ok(), b.is_ok(), "clean/lossy accept divergence {ctx}");
                assert_eq!(
                    a.is_ok(),
                    c.is_ok(),
                    "clean/threaded accept divergence {ctx}"
                );
                if a.is_ok() {
                    churn.apply(ev);
                }
            }
            Op::Crash(dev) => {
                if churn.is_down(*dev) {
                    continue; // a quarantined agent has nothing to crash
                }
                clean.crash_restart(*dev);
                lossy.crash_restart(*dev);
                threaded.crash_restart(*dev);
                // The crash drove the engines to quiescence; the
                // session sits the crash out, so it drains by hand.
                session.run_to_quiescence();
                undrained = false;
            }
        }
        // Every fence is driven to quiescence; an op that burned no
        // epoch (a parked install, a no-footprint removal, a repeated
        // or rejected churn event) leaves a staged wave in flight on
        // the session (the engines drain on every event entry point,
        // so for them `undrained` is only conservative).
        undrained &= clean.epoch() == epoch_before;
        // The event simulators know exactly what a fence discards: one
        // that lands on a quiescent exchange repairs nothing. (The
        // threaded runner's in-flight gauge may also see traffic this
        // harness did not stage — a crash recovery still draining.)
        if quiescent_before {
            for (tel, before) in recorders.iter().zip(repairs_before).take(2) {
                assert_eq!(repairs(tel), before, "a quiet fence repaired {ctx}");
            }
        }

        assert_eq!(clean.epoch(), lossy.epoch(), "epoch skew {ctx}");
        assert_eq!(clean.epoch(), threaded.epoch(), "epoch skew {ctx}");
        assert_eq!(clean.epoch(), session.epoch(), "epoch skew {ctx}");
        let journaled: Vec<_> = recorders
            .iter()
            .zip(seen.iter_mut())
            .map(|(tel, seen)| lifecycle_since(tel, seen))
            .collect();
        for (tel, entries) in recorders.iter().zip(&journaled) {
            assert_eq!(
                tel.metrics().counters.get("tulkun_epoch_bumps_total"),
                recorders[0]
                    .metrics()
                    .counters
                    .get("tulkun_epoch_bumps_total"),
                "epoch-bump counter skew {ctx}"
            );
            let strip = |es: &[(JournalKind, u64, Option<u64>, u64)]| -> Vec<_> {
                es.iter().map(|(k, e, i, _)| (*k, *e, *i)).collect()
            };
            assert_eq!(
                strip(entries),
                strip(&journaled[0]),
                "lifecycle journal skew {ctx}"
            );
            for (kind, _, intent, trace) in entries {
                let fenced = |(k, _, _, t): &(JournalKind, u64, Option<u64>, u64)| {
                    *k == JournalKind::EpochFence && t == trace
                };
                assert!(
                    *kind != JournalKind::IntentInstalled || entries.iter().any(fenced),
                    "install of intent {intent:?} shares no trace with its fence {ctx}"
                );
            }
        }
        let evaluated = check_lifecycle_agreement(
            [clean.intents(), lossy.intents(), threaded.intents()],
            &mut tracked,
            &net_now,
            &churn,
            &ctx,
        );
        if undrained && i + 1 < ops.len() {
            continue; // not converged yet: a later op (or the end) drains
        }
        if undrained {
            clean.run_staged();
            lossy.run_staged();
            threaded.wait_quiescent();
            session.run_to_quiescence();
        }
        let expect = merged_reference(&net_now, &churn, &evaluated);
        for (name, bytes) in [
            ("clean", clean.report().canonical_bytes()),
            ("lossy", lossy.report().canonical_bytes()),
            ("threaded", threaded.report().canonical_bytes()),
            ("session", session.report().canonical_bytes()),
        ] {
            assert!(
                bytes == expect,
                "{name} Report diverged from merged reference {ctx}"
            );
        }
    }
    threaded.shutdown().expect("clean shutdown");
    repairs(&recorders[0])
}

/// The deterministic CI matrix: installs racing a device-down window
/// (parking + degradation + revival), a crash mid-window, removals of
/// parked entries, and FIB churn, at 0% and 10% loss.
#[test]
fn seed_matrix_overlapping_intent_and_topology_churn() {
    let net = tulkun::datasets::fig2a_network();
    let b = net.topology.expect_device("B");
    let w = net.topology.expect_device("W");
    let ops = [
        Op::Install(0),
        Op::Churn(TopologyEvent::DeviceDown(b)),
        // Lands on the B-down window: `b-way` cannot plan, so this
        // parks; the already-live `b-way`-free slices keep verdicts.
        Op::Install(2),
        Op::Crash(w),
        Op::Install(1),
        Op::FibToggle { staged: false },
        Op::Remove(1),
        Op::Churn(TopologyEvent::DeviceUp(b)),
        Op::Install(2),
        Op::FibToggle { staged: false },
    ];
    for seed in SEEDS {
        for loss in LOSS_RATES {
            drive_interleaving(&ops, loss, seed);
        }
    }
}

/// A removal landing while its install is still parked behind the
/// fence must drain the pending entry, not error — uniformly across
/// substrates (the regression arm of the `remove-while-parked` fix).
#[test]
fn remove_while_parked_drains_the_pending_queue_everywhere() {
    let net = tulkun::datasets::fig2a_network();
    let b = net.topology.expect_device("B");
    let ops = [
        Op::Churn(TopologyEvent::DeviceDown(b)),
        Op::Install(2), // parks: b-way cannot plan while B is down
        Op::Remove(0),  // removes the parked entry
        Op::Churn(TopologyEvent::DeviceUp(b)),
    ];
    drive_interleaving(&ops, 0.10, 23);
}

/// Fences that land on a non-quiescent exchange — a staged FIB wave
/// still in flight when a link flap, an intent install, a device death
/// and a removal arrive — discard that wave and must repair it: every
/// substrate ends byte-equal to the fresh plan (held per op by
/// `drive_interleaving`), with and without loss.
#[test]
fn fences_on_a_staged_exchange_repair_and_match_fresh() {
    let net = tulkun::datasets::fig2a_network();
    let a = net.topology.expect_device("A");
    let b = net.topology.expect_device("B");
    let staged = Op::FibToggle { staged: true };
    let ops = [
        Op::Install(0),
        staged.clone(),
        Op::Churn(TopologyEvent::LinkDown(a, b)),
        staged.clone(),
        Op::Install(1),
        staged.clone(),
        Op::Churn(TopologyEvent::DeviceDown(b)),
        staged.clone(),
        Op::Remove(0),
        Op::Churn(TopologyEvent::DeviceUp(b)),
        staged,
    ];
    for loss in LOSS_RATES {
        // Every fence but the revival's lands on a staged wave (a
        // quarantined B still announces toward its old-plan parents).
        assert_eq!(drive_interleaving(&ops, loss, 7), 4, "loss {loss}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_overlapping_interleavings_stay_byte_identical(
        (raw, schedule_seed, loss_idx, device_churn, crash_pos) in (
            proptest::collection::vec((0usize..5, 0usize..8), 2..8),
            1u64..512,
            0usize..2,
            any::<bool>(),
            0usize..8,
        )
    ) {
        let net = tulkun::datasets::fig2a_network();
        let base = invariant("reach", "S .* D");
        let schedule = ChurnSchedule::seeded(&net.topology, &base, schedule_seed, 4).0;
        let mut link_events = schedule.into_iter();
        let b = net.topology.expect_device("B");
        let w = net.topology.expect_device("W");

        let mut ops: Vec<Op> = raw
            .into_iter()
            .map(|(kind, idx)| match kind {
                0 => Op::Install(idx),
                1 => Op::Remove(idx),
                // The index's third bit: leave the wave in flight.
                2 => Op::FibToggle { staged: idx >= 4 },
                _ => match link_events.next() {
                    Some(ev) => Op::Churn(ev),
                    None => Op::Install(idx),
                },
            })
            .collect();
        if device_churn {
            let at = ops.len() / 2;
            ops.insert(at, Op::Churn(TopologyEvent::DeviceDown(b)));
            ops.push(Op::Churn(TopologyEvent::DeviceUp(b)));
        }
        ops.insert(crash_pos.min(ops.len()), Op::Crash(w));
        drive_interleaving(&ops, LOSS_RATES[loss_idx], schedule_seed);
    }
}

/// The acceptance scenario: eight intents installed around a
/// LinkDown/LinkUp pair under 10% loss. Zero `PlanError::Unsupported`
/// anywhere, every surviving intent ends `Fresh`, no install is left
/// parked once the link is back, and the three substrates' Reports are
/// byte-identical throughout (held per-op by `drive_interleaving`).
#[test]
fn eight_intents_survive_a_link_flap_under_loss() {
    let net = tulkun::datasets::fig2a_network();
    let base = invariant("reach", "S .* D");
    let a = net.topology.expect_device("A");
    let b = net.topology.expect_device("B");

    let mut ops: Vec<Op> = (0..4).map(Op::Install).collect();
    ops.push(Op::Churn(TopologyEvent::LinkDown(a, b)));
    ops.extend((4..6).map(Op::Install));
    ops.push(Op::Churn(TopologyEvent::LinkUp(a, b)));
    ops.extend((6..8).map(Op::Install));
    drive_interleaving(&ops, 0.10, 7);

    // Re-drive one substrate to inspect the end state: the flap is
    // net-zero, so nothing may stay parked, degraded or stale.
    let plan = Planner::new(&net.topology).plan(&base).unwrap();
    let cp = plan.counting().unwrap().clone();
    let sim_cfg = EngineConfig {
        all_devices: true,
        ..EngineConfig::default()
    };
    let mut sim = Engine::lossy(
        &net,
        &cp,
        &base.packet_space,
        sim_cfg,
        FaultProfile::loss(7, 0.10),
    );
    sim.burst();
    let pool = intent_pool();
    let mut survivors = 1; // the base intent
    for op in &ops {
        match op {
            Op::Install(p) => {
                let (name, inv) = &pool[p % pool.len()];
                sim.install_intent(name, inv)
                    .expect("install never rejects");
                survivors += 1;
            }
            Op::Churn(ev) => {
                sim.apply_topology_event(ev, &net.topology, &base)
                    .expect("flap is plannable");
            }
            _ => unreachable!("the flap script only installs and churns"),
        }
    }
    assert_eq!(
        sim.intents().parked_count(),
        0,
        "a parked install outlived the flap"
    );
    assert_eq!(
        sim.intents().degraded_count(),
        0,
        "a degraded slice outlived the flap"
    );
    assert_eq!(sim.intents().live().count(), survivors);
    let report = sim.report();
    assert!(
        report
            .freshness
            .iter()
            .all(|(_, f)| matches!(f, Freshness::Fresh)),
        "a surviving intent is not Fresh after the flap: {:?}",
        report.freshness
    );
}
