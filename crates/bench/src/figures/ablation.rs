//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Minimal counting information** (Proposition 1): wire bytes and
//!    messages with reduction on vs off.
//! 2. **Suffix merging** (state minimization): DPVNet nodes vs the raw
//!    path trie.
//! 3. **LEC sharing across invariants** (§8): invariants hosted by one
//!    engine, one LEC table per device, vs one engine per invariant.
//! 4. **Proposition-2 scene reuse**: fault-tolerant DPVNet computation
//!    with and without the reuse short-cut.
//! 5. **Verification under loss**: DVM over a lossy management network
//!    (the sim crate's `FaultyTransport`) — retransmit/ack overhead per
//!    loss rate, with a report-equality check against the perfect
//!    channel.
//! 6. **Burst updates**: per-rule vs coalesced replay on every admitted
//!    predicate backend, each Report held to the dataset's first run.
//! 7. **Topology churn**: incremental re-plan vs full re-init.
//!
//! Every `same report` cell must read `true`; `check_figures` refuses
//! a table that holds another.

use crate::{fmt_ns, Cli, FigureTable};
use std::time::Instant;
use tulkun_core::churn::{ChurnSchedule, ChurnState};
use tulkun_core::count::ReduceMode;
use tulkun_core::dpvnet::{self, DpvNet};
use tulkun_core::event::{RuntimeEvent, Substrate};
use tulkun_core::fault::{build_ft_dpvnet, expand_fault_spec, FaultProfile};
use tulkun_core::planner::Planner;
use tulkun_core::spec::table1::{first_destination_counting, subset_reachability_to};
use tulkun_core::spec::{FaultSpec, PathExpr};
use tulkun_core::verify::Session;
use tulkun_datasets::{by_name, rule_updates};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_sim::{network_ip_only, BackendKind, Engine, EngineConfig};

/// Runs every ablation, one figure each.
pub fn run(cli: &Cli) {
    ablate_reduction(cli);
    ablate_suffix_merging(cli);
    ablate_lec_sharing(cli);
    ablate_scene_reuse(cli);
    ablate_fault_overhead(cli);
    ablate_burst_updates(cli);
    ablate_churn(cli);
}

/// The predicate backends a network's workload admits: all of
/// [`BackendKind::CONCRETE`] for destination-prefix-only FIBs, just the
/// BDD backend otherwise (the interval encodings are DST_ONLY).
fn admitted_backends(net: &Network) -> Vec<BackendKind> {
    if network_ip_only(net) {
        BackendKind::CONCRETE.to_vec()
    } else {
        vec![BackendKind::Bdd]
    }
}

/// Live topology churn: incremental re-plan (epoch fence + reused
/// DPVNet nodes) vs tearing the session down and re-initializing from a
/// fresh plan of the post-churn topology — convergence wall clock and
/// wire cost per event, with a report-equality check.
fn ablate_churn(cli: &Cli) {
    let mut t = FigureTable::new(
        "ablation_churn",
        "Topology churn: incremental re-plan vs full re-init (seed 7)",
        &[
            "dataset",
            "event",
            "reused nodes",
            "re-plan",
            "messages",
            "re-init",
            "init messages",
            "speedup",
            "same report",
        ],
    );
    for name in ["INet2", "B4-13"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let topo = &ds.network.topology;
        let (inv, cp) = first_destination_counting(topo).expect("first destination plans");

        let schedule = ChurnSchedule::seeded(topo, &inv, 7, 4);
        let mut sim = Engine::new(&ds.network, &cp, &inv.packet_space, EngineConfig::default());
        sim.run_to_quiescence();
        let mut churn = ChurnState::new();
        for ev in &schedule.0 {
            let t0 = Instant::now();
            let Ok(r) = sim.apply_event(&RuntimeEvent::Topology {
                event: *ev,
                base: topo.clone(),
                invariant: inv.clone(),
            }) else {
                continue;
            };
            let (total, reused) = (r.delta.total_nodes, r.delta.reused_nodes);
            let replan_wall = t0.elapsed().as_nanos() as u64;
            churn.apply(ev);

            // Full re-init: fresh plan + verifier construction + burst
            // over the same post-churn topology.
            let post = Network {
                topology: churn.apply_to(topo),
                fibs: ds.network.fibs.clone(),
                layout: ds.network.layout,
            };
            let t1 = Instant::now();
            let fresh_plan = Planner::new(&post.topology).plan(&inv).unwrap();
            let fresh_cp = fresh_plan.counting().unwrap();
            let mut fresh =
                Engine::new(&post, fresh_cp, &inv.packet_space, EngineConfig::default());
            let fr = fresh.run_to_quiescence();
            let reinit_wall = t1.elapsed().as_nanos() as u64;

            t.row(vec![
                name.into(),
                ev.describe_on(topo),
                format!("{reused}/{total}"),
                fmt_ns(replan_wall),
                r.messages.to_string(),
                fmt_ns(reinit_wall),
                fr.messages.to_string(),
                format!("{:.2}x", reinit_wall as f64 / replan_wall.max(1) as f64),
                (sim.report().canonical_bytes() == fresh.report().canonical_bytes()).to_string(),
            ]);
        }
    }
    t.finish();
}

/// The first `n` updates of a seeded [`rule_updates`] pool whose
/// destination prefix overlaps a prefix the first destination announces:
/// the packet space [`first_destination_counting`] counts, so each one
/// can move a count. Deterministic per seed; shorter than `n` only when
/// the pool holds fewer.
fn counted_updates(net: &Network, n: usize, seed: u64) -> Vec<RuleUpdate> {
    let topo = &net.topology;
    let Some((dst, _)) = topo.external_map().next() else {
        return Vec::new();
    };
    let counted = topo.external_prefixes(dst);
    let touches_counted = |u: &RuleUpdate| {
        let matches = match u {
            RuleUpdate::Insert { rule, .. } => &rule.matches,
            RuleUpdate::Remove { matches, .. } => matches,
        };
        counted.iter().any(|p| p.overlaps(&matches.dst))
    };
    rule_updates(net, n * 64, seed)
        .into_iter()
        .filter(touches_counted)
        .take(n)
        .collect()
}

/// Burst-update pipeline: replaying a churn trace rule-by-rule vs as
/// coalesced per-device batches — wire cost and verification time per
/// burst size, with a report-equality check against the per-rule run.
/// The trace touches only the counted destination's prefixes, and a
/// dataset whose replay sends no message is refused: a race in which
/// nothing is counted compares nothing.
fn ablate_burst_updates(cli: &Cli) {
    let mut t = FigureTable::new(
        "ablation_burst_updates",
        "Burst updates: per-rule vs coalesced batch replay, per backend (seed 7)",
        &[
            "dataset",
            "backend",
            "burst",
            "batches",
            "messages",
            "bytes",
            "verify time",
            "p50",
            "p90",
            "p99",
            "same report",
        ],
    );
    for name in ["INet2", "B4-13", "AT1-2"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let (inv, cp) =
            first_destination_counting(&ds.network.topology).expect("first destination plans");

        let trace = counted_updates(&ds.network, cli.updates.min(96), 7);
        let mut reference = None;
        for backend in admitted_backends(&ds.network) {
            for burst in [1usize, 4, 16, 64] {
                let r = crate::replay_trace_with(
                    &ds.network,
                    &cp,
                    &inv.packet_space,
                    &trace,
                    burst,
                    backend,
                );
                // One reference per dataset: backends and burst sizes
                // must all converge to the same Report bytes.
                let same = match &reference {
                    None => {
                        reference = Some(r.report.clone());
                        true
                    }
                    Some(reference) => *reference == r.report,
                };
                assert!(
                    r.messages > 0,
                    "ablation_burst_updates: {name} on {backend} at burst {burst} sent no message; \
                     its trace moves no count"
                );
                t.row(vec![
                    name.into(),
                    backend.to_string(),
                    burst.to_string(),
                    r.batches.to_string(),
                    r.messages.to_string(),
                    r.bytes.to_string(),
                    fmt_ns(r.completion_ns),
                    fmt_ns(r.p50_ns),
                    fmt_ns(r.p90_ns),
                    fmt_ns(r.p99_ns),
                    same.to_string(),
                ]);
            }
        }
    }
    t.finish();
}

/// Verification under loss: at-least-once DVM delivery over the
/// fault-injecting transport, overhead per loss rate (fixed seed 23).
fn ablate_fault_overhead(cli: &Cli) {
    let mut t = FigureTable::new(
        "ablation_fault_overhead",
        "DVM under message loss: retransmit/ack overhead, burst (seed 23)",
        &[
            "dataset",
            "loss",
            "messages",
            "drops",
            "retransmits",
            "retx bytes",
            "acks",
            "ack bytes",
            "same report",
        ],
    );
    for name in ["INet2", "B4-13"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let (inv, cp) =
            first_destination_counting(&ds.network.topology).expect("first destination plans");

        let mut clean = Engine::new(&ds.network, &cp, &inv.packet_space, EngineConfig::default());
        clean.run_to_quiescence();
        let reference = clean.report().canonical_bytes();

        for loss in [0.0, 0.01, 0.10] {
            let mut sim = Engine::lossy(
                &ds.network,
                &cp,
                &inv.packet_space,
                EngineConfig::default(),
                FaultProfile::loss(23, loss),
            );
            let r = sim.run_to_quiescence();
            let f = sim.stats().fault;
            t.row(vec![
                name.into(),
                format!("{:.0}%", loss * 100.0),
                r.messages.to_string(),
                f.drops.to_string(),
                f.retransmits.to_string(),
                f.retransmit_bytes.to_string(),
                f.acks.to_string(),
                f.ack_bytes.to_string(),
                (sim.report().canonical_bytes() == reference).to_string(),
            ]);
        }
    }
    t.finish();
}

/// Proposition 1: minimal counting information on the wire.
fn ablate_reduction(cli: &Cli) {
    let mut t = FigureTable::new(
        "ablation_reduction",
        "Proposition 1 (minimal counting information): wire cost, burst",
        &["dataset", "mode", "messages", "bytes"],
    );
    for name in ["INet2", "B4-13", "BTNA"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let topo = &ds.network.topology;
        let (dst, _) = topo.external_map().next().unwrap();
        let inv = subset_reachability_to(topo, dst).unwrap();
        // The all-pair invariant tracks escapes → reduction off by
        // design; ablate on the pure reachability variant instead.
        let inv = tulkun_core::spec::Invariant {
            behavior: tulkun_core::spec::Behavior::exist(
                tulkun_core::count::CountExpr::ge(1),
                inv.behavior.path_exprs()[0].clone(),
            ),
            ..inv
        };
        let plan = Planner::new(topo).plan(&inv).unwrap();
        let base = plan.counting().unwrap().clone();
        for (label, reduce) in [
            ("min (Prop. 1)", base.reduce),
            ("full sets", ReduceMode::None),
        ] {
            let mut cp = base.clone();
            cp.reduce = reduce;
            let mut session = Session::from_counting(&ds.network, cp, &inv.packet_space);
            let burst = session.run_to_quiescence();
            t.row(vec![
                name.into(),
                label.into(),
                burst.messages.to_string(),
                burst.bytes.to_string(),
            ]);
        }
    }
    t.finish();
}

/// Suffix merging: minimal DAG vs raw trie size.
fn ablate_suffix_merging(cli: &Cli) {
    let mut t = FigureTable::new(
        "ablation_suffix_merge",
        "State minimization (suffix merging): DPVNet nodes vs raw trie nodes",
        &["dataset", "paths", "trie nodes", "merged nodes", "ratio"],
    );
    for name in ["INet2", "B4-13", "BTNA", "NTT"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let topo = &ds.network.topology;
        let (dst, _) = topo.external_map().next().unwrap();
        let ingress: Vec<_> = topo.devices().filter(|d| *d != dst).collect();
        let pe = PathExpr::parse(&format!(". * {}", topo.name(dst)))
            .unwrap()
            .loop_free()
            .shortest_plus(2);
        let paths =
            dpvnet::enumerate_valid_paths(topo, &ingress, std::slice::from_ref(&pe), 2_000_000)
                .unwrap();
        // Raw trie size = number of distinct prefixes (incl. each path's
        // nodes).
        let mut prefixes = std::collections::BTreeSet::new();
        for p in &paths {
            for l in 1..=p.devices.len() {
                prefixes.insert(p.devices[..l].to_vec());
            }
        }
        let merged = dpvnet::from_paths(&paths, 1, topo);
        t.row(vec![
            name.into(),
            paths.len().to_string(),
            prefixes.len().to_string(),
            merged.num_nodes().to_string(),
            format!(
                "{:.1}x",
                prefixes.len() as f64 / merged.num_nodes().max(1) as f64
            ),
        ]);
    }
    t.finish();
}

/// LEC sharing (§8): 8 destination invariants hosted by one engine
/// (the base plus 7 installed intents, so each device builds its LEC
/// table once) against 8 engines (one table per device per invariant),
/// each arm driven to quiescence.
fn ablate_lec_sharing(cli: &Cli) {
    let mut t = FigureTable::new(
        "ablation_lec_sharing",
        "Shared LEC tables: 8 destination invariants to quiescence on one engine (base + 7 installs, their planning included) vs 8 engines",
        &["dataset", "one engine", "8 engines", "speedup"],
    );
    for name in ["AT1-2", "BTNA"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let topo = &ds.network.topology;
        let invs: Vec<_> = crate::workload::destinations(&ds.network)
            .into_iter()
            .take(8)
            .map(|(dst, _)| subset_reachability_to(topo, dst).unwrap())
            .collect();
        let plans: Vec<_> = invs
            .iter()
            .map(|inv| Planner::new(topo).plan(inv).unwrap())
            .collect();
        let engine = |i: usize| {
            let cp = plans[i].counting().unwrap();
            let cfg = EngineConfig::default();
            let mut e = Engine::new(&ds.network, cp, &invs[i].packet_space, cfg);
            e.run_to_quiescence();
            e
        };

        let t0 = Instant::now();
        let mut one = engine(0);
        for (i, inv) in invs.iter().enumerate().skip(1) {
            let install = RuntimeEvent::InstallIntent {
                name: format!("dst-{i}"),
                invariant: inv.clone(),
            };
            one.apply_event(&install).expect("a destination installs");
        }
        drop(one);
        let shared = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for i in 0..invs.len() {
            drop(engine(i));
        }
        let unshared = t0.elapsed().as_nanos() as u64;
        t.row(vec![
            name.into(),
            fmt_ns(shared),
            fmt_ns(unshared),
            format!("{:.2}x", unshared as f64 / shared.max(1) as f64),
        ]);
    }
    t.finish();
}

/// Proposition 2: scene reuse in fault-tolerant DPVNet computation.
fn ablate_scene_reuse(cli: &Cli) {
    let mut t = FigureTable::new(
        "ablation_scene_reuse",
        "Proposition 2 scene reuse in fault-tolerant DPVNet computation (k=2)",
        &[
            "dataset",
            "scenes",
            "reused",
            "with reuse",
            "naive estimate",
        ],
    );
    for name in ["INet2", "B4-13", "STFD"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let topo = &ds.network.topology;
        let (dst, _) = topo.external_map().next().unwrap();
        let src = topo.devices().find(|d| *d != dst).unwrap();
        let pe = PathExpr::parse(&format!("{} .* {}", topo.name(src), topo.name(dst)))
            .unwrap()
            .loop_free()
            .shortest_plus(1);
        let scenes = expand_fault_spec(topo, &FaultSpec::AnyK(2), 2_000).unwrap();
        let t0 = Instant::now();
        let ft =
            build_ft_dpvnet(topo, &[src], std::slice::from_ref(&pe), &scenes, 500_000).unwrap();
        let with_reuse = t0.elapsed().as_nanos() as u64;
        // Naive estimate: measure one full enumeration and charge it for
        // every reused scene on top of the measured run.
        let t1 = Instant::now();
        let _ = DpvNet::build(topo, &[src], std::slice::from_ref(&pe)).unwrap();
        let one = t1.elapsed().as_nanos() as u64;
        let naive = with_reuse + one * ft.reused_scenes as u64;
        t.row(vec![
            name.into(),
            scenes.len().to_string(),
            ft.reused_scenes.to_string(),
            fmt_ns(with_reuse),
            fmt_ns(naive),
        ]);
    }
    t.finish();
}
