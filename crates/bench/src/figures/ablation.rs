//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Minimal counting information** (Proposition 1): wire bytes and
//!    messages with reduction on vs off.
//! 2. **Suffix merging** (state minimization): DPVNet nodes vs the raw
//!    path trie.
//! 3. **LEC sharing across invariants** (§8): per-device init cost with
//!    and without the shared table.
//! 4. **Proposition-2 scene reuse**: fault-tolerant DPVNet computation
//!    with and without the reuse short-cut.
//! 5. **Parallel init**: engine burst-init wall clock with sequential
//!    vs concurrent per-device verifier construction (the runtime
//!    layer's `parallel_init` option), with a report-equality check.
//! 6. **Verification under loss**: DVM over a lossy management network
//!    (the sim crate's `FaultyTransport`) — retransmit/ack overhead per
//!    loss rate, with a report-equality check against the perfect
//!    channel.

use crate::workload::first_destination_session;
use crate::{fmt_ns, Cli, FigureTable};
use std::time::Instant;
use tulkun_core::churn::{ChurnSchedule, ChurnState, TopologyEvent};
use tulkun_core::count::ReduceMode;
use tulkun_core::dpvnet::{self, DpvNet};
use tulkun_core::event::{RuntimeEvent, Substrate};
use tulkun_core::fault::{build_ft_dpvnet, expand_fault_spec, FaultProfile};
use tulkun_core::planner::Planner;
use tulkun_core::spec::{FaultSpec, PathExpr};
use tulkun_core::verify::Session;
use tulkun_datasets::{by_name, rule_updates};
use tulkun_netmodel::network::Network;
use tulkun_sim::{
    network_ip_only, BackendKind, Engine, EngineConfig, LecCache, Telemetry, TelemetryConfig,
};

/// Runs every ablation and the backend race, one figure each.
pub fn run(cli: &Cli) {
    ablate_reduction(cli);
    ablate_suffix_merging(cli);
    ablate_lec_sharing(cli);
    ablate_scene_reuse(cli);
    ablate_parallel_init(cli);
    ablate_fault_overhead(cli);
    ablate_burst_updates(cli);
    ablate_churn(cli);
    bench_backends(cli);
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

/// Predicate-backend race: the same burst-replay and churn workloads on
/// every admitted LEC encoding, with byte-equality of the final Report
/// against the BDD run. This is the `BENCH_backends.json` snapshot the
/// `backend-matrix` CI stage regenerates.
fn bench_backends(cli: &Cli) {
    let mut t = FigureTable::new(
        "bench_backends",
        "Predicate backends: burst replay and churn per LEC encoding (seed 7)",
        &[
            "dataset",
            "workload",
            "backend",
            "verify time",
            "messages",
            "bytes",
            "p50",
            "p90",
            "p99",
            "speedup vs bdd",
            "same report",
        ],
    );
    for name in ["INet2", "B4-13", "AT1-2"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let topo = &ds.network.topology;
        let (inv, cp) = first_destination_session(&ds.network);
        let trace = rule_updates(&ds.network, cli.updates.min(96), 7);
        let backends = admitted_backends(&ds.network);

        // Burst replay at two coalescing regimes.
        for burst in [8usize, 32] {
            let mut bdd_ref: Option<crate::ReplayOutcome> = None;
            for &backend in &backends {
                let r = crate::replay_trace_with(
                    &ds.network,
                    &cp,
                    &inv.packet_space,
                    &trace,
                    burst,
                    backend,
                );
                let (speedup, same) = match &bdd_ref {
                    None => ("1.00x".into(), true),
                    Some(b) => (
                        format!(
                            "{:.2}x",
                            b.completion_ns as f64 / r.completion_ns.max(1) as f64
                        ),
                        b.report == r.report,
                    ),
                };
                t.row(vec![
                    name.into(),
                    format!("burst {burst}"),
                    backend.to_string(),
                    fmt_ns(r.completion_ns),
                    r.messages.to_string(),
                    r.bytes.to_string(),
                    fmt_ns(r.p50_ns),
                    fmt_ns(r.p90_ns),
                    fmt_ns(r.p99_ns),
                    speedup,
                    same.to_string(),
                ]);
                if bdd_ref.is_none() {
                    bdd_ref = Some(r);
                }
            }
        }

        // Live topology churn (4 seeded events after the initial burst).
        let schedule = ChurnSchedule::seeded(topo, &inv, 7, 4);
        let mut bdd_churn: Option<(u64, Vec<u8>)> = None;
        for &backend in &backends {
            let telemetry = Telemetry::new(TelemetryConfig::enabled());
            let mut sim = Engine::new(
                &ds.network,
                &cp,
                &inv.packet_space,
                EngineConfig {
                    backend,
                    telemetry: telemetry.clone(),
                    ..EngineConfig::default()
                },
            );
            sim.run_to_quiescence();
            let (mut completion, mut messages, mut bytes) = (0u64, 0usize, 0u64);
            for ev in &schedule.0 {
                let Ok(r) = sim.apply_event(&RuntimeEvent::Topology {
                    event: *ev,
                    base: topo.clone(),
                    invariant: inv.clone(),
                }) else {
                    continue;
                };
                completion += r.completion_ns;
                messages += r.messages;
                bytes += r.bytes;
            }
            let report = sim.report().canonical_bytes();
            let handle = telemetry.histogram(tulkun_telemetry::HANDLE_NS);
            let pct = |p| handle.quantile(p).unwrap_or(0);
            let (speedup, same) = match &bdd_churn {
                None => ("1.00x".into(), true),
                Some((b_ns, b_report)) => (
                    format!("{:.2}x", *b_ns as f64 / completion.max(1) as f64),
                    *b_report == report,
                ),
            };
            t.row(vec![
                name.into(),
                format!("churn x{}", schedule.0.len()),
                backend.to_string(),
                fmt_ns(completion),
                messages.to_string(),
                bytes.to_string(),
                fmt_ns(pct(0.50)),
                fmt_ns(pct(0.90)),
                fmt_ns(pct(0.99)),
                speedup,
                same.to_string(),
            ]);
            if bdd_churn.is_none() {
                bdd_churn = Some((completion, report));
            }
        }
    }
    t.finish();
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
        let (inv, cp) = first_destination_session(&ds.network);

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
                match ev {
                    TopologyEvent::LinkDown(a, b) => {
                        format!("link-down {}-{}", topo.name(*a), topo.name(*b))
                    }
                    TopologyEvent::LinkUp(a, b) => {
                        format!("link-up {}-{}", topo.name(*a), topo.name(*b))
                    }
                    TopologyEvent::DeviceDown(d) => format!("device-down {}", topo.name(*d)),
                    TopologyEvent::DeviceUp(d) => format!("device-up {}", topo.name(*d)),
                },
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

/// Burst-update pipeline: replaying a churn trace rule-by-rule vs as
/// coalesced per-device batches — wire cost and verification time per
/// burst size, with a report-equality check against the per-rule run.
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
    for name in ["INet2", "B4-13"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let (inv, cp) = first_destination_session(&ds.network);

        let trace = rule_updates(&ds.network, cli.updates.min(96), 7);
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

/// Runtime-layer `parallel_init`: wall-clock burst init (verifier
/// construction + LEC build) sequential vs concurrent, same verdict.
fn ablate_parallel_init(cli: &Cli) {
    let mut t = FigureTable::new(
        "ablation_parallel_init",
        "parallel_init: burst-init wall clock, sequential vs concurrent",
        &[
            "dataset",
            "sequential",
            "parallel",
            "speedup",
            "workers",
            "host cpus",
            "same report",
        ],
    );
    // Speedup is bounded by the host: report the CPU count so a 1.0x
    // result on a 1-CPU CI box reads as expected, not as a regression.
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for name in ["INet2", "BTNA"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let (inv, cp) = first_destination_session(&ds.network);

        // Per-worker construction timings come from the telemetry
        // `init.build` spans (worker index in `aux`), so the figure can
        // report how many workers the pool actually used on this host.
        let run = |parallel_init: bool| {
            let telemetry = Telemetry::new(TelemetryConfig::enabled());
            let t0 = Instant::now();
            let mut sim = Engine::new(
                &ds.network,
                &cp,
                &inv.packet_space,
                EngineConfig {
                    parallel_init,
                    telemetry: telemetry.clone(),
                    ..Default::default()
                },
            );
            let init_wall = t0.elapsed().as_nanos() as u64;
            sim.run_to_quiescence();
            let workers = telemetry
                .spans()
                .iter()
                .filter(|s| s.name == "init.build")
                .map(|s| s.aux)
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            (init_wall, sim.report().canonical_bytes(), workers)
        };
        let (seq, seq_report, _) = run(false);
        let (par, par_report, workers) = run(true);
        t.row(vec![
            name.into(),
            fmt_ns(seq),
            fmt_ns(par),
            format!("{:.2}x", seq as f64 / par.max(1) as f64),
            workers.to_string(),
            host_cpus.to_string(),
            (seq_report == par_report).to_string(),
        ]);
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
        let (inv, cp) = first_destination_session(&ds.network);

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
        let prefixes = topo.external_prefixes(dst).to_vec();
        let inv = crate::workload::wan_invariant(&ds.network, dst, &prefixes);
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
            session.run_to_quiescence();
            let (msgs, bytes) = session
                .plan()
                .dpvnet
                .iter()
                .map(|(_, n)| n.dev)
                .collect::<std::collections::BTreeSet<_>>()
                .iter()
                .filter_map(|d| session.verifier(*d))
                .fold((0u64, 0u64), |(m, b), v| {
                    (m + v.stats.messages_sent, b + v.stats.bytes_sent)
                });
            t.row(vec![
                name.into(),
                label.into(),
                msgs.to_string(),
                bytes.to_string(),
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

/// LEC sharing (§8): per-device verifier construction with and without
/// the shared table, across 8 destination invariants.
fn ablate_lec_sharing(cli: &Cli) {
    let mut t = FigureTable::new(
        "ablation_lec_sharing",
        "Shared LEC tables across invariants: total verifier construction time",
        &["dataset", "shared", "not shared", "speedup"],
    );
    for name in ["AT1-2", "BTNA"] {
        if !cli.wants(name) {
            continue;
        }
        let ds = by_name(name, cli.scale).unwrap();
        let topo = &ds.network.topology;
        let dsts: Vec<_> = crate::workload::destinations(&ds.network)
            .into_iter()
            .take(8)
            .collect();
        let plans: Vec<_> = dsts
            .iter()
            .map(|(dst, prefixes)| {
                let inv = crate::workload::wan_invariant(&ds.network, *dst, prefixes);
                (Planner::new(topo).plan(&inv).unwrap(), inv)
            })
            .collect();

        let run = |share: bool| {
            let t0 = Instant::now();
            let cache = LecCache::new();
            for (plan, inv) in &plans {
                let cp = plan.counting().unwrap();
                if share {
                    let _ = Engine::with_cache(
                        &ds.network,
                        cp,
                        &inv.packet_space,
                        EngineConfig::default(),
                        &cache,
                    );
                } else {
                    let _ =
                        Engine::new(&ds.network, cp, &inv.packet_space, EngineConfig::default());
                }
            }
            t0.elapsed().as_nanos() as u64
        };
        let shared = run(true);
        let unshared = run(false);
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
