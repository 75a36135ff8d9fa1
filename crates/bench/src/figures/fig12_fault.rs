//! Figure 12: verification under fault scenes (WAN/LAN datasets).
//!
//! * 12a — time to re-verify the complete network after a fault scene
//!   happens (Tulkun: link-state flooding + recounting along the
//!   fault-tolerant DPVNet; baselines: re-verification on cached ECs,
//!   which the paper notes favors Delta-net).
//! * 12b/c — incremental rule updates inside fault scenes: % < 10 ms
//!   and the 80% quantile.

use crate::{all_pair_workload, fmt_ns, pct_under_10ms, quantile, Cli, FigureTable};
use tulkun_baselines::all_baselines;
use tulkun_core::fault::{plan_fault_tolerant, sample_scenes, FaultScene};
use tulkun_core::spec::FaultSpec;
use tulkun_datasets::{all_datasets, rule_updates, NetKind};
use tulkun_sim::{central_burst, central_update, Engine, EngineConfig};

/// Flooding delay model: one diameter worth of propagation.
fn flood_ns(topo: &tulkun_netmodel::Topology) -> u64 {
    topo.links().iter().map(|l| l.latency_ns).max().unwrap_or(0) * topo.diameter_hops() as u64
}

/// Emits `fig12a`, `fig12b` and `fig12c`.
pub fn run(cli: &Cli) {
    let mut a = FigureTable::new(
        "fig12a",
        "Fault scenes: re-verification time (avg over scenes) and baseline/Tulkun ratio",
        &[
            "dataset",
            "Tulkun",
            "AP/T",
            "APKeep/T",
            "Delta-net/T",
            "VeriFlow/T",
            "Flash/T",
        ],
    );
    let mut b = FigureTable::new(
        "fig12b",
        "Incremental updates inside fault scenes: % < 10 ms",
        &[
            "dataset",
            "Tulkun",
            "AP",
            "APKeep",
            "Delta-net",
            "VeriFlow",
            "Flash",
        ],
    );
    let mut c = FigureTable::new(
        "fig12c",
        "Incremental updates inside fault scenes: 80% quantile",
        &[
            "dataset",
            "Tulkun",
            "AP",
            "APKeep",
            "Delta-net",
            "VeriFlow",
            "Flash",
        ],
    );

    for ds in all_datasets(cli.scale) {
        if !cli.wants(&ds.spec.name) || ds.spec.kind == NetKind::Dc {
            continue;
        }
        eprintln!("[fig12] {}", ds.spec.name);
        let topo = &ds.network.topology;
        let scenes = sample_scenes(topo, 3, cli.scenes, 0xF12);
        let fault_scenes: Vec<FaultScene> = scenes.iter().skip(1).cloned().collect();

        // Tulkun: one fault-tolerant plan per destination is expensive to
        // build for every dataset, so use one representative destination
        // (the paper verifies the full all-pair invariant; the per-scene
        // recount cost is per-DPVNet and scales linearly).
        let (dst, prefix) = topo.external_map().next().unwrap();
        let src = topo.devices().find(|d| *d != dst).unwrap();
        let inv = tulkun_core::spec::Invariant::builder()
            .name("fault-tolerant reachability")
            .packet_space(tulkun_core::spec::PacketSpace::DstPrefix(prefix))
            .ingress([topo.name(src)])
            .behavior(tulkun_core::spec::Behavior::exist(
                tulkun_core::count::CountExpr::ge(1),
                tulkun_core::spec::PathExpr::parse(&format!(
                    "{} .* {}",
                    topo.name(src),
                    topo.name(dst)
                ))
                .unwrap()
                .loop_free()
                .shortest_plus(2),
            ))
            .fault_scenes(FaultSpec::Scenes(
                fault_scenes
                    .iter()
                    .map(|s| {
                        s.0.iter()
                            .map(|(x, y)| (topo.name(*x).to_string(), topo.name(*y).to_string()))
                            .collect()
                    })
                    .collect(),
            ))
            .build()
            .unwrap();
        let (plan, ft) = match plan_fault_tolerant(topo, &inv, 10_000, 500_000) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("  skipping {}: {e}", ds.spec.name);
                continue;
            }
        };
        let mut sim = Engine::new(
            &ds.network,
            &plan,
            &inv.packet_space,
            EngineConfig::default(),
        );
        sim.burst();
        let fl = flood_ns(topo);
        let mut scene_times: Vec<u64> = Vec::new();
        let mut incr_times: Vec<u64> = Vec::new();
        // Per-update baseline cost grows with rule count (AP rebuilds its
        // state); cap the stream on heavy datasets.
        let per_scene = if ds.spec.rules > 50_000 { 3 } else { 10 };
        let updates = rule_updates(&ds.network, cli.updates.min(100), 0xF12F);
        for scene in &fault_scenes {
            let Some(idx) = ft.scene_index(scene) else {
                continue;
            };
            if ft.intolerable.contains(&idx) {
                continue;
            }
            let tasks = ft.scene_tasks(idx);
            let r = sim.apply_scene(&tasks, fl);
            scene_times.push(r.completion_ns);
            // A few rule updates inside the scene.
            for u in updates.iter().take(per_scene) {
                if u.device() == dst {
                    continue;
                }
                incr_times.push(sim.incremental(u).completion_ns);
            }
            // Restore the base scene for the next iteration.
            let tasks0 = ft.scene_tasks(0);
            sim.apply_scene(&tasks0, fl);
        }
        let t_avg = if scene_times.is_empty() {
            0
        } else {
            scene_times.iter().sum::<u64>() / scene_times.len() as u64
        };

        // Baselines: scene re-verification = reverify() on cached state
        // (no rule update happened), plus the flooding-equivalent
        // notification latency.
        let wl = all_pair_workload(&ds.network);
        let loc = topo.devices().next().unwrap();
        let mut ratios = Vec::new();
        let mut pct_cells = vec![ds.spec.name.clone(), pct_under_10ms(&incr_times)];
        let mut q_cells = vec![ds.spec.name.clone(), fmt_ns(quantile(&incr_times, 0.8))];
        for mut tool in all_baselines() {
            central_burst(tool.as_mut(), &ds.network, &wl, loc);
            // 12a: average re-verification across scenes.
            let mut times = Vec::new();
            for _ in &fault_scenes {
                let t0 = std::time::Instant::now();
                tool.reverify();
                times.push(t0.elapsed().as_nanos() as u64 + fl);
            }
            let avg = times.iter().sum::<u64>() / times.len().max(1) as u64;
            ratios.push(format!("{:.2}x", avg as f64 / t_avg.max(1) as f64));
            // 12b/c: incremental updates (same stream).
            let mut bt = Vec::new();
            for u in updates.iter().take(per_scene * fault_scenes.len()) {
                bt.push(central_update(tool.as_mut(), &ds.network, u, loc).total_ns);
            }
            pct_cells.push(pct_under_10ms(&bt));
            q_cells.push(fmt_ns(quantile(&bt, 0.8)));
        }
        let mut row = vec![ds.spec.name.clone(), fmt_ns(t_avg)];
        row.extend(ratios);
        a.row(row);
        b.row(pct_cells);
        c.row(q_cells);
    }
    a.finish();
    b.finish();
    c.finish();
}
