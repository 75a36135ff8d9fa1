//! Figure 13: fault-tolerant DPVNet computation latency for k = 0..3
//! link failures, per topology (the planner-side cost of §6).
//!
//! For each WAN/LAN/DC topology we compute the fault-tolerant DPVNet of
//! one representative `(<= shortest+1)` reachability invariant under all
//! scenes of up to k failures (sampling scenes above a cap so every row
//! completes; the sampled fraction is reported).

use crate::{fmt_ns, Cli, FigureTable};
use std::time::Instant;
use tulkun_core::fault::{build_ft_dpvnet, expand_fault_spec, sample_scenes, FaultScene};
use tulkun_core::spec::{FaultSpec, PathExpr};
use tulkun_datasets::all_datasets;

/// Scenes above this count are sampled.
const SCENE_CAP: usize = 400;

/// Emits `fig13`.
pub fn run(cli: &Cli) {
    let mut table = FigureTable::new(
        "fig13",
        "Fault-tolerant DPVNet computation latency (k = failed links)",
        &[
            "dataset",
            "k=0",
            "k=1",
            "k=2",
            "k=3",
            "scenes(k=3)",
            "reused",
            "union nodes",
        ],
    );
    for ds in all_datasets(cli.scale) {
        if !cli.wants(&ds.spec.name) {
            continue;
        }
        // Skip AT1-2/AT2-2: same topology as AT1-1/AT2-1 (the paper
        // deduplicates them in this figure too).
        if ds.spec.name == "AT1-2" || ds.spec.name == "AT2-2" {
            continue;
        }
        eprintln!("[fig13] {}", ds.spec.name);
        let topo = &ds.network.topology;
        // Representative invariant: reachability from one device to one
        // announced destination with a symbolic filter.
        let (dst, _) = topo.external_map().next().expect("announced prefix");
        let src = topo.devices().find(|d| *d != dst).unwrap();
        let pe = PathExpr::parse(&format!("{} .* {}", topo.name(src), topo.name(dst)))
            .unwrap()
            .loop_free()
            .shortest_plus(1);

        let mut cells = Vec::new();
        let mut scenes3 = 0usize;
        let mut reused = 0usize;
        let mut union_nodes = 0usize;
        for k in 0..=3u32 {
            let scenes: Vec<FaultScene> =
                match expand_fault_spec(topo, &FaultSpec::AnyK(k), SCENE_CAP) {
                    Ok(s) => s,
                    Err(_) => sample_scenes(topo, k, SCENE_CAP, 0xF1613 + k as u64),
                };
            let t0 = Instant::now();
            match build_ft_dpvnet(topo, &[src], std::slice::from_ref(&pe), &scenes, 500_000) {
                Ok(ft) => {
                    cells.push(fmt_ns(t0.elapsed().as_nanos() as u64));
                    if k == 3 {
                        scenes3 = scenes.len();
                        reused = ft.reused_scenes;
                        union_nodes = ft.dpvnet.num_nodes();
                    }
                }
                Err(e) => {
                    cells.push(format!("err({e})"));
                }
            }
        }
        let mut row = vec![ds.spec.name.clone()];
        row.extend(cells);
        row.push(scenes3.to_string());
        row.push(reused.to_string());
        row.push(union_nodes.to_string());
        table.row(row);
    }
    table.finish();
    println!("scenes capped at {SCENE_CAP} (sampled beyond; the paper enumerates exhaustively)");
}
