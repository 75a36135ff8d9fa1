//! Figure 14: on-device initialization overhead (burst phase) across
//! the four commodity switch models — CDF quantiles of total time,
//! maximal memory and CPU load per device.

use crate::{fmt_ns, quantile, Cli, FigureTable};
use tulkun_datasets::all_datasets;
use tulkun_sim::{Engine, EngineConfig, SwitchModel};

/// Emits `fig14`.
pub fn run(cli: &Cli) {
    // Collect per-device init overheads across the WAN/LAN datasets (the
    // paper pools 414 WAN/LAN devices plus representative DC devices).
    let mut init_ns: Vec<u64> = Vec::new();
    let mut mem_bytes: Vec<u64> = Vec::new();
    let mut cpu_load: Vec<f64> = Vec::new();
    for ds in all_datasets(cli.scale) {
        if !cli.wants(&ds.spec.name) {
            continue;
        }
        eprintln!("[fig14] {}", ds.spec.name);
        // One representative destination session measures each device's
        // init (LEC build + initial counting) — the LEC build dominates
        // and is shared across destinations (§8), so one session per
        // device is the right sample. The DC fabrics (whose own
        // invariants are local contracts) go through the same counting
        // session.
        for (init, mem, load) in tulkun_stats(&ds) {
            init_ns.push(init);
            mem_bytes.push(mem);
            cpu_load.push(load);
        }
    }

    let mut table = FigureTable::new(
        "fig14",
        "Initialization overhead per device (CDF quantiles over all devices)",
        &[
            "switch model",
            "time p50",
            "time p90",
            "time max",
            "mem p90",
            "mem max",
            "cpu load p90",
        ],
    );
    for model in SwitchModel::ALL {
        let scaled: Vec<u64> = init_ns
            .iter()
            .map(|&t| ((t as f64) * model.cpu_factor / SwitchModel::MELLANOX.cpu_factor) as u64)
            .collect();
        let mut loads: Vec<u64> = cpu_load.iter().map(|&l| (l * 1000.0) as u64).collect();
        loads.sort_unstable();
        table.row(vec![
            model.name.into(),
            fmt_ns(quantile(&scaled, 0.5)),
            fmt_ns(quantile(&scaled, 0.9)),
            fmt_ns(quantile(&scaled, 1.0)),
            format!("{:.2}MB", quantile(&mem_bytes, 0.9) as f64 / 1e6),
            format!("{:.2}MB", quantile(&mem_bytes, 1.0) as f64 / 1e6),
            format!("{:.2}", quantile(&loads, 0.9) as f64 / 1000.0),
        ]);
    }
    table.finish();
    println!("devices sampled: {}", init_ns.len());
}

/// Per-device (init time, memory proxy, CPU load) from one burst of the
/// dataset's first destination invariant.
fn tulkun_stats(ds: &tulkun_datasets::Dataset) -> Vec<(u64, u64, f64)> {
    let net = &ds.network;
    let (inv, cp) = crate::workload::first_destination_session(net);
    let mut sim = Engine::new(net, &cp, &inv.packet_space, EngineConfig::default());
    let r = sim.burst();
    sim.stats()
        .per_device
        .values()
        .map(|s| {
            let total = r.completion_ns.max(1);
            (
                (s.init_ns),
                (s.bdd_nodes as u64 * 16),
                (s.init_ns + s.busy_ns) as f64 / total as f64,
            )
        })
        .collect()
}
