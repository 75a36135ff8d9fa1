//! Figure 15: DVM UPDATE message processing overhead — per-device total
//! time, memory, CPU load, and per-message processing time, replayed
//! across the four switch models.

use crate::{fmt_ns, quantile, Cli, FigureTable, TulkunAllPairs};
use tulkun_datasets::{all_datasets, rule_updates, NetKind};
use tulkun_sim::SwitchModel;
use tulkun_telemetry::Histogram;

/// Emits `fig15`.
pub fn run(cli: &Cli) {
    // Gather the message-processing distribution by running burst + an
    // update stream across WAN/LAN datasets.
    let mut per_msg_ns = Histogram::default();
    let mut per_dev_total: Vec<u64> = Vec::new();
    let mut per_dev_mem: Vec<u64> = Vec::new();
    let mut per_dev_load: Vec<f64> = Vec::new();
    let mut total_messages = 0u64;
    for ds in all_datasets(cli.scale) {
        if !cli.wants(&ds.spec.name) || ds.spec.kind == NetKind::Dc {
            continue;
        }
        eprintln!("[fig15] {}", ds.spec.name);
        // Bound memory on large datasets: a 16-destination subset yields
        // the same per-message-time distribution.
        let keep: Vec<_> = crate::workload::destinations(&ds.network)
            .into_iter()
            .take(16)
            .map(|(d, _)| d)
            .collect();
        let mut tulkun =
            TulkunAllPairs::build_for(&ds, SwitchModel::MELLANOX, |d| keep.contains(&d));
        let burst = tulkun.burst();
        total_messages += burst.messages as u64;
        for u in rule_updates(&ds.network, cli.updates.min(100), 0xF15) {
            let r = tulkun.incremental(&u);
            total_messages += r.messages as u64;
        }
        let (msg_times, dev_stats) = tulkun.message_stats();
        per_msg_ns.merge(&msg_times);
        for (busy, mem, load) in dev_stats {
            per_dev_total.push(busy);
            per_dev_mem.push(mem);
            per_dev_load.push(load);
        }
    }

    let mut table = FigureTable::new(
        "fig15",
        "DVM UPDATE processing overhead (CDF quantiles)",
        &[
            "switch model",
            "total/dev p90",
            "total/dev max",
            "mem/dev p90",
            "per-msg p50",
            "per-msg p90",
            "per-msg max",
            "cpu p90",
        ],
    );
    for model in SwitchModel::ALL {
        let f = model.cpu_factor / SwitchModel::MELLANOX.cpu_factor;
        let scale = |xs: &[u64]| {
            xs.iter()
                .map(|&t| (t as f64 * f) as u64)
                .collect::<Vec<_>>()
        };
        let msg = |q| fmt_ns((per_msg_ns.quantile(q).unwrap_or(0) as f64 * f) as u64);
        let tot = scale(&per_dev_total);
        let mut loads: Vec<u64> = per_dev_load.iter().map(|&l| (l * 1000.0) as u64).collect();
        loads.sort_unstable();
        table.row(vec![
            model.name.into(),
            fmt_ns(quantile(&tot, 0.9)),
            fmt_ns(quantile(&tot, 1.0)),
            format!("{:.2}MB", quantile(&per_dev_mem, 0.9) as f64 / 1e6),
            msg(0.5),
            msg(0.9),
            msg(1.0),
            format!("{:.2}", quantile(&loads, 0.9) as f64 / 1000.0),
        ]);
    }
    table.finish();
    println!(
        "messages replayed: {total_messages}; per-message samples: {}",
        per_msg_ns.count()
    );
}
