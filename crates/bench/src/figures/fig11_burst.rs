//! Figure 11a: burst-update verification time of Tulkun across the 13
//! datasets, and the acceleration ratio of each centralized baseline
//! over Tulkun (ratio > 1 means Tulkun is faster).

use crate::workload::burst_streaming;
use crate::{all_pair_workload, fmt_ns, Cli, FigureTable};
use tulkun_baselines::all_baselines;
use tulkun_datasets::{all_datasets, NetKind};
use tulkun_sim::{central_burst, SwitchModel};

/// Emits `fig11a`.
pub fn run(cli: &Cli) {
    let mut table = FigureTable::new(
        "fig11a",
        "Burst update: Tulkun time and baseline/Tulkun acceleration ratios",
        &[
            "dataset",
            "Tulkun",
            "msgs",
            "AP/T",
            "APKeep/T",
            "Delta-net/T",
            "VeriFlow/T",
            "Flash/T",
            "errors",
        ],
    );
    for ds in all_datasets(cli.scale) {
        if !cli.wants(&ds.spec.name) {
            continue;
        }
        eprintln!(
            "[fig11a] {} ({} devices, {} rules)",
            ds.spec.name, ds.spec.devices, ds.spec.rules
        );
        let (t, _plan_ns) = burst_streaming(&ds, SwitchModel::MELLANOX);
        let wl = all_pair_workload(&ds.network);
        let loc = ds.network.topology.devices().next().unwrap();
        let mut ratios = Vec::new();
        for mut tool in all_baselines() {
            // Skip the heavyweight BDD baselines on the big DC fabrics at
            // paper scale (the paper reports them at tens of hours; we
            // report them as such rather than running them).
            let heavy = matches!(tool.name(), "AP" | "APKeep" | "VeriFlow");
            if heavy && ds.spec.kind == NetKind::Dc && ds.spec.rules > 100_000 {
                ratios.push(">1000x*".to_string());
                continue;
            }
            let run = central_burst(tool.as_mut(), &ds.network, &wl, loc);
            ratios.push(format!(
                "{:.2}x",
                run.total_ns as f64 / t.completion_ns.max(1) as f64
            ));
        }
        let mut row = vec![
            ds.spec.name.clone(),
            fmt_ns(t.completion_ns),
            t.messages.to_string(),
        ];
        row.extend(ratios);
        row.push(t.violations.to_string());
        table.row(row);
    }
    table.finish();
    println!("* extrapolated: not run to completion (the paper reports tens of hours)");
}
