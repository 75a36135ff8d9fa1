//! Figures 11b and 11c: incremental verification — the percentage of
//! updates verified in under 10 ms, and the 80%-quantile incremental
//! verification time, per tool per dataset.

use crate::workload::destinations;
use crate::{
    all_pair_workload, fmt_ns, pct_under_10ms, quantile, Cli, FigureTable, TulkunAllPairs,
};
use tulkun_baselines::all_baselines;
use tulkun_datasets::{all_datasets, rule_updates, NetKind};
use tulkun_sim::{central_burst, central_update, SwitchModel};

/// Emits `fig11b` and `fig11c`.
pub fn run(cli: &Cli) {
    let mut b = FigureTable::new(
        "fig11b",
        "Incremental verification: % of updates verified < 10 ms",
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
        "fig11c",
        "Incremental verification: 80% quantile",
        &[
            "dataset",
            "Tulkun",
            "AP",
            "APKeep",
            "Delta-net",
            "VeriFlow",
            "Flash",
            "speedup vs best",
        ],
    );
    for ds in all_datasets(cli.scale) {
        if !cli.wants(&ds.spec.name) {
            continue;
        }
        eprintln!("[fig11bc] {}", ds.spec.name);
        // Bound memory on large datasets: verify a subset of
        // destinations and restrict the update stream to packet spaces
        // those destinations own (every tool sees the same stream).
        let dsts = destinations(&ds.network);
        let max_dsts = 16usize;
        let subset: Vec<_> = dsts.iter().take(max_dsts).cloned().collect();
        let keep_dev: Vec<_> = subset.iter().map(|(d, _)| *d).collect();
        let keep_prefixes: Vec<_> = subset
            .iter()
            .flat_map(|(_, ps)| ps.iter().copied())
            .collect();
        // Cap the stream on rule-heavy datasets: centralized baselines
        // pay full EC recomputation per update (the measurement point),
        // so a handful of samples already fixes the quantiles.
        let n_updates = if ds.spec.rules > 50_000 {
            cli.updates.min(25)
        } else {
            cli.updates
        };
        let updates: Vec<_> = rule_updates(&ds.network, n_updates * 4, 0x11C)
            .into_iter()
            .filter(|u| {
                let p = match u {
                    tulkun_netmodel::network::RuleUpdate::Insert { rule, .. } => rule.matches.dst,
                    tulkun_netmodel::network::RuleUpdate::Remove { matches, .. } => matches.dst,
                };
                keep_prefixes.iter().any(|kp| kp.overlaps(&p))
            })
            .take(n_updates)
            .collect();

        // Tulkun.
        let mut tulkun =
            TulkunAllPairs::build_for(&ds, SwitchModel::MELLANOX, |d| keep_dev.contains(&d));
        tulkun.burst();
        let t_times: Vec<u64> = updates
            .iter()
            .map(|u| tulkun.incremental(u).completion_ns)
            .collect();

        // Baselines.
        let wl = all_pair_workload(&ds.network);
        let loc = ds.network.topology.devices().next().unwrap();
        let mut base_times: Vec<(String, Vec<u64>)> = Vec::new();
        for mut tool in all_baselines() {
            let heavy = matches!(tool.name(), "AP" | "APKeep" | "VeriFlow");
            if heavy && ds.spec.kind == NetKind::Dc && ds.spec.rules > 100_000 {
                base_times.push((tool.name().to_string(), Vec::new()));
                continue;
            }
            central_burst(tool.as_mut(), &ds.network, &wl, loc);
            let times = updates
                .iter()
                .map(|u| central_update(tool.as_mut(), &ds.network, u, loc).total_ns)
                .collect();
            base_times.push((tool.name().to_string(), times));
        }

        let mut row_b = vec![ds.spec.name.clone(), pct_under_10ms(&t_times)];
        row_b.extend(base_times.iter().map(|(_, xs)| pct_under_10ms(xs)));
        b.row(row_b);

        let q80_t = quantile(&t_times, 0.8);
        let mut row_c = vec![ds.spec.name.clone(), fmt_ns(q80_t)];
        let mut best = u64::MAX;
        for (_, xs) in &base_times {
            if xs.is_empty() {
                row_c.push("n/a".into());
                continue;
            }
            let q = quantile(xs, 0.8);
            best = best.min(q);
            row_c.push(fmt_ns(q));
        }
        row_c.push(if best == u64::MAX {
            "n/a".into()
        } else {
            format!("{:.1}x", best as f64 / q80_t.max(1) as f64)
        });
        c.row(row_c);
    }
    b.finish();
    c.finish();
}
