//! §9.2 testbed experiments on the 9-device INet2 WAN:
//! Experiment 1 (burst update) and Experiment 2 (incremental updates),
//! Tulkun vs the best centralized baseline.

use crate::{
    all_pair_workload, fmt_ns, pct_under_10ms, quantile, Cli, FigureTable, TulkunAllPairs,
};
use tulkun_baselines::all_baselines;
use tulkun_datasets::{by_name, rule_updates};
use tulkun_sim::{central_burst, central_update, SwitchModel};

/// Emits `exp_testbed_burst` and `exp_testbed_incremental`.
pub fn run(cli: &Cli) {
    let ds = by_name("INet2", cli.scale).expect("INet2");
    let wl = all_pair_workload(&ds.network);
    let verifier_loc = ds.network.topology.devices().next().unwrap();
    let updates = rule_updates(&ds.network, cli.updates, 0x7357);

    // Tulkun.
    let mut tulkun = TulkunAllPairs::build(&ds, SwitchModel::MELLANOX);
    let burst = tulkun.burst();
    let mut tulkun_incr: Vec<u64> = Vec::new();
    for u in &updates {
        tulkun_incr.push(tulkun.incremental(u).completion_ns);
    }

    // Baselines.
    let mut rows: Vec<(String, u64, u64, String)> = Vec::new();
    for mut tool in all_baselines() {
        let name = tool.name().to_string();
        let b = central_burst(tool.as_mut(), &ds.network, &wl, verifier_loc);
        let mut incr = Vec::new();
        for u in &updates {
            incr.push(central_update(tool.as_mut(), &ds.network, u, verifier_loc).total_ns);
        }
        rows.push((
            name,
            b.total_ns,
            quantile(&incr, 0.8),
            pct_under_10ms(&incr),
        ));
    }

    let mut t1 = FigureTable::new(
        "exp_testbed_burst",
        "Experiment 1 — burst update on INet2 (all-pair subset reachability, <= shortest+2)",
        &["tool", "burst time", "speedup vs Tulkun"],
    );
    t1.row(vec![
        "Tulkun".into(),
        fmt_ns(burst.completion_ns),
        "1.00x".into(),
    ]);
    for (name, b, _, _) in &rows {
        t1.row(vec![
            name.clone(),
            fmt_ns(*b),
            format!("{:.2}x", *b as f64 / burst.completion_ns.max(1) as f64),
        ]);
    }
    t1.finish();

    let best = rows.iter().map(|(_, b, _, _)| *b).min().unwrap_or(0);
    println!(
        "Tulkun burst {} vs best centralized {} → {:.2}x acceleration\n",
        fmt_ns(burst.completion_ns),
        fmt_ns(best),
        best as f64 / burst.completion_ns.max(1) as f64
    );

    let q80_t = quantile(&tulkun_incr, 0.8);
    let mut t2 = FigureTable::new(
        "exp_testbed_incremental",
        "Experiment 2 — incremental updates on INet2",
        &[
            "tool",
            "80% quantile",
            "% < 10ms",
            "speedup vs Tulkun (q80)",
        ],
    );
    t2.row(vec![
        "Tulkun".into(),
        fmt_ns(q80_t),
        pct_under_10ms(&tulkun_incr),
        "1.00x".into(),
    ]);
    for (name, _, q80, lt10) in &rows {
        t2.row(vec![
            name.clone(),
            fmt_ns(*q80),
            lt10.clone(),
            format!("{:.2}x", *q80 as f64 / q80_t.max(1) as f64),
        ]);
    }
    t2.finish();

    assert_eq!(burst.violations, 0, "clean INet2 must verify");
}
