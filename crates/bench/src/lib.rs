//! Shared machinery for the figure-reproduction harness.
//!
//! Each module under [`figures`] regenerates one table or figure of the
//! paper's evaluation: it builds the workload, runs Tulkun (simulated on
//! the measured-CPU event simulator) and the centralized baselines, and
//! prints the same rows/series the paper reports. Results are also
//! written as JSON under `target/figures/` so EXPERIMENTS.md can be
//! regenerated mechanically. The `figures` binary dispatches to them by
//! name through [`FIGURES`].

pub mod replay;
pub mod report;
pub mod workload;

/// One module per paper table/figure, plus the ablations.
pub mod figures {
    pub mod ablation;
    pub mod exp_flash_miss;
    pub mod exp_testbed;
    pub mod fig10_datasets;
    pub mod fig11_burst;
    pub mod fig11_incremental;
    pub mod fig12_fault;
    pub mod fig13_dpvnet;
    pub mod fig14_init;
    pub mod fig15_dvm;
    pub mod table1_invariants;
}

pub use replay::replay_trace_with;
pub use report::{figures_dir, FigureTable};
pub use workload::{all_pair_workload, AllPairRun, TulkunAllPairs};

/// `figures` subcommand name, its entry point, and the figure ids it
/// emits, in emission order.
pub type Figure = (&'static str, fn(&Cli), &'static [&'static str]);

/// Every figure the harness can produce — the single list behind
/// `figures <name>`, `figures all`, `check_figures --all` and the
/// `bench-smoke` CI stage. The `figures` binary fails a run whose
/// emitted ids differ from the ones listed here, so a figure that stops
/// emitting, or is added without being listed, cannot escape CI.
pub const FIGURES: &[Figure] = &[
    (
        "table1_invariants",
        figures::table1_invariants::run,
        &["table1"],
    ),
    (
        "exp_testbed",
        figures::exp_testbed::run,
        &["exp_testbed_burst", "exp_testbed_incremental"],
    ),
    (
        "exp_flash_miss",
        figures::exp_flash_miss::run,
        &["exp_flash_miss"],
    ),
    ("fig10_datasets", figures::fig10_datasets::run, &["fig10"]),
    ("fig11_burst", figures::fig11_burst::run, &["fig11a"]),
    (
        "fig11_incremental",
        figures::fig11_incremental::run,
        &["fig11b", "fig11c"],
    ),
    (
        "fig12_fault",
        figures::fig12_fault::run,
        &["fig12a", "fig12b", "fig12c"],
    ),
    ("fig13_dpvnet", figures::fig13_dpvnet::run, &["fig13"]),
    ("fig14_init", figures::fig14_init::run, &["fig14"]),
    ("fig15_dvm", figures::fig15_dvm::run, &["fig15"]),
    (
        "ablation",
        figures::ablation::run,
        &[
            "ablation_reduction",
            "ablation_suffix_merge",
            "ablation_lec_sharing",
            "ablation_scene_reuse",
            "ablation_fault_overhead",
            "ablation_burst_updates",
            "ablation_churn",
        ],
    ),
];

/// Parses `--scale tiny|paper` and `--datasets a,b,c` style CLI args.
pub struct Cli {
    pub scale: tulkun_datasets::Scale,
    pub datasets: Option<Vec<String>>,
    pub updates: usize,
    pub scenes: usize,
}

impl Cli {
    /// Parses the arguments after the subcommand.
    pub fn parse(args: &[String]) -> Cli {
        let mut scale = tulkun_datasets::Scale::Tiny;
        let mut datasets = None;
        let mut updates = 200;
        let mut scenes = 10;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale = match args.get(i).map(String::as_str) {
                        Some("paper") => tulkun_datasets::Scale::Paper,
                        _ => tulkun_datasets::Scale::Tiny,
                    };
                }
                "--datasets" => {
                    i += 1;
                    datasets = args.get(i).map(|s| {
                        s.split(',')
                            .map(|x| x.trim().to_string())
                            .collect::<Vec<_>>()
                    });
                }
                "--updates" => {
                    i += 1;
                    updates = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(updates);
                }
                "--scenes" => {
                    i += 1;
                    scenes = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(scenes);
                }
                other => {
                    eprintln!("ignoring unknown argument {other:?}");
                }
            }
            i += 1;
        }
        Cli {
            scale,
            datasets,
            updates,
            scenes,
        }
    }

    /// Does the run include this dataset?
    pub fn wants(&self, name: &str) -> bool {
        self.datasets
            .as_ref()
            .is_none_or(|d| d.iter().any(|x| x == name))
    }
}

/// Formats nanoseconds human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The share of a latency sample (ns) under 10 ms, as Figs. 11b/12b
/// and the testbed table print it; `n/a` for an empty sample.
pub fn pct_under_10ms(xs: &[u64]) -> String {
    if xs.is_empty() {
        return "n/a".into();
    }
    let under = xs.iter().filter(|&&t| t < 10_000_000).count();
    format!("{:.1}%", under as f64 / xs.len() as f64 * 100.0)
}

/// The p-quantile (0..=1) of a sample, by sorting.
pub fn quantile(xs: &[u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
    v[idx.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.0), 1);
        assert_eq!(quantile(&xs, 1.0), 100);
        let q80 = quantile(&xs, 0.8);
        assert!((79..=81).contains(&q80));
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(
            pct_under_10ms(&[1, 9_999_999, 10_000_000, 1 << 40]),
            "50.0%"
        );
        assert_eq!(pct_under_10ms(&[]), "n/a");
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
