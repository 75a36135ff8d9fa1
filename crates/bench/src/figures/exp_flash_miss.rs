//! The §1 early-detection experiment: a centralized verifier that has
//! not received the **latest rule updates** of three devices works on a
//! stale view of their FIBs. When the errors live exactly in those
//! missed updates (they usually do — errors arrive as updates), early
//! detection sees a clean network and reports zero errors, while
//! Tulkun's on-device verifiers, which read their own FIBs directly,
//! flag them immediately.
//!
//! The paper reports: "even if the verifier misses the updated rules of
//! only three randomly chosen devices, in 9 out of 11 LAN/WAN datasets,
//! Flash detects zero errors in 80% of the experiment cases."

use crate::{all_pair_workload, Cli, FigureTable, TulkunAllPairs};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tulkun_baselines::flash::Flash;
use tulkun_baselines::CentralizedDpv;
use tulkun_datasets::{all_datasets, NetKind};
use tulkun_netmodel::routing::{inject_errors, InjectedError};
use tulkun_netmodel::DeviceId;
use tulkun_sim::SwitchModel;

/// Emits `exp_flash_miss`.
pub fn run(cli: &Cli) {
    let mut table = FigureTable::new(
        "exp_flash_miss",
        "Errors detected when the verifier misses 3 devices' latest updates (10 trials)",
        &[
            "dataset",
            "injected",
            "Flash full info",
            "stale-view mean",
            "trials w/ 0 found",
            "Tulkun",
        ],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1A5);
    for ds in all_datasets(cli.scale) {
        if !cli.wants(&ds.spec.name) || ds.spec.kind == NetKind::Dc {
            continue;
        }
        eprintln!("[flash-miss] {}", ds.spec.name);
        // The errors arrive as the *latest* updates: 3 blackholes at
        // random transit devices.
        let mut net = ds.network.clone();
        let pairs: Vec<(DeviceId, tulkun_netmodel::IpPrefix)> =
            net.topology.external_map().collect();
        let mut errors = Vec::new();
        let mut victims = Vec::new();
        while errors.len() < 3 {
            let (dst, prefix) = pairs[rng.gen_range(0..pairs.len())];
            let victim = DeviceId(rng.gen_range(0..net.topology.num_devices()) as u32);
            if victim == dst || victims.contains(&victim) {
                continue;
            }
            victims.push(victim);
            errors.push(InjectedError::Blackhole {
                device: victim,
                prefix,
            });
        }
        inject_errors(&mut net, &errors);
        let wl = all_pair_workload(&net);

        // Full information: every error is visible.
        let mut flash = Flash::new();
        let full = flash.verify_burst(&net, &wl);

        // 10 trials: each victim's latest update is missing with
        // probability 0.8 (freshly-changed devices are exactly the ones
        // whose reports lag); the missing set is topped up to 3 with
        // random devices. The verifier then works on the stale view —
        // missing devices keep their pre-update FIBs.
        let mut found = Vec::new();
        let mut zero_trials = 0;
        for _ in 0..10 {
            let mut missing: Vec<DeviceId> = victims
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.8))
                .collect();
            while missing.len() < 3 {
                let d = DeviceId(rng.gen_range(0..net.topology.num_devices()) as u32);
                if !missing.contains(&d) {
                    missing.push(d);
                }
            }
            let mut stale = net.clone();
            for &m in &missing {
                // Revert to the pre-update FIB for missing devices.
                *stale.fib_mut(m) = ds.network.fib(m).clone();
            }
            let mut flash = Flash::new();
            let r = flash.verify_burst(&stale, &wl);
            if r.violations == 0 {
                zero_trials += 1;
            }
            found.push(r.violations);
        }
        let mean = found.iter().sum::<usize>() as f64 / found.len() as f64;

        // Tulkun: on-device verifiers always see their own rules.
        let injected = tulkun_datasets::Dataset {
            spec: ds.spec.clone(),
            network: net.clone(),
        };
        let mut tulkun = TulkunAllPairs::build_for(&injected, SwitchModel::MELLANOX, |d| {
            errors.iter().any(|e| match e {
                InjectedError::Blackhole { prefix, .. } => net
                    .topology
                    .external_prefixes(d)
                    .iter()
                    .any(|p| p.overlaps(prefix)),
                _ => false,
            })
        });
        let t = tulkun.burst();

        table.row(vec![
            ds.spec.name.clone(),
            errors.len().to_string(),
            full.violations.to_string(),
            format!("{mean:.1}"),
            format!("{zero_trials}/10"),
            format!("{} violation classes", t.violations),
        ]);
    }
    table.finish();
}
