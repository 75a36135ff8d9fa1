//! Figure 10: dataset statistics — devices, links, rules, kind — for the
//! thirteen (generated) evaluation datasets.

use crate::{Cli, FigureTable};
use tulkun_datasets::{all_datasets, NetKind};

/// Emits `fig10`.
pub fn run(cli: &Cli) {
    let mut table = FigureTable::new(
        "fig10",
        "Dataset statistics",
        &["dataset", "kind", "devices", "links", "rules", "diameter"],
    );
    for ds in all_datasets(cli.scale) {
        if !cli.wants(&ds.spec.name) {
            continue;
        }
        let kind = match ds.spec.kind {
            NetKind::Wan => "WAN",
            NetKind::Lan => "LAN",
            NetKind::Dc => "DC",
        };
        table.row(vec![
            ds.spec.name.clone(),
            kind.into(),
            ds.spec.devices.to_string(),
            ds.spec.links.to_string(),
            ds.spec.rules.to_string(),
            ds.network.topology.diameter_hops().to_string(),
        ]);
    }
    table.finish();
}
