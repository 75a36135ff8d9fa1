//! Table 1: the invariant families expressible in Tulkun's language,
//! each built with its constructor, planned against the Figure 2a
//! network and verified (both textual form and verdict are printed).

use crate::{Cli, FigureTable};
use tulkun_core::planner::Planner;
use tulkun_core::spec::{table1, Invariant, PacketSpace};
use tulkun_core::verify::verify_snapshot;
use tulkun_datasets::fig2a_network;

/// Emits `table1`; takes no option.
pub fn run(_cli: &Cli) {
    let net = fig2a_network();
    let ps = || PacketSpace::dst_prefix("10.0.0.0/23");
    let rows: Vec<(&str, Invariant)> = vec![
        (
            "Reachability",
            table1::reachability(ps(), "S", "D").unwrap(),
        ),
        ("Isolation", table1::isolation(ps(), "S", "D").unwrap()),
        ("Loop-freeness", table1::loop_freeness(ps(), "S").unwrap()),
        (
            "Blackhole-freeness",
            table1::blackhole_freeness(ps(), "S", "D").unwrap(),
        ),
        (
            "Waypoint reachability",
            table1::waypoint(ps(), "S", "W", "D").unwrap(),
        ),
        (
            "Limited path length",
            table1::limited_length_reachability(ps(), "S", "D", 3).unwrap(),
        ),
        (
            "Different-ingress same reachability",
            table1::different_ingress_reachability(ps(), &["S", "B"], "D").unwrap(),
        ),
        (
            "All-shortest-path availability",
            table1::all_shortest_path(ps(), "S", "D").unwrap(),
        ),
        (
            "Non-redundant reachability",
            table1::non_redundant_reachability(ps(), "S", "D").unwrap(),
        ),
        (
            "Multicast",
            table1::multicast(ps(), "S", &["D", "W"]).unwrap(),
        ),
        ("Anycast", table1::anycast(ps(), "S", "D", "W").unwrap()),
        ("1+1 routing", table1::one_plus_one(ps(), "S", "D").unwrap()),
    ];

    let planner = Planner::with_options(
        &net.topology,
        tulkun_core::planner::PlannerOptions {
            skip_consistency_check: true,
        },
    );
    let mut table = FigureTable::new(
        "table1",
        "Tulkun specifications for selected invariants (verified on Fig. 2a)",
        &["invariant", "path exprs", "dpvnet nodes", "verdict"],
    );
    for (name, inv) in rows {
        let plan = planner.plan(&inv).expect(name);
        let nodes = match &plan.kind {
            tulkun_core::planner::PlanKind::Counting(c) => c.dpvnet.num_nodes(),
            tulkun_core::planner::PlanKind::Local(l) => l.dpvnet.num_nodes(),
        };
        let report = verify_snapshot(&net, &plan);
        table.row(vec![
            name.into(),
            inv.behavior.path_exprs().len().to_string(),
            nodes.to_string(),
            if report.holds() {
                "holds".into()
            } else {
                format!("{} violation(s)", report.violations.len())
            },
        ]);
    }
    table.finish();
}
