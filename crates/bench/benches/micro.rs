//! Micro-benchmarks for the core operations the evaluation depends on:
//! BDD predicate algebra, LEC construction, DPVNet construction, DVM
//! message handling, and per-update incremental verification.
//!
//! Self-contained harness (`harness = false`): each benchmark runs a
//! fixed number of timed iterations after a warmup and reports
//! min/median/mean wall-clock time. Run with
//! `cargo bench -p tulkun-bench`; filter by substring argument.

use std::time::Instant;
use tulkun_bdd::{BddManager, HeaderLayout};
use tulkun_core::count::CountExpr;
use tulkun_core::event::{RuntimeEvent, Substrate};
use tulkun_core::planner::Planner;
use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
use tulkun_core::verify::Session;
use tulkun_datasets::{by_name, fig2a_network, rule_updates, Scale};
use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
use tulkun_netmodel::network::RuleUpdate;
use tulkun_predicate::{lecs, BddBackend};

const WARMUP: usize = 2;
const SAMPLES: usize = 10;

struct Bencher {
    filter: Option<String>,
}

impl Bencher {
    fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        if let Some(fi) = &self.filter {
            if !name.contains(fi.as_str()) {
                return;
            }
        }
        for _ in 0..WARMUP {
            std::hint::black_box(f());
        }
        let mut ns: Vec<u64> = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_nanos() as u64
            })
            .collect();
        ns.sort_unstable();
        let mean = ns.iter().sum::<u64>() / ns.len() as u64;
        println!(
            "{name:<40} min {:>12} ns   median {:>12} ns   mean {:>12} ns",
            ns[0],
            ns[ns.len() / 2],
            mean
        );
    }
}

fn bench_bdd(c: &Bencher) {
    let layout = HeaderLayout::ipv4_tcp();
    c.bench("bdd/prefix_and_intersect", || {
        let mut m = BddManager::new(layout.num_vars());
        let p1 = layout.dst_prefix(&mut m, [10, 0, 0, 0], 23);
        let p2 = layout.dst_prefix(&mut m, [10, 0, 1, 0], 24);
        let port = layout.dst_port_range(&mut m, 80, 443);
        let x = m.and(p1, port);
        let y = m.and(p2, x);
        m.sat_count(y)
    });
    let mut m = BddManager::new(layout.num_vars());
    let p = layout.dst_prefix(&mut m, [10, 2, 0, 0], 16);
    let q = layout.dst_port_range(&mut m, 1000, 2000);
    let r = m.and(p, q);
    c.bench("bdd/export_import", || {
        let mut dst = BddManager::new(layout.num_vars());
        let enc = tulkun_bdd::serial::export(&m, r);
        tulkun_bdd::serial::import(&mut dst, &enc).unwrap()
    });
}

fn bench_lec(c: &Bencher) {
    let ds = by_name("INet2", Scale::Tiny).unwrap();
    let layout = ds.network.layout;
    let dev = ds.network.topology.devices().next().unwrap();
    let fib = ds.network.fib(dev).clone();
    c.bench("lec/build_inet2_device", || {
        lecs(&fib, &mut BddBackend::new(layout)).len()
    });
}

fn bench_dpvnet(c: &Bencher) {
    let net = fig2a_network();
    let s = net.topology.device("S").unwrap();
    let pe = PathExpr::parse("S .* W .* D").unwrap().loop_free();
    c.bench("dpvnet/build_waypoint_fig2", || {
        tulkun_core::dpvnet::DpvNet::build(&net.topology, &[s], std::slice::from_ref(&pe))
            .unwrap()
            .num_nodes()
    });
    let ds = by_name("B4-13", Scale::Tiny).unwrap();
    let topo = ds.network.topology.clone();
    let (dst, _) = topo.external_map().next().unwrap();
    let ingress: Vec<_> = topo.devices().filter(|d| *d != dst).collect();
    let pe = PathExpr::parse(&format!(". * {}", topo.name(dst)))
        .unwrap()
        .loop_free()
        .shortest_plus(2);
    c.bench("dpvnet/build_allpair_b4_one_dst", || {
        tulkun_core::dpvnet::DpvNet::build(&topo, &ingress, std::slice::from_ref(&pe))
            .unwrap()
            .num_nodes()
    });
}

fn waypoint_session() -> (tulkun_netmodel::Network, Session) {
    let net = fig2a_network();
    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
        .ingress(["S"])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse("S .* W .* D").unwrap().loop_free(),
        ))
        .build()
        .unwrap();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let mut s = Session::new(&net, &plan);
    s.run_to_quiescence();
    (net, s)
}

fn bench_dvm(c: &Bencher) {
    c.bench("dvm/burst_fig2_waypoint", || {
        let (_, mut s) = waypoint_session();
        s.report().violations.len()
    });
    let (net, _) = waypoint_session();
    let bdev = net.topology.device("B").unwrap();
    let w = net.topology.device("W").unwrap();
    let update = RuntimeEvent::Batch(vec![RuleUpdate::Insert {
        device: bdev,
        rule: Rule {
            priority: 50,
            matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
            action: Action::fwd(w),
        },
    }]);
    c.bench("dvm/incremental_fig2_update", || {
        let mut s = waypoint_session().1;
        s.apply_event(&update).map_or(0, |o| o.messages)
    });
}

fn bench_incremental_inet2(c: &Bencher) {
    let ds = by_name("INet2", Scale::Tiny).unwrap();
    let updates = rule_updates(&ds.network, 64, 0xbe5c);
    let batches: Vec<RuntimeEvent> = updates
        .iter()
        .map(|u| RuntimeEvent::Batch(vec![u.clone()]))
        .collect();
    let topo = &ds.network.topology;
    let (dst, _) = topo.external_map().next().unwrap();
    let prefixes: Vec<_> = topo.external_prefixes(dst).to_vec();
    let inv = tulkun_bench::workload::wan_invariant(&ds.network, dst, &prefixes);
    let plan = Planner::new(topo).plan(&inv).unwrap();
    c.bench("dvm/incremental_inet2_stream", || {
        let mut s = Session::new(&ds.network, &plan);
        s.run_to_quiescence();
        for b in &batches {
            let _ = s.apply_event(b);
        }
        s.report().violations.len()
    });
}

fn bench_baselines(c: &Bencher) {
    let ds = by_name("INet2", Scale::Tiny).unwrap();
    let wl = tulkun_baselines::Workload::all_pairs(&ds.network);
    let update = rule_updates(&ds.network, 1, 0xAB).remove(0);

    for mut tool in tulkun_baselines::all_baselines() {
        let name = format!("baselines/burst_inet2/{}", tool.name());
        c.bench(&name, || tool.verify_burst(&ds.network, &wl).violations);
    }

    for mut tool in tulkun_baselines::all_baselines() {
        tool.verify_burst(&ds.network, &wl);
        let name = format!("baselines/update_inet2/{}", tool.name());
        c.bench(&name, || tool.apply_update(&update).violations);
    }
}

fn main() {
    // `cargo bench -- <filter>` passes extra args through; also tolerate
    // the libtest-style `--bench` flag.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let c = Bencher { filter };
    bench_bdd(&c);
    bench_lec(&c);
    bench_dpvnet(&c);
    bench_dvm(&c);
    bench_incremental_inet2(&c);
    bench_baselines(&c);
}
