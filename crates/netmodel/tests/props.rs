//! Property tests for the network substrate: routing must produce
//! shortest paths.

use proptest::prelude::*;
use tulkun_netmodel::routing::{generate_fibs, shortest_path_next_hops, RoutingOptions};
use tulkun_netmodel::topology::{DeviceId, Topology};

fn random_topology() -> impl Strategy<Value = Topology> {
    (
        3usize..10,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..12),
    )
        .prop_map(|(n, extra)| {
            let mut t = Topology::new();
            let ids: Vec<DeviceId> = (0..n).map(|i| t.add_device(format!("r{i}"))).collect();
            for i in 1..n {
                t.add_link(ids[i - 1], ids[i], 1000);
            }
            for (a, b) in extra {
                let a = a as usize % n;
                let b = b as usize % n;
                if a != b && t.link_between(ids[a], ids[b]).is_none() {
                    t.add_link(ids[a], ids[b], 1000);
                }
            }
            t
        })
}

proptest! {
    #[test]
    fn next_hops_strictly_decrease_distance(topo in random_topology()) {
        for dst in topo.devices() {
            let dist = topo.bfs_hops(dst, &[]);
            let nh = shortest_path_next_hops(&topo, dst, &[]);
            for d in topo.devices() {
                for &h in &nh[d.idx()] {
                    prop_assert_eq!(dist[h.idx()] + 1, dist[d.idx()]);
                }
                // Reachable non-destination devices have at least one hop.
                if d != dst && dist[d.idx()] != u32::MAX {
                    prop_assert!(!nh[d.idx()].is_empty());
                }
            }
        }
    }

    #[test]
    fn generated_routes_reach_their_destination(topo in random_topology()) {
        let mut topo = topo;
        // Announce one prefix at the last device.
        let dst = DeviceId(topo.num_devices() as u32 - 1);
        topo.add_external_prefix(dst, "10.0.0.0/24".parse().unwrap());
        let fibs = generate_fibs(&topo, &RoutingOptions::default());
        // Follow first-next-hop pointers: must reach dst within n hops.
        for src in topo.devices() {
            let mut cur = src;
            for _ in 0..topo.num_devices() {
                if cur == dst {
                    break;
                }
                let rule = &fibs[cur.idx()].rules()[0];
                let hops = rule.action.device_next_hops();
                prop_assert!(!hops.is_empty(), "no route at {}", topo.name(cur));
                cur = hops[0];
            }
            prop_assert_eq!(cur, dst, "walk from {} did not reach dst", topo.name(src));
        }
    }
}
