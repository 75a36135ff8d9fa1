//! Property tests for the network substrate: routing must produce
//! shortest paths, and a damaged rule update decodes to an answer.

use proptest::prelude::*;
use tulkun_netmodel::fib::{Action, ActionType, MatchSpec, NextHop, Rewrite, Rule};
use tulkun_netmodel::routing::{generate_fibs, shortest_path_next_hops, RoutingOptions};
use tulkun_netmodel::topology::{DeviceId, Topology};
use tulkun_netmodel::{IpPrefix, RuleUpdate};

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

fn prefix() -> impl Strategy<Value = IpPrefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| IpPrefix::new(addr, len))
}

/// Every shape a rule update takes: both variants, drop and forward
/// actions (ALL / ANY, device and external next hops, with and without
/// a rewrite) and matches with and without port and protocol.
fn rule_update() -> impl Strategy<Value = RuleUpdate> {
    let ports = proptest::option::of((any::<u16>(), any::<u16>()));
    let matches = (prefix(), ports, proptest::option::of(any::<u8>()))
        .prop_map(|(dst, dst_port, proto)| MatchSpec {
            dst,
            dst_port,
            proto,
        })
        .boxed();
    let next_hop = prop_oneof![
        any::<u32>().prop_map(|d| NextHop::Device(DeviceId(d))),
        Just(NextHop::External),
    ];
    let mode = prop_oneof![Just(ActionType::All), Just(ActionType::Any)];
    let forward = (
        mode,
        proptest::collection::vec(next_hop, 0..4),
        proptest::option::of(prefix().prop_map(|to| Rewrite { to })),
    );
    let action = prop_oneof![
        Just(Action::Drop),
        forward.prop_map(|(mode, next_hops, rewrite)| Action::Forward {
            mode,
            next_hops,
            rewrite,
        }),
    ];
    prop_oneof![
        (any::<u32>(), any::<u32>(), matches.clone(), action).prop_map(
            |(d, priority, matches, action)| RuleUpdate::Insert {
                device: DeviceId(d),
                rule: Rule {
                    priority,
                    matches,
                    action,
                },
            }
        ),
        (any::<u32>(), any::<u32>(), matches).prop_map(|(d, priority, matches)| {
            RuleUpdate::Remove {
                device: DeviceId(d),
                priority,
                matches,
            }
        }),
    ]
}

/// Damages an encoded update (ASCII): a span of up to `len` bytes at
/// `pos` dropped, duplicated or replaced by garbage, or the text cut
/// short there.
fn damage(json: &str, kind: usize, pos: usize, len: usize, garbage: &str) -> String {
    let at = pos % json.len();
    let end = (at + len).min(json.len());
    match kind {
        0 => [&json[..at], &json[end..]].concat(),
        1 => [&json[..end], &json[at..]].concat(),
        2 => json[..at].to_string(),
        _ => [&json[..at], garbage, &json[end..]].concat(),
    }
}

proptest! {
    /// Whatever a damaged rule update holds, decoding answers `Ok` or
    /// `Err` instead of panicking, and whatever it accepts re-encodes
    /// to text that decodes to the same update.
    #[test]
    fn damaged_rule_updates_decode_to_an_answer(
        update in rule_update(),
        (kind, pos, len) in (0usize..4, 0usize..4096, 1usize..8),
        garbage in proptest::collection::vec(0x20u8..0x7f, 0..8),
    ) {
        let json = tulkun_json::to_string(&update);
        let intact = tulkun_json::from_str::<RuleUpdate>(&json);
        prop_assert_eq!(intact.ok(), Some(update), "{}", json);
        let garbage = std::str::from_utf8(&garbage).expect("ascii");
        let damaged = damage(&json, kind, pos, len, garbage);
        if let Ok(decoded) = tulkun_json::from_str::<RuleUpdate>(&damaged) {
            let again = tulkun_json::to_string(&decoded);
            let back = tulkun_json::from_str::<RuleUpdate>(&again);
            prop_assert_eq!(back.ok(), Some(decoded), "{} -> {}", damaged, again);
        }
    }

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
