#![allow(clippy::needless_range_loop)] // bit-packing loops read clearer indexed
//! Differential oracle: the distributed DVM counting must agree with a
//! brute-force enumeration of packet traces over concrete universes.
//!
//! The oracle walks actual traces through the FIBs (replicating on ALL,
//! branching per-universe on ANY, ending on drops/delivery/leaving the
//! simple-path set) and returns the set of possible delivered-copy
//! counts. The DVM session computes the same thing with BDD-partitioned
//! predicates, per-node tasks, message diffing and incremental
//! recomputation — any disagreement exposes a protocol bug.
//!
//! Both a burst comparison and an *incremental consistency* comparison
//! (apply random updates one by one, then re-compare against a fresh
//! oracle of the final network) are property-tested on random networks.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tulkun::core::count::{CountExpr, Counts, ReduceMode};
use tulkun::core::verify::Session;
use tulkun::netmodel::fib::{ActionType, MatchSpec, NextHop};
use tulkun::netmodel::network::RuleUpdate;
use tulkun::prelude::*;

const PREFIX: &str = "10.9.0.0/24";

/// Brute-force: the set of possible delivered-copy counts for a packet
/// in `PREFIX` starting at `dev`, restricted to simple paths (matching
/// the `S .* D loop_free` DPVNet), with per-trace-independent ANY
/// choices — the semantics of Equations (1)/(2).
fn oracle(net: &Network, dev: DeviceId, dst: DeviceId, visited: &mut Vec<bool>) -> BTreeSet<u32> {
    if dev == dst {
        // Destination node: axiomatically one delivered copy (§2.2.2).
        return BTreeSet::from([1]);
    }
    // Effective action: highest-priority rule matching the packet.
    let rule = net
        .fib(dev)
        .rules()
        .iter()
        .find(|r| r.matches.dst.overlaps(&PREFIX.parse().unwrap()));
    let Some(rule) = rule else {
        return BTreeSet::from([0]);
    };
    match &rule.action {
        tulkun::netmodel::fib::Action::Drop => BTreeSet::from([0]),
        tulkun::netmodel::fib::Action::Forward {
            mode, next_hops, ..
        } => {
            let branch = |h: &NextHop, visited: &mut Vec<bool>| -> BTreeSet<u32> {
                match h {
                    NextHop::External => BTreeSet::from([0]), // wrong egress
                    NextHop::Device(v) => {
                        if visited[v.idx()] {
                            BTreeSet::from([0]) // leaves the simple-path set
                        } else {
                            visited[v.idx()] = true;
                            let r = oracle(net, *v, dst, visited);
                            visited[v.idx()] = false;
                            r
                        }
                    }
                }
            };
            match mode {
                ActionType::All => {
                    // Cross-product sum over replicated branches.
                    let mut acc = BTreeSet::from([0u32]);
                    for h in next_hops {
                        let b = branch(h, visited);
                        let mut next = BTreeSet::new();
                        for &x in &acc {
                            for &y in &b {
                                next.insert(x + y);
                            }
                        }
                        acc = next;
                    }
                    acc
                }
                ActionType::Any => {
                    let mut acc = BTreeSet::new();
                    for h in next_hops {
                        acc.extend(branch(h, visited));
                    }
                    if acc.is_empty() {
                        acc.insert(0);
                    }
                    acc
                }
            }
        }
    }
}

fn oracle_counts(net: &Network, src: DeviceId, dst: DeviceId) -> BTreeSet<u32> {
    let mut visited = vec![false; net.topology.num_devices()];
    visited[src.idx()] = true;
    oracle(net, src, dst, &mut visited)
}

/// Extracts the source node's DVM count set for one concrete packet.
fn dvm_counts(session: &mut Session, net: &Network, src: DeviceId) -> Counts {
    let cp = session.plan();
    let (sdev, snode) = cp
        .dpvnet
        .sources()
        .iter()
        .find(|(d, _)| *d == src)
        .copied()
        .expect("source node");
    let v = session.verifier_mut(sdev).expect("verifier");
    // Pick the entry containing the probe packet 10.9.0.1:80.
    let layout = net.layout;
    let mut m = tulkun::bdd::BddManager::new(layout.num_vars());
    let mut bits = vec![false; layout.num_vars() as usize];
    let addr = u32::from_be_bytes([10, 9, 0, 1]);
    for i in 0..32 {
        bits[i] = (addr >> (31 - i)) & 1 == 1;
    }
    bits[32 + 15] = true; // port 1
    for (pred, counts) in v.node_result(snode, None).iter() {
        let p = tulkun::bdd::serial::import(&mut m, pred).unwrap();
        if m.eval(p, &bits) {
            return counts.clone();
        }
    }
    panic!("no LocCIB entry covers the probe packet");
}

/// A random small network with an announced destination.
#[derive(Debug, Clone)]
struct Scenario {
    net: Network,
    src: DeviceId,
    dst: DeviceId,
    updates: Vec<RuleUpdate>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    // 4..=6 devices; random extra edges on top of a path (connected).
    (
        4usize..=6,
        proptest::collection::vec(any::<u32>(), 24),
        proptest::collection::vec(any::<u32>(), 12),
    )
        .prop_map(|(n, seeds, useeds)| {
            let mut topo = Topology::new();
            let ids: Vec<DeviceId> = (0..n).map(|i| topo.add_device(format!("d{i}"))).collect();
            for i in 1..n {
                topo.add_link(ids[i - 1], ids[i], 1000);
            }
            let mut si = 0;
            let mut next_seed = |m: usize| {
                let v = seeds[si % seeds.len()] as usize % m;
                si += 1;
                v
            };
            // A few random extra links.
            for _ in 0..n {
                let a = next_seed(n);
                let b = next_seed(n);
                if a != b && topo.link_between(ids[a], ids[b]).is_none() {
                    topo.add_link(ids[a], ids[b], 1000);
                }
            }
            let src = ids[0];
            let dst = ids[n - 1];
            let prefix: tulkun::netmodel::IpPrefix = PREFIX.parse().unwrap();
            topo.add_external_prefix(dst, prefix);

            let mut net = Network::new(topo);
            // Random action per device.
            for (i, &d) in ids.iter().enumerate() {
                if d == dst {
                    net.fib_mut(d).insert(Rule {
                        priority: 24,
                        matches: MatchSpec::dst(prefix),
                        action: Action::deliver(),
                    });
                    continue;
                }
                let nbrs: Vec<DeviceId> =
                    net.topology.neighbors(d).iter().map(|(x, _)| *x).collect();
                let action = match seeds[(i * 3) % seeds.len()] % 5 {
                    0 => Action::Drop,
                    1 => Action::fwd(nbrs[seeds[(i * 3 + 1) % seeds.len()] as usize % nbrs.len()]),
                    2 => Action::fwd_all(nbrs.iter().copied().take(2)),
                    3 => Action::fwd_any(nbrs.iter().copied().take(2)),
                    _ => Action::fwd_any(nbrs.iter().copied()),
                };
                net.fib_mut(d).insert(Rule {
                    priority: 24,
                    matches: MatchSpec::dst(prefix),
                    action,
                });
            }

            // Random updates: change one device's action.
            let mut updates = Vec::new();
            for (k, &u) in useeds.iter().enumerate() {
                let d = ids[u as usize % (n - 1)]; // never the destination
                let nbrs: Vec<DeviceId> =
                    net.topology.neighbors(d).iter().map(|(x, _)| *x).collect();
                let action = match u % 4 {
                    0 => Action::Drop,
                    1 => Action::fwd(nbrs[(u as usize / 7) % nbrs.len()]),
                    2 => Action::fwd_all(nbrs.iter().copied().take(2)),
                    _ => Action::fwd_any(nbrs.iter().copied().take(2)),
                };
                updates.push(RuleUpdate::Insert {
                    device: d,
                    rule: Rule {
                        priority: 30 + k as u32,
                        matches: MatchSpec::dst(prefix),
                        action,
                    },
                });
            }
            Scenario {
                net,
                src,
                dst,
                updates,
            }
        })
}

fn reachability_session(net: &Network, src: DeviceId, dst: DeviceId) -> Session {
    let topo = &net.topology;
    let inv = Invariant::builder()
        .packet_space(PacketSpace::dst_prefix(PREFIX))
        .ingress([topo.name(src)])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse(&format!("{} .* {}", topo.name(src), topo.name(dst)))
                .unwrap()
                .loop_free(),
        ))
        .build()
        .unwrap();
    let plan = Planner::new(topo).plan(&inv).unwrap();
    let mut cp = plan.counting().unwrap().clone();
    // Disable Proposition-1 reduction so full outcome sets are exposed.
    cp.reduce = ReduceMode::None;
    let mut s = Session::from_counting(net, cp, &inv.packet_space);
    s.run_to_quiescence();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dvm_burst_matches_trace_oracle(sc in scenario_strategy()) {
        let expected = oracle_counts(&sc.net, sc.src, sc.dst);
        let mut session = reachability_session(&sc.net, sc.src, sc.dst);
        let got = dvm_counts(&mut session, &sc.net, sc.src);
        let got_set: BTreeSet<u32> = got.iter().map(|v| v[0]).collect();
        prop_assert_eq!(got_set, expected, "burst mismatch");
    }

    #[test]
    fn dvm_incremental_matches_trace_oracle(sc in scenario_strategy()) {
        // Maintain the session incrementally through every update, then
        // compare against a fresh oracle of the final network (eventual
        // consistency of §4.2).
        let mut session = reachability_session(&sc.net, sc.src, sc.dst);
        let mut net = sc.net.clone();
        for u in &sc.updates {
            net.apply(u);
            session.apply_rule_update(u);
        }
        let expected = oracle_counts(&net, sc.src, sc.dst);
        let got = dvm_counts(&mut session, &net, sc.src);
        let got_set: BTreeSet<u32> = got.iter().map(|v| v[0]).collect();
        prop_assert_eq!(got_set, expected, "incremental mismatch");

        // And the incrementally-maintained session agrees with a fresh
        // burst over the final network.
        let mut fresh = reachability_session(&net, sc.src, sc.dst);
        let fresh_counts = dvm_counts(&mut fresh, &net, sc.src);
        let fresh_set: BTreeSet<u32> = fresh_counts.iter().map(|v| v[0]).collect();
        let got_set: BTreeSet<u32> = got.iter().map(|v| v[0]).collect();
        prop_assert_eq!(got_set, fresh_set, "incremental vs fresh burst mismatch");
    }
}
