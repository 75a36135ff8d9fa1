//! Batched-update equivalence: applying a burst of FIB updates as one
//! coalesced [`UpdateBatch`] must yield Reports *byte-identical* to
//! applying the same updates one at a time — on every substrate, at
//! every batch boundary, and over a lossy management network. Batching
//! changes how much work is done (one LEC delta and one coalesced
//! UPDATE per device per batch), never the verdict.

use tulkun::core::fault::FaultProfile;
use tulkun::core::planner::{CountingPlan, Planner};
use tulkun::core::verify::Session;
use tulkun::netmodel::fib::MatchSpec;
use tulkun::netmodel::network::{RuleUpdate, UpdateBatch};
use tulkun::prelude::*;
use tulkun::sim::runtime::FifoTransport;
use tulkun::sim::{Engine, EngineConfig, LecCache, ThreadedEngine};

const SEEDS: [u64; 3] = [1, 7, 23];

fn fig2_setup() -> (Network, Invariant) {
    let net = tulkun::datasets::fig2a_network();
    let inv = Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))")
        .unwrap();
    (net, inv)
}

/// The Fig. 2 repair: B forwards the broken /24 to the waypoint.
fn repair(net: &Network) -> RuleUpdate {
    let b = net.topology.expect_device("B");
    let w = net.topology.expect_device("W");
    RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 50,
            matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
            action: Action::fwd(w),
        },
    }
}

/// The reference semantics: the engine over the in-order fake.
fn fifo_engine(net: &Network, cp: &CountingPlan, ps: &PacketSpace) -> Engine {
    let (cfg, cache) = (EngineConfig::default(), LecCache::new());
    Engine::over(net, cp, ps, &cfg, &cache, Box::<FifoTransport>::default())
}

/// A per-destination reachability invariant on a dataset network.
fn dataset_setup(name: &str) -> (Network, Invariant) {
    let ds = tulkun::datasets::by_name(name, tulkun::datasets::Scale::Tiny).unwrap();
    let net = ds.network.clone();
    let topo = &net.topology;
    let (dst, prefix) = topo.external_map().next().unwrap();
    let dst_name = topo.name(dst).to_string();
    let ingress: Vec<String> = topo
        .devices()
        .filter(|d| *d != dst)
        .map(|d| topo.name(d).to_string())
        .collect();
    let inv = Invariant::builder()
        .packet_space(PacketSpace::DstPrefix(prefix))
        .ingress(ingress)
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            PathExpr::parse(&format!(". * {dst_name}"))
                .unwrap()
                .loop_free(),
        ))
        .build()
        .unwrap();
    (net, inv)
}

#[test]
fn batched_matches_sequential_over_seeded_traces() {
    // Chunked batches vs one-at-a-time: byte-identical at every batch
    // boundary, for seeded random churn traces.
    let (net, inv) = dataset_setup("INet2");
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    for seed in SEEDS {
        let trace = tulkun::datasets::rule_updates(&net, 24, seed);
        let mut seq = Session::new(&net, &plan);
        seq.run_to_quiescence();
        let mut bat = Session::new(&net, &plan);
        bat.run_to_quiescence();
        for (i, chunk) in trace.chunks(6).enumerate() {
            for u in chunk {
                seq.apply_rule_update(u);
            }
            bat.apply_batch(chunk);
            assert_eq!(
                seq.report().canonical_bytes(),
                bat.report().canonical_bytes(),
                "seed {seed}: batched Report diverged after chunk {i}"
            );
        }
    }
}

#[test]
fn batched_trace_agrees_across_substrates() {
    // The same chunked trace on the engine substrates: final Reports
    // byte-identical to the sequential reference Session.
    let (net, inv) = dataset_setup("INet2");
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();
    for seed in SEEDS {
        let trace = tulkun::datasets::rule_updates(&net, 18, seed);

        let mut reference = Session::new(&net, &plan);
        reference.run_to_quiescence();
        for u in &trace {
            reference.apply_rule_update(u);
        }
        let expect = reference.report().canonical_bytes();

        let mut engine = fifo_engine(&net, cp, &inv.packet_space);
        engine.burst();
        for chunk in trace.chunks(6) {
            engine.apply_batch(chunk);
        }
        assert_eq!(
            engine.report().canonical_bytes(),
            expect,
            "seed {seed}: fifo engine batched trace"
        );

        let mut sim = Engine::new(&net, cp, &inv.packet_space, EngineConfig::default());
        sim.burst();
        for chunk in trace.chunks(6) {
            sim.apply_batch(chunk);
        }
        assert_eq!(
            sim.report().canonical_bytes(),
            expect,
            "seed {seed}: event sim batched trace"
        );
    }
}

#[test]
fn insert_then_remove_cancels_inside_a_batch() {
    // A batch that inserts a blackhole, repairs the route, and removes
    // the blackhole again: coalescing drops the cancelled insert, and
    // the verdict matches sequential application exactly.
    let (net, inv) = fig2_setup();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let b = net.topology.expect_device("B");
    let blackhole = Rule {
        priority: 99,
        matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
        action: Action::Drop,
    };
    let updates = vec![
        RuleUpdate::Insert {
            device: b,
            rule: blackhole.clone(),
        },
        repair(&net),
        RuleUpdate::Remove {
            device: b,
            priority: blackhole.priority,
            matches: blackhole.matches,
        },
    ];
    // Coalescing must cancel the insert: B's group is [repair, remove].
    let batch: UpdateBatch = updates.iter().cloned().collect();
    let groups = batch.coalesced();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].1.len(), 2, "cancelled insert must not survive");

    let mut seq = Session::new(&net, &plan);
    seq.run_to_quiescence();
    for u in &updates {
        seq.apply_rule_update(u);
    }
    let mut bat = Session::new(&net, &plan);
    bat.run_to_quiescence();
    bat.apply_batch(&updates);
    let expect = seq.report().canonical_bytes();
    assert_eq!(bat.report().canonical_bytes(), expect);
    assert!(bat.report().holds(), "repaired network must verify");
}

#[test]
fn multi_device_batch_agrees_on_all_four_substrates() {
    // One batch touching two devices (the B repair plus a redundant S
    // route refresh): Session, fifo engine, event sim and the threaded
    // runner all converge to byte-identical Reports.
    let (net, inv) = fig2_setup();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();
    let s = net.topology.expect_device("S");
    let a = net.topology.expect_device("A");
    let updates = vec![
        repair(&net),
        RuleUpdate::Insert {
            device: s,
            rule: Rule {
                priority: 60,
                matches: MatchSpec::dst("10.0.0.0/23".parse().unwrap()),
                action: Action::fwd(a),
            },
        },
    ];

    let mut reference = Session::new(&net, &plan);
    reference.run_to_quiescence();
    reference.apply_batch(&updates);
    let expect = reference.report().canonical_bytes();
    assert!(reference.report().holds());

    let mut engine = fifo_engine(&net, cp, &inv.packet_space);
    engine.burst();
    engine.apply_batch(&updates);
    assert_eq!(engine.report().canonical_bytes(), expect, "fifo engine");

    let mut sim = Engine::new(&net, cp, &inv.packet_space, EngineConfig::default());
    sim.burst();
    sim.apply_batch(&updates);
    assert_eq!(sim.report().canonical_bytes(), expect, "event sim");

    let mut run = ThreadedEngine::spawn(&net, cp, &inv.packet_space);
    run.wait_quiescent();
    run.apply_batch(&updates);
    assert_eq!(run.report().canonical_bytes(), expect, "threaded runner");
    run.shutdown().expect("clean shutdown");
}

#[test]
fn batched_burst_survives_ten_percent_loss() {
    // The fault-matrix extension: a multi-device batch applied over a
    // 10% lossy channel still converges to the perfect-channel bytes.
    let (net, inv) = fig2_setup();
    let plan = Planner::new(&net.topology).plan(&inv).unwrap();
    let cp = plan.counting().unwrap();
    let s = net.topology.expect_device("S");
    let a = net.topology.expect_device("A");
    let updates = vec![
        repair(&net),
        RuleUpdate::Insert {
            device: s,
            rule: Rule {
                priority: 60,
                matches: MatchSpec::dst("10.0.0.0/23".parse().unwrap()),
                action: Action::fwd(a),
            },
        },
    ];

    let mut clean = Engine::new(&net, cp, &inv.packet_space, EngineConfig::default());
    clean.burst();
    clean.apply_batch(&updates);
    let expect = clean.report().canonical_bytes();

    for seed in SEEDS {
        let mut sim = Engine::lossy(
            &net,
            cp,
            &inv.packet_space,
            EngineConfig::default(),
            FaultProfile::loss(seed, 0.10),
        );
        sim.burst();
        sim.apply_batch(&updates);
        assert_eq!(
            sim.report().canonical_bytes(),
            expect,
            "seed {seed}: batched Report diverged under 10% loss"
        );
    }
}
