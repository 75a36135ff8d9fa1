//! Distributed deployment shape: every on-device verifier runs on its
//! own OS thread, connected by in-order channels — the same topology of
//! verification agents the paper's prototype runs over TCP between
//! switches.
//!
//! ```sh
//! cargo run --example distributed_threaded
//! ```

use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::planner::Planner;
use tulkun::prelude::*;
use tulkun::sim::ThreadedEngine;

fn main() {
    let net = tulkun::datasets::fig2a_network();
    let invariant =
        Invariant::parse("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))")
            .unwrap();
    let plan = Planner::new(&net.topology).plan(&invariant).unwrap();
    let cp = plan.counting().unwrap();

    println!(
        "spawning {} device verifiers as threads ({} DPVNet nodes)",
        net.topology.num_devices(),
        cp.dpvnet.num_nodes()
    );
    let mut run = ThreadedEngine::spawn(&net, cp, &invariant.packet_space);
    run.run_to_quiescence();
    let report = run.report();
    println!("burst verdict: holds = {}", report.holds());
    assert!(!report.holds());

    // Stream the Fig. 2 repair update into device B, live.
    let b = net.topology.expect_device("B");
    let w = net.topology.expect_device("W");
    let repair = tulkun::netmodel::network::RuleUpdate::Insert {
        device: b,
        rule: Rule {
            priority: 50,
            matches: tulkun::netmodel::fib::MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
            action: Action::fwd(w),
        },
    };
    run.apply_event(&RuntimeEvent::Batch(vec![repair])).unwrap();
    let report = run.report();
    println!("after live update: holds = {}", report.holds());
    assert!(report.holds());

    let stats = run.shutdown().expect("clean shutdown");
    println!(
        "all verifier threads joined cleanly ({} messages, {} bytes on the wire)",
        stats.messages, stats.bytes
    );
}
