//! End-to-end tests of the `tulkun` CLI binary and the JSON network
//! round-trip it relies on.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tulkun"))
}

#[test]
fn network_json_round_trip() {
    let net = tulkun::datasets::fig2a_network();
    let json = tulkun::json::to_string(&net);
    let back: tulkun::netmodel::network::Network = tulkun::json::from_str(&json).unwrap();
    assert_eq!(back.topology.num_devices(), net.topology.num_devices());
    assert_eq!(back.topology.num_links(), net.topology.num_links());
    assert_eq!(back.total_rules(), net.total_rules());
    // Same verdicts after the round trip.
    let inv = tulkun::core::spec::Invariant::parse(
        "(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))",
    )
    .unwrap();
    let p1 = tulkun::core::planner::Planner::new(&net.topology)
        .plan(&inv)
        .unwrap();
    let p2 = tulkun::core::planner::Planner::new(&back.topology)
        .plan(&inv)
        .unwrap();
    assert_eq!(
        tulkun::core::verify::verify_snapshot(&net, &p1).holds(),
        tulkun::core::verify::verify_snapshot(&back, &p2).holds()
    );
}

#[test]
fn cli_verify_flow() {
    let dir = std::env::temp_dir().join(format!("tulkun-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net_path = dir.join("net.json");

    // Export the example network.
    let out = bin()
        .args(["example", "--out", net_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A violated invariant exits nonzero and names the class.
    let out = bin()
        .args([
            "verify",
            "--network",
            net_path.to_str().unwrap(),
            "--invariant",
            "(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("per-universe counts"), "{stdout}");

    // A holding invariant exits zero.
    let out = bin()
        .args([
            "verify",
            "--network",
            net_path.to_str().unwrap(),
            "--invariant",
            "(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* D/ loop_free))",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Invariant files with comments.
    let invs = dir.join("invs.tk");
    std::fs::write(
        &invs,
        "# waypoint\n(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))\n\
         (dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* D/ loop_free))\n",
    )
    .unwrap();
    let out = bin()
        .args([
            "verify",
            "--network",
            net_path.to_str().unwrap(),
            "--invariants",
            invs.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("FAIL") && stdout.contains("PASS"),
        "{stdout}"
    );

    // plan --dot writes GraphViz.
    let dot = dir.join("d.dot");
    let out = bin()
        .args([
            "plan",
            "--network",
            net_path.to_str().unwrap(),
            "--invariant",
            "(dstIP=10.0.0.0/23, [S], (equal, /S .* D/ (== shortest)))",
            "--dot",
            dot.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("local-contract plan"), "{stdout}");
    assert!(std::fs::read_to_string(&dot)
        .unwrap()
        .starts_with("digraph"));

    // Unknown datasets error out.
    let out = bin().args(["datasets", "--name", "NOPE"]).output().unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_dataset_export() {
    let out = bin()
        .args(["datasets", "--name", "INet2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let net: tulkun::netmodel::network::Network = tulkun::json::from_slice(&out.stdout).unwrap();
    assert_eq!(net.topology.num_devices(), 9);
}

/// `tulkun explain` asks the runtime the daemon asks: an intent id no
/// install allocated is an error, not a healthy-looking `fresh`.
#[test]
fn cli_explain_refuses_an_unallocated_intent() {
    let out = bin()
        .args([
            "explain",
            "--seed",
            "3",
            "--subject",
            "intent:999",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown intent 999"), "{stderr}");
}

/// `--stats` writes every reliability counter of the run: the stderr
/// JSON's `fault` object reads back as a whole `FaultStats` (each
/// counter is a required field), and a lossy run retransmits. Its
/// per-device `bytes_sent` add up to the run's `bytes`.
#[test]
fn cli_stats_carry_every_fault_counter() {
    let dir = std::env::temp_dir().join(format!("tulkun-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prom = dir.join("metrics.prom");
    let out = bin()
        .args(["metrics", "--name", "INet2", "--faults", "3", "--stats"])
        .args(["--out", prom.to_str().unwrap()])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    // The pretty-printed object closes at the first column-0 `}`.
    let end = stderr.find("\n}").expect("a stats object") + 2;
    let stats = tulkun::json::parse(&stderr[..end]).unwrap();
    let fault = stats.get("fault").expect("a fault object");
    let fault: tulkun::core::fault::FaultStats =
        tulkun::json::FromJson::from_json(fault).unwrap_or_else(|e| panic!("{e:?}: {stderr}"));
    assert!(fault.retransmits > 0, "{fault:?}");
    let int = |j: Option<&tulkun::json::Json>| match j {
        Some(tulkun::json::Json::Int(n)) => *n,
        other => panic!("not an integer: {other:?}"),
    };
    let Some(tulkun::json::Json::Object(devices)) = stats.get("per_device") else {
        panic!("a per_device object: {stderr}");
    };
    let sent: i64 = devices.iter().map(|(_, d)| int(d.get("bytes_sent"))).sum();
    assert!(sent > 0, "{stderr}");
    assert_eq!(sent, int(stats.get("bytes")), "{stderr}");
}
