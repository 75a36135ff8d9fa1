//! End-to-end tests of the daemon session protocol: a scripted
//! 500-batch × churn × query session on tiny INet2, driven through the
//! exact line protocol `tulkun daemon` speaks, must leave the service
//! in a state byte-equal to applying the same events directly to a
//! fresh simulator — the daemon adds liveness, never semantics. Held
//! clean and over a 10% lossy management network, plus a smoke test of
//! the real binary over a stdin pipe.

use std::process::{Command, Stdio};

use tulkun::core::churn::{ChurnSchedule, TopologyEvent};
use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::fault::FaultProfile;
use tulkun::core::verify::Session;
use tulkun::daemon::{dataset_session, DaemonConfig, DaemonSession};
use tulkun::netmodel::fib::{Action, MatchSpec, Rule};
use tulkun::netmodel::network::RuleUpdate;
use tulkun::netmodel::topology::DeviceId;
use tulkun::netmodel::IpPrefix;
use tulkun::sim::{BackendKind, Engine, EngineConfig, ServiceConfig};

/// Renders a churn event as its protocol line from source `src`.
fn churn_line(
    topo: &tulkun::netmodel::topology::Topology,
    src: &str,
    ev: &TopologyEvent,
) -> String {
    match ev {
        TopologyEvent::LinkDown(a, b) => {
            format!("churn {src} link-down {} {}", topo.name(*a), topo.name(*b))
        }
        TopologyEvent::LinkUp(a, b) => {
            format!("churn {src} link-up {} {}", topo.name(*a), topo.name(*b))
        }
        TopologyEvent::DeviceDown(d) => format!("churn {src} device-down {}", topo.name(*d)),
        TopologyEvent::DeviceUp(d) => format!("churn {src} device-up {}", topo.name(*d)),
    }
}

/// Drives a scripted session through [`DaemonSession::handle_line`] and
/// asserts the final drained Report is byte-equal to a direct replay.
///
/// All requests come from one source, so per-source FIFO makes the
/// apply order equal the script order and the reference replay exact.
fn run_scripted_session(batches: usize, faults: Option<FaultProfile>) {
    let cfg = DaemonConfig {
        service: ServiceConfig {
            faults,
            ..ServiceConfig::default()
        },
        ..DaemonConfig::default()
    };
    let mut session = DaemonSession::new(cfg).expect("daemon session");
    let topo = session.topology().clone();

    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let (inv, cp) = dataset_session(&ds.network, "INet2").unwrap();
    let trace = tulkun::datasets::rule_updates(&ds.network, batches, 13);
    let churn = ChurnSchedule::seeded(&topo, &inv, 17, batches / 25).0;

    // The script: one batch line per update; every 25th batch is
    // followed by a churn event; every 10th by a drain; every 50th by
    // the invariant queries (report/status/slo). All single-source.
    let mut script: Vec<String> = Vec::new();
    let mut churn_events = churn.iter();
    let mut expected: Vec<Result<Vec<tulkun::netmodel::network::RuleUpdate>, TopologyEvent>> =
        Vec::new();
    for (i, up) in trace.iter().enumerate() {
        let batch = vec![up.clone()];
        script.push(format!("batch cp {}", tulkun::json::to_string(&batch)));
        expected.push(Ok(batch));
        if (i + 1) % 25 == 0 {
            if let Some(ev) = churn_events.next() {
                script.push(churn_line(&topo, "cp", ev));
                expected.push(Err(*ev));
            }
        }
        if (i + 1) % 10 == 0 {
            script.push("drain".into());
        }
        if (i + 1) % 50 == 0 {
            script.push("# mid-session invariant queries".into());
            script.push("report".into());
            script.push("status".into());
            script.push("slo".into());
        }
    }
    script.push("drain".into());

    for line in &script {
        if let Some(reply) = session.handle_line(line) {
            assert!(
                reply.text.starts_with("ok "),
                "request {line:?} failed: {}",
                reply.text
            );
        }
    }
    let final_report = session
        .handle_line("report")
        .expect("report reply")
        .text
        .strip_prefix("ok ")
        .expect("report is ok")
        .to_string();

    // Direct replay of the same script against a fresh clean simulator
    // (the lossy session must converge to the clean fixpoint).
    let mut reference = Engine::new(&ds.network, &cp, &inv.packet_space, EngineConfig::default());
    reference.burst();
    for step in &expected {
        match step {
            Ok(batch) => {
                reference.apply_batch(batch);
            }
            // Planner-rejected events change nothing on either side.
            Err(ev) => {
                let _ = reference.apply_topology_event(ev, &topo, &inv);
            }
        }
    }
    let reference_report =
        String::from_utf8(reference.report().canonical_bytes()).expect("utf8 report");
    assert_eq!(
        final_report, reference_report,
        "daemon diverged from direct replay"
    );

    let status = session.service_mut().status();
    assert_eq!(status.queued, 0, "final drain left work queued");
    assert_eq!(
        status.shed, 0,
        "single-source script under the cap never sheds"
    );
    assert!(
        status.processed as usize >= batches,
        "all batches processed"
    );
}

#[test]
fn scripted_session_matches_direct_replay() {
    run_scripted_session(500, None);
}

#[test]
fn scripted_session_matches_clean_replay_under_loss() {
    run_scripted_session(200, Some(FaultProfile::loss(23, 0.10)));
}

/// The intent spec line a client would send for a one-ingress subset
/// intent toward the dataset's external destination (same
/// outcome-vector shape as the base session).
fn narrow_intent_spec(topo: &tulkun::netmodel::topology::Topology) -> String {
    let (dst, _) = topo.external_map().next().expect("external dst");
    let dst_name = topo.name(dst);
    let prefix = topo.external_prefixes(dst)[0];
    let ingress = topo
        .devices()
        .find(|d| *d != dst)
        .map(|d| topo.name(d).to_string())
        .expect("an ingress");
    format!("(dstIP={prefix}, [{ingress}], (subset, /. * {dst_name}/ loop_free (<= shortest+2)))")
}

#[test]
fn intent_protocol_round_trips() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let spec = narrow_intent_spec(&session.topology().clone());
    let payload = format!(
        "{{\"name\":\"narrow\",\"spec\":{}}}",
        tulkun::json::to_string(spec.as_str())
    );

    let ok = |r: Option<tulkun::daemon::Reply>| {
        let r = r.expect("reply");
        assert!(r.text.starts_with("ok "), "{}", r.text);
        r.text
    };
    let err = |r: Option<tulkun::daemon::Reply>| {
        let r = r.expect("reply");
        assert!(r.text.starts_with("err "), "{}", r.text);
        r.text
    };

    ok(session.handle_line(&format!("intent add ops {payload}")));
    ok(session.handle_line("drain"));
    let status = ok(session.handle_line("status"));
    assert!(status.contains("\"intent_count\":2"), "{status}");
    assert!(status.contains("\"rejected_intents\":0"), "{status}");
    assert!(status.contains("\"name\":\"narrow\""), "{status}");

    ok(session.handle_line("intent remove ops 1"));
    ok(session.handle_line("drain"));
    let status = ok(session.handle_line("status"));
    assert!(status.contains("\"intent_count\":1"), "{status}");
    assert!(status.contains("\"rejected_intents\":0"), "{status}");

    // Malformed requests are rejected with a reason, not admitted.
    err(session.handle_line("intent add ops notjson"));
    err(session.handle_line("intent add ops {\"name\":\"x\"}"));
    err(session.handle_line("intent remove ops twelve"));
    err(session.handle_line("intent frobnicate ops 1"));
    // Removing the base session is admitted but rejected at apply time.
    ok(session.handle_line("intent remove ops 0"));
    ok(session.handle_line("drain"));
    let status = ok(session.handle_line("status"));
    assert!(status.contains("\"rejected_intents\":1"), "{status}");
    assert!(status.contains("\"intent_count\":1"), "{status}");

    // The exported gauge follows removals wherever in the network the
    // removed slices lived: three intents from the three highest-numbered
    // ingresses (their slices start on different devices, hence metric
    // shards), then the two oldest removed.
    let topo = session.topology().clone();
    let (dst, _) = topo.external_map().next().expect("external dst");
    let prefix = topo.external_prefixes(dst)[0];
    let ingresses: Vec<_> = topo.devices().filter(|d| *d != dst).collect();
    for (i, ingress) in ingresses.iter().rev().take(3).enumerate() {
        let spec = format!(
            "(dstIP={prefix}, [{}], (subset, /. * {}/ loop_free (<= shortest+2)))",
            topo.name(*ingress),
            topo.name(dst)
        );
        let payload = format!(
            "{{\"name\":\"far-{i}\",\"spec\":{}}}",
            tulkun::json::to_string(spec.as_str())
        );
        ok(session.handle_line(&format!("intent add ops {payload}")));
    }
    ok(session.handle_line("drain"));
    let status = ok(session.handle_line("status"));
    assert!(status.contains("\"intent_count\":4"), "{status}");
    ok(session.handle_line("intent remove ops 2"));
    ok(session.handle_line("intent remove ops 3"));
    ok(session.handle_line("drain"));
    let status = ok(session.handle_line("status"));
    assert!(status.contains("\"intent_count\":2"), "{status}");
    let metrics = ok(session.handle_line("metrics"));
    let exported = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tulkun_intent_count "))
        .expect("tulkun_intent_count is exported");
    assert_eq!(exported.trim(), "2", "`metrics` disagrees with `status`");
}

#[test]
fn daemon_binary_speaks_the_protocol_over_stdin() {
    // A real batch for the wire: one insert on the INet2 dataset.
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let update = tulkun::datasets::rule_updates(&ds.network, 1, 5).remove(0);
    let batch_json = tulkun::json::to_string(&vec![update]);

    let intent_json = format!(
        "{{\"name\":\"narrow\",\"spec\":{}}}",
        tulkun::json::to_string(narrow_intent_spec(&ds.network.topology).as_str())
    );
    let script = format!(
        "# smoke script\n\
         status\n\
         batch ops {batch_json}\n\
         churn net link-down SEAT LOSA\n\
         drain\n\
         report\n\
         slo\n\
         intent add ops {intent_json}\n\
         intent remove ops 1\n\
         drain\n\
         badcmd\n\
         quit\n"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_tulkun"))
        .args(["daemon", "--name", "INet2", "--scale", "tiny"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    use std::io::Write;
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("daemon run");
    assert!(
        out.status.success(),
        "daemon exited nonzero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().collect();
    // Comment swallowed; 11 requests → 11 replies.
    assert_eq!(replies.len(), 11, "unexpected replies: {stdout}");
    assert!(
        replies[0].starts_with("ok {\"admitted\""),
        "status: {}",
        replies[0]
    );
    assert!(
        replies[1].starts_with("ok admitted=1"),
        "batch: {}",
        replies[1]
    );
    assert!(
        replies[2].starts_with("ok queued="),
        "churn: {}",
        replies[2]
    );
    assert!(
        replies[3].starts_with("ok processed=2"),
        "drain: {}",
        replies[3]
    );
    assert!(replies[4].starts_with("ok ["), "report: {}", replies[4]);
    assert!(replies[5].starts_with("ok {\"ok\""), "slo: {}", replies[5]);
    assert!(
        replies[6].starts_with("ok queued="),
        "intent add: {}",
        replies[6]
    );
    assert!(
        replies[7].starts_with("ok queued="),
        "intent remove: {}",
        replies[7]
    );
    assert!(
        replies[8].starts_with("ok processed=2"),
        "drain: {}",
        replies[8]
    );
    assert!(
        replies[9].starts_with("err unknown request"),
        "badcmd: {}",
        replies[9]
    );
    assert_eq!(replies[10], "ok bye");
}

fn reply(session: &mut DaemonSession, line: &str) -> String {
    session.handle_line(line).expect("reply").text
}

/// The port-matching ACL drops `datasets::gen::add_acls` adds to a
/// network, as the rule updates a client would send for them.
fn acl_batch(net: &tulkun::netmodel::network::Network) -> String {
    let mut with_acls = net.clone();
    tulkun::datasets::gen::add_acls(&mut with_acls, 1, 5);
    let acls: Vec<RuleUpdate> = with_acls
        .topology
        .devices()
        .flat_map(|device| {
            let rules = with_acls.fib(device).rules();
            rules
                .iter()
                .filter(|r| r.matches.dst_port.is_some())
                .map(move |rule| RuleUpdate::Insert {
                    device,
                    rule: rule.clone(),
                })
        })
        .collect();
    assert!(!acls.is_empty());
    format!("batch acl {}", tulkun::json::to_string(&acls))
}

/// `config backend` to an encoding the current network is outside of
/// is an `err` reply that changes nothing — not a daemon panic.
#[test]
fn config_backend_refuses_a_network_it_cannot_run() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    assert!(reply(&mut session, &acl_batch(&ds.network)).starts_with("ok "));
    assert_eq!(reply(&mut session, "drain"), "ok processed=1");
    // One more request left queued: a rejected swap must not touch it.
    let update = tulkun::datasets::rule_updates(&ds.network, 1, 13);
    let queued = format!("batch cp {}", tulkun::json::to_string(&update));
    assert!(reply(&mut session, &queued).ends_with("queued=1"));

    let status = reply(&mut session, "status");
    let report = reply(&mut session, "report");
    for kind in ["intervals", "deltanet"] {
        let refused = reply(&mut session, &format!("config backend {kind}"));
        assert!(
            refused.starts_with("err rejected: ") && refused.contains("destination-prefix-only"),
            "{refused}"
        );
        assert_eq!(reply(&mut session, "status"), status, "after {kind}");
        assert_eq!(reply(&mut session, "report"), report, "after {kind}");
    }
    assert_eq!(session.service_mut().config().backend, BackendKind::Bdd);
    assert_eq!(reply(&mut session, "config backend bdd"), "ok backend=bdd");
    assert_eq!(reply(&mut session, "drain"), "ok processed=1");
}

/// A batch carrying a rule the running interval backend cannot encode
/// is refused when it is applied — journaled, counted, Report and FIBs
/// untouched — and goes through once the daemon is back on BDDs.
#[test]
fn interval_backend_refuses_a_rich_batch() {
    let cfg = DaemonConfig {
        service: ServiceConfig {
            backend: BackendKind::Intervals,
            ..ServiceConfig::default()
        },
        ..DaemonConfig::default()
    };
    let mut session = DaemonSession::new(cfg).expect("daemon session");
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let acls = acl_batch(&ds.network);
    let report = reply(&mut session, "report");

    assert!(reply(&mut session, &acls).starts_with("ok "));
    assert_eq!(reply(&mut session, "drain"), "ok processed=1");
    let status = reply(&mut session, "status");
    assert!(status.contains("\"rejected_batches\":1"), "{status}");
    assert_eq!(reply(&mut session, "report"), report, "old Report stands");
    let events = reply(&mut session, "events acl");
    assert!(events.contains("\"kind\":\"batch_rejected\""), "{events}");
    assert!(events.contains("destination-prefix-only"), "{events}");

    // The refused rules never reached the FIBs: the network is still
    // ip-only, so the interval backends stay legal...
    assert_eq!(
        reply(&mut session, "config backend deltanet"),
        "ok backend=deltanet"
    );
    // ...and on BDDs the same batch is ordinary work.
    assert_eq!(reply(&mut session, "config backend bdd"), "ok backend=bdd");
    assert!(reply(&mut session, &acls).starts_with("ok "));
    assert_eq!(reply(&mut session, "drain"), "ok processed=1");
    let status = reply(&mut session, "status");
    assert!(status.contains("\"rejected_batches\":1"), "{status}");
}

/// Reports are canonical: after every op of a single-update script the
/// daemon's `report` is byte-equal to the synchronous reference
/// `Session`'s. On this script (found in the benchmark's `trickle-read`
/// workload) the event-driven engine converges with one violation's
/// packets spread over two `LocCIB` entries with equal counts where the
/// session holds one; both must export the union.
#[test]
fn daemon_report_is_byte_equal_to_the_reference_session() {
    let cfg = DaemonConfig {
        name: "AT1-2".into(),
        ..DaemonConfig::default()
    };
    let mut session = DaemonSession::new(cfg).expect("daemon session");
    let ds = tulkun::datasets::by_name("AT1-2", tulkun::datasets::Scale::Tiny).unwrap();
    let (inv, cp) = dataset_session(&ds.network, "AT1-2").unwrap();
    let mut reference = Session::from_counting(&ds.network, cp, &inv.packet_space);
    reference.run_to_quiescence();

    let insert = |device: u32, priority: u32, dst: &str, action: Action| RuleUpdate::Insert {
        device: DeviceId(device),
        rule: Rule {
            priority,
            matches: MatchSpec::dst(dst.parse().unwrap()),
            action,
        },
    };
    let script = [
        insert(23, 62, "10.0.2.0/24", Action::fwd(DeviceId(9))),
        insert(9, 90, "10.0.2.128/25", Action::Drop),
        insert(17, 69, "10.0.2.0/24", Action::fwd(DeviceId(23))),
        insert(1, 64, "10.0.2.0/24", Action::fwd(DeviceId(18))),
    ];
    for (i, update) in script.into_iter().enumerate() {
        let batch = vec![update];
        let line = format!("batch cp {}", tulkun::json::to_string(&batch));
        assert!(reply(&mut session, &line).starts_with("ok "));
        assert_eq!(reply(&mut session, "drain"), "ok processed=1");
        reference
            .apply_event(&RuntimeEvent::Batch(batch))
            .expect("reference applies the batch");
        let want = String::from_utf8(reference.report().canonical_bytes()).unwrap();
        assert_eq!(
            reply(&mut session, "report"),
            format!("ok {want}"),
            "daemon and reference Reports differ after op {i}"
        );
    }
}

/// Reads one plain gauge out of a `metrics` reply.
fn gauge(metrics: &str, name: &str) -> usize {
    let line = metrics
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("`metrics` exports no {name}"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// A long-lived daemon folding in one FIB update after another does
/// not accumulate BDD memo: 20 000 single-update `batch` / `drain` /
/// `report` rounds on tiny AT1-2 (2 000 in a debug build; the release
/// run is part of `ci.sh equivalence`), a window of 64 live host
/// routes that never repeat (so every round brings operands no memo
/// entry knows), and at every sample the heaviest device's
/// `tulkun_bdd_memo_entries` is within the constant rule of its
/// `tulkun_bdd_nodes` — `max(4096, 4 x nodes)` — instead of growing
/// with the operations executed. The node table has no collector yet;
/// its slope is printed (`--nocapture`) for the issue that adds one.
#[test]
fn soak_keeps_the_bdd_memo_within_its_bound() {
    let rounds = if cfg!(debug_assertions) {
        2_000
    } else {
        20_000
    };
    let cfg = DaemonConfig {
        name: "AT1-2".into(),
        ..DaemonConfig::default()
    };
    let mut session = DaemonSession::new(cfg).expect("daemon session");
    let ds = tulkun::datasets::by_name("AT1-2", tulkun::datasets::Scale::Tiny).unwrap();
    let pool: Vec<(DeviceId, Rule)> = tulkun::datasets::rule_updates(&ds.network, 512, 29)
        .into_iter()
        .filter_map(|u| match u {
            RuleUpdate::Insert { device, rule } => Some((device, rule)),
            RuleUpdate::Remove { .. } => None,
        })
        .collect();
    let mut live: std::collections::VecDeque<(DeviceId, Rule)> = Default::default();
    let mut samples: Vec<(usize, usize, usize)> = Vec::new();
    for round in 0..rounds {
        // Oldest out once the window is full, else the next pool entry.
        let update = if live.len() == 64 {
            let (device, rule) = live.pop_front().unwrap();
            RuleUpdate::Remove {
                device,
                priority: rule.priority,
                matches: rule.matches,
            }
        } else {
            // A host route inside the pool rule's prefix, new each time.
            let (device, mut rule) = pool[(round * 7) % pool.len()].clone();
            let host = (round as u32).wrapping_mul(2_654_435_761) >> rule.matches.dst.len.max(1);
            rule.matches.dst = IpPrefix::new(rule.matches.dst.addr | host, 32);
            live.push_back((device, rule.clone()));
            RuleUpdate::Insert { device, rule }
        };
        let line = format!("batch soak {}", tulkun::json::to_string(&vec![update]));
        assert!(reply(&mut session, &line).starts_with("ok "), "{line}");
        assert_eq!(reply(&mut session, "drain"), "ok processed=1");
        assert!(reply(&mut session, "report").starts_with("ok "));
        if (round + 1) % (rounds / 20) == 0 {
            let metrics = reply(&mut session, "metrics");
            let nodes = gauge(&metrics, "tulkun_bdd_nodes");
            let memo = gauge(&metrics, "tulkun_bdd_memo_entries");
            assert!(
                memo <= (4 * nodes).max(4096),
                "round {round}: {memo} memo entries beside {nodes} nodes"
            );
            samples.push((round + 1, nodes, memo));
        }
    }
    let (first, last) = (samples[0], samples[samples.len() - 1]);
    println!(
        "soak: {rounds} rounds; heaviest device {} -> {} nodes ({:.2} nodes/round), memo {:?}",
        first.1,
        last.1,
        (last.1 - first.1) as f64 / (last.0 - first.0) as f64,
        samples.iter().map(|s| s.2).collect::<Vec<_>>()
    );
}
