//! End-to-end tests of the daemon session protocol: a scripted
//! 500-batch × churn × query session on tiny INet2, driven through the
//! exact line protocol `tulkun daemon` speaks, must leave the service
//! in a state byte-equal to applying the same events directly to a
//! fresh simulator — the daemon adds liveness, never semantics. Held
//! clean and over a 10% lossy management network, plus a smoke test of
//! the real binary over a stdin pipe. Below the protocol, a multi-source
//! [`Service`] session under each admission policy is held to its exact
//! admission counters and to a replay of exactly what it admitted.

use std::process::{Command, Stdio};

use proptest::prelude::*;
use tulkun::core::churn::{ChurnSchedule, TopologyEvent};
use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::fault::FaultProfile;
use tulkun::core::intent::IntentId;
use tulkun::core::spec::Invariant;
use tulkun::core::verify::Session;
use tulkun::daemon::{dataset_session, DaemonConfig, DaemonSession};
use tulkun::netmodel::fib::{Action, MatchSpec, Rule};
use tulkun::netmodel::network::RuleUpdate;
use tulkun::netmodel::topology::DeviceId;
use tulkun::netmodel::IpPrefix;
use tulkun::sim::{AdmissionPolicy, Engine, EngineConfig, Service, ServiceConfig, ServiceRequest};

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

/// One request a session applied, in apply order, for the reference
/// replay.
enum Applied {
    Batch(Vec<RuleUpdate>),
    Churn(TopologyEvent),
    /// An install of the narrow intent the service accepted, under the
    /// id it allocated.
    IntentAdd(IntentId, Invariant),
    IntentRemove(IntentId),
}

/// The canonical Report of a fresh clean engine after `applied`, in
/// order — what a daemon session that applied the same requests must
/// have converged to, however lossy its management network.
fn direct_replay(
    net: &tulkun::netmodel::network::Network,
    (inv, cp): &(Invariant, tulkun::core::planner::CountingPlan),
    cfg: EngineConfig,
    applied: &[Applied],
) -> Vec<u8> {
    let mut reference = Engine::new(net, cp, &inv.packet_space, cfg);
    reference.run_to_quiescence();
    for a in applied {
        match a {
            Applied::Batch(batch) => {
                let ev = RuntimeEvent::Batch(batch.clone());
                reference.apply_event(&ev).expect("replay batch");
            }
            // The daemon counts a planner-rejected event without
            // applying it; it changes nothing here either.
            Applied::Churn(ev) => {
                let _ = reference.apply_event(&RuntimeEvent::Topology {
                    event: *ev,
                    base: net.topology.clone(),
                    invariant: inv.clone(),
                });
            }
            Applied::IntentAdd(id, narrow) => {
                let got = reference
                    .apply_event(&RuntimeEvent::InstallIntent {
                        name: "narrow".to_string(),
                        invariant: narrow.clone(),
                    })
                    .expect("replay install")
                    .intent;
                assert_eq!(got, Some(*id), "the replay allocates the service's id");
            }
            Applied::IntentRemove(id) => {
                let ev = RuntimeEvent::RemoveIntent(*id);
                reference.apply_event(&ev).expect("replay remove");
            }
        }
    }
    reference.report().canonical_bytes()
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
    let planned = dataset_session(&ds.network, "INet2").unwrap();
    let trace = tulkun::datasets::rule_updates(&ds.network, batches, 13);
    let churn = ChurnSchedule::seeded(&topo, &planned.0, 17, batches / 25).0;

    // The script: one batch line per update; every 25th batch is
    // followed by a churn event; every 10th by a drain; every 50th by
    // the invariant queries (report/status/slo). All single-source.
    let mut script: Vec<String> = Vec::new();
    let mut churn_events = churn.iter();
    let mut expected: Vec<Applied> = Vec::new();
    for (i, up) in trace.iter().enumerate() {
        let batch = vec![up.clone()];
        script.push(format!("batch cp {}", tulkun::json::to_string(&batch)));
        expected.push(Applied::Batch(batch));
        if (i + 1) % 25 == 0 {
            if let Some(ev) = churn_events.next() {
                script.push(churn_line(&topo, "cp", ev));
                expected.push(Applied::Churn(*ev));
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
    let reference = direct_replay(&ds.network, &planned, EngineConfig::default(), &expected);
    let reference_report = String::from_utf8(reference).expect("utf8 report");
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

/// The always-on service shape: FIB batches from two sources, seeded
/// churn from a third, a fourth toggling a narrow intent, status and
/// report queries in between — under `Block`, `Shed`, and `Shed` over a
/// 10% lossy management network. Admission depends only on queue
/// lengths, churn state and seeded loss, never on timing, so every
/// counter is exact; and the drained Report must be byte-equal to
/// applying exactly the admitted requests (installs under the ids the
/// service allocated) to a fresh *clean* engine — the lossy session
/// must converge to the clean fixpoint.
#[test]
fn multi_source_session_matches_replay_of_admitted_requests() {
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let net = &ds.network;
    let topo = &net.topology;
    let planned = dataset_session(net, "INet2").unwrap();
    let (inv, cp) = &planned;
    let narrow = Invariant::parse(&narrow_intent_spec(topo)).expect("narrow intent");
    let trace = tulkun::datasets::rule_updates(net, 200, 7);
    let churn = ChurnSchedule::seeded(topo, inv, 11, 6).0;

    for (policy, loss, admitted_shed_processed) in [
        (AdmissionPolicy::Block, 0.0, (58, 0, 58)),
        (AdmissionPolicy::Shed, 0.0, (42, 16, 42)),
        (AdmissionPolicy::Shed, 0.10, (42, 16, 42)),
    ] {
        let cfg = ServiceConfig {
            policy,
            // Three sub-batches per source turn against a cap of 2:
            // Block drains mid-turn and stays lossless, Shed drops the
            // third — the configurations differ only in policy and loss.
            per_source_cap: 2,
            faults: (loss > 0.0).then(|| FaultProfile::loss(31, loss)),
            ..ServiceConfig::default()
        };
        let mut svc = Service::new(net, cp, inv, cfg);

        // The session overlaps its regimes: every 3rd source turn a
        // fourth source toggles the narrow intent (install when
        // untracked, remove when live *or* parked), interleaved with
        // the FIB batches — including through the final third, where
        // every 2nd turn the "net" source offers one churn event and
        // drains again (its own round — drain is round-robin across
        // sources, so sharing a round would interleave the churn
        // between batches and break the linear replay below). Installs
        // landing while a fence is active park and re-plan at the next
        // epoch rather than being rejected, so `rejected_intents` stays
        // 0 here. Every 4th turn queries status + report. Only state
        // the service actually committed (reconciled against the intent
        // store around each drain, counting parked installs as
        // committed — the replay's install parks them again under the
        // same id) enters the reference.
        let mut applied: Vec<Applied> = Vec::new();
        let (mut batches, mut churn_admitted, mut intent_ops, mut queries) = (0, 0, 0, 0);
        let mut churn_iter = churn.iter().cycle();
        let groups = trace.chunks(12).count();
        let churn_start = groups * 2 / 3;
        // Tracked = live + parked: a parked install is committed state
        // (it lands at the next fence), so the toggle must see it or it
        // would double-install.
        let tracked_non_base = |svc: &Service| -> Vec<u64> {
            let mut ids: Vec<u64> = svc
                .intents()
                .live()
                .map(|i| i.id.0)
                .chain(svc.intents().parked().map(|p| p.id.0))
                .filter(|id| *id != 0)
                .collect();
            ids.sort_unstable();
            ids
        };
        for (g, group) in trace.chunks(12).enumerate() {
            let source = if g % 2 == 0 { "cp" } else { "ops" };
            for chunk in group.chunks(4) {
                batches += 1;
                if svc
                    .offer(source, ServiceRequest::Batch(chunk.to_vec()))
                    .is_ok()
                {
                    applied.push(Applied::Batch(chunk.to_vec()));
                }
            }
            svc.drain();
            if g >= churn_start && g % 2 == 1 {
                if let Some(ev) = churn_iter.next() {
                    if svc.offer("net", ServiceRequest::Churn(*ev)).is_ok() {
                        // Planner-rejected events are still counted by
                        // the service and mirrored in the replay below.
                        applied.push(Applied::Churn(*ev));
                        churn_admitted += 1;
                    }
                }
                svc.drain();
            }
            if g % 3 == 2 {
                let before = tracked_non_base(&svc);
                let req = match before.last() {
                    Some(id) => ServiceRequest::IntentRemove(IntentId(*id)),
                    None => ServiceRequest::IntentAdd {
                        name: "narrow".into(),
                        invariant: narrow.clone(),
                    },
                };
                let next_id = svc.intents().next_intent_id();
                if svc.offer("intent", req).is_ok() {
                    svc.drain();
                    let now = tracked_non_base(&svc);
                    if now.contains(&next_id) && !before.contains(&next_id) {
                        applied.push(Applied::IntentAdd(IntentId(next_id), narrow.clone()));
                        intent_ops += 1;
                    } else if let Some(id) = before.iter().find(|id| !now.contains(id)) {
                        applied.push(Applied::IntentRemove(IntentId(*id)));
                        intent_ops += 1;
                    }
                }
            }
            if g % 4 == 3 {
                let _ = svc.status();
                let _ = svc.report();
                queries += 2;
            }
        }
        svc.drain();
        let final_report = svc.report().canonical_bytes();
        let status = svc.status();

        // Reference: the same admitted requests, applied directly.
        let reference = direct_replay(net, &planned, EngineConfig::default(), &applied);

        let row = format!("{policy:?} at {loss} loss");
        assert_eq!(
            (batches, churn_admitted, intent_ops, queries),
            (50, 3, 5, 8),
            "{row}: offered batches / admitted churn / intent toggles / queries"
        );
        assert_eq!(
            (status.admitted, status.shed, status.processed),
            admitted_shed_processed,
            "{row}: admitted / shed / processed"
        );
        assert_eq!(
            (status.rejected_intents, status.parked, status.degraded),
            (0, 0, 0),
            "{row}: rejected intents / parked / degraded"
        );
        assert!(
            reference == final_report,
            "{row}: service diverged from a replay of what it admitted"
        );
    }
}

/// The JSON object `intent add` takes: a name and the spec text.
fn intent_json(name: &str, spec: &str) -> String {
    format!(
        "{{\"name\":{},\"spec\":{}}}",
        tulkun::json::to_string(name),
        tulkun::json::to_string(spec)
    )
}

#[test]
fn intent_protocol_round_trips() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let spec = narrow_intent_spec(&session.topology().clone());
    let payload = intent_json("narrow", &spec);

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
    // ingresses (their slices start on different devices), then the two
    // oldest removed.
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
        let payload = intent_json(&format!("far-{i}"), &spec);
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

/// Per-intent gauge series leave with their intent: a daemon that
/// keeps installing and removing intents exports series for the live
/// ids only, with or without a `status` first, so `metrics` does not
/// grow with the ids it has seen.
#[test]
fn removed_intents_leave_no_labeled_series() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let spec = narrow_intent_spec(&session.topology().clone());
    let labeled = |session: &mut DaemonSession| -> Vec<String> {
        let metrics = reply(session, "metrics");
        let series = metrics.lines().filter(|l| l.contains("{intent=\""));
        series
            .map(|l| l.split(' ').next().unwrap().to_string())
            .collect()
    };
    let families = [
        "tulkun_degraded_intents",
        "tulkun_intent_fresh",
        "tulkun_parked_intents",
    ];
    let series_of = |ids: &[u64]| -> Vec<String> {
        let mut v: Vec<String> = families
            .iter()
            .flat_map(|f| ids.iter().map(move |id| format!("{f}{{intent=\"{id}\"}}")))
            .collect();
        v.sort();
        v
    };
    // The first pass sends `status` before each `metrics`; the second
    // does not, as a scraper that only sends `metrics` would.
    for (ids, status) in [(1..=4u64, Some("status")), (5..=8, None)] {
        for id in ids {
            let add = format!("intent add ops {}", intent_json(&format!("n{id}"), &spec));
            for line in [Some(add.as_str()), Some("drain"), status]
                .into_iter()
                .flatten()
            {
                assert!(reply(&mut session, line).starts_with("ok "), "{line}");
            }
            assert_eq!(
                labeled(&mut session),
                series_of(&[0, id]),
                "after adding {id}, then {status:?}"
            );
            let remove = format!("intent remove ops {id}");
            for line in [Some(remove.as_str()), Some("drain"), status]
                .into_iter()
                .flatten()
            {
                assert!(reply(&mut session, line).starts_with("ok "), "{line}");
            }
            assert_eq!(
                labeled(&mut session),
                series_of(&[0]),
                "after removing {id}, then {status:?}"
            );
        }
    }
}

/// `explain` names only intents an install allocated: an id past the
/// last one allocated is an `err`, not a healthy-looking `fresh`.
#[test]
fn explaining_an_unallocated_intent_is_an_error() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    for id in ["1", "18446744073709551615"] {
        let got = reply(&mut session, &format!("explain * intent:{id}"));
        assert_eq!(got, format!("err unknown intent {id}"));
    }
    let base = reply(&mut session, "explain * intent:0");
    assert!(base.contains("\"verdict\":\"fresh\""), "{base}");
}

/// A link event must name a link of the base topology. SEAT and NEWY
/// share no link on INet2 and SEAT–SEAT is a self-loop: each event
/// resolves its names and is admitted, then the drain refuses it as
/// `churn_rejected`, counted in `rejected_churn`, with no epoch burnt
/// and no `topology_churn` journaled.
#[test]
fn a_link_event_naming_no_link_is_rejected_at_drain() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let bogus = [
        "churn s link-down SEAT NEWY",
        "churn s link-down SEAT SEAT",
        "churn s link-up SEAT NEWY",
    ];
    for line in bogus {
        assert_eq!(reply(&mut session, line), "ok queued=1", "{line}");
        assert!(reply(&mut session, "drain").starts_with("ok "));
    }
    let status = reply(&mut session, "status");
    assert!(status.contains("\"epoch\":0"), "{status}");
    assert!(status.contains("\"rejected_churn\":3"), "{status}");
    let events = reply(&mut session, "events s");
    assert_eq!(
        events.matches("\"kind\":\"churn_rejected\"").count(),
        3,
        "{events}"
    );
    assert!(
        events.contains("names no link of the base topology"),
        "{events}"
    );
    assert!(!events.contains("topology_churn"), "{events}");
}

/// An intent that was installed and then removed is explained as
/// `removed`, with the install and removal in its causal chain.
#[test]
fn explaining_a_removed_intent_says_removed() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let spec = narrow_intent_spec(&session.topology().clone());
    let add = format!("intent add ops {}", intent_json("narrow", &spec));
    for line in [add.as_str(), "drain", "intent remove ops 1", "drain"] {
        assert!(reply(&mut session, line).starts_with("ok "), "{line}");
    }
    let got = reply(&mut session, "explain * intent:1");
    assert!(got.contains("\"verdict\":\"removed\""), "{got}");
    assert!(got.contains("intent_removed"), "{got}");
}

/// An intent with no valid path — `exist >= 1` over two devices that
/// are not adjacent — never lands as an empty slice that holds. `intent
/// add` only admits (its reply is `ok queued=…` by protocol); the drain
/// refuses it with the re-planner's reason, journaled as
/// `intent_rejected`, and only the base intent stays live.
#[test]
fn an_intent_with_no_valid_path_is_rejected_at_drain() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let topo = session.topology().clone();
    let (dst, _) = topo.external_map().next().expect("external dst");
    let prefix = topo.external_prefixes(dst)[0];
    let adjacent = |d| topo.neighbors(dst).iter().any(|(n, _)| *n == d);
    let far = topo.devices().find(|d| *d != dst && !adjacent(*d));
    let far = topo.name(far.expect("a device not adjacent to the destination"));
    let spec = format!(
        "(dstIP={prefix}, [{far}], (exist >= 1, /{far} {}/))",
        topo.name(dst)
    );
    let payload = intent_json("no-path", &spec);
    let queued = reply(&mut session, &format!("intent add ops {payload}"));
    assert_eq!(queued, "ok queued=1");
    assert!(reply(&mut session, "drain").starts_with("ok "));
    let status = reply(&mut session, "status");
    assert!(status.contains("\"intent_count\":1"), "{status}");
    assert!(status.contains("\"rejected_intents\":1"), "{status}");
    let events = reply(&mut session, "events *");
    let rejected = events.lines().find(|l| l.contains("intent_rejected"));
    let rejected = rejected.unwrap_or_else(|| panic!("no rejection journaled: {events}"));
    assert!(rejected.contains("slice has no DPVNet nodes"), "{rejected}");
}

#[test]
fn daemon_binary_speaks_the_protocol_over_stdin() {
    // A real batch for the wire: one insert on the INet2 dataset.
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let update = tulkun::datasets::rule_updates(&ds.network, 1, 5).remove(0);
    let batch_json = tulkun::json::to_string(&vec![update]);

    let narrow_json = intent_json("narrow", &narrow_intent_spec(&ds.network.topology));
    let script = format!(
        "# smoke script\n\
         status\n\
         batch ops {batch_json}\n\
         churn net link-down SEAT LOSA\n\
         drain\n\
         report\n\
         slo\n\
         intent add ops {narrow_json}\n\
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

/// A batch carrying a rule the running interval backend cannot encode
/// moves the service to BDDs before it applies: the batch is ordinary
/// work (`ok`, nothing rejected), `status` names the new backend, the
/// journal holds a `backend_swap` naming the batch as its cause, and
/// the Report is byte-equal to a BDD reference `Session` fed the same
/// batches. Destination-only batches run first, on the intervals: the
/// re-hosted verifiers count against the FIBs those batches left, the
/// only copy of the data plane the service holds.
#[test]
fn a_rich_batch_moves_the_service_to_bdd() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let status = reply(&mut session, "status");
    assert!(status.contains("\"backend\":\"intervals\""), "{status}");

    let mut batches: Vec<Vec<RuleUpdate>> = [3, 4]
        .map(|seed| tulkun::datasets::rule_updates(&ds.network, 40, seed))
        .into();
    for batch in &batches {
        let line = format!("batch cp {}", tulkun::json::to_string(batch));
        assert!(reply(&mut session, &line).starts_with("ok "));
        assert_eq!(reply(&mut session, "drain"), "ok processed=1");
    }
    let status = reply(&mut session, "status");
    assert!(status.contains("\"backend\":\"intervals\""), "{status}");

    let acls = acl_batch(&ds.network);
    assert!(reply(&mut session, &acls).starts_with("ok "));
    assert_eq!(reply(&mut session, "drain"), "ok processed=1");
    let status = reply(&mut session, "status");
    assert!(status.contains("\"backend\":\"bdd\""), "{status}");
    let events = reply(&mut session, "events acl");
    let swap = events
        .lines()
        .find(|l| l.contains("\"kind\":\"backend_swap\""));
    let swap = swap.unwrap_or_else(|| panic!("no backend_swap journaled: {events}"));
    assert!(swap.contains("for batch of "), "{swap}");
    assert!(swap.contains("\"source\":\"acl\""), "{swap}");

    let json = acls.strip_prefix("batch acl ").unwrap();
    batches.push(tulkun::json::from_str(json).unwrap());
    let (inv, cp) = dataset_session(&ds.network, "INet2").unwrap();
    let bdd_report = |batches: &[Vec<RuleUpdate>]| {
        let mut reference = Session::from_counting(&ds.network, cp.clone(), &inv.packet_space);
        reference.run_to_quiescence();
        for batch in batches {
            reference
                .apply_event(&RuntimeEvent::Batch(batch.clone()))
                .expect("reference applies the batch");
        }
        String::from_utf8(reference.report().canonical_bytes()).unwrap()
    };
    let want = bdd_report(&batches);
    assert_ne!(
        want,
        bdd_report(&batches[2..]),
        "the destination-only batches must show in the Report"
    );
    assert_eq!(reply(&mut session, "report"), format!("ok {want}"));
}

/// A narrow intent whose packet space also constrains the destination
/// port: more than the interval encodings can hold.
fn port_intent_spec(topo: &tulkun::netmodel::topology::Topology) -> String {
    narrow_intent_spec(topo).replacen(", [", " && dstPort=80, [", 1)
}

/// The `intent add` line installing [`port_intent_spec`] as `web`.
fn port_intent_line(topo: &tulkun::netmodel::topology::Topology) -> String {
    format!(
        "intent add ops {}",
        intent_json("web", &port_intent_spec(topo))
    )
}

/// An intent whose packet space the running interval encoding cannot
/// hold moves the service to BDDs before it installs — an `ok` drain
/// and a `backend_swap` naming the install, not a verifier panic — and
/// the Report is byte-equal to a BDD reference `Session` that
/// installed the same intent.
#[test]
fn a_port_intent_moves_the_service_to_bdd() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let topo = session.topology().clone();
    let status = reply(&mut session, "status");
    assert!(status.contains("\"backend\":\"intervals\""), "{status}");
    let line = port_intent_line(&topo);
    assert_eq!(reply(&mut session, &line), "ok queued=1");
    assert_eq!(reply(&mut session, "drain"), "ok processed=1");
    let status = reply(&mut session, "status");
    assert!(status.contains("\"backend\":\"bdd\""), "{status}");
    assert!(status.contains("\"intent_count\":2"), "{status}");
    assert!(status.contains("\"rejected_intents\":0"), "{status}");
    let events = reply(&mut session, "events ops");
    let swap = events
        .lines()
        .find(|l| l.contains("\"kind\":\"backend_swap\"") && l.contains("backend to bdd"));
    let swap = swap.unwrap_or_else(|| panic!("no backend_swap journaled: {events}"));
    assert!(swap.contains("install of intent \\\"web\\\""), "{swap}");

    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let (inv, cp) = dataset_session(&ds.network, "INet2").unwrap();
    let mut reference = Session::from_counting(&ds.network, cp, &inv.packet_space);
    reference.run_to_quiescence();
    reference
        .apply_event(&RuntimeEvent::InstallIntent {
            name: "web".into(),
            invariant: Invariant::parse(&port_intent_spec(&topo)).unwrap(),
        })
        .expect("reference installs the intent");
    let want = String::from_utf8(reference.report().canonical_bytes()).unwrap();
    assert_eq!(reply(&mut session, "report"), format!("ok {want}"));
}

/// The `"epoch"` field of a `status` reply.
fn status_epoch(status: &str) -> i64 {
    let json = tulkun::json::parse(status.strip_prefix("ok ").expect("ok status")).unwrap();
    match json.get("epoch") {
        Some(tulkun::json::Json::Int(epoch)) => *epoch,
        other => panic!("status has no integer epoch: {other:?}"),
    }
}

/// A move to BDDs re-hosts the verifiers and nothing else: after an
/// install, a removal, a second install and a device-down, an ACL
/// batch moves the service to `bdd` with the epoch where it was, a
/// journal that only gains the batch's own entries (one of them the
/// `backend_swap`), and a Report byte-equal to a BDD reference
/// `Session` fed the same events.
#[test]
fn a_backend_move_keeps_the_epoch_and_the_journal() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let topo = session.topology().clone();
    let spec = narrow_intent_spec(&topo);
    let losa = topo.device("LOSA").expect("LOSA");
    for line in [
        format!("intent add ops {}", intent_json("x", &spec)),
        "intent remove ops 1".into(),
        format!("intent add ops {}", intent_json("a", &spec)),
        "churn ops device-down LOSA".into(),
    ] {
        assert!(reply(&mut session, &line).starts_with("ok "), "{line}");
        assert!(reply(&mut session, "drain").starts_with("ok processed=1"));
    }
    let status = reply(&mut session, "status");
    assert!(status.contains("\"backend\":\"intervals\""), "{status}");
    assert!(status.contains("\"degraded\":1"), "{status}");
    let epoch = status_epoch(&status);
    assert_eq!(epoch, 4, "{status}");
    let before = reply(&mut session, "events *");

    let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
    let acls = acl_batch(&ds.network);
    assert!(reply(&mut session, &acls).starts_with("ok "));
    assert_eq!(reply(&mut session, "drain"), "ok processed=1");
    let status = reply(&mut session, "status");
    assert!(status.contains("\"backend\":\"bdd\""), "{status}");
    assert_eq!(status_epoch(&status), epoch, "the move bumps no epoch");
    // Intent 2's ingress is down: it stays degraded across the move.
    assert!(status.contains("\"degraded\":1"), "{status}");

    let after = reply(&mut session, "events *");
    let (before, after): (Vec<&str>, Vec<&str>) = (
        before.lines().skip(1).collect(),
        after.lines().skip(1).collect(),
    );
    assert_eq!(after[..before.len()], before[..], "the history is kept");
    let added = &after[before.len()..];
    assert!(
        added.iter().all(|e| e.contains("\"source\":\"acl\"")),
        "{added:?}"
    );
    let swaps = added
        .iter()
        .filter(|e| e.contains("\"kind\":\"backend_swap\""));
    assert_eq!(swaps.count(), 1, "{added:?}");

    let (inv, cp) = dataset_session(&ds.network, "INet2").unwrap();
    let mut reference = Session::from_counting(&ds.network, cp, &inv.packet_space);
    reference.run_to_quiescence();
    let narrow = Invariant::parse(&spec).unwrap();
    let install = |name: &str| RuntimeEvent::InstallIntent {
        name: name.into(),
        invariant: narrow.clone(),
    };
    let batch: Vec<RuleUpdate> =
        tulkun::json::from_str(acls.strip_prefix("batch acl ").unwrap()).unwrap();
    for (ev, id) in [
        (install("x"), Some(IntentId(1))),
        (RuntimeEvent::RemoveIntent(IntentId(1)), Some(IntentId(1))),
        (install("a"), Some(IntentId(2))),
        (
            RuntimeEvent::Topology {
                event: TopologyEvent::DeviceDown(losa),
                base: topo.clone(),
                invariant: inv.clone(),
            },
            None,
        ),
        (RuntimeEvent::Batch(batch), None),
    ] {
        let outcome = reference.apply_event(&ev).expect("reference applies");
        assert_eq!(outcome.intent, id);
    }
    let want = String::from_utf8(reference.report().canonical_bytes()).unwrap();
    assert_eq!(reply(&mut session, "report"), format!("ok {want}"));
}

/// A `batch` line naming a device id outside the topology (9999 on
/// tiny INet2).
fn outside_batch_line() -> String {
    let update = RuleUpdate::Insert {
        device: DeviceId(9999),
        rule: Rule {
            priority: 100,
            matches: MatchSpec::dst("10.0.0.0/24".parse().unwrap()),
            action: Action::Drop,
        },
    };
    format!("batch cp {}", tulkun::json::to_string(&vec![update]))
}

/// A batch naming a device outside the topology is refused at
/// admission (`err`, nothing queued, `status` and `report` unchanged)
/// instead of panicking the daemon at `drain`.
#[test]
fn a_batch_outside_the_topology_is_refused() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let status = reply(&mut session, "status");
    let report = reply(&mut session, "report");
    let refused = reply(&mut session, &outside_batch_line());
    assert!(
        refused.starts_with("err rejected: ") && refused.contains("9999"),
        "{refused}"
    );
    assert_eq!(reply(&mut session, "status"), status);
    assert_eq!(reply(&mut session, "report"), report);
    assert_eq!(reply(&mut session, "drain"), "ok processed=0");
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
    // The memo gauge is a BDD figure (0 on the interval encodings the
    // daemon starts on here), so a port-matching ACL batch first moves
    // the soak to BDDs.
    let ds = tulkun::datasets::by_name("AT1-2", tulkun::datasets::Scale::Tiny).unwrap();
    assert!(reply(&mut session, &acl_batch(&ds.network)).starts_with("ok "));
    assert_eq!(reply(&mut session, "drain"), "ok processed=1");
    let status = reply(&mut session, "status");
    assert!(status.contains("\"backend\":\"bdd\""), "{status}");
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

/// One well-formed line per verb and argument shape of the protocol.
fn well_formed_lines(net: &tulkun::netmodel::network::Network) -> Vec<String> {
    let updates = tulkun::datasets::rule_updates(net, 2, 5);
    let intent = intent_json("narrow", &narrow_intent_spec(&net.topology));
    let mut lines = vec![
        format!("batch cp {}", tulkun::json::to_string(&updates)),
        outside_batch_line(),
        format!("intent add ops {intent}"),
    ];
    lines.extend(
        [
            "churn net link-down SEAT LOSA",
            "churn net link-up SEAT LOSA",
            "churn net device-down SEAT",
            "churn net device-up SEAT",
            "intent remove ops 1",
            "drain",
            "drain 3",
            "report",
            "status",
            "slo",
            "metrics",
            "events * 5",
            "events cp",
            "explain * SEAT",
            "explain cp intent:0",
            "config policy shed",
            "config drain-every 2",
            "config slo 1 2 3 4",
            "quit",
        ]
        .map(String::from),
    );
    lines
}

/// Damages one well-formed (ASCII) line: a token deleted, duplicated
/// or replaced by garbage (printable noise, or a number of up to 23
/// digits), or the line cut short — inside its JSON payload when it
/// has one.
fn damage(line: &str, kind: usize, pos: usize, garbage: &str) -> String {
    let mut tokens: Vec<&str> = line.split(' ').collect();
    let i = pos % tokens.len();
    match kind {
        0 => {
            tokens.remove(i);
        }
        1 => tokens.insert(i, tokens[i]),
        2 => tokens[i] = garbage,
        _ => {
            let json = line.find(['{', '[']).unwrap_or(0);
            return line[..json + pos % (line.len() - json)].to_string();
        }
    }
    tokens.join(" ")
}

/// Lines built to exhaust the stack or memory of whatever parses them
/// — each one used to abort the daemon — are refused with `err` and
/// change nothing: JSON nested 200 000 deep, an intent spec whose path
/// expression, behavior or `not` chain nests as deep or whose path is
/// 200 000 tokens long, and nested `+` groups (a tree that doubles
/// per level).
#[test]
fn stack_and_memory_bombs_are_refused() {
    let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
    let n = 200_000;
    let intent = |spec: String| format!("intent add ops {}", intent_json("x", &spec));
    let around = |path: String| format!("(dstIP=10.0.0.0/23, [SEAT], (exist >= 1, /{path}/))");
    let bombs = [
        format!("batch cp {}", "[".repeat(n)),
        format!("intent add ops {}", "{\"name\":".repeat(n)),
        intent(around(format!("{}SEAT{}", "(".repeat(n), ")".repeat(n)))),
        intent(around(format!("SEAT{} LOSA", " .*".repeat(n)))),
        intent(around(format!(
            "{}SEAT{} .* LOSA",
            "(".repeat(40),
            "+)".repeat(40)
        ))),
        intent(format!(
            "(dstIP=10.0.0.0/23, [SEAT], {}exist >= 1, /SEAT .* LOSA/{})",
            "(".repeat(n),
            ")".repeat(n)
        )),
        intent(format!(
            "(dstIP=10.0.0.0/23, [SEAT], {}(exist >= 1, /SEAT .* LOSA/))",
            "not ".repeat(n)
        )),
    ];
    let status = reply(&mut session, "status");
    for bomb in &bombs {
        let answer = reply(&mut session, bomb);
        let shown = &bomb[..bomb.len().min(60)];
        assert!(answer.starts_with("err "), "{shown}… -> {answer}");
        assert_eq!(reply(&mut session, "status"), status, "after {shown}…");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever an operator or a broken client types, the daemon
    /// answers instead of panicking, and a line it answers `err` has
    /// changed nothing `status` can see. Each step is either arbitrary
    /// printable ASCII (one time in five) or a well-formed line of some
    /// verb, damaged. (Admission control's own refusal, `err shed`,
    /// is counted by design; these sessions are far too short to fill
    /// a queue.)
    #[test]
    fn hostile_lines_get_an_answer_and_a_refusal_changes_nothing(
        steps in proptest::collection::vec(
            (
                0usize..5,
                (any::<u16>(), 0usize..4, any::<u16>()),
                prop_oneof![
                    proptest::collection::vec(0x21u8..0x7f, 0..12),
                    proptest::collection::vec(b'0'..=b'9', 1..24),
                ],
                proptest::collection::vec(0x20u8..0x7f, 0..=512),
            ),
            1..24,
        )
    ) {
        let mut session = DaemonSession::new(DaemonConfig::default()).expect("daemon session");
        let ds = tulkun::datasets::by_name("INet2", tulkun::datasets::Scale::Tiny).unwrap();
        let well_formed = well_formed_lines(&ds.network);
        for (class, (template, kind, pos), garbage, noise) in steps {
            let line = if class == 0 {
                String::from_utf8(noise).expect("ascii")
            } else {
                damage(
                    &well_formed[template as usize % well_formed.len()],
                    kind,
                    pos as usize,
                    std::str::from_utf8(&garbage).expect("ascii"),
                )
            };
            let before = reply(&mut session, "status");
            let Some(answer) = session.handle_line(&line) else {
                continue;
            };
            if answer.text.starts_with("err ") {
                prop_assert_eq!(reply(&mut session, "status"), before, "after {:?}", line);
            } else {
                prop_assert!(answer.text.starts_with("ok "), "{:?} -> {}", line, answer.text);
            }
        }
    }
}
