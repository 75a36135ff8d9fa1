//! The `tulkun` command-line tool: plan and verify invariants against a
//! network snapshot, export DPVNets, and generate datasets.
//!
//! ```text
//! tulkun datasets --name INet2 --out net.json        # generate a snapshot
//! tulkun verify --network net.json --invariants invs.tk
//! tulkun plan   --network net.json --invariant "(…)" [--dot dpvnet.dot]
//! tulkun example --out fig2a.json                    # the paper's Fig. 2a
//! ```
//!
//! Invariant files (`.tk`) hold one textual invariant per line, `#`
//! comments allowed:
//!
//! ```text
//! # every packet to 10.0.0.0/23 entering at S waypoints W
//! (dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::fault::FaultProfile;
use tulkun::core::planner::{Plan, PlanKind, Planner, PlannerOptions};
use tulkun::core::spec::Invariant;
use tulkun::core::verify::{verify_snapshot, ViolationKind};
use tulkun::json::{Json, ToJson};
use tulkun::netmodel::network::Network;
use tulkun::sim::{Engine, EngineConfig, RuntimeStats, Telemetry, TelemetryConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    match cmd.as_str() {
        "datasets" => {
            let (name, scale) = dataset_flags(&get);
            match load_dataset(&name, scale) {
                Ok(ds) => write_network(&ds.network, get("--out")),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "example" => write_network(&tulkun::datasets::fig2a_network(), get("--out")),
        "verify" => {
            let net = match load_network(get("--network")) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let invariants = match load_invariants(get("--invariants"), get("--invariant")) {
                Ok(i) => i,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let planner = Planner::with_options(
                &net.topology,
                PlannerOptions {
                    skip_consistency_check: args.iter().any(|a| a == "--no-consistency-check"),
                },
            );
            let mut failed = false;
            for inv in &invariants {
                let plan = match planner.plan(inv) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("{}: planning failed: {e}", inv.name);
                        failed = true;
                        continue;
                    }
                };
                let report = verify_snapshot(&net, &plan);
                if report.holds() {
                    println!("PASS  {}", inv.name);
                } else {
                    failed = true;
                    println!(
                        "FAIL  {} ({} violation class(es))",
                        inv.name,
                        report.violations.len()
                    );
                    for v in report.violations.iter().take(5) {
                        describe_violation(&net, &plan, v);
                    }
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "plan" => {
            let net = match load_network(get("--network")) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let Some(text) = get("--invariant") else {
                eprintln!("--invariant \"(...)\" required");
                return ExitCode::FAILURE;
            };
            let inv = match Invariant::parse(&text) {
                Ok(i) => i,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let planner = Planner::with_options(
                &net.topology,
                PlannerOptions {
                    skip_consistency_check: true,
                },
            );
            let plan = match planner.plan(&inv) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("planning failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            summarize_plan(&net, &plan);
            if let Some(path) = get("--dot") {
                let dpvnet = match &plan.kind {
                    PlanKind::Counting(c) => &c.dpvnet,
                    PlanKind::Local(l) => &l.dpvnet,
                };
                if let Err(e) = std::fs::write(&path, dpvnet.to_dot(&net.topology)) {
                    eprintln!("could not write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path}");
            }
            ExitCode::SUCCESS
        }
        "churn" => match churn_run(&args, &get) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "daemon" => match daemon_run(&args, &get) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "status" => match status_run(&get) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "explain" => match explain_run(&args, &get) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "trace" => match observed_run(&args, &get) {
            Ok(run) => emit_observed(run.telemetry.chrome_trace_json(), &run, &args, &get),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "metrics" => match observed_run(&args, &get) {
            Ok(run) => emit_observed(run.telemetry.prometheus_text(), &run, &args, &get),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tulkun datasets --name <NAME> [--scale tiny|paper] [--out net.json]\n  \
         tulkun example [--out net.json]\n  \
         tulkun verify --network net.json (--invariants file.tk | --invariant \"(...)\") \
         [--no-consistency-check]\n  \
         tulkun plan --network net.json --invariant \"(...)\" [--dot out.dot]\n  \
         tulkun trace [--name <NAME>] [--scale tiny|paper] [--updates N] [--seed S] \
         [--backend bdd|deltanet|intervals] [--faults SEED] [--off] [--out trace.json] \
         [--journal-out journal.json] [--stats]\n  \
         tulkun metrics [--name <NAME>] [--scale tiny|paper] [--updates N] [--seed S] \
         [--backend bdd|deltanet|intervals] [--faults SEED] [--off] [--out metrics.prom] \
         [--journal-out journal.json] [--stats]\n  \
         tulkun churn [--name <NAME>] [--scale tiny|paper] [--seed S] [--events N] \
         [--backend bdd|deltanet|intervals] [--faults SEED] [--threaded]\n  \
         tulkun daemon [--name <NAME>] [--scale tiny|paper] \
         [--faults SEED] [--policy shed|block] \
         [--queue-cap N] [--per-source-cap N] [--drain-every N] [--slo-p50 NS] [--slo-p90 NS] \
         [--slo-p99 NS] [--slo-lag-p99 NS] [--uds PATH] [--journal-dump PATH]\n  \
         tulkun status --uds PATH\n  \
         tulkun explain [--name <NAME>] [--scale tiny|paper] [--seed S] \
         [--backend bdd|deltanet|intervals] [--subject <device|intent:<id>>] [--json]"
    );
    ExitCode::FAILURE
}

/// A finished, telemetry-observed DVM run (see [`observed_run`]).
struct ObservedRun {
    telemetry: Arc<Telemetry>,
    stats: RuntimeStats,
    holds: bool,
}

/// Runs one destination's counting session on a generated dataset with
/// telemetry attached: burst, then a deterministic churn trace applied
/// as coalesced batches (over a seeded lossy channel with `--faults`).
/// This is the workload behind `tulkun trace` and `tulkun metrics`.
fn observed_run(
    args: &[String],
    get: &dyn Fn(&str) -> Option<String>,
) -> Result<ObservedRun, String> {
    let (name, scale) = dataset_flags(get);
    let ds = load_dataset(&name, scale)?;
    let net = &ds.network;
    let (inv, cp) = dataset_session(net, &name)?;

    let telemetry = if args.iter().any(|a| a == "--off") {
        Telemetry::disabled()
    } else {
        Telemetry::new(TelemetryConfig::enabled())
    };
    let updates: usize = get("--updates").and_then(|v| v.parse().ok()).unwrap_or(16);
    let cfg = EngineConfig {
        telemetry: telemetry.clone(),
        backend: checked_backend(get, net)?,
        ..EngineConfig::default()
    };
    let seed: u64 = get("--seed").and_then(|v| v.parse().ok()).unwrap_or(7);
    let trace = tulkun::datasets::rule_updates(net, updates, seed);
    let burst = (updates / 2).max(1);

    let ps = &inv.packet_space;
    let mut sim = match get("--faults").and_then(|v| v.parse::<u64>().ok()) {
        Some(fault_seed) => Engine::lossy(net, &cp, ps, cfg, FaultProfile::loss(fault_seed, 0.10)),
        None => Engine::new(net, &cp, ps, cfg),
    };
    sim.run_to_quiescence();
    for chunk in trace.chunks(burst) {
        sim.apply_event(&RuntimeEvent::Batch(chunk.to_vec()))
            .map_err(|e| format!("batch refused: {e}"))?;
    }
    let holds = sim.report().holds();
    let stats = sim.stats().clone();
    Ok(ObservedRun {
        telemetry,
        stats,
        holds,
    })
}

/// Parses `--backend` into a [`tulkun::sim::BackendKind`] (defaulting
/// to the BDD backend, the paper's encoding, when the flag is absent),
/// refusing a backend that cannot run `net`'s workload.
fn checked_backend(
    get: &dyn Fn(&str) -> Option<String>,
    net: &tulkun::netmodel::network::Network,
) -> Result<tulkun::sim::BackendKind, String> {
    let kind: tulkun::sim::BackendKind = match get("--backend") {
        Some(s) => s.parse().map_err(|e| format!("{e}"))?,
        None => tulkun::sim::BackendKind::default(),
    };
    kind.check(tulkun::sim::network_ip_only(net))
        .map_err(|e| e.to_string())
}

// The dataset lookup and workload construction live in the library
// (the daemon shares them); see [`tulkun::daemon::dataset_session`].
use tulkun::daemon::{dataset_session, load_dataset};

/// The dataset flags every dataset-driven command shares: `--name`
/// (default INet2) and `--scale` (`paper`, otherwise tiny).
fn dataset_flags(get: &dyn Fn(&str) -> Option<String>) -> (String, tulkun::datasets::Scale) {
    let name = get("--name").unwrap_or_else(|| "INet2".into());
    let scale = match get("--scale").as_deref() {
        Some("paper") => tulkun::datasets::Scale::Paper,
        _ => tulkun::datasets::Scale::Tiny,
    };
    (name, scale)
}

/// `tulkun daemon`: the always-on verification service behind the
/// line-oriented request protocol (see `tulkun::daemon` module docs),
/// served over stdin/stdout or, with `--uds PATH`, a unix domain
/// socket accepting sequential client connections.
fn daemon_run(_args: &[String], get: &dyn Fn(&str) -> Option<String>) -> Result<ExitCode, String> {
    use tulkun::daemon::{serve, DaemonConfig, DaemonSession};
    use tulkun::sim::{AdmissionPolicy, ServiceConfig};
    use tulkun::telemetry::SloPolicy;

    let (name, scale) = dataset_flags(get);
    let mut slo = SloPolicy::default();
    if let Some(v) = get("--slo-p50").and_then(|v| v.parse().ok()) {
        slo.p50_ns = v;
    }
    if let Some(v) = get("--slo-p90").and_then(|v| v.parse().ok()) {
        slo.p90_ns = v;
    }
    if let Some(v) = get("--slo-p99").and_then(|v| v.parse().ok()) {
        slo.p99_ns = v;
    }
    if let Some(v) = get("--slo-lag-p99").and_then(|v| v.parse().ok()) {
        slo.lag_p99_ns = v;
    }
    let mut service = ServiceConfig {
        policy: match get("--policy").as_deref() {
            Some("shed") => AdmissionPolicy::Shed,
            Some("block") | None => AdmissionPolicy::Block,
            Some(other) => return Err(format!("unknown policy {other:?}")),
        },
        slo,
        faults: get("--faults")
            .and_then(|v| v.parse::<u64>().ok())
            .map(|seed| FaultProfile::loss(seed, 0.10)),
        ..ServiceConfig::default()
    };
    if let Some(v) = get("--queue-cap").and_then(|v| v.parse().ok()) {
        service.queue_cap = v;
    }
    if let Some(v) = get("--per-source-cap").and_then(|v| v.parse().ok()) {
        service.per_source_cap = v;
    }
    let cfg = DaemonConfig {
        name,
        scale,
        service,
        drain_every: get("--drain-every")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    };
    let mut session = DaemonSession::new(cfg)?;
    if let Some(path) = get("--journal-dump") {
        session.set_journal_dump(path);
    }

    match get("--uds") {
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .map_err(|e| format!("bind {path}: {e}"))?;
            eprintln!("tulkun daemon listening on {path}");
            loop {
                let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
                let reader =
                    std::io::BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                match serve(&mut session, reader, &stream) {
                    Ok(true) => break,     // peer sent quit: daemon shuts down
                    Ok(false) => continue, // peer disconnected: next client
                    Err(e) => {
                        eprintln!("client error: {e}");
                        continue;
                    }
                }
            }
            let _ = std::fs::remove_file(&path);
            Ok(ExitCode::SUCCESS)
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve(&mut session, stdin.lock(), stdout.lock())
                .map_err(|e| format!("session i/o: {e}"))?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// `tulkun status`: one-shot client for a `--uds` daemon. Prints the
/// daemon's status and SLO verdict; exit code reflects the SLO (0 =
/// within budget).
fn status_run(get: &dyn Fn(&str) -> Option<String>) -> Result<ExitCode, String> {
    use std::io::{BufRead, BufReader, Write};

    let path = get("--uds").ok_or("--uds <path> required (the daemon's socket)")?;
    let mut stream = std::os::unix::net::UnixStream::connect(&path)
        .map_err(|e| format!("connect {path}: {e}"))?;
    stream
        .write_all(b"status\nslo\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut read_line = || -> Result<String, String> {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        Ok(line.trim_end().to_string())
    };
    let status = read_line()?;
    let slo = read_line()?;
    println!("{status}");
    println!("{slo}");
    let ok = slo.starts_with("ok ") && slo.contains("\"ok\":true");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `tulkun explain`: runs a seeded fault scene — one link-down plus a
/// crash/restart of the affected device, over a 10% lossy management
/// network — against a generated dataset, then asks the runtime why the
/// affected device's slice looks the way it does (`Engine::explain`,
/// the path the daemon's `explain` takes, so both answer in one verdict
/// vocabulary). The walk is deterministic: the same seed produces
/// byte-identical `--json` output across reruns. `--subject` redirects
/// the question to another device (by name) or to `intent:<id>`; an id
/// no install allocated is an error.
fn explain_run(args: &[String], get: &dyn Fn(&str) -> Option<String>) -> Result<ExitCode, String> {
    use tulkun::core::churn::{ChurnSchedule, TopologyEvent};
    use tulkun::core::explain::Subject;

    let (name, scale) = dataset_flags(get);
    let ds = load_dataset(&name, scale)?;
    let net = &ds.network;
    let topo = &net.topology;
    let (inv, cp) = dataset_session(net, &name)?;
    let seed: u64 = get("--seed").and_then(|v| v.parse().ok()).unwrap_or(7);
    // The lockstep model makes the virtual timeline — and with it the
    // fault RNG draw order and the journal — a pure function of the
    // seed, so the explanation is byte-identical across reruns.
    let cfg = EngineConfig {
        telemetry: Telemetry::new(TelemetryConfig::enabled()),
        backend: checked_backend(get, net)?,
        model: tulkun::sim::SwitchModel::LOCKSTEP,
    };
    let mut sim = Engine::lossy(
        net,
        &cp,
        &inv.packet_space,
        cfg,
        FaultProfile::loss(seed, 0.10),
    );
    sim.run_to_quiescence();
    let schedule = ChurnSchedule::seeded(topo, &inv, seed, 8);
    let Some(ev) = schedule
        .0
        .iter()
        .find(|e| matches!(e, TopologyEvent::LinkDown(..)))
        .copied()
    else {
        return Err("no plannable link-down event for this dataset/invariant".into());
    };
    let churn = RuntimeEvent::Topology {
        event: ev,
        base: topo.clone(),
        invariant: inv.clone(),
    };
    sim.apply_event(&churn)
        .map_err(|e| format!("churn re-plan failed: {e}"))?;
    let hit = ev.primary_device();
    sim.apply_event(&RuntimeEvent::CrashRestart(hit))
        .map_err(|e| format!("crash restart refused: {e}"))?;
    eprintln!(
        "scene: {} + crash/restart of {} under 10% loss (seed {seed})",
        ev.describe(),
        topo.name(hit)
    );
    let subject = match get("--subject") {
        Some(s) => Subject::parse(&s, topo)?,
        None => Subject::Device(hit),
    };
    let explanation = sim.explain(None, subject)?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", explanation.to_json());
    } else {
        print!("{}", explanation.to_text());
    }
    Ok(ExitCode::SUCCESS)
}

/// `tulkun churn`: drives a seeded live-churn schedule against a
/// generated dataset, printing per-event epoch, re-plan reuse and
/// re-convergence cost, and the final report's freshness summary. With
/// `--threaded` the schedule runs on the concurrent substrate under
/// the convergence watchdog; with `--faults SEED` it runs over a 10%
/// lossy management network.
fn churn_run(args: &[String], get: &dyn Fn(&str) -> Option<String>) -> Result<ExitCode, String> {
    use tulkun::core::churn::{ChurnSchedule, TopologyEvent};
    use tulkun::core::verify::{Freshness, Report};

    let (name, scale) = dataset_flags(get);
    let ds = load_dataset(&name, scale)?;
    let net = &ds.network;
    let topo = &net.topology;
    let (inv, cp) = dataset_session(net, &name)?;
    let seed: u64 = get("--seed").and_then(|v| v.parse().ok()).unwrap_or(7);
    let events: usize = get("--events").and_then(|v| v.parse().ok()).unwrap_or(4);
    let backend = checked_backend(get, net)?;
    let schedule = ChurnSchedule::seeded(topo, &inv, seed, events);
    if schedule.is_empty() {
        return Err("no plannable churn events for this dataset/invariant".into());
    }
    let summarize = |report: &Report| {
        let mut fresh = 0usize;
        let mut stale = 0usize;
        let mut unreachable = 0usize;
        for (_, f) in &report.freshness {
            match f {
                Freshness::Fresh => fresh += 1,
                Freshness::Stale(_) => stale += 1,
                Freshness::Unreachable => unreachable += 1,
            }
        }
        println!(
            "final report: holds={} violations={} fresh={fresh} stale={stale} \
             unreachable={unreachable} quarantined=[{}]",
            report.holds(),
            report.violations.len(),
            report
                .quarantined
                .iter()
                .map(|d| topo.name(*d).to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
    };

    let churn = |ev: &TopologyEvent| RuntimeEvent::Topology {
        event: *ev,
        base: topo.clone(),
        invariant: inv.clone(),
    };

    if args.iter().any(|a| a == "--threaded") {
        let ecfg = tulkun::sim::EngineConfig {
            backend,
            ..Default::default()
        };
        let mut run = tulkun::sim::ThreadedEngine::spawn_with(net, &cp, &inv.packet_space, &ecfg);
        run.run_to_quiescence();
        let cfg = tulkun::sim::WatchdogConfig::default();
        for ev in &schedule.0 {
            // Staged, not driven: the watchdog is what tells a slow
            // re-convergence from a wedged device.
            run.stage_event(&churn(ev))
                .map_err(|e| format!("churn re-plan failed: {e}"))?;
            let verdict = run.wait_quiescent_watched(&cfg);
            println!(
                "epoch {:>3}  {:<28} watchdog={verdict:?}",
                run.epoch(),
                ev.describe_on(topo)
            );
        }
        summarize(&run.report());
        run.shutdown()
            .map_err(|p| format!("{} device task(s) panicked", p.len()))?;
    } else {
        let faults = get("--faults").and_then(|v| v.parse::<u64>().ok());
        let cfg = EngineConfig {
            backend,
            ..EngineConfig::default()
        };
        let ps = &inv.packet_space;
        let mut sim = match faults {
            Some(fs) => Engine::lossy(net, &cp, ps, cfg, FaultProfile::loss(fs, 0.10)),
            None => Engine::new(net, &cp, ps, cfg),
        };
        sim.run_to_quiescence();
        for ev in &schedule.0 {
            let r = sim
                .apply_event(&churn(ev))
                .map_err(|e| format!("churn re-plan failed: {e}"))?;
            let (total, reused) = (r.delta.total_nodes, r.delta.reused_nodes);
            println!(
                "epoch {:>3}  {:<28} reused {reused}/{total} nodes, messages={} \
                 completion_ns={}",
                sim.epoch(),
                ev.describe_on(topo),
                r.messages,
                r.completion_ns
            );
        }
        if faults.is_some() {
            let f = sim.stats().fault;
            println!(
                "fault channel: drops={} retransmits={} backpressure={}",
                f.drops, f.retransmits, f.backpressure
            );
        }
        summarize(&sim.report());
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes the exported artifact (`--out` or stdout); with `--stats`,
/// prints the final [`RuntimeStats`] as JSON on stderr.
fn emit_observed(
    artifact: String,
    run: &ObservedRun,
    args: &[String],
    get: &dyn Fn(&str) -> Option<String>,
) -> ExitCode {
    if args.iter().any(|a| a == "--stats") {
        eprintln!("{}", tulkun::json::to_string_pretty(&stats_json(run)));
    }
    if let Some(path) = get("--journal-out") {
        // Zero bytes when nothing was journaled (telemetry off, or the
        // journal ring disabled): CI asserts the disabled path writes
        // literally nothing, not an empty-but-valid dump document.
        let dump = if run.telemetry.journal_recorded() > 0 {
            run.telemetry.journal_json()
        } else {
            String::new()
        };
        if let Err(e) = std::fs::write(&path, dump) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    match get("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, artifact) {
                eprintln!("could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{artifact}"),
    }
    ExitCode::SUCCESS
}

/// The final [`RuntimeStats`] (including fault-injection counters and
/// crash recoveries) as a JSON value.
fn stats_json(run: &ObservedRun) -> Json {
    let s = &run.stats;
    let int = |v: u64| Json::Int(v as i64);
    // Per-message processing time: quantiles within 3.2 %, count and
    // max exact.
    let h = s.msg_ns();
    let q = |q| int(h.quantile(q).unwrap_or(0));
    let msg_ns = Json::Object(vec![
        ("count".into(), int(h.count())),
        ("p50".into(), q(0.5)),
        ("p90".into(), q(0.9)),
        ("p99".into(), q(0.99)),
        ("max".into(), int(h.max())),
    ]);
    let per_device = Json::Object(
        s.per_device
            .iter()
            .map(|(dev, d)| {
                (
                    format!("dev{}", dev.0),
                    Json::Object(vec![
                        ("init_ns".into(), int(d.init_ns)),
                        ("busy_ns".into(), int(d.busy_ns)),
                        ("messages".into(), int(d.messages)),
                        ("bytes_sent".into(), int(d.bytes_sent)),
                        ("bdd_nodes".into(), int(d.bdd_nodes as u64)),
                        ("msg_ns_max".into(), int(d.msg_ns.max())),
                    ]),
                )
            })
            .collect(),
    );
    Json::Object(vec![
        ("holds".into(), Json::Bool(run.holds)),
        ("messages".into(), int(s.messages())),
        ("bytes".into(), int(s.bytes())),
        ("msg_ns".into(), msg_ns),
        ("crashes_recovered".into(), int(s.crashes_recovered)),
        ("fault".into(), s.fault.to_json()),
        ("per_device".into(), per_device),
        ("spans_dropped".into(), int(run.telemetry.spans_dropped())),
    ])
}

fn write_network(net: &Network, out: Option<String>) -> ExitCode {
    let json = tulkun::json::to_string_pretty(net);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {path}: {} devices, {} links, {} rules",
                net.topology.num_devices(),
                net.topology.num_links(),
                net.total_rules()
            );
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}

fn load_network(path: Option<String>) -> Result<Network, String> {
    let path = path.ok_or("--network <file.json> required")?;
    let data = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    tulkun::json::from_str(&data).map_err(|e| format!("parse {path}: {e}"))
}

fn load_invariants(file: Option<String>, inline: Option<String>) -> Result<Vec<Invariant>, String> {
    let mut out = Vec::new();
    if let Some(text) = inline {
        out.push(Invariant::parse(&text).map_err(|e| e.to_string())?);
    }
    if let Some(path) = file {
        let data = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        for (lineno, line) in data.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut inv =
                Invariant::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
            if inv.name == "invariant" {
                inv.name = format!("{path}:{}", lineno + 1);
            }
            out.push(inv);
        }
    }
    if out.is_empty() {
        return Err("no invariants given (use --invariants or --invariant)".into());
    }
    Ok(out)
}

fn summarize_plan(net: &Network, plan: &Plan) {
    match &plan.kind {
        PlanKind::Counting(cp) => {
            println!(
                "counting plan: {} DPVNet nodes, {} valid paths, {} path expression(s), \
                 reduction {:?}, {} on-device tasks across {} devices",
                cp.dpvnet.num_nodes(),
                cp.dpvnet.num_paths(),
                cp.exprs.len(),
                cp.reduce,
                cp.tasks.len(),
                cp.tasks
                    .iter()
                    .map(|t| t.dev)
                    .collect::<std::collections::BTreeSet<_>>()
                    .len(),
            );
        }
        PlanKind::Local(lp) => {
            println!(
                "local-contract plan ('equal'): {} contracts over a {}-node shortest-path DAG, \
                 zero messages",
                lp.contracts.len(),
                lp.dpvnet.num_nodes()
            );
        }
    }
    let _ = net;
}

fn describe_violation(net: &Network, plan: &Plan, v: &tulkun::core::verify::Violation) {
    let label = match &plan.kind {
        PlanKind::Counting(c) => c.dpvnet.node(v.node).label.clone(),
        PlanKind::Local(l) => l.dpvnet.node(v.node).label.clone(),
    };
    match &v.kind {
        ViolationKind::Counting { counts } => {
            println!(
                "      at {} (node {label}): per-universe counts {counts}",
                net.topology.name(v.device)
            );
        }
        ViolationKind::Contract {
            expected,
            found,
            reason,
        } => {
            let names = |ds: &[tulkun::netmodel::DeviceId]| {
                ds.iter()
                    .map(|d| net.topology.name(*d).to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            println!(
                "      at {} (node {label}): {reason} (expected [{}], found [{}])",
                net.topology.name(v.device),
                names(expected),
                names(found)
            );
        }
    }
}
