//! The daemon replay workload behind the `perf-gate` CI stage: drives
//! the always-on [`Service`] through a multi-source session of FIB
//! batches, live churn, runtime intent churn and snapshot queries —
//! per admission policy and management-plane loss rate — and emits
//! `bench_daemon.json`.
//!
//! Column contract (the perf-gate relies on it):
//!
//! * Label and counter columns (`dataset`..`rej intents`) are
//!   *deterministic* for a given workload — admission decisions depend
//!   only on queue lengths, churn state and seeded loss, never on
//!   timing — and are diffed exactly against the committed
//!   `BENCH_daemon.json`.
//! * Timing columns are raw nanosecond integers. `handle ns/req` is
//!   the gated column, with a tolerance band: all DVM handle time of
//!   the session (the `tulkun_dvm_handle_ns` sum) per processed
//!   request — the work a request costs — taken from the fastest of
//!   `REPEATS` identical sessions. The percentiles (`p50 ns`
//!   etc.) are per *message*, bucket-quantized to the telemetry
//!   histogram's 1-2-5 grid, and ungated: a change that removes
//!   thousands of near-free handles moves them up while doing less.
//!
//! `same report` is the workload's correctness bit: the service's final
//! drained Report must be byte-equal to applying the same admitted
//! requests — including intent installs/removals, replayed under their
//! original ids — directly to a fresh *clean* simulator (the lossy row
//! must converge to the clean fixpoint).

use tulkun_bench::{Cli, FigureTable};
use tulkun_core::churn::{ChurnSchedule, TopologyEvent};
use tulkun_core::count::CountExpr;
use tulkun_core::fault::FaultProfile;
use tulkun_core::intent::IntentId;
use tulkun_core::planner::Planner;
use tulkun_core::spec::{Behavior, Invariant, PathExpr};
use tulkun_datasets::{by_name, rule_updates};
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_sim::{AdmissionPolicy, Engine, EngineConfig, Service, ServiceConfig, ServiceRequest};
use tulkun_telemetry::{CONVERGENCE_LAG_NS, HANDLE_NS};

/// Repetitions of each row's session; the fastest is reported.
const REPEATS: usize = 9;

/// One admitted request, in apply order, for the reference replay.
enum Applied {
    Batch(Vec<RuleUpdate>),
    Churn(TopologyEvent),
    /// An install the service accepted, under the id it allocated.
    IntentAdd(IntentId, Invariant),
    IntentRemove(IntentId),
}

/// The narrow runtime intent the workload churns: subset reachability
/// toward the same external destination from one ingress, same
/// outcome-vector shape as the base invariant.
fn narrow_intent(net: &Network) -> Invariant {
    let topo = &net.topology;
    let (dst, _) = topo.external_map().next().expect("external prefixes");
    let dst_name = topo.name(dst);
    let prefix = topo.external_prefixes(dst)[0];
    let ingress = topo
        .devices()
        .find(|d| *d != dst)
        .map(|d| topo.name(d).to_string())
        .expect("an ingress");
    let path = PathExpr::parse(&format!(". * {dst_name}"))
        .unwrap()
        .loop_free()
        .shortest_plus(2);
    Invariant::builder()
        .name(format!("narrow reach {ingress} -> {dst_name}"))
        .packet_space(tulkun_core::spec::PacketSpace::DstPrefix(prefix))
        .ingress([ingress])
        .behavior(Behavior::exist(CountExpr::ge(1), path.clone()).and(Behavior::covered(path)))
        .build()
        .expect("narrow intent")
}

fn main() {
    let cli = Cli::parse();
    let names = cli
        .datasets
        .clone()
        .unwrap_or_else(|| vec!["INet2".to_string()]);

    let mut t = FigureTable::new(
        "bench_daemon",
        "always-on daemon: admission, intent churn, SLO windows, report equivalence",
        &[
            "dataset",
            "policy",
            "loss",
            "batches",
            "churn",
            "intents",
            "queries",
            "admitted",
            "shed",
            "processed",
            "rej intents",
            "parked",
            "degraded",
            "p50 ns",
            "p90 ns",
            "p99 ns",
            "handle ns/req",
            "lag p99 ns",
            "slo ok",
            "same report",
        ],
    );

    for name in &names {
        let Some(ds) = by_name(name, cli.scale) else {
            eprintln!("bench_daemon: unknown dataset {name:?}, skipping");
            continue;
        };
        let net = &ds.network;
        let topo = &net.topology;
        let (dst, _) = topo.external_map().next().expect("external prefixes");
        let prefixes = topo.external_prefixes(dst).to_vec();
        let inv = tulkun_bench::workload::wan_invariant(net, dst, &prefixes);
        let plan = Planner::new(topo).plan(&inv).expect("plannable");
        let cp = plan.counting().expect("counting plan").clone();
        let narrow = narrow_intent(net);

        let trace = rule_updates(net, cli.updates, 7);
        let churn = ChurnSchedule::seeded(topo, &inv, 11, 6).0;

        for (policy, loss) in [
            (AdmissionPolicy::Block, 0.0),
            (AdmissionPolicy::Shed, 0.0),
            (AdmissionPolicy::Shed, 0.10),
        ] {
            let cfg = ServiceConfig {
                policy,
                // Three sub-batches per source turn against a cap of 2:
                // Block drains mid-turn and stays lossless, Shed drops
                // the third — the rows differ only in policy and loss.
                per_source_cap: 2,
                faults: (loss > 0.0).then(|| FaultProfile::loss(31, loss)),
                ..ServiceConfig::default()
            };
            // One session handles for only a few milliseconds, so a
            // single scheduler hiccup can double `handle ns/req`. The
            // session is deterministic: repeat it and keep the fastest
            // repetition's row (every non-timing cell is the same in
            // all of them).
            let mut best: Option<(u64, Vec<String>)> = None;
            for _ in 0..REPEATS {
                let mut svc = Service::new(net, &cp, &inv, cfg.clone());

                // The session overlaps its regimes: every 3rd source turn
                // a fourth source toggles the narrow intent (install when
                // untracked, remove when live *or* parked), interleaved
                // with the FIB batches — including through the final
                // third, where every 2nd turn the "net" source offers one
                // churn event and drains again (its own round — drain is
                // round-robin across sources, so sharing a round would
                // interleave the churn between batches and break the
                // linear replay below). Installs landing while a fence is
                // active park and re-plan at the next epoch rather than
                // being rejected, so `rej intents` stays 0 here. Every
                // 4th turn queries status + report. Only state the
                // service actually committed (reconciled against the
                // intent store around each drain, counting parked
                // installs as committed — `install_intent_as` re-parks
                // them deterministically in the replay) enters the
                // reference.
                let mut applied: Vec<Applied> = Vec::new();
                let mut batches = 0u64;
                let mut churn_admitted = 0u64;
                let mut intent_ops = 0u64;
                let mut queries = 0u64;
                let mut churn_iter = churn.iter().cycle();
                let groups = trace.chunks(12).count();
                let churn_start = groups * 2 / 3;
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
                                // Planner-rejected events are still counted
                                // by the service and mirrored in the replay
                                // below.
                                applied.push(Applied::Churn(*ev));
                                churn_admitted += 1;
                            }
                        }
                        svc.drain();
                    }
                    // Tracked = live + parked: a parked install is
                    // committed state (it lands at the next fence), so
                    // the toggle must see it or it would double-install.
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
                let verdict = svc.slo();

                // Reference: the same admitted requests, applied directly.
                let sim_cfg = EngineConfig {
                    all_devices: true,
                    ..EngineConfig::default()
                };
                let mut reference = Engine::new(net, &cp, &inv.packet_space, sim_cfg);
                reference.burst();
                for a in &applied {
                    match a {
                        Applied::Batch(chunk) => {
                            reference.apply_batch(chunk);
                        }
                        Applied::Churn(ev) => {
                            // The service counted planner-rejected events
                            // without applying them; mirror that.
                            let _ = reference.apply_topology_event(ev, topo, &inv);
                        }
                        Applied::IntentAdd(id, inv) => {
                            reference
                                .install_intent_as(*id, "narrow", inv)
                                .expect("replay install");
                        }
                        Applied::IntentRemove(id) => {
                            reference.remove_intent(*id).expect("replay remove");
                        }
                    }
                }
                let same = reference.report().canonical_bytes() == final_report;

                let m = svc.metrics();
                let q = |p: f64| m.percentile(HANDLE_NS.name, p).unwrap_or(0);
                let handle_ns = m.hists.get(HANDLE_NS.name).map_or(0, |h| h.sum);
                let lag = m.percentile(CONVERGENCE_LAG_NS.name, 0.99).unwrap_or(0);
                let per_req = handle_ns / status.processed.max(1);
                let row = vec![
                    name.clone(),
                    match policy {
                        AdmissionPolicy::Block => "block".into(),
                        AdmissionPolicy::Shed => "shed".into(),
                    },
                    format!("{}%", (loss * 100.0) as u32),
                    batches.to_string(),
                    churn_admitted.to_string(),
                    intent_ops.to_string(),
                    queries.to_string(),
                    status.admitted.to_string(),
                    status.shed.to_string(),
                    status.processed.to_string(),
                    status.rejected_intents.to_string(),
                    status.parked.to_string(),
                    status.degraded.to_string(),
                    q(0.50).to_string(),
                    q(0.90).to_string(),
                    q(0.99).to_string(),
                    per_req.to_string(),
                    lag.to_string(),
                    verdict.ok().to_string(),
                    same.to_string(),
                ];
                if best.as_ref().is_none_or(|(b, _)| per_req < *b) {
                    best = Some((per_req, row));
                }
            }
            t.row(best.expect("REPEATS > 0").1);
        }
    }

    // On a single-CPU host the daemon thread and the sim's bookkeeping
    // share a core, so the latency columns measure contention rather
    // than the data path. Record the skip reason machine-readably so
    // downstream tooling (ci.sh's perf-gate, dashboards) can tell a
    // passed gate from a structurally meaningless one.
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cpus <= 1 && std::env::var("TULKUN_PERF_GATE_FORCE").as_deref() != Ok("1") {
        t.note("perf-gate: SKIP(reason=1cpu)");
    }

    t.finish();
}
