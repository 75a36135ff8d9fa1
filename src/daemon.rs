//! The always-on daemon behind `tulkun daemon`: one type,
//! [`DaemonSession`], that speaks a line-oriented request protocol,
//! admits work into per-source queues and drains it into one
//! long-lived engine.
//!
//! # Protocol grammar
//!
//! One request per line; blank lines and `#` comments are ignored
//! (no response). Every request gets exactly one reply line starting
//! `ok` or `err` — except `metrics`, whose `ok <n>` reply is followed
//! by `n` raw export lines.
//!
//! ```text
//! batch <source> <json array of rule updates>   admit a FIB batch
//! churn <source> link-down <A> <B>              admit a churn event
//! churn <source> link-up <A> <B>
//! churn <source> device-down <D>
//! churn <source> device-up <D>
//! intent add <source> <json object>             admit an intent install
//! intent remove <source> <id>                   admit an intent removal
//! drain [<max>]                                 apply queued requests
//! report                                        canonical Report JSON
//! status                                        counters + queue state
//!                                               (incl. parked/degraded)
//! slo                                           SLO verdict JSON
//! metrics                                       Prometheus exposition
//! events <source> [n]                           flight-recorder entries
//! explain <source> <node|intent:<id>>           ranked causal chain JSON
//! config policy <shed|block>                    admission policy
//! config drain-every <n>                        auto-drain cadence
//! config slo <p50> <p90> <p99> <lag-p99>        budgets, ns
//! quit                                          end the session
//! ```
//!
//! `events` replies `ok <k>` followed by `k` one-line JSON journal
//! entries (oldest first); `explain` replies one `tulkun-explain-v1`
//! JSON line. For both, `<source>` is an ingress source name or `*`
//! for all sources; a named source keeps its own entries plus untagged
//! driver-side entries (bursts, fences, admission decisions — shared
//! causal context). The `explain` subject is a device name from the
//! dataset topology or `intent:<id>`. With `--journal-dump <path>` on
//! `tulkun daemon`, the full journal is written to `<path>` whenever
//! the session observes an SLO breach or an `Unreachable` verdict.
//!
//! Rule-update JSON is the wire encoding of
//! [`netmodel::network::RuleUpdate`], e.g.
//! `[{"Insert":{"device":3,"rule":{...}}}]`.
//!
//! Intent JSON names the intent and carries the invariant in the spec
//! surface syntax, e.g. `{"name":"edge reach","spec":"(dstIP=10.0.0.0/23,
//! [S], (exist >= 1, /S .* W .* D/ loop_free))"}`. The `ok` reply to
//! `intent add` echoes the queue depth; the id the install will get is
//! reported by `status` once drained. `intent remove <id>` takes that
//! id (the base session is intent 0 and cannot be removed).
//!
//! Installs and churn interleave freely: an install whose slice cannot
//! be planned while a topology fence is in flight is *parked* (not
//! rejected) and re-planned against the next epoch, and an intent
//! whose slice churn severed *degrades* (stale results, revived by a
//! later fence) instead of poisoning the session. `status` reports
//! both populations (`parked`/`degraded` counts plus a per-intent
//! `degraded` flag), and `explain <source> intent:<id>` walks the
//! causal chain back to the fence that parked or degraded the intent.
//!
//! The predicate backend follows the workload: the session starts on
//! `intervals` when the dataset and its invariant are
//! destination-prefix-only, and a request the interval encoding cannot
//! hold (a batch with a port/proto match or a rewrite, an intent whose
//! packet space constrains more than destination bits) moves it to
//! `bdd` for good before it applies — a `backend_swap` journal entry
//! naming the request, and `"backend"` in `status`. The move rebuilds
//! the device verifiers in place; epochs, intents, churn and the
//! journal carry on as they were.
//!
//! Determinism contract: a scripted session (batches + churn from one
//! source, drained in order) produces a final Report byte-equal to
//! applying the same events directly through `Substrate::apply_event`
//! — `tests/daemon_session.rs` holds this, including over a 10% lossy
//! management network.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use crate::bdd::HeaderLayout;
use crate::core::churn::TopologyEvent;
use crate::core::dpvnet::NodeId;
use crate::core::event::{EventOutcome, RuntimeEvent, Substrate};
use crate::core::explain::Subject;
use crate::core::intent::IntentId;
use crate::core::planner::CountingPlan;
use crate::core::spec::table1::{self, FirstDestinationError};
use crate::core::spec::{Invariant, PacketSpace};
use crate::core::verify::{compile_packet_space, Freshness};
use crate::datasets::{Dataset, Scale};
use crate::json::Json;
use crate::netmodel::network::{Network, RuleUpdate};
use crate::netmodel::topology::{DeviceId, Topology};
use crate::predicate::{network_ip_only, pred_ip_only, update_ip_only, BackendCaps, BackendKind};
use crate::sim::{AdmissionPolicy, Engine, EngineConfig, ServiceConfig};
use crate::telemetry::{
    JournalKind, SloPolicy, SloTracker, Telemetry, TelemetryConfig, CONVERGENCE_LAG_NS,
    REPORT_BUILD, REPORT_ENCODE,
};

/// The generated dataset `name` at `scale`, or an error listing the
/// datasets there are: the one lookup behind the daemon and every
/// dataset-driven `tulkun` command.
pub fn load_dataset(name: &str, scale: Scale) -> Result<Dataset, String> {
    crate::datasets::by_name(name, scale).ok_or_else(|| {
        let names = crate::datasets::DATASET_NAMES.join(", ");
        format!("unknown dataset {name:?}; available: {names}")
    })
}

/// The first announced destination's subset-reachability counting
/// session on a generated dataset
/// ([`table1::first_destination_counting`], the §9.3.1 workload shape).
/// This is the session behind `tulkun trace`/`metrics`/`churn` and the
/// daemon.
pub fn dataset_session(net: &Network, name: &str) -> Result<(Invariant, CountingPlan), String> {
    table1::first_destination_counting(&net.topology).map_err(|e| match e {
        FirstDestinationError::NoDestination => {
            format!("dataset {name:?} announces no external prefixes")
        }
        FirstDestinationError::Spec(e) => e.to_string(),
        FirstDestinationError::Plan(e) => format!("planning failed: {e}"),
        FirstDestinationError::LocalContract => {
            "invariant planned as a local contract; nothing to drive".into()
        }
    })
}

/// Longest intent spec `intent add` hands to the parsers. The parsers
/// bound their own nesting; this bounds the work one line can ask of
/// the planner. The specs of the paper's Table 1 are all under 200
/// bytes.
const MAX_SPEC_BYTES: usize = 1024;

/// Configuration for a [`DaemonSession`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Dataset the session verifies (see `tulkun datasets`).
    pub name: String,
    /// Dataset scale.
    pub scale: Scale,
    /// Admission/SLO/fault configuration of the service.
    pub service: ServiceConfig,
    /// Drain automatically after this many admitted requests (0 = only
    /// drain on explicit `drain` requests or `Block`-policy
    /// backpressure).
    pub drain_every: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            name: "INet2".into(),
            scale: Scale::Tiny,
            service: ServiceConfig::default(),
            drain_every: 0,
        }
    }
}

/// A reply to one protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Reply text: one line, or `1 + n` lines for `metrics`.
    pub text: String,
    /// Whether the request was `quit`.
    pub quit: bool,
}

impl Reply {
    fn ok(text: impl Into<String>) -> Reply {
        Reply {
            text: format!("ok {}", text.into()),
            quit: false,
        }
    }

    fn err(text: impl Into<String>) -> Reply {
        Reply {
            text: format!("err {}", text.into()),
            quit: false,
        }
    }
}

/// Does a packet space compile to a predicate on destination bits
/// only — one the interval encodings can hold?
fn space_ip_only(layout: &HeaderLayout, ps: &PacketSpace) -> bool {
    pred_ip_only(&compile_packet_space(layout, ps))
}

/// One admitted request, waiting in its source's queue. A churn request
/// stays a [`TopologyEvent`] until it applies: the [`RuntimeEvent`]
/// naming the base topology and invariant is built then, so no queued
/// request holds a copy of either.
enum Request {
    /// A burst of FIB rule updates, applied as one coalesced batch.
    Batch(Vec<RuleUpdate>),
    /// A live topology churn event (epoch fence + incremental re-plan).
    Churn(TopologyEvent),
    /// Install an invariant as a runtime intent.
    IntentAdd { name: String, invariant: Invariant },
    /// Remove a live intent; shared nodes survive.
    IntentRemove(IntentId),
}

/// The always-on verification service `tulkun daemon` drives: it
/// parses protocol lines, admits work into bounded per-source queues,
/// drains them into one long-lived [`Engine`], judges each drain round
/// against the SLO budgets and answers snapshots.
///
/// Ordering contract: requests from one source are applied in their
/// arrival order (per-source FIFO); ordering *across* sources is
/// round-robin per drain round, which is the fairness guarantee — a
/// source flooding its queue cannot starve another source's single
/// update. A `report` never drains the queues: it evaluates what the
/// devices have converged to so far.
pub struct DaemonSession {
    /// Admission policy and caps (`slo` seeded the tracker, `faults`
    /// chose the engine's channels).
    cfg: ServiceConfig,
    /// The one long-lived engine, over perfect or lossy channels as
    /// configured; both converge to the same Report fixpoint. It also
    /// says which predicate backend the verifiers run on.
    engine: Engine,
    /// The base topology: device names, batch admission, and what every
    /// churn re-plan diffs against.
    topo: Topology,
    /// The base invariant every churn re-plan names.
    inv: Invariant,
    /// Per-source FIFO queues, drained round-robin in key order.
    queues: BTreeMap<String, VecDeque<Request>>,
    queued: usize,
    processed_by: BTreeMap<String, u64>,
    admitted: u64,
    shed: u64,
    processed: u64,
    rejected_churn: u64,
    rejected_intents: u64,
    drains: u64,
    tel: Arc<Telemetry>,
    slo: SloTracker,
    /// An SLO breach or an `Unreachable` verdict was observed since the
    /// last journal auto-dump.
    dump_pending: bool,
    drain_every: usize,
    since_drain: usize,
    journal_dump: Option<PathBuf>,
}

impl DaemonSession {
    /// Builds the session: dataset by name → counting plan → engine
    /// (initial burst included).
    pub fn new(cfg: DaemonConfig) -> Result<DaemonSession, String> {
        let ds = load_dataset(&cfg.name, cfg.scale)?;
        let (inv, cp) = dataset_session(&ds.network, &cfg.name)?;
        let mut session = DaemonSession::over(&ds.network, &cp, &inv, cfg.service);
        session.drain_every = cfg.drain_every;
        Ok(session)
    }

    /// Builds the session over a network snapshot, its counting plan and
    /// the invariant it came from, and runs the initial burst (all FIBs
    /// at t=0) so the first report is already the converged baseline.
    ///
    /// The predicate backend follows the workload, with no option for
    /// it: the session starts on `intervals` when every FIB rule and
    /// the invariant's packet space stay within the
    /// destination-prefix-only fragment, and on `bdd` otherwise. A
    /// later request the interval encoding cannot hold moves it to
    /// `bdd` for good, re-hosting the verifiers ([`Engine::rehost`]).
    pub fn over(
        net: &Network,
        plan: &CountingPlan,
        inv: &Invariant,
        cfg: ServiceConfig,
    ) -> DaemonSession {
        let ip_only = network_ip_only(net) && space_ip_only(&net.layout, &inv.packet_space);
        // The session's own always-enabled telemetry handle: the SLO
        // windows are the product, not an optional debugging aid. It
        // keeps histograms, counters and the journal, but no spans: no
        // verb reads them, and rings that fill with every op would
        // make memory grow with throughput.
        let tel = Telemetry::new(TelemetryConfig {
            ring_capacity: 0,
            ..TelemetryConfig::enabled()
        });
        let ecfg = EngineConfig {
            telemetry: tel.clone(),
            backend: BackendKind::fitting(ip_only),
            ..EngineConfig::default()
        };
        let mut engine = match cfg.faults {
            Some(profile) => Engine::lossy(net, plan, &inv.packet_space, ecfg, profile),
            None => Engine::new(net, plan, &inv.packet_space, ecfg),
        };
        engine.run_to_quiescence();
        let mut slo = SloTracker::new(cfg.slo);
        // Roll the init wave into its own window so steady-state
        // windows start from the post-burst baseline.
        slo.roll(&tel);
        DaemonSession {
            cfg,
            engine,
            topo: net.topology.clone(),
            inv: inv.clone(),
            queues: BTreeMap::new(),
            queued: 0,
            processed_by: BTreeMap::new(),
            admitted: 0,
            shed: 0,
            processed: 0,
            rejected_churn: 0,
            rejected_intents: 0,
            drains: 0,
            tel,
            slo,
            dump_pending: false,
            drain_every: 0,
            since_drain: 0,
            journal_dump: None,
        }
    }

    /// Arms the journal auto-dump: whenever the session observes an SLO
    /// breach or an `Unreachable` verdict, the full journal is written
    /// to `path` (overwriting the previous dump).
    pub fn set_journal_dump(&mut self, path: impl Into<PathBuf>) {
        self.journal_dump = Some(path.into());
    }

    /// Writes the journal to the armed dump path if a breach or an
    /// `Unreachable` verdict was observed since the last dump. Returns
    /// the path written to, if any.
    pub fn maybe_dump_journal(&mut self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = &self.journal_dump else {
            return Ok(None);
        };
        if !std::mem::take(&mut self.dump_pending) {
            return Ok(None);
        }
        std::fs::write(path, self.tel.journal_json())?;
        Ok(Some(path.clone()))
    }

    /// The session's topology (device-name resolution).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Handles one protocol line. `None` for blank lines and comments;
    /// otherwise exactly one [`Reply`].
    pub fn handle_line(&mut self, line: &str) -> Option<Reply> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        Some(match cmd {
            "batch" => self.handle_batch(rest),
            "churn" => self.handle_churn(rest),
            "intent" => self.handle_intent(rest),
            "drain" => {
                let max = if rest.is_empty() {
                    usize::MAX
                } else {
                    match rest.parse() {
                        Ok(n) => n,
                        Err(_) => return Some(Reply::err(format!("bad drain count {rest:?}"))),
                    }
                };
                let n = self.drain(max);
                self.since_drain = 0;
                Reply::ok(format!("processed={n}"))
            }
            "report" => {
                let bytes = self.report_bytes();
                Reply::ok(String::from_utf8_lossy(&bytes).into_owned())
            }
            "status" => Reply::ok(crate::json::to_string(&self.status())),
            "slo" => Reply::ok(crate::json::to_string(&self.slo.verdict().to_json())),
            "metrics" => {
                let text = self.metrics_text();
                let lines: Vec<&str> = text.lines().collect();
                let mut out = format!("ok {}", lines.len());
                for l in &lines {
                    out.push('\n');
                    out.push_str(l);
                }
                Reply {
                    text: out,
                    quit: false,
                }
            }
            "events" => self.handle_events(rest),
            "explain" => self.handle_explain(rest),
            "config" => self.handle_config(rest),
            "quit" => Reply {
                text: "ok bye".into(),
                quit: true,
            },
            other => Reply::err(format!("unknown request {other:?}")),
        })
    }

    fn handle_batch(&mut self, rest: &str) -> Reply {
        let Some((source, json)) = rest.split_once(char::is_whitespace) else {
            return Reply::err("usage: batch <source> <json array>");
        };
        let updates: Vec<RuleUpdate> = match crate::json::from_str(json.trim()) {
            Ok(u) => u,
            Err(e) => return Reply::err(format!("bad batch json: {e}")),
        };
        let echo = format!("admitted={} ", updates.len());
        self.admit(source, Request::Batch(updates), &echo)
    }

    fn handle_churn(&mut self, rest: &str) -> Reply {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let dev = |name: &str| {
            self.topo
                .device(name)
                .ok_or_else(|| format!("unknown device {name:?}"))
        };
        let ev = match parts.as_slice() {
            [_, "link-down", a, b] => match (dev(a), dev(b)) {
                (Ok(a), Ok(b)) => TopologyEvent::LinkDown(a, b),
                (Err(e), _) | (_, Err(e)) => return Reply::err(e),
            },
            [_, "link-up", a, b] => match (dev(a), dev(b)) {
                (Ok(a), Ok(b)) => TopologyEvent::LinkUp(a, b),
                (Err(e), _) | (_, Err(e)) => return Reply::err(e),
            },
            [_, "device-down", d] => match dev(d) {
                Ok(d) => TopologyEvent::DeviceDown(d),
                Err(e) => return Reply::err(e),
            },
            [_, "device-up", d] => match dev(d) {
                Ok(d) => TopologyEvent::DeviceUp(d),
                Err(e) => return Reply::err(e),
            },
            _ => {
                return Reply::err(
                    "usage: churn <source> (link-down|link-up) <A> <B> | \
                     churn <source> (device-down|device-up) <D>",
                )
            }
        };
        self.admit(parts[0], Request::Churn(ev), "")
    }

    fn handle_intent(&mut self, rest: &str) -> Reply {
        const USAGE: &str =
            "usage: intent add <source> {\"name\":...,\"spec\":...} | intent remove <source> <id>";
        let Some((verb, rest)) = rest.split_once(char::is_whitespace) else {
            return Reply::err(USAGE);
        };
        let Some((source, arg)) = rest.trim().split_once(char::is_whitespace) else {
            return Reply::err(USAGE);
        };
        let req = match verb {
            "add" => {
                let obj = match crate::json::parse(arg.trim()) {
                    Ok(o) => o,
                    Err(e) => return Reply::err(format!("bad intent json: {e}")),
                };
                let Some(name) = obj.get("name").and_then(|v| v.as_str()) else {
                    return Reply::err("intent json needs a string \"name\" field");
                };
                let Some(spec) = obj.get("spec").and_then(|v| v.as_str()) else {
                    return Reply::err("intent json needs a string \"spec\" field");
                };
                if spec.len() > MAX_SPEC_BYTES {
                    return Reply::err(format!(
                        "intent spec is {} bytes, limit {MAX_SPEC_BYTES}",
                        spec.len()
                    ));
                }
                let invariant = match Invariant::parse(spec) {
                    Ok(inv) => inv,
                    Err(e) => return Reply::err(format!("bad intent spec: {e}")),
                };
                Request::IntentAdd {
                    name: name.to_string(),
                    invariant,
                }
            }
            "remove" => match arg.trim().parse::<u64>() {
                Ok(id) => Request::IntentRemove(IntentId(id)),
                Err(_) => return Reply::err(format!("bad intent id {arg:?}")),
            },
            _ => return Reply::err(USAGE),
        };
        self.admit(source, req, "")
    }

    /// `events <source> [n]`: the newest `n` (default: all) journal
    /// entries visible to `source` (`*` = every source), oldest first,
    /// as `ok <k>` plus `k` one-line JSON entries.
    fn handle_events(&mut self, rest: &str) -> Reply {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let (source, limit) = match parts.as_slice() {
            [source] => (*source, usize::MAX),
            [source, n] => match n.parse::<usize>() {
                Ok(n) => (*source, n),
                Err(_) => return Reply::err(format!("bad event count {n:?}")),
            },
            _ => return Reply::err("usage: events <source|*> [n]"),
        };
        let filter = (source != "*").then_some(source);
        let events = self.tel.journal_visible_to(filter, limit);
        let mut out = format!("ok {}", events.len());
        for e in &events {
            out.push('\n');
            out.push_str(&crate::json::to_string(&e.to_json()));
        }
        Reply {
            text: out,
            quit: false,
        }
    }

    /// `explain <source> <node|intent:<id>>`: the ranked causal chain
    /// for a device's or intent's current verdict, walked out of the
    /// journal entries visible to `source` (`*` = every source) by
    /// [`Engine::explain`], as one `tulkun-explain-v1` JSON line. An
    /// `unreachable` verdict arms the journal auto-dump.
    fn handle_explain(&mut self, rest: &str) -> Reply {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [source, subject] = parts.as_slice() else {
            return Reply::err("usage: explain <source|*> <node|intent:<id>>");
        };
        let filter = (*source != "*").then_some(*source);
        let explained = Subject::parse(subject, &self.topo)
            .and_then(|subject| self.engine.explain(filter, subject));
        match explained {
            Ok(explanation) => {
                self.dump_pending |= explanation.verdict.contains("unreachable");
                Reply::ok(explanation.to_json())
            }
            Err(e) => Reply::err(e),
        }
    }

    fn handle_config(&mut self, rest: &str) -> Reply {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.as_slice() {
            ["policy", p] => {
                self.cfg.policy = match *p {
                    "shed" => AdmissionPolicy::Shed,
                    "block" => AdmissionPolicy::Block,
                    other => return Reply::err(format!("unknown policy {other:?}")),
                };
                Reply::ok(format!("policy={p}"))
            }
            ["drain-every", n] => match n.parse::<usize>() {
                Ok(n) => {
                    self.drain_every = n;
                    Reply::ok(format!("drain-every={n}"))
                }
                Err(_) => Reply::err(format!("bad drain-every {n:?}")),
            },
            ["slo", p50, p90, p99, lag] => {
                let parse = |s: &str| s.parse::<u64>().map_err(|_| format!("bad budget {s:?}"));
                match (parse(p50), parse(p90), parse(p99), parse(lag)) {
                    (Ok(p50_ns), Ok(p90_ns), Ok(p99_ns), Ok(lag_p99_ns)) => {
                        // The tracker's windows and min_samples survive
                        // a budget edit.
                        self.slo.set_policy(SloPolicy {
                            p50_ns,
                            p90_ns,
                            p99_ns,
                            lag_p99_ns,
                            ..*self.slo.policy()
                        });
                        Reply::ok("slo updated")
                    }
                    (Err(e), ..) | (_, Err(e), ..) | (_, _, Err(e), _) | (.., Err(e)) => {
                        Reply::err(e)
                    }
                }
            }
            _ => Reply::err(
                "usage: config policy <shed|block> | config drain-every <n> | \
                 config slo <p50> <p90> <p99> <lag-p99>",
            ),
        }
    }

    /// Offers one request from `source`. The `ok` reply is `echo`
    /// followed by `queued=<n>`, the queue depth after admission; an
    /// `err` reply says why it was refused. A batch naming a device
    /// outside the topology is refused before it is queued: nothing
    /// changes. A full queue sheds the request under
    /// [`AdmissionPolicy::Shed`]; under [`AdmissionPolicy::Block`] the
    /// session drains everything first and then admits. An admission
    /// that completes `drain_every` runs a drain too.
    fn admit(&mut self, source: &str, req: Request, echo: &str) -> Reply {
        if let Request::Batch(updates) = &req {
            let devices = self.topo.num_devices();
            let outside = updates.iter().find(|u| u.device().0 as usize >= devices);
            if let Some(u) = outside {
                let d = u.device().0;
                return Reply::err(format!(
                    "rejected: batch names device {d}, outside the {devices}-device topology"
                ));
            }
        }
        let per_source = self.queues.get(source).map_or(0, |q| q.len());
        let full = self.queued >= self.cfg.queue_cap.max(1)
            || per_source >= self.cfg.per_source_cap.max(1);
        if full {
            let epoch = self.engine.epoch();
            match self.cfg.policy {
                AdmissionPolicy::Shed => {
                    self.shed += 1;
                    self.tel.journal(
                        JournalKind::AdmissionShed,
                        DeviceId(0),
                        epoch,
                        0,
                        None,
                        || format!("shed request from {source:?} ({per_source} queued)"),
                    );
                    return Reply::err(format!(
                        "shed: queue for source {source:?} is full ({per_source} queued)"
                    ));
                }
                AdmissionPolicy::Block => {
                    let queued = self.queued;
                    self.tel.journal(
                        JournalKind::AdmissionBlocked,
                        DeviceId(0),
                        epoch,
                        0,
                        None,
                        || format!("blocked ingress from {source:?}: draining {queued} queued"),
                    );
                    self.drain(usize::MAX);
                }
            }
        }
        self.queues
            .entry(source.to_string())
            .or_default()
            .push_back(req);
        self.queued += 1;
        self.admitted += 1;
        self.since_drain += 1;
        if self.drain_every > 0 && self.since_drain >= self.drain_every {
            self.drain(usize::MAX);
            self.since_drain = 0;
        }
        Reply::ok(format!("{echo}queued={}", self.queued))
    }

    /// Drains at most `max` requests, round-robin across sources in
    /// source order (one request per non-empty source per pass), and
    /// rolls one SLO window over what ran. Returns the number applied.
    fn drain(&mut self, max: usize) -> usize {
        let mut n = 0;
        // Virtual ns elapsed in this round so far: request i's
        // convergence lag is the round's running quiescence time when
        // its own application quiesces, so queueing behind earlier
        // requests counts against the budget.
        let mut round_ns: u64 = 0;
        let sources: Vec<String> = self.queues.keys().cloned().collect();
        'round: loop {
            let mut any = false;
            for src in &sources {
                if n >= max {
                    break 'round;
                }
                let Some(req) = self.queues.get_mut(src).and_then(|q| q.pop_front()) else {
                    continue;
                };
                any = true;
                self.queued -= 1;
                // Journal entries recorded while this request applies
                // carry its source tag (`events <source>` filtering).
                self.tel.journal_scope(Some(src));
                let outcome = self.apply(req);
                self.tel.journal_scope(None);
                n += 1;
                self.processed += 1;
                *self.processed_by.entry(src.clone()).or_default() += 1;
                if let Some(outcome) = outcome {
                    round_ns = round_ns.saturating_add(outcome.completion_ns);
                    self.tel.observe(CONVERGENCE_LAG_NS, round_ns);
                }
            }
            if !any {
                break;
            }
        }
        if n > 0 {
            self.drains += 1;
            self.slo.roll(&self.tel);
            if !self.slo.verdict().ok() {
                let epoch = self.engine.epoch();
                let drains = self.drains;
                self.tel
                    .journal(JournalKind::SloBreach, DeviceId(0), epoch, 0, None, || {
                        format!("SLO breach after drain round {drains}")
                    });
                self.dump_pending = true;
            }
        }
        n
    }

    /// Makes room for a request before it is applied: when the request
    /// carries something the running encoding cannot hold (`fits` is
    /// false), the session moves to `bdd` first ([`Engine::rehost`]:
    /// the verifiers change encoding, the lifecycle does not),
    /// journaled as one `backend_swap` at the current epoch whose
    /// detail names `cause`. The move is one-way — going back would
    /// mean re-scanning every FIB rule at each batch, and could thrash
    /// between rebuilds. The rebuild's init wave lands in the SLO
    /// windows: a move is not free, and the tracker says so.
    fn make_room(&mut self, fits: bool, cause: &str) {
        if fits || self.engine.backend().caps() == BackendCaps::FULL {
            return;
        }
        let from = self.engine.backend();
        self.engine.rehost(BackendKind::Bdd);
        let epoch = self.engine.epoch();
        let detail = || {
            format!(
                "moved the predicate backend to bdd for {cause} \
                 (verifiers re-hosted from {from})"
            )
        };
        self.tel.journal(
            JournalKind::BackendSwap,
            DeviceId(0),
            epoch,
            0,
            None,
            detail,
        );
    }

    /// Applies one request to the engine as one [`RuntimeEvent`] (a
    /// churn request names the session's base topology and invariant);
    /// `None` means it was rejected (counted and journaled; FIBs, epoch
    /// and Report unchanged). A request the running encoding cannot
    /// hold moves the session to `bdd` first
    /// ([`DaemonSession::make_room`]).
    fn apply(&mut self, req: Request) -> Option<EventOutcome> {
        let ev = match req {
            Request::Batch(updates) => {
                let fits = updates.iter().all(update_ip_only);
                self.make_room(fits, &format!("batch of {}", updates.len()));
                RuntimeEvent::Batch(updates)
            }
            Request::Churn(event) => RuntimeEvent::Topology {
                event,
                base: self.topo.clone(),
                invariant: self.inv.clone(),
            },
            Request::IntentAdd { name, invariant } => {
                let fits = space_ip_only(&self.engine.layout(), &invariant.packet_space);
                self.make_room(fits, &format!("install of intent {name:?}"));
                RuntimeEvent::InstallIntent { name, invariant }
            }
            Request::IntentRemove(id) => RuntimeEvent::RemoveIntent(id),
        };
        let e = match self.engine.apply_event(&ev) {
            Ok(outcome) => return Some(outcome),
            Err(e) => e,
        };
        let (kind, why, dev, intent) = match ev {
            RuntimeEvent::Topology { event: ev, .. } => {
                self.rejected_churn += 1;
                let why = format!("planner rejected {}: {e:?}", ev.describe());
                (JournalKind::ChurnRejected, why, ev.primary_device(), None)
            }
            RuntimeEvent::InstallIntent { name, .. } => {
                let why = format!("install of intent {name:?} rejected: {e:?}");
                (JournalKind::IntentRejected, why, DeviceId(0), None)
            }
            RuntimeEvent::RemoveIntent(id) => {
                let why = format!("remove of intent {id} rejected: {e:?}");
                (JournalKind::IntentRejected, why, DeviceId(0), Some(id.0))
            }
            // Neither is ever refused, and no request maps to a crash.
            RuntimeEvent::Batch(_) | RuntimeEvent::CrashRestart(_) => return None,
        };
        if kind == JournalKind::IntentRejected {
            self.rejected_intents += 1;
        }
        self.tel
            .journal(kind, dev, self.engine.epoch(), 0, intent, || why);
        None
    }

    /// The canonical Report bytes of what the devices have converged to
    /// so far, in two timed layers: `report.build` brings the per-source
    /// verdicts up to date (only sources whose export changed since the
    /// last call are evaluated and rendered again), and `report.encode`
    /// splices the rendered violations
    /// ([`crate::core::verify::Verdicts::canonical_bytes`]).
    fn report_bytes(&mut self) -> Vec<u8> {
        let tel = Arc::clone(&self.tel);
        let verdicts = tel.timed(DeviceId(0), &REPORT_BUILD, 0, 0, || self.engine.verdicts());
        tel.timed(DeviceId(0), &REPORT_ENCODE, 0, 0, || {
            verdicts.canonical_bytes()
        })
    }

    /// Writes every intent gauge from `freshness` and returns the live
    /// intents' `status` rows: the population totals
    /// (`tulkun_intent_count` is the control plane's own), and one
    /// labeled series per live or parked id and none for any other, so a
    /// removed or rejected intent's series leave with it. A live id
    /// reads parked 0: it was never parked or has since landed. `status`
    /// and `metrics` call it before they read.
    fn export_intent_gauges(&self, freshness: &[(NodeId, Freshness)]) -> Vec<Json> {
        let stale: BTreeSet<NodeId> = freshness
            .iter()
            .filter(|(_, f)| !matches!(f, Freshness::Fresh))
            .map(|(n, _)| *n)
            .collect();
        let store = self.engine.intents();
        let label = |id: u64| format!("intent=\"{id}\"");
        let (mut rows, mut fresh, mut degraded, mut parked) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for i in store.live() {
            let nodes = i.global_nodes();
            let is_degraded = i.is_degraded();
            let is_fresh = !is_degraded && nodes.iter().all(|n| !stale.contains(n));
            fresh.push((label(i.id.0), is_fresh as i64));
            degraded.push((label(i.id.0), is_degraded as i64));
            parked.push((label(i.id.0), 0));
            rows.push(Json::Object(vec![
                ("id".into(), Json::Int(i.id.0 as i64)),
                ("name".into(), Json::Str(i.name.clone())),
                ("nodes".into(), Json::Int(nodes.len() as i64)),
                ("fresh".into(), Json::Bool(is_fresh)),
                ("degraded".into(), Json::Bool(is_degraded)),
            ]));
        }
        parked.extend(store.parked().map(|p| (label(p.id.0), 1)));
        for (name, value) in [
            ("tulkun_rejected_intents", self.rejected_intents as usize),
            ("tulkun_parked_intents", store.parked_count()),
            ("tulkun_degraded_intents", store.degraded_count()),
        ] {
            self.tel.gauge_set(DeviceId(0), name, value as i64);
        }
        for (name, series) in [
            ("tulkun_intent_fresh", fresh),
            ("tulkun_degraded_intents", degraded),
            ("tulkun_parked_intents", parked),
        ] {
            self.tel.gauge_set_family(name, series);
        }
        rows
    }

    /// The `status` reply: counters, queue state and per-intent
    /// freshness. An `Unreachable` node arms the journal auto-dump; the
    /// queues are *not* drained and no verdict is evaluated.
    fn status(&mut self) -> Json {
        let freshness = self.engine.freshness();
        if freshness
            .iter()
            .any(|(_, f)| matches!(f, Freshness::Unreachable))
        {
            self.dump_pending = true;
        }
        let intents = self.export_intent_gauges(&freshness);
        let store = self.engine.intents();
        let int = |n: u64| Json::Int(n as i64);
        let per_source = self.processed_by.iter();
        Json::Object(vec![
            ("admitted".into(), int(self.admitted)),
            ("shed".into(), int(self.shed)),
            ("processed".into(), int(self.processed)),
            ("rejected_churn".into(), int(self.rejected_churn)),
            ("rejected_intents".into(), int(self.rejected_intents)),
            ("parked".into(), int(store.parked_count() as u64)),
            ("degraded".into(), int(store.degraded_count() as u64)),
            ("queued".into(), int(self.queued as u64)),
            ("drains".into(), int(self.drains)),
            ("epoch".into(), int(self.engine.epoch())),
            (
                "backend".into(),
                Json::Str(self.engine.backend().to_string()),
            ),
            (
                "per_source".into(),
                Json::Object(per_source.map(|(s, n)| (s.clone(), int(*n))).collect()),
            ),
            ("intent_count".into(), int(intents.len() as u64)),
            ("intents".into(), Json::Array(intents)),
        ])
    }

    /// Prometheus text exposition: the full registry (cumulative since
    /// start — the SLO verdict covers only the rolling windows), its
    /// intent gauges written first, plus the `tulkun_slo_*` verdict
    /// gauges.
    fn metrics_text(&self) -> String {
        self.export_intent_gauges(&self.engine.freshness());
        let mut out = self.tel.prometheus_text();
        out.push_str(&self.slo.verdict().prometheus_text());
        out
    }
}

/// Serves a full session over any line stream: reads requests from
/// `input`, writes replies to `output`, stops on EOF or `quit`.
/// Returns whether the peer asked to quit (vs plain EOF).
pub fn serve<R: std::io::BufRead, W: std::io::Write>(
    session: &mut DaemonSession,
    input: R,
    mut output: W,
) -> std::io::Result<bool> {
    for line in input.lines() {
        let line = line?;
        let Some(reply) = session.handle_line(&line) else {
            continue;
        };
        writeln!(output, "{}", reply.text)?;
        output.flush()?;
        if let Some(path) = session.maybe_dump_journal()? {
            eprintln!("tulkun daemon: journal dumped to {}", path.display());
        }
        if reply.quit {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::fault::FaultProfile;
    use crate::core::planner::Planner;
    use crate::datasets::fig2a_network;
    use crate::netmodel::fib::{Action, MatchSpec, Rule};

    const SPEC: &str = "(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* D/ loop_free))";

    fn planned(net: &Network, inv: &Invariant) -> CountingPlan {
        let plan = Planner::new(&net.topology).plan(inv).unwrap();
        plan.counting().unwrap().clone()
    }

    fn fixture() -> (Network, CountingPlan, Invariant) {
        let net = fig2a_network();
        let inv = Invariant::parse(SPEC).unwrap();
        let cp = planned(&net, &inv);
        (net, cp, inv)
    }

    /// An IP-only line S → B → W → D (dst-prefix matches only), so the
    /// interval backends are legal for the swap test.
    fn line_fixture() -> (Network, CountingPlan, Invariant) {
        let mut t = Topology::new();
        let s = t.add_device("S");
        let b = t.add_device("B");
        let w = t.add_device("W");
        let d = t.add_device("D");
        t.add_link(s, b, 1000);
        t.add_link(b, w, 1000);
        t.add_link(w, d, 1000);
        let p: crate::netmodel::prefix::IpPrefix = "10.0.0.0/23".parse().unwrap();
        t.add_external_prefix(d, p);
        let mut net = Network::new(t);
        for (dev, hop) in [(s, Some(b)), (b, Some(w)), (w, Some(d)), (d, None)] {
            net.fib_mut(dev).insert(Rule {
                priority: 24,
                matches: MatchSpec::dst(p),
                action: match hop {
                    Some(h) => Action::fwd(h),
                    None => Action::deliver(),
                },
            });
        }
        let inv = Invariant::parse(SPEC).unwrap();
        let cp = planned(&net, &inv);
        (net, cp, inv)
    }

    fn some_update(net: &Network, prio: u32) -> RuleUpdate {
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        RuleUpdate::Insert {
            device: b,
            rule: Rule {
                priority: prio,
                matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
                action: Action::fwd(w),
            },
        }
    }

    /// The `batch` line offering one update from `source`.
    fn batch(source: &str, update: RuleUpdate) -> String {
        format!("batch {source} {}", crate::json::to_string(&vec![update]))
    }

    fn reply(session: &mut DaemonSession, line: &str) -> String {
        session.handle_line(line).expect("a reply").text
    }

    /// The `status` reply, parsed.
    fn status(session: &mut DaemonSession) -> Json {
        let text = reply(session, "status");
        crate::json::parse(text.strip_prefix("ok ").expect("ok status")).unwrap()
    }

    /// An integer field of a parsed reply.
    fn int(json: &Json, key: &str) -> i64 {
        match json.get(key) {
            Some(Json::Int(n)) => *n,
            other => panic!("{key} is not an integer: {other:?}"),
        }
    }

    fn backend(session: &mut DaemonSession) -> String {
        let st = status(session);
        st.get("backend")
            .and_then(|b| b.as_str())
            .unwrap()
            .to_string()
    }

    /// The `report` reply's bytes.
    fn report(session: &mut DaemonSession) -> Vec<u8> {
        let text = reply(session, "report");
        text.strip_prefix("ok ")
            .expect("ok report")
            .as_bytes()
            .to_vec()
    }

    #[test]
    fn shed_policy_rejects_beyond_per_source_cap() {
        let (net, cp, inv) = fixture();
        let cfg = ServiceConfig {
            policy: AdmissionPolicy::Shed,
            per_source_cap: 2,
            ..ServiceConfig::default()
        };
        let mut s = DaemonSession::over(&net, &cp, &inv, cfg);
        for i in 0..2 {
            let line = batch("a", some_update(&net, 40 + i));
            assert_eq!(
                reply(&mut s, &line),
                format!("ok admitted=1 queued={}", i + 1)
            );
        }
        let err = reply(&mut s, &batch("a", some_update(&net, 50)));
        assert_eq!(err, "err shed: queue for source \"a\" is full (2 queued)");
        // Fairness: source "b" is unaffected by "a"'s full queue.
        let line = batch("b", some_update(&net, 51));
        assert!(reply(&mut s, &line).starts_with("ok "));
        let st = status(&mut s);
        let counts = ["admitted", "shed", "queued"].map(|k| int(&st, k));
        assert_eq!(counts, [3, 1, 3]);
        assert_eq!(reply(&mut s, "drain"), "ok processed=3");
        let st = status(&mut s);
        assert_eq!(int(&st, "queued"), 0);
        assert_eq!(int(&st, "processed"), 3);
    }

    #[test]
    fn block_policy_drains_instead_of_shedding() {
        let (net, cp, inv) = fixture();
        let cfg = ServiceConfig {
            policy: AdmissionPolicy::Block,
            per_source_cap: 1,
            ..ServiceConfig::default()
        };
        let mut s = DaemonSession::over(&net, &cp, &inv, cfg);
        assert!(reply(&mut s, &batch("a", some_update(&net, 40))).starts_with("ok "));
        // Queue full: this offer forces a drain, then admits.
        assert!(reply(&mut s, &batch("a", some_update(&net, 41))).starts_with("ok "));
        let st = status(&mut s);
        assert_eq!(int(&st, "shed"), 0);
        assert_eq!(int(&st, "processed"), 1, "the blocked offer drained first");
        assert_eq!(int(&st, "queued"), 1);
    }

    #[test]
    fn drain_is_round_robin_across_sources() {
        let (net, cp, inv) = fixture();
        let mut s = DaemonSession::over(&net, &cp, &inv, ServiceConfig::default());
        for i in 0..3 {
            assert!(reply(&mut s, &batch("a", some_update(&net, 40 + i))).starts_with("ok "));
        }
        assert!(reply(&mut s, &batch("b", some_update(&net, 50))).starts_with("ok "));
        // Two slots: one must go to each source, not both to "a".
        assert_eq!(reply(&mut s, "drain 2"), "ok processed=2");
        let st = status(&mut s);
        assert_eq!(
            crate::json::to_string(st.get("per_source").unwrap()),
            "{\"a\":1,\"b\":1}"
        );
        assert_eq!(reply(&mut s, "drain"), "ok processed=2");
    }

    #[test]
    fn service_report_matches_direct_replay_including_churn() {
        let (net, cp, inv) = fixture();
        let mut s = DaemonSession::over(&net, &cp, &inv, ServiceConfig::default());
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        let up = some_update(&net, 40);
        assert!(reply(&mut s, &batch("cp", up.clone())).starts_with("ok "));
        assert_eq!(reply(&mut s, "churn cp link-down B W"), "ok queued=2");
        assert_eq!(reply(&mut s, "drain"), "ok processed=2");
        assert_eq!(int(&status(&mut s), "epoch"), 1);

        let mut reference = Engine::new(&net, &cp, &inv.packet_space, EngineConfig::default());
        reference.run_to_quiescence();
        reference
            .apply_event(&RuntimeEvent::Batch(vec![up.clone()]))
            .unwrap();
        reference
            .apply_event(&RuntimeEvent::Topology {
                event: TopologyEvent::LinkDown(b, w),
                base: net.topology.clone(),
                invariant: inv.clone(),
            })
            .unwrap();
        assert_eq!(report(&mut s), reference.report().canonical_bytes());
        // SLO machinery saw the work: windows rolled, samples recorded.
        let slo = reply(&mut s, "slo");
        let slo = crate::json::parse(slo.strip_prefix("ok ").unwrap()).unwrap();
        assert!(int(&slo, "samples") > 0);
        assert!(int(&slo, "lag_samples") >= 2);
    }

    /// The session records histograms, counters and its journal but no
    /// span, and a repeated `report` splices what the first rendered.
    #[test]
    fn service_records_no_spans_and_reports_what_changed() {
        let (net, cp, inv) = fixture();
        let mut s = DaemonSession::over(&net, &cp, &inv, ServiceConfig::default());
        assert!(reply(&mut s, &batch("cp", some_update(&net, 40))).starts_with("ok "));
        reply(&mut s, "drain");
        let bytes = report(&mut s);
        assert_eq!(bytes, s.engine.report().canonical_bytes());
        let tel = Arc::clone(&s.tel);
        assert!(tel.spans().is_empty());
        assert!(tel.histogram(REPORT_BUILD.hist).count() > 0);
        let rendered = || tel.metrics().counters["tulkun_report_sources_rendered_total"];
        let first = rendered();
        assert!(first > 0, "the first report renders every source");
        assert_eq!(report(&mut s), bytes);
        assert_eq!(
            rendered(),
            first,
            "an unchanged source is not rendered again"
        );
    }

    #[test]
    fn lossy_service_converges_to_clean_report() {
        let (net, cp, inv) = fixture();
        let cfg = ServiceConfig {
            faults: Some(FaultProfile::loss(23, 0.10)),
            ..ServiceConfig::default()
        };
        let mut s = DaemonSession::over(&net, &cp, &inv, cfg);
        for i in 0..4 {
            assert!(reply(&mut s, &batch("s", some_update(&net, 40 + i))).starts_with("ok "));
        }
        assert_eq!(reply(&mut s, "drain"), "ok processed=4");
        let mut clean = Engine::new(&net, &cp, &inv.packet_space, EngineConfig::default());
        clean.run_to_quiescence();
        for i in 0..4 {
            clean
                .apply_event(&RuntimeEvent::Batch(vec![some_update(&net, 40 + i)]))
                .unwrap();
        }
        assert_eq!(report(&mut s), clean.report().canonical_bytes());
    }

    #[test]
    fn the_backend_follows_the_workload() {
        let (net, cp, inv) = line_fixture();
        let mut s = DaemonSession::over(&net, &cp, &inv, ServiceConfig::default());
        assert_eq!(backend(&mut s), "intervals");
        // A port in the base packet space, or in one FIB rule, is more
        // than the interval encoding holds.
        let web = Invariant {
            packet_space: inv.packet_space.clone().and(PacketSpace::dst_port(80)),
            ..inv.clone()
        };
        let cp_web = planned(&net, &web);
        let mut s = DaemonSession::over(&net, &cp_web, &web, ServiceConfig::default());
        assert_eq!(backend(&mut s), "bdd");
        let mut acl = net.clone();
        let b = acl.topology.device("B").unwrap();
        acl.fib_mut(b).insert(Rule {
            priority: 90,
            matches: MatchSpec::dst("10.0.0.0/24".parse().unwrap()).with_port(22),
            action: Action::Drop,
        });
        let mut s = DaemonSession::over(&acl, &cp, &inv, ServiceConfig::default());
        assert_eq!(backend(&mut s), "bdd");
    }

    #[test]
    fn backend_swap_preserves_report_and_queues() {
        let (net, cp, inv) = line_fixture();
        let mut s = DaemonSession::over(&net, &cp, &inv, ServiceConfig::default());
        assert_eq!(backend(&mut s), "intervals");
        // An intent over its own packet space, so the move re-hosts
        // nodes of two contexts.
        let narrow = "(dstIP=10.0.1.0/24, [B], (exist >= 1, /B .* D/ loop_free))";
        let b = net.topology.device("B").unwrap();
        let acl = RuleUpdate::Insert {
            device: b,
            rule: Rule {
                priority: 90,
                matches: MatchSpec::dst("10.0.0.0/24".parse().unwrap()).with_port(22),
                action: Action::Drop,
            },
        };
        let install = format!(
            "intent add s {{\"name\":\"narrow\",\"spec\":{}}}",
            crate::json::to_string(narrow)
        );
        assert_eq!(reply(&mut s, &install), "ok queued=1");
        assert!(reply(&mut s, &batch("s", some_update(&net, 40))).starts_with("ok "));
        assert_eq!(reply(&mut s, "drain"), "ok processed=2");
        let epoch = int(&status(&mut s), "epoch");
        // A rule the intervals cannot hold moves the session to BDDs
        // before it applies, with one more request queued under it.
        assert!(reply(&mut s, &batch("s", acl.clone())).starts_with("ok "));
        assert!(reply(&mut s, &batch("s", some_update(&net, 41))).starts_with("ok "));
        assert_eq!(reply(&mut s, "drain 1"), "ok processed=1");
        let st = status(&mut s);
        assert_eq!(st.get("backend").and_then(|b| b.as_str()), Some("bdd"));
        assert_eq!(
            (int(&st, "epoch"), int(&st, "queued")),
            (epoch, 1),
            "the lifecycle stays"
        );
        let events = reply(&mut s, "events *");
        let swaps = events.matches("\"kind\":\"backend_swap\"").count();
        assert_eq!(swaps, 1, "{events}");
        assert_eq!(reply(&mut s, "drain"), "ok processed=1");
        let mut reference = Engine::new(&net, &cp, &inv.packet_space, EngineConfig::default());
        reference.run_to_quiescence();
        let install = RuntimeEvent::InstallIntent {
            name: "narrow".to_string(),
            invariant: Invariant::parse(narrow).unwrap(),
        };
        let id = reference.apply_event(&install).unwrap().intent;
        assert_eq!(id, Some(IntentId(1)));
        for batch in [some_update(&net, 40), acl, some_update(&net, 41)] {
            reference
                .apply_event(&RuntimeEvent::Batch(vec![batch]))
                .unwrap();
        }
        assert_eq!(report(&mut s), reference.report().canonical_bytes());
    }
}
