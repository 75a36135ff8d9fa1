//! The always-on daemon behind `tulkun daemon`: a line-oriented
//! request protocol over a long-lived [`Service`].
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
//! the service observes an SLO breach or an `Unreachable` verdict.
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

use crate::core::churn::TopologyEvent;
use crate::core::explain::Subject;
use crate::core::intent::IntentId;
use crate::core::planner::{CountingPlan, Planner};
use crate::core::spec::{table1, Invariant};
use crate::datasets::{Dataset, Scale};
use crate::netmodel::network::{Network, RuleUpdate};
use crate::netmodel::topology::Topology;
use crate::sim::{AdmissionPolicy, Service, ServiceConfig, ServiceRequest};
use crate::telemetry::SloPolicy;

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
/// ([`table1::subset_reachability_to`], the §9.3.1 workload shape).
/// This is the session behind `tulkun trace`/`metrics`/`churn` and the
/// daemon.
pub fn dataset_session(net: &Network, name: &str) -> Result<(Invariant, CountingPlan), String> {
    let topo = &net.topology;
    let (dst, _) = topo
        .external_map()
        .next()
        .ok_or_else(|| format!("dataset {name:?} announces no external prefixes"))?;
    let inv = table1::subset_reachability_to(topo, dst).map_err(|e| e.to_string())?;
    let plan = Planner::new(topo)
        .plan(&inv)
        .map_err(|e| format!("planning failed: {e}"))?;
    let cp = plan
        .counting()
        .ok_or("invariant planned as a local contract; nothing to drive")?
        .clone();
    Ok((inv, cp))
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

/// The long-lived session `tulkun daemon` drives: parses protocol
/// lines, admits work into the [`Service`], answers snapshots.
pub struct DaemonSession {
    service: Service,
    topo: Topology,
    drain_every: usize,
    since_drain: usize,
    journal_dump: Option<std::path::PathBuf>,
}

impl DaemonSession {
    /// Builds the session: dataset by name → counting plan → service
    /// (initial burst included).
    pub fn new(cfg: DaemonConfig) -> Result<DaemonSession, String> {
        let ds = load_dataset(&cfg.name, cfg.scale)?;
        let (inv, cp) = dataset_session(&ds.network, &cfg.name)?;
        let service = Service::new(&ds.network, &cp, &inv, cfg.service);
        Ok(DaemonSession {
            service,
            topo: ds.network.topology.clone(),
            drain_every: cfg.drain_every,
            since_drain: 0,
            journal_dump: None,
        })
    }

    /// Arms the journal auto-dump: whenever the service flags an SLO
    /// breach or an `Unreachable` verdict, the full journal is written
    /// to `path` (overwriting the previous dump).
    pub fn set_journal_dump(&mut self, path: impl Into<std::path::PathBuf>) {
        self.journal_dump = Some(path.into());
    }

    /// Writes the journal to the armed dump path if the service has a
    /// dump pending. Returns the path written to, if any.
    pub fn maybe_dump_journal(&mut self) -> std::io::Result<Option<std::path::PathBuf>> {
        let Some(path) = self.journal_dump.clone() else {
            // No dump armed: leave the pending flag for an embedder
            // that polls `Service::take_dump_pending` itself.
            return Ok(None);
        };
        if !self.service.take_dump_pending() {
            return Ok(None);
        }
        std::fs::write(&path, self.service.journal_json())?;
        Ok(Some(path))
    }

    /// Direct access to the underlying service (tests, embedding).
    pub fn service_mut(&mut self) -> &mut Service {
        &mut self.service
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
                let n = self.service.drain_upto(max);
                self.since_drain = 0;
                Reply::ok(format!("processed={n}"))
            }
            "report" => {
                let bytes = self.service.report_bytes();
                Reply::ok(String::from_utf8_lossy(&bytes).into_owned())
            }
            "status" => Reply::ok(crate::json::to_string(&self.service.status().to_json())),
            "slo" => Reply::ok(crate::json::to_string(&self.service.slo().to_json())),
            "metrics" => {
                let text = self.service.metrics_text();
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
        let n = updates.len();
        match self.service.offer(source, ServiceRequest::Batch(updates)) {
            Ok(()) => {
                self.after_admit();
                Reply::ok(format!("admitted={n} queued={}", self.service.queued()))
            }
            Err(e) => Reply::err(e.to_string()),
        }
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
        match self.service.offer(parts[0], ServiceRequest::Churn(ev)) {
            Ok(()) => {
                self.after_admit();
                Reply::ok(format!("queued={}", self.service.queued()))
            }
            Err(e) => Reply::err(e.to_string()),
        }
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
                ServiceRequest::IntentAdd {
                    name: name.to_string(),
                    invariant,
                }
            }
            "remove" => match arg.trim().parse::<u64>() {
                Ok(id) => ServiceRequest::IntentRemove(IntentId(id)),
                Err(_) => return Reply::err(format!("bad intent id {arg:?}")),
            },
            _ => return Reply::err(USAGE),
        };
        match self.service.offer(source, req) {
            Ok(()) => {
                self.after_admit();
                Reply::ok(format!("queued={}", self.service.queued()))
            }
            Err(e) => Reply::err(e.to_string()),
        }
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
        let events = self.service.telemetry().journal_visible_to(filter, limit);
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
    /// journal entries visible to `source` (`*` = every source), as
    /// one `tulkun-explain-v1` JSON line.
    fn handle_explain(&mut self, rest: &str) -> Reply {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [source, subject] = parts.as_slice() else {
            return Reply::err("usage: explain <source|*> <node|intent:<id>>");
        };
        let filter = (*source != "*").then_some(*source);
        let explained = Subject::parse(subject, &self.topo)
            .and_then(|subject| self.service.explain(filter, subject));
        match explained {
            Ok(explanation) => Reply::ok(explanation.to_json()),
            Err(e) => Reply::err(e),
        }
    }

    fn handle_config(&mut self, rest: &str) -> Reply {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.as_slice() {
            ["policy", p] => {
                let policy = match *p {
                    "shed" => AdmissionPolicy::Shed,
                    "block" => AdmissionPolicy::Block,
                    other => return Reply::err(format!("unknown policy {other:?}")),
                };
                self.service.set_policy(policy);
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
                        self.service.set_slo(SloPolicy {
                            p50_ns,
                            p90_ns,
                            p99_ns,
                            lag_p99_ns,
                            ..*self.service_slo_policy()
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

    fn service_slo_policy(&self) -> &SloPolicy {
        // The tracker's current policy (windows/min_samples survive a
        // budget edit).
        self.service.slo_policy()
    }

    fn after_admit(&mut self) {
        self.since_drain += 1;
        if self.drain_every > 0 && self.since_drain >= self.drain_every {
            self.service.drain();
            self.since_drain = 0;
        }
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
