//! One benchmark run: set-up, warm-up, the closed loop (one client,
//! one thread, in process), the counters around it, and the
//! correctness oracle.
//!
//! Everything end to end goes through the operator-facing line
//! protocol — `DaemonSession::handle_line` — and nothing else.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use tulkun::core::event::{RuntimeEvent, Substrate};
use tulkun::core::fault::FaultProfile;
use tulkun::core::intent::IntentId;
use tulkun::core::spec::Invariant;
use tulkun::core::verify::Session;
use tulkun::daemon::{dataset_session, DaemonConfig, DaemonSession};
use tulkun::datasets::{by_name, Scale};
use tulkun::netmodel::network::Network;
use tulkun::netmodel::topology::Topology;
use tulkun::predicate::BackendKind;
use tulkun::sim::{ServiceConfig, SwitchModel};

use crate::gen::{IntentSpec, Op, OpKind, Script, Workload};
use crate::oracle::canonical;
use crate::spool::Spool;
use crate::stats;
use crate::trace::Tracer;

/// Times a timed run sets up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Fault seed of the lossy twin.
const FAULT_SEED: u64 = 31;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Generator seed.
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: f64,
    /// Directory the traced run writes its Chrome trace into, if any.
    pub trace_dir: Option<PathBuf>,
    /// Directory inside the checkout for the Report spool.
    pub scratch: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (0 = not a sample statistic).
    pub samples: usize,
    /// Virtual-clock time, never to be added to a measured one.
    pub modelled: bool,
}

impl Metric {
    /// A measured metric.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            modelled: false,
        }
    }

    /// A modelled (virtual-clock) metric.
    pub fn modelled(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            modelled: true,
            ..Metric::new(name, value, unit, samples)
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops in the measured interval.
    pub attempted: u64,
    /// Ops that failed; every op when a run-wide check failed.
    pub failed: u64,
    /// Why, one line per failed check.
    pub failures: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// FNV-1a over every timed op's Report reply.
    pub digest: u64,
}

/// FNV-1a over 8-byte words (Reports run to tens of KB and one is
/// hashed between every two timed ops), the tail bytewise.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = h.wrapping_mul(PRIME).rotate_left(23);
    }
    for b in words.remainder() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h ^ (bytes.len() as u64).wrapping_mul(PRIME)
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// The span name of a protocol line's verb.
fn verb_span(line: &str) -> &'static str {
    let mut words = line.split_whitespace();
    match (words.next(), words.next()) {
        (Some("batch"), _) => "daemon.batch",
        (Some("churn"), _) => "daemon.churn",
        (Some("intent"), Some("add")) => "daemon.intent_add",
        (Some("intent"), _) => "daemon.intent_remove",
        (Some("drain"), _) => "daemon.drain",
        (Some("report"), _) => "daemon.report",
        (Some("status"), _) => "daemon.status",
        (Some("slo"), _) => "daemon.slo",
        (Some("metrics"), _) => "daemon.metrics",
        (Some("events"), _) => "daemon.events",
        (Some("explain"), _) => "daemon.explain",
        _ => "daemon.other",
    }
}

/// The verbs [`verb_span`] names, for the per-layer table.
pub const VERBS: [&str; 11] = [
    "batch",
    "drain",
    "report",
    "status",
    "slo",
    "metrics",
    "events",
    "explain",
    "intent_add",
    "intent_remove",
    "churn",
];

/// The program's published counters, read through the `metrics` line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// `tulkun_dvm_updates_total`.
    pub msgs: f64,
    /// `tulkun_convergence_lag_ns_sum` (virtual ns).
    pub lag_sum: f64,
    /// `tulkun_convergence_lag_ns_count`.
    pub lag_count: f64,
    /// `tulkun_dvm_handle_ns_sum`, with the switch model's CPU factor
    /// divided out: measured host ns.
    pub handle_ns: f64,
    /// `tulkun_dvm_handle_ns_count`.
    pub handle_count: f64,
    /// `tulkun_fib_batch_ns_sum`.
    pub fib_batch_ns: f64,
    /// `tulkun_lec_delta_ns_sum`.
    pub lec_delta_ns: f64,
    /// `tulkun_cib_recompute_ns_sum`.
    pub cib_ns: f64,
    /// `tulkun_epoch_bumps_total`.
    pub epoch_bumps: f64,
    /// `tulkun_reliable_sent_total`.
    pub sent: f64,
    /// `tulkun_reliable_retransmits_total`.
    pub retx: f64,
    /// `tulkun_reliable_dups_total`.
    pub dups: f64,
    /// `tulkun_reliable_gap_buffered_total`.
    pub gaps: f64,
}

impl Counters {
    /// Parses a `metrics` reply.
    pub fn parse(reply: &str) -> Counters {
        let mut m: BTreeMap<&str, f64> = BTreeMap::new();
        for line in reply.lines().skip(1) {
            if line.starts_with('#') || line.contains('{') {
                continue;
            }
            if let Some((name, value)) = line.split_once(' ') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    m.insert(name, v);
                }
            }
        }
        let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
        Counters {
            msgs: get("tulkun_dvm_updates_total"),
            lag_sum: get("tulkun_convergence_lag_ns_sum"),
            lag_count: get("tulkun_convergence_lag_ns_count"),
            // The service's simulator charges handle time through the
            // Mellanox switch model (measured host ns x cpu_factor).
            handle_ns: get("tulkun_dvm_handle_ns_sum") / SwitchModel::MELLANOX.cpu_factor,
            handle_count: get("tulkun_dvm_handle_ns_count"),
            fib_batch_ns: get("tulkun_fib_batch_ns_sum"),
            lec_delta_ns: get("tulkun_lec_delta_ns_sum"),
            cib_ns: get("tulkun_cib_recompute_ns_sum"),
            epoch_bumps: get("tulkun_epoch_bumps_total"),
            sent: get("tulkun_reliable_sent_total"),
            retx: get("tulkun_reliable_retransmits_total"),
            dups: get("tulkun_reliable_dups_total"),
            gaps: get("tulkun_reliable_gap_buffered_total"),
        }
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            msgs: self.msgs - earlier.msgs,
            lag_sum: self.lag_sum - earlier.lag_sum,
            lag_count: self.lag_count - earlier.lag_count,
            handle_ns: self.handle_ns - earlier.handle_ns,
            handle_count: self.handle_count - earlier.handle_count,
            fib_batch_ns: self.fib_batch_ns - earlier.fib_batch_ns,
            lec_delta_ns: self.lec_delta_ns - earlier.lec_delta_ns,
            cib_ns: self.cib_ns - earlier.cib_ns,
            epoch_bumps: self.epoch_bumps - earlier.epoch_bumps,
            sent: self.sent - earlier.sent,
            retx: self.retx - earlier.retx,
            dups: self.dups - earlier.dups,
            gaps: self.gaps - earlier.gaps,
        }
    }
}

/// The `status` fields the failure accounting reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Requests refused by admission control.
    pub shed: i64,
    /// Churn events the planner rejected.
    pub rejected_churn: i64,
    /// Intent requests rejected.
    pub rejected_intents: i64,
    /// Installs parked behind a fence.
    pub parked: i64,
    /// Requests still queued.
    pub queued: i64,
    /// Drain rounds run.
    pub drains: i64,
}

impl Status {
    /// Parses a `status` reply.
    pub fn parse(reply: &str) -> Status {
        let json = reply
            .strip_prefix("ok ")
            .and_then(|j| tulkun::json::parse(j).ok());
        let get = |k: &str| match json.as_ref().and_then(|j| j.get(k)) {
            Some(tulkun::json::Json::Int(n)) => *n,
            _ => -1,
        };
        Status {
            shed: get("shed"),
            rejected_churn: get("rejected_churn"),
            rejected_intents: get("rejected_intents"),
            parked: get("parked"),
            queued: get("queued"),
            drains: get("drains"),
        }
    }
}

/// The one client of the closed loop: sends a line, waits for the
/// reply.
pub struct Client {
    session: DaemonSession,
    /// Spans around every `handle_line` call (off on timed runs).
    pub tracer: Tracer,
    /// `err` replies seen so far.
    pub errs: u64,
    /// Largest `queued=` an admission reply reported.
    pub queued_max: u64,
}

/// One executed op.
pub struct Done {
    /// The op's kind.
    pub kind: OpKind,
    /// Wall clock from the first line sent to the last reply received.
    pub ms: f64,
    /// The `report` reply, `ok ` stripped.
    pub report: String,
}

impl Client {
    /// Sends one protocol line and returns the reply text.
    pub fn send(&mut self, line: &str) -> String {
        self.tracer.begin(verb_span(line));
        let reply = self
            .session
            .handle_line(line)
            .expect("script lines are requests")
            .text;
        self.tracer.end();
        if !reply.starts_with("ok") {
            self.errs += 1;
        }
        reply
    }

    /// Sends a line outside any span (the benchmark's own counter
    /// reads between ops).
    fn send_untraced(&mut self, line: &str) -> String {
        let was = self.tracer.enabled();
        if was {
            self.tracer.set_enabled(false);
        }
        let reply = self.send(line);
        if was {
            self.tracer.set_enabled(true);
        }
        reply
    }

    /// Reads the published counters.
    pub fn counters(&mut self) -> Counters {
        Counters::parse(&self.send_untraced("metrics"))
    }

    /// Reads the status line.
    pub fn status(&mut self) -> Status {
        Status::parse(&self.send_untraced("status"))
    }

    /// Executes one op: every line in order, timed as one.
    pub fn exec(&mut self, op: &Op, lines: &[String]) -> Done {
        let kind = op.kind();
        let mut report = String::new();
        self.tracer.begin(kind.span());
        let t0 = Instant::now();
        for line in lines {
            let reply = self.send(line);
            if line == "report" {
                report = reply;
            } else if let Some(q) = reply.rsplit_once("queued=") {
                self.queued_max = self.queued_max.max(q.1.trim().parse().unwrap_or(0));
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.tracer.end();
        if report.starts_with("ok ") {
            report.drain(..3);
        }
        Done { kind, ms, report }
    }
}

/// A set-up, warmed-up session with the script positioned at the first
/// timed op, and the history the reference has to replay.
pub struct Live {
    /// The client holding the daemon session.
    pub client: Client,
    /// The script, past its warm-up.
    pub script: Script,
    /// Intents installed during set-up.
    pub preinstalled: Vec<IntentSpec>,
    /// Warm-up ops already applied.
    pub warmup: Vec<Op>,
}

/// Sets a session up: dataset, plan, LEC build and initial burst
/// (`DaemonSession::new`), first report, pre-installs, warm-up.
pub fn setup(workload: Workload, seed: u64, mut tracer: Tracer) -> Live {
    let cfg = DaemonConfig {
        name: workload.dataset().to_string(),
        scale: Scale::Tiny,
        service: ServiceConfig {
            faults: workload.loss().map(|r| FaultProfile::loss(FAULT_SEED, r)),
            ..ServiceConfig::default()
        },
        drain_every: 0,
    };
    let session = tracer.scope("setup.session_new", || {
        DaemonSession::new(cfg).expect("benchmark datasets exist")
    });
    let topo = session.topology().clone();
    let mut script = Script::new(workload, seed, &topo);
    let mut client = Client {
        session,
        tracer,
        errs: 0,
        queued_max: 0,
    };
    client.tracer.begin("setup.first_report");
    client.send("report");
    client.tracer.end();
    let preinstalled = script.preinstall();
    client.tracer.begin("setup.preinstall");
    for intent in &preinstalled {
        client.send(&intent.add_line());
        client.send("drain");
    }
    client.tracer.end();
    let warmup = script.warmup();
    client.tracer.begin("setup.warmup");
    for op in &warmup {
        client.exec(op, &op.lines());
    }
    client.tracer.end();
    Live {
        client,
        script,
        preinstalled,
        warmup,
    }
}

/// The correctness oracle: a fresh synchronous `core::verify::Session`
/// fed the same admitted events through `Substrate::apply_event`. Every
/// op's Report must equal its Report in canonical form — over clean and
/// lossy management networks alike.
pub struct Reference {
    session: Session,
    base: Topology,
    inv: Invariant,
    /// Events the reference refused (the daemon must not have admitted
    /// them either: counted as failures).
    pub refused: u64,
}

impl Reference {
    /// The reference for `workload`, converged on the initial data
    /// plane, over an already generated dataset.
    pub fn new(workload: Workload, net: &Network) -> Reference {
        let (inv, cp) = dataset_session(net, workload.dataset()).expect("benchmark datasets plan");
        // Every workload matches on destination prefixes only, so the
        // reference can run on the interval backend: a second predicate
        // implementation under the oracle, and several times cheaper
        // than replaying on BDDs.
        let mut session =
            Session::from_counting_with_backend(net, cp, &inv.packet_space, BackendKind::Intervals);
        session.run_to_quiescence();
        Reference {
            session,
            base: net.topology.clone(),
            inv,
            refused: 0,
        }
    }

    fn event(&mut self, ev: RuntimeEvent) {
        if self.session.apply_event(&ev).is_err() {
            self.refused += 1;
        }
    }

    /// Installs a pre-installed intent.
    pub fn install(&mut self, intent: &IntentSpec) {
        match Invariant::parse(&intent.spec) {
            Ok(invariant) => self.event(RuntimeEvent::InstallIntent {
                name: intent.name.clone(),
                invariant,
            }),
            Err(_) => self.refused += 1,
        }
    }

    /// Applies the events one op admitted.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Fib(updates) => self.event(RuntimeEvent::Batch(updates.clone())),
            Op::Read(_) => {}
            Op::Swap { remove, add } => {
                self.event(RuntimeEvent::RemoveIntent(IntentId(*remove)));
                self.install(add);
            }
            Op::Link { event, .. } => self.event(RuntimeEvent::Topology {
                event: *event,
                base: self.base.clone(),
                invariant: self.inv.clone(),
            }),
        }
    }

    /// The canonical Report, as the daemon's `report` line prints it.
    pub fn report(&mut self) -> String {
        String::from_utf8_lossy(&self.session.report().canonical_bytes()).into_owned()
    }
}

/// Generates a workload's dataset (the reference's own copy; the
/// daemon generates its own inside `DaemonSession::new`).
pub fn dataset(workload: Workload) -> Network {
    by_name(workload.dataset(), Scale::Tiny)
        .expect("benchmark datasets exist")
        .network
}

/// `VmHWM` of this process in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The session-wide failure checks shared by timed and traced runs: any
/// `err` reply, any growth of the refusal counters, anything parked or
/// queued at the end.
pub fn session_failures(client: &Client, before: &Status, after: &Status) -> Vec<String> {
    let mut out = Vec::new();
    if client.errs > 0 {
        out.push(format!("{} err replies", client.errs));
    }
    for (name, a, b) in [
        ("shed", before.shed, after.shed),
        (
            "rejected_churn",
            before.rejected_churn,
            after.rejected_churn,
        ),
        (
            "rejected_intents",
            before.rejected_intents,
            after.rejected_intents,
        ),
    ] {
        if a != b || b < 0 {
            out.push(format!("{name} grew {a} -> {b}"));
        }
    }
    if after.parked != 0 || after.queued != 0 {
        out.push(format!(
            "run ended with parked={} queued={}",
            after.parked, after.queued
        ));
    }
    out
}

/// The latency samples of a run, per op kind, in ms.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub BTreeMap<OpKind, Vec<f64>>);

impl Samples {
    /// Records one op.
    pub fn push(&mut self, kind: OpKind, ms: f64) {
        self.0.entry(kind).or_default().push(ms);
    }

    /// The sorted sample of one kind.
    pub fn sorted(&self, kind: OpKind) -> Vec<f64> {
        let mut v = self.0.get(&kind).cloned().unwrap_or_default();
        stats::sort(&mut v);
        v
    }
}

/// Timed ops whose canonical Reports the printed digest folds: a fixed
/// prefix of the script, short enough that the slowest workload's
/// first session gets through it several times over, so the digest of
/// a seed is the same however many ops the host manages in `--seconds`.
pub const DIGEST_OPS: usize = 16;

/// Replays set-up and warm-up into a fresh reference.
pub fn reference_after_warmup(
    workload: Workload,
    net: &Network,
    preinstalled: &[IntentSpec],
    warmup: &[Op],
) -> Reference {
    let mut reference = Reference::new(workload, net);
    for intent in preinstalled {
        reference.install(intent);
    }
    for op in warmup {
        reference.apply(op);
    }
    reference
}

/// Hash of a Report in the oracle's canonical form.
pub fn report_hash(report: &str) -> u64 {
    fnv1a(FNV_BASIS, canonical(report).as_bytes())
}

/// A timed (untraced) run: the end-to-end metrics.
///
/// The run sets up [`SETUPS`] sessions one after the other and measures
/// each for its share of `--seconds`, on the same script: set-up time is
/// a median of several set-ups, latency samples pool several memory
/// layouts, and the oracle replays the script once.
pub fn run_timed(args: &RunArgs) -> Outcome {
    let share = Duration::from_secs_f64(args.seconds / SETUPS as f64);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut samples = Samples::default();
    // The script's timed ops, as far as the fastest session got.
    let mut ops: Vec<Op> = Vec::new();
    // Ops each session executed: a prefix of `ops`.
    let mut executed: Vec<usize> = Vec::new();
    let mut spool = Spool::create(&args.scratch).expect("spool file in the checkout");
    let mut busy = Duration::ZERO;
    let mut measured = Duration::ZERO;
    // Counter deltas, one per session.
    let mut deltas: Vec<Counters> = Vec::new();
    let mut failures = Vec::new();
    let mut history = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let Live {
            mut client,
            mut script,
            preinstalled,
            warmup,
            ..
        } = setup(args.workload, args.seed, Tracer::new(false));
        setups.push(t0.elapsed().as_secs_f64());

        let status0 = client.status();
        let counters0 = client.counters();
        let mut done_here = 0usize;
        let start = Instant::now();
        while start.elapsed() < share {
            let op = script.next_op();
            let lines = op.lines();
            let done = client.exec(&op, &lines);
            busy += Duration::from_secs_f64(done.ms / 1e3);
            samples.push(done.kind, done.ms);
            spool.push(done.report).expect("spooling a Report");
            if done_here == ops.len() {
                ops.push(op);
            }
            done_here += 1;
        }
        measured += start.elapsed();
        deltas.push(client.counters().since(&counters0));
        let status1 = client.status();
        failures.extend(session_failures(&client, &status0, &status1));
        eprintln!(
            "session {}: set-up {:.3} s, {done_here} ops",
            executed.len() + 1,
            setups[executed.len()],
        );
        executed.push(done_here);
        history = Some((preinstalled, warmup));
    }
    // Before the reference exists: the peak is the daemon's alone.
    let rss = rss_peak_mb();

    // The oracle, after the fact so it shares no cache with the timed
    // loops: replay set-up, warm-up and the script once, then hold every
    // session's every Report to the reference's.
    let t_oracle = Instant::now();
    let (preinstalled, warmup) = history.expect("SETUPS > 0");
    let net = dataset(args.workload);
    let mut reference = reference_after_warmup(args.workload, &net, &preinstalled, &warmup);
    // One reference Report per script op (reads repeat the last one).
    let mut want: Vec<Rc<String>> = Vec::with_capacity(ops.len());
    let mut last = Rc::new(reference.report());
    for op in &ops {
        if op.kind() != OpKind::Read {
            reference.apply(op);
            last = Rc::new(reference.report());
        }
        want.push(Rc::clone(&last));
    }
    let mut replies = spool.finish().expect("reopening the spool");
    let mut mismatched = 0u64;
    let mut digest = FNV_BASIS;
    for (session, n) in executed.iter().enumerate() {
        let mut equal = false;
        for (i, want_i) in want[..*n].iter().enumerate() {
            let Some((reply, repeat)) = replies.next_report().expect("reading the spool") else {
                mismatched += 1;
                continue;
            };
            // A repeated reply against a repeated reference keeps its
            // verdict; byte-equal needs no canonical form.
            if !(repeat && i > 0 && Rc::ptr_eq(want_i, &want[i - 1])) {
                equal = reply == want_i.as_str() || canonical(reply) == canonical(want_i);
            }
            mismatched += !equal as u64;
            if session == 0 && i < DIGEST_OPS {
                digest = fnv1a(digest, &report_hash(reply).to_le_bytes());
            }
        }
    }
    drop(replies);
    if reference.refused > 0 {
        failures.push(format!("reference refused {} events", reference.refused));
    }
    eprintln!(
        "phases: set-up x{SETUPS} {:.1} s, measured {:.1} s, oracle {:.1} s",
        setups.iter().sum::<f64>(),
        measured.as_secs_f64(),
        t_oracle.elapsed().as_secs_f64()
    );

    let attempted = executed.iter().sum::<usize>() as u64;
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} of {attempted} Report replies differ from the reference"
        ));
    }
    let failed = if failures.is_empty() { 0 } else { attempted };
    let primary = samples.sorted(args.workload.primary());
    let secondary = samples.sorted(args.workload.secondary());
    let wanted = args.workload.primary_tail();
    let (tail_p, tail) = stats::tail_at_most(&primary, wanted)
        .unwrap_or((1.0, primary.last().copied().unwrap_or(0.0)));
    if tail_p != wanted {
        eprintln!(
            "warning: primary_ms_tail taken at p{:.0}, not p{:.0}: only {} samples",
            tail_p * 100.0,
            wanted * 100.0,
            primary.len()
        );
    }
    let total = |field: fn(&Counters) -> f64| deltas.iter().map(field).sum::<f64>();
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setups), "s", setups.len()),
        Metric::new(
            "ops_per_s",
            attempted as f64 / busy.as_secs_f64(),
            "1/s",
            attempted as usize,
        ),
        Metric::new(
            "primary_ms_p50",
            stats::median(&primary),
            "ms",
            primary.len(),
        ),
        Metric::new("primary_ms_tail", tail, "ms", primary.len()),
        Metric::new(
            "secondary_ms_p50",
            stats::median(&secondary),
            "ms",
            secondary.len(),
        ),
        Metric::new(
            "msgs_per_op",
            total(|c| c.msgs) / attempted as f64,
            "count",
            attempted as usize,
        ),
        Metric::new("rss_peak_mb", rss, "MiB", 0),
        Metric::modelled(
            "converge_virt_ms_mean",
            total(|c| c.lag_sum) / total(|c| c.lag_count).max(1.0) / 1e6,
            "ms",
            total(|c| c.lag_count) as usize,
        ),
    ];
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        digest,
    }
}
