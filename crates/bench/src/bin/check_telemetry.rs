//! CI validator for the telemetry exporters.
//!
//! The `obs-smoke` CI stage runs `tulkun trace` / `tulkun metrics` on a
//! tiny dataset and then runs this tool to assert the artifacts are
//! structurally sound — no timing is checked anywhere (the CI box has
//! 1 CPU), only shape:
//!
//! * `--trace <file>`: the file is Chrome `trace_event` JSON — a
//!   `traceEvents` array whose entries carry `ph`/`pid`/`tid`/`name`,
//!   spans (`ph: "X"`) carry `ts`/`dur`, and at least one causal trace
//!   id (`args.trace >= 1`) links spans on two or more distinct `tid`s
//!   (devices) — the cross-device UPDATE-wave reconstruction the
//!   telemetry subsystem exists for.
//! * `--metrics <file>`: the file is Prometheus text exposition —
//!   `# TYPE` lines, `name{labels} value` samples, and every histogram
//!   has monotonically non-decreasing cumulative buckets ending in
//!   `le="+Inf"` plus `_sum` and `_count` lines, with `_count` equal
//!   to the `+Inf` bucket, in at most [`MAX_LE_LINES`] `le` lines
//!   (one per power of two the histogram spans); a repair wave is a
//!   kind of fence, so `tulkun_fence_repairs_total` never exceeds
//!   `tulkun_epoch_bumps_total`; the per-device predicate-memory
//!   gauges `tulkun_bdd_nodes` / `tulkun_bdd_memo_entries` are
//!   exported, the memo within its bound of `max(4096, 4 x nodes)`;
//!   and the control plane's work counters ([`CONTROL_COUNTERS`]:
//!   planner runs and scene-table hits, tasks shipped, nodes removed
//!   and nodes kept verbatim by churn fences) are exported (from zero:
//!   a run without churn still shows all of them).
//! * `--journal <file>`: the file is a `tulkun-journal-v1` flight-
//!   recorder dump — `schema`/`dropped`/`events`, every event carries
//!   `seq`/`kind`/`device`/`epoch`/`trace`/`detail`, `kind` is one of
//!   the known snake_case names, and `seq` is strictly increasing
//!   (the journal's total deterministic order).
//! * `--explain <file>`: the file is a `tulkun-explain-v1` causal
//!   explanation — `subject`/`verdict`/`considered` plus a ranked
//!   `causes` array whose entries each embed a full journal event.
//! * `--expect-empty`: inverts the non-emptiness requirements — the
//!   trace must have zero events, the metrics text must be empty, and
//!   a journal file must be zero bytes, which is what a run with
//!   telemetry disabled must produce.
//!
//! Usage: `check_telemetry [--expect-empty] [--trace f.json]
//! [--metrics f.prom] [--journal f.json] [--explain f.json]`

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::process::ExitCode;
use tulkun_json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let expect_empty = args.iter().any(|a| a == "--expect-empty");
    let trace = get("--trace");
    let metrics = get("--metrics");
    let journal = get("--journal");
    let explain = get("--explain");
    if trace.is_none() && metrics.is_none() && journal.is_none() && explain.is_none() {
        eprintln!(
            "usage: check_telemetry [--expect-empty] [--trace f.json] [--metrics f.prom] \
             [--journal f.json] [--explain f.json]"
        );
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    type Checker = fn(&str, bool) -> Result<(), String>;
    let checks: [(Option<String>, Checker); 4] = [
        (trace, check_trace),
        (metrics, check_metrics),
        (journal, check_journal),
        (explain, check_explain),
    ];
    for (path, check) in checks {
        let Some(path) = path else { continue };
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if let Err(e) = check(&text, expect_empty) {
                    eprintln!("check_telemetry: {path}: {e}");
                    failed = true;
                } else {
                    println!("check_telemetry: ok {path}");
                }
            }
            Err(e) => {
                eprintln!("check_telemetry: cannot read {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn int_of(v: &Json) -> Option<i64> {
    match v {
        Json::Int(i) => Some(*i),
        Json::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}

/// Validates Chrome `trace_event` JSON (structure only).
fn check_trace(text: &str, expect_empty: bool) -> Result<(), String> {
    let doc = tulkun_json::parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("no traceEvents array")?;
    if expect_empty {
        return if events.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "expected an empty trace (telemetry disabled), found {} event(s)",
                events.len()
            ))
        };
    }
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    // args.trace id -> set of tids (devices) that carry a span with it.
    let mut waves: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(int_of)
                .ok_or(format!("event {i}: missing {key}"))?;
        }
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        match ph {
            "M" => {} // metadata (thread_name) has no timestamp
            "X" | "i" => {
                ev.get("ts")
                    .and_then(|t| match t {
                        Json::Int(_) | Json::Float(_) => Some(()),
                        _ => None,
                    })
                    .ok_or(format!("event {i}: {ph} event missing numeric ts"))?;
                if ph == "X" {
                    spans += 1;
                    ev.get("dur")
                        .and_then(|t| match t {
                            Json::Int(_) | Json::Float(_) => Some(()),
                            _ => None,
                        })
                        .ok_or(format!("event {i}: X event missing numeric dur"))?;
                }
                let trace = ev
                    .get("args")
                    .and_then(|a| a.get("trace"))
                    .and_then(int_of)
                    .ok_or(format!("event {i}: missing args.trace"))?;
                let tid = ev.get("tid").and_then(int_of).unwrap();
                if trace >= 1 {
                    waves.entry(trace).or_default().insert(tid);
                }
            }
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    if spans == 0 {
        return Err("no complete (ph: X) spans".into());
    }
    let Some((trace, tids)) = waves.iter().max_by_key(|(_, tids)| tids.len()) else {
        return Err("no span carries a causal trace id >= 1".into());
    };
    if tids.len() < 2 {
        return Err(format!(
            "no causal trace id links spans on >= 2 devices (best: trace {trace} on {} device(s))",
            tids.len()
        ));
    }
    println!(
        "check_telemetry: {} events, {spans} spans, trace {trace} spans {} devices",
        events.len(),
        tids.len()
    );
    Ok(())
}

/// Per-histogram accumulator while scanning the exposition text.
#[derive(Default)]
struct HistAcc {
    /// Bucket counts in file order.
    buckets: Vec<u64>,
    /// Whether the `le="+Inf"` bucket has been seen (must be last).
    saw_inf: bool,
    sum: Option<f64>,
    count: Option<u64>,
}

/// The control plane's work counters, exported from zero.
const CONTROL_COUNTERS: [&str; 6] = [
    "tulkun_planner_calls_total",
    "tulkun_plan_table_hits_total",
    "tulkun_plan_unaffected_total",
    "tulkun_fence_tasks_shipped_total",
    "tulkun_fence_nodes_removed_total",
    "tulkun_fence_nodes_reused_total",
];

/// The most `le` lines one histogram may export, `+Inf` included: its
/// power-of-two edges span at most 31 octaves.
const MAX_LE_LINES: usize = 32;

/// Validates Prometheus text exposition (structure only).
fn check_metrics(text: &str, expect_empty: bool) -> Result<(), String> {
    if expect_empty {
        return if text.trim().is_empty() {
            Ok(())
        } else {
            Err("expected empty metrics output (telemetry disabled)".into())
        };
    }
    if text.trim().is_empty() {
        return Err("metrics output is empty".into());
    }
    let mut hists: BTreeMap<String, HistAcc> = BTreeMap::new();
    let mut samples = 0usize;
    let (mut bumps, mut repairs) = (0.0f64, 0.0f64);
    let (mut bdd_nodes, mut bdd_memo) = (None, None);
    let mut control_counters: Vec<&str> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next(), it.next());
            match (name, kind) {
                // Declaring the histogram first is what tells its
                // `_sum`/`_count` series from a gauge that merely ends
                // in `_count` (`tulkun_intent_count`).
                (Some(name), Some("histogram")) => {
                    hists.entry(name.to_string()).or_default();
                }
                (Some(_), Some("counter" | "gauge")) => {}
                _ => return Err(format!("line {}: malformed TYPE line", lineno + 1)),
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {}: no sample value", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: non-numeric value {value:?}", lineno + 1))?;
        samples += 1;
        if let Some((name, labels)) = name_part.split_once('{') {
            let labels = labels.strip_suffix('}').ok_or(format!(
                "line {}: unterminated label set {labels:?}",
                lineno + 1
            ))?;
            if let Some(le) = labels
                .strip_prefix("le=\"")
                .and_then(|l| l.strip_suffix('"'))
            {
                let base = name.strip_suffix("_bucket").ok_or(format!(
                    "line {}: le-labeled sample is not a _bucket",
                    lineno + 1
                ))?;
                let h = hists.entry(base.to_string()).or_default();
                if h.saw_inf {
                    return Err(format!("line {}: bucket after le=\"+Inf\"", lineno + 1));
                }
                h.buckets.push(value as u64);
                if le == "+Inf" {
                    h.saw_inf = true;
                }
            } else {
                // A labeled gauge/counter series (e.g. per-intent
                // freshness `tulkun_intent_fresh{intent="0"}`): the
                // label must at least be a `key="value"` pair.
                let well_formed = labels
                    .split_once("=\"")
                    .is_some_and(|(k, v)| !k.is_empty() && v.ends_with('"'));
                if !well_formed {
                    return Err(format!("line {}: malformed labels {labels:?}", lineno + 1));
                }
            }
        } else if let Some(h) = name_part
            .strip_suffix("_sum")
            .and_then(|base| hists.get_mut(base))
        {
            h.sum = Some(value);
        } else if let Some(h) = name_part
            .strip_suffix("_count")
            .and_then(|base| hists.get_mut(base))
        {
            h.count = Some(value as u64);
        } else if name_part == "tulkun_epoch_bumps_total" {
            bumps = value;
        } else if name_part == "tulkun_fence_repairs_total" {
            repairs = value;
        } else if name_part == "tulkun_bdd_nodes" {
            bdd_nodes = Some(value);
        } else if name_part == "tulkun_bdd_memo_entries" {
            bdd_memo = Some(value);
        } else if let Some(name) = CONTROL_COUNTERS.iter().find(|c| **c == name_part) {
            control_counters.push(name);
        }
    }
    if samples == 0 {
        return Err("no samples".into());
    }
    if repairs > bumps {
        return Err(format!(
            "tulkun_fence_repairs_total {repairs} exceeds tulkun_epoch_bumps_total {bumps}"
        ));
    }
    // Both gauges report the heaviest device, so the heaviest memo is
    // within the bound of the heaviest table.
    match (bdd_nodes, bdd_memo) {
        (Some(nodes), Some(memo)) if memo <= (4.0 * nodes).max(4096.0) => {}
        (Some(nodes), Some(memo)) => {
            return Err(format!(
                "tulkun_bdd_memo_entries {memo} exceeds its bound beside tulkun_bdd_nodes {nodes}"
            ))
        }
        _ => return Err("missing tulkun_bdd_nodes / tulkun_bdd_memo_entries gauge".into()),
    }
    if let Some(missing) = CONTROL_COUNTERS
        .iter()
        .find(|c| !control_counters.contains(c))
    {
        return Err(format!("missing {missing} counter"));
    }
    for (name, h) in &hists {
        if h.buckets.is_empty() {
            return Err(format!("histogram {name}: no buckets"));
        }
        if !h.saw_inf {
            return Err(format!("histogram {name}: missing le=\"+Inf\" bucket"));
        }
        if h.buckets.len() > MAX_LE_LINES {
            return Err(format!(
                "histogram {name}: {} le lines, more than {MAX_LE_LINES}",
                h.buckets.len()
            ));
        }
        if h.buckets.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("histogram {name}: buckets not cumulative"));
        }
        if h.sum.is_none() {
            return Err(format!("histogram {name}: missing _sum"));
        }
        let count = h.count.ok_or(format!("histogram {name}: missing _count"))?;
        if count != *h.buckets.last().unwrap() {
            return Err(format!(
                "histogram {name}: _count {count} != +Inf bucket {}",
                h.buckets.last().unwrap()
            ));
        }
    }
    println!(
        "check_telemetry: {samples} samples, {} histogram(s) validated",
        hists.len()
    );
    Ok(())
}

/// The stable snake_case journal event names of `JournalKind::as_str`.
const JOURNAL_KINDS: &[&str] = &[
    "batch_applied",
    "epoch_fence",
    "topology_churn",
    "churn_rejected",
    "intent_installed",
    "intent_removed",
    "intent_rejected",
    "fault_injected",
    "retransmit",
    "crash_restart",
    "watchdog_stall",
    "admission_shed",
    "admission_blocked",
    "slo_breach",
    "backend_swap",
];

/// Validates one journal event object (shared by the journal and
/// explain checkers); `what` names it in error messages.
fn check_journal_event(ev: &Json, what: &str) -> Result<(), String> {
    let kind = ev
        .get("kind")
        .and_then(Json::as_str)
        .ok_or(format!("{what}: missing kind"))?;
    if !JOURNAL_KINDS.contains(&kind) {
        return Err(format!("{what}: unknown kind {kind:?}"));
    }
    for key in ["seq", "device", "epoch", "trace"] {
        let v = ev
            .get(key)
            .and_then(int_of)
            .ok_or(format!("{what}: missing integer {key}"))?;
        if v < 0 {
            return Err(format!("{what}: negative {key}"));
        }
    }
    ev.get("detail")
        .and_then(Json::as_str)
        .ok_or(format!("{what}: missing detail"))?;
    Ok(())
}

/// Validates a `tulkun-journal-v1` flight-recorder dump. With
/// `--expect-empty` the file must be zero bytes — the telemetry-off
/// path writes no journal at all.
fn check_journal(text: &str, expect_empty: bool) -> Result<(), String> {
    if expect_empty {
        return if text.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "expected a zero-byte journal (telemetry disabled), found {} byte(s)",
                text.len()
            ))
        };
    }
    let doc = tulkun_json::parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("tulkun-journal-v1") => {}
        other => return Err(format!("bad schema {other:?}")),
    }
    let dropped = doc
        .get("dropped")
        .and_then(int_of)
        .ok_or("missing integer dropped")?;
    if dropped < 0 {
        return Err("negative dropped count".into());
    }
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .ok_or("no events array")?;
    if events.is_empty() {
        return Err("journal dump has no events".into());
    }
    let mut last_seq = 0i64;
    for (i, ev) in events.iter().enumerate() {
        check_journal_event(ev, &format!("event {i}"))?;
        let seq = ev.get("seq").and_then(int_of).unwrap();
        if seq <= last_seq {
            return Err(format!(
                "event {i}: seq {seq} not strictly increasing (prev {last_seq})"
            ));
        }
        last_seq = seq;
    }
    println!(
        "check_telemetry: journal ok — {} event(s), {dropped} dropped",
        events.len()
    );
    Ok(())
}

/// Validates a `tulkun-explain-v1` causal explanation.
fn check_explain(text: &str, expect_empty: bool) -> Result<(), String> {
    if expect_empty {
        return if text.is_empty() {
            Ok(())
        } else {
            Err("expected no explanation (telemetry disabled)".into())
        };
    }
    let doc = tulkun_json::parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("tulkun-explain-v1") => {}
        other => return Err(format!("bad schema {other:?}")),
    }
    for key in ["subject", "verdict"] {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or(format!("missing string {key}"))?;
    }
    let considered = doc
        .get("considered")
        .and_then(int_of)
        .ok_or("missing integer considered")?;
    let causes = doc
        .get("causes")
        .and_then(Json::as_array)
        .ok_or("no causes array")?;
    if causes.is_empty() {
        return Err("explanation names no causes".into());
    }
    if (causes.len() as i64) > considered {
        return Err(format!(
            "{} causes but only {considered} considered",
            causes.len()
        ));
    }
    let mut last_rank = i64::MIN;
    for (i, c) in causes.iter().enumerate() {
        let rank = c
            .get("rank")
            .and_then(int_of)
            .ok_or(format!("cause {i}: missing integer rank"))?;
        if rank < last_rank {
            return Err(format!(
                "cause {i}: rank {rank} out of order (causes must be most-severe first)"
            ));
        }
        last_rank = rank;
        c.get("reason")
            .and_then(Json::as_str)
            .ok_or(format!("cause {i}: missing reason"))?;
        let ev = c.get("event").ok_or(format!("cause {i}: missing event"))?;
        check_journal_event(ev, &format!("cause {i} event"))?;
    }
    println!(
        "check_telemetry: explanation ok — {} cause(s) of {considered} considered",
        causes.len()
    );
    Ok(())
}
