//! The traced run: the same script under the benchmark's own spans,
//! the program's published counters read around every op, the oracle
//! checking every op as it happens, and the probes. It yields the
//! per-layer metrics; no end-to-end figure comes from it.
//!
//! A quarter of `--seconds` runs with spans off first, on the very
//! session the traced part then continues on: the ratio of the two
//! medians is what watching costs (`trace.overhead_ratio`).

use std::time::{Duration, Instant};

use tulkun::daemon::dataset_session;

use crate::gen::{Op, OpKind, Workload};
use crate::oracle::canonical;
use crate::probes;
use crate::run::{
    dataset, fnv1a, reference_after_warmup, report_hash, session_failures, setup, Client, Counters,
    Done, Live, Metric, Outcome, Reference, RunArgs, Samples, DIGEST_OPS, FNV_BASIS, VERBS,
};
use crate::stats;
use crate::trace::{self, Span, Tracer};

/// The oracle, applied op by op.
struct Check {
    reference: Reference,
    want_raw: String,
    want: String,
    /// Ops whose Report differs from the reference's even in canonical
    /// form.
    mismatched: u64,
    /// Ops whose Report is equal only in canonical form.
    split: u64,
    checked: u64,
    digest: u64,
}

impl Check {
    fn new(mut reference: Reference) -> Check {
        let want_raw = reference.report();
        let want = canonical(&want_raw).into_owned();
        Check {
            reference,
            want_raw,
            want,
            mismatched: 0,
            split: 0,
            checked: 0,
            digest: FNV_BASIS,
        }
    }

    fn op(&mut self, op: &Op, done: &Done) {
        if op.kind() != OpKind::Read {
            self.reference.apply(op);
            self.want_raw = self.reference.report();
            self.want = canonical(&self.want_raw).into_owned();
        }
        if done.report != self.want_raw {
            if canonical(&done.report) == self.want {
                self.split += 1;
            } else {
                self.mismatched += 1;
            }
        }
        if (self.checked as usize) < DIGEST_OPS {
            self.digest = fnv1a(self.digest, &report_hash(&done.report).to_le_bytes());
        }
        self.checked += 1;
    }
}

/// What the traced loop keeps per op.
struct Record {
    kind: OpKind,
    ms: f64,
    delta: Counters,
    report_bytes: usize,
    violations: usize,
}

fn run_loop(
    client: &mut Client,
    script: &mut crate::gen::Script,
    check: &mut Check,
    budget: Duration,
    mut each: impl FnMut(&mut Client, &Op, &Done),
) -> Vec<Op> {
    let mut ops = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let op = script.next_op();
        let lines = op.lines();
        client.tracer.set_run(check.checked + 1);
        let done = client.exec(&op, &lines);
        each(client, &op, &done);
        check.op(&op, &done);
        ops.push(op);
    }
    ops
}

/// Durations in ms of the traced loop's spans called `name` (set-up
/// spans carry run 0 and are left out).
fn loop_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.run > 0 && s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// A traced run: the per-layer metrics.
pub fn run_traced(args: &RunArgs) -> Outcome {
    let workload: Workload = args.workload;
    let mut tracer = Tracer::new(true);
    let net = tracer.scope("setup.dataset", || dataset(workload));
    let Live {
        mut client,
        mut script,
        preinstalled,
        warmup,
        ..
    } = setup(workload, args.seed, tracer);
    let mut check = Check::new(reference_after_warmup(
        workload,
        &net,
        &preinstalled,
        &warmup,
    ));
    let status0 = client.status();

    // Untraced quarter.
    client.tracer.set_enabled(false);
    let mut untraced = Samples::default();
    let mut ops = run_loop(
        &mut client,
        &mut script,
        &mut check,
        Duration::from_secs_f64(args.seconds * 0.25),
        |_, _, done| untraced.push(done.kind, done.ms),
    );
    let untraced_ops = ops.len();

    // Traced three quarters: spans on, counters read after every op.
    client.tracer.set_enabled(true);
    let drains0 = client.status().drains;
    let first = client.counters();
    let mut prev = first;
    let mut records: Vec<Record> = Vec::new();
    ops.extend(run_loop(
        &mut client,
        &mut script,
        &mut check,
        Duration::from_secs_f64(args.seconds * 0.75),
        |client, _, done| {
            let now = client.counters();
            records.push(Record {
                kind: done.kind,
                ms: done.ms,
                delta: now.since(&prev),
                report_bytes: done.report.len(),
                violations: done.report.matches("{\"device\":").count(),
            });
            prev = now;
        },
    ));
    let totals = prev.since(&first);
    let status1 = client.status();
    let traced_ops = &ops[untraced_ops..];
    // Reads change nothing, so verifier and runtime work is per write.
    let writes = records.iter().filter(|r| r.kind != OpKind::Read).count();
    let n = writes.max(1) as f64;

    // Probes, on inputs the script itself produced.
    let mut tracer = std::mem::replace(&mut client.tracer, Tracer::new(false));
    tracer.set_run(0);
    let mut intents = preinstalled.clone();
    intents.extend(traced_ops.iter().filter_map(|op| match op {
        Op::Swap { add, .. } => Some(add.clone()),
        _ => None,
    }));
    let (base, _) = dataset_session(&net, workload.dataset()).expect("benchmark datasets plan");
    let mut probe_metrics = probes::parse_probes(&mut tracer, traced_ops, &intents);
    probe_metrics.extend(probes::planner_probes(&mut tracer, &net, &base, &intents));
    probe_metrics.push(probes::window_probe(&mut tracer, args.seed));
    probe_metrics.extend(probes::predicate_probes(&mut tracer, &net));

    let spans = tracer.spans();
    let own = trace::self_times_ns(spans);
    let mut metrics: Vec<Metric> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, samples: usize| {
        metrics.push(Metric::new(name, value, unit, samples));
    };

    // daemon: one span per protocol line, one per op.
    for verb in VERBS {
        let v = loop_ms(spans, &format!("daemon.{verb}"));
        push(
            &format!("daemon.{verb}_ms_p50"),
            stats::median(&v),
            "ms",
            v.len(),
        );
    }
    let ms_of = |kind: OpKind| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.ms)
            .collect()
    };
    for kind in OpKind::ALL {
        let v = ms_of(kind);
        push(
            &format!("op.{}_ms_p50", kind.name()),
            stats::median(&v),
            "ms",
            v.len(),
        );
    }
    let mut secondary = ms_of(workload.secondary());
    stats::sort(&mut secondary);
    push(
        "op.secondary_ms_tail",
        stats::tail_at_most(&secondary, 0.99).map_or(0.0, |(_, v)| v),
        "ms",
        secondary.len(),
    );
    let primary = ms_of(workload.primary());
    let quarter = (primary.len() / 4).max(1).min(primary.len());
    push(
        "daemon.op_drift_ratio",
        stats::median(&primary[primary.len() - quarter..])
            / stats::median(&primary[..quarter]).max(f64::MIN_POSITIVE),
        "ratio",
        primary.len(),
    );

    // service + report: what the replies themselves say.
    let bytes: Vec<f64> = records.iter().map(|r| r.report_bytes as f64).collect();
    let violations: Vec<f64> = records.iter().map(|r| r.violations as f64).collect();
    push(
        "report.reply_bytes_p50",
        stats::median(&bytes),
        "B",
        bytes.len(),
    );
    push(
        "report.violations_p50",
        stats::median(&violations),
        "count",
        violations.len(),
    );
    push(
        "report.split_share",
        check.split as f64 / check.checked.max(1) as f64,
        "ratio",
        check.checked as usize,
    );
    push("service.queued_max", client.queued_max as f64, "count", 0);
    push(
        "service.drains",
        (status1.drains - drains0) as f64,
        "count",
        0,
    );

    // verifier: the program's own histograms, differenced.
    let busy_ns = totals.fib_batch_ns + totals.handle_ns;
    for (name, ns) in [
        ("verifier.fib_batch_us_per_op", totals.fib_batch_ns),
        ("verifier.lec_delta_us_per_op", totals.lec_delta_ns),
        ("verifier.handle_us_per_op", totals.handle_ns),
        ("verifier.cib_recompute_us_per_op", totals.cib_ns),
    ] {
        push(name, ns / 1e3 / n, "us", writes);
    }
    push(
        "verifier.handle_us_per_msg",
        totals.handle_ns / 1e3 / totals.handle_count.max(1.0),
        "us",
        totals.handle_count as usize,
    );
    push("verifier.msgs_per_op", totals.msgs / n, "count", writes);

    // runtime: what `drain` spends outside the verifiers (scheduling,
    // fence, planning, transport) — by construction busy + residual is
    // the drain spans' self time.
    let drain_ns: f64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.run > 0 && s.name == "daemon.drain")
        .map(|(_, own)| *own as f64)
        .sum();
    push(
        "runtime.drain_residual_us_per_op",
        (drain_ns - busy_ns) / 1e3 / n,
        "us",
        writes,
    );
    push(
        "runtime.epoch_bumps_per_op",
        totals.epoch_bumps / n,
        "count",
        writes,
    );

    // reliable + faults: zero unless the management network is lossy.
    for (name, count) in [
        ("reliable.retx_per_msg", totals.retx),
        ("reliable.dup_per_msg", totals.dups),
        ("reliable.gap_buffered_per_msg", totals.gaps),
    ] {
        push(
            name,
            count / totals.sent.max(1.0),
            "ratio",
            totals.sent as usize,
        );
    }

    // set-up, by phase.
    for phase in [
        "dataset",
        "session_new",
        "first_report",
        "preinstall",
        "warmup",
    ] {
        let ms: f64 = trace::durations_ms(spans, &format!("setup.{phase}"))
            .iter()
            .sum();
        push(&format!("setup.{phase}_ms"), ms, "ms", 1);
    }

    // The trace judging itself.
    let (mut op_ns, mut covered_ns) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&own) {
        if s.run > 0 && s.parent.is_none() && s.name.starts_with("op.") {
            op_ns += s.dur_ns();
            covered_ns += s.dur_ns() - own;
        }
    }
    push(
        "trace.daemon_cover_share",
        covered_ns as f64 / op_ns.max(1) as f64,
        "ratio",
        records.len(),
    );
    let plain = untraced.sorted(workload.primary());
    push(
        "trace.overhead_ratio",
        stats::median(&primary) / stats::median(&plain).max(f64::MIN_POSITIVE),
        "ratio",
        plain.len(),
    );

    // Modelled: exact per op where one event converged in it.
    let virt: Vec<f64> = records
        .iter()
        .filter(|r| r.delta.lag_count == 1.0)
        .map(|r| r.delta.lag_sum / 1e6)
        .collect();
    metrics.push(Metric::modelled(
        "runtime.converge_virt_ms_p50",
        stats::median(&virt),
        "ms",
        virt.len(),
    ));
    metrics.extend(probe_metrics);

    if let Some(dir) = &args.trace_dir {
        let path = dir.join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_trace_json(spans)));
        if let Err(e) = written {
            eprintln!("warning: trace not written to {}: {e}", path.display());
        }
    }

    let attempted = check.checked;
    let mut failures = session_failures(&client, &status0, &status1);
    if check.reference.refused > 0 {
        failures.push(format!(
            "reference refused {} events",
            check.reference.refused
        ));
    }
    if check.mismatched > 0 {
        failures.push(format!(
            "{} of {attempted} Report replies differ from the reference",
            check.mismatched
        ));
    }
    Outcome {
        attempted,
        failed: if failures.is_empty() { 0 } else { attempted },
        failures,
        metrics,
        digest: check.digest,
    }
}
