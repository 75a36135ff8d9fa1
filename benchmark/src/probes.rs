//! Probes: timed direct calls into single layers, on inputs captured
//! from the workload's own script. They run after the traced loop, each
//! under a `probe.<layer>.<fn>` span, and feed per-layer metrics only —
//! no end-to-end figure ever comes from a probe.

use std::hint::black_box;
use std::time::Instant;

use tulkun::core::dpvnet::NodeId;
use tulkun::core::dvm::message::{EdgeRef, Envelope, Payload};
use tulkun::core::dvm::reliable::{Accepted, ReceiverLedger, SenderWindow};
use tulkun::core::planner::Planner;
use tulkun::core::spec::Invariant;
use tulkun::netmodel::network::{Network, RuleUpdate};
use tulkun::netmodel::topology::DeviceId;
use tulkun::predicate::{lecs, BackendKind, DynBackend, PredicateBackend};

use crate::gen::{IntentSpec, Op};
use crate::rng::Rng;
use crate::run::Metric;
use crate::stats;
use crate::trace::Tracer;

/// Envelopes the reliability-window probe pushes through.
const WINDOW_ENVELOPES: usize = 100_000;

/// Device FIBs the LEC-build probe compresses (the first by id). All of
/// AT2-2 takes the Delta-net backend over three minutes.
const LEC_PROBE_DEVICES: usize = 4;

fn timed<T>(tracer: &mut Tracer, span: &str, f: impl FnOnce() -> T) -> (T, f64) {
    tracer.begin(span);
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as f64;
    tracer.end();
    (out, ns)
}

/// `json` / `spec`: decoding the script's own `batch` payloads and
/// parsing its own intent specs.
pub fn parse_probes(tracer: &mut Tracer, ops: &[Op], intents: &[IntentSpec]) -> Vec<Metric> {
    let mut decode_us = Vec::new();
    let mut line_bytes = Vec::new();
    for op in ops {
        if let Op::Fib(updates) = op {
            let json = tulkun::json::to_string(updates);
            line_bytes.push((json.len() + "batch cp ".len()) as f64);
            let (decoded, ns) = timed(tracer, "probe.json.from_str", || {
                tulkun::json::from_str::<Vec<RuleUpdate>>(black_box(&json))
            });
            assert_eq!(decoded.as_deref().ok(), Some(updates.as_slice()));
            decode_us.push(ns / 1e3);
        }
    }
    let mut parse_us = Vec::new();
    for intent in intents {
        let (parsed, ns) = timed(tracer, "probe.spec.parse", || {
            Invariant::parse(black_box(&intent.spec))
        });
        assert!(parsed.is_ok(), "scripted spec parses");
        parse_us.push(ns / 1e3);
    }
    vec![
        Metric::new(
            "json.batch_decode_us_p50",
            stats::median(&decode_us),
            "us",
            decode_us.len(),
        ),
        Metric::new(
            "json.batch_line_bytes",
            stats::median(&line_bytes),
            "B",
            line_bytes.len(),
        ),
        Metric::new(
            "spec.parse_us_p50",
            stats::median(&parse_us),
            "us",
            parse_us.len(),
        ),
    ]
}

/// `planner`: planning each scripted intent, and the base invariant
/// (what every topology event re-plans).
pub fn planner_probes(
    tracer: &mut Tracer,
    net: &Network,
    base: &Invariant,
    intents: &[IntentSpec],
) -> Vec<Metric> {
    let planner = Planner::new(&net.topology);
    let mut intent_ms = Vec::new();
    let mut tasks = Vec::new();
    for intent in intents {
        let inv = Invariant::parse(&intent.spec).expect("scripted spec parses");
        let (plan, ns) = timed(tracer, "probe.planner.plan_intent", || {
            planner.plan(black_box(&inv))
        });
        let plan = plan.expect("scripted intent plans");
        tasks.push(plan.counting().map_or(0, |c| c.tasks.len()) as f64);
        intent_ms.push(ns / 1e6);
    }
    let base_ms: Vec<f64> = (0..3)
        .map(|_| {
            let (plan, ns) = timed(tracer, "probe.planner.plan_base", || {
                planner.plan(black_box(base))
            });
            assert!(plan.is_ok(), "base invariant plans");
            ns / 1e6
        })
        .collect();
    vec![
        Metric::new(
            "planner.intent_plan_ms_p50",
            stats::median(&intent_ms),
            "ms",
            intent_ms.len(),
        ),
        Metric::new(
            "planner.base_plan_ms_p50",
            stats::median(&base_ms),
            "ms",
            base_ms.len(),
        ),
        Metric::new(
            "planner.tasks_per_intent",
            if tasks.is_empty() {
                0.0
            } else {
                tasks.iter().sum::<f64>() / tasks.len() as f64
            },
            "count",
            tasks.len(),
        ),
    ]
}

/// `reliable`: `SenderWindow::assign` → `ReceiverLedger::accept` →
/// `SenderWindow::ack` over synthetic envelopes on 16 channels, sent in
/// pairs: once delivered in order, once with a seeded 10 % of the pairs
/// delivered swapped (a gap the ledger has to buffer and release).
/// Reported per envelope over both passes.
pub fn window_probe(tracer: &mut Tracer, seed: u64) -> Metric {
    let envelope = |channel: usize| {
        Envelope::data(
            DeviceId(channel as u32),
            DeviceId(16 + channel as u32),
            Payload::Update {
                edge: EdgeRef {
                    up: NodeId(1),
                    down: NodeId(2),
                },
                withdrawn: Vec::new(),
                results: Vec::new(),
            },
        )
    };
    let mut rng = Rng::new(seed, 3);
    let ((), ns) = timed(tracer, "probe.reliable.window", || {
        for gaps in [false, true] {
            let mut window = SenderWindow::new();
            let mut ledger = ReceiverLedger::new();
            for pair in 0..WINDOW_ENVELOPES / 2 {
                let now = pair as u64;
                let mut arrivals = [envelope(pair % 16), envelope(pair % 16)];
                for env in &mut arrivals {
                    window
                        .assign(env, now, 1_000_000)
                        .expect("acks keep the window open");
                }
                if gaps && rng.chance(0.10) {
                    arrivals.swap(0, 1);
                }
                for env in arrivals {
                    let (ch, seq) = ((env.from, env.to), env.seq);
                    // Buffered and duplicate arrivals are acked too.
                    window.ack(ch, seq);
                    let accepted = ledger.accept(now, env).expect("buffer below its cap");
                    black_box(matches!(accepted, Accepted::Ready(_)));
                }
            }
            assert!(window.is_empty() && ledger.buffered_len() == 0);
        }
    });
    Metric::new(
        "reliable.window_ns_per_msg",
        ns / (2 * WINDOW_ENVELOPES) as f64,
        "ns",
        2 * WINDOW_ENVELOPES,
    )
}

/// `predicate` + `bdd`: the LEC build over the first
/// [`LEC_PROBE_DEVICES`] device FIBs of the workload's dataset on each
/// backend (what `setup_s` pays, per device, on `bdd`), and export →
/// import of each BDD LEC predicate (what every DVM message pays per
/// predicate it carries).
pub fn predicate_probes(tracer: &mut Tracer, net: &Network) -> Vec<Metric> {
    let mut out = Vec::new();
    for (kind, name) in [
        (BackendKind::Bdd, "bdd"),
        (BackendKind::Intervals, "intervals"),
        (BackendKind::DeltaNet, "deltanet"),
    ] {
        let mut roundtrip_us = Vec::new();
        let mut classes = 0usize;
        let mut build_ns = 0.0;
        for dev in net.topology.devices().take(LEC_PROBE_DEVICES) {
            let mut backend = DynBackend::new(kind, net.layout);
            let (built, ns) = timed(tracer, &format!("probe.predicate.lecs.{name}"), || {
                lecs(black_box(net.fib(dev)), &mut backend)
            });
            build_ns += ns;
            classes += built.len();
            if kind == BackendKind::Bdd {
                for (pred, _) in &built {
                    let (back, ns) = timed(tracer, "probe.bdd.roundtrip", || {
                        let wire = backend.export(*pred);
                        backend.import(black_box(&wire))
                    });
                    assert_eq!(back, *pred, "import(export(p)) == p");
                    roundtrip_us.push(ns / 1e3);
                }
            }
        }
        out.push(Metric::new(
            &format!("predicate.{name}.lec_build_ms"),
            build_ns / 1e6,
            "ms",
            classes,
        ));
        if kind == BackendKind::Bdd {
            out.push(Metric::new(
                "predicate.bdd.roundtrip_us_p50",
                stats::median(&roundtrip_us),
                "us",
                roundtrip_us.len(),
            ));
        }
    }
    out
}
