//! Deterministic exporters: Chrome `trace_event` JSON (loadable in
//! `about:tracing` / Perfetto) and Prometheus text exposition.
//! Both iterate sorted snapshots, so equal recordings export to
//! byte-equal output.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use tulkun_json::Json;

use crate::{JournalEvent, MetricsSnapshot, SpanEvent};

fn micros(ns: u64) -> Json {
    // Chrome-trace timestamps are microseconds; keep sub-µs precision
    // as a fractional part. ns fits f64 exactly below 2^53.
    Json::Float(ns as f64 / 1000.0)
}

/// Render spans as a Chrome `trace_event` JSON document. Devices map
/// to threads (`tid` = device index) of one process (`pid` = 1);
/// completed spans use phase `"X"`, instantaneous events phase `"i"`;
/// the causal trace id and the auxiliary word ride in `args`.
pub fn chrome_trace_json(spans: &[SpanEvent]) -> String {
    chrome_trace_json_with_journal(spans, &[])
}

/// [`chrome_trace_json`] plus a journal lane: each flight-recorder
/// entry becomes an instant event (phase `"i"`, cat `"journal"`) on
/// its device's thread, timestamped by its deterministic `seq` so the
/// lane needs no wall clock. The entry's kind becomes the event name
/// and its epoch/detail ride in `args`.
pub fn chrome_trace_json_with_journal(spans: &[SpanEvent], journal: &[JournalEvent]) -> String {
    let mut events = Vec::new();
    let devices: BTreeSet<u32> = spans
        .iter()
        .map(|s| s.device.0)
        .chain(journal.iter().map(|e| e.device.0))
        .collect();
    for d in &devices {
        events.push(Json::Object(vec![
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Int(1)),
            ("tid".into(), Json::Int(*d as i64)),
            ("name".into(), Json::Str("thread_name".into())),
            (
                "args".into(),
                Json::Object(vec![("name".into(), Json::Str(format!("dev{d}")))]),
            ),
        ]));
    }
    for s in spans {
        let mut ev = vec![
            ("name".into(), Json::Str(s.name.into())),
            ("cat".into(), Json::Str(s.cat.into())),
        ];
        if s.dur > 0 {
            ev.push(("ph".into(), Json::Str("X".into())));
            ev.push(("ts".into(), micros(s.begin)));
            ev.push(("dur".into(), micros(s.dur)));
        } else {
            ev.push(("ph".into(), Json::Str("i".into())));
            ev.push(("s".into(), Json::Str("t".into())));
            ev.push(("ts".into(), micros(s.begin)));
        }
        ev.push(("pid".into(), Json::Int(1)));
        ev.push(("tid".into(), Json::Int(s.device.0 as i64)));
        ev.push((
            "args".into(),
            Json::Object(vec![
                ("trace".into(), Json::Int(s.trace as i64)),
                ("aux".into(), Json::Int(s.aux as i64)),
            ]),
        ));
        events.push(Json::Object(ev));
    }
    for e in journal {
        let mut args = vec![
            ("trace".into(), Json::Int(e.trace as i64)),
            ("seq".into(), Json::Int(e.seq as i64)),
            ("epoch".into(), Json::Int(e.epoch as i64)),
        ];
        if let Some(id) = e.intent {
            args.push(("intent".into(), Json::Int(id as i64)));
        }
        args.push(("detail".into(), Json::Str(e.detail.clone())));
        events.push(Json::Object(vec![
            ("name".into(), Json::Str(e.kind.as_str().into())),
            ("cat".into(), Json::Str("journal".into())),
            ("ph".into(), Json::Str("i".into())),
            ("s".into(), Json::Str("t".into())),
            ("ts".into(), Json::Float(e.seq as f64)),
            ("pid".into(), Json::Int(1)),
            ("tid".into(), Json::Int(e.device.0 as i64)),
            ("args".into(), Json::Object(args)),
        ]));
    }
    let doc = Json::Object(vec![
        ("displayTimeUnit".into(), Json::Str("ns".into())),
        ("traceEvents".into(), Json::Array(events)),
    ]);
    tulkun_json::to_string(&doc)
}

/// Render a metrics snapshot in Prometheus text exposition format:
/// one `# TYPE` comment per metric family followed by all of its
/// lines — a gauge's plain sample before its labeled series, and a
/// histogram's cumulative `_bucket{le="..."}` lines, `_sum` and
/// `_count`. Deterministic: sorted by metric name.
///
/// A histogram writes one `le` line per power of two, from the edge of
/// its lowest non-empty bucket to that of its highest, then `+Inf`:
/// every power of two is a bucket edge, so each count is exact.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    let mut family = None;
    for ((name, label), v) in &snap.gauges {
        if family != Some(name) {
            let _ = writeln!(out, "# TYPE {name} gauge");
            family = Some(name);
        }
        let _ = match label.as_str() {
            "" => writeln!(out, "{name} {v}"),
            _ => writeln!(out, "{name}{{{label}}} {v}"),
        };
    }
    for (name, h) in &snap.hists {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let edges = std::iter::once(0).chain((0..64).map(|k| 1u64 << k));
        let lowest = h.buckets().next().map_or(u64::MAX, |(hi, _)| hi);
        let mut buckets = h.buckets().peekable();
        let mut cum = 0u64;
        for le in edges.skip_while(|&e| e < lowest) {
            while let Some((_, c)) = buckets.next_if(|&(hi, _)| hi <= le) {
                cum += c;
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
            if buckets.peek().is_none() {
                break;
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{name}_sum {}", h.sum());
        let _ = writeln!(out, "{name}_count {}", h.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, Telemetry, DVM_UPDATE, FIB_BATCH};
    use tulkun_netmodel::topology::DeviceId;

    #[test]
    fn chrome_trace_round_trips_and_links_devices() {
        let tel = Telemetry::enabled();
        tel.timed(DeviceId(0), &FIB_BATCH, 7, 0, || {});
        tel.finish(DeviceId(2), &DVM_UPDATE, 7, 0, tel.start(), None);
        tel.instant(DeviceId(2), "reliable.retransmit", "reliable", 7, 0);
        let text = tel.chrome_trace_json();
        let doc = tulkun_json::parse(&text).expect("exporter emits valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 2 thread_name metadata + 3 events.
        assert_eq!(events.len(), 5);
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .collect();
        let tids: BTreeSet<i64> = spans
            .iter()
            .filter_map(|e| match e.get("tid") {
                Some(Json::Int(i)) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(tids.len(), 2, "spans from two devices");
        for s in &spans {
            let trace = s.get("args").and_then(|a| a.get("trace"));
            assert_eq!(trace, Some(&Json::Int(7)), "one causal trace id");
        }
    }

    #[test]
    fn prometheus_text_is_cumulative_and_sorted() {
        let reg = MetricsRegistry::default();
        reg.count("b_total", 2);
        reg.count("a_total", 1);
        // 5 and 8 share the edge 8; 50 lies in (32, 64]; nothing lies
        // in (8, 16] or (16, 32], which still get their lines.
        for v in [5, 8, 50, 5000] {
            reg.observe("tiny_ns", v);
        }
        let text = prometheus_text(&reg.snapshot());
        let expected = "\
# TYPE a_total counter
a_total 1
# TYPE b_total counter
b_total 2
# TYPE tiny_ns histogram
tiny_ns_bucket{le=\"8\"} 2
tiny_ns_bucket{le=\"16\"} 2
tiny_ns_bucket{le=\"32\"} 2
tiny_ns_bucket{le=\"64\"} 3
tiny_ns_bucket{le=\"128\"} 3
tiny_ns_bucket{le=\"256\"} 3
tiny_ns_bucket{le=\"512\"} 3
tiny_ns_bucket{le=\"1024\"} 3
tiny_ns_bucket{le=\"2048\"} 3
tiny_ns_bucket{le=\"4096\"} 3
tiny_ns_bucket{le=\"8192\"} 4
tiny_ns_bucket{le=\"+Inf\"} 4
tiny_ns_sum 5063
tiny_ns_count 4
";
        assert_eq!(text, expected);
    }

    /// A gauge with a plain sample and labeled series is one family:
    /// one `# TYPE` line, then all of its lines, before the next family.
    #[test]
    fn a_gauge_family_is_one_group_under_one_type_line() {
        let reg = MetricsRegistry::default();
        reg.gauge_set(DeviceId(3), "b_parked", 1);
        reg.gauge_set(DeviceId(0), "c_count", 2);
        reg.gauge_set_family(
            "b_parked",
            vec![("id=\"0\"".into(), 0), ("id=\"4\"".into(), 1)],
        );
        reg.gauge_set_family("a_fresh", vec![("id=\"0\"".into(), 1)]);
        let text = prometheus_text(&reg.snapshot());
        let expected = "\
# TYPE a_fresh gauge
a_fresh{id=\"0\"} 1
# TYPE b_parked gauge
b_parked 1
b_parked{id=\"0\"} 0
b_parked{id=\"4\"} 1
# TYPE c_count gauge
c_count 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_edges_span_zero_to_the_top_octave() {
        let reg = MetricsRegistry::default();
        reg.observe("wide", 0);
        reg.observe("wide", u64::MAX);
        let text = prometheus_text(&reg.snapshot());
        let les: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split_once("le=\"")?.1.split_once('"'))
            .map(|(le, _)| le)
            .collect();
        // 0, 1, 2, 4, ..., 2^63, +Inf: u64::MAX lies above every
        // finite edge.
        assert_eq!(les.len(), 66);
        assert_eq!((les[0], les[1], les[64]), ("0", "1", "9223372036854775808"));
        assert!(text.contains("wide_bucket{le=\"9223372036854775808\"} 1\n"));
        assert!(text.contains("wide_bucket{le=\"+Inf\"} 2\n"));
    }

    #[test]
    fn empty_snapshot_exports_empty_documents() {
        let tel = Telemetry::disabled();
        assert_eq!(tel.prometheus_text(), "");
        let doc = tulkun_json::parse(&tel.chrome_trace_json()).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }
}
