#![warn(missing_docs)]
//! Observability for the Tulkun runtimes: a span tracer with
//! per-device ring buffers, a sharded metrics registry (counters,
//! gauges, log-linear [`Histogram`]s), and deterministic exporters for
//! Chrome `trace_event` JSON (Perfetto / `about:tracing`) and
//! Prometheus text exposition.
//!
//! The crate is dependency-free beyond the first-party `tulkun-json`
//! and `tulkun-netmodel` crates, so it builds in the offline
//! environment and can be linked from `tulkun-core` without cycles.
//!
//! # Design
//!
//! All recording goes through one [`Telemetry`] handle, shared as
//! `Arc<Telemetry>` across engines, verifiers, transports and worker
//! threads. Every record method checks the `enabled` flag *before*
//! touching any shard lock, so the disabled path — the default for
//! every substrate — is a branch on an immutable bool and nothing
//! else: no allocation, no atomics, no locks. This is what lets the
//! fault-matrix and equivalence suites run with telemetry compiled in
//! but switched off at zero measurable cost.
//!
//! When enabled, spans land in per-device ring buffers and metric
//! updates land in one of [`SHARDS`] lock shards selected by
//! `device.idx() % SHARDS` — the same sharding rule as the runtime's
//! `LecCache` — so the `ThreadedEngine`'s one-thread-per-device
//! workers never contend on a telemetry lock.
//!
//! A span with a duration is always a timed [`Layer`]: one call
//! ([`Telemetry::timed`], or [`Telemetry::start`] and
//! [`Telemetry::finish`] when the device is known only at the end)
//! records the span and feeds the layer's histogram, so every layer's
//! span count equals its histogram count. Everything else is an
//! instantaneous event ([`Telemetry::instant`]).
//!
//! Spans carry a monotonic tick (nanoseconds since the handle's
//! creation), a causal `trace` id threaded through `Envelope` so one
//! FIB update's UPDATE wave can be reconstructed across devices, and
//! an `aux` word for substrate-specific context (the virtual-clock
//! time under `Engine`, the worker index for `init.build` spans).

mod export;
mod journal;
mod metrics;
mod slo;
mod trace;

pub use export::{chrome_trace_json, chrome_trace_json_with_journal, prometheus_text};
pub use journal::{journal_json, Journal, JournalEvent, JournalKind};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, CONVERGENCE_LAG_NS, HANDLE_NS};
pub use slo::{SloPolicy, SloTracker, SloVerdict};
pub use trace::{SpanEvent, Tracer};

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use tulkun_netmodel::topology::DeviceId;

/// Number of lock shards in the tracer and the metrics registry;
/// mirrors the runtime's `LecCache` so one-thread-per-device workers
/// land on distinct shards.
pub const SHARDS: usize = 16;

/// A timed layer: the span it records and the histogram (ns) its
/// durations feed. Declared as a `const`, so a call site carries no
/// allocation.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Span name, e.g. `"fib.batch"`.
    pub span: &'static str,
    /// Span category, e.g. `"dvm"`.
    pub cat: &'static str,
    /// Histogram name, e.g. `"tulkun_fib_batch_ns"`.
    pub hist: &'static str,
}

const fn layer(span: &'static str, cat: &'static str, hist: &'static str) -> Layer {
    Layer { span, cat, hist }
}

/// One handled UPDATE envelope (charged ns into [`HANDLE_NS`]).
pub const DVM_UPDATE: Layer = layer("dvm.update", "dvm", HANDLE_NS);
/// One handled SUBSCRIBE envelope (charged ns into [`HANDLE_NS`]).
pub const DVM_SUBSCRIBE: Layer = layer("dvm.subscribe", "dvm", HANDLE_NS);
/// One handled ACK envelope (charged ns into [`HANDLE_NS`]).
pub const DVM_ACK: Layer = layer("dvm.ack", "dvm", HANDLE_NS);
/// One injected operation: a fence share, FIB batch, reboot or replay.
pub const INJECT: Layer = layer("inject", "dvm", "tulkun_inject_ns");
/// One whole `handle_fib_batch` call.
pub const FIB_BATCH: Layer = layer("fib.batch", "dvm", "tulkun_fib_batch_ns");
/// The LEC table delta/splice inside a FIB batch.
pub const LEC_DELTA: Layer = layer("lec.delta", "dvm", "tulkun_lec_delta_ns");
/// One node's CIB recomputation.
pub const CIB_RECOMPUTE: Layer = layer("cib.recompute", "dvm", "tulkun_cib_recompute_ns");
/// One verifier construction: LEC build plus initial counting.
pub const INIT_BUILD: Layer = layer("init.build", "init", "tulkun_init_build_ns");
/// One control-plane decision that produced an epoch fence.
pub const FENCE_PLAN: Layer = layer("fence.plan", "fence", "tulkun_fence_plan_ns");
/// One planner run on the live path, inside a control-plane decision.
pub const PLANNER_PLAN: Layer = layer("planner.plan", "fence", "tulkun_planner_ns");
/// One in-place re-intern of the slices a decision changed.
pub const INTENT_REFIT: Layer = layer("intent.refit", "fence", "tulkun_refit_ns");
/// One daemon `report`: the devices' results gathered into a Report.
pub const REPORT_BUILD: Layer = layer("report.build", "report", "tulkun_report_build_ns");
/// One daemon `report`: the Report's canonical encoding.
pub const REPORT_ENCODE: Layer = layer("report.encode", "report", "tulkun_report_encode_ns");

/// Configuration for a [`Telemetry`] handle.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Master switch. When `false`, every record call returns after a
    /// single branch: no shard lock is ever taken.
    pub enabled: bool,
    /// Per-device span ring capacity; the oldest span is overwritten
    /// once a device exceeds it (overwrites are counted, see
    /// [`Telemetry::spans_dropped`]).
    pub ring_capacity: usize,
    /// Causal flight-recorder ring capacity; 0 disables the journal
    /// even when spans/metrics are on (the oldest entry is evicted
    /// once full, see [`Telemetry::journal_dropped`]). The journal is
    /// active only when `enabled` is also set.
    pub journal_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            ring_capacity: 4096,
            journal_capacity: 1024,
        }
    }
}

impl TelemetryConfig {
    /// An enabled config with default ring capacity.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }

    /// An enabled config with the journal switched off — spans and
    /// metrics record, the flight recorder does not.
    pub fn enabled_without_journal() -> Self {
        TelemetryConfig {
            enabled: true,
            journal_capacity: 0,
            ..TelemetryConfig::default()
        }
    }
}

/// Shared recording surface: tracer + metrics registry behind one
/// enabled flag. Construct once per run and clone the `Arc` into
/// every engine, verifier and transport.
pub struct Telemetry {
    enabled: bool,
    epoch: Instant,
    tracer: Tracer,
    registry: MetricsRegistry,
    /// Causal flight recorder; inactive when `journal_on` is false
    /// (disabled handle or `journal_capacity == 0`).
    journal: Journal,
    journal_on: bool,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A handle with the given configuration.
    pub fn new(cfg: TelemetryConfig) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: cfg.enabled,
            epoch: Instant::now(),
            tracer: Tracer::new(cfg.ring_capacity),
            registry: MetricsRegistry::new(),
            journal: Journal::new(cfg.journal_capacity),
            journal_on: cfg.enabled && cfg.journal_capacity > 0,
        })
    }

    /// The default, disabled handle: every record call is a no-op.
    pub fn disabled() -> Arc<Telemetry> {
        Telemetry::new(TelemetryConfig::default())
    }

    /// An enabled handle with default capacity.
    pub fn enabled() -> Arc<Telemetry> {
        Telemetry::new(TelemetryConfig::enabled())
    }

    /// Whether recording is on. Callers doing non-trivial work to
    /// *prepare* a record (e.g. reading a clock) should check this
    /// first; the record methods also check it themselves.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The begin tick of a span [`Telemetry::finish`] closes:
    /// nanoseconds since this handle was created, 0 when disabled.
    pub fn start(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` as one `layer` span on `dev` and feeds its duration
    /// to the layer's histogram. When disabled it only runs `work`.
    pub fn timed<R>(
        &self,
        dev: DeviceId,
        layer: &Layer,
        trace: u64,
        aux: u64,
        work: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return work();
        }
        let begin = self.start();
        let out = work();
        self.finish(dev, layer, trace, aux, begin, None);
        out
    }

    /// Closes a `layer` span on `dev` begun at `begin` (a
    /// [`Telemetry::start`] tick) and feeds the layer's histogram its
    /// duration — or `charged`, the span's time in the histogram's own
    /// unit, when given.
    pub fn finish(
        &self,
        dev: DeviceId,
        layer: &Layer,
        trace: u64,
        aux: u64,
        begin: u64,
        charged: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        let dur = self.start().saturating_sub(begin).max(1);
        self.tracer.record(SpanEvent {
            device: dev,
            name: layer.span,
            cat: layer.cat,
            begin,
            dur,
            trace,
            aux,
        });
        self.registry
            .observe(dev, layer.hist, charged.unwrap_or(dur));
    }

    /// Record an instantaneous event (duration 0) for `dev`, stamped
    /// with the current tick; `aux` carries the substrate's own time.
    pub fn instant(
        &self,
        dev: DeviceId,
        name: &'static str,
        cat: &'static str,
        trace: u64,
        aux: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.tracer.record(SpanEvent {
            device: dev,
            name,
            cat,
            begin: self.start(),
            dur: 0,
            trace,
            aux,
        });
    }

    /// Add `n` to the counter `name` (shard chosen by `dev`).
    pub fn count(&self, dev: DeviceId, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        self.registry.count(dev, name, n);
    }

    /// Set the gauge `name` for `dev`'s shard. Snapshots report the
    /// maximum across shards (gauges here track high-water marks).
    pub fn gauge_set(&self, dev: DeviceId, name: &'static str, value: i64) {
        if !self.enabled {
            return;
        }
        self.registry.gauge_set(dev, name, value);
    }

    /// Set one series of the labeled gauge family `name` (shard chosen
    /// by `dev`). `label` is one rendered Prometheus pair, e.g.
    /// `intent="3"`.
    pub fn gauge_set_labeled(&self, dev: DeviceId, name: &'static str, label: &str, value: i64) {
        if !self.enabled {
            return;
        }
        self.registry.gauge_set_labeled(dev, name, label, value);
    }

    /// Record `value` into histogram `name` (shard chosen by `dev`) —
    /// for a value that is not a span's time, such as a convergence lag.
    pub fn observe(&self, dev: DeviceId, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        self.registry.observe(dev, name, value);
    }

    /// Histogram `name` merged across shards (empty when disabled or
    /// never observed).
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.enabled {
            return Histogram::default();
        }
        self.registry.histogram(name)
    }

    /// All recorded spans, merged across devices and sorted by
    /// `(begin, device, name)` — deterministic for equal inputs.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.tracer.snapshot()
    }

    /// Spans overwritten because a device's ring filled up.
    pub fn spans_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// A merged snapshot of every counter, gauge and histogram.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Whether the causal flight recorder is active (telemetry enabled
    /// *and* a non-zero journal capacity). Callers assembling a detail
    /// string should branch on this first; [`Telemetry::journal`]
    /// checks it again itself.
    pub fn journal_on(&self) -> bool {
        self.journal_on
    }

    /// Record one flight-recorder entry. `detail` is only rendered
    /// when the journal is active, so the disabled path stays a single
    /// branch with no allocation.
    pub fn journal(
        &self,
        kind: JournalKind,
        dev: DeviceId,
        epoch: u64,
        trace: u64,
        intent: Option<u64>,
        detail: impl FnOnce() -> String,
    ) {
        if !self.journal_on {
            return;
        }
        self.journal
            .record(kind, dev, epoch, trace, intent, detail());
    }

    /// Set (or clear with `None`) the request-source scope stamped
    /// onto subsequent journal entries — the service layer brackets
    /// each daemon request with this so causality can be filtered by
    /// source.
    pub fn journal_scope(&self, source: Option<&str>) {
        if !self.journal_on {
            return;
        }
        self.journal.set_source(source.map(str::to_string));
    }

    /// Retained journal entries, oldest first (seq ascending). Empty
    /// when the journal is inactive.
    pub fn journal_events(&self) -> Vec<JournalEvent> {
        if !self.journal_on {
            return Vec::new();
        }
        self.journal.snapshot()
    }

    /// Journal entries evicted because the ring filled up.
    pub fn journal_dropped(&self) -> u64 {
        if !self.journal_on {
            return 0;
        }
        self.journal.dropped()
    }

    /// Total journal entries ever recorded (including evicted ones).
    pub fn journal_recorded(&self) -> u64 {
        if !self.journal_on {
            return 0;
        }
        self.journal.recorded()
    }

    /// The retained journal as the deterministic dump document
    /// (`tulkun-journal-v1` schema).
    pub fn journal_json(&self) -> String {
        journal_json(&self.journal_events(), self.journal_dropped())
    }

    /// The recorded spans as Chrome `trace_event` JSON, with the
    /// journal riding along as an instant-event lane (cat
    /// `"journal"`, timestamped by `seq`) so flight-recorder entries
    /// open in Perfetto next to the spans.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json_with_journal(&self.spans(), &self.journal_events())
    }

    /// The merged metrics as Prometheus text exposition.
    pub fn prometheus_text(&self) -> String {
        prometheus_text(&self.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId(i)
    }

    /// Records one finished span with explicit ticks.
    fn span(tel: &Telemetry, d: u32, name: &'static str, begin: u64, trace: u64) {
        tel.tracer.record(SpanEvent {
            device: dev(d),
            name,
            cat: "test",
            begin,
            dur: 5,
            trace,
            aux: 0,
        });
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert_eq!(tel.timed(dev(0), &FIB_BATCH, 3, 0, || 7), 7);
        tel.finish(dev(0), &FENCE_PLAN, 3, 0, tel.start(), None);
        tel.instant(dev(0), "x", "test", 3, 0);
        tel.count(dev(0), "c", 5);
        tel.observe(dev(0), HANDLE_NS, 100);
        assert!(tel.spans().is_empty());
        let m = tel.metrics();
        assert!(m.counters.is_empty() && m.hists.is_empty());
        assert_eq!(tel.start(), 0);
    }

    #[test]
    fn a_timed_layer_records_its_span_and_its_histogram() {
        let tel = Telemetry::enabled();
        tel.timed(dev(2), &FIB_BATCH, 9, 4, || {});
        let begin = tel.start();
        tel.finish(dev(3), &DVM_UPDATE, 9, 0, begin, Some(1_000));
        tel.instant(dev(3), "reliable.retransmit", "reliable", 9, 0);
        let spans = tel.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.dur > 0)).collect();
        assert_eq!(
            names,
            [
                ("fib.batch", true),
                ("dvm.update", true),
                ("reliable.retransmit", false)
            ]
        );
        assert_eq!(spans[0].aux, 4);
        assert_eq!(tel.histogram(FIB_BATCH.hist).count(), 1);
        assert_eq!(
            tel.histogram(FIB_BATCH.hist).sum(),
            u128::from(spans[0].dur)
        );
        assert_eq!(
            tel.histogram(HANDLE_NS).sum(),
            1_000,
            "charged, not measured"
        );
    }

    #[test]
    fn spans_merge_sorted_across_devices() {
        let tel = Telemetry::enabled();
        span(&tel, 3, "b", 20, 1);
        span(&tel, 1, "a", 10, 1);
        span(&tel, 1, "c", 30, 2);
        let spans = tel.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].begin, 10);
        assert_eq!(spans[1].begin, 20);
        assert_eq!(spans[2].begin, 30);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let tel = Telemetry::new(TelemetryConfig {
            enabled: true,
            ring_capacity: 2,
            ..TelemetryConfig::default()
        });
        span(&tel, 0, "a", 1, 0);
        span(&tel, 0, "b", 2, 0);
        span(&tel, 0, "c", 3, 0);
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "b");
        assert_eq!(spans[1].name, "c");
        assert_eq!(tel.spans_dropped(), 1);
    }
}
