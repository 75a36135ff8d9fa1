#![warn(missing_docs)]
//! Observability for the Tulkun runtimes: a span tracer with
//! per-device ring buffers, a sharded metrics registry (counters,
//! gauges, fixed-bucket histograms), and deterministic exporters for
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
//! Spans carry a monotonic tick (nanoseconds since the handle's
//! creation), a causal `trace` id threaded through `Envelope` so one
//! FIB update's UPDATE wave can be reconstructed across devices, and
//! an `aux` word for substrate-specific context (the virtual-clock
//! time under `Engine`, the worker index for `parallel_init` spans).

mod export;
mod journal;
mod metrics;
mod slo;
mod trace;

pub use export::{chrome_trace_json, chrome_trace_json_with_journal, prometheus_text};
pub use journal::{journal_json, Journal, JournalEvent, JournalKind};
pub use metrics::{
    HistSnapshot, HistogramSpec, MetricsRegistry, MetricsSnapshot, CIB_RECOMPUTE_NS,
    CONVERGENCE_LAG_NS, FIB_BATCH_NS, HANDLE_NS, LEC_DELTA_NS, NS_BOUNDS,
};
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

    /// Monotonic tick: nanoseconds since this handle was created.
    /// Returns 0 when disabled so callers need no separate branch.
    pub fn host_tick(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a completed span (`dur` > 0) for `dev`.
    pub fn span(
        &self,
        dev: DeviceId,
        name: &'static str,
        cat: &'static str,
        begin: u64,
        dur: u64,
        trace: u64,
    ) {
        self.span_aux(dev, name, cat, begin, dur, trace, 0);
    }

    /// Record a completed span with an auxiliary word (virtual-clock
    /// time, worker index, ...).
    #[allow(clippy::too_many_arguments)]
    pub fn span_aux(
        &self,
        dev: DeviceId,
        name: &'static str,
        cat: &'static str,
        begin: u64,
        dur: u64,
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
            begin,
            dur,
            trace,
            aux,
        });
    }

    /// Record an instantaneous event (duration 0) for `dev`.
    pub fn instant(
        &self,
        dev: DeviceId,
        name: &'static str,
        cat: &'static str,
        tick: u64,
        trace: u64,
    ) {
        self.span_aux(dev, name, cat, tick, 0, trace, 0);
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

    /// Record `value` into the fixed-bucket histogram described by
    /// `spec` (shard chosen by `dev`).
    pub fn observe(&self, dev: DeviceId, spec: &HistogramSpec, value: u64) {
        if !self.enabled {
            return;
        }
        self.registry.observe(dev, spec, value);
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

/// Fixed-capacity uniform sample reservoir with a deterministic
/// xorshift replacement stream. Bounds `RuntimeStats::msg_ns_samples`
/// over arbitrarily long replay runs: the first [`Reservoir::capacity`]
/// values are kept verbatim; after that each new value replaces a
/// random kept one with probability `capacity / seen`, so the kept set
/// stays a uniform sample of everything pushed. Determinism: the
/// replacement stream is seeded by a fixed constant, so equal push
/// sequences keep equal samples on every run.
#[derive(Debug, Clone)]
pub struct Reservoir {
    samples: Vec<u64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

/// Default reservoir capacity (64 Ki samples ≈ 512 KiB).
pub const RESERVOIR_CAP: usize = 65_536;

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir::with_capacity(RESERVOIR_CAP)
    }
}

impl Reservoir {
    /// A reservoir keeping at most `cap` samples.
    pub fn with_capacity(cap: usize) -> Reservoir {
        assert!(cap > 0, "reservoir capacity must be positive");
        Reservoir {
            samples: Vec::new(),
            cap,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_rng(&mut self) -> u64 {
        // xorshift64*; deterministic, no external dependency.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Offer one value to the reservoir.
    pub fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(value);
            return;
        }
        let j = (self.next_rng() % self.seen) as usize;
        if j < self.cap {
            self.samples[j] = value;
        }
    }

    /// Kept samples (≤ capacity).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples are kept.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total values offered, including ones not kept.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The kept samples, in insertion/replacement order.
    pub fn as_slice(&self) -> &[u64] {
        &self.samples
    }

    /// Take the kept samples, leaving the reservoir empty (seen count
    /// resets too, matching `drain_msg_samples` semantics).
    pub fn drain(&mut self) -> Vec<u64> {
        self.seen = 0;
        std::mem::take(&mut self.samples)
    }

    /// Merge another reservoir's kept samples into this one.
    pub fn absorb(&mut self, other: &mut Reservoir) {
        for v in other.drain() {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId(i)
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        tel.span(dev(0), "x", "test", 1, 2, 3);
        tel.count(dev(0), "c", 5);
        tel.observe(dev(0), &HANDLE_NS, 100);
        assert!(tel.spans().is_empty());
        let m = tel.metrics();
        assert!(m.counters.is_empty() && m.hists.is_empty());
        assert_eq!(tel.host_tick(), 0);
    }

    #[test]
    fn spans_merge_sorted_across_devices() {
        let tel = Telemetry::enabled();
        tel.span(dev(3), "b", "test", 20, 5, 1);
        tel.span(dev(1), "a", "test", 10, 5, 1);
        tel.span(dev(1), "c", "test", 30, 5, 2);
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
        tel.span(dev(0), "a", "t", 1, 1, 0);
        tel.span(dev(0), "b", "t", 2, 1, 0);
        tel.span(dev(0), "c", "t", 3, 1, 0);
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "b");
        assert_eq!(spans[1].name, "c");
        assert_eq!(tel.spans_dropped(), 1);
    }

    #[test]
    fn histogram_buckets_match_hand_computed_sequence() {
        const SPEC: HistogramSpec = HistogramSpec {
            name: "test_hand_computed",
            bounds: &[10, 20, 50],
        };
        let tel = Telemetry::new(TelemetryConfig::enabled());
        // Observed from two devices so the sharded registry must merge:
        // one value at each bucket's upper bound, one just above it.
        for v in [1, 10, 11, 20] {
            tel.observe(dev(0), &SPEC, v);
        }
        for v in [21, 50, 51, 1000] {
            tel.observe(dev(4), &SPEC, v);
        }
        let snap = tel.metrics();
        let h = snap.hists.get(SPEC.name).expect("histogram recorded");
        assert_eq!(h.bounds, vec![10, 20, 50]);
        // Buckets are non-cumulative per bound plus one overflow bucket;
        // bounds are inclusive, so 10/20/50 land in their own buckets.
        assert_eq!(h.buckets, vec![2, 2, 2, 2]);
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1 + 10 + 11 + 20 + 21 + 50 + 51 + 1000);
        // Quantiles are quantized to bucket upper bounds; the overflow
        // bucket reports the last finite bound as a lower bound.
        assert_eq!(h.quantile(0.25), Some(10));
        assert_eq!(h.quantile(0.50), Some(20));
        assert_eq!(h.quantile(0.75), Some(50));
        assert_eq!(h.quantile(0.99), Some(50));
        assert_eq!(snap.percentile(SPEC.name, 0.50), Some(20));
    }

    #[test]
    fn reservoir_keeps_everything_under_cap() {
        let mut r = Reservoir::with_capacity(8);
        for v in 0..8 {
            r.push(v);
        }
        assert_eq!(r.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(r.seen(), 8);
        let drained = r.drain();
        assert_eq!(drained.len(), 8);
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let run = || {
            let mut r = Reservoir::with_capacity(16);
            for v in 0..10_000u64 {
                r.push(v);
            }
            r.as_slice().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 16);
        assert_eq!(a, b, "replacement stream must be deterministic");
        assert!(a.iter().any(|&v| v >= 16), "late values must be sampled in");
    }
}
