//! Causal flight recorder: a bounded, deterministic ring journal of
//! structured runtime events.
//!
//! Where the span [`crate::Tracer`] answers "how long did this take",
//! the journal answers "what happened, in what order, and why": epoch
//! fences, topology/intent churn, fault injections, retransmissions,
//! crash/restart waves, watchdog verdicts and admission decisions,
//! each stamped with the epoch, the causal trace id threaded through
//! `Envelope`, the device and (where known) the intent it belongs to.
//!
//! Determinism is the design constraint the tracer does not have:
//! journal entries carry **no wall-clock field** — only the monotonic
//! `seq` assigned under one global lock — so two runs of the same
//! seeded scenario produce byte-identical journal dumps, and the
//! explain engine built on top can promise byte-identical causal
//! chains across reruns. Journal events are control-plane-rate (churn,
//! faults, fences — not per-DVM-message), so a single mutex is cheap
//! and buys a globally ordered record.
//!
//! The disabled path is zero-overhead in the same way as the rest of
//! the crate: recording checks one immutable bool before touching the
//! lock or rendering any detail string.

use std::collections::VecDeque;
use std::sync::Mutex;

use tulkun_json::Json;
use tulkun_netmodel::topology::DeviceId;

/// What happened. Variants map 1:1 to snake_case strings in the dump
/// schema (see [`JournalKind::as_str`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalKind {
    /// A burst of FIB rule updates was injected.
    BatchApplied,
    /// The epoch fence was bumped: everything in flight is superseded.
    EpochFence,
    /// A live topology churn event (link/device up/down) was applied.
    TopologyChurn,
    /// A churn request was rejected (unsupported under live intents…).
    ChurnRejected,
    /// A runtime intent was compiled and installed.
    IntentInstalled,
    /// A runtime intent was removed.
    IntentRemoved,
    /// An intent install/remove request was rejected.
    IntentRejected,
    /// An install raced a topology fence and was queued for re-planning
    /// against the next epoch (bounded by the retry cap).
    IntentParked,
    /// A live or parked intent's slice was re-planned under a churn
    /// fence (it landed, revived, or re-tasked).
    IntentReplanned,
    /// A live intent's slice cannot be planned on the current topology;
    /// it is degraded (excluded from evaluation) until a fence revives
    /// it.
    IntentDegraded,
    /// The fault-injecting transport dropped/duplicated/reordered/
    /// delayed an envelope (detail names which).
    FaultInjected,
    /// The reliable delivery layer retransmitted an envelope.
    Retransmit,
    /// A device's verification agent crashed and was restarted.
    CrashRestart,
    /// The convergence watchdog declared a device stalled.
    WatchdogStall,
    /// The admission policy shed the oldest queued request.
    AdmissionShed,
    /// The admission policy blocked (rejected) an incoming request.
    AdmissionBlocked,
    /// A rolling SLO window closed in breach.
    SloBreach,
    /// The service moved its device verifiers to another predicate
    /// backend (rebuilt in place; the lifecycle state stays).
    BackendSwap,
}

impl JournalKind {
    /// The stable snake_case name used in the dump schema.
    pub fn as_str(&self) -> &'static str {
        use JournalKind as K;
        match self {
            K::BatchApplied => "batch_applied",
            K::EpochFence => "epoch_fence",
            K::TopologyChurn => "topology_churn",
            K::ChurnRejected => "churn_rejected",
            K::IntentInstalled => "intent_installed",
            K::IntentRemoved => "intent_removed",
            K::IntentRejected => "intent_rejected",
            K::IntentParked => "intent_parked",
            K::IntentReplanned => "intent_replanned",
            K::IntentDegraded => "intent_degraded",
            K::FaultInjected => "fault_injected",
            K::Retransmit => "retransmit",
            K::CrashRestart => "crash_restart",
            K::WatchdogStall => "watchdog_stall",
            K::AdmissionShed => "admission_shed",
            K::AdmissionBlocked => "admission_blocked",
            K::SloBreach => "slo_breach",
            K::BackendSwap => "backend_swap",
        }
    }
}

/// One journal entry. Deliberately wall-clock-free: `seq` is the only
/// ordering key, so equal runs dump byte-equal journals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Global sequence number (1-based, monotonic across devices).
    pub seq: u64,
    /// What happened.
    pub kind: JournalKind,
    /// The device the event is about (the churned/crashed/faulted
    /// device; the first participating device for global fences).
    pub device: DeviceId,
    /// Topology/intent generation at record time.
    pub epoch: u64,
    /// Causal trace id threaded through `Envelope`; 0 = untraced.
    pub trace: u64,
    /// The runtime intent the event belongs to, where known.
    pub intent: Option<u64>,
    /// Human-oriented detail, deterministic for a given seeded run
    /// (e.g. `"link-down d2-d3"`, `"fault.drop to d9"`).
    pub detail: String,
    /// The daemon request source the event was recorded under, when
    /// the service layer scoped one (see `Telemetry::journal_scope`).
    pub source: Option<String>,
}

impl JournalEvent {
    /// The entry as a deterministic JSON object (stable key order;
    /// `intent` / `source` omitted when absent).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("seq".into(), Json::Int(self.seq as i64)),
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("device".into(), Json::Int(self.device.0 as i64)),
            ("epoch".into(), Json::Int(self.epoch as i64)),
            ("trace".into(), Json::Int(self.trace as i64)),
        ];
        if let Some(id) = self.intent {
            obj.push(("intent".into(), Json::Int(id as i64)));
        }
        obj.push(("detail".into(), Json::Str(self.detail.clone())));
        if let Some(src) = &self.source {
            obj.push(("source".into(), Json::Str(src.clone())));
        }
        Json::Object(obj)
    }
}

#[derive(Debug, Default)]
struct JournalInner {
    ring: VecDeque<JournalEvent>,
    next_seq: u64,
    dropped: u64,
    /// Current attribution scope: daemon request source being applied.
    source: Option<String>,
}

/// The bounded ring journal. One global mutex: entries are
/// control-plane-rate and the single lock is what makes `seq` a total
/// deterministic order.
#[derive(Debug)]
pub struct Journal {
    cap: usize,
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// A journal keeping at most `cap` entries (oldest evicted first).
    pub fn new(cap: usize) -> Journal {
        Journal {
            cap,
            inner: Mutex::new(JournalInner {
                next_seq: 1,
                ..JournalInner::default()
            }),
        }
    }

    /// Record one entry; `seq` and the current source scope are filled
    /// in here.
    pub fn record(
        &self,
        kind: JournalKind,
        device: DeviceId,
        epoch: u64,
        trace: u64,
        intent: Option<u64>,
        detail: String,
    ) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let source = inner.source.clone();
        if inner.ring.len() == self.cap {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(JournalEvent {
            seq,
            kind,
            device,
            epoch,
            trace,
            intent,
            detail,
            source,
        });
    }

    /// Set (or clear) the attribution scope stamped onto subsequent
    /// entries.
    pub fn set_source(&self, source: Option<String>) {
        self.inner.lock().unwrap().source = source;
    }

    /// Retained entries, oldest first (seq ascending).
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Entries evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Total entries ever recorded.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap().next_seq - 1
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Render a journal snapshot as the deterministic dump document:
/// `{"schema":"tulkun-journal-v1","dropped":n,"events":[...]}`.
pub fn journal_json(events: &[JournalEvent], dropped: u64) -> String {
    let doc = Json::Object(vec![
        ("schema".into(), Json::Str("tulkun-journal-v1".into())),
        ("dropped".into(), Json::Int(dropped as i64)),
        (
            "events".into(),
            Json::Array(events.iter().map(JournalEvent::to_json).collect()),
        ),
    ]);
    tulkun_json::to_string(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId(i)
    }

    #[test]
    fn seq_is_monotonic_and_ring_is_bounded() {
        let j = Journal::new(3);
        for i in 0..5u64 {
            j.record(
                JournalKind::FaultInjected,
                dev(i as u32),
                0,
                i,
                None,
                format!("e{i}"),
            );
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.recorded(), 5);
    }

    #[test]
    fn source_scope_is_stamped_and_cleared() {
        let j = Journal::new(8);
        j.record(JournalKind::EpochFence, dev(0), 1, 0, None, "pre".into());
        j.set_source(Some("cp".into()));
        j.record(
            JournalKind::IntentInstalled,
            dev(0),
            2,
            0,
            Some(1),
            "in-scope".into(),
        );
        j.set_source(None);
        j.record(JournalKind::EpochFence, dev(0), 3, 0, None, "post".into());
        let snap = j.snapshot();
        assert_eq!(snap[0].source, None);
        assert_eq!(snap[1].source.as_deref(), Some("cp"));
        assert_eq!(snap[2].source, None);
    }

    #[test]
    fn dump_is_deterministic_and_parses() {
        let run = || {
            let j = Journal::new(8);
            j.record(
                JournalKind::TopologyChurn,
                dev(2),
                1,
                5,
                None,
                "link-down d2-d3".into(),
            );
            j.record(
                JournalKind::IntentInstalled,
                dev(0),
                2,
                6,
                Some(3),
                "intent \"waypoint\"".into(),
            );
            journal_json(&j.snapshot(), j.dropped())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "equal runs must dump byte-equal journals");
        let doc = tulkun_json::parse(&a).expect("dump is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("tulkun-journal-v1")
        );
        let events = doc.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("kind").and_then(Json::as_str),
            Some("topology_churn")
        );
        assert_eq!(events[1].get("intent"), Some(&Json::Int(3)));
        assert_eq!(events[0].get("intent"), None);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let j = Journal::new(0);
        j.record(JournalKind::EpochFence, dev(0), 1, 0, None, "x".into());
        assert!(j.snapshot().is_empty());
        assert_eq!(j.recorded(), 0);
    }
}
