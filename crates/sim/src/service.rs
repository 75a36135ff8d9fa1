//! Configuration of the always-on verification service.
//!
//! The service itself — per-source admission queues, round-robin
//! drains, the predicate-backend move, the SLO tracker, its counters
//! and the line protocol — is one type, `tulkun::daemon::DaemonSession`
//! in the facade crate, which drives an [`Engine`](crate::Engine) of
//! this crate. Only its configuration lives here: [`ServiceConfig`] and
//! [`AdmissionPolicy`] are named by embedders and by the benchmark
//! harness (`benchmark/`) as `tulkun::sim::ServiceConfig`, and the
//! facade's `DaemonConfig` carries one.

use tulkun_core::dvm::reliable::DEFAULT_CHANNEL_CAP;
use tulkun_core::fault::FaultProfile;
use tulkun_telemetry::SloPolicy;

/// What to do with a request that arrives while its queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject the request (the caller sees an `err shed: …` reply and
    /// may retry after a drain). Never blocks the ingress path.
    Shed,
    /// Drain every queued request first, then admit. Trades ingress
    /// latency for losslessness — the service applies backpressure the
    /// way [`DEFAULT_CHANNEL_CAP`] does on the wire.
    Block,
}

/// Admission, SLO and management-network configuration of the service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Full-queue behavior.
    pub policy: AdmissionPolicy,
    /// Total queued requests across all sources before admission
    /// control engages.
    pub queue_cap: usize,
    /// Queued requests one source may hold before admission control
    /// engages for that source (fairness: one flooding source hits
    /// this long before the shared cap).
    pub per_source_cap: usize,
    /// Latency budgets for the SLO tracker.
    pub slo: SloPolicy,
    /// Run over a lossy management network (the reliability layer
    /// recovers; the SLO windows see the retransmission cost).
    pub faults: Option<FaultProfile>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            policy: AdmissionPolicy::Block,
            queue_cap: DEFAULT_CHANNEL_CAP,
            per_source_cap: DEFAULT_CHANNEL_CAP / 4,
            slo: SloPolicy::default(),
            faults: None,
        }
    }
}
