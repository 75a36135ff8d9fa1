//! Update-trace replay: replays a deterministic churn trace
//! ([`tulkun_datasets::rule_updates`]) against one destination's DVM
//! session, either rule-by-rule or as coalesced per-device bursts, and
//! reports the wire cost and verification time of each regime. The
//! final [`Report`] must be byte-identical across burst sizes — the
//! batched pipeline changes how much work is done, never the verdict.

use tulkun_core::planner::CountingPlan;
use tulkun_core::spec::PacketSpace;
use tulkun_netmodel::network::{Network, RuleUpdate};
use tulkun_sim::{BackendKind, Engine, EngineConfig, Telemetry, TelemetryConfig};
use tulkun_telemetry::HANDLE_NS;

/// Cost and verdict of one trace replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Rule updates replayed.
    pub updates: usize,
    /// Batches applied (== `updates` at burst size 1).
    pub batches: usize,
    /// Summed simulated verification time across batches.
    pub completion_ns: u64,
    /// DVM messages sent re-converging after the trace.
    pub messages: usize,
    /// DVM bytes on the wire re-converging after the trace.
    pub bytes: u64,
    /// Canonical bytes of the final report (burst-size independent).
    pub report: Vec<u8>,
    /// Per-message handle-time percentiles (scaled ns), derived from
    /// the telemetry `tulkun_dvm_handle_ns` histogram — bucket upper
    /// edges, within 3.2 % of the exact value.
    pub p50_ns: u64,
    /// 90th percentile of per-message handle time (scaled ns).
    pub p90_ns: u64,
    /// 99th percentile of per-message handle time (scaled ns).
    pub p99_ns: u64,
}

/// Replays `trace` in chunks of `burst` updates (each chunk applied as
/// one coalesced [`tulkun_netmodel::UpdateBatch`]) on the given
/// predicate backend; `burst = 1` is the per-rule baseline.
pub fn replay_trace_with(
    net: &Network,
    cp: &CountingPlan,
    ps: &PacketSpace,
    trace: &[RuleUpdate],
    burst: usize,
    backend: BackendKind,
) -> ReplayOutcome {
    assert!(burst > 0, "burst size must be positive");
    let telemetry = Telemetry::new(TelemetryConfig::enabled());
    let mut sim = Engine::new(
        net,
        cp,
        ps,
        EngineConfig {
            telemetry: telemetry.clone(),
            backend,
            ..EngineConfig::default()
        },
    );
    sim.burst();
    let mut out = ReplayOutcome {
        updates: trace.len(),
        batches: 0,
        completion_ns: 0,
        messages: 0,
        bytes: 0,
        report: Vec::new(),
        p50_ns: 0,
        p90_ns: 0,
        p99_ns: 0,
    };
    for chunk in trace.chunks(burst) {
        let r = sim.apply_batch(chunk);
        out.batches += 1;
        out.completion_ns += r.completion_ns;
        out.messages += r.messages;
        out.bytes += r.bytes;
    }
    out.report = sim.report().canonical_bytes();
    let h = telemetry.histogram(HANDLE_NS);
    out.p50_ns = h.quantile(0.50).unwrap_or(0);
    out.p90_ns = h.quantile(0.90).unwrap_or(0);
    out.p99_ns = h.quantile(0.99).unwrap_or(0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_datasets::{by_name, rule_updates, Scale};

    /// One WAN destination's counting session on tiny INet2.
    fn inet2_session() -> (Network, CountingPlan, PacketSpace) {
        let ds = by_name("INet2", Scale::Tiny).unwrap();
        let (inv, cp) = crate::workload::first_destination_session(&ds.network);
        (ds.network.clone(), cp, inv.packet_space)
    }

    #[test]
    fn burst_sizes_agree_on_the_verdict() {
        let (net, cp, ps) = inet2_session();
        let trace = rule_updates(&net, 24, 7);
        let per_rule = replay_trace_with(&net, &cp, &ps, &trace, 1, BackendKind::Bdd);
        let batched = replay_trace_with(&net, &cp, &ps, &trace, 8, BackendKind::Bdd);
        assert_eq!(per_rule.updates, 24);
        assert_eq!(per_rule.batches, 24);
        assert_eq!(batched.batches, 3);
        assert_eq!(
            per_rule.report, batched.report,
            "burst size must not change the verdict"
        );
        // Message counts depend on delivery order (the event sim
        // schedules by measured CPU time), so only the verdict is
        // asserted, not the wire counters.
    }

    #[test]
    fn backends_agree_on_the_replayed_report() {
        let (net, cp, ps) = inet2_session();
        let trace = rule_updates(&net, 24, 7);
        let bdd = replay_trace_with(&net, &cp, &ps, &trace, 8, BackendKind::Bdd);
        for kind in [BackendKind::DeltaNet, BackendKind::Intervals] {
            let other = replay_trace_with(&net, &cp, &ps, &trace, 8, kind);
            assert_eq!(
                bdd.report, other.report,
                "{kind} backend diverged from bdd on the replayed report"
            );
        }
    }
}
