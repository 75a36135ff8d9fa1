//! The distributed runner: one OS thread per device verifier, in-order
//! channels for DVM links — the deployment shape of the paper's
//! prototype (one verification agent per switch over TCP). It *is*
//! [`ThreadedEngine`], the runtime layer's concurrent substrate, under
//! its deployment name.
//!
//! Quiescence is detected with the runtime's in-flight gauge: a
//! message's outputs are enqueued (and counted) before its own count is
//! released, so the gauge only reaches zero when no message is queued
//! or being processed anywhere.

use crate::runtime::ThreadedEngine;

/// A running distributed verification: per-device threads plus the
/// in-flight accounting needed to observe quiescence.
pub type DistributedRun = ThreadedEngine;

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_core::count::CountExpr;
    use tulkun_core::planner::Planner;
    use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
    use tulkun_datasets::fig2a_network;
    use tulkun_netmodel::fib::{Action, MatchSpec, Rule};
    use tulkun_netmodel::network::RuleUpdate;

    #[test]
    fn distributed_run_matches_reference() {
        let net = fig2a_network();
        let inv = Invariant::builder()
            .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
            .ingress(["S"])
            .behavior(Behavior::exist(
                CountExpr::ge(1),
                PathExpr::parse("S .* W .* D").unwrap().loop_free(),
            ))
            .build()
            .unwrap();
        let plan = Planner::new(&net.topology).plan(&inv).unwrap();
        let cp = plan.counting().unwrap();

        let run = DistributedRun::spawn(&net, cp, &inv.packet_space);
        run.wait_quiescent();
        let report = run.report();
        assert!(!report.holds());
        assert_eq!(report.violations.len(), 1);

        // Incremental fix, as in Fig. 2.
        let b = net.topology.device("B").unwrap();
        let w = net.topology.device("W").unwrap();
        run.inject_update(RuleUpdate::Insert {
            device: b,
            rule: Rule {
                priority: 50,
                matches: MatchSpec::dst("10.0.1.0/24".parse().unwrap()),
                action: Action::fwd(w),
            },
        });
        run.wait_quiescent();
        let report = run.report();
        assert!(report.holds(), "{:?}", report.violations);
        let stats = run.shutdown().expect("clean shutdown");
        assert!(stats.messages > 0);
        assert!(stats.per_device.values().any(|s| s.busy_ns > 0));
    }
}
