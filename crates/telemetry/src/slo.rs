//! Rolling SLO windows over two histograms of the metrics registry.
//!
//! The always-on service must *hold* a latency budget, not just record
//! one: [`SloTracker`] keeps the cumulative [`HANDLE_NS`] and
//! [`CONVERGENCE_LAG_NS`] histograms as of its last few rolls and
//! judges the windows between them against a [`SloPolicy`]. Because a
//! histogram's counts are monotone, a window is the bucket-wise
//! difference of two snapshots ([`Histogram::delta`]) and the whole
//! ring is the newest minus the oldest, so the tracker adds no
//! per-observation cost to the hot path — verifiers keep recording into
//! the same registry they always did, and the service rolls a
//! window at its own cadence (once per drained request round), reading
//! those two histograms by name.
//!
//! A reported quantile is the upper edge of the log-linear bucket
//! holding it: never below the true value and within 3.2 % of it, at
//! any magnitude — a lag of seconds breaches a one-second budget.

use std::collections::VecDeque;

use crate::metrics::{Histogram, CONVERGENCE_LAG_NS, HANDLE_NS};
use crate::Telemetry;

/// Latency budgets for the always-on service. All values are
/// nanoseconds in the metric's own unit: `p*_ns` bound the per-message
/// `DeviceVerifier::handle` time (scaled device CPU ns), `lag_p99_ns`
/// bounds the per-request convergence lag (virtual ns from admission
/// to quiescence of the applying round).
#[derive(Debug, Clone, Copy)]
pub struct SloPolicy {
    /// Median handle-time budget.
    pub p50_ns: u64,
    /// 90th-percentile handle-time budget.
    pub p90_ns: u64,
    /// 99th-percentile handle-time budget.
    pub p99_ns: u64,
    /// 99th-percentile convergence-lag budget.
    pub lag_p99_ns: u64,
    /// Rolling windows merged into a verdict (older windows fall off).
    pub windows: usize,
    /// Below this many handle samples the verdict abstains (`ok`,
    /// with `samples` exposing why).
    pub min_samples: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        // Generous single-core defaults: an order of magnitude above
        // the tiny-scale INet2 steady state, so a healthy service is
        // `ok` and a 10x tail regression breaches.
        SloPolicy {
            p50_ns: 1_000_000,         // 1 ms
            p90_ns: 5_000_000,         // 5 ms
            p99_ns: 20_000_000,        // 20 ms
            lag_p99_ns: 1_000_000_000, // 1 s
            windows: 8,
            min_samples: 16,
        }
    }
}

/// The cumulative handle-time and convergence-lag histograms at one
/// roll.
#[derive(Debug, Clone, Default)]
struct Snapshot {
    handle: Histogram,
    lag: Histogram,
}

/// Rolling-window SLO judge over the cumulative [`HANDLE_NS`] and
/// [`CONVERGENCE_LAG_NS`] histograms.
#[derive(Debug)]
pub struct SloTracker {
    policy: SloPolicy,
    /// The histograms at the last `policy.windows + 1` rolls (at first,
    /// one empty snapshot): the windows are the deltas between
    /// neighbours, so the ring merged is the newest minus the oldest.
    snaps: VecDeque<Snapshot>,
    rolls: u64,
}

impl SloTracker {
    /// A tracker with no windows yet.
    pub fn new(policy: SloPolicy) -> SloTracker {
        SloTracker {
            policy,
            snaps: VecDeque::from([Snapshot::default()]),
            rolls: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Replaces the budgets (window count takes effect on the next
    /// roll; surplus old windows are dropped immediately).
    pub fn set_policy(&mut self, policy: SloPolicy) {
        self.policy = policy;
        self.trim();
    }

    fn trim(&mut self) {
        while self.snaps.len() > self.policy.windows.max(1) + 1 {
            self.snaps.pop_front();
        }
    }

    /// Rolls one window: what `tel`'s two histograms gained since the
    /// previous roll becomes the newest window, the oldest beyond the
    /// policy's ring size falls off.
    pub fn roll(&mut self, tel: &Telemetry) {
        self.snaps.push_back(Snapshot {
            handle: tel.histogram(HANDLE_NS),
            lag: tel.histogram(CONVERGENCE_LAG_NS),
        });
        self.trim();
        self.rolls += 1;
    }

    /// Windows rolled since creation (monotone; the ring holds at most
    /// `policy.windows` of them).
    pub fn rolls(&self) -> u64 {
        self.rolls
    }

    /// Judges the merged ring against the policy.
    pub fn verdict(&self) -> SloVerdict {
        let (first, last) = (&self.snaps[0], &self.snaps[self.snaps.len() - 1]);
        let (handle, lag) = (last.handle.delta(&first.handle), last.lag.delta(&first.lag));
        let mut v = SloVerdict {
            p50_ns: handle.quantile(0.50),
            p90_ns: handle.quantile(0.90),
            p99_ns: handle.quantile(0.99),
            lag_p99_ns: lag.quantile(0.99),
            samples: handle.count(),
            lag_samples: lag.count(),
            windows: self.snaps.len() - 1,
            breaches: Vec::new(),
        };
        if v.samples >= self.policy.min_samples {
            let mut check = |what: &str, got: Option<u64>, budget: u64| {
                if let Some(got) = got {
                    if got > budget {
                        v.breaches
                            .push(format!("{what} {got}ns > budget {budget}ns"));
                    }
                }
            };
            check("handle p50", v.p50_ns, self.policy.p50_ns);
            check("handle p90", v.p90_ns, self.policy.p90_ns);
            check("handle p99", v.p99_ns, self.policy.p99_ns);
            check("convergence-lag p99", v.lag_p99_ns, self.policy.lag_p99_ns);
        }
        v
    }
}

/// The outcome of judging the rolling windows against the budgets.
#[derive(Debug, Clone, Default)]
pub struct SloVerdict {
    /// Median handle time over the merged windows (bucket edge).
    pub p50_ns: Option<u64>,
    /// 90th-percentile handle time.
    pub p90_ns: Option<u64>,
    /// 99th-percentile handle time.
    pub p99_ns: Option<u64>,
    /// 99th-percentile convergence lag.
    pub lag_p99_ns: Option<u64>,
    /// Handle observations inside the merged windows.
    pub samples: u64,
    /// Lag observations inside the merged windows.
    pub lag_samples: u64,
    /// Windows merged into this verdict.
    pub windows: usize,
    /// Every budget the merged tail exceeds (empty = within budget).
    pub breaches: Vec<String>,
}

impl SloVerdict {
    /// Within budget? Abstaining verdicts (too few samples) hold.
    pub fn ok(&self) -> bool {
        self.breaches.is_empty()
    }

    /// The verdict as a compact JSON object (the daemon's `slo`
    /// response and `tulkun status` payload).
    pub fn to_json(&self) -> tulkun_json::Json {
        use tulkun_json::Json;
        let opt = |v: Option<u64>| match v {
            Some(n) => Json::Int(n as i64),
            None => Json::Null,
        };
        Json::Object(vec![
            ("ok".into(), Json::Bool(self.ok())),
            ("p50_ns".into(), opt(self.p50_ns)),
            ("p90_ns".into(), opt(self.p90_ns)),
            ("p99_ns".into(), opt(self.p99_ns)),
            ("lag_p99_ns".into(), opt(self.lag_p99_ns)),
            ("samples".into(), Json::Int(self.samples as i64)),
            ("lag_samples".into(), Json::Int(self.lag_samples as i64)),
            ("windows".into(), Json::Int(self.windows as i64)),
            (
                "breaches".into(),
                tulkun_json::ToJson::to_json(&self.breaches),
            ),
        ])
    }

    /// The verdict as Prometheus text exposition lines (appended to
    /// the registry export by the service's `metrics` response).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut gauge = |name: &str, v: i64| {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        };
        gauge("tulkun_slo_ok", self.ok() as i64);
        gauge("tulkun_slo_breaches", self.breaches.len() as i64);
        gauge("tulkun_slo_windows", self.windows as i64);
        gauge("tulkun_slo_handle_samples", self.samples as i64);
        gauge("tulkun_slo_handle_p50_ns", self.p50_ns.unwrap_or(0) as i64);
        gauge("tulkun_slo_handle_p90_ns", self.p90_ns.unwrap_or(0) as i64);
        gauge("tulkun_slo_handle_p99_ns", self.p99_ns.unwrap_or(0) as i64);
        gauge(
            "tulkun_slo_convergence_lag_p99_ns",
            self.lag_p99_ns.unwrap_or(0) as i64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn policy() -> SloPolicy {
        SloPolicy {
            p50_ns: 10_000,
            p90_ns: 100_000,
            p99_ns: 1_000_000,
            lag_p99_ns: 10_000_000,
            windows: 2,
            min_samples: 1,
        }
    }

    #[test]
    fn windows_are_deltas_not_cumulative() {
        let tel = Telemetry::enabled();
        let mut slo = SloTracker::new(policy());
        for _ in 0..10 {
            tel.observe(HANDLE_NS, 5_000);
        }
        slo.roll(&tel);
        assert_eq!(slo.verdict().samples, 10);
        // A second roll with no new observations is an empty window.
        slo.roll(&tel);
        assert_eq!(
            slo.verdict().samples,
            10,
            "delta windows must not double-count"
        );
        for _ in 0..4 {
            tel.observe(HANDLE_NS, 5_000);
        }
        slo.roll(&tel);
        // Ring size 2: the first 10-sample window fell off.
        assert_eq!(slo.verdict().samples, 4);
        assert_eq!(slo.rolls(), 3);
    }

    #[test]
    fn breaches_name_the_budget() {
        let tel = Telemetry::enabled();
        let mut slo = SloTracker::new(policy());
        for _ in 0..98 {
            tel.observe(HANDLE_NS, 1_000);
        }
        tel.observe(HANDLE_NS, 40_000_000); // blown tail
        tel.observe(HANDLE_NS, 40_000_000); // rank 99 of 100 lands here
        tel.observe(CONVERGENCE_LAG_NS, 1_000_000);
        slo.roll(&tel);
        let v = slo.verdict();
        assert!(!v.ok());
        assert_eq!(v.breaches.len(), 1, "{:?}", v.breaches);
        assert!(v.breaches[0].contains("handle p99"));
        // 1 000 lies in the bucket (992, 1 008].
        assert_eq!(v.p50_ns, Some(1_008));
        assert_eq!(v.lag_p99_ns, Some(1_000_000));
        assert!(v.prometheus_text().contains("tulkun_slo_ok 0"));
    }

    #[test]
    fn a_lag_above_one_second_breaches_the_default_budget() {
        let tel = Telemetry::enabled();
        let mut slo = SloTracker::new(SloPolicy::default());
        for _ in 0..16 {
            tel.observe(HANDLE_NS, 10_000);
        }
        for _ in 0..4 {
            tel.observe(CONVERGENCE_LAG_NS, 5_000_000_000);
        }
        slo.roll(&tel);
        let v = slo.verdict();
        assert_eq!(v.lag_p99_ns, Some(5_000_000_000));
        assert!(!v.ok(), "{v:?}");
        assert!(
            v.breaches[0].contains("convergence-lag p99"),
            "{:?}",
            v.breaches
        );
    }

    #[test]
    fn too_few_samples_abstains() {
        let tel = Telemetry::enabled();
        let mut slo = SloTracker::new(SloPolicy {
            min_samples: 100,
            ..policy()
        });
        tel.observe(HANDLE_NS, u64::MAX / 2);
        slo.roll(&tel);
        let v = slo.verdict();
        assert!(v.ok(), "abstaining verdicts hold");
        assert_eq!(v.samples, 1);
    }

    #[test]
    fn verdict_json_shape() {
        let slo = SloTracker::new(policy());
        let j = tulkun_json::to_string(&slo.verdict().to_json());
        assert!(j.contains("\"ok\":true"), "{j}");
        assert!(j.contains("\"p99_ns\":null"), "{j}");
    }
}
