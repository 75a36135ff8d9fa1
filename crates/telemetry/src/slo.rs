//! Rolling SLO windows over the metrics registry.
//!
//! The always-on service must *hold* a latency budget, not just record
//! one: [`SloTracker`] turns the cumulative histograms of a
//! [`crate::MetricsRegistry`] into a bounded ring of per-window deltas
//! and judges the merged tail against a [`SloPolicy`]. Because the
//! registry's counters are monotone, a window is simply the bucket-wise
//! difference of two snapshots ([`HistSnapshot::delta`]), so the
//! tracker adds no per-observation cost to the hot path — verifiers
//! keep recording into the same sharded registry they always did, and
//! the service rolls a window at its own cadence (once per drained
//! request round).
//!
//! Verdicts are quantized to the histogram's 1-2-5 bucket grid: a
//! reported p99 is the upper bound of the bucket holding the 99th
//! percentile. That is deliberate — bucket bounds are stable across
//! runs while raw tail samples jitter.

use std::collections::VecDeque;

use crate::metrics::{HistSnapshot, MetricsSnapshot, CONVERGENCE_LAG_NS, HANDLE_NS};

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

/// One rolled window: the handle-time and convergence-lag observations
/// made between two registry snapshots.
#[derive(Debug, Clone)]
struct SloWindow {
    handle: Option<HistSnapshot>,
    lag: Option<HistSnapshot>,
}

/// Rolling-window SLO judge over cumulative [`MetricsSnapshot`]s.
#[derive(Debug)]
pub struct SloTracker {
    policy: SloPolicy,
    last: MetricsSnapshot,
    ring: VecDeque<SloWindow>,
    rolls: u64,
}

impl SloTracker {
    /// A tracker with no windows yet.
    pub fn new(policy: SloPolicy) -> SloTracker {
        SloTracker {
            policy,
            last: MetricsSnapshot::default(),
            ring: VecDeque::new(),
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
        while self.ring.len() > self.policy.windows.max(1) {
            self.ring.pop_front();
        }
    }

    /// Rolls one window: the delta of `snap` against the previous roll
    /// becomes the newest window, the oldest beyond the policy's ring
    /// size falls off.
    pub fn roll(&mut self, snap: &MetricsSnapshot) {
        let delta_of = |name: &str, snap: &MetricsSnapshot, last: &MetricsSnapshot| {
            let cur = snap.hists.get(name)?;
            Some(match last.hists.get(name) {
                Some(prev) => cur.delta(prev),
                None => cur.clone(),
            })
        };
        let w = SloWindow {
            handle: delta_of(HANDLE_NS.name, snap, &self.last),
            lag: delta_of(CONVERGENCE_LAG_NS.name, snap, &self.last),
        };
        self.ring.push_back(w);
        while self.ring.len() > self.policy.windows.max(1) {
            self.ring.pop_front();
        }
        self.last = snap.clone();
        self.rolls += 1;
    }

    /// Windows rolled since creation (monotone; the ring holds at most
    /// `policy.windows` of them).
    pub fn rolls(&self) -> u64 {
        self.rolls
    }

    /// Judges the merged ring against the policy.
    pub fn verdict(&self) -> SloVerdict {
        let merged = |pick: fn(&SloWindow) -> &Option<HistSnapshot>| -> Option<HistSnapshot> {
            let mut acc: Option<HistSnapshot> = None;
            for w in &self.ring {
                if let Some(h) = pick(w) {
                    match &mut acc {
                        Some(a) => a.merge(h),
                        None => acc = Some(h.clone()),
                    }
                }
            }
            acc
        };
        let handle = merged(|w| &w.handle);
        let lag = merged(|w| &w.lag);
        let q = |h: &Option<HistSnapshot>, p: f64| h.as_ref().and_then(|h| h.quantile(p));
        let mut v = SloVerdict {
            p50_ns: q(&handle, 0.50),
            p90_ns: q(&handle, 0.90),
            p99_ns: q(&handle, 0.99),
            lag_p99_ns: q(&lag, 0.99),
            samples: handle.as_ref().map_or(0, |h| h.count),
            lag_samples: lag.as_ref().map_or(0, |h| h.count),
            windows: self.ring.len(),
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
    /// Median handle time over the merged windows (bucket bound).
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
    use crate::metrics::MetricsRegistry;
    use tulkun_netmodel::topology::DeviceId;

    fn dev(i: u32) -> DeviceId {
        DeviceId(i)
    }

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
        let reg = MetricsRegistry::new();
        let mut slo = SloTracker::new(policy());
        for _ in 0..10 {
            reg.observe(dev(0), &HANDLE_NS, 5_000);
        }
        slo.roll(&reg.snapshot());
        assert_eq!(slo.verdict().samples, 10);
        // A second roll with no new observations is an empty window.
        slo.roll(&reg.snapshot());
        assert_eq!(
            slo.verdict().samples,
            10,
            "delta windows must not double-count"
        );
        for _ in 0..4 {
            reg.observe(dev(0), &HANDLE_NS, 5_000);
        }
        slo.roll(&reg.snapshot());
        // Ring size 2: the first 10-sample window fell off.
        assert_eq!(slo.verdict().samples, 4);
        assert_eq!(slo.rolls(), 3);
    }

    #[test]
    fn breaches_name_the_budget() {
        let reg = MetricsRegistry::new();
        let mut slo = SloTracker::new(policy());
        for _ in 0..98 {
            reg.observe(dev(0), &HANDLE_NS, 1_000);
        }
        reg.observe(dev(0), &HANDLE_NS, 40_000_000); // blown tail
        reg.observe(dev(0), &HANDLE_NS, 40_000_000); // rank 99 of 100 lands here
        reg.observe(dev(0), &CONVERGENCE_LAG_NS, 1_000_000);
        slo.roll(&reg.snapshot());
        let v = slo.verdict();
        assert!(!v.ok());
        assert_eq!(v.breaches.len(), 1, "{:?}", v.breaches);
        assert!(v.breaches[0].contains("handle p99"));
        assert_eq!(v.p50_ns, Some(1_000));
        assert_eq!(v.lag_p99_ns, Some(1_000_000));
        assert!(v.prometheus_text().contains("tulkun_slo_ok 0"));
    }

    #[test]
    fn too_few_samples_abstains() {
        let reg = MetricsRegistry::new();
        let mut slo = SloTracker::new(SloPolicy {
            min_samples: 100,
            ..policy()
        });
        reg.observe(dev(0), &HANDLE_NS, u64::MAX / 2);
        slo.roll(&reg.snapshot());
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
