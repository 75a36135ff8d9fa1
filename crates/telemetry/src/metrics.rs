//! Metrics registry: named counters, per-device gauges, labeled gauge
//! families and log-linear histograms in one store behind one lock.
//! A gauge is per device, so it can fall, and a snapshot reads its
//! heaviest device.
//!
//! One [`Histogram`] type serves every use: the store, the snapshot,
//! an SLO window (the [`Histogram::delta`] of two cumulative
//! snapshots) and the merge of windows. Its buckets follow one rule:
//! values up to `SUB` = 32 are exact, and every power-of-two octave above
//! splits into `SUB` equal sub-buckets. A quantile therefore lands
//! within 1/`SUB` (3.2 %) of the exact value anywhere in the `u64`
//! range, every power of two is a bucket edge, and no value overflows.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use tulkun_netmodel::topology::DeviceId;

/// Per-envelope device-step time, in charged (switch-model-scaled) ns:
/// the unit the SLO budgets and the benchmark's handle rows read.
pub const HANDLE_NS: &str = "tulkun_dvm_handle_ns";

/// Per-request convergence lag in the always-on service: virtual ns
/// from a request's admission to the quiescence of the round it was
/// applied in.
pub const CONVERGENCE_LAG_NS: &str = "tulkun_convergence_lag_ns";

/// log2 of `SUB`.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power of two, and the largest exact value.
const SUB: u64 = 1 << SUB_BITS;

/// The bucket holding `v`: buckets `0..=SUB` hold their own value;
/// above, the octave `(2^k, 2^(k+1)]` splits into `SUB` sub-buckets
/// of width `2^(k - SUB_BITS)`.
fn bucket(v: u64) -> usize {
    if v <= SUB {
        return v as usize;
    }
    let u = v - 1;
    let shift = 63 - u.leading_zeros() - SUB_BITS;
    (1 + (shift as u64) * SUB + (u >> shift)) as usize
}

/// The largest value bucket `i` holds (saturating at `u64::MAX`).
fn upper(i: usize) -> u64 {
    let i = i as u64;
    if i <= SUB {
        return i;
    }
    let (j, shift) = (i - 1, (i - 1) / SUB - 1);
    u64::try_from(u128::from(j % SUB + SUB + 1) << shift).unwrap_or(u64::MAX)
}

/// A log-linear histogram (see the module docs for the bucket rule).
/// `count`, `sum` and `max` are exact; quantiles are bucket edges.
/// Only the buckets from the lowest to the highest non-empty one are
/// stored, so equal observations make equal histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// The bucket `counts[0]` counts (0 when empty).
    first: usize,
    /// Counts of buckets `first..`; neither end is an empty bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Stores buckets `lo..=hi` too.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.first = lo;
        } else if lo < self.first {
            let below = std::iter::repeat_n(0, self.first - lo);
            self.counts.splice(0..0, below);
            self.first = lo;
        }
        if hi >= self.first + self.counts.len() {
            self.counts.resize(hi + 1 - self.first, 0);
        }
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let i = bucket(value);
        self.cover(i, i);
        self.counts[i - self.first] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the observed values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest observed value (0 when empty). For a [`Histogram::delta`]
    /// window it is exact when the window holds the later snapshot's
    /// maximum, and otherwise the upper edge of its highest bucket.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The nearest-rank `q`-quantile (0 < q ≤ 1): the upper edge of the
    /// bucket holding it, capped at `max` — never below the exact value
    /// and within 1/`SUB` of it. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut cum = 0;
        let k = self.counts.iter().position(|&c| {
            cum += c;
            cum >= rank
        })?;
        Some(upper(self.first + k).min(self.max))
    }

    /// `(upper edge, count)` of every non-empty bucket, ascending.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let nonempty = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        nonempty.map(|(k, &c)| (upper(self.first + k), c))
    }

    /// Adds `other`'s observations to this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.is_empty() {
            return;
        }
        self.cover(other.first, other.first + other.counts.len() - 1);
        let at = other.first - self.first;
        for (a, b) in self.counts[at..].iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The observations made between `prev` and `self`, two cumulative
    /// snapshots of one histogram (saturating if `prev` is not an
    /// earlier snapshot).
    pub fn delta(&self, prev: &Histogram) -> Histogram {
        let mut counts = self.counts.clone();
        for (k, b) in prev.counts.iter().enumerate() {
            let at = (prev.first + k).checked_sub(self.first);
            if let Some(a) = at.and_then(|i| counts.get_mut(i)) {
                *a = a.saturating_sub(*b);
            }
        }
        let lead = counts.iter().take_while(|&&c| c == 0).count();
        counts.drain(..lead);
        while counts.last() == Some(&0) {
            counts.pop();
        }
        let first = if counts.is_empty() {
            0
        } else {
            self.first + lead
        };
        // A maximum above `prev`'s was observed inside the window.
        let max = match counts.len() {
            0 => 0,
            _ if self.max > prev.max => self.max,
            n => upper(first + n - 1).min(self.max),
        };
        Histogram {
            first,
            counts,
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
            max,
        }
    }
}

#[derive(Debug, Default)]
struct Store {
    counters: BTreeMap<&'static str, u64>,
    /// `(name, device)` → that device's current value.
    gauges: BTreeMap<(&'static str, u32), i64>,
    /// Labeled gauge families: `(family, label)` → value, where
    /// `label` is one rendered Prometheus pair like `intent="3"`.
    families: BTreeMap<(&'static str, String), i64>,
    hists: BTreeMap<&'static str, Histogram>,
}

/// The metrics sink behind one lock; see [`crate::Telemetry`] for the
/// recording API and [`MetricsSnapshot`] for reading.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    store: Mutex<Store>,
}

impl MetricsRegistry {
    fn store(&self) -> MutexGuard<'_, Store> {
        self.store
            .lock()
            .expect("no thread panics while holding the metrics lock")
    }

    /// Add `n` to counter `name`.
    pub(crate) fn count(&self, name: &'static str, n: u64) {
        *self.store().counters.entry(name).or_insert(0) += n;
    }

    /// Set `dev`'s value of gauge `name`; the snapshot reports the
    /// largest device's value.
    pub(crate) fn gauge_set(&self, dev: DeviceId, name: &'static str, value: i64) {
        self.store().gauges.insert((name, dev.0), value);
    }

    /// Replace the labeled gauge family `name` with `series`: a series
    /// it does not name is dropped. Each label is a single rendered
    /// Prometheus pair, e.g. `intent="3"`.
    pub(crate) fn gauge_set_family(&self, name: &'static str, series: Vec<(String, i64)>) {
        let mut s = self.store();
        s.families.retain(|(family, _), _| *family != name);
        let series = series.into_iter().map(|(label, v)| ((name, label), v));
        s.families.extend(series);
    }

    /// Record `value` into histogram `name`.
    pub(crate) fn observe(&self, name: &'static str, value: u64) {
        self.store().hists.entry(name).or_default().observe(value);
    }

    /// Histogram `name` (empty if never observed).
    pub(crate) fn histogram(&self, name: &str) -> Histogram {
        self.store().hists.get(name).cloned().unwrap_or_default()
    }

    /// Every counter, gauge and histogram; a gauge set per device
    /// reads its largest device's value, the heaviest device.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let s = self.store();
        let mut snap = MetricsSnapshot::default();
        for (&name, &v) in &s.counters {
            snap.counters.insert(name.to_string(), v);
        }
        for (&(name, _), &v) in &s.gauges {
            let key = (name.to_string(), String::new());
            let heaviest = snap.gauges.entry(key).or_insert(v);
            *heaviest = (*heaviest).max(v);
        }
        for ((name, label), &v) in &s.families {
            snap.gauges.insert((name.to_string(), label.clone()), v);
        }
        for (&name, h) in &s.hists {
            snap.hists.insert(name.to_string(), h.clone());
        }
        snap
    }
}

/// Point-in-time copy of the metrics registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge `(name, rendered label pair)` → value. A gauge set per
    /// device has the empty label and reads its largest device's value;
    /// a labeled family's series carry their pair, e.g.
    /// `("tulkun_intent_fresh", "intent=\"3\"")`.
    pub gauges: BTreeMap<(String, String), i64>,
    /// Histogram name → histogram.
    pub hists: BTreeMap<String, Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId(i)
    }

    fn of(values: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        values.iter().for_each(|&v| h.observe(v));
        h
    }

    /// Values spread over every magnitude of the `u64` range.
    fn values() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec((any::<u64>(), 0u32..64).prop_map(|(v, s)| v >> s), 0..200)
    }

    #[test]
    fn buckets_tile_the_u64_range_with_power_of_two_edges() {
        for i in 0..bucket(u64::MAX) {
            assert_eq!(bucket(upper(i)), i, "upper edge of bucket {i}");
            assert_eq!(
                bucket(upper(i) + 1),
                i + 1,
                "bucket {i} is followed by {}",
                i + 1
            );
        }
        assert_eq!(upper(bucket(u64::MAX)), u64::MAX);
        for k in 0..64 {
            assert_eq!(upper(bucket(1 << k)), 1 << k, "2^{k} is a bucket edge");
        }
    }

    #[test]
    fn a_gauge_reads_its_heaviest_device() {
        let reg = MetricsRegistry::default();
        reg.count("msgs", 2);
        reg.count("msgs", 3);
        reg.count("msgs", 5);
        reg.observe("tiny", 5);
        reg.observe("tiny", 500);
        for (d, v) in [(1, 100), (17, 5), (2, 40)] {
            reg.gauge_set(dev(d), "hw", v);
        }
        let hw = |reg: &MetricsRegistry| reg.snapshot().gauges[&("hw".into(), String::new())];
        assert_eq!(
            hw(&reg),
            100,
            "the heaviest device, whichever device wrote last"
        );
        reg.gauge_set(dev(1), "hw", 10);
        assert_eq!(hw(&reg), 40, "a device's gauge can fall");
        let snap = reg.snapshot();
        assert_eq!(snap.counters["msgs"], 10);
        assert_eq!(snap.hists["tiny"], of(&[5, 500]));
        assert_eq!(reg.histogram("tiny"), of(&[5, 500]));
        assert_eq!(reg.histogram("absent"), Histogram::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every quantile is within 5 % of the exact nearest-rank value
        /// (and never below it), `count`/`sum`/`max` are exact, `merge`
        /// commutes, and the delta of `a` merged with `b` against `a`
        /// is `b` — its maximum exact whenever `b` holds the larger one.
        #[test]
        fn histogram_is_a_faithful_sketch(a in values(), b in values()) {
            let (ha, hb) = (of(&a), of(&b));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            prop_assert_eq!(ha.count(), a.len() as u64);
            prop_assert_eq!(ha.sum(), a.iter().map(|&v| u128::from(v)).sum::<u128>());
            prop_assert_eq!(ha.max(), sorted.last().copied().unwrap_or(0));
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let Some(got) = ha.quantile(q) else {
                    prop_assert!(a.is_empty());
                    continue;
                };
                let rank = ((q * a.len() as f64).ceil() as usize).clamp(1, a.len());
                let exact = sorted[rank - 1];
                prop_assert!(got >= exact, "q{q}: {got} < exact {exact}");
                prop_assert!((got - exact) as f64 <= 0.05 * exact as f64, "q{q}: {got} vs {exact}");
            }
            let (mut ab, mut ba) = (ha.clone(), hb.clone());
            ab.merge(&hb);
            ba.merge(&ha);
            prop_assert_eq!(&ab, &ba);
            let d = ab.delta(&ha);
            if ha.max() <= hb.max() {
                prop_assert_eq!(&d, &hb);
            } else {
                prop_assert_eq!(&d, &Histogram { max: d.max(), ..hb.clone() });
                prop_assert!(d.max() >= hb.max() && bucket(d.max()) == bucket(hb.max()));
            }
        }
    }
}
