//! `benchmark compare <a.json> <b.json>`: are two sets of runs the same
//! within the bounds `BENCHMARK.json` fixes?
//!
//! A result file is what `run.sh --set` writes: `{"host": {...},
//! "runs": [{"workload", "seed", "trace", "result"}, ...]}` where
//! `result` is a run's last output line. Per workload and end-to-end
//! metric the value of a file is the median over its untraced runs; with
//! four or more runs the spread (quartile distance over median) is
//! known too, and a difference inside a spread wider than the bound is
//! `unresolved`, not `ok`.

use std::collections::BTreeMap;

use tulkun::json::{self, Json};

use crate::stats;

/// An end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// Share of `a`'s median by which `b` may be worse.
    pub bound: f64,
}

/// `workload -> metric -> one value per untraced run`.
pub type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The runs of one side spread wider than the bound: the difference
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of `a`'s runs.
    pub a: f64,
    /// Median of `b`'s runs.
    pub b: f64,
    /// `b / a`.
    pub ratio: f64,
    /// Widest spread of the two sides, when both have four runs.
    pub spread: Option<f64>,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(n) => Some(*n as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}

/// Reads the `end_to_end` list of a `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("end_to_end entry without {k}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// Collects the untraced runs of a result file. Runs that were not
/// correct are an error: their numbers mean nothing.
pub fn parse_results(text: &str) -> Result<Values, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no runs list")?;
    let mut out = Values::new();
    for run in runs {
        if run.get("trace").and_then(number) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let result = run.get("result").ok_or("run without result")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("a {workload} run is not correct"));
        }
        let Some(Json::Object(metrics)) = result.get("metrics") else {
            return Err(format!("a {workload} run has no metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(number)
                .ok_or(format!("{workload}/{name} has no value"))?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Compares `b` against `a` for every workload × end-to-end metric.
pub fn compare(bounds: &[Bound], a: &Values, b: &Values) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (workload, metrics) in a {
        for bound in bounds {
            let va = metrics
                .get(&bound.name)
                .ok_or(format!("a: {workload} lacks {}", bound.name))?;
            let vb = b
                .get(workload)
                .and_then(|m| m.get(&bound.name))
                .ok_or(format!("b: {workload} lacks {}", bound.name))?;
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let worse_by = if bound.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let spread =
                (va.len() >= 4 && vb.len() >= 4).then(|| stats::spread(va).max(stats::spread(vb)));
            let verdict = if spread.is_some_and(|s| s > bound.bound) {
                Verdict::Unresolved
            } else if worse_by > bound.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                a: ma,
                b: mb,
                ratio: mb / ma,
                spread,
                bound: bound.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Lossy-over-clean wall-clock ratios of the `plan-churn` twins in one
/// file: what the reliability layer and the injected loss cost
/// (`reliable.wall_ratio_*` — it needs both twins, so it is a row here
/// and not a metric of one run).
pub fn twin_ratios(values: &Values) -> Vec<(String, f64)> {
    let p50 = |workload: &str, metric: &str| {
        values
            .get(workload)
            .and_then(|m| m.get(metric))
            .map(|v| stats::median(v))
    };
    ["primary_ms_p50", "secondary_ms_p50"]
        .iter()
        .filter_map(|metric| {
            let ratio = p50("plan-churn-lossy", metric)? / p50("plan-churn", metric)?;
            Some((format!("plan-churn-lossy / plan-churn {metric}"), ratio))
        })
        .collect()
}

/// Prints the table; returns whether anything regressed.
pub fn print(rows: &[Row], bounds: &[Bound]) -> bool {
    println!(
        "{:<18} {:<30} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric [unit]", "a (median)", "b (median)", "b/a", "spread", "bound"
    );
    for r in rows {
        let unit = bounds
            .iter()
            .find(|b| b.name == r.metric)
            .map_or("", |b| b.unit.as_str());
        println!(
            "{:<18} {:<30} {:>14.4} {:>14.4} {:>8.4} {:>8} {:>5.0}%  {}",
            r.workload,
            format!("{} [{unit}]", r.metric),
            r.a,
            r.b,
            r.ratio,
            r.spread
                .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

/// The self-test: a set compared with itself is `ok` everywhere;
/// worsening one metric by twice its bound must be caught, and a set
/// whose own runs spread wider than the bound must read `unresolved`.
pub fn selftest(bounds: &[Bound]) -> Result<(), String> {
    let mut base = Values::new();
    for w in ["w1", "w2"] {
        for b in bounds {
            // Four runs within ±1 % of 100.
            base.entry(w.to_string())
                .or_default()
                .insert(b.name.clone(), vec![99.0, 100.0, 100.5, 101.0]);
        }
    }
    let same = compare(bounds, &base, &base)?;
    if same.iter().any(|r| r.verdict != Verdict::Ok) {
        return Err("a set compared with itself is not ok everywhere".into());
    }
    for target in bounds {
        let mut worse = base.clone();
        let factor = if target.higher_is_better {
            1.0 - 2.0 * target.bound
        } else {
            1.0 + 2.0 * target.bound
        };
        for v in worse
            .get_mut("w2")
            .and_then(|m| m.get_mut(&target.name))
            .expect("built above")
        {
            *v *= factor;
        }
        let rows = compare(bounds, &base, &worse)?;
        for r in &rows {
            let hit = r.workload == "w2" && r.metric == target.name;
            let want = if hit { Verdict::Regressed } else { Verdict::Ok };
            if r.verdict != want {
                return Err(format!(
                    "{} x2 bound on w2: {}/{} reads {}, want {}",
                    target.name,
                    r.workload,
                    r.metric,
                    r.verdict.label(),
                    want.label()
                ));
            }
        }
    }
    let mut noisy = base.clone();
    let first = &bounds[0];
    noisy
        .get_mut("w1")
        .expect("built above")
        .insert(first.name.clone(), vec![50.0, 90.0, 110.0, 150.0]);
    let rows = compare(bounds, &base, &noisy)?;
    let row = rows
        .iter()
        .find(|r| r.workload == "w1" && r.metric == first.name)
        .expect("row exists");
    if row.verdict != Verdict::Unresolved {
        return Err(format!(
            "a spread of {:?} reads {}",
            row.spread,
            row.verdict.label()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"{"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}]}"#;

    fn file(latency: &[f64], rate: &[f64]) -> String {
        let runs: Vec<String> = latency
            .iter()
            .zip(rate)
            .map(|(l, r)| {
                format!(
                    r#"{{"workload": "w", "seed": 7, "trace": 0, "result": {{"correct": true,
                    "attempted": 5, "failed": 0, "metrics": {{
                    "latency_ms": {{"value": {l}, "unit": "ms"}},
                    "ops_per_s": {{"value": {r}, "unit": "1/s"}}}}}}}}"#
                )
            })
            .collect();
        format!(r#"{{"host": {{}}, "runs": [{}]}}"#, runs.join(","))
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let bounds = parse_bounds(MANIFEST).unwrap();
        let a = parse_results(&file(&[10.0], &[100.0])).unwrap();
        // 9 % slower and 4 % fewer ops: inside both bounds.
        let b = parse_results(&file(&[10.9], &[96.0])).unwrap();
        let rows = compare(&bounds, &a, &b).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
        // 6 % fewer ops: outside; faster latency is never a regression.
        let b = parse_results(&file(&[5.0], &[94.0])).unwrap();
        let rows = compare(&bounds, &a, &b).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        assert_eq!(rows[0].spread, None);
    }

    #[test]
    fn incorrect_runs_are_refused() {
        let text = file(&[10.0], &[100.0]).replace("\"correct\": true", "\"correct\": false");
        assert!(parse_results(&text).is_err());
    }

    #[test]
    fn selftest_passes_on_the_test_manifest() {
        selftest(&parse_bounds(MANIFEST).unwrap()).unwrap();
    }
}
