//! The Tulkun daemon-protocol benchmark. See `README.md`.

mod compare;
mod gen;
mod oracle;
mod probes;
mod rng;
mod run;
mod spool;
mod stats;
mod trace;
mod traced;

use gen::Workload;
use run::{Outcome, RunArgs};

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                [--trace-dir DIR] [--scratch DIR]\n\
         \x20      benchmark compare <a.json> <b.json> [--manifest BENCHMARK.json]\n\
         \x20      benchmark compare --selftest [--manifest BENCHMARK.json]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_run_args(args: &[String]) -> (RunArgs, bool) {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut trace_dir = None;
    // Beside the binary: inside the build's target directory, which is
    // inside the checkout.
    let mut scratch = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_else(|| "benchmark/target".into());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::by_name(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            "--trace-dir" => trace_dir = Some(value.into()),
            "--scratch" => scratch = value.into(),
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage();
    }
    (
        RunArgs {
            workload,
            seed,
            seconds,
            trace_dir,
            scratch,
        },
        trace,
    )
}

/// Every metric by name with unit and sample count, modelled figures in
/// a section of their own, then the result line the driver reads.
fn print_outcome(args: &RunArgs, traced: bool, out: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {} ops {} digest({} ops) {:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        traced as u8,
        out.attempted,
        run::DIGEST_OPS,
        out.digest
    );
    for modelled in [false, true] {
        println!(
            "-- {} --",
            if modelled {
                "modelled (virtual clock: measured CPU x switch model + configured link latency + retransmit timers; never added to a measured figure)"
            } else {
                "measured (host wall clock, counts, memory)"
            }
        );
        for m in out.metrics.iter().filter(|m| m.modelled == modelled) {
            println!(
                "{:<36} {:>18.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

/// Holds the metric names about to be printed to `BENCHMARK.json` in
/// the working directory (the root of a checkout): exactly its
/// `end_to_end` list for a timed run, its `per_layer` list for a traced
/// one. Skipped where there is no such file.
fn check_manifest(out: &Outcome, traced: bool) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc = tulkun::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = if traced { "per_layer" } else { "end_to_end" };
    let mut want: Vec<(&str, &str)> = doc
        .get(list)
        .and_then(|l| l.as_array())
        .ok_or(format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
        .collect();
    let mut got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    if want == got {
        return Ok(());
    }
    let only = |a: &[(&str, &str)], b: &[(&str, &str)]| -> Vec<String> {
        a.iter()
            .filter(|x| !b.contains(x))
            .map(|(n, u)| format!("{n} [{u}]"))
            .collect()
    };
    Err(format!(
        "metrics differ from BENCHMARK.json {list}: only printed {:?}, only listed {:?}",
        only(&got, &want),
        only(&want, &got)
    ))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchmark: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn compare_main(args: &[String]) -> ! {
    let mut files = Vec::new();
    let mut manifest = "BENCHMARK.json".to_string();
    let mut selftest = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--manifest" => manifest = it.next().cloned().unwrap_or_else(|| usage()),
            "--selftest" => selftest = true,
            _ => files.push(a.clone()),
        }
    }
    let fail = |e: String| -> ! {
        eprintln!("benchmark compare: {e}");
        std::process::exit(2);
    };
    let bounds = compare::parse_bounds(&read(&manifest)).unwrap_or_else(|e| fail(e));
    if selftest {
        compare::selftest(&bounds).unwrap_or_else(|e| fail(e));
        println!(
            "compare self-test: ok ({} metrics: twice the bound trips each, a wide spread reads unresolved)",
            bounds.len()
        );
        std::process::exit(0);
    }
    let [a, b] = files.as_slice() else { usage() };
    let va = compare::parse_results(&read(a)).unwrap_or_else(|e| fail(format!("{a}: {e}")));
    let vb = compare::parse_results(&read(b)).unwrap_or_else(|e| fail(format!("{b}: {e}")));
    let rows = compare::compare(&bounds, &va, &vb).unwrap_or_else(|e| fail(e));
    let regressed = compare::print(&rows, &bounds);
    for (side, values) in [("a", &va), ("b", &vb)] {
        for (what, ratio) in compare::twin_ratios(values) {
            println!("{side}: {what} = {ratio:.4}");
        }
    }
    std::process::exit(regressed as i32);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..]);
    }
    let (run_args, traced) = parse_run_args(&args);
    let out = if traced {
        traced::run_traced(&run_args)
    } else {
        run::run_timed(&run_args)
    };
    if let Err(e) = check_manifest(&out, traced) {
        eprintln!("benchmark: {e}");
        std::process::exit(3);
    }
    print_outcome(&run_args, traced, &out);
    if out.failed > 0 {
        std::process::exit(1);
    }
}
