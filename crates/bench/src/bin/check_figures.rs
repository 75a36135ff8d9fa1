//! CI validator for the JSON figure sidecars.
//!
//! Two modes:
//!
//! **Scan** (default): the `bench-smoke` CI stage runs the `figures`
//! binary on tiny topologies and then runs this tool to assert the run
//! actually produced well-formed output: every `*.json` under
//! `target/figures/` must parse back into a [`FigureTable`] with
//! consistent row widths, and every id named on the command line must
//! exist with at least one row. `--all` expands to every id listed in
//! [`tulkun_bench::FIGURES`].
//!
//! **Diff** (`--diff OLD NEW`): compares two FigureTable snapshots —
//! the committed `BENCH_*.json` baseline against a fresh run. The
//! schema (id, headers, row count) must match exactly. `--exact COLS`
//! names comma-separated columns whose cells must be stringwise equal
//! row-by-row (labels, counters, correctness bits).
//!
//! Usage:
//!   `check_figures [--all] [required-id ...]`
//!   `check_figures --diff OLD NEW [--exact COLS]`
//!
//! Neither mode checks timing — what a run costs is the business of
//! the benchmark in `benchmark/`, which compares parent and change on
//! one host; this tool guards structure and verdicts.

use std::process::ExitCode;
use tulkun_bench::{figures_dir, FigureTable, FIGURES};

fn load_table(path: &str) -> Result<FigureTable, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let table: FigureTable = tulkun_json::from_str(&text)
        .map_err(|e| format!("{path} is not a well-formed FigureTable: {e:?}"))?;
    Ok(table)
}

/// `--diff` mode. Returns the list of failures (empty = pass).
fn diff_tables(old: &FigureTable, new: &FigureTable, exact: &[String]) -> Vec<String> {
    let mut fails = Vec::new();
    if old.id != new.id {
        fails.push(format!("id mismatch: {:?} vs {:?}", old.id, new.id));
    }
    if old.headers != new.headers {
        fails.push(format!(
            "header mismatch: {:?} vs {:?}",
            old.headers, new.headers
        ));
        return fails; // Column lookups below would be meaningless.
    }
    if old.rows.len() != new.rows.len() {
        fails.push(format!(
            "row count mismatch: {} vs {}",
            old.rows.len(),
            new.rows.len()
        ));
        return fails;
    }
    let col = |name: &str| old.headers.iter().position(|h| h == name);
    for name in exact {
        let Some(c) = col(name) else {
            fails.push(format!("--exact column {name:?} not in headers"));
            continue;
        };
        for (i, (o, n)) in old.rows.iter().zip(&new.rows).enumerate() {
            if o.get(c) != n.get(c) {
                fails.push(format!(
                    "row {i} column {name:?}: {:?} vs {:?}",
                    o.get(c),
                    n.get(c)
                ));
            }
        }
    }
    fails
}

fn run_diff(args: &[String]) -> ExitCode {
    let mut old_path = None;
    let mut new_path = None;
    let mut exact: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exact" => {
                i += 1;
                exact = args
                    .get(i)
                    .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
                    .unwrap_or_default();
            }
            p if old_path.is_none() => old_path = Some(p.to_string()),
            p if new_path.is_none() => new_path = Some(p.to_string()),
            other => {
                eprintln!("check_figures: unexpected --diff argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let (Some(old_path), Some(new_path)) = (old_path, new_path) else {
        eprintln!("check_figures: --diff needs OLD and NEW paths");
        return ExitCode::FAILURE;
    };
    let (old, new) = match (load_table(&old_path), load_table(&new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => {
            for e in [o.err(), n.err()].into_iter().flatten() {
                eprintln!("check_figures: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let fails = diff_tables(&old, &new, &exact);
    if fails.is_empty() {
        println!(
            "check_figures: diff ok {} ({} rows, {} exact col(s))",
            old.id,
            old.rows.len(),
            exact.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &fails {
            eprintln!("check_figures: diff {}: {f}", old.id);
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        return run_diff(&args[1..]);
    }

    let mut required: Vec<String> = Vec::new();
    for a in &args {
        if a == "--all" {
            required.extend(
                FIGURES
                    .iter()
                    .flat_map(|(.., ids)| *ids)
                    .map(|s| s.to_string()),
            );
        } else {
            required.push(a.clone());
        }
    }
    let dir = figures_dir();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("check_figures: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };

    let mut seen: Vec<(String, usize)> = Vec::new();
    let mut failed = false;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let table = match load_table(&path.display().to_string()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("check_figures: {e}");
                failed = true;
                continue;
            }
        };
        if table.headers.is_empty() {
            eprintln!("check_figures: {} has no headers", path.display());
            failed = true;
        }
        for (i, row) in table.rows.iter().enumerate() {
            if row.len() != table.headers.len() {
                eprintln!(
                    "check_figures: {} row {i} has {} cells, expected {}",
                    path.display(),
                    row.len(),
                    table.headers.len()
                );
                failed = true;
            }
        }
        println!(
            "check_figures: ok {} ({} rows, {} cols)",
            table.id,
            table.rows.len(),
            table.headers.len()
        );
        seen.push((table.id, table.rows.len()));
    }

    for id in &required {
        match seen.iter().find(|(s, _)| s == id) {
            Some((_, rows)) if *rows > 0 => {}
            Some(_) => {
                eprintln!("check_figures: required figure {id:?} has no rows");
                failed = true;
            }
            None => {
                eprintln!(
                    "check_figures: required figure {id:?} missing from {}",
                    dir.display()
                );
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "check_figures: {} figure(s) validated, {} required id(s) present",
            seen.len(),
            required.len()
        );
        ExitCode::SUCCESS
    }
}
