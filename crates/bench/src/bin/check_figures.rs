//! CI validator for the JSON figure sidecars.
//!
//! The `bench-smoke` CI stage runs the `figures` binary on tiny
//! topologies and then runs this tool to assert the run actually
//! produced well-formed output: every `*.json` under `target/figures/`
//! must parse back into a [`FigureTable`] with consistent row widths,
//! every cell of a `same report` column (a Report byte-equality
//! verdict) must read `true`, and every id named on the command line
//! must exist with at least one row. `--all` expands to every id listed
//! in [`tulkun_bench::FIGURES`].
//!
//! Usage: `check_figures [--all] [required-id ...]`
//!
//! It does not check timing — what a run costs is the business of the
//! benchmark in `benchmark/`, which compares parent and change on one
//! host; this tool guards structure and verdicts.

use std::process::ExitCode;
use tulkun_bench::{figures_dir, FigureTable, FIGURES};

/// The column whose every cell is a Report byte-equality verdict.
const VERDICT: &str = "same report";

/// What is wrong with one parsed table (empty = nothing).
fn table_faults(table: &FigureTable) -> Vec<String> {
    let mut faults = Vec::new();
    if table.headers.is_empty() {
        faults.push("has no headers".to_string());
    }
    let verdict = table.headers.iter().position(|h| h == VERDICT);
    for (i, row) in table.rows.iter().enumerate() {
        if row.len() != table.headers.len() {
            faults.push(format!(
                "row {i} has {} cells, expected {}",
                row.len(),
                table.headers.len()
            ));
        }
        if let Some(cell) = verdict.and_then(|c| row.get(c)).filter(|c| *c != "true") {
            faults.push(format!("row {i} {VERDICT:?} is {cell:?}, want \"true\""));
        }
    }
    faults
}

fn main() -> ExitCode {
    let mut required: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        if a == "--all" {
            required.extend(
                FIGURES
                    .iter()
                    .flat_map(|(.., ids)| *ids)
                    .map(|s| s.to_string()),
            );
        } else {
            required.push(a);
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
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read it: {e}"))
            .and_then(|text| {
                tulkun_json::from_str::<FigureTable>(&text)
                    .map_err(|e| format!("is not a well-formed FigureTable: {e:?}"))
            });
        let table = match parsed {
            Ok(t) => t,
            Err(e) => {
                eprintln!("check_figures: {} {e}", path.display());
                failed = true;
                continue;
            }
        };
        let faults = table_faults(&table);
        for fault in &faults {
            eprintln!("check_figures: {} ({}) {fault}", table.id, path.display());
        }
        if faults.is_empty() {
            println!(
                "check_figures: ok {} ({} rows, {} cols)",
                table.id,
                table.rows.len(),
                table.headers.len()
            );
        }
        failed |= !faults.is_empty();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn table(headers: &[&str], rows: &[&[&str]]) -> FigureTable {
        let mut t = FigureTable::new("t", "test table", headers);
        for row in rows {
            t.row(row.iter().map(|c| c.to_string()).collect());
        }
        t
    }

    #[test]
    fn every_same_report_cell_must_read_true() {
        let headers = ["dataset", "same report"];
        let refused = table(&headers, &[&["INet2", "true"], &["AT1-2", "false"]]);
        assert_eq!(
            table_faults(&refused),
            vec!["row 1 \"same report\" is \"false\", want \"true\"".to_string()]
        );
        let passes = table(&headers, &[&["INet2", "true"], &["AT1-2", "true"]]);
        assert!(table_faults(&passes).is_empty());
        let no_verdicts = table(&["dataset", "messages"], &[&["INet2", "false"]]);
        assert!(table_faults(&no_verdicts).is_empty());
    }
}
