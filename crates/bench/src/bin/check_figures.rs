//! CI validator for the JSON figure sidecars.
//!
//! The `bench-smoke` CI stage runs the `figures` binary on tiny
//! topologies and then runs this tool to assert the run actually
//! produced well-formed output. It reads exactly the figures it is
//! given — `target/figures/<id>.json` for each id — and nothing else
//! in the directory, so a stale sidecar of a retired figure can neither
//! fail a clean run nor pass unnoticed. Each must exist, parse back
//! into a [`FigureTable`] of that id with at least one row and
//! consistent row widths, and every cell of a `same report` column (a
//! Report byte-equality verdict) must read `true`. `--all` expands to
//! every id listed in [`tulkun_bench::FIGURES`]; an id that table does
//! not list is refused.
//!
//! Usage: `check_figures (--all | id ...)`
//!
//! It does not check timing — what a run costs is the business of the
//! benchmark in `benchmark/`, which compares parent and change on one
//! host; this tool guards structure and verdicts.

use std::path::Path;
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
    if table.rows.is_empty() {
        faults.push("has no rows".to_string());
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

/// Validates the sidecar of each of `ids` in `dir` and returns what is
/// wrong (empty = every one passes). Reads no other file.
fn check(dir: &Path, ids: &[&str]) -> Vec<String> {
    let mut faults = Vec::new();
    for id in ids {
        let path = dir.join(format!("{id}.json"));
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| format!("is missing: {e}"))
            .and_then(|text| {
                tulkun_json::from_str::<FigureTable>(&text)
                    .map_err(|e| format!("is not a well-formed FigureTable: {e:?}"))
            });
        let found = match parsed {
            Ok(table) if table.id != *id => vec![format!("holds figure {:?}", table.id)],
            Ok(table) => {
                let found = table_faults(&table);
                if found.is_empty() {
                    println!(
                        "check_figures: ok {id} ({} rows, {} cols)",
                        table.rows.len(),
                        table.headers.len()
                    );
                }
                found
            }
            Err(e) => vec![e],
        };
        let shown = path.display();
        faults.extend(found.into_iter().map(|f| format!("{id} ({shown}) {f}")));
    }
    faults
}

fn main() -> ExitCode {
    let listed: Vec<&str> = FIGURES.iter().flat_map(|(.., ids)| *ids).copied().collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<&str> = Vec::new();
    for a in &args {
        if a == "--all" {
            ids.extend(&listed);
        } else if let Some(id) = listed.iter().find(|id| **id == a) {
            ids.push(id);
        } else {
            eprintln!("check_figures: {a:?} is not a figure id listed in FIGURES");
            return ExitCode::FAILURE;
        }
    }
    if ids.is_empty() {
        eprintln!("usage: check_figures (--all | id ...)");
        return ExitCode::FAILURE;
    }
    let faults = check(&figures_dir(), &ids);
    for fault in &faults {
        eprintln!("check_figures: {fault}");
    }
    if faults.is_empty() {
        println!("check_figures: {} figure(s) validated", ids.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
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
        assert_eq!(table_faults(&table(&headers, &[])), vec!["has no rows"]);
    }

    /// Only the listed ids are read: a stale sidecar of a retired figure
    /// beside them, holding a `false` verdict, changes nothing, while a
    /// listed id that is missing fails the check.
    #[test]
    fn only_the_listed_figures_are_validated() {
        let dir = std::env::temp_dir().join(format!("check-figures-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let listed: Vec<&str> = FIGURES.iter().flat_map(|(.., ids)| *ids).copied().collect();
        let write = |id: &str, verdict: &str| {
            let mut t = FigureTable::new(id, "test figure", &["dataset", VERDICT]);
            t.row(vec!["INet2".into(), verdict.into()]);
            std::fs::write(dir.join(format!("{id}.json")), tulkun_json::to_string(&t)).unwrap();
        };
        for id in &listed {
            write(id, "true");
        }
        write(concat!("bench", "_backends"), "false");
        assert_eq!(check(&dir, &listed), Vec::<String>::new());

        std::fs::remove_file(dir.join(format!("{}.json", listed[0]))).unwrap();
        let faults = check(&dir, &listed);
        assert_eq!(faults.len(), 1, "{faults:?}");
        assert!(
            faults[0].starts_with(&format!("{} (", listed[0])) && faults[0].contains("is missing"),
            "{faults:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
