//! Table printing and JSON figure output.

use std::path::PathBuf;
use std::sync::Mutex;

/// Ids saved by this process, in order (see [`take_emitted`]).
static EMITTED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Where the JSON sidecars live: `<target dir>/figures`.
pub fn figures_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("figures")
}

/// The ids of the figures saved since the last call, in emission
/// order — what the `figures` binary holds against the list each
/// entry of [`crate::FIGURES`] declares.
pub fn take_emitted() -> Vec<String> {
    std::mem::take(&mut *EMITTED.lock().expect("no emitter panics holding the lock"))
}

/// A printable figure/table with a JSON sidecar.
#[derive(Debug, Clone)]
pub struct FigureTable {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl FigureTable {
    /// New empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> FigureTable {
        FigureTable {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        println!("== {} — {} ==", self.id, self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        println!();
    }

    /// Writes the JSON sidecar to `target/figures/<id>.json`.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = figures_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, tulkun_json::to_string_pretty(self))?;
        EMITTED
            .lock()
            .expect("no emitter panics holding the lock")
            .push(self.id.clone());
        Ok(path)
    }

    /// Prints and saves.
    pub fn finish(&self) {
        self.print();
        match self.save() {
            Ok(p) => println!("[saved {}]", p.display()),
            Err(e) => eprintln!("[could not save figure json: {e}]"),
        }
    }
}

tulkun_json::impl_json_object!(FigureTable {
    id,
    title,
    headers,
    rows
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_builds_and_serializes() {
        let mut t = FigureTable::new("test", "demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let json = tulkun_json::to_string(&t);
        assert!(json.contains("demo"));
        let back: FigureTable = tulkun_json::from_str(&json).unwrap();
        assert_eq!(back.rows, t.rows);
        t.print();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = FigureTable::new("t", "t", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
