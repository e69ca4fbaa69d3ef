//! Reporting helpers shared by the figure-regeneration binaries: aligned
//! console tables (the "same rows/series the paper reports") plus CSV and
//! JSON output under `bench_out/` for plotting and machine diffing.

use phj_obs::Json;
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A simple column-aligned table that mirrors one paper figure/table.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringifies every cell).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Print to stdout and write `bench_out/<slug>.csv` plus a
    /// machine-readable `bench_out/<slug>.json` sibling.
    pub fn emit(&self, slug: &str) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        println!("\n=== {} ===", self.title);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (w, c) in widths.iter().zip(cells) {
                s.push_str(&format!("{:>width$}  ", c, width = w));
            }
            s
        };
        println!("{}", line(&self.header));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for r in &self.rows {
            println!("{}", line(r));
        }
        if let Err(e) = self.write_csv(slug) {
            eprintln!("warning: could not write CSV for {slug}: {e}");
        }
        if let Err(e) = self.write_json(slug) {
            eprintln!("warning: could not write JSON for {slug}: {e}");
        }
    }

    fn write_csv(&self, slug: &str) -> std::io::Result<()> {
        let dir = out_dir();
        fs::create_dir_all(&dir)?;
        let mut f = fs::File::create(dir.join(format!("{slug}.csv")))?;
        writeln!(f, "{}", csv_line(&self.header))?;
        for r in &self.rows {
            writeln!(f, "{}", csv_line(r))?;
        }
        Ok(())
    }

    fn write_json(&self, slug: &str) -> std::io::Result<()> {
        let dir = out_dir();
        fs::create_dir_all(&dir)?;
        let mut f = fs::File::create(dir.join(format!("{slug}.json")))?;
        write!(f, "{}", self.to_json().render_pretty())?;
        Ok(())
    }

    /// The table as JSON: `{title, header, rows}`, rows as arrays of
    /// strings in column order.
    pub fn to_json(&self) -> Json {
        let cells = |r: &[String]| Json::Arr(r.iter().map(|c| Json::Str(c.clone())).collect());
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            ("header", cells(&self.header)),
            ("rows", Json::Arr(self.rows.iter().map(|r| cells(r)).collect())),
        ])
    }
}

/// Join cells into one CSV record, quoting per RFC 4180: a cell containing
/// a comma, double quote, CR, or LF is wrapped in quotes with inner quotes
/// doubled; anything else is written bare.
fn csv_line(cells: &[String]) -> String {
    let quoted: Vec<String> = cells
        .iter()
        .map(|c| {
            if c.contains(['"', ',', '\n', '\r']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect();
    quoted.join(",")
}

/// Output directory for CSVs (override with `PHJ_BENCH_OUT`).
fn out_dir() -> PathBuf {
    std::env::var_os("PHJ_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_out"))
}

/// Experiment scale factor: 1.0 reproduces the paper's sizes; smaller
/// values shrink the workloads proportionally for quick runs. Set
/// `PHJ_SCALE=0.1` for a fast pass.
pub fn scale() -> f64 {
    std::env::var("PHJ_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0.0 && s <= 1.0)
        .unwrap_or(1.0)
}

/// Scale a byte count by [`scale`].
pub fn scaled(bytes: usize) -> usize {
    ((bytes as f64) * scale()) as usize
}

/// Format a cycle count in millions, for readable series.
pub fn mcycles(c: u64) -> String {
    format!("{:.1}", c as f64 / 1e6)
}

/// Format a ratio as "N.NNx".
pub fn speedup(base: u64, other: u64) -> String {
    if other == 0 {
        "inf".into()
    } else {
        format!("{:.2}x", base as f64 / other as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_emits_and_writes_csv() {
        let dir = std::env::temp_dir().join(format!("phj-report-{}", std::process::id()));
        std::env::set_var("PHJ_BENCH_OUT", &dir);
        let mut t = Table::new("unit test table", &["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &"yy"]);
        t.emit("unit_test_table");
        let csv = std::fs::read_to_string(dir.join("unit_test_table.csv")).unwrap();
        assert_eq!(csv, "a,b\n1,x\n22,yy\n");
        let json = std::fs::read_to_string(dir.join("unit_test_table.json")).unwrap();
        let parsed = phj_obs::json::parse(&json).expect("sibling JSON parses");
        assert_eq!(parsed.get("title").and_then(Json::as_str), Some("unit test table"));
        assert_eq!(parsed.get("rows").and_then(Json::as_arr).map(|r| r.len()), Some(2));
        std::env::remove_var("PHJ_BENCH_OUT");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_quotes_per_rfc_4180() {
        // Plain cells stay bare; commas, quotes, and newlines trigger
        // quoting with inner quotes doubled.
        let line = csv_line(&[
            "plain".to_string(),
            "has,comma".to_string(),
            "has \"quote\"".to_string(),
            "two\nlines".to_string(),
        ]);
        assert_eq!(line, "plain,\"has,comma\",\"has \"\"quote\"\"\",\"two\nlines\"");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mcycles(1_500_000), "1.5");
        assert_eq!(speedup(300, 100), "3.00x");
        assert_eq!(speedup(300, 0), "inf");
        assert!(scale() > 0.0 && scale() <= 1.0);
        let s = scaled(1000);
        assert!(s <= 1000);
    }
}
