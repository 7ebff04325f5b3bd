//! Result tables: aligned console output + JSON persistence.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use asyncmr_simcluster::trace::report::json_str;

/// Global knobs for a reproduction run.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Input scale relative to the paper (1.0 = full Table II sizes).
    pub scale: f64,
    /// Worker threads for the in-process engine.
    pub threads: usize,
    /// Master seed (graphs, partitioners, stragglers, initial
    /// centroids all derive from it).
    pub seed: u64,
    /// Reduce tasks per job (paper testbed: 16 reduce slots).
    pub reducers: usize,
    /// Where JSON results land (`None` = don't persist).
    pub out_dir: Option<PathBuf>,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            scale: 0.1,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            seed: 2010,
            reducers: 16,
            out_dir: Some(PathBuf::from("results")),
        }
    }
}

impl ReproConfig {
    /// The paper's partition-count sweep (Figs. 2–7 x-axis), scaled so
    /// partition *sizes* match the paper's at any input scale.
    pub fn partition_sweep(&self) -> Vec<(usize, usize)> {
        // (paper k, scaled k)
        [100usize, 200, 400, 800, 1600, 3200, 6400].map(|k| (k, self.partitions(k))).to_vec()
    }

    /// The partition count that keeps the paper's `paper_k` partition
    /// *size* at this input scale (at least 2).
    pub fn partitions(&self, paper_k: usize) -> usize {
        ((paper_k as f64 * self.scale).round() as usize).max(2)
    }

    /// The paper's threshold sweep (Figs. 8–9 x-axis).
    pub fn threshold_sweep(&self) -> Vec<f64> {
        vec![0.1, 0.01, 0.001, 0.0001]
    }
}

/// One regenerated table or figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper artifact id (`table1`, `fig4`, …).
    pub id: String,
    /// Human title (matches the paper's caption).
    pub title: String,
    /// Input scale the data was produced at.
    pub scale: f64,
    /// Column headers.
    pub columns: Vec<String>,
    /// Formatted cells, row-major.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (speedups, paper-expected values, caveats).
    pub notes: Vec<String>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        scale: f64,
        columns: Vec<&str>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            scale,
            columns: columns.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row (must match the column count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} (scale {}) ==\n", self.id, self.title, self.scale));
        let header: Vec<String> =
            self.columns.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  * {note}\n"));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Renders the figure as pretty-printed JSON (hand-rolled: the
    /// offline build has no serde). Strings go through the simulator's
    /// [`json_str`], the workspace's one JSON string escaper.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": \"{}\",\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": \"{}\",\n", json_str(&self.title)));
        out.push_str(&format!("  \"scale\": {},\n", json_number(self.scale)));
        out.push_str(&format!("  \"columns\": {},\n", json_string_array(&self.columns)));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            out.push_str(&format!("    {}{sep}\n", json_string_array(row)));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"notes\": {}\n", json_string_array(&self.notes)));
        out.push_str("}\n");
        out
    }

    /// Persists as pretty JSON under `dir` (`<id>.json`).
    pub fn save_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }
}

/// Formats a finite number (JSON has no NaN/∞ — those become null).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A single-line array of strings.
fn json_string_array(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", json_str(s))).collect();
    format!("[{}]", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut f = Figure::new("figX", "demo", 1.0, vec!["k", "value"]);
        f.push_row(vec!["10".into(), "1.5".into()]);
        f.push_row(vec!["10000".into(), "2".into()]);
        f.note("a note");
        let r = f.render();
        assert!(r.contains("figX"));
        assert!(r.contains("* a note"));
        // Both rows padded to the same width.
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut f = Figure::new("f", "t", 1.0, vec!["a", "b"]);
        f.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn sweep_scales_partition_counts() {
        let cfg = ReproConfig { scale: 0.1, ..Default::default() };
        let sweep = cfg.partition_sweep();
        assert_eq!(sweep[0], (100, 10));
        assert_eq!(sweep[6], (6400, 640));
        let full = ReproConfig { scale: 1.0, ..Default::default() };
        assert_eq!(full.partition_sweep()[0], (100, 100));
    }

    #[test]
    fn save_json_writes_file() {
        let mut f = Figure::new("unit_test_fig", "t", 1.0, vec!["a"]);
        f.push_row(vec!["1".into()]);
        let dir = std::env::temp_dir().join("asyncmr-bench-test");
        let path = f.save_json(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("unit_test_fig"));
        let _ = std::fs::remove_file(path);
    }
}
