//! Plain-text result tables.

use std::fmt;

/// A titled grid of results.
#[derive(Clone, Debug)]
pub struct Table {
    /// Title (figure/table id + description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Build a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// CSV rendering (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// Look up a cell by row index and header name (for assertions).
    pub fn cell(&self, row: usize, header: &str) -> &str {
        let c = self
            .headers
            .iter()
            .position(|h| h == header)
            .expect("unknown column");
        &self.rows[row][c]
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:>w$}  ", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        for r in &self.rows {
            line(f, r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl Table {
    /// Parse a cell as f64.
    pub(crate) fn cell_f64(&self, row: usize, header: &str) -> f64 {
        self.cell(row, header).parse().expect("non-numeric cell")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_render_and_query() {
        let mut t = Table::new("Demo", &["size", "value"]);
        t.row(vec!["1024".into(), "2.50".into()]);
        t.row(vec!["2048".into(), "5.00".into()]);
        assert_eq!(t.cell(1, "size"), "2048");
        assert!((t.cell_f64(0, "value") - 2.5).abs() < 1e-12);
        let s = t.to_string();
        assert!(s.contains("Demo") && s.contains("2.50"));
        let csv = t.to_csv();
        assert!(csv.starts_with("size,value\n"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn bad_row_panics() {
        Table::new("x", &["a", "b"]).row(vec!["1".into()]);
    }
}
