//! Plain-text table rendering for harness output.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["x", "1"]);
        t.row(vec!["longer-name", "2.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("x"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one"]);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn empty_table() {
        let t = Table::new(vec!["a"]);
        assert_eq!(t.render().lines().count(), 2);
    }
}
