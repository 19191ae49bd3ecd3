//! Fixed-width text tables for the figure-regeneration harnesses.

use std::fmt;

/// A simple left-aligned text table.
///
/// Used by `caba-sweep paper` to print the rows/series each paper figure reports.
///
/// # Examples
///
/// ```
/// use caba_stats::Table;
/// let mut t = Table::new(vec!["App".into(), "Speedup".into()]);
/// t.row(vec!["MM".into(), "1.42".into()]);
/// let s = t.to_string();
/// assert!(s.contains("Speedup"));
/// assert!(s.contains("1.42"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_columns(cols: &[&str]) -> Self {
        Table::new(cols.iter().map(|c| c.to_string()).collect())
    }

    /// Appends one row. Shorter rows are padded with empty cells; longer rows
    /// extend the effective column count.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a row of displayable cells.
    pub fn row_display<D: fmt::Display>(&mut self, cells: &[D]) {
        self.row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + widths.len().saturating_sub(1) * 2;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a ratio as a percentage with one decimal, e.g. `41.7%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup with two decimals, e.g. `1.42x`.
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::with_columns(&["a", "longer"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // Header and row columns start at the same offset.
        assert_eq!(
            lines[0].find("longer").unwrap(),
            lines[2].find('1').unwrap()
        );
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::with_columns(&["a"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec![]);
        let s = t.to_string();
        assert!(s.contains('3'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.417), "41.7%");
        assert_eq!(speedup(2.6), "2.60x");
    }

    #[test]
    fn row_display() {
        let mut t = Table::with_columns(&["v"]);
        t.row_display(&[3.5f64]);
        assert!(t.to_string().contains("3.5"));
    }
}
