//! Plain-text figure/table rendering.

use std::fmt;

/// A labeled table of numeric series — the in-memory form of one paper figure
/// or table, renderable as aligned text or CSV.
///
/// The table is append-only through [`FigureTable::push_row`]; the columns
/// are fixed at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl FigureTable {
    /// Creates an empty table with the given title and column headers. The
    /// first column header labels the row-name column; the rest label data
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty (every table has at least the row-label
    /// column).
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        assert!(
            !columns.is_empty(),
            "a figure table needs at least the row-label column"
        );
        FigureTable {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor: the row-label column plus data columns taken
    /// from an iterator of labels (the shape every figure extractor builds).
    pub fn with_series(
        title: impl Into<String>,
        row_label: impl Into<String>,
        series: impl IntoIterator<Item = String>,
    ) -> Self {
        let mut columns = vec![row_label.into()];
        columns.extend(series);
        FigureTable::new(title, columns)
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// All column headers (first is the row-label column).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the data columns.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len() - 1,
            "row width must match the column headers"
        );
        self.rows.push((label.into(), values));
    }

    /// Looks up a value by row label and column header: the first row of
    /// that label, the last column of that header.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let (_, values) = self.rows.iter().find(|(label, _)| label == row)?;
        let col = self.columns[1..].iter().rposition(|c| c == column)?;
        values.get(col).copied()
    }
}

impl fmt::Display for FigureTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(self.columns[0].len()))
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = self
            .columns
            .iter()
            .skip(1)
            .map(|c| c.len())
            .max()
            .unwrap_or(10)
            .max(10);
        write!(f, "{:label_w$}", self.columns[0])?;
        for c in self.columns.iter().skip(1) {
            write!(f, " {c:>col_w$}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:label_w$}")?;
            for v in values {
                write!(f, " {v:>col_w$.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureTable {
        let mut t = FigureTable::new(
            "Figure X",
            vec!["protocol".into(), "LD".into(), "ST".into()],
        );
        t.push_row("MESI", vec![1.0, 0.5]);
        t.push_row("DBypFull", vec![0.6, 0.25]);
        t
    }

    #[test]
    fn value_lookup() {
        let t = sample();
        assert_eq!(t.value("MESI", "LD"), Some(1.0));
        assert_eq!(t.value("DBypFull", "ST"), Some(0.25));
        assert_eq!(t.value("DBypFull", "WB"), None);
        assert_eq!(t.value("nope", "LD"), None);
    }

    #[test]
    fn duplicate_row_labels_resolve_to_the_first() {
        let mut t = sample();
        t.push_row("MESI", vec![9.0, 9.0]);
        assert_eq!(t.value("MESI", "LD"), Some(1.0));
        assert_eq!(t.rows().len(), 3);
    }

    #[test]
    fn duplicates_resolve_to_the_first_row_and_the_last_column() {
        let mut t = FigureTable::new(
            "Figure Z",
            ["bench/protocol", "LD", "ST", "LD", "bench/protocol"]
                .map(String::from)
                .to_vec(),
        );
        t.push_row("FFT", vec![1.0, 2.0, 3.0, 4.0]);
        t.push_row("FFT", vec![5.0, 6.0, 7.0, 8.0]);
        t.push_row("LU", vec![9.0, 10.0, 11.0, 12.0]);
        assert_eq!(t.value("FFT", "LD"), Some(3.0));
        assert_eq!(t.value("FFT", "ST"), Some(2.0));
        assert_eq!(t.value("LU", "LD"), Some(11.0));
        // The row-label header names a data column only where it repeats.
        assert_eq!(t.value("LU", "bench/protocol"), Some(12.0));
        assert_eq!(t.value("FFT", "WB"), None);
    }

    #[test]
    fn with_series_builds_the_standard_shape() {
        let t = FigureTable::with_series(
            "Figure Y",
            "bench/protocol",
            ["A".to_string(), "B".to_string()],
        );
        assert_eq!(t.columns(), ["bench/protocol", "A", "B"]);
        assert_eq!(t.title(), "Figure Y");
    }

    #[test]
    fn equality_ignores_derived_indices() {
        assert_eq!(sample(), sample());
        let mut other = sample();
        other.push_row("extra", vec![0.0, 0.0]);
        assert_ne!(sample(), other);
    }

    #[test]
    fn display_renders_all_rows() {
        let text = sample().to_string();
        assert!(text.contains("== Figure X =="));
        assert!(text.contains("MESI"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = sample();
        t.push_row("bad", vec![1.0]);
    }
}
