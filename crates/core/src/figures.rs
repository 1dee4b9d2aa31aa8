//! Plain-text figure/table rendering.

use std::collections::HashMap;
use std::fmt;

/// A labeled table of numeric series — the in-memory form of one paper figure
/// or table, renderable as aligned text or CSV.
///
/// The table is append-only through [`FigureTable::push_row`]; the columns
/// are fixed at construction. Both row labels and column headers are indexed
/// on insertion, so [`FigureTable::value`] is an O(1) lookup rather than a
/// rescan of the table.
#[derive(Debug, Clone)]
pub struct FigureTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    /// Data-column header → index into each row's value vector.
    col_index: HashMap<String, usize>,
    /// Row label → index into `rows` (first occurrence wins).
    row_index: HashMap<String, usize>,
}

/// Equality is over the visible content (title, columns, rows); the lookup
/// indices are derived state.
impl PartialEq for FigureTable {
    fn eq(&self, other: &Self) -> bool {
        self.title == other.title && self.columns == other.columns && self.rows == other.rows
    }
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
        let col_index = columns
            .iter()
            .skip(1)
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect();
        FigureTable {
            title: title.into(),
            columns,
            rows: Vec::new(),
            col_index,
            row_index: HashMap::new(),
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
        let label = label.into();
        assert_eq!(
            values.len(),
            self.columns.len() - 1,
            "row width must match the column headers"
        );
        self.row_index
            .entry(label.clone())
            .or_insert(self.rows.len());
        self.rows.push((label, values));
    }

    /// Looks up a value by row label and column header in O(1).
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let row = *self.row_index.get(row)?;
        let col = *self.col_index.get(column)?;
        self.rows[row].1.get(col).copied()
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
