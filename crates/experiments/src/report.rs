//! Text-table reports that mirror the paper's figure series.

use std::fmt;

/// A labelled table of floating-point series: one row per application (or
/// sweep point), one column per configuration — the same layout the paper's
/// bar charts use.
///
/// # Examples
///
/// ```
/// use experiments::Report;
///
/// let mut r = Report::new("Fig. X: demo", &["speedup"]);
/// r.push("MT", vec![2.05]);
/// r.push_mean();
/// assert!(r.to_string().contains("MT"));
/// assert!(r.to_string().contains("mean"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Report title (figure number and caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// `(row label, one value per column)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the header count.
    pub fn push(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push((label.to_string(), values));
    }

    /// Appends a `mean` row averaging each column over the existing rows.
    pub fn push_mean(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        let cols = self.headers.len();
        let n = self.rows.len() as f64;
        let means: Vec<f64> = (0..cols)
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect();
        self.rows.push(("mean".to_string(), means));
    }

    /// Value at `(row_label, column)` if present.
    pub fn value(&self, row_label: &str, column: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|(l, _)| l == row_label)
            .map(|(_, v)| v[column])
    }

    /// The mean-row value of `column`, if a mean row exists.
    pub fn mean(&self, column: usize) -> Option<f64> {
        self.value("mean", column)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([4])
            .max()
            .unwrap_or(4);
        let col_w: Vec<usize> = self.headers.iter().map(|h| h.len().max(8)).collect();
        write!(f, "{:label_w$}", "")?;
        for (h, w) in self.headers.iter().zip(&col_w) {
            write!(f, "  {h:>w$}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:label_w$}")?;
            for (v, w) in values.iter().zip(&col_w) {
                write!(f, "  {v:>w$.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut r = Report::new("t", &["a", "b"]);
        r.push("x", vec![1.0, 2.0]);
        assert_eq!(r.value("x", 1), Some(2.0));
        assert_eq!(r.value("y", 0), None);
    }

    #[test]
    fn mean_row() {
        let mut r = Report::new("t", &["a"]);
        r.push("x", vec![1.0]);
        r.push("y", vec![3.0]);
        r.push_mean();
        assert_eq!(r.mean(0), Some(2.0));
    }

    #[test]
    fn mean_of_empty_is_noop() {
        let mut r = Report::new("t", &["a"]);
        r.push_mean();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn display_contains_everything() {
        let mut r = Report::new("Fig. 42", &["speedup"]);
        r.push("MT", vec![2.055]);
        let text = r.to_string();
        assert!(text.contains("Fig. 42"));
        assert!(text.contains("speedup"));
        assert!(text.contains("2.055"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Report::new("t", &["a", "b"]).push("x", vec![1.0]);
    }
}
