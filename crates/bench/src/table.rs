//! A small table type shared by all experiments, rendered as the Markdown
//! that `exp_all` prints.

/// A titled table of string cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTable {
    /// Experiment identifier, e.g. "E2".
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The paper claim the experiment checks.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Create an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        claim: impl Into<String>,
        headers: Vec<&str>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            claim: claim.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row length does not match the header length.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row/header length mismatch"
        );
        self.rows.push(cells);
    }

    /// Render as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("*Claim:* {}\n\n", self.claim));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Format a float with three significant-ish decimals for table cells.
pub fn fmt(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = ExperimentTable::new("E0", "demo", "a claim", vec!["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### E0"));
        assert!(md.contains("| x | y |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("a claim"));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn row_length_checked() {
        let mut t = ExperimentTable::new("E1", "demo", "claim", vec!["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(1.23456), "1.23");
        assert_eq!(fmt(0.01234), "0.0123");
    }
}
