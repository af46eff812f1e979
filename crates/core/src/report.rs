//! Plain-text table and CSV rendering for the experiment harness.
//!
//! The benches print paper-style tables; this module keeps the formatting
//! in one place.

use std::fmt;

use nowlab_sim::SimDelta;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(row);
    }

    /// Renders as comma-separated values (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Widths in characters (sparkline glyphs are multi-byte).
        let char_len = |s: &String| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(char_len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(char_len(cell));
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            writeln!(f, "| {} |", line.join(" | "))
        };
        render(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

/// Renders a compact sparkline of `values` with unicode block glyphs,
/// scaled from the minimum to the maximum value (a flat series renders as
/// all-low). Handy for eyeballing sweep shapes in terminal tables.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || hi <= lo {
        return GLYPHS[0].to_string().repeat(values.len());
    }
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return ' ';
            }
            let t = (v - lo) / (hi - lo);
            GLYPHS[((t * (GLYPHS.len() - 1) as f64).round() as usize).min(GLYPHS.len() - 1)]
        })
        .collect()
}

/// Formats a float with `prec` decimals.
pub fn fmt_f(x: f64, prec: usize) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.prec$}")
    }
}

/// Formats a virtual duration with an auto-selected unit.
pub fn fmt_time(d: SimDelta) -> String {
    let us = d.as_micros_f64();
    if us < 1_000.0 {
        format!("{us:.1}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.3}s", us / 1_000_000.0)
    }
}

/// Formats an optional measurement, using the paper's "N/A" for runs that
/// hit their livelock limit.
pub fn fmt_or_na(value: Option<f64>, prec: usize) -> String {
    match value {
        Some(v) => fmt_f(v, prec),
        None => "N/A".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(["alpha", "1"]);
        t.push_row(["b", "22"]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| alpha |     1 |"));
        assert!(s.contains("|     b |    22 |"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▁▁▁");
        let s = sparkline(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        // Monotone input -> monotone glyphs.
        let glyphs: Vec<char> = s.chars().collect();
        assert!(glyphs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[f64::NAN, 1.0, 2.0]).chars().next(), Some(' '));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(f64::INFINITY, 2), "inf");
        assert_eq!(fmt_time(SimDelta::from_micros(12.34)), "12.3us");
        assert_eq!(fmt_time(SimDelta::from_millis(12.3)), "12.30ms");
        assert_eq!(fmt_time(SimDelta::from_secs(1.5)), "1.500s");
        assert_eq!(fmt_or_na(None, 1), "N/A");
        assert_eq!(fmt_or_na(Some(2.0), 1), "2.0");
    }
}
