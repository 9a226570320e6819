//! Minimal ASCII table / series rendering for experiment output.

/// Renders a table with a header row; columns are padded to their widest
/// cell. Used by the experiment runners to print the same rows the paper's
/// figures report.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>w$}", w = w));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a dollar amount with thousands separators: `1234567.8` →
/// `$1,234,568`.
pub(crate) fn dollars(x: f64) -> String {
    let rounded = x.round() as i64;
    let negative = rounded < 0;
    let digits = rounded.abs().to_string();
    let mut grouped = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            grouped.push(',');
        }
        grouped.push(c);
    }
    format!("{}${grouped}", if negative { "-" } else { "" })
}

/// Formats a fraction as a percentage with one decimal: `0.985` → `98.5%`.
pub(crate) fn percent(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("12345"));
        // All rows share the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn dollar_grouping() {
        assert_eq!(dollars(1_234_567.8), "$1,234,568");
        assert_eq!(dollars(0.4), "$0");
        assert_eq!(dollars(-1500.0), "-$1,500");
        assert_eq!(dollars(999.0), "$999");
    }

    #[test]
    fn percent_format() {
        assert_eq!(percent(0.985), "98.5%");
        assert_eq!(percent(1.0), "100.0%");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }
}
