//! Figure-data export: serializes experiment results to JSON so runs
//! are inspectable and diffable (the reproduction's equivalent of the
//! paper's plotted series).

use serde::Serialize;
use std::fmt::Write as _;

/// Serializes any experiment result to pretty JSON.
///
/// # Panics
///
/// Never panics for the result types in this crate (they contain no
/// non-string map keys or non-finite-only invariants that JSON cannot
/// express; non-finite floats serialize as `null`).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("experiment results are JSON-serializable")
}

/// Renders an xy series as an aligned two-column table — the textual
/// stand-in for a figure panel.
pub fn series_table(title: &str, x_label: &str, y_label: &str, ys: &[f64]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out, "{x_label:>10}  {y_label}");
    for (x, y) in ys.iter().enumerate() {
        let _ = writeln!(out, "{x:>10}  {y:.4}");
    }
    out
}

/// Renders the classic CPA "(a)" panel: |r| per key candidate with the
/// correct key marked.
pub fn correlation_panel(peaks: &[f64], correct: u8) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# peak |r| per key candidate (correct = {correct:#04x})"
    );
    let max = peaks.iter().copied().fold(0.0f64, f64::max).max(1e-12);
    for (k, &p) in peaks.iter().enumerate() {
        let bar = "#".repeat((p / max * 40.0).round() as usize);
        let mark = if k == correct as usize {
            " <-- correct key"
        } else {
            ""
        };
        let _ = writeln!(out, "{k:#04x} {p:+.4} {bar}{mark}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_structures() {
        #[derive(Serialize)]
        struct S {
            a: u32,
            b: Vec<f64>,
        }
        let json = to_json(&S {
            a: 7,
            b: vec![1.5, 2.5],
        });
        assert!(json.contains("\"a\": 7"));
    }

    #[test]
    fn series_table_lines() {
        let t = series_table("Fig X", "sample", "depth", &[1.0, 2.0]);
        assert!(t.starts_with("# Fig X"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn correlation_panel_marks_key() {
        let mut peaks = vec![0.01; 256];
        peaks[0x42] = 0.5;
        let panel = correlation_panel(&peaks, 0x42);
        assert!(panel.contains("<-- correct key"));
        let correct_line = panel.lines().find(|l| l.contains("<-- correct")).unwrap();
        assert!(correct_line.starts_with("0x42"));
    }
}
