//! ASCII line plots — terminal "figures" for the benchmark harness.
//!
//! The paper's evaluation is two figures; since this reproduction runs
//! headless, [`AsciiPlot`] renders multi-series line charts directly to the
//! terminal (and the same series are exported as CSV via [`crate::table`]).

use crate::series::TimeSeries;
use std::fmt::Write as _;

/// Glyphs assigned to successive series, in order.
const SERIES_GLYPHS: [char; 8] = ['*', '+', 'o', 'x', '#', '@', '%', '&'];

/// A fixed-size character-grid line plot of one or more [`TimeSeries`].
///
/// ```
/// use simkit::{TimeSeries, TimeSlot};
/// use simkit::plot::AsciiPlot;
///
/// let mut s = TimeSeries::new("ramp");
/// for i in 0..100 {
///     s.push(TimeSlot::new(i), i as f64);
/// }
/// let rendered = AsciiPlot::new("demo", 40, 10).series(&s).render();
/// assert!(rendered.contains("demo"));
/// assert!(rendered.contains("ramp"));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiPlot {
    title: String,
    width: usize,
    height: usize,
    series: Vec<TimeSeries>,
    y_label: String,
    x_label: String,
}

impl AsciiPlot {
    /// Creates an empty plot. `width`/`height` are the interior grid size in
    /// characters and are clamped to a sane minimum of 16×4.
    pub fn new(title: impl Into<String>, width: usize, height: usize) -> Self {
        AsciiPlot {
            title: title.into(),
            width: width.max(16),
            height: height.max(4),
            series: Vec::new(),
            y_label: String::new(),
            x_label: "slot".to_string(),
        }
    }

    /// Adds a series to the plot (builder style).
    #[must_use]
    pub fn series(mut self, s: &TimeSeries) -> Self {
        self.series.push(s.clone());
        self
    }

    /// Sets the y-axis label.
    #[must_use]
    pub fn y_label(mut self, label: impl Into<String>) -> Self {
        self.y_label = label.into();
        self
    }

    /// Sets the x-axis label (defaults to `slot`).
    #[must_use]
    pub fn x_label(mut self, label: impl Into<String>) -> Self {
        self.x_label = label.into();
        self
    }

    /// Renders the plot to a `String`, one trailing newline per row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        if self.series.iter().all(|s| s.is_empty()) {
            let _ = writeln!(out, "(no data)");
            return out;
        }

        let (x_min, x_max, y_min, y_max) = self.bounds();
        let mut grid = vec![vec![' '; self.width]; self.height];

        for (si, s) in self.series.iter().enumerate() {
            let glyph = SERIES_GLYPHS[si % SERIES_GLYPHS.len()];
            for p in s.iter() {
                let x = p.slot.index() as f64;
                let col = scale(x, x_min, x_max, self.width);
                let row = scale(p.value, y_min, y_max, self.height);
                // row 0 is the top of the grid
                grid[self.height - 1 - row][col] = glyph;
            }
        }

        let y_fmt_width = 10;
        for (r, row) in grid.iter().enumerate() {
            let y_here = y_max - (y_max - y_min) * (r as f64 / (self.height - 1).max(1) as f64);
            let label = if r == 0 || r == self.height - 1 || r == self.height / 2 {
                format!("{y_here:>y_fmt_width$.2}")
            } else {
                " ".repeat(y_fmt_width)
            };
            let line: String = row.iter().collect();
            let _ = writeln!(out, "{label} |{line}");
        }
        let _ = writeln!(
            out,
            "{} +{}",
            " ".repeat(y_fmt_width),
            "-".repeat(self.width)
        );
        let _ = writeln!(
            out,
            "{} {:<12}{:>width$.0}  [{}]",
            " ".repeat(y_fmt_width),
            x_min,
            x_max,
            self.x_label,
            width = self.width.saturating_sub(12)
        );
        if !self.y_label.is_empty() {
            let _ = writeln!(out, "y: {}", self.y_label);
        }
        for (si, s) in self.series.iter().enumerate() {
            let glyph = SERIES_GLYPHS[si % SERIES_GLYPHS.len()];
            let _ = writeln!(out, "  {glyph} {}", s.name());
        }
        out
    }

    fn bounds(&self) -> (f64, f64, f64, f64) {
        let mut x_min = f64::INFINITY;
        let mut x_max = f64::NEG_INFINITY;
        let mut y_min = f64::INFINITY;
        let mut y_max = f64::NEG_INFINITY;
        for s in &self.series {
            for p in s.iter() {
                let x = p.slot.index() as f64;
                x_min = x_min.min(x);
                x_max = x_max.max(x);
                y_min = y_min.min(p.value);
                y_max = y_max.max(p.value);
            }
        }
        if (x_max - x_min).abs() < f64::EPSILON {
            x_max = x_min + 1.0;
        }
        if (y_max - y_min).abs() < f64::EPSILON {
            y_max = y_min + 1.0;
        }
        (x_min, x_max, y_min, y_max)
    }
}

/// Maps `v ∈ [lo, hi]` onto a 0-based cell index in `0..cells`.
fn scale(v: f64, lo: f64, hi: f64, cells: usize) -> usize {
    let frac = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    ((frac * (cells - 1) as f64).round() as usize).min(cells - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeSlot;

    fn ramp(n: u64) -> TimeSeries {
        let mut s = TimeSeries::new("ramp");
        for i in 0..n {
            s.push(TimeSlot::new(i), i as f64);
        }
        s
    }

    #[test]
    fn render_contains_title_and_legend() {
        let plot = AsciiPlot::new("my plot", 40, 8).series(&ramp(100));
        let text = plot.render();
        assert!(text.contains("== my plot =="));
        assert!(text.contains("* ramp"));
    }

    #[test]
    fn render_empty_plot() {
        let text = AsciiPlot::new("empty", 40, 8).render();
        assert!(text.contains("(no data)"));
    }

    #[test]
    fn ramp_is_monotone_on_grid() {
        let text = AsciiPlot::new("ramp", 32, 8).series(&ramp(64)).render();
        // The topmost grid row must contain at least one glyph (max value)
        // and so must the bottom row (min value).
        let rows: Vec<&str> = text.lines().filter(|l| l.contains('|')).collect();
        assert!(rows.first().unwrap().contains('*'));
        assert!(rows.last().unwrap().contains('*'));
    }

    #[test]
    fn multiple_series_get_distinct_glyphs() {
        let mut flat = TimeSeries::new("flat");
        for i in 0..10 {
            flat.push(TimeSlot::new(i), 1.0);
        }
        let text = AsciiPlot::new("two", 32, 8)
            .series(&ramp(10))
            .series(&flat)
            .render();
        assert!(text.contains("* ramp"));
        assert!(text.contains("+ flat"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let mut s = TimeSeries::new("const");
        s.push(TimeSlot::new(0), 5.0);
        s.push(TimeSlot::new(1), 5.0);
        let text = AsciiPlot::new("c", 20, 4).series(&s).render();
        assert!(text.contains('*'));
    }

    #[test]
    fn labels_appear() {
        let text = AsciiPlot::new("t", 20, 4)
            .series(&ramp(4))
            .y_label("queue")
            .x_label("time")
            .render();
        assert!(text.contains("y: queue"));
        assert!(text.contains("[time]"));
    }

    #[test]
    fn scale_clamps() {
        assert_eq!(scale(-10.0, 0.0, 1.0, 10), 0);
        assert_eq!(scale(10.0, 0.0, 1.0, 10), 9);
        assert_eq!(scale(0.5, 0.0, 1.0, 11), 5);
    }
}
