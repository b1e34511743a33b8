//! Table rendering shared by the bench targets: aligned columns and
//! paper-vs-measured rows, so `cargo bench` output reads like the paper's
//! figures — plus machine-readable `BENCH_<figure>.json` emission so runs
//! can be diffed and plotted without scraping stdout, and the interleaved
//! two-arm timing the overhead-budget binaries share.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

use eden_telemetry::Json;

/// A simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "| {:<w$} ", c, w = widths[i]);
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.headers);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
            if i + 1 == widths.len() {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Write `value` as `BENCH_<figure>.json` under `EDEN_BENCH_DIR`
/// (default: the current directory) and return the path. Bench targets
/// call this after printing their human-readable tables so every run
/// leaves a machine-readable artifact behind.
pub fn emit_json(figure: &str, value: &Json) -> std::io::Result<PathBuf> {
    let dir = std::env::var("EDEN_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = PathBuf::from(dir).join(format!("BENCH_{figure}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(value.render().as_bytes())?;
    f.write_all(b"\n")?;
    Ok(path)
}

/// Per-batch nanoseconds per packet of one arm of an overhead budget.
#[derive(Debug, Clone, Copy)]
pub struct ArmCost {
    /// Minimum over batches: the uncontended cost of the code itself, far
    /// less noisy than the mean on a shared machine.
    pub floor: f64,
    pub mean: f64,
}

/// Time two arms in alternating batches, after one untimed warm-up batch
/// each, so both sample the same noise: a machine-speed drift between
/// separate measurement phases would otherwise read as overhead (or mask
/// it). Each closure runs one batch and returns its ns per packet.
pub fn interleaved(
    batches: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (ArmCost, ArmCost) {
    a();
    b();
    let (mut sa, mut sb) = (Vec::with_capacity(batches), Vec::with_capacity(batches));
    for _ in 0..batches {
        sa.push(a());
        sb.push(b());
    }
    let cost = |s: &[f64]| ArmCost {
        floor: s.iter().copied().fold(f64::INFINITY, f64::min),
        mean: s.iter().sum::<f64>() / s.len() as f64,
    };
    (cost(&sa), cost(&sb))
}

/// Format microseconds with sensible precision.
pub fn us(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2}ms", v / 1000.0)
    } else {
        format!("{v:.0}us")
    }
}

/// Format bits/second as Mb/s or Gb/s.
pub fn bps(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} Gb/s", v / 1e9)
    } else {
        format!("{:.0} Mb/s", v / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["scheme", "value"]);
        t.row(&["baseline".into(), "363".into()]);
        t.row(&["pias".into(), "274".into()]);
        let s = t.render();
        assert!(s.contains("| scheme   | value |"));
        assert!(s.contains("| baseline | 363   |"));
    }

    #[test]
    fn emit_json_writes_bench_artifact() {
        let dir = std::env::temp_dir().join("eden-bench-emit-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("EDEN_BENCH_DIR", &dir);
        let value = Json::obj(vec![("answer", 42u64.into())]);
        let path = emit_json("figtest", &value).unwrap();
        std::env::remove_var("EDEN_BENCH_DIR");
        assert!(path.ends_with("BENCH_figtest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"answer\":42}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interleaved_alternates_arms_and_drops_the_warm_up() {
        let log = std::cell::RefCell::new(String::new());
        let (mut a, mut b) = ([100.0, 3.0, 5.0].into_iter(), [100.0, 4.0, 2.0].into_iter());
        let (ca, cb) = interleaved(
            2,
            || {
                log.borrow_mut().push('a');
                a.next().unwrap()
            },
            || {
                log.borrow_mut().push('b');
                b.next().unwrap()
            },
        );
        assert_eq!(log.into_inner(), "ababab");
        assert_eq!((ca.floor, ca.mean), (3.0, 4.0));
        assert_eq!((cb.floor, cb.mean), (2.0, 3.0));
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(us(363.4), "363us");
        assert_eq!(us(1600.0), "1.60ms");
        assert_eq!(bps(7.8e9), "7.80 Gb/s");
        assert_eq!(bps(250e6), "250 Mb/s");
    }
}
