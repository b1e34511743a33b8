//! Deterministic fuzzing reports.
//!
//! No timestamps, no map-iteration order, no durations: the rendered
//! report is a pure function of `(seed, case range)`, which is what lets
//! CI diff two runs byte for byte to prove replayability.

use std::fmt::Write as _;

/// One shrunk, reportable failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle flagged it.
    pub oracle: &'static str,
    /// Case index within the oracle's stream — replay with
    /// `--oracle <oracle> --start <index> --cases 1` under the same seed.
    pub index: u64,
    /// One-line description of the disagreement.
    pub detail: String,
    /// Minimized reproducer (source text, disassembly, or hex bytes).
    pub repro: String,
}

/// Counters for one oracle's run. `notes` holds named counters in a fixed
/// insertion order (e.g. verdict tallies, rejection histograms).
#[derive(Debug, Clone)]
pub struct OracleReport {
    pub oracle: &'static str,
    pub cases: u64,
    /// Cases not compared because resource use legitimately differs
    /// between builds: refused at admission, or out of fuel.
    pub skips: u64,
    pub notes: Vec<(String, u64)>,
    pub failures: Vec<Failure>,
}

impl OracleReport {
    pub fn new(oracle: &'static str) -> OracleReport {
        OracleReport {
            oracle,
            cases: 0,
            skips: 0,
            notes: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Bump a named counter, creating it at the back on first use.
    pub fn note(&mut self, key: &str, n: u64) {
        if let Some(e) = self.notes.iter_mut().find(|(k, _)| k == key) {
            e.1 += n;
        } else {
            self.notes.push((key.to_string(), n));
        }
    }
}

/// The full multi-oracle report.
#[derive(Debug, Clone)]
pub struct Report {
    pub seed: u64,
    pub cases: u64,
    pub oracles: Vec<OracleReport>,
}

impl Report {
    pub fn total_failures(&self) -> usize {
        self.oracles.iter().map(|o| o.failures.len()).sum()
    }

    /// Render the deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "eden-fuzz report");
        let _ = writeln!(out, "seed: {}", self.seed);
        let _ = writeln!(out, "cases: {}", self.cases);
        for o in &self.oracles {
            let _ = writeln!(
                out,
                "oracle {}: cases={} failures={} skips={}",
                o.oracle,
                o.cases,
                o.failures.len(),
                o.skips
            );
            // notes sorted by key for a stable rendering regardless of
            // which counter was bumped first
            let mut notes = o.notes.clone();
            notes.sort();
            for (k, v) in notes {
                let _ = writeln!(out, "  {k}: {v}");
            }
        }
        let _ = writeln!(out, "total failures: {}", self.total_failures());
        for o in &self.oracles {
            for f in &o.failures {
                let _ = writeln!(out, "--- failure: oracle={} index={}", f.oracle, f.index);
                let _ = writeln!(
                    out,
                    "    replay: EDEN_FUZZ_SEED={} eden-fuzz --oracle {} --start {} --cases 1",
                    self.seed, f.oracle, f.index
                );
                let _ = writeln!(out, "    {}", f.detail);
                for line in f.repro.lines() {
                    let _ = writeln!(out, "    | {line}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_render_sorted_and_stable() {
        let mut o = OracleReport::new("verifier");
        o.cases = 5;
        o.note("rejected.Underflow", 2);
        o.note("accepted", 3);
        o.note("rejected.Underflow", 1);
        let r = Report {
            seed: 1,
            cases: 5,
            oracles: vec![o],
        };
        let text = r.render();
        assert!(text.contains("accepted: 3"));
        assert!(text.contains("rejected.Underflow: 3"));
        // sorted: "accepted" precedes "rejected.Underflow"
        assert!(text.find("accepted: 3").unwrap() < text.find("rejected.Underflow: 3").unwrap());
        assert_eq!(r.render(), text, "rendering is pure");
    }
}
