//! Bounded time series for periodic sampling (queue occupancy, drop
//! counters, cwnd). Capacity-bounded so an arbitrarily long simulation
//! cannot grow telemetry without bound: once full, the *oldest* points are
//! evicted, keeping the most recent window — and the eviction count is
//! reported so a consumer knows the series was truncated.

use crate::json::{Json, ToJson};
use crate::ring::Ring;

/// A named, capacity-bounded `(t_ns, value)` series.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    points: Ring<(u64, f64)>,
}

impl TimeSeries {
    /// An empty series holding at most `capacity` points (min 1).
    pub fn new(name: impl Into<String>, capacity: usize) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            points: Ring::new(capacity.max(1)),
        }
    }

    /// Series name (e.g. `"sw0.port1.backlog_bytes"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample, evicting the oldest point if full.
    pub fn push(&mut self, at_ns: u64, value: f64) {
        self.points.push((at_ns, value));
    }

    /// Points evicted because the series was full.
    pub fn evicted(&self) -> u64 {
        self.points.evicted()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(u64, f64)> {
        self.points.last().copied()
    }

    /// Iterate over retained `(t_ns, value)` points, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Largest retained value; `None` when the series is empty (a fold
    /// seeded with `0.0` would both invent a value for an empty window
    /// and clamp all-negative series to zero).
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean of retained values; `None` when the series is empty (so a
    /// consumer can never divide by zero into NaN unnoticed).
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }
}

impl ToJson for TimeSeries {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.as_str().into()),
            ("evicted", self.evicted().into()),
            (
                "points",
                Json::Arr(
                    self.iter()
                        .map(|(t, v)| Json::Arr(vec![t.into(), v.into()]))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_eviction_keeps_newest() {
        let mut s = TimeSeries::new("q", 3);
        for i in 0..5u64 {
            s.push(i * 10, i as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        let pts: Vec<_> = s.iter().collect();
        assert_eq!(pts, vec![(20, 2.0), (30, 3.0), (40, 4.0)]);
        assert_eq!(s.last(), Some((40, 4.0)));
    }

    #[test]
    fn stats_over_window() {
        let mut s = TimeSeries::new("q", 8);
        assert_eq!(s.mean(), None, "empty window has no mean, not 0.0");
        assert_eq!(s.max(), None, "empty window has no max, not 0.0");
        s.push(0, 1.0);
        s.push(1, 3.0);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn all_negative_series_is_not_clamped_to_zero() {
        let mut s = TimeSeries::new("q", 8);
        s.push(0, -5.0);
        s.push(1, -2.0);
        assert_eq!(s.max(), Some(-2.0));
        assert_eq!(s.mean(), Some(-3.5));
    }

    #[test]
    fn json_shape() {
        let mut s = TimeSeries::new("sw.q", 4);
        s.push(5, 1.5);
        assert_eq!(
            s.to_json().render(),
            r#"{"name":"sw.q","evicted":0,"points":[[5,1.5]]}"#
        );
    }
}
