//! Table-driven distance functions for measured or irregular activation
//! patterns.

use serde::{Deserialize, Serialize};

use crate::convert::eta_plus_from_delta_min;
use crate::error::CurveError;
use crate::model::{EventModel, Time};

/// An event model defined by an explicit `δ-` table with periodic
/// extrapolation beyond the last entry.
///
/// `distances[i]` holds `δ-(i + 2)`, i.e. the first entry is the minimum
/// distance between two consecutive events. For `k` beyond the table the
/// model extrapolates linearly with `tail_increment` per extra event, which
/// defaults to the last increment of the table.
///
/// This mirrors how measured traces are abstracted into event models in
/// compositional performance analysis tools.
///
/// # Examples
///
/// ```
/// use twca_curves::{DeltaTable, EventModel};
///
/// # fn main() -> Result<(), twca_curves::CurveError> {
/// // Two events may be 5 apart, three 30 apart, then +25 per event.
/// let t = DeltaTable::new(vec![5, 30])?;
/// assert_eq!(t.delta_min(2), 5);
/// assert_eq!(t.delta_min(3), 30);
/// assert_eq!(t.delta_min(4), 55);
/// assert_eq!(t.eta_plus(6), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeltaTable {
    distances: Vec<Time>,
    tail_increment: Time,
}

impl DeltaTable {
    /// Creates a table model; the tail increment defaults to the last
    /// increment in the table (or the single entry for one-entry tables).
    ///
    /// # Errors
    ///
    /// * [`CurveError::EmptyTable`] if `distances` is empty;
    /// * [`CurveError::NonMonotonicTable`] if the table decreases;
    /// * [`CurveError::ZeroDistance`] if the implied tail increment is zero
    ///   (the model would admit infinitely many events in a finite window).
    pub fn new(distances: Vec<Time>) -> Result<Self, CurveError> {
        let tail = match distances.len() {
            0 => return Err(CurveError::EmptyTable),
            1 => distances[0],
            n => distances[n - 1].saturating_sub(distances[n - 2]),
        };
        Self::with_tail_increment(distances, tail)
    }

    /// Creates a table model with an explicit extrapolation increment.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeltaTable::new`].
    pub fn with_tail_increment(
        distances: Vec<Time>,
        tail_increment: Time,
    ) -> Result<Self, CurveError> {
        if distances.is_empty() {
            return Err(CurveError::EmptyTable);
        }
        for (i, pair) in distances.windows(2).enumerate() {
            if pair[1] < pair[0] {
                return Err(CurveError::NonMonotonicTable { k: i as u64 + 3 });
            }
        }
        if tail_increment == 0 {
            return Err(CurveError::ZeroDistance);
        }
        Ok(DeltaTable {
            distances,
            tail_increment,
        })
    }

    /// The stored distances, `distances[i] = δ-(i + 2)`.
    pub fn distances(&self) -> &[Time] {
        &self.distances
    }

    /// The linear extrapolation increment used beyond the table.
    pub fn tail_increment(&self) -> Time {
        self.tail_increment
    }

    /// Extracts a distance table from a measured, sorted activation
    /// trace: `δ-(k)` becomes the minimum span observed over any `k`
    /// consecutive events, for `k` up to `max_events`. The tail
    /// extrapolates with the last increment.
    ///
    /// This is the standard way measured traces are abstracted into event
    /// models in compositional performance analysis; any trace that
    /// repeats the observed behaviour conforms to the resulting model.
    ///
    /// # Errors
    ///
    /// * [`CurveError::EmptyTable`] if the trace has fewer than two
    ///   events or `max_events < 2`;
    /// * [`CurveError::ZeroDistance`] if two events coincide (the
    ///   resulting model could not bound event counts).
    ///
    /// # Examples
    ///
    /// ```
    /// use twca_curves::{DeltaTable, EventModel};
    ///
    /// # fn main() -> Result<(), twca_curves::CurveError> {
    /// // A bursty observation: pairs 10 apart, bursts 100 apart.
    /// let t = DeltaTable::from_trace(&[0, 10, 100, 110, 200, 210], 4)?;
    /// assert_eq!(t.delta_min(2), 10);
    /// assert_eq!(t.delta_min(3), 100); // e.g. events at 10, 100, 110
    /// assert_eq!(t.delta_min(4), 110); // e.g. events at 0, 10, 100, 110
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_trace(times: &[Time], max_events: u64) -> Result<Self, CurveError> {
        if times.len() < 2 || max_events < 2 {
            return Err(CurveError::EmptyTable);
        }
        debug_assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace must be sorted"
        );
        let limit = (max_events as usize).min(times.len());
        let mut distances = Vec::with_capacity(limit - 1);
        for k in 2..=limit {
            let min_span = times
                .windows(k)
                .map(|w| w[k - 1] - w[0])
                .min()
                .expect("windows of a long-enough trace are non-empty");
            if min_span == 0 {
                return Err(CurveError::ZeroDistance);
            }
            distances.push(min_span);
        }
        // Enforce monotonicity defensively (spans of more events are
        // never shorter for sorted input, so this is a no-op in practice).
        for i in 1..distances.len() {
            if distances[i] < distances[i - 1] {
                distances[i] = distances[i - 1];
            }
        }
        DeltaTable::new(distances)
    }
}

impl EventModel for DeltaTable {
    fn eta_plus(&self, delta: Time) -> u64 {
        eta_plus_from_delta_min(|k| self.delta_min(k), delta)
    }

    fn eta_minus(&self, _delta: Time) -> u64 {
        0
    }

    fn delta_min(&self, k: u64) -> Time {
        if k <= 1 {
            return 0;
        }
        let index = (k - 2) as usize;
        if index < self.distances.len() {
            self.distances[index]
        } else {
            let beyond = k - 1 - self.distances.len() as u64;
            self.distances[self.distances.len() - 1]
                .saturating_add(beyond.saturating_mul(self.tail_increment))
        }
    }

    fn delta_plus(&self, _k: u64) -> Option<Time> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup_and_extrapolation() {
        let t = DeltaTable::new(vec![10, 25, 45]).unwrap();
        assert_eq!(t.delta_min(1), 0);
        assert_eq!(t.delta_min(2), 10);
        assert_eq!(t.delta_min(3), 25);
        assert_eq!(t.delta_min(4), 45);
        assert_eq!(t.delta_min(5), 65); // 45 + 20
        assert_eq!(t.delta_min(7), 105);
    }

    #[test]
    fn table_models_periodic_exactly() {
        let t = DeltaTable::new(vec![100]).unwrap();
        for k in 2..10 {
            assert_eq!(t.delta_min(k), (k - 1) * 100);
        }
        assert_eq!(t.eta_plus(101), 2);
    }

    #[test]
    fn table_rejects_bad_input() {
        assert_eq!(DeltaTable::new(vec![]).unwrap_err(), CurveError::EmptyTable);
        assert_eq!(
            DeltaTable::new(vec![10, 5]).unwrap_err(),
            CurveError::NonMonotonicTable { k: 3 }
        );
        assert_eq!(
            DeltaTable::with_tail_increment(vec![10, 10], 0).unwrap_err(),
            CurveError::ZeroDistance
        );
    }

    #[test]
    fn from_trace_periodic_observation() {
        let t = DeltaTable::from_trace(&[0, 100, 200, 300, 400], 5).unwrap();
        for k in 2..=8 {
            assert_eq!(t.delta_min(k), (k - 1) * 100, "k={k}");
        }
    }

    #[test]
    fn from_trace_respects_max_events() {
        let t = DeltaTable::from_trace(&[0, 100, 200, 300, 400], 3).unwrap();
        assert_eq!(t.distances().len(), 2);
        // Tail extrapolates periodically.
        assert_eq!(t.delta_min(5), 400);
    }

    #[test]
    fn from_trace_rejects_degenerate_input() {
        assert_eq!(
            DeltaTable::from_trace(&[5], 4).unwrap_err(),
            CurveError::EmptyTable
        );
        assert_eq!(
            DeltaTable::from_trace(&[0, 100], 1).unwrap_err(),
            CurveError::EmptyTable
        );
        assert_eq!(
            DeltaTable::from_trace(&[0, 0, 100], 3).unwrap_err(),
            CurveError::ZeroDistance
        );
    }

    #[test]
    fn trace_replay_conforms_to_extracted_model() {
        // Any window of the original trace satisfies the extracted model.
        let times = [0u64, 7, 40, 47, 80, 87, 120];
        let t = DeltaTable::from_trace(&times, 7).unwrap();
        for i in 0..times.len() {
            for j in i..times.len() {
                let span = times[j] - times[i];
                let events = (j - i + 1) as u64;
                assert!(
                    events <= t.eta_plus(span + 1),
                    "window [{i},{j}] violates extracted model"
                );
            }
        }
    }
}
