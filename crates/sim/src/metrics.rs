//! Latency and deadline-miss metrics extracted from simulation runs.

use twca_curves::Time;

/// Observation of one chain instance: when it was activated and when its
/// tail task finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceRecord {
    activation: Time,
    completion: Option<Time>,
}

impl InstanceRecord {
    /// A freshly activated, not yet completed instance.
    pub(crate) fn activated(activation: Time) -> Self {
        InstanceRecord {
            activation,
            completion: None,
        }
    }

    pub(crate) fn complete(&mut self, at: Time) {
        self.completion = Some(at);
    }

    /// The activation instant.
    pub fn activation(&self) -> Time {
        self.activation
    }

    /// The completion instant, if the instance finished within the run.
    pub fn completion(&self) -> Option<Time> {
        self.completion
    }

    /// End-to-end latency (completion − activation), if completed.
    pub fn latency(&self) -> Option<Time> {
        self.completion.map(|c| c - self.activation)
    }
}

/// Per-chain simulation statistics.
///
/// # Examples
///
/// ```
/// use twca_model::case_study;
/// use twca_sim::{Simulation, TraceSet};
///
/// let system = case_study();
/// let result = Simulation::new(&system).run(&TraceSet::max_rate(&system, 10_000));
/// let (id, _) = system.chain_by_name("sigma_d").unwrap();
/// let stats = result.chain(id);
/// assert!(stats.max_latency().unwrap() <= 175); // analytic WCL of σd
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStats {
    records: Vec<InstanceRecord>,
    deadline: Option<Time>,
}

impl ChainStats {
    pub(crate) fn new(records: Vec<InstanceRecord>, deadline: Option<Time>) -> Self {
        ChainStats { records, deadline }
    }

    /// All instance records in activation order.
    pub fn records(&self) -> &[InstanceRecord] {
        &self.records
    }

    /// The chain's deadline used for miss classification, if any.
    pub fn deadline(&self) -> Option<Time> {
        self.deadline
    }

    /// Number of instances that completed.
    pub fn completed_instances(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.completion().is_some())
            .count()
    }

    /// Latencies of completed instances, in activation order.
    pub fn latencies(&self) -> impl Iterator<Item = Time> + '_ {
        self.records.iter().filter_map(InstanceRecord::latency)
    }

    /// The largest observed latency.
    pub fn max_latency(&self) -> Option<Time> {
        self.latencies().max()
    }

    /// Per-instance miss flags against the chain deadline (empty when the
    /// chain has no deadline).
    pub fn miss_flags(&self) -> Vec<bool> {
        let Some(d) = self.deadline else {
            return Vec::new();
        };
        self.records
            .iter()
            .filter_map(InstanceRecord::latency)
            .map(|l| l > d)
            .collect()
    }

    /// Total number of deadline misses.
    pub fn miss_count(&self) -> usize {
        self.miss_flags().iter().filter(|&&m| m).count()
    }

    /// The maximum number of misses observed in any window of `k`
    /// consecutive activations — the empirical counterpart of the
    /// deadline miss model `dmm(k)`.
    ///
    /// Returns `0` for `k = 0`; windows shorter than `k` at the end of the
    /// run are still counted (a sound lower bound on the supremum over
    /// infinite runs).
    pub fn max_misses_in_window(&self, k: usize) -> usize {
        max_misses_in_flag_window(&self.miss_flags(), k)
    }
}

/// Sliding-window maximum over a per-instance miss-flag slice: the shared
/// core of [`ChainStats::max_misses_in_window`] and the Monte Carlo
/// driver's allocation-free aggregation.
pub(crate) fn max_misses_in_flag_window(flags: &[bool], k: usize) -> usize {
    if k == 0 || flags.is_empty() {
        return 0;
    }
    let mut best = 0usize;
    let mut current = 0usize;
    for i in 0..flags.len() {
        if flags[i] {
            current += 1;
        }
        if i >= k && flags[i - k] {
            current -= 1;
        }
        best = best.max(current);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(latencies: &[Time], deadline: Time) -> ChainStats {
        let records = latencies
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let mut r = InstanceRecord::activated(i as Time * 100);
                r.complete(i as Time * 100 + l);
                r
            })
            .collect();
        ChainStats::new(records, Some(deadline))
    }

    #[test]
    fn basic_metrics() {
        let s = stats(&[50, 250, 100, 300], 200);
        assert_eq!(s.completed_instances(), 4);
        assert_eq!(s.max_latency(), Some(300));
        assert_eq!(s.miss_count(), 2);
        assert_eq!(s.miss_flags(), vec![false, true, false, true]);
    }

    #[test]
    fn window_miss_maximum() {
        let s = stats(&[250, 250, 100, 250, 250, 250, 100], 200);
        assert_eq!(s.max_misses_in_window(1), 1);
        assert_eq!(s.max_misses_in_window(2), 2);
        assert_eq!(s.max_misses_in_window(3), 3); // indices 3,4,5
        assert_eq!(s.max_misses_in_window(4), 3);
        assert_eq!(s.max_misses_in_window(100), 5);
        assert_eq!(s.max_misses_in_window(0), 0);
    }

    #[test]
    fn no_deadline_means_no_misses() {
        let records = vec![{
            let mut r = InstanceRecord::activated(0);
            r.complete(500);
            r
        }];
        let s = ChainStats::new(records, None);
        assert_eq!(s.miss_count(), 0);
        assert_eq!(s.max_misses_in_window(5), 0);
    }

    #[test]
    fn incomplete_instances_are_skipped() {
        let mut done = InstanceRecord::activated(0);
        done.complete(10);
        let open = InstanceRecord::activated(100);
        let s = ChainStats::new(vec![done, open], Some(50));
        assert_eq!(s.completed_instances(), 1);
        assert_eq!(s.latencies().collect::<Vec<_>>(), vec![10]);
        assert_eq!(open.latency(), None);
    }
}
