//! End-to-end paths across resources, composing per-hop bounds.

use crate::analyze::DistResults;
use crate::error::DistError;
use crate::system::{DistributedSystem, SiteId};
use twca_curves::Time;

/// A sequence of linked sites analyzed end to end.
///
/// Composition rules (the standard compositional-performance-analysis
/// argument, matching [`twca_chains::paths`] on one resource):
///
/// * end-to-end latency ≤ Σ per-hop worst-case latencies;
/// * out of `k` consecutive end-to-end instances, at most
///   `min(k, Σ dmm_i(k))` violate the composite deadline `Σ D_i` — an
///   instance is late end-to-end only if some member instance was late
///   locally, and link instances correspond 1:1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistPath {
    hops: Vec<SiteId>,
}

impl DistPath {
    /// Validates that consecutive hops are linked and builds the path.
    ///
    /// # Errors
    ///
    /// * [`DistError::EmptyPath`] for zero hops;
    /// * [`DistError::UnknownChain`] for a site outside `system`;
    /// * [`DistError::NotLinked`] when two consecutive hops have no
    ///   declared link.
    pub fn new(system: &DistributedSystem, hops: Vec<SiteId>) -> Result<Self, DistError> {
        if hops.is_empty() {
            return Err(DistError::EmptyPath);
        }
        for &hop in &hops {
            if !system.contains(hop) {
                return Err(DistError::UnknownChain {
                    resource: format!("{}", hop.resource()),
                    chain: format!("{}", hop.chain()),
                });
            }
        }
        for pair in hops.windows(2) {
            let linked = system
                .links()
                .iter()
                .any(|l| l.from() == pair[0] && l.to() == pair[1]);
            if !linked {
                return Err(DistError::NotLinked {
                    from: pair[0],
                    to: pair[1],
                });
            }
        }
        Ok(DistPath { hops })
    }

    /// The hops, in path order.
    pub fn hops(&self) -> &[SiteId] {
        &self.hops
    }

    /// End-to-end latency bound: the sum of per-hop worst-case
    /// latencies.
    ///
    /// # Errors
    ///
    /// [`DistError::UnboundedLatency`] when any hop is unbounded.
    pub fn latency(&self, results: &DistResults) -> Result<Time, DistError> {
        let mut total: Time = 0;
        for &hop in &self.hops {
            let Some(wcl) = results.worst_case_latency(hop) else {
                return Err(DistError::UnboundedLatency {
                    site: hop,
                    reason: None,
                });
            };
            total = total.saturating_add(wcl);
        }
        Ok(total)
    }

    /// End-to-end deadline miss model: at most `min(k, Σ dmm_i(k))` of
    /// any `k` consecutive path instances exceed the composite deadline.
    ///
    /// # Errors
    ///
    /// [`DistError::MissingDeadline`] when a hop has no deadline;
    /// per-resource analysis errors are forwarded.
    pub fn deadline_miss_model(&self, results: &DistResults, k: u64) -> Result<u64, DistError> {
        Ok(self.deadline_miss_curve(results, &[k])?[0])
    }

    /// [`DistPath::deadline_miss_model`] at each of `ks`, from one
    /// [`DistResults::sweep`] per hop (none for an empty `ks`).
    ///
    /// # Errors
    ///
    /// See [`DistPath::deadline_miss_model`].
    pub fn deadline_miss_curve(
        &self,
        results: &DistResults,
        ks: &[u64],
    ) -> Result<Vec<u64>, DistError> {
        if ks.is_empty() {
            return Ok(Vec::new());
        }
        let mut totals = vec![0u64; ks.len()];
        for &hop in &self.hops {
            let ctx = results.context(hop.resource());
            let sweep = results.sweep(&ctx, hop)?;
            for (total, &k) in totals.iter_mut().zip(ks) {
                *total = total.saturating_add(sweep.at(k).bound);
            }
        }
        Ok(totals
            .into_iter()
            .zip(ks)
            .map(|(total, &k)| total.min(k))
            .collect())
    }

    /// The composite deadline `Σ D_i`, `None` when a hop has no
    /// deadline.
    pub fn composite_deadline(&self, system: &DistributedSystem) -> Option<Time> {
        self.hops
            .iter()
            .map(|&hop| system.chain(hop).deadline())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, DistOptions};
    use crate::system::DistributedSystemBuilder;
    use twca_model::{case_study, SystemBuilder};

    fn pipeline() -> DistributedSystem {
        let downstream = SystemBuilder::new()
            .chain("act")
            .periodic(200)
            .unwrap()
            .deadline(200)
            .task("a1", 1, 20)
            .done()
            .build()
            .unwrap();
        DistributedSystemBuilder::new()
            .resource("ecu0", case_study())
            .resource("ecu1", downstream)
            .link(("ecu0", "sigma_c"), ("ecu1", "act"))
            .build()
            .unwrap()
    }

    #[test]
    fn path_validation() {
        let dist = pipeline();
        let c = dist.site("ecu0", "sigma_c").unwrap();
        let d = dist.site("ecu0", "sigma_d").unwrap();
        let act = dist.site("ecu1", "act").unwrap();
        assert!(DistPath::new(&dist, vec![]).is_err());
        assert!(matches!(
            DistPath::new(&dist, vec![d, act]),
            Err(DistError::NotLinked { .. })
        ));
        let path = DistPath::new(&dist, vec![c, act]).unwrap();
        assert_eq!(path.hops().len(), 2);
        assert_eq!(path.composite_deadline(&dist), Some(200 + 200));
    }

    #[test]
    fn path_bounds_compose() {
        let dist = pipeline();
        let c = dist.site("ecu0", "sigma_c").unwrap();
        let act = dist.site("ecu1", "act").unwrap();
        let results = analyze(&dist, DistOptions::default()).unwrap();
        let path = DistPath::new(&dist, vec![c, act]).unwrap();
        let total = path.latency(&results).unwrap();
        let sum = results.worst_case_latency(c).unwrap() + results.worst_case_latency(act).unwrap();
        assert_eq!(total, sum);
        let mut previous = 0;
        for k in [1u64, 2, 5, 10, 50] {
            let dmm = path.deadline_miss_model(&results, k).unwrap();
            assert!(dmm <= k);
            assert!(dmm >= previous);
            previous = dmm;
        }
    }
}
