//! Trace-propagating simulation: resources simulated in topological
//! order, with upstream completion times forwarded as downstream
//! activation traces. Used to cross-check the analytic bounds.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::analyze::DistResults;
use crate::error::DistError;
use crate::path::DistPath;
use crate::system::{DistributedSystem, SiteId};
use twca_curves::Time;
use twca_sim::{max_rate_trace, Simulation, SimulationResult, Trace, TraceSet};

/// How source (un-linked) chains are stimulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StimulusKind {
    /// Every source chain fires at its maximum legal rate.
    MaxRate,
    /// Max-rate events independently kept with probability
    /// `keep_permille / 1000` (a legal sub-trace, randomly phased).
    Thinned {
        /// RNG seed for reproducibility.
        seed: u64,
        /// Keep probability in permille (0–1000).
        keep_permille: u16,
    },
}

/// Per-resource simulation results with completion-trace forwarding.
#[derive(Debug, Clone)]
pub struct PropagateSimulation {
    results: Vec<SimulationResult>,
}

impl PropagateSimulation {
    /// Maximum observed latency of `site`, `None` without completed
    /// instances.
    pub fn max_latency(&self, site: SiteId) -> Option<Time> {
        self.results[site.resource().index()]
            .chain(site.chain())
            .max_latency()
    }

    /// Simulation statistics of `site`.
    pub fn stats(&self, site: SiteId) -> &twca_sim::ChainStats {
        self.results[site.resource().index()].chain(site.chain())
    }

    /// Maximum observed end-to-end latency along `path`: last-hop
    /// completion minus first-hop activation of the same path instance
    /// (instances correspond 1:1 along links).
    pub fn max_path_latency(&self, path: &DistPath) -> Option<Time> {
        let first = self.stats(*path.hops().first()?).records();
        let last = self.stats(*path.hops().last()?).records();
        (0..first.len().min(last.len()))
            .filter_map(|j| {
                last[j]
                    .completion()
                    .map(|c| c.saturating_sub(first[j].activation()))
            })
            .max()
    }
}

/// Simulates the whole distributed system for `horizon` ticks.
///
/// Resources run in topological order; each linked chain's activation
/// trace is the completion trace of its upstream producer, all other
/// chains are driven by `stimulus`.
///
/// # Errors
///
/// [`DistError::Cyclic`] when the resource graph has no topological
/// order.
pub fn propagate_simulation(
    system: &DistributedSystem,
    horizon: Time,
    stimulus: StimulusKind,
) -> Result<PropagateSimulation, DistError> {
    let order = system.resource_topological_order()?;
    let mut results: Vec<Option<SimulationResult>> =
        (0..system.resources().len()).map(|_| None).collect();

    for rid in order {
        let local = system.resource(rid).system();
        let mut traces = stimulus_traces(local, horizon, stimulus, rid.index() as u64);
        for (cid, _) in local.iter() {
            let site = SiteId {
                resource: rid,
                chain: cid,
            };
            if let Some(link) = system.incoming_link(site) {
                let upstream = results[link.from().resource().index()]
                    .as_ref()
                    .expect("producers precede consumers in topological order");
                let mut completions: Vec<Time> = upstream
                    .chain(link.from().chain())
                    .records()
                    .iter()
                    .filter_map(|r| r.completion())
                    .collect();
                completions.sort_unstable();
                traces.set_trace(cid, Trace::new(completions));
            }
        }
        results[rid.index()] = Some(Simulation::new(local).run(&traces));
    }

    Ok(PropagateSimulation {
        results: results
            .into_iter()
            .map(|r| r.expect("every resource simulated"))
            .collect(),
    })
}

fn stimulus_traces(
    local: &twca_model::System,
    horizon: Time,
    stimulus: StimulusKind,
    salt: u64,
) -> TraceSet {
    match stimulus {
        StimulusKind::MaxRate => TraceSet::max_rate(local, horizon),
        StimulusKind::Thinned {
            seed,
            keep_permille,
        } => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9));
            let traces = local
                .iter()
                .map(|(_, chain)| {
                    let full = max_rate_trace(chain.activation(), horizon);
                    let kept: Vec<Time> = full
                        .times()
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_range(0u16..1000) < keep_permille)
                        .collect();
                    Trace::new(kept)
                })
                .collect();
            TraceSet::new(local, traces)
        }
    }
}

/// Runs a max-rate propagated simulation and reports every observation
/// that exceeds its analytic bound: per-site latencies, and per-site
/// deadline-miss counts in every window length up to `max_k`.
///
/// An empty result is the expected outcome — the bounds are sound.
///
/// # Errors
///
/// [`DistError::Cyclic`] when the resource graph has no topological
/// order.
pub fn soundness_violations(
    system: &DistributedSystem,
    results: &DistResults,
    horizon: Time,
    max_k: u64,
) -> Result<Vec<String>, DistError> {
    let sim = propagate_simulation(system, horizon, StimulusKind::MaxRate)?;
    let mut violations = Vec::new();
    let sites: Vec<SiteId> = system.sites().collect();
    // `sites()` is resource-major: one context per resource.
    for group in sites.chunk_by(|a, b| a.resource() == b.resource()) {
        let ctx = results.context(group[0].resource());
        for &site in group {
            let (resource_name, chain_name) = system.site_names(site);
            if let (Some(observed), Some(bound)) =
                (sim.max_latency(site), results.worst_case_latency(site))
            {
                if observed > bound {
                    violations.push(format!(
                        "{resource_name}/{chain_name}: observed latency {observed} > bound {bound}"
                    ));
                }
            }
            if system.chain(site).deadline().is_none() {
                continue;
            }
            let Ok(sweep) = results.sweep(&ctx, site) else {
                continue;
            };
            let stats = sim.stats(site);
            for k in 1..=max_k {
                let bound = sweep.at(k).bound;
                let observed = stats.max_misses_in_window(k as usize) as u64;
                if observed > bound {
                    violations.push(format!(
                        "{resource_name}/{chain_name}: {observed} misses in a {k}-window > dmm({k}) = {bound}"
                    ));
                }
            }
        }
    }
    Ok(violations)
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
    fn propagated_simulation_respects_bounds() {
        let dist = pipeline();
        let results = analyze(&dist, DistOptions::default()).unwrap();
        let violations = soundness_violations(&dist, &results, 40_000, 5).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn thinned_stimulus_is_a_subtrace() {
        let dist = pipeline();
        let sparse = propagate_simulation(
            &dist,
            20_000,
            StimulusKind::Thinned {
                seed: 9,
                keep_permille: 500,
            },
        )
        .unwrap();
        let dense = propagate_simulation(&dist, 20_000, StimulusKind::MaxRate).unwrap();
        let c = dist.site("ecu0", "sigma_c").unwrap();
        assert!(
            sparse.stats(c).records().len() <= dense.stats(c).records().len(),
            "thinning must not add activations"
        );
    }

    #[test]
    fn path_latency_is_observed_end_to_end() {
        let dist = pipeline();
        let results = analyze(&dist, DistOptions::default()).unwrap();
        let path = DistPath::new(
            &dist,
            vec![
                dist.site("ecu0", "sigma_c").unwrap(),
                dist.site("ecu1", "act").unwrap(),
            ],
        )
        .unwrap();
        let sim = propagate_simulation(&dist, 40_000, StimulusKind::MaxRate).unwrap();
        let observed = sim.max_path_latency(&path).unwrap();
        let bound = path.latency(&results).unwrap();
        assert!(observed <= bound, "observed {observed} > bound {bound}");
        assert!(observed > 0);
    }
}
