//! Validated systems of task chains.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::chain::Chain;
use crate::error::ModelError;
use crate::ids::{ChainId, Priority, TaskRef};
use crate::task::Task;
use twca_curves::{ActivationModel, EventModel, Time};

/// A validated uniprocessor system: a set of disjoint task chains under
/// SPP scheduling.
///
/// Construct with [`crate::SystemBuilder`]. Invariants guaranteed after
/// validation:
///
/// * at least one chain, every chain non-empty;
/// * chain and task names unique;
/// * every chain has an activation model and, if present, a positive
///   deadline.
///
/// # Examples
///
/// ```
/// use twca_model::case_study;
///
/// let system = case_study();
/// assert_eq!(system.chains().len(), 4);
/// assert_eq!(system.overload_chains().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct System {
    chains: Vec<Chain>,
}

impl System {
    /// Validates and wraps a set of chains.
    ///
    /// # Errors
    ///
    /// See [`ModelError`] for the conditions rejected.
    pub fn new(chains: Vec<Chain>) -> Result<Self, ModelError> {
        if chains.is_empty() {
            return Err(ModelError::NoChains);
        }
        let mut chain_names = HashSet::with_capacity(chains.len());
        let mut task_names = HashSet::new();
        for chain in &chains {
            if chain.tasks.is_empty() {
                return Err(ModelError::EmptyChain {
                    chain: chain.name.clone(),
                });
            }
            if !chain_names.insert(chain.name.as_str()) {
                return Err(ModelError::DuplicateChainName {
                    name: chain.name.clone(),
                });
            }
            if chain.deadline == Some(0) {
                return Err(ModelError::ZeroDeadline {
                    chain: chain.name.clone(),
                });
            }
            for task in &chain.tasks {
                if !task_names.insert(task.name()) {
                    return Err(ModelError::DuplicateTaskName {
                        name: task.name().to_owned(),
                    });
                }
            }
        }
        Ok(System { chains })
    }

    /// All chains, in id order.
    pub fn chains(&self) -> &[Chain] {
        &self.chains
    }

    /// The chain with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this system.
    pub fn chain(&self, id: ChainId) -> &Chain {
        &self.chains[id.index()]
    }

    /// Iterates over `(ChainId, &Chain)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ChainId, &Chain)> {
        self.chains.iter().enumerate().map(|(i, c)| (ChainId(i), c))
    }

    /// Looks a chain up by name.
    pub fn chain_by_name(&self, name: &str) -> Option<(ChainId, &Chain)> {
        self.iter().find(|(_, c)| c.name() == name)
    }

    /// The task identified by `task_ref`.
    ///
    /// # Panics
    ///
    /// Panics if the reference does not belong to this system.
    pub fn task(&self, task_ref: TaskRef) -> &Task {
        &self.chain(task_ref.chain).tasks()[task_ref.index]
    }

    /// Ids of the chains flagged as overload chains (`C_over`).
    pub fn overload_chains(&self) -> impl Iterator<Item = ChainId> + '_ {
        self.iter()
            .filter(|(_, c)| c.is_overload())
            .map(|(id, _)| id)
    }

    /// Ids of the chains *not* flagged as overload chains.
    pub fn regular_chains(&self) -> impl Iterator<Item = ChainId> + '_ {
        self.iter()
            .filter(|(_, c)| !c.is_overload())
            .map(|(id, _)| id)
    }

    /// Total number of tasks across all chains.
    pub fn task_count(&self) -> usize {
        self.chains.iter().map(Chain::len).sum()
    }

    /// All task references in chain order.
    pub fn task_refs(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.iter()
            .flat_map(|(id, c)| (0..c.len()).map(move |index| TaskRef { chain: id, index }))
    }

    /// Long-run processor demand over `horizon`, as demanded time per unit
    /// time: `Σ_σ η+_σ(horizon) · C_σ / horizon`.
    ///
    /// A value above `1.0` over a long horizon means the system can be
    /// overloaded in the worst case.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization_bound(&self, horizon: Time) -> f64 {
        assert!(horizon > 0, "horizon must be positive");
        let demand: u128 = self
            .chains
            .iter()
            .map(|c| c.activation().eta_plus(horizon) as u128 * c.total_wcet() as u128)
            .sum();
        demand as f64 / horizon as f64
    }

    /// Returns a copy of the system with the deadline of one chain
    /// replaced (`None` removes the deadline).
    ///
    /// Used by deadline-sensitivity searches.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the new deadline is `Some(0)`.
    pub fn with_deadline(&self, id: ChainId, deadline: Option<Time>) -> Self {
        assert!(id.index() < self.chains.len(), "chain id out of range");
        assert_ne!(deadline, Some(0), "deadlines must be positive");
        let mut chains = self.chains.clone();
        chains[id.index()].deadline = deadline;
        System { chains }
    }

    /// Returns a copy of the system with one chain's activation model
    /// replaced.
    ///
    /// Used by compositional analyses that derive a chain's activation
    /// from the output of another resource (event-model propagation).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn with_activation(&self, id: ChainId, activation: ActivationModel) -> Self {
        assert!(id.index() < self.chains.len(), "chain id out of range");
        let mut chains = self.chains.clone();
        chains[id.index()].activation = activation;
        System { chains }
    }

    /// Replaces one chain's activation model in place.
    ///
    /// The in-place sibling of [`System::with_activation`], used by
    /// iterations that update activation models sweep after sweep (the
    /// holistic distributed fixed point) without cloning whole systems.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_activation(&mut self, id: ChainId, activation: ActivationModel) {
        assert!(id.index() < self.chains.len(), "chain id out of range");
        self.chains[id.index()].activation = activation;
    }

    /// Returns a copy of the system with the execution times of all
    /// tasks in *overload* chains scaled to
    /// `ceil(wcet · numerator / denominator)`.
    ///
    /// Used by sensitivity analyses that search for the largest overload
    /// the system tolerates under a weakly-hard constraint.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero.
    pub fn with_scaled_overload_wcets(&self, numerator: u64, denominator: u64) -> Self {
        assert!(denominator > 0, "denominator must be positive");
        let chains = self
            .chains
            .iter()
            .map(|c| {
                if !c.is_overload() {
                    return c.clone();
                }
                let tasks = c
                    .tasks
                    .iter()
                    .map(|t| {
                        let scaled =
                            (t.wcet() as u128 * numerator as u128).div_ceil(denominator as u128);
                        t.with_wcet(scaled.min(Time::MAX as u128) as Time)
                    })
                    .collect();
                Chain {
                    name: c.name.clone(),
                    tasks,
                    activation: c.activation.clone(),
                    deadline: c.deadline,
                    kind: c.kind,
                    overload: c.overload,
                }
            })
            .collect();
        System { chains }
    }

    /// Returns a copy of the system with all task priorities replaced.
    ///
    /// `priorities` lists one priority per task, in the order produced by
    /// [`System::task_refs`] (chain by chain, task by task). Used by the
    /// random priority-assignment experiment (Experiment 2 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `priorities.len() != self.task_count()`.
    pub fn with_priorities(&self, priorities: &[Priority]) -> Self {
        assert_eq!(
            priorities.len(),
            self.task_count(),
            "need exactly one priority per task"
        );
        let mut iter = priorities.iter().copied();
        let chains = self
            .chains
            .iter()
            .map(|c| {
                let ps: Vec<Priority> = iter.by_ref().take(c.len()).collect();
                c.with_priorities(&ps)
            })
            .collect();
        System { chains }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use crate::chain::ChainKind;

    fn two_chain_system() -> System {
        SystemBuilder::new()
            .chain("c")
            .periodic(200)
            .unwrap()
            .deadline(200)
            .kind(ChainKind::Synchronous)
            .task("c1", 8u32, 4)
            .task("c2", 7u32, 6)
            .done()
            .chain("a")
            .sporadic(700)
            .unwrap()
            .overload()
            .task("a1", 4u32, 10)
            .done()
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let s = two_chain_system();
        let (id, c) = s.chain_by_name("a").unwrap();
        assert_eq!(id.index(), 1);
        assert!(c.is_overload());
        assert_eq!(s.chain(id).name(), "a");
        assert!(s.chain_by_name("zzz").is_none());
    }

    #[test]
    fn overload_partition() {
        let s = two_chain_system();
        assert_eq!(s.overload_chains().count(), 1);
        assert_eq!(s.regular_chains().count(), 1);
        assert_eq!(s.task_count(), 3);
    }

    #[test]
    fn utilization_bound_is_plausible() {
        let s = two_chain_system();
        let u = s.utilization_bound(1_000_000);
        assert!(u > 0.0 && u < 0.2, "u={u}");
    }

    #[test]
    fn with_priorities_reassigns_in_task_ref_order() {
        let s = two_chain_system();
        let ps = vec![Priority::new(1), Priority::new(2), Priority::new(3)];
        let s2 = s.with_priorities(&ps);
        let refs: Vec<_> = s2.task_refs().collect();
        assert_eq!(s2.task(refs[0]).priority(), Priority::new(1));
        assert_eq!(s2.task(refs[2]).priority(), Priority::new(3));
    }

    #[test]
    fn validation_rejects_duplicates() {
        let err = SystemBuilder::new()
            .chain("c")
            .periodic(10)
            .unwrap()
            .task("t", 1u32, 1)
            .done()
            .chain("c")
            .periodic(10)
            .unwrap()
            .task("u", 2u32, 1)
            .done()
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::DuplicateChainName {
                name: "c".to_owned()
            }
        );
    }

    #[test]
    fn validation_rejects_duplicate_task_names_across_chains() {
        let err = SystemBuilder::new()
            .chain("c")
            .periodic(10)
            .unwrap()
            .task("t", 1u32, 1)
            .done()
            .chain("d")
            .periodic(10)
            .unwrap()
            .task("t", 2u32, 1)
            .done()
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::DuplicateTaskName {
                name: "t".to_owned()
            }
        );
    }

    #[test]
    fn validation_rejects_empty_system() {
        assert_eq!(System::new(vec![]).unwrap_err(), ModelError::NoChains);
    }
}
