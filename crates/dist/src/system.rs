//! The distributed system model: named resources plus directed links.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::error::DistError;
use twca_model::{Chain, ChainId, System};

/// Index of a resource within a [`DistributedSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// The position of the resource in [`DistributedSystem::resources`].
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw position (for tools iterating all
    /// resources; panics later if out of range when used).
    pub fn from_index(index: usize) -> ResourceId {
        ResourceId(index)
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resource#{}", self.0)
    }
}

/// One chain on one resource — the unit the distributed analysis hands
/// out bounds for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId {
    pub(crate) resource: ResourceId,
    pub(crate) chain: ChainId,
}

impl SiteId {
    /// The resource this site lives on.
    pub fn resource(self) -> ResourceId {
        self.resource
    }

    /// The chain within [`SiteId::resource`]'s system.
    pub fn chain(self) -> ChainId {
        self.chain
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.resource, self.chain)
    }
}

/// A named resource: one SPP uniprocessor running a chain system.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    pub(crate) name: String,
    pub(crate) system: System,
}

impl Resource {
    /// The resource name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The local chain system.
    pub fn system(&self) -> &System {
        &self.system
    }
}

/// A directed activation link: completions of `from` activate `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    pub(crate) from: SiteId,
    pub(crate) to: SiteId,
}

impl Link {
    /// The producing site.
    pub fn from(&self) -> SiteId {
        self.from
    }

    /// The consuming site (its declared activation model is a
    /// placeholder replaced by propagation).
    pub fn to(&self) -> SiteId {
        self.to
    }
}

/// A validated set of resources and links.
///
/// Build with [`DistributedSystemBuilder`]. Invariants: resource names
/// are unique, link endpoints resolve, and every site has at most one
/// incoming link.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedSystem {
    resources: Vec<Resource>,
    links: Vec<Link>,
}

impl DistributedSystem {
    /// All resources, in declaration order.
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// The resource at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.0]
    }

    /// Looks up a resource by name.
    pub fn resource_by_name(&self, name: &str) -> Option<ResourceId> {
        self.resources
            .iter()
            .position(|r| r.name == name)
            .map(ResourceId)
    }

    /// The declared chain of `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn chain(&self, site: SiteId) -> &Chain {
        self.resources[site.resource.0].system.chain(site.chain)
    }

    /// All links, in declaration order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Resolves `(resource, chain)` names to a site.
    pub fn site(&self, resource: &str, chain: &str) -> Option<SiteId> {
        let rid = self.resource_by_name(resource)?;
        let (cid, _) = self.resources[rid.0].system.chain_by_name(chain)?;
        Some(SiteId {
            resource: rid,
            chain: cid,
        })
    }

    /// Every chain of every resource as a site.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.resources.iter().enumerate().flat_map(|(r, res)| {
            res.system.iter().map(move |(c, _)| SiteId {
                resource: ResourceId(r),
                chain: c,
            })
        })
    }

    /// Links departing from `site`.
    pub fn outgoing_links(&self, site: SiteId) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter().filter(move |l| l.from == site)
    }

    /// The link arriving at `site`, if any (at most one by construction).
    pub fn incoming_link(&self, site: SiteId) -> Option<&Link> {
        self.links.iter().find(|l| l.to == site)
    }

    /// Rebuilds the system with `f` applied to every resource, keeping
    /// names and links.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] if a transformed system no longer contains
    /// a linked chain name.
    pub fn map_systems(
        &self,
        mut f: impl FnMut(&Resource) -> System,
    ) -> Result<DistributedSystem, DistError> {
        let mut builder = DistributedSystemBuilder::new();
        for resource in &self.resources {
            builder = builder.resource(resource.name.clone(), f(resource));
        }
        for link in &self.links {
            let from = self.site_names(link.from);
            let to = self.site_names(link.to);
            builder = builder.link(from, to);
        }
        builder.build()
    }

    /// The `(resource, chain)` names of `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` does not belong to this system.
    pub fn site_names(&self, site: SiteId) -> (String, String) {
        let resource = &self.resources[site.resource.0];
        (
            resource.name.clone(),
            resource.system.chain(site.chain).name().to_owned(),
        )
    }

    /// Topological order of the resources under the link edges
    /// (self-links count as cycles).
    ///
    /// # Errors
    ///
    /// [`DistError::Cyclic`] when the resource graph has a cycle.
    pub fn resource_topological_order(&self) -> Result<Vec<ResourceId>, DistError> {
        let n = self.resources.len();
        let mut indegree = vec![0usize; n];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for link in &self.links {
            let (from, to) = (link.from.resource.0, link.to.resource.0);
            if from == to {
                return Err(DistError::Cyclic);
            }
            successors[from].push(to);
            indegree[to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(next) = queue.pop() {
            order.push(ResourceId(next));
            for &to in &successors[next] {
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    queue.push(to);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(DistError::Cyclic)
        }
    }

    /// Whether `site`'s indices are valid for this system.
    pub fn contains(&self, site: SiteId) -> bool {
        site.resource.0 < self.resources.len()
            && site.chain.index() < self.resources[site.resource.0].system.chains().len()
    }
}

/// Builder for [`DistributedSystem`].
///
/// # Examples
///
/// ```
/// use twca_dist::DistributedSystemBuilder;
/// use twca_model::SystemBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ecu = SystemBuilder::new()
///     .chain("c").periodic(100)?.task("t", 1, 10).done()
///     .build()?;
/// let dist = DistributedSystemBuilder::new()
///     .resource("ecu0", ecu.clone())
///     .resource("ecu1", ecu)
///     .link(("ecu0", "c"), ("ecu1", "c"))
///     .build()?;
/// assert_eq!(dist.links().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DistributedSystemBuilder {
    resources: Vec<Resource>,
    links: Vec<((String, String), (String, String))>,
}

impl DistributedSystemBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named resource.
    pub fn resource(mut self, name: impl Into<String>, system: System) -> Self {
        self.resources.push(Resource {
            name: name.into(),
            system,
        });
        self
    }

    /// Declares that completions of `from = (resource, chain)` activate
    /// `to`.
    pub fn link(
        mut self,
        from: (impl Into<String>, impl Into<String>),
        to: (impl Into<String>, impl Into<String>),
    ) -> Self {
        self.links
            .push(((from.0.into(), from.1.into()), (to.0.into(), to.1.into())));
        self
    }

    /// Validates and builds the distributed system.
    ///
    /// # Errors
    ///
    /// * [`DistError::DuplicateResource`] for repeated resource names;
    /// * [`DistError::UnknownResource`] / [`DistError::UnknownChain`]
    ///   for dangling link endpoints;
    /// * [`DistError::DuplicateInput`] if two links target one site;
    /// * [`DistError::Cyclic`] if the resource graph has a cycle (or a
    ///   self-link) — no analysis or simulation order exists for it, so
    ///   the construction is rejected eagerly.
    pub fn build(self) -> Result<DistributedSystem, DistError> {
        let DistributedSystemBuilder {
            resources,
            links: declared,
        } = self;
        let mut resource_ids = HashMap::with_capacity(resources.len());
        for (i, resource) in resources.iter().enumerate() {
            if resource_ids
                .insert(resource.name.as_str(), ResourceId(i))
                .is_some()
            {
                return Err(DistError::DuplicateResource {
                    name: resource.name.clone(),
                });
            }
        }
        let chain_ids: HashMap<(ResourceId, &str), ChainId> = resources
            .iter()
            .enumerate()
            .flat_map(|(r, resource)| {
                resource
                    .system
                    .iter()
                    .map(move |(c, chain)| ((ResourceId(r), chain.name()), c))
            })
            .collect();
        let resolve = |r: &str, c: &str| -> Result<SiteId, DistError> {
            let rid = *resource_ids
                .get(r)
                .ok_or_else(|| DistError::UnknownResource { name: r.to_owned() })?;
            let cid = *chain_ids
                .get(&(rid, c))
                .ok_or_else(|| DistError::UnknownChain {
                    resource: r.to_owned(),
                    chain: c.to_owned(),
                })?;
            Ok(SiteId {
                resource: rid,
                chain: cid,
            })
        };
        let mut targets = HashSet::with_capacity(declared.len());
        let mut links = Vec::with_capacity(declared.len());
        for ((from_r, from_c), (to_r, to_c)) in declared {
            let link = Link {
                from: resolve(&from_r, &from_c)?,
                to: resolve(&to_r, &to_c)?,
            };
            if !targets.insert(link.to) {
                return Err(DistError::DuplicateInput {
                    resource: to_r,
                    chain: to_c,
                });
            }
            links.push(link);
        }
        let system = DistributedSystem { resources, links };
        system.resource_topological_order()?;
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::SystemBuilder;

    fn small() -> System {
        SystemBuilder::new()
            .chain("c")
            .periodic(100)
            .unwrap()
            .task("t", 1, 10)
            .done()
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_names() {
        let dup = DistributedSystemBuilder::new()
            .resource("a", small())
            .resource("a", small())
            .build();
        assert!(matches!(dup, Err(DistError::DuplicateResource { .. })));

        let dangling = DistributedSystemBuilder::new()
            .resource("a", small())
            .link(("a", "c"), ("b", "c"))
            .build();
        assert!(matches!(dangling, Err(DistError::UnknownResource { .. })));

        let ghost = DistributedSystemBuilder::new()
            .resource("a", small())
            .resource("b", small())
            .link(("a", "ghost"), ("b", "c"))
            .build();
        assert!(matches!(ghost, Err(DistError::UnknownChain { .. })));
    }

    #[test]
    fn site_lookup_and_iteration() {
        let dist = DistributedSystemBuilder::new()
            .resource("a", small())
            .resource("b", small())
            .link(("a", "c"), ("b", "c"))
            .build()
            .unwrap();
        assert_eq!(dist.sites().count(), 2);
        let site = dist.site("b", "c").unwrap();
        assert!(dist.contains(site));
        assert!(dist.incoming_link(site).is_some());
        assert_eq!(dist.outgoing_links(site).count(), 0);
        assert_eq!(dist.site_names(site), ("b".to_owned(), "c".to_owned()));
    }

    #[test]
    fn topological_order_detects_cycles() {
        let ok = DistributedSystemBuilder::new()
            .resource("a", small())
            .resource("b", small())
            .link(("a", "c"), ("b", "c"))
            .build()
            .unwrap();
        assert_eq!(ok.resource_topological_order().unwrap().len(), 2);

        let two = SystemBuilder::new()
            .chain("c")
            .periodic(100)
            .unwrap()
            .task("t", 1, 10)
            .done()
            .chain("d")
            .periodic(100)
            .unwrap()
            .task("u", 2, 10)
            .done()
            .build()
            .unwrap();
        // Cyclic graphs are rejected at construction: no analysis or
        // simulation order exists for them.
        let cyclic = DistributedSystemBuilder::new()
            .resource("a", two.clone())
            .resource("b", two)
            .link(("a", "c"), ("b", "c"))
            .link(("b", "d"), ("a", "d"))
            .build();
        assert!(matches!(cyclic, Err(DistError::Cyclic)));
    }
}
