//! The directory of Network Objects, one per inter-domain link.

use crate::netobj::{canonical, NetworkObject};
use legion_core::LoidKind;
use legion_fabric::{DomainId, Fabric};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Resolves domain pairs to their guarding Network Objects.
pub struct NetworkDirectory {
    links: RwLock<BTreeMap<(DomainId, DomainId), Arc<NetworkObject>>>,
}

impl NetworkDirectory {
    /// An empty directory.
    pub fn new() -> Arc<Self> {
        Arc::new(NetworkDirectory { links: RwLock::new(BTreeMap::new()) })
    }

    /// Builds one Network Object per inter-domain pair of `fabric`'s
    /// topology, each with `capacity_mbps`.
    pub fn for_fabric(fabric: &Arc<Fabric>, capacity_mbps: u32, seed: u64) -> Arc<Self> {
        let dir = Self::new();
        let n = fabric.topology(|t| t.len());
        for a in 0..n {
            for b in (a + 1)..n {
                dir.add(NetworkObject::new(
                    fabric.mint(LoidKind::Service),
                    DomainId(a as u16),
                    DomainId(b as u16),
                    capacity_mbps,
                    seed ^ ((a as u64) << 32 | b as u64),
                ));
            }
        }
        dir
    }

    /// Registers a link object (replacing any previous guardian).
    pub fn add(&self, obj: NetworkObject) {
        self.links.write().insert(obj.link(), Arc::new(obj));
    }

    /// Looks up the guardian of the (unordered) pair `a`-`b`.
    pub fn lookup(&self, a: DomainId, b: DomainId) -> Option<Arc<NetworkObject>> {
        self.links.read().get(&canonical(a, b)).cloned()
    }

    /// All managed links.
    pub fn links(&self) -> Vec<(DomainId, DomainId)> {
        self.links.read().keys().copied().collect()
    }

    /// Number of managed links.
    pub fn len(&self) -> usize {
        self.links.read().len()
    }

    /// Whether no links are managed.
    pub fn is_empty(&self) -> bool {
        self.links.read().is_empty()
    }
}

impl Default for NetworkDirectory {
    fn default() -> Self {
        NetworkDirectory { links: RwLock::new(BTreeMap::new()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::SimDuration;
    use legion_fabric::DomainTopology;

    #[test]
    fn for_fabric_covers_all_pairs() {
        let fabric = Fabric::new(
            DomainTopology::uniform(4, SimDuration::from_micros(1), SimDuration::from_millis(1)),
            3,
        );
        let dir = NetworkDirectory::for_fabric(&fabric, 100, 9);
        assert_eq!(dir.len(), 6); // C(4,2)
        assert!(dir.lookup(DomainId(2), DomainId(0)).is_some());
        assert!(dir.lookup(DomainId(0), DomainId(2)).is_some());
        // Both orders resolve to the same object.
        let a = dir.lookup(DomainId(1), DomainId(3)).unwrap();
        let b = dir.lookup(DomainId(3), DomainId(1)).unwrap();
        assert_eq!(a.loid(), b.loid());
    }

    #[test]
    fn unknown_links_are_none() {
        let dir = NetworkDirectory::new();
        assert!(dir.lookup(DomainId(0), DomainId(1)).is_none());
        assert!(dir.is_empty());
    }
}
