//! The standard in-memory vault.

use legion_core::{
    AttributeDb, AttrValue, LegionError, Loid, LoidKind, Opr, StorageStats, VaultObject,
};
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Static configuration of a [`StandardVault`].
#[derive(Debug, Clone)]
pub struct VaultConfig {
    /// Human-readable name.
    pub name: String,
    /// Administrative domain the vault lives in.
    pub domain: String,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Cost per stored byte, in millicents (a future differentiator the
    /// paper names; zero means free).
    pub cost_per_byte: u64,
    /// Host domains this vault accepts OPRs from; empty = all.
    pub accepted_domains: Vec<String>,
    /// Host architectures whose OPR formats this vault understands;
    /// empty = all.
    pub accepted_arches: Vec<String>,
}

impl Default for VaultConfig {
    fn default() -> Self {
        VaultConfig {
            name: "vault".into(),
            domain: "dom0".into(),
            capacity_bytes: 1 << 30,
            cost_per_byte: 0,
            accepted_domains: Vec::new(),
            accepted_arches: Vec::new(),
        }
    }
}

/// In-memory vault with capacity accounting and admission rules.
#[derive(Debug)]
pub struct StandardVault {
    loid: Loid,
    config: VaultConfig,
    store: RwLock<Store>,
}

#[derive(Debug, Default)]
struct Store {
    oprs: BTreeMap<Loid, Opr>,
    used_bytes: u64,
}

impl StandardVault {
    /// Creates the vault `loid` from configuration.
    pub fn new(loid: Loid, config: VaultConfig) -> Self {
        assert_eq!(loid.kind, LoidKind::Vault, "vault LOID must have vault kind");
        StandardVault { loid, config, store: RwLock::new(Store::default()) }
    }

    /// The vault's configuration.
    pub fn config(&self) -> &VaultConfig {
        &self.config
    }
}

impl VaultObject for StandardVault {
    fn loid(&self) -> Loid {
        self.loid
    }

    fn attributes(&self) -> AttributeDb {
        let s = self.storage();
        AttributeDb::new()
            .with("vault_name", self.config.name.as_str())
            .with("vault_domain", self.config.domain.as_str())
            .with("vault_capacity_bytes", self.config.capacity_bytes as i64)
            .with("vault_free_bytes", s.free_bytes() as i64)
            .with("vault_cost_per_byte", self.config.cost_per_byte as i64)
            .with("vault_opr_count", s.opr_count as i64)
            .with(
                "vault_accepted_domains",
                AttrValue::List(
                    self.config.accepted_domains.iter().map(|d| d.as_str().into()).collect(),
                ),
            )
    }

    fn store_opr(&self, opr: Opr) -> Result<(), LegionError> {
        let mut s = self.store.write();
        let new_size = opr.size_bytes() as u64;
        let old_size = s.oprs.get(&opr.object).map(|o| o.size_bytes() as u64).unwrap_or(0);
        // Refuse stale writes: a racing migration must not clobber newer
        // state with an older OPR version.
        if let Some(existing) = s.oprs.get(&opr.object) {
            if existing.version > opr.version {
                return Err(LegionError::Serialization(format!(
                    "stale OPR write for {} (have v{}, got v{})",
                    opr.object, existing.version, opr.version
                )));
            }
        }
        let projected = s.used_bytes - old_size + new_size;
        if projected > self.config.capacity_bytes {
            return Err(LegionError::VaultFull(self.loid));
        }
        s.used_bytes = projected;
        s.oprs.insert(opr.object, opr);
        Ok(())
    }

    fn fetch_opr(&self, object: Loid) -> Result<Opr, LegionError> {
        self.store.read().oprs.get(&object).cloned().ok_or(LegionError::NoSuchOpr(object))
    }

    fn delete_opr(&self, object: Loid) -> Result<(), LegionError> {
        let mut s = self.store.write();
        match s.oprs.remove(&object) {
            Some(o) => {
                s.used_bytes -= o.size_bytes() as u64;
                Ok(())
            }
            None => Err(LegionError::NoSuchOpr(object)),
        }
    }

    fn holds(&self, object: Loid) -> bool {
        self.store.read().oprs.contains_key(&object)
    }

    fn compatible_with_host(&self, host_attrs: &AttributeDb) -> bool {
        use legion_core::host::well_known;
        if !self.config.accepted_domains.is_empty() {
            let host_domain = host_attrs.get_str(well_known::DOMAIN).unwrap_or("");
            if !self.config.accepted_domains.iter().any(|d| d == host_domain) {
                return false;
            }
        }
        if !self.config.accepted_arches.is_empty() {
            let host_arch = host_attrs.get_str(well_known::ARCH).unwrap_or("");
            if !self.config.accepted_arches.iter().any(|a| a == host_arch) {
                return false;
            }
        }
        true
    }

    fn storage(&self) -> StorageStats {
        let s = self.store.read();
        StorageStats {
            capacity_bytes: self.config.capacity_bytes,
            used_bytes: s.used_bytes,
            opr_count: s.oprs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::host::well_known;
    use legion_core::SimTime;

    fn vault(config: VaultConfig) -> StandardVault {
        StandardVault::new(Loid::synthetic(LoidKind::Vault, 1), config)
    }

    fn opr(seq: u64, size: usize) -> Opr {
        Opr::new(
            Loid::synthetic(LoidKind::Instance, seq),
            Loid::synthetic(LoidKind::Class, 1),
            SimTime::ZERO,
            vec![0u8; size],
        )
    }

    #[test]
    fn store_fetch_delete_roundtrip() {
        let v = vault(VaultConfig::default());
        let o = opr(1, 100);
        v.store_opr(o.clone()).unwrap();
        assert!(v.holds(o.object));
        assert_eq!(v.fetch_opr(o.object).unwrap(), o);
        assert_eq!(v.storage().used_bytes, 100);
        v.delete_opr(o.object).unwrap();
        assert!(!v.holds(o.object));
        assert_eq!(v.storage().used_bytes, 0);
        assert!(matches!(v.fetch_opr(o.object), Err(LegionError::NoSuchOpr(_))));
    }

    #[test]
    fn capacity_enforced() {
        let v = vault(VaultConfig { capacity_bytes: 150, ..Default::default() });
        v.store_opr(opr(1, 100)).unwrap();
        assert!(matches!(v.store_opr(opr(2, 100)), Err(LegionError::VaultFull(_))));
        // Overwrite of the same object only charges the delta.
        let bigger = opr(1, 140);
        v.store_opr(bigger).unwrap();
        assert_eq!(v.storage().used_bytes, 140);
    }

    #[test]
    fn stale_version_rejected() {
        let v = vault(VaultConfig::default());
        let o1 = opr(1, 10);
        let o2 = o1.resaved(SimTime::from_secs(1), vec![0u8; 10]);
        v.store_opr(o2.clone()).unwrap();
        assert!(matches!(v.store_opr(o1), Err(LegionError::Serialization(_))));
        // Same version (idempotent re-store) is fine.
        v.store_opr(o2).unwrap();
    }

    #[test]
    fn domain_compatibility() {
        let v = vault(VaultConfig {
            accepted_domains: vec!["uva.edu".into()],
            ..Default::default()
        });
        let uva = AttributeDb::new().with(well_known::DOMAIN, "uva.edu");
        let sdsc = AttributeDb::new().with(well_known::DOMAIN, "sdsc.edu");
        assert!(v.compatible_with_host(&uva));
        assert!(!v.compatible_with_host(&sdsc));
        // Open vault accepts everyone.
        let open = vault(VaultConfig::default());
        assert!(open.compatible_with_host(&sdsc));
    }

    #[test]
    fn arch_compatibility() {
        let v = vault(VaultConfig {
            accepted_arches: vec!["mips".into(), "sparc".into()],
            ..Default::default()
        });
        let mips = AttributeDb::new().with(well_known::ARCH, "mips");
        let x86 = AttributeDb::new().with(well_known::ARCH, "x86");
        assert!(v.compatible_with_host(&mips));
        assert!(!v.compatible_with_host(&x86));
    }

    #[test]
    fn attributes_reflect_state() {
        let v = vault(VaultConfig {
            name: "v0".into(),
            capacity_bytes: 1000,
            ..Default::default()
        });
        v.store_opr(opr(1, 250)).unwrap();
        let a = v.attributes();
        assert_eq!(a.get_str("vault_name"), Some("v0"));
        assert_eq!(a.get_i64("vault_free_bytes"), Some(750));
        assert_eq!(a.get_i64("vault_opr_count"), Some(1));
    }

    #[test]
    #[should_panic(expected = "vault LOID")]
    fn wrong_kind_loid_panics() {
        StandardVault::new(Loid::synthetic(LoidKind::Host, 1), VaultConfig::default());
    }
}
