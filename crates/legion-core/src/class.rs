//! Class objects — active managers of their instances.
//!
//! "Class objects in Legion serve two functions. As in other
//! object-oriented systems, Classes define the types of their instances.
//! In Legion, Classes are also active entities, and act as managers for
//! their instances. Thus, a Class is the final authority in matters
//! pertaining to its instances, including object placement. The Class
//! exports the `create_instance()` method, which is responsible for
//! placing an instance on a viable host. `create_instance` takes an
//! optional argument suggesting a placement, which is necessary to
//! implement external Schedulers. In the absence of this argument, the
//! Class makes a quick (and almost certainly non-optimal) placement
//! decision." (§2.1)
//!
//! "The Class object is still responsible for checking the placement for
//! validity and conformance to local policy, but the Class does not have
//! to go through the standard placement steps." (§3.4)

use crate::attrs::AttributeDb;
use crate::error::LegionError;
use crate::host::{HostObject, ObjectSpec};
use crate::loid::{Loid, LoidKind};
use crate::request::ObjectImplementation;
use crate::reservation::{ReservationRequest, ReservationToken};
use crate::time::{SimDuration, SimTime};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A directed placement handed to `create_instance()` by an Enactor:
/// the (Host, Vault) pair plus the reservation token that backs it.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Target host.
    pub host: Loid,
    /// Vault for the instance's OPR.
    pub vault: Loid,
    /// Reservation granted by the host.
    pub token: ReservationToken,
}

/// Resolution context a class uses to reach hosts.
///
/// The fabric implements this; classes stay independent of the fabric
/// crate so alternative runtimes can be substituted.
pub trait PlacementContext: Send + Sync {
    /// Resolves a host LOID to a live host object.
    fn lookup_host(&self, loid: Loid) -> Option<Arc<dyn HostObject>>;

    /// All host LOIDs visible to the caller (for default placement).
    fn host_loids(&self) -> Vec<Loid>;

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Names a new object from the run's LOID minter.
    fn mint(&self, kind: LoidKind) -> Loid;
}

/// Static description of a class, readable by Schedulers (§3.3):
/// "any Scheduler may query the object classes to determine such
/// information (e.g., the available implementations, or memory or
/// communication requirements)".
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class's identifier.
    pub class: Loid,
    /// Class name.
    pub name: String,
    /// Available implementations.
    pub implementations: Vec<ObjectImplementation>,
    /// Expected memory per instance (MB).
    pub memory_mb: u32,
    /// Expected CPU demand per instance (hundredths of a CPU).
    pub cpu_centis: u32,
    /// Expected bytes exchanged with each communication peer per
    /// compute/communicate cycle (0 for embarrassingly parallel work).
    pub comm_bytes_per_cycle: u64,
}

/// The Class object interface.
pub trait ClassObject: Send + Sync {
    /// This class's identifier.
    fn loid(&self) -> Loid;

    /// Scheduler-readable description of the class.
    fn report(&self) -> ClassReport;

    /// Creates an instance.
    ///
    /// With `placement: Some(..)` the class validates the directed
    /// placement (token integrity is checked by the host) and starts the
    /// object there. With `None`, the class makes its own quick placement
    /// decision — the pre-1.5 default behaviour.
    fn create_instance(
        &self,
        placement: Option<Placement>,
        ctx: &dyn PlacementContext,
    ) -> Result<Loid, LegionError>;

    /// Destroys an instance wherever it runs.
    fn destroy_instance(&self, instance: Loid, ctx: &dyn PlacementContext)
        -> Result<(), LegionError>;

    /// Instances currently managed by this class, with their hosts.
    fn instances(&self) -> Vec<(Loid, Loid)>;

    /// Records that `instance` now runs on `host` (migration bookkeeping;
    /// the Class is the final authority on its instances' placement).
    fn note_instance_location(&self, instance: Loid, host: Loid);
}

/// The stock class implementation.
#[derive(Debug)]
pub struct LegionClass {
    loid: Loid,
    name: String,
    implementations: Vec<ObjectImplementation>,
    memory_mb: u32,
    cpu_centis: u32,
    comm_bytes_per_cycle: u64,
    default_duration: SimDuration,
    /// instance → host
    instances: RwLock<BTreeMap<Loid, Loid>>,
}

impl LegionClass {
    /// Creates the class `loid` with the given name and implementations.
    pub fn new(
        loid: Loid,
        name: impl Into<String>,
        implementations: Vec<ObjectImplementation>,
    ) -> Self {
        LegionClass {
            loid,
            name: name.into(),
            implementations,
            memory_mb: 64,
            cpu_centis: 100,
            comm_bytes_per_cycle: 0,
            default_duration: SimDuration::from_secs(3600),
            instances: RwLock::new(BTreeMap::new()),
        }
    }

    /// Builder: expected per-instance resource demand.
    pub fn with_demand(mut self, cpu_centis: u32, memory_mb: u32) -> Self {
        self.cpu_centis = cpu_centis;
        self.memory_mb = memory_mb;
        self
    }

    /// Builder: expected communication volume per cycle.
    pub fn with_comm(mut self, bytes_per_cycle: u64) -> Self {
        self.comm_bytes_per_cycle = bytes_per_cycle;
        self
    }

    /// Builder: default reservation duration for self-made placements.
    pub fn with_default_duration(mut self, d: SimDuration) -> Self {
        self.default_duration = d;
        self
    }

    /// Whether any implementation runs on a host with these attributes.
    pub fn has_implementation_for(&self, host_attrs: &AttributeDb) -> bool {
        self.implementation_for(host_attrs).is_some()
    }

    /// Selects the implementation to run on a host with these attributes
    /// — "this mapping process may also select from among the available
    /// implementations" (§3.3). First match wins (implementations are in
    /// preference order).
    pub fn implementation_for(&self, host_attrs: &AttributeDb) -> Option<ObjectImplementation> {
        let arch = host_attrs.get_str(crate::host::well_known::ARCH).unwrap_or("");
        let os = host_attrs.get_str(crate::host::well_known::OS_NAME).unwrap_or("");
        self.implementations.iter().find(|i| i.runs_on(arch, os)).cloned()
    }

    /// The quick, "almost certainly non-optimal" default placement: walk
    /// the context's hosts in order, take the first that grants a
    /// reservation for a compatible vault.
    fn quick_placement(&self, ctx: &dyn PlacementContext) -> Result<Placement, LegionError> {
        let now = ctx.now();
        for hloid in ctx.host_loids() {
            let Some(host) = ctx.lookup_host(hloid) else { continue };
            if !self.has_implementation_for(&host.attributes()) {
                continue;
            }
            let Some(vault) = host.get_compatible_vaults().into_iter().next() else {
                continue;
            };
            let req = ReservationRequest::instantaneous(self.loid, vault, self.default_duration)
                .with_demand(self.cpu_centis, self.memory_mb);
            match host.make_reservation(&req, now) {
                Ok(token) => return Ok(Placement { host: hloid, vault, token }),
                Err(e) if e.is_retryable() => continue,
                Err(e) => return Err(e),
            }
        }
        Err(LegionError::NoUsableImplementation { class: self.loid })
    }
}

impl ClassObject for LegionClass {
    fn loid(&self) -> Loid {
        self.loid
    }

    fn report(&self) -> ClassReport {
        ClassReport {
            class: self.loid,
            name: self.name.clone(),
            implementations: self.implementations.clone(),
            memory_mb: self.memory_mb,
            cpu_centis: self.cpu_centis,
            comm_bytes_per_cycle: self.comm_bytes_per_cycle,
        }
    }

    fn create_instance(
        &self,
        placement: Option<Placement>,
        ctx: &dyn PlacementContext,
    ) -> Result<Loid, LegionError> {
        let placement = match placement {
            Some(p) => {
                // Validity check: the token must name this class and the
                // host named in the placement.
                if p.token.class != self.loid {
                    return Err(LegionError::MalformedSchedule(format!(
                        "token is for class {}, not {}",
                        p.token.class, self.loid
                    )));
                }
                if p.token.host != p.host {
                    return Err(LegionError::MalformedSchedule(
                        "token host does not match placement host".into(),
                    ));
                }
                p
            }
            None => self.quick_placement(ctx)?,
        };

        let host =
            ctx.lookup_host(placement.host).ok_or(LegionError::NoSuchHost(placement.host))?;
        // Select the implementation for the target platform (§3.3).
        let implementation = self.implementation_for(&host.attributes());
        if implementation.is_none() && !self.implementations.is_empty() {
            return Err(LegionError::NoUsableImplementation { class: self.loid });
        }
        let spec = ObjectSpec {
            memory_mb: self.memory_mb,
            implementation,
            ..ObjectSpec::new(self.loid, ctx.mint(LoidKind::Instance))
        };
        let started = host.start_object(&placement.token, std::slice::from_ref(&spec), ctx.now())?;
        let instance = *started.first().ok_or_else(|| {
            LegionError::Other("host reported success but started no objects".into())
        })?;
        self.instances.write().insert(instance, placement.host);
        Ok(instance)
    }

    fn destroy_instance(
        &self,
        instance: Loid,
        ctx: &dyn PlacementContext,
    ) -> Result<(), LegionError> {
        let host_loid = self
            .instances
            .read()
            .get(&instance)
            .copied()
            .ok_or(LegionError::NoSuchObject(instance))?;
        let host = ctx.lookup_host(host_loid).ok_or(LegionError::NoSuchHost(host_loid))?;
        host.kill_object(instance)?;
        self.instances.write().remove(&instance);
        Ok(())
    }

    fn instances(&self) -> Vec<(Loid, Loid)> {
        self.instances.read().iter().map(|(&i, &h)| (i, h)).collect()
    }

    fn note_instance_location(&self, instance: Loid, host: Loid) {
        self.instances.write().insert(instance, host);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(name: &str, implementations: Vec<ObjectImplementation>) -> LegionClass {
        LegionClass::new(Loid::synthetic(LoidKind::Class, 1), name, implementations)
    }

    #[test]
    fn report_carries_demand() {
        let c = class("stencil", vec![ObjectImplementation::new("mips", "IRIX")])
            .with_demand(200, 256)
            .with_comm(4096);
        let r = c.report();
        assert_eq!(r.name, "stencil");
        assert_eq!(r.cpu_centis, 200);
        assert_eq!(r.memory_mb, 256);
        assert_eq!(r.comm_bytes_per_cycle, 4096);
        assert_eq!(r.implementations.len(), 1);
    }

    #[test]
    fn implementation_match_uses_host_attrs() {
        let c = class("x", vec![ObjectImplementation::new("mips", "IRIX")]);
        let yes = AttributeDb::new()
            .with(crate::host::well_known::ARCH, "mips")
            .with(crate::host::well_known::OS_NAME, "IRIX");
        let no = AttributeDb::new()
            .with(crate::host::well_known::ARCH, "x86")
            .with(crate::host::well_known::OS_NAME, "Linux");
        assert!(c.has_implementation_for(&yes));
        assert!(!c.has_implementation_for(&no));
    }

    #[test]
    fn location_bookkeeping() {
        let c = class("x", vec![]);
        let i = Loid::synthetic(LoidKind::Instance, 1);
        let h1 = Loid::synthetic(LoidKind::Host, 1);
        let h2 = Loid::synthetic(LoidKind::Host, 2);
        c.note_instance_location(i, h1);
        assert_eq!(c.instances(), vec![(i, h1)]);
        c.note_instance_location(i, h2);
        assert_eq!(c.instances(), vec![(i, h2)]);
    }
}
