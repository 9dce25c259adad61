//! Monitor + migration integration tests.

use legion_core::{
    ClassObject, HostObject, LegionClass, LegionError, Loid, LoidKind, ObjectImplementation,
    ObjectSpec, Opr, ReservationRequest, SimDuration, SimTime, VaultDirectory, VaultObject,
};
use legion_fabric::{DomainId, DomainTopology, Fabric};
use legion_hosts::{BackgroundLoad, HostConfig, StandardHost};
use legion_monitor::{
    migrate_object, MigrateDisposition, MigrateFailure, Monitor, Rebalancer, Watchdog,
};
use legion_schedule::FailureClass;
use legion_vaults::{StandardVault, VaultConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct World {
    fabric: Arc<Fabric>,
    hosts: Vec<Arc<StandardHost>>,
    vaults: Vec<Loid>,
    class: Loid,
}

/// Two hosts in separate domains with *domain-restricted* vaults, so a
/// migration between them must move the OPR between vaults.
fn split_world() -> World {
    let fabric = Fabric::new(
        DomainTopology::uniform(2, SimDuration::from_micros(50), SimDuration::from_millis(20)),
        5,
    );
    let mut vaults = Vec::new();
    let mut hosts = Vec::new();
    for d in 0..2u16 {
        let domain_name = format!("site{d}.edu");
        let v = Arc::new(StandardVault::new(fabric.mint(LoidKind::Vault), VaultConfig {
            name: format!("vault{d}"),
            domain: domain_name.clone(),
            accepted_domains: vec![domain_name.clone()],
            ..Default::default()
        }));
        vaults.push(v.loid());
        fabric.register_vault(v, DomainId(d));
        let h = StandardHost::new(
            fabric.mint(LoidKind::Host),
            HostConfig::unix(format!("h{d}"), domain_name),
            fabric.clone(),
            10 + d as u64,
        );
        h.set_metrics(Arc::clone(fabric.metrics()));
        fabric.register_host(Arc::clone(&h) as Arc<dyn HostObject>, DomainId(d));
        hosts.push(h);
    }
    let class = Arc::new(LegionClass::new(
        fabric.mint(LoidKind::Class),
        "app",
        vec![ObjectImplementation::new("mips", "IRIX")],
    ));
    let class_loid = class.loid();
    fabric.register_class(class);
    World { fabric, hosts, vaults, class: class_loid }
}

/// Starts one object on host `idx` and returns its LOID.
fn start_object(w: &World, idx: usize) -> Loid {
    let h = &w.hosts[idx];
    let vault = h.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(w.class, vault, SimDuration::from_secs(7200))
        .with_demand(50, 64);
    let tok = h.make_reservation(&req, w.fabric.clock().now()).unwrap();
    let mut spec = ObjectSpec::new(w.class, w.fabric.mint(LoidKind::Instance));
    spec.initial_state = b"application checkpoint state".to_vec();
    let started = h.start_object(&tok, &[spec], w.fabric.clock().now()).unwrap();
    let obj = started[0];
    if let Some(c) = w.fabric.lookup_class(w.class) {
        c.note_instance_location(obj, h.loid());
    }
    obj
}

#[test]
fn migration_moves_object_and_opr_across_vaults() {
    let w = split_world();
    let obj = start_object(&w, 0);
    assert_eq!(w.hosts[0].running_objects(), vec![obj]);

    let rec =
        migrate_object(&w.fabric, obj, w.hosts[0].loid(), w.hosts[1].loid()).unwrap();

    // The object now runs on host 1 only.
    assert!(w.hosts[0].running_objects().is_empty());
    assert_eq!(w.hosts[1].running_objects(), vec![obj]);
    // The OPR moved into the destination's (domain-restricted) vault.
    assert_eq!(rec.via_vault, w.vaults[1]);
    let v0 = w.fabric.lookup_vault(w.vaults[0]).unwrap();
    let v1 = w.fabric.lookup_vault(w.vaults[1]).unwrap();
    assert!(!v0.holds(obj));
    assert!(v1.holds(obj));
    // State travelled with it.
    assert_eq!(&v1.fetch_opr(obj).unwrap().state[..], b"application checkpoint state");
    // The class knows the new location.
    let class = w.fabric.lookup_class(w.class).unwrap();
    assert_eq!(class.instances(), vec![(obj, w.hosts[1].loid())]);
    // The ledger counted it.
    assert_eq!(w.fabric.metrics().snapshot().migrations, 1);
}

#[test]
fn migration_failure_rolls_back() {
    let w = split_world();
    let obj = start_object(&w, 0);
    // Make the destination incapable: fill its memory with a hog object.
    let hog = start_hog(&w, 1, 512);
    assert!(w.hosts[1].running_objects().contains(&hog));

    let err = migrate_object(&w.fabric, obj, w.hosts[0].loid(), w.hosts[1].loid());
    assert!(err.is_err());
    // The object is back home and runnable.
    assert_eq!(w.hosts[0].running_objects(), vec![obj]);
    assert_eq!(w.fabric.metrics().snapshot().migrations, 0);
}

fn start_hog(w: &World, idx: usize, mem: u32) -> Loid {
    let h = &w.hosts[idx];
    let vault = h.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(w.class, vault, SimDuration::from_secs(7200))
        .with_demand(10, mem);
    let tok = h.make_reservation(&req, w.fabric.clock().now()).unwrap();
    let mut spec = ObjectSpec::new(w.class, w.fabric.mint(LoidKind::Instance));
    spec.memory_mb = mem;
    h.start_object(&tok, &[spec], w.fabric.clock().now()).unwrap()[0]
}

#[test]
fn monitor_receives_trigger_events() {
    let w = split_world();
    let monitor = Monitor::new();
    let host_dyn: Arc<dyn HostObject> = Arc::clone(&w.hosts[0]) as Arc<dyn HostObject>;
    monitor.watch_load(&host_dyn, 0.8);
    assert_eq!(monitor.watched().len(), 1);

    // Below threshold: nothing.
    w.hosts[0].set_background_load(BackgroundLoad::steady(0.2));
    w.hosts[0].reassess(w.fabric.clock().now());
    assert_eq!(monitor.pending(), 0);

    // Spike: the trigger fires and the outcall delivers.
    w.hosts[0].set_background_load(BackgroundLoad::steady(2.5));
    let now = w.fabric.clock().advance(SimDuration::from_secs(30));
    w.hosts[0].reassess(now);
    let events = monitor.drain_events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].source, w.hosts[0].loid());
    assert!(events[0].detail.get_f64("host_load").unwrap() > 0.8);

    // Cooldown: an immediate re-assessment does not re-fire.
    w.hosts[0].reassess(now);
    assert_eq!(monitor.pending(), 0);
    // After the cooldown it fires again.
    let later = w.fabric.clock().advance(SimDuration::from_secs(30));
    w.hosts[0].reassess(later);
    assert_eq!(monitor.pending(), 1);
}

#[test]
fn rebalancer_migrates_off_overloaded_host() {
    let w = split_world();
    let obj = start_object(&w, 0);

    let rb = Rebalancer::new(w.fabric.clone());
    rb.watch_all(0.9);

    // Overload host 0; host 1 stays idle.
    w.hosts[0].set_background_load(BackgroundLoad::steady(3.0));
    w.hosts[1].set_background_load(BackgroundLoad::steady(0.1));
    let now = w.fabric.clock().advance(SimDuration::from_secs(60));
    for h in &w.hosts {
        h.reassess(now);
    }

    let migrations = rb.rebalance_once();
    assert_eq!(migrations.len(), 1);
    assert_eq!(migrations[0].object, obj);
    assert_eq!(migrations[0].to, w.hosts[1].loid());
    assert_eq!(w.hosts[1].running_objects(), vec![obj]);

    // A second round with no pending events does nothing.
    assert!(rb.rebalance_once().is_empty());
}

#[test]
fn rebalancer_refuses_hot_targets() {
    let w = split_world();
    start_object(&w, 0);
    let rb = Rebalancer::new(w.fabric.clone());
    rb.watch_all(0.9);

    // Both hosts overloaded: no safe target, no migration.
    for h in &w.hosts {
        h.set_background_load(BackgroundLoad::steady(3.0));
    }
    let now = w.fabric.clock().advance(SimDuration::from_secs(60));
    for h in &w.hosts {
        h.reassess(now);
    }
    assert!(rb.rebalance_once().is_empty());
    assert_eq!(w.hosts[0].running_objects().len(), 1, "object stays put");
}

#[test]
fn shutdown_drains_every_object() {
    // An administrator takes host 0 down; the Monitor's trigger fires on
    // each reassessment and the Rebalancer evacuates everything, never
    // targeting another draining host.
    let w = split_world();
    // Two half-CPU objects fill the host exactly.
    let objs: Vec<Loid> = (0..2).map(|_| start_object(&w, 0)).collect();
    assert_eq!(w.hosts[0].running_objects().len(), 2);

    let rb = Rebalancer::new(w.fabric.clone());
    rb.watch_all(99.0); // load trigger effectively disabled
    w.hosts[0].begin_shutdown();
    assert!(w.hosts[0].is_draining());

    // Draining hosts refuse new reservations immediately.
    let vault = w.hosts[0].get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(w.class, vault, SimDuration::from_secs(60));
    assert!(matches!(
        w.hosts[0].make_reservation(&req, w.fabric.clock().now()),
        Err(legion_core::LegionError::PolicyRefused { .. })
    ));

    let mut moved = 0;
    for _ in 0..4 {
        let now = w.fabric.clock().advance(SimDuration::from_secs(30));
        for h in &w.hosts {
            h.reassess(now);
        }
        moved += rb.rebalance_once().len();
    }
    assert_eq!(moved, 2, "all objects drained");
    assert!(w.hosts[0].running_objects().is_empty());
    for o in objs {
        assert!(w.hosts[1].running_objects().contains(&o));
    }
    // Once empty, reassessment stops raising shutdown events.
    let now = w.fabric.clock().advance(SimDuration::from_secs(30));
    let events = w.hosts[0].reassess(now);
    assert!(events.is_empty());
}

#[test]
fn migration_errors_are_typed() {
    let w = split_world();
    let obj = start_object(&w, 0);
    let ghost = w.fabric.mint(LoidKind::Host);

    // Unknown source.
    let err = migrate_object(&w.fabric, obj, ghost, w.hosts[1].loid()).unwrap_err();
    assert!(matches!(err.failure, MigrateFailure::SourceDown(h) if h == ghost));
    assert_eq!(err.disposition, MigrateDisposition::Untouched);
    assert_eq!(err.failure_class(), FailureClass::HostDown);
    assert!(err.is_transient());

    // Unknown target.
    let err = migrate_object(&w.fabric, obj, w.hosts[0].loid(), ghost).unwrap_err();
    assert!(matches!(err.failure, MigrateFailure::TargetDown(h) if h == ghost));
    assert!(err.target_side());
    assert!(!err.wasted_work());

    // No vault holds passive state for a never-checkpointed LOID.
    let unknown_obj = w.fabric.mint(LoidKind::Instance);
    let err = migrate_object(&w.fabric, unknown_obj, w.hosts[0].loid(), w.hosts[1].loid())
        .unwrap_err();
    assert!(matches!(err.failure, MigrateFailure::OprMissing(o) if o == unknown_obj));
    assert_eq!(err.failure_class(), FailureClass::Infrastructure);

    // A refused admission reservation names the refusing host and
    // leaves the object untouched — zero disruption.
    let _hog = start_hog(&w, 1, 512);
    let err = migrate_object(&w.fabric, obj, w.hosts[0].loid(), w.hosts[1].loid()).unwrap_err();
    assert!(
        matches!(err.failure, MigrateFailure::ReservationRefused { host, .. }
            if host == w.hosts[1].loid()),
        "expected ReservationRefused, got: {err}"
    );
    assert_eq!(err.disposition, MigrateDisposition::Untouched);
    assert_eq!(err.failure_class(), FailureClass::ResourceUnavailable);
    assert!(err.target_side());
    assert!(!err.wasted_work(), "refusal must cost no deactivation round trip");
    assert_eq!(w.hosts[0].running_objects(), vec![obj]);
}

/// A delegating host wrapper that fail-stops its inner host at a chosen
/// point in the migration sequence — the only way to crash a host
/// *between* two steps of one `migrate_object` call.
struct SabotagedHost {
    inner: Arc<StandardHost>,
    /// Crash the host immediately after a successful deactivation (the
    /// source dying with the object's state already in the vault).
    crash_after_deactivate: AtomicBool,
    /// Crash the host when reactivation is attempted (the target dying
    /// mid-flight, after granting admission).
    crash_on_reactivate: AtomicBool,
}

impl SabotagedHost {
    fn new(inner: Arc<StandardHost>) -> Arc<Self> {
        Arc::new(SabotagedHost {
            inner,
            crash_after_deactivate: AtomicBool::new(false),
            crash_on_reactivate: AtomicBool::new(false),
        })
    }
}

impl HostObject for SabotagedHost {
    fn loid(&self) -> Loid {
        self.inner.loid()
    }
    fn make_reservation(
        &self,
        req: &ReservationRequest,
        now: SimTime,
    ) -> Result<legion_core::ReservationToken, LegionError> {
        self.inner.make_reservation(req, now)
    }
    fn check_reservation(
        &self,
        token: &legion_core::ReservationToken,
        now: SimTime,
    ) -> Result<legion_core::ReservationStatus, LegionError> {
        self.inner.check_reservation(token, now)
    }
    fn cancel_reservation(&self, token: &legion_core::ReservationToken) -> Result<(), LegionError> {
        self.inner.cancel_reservation(token)
    }
    fn start_object(
        &self,
        token: &legion_core::ReservationToken,
        specs: &[ObjectSpec],
        now: SimTime,
    ) -> Result<Vec<Loid>, LegionError> {
        self.inner.start_object(token, specs, now)
    }
    fn kill_object(&self, object: Loid) -> Result<(), LegionError> {
        self.inner.kill_object(object)
    }
    fn deactivate_object(&self, object: Loid, now: SimTime) -> Result<Opr, LegionError> {
        let r = self.inner.deactivate_object(object, now);
        if r.is_ok() && self.crash_after_deactivate.swap(false, Ordering::SeqCst) {
            self.inner.crash();
        }
        r
    }
    fn reactivate_object(&self, opr: &Opr, now: SimTime) -> Result<(), LegionError> {
        if self.crash_on_reactivate.swap(false, Ordering::SeqCst) {
            self.inner.crash();
        }
        self.inner.reactivate_object(opr, now)
    }
    fn running_objects(&self) -> Vec<Loid> {
        self.inner.running_objects()
    }
    fn get_compatible_vaults(&self) -> Vec<Loid> {
        self.inner.get_compatible_vaults()
    }
    fn vault_ok(&self, vault: Loid) -> bool {
        self.inner.vault_ok(vault)
    }
    fn attributes(&self) -> legion_core::AttributeDb {
        self.inner.attributes()
    }
    fn crash(&self) {
        self.inner.crash()
    }
    fn restart(&self, now: SimTime) {
        self.inner.restart(now)
    }
    fn is_crashed(&self) -> bool {
        self.inner.is_crashed()
    }
    fn probe(&self, now: SimTime) -> Result<(), LegionError> {
        self.inner.probe(now)
    }
    fn register_trigger(&self, trigger: legion_core::Trigger) -> legion_core::TriggerId {
        self.inner.register_trigger(trigger)
    }
    fn remove_trigger(&self, id: legion_core::TriggerId) {
        self.inner.remove_trigger(id)
    }
    fn register_outcall(&self, outcall: Arc<dyn legion_core::Outcall>) {
        self.inner.register_outcall(outcall)
    }
    fn reassess(&self, now: SimTime) -> Vec<legion_core::Event> {
        self.inner.reassess(now)
    }
}

#[test]
fn mid_migration_target_crash_watchdog_restarts_on_third_host() {
    // Satellite: the target host dies after granting admission but
    // before reactivation, and the source dies right after handing its
    // state to the vault. The object must neither be lost nor
    // duplicated: the Watchdog restarts it from its OPR on the third
    // host, and exactly one live instance exists afterwards.
    let fabric = Fabric::new(
        DomainTopology::uniform(1, SimDuration::from_micros(50), SimDuration::from_millis(20)),
        23,
    );
    let vault = Arc::new(StandardVault::new(fabric.mint(LoidKind::Vault), VaultConfig {
        name: "shared".into(),
        domain: "site0.edu".into(),
        accepted_domains: vec!["site0.edu".into()],
        ..Default::default()
    }));
    let vault_loid = vault.loid();
    fabric.register_vault(vault, DomainId(0));
    let mut inners = Vec::new();
    let mut wrapped = Vec::new();
    for i in 0..3u64 {
        let h = StandardHost::new(
            fabric.mint(LoidKind::Host),
            HostConfig::unix(format!("h{i}"), "site0.edu"),
            fabric.clone(),
            40 + i,
        );
        h.set_metrics(Arc::clone(fabric.metrics()));
        let w = SabotagedHost::new(Arc::clone(&h));
        fabric.register_host(Arc::clone(&w) as Arc<dyn HostObject>, DomainId(0));
        inners.push(h);
        wrapped.push(w);
    }
    let class = Arc::new(LegionClass::new(
        fabric.mint(LoidKind::Class),
        "app",
        vec![ObjectImplementation::new("mips", "IRIX")],
    ));
    let class_loid = class.loid();
    fabric.register_class(Arc::clone(&class) as Arc<dyn ClassObject>);

    // Start the object on host 0.
    let req = ReservationRequest::instantaneous(class_loid, vault_loid, SimDuration::from_secs(7200))
        .with_demand(50, 64);
    let tok = inners[0].make_reservation(&req, fabric.clock().now()).unwrap();
    let mut spec = ObjectSpec::new(class_loid, fabric.mint(LoidKind::Instance));
    spec.initial_state = b"survivor state".to_vec();
    let obj = inners[0].start_object(&tok, &[spec], fabric.clock().now()).unwrap()[0];
    class.note_instance_location(obj, inners[0].loid());

    // Arm the sabotage: source dies after deactivation, target dies at
    // reactivation (admission already granted).
    wrapped[0].crash_after_deactivate.store(true, Ordering::SeqCst);
    wrapped[1].crash_on_reactivate.store(true, Ordering::SeqCst);

    let err = migrate_object(&fabric, obj, inners[0].loid(), inners[1].loid()).unwrap_err();
    assert!(
        matches!(err.failure, MigrateFailure::TargetDown(h) if h == inners[1].loid()),
        "expected TargetDown, got: {err}"
    );
    assert!(
        matches!(err.disposition, MigrateDisposition::StrandedInVault(v) if v == vault_loid),
        "object must rest in the shared vault, got: {err}"
    );
    // Nothing is running anywhere; the OPR is intact.
    assert!(inners.iter().all(|h| h.running_objects().is_empty()));
    let v = fabric.lookup_vault(vault_loid).unwrap();
    assert!(v.holds(obj));

    // The Watchdog declares host 0 dead (the Class still places the
    // object there) and restarts it on the only live host — host 2.
    let wd = Watchdog::new(fabric.clone(), 1);
    let now = fabric.clock().advance(SimDuration::from_secs(30));
    let restarts = wd.patrol(now);
    assert_eq!(restarts.len(), 1, "exactly one restart");
    assert_eq!(restarts[0].object, obj);
    assert_eq!(restarts[0].to, inners[2].loid());

    // Exactly one live instance, on the third host, and the Class
    // agrees — no loss, no duplication.
    let live: usize = inners.iter().map(|h| h.running_objects().len()).sum();
    assert_eq!(live, 1);
    assert_eq!(inners[2].running_objects(), vec![obj]);
    assert_eq!(class.instances(), vec![(obj, inners[2].loid())]);
    // The state survived the double crash.
    assert_eq!(&v.fetch_opr(obj).unwrap().state[..], b"survivor state");
    assert_eq!(fabric.metrics().snapshot().monitor_restarts, 1);

    // A second patrol mints nothing new — no duplicate restart.
    let now = fabric.clock().advance(SimDuration::from_secs(30));
    assert!(wd.patrol(now).is_empty());
    let live: usize = inners.iter().map(|h| h.running_objects().len()).sum();
    assert_eq!(live, 1);
}

#[test]
fn rebalancer_never_targets_draining_hosts() {
    let w = split_world();
    let _obj = start_object(&w, 0);
    // The only other host is itself draining: nothing can move.
    w.hosts[1].begin_shutdown();
    let rb = Rebalancer::new(w.fabric.clone());
    rb.watch_all(1.0);
    w.hosts[0].set_background_load(legion_hosts::BackgroundLoad::steady(3.0));
    let now = w.fabric.clock().advance(SimDuration::from_secs(60));
    for h in &w.hosts {
        h.reassess(now);
    }
    assert!(rb.rebalance_once().is_empty());
    assert_eq!(w.hosts[0].running_objects().len(), 1);
    // Shutdown cancelled: the next round can migrate.
    w.hosts[1].cancel_shutdown();
    let now = w.fabric.clock().advance(SimDuration::from_secs(60));
    for h in &w.hosts {
        h.reassess(now);
    }
    assert_eq!(rb.rebalance_once().len(), 1);
}
