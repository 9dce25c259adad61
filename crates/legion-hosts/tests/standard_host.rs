//! Direct tests of the StandardHost against the Table 1 contract.

use legion_core::host::well_known;
use legion_core::{
    AttributeDb, EventKind, Guard, HostObject, LegionError, Loid, LoidKind, ObjectSpec,
    ReservationRequest, ReservationStatus, SimDuration, SimTime, Trigger, VaultDirectory,
    VaultObject,
};
use legion_hosts::{BackgroundLoad, HostConfig, LoadCeiling, StandardHost};
use legion_vaults::{StandardVault, VaultConfig};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A standalone vault directory for host-level tests.
#[derive(Default)]
struct Dir {
    vaults: RwLock<BTreeMap<Loid, Arc<dyn VaultObject>>>,
}

impl Dir {
    fn add(&self, config: VaultConfig) -> Loid {
        let loid = Loid::synthetic(LoidKind::Vault, self.vaults.read().len() as u64 + 1);
        let v: Arc<dyn VaultObject> = Arc::new(StandardVault::new(loid, config));
        let loid = v.loid();
        self.vaults.write().insert(loid, v);
        loid
    }
}

impl VaultDirectory for Dir {
    fn lookup_vault(&self, loid: Loid) -> Option<Arc<dyn VaultObject>> {
        self.vaults.read().get(&loid).cloned()
    }

    fn vault_loids(&self) -> Vec<Loid> {
        self.vaults.read().keys().copied().collect()
    }
}

fn setup() -> (Arc<Dir>, Arc<StandardHost>, Loid, Loid) {
    let dir = Arc::new(Dir::default());
    let vault = dir.add(VaultConfig::default());
    let host = StandardHost::new(
        Loid::synthetic(LoidKind::Host, 1),
        HostConfig::unix("h0", "uva.edu"),
        Arc::clone(&dir) as Arc<dyn VaultDirectory>,
        11,
    );
    let class = Loid::synthetic(LoidKind::Class, 1);
    (dir, host, vault, class)
}

fn instance(seq: u64) -> Loid {
    Loid::synthetic(LoidKind::Instance, seq)
}

fn req(class: Loid, vault: Loid) -> ReservationRequest {
    ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(600))
        .with_demand(25, 64)
}

#[test]
fn reservation_requires_known_vault() {
    let (_, host, _, class) = setup();
    let ghost = Loid::synthetic(LoidKind::Vault, 99);
    let err = host.make_reservation(&req(class, ghost), SimTime::ZERO);
    assert!(matches!(err, Err(LegionError::VaultUnreachable { .. })));
}

#[test]
fn reservation_requires_compatible_vault() {
    let (dir, host, _, class) = setup();
    // A vault that only accepts hosts in another domain.
    let picky = dir.add(VaultConfig {
        accepted_domains: vec!["elsewhere.org".into()],
        ..Default::default()
    });
    let err = host.make_reservation(&req(class, picky), SimTime::ZERO);
    assert!(matches!(err, Err(LegionError::VaultIncompatible { .. })));
    assert!(!host.vault_ok(picky));
}

#[test]
fn compatible_vaults_reflect_directory_growth() {
    let (dir, host, vault, _) = setup();
    assert_eq!(host.get_compatible_vaults(), vec![vault]);
    let second = dir.add(VaultConfig { name: "v2".into(), ..Default::default() });
    let mut got = host.get_compatible_vaults();
    got.sort();
    let mut want = vec![vault, second];
    want.sort();
    assert_eq!(got, want, "new vaults are discovered without re-registration");
}

#[test]
fn late_vaults_appear_in_attributes_on_next_reassess() {
    // The attribute cache reuses its rendered vault list while the scan
    // is unchanged; a vault registered after the host must still show.
    let (dir, host, vault, _) = setup();
    let listed = |h: &StandardHost| -> Vec<String> {
        h.attributes()
            .get(well_known::COMPATIBLE_VAULTS)
            .and_then(|v| v.as_list())
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(listed(&host), vec![vault.to_string()]);
    let late = dir.add(VaultConfig { name: "late".into(), ..Default::default() });
    host.reassess(SimTime::from_secs(5));
    let mut want = [vault, late];
    want.sort();
    assert_eq!(listed(&host), want.iter().map(Loid::to_string).collect::<Vec<_>>());
}

#[test]
fn start_object_rejects_wrong_class_spec() {
    let (_, host, vault, class) = setup();
    let other = Loid::synthetic(LoidKind::Class, 2);
    let tok = host.make_reservation(&req(class, vault), SimTime::ZERO).unwrap();
    let err = host.start_object(&tok, &[ObjectSpec::new(other, instance(1))], SimTime::ZERO);
    assert!(matches!(err, Err(LegionError::MalformedSchedule(_))));
    // The host names nothing: a spec without an instance LOID is refused.
    let err = host.start_object(&tok, &[ObjectSpec::new(class, Loid::NIL)], SimTime::ZERO);
    assert!(matches!(err, Err(LegionError::MalformedSchedule(_))));
    // The failed starts must not have consumed the one-shot token.
    host.start_object(&tok, &[ObjectSpec::new(class, instance(1))], SimTime::ZERO).unwrap();
}

#[test]
fn start_object_with_empty_specs_fails() {
    let (_, host, vault, class) = setup();
    let tok = host.make_reservation(&req(class, vault), SimTime::ZERO).unwrap();
    assert!(host.start_object(&tok, &[], SimTime::ZERO).is_err());
}

#[test]
fn kill_frees_capacity_and_reservation() {
    let (_, host, vault, class) = setup();
    // Full-machine shared demand.
    let big = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(600))
        .with_demand(100, 256);
    let tok = host.make_reservation(&big, SimTime::ZERO).unwrap();
    let spec = ObjectSpec::new(class, instance(1));
    let obj = host.start_object(&tok, &[spec], SimTime::ZERO).unwrap()[0];
    // No capacity left for another full-CPU request.
    assert!(host.make_reservation(&big, SimTime::from_secs(1)).is_err());
    host.kill_object(obj).unwrap();
    // Early release (the one-shot job ended): capacity is back.
    host.make_reservation(&big, SimTime::from_secs(2)).unwrap();
    assert!(matches!(host.kill_object(obj), Err(LegionError::NoSuchObject(_))));
}

#[test]
fn deactivation_stores_opr_then_removes_object() {
    let (dir, host, vault, class) = setup();
    let tok = host.make_reservation(&req(class, vault), SimTime::ZERO).unwrap();
    let mut spec = ObjectSpec::new(class, instance(1));
    spec.initial_state = b"precious".to_vec();
    spec.memory_mb = 48;
    let obj = host.start_object(&tok, &[spec], SimTime::ZERO).unwrap()[0];

    let opr = host.deactivate_object(obj, SimTime::from_secs(5)).unwrap();
    assert_eq!(&opr.state[..], b"precious");
    assert_eq!(opr.memory_mb, 48);
    assert_eq!(opr.class, class);
    assert!(host.running_objects().is_empty());
    assert!(dir.lookup_vault(vault).unwrap().holds(obj));

    // Reactivation restores it.
    host.reactivate_object(&opr, SimTime::from_secs(6)).unwrap();
    assert_eq!(host.running_objects(), vec![obj]);
}

#[test]
fn deactivation_fails_if_vault_cannot_store() {
    let (dir, host, _, class) = setup();
    // A tiny vault that cannot hold the object's state.
    let tiny = dir.add(VaultConfig { capacity_bytes: 4, ..Default::default() });
    let tok = host
        .make_reservation(&req(class, tiny), SimTime::ZERO)
        .expect("reservation fine");
    let mut spec = ObjectSpec::new(class, instance(1));
    spec.initial_state = vec![0u8; 64];
    let obj = host.start_object(&tok, &[spec], SimTime::ZERO).unwrap()[0];

    let err = host.deactivate_object(obj, SimTime::from_secs(1));
    assert!(matches!(err, Err(LegionError::VaultFull(_))));
    // Crucially, the object still runs — state was never lost.
    assert_eq!(host.running_objects(), vec![obj]);
}

#[test]
fn attributes_track_running_objects_and_memory() {
    let (_, host, vault, class) = setup();
    let before = host.attributes();
    assert_eq!(before.get_i64(well_known::RUNNING_OBJECTS), Some(0));
    let free_before = before.get_i64(well_known::FREE_MEMORY_MB).unwrap();

    let tok = host.make_reservation(&req(class, vault), SimTime::ZERO).unwrap();
    let mut spec = ObjectSpec::new(class, instance(1));
    spec.memory_mb = 100;
    host.start_object(&tok, &[spec], SimTime::ZERO).unwrap();

    let after = host.attributes();
    assert_eq!(after.get_i64(well_known::RUNNING_OBJECTS), Some(1));
    assert_eq!(
        after.get_i64(well_known::FREE_MEMORY_MB),
        Some(free_before - 100)
    );
}

#[test]
fn reassess_updates_load_from_background_model() {
    let (_, host, _, _) = setup();
    host.set_background_load(BackgroundLoad::steady(1.25));
    host.reassess(SimTime::from_secs(30));
    assert_eq!(host.attributes().get_f64(well_known::LOAD), Some(1.25));
}

#[test]
fn policy_chain_applies_in_order_and_denies() {
    let (_, host, vault, class) = setup();
    host.set_background_load(BackgroundLoad::steady(3.0));
    host.reassess(SimTime::ZERO);
    host.add_policy(Arc::new(LoadCeiling { max_load: 2.0 }));
    let err = host.make_reservation(&req(class, vault), SimTime::ZERO);
    match err {
        Err(LegionError::PolicyRefused { policy, .. }) => {
            assert!(policy.starts_with("load-ceiling"), "{policy}");
        }
        other => panic!("expected policy refusal, got {other:?}"),
    }
    // Load drops: the same request is accepted.
    host.set_background_load(BackgroundLoad::steady(0.5));
    host.reassess(SimTime::from_secs(30));
    host.make_reservation(&req(class, vault), SimTime::from_secs(30)).unwrap();
}

#[test]
fn check_reservation_lifecycle() {
    let (_, host, vault, class) = setup();
    let tok = host.make_reservation(&req(class, vault), SimTime::ZERO).unwrap();
    assert_eq!(
        host.check_reservation(&tok, SimTime::ZERO).unwrap(),
        ReservationStatus::Active
    );
    host.start_object(&tok, &[ObjectSpec::new(class, instance(1))], SimTime::from_secs(1)).unwrap();
    assert_eq!(
        host.check_reservation(&tok, SimTime::from_secs(1)).unwrap(),
        ReservationStatus::Consumed
    );
    let tok2 = host.make_reservation(&req(class, vault), SimTime::from_secs(1)).unwrap();
    host.cancel_reservation(&tok2).unwrap();
    assert_eq!(
        host.check_reservation(&tok2, SimTime::from_secs(1)).unwrap(),
        ReservationStatus::Cancelled
    );
}

#[test]
fn trigger_guard_over_custom_attribute_combination() {
    let (_, host, vault, class) = setup();
    let fired = legion_core::rge::CollectingOutcall::new();
    host.register_outcall(Arc::clone(&fired) as Arc<dyn legion_core::Outcall>);
    host.register_trigger(
        Trigger::new(
            Guard::attr_gt(well_known::RUNNING_OBJECTS, 0.0)
                .and(Guard::attr_gt(well_known::LOAD, 1.0)),
            EventKind::Custom("busy-with-guests".into()),
        )
        .with_cooldown(SimDuration::ZERO),
    );

    // Load high but no objects: quiet.
    host.set_background_load(BackgroundLoad::steady(2.0));
    host.reassess(SimTime::from_secs(30));
    assert_eq!(fired.len(), 0);

    // Objects running and load high: fires.
    let tok = host.make_reservation(&req(class, vault), SimTime::from_secs(30)).unwrap();
    let spec = ObjectSpec::new(class, instance(1));
    host.start_object(&tok, &[spec], SimTime::from_secs(31)).unwrap();
    host.reassess(SimTime::from_secs(60));
    assert_eq!(fired.len(), 1);
    let events = fired.take();
    assert_eq!(events[0].kind, EventKind::Custom("busy-with-guests".into()));
    // The event detail snapshots the attribute database.
    assert!(events[0].detail.get_f64(well_known::LOAD).unwrap() > 1.0);
}

#[test]
fn smp_reports_scaled_capacity() {
    let dir = Arc::new(Dir::default());
    dir.add(VaultConfig::default());
    let smp = StandardHost::new(
        Loid::synthetic(LoidKind::Host, 2),
        HostConfig::smp("big", "uva.edu", 8),
        Arc::clone(&dir) as Arc<dyn VaultDirectory>,
        5,
    );
    let a = smp.attributes();
    assert_eq!(a.get_i64(well_known::NCPUS), Some(8));
    assert_eq!(a.get_i64(well_known::MEMORY_MB), Some(8 * 1024));
}

#[test]
fn reactivation_requires_an_opr_somewhere() {
    let (_, host, _, class) = setup();
    let orphan = legion_core::Opr::new(
        Loid::synthetic(LoidKind::Instance, 42),
        class,
        SimTime::ZERO,
        &b"ghost"[..],
    );
    assert!(matches!(
        host.reactivate_object(&orphan, SimTime::ZERO),
        Err(LegionError::NoSuchOpr(_))
    ));
}

#[test]
fn attribute_db_is_a_snapshot_not_a_view() {
    let (_, host, _, _) = setup();
    let snap: AttributeDb = host.attributes();
    host.set_background_load(BackgroundLoad::steady(3.0));
    host.reassess(SimTime::from_secs(30));
    // The old snapshot is unchanged; a fresh one sees the new load.
    assert_ne!(snap.get_f64(well_known::LOAD), Some(3.0));
    assert_eq!(host.attributes().get_f64(well_known::LOAD), Some(3.0));
}

#[test]
fn implementation_selection_validated_by_host() {
    use legion_core::ObjectImplementation;
    let (_, host, vault, class) = setup();
    let tok = host.make_reservation(&req(class, vault), SimTime::ZERO).unwrap();
    // The host is mips/IRIX; a sparc binary must be rejected.
    let wrong = ObjectSpec::new(class, instance(1))
        .with_implementation(ObjectImplementation::new("sparc", "Solaris"));
    assert!(matches!(
        host.start_object(&tok, &[wrong], SimTime::ZERO),
        Err(LegionError::NoUsableImplementation { .. })
    ));
    // The matching binary is accepted (token unconsumed by the failure).
    let right = ObjectSpec::new(class, instance(1))
        .with_implementation(ObjectImplementation::new("mips", "IRIX"));
    host.start_object(&tok, &[right], SimTime::ZERO).unwrap();
}
