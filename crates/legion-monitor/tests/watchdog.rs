//! Watchdog crash detection + restart-from-OPR integration tests.

use legion_core::{
    ClassObject, HostObject, LegionClass, Loid, LoidKind, ObjectImplementation, ObjectSpec,
    ReservationRequest, SimDuration, VaultDirectory, VaultObject,
};
use legion_fabric::{DomainId, DomainTopology, Fabric, FaultPlan};
use legion_hosts::{HostConfig, StandardHost};
use legion_monitor::Watchdog;
use legion_vaults::{StandardVault, VaultConfig};
use std::sync::Arc;

struct World {
    fabric: Arc<Fabric>,
    hosts: Vec<Arc<StandardHost>>,
    class: Loid,
}

/// Two hosts in one domain sharing one open vault — recovery does not
/// need to move the OPR.
fn shared_world() -> World {
    let fabric = Fabric::new(
        DomainTopology::uniform(2, SimDuration::from_micros(50), SimDuration::from_millis(20)),
        11,
    );
    let v = Arc::new(StandardVault::new(fabric.mint(LoidKind::Vault), VaultConfig {
        name: "vault".into(),
        domain: "site0.edu".into(),
        ..Default::default()
    }));
    fabric.register_vault(v, DomainId(0));
    let mut hosts = Vec::new();
    for i in 0..2u64 {
        let h = StandardHost::new(
            fabric.mint(LoidKind::Host),
            HostConfig::unix(format!("h{i}"), "site0.edu"),
            fabric.clone(),
            20 + i,
        );
        h.set_metrics(Arc::clone(fabric.metrics()));
        fabric.register_host(Arc::clone(&h) as Arc<dyn HostObject>, DomainId(0));
        hosts.push(h);
    }
    let class = Arc::new(LegionClass::new(
        fabric.mint(LoidKind::Class),
        "app",
        vec![ObjectImplementation::new("mips", "IRIX")],
    ));
    let class_loid = class.loid();
    fabric.register_class(class);
    World { fabric, hosts, class: class_loid }
}

fn start_object(w: &World, idx: usize) -> Loid {
    let h = &w.hosts[idx];
    let vault = h.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(w.class, vault, SimDuration::from_secs(7200))
        .with_demand(20, 64);
    let tok = h.make_reservation(&req, w.fabric.clock().now()).unwrap();
    let mut spec = ObjectSpec::new(w.class, w.fabric.mint(LoidKind::Instance));
    spec.initial_state = b"watchdog test state".to_vec();
    let obj = h.start_object(&tok, &[spec], w.fabric.clock().now()).unwrap()[0];
    w.fabric.lookup_class(w.class).unwrap().note_instance_location(obj, h.loid());
    obj
}

#[test]
fn crash_is_detected_and_object_restarts_from_opr() {
    let w = shared_world();
    let obj = start_object(&w, 0);

    // start_object checkpointed the newborn OPR into the vault.
    let vault_loid = w.hosts[0].get_compatible_vaults()[0];
    assert!(w.fabric.lookup_vault(vault_loid).unwrap().holds(obj));

    let dog = Watchdog::new(w.fabric.clone(), 2);
    assert!(dog.patrol(w.fabric.clock().now()).is_empty(), "all hosts healthy");

    w.hosts[0].crash();
    assert!(w.hosts[0].running_objects().is_empty(), "volatile state lost");

    // One miss is not a verdict — partitions heal, packets drop.
    let now = w.fabric.clock().advance(SimDuration::from_secs(30));
    assert!(dog.patrol(now).is_empty());
    assert_eq!(dog.misses_for(w.hosts[0].loid()), 1);
    assert!(!dog.considers_dead(w.hosts[0].loid()));

    // Second consecutive miss: declared dead, restarted from the OPR.
    let now = w.fabric.clock().advance(SimDuration::from_secs(30));
    let restarts = dog.patrol(now);
    assert_eq!(restarts.len(), 1);
    assert_eq!(restarts[0].object, obj);
    assert_eq!(restarts[0].from, w.hosts[0].loid());
    assert_eq!(restarts[0].to, w.hosts[1].loid());

    // The object runs on host 1 with its checkpointed state.
    assert_eq!(w.hosts[1].running_objects(), vec![obj]);
    let class = w.fabric.lookup_class(w.class).unwrap();
    assert_eq!(class.instances(), vec![(obj, w.hosts[1].loid())]);
    let snap = w.fabric.metrics().snapshot();
    assert_eq!(snap.monitor_restarts, 1);
    assert_eq!(snap.host_crashes, 1);

    // A later patrol does not restart it again.
    let now = w.fabric.clock().advance(SimDuration::from_secs(30));
    assert!(dog.patrol(now).is_empty());
    assert_eq!(w.fabric.metrics().snapshot().monitor_restarts, 1);
}

#[test]
fn recovered_host_is_probed_back_to_health() {
    let w = shared_world();
    let dog = Watchdog::new(w.fabric.clone(), 2);
    w.hosts[0].crash();
    for _ in 0..3 {
        let now = w.fabric.clock().advance(SimDuration::from_secs(30));
        dog.patrol(now);
    }
    assert!(dog.considers_dead(w.hosts[0].loid()));

    let now = w.fabric.clock().advance(SimDuration::from_secs(30));
    w.hosts[0].restart(now);
    dog.patrol(now);
    assert!(!dog.considers_dead(w.hosts[0].loid()));
    assert_eq!(dog.misses_for(w.hosts[0].loid()), 0);
}

#[test]
fn flapping_host_resets_misses_on_every_recovery() {
    // A host that crashes, restarts, and re-joins repeatedly must have
    // its miss counter reset each time it answers a probe — flapping
    // must never accumulate into a permanent dead verdict.
    let w = shared_world();
    let dog = Watchdog::new(w.fabric.clone(), 3);
    let h0 = w.hosts[0].loid();

    for round in 0..3 {
        // Crash and miss twice — one short of the verdict.
        w.hosts[0].crash();
        for _ in 0..2 {
            let now = w.fabric.clock().advance(SimDuration::from_secs(30));
            dog.patrol(now);
        }
        assert_eq!(dog.misses_for(h0), 2, "round {round}");
        assert!(!dog.considers_dead(h0), "round {round}");

        // Restart: the next answered probe wipes the slate.
        let now = w.fabric.clock().advance(SimDuration::from_secs(30));
        w.hosts[0].restart(now);
        dog.patrol(now);
        assert_eq!(dog.misses_for(h0), 0, "round {round}: misses reset");
        assert!(!dog.considers_dead(h0), "round {round}");
    }
}

#[test]
fn unregistered_host_rejoins_with_clean_slate() {
    // A host declared dead, then unregistered from the fabric, must not
    // inherit its dead verdict when it later re-registers: patrols
    // prune miss entries for hosts that are no longer registered.
    let w = shared_world();
    let dog = Watchdog::new(w.fabric.clone(), 2);
    let h0 = w.hosts[0].loid();

    w.hosts[0].crash();
    for _ in 0..2 {
        let now = w.fabric.clock().advance(SimDuration::from_secs(30));
        dog.patrol(now);
    }
    assert!(dog.considers_dead(h0));

    // The operator pulls the host out of the fabric entirely.
    let pulled = w.fabric.unregister_host(h0).expect("host was registered");
    let now = w.fabric.clock().advance(SimDuration::from_secs(30));
    dog.patrol(now);
    assert!(!dog.considers_dead(h0), "stale verdict pruned once unregistered");
    assert_eq!(dog.misses_for(h0), 0);

    // Repaired and re-joined: it starts from zero misses and is
    // immediately trusted again.
    let now = w.fabric.clock().advance(SimDuration::from_secs(30));
    w.hosts[0].restart(now);
    w.fabric.register_host(pulled, DomainId(0));
    dog.patrol(now);
    assert!(!dog.considers_dead(h0));
    assert_eq!(dog.misses_for(h0), 0);
}

#[test]
fn host_restarted_this_patrol_is_a_recovery_candidate() {
    // Registry order: h0 (dead, carries the object), h1 restarted just
    // before this patrol after being considered dead itself. The patrol
    // must settle *all* probes before recovering h0, so h1's fresh
    // liveness is visible and it can take the restarted object.
    let w = shared_world();
    let obj = start_object(&w, 0);
    let dog = Watchdog::new(w.fabric.clone(), 2);

    // Both hosts crash; both cross the miss threshold. Nothing can be
    // recovered yet — there is no live candidate.
    w.hosts[0].crash();
    w.hosts[1].crash();
    for _ in 0..2 {
        let now = w.fabric.clock().advance(SimDuration::from_secs(30));
        assert!(dog.patrol(now).is_empty(), "no live host to restart onto");
    }
    assert!(dog.considers_dead(w.hosts[0].loid()));
    assert!(dog.considers_dead(w.hosts[1].loid()));

    // h1 comes back just before the next patrol. Its probe lands in
    // phase one, so phase two's recovery of h0 can use it.
    let now = w.fabric.clock().advance(SimDuration::from_secs(30));
    w.hosts[1].restart(now);
    let restarts = dog.patrol(now);
    assert_eq!(restarts.len(), 1, "freshly restarted host accepted the object");
    assert_eq!(restarts[0].object, obj);
    assert_eq!(restarts[0].to, w.hosts[1].loid());
    assert_eq!(w.hosts[1].running_objects(), vec![obj]);
}

#[test]
fn partition_looks_like_a_crash_and_triggers_recovery() {
    // Hosts in different domains sharing an accept-all vault that sits
    // in the watchdog's domain. A partition hides host 1; its object is
    // restarted from the (still reachable) OPR on host 0.
    let fabric = Fabric::new(
        DomainTopology::uniform(2, SimDuration::from_micros(50), SimDuration::from_millis(20)),
        13,
    );
    let v = Arc::new(StandardVault::new(fabric.mint(LoidKind::Vault), VaultConfig::default()));
    let vault_loid = v.loid();
    fabric.register_vault(v, DomainId(0));
    let mut hosts = Vec::new();
    for d in 0..2u16 {
        let h = StandardHost::new(
            fabric.mint(LoidKind::Host),
            HostConfig::unix(format!("h{d}"), format!("site{d}.edu")),
            fabric.clone(),
            30 + d as u64,
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

    // Object on host 1 (domain 1); its birth checkpoint lands in the
    // shared vault over in domain 0.
    let h1 = &hosts[1];
    let req =
        ReservationRequest::instantaneous(class_loid, vault_loid, SimDuration::from_secs(7200))
            .with_demand(20, 64);
    let tok = h1.make_reservation(&req, fabric.clock().now()).unwrap();
    let spec = ObjectSpec::new(class_loid, fabric.mint(LoidKind::Instance));
    let obj = h1.start_object(&tok, &[spec], fabric.clock().now()).unwrap()[0];
    fabric.lookup_class(class_loid).unwrap().note_instance_location(obj, h1.loid());
    assert!(fabric.lookup_vault(vault_loid).unwrap().holds(obj));

    // Sever domain 0 <-> domain 1. The fabric fires the event on tick.
    let heal_at = legion_core::SimTime::from_micros(3_600_000_000);
    let plan = FaultPlan::new().at(
        fabric.clock().now(),
        legion_fabric::FaultAction::Partition { a: DomainId(0), b: DomainId(1), heal_at },
    );
    fabric.install_fault_plan(plan);
    fabric.tick_all_hosts(SimDuration::from_secs(1));
    assert!(fabric.is_partitioned(DomainId(0), DomainId(1)));

    let dog = Watchdog::new(fabric.clone(), 2);
    let mut restarts = Vec::new();
    for _ in 0..2 {
        let now = fabric.clock().advance(SimDuration::from_secs(30));
        restarts.extend(dog.patrol(now));
    }
    assert_eq!(restarts.len(), 1, "object behind the partition recovered");
    assert_eq!(restarts[0].from, hosts[1].loid());
    assert_eq!(restarts[0].to, hosts[0].loid());
    assert_eq!(restarts[0].via_vault, vault_loid);
    assert!(hosts[0].running_objects().contains(&obj));
    assert_eq!(fabric.metrics().snapshot().monitor_restarts, 1);
}
