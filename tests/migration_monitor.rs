//! Monitor, triggers, and migration across the whole stack.

use legion::core::{ObjectSpec, VaultDirectory};
use legion::hosts::BackgroundLoad;
use legion::prelude::*;

fn place_n_on_host0(tb: &Testbed, class: Loid, n: usize) -> Vec<Loid> {
    let h0 = &tb.unix_hosts[0];
    let vault = h0.get_compatible_vaults()[0];
    (0..n)
        .map(|_| {
            let req = ReservationRequest::instantaneous(
                class,
                vault,
                SimDuration::from_secs(1 << 20),
            )
            .with_demand(10, 32);
            let tok = h0.make_reservation(&req, tb.fabric.clock().now()).unwrap();
            let spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
            let started = h0.start_object(&tok, &[spec], tb.fabric.clock().now()).unwrap();
            if let Some(c) = tb.fabric.lookup_class(class) {
                c.note_instance_location(started[0], h0.loid());
            }
            started[0]
        })
        .collect()
}

#[test]
fn spike_drains_via_repeated_rounds() {
    let tb = Testbed::build(TestbedConfig::wide(2, 4, 40));
    let class = tb.register_class("w", 10, 32);
    place_n_on_host0(&tb, class, 4);

    let rb = Rebalancer::new(tb.fabric.clone());
    rb.watch_all(1.0);
    tb.unix_hosts[0].set_background_load(BackgroundLoad::steady(1.5));

    let mut total = 0;
    for _ in 0..10 {
        tb.tick(SimDuration::from_secs(30));
        total += rb.rebalance_once().len();
    }
    assert!(total >= 3, "sustained overload should drain objects, moved {total}");
    assert!(tb.unix_hosts[0].running_objects().len() <= 1);
    // Migrated objects are alive elsewhere, and the class knows where.
    let class_obj = tb.fabric.lookup_class(class).unwrap();
    for (instance, host_loid) in class_obj.instances() {
        let host = tb.fabric.lookup_host(host_loid).unwrap();
        assert!(
            host.running_objects().contains(&instance),
            "class location bookkeeping must match reality"
        );
    }
}

#[test]
fn migration_preserves_state_version_discipline() {
    let tb = Testbed::build(TestbedConfig::wide(2, 1, 41));
    let class = tb.register_class("w", 10, 32);
    let objs = place_n_on_host0(&tb, class, 1);
    let obj = objs[0];
    let (h0, h1) = (tb.unix_hosts[0].loid(), tb.unix_hosts[1].loid());

    // Ping-pong the object; the OPR version must increase monotonically.
    let rec1 = migrate_object(&tb.fabric, obj, h0, h1).unwrap();
    let rec2 = migrate_object(&tb.fabric, obj, h1, h0).unwrap();
    let rec3 = migrate_object(&tb.fabric, obj, h0, h1).unwrap();
    assert_eq!(tb.fabric.metrics().snapshot().migrations, 3);
    assert_eq!(rec1.to, h1);
    assert_eq!(rec2.to, h0);
    assert_eq!(rec3.to, h1);

    let vault = tb
        .fabric
        .lookup_vault(rec3.via_vault)
        .expect("destination vault exists");
    let opr = vault.fetch_opr(obj).unwrap();
    assert!(opr.version >= 3, "each deactivation bumps the version: {}", opr.version);
}

#[test]
fn custom_triggers_fire_through_monitor() {
    use legion::core::{EventKind, Guard, Trigger};
    let tb = Testbed::build(TestbedConfig::local(1, 42));
    let class = tb.register_class("w", 10, 32);
    let monitor = Monitor::new();
    let host_dyn: std::sync::Arc<dyn HostObject> =
        tb.unix_hosts[0].clone() as std::sync::Arc<dyn HostObject>;
    // A custom guard: fire when more than 2 Legion objects run here.
    monitor.watch_with(
        &host_dyn,
        Trigger::new(
            Guard::attr_gt(legion::core::host::well_known::RUNNING_OBJECTS, 2.0),
            EventKind::Custom("crowded".into()),
        ),
    );

    place_n_on_host0(&tb, class, 2);
    tb.tick(SimDuration::from_secs(30));
    assert_eq!(monitor.pending(), 0, "2 objects: guard quiet");

    place_n_on_host0(&tb, class, 1);
    tb.tick(SimDuration::from_secs(30));
    let events = monitor.drain_events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, EventKind::Custom("crowded".into()));
}

#[test]
fn trigger_removal_stops_events() {
    let tb = Testbed::build(TestbedConfig::local(1, 43));
    let monitor = Monitor::new();
    let host_dyn: std::sync::Arc<dyn HostObject> =
        tb.unix_hosts[0].clone() as std::sync::Arc<dyn HostObject>;
    let id = monitor.watch_load(&host_dyn, 0.5);
    tb.unix_hosts[0].set_background_load(BackgroundLoad::steady(2.0));
    tb.tick(SimDuration::from_secs(30));
    assert_eq!(monitor.pending(), 1);
    monitor.drain_events();

    tb.unix_hosts[0].remove_trigger(id);
    tb.tick(SimDuration::from_secs(30));
    tb.tick(SimDuration::from_secs(30));
    assert_eq!(monitor.pending(), 0, "removed trigger must not fire");
}
