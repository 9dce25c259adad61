//! Enactor integration tests over real hosts, vaults and classes.

use legion_core::{
    ClassObject, HostObject, LegionClass, Loid, LoidKind, ObjectImplementation, PlacementContext,
    ReservationStatus, SimDuration, VaultObject,
};
use legion_fabric::{DomainId, DomainTopology, Fabric};
use legion_hosts::{DomainRefusal, HostConfig, StandardHost};
use legion_schedule::{
    Enactor, EnactorConfig, FailureClass, Mapping, ScheduleOutcome, ScheduleRequest,
    ScheduleRequestList, VariantSchedule,
};
use legion_vaults::{StandardVault, VaultConfig};
use std::sync::Arc;

struct Testbed {
    fabric: Arc<Fabric>,
    hosts: Vec<Loid>,
    typed_hosts: Vec<Arc<StandardHost>>,
    vault: Loid,
    class: Loid,
}

/// `n` identical IRIX hosts in one domain, one open vault, one class.
fn testbed(n: usize) -> Testbed {
    let fabric = Fabric::new(
        DomainTopology::uniform(2, SimDuration::from_micros(20), SimDuration::from_millis(25)),
        7,
    );
    let vault = Arc::new(StandardVault::new(fabric.mint(LoidKind::Vault), VaultConfig::default()));
    let vault_loid = vault.loid();
    fabric.register_vault(vault, DomainId(0));

    let mut hosts = Vec::new();
    let mut typed_hosts = Vec::new();
    for i in 0..n {
        let h = StandardHost::new(
            fabric.mint(LoidKind::Host),
            HostConfig::unix(format!("h{i}"), "uva.edu"),
            fabric.clone(),
            100 + i as u64,
        );
        h.set_metrics(Arc::clone(fabric.metrics()));
        hosts.push(h.loid());
        typed_hosts.push(Arc::clone(&h));
        fabric.register_host(h, DomainId(0));
    }

    let class = Arc::new(LegionClass::new(
        fabric.mint(LoidKind::Class),
        "worker",
        vec![ObjectImplementation::new("mips", "IRIX")],
    ));
    let class_loid = class.loid();
    fabric.register_class(class);

    Testbed { fabric, hosts, typed_hosts, vault: vault_loid, class: class_loid }
}

fn map(t: &Testbed, host_idx: usize) -> Mapping {
    Mapping::new(t.class, t.hosts[host_idx], t.vault)
}

#[test]
fn master_schedule_reserves_and_enacts() {
    let t = testbed(3);
    let enactor = Enactor::new(t.fabric.clone());
    let req = ScheduleRequestList::single(vec![map(&t, 0), map(&t, 1), map(&t, 2)]);

    let fb = enactor.make_reservations(&req);
    assert!(fb.reserved());
    assert_eq!(fb.reservations.len(), 3);
    assert_eq!(
        fb.outcome,
        ScheduleOutcome::Reserved { schedule: 0, variant: None }
    );

    let placed = enactor.enact_schedule(&fb).unwrap();
    assert_eq!(placed.len(), 3);
    // Each host now runs exactly one object.
    for (i, h) in t.hosts.iter().enumerate() {
        let host = t.fabric.lookup_host(*h).unwrap();
        assert_eq!(host.running_objects().len(), 1, "host {i}");
    }
    // The class tracks all three instances.
    let class = t.fabric.lookup_class(t.class).unwrap();
    assert_eq!(class.instances().len(), 3);
}

#[test]
fn variant_rescues_failed_position() {
    let t = testbed(3);
    // Host 1 refuses our domain outright (autonomy).
    t.typed_hosts[1].add_policy(Arc::new(DomainRefusal::new(["dom0"])));

    let master = vec![map(&t, 0), map(&t, 1)];
    let variant = VariantSchedule::replacing(2, &[(1, map(&t, 2))]);
    let req = ScheduleRequestList::default()
        .push(ScheduleRequest { master: legion_schedule::MasterSchedule::new(master), variants: vec![variant] });

    let enactor = Enactor::new(t.fabric.clone());
    let fb = enactor.make_reservations(&req);
    assert!(fb.reserved());
    assert_eq!(
        fb.outcome,
        ScheduleOutcome::Reserved { schedule: 0, variant: Some(0) }
    );
    // The surviving position kept its original host; the replacement
    // landed on host 2.
    assert_eq!(fb.mappings[0].host, t.hosts[0]);
    assert_eq!(fb.mappings[1].host, t.hosts[2]);
}

#[test]
fn no_variant_means_failure_and_cleanup() {
    let t = testbed(2);
    // Ask for more CPU than any host has by stacking three mappings on
    // one single-CPU host.
    let req = ScheduleRequestList::single(vec![map(&t, 0), map(&t, 0), map(&t, 0)]);
    let enactor = Enactor::new(t.fabric.clone());
    let fb = enactor.make_reservations(&req);
    assert!(!fb.reserved());
    assert_eq!(
        fb.outcome,
        ScheduleOutcome::Failed(FailureClass::ResourceUnavailable)
    );
    // Partial holds were released: a fresh single mapping must succeed.
    let fb2 = enactor.make_reservations(&ScheduleRequestList::single(vec![map(&t, 0)]));
    assert!(fb2.reserved());
}

#[test]
fn malformed_schedule_reported_as_such() {
    let t = testbed(1);
    let enactor = Enactor::new(t.fabric.clone());
    let fb = enactor.make_reservations(&ScheduleRequestList::default());
    assert!(matches!(fb.outcome, ScheduleOutcome::Failed(FailureClass::Malformed(_))));
    // Wrong-kind LOID.
    let bad = Mapping::new(t.hosts[0], t.hosts[0], t.vault);
    let fb = enactor.make_reservations(&ScheduleRequestList::single(vec![bad]));
    assert!(matches!(fb.outcome, ScheduleOutcome::Failed(FailureClass::Malformed(_))));
}

#[test]
fn cancel_reservations_releases_hosts() {
    let t = testbed(1);
    let enactor = Enactor::new(t.fabric.clone());
    let fb = enactor.make_reservations(&ScheduleRequestList::single(vec![map(&t, 0)]));
    assert!(fb.reserved());
    enactor.cancel_reservations(&fb);
    let host = t.fabric.lookup_host(t.hosts[0]).unwrap();
    let status = host
        .check_reservation(&fb.reservations[0], t.fabric.clock().now())
        .unwrap();
    assert_eq!(status, ReservationStatus::Cancelled);
}

#[test]
fn second_master_tried_after_first_fails() {
    let t = testbed(2);
    // First schedule triple-books host 0 (impossible); second uses both.
    let bad = ScheduleRequest::master_only(vec![map(&t, 0), map(&t, 0), map(&t, 0)]);
    let good = ScheduleRequest::master_only(vec![map(&t, 0), map(&t, 1)]);
    let req = ScheduleRequestList::default().push(bad).push(good);
    let enactor = Enactor::new(t.fabric.clone());
    let fb = enactor.make_reservations(&req);
    assert!(fb.reserved());
    assert_eq!(
        fb.outcome,
        ScheduleOutcome::Reserved { schedule: 1, variant: None }
    );
}

#[test]
fn bitmap_walk_avoids_thrashing_vs_naive() {
    // Two identical runs, one with the bitmap delta walk, one naive.
    // Master: positions 0..3 on distinct hosts; position 3 on a refusing
    // host. Variants move position 3 across more refusing hosts before
    // finding a good one — the naive walk remakes positions 0..2 each
    // time, thrashing; the delta walk never does.
    let run = |bitmap_walk: bool| -> (u64, bool) {
        let t = testbed(8);
        for idx in 4..7 {
            t.typed_hosts[idx].add_policy(Arc::new(DomainRefusal::new(["dom0"])));
        }
        let master = vec![map(&t, 0), map(&t, 1), map(&t, 2), map(&t, 4)];
        let variants = vec![
            VariantSchedule::replacing(4, &[(3, map(&t, 5))]),
            VariantSchedule::replacing(4, &[(3, map(&t, 6))]),
            VariantSchedule::replacing(4, &[(3, map(&t, 7))]),
        ];
        let req = ScheduleRequestList::default().push(ScheduleRequest {
            master: legion_schedule::MasterSchedule::new(master),
            variants,
        });
        let enactor = Enactor::with_config(
            t.fabric.clone(),
            EnactorConfig { bitmap_walk, ..Default::default() },
        );
        let before = t.fabric.metrics().snapshot();
        let fb = enactor.make_reservations(&req);
        let after = t.fabric.metrics().snapshot();
        (after.delta(&before).reservation_thrash, fb.reserved())
    };

    let (thrash_bitmap, ok1) = run(true);
    let (thrash_naive, ok2) = run(false);
    assert!(ok1 && ok2, "both strategies eventually succeed");
    assert_eq!(thrash_bitmap, 0, "delta walk must never remake a cancelled reservation");
    assert!(
        thrash_naive >= 6,
        "naive walk should thrash positions 0..2 across variants, got {thrash_naive}"
    );
}

#[test]
fn vanished_host_fails_cleanly_and_variant_rescues() {
    // A host crashes (is unregistered) between scheduling and
    // enactment: the mapping naming it fails with NoSuchHost, and a
    // variant pointing at a live host rescues the schedule.
    let t = testbed(3);
    t.fabric.unregister_host(t.hosts[1]);

    let master = vec![map(&t, 0), map(&t, 1)];
    let variant = VariantSchedule::replacing(2, &[(1, map(&t, 2))]);
    let req = ScheduleRequestList::default().push(ScheduleRequest {
        master: legion_schedule::MasterSchedule::new(master),
        variants: vec![variant],
    });
    let enactor = Enactor::new(t.fabric.clone());
    let fb = enactor.make_reservations(&req);
    assert!(fb.reserved(), "variant must route around the dead host");
    assert_eq!(fb.mappings[1].host, t.hosts[2]);

    // Without a variant, the same schedule fails — but cleanly, with
    // the surviving reservation released.
    let t = testbed(2);
    t.fabric.unregister_host(t.hosts[1]);
    let req = ScheduleRequestList::single(vec![map(&t, 0), map(&t, 1)]);
    let enactor = Enactor::new(t.fabric.clone());
    let fb = enactor.make_reservations(&req);
    assert!(!fb.reserved());
    // Host 0's capacity was returned.
    let fb2 = enactor.make_reservations(&ScheduleRequestList::single(vec![map(&t, 0)]));
    assert!(fb2.reserved());
}

#[test]
fn enactor_respects_max_attempts() {
    // With max_attempts = 1 only the master is tried, even though a
    // working variant exists.
    let t = testbed(2);
    // Block host 0.
    let h0 = &t.typed_hosts[0];
    let vault = h0.get_compatible_vaults()[0];
    let blocking = legion_core::ReservationRequest::instantaneous(
        t.class,
        vault,
        SimDuration::from_secs(1 << 20),
    )
    .with_type(legion_core::ReservationType::REUSABLE_SPACE);
    h0.make_reservation(&blocking, t.fabric.clock().now()).unwrap();

    let master = vec![map(&t, 0)];
    let variant = VariantSchedule::replacing(1, &[(0, map(&t, 1))]);
    let sched = ScheduleRequest {
        master: legion_schedule::MasterSchedule::new(master),
        variants: vec![variant],
    };
    let req = ScheduleRequestList { schedules: vec![sched] };

    let strict = Enactor::with_config(
        t.fabric.clone(),
        EnactorConfig { max_attempts: 1, ..Default::default() },
    );
    assert!(!strict.make_reservations(&req).reserved());

    let lenient = Enactor::new(t.fabric.clone());
    assert!(lenient.make_reservations(&req).reserved());
}

// ---------------------------------------------------------------------------
// Reservation fill pass: replay and backout
// ---------------------------------------------------------------------------

/// Token fingerprints comparable across fresh testbeds: hosts are
/// identified by index.
fn token_prints(t: &Testbed, fb: &legion_schedule::ScheduleFeedback) -> Vec<(usize, u64)> {
    fb.reservations
        .iter()
        .map(|tok| {
            let idx = t.hosts.iter().position(|&h| h == tok.host).expect("testbed host");
            (idx, tok.serial)
        })
        .collect()
}

#[test]
fn serial_fill_replays_bit_identically_under_loss() {
    // The fill pass draws loss from the fabric's shared stream: two
    // identically-seeded runs agree on every draw, every token serial,
    // and every ledger counter.
    let run = || {
        let t = testbed(4);
        t.fabric
            .with_topology(|topo| topo.set_drop_prob(DomainId(0), DomainId(0), 0.35));
        let enactor = Enactor::with_config(
            t.fabric.clone(),
            EnactorConfig { max_attempts: 5, ..Default::default() },
        );
        let before = t.fabric.metrics().snapshot();
        let req = ScheduleRequestList::single((0..4).map(|i| map(&t, i)).collect());
        let fb = enactor.make_reservations(&req);
        let delta = t.fabric.metrics().snapshot().delta(&before);
        (fb.outcome.clone(), token_prints(&t, &fb), delta)
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "runs with one seed must be bit-identical");
    assert!(a.2.messages_dropped > 0, "the lossy link actually exercised the stream");
}

#[test]
fn partial_failure_backs_out_and_reconciles() {
    use legion_fabric::reconcile::{reconcile_trace, reconciliation_report};

    // One host refuses the requesting domain; there is no variant, so
    // the attempt fails and the fill pass's five successful holds must
    // all be backed out — and the cancel accounting must reconcile exactly
    // against the trace.
    let t = testbed(6);
    t.typed_hosts[3].add_policy(Arc::new(DomainRefusal::new(["dom0"])));
    let sink = t.fabric.enable_tracing();
    sink.clear();
    let before = t.fabric.metrics().snapshot();

    let enactor = Enactor::with_config(
        t.fabric.clone(),
        EnactorConfig { max_attempts: 1, ..Default::default() },
    );
    let fb = enactor.make_reservations(
        &ScheduleRequestList::single((0..6).map(|i| map(&t, i)).collect()),
    );
    assert!(!fb.reserved());
    assert!(fb.reservations.is_empty());

    let delta = t.fabric.metrics().snapshot().delta(&before);
    assert_eq!(delta.reservations_granted, 5, "five hosts granted before the backout");
    assert_eq!(delta.reservations_cancelled, 5, "every granted hold was cancelled");
    let rollup = sink.rollup();
    assert!(
        reconcile_trace(&rollup, &delta).is_empty(),
        "backout cleanup must reconcile:\n{}",
        reconciliation_report(&rollup, &delta)
    );
    assert_eq!(sink.open_spans(), 0);

    // The capacity really came back: the same schedule minus the
    // refusing host reserves cleanly.
    let retry = ScheduleRequestList::single(
        (0..6).filter(|&i| i != 3).map(|i| map(&t, i)).collect(),
    );
    assert!(enactor.make_reservations(&retry).reserved(), "no leaked holds");
}
