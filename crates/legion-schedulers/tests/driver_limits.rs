//! Driver (Fig. 9 wrapper) limit semantics and IRS variant styles.

use legion_collection::{Collection, DataCollectionDaemon};
use legion_core::{
    HostObject, LegionClass, Loid, LoidKind, ObjectImplementation, PlacementRequest,
    ReservationRequest, ReservationType, SimDuration,
};
use legion_fabric::{DomainId, DomainTopology, Fabric};
use legion_hosts::{HostConfig, StandardHost};
use legion_schedule::Enactor;
use legion_schedulers::driver::DriverLimits;
use legion_schedulers::{IrsScheduler, RandomScheduler, SchedCtx, ScheduleDriver, Scheduler};
use std::sync::Arc;

fn bed(n: usize, seed: u64) -> (Arc<Fabric>, SchedCtx, Vec<Arc<StandardHost>>, Loid) {
    let fabric = Fabric::new(
        DomainTopology::uniform(1, SimDuration::from_micros(10), SimDuration::from_micros(10)),
        seed,
    );
    let vault = legion_vaults::StandardVault::new(fabric.mint(LoidKind::Vault), Default::default());
    let vault = Arc::new(vault);
    fabric.register_vault(vault, DomainId(0));
    let mut hosts = Vec::new();
    for i in 0..n {
        let h = StandardHost::new(
            fabric.mint(LoidKind::Host),
            HostConfig::unix(format!("h{i}"), "dom0"),
            fabric.clone(),
            seed + i as u64,
        );
        fabric.register_host(Arc::clone(&h) as Arc<dyn HostObject>, DomainId(0));
        hosts.push(h);
    }
    let implementations = vec![ObjectImplementation::new("mips", "IRIX")];
    let class = Arc::new(
        LegionClass::new(fabric.mint(LoidKind::Class), "w", implementations).with_demand(100, 64),
    );
    let class_loid = legion_core::ClassObject::loid(&*class);
    fabric.register_class(class);
    let collection = Collection::new(fabric.mint(LoidKind::Service), seed);
    let daemon = DataCollectionDaemon::new(fabric.mint(LoidKind::Service), Arc::clone(&collection));
    for h in &hosts {
        daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
    }
    daemon.pull_once(fabric.clock().now());
    let ctx = SchedCtx::new(Arc::clone(&fabric), collection);
    (fabric, ctx, hosts, class_loid)
}

fn block_all(hosts: &[Arc<StandardHost>], class: Loid, fabric: &Arc<Fabric>) {
    for h in hosts {
        let vault = h.get_compatible_vaults()[0];
        let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(1 << 20))
            .with_type(ReservationType::REUSABLE_SPACE);
        h.make_reservation(&req, fabric.clock().now()).unwrap();
    }
}

#[test]
fn driver_reports_generation_and_round_counts() {
    let (fabric, ctx, _hosts, class) = bed(4, 1);
    // Seed chosen so the first generation maps the two instances to
    // distinct hosts (full-machine demand: a same-host pair can never
    // reserve, and this test wants the happy path).
    let scheduler = RandomScheduler::new(0);
    let enactor = Enactor::new(fabric.clone());
    let driver = ScheduleDriver::new(Arc::new(scheduler), Arc::new(enactor));
    let report = driver.place(&PlacementRequest::new().class(class, 2), &ctx).unwrap();
    assert_eq!(report.generations, 1, "idle bed: first generation lands");
    assert_eq!(report.reservation_rounds, 1);
    assert!(report.feedback.is_some());
    assert!(report.feedback.unwrap().reserved());
}

#[test]
fn driver_exhausts_its_limits_then_fails() {
    let (fabric, ctx, hosts, class) = bed(3, 2);
    block_all(&hosts, class, &fabric);
    // Refresh the Collection view so schedules are still generated.
    let scheduler = RandomScheduler::new(3);
    let enactor = Enactor::new(fabric.clone());
    let limits = DriverLimits { sched_try_limit: 2, enact_try_limit: 3 };
    let driver = ScheduleDriver::with_limits(Arc::new(scheduler), Arc::new(enactor), limits);
    let before = fabric.metrics().snapshot();
    let err = driver.place(&PlacementRequest::new().class(class, 1), &ctx);
    assert!(err.is_err());
    // Exactly sched_try_limit x enact_try_limit reservation rounds ran.
    let d = fabric.metrics().snapshot().delta(&before);
    assert_eq!(d.schedules_attempted, 2 * 3, "2 generations x 3 enact tries");
}

#[test]
fn irs_per_position_emits_one_variant_per_alternative() {
    let (_fabric, ctx, _hosts, class) = bed(8, 3);
    let joint = IrsScheduler::new(5, 4);
    let per_pos = IrsScheduler::new(5, 4).per_position();
    assert_eq!(joint.name(), "irs");
    assert_eq!(per_pos.name(), "irs-per-position");

    let req = PlacementRequest::new().class(class, 3);
    let js = joint.compute_schedule(&req, &ctx).unwrap();
    let ps = per_pos.compute_schedule(&req, &ctx).unwrap();
    // Joint: at most NSched-1 variants regardless of instance count.
    assert!(js.schedules[0].variants.len() <= 3);
    // Per-position: up to (NSched-1) x instances single-position variants.
    assert!(ps.schedules[0].variants.len() <= 9);
    assert!(ps.schedules[0].variants.len() > js.schedules[0].variants.len());
    for v in &ps.schedules[0].variants {
        assert_eq!(v.replaces.count_ones(), 1, "single-position by construction");
    }
    // Both validate structurally.
    assert!(js.validate().is_ok());
    assert!(ps.validate().is_ok());
}
