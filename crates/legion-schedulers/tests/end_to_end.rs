//! Scheduler integration tests over the full RMI pipeline:
//! Hosts → Collection (pull daemon) → Scheduler → Enactor → Classes.

use legion_collection::{Collection, DataCollectionDaemon};
use legion_core::host::well_known;
use legion_core::{
    ClassObject, HostObject, LegionClass, Loid, LoidKind, ObjectImplementation, PlacementContext,
    PlacementRequest, SimDuration,
};
use legion_fabric::{DomainId, DomainTopology, Fabric};
use legion_hosts::{BackgroundLoad, HostConfig, StandardHost};
use legion_schedule::Enactor;
use legion_schedulers::{
    place_layered, GridSpec, IrsScheduler, KOfNScheduler, LayeringScheme, LoadAwareScheduler,
    RandomScheduler, RoundRobinScheduler, SchedCtx, ScheduleDriver, Scheduler, StencilScheduler,
};
use legion_vaults::{StandardVault, VaultConfig};
use std::sync::Arc;

struct World {
    fabric: Arc<Fabric>,
    ctx: SchedCtx,
    hosts: Vec<Arc<StandardHost>>,
    class: Loid,
}

/// `per_domain` hosts in each of `domains` domains, one open vault per
/// domain, a populated Collection, and a registered worker class.
fn world(domains: usize, per_domain: usize, seed: u64) -> World {
    let fabric = Fabric::new(
        DomainTopology::uniform(
            domains,
            SimDuration::from_micros(50),
            SimDuration::from_millis(30),
        ),
        seed,
    );
    for d in 0..domains {
        fabric.with_topology(|t| t.set_name(DomainId(d as u16), format!("site{d}.edu")));
    }

    let mut hosts = Vec::new();
    for d in 0..domains {
        let vault = Arc::new(StandardVault::new(fabric.mint(LoidKind::Vault), VaultConfig {
            name: format!("vault-{d}"),
            domain: format!("site{d}.edu"),
            ..Default::default()
        }));
        fabric.register_vault(vault, DomainId(d as u16));
        for i in 0..per_domain {
            let h = StandardHost::new(
                fabric.mint(LoidKind::Host),
                HostConfig::unix(format!("h{d}-{i}"), format!("site{d}.edu")),
                fabric.clone(),
                seed + (d * per_domain + i) as u64,
            );
            h.set_metrics(Arc::clone(fabric.metrics()));
            fabric.register_host(Arc::clone(&h) as Arc<dyn HostObject>, DomainId(d as u16));
            hosts.push(h);
        }
    }

    // A timeshared worker: a quarter CPU each, so several instances can
    // share a host under shared reservations.
    let implementations = vec![ObjectImplementation::new("mips", "IRIX")];
    let class = Arc::new(
        LegionClass::new(fabric.mint(LoidKind::Class), "worker", implementations)
            .with_demand(25, 64),
    );
    let class_loid = class.loid();
    fabric.register_class(class);

    // Populate the Collection via the pull daemon.
    let collection = Collection::new(fabric.mint(LoidKind::Service), seed ^ 0xC0FFEE);
    collection.set_metrics(Arc::clone(fabric.metrics()));
    let daemon = DataCollectionDaemon::new(fabric.mint(LoidKind::Service), Arc::clone(&collection));
    for h in &hosts {
        daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
    }
    daemon.pull_once(fabric.clock().now());

    let ctx = SchedCtx::new(Arc::clone(&fabric), collection);
    World { fabric, ctx, hosts, class: class_loid }
}

#[test]
fn random_scheduler_places_through_pipeline() {
    let w = world(2, 4, 11);
    let scheduler = RandomScheduler::new(1);
    let enactor = Enactor::new(w.fabric.clone());
    let driver = ScheduleDriver::new(Arc::new(scheduler), Arc::new(enactor));
    let report = driver
        .place(&PlacementRequest::new().class(w.class, 6), &w.ctx)
        .unwrap();
    assert_eq!(report.placed.len(), 6);
    // Objects actually run somewhere.
    let running: usize = w.hosts.iter().map(|h| h.running_objects().len()).sum();
    assert_eq!(running, 6);
}

#[test]
fn random_respects_request_constraints() {
    let w = world(1, 6, 13);
    // Constrain to hosts with at least 1 GB — none qualify (unix default
    // is 512 MB), so scheduling must fail cleanly.
    let scheduler = RandomScheduler::new(2);
    let req = PlacementRequest::new().class_where(w.class, 2, "$host_memory_mb >= 1024");
    assert!(scheduler.compute_schedule(&req, &w.ctx).is_err());
    // With a satisfiable constraint it succeeds.
    let req = PlacementRequest::new().class_where(w.class, 2, "$host_memory_mb >= 256");
    let sched = scheduler.compute_schedule(&req, &w.ctx).unwrap();
    assert_eq!(sched.schedules[0].master.len(), 2);
}

#[test]
fn irs_emits_variants_and_survives_contention() {
    let w = world(1, 4, 17);
    // Saturate three of four hosts with exclusive reservations so most
    // random picks fail.
    let enactor = Enactor::new(w.fabric.clone());
    for h in &w.hosts[..3] {
        let vault = h.get_compatible_vaults()[0];
        let req = legion_core::ReservationRequest::instantaneous(
            w.class,
            vault,
            SimDuration::from_secs(10_000),
        )
        .with_type(legion_core::ReservationType::REUSABLE_SPACE);
        h.make_reservation(&req, w.fabric.clock().now()).unwrap();
    }

    let irs = IrsScheduler::new(3, 8);
    let sched = irs
        .compute_schedule(&PlacementRequest::new().class(w.class, 1), &w.ctx)
        .unwrap();
    assert_eq!(sched.schedules.len(), 1, "IRS folds into one master + variants");
    // With NSched = 8 over 4 hosts, variants are near-certain.
    assert!(
        !sched.schedules[0].variants.is_empty(),
        "IRS should generate variant schedules"
    );

    let driver = ScheduleDriver::new(Arc::new(irs), Arc::new(enactor));
    let report = driver
        .place(&PlacementRequest::new().class(w.class, 1), &w.ctx)
        .unwrap();
    assert_eq!(report.placed.len(), 1);
    // The instance landed on the one unsaturated host.
    assert_eq!(w.hosts[3].running_objects().len(), 1);
}

#[test]
fn round_robin_spreads_instances() {
    let w = world(1, 4, 19);
    let rr = RoundRobinScheduler::new();
    let sched = rr
        .compute_schedule(&PlacementRequest::new().class(w.class, 8), &w.ctx)
        .unwrap();
    let mut counts = std::collections::BTreeMap::new();
    for m in &sched.schedules[0].master.mappings {
        *counts.entry(m.host).or_insert(0) += 1;
    }
    assert_eq!(counts.len(), 4, "all hosts used");
    assert!(counts.values().all(|&c| c == 2), "perfectly even spread");
}

#[test]
fn load_aware_prefers_idle_hosts() {
    let w = world(1, 4, 23);
    // Give hosts 0..2 heavy background load; host 3 stays idle.
    for (i, h) in w.hosts.iter().enumerate() {
        let load = if i == 3 { 0.05 } else { 2.0 + i as f64 };
        h.set_background_load(BackgroundLoad::steady(load));
        h.reassess(w.fabric.clock().now());
    }
    // Refresh the Collection so the scheduler sees the new loads.
    let daemon =
        DataCollectionDaemon::new(w.fabric.mint(LoidKind::Service), Arc::clone(&w.ctx.collection));
    for h in &w.hosts {
        daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
    }
    daemon.pull_once(w.fabric.clock().now());

    let la = LoadAwareScheduler::new();
    let sched = la
        .compute_schedule(&PlacementRequest::new().class(w.class, 1), &w.ctx)
        .unwrap();
    assert_eq!(
        sched.schedules[0].master.mappings[0].host,
        w.hosts[3].loid(),
        "least-loaded host must take the instance"
    );
    // Variants point at next-best hosts, not the chosen one.
    assert!(!sched.schedules[0].variants.is_empty());
}

#[test]
fn stencil_keeps_neighbours_in_domain() {
    let w = world(2, 8, 29);
    let grid = GridSpec::new(4, 4);
    let st = StencilScheduler::new(grid);
    let sched = st
        .compute_schedule(&PlacementRequest::new().class(w.class, 16), &w.ctx)
        .unwrap();
    let mappings = &sched.schedules[0].master.mappings;
    assert_eq!(mappings.len(), 16);

    // Compare predicted communication cost against the random scheduler.
    let domain_of = |ms: &[legion_schedule::Mapping]| -> Vec<String> {
        ms.iter()
            .map(|m| {
                let h = w.fabric.lookup_host(m.host).unwrap();
                h.attributes().get_str(well_known::DOMAIN).unwrap().to_string()
            })
            .collect()
    };
    let stencil_cost =
        legion_schedulers::stencil::comm_cost(&domain_of(mappings), grid, 50, 30_000);

    let rnd = RandomScheduler::new(5);
    let rnd_sched = rnd
        .compute_schedule(&PlacementRequest::new().class(w.class, 16), &w.ctx)
        .unwrap();
    let random_cost = legion_schedulers::stencil::comm_cost(
        &domain_of(&rnd_sched.schedules[0].master.mappings),
        grid,
        50,
        30_000,
    );
    assert!(
        stencil_cost < random_cost,
        "stencil placement ({stencil_cost}) must beat random ({random_cost})"
    );
}

#[test]
fn stencil_validates_count() {
    let w = world(1, 4, 31);
    let st = StencilScheduler::new(GridSpec::new(3, 3));
    assert!(st
        .compute_schedule(&PlacementRequest::new().class(w.class, 5), &w.ctx)
        .is_err());
}

#[test]
fn k_of_n_uses_spares_on_failure() {
    let w = world(1, 6, 37);
    // Make two of the six hosts unreservable (full-machine hold).
    for h in &w.hosts[..2] {
        let vault = h.get_compatible_vaults()[0];
        let req = legion_core::ReservationRequest::instantaneous(
            w.class,
            vault,
            SimDuration::from_secs(10_000),
        )
        .with_type(legion_core::ReservationType::REUSABLE_SPACE);
        h.make_reservation(&req, w.fabric.clock().now()).unwrap();
    }
    let kofn = KOfNScheduler::new();
    let sched = kofn
        .compute_schedule(&PlacementRequest::new().class(w.class, 3), &w.ctx)
        .unwrap();
    assert_eq!(sched.schedules[0].master.len(), 3);
    assert_eq!(sched.schedules[0].variants.len(), 3, "n−k = 3 spares");

    let enactor = Enactor::new(w.fabric.clone());
    let fb = enactor.make_reservations(&sched);
    assert!(fb.reserved(), "spares must rescue the blocked positions");
    let placed = enactor.enact_schedule(&fb).unwrap();
    assert_eq!(placed.len(), 3);
    // Neither blocked host runs anything.
    assert_eq!(w.hosts[0].running_objects().len(), 0);
    assert_eq!(w.hosts[1].running_objects().len(), 0);
}

#[test]
fn k_of_n_needs_enough_members() {
    let w = world(1, 2, 41);
    let kofn = KOfNScheduler::new();
    assert!(kofn
        .compute_schedule(&PlacementRequest::new().class(w.class, 3), &w.ctx)
        .is_err());
}

#[test]
fn all_four_layerings_place_objects() {
    for scheme in LayeringScheme::ALL {
        let w = world(1, 4, 43);
        let enactor = Arc::new(Enactor::new(w.fabric.clone()));
        let placed = place_layered(scheme, &w.ctx, &enactor, w.class, 3, 9)
            .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()));
        assert_eq!(placed.len(), 3, "{}", scheme.label());
        let running: usize = w.hosts.iter().map(|h| h.running_objects().len()).sum();
        assert_eq!(running, 3, "{}", scheme.label());
    }
}

#[test]
fn irs_does_fewer_collection_lookups_than_repeated_random() {
    // IRS's stated advantage: one Collection query per class per
    // generation, versus one per schedule for repeated Random calls.
    let w = world(1, 8, 47);
    let n = 8;

    let before = w.fabric.metrics().snapshot();
    let irs = IrsScheduler::new(1, n);
    irs.compute_schedule(&PlacementRequest::new().class(w.class, 4), &w.ctx)
        .unwrap();
    let irs_queries = w.fabric.metrics().snapshot().delta(&before).collection_queries;

    let before = w.fabric.metrics().snapshot();
    let rnd = RandomScheduler::new(1);
    for _ in 0..n {
        rnd.compute_schedule(&PlacementRequest::new().class(w.class, 4), &w.ctx)
            .unwrap();
    }
    let rnd_queries = w.fabric.metrics().snapshot().delta(&before).collection_queries;

    assert_eq!(irs_queries, 1);
    assert_eq!(rnd_queries, n as u64);
}

#[test]
fn price_aware_prefers_cheap_hosts() {
    use legion_schedulers::PriceAwareScheduler;
    let w = world(1, 6, 53);
    // Assign prices by reconfiguring would need new hosts; instead push
    // price attributes straight into the Collection records (the
    // scheduler reads the Collection, not the hosts).
    let prices = [90i64, 10, 50, 70, 30, 60];
    for (h, &p) in w.hosts.iter().zip(&prices) {
        let cred = w.ctx.collection.join_with(
            h.loid(),
            {
                let mut a = h.attributes();
                a.set(well_known::PRICE_PER_CPU_SEC, p);
                a
            },
            w.fabric.clock().now(),
        );
        let _ = cred;
    }
    let s = PriceAwareScheduler::new();
    let sched = s
        .compute_schedule(&PlacementRequest::new().class(w.class, 2), &w.ctx)
        .unwrap();
    let picked: Vec<_> = sched.schedules[0].master.mappings.iter().map(|m| m.host).collect();
    // Cheapest two are hosts[1] (10) and hosts[4] (30).
    assert!(picked.contains(&w.hosts[1].loid()));
    assert!(picked.contains(&w.hosts[4].loid()));
    // Variants offer the next-cheapest spares.
    assert!(!sched.schedules[0].variants.is_empty());
}

#[test]
fn forecasting_scheduler_falls_back_without_injection() {
    // With no forecast attribute injected, the forecasting scheduler
    // behaves exactly like the snapshot scheduler.
    let w = world(1, 4, 59);
    let snapshot = LoadAwareScheduler::new();
    let forecasting = LoadAwareScheduler::forecasting();
    let a = snapshot
        .compute_schedule(&PlacementRequest::new().class(w.class, 2), &w.ctx)
        .unwrap();
    let b = forecasting
        .compute_schedule(&PlacementRequest::new().class(w.class, 2), &w.ctx)
        .unwrap();
    assert_eq!(a.schedules[0].master, b.schedules[0].master);
}
