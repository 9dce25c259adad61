//! Closed-loop rebalancing soak: skewed load plus a chaos `FaultPlan`.
//!
//! Ten fifth-of-a-CPU objects start piled five-and-five on two hosts
//! of a twelve-host, three-domain bed (each pile fills its host's CPU
//! reservation capacity exactly). The closed-loop [`Rebalancer`] sweeps
//! every 30s tick while the plan crashes the hottest host mid-spread
//! (its objects restart from their OPRs wherever the Watchdog can put
//! them — usually a fresh pile-up the rebalancer must then dissolve),
//! crashes an idle host, and severs domain 0 from domain 2 long enough
//! for the partitioned hosts' Collection records to go stale.
//!
//! Asserted, all from one fixed seed:
//! * max/mean host load converges below the hysteresis exit line within
//!   a bounded number of sweeps, and stays there;
//! * every sweep is a traced `rebalance` episode with the
//!   `detect → plan → migrate → converge` span sequence in time order;
//! * zero objects lost or duplicated — each of the ten has exactly one
//!   live instance at the end, where its Class says it is;
//! * the stale-TTL path actually engaged during the partition.
//!
//! The sweep loop is bounded by a pure sim-time horizon, not a tick
//! count, so the scenario is scheduler-agnostic: the same soak runs as
//! discrete events in `tests/sim_determinism.rs` via
//! `legion::prelude::run_rebalance_sim`.

use legion::core::{EpisodeId, ObjectSpec};
use legion::fabric::{FaultAction, FaultPlan};
use legion::prelude::*;

const SEED: u64 = 0xBA1A_0C5E;

/// Starts `n` 0.2-CPU objects directly on one host (the skew).
fn pile_on(tb: &Testbed, class: Loid, host_idx: usize, n: usize) -> Vec<Loid> {
    let h = &tb.unix_hosts[host_idx];
    let vault = h.get_compatible_vaults()[0];
    (0..n)
        .map(|_| {
            let req =
                ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(1 << 20))
                    .with_demand(20, 48);
            let tok = h.make_reservation(&req, tb.fabric.clock().now()).unwrap();
            let spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
            let obj = h.start_object(&tok, &[spec], tb.fabric.clock().now()).unwrap()[0];
            tb.fabric.lookup_class(class).unwrap().note_instance_location(obj, h.loid());
            obj
        })
        .collect()
}

#[test]
fn skewed_load_converges_under_chaos() {
    let tb = Testbed::build(TestbedConfig::wide(3, 4, SEED));
    let class = tb.register_class("rb-app", 20, 48);
    let sink = tb.fabric.enable_tracing();
    tb.tick(SimDuration::from_secs(1));

    // The skew: 5 + 5 objects fill the first two hosts of domain 0.
    let mut objects = pile_on(&tb, class, 0, 5);
    objects.extend(pile_on(&tb, class, 1, 5));
    assert_eq!(objects.len(), 10);

    // Chaos: crash the hottest host mid-spread (its survivors restart
    // from OPRs and pile up somewhere else), churn an idle host, and
    // sever domain 0 <-> domain 2 for 90s so the far hosts' records
    // cross the 75s staleness TTL.
    let hot = tb.unix_hosts[0].loid();
    let idle = tb.unix_hosts[7].loid();
    let plan = FaultPlan::new()
        .at(SimTime::from_secs(600), FaultAction::CrashHost(hot))
        .at(SimTime::from_secs(1200), FaultAction::RestartHost(hot))
        .at(SimTime::from_secs(1500), FaultAction::CrashHost(idle))
        .at(SimTime::from_secs(2000), FaultAction::RestartHost(idle))
        .at(
            SimTime::from_secs(1800),
            FaultAction::Partition {
                a: legion::fabric::DomainId(0),
                b: legion::fabric::DomainId(2),
                heal_at: SimTime::from_secs(1890),
            },
        );
    tb.fabric.install_fault_plan(plan);

    let config = RebalanceConfig {
        stale_ttl: SimDuration::from_secs(75),
        ..RebalanceConfig::default()
    };
    let rb = Rebalancer::closed_loop(tb.fabric.clone(), tb.collection.clone(), config);
    // Partition lasts 90s (3 missed 30s probes); 4 allowed misses keeps
    // the Watchdog from declaring partitioned hosts dead.
    let dog = Watchdog::new(tb.fabric.clone(), 4);

    let mut reports: Vec<SweepReport> = Vec::new();
    let mut first_converged: Option<usize> = None;
    // Sweep every 30s of virtual time until the 2700s horizon — chaos
    // window plus a quiet tail — however many sweeps that takes.
    let period = SimDuration::from_secs(30);
    let horizon = SimTime::from_secs(2700);
    while tb.fabric.clock().now() < horizon {
        let sweep_no = reports.len();
        tb.tick(period);
        let now = tb.fabric.clock().now();
        dog.patrol(now);
        let report = rb.sweep(now);

        // No object is ever duplicated, chaos or not.
        let mut live = 0usize;
        for h in &tb.unix_hosts {
            for o in h.running_objects() {
                assert!(objects.contains(&o), "unknown object {o} (seed={SEED:#x})");
                live += 1;
            }
        }
        assert!(live <= 10, "object duplicated at sweep {sweep_no} (seed={SEED:#x})");

        if report.converged && first_converged.is_none() && now > SimTime::from_secs(2100) {
            first_converged = Some(sweep_no);
        }
        reports.push(report);
    }

    // Convergence: reached after the last fault healed, within bounds,
    // and held through the quiet tail.
    let converged_at = first_converged
        .unwrap_or_else(|| panic!("never converged after the chaos window (seed={SEED:#x})"));
    assert!(converged_at <= 80, "converged too late: sweep {converged_at} (seed={SEED:#x})");
    let tail = &reports[reports.len() - 5..];
    assert!(
        tail.iter().all(|r| r.converged),
        "convergence did not hold through the tail (seed={SEED:#x})"
    );
    let last = reports.last().unwrap();
    assert!(
        last.max_load <= (1.25 * last.mean_load).max(0.5) + 1e-9,
        "max {} vs mean {} above the exit line (seed={SEED:#x})",
        last.max_load,
        last.mean_load
    );

    // Zero loss, zero duplication: each object has exactly one live
    // instance, exactly where its Class says.
    let class_obj = tb.fabric.lookup_class(class).unwrap();
    let placements = class_obj.instances();
    assert_eq!(placements.len(), 10, "class lost track of objects (seed={SEED:#x})");
    let mut live_total = 0usize;
    for h in &tb.unix_hosts {
        live_total += h.running_objects().len();
    }
    assert_eq!(live_total, 10, "live instance count (seed={SEED:#x})");
    for &obj in &objects {
        let homes: Vec<Loid> = tb
            .unix_hosts
            .iter()
            .filter(|h| h.running_objects().contains(&obj))
            .map(|h| h.loid())
            .collect();
        assert_eq!(homes.len(), 1, "object {obj} has {} homes (seed={SEED:#x})", homes.len());
        let recorded = placements.iter().find(|(o, _)| *o == obj).map(|&(_, h)| h);
        assert_eq!(recorded, Some(homes[0]), "class/reality drift for {obj} (seed={SEED:#x})");
    }

    // The run exercised the hard paths, not just the happy one.
    let migrated: usize = reports.iter().map(|r| r.completed.len()).sum();
    assert!(migrated >= 6, "only {migrated} migrations for a 5+5 skew (seed={SEED:#x})");
    let stale_seen: usize = reports.iter().map(|r| r.stale_records).sum();
    assert!(stale_seen > 0, "partition never staled a record (seed={SEED:#x})");
    let m = tb.fabric.metrics().snapshot();
    assert_eq!(m.rebalance_sweeps as usize, reports.len(), "sweep count (seed={SEED:#x})");
    assert!(m.monitor_restarts > 0, "watchdog never restarted (seed={SEED:#x})");

    // Every sweep is one traced episode with the four stages in time
    // order; migrate spans appear exactly when migrations were planned.
    let episodes = sink.episodes();
    let rebalance_eps: Vec<EpisodeId> = episodes
        .iter()
        .filter(|(_, label)| label == "rebalance")
        .map(|&(id, _)| id)
        .collect();
    assert_eq!(rebalance_eps.len(), reports.len(), "one episode per sweep (seed={SEED:#x})");
    let mut saw_migrate_stage = false;
    for (i, &ep) in rebalance_eps.iter().enumerate() {
        let spans = sink.episode_spans(ep);
        let detect: Vec<_> =
            spans.iter().filter(|s| s.kind == SpanKind::RebalanceDetect).collect();
        let plan: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::RebalancePlan).collect();
        let migrate: Vec<_> =
            spans.iter().filter(|s| s.kind == SpanKind::RebalanceMigrate).collect();
        let converge: Vec<_> =
            spans.iter().filter(|s| s.kind == SpanKind::RebalanceConverge).collect();
        assert_eq!(detect.len(), 1, "sweep {i} detect (seed={SEED:#x})");
        assert_eq!(plan.len(), 1, "sweep {i} plan (seed={SEED:#x})");
        assert_eq!(converge.len(), 1, "sweep {i} converge (seed={SEED:#x})");
        assert_eq!(
            migrate.len(),
            reports[i].planned,
            "sweep {i} migrate spans vs plan (seed={SEED:#x})"
        );
        assert!(detect[0].start <= plan[0].start, "sweep {i} order (seed={SEED:#x})");
        for mspan in &migrate {
            assert!(plan[0].start <= mspan.start, "sweep {i} order (seed={SEED:#x})");
            assert!(mspan.start <= converge[0].start, "sweep {i} order (seed={SEED:#x})");
            saw_migrate_stage = true;
        }
        assert!(plan[0].start <= converge[0].start, "sweep {i} order (seed={SEED:#x})");
    }
    assert!(saw_migrate_stage, "no sweep ever migrated (seed={SEED:#x})");
    assert_eq!(sink.open_spans(), 0, "spans leaked open (seed={SEED:#x})");

    eprintln!(
        "rebalance soak (seed={SEED:#x}): converged at sweep {converged_at}, \
         {migrated} migrations, {} re-homes, {} rollbacks, {} restarts, {stale_seen} stale",
        m.rebalance_rehomes, m.rebalance_rollbacks, m.monitor_restarts
    );
}
