//! Batch Queue Hosts inside the full RMI pipeline: schedulers discover
//! them through the Collection and the Enactor places on them; jobs run
//! through the simulated queue systems.

use legion::prelude::*;
use legion::schedulers::RoundRobinScheduler;

fn batch_bed(seed: u64) -> Testbed {
    Testbed::build(TestbedConfig {
        domains: 1,
        unix_per_domain: 0,
        batch_per_domain: 3, // fcfs, priority, fair-share
        ..TestbedConfig::local(0, seed)
    })
}

#[test]
fn batch_hosts_are_scheduled_like_any_resource() {
    let tb = batch_bed(61);
    let class = tb.register_class("batch-job", 100, 64);
    tb.tick(SimDuration::from_secs(1));

    // Batch hosts are discoverable through the same Collection query.
    let recs = tb
        .collection
        .query(r#"$host_flavor == "batch""#)
        .unwrap();
    assert_eq!(recs.len(), 3);

    // Schedule 6 jobs round-robin across them.
    let scheduler = RoundRobinScheduler::new();
    let enactor = Enactor::new(tb.fabric.clone());
    let driver = ScheduleDriver::new(std::sync::Arc::new(scheduler), std::sync::Arc::new(enactor));
    let report = driver
        .place(&PlacementRequest::new().class(class, 6), &tb.ctx())
        .unwrap();
    assert_eq!(report.placed.len(), 6);

    // The jobs sit in queues; driving time completes them.
    let queued_or_running: usize =
        tb.batch_hosts.iter().map(|h| h.running_objects().len()).sum();
    assert_eq!(queued_or_running, 6);
    for _ in 0..80 {
        tb.tick(SimDuration::from_secs(60));
    }
    let done: u64 = tb.batch_hosts.iter().map(|h| h.queue_stats().completed).sum();
    assert_eq!(done, 6, "all jobs completed through the queue systems");
    assert!(tb.batch_hosts.iter().all(|h| h.running_objects().is_empty()));
}

#[test]
fn queue_depth_is_visible_to_schedulers() {
    let tb = batch_bed(67);
    let class = tb.register_class("batch-job", 50, 64);
    tb.tick(SimDuration::from_secs(1));

    // Stuff one batch host with 12 half-CPU jobs (8 slots).
    let bq = &tb.batch_hosts[0];
    let vault = bq.get_compatible_vaults()[0];
    for _ in 0..12 {
        let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(600))
            .with_demand(50, 64);
        let tok = bq.make_reservation(&req, tb.fabric.clock().now()).unwrap();
        bq.start_object(
            &tok,
            &[legion::core::ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance))],
            tb.fabric.clock().now(),
        )
        .unwrap();
    }
    bq.reassess(tb.fabric.clock().now());
    tb.tick(SimDuration::from_secs(1));

    // The Collection now reports the backlog, queryable like anything.
    let recs = tb.collection.query("$host_queue_depth > 0").unwrap();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].member, bq.loid());
    let depth = recs[0].attrs.get_i64("host_queue_depth").unwrap();
    assert_eq!(depth, 4, "12 jobs, 8 slots: 4 wait");
}

#[test]
fn priority_discipline_observable_through_legion() {
    use legion::hosts::{BatchQueueHost, PriorityQueue, StandardHost};
    use std::sync::Arc;
    // Direct construction so we can submit with different priorities via
    // the queue: Legion's path uses priority 0, so build the scenario at
    // the queue level but drive completion through host reassessment.
    let tb = Testbed::build(TestbedConfig::local(1, 71));
    let inner = StandardHost::new(
        tb.fabric.mint(LoidKind::Host),
        legion::hosts::HostConfig::smp("bq", "site0.edu", 1),
        tb.fabric.clone(),
        5,
    );
    let bq = BatchQueueHost::new(inner, Box::new(PriorityQueue::new(1)));
    tb.fabric.register_host(
        Arc::clone(&bq) as Arc<dyn HostObject>,
        DomainId(0),
    );
    let class = tb.register_class("j", 50, 32);

    let vault = bq.get_compatible_vaults()[0];
    let mut started = Vec::new();
    for _ in 0..3 {
        let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(60))
            .with_demand(30, 32);
        let tok = bq.make_reservation(&req, tb.fabric.clock().now()).unwrap();
        started.extend(bq.start_object(
            &tok,
            &[legion::core::ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance))],
            tb.fabric.clock().now(),
        )
        .unwrap());
    }
    // One slot: jobs complete strictly in submission order (equal
    // priority ⇒ FCFS tie-break).
    let mut completions = Vec::new();
    for _ in 0..6 {
        let now = tb.fabric.clock().advance(SimDuration::from_secs(60));
        let before = bq.queue_stats().completed;
        bq.reassess(now);
        let after = bq.queue_stats().completed;
        for _ in before..after {
            completions.push(now);
        }
    }
    assert_eq!(bq.queue_stats().completed, 3);
    assert!(completions.windows(2).all(|w| w[0] <= w[1]));
}
