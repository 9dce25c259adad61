//! Concurrency: multiple Enactors racing for the same scarce hosts from
//! real threads. The host-side reservation tables are the only
//! serialization point — exactly the paper's "Host acts as an arbiter" —
//! so capacity must never over-commit and co-allocation must stay
//! all-or-nothing under interleaving.

use legion::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn racing_enactors_never_oversubscribe() {
    // 4 single-CPU hosts; 8 threads each trying to co-allocate a pair of
    // full-CPU reservations. At most 2 pairs can win.
    let tb = Arc::new(Testbed::build(TestbedConfig::local(4, 77)));
    let class = tb.register_class("racer", 100, 64);
    tb.tick(SimDuration::from_secs(1));

    let barrier = Arc::new(std::sync::Barrier::new(8));
    let wins = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let tb = Arc::clone(&tb);
            let barrier = Arc::clone(&barrier);
            let wins = Arc::clone(&wins);
            std::thread::spawn(move || {
                let enactor = Enactor::new(tb.fabric.clone());
                // Each thread asks for hosts (i, i+1) mod 4 — overlapping
                // pairs to maximize contention.
                let m = |k: usize| {
                    Mapping::new(
                        class,
                        tb.unix_hosts[k % 4].loid(),
                        tb.vault_loids[0],
                    )
                };
                let req = ScheduleRequestList::single(vec![m(i), m(i + 1)]);
                barrier.wait();
                let fb = enactor.make_reservations(&req);
                if fb.reserved() {
                    wins.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    fb
                } else {
                    fb
                }
            })
        })
        .collect();
    let feedbacks: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let won = wins.load(std::sync::atomic::Ordering::SeqCst);
    assert!(won <= 2, "4 CPUs cannot satisfy more than 2 full-CPU pairs, got {won}");
    // Each host granted at most one live full-CPU reservation: verify by
    // checking every winning token is Active and disjoint by host.
    let mut held_hosts = std::collections::BTreeSet::new();
    for fb in feedbacks.iter().filter(|f| f.reserved()) {
        for tok in &fb.reservations {
            assert!(
                held_hosts.insert(tok.host),
                "host {} granted two overlapping full-CPU reservations",
                tok.host
            );
        }
    }
    // Losers left nothing behind: all 4 hosts can still grant afresh
    // after the winners cancel.
    for fb in feedbacks.iter().filter(|f| f.reserved()) {
        let enactor = Enactor::new(tb.fabric.clone());
        enactor.cancel_reservations(fb);
    }
    let enactor = Enactor::new(tb.fabric.clone());
    let all = ScheduleRequestList::single(
        (0..4)
            .map(|k| Mapping::new(class, tb.unix_hosts[k].loid(), tb.vault_loids[0]))
            .collect(),
    );
    assert!(enactor.make_reservations(&all).reserved(), "no leaked capacity");
}

#[test]
fn place_many_preserves_order_and_never_oversubscribes() {
    // 8 single-CPU hosts, half-CPU demand: 16 instance slots. Eight
    // requests alternating 1 and 2 instances (12 total) all fit, so
    // every report must succeed, land in its spec's slot, and no host
    // may exceed its two-instance capacity however the workers race.
    use legion::schedulers::{PlacementSpec, RandomScheduler};

    let tb = Testbed::build(TestbedConfig::wide(2, 4, 83));
    let class = tb.register_class("bulk", 50, 64);
    tb.tick(SimDuration::from_secs(1));

    let scheduler = RandomScheduler::new(7);
    let enactor = Enactor::new(tb.fabric.clone());
    let driver = ScheduleDriver::new(std::sync::Arc::new(scheduler), std::sync::Arc::new(enactor));
    let ctx = tb.ctx();
    let counts: Vec<u32> = (0..8).map(|i| 1 + (i % 2)).collect();
    let specs: Vec<PlacementSpec> =
        counts.iter().map(|&n| PlacementSpec::of(class, n)).collect();

    let reports = driver.place_many(&specs, &ctx, 8);
    assert_eq!(reports.len(), specs.len(), "one slot per spec");
    for (i, report) in reports.iter().enumerate() {
        let report = report.as_ref().unwrap_or_else(|e| panic!("spec {i} failed: {e}"));
        assert_eq!(
            report.placed.len(),
            counts[i] as usize,
            "slot {i} must hold the report for spec {i}"
        );
    }
    // The hosts stayed the arbiters: nobody holds more than two
    // half-CPU objects, and the bed holds exactly the 12 placed.
    let mut total = 0;
    for host in &tb.unix_hosts {
        let n = host.running_objects().len();
        assert!(n <= 2, "host {} oversubscribed: {n} objects", host.loid());
        total += n;
    }
    assert_eq!(total, 12);

    // Degenerate width: one worker is the plain serial loop and must
    // also fill every slot on a fresh, identical bed.
    let tb2 = Testbed::build(TestbedConfig::wide(2, 4, 83));
    let class2 = tb2.register_class("bulk", 50, 64);
    tb2.tick(SimDuration::from_secs(1));
    let scheduler2 = RandomScheduler::new(7);
    let enactor2 = Enactor::new(tb2.fabric.clone());
    let driver2 = ScheduleDriver::new(std::sync::Arc::new(scheduler2), std::sync::Arc::new(enactor2));
    let specs2: Vec<PlacementSpec> =
        counts.iter().map(|&n| PlacementSpec::of(class2, n)).collect();
    let serial = driver2.place_many(&specs2, &tb2.ctx(), 1);
    for (i, report) in serial.iter().enumerate() {
        assert_eq!(report.as_ref().unwrap().placed.len(), counts[i] as usize);
    }
}

#[test]
fn concurrent_collection_updates_and_queries() {
    // Readers query while writers push; no torn state, every record
    // stays internally consistent. The run ends once both sides have
    // made a fixed amount of progress, not after a fixed time, so a
    // loaded machine slows the test down instead of failing it.
    const MIN_OPS: u64 = 50;
    const CAP: Duration = Duration::from_secs(120);
    let tb = Arc::new(Testbed::build(TestbedConfig::local(8, 79)));
    tb.tick(SimDuration::from_secs(1));

    let stop = Arc::new(AtomicBool::new(false));
    let pulls = Arc::new(AtomicU64::new(0));
    let queries = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let (tb, stop, pulls) = (Arc::clone(&tb), Arc::clone(&stop), Arc::clone(&pulls));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    tb.daemon.pull_once(tb.fabric.clock().now());
                    pulls.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let (tb, stop, queries) = (Arc::clone(&tb), Arc::clone(&stop), Arc::clone(&queries));
            std::thread::spawn(move || {
                let q = legion::collection::parse_query(
                    r#"match($host_os_name, "IRIX") and $host_load >= 0.0"#,
                )
                .unwrap();
                let mut hits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let rs = tb.collection.query_parsed(&q);
                    // Every record the query returns is complete.
                    for r in &rs {
                        assert!(r.attrs.contains("host_name"));
                        assert!(r.attrs.contains("host_compatible_vaults"));
                    }
                    hits += rs.len() as u64;
                    queries.fetch_add(1, Ordering::Relaxed);
                }
                hits
            })
        })
        .collect();

    let start = Instant::now();
    let progressed = || {
        pulls.load(Ordering::Relaxed) >= MIN_OPS && queries.load(Ordering::Relaxed) >= MIN_OPS
    };
    while !progressed() && start.elapsed() < CAP {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    let hits: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    let (pulls, queries) = (pulls.load(Ordering::Relaxed), queries.load(Ordering::Relaxed));
    assert!(
        pulls >= MIN_OPS && queries >= MIN_OPS,
        "no progress within {CAP:?}: {pulls} pulls, {queries} queries (need {MIN_OPS} each)"
    );
    assert!(hits > 0, "{queries} queries returned no records");
    assert_eq!(tb.collection.len(), 8);
}

#[test]
fn concurrent_host_operations_stay_consistent() {
    // Threads hammer one SMP host with reserve/start/kill cycles.
    let tb = Arc::new(Testbed::build(TestbedConfig {
        domains: 1,
        unix_per_domain: 0,
        smp_per_domain: 1,
        ..TestbedConfig::local(0, 81)
    }));
    let class = tb.register_class("hammer", 25, 32);
    let host = Arc::clone(&tb.unix_hosts[0]);
    let vault = host.get_compatible_vaults()[0];

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let tb = Arc::clone(&tb);
            let host = Arc::clone(&host);
            std::thread::spawn(move || {
                let mut cycles = 0u32;
                for _ in 0..50 {
                    let req = ReservationRequest::instantaneous(
                        class,
                        vault,
                        SimDuration::from_secs(60),
                    )
                    .with_demand(25, 32);
                    let Ok(tok) = host.make_reservation(&req, tb.fabric.clock().now())
                    else {
                        continue; // capacity race lost; fine
                    };
                    let instance = tb.fabric.mint(LoidKind::Instance);
                    let started = host
                        .start_object(
                            &tok,
                            &[legion::core::ObjectSpec::new(class, instance)],
                            tb.fabric.clock().now(),
                        )
                        .expect("granted reservation always starts");
                    host.kill_object(started[0]).expect("kill own object");
                    cycles += 1;
                }
                cycles
            })
        })
        .collect();
    let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
    // Everything cleaned up: no objects, full capacity available again.
    assert!(host.running_objects().is_empty());
    let big = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(60))
        .with_demand(400, 1024);
    host.make_reservation(&big, tb.fabric.clock().now())
        .expect("full capacity restored");
}
