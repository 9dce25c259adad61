//! A drill for the closed-loop rebalancer: skewed load plus churn,
//! swept to convergence, then replayed from the trace.
//!
//! Ten 0.2-CPU objects start piled five-and-five on two hosts of a
//! nine-host bed. The [`Rebalancer`] sweeps every 30 s, detecting
//! hotspots against the hysteresis band, planning budget-bounded
//! migrations, and checking convergence — each sweep one traced
//! `rebalance` episode with `detect → plan → migrate → converge`
//! spans. Mid-drill the hottest host crashes (churn): the Watchdog
//! restarts its objects from their vault OPRs, piling them onto one
//! acceptor, and later sweeps dissolve that pile too.
//!
//! Run with: `cargo run --example rebalance_drill`

use legion::core::ObjectSpec;
use legion::prelude::*;

/// Starts `n` 0.2-CPU objects directly on one host (the skew).
fn pile_on(tb: &Testbed, class: Loid, host_idx: usize, n: usize) {
    let h = &tb.unix_hosts[host_idx];
    let vault = h.get_compatible_vaults()[0];
    for _ in 0..n {
        let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(1 << 20))
            .with_demand(20, 48);
        let tok = h.make_reservation(&req, tb.fabric.clock().now()).expect("skew reservation");
        let spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
        let obj = h.start_object(&tok, &[spec], tb.fabric.clock().now()).expect("skew start")[0];
        tb.fabric.lookup_class(class).unwrap().note_instance_location(obj, h.loid());
    }
}

fn main() {
    let tb = Testbed::build(TestbedConfig::wide(3, 3, 42));
    let class = tb.register_class("drill-app", 20, 48);
    let sink = tb.fabric.enable_tracing();
    tb.tick(SimDuration::from_secs(1));

    pile_on(&tb, class, 0, 5);
    pile_on(&tb, class, 1, 5);
    println!("skew installed: 5 + 5 objects on {} and {}", tb.host_loids[0], tb.host_loids[1]);

    let config = RebalanceConfig::default();
    println!(
        "hysteresis: enter at {:.2}x mean, exit at {:.2}x mean, floor {:.2}, budget {}/sweep\n",
        config.enter_ratio, config.exit_ratio, config.load_floor, config.budget_per_sweep
    );
    let rb = Rebalancer::closed_loop(tb.fabric.clone(), tb.collection.clone(), config);
    let dog = Watchdog::new(tb.fabric.clone(), 2);

    let mut last_episode = None;
    for sweep_no in 1..=12 {
        tb.tick(SimDuration::from_secs(30));
        if sweep_no == 4 {
            // Churn: fail-stop the hottest host. Its objects restart
            // from their OPRs wherever the Watchdog can put them.
            tb.unix_hosts[0].crash();
            println!("t={:>4}s  !! crashed {}", tb.fabric.clock().now().as_secs_f64() as u64, tb.host_loids[0]);
        }
        let now = tb.fabric.clock().now();
        for r in dog.patrol(now) {
            println!(
                "t={:>4}s  watchdog restarted {} on {} via vault {}",
                now.as_secs_f64() as u64,
                r.object,
                r.to,
                r.via_vault
            );
        }
        let report = rb.sweep(now);
        println!(
            "t={:>4}s  sweep {:>2}: {} hotspot(s), {} migrated, {} failed, \
             max {:.2} / mean {:.2}{}{}",
            now.as_secs_f64() as u64,
            sweep_no,
            report.hotspots.len(),
            report.completed.len(),
            report.failed.len(),
            report.max_load,
            report.mean_load,
            if report.stale_records > 0 { " [stale records]" } else { "" },
            if report.converged { "  CONVERGED" } else { "" },
        );
        for rec in &report.completed {
            println!("          moved {} from {} to {}", rec.object, rec.from, rec.to);
        }
        last_episode = report.episode;
        if report.converged && sweep_no > 4 {
            break;
        }
    }

    let m = tb.fabric.metrics().snapshot();
    println!(
        "\ntotals: {} sweeps, {} migrations, {} rolled back, {} re-homed, {} watchdog restarts",
        m.rebalance_sweeps, m.migrations, m.rebalance_rollbacks, m.rebalance_rehomes, m.monitor_restarts
    );

    // Replay the final sweep from the trace: its episode as a span
    // tree, then the per-stage latency histograms for the whole drill.
    if let Some(ep) = last_episode {
        println!("\n--- final rebalance episode ---\n{}", legion::trace::episode_report(&sink, ep));
    }
    println!("{}", legion::trace::latency_report(&sink));
    let rollup = sink.rollup();
    println!(
        "trace saw {} detect, {} plan, {} migrate, {} converge spans",
        rollup.count(SpanKind::RebalanceDetect),
        rollup.count(SpanKind::RebalancePlan),
        rollup.count(SpanKind::RebalanceMigrate),
        rollup.count(SpanKind::RebalanceConverge),
    );
}
