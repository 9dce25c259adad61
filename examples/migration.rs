//! Triggers, the Monitor, and object migration (§2.1, §3.5).
//!
//! Six objects run on one host. Its background load spikes; the RGE
//! load trigger fires, the Monitor's outcall delivers the event, and
//! the Rebalancer migrates objects — OPR and all — to idle hosts, one
//! per monitoring round, until the trigger calms.
//!
//! Run with: `cargo run --example migration`

use legion::hosts::BackgroundLoad;
use legion::prelude::*;

fn main() {
    let tb = Testbed::build(TestbedConfig::wide(2, 3, 31));
    let class = tb.register_class("worker", 15, 64);

    // Start six objects on host 0 by hand (a deliberately bad placement).
    let h0 = &tb.unix_hosts[0];
    let vault = h0.get_compatible_vaults()[0];
    for _ in 0..6 {
        let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(1 << 20))
            .with_demand(15, 64);
        let tok = h0.make_reservation(&req, tb.fabric.clock().now()).expect("reservation");
        let started = h0
            .start_object(
                &tok,
                &[legion::core::ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance))],
                tb.fabric.clock().now(),
            )
            .expect("start");
        if let Some(c) = tb.fabric.lookup_class(class) {
            c.note_instance_location(started[0], h0.loid());
        }
    }
    println!("host 0 runs {} objects; everyone else is idle\n", h0.running_objects().len());

    // The Monitor registers load triggers + outcalls on every host.
    let rb = Rebalancer::new(tb.fabric.clone());
    rb.watch_all(1.2);

    // The machine's owner starts a big local job: background load spikes.
    h0.set_background_load(BackgroundLoad::steady(2.0));
    println!("background load on host 0 spikes to 2.0 — trigger threshold is 1.2\n");

    for round in 1..=8 {
        tb.tick(SimDuration::from_secs(30));
        let migrations = rb.rebalance_once();
        let load =
            h0.attributes().get_f64(legion::core::host::well_known::LOAD).unwrap_or(0.0);
        print!(
            "round {round}: host0 load {load:.2}, {} objects local",
            h0.running_objects().len()
        );
        for mig in &migrations {
            print!("  → migrated {} to {} ({} B of OPR)", mig.object, mig.to, mig.opr_bytes);
        }
        println!();
        if migrations.is_empty() && round > 2 {
            break;
        }
    }

    let m = tb.fabric.metrics().snapshot();
    println!(
        "\ntotals: {} trigger firings, {} deactivations, {} reactivations, {} migrations",
        m.trigger_firings, m.objects_deactivated, m.objects_reactivated, m.migrations
    );
    println!(
        "objects now spread over {} hosts",
        tb.unix_hosts.iter().filter(|h| !h.running_objects().is_empty()).count()
    );
}
