//! E-X5: Batch Queue Hosts — reservations atop reservation-less queues.

use crate::table::Table;
use crate::testbed::{Testbed, TestbedConfig};
use legion_core::{HostObject, LoidKind, ObjectSpec, ReservationRequest, SimDuration};

/// E-X5: each simulated queue discipline (LoadLeveler-, Condor- and
/// Codine-like) receives a burst of 16 half-CPU jobs through the Legion
/// reservation path on an 8-slot machine. The host-side reservation
/// table admits all 16 (800 CPU-centis of capacity), but the queue runs
/// only 8 one-slot jobs at a time — so half the *granted* reservations
/// still wait. This is the paper's own caveat made measurable: "Our
/// real ability to coordinate large applications running across
/// multiple queuing systems will be limited by the functionality of the
/// underlying queuing system, and there is an unavoidable potential for
/// conflict. We accept this..." (§3.1).
pub fn e_x5_batch_queues() -> Table {
    let mut t = Table::new(
        "E-X5",
        "Batch Queue Hosts: 16 half-CPU jobs x 10 min on 8 queue slots, one host per discipline",
        &[
            "queue system",
            "granted",
            "denied (reservation table)",
            "completed",
            "mean queue wait (min)",
        ],
    );
    let tb = Testbed::build(TestbedConfig {
        domains: 1,
        unix_per_domain: 0,
        batch_per_domain: 3,
        ..TestbedConfig::local(0, 505)
    });
    let class = tb.register_class("job", 100, 64);
    tb.tick(SimDuration::from_secs(1));

    for bq in &tb.batch_hosts {
        let vault = bq.get_compatible_vaults()[0];
        let mut granted = 0;
        let mut denied = 0;
        for _ in 0..16 {
            let req = ReservationRequest::instantaneous(
                class,
                vault,
                SimDuration::from_secs(600),
            )
            .with_demand(50, 64);
            match bq.make_reservation(&req, tb.fabric.clock().now()) {
                Ok(tok) => {
                    granted += 1;
                    let spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
                    bq.start_object(&tok, &[spec], tb.fabric.clock().now())
                        .expect("start under granted reservation");
                }
                Err(_) => denied += 1,
            }
        }
        // Run the virtual clock long enough for everything to drain.
        for _ in 0..40 {
            let now = tb.fabric.clock().advance(SimDuration::from_secs(60));
            bq.reassess(now);
        }
        let stats = bq.queue_stats();
        let name = bq
            .attributes()
            .get_str(legion_core::host::well_known::QUEUE_SYSTEM)
            .unwrap_or("?")
            .to_string();
        t.row(vec![
            name,
            granted.to_string(),
            denied.to_string(),
            stats.completed.to_string(),
            format!("{:.1}", stats.mean_wait_secs() / 60.0),
        ]);
    }
    t
}
