//! E-T2: the four reservation types of Table 2 under contention.

use crate::table::Table;
use crate::testbed::{Testbed, TestbedConfig};
use legion_core::{
    HostObject, LoidKind, ObjectSpec, ReservationRequest, ReservationType, SimDuration, SimTime,
};

/// E-T2: on a 4-CPU host, stream 8 half-CPU reservation requests of
/// each Table 2 type, then try to start objects twice under the first
/// granted token. Shows: unshared types admit exactly one holder;
/// shared types multiplex up to capacity; one-shot tokens die after one
/// `start_object`; reusable tokens survive several.
pub fn e_t2_reservation_types() -> Table {
    let mut t = Table::new(
        "E-T2",
        "Reservation types (Table 2): 8 half-CPU requests on a 4-CPU host",
        &["type", "share/reuse", "granted", "denied", "2nd start_object"],
    );
    for rtype in ReservationType::ALL {
        let tb = Testbed::build(TestbedConfig {
            domains: 1,
            unix_per_domain: 0,
            smp_per_domain: 1,
            ..TestbedConfig::local(0, 88)
        });
        let class = tb.register_class("w", 50, 64);
        let host = &tb.unix_hosts[0]; // the SMP
        let vault = host.get_compatible_vaults()[0];

        let mut granted = Vec::new();
        let mut denied = 0;
        for _ in 0..8 {
            let req = ReservationRequest::instantaneous(
                class,
                vault,
                SimDuration::from_secs(3600),
            )
            .with_type(rtype)
            .with_demand(50, 64);
            match host.make_reservation(&req, SimTime::ZERO) {
                Ok(tok) => granted.push(tok),
                Err(_) => denied += 1,
            }
        }

        // Confirm the first token twice.
        let second_start = if let Some(tok) = granted.first() {
            let spec = || ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
            host.start_object(tok, &[spec()], SimTime::from_secs(1))
                .expect("first start under a fresh token");
            match host.start_object(tok, &[spec()], SimTime::from_secs(2)) {
                Ok(_) => "accepted (reusable)",
                Err(_) => "rejected (one-shot)",
            }
        } else {
            "n/a"
        };

        t.row(vec![
            rtype.name().to_string(),
            format!("share={} reuse={}", rtype.share as u8, rtype.reuse as u8),
            granted.len().to_string(),
            denied.to_string(),
            second_start.to_string(),
        ]);
    }
    t
}
