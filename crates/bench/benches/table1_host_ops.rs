#![allow(missing_docs)]
//! E-T1 (Table 1): per-operation latency of the Host interface, plus
//! the autonomy-policy cost ablation.

use legion::core::ObjectSpec;
use legion::hosts::{DomainRefusal, LoadCeiling, MemoryFloor, TimeOfDayWindow};
use legion::prelude::*;
use legion_bench::bench_bed;
use legion_bench::harness::Exhibit;
use std::sync::Arc;

fn main() {
    let g = Exhibit::new("table1_host_ops");
    let (tb, class) = bench_bed(1, 11);
    let host = tb.unix_hosts[0].clone();
    let vault = host.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(3600))
        .with_demand(1, 1);

    // Reservation management.
    g.time("make_then_cancel_reservation", || {
        let tok = host.make_reservation(&req, tb.fabric.clock().now()).expect("grant");
        host.cancel_reservation(&tok).expect("cancel");
    });
    let check_tok = host.make_reservation(&req, tb.fabric.clock().now()).expect("grant");
    g.time("check_reservation", || {
        host.check_reservation(&check_tok, tb.fabric.clock().now()).expect("status")
    });
    host.cancel_reservation(&check_tok).expect("cancel");

    // Process management.
    g.time("start_then_kill_object", || {
        let tok = host.make_reservation(&req, tb.fabric.clock().now()).expect("grant");
        let spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
        let started = host.start_object(&tok, &[spec], tb.fabric.clock().now()).expect("start");
        host.kill_object(started[0]).expect("kill");
    });
    // Per-iteration setup: a pre-generated batch of objects would
    // exhaust the host's memory before the routine frees any.
    g.time_batched(
        "deactivate_reactivate_object",
        || {
            let mut spec = ObjectSpec::new(class, tb.fabric.mint(LoidKind::Instance));
            spec.memory_mb = 1;
            let tok = host.make_reservation(&req, tb.fabric.clock().now()).expect("grant");
            host.start_object(&tok, &[spec], tb.fabric.clock().now()).expect("start")[0]
        },
        |obj| {
            let opr = host.deactivate_object(obj, tb.fabric.clock().now()).expect("save");
            host.reactivate_object(&opr, tb.fabric.clock().now()).expect("restore");
            host.kill_object(obj).expect("cleanup");
        },
    );

    // Information reporting.
    g.time("attributes_snapshot", || host.attributes());
    g.time("get_compatible_vaults", || host.get_compatible_vaults());
    g.time("vault_ok", || host.vault_ok(vault));
    g.time("reassess", || host.reassess(tb.fabric.clock().now()));

    // Ablation: cost of the autonomy policy chain on the grant path.
    for (label, chain) in [("policy_chain_0", 0usize), ("policy_chain_4", 4)] {
        let (tb2, class2) = bench_bed(1, 12);
        let h = tb2.unix_hosts[0].clone();
        if chain == 4 {
            h.add_policy(Arc::new(DomainRefusal::new(["spam.org"])));
            h.add_policy(Arc::new(LoadCeiling { max_load: 10.0 }));
            h.add_policy(Arc::new(TimeOfDayWindow { from_hour: 0, to_hour: 0 }));
            h.add_policy(Arc::new(MemoryFloor { min_free_mb: 1 }));
        }
        let v = h.get_compatible_vaults()[0];
        let r = ReservationRequest::instantaneous(class2, v, SimDuration::from_secs(3600))
            .with_demand(1, 1)
            .from_domain("uva.edu");
        g.time(label, || {
            let tok = h.make_reservation(&r, tb2.fabric.clock().now()).expect("grant");
            h.cancel_reservation(&tok).expect("cancel");
        });
    }
}
