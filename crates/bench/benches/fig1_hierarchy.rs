#![allow(missing_docs)]
//! E-F1 (Fig. 1): classes as active managers of their instances.
//!
//! Measures object creation through the class hierarchy: the class's
//! own quick placement (`create_instance(None)`) and directed placement
//! with a pre-obtained reservation, plus class report queries.

use legion::prelude::*;
use legion_bench::bench_bed;
use legion_bench::harness::Exhibit;

fn main() {
    let g = Exhibit::new("fig1_hierarchy");

    g.time_batched(
        "create_instance_default_placement",
        || bench_bed(16, 1),
        |(tb, class)| {
            let class_obj = tb.fabric.lookup_class(class).expect("registered");
            for _ in 0..16 {
                class_obj.create_instance(None, &*tb.fabric).expect("placement");
            }
        },
    );

    g.time_batched(
        "create_instance_directed",
        || {
            let (tb, class) = bench_bed(16, 2);
            // Pre-obtain 16 reservations round-robin over hosts.
            let placements: Vec<legion::core::Placement> = (0..16)
                .map(|i| {
                    let h = &tb.unix_hosts[i % tb.unix_hosts.len()];
                    let vault = h.get_compatible_vaults()[0];
                    let req = ReservationRequest::instantaneous(
                        class,
                        vault,
                        SimDuration::from_secs(3600),
                    )
                    .with_demand(10, 32);
                    let token = h.make_reservation(&req, tb.fabric.clock().now()).expect("grant");
                    legion::core::Placement { host: h.loid(), vault, token }
                })
                .collect();
            (tb, class, placements)
        },
        |(tb, class, placements)| {
            let class_obj = tb.fabric.lookup_class(class).expect("registered");
            for p in placements {
                class_obj.create_instance(Some(p), &*tb.fabric).expect("placement");
            }
        },
    );

    let (tb, class) = bench_bed(4, 3);
    let ctx = tb.ctx();
    g.time("class_report_query", || ctx.class_report(class).expect("report"));
}
