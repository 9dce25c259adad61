#![allow(missing_docs)]
//! E-F5 (Fig. 5): variant-walk cost — bitmap delta vs naive remake.

use legion::prelude::*;
use legion::schedule::{MasterSchedule, ScheduleRequest, VariantSchedule};
use legion_bench::bench_bed;
use legion_bench::harness::Exhibit;

/// Builds the E-F5 scenario: a 6-instance master whose last position is
/// blocked, three variants fixing only that position (the third works).
fn scenario(seed: u64) -> (legion::apps::Testbed, ScheduleRequestList) {
    let (tb, class) = bench_bed(12, seed);
    for h in &tb.unix_hosts[6..9] {
        let vault = h.get_compatible_vaults()[0];
        let req = ReservationRequest::instantaneous(
            class,
            vault,
            SimDuration::from_secs(1 << 20),
        )
        .with_type(ReservationType::REUSABLE_SPACE);
        h.make_reservation(&req, tb.fabric.clock().now()).expect("block");
    }
    let vault = tb.vault_loids[0];
    let m = |i: usize| Mapping::new(class, tb.unix_hosts[i].loid(), vault);
    let master = vec![m(0), m(1), m(2), m(3), m(4), m(6)];
    let variants = vec![
        VariantSchedule::replacing(6, &[(5, m(7))]),
        VariantSchedule::replacing(6, &[(5, m(8))]),
        VariantSchedule::replacing(6, &[(5, m(9))]),
    ];
    let req = ScheduleRequestList::default()
        .push(ScheduleRequest { master: MasterSchedule::new(master), variants });
    (tb, req)
}

fn main() {
    let g = Exhibit::new("fig5_variants");
    for (label, bitmap_walk) in [("bitmap_delta_walk", true), ("naive_full_remake", false)] {
        g.time_batched(
            label,
            || scenario(17),
            |(tb, req)| {
                let enactor = Enactor::with_config(
                    tb.fabric.clone(),
                    EnactorConfig { bitmap_walk, ..Default::default() },
                );
                let fb = enactor.make_reservations(&req);
                assert!(fb.reserved());
                fb
            },
        );
    }
}
