#![allow(missing_docs)]
//! E-F6 (Fig. 6): Enactor operations — co-allocation across domains,
//! reservation + cancellation round-trips.

use legion::prelude::*;
use legion_bench::bench_bed_wide;
use legion_bench::harness::Exhibit;

/// Maps one instance onto every host of a one-domain bed.
fn one_per_host(tb: &Testbed, class: Loid) -> Vec<Mapping> {
    tb.unix_hosts.iter().map(|h| Mapping::new(class, h.loid(), tb.vault_loids[0])).collect()
}

fn main() {
    let g = Exhibit::new("fig6_enactor");
    for domains in [1usize, 4, 8] {
        g.time_batched(
            format_args!("coallocate_one_per_domain/{domains}"),
            || bench_bed_wide(domains, 2, domains as u64),
            |(tb, class)| {
                let master: Vec<Mapping> = (0..domains)
                    .map(|d| Mapping::new(class, tb.unix_hosts[d * 2].loid(), tb.vault_loids[d]))
                    .collect();
                let enactor = Enactor::new(tb.fabric.clone());
                let fb = enactor.make_reservations(&ScheduleRequestList::single(master));
                assert!(fb.reserved());
                fb
            },
        );
    }

    g.time_batched(
        "reserve_then_cancel_8",
        || bench_bed_wide(1, 8, 5),
        |(tb, class)| {
            let enactor = Enactor::new(tb.fabric.clone());
            let request = ScheduleRequestList::single(one_per_host(&tb, class));
            let fb = enactor.make_reservations(&request);
            assert!(fb.reserved());
            enactor.cancel_reservations(&fb);
        },
    );

    g.time_batched(
        "full_enact_8",
        || bench_bed_wide(1, 8, 6),
        |(tb, class)| {
            let enactor = Enactor::new(tb.fabric.clone());
            let request = ScheduleRequestList::single(one_per_host(&tb, class));
            let fb = enactor.make_reservations(&request);
            enactor.enact_schedule(&fb).expect("enact")
        },
    );
}
