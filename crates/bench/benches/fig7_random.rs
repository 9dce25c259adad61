#![allow(missing_docs)]
//! E-F7 (Fig. 7): Random schedule generation cost vs candidate count,
//! and end-to-end random placement under light contention.

use legion::prelude::*;
use legion_bench::harness::Exhibit;
use legion_bench::{bench_bed, block_hosts};

fn main() {
    let g = Exhibit::new("fig7_random");
    for hosts in [16usize, 128, 1024] {
        let (tb, class) = bench_bed(hosts, hosts as u64);
        let ctx = tb.ctx();
        let scheduler = RandomScheduler::new(1);
        g.time(format_args!("generate_8_mappings/{hosts}"), || {
            scheduler
                .compute_schedule(&PlacementRequest::new().class(class, 8), &ctx)
                .expect("schedule")
        });
    }

    g.time_batched(
        "place_under_25pct_contention",
        || {
            let (tb, class) = bench_bed(32, 99);
            block_hosts(&tb, class, 8);
            (tb, class)
        },
        |(tb, class)| {
            let scheduler = RandomScheduler::new(3);
            let enactor = Enactor::new(tb.fabric.clone());
            let driver = ScheduleDriver::new(
                std::sync::Arc::new(scheduler),
                std::sync::Arc::new(enactor),
            );
            // May fail occasionally; we measure the attempt cost.
            driver.place(&PlacementRequest::new().class(class, 4), &tb.ctx()).is_ok()
        },
    );
}
