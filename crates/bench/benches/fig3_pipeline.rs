#![allow(missing_docs)]
//! E-F3 (Fig. 3): end-to-end placement latency vs fabric size.
//!
//! Steps 1-11 of the paper's walkthrough — Collection query, schedule
//! computation, reservation negotiation, instantiation — timed as one
//! pipeline while the number of hosts grows.

use legion::prelude::*;
use legion_bench::bench_bed;
use legion_bench::harness::Exhibit;

fn main() {
    let g = Exhibit::new("fig3_pipeline");
    for hosts in [16usize, 64, 256, 1024] {
        g.time_batched(
            format_args!("place_8/{hosts}"),
            || bench_bed(hosts, hosts as u64),
            |(tb, class)| {
                let scheduler = RandomScheduler::new(1);
                let enactor = Enactor::new(tb.fabric.clone());
                let driver = ScheduleDriver::new(
                    std::sync::Arc::new(scheduler),
                    std::sync::Arc::new(enactor),
                );
                driver
                    .place(&PlacementRequest::new().class(class, 8), &tb.ctx())
                    .expect("placement")
            },
        );
    }
}
