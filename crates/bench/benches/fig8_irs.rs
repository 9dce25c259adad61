#![allow(missing_docs)]
//! E-F8 (Figs. 8-9): IRS generation cost vs NSched, and the
//! lookups-saved comparison against repeated Random generation.

use legion::prelude::*;
use legion_bench::bench_bed;
use legion_bench::harness::Exhibit;

fn main() {
    let g = Exhibit::new("fig8_irs");
    let (tb, class) = bench_bed(64, 8);
    let ctx = tb.ctx();
    let request = || PlacementRequest::new().class(class, 8);

    for nsched in [2usize, 4, 8, 16] {
        let irs = IrsScheduler::new(1, nsched);
        g.time(format_args!("irs_generate_8_instances/{nsched}"), || {
            irs.compute_schedule(&request(), &ctx).expect("schedule")
        });
    }

    // The paper's stated saving: IRS makes one Collection lookup where
    // n Random generations make n. Time both producing 8 schedules'
    // worth of mappings.
    let irs = IrsScheduler::new(2, 8);
    g.time("irs_one_gen_nsched8", || irs.compute_schedule(&request(), &ctx).expect("schedule"));
    let rnd = RandomScheduler::new(2);
    g.time("random_8_generations", || {
        for _ in 0..8 {
            rnd.compute_schedule(&request(), &ctx).expect("schedule");
        }
    });
}
