#![allow(missing_docs)]
//! E-X1 (§4.3): stencil scheduler cost and placement-quality scoring.

use legion::apps::StencilApp;
use legion::prelude::*;
use legion::schedulers::{stencil::comm_cost, GridSpec};
use legion_bench::bench_bed_wide;
use legion_bench::harness::Exhibit;

fn main() {
    let g = Exhibit::new("x1_stencil");
    let grid = GridSpec::new(8, 8);
    let (tb, class) = bench_bed_wide(4, 16, 31);
    let ctx = tb.ctx();
    let request = || PlacementRequest::new().class(class, 64);

    let stencil = StencilScheduler::new(grid);
    g.time("stencil_generate_64_ranks", || {
        stencil.compute_schedule(&request(), &ctx).expect("schedule")
    });
    let random = RandomScheduler::new(4);
    g.time("random_generate_64_ranks", || {
        random.compute_schedule(&request(), &ctx).expect("schedule")
    });

    // Scoring cost: completion-time prediction over a 64-rank placement.
    let sched = StencilScheduler::new(grid).compute_schedule(&request(), &ctx).expect("schedule");
    let mappings = sched.schedules[0].master.mappings.clone();
    let app = StencilApp { grid, cycles: 100, compute_per_cycle: SimDuration::from_millis(50) };
    g.time("score_completion_64_ranks", || app.completion(&tb.fabric, &mappings, |_| 0.0));

    let domains: Vec<String> =
        mappings.iter().map(|m| format!("{:?}", tb.fabric.domain_of(m.host))).collect();
    g.time("comm_cost_64_ranks", || comm_cost(&domains, grid, 100, 30_000));
}
