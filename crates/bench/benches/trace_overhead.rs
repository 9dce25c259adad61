#![allow(missing_docs)]
//! Trace-layer overhead: the Fig. 3 placement pipeline with the
//! `legion-trace` sink disabled (the default), enabled, and enabled
//! with a per-iteration JSON export.
//!
//! The sink is designed to be lock-light — disabled guards are
//! no-ops and enabled spans take one short mutex hold at open/close —
//! so "disabled" should be indistinguishable from the seed pipeline
//! and "enabled" should cost a small constant per span.

use legion::prelude::*;
use legion_bench::bench_bed;
use legion_bench::harness::Exhibit;

fn main() {
    let g = Exhibit::new("trace_overhead");
    for mode in ["disabled", "enabled", "enabled_json"] {
        g.time_batched(
            format_args!("place_8/{mode}"),
            || {
                let (tb, class) = bench_bed(64, 64);
                if mode != "disabled" {
                    tb.fabric.enable_tracing();
                }
                (tb, class)
            },
            |(tb, class)| {
                let scheduler = RandomScheduler::new(1);
                let enactor = Enactor::new(tb.fabric.clone());
                let driver = ScheduleDriver::new(
                    std::sync::Arc::new(scheduler),
                    std::sync::Arc::new(enactor),
                );
                let report = driver
                    .place(&PlacementRequest::new().class(class, 8), &tb.ctx())
                    .expect("placement");
                if mode == "enabled_json" {
                    std::hint::black_box(legion::trace::trace_json(tb.fabric.tracer()));
                }
                report
            },
        );
    }
}
