#![allow(missing_docs)]
//! E-F2 (Fig. 2): per-layering placement latency.
//!
//! The paper: "Our mechanisms have cost that scales with capability —
//! the effort required to implement a simple policy is low, and rises
//! slowly". This bench times the same 4-object placement under each of
//! the four layering schemes.

use legion::prelude::*;
use legion::schedulers::{place_layered, LayeringScheme};
use legion_bench::bench_bed;
use legion_bench::harness::Exhibit;

fn main() {
    let g = Exhibit::new("fig2_layering");
    for scheme in LayeringScheme::ALL {
        g.time_batched(
            scheme.label(),
            || bench_bed(16, 7),
            |(tb, class)| {
                let enactor = std::sync::Arc::new(Enactor::new(tb.fabric.clone()));
                place_layered(scheme, &tb.ctx(), &enactor, class, 4, 9).expect("places")
            },
        );
    }
}
