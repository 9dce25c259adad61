//! Shared helpers for the benchmark suite.
//!
//! Each exhibit bench times one paper exhibit's series on the
//! [`harness`] timer; the gated benches also write a `BENCH_*.json`
//! report; the `experiments` binary regenerates the shaped
//! (non-timing) tables. See DESIGN.md §4 for the exhibit → bench
//! mapping and EXPERIMENTS.md for recorded results.

pub mod harness;

use legion::prelude::*;

/// A bench-sized testbed: one domain, `hosts` Unix machines, Collection
/// populated, and a registered light worker class.
pub fn bench_bed(hosts: usize, seed: u64) -> (Testbed, Loid) {
    let tb = Testbed::build(TestbedConfig::local(hosts, seed));
    let class = tb.register_class("bench-worker", 10, 32);
    (tb, class)
}

/// A multi-domain bench testbed.
pub fn bench_bed_wide(domains: usize, per_domain: usize, seed: u64) -> (Testbed, Loid) {
    let tb = Testbed::build(TestbedConfig::wide(domains, per_domain, seed));
    let class = tb.register_class("bench-worker", 10, 32);
    (tb, class)
}

/// Blocks `n` hosts of the bed with whole-machine reservations.
pub fn block_hosts(tb: &Testbed, class: Loid, n: usize) {
    for h in tb.unix_hosts.iter().take(n) {
        let vault = h.get_compatible_vaults()[0];
        let req = ReservationRequest::instantaneous(
            class,
            vault,
            SimDuration::from_secs(1 << 20),
        )
        .with_type(ReservationType::REUSABLE_SPACE);
        h.make_reservation(&req, tb.fabric.clock().now())
            .expect("blocking reservation");
    }
    tb.tick(SimDuration::from_secs(1));
}
