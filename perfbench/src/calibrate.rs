//! Machine-speed calibration for the end-to-end timings.
//!
//! The shared machines this benchmark runs on change speed for minutes at
//! a time: a slow phase stretches every replay of a run, and the set-up,
//! by up to half. A fixed piece of reference work, owned by the benchmark
//! and untouched by any change to the system under test, slows with them.
//! The run times the reference around every replay and rescales its
//! timings to a machine on which the reference takes [`NOMINAL_NS`].

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Reference time the end-to-end timings are rescaled to: about what the
/// reference takes on a 2-vCPU cloud VM in its fast phase.
pub const NOMINAL_NS: f64 = 8e6;

/// Times one pass of the reference work, in nanoseconds.
pub fn reference_ns() -> f64 {
    let t0 = Instant::now();
    work();
    t0.elapsed().as_nanos() as f64
}

/// The reference work. It mixes what the placement path does most:
/// string formatting and hashing, small allocations, shared pointers and
/// ordered-map inserts and range lookups.
fn work() {
    let mut by_host: HashMap<String, Vec<u64>> = HashMap::new();
    let mut ordered: BTreeMap<u64, Arc<String>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        by_host.entry(format!("host-{}", x % 2048)).or_default().push(i);
        ordered.insert(x % 8192, Arc::new(i.to_string()));
        if let Some((_, v)) = ordered.range(x % 4096..).next() {
            acc = acc.wrapping_add(v.len() as u64);
        }
    }
    acc = acc.wrapping_add(by_host.values().map(|v| v.len() as u64).sum::<u64>());
    std::hint::black_box(acc);
}
