//! Deterministic randomness for testbeds and schedulers.

use legion_core::hash::mix64;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Factory for deterministic, independently seeded RNG streams.
///
/// Every random decision in an experiment (random scheduler picks,
/// message-loss draws, background load walks) draws from a stream derived
/// from the testbed seed plus a purpose label, so adding randomness in
/// one component never perturbs another component's stream.
#[derive(Debug, Clone, Copy)]
pub struct DetRng {
    seed: u64,
}

impl DetRng {
    /// Creates a factory from a master seed.
    pub fn new(seed: u64) -> Self {
        DetRng { seed }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives a stream for a purpose label.
    pub fn stream(&self, label: &str) -> SmallRng {
        let mut h = self.seed;
        for b in label.bytes() {
            h = mix64(h ^ b as u64);
        }
        SmallRng::seed_from_u64(h)
    }

    /// Derives a stream for a purpose label and an index (e.g. per-host).
    pub fn stream_indexed(&self, label: &str, index: u64) -> SmallRng {
        let mut h = self.seed ^ mix64(index.wrapping_add(0x9E37_79B9));
        for b in label.bytes() {
            h = mix64(h ^ b as u64);
        }
        SmallRng::seed_from_u64(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let f = DetRng::new(42);
        let a: Vec<u32> = f.stream("x").sample_iter(rand::distributions::Standard).take(5).collect();
        let b: Vec<u32> = f.stream("x").sample_iter(rand::distributions::Standard).take(5).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = DetRng::new(42);
        let a: u64 = f.stream("x").gen();
        let b: u64 = f.stream("y").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = DetRng::new(1).stream("x").gen();
        let b: u64 = DetRng::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_are_independent() {
        let f = DetRng::new(7);
        let a: u64 = f.stream_indexed("host-load", 0).gen();
        let b: u64 = f.stream_indexed("host-load", 1).gen();
        assert_ne!(a, b);
    }
}
