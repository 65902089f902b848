//! [`Reservoir`]: the fixed-size uniform sample of RCS ids that bounds an
//! online adaptation's training set (`autoce::online::Reservoir`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed-size uniform sample over a growing sequence of RCS indices
/// (Vitter's Algorithm R, driven by the deterministic seeded `rand` shim):
/// what bounds an adaptation's training set. Fully deterministic given the
/// seed and the observation order.
pub struct Reservoir {
    capacity: usize,
    sample: Vec<usize>,
    seen: usize,
    rng: StdRng,
}

impl Reservoir {
    /// An empty reservoir holding at most `capacity` indices.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            capacity: capacity.max(1),
            sample: Vec::new(),
            seen: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x5e5e),
        }
    }

    /// A reservoir pre-populated by observing `0..n` (the initial RCS).
    pub fn over_initial(n: usize, capacity: usize, seed: u64) -> Self {
        let mut r = Self::new(capacity, seed);
        for i in 0..n {
            r.observe(i);
        }
        r
    }

    /// Observes one new index: kept outright while the reservoir is
    /// filling, then replaces a uniformly chosen victim with probability
    /// `capacity / seen` (Algorithm R).
    pub fn observe(&mut self, index: usize) {
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(index);
            return;
        }
        let j = self.rng.gen_range(0..self.seen);
        if j < self.capacity {
            self.sample[j] = index;
        }
    }

    /// Observes a newcomer and returns what an adaptation trains on: the
    /// sample plus the newcomer — which joins the update reservoir luck
    /// aside, being the whole reason it runs — ascending and deduplicated.
    pub(crate) fn sample_with(&mut self, newcomer: usize) -> Vec<usize> {
        self.observe(newcomer);
        let mut ids = self.sample.clone();
        ids.push(newcomer);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Total indices observed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }
}

#[cfg(test)]
impl Reservoir {
    /// The current sample (unordered; at most `capacity` indices).
    fn sample(&self) -> &[usize] {
        &self.sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_is_exact_below_capacity() {
        let mut r = Reservoir::over_initial(5, 8, 42);
        let mut s = r.sample().to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
        r.observe(5);
        assert_eq!(r.sample().len(), 6);
        assert_eq!(r.seen(), 6);
    }

    #[test]
    fn reservoir_bounds_sample_size_and_is_deterministic() {
        let build = || {
            let mut r = Reservoir::new(16, 7);
            for i in 0..1000 {
                r.observe(i);
            }
            r
        };
        let a = build();
        let b = build();
        assert_eq!(a.sample(), b.sample(), "seeded reservoir is deterministic");
        assert_eq!(a.sample().len(), 16);
        assert_eq!(a.seen(), 1000);
        // A different seed draws a different sample.
        let mut c = Reservoir::new(16, 8);
        for i in 0..1000 {
            c.observe(i);
        }
        assert_ne!(a.sample(), c.sample());
    }

    #[test]
    fn reservoir_sample_is_roughly_uniform() {
        // Mean of a uniform sample from 0..n should be near n/2; a grossly
        // biased reservoir (e.g. keeping only early or late indices) fails.
        let mut r = Reservoir::new(64, 3);
        for i in 0..10_000 {
            r.observe(i);
        }
        let mean = r.sample().iter().sum::<usize>() as f64 / r.sample().len() as f64;
        assert!(
            (2_000.0..8_000.0).contains(&mean),
            "sample mean {mean} too biased"
        );
    }
}
