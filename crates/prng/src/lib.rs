//! Deterministic pseudo-random numbers without external dependencies.
//!
//! The workspace must build and test with zero registry access, so the data
//! generator ([`xqd-xmark`]) and the randomized test suites use this small
//! SplitMix64 generator instead of the `rand` crate. SplitMix64 passes
//! BigCrush, has a full 2^64 period over its state, and — crucially for
//! tests — is trivially reproducible from a single `u64` seed.
//!
//! The API mirrors the subset of `rand` the workspace used: `gen_range`
//! over half-open integer ranges, `gen_bool`, and slice helpers.

/// Uniform `f64` in `[0, 1)` from the top 53 bits of `bits` — the same
/// construction `rand` uses for f64 sampling; every value is exact.
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// 64-bit FNV-1a of `bytes`: the seeded hash behind peer-targeted faults,
/// rendezvous replica scores and the normalizer's generated variable names.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// SplitMix64 generator (Steele, Lea & Flood, OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeds the generator. Every seed — including 0 — yields a distinct,
    /// full-period stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's multiply-shift rejection
    /// method — unbiased for every bound.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the half-open range `lo..hi` (`hi` exclusive).
    /// Panics if the range is empty, matching `rand`'s contract.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range called with empty range");
        range.start + self.bounded(range.end - range.start)
    }

    /// Uniform `usize` in `lo..hi`.
    pub fn gen_range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        unit_f64(self.next_u64()) < p
    }

    /// Uniformly chosen element of a non-empty slice, by value.
    pub fn choose<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.gen_range_usize(0..items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference values for seed 1234567 from the canonical C impl.
        let mut r = Rng::seed_from_u64(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn range_stays_in_bounds_and_covers() {
        let mut r = Rng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(5..15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws must cover a width-10 range");
    }

    #[test]
    fn gen_bool_stream_is_pinned() {
        let mut r = Rng::seed_from_u64(2024);
        let flips: String = (0..24).map(|_| if r.gen_bool(0.3) { '1' } else { '0' }).collect();
        assert_eq!(flips, "011100101000001000000010");
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut r = Rng::seed_from_u64(99);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "heads={heads}");
    }

    #[test]
    fn uniformity_over_small_range() {
        // chi-square-ish sanity: 8 buckets, 8000 draws, each bucket
        // within 25% of the expectation.
        let mut r = Rng::seed_from_u64(0xDEADBEEF);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.gen_range_usize(0..8)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((750..1250).contains(&b), "bucket {i} = {b}");
        }
    }
}
