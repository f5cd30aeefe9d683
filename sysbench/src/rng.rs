//! The benchmark's only source of randomness: an in-file splitmix64, so
//! every generated input is a pure function of `(workload, seed)` and the
//! package needs no `rand` dependency.

/// Sebastiano Vigna's splitmix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named input of one seed: distinct tags give
    /// unrelated streams, so adding an input never shifts another's draws.
    pub fn for_input(seed: u64, tag: &str) -> Self {
        // FNV-1a over the tag, then one splitmix step to mix it with the seed.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in tag.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = SplitMix64(seed ^ hash);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-64 · n).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        match (hi - lo).checked_add(1) {
            Some(width) => lo + self.below(width),
            None => self.next_u64(),
        }
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_sequence() {
        // First outputs of splitmix64 seeded with 1234567 (Vigna's test vector).
        let mut rng = SplitMix64(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn bounded_draws_stay_in_range_and_shuffles_permute() {
        let mut rng = SplitMix64::for_input(7, "x");
        for _ in 0..1_000 {
            assert!(rng.below(3) < 3);
            assert!((10..=12).contains(&rng.between(10, 12)));
        }
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn tags_separate_streams() {
        let a = SplitMix64::for_input(1, "serve-paper").next_u64();
        let b = SplitMix64::for_input(1, "serve-grid").next_u64();
        let c = SplitMix64::for_input(2, "serve-paper").next_u64();
        assert!(a != b && a != c);
        assert_eq!(a, SplitMix64::for_input(1, "serve-paper").next_u64());
    }
}
