//! SplitMix64: the workspace's one seeded stream of 64-bit values and its
//! finalizer.
//!
//! Every deterministic pseudo-random value the simulator and its tests draw
//! outside the workload generators comes from here: the H3 matrix rows of
//! the Bloom filters, the golden model's store values and fingerprint fold,
//! and the seeded reference tests. The generators draw from `rand`'s
//! `StdRng`, which the vendored stand-in seeds through its own copy of this
//! stream, as the crate it replaces does.

/// The stream's increment, `floor(2^64 / phi)` (odd).
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's finalizer: a bijection on `u64` with good avalanche, so
/// nearby inputs map to unrelated outputs.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: each value is [`mix64`] of the state after it is
/// advanced by [`GAMMA`].
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream whose first value is `mix64(seed + GAMMA)`.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_the_reference_splitmix64() {
        // The first values of the published SplitMix64 seeded with 0.
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(s.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(mix64(0), 0);
    }
}
