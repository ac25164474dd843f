//! Tables keyed by integers — heap addresses, `(address, type)` pairs —
//! hashed by one SplitMix64 round per integer instead of SipHash.
//!
//! The keys are addresses a heap hands out or a peer announces, looked
//! up on every crossing; SipHash's defence against chosen keys costs
//! more there than the lookup does, and a peer that forges colliding
//! addresses slows only its own channel's tables.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map keyed by integers through [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Mixes each integer written into the state with one SplitMix64 round;
/// anything but an integer key is written a byte at a time.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        let z = (self.0 ^ n).wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
