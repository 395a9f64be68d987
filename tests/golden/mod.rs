//! The digester behind the golden-vector suites (`engine_spec`,
//! `keygen_equivalence`, `partition_golden`, `route_equivalence`,
//! `tinylfu_equivalence`): FNV-1a over 64-bit words. Each suite adds its
//! own fold helpers in an `impl Digest` block of its own.

/// FNV-1a over 64-bit words.
pub struct Digest(pub u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    /// Folds one word, little-endian byte by byte.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest as 16 lower-case hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
