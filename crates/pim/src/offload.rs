//! The GPU-side Offloading Unit of A-TFIM.
//!
//! On a texture-cache miss the Offloading Unit packs the missing parent
//! texels into a package for the HMC. A hash table pairs every parent
//! texel with its byte offset to the *first* parent's address, so the
//! package carries one full address plus small offsets instead of N full
//! addresses — keeping the package at the paper's 4×-read-request size
//! even for an 8-parent fetch (§V-D).

use pimgfx_mem::packet;

/// Packs parent-texel misses into offload packages and accounts their
/// bytes.
///
/// # Examples
///
/// ```
/// use pimgfx_pim::OffloadUnit;
/// let mut u = OffloadUnit::new(true);
/// let bytes = u.package_bytes(&[0x1000, 0x1040, 0x1080]);
/// assert_eq!(bytes, 64, "compressed package = 4x read request");
/// ```
#[derive(Debug, Clone)]
pub struct OffloadUnit {
    compress: bool,
    packages: u64,
    bytes_sent: u64,
}

impl OffloadUnit {
    /// Creates the unit; `compress = false` disables the offset hash
    /// table (ablation) so every parent address ships in full.
    pub fn new(compress: bool) -> Self {
        Self {
            compress,
            packages: 0,
            bytes_sent: 0,
        }
    }

    /// Bytes of the offload package for a group of parent line
    /// addresses, and records the package.
    ///
    /// Compressed: one fixed-size package (header + base address + the
    /// offset hash table) per group — the paper's 4× read-request model,
    /// independent of how many parents it carries.
    /// Uncompressed: a command header plus a full 8-byte address per
    /// parent, so large groups grow linearly.
    pub fn package_bytes(&mut self, parent_addrs: &[u64]) -> u64 {
        if parent_addrs.is_empty() {
            return 0;
        }
        self.packages += 1;
        let bytes = if self.compress {
            packet::ATFIM_PARENT_PACKAGE_BYTES
        } else {
            packet::READ_REQUEST_BYTES + 8 * parent_addrs.len() as u64
        };
        self.bytes_sent += bytes;
        bytes
    }

    /// Bytes of the response carrying the approximated parent texels:
    /// formatted as a normal bilinear fetch result (§V-D, "the output
    /// package has the same format as a normal bilinear fetch").
    pub fn response_bytes(&self, parent_count: usize) -> u64 {
        if parent_count == 0 {
            return 0;
        }
        packet::RESPONSE_HEADER_BYTES
            + (parent_count as u64 * packet::TEXEL_BYTES).max(packet::CACHE_LINE_BYTES.min(64))
    }

    /// Packages sent so far.
    pub fn packages(&self) -> u64 {
        self.packages
    }

    /// Total request-direction bytes.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Clears statistics.
    pub fn reset(&mut self) {
        self.packages = 0;
        self.bytes_sent = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_package_is_fixed_size() {
        let mut u = OffloadUnit::new(true);
        assert_eq!(u.package_bytes(&[0x0]), 64);
        assert_eq!(u.package_bytes(&[0x0; 8]), 64);
        assert_eq!(u.packages(), 2);
        assert_eq!(u.bytes_sent(), 128);
    }

    #[test]
    fn uncompressed_scales_with_parents() {
        let mut u = OffloadUnit::new(false);
        assert_eq!(u.package_bytes(&[0x0; 8]), 16 + 8 * 8);
        // The fixed compressed package wins once the group is large: a
        // 32-parent quad batch costs 64 B compressed vs 272 B raw.
        let mut c = OffloadUnit::new(true);
        assert!(c.package_bytes(&[0x0; 32]) < u.package_bytes(&[0x0; 32]));
        // Tiny groups are cheaper raw — compression is a win on the
        // anisotropy-heavy content it was designed for, not universally.
        let mut c2 = OffloadUnit::new(true);
        let mut u2 = OffloadUnit::new(false);
        assert!(c2.package_bytes(&[0x0]) > u2.package_bytes(&[0x0]));
    }

    #[test]
    fn empty_group_costs_nothing() {
        let mut u = OffloadUnit::new(true);
        assert_eq!(u.package_bytes(&[]), 0);
        assert_eq!(u.packages(), 0);
    }

    #[test]
    fn response_is_header_plus_texels() {
        let u = OffloadUnit::new(true);
        assert_eq!(u.response_bytes(0), 0);
        let r8 = u.response_bytes(8);
        assert!(r8 >= packet::RESPONSE_HEADER_BYTES + 32);
    }

    #[test]
    fn reset_clears() {
        let mut u = OffloadUnit::new(true);
        u.package_bytes(&[1, 2]);
        u.reset();
        assert_eq!(u.packages(), 0);
        assert_eq!(u.bytes_sent(), 0);
    }
}
