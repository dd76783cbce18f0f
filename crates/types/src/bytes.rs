//! Byte-count newtype for traffic accounting.
//!
//! The paper's Figs. 2 and 12 are traffic measurements; keeping byte counts
//! in a dedicated type avoids mixing them with cycle counts or texel counts
//! in the statistics plumbing.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A number of bytes transferred or stored.
///
/// # Examples
///
/// ```
/// use pimgfx_types::ByteCount;
/// let request = ByteCount::new(16);
/// let cache_line = ByteCount::new(64);
/// assert_eq!((request + cache_line).get(), 80);
/// assert_eq!(ByteCount::from_kib(2).get(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ByteCount(u64);

impl ByteCount {
    /// Zero bytes.
    pub const ZERO: Self = Self(0);

    /// Creates a byte count.
    #[inline]
    pub const fn new(bytes: u64) -> Self {
        Self(bytes)
    }

    /// Creates a byte count from kibibytes.
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        Self(kib * 1024)
    }

    /// Creates a byte count from mebibytes.
    #[inline]
    pub const fn from_mib(mib: u64) -> Self {
        Self(mib * 1024 * 1024)
    }

    /// The raw byte value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Value in (fractional) mebibytes.
    #[inline]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by an event count (e.g. `bytes_per_request * requests`).
    #[inline]
    pub const fn times(self, n: u64) -> Self {
        Self(self.0 * n)
    }

    /// Ratio of this count to `base` (`NaN` if `base` is zero and `self`
    /// nonzero, `0.0` when both are zero).
    #[inline]
    pub fn ratio_to(self, base: Self) -> f64 {
        if base.0 == 0 {
            if self.0 == 0 {
                0.0
            } else {
                f64::NAN
            }
        } else {
            self.0 as f64 / base.0 as f64
        }
    }
}

impl Add for ByteCount {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for ByteCount {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteCount {
    type Output = Self;
    /// # Panics
    ///
    /// Panics on underflow in debug builds (standard integer semantics).
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Sum for ByteCount {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

impl fmt::Display for ByteCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * KIB;
        const GIB: u64 = 1024 * MIB;
        if self.0 >= GIB {
            write!(f, "{:.2} GiB", self.0 as f64 / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.2} MiB", self.0 as f64 / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.2} KiB", self.0 as f64 / KIB as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(ByteCount::from_kib(1).get(), 1024);
        assert_eq!(ByteCount::from_mib(1).get(), 1024 * 1024);
    }

    #[test]
    fn arithmetic() {
        let a = ByteCount::new(100);
        let b = ByteCount::new(28);
        assert_eq!((a + b).get(), 128);
        assert_eq!((a - b).get(), 72);
        assert_eq!(b.saturating_sub(a), ByteCount::ZERO);
        assert_eq!(a.times(3).get(), 300);
    }

    #[test]
    fn sum_over_iterator() {
        let total: ByteCount = (1..=4).map(ByteCount::new).sum();
        assert_eq!(total.get(), 10);
    }

    #[test]
    fn ratio_handles_zero_base() {
        assert_eq!(ByteCount::ZERO.ratio_to(ByteCount::ZERO), 0.0);
        assert!(ByteCount::new(5).ratio_to(ByteCount::ZERO).is_nan());
        assert_eq!(ByteCount::new(50).ratio_to(ByteCount::new(100)), 0.5);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteCount::new(512).to_string(), "512 B");
        assert_eq!(ByteCount::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(ByteCount::from_mib(3).to_string(), "3.00 MiB");
        assert_eq!(ByteCount::from_mib(2048).to_string(), "2.00 GiB");
    }
}
