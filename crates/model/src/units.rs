//! Data sizes and link bandwidths.
//!
//! Newtypes keep byte counts and bit rates from being confused with each
//! other or with raw integers, and centralize the single place where a
//! transfer time is derived from a size and a bandwidth.

use core::fmt;
use core::iter::Sum;
use core::ops::Add;

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// A data size in bytes (the paper's `|d|`).
///
/// # Examples
///
/// ```
/// use dstage_model::units::Bytes;
///
/// assert_eq!(Bytes::from_mib(1), Bytes::from_kib(1024));
/// assert_eq!(Bytes::from_kib(10).as_u64(), 10_240);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Bytes(u64);

/// A link bandwidth in bits per second.
///
/// # Examples
///
/// ```
/// use dstage_model::units::BitsPerSec;
///
/// assert_eq!(BitsPerSec::from_kbps(10).as_u64(), 10_000);
/// assert_eq!(BitsPerSec::from_mbps(1).as_u64(), 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct BitsPerSec(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a size from a raw byte count.
    #[must_use]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a size from binary kilobytes (KiB).
    #[must_use]
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1_024)
    }

    /// Creates a size from binary megabytes (MiB).
    #[must_use]
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1_024 * 1_024)
    }

    /// Creates a size from binary gigabytes (GiB).
    #[must_use]
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * 1_024 * 1_024 * 1_024)
    }

    /// The raw byte count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The size in bits.
    #[must_use]
    pub const fn bits(self) -> u128 {
        self.0 as u128 * 8
    }

    /// Saturating subtraction; clamps at zero.
    #[must_use]
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    #[must_use]
    pub fn checked_add(self, other: Bytes) -> Option<Bytes> {
        self.0.checked_add(other.0).map(Bytes)
    }
}

impl BitsPerSec {
    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero: a zero-bandwidth link can never carry data
    /// and would make transfer times undefined.
    #[must_use]
    pub fn new(bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        BitsPerSec(bps)
    }

    /// Creates a bandwidth from kilobits per second (10^3 bits).
    #[must_use]
    pub fn from_kbps(kbps: u64) -> Self {
        BitsPerSec::new(kbps * 1_000)
    }

    /// Creates a bandwidth from megabits per second (10^6 bits).
    #[must_use]
    pub fn from_mbps(mbps: u64) -> Self {
        BitsPerSec::new(mbps * 1_000_000)
    }

    /// The raw bits-per-second value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The time needed to push `size` through this link, rounded up to the
    /// next millisecond (the model's time quantum).
    ///
    /// This is the pure serialization delay; per-link latency is added by
    /// the caller (see `VirtualLink::transfer_time`).
    ///
    /// # Examples
    ///
    /// ```
    /// use dstage_model::units::{BitsPerSec, Bytes};
    /// use dstage_model::time::SimDuration;
    ///
    /// // 1000 bits over 1000 bit/s = exactly one second.
    /// let bw = BitsPerSec::new(1_000);
    /// assert_eq!(bw.serialization_delay(Bytes::new(125)), SimDuration::from_secs(1));
    /// // 1 extra bit rounds up to the next millisecond.
    /// assert_eq!(
    ///     bw.serialization_delay(Bytes::new(126)),
    ///     SimDuration::from_millis(1_008)
    /// );
    /// ```
    #[must_use]
    #[inline]
    pub fn serialization_delay(self, size: Bytes) -> SimDuration {
        // ceil(bits * 1000 / bps) milliseconds, in `u64` whenever
        // `bits * 1000` fits (every size below ~2.3 PB): a `u128`
        // division is a library call.
        let ms = match size.as_u64().checked_mul(8_000) {
            Some(milli_bits) => milli_bits.div_ceil(self.0),
            None => {
                let ms = (size.bits() * 1_000).div_ceil(u128::from(self.0));
                u64::try_from(ms).unwrap_or(u64::MAX)
            }
        };
        SimDuration::from_millis(ms)
    }
}

impl Add for Bytes {
    type Output = Bytes;

    /// # Panics
    ///
    /// Panics on overflow in debug builds.
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1_024;
        const MIB: u64 = 1_024 * 1_024;
        const GIB: u64 = 1_024 * 1_024 * 1_024;
        if self.0 >= GIB && self.0.is_multiple_of(GIB) {
            write!(f, "{}GiB", self.0 / GIB)
        } else if self.0 >= MIB && self.0.is_multiple_of(MIB) {
            write!(f, "{}MiB", self.0 / MIB)
        } else if self.0 >= KIB && self.0.is_multiple_of(KIB) {
            write!(f, "{}KiB", self.0 / KIB)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl fmt::Display for BitsPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}Mbit/s", self.0 / 1_000_000)
        } else if self.0 >= 1_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{}Kbit/s", self.0 / 1_000)
        } else {
            write!(f, "{}bit/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors_scale_binary() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1_024);
        assert_eq!(Bytes::from_mib(1).as_u64(), 1_048_576);
        assert_eq!(Bytes::from_gib(1).as_u64(), 1_073_741_824);
    }

    #[test]
    fn bandwidth_constructors_scale_decimal() {
        assert_eq!(BitsPerSec::from_kbps(10).as_u64(), 10_000);
        assert_eq!(BitsPerSec::from_mbps(2).as_u64(), 2_000_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = BitsPerSec::new(0);
    }

    #[test]
    fn serialization_delay_exact_division() {
        // 1 MB over 1 Mbit/s: 8_388_608 bits / 1e6 bps = 8.388608 s -> ceil ms.
        let d = BitsPerSec::from_mbps(1).serialization_delay(Bytes::from_mib(1));
        assert_eq!(d, SimDuration::from_millis(8_389));
    }

    #[test]
    fn serialization_delay_rounds_up() {
        let bw = BitsPerSec::new(8_000); // 1 byte per ms
        assert_eq!(bw.serialization_delay(Bytes::new(10)), SimDuration::from_millis(10));
        let bw = BitsPerSec::new(8_001);
        assert_eq!(bw.serialization_delay(Bytes::new(10)), SimDuration::from_millis(10));
        let bw = BitsPerSec::new(7_999);
        assert_eq!(bw.serialization_delay(Bytes::new(10)), SimDuration::from_millis(11));
    }

    #[test]
    fn serialization_delay_zero_size_is_zero() {
        let bw = BitsPerSec::from_kbps(10);
        assert_eq!(bw.serialization_delay(Bytes::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn paper_scale_transfer_times() {
        // Largest item over slowest paper link: 100 MB over 10 Kbit/s.
        let d = BitsPerSec::from_kbps(10).serialization_delay(Bytes::from_mib(100));
        // 838_860_800 bits / 10_000 bps = 83_886.08 s ≈ 23.3 hours.
        assert_eq!(d.as_millis(), 83_886_080);
        // Smallest item over fastest paper link: 10 KB over 1.5 Mbit/s.
        let d = BitsPerSec::new(1_500_000).serialization_delay(Bytes::from_kib(10));
        assert_eq!(d.as_millis(), 55); // 81_920 bits / 1.5e6 bps = 54.6 ms
    }

    #[test]
    fn the_u64_path_equals_the_u128_division() {
        let wide = |bw: BitsPerSec, size: Bytes| {
            let ms = (size.bits() * 1_000).div_ceil(u128::from(bw.as_u64()));
            SimDuration::from_millis(u64::try_from(ms).unwrap_or(u64::MAX))
        };
        // `bits * 1000` overflows `u64` from this size on.
        let edge = u64::MAX / 8_000 + 1;
        let sizes = [
            0,
            1,
            edge - 2,
            edge - 1,
            edge,
            edge + 1,
            u64::MAX / 8,
            u64::MAX,
            Bytes::from_kib(10).as_u64(),
            Bytes::from_mib(100).as_u64(),
        ];
        let rates = [1, 3, 7, 999, 10_000, 1_500_000, 8_000_000_000, u64::MAX / 2, u64::MAX];
        for size in sizes.map(Bytes::new) {
            for bw in rates.map(BitsPerSec::new) {
                assert_eq!(bw.serialization_delay(size), wide(bw, size), "{size} over {bw}");
            }
        }
        assert!(Bytes::new(edge - 1).as_u64().checked_mul(8_000).is_some());
        assert!(Bytes::new(edge).as_u64().checked_mul(8_000).is_none());
    }

    #[test]
    fn bytes_sum_and_saturating_sub() {
        let total: Bytes = [Bytes::new(1), Bytes::new(2), Bytes::new(3)].into_iter().sum();
        assert_eq!(total, Bytes::new(6));
        assert_eq!(Bytes::new(5).saturating_sub(Bytes::new(9)), Bytes::ZERO);
        assert_eq!(Bytes::new(9).saturating_sub(Bytes::new(5)), Bytes::new(4));
    }

    #[test]
    fn display_picks_largest_exact_unit() {
        assert_eq!(Bytes::from_gib(20).to_string(), "20GiB");
        assert_eq!(Bytes::from_mib(3).to_string(), "3MiB");
        assert_eq!(Bytes::new(1_025).to_string(), "1025B");
        assert_eq!(BitsPerSec::from_kbps(1_500).to_string(), "1500Kbit/s");
        assert_eq!(BitsPerSec::from_mbps(2).to_string(), "2Mbit/s");
        assert_eq!(BitsPerSec::new(42).to_string(), "42bit/s");
    }
}
