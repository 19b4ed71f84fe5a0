//! Fixed-point currency arithmetic.
//!
//! All money in the simulator is represented as an [`Amount`]: a signed count
//! of *micro-units* (10⁻⁶ of one token, e.g. one XRP). Using integers instead
//! of `f64` makes conservation-of-funds an exact invariant — every unit that
//! leaves one side of a payment channel arrives on the other side, with no
//! rounding drift over millions of simulated transfers.
//!
//! Optimization code (LP solvers, fluid models) works in `f64` and converts
//! at the boundary via [`Amount::from_tokens`] / [`Amount::as_tokens`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of micro-units per whole token.
pub const MICROS_PER_TOKEN: i64 = 1_000_000;

/// A signed, fixed-point amount of currency, stored in micro-units.
///
/// `Amount` supports exact addition and subtraction. Multiplication by a
/// scalar ratio rounds to the nearest micro-unit. Arithmetic panics on
/// overflow in debug builds (like native integer math); use the `checked_*`
/// methods where overflow is a reachable condition.
///
/// ```
/// use spider_core::Amount;
/// let a = Amount::from_tokens(1.5);
/// let b = Amount::from_tokens(0.25);
/// assert_eq!((a + b).as_tokens(), 1.75);
/// assert_eq!(a.micros(), 1_500_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Amount(i64);

impl Amount {
    /// Zero tokens.
    pub const ZERO: Amount = Amount(0);
    /// The largest representable amount.
    pub const MAX: Amount = Amount(i64::MAX);
    /// The smallest (most negative) representable amount.
    pub const MIN: Amount = Amount(i64::MIN);
    /// One whole token.
    pub const ONE: Amount = Amount(MICROS_PER_TOKEN);

    /// Creates an amount from a raw count of micro-units.
    #[inline]
    pub const fn from_micros(micros: i64) -> Self {
        Amount(micros)
    }

    /// Creates an amount from a whole number of tokens.
    #[inline]
    pub const fn from_whole(tokens: i64) -> Self {
        Amount(tokens * MICROS_PER_TOKEN)
    }

    /// Creates an amount from a fractional token value, rounding to the
    /// nearest micro-unit.
    ///
    /// # Panics
    /// Panics if `tokens` is not finite or is out of the representable range.
    #[inline]
    pub fn from_tokens(tokens: f64) -> Self {
        assert!(
            tokens.is_finite(),
            "Amount::from_tokens({tokens}): not finite"
        );
        let micros = (tokens * MICROS_PER_TOKEN as f64).round();
        assert!(
            in_i64_range(micros),
            "Amount::from_tokens({tokens}): out of range"
        );
        Amount(micros as i64)
    }

    /// The raw micro-unit count.
    #[inline]
    pub const fn micros(self) -> i64 {
        self.0
    }

    /// The value in whole tokens as a float (lossy for huge amounts).
    #[inline]
    pub fn as_tokens(self) -> f64 {
        self.0 as f64 / MICROS_PER_TOKEN as f64
    }

    /// `true` if this amount is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` if this amount is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// `true` if this amount is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Absolute value.
    #[inline]
    pub const fn abs(self) -> Self {
        Amount(self.0.abs())
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_add(rhs.0).map(Amount)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a non-negative ratio, rounding to the nearest micro-unit.
    ///
    /// # Panics
    /// Panics if `ratio` is not finite or the result overflows.
    #[inline]
    pub fn scale(self, ratio: f64) -> Amount {
        assert!(ratio.is_finite(), "Amount::scale({ratio}): not finite");
        let scaled = (self.0 as f64 * ratio).round();
        assert!(in_i64_range(scaled), "Amount::scale: overflow");
        Amount(scaled as i64)
    }

    /// The smaller of two amounts.
    #[inline]
    pub fn min(self, other: Amount) -> Amount {
        Amount(self.0.min(other.0))
    }

    /// The larger of two amounts.
    #[inline]
    pub fn max(self, other: Amount) -> Amount {
        Amount(self.0.max(other.0))
    }

    /// Clamps to `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Amount, hi: Amount) -> Amount {
        Amount(self.0.clamp(lo.0, hi.0))
    }

    /// The ratio `self / other` as a float; `0.0` when `other` is zero.
    #[inline]
    pub fn ratio_of(self, other: Amount) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

/// `true` iff the (integral) float `v` fits in `i64` exactly.
///
/// The naive bound `v <= i64::MAX as f64` is itself lossy: `i64::MAX`
/// (2⁶³ − 1) is not representable in `f64` — the nearest values are
/// 2⁶³ − 1024 and 2⁶³ — so the comparison accepts 2⁶³, which an `as` cast
/// then silently saturates to `i64::MAX`. The valid range is exactly
/// `[-2⁶³, 2⁶³)`; both endpoints are representable, so the check is exact.
/// (NaN fails both comparisons and is rejected.)
#[inline]
fn in_i64_range(v: f64) -> bool {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exactly representable
    (-TWO_63..TWO_63).contains(&v)
}

impl Add for Amount {
    type Output = Amount;
    #[inline]
    fn add(self, rhs: Amount) -> Amount {
        Amount(self.0 + rhs.0)
    }
}

impl AddAssign for Amount {
    #[inline]
    fn add_assign(&mut self, rhs: Amount) {
        self.0 += rhs.0;
    }
}

impl Sub for Amount {
    type Output = Amount;
    #[inline]
    fn sub(self, rhs: Amount) -> Amount {
        Amount(self.0 - rhs.0)
    }
}

impl SubAssign for Amount {
    #[inline]
    fn sub_assign(&mut self, rhs: Amount) {
        self.0 -= rhs.0;
    }
}

impl Neg for Amount {
    type Output = Amount;
    #[inline]
    fn neg(self) -> Amount {
        Amount(-self.0)
    }
}

impl Mul<i64> for Amount {
    type Output = Amount;
    #[inline]
    fn mul(self, rhs: i64) -> Amount {
        Amount(self.0 * rhs)
    }
}

impl Div<i64> for Amount {
    type Output = Amount;
    #[inline]
    fn div(self, rhs: i64) -> Amount {
        Amount(self.0 / rhs)
    }
}

impl Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |acc, a| acc + a)
    }
}

impl<'a> Sum<&'a Amount> for Amount {
    fn sum<I: Iterator<Item = &'a Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |acc, a| acc + *a)
    }
}

impl fmt::Debug for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Amount({})", self)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / MICROS_PER_TOKEN;
        let frac = (self.0 % MICROS_PER_TOKEN).abs();
        if frac == 0 {
            write!(f, "{whole}")
        } else {
            let sign = if self.0 < 0 && whole == 0 { "-" } else { "" };
            let mut s = format!("{:06}", frac);
            while s.ends_with('0') {
                s.pop();
            }
            write!(f, "{sign}{whole}.{s}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Amount::from_whole(3).micros(), 3_000_000);
        assert_eq!(Amount::from_tokens(2.5).micros(), 2_500_000);
        assert_eq!(Amount::from_micros(42).micros(), 42);
        assert_eq!(Amount::from_tokens(-1.25).as_tokens(), -1.25);
    }

    #[test]
    fn basic_arithmetic() {
        let a = Amount::from_whole(5);
        let b = Amount::from_whole(2);
        assert_eq!(a + b, Amount::from_whole(7));
        assert_eq!(a - b, Amount::from_whole(3));
        assert_eq!(-a, Amount::from_whole(-5));
        assert_eq!(a * 3, Amount::from_whole(15));
        assert_eq!(a / 2, Amount::from_tokens(2.5));
    }

    #[test]
    fn predicates() {
        assert!(Amount::ZERO.is_zero());
        assert!(Amount::ONE.is_positive());
        assert!((-Amount::ONE).is_negative());
        assert!(!Amount::ZERO.is_positive());
        assert_eq!((-Amount::ONE).abs(), Amount::ONE);
    }

    #[test]
    fn min_max_clamp() {
        let a = Amount::from_whole(1);
        let b = Amount::from_whole(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Amount::from_whole(20).clamp(a, b), b);
        assert_eq!(Amount::from_whole(-3).clamp(a, b), a);
    }

    #[test]
    fn checked_and_saturating() {
        assert_eq!(Amount::MAX.checked_add(Amount::ONE), None);
        assert_eq!(Amount::MAX.saturating_add(Amount::ONE), Amount::MAX);
        assert_eq!(
            Amount::from_whole(1).checked_add(Amount::from_whole(2)),
            Some(Amount::from_whole(3))
        );
    }

    #[test]
    fn scale_rounds_to_nearest() {
        let a = Amount::from_micros(10);
        assert_eq!(a.scale(0.25).micros(), 3); // 2.5 rounds to 3 (round half away from zero)
        assert_eq!(a.scale(0.5).micros(), 5);
        assert_eq!(Amount::from_whole(100).scale(0.1), Amount::from_whole(10));
    }

    #[test]
    fn ratio_of_handles_zero() {
        assert_eq!(Amount::ONE.ratio_of(Amount::ZERO), 0.0);
        assert_eq!(Amount::from_whole(1).ratio_of(Amount::from_whole(4)), 0.25);
    }

    #[test]
    fn sum_iterator() {
        let v = vec![
            Amount::from_whole(1),
            Amount::from_whole(2),
            Amount::from_whole(3),
        ];
        let s: Amount = v.iter().sum();
        assert_eq!(s, Amount::from_whole(6));
        let s2: Amount = v.into_iter().sum();
        assert_eq!(s2, Amount::from_whole(6));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Amount::from_whole(3).to_string(), "3");
        assert_eq!(Amount::from_tokens(2.5).to_string(), "2.5");
        assert_eq!(Amount::from_micros(1).to_string(), "0.000001");
        assert_eq!(Amount::from_tokens(-0.5).to_string(), "-0.5");
        assert_eq!(Amount::from_tokens(-1.5).to_string(), "-1.5");
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn from_tokens_rejects_nan() {
        let _ = Amount::from_tokens(f64::NAN);
    }

    #[test]
    fn micros_range_check_is_exact_at_i64_boundaries() {
        const TWO_63: f64 = 9_223_372_036_854_775_808.0;
        // 2^63 micros is representable in f64 but NOT in i64. The old bound
        // `micros <= i64::MAX as f64` compared against 2^63 and accepted it,
        // after which the `as` cast silently saturated to i64::MAX. This is
        // the bug the money-safety lint exists to prevent.
        assert!(!in_i64_range(TWO_63));
        // The largest f64 below 2^63 is 2^63 - 1024: valid, casts exactly.
        assert!(in_i64_range(TWO_63 - 1024.0));
        assert_eq!((TWO_63 - 1024.0) as i64, i64::MAX - 1023);
        // -2^63 == i64::MIN is representable and valid...
        assert!(in_i64_range(-TWO_63));
        assert_eq!((-TWO_63) as i64, i64::MIN);
        // ...but the next f64 below it (-(2^63 + 2048)) is not.
        assert!(!in_i64_range(-(TWO_63 + 2048.0)));
        assert!(!in_i64_range(f64::NAN));
        assert!(!in_i64_range(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_tokens_panics_instead_of_saturating() {
        // 9_223_372_036_855 tokens = 2^63 + ~2.2e5 micros: over the line.
        // Pre-fix this could silently saturate; now it must panic.
        let _ = Amount::from_tokens(9_223_372_036_855.0);
    }

    proptest! {
        #[test]
        fn prop_add_sub_inverse(a in -1_000_000_000_000i64..1_000_000_000_000i64,
                                b in -1_000_000_000_000i64..1_000_000_000_000i64) {
            let x = Amount::from_micros(a);
            let y = Amount::from_micros(b);
            prop_assert_eq!(x + y - y, x);
        }

        #[test]
        fn prop_tokens_round_trip(a in -1_000_000_000i64..1_000_000_000i64) {
            let x = Amount::from_micros(a);
            prop_assert_eq!(Amount::from_tokens(x.as_tokens()), x);
        }

        #[test]
        fn prop_ordering_consistent(a in any::<i32>(), b in any::<i32>()) {
            let x = Amount::from_micros(a as i64);
            let y = Amount::from_micros(b as i64);
            prop_assert_eq!(x < y, a < b);
        }

        #[test]
        fn prop_scale_identity(a in -1_000_000_000i64..1_000_000_000i64) {
            let x = Amount::from_micros(a);
            prop_assert_eq!(x.scale(1.0), x);
        }
    }
}
