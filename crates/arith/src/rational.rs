//! Arbitrary-precision rational numbers.
//!
//! [`BigRational`] is an always-normalized fraction of [`BigInt`]s: the
//! denominator is strictly positive and `gcd(num, den) = 1`. It is the value
//! domain for the Real theory and the exact coefficient domain of the
//! simplex solver.
//!
//! When every numerator and denominator involved fits in an `i64`,
//! construction, `+`, `-`, `*`, `/` and comparison work on `i128` cross
//! products, which cannot overflow: a product of two `i64` values is at
//! most 2^126 in magnitude, and one with a denominator (positive, so at
//! most `i64::MAX`) is below it, so the sums in `+` and `-` stay below
//! 2^127.
//!
//! # Examples
//!
//! ```
//! use yinyang_arith::BigRational;
//!
//! let a = BigRational::new(1.into(), 3.into());
//! let b = BigRational::new(1.into(), 6.into());
//! assert_eq!((&a + &b).to_string(), "1/2");
//! ```

use crate::bigint::{gcd_u128, BigInt, ParseBigIntError};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number `num/den` with `den > 0` and `gcd(num, den) = 1`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigRational {
    num: BigInt,
    den: BigInt,
}

impl BigRational {
    /// Creates a rational from numerator and denominator, normalizing sign
    /// and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "BigRational with zero denominator");
        match (num.to_i64(), den.to_i64()) {
            (Some(n), Some(d)) => BigRational::reduce_i128(n.into(), d.into()),
            _ => BigRational::reduce(num, den),
        }
    }

    /// `num/den` in lowest terms, for `den != 0`, on [`BigInt`]s of any
    /// size: the general path of [`BigRational::new`].
    pub(crate) fn reduce(num: BigInt, den: BigInt) -> Self {
        let mut num = num;
        let mut den = den;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        let g = num.gcd(&den);
        if !g.is_zero() && g != BigInt::one() {
            num = num.div_rem(&g).0;
            den = den.div_rem(&g).0;
        }
        if num.is_zero() {
            den = BigInt::one();
        }
        BigRational { num, den }
    }

    /// `num/den` in lowest terms, for `den != 0` and both below 2^127 in
    /// magnitude.
    fn reduce_i128(num: i128, den: i128) -> Self {
        let g = gcd_u128(num.unsigned_abs(), den.unsigned_abs()) as i128;
        let (num, den) = if den < 0 { (-num / g, -den / g) } else { (num / g, den / g) };
        BigRational { num: BigInt::from(num), den: BigInt::from(den) }
    }

    /// `(a, b, c, d)` for `self = a/b` and `other = c/d` when all four fit
    /// in an `i64`.
    fn small_pair(&self, other: &BigRational) -> Option<(i128, i128, i128, i128)> {
        Some((
            self.num.to_i64()?.into(),
            self.den.to_i64()?.into(),
            other.num.to_i64()?.into(),
            other.den.to_i64()?.into(),
        ))
    }

    /// The rational `0`.
    pub fn zero() -> Self {
        BigRational { num: BigInt::zero(), den: BigInt::one() }
    }

    /// The rational `1`.
    pub fn one() -> Self {
        BigRational { num: BigInt::one(), den: BigInt::one() }
    }

    /// Builds an integer-valued rational.
    pub fn from_int(v: BigInt) -> Self {
        BigRational { num: v, den: BigInt::one() }
    }

    /// Numerator (sign-carrying, coprime with the denominator).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always strictly positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Returns `true` iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == BigInt::one()
    }

    /// Sign as `-1`, `0`, or `1`.
    pub fn signum(&self) -> i32 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(&self) -> BigRational {
        BigRational { num: self.num.abs(), den: self.den.clone() }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> BigRational {
        assert!(!self.is_zero(), "reciprocal of zero");
        BigRational::new(self.den.clone(), self.num.clone())
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        self.num.div_floor_big(&self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        -(-&self.num).div_floor_big(&self.den)
    }

    /// Approximate `f64` value.
    pub fn to_f64(&self) -> f64 {
        self.num.to_f64() / self.den.to_f64()
    }

    /// Parses an SMT-LIB decimal literal like `"1.5"` or `"0.0"` into an
    /// exact rational.
    ///
    /// # Errors
    ///
    /// Returns an error if `s` is not `digits` or `digits.digits` with an
    /// optional leading sign.
    pub fn from_decimal_str(s: &str) -> Result<Self, ParseBigIntError> {
        match s.split_once('.') {
            None => Ok(BigRational::from_int(s.parse()?)),
            Some((int_part, frac_part)) => {
                if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(ParseBigIntError::new("bad fraction digits"));
                }
                let neg = int_part.starts_with('-');
                let int: BigInt = int_part.parse()?;
                let frac: BigInt = frac_part.parse()?;
                let scale = BigInt::from(10i64).pow(frac_part.len() as u32);
                let mag = &int.abs() * &scale + frac;
                let num = if neg { -mag } else { mag };
                Ok(BigRational::new(num, scale))
            }
        }
    }

    /// Renders as an SMT-LIB-friendly decimal if the denominator is a
    /// product of 2s and 5s, otherwise as `(/ num den)` division notation is
    /// left to the printer; this returns `None` in that case.
    pub fn to_decimal_string(&self) -> Option<String> {
        let mut den = self.den.clone();
        let two = BigInt::from(2);
        let five = BigInt::from(5);
        let mut twos = 0u32;
        let mut fives = 0u32;
        while den.rem_euclid_big(&two).is_zero() {
            den = den.div_rem(&two).0;
            twos += 1;
        }
        while den.rem_euclid_big(&five).is_zero() {
            den = den.div_rem(&five).0;
            fives += 1;
        }
        if den != BigInt::one() {
            return None;
        }
        let shift = twos.max(fives);
        let scale = BigInt::from(10i64).pow(shift);
        let scaled = &self.num * &scale.div_rem(&self.den).0;
        let s = scaled.abs().to_string();
        let sign = if self.num.is_negative() { "-" } else { "" };
        if shift == 0 {
            return Some(format!("{sign}{s}.0"));
        }
        let digits = shift as usize;
        let padded = if s.len() <= digits {
            format!("{}{}", "0".repeat(digits + 1 - s.len()), s)
        } else {
            s
        };
        let (ip, fp) = padded.split_at(padded.len() - digits);
        Some(format!("{sign}{ip}.{fp}"))
    }
}

impl Default for BigRational {
    fn default() -> Self {
        BigRational::zero()
    }
}

impl From<i64> for BigRational {
    fn from(v: i64) -> Self {
        BigRational::from_int(BigInt::from(v))
    }
}

impl From<BigInt> for BigRational {
    fn from(v: BigInt) -> Self {
        BigRational::from_int(v)
    }
}

impl FromStr for BigRational {
    type Err = ParseBigIntError;

    /// Parses `"n"`, `"n/d"`, or `"n.d"` forms.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse()?;
            let den: BigInt = d.trim().parse()?;
            if den.is_zero() {
                return Err(ParseBigIntError::new("zero denominator"));
            }
            Ok(BigRational::new(num, den))
        } else {
            BigRational::from_decimal_str(s)
        }
    }
}

impl fmt::Display for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRational({self})")
    }
}

impl PartialOrd for BigRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigRational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        if let Some((a, b, c, d)) = self.small_pair(other) {
            return (a * d).cmp(&(c * b));
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        BigRational { num: -self.num, den: self.den }
    }
}

impl Neg for &BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        -self.clone()
    }
}

impl Add for &BigRational {
    type Output = BigRational;
    fn add(self, other: &BigRational) -> BigRational {
        if let Some((a, b, c, d)) = self.small_pair(other) {
            return BigRational::reduce_i128(a * d + c * b, b * d);
        }
        BigRational::new(&self.num * &other.den + &other.num * &self.den, &self.den * &other.den)
    }
}

impl Sub for &BigRational {
    type Output = BigRational;
    fn sub(self, other: &BigRational) -> BigRational {
        if let Some((a, b, c, d)) = self.small_pair(other) {
            return BigRational::reduce_i128(a * d - c * b, b * d);
        }
        BigRational::new(&self.num * &other.den - &other.num * &self.den, &self.den * &other.den)
    }
}

impl Mul for &BigRational {
    type Output = BigRational;
    fn mul(self, other: &BigRational) -> BigRational {
        if let Some((a, b, c, d)) = self.small_pair(other) {
            return BigRational::reduce_i128(a * c, b * d);
        }
        BigRational::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &BigRational {
    type Output = BigRational;

    /// # Panics
    ///
    /// Panics if `other` is zero.
    fn div(self, other: &BigRational) -> BigRational {
        assert!(!other.is_zero(), "BigRational division by zero");
        if let Some((a, b, c, d)) = self.small_pair(other) {
            return BigRational::reduce_i128(a * d, b * c);
        }
        BigRational::new(&self.num * &other.den, &self.den * &other.num)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigRational {
            type Output = BigRational;
            fn $method(self, other: BigRational) -> BigRational {
                (&self).$method(&other)
            }
        }
        impl $trait<&BigRational> for BigRational {
            type Output = BigRational;
            fn $method(self, other: &BigRational) -> BigRational {
                (&self).$method(other)
            }
        }
        impl $trait<BigRational> for &BigRational {
            type Output = BigRational;
            fn $method(self, other: BigRational) -> BigRational {
                self.$method(&other)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);

impl AddAssign<&BigRational> for BigRational {
    fn add_assign(&mut self, other: &BigRational) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigRational> for BigRational {
    fn sub_assign(&mut self, other: &BigRational) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigRational> for BigRational {
    fn mul_assign(&mut self, other: &BigRational) {
        *self = &*self * other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: i64, d: i64) -> BigRational {
        BigRational::new(n.into(), d.into())
    }

    #[test]
    fn normalization() {
        assert_eq!(q(2, 4), q(1, 2));
        assert_eq!(q(-2, -4), q(1, 2));
        assert_eq!(q(2, -4), q(-1, 2));
        assert_eq!(q(0, 7), BigRational::zero());
        assert_eq!(q(0, -7).denom(), &BigInt::one());
    }

    #[test]
    fn field_arithmetic() {
        assert_eq!(q(1, 2) + q(1, 3), q(5, 6));
        assert_eq!(q(1, 2) - q(1, 3), q(1, 6));
        assert_eq!(q(2, 3) * q(3, 4), q(1, 2));
        assert_eq!(q(1, 2) / q(1, 4), q(2, 1));
        assert_eq!(q(-1, 2) * q(-1, 2), q(1, 4));
    }

    #[test]
    fn ordering() {
        assert!(q(1, 3) < q(1, 2));
        assert!(q(-1, 2) < q(-1, 3));
        assert!(q(7, 7) == q(1, 1));
        assert!(q(-5, 1) < BigRational::zero());
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(q(7, 2).floor(), BigInt::from(3));
        assert_eq!(q(7, 2).ceil(), BigInt::from(4));
        assert_eq!(q(-7, 2).floor(), BigInt::from(-4));
        assert_eq!(q(-7, 2).ceil(), BigInt::from(-3));
        assert_eq!(q(4, 2).floor(), BigInt::from(2));
        assert_eq!(q(4, 2).ceil(), BigInt::from(2));
    }

    #[test]
    fn decimal_parsing() {
        assert_eq!(BigRational::from_decimal_str("1.5").unwrap(), q(3, 2));
        assert_eq!(BigRational::from_decimal_str("-0.25").unwrap(), q(-1, 4));
        assert_eq!(BigRational::from_decimal_str("7").unwrap(), q(7, 1));
        assert_eq!(BigRational::from_decimal_str("0.0").unwrap(), BigRational::zero());
        assert!(BigRational::from_decimal_str("1.").is_err());
        assert!(BigRational::from_decimal_str("1.x").is_err());
    }

    #[test]
    fn decimal_printing() {
        assert_eq!(q(3, 2).to_decimal_string().as_deref(), Some("1.5"));
        assert_eq!(q(-1, 4).to_decimal_string().as_deref(), Some("-0.25"));
        assert_eq!(q(7, 1).to_decimal_string().as_deref(), Some("7.0"));
        assert_eq!(q(1, 3).to_decimal_string(), None);
        assert_eq!(q(1, 10).to_decimal_string().as_deref(), Some("0.1"));
        assert_eq!(q(1, 8).to_decimal_string().as_deref(), Some("0.125"));
    }

    #[test]
    fn recip() {
        assert_eq!(q(2, 3).recip(), q(3, 2));
        assert_eq!(q(-2, 3).recip(), q(-3, 2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = BigRational::new(BigInt::one(), BigInt::zero());
    }

    #[test]
    fn parse_fraction_form() {
        assert_eq!("3/6".parse::<BigRational>().unwrap(), q(1, 2));
        assert_eq!("-3/6".parse::<BigRational>().unwrap(), q(-1, 2));
        assert!("1/0".parse::<BigRational>().is_err());
    }
}
