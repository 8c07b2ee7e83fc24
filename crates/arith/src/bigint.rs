//! Arbitrary-precision signed integers.
//!
//! [`BigInt`] holds a value that fits in an `i64` inline and any other
//! value as a sign and a little-endian `u32` limb magnitude. It provides
//! exactly the operations the SMT substrate needs: ring arithmetic,
//! ordering, Euclidean division/remainder (the SMT-LIB `div`/`mod`
//! semantics), floor/truncating division, gcd, parity, and decimal
//! conversion.
//!
//! Every operation on two inline values takes a checked `i64` path and,
//! on overflow, promotes through `i128` to limbs; every result that fits
//! in an `i64` is stored inline again, so arithmetic on the small
//! coefficients that simplex pivots and evaluation mostly see does not
//! allocate.
//!
//! # Examples
//!
//! ```
//! use yinyang_arith::BigInt;
//!
//! let a = BigInt::from(-7);
//! let b = BigInt::from(2);
//! // SMT-LIB Euclidean semantics: remainder is always non-negative.
//! assert_eq!(a.div_euclid_big(&b), BigInt::from(-4));
//! assert_eq!(a.rem_euclid_big(&b), BigInt::from(1));
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a limb-form value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sign {
    /// Strictly negative.
    Minus,
    /// Zero.
    Zero,
    /// Strictly positive.
    Plus,
}

impl Sign {
    fn of(v: i64) -> Sign {
        match v.cmp(&0) {
            Ordering::Less => Sign::Minus,
            Ordering::Equal => Sign::Zero,
            Ordering::Greater => Sign::Plus,
        }
    }

    fn flip(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }
}

/// The two forms of a [`BigInt`]; see its invariant.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// A value that fits in an `i64`.
    Small(i64),
    /// A value outside `i64`: `sign` is never `Zero`, and `mag` has no
    /// trailing zero limb.
    Large { sign: Sign, mag: Vec<u32> },
}

/// An arbitrary-precision signed integer.
///
/// The representation is canonical: a value is stored as `Small` if and
/// only if it fits in an `i64`, and a `Large` magnitude is trimmed. Equal
/// values therefore have equal representations, which is what makes the
/// derived `PartialEq`, `Eq` and `Hash` agree with numeric equality.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    repr: Repr,
}

/// Error returned when parsing a [`BigInt`] or
/// [`BigRational`](crate::BigRational) from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    kind: &'static str,
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal: {}", self.kind)
    }
}

impl std::error::Error for ParseBigIntError {}

impl ParseBigIntError {
    pub(crate) fn new(kind: &'static str) -> Self {
        ParseBigIntError { kind }
    }
}

// ---------------------------------------------------------------------------
// Magnitude (unsigned) helpers. All operate on little-endian u32 slices with
// no trailing zeros expected on input; outputs are trimmed.
// ---------------------------------------------------------------------------

fn trim(mag: &mut Vec<u32>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn mag_cmp(a: &[u32], b: &[u32]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let s = long[i] as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
        out.push(s as u32);
        carry = s >> 32;
    }
    if carry != 0 {
        out.push(carry as u32);
    }
    out
}

/// Computes `a - b`; requires `a >= b`.
fn mag_sub(a: &[u32], b: &[u32]) -> Vec<u32> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i64;
    for i in 0..a.len() {
        let d = a[i] as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
        if d < 0 {
            out.push((d + (1i64 << 32)) as u32);
            borrow = 1;
        } else {
            out.push(d as u32);
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0);
    trim(&mut out);
    out
}

fn mag_mul(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u32; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u64;
        for (j, &y) in b.iter().enumerate() {
            let t = out[i + j] as u64 + x as u64 * y as u64 + carry;
            out[i + j] = t as u32;
            carry = t >> 32;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u64 + carry;
            out[k] = t as u32;
            carry = t >> 32;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

fn mag_bit(a: &[u32], bit: usize) -> bool {
    let limb = bit / 32;
    limb < a.len() && (a[limb] >> (bit % 32)) & 1 == 1
}

fn mag_bits(a: &[u32]) -> usize {
    match a.last() {
        None => 0,
        Some(&top) => (a.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
    }
}

fn mag_shl1_add_bit(acc: &mut Vec<u32>, bit: bool) {
    let mut carry = bit as u32;
    for limb in acc.iter_mut() {
        let t = ((*limb as u64) << 1) | carry as u64;
        *limb = t as u32;
        carry = (t >> 32) as u32;
    }
    if carry != 0 {
        acc.push(carry);
    }
}

/// Binary long division: returns `(quotient, remainder)` of `a / b`.
///
/// `b` must be non-zero. O(bits(a) * len(b)) — fine for the limb counts this
/// workspace produces (coefficients stay small after rational normalization).
fn mag_divrem(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
    assert!(!b.is_empty(), "division by zero magnitude");
    if mag_cmp(a, b) == Ordering::Less {
        return (Vec::new(), a.to_vec());
    }
    // Fast path: single-limb divisor.
    if b.len() == 1 {
        let d = b[0] as u64;
        let mut q = vec![0u32; a.len()];
        let mut rem = 0u64;
        for i in (0..a.len()).rev() {
            let cur = (rem << 32) | a[i] as u64;
            q[i] = (cur / d) as u32;
            rem = cur % d;
        }
        trim(&mut q);
        let mut r = vec![rem as u32];
        trim(&mut r);
        return (q, r);
    }
    let nbits = mag_bits(a);
    let mut quot = vec![0u32; a.len()];
    let mut rem: Vec<u32> = Vec::with_capacity(b.len() + 1);
    for bit in (0..nbits).rev() {
        mag_shl1_add_bit(&mut rem, mag_bit(a, bit));
        if mag_cmp(&rem, b) != Ordering::Less {
            rem = mag_sub(&rem, b);
            quot[bit / 32] |= 1 << (bit % 32);
        }
    }
    trim(&mut quot);
    trim(&mut rem);
    (quot, rem)
}

/// Greatest common divisor of two machine words (binary gcd; `gcd(0, 0) = 0`).
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

// ---------------------------------------------------------------------------
// The limb path: every operation on sign and magnitude. It serves every
// operand outside `i64` and is the differential oracle for the fast path.
// ---------------------------------------------------------------------------

pub(crate) fn limb_cmp(a: &BigInt, b: &BigInt) -> Ordering {
    let (mut ab, mut bb) = ([0; 2], [0; 2]);
    let (sa, ma) = a.parts(&mut ab);
    let (sb, mb) = b.parts(&mut bb);
    let rank = |s: Sign| match s {
        Sign::Minus => 0,
        Sign::Zero => 1,
        Sign::Plus => 2,
    };
    match rank(sa).cmp(&rank(sb)) {
        Ordering::Equal => {}
        other_ord => return other_ord,
    }
    match sa {
        Sign::Zero => Ordering::Equal,
        Sign::Plus => mag_cmp(ma, mb),
        Sign::Minus => mag_cmp(mb, ma),
    }
}

pub(crate) fn limb_neg(a: &BigInt) -> BigInt {
    let mut buf = [0; 2];
    let (sign, mag) = a.parts(&mut buf);
    BigInt::from_mag(sign.flip(), mag.to_vec())
}

pub(crate) fn limb_add(a: &BigInt, b: &BigInt) -> BigInt {
    let (mut ab, mut bb) = ([0; 2], [0; 2]);
    let (sa, ma) = a.parts(&mut ab);
    let (sb, mb) = b.parts(&mut bb);
    match (sa, sb) {
        (Sign::Zero, _) => b.clone(),
        (_, Sign::Zero) => a.clone(),
        (x, y) if x == y => BigInt::from_mag(x, mag_add(ma, mb)),
        _ => match mag_cmp(ma, mb) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_mag(sa, mag_sub(ma, mb)),
            Ordering::Less => BigInt::from_mag(sb, mag_sub(mb, ma)),
        },
    }
}

pub(crate) fn limb_mul(a: &BigInt, b: &BigInt) -> BigInt {
    let (mut ab, mut bb) = ([0; 2], [0; 2]);
    let (sa, ma) = a.parts(&mut ab);
    let (sb, mb) = b.parts(&mut bb);
    let sign = if sa == sb { Sign::Plus } else { Sign::Minus };
    BigInt::from_mag(sign, mag_mul(ma, mb))
}

/// Truncating division of a non-zero divisor, as in [`BigInt::div_rem`].
pub(crate) fn limb_div_rem(a: &BigInt, b: &BigInt) -> (BigInt, BigInt) {
    let (mut ab, mut bb) = ([0; 2], [0; 2]);
    let (sa, ma) = a.parts(&mut ab);
    let (sb, mb) = b.parts(&mut bb);
    if sa == Sign::Zero {
        return (BigInt::zero(), BigInt::zero());
    }
    let (q, r) = mag_divrem(ma, mb);
    let q_sign = if sa == sb { Sign::Plus } else { Sign::Minus };
    (BigInt::from_mag(q_sign, q), BigInt::from_mag(sa, r))
}

pub(crate) fn limb_gcd(a: &BigInt, b: &BigInt) -> BigInt {
    let (mut ab, mut bb) = ([0; 2], [0; 2]);
    let (mut x, mut y) = (a.parts(&mut ab).1.to_vec(), b.parts(&mut bb).1.to_vec());
    while !y.is_empty() {
        let r = mag_divrem(&x, &y).1;
        x = y;
        y = r;
    }
    BigInt::from_mag(Sign::Plus, x)
}

pub(crate) fn limb_to_f64(a: &BigInt) -> f64 {
    let mut buf = [0; 2];
    let (sign, mag) = a.parts(&mut buf);
    let mut v = 0.0f64;
    for &limb in mag.iter().rev() {
        v = v * 4294967296.0 + limb as f64;
    }
    if sign == Sign::Minus {
        -v
    } else {
        v
    }
}

// ---------------------------------------------------------------------------
// BigInt proper
// ---------------------------------------------------------------------------

impl BigInt {
    /// The integer `0`.
    pub fn zero() -> Self {
        BigInt::small(0)
    }

    /// The integer `1`.
    pub fn one() -> Self {
        BigInt::small(1)
    }

    fn small(v: i64) -> BigInt {
        BigInt { repr: Repr::Small(v) }
    }

    /// Builds a value from a sign and a magnitude, storing it inline if it
    /// fits in an `i64`. An empty magnitude is zero whatever the sign.
    fn from_mag(sign: Sign, mut mag: Vec<u32>) -> BigInt {
        trim(&mut mag);
        if mag.len() <= 2 {
            let m = mag.iter().rev().fold(0u64, |acc, &limb| (acc << 32) | limb as u64);
            let small = match sign {
                Sign::Minus if m <= 1 << 63 => Some((m as i64).wrapping_neg()),
                Sign::Plus | Sign::Zero if m <= i64::MAX as u64 => Some(m as i64),
                _ => None,
            };
            if let Some(v) = small {
                return BigInt::small(v);
            }
        }
        BigInt { repr: Repr::Large { sign, mag } }
    }

    /// Sign and magnitude; an inline value's magnitude is spelled out in
    /// `buf`.
    fn parts<'a>(&'a self, buf: &'a mut [u32; 2]) -> (Sign, &'a [u32]) {
        match &self.repr {
            Repr::Large { sign, mag } => (*sign, mag),
            Repr::Small(v) => {
                let m = v.unsigned_abs();
                *buf = [m as u32, (m >> 32) as u32];
                let len = if m == 0 {
                    0
                } else if m >> 32 == 0 {
                    1
                } else {
                    2
                };
                (Sign::of(*v), &buf[..len])
            }
        }
    }

    fn sign(&self) -> Sign {
        match &self.repr {
            Repr::Small(v) => Sign::of(*v),
            Repr::Large { sign, .. } => *sign,
        }
    }

    /// Returns `true` iff this integer is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small(0))
    }

    /// Returns `true` iff this integer is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Plus
    }

    /// Returns `true` iff this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Minus
    }

    /// Returns `true` iff this integer is even.
    pub fn is_even(&self) -> bool {
        match &self.repr {
            Repr::Small(v) => v % 2 == 0,
            Repr::Large { mag, .. } => mag[0] % 2 == 0,
        }
    }

    /// Sign as `-1`, `0`, or `1`.
    pub fn signum(&self) -> i32 {
        match self.sign() {
            Sign::Minus => -1,
            Sign::Zero => 0,
            Sign::Plus => 1,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        if self.is_negative() {
            -self
        } else {
            self.clone()
        }
    }

    /// Truncating division and remainder (`quot` rounds toward zero), as a
    /// pair. The remainder has the sign of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "BigInt division by zero");
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            return match (a.checked_div(*b), a.checked_rem(*b)) {
                (Some(q), Some(r)) => (BigInt::small(q), BigInt::small(r)),
                // i64::MIN / -1: the quotient is 2^63.
                _ => (BigInt::from(-(*a as i128)), BigInt::zero()),
            };
        }
        limb_div_rem(self, other)
    }

    /// Euclidean division: the unique `q` with `self = q*other + r` and
    /// `0 <= r < |other|`. This is SMT-LIB's `div`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_euclid_big(&self, other: &BigInt) -> BigInt {
        let (q, r) = self.div_rem(other);
        if r.is_negative() {
            if other.is_positive() {
                q - BigInt::one()
            } else {
                q + BigInt::one()
            }
        } else {
            q
        }
    }

    /// Euclidean remainder: always in `[0, |other|)`. This is SMT-LIB's `mod`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn rem_euclid_big(&self, other: &BigInt) -> BigInt {
        let (_, r) = self.div_rem(other);
        if r.is_negative() {
            r + other.abs()
        } else {
            r
        }
    }

    /// Floor division (`q` rounds toward negative infinity).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_floor_big(&self, other: &BigInt) -> BigInt {
        let (q, r) = self.div_rem(other);
        if !r.is_zero() && (r.is_negative() != other.is_negative()) {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Greatest common divisor; always non-negative, `gcd(0, 0) = 0`.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            let g = gcd_u128(a.unsigned_abs().into(), b.unsigned_abs().into());
            return BigInt::from(g as u64);
        }
        limb_gcd(self, other)
    }

    /// Raises `self` to a small non-negative power.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.repr {
            Repr::Small(v) => Some(v),
            Repr::Large { .. } => None,
        }
    }

    /// Approximate `f64` value (exact when the magnitude fits in 53 bits).
    pub fn to_f64(&self) -> f64 {
        match self.repr {
            // The limb path rounds once too: a high limb times 2^32 is
            // exact, so only its final add rounds, to the same nearest f64.
            Repr::Small(v) => v as f64,
            Repr::Large { .. } => limb_to_f64(self),
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt::small(v)
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::small(v.into())
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        match i64::try_from(v) {
            Ok(v) => BigInt::small(v),
            Err(_) => BigInt::from_mag(Sign::Plus, vec![v as u32, (v >> 32) as u32]),
        }
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        if let Ok(v) = i64::try_from(v) {
            return BigInt::small(v);
        }
        let sign = if v < 0 { Sign::Minus } else { Sign::Plus };
        let m = v.unsigned_abs();
        BigInt::from_mag(sign, vec![m as u32, (m >> 32) as u32, (m >> 64) as u32, (m >> 96) as u32])
    }
}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(ParseBigIntError::new("empty"));
        }
        if !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError::new("non-digit"));
        }
        let sign = if neg { Sign::Minus } else { Sign::Plus };
        // Up to 18 digits stay below 10^18 < 2^63.
        if digits.len() <= 18 {
            let m = digits.bytes().fold(0i64, |acc, b| acc * 10 + (b - b'0') as i64);
            return Ok(BigInt::small(if neg { -m } else { m }));
        }
        let mut mag: Vec<u32> = Vec::new();
        for b in digits.bytes() {
            // mag = mag * 10 + d
            let mut carry = (b - b'0') as u64;
            for limb in mag.iter_mut() {
                let t = *limb as u64 * 10 + carry;
                *limb = t as u32;
                carry = t >> 32;
            }
            if carry != 0 {
                mag.push(carry as u32);
            }
        }
        Ok(BigInt::from_mag(sign, mag))
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, mut mag) = match &self.repr {
            Repr::Small(v) => return write!(f, "{v}"),
            Repr::Large { sign, mag } => (*sign, mag.clone()),
        };
        // Repeated division by 1e9 to extract decimal chunks.
        let mut chunks: Vec<u32> = Vec::new();
        while !mag.is_empty() {
            let mut rem = 0u64;
            for i in (0..mag.len()).rev() {
                let cur = (rem << 32) | mag[i] as u64;
                mag[i] = (cur / 1_000_000_000) as u32;
                rem = cur % 1_000_000_000;
            }
            trim(&mut mag);
            chunks.push(rem as u32);
        }
        if sign == Sign::Minus {
            f.write_str("-")?;
        }
        let mut it = chunks.iter().rev();
        write!(f, "{}", it.next().unwrap())?;
        for c in it {
            write!(f, "{c:09}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            return a.cmp(b);
        }
        limb_cmp(self, other)
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.repr {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => BigInt::small(n),
                None => BigInt::from(-(v as i128)),
            },
            Repr::Large { sign, mag } => BigInt::from_mag(sign.flip(), mag),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.repr {
            Repr::Small(v) => -BigInt::small(v),
            Repr::Large { .. } => limb_neg(self),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            return match a.checked_add(*b) {
                Some(s) => BigInt::small(s),
                None => BigInt::from(*a as i128 + *b as i128),
            };
        }
        limb_add(self, other)
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            return match a.checked_sub(*b) {
                Some(d) => BigInt::small(d),
                None => BigInt::from(*a as i128 - *b as i128),
            };
        }
        limb_add(self, &-other)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            return match a.checked_mul(*b) {
                Some(p) => BigInt::small(p),
                None => BigInt::from(*a as i128 * *b as i128),
            };
        }
        limb_mul(self, other)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                (&self).$method(&other)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, other: &BigInt) -> BigInt {
                (&self).$method(other)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                self.$method(&other)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_is_canonical() {
        assert!(bi(0).is_zero());
        assert_eq!(bi(5) - bi(5), BigInt::zero());
        assert_eq!(BigInt::zero().to_string(), "0");
        assert_eq!(-BigInt::zero(), BigInt::zero());
    }

    #[test]
    fn small_arithmetic_matches_i64() {
        let cases = [-100i64, -31, -7, -1, 0, 1, 2, 9, 63, 99, 1 << 40];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(bi(a) + bi(b), bi(a + b), "{a} + {b}");
                assert_eq!(bi(a) - bi(b), bi(a - b), "{a} - {b}");
                assert_eq!(
                    BigInt::from(a as i128) * BigInt::from(b as i128),
                    BigInt::from(a as i128 * b as i128),
                    "{a} * {b}"
                );
                assert_eq!(bi(a).cmp(&bi(b)), a.cmp(&b));
                if b != 0 {
                    let (q, r) = bi(a).div_rem(&bi(b));
                    assert_eq!(q, bi(a / b), "{a} / {b}");
                    assert_eq!(r, bi(a % b), "{a} % {b}");
                    assert_eq!(bi(a).div_euclid_big(&bi(b)), bi(a.div_euclid(b)));
                    assert_eq!(bi(a).rem_euclid_big(&bi(b)), bi(a.rem_euclid(b)));
                }
            }
        }
    }

    #[test]
    fn large_multiplication_crosses_limbs() {
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        let b: BigInt = "987654321098765432109876543210".parse().unwrap();
        let p = &a * &b;
        assert_eq!(p.to_string(), "121932631137021795226185032733622923332237463801111263526900");
        let (q, r) = p.div_rem(&a);
        assert_eq!(q, b);
        assert!(r.is_zero());
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["0", "1", "-1", "4294967296", "-18446744073709551616", "999999999999999999999"] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
    }

    #[test]
    fn parse_accepts_leading_zeros_and_plus() {
        assert_eq!("0007".parse::<BigInt>().unwrap(), bi(7));
        assert_eq!("+7".parse::<BigInt>().unwrap(), bi(7));
        assert_eq!("-000".parse::<BigInt>().unwrap(), BigInt::zero());
    }

    #[test]
    fn gcd_properties() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(0).gcd(&bi(0)), bi(0));
        assert_eq!(bi(17).gcd(&bi(13)), bi(1));
    }

    #[test]
    fn pow_small() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(-3).pow(3), bi(-27));
        assert_eq!(bi(7).pow(0), bi(1));
        assert_eq!(bi(10).pow(30).to_string(), format!("1{}", "0".repeat(30)));
    }

    #[test]
    fn to_i64_bounds() {
        assert_eq!(bi(i64::MAX).to_i64(), Some(i64::MAX));
        assert_eq!(bi(i64::MIN).to_i64(), Some(i64::MIN));
        let big = bi(i64::MAX) + bi(1);
        assert_eq!(big.to_i64(), None);
        assert_eq!((-big).to_i64(), Some(i64::MIN));
        assert_eq!((bi(i64::MIN) - bi(1)).to_i64(), None);
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(bi(0).to_f64(), 0.0);
        assert_eq!(bi(-5).to_f64(), -5.0);
        assert_eq!(bi(1 << 52).to_f64(), (1u64 << 52) as f64);
    }

    #[test]
    fn parity() {
        assert!(bi(0).is_even());
        assert!(bi(2).is_even());
        assert!(!bi(3).is_even());
        assert!(bi(-4).is_even());
    }

    #[test]
    fn div_floor_semantics() {
        assert_eq!(bi(7).div_floor_big(&bi(2)), bi(3));
        assert_eq!(bi(-7).div_floor_big(&bi(2)), bi(-4));
        assert_eq!(bi(7).div_floor_big(&bi(-2)), bi(-4));
        assert_eq!(bi(-7).div_floor_big(&bi(-2)), bi(3));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = bi(1).div_rem(&bi(0));
    }
}
