//! Differential tests: every `i64`/`i128` fast path against the limb path.
//!
//! Operands are drawn around the limb and word boundaries (±2^31, ±2^32,
//! ±2^63, ±2^64), near zero, and uniformly over `i64` and `i128`, so both
//! the checked `i64` arithmetic and its promotion to limbs are exercised.
//! The rational fast paths are checked against the general [`BigInt`]
//! formulas, which reach the limb path as soon as a product leaves `i64`.

use crate::bigint::{limb_add, limb_cmp, limb_div_rem, limb_gcd, limb_mul, limb_neg, limb_to_f64};
use crate::{BigInt, BigRational};
use std::hash::{DefaultHasher, Hash, Hasher};
use yinyang_rt::prop::assume;
use yinyang_rt::{props, Rng, StdRng};

fn bi(v: i128) -> BigInt {
    BigInt::from(v)
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// An integer near a boundary, near zero, or uniform over `i64` or `i128`.
fn edgy(r: &mut StdRng) -> i128 {
    match r.random_range(0..7u32) {
        k @ 0..=3 => {
            let v = (1i128 << [31, 32, 63, 64][k as usize]) + r.random_range(-3i128..=3);
            if r.random_bool(0.5) {
                -v
            } else {
                v
            }
        }
        4 => r.random_range(-100i128..=100),
        5 => r.random_range(i64::MIN..=i64::MAX).into(),
        _ => r.random_range(i128::MIN..=i128::MAX),
    }
}

/// An `i64` near ±2^31, ±2^32 or the ends of `i64`, near zero, or uniform.
fn edgy_i64(r: &mut StdRng) -> i64 {
    let off = r.random_range(0i64..=3);
    match r.random_range(0..7u32) {
        0 => (1 << 31) + off,
        1 => -(1 << 32) - off,
        2 => (1 << 32) + off,
        3 => i64::MAX - off,
        4 => i64::MIN + off,
        5 => r.random_range(-100i64..=100),
        _ => r.random_range(i64::MIN..=i64::MAX),
    }
}

fn rational(n: i64, d: i64) -> BigRational {
    BigRational::new(n.into(), d.into())
}

props! {
    fn add_sub_match_limbs(a in edgy, b in edgy) {
        let (x, y) = (bi(a), bi(b));
        assert_eq!(&x + &y, limb_add(&x, &y));
        assert_eq!(&x - &y, limb_add(&x, &limb_neg(&y)));
        if let Some(s) = a.checked_add(b) {
            assert_eq!(&x + &y, bi(s));
        }
    }

    fn mul_matches_limbs(a in edgy, b in edgy) {
        let (x, y) = (bi(a), bi(b));
        assert_eq!(&x * &y, limb_mul(&x, &y));
        if let Some(p) = a.checked_mul(b) {
            assert_eq!(&x * &y, bi(p));
        }
    }

    fn div_rem_matches_limbs(a in edgy, b in edgy) {
        assume(b != 0);
        let (x, y) = (bi(a), bi(b));
        assert_eq!(x.div_rem(&y), limb_div_rem(&x, &y));
    }

    fn gcd_matches_limbs(a in edgy, b in edgy) {
        let (x, y) = (bi(a), bi(b));
        assert_eq!(x.gcd(&y), limb_gcd(&x, &y));
    }

    fn cmp_neg_and_f64_match_limbs(a in edgy, b in edgy) {
        let (x, y) = (bi(a), bi(b));
        assert_eq!(x.cmp(&y), limb_cmp(&x, &y));
        assert_eq!(x.cmp(&y), a.cmp(&b));
        assert_eq!(-&x, limb_neg(&x));
        assert_eq!(x.to_f64().to_bits(), limb_to_f64(&x).to_bits());
    }

    fn leaving_i64_and_coming_back_is_canonical(a in edgy_i64, b in edgy) {
        let small = BigInt::from(a);
        let back = &(&small + &bi(b)) - &bi(b);
        assert_eq!(back, small);
        assert_eq!(hash_of(&back), hash_of(&small));
        assert_eq!(back.to_i64(), Some(a));
        assert_eq!(back.to_f64().to_bits(), limb_to_f64(&back).to_bits());
    }

    fn rational_new_matches_general_path(n in edgy_i64, d in edgy_i64) {
        assume(d != 0);
        let fast = rational(n, d);
        assert_eq!(fast, BigRational::reduce(n.into(), d.into()));
        assert_eq!(hash_of(&fast), hash_of(&BigRational::reduce(n.into(), d.into())));
    }

    fn rational_ops_match_general_path(an in edgy_i64, ad in edgy_i64,
                                       bn in edgy_i64, bd in edgy_i64) {
        assume(ad != 0 && bd != 0);
        let (a, b) = (rational(an, ad), rational(bn, bd));
        let (p, q, r, s) = (a.numer(), a.denom(), b.numer(), b.denom());
        assert_eq!(&a + &b, BigRational::reduce(p * s + r * q, q * s));
        assert_eq!(&a - &b, BigRational::reduce(p * s - r * q, q * s));
        assert_eq!(&a * &b, BigRational::reduce(p * r, q * s));
        if !b.is_zero() {
            assert_eq!(&a / &b, BigRational::reduce(p * s, q * r));
        }
        assert_eq!(a.cmp(&b), (p * s).cmp(&(r * q)));
    }
}

#[test]
fn i64_min_divided_by_minus_one_leaves_i64() {
    let min = BigInt::from(i64::MIN);
    let minus_one = BigInt::from(-1);
    let two_63 = bi(1i128 << 63);
    assert_eq!(min.div_rem(&minus_one), (two_63.clone(), BigInt::zero()));
    assert_eq!(min.div_rem(&minus_one), limb_div_rem(&min, &minus_one));
    assert_eq!(min.div_euclid_big(&minus_one), two_63);
    assert_eq!(min.rem_euclid_big(&minus_one), BigInt::zero());
    assert_eq!(min.div_floor_big(&minus_one).to_i64(), None);
}

#[test]
fn negating_i64_min_promotes_and_comes_back() {
    let min = BigInt::from(i64::MIN);
    let two_63 = bi(1i128 << 63);
    assert_eq!(min.abs(), two_63);
    assert_eq!(-&min, two_63);
    assert_eq!(-min.clone(), two_63);
    assert_eq!(two_63.to_i64(), None);
    let back = -two_63;
    assert_eq!(back, min);
    assert_eq!(hash_of(&back), hash_of(&min));
    assert_eq!(back.to_i64(), Some(i64::MIN));
}

#[test]
fn gcd_of_i64_min_is_two_to_the_63() {
    let min = BigInt::from(i64::MIN);
    let two_63 = bi(1i128 << 63);
    assert_eq!(min.gcd(&BigInt::zero()), two_63);
    assert_eq!(BigInt::zero().gcd(&min), two_63);
    assert_eq!(min.gcd(&min), two_63);
    assert_eq!(min.gcd(&min), limb_gcd(&min, &min));
    assert_eq!(min.gcd(&BigInt::from(6)), BigInt::from(2));
}

#[test]
fn every_constructor_demotes_values_that_fit() {
    let max = BigInt::from(i64::MAX);
    let from_u64 = BigInt::from(i64::MAX as u64);
    let from_i128 = BigInt::from(i64::MAX as i128);
    let from_str: BigInt = "00000000000000000009223372036854775807".parse().unwrap();
    let from_sum = &bi(1i128 << 100) + &(&max - &bi(1i128 << 100));
    for v in [&from_u64, &from_i128, &from_str, &from_sum] {
        assert_eq!(v, &max);
        assert_eq!(hash_of(v), hash_of(&max));
        assert_eq!(v.to_i64(), Some(i64::MAX));
    }
    assert_eq!(BigInt::from(u64::MAX).to_i64(), None);
    assert_eq!("-9223372036854775808".parse::<BigInt>().unwrap().to_i64(), Some(i64::MIN));
    assert_eq!("-9223372036854775809".parse::<BigInt>().unwrap().to_i64(), None);
}

#[test]
fn rationals_at_the_ends_of_i64() {
    let (min, max) = (i64::MIN, i64::MAX);
    assert_eq!(rational(min, -1), BigRational::from_int(bi(1i128 << 63)));
    assert_eq!(rational(min, min), BigRational::one());
    assert_eq!(rational(1, min).denom(), &bi(1i128 << 63));
    assert_eq!(rational(1, min).numer(), &BigInt::from(-1));
    let square = &rational(min, 1) * &rational(min, 1);
    assert_eq!(square, BigRational::from_int(bi(1i128 << 126)));
    let sum = &rational(min, max) + &rational(min, max);
    assert_eq!(sum, BigRational::reduce(bi(-(1i128 << 64)), max.into()));
    assert!(rational(min, max) < rational(-1, 1));
    assert!(rational(max, min) > rational(-1, 1));
    assert!(rational(1, max) > rational(1, min));
}
