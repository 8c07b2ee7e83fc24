//! Property-based tests: BigInt/BigRational agree with i128 reference
//! arithmetic and satisfy ring/field/order laws.
//!
//! Operands are log-uniform over their whole span: the bit width is drawn
//! first, so small values (the inline `i64` form) and values far outside
//! `i64` (the limb form) are both common.

use yinyang_arith::{BigInt, BigRational};
use yinyang_rt::prop::assume;
use yinyang_rt::{props, Rng, StdRng};

fn bi(v: i128) -> BigInt {
    BigInt::from(v)
}

/// A value in `[-2^b, 2^b)` for a bit width `b` drawn from `0..=max_bits`.
fn of_bits(r: &mut StdRng, max_bits: u32) -> i128 {
    let b = r.random_range(0..=max_bits);
    r.random_range(-(1i128 << b)..(1i128 << b))
}

/// Anywhere in `i64`.
fn word(r: &mut StdRng) -> i128 {
    of_bits(r, 63)
}

/// Anywhere in `i128` such that a sum of two cannot overflow.
fn wide(r: &mut StdRng) -> i128 {
    of_bits(r, 126)
}

/// A positive denominator anywhere in `i64`.
fn den(r: &mut StdRng) -> i64 {
    (of_bits(r, 63).unsigned_abs() as i64).max(1)
}

props! {
    fn bigint_add_matches_i128(a in wide, b in wide) {
        assert_eq!(bi(a) + bi(b), bi(a + b));
        assert_eq!(bi(a) - bi(b), bi(a - b));
    }

    fn bigint_mul_matches_i128(a in word, b in word) {
        assert_eq!(bi(a) * bi(b), bi(a * b));
    }

    fn bigint_divrem_matches_i128(a in wide, b in wide) {
        assume(b != 0);
        let (q, r) = bi(a).div_rem(&bi(b));
        assert_eq!(q, bi(a / b));
        assert_eq!(r, bi(a % b));
        assert_eq!(bi(a).div_euclid_big(&bi(b)), bi(a.div_euclid(b)));
        assert_eq!(bi(a).rem_euclid_big(&bi(b)), bi(a.rem_euclid(b)));
    }

    fn bigint_euclid_invariant(a in wide, b in wide) {
        assume(b != 0);
        let (a, b) = (bi(a), bi(b));
        let q = a.div_euclid_big(&b);
        let r = a.rem_euclid_big(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(!r.is_negative());
        assert!(r < b.abs());
    }

    fn bigint_string_roundtrip(a in |r: &mut StdRng| r.random_range(i128::MIN..=i128::MAX)) {
        let v = bi(a);
        let s = v.to_string();
        assert_eq!(s.parse::<BigInt>().unwrap(), v);
        assert_eq!(s, a.to_string());
    }

    fn bigint_mul_distributes(a in wide, b in wide, c in wide) {
        let (a, b, c) = (bi(a), bi(b), bi(c));
        assert_eq!(&a * &(&b + &c), &a * &b + &a * &c);
    }

    fn bigint_gcd_divides(a in wide, b in wide) {
        let (a, b) = (bi(a), bi(b));
        let g = a.gcd(&b);
        if !g.is_zero() {
            assert!(a.rem_euclid_big(&g).is_zero());
            assert!(b.rem_euclid_big(&g).is_zero());
        } else {
            assert!(a.is_zero() && b.is_zero());
        }
    }

    fn rational_field_laws(an in word, ad in den, bn in word, bd in den) {
        let a = BigRational::new(bi(an), ad.into());
        let b = BigRational::new(bi(bn), bd.into());
        assert_eq!(&a + &b, &b + &a);
        assert_eq!(&a * &b, &b * &a);
        assert_eq!(&(&a + &b) - &b, a.clone());
        if !b.is_zero() {
            assert_eq!(&(&a / &b) * &b, a.clone());
        }
    }

    fn rational_order_total(an in word, ad in den, bn in word, bd in den) {
        let a = BigRational::new(bi(an), ad.into());
        let b = BigRational::new(bi(bn), bd.into());
        // Compare against tolerance-free cross multiplication.
        let lhs = an * (bd as i128);
        let rhs = bn * (ad as i128);
        assert_eq!(a.cmp(&b), lhs.cmp(&rhs));
    }

    fn rational_floor_ceil_bracket(n in wide, d in den) {
        let v = BigRational::new(bi(n), d.into());
        let f = BigRational::from_int(v.floor());
        let c = BigRational::from_int(v.ceil());
        assert!(f <= v && v <= c);
        assert!(&c - &f <= BigRational::one());
    }

    fn rational_decimal_roundtrip(n in wide, scale in |r: &mut StdRng| r.random_range(0u32..30)) {
        let den = BigInt::from(10i64).pow(scale);
        let v = BigRational::new(bi(n), den);
        let s = v.to_decimal_string().expect("power-of-ten denominator prints as decimal");
        assert_eq!(BigRational::from_decimal_str(&s).unwrap(), v);
    }
}
