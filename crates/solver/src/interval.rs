//! Interval arithmetic over rationals with open/closed endpoints.
//!
//! Used by the nonlinear arithmetic checker: products and guarded divisions
//! propagate operand intervals, and an empty intersection refutes a
//! conjunction — exactly the reasoning that decides unsatisfiable patterns
//! like the paper's `0 < v ≤ w ∧ w/v < 0` (Fig. 4/5).

use std::fmt;
use yinyang_arith::BigRational;

/// One endpoint: a rational bound plus strictness, or unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// No bound in this direction.
    Unbounded,
    /// A bound; `strict` excludes the endpoint itself.
    Bound {
        /// The bounding value.
        value: BigRational,
        /// Whether the endpoint is excluded.
        strict: bool,
    },
}

impl Endpoint {
    fn bound(value: BigRational, strict: bool) -> Endpoint {
        Endpoint::Bound { value, strict }
    }
}

/// A rational interval, possibly unbounded on either side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: Endpoint,
    /// Upper endpoint.
    pub hi: Endpoint,
}

impl Default for Interval {
    fn default() -> Self {
        Interval::top()
    }
}

impl Interval {
    /// The whole line `(-∞, +∞)`.
    pub fn top() -> Interval {
        Interval { lo: Endpoint::Unbounded, hi: Endpoint::Unbounded }
    }

    /// A singleton `[v, v]`.
    pub fn point(v: BigRational) -> Interval {
        Interval { lo: Endpoint::bound(v.clone(), false), hi: Endpoint::bound(v, false) }
    }

    /// `[lo, +∞)` or `(lo, +∞)`.
    pub fn at_least(v: BigRational, strict: bool) -> Interval {
        Interval { lo: Endpoint::bound(v, strict), hi: Endpoint::Unbounded }
    }

    /// `(-∞, hi]` or `(-∞, hi)`.
    pub fn at_most(v: BigRational, strict: bool) -> Interval {
        Interval { lo: Endpoint::Unbounded, hi: Endpoint::bound(v, strict) }
    }

    /// Is the interval empty?
    pub fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (
                Endpoint::Bound { value: l, strict: ls },
                Endpoint::Bound { value: h, strict: hs },
            ) => l > h || (l == h && (*ls || *hs)),
            _ => false,
        }
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: &BigRational) -> bool {
        let lo_ok = match &self.lo {
            Endpoint::Unbounded => true,
            Endpoint::Bound { value, strict } => {
                if *strict {
                    v > value
                } else {
                    v >= value
                }
            }
        };
        let hi_ok = match &self.hi {
            Endpoint::Unbounded => true,
            Endpoint::Bound { value, strict } => {
                if *strict {
                    v < value
                } else {
                    v <= value
                }
            }
        };
        lo_ok && hi_ok
    }

    /// Intersection.
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Interval {
        let lo = match (&self.lo, &other.lo) {
            (Endpoint::Unbounded, b) | (b, Endpoint::Unbounded) => b.clone(),
            (
                Endpoint::Bound { value: a, strict: sa },
                Endpoint::Bound { value: b, strict: sb },
            ) => {
                if a > b || (a == b && *sa) {
                    self.lo.clone()
                } else {
                    Endpoint::bound(b.clone(), *sb)
                }
            }
        };
        let hi = match (&self.hi, &other.hi) {
            (Endpoint::Unbounded, b) | (b, Endpoint::Unbounded) => b.clone(),
            (
                Endpoint::Bound { value: a, strict: sa },
                Endpoint::Bound { value: b, strict: sb },
            ) => {
                if a < b || (a == b && *sa) {
                    self.hi.clone()
                } else {
                    Endpoint::bound(b.clone(), *sb)
                }
            }
        };
        Interval { lo, hi }
    }

    /// Negation `-I`.
    #[must_use]
    pub fn neg(&self) -> Interval {
        let flip = |e: &Endpoint| match e {
            Endpoint::Unbounded => Endpoint::Unbounded,
            Endpoint::Bound { value, strict } => Endpoint::bound(-value.clone(), *strict),
        };
        Interval { lo: flip(&self.hi), hi: flip(&self.lo) }
    }

    /// Addition `I + J`.
    #[must_use]
    pub fn add(&self, other: &Interval) -> Interval {
        let lo = match (&self.lo, &other.lo) {
            (
                Endpoint::Bound { value: a, strict: sa },
                Endpoint::Bound { value: b, strict: sb },
            ) => Endpoint::bound(a + b, *sa || *sb),
            _ => Endpoint::Unbounded,
        };
        let hi = match (&self.hi, &other.hi) {
            (
                Endpoint::Bound { value: a, strict: sa },
                Endpoint::Bound { value: b, strict: sb },
            ) => Endpoint::bound(a + b, *sa || *sb),
            _ => Endpoint::Unbounded,
        };
        Interval { lo, hi }
    }

    /// Scaling `k·I`.
    #[must_use]
    pub fn scale(&self, k: &BigRational) -> Interval {
        if k.is_zero() {
            return Interval::point(BigRational::zero());
        }
        let map = |e: &Endpoint| match e {
            Endpoint::Unbounded => Endpoint::Unbounded,
            Endpoint::Bound { value, strict } => Endpoint::bound(value * k, *strict),
        };
        if k.is_positive() {
            Interval { lo: map(&self.lo), hi: map(&self.hi) }
        } else {
            Interval { lo: map(&self.hi), hi: map(&self.lo) }
        }
    }

    /// Multiplication `I · J` (conservative on strictness).
    #[must_use]
    pub fn mul(&self, other: &Interval) -> Interval {
        // Candidate endpoint products; unbounded anywhere relevant makes the
        // result side unbounded. We compute via sign analysis on four corner
        // products of the extended number line.
        #[derive(Clone)]
        enum Ext {
            NegInf,
            PosInf,
            Val(BigRational, bool),
        }
        let corners = |a: &Endpoint, low: bool| -> Ext {
            match a {
                Endpoint::Unbounded => {
                    if low {
                        Ext::NegInf
                    } else {
                        Ext::PosInf
                    }
                }
                Endpoint::Bound { value, strict } => Ext::Val(value.clone(), *strict),
            }
        };
        let mul_ext = |a: &Ext, b: &Ext| -> Ext {
            match (a, b) {
                (Ext::Val(x, sx), Ext::Val(y, sy)) => {
                    // An attained 0 times anything in the other operand is
                    // an attained 0, whether or not that endpoint is open.
                    let attained_zero = (x.is_zero() && !sx) || (y.is_zero() && !sy);
                    Ext::Val(x * y, !attained_zero && (*sx || *sy))
                }
                (Ext::Val(x, sx), inf) | (inf, Ext::Val(x, sx)) => {
                    if x.is_zero() {
                        // 0·∞ corner contributes 0; a strict zero endpoint
                        // keeps the product's zero unattained.
                        Ext::Val(BigRational::zero(), *sx)
                    } else {
                        let pos_inf = matches!(inf, Ext::PosInf);
                        if x.is_positive() == pos_inf {
                            Ext::PosInf
                        } else {
                            Ext::NegInf
                        }
                    }
                }
                (Ext::NegInf, Ext::NegInf) | (Ext::PosInf, Ext::PosInf) => Ext::PosInf,
                _ => Ext::NegInf,
            }
        };
        let cs = [
            mul_ext(&corners(&self.lo, true), &corners(&other.lo, true)),
            mul_ext(&corners(&self.lo, true), &corners(&other.hi, false)),
            mul_ext(&corners(&self.hi, false), &corners(&other.lo, true)),
            mul_ext(&corners(&self.hi, false), &corners(&other.hi, false)),
        ];
        let mut lo: Option<(BigRational, bool)> = None;
        let mut hi: Option<(BigRational, bool)> = None;
        let mut lo_unbounded = false;
        let mut hi_unbounded = false;
        for c in &cs {
            match c {
                Ext::NegInf => lo_unbounded = true,
                Ext::PosInf => hi_unbounded = true,
                Ext::Val(v, s) => {
                    match &lo {
                        None => lo = Some((v.clone(), *s)),
                        Some((cur, cs_)) => {
                            if v < cur || (v == cur && !*s && *cs_) {
                                lo = Some((v.clone(), *s));
                            }
                        }
                    }
                    match &hi {
                        None => hi = Some((v.clone(), *s)),
                        Some((cur, cs_)) => {
                            if v > cur || (v == cur && !*s && *cs_) {
                                hi = Some((v.clone(), *s));
                            }
                        }
                    }
                }
            }
        }
        Interval {
            lo: if lo_unbounded {
                Endpoint::Unbounded
            } else {
                match lo {
                    Some((v, s)) => Endpoint::bound(v, s),
                    None => Endpoint::Unbounded,
                }
            },
            hi: if hi_unbounded {
                Endpoint::Unbounded
            } else {
                match hi {
                    Some((v, s)) => Endpoint::bound(v, s),
                    None => Endpoint::Unbounded,
                }
            },
        }
    }

    /// Sign queries.
    pub fn strictly_positive(&self) -> bool {
        match &self.lo {
            Endpoint::Bound { value, strict } => {
                value.is_positive() || (value.is_zero() && *strict)
            }
            Endpoint::Unbounded => false,
        }
    }

    /// Is every element `< 0`?
    pub fn strictly_negative(&self) -> bool {
        match &self.hi {
            Endpoint::Bound { value, strict } => {
                value.is_negative() || (value.is_zero() && *strict)
            }
            Endpoint::Unbounded => false,
        }
    }

    /// Does the interval exclude zero?
    pub fn excludes_zero(&self) -> bool {
        self.strictly_positive() || self.strictly_negative() || self.is_empty()
    }

    /// Division `I / J`, only when `J` excludes zero; `None` otherwise.
    #[must_use]
    pub fn div(&self, other: &Interval) -> Option<Interval> {
        if !other.excludes_zero() || other.is_empty() {
            return None;
        }
        // 1/J for J excluding zero.
        let recip_endpoint = |e: &Endpoint| -> Endpoint {
            match e {
                Endpoint::Unbounded => Endpoint::bound(BigRational::zero(), true),
                Endpoint::Bound { value, strict } => {
                    if value.is_zero() {
                        Endpoint::Unbounded
                    } else {
                        Endpoint::bound(value.recip(), *strict)
                    }
                }
            }
        };
        let recip = Interval { lo: recip_endpoint(&other.hi), hi: recip_endpoint(&other.lo) };
        Some(self.mul(&recip))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Endpoint::Unbounded => write!(f, "(-inf")?,
            Endpoint::Bound { value, strict } => {
                write!(f, "{}{}", if *strict { "(" } else { "[" }, value)?
            }
        }
        write!(f, ", ")?;
        match &self.hi {
            Endpoint::Unbounded => write!(f, "+inf)"),
            Endpoint::Bound { value, strict } => {
                write!(f, "{}{}", value, if *strict { ")" } else { "]" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: i64, d: i64) -> BigRational {
        BigRational::new(n.into(), d.into())
    }

    fn closed(lo: i64, hi: i64) -> Interval {
        Interval { lo: Endpoint::bound(q(lo, 1), false), hi: Endpoint::bound(q(hi, 1), false) }
    }

    #[test]
    fn emptiness() {
        assert!(!closed(0, 1).is_empty());
        assert!(closed(1, 0).is_empty());
        assert!(!Interval::point(q(3, 1)).is_empty());
        let open_point =
            Interval { lo: Endpoint::bound(q(1, 1), true), hi: Endpoint::bound(q(1, 1), false) };
        assert!(open_point.is_empty());
        assert!(!Interval::top().is_empty());
    }

    #[test]
    fn contains() {
        let i = Interval::at_least(q(0, 1), true); // (0, ∞)
        assert!(i.contains(&q(1, 2)));
        assert!(!i.contains(&q(0, 1)));
        assert!(!i.contains(&q(-1, 1)));
    }

    #[test]
    fn intersect_strictness() {
        let a = Interval::at_least(q(0, 1), false); // [0, ∞)
        let b = Interval::at_most(q(0, 1), true); // (-∞, 0)
        assert!(a.intersect(&b).is_empty());
        let c = Interval::at_most(q(0, 1), false); // (-∞, 0]
        let meet = a.intersect(&c);
        assert!(!meet.is_empty());
        assert!(meet.contains(&q(0, 1)));
    }

    #[test]
    fn addition() {
        let s = closed(1, 2).add(&closed(10, 20));
        assert_eq!(s, closed(11, 22));
        let u = Interval::at_least(q(1, 1), false).add(&Interval::top());
        assert_eq!(u, Interval::top());
    }

    #[test]
    fn negation_and_scale() {
        assert_eq!(closed(1, 2).neg(), closed(-2, -1));
        assert_eq!(closed(1, 2).scale(&q(3, 1)), closed(3, 6));
        assert_eq!(closed(1, 2).scale(&q(-1, 1)), closed(-2, -1));
        assert_eq!(closed(1, 2).scale(&q(0, 1)), Interval::point(q(0, 1)));
    }

    #[test]
    fn multiplication_signs() {
        assert_eq!(closed(2, 3).mul(&closed(4, 5)), closed(8, 15));
        assert_eq!(closed(-3, -2).mul(&closed(4, 5)), closed(-15, -8));
        assert_eq!(closed(-2, 3).mul(&closed(-5, 4)), closed(-15, 12));
    }

    #[test]
    fn multiplication_with_unbounded() {
        let pos = Interval::at_least(q(1, 1), false); // [1, ∞)
        let r = pos.mul(&pos);
        assert!(r.contains(&q(100, 1)));
        assert!(!r.contains(&q(0, 1)), "product of ≥1 values is ≥1");
        let any = Interval::top().mul(&closed(2, 3));
        assert_eq!(any, Interval::top());
    }

    #[test]
    fn attained_zero_times_open_endpoint_is_attained() {
        // [0, 0] × (0, 1/2) = [0, 0], not the empty (0, 0).
        let open =
            Interval { lo: Endpoint::bound(q(0, 1), true), hi: Endpoint::bound(q(1, 2), true) };
        let zero = Interval::point(q(0, 1));
        assert_eq!(zero.mul(&open), zero);
        assert_eq!(open.mul(&zero), zero);
        // The same through division: 0 / (2, ∞) = [0, 0].
        assert_eq!(zero.div(&Interval::at_least(q(2, 1), true)), Some(zero.clone()));
        // [0, 1] × (2, 3) = [0, 3): the 0 is attained, the 3 is not.
        let product = closed(0, 1).mul(&Interval {
            lo: Endpoint::bound(q(2, 1), true),
            hi: Endpoint::bound(q(3, 1), true),
        });
        assert_eq!(product.lo, Endpoint::bound(q(0, 1), false));
        assert_eq!(product.hi, Endpoint::bound(q(3, 1), true));
    }

    #[test]
    fn division_guarded() {
        // [4, 8] / [2, 4] = [1, 4]
        assert_eq!(closed(4, 8).div(&closed(2, 4)), Some(closed(1, 4)));
        // Division by an interval containing zero is refused.
        assert_eq!(closed(1, 2).div(&closed(-1, 1)), None);
        assert_eq!(closed(1, 2).div(&Interval::top()), None);
    }

    #[test]
    fn paper_fig4_refutation() {
        // 0 < y < v ≤ w and w/v < 0: w, v strictly positive ⇒ w/v > 0.
        let v = Interval::at_least(q(0, 1), true);
        let w = Interval::at_least(q(0, 1), true);
        let quotient = w.div(&v).expect("v excludes zero");
        assert!(quotient.strictly_positive());
        let constraint = Interval::at_most(q(0, 1), true); // w/v < 0
        assert!(quotient.intersect(&constraint).is_empty());
    }

    #[test]
    fn sign_queries() {
        assert!(Interval::at_least(q(0, 1), true).strictly_positive());
        assert!(!Interval::at_least(q(0, 1), false).strictly_positive());
        assert!(Interval::at_most(q(-1, 1), false).strictly_negative());
        assert!(closed(1, 5).excludes_zero());
        assert!(!closed(-1, 1).excludes_zero());
    }

    #[test]
    fn division_by_positive_unbounded() {
        // [1, 2] / (0, ∞): values can be arbitrarily large and close to 0.
        let d = closed(1, 2).div(&Interval::at_least(q(0, 1), true)).unwrap();
        assert!(d.contains(&q(1, 1000)));
        assert!(d.contains(&q(1000, 1)));
        assert!(d.strictly_positive());
    }
}
