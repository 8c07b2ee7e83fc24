//! Exact arbitrary-precision arithmetic for the YinYang SMT-solver stack.
//!
//! SMT solving must be exact: floating point cannot represent the rational
//! pivots of a simplex tableau or the integer constants of SMT-LIB scripts
//! without unsoundness. This crate provides the two value types every other
//! crate in the workspace builds on:
//!
//! * [`BigInt`] — arbitrary-precision signed integers with the SMT-LIB
//!   Euclidean `div`/`mod` semantics.
//! * [`BigRational`] — always-normalized exact fractions.
//!
//! # Examples
//!
//! ```
//! use yinyang_arith::{BigInt, BigRational};
//!
//! let n: BigInt = "123456789123456789123456789".parse()?;
//! assert_eq!((&n * &n).to_string().len(), 53);
//!
//! let half = BigRational::new(1.into(), 2.into());
//! assert_eq!((&half + &half), BigRational::one());
//! # Ok::<(), yinyang_arith::ParseBigIntError>(())
//! ```

#![warn(missing_docs)]

mod bigint;
#[cfg(test)]
mod fast_path_props;
mod rational;

pub use bigint::{BigInt, ParseBigIntError};
pub use rational::BigRational;
