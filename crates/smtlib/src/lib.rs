//! SMT-LIB v2 front end for the YinYang workspace.
//!
//! This crate is the language substrate the whole reproduction builds on:
//!
//! * [`Term`] / [`Script`] — the AST (terms, sorts, commands);
//! * [`parse_script`] / [`parse_term`] — the parser (accepting both SMT-LIB
//!   2.6 and the paper's legacy Z3 spellings);
//! * printing — `Display` impls produce parseable SMT-LIB text;
//! * [`subst`] — capture-avoiding, occurrence-selective substitution
//!   (the paper's `φ[e/x]_R`);
//! * [`sort_of`] / [`check_script`] — sort inference;
//! * [`Model`] / [`Value`] — the exact-semantics evaluator that serves as
//!   ground truth for seed generation and fusion oracles;
//! * [`Regex`] — derivative-based `RegLan` semantics.
//!
//! # Examples
//!
//! ```
//! use yinyang_smtlib::{parse_script, Model, Value};
//!
//! let script = parse_script(
//!     "(declare-fun x () Int) (assert (> (* x x) 4)) (check-sat)",
//! )?;
//! let mut m = Model::new();
//! m.set("x", Value::Int(3.into()));
//! assert!(m.satisfies(&script.conjunction())?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod eval;
mod lexer;
mod logic;
mod parser;
mod printer;
mod regex;
mod script;
mod sort;
pub mod subst;
mod symbol;
mod term;
mod typecheck;

pub use eval::{regex_of_closed_term, EvalError, Model, Value, ZeroDivPolicy};
pub use lexer::{tokenize, LexError, Token, TokenKind};
pub use logic::{Logic, ParseLogicError};
pub use parser::{op_for_symbol, parse_script, parse_term, ParseError, MAX_NESTING};
pub use printer::escape_string;
pub use regex::Regex;
pub use script::{Command, Script};
pub use sort::{ParseSortError, Sort};
pub use symbol::Symbol;
pub use term::{Arity, Op, Quantifier, Term, TermKind};
pub use typecheck::{check_script, sort_of, SortEnv, TypeError};

/// The canonical text of an SMT-LIB script: parse, drop pure metadata
/// (`set-info`), and print the normal form. Two spellings that differ only
/// in whitespace, comments, or metadata canonicalize to the same text;
/// renaming a variable does not (see [`Script::canonical`]). Regression
/// harnesses hash this to recognize the same test case across campaigns.
pub fn canonical_text(text: &str) -> Result<String, ParseError> {
    parse_script(text).map(|s| s.canonical().to_string())
}
