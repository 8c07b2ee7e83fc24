//! Term evaluation under a model.
//!
//! The evaluator implements the SMT-LIB 2.6 semantics of the Bool, Int,
//! Real, String, and RegLan theories. It is the ground truth the rest of the
//! workspace trusts: seed generators prove their formulas satisfiable by
//! exhibiting a model and evaluating; the fusion oracle checks
//! Proposition 1's model construction with it; the solver validates its own
//! models with it.
//!
//! Division by zero is *underspecified* in SMT-LIB (any model may interpret
//! it as an arbitrary function). The evaluator therefore takes a
//! [`ZeroDivPolicy`]: strict checking treats it as an error, solver-style
//! evaluation maps it to a fixed default.

use crate::regex::Regex;
use crate::sort::Sort;
use crate::symbol::Symbol;
use crate::term::{Op, Term, TermKind};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use yinyang_arith::{BigInt, BigRational};

/// A first-order value of one of the supported sorts.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(BigInt),
    /// Real.
    Real(BigRational),
    /// String.
    Str(String),
}

impl Value {
    /// The sort of the value.
    pub fn sort(&self) -> Sort {
        match self {
            Value::Bool(_) => Sort::Bool,
            Value::Int(_) => Sort::Int,
            Value::Real(_) => Sort::Real,
            Value::Str(_) => Sort::String,
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Real` both convert to a rational.
    pub fn as_rational(&self) -> Option<BigRational> {
        match self {
            Value::Int(v) => Some(BigRational::from_int(v.clone())),
            Value::Real(v) => Some(v.clone()),
            _ => None,
        }
    }

    /// Extracts a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as an SMT-LIB term.
    pub fn to_term(&self) -> Term {
        match self {
            Value::Bool(b) => Term::bool(*b),
            Value::Int(v) => Term::int_big(v.clone()),
            Value::Real(v) => Term::real(v.clone()),
            Value::Str(s) => Term::str_lit(s.clone()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_term())
    }
}

/// A model: an assignment of values to free variables.
///
/// # Examples
///
/// ```
/// use yinyang_smtlib::{parse_term, Model, Value};
///
/// let mut m = Model::new();
/// m.set("x", Value::Int(3.into()));
/// let t = parse_term("(> (* x x) 8)")?;
/// assert_eq!(m.eval(&t)?, Value::Bool(true));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Model {
    assignments: BTreeMap<Symbol, Value>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Assigns `value` to `var`, returning any previous value.
    pub fn set(&mut self, var: impl Into<Symbol>, value: Value) -> Option<Value> {
        self.assignments.insert(var.into(), value)
    }

    /// Looks up a variable.
    pub fn get(&self, var: &Symbol) -> Option<&Value> {
        self.assignments.get(var)
    }

    /// Iterates over `(variable, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Value)> {
        self.assignments.iter()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the model assigns no variables.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Merges `other` into `self` (right-biased). Used by Proposition 1's
    /// `M = M1 ∪ M2 ∪ {z ↦ f(M1(x), M2(y))}` construction.
    pub fn extend(&mut self, other: &Model) {
        for (k, v) in other.iter() {
            self.assignments.insert(k.clone(), v.clone());
        }
    }

    /// Evaluates `term` under this model with the strict
    /// ([`ZeroDivPolicy::Error`]) division policy.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn eval(&self, term: &Term) -> Result<Value, EvalError> {
        Evaluator { policy: ZeroDivPolicy::Error }.eval(term, &mut Scope::new(self))
    }

    /// Evaluates with an explicit division-by-zero policy.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn eval_with(&self, term: &Term, policy: ZeroDivPolicy) -> Result<Value, EvalError> {
        Evaluator { policy }.eval(term, &mut Scope::new(self))
    }

    /// Convenience: is `term` true under this model (strict policy)?
    ///
    /// # Errors
    ///
    /// Fails if evaluation fails or the term is not boolean.
    pub fn satisfies(&self, term: &Term) -> Result<bool, EvalError> {
        match self.eval(term)? {
            Value::Bool(b) => Ok(b),
            v => Err(EvalError::SortMismatch(format!("expected Bool, got {}", v.sort()))),
        }
    }

    /// Renders the model SMT-LIB-style as a sequence of `define-fun`s.
    pub fn to_smtlib(&self) -> String {
        let mut out = String::from("(\n");
        for (k, v) in self.iter() {
            out.push_str(&format!("  (define-fun {k} () {} {v})\n", v.sort()));
        }
        out.push(')');
        out
    }
}

impl FromIterator<(Symbol, Value)> for Model {
    fn from_iter<T: IntoIterator<Item = (Symbol, Value)>>(iter: T) -> Self {
        Model { assignments: iter.into_iter().collect() }
    }
}

/// How to evaluate `(/ t 0)`, `(div t 0)`, and `(mod t 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZeroDivPolicy {
    /// Fail with [`EvalError::DivisionByZero`] — strict checking.
    Error,
    /// Every division by zero evaluates to zero (one fixed interpretation,
    /// consistent across occurrences — a legal SMT-LIB model choice).
    Zero,
}

/// Evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A free variable had no value in the model.
    UnboundVar(Symbol),
    /// Division by zero under [`ZeroDivPolicy::Error`].
    DivisionByZero(String),
    /// Quantified subformula — the evaluator does not decide quantifiers.
    Quantifier,
    /// Ill-sorted application.
    SortMismatch(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(v) => write!(f, "unbound variable {v}"),
            EvalError::DivisionByZero(t) => write!(f, "division by zero in {t}"),
            EvalError::Quantifier => f.write_str("cannot evaluate quantified formula"),
            EvalError::SortMismatch(m) => write!(f, "sort mismatch: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Lexical scope: the model plus `let`-bound values.
struct Scope<'a> {
    model: &'a Model,
    lets: Vec<(Symbol, Value)>,
}

impl<'a> Scope<'a> {
    fn new(model: &'a Model) -> Self {
        Scope { model, lets: Vec::new() }
    }

    fn lookup(&self, var: &Symbol) -> Option<Value> {
        self.lets
            .iter()
            .rev()
            .find(|(s, _)| s == var)
            .map(|(_, v)| v.clone())
            .or_else(|| self.model.get(var).cloned())
    }
}

struct Evaluator {
    policy: ZeroDivPolicy,
}

impl Evaluator {
    fn eval(&self, term: &Term, scope: &mut Scope<'_>) -> Result<Value, EvalError> {
        match term.kind() {
            TermKind::BoolConst(b) => Ok(Value::Bool(*b)),
            TermKind::IntConst(v) => Ok(Value::Int(v.clone())),
            TermKind::RealConst(v) => Ok(Value::Real(v.clone())),
            TermKind::StringConst(s) => Ok(Value::Str(s.clone())),
            TermKind::Var(name) => {
                scope.lookup(name).ok_or_else(|| EvalError::UnboundVar(name.clone()))
            }
            TermKind::Quant(..) => Err(EvalError::Quantifier),
            TermKind::Let(bindings, body) => {
                let mut vals = Vec::with_capacity(bindings.len());
                for (name, t) in bindings {
                    // SMT-LIB `let` is parallel: evaluate all values in the
                    // outer scope first.
                    vals.push((name.clone(), self.eval(t, scope)?));
                }
                let n = scope.lets.len();
                scope.lets.extend(vals);
                let out = self.eval(body, scope);
                scope.lets.truncate(n);
                out
            }
            TermKind::App(op, args) => self.eval_app(term, *op, args, scope),
        }
    }

    fn eval_app(
        &self,
        term: &Term,
        op: Op,
        args: &[Term],
        scope: &mut Scope<'_>,
    ) -> Result<Value, EvalError> {
        // Short-circuiting connectives first.
        match op {
            Op::And => {
                for a in args {
                    if !self.eval_bool(a, scope)? {
                        return Ok(Value::Bool(false));
                    }
                }
                return Ok(Value::Bool(true));
            }
            Op::Or => {
                for a in args {
                    if self.eval_bool(a, scope)? {
                        return Ok(Value::Bool(true));
                    }
                }
                return Ok(Value::Bool(false));
            }
            Op::Implies => {
                // Right-associative: (=> a b c) = a => (b => c).
                let mut result = self.eval_bool(args.last().expect("arity"), scope)?;
                for a in args[..args.len() - 1].iter().rev() {
                    result = !self.eval_bool(a, scope)? || result;
                }
                return Ok(Value::Bool(result));
            }
            Op::Ite => {
                let c = self.eval_bool(&args[0], scope)?;
                return self.eval(&args[if c { 1 } else { 2 }], scope);
            }
            Op::StrInRe => {
                // The second argument is RegLan syntax, not a first-order
                // value — interpret it as a semantic regex instead.
                let s = self.eval(&args[0], scope)?;
                let re = regex_of_term(&args[1], scope, self)?;
                return Ok(Value::Bool(re.matches(str_of(&s)?)));
            }
            _ => {}
        }

        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, scope)?);
        }
        self.apply(term, op, &vals)
    }

    /// Applies a non-short-circuiting operator to its evaluated arguments.
    /// Kept out of line so that its locals stay off the stack while
    /// [`Evaluator::eval`] recurses.
    #[inline(never)]
    fn apply(&self, term: &Term, op: Op, vals: &[Value]) -> Result<Value, EvalError> {
        match op {
            Op::Not => Ok(Value::Bool(!bool_of(&vals[0])?)),
            Op::Xor => {
                let mut acc = false;
                for v in vals {
                    acc ^= bool_of(v)?;
                }
                Ok(Value::Bool(acc))
            }
            Op::Eq => {
                for w in vals.windows(2) {
                    if !values_equal(&w[0], &w[1])? {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(Value::Bool(true))
            }
            Op::Distinct => {
                for i in 0..vals.len() {
                    for j in i + 1..vals.len() {
                        if values_equal(&vals[i], &vals[j])? {
                            return Ok(Value::Bool(false));
                        }
                    }
                }
                Ok(Value::Bool(true))
            }
            Op::Neg => numeric_unop(&vals[0], |v| -v),
            Op::Abs => match &vals[0] {
                Value::Int(v) => Ok(Value::Int(v.abs())),
                Value::Real(v) => Ok(Value::Real(v.abs())),
                v => Err(sort_err("abs", v)),
            },
            Op::Add => numeric_fold(vals, |a, b| a + b),
            Op::Sub => numeric_fold(vals, |a, b| a - b),
            Op::Mul => numeric_fold(vals, |a, b| a * b),
            Op::RealDiv => {
                let mut acc = rat_of(&vals[0])?;
                for v in &vals[1..] {
                    let d = rat_of(v)?;
                    if d.is_zero() {
                        match self.policy {
                            ZeroDivPolicy::Error => {
                                return Err(EvalError::DivisionByZero(term.to_string()))
                            }
                            ZeroDivPolicy::Zero => acc = BigRational::zero(),
                        }
                    } else {
                        acc = &acc / &d;
                    }
                }
                Ok(Value::Real(acc))
            }
            Op::IntDiv | Op::Mod => {
                let mut acc = int_of(&vals[0])?;
                for v in &vals[1..] {
                    let d = int_of(v)?;
                    if d.is_zero() {
                        match self.policy {
                            ZeroDivPolicy::Error => {
                                return Err(EvalError::DivisionByZero(term.to_string()))
                            }
                            ZeroDivPolicy::Zero => acc = BigInt::zero(),
                        }
                    } else if op == Op::IntDiv {
                        acc = acc.div_euclid_big(&d);
                    } else {
                        acc = acc.rem_euclid_big(&d);
                    }
                }
                Ok(Value::Int(acc))
            }
            Op::Le => compare_chain(vals, |o| o != std::cmp::Ordering::Greater),
            Op::Lt => compare_chain(vals, |o| o == std::cmp::Ordering::Less),
            Op::Ge => compare_chain(vals, |o| o != std::cmp::Ordering::Less),
            Op::Gt => compare_chain(vals, |o| o == std::cmp::Ordering::Greater),
            Op::ToReal => Ok(Value::Real(rat_of(&vals[0])?)),
            Op::ToInt => Ok(Value::Int(rat_of(&vals[0])?.floor())),
            Op::IsInt => Ok(Value::Bool(rat_of(&vals[0])?.is_integer())),
            Op::StrConcat => {
                let mut out = String::new();
                for v in vals {
                    out.push_str(str_of(v)?);
                }
                Ok(Value::Str(out))
            }
            Op::StrLen => Ok(Value::Int(BigInt::from(str_of(&vals[0])?.chars().count() as i64))),
            Op::StrAt => {
                let s = str_of(&vals[0])?;
                let i = int_of(&vals[1])?;
                let out = match i.to_i64() {
                    Some(i) if i >= 0 => {
                        s.chars().nth(i as usize).map(String::from).unwrap_or_default()
                    }
                    _ => String::new(),
                };
                Ok(Value::Str(out))
            }
            Op::StrSubstr => {
                let s: Vec<char> = str_of(&vals[0])?.chars().collect();
                let off = int_of(&vals[1])?;
                let len = int_of(&vals[2])?;
                let out = match (off.to_i64(), len.to_i64()) {
                    (Some(m), Some(n)) if m >= 0 && (m as usize) < s.len() && n >= 0 => {
                        let take = (n as usize).min(s.len() - m as usize);
                        s[m as usize..m as usize + take].iter().collect()
                    }
                    _ => String::new(),
                };
                Ok(Value::Str(out))
            }
            Op::StrPrefixOf => Ok(Value::Bool(str_of(&vals[1])?.starts_with(str_of(&vals[0])?))),
            Op::StrSuffixOf => Ok(Value::Bool(str_of(&vals[1])?.ends_with(str_of(&vals[0])?))),
            Op::StrContains => Ok(Value::Bool(str_of(&vals[0])?.contains(str_of(&vals[1])?))),
            Op::StrIndexOf => {
                let s: Vec<char> = str_of(&vals[0])?.chars().collect();
                let t: Vec<char> = str_of(&vals[1])?.chars().collect();
                let i = int_of(&vals[2])?;
                let out = match i.to_i64() {
                    Some(i) if i >= 0 && i as usize <= s.len() => {
                        find_from(&s, &t, i as usize).map(|j| j as i64).unwrap_or(-1)
                    }
                    _ => -1,
                };
                Ok(Value::Int(BigInt::from(out)))
            }
            Op::StrReplace => {
                let s = str_of(&vals[0])?;
                let t = str_of(&vals[1])?;
                let r = str_of(&vals[2])?;
                // SMT-LIB 2.6: if t is empty, result is r ++ s.
                let out = if t.is_empty() { format!("{r}{s}") } else { s.replacen(t, r, 1) };
                Ok(Value::Str(out))
            }
            Op::StrReplaceAll => {
                let s = str_of(&vals[0])?;
                let t = str_of(&vals[1])?;
                let r = str_of(&vals[2])?;
                // SMT-LIB 2.6: if t is empty, result is s.
                let out = if t.is_empty() { s.to_owned() } else { s.replace(t, r) };
                Ok(Value::Str(out))
            }
            Op::StrToInt => {
                let s = str_of(&vals[0])?;
                let out = if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
                    s.parse::<BigInt>().expect("digit string parses")
                } else {
                    BigInt::from(-1)
                };
                Ok(Value::Int(out))
            }
            Op::StrFromInt => {
                let i = int_of(&vals[0])?;
                let out = if i.is_negative() { String::new() } else { i.to_string() };
                Ok(Value::Str(out))
            }
            Op::StrToRe
            | Op::ReNone
            | Op::ReAll
            | Op::ReAllChar
            | Op::ReConcat
            | Op::ReUnion
            | Op::ReInter
            | Op::ReStar
            | Op::RePlus
            | Op::ReOpt
            | Op::ReRange => {
                Err(EvalError::SortMismatch("RegLan term evaluated outside str.in_re".to_owned()))
            }
            Op::And | Op::Or | Op::Implies | Op::Ite | Op::StrInRe => {
                unreachable!("handled above")
            }
        }
    }

    fn eval_bool(&self, term: &Term, scope: &mut Scope<'_>) -> Result<bool, EvalError> {
        bool_of(&self.eval(term, scope)?)
    }
}

fn find_from(s: &[char], t: &[char], from: usize) -> Option<usize> {
    if t.is_empty() {
        return Some(from);
    }
    let last = s.len().checked_sub(t.len())?;
    (from..=last).find(|&j| s[j..j + t.len()] == *t)
}

fn bool_of(v: &Value) -> Result<bool, EvalError> {
    v.as_bool().ok_or_else(|| sort_err_plain("Bool", v))
}

fn int_of(v: &Value) -> Result<BigInt, EvalError> {
    match v {
        Value::Int(i) => Ok(i.clone()),
        _ => Err(sort_err_plain("Int", v)),
    }
}

fn rat_of(v: &Value) -> Result<BigRational, EvalError> {
    v.as_rational().ok_or_else(|| sort_err_plain("Real", v))
}

fn str_of(v: &Value) -> Result<&str, EvalError> {
    v.as_str().ok_or_else(|| sort_err_plain("String", v))
}

fn sort_err(op: &str, v: &Value) -> EvalError {
    EvalError::SortMismatch(format!("{op} applied to {}", v.sort()))
}

fn sort_err_plain(expected: &str, v: &Value) -> EvalError {
    EvalError::SortMismatch(format!("expected {expected}, got {}", v.sort()))
}

fn values_equal(a: &Value, b: &Value) -> Result<bool, EvalError> {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => Ok(x == y),
        (Value::Str(x), Value::Str(y)) => Ok(x == y),
        (Value::Int(x), Value::Int(y)) => Ok(x == y),
        (Value::Real(_), _) | (_, Value::Real(_)) | (Value::Int(_), _) | (_, Value::Int(_)) => {
            match (a.as_rational(), b.as_rational()) {
                (Some(x), Some(y)) => Ok(x == y),
                _ => Err(EvalError::SortMismatch(format!(
                    "= applied to {} and {}",
                    a.sort(),
                    b.sort()
                ))),
            }
        }
        _ => Err(EvalError::SortMismatch(format!("= applied to {} and {}", a.sort(), b.sort()))),
    }
}

fn numeric_unop(v: &Value, f: impl Fn(&BigRational) -> BigRational) -> Result<Value, EvalError> {
    match v {
        Value::Int(i) => {
            let r = f(&BigRational::from_int(i.clone()));
            Ok(Value::Int(r.floor()))
        }
        Value::Real(r) => Ok(Value::Real(f(r))),
        v => Err(sort_err_plain("numeric", v)),
    }
}

/// Folds a chain with Int result unless any operand is Real.
fn numeric_fold(
    vals: &[Value],
    f: impl Fn(&BigRational, &BigRational) -> BigRational,
) -> Result<Value, EvalError> {
    let any_real = vals.iter().any(|v| matches!(v, Value::Real(_)));
    let mut acc = rat_of(&vals[0])?;
    for v in &vals[1..] {
        acc = f(&acc, &rat_of(v)?);
    }
    if any_real {
        Ok(Value::Real(acc))
    } else {
        debug_assert!(acc.is_integer(), "Int arithmetic must stay integral");
        Ok(Value::Int(acc.floor()))
    }
}

fn compare_chain(
    vals: &[Value],
    accept: impl Fn(std::cmp::Ordering) -> bool,
) -> Result<Value, EvalError> {
    for w in vals.windows(2) {
        let a = rat_of(&w[0])?;
        let b = rat_of(&w[1])?;
        if !accept(a.cmp(&b)) {
            return Ok(Value::Bool(false));
        }
    }
    Ok(Value::Bool(true))
}

/// Converts a `RegLan`-sorted term to a semantic [`Regex`], evaluating any
/// embedded string terms (e.g. `(str.to_re x)`).
fn regex_of_term(term: &Term, scope: &mut Scope<'_>, ev: &Evaluator) -> Result<Regex, EvalError> {
    match term.kind() {
        TermKind::App(op, args) => {
            let sub = |a: &Term, scope: &mut Scope<'_>| -> Result<Rc<Regex>, EvalError> {
                Ok(Rc::new(regex_of_term(a, scope, ev)?))
            };
            match op {
                Op::ReNone => Ok(Regex::None),
                Op::ReAll => Ok(Regex::All),
                Op::ReAllChar => Ok(Regex::AllChar),
                Op::StrToRe => {
                    let v = ev.eval(&args[0], scope)?;
                    Ok(Regex::Lit(str_of(&v)?.to_owned()))
                }
                Op::ReRange => {
                    let lo = ev.eval(&args[0], scope)?;
                    let hi = ev.eval(&args[1], scope)?;
                    let (lo, hi) = (str_of(&lo)?.to_owned(), str_of(&hi)?.to_owned());
                    // Per SMT-LIB: both bounds must be single characters,
                    // otherwise the language is empty.
                    match (char_of(&lo), char_of(&hi)) {
                        (Some(l), Some(h)) => Ok(Regex::Range(l, h)),
                        _ => Ok(Regex::None),
                    }
                }
                Op::ReConcat => {
                    let parts =
                        args.iter().map(|a| sub(a, scope)).collect::<Result<Vec<_>, _>>()?;
                    Ok(Regex::Concat(parts))
                }
                Op::ReUnion => {
                    let parts =
                        args.iter().map(|a| sub(a, scope)).collect::<Result<Vec<_>, _>>()?;
                    Ok(Regex::Union(parts))
                }
                Op::ReInter => {
                    let parts =
                        args.iter().map(|a| sub(a, scope)).collect::<Result<Vec<_>, _>>()?;
                    Ok(Regex::Inter(parts))
                }
                Op::ReStar => Ok(Regex::Star(sub(&args[0], scope)?)),
                Op::RePlus => Ok(Regex::Plus(sub(&args[0], scope)?)),
                Op::ReOpt => Ok(Regex::Opt(sub(&args[0], scope)?)),
                other => Err(EvalError::SortMismatch(format!(
                    "expected RegLan term, got application of {other}"
                ))),
            }
        }
        other => Err(EvalError::SortMismatch(format!("expected RegLan term, got {other:?}"))),
    }
}

/// Builds a semantic regex from a *closed* `RegLan` term (no free string
/// variables under `str.to_re`).
///
/// # Errors
///
/// Fails when the term is not a `RegLan` term or contains free variables.
pub fn regex_of_closed_term(term: &Term) -> Result<Regex, EvalError> {
    let empty = Model::new();
    let mut scope = Scope::new(&empty);
    regex_of_term(term, &mut scope, &Evaluator { policy: ZeroDivPolicy::Error })
}

fn char_of(s: &str) -> Option<char> {
    let mut it = s.chars();
    match (it.next(), it.next()) {
        (Some(c), None) => Some(c),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;

    fn model(pairs: &[(&str, Value)]) -> Model {
        pairs.iter().map(|(k, v)| (Symbol::new(*k), v.clone())).collect()
    }

    fn ival(v: i64) -> Value {
        Value::Int(BigInt::from(v))
    }

    fn rval(n: i64, d: i64) -> Value {
        Value::Real(BigRational::new(n.into(), d.into()))
    }

    fn sval(s: &str) -> Value {
        Value::Str(s.to_owned())
    }

    fn eval(src: &str, m: &Model) -> Value {
        m.eval(&parse_term(src).unwrap()).unwrap()
    }

    #[test]
    fn arithmetic_basics() {
        let m = model(&[("x", ival(3)), ("y", ival(-2))]);
        assert_eq!(eval("(+ x y 1)", &m), ival(2));
        assert_eq!(eval("(* x y)", &m), ival(-6));
        assert_eq!(eval("(- x y)", &m), ival(5));
        assert_eq!(eval("(abs y)", &m), ival(2));
        assert_eq!(eval("(div x 2)", &m), ival(1));
        assert_eq!(eval("(mod y 3)", &m), ival(1));
        assert_eq!(eval("(div y 2)", &m), ival(-1));
    }

    #[test]
    fn euclidean_div_on_negatives() {
        // SMT-LIB: (div -7 2) = -4, (mod -7 2) = 1.
        let m = Model::new();
        assert_eq!(eval("(div (- 7) 2)", &m), ival(-4));
        assert_eq!(eval("(mod (- 7) 2)", &m), ival(1));
        assert_eq!(eval("(div 7 (- 2))", &m), ival(-3));
        assert_eq!(eval("(mod 7 (- 2))", &m), ival(1));
    }

    #[test]
    fn mixed_int_real_comparisons() {
        let m = model(&[("y", rval(1, 2))]);
        assert_eq!(eval("(> y 0)", &m), Value::Bool(true));
        assert_eq!(eval("(< y 1)", &m), Value::Bool(true));
        assert_eq!(eval("(= (+ y y) 1)", &m), Value::Bool(true));
    }

    #[test]
    fn chained_comparisons() {
        let m = Model::new();
        assert_eq!(eval("(< 1 2 3)", &m), Value::Bool(true));
        assert_eq!(eval("(< 1 3 2)", &m), Value::Bool(false));
        assert_eq!(eval("(<= 1 1 2)", &m), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_policies() {
        let m = Model::new();
        let t = parse_term("(div 5 0)").unwrap();
        assert!(matches!(m.eval(&t), Err(EvalError::DivisionByZero(_))));
        assert_eq!(m.eval_with(&t, ZeroDivPolicy::Zero).unwrap(), ival(0));
        let t2 = parse_term("(/ 5.0 0.0)").unwrap();
        assert!(matches!(m.eval(&t2), Err(EvalError::DivisionByZero(_))));
        assert_eq!(m.eval_with(&t2, ZeroDivPolicy::Zero).unwrap(), rval(0, 1));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // `and` short-circuits before the division by zero.
        let m = Model::new();
        assert_eq!(eval("(and false (= (div 1 0) 0))", &m), Value::Bool(false));
        assert_eq!(eval("(or true (= (div 1 0) 0))", &m), Value::Bool(true));
        assert_eq!(eval("(ite true 1 (div 1 0))", &m), ival(1));
    }

    #[test]
    fn implies_right_associative() {
        let m = Model::new();
        assert_eq!(eval("(=> false true)", &m), Value::Bool(true));
        assert_eq!(eval("(=> true false)", &m), Value::Bool(false));
        // (=> a b c) == a => (b => c)
        assert_eq!(eval("(=> true false true)", &m), Value::Bool(true));
        assert_eq!(eval("(=> true true false)", &m), Value::Bool(false));
    }

    #[test]
    fn string_operations() {
        let m = model(&[("a", sval("foobar")), ("b", sval("foo")), ("c", sval("bar"))]);
        assert_eq!(eval("(str.++ b c)", &m), sval("foobar"));
        assert_eq!(eval("(str.len a)", &m), ival(6));
        assert_eq!(eval("(str.at a 0)", &m), sval("f"));
        assert_eq!(eval("(str.at a 10)", &m), sval(""));
        assert_eq!(eval("(str.at a (- 1))", &m), sval(""));
        assert_eq!(eval("(str.substr a 0 3)", &m), sval("foo"));
        assert_eq!(eval("(str.substr a 3 100)", &m), sval("bar"));
        assert_eq!(eval("(str.substr a 6 1)", &m), sval(""));
        assert_eq!(eval("(str.contains a b)", &m), Value::Bool(true));
        assert_eq!(eval("(str.prefixof b a)", &m), Value::Bool(true));
        assert_eq!(eval("(str.suffixof c a)", &m), Value::Bool(true));
        assert_eq!(eval("(str.indexof a c 0)", &m), ival(3));
        assert_eq!(eval("(str.indexof a \"zz\" 0)", &m), ival(-1));
        assert_eq!(eval("(str.replace a b \"\")", &m), sval("bar"));
        assert_eq!(eval("(str.replace a \"\" \"X\")", &m), sval("Xfoobar"));
        assert_eq!(eval("(str.replace_all \"aaa\" \"a\" \"b\")", &m), sval("bbb"));
        assert_eq!(eval("(str.replace_all \"aaa\" \"\" \"b\")", &m), sval("aaa"));
    }

    #[test]
    fn str_int_conversions() {
        let m = Model::new();
        assert_eq!(eval("(str.to_int \"42\")", &m), ival(42));
        assert_eq!(eval("(str.to_int \"0042\")", &m), ival(42));
        assert_eq!(eval("(str.to_int \"\")", &m), ival(-1));
        assert_eq!(eval("(str.to_int \"4a\")", &m), ival(-1));
        assert_eq!(eval("(str.to_int \"-4\")", &m), ival(-1));
        assert_eq!(eval("(str.from_int 42)", &m), sval("42"));
        assert_eq!(eval("(str.from_int (- 3))", &m), sval(""));
        assert_eq!(eval("(str.from_int 0)", &m), sval("0"));
    }

    #[test]
    fn regex_membership() {
        let m = model(&[("c", sval("aaaa")), ("d", sval("aaa"))]);
        assert_eq!(eval("(str.in_re c (re.* (str.to_re \"aa\")))", &m), Value::Bool(true));
        assert_eq!(eval("(str.in_re d (re.* (str.to_re \"aa\")))", &m), Value::Bool(false));
        assert_eq!(
            eval("(str.in_re \"b\" (re.union (str.to_re \"a\") (str.to_re \"b\")))", &m),
            Value::Bool(true)
        );
        assert_eq!(eval("(str.in_re \"x\" (re.range \"a\" \"c\"))", &m), Value::Bool(false));
    }

    #[test]
    fn regex_with_variable_operand() {
        // (str.to_re x) where x is a variable — evaluated from the model.
        let m = model(&[("x", sval("ab")), ("s", sval("abab"))]);
        assert_eq!(eval("(str.in_re s (re.* (str.to_re x)))", &m), Value::Bool(true));
    }

    #[test]
    fn let_is_parallel() {
        let m = model(&[("x", ival(1))]);
        // Parallel let: both bindings see the outer x.
        assert_eq!(eval("(let ((x 2) (y x)) (+ x y))", &m), ival(3));
    }

    #[test]
    fn quantifiers_are_rejected() {
        let m = Model::new();
        let t = parse_term("(forall ((x Int)) (> x 0))").unwrap();
        assert_eq!(m.eval(&t), Err(EvalError::Quantifier));
    }

    #[test]
    fn unbound_variable_is_reported() {
        let m = Model::new();
        let t = parse_term("(> q 0)").unwrap();
        assert_eq!(m.eval(&t), Err(EvalError::UnboundVar(Symbol::new("q"))));
    }

    #[test]
    fn satisfies_checks_paper_phi1() {
        // φ1 ≡ (x = −1) ∧ (w = (x = −1)) ∧ w from Section 2.1.
        let t = parse_term("(and (= x (- 1)) (= w (= x (- 1))) w)").unwrap();
        let m = model(&[("x", ival(-1)), ("w", Value::Bool(true))]);
        assert!(m.satisfies(&t).unwrap());
        let bad = model(&[("x", ival(0)), ("w", Value::Bool(true))]);
        assert!(!bad.satisfies(&t).unwrap());
    }

    #[test]
    fn to_real_to_int() {
        let m = Model::new();
        assert_eq!(eval("(to_real 3)", &m), rval(3, 1));
        assert_eq!(eval("(to_int 3.7)", &m), ival(3));
        assert_eq!(eval("(to_int (- 3.7))", &m), ival(-4));
        assert_eq!(eval("(is_int 4.0)", &m), Value::Bool(true));
        assert_eq!(eval("(is_int 4.5)", &m), Value::Bool(false));
    }

    #[test]
    fn model_display() {
        let m = model(&[("x", ival(-1)), ("s", sval("hi"))]);
        let text = m.to_smtlib();
        assert!(text.contains("(define-fun s () String \"hi\")"));
        assert!(text.contains("(define-fun x () Int (- 1))"));
    }
}
