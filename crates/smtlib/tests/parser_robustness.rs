//! Robustness: the lexer/parser must never panic — any byte soup either
//! parses or returns a structured error.

use yinyang_rt::{props, Rng, StdRng};
use yinyang_smtlib::{check_script, parse_script, parse_term, tokenize, Model, Value, MAX_NESTING};

/// Arbitrary printable text (plus some control/unicode characters) up to
/// `max` characters.
fn any_text(rng: &mut StdRng, max: usize) -> String {
    let n = rng.random_range(0..=max);
    (0..n)
        .map(|_| match rng.random_range(0..10usize) {
            0 => char::from(rng.random_range(0u8..32) as u8), // control chars
            1 => ['λ', '∀', '𝔽', 'é', '\u{7f}'][rng.random_range(0..5usize)],
            _ => char::from(rng.random_range(32u8..127)),
        })
        .collect()
}

/// S-expression-flavored soup: the characters the grammar actually uses.
fn sexpr_soup(rng: &mut StdRng, max: usize) -> String {
    const CHARS: &[u8] = br#"()abcdefghijklmnopqrstuvwxyz0123456789:"|;.-+*= "#;
    let n = rng.random_range(0..=max);
    (0..n).map(|_| CHARS[rng.random_range(0..CHARS.len())] as char).collect()
}

props! {
    cases: 512;

    fn tokenizer_never_panics(input in |r: &mut StdRng| any_text(r, 200)) {
        let _ = tokenize(&input);
    }

    fn parser_never_panics_on_arbitrary_text(input in |r: &mut StdRng| any_text(r, 200)) {
        let _ = parse_script(&input);
        let _ = parse_term(&input);
    }

    fn parser_never_panics_on_sexpr_soup(input in |r: &mut StdRng| sexpr_soup(r, 160)) {
        let _ = parse_script(&input);
    }

    fn accepted_soup_reaches_a_print_fixed_point(input in |r: &mut StdRng| sexpr_soup(r, 160)) {
        // Whenever random soup happens to parse, one parse→print round
        // normalizes it: reparsing the printed form is total and a fixed
        // point of print∘parse.
        if let Ok(script) = parse_script(&input) {
            let printed = script.to_string();
            let reparsed = parse_script(&printed)
                .unwrap_or_else(|e| panic!("printed script failed to reparse: {e}\n{printed}"));
            assert_eq!(reparsed, script);
            assert_eq!(reparsed.to_string(), printed, "print not idempotent");
        }
    }

    fn parse_of_printed_script_is_total(seed in |r: &mut StdRng| r.random_range(0u64..=u64::MAX)) {
        // Scripts we print always reparse.
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.random_range(1..4usize);
        let mut script = yinyang_smtlib::Script::new();
        for i in 0..count {
            let len = rng.random_range(0..=5usize);
            let mut name = String::new();
            name.push(char::from(rng.random_range(b'a'..=b'z')));
            for _ in 0..len {
                let c = if rng.random_bool(0.7) {
                    rng.random_range(b'a'..=b'z')
                } else {
                    rng.random_range(b'0'..=b'9')
                };
                name.push(char::from(c));
            }
            // Suffix with the index so repeated names stay distinct.
            let name = format!("{name}{i}");
            let v = rng.random_range(-100i64..100);
            script.declare_var(name.as_str(), yinyang_smtlib::Sort::Int);
            script.assert_term(yinyang_smtlib::Term::eq(
                yinyang_smtlib::Term::var(name.as_str()),
                yinyang_smtlib::Term::int(v),
            ));
        }
        let text = script.to_string();
        assert!(parse_script(&text).is_ok(), "failed to reparse: {text}");
    }
}

/// `(assert (not (not … x)))` with `depth` nested `not`s.
fn nested_not(depth: usize) -> String {
    format!(
        "(declare-fun x () Bool)(assert {}x{})(check-sat)",
        "(not ".repeat(depth),
        ")".repeat(depth)
    )
}

#[test]
fn deeply_nested_input_is_handled() {
    // 300 levels of nesting: must error or parse without stack overflow.
    let deep = format!("{}x{}", "(not ".repeat(300), ")".repeat(300));
    let _ = parse_term(&deep);
    let unbalanced = "(".repeat(500);
    assert!(parse_script(&unbalanced).is_err());

    // Far past the limit: an error naming the first parenthesis too deep.
    let err = parse_script(&nested_not(50_000)).expect_err("50,000 levels are refused");
    let first_not = "(declare-fun x () Bool)(assert ".len();
    assert_eq!(err.offset, first_not + MAX_NESTING * "(not ".len());
    assert!(err.message.contains("nesting"), "{err}");
    assert!(parse_script(&nested_not(MAX_NESTING + 1)).is_err());
    // Attribute values are skipped as s-expressions, under the same limit.
    let info = format!("(set-info :source {}x{})", "(".repeat(50_000), ")".repeat(50_000));
    assert!(parse_script(&info).is_err());

    // At the limit, every pass runs on the default stack of a spawned thread.
    let at_limit = nested_not(MAX_NESTING);
    std::thread::spawn(move || {
        let script = parse_script(&at_limit).expect("the limit itself parses");
        check_script(&script).expect("typechecks");
        let assertion = &script.asserts()[0];
        assert_eq!(parse_term(&assertion.to_string()).as_ref(), Ok(assertion));
        let mut model = Model::new();
        model.set("x", Value::Bool(true));
        assert_eq!(model.eval(assertion), Ok(Value::Bool(MAX_NESTING.is_multiple_of(2))));
    })
    .join()
    .expect("no stack overflow at the nesting limit");
}

#[test]
fn pathological_strings() {
    for s in [
        "\"",
        "\"\"\"",
        "(assert \"",
        "|",
        "(assert (= x 1.))",
        "(assert (= x .5))",
        "(assert ())",
        "(check-sat",
        ")",
    ] {
        let _ = parse_script(s); // must not panic
    }
}
