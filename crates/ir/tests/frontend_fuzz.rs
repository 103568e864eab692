//! Frontend robustness: the lexer/parser/compiler must never panic on
//! arbitrary input — only return errors — and must round-trip whatever the
//! program generator emits.

use thinslice_ir::{compile, lexer::lex, parser::parse, FileId};
use thinslice_util::SmallRng;

/// A random string of length `0..max_len` over `charset`.
fn random_string(rng: &mut SmallRng, charset: &[char], max_len: usize) -> String {
    (0..rng.range_usize(0, max_len))
        .map(|_| *rng.choose(charset))
        .collect()
}

/// Arbitrary text (including non-ASCII and control characters) never panics
/// the lexer.
#[test]
fn lexer_never_panics() {
    let charset: Vec<char> = (0u8..=127)
        .map(char::from)
        .chain(['é', 'λ', '→', '\u{0}', '𝄞'])
        .collect();
    for seed in 0..256u64 {
        let mut rng = SmallRng::new(seed);
        let input = random_string(&mut rng, &charset, 80);
        let _ = lex(FileId::new(0), &input);
    }
}

/// Arbitrary token-ish soup never panics the parser.
#[test]
fn parser_never_panics() {
    let charset: Vec<char> =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789{}()[];,.=+-*/%!<>&|\"' \n\t"
            .chars()
            .collect();
    for seed in 0..256u64 {
        let mut rng = SmallRng::new(seed ^ 0xbeef);
        let input = random_string(&mut rng, &charset, 80);
        let _ = parse(FileId::new(0), &input);
    }
}

/// Arbitrary class-shaped text never panics the whole pipeline.
#[test]
fn compiler_never_panics() {
    let charset: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789 ;=+(){}.[]"
        .chars()
        .collect();
    for seed in 0..256u64 {
        let mut rng = SmallRng::new(seed ^ 0xf00d);
        let body = random_string(&mut rng, &charset, 60);
        let src = format!("class Main {{ static void main() {{ {body} }} }}");
        let _ = compile(&[("t.mj", &src)]);
    }
}

/// A grab-bag of malformed programs that must produce *errors*, not panics
/// or silent acceptance.
#[test]
fn malformed_programs_error_cleanly() {
    let cases = [
        "",                               // no classes at all
        "class",                          // truncated
        "class A",                        // truncated
        "class A {",                      // unclosed
        "class A { int }",                // field without name
        "class A { void m( }",            // bad params
        "class A { void m() { if } }",    // bad statement
        "class A { void m() { x = ; } }", // missing rhs
        "class A { void m() { return return; } }",
        "class A { void m() { new ; } }",
        "class A { void m() { (int) true; } }", // cast of bool to int, also not a stmt
        "class A { void m() { while (1 {} } }",
        "class Main { static void main() { int[] a = new int[true]; } }",
        "class Main { static void main() { print(1 + ); } }",
        "class Main { static void main() { String s = \"unterminated; } }",
    ];
    for src in cases {
        match compile(&[("bad.mj", src)]) {
            Err(_) => {}
            Ok(_) => panic!("malformed program accepted: {src:?}"),
        }
    }
}

/// Error spans point into the right file and line.
#[test]
fn error_spans_are_positioned() {
    let err = compile(&[(
        "pos.mj",
        "class Main {\n    static void main() {\n        int x = true;\n    }\n}",
    )])
    .unwrap_err();
    assert_eq!(err.span.line, 3, "{err}");
}

/// Compiles `body` as `Main.main`'s body on a spawned thread with the
/// default 2 MiB stack, as the daemon compiles a `load`. A stack overflow
/// aborts the whole test binary.
fn compile_on_a_spawned_thread(body: String) -> Result<(), String> {
    let src = format!(
        "class Node {{ Node next; }}\n\
         class Main {{ static int id(int v) {{ return v; }}\n\
         static void main() {{\n{body}\n}} }}"
    );
    std::thread::spawn(move || {
        compile(&[("deep.mj", &src)])
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
    .join()
    .expect("the compiling thread does not panic")
}

/// A left-deep chain of `terms` ones.
fn sum_of_ones(terms: usize) -> String {
    vec!["1"; terms].join("+")
}

/// Nesting past the limit is a compile error, not a stack overflow: 2,000
/// parentheses around one expression, and a 20,000-term sum, whose
/// left-deep tree is as deep as the sum is long.
#[test]
fn nesting_past_the_limit_is_a_compile_error() {
    let parens = format!("int x = {}1{};", "(".repeat(2_000), ")".repeat(2_000));
    let sum = format!("int x = {};", sum_of_ones(20_000));
    for body in [parens, sum] {
        let err = compile_on_a_spawned_thread(body).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}

/// A way to nest code: its name, the levels its frame around the nested
/// part adds, and the method body nesting it `n` times.
type Shape = (&'static str, usize, fn(usize) -> String);

/// Each shape of nesting compiles exactly at the limit on the daemon's
/// stack size, and one level more is refused. The method body is one
/// level; an initialiser or a printed value is one more, except where an
/// array type's dimensions are the deepest part of a statement.
#[test]
fn programs_nested_to_the_limit_compile_on_a_two_mib_stack() {
    let max = thinslice_ir::parser::MAX_NESTING;
    let shapes: [Shape; 9] = [
        ("parentheses", 2, |n| {
            format!("int x = {}1{};", "(".repeat(n), ")".repeat(n))
        }),
        ("sum", 2, |n| format!("int x = {};", sum_of_ones(n + 1))),
        ("negations", 2, |n| format!("int x = {}1;", "- ".repeat(n))),
        ("casts", 2, |n| {
            format!("Object x = {}null;", "(Object) ".repeat(n))
        }),
        ("field loads", 2, |n| {
            format!("Node n = new Node();\nNode x = n{};", ".next".repeat(n))
        }),
        ("calls", 2, |n| {
            format!("int x = {}1{};", "id(".repeat(n), ")".repeat(n))
        }),
        ("blocks", 2, |n| {
            format!("{}print(1);{}", "{".repeat(n), "}".repeat(n))
        }),
        ("for loops", 2, |n| {
            format!("{}print(1);", "for (;;) ".repeat(n))
        }),
        ("array type", 1, |n| {
            format!("int{} x = null;", "[]".repeat(n))
        }),
    ];
    for (name, overhead, shape) in shapes {
        let at = max - overhead;
        compile_on_a_spawned_thread(shape(at))
            .unwrap_or_else(|e| panic!("{name} nested {at} deep: {e}"));
        let err = compile_on_a_spawned_thread(shape(at + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{name}: {err}");
    }
}
