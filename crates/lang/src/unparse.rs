//! Pretty-printing the AST back to concrete syntax.
//!
//! `parse(unparse(ast)) == ast` — the round trip is exact (tested, including
//! property-based round trips over random ASTs), which makes the printer
//! safe to use for saving generated or transformed programs.

use crate::ast::*;
use std::fmt::Write;

/// Render a whole program.
pub fn unparse(p: &Program) -> String {
    let mut out = String::new();
    writeln!(out, "program {};", p.name).unwrap();
    writeln!(out).unwrap();
    for v in &p.vars {
        if v.lo == 0 && v.hi == 1 {
            writeln!(out, "var {} : boolean;", v.name).unwrap();
        } else {
            writeln!(out, "var {} : {}..{};", v.name, v.lo, v.hi).unwrap();
        }
    }
    for proc_ in &p.processes {
        writeln!(out).unwrap();
        writeln!(out, "process {}", proc_.name).unwrap();
        writeln!(out, "  read {};", proc_.read.join(", ")).unwrap();
        writeln!(out, "  write {};", proc_.write.join(", ")).unwrap();
        writeln!(out, "begin").unwrap();
        for a in &proc_.actions {
            writeln!(out, "  {}", unparse_action(a)).unwrap();
        }
        writeln!(out, "end").unwrap();
    }
    for f in &p.faults {
        writeln!(out).unwrap();
        writeln!(out, "fault {}", f.name).unwrap();
        writeln!(out, "begin").unwrap();
        for a in &f.actions {
            writeln!(out, "  {}", unparse_action(a)).unwrap();
        }
        writeln!(out, "end").unwrap();
    }
    for e in &p.invariants {
        writeln!(out, "invariant {};", unparse_expr(e)).unwrap();
    }
    for e in &p.bad_states {
        writeln!(out, "badstates {};", unparse_expr(e)).unwrap();
    }
    for e in &p.bad_trans {
        writeln!(out, "badtrans {};", unparse_expr(e)).unwrap();
    }
    for (l, t) in &p.leads_to {
        writeln!(out, "leadsto {} => {};", unparse_expr(l), unparse_expr(t)).unwrap();
    }
    out
}

fn unparse_action(a: &Action) -> String {
    let assigns: Vec<String> = a
        .assigns
        .iter()
        .map(|asg| {
            if asg.choices.len() == 1 {
                format!("{} := {}", asg.target, unparse_expr(&asg.choices[0]))
            } else {
                let cs: Vec<String> = asg.choices.iter().map(unparse_expr).collect();
                format!("{} := {{{}}}", asg.target, cs.join(", "))
            }
        })
        .collect();
    format!("{} -> {};", unparse_expr(&a.guard), assigns.join(", "))
}

/// Render an expression, fully parenthesized (parenthesization is the
/// easiest way to make the round trip exact regardless of precedence).
/// Every operator opens exactly one parenthesis, so the text nests no
/// deeper than the expression, and anything the parser accepted under
/// [`crate::parser::MAX_EXPR_DEPTH`] prints as text it accepts again.
pub fn unparse_expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Bool(true) => "true".into(),
        Expr::Bool(false) => "false".into(),
        Expr::Var(n) => n.clone(),
        Expr::Primed(n) => format!("{n}'"),
        Expr::Not(x) => format!("!({})", unparse_expr(x)),
        Expr::And(l, r) => format!("({} & {})", unparse_expr(l), unparse_expr(r)),
        Expr::Or(l, r) => format!("({} | {})", unparse_expr(l), unparse_expr(r)),
        Expr::Cmp(op, l, r) => {
            let sym = match op {
                CmpOp::Eq => "=",
                CmpOp::Neq => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("({} {} {})", operand(l), sym, operand(r))
        }
        Expr::Add(l, r) => format!("({} + {})", operand(l), operand(r)),
        Expr::Sub(l, r) => format!("({} - {})", operand(l), operand(r)),
    }
}

/// An operand of a comparison, `+` or `-`. A `!` there prints as `(!e)`:
/// as `!(e)` the parser would apply it to the whole comparison or sum.
/// Such a spec does not compile, but its canonical text must still parse
/// back to it.
fn operand(e: &Expr) -> String {
    match e {
        Expr::Not(x) => format!("(!{})", unparse_expr(x)),
        _ => unparse_expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use ftrepair_bdd::SplitMix64;

    const TOY: &str = r#"
    program toggle;
    var x : 0..2;
    var y : boolean;
    process p
      read x, y;
      write x;
    begin
      (x = 0) & (y = 1) -> x := 1;
      (x = 1) -> x := {0, 2};
    end
    fault hit begin (x = 1) -> x := 2; end
    invariant (x = 0) | (x = 1);
    badstates (x = 2) & (y = 0);
    badtrans (x = 1) & (x' = 0);
    "#;

    #[test]
    fn roundtrip_toy_program() {
        let ast = parse(TOY).unwrap();
        let printed = unparse(&ast);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(ast, reparsed);
    }

    #[test]
    fn boolean_domain_prints_as_boolean() {
        let ast = parse("program t; var b : boolean;").unwrap();
        assert!(unparse(&ast).contains("var b : boolean;"));
    }

    /// A `!` under a comparison or a sum does not compile, but the spec
    /// parses, so its canonical text must parse back to it.
    #[test]
    fn negated_operands_round_trip() {
        for e in ["(!a) = b", "a = (!b)", "(!!a) + 1 = b", "(!(a = 1)) < 2 - (!c)"] {
            let ast = parse(&format!("program t; invariant {e};")).unwrap();
            let printed = unparse(&ast);
            assert_eq!(parse(&printed).as_ref(), Ok(&ast), "{e}: {printed}");
        }
    }

    // Random-AST round trip, driven by the in-tree deterministic PRNG so
    // every run checks the same 128 cases per property.

    const CASES: u64 = 128;

    /// Keywords and literal spellings a generated identifier must avoid —
    /// `parse(unparse(Var("var")))` would lex as a keyword, not a name.
    const RESERVED: &[&str] = &[
        "program",
        "var",
        "boolean",
        "process",
        "read",
        "write",
        "begin",
        "end",
        "fault",
        "invariant",
        "badstates",
        "badtrans",
        "leadsto",
        "true",
        "false",
    ];

    fn gen_name(rng: &mut SplitMix64) -> String {
        loop {
            let len = 1 + rng.gen_index(5);
            let mut s = String::new();
            for i in 0..len {
                let c = if i == 0 {
                    b'a' + rng.gen_range(26) as u8
                } else {
                    let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789";
                    alphabet[rng.gen_index(alphabet.len())]
                };
                s.push(c as char);
            }
            if !RESERVED.contains(&s.as_str()) {
                return s;
            }
        }
    }

    /// Value-typed expressions (what may appear under `+`, `-` and
    /// comparisons) — mirrors the language's typing, which is also what
    /// the grammar can express.
    fn gen_value(rng: &mut SplitMix64, depth: u32) -> Expr {
        if depth == 0 || rng.gen_range(3) == 0 {
            return match rng.gen_range(3) {
                0 => Expr::Int(rng.gen_range(10)),
                1 => Expr::Var(gen_name(rng)),
                _ => Expr::Primed(gen_name(rng)),
            };
        }
        let a = Box::new(gen_value(rng, depth - 1));
        let b = Box::new(gen_value(rng, depth - 1));
        if rng.coin() {
            Expr::Add(a, b)
        } else {
            Expr::Sub(a, b)
        }
    }

    /// Boolean-typed expressions.
    fn gen_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
        if depth == 0 || rng.gen_range(3) == 0 {
            if rng.coin() {
                return Expr::Bool(rng.coin());
            }
            let op = match rng.gen_range(6) {
                0 => CmpOp::Eq,
                1 => CmpOp::Neq,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                _ => CmpOp::Ge,
            };
            let a = Box::new(gen_value(rng, 2));
            let b = Box::new(gen_value(rng, 2));
            return Expr::Cmp(op, a, b);
        }
        match rng.gen_range(3) {
            0 => Expr::Not(Box::new(gen_expr(rng, depth - 1))),
            1 => Expr::And(Box::new(gen_expr(rng, depth - 1)), Box::new(gen_expr(rng, depth - 1))),
            _ => Expr::Or(Box::new(gen_expr(rng, depth - 1)), Box::new(gen_expr(rng, depth - 1))),
        }
    }

    #[test]
    fn expr_roundtrip() {
        for i in 0..CASES {
            let mut rng = SplitMix64::seed_from_u64(0x1000 + i);
            let e = gen_expr(&mut rng, 3);
            // Wrap in a minimal program: badtrans accepts primed vars.
            let src = format!("program t; badtrans {};", unparse_expr(&e));
            let ast = parse(&src).unwrap_or_else(|err| panic!("{err}\n{src}"));
            assert_eq!(&ast.bad_trans[0], &e, "case {i}: {src}");
        }
    }

    #[test]
    fn action_roundtrip() {
        for i in 0..CASES {
            let mut rng = SplitMix64::seed_from_u64(0x2000 + i);
            let guard = gen_expr(&mut rng, 3);
            let target = gen_name(&mut rng);
            let choices = (0..1 + rng.gen_index(2)).map(|_| gen_value(&mut rng, 2)).collect();
            let a = Action { guard, assigns: vec![Assign { target, choices }] };
            let src = format!("program t; fault f begin {} end", unparse_action(&a));
            let ast = parse(&src).unwrap_or_else(|err| panic!("{err}\n{}", unparse_action(&a)));
            assert_eq!(&ast.faults[0].actions[0], &a, "case {i}: {src}");
        }
    }
}
