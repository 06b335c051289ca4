//! The workloads' inputs. The example specs are copied into `ledger/specs`
//! and compiled in, so an edit to `examples/specs` cannot silently change
//! what a workload measures.

use std::fmt::Write;

/// The specs `http_hot` serves from the result cache, as `(name, text)`.
pub const HOT_SPECS: [(&str, &str); 5] = [
    ("toggle_pair", include_str!("../specs/toggle_pair.ftr")),
    ("tmr_voter", include_str!("../specs/tmr_voter.ftr")),
    ("token_ring", include_str!("../specs/token_ring.ftr")),
    ("stabilizing_chain", include_str!("../specs/stabilizing_chain.ftr")),
    ("stabilizing_chain10", include_str!("../specs/stabilizing_chain10.ftr")),
];

/// The stabilizing chain `Sc^n` over cells `0..d` in the input language.
///
/// `edit_cell: Some(c)` adds one action to cell `c` (`1 <= c < n`) whose
/// transitions the cell's copy action already covers: the program, and so
/// its repair, is unchanged, but the text, the content key and the
/// fingerprint move (fingerprint distance 1 from the unedited chain).
/// `chain_spec(n, d, None)` and `chain_spec(n, d, Some(1))` are byte for byte
/// the texts of `ftrepair_bench::warm_chain_spec(n, d, false|true)`.
pub fn chain_spec(n: usize, d: u64, edit_cell: Option<usize>) -> String {
    assert!(n >= 2 && d >= 2, "a chain needs two cells of two values");
    assert!(edit_cell.is_none_or(|c| (1..n).contains(&c)), "edit cell out of range");
    let mut s = String::new();
    let suffix = if edit_cell.is_some() { "e" } else { "" };
    writeln!(s, "program warmchain{n}x{d}{suffix};\n").unwrap();
    for i in 0..n {
        writeln!(s, "var x{i} : 0..{};", d - 1).unwrap();
    }
    for i in 1..n {
        let p = i - 1;
        writeln!(s, "\nprocess c{i}\n  read x{p}, x{i};\n  write x{i};\nbegin").unwrap();
        writeln!(s, "  !(x{i} = x{p}) -> x{i} := x{p};").unwrap();
        if edit_cell == Some(i) {
            writeln!(s, "  (x{i} < x{p}) -> x{i} := x{p};").unwrap();
        }
        writeln!(s, "end").unwrap();
    }
    let choices = (0..d).map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    writeln!(s, "\nfault transient\nbegin").unwrap();
    for i in 0..n {
        writeln!(s, "  true -> x{i} := {{{choices}}};").unwrap();
    }
    writeln!(s, "end\n").unwrap();
    let inv = (1..n).map(|i| format!("(x{} = x{i})", i - 1)).collect::<Vec<_>>().join(" & ");
    writeln!(s, "invariant {inv};").unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_spec_reproduces_the_warm_start_ablation_texts() {
        for (n, d) in [(2, 2), (5, 3), (10, 8)] {
            assert_eq!(chain_spec(n, d, None), ftrepair_bench::warm_chain_spec(n, d, false));
            assert_eq!(chain_spec(n, d, Some(1)), ftrepair_bench::warm_chain_spec(n, d, true));
        }
    }

    #[test]
    fn edits_are_one_action_away_and_repair_identically() {
        use ftrepair_store::SpecFingerprint;
        let donor = ftrepair_lang::parse(&chain_spec(4, 3, None)).unwrap();
        let edit = ftrepair_lang::parse(&chain_spec(4, 3, Some(3))).unwrap();
        assert_eq!(SpecFingerprint::of(&donor).distance(&SpecFingerprint::of(&edit)), Some(1));

        let opts = ftrepair_core::RepairOptions::default();
        let mut counts = Vec::new();
        for ast in [&donor, &edit] {
            let mut prog = ftrepair_lang::compile(ast).unwrap();
            let out = ftrepair_core::lazy_repair(&mut prog, &opts).unwrap();
            counts.push((prog.cx.count_states(out.invariant), prog.cx.count_states(out.span)));
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], (3.0, 81.0));
    }

    #[test]
    fn every_hot_spec_parses_and_compiles() {
        for (name, text) in HOT_SPECS {
            let ast = ftrepair_lang::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            ftrepair_lang::compile(&ast).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
