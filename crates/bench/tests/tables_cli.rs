//! The `tables` binary's argument contract: anything it does not
//! understand exits 2 with one usage line, before any table runs.

use std::process::Command;

#[test]
fn misused_arguments_exit_2_with_the_usage_line() {
    let cases: [&[&str]; 4] =
        [&["--larg", "table2"], &["table2", "table1"], &["table4"], &["table2", "--metrics-out"]];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_tables")).args(args).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a table");
        let usage = stderr.lines().find(|l| l.starts_with("usage: tables ")).expect(&stderr);
        for word in [
            "table1",
            "table2",
            "table3",
            "ablations",
            "ablation_warm",
            "ablation_checkpoint_resume",
            "ablation_verify",
            "ablation_reach",
            "all",
            "digests",
            "--large",
            "--huge",
            "--metrics-out <path>",
        ] {
            assert!(usage.contains(word), "{args:?}: usage misses {word}: {usage}");
        }
    }
}
