//! The `experiments` binary rejects input it does not understand: an
//! unknown experiment id or `--` flag, or a `--filter` tag that no scenario
//! carries, exits with status 2 before any work runs, instead of printing
//! nothing or running every table at full scale.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary")
}

fn exit_code(args: &[&str]) -> Option<i32> {
    run(args).status.code()
}

#[test]
fn unknown_experiment_id_exits_2() {
    assert_eq!(exit_code(&["e99"]), Some(2));
}

#[test]
fn removed_and_unknown_flags_exit_2() {
    assert_eq!(exit_code(&["--json"]), Some(2));
    assert_eq!(exit_code(&["--serve", "--smoke"]), Some(2));
    assert_eq!(exit_code(&["--smoke", "--via-session"]), Some(2));
}

#[test]
fn list_honours_the_filter() {
    let out = run(&["--list", "--filter", "chaos"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    let want = hybrid_scenarios::by_tag("chaos");
    assert!(!want.is_empty(), "the registry ships chaos scenarios");
    let (header, rows) = stdout.split_once('\n').expect("a header line");
    let rows: Vec<&str> = rows.lines().collect();
    assert_eq!(rows.len(), want.len(), "one row per chaos scenario:\n{stdout}");
    assert!(header.starts_with(&format!("{} registered scenarios", want.len())), "{header}");
    for (row, sc) in rows.iter().zip(&want) {
        assert!(row.trim_start().starts_with(sc.name), "{row} lists {}", sc.name);
    }
}

#[test]
fn list_with_an_unknown_tag_exits_2() {
    assert_eq!(exit_code(&["--list", "--filter", "nosuchtag"]), Some(2));
}
