//! The `experiments` binary rejects input it does not understand: an
//! unknown experiment id or `--` flag exits with status 2 before any work
//! runs, instead of printing nothing or running every table at full scale.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary");
    out.status.code()
}

#[test]
fn unknown_experiment_id_exits_2() {
    assert_eq!(exit_code(&["e99"]), Some(2));
}

#[test]
fn removed_and_unknown_flags_exit_2() {
    assert_eq!(exit_code(&["--json"]), Some(2));
    assert_eq!(exit_code(&["--serve", "--smoke"]), Some(2));
}
