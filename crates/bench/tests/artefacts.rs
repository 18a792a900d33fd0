//! The committed `results/` files are the contract of `reproduce_all`'s
//! subcommands: every artefact that measures no time must come out byte
//! for byte as committed, at the sizes `scripts/capture_results.sh`
//! passes. A change that moves one of them (say, Table IV's iteration
//! counts) regenerates the file in the same change.

use std::process::Command;

fn assert_reproduces(stem: &str, sizes: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .arg(stem)
        .args(sizes)
        .output()
        .expect("reproduce_all runs");
    assert!(out.status.success(), "{stem}: {out:?}");
    let path = format!("{}/../../results/{stem}.txt", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("committed artefact");
    let printed = String::from_utf8(out.stdout).expect("utf-8 printout");
    assert!(
        printed == committed,
        "{stem} differs from {path}:\n{printed}"
    );
}

#[test]
fn fig1_sparsity_is_the_committed_file() {
    assert_reproduces("fig1_sparsity", &["14", "1000"]);
}

#[test]
fn table1_matrix_types_is_the_committed_file() {
    assert_reproduces("table1_matrix_types", &["1000"]);
}

#[test]
fn table2_devices_is_the_committed_file() {
    assert_reproduces("table2_devices", &[]);
}

#[test]
fn table4_iterations_is_the_committed_file() {
    assert_reproduces("table4_iterations", &["1000", "8"]);
}

#[test]
fn malformed_arguments_exit_with_status_2() {
    for argv in [
        &["table3_optimization", "1000", "1e5"][..],
        &["table2_devices", "1"],
        &["table1_matrix_types", "1000", "5"],
        &["table5_portability", "1", "2", "3", "4"],
        &["table6"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
            .args(argv)
            .output()
            .expect("reproduce_all runs");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: reproduce_all"), "{stderr}");
    }
}
