//! The `experiments` binary's command line: ids come from the registry, and
//! malformed arguments exit 2 with the usage text instead of silently
//! falling back to a default or being read as an experiment id.

use bitempo_bench::experiments::EXPERIMENTS;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary")
}

#[test]
fn list_prints_every_registry_id_once_in_run_all_order() {
    let out = experiments(&["list"]);
    assert!(out.status.success(), "{out:?}");
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    assert_eq!(listed, ids);
    assert_eq!(ids.len(), 27);
}

#[test]
fn malformed_arguments_exit_2_with_the_usage() {
    for args in [
        &[][..],
        &["fig2", "--h"],
        &["fig2", "--h", "abc"],
        &["fig2", "--m", "0"],
        &["fig2", "--m", "NaN"],
        &["fig2", "--out"],
        &["--bogus", "fig2"],
        &["fig2", "--h=0.001"],
        &["fig2", "fig3"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("usage: experiments"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("temporal-index"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn an_unknown_id_fails_the_run() {
    let out = experiments(&["fig99", "--h", "0.001"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment fig99"), "{stderr}");
}
