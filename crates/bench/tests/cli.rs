//! Every binary of the crate refuses a command line it does not take
//! before any work: exit 2, the argument named on stderr, nothing on
//! stdout.

use std::process::Command;

/// Runs `bin` with `args` and asserts the refusal, naming the last one.
fn refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    let named = args.last().expect("an argument");
    assert!(stderr.contains(named), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} worked");
}

#[test]
fn every_binary_refuses_a_misspelt_flag() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_table2_loc"), &["--bogus"][..]),
        (env!("CARGO_BIN_EXE_table3_workloads"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_all_figures"), &["--quick", "--onyl"]),
        (env!("CARGO_BIN_EXE_ablation_versioning"), &["--quik"]),
        (env!("CARGO_BIN_EXE_obs_smoke"), &["--blesss"]),
        (env!("CARGO_BIN_EXE_gdur-trace"), &["dump", "--client"]),
        (env!("CARGO_BIN_EXE_perf_gate"), &["--blesss"]),
        (env!("CARGO_BIN_EXE_chaos_smoke"), &["--blesss"]),
        (env!("CARGO_BIN_EXE_mc_smoke"), &["--blesss"]),
        (env!("CARGO_BIN_EXE_mega_smoke"), &["--blesss"]),
        (
            env!("CARGO_BIN_EXE_gdur-mc"),
            &["explore", "walter", "--budgte"],
        ),
    ] {
        refused(bin, args);
    }
}

#[test]
fn a_stray_argument_or_a_missing_or_bad_value_is_refused() {
    let trace = env!("CARGO_BIN_EXE_gdur-trace");
    refused(env!("CARGO_BIN_EXE_table3_workloads"), &["stray"]);
    refused(env!("CARGO_BIN_EXE_chaos_smoke"), &["bless"]);
    refused(env!("CARGO_BIN_EXE_all_figures"), &["--quick", "--seed"]);
    refused(trace, &["dump", "--tx", "3:2", "--clients"]);
    refused(trace, &["dump", "--clients", "many"]);
    refused(env!("CARGO_BIN_EXE_mega_smoke"), &["ten"]);
}
