//! # gdur-bench — table/figure regeneration and CI gates
//!
//! The tables and figures of the paper's evaluation (§8):
//!
//! | target | regenerates |
//! |---|---|
//! | `table2_loc` | Table 2 — protocol realization size |
//! | `table3_workloads` | Table 3 — workload definitions |
//! | `all_figures --only fig3a,fig3b` | Figure 3 — protocol comparison (DP / DT) |
//! | `all_figures --only fig4` | Figure 4 — GMU bottleneck ablation |
//! | `all_figures --only fig5` | Figure 5 — locality-aware P-Store |
//! | `all_figures --only fig6a,fig6b` | Figure 6 — 2PC vs AM-Cast dependability |
//! | `all_figures` | every figure, then Table 2 |
//!
//! `all_figures` accepts `--quick` for a reduced-scale run. Run with neither
//! `--only` nor `--seed` it is a gate: what it prints is diffed against
//! `golden/figures_quick.txt` (`--quick`, in CI) or `golden/figures_paper.txt`
//! (on demand; the record EXPERIMENTS.md cites). The `*_smoke` CI gates and
//! `perf_gate` share that golden-file check in [`golden`]; `gdur-trace`
//! explores the causal trace of one point. Host time is measured by the
//! standalone `benchmark/` crate, not here. Nothing here writes a file
//! except `--bless` and `gdur-trace export --chrome PATH`.

pub mod golden;

use gdur_harness::Scale;

/// Parses the scale flags of the figure binaries: `--quick` selects the
/// reduced scale; `--seed N` overrides the RNG seed. `flags` names the
/// binary's other flags. Exits 2 on a `--seed` that is not a number and on
/// a flag that is none of these, naming it.
pub fn scale_from_args(flags: &[&str]) -> Scale {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_scale(&args, flags).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn parse_scale(args: &[String], flags: &[&str]) -> Result<Scale, String> {
    let known = |a: &str| matches!(a, "--quick" | "--seed") || flags.contains(&a);
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && !known(a)) {
        return Err(format!(
            "unknown flag {flag} (supported: --quick, --seed N{})",
            flags.iter().map(|f| format!(", {f}")).collect::<String>()
        ));
    }
    let mut scale = if args.iter().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::paper()
    };
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        let value = args.get(i + 1);
        scale.seed = value
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("--seed expects an unsigned integer, got {value:?}"))?;
    }
    Ok(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], flags: &[&str]) -> Result<Scale, String> {
        parse_scale(
            &args.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
            flags,
        )
    }

    #[test]
    fn default_scale_is_paper() {
        let s = parse(&[], &[]).expect("valid");
        assert_eq!(s.keys_per_partition, Scale::paper().keys_per_partition);
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        let s = parse(
            &["--quick", "--only", "fig4", "--bless"],
            &["--only", "--bless"],
        );
        assert_eq!(s.expect("known flags").seed, Scale::quick().seed);
        let e = parse(&["--quick", "--csv"], &["--only"]).expect_err("unknown");
        assert!(e.contains("--csv") && e.contains("--only"), "{e}");
        let e = parse(&["--bless"], &[]).expect_err("not this binary's flag");
        assert!(e.contains("--bless"), "{e}");
    }

    #[test]
    fn seed_is_parsed_or_refused_by_name() {
        let parse = |args: &[&str]| parse(args, &[]);
        let s = parse(&["--quick", "--seed", "42"]).expect("valid");
        assert_eq!(s.seed, 42);
        assert_eq!(s.client_sweep, Scale::quick().client_sweep);
        assert_eq!(parse(&[]).expect("valid").seed, Scale::paper().seed);
        let e = parse(&["--seed", "abc"]).expect_err("not a number");
        assert!(e.contains("--seed") && e.contains("\"abc\""), "{e}");
        let e = parse(&["--quick", "--seed"]).expect_err("no value");
        assert!(e.contains("--seed") && e.contains("None"), "{e}");
    }
}
