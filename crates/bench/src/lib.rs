//! # gdur-bench — the tools: figures, CI gates and the explorers
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
//! explores the causal trace of one point, `gdur-mc` the schedules of a
//! small run ([`mc`]). Every binary reads its command line through [`Args`].
//! Host time is measured by the standalone `benchmark/` crate, not here.
//! Nothing here writes a file except `--bless`, `gdur-trace export` and
//! `gdur-mc`'s `--out`, `--trace` and `--chrome`.

pub mod golden;
pub mod mc;

use std::process::exit;
use std::str::FromStr;

use gdur_harness::Scale;

/// A binary's command line, as the crate's one argument parser read it.
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    flags: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// The process's arguments to `bin`, which takes `flags` and
    /// `positionals` as `parse` reads them. A refused command line exits 2
    /// before any work, with the reason.
    pub fn of(bin: &'static str, flags: &[&str], positionals: &[&str]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(bin, flags, positionals, &argv).unwrap_or_else(|e| refuse(bin, &e))
    }

    /// Reads `argv` for `bin`, whose `flags` are `--name` (a switch) or
    /// `--name VALUE` (one value) and whose `positionals` are usage names,
    /// a last one ending in `...` taking any number. An unknown flag, a
    /// flag without its value (none follows, or a flag does) and an
    /// argument past the positionals are refused, naming the argument and
    /// listing what `bin` supports.
    fn parse(
        bin: &'static str,
        flags: &[&str],
        positionals: &[&str],
        argv: &[String],
    ) -> Result<Args, String> {
        let all: Vec<&str> = flags.iter().chain(positionals).copied().collect();
        let supported = if all.is_empty() {
            "(supported: no arguments)".to_string()
        } else {
            format!("(supported: {})", all.join(", "))
        };
        let any = positionals.last().is_some_and(|p| p.ends_with("..."));
        let mut args = Args {
            bin,
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                if !any && args.positionals.len() == positionals.len() {
                    return Err(format!("unexpected argument {arg} {supported}"));
                }
                args.positionals.push(arg.clone());
                continue;
            }
            let Some(flag) = flags.iter().find(|f| f.split(' ').next() == Some(arg)) else {
                return Err(format!("unknown flag {arg} {supported}"));
            };
            let value = match flag.split_once(' ') {
                None => None,
                Some((_, what)) => match argv.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    v => return Err(format!("{arg} expects {what}, got {v:?}")),
                },
            };
            args.flags.push((arg.clone(), value));
        }
        Ok(args)
    }

    /// True if the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of `flag`, if given (its first occurrence).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The value of `flag` read by `read`, if given; exits 2 naming the
    /// flag, `what` it expects and the value when `read` refuses it.
    pub fn read<T>(
        &self,
        flag: &str,
        what: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        self.try_read(flag, what, read)
            .unwrap_or_else(|e| self.refuse(&e))
    }

    fn try_read<T>(
        &self,
        flag: &str,
        what: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let value = self.value(flag);
        let refusal = |v| format!("{flag} expects {what}, got {v:?}");
        value.map(|v| read(v).ok_or_else(|| refusal(v))).transpose()
    }

    /// The numeric value of `flag`, if given; exits 2 as [`Args::read`].
    pub fn number<T: FromStr>(&self, flag: &str, what: &str) -> Option<T> {
        self.read(flag, what, |v| v.parse().ok())
    }

    /// The scale of the figure binaries: `--quick` selects the reduced
    /// scale, `--seed N` overrides the RNG seed.
    pub fn scale(&self) -> Scale {
        let mut scale = if self.has("--quick") {
            Scale::quick()
        } else {
            Scale::paper()
        };
        if let Some(seed) = self.number("--seed", "an unsigned integer") {
            scale.seed = seed;
        }
        scale
    }

    /// Refuses the command line: exits 2 with `why`.
    pub fn refuse(&self, why: &str) -> ! {
        refuse(self.bin, why)
    }
}

fn refuse(bin: &str, why: &str) -> ! {
    eprintln!("{bin}: {why}");
    exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURES: &[&str] = &["--quick", "--seed N", "--only IDS", "--bless"];

    fn parse(flags: &[&str], positionals: &[&str], argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::parse("test", flags, positionals, &argv)
    }

    #[test]
    fn default_scale_is_paper() {
        let s = parse(FIGURES, &[], &[]).expect("valid").scale();
        assert_eq!(s.keys_per_partition, Scale::paper().keys_per_partition);
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        let a = parse(FIGURES, &[], &["--quick", "--only", "fig4", "--bless"]).expect("known");
        assert_eq!(a.scale().seed, Scale::quick().seed);
        assert_eq!((a.value("--only"), a.has("--bless")), (Some("fig4"), true));
        let e = parse(FIGURES, &[], &["--quick", "--csv"]).expect_err("unknown");
        assert!(e.contains("--csv") && e.contains("--only IDS"), "{e}");
        let e = parse(&[], &[], &["--bless"]).expect_err("not this binary's flag");
        assert!(e.contains("--bless") && e.contains("no arguments"), "{e}");
    }

    #[test]
    fn seed_is_parsed_or_refused_by_name() {
        let s = parse(FIGURES, &[], &["--quick", "--seed", "42"])
            .expect("valid")
            .scale();
        assert_eq!((s.seed, s.client_sweep), (42, Scale::quick().client_sweep));
        let a = parse(FIGURES, &[], &["--seed", "abc"]).expect("parsed");
        let e = a
            .try_read("--seed", "N", |v| v.parse::<u64>().ok())
            .expect_err("NaN");
        assert!(e.contains("--seed") && e.contains("\"abc\""), "{e}");
        let e = parse(FIGURES, &[], &["--quick", "--seed"]).expect_err("no value");
        assert!(e.contains("--seed") && e.contains("None"), "{e}");
    }

    /// `gdur-mc explore`: a flag's value is the argument after it, never
    /// another flag, and a misspelt flag or a stray argument is refused.
    #[test]
    fn flag_values_are_taken_and_bad_ones_refused_by_name() {
        let flags = &["--budget N", "--random N", "--seed S", "--out FILE"];
        let explore = |argv: &[&str]| parse(flags, &["explore", "LABEL"], argv);
        let a = explore(&["explore", "walter", "--budget", "10", "--out", "cx"]).expect("ok");
        assert_eq!(a.positionals(), ["explore", "walter"]);
        assert_eq!(
            (a.number("--budget", "N"), a.value("--out")),
            (Some(10), Some("cx"))
        );
        let e = explore(&["explore", "--budgte", "10"]).expect_err("misspelt");
        assert!(e.contains("--budgte") && e.contains("--budget N"), "{e}");
        let e = explore(&["--random", "--out", "x"]).expect_err("no value");
        assert!(e.contains("--random") && e.contains("--out"), "{e}");
        let e = explore(&["explore", "walter", "stray"]).expect_err("positional");
        assert!(e.contains("stray") && e.contains("LABEL"), "{e}");
    }

    /// `gdur-trace`: flags and positionals interleave, and a trailing
    /// `...` positional takes any number.
    #[test]
    fn positionals_skip_flag_values_and_refuse_unknown_flags() {
        let trace = |argv: &[&str]| parse(&["--tx T", "--clients N"], &["CMD", "P..."], argv);
        let ok = trace(&[
            "attribute",
            "S-DUR",
            "--clients",
            "8",
            "--tx",
            "3:2",
            "Walter",
        ]);
        assert_eq!(
            ok.expect("valid").positionals(),
            ["attribute", "S-DUR", "Walter"]
        );
        let e = trace(&["dump", "P-Store", "--csv"]).expect_err("unknown flag");
        assert!(e.contains("--csv"), "{e}");
    }
}
