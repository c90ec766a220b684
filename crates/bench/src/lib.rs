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
//! `all_figures` accepts `--quick` for a reduced-scale run and writes one
//! CSV per figure under `bench_results/`. The `*_smoke` CI gates and
//! `perf_gate` share the golden-file check in [`golden`]; `gdur-trace`
//! explores the causal trace of one point. Host time is measured by the
//! standalone `benchmark/` crate, not here.

pub mod golden;

use gdur_harness::Scale;

/// Parses the scale flags of the figure binaries: `--quick` selects the
/// reduced scale; `--seed N` overrides the RNG seed.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = if args.iter().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::paper()
    };
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        if let Some(seed) = args.get(i + 1).and_then(|s| s.parse().ok()) {
            scale.seed = seed;
        }
    }
    scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_paper() {
        // Arguments of the test runner contain no --quick.
        let s = scale_from_args();
        assert_eq!(s.keys_per_partition, Scale::paper().keys_per_partition);
    }
}
