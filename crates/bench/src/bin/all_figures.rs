//! Regenerates the figures of the paper's evaluation — all of them in
//! sequence, followed by Table 2, or only the ones named by `--only`.
//! Usage: `cargo run --release -p gdur-bench --bin all_figures
//! [--quick] [--seed N] [--only fig3a[,fig5…]] [--bless]`.
//!
//! With neither `--only` nor `--seed` the run is a gate: what it printed is
//! compared with `crates/bench/golden/figures_quick.txt` (`--quick`) or
//! `figures_paper.txt` (`--bless` rewrites it). With either flag it prints
//! and compares nothing.

use std::process::exit;

fn main() {
    let scale = gdur_bench::scale_from_args(&["--only", "--bless"]);
    let args: Vec<String> = std::env::args().collect();
    let only: Option<Vec<&str>> =
        args.iter()
            .position(|a| a == "--only")
            .map(|i| match args.get(i + 1) {
                Some(ids) if !ids.starts_with("--") => ids.split(',').collect(),
                other => {
                    eprintln!(
                        "all_figures: --only expects figure ids (fig3a,fig5,…), got {other:?}"
                    );
                    exit(2);
                }
            });
    let mut figures = gdur_harness::all_figures();
    if let Some(only) = &only {
        let valid: Vec<&str> = figures.iter().map(|f| f.id).collect();
        if let Some(bad) = only.iter().find(|id| !valid.contains(id)) {
            eprintln!(
                "all_figures: unknown figure id {bad:?} (valid: {})",
                valid.join(", ")
            );
            exit(2);
        }
        figures.retain(|f| only.contains(&f.id));
    }
    // Printed figure by figure (paper scale takes minutes), recorded whole.
    let mut printed = String::new();
    let mut emit = |text: String| {
        println!("{text}");
        printed.push_str(&text);
        printed.push('\n');
    };
    for fig in &figures {
        emit(gdur_harness::render_text(&gdur_harness::run_figure(
            fig, &scale,
        )));
    }
    if only.is_some() {
        return;
    }
    emit(gdur_protocols::table2::render());
    if !args.iter().any(|a| a == "--seed") {
        let gate = if args.iter().any(|a| a == "--quick") {
            "figures_quick"
        } else {
            "figures_paper"
        };
        gdur_bench::golden::check(gate, "figures", &printed);
    }
}
