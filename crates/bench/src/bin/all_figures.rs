//! Regenerates the figures of the paper's evaluation — all of them in
//! sequence, followed by Table 2, or only the ones named by `--only`.
//! Usage: `cargo run --release -p gdur-bench --bin all_figures
//! [--quick] [--seed N] [--only fig3a[,fig5…]] [--bless]`.
//!
//! With neither `--only` nor `--seed` the run is a gate: what it printed is
//! compared with `crates/bench/golden/figures_quick.txt` (`--quick`) or
//! `figures_paper.txt` (`--bless` rewrites it). With either flag it prints
//! and compares nothing.

use gdur_bench::Args;

fn main() {
    let args = Args::of(
        "all_figures",
        &["--quick", "--seed N", "--only IDS", "--bless"],
        &[],
    );
    let scale = args.scale();
    let only: Option<Vec<&str>> = args.value("--only").map(|ids| ids.split(',').collect());
    let mut figures = gdur_harness::all_figures();
    if let Some(only) = &only {
        let valid: Vec<&str> = figures.iter().map(|f| f.id).collect();
        if let Some(bad) = only.iter().find(|id| !valid.contains(id)) {
            args.refuse(&format!(
                "unknown figure id {bad:?} (valid: {})",
                valid.join(", ")
            ));
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
    if args.value("--seed").is_none() {
        let gate = if args.has("--quick") {
            "figures_quick"
        } else {
            "figures_paper"
        };
        gdur_bench::golden::check(&args, gate, "figures", &printed);
    }
}
