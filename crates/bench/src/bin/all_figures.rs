//! Regenerates the figures of the paper's evaluation — all of them in
//! sequence, followed by Table 2, or only the ones named by `--only`.
//! Usage: `cargo run --release -p gdur-bench --bin all_figures
//! [--quick] [--seed N] [--only fig3a[,fig5…]]`.

use std::process::exit;

fn main() {
    let scale = gdur_bench::scale_from_args();
    let args: Vec<String> = std::env::args().collect();
    let only: Option<Vec<&str>> = args.iter().position(|a| a == "--only").map(|i| {
        args.get(i + 1)
            .map_or("", String::as_str)
            .split(',')
            .collect()
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
    for fig in &figures {
        gdur_harness::run_and_report(fig, &scale);
    }
    if only.is_none() {
        println!("{}", gdur_protocols::table2::render());
    }
}
