//! Regenerates Table 2: source lines of code per protocol realization.
//! Usage: `cargo run -p gdur-bench --bin table2_loc`.

fn main() {
    gdur_bench::Args::of("table2_loc", &[], &[]);
    print!("{}", gdur_protocols::table2::render());
}
