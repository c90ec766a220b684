//! The golden-file gate shared by the `*_smoke` binaries: a gate renders
//! its table and hands it to [`check`], which owns the file under
//! `crates/bench/golden/` and the line diff.

use std::path::Path;
use std::process::exit;

use crate::Args;

/// Compares `table` byte-for-byte against `golden/<gate>.txt`, or rewrites
/// that file when `args` hold `--bless`. `what` names the
/// table in the messages ("recovery counts", "breakdown table"). Returns on
/// a match or a bless; prints the differing lines and exits 1 otherwise.
pub fn check(args: &Args, gate: &str, what: &str, table: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{gate}.txt"));
    if args.has("--bless") {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("create golden dir");
        std::fs::write(&path, table).expect("write golden");
        println!("blessed {}", path.display());
        return;
    }
    let golden = match std::fs::read_to_string(&path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!(
                "{gate}: cannot read golden file {}: {e}\n\
                 run with --bless to create it",
                path.display()
            );
            exit(1);
        }
    };
    if table != golden {
        eprintln!("{gate}: {what} diverged from the golden file:");
        for (i, (got, want)) in table.lines().zip(golden.lines()).enumerate() {
            if got != want {
                eprintln!("  line {}:\n    golden: {want}\n    got:    {got}", i + 1);
            }
        }
        if table.lines().count() != golden.lines().count() {
            eprintln!(
                "  line counts differ: got {} vs golden {}",
                table.lines().count(),
                golden.lines().count()
            );
        }
        eprintln!("(re-run with --bless after an intentional change)");
        exit(1);
    }
    // "counts match", "table matches".
    let verb = if what.ends_with('s') {
        "match"
    } else {
        "matches"
    };
    println!("{gate}: {what} {verb} the golden file");
}
