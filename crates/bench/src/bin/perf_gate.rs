//! CI performance gate: runs the standard perf sweep, reports host
//! wall-clock and kernel events/sec per point, and maintains the repo's
//! perf trajectory file `BENCH_sim.json` at the workspace root.
//!
//! The file holds three run summaries:
//!
//! * `baseline` — the pre-optimisation capture (written once with
//!   `--capture-baseline`); the long-term reference the trajectory is
//!   measured against;
//! * `blessed` — the checked-in reference for the CI regression check
//!   (refreshed with `--bless` after an intentional perf change);
//! * `current` — the latest run (always rewritten).
//!
//! `--check` (the ci.sh mode) gates on integers and reports seconds.
//! Virtual-time results are a pure function of the seed, so the kernel
//! event count and the per-class traffic of the kernel's event queue
//! (`Simulation::queue_stats`: pushed / popped / peak length of the
//! dispatch, message and timer heaps, printed and stored per point) are a
//! bit-identity check: `--check` fails unless they equal the `blessed` ones
//! exactly — a mismatch means behaviour changed, not just speed, and the
//! verdict is the same on a loaded host. The total wall-clock is compared
//! against `blessed` too, but a slowdown of more than 20% only prints a
//! `WARNING`: on a shared host that comparison fails on parent and change
//! alike, so it informs and never decides (wall-clock claims are settled by
//! `benchmark/`'s alternating pairs).
//!
//! Before the sweep, while the process is still fresh, it builds one
//! deployment at the paper's keyspace and records `paper_build`: the build
//! time and the resident set right after it. `--check` fails when that
//! resident set exceeds [`BUILD_RSS_BUDGET_MIB`] — the initial load must
//! stay O(partitions). Memory is not wall-clock noise, so this leg holds on
//! a loaded host too.
//!
//! `--mega` runs the aggregated-pool scale sweep instead (10⁴/10⁵/10⁶
//! clients per site, one pool actor per site) and writes `BENCH_mega.json`.
//! It is informational — no regression gate — and deliberately not part of
//! ci.sh: the bounded 10⁴ rung runs there as `mega_smoke`.
//!
//! Usage: `cargo run --release -p gdur-bench --bin perf_gate
//! [--check] [--bless] [--capture-baseline] [--mega]`

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use gdur_harness::{
    build_point, run_mega_point, run_point_events, Experiment, MegaConfig, PlacementKind, Scale,
    WorkloadKind,
};
use gdur_sim::{QueueClassStats, QueueStats, SimDuration};

/// Wall-clock slowdown against the blessed reference that `--check` warns
/// about (it never fails on seconds).
const REGRESSION_TOLERANCE: f64 = 1.20;

/// Resident-set budget right after building a paper-keyspace deployment.
/// The copy-on-write seed image leaves ~5 MiB resident; seeding the 8 × 10⁵
/// hosted keys record by record left 361.
const BUILD_RSS_BUDGET_MIB: f64 = 32.0;

/// The standard sweep: P-Store (genuine atomic multicast — the fan-out
/// path under optimisation) over the zipfian workload C, three sites,
/// disaster-prone placement. Fixed scale, independent of `--quick`.
fn perf_scale() -> Scale {
    Scale {
        keys_per_partition: 10_000,
        value_size: 128,
        warmup: SimDuration::from_millis(500),
        measure: SimDuration::from_secs(8),
        client_sweep: vec![16, 64, 192],
        cores: 4,
        seed: 11,
        client_pooling: false,
    }
}

fn perf_experiment() -> Experiment {
    Experiment::new(
        gdur_protocols::p_store(),
        WorkloadKind::C,
        0.9,
        3,
        PlacementKind::Dp,
    )
}

struct PerfPoint {
    clients_per_site: usize,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    throughput_tps: f64,
    queue: QueueStats,
}

fn queue_classes(q: &QueueStats) -> [(&'static str, QueueClassStats); 3] {
    [
        ("dispatch", q.dispatch),
        ("message", q.message),
        ("timer", q.timer),
    ]
}

/// The queue counters of one point as stored in `BENCH_sim.json`.
fn render_queue(q: &QueueStats) -> String {
    let classes = queue_classes(q).map(|(name, c)| {
        format!(
            "\"{name}\": {{\"pushed\": {}, \"popped\": {}, \"peak_len\": {}}}",
            c.pushed, c.popped, c.peak_len
        )
    });
    format!("{{{}}}", classes.join(", "))
}

/// The stored queue counters of every point of a section, in sweep order
/// (one point per line, as [`render_section`] writes them).
fn queue_counters(section: &str) -> Vec<&str> {
    section
        .lines()
        .filter_map(|l| l.split_once("\"queue\": "))
        .map(|(_, q)| q.trim_end_matches(','))
        .collect()
}

struct RunSummary {
    label: String,
    points: Vec<PerfPoint>,
    total_events: u64,
    total_wall_s: f64,
    total_events_per_sec: f64,
}

fn run_sweep_timed(label: &str) -> RunSummary {
    let exp = perf_experiment();
    let scale = perf_scale();
    let mut points = Vec::new();
    for &cps in &scale.client_sweep {
        // Best-of-two wall clock: the virtual-time result is identical
        // across repetitions (pure function of the seed), so the min
        // simply discards host-side scheduling noise.
        let mut wall_s = f64::MAX;
        let mut run = None;
        for _ in 0..2 {
            let start = Instant::now();
            let r = run_point_events(&exp, &scale, cps);
            wall_s = wall_s.min(start.elapsed().as_secs_f64());
            run = Some(r);
        }
        let (point, stats, queue) = run.expect("ran");
        let events = stats.events_processed;
        let events_per_sec = events as f64 / wall_s;
        println!(
            "perf_gate: {cps:>4} clients/site: {events:>9} events in {wall_s:.3}s \
             ({events_per_sec:>10.0} events/s, {:.0} tps virtual)",
            point.throughput_tps
        );
        for (name, c) in queue_classes(&queue) {
            println!(
                "perf_gate:      queue {name:<8}: {:>7} pushed, {:>7} popped, peak {:>5}",
                c.pushed, c.popped, c.peak_len
            );
        }
        points.push(PerfPoint {
            clients_per_site: cps,
            events,
            wall_s,
            events_per_sec,
            throughput_tps: point.throughput_tps,
            queue,
        });
    }
    let total_events: u64 = points.iter().map(|p| p.events).sum();
    let total_wall_s: f64 = points.iter().map(|p| p.wall_s).sum();
    RunSummary {
        label: label.to_string(),
        points,
        total_events,
        total_wall_s,
        total_events_per_sec: total_events as f64 / total_wall_s,
    }
}

fn render_section(s: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("    \"label\": \"{}\",\n", s.label));
    out.push_str("    \"points\": [\n");
    for (i, p) in s.points.iter().enumerate() {
        let sep = if i + 1 == s.points.len() { "" } else { "," };
        out.push_str(&format!(
            "      {{\"clients_per_site\": {}, \"events\": {}, \"wall_s\": {:.6}, \
             \"events_per_sec\": {:.1}, \"throughput_tps\": {:.1}, \"queue\": {}}}{sep}\n",
            p.clients_per_site,
            p.events,
            p.wall_s,
            p.events_per_sec,
            p.throughput_tps,
            render_queue(&p.queue)
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!("    \"total_events\": {},\n", s.total_events));
    out.push_str(&format!("    \"total_wall_s\": {:.6},\n", s.total_wall_s));
    out.push_str(&format!(
        "    \"total_events_per_sec\": {:.1}\n",
        s.total_events_per_sec
    ));
    out.push_str("  }");
    out
}

/// Extracts the raw `{...}` text of a top-level section, brace-matched so
/// the nested points array is included. The file is always written by this
/// binary, so the format is under our control; labels never contain braces.
fn section_raw<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{");
    let start = text.find(&key)? + key.len() - 1;
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[start..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

fn field_f64(section: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = section.find(&pat)? + pat.len();
    let rest = section[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn bench_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json")
}

/// A `kB` field of Linux's `/proc/self/status`; 0 where unavailable.
fn proc_status_kib(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`). Monotone over
/// the process lifetime, so per-point readings report the high-water mark
/// *so far* — the sweep runs smallest point first, making the last reading
/// the figure that matters.
fn vm_hwm_mib() -> u64 {
    proc_status_kib("VmHWM") / 1024
}

/// The `paper_build` datum: a fig3b deployment at the paper's scale —
/// Walter, 4 sites disaster tolerant, 10⁵ keys of 1 KB per partition, 192
/// clients/site — built and dropped. Returns (build seconds, resident MiB
/// right after the build). Must run before anything else grows the heap.
fn paper_build() -> (f64, f64) {
    let exp = Experiment::new(
        gdur_protocols::walter(),
        WorkloadKind::B,
        0.7,
        4,
        PlacementKind::Dt,
    );
    let start = Instant::now();
    let cluster = build_point(&exp, &Scale::paper(), 192);
    let build_s = start.elapsed().as_secs_f64();
    let rss_mib = proc_status_kib("VmRSS") as f64 / 1024.0;
    drop(cluster);
    println!(
        "perf_gate: paper-keyspace build: {build_s:.4}s, {rss_mib:.1} MiB resident \
         (budget {BUILD_RSS_BUDGET_MIB} MiB)"
    );
    (build_s, rss_mib)
}

/// The `--mega` mode: the ROADMAP "millions of users" axis. One pooled
/// point per rung of the client sweep, whole-run aggregates, peak-RSS
/// tracking; writes `BENCH_mega.json` at the workspace root.
fn run_mega_sweep() {
    const RUNGS: [usize; 3] = [10_000, 100_000, 1_000_000];
    let exp = perf_experiment();
    let mut sections = Vec::new();
    for &cps in &RUNGS {
        let cfg = MegaConfig::standard(cps, 11);
        let start = Instant::now();
        let r = run_mega_point(&exp, &cfg);
        let wall_s = start.elapsed().as_secs_f64();
        let events_per_sec = r.events as f64 / wall_s;
        let vm_hwm_mib = vm_hwm_mib();
        println!(
            "perf_gate --mega: {cps:>7} clients/site: {} issued, {} committed, \
             {} aborted ({} timeout) | {} events in {wall_s:.1}s \
             ({events_per_sec:.0} events/s) | peak RSS {vm_hwm_mib} MiB",
            r.issued, r.committed, r.aborted, r.timeout_aborts, r.events
        );
        sections.push(format!(
            "    {{\"clients_per_site\": {cps}, \"clients_total\": {}, \"issued\": {}, \
             \"committed\": {}, \"aborted\": {}, \"timeout_aborts\": {}, \
             \"throughput_tps\": {:.1}, \"avg_latency_ms\": {:.3}, \"events\": {}, \
             \"wall_s\": {wall_s:.3}, \"events_per_sec\": {events_per_sec:.0}, \
             \"vm_hwm_mib\": {vm_hwm_mib}}}",
            r.clients_total,
            r.issued,
            r.committed,
            r.aborted,
            r.timeout_aborts,
            r.throughput_tps,
            r.avg_latency_ms,
            r.events
        ));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_mega.json");
    let file = format!(
        "{{\n  \"schema\": \"gdur-mega-sweep-v1\",\n  \"bench\": \"p_store / workload C / 3 sites DP / pooled clients, 1s think, 4s horizon\",\n  \"points\": [\n{}\n  ]\n}}\n",
        sections.join(",\n")
    );
    std::fs::write(&path, &file).expect("write BENCH_mega.json");
    println!("perf_gate --mega: written to {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let bless = args.iter().any(|a| a == "--bless");
    let capture_baseline = args.iter().any(|a| a == "--capture-baseline");

    if args.iter().any(|a| a == "--mega") {
        run_mega_sweep();
        return;
    }

    let (build_s, build_rss_mib) = paper_build();
    let current = run_sweep_timed("current");
    let path = bench_path();
    let previous = std::fs::read_to_string(&path).unwrap_or_default();

    let current_text = render_section(&current);
    let baseline_text = if capture_baseline {
        current_text.clone()
    } else {
        section_raw(&previous, "baseline")
            .map(str::to_string)
            .unwrap_or_else(|| current_text.clone())
    };
    let blessed_text = if bless || capture_baseline {
        current_text.clone()
    } else {
        section_raw(&previous, "blessed")
            .map(str::to_string)
            .unwrap_or_else(|| current_text.clone())
    };

    let speedup = field_f64(&baseline_text, "total_wall_s")
        .map(|base| base / current.total_wall_s)
        .unwrap_or(1.0);

    let file = format!(
        "{{\n  \"schema\": \"gdur-perf-gate-v1\",\n  \"bench\": \"p_store / workload C / 3 sites DP / sweep 16,64,192 clients-per-site\",\n  \"baseline\": {baseline_text},\n  \"blessed\": {blessed_text},\n  \"current\": {current_text},\n  \"paper_build\": {{\"bench\": \"walter / workload B / 4 sites DT / 100000 keys-per-partition of 1 KB / 192 clients-per-site\", \"build_s\": {build_s:.6}, \"rss_after_build_mib\": {build_rss_mib:.1}, \"budget_mib\": {BUILD_RSS_BUDGET_MIB}}},\n  \"speedup_vs_baseline\": {speedup:.3}\n}}\n"
    );
    std::fs::write(&path, &file).expect("write BENCH_sim.json");
    println!(
        "perf_gate: total {:.3}s wall, {:.0} events/s, speedup vs baseline {speedup:.3}x \
         (written to {})",
        current.total_wall_s,
        current.total_events_per_sec,
        path.display()
    );

    if check {
        if build_rss_mib > BUILD_RSS_BUDGET_MIB {
            eprintln!(
                "perf_gate: FAIL: {build_rss_mib:.1} MiB resident after the paper-keyspace \
                 build, over the {BUILD_RSS_BUDGET_MIB} MiB budget — the initial load is \
                 being materialized per key again"
            );
            exit(1);
        }
        let blessed_wall = field_f64(&blessed_text, "total_wall_s").expect("blessed total_wall_s");
        let blessed_events = field_f64(&blessed_text, "total_events").expect("blessed events");
        if (current.total_events as f64 - blessed_events).abs() > 0.5 {
            eprintln!(
                "perf_gate: FAIL: kernel event count changed \
                 ({} now vs {blessed_events:.0} blessed) — virtual-time behaviour \
                 differs from the blessed run",
                current.total_events
            );
            eprintln!("(re-run with --bless after an intentional change)");
            exit(1);
        }
        let (blessed_queue, current_queue) =
            (queue_counters(&blessed_text), queue_counters(&current_text));
        if blessed_queue != current_queue {
            eprintln!(
                "perf_gate: FAIL: the kernel's per-class queue counters differ from the \
                 blessed ones — the event schedule or the queue's bookkeeping changed\n  \
                 blessed: {blessed_queue:?}\n  current: {current_queue:?}"
            );
            eprintln!("(re-run with --bless after an intentional change)");
            exit(1);
        }
        println!(
            "perf_gate: {} kernel events and the per-class queue counters equal the blessed ones",
            current.total_events
        );
        if current.total_wall_s > blessed_wall * REGRESSION_TOLERANCE {
            eprintln!(
                "perf_gate: WARNING: wall-clock regressed {:.1}% over the blessed reference \
                 ({:.3}s now vs {blessed_wall:.3}s blessed, tolerance {:.0}%) — not a \
                 failure: seconds are noise on a shared host, measure with benchmark/",
                (current.total_wall_s / blessed_wall - 1.0) * 100.0,
                current.total_wall_s,
                (REGRESSION_TOLERANCE - 1.0) * 100.0
            );
        } else {
            println!(
                "perf_gate: wall-clock within tolerance ({:.3}s vs blessed {blessed_wall:.3}s)",
                current.total_wall_s
            );
        }
    }
}
