//! CI performance gate, deterministic: runs the standard perf sweep and
//! diffs its work counters against `crates/bench/golden/perf_gate.txt`.
//!
//! Virtual-time results are a pure function of the seed, so the kernel
//! event count, the virtual throughput and the per-class traffic of the
//! kernel's event queue (`Simulation::queue_stats`: pushed / popped / peak
//! length of the dispatch, message and timer heaps) of every sweep point
//! are a bit-identity check: a mismatch means behaviour changed, not just
//! speed, and the verdict is the same on a loaded host. Wall-clock and
//! events/s are printed per point — one run, reported, never stored and
//! never compared: seconds are noise on a shared host, and wall-clock
//! claims are settled by `benchmark/`'s alternating pairs.
//!
//! The binary's global allocator counts: per point, `allocs=` is the number
//! of allocator calls that hand out memory (`alloc`, `alloc_zeroed`,
//! `realloc`) and `alloc_bytes=` the bytes they asked for (a `realloc`
//! counts its new size), from building the deployment to the end of its
//! history check and summary. It counts frees too, and `peak_live_bytes=`
//! is the point's high-water mark of live heap bytes above where the point
//! started — what the run, its history and its check hold at once.
//! Allocation is as deterministic as the run, so these are golden integers
//! too: a regression is a larger number, and a field added to a
//! per-transaction record moves `peak_live_bytes`.
//!
//! Before the sweep, while the process is still fresh, it builds one
//! deployment at the paper's keyspace and fails when the resident set right
//! after it exceeds [`BUILD_RSS_BUDGET_MIB`] — the initial load must stay
//! O(partitions). Memory is not wall-clock noise, so this leg holds on a
//! loaded host too.
//!
//! Usage: `cargo run --release -p gdur-bench --bin perf_gate [--bless]`
//! (`--bless` regenerates the golden file).

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use gdur_harness::{run_checked, Experiment, PlacementKind, Scale, WorkloadKind};
use gdur_sim::SimDuration;

/// Resident-set budget right after building a paper-keyspace deployment.
/// The copy-on-write seed image leaves ~5 MiB resident; seeding the 8 × 10⁵
/// hosted keys record by record left 361.
const BUILD_RSS_BUDGET_MIB: f64 = 32.0;

/// `System`, counting what it hands out and tracking the live bytes.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

/// Moves the live-byte count by `grown - freed` once `System` succeeded;
/// a `realloc` holds both blocks at its peak, as one that moves does.
fn track(ptr: *mut u8, grown: usize, freed: usize) -> *mut u8 {
    if !ptr.is_null() {
        let live = LIVE_BYTES.fetch_add(grown as u64, Relaxed) + grown as u64;
        PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
        LIVE_BYTES.fetch_sub(freed as u64, Relaxed);
    }
    ptr
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System` upholds the `GlobalAlloc` contract under the caller's own
// guarantees; the counters are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        track(System.alloc(layout), layout.size(), 0)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        track(System.alloc_zeroed(layout), layout.size(), 0)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        track(
            System.realloc(ptr, layout, new_size),
            new_size,
            layout.size(),
        )
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (allocations, bytes) counted so far.
fn allocated() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Restarts the live-byte high-water mark here; returns the live bytes.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Relaxed);
    PEAK_LIVE_BYTES.store(live, Relaxed);
    live
}

/// The standard sweep: P-Store (genuine atomic multicast — the fan-out
/// path under optimisation) over the zipfian workload C, three sites,
/// disaster-prone placement. Fixed scale, independent of `--quick`.
fn perf_scale() -> Scale {
    Scale {
        keys_per_partition: 10_000,
        measure: SimDuration::from_secs(8),
        client_sweep: vec![16, 64, 192],
        seed: 11,
        ..Scale::quick()
    }
}

/// Runs the sweep and renders the golden table: one line of integers per
/// point, its allocation counts and live-heap peak last, then the total
/// event count.
fn run_sweep_counted() -> String {
    let p_store = gdur_protocols::p_store();
    let exp = Experiment::new(p_store, WorkloadKind::C, 0.9, 3, PlacementKind::Dp);
    let scale = perf_scale();
    let mut table = String::new();
    let mut total_events = 0;
    for &cps in &scale.client_sweep {
        #[expect(
            clippy::disallowed_methods,
            reason = "host time of a whole run, printed and never compared; read outside the simulation"
        )]
        let start = Instant::now();
        let before = allocated();
        let live_before = reset_peak();
        let dep = exp.deployment(&scale, cps);
        let run = run_checked(&dep, None, None).expect_clean(&dep.label);
        let point = run.point();
        let after = allocated();
        let (allocs, alloc_bytes) = (after.0 - before.0, after.1 - before.1);
        let peak_live_bytes = PEAK_LIVE_BYTES.load(Relaxed) - live_before;
        let wall_s = start.elapsed().as_secs_f64();
        let events = run.cluster.sim().stats().events_processed;
        total_events += events;
        println!(
            "perf_gate: {cps:>4} clients/site: {events:>9} events in {wall_s:.3}s \
             ({:>10.0} events/s)",
            events as f64 / wall_s
        );
        table.push_str(&format!(
            "clients_per_site={cps} events={events} tps={:.1}",
            point.throughput_tps
        ));
        let queue = run.cluster.sim().queue_stats();
        for (name, c) in [
            ("dispatch", queue.dispatch),
            ("message", queue.message),
            ("timer", queue.timer),
        ] {
            table.push_str(&format!(" {name}={}/{}/{}", c.pushed, c.popped, c.peak_len));
        }
        table.push_str(&format!(
            " allocs={allocs} alloc_bytes={alloc_bytes} peak_live_bytes={peak_live_bytes}\n"
        ));
    }
    table.push_str(&format!("total_events={total_events}\n"));
    table
}

/// `VmRSS` of Linux's `/proc/self/status`, in kB; 0 where unavailable.
fn resident_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// The paper-keyspace build leg: a fig3b deployment at the paper's scale —
/// Walter, 4 sites disaster tolerant, 10⁵ keys of 1 KB per partition, 192
/// clients/site — built and dropped. Returns the resident MiB right after
/// the build. Must run before anything else grows the heap.
fn paper_build() -> f64 {
    let exp = Experiment::new(
        gdur_protocols::walter(),
        WorkloadKind::B,
        0.7,
        4,
        PlacementKind::Dt,
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "host time of one build, printed and never compared; read outside the simulation"
    )]
    let start = Instant::now();
    let cluster = exp.deployment(&Scale::paper(), 192).build();
    let build_s = start.elapsed().as_secs_f64();
    let rss_mib = resident_kib() as f64 / 1024.0;
    drop(cluster);
    println!(
        "perf_gate: paper-keyspace build: {build_s:.4}s, {rss_mib:.1} MiB resident \
         (budget {BUILD_RSS_BUDGET_MIB} MiB)"
    );
    rss_mib
}

fn main() {
    let args = gdur_bench::Args::of("perf_gate", &["--bless"], &[]);
    let build_rss_mib = paper_build();
    if build_rss_mib > BUILD_RSS_BUDGET_MIB {
        eprintln!(
            "perf_gate: FAIL: {build_rss_mib:.1} MiB resident after the paper-keyspace \
             build, over the {BUILD_RSS_BUDGET_MIB} MiB budget — the initial load is \
             being materialized per key again"
        );
        exit(1);
    }
    let table = run_sweep_counted();
    print!("{table}");
    gdur_bench::golden::check(
        &args,
        "perf_gate",
        "event, queue and allocation counters",
        &table,
    );
}
