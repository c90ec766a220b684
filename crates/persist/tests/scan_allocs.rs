//! Reading the log allocates for what a record owns, not per frame or per
//! byte: `Wal::scan` over a thousand generated records makes about one
//! allocation a record. A counting global allocator measures it, on the
//! test's own thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gdur_persist::{LogRecord, Wal};
use gdur_store::{Key, TxId, Value};
use gdur_versioning::{Stamp, VersionVec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A record as a replica logs it, with multi-byte varints throughout:
/// installs under scalar and vector stamps, decisions, and submits with
/// read and write sets.
fn record(rng: &mut SmallRng) -> LogRecord {
    let tx = TxId::new(rng.gen_range(0..1 << 20), rng.gen_range(0..1 << 36));
    let key = |rng: &mut SmallRng| Key(rng.gen_range(0..1 << 40));
    match rng.gen_range(0u32..4) {
        0 => LogRecord::Install {
            key: key(rng),
            seq: rng.gen_range(0..1 << 20),
            stamp: Stamp::Ts(rng.gen_range(0..1 << 50)),
            writer: tx,
            value: Value::of_size(rng.gen_range(0..200)),
        },
        1 => LogRecord::Install {
            key: key(rng),
            seq: rng.gen_range(0..1 << 20),
            stamp: Stamp::Vec {
                origin: rng.gen_range(0..4),
                vec: VersionVec::from_entries((0..4).map(|_| rng.gen_range(0..1 << 30)).collect()),
            },
            writer: tx,
            value: Value::of_size(rng.gen_range(0..200)),
        },
        2 => LogRecord::Decision {
            tx,
            commit: rng.gen_bool(0.5),
        },
        _ => LogRecord::Submit {
            tx,
            rs: (0..4)
                .map(|_| (key(rng), rng.gen_range(0..1 << 20)))
                .collect(),
            ws: (0..2)
                .map(|_| (key(rng), rng.gen_range(0..1 << 20), Value::of_size(32)))
                .collect(),
            dep: (0..4).map(|_| rng.gen_range(0..1 << 30)).collect(),
        },
    }
}

#[test]
fn scanning_the_log_allocates_a_constant_per_record() {
    const RECORDS: u64 = 1000;
    let mut rng = SmallRng::seed_from_u64(0x5ca7);
    let recs: Vec<LogRecord> = (0..RECORDS).map(|_| record(&mut rng)).collect();
    let mut wal = Wal::new();
    for r in &recs {
        wal.append(r);
    }
    let before = allocs();
    let scanned = wal.scan();
    let made = allocs() - before;
    assert_eq!(scanned, recs);
    // A vector stamp and a submit's three sets allocate; values are views
    // of the run of frames copied out at once (two allocations per 256
    // frames), and the result vector's growth adds a logarithm: 1,019 on
    // this mix. A copy per frame would add two a record.
    assert!(
        made <= RECORDS + RECORDS / 10,
        "{made} allocations to scan {RECORDS} records"
    );
}
