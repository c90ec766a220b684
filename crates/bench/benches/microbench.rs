//! Micro-benchmarks over the substrates: versioning lattice operations,
//! snapshot compatibility, store reads, zipfian sampling, and
//! group-communication ordering engines.
//!
//! Self-contained timing harness (`harness = false`): each case runs a
//! short warmup then a timed batch and prints ns/iter. Run with
//! `cargo bench -p gdur-bench --bench microbench`.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use gdur_gc::{AbCastEngine, GcEvent, SkeenEngine};
use gdur_net::SiteId;
use gdur_sim::ProcessId;
use gdur_store::{Key, MultiVersionStore, Placement, SeedImage, TxId, Value};
use gdur_versioning::{Stamp, VersionVec};
use gdur_workload::{Zipfian, DEFAULT_THETA};

/// Times `f` over enough iterations to fill a few milliseconds and prints
/// mean ns/iter.
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..1_000 {
        f();
    }
    let mut iters = 10_000u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 5 || iters >= 100_000_000 {
            let per = elapsed.as_nanos() as f64 / iters as f64;
            println!("{name:<40} {per:>12.1} ns/iter ({iters} iters)");
            return;
        }
        iters *= 10;
    }
}

fn bench_versioning() {
    let a = VersionVec::from_entries((0..16).collect());
    let b = VersionVec::from_entries((0..16).rev().collect());
    bench("versioning/merge_dim16", || {
        black_box(black_box(a.clone()).joined(black_box(&b)));
    });
    bench("versioning/leq_dim16", || {
        black_box(black_box(&a).leq(black_box(&b)));
    });
    let x = Stamp::Vec {
        origin: 0,
        vec: a.clone(),
    };
    let y = Stamp::Vec {
        origin: 7,
        vec: b.clone(),
    };
    bench("versioning/compatibility_test", || {
        black_box(black_box(&x).compatible(black_box(&y)));
    });
}

fn bench_store() {
    let mut store = MultiVersionStore::new();
    for k in 0..1000u64 {
        store.seed(Key(k), Value::from_u64(k), Stamp::Ts(0));
    }
    for v in 1..6u64 {
        for k in 0..1000u64 {
            store.install(Key(k), Value::from_u64(v), Stamp::Ts(v), TxId::new(0, v));
        }
    }
    bench("store/latest", || {
        black_box(store.latest(black_box(Key(500))));
    });
    let snap = VersionVec::from_entries(vec![3]);
    let mut vec_store = MultiVersionStore::new();
    vec_store.seed(
        Key(1),
        Value::empty(),
        Stamp::Vec {
            origin: 0,
            vec: VersionVec::zero(1),
        },
    );
    for v in 1..6u64 {
        vec_store.install(
            Key(1),
            Value::empty(),
            Stamp::Vec {
                origin: 0,
                vec: VersionVec::from_entries(vec![v]),
            },
            TxId::new(0, v),
        );
    }
    bench("store/latest_visible", || {
        black_box(vec_store.latest_visible(black_box(Key(1)), black_box(&snap)));
    });

    // The path deployments use: site 0's copy-on-write image of the
    // paper's keyspace (4 sites DT, 10⁵ keys of 1 KB per partition, vector
    // stamps). Key 0 is written once; key 4 answers from the image.
    let placement = Placement::disaster_tolerant(4);
    let value = Value::of_size(1024);
    let image = SeedImage::new(&placement, SiteId(0), 400_000, &value, |p| Stamp::Vec {
        origin: p.0,
        vec: VersionVec::zero(4),
    });
    let mut image_store = MultiVersionStore::from_image(image);
    let stamp = image_store.latest(Key(0)).expect("hosted").stamp.clone();
    image_store.install(Key(0), value.clone(), stamp.clone(), TxId::new(0, 1));
    bench("store/image_latest_unwritten", || {
        black_box(image_store.latest(black_box(Key(4))));
    });
    bench("store/image_latest_written", || {
        black_box(image_store.latest(black_box(Key(0))));
    });
    let mut n = 0u64;
    bench("store/image_install", || {
        // Partition 0's keys in turn: first writes, then overwrites.
        let key = Key(n % 100_000 * 4);
        n += 1;
        black_box(image_store.install(key, value.clone(), stamp.clone(), TxId::new(0, n)));
    });
}

fn bench_zipfian() {
    let z = Zipfian::new(100_000, DEFAULT_THETA);
    let mut rng = SmallRng::seed_from_u64(5);
    bench("workload/zipfian_sample_scrambled", || {
        black_box(z.sample_scrambled(black_box(&mut rng)));
    });
}

fn bench_gc_engines() {
    {
        let group: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let mut seq: AbCastEngine<u64> = AbCastEngine::new(ProcessId(0), group);
        let mut out = Vec::new();
        let mut n = 0u64;
        bench("gc/abcast_order_and_ack", || {
            seq.broadcast(n, &mut out);
            n += 1;
            out.clear();
        });
    }
    {
        let mut sender: SkeenEngine<u64> = SkeenEngine::new(ProcessId(0));
        let mut dest: SkeenEngine<u64> = SkeenEngine::new(ProcessId(1));
        let mut out = Vec::new();
        let mut n = 0u64;
        bench("gc/skeen_multicast_round", || {
            sender.multicast(vec![ProcessId(1)], n, &mut out);
            n += 1;
            // Route the full propose/proposal/final exchange.
            let mut pending: Vec<(ProcessId, gdur_gc::GcMsg<u64>)> = Vec::new();
            for e in out.drain(..) {
                if let GcEvent::Send { to, msg } = e {
                    pending.push((to, msg));
                }
            }
            while let Some((to, msg)) = pending.pop() {
                let engine = if to == ProcessId(0) {
                    &mut sender
                } else {
                    &mut dest
                };
                let mut o2 = Vec::new();
                engine.on_message(ProcessId(99), msg, &mut o2);
                for e in o2 {
                    if let GcEvent::Send { to, msg } = e {
                        pending.push((to, msg));
                    }
                }
            }
        });
    }
}

fn main() {
    bench_versioning();
    bench_store();
    bench_zipfian();
    bench_gc_engines();
}
