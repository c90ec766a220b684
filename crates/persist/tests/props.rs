//! Randomized (seeded, deterministic) tests: WAL encode/decode and recovery
//! are lossless on intact prefixes, and re-opening an image — the path a
//! restart takes — never panics on arbitrary corruption. Inputs are driven
//! by a fixed-seed generator so every run exercises the identical case set.

use bytes::BytesMut;
use gdur_persist::{codec, recover, LogRecord, Wal};
use gdur_store::{Key, TxId, Value};
use gdur_versioning::{Stamp, VersionVec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn arb_stamp(rng: &mut SmallRng) -> Stamp {
    if rng.gen_bool(0.5) {
        Stamp::Ts(rng.gen_range(0u64..100))
    } else {
        let v: Vec<u64> = (0..4).map(|_| rng.gen_range(0u64..50)).collect();
        Stamp::Vec {
            origin: rng.gen_range(0u32..4),
            vec: VersionVec::from_entries(v),
        }
    }
}

fn arb_record(rng: &mut SmallRng) -> LogRecord {
    match rng.gen_range(0u32..2) {
        0 => LogRecord::Install {
            key: Key(rng.gen_range(0u64..32)),
            seq: rng.gen_range(0u64..8),
            stamp: arb_stamp(rng),
            writer: TxId::new(rng.gen_range(0u32..8), rng.gen_range(0u64..100)),
            value: Value::of_size(rng.gen_range(0usize..64)),
        },
        _ => LogRecord::Decision {
            tx: TxId::new(rng.gen_range(0u32..8), rng.gen_range(0u64..100)),
            commit: rng.gen_bool(0.5),
        },
    }
}

fn arb_records(rng: &mut SmallRng, lo: usize, hi: usize) -> Vec<LogRecord> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| arb_record(rng)).collect()
}

/// The log of `recs`, and the byte offset each frame ends at.
fn logged(recs: &[LogRecord]) -> (Wal, Vec<usize>) {
    let mut wal = Wal::new();
    let ends = recs.iter().map(|r| {
        wal.append(r);
        wal.byte_len()
    });
    let ends = ends.collect();
    (wal, ends)
}

/// Re-opens `image` as a restart does: the records replayed, and the bytes
/// the re-opened log kept.
fn reopen(image: &[u8]) -> (Vec<LogRecord>, BytesMut) {
    let mut data = BytesMut::new();
    data.extend_from_slice(image);
    let mut replayed = Vec::new();
    let wal = Wal::from_image(data, |rec| replayed.push(rec));
    (replayed, wal.into_image())
}

#[test]
fn encode_decode_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x9e1d);
    for _ in 0..256 {
        let rec = arb_record(&mut rng);
        let body = rec.encode().freeze();
        assert_eq!(LogRecord::decode(body).unwrap(), rec);
    }
}

#[test]
fn append_writes_exactly_the_frame_of_the_record() {
    let mut rng = SmallRng::seed_from_u64(0xf4a3);
    // A large record first, so later appends reuse the scratch buffer
    // with stale bytes past the new body.
    let submit = LogRecord::Submit {
        tx: TxId::new(3, 9),
        rs: vec![(Key(1), 2), (Key(300), 0)],
        ws: vec![(Key(4), 1, Value::of_size(200))],
        dep: vec![7, 0, 128],
    };
    let mut wal = Wal::new();
    for rec in std::iter::once(submit).chain((0..256).map(|_| arb_record(&mut rng))) {
        let before = wal.byte_len();
        wal.append(&rec);
        assert_eq!(
            &wal.clone().into_image()[before..],
            &codec::frame(&rec.encode())[..]
        );
    }
}

#[test]
fn scan_returns_appended_records() {
    let mut rng = SmallRng::seed_from_u64(0xa11e);
    for _ in 0..64 {
        let recs = arb_records(&mut rng, 0, 20);
        let mut wal = Wal::new();
        for r in &recs {
            wal.append(r);
        }
        assert_eq!(wal.scan(), recs);
    }
}

#[test]
fn truncated_images_yield_a_prefix() {
    let mut rng = SmallRng::seed_from_u64(0x7c21);
    for _ in 0..64 {
        let recs = arb_records(&mut rng, 1, 12);
        let cut_back = rng.gen_range(1usize..32);
        let (wal, ends) = logged(&recs);
        let img = wal.into_image();
        let cut = img.len().saturating_sub(cut_back);
        let intact = ends.iter().filter(|&&end| end <= cut).count();
        let (replayed, kept) = reopen(&img[..cut]);
        assert_eq!(replayed, recs[..intact]);
        assert_eq!(kept[..], img[..ends[..intact].last().map_or(0, |&end| end)]);
    }
}

#[test]
fn recovery_never_panics_on_corruption() {
    let mut rng = SmallRng::seed_from_u64(0xbad5eed);
    for _ in 0..128 {
        let recs = arb_records(&mut rng, 1, 8);
        let flip = rng.gen_range(0usize..256);
        let (wal, ends) = logged(&recs);
        let mut img = wal.into_image().to_vec();
        let i = flip % img.len();
        img[i] ^= 0x55;
        // Re-opening a corrupt image stops cleanly at the damaged frame,
        // never panics, and keeps exactly the frames before it.
        let intact = ends.iter().filter(|&&end| end <= i).count();
        let (replayed, kept) = reopen(&img);
        assert_eq!(replayed, recs[..intact]);
        assert_eq!(kept[..], img[..ends[..intact].last().map_or(0, |&end| end)]);
    }
}

/// Recovery reproduces the per-key latest values of a sequential
/// install history.
#[test]
fn recovery_matches_installs() {
    let mut rng = SmallRng::seed_from_u64(0x1e57);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..40);
        let writes: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..8), rng.gen_range(0u64..1000)))
            .collect();
        let mut wal = Wal::new();
        let mut latest: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
        for (k, v) in writes {
            let seq = latest.get(&k).map(|(s, _)| s + 1).unwrap_or(0);
            latest.insert(k, (seq, v));
            wal.append(&LogRecord::Install {
                key: Key(k),
                seq,
                stamp: Stamp::Ts(seq),
                writer: TxId::new(0, seq),
                value: Value::from_u64(v),
            });
        }
        let (store, _) = recover(&wal);
        for (k, (seq, v)) in latest {
            assert_eq!(store.latest_seq(Key(k)), Some(seq));
            assert_eq!(store.latest(Key(k)).unwrap().value.as_u64(), Some(v));
        }
    }
}
