//! The write-ahead log: append-only record stream with recovery into a
//! [`MultiVersionStore`].
//!
//! Three record kinds mirror what a G-DUR replica persists (§5.3: "every
//! time the state of Algorithm 4 changes, the modification must be
//! logged"):
//!
//! * [`LogRecord::Install`] — an applied after-value;
//! * [`LogRecord::Decision`] — a commit/abort decision (2PC's commit
//!   point);
//! * [`LogRecord::Submit`] — a coordinator handed a transaction to the
//!   commitment protocol. A `Submit` without a matching `Decision` is an
//!   in-flight termination: recovery resumes its retransmission.
//!
//! Recovery scans frames until the first torn/corrupt one (crash during a
//! write), replaying installs in order.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use gdur_store::{Key, MultiVersionStore, TxId, Value};
use gdur_versioning::{Stamp, VersionVec};

use crate::codec::{self, DecodeError};

/// One durable log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// An after-value installation.
    Install {
        /// Key written.
        key: Key,
        /// Per-key sequence installed.
        seq: u64,
        /// Stamp of the version.
        stamp: Stamp,
        /// Writing transaction.
        writer: TxId,
        /// The payload.
        value: Value,
    },
    /// A termination decision.
    Decision {
        /// The decided transaction.
        tx: TxId,
        /// True = commit.
        commit: bool,
    },
    /// A coordinator submitted a transaction for termination (§5.3: the
    /// protocol state change that starts retransmission). A `Submit` with
    /// no later `Decision` for the same transaction marks a mid-commit
    /// crash: recovery rebuilds the termination payload from this record
    /// and resumes retransmitting it.
    Submit {
        /// The submitted transaction.
        tx: TxId,
        /// Read set: key and the per-key sequence observed.
        rs: Vec<(Key, u64)>,
        /// Write buffer: key, superseded base sequence, and after-value.
        ws: Vec<(Key, u64, Value)>,
        /// Dependency-vector entries of the snapshot at submit time.
        dep: Vec<u64>,
    },
}

const TAG_INSTALL: u8 = 1;
const TAG_DECISION: u8 = 2;
const TAG_SUBMIT: u8 = 4;

fn put_stamp(buf: &mut BytesMut, stamp: &Stamp) {
    match stamp {
        Stamp::Ts(v) => {
            buf.put_u8(0);
            codec::put_varint(buf, *v);
        }
        Stamp::Vec { origin, vec } => {
            buf.put_u8(1);
            codec::put_varint(buf, u64::from(*origin));
            codec::put_varint(buf, vec.dim() as u64);
            for e in vec.iter() {
                codec::put_varint(buf, e);
            }
        }
    }
}

fn get_stamp(buf: &mut Bytes) -> Result<Stamp, DecodeError> {
    if !buf.has_remaining() {
        return Err(DecodeError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(Stamp::Ts(codec::get_varint(buf)?)),
        1 => {
            let origin = codec::get_varint(buf)? as u32;
            let dim = codec::get_varint(buf)? as usize;
            let mut entries = Vec::with_capacity(dim);
            for _ in 0..dim {
                entries.push(codec::get_varint(buf)?);
            }
            Ok(Stamp::Vec {
                origin,
                vec: VersionVec::from_entries(entries),
            })
        }
        t => Err(DecodeError::UnknownTag(t)),
    }
}

fn put_tx(buf: &mut BytesMut, tx: TxId) {
    codec::put_varint(buf, u64::from(tx.coord()));
    codec::put_varint(buf, tx.seq());
}

/// Reads a transaction id; a coordinator or sequence wider than [`TxId`]
/// packs is a decode error, never a truncation or a panic.
fn get_tx(buf: &mut Bytes) -> Result<TxId, DecodeError> {
    let coord = codec::get_varint(buf)?;
    let seq = codec::get_varint(buf)?;
    u32::try_from(coord)
        .ok()
        .and_then(|c| TxId::try_new(c, seq))
        .ok_or(DecodeError::TxIdOutOfRange { coord, seq })
}

impl LogRecord {
    /// Serializes the record body (unframed).
    pub fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the record body (unframed) to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            LogRecord::Install {
                key,
                seq,
                stamp,
                writer,
                value,
            } => {
                buf.put_u8(TAG_INSTALL);
                codec::put_varint(buf, key.0);
                codec::put_varint(buf, *seq);
                put_stamp(buf, stamp);
                put_tx(buf, *writer);
                codec::put_bytes(buf, value.as_bytes());
            }
            LogRecord::Decision { tx, commit } => {
                buf.put_u8(TAG_DECISION);
                put_tx(buf, *tx);
                buf.put_u8(u8::from(*commit));
            }
            LogRecord::Submit { tx, rs, ws, dep } => {
                buf.put_u8(TAG_SUBMIT);
                put_tx(buf, *tx);
                codec::put_varint(buf, rs.len() as u64);
                for (key, seq) in rs {
                    codec::put_varint(buf, key.0);
                    codec::put_varint(buf, *seq);
                }
                codec::put_varint(buf, ws.len() as u64);
                for (key, base, value) in ws {
                    codec::put_varint(buf, key.0);
                    codec::put_varint(buf, *base);
                    codec::put_bytes(buf, value.as_bytes());
                }
                codec::put_varint(buf, dep.len() as u64);
                for e in dep {
                    codec::put_varint(buf, *e);
                }
            }
        }
    }

    /// Decodes a record body produced by [`LogRecord::encode`].
    pub fn decode(mut body: Bytes) -> Result<LogRecord, DecodeError> {
        if !body.has_remaining() {
            return Err(DecodeError::Truncated);
        }
        match body.get_u8() {
            TAG_INSTALL => {
                let key = Key(codec::get_varint(&mut body)?);
                let seq = codec::get_varint(&mut body)?;
                let stamp = get_stamp(&mut body)?;
                let writer = get_tx(&mut body)?;
                let value = Value::from_bytes(codec::get_bytes(&mut body)?);
                Ok(LogRecord::Install {
                    key,
                    seq,
                    stamp,
                    writer,
                    value,
                })
            }
            TAG_DECISION => {
                let tx = get_tx(&mut body)?;
                if !body.has_remaining() {
                    return Err(DecodeError::Truncated);
                }
                let commit = body.get_u8() != 0;
                Ok(LogRecord::Decision { tx, commit })
            }
            TAG_SUBMIT => {
                let tx = get_tx(&mut body)?;
                let nr = codec::get_varint(&mut body)? as usize;
                let mut rs = Vec::with_capacity(nr);
                for _ in 0..nr {
                    let key = Key(codec::get_varint(&mut body)?);
                    let seq = codec::get_varint(&mut body)?;
                    rs.push((key, seq));
                }
                let nw = codec::get_varint(&mut body)? as usize;
                let mut ws = Vec::with_capacity(nw);
                for _ in 0..nw {
                    let key = Key(codec::get_varint(&mut body)?);
                    let base = codec::get_varint(&mut body)?;
                    let value = Value::from_bytes(codec::get_bytes(&mut body)?);
                    ws.push((key, base, value));
                }
                let nd = codec::get_varint(&mut body)? as usize;
                let mut dep = Vec::with_capacity(nd);
                for _ in 0..nd {
                    dep.push(codec::get_varint(&mut body)?);
                }
                Ok(LogRecord::Submit { tx, rs, ws, dep })
            }
            t => Err(DecodeError::UnknownTag(t)),
        }
    }
}

/// An append-only write-ahead log backed by a growable byte buffer — the
/// simulated equivalent of a BerkeleyDB log file.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    data: BytesMut,
    /// Byte offset in `data` at which each record's frame starts, indexed
    /// by log sequence number.
    offsets: Vec<usize>,
    /// The body of the record being appended, kept so that an append
    /// allocates nothing once it has grown to the largest record.
    scratch: BytesMut,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Appends a record; returns its log sequence number.
    pub fn append(&mut self, rec: &LogRecord) -> u64 {
        self.scratch.clear();
        rec.encode_into(&mut self.scratch);
        self.offsets.push(self.data.len());
        codec::put_frame(&mut self.data, &self.scratch);
        self.len() - 1
    }

    /// Number of appended records.
    pub fn len(&self) -> u64 {
        self.offsets.len() as u64
    }

    /// True if nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Size of the encoded log in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// The raw encoded log, consuming it: the durable byte image a
    /// restart re-opens with [`Wal::from_image`]. The log's buffer becomes
    /// the image, so a caller that drops the log holds no second copy.
    pub fn into_image(self) -> Bytes {
        self.data.freeze()
    }

    /// Rebuilds a log from a possibly-torn on-disk image: every intact
    /// frame is kept, everything at and after the first torn, corrupt or
    /// undecodable frame is discarded. This is the disk-read half of
    /// recovery. The kept frames are the image's own bytes, at their own
    /// offsets: each is decoded once, to check it, and never re-encoded.
    pub fn from_image(data: Bytes) -> Self {
        let mut offsets = Vec::new();
        let mut intact = 0;
        for (end, _) in intact_frames(data.clone()) {
            offsets.push(intact);
            intact = end;
        }
        let mut kept = BytesMut::with_capacity(intact);
        kept.extend_from_slice(&data[..intact]);
        Wal {
            data: kept,
            offsets,
            scratch: BytesMut::new(),
        }
    }

    /// Decodes every record, in log order.
    pub fn scan(&self) -> Vec<LogRecord> {
        self.scan_from(0).collect()
    }

    /// Decodes the records from log sequence number `lsn` on, one frame at
    /// a time: a reader that stops after `n` records has paid for `n`
    /// frames, wherever in the log it started. Empty at and past the end.
    pub fn scan_from(&self, lsn: u64) -> impl Iterator<Item = LogRecord> + '_ {
        let first = lsn.min(self.len()) as usize;
        (first..self.offsets.len()).map_while(move |i| {
            let end = self.offsets.get(i + 1).copied().unwrap_or(self.data.len());
            let mut frame = Bytes::copy_from_slice(&self.data[self.offsets[i]..end]);
            LogRecord::decode(codec::unframe(&mut frame).ok()?).ok()
        })
    }

    /// Like [`Wal::scan`] over an arbitrary byte image, stopping silently
    /// at the first torn or corrupt frame (crash-during-append semantics).
    pub fn scan_bytes(data: Bytes) -> Vec<LogRecord> {
        intact_frames(data).map(|(_, rec)| rec).collect()
    }
}

/// The intact frames at the head of `data`, in order: each one's record and
/// the offset its frame ends at. Ends at the first torn, corrupt or
/// undecodable frame.
fn intact_frames(data: Bytes) -> impl Iterator<Item = (usize, LogRecord)> {
    let len = data.len();
    let mut rest = data;
    std::iter::from_fn(move || {
        let rec = LogRecord::decode(codec::unframe(&mut rest).ok()?).ok()?;
        Some((len - rest.len(), rec))
    })
    .fuse()
}

/// Replays a log image into a fresh store: installs are applied in order,
/// seeding unseen keys from their first logged version.
///
/// Returns the store plus the set of decisions seen (a recovering 2PC
/// participant uses these to answer retried terminations).
pub fn recover(log: &Wal) -> (MultiVersionStore, Vec<(TxId, bool)>) {
    let mut store = MultiVersionStore::new();
    let mut decisions = Vec::new();
    for rec in log.scan() {
        match rec {
            LogRecord::Install {
                key,
                seq,
                stamp,
                writer,
                value,
            } => {
                if !store.contains_key(key) {
                    if seq == 0 {
                        store.seed(key, value, stamp);
                        continue;
                    }
                    // First logged version is post-seed: seed a placeholder
                    // then install to the logged sequence.
                    store.seed(key, Value::empty(), Stamp::Ts(0));
                    while store.latest_seq(key).expect("seeded") + 1 < seq {
                        store.install(key, Value::empty(), stamp.clone(), writer);
                    }
                }
                store.install(key, value, stamp, writer);
            }
            LogRecord::Decision { tx, commit } => decisions.push((tx, commit)),
            // In-flight termination state is protocol-level; the replica's
            // own recovery path re-derives it from Submit/Decision pairs.
            LogRecord::Submit { .. } => {}
        }
    }
    (store, decisions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn install(k: u64, seq: u64, v: u64) -> LogRecord {
        LogRecord::Install {
            key: Key(k),
            seq,
            stamp: Stamp::Ts(seq),
            writer: TxId::new(1, seq),
            value: Value::from_u64(v),
        }
    }

    #[test]
    fn record_roundtrip() {
        let recs = vec![
            install(5, 0, 50),
            LogRecord::Decision {
                tx: TxId::new(2, 9),
                commit: true,
            },
            LogRecord::Install {
                key: Key(1),
                seq: 3,
                stamp: Stamp::Vec {
                    origin: 2,
                    vec: VersionVec::from_entries(vec![1, 2, 3]),
                },
                writer: TxId::new(7, 8),
                value: Value::of_size(100),
            },
        ];
        for r in recs {
            let enc = r.encode().freeze();
            assert_eq!(LogRecord::decode(enc).unwrap(), r);
        }
    }

    #[test]
    fn submit_record_roundtrip() {
        let recs = vec![
            LogRecord::Submit {
                tx: TxId::new(9, 41),
                rs: vec![(Key(3), 7)],
                ws: vec![
                    (Key(3), 7, Value::from_u64(99)),
                    (Key(5), 0, Value::empty()),
                ],
                dep: vec![1, 0, 4],
            },
            // Read-only / empty-set submits must also survive.
            LogRecord::Submit {
                tx: TxId::new(1, 1),
                rs: vec![],
                ws: vec![],
                dep: vec![],
            },
        ];
        for r in recs {
            let enc = r.encode().freeze();
            assert_eq!(LogRecord::decode(enc).unwrap(), r);
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let mut wal = Wal::new();
        assert!(wal.is_empty());
        assert_eq!(wal.append(&install(1, 0, 10)), 0);
        assert_eq!(wal.append(&install(1, 1, 11)), 1);
        assert_eq!(wal.len(), 2);
        let scanned = wal.scan();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[1], install(1, 1, 11));
    }

    #[test]
    fn recovery_rebuilds_store() {
        let mut wal = Wal::new();
        wal.append(&install(1, 0, 10));
        wal.append(&install(1, 1, 11));
        wal.append(&install(2, 0, 20));
        wal.append(&LogRecord::Decision {
            tx: TxId::new(3, 4),
            commit: false,
        });
        let (store, decisions) = recover(&wal);
        assert_eq!(store.latest(Key(1)).unwrap().value.as_u64(), Some(11));
        assert_eq!(store.latest_seq(Key(1)), Some(1));
        assert_eq!(store.latest(Key(2)).unwrap().value.as_u64(), Some(20));
        assert_eq!(decisions, vec![(TxId::new(3, 4), false)]);
    }

    #[test]
    fn recovery_stops_at_torn_tail() {
        let mut wal = Wal::new();
        wal.append(&install(1, 0, 10));
        wal.append(&install(1, 1, 11));
        let mut img = wal.into_image().to_vec();
        img.truncate(img.len() - 3); // torn final frame
        let recs = Wal::scan_bytes(Bytes::from(img));
        assert_eq!(recs.len(), 1, "only the intact prefix survives");
    }

    #[test]
    fn recovery_tolerates_mid_log_gap_keys() {
        // First logged version of a key is seq 3 (its older versions are
        // not in this log): recovery backfills placeholders.
        let mut wal = Wal::new();
        wal.append(&install(9, 3, 93));
        let (store, _) = recover(&wal);
        assert_eq!(store.latest_seq(Key(9)), Some(3));
        assert_eq!(store.latest(Key(9)).unwrap().value.as_u64(), Some(93));
    }

    /// A log with every record shape: Ts and Vec stamps, a large value, a
    /// decision, and a submit — so the fuzz below exercises every
    /// decode path. Returns the records and the byte offset of each frame
    /// boundary (`boundaries[i]` = offset where frame `i` starts;
    /// final entry = total length).
    fn fuzz_log() -> (Wal, Vec<LogRecord>, Vec<usize>) {
        let recs = vec![
            install(1, 0, 10),
            LogRecord::Decision {
                tx: TxId::new(2, 9),
                commit: true,
            },
            LogRecord::Install {
                key: Key(7),
                seq: 0,
                stamp: Stamp::Vec {
                    origin: 1,
                    vec: VersionVec::from_entries(vec![4, 0, 17]),
                },
                writer: TxId::new(3, 1),
                value: Value::of_size(64),
            },
            install(1, 1, 11),
            LogRecord::Submit {
                tx: TxId::new(4, 2),
                rs: vec![(Key(1), 1), (Key(7), 0)],
                ws: vec![(Key(1), 1, Value::of_size(32))],
                dep: vec![0, 3],
            },
        ];
        let mut wal = Wal::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            wal.append(r);
            boundaries.push(wal.byte_len());
        }
        (wal, recs, boundaries)
    }

    #[test]
    fn truncate_fuzz_recovers_exact_intact_prefix() {
        // Crash-during-append can tear the log at ANY byte. For every
        // possible cut: recovery must not panic, must replay exactly the
        // frames wholly before the cut, and must never replay past the
        // torn frame.
        let (wal, recs, boundaries) = fuzz_log();
        let img = wal.into_image();
        for cut in 0..=img.len() {
            let intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let scanned = Wal::scan_bytes(img.slice(..cut));
            assert_eq!(scanned, recs[..intact], "cut at byte {cut}");
            // The full recovery pipeline (image -> log -> store replay)
            // must also survive every cut.
            let recovered = Wal::from_image(img.slice(..cut));
            assert_eq!(recovered.len(), intact as u64, "cut at byte {cut}");
            // It keeps the intact frames' bytes as they were.
            let prefix = img.slice(..boundaries[intact]);
            assert_eq!(recovered.clone().into_image(), prefix, "cut at byte {cut}");
            let (_store, _decisions) = recover(&recovered);
        }
    }

    #[test]
    fn a_log_reopened_from_its_image_scans_the_same() {
        let (wal, recs, _) = fuzz_log();
        let reopened = Wal::from_image(wal.clone().into_image());
        assert_eq!(reopened.scan(), wal.scan());
        assert_eq!(reopened.scan(), recs);
        assert_eq!(reopened.byte_len(), wal.byte_len());
    }

    /// `scan_from(k)` must be the `k`-suffix of the log for every `k`,
    /// the end and past it included.
    fn assert_scan_from_is_every_suffix(wal: &Wal, want: &[LogRecord], what: &str) {
        assert_eq!(wal.scan(), want, "{what}");
        for k in 0..=want.len() + 2 {
            let suffix: Vec<LogRecord> = wal.scan_from(k as u64).collect();
            assert_eq!(suffix, want[k.min(want.len())..], "{what}, from {k}");
        }
        assert_eq!(wal.scan_from(u64::MAX).count(), 0, "{what}");
    }

    #[test]
    fn scan_from_is_the_suffix_on_every_torn_image() {
        // The offset index is rebuilt by `from_image`; whatever byte the
        // image was torn at, it must address exactly the surviving frames.
        let (wal, recs, boundaries) = fuzz_log();
        let img = wal.into_image();
        for cut in 0..=img.len() {
            let intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let mut recovered = Wal::from_image(img.slice(..cut));
            let what = format!("cut at byte {cut}");
            assert_scan_from_is_every_suffix(&recovered, &recs[..intact], &what);
            // Appends after a rebuild keep extending the index.
            recovered.append(&install(2, 0, 20));
            assert_eq!(
                recovered.scan_from(recovered.len() - 1).collect::<Vec<_>>(),
                vec![install(2, 0, 20)]
            );
        }
    }

    #[test]
    fn flip_fuzz_stops_at_corrupt_frame() {
        // Bit-rot instead of tearing: flip each byte in turn. The frame
        // checksum must stop the scan at the damaged frame, keeping only
        // the intact prefix before it.
        let (wal, recs, boundaries) = fuzz_log();
        let img = wal.into_image().to_vec();
        for pos in 0..img.len() {
            let frame_of_pos = boundaries.iter().filter(|&&b| b <= pos).count() - 1;
            let mut bad = img.clone();
            bad[pos] ^= 0xff;
            let scanned = Wal::scan_bytes(Bytes::from(bad.clone()));
            assert_eq!(scanned, recs[..frame_of_pos], "flip at byte {pos}");
            let kept = Wal::from_image(Bytes::from(bad)).into_image();
            assert_eq!(
                kept[..],
                img[..boundaries[frame_of_pos]],
                "flip at byte {pos}"
            );
        }
    }

    /// A Decision record body carrying a raw `(coord, seq)`.
    fn raw_decision(coord: u64, seq: u64) -> Bytes {
        let mut body = BytesMut::new();
        body.put_u8(TAG_DECISION);
        codec::put_varint(&mut body, coord);
        codec::put_varint(&mut body, seq);
        body.put_u8(1);
        body.freeze()
    }

    #[test]
    fn out_of_range_id_is_a_decode_error_and_stops_recovery() {
        let (max_coord, max_seq) = (u64::from(TxId::MAX_COORD), TxId::MAX_SEQ);
        let tx = TxId::new(TxId::MAX_COORD, TxId::MAX_SEQ);
        assert_eq!(
            LogRecord::decode(raw_decision(max_coord, max_seq)),
            Ok(LogRecord::Decision { tx, commit: true })
        );
        // A coordinator past 2²⁴, one past u32, and a sequence past 2⁴⁰.
        for (coord, seq) in [
            (max_coord + 1, 0),
            (u64::from(u32::MAX) + 3, 5),
            (0, max_seq + 1),
        ] {
            assert_eq!(
                LogRecord::decode(raw_decision(coord, seq)),
                Err(DecodeError::TxIdOutOfRange { coord, seq })
            );
            // Recovery keeps the intact prefix and stops at the bad frame,
            // exactly as at a bad checksum: the install after it is lost.
            let mut wal = Wal::new();
            wal.append(&install(1, 0, 10));
            let mut img = wal.into_image().to_vec();
            img.extend_from_slice(&codec::frame(&raw_decision(coord, seq)));
            img.extend_from_slice(&codec::frame(&install(1, 1, 11).encode()));
            let img = Bytes::from(img);
            assert_eq!(Wal::scan_bytes(img.clone()), vec![install(1, 0, 10)]);
            let (store, decisions) = recover(&Wal::from_image(img));
            assert_eq!(store.latest_seq(Key(1)), Some(0));
            assert!(decisions.is_empty());
        }
    }

    #[test]
    fn byte_len_grows_with_values() {
        let mut wal = Wal::new();
        wal.append(&install(1, 0, 1));
        let small = wal.byte_len();
        wal.append(&LogRecord::Install {
            key: Key(2),
            seq: 0,
            stamp: Stamp::Ts(0),
            writer: TxId::new(0, 0),
            value: Value::of_size(1024),
        });
        assert!(wal.byte_len() > small + 1024);
    }
}
