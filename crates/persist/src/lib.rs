//! # gdur-persist — the pluggable persistence layer
//!
//! The paper's G-DUR "can work either with a data persistence layer
//! (i.e., BerkeleyDB), or without (i.e., an in-memory concurrent
//! hashmap)"; its experiments use the in-memory path, and so do ours —
//! but the interface exists, and §5.3's crash-recovery model requires that
//! "every time the state of Algorithm 4 changes, the modification must be
//! logged". This crate provides that layer:
//!
//! * a self-contained binary codec with checksummed frames
//!   ([`codec`]) so torn writes are detected;
//! * an append-only [`Wal`] holding [`LogRecord`]s (installs, decisions,
//!   submits), re-opened from its byte image in place: a restart gets each
//!   intact record once, in log order, and the image is cut at the first
//!   torn frame. What a record does to a replica is `gdur-core`'s recovery.
//!
//! ```
//! use gdur_persist::{LogRecord, Wal};
//! use gdur_store::{Key, TxId, Value};
//! use gdur_versioning::Stamp;
//!
//! let mut wal = Wal::new();
//! let rec = LogRecord::Install {
//!     key: Key(1), seq: 1, stamp: Stamp::Ts(1),
//!     writer: TxId::new(0, 1), value: Value::from_u64(42),
//! };
//! wal.append(&rec);
//! let mut image = wal.into_image();
//! image.extend_from_slice(&[7, 0]); // a torn append
//! let mut replayed = Vec::new();
//! let wal = Wal::from_image(image, |r| replayed.push(r));
//! assert_eq!((replayed, wal.len()), (vec![rec], 1));
//! ```

pub mod codec;
mod wal;

pub use codec::DecodeError;
pub use wal::{recover, LogRecord, RecordHead, Wal};
