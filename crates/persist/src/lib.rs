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
//!   submits);
//! * [`recover`] — replaying a log image into a fresh
//!   [`MultiVersionStore`](gdur_store::MultiVersionStore) plus the
//!   decision table a restarted 2PC participant answers retried
//!   terminations from.
//!
//! ```
//! use gdur_persist::{recover, LogRecord, Wal};
//! use gdur_store::{Key, TxId, Value};
//! use gdur_versioning::Stamp;
//!
//! let mut wal = Wal::new();
//! wal.append(&LogRecord::Install {
//!     key: Key(1), seq: 0, stamp: Stamp::Ts(0),
//!     writer: TxId::new(0, 1), value: Value::from_u64(42),
//! });
//! let (store, _decisions) = recover(&wal);
//! assert_eq!(store.latest(Key(1)).unwrap().value.as_u64(), Some(42));
//! ```

pub mod codec;
mod wal;

pub use codec::DecodeError;
pub use wal::{recover, LogRecord, Wal};
