//! # gdur-store — multi-version, partially replicated datastore
//!
//! The storage substrate of the G-DUR reproduction:
//!
//! * [`Key`], [`Value`], [`TxId`] — fundamental identifiers;
//! * [`Placement`] — key → partition → replica-sites mapping, with the
//!   paper's disaster-prone (1 replica) and disaster-tolerant (2 replicas)
//!   configurations;
//! * [`MultiVersionStore`] — the per-replica version store: the latest
//!   version for `choose_last`, the version list for `choose_cons` (§4.2);
//! * [`SeedImage`] — a replica's initial load by rule, O(partitions): a
//!   key's seed version stays there, and the store keeps only what a
//!   write adds;
//! * [`Versions`] — the view of one key's retained versions that
//!   `choose_cons` walks.
//!
//! ```
//! use gdur_store::{Key, MultiVersionStore, Placement, Value};
//! use gdur_versioning::Stamp;
//!
//! let placement = Placement::disaster_tolerant(3);
//! assert_eq!(placement.replicas_of_key(Key(0)).len(), 2);
//!
//! let mut store = MultiVersionStore::new();
//! store.seed(Key(0), Value::from_u64(7), Stamp::Ts(0));
//! assert_eq!(store.latest(Key(0)).unwrap().value.as_u64(), Some(7));
//! ```

mod mvstore;
mod placement;
mod types;

pub use mvstore::{MultiVersionStore, SeedImage, VersionRecord, Versions, SEED_TX};
pub use placement::{PartitionId, Placement};
pub use types::{Key, TxId, Value};
