//! Fundamental datastore identifiers: keys, values, transaction ids.

use bytes::Bytes;
use std::fmt;

/// Identifies an object in the datastore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// The payload of an object version.
///
/// Backed by [`Bytes`] so that propagating after-values to remote replicas
/// clones a reference, not the payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Value(Bytes);

impl Value {
    /// An empty value.
    pub fn empty() -> Self {
        Value(Bytes::new())
    }

    /// A value of `n` zero bytes — used by workload generators to model the
    /// paper's 1 KB payloads without fabricating content.
    pub fn of_size(n: usize) -> Self {
        Value(Bytes::from(vec![0u8; n]))
    }

    /// Wraps raw bytes.
    pub fn from_bytes(b: Bytes) -> Self {
        Value(b)
    }

    /// Encodes a `u64` (convenient for counter-style examples).
    pub fn from_u64(v: u64) -> Self {
        Value(Bytes::copy_from_slice(&v.to_be_bytes()))
    }

    /// Decodes a value previously produced by [`Value::from_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.0.as_ref().try_into().ok().map(u64::from_be_bytes)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Bytes> for Value {
    fn from(b: Bytes) -> Self {
        Value(b)
    }
}

/// Globally unique transaction identifier: coordinating process + local
/// sequence number, packed into one word as `coord << 40 | seq`. That word
/// is also the `tx` field of the transaction's trace events ([`TxId::code`],
/// [`TxId::from_code`]); no other packing exists.
///
/// The coordinator is the high field, so the derived `Ord` on the word is
/// `(coord, seq)` lexicographic order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(u64);

impl TxId {
    /// Bits of the word holding the coordinator-local sequence number.
    const SEQ_BITS: u32 = 40;
    /// Largest coordinator id an id can carry (2²⁴ − 1).
    pub const MAX_COORD: u32 = (1 << (64 - Self::SEQ_BITS)) - 1;
    /// Largest sequence number an id can carry (2⁴⁰ − 1).
    pub const MAX_SEQ: u64 = (1 << Self::SEQ_BITS) - 1;

    /// Creates a transaction id.
    ///
    /// # Panics
    ///
    /// Panics — an explicit bounds error, never a silent truncation — if
    /// `coord` exceeds [`TxId::MAX_COORD`] or `seq` exceeds
    /// [`TxId::MAX_SEQ`].
    pub fn new(coord: u32, seq: u64) -> Self {
        assert!(
            coord <= Self::MAX_COORD,
            "transaction coordinator {coord} out of range (max {})",
            Self::MAX_COORD
        );
        assert!(
            seq <= Self::MAX_SEQ,
            "coordinator {coord} exhausted its transaction sequence space \
             (seq={seq}, max {})",
            Self::MAX_SEQ
        );
        TxId((u64::from(coord) << Self::SEQ_BITS) | seq)
    }

    /// The fallible twin of [`TxId::new`]: `None` where `new` panics.
    pub const fn try_new(coord: u32, seq: u64) -> Option<Self> {
        if coord <= Self::MAX_COORD && seq <= Self::MAX_SEQ {
            Some(TxId(((coord as u64) << Self::SEQ_BITS) | seq))
        } else {
            None
        }
    }

    /// Process id (dense index) of the coordinator.
    #[inline]
    pub const fn coord(self) -> u32 {
        (self.0 >> Self::SEQ_BITS) as u32
    }

    /// Coordinator-local transaction sequence number.
    #[inline]
    pub const fn seq(self) -> u64 {
        self.0 & Self::MAX_SEQ
    }

    /// The packed word: the `tx` field of this transaction's trace events.
    #[inline]
    pub const fn code(self) -> u64 {
        self.0
    }

    /// The id a trace event's `tx` field names: the inverse of
    /// [`TxId::code`]. Every word is an id, so this cannot fail.
    #[inline]
    pub const fn from_code(code: u64) -> Self {
        TxId(code)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.coord(), self.seq())
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxId")
            .field("coord", &self.coord())
            .field("seq", &self.seq())
            .finish()
    }
}

const _: () = assert!(std::mem::size_of::<TxId>() == 8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_u64_roundtrip() {
        assert_eq!(Value::from_u64(42).as_u64(), Some(42));
        assert_eq!(Value::of_size(3).as_u64(), None);
    }

    #[test]
    fn value_sizes() {
        assert_eq!(Value::of_size(1024).len(), 1024);
        assert!(Value::empty().is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Key(3)), "k3");
        assert_eq!(format!("{}", TxId::new(2, 9)), "t2.9");
    }

    #[test]
    fn txid_orders_by_coord_then_seq() {
        assert!(TxId::new(1, 9) < TxId::new(2, 0));
        assert!(TxId::new(1, 1) < TxId::new(1, 2));
    }

    #[test]
    fn txid_packed_order_is_lexicographic() {
        // xorshift64: a fixed pseudo-random sample, with the field
        // boundaries mixed in.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edges = [(0, 0), (0, TxId::MAX_SEQ), (TxId::MAX_COORD, 0)];
        let mut ids: Vec<(u32, u64)> = edges.to_vec();
        ids.extend((0..500).map(|_| {
            let r = next();
            // Half the coordinators are < 4, so equal ones get compared.
            let coord = if r & 1 == 0 {
                (r >> 1) as u32 % 4
            } else {
                (r >> 40) as u32
            };
            (coord, next() & TxId::MAX_SEQ)
        }));
        for &a in &ids {
            for &b in &ids {
                let (ta, tb) = (TxId::new(a.0, a.1), TxId::new(b.0, b.1));
                assert_eq!(ta.cmp(&tb), a.cmp(&b), "{a:?} vs {b:?}");
                assert_eq!((ta.coord(), ta.seq()), a);
                assert_eq!(TxId::from_code(ta.code()), ta);
            }
        }
    }

    #[test]
    fn txid_debug_names_its_fields() {
        assert_eq!(
            format!("{:?}", TxId::new(3, 7)),
            "TxId { coord: 3, seq: 7 }"
        );
    }

    #[test]
    fn txid_try_new_rejects_what_new_panics_on() {
        assert_eq!(
            TxId::try_new(TxId::MAX_COORD, TxId::MAX_SEQ).map(TxId::code),
            Some(u64::MAX)
        );
        assert_eq!(TxId::try_new(TxId::MAX_COORD + 1, 0), None);
        assert_eq!(TxId::try_new(0, TxId::MAX_SEQ + 1), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn txid_rejects_wide_coordinator() {
        let _ = TxId::new(TxId::MAX_COORD + 1, 0);
    }

    #[test]
    #[should_panic(expected = "exhausted its transaction sequence space")]
    fn txid_rejects_wide_sequence() {
        let _ = TxId::new(0, TxId::MAX_SEQ + 1);
    }
}
