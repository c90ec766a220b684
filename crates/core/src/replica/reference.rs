//! The previous outcome-log layout, kept as the reference model of the
//! round-trip test (`tests.rs`): one fixed-size header per decided
//! transaction and two arenas its read and write sets are appended to.

use gdur_store::{Key, TxId};

use crate::txn::{ReadEntry, WriteEntry};

/// One decided transaction: where its reads and writes end in the arenas
/// (they start where the previous header's end).
#[derive(Debug, Clone, Copy)]
struct OutcomeHeader {
    tx: TxId,
    reads_end: u32,
    writes_end: u32,
    committed: bool,
}

/// The fixed-width outcome log.
#[derive(Debug, Default)]
pub(crate) struct FixedOutcomeLog {
    headers: Vec<OutcomeHeader>,
    reads: Vec<(Key, u64)>,
    writes: Vec<Key>,
}

/// A decided transaction of a [`FixedOutcomeLog`]: id, committed flag,
/// read set, written keys.
pub(crate) type FixedOutcome<'a> = (TxId, bool, &'a [(Key, u64)], &'a [Key]);

impl FixedOutcomeLog {
    pub(crate) fn push(&mut self, tx: TxId, committed: bool, rs: &[ReadEntry], ws: &[WriteEntry]) {
        self.reads.extend(rs.iter().map(|e| (e.key, e.seq)));
        self.writes.extend(ws.iter().map(|w| w.key));
        let end = |len: usize| u32::try_from(len).expect("outcome log arena past 2^32 entries");
        self.headers.push(OutcomeHeader {
            tx,
            reads_end: end(self.reads.len()),
            writes_end: end(self.writes.len()),
            committed,
        });
    }

    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = FixedOutcome<'_>> + '_ {
        let mut start = (0, 0);
        self.headers.iter().map(move |h| {
            let end = (h.reads_end as usize, h.writes_end as usize);
            let (r, w) = std::mem::replace(&mut start, end);
            (
                h.tx,
                h.committed,
                &self.reads[r..end.0],
                &self.writes[w..end.1],
            )
        })
    }
}
