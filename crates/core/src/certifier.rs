//! The certification queue: Algorithm 2's `Q`, the `commute` conflict index
//! over it, and — under group-communication commitment — the wait counts
//! that defer a vote until every conflicting predecessor has left `Q`
//! (Algorithm 3, line 3: the convoy effect).
//!
//! Everything is addressed by dense **delivery tickets**: each delivered
//! transaction takes the next `u32`. Queue entries live in one `VecDeque`
//! indexed by `ticket - head`, and each key bucket keeps its reader and
//! writer tickets in ascending order. No wait edge is stored: a slot counts
//! its distinct blockers, and a leaving head recomputes its waiters from
//! the buckets of its keys, scanning the deques `enqueue` would have
//! scanned from the other side. That is exact because `Q` is left in
//! delivery order: every ticket still registered when the head leaves is
//! later than it and was enqueued while it was queued, so it counted the
//! head iff it appears there. Certifier memory grows with the queue, not
//! with its conflict edges, and no conflict edge costs a map lookup.
//!
//! Two shapes share the index. With `fifo` (group communication)
//! transactions leave in delivery order and waiters are woken; without it
//! (2PC, Paxos Commit) they leave in any order, nobody waits, and a
//! conflict only turns the vote negative, so just the buckets are kept.

use std::collections::VecDeque;

use gdur_sim::IdMap;
use gdur_store::{Key, TxId};

use crate::messages::TermPayload;
use crate::spec::CommuteRule;

/// Position of a transaction in this replica's delivery order. A replica
/// delivers fewer than 2³² payloads in its lifetime; [`Certifier::enqueue`]
/// panics past that.
pub(crate) type Ticket = u32;

/// A queued transaction (`fifo` only).
#[derive(Debug)]
struct Slot {
    tx: TxId,
    /// Conflicting predecessors still queued.
    blocked_by: u32,
    /// Ticket of the last enqueue that counted this slot as a blocker:
    /// a slot reached through several keys is counted once.
    mark: Ticket,
}

// One per queued transaction: under overload, the queue is deep.
const _: () = assert!(std::mem::size_of::<Slot>() <= 16);

/// Queued accessors of one key, ascending by ticket.
#[derive(Debug, Default)]
struct Bucket {
    readers: VecDeque<Ticket>,
    writers: VecDeque<Ticket>,
}

/// What [`Certifier::enqueue`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Enqueued {
    /// The ticket taken; hand it back to the other calls.
    pub(crate) ticket: Ticket,
    /// True if a queued transaction does not commute with this one: the
    /// vote is deferred (`fifo`) or negative (otherwise).
    pub(crate) conflict: bool,
}

/// `Q` plus its conflict index; see the module documentation.
#[derive(Debug)]
pub(crate) struct Certifier {
    commute: CommuteRule,
    fifo: bool,
    /// Ticket of `slots[0]`.
    head: Ticket,
    next: Ticket,
    slots: VecDeque<Slot>,
    buckets: IdMap<Key, Bucket>,
    /// Scratch for the footprint of the payload at hand: (key, read, wrote),
    /// one entry per key, only the accesses `commute` looks at.
    footprint: Vec<(Key, bool, bool)>,
}

impl Certifier {
    /// An empty queue under `commute`; `fifo` selects the shape (module
    /// documentation).
    pub(crate) fn new(commute: CommuteRule, fifo: bool) -> Self {
        Certifier {
            commute,
            fifo,
            head: 0,
            next: 0,
            slots: VecDeque::new(),
            buckets: IdMap::new(),
            footprint: Vec::new(),
        }
    }

    /// An empty queue whose first delivery takes `ticket`.
    #[cfg(test)]
    fn starting_at(commute: CommuteRule, fifo: bool, ticket: Ticket) -> Self {
        let mut c = Self::new(commute, fifo);
        (c.head, c.next) = (ticket, ticket);
        c
    }

    /// Number of queued transactions (always 0 without `fifo`).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The queued transactions, in delivery order.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> impl Iterator<Item = TxId> + '_ {
        self.slots.iter().map(|s| s.tx)
    }

    /// The head of `Q`.
    pub(crate) fn front(&self) -> Option<TxId> {
        self.slots.front().map(|s| s.tx)
    }

    /// Forgets everything (crash). Tickets are not reused afterwards.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.buckets.clear();
        self.head = self.next;
    }

    /// Fills `self.footprint` from `payload`.
    fn load_footprint(&mut self, payload: &TermPayload) {
        let fp = &mut self.footprint;
        fp.clear();
        match self.commute {
            CommuteRule::Always => {}
            CommuteRule::WriteWriteDisjoint => {
                for w in payload.ws.iter() {
                    if !fp.iter().any(|(k, _, _)| *k == w.key) {
                        fp.push((w.key, false, true));
                    }
                }
            }
            CommuteRule::ReadWriteDisjoint => {
                for r in payload.rs.iter() {
                    if !fp.iter().any(|(k, _, _)| *k == r.key) {
                        fp.push((r.key, true, false));
                    }
                }
                for w in payload.ws.iter() {
                    match fp.iter_mut().find(|(k, _, _)| *k == w.key) {
                        Some(e) => e.2 = true,
                        None => fp.push((w.key, false, true)),
                    }
                }
            }
        }
    }

    /// Which of a key's deques an access must not overlap: (readers,
    /// writers).
    fn scans(commute: CommuteRule, read: bool, wrote: bool) -> (bool, bool) {
        match commute {
            CommuteRule::Always => (false, false),
            CommuteRule::WriteWriteDisjoint => (false, wrote),
            CommuteRule::ReadWriteDisjoint => (wrote, read),
        }
    }

    /// Delivers `payload`: takes the next ticket, finds the queued
    /// transactions it does not commute with, and registers it. With `fifo`
    /// it is appended to `Q` with the number of distinct blockers.
    pub(crate) fn enqueue(&mut self, payload: &TermPayload) -> Enqueued {
        let ticket = self.next;
        self.next = ticket.checked_add(1).unwrap_or_else(|| {
            panic!("delivery ticket {ticket} is the last a u32 holds: too many deliveries")
        });
        self.load_footprint(payload);
        let mut blocked_by = 0;
        let mut conflict = false;
        for &(key, read, wrote) in &self.footprint {
            let bucket = self.buckets.get_or_insert_with(key, Bucket::default);
            let (scan_readers, scan_writers) = Self::scans(self.commute, read, wrote);
            let scanned = [
                scan_readers.then_some(&bucket.readers),
                scan_writers.then_some(&bucket.writers),
            ];
            for deque in scanned.into_iter().flatten() {
                if !self.fifo {
                    // Not registered yet, so any entry is somebody else's.
                    conflict |= !deque.is_empty();
                    continue;
                }
                for &other in deque {
                    let slot = &mut self.slots[(other - self.head) as usize];
                    if slot.mark != ticket {
                        slot.mark = ticket;
                        blocked_by += 1;
                    }
                }
            }
            if read {
                bucket.readers.push_back(ticket);
            }
            if wrote {
                bucket.writers.push_back(ticket);
            }
        }
        if self.fifo {
            self.slots.push_back(Slot {
                tx: payload.tx,
                blocked_by,
                mark: ticket,
            });
            conflict = blocked_by > 0;
        }
        Enqueued { ticket, conflict }
    }

    /// True if a registered transaction other than `ticket` (whose payload
    /// this is) does not commute with it. Stops at the first one found.
    pub(crate) fn has_conflict(&mut self, ticket: Ticket, payload: &TermPayload) -> bool {
        self.load_footprint(payload);
        self.footprint.iter().any(|&(key, read, wrote)| {
            let Some(bucket) = self.buckets.get(&key) else {
                return false;
            };
            let (scan_readers, scan_writers) = Self::scans(self.commute, read, wrote);
            (scan_readers && bucket.readers.iter().any(|&t| t != ticket))
                || (scan_writers && bucket.writers.iter().any(|&t| t != ticket))
        })
    }

    /// True while `ticket` is queued behind a transaction it does not
    /// commute with.
    #[cfg(test)]
    pub(crate) fn is_blocked(&self, ticket: Ticket) -> bool {
        ticket
            .checked_sub(self.head)
            .and_then(|i| self.slots.get(i as usize))
            .is_some_and(|s| s.blocked_by > 0)
    }

    /// `ticket` (whose payload this is) terminated: drops it from the index
    /// and, with `fifo`, from the head of `Q`. Replaces the contents of
    /// `waiters` with its waiters — the registered tickets it does not
    /// commute with, all later than it — in delivery order; the caller
    /// passes each to [`Certifier::unblock`] and casts the vote of a
    /// transaction that returns *before* unblocking the next, because that
    /// vote may terminate — and so remove — further queue entries. The
    /// caller owns the buffer, so a nested `leave` needs one of its own.
    pub(crate) fn leave(
        &mut self,
        ticket: Ticket,
        payload: &TermPayload,
        waiters: &mut Vec<Ticket>,
    ) {
        self.load_footprint(payload);
        waiters.clear();
        for &(key, read, wrote) in &self.footprint {
            let bucket = self
                .buckets
                .get_mut(&key)
                .expect("a registered transaction is in the bucket of each key it accessed");
            if read {
                Self::remove(&mut bucket.readers, ticket);
            }
            if wrote {
                Self::remove(&mut bucket.writers, ticket);
            }
            if self.fifo {
                // The mirror image of `enqueue`'s scan.
                let (scan_readers, scan_writers) = Self::scans(self.commute, read, wrote);
                if scan_readers {
                    waiters.extend(&bucket.readers);
                }
                if scan_writers {
                    waiters.extend(&bucket.writers);
                }
            }
            if bucket.readers.is_empty() && bucket.writers.is_empty() {
                self.buckets.remove(&key);
            }
        }
        if !self.fifo {
            return;
        }
        assert_eq!(ticket, self.head, "Q is left in delivery order");
        self.slots.pop_front().expect("the head is queued");
        self.head += 1;
        // Ascending runs, one per scanned deque; a waiter met through
        // several keys or both deques of one is woken once.
        waiters.sort();
        waiters.dedup();
    }

    /// Removes `ticket` from an ascending deque. In delivery-order leaving
    /// it is the front.
    fn remove(deque: &mut VecDeque<Ticket>, ticket: Ticket) {
        if deque.front() == Some(&ticket) {
            deque.pop_front();
        } else {
            let i = deque
                .binary_search(&ticket)
                .expect("a registered ticket is in its deques");
            deque.remove(i);
        }
    }

    /// One blocker of `waiter` left `Q`. Returns the waiter's transaction
    /// if that was its last one, so its vote can be cast now. A waiter that
    /// itself left `Q` in the meantime is skipped.
    pub(crate) fn unblock(&mut self, waiter: Ticket) -> Option<TxId> {
        let slot = self
            .slots
            .get_mut(waiter.checked_sub(self.head)? as usize)?;
        slot.blocked_by -= 1;
        (slot.blocked_by == 0).then_some(slot.tx)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use gdur_sim::ProcessId;
    use gdur_store::Value;
    use gdur_versioning::VersionVec;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::txn::{ReadEntry, WriteEntry};

    const RULES: [CommuteRule; 3] = [
        CommuteRule::ReadWriteDisjoint,
        CommuteRule::WriteWriteDisjoint,
        CommuteRule::Always,
    ];

    fn payload(seq: u64, reads: &[u64], writes: &[u64]) -> TermPayload {
        let rs = reads.iter().map(|k| ReadEntry {
            key: Key(*k),
            seq: 0,
        });
        let ws = writes.iter().map(|k| WriteEntry {
            key: Key(*k),
            value: Value::empty(),
            base_seq: 0,
        });
        TermPayload::new(
            TxId::new(0, seq),
            ProcessId(0),
            writes.is_empty(),
            rs.collect(),
            ws.collect(),
            VersionVec::zero(0),
        )
    }

    /// `Certifier::leave` into a fresh buffer.
    fn leave(c: &mut Certifier, ticket: Ticket, payload: &TermPayload) -> Vec<Ticket> {
        let mut waiters = Vec::new();
        c.leave(ticket, payload, &mut waiters);
        waiters
    }

    /// A random footprint over a few hot keys: repeated reads, blind writes
    /// and read-modify-writes all occur.
    fn random_payload(rng: &mut SmallRng, seq: u64) -> TermPayload {
        let reads: Vec<u64> = (0..rng.gen_range(0..4usize))
            .map(|_| rng.gen_range(0..6u64))
            .collect();
        let mut writes: Vec<u64> = Vec::new();
        for _ in 0..rng.gen_range(0..3usize) {
            let k = rng.gen_range(0..6u64);
            if !writes.contains(&k) {
                writes.push(k);
            }
        }
        payload(seq, &reads, &writes)
    }

    /// The all-pairs index this module replaced, kept verbatim as the
    /// reference model: per-key `(tx, read, wrote)` buckets scanned in
    /// full, blockers deduplicated by a linear `seen`, wait edges and
    /// blocked counts in maps keyed by transaction.
    struct Reference {
        commute: CommuteRule,
        q: VecDeque<TxId>,
        key_index: BTreeMap<Key, Vec<(TxId, bool, bool)>>,
        waiters: BTreeMap<TxId, Vec<TxId>>,
        /// Stands in for `PartTxn::blocked_by`; an entry exists while the
        /// transaction has participant state.
        blocked_by: BTreeMap<TxId, usize>,
    }

    impl Reference {
        fn new(commute: CommuteRule) -> Self {
            Reference {
                commute,
                q: VecDeque::new(),
                key_index: BTreeMap::new(),
                waiters: BTreeMap::new(),
                blocked_by: BTreeMap::new(),
            }
        }

        fn accesses(payload: &TermPayload) -> Vec<(Key, bool, bool)> {
            let mut out: Vec<(Key, bool, bool)> =
                Vec::with_capacity(payload.rs.len() + payload.ws.len());
            for r in payload.rs.iter() {
                out.push((r.key, true, false));
            }
            for w in payload.ws.iter() {
                if let Some(e) = out.iter_mut().find(|(k, _, _)| *k == w.key) {
                    e.2 = true;
                } else {
                    out.push((w.key, false, true));
                }
            }
            out
        }

        fn conflicts(&self, mine: (bool, bool), other: (bool, bool)) -> bool {
            match self.commute {
                CommuteRule::Always => false,
                CommuteRule::WriteWriteDisjoint => mine.1 && other.1,
                CommuteRule::ReadWriteDisjoint => (mine.0 && other.1) || (mine.1 && other.0),
            }
        }

        fn conflicting_queued(&self, payload: &TermPayload) -> Vec<TxId> {
            let mut seen: Vec<TxId> = Vec::new();
            for (key, read, wrote) in Self::accesses(payload) {
                if let Some(bucket) = self.key_index.get(&key) {
                    for (other, oread, owrote) in bucket {
                        if *other != payload.tx
                            && self.conflicts((read, wrote), (*oread, *owrote))
                            && !seen.contains(other)
                        {
                            seen.push(*other);
                        }
                    }
                }
            }
            seen
        }

        fn index_insert(&mut self, payload: &TermPayload) {
            for (key, read, wrote) in Self::accesses(payload) {
                self.key_index
                    .entry(key)
                    .or_default()
                    .push((payload.tx, read, wrote));
            }
        }

        /// `index_remove` up to the wake loop, which the driver runs.
        fn index_remove(&mut self, tx: TxId, payload: &TermPayload) -> Vec<TxId> {
            let keys = payload
                .rs
                .iter()
                .map(|e| e.key)
                .chain(payload.ws.iter().map(|w| w.key));
            for key in keys {
                if let Some(bucket) = self.key_index.get_mut(&key) {
                    bucket.retain(|(t, _, _)| *t != tx);
                    if bucket.is_empty() {
                        self.key_index.remove(&key);
                    }
                }
            }
            self.waiters.remove(&tx).unwrap_or_default()
        }

        /// Group-communication delivery; returns the blockers.
        fn deliver(&mut self, payload: &TermPayload) -> Vec<TxId> {
            let blockers = self.conflicting_queued(payload);
            self.blocked_by.insert(payload.tx, blockers.len());
            self.q.push_back(payload.tx);
            self.index_insert(payload);
            for b in &blockers {
                self.waiters.entry(*b).or_default().push(payload.tx);
            }
            blockers
        }

        /// One step of the old wake loop.
        fn unblock(&mut self, w: TxId) -> Option<TxId> {
            let b = self.blocked_by.get_mut(&w)?;
            *b = b.saturating_sub(1);
            (*b == 0).then_some(w)
        }
    }

    /// Whether the driver "decides" `tx` as soon as its vote is cast —
    /// standing in for a vote that completes the quorum, which is what
    /// makes `process_queue` re-enter from inside the wake loop.
    fn decides_on_vote(tx: TxId) -> bool {
        !tx.seq().is_multiple_of(3)
    }

    /// `process_queue` over the reference: pops decided heads, wakes
    /// waiters one by one, and re-enters when a woken vote decides.
    fn drain_reference(
        r: &mut Reference,
        payloads: &BTreeMap<TxId, TermPayload>,
        decided: &mut BTreeSet<TxId>,
        wakes: &mut Vec<TxId>,
    ) {
        while let Some(&head) = r.q.front() {
            if !decided.contains(&head) {
                break;
            }
            r.q.pop_front();
            for w in r.index_remove(head, &payloads[&head]) {
                if let Some(tx) = r.unblock(w) {
                    wakes.push(tx);
                    if decides_on_vote(tx) {
                        decided.insert(tx);
                        drain_reference(r, payloads, decided, wakes);
                    }
                }
            }
            r.blocked_by.remove(&head);
        }
    }

    /// The same over the certifier, shaped like `Replica::process_queue`.
    /// Every `leave`, nested ones included, must return the reference's
    /// wait edges of the leaving transaction (`waiters`, as they stood
    /// before the reference drained) as tickets, in delivery order.
    fn drain_certifier(
        c: &mut Certifier,
        payloads: &BTreeMap<TxId, TermPayload>,
        tickets: &BTreeMap<TxId, Ticket>,
        waiters: &BTreeMap<TxId, Vec<TxId>>,
        decided: &mut BTreeSet<TxId>,
        wakes: &mut Vec<TxId>,
    ) {
        while let Some(head) = c.front() {
            if !decided.contains(&head) {
                break;
            }
            let left = leave(c, tickets[&head], &payloads[&head]);
            let expected: Vec<Ticket> = waiters
                .get(&head)
                .map_or(Vec::new(), |ws| ws.iter().map(|w| tickets[w]).collect());
            assert_eq!(left, expected, "waiters of {head}");
            for w in left {
                if let Some(tx) = c.unblock(w) {
                    wakes.push(tx);
                    if decides_on_vote(tx) {
                        decided.insert(tx);
                        drain_certifier(c, payloads, tickets, waiters, decided, wakes);
                    }
                }
            }
        }
    }

    #[test]
    fn fifo_matches_the_all_pairs_reference() {
        for commute in RULES {
            for seed in 0..20u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut reference = Reference::new(commute);
                let mut certifier = Certifier::new(commute, true);
                let mut payloads = BTreeMap::new();
                let mut tickets = BTreeMap::new();
                let (mut decided_r, mut decided_c) = (BTreeSet::new(), BTreeSet::new());
                let (mut wakes_r, mut wakes_c) = (Vec::new(), Vec::new());
                let mut undecided: Vec<TxId> = Vec::new();
                let mut next_seq = 0;
                for step in 0..400 {
                    // Deliveries outpace decisions at first, so the queue
                    // grows deep, then drains.
                    if next_seq < 150 && rng.gen_bool(if step < 150 { 0.7 } else { 0.3 }) {
                        let p = random_payload(&mut rng, next_seq);
                        next_seq += 1;
                        let expected = reference.deliver(&p);
                        let got = certifier.enqueue(&p);
                        assert_eq!(got.conflict, !expected.is_empty());
                        assert_eq!(certifier.is_blocked(got.ticket), !expected.is_empty());
                        tickets.insert(p.tx, got.ticket);
                        undecided.push(p.tx);
                        payloads.insert(p.tx, p);
                    } else if !undecided.is_empty() {
                        // Decisions arrive out of delivery order.
                        let tx = undecided.swap_remove(rng.gen_range(0..undecided.len()));
                        decided_r.insert(tx);
                        decided_c.insert(tx);
                    }
                    let waiters = reference.waiters.clone();
                    drain_reference(&mut reference, &payloads, &mut decided_r, &mut wakes_r);
                    drain_certifier(
                        &mut certifier,
                        &payloads,
                        &tickets,
                        &waiters,
                        &mut decided_c,
                        &mut wakes_c,
                    );
                    assert_eq!(wakes_c, wakes_r, "{commute:?} seed {seed} step {step}");
                    assert!(certifier.queued().eq(reference.q.iter().copied()));
                }
                for tx in undecided {
                    decided_r.insert(tx);
                    decided_c.insert(tx);
                }
                let waiters = reference.waiters.clone();
                drain_reference(&mut reference, &payloads, &mut decided_r, &mut wakes_r);
                drain_certifier(
                    &mut certifier,
                    &payloads,
                    &tickets,
                    &waiters,
                    &mut decided_c,
                    &mut wakes_c,
                );
                assert_eq!(wakes_c, wakes_r);
                assert!(reference.key_index.is_empty());
                assert_eq!(certifier.len(), 0);
                assert!(certifier.buckets.is_empty());
            }
        }
    }

    #[test]
    fn out_of_order_matches_the_all_pairs_reference() {
        for commute in RULES {
            for seed in 0..20u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut reference = Reference::new(commute);
                let mut certifier = Certifier::new(commute, false);
                let mut live: Vec<(Ticket, TermPayload)> = Vec::new();
                for seq in 0..300 {
                    if live.len() < 40 && rng.gen_bool(0.6) {
                        let p = random_payload(&mut rng, seq);
                        let expected = !reference.conflicting_queued(&p).is_empty();
                        reference.index_insert(&p);
                        let got = certifier.enqueue(&p);
                        assert_eq!(got.conflict, expected, "{commute:?} seed {seed}");
                        live.push((got.ticket, p));
                    } else if !live.is_empty() {
                        let (ticket, p) = live.swap_remove(rng.gen_range(0..live.len()));
                        assert!(reference.index_remove(p.tx, &p).is_empty());
                        assert!(leave(&mut certifier, ticket, &p).is_empty());
                    }
                    // The deferred-vote question, asked of registered entries.
                    for (ticket, p) in &live {
                        assert_eq!(
                            certifier.has_conflict(*ticket, p),
                            !reference.conflicting_queued(p).is_empty()
                        );
                        assert!(!certifier.is_blocked(*ticket));
                    }
                    assert_eq!(certifier.len(), 0);
                }
                for (ticket, p) in live {
                    reference.index_remove(p.tx, &p);
                    leave(&mut certifier, ticket, &p);
                }
                assert!(reference.key_index.is_empty());
                assert!(certifier.buckets.is_empty());
            }
        }
    }

    /// `t0 ← {t1, t2}` and `t1 ← t2`. Waking `t1` decides it, and the nested
    /// pop takes `t1` and then `t2` (decided by its peers' votes) out of `Q`
    /// before the outer loop reaches `t2`.
    #[test]
    fn a_waiter_that_left_during_the_wake_loop_is_skipped() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        let p0 = payload(0, &[], &[1]);
        let p1 = payload(1, &[1], &[2]);
        let p2 = payload(2, &[1, 2], &[]);
        let t0 = c.enqueue(&p0).ticket;
        let t1 = c.enqueue(&p1).ticket;
        let t2 = c.enqueue(&p2).ticket;
        let outer = leave(&mut c, t0, &p0);
        assert_eq!(outer, vec![t1, t2]);
        assert_eq!(c.unblock(t1), Some(p1.tx));
        // Nested: t1 leaves, t2 loses one of its two blockers and leaves
        // while still blocked.
        let nested = leave(&mut c, t1, &p1);
        assert_eq!(nested, vec![t2]);
        assert_eq!(c.unblock(t2), None);
        assert!(leave(&mut c, t2, &p2).is_empty());
        // Back in the outer loop, t2's ticket is below the head.
        assert_eq!(c.unblock(t2), None);
        // A later arrival reusing slot index 0 is not mistaken for it.
        let p3 = payload(3, &[], &[9]);
        let t3 = c.enqueue(&p3).ticket;
        assert_eq!(c.unblock(t2), None);
        assert!(!c.is_blocked(t3));
        leave(&mut c, t3, &p3);
        assert!(c.buckets.is_empty());
    }

    #[test]
    fn clear_keeps_pre_restart_tickets_apart() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        let p0 = payload(0, &[], &[1]);
        let p1 = payload(1, &[1], &[]);
        c.enqueue(&p0);
        let old = c.enqueue(&p1).ticket;
        assert!(c.is_blocked(old));
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.front(), None);
        // Redelivered after the restart: nothing queued conflicts, the
        // tickets are new, and the old ones address nothing.
        let again = c.enqueue(&p1);
        assert!(again.ticket > old);
        assert!(!again.conflict);
        assert!(!c.is_blocked(old));
        assert_eq!(c.unblock(old), None);
        let w = c.enqueue(&p0);
        assert!(w.conflict);
        assert_eq!(leave(&mut c, again.ticket, &p1), vec![w.ticket]);
        assert_eq!(c.unblock(w.ticket), Some(p0.tx));
    }

    #[test]
    fn a_key_read_and_written_blocks_once() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        let rmw = payload(0, &[7], &[7]);
        let t0 = c.enqueue(&rmw).ticket;
        let bucket = &c.buckets[&Key(7)];
        assert_eq!(bucket.readers, [t0]);
        assert_eq!(bucket.writers, [t0]);
        // Another read-modify-write of the key meets t0 in both deques.
        let other = payload(1, &[7], &[7]);
        let t1 = c.enqueue(&other).ticket;
        assert_eq!(c.slots[1].blocked_by, 1);
        // Recomputed from both deques at leave, t1 is still listed once.
        assert_eq!(leave(&mut c, t0, &rmw), vec![t1]);
        assert_eq!(c.unblock(t1), Some(other.tx));
    }

    /// The waiters replace what the caller's buffer held, so a buffer can
    /// be lent again without being cleared.
    #[test]
    fn leave_overwrites_a_lent_buffer() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        let p0 = payload(0, &[], &[1]);
        let p1 = payload(1, &[1], &[]);
        let t0 = c.enqueue(&p0).ticket;
        let t1 = c.enqueue(&p1).ticket;
        let mut buffer = vec![7, 7, 7];
        c.leave(t0, &p0, &mut buffer);
        assert_eq!(buffer, [t1]);
        c.unblock(t1);
        c.leave(t1, &p1, &mut buffer);
        assert!(buffer.is_empty());
    }

    /// The last tickets a `u32` holds work like any other; the delivery
    /// after them panics, naming the ticket it would have taken.
    #[test]
    #[should_panic(expected = "delivery ticket 4294967295")]
    fn a_delivery_past_the_last_ticket_panics() {
        let mut c = Certifier::starting_at(CommuteRule::ReadWriteDisjoint, true, u32::MAX - 2);
        let p0 = payload(0, &[], &[1]);
        let p1 = payload(1, &[1], &[]);
        let t0 = c.enqueue(&p0).ticket;
        let t1 = c.enqueue(&p1);
        assert_eq!((t0, t1.ticket), (u32::MAX - 2, u32::MAX - 1));
        assert!(t1.conflict);
        assert_eq!(leave(&mut c, t0, &p0), vec![t1.ticket]);
        assert_eq!(c.unblock(t1.ticket), Some(p1.tx));
        c.enqueue(&payload(2, &[], &[2]));
    }

    /// One writer, then ten thousand readers of its key: each reader has
    /// the writer as its only blocker, and the readers commute.
    #[test]
    fn a_hot_key_convoy_wakes_every_reader_once() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        let writer = payload(0, &[], &[5]);
        let w = c.enqueue(&writer).ticket;
        let readers: Vec<(Ticket, TermPayload)> = (1..=10_000)
            .map(|seq| {
                let p = payload(seq, &[5], &[]);
                let got = c.enqueue(&p);
                assert!(got.conflict);
                (got.ticket, p)
            })
            .collect();
        let waiters = leave(&mut c, w, &writer);
        assert!(waiters.iter().eq(readers.iter().map(|(t, _)| t)));
        for (t, p) in &readers {
            assert_eq!(c.unblock(*t), Some(p.tx));
            assert!(!c.is_blocked(*t));
        }
        for (t, p) in &readers {
            assert!(leave(&mut c, *t, p).is_empty());
        }
        assert_eq!(c.len(), 0);
        assert!(c.buckets.is_empty());
    }
}
