//! The certification queue: Algorithm 2's `Q`, the `commute` conflict index
//! over it, and — under group-communication commitment — the votes deferred
//! until every conflicting predecessor has left `Q` (Algorithm 3, line 3: the
//! convoy effect). DESIGN.md §3.2 has the design.
//!
//! Everything is addressed by dense **delivery tickets**: each delivered
//! transaction takes the next `u32`. Queue entries live in one `VecDeque`
//! indexed by `ticket - head`; a key's bucket holds its reader and writer
//! counts and latest tickets. With `fifo` (group communication) `Q` is left
//! in delivery order, so a transaction is free exactly when its latest
//! blocker leaves: it waits on that one slot's list, and no call walks
//! another transaction's tickets. Without it (2PC, Paxos Commit) transactions
//! leave in any order, nobody waits, and a conflict — a relevant count above
//! zero — only turns the vote negative.

use std::collections::VecDeque;
use std::mem::{needs_drop, size_of};

use gdur_sim::IdMap;
use gdur_store::{Key, TxId};

use crate::messages::TermPayload;
use crate::spec::CommuteRule;

/// Position of a transaction in this replica's delivery order. A replica
/// delivers fewer than 2³² payloads in its lifetime; [`Certifier::enqueue`]
/// panics past that.
pub(crate) type Ticket = u32;

/// No ticket: the last value of a `u32` is never handed out.
const NONE: Ticket = Ticket::MAX;

/// A queued transaction (`fifo` only).
#[derive(Debug)]
struct Slot {
    tx: TxId,
    /// First entry of the list of slots whose latest blocker this is, latest
    /// first.
    waiters: Ticket,
    /// The entry after this one on its blocker's list.
    next: Ticket,
}

// One per queued transaction: under overload, the queue is deep.
const _: () = assert!(size_of::<Slot>() <= 16);

/// Registered accessors of one key. With `fifo`, a latest ticket is still
/// queued while its count is above zero, because `Q` is left oldest first.
#[derive(Debug, Default)]
struct Bucket {
    readers: u32,
    writers: u32,
    last_reader: Ticket,
    last_writer: Ticket,
}

// One per key with a registered accessor, and nothing on the heap.
const _: () = assert!(size_of::<Bucket>() <= 16 && !needs_drop::<Bucket>());

/// A wake loop in progress: the waiters of one leaving transaction.
#[derive(Debug, Default)]
struct WakeLoop {
    /// The leaving transaction's footprint (see `Certifier::footprint`).
    footprint: Vec<(Key, bool, bool)>,
    /// The waiters not reached yet, its wait list and those deferred into it
    /// by nested loops, descending: the next is the last.
    waiters: Vec<Ticket>,
    /// The waiter reached last (the leaving ticket before the first).
    at: Ticket,
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
    /// The active wake loops, innermost last, are `loops[..depth]`; the rest
    /// keep their buffers for the next.
    loops: Vec<WakeLoop>,
    depth: usize,
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
            loops: Vec::new(),
            depth: 0,
        }
    }

    /// Number of queued transactions (always 0 without `fifo`).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
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

    /// Fills `self.footprint` from `payload`: reads first, then writes.
    fn load_footprint(&mut self, payload: &TermPayload) {
        let reads = payload.rs.iter().map(|r| (r.key, true));
        let writes = payload.ws.iter().map(|w| (w.key, false));
        self.footprint.clear();
        for (key, read) in reads.chain(writes) {
            let looked_at = match self.commute {
                CommuteRule::Always => false,
                CommuteRule::WriteWriteDisjoint => !read,
                CommuteRule::ReadWriteDisjoint => true,
            };
            if !looked_at {
                continue;
            }
            match self.footprint.iter_mut().find(|e| e.0 == key) {
                Some(e) => (e.1, e.2) = (e.1 | read, e.2 | !read),
                None => self.footprint.push((key, read, !read)),
            }
        }
    }

    /// Which accessors of a key an access must not overlap: (readers,
    /// writers).
    fn scans(commute: CommuteRule, read: bool, wrote: bool) -> (bool, bool) {
        match commute {
            CommuteRule::Always => (false, false),
            CommuteRule::WriteWriteDisjoint => (false, wrote),
            CommuteRule::ReadWriteDisjoint => (wrote, read),
        }
    }

    /// Delivers `payload`: takes the next ticket, finds whether a registered
    /// transaction does not commute with it, and registers it. With `fifo` it
    /// is appended to `Q` and linked onto the wait list of its latest
    /// blocker.
    pub(crate) fn enqueue(&mut self, payload: &TermPayload) -> Enqueued {
        let ticket = self.next;
        self.next = ticket.checked_add(1).unwrap_or_else(|| {
            panic!("delivery ticket {ticket} is the last a u32 holds: too many deliveries")
        });
        self.load_footprint(payload);
        let mut blocker = None;
        for &(key, read, wrote) in &self.footprint {
            let b = self.buckets.get_or_insert_with(key, Bucket::default);
            let (scan_readers, scan_writers) = Self::scans(self.commute, read, wrote);
            if scan_readers && b.readers > 0 {
                blocker = blocker.max(Some(b.last_reader));
            }
            if scan_writers && b.writers > 0 {
                blocker = blocker.max(Some(b.last_writer));
            }
            if read {
                (b.readers, b.last_reader) = (b.readers + 1, ticket);
            }
            if wrote {
                (b.writers, b.last_writer) = (b.writers + 1, ticket);
            }
        }
        if self.fifo {
            let next = match blocker {
                Some(b) => {
                    std::mem::replace(&mut self.slots[(b - self.head) as usize].waiters, ticket)
                }
                None => NONE,
            };
            let tx = payload.tx;
            self.slots.push_back(Slot {
                tx,
                waiters: NONE,
                next,
            });
        }
        let conflict = blocker.is_some();
        Enqueued { ticket, conflict }
    }

    /// True if a registered transaction other than the one whose payload
    /// this is (registered itself) does not commute with it.
    pub(crate) fn has_conflict(&mut self, payload: &TermPayload) -> bool {
        self.load_footprint(payload);
        self.footprint.iter().any(|&(key, read, wrote)| {
            let b = &self.buckets[&key];
            let (scan_readers, scan_writers) = Self::scans(self.commute, read, wrote);
            (scan_readers && b.readers > u32::from(read))
                || (scan_writers && b.writers > u32::from(wrote))
        })
    }

    /// `ticket` (whose payload this is) terminated: drops it from the index
    /// and, with `fifo`, from the head of `Q`, and starts the wake loop of its
    /// wait list. Call [`Certifier::next_vote`] until it returns `None`,
    /// casting each vote it returns before asking for the next: that vote may
    /// terminate further queue entries, each with a nested loop of its own.
    pub(crate) fn leave(&mut self, ticket: Ticket, payload: &TermPayload) {
        self.load_footprint(payload);
        for &(key, read, wrote) in &self.footprint {
            let b = self
                .buckets
                .get_mut(&key)
                .expect("a registered transaction is in the bucket of each key it accessed");
            b.readers -= u32::from(read);
            b.writers -= u32::from(wrote);
            if b.readers == 0 && b.writers == 0 {
                self.buckets.remove(&key);
            }
        }
        if !self.fifo {
            return;
        }
        assert_eq!(ticket, self.head, "Q is left in delivery order");
        let mut w = self.slots.pop_front().expect("the head is queued").waiters;
        self.head += 1;
        if self.depth == self.loops.len() {
            self.loops.push(WakeLoop::default());
        }
        let l = &mut self.loops[self.depth];
        self.depth += 1;
        l.at = ticket;
        l.waiters.clear();
        l.footprint.clone_from(&self.footprint);
        while w != NONE {
            l.waiters.push(w);
            w = self.slots[(w - self.head) as usize].next;
        }
    }

    /// The next vote of the innermost wake loop, or `None` once that loop is
    /// done (it is then gone); waiters that left `Q` meanwhile are skipped.
    /// The order is a count's: a waiter that an enclosing loop still below it
    /// does not commute with is deferred into the outermost such loop, where
    /// its last decrement would have come from. That is exact because no
    /// delivery happens inside a wake loop, so the waiter was on the count
    /// list of every enclosing loop it does not commute with. `payload` maps
    /// a queued transaction to its payload.
    pub(crate) fn next_vote<'p>(
        &mut self,
        payload: impl Fn(TxId) -> &'p TermPayload,
    ) -> Option<TxId> {
        loop {
            let top = self.depth.checked_sub(1)?;
            let l = &mut self.loops[top];
            let Some(x) = l.waiters.pop() else {
                self.depth = top;
                return None;
            };
            l.at = x;
            let Some(tx) = x
                .checked_sub(self.head)
                .and_then(|i| self.slots.get(i as usize))
                .map(|s| s.tx)
            else {
                continue;
            };
            if self.loops[..top].iter().any(|e| e.at < x) {
                self.load_footprint(payload(tx));
                let (commute, fp) = (self.commute, &self.footprint);
                let outer = self.loops[..top]
                    .iter_mut()
                    .find(|e| e.at < x && Self::overlap(commute, &e.footprint, fp));
                if let Some(e) = outer {
                    let i = e.waiters.partition_point(|&w| w > x);
                    e.waiters.insert(i, x);
                    continue;
                }
            }
            return Some(tx);
        }
    }

    /// True if two footprints do not commute.
    fn overlap(commute: CommuteRule, a: &[(Key, bool, bool)], b: &[(Key, bool, bool)]) -> bool {
        a.iter().any(|&(key, read, wrote)| {
            let (scan_readers, scan_writers) = Self::scans(commute, read, wrote);
            b.iter()
                .any(|&(k, r, w)| k == key && ((scan_readers && r) || (scan_writers && w)))
        })
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

    /// `Certifier::leave`, then the votes of a wake loop that no vote nests
    /// in.
    fn leave(c: &mut Certifier, ticket: Ticket, payload: &TermPayload) -> Vec<TxId> {
        c.leave(ticket, payload);
        std::iter::from_fn(|| c.next_vote(|_| unreachable!("no loop encloses this one"))).collect()
    }

    /// `Certifier::next_vote` over the queued `payloads`.
    fn next_vote(c: &mut Certifier, payloads: &[&TermPayload]) -> Option<TxId> {
        c.next_vote(|tx| payloads.iter().find(|p| p.tx == tx).expect("queued"))
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
    fn drain_certifier(
        c: &mut Certifier,
        payloads: &BTreeMap<TxId, TermPayload>,
        tickets: &BTreeMap<TxId, Ticket>,
        decided: &mut BTreeSet<TxId>,
        wakes: &mut Vec<TxId>,
    ) {
        while let Some(head) = c.front() {
            if !decided.contains(&head) {
                break;
            }
            c.leave(tickets[&head], &payloads[&head]);
            while let Some(tx) = c.next_vote(|tx| &payloads[&tx]) {
                wakes.push(tx);
                if decides_on_vote(tx) {
                    decided.insert(tx);
                    drain_certifier(c, payloads, tickets, decided, wakes);
                }
            }
        }
    }

    /// The votes cast, in order, nested wake loops included, are the
    /// reference's: one wait edge per transaction replays the count.
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
                        tickets.insert(p.tx, got.ticket);
                        undecided.push(p.tx);
                        payloads.insert(p.tx, p);
                    } else if !undecided.is_empty() {
                        // Decisions arrive out of delivery order.
                        let tx = undecided.swap_remove(rng.gen_range(0..undecided.len()));
                        decided_r.insert(tx);
                        decided_c.insert(tx);
                    }
                    drain_reference(&mut reference, &payloads, &mut decided_r, &mut wakes_r);
                    drain_certifier(
                        &mut certifier,
                        &payloads,
                        &tickets,
                        &mut decided_c,
                        &mut wakes_c,
                    );
                    assert_eq!(wakes_c, wakes_r, "{commute:?} seed {seed} step {step}");
                    assert!(certifier
                        .slots
                        .iter()
                        .map(|s| s.tx)
                        .eq(reference.q.iter().copied()));
                }
                for tx in undecided {
                    decided_r.insert(tx);
                    decided_c.insert(tx);
                }
                drain_reference(&mut reference, &payloads, &mut decided_r, &mut wakes_r);
                drain_certifier(
                    &mut certifier,
                    &payloads,
                    &tickets,
                    &mut decided_c,
                    &mut wakes_c,
                );
                assert_eq!(wakes_c, wakes_r);
                assert!(reference.key_index.is_empty());
                assert_eq!(certifier.len(), 0);
                assert!(certifier.buckets.is_empty());
                assert_eq!(certifier.depth, 0);
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
                    for (_, p) in &live {
                        assert_eq!(
                            certifier.has_conflict(p),
                            !reference.conflicting_queued(p).is_empty()
                        );
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

    /// `t0 ← {t1, t2}`, `t1 ← {t2, t3}`; `t1` is `t2`'s and `t3`'s latest
    /// blocker. Voting `t1` decides it, and its nested pop leaves before
    /// `t0`'s loop reaches `t2`: `t0` still owes `t2` a decrement, so `t2`
    /// votes in `t0`'s loop. `t0` commutes with `t3`, which votes at once.
    #[test]
    fn a_waiter_freed_inside_an_outer_loop_votes_there() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        let p0 = payload(0, &[], &[1]);
        let p1 = payload(1, &[1], &[2]);
        let p2 = payload(2, &[1, 2], &[]);
        let p3 = payload(3, &[2], &[]);
        let all = [&p0, &p1, &p2, &p3];
        let t: Vec<Ticket> = all.iter().map(|p| c.enqueue(p).ticket).collect();
        c.leave(t[0], &p0);
        assert_eq!(next_vote(&mut c, &all), Some(p1.tx));
        c.leave(t[1], &p1);
        assert_eq!(next_vote(&mut c, &all), Some(p3.tx));
        assert_eq!(next_vote(&mut c, &all), None);
        assert_eq!(next_vote(&mut c, &all), Some(p2.tx));
        assert_eq!(next_vote(&mut c, &all), None);
        assert_eq!(c.depth, 0);
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
        let all = [&p0, &p1, &p2];
        let t: Vec<Ticket> = all.iter().map(|p| c.enqueue(p).ticket).collect();
        c.leave(t[0], &p0);
        assert_eq!(next_vote(&mut c, &all), Some(p1.tx));
        // Nested: t1 leaves; t2, deferred into the outer loop, leaves
        // unvoted.
        c.leave(t[1], &p1);
        assert_eq!(next_vote(&mut c, &all), None);
        assert!(leave(&mut c, t[2], &p2).is_empty());
        // Back in the outer loop, t2's ticket is below the head.
        assert_eq!(next_vote(&mut c, &all), None);
        // A later arrival reusing slot index 0 is not mistaken for it.
        let p3 = payload(3, &[], &[9]);
        let t3 = c.enqueue(&p3);
        assert!(!t3.conflict);
        assert!(leave(&mut c, t3.ticket, &p3).is_empty());
        assert!(c.buckets.is_empty());
    }

    #[test]
    fn clear_keeps_pre_restart_tickets_apart() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        let p0 = payload(0, &[], &[1]);
        let p1 = payload(1, &[1], &[]);
        c.enqueue(&p0);
        let old = c.enqueue(&p1);
        assert!(old.conflict);
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.front(), None);
        // Redelivered after the restart: nothing queued conflicts, and the
        // tickets are new.
        let again = c.enqueue(&p1);
        assert!(again.ticket > old.ticket);
        assert!(!again.conflict);
        let w = c.enqueue(&p0);
        assert!(w.conflict);
        assert_eq!(leave(&mut c, again.ticket, &p1), vec![p0.tx]);
    }

    #[test]
    fn a_key_read_and_written_blocks_once() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        let rmw = payload(0, &[7], &[7]);
        let t0 = c.enqueue(&rmw).ticket;
        let b = &c.buckets[&Key(7)];
        assert_eq!(
            (b.readers, b.writers, b.last_reader, b.last_writer),
            (1, 1, t0, t0)
        );
        // Another read-modify-write of the key meets t0 as reader and as
        // writer, and is linked onto its wait list once.
        let other = payload(1, &[7], &[7]);
        let t1 = c.enqueue(&other).ticket;
        assert_eq!((c.slots[0].waiters, c.slots[1].next), (t1, NONE));
        assert_eq!(leave(&mut c, t0, &rmw), vec![other.tx]);
    }

    /// A finished wake loop's buffers serve the next one, which starts with
    /// its own waiters only.
    #[test]
    fn a_finished_wake_loop_leaves_nothing_behind() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        let p0 = payload(0, &[], &[1]);
        let p1 = payload(1, &[1], &[]);
        let t0 = c.enqueue(&p0).ticket;
        let t1 = c.enqueue(&p1).ticket;
        assert_eq!(leave(&mut c, t0, &p0), [p1.tx]);
        assert!(leave(&mut c, t1, &p1).is_empty());
        assert_eq!((c.loops.len(), c.depth), (1, 0));
    }

    /// The last tickets a `u32` holds work like any other; the delivery
    /// after them panics, naming the ticket it would have taken.
    #[test]
    #[should_panic(expected = "delivery ticket 4294967295")]
    fn a_delivery_past_the_last_ticket_panics() {
        let mut c = Certifier::new(CommuteRule::ReadWriteDisjoint, true);
        (c.head, c.next) = (u32::MAX - 2, u32::MAX - 2);
        let p0 = payload(0, &[], &[1]);
        let p1 = payload(1, &[1], &[]);
        let t0 = c.enqueue(&p0).ticket;
        let t1 = c.enqueue(&p1);
        assert_eq!((t0, t1.ticket), (u32::MAX - 2, u32::MAX - 1));
        assert!(t1.conflict);
        assert_eq!(leave(&mut c, t0, &p0), vec![p1.tx]);
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
        let votes = leave(&mut c, w, &writer);
        assert!(votes.iter().eq(readers.iter().map(|(_, p)| &p.tx)));
        for (t, p) in &readers {
            assert!(leave(&mut c, *t, p).is_empty());
        }
        assert_eq!(c.len(), 0);
        assert!(c.buckets.is_empty());
    }
}
