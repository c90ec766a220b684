//! The kernel's event queue: `Copy` sixteen-byte keys in binary heaps, the
//! event bodies in a slab beside them.
//!
//! An event's key is one `u128`, `(time << 64) | (seq << 24) | slot`.
//! `seq` is unique, so the integer order of keys is the kernel's
//! `(time, seq)` order and `slot` never breaks a tie. `slot` names the
//! event's body in the slab, or — for a `Dispatch` wake-up, which has no
//! body — the process to wake. A heap sift moves 16 bytes and compares
//! one integer, and the body (an arrival's job, a fault) is written once
//! and read once.
//!
//! The keys sit in four heaps: dispatch wake-ups (a service time ahead:
//! µs), messages due within [`NEAR`] of the push instant (LAN hops and
//! self-sends), messages due later (WAN hops, scheduled faults) and timer
//! arrivals (a timeout ahead: 250 ms – 1 s). `peek` and `pop` take the
//! least of the four heads, so the split changes what a pop costs and
//! never what it returns. [`QueueStats`] reports three classes; the two
//! message heaps count as one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::actor::ProcessId;
use crate::time::{SimDuration, SimTime};

/// Traffic of one class of the kernel's event queue (see
/// [`Simulation::queue_stats`](crate::Simulation::queue_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueClassStats {
    /// Events pushed.
    pub pushed: u64,
    /// Events popped.
    pub popped: u64,
    /// Most events of this class queued at once.
    pub peak_len: u64,
}

/// Per-class traffic of the kernel's event queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// `Dispatch` wake-ups: a busy actor's next core-free instant.
    pub dispatch: QueueClassStats,
    /// Message, start and restart arrivals and scheduled faults.
    pub message: QueueClassStats,
    /// Timer arrivals, whether they fire or drain cancelled.
    pub timer: QueueClassStats,
}

/// The class of an event with a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Message, start and restart arrivals and scheduled faults.
    Message,
    /// Timer arrivals.
    Timer,
}

/// Bits of the key's `slot` field: body slots, and process ids of
/// dispatch wake-ups.
const SLOT_BITS: u32 = 24;
/// Bits of the key's `seq` field.
const SEQ_BITS: u32 = 40;
/// Messages due at most this far past the push instant go to the near
/// heap.
pub(crate) const NEAR: SimDuration = SimDuration::from_millis(1);

const HEAP_DISPATCH: usize = 0;
const HEAP_NEAR: usize = 1;
const HEAP_FAR: usize = 2;
const HEAP_TIMER: usize = 3;

/// The stats class of each heap: the near and far heaps are both messages.
const STATS_OF: [usize; 4] = [0, 1, 1, 2];

/// Packs an event key.
///
/// # Panics
///
/// Panics if `seq` or `slot` does not fit its field: a key must never wrap
/// into another event's order.
fn pack(time: SimTime, seq: u64, slot: u32) -> u128 {
    assert!(
        seq < 1 << SEQ_BITS,
        "event sequence number {seq} overflows the queue key's {SEQ_BITS}-bit field"
    );
    assert!(
        slot < 1 << SLOT_BITS,
        "event slot {slot} overflows the queue key's {SLOT_BITS}-bit field \
         (too many events in flight, or a process id past 2^{SLOT_BITS})"
    );
    u128::from(time.as_nanos()) << 64 | u128::from(seq) << SLOT_BITS | u128::from(slot)
}

/// The head of the queue: an event key and the heap it sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Head {
    heap: usize,
    key: u128,
}

impl Head {
    pub(crate) fn time(self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }

    pub(crate) fn seq(self) -> u64 {
        (self.key as u64) >> SLOT_BITS
    }

    /// The body slot, or a dispatch wake-up's process index.
    pub(crate) fn slot(self) -> u32 {
        (self.key as u32) & ((1 << SLOT_BITS) - 1)
    }

    /// The process a dispatch wake-up wakes; `None` for an event with a
    /// body.
    pub(crate) fn dispatch(self) -> Option<ProcessId> {
        (self.heap == HEAP_DISPATCH).then(|| ProcessId(self.slot()))
    }
}

/// The kernel's event queue over bodies `B` (see the module header).
pub(crate) struct EventQueue<B> {
    heaps: [BinaryHeap<Reverse<u128>>; 4],
    /// Event bodies by slot; `None` marks a free slot.
    bodies: Vec<Option<B>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    stats: [QueueClassStats; 3],
}

impl<B> EventQueue<B> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heaps: Default::default(),
            bodies: Vec::new(),
            free: Vec::new(),
            stats: [QueueClassStats::default(); 3],
        }
    }

    pub(crate) fn stats(&self) -> QueueStats {
        let [dispatch, message, timer] = self.stats;
        QueueStats {
            dispatch,
            message,
            timer,
        }
    }

    fn push_key(&mut self, heap: usize, key: u128) {
        self.heaps[heap].push(Reverse(key));
        let len = match heap {
            HEAP_NEAR | HEAP_FAR => self.heaps[HEAP_NEAR].len() + self.heaps[HEAP_FAR].len(),
            _ => self.heaps[heap].len(),
        };
        let stats = &mut self.stats[STATS_OF[heap]];
        stats.pushed += 1;
        stats.peak_len = stats.peak_len.max(len as u64);
    }

    fn body_heap(class: Class, time: SimTime, now: SimTime) -> usize {
        match class {
            Class::Timer => HEAP_TIMER,
            Class::Message if time <= now + NEAR => HEAP_NEAR,
            Class::Message => HEAP_FAR,
        }
    }

    /// Queues a body-less wake-up of `pid` at `time`.
    pub(crate) fn push_dispatch(&mut self, time: SimTime, seq: u64, pid: ProcessId) {
        self.push_key(HEAP_DISPATCH, pack(time, seq, pid.0));
    }

    /// Queues `body` at `time`; `now` is the kernel's clock, which splits
    /// near messages from far ones.
    pub(crate) fn push(&mut self, class: Class, time: SimTime, seq: u64, body: B, now: SimTime) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.bodies[slot as usize] = Some(body);
                slot
            }
            None => {
                self.bodies.push(Some(body));
                (self.bodies.len() - 1) as u32
            }
        };
        self.push_key(Self::body_heap(class, time, now), pack(time, seq, slot));
    }

    /// Queues a popped event with a body again, at `time`, with its `seq`
    /// and its body.
    pub(crate) fn requeue(&mut self, head: Head, time: SimTime, now: SimTime) {
        debug_assert!(head.dispatch().is_none(), "dispatches are never requeued");
        let class = if head.heap == HEAP_TIMER {
            Class::Timer
        } else {
            Class::Message
        };
        let key = u128::from(time.as_nanos()) << 64 | (head.key & u128::from(u64::MAX));
        self.push_key(Self::body_heap(class, time, now), key);
    }

    /// The `(time, seq)`-least event, if any is queued.
    pub(crate) fn peek(&self) -> Option<Head> {
        let mut best: Option<Head> = None;
        for (heap, keys) in self.heaps.iter().enumerate() {
            if let Some(&Reverse(key)) = keys.peek() {
                if best.is_none_or(|b| key < b.key) {
                    best = Some(Head { heap, key });
                }
            }
        }
        best
    }

    /// Removes `head`, which [`EventQueue::peek`] returned; its body stays
    /// in its slot until [`EventQueue::take`] or [`EventQueue::discard`].
    /// Like `take`, always inlined: whether the compiler inlines it into the
    /// event loop otherwise varies with unrelated code, and an outlined pop
    /// and take cost `wfq_2pc_uniform` about 4 % of its host time.
    #[inline(always)]
    pub(crate) fn pop(&mut self, head: Head) {
        let popped = self.heaps[head.heap].pop();
        debug_assert_eq!(popped, Some(Reverse(head.key)), "pop of a stale head");
        self.stats[STATS_OF[head.heap]].popped += 1;
    }

    /// The body in `slot`.
    pub(crate) fn body(&self, slot: u32) -> &B {
        self.bodies[slot as usize].as_ref().expect("live slot")
    }

    /// Moves the body out of `slot` and frees the slot.
    #[inline(always)]
    pub(crate) fn take(&mut self, slot: u32) -> B {
        let body = self.bodies[slot as usize].take().expect("live slot");
        self.free.push(slot);
        body
    }

    /// Drops the body in `slot` and frees the slot.
    pub(crate) fn discard(&mut self, slot: u32) {
        drop(self.take(slot));
    }

    /// Body slots in use.
    #[cfg(test)]
    pub(crate) fn live_bodies(&self) -> usize {
        self.bodies.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The queue against the single `(time, seq)` heap it replaced: a
    /// seeded interleaving of pushes of every class and pops, over so few
    /// distinct instants that most heads tie on time *across* heaps and
    /// only `seq` separates them. Messages land on both sides of the
    /// near/far boundary and exactly on it. Same `peek` before every pop,
    /// same pop sequence, bodies that come back as pushed, and counters
    /// that add up.
    #[test]
    fn event_queue_pops_in_the_single_heap_order() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seen = [false; 4];
        let mut now = SimTime::ZERO;
        let (mut pushes, mut pops) = (0u64, 0u64);
        for seq in 0..40_000u64 {
            // Push-heavy first, pop-heavy later, so the queue both grows
            // deep and drains empty within the run.
            let push = rng.gen_bool(if seq < 20_000 { 0.6 } else { 0.4 });
            if push {
                let ahead = match rng.gen_range(0..4u32) {
                    0 => SimDuration::ZERO,
                    1 => NEAR,
                    2 => NEAR + SimDuration::from_nanos(1),
                    _ => SimDuration::from_nanos(rng.gen_range(0..4u64) * 500_000),
                };
                let time = now + ahead;
                match rng.gen_range(0..3u32) {
                    0 => queue.push_dispatch(time, seq, ProcessId(seq as u32 % 7)),
                    1 => queue.push(Class::Timer, time, seq, seq, now),
                    _ => queue.push(Class::Message, time, seq, seq, now),
                }
                reference.push(Reverse((time, seq)));
                pushes += 1;
            } else {
                let want = reference.pop().map(|Reverse(k)| k);
                let head = queue.peek();
                assert_eq!(head.map(|h| (h.time(), h.seq())), want);
                let Some(head) = head else { continue };
                seen[head.heap] = true;
                queue.pop(head);
                match head.dispatch() {
                    Some(pid) => assert_eq!(u64::from(pid.0), head.seq() % 7),
                    None => assert_eq!(queue.take(head.slot()), head.seq()),
                }
                now = head.time();
                pops += 1;
            }
        }
        assert_eq!(seen, [true; 4], "every heap was exercised");
        let st = queue.stats;
        assert_eq!(st.iter().map(|c| c.pushed).sum::<u64>(), pushes);
        assert_eq!(st.iter().map(|c| c.popped).sum::<u64>(), pops);
        let lens = [
            queue.heaps[HEAP_DISPATCH].len(),
            queue.heaps[HEAP_NEAR].len() + queue.heaps[HEAP_FAR].len(),
            queue.heaps[HEAP_TIMER].len(),
        ];
        for (class, len) in lens.into_iter().enumerate() {
            let len = len as u64;
            assert_eq!(st[class].pushed - st[class].popped, len, "class {class}");
            assert!(st[class].peak_len >= len);
            assert!(st[class].peak_len <= st[class].pushed);
        }
        assert_eq!(
            queue.live_bodies(),
            lens[1] + lens[2],
            "one live body per queued message or timer"
        );
        while let Some(Reverse(want)) = reference.pop() {
            let head = queue.peek().expect("queued");
            assert_eq!((head.time(), head.seq()), want);
            queue.pop(head);
            if head.dispatch().is_none() {
                queue.discard(head.slot());
            }
        }
        assert!(queue.peek().is_none());
        assert_eq!(queue.live_bodies(), 0);
    }

    /// A requeued event keeps its seq and its body and moves to its new
    /// instant, which may cross from the near heap to the far one.
    #[test]
    fn requeue_keeps_seq_and_body() {
        let mut queue: EventQueue<&str> = EventQueue::new();
        let now = SimTime::ZERO;
        queue.push(Class::Message, now, 0, "a", now);
        queue.push(Class::Message, now + NEAR, 1, "b", now);
        let head = queue.peek().expect("queued");
        queue.pop(head);
        let later = SimTime::from_nanos(5_000_000);
        queue.requeue(head, later, now);
        let head = queue.peek().expect("queued");
        assert_eq!((head.seq(), *queue.body(head.slot())), (1, "b"));
        queue.pop(head);
        let head = queue.peek().expect("queued");
        assert_eq!((head.time(), head.seq()), (later, 0));
        assert_eq!(queue.take(head.slot()), "a");
        assert_eq!(queue.stats().message.pushed, 3);
    }

    #[test]
    #[should_panic(expected = "event sequence number")]
    fn a_seq_past_its_field_panics() {
        let mut queue: EventQueue<()> = EventQueue::new();
        queue.push(
            Class::Message,
            SimTime::ZERO,
            1 << SEQ_BITS,
            (),
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "event slot")]
    fn a_process_id_past_the_slot_field_panics() {
        let mut queue: EventQueue<()> = EventQueue::new();
        queue.push_dispatch(SimTime::ZERO, 0, ProcessId(1 << SLOT_BITS));
    }

    #[test]
    fn the_largest_fields_pack_and_unpack() {
        let time = SimTime::from_nanos(u64::MAX);
        let seq = (1 << SEQ_BITS) - 1;
        let slot = (1 << SLOT_BITS) - 1;
        let head = Head {
            heap: HEAP_DISPATCH,
            key: pack(time, seq, slot),
        };
        assert_eq!((head.time(), head.seq(), head.slot()), (time, seq, slot));
    }
}
