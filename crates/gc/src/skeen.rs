//! Skeen-style genuine atomic multicast (AM-Cast / AMpw-Cast).
//!
//! Skeen's algorithm orders a message addressed to an arbitrary destination
//! group using logical clocks, involving **only** the sender and the
//! destinations — the *genuineness* property (footnote 1 of the paper) that
//! P-Store and Jessy rely on for scalability:
//!
//! 1. the sender transmits the payload to every destination (`Propose`);
//! 2. each destination bumps its logical clock, buffers the message with a
//!    *proposed* timestamp `(clock, pid)` and answers the sender
//!    (`Proposal`);
//! 3. the sender takes the maximum proposal as the *final* timestamp and
//!    announces it (`Final`);
//! 4. destinations deliver messages in final-timestamp order, a message
//!    becoming deliverable once its timestamp is smaller than the proposed
//!    or final timestamp of every other buffered message.
//!
//! Messages addressed to intersecting destination groups are delivered in
//! the same relative order at every common destination (pairwise ordering,
//! which for Skeen is in fact a total order on the intersection). S-DUR's
//! `AMpw-Cast` is this same engine; the fault-tolerant `AM-Cast` of the
//! paper costs more message delays, a difference the termination-protocol
//! comparison of §8.5 measures end to end (Skeen's three delays versus
//! 2PC's two are what make 2PC faster in the disaster-prone setting).

use std::collections::BTreeSet;
use std::sync::Arc;

use gdur_sim::{IdMap, ProcessId};

use crate::msg::{GcEvent, GcMsg, MsgId, SkeenTs};

#[derive(Debug, Clone)]
struct PendingMsg<P> {
    origin: ProcessId,
    payload: P,
    ts: SkeenTs,
    finalized: bool,
}

#[derive(Debug, Clone)]
struct SenderState {
    /// Shared with every in-flight `SkeenPropose` of this message.
    dests: Arc<[ProcessId]>,
    best: SkeenTs,
    awaiting: usize,
}

/// Per-process engine state for Skeen's atomic multicast.
#[derive(Debug, Clone)]
pub struct SkeenEngine<P> {
    me: ProcessId,
    clock: u64,
    next_seq: u64,
    /// Messages this process multicast and is collecting proposals for.
    sending: IdMap<MsgId, SenderState>,
    /// Messages buffered here as a destination, awaiting final order.
    pending: IdMap<MsgId, PendingMsg<P>>,
    /// Delivery-order mirror of `pending`, keyed by `(timestamp, id)` —
    /// the proposed timestamp while a message awaits its final one. Lets
    /// `try_deliver` peek the head in `O(log n)` instead of scanning every
    /// buffered message on each finalization.
    order: BTreeSet<(SkeenTs, MsgId)>,
}

impl<P: Clone> SkeenEngine<P> {
    /// Creates the engine for process `me`.
    pub fn new(me: ProcessId) -> Self {
        SkeenEngine {
            me,
            clock: 0,
            next_seq: 0,
            sending: IdMap::new(),
            pending: IdMap::new(),
            order: BTreeSet::new(),
        }
    }

    /// Atomically multicasts `payload` to `dests` (which may or may not
    /// include the sender). Returns the message id.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty or contains duplicates.
    pub fn multicast(
        &mut self,
        dests: impl Into<Arc<[ProcessId]>>,
        payload: P,
        out: &mut Vec<GcEvent<P>>,
    ) -> MsgId {
        let dests: Arc<[ProcessId]> = dests.into();
        assert!(
            !dests.is_empty(),
            "multicast needs at least one destination"
        );
        let mut sorted = dests.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), dests.len(), "duplicate destinations");

        let mid = MsgId {
            sender: self.me,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.sending.insert(
            mid,
            SenderState {
                dests: dests.clone(),
                best: SkeenTs {
                    clock: 0,
                    proposer: ProcessId(0),
                },
                awaiting: dests.len(),
            },
        );
        // Per-destination cost is two Arc bumps plus the payload's own
        // (cheap, Arc-backed) clone — O(1) in the group size.
        for &d in dests.iter() {
            if d == self.me {
                // Process the self-addressed propose inline so a sole-member
                // group needs no network round at all.
                let me = self.me;
                self.handle_propose(me, mid, dests.clone(), payload.clone(), out);
            } else {
                out.push(GcEvent::Send {
                    to: d,
                    msg: GcMsg::SkeenPropose {
                        mid,
                        dests: dests.clone(),
                        payload: payload.clone(),
                    },
                });
            }
        }
        mid
    }

    /// Feeds a Skeen wire message into the engine. Returns `true` if the
    /// message belonged to this engine.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: GcMsg<P>,
        out: &mut Vec<GcEvent<P>>,
    ) -> bool {
        match msg {
            GcMsg::SkeenPropose {
                mid,
                dests,
                payload,
            } => {
                self.handle_propose(from, mid, dests, payload, out);
                true
            }
            GcMsg::SkeenProposal { mid, ts } => {
                self.handle_proposal(mid, ts, out);
                true
            }
            GcMsg::SkeenFinal { mid, ts } => {
                self.handle_final(mid, ts, out);
                true
            }
            _ => false,
        }
    }

    fn handle_propose(
        &mut self,
        origin: ProcessId,
        mid: MsgId,
        _dests: Arc<[ProcessId]>,
        payload: P,
        out: &mut Vec<GcEvent<P>>,
    ) {
        self.clock += 1;
        let ts = SkeenTs {
            clock: self.clock,
            proposer: self.me,
        };
        let _ = origin; // the true origin is the multicast sender
        if let Some(old) = self.pending.insert(
            mid,
            PendingMsg {
                origin: mid.sender,
                payload,
                ts,
                finalized: false,
            },
        ) {
            self.order.remove(&(old.ts, mid));
        }
        self.order.insert((ts, mid));
        if mid.sender == self.me {
            self.handle_proposal(mid, ts, out);
        } else {
            out.push(GcEvent::Send {
                to: mid.sender,
                msg: GcMsg::SkeenProposal { mid, ts },
            });
        }
    }

    fn handle_proposal(&mut self, mid: MsgId, ts: SkeenTs, out: &mut Vec<GcEvent<P>>) {
        let Some(state) = self.sending.get_mut(&mid) else {
            return; // duplicate or stale proposal
        };
        if ts > state.best {
            state.best = ts;
        }
        state.awaiting -= 1;
        if state.awaiting == 0 {
            let state = self.sending.remove(&mid).expect("present");
            for &d in state.dests.iter() {
                if d == self.me {
                    self.handle_final(mid, state.best, out);
                } else {
                    out.push(GcEvent::Send {
                        to: d,
                        msg: GcMsg::SkeenFinal {
                            mid,
                            ts: state.best,
                        },
                    });
                }
            }
        }
    }

    fn handle_final(&mut self, mid: MsgId, ts: SkeenTs, out: &mut Vec<GcEvent<P>>) {
        // Advance the clock past the decided timestamp so any later proposal
        // here is ordered after it.
        self.clock = self.clock.max(ts.clock);
        if let Some(p) = self.pending.get_mut(&mid) {
            self.order.remove(&(p.ts, mid));
            p.ts = ts;
            p.finalized = true;
            self.order.insert((ts, mid));
        }
        self.try_deliver(out);
    }

    /// Delivers every buffered message that is finalized and minimal among
    /// all buffered messages (comparing final timestamps for finalized ones
    /// and proposed timestamps for the rest, with the message id as a final
    /// tiebreaker for determinism — the key of the `order` index).
    fn try_deliver(&mut self, out: &mut Vec<GcEvent<P>>) {
        loop {
            let Some(&(ts, mid)) = self.order.first() else {
                return;
            };
            let head = self.pending.get(&mid).expect("order mirrors pending");
            if !head.finalized {
                return;
            }
            self.order.remove(&(ts, mid));
            let p = self.pending.remove(&mid).expect("present");
            out.push(GcEvent::Deliver {
                origin: p.origin,
                payload: p.payload,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_deliveries<P: Clone>(out: &mut Vec<GcEvent<P>>) -> Vec<P> {
        let mut res = Vec::new();
        out.retain(|e| match e {
            GcEvent::Deliver { payload, .. } => {
                res.push(payload.clone());
                false
            }
            _ => true,
        });
        res
    }

    /// Routes every Send in `out` to the destination engine, repeatedly,
    /// until quiescent. Collects deliveries per process.
    fn pump(engines: &mut [SkeenEngine<u32>], out: &mut Vec<GcEvent<u32>>, log: &mut [Vec<u32>]) {
        while let Some(ev) = out.pop() {
            match ev {
                GcEvent::Send { to, msg } => {
                    let mut o2 = Vec::new();
                    engines[to.index()].on_message(ProcessId(u32::MAX), msg, &mut o2);
                    // `from` is only meaningful for Propose, which carries
                    // the origin through the sender field of `mid`; pass a
                    // sentinel and rely on mid.sender.
                    for d in drain_deliveries(&mut o2) {
                        log[to.index()].push(d);
                    }
                    out.extend(o2);
                }
                GcEvent::Deliver { .. } => unreachable!("drained above"),
            }
        }
    }

    /// Full-stack pump that preserves the `from` process for Propose
    /// handling (origin display only; ordering is sender-id based).
    fn run(mcasts: Vec<(usize, Vec<usize>, u32)>, n: usize) -> Vec<Vec<u32>> {
        let mut engines: Vec<SkeenEngine<u32>> = (0..n)
            .map(|i| SkeenEngine::new(ProcessId(i as u32)))
            .collect();
        let mut log = vec![Vec::new(); n];
        let mut out = Vec::new();
        for (sender, dests, payload) in mcasts {
            let dests: Vec<ProcessId> = dests.into_iter().map(|d| ProcessId(d as u32)).collect();
            let mut o = Vec::new();
            engines[sender].multicast(dests, payload, &mut o);
            for d in drain_deliveries(&mut o) {
                log[sender].push(d);
            }
            out.extend(o);
            pump(&mut engines, &mut out, &mut log);
        }
        log
    }

    #[test]
    fn single_destination_delivers() {
        let log = run(vec![(0, vec![1], 42)], 2);
        assert_eq!(log[1], vec![42]);
        assert!(log[0].is_empty());
    }

    #[test]
    fn self_only_multicast_delivers_locally() {
        let log = run(vec![(0, vec![0], 7)], 1);
        assert_eq!(log[0], vec![7]);
    }

    #[test]
    fn common_destinations_agree_on_order() {
        // Two senders multicast to the overlapping groups {1,2} and {1,2}.
        let log = run(vec![(0, vec![1, 2], 100), (3, vec![1, 2], 200)], 4);
        assert_eq!(log[1].len(), 2);
        assert_eq!(log[1], log[2], "common destinations must agree");
    }

    #[test]
    fn partially_overlapping_groups_agree_on_intersection() {
        let log = run(
            vec![
                (0, vec![1, 2], 1),
                (0, vec![2, 3], 2),
                (3, vec![1, 2, 3], 3),
            ],
            4,
        );
        // p2 is in all groups; p1 sees msgs 1 and 3; p3 sees 2 and 3.
        let order2: Vec<u32> = log[2].clone();
        let pos = |v: &Vec<u32>, x: u32| v.iter().position(|&y| y == x);
        // p1's relative order of {1,3} must match p2's.
        let p1_13 = (pos(&log[1], 1).unwrap(), pos(&log[1], 3).unwrap());
        let p2_13 = (pos(&order2, 1).unwrap(), pos(&order2, 3).unwrap());
        assert_eq!(p1_13.0 < p1_13.1, p2_13.0 < p2_13.1);
        // p3's relative order of {2,3} must match p2's.
        let p3_23 = (pos(&log[3], 2).unwrap(), pos(&log[3], 3).unwrap());
        let p2_23 = (pos(&order2, 2).unwrap(), pos(&order2, 3).unwrap());
        assert_eq!(p3_23.0 < p3_23.1, p2_23.0 < p2_23.1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_destinations_rejected() {
        let mut e: SkeenEngine<u32> = SkeenEngine::new(ProcessId(0));
        let mut out = Vec::new();
        e.multicast(vec![ProcessId(1), ProcessId(1)], 1, &mut out);
    }

    #[test]
    fn pending_blocks_later_final() {
        // A destination that has proposed for m1 (not final) must not
        // deliver a finalized m2 whose timestamp exceeds m1's proposal.
        let mut d: SkeenEngine<u32> = SkeenEngine::new(ProcessId(2));
        let mut out = Vec::new();
        let m1 = MsgId {
            sender: ProcessId(0),
            seq: 0,
        };
        let m2 = MsgId {
            sender: ProcessId(1),
            seq: 0,
        };
        d.on_message(
            ProcessId(0),
            GcMsg::SkeenPropose {
                mid: m1,
                dests: vec![ProcessId(2)].into(),
                payload: 1,
            },
            &mut out,
        );
        d.on_message(
            ProcessId(1),
            GcMsg::SkeenPropose {
                mid: m2,
                dests: vec![ProcessId(2)].into(),
                payload: 2,
            },
            &mut out,
        );
        out.clear();
        // m2 finalized at clock 5 (> m1's proposal 1): still blocked by m1.
        d.on_message(
            ProcessId(1),
            GcMsg::SkeenFinal {
                mid: m2,
                ts: SkeenTs {
                    clock: 5,
                    proposer: ProcessId(2),
                },
            },
            &mut out,
        );
        assert!(out.iter().all(|e| !matches!(e, GcEvent::Deliver { .. })));
        // m1 finalized smaller: both deliver, m1 first.
        d.on_message(
            ProcessId(0),
            GcMsg::SkeenFinal {
                mid: m1,
                ts: SkeenTs {
                    clock: 2,
                    proposer: ProcessId(2),
                },
            },
            &mut out,
        );
        let delivered: Vec<u32> = out
            .iter()
            .filter_map(|e| match e {
                GcEvent::Deliver { payload, .. } => Some(*payload),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![1, 2]);
        assert!(d.pending.is_empty());
    }
}
