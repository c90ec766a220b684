//! Fixed-sequencer *uniform* atomic broadcast (AB-Cast).
//!
//! Every broadcast is forwarded to a distinguished *sequencer* process that
//! assigns consecutive sequence numbers and fans the payload out to the
//! whole group. Because the protocols built on AB-Cast certify at delivery
//! (Serrano decides locally with no voting), delivery must be *uniform*:
//! a message is delivered only once a majority of the group has
//! acknowledged its ordered position, so no minority can deliver something
//! the rest never learns. This costs one extra message delay and `O(n²)`
//! acknowledgments per broadcast — the WAN price of non-genuine,
//! broadcast-based commitment that §8.2 measures against S-DUR's multicast.
//!
//! Serrano's SI protocol (§6.3) uses AB-Cast to order update transactions
//! across *all* replicas.
//!
//! A member that loses its engine state cannot re-enter the order: the
//! sequencer never retransmits, so the gap below the first sequence number
//! the member observes afterwards never fills. There is no rejoin; a
//! restart is refused one layer up (`ProtocolSpec::recovery_support`).

use std::collections::BTreeMap;
use std::sync::Arc;

use gdur_sim::ProcessId;

use crate::msg::{GcEvent, GcMsg};

/// Per-process engine state of the fixed-sequencer uniform atomic
/// broadcast.
#[derive(Debug, Clone)]
pub struct AbCastEngine<P> {
    me: ProcessId,
    /// Shared group membership: fan-out loops clone the `Arc`, not the
    /// member list.
    group: Arc<[ProcessId]>,
    /// Sequencer = the lowest-id process of the group.
    sequencer: ProcessId,
    /// Next sequence number to assign (meaningful at the sequencer only).
    next_assign: u64,
    /// Next sequence number to deliver locally.
    next_deliver: u64,
    /// Out-of-order buffer: seq → (origin, payload).
    buffered: BTreeMap<u64, (ProcessId, P)>,
    /// Uniformity acks per sequence (self-ack included).
    acks: BTreeMap<u64, usize>,
}

impl<P: Clone> AbCastEngine<P> {
    /// Creates the engine for process `me` within `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty or does not contain `me`.
    pub fn new(me: ProcessId, group: impl Into<Arc<[ProcessId]>>) -> Self {
        let group = group.into();
        assert!(!group.is_empty(), "group must be nonempty");
        assert!(group.contains(&me), "process must belong to its group");
        let sequencer = *group.iter().min().expect("nonempty");
        AbCastEngine {
            me,
            group,
            sequencer,
            next_assign: 0,
            next_deliver: 0,
            buffered: BTreeMap::new(),
            acks: BTreeMap::new(),
        }
    }

    /// The group this engine broadcasts within.
    pub fn group(&self) -> &[ProcessId] {
        &self.group
    }

    /// The current sequencer.
    pub fn sequencer(&self) -> ProcessId {
        self.sequencer
    }

    fn majority(&self) -> usize {
        self.group.len() / 2 + 1
    }

    /// Atomically broadcasts `payload` to the whole group.
    pub fn broadcast(&mut self, payload: P, out: &mut Vec<GcEvent<P>>) {
        if self.me == self.sequencer {
            self.assign_and_fanout(self.me, payload, out);
        } else {
            out.push(GcEvent::Send {
                to: self.sequencer,
                msg: GcMsg::AbSubmit { payload },
            });
        }
    }

    /// Feeds an AB-Cast wire message into the engine. Returns `true` if the
    /// message belonged to this engine.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: GcMsg<P>,
        out: &mut Vec<GcEvent<P>>,
    ) -> bool {
        match msg {
            GcMsg::AbSubmit { payload } => {
                debug_assert_eq!(self.me, self.sequencer, "submit reached a non-sequencer");
                self.assign_and_fanout(from, payload, out);
                true
            }
            GcMsg::AbOrdered {
                seq,
                origin,
                payload,
            } => {
                self.buffered.insert(seq, (origin, payload));
                // Acknowledge to every other member (the sequencer needs
                // member acks for its own uniform delivery).
                let group = self.group.clone();
                for &p in group.iter() {
                    if p != self.me {
                        out.push(GcEvent::Send {
                            to: p,
                            msg: GcMsg::AbAck { seq },
                        });
                    }
                }
                self.bump_ack(seq); // self-ack
                self.bump_ack(seq); // the sequencer's implicit ack
                self.drain_in_order(out);
                true
            }
            GcMsg::AbAck { seq } => {
                self.bump_ack(seq);
                self.drain_in_order(out);
                true
            }
            _ => false,
        }
    }

    fn bump_ack(&mut self, seq: u64) {
        *self.acks.entry(seq).or_insert(0) += 1;
    }

    fn assign_and_fanout(&mut self, origin: ProcessId, payload: P, out: &mut Vec<GcEvent<P>>) {
        let seq = self.next_assign;
        self.next_assign += 1;
        let group = self.group.clone();
        for &p in group.iter() {
            if p != self.me {
                out.push(GcEvent::Send {
                    to: p,
                    msg: GcMsg::AbOrdered {
                        seq,
                        origin,
                        payload: payload.clone(),
                    },
                });
            }
        }
        // The sequencer processes its own Ordered locally.
        self.buffered.insert(seq, (origin, payload));
        self.bump_ack(seq);
        self.drain_in_order(out);
    }

    fn drain_in_order(&mut self, out: &mut Vec<GcEvent<P>>) {
        let majority = self.majority();
        loop {
            let seq = self.next_deliver;
            let ready = self.buffered.contains_key(&seq)
                && self.acks.get(&seq).copied().unwrap_or(0) >= majority;
            if !ready {
                return;
            }
            let (origin, payload) = self.buffered.remove(&seq).expect("checked");
            self.acks.remove(&seq);
            self.next_deliver += 1;
            out.push(GcEvent::Deliver { origin, payload });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group3() -> Vec<ProcessId> {
        vec![ProcessId(0), ProcessId(1), ProcessId(2)]
    }

    fn deliveries<P: Clone>(out: &[GcEvent<P>]) -> Vec<P> {
        out.iter()
            .filter_map(|e| match e {
                GcEvent::Deliver { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .collect()
    }

    fn sends<P: Clone>(out: Vec<GcEvent<P>>) -> Vec<(ProcessId, GcMsg<P>)> {
        out.into_iter()
            .filter_map(|e| match e {
                GcEvent::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sequencer_is_min_process() {
        let e: AbCastEngine<u32> = AbCastEngine::new(ProcessId(2), group3());
        assert_eq!(e.sequencer(), ProcessId(0));
    }

    #[test]
    fn non_sequencer_forwards_to_sequencer() {
        let mut e: AbCastEngine<u32> = AbCastEngine::new(ProcessId(1), group3());
        let mut out = Vec::new();
        e.broadcast(7, &mut out);
        let s = sends(out);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, ProcessId(0));
        assert!(matches!(s[0].1, GcMsg::AbSubmit { payload: 7 }));
    }

    #[test]
    fn delivery_waits_for_majority_acks() {
        let mut e: AbCastEngine<u32> = AbCastEngine::new(ProcessId(0), group3());
        let mut out = Vec::new();
        e.broadcast(7, &mut out);
        // Sequencer alone (1 ack of needed 2): not yet uniform.
        assert!(deliveries(&out).is_empty());
        assert_eq!(sends(out).len(), 2, "ordered fan-out to the two members");
        let mut out2 = Vec::new();
        e.on_message(ProcessId(1), GcMsg::AbAck { seq: 0 }, &mut out2);
        assert_eq!(deliveries(&out2), vec![7], "majority reached");
    }

    #[test]
    fn single_member_group_delivers_immediately() {
        let mut e: AbCastEngine<u32> = AbCastEngine::new(ProcessId(0), vec![ProcessId(0)]);
        let mut out = Vec::new();
        e.broadcast(3, &mut out);
        assert_eq!(deliveries(&out), vec![3]);
    }

    #[test]
    fn members_ack_and_deliver_in_seq_order() {
        let mut e: AbCastEngine<u32> = AbCastEngine::new(ProcessId(1), group3());
        let mut out = Vec::new();
        // seq 1 arrives before seq 0: buffered despite having a majority
        // (self + the sequencer's implicit ack) because of the gap.
        e.on_message(
            ProcessId(0),
            GcMsg::AbOrdered {
                seq: 1,
                origin: ProcessId(0),
                payload: 20,
            },
            &mut out,
        );
        // Member acks to both other members.
        assert_eq!(
            out.iter()
                .filter(|e| matches!(
                    e,
                    GcEvent::Send {
                        msg: GcMsg::AbAck { .. },
                        ..
                    }
                ))
                .count(),
            2
        );
        assert!(deliveries(&out).is_empty(), "gap at seq 0");
        // The gap fills: both deliver in order (majority = self + sequencer).
        e.on_message(
            ProcessId(0),
            GcMsg::AbOrdered {
                seq: 0,
                origin: ProcessId(2),
                payload: 10,
            },
            &mut out,
        );
        assert_eq!(deliveries(&out), vec![10, 20]);
    }

    #[test]
    fn fresh_engine_without_rejoin_still_waits_for_gap() {
        let mut e: AbCastEngine<u32> = AbCastEngine::new(ProcessId(1), group3());
        let mut out = Vec::new();
        e.on_message(
            ProcessId(0),
            GcMsg::AbOrdered {
                seq: 5,
                origin: ProcessId(0),
                payload: 50,
            },
            &mut out,
        );
        assert!(
            deliveries(&out).is_empty(),
            "a gap blocks delivery: nothing retransmits it"
        );
    }

    #[test]
    fn ignores_foreign_messages() {
        let mut e: AbCastEngine<u32> = AbCastEngine::new(ProcessId(0), group3());
        let mut out = Vec::new();
        let handled = e.on_message(ProcessId(1), GcMsg::Reliable { payload: 1 }, &mut out);
        assert!(!handled);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "belong")]
    fn must_be_member() {
        let _: AbCastEngine<u32> = AbCastEngine::new(ProcessId(9), group3());
    }
}
