//! [`GroupComm`]: one object per replica bundling every GC engine, so the
//! middleware picks its `xcast` primitive (§5, Algorithm 2 line 15) at
//! runtime.

use std::sync::Arc;

use gdur_sim::ProcessId;

use crate::abcast::AbCastEngine;
use crate::msg::{GcEvent, GcMsg, MsgId};
use crate::skeen::SkeenEngine;

/// The `xcast` realization chosen by a protocol (Algorithm 2, line 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XcastKind {
    /// Uniform atomic broadcast to all replicas (Serrano).
    AbCast,
    /// Genuine atomic multicast to the concerned replicas (P-Store).
    AmCast,
    /// Pairwise-ordered atomic multicast (S-DUR).
    AmPwCast,
    /// Plain multicast with no ordering (2PC-based protocols, background
    /// propagation).
    Multicast,
}

impl std::fmt::Display for XcastKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            XcastKind::AbCast => "AB-Cast",
            XcastKind::AmCast => "AM-Cast",
            XcastKind::AmPwCast => "AMpw-Cast",
            XcastKind::Multicast => "M-Cast",
        };
        f.write_str(s)
    }
}

/// Per-replica group-communication endpoint.
///
/// Owns one engine per primitive; incoming [`GcMsg`]s are dispatched to the
/// engine that understands them, and every primitive reports deliveries
/// through the same [`GcEvent`] stream.
#[derive(Debug, Clone)]
pub struct GroupComm<P> {
    me: ProcessId,
    abcast: AbCastEngine<P>,
    skeen: SkeenEngine<P>,
}

impl<P: Clone> GroupComm<P> {
    /// Creates the endpoint for `me`, whose atomic-broadcast group is
    /// `all_replicas`.
    ///
    /// # Panics
    ///
    /// Panics if `all_replicas` is empty or does not contain `me`.
    pub fn new(me: ProcessId, all_replicas: impl Into<Arc<[ProcessId]>>) -> Self {
        GroupComm {
            me,
            abcast: AbCastEngine::new(me, all_replicas),
            skeen: SkeenEngine::new(me),
        }
    }

    /// This endpoint's process id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Issues `payload` through the selected primitive to `dests`.
    ///
    /// For [`XcastKind::AbCast`] the destination set is ignored: the payload
    /// is ordered across the whole replica group, as Serrano requires.
    ///
    /// Callers on the hot path should pass an `Arc<[ProcessId]>` so the
    /// per-destination fan-out shares one allocation end to end.
    pub fn xcast(
        &mut self,
        kind: XcastKind,
        dests: impl Into<Arc<[ProcessId]>>,
        payload: P,
        out: &mut Vec<GcEvent<P>>,
    ) {
        match kind {
            XcastKind::AbCast => self.abcast.broadcast(payload, out),
            XcastKind::AmCast | XcastKind::AmPwCast => {
                self.skeen.multicast(dests, payload, out);
            }
            XcastKind::Multicast => self.multicast(dests, payload, out),
        }
    }

    /// Plain (reliable in the non-faulty runs we simulate) multicast:
    /// deliver locally if addressed, send to everyone else, no ordering.
    pub fn multicast(
        &mut self,
        dests: impl Into<Arc<[ProcessId]>>,
        payload: P,
        out: &mut Vec<GcEvent<P>>,
    ) {
        for &d in dests.into().iter() {
            if d == self.me {
                out.push(GcEvent::Deliver {
                    origin: self.me,
                    payload: payload.clone(),
                });
            } else {
                out.push(GcEvent::Send {
                    to: d,
                    msg: GcMsg::Reliable {
                        payload: payload.clone(),
                    },
                });
            }
        }
    }

    /// Feeds an incoming GC wire message into the owning engine.
    pub fn on_message(&mut self, from: ProcessId, msg: GcMsg<P>, out: &mut Vec<GcEvent<P>>) {
        match msg {
            m @ (GcMsg::AbSubmit { .. } | GcMsg::AbOrdered { .. } | GcMsg::AbAck { .. }) => {
                self.abcast.on_message(from, m, out);
            }
            m @ (GcMsg::SkeenPropose { .. }
            | GcMsg::SkeenProposal { .. }
            | GcMsg::SkeenFinal { .. }) => {
                self.skeen.on_message(from, m, out);
            }
            GcMsg::Reliable { payload } => {
                out.push(GcEvent::Deliver {
                    origin: from,
                    payload,
                });
            }
        }
    }
}

/// Re-exported so protocol code can name in-flight multicast ids.
pub type MulticastId = MsgId;

#[cfg(test)]
mod tests {
    use super::*;

    fn two() -> (GroupComm<u32>, GroupComm<u32>) {
        let group = vec![ProcessId(0), ProcessId(1)];
        (
            GroupComm::new(ProcessId(0), group.clone()),
            GroupComm::new(ProcessId(1), group),
        )
    }

    #[test]
    fn reliable_multicast_delivers_locally_and_remotely() {
        let (mut a, mut b) = two();
        let mut out = Vec::new();
        a.multicast(vec![ProcessId(0), ProcessId(1)], 5, &mut out);
        let mut local = 0;
        let mut remote = Vec::new();
        for e in out {
            match e {
                GcEvent::Deliver { payload, .. } => {
                    assert_eq!(payload, 5);
                    local += 1;
                }
                GcEvent::Send { to, msg } => remote.push((to, msg)),
            }
        }
        assert_eq!(local, 1);
        assert_eq!(remote.len(), 1);
        let (to, msg) = remote.pop().expect("one send");
        assert_eq!(to, ProcessId(1));
        let mut out2 = Vec::new();
        b.on_message(ProcessId(0), msg, &mut out2);
        assert!(matches!(
            out2.as_slice(),
            [GcEvent::Deliver {
                origin: ProcessId(0),
                payload: 5
            }]
        ));
    }

    #[test]
    fn xcast_routes_by_kind() {
        let (mut a, _) = two();
        let mut out = Vec::new();
        // AB-Cast from the sequencer: ordered fan-out first, delivery once
        // the other member's uniformity ack arrives.
        a.xcast(XcastKind::AbCast, vec![], 9, &mut out);
        assert!(out.iter().any(|e| matches!(
            e,
            GcEvent::Send {
                msg: GcMsg::AbOrdered { payload: 9, .. },
                ..
            }
        )));
        out.clear();
        a.on_message(ProcessId(1), GcMsg::AbAck { seq: 0 }, &mut out);
        assert!(out
            .iter()
            .any(|e| matches!(e, GcEvent::Deliver { payload: 9, .. })));
        out.clear();
        // AM-Cast to self only also delivers locally.
        a.xcast(XcastKind::AmCast, vec![ProcessId(0)], 10, &mut out);
        assert!(out
            .iter()
            .any(|e| matches!(e, GcEvent::Deliver { payload: 10, .. })));
    }

    #[test]
    fn display_names() {
        assert_eq!(XcastKind::AbCast.to_string(), "AB-Cast");
        assert_eq!(XcastKind::AmCast.to_string(), "AM-Cast");
        assert_eq!(XcastKind::AmPwCast.to_string(), "AMpw-Cast");
        assert_eq!(XcastKind::Multicast.to_string(), "M-Cast");
    }
}
