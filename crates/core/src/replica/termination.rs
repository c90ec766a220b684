//! The termination protocol (Algorithm 2): `certifying_obj`, `submit` and
//! the `xcast` of the transaction, `xdeliver` into the queue `Q`, and what
//! terminating a participation does — commit clocks, the visibility
//! frontier, `apply` and the installs.

use super::*;

impl Replica {
    /// True if `certifying_obj(T)` (Algorithm 2, line 11) is empty for a
    /// transaction that read `rs` and buffered `ws`: it commits without
    /// synchronization (a wait-free query), and `submit` never moves it
    /// into `coord`.
    fn commits_unsynchronized(&self, rs: &[ReadEntry], ws: &[WriteEntry]) -> bool {
        use CertifyingObjRule::*;
        let (rule, read_only) = (self.cfg.spec.certifying_obj, ws.is_empty());
        let exempt = match rule {
            Nothing => true,
            WriteSet | ReadWriteSet => false,
            WriteSetIfUpdate | ReadWriteSetIfUpdate | AllObjects => read_only,
            ReadWriteSetUnlessLocalQuery => read_only && rs.iter().all(|e| self.is_local(e.key)),
        };
        exempt || certifying_keys(rule, rs, ws).next().is_none()
    }

    /// `submit(T)` (Algorithm 2, line 7): moves the transaction from
    /// `executing` to `coord` (the paper's `submitted`) and propagates it
    /// via `xcast`. Its read and write sets move into the payload, trimmed
    /// to their length; no entry is cloned.
    pub(super) fn submit(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.executing.get(&tx) else {
            return;
        };
        let rule = self.cfg.spec.certifying_obj;
        if self.commits_unsynchronized(&t.rs, &t.ws) {
            ctx.trace(labels::TXN_SUBMIT, tx.code(), 0);
            // Commit without synchronization (wait-free queries).
            self.finish_coord(ctx, tx, true, None);
            return;
        }
        let certifying = certifying_keys(rule, &t.rs, &t.ws).count();
        ctx.trace(labels::TXN_SUBMIT, tx.code(), certifying as u64);
        if let Some(vt) = self.cfg.vote_timeout {
            self.arm(ctx, vt, Timer::VoteTimeout(tx));
        }
        let t = self.executing.remove(&tx).expect("present");
        let dep = t.snapshot.dependency_vec();
        let payload = TermPayload::new(tx, self.me, t.ws.is_empty(), t.rs, t.ws, dep);
        ctx.consume(self.stamp_cost(payload.dep.dim()));
        if let Some(wal) = self.wal.as_mut() {
            // §5.3 durable logging: the submitted transaction — sets,
            // after-values, and dependency vector — hits the log before any
            // termination message leaves, so a crashed coordinator can
            // resume retransmission from its log after restart.
            ctx.consume(self.cfg.costs.per_log_append);
            wal.append(&gdur_persist::LogRecord::Submit {
                tx,
                rs: payload.rs.iter().map(|e| (e.key, e.seq)).collect(),
                ws: payload
                    .ws
                    .iter()
                    .map(|w| (w.key, w.base_seq, w.value.clone()))
                    .collect(),
                dep: payload.dep.iter().collect(),
            });
        }
        self.coord.insert(tx, CoordTxn::new(t.client, payload));
        self.transmit(ctx, tx);
    }

    /// Propagates the payload of the submitted `tx` to the replicas of
    /// `certifying_obj(T)` (Algorithm 2, line 15) — the first time, on
    /// every retry and when a restarted coordinator resumes. Group
    /// communication relies on its ordered `xcast`; 2PC and Paxos Commit
    /// multicast and retry until the decision (Algorithm 4 in the
    /// crash-recovery model waits for crashed participants to come back
    /// online).
    pub(super) fn transmit(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let xcast = match self.cfg.spec.commitment {
            CommitmentKind::GroupCommunication { xcast } => xcast,
            CommitmentKind::TwoPhaseCommit | CommitmentKind::PaxosCommit => {
                let after = Self::READ_TIMEOUT.saturating_mul(4);
                self.arm(ctx, after, Timer::TermRetry(tx));
                XcastKind::Multicast
            }
        };
        let payload = self.coord[&tx].payload.clone();
        let sites = if self.cfg.spec.certifying_obj == CertifyingObjRule::AllObjects {
            self.cfg.placement.all_sites().collect()
        } else {
            self.sites_of_keys(self.certifying_of(&payload))
        };
        // Built as an `Arc` once: every fan-out copy below shares it.
        let dests: std::sync::Arc<[ProcessId]> =
            sites.into_iter().map(|s| self.pid_of_site(s)).collect();
        let mut out = Vec::new();
        self.gc.xcast(xcast, dests, payload, &mut out);
        self.flush_gc(ctx, out);
    }

    /// `certifying_obj(T)` of a submitted transaction, straight off its
    /// payload.
    pub(super) fn certifying_of<'a>(
        &self,
        payload: &'a TermPayload,
    ) -> impl Iterator<Item = Key> + 'a {
        certifying_keys(self.cfg.spec.certifying_obj, &payload.rs, &payload.ws)
    }

    pub(super) fn flush_gc(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        events: Vec<GcEvent<TermPayload>>,
    ) {
        for ev in events {
            match ev {
                GcEvent::Send { to, msg } => {
                    // Send-side marshaling: half the fixed per-message cost
                    // plus size-proportional serialization. Fan-outs (the
                    // AB-Cast sequencer, Skeen proposals) pay per copy.
                    let kb = gdur_sim::WireSize::wire_size(&msg) as u64;
                    ctx.consume(SimDuration::from_nanos(
                        self.cfg.costs.per_message.as_nanos() / 2
                            + self.cfg.costs.per_recv_kb.as_nanos() * kb / 2048,
                    ));
                    ctx.send(to, Msg::Gc(msg));
                }
                GcEvent::Deliver { payload, .. } => self.xdeliver(ctx, payload),
            }
        }
    }

    /// `xdeliver(T)` (Algorithm 2, line 16): enqueue into `Q` and run the
    /// commitment algorithm's vote step.
    fn xdeliver(&mut self, ctx: &mut Context<'_, Msg>, payload: TermPayload) {
        let tx = payload.tx;
        // Duplicate delivery (a coordinator retried termination): re-send
        // our vote if we already cast one; otherwise ignore.
        if self.done.contains(&tx) {
            // A restarted coordinator lost both our vote and the decision:
            // if the outcome is on durable record, answer it directly so
            // the retransmission loop terminates (§5.3).
            if payload.coord != self.me {
                if let [true, commit] = self.decided_outcomes.get(&tx) {
                    let clocks = Vec::new();
                    ctx.send(payload.coord, Msg::Decide { tx, commit, clocks });
                }
            }
            return;
        }
        if let Some(p) = self.part.get(&tx) {
            if let Some(yes) = p.my_vote {
                if payload.coord != self.me {
                    // Re-send the identical vote, reservations included —
                    // voting is idempotent.
                    let clocks = p.reserved().to_vec();
                    ctx.send(payload.coord, Msg::Vote { tx, yes, clocks });
                }
                // The acceptors too: the coordinator may have restarted.
                self.send_phase2a(ctx, payload.coord, tx, yes);
            }
            return;
        }
        let gc_mode = self.gc_mode();
        let enqueued = self.certifier.enqueue(&payload);
        self.part.insert(
            tx,
            PartTxn {
                payload,
                my_vote: None,
                outcome: None,
                clocks: None,
                ticket: enqueued.ticket,
            },
        );
        if gc_mode {
            ctx.trace(labels::CERT_ENQUEUE, tx.code(), self.certifier.len() as u64);
        }
        if let Some((commit, clocks)) = self.early_decide.remove(&tx) {
            // The coordinator decided before our ordered delivery arrived.
            self.on_decide(ctx, tx, commit, clocks);
            return;
        }
        if !gc_mode {
            // A queued transaction that does not commute turns the vote
            // negative (Algorithm 4, line 3).
            self.cast_vote(ctx, tx, enqueued.conflict);
        } else if self.cfg.spec.votes == VoteRule::LocalDecide {
            self.local_decide(ctx, tx);
        } else {
            // Convoy: a conflicting predecessor in Q defers the vote until
            // it leaves (Algorithm 3, line 3).
            if !enqueued.conflict {
                self.cast_vote(ctx, tx, false);
            }
            // Votes may have raced ahead of the ordered delivery.
            self.check_part_outcome(ctx, tx);
        }
    }

    /// A transaction left the certifier: runs its wake loop, casting each
    /// deferred vote before the next is looked at (`Certifier::next_vote`).
    pub(super) fn wake(&mut self, ctx: &mut Context<'_, Msg>) {
        while let Some(tx) = self.certifier.next_vote(|tx| &self.part[&tx].payload) {
            self.cast_vote(ctx, tx, false);
        }
    }

    /// Terminates this replica's participation in `tx`: applies the commit
    /// (or resolves the reservations of an abort), takes the transaction
    /// out of the certifier and forgets its votes. Call `wake` next: it
    /// casts the votes deferred behind `tx`.
    pub(super) fn terminate(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, commit: bool) {
        let p = self.part.remove(&tx).expect("present");
        if commit {
            self.apply(ctx, &p.payload, p.decided_clocks(), p.reserved());
        } else {
            // Aborted reservations resolve too, or the frontier would stall
            // on their slots forever.
            self.resolve_reservations(p.reserved());
        }
        self.votes.remove(&tx);
        self.done.insert(tx);
        self.certifier.leave(p.ticket, &p.payload);
    }

    /// Pops every decided transaction at the head of `Q`, applying commits
    /// and waking deferred votes whose convoy has cleared.
    ///
    /// Orphaned queries — undecided read-only transactions whose
    /// coordinator's site is suspected crashed — are aborted locally: they
    /// install nothing, so a divergent outcome is harmless and unwedges the
    /// apply order. Orphaned *update* transactions at their write-set
    /// replicas terminate through the votes those replicas receive; crashed
    /// replicas do not come back (a restart under group communication is
    /// refused, [`ProtocolSpec::recovery_support`]).
    ///
    /// Outside group communication `Q` is always empty and this does
    /// nothing: 2PC and Paxos Commit terminate from `on_decide`.
    pub(super) fn process_queue(&mut self, ctx: &mut Context<'_, Msg>) {
        while let Some(head) = self.certifier.front() {
            let p = self.part.get(&head).expect("queued");
            let mut outcome = p.outcome;
            if outcome.is_none() && p.payload.read_only {
                if let Some(site) = self.try_site_of_pid(p.payload.coord) {
                    if self.suspected.contains(&site) {
                        outcome = Some(false);
                        // An orphan discard, not a coordinated abort: kept
                        // out of the coordinator-side cause partition.
                        ctx.trace(labels::CERT_ORPHAN, head.code(), AbortCause::Crash.code());
                    }
                }
            }
            let Some(commit) = outcome else {
                break;
            };
            // The entry is gone before anyone is woken: neither the votes
            // nor the nested pops the wake-up triggers look at a
            // transaction that has left Q.
            self.terminate(ctx, head, commit);
            ctx.trace(
                labels::CERT_DEQUEUE,
                head.code(),
                self.certifier.len() as u64,
            );
            self.wake(ctx);
        }
    }

    /// True if commit vectors are assembled from vote-time clock
    /// reservations: voting commitment over a vector mechanism. Vote-free
    /// total-order protocols (`LocalDecide`) and scalar TS keep the legacy
    /// bump-at-install clocks.
    pub(super) fn vote_clocked(&self) -> bool {
        !self.cfg.bug_unreserved_commit_clocks
            && self.cfg.spec.votes == VoteRule::Distributed
            && self.cfg.spec.versioning != Mechanism::Ts
    }

    /// Reserves this replica's commit-clock slots for `payload`'s locally
    /// hosted written partitions. Called on every yes vote; the slots ride
    /// in the vote so the coordinator can assemble one complete commit
    /// vector covering every written partition.
    pub(super) fn reserve_clocks(&mut self, payload: &TermPayload) -> Vec<(u32, u64)> {
        if !self.vote_clocked() {
            return Vec::new();
        }
        let mut out: Vec<(u32, u64)> = Vec::new();
        for w in payload.ws.iter() {
            if !self.is_local(w.key) {
                continue;
            }
            let p = self.cfg.placement.partition_of(w.key).index();
            if out.iter().any(|(q, _)| *q as usize == p) {
                continue;
            }
            let s = self.reserved.get(p).max(self.knowledge.get(p)) + 1;
            self.reserved.set(p, s);
            out.push((p as u32, s));
        }
        out
    }

    /// Marks reservation `s` of partition `p` resolved (installed or
    /// aborted). The visibility frontier advances only over contiguous
    /// resolutions, so snapshots never admit in-flight commits.
    fn resolve_clock(&mut self, p: usize, s: u64) {
        if s <= self.knowledge.get(p) {
            return;
        }
        let ahead = self.resolved_ahead.entry(p).or_default();
        ahead.insert(s);
        let mut frontier = self.knowledge.get(p);
        while ahead.remove(&(frontier + 1)) {
            frontier += 1;
        }
        if ahead.is_empty() {
            self.resolved_ahead.remove(&p);
        }
        self.advance_frontier(p, frontier);
    }

    /// Moves partition `p`'s entry of the visibility frontier to `s` and
    /// wakes the parked reads whose wait bound it reaches. Every write to
    /// `knowledge` goes through here, a replayed install's included, except
    /// `on_restart`'s reset to zero (which drops every waiter with the rest
    /// of the volatile state): the frontier never moves backwards.
    pub(super) fn advance_frontier(&mut self, p: usize, s: u64) {
        debug_assert!(
            s >= self.knowledge.get(p),
            "visibility frontier of partition {p} moved backwards"
        );
        self.knowledge.set(p, s);
        let parked = &mut self.parked;
        if !parked.frontier.is_empty() {
            let reached = parked.frontier.extract_if((p, 0)..=(p, s), |_, _| true);
            parked.woken.extend(reached.flat_map(|(_, reads)| reads));
        }
    }

    fn resolve_reservations(&mut self, reserved: &[(u32, u64)]) {
        for (p, s) in reserved {
            self.resolve_clock(*p as usize, *s);
        }
    }

    /// Applies after-values of locally hosted partitions and runs the
    /// `post_commit` hook.
    fn apply(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        payload: &TermPayload,
        decided_clocks: &[(u32, u64)],
        reserved: &[(u32, u64)],
    ) {
        use crate::spec::PostCommitRule;
        let vote_clocked = self.vote_clocked() && !decided_clocks.is_empty();
        // Resolve this replica's own reservations first: the frontier
        // advance and the installs below land in the same simulation event,
        // so they are atomic to every other process.
        if vote_clocked {
            self.resolve_reservations(reserved);
        }
        let mut bumped: Vec<(usize, u64)> = Vec::new();
        // First pass: fix the partition clock entry once per locally
        // written partition — the vote-time reservation when the decision
        // carries one, a fresh bump otherwise (legacy clocks). TS keeps no
        // partition clocks: its stamps are per-key sequences.
        let clocked = self.knowledge.dim() > 0;
        for w in payload.ws.iter() {
            let p = self.cfg.placement.partition_of(w.key).index();
            if !clocked || !self.is_local(w.key) || bumped.iter().any(|(q, _)| *q == p) {
                continue;
            }
            let s = match decided_clocks.iter().find(|(q, _)| *q as usize == p) {
                Some((_, s)) if vote_clocked => *s,
                _ => {
                    let s = self.knowledge.get(p) + 1;
                    self.advance_frontier(p, s);
                    s
                }
            };
            bumped.push((p, s));
        }
        // Commit vector: dependencies + this transaction's own entries. In
        // vote-clocked mode the decision's merged reservations cover every
        // written partition, local or not, so every install of the
        // transaction (at every replica) carries the same complete vector.
        let mut commit_vec = payload.dep.clone();
        if commit_vec.dim() == self.knowledge.dim() {
            for (p, s) in &bumped {
                if commit_vec.get(*p) < *s {
                    commit_vec.set(*p, *s);
                }
            }
            if vote_clocked {
                for (q, s) in decided_clocks {
                    let q = *q as usize;
                    if q < commit_vec.dim() && commit_vec.get(q) < *s {
                        commit_vec.set(q, *s);
                    }
                }
            }
        }
        for w in payload.ws.iter() {
            if !self.is_local(w.key) {
                continue;
            }
            if self
                .store
                .latest(w.key)
                .is_some_and(|r| r.writer == payload.tx)
            {
                // Already installed — the catch-up transfer shipped this
                // write while the transaction was parked. Re-installing
                // would mint a duplicate version with a fresh sequence.
                continue;
            }
            let p = self.cfg.placement.partition_of(w.key);
            let stamp = match self.cfg.spec.versioning {
                Mechanism::Ts => {
                    Stamp::Ts(self.store.latest_seq(w.key).map(|s| s + 1).unwrap_or(0))
                }
                _ => Stamp::Vec {
                    origin: p.0,
                    vec: commit_vec.clone(),
                },
            };
            ctx.consume(self.cfg.costs.per_apply);
            self.install(ctx, w.key, &w.value, stamp, payload.tx);
            self.stats.applies += 1;
        }
        ctx.trace(
            labels::TXN_INSTALL,
            payload.tx.code(),
            payload.ws.len() as u64,
        );
        if self.cfg.spec.post_commit == PostCommitRule::PropagateStamps {
            for (p, s) in bumped {
                let part = gdur_store::PartitionId(p as u32);
                if self.cfg.placement.replicas(part)[0] == self.cfg.site {
                    // Vote-clocked mode propagates the resolved frontier,
                    // never a reservation that may still have in-flight
                    // commits below it.
                    let seq = if vote_clocked {
                        self.knowledge.get(p)
                    } else {
                        s
                    };
                    for site in self.cfg.placement.all_sites() {
                        let pid = self.pid_of_site(site);
                        if pid != self.me {
                            ctx.send(
                                pid,
                                Msg::Propagate {
                                    partition: p as u32,
                                    seq,
                                },
                            );
                            self.stats.propagates_sent += 1;
                        }
                    }
                }
            }
        }
    }

    /// Installs one version: into the store, the durable log when one is
    /// attached, and the recorded history. The caller charges `per_apply`;
    /// the log append charges its own.
    pub(super) fn install(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        key: Key,
        value: &Value,
        stamp: Stamp,
        writer: TxId,
    ) {
        let seq = self
            .store
            .install(key, value.clone(), stamp.clone(), writer);
        if let Some(wal) = self.wal.as_mut() {
            ctx.consume(self.cfg.costs.per_log_append);
            wal.append(&gdur_persist::LogRecord::Install {
                key,
                seq,
                stamp,
                writer,
                value: value.clone(),
            });
        }
        if self.cfg.record_history {
            self.installs.push(InstallEvent {
                key,
                seq,
                tx: writer,
            });
        }
    }
}

/// The keys of `certifying_obj(T)` under `rule` for a transaction that
/// synchronizes (see `commits_unsynchronized`): its reads unless the rule
/// certifies writes only, then each written key not already named, in
/// that order.
fn certifying_keys<'a>(
    rule: CertifyingObjRule,
    rs: &'a [ReadEntry],
    ws: &'a [WriteEntry],
) -> impl Iterator<Item = Key> + 'a {
    use CertifyingObjRule::*;
    let rs: &[ReadEntry] = match rule {
        WriteSet | WriteSetIfUpdate => &[],
        // Under `AllObjects` every replica participates; the key list
        // still names the accessed objects for certification.
        _ => rs,
    };
    let named = move |i: usize, key: Key| {
        rs.iter().any(|e| e.key == key) || ws[..i].iter().any(|w| w.key == key)
    };
    let writes = ws
        .iter()
        .enumerate()
        .filter(move |(i, w)| !named(*i, w.key));
    rs.iter().map(|e| e.key).chain(writes.map(|(_, w)| w.key))
}
