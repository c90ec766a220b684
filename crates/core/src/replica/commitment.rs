//! Atomic commitment: the vote step, the vote ledger and `outcome(T)` shared
//! by group communication with distributed voting (Algorithm 3), two-phase
//! commit (Algorithm 4) and Paxos Commit (§5), Serrano's vote-free
//! `LocalDecide`, and the decision at coordinator and participant.

use super::*;

impl Replica {
    /// `certify(T)` against this replica's local state, at its CPU cost.
    fn certify(&mut self, ctx: &mut Context<'_, Msg>, payload: &TermPayload) -> bool {
        let items = (payload.rs.len() + payload.ws.len()) as u64;
        let costs = &self.cfg.costs;
        ctx.consume(costs.per_certify + costs.per_certify_item.saturating_mul(items));
        self.stats.certifications += 1;
        // Version `seq` of a key hosted here is still its latest.
        let current =
            |key, seq| !self.is_local(key) || self.store.latest_seq(key).unwrap_or(0) <= seq;
        match self.cfg.spec.certify {
            CertifyRule::AlwaysPass => true,
            CertifyRule::ReadSetCurrent => payload.rs.iter().all(|e| current(e.key, e.seq)),
            // Serrano: certify against the replicated version table
            // covering all objects.
            CertifyRule::WriteSetCurrent if self.cfg.spec.votes == VoteRule::LocalDecide => payload
                .ws
                .iter()
                .all(|w| *self.meta.get(&w.key).unwrap_or(&0) <= w.base_seq),
            CertifyRule::WriteSetCurrent => payload.ws.iter().all(|w| current(w.key, w.base_seq)),
        }
    }

    /// Action `vote` of Algorithms 3 and 4: certify `tx` — or, with
    /// `preempt`, vote *no* uncertified because a queued transaction does
    /// not commute with it (Algorithm 4, line 3) — reserve the commit
    /// clocks of a *yes*, and send the vote.
    pub(super) fn cast_vote(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, preempt: bool) {
        let Some(p) = self.part.get(&tx) else { return };
        if p.my_vote.is_some() || p.outcome.is_some() {
            return;
        }
        if self.recovering() {
            // Certifying against a mid-rebuild store could contradict the
            // votes of this partition's peers; the vote parks until
            // catch-up completes (`finish_catchup` sweeps unvoted entries).
            return;
        }
        let payload = p.payload.clone();
        let yes = if preempt {
            self.stats.preemptive_aborts += 1;
            false
        } else {
            self.certify(ctx, &payload)
        };
        let clocks = if yes {
            self.reserve_clocks(&payload)
        } else {
            Vec::new()
        };
        {
            let p = self.part.get_mut(&tx).expect("present");
            p.my_vote = Some(yes);
            if !clocks.is_empty() {
                p.clocks_mut().reserved = clocks.as_slice().into();
            }
        }
        self.stats.votes_cast += 1;
        ctx.trace(labels::TXN_VOTE, tx.code(), u64::from(yes));
        self.send_vote(ctx, &payload, yes, clocks);
    }

    /// Sends a vote to the coordinator and, in GC mode, to
    /// `replicas(vote_recv_obj)` as well.
    ///
    /// `vote_recv_obj` there is the full certifying set (the paper's "might
    /// be larger in certain cases", Figure 2-a): every participant receives
    /// every vote and decides locally, which also lets participants
    /// terminate transactions whose coordinator crashed. 2PC and Paxos
    /// Commit participants wait for the coordinator's decision instead.
    fn send_vote(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        payload: &TermPayload,
        yes: bool,
        mut clocks: Vec<(u32, u64)>,
    ) {
        let tx = payload.tx;
        let mut targets: Vec<ProcessId> = match self.cfg.spec.commitment {
            // AB-Cast delivers to every replica; all of them sit in Q and
            // need the votes to terminate ("all replicas must receive the
            // certification votes", §5.1).
            CommitmentKind::GroupCommunication {
                xcast: XcastKind::AbCast,
            } => self.cfg.replica_pids.clone(),
            CommitmentKind::GroupCommunication { .. } => {
                let keys = payload
                    .rs
                    .iter()
                    .map(|e| e.key)
                    .chain(payload.ws.iter().map(|w| w.key));
                keys.flat_map(|k| self.cfg.placement.replicas_of_key(k))
                    .map(|s| self.pid_of_site(*s))
                    .collect()
            }
            CommitmentKind::TwoPhaseCommit | CommitmentKind::PaxosCommit => {
                return self.vote_to(ctx, payload.coord, tx, yes, clocks);
            }
        };
        targets.push(payload.coord);
        // Votes leave in ascending pid order, one per process.
        targets.sort_unstable();
        targets.dedup();
        let last = targets.len() - 1;
        for (i, t) in targets.into_iter().enumerate() {
            // The last recipient takes the reservations themselves.
            let clocks = if i == last {
                std::mem::take(&mut clocks)
            } else {
                clocks.clone()
            };
            self.vote_to(ctx, t, tx, yes, clocks);
        }
    }

    /// Hands one vote to `to`: over the wire, or straight into the ledger
    /// when that is this replica.
    fn vote_to(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        to: ProcessId,
        tx: TxId,
        yes: bool,
        clocks: Vec<(u32, u64)>,
    ) {
        if to == self.me {
            self.record_vote(ctx, tx, self.cfg.site, yes, clocks);
        } else {
            ctx.send(to, Msg::Vote { tx, yes, clocks });
        }
    }

    /// Serrano's vote-free decision: certify at delivery, in total order,
    /// against the replicated version table; every replica reaches the same
    /// verdict.
    pub(super) fn local_decide(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let payload = self.part.get(&tx).expect("just delivered").payload.clone();
        let commit = self.certify(ctx, &payload);
        if commit {
            for w in payload.ws.iter() {
                let e = self.meta.entry(w.key).or_insert(0);
                *e = (*e).max(w.base_seq + 1);
            }
        }
        self.part.get_mut(&tx).expect("present").outcome = Some(commit);
        self.process_queue(ctx);
        if payload.coord == self.me {
            self.finish_coord(ctx, tx, commit, None);
        }
    }

    /// Accumulates a vote; both coordinator-side and participant-side
    /// decisions key off this shared state.
    pub(super) fn record_vote(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        site: SiteId,
        yes: bool,
        clocks: Vec<(u32, u64)>,
    ) {
        if self.done.contains(&tx) && !self.coord.contains_key(&tx) {
            return;
        }
        {
            let v = self.votes.get_or_insert_with(tx, VoteState::default);
            if yes {
                v.add_yes(site);
                for (p, s) in clocks {
                    match v.clocks.iter_mut().find(|(q, _)| *q == p) {
                        Some(e) => e.1 = e.1.max(s),
                        None => v.clocks.push((p, s)),
                    }
                }
            } else {
                v.any_no = true;
            }
        }
        self.check_coord_outcome(ctx, tx);
        self.check_part_outcome(ctx, tx);
    }

    /// The `outcome(T)` predicate over the votes `v` received so far for a
    /// transaction with the given certifying keys: abort on any *no*; commit
    /// once every key is covered by *yes* votes — of one of its replicas in
    /// GC mode (the voting quorum of Algorithm 3), of all of them under 2PC
    /// and Paxos Commit; undecided until then.
    fn outcome(&self, v: &VoteState, certifying: impl Iterator<Item = Key>) -> Option<bool> {
        if v.any_no {
            return Some(false);
        }
        self.covered(v, certifying, !self.gc_mode()).then_some(true)
    }

    /// True if every key is covered by *yes* votes: of one of its replicas,
    /// or of all of them with `every_replica`.
    fn covered(
        &self,
        v: &VoteState,
        mut keys: impl Iterator<Item = Key>,
        every_replica: bool,
    ) -> bool {
        keys.all(|k| {
            let mut replicas = self.cfg.placement.replicas_of_key(k).iter();
            if every_replica {
                replicas.all(|s| v.voted_yes(*s))
            } else {
                replicas.any(|s| v.voted_yes(*s))
            }
        })
    }

    /// Coordinator side of `outcome(T)`: decide — through a Paxos round
    /// under Paxos Commit — as soon as the votes allow.
    fn check_coord_outcome(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.coord.get(&tx) else { return };
        let Some(v) = self.votes.get(&tx) else { return };
        let Some(commit) = self.outcome(v, self.certifying_of(&t.payload)) else {
            return;
        };
        if self.cfg.spec.commitment == CommitmentKind::PaxosCommit {
            self.start_paxos_round(ctx, tx, commit);
        } else {
            self.decide_and_announce(ctx, tx, commit, None);
        }
    }

    /// Paxos Commit: replicate the decision on a majority of acceptors
    /// before announcing it.
    fn start_paxos_round(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, commit: bool) {
        let t = self.coord.get_mut(&tx).expect("present");
        if t.paxos_decision.is_some() {
            return;
        }
        t.paxos_decision = Some(commit);
        t.paxos_acks = 1; // the coordinator accepts its own decision
        for s in self.cfg.placement.all_sites() {
            let pid = self.pid_of_site(s);
            if pid != self.me {
                ctx.send(pid, Msg::PaxosAccept { tx, commit });
            }
        }
        self.check_paxos_majority(ctx, tx);
    }

    pub(super) fn check_paxos_majority(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let n = self.cfg.placement.sites();
        let Some(t) = self.coord.get(&tx) else { return };
        let Some(commit) = t.paxos_decision else {
            return;
        };
        if t.paxos_acks as usize > n / 2 {
            self.decide_and_announce(ctx, tx, commit, None);
        }
    }

    /// Coordinator decision: notify the client, announce to participants
    /// that do not learn the outcome from votes.
    pub(super) fn decide_and_announce(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        commit: bool,
        cause: Option<AbortCause>,
    ) {
        let t = self.coord.get(&tx).expect("deciding an unknown txn");
        // The merged vote-clock reservations: complete commit-vector
        // entries for every written partition, shipped with the decision.
        let clocks = self
            .votes
            .get(&tx)
            .map(|v| v.clocks.clone())
            .unwrap_or_default();
        // 2PC and Paxos Commit participants wait for the decision. Every GC
        // participant receives every vote and decides locally (Figure 2-a);
        // no decision fan-out is needed, and none may race the votes
        // (`Cluster::build` refuses a vote timeout there).
        let announce_sites = if self.gc_mode() {
            BTreeSet::new()
        } else {
            self.sites_of_keys(self.certifying_of(&t.payload))
        };
        for s in announce_sites {
            let pid = self.pid_of_site(s);
            if pid != self.me {
                let clocks = clocks.clone();
                ctx.send(pid, Msg::Decide { tx, commit, clocks });
            }
        }
        // Apply the local participant's copy, if this replica is one.
        if self.payload_due(tx) {
            self.on_decide(ctx, tx, commit, clocks);
        } else {
            self.log_decision(ctx, tx, commit);
        }
        self.finish_coord(ctx, tx, commit, cause);
    }

    /// False at the coordinator of `tx` when its termination payload is not
    /// addressed here — the destinations `transmit` computes; AB-Cast orders
    /// every payload at every replica. Such a coordinator never delivers
    /// the payload, so a decision it hands `on_decide` would wait for it
    /// forever. True everywhere else: a decision reaches a non-coordinator
    /// only as a destination.
    pub(super) fn payload_due(&self, tx: TxId) -> bool {
        self.coord
            .get(&tx)
            .is_none_or(|t| self.addressed_here(&t.payload))
    }

    /// True if `transmit` addresses `payload` to this replica.
    fn addressed_here(&self, payload: &TermPayload) -> bool {
        let ab_cast = CommitmentKind::GroupCommunication {
            xcast: XcastKind::AbCast,
        };
        self.cfg.spec.certifying_obj == CertifyingObjRule::AllObjects
            || self.cfg.spec.commitment == ab_cast
            || self.certifying_of(payload).any(|k| self.is_local(k))
    }

    /// Final coordinator bookkeeping, in whichever phase `tx` ended: reply
    /// to the client, record history. `cause` names why an abort happened
    /// (defaulting to certification conflict); it partitions
    /// `stats.aborted` exactly.
    pub(super) fn finish_coord(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        commit: bool,
        cause: Option<AbortCause>,
    ) {
        // Leaving `coord` or `executing` is what marks the transaction
        // decided: retries, timeouts and late decisions look it up and find
        // nothing.
        let client = if let Some(t) = self.coord.remove(&tx) {
            if self.cfg.record_history {
                self.outcomes.push(tx, commit, &t.payload.rs, &t.payload.ws);
            }
            // A vote can still arrive after the decision unless every
            // replica of every certifying key voted yes to one transmission.
            // Marked terminated, a coordination its payload is not addressed
            // to drops it; at a destination the participation marks `tx`
            // when it terminates.
            let unanimous =
                |v: &VoteState| !v.any_no && self.covered(v, self.certifying_of(&t.payload), true);
            if !self.addressed_here(&t.payload)
                && (t.resent || !self.votes.get(&tx).is_some_and(unanimous))
            {
                self.done.insert(tx);
            }
            t.client
        } else if let Some(t) = self.executing.remove(&tx) {
            if self.cfg.record_history {
                self.outcomes.push(tx, commit, &t.rs, &t.ws);
            }
            t.client
        } else {
            return;
        };
        self.votes.remove(&tx);
        self.stats.coordinated += 1;
        let cause = (!commit).then_some(cause.unwrap_or(AbortCause::CertificationConflict));
        if commit {
            self.stats.committed += 1;
        } else {
            self.stats.aborted += 1;
            match cause.expect("set on abort") {
                AbortCause::CertificationConflict => self.stats.aborted_cert_conflict += 1,
                AbortCause::VoteTimeout => self.stats.aborted_vote_timeout += 1,
                AbortCause::ReadImpossible => self.stats.aborted_read_impossible += 1,
                AbortCause::Crash => self.stats.aborted_crash += 1,
            }
        }
        let code = tx.code();
        ctx.trace(labels::TXN_DECIDE, code, commit as u64);
        if let Some(c) = cause {
            ctx.trace(labels::TXN_ABORT, code, c.code());
        }
        ctx.send(
            client,
            Msg::Reply {
                tx,
                reply: ClientReply::Outcome {
                    committed: commit,
                    cause,
                },
            },
        );
    }

    /// Participant side of `outcome(T)`: in GC mode every `vote_recv`
    /// replica decides locally from the votes (Figure 2-a); 2PC and Paxos
    /// Commit participants, and Serrano's vote-free ones, never do.
    pub(super) fn check_part_outcome(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        if !self.gc_mode() || self.cfg.spec.votes == VoteRule::LocalDecide {
            return;
        }
        let Some(p) = self.part.get(&tx) else { return };
        if p.outcome.is_some() {
            return;
        }
        let Some(v) = self.votes.get(&tx) else { return };
        // vote_snd_obj = certifying_obj: check coverage of the certifying
        // set straight off the payload under this protocol's rule.
        let Some(commit) = self.outcome(v, self.certifying_of(&p.payload)) else {
            return;
        };
        // GC-mode participants terminate from votes without an explicit
        // `Decide`: the decision taken here is logged and applied like a
        // received one, so recovery and catch-up see every decision, not
        // just coordinated ones.
        let merged_clocks = v.clocks.clone();
        self.on_decide(ctx, tx, commit, merged_clocks);
    }

    /// Appends the decision to the durable log, when one is attached.
    pub(super) fn log_decision(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, commit: bool) {
        if let Some(wal) = self.wal.as_mut() {
            ctx.consume(self.cfg.costs.per_log_append);
            wal.append(&gdur_persist::LogRecord::Decision { tx, commit });
            self.decided_outcomes.set(tx, [true, commit]);
        }
    }

    /// Decision received, or taken locally, at a destination of the
    /// payload: logged, recorded on the participation together with the
    /// merged vote clocks, and applied when the commitment algorithm says
    /// so. A decision that overtook the delivery waits in `early_decide`.
    pub(super) fn on_decide(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        commit: bool,
        clocks: Vec<(u32, u64)>,
    ) {
        self.log_decision(ctx, tx, commit);
        let Some(p) = self.part.get_mut(&tx) else {
            if !self.done.contains(&tx) {
                self.early_decide.insert(tx, (commit, clocks));
            }
            return;
        };
        let commit = *p.outcome.get_or_insert(commit);
        if p.decided_clocks().is_empty() && !clocks.is_empty() {
            p.clocks_mut().decided = clocks.into();
        }
        if self.gc_mode() {
            // Apply in delivery order (Algorithm 3, line 10).
            self.process_queue(ctx);
        } else if !self.recovering() {
            // Spontaneous order: apply and terminate immediately — unless a
            // catch-up transfer is rebuilding the store, in which case the
            // entry parks (outcome recorded above) until the
            // `finish_catchup` sweep. Nobody waits on a 2PC/Paxos
            // participation: the waiters are none.
            let waiters = self.terminate(ctx, tx, commit);
            self.wake(ctx, waiters);
        }
    }
}
