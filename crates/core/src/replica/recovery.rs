//! Crash recovery (§5.3): replay of the write-ahead log at restart, the
//! paginated catch-up transfer from peers, and the resumption of what was
//! in flight.

use super::*;

impl Replica {
    /// Install records per catch-up reply page.
    const CATCHUP_PAGE: u32 = 256;

    /// True while a catch-up transfer is rebuilding the store. Reads defer,
    /// votes park, and the termination queue does not drain until the
    /// transfer completes: acting on a stale store would mint per-key
    /// sequences (and votes) that diverge from the rest of the partition.
    pub(super) fn recovering(&self) -> bool {
        self.catchup.is_some()
    }

    /// Rebuilds the replica after a kernel restart (§5.3), or refuses to.
    ///
    /// The durable state is the initial load plus the write-ahead log;
    /// everything else — mailbox, timers, in-memory protocol state — died
    /// with the crash. Recovery replays committed installs into a fresh
    /// store, re-derives the visibility frontier from their stamps, marks
    /// logged decisions as terminated, rebuilds the coordinator entry of
    /// every `Submit` without a matching `Decision` (a mid-commit crash),
    /// and then starts the peer catch-up transfer. Retransmission of the
    /// rebuilt terminations waits for `finish_catchup`, so the self-
    /// delivered vote certifies against a current store.
    ///
    /// # Panics
    ///
    /// Panics if the assembly has no recovery
    /// ([`ProtocolSpec::recovery_support`]) or no log was attached: there is
    /// no restart that keeps the state the crash destroyed.
    pub fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Err(refusal) = self.cfg.spec.recovery_support() {
            panic!("replica {} cannot restart: {refusal}", self.me);
        }
        let Some(wal) = self.wal.take() else {
            panic!(
                "replica {} cannot restart without a write-ahead log: its state died \
                 with the crash — set `ClusterConfig::persistence`",
                self.me
            );
        };
        self.stats.recoveries += 1;
        // Re-open the log from its durable byte image — recovery must not
        // depend on the in-memory `Wal` value that died with the process.
        // The dead log is consumed, so the replay holds one copy.
        let wal = gdur_persist::Wal::from_image(wal.into_image());
        self.parked = ParkedReads::default();
        self.executing.clear();
        self.coord.clear();
        self.part.clear();
        self.votes.clear();
        self.certifier.clear();
        self.early_decide.clear();
        self.timers.clear();
        self.suspected.clear();
        self.done = TerminatedSet::default();
        self.decided_outcomes = TxBits::default();
        self.resolved_ahead.clear();
        self.catchup = None;
        let partitions = self.cfg.placement.partitions();
        let dim = self
            .cfg
            .spec
            .versioning
            .dim(self.cfg.replica_pids.len(), partitions);
        // The durable initial load: the seed image, every write forgotten.
        let mut store = self.store.pristine();
        let mut knowledge = VersionVec::zero(dim.max(partitions));
        // Scalar-timestamp mechanisms carry no vector in their stamps; the
        // frontier there counts one bump per (partition, writer), mirroring
        // the live path's bump-once-per-transaction-per-partition.
        let mut ts_bumps: BTreeSet<(u32, TxId)> = BTreeSet::new();
        type SubmitReplay = (TxId, Vec<(Key, u64)>, Vec<(Key, u64, Value)>, Vec<u64>);
        let mut submits: Vec<SubmitReplay> = Vec::new();
        let mut replayed: u64 = 0;
        for rec in wal.scan_from(0) {
            ctx.consume(self.cfg.costs.per_log_append);
            match rec {
                gdur_persist::LogRecord::Install {
                    key,
                    seq: _,
                    stamp,
                    writer,
                    value,
                } => {
                    match stamp.as_vec() {
                        Some(vec) if vec.dim() == knowledge.dim() => knowledge.merge(vec),
                        _ => {
                            ts_bumps.insert((self.cfg.placement.partition_of(key).0, writer));
                        }
                    }
                    store.install(key, value, stamp, writer);
                    replayed += 1;
                }
                gdur_persist::LogRecord::Decision { tx, commit } => {
                    self.done.insert(tx);
                    self.decided_outcomes.set(tx, [true, commit]);
                }
                gdur_persist::LogRecord::Submit { tx, rs, ws, dep } => {
                    submits.push((tx, rs, ws, dep));
                }
            }
        }
        for (p, _) in &ts_bumps {
            let p = *p as usize;
            knowledge.set(p, knowledge.get(p) + 1);
        }
        self.store = store;
        self.knowledge = knowledge;
        self.reserved = self.knowledge.clone();
        ctx.trace(labels::RECOVERY_REPLAY, 0, replayed);
        self.wal = Some(wal);
        // Mid-commit coordinated transactions: rebuild the coordinator
        // entry and the termination payload; the multicast itself is
        // deferred to `finish_catchup`.
        for (tx, rs, ws, dep) in submits {
            if self.decided_outcomes.get(&tx)[0] {
                continue;
            }
            let rs: Vec<ReadEntry> = rs
                .into_iter()
                .map(|(key, seq)| ReadEntry { key, seq })
                .collect();
            let ws: Vec<WriteEntry> = ws
                .into_iter()
                .map(|(key, base_seq, value)| WriteEntry {
                    key,
                    value,
                    base_seq,
                })
                .collect();
            let payload = TermPayload::new(
                tx,
                self.me,
                ws.is_empty(),
                rs,
                ws,
                VersionVec::from_entries(dep),
            );
            let mut t = CoordTxn::new(ProcessId(tx.coord()), payload);
            // Its participants may have voted before the crash.
            t.resent = true;
            self.coord.insert(tx, t);
        }
        self.start_catchup(ctx);
        self.serve_woken_reads(ctx);
    }

    /// Starts the peer state transfer: one request stream per peer, each
    /// covering the local partitions that peer also hosts. Partitions with
    /// no second replica cannot be caught up (their committed-but-unlogged
    /// tail is unrecoverable); the WAL replay is all they get.
    fn start_catchup(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut pending: BTreeMap<ProcessId, CatchupPeer> = BTreeMap::new();
        for p in self.cfg.placement.partitions_at(self.cfg.site) {
            let Some(peer) = self
                .cfg
                .placement
                .replicas(p)
                .iter()
                .copied()
                .find(|s| *s != self.cfg.site)
            else {
                continue;
            };
            pending
                .entry(self.pid_of_site(peer))
                .or_insert_with(|| CatchupPeer {
                    partitions: Vec::new(),
                    from: 0,
                    timer: None,
                })
                .partitions
                .push(p.0);
        }
        let peers: Vec<ProcessId> = pending.keys().copied().collect();
        self.catchup = Some(CatchupState {
            pending,
            applied: 0,
        });
        if peers.is_empty() {
            self.finish_catchup(ctx);
            return;
        }
        for peer in peers {
            self.send_catchup_req(ctx, peer);
        }
    }

    /// Sends (or re-sends) the next catch-up page request to `peer` and
    /// arms the retry timer that asks again if the peer stays silent.
    fn send_catchup_req(&mut self, ctx: &mut Context<'_, Msg>, peer: ProcessId) {
        let Some((partitions, from)) = self
            .catchup
            .as_ref()
            .and_then(|cu| cu.pending.get(&peer))
            .map(|p| (p.partitions.clone(), p.from))
        else {
            return;
        };
        let after = self.cfg.read_timeout.saturating_mul(4);
        let timer = self.arm(ctx, after, Timer::Catchup(peer));
        if let Some(p) = self
            .catchup
            .as_mut()
            .and_then(|cu| cu.pending.get_mut(&peer))
        {
            p.timer = Some(timer);
        }
        ctx.trace(labels::RECOVERY_CATCHUP_REQ, 0, partitions.len() as u64);
        ctx.send(
            peer,
            Msg::CatchupReq {
                partitions,
                from,
                max: Self::CATCHUP_PAGE,
            },
        );
    }

    /// Catch-up retry: the peer did not answer within the timeout. Suspect
    /// it and ask it again for the same page. A partition has at most one
    /// other replica under either `Placement` constructor, so the peer
    /// asked is the only one that can serve its stream; pages are
    /// idempotent, so a late answer overlapping the repeated one is safe.
    pub(super) fn retry_catchup(&mut self, ctx: &mut Context<'_, Msg>, peer: ProcessId) {
        let asked = |cu: &CatchupState| cu.pending.contains_key(&peer);
        if !self.catchup.as_ref().is_some_and(asked) {
            return;
        }
        if let Some(site) = self.try_site_of_pid(peer) {
            self.suspected.insert(site);
        }
        self.send_catchup_req(ctx, peer);
    }

    /// Serves one page of catch-up state from this replica's own log:
    /// install records of the requested partitions plus every decision
    /// (decisions are cheap and close the requester's parked
    /// terminations). Reads the log from `start` and stops when the page
    /// is full, so a page costs its own records, not the log's.
    pub(super) fn on_catchup_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        partitions: Vec<u32>,
        start: u64,
        max: u32,
    ) {
        let mut installs = Vec::new();
        let mut decisions = Vec::new();
        let mut idx = start;
        let mut records = self.wal.iter().flat_map(|wal| wal.scan_from(start));
        while installs.len() + decisions.len() < max as usize {
            let Some(rec) = records.next() else { break };
            self.stats.catchup_records_decoded += 1;
            match rec {
                gdur_persist::LogRecord::Install {
                    key,
                    seq,
                    stamp,
                    writer,
                    value,
                } if partitions.contains(&self.cfg.placement.partition_of(key).0) => {
                    installs.push(CatchupInstall {
                        key,
                        seq,
                        stamp,
                        writer,
                        value,
                    });
                }
                gdur_persist::LogRecord::Decision { tx, commit } => {
                    decisions.push((tx, commit));
                }
                _ => {}
            }
            idx += 1;
        }
        ctx.consume(
            self.cfg
                .costs
                .per_log_append
                .saturating_mul((installs.len() + decisions.len()) as u64),
        );
        // A live log holds only intact frames, so a record remains after
        // the page iff the page stopped short of the log's length.
        let next = (idx < self.wal.as_ref().map_or(0, |wal| wal.len())).then_some(idx);
        let frontier = if next.is_none() {
            partitions
                .iter()
                .map(|p| (*p, self.knowledge.get(*p as usize)))
                .collect()
        } else {
            Vec::new()
        };
        ctx.send(
            from,
            Msg::CatchupRep {
                installs,
                decisions,
                next,
                frontier,
            },
        );
    }

    /// Applies one page of catch-up state: installs in log order (only at
    /// the exact next per-key sequence, which makes overlapping pages
    /// idempotent), then decisions, then either requests the next page or
    /// adopts the peer's frontier and finishes this stream.
    pub(super) fn on_catchup_rep(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        installs: Vec<CatchupInstall>,
        decisions: Vec<(TxId, bool)>,
        next: Option<u64>,
        frontier: Vec<(u32, u64)>,
    ) {
        if !self
            .catchup
            .as_ref()
            .is_some_and(|cu| cu.pending.contains_key(&from))
        {
            // A stale page: this peer's stream already finished.
            return;
        }
        let mut applied: u64 = 0;
        for inst in installs {
            if !self.is_local(inst.key) {
                continue;
            }
            let expected = self.store.latest_seq(inst.key).map(|s| s + 1).unwrap_or(0);
            if inst.seq != expected {
                continue;
            }
            self.install(ctx, inst.key, &inst.value, inst.stamp, inst.writer);
            self.stats.catchup_installs += 1;
            applied += 1;
        }
        for (tx, commit) in decisions {
            if !self.decided_outcomes.get(&tx)[0] {
                self.decided_outcomes.set(tx, [true, commit]);
            }
            if self.coord.contains_key(&tx) {
                // One of our own mid-commit transactions already terminated
                // cluster-wide before the crash: close it without
                // retransmitting.
                self.finish_coord(ctx, tx, commit, None);
            } else {
                self.done.insert(tx);
            }
        }
        let cu = self.catchup.as_mut().expect("recovering");
        cu.applied += applied;
        ctx.trace(labels::RECOVERY_CATCHUP_APPLY, 0, applied);
        let stream = cu.pending.get_mut(&from).expect("checked on entry");
        let timer = stream.timer.take();
        if let Some(nxt) = next {
            stream.from = nxt;
        } else {
            cu.pending.remove(&from);
        }
        let finished = cu.pending.is_empty();
        if let Some(timer) = timer {
            self.cancel(ctx, timer);
        }
        if next.is_some() {
            return self.send_catchup_req(ctx, from);
        }
        // The last page: adopt the peer's visibility frontier — the
        // transferred installs are now locally visible.
        for (p, s) in frontier {
            let p = p as usize;
            if p < self.knowledge.dim() && self.knowledge.get(p) < s {
                self.advance_frontier(p, s);
            }
            if p < self.reserved.dim() && self.reserved.get(p) < s {
                self.reserved.set(p, s);
            }
        }
        if finished {
            self.finish_catchup(ctx);
        }
    }

    /// Catch-up complete: resume §5.3 retransmission for the rebuilt
    /// mid-commit transactions, cast the votes and complete the decided
    /// terminations parked during the transfer, and wake the reads that
    /// arrived meanwhile, in arrival order.
    fn finish_catchup(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(cu) = self.catchup.take() else {
            return;
        };
        ctx.trace(labels::RECOVERY_COMPLETE, 0, cu.applied);
        for tx in self.coord.sorted_keys() {
            self.stats.resubmissions += 1;
            let certifying = self.certifying_of(&self.coord[&tx].payload).count();
            ctx.trace(labels::RECOVERY_RESUBMIT, tx.code(), certifying as u64);
            if let Some(vt) = self.cfg.vote_timeout {
                self.arm(ctx, vt, Timer::VoteTimeout(tx));
            }
            self.transmit(ctx, tx);
        }
        self.cast_deferred_votes(ctx);
        self.parked.woken.append(&mut self.parked.recovery);
    }

    /// Votes parked while recovering, cast now against the caught-up
    /// store; then the parked decided terminations complete.
    fn cast_deferred_votes(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut unvoted = self.part.sorted_keys();
        unvoted.retain(|tx| {
            let p = &self.part[tx];
            p.my_vote.is_none() && p.outcome.is_none()
        });
        for tx in unvoted {
            let Some(p) = self.part.get(&tx) else {
                continue;
            };
            let preempt = self.certifier.has_conflict(p.ticket, &p.payload);
            self.cast_vote(ctx, tx, preempt);
        }
        let parked: Vec<(TxId, bool)> = self
            .part
            .sorted_keys()
            .into_iter()
            .filter_map(|tx| Some((tx, self.part[&tx].outcome?)))
            .collect();
        for (tx, commit) in parked {
            let waiters = self.terminate(ctx, tx, commit);
            self.wake(ctx, waiters);
        }
    }
}
