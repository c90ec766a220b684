//! Crash recovery (§5.3): replay of the write-ahead log at restart, the
//! paginated catch-up transfer from peers, and the resumption of what was
//! in flight.

use gdur_persist::{LogRecord, RecordHead, Wal};

use super::*;

/// What replaying one log record did to the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replayed {
    /// An install landed.
    Installed,
    /// A decision the replica did not hold, or a coordinator entry, was
    /// recorded.
    Recorded,
    /// Nothing changed: an install not at its key's next sequence, or a
    /// decision already held, terminated and with no open entry.
    Nothing,
}

/// The share, out of `n`, that a restart's replay or a served catch-up
/// page charges a record to: an install by its key, a decision or a
/// submission by its transaction (`id` is the key, or the transaction's
/// code). Records of different shares touch disjoint keys or transactions,
/// so each share is a core's independent part of the scan (SiloR's
/// key-sharded replay). The id is hashed first: neither the round-robin
/// partition map nor a coordinator's sequence range may land on one share.
pub(super) fn replay_share(id: u64, n: usize) -> usize {
    ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % n as u64) as usize
}

/// [`replay_share`] of a decoded record.
pub(super) fn share_of(rec: &LogRecord, n: usize) -> usize {
    let id = match rec {
        LogRecord::Install { key, .. } => key.0,
        LogRecord::Decision { tx, .. } | LogRecord::Submit { tx, .. } => tx.code(),
    };
    replay_share(id, n)
}

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
    /// with the crash. Recovery replays the log into a fresh store through
    /// [`Replica::replay`], each record as it is read (installs, the
    /// frontier, decisions, and the coordinator entry of every `Submit`
    /// without a matching `Decision` — a mid-commit crash), and then starts
    /// the peer catch-up transfer. Retransmission of the rebuilt
    /// terminations waits for `finish_catchup`, so the self-delivered vote
    /// certifies against a current store.
    ///
    /// The records are applied in log order, but their `per_log_append`
    /// charge is forked across the replica's cores by [`share_of`]
    /// ([`Context::consume_parallel`]): the catch-up requests leave when the
    /// longest share ends.
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
        self.parked = ParkedReads::default();
        self.executing.clear();
        self.coord.clear();
        self.part.clear();
        self.votes.clear();
        self.accepts.clear();
        self.certifier.clear();
        self.early_decide.clear();
        self.timers.clear();
        self.suspected.clear();
        self.done = TerminatedSet::default();
        self.decided_outcomes = TxBits::default();
        self.resolved_ahead.clear();
        self.catchup = None;
        // The durable initial load, every write forgotten, under a frontier
        // that only the replayed installs move.
        self.store = self.store.pristine();
        self.knowledge = VersionVec::zero(self.knowledge.dim());
        // Re-open the log from its durable byte image — recovery must not
        // depend on the in-memory `Wal` value that died with the process.
        // The dead log's buffer is the image, read where it lies.
        let mut installed: u64 = 0;
        let cores = ctx.cores();
        let mut shares = vec![SimDuration::ZERO; cores];
        let wal = Wal::from_image(wal.into_image(), |rec| {
            shares[share_of(&rec, cores)] += self.cfg.costs.per_log_append;
            installed += u64::from(self.replay(ctx, rec, false) == Replayed::Installed);
        });
        let replayed = ctx.consume_parallel(&shares);
        self.reserved = self.knowledge.clone();
        ctx.trace(labels::RECOVERY_REPLAY, 0, installed);
        let replay_ns = replayed.saturating_since(ctx.now()).as_nanos();
        ctx.trace(labels::RECOVERY_REPLAYED, 0, replay_ns);
        self.wal = Some(wal);
        self.start_catchup(ctx);
        self.serve_woken_reads(ctx);
    }

    /// Applies one logged record, the only way a record enters a replica:
    /// `on_restart` replays its own image through here, `on_catchup_rep` a
    /// peer's page (`from_peer`). Returns what the record changed.
    ///
    /// * An `Install` lands only at the key's next sequence (overlapping
    ///   pages are idempotent) and moves the visibility frontier to the
    ///   commit clocks its stamp carries; a scalar stamp carries none, and
    ///   under TS nothing reads the frontier. A peer's install is logged
    ///   and recorded like a live one; the replica's own is not logged
    ///   again, since the log being replayed is its record.
    /// * A `Decision` marks its transaction terminated and finishes a
    ///   coordinator entry rebuilt from the log: with a client reply if a
    ///   peer decided it, silently if the replica's own log did (its client
    ///   heard back before the crash).
    /// * A `Submit` rebuilds its coordinator entry from the logged sets.
    fn replay(&mut self, ctx: &mut Context<'_, Msg>, rec: LogRecord, from_peer: bool) -> Replayed {
        match rec {
            LogRecord::Install {
                key,
                seq,
                stamp,
                writer,
                value,
            } => {
                let next = self.store.latest_seq(key).map_or(0, |s| s + 1);
                if !self.is_local(key) || seq != next {
                    return Replayed::Nothing;
                }
                if let Some(vec) = stamp.as_vec().filter(|v| v.dim() == self.knowledge.dim()) {
                    for (p, s) in vec.iter().enumerate() {
                        if s > self.knowledge.get(p) {
                            self.advance_frontier(p, s);
                        }
                    }
                }
                if from_peer {
                    self.install(ctx, key, &value, stamp, writer);
                } else {
                    self.store.install(key, value, stamp, writer);
                }
                Replayed::Installed
            }
            LogRecord::Decision { tx, commit } => {
                let held = self.decided_outcomes.get(&tx) == [true, commit]
                    && self.done.contains(&tx)
                    && !self.coord.contains_key(&tx);
                self.decided_outcomes.set(tx, [true, commit]);
                if !self.coord.contains_key(&tx) {
                    self.done.insert(tx);
                } else if from_peer {
                    self.finish_coord(ctx, tx, commit, None);
                } else {
                    self.coord.remove(&tx);
                    self.done.insert(tx);
                }
                if held {
                    Replayed::Nothing
                } else {
                    Replayed::Recorded
                }
            }
            LogRecord::Submit { tx, rs, ws, dep } => {
                let rs = rs.into_iter().map(|(key, seq)| ReadEntry { key, seq });
                let ws: Vec<WriteEntry> = ws
                    .into_iter()
                    .map(|(key, base_seq, value)| WriteEntry {
                        key,
                        value,
                        base_seq,
                    })
                    .collect();
                let dep = VersionVec::from_entries(dep);
                let payload = TermPayload::new(tx, self.me, ws.is_empty(), rs.collect(), ws, dep);
                let mut t = CoordTxn::new(ProcessId(tx.coord()), payload);
                // Its participants may have voted before the crash.
                t.resent = true;
                self.coord.insert(tx, t);
                Replayed::Recorded
            }
        }
    }

    /// Starts the peer state transfer: one request stream per peer, each
    /// covering the local partitions that peer also hosts. Partitions with
    /// no second replica cannot be caught up (their committed-but-unlogged
    /// tail is unrecoverable); the WAL replay is all they get.
    fn start_catchup(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut served: BTreeMap<ProcessId, Vec<u32>> = BTreeMap::new();
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
            served.entry(self.pid_of_site(peer)).or_default().push(p.0);
        }
        // What the own replay left, named once for the whole transfer.
        let decided: Vec<(u64, u64)> = self.decided_outcomes.words(0).collect();
        let summary = |partitions: &[u32]| {
            let written = self
                .store
                .written()
                .filter(|(key, _)| partitions.contains(&self.cfg.placement.partition_of(*key).0));
            Arc::new(CatchupSummary::new(written.collect(), decided.clone()))
        };
        let pending: BTreeMap<ProcessId, CatchupPeer> = served
            .into_iter()
            .map(|(peer, partitions)| {
                let held = summary(&partitions);
                let stream = CatchupPeer {
                    partitions,
                    from: 0,
                    held,
                    timer: None,
                };
                (peer, stream)
            })
            .collect();
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
        let Some((partitions, from, held)) = self
            .catchup
            .as_ref()
            .and_then(|cu| cu.pending.get(&peer))
            .map(|p| (p.partitions.clone(), p.from, Arc::clone(&p.held)))
        else {
            return;
        };
        let after = Self::READ_TIMEOUT.saturating_mul(4);
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
                held,
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

    /// Serves one page of catch-up state from this replica's own log: the
    /// install records of the requested partitions and the decisions that
    /// the requester's summary `held` does not already hold, their frames
    /// copied as they lie. Reads the log from `start` and stops when the
    /// page is full, so a page costs its own records, not the log's; a
    /// skipped record costs no virtual time, and a shipped one is charged
    /// to its [`replay_share`] of the replica's cores, as a restart's replay.
    pub(super) fn on_catchup_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        partitions: &[u32],
        start: u64,
        max: u32,
        held: &CatchupSummary,
    ) {
        let mut page = Wal::new();
        let cores = ctx.cores();
        let mut shares = vec![SimDuration::ZERO; cores];
        let mut records_wire = 0;
        let mut idx = start;
        let mut frames = self.wal.iter().flat_map(|wal| wal.frames_from(start));
        while page.len() < u64::from(max) {
            let Some((head, frame)) = frames.next() else {
                break;
            };
            self.stats.catchup_records_decoded += 1;
            idx += 1;
            let (wire, id) = match head {
                RecordHead::Install {
                    key,
                    seq,
                    stamp_wire,
                    value_len,
                } if partitions.contains(&self.cfg.placement.partition_of(key).0)
                    && held.lacks_install(key, seq) =>
                {
                    (24 + stamp_wire + value_len, key.0)
                }
                RecordHead::Decision { tx } if held.lacks_decision(tx) => (17, tx.code()),
                _ => continue,
            };
            records_wire += wire;
            shares[replay_share(id, cores)] += self.cfg.costs.per_log_append;
            page.append_frame(frame);
        }
        self.stats.catchup_pages += 1;
        self.stats.catchup_records_shipped += page.len();
        ctx.consume_parallel(&shares);
        // A live log holds only intact frames, so a record remains after
        // the page iff the page stopped short of the log's length.
        let next = (idx < self.wal.as_ref().map_or(0, |wal| wal.len())).then_some(idx);
        let frontier = if next.is_none() {
            partitions
                .iter()
                .filter(|p| (**p as usize) < self.knowledge.dim())
                .map(|p| (*p, self.knowledge.get(*p as usize)))
                .collect()
        } else {
            Vec::new()
        };
        let records_wire = u32::try_from(records_wire).expect("a page's size fits u32");
        ctx.send(
            from,
            Msg::CatchupRep {
                page,
                records_wire,
                next,
                frontier,
            },
        );
    }

    /// Applies one page of catch-up state, record by record in the peer's
    /// log order through [`Replica::replay`], then either requests the next
    /// page or adopts the peer's frontier and finishes this stream.
    pub(super) fn on_catchup_rep(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        page: Wal,
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
        let (mut applied, mut unchanged) = (0, 0);
        Wal::from_image(page.into_image(), |rec| match self.replay(ctx, rec, true) {
            Replayed::Installed => {
                ctx.consume(self.cfg.costs.per_apply);
                applied += 1;
            }
            Replayed::Nothing => unchanged += 1,
            Replayed::Recorded => {}
        });
        self.stats.catchup_installs += applied;
        self.stats.catchup_records_unchanged += unchanged;
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
        // The last page: adopt the peer's visibility frontier, which also
        // covers the aborted commit clocks that no install records.
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
            let preempt = self.certifier.has_conflict(&p.payload);
            self.cast_vote(ctx, tx, preempt);
        }
        let parked: Vec<(TxId, bool)> = self
            .part
            .sorted_keys()
            .into_iter()
            .filter_map(|tx| Some((tx, self.part[&tx].outcome?)))
            .collect();
        for (tx, commit) in parked {
            self.terminate(ctx, tx, commit);
            self.wake(ctx);
        }
    }
}
