//! The execution protocol (Algorithm 1): `begin`, reads chosen under the
//! transaction's snapshot — locally, or remotely with failover — the write
//! buffer, and the reads parked until they can be served.

use super::*;

impl Replica {
    fn fresh_snapshot(&self) -> Snapshot {
        use crate::spec::ChooseRule;
        let dim = self
            .cfg
            .spec
            .versioning
            .dim(self.cfg.replica_pids.len(), self.cfg.placement.partitions());
        if dim == 0 {
            return Snapshot::unconstrained();
        }
        match (
            self.cfg.spec.choose,
            self.cfg.spec.versioning.fixed_snapshot(),
        ) {
            // choose_last still ships mechanism-sized metadata (GMU*), but
            // the snapshot never constrains reads because it is never
            // pinned or observed.
            (ChooseRule::Last, _) => Snapshot::greedy(dim),
            (ChooseRule::Consistent, true) => Snapshot::fixed(&self.knowledge),
            (ChooseRule::Consistent, false) => Snapshot::greedy(dim),
        }
    }

    /// `choose` (Algorithm 1, lines 22–30): selects a version of `key` from
    /// the local store under `snap`, updating the snapshot context, and
    /// returns its value, sequence number and stamp wire size. `None` if
    /// the store no longer retains a version the snapshot admits: a read
    /// held back long enough on a hot key (parked through a recovery, say)
    /// outlives the bounded version history, and cannot be served.
    fn choose_version(&mut self, key: Key, snap: &mut Snapshot) -> Option<(Value, u64, u32)> {
        use crate::spec::ChooseRule;
        let p = self.cfg.placement.partition_of(key).index();
        let rec = match self.cfg.spec.choose {
            ChooseRule::Last => self
                .store
                .latest(key)
                .unwrap_or_else(|| panic!("read of unhosted key {key} at {}", self.me)),
            ChooseRule::Consistent => {
                // Under TS (Serrano) the snapshot and the frontier are empty.
                if p < self.knowledge.dim() {
                    snap.pin(p, self.knowledge.get(p));
                }
                let rec = self
                    .store
                    .versions(key)
                    .unwrap_or_else(|| panic!("read of unhosted key {key} at {}", self.me))
                    .iter()
                    .rev()
                    .find(|r| snap.admits(&r.stamp))?;
                snap.observe(&rec.stamp);
                rec
            }
        };
        let stamp_bytes = u32::try_from(rec.stamp.wire_size()).expect("stamp size fits u32");
        Some((rec.value.clone(), rec.seq, stamp_bytes))
    }

    pub(super) fn on_client_op(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        tx: TxId,
        op: ClientOp,
    ) {
        if !matches!(op, ClientOp::Begin) && !self.executing.contains_key(&tx) {
            // The volatile execution state of this transaction is gone —
            // the coordinator crashed since `Begin` — so answer the client
            // with an abort instead of leaving it waiting forever.
            ctx.send(
                from,
                Msg::Reply {
                    tx,
                    reply: ClientReply::Outcome {
                        committed: false,
                        cause: Some(AbortCause::Crash),
                    },
                },
            );
            return;
        }
        match op {
            ClientOp::Begin => {
                ctx.trace(labels::TXN_BEGIN, tx.code(), 0);
                let snapshot = self.fresh_snapshot();
                self.executing.insert(tx, ExecTxn::new(from, snapshot));
                ctx.send(
                    from,
                    Msg::Reply {
                        tx,
                        reply: ClientReply::Began,
                    },
                );
            }
            ClientOp::Read { key } => self.start_read(ctx, tx, key, None),
            ClientOp::Update { key, value } => self.start_read(ctx, tx, key, Some(value)),
            ClientOp::Commit => self.submit(ctx, tx),
        }
    }

    /// Starts a read (or the read half of a read-modify-write).
    fn start_read(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        key: Key,
        update: Option<Value>,
    ) {
        let Some(t) = self.executing.get(&tx) else {
            return; // transaction already aborted/untracked
        };
        // Read-your-writes from the buffer (Algorithm 1, line 10).
        if t.ws.iter().any(|w| w.key == key) {
            let client = t.client;
            let t = self.executing.get_mut(&tx).expect("present");
            let entry = t.ws.iter_mut().find(|w| w.key == key).expect("just found");
            let reply = match update {
                Some(v) => {
                    entry.value = v;
                    ClientReply::UpdateDone { key }
                }
                None => ClientReply::ReadDone {
                    key,
                    value: entry.value.clone(),
                },
            };
            ctx.send(client, Msg::Reply { tx, reply });
            return;
        }
        if self.is_local(key) {
            // The local frontier, too, may lag a snapshot the transaction
            // already holds (the sibling install of an admitted write is
            // still in flight): defer until it lands.
            let p = self.cfg.placement.partition_of(key).index();
            if let Some(bound) = self.read_blocked(p, &t.snapshot) {
                self.park_read(p, bound, DeferredRead::Local(tx, key, update));
                return;
            }
            let mut snap = std::mem::replace(
                &mut self.executing.get_mut(&tx).expect("present").snapshot,
                Snapshot::unconstrained(),
            );
            ctx.consume(self.cfg.costs.per_read);
            let Some((value, seq, _)) = self.choose_version(key, &mut snap) else {
                return self.finish_coord(ctx, tx, false, Some(AbortCause::ReadImpossible));
            };
            let t = self.executing.get_mut(&tx).expect("present");
            t.snapshot = snap;
            let reply = t.read_done(key, seq, value, update);
            ctx.send(t.client, Msg::Reply { tx, reply });
        } else {
            // Remote read (Algorithm 1, line 13): ask the nearest replica.
            let t = self.executing.get_mut(&tx).expect("present");
            t.pending_read = Some((key, update, 0));
            self.send_remote_read(ctx, tx, key, 0);
        }
    }

    /// Picks the read target for `key` at the given failover attempt:
    /// attempt 0 prefers the nearest unsuspected replica; later attempts
    /// rotate through the partition's unsuspected replicas, falling back to
    /// the full list if everything is suspected.
    fn read_target_site(&self, key: Key, attempt: usize) -> SiteId {
        let p = self.cfg.placement.partition_of(key);
        let replicas = self.cfg.placement.replicas(p);
        let live: Vec<SiteId>;
        let pool: &[SiteId] = if replicas.iter().any(|s| self.suspected.contains(s)) {
            live = replicas
                .iter()
                .copied()
                .filter(|s| !self.suspected.contains(s))
                .collect();
            if live.is_empty() {
                replicas
            } else {
                &live
            }
        } else {
            replicas
        };
        let nearest = self.cfg.read_target[p.index()];
        if attempt == 0 && pool.contains(&nearest) {
            nearest
        } else {
            pool[attempt % pool.len()]
        }
    }

    /// Issues (or re-issues) a remote read for `key`, picking the replica
    /// by attempt number with failure suspicion.
    fn send_remote_read(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, key: Key, attempt: usize) {
        ctx.trace(labels::TXN_READ_REMOTE, tx.code(), attempt as u64);
        let target_site = self.read_target_site(key, attempt);
        let target = self.pid_of_site(target_site);
        let Some(t) = self.executing.get(&tx) else {
            return;
        };
        let snap = t.snapshot.clone();
        ctx.consume(self.stamp_cost(snap.meta_entries()));
        ctx.send(target, Msg::ReadReq { tx, key, snap });
        let timer = self.arm(ctx, Self::READ_TIMEOUT, Timer::Read(tx));
        if let Some(t) = self.executing.get_mut(&tx) {
            t.read_timer = Some(timer);
        }
    }

    /// The read-failover timer of `tx` fired: if the read is still pending,
    /// suspect the unresponsive replica and re-iterate the request to
    /// another one.
    pub(super) fn fail_over_read(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.executing.get_mut(&tx) else {
            return;
        };
        let Some((key, _, attempt)) = t.pending_read.as_mut() else {
            return;
        };
        let (key, prev_attempt) = (*key, *attempt);
        *attempt += 1;
        let attempt = prev_attempt + 1;
        let timed_out = self.read_target_site(key, prev_attempt);
        self.suspected.insert(timed_out);
        if self.cfg.max_read_attempts.is_some_and(|max| attempt >= max) {
            // The read cannot be served: every failover attempt is
            // exhausted, so the transaction aborts instead of re-iterating
            // forever.
            let t = self.executing.get_mut(&tx).expect("present");
            t.pending_read = None;
            t.read_timer = None;
            self.finish_coord(ctx, tx, false, Some(AbortCause::ReadImpossible));
        } else {
            self.send_remote_read(ctx, tx, key, attempt);
        }
        // New suspicion may unwedge orphaned queries at the queue head.
        self.process_queue(ctx);
    }

    pub(super) fn on_read_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        tx: TxId,
        key: Key,
        snap: Snapshot,
    ) {
        ctx.consume(self.cfg.costs.per_read + self.stamp_cost(snap.meta_entries()));
        self.stats.remote_reads_served += 1;
        self.serve_remote_read(ctx, from, tx, key, snap);
    }

    /// Parks `read` of partition `p` on what it waits for: the end of the
    /// recovery, or `knowledge[p]` reaching the snapshot's wait `bound`.
    fn park_read(&mut self, p: usize, bound: u64, read: DeferredRead) {
        self.stats.reads_parked += 1;
        if self.recovering() {
            return self.parked.recovery.push(read);
        }
        let waiters = self.parked.frontier.entry((p, bound)).or_default();
        waiters.push(read);
    }

    /// Reads still parked (0 at idle once every recovery has completed and
    /// every admitted install has landed).
    pub fn parked_reads(&self) -> usize {
        let behind: usize = self.parked.frontier.values().map(Vec::len).sum();
        self.parked.recovery.len() + behind + self.parked.woken.len()
    }

    /// Serves the reads the running handler woke, so each reply leaves at
    /// the service end of the handler that made it servable. A read still
    /// held back by a second condition parks anew.
    pub(super) fn serve_woken_reads(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.parked.woken.is_empty() {
            return;
        }
        let parked = self.stats.reads_parked;
        for read in std::mem::take(&mut self.parked.woken) {
            self.stats.parked_read_checks += 1;
            match read {
                DeferredRead::Remote(from, tx, key, snap) => {
                    self.serve_remote_read(ctx, from, tx, key, snap);
                }
                DeferredRead::Local(tx, key, update) => self.start_read(ctx, tx, key, update),
            }
        }
        // Only woken reads parked in the loop, and each was counted at its
        // arrival already.
        self.stats.reads_parked = parked;
        debug_assert!(self.parked.woken.is_empty(), "serving a read woke one");
    }

    /// Why a read of partition `p` under `snap` cannot be served now, as the
    /// wait bound to park it on: a recovery is rebuilding the store, or —
    /// under vote-time commit clocks — the visibility frontier lags the
    /// snapshot's wait bound, so this replica may still be missing installs
    /// the snapshot already admits and serving now would fracture atomic
    /// visibility.
    fn read_blocked(&self, p: usize, snap: &Snapshot) -> Option<u64> {
        let blocked = self.recovering()
            || (self.vote_clocked() && snap.wait_bound(p) > self.knowledge.get(p));
        blocked.then(|| snap.wait_bound(p))
    }

    /// Serves a remote read, or parks it until it can be served.
    fn serve_remote_read(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        tx: TxId,
        key: Key,
        mut snap: Snapshot,
    ) {
        let p = self.cfg.placement.partition_of(key).index();
        if let Some(bound) = self.read_blocked(p, &snap) {
            self.park_read(p, bound, DeferredRead::Remote(from, tx, key, snap));
            return;
        }
        // An unservable read gets no reply: the requester's failover timer
        // re-iterates it at another replica, and `max_read_attempts` aborts
        // the transaction with `ReadImpossible` if none can serve it either.
        let Some((value, seq, stamp_bytes)) = self.choose_version(key, &mut snap) else {
            return;
        };
        ctx.send(
            from,
            Msg::ReadRep {
                tx,
                key,
                value,
                seq,
                stamp_bytes,
                snap,
            },
        );
    }

    pub(super) fn on_read_rep(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        key: Key,
        value: Value,
        seq: u64,
        snap: Snapshot,
    ) {
        let Some(t) = self.executing.get_mut(&tx) else {
            return;
        };
        let Some((pending_key, update, _attempt)) = t.pending_read.take() else {
            return; // duplicate reply after a failover retry
        };
        if pending_key != key {
            // Stale reply of an earlier op; restore state and ignore.
            t.pending_read = Some((pending_key, update, _attempt));
            return;
        }
        let timer = t.read_timer.take();
        t.snapshot = snap;
        let reply = t.read_done(key, seq, value, update);
        let client = t.client;
        if let Some(timer) = timer {
            self.cancel(ctx, timer);
        }
        ctx.send(client, Msg::Reply { tx, reply });
    }
}
