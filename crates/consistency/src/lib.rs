//! # gdur-consistency — checking what each protocol promises
//!
//! The paper assigns one consistency criterion to each protocol (§6):
//! SER to P-Store and S-DUR, US to GMU, SI to Serrano, PSI to Walter, NMSI
//! to Jessy2pc, and RC to the baseline. This crate turns recorded
//! execution histories (coordinator outcome records + replica install
//! events, see [`gdur_core::Replica`]) into verdicts:
//!
//! * **read-committed reads** — every read refers to a version that was
//!   seeded or installed by a committed transaction;
//! * **no fractured reads** — no transaction observes half of another
//!   transaction's writes (required by all criteria above RC);
//! * **first-committer-wins** — per-key version sequences are contiguous
//!   and every committed write supersedes exactly the version it read
//!   (the write-write safety of the SI family);
//! * **(update) serializability** — the direct serialization graph over
//!   (update) transactions is acyclic;
//! * **replica agreement** — in disaster-tolerant placements, both
//!   replicas of a partition install the same version sequence.
//!
//! The monotonicity distinctions between SI, PSI and NMSI (which of the
//! paper's snapshot criteria admit non-monotonic snapshots) are not
//! decidable from these records alone and are documented as out of scope
//! in DESIGN.md.

use std::collections::{BTreeMap, BTreeSet};

use gdur_core::Cluster;
use gdur_net::SiteId;
use gdur_store::{Key, TxId};

/// A recorded, committed (or aborted) transaction with resolved versions.
#[derive(Debug, Clone)]
pub struct HistoryTxn<'a> {
    /// Transaction id.
    pub tx: TxId,
    /// True if committed.
    pub committed: bool,
    /// True if the transaction wrote nothing.
    pub read_only: bool,
    /// Site of the coordinator (the replica whose outcome log holds it).
    pub site: SiteId,
    /// Reads: key → per-key sequence observed, borrowed from the
    /// coordinator's outcome log.
    pub reads: &'a [(Key, u64)],
    /// Writes: key → per-key sequence *installed* (resolved from replica
    /// install events; `None` if the install record is missing). Empty,
    /// and unallocated, for queries.
    pub writes: Vec<(Key, Option<u64>)>,
}

// One per decided transaction of the run: a field added here is paid
// 10⁵ times on a benchmark workload.
const _: () = assert!(std::mem::size_of::<HistoryTxn<'static>>() <= 56);

/// A full recorded execution. It borrows the replicas' outcome logs
/// ([`gdur_core::Replica::outcomes`]) for the read sets, so it lives no
/// longer than the [`Cluster`] it was taken from.
#[derive(Debug, Clone, Default)]
pub struct History<'a> {
    /// All terminated transactions.
    pub txns: Vec<HistoryTxn<'a>>,
    /// Version table: (key, seq) → writer. Where replicas disagree, the
    /// writer installed at the lowest site.
    pub versions: BTreeMap<(Key, u64), TxId>,
    /// Every (key, seq) for which two replicas installed different writers.
    pub divergent: Vec<Divergence>,
}

/// Two replicas that installed different writers as one version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// The key in question.
    pub key: Key,
    /// The conflicting sequence.
    pub seq: u64,
    /// The replica scanned first and the writer it installed.
    pub first: (SiteId, TxId),
    /// A later replica and the different writer it installed.
    pub second: (SiteId, TxId),
}

/// The kind of a serialization-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Write-write: the target overwrote the version the source installed.
    Ww,
    /// Write-read: the target read the version the source installed.
    Wr,
    /// Read-write (anti-dependency): the target overwrote the version the
    /// source read.
    Rw,
}

/// One edge of a serialization cycle, `from —kind key@seq→` the next hop's
/// `from` (the last hop closes on the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleHop {
    /// The source transaction.
    pub from: TxId,
    /// True if `from` is a query (wrote nothing).
    pub query: bool,
    /// `from`'s coordinator site.
    pub site: SiteId,
    /// The dependency that orders `from` before the next transaction.
    pub kind: DepKind,
    /// The key the dependency is on.
    pub key: Key,
    /// The version of `key` that `from` installed (`Ww`, `Wr`) or read
    /// (`Rw`).
    pub seq: u64,
}

/// A detected consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A transaction read a version that was never installed.
    DirtyRead {
        /// The offending reader.
        tx: TxId,
        /// The phantom version.
        key: Key,
        /// Its sequence.
        seq: u64,
    },
    /// A transaction observed part of another transaction's writes.
    FracturedRead {
        /// The offending reader.
        reader: TxId,
        /// The half-observed writer.
        writer: TxId,
        /// Key where the writer was observed.
        seen_key: Key,
        /// Key where the writer was missed.
        missed_key: Key,
    },
    /// Two committed transactions overwrote the same version.
    LostUpdate {
        /// The key in question.
        key: Key,
        /// The version that was doubly superseded, or a gap.
        seq: u64,
    },
    /// The serialization graph has a cycle.
    SerializationCycle {
        /// A simple cycle, one hop per transaction on it.
        cycle: Vec<CycleHop>,
    },
    /// Two replicas of one partition installed different writers for the
    /// same (key, seq).
    ReplicaDivergence(Divergence),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DirtyRead { tx, key, seq } => {
                write!(f, "{tx} read uninstalled version {key}@{seq}")
            }
            Violation::FracturedRead {
                reader,
                writer,
                seen_key,
                missed_key,
            } => write!(
                f,
                "{reader} saw {writer}'s write on {seen_key} but not on {missed_key}"
            ),
            Violation::LostUpdate { key, seq } => {
                write!(f, "version {key}@{seq} doubly superseded or gapped")
            }
            Violation::SerializationCycle { cycle } => {
                write!(f, "serialization cycle through {} txns:", cycle.len())?;
                for hop in cycle {
                    let role = if hop.query { "query" } else { "update" };
                    let kind = match hop.kind {
                        DepKind::Ww => "ww",
                        DepKind::Wr => "wr",
                        DepKind::Rw => "rw",
                    };
                    write!(
                        f,
                        " {} ({role} @ {}) —{kind} {}@{}→",
                        hop.from, hop.site, hop.key, hop.seq
                    )?;
                }
                match cycle.first() {
                    Some(first) => write!(f, " {}", first.from),
                    None => Ok(()),
                }
            }
            Violation::ReplicaDivergence(d) => write!(
                f,
                "replicas diverge on {}@{}: {} installed {}'s write, {} installed {}'s",
                d.key, d.seq, d.first.0, d.first.1, d.second.0, d.second.1
            ),
        }
    }
}

impl<'a> History<'a> {
    /// Extracts the history of a finished run (requires the cluster to
    /// have been built with `record_history = true`). Read sets are
    /// borrowed from the replicas' outcome logs, not copied.
    pub fn from_cluster(cluster: &'a Cluster) -> History<'a> {
        let sites = cluster.placement().sites();
        let replica = |s: usize| cluster.replica(SiteId(s as u16));
        let mut versions: BTreeMap<(Key, u64), TxId> = BTreeMap::new();
        let mut divergent = Vec::new();
        for s in 0..sites {
            for ev in replica(s).installs() {
                let first = *versions.entry((ev.key, ev.seq)).or_insert(ev.tx);
                if first != ev.tx {
                    // Rare enough to look the first installer up again.
                    let first_site = (0..=s).find(|p| {
                        let mut installs = replica(*p).installs().iter();
                        installs.any(|e| (e.key, e.seq, e.tx) == (ev.key, ev.seq, first))
                    });
                    divergent.push(Divergence {
                        key: ev.key,
                        seq: ev.seq,
                        first: (SiteId(first_site.expect("installed earlier") as u16), first),
                        second: (SiteId(s as u16), ev.tx),
                    });
                }
            }
        }
        // (writer, key, seq) for resolving writes, sorted: a writer's
        // installs of one key are contiguous, the lowest sequence first.
        let mut installed: Vec<(TxId, Key, u64)> = versions
            .iter()
            .map(|(&(key, seq), &tx)| (tx, key, seq))
            .collect();
        installed.sort_unstable();
        let installed_seq = |tx: TxId, key: Key| {
            let i = installed.partition_point(|&(t, k, _)| (t, k) < (tx, key));
            installed
                .get(i)
                .filter(|&&(t, k, _)| (t, k) == (tx, key))
                .map(|&(_, _, seq)| seq)
        };
        let logged = (0..sites).map(|s| replica(s).outcomes().len()).sum();
        let mut txns = Vec::with_capacity(logged);
        for s in 0..sites {
            let site = SiteId(s as u16);
            for rec in replica(s).outcomes() {
                txns.push(HistoryTxn {
                    tx: rec.tx,
                    committed: rec.committed,
                    read_only: rec.writes.is_empty(),
                    site,
                    reads: rec.reads,
                    writes: (rec.writes.iter())
                        .map(|&k| (k, installed_seq(rec.tx, k)))
                        .collect(),
                });
            }
        }
        History {
            txns,
            versions,
            divergent,
        }
    }

    /// Committed transactions.
    pub fn committed(&self) -> impl Iterator<Item = &HistoryTxn<'a>> {
        self.txns.iter().filter(|t| t.committed)
    }
}

pub use gdur_core::Criterion;

/// Extension trait attaching the history oracle to [`Criterion`] (the enum
/// itself lives in `gdur-core` so a [`gdur_core::ProtocolSpec`] can claim
/// the criterion it implements; the checking logic stays here).
pub trait CriterionCheck {
    /// Runs every check the criterion implies; returns the first violation.
    fn check(self, h: &History) -> Result<(), Violation>;
}

impl CriterionCheck for Criterion {
    /// Replica agreement is required by every criterion except RC and RA:
    /// both run with no write-write certification (RC also commutes
    /// everything), so concurrent writers of one key may be applied in
    /// different orders at the two replicas of a disaster-tolerant
    /// partition. The paper positions RC purely as the
    /// maximum-performance baseline ("without any additional guarantee"),
    /// and read atomicity promises unfractured reads only — neither
    /// criterion orders write-write conflicts.
    fn check(self, h: &History) -> Result<(), Violation> {
        check_read_committed(h)?;
        if !matches!(self, Criterion::Rc | Criterion::Ra) {
            check_replica_agreement(h)?;
        }
        match self {
            Criterion::Rc => Ok(()),
            Criterion::Ra => check_no_fractured_reads(h),
            Criterion::Si | Criterion::Psi | Criterion::Nmsi => {
                check_no_fractured_reads(h)?;
                check_first_committer_wins(h)
            }
            Criterion::Us => {
                check_no_fractured_reads(h)?;
                check_serializability(h, false)
            }
            Criterion::Ser => {
                check_no_fractured_reads(h)?;
                check_serializability(h, true)
            }
        }
    }
}

/// Every read refers to the seed version or an installed committed
/// version.
pub fn check_read_committed(h: &History) -> Result<(), Violation> {
    for t in h.committed() {
        for (key, seq) in t.reads {
            if *seq != 0 && !h.versions.contains_key(&(*key, *seq)) {
                return Err(Violation::DirtyRead {
                    tx: t.tx,
                    key: *key,
                    seq: *seq,
                });
            }
        }
    }
    Ok(())
}

/// DT replicas must install identical writers per (key, seq).
pub fn check_replica_agreement(h: &History) -> Result<(), Violation> {
    match h.divergent.first() {
        Some(d) => Err(Violation::ReplicaDivergence(*d)),
        None => Ok(()),
    }
}

/// No transaction sees part of another committed transaction's write set.
///
/// Runs after *every* harness experiment, so it must stay fast at paper
/// scale: instead of testing each reader against every writer (quadratic),
/// only writers installing ≥ 2 keys can fracture a read, and only those
/// sharing ≥ 2 keys with the reader's read set need the seen/missed test.
/// A key → multi-key-writers index makes the candidate set per reader
/// proportional to the contention on its read keys, not to the history.
pub fn check_no_fractured_reads(h: &History) -> Result<(), Violation> {
    // writer → its installed writes.
    let mut writes_of: BTreeMap<TxId, BTreeMap<Key, u64>> = BTreeMap::new();
    for ((key, seq), tx) in &h.versions {
        writes_of.entry(*tx).or_default().insert(*key, *seq);
    }
    // key → writers that installed this key *and* at least one other.
    let mut multi_writers: BTreeMap<Key, Vec<TxId>> = BTreeMap::new();
    for (tx, ws) in &writes_of {
        if ws.len() >= 2 {
            for key in ws.keys() {
                multi_writers.entry(*key).or_default().push(*tx);
            }
        }
    }
    for t in h.committed() {
        let read_map: BTreeMap<Key, u64> = t.reads.iter().copied().collect();
        // candidate writer → number of keys both read by t and written by it.
        let mut overlap_count: BTreeMap<TxId, usize> = BTreeMap::new();
        for key in read_map.keys() {
            for w in multi_writers.get(key).map(|v| v.as_slice()).unwrap_or(&[]) {
                *overlap_count.entry(*w).or_insert(0) += 1;
            }
        }
        for (writer, n) in overlap_count {
            if writer == t.tx || n < 2 {
                continue;
            }
            let ws = &writes_of[&writer];
            // Keys both read by t and written by `writer`.
            let overlap: Vec<(Key, u64, u64)> = ws
                .iter()
                .filter_map(|(k, wseq)| read_map.get(k).map(|rseq| (*k, *wseq, *rseq)))
                .collect();
            let saw: Vec<bool> = overlap.iter().map(|(_, w, r)| r >= w).collect();
            if saw.iter().any(|s| *s) && !saw.iter().all(|s| *s) {
                let seen = overlap[saw.iter().position(|s| *s).expect("any")].0;
                let missed = overlap[saw.iter().position(|s| !*s).expect("not all")].0;
                return Err(Violation::FracturedRead {
                    reader: t.tx,
                    writer,
                    seen_key: seen,
                    missed_key: missed,
                });
            }
        }
    }
    Ok(())
}

/// Per-key version sequences are contiguous — no committed write ever
/// superseded the same base twice (first-committer-wins).
pub fn check_first_committer_wins(h: &History) -> Result<(), Violation> {
    let mut per_key: BTreeMap<Key, BTreeSet<u64>> = BTreeMap::new();
    for (key, seq) in h.versions.keys() {
        per_key.entry(*key).or_default().insert(*seq);
    }
    for (key, seqs) in per_key {
        for (s, expected) in seqs.into_iter().zip(1..) {
            if s != expected {
                return Err(Violation::LostUpdate { key, seq: expected });
            }
        }
    }
    Ok(())
}

/// A dependency that orders `a` before `b` in the serialization graph
/// (the graph keeps bare edges; only a reported cycle needs the reasons).
fn dependency(h: &History, a: &HistoryTxn, b: &HistoryTxn) -> (DepKind, Key, u64) {
    let wrote = |t: &HistoryTxn, key: Key, seq: u64| h.versions.get(&(key, seq)) == Some(&t.tx);
    let wr = (b.reads.iter().copied())
        .filter(|(k, s)| *s > 0 && wrote(a, *k, *s))
        .map(|(k, s)| (DepKind::Wr, k, s));
    let rw = (a.reads.iter().copied())
        .filter(|(k, s)| wrote(b, *k, *s + 1))
        .map(|(k, s)| (DepKind::Rw, k, s));
    let ww = (b.writes.iter())
        .filter_map(|(k, s)| Some((*k, (*s)?.checked_sub(1)?)))
        .filter(|(k, prev)| *prev > 0 && wrote(a, *k, *prev))
        .map(|(k, prev)| (DepKind::Ww, k, prev));
    wr.chain(rw).chain(ww).next().expect("an edge has a reason")
}

/// Builds the direct serialization graph and checks acyclicity.
///
/// Nodes are committed transactions (updates only when `include_queries`
/// is false — update serializability); edges are write-read, write-write
/// and read-write (anti-) dependencies derived from per-key version
/// sequences. A violation carries one simple cycle: the DFS stack from the
/// node the back edge closes on, not from the DFS root.
pub fn check_serializability(h: &History, include_queries: bool) -> Result<(), Violation> {
    let mut nodes: Vec<&HistoryTxn> = Vec::new();
    let mut index: BTreeMap<TxId, usize> = BTreeMap::new();
    for t in h.committed() {
        if include_queries || !t.read_only {
            index.entry(t.tx).or_insert_with(|| {
                nodes.push(t);
                nodes.len() - 1
            });
        }
    }
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
    let add = |from: TxId, to: TxId, edges: &mut Vec<BTreeSet<usize>>| {
        if from == to {
            return;
        }
        if let (Some(a), Some(b)) = (index.get(&from), index.get(&to)) {
            edges[*a].insert(*b);
        }
    };
    for t in h.committed() {
        if !include_queries && t.read_only {
            continue;
        }
        for (key, seq) in t.reads {
            // write-read: version writer → reader.
            if *seq > 0 {
                if let Some(w) = h.versions.get(&(*key, *seq)) {
                    add(*w, t.tx, &mut edges);
                }
            }
            // read-write: reader → writer of the next version.
            if let Some(w_next) = h.versions.get(&(*key, *seq + 1)) {
                add(t.tx, *w_next, &mut edges);
            }
        }
        for (key, seq) in &t.writes {
            let Some(seq) = seq else { continue };
            // write-write: previous version's writer → this writer.
            if *seq > 1 {
                if let Some(w_prev) = h.versions.get(&(*key, *seq - 1)) {
                    add(*w_prev, t.tx, &mut edges);
                }
            }
        }
    }
    // Iterative DFS cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; nodes.len()];
    for start in 0..nodes.len() {
        if marks[start] != Mark::White {
            continue;
        }
        let mut stack: Vec<(usize, Vec<usize>)> =
            vec![(start, edges[start].iter().copied().collect())];
        marks[start] = Mark::Grey;
        while let Some((node, succs)) = stack.last_mut() {
            if let Some(next) = succs.pop() {
                match marks[next] {
                    Mark::White => {
                        marks[next] = Mark::Grey;
                        let s = edges[next].iter().copied().collect();
                        stack.push((next, s));
                    }
                    Mark::Grey => {
                        let on_cycle: Vec<usize> = stack
                            .iter()
                            .map(|(n, _)| *n)
                            .skip_while(|n| *n != next)
                            .collect();
                        let cycle = on_cycle
                            .iter()
                            .zip(on_cycle.iter().skip(1).chain([&next]))
                            .map(|(&a, &b)| {
                                let (kind, key, seq) = dependency(h, nodes[a], nodes[b]);
                                CycleHop {
                                    from: nodes[a].tx,
                                    query: nodes[a].read_only,
                                    site: nodes[a].site,
                                    kind,
                                    key,
                                    seq,
                                }
                            })
                            .collect();
                        return Err(Violation::SerializationCycle { cycle });
                    }
                    Mark::Black => {}
                }
            } else {
                marks[*node] = Mark::Black;
                stack.pop();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(n: u64) -> TxId {
        TxId::new(1, n)
    }

    /// A transaction whose read set, like one borrowed from an outcome log,
    /// outlives the history (leaked: a test's few bytes).
    fn txn(
        id: u64,
        reads: Vec<(u64, u64)>,
        writes: Vec<(u64, u64)>,
        committed: bool,
    ) -> HistoryTxn<'static> {
        let reads: Vec<(Key, u64)> = reads.into_iter().map(|(k, s)| (Key(k), s)).collect();
        HistoryTxn {
            tx: tx(id),
            committed,
            read_only: writes.is_empty(),
            site: SiteId(0),
            reads: reads.leak(),
            writes: writes.into_iter().map(|(k, s)| (Key(k), Some(s))).collect(),
        }
    }

    fn history(txns: Vec<HistoryTxn<'static>>) -> History<'static> {
        let mut versions = BTreeMap::new();
        for t in &txns {
            if !t.committed {
                continue;
            }
            for (k, s) in &t.writes {
                versions.insert((*k, s.expect("test writes resolved")), t.tx);
            }
        }
        History {
            txns,
            versions,
            divergent: Vec::new(),
        }
    }

    #[test]
    fn serializable_history_passes_everything() {
        // T1 writes x1; T2 reads x1 and writes y1; query reads both.
        let h = history(vec![
            txn(1, vec![(1, 0)], vec![(1, 1)], true),
            txn(2, vec![(1, 1), (2, 0)], vec![(2, 1)], true),
            txn(3, vec![(1, 1), (2, 1)], vec![], true),
        ]);
        for c in [
            Criterion::Ser,
            Criterion::Us,
            Criterion::Si,
            Criterion::Psi,
            Criterion::Nmsi,
            Criterion::Rc,
        ] {
            assert_eq!(c.check(&h), Ok(()), "criterion {c:?}");
        }
    }

    #[test]
    fn dirty_read_detected() {
        let h = history(vec![txn(1, vec![(1, 7)], vec![], true)]);
        assert!(matches!(
            Criterion::Rc.check(&h),
            Err(Violation::DirtyRead { .. })
        ));
    }

    #[test]
    fn write_skew_passes_si_family_but_fails_ser() {
        // Classic write skew: T1 reads x0,y0 writes x1; T2 reads x0,y0
        // writes y1.
        let h = history(vec![
            txn(1, vec![(1, 0), (2, 0)], vec![(1, 1)], true),
            txn(2, vec![(1, 0), (2, 0)], vec![(2, 1)], true),
        ]);
        assert_eq!(Criterion::Si.check(&h), Ok(()));
        assert_eq!(Criterion::Psi.check(&h), Ok(()));
        assert_eq!(Criterion::Nmsi.check(&h), Ok(()));
        assert!(matches!(
            Criterion::Ser.check(&h),
            Err(Violation::SerializationCycle { .. })
        ));
        assert!(matches!(
            Criterion::Us.check(&h),
            Err(Violation::SerializationCycle { .. })
        ));
    }

    #[test]
    fn lost_update_detected_by_si_family() {
        // Both T1 and T2 supersede x0 — the installs collapse to x1 and a
        // gap at 2... model: T1 installs x1, T2 installs x3 (gap at 2).
        let h = history(vec![
            txn(1, vec![(1, 0)], vec![(1, 1)], true),
            txn(2, vec![(1, 0)], vec![(1, 3)], true),
        ]);
        assert!(matches!(
            Criterion::Psi.check(&h),
            Err(Violation::LostUpdate { .. })
        ));
    }

    #[test]
    fn fractured_read_detected() {
        // T1 writes x1 and y1 atomically; the query sees x1 but y0.
        let h = history(vec![
            txn(1, vec![(1, 0), (2, 0)], vec![(1, 1), (2, 1)], true),
            txn(2, vec![(1, 1), (2, 0)], vec![], true),
        ]);
        assert!(matches!(
            Criterion::Si.check(&h),
            Err(Violation::FracturedRead { .. })
        ));
        assert_eq!(Criterion::Rc.check(&h), Ok(()), "RC tolerates fractures");
    }

    #[test]
    fn query_anomaly_passes_us_but_fails_ser() {
        // Updates are serializable (T1 then T2), but the query observes T2
        // without T1 — a non-monotonic snapshot: y2 read, x1 missed.
        // T1 writes x1; T2 writes y1 (after reading x1); query reads x0, y1.
        let h = history(vec![
            txn(1, vec![(1, 0)], vec![(1, 1)], true),
            txn(2, vec![(1, 1), (2, 0)], vec![(2, 1)], true),
            txn(3, vec![(1, 0), (2, 1)], vec![], true),
        ]);
        assert_eq!(Criterion::Us.check(&h), Ok(()));
        assert!(matches!(
            Criterion::Ser.check(&h),
            Err(Violation::SerializationCycle { .. })
        ));
    }

    /// Site 0 installed t1.1's write as k1@1, site 1 installed t1.2's.
    fn divergence() -> Divergence {
        Divergence {
            key: Key(1),
            seq: 1,
            first: (SiteId(0), tx(1)),
            second: (SiteId(1), tx(2)),
        }
    }

    #[test]
    fn rc_tolerates_replica_divergence_but_stronger_criteria_do_not() {
        let mut h = history(vec![txn(1, vec![(1, 0)], vec![(1, 1)], true)]);
        h.divergent.push(divergence());
        assert_eq!(
            Criterion::Rc.check(&h),
            Ok(()),
            "RC promises no convergence"
        );
        assert!(matches!(
            Criterion::Psi.check(&h),
            Err(Violation::ReplicaDivergence(_))
        ));
    }

    #[test]
    fn a_divergence_names_both_replicas_and_both_writers() {
        let mut h = history(vec![
            txn(1, vec![(1, 0)], vec![(1, 1)], true),
            txn(3, vec![(2, 0)], vec![(2, 1)], true),
        ]);
        h.divergent.push(divergence());
        let v = check_replica_agreement(&h).unwrap_err();
        assert_eq!(v, Violation::ReplicaDivergence(divergence()));
        assert_eq!(
            v.to_string(),
            "replicas diverge on k1@1: site0 installed t1.1's write, site1 installed t1.2's"
        );
        // The divergence is not a version: the per-key sequences, k2's
        // included, are still contiguous.
        assert_eq!(check_first_committer_wins(&h), Ok(()));
    }

    #[test]
    fn a_cycle_is_reported_without_its_lead_in_path() {
        // A —wr x@1→ B, B —rw y@0→ C, C —rw z@0→ B; the search starts at A.
        let mut h = history(vec![
            txn(1, vec![], vec![(1, 1)], true),
            txn(2, vec![(1, 1), (2, 0)], vec![(3, 1)], true),
            txn(3, vec![(3, 0)], vec![(2, 1)], true),
        ]);
        h.txns[2].site = SiteId(1);
        let hop = |from: u64, site: u16, key: u64| CycleHop {
            from: tx(from),
            query: false,
            site: SiteId(site),
            kind: DepKind::Rw,
            key: Key(key),
            seq: 0,
        };
        let v = check_serializability(&h, true).unwrap_err();
        assert_eq!(
            v,
            Violation::SerializationCycle {
                cycle: vec![hop(2, 0, 2), hop(3, 1, 3)]
            }
        );
        assert_eq!(
            v.to_string(),
            "serialization cycle through 2 txns: t1.2 (update @ site0) —rw k2@0→ \
             t1.3 (update @ site1) —rw k3@0→ t1.2"
        );
    }

    #[test]
    fn aborted_transactions_are_ignored() {
        let h = history(vec![
            txn(1, vec![(1, 0)], vec![(1, 1)], true),
            txn(2, vec![(1, 9)], vec![(1, 9)], false),
        ]);
        assert_eq!(Criterion::Ser.check(&h), Ok(()));
    }
}
