//! The oracle as it was before the flat version table, kept as the
//! reference model of the differential test (`tests.rs`): a `BTreeMap`
//! version table, each update's resolved writes copied into its
//! transaction, and the checks over them. The one change is the
//! base-version rule of [`check_first_committer_wins`], which both oracles
//! apply.

use std::collections::{BTreeMap, BTreeSet};

use gdur_core::{Criterion, InstallEvent, OutcomeLog};
use gdur_net::SiteId;
use gdur_store::{Key, TxId};

use super::{CycleHop, DepKind, Divergence, Violation};

/// A recorded, committed (or aborted) transaction with resolved versions.
#[derive(Debug, Clone)]
pub struct HistoryTxn {
    pub tx: TxId,
    pub committed: bool,
    pub read_only: bool,
    pub site: SiteId,
    /// Reads, decoded from the outcome log's view into a vector.
    pub reads: Vec<(Key, u64)>,
    /// Writes: key → per-key sequence *installed* (`None` if the install
    /// record is missing).
    pub writes: Vec<(Key, Option<u64>)>,
}

/// A full recorded execution.
#[derive(Debug, Clone, Default)]
pub struct History {
    pub txns: Vec<HistoryTxn>,
    /// Version table: (key, seq) → writer. Where replicas disagree, the
    /// writer installed at the lowest site.
    pub versions: BTreeMap<(Key, u64), TxId>,
    pub divergent: Vec<Divergence>,
}

impl History {
    /// The history of site `s`'s outcome log and installs, `sites[s]`.
    pub fn new(sites: &[(&OutcomeLog, &[InstallEvent])]) -> History {
        let mut versions: BTreeMap<(Key, u64), TxId> = BTreeMap::new();
        let mut divergent = Vec::new();
        for (s, (_, installs)) in sites.iter().enumerate() {
            for ev in installs.iter() {
                let first = *versions.entry((ev.key, ev.seq)).or_insert(ev.tx);
                if first != ev.tx {
                    let first_site = (0..=s).find(|p| {
                        let mut installs = sites[*p].1.iter();
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
        let mut txns = Vec::new();
        for (s, (log, _)) in sites.iter().enumerate() {
            let site = SiteId(s as u16);
            for rec in log.iter() {
                txns.push(HistoryTxn {
                    tx: rec.tx,
                    committed: rec.committed,
                    read_only: rec.writes.is_empty(),
                    site,
                    reads: rec.reads.iter().collect(),
                    writes: (rec.writes.iter())
                        .map(|k| (k, installed_seq(rec.tx, k)))
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

    pub fn committed(&self) -> impl Iterator<Item = &HistoryTxn> {
        self.txns.iter().filter(|t| t.committed)
    }
}

/// `CriterionCheck::check`, over the reference history.
pub fn check(c: Criterion, h: &History) -> Result<(), Violation> {
    check_read_committed(h)?;
    if !matches!(c, Criterion::Rc | Criterion::Ra) {
        check_replica_agreement(h)?;
    }
    match c {
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

pub fn check_read_committed(h: &History) -> Result<(), Violation> {
    for t in h.committed() {
        for (key, seq) in &t.reads {
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

pub fn check_replica_agreement(h: &History) -> Result<(), Violation> {
    match h.divergent.first() {
        Some(d) => Err(Violation::ReplicaDivergence(*d)),
        None => Ok(()),
    }
}

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
    // The base-version rule: a committed write installs the version right
    // after the last one its transaction read of that key.
    for t in h.committed() {
        for (key, seq) in &t.writes {
            let base = t.reads.iter().rev().find(|(k, _)| k == key);
            if let (Some(&(_, base)), Some(seq)) = (base, seq) {
                if *seq != base + 1 {
                    return Err(Violation::LostUpdate {
                        key: *key,
                        seq: base,
                    });
                }
            }
        }
    }
    Ok(())
}

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
        for (key, seq) in &t.reads {
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
