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
//!   and every committed write installs the version right after the last
//!   one its transaction read of that key, so no version is superseded
//!   twice (the write-write safety of the SI family);
//! * **(update) serializability** — the direct serialization graph over
//!   (update) transactions is acyclic;
//! * **replica agreement** — in disaster-tolerant placements, both
//!   replicas of a partition install the same version sequence.
//!
//! A [`History`] copies nothing per transaction: its transactions are a
//! view over the coordinators' outcome logs, and its one index is a flat
//! version table sorted by (key, seq), with a permutation by writer. The
//! checks a criterion implies share one walk over the committed
//! transactions, which decodes each read set once.
//!
//! The monotonicity distinctions between SI, PSI and NMSI (which of the
//! paper's snapshot criteria admit non-monotonic snapshots) are not
//! decidable from these records alone and are documented as out of scope
//! in DESIGN.md.

use gdur_core::{Cluster, InstallEvent, OutcomeLog, Reads, Writes};
use gdur_net::SiteId;
use gdur_store::{Key, TxId};

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;

/// A recorded, committed (or aborted) transaction: a view into its
/// coordinator's outcome log.
#[derive(Debug, Clone, Copy)]
pub struct HistoryTxn<'a> {
    /// Transaction id.
    pub tx: TxId,
    /// True if committed.
    pub committed: bool,
    /// True if the transaction wrote nothing.
    pub read_only: bool,
    /// Site of the coordinator (the replica whose outcome log holds it).
    pub site: SiteId,
    /// Reads: key → per-key sequence observed, in read order.
    pub reads: Reads<'a>,
    /// Written keys, in write order; empty for a query. The version each
    /// one installed is [`History::installed`].
    pub writes: Writes<'a>,
}

// Yielded by value for every decided transaction of the run.
const _: () = assert!(std::mem::size_of::<HistoryTxn<'static>>() <= 48);

/// An installed version: key, per-key sequence, writer.
type Version = (Key, u64, TxId);

// One per version installed in the run.
const _: () = assert!(std::mem::size_of::<Version>() <= 24);

/// The terminated transactions of a [`History`]: the sites' outcome logs,
/// borrowed, read in coordinator-site order, then in decision order.
#[derive(Debug, Clone, Default)]
pub struct Txns<'a> {
    logs: Vec<&'a OutcomeLog>,
}

impl<'a> Txns<'a> {
    /// Number of terminated transactions.
    pub fn len(&self) -> usize {
        self.logs.iter().map(|log| log.len()).sum()
    }

    /// True if no transaction terminated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every terminated transaction.
    pub fn iter(&self) -> impl Iterator<Item = HistoryTxn<'a>> + '_ {
        self.logs.iter().zip(0..).flat_map(|(&log, s)| {
            log.iter().map(move |o| HistoryTxn {
                tx: o.tx,
                committed: o.committed,
                read_only: o.writes.is_empty(),
                site: SiteId(s),
                reads: o.reads,
                writes: o.writes,
            })
        })
    }
}

/// A full recorded execution. It borrows the outcome logs and install
/// records it was built from, so it lives no longer than they do — for
/// [`History::from_cluster`], no longer than the [`Cluster`].
#[derive(Debug, Clone, Default)]
pub struct History<'a> {
    /// All terminated transactions.
    pub txns: Txns<'a>,
    /// Every installed version, sorted by (key, seq), one writer each:
    /// where replicas disagree, the one installed first in site order.
    versions: Vec<Version>,
    /// Indices into `versions`, sorted by (writer, key, seq).
    by_writer: Vec<u32>,
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
    /// The history of a run from each site's records, in site order: the
    /// outcome log of the replica there and the installs it recorded.
    pub fn new(
        sites: impl IntoIterator<Item = (&'a OutcomeLog, &'a [InstallEvent])>,
    ) -> History<'a> {
        let (logs, installs): (Vec<&'a OutcomeLog>, Vec<&'a [InstallEvent]>) =
            sites.into_iter().unzip();
        let mut versions: Vec<Version> =
            Vec::with_capacity(installs.iter().map(|site| site.len()).sum());
        for e in installs.iter().flat_map(|site| site.iter()) {
            versions.push((e.key, e.seq, e.tx));
        }
        versions.sort_unstable();
        versions.dedup();
        let divergent = keep_first_installers(&mut versions, &installs);
        versions.shrink_to_fit();
        let entries = u32::try_from(versions.len()).expect("version table past 2^32 entries");
        let mut by_writer: Vec<u32> = (0..entries).collect();
        by_writer.sort_unstable_by_key(|&v| {
            let (key, seq, tx) = versions[v as usize];
            (tx, key, seq)
        });
        History {
            txns: Txns { logs },
            versions,
            by_writer,
            divergent,
        }
    }

    /// Extracts the history of a finished run (requires the cluster to
    /// have been built with `record_history = true`).
    pub fn from_cluster(cluster: &'a Cluster) -> History<'a> {
        History::new((0..cluster.placement().sites()).map(|s| {
            let replica = cluster.replica(SiteId(s as u16));
            (replica.outcomes(), replica.installs())
        }))
    }

    /// Committed transactions.
    pub fn committed(&self) -> impl Iterator<Item = HistoryTxn<'a>> + '_ {
        self.txns.iter().filter(|t| t.committed)
    }

    /// The transaction that installed `key`@`seq`, if one did.
    pub fn writer(&self, key: Key, seq: u64) -> Option<TxId> {
        let i = self
            .versions
            .partition_point(|&(k, s, _)| (k, s) < (key, seq));
        let &(k, s, tx) = self.versions.get(i)?;
        ((k, s) == (key, seq)).then_some(tx)
    }

    /// The sequence `tx` installed `key` at — the lowest, if several.
    pub fn installed(&self, tx: TxId, key: Key) -> Option<u64> {
        let i = self.by_writer.partition_point(|&v| {
            let (k, _, t) = self.versions[v as usize];
            (t, k) < (tx, key)
        });
        let &(k, seq, t) = self.versions.get(*self.by_writer.get(i)? as usize)?;
        ((t, k) == (tx, key)).then_some(seq)
    }

    /// `tx`'s installs, in (key, seq) order.
    fn installs_of(&self, tx: TxId) -> impl Iterator<Item = Version> + '_ {
        let from = self
            .by_writer
            .partition_point(|&v| self.versions[v as usize].2 < tx);
        self.by_writer[from..]
            .iter()
            .map(|&v| self.versions[v as usize])
            .take_while(move |v| v.2 == tx)
    }
}

/// Leaves one writer per (key, seq) in the sorted, deduplicated `versions`:
/// the one installed first in site order, then install order. Returns each
/// later install of another writer as a divergence, in that order.
fn keep_first_installers(
    versions: &mut Vec<Version>,
    installs: &[&[InstallEvent]],
) -> Vec<Divergence> {
    // Every (key, seq) with two writers or more. Rare, and so is the pass.
    let mut contested: Vec<(Key, u64)> = versions
        .windows(2)
        .filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        .map(|w| (w[0].0, w[0].1))
        .collect();
    if contested.is_empty() {
        return Vec::new();
    }
    contested.dedup();
    // Each contested version's first installer, once the pass has met it.
    let mut first: Vec<Option<(SiteId, TxId)>> = vec![None; contested.len()];
    let mut divergent = Vec::new();
    for (site, site_installs) in (0..).map(SiteId).zip(installs) {
        for e in site_installs.iter() {
            let Ok(i) = contested.binary_search(&(e.key, e.seq)) else {
                continue;
            };
            match first[i] {
                None => first[i] = Some((site, e.tx)),
                Some(f) if f.1 != e.tx => divergent.push(Divergence {
                    key: e.key,
                    seq: e.seq,
                    first: f,
                    second: (site, e.tx),
                }),
                Some(_) => {}
            }
        }
    }
    versions.retain(
        |&(key, seq, tx)| match contested.binary_search(&(key, seq)) {
            Ok(i) => first[i].is_some_and(|(_, writer)| writer == tx),
            Err(_) => true,
        },
    );
    divergent
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
    ///
    /// The checks share one [`walk`] over the committed transactions; the
    /// violation returned is the one the checks run in turn would report:
    /// a dirty read, a divergence, a fractured read, then a lost update or
    /// a cycle.
    fn check(self, h: &History) -> Result<(), Violation> {
        let snapshot = matches!(self, Criterion::Si | Criterion::Psi | Criterion::Nmsi);
        let found = walk(
            h,
            Steps {
                read_committed: true,
                fractured_reads: self != Criterion::Rc,
                first_committer_wins: snapshot,
                serializability: match self {
                    Criterion::Us => Some(false),
                    Criterion::Ser => Some(true),
                    _ => None,
                },
            },
        );
        found.dirty?;
        if !matches!(self, Criterion::Rc | Criterion::Ra) {
            check_replica_agreement(h)?;
        }
        found.fractured?;
        if snapshot {
            check_version_sequences(h)?;
            found.lost?;
        }
        found.graph.map_or(Ok(()), |graph| graph.acyclic(h))
    }
}

/// The per-transaction checks one [`walk`] runs.
#[derive(Debug, Clone, Copy, Default)]
struct Steps {
    read_committed: bool,
    fractured_reads: bool,
    first_committer_wins: bool,
    /// `Some(include_queries)` builds the serialization graph.
    serializability: Option<bool>,
}

/// What one [`walk`] found: each check's first violation, in transaction
/// order, and the serialization graph it built.
struct Walked {
    dirty: Result<(), Violation>,
    fractured: Result<(), Violation>,
    lost: Result<(), Violation>,
    graph: Option<Graph>,
}

/// Runs `steps` on every committed transaction in one pass, decoding each
/// read set once. The read-committed test and the graph's read edges take
/// each read as it is decoded; fractured reads and first-committer-wins
/// need the last read of each key, by key, which the walk collects into one
/// reused buffer. Violations are rare, so the walk runs to the end; a check
/// that has found one skips the transactions after it.
fn walk(h: &History, steps: Steps) -> Walked {
    let multi_writers = if steps.fractured_reads {
        multi_key_writers(h)
    } else {
        Vec::new()
    };
    let mut found = Walked {
        dirty: Ok(()),
        fractured: Ok(()),
        lost: Ok(()),
        graph: steps.serializability.map(|queries| Graph::new(h, queries)),
    };
    let mut last_reads: Vec<(Key, u64)> = Vec::new();
    let mut candidates: Vec<TxId> = Vec::new();
    for t in h.committed() {
        let fractured = steps.fractured_reads && found.fractured.is_ok();
        let lost = steps.first_committer_wins && found.lost.is_ok();
        let keep_reads = fractured || lost;
        let mut graph = found.graph.as_mut().filter(|graph| graph.member(&t));
        last_reads.clear();
        if keep_reads {
            // Grown once per transaction, to its read count, as `extend`
            // would; pushing alone could grow it twice.
            last_reads.reserve(t.reads.len());
        }
        for (key, seq) in t.reads.iter() {
            let read_committed = steps.read_committed && found.dirty.is_ok();
            if read_committed && seq != 0 && h.writer(key, seq).is_none() {
                found.dirty = Err(Violation::DirtyRead { tx: t.tx, key, seq });
            }
            if let Some(graph) = &mut graph {
                graph.add_read(h, t.tx, key, seq);
            }
            if keep_reads {
                last_reads.push((key, seq));
            }
        }
        if let Some(graph) = graph {
            graph.add_writes(h, &t);
        }
        if keep_reads {
            keep_last_read_of_each_key(&mut last_reads);
        }
        if fractured {
            found.fractured = fractured_read(h, &t, &last_reads, &multi_writers, &mut candidates);
        }
        if lost {
            found.lost = stale_base(h, &t, &last_reads);
        }
    }
    found
}

/// Reduces `reads`, in read order, to the last read of each key, by key.
fn keep_last_read_of_each_key(reads: &mut Vec<(Key, u64)>) {
    // Stable, so each key's reads stay in read order; the last one's
    // sequence is the one kept.
    reads.sort_by_key(|&(key, _)| key);
    reads.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
}

/// Every read refers to the seed version or an installed committed
/// version.
pub fn check_read_committed(h: &History) -> Result<(), Violation> {
    let steps = Steps {
        read_committed: true,
        ..Steps::default()
    };
    walk(h, steps).dirty
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
/// A sorted (key, multi-key writer) index makes the candidate set per
/// reader proportional to the contention on its read keys, not to the
/// history. A reader's last read of a key counts, and a writer's highest
/// install of it.
pub fn check_no_fractured_reads(h: &History) -> Result<(), Violation> {
    let steps = Steps {
        fractured_reads: true,
        ..Steps::default()
    };
    walk(h, steps).fractured
}

/// (key, writer) for every writer that installed this key *and* at least
/// one other, sorted.
fn multi_key_writers(h: &History) -> Vec<(Key, TxId)> {
    let mut multi_writers: Vec<(Key, TxId)> = Vec::new();
    let writer_of = |v: u32| h.versions[v as usize].2;
    for installs in h.by_writer.chunk_by(|&a, &b| writer_of(a) == writer_of(b)) {
        let key_of = |v: u32| h.versions[v as usize].0;
        if key_of(installs[0]) == key_of(installs[installs.len() - 1]) {
            continue;
        }
        for &v in installs {
            let (key, _, tx) = h.versions[v as usize];
            if multi_writers.last() != Some(&(key, tx)) {
                multi_writers.push((key, tx));
            }
        }
    }
    multi_writers.sort_unstable();
    multi_writers
}

/// The first multi-key writer whose writes `t` saw in part, given `t`'s
/// last read of each key and the [`multi_key_writers`] index. `candidates`
/// is a reused buffer: the multi-key writers of `t`'s read keys, once per
/// key they share with it.
fn fractured_read(
    h: &History,
    t: &HistoryTxn,
    last_reads: &[(Key, u64)],
    multi_writers: &[(Key, TxId)],
    candidates: &mut Vec<TxId>,
) -> Result<(), Violation> {
    candidates.clear();
    for &(key, _) in last_reads {
        let from = multi_writers.partition_point(|&(k, _)| k < key);
        let writers = multi_writers[from..].iter().take_while(|&&(k, _)| k == key);
        candidates.extend(writers.map(|&(_, w)| w));
    }
    candidates.sort_unstable();
    for shared in candidates.chunk_by(|a, b| a == b) {
        let writer = shared[0];
        if writer == t.tx || shared.len() < 2 {
            continue;
        }
        // Of the keys both read by t and written by `writer`, the first on
        // which t saw the write and the first on which it missed it.
        let (mut seen, mut missed) = (None, None);
        let mut installs = h.installs_of(writer).peekable();
        while let Some((key, wseq, _)) = installs.next() {
            if installs.peek().is_some_and(|next| next.0 == key) {
                continue; // a higher install of the key follows
            }
            let Ok(i) = last_reads.binary_search_by_key(&key, |&(k, _)| k) else {
                continue;
            };
            let first = if last_reads[i].1 >= wseq {
                &mut seen
            } else {
                &mut missed
            };
            first.get_or_insert(key);
        }
        if let (Some(seen_key), Some(missed_key)) = (seen, missed) {
            return Err(Violation::FracturedRead {
                reader: t.tx,
                writer,
                seen_key,
                missed_key,
            });
        }
    }
    Ok(())
}

/// No committed write ever superseded a version another write superseded
/// (first-committer-wins): per-key version sequences are contiguous, and
/// every committed write installs `base + 1`, where `base` is the last
/// version its transaction read of that key. A replica installs each
/// version at its own latest sequence plus one, so a lost update shows as
/// the second rule failing, not the first. A gap reports the missing
/// sequence; a write on a stale base reports the base, the version
/// superseded twice. A blind write (of a key its transaction did not read)
/// and a write without an install record have no base to check.
pub fn check_first_committer_wins(h: &History) -> Result<(), Violation> {
    check_version_sequences(h)?;
    let steps = Steps {
        first_committer_wins: true,
        ..Steps::default()
    };
    walk(h, steps).lost
}

/// The first rule of [`check_first_committer_wins`]: each key's versions
/// are 1, 2, 3, … with no gap.
fn check_version_sequences(h: &History) -> Result<(), Violation> {
    let mut next: Option<(Key, u64)> = None;
    for &(key, seq, _) in &h.versions {
        let expected = match next {
            Some((k, s)) if k == key => s,
            _ => 1,
        };
        if seq != expected {
            return Err(Violation::LostUpdate { key, seq: expected });
        }
        next = Some((key, seq + 1));
    }
    Ok(())
}

/// The second rule of [`check_first_committer_wins`] for `t`: its first
/// write, in write order, that did not install the version after its last
/// read of the key.
fn stale_base(h: &History, t: &HistoryTxn, last_reads: &[(Key, u64)]) -> Result<(), Violation> {
    for key in t.writes.iter() {
        let Ok(i) = last_reads.binary_search_by_key(&key, |&(k, _)| k) else {
            continue;
        };
        let base = last_reads[i].1;
        if h.installed(t.tx, key).is_some_and(|seq| seq != base + 1) {
            return Err(Violation::LostUpdate { key, seq: base });
        }
    }
    Ok(())
}

/// A dependency that orders `a` before `b` in the serialization graph
/// (the graph keeps bare edges; only a reported cycle needs the reasons).
fn dependency(h: &History, a: &HistoryTxn, b: &HistoryTxn) -> (DepKind, Key, u64) {
    let wrote = |t: &HistoryTxn, key: Key, seq: u64| h.writer(key, seq) == Some(t.tx);
    let wr = (b.reads.iter())
        .filter(|(k, s)| *s > 0 && wrote(a, *k, *s))
        .map(|(k, s)| (DepKind::Wr, k, s));
    let rw = (a.reads.iter())
        .filter(|(k, s)| wrote(b, *k, *s + 1))
        .map(|(k, s)| (DepKind::Rw, k, s));
    let ww = (b.writes.iter())
        .filter_map(|k| Some((k, h.installed(b.tx, k)?.checked_sub(1)?)))
        .filter(|(k, prev)| *prev > 0 && wrote(a, *k, *prev))
        .map(|(k, prev)| (DepKind::Ww, k, prev));
    wr.chain(rw).chain(ww).next().expect("an edge has a reason")
}

/// Builds the direct serialization graph and checks acyclicity.
/// Builds the direct serialization graph and checks acyclicity.
///
/// Nodes are committed transactions (updates only when `include_queries`
/// is false — update serializability); edges are write-read, write-write
/// and read-write (anti-) dependencies derived from per-key version
/// sequences. A violation carries one simple cycle: the DFS stack from the
/// node the back edge closes on, not from the DFS root.
pub fn check_serializability(h: &History, include_queries: bool) -> Result<(), Violation> {
    let steps = Steps {
        serializability: Some(include_queries),
        ..Steps::default()
    };
    walk(h, steps)
        .graph
        .map_or(Ok(()), |graph| graph.acyclic(h))
}

/// The direct serialization graph of [`check_serializability`]: its nodes
/// are numbered up front, its edges added by [`walk`] one member at a time.
struct Graph {
    include_queries: bool,
    /// Each member's transaction and node, sorted by transaction.
    nodes: Vec<(TxId, u32)>,
    /// Bare edges (only a reported cycle needs the reasons).
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// The graph's nodes and no edge. Nodes are numbered in
    /// first-occurrence order: each member with its position, sorted by
    /// transaction, keeps its first position, and the positions are then
    /// replaced by their rank. The walk steps over the read sets undecoded.
    fn new(h: &History, include_queries: bool) -> Graph {
        let mut graph = Graph {
            include_queries,
            nodes: Vec::new(),
            edges: Vec::new(),
        };
        let mut nodes: Vec<(TxId, u32)> = (h.txns.iter().filter(|t| graph.member(t)))
            .zip(0..)
            .map(|(t, i)| (t.tx, i))
            .collect();
        nodes.sort_unstable();
        nodes.dedup_by_key(|&mut (tx, _)| tx);
        let mut firsts: Vec<u32> = nodes.iter().map(|&(_, i)| i).collect();
        firsts.sort_unstable();
        for (_, i) in &mut nodes {
            *i = firsts.partition_point(|&f| f < *i) as u32;
        }
        graph.nodes = nodes;
        graph
    }

    /// True if `t` is a node.
    fn member(&self, t: &HistoryTxn) -> bool {
        t.committed && (self.include_queries || !t.read_only)
    }

    /// `tx`'s node, if it is a member.
    fn node(&self, tx: TxId) -> Option<u32> {
        let i = self.nodes.binary_search_by_key(&tx, |&(t, _)| t).ok()?;
        Some(self.nodes[i].1)
    }

    /// The edge `from → to`, if both are members and differ.
    fn edge(&mut self, from: TxId, to: TxId) {
        if from == to {
            return;
        }
        if let (Some(a), Some(b)) = (self.node(from), self.node(to)) {
            self.edges.push((a, b));
        }
    }

    /// The edges of member `tx`'s read of `key`@`seq`.
    fn add_read(&mut self, h: &History, tx: TxId, key: Key, seq: u64) {
        // write-read: version writer → reader.
        if seq > 0 {
            if let Some(w) = h.writer(key, seq) {
                self.edge(w, tx);
            }
        }
        // read-write: reader → writer of the next version.
        if let Some(w_next) = h.writer(key, seq + 1) {
            self.edge(tx, w_next);
        }
    }

    /// The edges of member `t`'s writes.
    fn add_writes(&mut self, h: &History, t: &HistoryTxn) {
        for key in t.writes.iter() {
            let Some(seq) = h.installed(t.tx, key) else {
                continue;
            };
            // write-write: previous version's writer → this writer.
            if seq > 1 {
                if let Some(w_prev) = h.writer(key, seq - 1) {
                    self.edge(w_prev, t.tx);
                }
            }
        }
    }

    /// `Ok` if the graph is acyclic, else one simple cycle.
    fn acyclic(mut self, h: &History) -> Result<(), Violation> {
        self.edges.sort_unstable();
        self.edges.dedup();
        let (nodes, edges) = (&self.nodes, &self.edges);
        // Node n's successors are edges[offsets[n]..offsets[n + 1]], ascending.
        let offsets: Vec<usize> = (0..=nodes.len() as u32)
            .map(|n| edges.partition_point(|&(from, _)| from < n))
            .collect();
        let successors = |n: u32| &edges[offsets[n as usize]..offsets[n as usize + 1]];
        // Iterative DFS cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; nodes.len()];
        // A frame is a node and the number of its successors not yet taken;
        // they are taken from the high end.
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..nodes.len() as u32 {
            if marks[start as usize] != Mark::White {
                continue;
            }
            marks[start as usize] = Mark::Grey;
            stack.push((start, successors(start).len()));
            while let Some((node, left)) = stack.last_mut() {
                if *left == 0 {
                    marks[*node as usize] = Mark::Black;
                    stack.pop();
                    continue;
                }
                *left -= 1;
                let (_, next) = successors(*node)[*left];
                match marks[next as usize] {
                    Mark::White => {
                        marks[next as usize] = Mark::Grey;
                        stack.push((next, successors(next).len()));
                    }
                    Mark::Grey => {
                        let on_cycle: Vec<u32> = (stack.iter().map(|&(n, _)| n))
                            .skip_while(|&n| n != next)
                            .collect();
                        // Rare: each hop's transaction is looked up again, at
                        // its first occurrence.
                        let txn = |n: u32| {
                            let tx = nodes.iter().find(|&&(_, i)| i == n).expect("a node").0;
                            (h.txns.iter().filter(|t| self.member(t)))
                                .find(|t| t.tx == tx)
                                .expect("a member")
                        };
                        let cycle = on_cycle
                            .iter()
                            .zip(on_cycle.iter().skip(1).chain([&next]))
                            .map(|(&a, &b)| {
                                let (a, b) = (txn(a), txn(b));
                                let (kind, key, seq) = dependency(h, &a, &b);
                                CycleHop {
                                    from: a.tx,
                                    query: a.read_only,
                                    site: a.site,
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
            }
        }
        Ok(())
    }
}
