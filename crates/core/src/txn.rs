//! Transaction-side runtime state: plans, snapshots, read/write sets.

use gdur_store::{Key, Value};
use gdur_versioning::{Stamp, VersionVec};
use rand::rngs::SmallRng;

/// One operation of a transaction plan.
///
/// An `Update` is a read-modify-write: the coordinator reads the object
/// (recording the base version the write supersedes) and buffers the new
/// value. This interpretation of the paper's "Update" operations makes
/// write-write certification sound for every protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// Read a key.
    Read(Key),
    /// Read-modify-write a key.
    Update(Key),
}

impl PlanOp {
    /// The key this operation touches.
    pub fn key(&self) -> Key {
        match self {
            PlanOp::Read(k) | PlanOp::Update(k) => *k,
        }
    }
}

/// A client-side transaction plan (the CRUD sequence of Figure 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnPlan {
    /// Operations, executed in order.
    pub ops: Vec<PlanOp>,
}

impl TxnPlan {
    /// True if the plan contains no updates.
    pub fn read_only(&self) -> bool {
        self.ops.iter().all(|o| matches!(o, PlanOp::Read(_)))
    }
}

/// Source of transaction plans driven by a closed-loop client.
///
/// Implemented by the YCSB-style generators in `gdur-workload`, and by
/// hand-rolled scenario scripts in the examples.
pub trait TxSource {
    /// Produces the next transaction this client should run.
    fn next_plan(&mut self, rng: &mut SmallRng) -> TxnPlan;
}

/// An entry of the read set: the version of `key` the transaction observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEntry {
    /// The key read.
    pub key: Key,
    /// Per-key sequence of the version read.
    pub seq: u64,
}

/// An entry of the write buffer (after-value + the base version it
/// supersedes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteEntry {
    /// The key written.
    pub key: Key,
    /// The buffered after-value.
    pub value: Value,
    /// Per-key sequence of the version this write supersedes (from the
    /// read-modify-write read).
    pub base_seq: u64,
}

/// Sentinel for "not yet pinned" snapshot entries.
const UNPINNED: u64 = u64::MAX;

/// Largest dimension a [`Snapshot`] holds without a heap allocation.
const INLINE_DIM: usize = 4;

/// A snapshot's `2 · dim` entries: inline up to [`INLINE_DIM`], so that
/// cloning one into a remote-read request allocates nothing at the
/// deployments the paper measures, and on the heap beyond.
#[derive(Debug, Clone)]
enum Entries {
    Inline([u64; 2 * INLINE_DIM]),
    Heap(Box<[u64]>),
}

/// The transaction's snapshot context: the state `choose_cons` carries
/// between reads (§4.2).
///
/// * **Fixed** (VTS — Walter, S-DUR): every partition entry is pinned at
///   `begin` from the coordinator's knowledge vector; reads return the
///   latest version visible at or below the pin.
/// * **Greedy** (GMV/PDV — GMU, Jessy): entries start unpinned; the first
///   read served by a partition pins it at that replica's current partition
///   clock (fresh!), lower-bounded by the dependencies of versions read so
///   far. Later reads must stay consistent with every pinned entry.
///
/// The whole context travels inside remote-read requests and replies, which
/// is exactly the execution-phase metadata overhead the GMU* ablation of
/// §8.3 keeps paying after turning consistent reads off.
///
/// It is one array of `2 · dim` entries: the upper bound per partition
/// (`snap`, `UNPINNED` = not yet constrained), then the lower bound per
/// partition required by the dependencies of prior reads (`need`). Up to
/// dimension 4 the array is inline and a clone allocates nothing.
#[derive(Debug, Clone)]
pub struct Snapshot {
    dim: u32,
    fixed: bool,
    entries: Entries,
}

impl Snapshot {
    /// A snapshot of dimension `dim` whose upper bounds are `snap` and
    /// whose lower bounds are zero.
    fn with_bounds(dim: usize, fixed: bool, snap: impl Iterator<Item = u64>) -> Self {
        let entries = if dim <= INLINE_DIM {
            Entries::Inline([0; 2 * INLINE_DIM])
        } else {
            Entries::Heap(vec![0; 2 * dim].into_boxed_slice())
        };
        let mut s = Snapshot {
            dim: u32::try_from(dim).expect("snapshot dimension fits u32"),
            fixed,
            entries,
        };
        for (e, v) in s.entries_mut()[..dim].iter_mut().zip(snap) {
            *e = v;
        }
        s
    }

    /// A degenerate snapshot for `choose_last` protocols (dimension 0).
    pub fn unconstrained() -> Self {
        Self::with_bounds(0, false, std::iter::empty())
    }

    /// A fixed snapshot pinned at `knowledge` (VTS begin).
    pub fn fixed(knowledge: &VersionVec) -> Self {
        Self::with_bounds(knowledge.dim(), true, knowledge.iter())
    }

    /// An initially unpinned greedy snapshot over `partitions` partitions.
    pub fn greedy(partitions: usize) -> Self {
        Self::with_bounds(partitions, false, std::iter::repeat(UNPINNED))
    }

    /// The used entries: `snap` then `need`.
    fn entries(&self) -> &[u64] {
        let n = 2 * self.dim();
        match &self.entries {
            Entries::Inline(buf) => &buf[..n],
            Entries::Heap(buf) => buf,
        }
    }

    fn entries_mut(&mut self) -> &mut [u64] {
        let n = 2 * self.dim();
        match &mut self.entries {
            Entries::Inline(buf) => &mut buf[..n],
            Entries::Heap(buf) => buf,
        }
    }

    /// Upper bound per partition.
    fn snap(&self) -> &[u64] {
        &self.entries()[..self.dim()]
    }

    /// Lower bound per partition.
    fn need(&self) -> &[u64] {
        &self.entries()[self.dim()..]
    }

    /// Number of partition entries.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Pins partition `p` (greedy mode) at the serving replica's current
    /// partition clock, lower-bounded by accumulated dependencies. No-op
    /// for fixed snapshots or already-pinned entries.
    pub fn pin(&mut self, p: usize, clock: u64) {
        if self.dim == 0 || self.fixed {
            return;
        }
        let dim = self.dim();
        let entries = self.entries_mut();
        if entries[p] == UNPINNED {
            entries[p] = clock.max(entries[dim + p]);
        }
    }

    /// True if a version stamped `stamp` may join this snapshot.
    pub fn admits(&self, stamp: &Stamp) -> bool {
        let Stamp::Vec { origin, vec } = stamp else {
            return true; // TS stamps: choose_last semantics
        };
        let snap = self.snap();
        if snap.is_empty() {
            return true;
        }
        let origin = *origin as usize;
        if snap[origin] != UNPINNED && vec.get(origin) > snap[origin] {
            return false;
        }
        // Consistency with every pinned partition the version depends on.
        snap.iter()
            .enumerate()
            .all(|(q, &bound)| bound == UNPINNED || vec.get(q) <= bound)
    }

    /// Lower bound this snapshot requires of partition `p`'s visibility
    /// frontier before a read of that partition can be served soundly: the
    /// pinned (or begin-time) entry, or the dependency bound accumulated
    /// from prior reads. A serving replica whose frontier is below this
    /// bound may still be missing installs the snapshot already admits.
    pub fn wait_bound(&self, p: usize) -> u64 {
        if self.dim == 0 {
            return 0;
        }
        let (bound, need) = (self.snap()[p], self.need()[p]);
        if bound != UNPINNED {
            bound.max(need)
        } else {
            need
        }
    }

    /// Records that the transaction read a version stamped `stamp`,
    /// accumulating its dependencies as lower bounds for future pins.
    pub fn observe(&mut self, stamp: &Stamp) {
        if let Stamp::Vec { vec, .. } = stamp {
            let dim = self.dim();
            if vec.dim() == dim {
                for (e, v) in self.entries_mut()[dim..].iter_mut().zip(vec.iter()) {
                    *e = (*e).max(v);
                }
            }
        }
    }

    /// The dependency vector accumulated so far — the base of the commit
    /// stamp for the transaction's writes.
    pub fn dependency_vec(&self) -> VersionVec {
        VersionVec::from_entries(self.need().to_vec())
    }

    /// Approximate wire size when shipped in remote-read messages.
    pub fn wire_size(&self) -> usize {
        16 * self.dim() + 2
    }

    /// Number of 8-byte metadata entries (for marshaling cost accounting).
    pub fn meta_entries(&self) -> usize {
        2 * self.dim()
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.fixed == other.fixed && self.entries() == other.entries()
    }
}

impl Eq for Snapshot {}

const _: () = assert!(std::mem::size_of::<Snapshot>() <= 80);

/// Convenience source producing a fixed cyclic list of plans; useful in
/// tests and examples.
#[derive(Debug, Clone)]
pub struct ScriptSource {
    plans: Vec<TxnPlan>,
    next: usize,
}

impl ScriptSource {
    /// Cycles through `plans` forever.
    ///
    /// # Panics
    ///
    /// Panics if `plans` is empty.
    pub fn new(plans: Vec<TxnPlan>) -> Self {
        assert!(!plans.is_empty(), "need at least one plan");
        ScriptSource { plans, next: 0 }
    }
}

impl TxSource for ScriptSource {
    fn next_plan(&mut self, _rng: &mut SmallRng) -> TxnPlan {
        let plan = self.plans[self.next % self.plans.len()].clone();
        self.next += 1;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vstamp(origin: u32, entries: &[u64]) -> Stamp {
        Stamp::Vec {
            origin,
            vec: VersionVec::from_entries(entries.to_vec()),
        }
    }

    #[test]
    fn plan_read_only_detection() {
        let ro = TxnPlan {
            ops: vec![PlanOp::Read(Key(1)), PlanOp::Read(Key(2))],
        };
        assert!(ro.read_only());
        let up = TxnPlan {
            ops: vec![PlanOp::Read(Key(1)), PlanOp::Update(Key(2))],
        };
        assert!(!up.read_only());
        assert_eq!(up.ops[1].key(), Key(2));
    }

    #[test]
    fn fixed_snapshot_bounds_reads() {
        let snap = Snapshot::fixed(&VersionVec::from_entries(vec![2, 5]));
        assert!(snap.fixed);
        assert!(snap.admits(&vstamp(0, &[2, 0])));
        assert!(!snap.admits(&vstamp(0, &[3, 0])), "beyond the pin");
        assert!(
            !snap.admits(&vstamp(1, &[3, 5])),
            "depends past partition 0's pin"
        );
    }

    #[test]
    fn greedy_pins_fresh_then_constrains() {
        let mut snap = Snapshot::greedy(2);
        assert!(snap.admits(&vstamp(0, &[7, 7])), "unpinned admits anything");
        snap.pin(0, 4);
        assert!(snap.admits(&vstamp(0, &[4, 9])));
        assert!(!snap.admits(&vstamp(0, &[5, 0])));
        // Dependencies raise future pins.
        snap.observe(&vstamp(0, &[4, 6]));
        snap.pin(1, 2); // replica clock 2 < needed 6
        assert!(snap.admits(&vstamp(1, &[0, 6])));
        assert!(!snap.admits(&vstamp(1, &[0, 7])));
    }

    #[test]
    fn pin_is_idempotent_and_fixed_is_immutable() {
        let mut g = Snapshot::greedy(1);
        g.pin(0, 3);
        g.pin(0, 9);
        assert!(g.admits(&vstamp(0, &[3])));
        assert!(!g.admits(&vstamp(0, &[4])), "second pin ignored");

        let mut f = Snapshot::fixed(&VersionVec::from_entries(vec![1]));
        f.pin(0, 9);
        assert!(!f.admits(&vstamp(0, &[2])), "fixed pins never move");
    }

    #[test]
    fn unconstrained_admits_everything() {
        let s = Snapshot::unconstrained();
        assert!(s.admits(&Stamp::Ts(9)));
        assert_eq!(s.dim(), 0);
        assert_eq!(s.meta_entries(), 0);
    }

    #[test]
    fn dependency_vec_accumulates() {
        let mut s = Snapshot::greedy(2);
        s.observe(&vstamp(0, &[3, 1]));
        s.observe(&vstamp(1, &[0, 4]));
        assert_eq!(s.dependency_vec(), VersionVec::from_entries(vec![3, 4]));
    }

    /// The two-`Vec` snapshot the inline one replaced, kept as the
    /// reference model of its semantics.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct VecSnapshot {
        snap: Vec<u64>,
        need: VersionVec,
        fixed: bool,
    }

    impl VecSnapshot {
        fn fixed(knowledge: &VersionVec) -> Self {
            VecSnapshot {
                snap: knowledge.iter().collect(),
                need: VersionVec::zero(knowledge.dim()),
                fixed: true,
            }
        }

        fn greedy(partitions: usize) -> Self {
            VecSnapshot {
                snap: vec![UNPINNED; partitions],
                need: VersionVec::zero(partitions),
                fixed: false,
            }
        }

        fn pin(&mut self, p: usize, clock: u64) {
            if self.snap.is_empty() || self.fixed {
                return;
            }
            if self.snap[p] == UNPINNED {
                self.snap[p] = clock.max(self.need.get(p));
            }
        }

        fn admits(&self, stamp: &Stamp) -> bool {
            let Stamp::Vec { origin, vec } = stamp else {
                return true;
            };
            if self.snap.is_empty() {
                return true;
            }
            let origin = *origin as usize;
            if self.snap[origin] != UNPINNED && vec.get(origin) > self.snap[origin] {
                return false;
            }
            for (q, bound) in self.snap.iter().enumerate() {
                if *bound != UNPINNED && vec.get(q) > *bound {
                    return false;
                }
            }
            true
        }

        fn wait_bound(&self, p: usize) -> u64 {
            if self.snap.is_empty() {
                return 0;
            }
            let need = self.need.get(p);
            if self.snap[p] != UNPINNED {
                self.snap[p].max(need)
            } else {
                need
            }
        }

        fn observe(&mut self, stamp: &Stamp) {
            if let Stamp::Vec { vec, .. } = stamp {
                if self.need.dim() == vec.dim() {
                    self.need.merge(vec);
                }
            }
        }
    }

    /// The inline snapshot against the two-`Vec` reference, in lockstep
    /// under seeded random pins and observations over dimensions 0..=12
    /// (both sides of the inline bound), fixed and greedy. A second pair
    /// diverges now and then, so `==` is compared both ways.
    #[test]
    fn snapshot_matches_the_vec_reference() {
        use rand::{Rng, SeedableRng};

        fn stamp(rng: &mut SmallRng, dim: usize) -> Stamp {
            if dim == 0 || rng.gen_bool(0.1) {
                return Stamp::Ts(rng.gen_range(0..20));
            }
            // Now and then a stamp of another dimension, which `observe`
            // ignores.
            let d = if rng.gen_bool(0.05) { dim + 1 } else { dim };
            let entries = (0..d).map(|_| rng.gen_range(0..20)).collect();
            Stamp::Vec {
                origin: rng.gen_range(0..dim as u32),
                vec: VersionVec::from_entries(entries),
            }
        }

        fn check(new: &Snapshot, old: &VecSnapshot, rng: &mut SmallRng) {
            let dim = old.snap.len();
            assert_eq!(new.dim(), dim);
            assert_eq!(new.wire_size(), 16 * dim + 2);
            assert_eq!(new.meta_entries(), 2 * dim);
            assert_eq!(new.dependency_vec(), old.need);
            for p in 0..dim {
                assert_eq!(new.wait_bound(p), old.wait_bound(p), "wait_bound({p})");
            }
            for _ in 0..4 {
                let s = stamp(rng, dim);
                if s.as_vec().is_none_or(|v| v.dim() == dim) {
                    assert_eq!(new.admits(&s), old.admits(&s), "admits {s}");
                }
            }
        }

        let mut rng = SmallRng::seed_from_u64(0x5a9);
        for dim in 0..=12usize {
            for fixed in [false, true] {
                for _ in 0..8 {
                    let (mut new, mut old) = if fixed {
                        let k = VersionVec::from_entries(
                            (0..dim).map(|_| rng.gen_range(0..20)).collect(),
                        );
                        (Snapshot::fixed(&k), VecSnapshot::fixed(&k))
                    } else {
                        (Snapshot::greedy(dim), VecSnapshot::greedy(dim))
                    };
                    let (mut new2, mut old2) = (new.clone(), old.clone());
                    check(&new, &old, &mut rng);
                    for _ in 0..24 {
                        let op = rng.gen_range(0..3u32);
                        let (p, clock) = (rng.gen_range(0..dim.max(1)), rng.gen_range(0..20));
                        let s = stamp(&mut rng, dim);
                        let diverge = rng.gen_bool(0.1);
                        for (n, o) in [(&mut new, &mut old), (&mut new2, &mut old2)] {
                            match op {
                                0 if dim > 0 => {
                                    n.pin(p, clock);
                                    o.pin(p, clock);
                                }
                                _ => {
                                    n.observe(&s);
                                    o.observe(&s);
                                }
                            }
                            if diverge {
                                break;
                            }
                        }
                        check(&new, &old, &mut rng);
                        check(&new2, &old2, &mut rng);
                        assert_eq!(new == new2, old == old2);
                        assert_eq!(new.clone(), new);
                    }
                }
            }
        }
    }

    #[test]
    fn script_source_cycles() {
        let mut src = ScriptSource::new(vec![TxnPlan {
            ops: vec![PlanOp::Read(Key(1))],
        }]);
        let mut rng = <SmallRng as rand::SeedableRng>::seed_from_u64(0);
        let a = src.next_plan(&mut rng);
        let b = src.next_plan(&mut rng);
        assert_eq!(a, b);
    }
}
