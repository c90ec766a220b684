//! # gdur-workload — YCSB-style transactional workloads (§8.1, Table 3)
//!
//! The paper drives every experiment with a transactional adaptation of
//! the Yahoo! Cloud Serving Benchmark. This crate reproduces it:
//!
//! | workload | key selection | read-only txn | update txn |
//! |---|---|---|---|
//! | A | uniform | 2 reads | 1 read, 1 update |
//! | B | uniform | 4 reads | 2 reads, 2 updates |
//! | C | zipfian | 2 reads | 1 read, 1 update |
//!
//! Transactions are *interactive* (ops issued one at a time) and *global*
//! (no replica holds every accessed object) unless a locality ratio directs
//! queries at the coordinator's own partition (the §8.4 P-Store-la
//! experiment). "Update" operations are read-modify-writes.

mod zipf;

use std::sync::Arc;

use gdur_core::{PlanOp, TxSource, TxnPlan};
use gdur_store::Key;
use rand::rngs::SmallRng;
use rand::Rng;

pub use zipf::{Zipfian, DEFAULT_THETA};

/// Key-selection distribution.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Uniform over the keyspace.
    Uniform,
    /// YCSB scrambled-zipfian (share one sampler across clients).
    Zipfian(Arc<Zipfian>),
}

/// One of the paper's Table 3 workloads.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Display name ("A", "B", "C").
    pub name: &'static str,
    /// Key-selection distribution.
    pub dist: KeyDist,
    /// Reads per read-only transaction.
    pub ro_reads: usize,
    /// Pure reads per update transaction.
    pub upd_reads: usize,
    /// Read-modify-writes per update transaction.
    pub upd_writes: usize,
}

impl WorkloadSpec {
    /// Workload A: uniform; queries read 2 keys; updates read 1 and write 1.
    pub fn a() -> Self {
        WorkloadSpec {
            name: "A",
            dist: KeyDist::Uniform,
            ro_reads: 2,
            upd_reads: 1,
            upd_writes: 1,
        }
    }

    /// Workload B: uniform; queries read 4 keys; updates read 2 and write 2.
    pub fn b() -> Self {
        WorkloadSpec {
            name: "B",
            dist: KeyDist::Uniform,
            ro_reads: 4,
            upd_reads: 2,
            upd_writes: 2,
        }
    }

    /// Workload C: like A but with zipfian key selection over `total_keys`.
    pub fn c(total_keys: u64) -> Self {
        WorkloadSpec {
            name: "C",
            dist: KeyDist::Zipfian(Arc::new(Zipfian::new(total_keys, DEFAULT_THETA))),
            ro_reads: 2,
            upd_reads: 1,
            upd_writes: 1,
        }
    }
}

/// The per-client transaction source: draws plans from a [`WorkloadSpec`]
/// with a configurable read-only ratio and locality ratio.
#[derive(Debug, Clone)]
pub struct YcsbSource {
    spec: WorkloadSpec,
    total_keys: u64,
    partitions: u64,
    /// The coordinator's home partition (for local queries).
    home_partition: u64,
    /// Fraction of transactions that are read-only (0.9 / 0.7 in §8).
    read_only_ratio: f64,
    /// Fraction of *read-only* transactions restricted to the home
    /// partition (0 everywhere except the §8.4 experiment).
    local_query_ratio: f64,
}

impl YcsbSource {
    /// Creates a source for a client whose coordinator lives at
    /// `home_partition`, over `total_keys` spread across `partitions`.
    ///
    /// # Panics
    ///
    /// Panics if ratios are outside `[0, 1]`, or the keyspace is smaller
    /// than a transaction's footprint.
    pub fn new(
        spec: WorkloadSpec,
        total_keys: u64,
        partitions: u64,
        home_partition: u64,
        read_only_ratio: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&read_only_ratio));
        assert!(partitions >= 1 && home_partition < partitions);
        let footprint = spec.ro_reads.max(spec.upd_reads + spec.upd_writes) as u64;
        assert!(total_keys >= footprint * partitions, "keyspace too small");
        YcsbSource {
            spec,
            total_keys,
            partitions,
            home_partition,
            read_only_ratio,
            local_query_ratio: 0.0,
        }
    }

    /// Sets the fraction of read-only transactions that stay on the home
    /// partition (the 10/50/90% knob of Figure 5).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]`.
    pub fn with_local_query_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio));
        self.local_query_ratio = ratio;
        self
    }

    fn pick_key(&self, rng: &mut SmallRng) -> u64 {
        match &self.spec.dist {
            KeyDist::Uniform => rng.gen_range(0..self.total_keys),
            KeyDist::Zipfian(z) => z.sample_scrambled(rng),
        }
    }

    /// Picks `n` distinct keys; when `local` they all fall on the home
    /// partition, otherwise the set is *global* — it spans at least two
    /// partitions (every transaction of §8.1 is global).
    fn pick_keys(&self, rng: &mut SmallRng, n: usize, local: bool) -> Vec<u64> {
        debug_assert!(n >= 1);
        loop {
            let mut keys: Vec<u64> = Vec::with_capacity(n);
            let mut guard = 0;
            while keys.len() < n && guard < 10_000 {
                guard += 1;
                let mut k = self.pick_key(rng);
                if local {
                    // Snap onto the home partition, preserving the draw's
                    // within-partition position.
                    k = (k / self.partitions) * self.partitions + self.home_partition;
                    if k >= self.total_keys {
                        continue;
                    }
                }
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            assert_eq!(keys.len(), n, "could not draw {n} distinct keys");
            let global_ok = local
                || n == 1
                || self.partitions < 2
                || keys
                    .iter()
                    .any(|k| k % self.partitions != keys[0] % self.partitions);
            if global_ok {
                return keys;
            }
        }
    }
}

impl TxSource for YcsbSource {
    fn next_plan(&mut self, rng: &mut SmallRng) -> TxnPlan {
        let read_only = rng.gen_bool(self.read_only_ratio);
        if read_only {
            let local = self.local_query_ratio > 0.0 && rng.gen_bool(self.local_query_ratio);
            let keys = self.pick_keys(rng, self.spec.ro_reads, local);
            TxnPlan {
                ops: keys.into_iter().map(|k| PlanOp::Read(Key(k))).collect(),
            }
        } else {
            let n = self.spec.upd_reads + self.spec.upd_writes;
            let keys = self.pick_keys(rng, n, false);
            let ops = keys
                .into_iter()
                .enumerate()
                .map(|(i, k)| {
                    if i < self.spec.upd_reads {
                        PlanOp::Read(Key(k))
                    } else {
                        PlanOp::Update(Key(k))
                    }
                })
                .collect();
            TxnPlan { ops }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    #[test]
    fn workload_shapes_match_table3() {
        let mut r = rng();
        let mut src = YcsbSource::new(WorkloadSpec::a(), 1000, 4, 0, 0.0);
        let plan = src.next_plan(&mut r);
        assert_eq!(plan.ops.len(), 2);
        assert!(!plan.read_only());
        assert!(matches!(plan.ops[0], PlanOp::Read(_)));
        assert!(matches!(plan.ops[1], PlanOp::Update(_)));

        let mut src_b = YcsbSource::new(WorkloadSpec::b(), 1000, 4, 0, 1.0);
        let plan = src_b.next_plan(&mut r);
        assert_eq!(plan.ops.len(), 4);
        assert!(plan.read_only());
    }

    #[test]
    fn read_only_ratio_is_respected() {
        let mut r = rng();
        let mut src = YcsbSource::new(WorkloadSpec::a(), 10_000, 4, 0, 0.9);
        let ro = (0..5000)
            .filter(|_| src.next_plan(&mut r).read_only())
            .count();
        let frac = ro as f64 / 5000.0;
        assert!((0.87..0.93).contains(&frac), "RO fraction {frac}");
    }

    #[test]
    fn transactions_are_global() {
        let mut r = rng();
        let mut src = YcsbSource::new(WorkloadSpec::a(), 10_000, 4, 0, 0.5);
        for _ in 0..1000 {
            let plan = src.next_plan(&mut r);
            let parts: std::collections::BTreeSet<u64> =
                plan.ops.iter().map(|o| o.key().0 % 4).collect();
            assert!(parts.len() >= 2, "transaction not global: {plan:?}");
        }
    }

    #[test]
    fn keys_are_distinct_within_a_transaction() {
        let mut r = rng();
        let mut src = YcsbSource::new(WorkloadSpec::b(), 10_000, 4, 0, 0.5);
        for _ in 0..500 {
            let plan = src.next_plan(&mut r);
            let keys: std::collections::BTreeSet<_> = plan.ops.iter().map(|o| o.key()).collect();
            assert_eq!(keys.len(), plan.ops.len());
        }
    }

    #[test]
    fn local_queries_stay_home() {
        let mut r = rng();
        let mut src =
            YcsbSource::new(WorkloadSpec::a(), 10_000, 4, 2, 1.0).with_local_query_ratio(1.0);
        for _ in 0..500 {
            let plan = src.next_plan(&mut r);
            for op in &plan.ops {
                assert_eq!(op.key().0 % 4, 2, "local query escaped home partition");
            }
        }
    }

    #[test]
    fn locality_ratio_mixes() {
        let mut r = rng();
        let mut src =
            YcsbSource::new(WorkloadSpec::a(), 10_000, 4, 1, 1.0).with_local_query_ratio(0.5);
        let local = (0..2000)
            .filter(|_| {
                let plan = src.next_plan(&mut r);
                plan.ops.iter().all(|o| o.key().0 % 4 == 1)
            })
            .count();
        let frac = local as f64 / 2000.0;
        assert!((0.42..0.58).contains(&frac), "local fraction {frac}");
    }

    #[test]
    fn workload_c_is_skewed() {
        let mut r = rng();
        let mut src = YcsbSource::new(WorkloadSpec::c(10_000), 10_000, 4, 0, 0.0);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..5000 {
            for op in src.next_plan(&mut r).ops {
                *counts.entry(op.key()).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 20, "zipfian hot key too cold (max draws {max})");
    }

    #[test]
    #[should_panic(expected = "keyspace too small")]
    fn tiny_keyspace_rejected() {
        let _ = YcsbSource::new(WorkloadSpec::b(), 4, 4, 0, 0.5);
    }

    #[test]
    fn zipfian_sampler_is_shared_across_clients() {
        // The harness builds one WorkloadSpec per deployment and clones it
        // per client; the clone must share the sampler, not rebuild it:
        // the O(n) zeta sum is memoised per process, but each rebuild
        // would still be an allocation per client.
        let spec = WorkloadSpec::c(10_000);
        let KeyDist::Zipfian(a) = &spec.dist else {
            panic!("workload C must be zipfian");
        };
        let cloned = spec.clone();
        let KeyDist::Zipfian(b) = &cloned.dist else {
            panic!("clone changed the distribution");
        };
        assert!(
            Arc::ptr_eq(a, b),
            "cloning a WorkloadSpec must share one Zipfian per deployment"
        );
    }
}
