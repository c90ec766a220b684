use std::collections::{BTreeMap, BTreeSet};

use gdur_core::{ReadEntry, WriteEntry};
use gdur_store::Value;

use super::*;
use crate::reference;

fn tx(n: u64) -> TxId {
    TxId::new(1, n)
}

/// One site's records: its replica's outcome log and installs.
#[derive(Default)]
struct Site {
    log: OutcomeLog,
    installs: Vec<InstallEvent>,
}

impl Site {
    /// Logs `id` as decided here, having read `reads` (key, seq) and
    /// written the keys of `writes`.
    fn decide(&mut self, id: TxId, reads: &[(u64, u64)], writes: &[(u64, u64)], committed: bool) {
        let rs: Vec<ReadEntry> = (reads.iter())
            .map(|&(k, seq)| ReadEntry { key: Key(k), seq })
            .collect();
        let ws: Vec<WriteEntry> = (writes.iter())
            .map(|&(k, _)| WriteEntry {
                key: Key(k),
                value: Value::default(),
                base_seq: 0,
            })
            .collect();
        self.log.push(id, committed, &rs, &ws);
    }

    /// Records that `id` installed `writes` (key, seq) here.
    fn install(&mut self, id: TxId, writes: &[(u64, u64)]) {
        let installs = (writes.iter()).map(|&(k, seq)| InstallEvent {
            key: Key(k),
            seq,
            tx: id,
        });
        self.installs.extend(installs);
    }

    /// Decides `t1.id` here and, if it committed, installs its writes here.
    fn txn(
        &mut self,
        id: u64,
        reads: &[(u64, u64)],
        writes: &[(u64, u64)],
        committed: bool,
    ) -> &mut Self {
        self.decide(tx(id), reads, writes, committed);
        if committed {
            self.install(tx(id), writes);
        }
        self
    }
}

fn history(sites: &[Site]) -> History<'_> {
    History::new(sites.iter().map(|s| (&s.log, s.installs.as_slice())))
}

/// One site that decided and installed everything.
fn one_site(build: impl FnOnce(&mut Site)) -> [Site; 1] {
    let mut site = Site::default();
    build(&mut site);
    [site]
}

#[test]
fn serializable_history_passes_everything() {
    // T1 writes x1; T2 reads x1 and writes y1; query reads both.
    let sites = one_site(|s| {
        s.txn(1, &[(1, 0)], &[(1, 1)], true)
            .txn(2, &[(1, 1), (2, 0)], &[(2, 1)], true)
            .txn(3, &[(1, 1), (2, 1)], &[], true);
    });
    let h = history(&sites);
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
    let sites = one_site(|s| {
        s.txn(1, &[(1, 7)], &[], true);
    });
    assert!(matches!(
        Criterion::Rc.check(&history(&sites)),
        Err(Violation::DirtyRead { .. })
    ));
}

#[test]
fn write_skew_passes_si_family_but_fails_ser() {
    // Classic write skew: T1 reads x0,y0 writes x1; T2 reads x0,y0
    // writes y1.
    let sites = one_site(|s| {
        s.txn(1, &[(1, 0), (2, 0)], &[(1, 1)], true)
            .txn(2, &[(1, 0), (2, 0)], &[(2, 1)], true);
    });
    let h = history(&sites);
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
    // Both T1 and T2 supersede x0: T1 installs x1, T2 x3 (a gap at 2).
    let sites = one_site(|s| {
        s.txn(1, &[(1, 0)], &[(1, 1)], true)
            .txn(2, &[(1, 0)], &[(1, 3)], true);
    });
    assert_eq!(
        Criterion::Psi.check(&history(&sites)),
        Err(Violation::LostUpdate {
            key: Key(1),
            seq: 2
        })
    );
}

#[test]
fn a_write_on_a_stale_base_is_a_lost_update() {
    // T1 and T2 both read x0; T1 installs x1 and T2 x2 on top of it, as a
    // replica installing at its latest sequence plus one does. The
    // sequence is contiguous, but x0 was superseded twice.
    let sites = one_site(|s| {
        s.txn(1, &[(1, 0)], &[(1, 1)], true)
            .txn(2, &[(1, 0)], &[(1, 2)], true);
    });
    let v = check_first_committer_wins(&history(&sites)).unwrap_err();
    assert_eq!(
        v,
        Violation::LostUpdate {
            key: Key(1),
            seq: 0
        }
    );
    assert_eq!(v.to_string(), "version k1@0 doubly superseded or gapped");
    // A blind write read no base, so it has none to skip.
    let sites = one_site(|s| {
        s.txn(1, &[(1, 0)], &[(1, 1)], true)
            .txn(2, &[], &[(1, 2)], true);
    });
    assert_eq!(check_first_committer_wins(&history(&sites)), Ok(()));
}

#[test]
fn fractured_read_detected() {
    // T1 writes x1 and y1 atomically; the query sees x1 but y0.
    let sites = one_site(|s| {
        s.txn(1, &[(1, 0), (2, 0)], &[(1, 1), (2, 1)], true)
            .txn(2, &[(1, 1), (2, 0)], &[], true);
    });
    let h = history(&sites);
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
    let sites = one_site(|s| {
        s.txn(1, &[(1, 0)], &[(1, 1)], true)
            .txn(2, &[(1, 1), (2, 0)], &[(2, 1)], true)
            .txn(3, &[(1, 0), (2, 1)], &[], true);
    });
    let h = history(&sites);
    assert_eq!(Criterion::Us.check(&h), Ok(()));
    assert!(matches!(
        Criterion::Ser.check(&h),
        Err(Violation::SerializationCycle { .. })
    ));
}

/// Site 0 installs t1.1's write as k1@1, site 1 installs t1.2's; t1.3
/// writes k2 at site 0 only.
fn diverging() -> [Site; 2] {
    let mut sites = [Site::default(), Site::default()];
    sites[0]
        .txn(1, &[(1, 0)], &[(1, 1)], true)
        .txn(3, &[(2, 0)], &[(2, 1)], true);
    sites[1].txn(2, &[(1, 0)], &[(1, 1)], true);
    sites
}

#[test]
fn rc_tolerates_replica_divergence_but_stronger_criteria_do_not() {
    let sites = diverging();
    let h = history(&sites);
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
    let sites = diverging();
    let h = history(&sites);
    let v = check_replica_agreement(&h).unwrap_err();
    assert_eq!(
        v,
        Violation::ReplicaDivergence(Divergence {
            key: Key(1),
            seq: 1,
            first: (SiteId(0), tx(1)),
            second: (SiteId(1), tx(2)),
        })
    );
    assert_eq!(
        v.to_string(),
        "replicas diverge on k1@1: site0 installed p1.c0.1's write, site1 installed p1.c0.2's"
    );
    // The divergence is not a version: k1@1 stays t1.1's, and the per-key
    // sequences, k2's included, are still contiguous.
    assert_eq!(h.writer(Key(1), 1), Some(tx(1)));
    assert_eq!(h.installed(tx(2), Key(1)), None);
    assert_eq!(check_first_committer_wins(&h), Ok(()));
}

#[test]
fn a_cycle_is_reported_without_its_lead_in_path() {
    // A —wr x@1→ B, B —rw y@0→ C, C —rw z@0→ B; the search starts at A.
    let mut sites = [Site::default(), Site::default()];
    sites[0]
        .txn(1, &[], &[(1, 1)], true)
        .txn(2, &[(1, 1), (2, 0)], &[(3, 1)], true);
    sites[1].txn(3, &[(3, 0)], &[(2, 1)], true);
    let hop = |from: u64, site: u16, key: u64| CycleHop {
        from: tx(from),
        query: false,
        site: SiteId(site),
        kind: DepKind::Rw,
        key: Key(key),
        seq: 0,
    };
    let v = check_serializability(&history(&sites), true).unwrap_err();
    assert_eq!(
        v,
        Violation::SerializationCycle {
            cycle: vec![hop(2, 0, 2), hop(3, 1, 3)]
        }
    );
    assert_eq!(
        v.to_string(),
        "serialization cycle through 2 txns: p1.c0.2 (update @ site0) —rw k2@0→ \
         p1.c0.3 (update @ site1) —rw k3@0→ p1.c0.2"
    );
}

#[test]
fn aborted_transactions_are_ignored() {
    let sites = one_site(|s| {
        s.txn(1, &[(1, 0)], &[(1, 1)], true)
            .txn(2, &[(1, 9)], &[(1, 9)], false);
    });
    assert_eq!(Criterion::Ser.check(&history(&sites)), Ok(()));
}

/// SplitMix64: the generator's seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }
}

/// Where the generator's four keys land: at 2³⁵ and above, up to
/// `u64::MAX`, so the outcome logs hold six- to ten-byte varints.
const KEYS: [u64; 4] = [1 << 35, (1 << 35) + 1, 1 << 56, u64::MAX];

/// The outcome logs and installs of a seeded run of up to 13 transactions
/// over four keys ([`KEYS`]) on one to three sites, with every anomaly the checks
/// look for within reach: reads of versions not installed (dirty reads)
/// or stale ones (fractured reads, write skew, long forks), installs that
/// skip a sequence (gaps) or repeat the latest one (a stale base, and a
/// version with two or three writers), installs under another writer's id
/// (divergence) or at a second sequence, installs out of decision order,
/// and a transaction decided at two sites. An odd seed's history is lifted:
/// every version but the seed is 2¹⁴ higher (three-byte varints), as late
/// versions of keys whose early ones are not in the record — so there the
/// version sequences start with a gap.
fn generate(seed: u64) -> Vec<Site> {
    let lift = if seed % 2 == 1 { 1 << 14 } else { 0 };
    let place = |&(k, seq): &(u64, u64)| (KEYS[k as usize], if seq == 0 { 0 } else { seq + lift });
    let mut rng = Rng(seed);
    let mut sites: Vec<Site> = (0..1 + rng.below(3)).map(|_| Site::default()).collect();
    let n_sites = sites.len() as u64;
    let mut latest = [0u64; 4];
    for i in 1..=2 + rng.below(12) {
        let id = TxId::new(rng.below(3) as u32, i);
        let mut reads = Vec::new();
        for _ in 0..rng.below(4) {
            let k = rng.below(4);
            let last = latest[k as usize];
            let seq = match rng.below(10) {
                0 => last + 1 + rng.below(2),
                1 | 2 => last.saturating_sub(1),
                3 => 0,
                _ => last,
            };
            reads.push((k, seq));
        }
        let mut writes: Vec<(u64, u64)> = Vec::new();
        for _ in 0..rng.below(3) {
            let k = rng.below(4);
            if writes.iter().any(|&(w, _)| w == k) {
                continue;
            }
            let last = latest[k as usize];
            if rng.percent(70) {
                reads.push((k, last));
            }
            let seq = match rng.below(10) {
                0 => last + 2,
                1 => last.max(1),
                _ => last + 1,
            };
            latest[k as usize] = last.max(seq);
            writes.push((k, seq));
        }
        let reads: Vec<_> = reads.iter().map(place).collect();
        let writes: Vec<_> = writes.iter().map(place).collect();
        let committed = rng.percent(80);
        let coord = rng.below(n_sites) as usize;
        sites[coord].decide(id, &reads, &writes, committed);
        if rng.percent(5) {
            let again = rng.below(n_sites) as usize;
            let flipped = rng.percent(20);
            sites[again].decide(id, &reads, &writes, committed != flipped);
        }
        if !committed {
            continue;
        }
        for (s, site) in sites.iter_mut().enumerate() {
            if s != coord && rng.percent(30) {
                continue;
            }
            for &(k, seq) in &writes {
                let writer = if rng.percent(5) {
                    TxId::new(rng.below(3) as u32, 1 + rng.below(i))
                } else {
                    id
                };
                site.install(writer, &[(k, seq)]);
                if rng.percent(5) {
                    site.install(writer, &[(k, seq + 1)]);
                }
            }
            let n = site.installs.len();
            if n >= 2 && rng.percent(10) {
                site.installs.swap(n - 1, n - 2);
            }
        }
    }
    sites
}

/// Both oracles reach the same verdict, to the letter.
fn same(seed: u64, what: &str, flat: Result<(), Violation>, old: Result<(), Violation>) {
    let text = |r: &Result<(), Violation>| r.as_ref().err().map(|v| v.to_string());
    assert_eq!(
        (text(&flat), &flat),
        (text(&old), &old),
        "seed {seed}: {what}"
    );
}

#[test]
fn the_flat_oracle_matches_the_reference_model() {
    const CRITERIA: [Criterion; 7] = [
        Criterion::Ser,
        Criterion::Us,
        Criterion::Si,
        Criterion::Psi,
        Criterion::Nmsi,
        Criterion::Ra,
        Criterion::Rc,
    ];
    // How many histories showed each shape.
    let mut shapes: BTreeMap<&str, u32> = BTreeMap::new();
    for seed in 0..4000 {
        let sites = generate(seed);
        let h = history(&sites);
        let records: Vec<_> = (sites.iter())
            .map(|s| (&s.log, s.installs.as_slice()))
            .collect();
        let r = reference::History::new(&records);

        // The view, each write's resolved version, the table, the divergences.
        let txns: Vec<_> = (h.txns.iter())
            .map(|t| {
                let writes: Vec<_> = (t.writes.iter())
                    .map(|k| (k, h.installed(t.tx, k)))
                    .collect();
                let reads: Vec<_> = t.reads.iter().collect();
                (t.tx, t.committed, t.read_only, t.site, reads, writes)
            })
            .collect();
        let old_txns: Vec<_> = (r.txns.iter())
            .map(|t| {
                (
                    t.tx,
                    t.committed,
                    t.read_only,
                    t.site,
                    t.reads.clone(),
                    t.writes.clone(),
                )
            })
            .collect();
        assert_eq!(txns, old_txns, "seed {seed}: transactions");
        assert_eq!(h.txns.len(), r.txns.len(), "seed {seed}");
        let old_versions: Vec<_> = r.versions.iter().map(|(&(k, s), &w)| (k, s, w)).collect();
        assert_eq!(h.versions, old_versions, "seed {seed}: version table");
        for &(k, s, w) in &old_versions {
            assert_eq!(h.writer(k, s), Some(w), "seed {seed}: writer of {k}@{s}");
        }
        assert_eq!(h.divergent, r.divergent, "seed {seed}: divergences");

        // Each check, then each criterion.
        let fcw = check_first_committer_wins(&h);
        let fractured = check_no_fractured_reads(&h);
        same(
            seed,
            "read committed",
            check_read_committed(&h),
            reference::check_read_committed(&r),
        );
        same(
            seed,
            "replica agreement",
            check_replica_agreement(&h),
            reference::check_replica_agreement(&r),
        );
        same(
            seed,
            "fractured reads",
            fractured.clone(),
            reference::check_no_fractured_reads(&r),
        );
        same(
            seed,
            "first-committer-wins",
            fcw.clone(),
            reference::check_first_committer_wins(&r),
        );
        for queries in [true, false] {
            same(
                seed,
                "serializability",
                check_serializability(&h, queries),
                reference::check_serializability(&r, queries),
            );
        }
        let verdicts: Vec<_> = CRITERIA.iter().map(|&c| c.check(&h)).collect();
        for (&c, verdict) in CRITERIA.iter().zip(&verdicts) {
            same(
                seed,
                &format!("{c:?}"),
                verdict.clone(),
                reference::check(c, &r),
            );
        }

        let cycle =
            |v: &Result<(), Violation>| matches!(v, Err(Violation::SerializationCycle { .. }));
        let gapped = h.versions.first().is_some_and(|v| v.1 != 1)
            || (h.versions.windows(2))
                .any(|w| w[1].1 != if w[0].0 == w[1].0 { w[0].1 + 1 } else { 1 });
        let mut writers: BTreeMap<(Key, u64), BTreeSet<TxId>> = BTreeMap::new();
        let mut seqs: BTreeMap<(TxId, Key), BTreeSet<u64>> = BTreeMap::new();
        for e in sites.iter().flat_map(|s| &s.installs) {
            writers.entry((e.key, e.seq)).or_default().insert(e.tx);
            seqs.entry((e.tx, e.key)).or_default().insert(e.seq);
        }
        let mut sites_of: BTreeMap<TxId, BTreeSet<SiteId>> = BTreeMap::new();
        for t in h.txns.iter() {
            sites_of.entry(t.tx).or_default().insert(t.site);
        }
        let most_writers = writers.values().map(BTreeSet::len).max().unwrap_or(0);
        for (shape, present) in [
            ("passes everything", verdicts.iter().all(Result::is_ok)),
            (
                "dirty read",
                matches!(verdicts[6], Err(Violation::DirtyRead { .. })),
            ),
            ("fractured read", fractured.is_err()),
            ("gap", gapped),
            ("stale base", fcw.is_err() && !gapped),
            ("write skew", verdicts[2].is_ok() && cycle(&verdicts[1])),
            (
                "cycle through a query",
                verdicts[1].is_ok() && cycle(&verdicts[0]),
            ),
            ("divergence", !h.divergent.is_empty()),
            ("a version with two writers", most_writers >= 2),
            ("a version with three writers", most_writers >= 3),
            (
                "a key installed twice by one writer",
                seqs.values().any(|s| s.len() >= 2),
            ),
            (
                "decided at two sites",
                sites_of.values().any(|s| s.len() >= 2),
            ),
        ] {
            *shapes.entry(shape).or_default() += u32::from(present);
        }
    }
    for (shape, n) in &shapes {
        assert!(*n > 0, "no generated history has {shape}: {shapes:?}");
    }
}
