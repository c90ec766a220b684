//! Randomized (seeded, deterministic) tests: random small deployments of
//! random protocols must terminate every transaction and uphold the
//! protocol's claimed criterion, and the read path's snapshot predicate is
//! monotone.

use gdur_core::Snapshot;
use gdur_harness::{run_checked, Deployment, FaultSchedule, Horizon, PlacementKind};
use gdur_versioning::{Stamp, VersionVec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn any_protocol_any_small_world_is_live_and_correct() {
    let mut gen = SmallRng::seed_from_u64(0x6d07);
    for case in 0..12 {
        let all = gdur_protocols::all_protocols();
        let proto_idx = gen.gen_range(0usize..all.len());
        let sites = gen.gen_range(2usize..5);
        let dt = gen.gen_bool(0.5);
        let keys_per_partition = gen.gen_range(20u64..200);
        let ro_pct = gen.gen_range(0u32..11) as u8;
        let seed = gen.gen_range(0u64..10_000);

        let dep = Deployment {
            read_only_ratio: f64::from(ro_pct) / 10.0,
            sites,
            placement: if dt {
                PlacementKind::Dt
            } else {
                PlacementKind::Dp
            },
            keys_per_partition,
            seed,
            horizon: Horizon::Drain(15),
            ..Deployment::new(all[proto_idx].clone(), FaultSchedule::new())
        };
        let name = &dep.label;
        let run = run_checked(&dep, None, None);
        assert_eq!(
            run.cluster.records().len(),
            sites * 2 * 15,
            "case {case}: {name} (sites={sites}, dt={dt}, seed={seed}): some transactions never decided",
        );
        run.expect_clean(format_args!("{name} (sites={sites}, dt={dt}, seed={seed})"));
    }
}

/// A fixed (VTS) snapshot pinned higher admits every version a lower one
/// admits: `Snapshot::admits` is the predicate the read path filters
/// versions by.
#[test]
fn visibility_is_monotone_in_snapshot() {
    const DIM: usize = 4;
    let mut rng = SmallRng::seed_from_u64(11);
    let vec = |rng: &mut SmallRng| {
        VersionVec::from_entries((0..DIM).map(|_| rng.gen_range(0u64..16)).collect())
    };
    let mut admitted = 0;
    for _ in 0..256 {
        let x = Stamp::Vec {
            origin: rng.gen_range(0u32..DIM as u32),
            vec: vec(&mut rng),
        };
        let s = vec(&mut rng);
        let t = s.clone().joined(&vec(&mut rng));
        if Snapshot::fixed(&s).admits(&x) {
            assert!(Snapshot::fixed(&t).admits(&x), "{x} in {s} but not in {t}");
            admitted += 1;
        }
    }
    assert!(admitted > 0, "no case exercised the implication");
}
