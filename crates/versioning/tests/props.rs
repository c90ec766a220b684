//! Randomized (seeded, deterministic) tests for the versioning lattice and
//! compatibility tests. Inputs are driven by a fixed-seed generator so
//! every run exercises the identical case set.

use gdur_versioning::{Stamp, VersionVec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 4;
const CASES: usize = 256;

fn arb_vec(rng: &mut SmallRng) -> VersionVec {
    VersionVec::from_entries((0..DIM).map(|_| rng.gen_range(0u64..16)).collect())
}

fn arb_stamp(rng: &mut SmallRng) -> Stamp {
    Stamp::Vec {
        origin: rng.gen_range(0u32..DIM as u32),
        vec: arb_vec(rng),
    }
}

#[test]
fn merge_is_commutative() {
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..CASES {
        let (a, b) = (arb_vec(&mut rng), arb_vec(&mut rng));
        assert_eq!(a.clone().joined(&b), b.clone().joined(&a));
    }
}

#[test]
fn merge_is_associative() {
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..CASES {
        let (a, b, c) = (arb_vec(&mut rng), arb_vec(&mut rng), arb_vec(&mut rng));
        let left = a.clone().joined(&b).joined(&c);
        let right = a.clone().joined(&b.clone().joined(&c));
        assert_eq!(left, right);
    }
}

#[test]
fn merge_is_idempotent() {
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..CASES {
        let a = arb_vec(&mut rng);
        assert_eq!(a.clone().joined(&a), a);
    }
}

#[test]
fn merge_is_least_upper_bound() {
    let mut rng = SmallRng::seed_from_u64(4);
    for _ in 0..CASES {
        let (a, b, c) = (arb_vec(&mut rng), arb_vec(&mut rng), arb_vec(&mut rng));
        let j = a.clone().joined(&b);
        assert!(a.leq(&j) && b.leq(&j));
        // Any other upper bound dominates the join.
        if a.leq(&c) && b.leq(&c) {
            assert!(j.leq(&c));
        }
    }
}

#[test]
fn leq_is_reflexive_and_transitive() {
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..CASES {
        let (a, b, c) = (arb_vec(&mut rng), arb_vec(&mut rng), arb_vec(&mut rng));
        assert!(a.leq(&a));
        if a.leq(&b) && b.leq(&c) {
            assert!(a.leq(&c));
        }
    }
}

#[test]
fn leq_is_antisymmetric() {
    let mut rng = SmallRng::seed_from_u64(6);
    for _ in 0..CASES {
        let (a, b) = (arb_vec(&mut rng), arb_vec(&mut rng));
        if a.leq(&b) && b.leq(&a) {
            assert_eq!(a, b);
        }
    }
}

#[test]
fn concurrent_is_symmetric_and_irreflexive() {
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..CASES {
        let (a, b) = (arb_vec(&mut rng), arb_vec(&mut rng));
        assert_eq!(a.concurrent(&b), b.concurrent(&a));
        assert!(!a.concurrent(&a));
    }
}

#[test]
fn compatibility_is_symmetric() {
    let mut rng = SmallRng::seed_from_u64(8);
    for _ in 0..CASES {
        let (x, y) = (arb_stamp(&mut rng), arb_stamp(&mut rng));
        assert_eq!(x.compatible(&y), y.compatible(&x));
    }
}

#[test]
fn compatibility_is_reflexive() {
    let mut rng = SmallRng::seed_from_u64(9);
    for _ in 0..CASES {
        let x = arb_stamp(&mut rng);
        assert!(x.compatible(&x));
    }
}

#[test]
fn causally_ordered_stamps_are_compatible() {
    let mut rng = SmallRng::seed_from_u64(10);
    for _ in 0..CASES {
        // A transaction that merges x's vector and then writes elsewhere
        // produces a stamp compatible with x.
        let x = arb_stamp(&mut rng);
        let bump = rng.gen_range(0u32..DIM as u32);
        let Stamp::Vec { vec, .. } = &x else {
            unreachable!()
        };
        let mut v2 = vec.clone();
        v2.bump(bump as usize);
        let y = Stamp::Vec {
            origin: bump,
            vec: v2,
        };
        // y observed x's own entry, so x's entry at y's origin <= y's, and
        // y's at x's origin >= x's.
        // exception: same origin — y overwrote x's partition, which is a
        // newer version of the same index and thus incompatible.
        let same_origin = matches!(&x, Stamp::Vec { origin, .. } if *origin == bump);
        assert!(x.compatible(&y) || same_origin);
    }
}
