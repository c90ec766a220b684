//! Version stamps and the snapshot-compatibility tests of §4.2.
//!
//! A *stamp* is the version number Θ(xᵢ) a versioning mechanism attaches to
//! the version of object `x` written by transaction `Tᵢ`. G-DUR supports
//! five mechanisms (§4.1):
//!
//! | mechanism | representation | order | used by |
//! |---|---|---|---|
//! | TS  | scalar per-object sequence | total | P-Store, Serrano, RC |
//! | VC  | vector clock over replicas | pointwise | (library) |
//! | VTS | vector timestamp over partitions; fixed start snapshot | pointwise | Walter, S-DUR |
//! | GMV | dependence vector over partitions; fresh snapshots | pointwise | GMU |
//! | PDV | partitioned dependence vector; fresh + permissive | pointwise | Jessy2pc, P-Store-la |
//!
//! The *compatibility test* (used by `choose_cons`) takes two stamps and
//! answers whether the two versions can belong to one consistent snapshot.

use crate::vec::VersionVec;

/// The versioning mechanism Θ selected by a protocol (realization point of
/// Algorithm 1's `choose`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Scalar timestamps: one monotone sequence per object.
    Ts,
    /// Vector clocks over replicas.
    Vc,
    /// Vector timestamps: fixed snapshot chosen at transaction begin, kept
    /// fresh by background propagation (Walter, S-DUR).
    Vts,
    /// GMU vectors: snapshots computed greedily during execution; fresh but
    /// non-monotonic (GMU).
    Gmv,
    /// Partitioned dependence vectors: like GMV, dimensioned by partition,
    /// permissive for all partially-consistent snapshots (Jessy).
    Pdv,
}

impl Mechanism {
    /// Dimension of the vector this mechanism maintains: 0 for scalar TS,
    /// replicas for VC, partitions for VTS/GMV/PDV.
    pub fn dim(self, replicas: usize, partitions: usize) -> usize {
        match self {
            Mechanism::Ts => 0,
            Mechanism::Vc => replicas,
            Mechanism::Vts | Mechanism::Gmv | Mechanism::Pdv => partitions,
        }
    }

    /// Whether the mechanism takes a snapshot vector at transaction begin
    /// (VTS) as opposed to building the snapshot greedily from reads.
    pub fn fixed_snapshot(self) -> bool {
        matches!(self, Mechanism::Vts | Mechanism::Vc)
    }

    /// Metadata bytes attached to a message carrying one stamp.
    pub fn stamp_wire_size(self, replicas: usize, partitions: usize) -> usize {
        match self {
            Mechanism::Ts => 8,
            _ => 8 * self.dim(replicas, partitions) + 4,
        }
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Mechanism::Ts => "TS",
            Mechanism::Vc => "VC",
            Mechanism::Vts => "VTS",
            Mechanism::Gmv => "GMV",
            Mechanism::Pdv => "PDV",
        };
        f.write_str(s)
    }
}

/// The version number Θ(xᵢ) of one committed version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stamp {
    /// Scalar per-object sequence number.
    Ts(u64),
    /// Vector stamp: `origin` is the index (partition) of the written
    /// object, whose entry in `vec` is authoritative for this version.
    Vec {
        /// Partition (or replica, for VC) that owns the written object.
        origin: u32,
        /// The dependence/timestamp vector of the writing transaction.
        vec: VersionVec,
    },
}

impl Stamp {
    /// The dependence vector, if this is a vector stamp.
    pub fn as_vec(&self) -> Option<&VersionVec> {
        match self {
            Stamp::Ts(_) => None,
            Stamp::Vec { vec, .. } => Some(vec),
        }
    }

    /// Approximate serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            Stamp::Ts(_) => 8,
            Stamp::Vec { vec, .. } => 4 + vec.wire_size(),
        }
    }

    /// §4.2 versions-compatibility test: true iff `{self, other}` can form a
    /// consistent snapshot under the (vector) mechanism.
    ///
    /// Two versions `x` (origin partition `px`) and `y` (origin `py`) are
    /// compatible iff neither transaction observed a version of the other's
    /// partition newer than the one chosen:
    /// `Vx[py] <= Vy[py] && Vy[px] <= Vx[px]`.
    ///
    /// Scalar (TS) stamps carry no dependence information; `choose_last`
    /// protocols never invoke the test, so TS stamps are vacuously
    /// compatible.
    pub fn compatible(&self, other: &Stamp) -> bool {
        match (self, other) {
            (
                Stamp::Vec {
                    origin: px,
                    vec: vx,
                },
                Stamp::Vec {
                    origin: py,
                    vec: vy,
                },
            ) => {
                let (px, py) = (*px as usize, *py as usize);
                vx.get(py) <= vy.get(py) && vy.get(px) <= vx.get(px)
            }
            _ => true,
        }
    }
}

impl std::fmt::Display for Stamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stamp::Ts(s) => write!(f, "ts:{s}"),
            Stamp::Vec { origin, vec } => write!(f, "v@{origin}:{vec}"),
        }
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
    fn mechanism_dims() {
        assert_eq!(Mechanism::Ts.dim(4, 4), 0);
        assert_eq!(Mechanism::Vc.dim(8, 4), 8);
        assert_eq!(Mechanism::Vts.dim(8, 4), 4);
        assert_eq!(Mechanism::Gmv.dim(8, 4), 4);
        assert_eq!(Mechanism::Pdv.dim(8, 4), 4);
    }

    #[test]
    fn stamp_wire_sizes_scale_with_dim() {
        assert_eq!(Mechanism::Ts.stamp_wire_size(4, 4), 8);
        assert_eq!(Mechanism::Gmv.stamp_wire_size(4, 4), 36);
        assert!(
            Mechanism::Pdv.stamp_wire_size(4, 8) > Mechanism::Pdv.stamp_wire_size(4, 4),
            "more partitions, more metadata"
        );
    }

    #[test]
    fn compatibility_same_partition_orders_by_seq() {
        // Same partition: compatible iff equal own entries — two distinct
        // versions of the same partition index conflict unless one observed
        // the other.
        let x1 = vstamp(0, &[1, 0]);
        let x2 = vstamp(0, &[2, 0]);
        assert!(!x1.compatible(&x2));
        assert!(x1.compatible(&x1));
    }

    #[test]
    fn compatibility_cross_partition() {
        // y was written by a txn that saw x (vy[0] = 1 >= vx[0] = 1): ok.
        let x = vstamp(0, &[1, 0]);
        let y = vstamp(1, &[1, 1]);
        assert!(x.compatible(&y));
        assert!(y.compatible(&x), "test is symmetric");

        // z depends on a *newer* version of partition 0 (entry 2) than x:
        // {x, z} is not a consistent snapshot.
        let z = vstamp(1, &[2, 1]);
        assert!(!x.compatible(&z));
    }

    #[test]
    fn ts_stamps_vacuously_compatible() {
        assert!(Stamp::Ts(1).compatible(&Stamp::Ts(9)));
        assert!(Stamp::Ts(1).compatible(&vstamp(0, &[5])));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Stamp::Ts(3)), "ts:3");
        assert_eq!(format!("{}", vstamp(1, &[1, 2])), "v@1:[1,2]");
        assert_eq!(format!("{}", Mechanism::Gmv), "GMV");
    }
}
