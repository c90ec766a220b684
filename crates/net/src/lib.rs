//! # gdur-net — geo-replicated network model
//!
//! Implements the [`LatencyModel`] used by every G-DUR experiment: processes
//! are grouped into *sites* (data centers); messages between sites pay a
//! WAN round-trip component drawn from a latency matrix (10–20 ms in the
//! paper's Grid'5000 testbed), a small multiplicative jitter, and a
//! bandwidth-proportional transmission component; messages inside a site pay
//! a small LAN delay.
//!
//! The crate also supports *partition injection*: any pair of sites can be
//! disconnected and reconnected while the simulation runs, which the
//! dependability tests (§5.3 / §8.5 of the paper) use to contrast the
//! blocking behaviour of 2PC with quorum-based group communication.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Mutex;

use gdur_sim::{LatencyModel, ProcessId, SimDuration};

/// Identifies a site (data center) in the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u16);

impl SiteId {
    /// Returns the site id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// Static description of the deployment: which process lives at which site,
/// and the pairwise inter-site latency matrix.
#[derive(Debug, Clone)]
pub struct Topology {
    site_of: Vec<SiteId>,
    /// `latency[a][b]` is the one-way base delay between sites `a` and `b`.
    latency: Vec<Vec<SimDuration>>,
    /// One-way delay between two processes of the same site.
    lan_delay: SimDuration,
    /// Multiplicative jitter amplitude: actual = base * (1 + U(-j, +j)).
    jitter: f64,
}

/// Link bandwidth in bytes per second (transmission time = size / bw):
/// 1 GB/s, effectively LAN-class.
const BANDWIDTH_BYTES_PER_SEC: u64 = 1_000_000_000;

/// Transmission time of one byte at [`BANDWIDTH_BYTES_PER_SEC`], in whole
/// nanoseconds: the bandwidth divides a second exactly, so a message's
/// transmission time is an integer product, with no rounding.
const NANOS_PER_BYTE: u64 = 1_000_000_000 / BANDWIDTH_BYTES_PER_SEC;
const _: () = assert!(1_000_000_000 % BANDWIDTH_BYTES_PER_SEC == 0);

/// Transmission time of a `bytes`-sized message.
fn transmission(bytes: usize) -> SimDuration {
    SimDuration::from_nanos((bytes as u64).saturating_mul(NANOS_PER_BYTE))
}

impl Topology {
    /// Creates a topology with an explicit inter-site latency matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, if the diagonal is not zero, or
    /// if `jitter` is not within `[0, 1)`.
    pub fn new(latency: Vec<Vec<SimDuration>>, lan_delay: SimDuration, jitter: f64) -> Self {
        let n = latency.len();
        for (i, row) in latency.iter().enumerate() {
            assert_eq!(row.len(), n, "latency matrix must be square");
            assert_eq!(row[i], SimDuration::ZERO, "diagonal must be zero");
        }
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0,1)");
        Topology {
            site_of: Vec::new(),
            latency,
            lan_delay,
            jitter,
        }
    }

    /// Creates the paper's geo-replicated setting: `sites` data centers with
    /// pairwise one-way latencies spread evenly across 10–20 ms (as on the
    /// Grid'5000 sites), 0.1 ms LAN delay, and 5% jitter.
    // Triangular fill with symmetric writes: indices are the point.
    #[allow(clippy::needless_range_loop)]
    pub fn grid5000(sites: usize) -> Self {
        assert!(sites >= 1, "need at least one site");
        let mut latency = vec![vec![SimDuration::ZERO; sites]; sites];
        let mut k = 0usize;
        let pairs = sites * sites.saturating_sub(1) / 2;
        for a in 0..sites {
            for b in (a + 1)..sites {
                // Deterministically spread base latencies across 10..=20 ms.
                let frac = if pairs <= 1 {
                    0.5
                } else {
                    k as f64 / (pairs - 1) as f64
                };
                let one_way = SimDuration::from_micros_f64(10_000.0 + 10_000.0 * frac);
                latency[a][b] = one_way;
                latency[b][a] = one_way;
                k += 1;
            }
        }
        Topology::new(latency, SimDuration::from_micros(100), 0.05)
    }

    /// Overrides the jitter amplitude. `0.0` makes every delay a pure
    /// function of the endpoints and message size.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is not within `[0, 1)`.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0,1)");
        self.jitter = jitter;
        self
    }

    /// Number of sites in the deployment.
    pub fn sites(&self) -> usize {
        self.latency.len()
    }

    /// Registers the next process as living at `site` and returns the dense
    /// process index it will occupy. Call in the same order processes are
    /// spawned into the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn place(&mut self, site: SiteId) -> usize {
        assert!(site.index() < self.sites(), "unknown site {site}");
        self.site_of.push(site);
        self.site_of.len() - 1
    }

    /// Site of a placed process.
    ///
    /// # Panics
    ///
    /// Panics if the process was never placed.
    pub fn site_of(&self, p: ProcessId) -> SiteId {
        self.site_of[p.index()]
    }

    /// True if a message between placed processes `a` and `b` crosses a
    /// site boundary (the WAN traffic the paper's metadata costs hinge on).
    ///
    /// # Panics
    ///
    /// Panics if either process was never placed.
    pub fn is_wan(&self, a: ProcessId, b: ProcessId) -> bool {
        self.site_of(a) != self.site_of(b)
    }

    /// Base one-way latency between two sites.
    pub fn base_latency(&self, a: SiteId, b: SiteId) -> SimDuration {
        if a == b {
            self.lan_delay
        } else {
            self.latency[a.index()][b.index()]
        }
    }
}

/// Shared handle that injects and heals inter-site partitions at runtime.
///
/// [`PartitionControl::is_cut`] sits on the per-message delay path, so the
/// handle keeps a lock-free count of active cuts: the common no-partition
/// deployment answers with one atomic load and never touches the mutex.
#[derive(Debug, Clone, Default)]
pub struct PartitionControl {
    cut: Arc<Mutex<Vec<(SiteId, SiteId)>>>,
    active: Arc<AtomicUsize>,
}

impl PartitionControl {
    /// Creates a control with no partitions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Disconnects sites `a` and `b` (both directions).
    pub fn cut(&self, a: SiteId, b: SiteId) {
        let key = if a <= b { (a, b) } else { (b, a) };
        let mut cuts = self.cut.lock().unwrap();
        if !cuts.contains(&key) {
            cuts.push(key);
            // Updated while holding the lock so the count never lags the
            // list it summarizes.
            self.active.store(cuts.len(), Ordering::Release);
        }
    }

    /// Reconnects sites `a` and `b`.
    pub fn heal(&self, a: SiteId, b: SiteId) {
        let key = if a <= b { (a, b) } else { (b, a) };
        let mut cuts = self.cut.lock().unwrap();
        cuts.retain(|k| *k != key);
        self.active.store(cuts.len(), Ordering::Release);
    }

    /// True if the pair is currently disconnected.
    pub fn is_cut(&self, a: SiteId, b: SiteId) -> bool {
        if self.active.load(Ordering::Acquire) == 0 {
            return false;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        self.cut.lock().unwrap().contains(&key)
    }
}

/// The geo-replicated latency model: WAN matrix + jitter + bandwidth +
/// optional partitions.
///
/// Messages crossing a cut pair of sites are delayed by
/// [`GeoLatency::PARTITION_DELAY`] (an hour of virtual time), which is
/// indistinguishable from loss for any experiment horizon while keeping the
/// kernel's API infallible.
#[derive(Debug, Clone)]
pub struct GeoLatency {
    topology: Topology,
    partitions: PartitionControl,
}

impl GeoLatency {
    /// Effective delay applied to messages crossing a partition.
    pub const PARTITION_DELAY: SimDuration = SimDuration::from_secs(3600);

    /// Wraps a topology with no active partitions.
    pub fn new(topology: Topology) -> Self {
        GeoLatency {
            topology,
            partitions: PartitionControl::new(),
        }
    }

    /// Returns the shared partition-injection handle.
    pub fn partition_control(&self) -> PartitionControl {
        self.partitions.clone()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl LatencyModel for GeoLatency {
    fn delay(
        &self,
        from: ProcessId,
        to: ProcessId,
        bytes: usize,
        rng: &mut SmallRng,
    ) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        let (sa, sb) = (self.topology.site_of(from), self.topology.site_of(to));
        if sa != sb && self.partitions.is_cut(sa, sb) {
            return Self::PARTITION_DELAY;
        }
        let base = self.topology.base_latency(sa, sb);
        let jitter = if self.topology.jitter > 0.0 {
            1.0 + rng.gen_range(-self.topology.jitter..self.topology.jitter)
        } else {
            1.0
        };
        let propagation = SimDuration::from_nanos((base.as_nanos() as f64 * jitter) as u64);
        propagation + transmission(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn grid5000_matrix_is_symmetric_in_range() {
        let t = Topology::grid5000(4);
        assert_eq!(t.sites(), 4);
        for a in 0..4 {
            for b in 0..4 {
                let d = t.latency[a][b];
                assert_eq!(d, t.latency[b][a]);
                if a != b {
                    assert!(
                        d >= SimDuration::from_millis(10) && d <= SimDuration::from_millis(20),
                        "latency {d} out of the 10-20ms band"
                    );
                } else {
                    assert_eq!(d, SimDuration::ZERO);
                }
            }
        }
    }

    #[test]
    fn placement_and_site_lookup() {
        let mut t = Topology::grid5000(2);
        assert_eq!(t.place(SiteId(0)), 0);
        assert_eq!(t.place(SiteId(1)), 1);
        assert_eq!(t.place(SiteId(1)), 2);
        assert_eq!(t.site_of(ProcessId(0)), SiteId(0));
        assert_eq!(t.site_of(ProcessId(2)), SiteId(1));
    }

    #[test]
    fn lan_delay_applies_within_site() {
        let mut t = Topology::grid5000(2);
        t.place(SiteId(0));
        t.place(SiteId(0));
        let geo = GeoLatency::new(t);
        let d = geo.delay(ProcessId(0), ProcessId(1), 100, &mut rng());
        assert!(d < SimDuration::from_millis(1), "LAN delay too large: {d}");
        assert!(d > SimDuration::ZERO);
    }

    #[test]
    fn wan_delay_has_bounded_jitter() {
        let mut t = Topology::grid5000(2);
        t.place(SiteId(0));
        t.place(SiteId(1));
        let base = t.base_latency(SiteId(0), SiteId(1));
        let geo = GeoLatency::new(t);
        let mut r = rng();
        for _ in 0..100 {
            let d = geo.delay(ProcessId(0), ProcessId(1), 0, &mut r);
            let lo = base.as_nanos() as f64 * 0.95;
            let hi = base.as_nanos() as f64 * 1.05;
            assert!(
                (d.as_nanos() as f64) >= lo - 1.0 && (d.as_nanos() as f64) <= hi + 1.0,
                "jittered delay {d} outside 5% of base {base}"
            );
        }
    }

    #[test]
    fn bandwidth_charges_transmission_time() {
        let mut t = Topology::grid5000(2).with_jitter(0.0);
        t.place(SiteId(0));
        t.place(SiteId(1));
        let geo = GeoLatency::new(t);
        let small = geo.delay(ProcessId(0), ProcessId(1), 0, &mut rng());
        let big = geo.delay(ProcessId(0), ProcessId(1), 1_000_000, &mut rng());
        // 1 MB at the fixed 1 GB/s adds exactly one millisecond.
        assert_eq!(big - small, SimDuration::from_millis(1));
    }

    /// The integer transmission time against the float formula it
    /// replaced, `SimDuration::from_secs_f64(bytes as f64 / 1e9)`: equal
    /// for every size below 2^24 and on a seeded sample up to 2^40.
    #[test]
    fn transmission_matches_the_float_formula() {
        let float = |bytes: usize| SimDuration::from_secs_f64(bytes as f64 / 1e9);
        for bytes in 0..1usize << 24 {
            assert_eq!(transmission(bytes), float(bytes), "{bytes} bytes");
        }
        let mut rng = rng();
        for _ in 0..1_000_000 {
            let bytes = rng.gen_range(0..1usize << 40);
            assert_eq!(transmission(bytes), float(bytes), "{bytes} bytes");
        }
    }

    #[test]
    fn partitions_cut_and_heal() {
        let mut t = Topology::grid5000(2);
        t.place(SiteId(0));
        t.place(SiteId(1));
        let geo = GeoLatency::new(t);
        let ctl = geo.partition_control();
        ctl.cut(SiteId(1), SiteId(0));
        assert!(ctl.is_cut(SiteId(0), SiteId(1)));
        assert_eq!(
            geo.delay(ProcessId(0), ProcessId(1), 10, &mut rng()),
            GeoLatency::PARTITION_DELAY
        );
        ctl.heal(SiteId(0), SiteId(1));
        assert!(!ctl.is_cut(SiteId(0), SiteId(1)));
        assert!(
            geo.delay(ProcessId(0), ProcessId(1), 10, &mut rng()) < SimDuration::from_millis(25)
        );
    }

    #[test]
    fn self_delay_is_zero() {
        let mut t = Topology::grid5000(1);
        t.place(SiteId(0));
        let geo = GeoLatency::new(t);
        assert_eq!(
            geo.delay(ProcessId(0), ProcessId(0), 1_000_000, &mut rng()),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_matrix_rejected() {
        let _ = Topology::new(
            vec![
                vec![SimDuration::ZERO],
                vec![SimDuration::ZERO, SimDuration::ZERO],
            ],
            SimDuration::ZERO,
            0.0,
        );
    }
}
