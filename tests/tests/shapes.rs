//! Reduced-scale checks that the headline *shapes* of the paper's
//! evaluation hold: who is faster than whom, and why. These are the
//! qualitative claims of §8 turned into assertions; the full-scale numbers
//! live in EXPERIMENTS.md.

use gdur_harness::{run_point, Experiment, PlacementKind, Scale, WorkloadKind};
use gdur_sim::SimDuration;

fn scale() -> Scale {
    let mut s = Scale::quick();
    s.keys_per_partition = 5_000;
    s.warmup = SimDuration::from_millis(500);
    s.measure = SimDuration::from_secs(2);
    s
}

fn point(exp: &Experiment, clients: usize) -> gdur_harness::PointResult {
    run_point(exp, &scale(), clients)
}

/// §8.2: P-Store's queries synchronize at termination, so its update *and*
/// query latencies sit far above the wait-free-query protocols'.
#[test]
fn pstore_queries_cost_a_wan_round() {
    let jessy = point(
        &Experiment::new(
            gdur_protocols::jessy_2pc(),
            WorkloadKind::A,
            0.9,
            4,
            PlacementKind::Dp,
        ),
        16,
    );
    let pstore = point(
        &Experiment::new(
            gdur_protocols::p_store(),
            WorkloadKind::A,
            0.9,
            4,
            PlacementKind::Dp,
        ),
        16,
    );
    assert!(
        pstore.throughput_tps < jessy.throughput_tps * 0.6,
        "P-Store ({:.0} tps) should trail Jessy2pc ({:.0} tps) at 90% read-only",
        pstore.throughput_tps,
        jessy.throughput_tps
    );
    assert!(
        pstore.term_latency_update_ms > jessy.term_latency_update_ms * 1.5,
        "AM-Cast ordering must cost more delays than 2PC"
    );
}

/// §8.2, Figure 3-a past the knee (70 % read-only): RC is the ceiling,
/// Jessy2pc the fastest transactional protocol, and S-DUR's wait-free
/// queries put it above Serrano although both order updates by multicast.
#[test]
fn fig3a_order_at_saturation() {
    let tps = |spec| {
        let exp = Experiment::new(spec, WorkloadKind::A, 0.7, 4, PlacementKind::Dp);
        point(&exp, 384).throughput_tps
    };
    let rc = tps(gdur_protocols::read_committed());
    let jessy = tps(gdur_protocols::jessy_2pc());
    let s_dur = tps(gdur_protocols::s_dur());
    let serrano = tps(gdur_protocols::serrano());
    assert!(
        rc > jessy,
        "RC ({rc:.0} tps) is the ceiling, above Jessy2pc ({jessy:.0})"
    );
    let others = [
        ("Walter", tps(gdur_protocols::walter())),
        ("GMU", tps(gdur_protocols::gmu())),
        ("S-DUR", s_dur),
        ("Serrano", serrano),
        ("P-Store", tps(gdur_protocols::p_store())),
    ];
    for (name, other) in others {
        assert!(
            jessy > other,
            "Jessy2pc ({jessy:.0} tps) should be the fastest, {name} has {other:.0}"
        );
    }
    assert!(
        s_dur > serrano,
        "S-DUR ({s_dur:.0} tps) should saturate above Serrano ({serrano:.0})"
    );
}

/// §8.2, Figure 3-b: GMU certifies queries' snapshots against concurrent
/// updates, so in DT it aborts far more than Walter and Jessy2pc.
#[test]
fn gmu_aborts_exceed_walter_and_jessy_in_dt() {
    let aborts = |spec| {
        let exp = Experiment::new(spec, WorkloadKind::B, 0.7, 4, PlacementKind::Dt);
        point(&exp, 64).abort_ratio
    };
    let gmu = aborts(gdur_protocols::gmu());
    for (name, other) in [
        ("Walter", aborts(gdur_protocols::walter())),
        ("Jessy2pc", aborts(gdur_protocols::jessy_2pc())),
    ] {
        assert!(
            gmu > other * 1.5,
            "GMU's abort ratio ({gmu:.4}) should be well above {name}'s ({other:.4})"
        );
    }
}

/// §8.3: GMU's consistent snapshots cost a few percent over GMU*; dropping
/// certification too (GMU**) approaches RC within the metadata gap.
#[test]
fn gmu_ablation_ordering_holds() {
    let mk = |spec| Experiment::new(spec, WorkloadKind::B, 0.9, 4, PlacementKind::Dp);
    let gmu = point(&mk(gdur_protocols::gmu()), 32);
    let star = point(&mk(gdur_protocols::gmu_star()), 32);
    let starstar = point(&mk(gdur_protocols::gmu_star_star()), 32);
    let rc = point(&mk(gdur_protocols::read_committed()), 32);
    // Latency ordering: RC <= GMU** <= GMU* (within noise) <= GMU.
    assert!(
        rc.avg_latency_ms <= starstar.avg_latency_ms + 1.0,
        "RC ({:.1}ms) should lower-bound GMU** ({:.1}ms)",
        rc.avg_latency_ms,
        starstar.avg_latency_ms
    );
    assert!(
        starstar.avg_latency_ms <= gmu.avg_latency_ms + 1.0,
        "GMU** ({:.1}ms) should not exceed GMU ({:.1}ms)",
        starstar.avg_latency_ms,
        gmu.avg_latency_ms
    );
    assert!(
        (star.avg_latency_ms - gmu.avg_latency_ms).abs() < gmu.avg_latency_ms * 0.25,
        "GMU* should follow GMU's trend (got {:.1} vs {:.1})",
        star.avg_latency_ms,
        gmu.avg_latency_ms
    );
}

/// §8.5: in the disaster-prone setting 2PC's two message delays beat
/// AM-Cast's ordering latency.
#[test]
fn two_pc_beats_amcast_latency_in_dp() {
    let am = point(
        &Experiment::new(
            gdur_protocols::p_store(),
            WorkloadKind::A,
            0.9,
            4,
            PlacementKind::Dp,
        ),
        16,
    );
    let tpc = point(
        &Experiment::new(
            gdur_protocols::p_store_2pc(),
            WorkloadKind::A,
            0.9,
            4,
            PlacementKind::Dp,
        ),
        16,
    );
    assert!(
        tpc.term_latency_update_ms * 1.5 < am.term_latency_update_ms,
        "2PC ({:.0}ms) should be well under AM-Cast ({:.0}ms)",
        tpc.term_latency_update_ms,
        am.term_latency_update_ms
    );
}

/// §8.5.2: under contention (Workload C) in DT, once the sites saturate,
/// 2PC's preemptive aborts grow past AM-Cast's a-priori ordering (the
/// paper's "abort ratio of 2PC increases drastically" crossover).
#[test]
fn contended_dt_2pc_aborts_exceed_amcast_at_saturation() {
    let mut s = scale();
    s.keys_per_partition = 100_000;
    s.warmup = SimDuration::from_millis(500);
    s.measure = SimDuration::from_secs(1);
    let am = run_point(
        &Experiment::new(
            gdur_protocols::p_store(),
            WorkloadKind::C,
            0.9,
            6,
            PlacementKind::Dt,
        ),
        &s,
        2048,
    );
    let tpc = run_point(
        &Experiment::new(
            gdur_protocols::p_store_2pc(),
            WorkloadKind::C,
            0.9,
            6,
            PlacementKind::Dt,
        ),
        &s,
        2048,
    );
    assert!(
        tpc.abort_ratio > am.abort_ratio,
        "saturated 2PC abort ratio ({:.3}) should exceed AM-Cast's ({:.3})",
        tpc.abort_ratio,
        am.abort_ratio
    );
    assert!(
        tpc.throughput_tps > am.throughput_tps * 1.5,
        "2PC should still out-throughput AM-Cast"
    );
}

/// §8.4: locality-aware P-Store gains throughput as the local-query ratio
/// rises.
#[test]
fn locality_waiver_pays_off() {
    let mk = |spec, ratio| {
        let mut e = Experiment::new(spec, WorkloadKind::A, 0.9, 4, PlacementKind::Dp);
        e.local_query_ratio = ratio;
        e
    };
    let base = point(&mk(gdur_protocols::p_store(), 0.9), 64);
    let la = point(&mk(gdur_protocols::p_store_la(), 0.9), 64);
    assert!(
        la.throughput_tps > base.throughput_tps,
        "P-Store-la ({:.0} tps) should beat P-Store ({:.0} tps) at 90% locality",
        la.throughput_tps,
        base.throughput_tps
    );
    assert!(
        la.term_latency_update_ms < base.term_latency_update_ms * 1.2,
        "the locality waiver must not degrade update latency"
    );
}
