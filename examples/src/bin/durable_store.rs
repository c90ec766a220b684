//! The pluggable persistence layer: run a protocol with the write-ahead
//! log attached, then crash every replica and restart it, so that each
//! rebuilds its datastore from its own log alone — the paper's "she can
//! easily implement an interface and attach any other data store" (§7),
//! plus the §5.3 requirement that 2PC state changes be logged for crash
//! recovery. The placement is disaster-prone: no partition has a second
//! replica to catch up from.
//!
//! ```text
//! cargo run --release -p gdur-examples --bin durable_store
//! ```

use gdur_core::{Cluster, ClusterConfig};
use gdur_net::SiteId;
use gdur_persist::LogRecord;
use gdur_store::{Key, Value};
use gdur_workload::{WorkloadSpec, YcsbSource};

fn main() {
    let mut cfg = ClusterConfig::small(gdur_protocols::walter(), 3);
    cfg.persistence = true;
    cfg.keys_per_partition = 200;
    cfg.clients_per_site = 2;
    cfg.max_txns_per_client = Some(50);
    let total = cfg.keys_per_partition * 3;
    let mut cluster = Cluster::build(cfg, move |_, site| {
        Box::new(YcsbSource::new(
            WorkloadSpec::a(),
            total,
            3,
            site.0 as u64 % 3,
            0.5,
        ))
    });
    cluster.run_until_idle();

    let committed = cluster.records().iter().filter(|r| r.committed).count();
    println!("ran {committed} committed transactions under Walter with the WAL attached\n");

    // Each replica's updated keys as the live run left them; seed versions
    // are not logged.
    let latest = |cluster: &Cluster, s: u16| -> Vec<Option<(u64, Value)>> {
        let store = cluster.replica(SiteId(s)).store();
        let updated = |key| store.latest(key).filter(|v| v.seq > 0);
        (0..total)
            .map(|k| updated(Key(k)).map(|v| (v.seq, v.value.clone())))
            .collect()
    };
    let live: Vec<_> = (0..3).map(|s| latest(&cluster, s)).collect();
    for pid in cluster.replica_pids().to_vec() {
        let now = cluster.now();
        cluster.sim_mut().schedule_crash(pid, now);
        cluster.sim_mut().schedule_restart(pid, now);
    }
    cluster.run_until_idle();

    for s in 0..3u16 {
        let wal = cluster
            .replica(SiteId(s))
            .wal()
            .expect("persistence attached");
        let decisions = wal.scan().into_iter();
        let decisions = decisions.filter(|r| matches!(r, LogRecord::Decision { .. }));
        let rebuilt = latest(&cluster, s);
        let matched = live[s as usize].iter().flatten().count();
        let diverged = live[s as usize]
            .iter()
            .zip(&rebuilt)
            .filter(|(l, r)| l != r)
            .count();
        println!(
            "site{s}: log = {:>6} records / {:>8} bytes, decisions = {:>4}, \
             recovered {matched} updated keys, {diverged} diverged",
            wal.len(),
            wal.byte_len(),
            decisions.count(),
        );
        assert_eq!(diverged, 0, "recovery must reproduce the live store");
    }
    println!("\nevery replica's store is reproducible from its write-ahead log");
}
