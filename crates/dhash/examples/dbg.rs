use dhash::*;
use simnet::{ProcId, SimConfig};
use std::collections::BTreeMap;

fn main() {
    let spec = HashSpec {
        preload: (0..100).map(|k| k * 3).collect(),
        n_procs: 4,
        cfg: HashConfig {
            capacity: 8,
            protocol: DirProtocol::Lazy,
            spread_images: true,
            record_history: true,
        },
    };
    let mut cluster = HashCluster::build(&spec, SimConfig::jittery(1, 2, 25));
    let mut expected: BTreeMap<u64, u64> = (0..100).map(|k| (k * 3, k * 3)).collect();
    for i in 0..300u64 {
        let r = (i ^ 1).wrapping_mul(0x9E3779B97F4A7C15);
        let key = 10_000 + (r % 5_000);
        let origin = ProcId((r >> 32) as u32 % 4);
        match r % 10 {
            0..=6 => {
                cluster.submit(origin, key, HKind::Insert(key + 1));
                expected.insert(key, key + 1);
            }
            7 => {
                cluster.submit(origin, key, HKind::Delete);
                expected.remove(&key);
            }
            _ => {
                cluster.submit(origin, key, HKind::Search);
            }
        }
        let stats = cluster.try_run_to_quiescence().expect("run quiesces");
        for rec in &stats.records {
            if rec.outcome.lost {
                println!(
                    "op {} LOST at i={} key={} kind r%10={} hops={} recov={}",
                    rec.outcome.op,
                    i,
                    key,
                    r % 10,
                    rec.outcome.hops,
                    rec.outcome.recoveries
                );
                // dump bucket info across procs
                let h = hash_of(key);
                for (pid, p) in cluster.sim.procs() {
                    let route = p.dir.route(h);
                    println!(
                        "  {pid} dir depth {} routes h={h:x} -> {:?} home {:?} ld {}",
                        p.dir.global_depth(),
                        route.id,
                        route.home,
                        route.local_depth
                    );
                }
                for (pid, p) in cluster.sim.procs() {
                    for (id, b) in &p.buckets {
                        if !b.owns(h) {
                            continue;
                        }
                        println!(
                            "  owner of h: {pid} {:?} pattern {:b} ld {}",
                            id, b.pattern, b.local_depth
                        );
                    }
                }
            }
        }
    }
    println!("done");
}
