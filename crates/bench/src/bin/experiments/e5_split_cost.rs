//! E5 — Fig 5 + §4.1 claims: split cost and blocking, sync vs semisync.
//!
//! The paper: the synchronous protocol needs `3·|copies(n)|` messages per
//! split (start/ack/end rounds) and blocks initial inserts for the AAS's
//! duration; the semisync protocol needs `|copies(n)|` messages (optimal)
//! and never blocks. We sweep the replication factor and measure both, that
//! a split sends nothing beyond its relays and the insert into its parent,
//! and — from the send side — that a semisync split action sends its peers
//! no relay message besides the split relays, which carry its relays.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::rc::Rc;

use bench::report::{note, Table};
use bench::{build_cluster, drive, f2};
use dbtree::{GlobalView, ProtocolKind, TreeConfig};
use simnet::{Choice, Scheduler, SimTime};
use workload::Mix;

/// A fired event with the sequence numbers of the events it created.
type Fired = (Choice, Range<u64>);

/// The simulator's own order — earliest event first, oldest on a tie — with
/// the send side logged: every fired event and the events it created.
#[derive(Default)]
struct SendLog {
    fired: Rc<RefCell<Vec<Fired>>>,
}

impl Scheduler for SendLog {
    fn choose(&mut self, _now: SimTime, enabled: &[Choice]) -> usize {
        let first = enabled
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.at, c.seq));
        first.map_or(0, |(i, _)| i)
    }

    fn fired(&mut self, chosen: &Choice, created: Range<u64>) {
        self.fired.borrow_mut().push((*chosen, created));
    }
}

/// Relay messages (`insert.relay*`) the actions that split sent the
/// processors they sent a split relay (`split.relay` / `split.end`).
fn relays_beside_split_relays(fired: &[Fired]) -> usize {
    let by_seq: HashMap<u64, &Choice> = fired.iter().map(|(c, _)| (c.seq, c)).collect();
    let mut beside = 0;
    for (_, created) in fired {
        let sent: Vec<&Choice> = created
            .clone()
            .filter_map(|s| by_seq.get(&s).copied())
            .collect();
        let split_relays = sent
            .iter()
            .filter(|c| matches!(c.label, "split.relay" | "split.end"));
        let peers: HashSet<_> = split_relays.map(|c| c.to).collect();
        let to_peers = sent.iter().filter(|c| peers.contains(&c.to));
        beside += to_peers
            .filter(|c| c.label.starts_with("insert.relay"))
            .count();
    }
    beside
}

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "copies",
        "protocol",
        "splits",
        "split msgs/split",
        "paper predicts",
        "other relay msgs to peers",
        "blocked inserts",
        "mean block ticks",
    ]);

    for &copies in &[2usize, 3, 4, 6, 8] {
        for protocol in [ProtocolKind::Sync, ProtocolKind::SemiSync] {
            let cfg = TreeConfig {
                fanout: 8,
                record_history: false,
                ..TreeConfig::fixed_copies(protocol, copies)
            };
            let mut cluster = build_cluster(cfg, 8, 50, 5);
            let log = SendLog::default();
            let fired = Rc::clone(&log.fired);
            cluster.sim.set_scheduler(Box::new(log));
            let built: HashSet<_> = GlobalView::new(&cluster.sim).copies.into_keys().collect();
            drive(&mut cluster, 50, 1500, Mix::INSERT_ONLY, 20_000, 5, 4);

            let splits = bench::sum_metric(&cluster, |m| m.splits_initiated).max(1);
            let s = cluster.sim.stats();
            // Everything a split sends: the relays carry the sibling.
            let split_msgs = s.remote_matching(|k| k.starts_with("split."));
            let blocked = bench::sum_metric(&cluster, |m| m.blocked_initial);
            let block_ticks = bench::sum_metric(&cluster, |m| m.blocked_ticks);
            // The paper's count is per node, |copies(n)| − 1: R − 1, but
            // P − 1 for a grown root. A node born in the run right of key 0
            // is a sibling (a new root starts at 0), with the membership of
            // the node that split.
            let view = GlobalView::new(&cluster.sim);
            let born = view.copies.iter().filter(|(id, _)| !built.contains(id));
            let siblings = born.map(|(_, c)| c[0].1).filter(|c| c.low > 0);
            let others: usize = siblings.map(|c| c.members.procs().len() - 1).sum();
            let (rounds, law) = match protocol {
                ProtocolKind::Sync => (3, format!("3(R-1) = {}", 3 * (copies - 1))),
                _ => (1, format!("R-1 = {}", copies - 1)),
            };
            assert_eq!(split_msgs as usize, rounds * others, "{law}, per node");
            // And nothing else: the rest of an insert-only run is the
            // client plane, the parent inserts and their relays, and a new
            // root's install — no link change to the old right neighbour.
            const PLANES: [&str; 6] = ["client", "done", "descend", "insert.", "split.", "copy."];
            let stray: Vec<&str> = (s.kinds().map(|(k, _)| k))
                .filter(|k| !PLANES.iter().any(|p| k.starts_with(p)))
                .collect();
            assert!(stray.is_empty(), "a split sent {stray:?}");
            // A semisync split relay carries its action's relays: the peers
            // it went to get no other relay message from that action.
            let beside = relays_beside_split_relays(&fired.borrow());
            if protocol == ProtocolKind::SemiSync {
                assert_eq!(beside, 0, "R = {copies}: relays beside the split relays");
            }
            let predict = format!("{law}: {}", f2((rounds * others) as f64 / splits as f64));
            table.row(&[
                copies.to_string(),
                protocol.label().to_string(),
                splits.to_string(),
                f2(split_msgs as f64 / splits as f64),
                predict,
                f2(beside as f64 / splits as f64),
                blocked.to_string(),
                f2(block_ticks as f64 / blocked.max(1) as f64),
            ]);
        }
    }
    table.print();
    note(
        "R = copies per node (8 for a grown root: a row above its law split one); measured = every",
    );
    note("remote split.start/ack/end/relay, predicted = the law over each split node's own membership;");
    note("other relay msgs = insert.relay* the splitting action sent its split relays' destinations,");
    note(
        "per split (semisync: 0, they ride the split relay); semisync is 3x cheaper per split and",
    );
    note("never blocks an initial insert (its column is 0)");
}
