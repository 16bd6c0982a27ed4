//! Rungs: floors and controls, each at most about a second, run once and
//! reported under the pseudo-workload `rungs`. They are not gated; they say
//! what the layers cost with no work above them, and what the same stream
//! costs with no distribution at all.

use std::hint::black_box;
use std::time::Instant;

use blink::BLinkTree;
use dbtree::Intent;
use dhash::{HKind, HashCluster, HashConfig, HashOp, HashSpec};
use simnet::driver::{ClientProtocol, Completion, NoScan};
use simnet::event::{EventKind, EventQueue};
use simnet::threaded::Cluster;
use simnet::{
    Context, Driver, Payload, ProcId, Process, Runtime, SessionConfig, SessionMsg, SessionProc,
    SimConfig, SimTime, Simulation,
};
use workload::{KeyDist, Mix, WorkloadGen};

use crate::gen::{self, SplitMix64};
use crate::timed::{self, TimedRuntime};
use crate::workloads::{self, repetition, Plain, Workload};

/// One rung's reading.
pub struct Rung {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn rung(name: &'static str, unit: &'static str, value: f64) -> Rung {
    Rung { name, unit, value }
}

/// The machine-speed unit: a fixed splitmix64 loop.
pub fn calib_ns_per_iter() -> f64 {
    const N: u64 = 100_000_000;
    let mut rng = SplitMix64::new(1);
    let t = Instant::now();
    let mut acc = 0;
    for _ in 0..N {
        acc ^= rng.next_u64();
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / N as f64
}

/// A token that is passed on `hops` more times, then leaves the system.
#[derive(Clone, Debug)]
struct Token(u32);

impl Payload for Token {
    fn kind(&self) -> &'static str {
        "token"
    }
}

/// Passes each token to the next processor: the least a process can do.
struct Relay {
    n: u32,
}

impl Process for Relay {
    type Msg = Token;
    fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: ProcId, msg: Token) {
        match msg.0 {
            0 => ctx.send(ProcId::EXTERNAL, msg),
            h => ctx.send(ProcId((ctx.me().0 + 1) % self.n), Token(h - 1)),
        }
    }
}

fn relays(n: u32) -> Vec<Relay> {
    (0..n).map(|_| Relay { n }).collect()
}

/// ns per delivered event of a simulation whose processors hold one token
/// each and pass it `hops` times.
fn token_ring<P: Process>(
    cfg: SimConfig,
    procs: Vec<P>,
    hops: u32,
    wrap: impl Fn(Token) -> P::Msg,
) -> f64 {
    let n = procs.len() as u32;
    let mut sim = Simulation::new(cfg, procs);
    for p in 0..n {
        sim.inject(ProcId(p), wrap(Token(hops)));
    }
    let t = Instant::now();
    sim.run();
    t.elapsed().as_nanos() as f64 / sim.events_delivered() as f64
}

/// `EventQueue` push + pop at a steady depth of 4 096.
fn event_queue(seed: u64, n: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut q: EventQueue<()> = EventQueue::new();
    for i in 0..4096 {
        q.push(
            SimTime(2 + rng.below(24)),
            ProcId(i % 64),
            EventKind::Timer { token: 0 },
        );
    }
    let t = Instant::now();
    for _ in 0..n {
        let e = q.pop().expect("the queue holds 4096 events");
        q.push(e.at + 2 + rng.below(24), e.to, e.kind);
    }
    black_box(q.len());
    t.elapsed().as_nanos() as f64 / n as f64
}

/// One hop: the client's request is answered at once.
#[derive(Clone, Debug)]
enum Echo {
    Req(u64),
    Done(u64),
}

impl Payload for Echo {}

struct Echoer;

impl Process for Echoer {
    type Msg = Echo;
    fn on_message(&mut self, ctx: &mut Context<'_, Echo>, _from: ProcId, msg: Echo) {
        if let Echo::Req(id) = msg {
            ctx.send(ProcId::EXTERNAL, Echo::Done(id));
        }
    }
}

enum EchoProtocol {}

impl ClientProtocol for EchoProtocol {
    type Msg = Echo;
    type Op = ProcId;
    type Outcome = ();
    type Scan = NoScan;
    type ScanResult = ();
    fn origin(op: &ProcId) -> ProcId {
        *op
    }
    fn request(id: u64, _op: &ProcId) -> Echo {
        Echo::Req(id)
    }
    fn scan_origin(scan: &NoScan) -> ProcId {
        match *scan {}
    }
    fn scan_request(_id: u64, scan: &NoScan) -> Echo {
        match *scan {}
    }
    fn parse(msg: Echo) -> Option<Completion<(), ()>> {
        match msg {
            Echo::Done(id) => Some(Completion::Op { id, outcome: () }),
            Echo::Req(_) => None,
        }
    }
}

/// The driver's own cost per op: a closed loop over the echo protocol,
/// minus the time spent inside the runtime.
fn driver_null(seed: u64, ops: u64) -> f64 {
    let cost = timed::calibrate();
    let procs = (0..64).map(|_| Echoer).collect();
    let sim = Simulation::new(SimConfig::jittery(seed, 2, 25), procs);
    let mut rt = TimedRuntime::new(sim, Instant::now());
    let stream: Vec<ProcId> = (0..ops).map(|i| ProcId((i % 64) as u32)).collect();
    let mut driver: Driver<EchoProtocol> = Driver::new();
    let t = Instant::now();
    let done = driver
        .try_run_closed_loop(&mut rt, &stream, 64)
        .map_or(0, |s| s.records.len());
    let wall = t.elapsed().as_nanos() as f64;
    assert_eq!(done as u64, ops, "the echo protocol loses nothing");
    let (_, spans) = rt.finish();
    let inside = spans.ns - spans.kind("into_procs").ns;
    (wall - inside as f64 - spans.calls as f64 * cost.outside_ns) / ops as f64
}

/// Two threads passing tokens: with one in flight every hop waits for a
/// wake-up (hand-off latency, ns per hop); with 64 the inboxes stay full
/// (throughput, messages per second).
fn threaded_ping_pong(in_flight: u32, hops_each: u32) -> (f64, f64) {
    let mut rt = Cluster::spawn(relays(2));
    let t = Instant::now();
    for i in 0..in_flight {
        rt.inject(ProcId(i % 2), Token(hops_each));
    }
    for _ in 0..in_flight {
        rt.recv_output().expect("every token comes back out");
    }
    let wall = t.elapsed().as_secs_f64();
    Runtime::into_procs(rt);
    let hops = in_flight as f64 * (hops_each + 1) as f64;
    (wall * 1e9 / hops, hops / wall)
}

/// `thr-mixed`'s stream applied to one `BLinkTree` on one thread.
fn blink_local(w: &Workload, seed: u64) -> f64 {
    let ops = gen::stream(&w.stream, seed);
    let mut tree = BLinkTree::new(8);
    for k in gen::preload_keys(w.preload) {
        tree.insert(k, k);
    }
    let t = Instant::now();
    for op in &ops {
        match op.intent {
            Intent::Insert(v) => {
                black_box(tree.insert(op.key, v));
            }
            _ => {
                black_box(tree.get(op.key));
            }
        }
    }
    ops.len() as f64 / t.elapsed().as_secs_f64()
}

/// 50/50 ops through the hash table: the same runtime, session and driver
/// with `core` swapped out. Ten thousand ops, not the hundred thousand first
/// planned: the table's own handlers cost microseconds per event, and a
/// rung has about a second.
fn dhash_sim(seed: u64, n: u64) -> f64 {
    let spec = HashSpec {
        preload: gen::preload_keys(10_000),
        n_procs: 64,
        cfg: HashConfig {
            record_history: false,
            ..HashConfig::default()
        },
    };
    let mut rng = SplitMix64::new(seed ^ 0xD4A5);
    let ops: Vec<HashOp> = (0..n)
        .map(|i| HashOp {
            origin: ProcId(rng.below(64) as u32),
            key: rng.below(1_000_000),
            kind: if rng.below(2) == 0 {
                HKind::Search
            } else {
                HKind::Insert(i)
            },
        })
        .collect();
    let mut cluster = HashCluster::build(&spec, SimConfig::jittery(seed, 2, 25));
    let t = Instant::now();
    let done = cluster
        .try_run_closed_loop_stats(&ops, 64)
        .map_or(0, |s| s.records.len());
    done as f64 / t.elapsed().as_secs_f64()
}

/// Every rung except `cost.local_over_thr`, which needs `thr-mixed`'s
/// result and is added where the ledger is assembled.
pub fn run_all(seed: u64, quick: bool) -> Vec<Rung> {
    // `quick` shrinks the rungs the way it shrinks the workloads.
    let scale = if quick { 10 } else { 1 };
    let mut out = vec![rung("calib.ns_per_iter", "ns", calib_ns_per_iter())];
    let per_push_pop = event_queue(seed, 4_000_000 / scale as u64);
    out.push(rung("event.ns_per_push_pop", "ns", per_push_pop));

    let hops = 2_000_000 / 64 / scale;
    let clean = || SimConfig::jittery(seed, 2, 25);
    let null = token_ring(clean(), relays(64), hops, |t| t);
    out.push(rung("sim.null_ns_per_event", "ns", null));
    let mut traced = clean();
    traced.trace_capacity = 65_536;
    let null_traced = token_ring(traced, relays(64), hops, |t| t);
    out.push(rung("sim.null_traced_ns_per_event", "ns", null_traced));
    let sessioned = relays(64)
        .into_iter()
        .map(|p| SessionProc::new(p, SessionConfig::reliable()))
        .collect();
    let with_session = token_ring(clean(), sessioned, hops / 2, SessionMsg::Raw);
    out.push(rung("session.null_ns_per_event", "ns", with_session - null));
    let per_op = driver_null(seed, 400_000 / scale as u64);
    out.push(rung("driver.null_ns_per_op", "ns", per_op));

    let (ns_per_hop, _) = threaded_ping_pong(1, 50_000 / scale);
    out.push(rung("threaded.null_ns_per_hop", "ns", ns_per_hop));
    let (_, msgs_per_s) = threaded_ping_pong(64, 20_000 / scale);
    out.push(rung("threaded.null_msgs_per_s", "msgs/s", msgs_per_s));

    let thr = workloads::find("thr-mixed").expect("thr-mixed is a workload");
    let thr = if quick { thr.quick() } else { thr };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (name, p) in [("threaded.ops_per_s_p1", 1), ("threaded.ops_per_s_p4", 4)] {
        if p > 1 && cores < p as usize {
            continue;
        }
        let mut w = thr;
        w.stream.procs = p;
        w.stream.ops = w.stream.ops.min(100_000);
        let r = repetition::<Plain>(&w, seed);
        out.push(rung(name, "ops/s", r.verified as f64 / r.drive_s));
    }
    out.push(rung(
        "blink.local_ops_per_s",
        "ops/s",
        blink_local(&thr, seed),
    ));
    let hashed = dhash_sim(seed, 10_000 / scale as u64);
    out.push(rung("dhash.sim_ops_per_s", "ops/s", hashed));

    let mut hist = workloads::find("sim-insert").expect("sim-insert is a workload");
    hist.stream.ops = 50_000 / scale as usize;
    let off = repetition::<Plain>(&hist, seed).drive_s;
    hist.history = true;
    let on = repetition::<Plain>(&hist, seed).drive_s;
    out.push(rung("history.overhead_ratio", "ratio", on / off));

    let t = Instant::now();
    let mut gen = WorkloadGen::new(KeyDist::Uniform { n: 1_000_000 }, Mix::READ_HEAVY, 64, seed);
    let n = 1_000_000 / scale as usize;
    black_box(gen.batch(n));
    let per_op = t.elapsed().as_nanos() as f64 / n as f64;
    out.push(rung("workload.ns_per_op", "ns", per_op));
    out
}
