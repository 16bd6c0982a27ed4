//! Criterion microbench for trace span lookup: the naive linear scan
//! (`Trace::of_span`, O(entries) per query) vs building a `SpanIndex` once
//! and querying it — the access pattern of the critical-path profiler,
//! which resolves *every* op's span against the same trace.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simnet::{ProcId, SimTime, Trace, TraceEntry, TraceEvent};

/// A synthetic trace shaped like a profiler input: `spans` operations,
/// each leaving a short causal chain of entries, interleaved in time.
fn synthetic(spans: u64, per_span: u64) -> Trace {
    let mut t = Trace::with_capacity((spans * per_span) as usize);
    for step in 0..per_span {
        for span in 0..spans {
            t.record(TraceEntry::new(
                SimTime(step * spans + span),
                ProcId((span % 4) as u32),
                ProcId(((span + 1) % 4) as u32),
                TraceEvent::Deliver,
                "descend",
                Some(span),
            ));
        }
    }
    t
}

fn bench_of_span(c: &mut Criterion) {
    let mut g = c.benchmark_group("of_span_all_spans");
    for &spans in &[64u64, 512] {
        let trace = synthetic(spans, 8);
        g.bench_with_input(BenchmarkId::new("linear", spans), &spans, |b, &spans| {
            b.iter(|| {
                let mut total = 0usize;
                for s in 0..spans {
                    total += trace.of_span(black_box(s)).count();
                }
                total
            })
        });
        g.bench_with_input(BenchmarkId::new("indexed", spans), &spans, |b, &spans| {
            b.iter(|| {
                let idx = trace.span_index();
                let mut total = 0usize;
                for s in 0..spans {
                    total += idx.of_span(black_box(s)).len();
                }
                total
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_of_span);
criterion_main!(benches);
