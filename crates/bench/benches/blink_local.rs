//! Criterion microbenches for the sequential substrate, the B-link tree.

use blink::BLinkTree;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn scrambled(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(|k| k.wrapping_mul(0x9E3779B97F4A7C15) >> 16)
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_insert");
    for &n in &[1_000u64, 10_000, 100_000] {
        g.bench_with_input(BenchmarkId::new("blink", n), &n, |b, &n| {
            b.iter(|| {
                let mut t = BLinkTree::new(32);
                for k in scrambled(n) {
                    t.insert(black_box(k), k);
                }
                t.len()
            })
        });
    }
    g.finish();
}

fn bench_get(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_get");
    let n = 100_000u64;
    let mut blink = BLinkTree::new(32);
    for k in scrambled(n) {
        blink.insert(k, k);
    }
    g.bench_function("blink", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % n;
            let k = i.wrapping_mul(0x9E3779B97F4A7C15) >> 16;
            black_box(blink.get(k))
        })
    });
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_scan");
    let n = 100_000u64;
    let mut blink = BLinkTree::new(32);
    for k in 0..n {
        blink.insert(k, k);
    }
    g.bench_function("blink_1k", |b| {
        let mut from = 0u64;
        b.iter(|| {
            from = (from + 997) % n;
            black_box(blink.range_scan(from, Some(from + 1000)).len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_insert, bench_get, bench_scan);
criterion_main!(benches);
