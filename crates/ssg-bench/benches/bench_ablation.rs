//! E9 — ablation of the Figure-1 palette data structure: the production
//! bitset palette (O(1) moves, standing in for Theorem 1's linked lists) vs
//! a BTreeSet palette (O(log n) moves) vs a textbook boolean-scan mex
//! greedy (O(span) per vertex). All three produce the same optimal span.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ssg_bench::interval_workload;
use ssg_labeling::ablation::{l1_coloring_btreeset, l1_coloring_scan};
use ssg_labeling::interval::l1_coloring;

fn bench_palette_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9/palette_ablation");
    group.sample_size(10);
    let t = 4u32;
    for n in [16_000usize, 64_000] {
        let rep = interval_workload(n, 0xE9);
        group.throughput(Throughput::Elements(n as u64 * t as u64));
        group.bench_with_input(BenchmarkId::new("bitset", n), &rep, |b, rep| {
            b.iter(|| l1_coloring(rep, t))
        });
        group.bench_with_input(BenchmarkId::new("btreeset", n), &rep, |b, rep| {
            b.iter(|| l1_coloring_btreeset(rep, t))
        });
        group.bench_with_input(BenchmarkId::new("bool-scan", n), &rep, |b, rep| {
            b.iter(|| l1_coloring_scan(rep, t))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_palette_ablation);
criterion_main!(benches);
