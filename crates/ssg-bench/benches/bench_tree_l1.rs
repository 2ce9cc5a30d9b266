//! E4 — Theorem 4: `Tree-L(1,...,1)-coloring` runtime scales as O(nt)
//! across tree shapes (random bounded-degree, path = worst-case depth,
//! complete k-ary = worst-case width).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ssg_bench::tree_workload;
use ssg_labeling::tree::l1_coloring;
use ssg_tree::RootedTree;

fn bench_scaling_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("E4/tree_l1_vs_n");
    group.sample_size(10);
    for n in [4_000usize, 64_000, 512_000] {
        let tr = tree_workload(n, 4, 0xE4);
        let t = 4u32;
        group.throughput(Throughput::Elements(n as u64 * t as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &tr, |b, tr| {
            b.iter(|| l1_coloring(tr, t))
        });
    }
    group.finish();
}

fn bench_scaling_t(c: &mut Criterion) {
    let mut group = c.benchmark_group("E4/tree_l1_vs_t");
    group.sample_size(10);
    let n = 16_000usize;
    let tr = tree_workload(n, 4, 0xE4);
    for t in [1u32, 2, 4, 8, 16] {
        group.throughput(Throughput::Elements(n as u64 * t as u64));
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| l1_coloring(&tr, t))
        });
    }
    group.finish();
}

fn bench_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("E4/tree_l1_shapes");
    group.sample_size(10);
    let n = 16_000usize;
    let t = 4u32;
    let shapes: Vec<(&str, RootedTree)> = vec![
        ("random-deg4", tree_workload(n, 4, 0xE4)),
        (
            "path",
            RootedTree::bfs_canonical(&ssg_graph::generators::path(n), 0).unwrap(),
        ),
        (
            "3ary",
            RootedTree::bfs_canonical(&ssg_graph::generators::kary_tree(n, 3), 0).unwrap(),
        ),
        (
            "caterpillar",
            RootedTree::bfs_canonical(&ssg_graph::generators::caterpillar(n / 5, 4), 0).unwrap(),
        ),
    ];
    group.throughput(Throughput::Elements(n as u64 * t as u64));
    for (name, tr) in &shapes {
        group.bench_with_input(BenchmarkId::from_parameter(name), tr, |b, tr| {
            b.iter(|| l1_coloring(tr, t))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling_n, bench_scaling_t, bench_shapes);
criterion_main!(benches);
