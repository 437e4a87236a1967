//! R\*-tree microbenchmarks: k-NN vs a brute-force scan, localized vs global
//! search, and insertion vs bulk construction — the index-side costs behind
//! the paper's efficiency claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qd_index::{RStarTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

const DIMS: usize = 37;

fn random_items(n: usize, seed: u64) -> Vec<(u64, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            (
                id,
                (0..DIMS).map(|_| rng.random::<f32>() * 4.0 - 2.0).collect(),
            )
        })
        .collect()
}

fn knn_vs_scan(c: &mut Criterion) {
    let items = random_items(10_000, 1);
    let tree = RStarTree::bulk_load(TreeConfig::paper(DIMS), items.clone());
    let mut rng = StdRng::seed_from_u64(2);
    let queries: Vec<Vec<f32>> = (0..32)
        .map(|_| (0..DIMS).map(|_| rng.random::<f32>() * 4.0 - 2.0).collect())
        .collect();

    let mut group = c.benchmark_group("knn_10k_37d");
    for k in [10usize, 100] {
        group.bench_with_input(BenchmarkId::new("rstar", k), &k, |b, &k| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(tree.knn(q, k))
            });
        });
        group.bench_with_input(BenchmarkId::new("scan", k), &k, |b, &k| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                let mut scored: Vec<(f32, u64)> = items
                    .iter()
                    .map(|(id, p)| {
                        let d: f32 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                        (d, *id)
                    })
                    .collect();
                scored.sort_by(|a, b| a.0.total_cmp(&b.0));
                scored.truncate(k);
                black_box(scored)
            });
        });
    }
    group.finish();
}

fn localized_vs_global(c: &mut Criterion) {
    let items = random_items(10_000, 3);
    let tree = RStarTree::bulk_load(TreeConfig::paper(DIMS), items);
    let leaf = tree
        .node_ids()
        .into_iter()
        .find(|&n| tree.is_leaf(n))
        .expect("tree has leaves");
    let center = tree.node_rect(leaf).unwrap().center();

    let mut group = c.benchmark_group("localized_knn");
    group.bench_function("global_k20", |b| {
        b.iter(|| black_box(tree.knn(&center, 20)))
    });
    group.bench_function("subtree_k20", |b| {
        b.iter(|| black_box(tree.knn_in_budgeted(leaf, &center, 20, None).neighbors))
    });
    group.finish();
}

fn build_strategies(c: &mut Criterion) {
    let items = random_items(5_000, 5);
    let mut group = c.benchmark_group("tree_build_5k_37d");
    group.sample_size(10);
    group.bench_function("bulk_load", |b| {
        b.iter(|| black_box(RStarTree::bulk_load(TreeConfig::paper(DIMS), items.clone())))
    });
    group.bench_function("rstar_insert", |b| {
        b.iter(|| {
            let mut tree = RStarTree::new(TreeConfig::paper(DIMS));
            for (id, p) in items.clone() {
                tree.insert(p, id);
            }
            black_box(tree)
        })
    });
    group.finish();
}

criterion_group!(benches, knn_vs_scan, localized_vs_global, build_strategies);
criterion_main!(benches);
