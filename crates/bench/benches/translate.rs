//! Compile-cost microbenchmarks: `translate_optimized` wall time and
//! translated-bytes throughput (so Criterion reports both ns and ns/byte),
//! and the incremental `exttsp_order` against the reference implementation
//! on synthetic CFGs of realistic sizes.

use bench::Lab;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jit::{translate_optimized, JitOptions};
use layout::{exttsp_order, exttsp_order_reference, BlockEdge, BlockNode, ExtTspParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn no_slots(_c: bytecode::ClassId, _p: bytecode::StrId) -> Option<u16> {
    None
}

fn bench_translate(c: &mut Criterion) {
    let lab = Lab::small();
    let tier = &lab.truth.tier;
    let ctx = &lab.truth.ctx;
    let opts = JitOptions::default();
    let funcs: Vec<_> = tier.functions_by_heat().into_iter().take(24).collect();

    // Total bytes the batch emits, so Criterion reports throughput
    // (bytes/s — the inverse of ns/byte) next to the absolute time.
    let bytes: u64 = funcs
        .iter()
        .map(|&f| {
            translate_optimized(
                &lab.app.repo,
                f,
                tier,
                ctx,
                opts.weights,
                opts.inline,
                &no_slots,
            )
            .layout_blocks()
            .iter()
            .map(|b| b.size as u64)
            .sum::<u64>()
        })
        .sum();

    let mut group = c.benchmark_group("translate_optimized");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("hot24", |b| {
        b.iter(|| {
            for &f in &funcs {
                translate_optimized(
                    &lab.app.repo,
                    f,
                    tier,
                    ctx,
                    opts.weights,
                    opts.inline,
                    &no_slots,
                );
            }
        })
    });
    group.finish();
}

fn cfg(n: usize, seed: u64) -> (Vec<BlockNode>, Vec<BlockEdge>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let blocks = (0..n)
        .map(|_| BlockNode {
            size: rng.gen_range(8..64),
            weight: rng.gen_range(0..1000),
        })
        .collect();
    let edges = (0..2 * n)
        .map(|_| BlockEdge {
            src: rng.gen_range(0..n),
            dst: rng.gen_range(0..n),
            weight: rng.gen_range(0..500),
        })
        .collect();
    (blocks, edges)
}

fn bench_exttsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("exttsp_incremental");
    for n in [16usize, 48, 96, 200] {
        let (blocks, edges) = cfg(n, n as u64);
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| exttsp_order(&blocks, &edges, &ExtTspParams::default()))
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| exttsp_order_reference(&blocks, &edges, &ExtTspParams::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_translate, bench_exttsp);
criterion_main!(benches);
