//! Micro-benchmark: exact binomial sampling across size regimes
//! (alias table vs beta-splitting), plus the hypergeometric split used by
//! FET's sample partition (`split_table` draws it from the table FET
//! steps with, over counts drawn from Bin(2ℓ, 0.35) at ℓ = 47), and the
//! per-ISA-path alias block kernels
//! (`alias_block_{scalar,swar,avx2}` — scalar is the branchy f64 probe
//! reference, the others the branchless integer tiers from
//! `fet_stats::isa`). Paths the host can't execute are skipped.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fet_stats::binomial::{sample_binomial, BinomialSampler};
use fet_stats::hypergeometric::{split_sample, SplitTable};
use fet_stats::isa::IsaPath;
use fet_stats::rng::SeedTree;

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("binomial_sampler");
    for &n in &[32u64, 1_000] {
        let sampler = BinomialSampler::new(n, 0.37).unwrap();
        group.bench_with_input(BenchmarkId::new("alias", n), &n, |b, _| {
            let mut rng = SeedTree::new(1).child("alias").rng();
            b.iter(|| sampler.sample(&mut rng))
        });
    }
    for &n in &[100_000u64, 1_000_000_000] {
        group.bench_with_input(BenchmarkId::new("beta_split", n), &n, |b, &n| {
            let mut rng = SeedTree::new(2).child("beta").rng();
            b.iter(|| sample_binomial(n, 0.37, &mut rng))
        });
    }
    // Per-path 64-draw alias blocks on power-of-two tables: n = 3 is the
    // 3-majority case (the word-at-a-time kernel's sampler, a 4-entry
    // table with fractional probes), n = 1023 stresses the table gather
    // (1024 entries). Same stream on every path; only the instruction
    // mix differs.
    for &n in &[3u64, 1_023] {
        let sampler = BinomialSampler::new(n, 0.37).unwrap();
        for path in IsaPath::available() {
            let label = format!("alias_block_{}", path.name());
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                let mut rng = SeedTree::new(4).child("alias-block").rng();
                let mut out = [0usize; 64];
                b.iter(|| {
                    assert!(sampler.try_sample_block_with(path, &mut rng, &mut out));
                    out[0]
                })
            });
        }
    }
    for &ell in &[16u64, 64] {
        group.bench_with_input(
            BenchmarkId::new("hypergeometric_split", ell),
            &ell,
            |b, &ell| {
                let mut rng = SeedTree::new(3).child("hyper").rng();
                b.iter(|| split_sample(ell, ell, &mut rng))
            },
        );
    }
    let table = SplitTable::new(47);
    let sampler = BinomialSampler::new(94, 0.35).unwrap();
    let mut count_rng = SeedTree::new(5).child("split-counts").rng();
    let counts: Vec<u64> = (0..4_096).map(|_| sampler.sample(&mut count_rng)).collect();
    group.bench_with_input(BenchmarkId::new("split_table", 47), &table, |b, table| {
        let mut rng = SeedTree::new(6).child("split-table").rng();
        let mut next = counts.iter().cycle();
        b.iter(|| table.split(*next.next().unwrap(), &mut rng))
    });
    group.finish();
}

criterion_group!(benches, bench_samplers);
criterion_main!(benches);
