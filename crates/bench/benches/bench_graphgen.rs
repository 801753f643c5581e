//! Micro-benchmarks of the graph generators on the standard sweep families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn graphgen(c: &mut Criterion) {
    let n = 1 << 14;
    let mut group = c.benchmark_group("graphgen");
    group.throughput(Throughput::Elements(n as u64));
    for fam in sleepy_fleet::standard_families() {
        group.bench_with_input(BenchmarkId::new("generate", fam.label()), &fam, |b, fam| {
            b.iter(|| fam.generate(n, 9).expect("generates"))
        });
    }
    group.finish();
}

criterion_group!(benches, graphgen);
criterion_main!(benches);
