//! End-to-end discovery benchmarks: one full seeded network instance (the
//! unit of every figure point) at two scales, and the M-NDP closure alone.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use jrsnd::dndp::DndpConfig;
use jrsnd::jammer::JammerKind;
use jrsnd::network::{run_once, ExperimentConfig};
use jrsnd::params::Params;

fn config(n: usize, field: f64, q: usize) -> ExperimentConfig {
    let mut params = Params::table1();
    params.n = n;
    params.field_w = field;
    params.field_h = field;
    params.q = q;
    ExperimentConfig {
        params,
        jammer: JammerKind::Reactive,
        dndp: DndpConfig::default(),
        resilience: None,
    }
}

fn bench_run_once(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_run_once");
    group.sample_size(10);
    for (name, cfg) in [
        ("n500_dense", config(500, 2500.0, 5)),
        ("n2000_paper", config(2000, 5000.0, 20)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(run_once(cfg, seed))
            })
        });
    }
    group.finish();
}

fn bench_heavy_compromise(c: &mut Criterion) {
    // q = 100 (the Fig. 5 regime) makes M-NDP do the most work.
    let cfg = config(2000, 5000.0, 100);
    let mut group = c.benchmark_group("network_heavy_compromise");
    group.sample_size(10);
    group.bench_function("n2000_q100_nu2", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_once(&cfg, seed))
        })
    });
    let mut cfg6 = cfg.clone();
    cfg6.params.nu = 6;
    group.bench_function("n2000_q100_nu6", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_once(&cfg6, seed))
        })
    });
    group.finish();
}

fn bench_schedule_sim(c: &mut Criterion) {
    use jrsnd::schedule_sim::simulate_identification;
    use jrsnd_sim::rng::SimRng;
    use rand::SeedableRng;
    let params = Params::table1();
    c.bench_function("event_driven_identification_m100", |b| {
        let mut rng = SimRng::seed_from_u64(1);
        b.iter(|| black_box(simulate_identification(&params, &mut rng)))
    });
}

criterion_group!(
    benches,
    bench_run_once,
    bench_heavy_compromise,
    bench_schedule_sim
);
criterion_main!(benches);
