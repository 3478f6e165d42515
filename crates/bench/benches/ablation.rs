//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! the x-sub-session redundancy of D-NDP, the revocation threshold γ,
//! and the chip-level handshake that validates the protocol abstraction.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use jrsnd::dndp::{simulate_pair_with, DndpConfig};
use jrsnd::jammer::{Jammer, JammerKind};
use jrsnd::params::Params;
use jrsnd::predist::CodeAssignment;
use jrsnd::revocation::simulate_dos;
use jrsnd_dsss::code::CodeId;
use jrsnd_sim::rng::SimRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn bench_redundancy_variants(c: &mut Criterion) {
    let params = Params::table1();
    let compromised: HashSet<CodeId> = (0..1000).map(CodeId).collect();
    let jammer = Jammer::new(JammerKind::Reactive, compromised, &params);
    let shared: Vec<CodeId> = vec![CodeId(5), CodeId(2000), CodeId(3000)];
    let mut group = c.benchmark_group("dndp_redundancy");
    for (name, cfg) in [
        (
            "redundant_tail_attack",
            DndpConfig {
                redundancy: true,
                tail_only_attack: true,
            },
        ),
        (
            "strawman_tail_attack",
            DndpConfig {
                redundancy: false,
                tail_only_attack: true,
            },
        ),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut rng = SimRng::seed_from_u64(1);
            b.iter(|| black_box(simulate_pair_with(&params, &shared, &jammer, cfg, &mut rng)))
        });
    }
    group.finish();
}

fn bench_revocation_gamma(c: &mut Criterion) {
    let mut params = Params::table1();
    params.n = 200;
    params.l = 20;
    params.m = 40;
    params.q = 4;
    let mut rng = SimRng::seed_from_u64(2);
    let assignment = CodeAssignment::generate(&params, &mut rng);
    let compromised: Vec<usize> = (0..params.q).collect();
    let mut group = c.benchmark_group("dos_defense");
    group.sample_size(10);
    for gamma in [1u32, 5, 20] {
        let mut p = params.clone();
        p.gamma = gamma;
        group.bench_with_input(BenchmarkId::new("gamma", gamma), &p, |b, p| {
            b.iter(|| black_box(simulate_dos(p, &assignment, &compromised, 1000)))
        });
    }
    group.finish();
}

fn bench_chip_level_handshake(c: &mut Criterion) {
    use jrsnd::chiplink::{run_link, LinkOptions, LinkPools, LinkSpec};
    use jrsnd_crypto::ibc::Authority;
    use jrsnd_dsss::code::SpreadCode;
    let mut params = Params::table1();
    params.n_chips = 256;
    params.tau = 0.30;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let shared = SpreadCode::random(params.n_chips, &mut rng);
    let a_codes = vec![shared.clone(), SpreadCode::random(params.n_chips, &mut rng)];
    let b_codes = vec![SpreadCode::random(params.n_chips, &mut rng), shared];
    let authority = Authority::from_seed(b"bench");
    let mut group = c.benchmark_group("chip_level");
    group.sample_size(10);
    group.bench_function("full_handshake_n256", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let spec = LinkSpec {
                a_codes: &a_codes,
                b_codes: &b_codes,
                shared_a: 0,
                shared_b: 1,
                jammer: None,
                seed,
            };
            // Fresh pools per iteration: the cold per-handshake cost.
            black_box(run_link(
                &params,
                &authority,
                &spec,
                &LinkOptions::default(),
                &mut LinkPools::new(&params),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_redundancy_variants,
    bench_revocation_gamma,
    bench_chip_level_handshake
);
criterion_main!(benches);
