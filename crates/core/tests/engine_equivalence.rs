//! Property test: the batch session engine is byte-identical to the
//! sequential resilient driver at random session mixes — direct and
//! multi-hop, jammed and clean, with and without retry budgets — and its
//! outputs are invariant under worker count, chunk size, and shard count.

use jrsnd::engine::{reference, BatchEngine, EngineConfig, JamSpec, SessionKind, SessionSpec};
use jrsnd::params::Params;
use jrsnd_crypto::ibc::Authority;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_sim::retry::RetryPolicy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared authority pool size; every spec indexes into it.
const POOL: usize = 8;

/// Chip-level-friendly parameters (same shape as the chiplink tests):
/// shorter codes with tau rescaled to keep cross-code noise sub-threshold.
fn chip_params() -> Params {
    let mut p = Params::table1();
    p.n_chips = 256;
    p.tau = 0.30;
    p
}

fn code_pool(n_chips: usize) -> Vec<SpreadCode> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    (0..POOL)
        .map(|_| SpreadCode::random(n_chips, &mut rng))
        .collect()
}

/// Overwrites one position of `set` with `code` so the set provably
/// contains the shared code, returning the position.
fn place(mut set: Vec<usize>, pos: usize, code: usize) -> (Vec<usize>, usize) {
    let pos = pos % set.len();
    set[pos] = code;
    (set, pos)
}

type RawRelay = (Vec<usize>, Vec<usize>, usize, usize, usize);
type RawJam = (bool, usize, u8, i32, usize);

/// 50/50 `Some`/`None` over the wrapped strategy (the vendored proptest
/// shim has no `prop::option`).
fn opt<S>(s: S) -> proptest::strategy::Union<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![s.prop_map(Some), Just(None)]
}

fn arb_spec() -> impl Strategy<Value = SessionSpec> {
    let set = || proptest::collection::vec(0..POOL, 1..4usize);
    (
        (set(), set(), 0..POOL, any::<usize>(), any::<usize>()),
        any::<u64>(),
        opt((set(), set(), 0..POOL, any::<usize>(), any::<usize>())),
        opt((any::<bool>(), 0..POOL, any::<u8>(), 1..=3i32, 0..4usize)),
    )
        .prop_map(
            |((a, b, s1, pa, pb), seed, relay, jam): (_, _, Option<RawRelay>, Option<RawJam>)| {
                let (a_codes, shared_a) = place(a, pa, s1);
                // The engine and the reference both require the shared
                // code to sit at the shared indices of BOTH ends of each
                // leg; the generator guarantees it by construction.
                let (b_codes, shared_b, kind) = match relay {
                    None => {
                        let (b_codes, shared_b) = place(b, pb, s1);
                        (b_codes, shared_b, SessionKind::Direct)
                    }
                    Some((ra, rb, s2, pra, prb)) => {
                        let (relay_a_codes, relay_shared_a) = place(ra, pra, s1);
                        let (relay_b_codes, relay_shared_b) = place(rb, prb, s2);
                        let (b_codes, shared_b) = place(b, pb, s2);
                        (
                            b_codes,
                            shared_b,
                            SessionKind::MultiHop {
                                relay_a_codes,
                                relay_b_codes,
                                relay_shared_a,
                                relay_shared_b,
                            },
                        )
                    }
                };
                let jammer = jam.map(
                    |(on_shared, code, fsel, amplitude, first_message)| JamSpec {
                        // Half the jammers hit the session's own leg-1 code
                        // (effective), half a random pool code (usually not).
                        code: if on_shared { s1 } else { code },
                        fraction: [0.2, 0.6, 1.0][(fsel % 3) as usize],
                        amplitude,
                        first_message,
                    },
                );
                SessionSpec {
                    a_codes,
                    b_codes,
                    shared_a,
                    shared_b,
                    jammer,
                    seed,
                    kind,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn engine_is_byte_identical_to_the_sequential_reference(
        specs in proptest::collection::vec(arb_spec(), 1..4),
        retry_extra in 0u32..3,
        chunk in 1usize..4,
        shards in 1usize..4,
    ) {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine-prop");
        let pool = code_pool(params.n_chips);
        let retry = if retry_extra == 0 {
            RetryPolicy::none()
        } else {
            RetryPolicy::budgeted(retry_extra)
        };
        let want = reference::run_sessions(&params, &authority, &pool, &retry, &specs);
        for threads in [1usize, 2] {
            let config = EngineConfig { chunk, shards, retry, threads: Some(threads) };
            let engine = BatchEngine::new(&params, &authority, &pool, config);
            let got = engine.run(&specs);
            prop_assert_eq!(&got, &want, "threads = {}", threads);
        }
    }
}

/// The `JRSND_THREADS` environment override resolves worker count exactly
/// like an explicit `threads` setting (outputs already proven invariant).
#[test]
fn jrsnd_threads_env_is_honored() {
    let params = chip_params();
    let authority = Authority::from_seed(b"engine-env");
    let pool = code_pool(params.n_chips);
    let specs: Vec<SessionSpec> = (0..6)
        .map(|i| SessionSpec {
            a_codes: vec![0, 1, 2],
            b_codes: vec![3, 1, 4],
            shared_a: 1,
            shared_b: 1,
            jammer: None,
            seed: 7000 + i,
            kind: SessionKind::Direct,
        })
        .collect();
    let explicit = BatchEngine::new(
        &params,
        &authority,
        &pool,
        EngineConfig {
            threads: Some(2),
            ..EngineConfig::default()
        },
    )
    .run(&specs);
    // SAFETY-free env mutation: tests in this binary that read the var run
    // in this one test only, and the var is restored before returning.
    std::env::set_var("JRSND_THREADS", "2");
    let via_env = BatchEngine::new(&params, &authority, &pool, EngineConfig::default()).run(&specs);
    std::env::remove_var("JRSND_THREADS");
    assert_eq!(explicit, via_env);
}

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one chip-level report into `h`.
fn digest_report(h: u64, r: &jrsnd::chiplink::HandshakeReport) -> u64 {
    let h = fnv1a(&[u8::from(r.discovered), r.stage as u8], h);
    let h = fnv1a(&r.scan_correlations.to_le_bytes(), h);
    fnv1a(&r.sync_retries.to_le_bytes(), h)
}

/// Folds one session outcome (report, retry bookkeeping, exact backoff
/// bits) into `h`.
fn digest_outcome(h: u64, o: &jrsnd::engine::SessionOutcome) -> u64 {
    let h = digest_report(h, &o.report);
    let h = fnv1a(&o.attempts.to_le_bytes(), h);
    let h = fnv1a(&[u8::from(o.degraded)], h);
    fnv1a(&o.backoff_s.to_bits().to_le_bytes(), h)
}

/// A small mixed workload (clean direct, tail-jammed direct, fully
/// jammed direct, clean multi-hop), one "intelligent" full-strength
/// same-code jammer per later handshake message, so every failing stage
/// is reached, and a sweep of near-threshold jammers.
fn golden_specs() -> Vec<SessionSpec> {
    let mut specs = vec![
        SessionSpec {
            a_codes: vec![0, 1, 2],
            b_codes: vec![3, 1, 4],
            shared_a: 1,
            shared_b: 1,
            jammer: None,
            seed: 901,
            kind: SessionKind::Direct,
        },
        SessionSpec {
            a_codes: vec![5, 2],
            b_codes: vec![2, 6],
            shared_a: 1,
            shared_b: 0,
            jammer: Some(JamSpec {
                code: 2,
                fraction: 0.20,
                amplitude: 1,
                first_message: 0,
            }),
            seed: 902,
            kind: SessionKind::Direct,
        },
        SessionSpec {
            a_codes: vec![0, 3],
            b_codes: vec![3, 7],
            shared_a: 1,
            shared_b: 0,
            jammer: Some(JamSpec {
                code: 3,
                fraction: 1.0,
                amplitude: 3,
                first_message: 0,
            }),
            seed: 903,
            kind: SessionKind::Direct,
        },
        SessionSpec {
            a_codes: vec![0, 1],
            b_codes: vec![6, 7],
            shared_a: 0,
            shared_b: 1,
            jammer: None,
            seed: 904,
            kind: SessionKind::MultiHop {
                relay_a_codes: vec![4, 0],
                relay_b_codes: vec![7, 5],
                relay_shared_a: 1,
                relay_shared_b: 0,
            },
        },
    ];
    for first_message in 1..=3usize {
        specs.push(SessionSpec {
            a_codes: vec![0, 1, 2],
            b_codes: vec![3, 1, 4],
            shared_a: 1,
            shared_b: 1,
            jammer: Some(JamSpec {
                code: 1,
                fraction: 1.0,
                amplitude: 3,
                first_message,
            }),
            seed: 910 + first_message as u64,
            kind: SessionKind::Direct,
        });
    }
    // Jammers near the ECC threshold from CONFIRM on. Here the packed
    // frames' nonce-dependent lengths decide some outcomes, so a change
    // to the per-attempt re-keying shows up in the digests.
    let near_threshold = [
        (0.5, 1),
        (0.52, 1),
        (0.54, 1),
        (0.56, 1),
        (0.58, 1),
        (0.5, 2),
        (0.54, 2),
        (0.58, 2),
    ];
    for (k, (fraction, amplitude)) in near_threshold.into_iter().enumerate() {
        specs.push(SessionSpec {
            a_codes: vec![0, 1, 2],
            b_codes: vec![3, 1, 4],
            shared_a: 1,
            shared_b: 1,
            jammer: Some(JamSpec {
                code: 1,
                fraction,
                amplitude,
                first_message: 1,
            }),
            seed: 920 + k as u64,
            kind: SessionKind::Direct,
        });
    }
    specs
}

/// Pins chip-level outcomes across commits, not just across two paths of
/// one build: the batch engine, the sequential reference, and the
/// single-link driver under injected faults must keep reproducing these
/// recorded FNV-1a digests. A deliberate behaviour change updates the
/// constants in the same commit, with the reason.
#[test]
fn chip_level_outcomes_match_recorded_digests() {
    use jrsnd::chiplink::Stage;
    use jrsnd::wire::WireFormat;

    let legacy = chip_params();
    let authority = Authority::from_seed(b"engine");
    let pool: Vec<SpreadCode> = {
        let mut rng = StdRng::seed_from_u64(11);
        (0..8)
            .map(|_| SpreadCode::random(legacy.n_chips, &mut rng))
            .collect()
    };
    let specs = golden_specs();
    // (format, retry, recorded digest) per configuration.
    let cases = [
        (
            WireFormat::Legacy,
            RetryPolicy::none(),
            0x7f00_061f_e75c_a946,
        ),
        (
            WireFormat::Legacy,
            RetryPolicy::budgeted(2),
            0x1f6f_3d53_adf6_351a,
        ),
        (
            WireFormat::Packed,
            RetryPolicy::none(),
            0xdde8_c29e_c8fc_1bda,
        ),
        (
            WireFormat::Packed,
            RetryPolicy::budgeted(2),
            0x55ca_b0d2_5862_2706,
        ),
    ];
    for (format, retry, recorded) in cases {
        let params = Params {
            wire_format: format,
            ..legacy.clone()
        };
        let engine = BatchEngine::new(
            &params,
            &authority,
            &pool,
            EngineConfig {
                chunk: 2,
                shards: 3,
                retry,
                threads: Some(1),
            },
        );
        let got = engine.run(&specs);
        let want = reference::run_sessions(&params, &authority, &pool, &retry, &specs);
        let digest =
            |outs: &[jrsnd::engine::SessionOutcome]| outs.iter().fold(FNV_OFFSET, digest_outcome);
        let stages: Vec<Stage> = got[4..7].iter().map(|o| o.report.stage).collect();
        assert_eq!(
            stages,
            [Stage::NoConfirm, Stage::AuthAFailed, Stage::AuthBFailed],
            "each intelligent jammer stops its session at its first attacked message"
        );
        assert_eq!(digest(&got), recorded, "engine, {format:?}, {retry:?}");
        assert_eq!(digest(&want), recorded, "reference, {format:?}, {retry:?}");
    }

    // The single-link driver on a faulted channel with a retry budget.
    use jrsnd::chiplink::{run_link, LinkOptions, LinkPools, LinkSpec};
    use jrsnd_sim::faults::{FaultInjector, FaultPlan};
    let a_codes = vec![pool[0].clone(), pool[1].clone(), pool[2].clone()];
    let b_codes = vec![pool[3].clone(), pool[1].clone(), pool[4].clone()];
    let faults = FaultInjector::new(5, FaultPlan::intensity(0.7));
    for (format, recorded) in [
        (WireFormat::Legacy, 0xe713_89a1_5db1_5ba1u64),
        (WireFormat::Packed, 0x11cc_6f5c_60dc_a761),
    ] {
        let params = Params {
            wire_format: format,
            ..legacy.clone()
        };
        let options = LinkOptions {
            retry: RetryPolicy::budgeted(3),
            faults: Some(faults),
        };
        let mut pools = LinkPools::new(&params);
        let mut h = FNV_OFFSET;
        for seed in 700u64..708 {
            let spec = LinkSpec {
                a_codes: &a_codes,
                b_codes: &b_codes,
                shared_a: 1,
                shared_b: 1,
                jammer: None,
                seed,
            };
            let r = run_link(&params, &authority, &spec, &options, &mut pools);
            h = digest_report(h, &r.report);
            h = fnv1a(&r.attempts.to_le_bytes(), h);
            h = fnv1a(&[u8::from(r.degraded)], h);
            h = fnv1a(&r.backoff_s.to_bits().to_le_bytes(), h);
            h = fnv1a(&(r.channel_transmissions as u64).to_le_bytes(), h);
        }
        assert_eq!(h, recorded, "single-link driver, {format:?}");
    }
}
