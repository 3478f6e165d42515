//! Batch session engine benchmarks.
//!
//! Two stories, both feeding `BENCH_engine.json`:
//!
//! * `engine/fast/...` vs `engine/reference/...` — the "m receivers, one
//!   pass" shared-scan primitive the engine's HELLO phase is built on:
//!   `m` receivers scanning the **same** rendered broadcast window pay one
//!   render and one prefix-sum + bit-plane pass ([`MultiCorrelator::scanner_in`])
//!   instead of a private render + prefix pass each
//!   ([`MultiCorrelator::scanner`]). Identical hits and decodes, checked at
//!   setup. This pair is ratio-gated by `bench_check`.
//! * `engine/batch/...` vs `engine/sequential/...` — the end-to-end
//!   [`BatchEngine`] against the sequential resilient driver on the exact
//!   workload mix `repro sessions` sweeps. Byte-identical outcomes; the
//!   end-to-end cost is dominated by per-attempt crypto and scan work that
//!   both sides share, so these ids are coverage-only (no `fast/`
//!   segment), with the wall-clock ratio reported by the `sessions`
//!   experiment instead.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use jrsnd::engine::reference;
use jrsnd::messages::{FrameCodec, WireConfig};
use jrsnd::params::Params;
use jrsnd::{BatchEngine, EngineConfig};
use jrsnd_bench::session_workload;
use jrsnd_crypto::ibc::Authority;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::correlate::{MultiCorrelator, PrefixSums};
use jrsnd_dsss::spread::spread;
use jrsnd_dsss::sync::{decode_frame_into, scan_from_with, Frame, ScanScratch};
use jrsnd_sim::retry::RetryPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POOL: usize = 48;

/// Same chip-level calibration as the `sessions` experiment.
fn chip_params() -> Params {
    let mut p = Params::table1();
    p.n_chips = 256;
    p.tau = 0.30;
    p
}

/// One broadcast HELLO window scanned by `m` receivers: the broadcaster
/// transmits one copy per code in its 4-code bank; every receiver's 3-code
/// bank shares the first broadcast code and locks onto the copy at offset
/// 0, then despreads and ECC-decodes the frame.
struct Broadcast {
    params: Params,
    channel: ChipChannel,
    chunk_len: usize,
    codes: Vec<SpreadCode>,
    /// Per-receiver 3-code bank as pool indices (index 0 = shared).
    banks: Vec<Vec<usize>>,
    hello_bits: Vec<bool>,
    hello_coded_len: usize,
}

const RECEIVERS: usize = 8;
const COPIES: usize = 4;

fn broadcast_setup() -> Broadcast {
    let params = chip_params();
    let n = params.n_chips;
    let wire = WireConfig::from_params(&params);
    let mut rng = StdRng::seed_from_u64(0xB20ADCA5);
    let codes: Vec<SpreadCode> = (0..COPIES + 2 * RECEIVERS)
        .map(|_| SpreadCode::random(n, &mut rng))
        .collect();
    let mut codec = FrameCodec::new(params.mu).expect("mu validated");
    let hello_bits: Vec<bool> = (0..wire.hello_bits()).map(|i| i % 3 != 0).collect();
    let mut hello_coded = Vec::new();
    codec.encode_into(&hello_bits, &mut hello_coded).unwrap();
    let msg_chips = hello_coded.len() * n;
    let mut channel = ChipChannel::new(1);
    for (k, code) in codes.iter().enumerate().take(COPIES) {
        channel.transmit((k * msg_chips) as u64, spread(&hello_coded, code), 1);
    }
    let banks = (0..RECEIVERS)
        .map(|r| vec![0usize, COPIES + 2 * r, COPIES + 2 * r + 1])
        .collect();
    Broadcast {
        params,
        channel,
        chunk_len: COPIES * msg_chips,
        codes,
        banks,
        hello_bits,
        hello_coded_len: hello_coded.len(),
    }
}

/// Shared pass: render + prefix once, then every receiver scans through
/// [`MultiCorrelator::scanner_in`] against the one set of sums.
#[allow(clippy::too_many_arguments)]
fn shared_pass(
    bc: &Broadcast,
    pool_bank: &MultiCorrelator<'_>,
    chunk_buf: &mut Vec<i32>,
    prefix: &mut PrefixSums,
    frame: &mut Frame,
    scratch: &mut ScanScratch,
    decoded: &mut Vec<bool>,
    codec: &mut FrameCodec,
) -> usize {
    bc.channel.render_into(chunk_buf, 0, bc.chunk_len);
    prefix.compute(chunk_buf);
    let mut hits = 0usize;
    let mut session_bank = MultiCorrelator::new(&[]);
    for bank in &bc.banks {
        session_bank.assign_from_pool(pool_bank, bank);
        let mut scanner = session_bank.scanner_in(&chunk_buf[..bc.chunk_len], prefix, 0);
        let Some(h) = scan_from_with(&mut scanner, 0, bc.params.tau, scratch) else {
            continue;
        };
        let code = scanner.bank().codes()[h.code_index];
        if decode_frame_into(
            scanner.samples(),
            h.offset,
            code,
            bc.hello_coded_len,
            bc.params.tau,
            frame,
        ) && codec
            .decode_into(&frame.bits, &frame.erased, bc.hello_bits.len(), decoded)
            .is_ok()
            && h.code_index == 0
        {
            hits += 1;
        }
    }
    hits
}

/// Private passes: every receiver renders the window and computes its own
/// prefix sums ([`MultiCorrelator::scanner`]) — the sequential driver's
/// shape before the engine.
fn private_passes(
    bc: &Broadcast,
    frame: &mut Frame,
    scratch: &mut ScanScratch,
    decoded: &mut Vec<bool>,
    codec: &mut FrameCodec,
) -> usize {
    let mut hits = 0usize;
    for bank in &bc.banks {
        let refs: Vec<&SpreadCode> = bank.iter().map(|&i| &bc.codes[i]).collect();
        let correlator = MultiCorrelator::new(&refs);
        let samples = bc.channel.render(0, bc.chunk_len);
        let mut scanner = correlator.scanner(&samples);
        let Some(h) = scan_from_with(&mut scanner, 0, bc.params.tau, scratch) else {
            continue;
        };
        let code = scanner.bank().codes()[h.code_index];
        if decode_frame_into(
            scanner.samples(),
            h.offset,
            code,
            bc.hello_coded_len,
            bc.params.tau,
            frame,
        ) && codec
            .decode_into(&frame.bits, &frame.erased, bc.hello_bits.len(), decoded)
            .is_ok()
            && h.code_index == 0
        {
            hits += 1;
        }
    }
    hits
}

fn bench_shared_scan(c: &mut Criterion) {
    let bc = broadcast_setup();
    let pool_refs: Vec<&SpreadCode> = bc.codes.iter().collect();
    let pool_bank = MultiCorrelator::new(&pool_refs);
    let mut codec = FrameCodec::new(bc.params.mu).expect("mu validated");
    let mut chunk_buf = Vec::new();
    let mut prefix = PrefixSums::new();
    let mut frame = Frame {
        bits: Vec::new(),
        erased: Vec::new(),
    };
    let mut scratch = ScanScratch::new();
    let mut decoded = Vec::new();
    // Both variants must recover the broadcast at every receiver.
    assert_eq!(
        shared_pass(
            &bc,
            &pool_bank,
            &mut chunk_buf,
            &mut prefix,
            &mut frame,
            &mut scratch,
            &mut decoded,
            &mut codec,
        ),
        RECEIVERS
    );
    assert_eq!(decoded, bc.hello_bits);
    assert_eq!(
        private_passes(&bc, &mut frame, &mut scratch, &mut decoded, &mut codec),
        RECEIVERS
    );
    assert_eq!(decoded, bc.hello_bits);

    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(RECEIVERS as u64));
    group.bench_function(format!("fast/shared_scan_m{RECEIVERS}"), |b| {
        b.iter(|| {
            black_box(shared_pass(
                &bc,
                &pool_bank,
                &mut chunk_buf,
                &mut prefix,
                &mut frame,
                &mut scratch,
                &mut decoded,
                &mut codec,
            ))
        })
    });
    group.bench_function(format!("reference/shared_scan_m{RECEIVERS}"), |b| {
        b.iter(|| {
            black_box(private_passes(
                &bc,
                &mut frame,
                &mut scratch,
                &mut decoded,
                &mut codec,
            ))
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let params = chip_params();
    let authority = Authority::from_seed(b"bench-sessions");
    let mut rng = StdRng::seed_from_u64(0xE2617E);
    let pool: Vec<SpreadCode> = (0..POOL)
        .map(|_| SpreadCode::random(params.n_chips, &mut rng))
        .collect();
    let retry = RetryPolicy::budgeted(1);
    let specs = session_workload(POOL, 256, 0x5E55);

    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(specs.len() as u64));
    group.bench_function("batch/sessions_256", |b| {
        let engine = BatchEngine::new(
            &params,
            &authority,
            &pool,
            EngineConfig {
                chunk: 64,
                shards: 64,
                retry,
                ..EngineConfig::default()
            },
        );
        b.iter(|| black_box(engine.run(&specs)))
    });
    group.bench_function("sequential/sessions_256", |b| {
        b.iter(|| {
            black_box(reference::run_sessions(
                &params, &authority, &pool, &retry, &specs,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_shared_scan, bench_end_to_end);
criterion_main!(benches);
