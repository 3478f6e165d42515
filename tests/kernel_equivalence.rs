//! End-to-end equivalence of the bit-parallel batched scan with the scalar
//! reference implementation it replaced.
//!
//! The `jrsnd_dsss::correlate` kernels promise *bit-identical* results, not
//! merely close ones: integer accumulation is exact in both paths, so every
//! correlation value, every hit offset, every work counter and every
//! decoded frame must match the chip-at-a-time originals (kept under
//! `spread::reference` / `sync::reference`). These tests drive whole
//! receiver scenarios — dead air, multiple frames, same-code jamming,
//! noise — through both paths and require equality.

use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::spread::{reference as spread_ref, spread};
use jrsnd_dsss::sync::{reference as sync_ref, scan, scan_all};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Builds a receiver buffer with `frames` spread messages separated by dead
/// air, optional same-code jamming over message tails, and sparse noise.
fn synth_buffer(seed: u64, n: usize, codes: &[SpreadCode], frames: usize) -> Vec<i32> {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let mut samples: Vec<i32> = Vec::new();
    for _ in 0..frames {
        let lead = r.gen_range(0..2 * n);
        samples.extend(std::iter::repeat_n(0i32, lead));
        let code = &codes[r.gen_range(0..codes.len())];
        let msg: Vec<bool> = (0..8).map(|_| r.gen()).collect();
        let mut levels = spread(&msg, code).to_levels();
        if r.gen_bool(0.3) {
            // Reactive jammer over the tail: large amplitudes, sign flips.
            let start = levels.len() / 2;
            for l in levels[start..].iter_mut() {
                *l = if r.gen() { 1_000_003 } else { -1_000_003 };
            }
        }
        samples.extend(levels);
    }
    samples.extend(std::iter::repeat_n(0i32, n));
    // Sparse background noise on top of everything.
    for s in samples.iter_mut() {
        if r.gen_bool(0.02) {
            *s += r.gen_range(-3..=3);
        }
    }
    samples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn scan_is_bit_identical_to_reference(
        seed in 0u64..100_000,
        m in 1usize..5,
        frames in 0usize..3,
    ) {
        let n = 256usize;
        let mut cr = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
        let codes: Vec<SpreadCode> = (0..m).map(|_| SpreadCode::random(n, &mut cr)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let samples = synth_buffer(seed, n, &codes, frames);

        let fast = scan(&samples, &refs, 0.30);
        let slow = sync_ref::scan(&samples, &refs, 0.30);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                prop_assert_eq!(f.code_index, s.code_index);
                prop_assert_eq!(f.offset, s.offset);
                prop_assert_eq!(f.correlation.to_bits(), s.correlation.to_bits());
                prop_assert_eq!(f.correlations_computed, s.correlations_computed);
            }
            (f, s) => prop_assert!(false, "hit mismatch: fast={:?} reference={:?}", f, s),
        }
    }

    #[test]
    fn single_window_correlation_is_bit_identical(
        seed in 0u64..100_000,
        n in 1usize..400,
    ) {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let code = SpreadCode::random(n, &mut r);
        // Amplitudes up to the i32 limits: a jammed buffer must not change
        // the result by so much as one ULP.
        let window: Vec<i32> = (0..n)
            .map(|_| match r.gen_range(0..4) {
                0 => i32::MIN,
                1 => i32::MAX,
                _ => r.gen_range(-100..=100),
            })
            .collect();
        let fast = jrsnd_dsss::spread::correlate_window(&window, &code);
        let slow = spread_ref::correlate_window(&window, &code);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }
}

/// The hit lists of `scan_all` — every `(code_index, offset, frame)` triple
/// — must be identical to the scalar reference on fixed seeds, so the
/// kernel rewrite is invisible to everything downstream of the receiver.
#[test]
fn scan_all_hit_lists_are_identical_on_fixed_seeds() {
    let n = 256usize;
    for seed in [1u64, 7, 42, 2011, 31_337] {
        let mut cr = rand::rngs::StdRng::seed_from_u64(seed);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(n, &mut cr)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let samples = synth_buffer(seed, n, &codes, 4);

        let fast = scan_all(&samples, &refs, 8, 0.30);
        let slow = sync_ref::scan_all(&samples, &refs, 8, 0.30);
        assert_eq!(
            fast, slow,
            "scan_all diverged from reference at seed {seed}"
        );
    }
}

/// Whole receiver scenarios through the chip-medium kernel: the blocked
/// word-parallel `ChipChannel::render` and the chip-domain despread
/// (`despread_from_channel`, which renders nothing) must match the
/// chip-at-a-time channel oracle composed with the materialised despread,
/// bit for bit, on a noisy many-transmission medium.
#[test]
fn channel_render_and_fused_despread_match_reference_end_to_end() {
    use jrsnd_dsss::channel::{self, ChipChannel};
    use jrsnd_dsss::spread::{despread_from_channel, despread_levels};

    let n = 256usize;
    for seed in [3u64, 11, 2011, 90_210] {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let codes: Vec<SpreadCode> = (0..6).map(|_| SpreadCode::random(n, &mut r)).collect();
        let mut chan = ChipChannel::new(seed ^ 0xA5A5).with_noise(0.1);
        let msg: Vec<bool> = (0..10).map(|_| r.gen()).collect();
        for (i, code) in codes.iter().enumerate() {
            let amp = if i % 3 == 2 { -5 } else { 1 + i as i32 };
            chan.transmit(r.gen_range(0..3 * n as u64), spread(&msg, code), amp);
        }
        let total = msg.len() * n + 3 * n;

        let packed = chan.render(0, total);
        let scalar = channel::reference::render(&chan, 0, total);
        assert_eq!(packed, scalar, "render diverged from oracle at seed {seed}");

        for code in &codes {
            let chip_domain = despread_from_channel(&chan, 0, code, msg.len(), 0.30);
            let materialised = despread_levels(&packed[..msg.len() * n], code, 0.30);
            assert_eq!(
                chip_domain, materialised,
                "chip-domain despread diverged at seed {seed}"
            );
        }
    }
}

/// The engine's HELLO chunk shape: clean frames on some codes and, on
/// others, the same frame under bit-aligned same-code garbage at amplitude
/// 2 or 3 — the medium the bit-plane kernel sees under a reactive jammer.
fn jammed_chunk(seed: u64, n: usize, codes: &[SpreadCode], frames: usize) -> Vec<i32> {
    use jrsnd_dsss::channel::ChipChannel;
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let mut chan = ChipChannel::new(seed);
    let mut at = r.gen_range(0..n as u64);
    for _ in 0..frames {
        let code = &codes[r.gen_range(0..codes.len())];
        let msg: Vec<bool> = (0..6).map(|_| r.gen()).collect();
        chan.transmit(at, spread(&msg, code), 1);
        if r.gen_bool(0.5) {
            let garbage: Vec<bool> = (0..6).map(|_| r.gen()).collect();
            chan.transmit(at, spread(&garbage, code), r.gen_range(2..=3));
        }
        at += (6 * n + r.gen_range(0..n)) as u64;
    }
    chan.render(0, at as usize + n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The bit-plane kernel behind `correlate_all`, `correlate_block` and
    /// `correlate_one`, read through `scanner_in` at every word alignment
    /// of the slice base, equals the chip-at-a-time oracle on jammed
    /// chunks.
    #[test]
    fn plane_kernel_on_jammed_chunks_is_bit_identical(
        seed in 0u64..100_000,
        m in 1usize..6,
        bi in 0usize..3,
    ) {
        use jrsnd_dsss::correlate::{MultiCorrelator, PrefixSums};
        let n = 256usize;
        let mut cr = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBA5E);
        let codes: Vec<SpreadCode> = (0..m).map(|_| SpreadCode::random(n, &mut cr)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let buffer = jammed_chunk(seed, n, &codes, 3);
        let mut sums = PrefixSums::new();
        sums.compute(&buffer);
        let base = 64 * cr.gen_range(0usize..4) + [0usize, 1, 63][bi];
        let slice = &buffer[base..];
        let scanner = bank.scanner_in(slice, &sums, base);
        let count = slice.len() - n + 1;
        let mut block = vec![0.0; count * m];
        scanner.correlate_block(0, count, &mut block);
        let mut all = vec![0.0; m];
        for o in (0..count).step_by(7) {
            scanner.correlate_all(o, &mut all);
            for (ci, code) in codes.iter().enumerate() {
                let want = spread_ref::correlate_window(&slice[o..o + n], code).to_bits();
                prop_assert_eq!(block[o * m + ci].to_bits(), want, "block base={} o={}", base, o);
                prop_assert_eq!(all[ci].to_bits(), want, "all base={} o={}", base, o);
                prop_assert_eq!(scanner.correlate_one(o, ci).to_bits(), want);
            }
        }
    }
}

/// A receiver resumes `scan_from_with` from arbitrary start offsets with
/// one pooled scratch (stale sweep blocks included). Each resumed scan must
/// equal the reference scan of the buffer's suffix from `start` — same
/// hit, same correlation bits, and the same logical work count, although
/// the refinement now reads offsets the sweep block already holds.
#[test]
fn resumed_scans_equal_reference_on_every_suffix() {
    use jrsnd_dsss::correlate::MultiCorrelator;
    use jrsnd_dsss::sync::{scan_from_with, ScanScratch};
    let n = 256usize;
    for seed in [5u64, 77, 2011] {
        let mut cr = rand::rngs::StdRng::seed_from_u64(seed);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(n, &mut cr)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let samples = jammed_chunk(seed, n, &codes, 3);
        let bank = MultiCorrelator::new(&refs);
        let mut scanner = bank.scanner(&samples);
        let mut scratch = ScanScratch::new();
        let mut hits = 0;
        for start in (0..samples.len() - n).step_by(97) {
            let fast = scan_from_with(&mut scanner, start, 0.30, &mut scratch);
            let slow = sync_ref::scan(&samples[start..], &refs, 0.30);
            let slow = slow.map(|mut h| {
                h.offset += start;
                hits += 1;
                h
            });
            assert_eq!(
                fast.map(|h| (
                    h.code_index,
                    h.offset,
                    h.correlation.to_bits(),
                    h.correlations_computed
                )),
                slow.map(|h| (
                    h.code_index,
                    h.offset,
                    h.correlation.to_bits(),
                    h.correlations_computed
                )),
                "seed {seed} start {start}"
            );
        }
        assert!(hits > 10, "seed {seed}: only {hits} resumed scans hit");
    }
}
