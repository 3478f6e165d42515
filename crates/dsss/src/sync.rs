//! Sliding-window synchronization: locating a spread message inside a
//! buffered sample stream without knowing when it started.
//!
//! Section V-B: the receiver buffers `f` chips and, for every chip offset
//! `i` and every code in its set ℂ_B, computes the correlation of
//! `(p_i, …, p_{i+N−1})` with the code. The first offset whose correlation
//! clears ±τ marks the start of a message spread with that code; the rest
//! of the message is then de-spread window by window. This scan is exactly
//! the computation whose cost (ρ seconds per correlated bit) produces the
//! processing/buffering gap λ = ρNmR in the latency analysis.

use crate::code::SpreadCode;
use crate::correlate::{BankScanner, MultiCorrelator};
use crate::spread::{correlate_window, decide, BitDecision};

/// The result of locating a message start in a buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncHit {
    /// Index into the candidate-code slice that matched.
    pub code_index: usize,
    /// Chip offset of the message start within the buffer.
    pub offset: usize,
    /// The correlation at the hit (|corr| ≥ τ).
    pub correlation: f64,
    /// Number of (offset, code) correlations evaluated before the hit —
    /// the work metric behind ρ and λ.
    pub correlations_computed: u64,
}

/// A decoded frame: bits plus per-bit erasure flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Decoded bits (erased positions hold `false`).
    pub bits: Vec<bool>,
    /// Per-bit erasure flags (|corr| < τ).
    pub erased: Vec<bool>,
}

impl Frame {
    /// Fraction of erased bits.
    pub fn erasure_fraction(&self) -> f64 {
        if self.erased.is_empty() {
            return 0.0;
        }
        self.erased.iter().filter(|&&e| e).count() as f64 / self.erased.len() as f64
    }

    /// Empties both planes, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.bits.clear();
        self.erased.clear();
    }

    /// Appends one bit decision (an erasure reads as `false`, flagged).
    pub(crate) fn push(&mut self, decision: BitDecision) {
        self.bits.push(decision == BitDecision::One);
        self.erased.push(decision == BitDecision::Erased);
    }
}

/// Scans `samples` for the earliest chip offset at which any candidate
/// code's correlation magnitude reaches `tau`.
///
/// Mirrors the paper's algorithm: offsets are scanned in order and for each
/// offset every code is tried, so the earliest message wins regardless of
/// which code spreads it.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::code::SpreadCode;
/// use jrsnd_dsss::spread::spread;
/// use jrsnd_dsss::sync::scan;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let code = SpreadCode::random(256, &mut rng);
/// let mut samples = vec![0i32; 100]; // dead air before the message
/// samples.extend(spread(&[true, false], &code).to_levels());
/// let hit = scan(&samples, &[&code], 0.15).unwrap();
/// assert_eq!(hit.offset, 100);
/// assert_eq!(hit.code_index, 0);
/// ```
pub fn scan(samples: &[i32], codes: &[&SpreadCode], tau: f64) -> Option<SyncHit> {
    if codes.is_empty() {
        return None;
    }
    let bank = MultiCorrelator::new(codes);
    let mut scanner = bank.scanner(samples);
    scan_from(&mut scanner, 0, tau)
}

/// [`scan`] over an already-prepared [`BankScanner`], starting at absolute
/// chip offset `start`.
///
/// This is the batched fast path: every window is correlated against the
/// whole bank in one pass and the scanner's prefix sums supply each
/// window's sample total, so sliding by one chip never re-reads the buffer
/// to re-total it. A caller that resumes scanning (like [`scan_all`], or a
/// receiver draining one buffering window) builds the scanner once and
/// keeps calling `scan_from` with increasing `start`.
///
/// The returned [`SyncHit::offset`] is absolute within the scanner's
/// buffer. [`SyncHit::correlations_computed`] counts from this call only
/// and replicates the sequential algorithm's early-exit cost (a triggering
/// offset charges only the codes up to and including the trigger), so the
/// work metric is identical to scanning code by code.
pub fn scan_from(scanner: &mut BankScanner<'_, '_>, start: usize, tau: f64) -> Option<SyncHit> {
    scan_from_with(scanner, start, tau, &mut ScanScratch::new())
}

/// Reusable block buffers for [`scan_from_with`], so a receiver scanning
/// many buffers (the batch session engine serves thousands per tick) pays
/// the block allocations once instead of per scan. A fresh instance
/// behaves exactly like the allocations [`scan_from`] used to make — the
/// buffers are resized and fully overwritten before any read.
#[derive(Debug, Clone, Default)]
pub struct ScanScratch {
    block: Vec<f64>,
    rblock: Vec<f64>,
}

impl ScanScratch {
    /// An empty scratch; buffers grow on first use and are then retained.
    pub fn new() -> Self {
        ScanScratch::default()
    }
}

/// [`scan_from`] with caller-pooled scratch — identical hits and work
/// counters, no per-call allocation once `scratch` has warmed up.
pub fn scan_from_with(
    scanner: &mut BankScanner<'_, '_>,
    start: usize,
    tau: f64,
    scratch: &mut ScanScratch,
) -> Option<SyncHit> {
    /// Offsets per [`BankScanner::correlate_block`] call: enough to
    /// amortise the per-call setup, small enough that the block result
    /// stays cache-resident.
    const BLOCK: usize = 64;
    let mut work: u64 = 0;
    let m = scanner.bank().num_codes();
    if m == 0 {
        return None;
    }
    let n = scanner.bank().code_len();
    let last = scanner.last_offset()?;
    let buffer_len = scanner.samples().len();
    scratch.block.resize(BLOCK * m, 0.0);
    scratch.rblock.resize(BLOCK * m, 0.0);
    let (block, rblock) = (&mut scratch.block, &mut scratch.rblock);
    // The sweep block holds offsets `block_start..block_end`; empty until
    // the first `correlate_block`.
    let (mut block_start, mut block_end) = (0, 0);
    let mut offset = start;
    while offset <= last {
        // The sweep consumes correlations block by block; most offsets
        // never trigger, so the eager batch costs nothing extra.
        if offset < block_start || offset >= block_end {
            block_start = offset;
            block_end = offset + BLOCK.min(last - offset + 1);
            scanner.correlate_block(offset, block_end - block_start, block);
        }
        let corr = &block[(offset - block_start) * m..][..m];
        let triggered = corr.iter().position(|c| c.abs() >= tau);
        // Charge what the sequential scan would have computed: codes up to
        // and including the first trigger, or all m on a miss.
        work += triggered.map_or(m as u64, |ci| ci as u64 + 1);
        let Some(ci) = triggered else {
            offset += 1;
            continue;
        };
        let mut best = (offset, ci, corr[ci]);
        // Peak refinement: pure random codes have ~3.5 sigma
        // partial-autocorrelation sidelobes that can clear tau slightly
        // ahead of the true alignment. The true peak (|corr| ~ 1) lies
        // within one code length of any sidelobe, so search that window
        // across all codes and keep the strongest response. Offsets the
        // sweep block already holds are read from it; only the rest are
        // computed. The work counter still charges all m codes per offset,
        // as the sequential scan computes them.
        let refine_end = (offset + n - 1).min(last);
        let mut o2 = offset + 1;
        while o2 <= refine_end {
            let (rows, first, held) = if o2 < block_end {
                (&block[..], o2 - block_start, block_end - o2)
            } else {
                let count = BLOCK.min(refine_end - o2 + 1);
                scanner.correlate_block(o2, count, rblock);
                (&rblock[..], 0, count)
            };
            let count = held.min(refine_end - o2 + 1);
            for (i, row) in rows[first * m..][..count * m].chunks_exact(m).enumerate() {
                work += m as u64;
                for (code_index, &c) in row.iter().enumerate() {
                    if c.abs() > best.2.abs() {
                        best = (o2 + i, code_index, c);
                    }
                }
            }
            o2 += count;
        }
        // Confirm with the following bit window when the buffer allows;
        // a lone sidelobe with no message behind it fails this check.
        if best.0 + 2 * n <= buffer_len {
            let next_corr = scanner.correlate_one(best.0 + n, best.1);
            work += 1;
            if next_corr.abs() < tau && best.2.abs() < 0.5 {
                offset += 1;
                continue;
            }
        }
        return Some(SyncHit {
            code_index: best.1,
            offset: best.0,
            correlation: best.2,
            correlations_computed: work,
        });
    }
    None
}

/// De-spreads an `n_bits`-bit frame starting at `offset`, given the code
/// identified by [`scan`].
///
/// Returns `None` if the buffer does not contain the full frame.
pub fn decode_frame(
    samples: &[i32],
    offset: usize,
    code: &SpreadCode,
    n_bits: usize,
    tau: f64,
) -> Option<Frame> {
    let mut frame = Frame {
        bits: Vec::with_capacity(n_bits),
        erased: Vec::with_capacity(n_bits),
    };
    decode_frame_into(samples, offset, code, n_bits, tau, &mut frame).then_some(frame)
}

/// [`decode_frame`] into a caller-pooled [`Frame`], clearing it first.
/// Returns `false` (frame left empty) if the buffer does not contain the
/// full frame. Identical decisions to [`decode_frame`]; the engine's hot
/// loop uses this to keep per-tick frame decoding allocation-free once
/// the pooled frame has warmed up.
pub fn decode_frame_into(
    samples: &[i32],
    offset: usize,
    code: &SpreadCode,
    n_bits: usize,
    tau: f64,
    frame: &mut Frame,
) -> bool {
    frame.clear();
    let n = code.len();
    let Some(needed) = n_bits.checked_mul(n).and_then(|c| offset.checked_add(c)) else {
        return false;
    };
    if needed > samples.len() {
        return false;
    }
    for j in 0..n_bits {
        let window = &samples[offset + j * n..offset + (j + 1) * n];
        frame.push(decide(correlate_window(window, code), tau));
    }
    true
}

/// Scans the whole buffer and decodes **every** `n_bits`-bit frame found,
/// continuing past each one — the paper's receiver behaviour: "there may
/// be multiple or no valid HELLO messages in the buffer … even after
/// recovering one valid HELLO message from the buffer, B still need\[s to\]
/// process the rest of it" (multiple physical neighbors may initiate
/// discovery within one buffering window).
///
/// After a decodable frame, scanning resumes at its end; after an
/// undecodable hit (a sidelobe or a jammed frame), one bit period is
/// skipped. Returns `(code_index, offset, frame)` triples in buffer order.
pub fn scan_all(
    samples: &[i32],
    codes: &[&SpreadCode],
    n_bits: usize,
    tau: f64,
) -> Vec<(usize, usize, Frame)> {
    let mut found = Vec::new();
    if codes.is_empty() {
        return found;
    }
    // One bank and one prefix-sum pass serve every resumed scan below.
    let bank = MultiCorrelator::new(codes);
    let mut scanner = bank.scanner(samples);
    let n = bank.code_len();
    let mut pos = 0usize;
    while pos + n <= samples.len() {
        let Some(hit) = scan_from(&mut scanner, pos, tau) else {
            break;
        };
        let abs = hit.offset;
        match decode_frame(samples, abs, codes[hit.code_index], n_bits, tau) {
            Some(frame) if frame.erasure_fraction() < 0.5 => {
                pos = abs + n_bits * n;
                found.push((hit.code_index, abs, frame));
            }
            _ => {
                pos = abs + n;
            }
        }
    }
    found
}

/// Convenience: scan for a frame spread with any of `codes` and decode
/// `n_bits` bits from the hit. Returns the code index and the frame.
pub fn scan_and_decode(
    samples: &[i32],
    codes: &[&SpreadCode],
    n_bits: usize,
    tau: f64,
) -> Option<(usize, Frame)> {
    let hit = scan(samples, codes, tau)?;
    let frame = decode_frame(samples, hit.offset, codes[hit.code_index], n_bits, tau)?;
    Some((hit.code_index, frame))
}

/// Scalar transcriptions of [`scan`]/[`scan_all`], kept verbatim from
/// before the batched-kernel rewrite as determinism oracles.
///
/// Tests assert the fast paths return byte-identical hit lists and work
/// counters. Not used on any hot path.
pub mod reference {
    use super::{decide, BitDecision, Frame, SpreadCode, SyncHit};
    use crate::spread::reference::correlate_window;

    /// Chip-at-a-time [`super::scan`].
    pub fn scan(samples: &[i32], codes: &[&SpreadCode], tau: f64) -> Option<SyncHit> {
        let mut work: u64 = 0;
        if codes.is_empty() {
            return None;
        }
        let n = codes[0].len();
        assert!(
            codes.iter().all(|c| c.len() == n),
            "all candidate codes must share one chip length"
        );
        if samples.len() < n {
            return None;
        }
        let last = samples.len() - n;
        let mut offset = 0usize;
        while offset <= last {
            let window = &samples[offset..offset + n];
            let mut triggered: Option<(usize, f64)> = None;
            for (code_index, code) in codes.iter().enumerate() {
                let corr = correlate_window(window, code);
                work += 1;
                if corr.abs() >= tau {
                    triggered = Some((code_index, corr));
                    break;
                }
            }
            let Some(mut best) = triggered.map(|(ci, c)| (offset, ci, c)) else {
                offset += 1;
                continue;
            };
            for o2 in (offset + 1)..=(offset + n - 1).min(last) {
                let w2 = &samples[o2..o2 + n];
                for (code_index, code) in codes.iter().enumerate() {
                    let corr = correlate_window(w2, code);
                    work += 1;
                    if corr.abs() > best.2.abs() {
                        best = (o2, code_index, corr);
                    }
                }
            }
            if best.0 + 2 * n <= samples.len() {
                let next = &samples[best.0 + n..best.0 + 2 * n];
                let next_corr = correlate_window(next, codes[best.1]);
                work += 1;
                if next_corr.abs() < tau && best.2.abs() < 0.5 {
                    offset += 1;
                    continue;
                }
            }
            return Some(SyncHit {
                code_index: best.1,
                offset: best.0,
                correlation: best.2,
                correlations_computed: work,
            });
        }
        None
    }

    /// Chip-at-a-time [`super::decode_frame`].
    pub fn decode_frame(
        samples: &[i32],
        offset: usize,
        code: &SpreadCode,
        n_bits: usize,
        tau: f64,
    ) -> Option<Frame> {
        let n = code.len();
        let needed = offset.checked_add(n_bits.checked_mul(n)?)?;
        if needed > samples.len() {
            return None;
        }
        let mut bits = Vec::with_capacity(n_bits);
        let mut erased = Vec::with_capacity(n_bits);
        for j in 0..n_bits {
            let window = &samples[offset + j * n..offset + (j + 1) * n];
            match decide(correlate_window(window, code), tau) {
                BitDecision::One => {
                    bits.push(true);
                    erased.push(false);
                }
                BitDecision::Zero => {
                    bits.push(false);
                    erased.push(false);
                }
                BitDecision::Erased => {
                    bits.push(false);
                    erased.push(true);
                }
            }
        }
        Some(Frame { bits, erased })
    }

    /// Chip-at-a-time [`super::scan_all`].
    pub fn scan_all(
        samples: &[i32],
        codes: &[&SpreadCode],
        n_bits: usize,
        tau: f64,
    ) -> Vec<(usize, usize, Frame)> {
        let mut found = Vec::new();
        if codes.is_empty() {
            return found;
        }
        let n = codes[0].len();
        let mut pos = 0usize;
        while pos + n <= samples.len() {
            let Some(hit) = scan(&samples[pos..], codes, tau) else {
                break;
            };
            let abs = pos + hit.offset;
            match decode_frame(samples, abs, codes[hit.code_index], n_bits, tau) {
                Some(frame) if frame.erasure_fraction() < 0.5 => {
                    pos = abs + n_bits * n;
                    found.push((hit.code_index, abs, frame));
                }
                _ => {
                    pos = abs + n;
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::spread;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn finds_message_at_arbitrary_offset() {
        let mut r = rng(1);
        let code = SpreadCode::random(512, &mut r);
        let msg: Vec<bool> = (0..21).map(|i| i % 2 == 0).collect();
        for lead in [0usize, 1, 17, 511, 1000] {
            let mut samples = vec![0i32; lead];
            samples.extend(spread(&msg, &code).to_levels());
            samples.extend(vec![0i32; 64]);
            let (idx, frame) = scan_and_decode(&samples, &[&code], 21, 0.15).unwrap();
            assert_eq!(idx, 0);
            assert_eq!(frame.bits, msg, "lead {lead}");
            assert!(frame.erasure_fraction() == 0.0);
        }
    }

    #[test]
    fn identifies_which_code_matched() {
        let mut r = rng(2);
        let codes: Vec<SpreadCode> = (0..5).map(|_| SpreadCode::random(512, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let msg = vec![true, true, false];
        #[allow(clippy::needless_range_loop)] // target doubles as code index
        for target in 0..5 {
            let mut samples = vec![0i32; 37];
            samples.extend(spread(&msg, &codes[target]).to_levels());
            let hit = scan(&samples, &refs, 0.15).unwrap();
            assert_eq!(hit.code_index, target);
            assert_eq!(hit.offset, 37);
            assert!(hit.correlation.abs() >= 0.99);
        }
    }

    #[test]
    fn noise_alone_produces_no_hit() {
        let mut r = rng(3);
        let code = SpreadCode::random(512, &mut r);
        // Sparse random noise, no transmission.
        let samples: Vec<i32> = (0..4096)
            .map(|_| {
                if r.gen_bool(0.05) {
                    if r.gen() {
                        1
                    } else {
                        -1
                    }
                } else {
                    0
                }
            })
            .collect();
        assert!(scan(&samples, &[&code], 0.15).is_none());
    }

    #[test]
    fn short_buffer_and_empty_codes_are_none() {
        let mut r = rng(4);
        let code = SpreadCode::random(512, &mut r);
        assert!(scan(&[0i32; 100], &[&code], 0.15).is_none());
        assert!(scan(&[0i32; 1000], &[], 0.15).is_none());
        assert!(decode_frame(&[0i32; 100], 0, &code, 5, 0.15).is_none());
    }

    #[test]
    fn work_counter_reflects_scan_cost() {
        let mut r = rng(5);
        let code = SpreadCode::random(128, &mut r);
        let msg = vec![true];
        let lead = 50;
        let mut samples = vec![0i32; lead];
        samples.extend(spread(&msg, &code).to_levels());
        let hit = scan(&samples, &[&code], 0.15).unwrap();
        // One correlation per offset, hit at offset `lead`.
        assert_eq!(hit.correlations_computed, lead as u64 + 1);
    }

    #[test]
    fn message_negative_first_bit_still_syncs() {
        // A frame starting with bit 0 correlates at -1; |corr| must trigger.
        let mut r = rng(6);
        let code = SpreadCode::random(512, &mut r);
        let msg = vec![false, true, false];
        let mut samples = vec![0i32; 11];
        samples.extend(spread(&msg, &code).to_levels());
        let (_, frame) = scan_and_decode(&samples, &[&code], 3, 0.15).unwrap();
        assert_eq!(frame.bits, msg);
    }

    #[test]
    fn two_messages_earliest_wins() {
        let mut r = rng(7);
        let code_a = SpreadCode::random(256, &mut r);
        let code_b = SpreadCode::random(256, &mut r);
        let mut samples = vec![0i32; 20];
        samples.extend(spread(&[true, false], &code_b).to_levels());
        samples.extend(vec![0i32; 40]);
        samples.extend(spread(&[true], &code_a).to_levels());
        let hit = scan(&samples, &[&code_a, &code_b], 0.15).unwrap();
        assert_eq!(hit.code_index, 1, "the earlier message (code_b) must win");
        assert_eq!(hit.offset, 20);
    }

    #[test]
    fn scan_all_recovers_multiple_concurrent_initiators() {
        // Three senders' HELLOs land in one buffer, each spread with a
        // different code, separated by dead air — the multi-initiator case.
        let mut r = rng(9);
        let codes: Vec<SpreadCode> = (0..3).map(|_| SpreadCode::random(256, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let msgs: Vec<Vec<bool>> = (0..3)
            .map(|s| (0..8).map(|b| (b + s) % 2 == 0).collect())
            .collect();
        let mut samples = Vec::new();
        for (msg, code) in msgs.iter().zip(&codes) {
            samples.extend(vec![0i32; 100]);
            samples.extend(spread(msg, code).to_levels());
        }
        samples.extend(vec![0i32; 300]);
        let found = scan_all(&samples, &refs, 8, 0.15);
        assert_eq!(found.len(), 3, "all three frames recovered");
        for (i, (code_index, _, frame)) in found.iter().enumerate() {
            assert_eq!(*code_index, i, "frames arrive in buffer order");
            assert_eq!(frame.bits, msgs[i]);
        }
    }

    #[test]
    fn scan_all_empty_cases() {
        let mut r = rng(10);
        let code = SpreadCode::random(128, &mut r);
        assert!(scan_all(&[0i32; 1000], &[&code], 4, 0.15).is_empty());
        assert!(scan_all(&[0i32; 1000], &[], 4, 0.15).is_empty());
        assert!(scan_all(&[0i32; 10], &[&code], 4, 0.15).is_empty());
    }

    #[test]
    fn jammed_suffix_shows_up_as_erasures() {
        let mut r = rng(8);
        let code = SpreadCode::random(512, &mut r);
        let msg: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let mut levels = spread(&msg, &code).to_levels();
        // Reactive jammer zeroes the second half (perfect cancellation is
        // the worst case for the receiver: correlation drops to 0).
        let half = levels.len() / 2;
        for l in levels.iter_mut().skip(half) {
            *l = 0;
        }
        let frame = decode_frame(&levels, 0, &code, 20, 0.15).unwrap();
        assert_eq!(&frame.bits[..10], &msg[..10]);
        assert!(frame.erased[10..].iter().all(|&e| e));
        assert!((frame.erasure_fraction() - 0.5).abs() < 1e-9);
    }
}
