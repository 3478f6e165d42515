//! Batched correlation of one sample buffer against a whole code bank.
//!
//! Section V-B makes the receiver's buffer processing the cost center of
//! JR-SND: every buffered chip offset is correlated against **all** `m`
//! candidate codes in ℂ_B, and the per-correlation cost ρ drives the
//! processing/buffering gap λ = ρNmR of the latency analysis. This module
//! is the fast path for that computation.
//!
//! Chips are ±1 and already bit-packed ([`ChipSeq`](crate::chip::ChipSeq)),
//! so with `P = Σ_{cᵢ=+1} sᵢ` (the positive-chip partial sum) and
//! `T = Σ sᵢ` (the window total),
//!
//! ```text
//! Σ sᵢ·cᵢ = 2·P − T.
//! ```
//!
//! `T` is independent of the code, so one prefix-sum pass over the buffer
//! serves every `(offset, code)` pair. `P` goes through bit planes: the
//! same per-buffer pass ([`PrefixSums::compute`]) stores the offset-binary
//! value `u = s − min` of every sample as `K = bits(max − min)` planes of
//! packed `u64` words. Rendered samples are small integers — {−1, 0, 1} on
//! a clean medium, {±2, ±4} under an amplitude-3 jammer — so `K` is 2 to 4
//! in practice and at most 32 for any `i32` buffer. With `npos` the count
//! of +1 chips of code `c`,
//!
//! ```text
//! P = Σ_b 2^b · popcnt(plane_b[o..o+N] & c) + min · npos,
//! ```
//!
//! one AND + popcount per 64 chips per plane instead of 64 widening adds.
//! Every step is exact integer arithmetic, so `2P − T` is the same `i64`
//! as the chip-at-a-time sum and the normalised `f64` is bit-identical.
//! The kernel reads a window 256 chips (four words) at a time, realigns
//! them to the window's chip offset once, and ANDs them with the matching
//! words of a tile of four codes before moving on — one vector AND +
//! popcount per code per plane per 256 chips.
//!
//! The scalar one-chip-at-a-time implementation survives as the oracle in
//! [`crate::spread::reference`]; proptests assert the two agree bit-for-bit.

use crate::code::SpreadCode;

/// Packed words per span: the kernel reads a window 256 chips at a time,
/// one 256-bit vector of `u64` lanes.
const SPAN: usize = 4;

/// Codes per tile: each window span extracted from a plane is ANDed with
/// the matching span of `TILE` codes before the next span is read.
const TILE: usize = 4;

/// A bank of equal-length candidate codes, laid out for batched window
/// correlation.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::code::SpreadCode;
/// use jrsnd_dsss::correlate::MultiCorrelator;
/// use jrsnd_dsss::spread::spread;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(256, &mut rng)).collect();
/// let refs: Vec<&SpreadCode> = codes.iter().collect();
/// let bank = MultiCorrelator::new(&refs);
///
/// let samples = spread(&[true], &codes[2]).to_levels();
/// let mut scanner = bank.scanner(&samples);
/// let mut corr = [0.0; 4];
/// scanner.correlate_all(0, &mut corr);
/// assert_eq!(corr[2], 1.0); // the matching code correlates perfectly
/// assert!(corr[0].abs() < 0.15 && corr[1].abs() < 0.15 && corr[3].abs() < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct MultiCorrelator<'a> {
    codes: Vec<&'a SpreadCode>,
    n: usize,
    /// `⌈N/256⌉`, spans per code.
    spans: usize,
    /// The codes' packed words in tiles of [`TILE`] codes: span `k` of
    /// code `t·TILE + l` sits at `(t·spans + k)·TILE + l`. Words past `N`,
    /// and the codes that pad a short last tile, are zero, which adds
    /// nothing to any popcount.
    code_words: Vec<[u64; SPAN]>,
    /// Number of +1 chips per code, in bank order.
    npos: Vec<i64>,
}

impl<'a> MultiCorrelator<'a> {
    /// Builds a bank over `codes`.
    ///
    /// An empty bank is allowed (scans over it find nothing).
    ///
    /// # Panics
    ///
    /// Panics if the codes do not share one chip length.
    pub fn new(codes: &[&'a SpreadCode]) -> Self {
        let n = codes.first().map_or(0, |c| c.len());
        assert!(
            codes.iter().all(|c| c.len() == n),
            "all candidate codes must share one chip length"
        );
        let mut bank = MultiCorrelator {
            codes: codes.to_vec(),
            n,
            spans: 0,
            code_words: Vec::new(),
            npos: Vec::new(),
        };
        bank.pack();
        bank
    }

    /// Lays out the packed words and `npos` of `self.codes`, reusing the
    /// existing storage.
    fn pack(&mut self) {
        let spans = self.n.div_ceil(64 * SPAN);
        self.spans = spans;
        self.code_words.clear();
        self.code_words
            .resize(self.codes.len().div_ceil(TILE) * spans * TILE, [0; SPAN]);
        self.npos.clear();
        for (c, code) in self.codes.iter().enumerate() {
            let (t, l) = (c / TILE, c % TILE);
            for (j, &word) in code.chips().words().iter().enumerate() {
                self.code_words[(t * spans + j / SPAN) * TILE + l][j % SPAN] = word;
            }
            let ones: u32 = code.chips().words().iter().map(|x| x.count_ones()).sum();
            self.npos.push(i64::from(ones));
        }
    }

    /// The candidate codes, in bank order.
    pub fn codes(&self) -> &[&'a SpreadCode] {
        &self.codes
    }

    /// Re-points this bank at the pool codes selected by `indices`,
    /// reusing this bank's storage. This is how the batch session engine
    /// gives every session its own (small) bank: re-laying out
    /// `W = ⌈N/64⌉` words per code, with no allocation once warm.
    ///
    /// Correlations through the reassembled bank are bit-identical to a
    /// fresh [`MultiCorrelator::new`] over the same codes: the layout is
    /// the same words.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for `pool`.
    pub fn assign_from_pool(&mut self, pool: &MultiCorrelator<'a>, indices: &[usize]) {
        self.n = pool.n;
        self.codes.clear();
        self.codes.extend(indices.iter().map(|&i| pool.codes[i]));
        self.pack();
    }

    /// Number of codes `m`.
    pub fn num_codes(&self) -> usize {
        self.codes.len()
    }

    /// Whether the bank holds no codes.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Chip length `N` shared by every code (0 for an empty bank).
    pub fn code_len(&self) -> usize {
        self.n
    }

    /// Prepares `samples` for repeated window correlation: one
    /// prefix-sum and bit-plane pass that every subsequent offset reuses.
    pub fn scanner<'s>(&'s self, samples: &'s [i32]) -> BankScanner<'s, 'a> {
        let mut prefix = PrefixSums::new();
        prefix.compute(samples);
        BankScanner {
            bank: self,
            samples,
            prefix: Prefix::Owned(prefix),
        }
    }

    /// Like [`MultiCorrelator::scanner`], but borrows the prefix sums and
    /// bit planes computed once over a larger shared buffer instead of
    /// re-deriving them for this bank's slice of it. `samples` must be the
    /// sub-slice starting `base` chips into the buffer `sums` was computed
    /// from.
    ///
    /// This is the "m receivers, one pass" shape: when many receivers scan
    /// (windows of) the same rendered medium, the `O(len)` pass is paid
    /// once. Window totals `sums[base+o+n] − sums[base+o]` and the plane
    /// words at chip `base + o` are exactly what a private
    /// [`MultiCorrelator::scanner`] over `samples` would use (up to the
    /// buffer minimum, which the `min · npos` term absorbs), so
    /// correlations are bit-for-bit unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `sums` does not cover `base + samples.len()` chips.
    pub fn scanner_in<'s>(
        &'s self,
        samples: &'s [i32],
        sums: &'s PrefixSums,
        base: usize,
    ) -> BankScanner<'s, 'a> {
        assert!(
            base + samples.len() < sums.sums.len(),
            "shared prefix sums do not cover the scanned slice"
        );
        BankScanner {
            bank: self,
            samples,
            prefix: Prefix::Shared { sums, base },
        }
    }

    /// `Σ u` over the +1 chips of each code in tile `t`, for the window
    /// starting at absolute chip `pos` of the buffer behind `planes`
    /// (`u = s − min`; the `min · npos` term is added by the caller).
    #[inline(always)]
    fn tile_sums(&self, planes: &PrefixSums, pos: usize, t: usize) -> [u64; TILE] {
        let spans = self.spans;
        let codes = &self.code_words[t * spans * TILE..(t + 1) * spans * TILE];
        let (q, sh) = (pos / 64, (pos % 64) as u32);
        let mut acc = [[0u64; SPAN]; TILE];
        for b in 0..planes.depth {
            let plane = &planes.plane(b)[q..q + spans * SPAN + 1];
            for (k, tile) in codes.chunks_exact(TILE).enumerate() {
                // Window words k·SPAN.. of the plane, realigned to chip
                // `pos`: each lane takes its high bits from the next word.
                let p: &[u64; SPAN + 1] = plane[k * SPAN..][..SPAN + 1]
                    .try_into()
                    .expect("span + 1 words");
                let s: [u64; SPAN] =
                    std::array::from_fn(|i| (p[i] >> sh) | ((p[i + 1] << 1) << (63 - sh)));
                for (a, code) in acc.iter_mut().zip(tile) {
                    for i in 0..SPAN {
                        a[i] += u64::from((s[i] & code[i]).count_ones()) << b;
                    }
                }
            }
        }
        acc.map(|a| a.iter().sum())
    }
}

/// The per-buffer pass every [`BankScanner`] reads: exact `i64` prefix
/// sums `sums[k] = Σ_{i<k} s[i]` for window totals, and the bit planes of
/// `u = s − min` for the positive-chip sums (see the module docs).
///
/// Computed once per buffer and shared by every [`BankScanner`] built with
/// [`MultiCorrelator::scanner_in`], so `m` receivers scanning one rendered
/// medium pay the pass once instead of `m` times. The backing vectors are
/// retained across [`PrefixSums::compute`] calls, so a pooled instance
/// reaches a steady state with no per-use allocation.
#[derive(Debug, Clone, Default)]
pub struct PrefixSums {
    sums: Vec<i64>,
    /// `depth` planes of `stride` words each: bit `k` of word `q` of plane
    /// `b` is bit `b` of `u` at chip `64q + k`.
    planes: Vec<u64>,
    /// `⌈len/64⌉ + SPAN`: zero words past the buffer, so a window's last
    /// span (which may run up to `SPAN − 1` words past the window) and the
    /// word it borrows high bits from stay in bounds.
    stride: usize,
    /// `K = bits(max − min)`; 0 for a constant (or empty) buffer.
    depth: usize,
    /// The buffer minimum: `s = min + Σ_b 2^b · bit_b(u)`.
    min: i32,
}

impl PrefixSums {
    /// An empty instance (covers zero chips until [`PrefixSums::compute`]).
    pub fn new() -> Self {
        PrefixSums::default()
    }

    /// Recomputes the sums and planes over `samples`, reusing the backing
    /// storage.
    pub fn compute(&mut self, samples: &[i32]) {
        self.sums.clear();
        self.sums.reserve(samples.len() + 1);
        self.sums.push(0);
        let mut acc: i64 = 0;
        let (mut min, mut max) = (i32::MAX, i32::MIN);
        for &s in samples {
            acc += i64::from(s);
            self.sums.push(acc);
            min = min.min(s);
            max = max.max(s);
        }
        if samples.is_empty() {
            (min, max) = (0, 0);
        }
        self.min = min;
        self.depth = (u32::BITS - max.abs_diff(min).leading_zeros()) as usize;
        self.stride = samples.len().div_ceil(64) + SPAN;
        self.planes.clear();
        self.planes.resize(self.depth * self.stride, 0);
        for (q, chunk) in samples.chunks(64).enumerate() {
            let mut u = [0u32; 64];
            for (u, &s) in u.iter_mut().zip(chunk) {
                *u = s.abs_diff(min);
            }
            for b in 0..self.depth {
                let mut word = 0u64;
                for (k, &u) in u.iter().enumerate() {
                    word |= u64::from((u >> b) & 1) << k;
                }
                self.planes[b * self.stride + q] = word;
            }
        }
    }

    /// Number of chips covered (the length of the buffer last computed).
    pub fn chips(&self) -> usize {
        self.sums.len().saturating_sub(1)
    }

    /// `Σ samples[start..end]`, exactly.
    #[inline]
    pub fn range_total(&self, start: usize, end: usize) -> i64 {
        self.sums[end] - self.sums[start]
    }

    /// Bit plane `b` (`b < depth`).
    #[inline]
    fn plane(&self, b: usize) -> &[u64] {
        &self.planes[b * self.stride..(b + 1) * self.stride]
    }
}

/// Where a scanner's window totals and planes come from: its own pass, or
/// a shared buffer-wide [`PrefixSums`] at an offset.
#[derive(Debug)]
enum Prefix<'s> {
    Owned(PrefixSums),
    Shared { sums: &'s PrefixSums, base: usize },
}

/// A buffer prepared for sliding-window correlation against a bank: the
/// bank plus the buffer's prefix sums and bit planes.
#[derive(Debug)]
pub struct BankScanner<'s, 'a> {
    bank: &'s MultiCorrelator<'a>,
    samples: &'s [i32],
    /// Window totals and planes — owned, or shared at an offset.
    prefix: Prefix<'s>,
}

impl BankScanner<'_, '_> {
    /// The underlying bank.
    pub fn bank(&self) -> &MultiCorrelator<'_> {
        self.bank
    }

    /// The buffered samples.
    pub fn samples(&self) -> &[i32] {
        self.samples
    }

    /// The last chip offset a full window fits at, if any.
    pub fn last_offset(&self) -> Option<usize> {
        if self.bank.n == 0 || self.samples.len() < self.bank.n {
            None
        } else {
            Some(self.samples.len() - self.bank.n)
        }
    }

    /// The per-buffer pass and this scanner's offset into its buffer.
    #[inline]
    fn prefix(&self) -> (&PrefixSums, usize) {
        match &self.prefix {
            Prefix::Owned(p) => (p, 0),
            Prefix::Shared { sums, base } => (sums, *base),
        }
    }

    /// The window total `Σ sᵢ` at `offset` — shared by every code.
    #[inline]
    pub fn window_total(&self, offset: usize) -> i64 {
        let (sums, base) = self.prefix();
        sums.range_total(base + offset, base + offset + self.bank.n)
    }

    /// Normalised correlations of the window at `offset` against **all**
    /// codes in one pass, written to `out` in bank order.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit or `out.len() != m`.
    pub fn correlate_all(&self, offset: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.bank.codes.len(), "one output slot per code");
        self.correlate_block(offset, 1, out);
    }

    /// Correlations for `count` consecutive offsets starting at `start`,
    /// written to `out[i·m + c]` (offset-major, bank order within each
    /// offset) — identical values to `count` calls of
    /// [`BankScanner::correlate_all`].
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty, the last window does not fit, or
    /// `out.len() < count * m`.
    pub fn correlate_block(&self, start: usize, count: usize, out: &mut [f64]) {
        let bank = self.bank;
        let (n, m) = (bank.n, bank.codes.len());
        assert!(n > 0, "cannot correlate against an empty bank");
        assert!(
            start + count.saturating_sub(1) + n <= self.samples.len(),
            "offset block exceeds the buffer"
        );
        assert!(out.len() >= count * m, "one output slot per (offset, code)");
        let (sums, base) = self.prefix();
        let min = i64::from(sums.min);
        for (i, row) in out[..count * m].chunks_exact_mut(m).enumerate() {
            let pos = base + start + i;
            let total = sums.range_total(pos, pos + n);
            for (t, tile) in row.chunks_mut(TILE).enumerate() {
                let sums_u = bank.tile_sums(sums, pos, t);
                for (l, o) in tile.iter_mut().enumerate() {
                    let p = sums_u[l] as i64 + min * bank.npos[t * TILE + l];
                    *o = (2 * p - total) as f64 / n as f64;
                }
            }
        }
    }

    /// Normalised correlation of the window at `offset` against the single
    /// code at `code_index`.
    pub fn correlate_one(&self, offset: usize, code_index: usize) -> f64 {
        let bank = self.bank;
        let n = bank.n;
        let (sums, base) = self.prefix();
        let pos = base + offset;
        let total = sums.range_total(pos, pos + n);
        let sums_u = bank.tile_sums(sums, pos, code_index / TILE);
        let p = sums_u[code_index % TILE] as i64 + i64::from(sums.min) * bank.npos[code_index];
        (2 * p - total) as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::{reference, spread};
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn matches_scalar_reference_on_random_buffers() {
        let mut r = rng(1);
        for n in [64usize, 100, 512] {
            let codes: Vec<SpreadCode> = (0..7).map(|_| SpreadCode::random(n, &mut r)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);
            let samples: Vec<i32> = (0..3 * n).map(|_| r.gen_range(-5..=5)).collect();
            let scanner = bank.scanner(&samples);
            let mut out = vec![0.0; codes.len()];
            for offset in [0usize, 1, 63, 64, 65, n - 1, 2 * n] {
                scanner.correlate_all(offset, &mut out);
                for (ci, code) in codes.iter().enumerate() {
                    let expected = reference::correlate_window(&samples[offset..offset + n], code);
                    assert_eq!(
                        out[ci].to_bits(),
                        expected.to_bits(),
                        "n={n} offset={offset} code={ci}"
                    );
                    let one = scanner.correlate_one(offset, ci);
                    assert_eq!(one.to_bits(), expected.to_bits());
                }
            }
        }
    }

    #[test]
    fn perfect_hit_is_exactly_one() {
        let mut r = rng(2);
        let codes: Vec<SpreadCode> = (0..5).map(|_| SpreadCode::random(128, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let samples = spread(&[true, false], &codes[3]).to_levels();
        let scanner = bank.scanner(&samples);
        let mut out = [0.0; 5];
        scanner.correlate_all(0, &mut out);
        assert_eq!(out[3], 1.0);
        scanner.correlate_all(128, &mut out);
        assert_eq!(out[3], -1.0, "second bit is a 0: negated code");
    }

    #[test]
    fn window_totals_come_from_prefix_sums() {
        let mut r = rng(3);
        let code = SpreadCode::random(32, &mut r);
        let bank = MultiCorrelator::new(&[&code]);
        let samples: Vec<i32> = (0..100).map(|_| r.gen_range(-100..=100)).collect();
        let scanner = bank.scanner(&samples);
        for offset in 0..=68 {
            let naive: i64 = samples[offset..offset + 32]
                .iter()
                .map(|&s| i64::from(s))
                .sum();
            assert_eq!(scanner.window_total(offset), naive);
        }
        assert_eq!(scanner.last_offset(), Some(68));
    }

    #[test]
    fn block_matches_per_offset() {
        let mut r = rng(6);
        let codes: Vec<SpreadCode> = (0..3).map(|_| SpreadCode::random(96, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let samples: Vec<i32> = (0..400).map(|_| r.gen_range(-50..=50)).collect();
        let scanner = bank.scanner(&samples);
        let count = 400 - 96 + 1;
        let mut block = vec![0.0; count * 3];
        scanner.correlate_block(0, count, &mut block);
        let mut per_offset = [0.0; 3];
        for o in 0..count {
            scanner.correlate_all(o, &mut per_offset);
            for c in 0..3 {
                assert_eq!(
                    block[o * 3 + c].to_bits(),
                    per_offset[c].to_bits(),
                    "offset {o} code {c}"
                );
            }
        }
    }

    #[test]
    fn channel_correlate_matches_scanner_on_rendered_frames() {
        use crate::channel::ChipChannel;
        let mut r = rng(7);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(128, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let n_bits = 9;
        let mut ch = ChipChannel::new(31).with_noise(0.08);
        let msg: Vec<bool> = (0..n_bits).map(|i| i % 2 == 0).collect();
        ch.transmit(0, spread(&msg, &codes[1]), 1);
        ch.transmit(64, spread(&msg, &codes[3]), 2);

        // Materialised path: render the whole frame, scan it.
        let samples = ch.render(0, n_bits * 128);
        let scanner = bank.scanner(&samples);
        let mut want = [0.0; 4];
        for j in 0..n_bits {
            scanner.correlate_all(j * 128, &mut want);
            for (c, code) in codes.iter().enumerate() {
                let got = ch.correlate((j * 128) as u64, code.chips()) as f64 / 128.0;
                assert_eq!(got.to_bits(), want[c].to_bits(), "bit {j} code {c}");
            }
        }
    }

    #[test]
    fn shared_prefix_scanner_is_bit_identical_to_owned() {
        let mut r = rng(8);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(64, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        // One big "medium" buffer; three receivers scan disjoint slices.
        let buffer: Vec<i32> = (0..1000).map(|_| r.gen_range(-9..=9)).collect();
        let mut sums = PrefixSums::new();
        sums.compute(&buffer);
        assert_eq!(sums.chips(), 1000);
        for base in [0usize, 137, 700] {
            let slice = &buffer[base..base + 300];
            let owned = bank.scanner(slice);
            let shared = bank.scanner_in(slice, &sums, base);
            let mut want = [0.0; 4];
            let mut got = [0.0; 4];
            for offset in 0..=300 - 64 {
                assert_eq!(shared.window_total(offset), owned.window_total(offset));
                owned.correlate_all(offset, &mut want);
                shared.correlate_all(offset, &mut got);
                for c in 0..4 {
                    assert_eq!(
                        got[c].to_bits(),
                        want[c].to_bits(),
                        "base={base} o={offset}"
                    );
                }
                assert_eq!(
                    shared.correlate_one(offset, 2).to_bits(),
                    owned.correlate_one(offset, 2).to_bits()
                );
            }
            let count = 300 - 64 + 1;
            let mut bw = vec![0.0; count * 4];
            let mut bg = vec![0.0; count * 4];
            owned.correlate_block(0, count, &mut bw);
            shared.correlate_block(0, count, &mut bg);
            assert!(bw.iter().zip(&bg).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn shared_prefix_must_cover_the_slice() {
        let mut r = rng(9);
        let code = SpreadCode::random(32, &mut r);
        let bank = MultiCorrelator::new(&[&code]);
        let buffer: Vec<i32> = (0..100).map(|_| r.gen_range(-3..=3)).collect();
        let mut sums = PrefixSums::new();
        sums.compute(&buffer[..50]);
        bank.scanner_in(&buffer, &sums, 0);
    }

    #[test]
    fn assign_from_pool_matches_fresh_bank() {
        let mut r = rng(10);
        let pool_codes: Vec<SpreadCode> = (0..8).map(|_| SpreadCode::random(128, &mut r)).collect();
        let pool_refs: Vec<&SpreadCode> = pool_codes.iter().collect();
        let pool = MultiCorrelator::new(&pool_refs);
        let samples: Vec<i32> = (0..400).map(|_| r.gen_range(-20..=20)).collect();
        for indices in [vec![3usize, 0, 7], vec![5], vec![]] {
            let picked: Vec<&SpreadCode> = indices.iter().map(|&i| &pool_codes[i]).collect();
            let fresh = MultiCorrelator::new(&picked);
            let mut reused = MultiCorrelator::new(&[]);
            reused.assign_from_pool(&pool, &indices);
            assert_eq!(reused.num_codes(), indices.len());
            if indices.is_empty() {
                continue;
            }
            assert_eq!(reused.code_len(), 128);
            let sf = fresh.scanner(&samples);
            let sr = reused.scanner(&samples);
            let mut want = vec![0.0; indices.len()];
            let mut got = vec![0.0; indices.len()];
            for offset in [0usize, 1, 200, 272] {
                sf.correlate_all(offset, &mut want);
                sr.correlate_all(offset, &mut got);
                assert!(want
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn empty_bank_is_inert() {
        let bank = MultiCorrelator::new(&[]);
        assert!(bank.is_empty());
        assert_eq!(bank.code_len(), 0);
        let samples = [1i32, 2, 3];
        let scanner = bank.scanner(&samples);
        assert_eq!(scanner.last_offset(), None);
    }

    #[test]
    fn extreme_amplitudes_do_not_overflow() {
        // A jammed buffer can carry amplitudes near the i32 limits; the
        // kernel must stay exact (accumulation is i64).
        let mut r = rng(4);
        let code = SpreadCode::random(512, &mut r);
        let bank = MultiCorrelator::new(&[&code]);
        let samples: Vec<i32> = (0..512)
            .map(|i| if i % 2 == 0 { i32::MAX } else { i32::MIN })
            .collect();
        let scanner = bank.scanner(&samples);
        let mut out = [0.0];
        scanner.correlate_all(0, &mut out);
        let expected = reference::correlate_window(&samples, &code);
        assert_eq!(out[0].to_bits(), expected.to_bits());
    }

    #[test]
    #[should_panic(expected = "one chip length")]
    fn mixed_lengths_rejected() {
        let mut r = rng(5);
        let a = SpreadCode::random(64, &mut r);
        let b = SpreadCode::random(128, &mut r);
        MultiCorrelator::new(&[&a, &b]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::spread::reference;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A sample amplitude spanning benign levels and jammed buffers near
    /// the `i32` limits — the kernels must stay exact everywhere.
    fn amplitude(r: &mut rand::rngs::StdRng) -> i32 {
        match r.gen_range(0..3) {
            0 => r.gen_range(-8..=8),
            1 => r.gen_range(i32::MIN..=i32::MIN + 16),
            _ => r.gen_range(i32::MAX - 16..=i32::MAX),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn batched_kernel_matches_scalar_reference(
            code_seed in 0u64..10_000,
            m in 1usize..6,
            n in 1usize..200,
            extra in 0usize..150,
            samples_seed in 0u64..10_000,
        ) {
            let mut cr = rand::rngs::StdRng::seed_from_u64(code_seed);
            let codes: Vec<SpreadCode> =
                (0..m).map(|_| SpreadCode::random(n, &mut cr)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);

            let mut sr = rand::rngs::StdRng::seed_from_u64(samples_seed);
            let samples: Vec<i32> =
                (0..n + extra).map(|_| amplitude(&mut sr)).collect();

            let scanner = bank.scanner(&samples);
            let mut out = vec![0.0; m];
            for offset in 0..=extra {
                scanner.correlate_all(offset, &mut out);
                let window = &samples[offset..offset + n];
                for (ci, code) in codes.iter().enumerate() {
                    let expected = reference::correlate_window(window, code);
                    prop_assert_eq!(
                        out[ci].to_bits(),
                        expected.to_bits(),
                        "correlate_all diverged at offset {} code {}",
                        offset,
                        ci
                    );
                    prop_assert_eq!(
                        scanner.correlate_one(offset, ci).to_bits(),
                        expected.to_bits(),
                        "correlate_one diverged at offset {} code {}",
                        offset,
                        ci
                    );
                }
            }
        }

        #[test]
        fn dot_levels_matches_chip_at_a_time(
            code_seed in 0u64..10_000,
            n in 1usize..300,
            samples_seed in 0u64..10_000,
        ) {
            let mut cr = rand::rngs::StdRng::seed_from_u64(code_seed);
            let code = SpreadCode::random(n, &mut cr);
            let mut sr = rand::rngs::StdRng::seed_from_u64(samples_seed);
            let window: Vec<i32> = (0..n).map(|_| amplitude(&mut sr)).collect();

            let naive: i64 = window
                .iter()
                .enumerate()
                .map(|(i, &s)| i64::from(s) * i64::from(code.chips().chip(i)))
                .sum();
            prop_assert_eq!(code.chips().dot_levels(&window), naive);
        }

        /// The plane kernel on the sample shapes it must handle: every
        /// `N` around a word boundary, buffers of depth 0 (constant, all
        /// zero) through 32 (`i32::MIN` next to `i32::MAX`), and the
        /// engine's same-code jam (bit-aligned garbage at amplitude 2 or
        /// 3 over a clean frame). `correlate_all`, `correlate_block` and
        /// `correlate_one` must each equal the chip-at-a-time oracle.
        #[test]
        fn plane_kernel_matches_reference_on_every_shape(
            ni in 0usize..8,
            m in 1usize..7,
            shape in 0usize..5,
            seed in 0u64..10_000,
        ) {
            let n = [1usize, 63, 64, 65, 96, 100, 256, 512][ni];
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let codes: Vec<SpreadCode> = (0..m).map(|_| SpreadCode::random(n, &mut r)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);
            let samples = shaped_buffer(shape, &codes, &mut r);
            let scanner = bank.scanner(&samples);
            let count = samples.len() - n + 1;
            let mut block = vec![0.0; count * m];
            scanner.correlate_block(0, count, &mut block);
            let mut all = vec![0.0; m];
            for o in 0..count {
                scanner.correlate_all(o, &mut all);
                for (ci, code) in codes.iter().enumerate() {
                    let want = reference::correlate_window(&samples[o..o + n], code).to_bits();
                    prop_assert_eq!(block[o * m + ci].to_bits(), want, "block o={} c={}", o, ci);
                    prop_assert_eq!(all[ci].to_bits(), want, "all o={} c={}", o, ci);
                    prop_assert_eq!(
                        scanner.correlate_one(o, ci).to_bits(), want, "one o={} c={}", o, ci
                    );
                }
            }
        }

        /// `scanner_in` reads planes at `base + offset` of a shared
        /// buffer whose minimum (and so depth) may differ from the slice's
        /// own: every word alignment of `base` must still give the
        /// oracle's values.
        #[test]
        fn shared_planes_match_reference_at_every_alignment(
            ni in 0usize..4,
            base_word in 0usize..3,
            bi in 0usize..3,
            shape in 0usize..5,
            seed in 0u64..10_000,
        ) {
            let n = [63usize, 64, 65, 256][ni];
            let base = 64 * base_word + [0usize, 1, 63][bi];
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let codes: Vec<SpreadCode> = (0..3).map(|_| SpreadCode::random(n, &mut r)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);
            let mut buffer: Vec<i32> = (0..base).map(|_| r.gen_range(-9..=9)).collect();
            let slice = shaped_buffer(shape, &codes, &mut r);
            buffer.extend_from_slice(&slice);
            buffer.extend((0..r.gen_range(0..70)).map(|_| r.gen_range(-9..=9)));
            let mut sums = PrefixSums::new();
            sums.compute(&buffer);
            let scanner = bank.scanner_in(&buffer[base..base + slice.len()], &sums, base);
            let count = slice.len() - n + 1;
            let mut block = vec![0.0; count * 3];
            scanner.correlate_block(0, count, &mut block);
            for o in 0..count {
                for (ci, code) in codes.iter().enumerate() {
                    let want = reference::correlate_window(&slice[o..o + n], code).to_bits();
                    prop_assert_eq!(block[o * 3 + ci].to_bits(), want, "base={} o={}", base, o);
                    prop_assert_eq!(scanner.correlate_one(o, ci).to_bits(), want);
                }
            }
        }
    }

    /// A buffer of `2N + extra` chips in one of five shapes: 0 all zero,
    /// 1 constant, 2 `i32::MIN`/`i32::MAX` extremes, 3 a clean frame,
    /// 4 a frame under bit-aligned same-code jam at amplitude 2 or 3.
    fn shaped_buffer(shape: usize, codes: &[SpreadCode], r: &mut rand::rngs::StdRng) -> Vec<i32> {
        use crate::spread::spread;
        let n = codes[0].len();
        let len = 2 * n + r.gen_range(0usize..40);
        match shape {
            0 => vec![0; len],
            1 => vec![r.gen_range(-7..=7); len],
            2 => (0..len)
                .map(|_| if r.gen() { i32::MIN } else { i32::MAX })
                .collect(),
            _ => {
                let lead = r.gen_range(0..n);
                let msg: Vec<bool> = (0..2).map(|_| r.gen()).collect();
                let code = &codes[r.gen_range(0..codes.len())];
                let mut samples = vec![0i32; len];
                for (dst, src) in samples[lead..]
                    .iter_mut()
                    .zip(spread(&msg, code).to_levels())
                {
                    *dst += src;
                }
                if shape == 4 {
                    let amp = r.gen_range(2..=3);
                    let garbage: Vec<bool> = (0..2).map(|_| r.gen()).collect();
                    let jam = spread(&garbage, code).to_levels();
                    for (dst, src) in samples[lead..].iter_mut().zip(jam) {
                        *dst += amp * src;
                    }
                }
                samples
            }
        }
    }
}
