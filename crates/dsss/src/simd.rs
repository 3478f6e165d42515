//! Runtime-dispatched inner loop of the chip-medium render kernel.
//!
//! The hot loop here has exactly one generic body, compiled up to three
//! times behind `#[target_feature]` (baseline, SSE4.1, AVX2). Dispatch
//! happens per call on the process-wide [`jrsnd_sim::simd::active`] level,
//! so a binary built for the portable baseline still runs the wide kernels
//! on a capable CPU — the committed `-C target-cpu=native` flag is a local
//! optimisation, no longer a correctness-of-throughput requirement.
//!
//! All three compilations of the body are bit-identical: the loop is pure
//! integer arithmetic (XOR sign-select and adds), with no floating-point
//! reassociation for the vectorizer to exploit. The `*_at` entry point
//! exposes the per-level variants so the kernel-equivalence suite can
//! assert that on the running host.
//!
//! Safety: `#[target_feature]` functions are unsafe to call from
//! un-attributed code; every `unsafe` block below is guarded by the
//! [`SimdLevel`] match, and [`jrsnd_sim::simd::active`] never returns a
//! level above [`jrsnd_sim::simd::detected`].
#![allow(unsafe_code)]

use crate::chip::ChipSeq;
pub use jrsnd_sim::simd::{active, detected, SimdLevel};

/// Superposes `out.len()` chips of `chips` (starting at chip `rel`) onto
/// `out` at amplitude `amp` — the per-transmission inner loop of
/// [`crate::channel::ChipChannel`] rendering. `e = 0` for a +1 chip and
/// `−1` for a −1 chip, so `(amp ^ e) − e` is ±amp branch-free.
#[inline(always)]
fn add_levels_body(out: &mut [i32], chips: &ChipSeq, mut rel: usize, amp: i32) {
    let mut oi = 0usize;
    let mut remaining = out.len();
    while remaining >= 64 {
        let w = chips.word_at(rel);
        for (k, slot) in out[oi..oi + 64].iter_mut().enumerate() {
            let e = (((w >> k) & 1) as i32).wrapping_sub(1);
            *slot += (amp ^ e) - e;
        }
        rel += 64;
        oi += 64;
        remaining -= 64;
    }
    if remaining > 0 {
        let w = chips.word_at(rel);
        for (k, slot) in out[oi..oi + remaining].iter_mut().enumerate() {
            let e = (((w >> k) & 1) as i32).wrapping_sub(1);
            *slot += (amp ^ e) - e;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn add_levels_avx2(out: &mut [i32], chips: &ChipSeq, rel: usize, amp: i32) {
    add_levels_body(out, chips, rel, amp)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
fn add_levels_sse41(out: &mut [i32], chips: &ChipSeq, rel: usize, amp: i32) {
    add_levels_body(out, chips, rel, amp)
}

/// [`add_levels_body`] compiled for an explicit `level`, clamped to the
/// host's capability. Exposed for the kernel-equivalence tests.
#[inline]
pub fn add_levels_at(level: SimdLevel, out: &mut [i32], chips: &ChipSeq, rel: usize, amp: i32) {
    #[cfg(target_arch = "x86_64")]
    {
        let level = level.min(detected());
        match level {
            // SAFETY: `level` is clamped to `detected()`, so the required
            // feature is present on this CPU.
            SimdLevel::Avx2 => return unsafe { add_levels_avx2(out, chips, rel, amp) },
            SimdLevel::Sse41 => return unsafe { add_levels_sse41(out, chips, rel, amp) },
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    add_levels_body(out, chips, rel, amp)
}

/// The dispatched transmission-add at the process-wide active level.
#[inline]
pub(crate) fn add_levels(out: &mut [i32], chips: &ChipSeq, rel: usize, amp: i32) {
    add_levels_at(active(), out, chips, rel, amp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrsnd_sim::simd::levels_up_to;
    use rand::{Rng, SeedableRng};

    #[test]
    fn every_runnable_level_agrees_on_add_levels() {
        let mut r = rand::rngs::StdRng::seed_from_u64(12);
        let bits: Vec<bool> = (0..300).map(|_| r.gen()).collect();
        let chips = ChipSeq::from_bits(&bits);
        for (len, rel, amp) in [
            (1usize, 0usize, 1i32),
            (64, 3, -2),
            (200, 64, 3),
            (299, 1, 7),
        ] {
            let base: Vec<i32> = (0..len).map(|_| r.gen_range(-100..=100)).collect();
            let mut want = base.clone();
            add_levels_body(&mut want, &chips, rel, amp);
            for &level in levels_up_to(detected()) {
                let mut got = base.clone();
                add_levels_at(level, &mut got, &chips, rel, amp);
                assert_eq!(got, want, "{level:?} len={len} rel={rel}");
            }
        }
    }
}
