//! Counting-allocator proof that the engine's shared-pass scan machinery
//! is allocation-free once warm: rendering a chunk of HELLO windows,
//! computing the one shared prefix-sum and bit-plane pass, re-pointing the
//! pooled per-session bank, and running the full sliding-window scan +
//! frame decode + ECC decode touches the heap **zero** times in steady
//! state. One session's HELLO is under same-code jam at amplitude 3, so
//! the chunk needs four bit planes (not the clean medium's two) and the
//! scan runs its trigger/refinement path on every jammed bit.
//!
//! Endpoint frames (nonces, CONFIRM/AUTH payloads) are deliberately out of
//! scope — they are fresh per handshake by design; this pins down the hot
//! per-tick machinery the batch engine pools per shard.

#[path = "../../../tests/support/alloc_count.rs"]
mod alloc_count;

use alloc_count::count_allocs;
use jrsnd::messages::{FrameCodec, WireConfig};
use jrsnd::params::Params;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::correlate::{MultiCorrelator, PrefixSums};
use jrsnd_dsss::spread::spread;
use jrsnd_dsss::sync::{decode_frame_into, scan_from_with, Frame, ScanScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn warm_shared_scan_pass_makes_zero_allocations() {
    let mut params = Params::table1();
    params.n_chips = 256;
    params.tau = 0.30;
    let n = params.n_chips;
    let wire = WireConfig::from_params(&params);
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let pool: Vec<SpreadCode> = (0..6).map(|_| SpreadCode::random(n, &mut rng)).collect();
    let pool_refs: Vec<&SpreadCode> = pool.iter().collect();
    let pool_bank = MultiCorrelator::new(&pool_refs);

    // Three sessions' HELLO broadcasts on one shared medium. Session 0
    // spreads with code 4 under a same-code jammer; its receiver listens
    // with {4,5} for code 5, which nobody sends, so it scans the whole
    // jammed window and never stops early. Session 1 spreads with codes
    // {0,1}, session 2 with {2,3}; their receivers listen with banks {1,4}
    // and {3,5} (code 1 / code 3 shared) and must recover their HELLOs.
    let mut codec = FrameCodec::new(params.mu).expect("mu validated");
    let hello_bits: Vec<bool> = (0..wire.hello_bits()).map(|i| i % 3 != 0).collect();
    let mut hello_coded = Vec::new();
    codec.encode_into(&hello_bits, &mut hello_coded).unwrap();
    let msg_chips = hello_coded.len() * n;
    let mut channel = ChipChannel::new(1);
    let sessions: [(&[usize], &[usize], usize); 3] = [
        (&[4], &[4, 5], 1),
        (&[0, 1], &[1, 4], 0),
        (&[2, 3], &[3, 5], 0),
    ];
    let mut offset = 0u64;
    let mut windows: Vec<(usize, usize)> = Vec::new(); // (rel, span) per session
    for (si, (a_idx, _, _)) in sessions.iter().enumerate() {
        let rel = offset as usize;
        for &k in a_idx.iter() {
            channel.transmit(offset, spread(&hello_coded, &pool[k]), 1);
            if si == 0 {
                let garbage: Vec<bool> = (0..hello_coded.len()).map(|_| rng.gen()).collect();
                channel.transmit(offset, spread(&garbage, &pool[k]), 3);
            }
            offset += msg_chips as u64;
        }
        windows.push((rel, offset as usize - rel));
    }
    let chunk_len = offset as usize;

    // Pooled scratch: the render, prefix-sum, frame, scan, and decode
    // buffers the engine holds per shard in its `LinkPools`, plus the
    // re-pointed session bank.
    let mut chunk_buf: Vec<i32> = Vec::new();
    let mut prefix = PrefixSums::new();
    let mut session_bank = MultiCorrelator::new(&[]);
    let mut frame = Frame {
        bits: Vec::new(),
        erased: Vec::new(),
    };
    let mut scan_scratch = ScanScratch::new();
    let mut decoded: Vec<bool> = Vec::new();

    /// One full shared-pass scan over the chunk: ONE render and ONE
    /// prefix-sum and bit-plane pass serve every receiver.
    #[allow(clippy::too_many_arguments)]
    fn shared_pass<'p>(
        channel: &ChipChannel,
        chunk_len: usize,
        n: usize,
        tau: f64,
        hello_coded_len: usize,
        hello_bits_len: usize,
        sessions: &[(&[usize], &[usize], usize)],
        windows: &[(usize, usize)],
        pool_bank: &MultiCorrelator<'p>,
        chunk_buf: &mut Vec<i32>,
        prefix: &mut PrefixSums,
        session_bank: &mut MultiCorrelator<'p>,
        frame: &mut Frame,
        scan_scratch: &mut ScanScratch,
        decoded: &mut Vec<bool>,
        codec: &mut FrameCodec,
    ) -> usize {
        channel.render_into(chunk_buf, 0, chunk_len);
        prefix.compute(chunk_buf);
        let mut hits = 0usize;
        for (si, (_, b_idx, shared_b)) in sessions.iter().enumerate() {
            let (rel, span) = windows[si];
            session_bank.assign_from_pool(pool_bank, b_idx);
            let mut scanner = session_bank.scanner_in(&chunk_buf[rel..rel + span], prefix, rel);
            let mut pos = 0usize;
            while pos + n <= span {
                let Some(h) = scan_from_with(&mut scanner, pos, tau, scan_scratch) else {
                    break;
                };
                let code = scanner.bank().codes()[h.code_index];
                let ok = decode_frame_into(
                    scanner.samples(),
                    h.offset,
                    code,
                    hello_coded_len,
                    tau,
                    frame,
                ) && codec
                    .decode_into(&frame.bits, &frame.erased, hello_bits_len, decoded)
                    .is_ok();
                if ok && h.code_index == *shared_b {
                    hits += 1;
                    break;
                }
                pos = h.offset + n;
            }
        }
        hits
    }

    // Warm-up TWICE: the first pass sizes the buffers, the second executes
    // the code paths that only run with warm buffers (e.g. the
    // `dsss.render_buffers_reused` counter call-site lazily registers its
    // handle — an 8-byte one-time allocation — the first time a reused
    // buffer is seen). The decode must actually work.
    for _ in 0..2 {
        let warm_hits = shared_pass(
            &channel,
            chunk_len,
            n,
            params.tau,
            hello_coded.len(),
            hello_bits.len(),
            &sessions,
            &windows,
            &pool_bank,
            &mut chunk_buf,
            &mut prefix,
            &mut session_bank,
            &mut frame,
            &mut scan_scratch,
            &mut decoded,
            &mut codec,
        );
        assert_eq!(warm_hits, 2, "both receivers recover their HELLO");
        assert_eq!(decoded, hello_bits, "ECC decode round-trips the frame");
    }

    // Steady state: the identical pass, counted, must not allocate.
    let mut hits = 0;
    let allocs = count_allocs(|| {
        hits = shared_pass(
            &channel,
            chunk_len,
            n,
            params.tau,
            hello_coded.len(),
            hello_bits.len(),
            &sessions,
            &windows,
            &pool_bank,
            &mut chunk_buf,
            &mut prefix,
            &mut session_bank,
            &mut frame,
            &mut scan_scratch,
            &mut decoded,
            &mut codec,
        );
    });
    assert_eq!(hits, 2, "warm pass reproduces the warm-up verdicts");
    assert_eq!(
        allocs.count, 0,
        "warm shared-pass scan machinery allocated {} times (last size {})",
        allocs.count, allocs.last_size
    );
}

/// The packed wire datapath the batch engine runs per session — pooled
/// TLV encode ([`FrameCodec::hello_packed`]), ECC encode, and the
/// stack-buffer parsers on the receive side — is allocation-free once the
/// pooled buffers are warm, exactly like the `Vec<bool>` legacy path it
/// replaces.
#[test]
fn warm_packed_wire_datapath_makes_zero_allocations() {
    use jrsnd::messages::MessageKind;
    use jrsnd::wire;
    use jrsnd_crypto::ibc::NodeId;

    let params = Params::table1();
    let w = WireConfig::from_params(&params);
    let mut codec = FrameCodec::new(params.mu).expect("mu validated");
    // Pooled per-shard buffers, as in `BatchEngine::run_shard`.
    let mut hello_frame_buf: Vec<bool> = Vec::new();
    let mut hello_coded: Vec<bool> = Vec::new();
    // Receive-side fixtures built once, cold: the parsers themselves go
    // through a stack frame buffer and must not touch the heap.
    let auth_frame = wire::auth_frame_bools(
        &w,
        NodeId(2),
        jrsnd_crypto::nonce::Nonce::from_value(0xBEEF),
        &{ jrsnd_crypto::mac::AuthTag([0x5A; 32]) },
    )
    .expect("auth frame encodes");

    fn packed_pass(
        w: &WireConfig,
        codec: &mut FrameCodec,
        hello_frame_buf: &mut Vec<bool>,
        hello_coded: &mut Vec<bool>,
        auth_frame: &[bool],
    ) {
        codec
            .hello_packed(w, MessageKind::Hello, NodeId(1), hello_frame_buf)
            .expect("own id fits");
        codec
            .encode_into(hello_frame_buf, hello_coded)
            .expect("non-empty frame");
        let (kind, id) = wire::parse_hello_bools(w, hello_frame_buf).expect("clean frame");
        assert_eq!((kind, id), (MessageKind::Hello, NodeId(1)));
        let (id, nonce, mac) = wire::parse_auth_bools(w, auth_frame).expect("clean frame");
        assert_eq!((id.0, nonce.value()), (2, 0xBEEF));
        assert_eq!(
            mac,
            wire::truncated_tag_value(w, &jrsnd_crypto::mac::AuthTag([0x5A; 32]))
                .expect("l_mac fits u64")
        );
    }

    // Warm twice: first pass sizes the pooled buffers, second hits the
    // lazy metric-handle registrations (`wire.bytes_encoded`,
    // `wire.frames_parsed`, `wire.scratch_reused`) that allocate once.
    for _ in 0..2 {
        packed_pass(
            &w,
            &mut codec,
            &mut hello_frame_buf,
            &mut hello_coded,
            &auth_frame,
        );
    }

    let allocs = count_allocs(|| {
        packed_pass(
            &w,
            &mut codec,
            &mut hello_frame_buf,
            &mut hello_coded,
            &auth_frame,
        );
    });
    assert_eq!(
        allocs.count, 0,
        "warm packed wire datapath allocated {} times (last size {})",
        allocs.count, allocs.last_size
    );
}
