//! Counting-allocator proofs that the chip-level hot paths are
//! allocation-free once warm.
//!
//! * The engine's shared-pass scan machinery: rendering a chunk of HELLO
//!   windows, computing the one shared prefix-sum and bit-plane pass,
//!   re-pointing the pooled per-session bank, and running the full
//!   sliding-window scan + frame decode + ECC decode. One session's HELLO
//!   is under same-code jam at amplitude 3, so the chunk needs four bit
//!   planes (not the clean medium's two) and the scan runs its
//!   trigger/refinement path on every jammed bit.
//! * The exchange datapath every CONFIRM/AUTH message takes: ECC encode,
//!   spreading into recycled chip storage under a same-code tail jam,
//!   chip-domain despreading into a pooled frame, retiring the window, and
//!   ECC decode.
//! * The packed wire encode/parse path.
//!
//! Endpoint frames (nonces, CONFIRM/AUTH payloads) and key issuance are
//! deliberately out of scope — they are fresh per handshake by design;
//! these pin down the per-message machinery the batch engine pools per
//! shard in its `LinkPools`.

#[path = "../../../tests/support/alloc_count.rs"]
mod alloc_count;

use alloc_count::count_allocs;
use jrsnd::messages::{FrameCodec, WireConfig};
use jrsnd::params::Params;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::correlate::{MultiCorrelator, PrefixSums};
use jrsnd_dsss::spread::{despread_from_channel_into, spread};
use jrsnd_dsss::sync::{decode_frame_into, scan_from_with, Frame, ScanScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The chip-level calibration of the session benchmarks: `tau` rescaled
/// for `n`-chip codes.
fn chip_params(n: usize) -> Params {
    let mut params = Params::table1();
    params.n_chips = n;
    params.tau = 0.30;
    params
}

/// The pooled scratch both chip-level proofs warm up and then reuse —
/// the buffers the engine holds per shard in its `LinkPools`, plus the
/// re-pointed session bank.
struct Scratch<'p> {
    codec: FrameCodec,
    /// ECC-coded bits of the message on the air.
    coded: Vec<bool>,
    /// Jam bits.
    garbage: Vec<bool>,
    frame: Frame,
    decoded: Vec<bool>,
    render: Vec<i32>,
    prefix: PrefixSums,
    scan: ScanScratch,
    session_bank: MultiCorrelator<'p>,
}

impl Scratch<'_> {
    fn new(params: &Params) -> Self {
        Scratch {
            codec: FrameCodec::new(params.mu).expect("mu validated"),
            coded: Vec::new(),
            garbage: Vec::new(),
            frame: Frame {
                bits: Vec::new(),
                erased: Vec::new(),
            },
            decoded: Vec::new(),
            render: Vec::new(),
            prefix: PrefixSums::new(),
            scan: ScanScratch::new(),
            session_bank: MultiCorrelator::new(&[]),
        }
    }
}

/// Three sessions' HELLO broadcasts on one shared medium, and the
/// receivers that scan it.
struct Chunk<'p> {
    channel: ChipChannel,
    len: usize,
    tau: f64,
    hello_coded_len: usize,
    hello_bits_len: usize,
    /// (A's pool indices, B's pool indices, B's shared index) per session.
    sessions: [(&'static [usize], &'static [usize], usize); 3],
    /// (offset, span) of each session's window in the chunk.
    windows: Vec<(usize, usize)>,
    pool_bank: MultiCorrelator<'p>,
}

/// One full shared-pass scan over the chunk: ONE render and ONE
/// prefix-sum and bit-plane pass serve every receiver. Returns how many
/// receivers recovered their HELLO.
fn shared_pass<'p>(chunk: &Chunk<'p>, s: &mut Scratch<'p>) -> usize {
    chunk.channel.render_into(&mut s.render, 0, chunk.len);
    s.prefix.compute(&s.render);
    let n = chunk.pool_bank.code_len();
    let mut hits = 0usize;
    for (si, (_, b_idx, shared_b)) in chunk.sessions.iter().enumerate() {
        let (rel, span) = chunk.windows[si];
        s.session_bank.assign_from_pool(&chunk.pool_bank, b_idx);
        let mut scanner = s
            .session_bank
            .scanner_in(&s.render[rel..rel + span], &s.prefix, rel);
        let mut pos = 0usize;
        while pos + n <= span {
            let Some(h) = scan_from_with(&mut scanner, pos, chunk.tau, &mut s.scan) else {
                break;
            };
            let code = scanner.bank().codes()[h.code_index];
            let ok = decode_frame_into(
                scanner.samples(),
                h.offset,
                code,
                chunk.hello_coded_len,
                chunk.tau,
                &mut s.frame,
            ) && s
                .codec
                .decode_into(
                    &s.frame.bits,
                    &s.frame.erased,
                    chunk.hello_bits_len,
                    &mut s.decoded,
                )
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

#[test]
fn warm_shared_scan_pass_makes_zero_allocations() {
    let params = chip_params(256);
    let n = params.n_chips;
    let wire = WireConfig::from_params(&params);
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let pool: Vec<SpreadCode> = (0..6).map(|_| SpreadCode::random(n, &mut rng)).collect();
    let pool_refs: Vec<&SpreadCode> = pool.iter().collect();

    // Session 0 spreads with code 4 under a same-code jammer; its
    // receiver listens with {4,5} for code 5, which nobody sends, so it
    // scans the whole jammed window and never stops early. Session 1
    // spreads with codes {0,1}, session 2 with {2,3}; their receivers
    // listen with banks {1,4} and {3,5} (code 1 / code 3 shared) and must
    // recover their HELLOs.
    let mut scratch = Scratch::new(&params);
    let hello_bits: Vec<bool> = (0..wire.hello_bits()).map(|i| i % 3 != 0).collect();
    let mut hello_coded = Vec::new();
    scratch
        .codec
        .encode_into(&hello_bits, &mut hello_coded)
        .unwrap();
    let msg_chips = hello_coded.len() * n;
    let mut chunk = Chunk {
        channel: ChipChannel::new(1),
        len: 0,
        tau: params.tau,
        hello_coded_len: hello_coded.len(),
        hello_bits_len: hello_bits.len(),
        sessions: [
            (&[4], &[4, 5], 1),
            (&[0, 1], &[1, 4], 0),
            (&[2, 3], &[3, 5], 0),
        ],
        windows: Vec::new(),
        pool_bank: MultiCorrelator::new(&pool_refs),
    };
    for (si, (a_idx, _, _)) in chunk.sessions.iter().enumerate() {
        let rel = chunk.len;
        for &k in a_idx.iter() {
            let offset = chunk.len as u64;
            chunk
                .channel
                .transmit(offset, spread(&hello_coded, &pool[k]), 1);
            if si == 0 {
                let garbage: Vec<bool> = (0..hello_coded.len()).map(|_| rng.gen()).collect();
                chunk
                    .channel
                    .transmit(offset, spread(&garbage, &pool[k]), 3);
            }
            chunk.len += msg_chips;
        }
        chunk.windows.push((rel, chunk.len - rel));
    }

    // Warm-up TWICE: the first pass sizes the buffers, the second executes
    // the code paths that only run with warm buffers (e.g. the
    // `dsss.render_buffers_reused` counter call-site lazily registers its
    // handle — an 8-byte one-time allocation — the first time a reused
    // buffer is seen). The decode must actually work.
    for _ in 0..2 {
        assert_eq!(
            shared_pass(&chunk, &mut scratch),
            2,
            "both receivers recover their HELLO"
        );
        assert_eq!(
            scratch.decoded, hello_bits,
            "ECC decode round-trips the frame"
        );
    }

    // Steady state: the identical pass, counted, must not allocate.
    let mut hits = 0;
    let allocs = count_allocs(|| hits = shared_pass(&chunk, &mut scratch));
    assert_eq!(hits, 2, "warm pass reproduces the warm-up verdicts");
    assert_eq!(
        allocs.count, 0,
        "warm shared-pass scan machinery allocated {} times (last size {})",
        allocs.count, allocs.last_size
    );
}

/// One message exchange on `channel` at chip `cursor`, as
/// `Link::exchange` runs it: ECC-encode `msg`, spread it into recycled
/// chip storage, let a same-code jammer at amplitude 2 cover the last
/// fifth with garbage from `rng`, despread in the chip domain into the
/// pooled frame, retire the window, and ECC-decode. Returns the cursor
/// past the window and whether the message came through.
fn exchange_pass(
    channel: &mut ChipChannel,
    cursor: u64,
    code: &SpreadCode,
    msg: &[bool],
    rng: &mut StdRng,
    s: &mut Scratch<'_>,
) -> (u64, bool) {
    let tau = 0.30;
    let n = code.len();
    s.codec.encode_into(msg, &mut s.coded).expect("non-empty");
    let coded_len = s.coded.len();
    channel.transmit_spread(cursor, &s.coded, code, 1);
    let jam_bits = coded_len / 5;
    s.garbage.clear();
    s.garbage.extend((0..jam_bits).map(|_| rng.gen::<bool>()));
    let jam_start = cursor + ((coded_len - jam_bits) * n) as u64;
    channel.transmit_spread(jam_start, &s.garbage, code, 2);
    despread_from_channel_into(channel, cursor, code, coded_len, tau, &mut s.frame);
    let end = cursor + (coded_len * n) as u64;
    channel.retire_before(end);
    let ok = s
        .codec
        .decode_into(&s.frame.bits, &s.frame.erased, msg.len(), &mut s.decoded)
        .is_ok()
        && s.decoded == msg;
    (end, ok)
}

/// The exchange path — `FrameCodec::encode_into`,
/// `ChipChannel::transmit_spread` (message plus a same-code tail jam),
/// `despread_from_channel_into`, `ChipChannel::retire_before` and
/// `FrameCodec::decode_into` — is allocation-free once warm, both when
/// the code length is a multiple of 64 (every bit's chips land on word
/// boundaries) and when it is not (shifted word ORs and unaligned word
/// reads throughout).
#[test]
fn warm_exchange_datapath_makes_zero_allocations() {
    for n in [256usize, 100] {
        let params = chip_params(n);
        let wire = WireConfig::from_params(&params);
        let mut rng = StdRng::seed_from_u64(0xE8C4 ^ n as u64);
        let code = SpreadCode::random(n, &mut rng);
        let msg: Vec<bool> = (0..wire.auth_bits()).map(|_| rng.gen()).collect();
        let mut scratch = Scratch::new(&params);
        let mut channel = ChipChannel::new(7);
        let mut cursor = 0u64;

        // Warm twice: the first pass allocates the chip storage and frame
        // planes; the second reuses storage that held the other
        // transmission's (shorter or longer) sequence, and registers the
        // lazy metric handles.
        for _ in 0..2 {
            let (end, ok) =
                exchange_pass(&mut channel, cursor, &code, &msg, &mut rng, &mut scratch);
            assert!(ok, "n = {n}: the tail jam stays within the ECC budget");
            cursor = end;
        }

        let mut ok = false;
        let allocs = count_allocs(|| {
            let (end, got) =
                exchange_pass(&mut channel, cursor, &code, &msg, &mut rng, &mut scratch);
            cursor = end;
            ok = got;
        });
        assert!(ok, "n = {n}: warm pass decodes the message");
        assert_eq!(channel.transmission_count(), 0, "the window was retired");
        assert_eq!(
            allocs.count, 0,
            "n = {n}: warm exchange datapath allocated {} times (last size {})",
            allocs.count, allocs.last_size
        );
    }
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
