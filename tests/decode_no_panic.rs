//! "Arbitrary bytes never panic": every decoder reachable from the radio
//! is fed adversarial bit/byte buffers and must return a typed error —
//! never unwind. This is the contract behind the `DecodeError` taxonomy
//! (see `jrsnd::decode`): a jammer or fault injector controls every bit
//! a receiver parses, so a panicking parser is a remote crash.
//!
//! Case count defaults to a CI-friendly 64 per property; the nightly job
//! raises it via the `PROPTEST_CASES` environment variable.

use jr_snd::core::handshake::{Initiator, Responder};
use jr_snd::core::messages::{BitReader, FrameCodec, WireConfig};
use jr_snd::core::mndp::{closing_hello_heard, closing_hello_heard_coded};
use jr_snd::core::params::Params;
use jr_snd::core::wire::WireFormat;
use jr_snd::crypto::ibc::{Authority, NodeId};
use jr_snd::crypto::nonce::Nonce;
use jr_snd::crypto::session::{try_derive_session_code, SessionCodeCache};
use jr_snd::dsss::code::{CodeId, SpreadCode};
use jr_snd::ecc::expand::ExpansionCode;
use jr_snd::sim::rng::SimRng;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;

/// Per-property case budget: 64 by default, raised on the nightly CI run
/// through `PROPTEST_CASES`.
fn cases() -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    ProptestConfig::with_cases(n)
}

fn wire() -> WireConfig {
    WireConfig::from_params(&Params::table1())
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn wire_parsers_never_panic(bits in vec(any::<bool>(), 0..400)) {
        let w = wire();
        let _ = w.decode_hello(&bits);
        let _ = w.decode_auth(&bits);
        let _ = w.decode_request(&bits);
        let _ = w.decode_response(&bits);
        let mut r = BitReader::new(&bits);
        let _ = w.decode_signature(&mut r);
    }

    #[test]
    fn bit_reader_never_panics(bits in vec(any::<bool>(), 0..128), width in 0usize..80) {
        let mut r = BitReader::new(&bits);
        let _ = r.read(width);
        let _ = r.read_bits(width);
    }

    #[test]
    fn ecc_decode_never_panics(
        coded in vec(any::<bool>(), 0..600),
        erased in vec(any::<bool>(), 0..600),
        msg_bits in 0usize..300,
        mu_tenths in 0u32..40,
    ) {
        // Valid and invalid mu alike: ExpansionCode::new must reject bad
        // expansion factors, and a constructed code must reject
        // mismatched buffers without unwinding.
        let mu = f64::from(mu_tenths) / 10.0;
        if let Ok(code) = ExpansionCode::new(mu) {
            let _ = code.decode_bits(&coded, &erased, msg_bits);
            let mut codec = FrameCodec::new(mu).unwrap();
            let mut out = Vec::new();
            let _ = codec.decode_into(&coded, &erased, msg_bits, &mut out);
        }
    }

    #[test]
    fn handshake_state_machines_never_panic(
        frame1 in vec(any::<bool>(), 0..300),
        frame2 in vec(any::<bool>(), 0..300),
        seed in 0u64..1_000,
    ) {
        let authority = Authority::from_seed(b"decode-no-panic");
        let w = wire();
        let mut rng = SimRng::seed_from_u64(seed);
        let legacy = WireFormat::Legacy;
        let mut cache = SessionCodeCache::new(8);
        let mut a = Initiator::new_with_format(authority.issue(NodeId(1)), w, legacy, 64, &mut rng);
        let mut b =
            Responder::new_with_format(authority.issue(NodeId(2)), w, legacy, 64, 8, &mut rng);
        // Feed garbage at every state the machines can reach: the typed
        // HandshakeError path must absorb it all.
        let _ = a.on_confirm(&frame1, CodeId(3));
        let _ = a.on_auth_b_cached(&frame2, &mut cache);
        let _ = b.on_hello(&frame1, CodeId(3));
        let _ = b.on_auth_a_cached(&frame2, &mut cache);
        // And again after a real HELLO moved the responder forward.
        let mut a2 =
            Initiator::new_with_format(authority.issue(NodeId(1)), w, legacy, 64, &mut rng);
        let mut b2 =
            Responder::new_with_format(authority.issue(NodeId(2)), w, legacy, 64, 8, &mut rng);
        if let Ok(confirm) = b2.on_hello(&a2.hello_frame(), CodeId(3)) {
            let _ = a2.on_confirm(&frame1, CodeId(3));
            let _ = b2.on_auth_a_cached(&frame2, &mut cache);
            let _ = a2.on_confirm(&confirm, CodeId(3));
            let _ = b2.on_auth_a_cached(&frame1, &mut cache);
        }
    }

    #[test]
    fn session_code_derivation_never_panics(n_chips in 0usize..2_000, seed in 0u64..1_000) {
        let authority = Authority::from_seed(b"decode-no-panic");
        let key = authority.shared_key(NodeId(1), NodeId(2));
        let mut rng = SimRng::seed_from_u64(seed);
        let n_a = Nonce::random(&mut rng, 32);
        let n_b = Nonce::random(&mut rng, 32);
        let derived = try_derive_session_code(&key, n_a, n_b, n_chips);
        prop_assert_eq!(derived.is_err(), n_chips == 0);
    }

    #[test]
    fn mndp_closing_helpers_never_panic(
        hello_len in 0usize..40,
        n_chips in 1usize..96,
        mismatched in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let hello: Vec<bool> = (0..hello_len).map(|i| i % 3 == 0).collect();
        let session = SpreadCode::random(n_chips, &mut rng);
        let cand_len = if mismatched { n_chips + 1 } else { n_chips };
        let c0 = SpreadCode::random(cand_len, &mut rng);
        let c1 = SpreadCode::random(cand_len, &mut rng);
        let candidates: Vec<&SpreadCode> = vec![&c0, &c1];
        let r = closing_hello_heard(&hello, &session, &candidates, None, 0.0, seed, 0.5);
        let mut codec = FrameCodec::new(Params::table1().mu).unwrap();
        let rc = closing_hello_heard_coded(
            &hello, &session, &candidates, None, 0.0, seed, 0.5, &mut codec,
        );
        // Degenerate inputs must surface as typed errors, not panics.
        if hello_len == 0 || mismatched {
            prop_assert!(r.is_err());
            prop_assert!(rc.is_err());
        }
    }

    #[test]
    fn packed_wire_parsers_never_panic(bits in vec(any::<bool>(), 0..600)) {
        // The packed TLV parsers see whatever the despreader produced —
        // every bit is attacker-controlled, so arbitrary streams must come
        // back as typed WireError values, never unwind.
        let w = wire();
        let _ = jr_snd::core::wire::parse_hello_bools(&w, &bits);
        let _ = jr_snd::core::wire::parse_auth_bools(&w, &bits);
        let _ = jr_snd::core::wire::parse_request_bools(&w, &bits);
        let _ = jr_snd::core::wire::parse_response_bools(&w, &bits);
    }

    #[test]
    fn packed_wire_bytes_never_panic(bytes in vec(any::<u8>(), 0..80), extra in 0usize..16) {
        // Byte-level entry: a hostile length claim larger than the buffer
        // must be rejected by from_bytes; an in-range one must parse or
        // error cleanly through a raw cursor.
        use jr_snd::core::wire::{BitCursor, PackedBits};
        let w = wire();
        let claimed = bytes.len() * 8 + extra;
        if let Ok(p) = PackedBits::from_bytes(&bytes, claimed) {
            let _ = jr_snd::core::wire::parse_hello(&w, &mut BitCursor::new(&p));
            let _ = jr_snd::core::wire::parse_auth(&w, &mut BitCursor::new(&p));
            let _ = jr_snd::core::wire::parse_request(&w, &mut BitCursor::new(&p));
            let _ = jr_snd::core::wire::parse_response(&w, &mut BitCursor::new(&p));
        }
    }

    #[test]
    fn corrupted_packed_frames_never_panic(
        flip in 0usize..100,
        truncate in 0usize..100,
        id in 0u32..0x1_0000,
    ) {
        // Start from a VALID packed frame, then jam it: flip one bit and
        // truncate the tail. Parsers must reject or reinterpret, never
        // panic — and a clean frame must still round-trip.
        use jr_snd::core::messages::MessageKind;
        use jr_snd::core::wire::{parse_hello_bools, hello_frame_bools};
        let w = wire();
        let clean = hello_frame_bools(&w, MessageKind::Hello, NodeId(id)).unwrap();
        prop_assert_eq!(
            parse_hello_bools(&w, &clean).unwrap(),
            (MessageKind::Hello, NodeId(id))
        );
        let mut jammed = clean.clone();
        let i = flip % jammed.len();
        jammed[i] = !jammed[i];
        jammed.truncate(truncate % (jammed.len() + 1));
        let _ = parse_hello_bools(&w, &jammed);
    }
}
