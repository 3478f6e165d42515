//! The observability acceptance check: a quick-scale run must light up
//! counters in at least four layers of the stack (event engine, DSSS
//! chip link, jammer, and the D-NDP/M-NDP protocols), and the snapshot
//! must round-trip those values through its JSON form.

use jrsnd::montecarlo::run_many;
use jrsnd::network::ExperimentConfig;
use jrsnd_sim::engine::{Control, Engine};
use jrsnd_sim::metrics;
use jrsnd_sim::time::SimTime;

#[test]
fn quick_run_populates_at_least_four_layers() {
    // Protocol layers: a tiny Monte-Carlo batch drives D-NDP, M-NDP,
    // the probability-level jammer, and the network driver.
    let mut cfg = ExperimentConfig::paper_default();
    cfg.params.n = 150;
    cfg.params.field_w = 1400.0;
    cfg.params.field_h = 1400.0;
    cfg.params.l = 10;
    cfg.params.m = 30;
    cfg.params.q = 5;
    run_many(&cfg, 2, 11);

    // Radio layer: one chip-level experiment drives dsss.* / chiplink.*
    // and the chip-granular jammer.* metrics.
    jrsnd_bench::chiplevel(17);

    // Engine layer: a minimal discrete-event run.
    let mut engine = Engine::new();
    engine.schedule_at(SimTime::from_secs(1), ());
    engine.run(SimTime::from_secs(2), |_, _, _| Control::Continue);

    // Wire layer: a packed D-NDP handshake (encode + parse), a repeated
    // pooled encode through one FrameCodec (scratch reuse), and a frame
    // carrying an unknown TLV extension (forward-compat skip).
    {
        use jrsnd::handshake::{Initiator, Responder};
        use jrsnd::messages::{FrameCodec, MessageKind, WireConfig};
        use jrsnd::params::Params;
        use jrsnd::wire::{self, WireFormat};
        use jrsnd_crypto::ibc::{Authority, NodeId};
        use jrsnd_crypto::session::SessionCodeCache;
        use jrsnd_dsss::code::CodeId;
        use jrsnd_sim::rng::SimRng;
        use rand::SeedableRng;

        let params = Params::table1();
        let w = WireConfig::from_params(&params);
        let authority = Authority::from_seed(b"metrics-layers");
        let mut rng = SimRng::seed_from_u64(5);
        let mut a = Initiator::new_with_format(
            authority.issue(NodeId(1)),
            w,
            WireFormat::Packed,
            params.n_chips,
            &mut rng,
        );
        let mut b = Responder::new_with_format(
            authority.issue(NodeId(2)),
            w,
            WireFormat::Packed,
            params.n_chips,
            64,
            &mut rng,
        );
        let code = CodeId(7);
        let confirm = b.on_hello(&a.hello_frame(), code).unwrap();
        let auth_a = a.on_confirm(&confirm, code).unwrap();
        let mut cache = SessionCodeCache::new(8);
        let (auth_b, _) = b.on_auth_a_cached(&auth_a, &mut cache).unwrap();
        a.on_auth_b_cached(&auth_b, &mut cache).unwrap();

        let mut codec = FrameCodec::new(params.mu).unwrap();
        let mut buf = Vec::new();
        codec
            .hello_packed(&w, MessageKind::Hello, NodeId(9), &mut buf)
            .unwrap();
        codec
            .hello_packed(&w, MessageKind::Hello, NodeId(9), &mut buf)
            .unwrap();

        let mut extended = wire::PackedBits::new();
        wire::encode_hello(&w, MessageKind::Hello, NodeId(9), &mut extended).unwrap();
        wire::append_extension_varint(&mut extended, 12, 3);
        let (_, id) = wire::parse_hello(&w, &mut wire::BitCursor::new(&extended)).unwrap();
        assert_eq!(id, NodeId(9));
    }

    let snap = metrics::snapshot();
    for counter in [
        "wire.bytes_encoded",
        "wire.frames_parsed",
        "wire.unknown_fields_skipped",
        "wire.scratch_reused",
    ] {
        assert!(
            snap.nonzero_with_prefix(counter).contains(&counter),
            "{counter} should be nonzero after the packed wire exercise"
        );
    }
    let layers = ["engine.", "dsss.", "jammer.", "dndp.", "mndp.", "wire."];
    let active: Vec<&str> = layers
        .iter()
        .copied()
        .filter(|p| !snap.nonzero_with_prefix(p).is_empty())
        .collect();
    assert!(
        active.len() >= 4,
        "expected >= 4 instrumented layers, got {active:?}"
    );

    // Spot-check that the JSON snapshot carries the same numbers the
    // typed accessors report.
    let json = snap.to_json();
    for prefix in &active {
        for name in snap.nonzero_with_prefix(prefix) {
            assert!(json.contains(name), "{name} missing from snapshot JSON");
        }
    }
}
