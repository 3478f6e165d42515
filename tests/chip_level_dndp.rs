//! Chip-level validation of the protocol-level abstraction: the full
//! four-message D-NDP handshake executed through every substrate (wire
//! framing → Reed–Solomon → spreading → shared medium → sliding-window
//! sync → de-spread → ECC decode → IBC authentication → session code),
//! with outcomes matching what the Monte-Carlo model assumes.

use jr_snd::core::chiplink::{
    run_link, ChipJammer, HandshakeReport, LinkOptions, LinkPools, LinkSpec, Stage,
};
use jr_snd::core::params::Params;
use jr_snd::crypto::ibc::Authority;
use jr_snd::dsss::code::SpreadCode;
use rand::{rngs::StdRng, SeedableRng};

fn chip_params() -> Params {
    let mut p = Params::table1();
    p.n_chips = 256;
    p.tau = 0.30; // tau scales ~1/sqrt(N); see chiplink docs
    p
}

struct Setup {
    params: Params,
    authority: Authority,
    shared: SpreadCode,
    a_codes: Vec<SpreadCode>,
    b_codes: Vec<SpreadCode>,
}

impl Setup {
    /// The link between A and B over the shared code at index 1.
    fn link<'a>(&'a self, jammer: Option<&'a ChipJammer>, seed: u64) -> LinkSpec<'a> {
        LinkSpec {
            a_codes: &self.a_codes,
            b_codes: &self.b_codes,
            shared_a: 1,
            shared_b: 1,
            jammer,
            seed,
        }
    }
}

/// One attempt of the single-link driver on a clean channel.
fn handshake(params: &Params, authority: &Authority, spec: LinkSpec<'_>) -> HandshakeReport {
    let mut pools = LinkPools::new(params);
    run_link(
        params,
        authority,
        &spec,
        &LinkOptions::default(),
        &mut pools,
    )
    .report
}

fn setup(seed: u64) -> Setup {
    let params = chip_params();
    let mut rng = StdRng::seed_from_u64(seed);
    let shared = SpreadCode::random(params.n_chips, &mut rng);
    let a_codes = vec![
        SpreadCode::random(params.n_chips, &mut rng),
        shared.clone(),
        SpreadCode::random(params.n_chips, &mut rng),
    ];
    let b_codes = vec![
        SpreadCode::random(params.n_chips, &mut rng),
        shared.clone(),
        SpreadCode::random(params.n_chips, &mut rng),
    ];
    Setup {
        params,
        authority: Authority::from_seed(b"integration"),
        shared,
        a_codes,
        b_codes,
    }
}

#[test]
fn handshake_succeeds_across_many_seeds() {
    let s = setup(1);
    for seed in 0..10 {
        let r = handshake(&s.params, &s.authority, s.link(None, seed));
        assert_eq!(r.stage, Stage::Complete, "seed {seed}");
        assert!(r.discovered);
    }
}

#[test]
fn jamming_outcome_matches_protocol_model() {
    // The Monte-Carlo model assumes: non-compromised code => handshake
    // survives; compromised code + reactive full-coverage jam => fails.
    let s = setup(2);
    let mut rng = StdRng::seed_from_u64(99);

    // "Non-compromised": the jammer holds some OTHER code.
    let unrelated = ChipJammer::from_start(SpreadCode::random(s.params.n_chips, &mut rng), 1.0, 1);
    let mut survived = 0;
    for seed in 0..5 {
        if handshake(
            &s.params,
            &s.authority,
            s.link(Some(&unrelated), 1000 + seed),
        )
        .discovered
        {
            survived += 1;
        }
    }
    assert_eq!(survived, 5, "wrong-code jamming must never win");

    // "Compromised": the jammer knows the shared code and covers the
    // whole message at higher power.
    let knowing = ChipJammer::from_start(s.shared.clone(), 1.0, 3);
    let mut killed = 0;
    for seed in 0..5 {
        if !handshake(&s.params, &s.authority, s.link(Some(&knowing), 2000 + seed)).discovered {
            killed += 1;
        }
    }
    assert_eq!(killed, 5, "correct-code full jamming must always win");
}

#[test]
fn mu_threshold_separates_survivable_from_fatal_jamming() {
    // Below mu/(1+mu) = 50% coverage the ECC recovers; far above it the
    // handshake dies — the bit-level mechanism behind Theorem 1's beta.
    let s = setup(3);
    let below = ChipJammer::from_start(s.shared.clone(), 0.2, 1);
    let r = handshake(&s.params, &s.authority, s.link(Some(&below), 77));
    assert!(
        r.discovered,
        "20% coverage must be absorbed, stage {:?}",
        r.stage
    );

    let above = ChipJammer::from_start(s.shared.clone(), 0.95, 3);
    let r = handshake(&s.params, &s.authority, s.link(Some(&above), 78));
    assert!(!r.discovered, "95% correct-code coverage must be fatal");
}

#[test]
fn gold_codes_support_the_papers_tau_at_full_length() {
    // With pure random codes, tau = 0.15 only holds statistically; a Gold
    // family of period 511 gives a *guaranteed* cross-correlation bound of
    // 33/511 ~ 0.065, so the paper's threshold works deterministically.
    use jr_snd::dsss::gold::GoldFamily;
    let mut params = Params::table1();
    params.n_chips = 511;
    params.tau = 0.15;
    let family = GoldFamily::degree9();
    assert!(family.bound() < params.tau);
    // The shared code leads A's broadcast so the (debug-build) scan cost
    // stays small; B still correlates its whole code set at every offset.
    let a_codes = vec![family.code(20), family.code(10)];
    let b_codes = vec![family.code(40), family.code(20)];
    let authority = Authority::from_seed(b"gold");
    let link = |jammer, seed| LinkSpec {
        a_codes: &a_codes,
        b_codes: &b_codes,
        shared_a: 0,
        shared_b: 1,
        jammer,
        seed,
    };
    let r = handshake(&params, &authority, link(None, 7));
    assert_eq!(
        r.stage,
        Stage::Complete,
        "gold-code handshake at tau = 0.15"
    );
    assert!(r.discovered);
    // And a jammer holding a *different* Gold code still cannot interfere.
    let jammer = ChipJammer::from_start(family.code(99), 1.0, 1);
    let r = handshake(&params, &authority, link(Some(&jammer), 8));
    assert!(r.discovered, "stage {:?}", r.stage);
}

#[test]
fn scan_work_scales_with_code_set_like_lambda_predicts() {
    // The lambda = rho*N*m*R gap exists because scan work is proportional
    // to the number of monitored codes m: measure it.
    let s3 = setup(4);
    let mut rng = StdRng::seed_from_u64(5);
    let mut b_many = s3.b_codes.clone();
    for _ in 0..3 {
        b_many.push(SpreadCode::random(s3.params.n_chips, &mut rng));
    }
    let r3 = handshake(
        &s3.params,
        &s3.authority,
        LinkSpec {
            b_codes: &s3.b_codes,
            ..s3.link(None, 1)
        },
    );
    let r6 = handshake(
        &s3.params,
        &s3.authority,
        LinkSpec {
            b_codes: &b_many,
            ..s3.link(None, 1)
        },
    );
    assert!(r3.discovered && r6.discovered);
    let ratio = r6.scan_correlations as f64 / r3.scan_correlations as f64;
    assert!(
        (1.5..3.0).contains(&ratio),
        "doubling the code set should roughly double scan work; ratio {ratio}"
    );
}
