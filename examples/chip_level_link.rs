//! The D-NDP handshake on real chips: watch the four messages travel as
//! ±1 chip streams through ECC, spreading, a shared medium with a jammer,
//! sliding-window synchronization, and de-spreading.
//!
//! ```text
//! cargo run --release --example chip_level_link
//! ```

use jr_snd::core::chiplink::{run_link, ChipJammer, LinkOptions, LinkPools, LinkSpec, Stage};
use jr_snd::core::params::Params;
use jr_snd::crypto::ibc::Authority;
use jr_snd::dsss::code::SpreadCode;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // Chip-level runs use shorter codes than the paper's N = 512 so the
    // example is instant; tau scales accordingly (see chiplink docs).
    let mut params = Params::table1();
    params.n_chips = 256;
    params.tau = 0.30;

    let mut rng = StdRng::seed_from_u64(2011);
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
    let authority = Authority::from_seed(b"chip-level-example");

    println!(
        "chip-level D-NDP handshake (N = {} chips, tau = {})",
        params.n_chips, params.tau
    );
    println!(
        "A holds {} codes, B holds {} codes, exactly one is shared\n",
        a_codes.len(),
        b_codes.len()
    );

    // One set of pools (ECC codec, session-code cache, staging buffers)
    // serves every run; pools change work, never outcomes.
    let mut pools = LinkPools::new(&params);
    let mut run = |label: &str, jammer: Option<&ChipJammer>, seed: u64| {
        let spec = LinkSpec {
            a_codes: &a_codes,
            b_codes: &b_codes,
            shared_a: 1,
            shared_b: 1,
            jammer,
            seed,
        };
        let report = run_link(
            &params,
            &authority,
            &spec,
            &LinkOptions::default(),
            &mut pools,
        )
        .report;
        println!(
            "{label:<46} stage: {:?}, discovered: {}, scan cost: {} correlations",
            report.stage, report.discovered, report.scan_correlations
        );
        report
    };

    let clean = run("1. clean channel", None, 1);
    assert_eq!(clean.stage, Stage::Complete);

    let wrong = ChipJammer::from_start(SpreadCode::random(params.n_chips, &mut rng), 1.0, 1);
    run("2. jammer, wrong code, full coverage", Some(&wrong), 2);

    let partial = ChipJammer::from_start(shared.clone(), 0.20, 1);
    run(
        "3. jammer, CORRECT code, 20% of each message",
        Some(&partial),
        3,
    );

    let full = ChipJammer::from_start(shared.clone(), 1.0, 3);
    run("4. jammer, CORRECT code, full coverage", Some(&full), 4);

    let intelligent = ChipJammer {
        code: shared,
        fraction: 1.0,
        amplitude: 3,
        first_message: 1, // spare the HELLO, kill everything after
    };
    run(
        "5. intelligent attack: spare HELLO, jam the rest",
        Some(&intelligent),
        5,
    );

    println!("\nwhat happened:");
    println!("  2. without the secret code the jammer is just background noise;");
    println!("  3. the (1+mu)-expansion Reed-Solomon coding absorbs sub-threshold jamming");
    println!("     (the paper's mu/(1+mu) bound in action);");
    println!("  4. only knowing the code AND covering most of the message kills the link —");
    println!("     which is why compromised codes are what matters, and why JR-SND");
    println!("     bounds how many nodes share each one.");
}
