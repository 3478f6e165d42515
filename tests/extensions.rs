//! Integration tests for the beyond-the-paper extensions: the lifecycle
//! simulation, the multi-antenna trade-off, the ν ≥ 3 approximation, the
//! jammer-strategy space, and PRF-derived pools feeding the chip path.

use jr_snd::core::analysis::{dndp as a_dndp, mndp as a_mndp};
use jr_snd::core::jammer::JammerKind;
use jr_snd::core::montecarlo::run_many;
use jr_snd::core::multiantenna;
use jr_snd::core::network::ExperimentConfig;
use jr_snd::core::params::Params;
use jr_snd::core::predist::derive_code_pool;
use jr_snd::core::timeline::{run_timeline, MobilityModel, TimelineConfig};

fn small_params() -> Params {
    let mut p = Params::table1();
    p.n = 300;
    p.field_w = 1940.0;
    p.field_h = 1940.0;
    p.l = 12;
    p.m = 40;
    p.q = 6;
    p
}

#[test]
fn lifecycle_coverage_beats_single_snapshot_discovery() {
    // The periodic-T loop retries failed pairs every interval, so its
    // steady-state coverage must be at least the one-shot probability.
    let params = small_params();
    let one_shot = run_many(
        &ExperimentConfig {
            params: params.clone(),
            jammer: JammerKind::Reactive,
            dndp: Default::default(),
            resilience: None,
        },
        4,
        5,
    );
    let mut cfg = TimelineConfig::paper_default();
    cfg.params = params;
    cfg.period = 20.0;
    cfg.duration = 200.0;
    cfg.refresh = 10.0;
    cfg.mobility = MobilityModel::Static;
    let m = run_timeline(&cfg, 5);
    let final_cov = m.coverage.last().map(|&(_, c)| c).unwrap_or(0.0);
    assert!(
        final_cov >= one_shot.p_jrsnd.mean() - 0.02,
        "lifecycle {final_cov} vs one-shot {}",
        one_shot.p_jrsnd.mean()
    );
}

#[test]
fn multiantenna_equivalent_m_beats_baseline_in_simulation() {
    // k = 4 antennas let a node carry ~2x the codes at the same latency;
    // the simulated discovery probability must improve accordingly.
    let base = small_params();
    let m_eq = multiantenna::equivalent_m(&base, 4);
    assert!(m_eq > base.m);
    let mut upgraded = base.clone();
    upgraded.m = m_eq;
    let cfg = |p: Params| ExperimentConfig {
        params: p,
        jammer: JammerKind::Reactive,
        dndp: Default::default(),
        resilience: None,
    };
    let before = run_many(&cfg(base.clone()), 4, 9);
    let after = run_many(&cfg(upgraded.clone()), 4, 9);
    assert!(
        after.p_dndp.mean() > before.p_dndp.mean() + 0.05,
        "m {} -> {}: P_D {} -> {}",
        base.m,
        m_eq,
        before.p_dndp.mean(),
        after.p_dndp.mean()
    );
    // ...at (approximately) the single-antenna latency budget.
    let t_upgraded = multiantenna::t_dndp_k(&upgraded, 4);
    let t_baseline = a_dndp::t_dndp(&base);
    assert!((t_upgraded - t_baseline).abs() / t_baseline < 0.06);
}

#[test]
fn nu_approximation_saturation_matches_fig5a_shape() {
    // At P_D = 0.2 the approximation must show: near-zero gain from nu = 1,
    // a big jump to nu = 3-4, saturation after nu ~ 6 — Fig. 5(a)'s shape.
    let g = Params::table1().expected_degree();
    let p2 = a_mndp::p_mndp_multi_hop_approx(0.2, g, 2);
    let p4 = a_mndp::p_mndp_multi_hop_approx(0.2, g, 4);
    let p6 = a_mndp::p_mndp_multi_hop_approx(0.2, g, 6);
    let p8 = a_mndp::p_mndp_multi_hop_approx(0.2, g, 8);
    assert!(p4 - p2 > 0.2, "main gain arrives by nu = 4: {p2} -> {p4}");
    assert!(p8 - p6 < 0.02, "saturated past nu = 6: {p6} -> {p8}");
}

#[test]
fn jammer_strategy_ordering_holds_in_simulation() {
    // none >= pulsed(0.5) >= reactive, and sweep ~ random in the long run.
    let params = small_params();
    let run = |kind: JammerKind| {
        run_many(
            &ExperimentConfig {
                params: params.clone(),
                jammer: kind,
                dndp: Default::default(),
                resilience: None,
            },
            4,
            21,
        )
        .p_dndp
        .mean()
    };
    let none = run(JammerKind::None);
    let pulsed = run(JammerKind::Pulsed { duty: 0.5 });
    let reactive = run(JammerKind::Reactive);
    let random = run(JammerKind::Random);
    let sweep = run(JammerKind::Sweep);
    assert!(none >= pulsed - 0.01, "none {none} vs pulsed {pulsed}");
    assert!(
        pulsed >= reactive - 0.01,
        "pulsed {pulsed} vs reactive {reactive}"
    );
    assert!(
        (sweep - random).abs() < 0.05,
        "sweep {sweep} should track random {random}"
    );
}

#[test]
fn derived_pool_supports_the_chip_level_handshake() {
    // The authority's PRF-derived secret pool plugs straight into the
    // chip-level path: draw two nodes' codes from it (sharing one) and
    // complete a handshake at tau scaled for the short test codes.
    use jr_snd::core::chiplink::{run_link, LinkOptions, LinkPools, LinkSpec, Stage};
    use jr_snd::crypto::ibc::Authority;
    use jr_snd::dsss::code::CodeId;
    let mut params = Params::table1();
    params.n_chips = 256;
    params.tau = 0.30;
    let pool = derive_code_pool(b"deployment master secret", 64, params.n_chips);
    let a_codes = vec![pool.code(CodeId(3)).clone(), pool.code(CodeId(17)).clone()];
    let b_codes = vec![pool.code(CodeId(42)).clone(), pool.code(CodeId(17)).clone()];
    let authority = Authority::from_seed(b"deployment master secret");
    let spec = LinkSpec {
        a_codes: &a_codes,
        b_codes: &b_codes,
        shared_a: 1,
        shared_b: 1,
        jammer: None,
        seed: 3,
    };
    let r = run_link(
        &params,
        &authority,
        &spec,
        &LinkOptions::default(),
        &mut LinkPools::new(&params),
    )
    .report;
    assert_eq!(r.stage, Stage::Complete);
    assert!(r.discovered);
}
