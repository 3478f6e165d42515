//! End-to-end shape tests: every qualitative claim of the paper's
//! evaluation (DESIGN.md §4 "shape expectations"), asserted on shrunken
//! but density-faithful networks.

use jr_snd::core::analysis::{dndp as a_dndp, mndp as a_mndp};
use jr_snd::core::dndp::DndpConfig;
use jr_snd::core::jammer::JammerKind;
use jr_snd::core::montecarlo::{run_many, sweep};
use jr_snd::core::network::ExperimentConfig;
use jr_snd::core::params::Params;

fn base() -> ExperimentConfig {
    let mut params = Params::table1();
    params.n = 500;
    params.field_w = 2500.0;
    params.field_h = 2500.0;
    params.l = 10;
    params.m = 100;
    params.q = 5;
    ExperimentConfig {
        params,
        jammer: JammerKind::Reactive,
        dndp: DndpConfig::default(),
        resilience: None,
    }
}

#[test]
fn shape1_probabilities_increase_with_m() {
    let pts = sweep(&base(), &[20.0, 60.0, 120.0], 4, 1, |p, v| p.m = v as usize);
    let pd: Vec<f64> = pts.iter().map(|p| p.agg.p_dndp.mean()).collect();
    let pj: Vec<f64> = pts.iter().map(|p| p.agg.p_jrsnd.mean()).collect();
    assert!(pd[0] < pd[1] && pd[1] < pd[2], "P_D not increasing: {pd:?}");
    assert!(
        pj[0] <= pj[1] + 0.01 && pj[1] <= pj[2] + 0.01,
        "P not increasing: {pj:?}"
    );
}

#[test]
fn shape2_latency_quadratic_and_crossover() {
    let params = Params::table1();
    // T_D at m=100 < 2 s (the paper's headline latency claim).
    assert!(a_dndp::t_dndp(&params) < 2.0);
    // Quadratic: doubling m roughly quadruples the identification term.
    let mut p200 = params.clone();
    p200.m = 200;
    let ratio = a_dndp::t_dndp_identification(&p200) / a_dndp::t_dndp_identification(&params);
    assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    // Crossover: T_D < T_M at m = 40, T_D > T_M at m = 100 (Fig. 2b).
    let g = params.expected_degree();
    let mut p40 = params.clone();
    p40.m = 40;
    assert!(a_dndp::t_dndp(&p40) < a_mndp::t_mndp(&p40, 2, g));
    assert!(a_dndp::t_dndp(&params) > a_mndp::t_mndp(&params, 2, g));
}

#[test]
fn shape3_unimodal_in_l() {
    // At fixed q, P_D rises from tiny l, peaks, then declines as each
    // compromise exposes codes shared by more nodes (Fig. 3a). Use the
    // analytic form at paper scale for the exact peak, and simulation for
    // the qualitative rise-fall.
    let mut last = 0.0;
    let mut peak_l = 0usize;
    for l in (5..=300).step_by(5) {
        let mut p = Params::table1();
        p.l = l;
        let v = a_dndp::p_dndp_lower(&p);
        if v > last {
            peak_l = l;
            last = v;
        }
    }
    assert!(
        (60..=160).contains(&peak_l),
        "analytic peak at l = {peak_l}, paper shows ~100"
    );
    // Simulated check on the shrunken network: middle l beats both ends.
    // The peak position scales with the compromise fraction, so use the
    // same 5% rate the paper's q = 100 regime corresponds to.
    let mut cfg = base();
    cfg.params.q = 25;
    let pts = sweep(&cfg, &[3.0, 50.0, 400.0], 4, 3, |p, v| p.l = v as usize);
    let ps: Vec<f64> = pts.iter().map(|p| p.agg.p_dndp.mean()).collect();
    assert!(ps[1] > ps[0] && ps[1] > ps[2], "not unimodal: {ps:?}");
}

#[test]
fn shape4_unimodal_in_n_and_density_helps_mndp() {
    // Analytic P_D vs n at paper scale: rises then falls (Fig. 3b).
    let mut values = Vec::new();
    for n in [100usize, 250, 500, 1000, 2000, 4000, 8000] {
        let mut p = Params::table1();
        p.n = n;
        values.push(a_dndp::p_dndp_lower(&p));
    }
    let max_idx = values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert!(
        max_idx > 0 && max_idx < values.len() - 1,
        "P_D(n) monotone: {values:?}"
    );
}

#[test]
fn shape5_everything_decreases_with_q() {
    let pts = sweep(&base(), &[0.0, 10.0, 30.0], 4, 5, |p, v| p.q = v as usize);
    let pd: Vec<f64> = pts.iter().map(|p| p.agg.p_dndp.mean()).collect();
    let pj: Vec<f64> = pts.iter().map(|p| p.agg.p_jrsnd.mean()).collect();
    assert!(pd[0] > pd[1] && pd[1] > pd[2], "P_D not decreasing: {pd:?}");
    assert!(
        pj[0] >= pj[2],
        "P(JR-SND) should not improve with compromise: {pj:?}"
    );
}

#[test]
fn shape6_nu_rescues_heavily_compromised_networks() {
    let mut cfg = base();
    cfg.params.q = 30; // drive P_D low
    let pts = sweep(&cfg, &[1.0, 2.0, 6.0], 4, 7, |p, v| p.nu = v as usize);
    let pj: Vec<f64> = pts.iter().map(|p| p.agg.p_jrsnd.mean()).collect();
    assert!(pj[0] < pj[1] && pj[1] < pj[2], "nu does not help: {pj:?}");
    // And the latency cost grows with nu (Fig. 5b).
    let g = cfg.params.expected_degree();
    assert!(a_mndp::t_mndp(&cfg.params, 6, g) > a_mndp::t_mndp(&cfg.params, 2, g));
}

#[test]
fn shape7_reactive_weaker_or_equal_discovery_than_random() {
    let mut reactive = base();
    reactive.params.q = 20;
    let mut random = reactive.clone();
    random.jammer = JammerKind::Random;
    let r1 = run_many(&reactive, 6, 9);
    let r2 = run_many(&random, 6, 9);
    assert!(
        r1.p_dndp.mean() <= r2.p_dndp.mean() + 0.02,
        "reactive {} vs random {}",
        r1.p_dndp.mean(),
        r2.p_dndp.mean()
    );
}

#[test]
fn shape8_dos_damage_capped_under_jrsnd() {
    use jr_snd::core::predist::CodeAssignment;
    use jr_snd::core::revocation::{simulate_dos, verification_cap_per_code};
    use jr_snd::sim::rng::SimRng;
    use rand::SeedableRng;
    let mut params = Params::table1();
    params.n = 200;
    params.l = 20;
    params.m = 30;
    params.q = 4;
    let mut rng = SimRng::seed_from_u64(1);
    let assignment = CodeAssignment::generate(&params, &mut rng);
    let compromised: Vec<usize> = (0..params.q).collect();
    let out = simulate_dos(&params, &assignment, &compromised, 1_000_000);
    let n_codes = assignment.compromised_codes(&compromised).len() as u64;
    assert!(out.verifications <= n_codes * verification_cap_per_code(&params));
    // The public baseline with the same budget is orders of magnitude worse.
    let public =
        jr_snd::baselines::ufh::dos_verifications(params.n - params.q, 1_000_000 * n_codes);
    assert!(public > 1000 * out.verifications);
}
