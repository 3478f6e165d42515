//! Theory-versus-simulation bracketing (Section VI-A against VI-B):
//! Theorem 1's bounds must bracket the measured discovery probability,
//! Theorem 2's latency must match the sampled timeline, and Theorem 3's
//! bound must sit at or below the measured relay probability.

use jr_snd::core::analysis::{dndp as t1, mndp as t3, predist};
use jr_snd::core::dndp::DndpConfig;
use jr_snd::core::jammer::JammerKind;
use jr_snd::core::montecarlo::run_many;
use jr_snd::core::network::ExperimentConfig;
use jr_snd::core::params::Params;

/// A 500-node deployment at the paper's density so degree-based formulas
/// stay comparable, with (l, m) scaled to keep the same sharing behavior.
fn config(q: usize, jammer: JammerKind) -> ExperimentConfig {
    let mut params = Params::table1();
    params.n = 500;
    params.field_w = 2500.0;
    params.field_h = 2500.0;
    params.l = 10; // keeps (l-1)/(n-1) near Table I's ratio
    params.m = 100;
    params.q = q;
    ExperimentConfig {
        params,
        jammer,
        dndp: DndpConfig::default(),
        resilience: None,
    }
}

#[test]
fn theorem1_brackets_simulation_across_q() {
    for q in [0usize, 5, 15, 30] {
        let reactive_cfg = config(q, JammerKind::Reactive);
        let random_cfg = config(q, JammerKind::Random);
        let reactive = run_many(&reactive_cfg, 6, 100);
        let random = run_many(&random_cfg, 6, 100);
        let lower = t1::p_dndp_lower(&reactive_cfg.params);
        let upper = t1::p_dndp_upper(&random_cfg.params);
        let slack = 0.03 + reactive.p_dndp.ci95_half_width() + random.p_dndp.ci95_half_width();
        assert!(
            lower <= reactive.p_dndp.mean() + slack,
            "q={q}: lower bound {lower} above reactive sim {}",
            reactive.p_dndp.mean()
        );
        assert!(
            reactive.p_dndp.mean() <= random.p_dndp.mean() + slack,
            "q={q}: reactive {} beat random {}",
            reactive.p_dndp.mean(),
            random.p_dndp.mean()
        );
        assert!(
            random.p_dndp.mean() <= upper + slack,
            "q={q}: random sim {} above upper bound {upper}",
            random.p_dndp.mean()
        );
    }
}

#[test]
fn theorem2_latency_matches_sampled_timeline() {
    let cfg = config(5, JammerKind::Reactive);
    let agg = run_many(&cfg, 6, 7);
    let theory = t1::t_dndp(&cfg.params);
    let measured = agg.t_dndp.mean();
    assert!(
        (measured - theory).abs() / theory < 0.05,
        "measured {measured} vs Theorem 2 {theory}"
    );
}

#[test]
fn theorem3_bound_holds_for_measured_relay_probability() {
    // Theorem 3 is a lower bound on P_M given P_D; evaluate it with the
    // *measured* P_D and degree so geometry assumptions line up.
    let cfg = config(15, JammerKind::Reactive);
    let agg = run_many(&cfg, 6, 31);
    let bound = t3::p_mndp_two_hop(agg.p_dndp.mean(), agg.degree.mean());
    let measured = agg.p_mndp.mean();
    // Border effects and finite sampling leave a small gap either way.
    assert!(
        measured >= bound - 0.10,
        "measured P_M {measured} far below the Theorem 3 bound {bound}"
    );
}

#[test]
fn alpha_matches_empirical_compromise_rate() {
    use jr_snd::core::predist::CodeAssignment;
    use jr_snd::sim::rng::SimRng;
    use rand::SeedableRng;
    let mut params = Params::table1();
    params.n = 400;
    params.l = 20;
    params.m = 40;
    params.q = 12;
    let mut total_frac = 0.0;
    let runs = 20;
    for seed in 0..runs {
        let mut rng = SimRng::seed_from_u64(seed);
        let a = CodeAssignment::generate(&params, &mut rng);
        let compromised_nodes: Vec<usize> = (0..params.q).collect();
        let frac = a.compromised_codes(&compromised_nodes).len() as f64 / a.pool_size() as f64;
        total_frac += frac;
    }
    let measured = total_frac / runs as f64;
    let alpha = predist::alpha(&params);
    assert!(
        (measured - alpha).abs() < 0.02,
        "empirical {measured} vs Eq. (2) alpha {alpha}"
    );
}

#[test]
fn multi_hop_approximation_tracks_simulation_shape() {
    // The paper could not give a closed form for nu >= 3; our branching
    // approximation must track the simulated P_M curve's shape: monotone,
    // saturating, within a coarse band of the measurement.
    let mut cfg = config(30, JammerKind::Reactive); // drive P_D low
    let mut measured = Vec::new();
    let mut approx = Vec::new();
    for nu in [2usize, 4, 6] {
        cfg.params.nu = nu;
        let agg = run_many(&cfg, 5, 50);
        measured.push(agg.p_mndp.mean());
        approx.push(t3::p_mndp_multi_hop_approx(
            agg.p_dndp.mean(),
            agg.degree.mean(),
            nu,
        ));
    }
    for i in 0..measured.len() {
        assert!(
            (measured[i] - approx[i]).abs() < 0.25,
            "nu band {i}: measured {} vs approx {}",
            measured[i],
            approx[i]
        );
    }
    // Both increase in nu.
    assert!(measured.windows(2).all(|w| w[1] >= w[0] - 0.02));
    assert!(approx.windows(2).all(|w| w[1] >= w[0] - 1e-12));
}

#[test]
fn theorem4_latency_brackets_measured_mndp_means() {
    // Simulated M-NDP latencies use the actual hop counts, so the mean
    // must sit between the 2-hop value and the nu-hop worst case.
    let mut cfg = config(15, JammerKind::Reactive);
    cfg.params.nu = 4;
    let agg = run_many(&cfg, 6, 77);
    let g = agg.degree.mean();
    let t2 = t3::t_mndp(&cfg.params, 2, g);
    let t4 = t3::t_mndp(&cfg.params, 4, g);
    let measured = agg.t_mndp.mean();
    assert!(
        measured >= t2 * 0.9 && measured <= t4 * 1.1,
        "measured {measured} outside [{t2}, {t4}]"
    );
}
