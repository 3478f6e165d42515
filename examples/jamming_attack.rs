//! Escalating jamming attack: how discovery degrades as the adversary
//! compromises more nodes, under each jammer model — and why the
//! redundancy design of D-NDP matters against the "intelligent attack"
//! that spares HELLOs and targets the later handshake messages.
//!
//! ```text
//! cargo run --release --example jamming_attack
//! ```

use jr_snd::core::dndp::DndpConfig;
use jr_snd::core::jammer::JammerKind;
use jr_snd::core::montecarlo::run_many;
use jr_snd::core::network::ExperimentConfig;
use jr_snd::core::params::Params;

fn scenario(q: usize, jammer: JammerKind, dndp: DndpConfig) -> ExperimentConfig {
    let mut params = Params::table1();
    params.n = 500;
    params.field_w = 2500.0;
    params.field_h = 2500.0;
    params.l = 20;
    params.m = 60;
    params.q = q;
    ExperimentConfig {
        params,
        jammer,
        dndp,
        resilience: None,
    }
}

fn main() {
    let reps = 8;
    println!("escalating node compromise (reactive vs random jamming)");
    println!(
        "{:>4}  {:>18} {:>18} {:>12}",
        "q", "P(D-NDP) reactive", "P(D-NDP) random", "P(JR-SND)"
    );
    for q in [0usize, 5, 10, 20, 40] {
        let reactive = run_many(
            &scenario(q, JammerKind::Reactive, DndpConfig::default()),
            reps,
            11,
        );
        let random = run_many(
            &scenario(q, JammerKind::Random, DndpConfig::default()),
            reps,
            11,
        );
        println!(
            "{:>4}  {:>18.4} {:>18.4} {:>12.4}",
            q,
            reactive.p_dndp.mean(),
            random.p_dndp.mean(),
            reactive.p_jrsnd.mean(),
        );
    }
    println!("\nreactive <= random in discovery probability (Theorem 1's bracketing),");
    println!("and M-NDP keeps JR-SND high even when D-NDP is badly degraded.\n");

    println!("the intelligent tail-only attack vs D-NDP's redundancy design");
    let attack_redundant = DndpConfig {
        redundancy: true,
        tail_only_attack: true,
    };
    let attack_strawman = DndpConfig {
        redundancy: false,
        tail_only_attack: true,
    };
    println!(
        "{:>4}  {:>22} {:>22}",
        "q", "P(D-NDP) redundant", "P(D-NDP) single-code"
    );
    for q in [5usize, 10, 20, 40] {
        let redundant = run_many(
            &scenario(q, JammerKind::Reactive, attack_redundant),
            reps,
            13,
        );
        let strawman = run_many(
            &scenario(q, JammerKind::Reactive, attack_strawman),
            reps,
            13,
        );
        println!(
            "{:>4}  {:>22.4} {:>22.4}",
            q,
            redundant.p_dndp.mean(),
            strawman.p_dndp.mean(),
        );
    }
    println!("\nspreading CONFIRM/AUTH over *all* shared codes (the paper's design)");
    println!("beats picking one random shared code once the attacker targets the tail.");
}
