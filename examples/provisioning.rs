//! Provisioning walkthrough: the `Deployment` facade from the authority's
//! point of view — one master secret in, field-ready nodes out — ending
//! with two provisioned radios completing a real chip-level handshake.
//!
//! ```text
//! cargo run --release --example provisioning
//! ```

use jr_snd::core::chiplink::{run_link, LinkOptions, LinkPools, LinkSpec};
use jr_snd::core::deployment::Deployment;
use jr_snd::core::params::Params;

fn main() {
    let mut params = Params::table1();
    params.n = 120;
    params.l = 12;
    params.m = 30;
    params.n_chips = 256; // short codes keep the chip-level demo instant
    params.tau = 0.30;

    println!("pre-deployment: one master secret drives everything\n");
    let mut deployment =
        Deployment::new(params, b"battalion-7 master secret").expect("valid parameters");
    println!(
        "  pool: {} secret spread codes of {} chips (s = ceil(n/l) * m)",
        deployment.pool().len(),
        deployment.params().n_chips
    );
    println!(
        "  assignment: {} real nodes x {} codes, each code held by <= {} nodes",
        deployment.assignment().n_real(),
        deployment.params().m,
        deployment.assignment().sharing_bound()
    );
    println!(
        "  spare capacity: {} virtual slots for late joiners\n",
        deployment.assignment().n_virtual()
    );

    // Hand two radios their packages.
    let alpha = deployment.provision(0);
    let bravo = deployment.provision(1);
    let shared = deployment.assignment().shared_codes(0, 1);
    println!(
        "radio {} and radio {} share {} pre-distributed code(s): {:?}",
        alpha.node().id(),
        bravo.node().id(),
        shared.len(),
        shared
    );

    if let Some(&code) = shared.first() {
        let a_codes: Vec<_> = alpha.codes().iter().map(|(_, c)| c.clone()).collect();
        let b_codes: Vec<_> = bravo.codes().iter().map(|(_, c)| c.clone()).collect();
        let ia = alpha
            .node()
            .codes()
            .iter()
            .position(|&c| c == code)
            .unwrap();
        let ib = bravo
            .node()
            .codes()
            .iter()
            .position(|&c| c == code)
            .unwrap();
        let spec = LinkSpec {
            a_codes: &a_codes,
            b_codes: &b_codes,
            shared_a: ia,
            shared_b: ib,
            jammer: None,
            seed: 7,
        };
        let report = run_link(
            deployment.params(),
            deployment.authority(),
            &spec,
            &LinkOptions::default(),
            &mut LinkPools::new(deployment.params()),
        )
        .report;
        println!(
            "chip-level D-NDP handshake over {code}: stage {:?}, discovered = {}",
            report.stage, report.discovered
        );
    } else {
        println!("(this pair would rely on M-NDP — rerun with a different pair)");
    }

    // A replacement radio arrives in the field.
    match deployment.admit() {
        Some(joiner) => println!(
            "\nlate joiner admitted as {} with {} codes from the same pool",
            joiner.node().id(),
            joiner.codes().len()
        ),
        None => println!("\nno virtual slots left; the authority would run another round"),
    }
    println!("\neverything above regenerates bit-for-bit from the master secret.");
}
