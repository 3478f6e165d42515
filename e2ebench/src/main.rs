//! End-to-end and per-layer benchmark of the JR-SND reproduction.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sessions_clean|sessions_jammed|scale_20k|figures_table1|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, runs the program's
//! public entry point (`BatchEngine::run`, `scale::run_scale_with_threads`
//! or `montecarlo::run_many_with_threads`) untraced for at least
//! `--seconds`, and then gates the outputs: a replay of the same work
//! through the public layer calls must reproduce them, as must the
//! sequential oracles and other worker counts. Any mismatch exits with
//! code 1 and prints no result.
//!
//! With `--trace 0` the last line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of one pass, taken from a
//! traced replay (see `trace.rs`) and from the program's metrics registry.
//! Earlier lines give the host facts, the outcome digest and the pass
//! count; the digest must not change across runs with the same seed.

mod figures;
mod report;
mod scale;
mod sessions;
mod trace;

use report::{Metrics, Run};
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("handshakes_per_s", "attempts/s"),
    ("pairs_per_s", "pairs/s"),
    ("peak_rss_mb", "MiB"),
];

/// Printed on the `#` lines only. `discoveries_per_s` is
/// `pairs_per_s × (1 − fail_share)`, and `fail_share` is fixed for a
/// seed, so as result metrics they would add only the seed-to-seed spread
/// of the jammed outcome to a timing metric; `fail_share` is a per-layer
/// result metric instead.
const INFO: [(&str, &str); 2] = [
    ("discoveries_per_s", "discoveries/s"),
    ("fail_share", "share"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does not
/// run a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 52] = [
    ("fail_share", "share"),
    ("dsss.sync.scan_s", "s"),
    ("dsss.sync.calls", "count"),
    ("dsss.sync.triggers", "count"),
    ("dsss.sync.correlations", "count"),
    ("dsss.sync.useful_ratio", "ratio"),
    ("dsss.sync.decode_s", "s"),
    ("dsss.sync.decode_fail_ratio", "ratio"),
    ("dsss.channel.transmit_s", "s"),
    ("dsss.channel.render_s", "s"),
    ("dsss.channel.chips_rendered", "count"),
    ("dsss.correlate.prefix_s", "s"),
    ("dsss.spread.despread_s", "s"),
    ("ecc.encode_s", "s"),
    ("ecc.decode_s", "s"),
    ("ecc.decode_calls", "count"),
    ("ecc.decode_fail_ratio", "ratio"),
    ("handshake.endpoint_s", "s"),
    ("crypto.key_issue_s", "s"),
    ("engine.batch_gain", "ratio"),
    ("engine.run_wall_s", "s"),
    ("engine.shared_scan_passes", "count"),
    ("sim.soa.placement_s", "s"),
    ("sim.soa.topology_s", "s"),
    ("predist.generate_s", "s"),
    ("sim.engine.dispatch_s", "s"),
    ("sim.engine.events", "count"),
    ("dndp.simulate_pair_s", "s"),
    ("scale.mndp_closure_s", "s"),
    ("scale.run_wall_1w_s", "s"),
    ("sim.topology.physical_graph_s", "s"),
    ("mndp.capability_s", "s"),
    ("mndp.closure_pass_s", "s"),
    ("mndp.discover_closure_s", "s"),
    ("montecarlo.utilization", "ratio"),
    ("montecarlo.run_many_wall_s", "s"),
    ("other_s", "s"),
    ("trace.overhead", "ratio"),
    ("replay.untraced_wall_s", "s"),
    ("replay.traced_wall_s", "s"),
    ("dsss.scan_correlations", "count"),
    ("dsss.sync_hits", "count"),
    ("dsss.frames_failed", "count"),
    ("ecc.blocks_encoded", "count"),
    ("ecc.blocks_decoded", "count"),
    ("crypto.hashes", "count"),
    ("crypto.cache_hits", "count"),
    ("wire.frames_parsed", "count"),
    ("scale.events", "count"),
    ("network.physical_pairs", "count"),
    ("network.dndp_pairs", "count"),
    ("network.mndp_pairs", "count"),
];

const WORKLOADS: [&str; 4] = [
    "sessions_clean",
    "sessions_jammed",
    "scale_20k",
    "figures_table1",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(15.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    match name {
        "sessions_clean" => sessions::run(&sessions::CLEAN, seed, seconds, trace),
        "sessions_jammed" => sessions::run(&sessions::JAMMED, seed, seconds, trace),
        "scale_20k" => scale::run(seed, seconds, trace),
        "figures_table1" => figures::run(seed, seconds, trace),
        _ => unreachable!("workload names are validated"),
    }
}

/// The metrics of this mode as JSON members, every listed metric present.
fn metric_members(m: &Metrics, trace: bool, prefix: &str) -> Result<Vec<String>, String> {
    let (table, default): (&[(&str, &str)], Option<f64>) = if trace {
        (&PER_LAYER, Some(0.0))
    } else {
        (&END_TO_END, None)
    };
    table
        .iter()
        .map(|&(name, unit)| {
            let value = m
                .get(name)
                .or(default)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            Ok(format!(
                "\"{prefix}{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect()
}

/// The build's SIMD level: the repository's `.cargo/config.toml` builds
/// with `-C target-cpu=native`, so numbers belong to this host only.
fn build_facts() -> String {
    format!(
        "target-cpu=native via .cargo/config.toml; sse4.1={} avx2={} fma={} avx512f={}",
        cfg!(target_feature = "sse4.1"),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
        cfg!(target_feature = "avx512f"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    println!(
        "# host: nproc={} seed={} seconds={} trace={} build: {}",
        report::nproc(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        build_facts()
    );
    let mut members = Vec::new();
    let mut attempted = 0;
    for name in &names {
        let run = match run_workload(name, args.seed, args.seconds, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("e2ebench: {name}: correctness gate failed: {e}");
                return ExitCode::from(1);
            }
        };
        let prefix = if names.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        let these = match metric_members(&run.metrics, args.trace, &prefix) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("e2ebench: {name}: {e}");
                return ExitCode::from(1);
            }
        };
        println!(
            "# {name}: workers={} passes={} operations={} digest={:016x}",
            run.workers, run.passes, run.attempted, run.digest
        );
        for m in &these {
            println!("#   {m}");
        }
        for (metric, unit) in INFO {
            if let (Some(v), false) = (run.metrics.get(metric), args.trace) {
                println!("#   \"{metric}\": {v:?} {unit}");
            }
        }
        members.extend(these);
        attempted += run.attempted;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        members.join(", ")
    );
    ExitCode::SUCCESS
}
