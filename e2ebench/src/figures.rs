//! `figures_table1`: `montecarlo::run_many_with_threads` at paper scale
//! (Table I, n = 2000) over the fig. 2(a) m-points and the fig. 5(a)
//! ν-points, plus a replay of `network::run_once` through the public
//! layer calls.

use crate::report::{fnv, median, workers, Metrics, Run};
use crate::trace::{Layer, Tracer};
use jrsnd::analysis::mndp::t_mndp;
use jrsnd::jammer::Jammer;
use jrsnd::montecarlo::{run_many_with_threads, Aggregate};
use jrsnd::network::{ExperimentConfig, RunResult};
use jrsnd::predist::CodeAssignment;
use jrsnd::{dndp, mndp};
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::stats::RunningStats;
use jrsnd_sim::topology::{physical_graph, Graph};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Worker threads of the measured calls.
const WORKERS: usize = 2;
/// Seeded runs per point: two, so both workers get one.
const REPS: usize = 2;
/// Set-ups timed before each measured pass; `setup_s` is their median.
const SETUPS_PER_PASS: usize = 2;

/// Fig. 2(a): m = 20..200 under Table I. Fig. 5(a): ν = 1..8 at q = 100.
fn points() -> Vec<ExperimentConfig> {
    let fig2a = (1..=10).map(|k| {
        let mut c = ExperimentConfig::paper_default();
        c.params.m = 20 * k;
        c
    });
    let fig5a = (1..=8).map(|nu| {
        let mut c = ExperimentConfig::paper_default();
        c.params.q = 100;
        c.params.nu = nu;
        c
    });
    fig2a.chain(fig5a).collect()
}

fn digest(aggs: &[String]) -> u64 {
    let words: Vec<u64> = aggs
        .iter()
        .map(|json| fnv(&json.bytes().map(u64::from).collect::<Vec<_>>()))
        .collect();
    fnv(&words)
}

/// One pass: every point at `threads` workers. Returns each point's
/// aggregate JSON and wall time.
fn pass(points: &[ExperimentConfig], seed: u64, threads: usize) -> (Vec<String>, Vec<f64>) {
    points
        .iter()
        .map(|c| {
            let t = Instant::now();
            let agg = run_many_with_threads(c, REPS, seed, Some(threads));
            (agg.to_json(), t.elapsed().as_secs_f64())
        })
        .unzip()
}

/// Replays `network::run_once(config, seed)` (no fault injection) through
/// its public layer calls, with the same labelled RNG forks.
fn replay_once(config: &ExperimentConfig, seed: u64, tr: &mut Tracer) -> RunResult {
    let params = &config.params;
    let root = SimRng::seed_from_u64(seed);
    let field = params.field();
    let physical = tr.span(Layer::PhysicalGraph, || {
        let positions = field.sample_uniform_n(params.n, &mut root.fork("placement", 0));
        physical_graph(field, &positions, params.range)
    });
    let mean_degree = physical.mean_degree();
    let assignment = tr.span(Layer::PredistGenerate, || {
        CodeAssignment::generate(params, &mut root.fork("predist", 0))
    });
    let mut compromise_rng = root.fork("compromise", 0);
    let mut node_order: Vec<usize> = (0..params.n).collect();
    node_order.shuffle(&mut compromise_rng);
    let jammer = Jammer::new(
        config.jammer,
        assignment.compromised_codes(&node_order[..params.q]),
        params,
    );

    let mut protocol_rng = root.fork("dndp", 0);
    let mut logical = Graph::new(params.n);
    let mut dndp_latency = RunningStats::new();
    let mut dndp_pairs = 0;
    let mut attempts = 0;
    for (u, v) in physical.edges() {
        attempts += 1;
        let outcome = tr.span(Layer::SimulatePair, || {
            let shared = assignment.shared_codes(u, v);
            dndp::simulate_pair_with(params, &shared, &jammer, config.dndp, &mut protocol_rng)
        });
        if outcome.discovered {
            logical.add_edge(u, v);
            dndp_pairs += 1;
            if let Some(t) = outcome.latency {
                dndp_latency.push(t);
            }
        }
    }

    let capable = tr.span(Layer::MndpCapability, || {
        let mut capable = 0;
        for (u, v) in physical.edges() {
            let had_direct = logical.remove_edge(u, v);
            if logical.shortest_path_within(u, v, params.nu).is_some() {
                capable += 1;
            }
            if had_direct {
                logical.add_edge(u, v);
            }
        }
        capable
    });
    let single_round = tr.span(Layer::MndpClosurePass, || {
        mndp::closure_pass(&logical, &physical, params.nu)
    });
    let mut mndp_latency = RunningStats::new();
    for &(u, v, hops) in &single_round {
        logical.add_edge(u, v);
        mndp_latency.push(t_mndp(params, hops, mean_degree));
    }
    let (extra, later_epochs) = tr.span(Layer::MndpDiscoverClosure, || {
        mndp::discover_closure(&mut logical, &physical, params.nu)
    });
    RunResult {
        physical_pairs: physical.edge_count(),
        dndp_pairs,
        mndp_pairs: single_round.len(),
        mndp_extra_steady_pairs: extra.len(),
        mndp_capable_pairs: capable,
        mean_degree,
        mndp_epochs: usize::from(!single_round.is_empty()) + later_epochs,
        dndp_latency,
        mndp_latency,
        degraded_pairs: 0,
        retry_attempts: attempts,
    }
}

/// The replayed pass: each point's aggregate, folded in seed order as
/// `run_many` folds it, plus the summed pair counts.
struct Replayed {
    aggs: Vec<String>,
    physical: usize,
    discovered: usize,
    attempts: u64,
}

fn replay(points: &[ExperimentConfig], seed: u64, tr: &mut Tracer) -> Replayed {
    let mut out = Replayed {
        aggs: Vec::with_capacity(points.len()),
        physical: 0,
        discovered: 0,
        attempts: 0,
    };
    for c in points {
        let mut agg = Aggregate::default();
        for rep in 0..REPS as u64 {
            let open = tr.begin(Layer::Session);
            let r = replay_once(c, seed + rep, tr);
            tr.end(open);
            out.physical += r.physical_pairs;
            out.discovered += r.dndp_pairs + r.mndp_pairs;
            out.attempts += r.retry_attempts;
            agg.absorb(&r);
        }
        out.aggs.push(agg.to_json());
    }
    out
}

/// Runs `figures_table1`; see the crate docs for what each mode reports.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let workers = workers(WORKERS);
    // Set-ups are timed before every pass, so that `setup_s` samples the
    // same stretch of a drifting host as the passes.
    let mut setup_walls = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let built = points();
        let warm = jrsnd::run_once(&built[0], seed);
        assert!(warm.physical_pairs > 0, "warm-up field has pairs");
        setup_walls.push(t.elapsed().as_secs_f64());
        built
    };
    let points = timed_setup();

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut aggs = Vec::new();
    let mut counts = Metrics::default();
    loop {
        for _ in usize::from(walls.is_empty())..SETUPS_PER_PASS {
            timed_setup();
        }
        jrsnd_sim::metrics::reset();
        let (a, point_walls) = pass(&points, seed, workers);
        walls.push(point_walls.iter().sum::<f64>());
        let mut pass_counts = Metrics::default();
        pass_counts.registry(&jrsnd_sim::metrics::snapshot());
        if walls.len() == 1 {
            aggs = a;
            counts = pass_counts;
        } else {
            if a != aggs {
                return Err(format!("run_many pass {} differs from pass 1", walls.len()));
            }
            counts.same_registry(&pass_counts)?;
        }
        if walls.len() >= 2 && (trace || started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    let peak_rss_mb = crate::report::peak_rss_mb();
    let wall = median(&walls);

    // Gates: the replay folds to byte-identical aggregates and the same
    // pair count the program's registry saw; one worker agrees too.
    let mut untraced = Tracer::new(false);
    let t = Instant::now();
    let want = replay(&points, seed, &mut untraced);
    let replay_wall = t.elapsed().as_secs_f64();
    if let Some(i) = (0..points.len()).find(|&i| want.aggs[i] != aggs[i]) {
        return Err(format!(
            "point {i}: run_many {} vs replay {}",
            aggs[i], want.aggs[i]
        ));
    }
    let [physical, dndp, mndp] = ["physical", "dndp", "mndp"]
        .map(|k| counts.get(&format!("network.{k}_pairs")).unwrap_or(0.0));
    if (physical, dndp + mndp) != (want.physical as f64, want.discovered as f64) {
        return Err(format!(
            "registry counted {physical} physical / {} discovered pairs, replay {} / {}",
            dndp + mndp,
            want.physical,
            want.discovered
        ));
    }
    let (single, _) = pass(&points[..1], seed, 1);
    if single[0] != aggs[0] {
        return Err("run_many aggregate differs between 1 and 2 workers".into());
    }

    let mut m = Metrics::default();
    m.set("fail_share", 1.0 - (dndp + mndp) / physical);
    if trace {
        let mut tracer = Tracer::new(true);
        let t = Instant::now();
        let root = tracer.begin(Layer::Root);
        let traced = replay(&points, seed, &mut tracer);
        tracer.end(root);
        let traced_wall = t.elapsed().as_secs_f64();
        if traced.aggs != aggs {
            return Err("traced replay differs from run_many".into());
        }
        m.attribution(&tracer, "figures_table1")?;
        m.set(
            "montecarlo.utilization",
            replay_wall / (workers as f64 * walls[0]),
        );
        m.set("montecarlo.run_many_wall_s", walls[0]);
        m.set("replay.untraced_wall_s", replay_wall);
        m.set("replay.traced_wall_s", traced_wall);
        m.set("trace.overhead", traced_wall / replay_wall);
        m.merge(counts);
    } else {
        m.set("setup_s", median(&setup_walls));
        // One modelled D-NDP handshake per physical pair (no retries).
        m.set("handshakes_per_s", want.attempts as f64 / wall);
        m.set("discoveries_per_s", (dndp + mndp) / wall);
        m.set("pairs_per_s", physical / wall);
        m.set("peak_rss_mb", peak_rss_mb);
    }
    Ok(Run {
        attempted: want.physical as u64,
        digest: digest(&aggs),
        workers,
        passes: walls.len(),
        metrics: m,
    })
}
