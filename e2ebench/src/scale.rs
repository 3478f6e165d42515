//! `scale_20k`: `scale::run_scale_with_threads` on `ScaleConfig::scaled(20_000)`
//! for ν = 1..6, plus a replay of its placement, topology,
//! pre-distribution and sharded D-NDP phases through the public calls.

use crate::report::{fnv, median, workers, Metrics, Run};
use crate::trace::{Layer, Tracer};
use jrsnd::dndp;
use jrsnd::jammer::Jammer;
use jrsnd::network::RunResult;
use jrsnd::predist::CodeAssignment;
use jrsnd::scale::{run_scale_with_threads, ScaleConfig};
use jrsnd_sim::engine::{Control, Engine};
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::soa::{CsrGraph, NodeStore};
use jrsnd_sim::stats::RunningStats;
use jrsnd_sim::time::SimTime;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const NODES: usize = 20_000;
/// Worker threads of the measured calls.
const WORKERS: usize = 2;
/// Set-ups timed before each measured pass; `setup_s` is their median.
const SETUPS_PER_PASS: usize = 2;
/// Nodes of the set-up warm-up run.
const WARMUP_NODES: usize = 2_000;

fn configs() -> Vec<ScaleConfig> {
    (1..=6)
        .map(|nu| {
            let mut c = ScaleConfig::scaled(NODES);
            c.params.nu = nu;
            c
        })
        .collect()
}

fn digest(results: &[RunResult]) -> u64 {
    let words: Vec<u64> = results
        .iter()
        .flat_map(|r| {
            [
                r.physical_pairs as u64,
                r.dndp_pairs as u64,
                r.mndp_pairs as u64,
                r.mndp_extra_steady_pairs as u64,
                r.mndp_capable_pairs as u64,
                r.mndp_epochs as u64,
                r.mean_degree.to_bits(),
                r.dndp_latency.mean().to_bits(),
                r.mndp_latency.mean().to_bits(),
            ]
        })
        .collect();
    fnv(&words)
}

/// What the D-NDP replay reproduces of a [`RunResult`].
#[derive(Debug, PartialEq)]
struct DndpPhase {
    physical_pairs: usize,
    dndp_pairs: usize,
    mean_degree_bits: u64,
    latency_count: u64,
    latency_mean_bits: u64,
    events: u64,
}

impl DndpPhase {
    fn of(r: &RunResult, events: u64) -> Self {
        DndpPhase {
            physical_pairs: r.physical_pairs,
            dndp_pairs: r.dndp_pairs,
            mean_degree_bits: r.mean_degree.to_bits(),
            latency_count: r.dndp_latency.count(),
            latency_mean_bits: r.dndp_latency.mean().to_bits(),
            events,
        }
    }
}

/// Replays `run_scale`'s placement, topology, pre-distribution,
/// compromise and sharded D-NDP phases, shard by shard on this thread,
/// with the same labelled RNG forks. Its closure phase is private and is
/// not replayed.
fn replay(config: &ScaleConfig, seed: u64, tr: &mut Tracer) -> DndpPhase {
    let params = &config.params;
    let root = SimRng::seed_from_u64(seed);
    let field = params.field();
    let open = tr.begin(Layer::Session);
    let store = tr.span(Layer::Placement, || {
        NodeStore::sample_uniform(field, params.n, &mut root.fork("placement", 0))
    });
    let physical = tr.span(Layer::Topology, || {
        CsrGraph::build(field, &store, params.range)
    });
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
    // A pair belongs to the strip holding its lower-id endpoint.
    let shards = config.shards;
    let mut shard_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
    for (u, v) in physical.edges() {
        let x = store.position(u as usize).x;
        let strip = (((x / field.width()) * shards as f64) as usize).min(shards - 1);
        shard_pairs[strip].push((u, v));
    }
    let mut latency = RunningStats::new();
    let mut dndp_pairs = 0;
    let mut events = 0;
    for pairs in &shard_pairs {
        let jam = jammer.clone();
        let dispatch = tr.begin(Layer::EngineDispatch);
        let mut engine: Engine<u32> = Engine::with_scheduler(config.scheduler);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let t = root
                .fork("pair-time", pair_key(u, v))
                .gen_range(0.0..config.period);
            engine.schedule_at(SimTime::from_secs_f64(t), i as u32);
        }
        let mut outcomes = Vec::with_capacity(pairs.len());
        engine.run(SimTime::from_secs_f64(config.period), |_, _, i| {
            let (u, v) = pairs[i as usize];
            let out = tr.span(Layer::SimulatePair, || {
                let shared = assignment.shared_codes(u as usize, v as usize);
                let mut rng = root.fork("pair", pair_key(u, v));
                dndp::simulate_pair_with(params, &shared, &jam, config.dndp, &mut rng)
            });
            outcomes.push(out);
            Control::Continue
        });
        events += engine.events_processed();
        tr.end(dispatch);
        for out in outcomes.iter().filter(|o| o.discovered) {
            dndp_pairs += 1;
            if let Some(t) = out.latency {
                latency.push(t);
            }
        }
    }
    tr.end(open);
    DndpPhase {
        physical_pairs: physical.edge_count(),
        dndp_pairs,
        mean_degree_bits: physical.mean_degree().to_bits(),
        latency_count: latency.count(),
        latency_mean_bits: latency.mean().to_bits(),
        events,
    }
}

fn pair_key(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// One pass: every ν at `threads` workers. Returns the results, each
/// run's event count, and the summed wall time.
fn pass(configs: &[ScaleConfig], seed: u64, threads: usize) -> (Vec<RunResult>, Vec<u64>, f64) {
    let t = Instant::now();
    let (results, events) = configs
        .iter()
        .map(|c| {
            let (r, perf) = run_scale_with_threads(c, seed, Some(threads));
            (r, perf.events)
        })
        .unzip();
    (results, events, t.elapsed().as_secs_f64())
}

/// Runs `scale_20k`; see the crate docs for what each mode reports.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let workers = workers(WORKERS);
    // Set-ups are timed before every pass, so that `setup_s` samples the
    // same stretch of a drifting host as the passes.
    let mut setup_walls = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let built = configs();
        let warm = ScaleConfig::scaled(WARMUP_NODES);
        let (r, _) = run_scale_with_threads(&warm, seed, Some(workers));
        assert!(r.physical_pairs > 0, "warm-up field has pairs");
        setup_walls.push(t.elapsed().as_secs_f64());
        built
    };
    let configs = timed_setup();

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut results = Vec::new();
    let mut events = Vec::new();
    let mut counts = Metrics::default();
    loop {
        for _ in usize::from(walls.is_empty())..SETUPS_PER_PASS {
            timed_setup();
        }
        jrsnd_sim::metrics::reset();
        let (r, ev, wall) = pass(&configs, seed, workers);
        walls.push(wall);
        let mut pass_counts = Metrics::default();
        pass_counts.registry(&jrsnd_sim::metrics::snapshot());
        if walls.len() == 1 {
            results = r;
            events = ev;
            counts = pass_counts;
        } else {
            if digest(&r) != digest(&results) {
                return Err(format!(
                    "run_scale pass {} differs from pass 1",
                    walls.len()
                ));
            }
            counts.same_registry(&pass_counts)?;
        }
        if walls.len() >= 2 && (trace || started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    let peak_rss_mb = crate::report::peak_rss_mb();
    let wall = median(&walls);

    // Gates: the D-NDP replay reproduces every ν's pair counts (those
    // phases do not depend on ν), and one worker gives the same results.
    let mut untraced = Tracer::new(false);
    let want = replay(&configs[0], seed, &mut untraced);
    for ((c, r), &ev) in configs.iter().zip(&results).zip(&events) {
        let got = DndpPhase::of(r, ev);
        if got != want {
            return Err(format!(
                "nu={}: run_scale {got:?} vs replay {want:?}",
                c.params.nu
            ));
        }
    }
    let one_worker = if trace { &configs[..] } else { &configs[..1] };
    let (single, _, single_wall) = pass(one_worker, seed, 1);
    if digest(&single) != digest(&results[..single.len()]) {
        return Err("run_scale results differ between 1 and 2 workers".into());
    }

    let physical: usize = results.iter().map(|r| r.physical_pairs).sum();
    let discovered: usize = results.iter().map(|r| r.dndp_pairs + r.mndp_pairs).sum();
    let attempts: u64 = results.iter().map(|r| r.retry_attempts).sum();
    let mut m = Metrics::default();
    m.set("fail_share", 1.0 - discovered as f64 / physical as f64);
    if trace {
        // Replay every ν untraced and then traced, so the two replays do
        // the same work as the one-worker pass above.
        let t = Instant::now();
        for c in &configs {
            replay(c, seed, &mut untraced);
        }
        let replay_wall = t.elapsed().as_secs_f64();
        let mut tracer = Tracer::new(true);
        let t = Instant::now();
        let root = tracer.begin(Layer::Root);
        for c in &configs {
            let got = replay(c, seed, &mut tracer);
            if got != want {
                return Err("traced replay differs from the untraced one".into());
            }
        }
        tracer.end(root);
        let traced_wall = t.elapsed().as_secs_f64();
        m.attribution(&tracer, "scale_20k")?;
        // run_scale's closure (its private BFS) is what remains of the
        // one-worker run once the replayed phases are taken out.
        m.set("scale.mndp_closure_s", single_wall - replay_wall);
        m.set("scale.run_wall_1w_s", single_wall);
        m.set("sim.engine.events", events.iter().sum::<u64>() as f64);
        m.set("replay.untraced_wall_s", replay_wall);
        m.set("replay.traced_wall_s", traced_wall);
        m.set("trace.overhead", traced_wall / replay_wall);
        m.merge(counts);
    } else {
        m.set("setup_s", median(&setup_walls));
        m.set("handshakes_per_s", attempts as f64 / wall);
        m.set("discoveries_per_s", discovered as f64 / wall);
        m.set("pairs_per_s", physical as f64 / wall);
        m.set("peak_rss_mb", peak_rss_mb);
    }
    Ok(Run {
        attempted: physical as u64,
        digest: digest(&results),
        workers,
        passes: walls.len(),
        metrics: m,
    })
}
