//! `sessions_clean` and `sessions_jammed`: chip-level D-NDP/M-NDP sessions
//! through `BatchEngine::run`, plus a session-by-session replay of the
//! sequential resilient handshake loop through the public layer calls.

use crate::report::{fnv, median, Metrics, Run};
use crate::trace::{Layer, Tracer};
use jrsnd::chiplink::{HandshakeReport, Stage};
use jrsnd::engine::reference;
use jrsnd::handshake::{Initiator, Responder};
use jrsnd::messages::{FrameCodec, WireConfig};
use jrsnd::wire::WireFormat;
use jrsnd::{BatchEngine, EngineConfig, JamSpec, Params, SessionKind, SessionOutcome, SessionSpec};
use jrsnd_crypto::ibc::{Authority, NodeId};
use jrsnd_crypto::session::SessionCodeCache;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::{CodeId, SpreadCode};
use jrsnd_dsss::correlate::MultiCorrelator;
use jrsnd_dsss::spread::{despread_from_channel, spread};
use jrsnd_dsss::sync::{decode_frame_into, scan_from_with, Frame, ScanScratch};
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::rng::SimRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

// Seed salts of `chiplink::run_handshake_resilient` and the engine; the
// replay must derive every attempt exactly as they do.
const ATTEMPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const BACKOFF_SALT: u64 = 0xBACC_0FF5;
const MEDIUM_SALT: u64 = 0x1111;
const MNDP_LEG2_SALT: u64 = 0x6D6E_6470_0002;
/// Replay-guard capacity every handshake loop gives the responder.
const REPLAY_CAPACITY: usize = 256;
/// Codes in the authority pool the sessions draw their banks from.
const POOL: usize = 64;
/// Set-ups timed before each measured pass; `setup_s` is their median.
const SETUPS_PER_PASS: usize = 2;
/// Sessions the warm-up engine call runs during set-up.
const WARMUP_SESSIONS: usize = 8;

/// One of the two session mixes.
pub struct Mix {
    /// Workload name.
    pub name: &'static str,
    /// Codes per node.
    bank: usize,
    /// Whether every session runs under a same-code reactive jammer.
    jammed: bool,
    /// Retries after the first attempt.
    retries: u32,
    /// Sessions per workload pass.
    sessions: usize,
    /// Leading sessions cross-checked against `engine::reference`.
    reference_prefix: usize,
}

/// `sessions_clean`.
pub const CLEAN: Mix = Mix {
    name: "sessions_clean",
    bank: 2,
    jammed: false,
    retries: 1,
    sessions: 1024,
    reference_prefix: 64,
};

/// `sessions_jammed`.
pub const JAMMED: Mix = Mix {
    name: "sessions_jammed",
    bank: 4,
    jammed: true,
    retries: 2,
    sessions: 384,
    reference_prefix: 16,
};

/// The chip-level calibration of `repro sessions`: 256-chip codes with
/// the de-spreading threshold rescaled to hold the false-sync rate.
fn chip_params() -> Params {
    let mut p = Params::table1();
    p.n_chips = 256;
    p.tau = 0.30;
    p
}

/// `k` pool indices not yet in `used`, which they are added to.
fn fresh(rng: &mut StdRng, used: &mut Vec<usize>, k: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let c = rng.gen_range(0..POOL);
        if !used.contains(&c) {
            used.push(c);
            out.push(c);
        }
    }
    out
}

/// A bank of `bank` distinct codes with `shared` at index `at`.
fn bank_with(
    rng: &mut StdRng,
    used: &mut Vec<usize>,
    bank: usize,
    shared: usize,
    at: usize,
) -> Vec<usize> {
    let mut codes = fresh(rng, used, bank - 1);
    codes.insert(at, shared);
    codes
}

/// The session specs of one pass. Session `i` puts its shared code at
/// bank index `i mod bank`; sessions 6 and 15 of every 16 are two-leg
/// M-NDP relays (1 in 8). Under the jammed mix, alternating groups of
/// `bank` sessions get a full-HELLO jam at amplitude 3 or a 20 %
/// CONFIRM-tail jam at amplitude 2, on the session's first-leg code.
fn specs(mix: &Mix, seed: u64) -> Vec<SessionSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..mix.sessions)
        .map(|i| {
            let at = i % mix.bank;
            let mut used = Vec::new();
            let s1 = fresh(&mut rng, &mut used, 1)[0];
            let a_codes = bank_with(&mut rng, &mut used, mix.bank, s1, at);
            let multihop = i % 16 == 6 || i % 16 == 15;
            let (b_codes, kind) = if multihop {
                let s2 = fresh(&mut rng, &mut used, 1)[0];
                let relay_a_codes = bank_with(&mut rng, &mut used, mix.bank, s1, at);
                let relay_b_codes = bank_with(&mut rng, &mut used, mix.bank, s2, at);
                let b_codes = bank_with(&mut rng, &mut used, mix.bank, s2, at);
                let kind = SessionKind::MultiHop {
                    relay_a_codes,
                    relay_b_codes,
                    relay_shared_a: at,
                    relay_shared_b: at,
                };
                (b_codes, kind)
            } else {
                (
                    bank_with(&mut rng, &mut used, mix.bank, s1, at),
                    SessionKind::Direct,
                )
            };
            let jammer = mix.jammed.then(|| {
                if (i / mix.bank).is_multiple_of(2) {
                    JamSpec {
                        code: s1,
                        fraction: 1.0,
                        amplitude: 3,
                        first_message: 0,
                    }
                } else {
                    JamSpec {
                        code: s1,
                        fraction: 0.2,
                        amplitude: 2,
                        first_message: 1,
                    }
                }
            });
            SessionSpec {
                a_codes,
                b_codes,
                shared_a: at,
                shared_b: at,
                jammer,
                seed: rng.gen(),
                kind,
            }
        })
        .collect()
}

/// Everything a pass needs, built from the seed.
struct Setup {
    params: Params,
    authority: Authority,
    pool: Vec<SpreadCode>,
    specs: Vec<SessionSpec>,
    retry: RetryPolicy,
}

impl Setup {
    fn engine(&self, threads: usize) -> BatchEngine<'_> {
        let config = EngineConfig {
            retry: self.retry,
            threads: Some(threads),
            ..EngineConfig::default()
        };
        BatchEngine::new(&self.params, &self.authority, &self.pool, config)
    }
}

/// Derives the pool from the authority secret, builds the specs and the
/// engine, and warms the engine on the first few sessions.
fn setup(mix: &Mix, seed: u64) -> Setup {
    let params = chip_params();
    let secret = seed.to_le_bytes();
    let derived = jrsnd::predist::derive_code_pool(&secret, POOL, params.n_chips);
    let pool: Vec<SpreadCode> = (0..POOL)
        .map(|i| derived.code(CodeId(i as u32)).clone())
        .collect();
    let setup = Setup {
        params,
        authority: Authority::from_seed(&secret),
        pool,
        specs: specs(mix, seed),
        retry: RetryPolicy::budgeted(mix.retries),
    };
    let warm = setup.engine(1).run(&setup.specs[..WARMUP_SESSIONS]);
    assert_eq!(warm.len(), WARMUP_SESSIONS);
    setup
}

fn digest(outcomes: &[SessionOutcome]) -> u64 {
    let mut words = Vec::with_capacity(outcomes.len() * 6);
    for o in outcomes {
        words.extend([
            u64::from(o.report.discovered),
            o.report.stage as u64,
            o.report.scan_correlations,
            o.report.sync_retries,
            u64::from(o.attempts) << 1 | u64::from(o.degraded),
            o.backoff_s.to_bits(),
        ]);
    }
    fnv(&words)
}

fn first_mismatch(got: &[SessionOutcome], want: &[SessionOutcome]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} outcomes vs {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(format!("session {i}: {:?} vs {:?}", got[i], want[i])),
    }
}

/// Runs one session mix; see the crate docs for what each mode reports.
pub fn run(mix: &Mix, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    // Set-ups are timed before every pass, so that `setup_s` samples the
    // same stretch of a drifting host as the passes; the first set-up's
    // inputs are the ones used.
    let mut setup_walls = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let built = setup(mix, seed);
        setup_walls.push(t.elapsed().as_secs_f64());
        built
    };
    let s = timed_setup();
    let engine = s.engine(1);

    // The measured passes: the same specs, at least twice and until
    // `seconds` have passed. Every pass must reproduce the first one's
    // outcomes and registry counts exactly.
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut outcomes: Vec<SessionOutcome> = Vec::new();
    let mut counts = Metrics::default();
    loop {
        for _ in usize::from(walls.is_empty())..SETUPS_PER_PASS {
            timed_setup();
        }
        jrsnd_sim::metrics::reset();
        let t = Instant::now();
        let out = engine.run(&s.specs);
        walls.push(t.elapsed().as_secs_f64());
        let mut pass_counts = Metrics::default();
        pass_counts.registry(&jrsnd_sim::metrics::snapshot());
        if walls.len() == 1 {
            outcomes = out;
            counts = pass_counts;
        } else {
            first_mismatch(&out, &outcomes)
                .map_err(|e| format!("engine pass {} differs from pass 1: {e}", walls.len()))?;
            counts.same_registry(&pass_counts)?;
        }
        if walls.len() >= 2 && (trace || started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    let peak_rss_mb = crate::report::peak_rss_mb();
    let engine_wall = median(&walls);

    // Correctness gates.
    let mut untraced = Tracer::new(false);
    let t = Instant::now();
    let (replayed, _) = replay(&s, &mut untraced);
    let replay_wall = t.elapsed().as_secs_f64();
    first_mismatch(&outcomes, &replayed).map_err(|e| format!("engine vs replay: {e}"))?;
    let prefix = &s.specs[..mix.reference_prefix];
    let oracle = reference::run_sessions(&s.params, &s.authority, &s.pool, &s.retry, prefix);
    first_mismatch(&outcomes[..prefix.len()], &oracle)
        .map_err(|e| format!("engine vs engine::reference: {e}"))?;
    let two_workers = s.engine(crate::report::workers(2)).run(prefix);
    if digest(&two_workers) != digest(&outcomes[..prefix.len()]) {
        return Err("engine outcome digest differs between 1 and 2 workers".into());
    }

    let attempts: u64 = outcomes.iter().map(|o| u64::from(o.attempts)).sum();
    let discovered = outcomes.iter().filter(|o| o.report.discovered).count();
    let mut m = Metrics::default();
    m.set(
        "fail_share",
        1.0 - discovered as f64 / outcomes.len() as f64,
    );
    if trace {
        let mut tracer = Tracer::new(true);
        let t = Instant::now();
        let (traced, counts_r) = replay(&s, &mut tracer);
        let traced_wall = t.elapsed().as_secs_f64();
        first_mismatch(&outcomes, &traced).map_err(|e| format!("engine vs traced replay: {e}"))?;
        m.attribution(&tracer, mix.name)?;
        m.set("engine.batch_gain", replay_wall / engine_wall);
        m.set("engine.run_wall_s", engine_wall);
        m.set("replay.untraced_wall_s", replay_wall);
        m.set("replay.traced_wall_s", traced_wall);
        m.set("trace.overhead", traced_wall / replay_wall);
        counts_r.report(&mut m);
        m.merge(counts);
    } else {
        m.set("setup_s", median(&setup_walls));
        m.set("handshakes_per_s", attempts as f64 / engine_wall);
        m.set("discoveries_per_s", discovered as f64 / engine_wall);
        m.set("pairs_per_s", outcomes.len() as f64 / engine_wall);
        m.set("peak_rss_mb", peak_rss_mb);
    }
    Ok(Run {
        attempted: outcomes.len() as u64,
        digest: digest(&outcomes),
        workers: 1,
        passes: walls.len(),
        metrics: m,
    })
}

/// Work counts the replay observes at its layer boundaries.
#[derive(Default)]
struct Counts {
    sync_calls: u64,
    sync_triggers: u64,
    sync_useful: u64,
    sync_correlations: u64,
    sync_decode_fail: u64,
    chips_rendered: u64,
    ecc_decodes: u64,
    ecc_decode_fail: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Counts {
    fn report(&self, m: &mut Metrics) {
        m.set("dsss.sync.calls", self.sync_calls as f64);
        m.set("dsss.sync.triggers", self.sync_triggers as f64);
        m.set("dsss.sync.correlations", self.sync_correlations as f64);
        m.set(
            "dsss.sync.useful_ratio",
            ratio(self.sync_useful, self.sync_triggers),
        );
        m.set(
            "dsss.sync.decode_fail_ratio",
            ratio(self.sync_decode_fail, self.sync_triggers),
        );
        m.set("dsss.channel.chips_rendered", self.chips_rendered as f64);
        m.set("ecc.decode_calls", self.ecc_decodes as f64);
        m.set(
            "ecc.decode_fail_ratio",
            ratio(self.ecc_decode_fail, self.ecc_decodes),
        );
    }
}

/// The replay's reusable state: one codec and one session-code cache for
/// every session, as in `engine::reference::run_sessions`.
struct Replayer<'s, 't> {
    s: &'s Setup,
    tr: &'t mut Tracer,
    counts: Counts,
    codec: FrameCodec,
    cache: SessionCodeCache,
}

/// Replays every session of the pass, in order, through the sequential
/// resilient handshake loop's steps.
fn replay(s: &Setup, tr: &mut Tracer) -> (Vec<SessionOutcome>, Counts) {
    let root = tr.begin(Layer::Root);
    let mut r = Replayer {
        s,
        tr,
        counts: Counts::default(),
        codec: FrameCodec::new(s.params.mu).expect("Table I mu is valid"),
        cache: SessionCodeCache::new(1024),
    };
    let mut out = Vec::with_capacity(s.specs.len());
    for spec in &s.specs {
        let open = r.tr.begin(Layer::Session);
        out.push(r.session(spec));
        r.tr.end(open);
    }
    let counts = r.counts;
    tr.end(root);
    (out, counts)
}

impl Replayer<'_, '_> {
    fn session(&mut self, spec: &SessionSpec) -> SessionOutcome {
        let (b1, sb1): (&[usize], usize) = match &spec.kind {
            SessionKind::Direct => (&spec.b_codes, spec.shared_b),
            SessionKind::MultiHop {
                relay_a_codes,
                relay_shared_a,
                ..
            } => (relay_a_codes, *relay_shared_a),
        };
        let leg1 = self.leg(&spec.a_codes, b1, sb1, spec.jammer.as_ref(), spec.seed);
        match &spec.kind {
            SessionKind::MultiHop { relay_b_codes, .. } if !leg1.degraded => {
                let leg2 = self.leg(
                    relay_b_codes,
                    &spec.b_codes,
                    spec.shared_b,
                    None,
                    spec.seed ^ MNDP_LEG2_SALT,
                );
                // Discovery needs both legs; the stage is the last leg's
                // and the effort counters add up.
                SessionOutcome {
                    report: HandshakeReport {
                        discovered: leg1.report.discovered && leg2.report.discovered,
                        stage: leg2.report.stage,
                        scan_correlations: leg1.report.scan_correlations
                            + leg2.report.scan_correlations,
                        sync_retries: leg1.report.sync_retries + leg2.report.sync_retries,
                    },
                    attempts: leg1.attempts + leg2.attempts,
                    degraded: leg1.degraded || leg2.degraded,
                    backoff_s: leg1.backoff_s + leg2.backoff_s,
                }
            }
            _ => leg1,
        }
    }

    /// One leg: the budgeted attempt loop over one persistent medium.
    fn leg(
        &mut self,
        a_idx: &[usize],
        b_idx: &[usize],
        shared_b: usize,
        jam: Option<&JamSpec>,
        seed: u64,
    ) -> SessionOutcome {
        let retry = self.s.retry;
        let mut medium = Medium {
            channel: ChipChannel::new(seed ^ MEDIUM_SALT),
            cursor: 0,
        };
        let mut backoff_rng = SimRng::seed_from_u64(seed ^ BACKOFF_SALT);
        let mut backoff_s = 0.0;
        let mut attempts = 0;
        let mut report = None;
        for attempt in 1..=retry.max_attempts.max(1) {
            attempts = attempt;
            backoff_s += retry.backoff_delay(attempt, &mut backoff_rng);
            let attempt_seed = seed ^ u64::from(attempt - 1).wrapping_mul(ATTEMPT_SALT);
            let r = self.attempt(a_idx, b_idx, shared_b, jam, attempt_seed, &mut medium);
            let discovered = r.discovered;
            report = Some(r);
            if discovered {
                break;
            }
        }
        let report = report.expect("at least one attempt");
        SessionOutcome {
            degraded: !report.discovered,
            report,
            attempts,
            backoff_s,
        }
    }

    /// One four-message handshake attempt at chip level.
    fn attempt(
        &mut self,
        a_idx: &[usize],
        b_idx: &[usize],
        shared_b: usize,
        jam: Option<&JamSpec>,
        seed: u64,
        medium: &mut Medium,
    ) -> HandshakeReport {
        let s = self.s;
        let params = &s.params;
        let pool = &s.pool;
        let n = params.n_chips;
        let tau = params.tau;
        let wire = WireConfig::from_params(params);
        let mut rng = SimRng::seed_from_u64(seed);

        let (mut initiator, mut responder) = self.tr.span(Layer::KeyIssue, || {
            let i = Initiator::new_with_format(
                s.authority.issue(NodeId(1)),
                wire,
                WireFormat::Legacy,
                n,
                &mut rng,
            );
            let r = Responder::new_with_format(
                s.authority.issue(NodeId(2)),
                wire,
                WireFormat::Legacy,
                n,
                REPLAY_CAPACITY,
                &mut rng,
            );
            (i, r)
        });

        // Message 1: A broadcasts HELLO once per code in its bank; B
        // renders its buffering window and sweeps it with its own bank.
        let hello_bits = self.tr.span(Layer::Endpoint, || initiator.hello_frame());
        let mut hello_coded = Vec::new();
        let codec = &mut self.codec;
        self.tr.span(Layer::EccEncode, || {
            codec
                .encode_into(&hello_bits, &mut hello_coded)
                .expect("non-empty HELLO")
        });
        let msg_chips = hello_coded.len() * n;
        let base = medium.cursor;
        let channel = &mut medium.channel;
        self.tr.span(Layer::ChannelTransmit, || {
            for (k, &c) in a_idx.iter().enumerate() {
                channel.transmit(
                    base + (k * msg_chips) as u64,
                    spread(&hello_coded, &pool[c]),
                    1,
                );
            }
            if let Some(j) = jam.filter(|j| j.first_message == 0) {
                let jam_bits = ((hello_coded.len() as f64) * j.fraction).round() as usize;
                if jam_bits > 0 {
                    for copy in 0..a_idx.len() {
                        let start_bit = copy * hello_coded.len() + (hello_coded.len() - jam_bits);
                        let garbage: Vec<bool> = (0..jam_bits).map(|_| rng.gen::<bool>()).collect();
                        channel.transmit(
                            base + (start_bit * n) as u64,
                            spread(&garbage, &pool[j.code]),
                            j.amplitude,
                        );
                    }
                }
            }
        });
        let window = msg_chips * a_idx.len();
        let mut buffer = Vec::new();
        self.tr.span(Layer::ChannelRender, || {
            channel.render_into(&mut buffer, base, window)
        });
        self.counts.chips_rendered += window as u64;
        medium.advance(window);

        let b_refs: Vec<&SpreadCode> = b_idx.iter().map(|&c| &pool[c]).collect();
        let bank = self
            .tr
            .span(Layer::CorrelatePrefix, || MultiCorrelator::new(&b_refs));
        let mut scanner = self
            .tr
            .span(Layer::CorrelatePrefix, || bank.scanner(&buffer));
        let mut scratch = ScanScratch::new();
        let mut frame = Frame {
            bits: Vec::new(),
            erased: Vec::new(),
        };
        let mut hello_decoded = Vec::new();
        let mut scan_correlations = 0;
        let mut sync_retries = 0;
        let mut confirm = None;
        let mut pos = 0;
        while pos + n <= buffer.len() {
            self.counts.sync_calls += 1;
            let hit = self.tr.span(Layer::SyncScan, || {
                scan_from_with(&mut scanner, pos, tau, &mut scratch)
            });
            let Some(h) = hit else { break };
            self.counts.sync_triggers += 1;
            scan_correlations += h.correlations_computed;
            let code = scanner.bank().codes()[h.code_index];
            let codec = &mut self.codec;
            let decoded = self.tr.span(Layer::SyncDecode, || {
                decode_frame_into(
                    scanner.samples(),
                    h.offset,
                    code,
                    hello_coded.len(),
                    tau,
                    &mut frame,
                ) && codec
                    .decode_into(
                        &frame.bits,
                        &frame.erased,
                        hello_bits.len(),
                        &mut hello_decoded,
                    )
                    .is_ok()
            });
            if !decoded {
                self.counts.sync_decode_fail += 1;
            }
            if decoded && h.code_index == shared_b {
                let heard = self.tr.span(Layer::Endpoint, || {
                    responder.on_hello(&hello_decoded, CodeId(shared_b as u32))
                });
                if let Ok(c) = heard {
                    self.counts.sync_useful += 1;
                    confirm = Some(c);
                    break;
                }
            }
            sync_retries += 1;
            pos = h.offset + n;
        }
        self.counts.sync_correlations += scan_correlations;
        let fail = |stage| HandshakeReport {
            discovered: false,
            stage,
            scan_correlations,
            sync_retries,
        };
        let Some(confirm) = confirm else {
            return fail(Stage::NoHello);
        };

        // Messages 2-4 on the shared code.
        let code = &pool[b_idx[shared_b]];
        let mut decoded = Vec::new();
        if !self.exchange(&confirm, code, jam, 1, medium, &mut rng, &mut decoded) {
            return fail(Stage::NoConfirm);
        }
        let Ok(auth_a) = self.tr.span(Layer::Endpoint, || {
            initiator.on_confirm(&decoded, CodeId(shared_b as u32))
        }) else {
            return fail(Stage::NoConfirm);
        };
        if !self.exchange(&auth_a, code, jam, 2, medium, &mut rng, &mut decoded) {
            return fail(Stage::AuthAFailed);
        }
        let cache_b = &mut self.cache;
        let Ok((auth_b, est_b)) = self.tr.span(Layer::Endpoint, || {
            responder.on_auth_a_cached(&decoded, cache_b)
        }) else {
            return fail(Stage::AuthAFailed);
        };
        if !self.exchange(&auth_b, code, jam, 3, medium, &mut rng, &mut decoded) {
            return fail(Stage::AuthBFailed);
        }
        let cache_a = &mut self.cache;
        let Ok(est_a) = self.tr.span(Layer::Endpoint, || {
            initiator.on_auth_b_cached(&decoded, cache_a)
        }) else {
            return fail(Stage::AuthBFailed);
        };
        HandshakeReport {
            discovered: est_a.session_code == est_b.session_code,
            stage: Stage::Complete,
            scan_correlations,
            sync_retries,
        }
    }

    /// Sends one exchange message on `code` at the medium's cursor, with
    /// the jammer covering its tail when it attacks message `index`, and
    /// receives it back through the fused despreader and the ECC decoder.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &mut self,
        message: &[bool],
        code: &SpreadCode,
        jam: Option<&JamSpec>,
        index: usize,
        medium: &mut Medium,
        rng: &mut SimRng,
        decoded: &mut Vec<bool>,
    ) -> bool {
        let pool = &self.s.pool;
        let n = code.len();
        let tau = self.s.params.tau;
        let mut coded = Vec::new();
        let codec = &mut self.codec;
        self.tr.span(Layer::EccEncode, || {
            codec
                .encode_into(message, &mut coded)
                .expect("non-empty message")
        });
        let start = medium.cursor;
        let channel = &mut medium.channel;
        self.tr.span(Layer::ChannelTransmit, || {
            channel.transmit(start, spread(&coded, code), 1);
            if let Some(j) = jam.filter(|j| index >= j.first_message) {
                let jam_bits = ((coded.len() as f64) * j.fraction).round() as usize;
                if jam_bits > 0 {
                    let start_bit = coded.len() - jam_bits;
                    let garbage: Vec<bool> = (0..jam_bits).map(|_| rng.gen::<bool>()).collect();
                    channel.transmit(
                        start + (start_bit * n) as u64,
                        spread(&garbage, &pool[j.code]),
                        j.amplitude,
                    );
                }
            }
        });
        let channel = &medium.channel;
        let (bits, erased) = self.tr.span(Layer::SpreadDespread, || {
            despread_from_channel(channel, start, code, coded.len(), tau)
        });
        medium.advance(coded.len() * n);
        self.counts.ecc_decodes += 1;
        let codec = &mut self.codec;
        let ok = self.tr.span(Layer::EccDecode, || {
            codec
                .decode_into(&bits, &erased, message.len(), decoded)
                .is_ok()
        });
        if !ok {
            self.counts.ecc_decode_fail += 1;
        }
        ok
    }
}

/// One leg's persistent chip medium: messages land at an advancing cursor
/// and finished windows are retired, as in the resilient handshake loop.
struct Medium {
    channel: ChipChannel,
    cursor: u64,
}

impl Medium {
    fn advance(&mut self, chips: usize) {
        self.cursor += chips as u64;
        self.channel.retire_before(self.cursor);
    }
}
