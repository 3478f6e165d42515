//! Batch session engine: thousands-to-millions of concurrent D-NDP/M-NDP
//! handshakes advanced tick-by-tick against shared chip media.
//!
//! The single-link driver [`crate::chiplink::run_link`] runs one session
//! at a time: every HELLO broadcast renders its own buffer and pays its own
//! prefix-sum pass, and every retry loop owns a private channel. This
//! module runs the *same* handshake step machine
//! (`chiplink::Link`: broadcast HELLO, hear HELLO, one
//! CONFIRM/AUTH_A/AUTH_B exchange per step) with the same retry
//! bookkeeping (`chiplink::Attempts`), but drives many sessions
//! through it at once:
//!
//! * **Arena state.** Per-session state lives in a slot arena with a
//!   struct-of-arrays hot path (one stage marker per session) so the tick
//!   loop scans a cache-friendly array, touching the cold per-session slot
//!   only when a session is actually due.
//! * **"m receivers, one pass."** All sessions of a shard that broadcast a
//!   HELLO in the same tick land on one shared `LinkMedium` at disjoint
//!   chip windows. The engine renders the whole chunk once and computes
//!   **one** pass over it ([`jrsnd_dsss::correlate::PrefixSums`]: exact
//!   `i64` prefix sums plus the bit planes of the correlation kernel);
//!   every receiver's sliding-window scan then borrows its window's totals
//!   and planes via [`MultiCorrelator::scanner_in`] instead of
//!   recomputing them — `m` receivers, one `O(len)` pass.
//! * **Pooled scratch.** One [`LinkPools`] (frame codec, session-code
//!   cache, staging / frame / scan / render scratch) and one correlator
//!   bank per shard, reused by every session; the warm engine makes no
//!   steady-state allocations in its scan machinery.
//! * **Bounded channel memory.** Each shard's `LinkMedium` cursor only
//!   moves forward, and finished windows are retired
//!   ([`jrsnd_dsss::channel::ChipChannel::retire_before`]), so channel
//!   memory is bounded by one chunk regardless of run length.
//! * **Static seed sharding.** Session `i` belongs to shard `i % shards`;
//!   workers own fixed shard sets (`shard % workers`). Every per-session
//!   decision is keyed only by the session's own seeded RNGs, so the
//!   engine's outputs are **byte-identical** to the sequential
//!   [`reference`](mod@reference) oracle and invariant under `JRSND_THREADS`.
//!
//! # Why the batch is bit-exact
//!
//! The shared medium is noiseless (ambient noise is a per-chip function of
//! the channel's noise threshold, which stays 0), so a rendered window
//! containing only one session's transmissions is a pure translation of
//! what that session's private channel would render; disjoint cursor
//! windows guarantee exactly that. Shared prefix sums and bit planes are
//! exact integer arithmetic — `sums[base+o+n] − sums[base+o]` equals the
//! private sum, and the plane words at `base + o` give the same
//! positive-chip sums.
//! Pooled codecs, caches, and scratch change *work*, never outcomes. Each
//! session draws jam garbage and nonces from its own attempt-seeded RNG, so
//! interleaving sessions cannot perturb any draw. The one deliberate
//! deviation from [`crate::chiplink::run_link`]: the engine
//! does not support fault injection (a fault stream keyed to a shared
//! medium would couple sessions), so batch runs model jamming and retries
//! but not injected chip faults.

use crate::chiplink::{
    Attempts, ChipJammer, HandshakeReport, Link, LinkMedium, LinkOptions, LinkPools, LinkSpec,
    MEDIUM_SALT,
};
use crate::params::Params;
use jrsnd_crypto::ibc::Authority;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::correlate::MultiCorrelator;
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::{metric_counter, metric_gauge};

/// Seed salt separating an M-NDP session's second (relay → B) leg from its
/// first, so the two legs draw independent nonces and jitter.
const MNDP_LEG2_SALT: u64 = 0x6D6E_6470_0002;

/// A same-code reactive jammer attacking one session, by pool index.
#[derive(Debug, Clone)]
pub struct JamSpec {
    /// Pool index of the code the jammer transmits with.
    pub code: usize,
    /// Fraction of each message (from the tail) it covers.
    pub fraction: f64,
    /// Transmit amplitude relative to legitimate nodes.
    pub amplitude: i32,
    /// First handshake message attacked (0 = HELLO … 3 = AUTH_B).
    pub first_message: usize,
}

impl JamSpec {
    fn instantiate(&self, pool: &[SpreadCode]) -> ChipJammer {
        ChipJammer {
            code: pool[self.code].clone(),
            fraction: self.fraction,
            amplitude: self.amplitude,
            first_message: self.first_message,
        }
    }
}

/// Whether a session is a direct discovery or a two-leg multi-hop one.
#[derive(Debug, Clone)]
pub enum SessionKind {
    /// One D-NDP handshake between A and B.
    Direct,
    /// M-NDP through one relay R: leg 1 is A ↔ R (against
    /// `relay_a_codes`), leg 2 is R ↔ B (from `relay_b_codes`). The
    /// session discovers iff **both** legs discover; the jammer (if any)
    /// attacks leg 1 — the over-the-air hop next to A.
    MultiHop {
        /// R's pre-distributed codes for the A-facing leg (pool indices).
        relay_a_codes: Vec<usize>,
        /// R's pre-distributed codes for the B-facing leg (pool indices).
        relay_b_codes: Vec<usize>,
        /// Index in `relay_a_codes` of the code shared with A.
        relay_shared_a: usize,
        /// Index in `relay_b_codes` of the code shared with B.
        relay_shared_b: usize,
    },
}

/// One session's full description: code sets (as indices into the shared
/// pool), the shared-code positions, the optional jammer, the session seed,
/// and the discovery kind.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// A's pre-distributed codes, as pool indices.
    pub a_codes: Vec<usize>,
    /// B's pre-distributed codes, as pool indices.
    pub b_codes: Vec<usize>,
    /// Index in `a_codes` of the code shared with the first-leg peer.
    pub shared_a: usize,
    /// Index in `b_codes` of the code shared with the last-leg peer.
    pub shared_b: usize,
    /// Optional same-code jammer attacking the session's first leg.
    pub jammer: Option<JamSpec>,
    /// Session seed: nonces, jam garbage, and backoff jitter derive from it.
    pub seed: u64,
    /// Direct D-NDP or two-leg M-NDP.
    pub kind: SessionKind,
}

impl SessionSpec {
    /// Leg 1's far end: the relay's A-facing code set for a multi-hop
    /// session, B's code set for a direct one.
    fn leg1_peer(&self) -> (&[usize], usize) {
        match &self.kind {
            SessionKind::Direct => (&self.b_codes, self.shared_b),
            SessionKind::MultiHop {
                relay_a_codes,
                relay_shared_a,
                ..
            } => (relay_a_codes, *relay_shared_a),
        }
    }
}

/// The final outcome of one engine session (all legs, all retry attempts).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The last attempt's chip-level report (legs merged for M-NDP).
    pub report: HandshakeReport,
    /// Attempts made across all legs.
    pub attempts: u32,
    /// Whether any leg exhausted its retry budget without discovering.
    pub degraded: bool,
    /// Total backoff spent waiting across all legs, in seconds.
    pub backoff_s: f64,
}

/// Engine tuning knobs. Apart from `retry` — the same budget the
/// sequential oracle takes — none of them affect outcomes, only
/// scheduling and memory shape, which the equivalence tests assert.
/// Everything that changes the bits on the air, the wire format
/// included, lives in [`Params`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Sessions whose HELLO windows share one render + prefix-sum pass.
    pub chunk: usize,
    /// Fixed shard count; session `i` lives on shard `i % shards`.
    /// Outputs are independent of this (each session is self-contained);
    /// it bounds how many workers can help.
    pub shards: usize,
    /// Retry/backoff budget applied to every leg of every session.
    pub retry: RetryPolicy,
    /// Worker threads; `None` resolves `JRSND_THREADS` then available
    /// parallelism. Clamped to `[1, shards]`.
    pub threads: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            chunk: 64,
            shards: 16,
            retry: RetryPolicy::none(),
            threads: None,
        }
    }
}

/// The batch session engine. Borrows the parameter set, the IBC authority,
/// and the deployment's code pool; [`BatchEngine::run`] advances any number
/// of [`SessionSpec`]s to completion.
#[derive(Debug)]
pub struct BatchEngine<'p> {
    params: &'p Params,
    authority: &'p Authority,
    pool: &'p [SpreadCode],
    config: EngineConfig,
}

/// Hot per-session stage marker (struct-of-arrays with the slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessStage {
    /// Due to (re)broadcast its HELLO.
    Hello,
    /// HELLO heard; one message exchange per tick.
    InFlight,
    Done,
}

/// Cold per-session state, touched only when the session is due.
struct Slot {
    // Current-leg configuration (rewritten between M-NDP legs).
    a_idx: Vec<usize>,
    b_idx: Vec<usize>,
    shared_b: usize,
    jammer: Option<ChipJammer>,
    attempts: Attempts,
    /// The attempt in flight.
    link: Option<Link>,
    // Cross-leg bookkeeping.
    leg1: Option<SessionOutcome>,
    outcome: Option<SessionOutcome>,
}

impl Slot {
    fn new(spec: &SessionSpec, pool: &[SpreadCode]) -> Self {
        let (b_idx, shared_b) = spec.leg1_peer();
        Slot {
            a_idx: spec.a_codes.clone(),
            b_idx: b_idx.to_vec(),
            shared_b,
            jammer: spec.jammer.as_ref().map(|j| j.instantiate(pool)),
            attempts: Attempts::new(spec.seed),
            link: None,
            leg1: None,
            outcome: None,
        }
    }
}

/// Merges an M-NDP session's two leg outcomes: discovery requires both,
/// the stage reported is the final leg's, and effort counters sum. Shared
/// by the engine and the [`reference`] oracle so the semantics cannot
/// diverge.
fn merge_mndp_legs(leg1: SessionOutcome, leg2: SessionOutcome) -> SessionOutcome {
    SessionOutcome {
        report: HandshakeReport {
            discovered: leg1.report.discovered && leg2.report.discovered,
            stage: leg2.report.stage,
            scan_correlations: leg1.report.scan_correlations + leg2.report.scan_correlations,
            sync_retries: leg1.report.sync_retries + leg2.report.sync_retries,
        },
        attempts: leg1.attempts + leg2.attempts,
        degraded: leg1.degraded || leg2.degraded,
        backoff_s: leg1.backoff_s + leg2.backoff_s,
    }
}

/// Closes the current attempt with its `report`. A failed attempt retries
/// while the budget allows; otherwise the leg ends, and either the
/// session's outcome is stored (direct, final leg, or a degraded leg) or
/// the slot is rewritten for the M-NDP second leg.
fn end_attempt(
    slot: &mut Slot,
    st: &mut SessStage,
    spec: &SessionSpec,
    retry: &RetryPolicy,
    report: HandshakeReport,
    active: &mut usize,
) {
    slot.link = None;
    if report.discovered {
        metric_counter!("engine.handshakes_completed").inc();
    } else if slot.attempts.retry_after_failure(retry) {
        *st = SessStage::Hello;
        return;
    }
    let degraded = slot.attempts.close(report.discovered);
    let leg = SessionOutcome {
        report,
        attempts: slot.attempts.made,
        degraded,
        backoff_s: slot.attempts.backoff_s,
    };
    match &spec.kind {
        SessionKind::MultiHop { relay_b_codes, .. } if slot.leg1.is_none() && !degraded => {
            slot.leg1 = Some(leg);
            slot.a_idx = relay_b_codes.clone();
            slot.b_idx = spec.b_codes.clone();
            slot.shared_b = spec.shared_b;
            slot.jammer = None;
            slot.attempts = Attempts::new(spec.seed ^ MNDP_LEG2_SALT);
            *st = SessStage::Hello;
        }
        _ => {
            slot.outcome = Some(match slot.leg1.take() {
                Some(l1) => merge_mndp_legs(l1, leg),
                None => leg,
            });
            *st = SessStage::Done;
            *active -= 1;
        }
    }
}

impl<'p> BatchEngine<'p> {
    /// Builds an engine over a deployment's shared code pool.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty or any pool code's length differs from
    /// `params.n_chips`.
    pub fn new(
        params: &'p Params,
        authority: &'p Authority,
        pool: &'p [SpreadCode],
        config: EngineConfig,
    ) -> Self {
        assert!(!pool.is_empty(), "empty code pool");
        assert!(
            pool.iter().all(|c| c.len() == params.n_chips),
            "pool codes must match params.n_chips"
        );
        assert!(config.chunk > 0, "chunk must be at least 1");
        assert!(config.shards > 0, "need at least one shard");
        BatchEngine {
            params,
            authority,
            pool,
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn validate(&self, spec: &SessionSpec) {
        let check = |idx: &[usize], shared: usize, what: &str| {
            assert!(!idx.is_empty(), "{what}: empty code set");
            assert!(
                idx.iter().all(|&k| k < self.pool.len()),
                "{what}: pool index out of range"
            );
            assert!(shared < idx.len(), "{what}: shared index out of range");
        };
        check(&spec.a_codes, spec.shared_a, "a_codes");
        check(&spec.b_codes, spec.shared_b, "b_codes");
        if let Some(j) = &spec.jammer {
            assert!(j.code < self.pool.len(), "jammer pool index out of range");
            assert!(
                (0.0..=1.0).contains(&j.fraction),
                "jam fraction must lie in [0, 1]"
            );
        }
        if let SessionKind::MultiHop {
            relay_a_codes,
            relay_b_codes,
            relay_shared_a,
            relay_shared_b,
        } = &spec.kind
        {
            check(relay_a_codes, *relay_shared_a, "relay_a_codes");
            check(relay_b_codes, *relay_shared_b, "relay_b_codes");
        }
    }

    /// Runs every session to completion and returns outcomes in spec
    /// order. Byte-identical to [`reference::run_sessions`] over the same
    /// specs, and invariant under thread count.
    ///
    /// # Panics
    ///
    /// Panics if any spec references a pool or shared index out of range,
    /// or a jammer's `fraction` lies outside `[0, 1]`.
    pub fn run(&self, specs: &[SessionSpec]) -> Vec<SessionOutcome> {
        if specs.is_empty() {
            return Vec::new();
        }
        for spec in specs {
            self.validate(spec);
        }
        let shards = self.config.shards.clamp(1, specs.len());
        let workers = crate::montecarlo::resolve_threads(self.config.threads).clamp(1, shards);
        metric_gauge!("engine.sessions_active").set(specs.len() as f64);
        let mut out: Vec<Option<SessionOutcome>> = Vec::new();
        out.resize_with(specs.len(), || None);
        if workers <= 1 {
            for shard in 0..shards {
                for (i, o) in self.run_shard(specs, shard, shards) {
                    out[i] = Some(o);
                }
            }
        } else {
            let results: Vec<Vec<(usize, SessionOutcome)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut res = Vec::new();
                            let mut shard = w;
                            while shard < shards {
                                res.extend(self.run_shard(specs, shard, shards));
                                shard += workers;
                            }
                            res
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("engine worker panicked"))
                    .collect()
            });
            for res in results {
                for (i, o) in res {
                    out[i] = Some(o);
                }
            }
        }
        metric_gauge!("engine.sessions_active").set(0.0);
        out.into_iter()
            .map(|o| o.expect("every session finalized"))
            .collect()
    }

    /// Drives shard `shard`'s sessions (spec indices `≡ shard mod shards`)
    /// to completion on one shared medium with one set of [`LinkPools`].
    fn run_shard(
        &self,
        specs: &[SessionSpec],
        shard: usize,
        shards: usize,
    ) -> Vec<(usize, SessionOutcome)> {
        let retry = &self.config.retry;
        let orig: Vec<usize> = (shard..specs.len()).step_by(shards).collect();
        let mut slots: Vec<Slot> = orig
            .iter()
            .map(|&i| Slot::new(&specs[i], self.pool))
            .collect();
        let mut stage: Vec<SessStage> = vec![SessStage::Hello; slots.len()];
        let mut active = slots.len();

        // Shard-pooled machinery: one medium, one set of link pools, and
        // one correlator bank re-pointed at each session's code set.
        let mut medium = LinkMedium::new((shard as u64) ^ MEDIUM_SALT, None);
        let mut pools = LinkPools::new(self.params);
        let pool_refs: Vec<&SpreadCode> = self.pool.iter().collect();
        let pool_bank = MultiCorrelator::new(&pool_refs);
        let mut session_bank = MultiCorrelator::new(&[]);
        let mut a_refs: Vec<&SpreadCode> = Vec::new();
        // (slot, chip offset within the chunk, chips spanned) per HELLO.
        let mut entries: Vec<(usize, usize, usize)> = Vec::new();
        let mut due: Vec<usize> = Vec::new();

        while active > 0 {
            metric_counter!("engine.ticks").inc();

            // ---- Phase A: every Hello-due session broadcasts, then each
            // chunk is rendered and prefix-summed ONCE and all of its
            // receivers scan off the shared sums. ----
            due.clear();
            due.extend((0..slots.len()).filter(|&i| stage[i] == SessStage::Hello));
            for chunk in due.chunks(self.config.chunk) {
                let chunk_base = medium.cursor;
                entries.clear();
                for &i in chunk {
                    let s = &mut slots[i];
                    let seed = s.attempts.begin(retry);
                    let mut link = Link::new(self.params, self.authority, seed);
                    a_refs.clear();
                    a_refs.extend(s.a_idx.iter().map(|&k| &self.pool[k]));
                    let base = medium.cursor;
                    let span = link.broadcast_hello(
                        &a_refs,
                        s.jammer.as_ref(),
                        &mut medium.channel,
                        base,
                        &mut pools,
                    );
                    medium.bump(span);
                    s.link = Some(link);
                    entries.push((i, (base - chunk_base) as usize, span as usize));
                }
                let chunk_len = (medium.cursor - chunk_base) as usize;
                if pools.render_capacity() >= chunk_len {
                    metric_counter!("engine.scratch_reused").inc();
                }
                pools.render(&medium.channel, chunk_base, chunk_len);
                metric_counter!("engine.shared_scan_passes").inc();
                for &(i, rel, span) in &entries {
                    let s = &mut slots[i];
                    session_bank.assign_from_pool(&pool_bank, &s.b_idx);
                    let link = s.link.as_mut().expect("fresh attempt");
                    match link.hear_hello(&session_bank, rel, span, s.shared_b, &mut pools) {
                        None => stage[i] = SessStage::InFlight,
                        Some(report) => end_attempt(
                            s,
                            &mut stage[i],
                            &specs[orig[i]],
                            retry,
                            report,
                            &mut active,
                        ),
                    }
                }
                // The chunk's windows are all consumed: retire them.
                medium.advance(0);
            }

            // ---- Phase B: one message exchange per in-flight session. ----
            for i in 0..slots.len() {
                if stage[i] != SessStage::InFlight {
                    continue;
                }
                let s = &mut slots[i];
                let code = &self.pool[s.b_idx[s.shared_b]];
                let link = s.link.as_mut().expect("in flight");
                if let Some(report) =
                    link.exchange(code, s.jammer.as_ref(), &mut medium, &mut pools)
                {
                    end_attempt(
                        s,
                        &mut stage[i],
                        &specs[orig[i]],
                        retry,
                        report,
                        &mut active,
                    );
                }
            }
        }

        orig.into_iter()
            .zip(slots)
            .map(|(i, s)| (i, s.outcome.expect("inactive shard session finalized")))
            .collect()
    }
}

/// The sequential oracle: every leg of every session run one at a time
/// through [`run_link`](crate::chiplink::run_link), with the same seed
/// derivations and the same leg-merge rule as the engine. The equivalence
/// tests assert the engine's outputs are byte-identical to this at every
/// session mix.
pub mod reference {
    use super::*;
    use crate::chiplink::run_link;

    /// Runs `specs` sequentially, one resilient handshake per leg, in
    /// `params.wire_format`, returning outcomes in spec order.
    pub fn run_sessions(
        params: &Params,
        authority: &Authority,
        pool: &[SpreadCode],
        retry: &RetryPolicy,
        specs: &[SessionSpec],
    ) -> Vec<SessionOutcome> {
        let options = LinkOptions {
            retry: *retry,
            faults: None,
        };
        let mut pools = LinkPools::new(params);
        let mut leg = |a_idx: &[usize],
                       b_idx: &[usize],
                       shared_a: usize,
                       shared_b: usize,
                       jam: Option<&JamSpec>,
                       seed: u64| {
            let a: Vec<SpreadCode> = a_idx.iter().map(|&k| pool[k].clone()).collect();
            let b: Vec<SpreadCode> = b_idx.iter().map(|&k| pool[k].clone()).collect();
            let jammer = jam.map(|j| j.instantiate(pool));
            let spec = LinkSpec {
                a_codes: &a,
                b_codes: &b,
                shared_a,
                shared_b,
                jammer: jammer.as_ref(),
                seed,
            };
            let r = run_link(params, authority, &spec, &options, &mut pools);
            SessionOutcome {
                report: r.report,
                attempts: r.attempts,
                degraded: r.degraded,
                backoff_s: r.backoff_s,
            }
        };
        specs
            .iter()
            .map(|spec| {
                let (b1, sb1) = spec.leg1_peer();
                let leg1 = leg(
                    &spec.a_codes,
                    b1,
                    spec.shared_a,
                    sb1,
                    spec.jammer.as_ref(),
                    spec.seed,
                );
                match &spec.kind {
                    SessionKind::MultiHop {
                        relay_b_codes,
                        relay_shared_b,
                        ..
                    } if !leg1.degraded => {
                        let leg2 = leg(
                            relay_b_codes,
                            &spec.b_codes,
                            *relay_shared_b,
                            spec.shared_b,
                            None,
                            spec.seed ^ MNDP_LEG2_SALT,
                        );
                        merge_mndp_legs(leg1, leg2)
                    }
                    _ => leg1,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chip_params() -> Params {
        let mut p = Params::table1();
        p.n_chips = 256;
        p.tau = 0.30;
        p
    }

    fn pool(seed: u64, count: usize, n: usize) -> Vec<SpreadCode> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| SpreadCode::random(n, &mut rng))
            .collect()
    }

    /// A small mixed workload: clean direct, tail-jammed direct, fully
    /// jammed direct (fails), and a clean multi-hop session.
    fn mixed_specs() -> Vec<SessionSpec> {
        vec![
            SessionSpec {
                a_codes: vec![0, 1, 2],
                b_codes: vec![3, 1, 4],
                shared_a: 1,
                shared_b: 1,
                jammer: None,
                seed: 901,
                kind: SessionKind::Direct,
            },
            SessionSpec {
                a_codes: vec![5, 2],
                b_codes: vec![2, 6],
                shared_a: 1,
                shared_b: 0,
                jammer: Some(JamSpec {
                    code: 2,
                    fraction: 0.20,
                    amplitude: 1,
                    first_message: 0,
                }),
                seed: 902,
                kind: SessionKind::Direct,
            },
            SessionSpec {
                a_codes: vec![0, 3],
                b_codes: vec![3, 7],
                shared_a: 1,
                shared_b: 0,
                jammer: Some(JamSpec {
                    code: 3,
                    fraction: 1.0,
                    amplitude: 3,
                    first_message: 0,
                }),
                seed: 903,
                kind: SessionKind::Direct,
            },
            SessionSpec {
                a_codes: vec![0, 1],
                b_codes: vec![6, 7],
                shared_a: 0,
                shared_b: 1,
                jammer: None,
                seed: 904,
                kind: SessionKind::MultiHop {
                    relay_a_codes: vec![4, 0],
                    relay_b_codes: vec![7, 5],
                    relay_shared_a: 1,
                    relay_shared_b: 0,
                },
            },
        ]
    }

    #[test]
    fn engine_matches_the_sequential_reference_on_a_mixed_workload() {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let specs = mixed_specs();
        for retry in [RetryPolicy::none(), RetryPolicy::budgeted(2)] {
            let config = EngineConfig {
                chunk: 2,
                shards: 3,
                retry,
                threads: Some(1),
            };
            let engine = BatchEngine::new(&params, &authority, &pool, config);
            let got = engine.run(&specs);
            let want = reference::run_sessions(&params, &authority, &pool, &retry, &specs);
            assert_eq!(got, want, "retry = {retry:?}");
            assert!(got[0].report.discovered, "clean direct session discovers");
            assert!(got[1].report.discovered, "20% tail jam is absorbed");
            assert!(!got[2].report.discovered, "full same-code jam kills it");
            assert!(got[3].report.discovered, "both M-NDP legs complete");
            assert_eq!(got[3].attempts, 2, "one attempt per M-NDP leg");
        }
    }

    #[test]
    fn packed_engine_matches_the_packed_sequential_reference() {
        let legacy_params = chip_params();
        let params = Params {
            wire_format: crate::wire::WireFormat::Packed,
            ..chip_params()
        };
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let specs = mixed_specs();
        let retry = RetryPolicy::budgeted(1);
        let config = EngineConfig {
            chunk: 2,
            shards: 3,
            retry,
            threads: Some(1),
        };
        let engine = BatchEngine::new(&params, &authority, &pool, config);
        let got = engine.run(&specs);
        let want = reference::run_sessions(&params, &authority, &pool, &retry, &specs);
        assert_eq!(got, want, "packed engine == packed sequential oracle");
        assert!(got[0].report.discovered, "clean packed session discovers");
        assert!(
            !got[2].report.discovered,
            "full same-code jam still kills it"
        );
        assert!(got[3].report.discovered, "packed M-NDP legs complete");
        // Airtime win: the packed HELLO round scans strictly fewer chips.
        let legacy = reference::run_sessions(&legacy_params, &authority, &pool, &retry, &specs);
        assert!(
            got[0].report.scan_correlations < legacy[0].report.scan_correlations,
            "packed {} vs legacy {} scan correlations",
            got[0].report.scan_correlations,
            legacy[0].report.scan_correlations
        );
    }

    #[test]
    fn outcomes_are_invariant_under_worker_count_and_chunking() {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let specs = mixed_specs();
        let run = |threads: usize, chunk: usize, shards: usize| {
            let config = EngineConfig {
                chunk,
                shards,
                retry: RetryPolicy::budgeted(1),
                threads: Some(threads),
            };
            BatchEngine::new(&params, &authority, &pool, config).run(&specs)
        };
        let baseline = run(1, 1, 1);
        for (threads, chunk, shards) in [(1, 64, 16), (2, 2, 4), (4, 3, 2), (3, 64, 3)] {
            assert_eq!(
                run(threads, chunk, shards),
                baseline,
                "threads={threads} chunk={chunk} shards={shards}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "jam fraction must lie in [0, 1]")]
    fn jam_fraction_above_one_is_rejected() {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let mut spec = mixed_specs().swap_remove(1);
        spec.jammer.as_mut().expect("jammed spec").fraction = 1.5;
        BatchEngine::new(&params, &authority, &pool, EngineConfig::default()).run(&[spec]);
    }

    #[test]
    fn engine_with_no_retries_reproduces_the_one_shot_driver() {
        use crate::chiplink::{run_link, LinkOptions, LinkPools, LinkSpec};
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let spec = &mixed_specs()[0];
        let engine = BatchEngine::new(
            &params,
            &authority,
            &pool,
            EngineConfig {
                threads: Some(1),
                ..EngineConfig::default()
            },
        );
        let got = &engine.run(std::slice::from_ref(spec))[0];
        let a: Vec<SpreadCode> = spec.a_codes.iter().map(|&k| pool[k].clone()).collect();
        let b: Vec<SpreadCode> = spec.b_codes.iter().map(|&k| pool[k].clone()).collect();
        let one_shot = run_link(
            &params,
            &authority,
            &LinkSpec {
                a_codes: &a,
                b_codes: &b,
                shared_a: spec.shared_a,
                shared_b: spec.shared_b,
                jammer: None,
                seed: spec.seed,
            },
            &LinkOptions::default(),
            &mut LinkPools::new(&params),
        );
        assert_eq!(got.report, one_shot.report);
        assert_eq!(got.attempts, 1);
        assert!(!got.degraded);
        assert_eq!(got.backoff_s, 0.0);
    }
}
