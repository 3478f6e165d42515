//! The complete D-NDP handshake executed at chip level.
//!
//! This module glues every substrate together exactly as Section V-B
//! describes: wire-framed messages (`messages`), (1+μ)-expansion ECC
//! (`jrsnd_ecc`), spreading and sliding-window synchronization
//! (`jrsnd_dsss`), a shared chip medium with an optional same-code jammer,
//! and the IBC mutual authentication plus session-code derivation
//! (`jrsnd_crypto`). The Monte-Carlo driver abstracts these steps into
//! per-message jam probabilities; this path validates that abstraction on
//! real chips.
//!
//! The handshake itself is one step machine, `Link`: broadcast HELLO,
//! hear HELLO, then one CONFIRM / AUTH_A / AUTH_B exchange per step. Two
//! drivers run it: [`run_link`] (one session on its own channel, with a
//! retry budget and optional fault injection) and the batch engine in
//! [`crate::engine`] (many sessions sharing one medium per shard). Both
//! keep their retry bookkeeping in `Attempts`, and both draw their
//! scratch from one [`LinkPools`].

use crate::handshake::{Established, Initiator, Responder};
use crate::messages::{FrameCodec, MessageKind, WireConfig};
use crate::params::Params;
use crate::wire::WireFormat;
use jrsnd_crypto::ibc::{Authority, NodeId};
use jrsnd_crypto::session::SessionCodeCache;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::{CodeId, SpreadCode};
use jrsnd_dsss::correlate::{MultiCorrelator, PrefixSums};
use jrsnd_dsss::spread::{despread_from_channel, spread};
use jrsnd_dsss::sync::{decode_frame_into, scan_from_with, Frame, ScanScratch};
use jrsnd_sim::faults::FaultInjector;
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::{metric_counter, metric_histogram};
use rand::{Rng, SeedableRng};

/// Attempt re-keying increment: attempt `k` of a session runs on
/// `seed ^ (k − 1)·ATTEMPT_SALT`.
const ATTEMPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Backoff-jitter stream salt.
const BACKOFF_SALT: u64 = 0xBACC_0FF5;
/// Channel seed salt. The medium is noiseless, so the seed only keys the
/// injected-fault stream.
pub(crate) const MEDIUM_SALT: u64 = 0x1111;

/// Session-code cache capacity of a [`LinkPools`].
const SESSION_CACHE_CAPACITY: usize = 1024;

/// How the chip-level jammer behaves during the handshake.
#[derive(Debug, Clone)]
pub struct ChipJammer {
    /// The code the jammer transmits with (jamming only works if it equals
    /// the code actually in use).
    pub code: SpreadCode,
    /// Fraction of each message (from the tail) it covers.
    pub fraction: f64,
    /// Transmit amplitude relative to legitimate nodes.
    pub amplitude: i32,
    /// First handshake message to attack (0 = HELLO, 1 = CONFIRM,
    /// 2 = AUTH_A, 3 = AUTH_B) — `> 0` is the Section V-B "intelligent
    /// attack" that spares the HELLO and targets the tail of the
    /// handshake. Messages before this index are left untouched.
    pub first_message: usize,
}

impl ChipJammer {
    /// A jammer attacking every message from the HELLO onwards.
    pub fn from_start(code: SpreadCode, fraction: f64, amplitude: i32) -> Self {
        ChipJammer {
            code,
            fraction,
            amplitude,
            first_message: 0,
        }
    }

    fn attacks(&self, message_index: usize) -> bool {
        message_index >= self.first_message
    }
}

/// The result of one chip-level D-NDP handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeReport {
    /// Whether both sides authenticated and derived equal session codes.
    pub discovered: bool,
    /// Which stage the handshake reached.
    pub stage: Stage,
    /// Correlations evaluated by B's initial sliding-window scan.
    pub scan_correlations: u64,
    /// Sync candidates B discarded (noise syncs or jammed frames) before
    /// it either recovered a HELLO or gave up.
    pub sync_retries: u64,
}

/// Handshake progress marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// B never recovered a HELLO.
    NoHello,
    /// A never recovered B's CONFIRM.
    NoConfirm,
    /// B rejected A's authentication message.
    AuthAFailed,
    /// A rejected B's authentication message.
    AuthBFailed,
    /// Completed; session codes match.
    Complete,
}

/// One single-link session for [`run_link`]: each party's
/// pre-distributed codes, where the shared code sits in each set, the
/// jammer, and the session seed.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec<'a> {
    /// A's pre-distributed codes.
    pub a_codes: &'a [SpreadCode],
    /// B's pre-distributed codes.
    pub b_codes: &'a [SpreadCode],
    /// Index in `a_codes` of the code shared with B.
    pub shared_a: usize,
    /// Index in `b_codes` of the same shared code.
    pub shared_b: usize,
    /// Optional reactive jammer, attacking from its `first_message` on.
    pub jammer: Option<&'a ChipJammer>,
    /// Session seed: nonces, jam garbage, backoff jitter, and the fault
    /// stream all derive from it.
    pub seed: u64,
}

/// Retry and fault settings of a [`run_link`] session. The default is one
/// attempt on a clean channel. (The wire format is a parameter,
/// [`Params::wire_format`].)
#[derive(Debug, Clone, Copy)]
pub struct LinkOptions {
    /// Retry/backoff budget.
    pub retry: RetryPolicy,
    /// Chip-layer fault injection on the session channel.
    pub faults: Option<FaultInjector>,
}

impl Default for LinkOptions {
    fn default() -> Self {
        LinkOptions {
            retry: RetryPolicy::none(),
            faults: None,
        }
    }
}

/// Reusable capacity for chip-level handshakes: the ECC codec, the
/// session-code cache, and every staging buffer. A driver running many
/// handshakes threads one `&mut LinkPools` through all of them. Pools
/// change work, never outcomes: a fresh and a warm `LinkPools` produce
/// identical reports.
#[derive(Debug)]
pub struct LinkPools {
    codec: FrameCodec,
    /// Both endpoints resolve `C_AB` through it, so the second endpoint of
    /// each pair reuses the first derivation.
    cache: SessionCodeCache,
    /// The HELLO frame before ECC.
    hello: Vec<bool>,
    /// ECC-coded bits of the message on the air.
    coded: Vec<bool>,
    /// Jam bits.
    garbage: Vec<bool>,
    /// ECC-decoded bits of the message just received.
    decoded: Vec<bool>,
    frame: Frame,
    scan: ScanScratch,
    /// The rendered HELLO window(s) and their prefix sums and bit planes.
    render: Vec<i32>,
    prefix: PrefixSums,
}

impl LinkPools {
    /// Empty pools for handshakes under `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.mu` is not a valid expansion factor.
    pub fn new(params: &Params) -> Self {
        LinkPools {
            codec: FrameCodec::new(params.mu).expect("mu validated"),
            cache: SessionCodeCache::new(SESSION_CACHE_CAPACITY),
            hello: Vec::new(),
            coded: Vec::new(),
            garbage: Vec::new(),
            decoded: Vec::new(),
            frame: Frame {
                bits: Vec::new(),
                erased: Vec::new(),
            },
            scan: ScanScratch::new(),
            render: Vec::new(),
            prefix: PrefixSums::new(),
        }
    }

    /// Renders `len` chips of `channel` from chip `start` and computes
    /// their prefix sums and bit planes: the window every
    /// [`Link::hear_hello`] scans.
    pub(crate) fn render(&mut self, channel: &ChipChannel, start: u64, len: usize) {
        channel.render_into(&mut self.render, start, len);
        self.prefix.compute(&self.render);
    }

    /// Capacity of the render buffer, in chips.
    pub(crate) fn render_capacity(&self) -> usize {
        self.render.capacity()
    }
}

/// A persistent chip medium carrying one session: every message of the
/// handshake — and every retry attempt — shares this channel at advancing
/// chip offsets, and [`LinkMedium::advance`] retires transmissions that
/// ended before the new watermark so the channel's transmission list
/// stays bounded no matter how long the session runs.
pub(crate) struct LinkMedium {
    pub(crate) channel: ChipChannel,
    /// Next free absolute chip index.
    pub(crate) cursor: u64,
}

impl LinkMedium {
    pub(crate) fn new(seed: u64, faults: Option<&FaultInjector>) -> Self {
        let channel = match faults {
            // The channel's fault stream is keyed by the link seed, so
            // two links under the same injector draw independent faults.
            Some(inj) => ChipChannel::new(seed).with_faults(*inj, seed),
            None => ChipChannel::new(seed),
        };
        LinkMedium { channel, cursor: 0 }
    }

    /// Moves the cursor past a just-finished message window and retires
    /// everything that can no longer be heard.
    pub(crate) fn advance(&mut self, msg_chips: u64) {
        self.cursor += msg_chips;
        let retired = self.channel.retire_before(self.cursor);
        metric_counter!("chiplink.transmissions_retired").add(retired as u64);
    }

    /// Moves the cursor without retiring anything — used by the batch
    /// engine while several sessions' HELLO windows accumulate on one
    /// shared medium ahead of a chunk-wide render; the caller retires the
    /// whole span afterwards via [`LinkMedium::advance`].
    pub(crate) fn bump(&mut self, msg_chips: u64) {
        self.cursor += msg_chips;
    }
}

/// One leg's retry bookkeeping: attempt-seed derivation, backoff jitter,
/// and the `retry.attempts` / `session.timeouts` / `session.degraded`
/// counters. Both drivers book their attempts here.
#[derive(Debug, Clone)]
pub(crate) struct Attempts {
    seed: u64,
    backoff_rng: SimRng,
    /// Attempts begun so far.
    pub(crate) made: u32,
    /// Backoff waited before those attempts, in seconds.
    pub(crate) backoff_s: f64,
}

impl Attempts {
    pub(crate) fn new(seed: u64) -> Self {
        Attempts {
            seed,
            backoff_rng: SimRng::seed_from_u64(seed ^ BACKOFF_SALT),
            made: 0,
            backoff_s: 0.0,
        }
    }

    /// Begins the next attempt after its backoff wait and returns its
    /// seed. Attempt 1 reuses the session seed unchanged; later attempts
    /// re-key nonces and jam garbage.
    pub(crate) fn begin(&mut self, retry: &RetryPolicy) -> u64 {
        self.made += 1;
        self.backoff_s += retry.backoff_delay(self.made, &mut self.backoff_rng);
        metric_counter!("retry.attempts").inc();
        self.seed ^ u64::from(self.made - 1).wrapping_mul(ATTEMPT_SALT)
    }

    /// Books a failed attempt (its sub-session timed out) and returns
    /// whether the budget allows another.
    pub(crate) fn retry_after_failure(&mut self, retry: &RetryPolicy) -> bool {
        metric_counter!("session.timeouts").inc();
        self.made < retry.max_attempts.max(1)
    }

    /// Closes the leg and returns whether it is degraded: it exhausted
    /// its budget without discovering — a partial outcome, never an abort.
    pub(crate) fn close(&self, discovered: bool) -> bool {
        if !discovered {
            metric_counter!("session.degraded").inc();
        }
        !discovered
    }
}

/// One handshake attempt between A (`NodeId(1)`) and B (`NodeId(2)`) as a
/// step machine: [`Link::broadcast_hello`], [`Link::hear_hello`], then
/// [`Link::exchange`] until it returns the attempt's report. It owns the
/// attempt's RNG — nonces and jam garbage draw from it in protocol order
/// — and everything the endpoints carry between messages.
pub(crate) struct Link {
    rng: SimRng,
    initiator: Initiator,
    responder: Responder,
    wire: WireConfig,
    format: WireFormat,
    tau: f64,
    chip_rate: f64,
    /// HELLO length before and after ECC, in bits.
    hello_bits: usize,
    hello_coded: usize,
    /// The code B heard the HELLO on.
    code_id: CodeId,
    /// The frame the next exchange carries.
    pending: Vec<bool>,
    /// Its message index (1 = CONFIRM, 2 = AUTH_A, 3 = AUTH_B).
    message: usize,
    /// B's session state, set once it accepts AUTH_A.
    est_b: Option<Established>,
    scan_correlations: u64,
    sync_retries: u64,
}

impl Link {
    /// A fresh attempt keyed by `seed`, framed in `params.wire_format`:
    /// the endpoints draw their nonces from the attempt RNG here.
    pub(crate) fn new(params: &Params, authority: &Authority, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let wire = WireConfig::from_params(params);
        let format = params.wire_format;
        // The protocol semantics live in the handshake endpoints; the
        // step machine is the radio layer around them.
        let initiator = Initiator::new_with_format(
            authority.issue(NodeId(1)),
            wire,
            format,
            params.n_chips,
            &mut rng,
        );
        let responder = Responder::new_with_format(
            authority.issue(NodeId(2)),
            wire,
            format,
            params.n_chips,
            256,
            &mut rng,
        );
        Link {
            rng,
            initiator,
            responder,
            wire,
            format,
            tau: params.tau,
            chip_rate: params.chip_rate,
            hello_bits: 0,
            hello_coded: 0,
            code_id: CodeId(0),
            pending: Vec::new(),
            message: 1,
            est_b: None,
            scan_correlations: 0,
            sync_retries: 0,
        }
    }

    /// Message 1: A broadcasts {HELLO, ID_A} once per code in `a_codes`,
    /// at consecutive message windows from absolute chip `base`; the
    /// jammer (if it attacks the HELLO) covers the tail of every copy.
    /// Returns the chips spanned. The caller renders that window into the
    /// pools ([`LinkPools::render`]) for [`Link::hear_hello`].
    pub(crate) fn broadcast_hello(
        &mut self,
        a_codes: &[&SpreadCode],
        jammer: Option<&ChipJammer>,
        channel: &mut ChipChannel,
        base: u64,
        pools: &mut LinkPools,
    ) -> u64 {
        // A always speaks as NodeId(1), so its HELLO renders through the
        // codec's pooled wire scratch (allocation-free when packed).
        self.format
            .encode_hello_into(
                &mut pools.codec,
                &self.wire,
                MessageKind::Hello,
                NodeId(1),
                &mut pools.hello,
            )
            .expect("own id fits");
        pools
            .codec
            .encode_into(&pools.hello, &mut pools.coded)
            .expect("non-empty");
        self.hello_bits = pools.hello.len();
        self.hello_coded = pools.coded.len();
        let n = a_codes[0].len();
        let msg_chips = (pools.coded.len() * n) as u64;
        for (copy, code) in a_codes.iter().enumerate() {
            channel.transmit(
                base + copy as u64 * msg_chips,
                spread(&pools.coded, code),
                1,
            );
        }
        if let Some(j) = jammer.filter(|j| j.attacks(0)) {
            for copy in 0..a_codes.len() {
                let start = base + copy as u64 * msg_chips;
                self.jam_tail(channel, start, pools.coded.len(), n, j, &mut pools.garbage);
            }
        }
        msg_chips * a_codes.len() as u64
    }

    /// B's receive side of message 1: the sliding-window scan with B's
    /// code `bank` over the rendered window `rel..rel + span` of the
    /// pools. The receiver keeps scanning past failed candidates — a
    /// noise-induced sync or an undecodable (jammed) frame must not stop
    /// it from finding a later clean copy in the same buffer. Only a
    /// valid HELLO on B's `shared_b` code is answered.
    ///
    /// Returns the attempt's final report if no HELLO was recovered.
    pub(crate) fn hear_hello(
        &mut self,
        bank: &MultiCorrelator<'_>,
        rel: usize,
        span: usize,
        shared_b: usize,
        pools: &mut LinkPools,
    ) -> Option<HandshakeReport> {
        let mut scanner = bank.scanner_in(&pools.render[rel..rel + span], &pools.prefix, rel);
        let n = bank.code_len();
        let mut confirm = None;
        let mut pos = 0usize;
        metric_counter!("chiplink.handshakes").inc();
        while pos + n <= span {
            let Some(h) = scan_from_with(&mut scanner, pos, self.tau, &mut pools.scan) else {
                metric_counter!("dsss.sync_misses").inc();
                break;
            };
            metric_counter!("dsss.sync_hits").inc();
            self.scan_correlations += h.correlations_computed;
            let code = bank.codes()[h.code_index];
            let decoded = decode_frame_into(
                scanner.samples(),
                h.offset,
                code,
                self.hello_coded,
                self.tau,
                &mut pools.frame,
            ) && pools
                .codec
                .decode_into(
                    &pools.frame.bits,
                    &pools.frame.erased,
                    self.hello_bits,
                    &mut pools.decoded,
                )
                .is_ok();
            if decoded && h.code_index == shared_b {
                self.code_id = CodeId(shared_b as u32);
                if let Ok(frame) = self.responder.on_hello(&pools.decoded, self.code_id) {
                    confirm = Some(frame);
                    break;
                }
            }
            // Skip one bit period: the refinement already searched this window.
            self.sync_retries += 1;
            pos = h.offset + n;
        }
        metric_counter!("dsss.scan_correlations").add(self.scan_correlations);
        metric_counter!("dsss.sync_retries").add(self.sync_retries);
        let Some(frame) = confirm else {
            return Some(self.report(false, Stage::NoHello));
        };
        self.pending = frame;
        None
    }

    /// One exchange of the pending message (CONFIRM, AUTH_A, or AUTH_B)
    /// on `medium` at its cursor: ECC-encode, spread with the shared
    /// `code`, let the jammer (if it attacks this message) cover the tail,
    /// despread through the fused render→despread path, ECC-decode, and
    /// hand the bits to the receiving endpoint.
    ///
    /// Returns the attempt's final report once it completes or fails,
    /// `None` while messages remain.
    pub(crate) fn exchange(
        &mut self,
        code: &SpreadCode,
        jammer: Option<&ChipJammer>,
        medium: &mut LinkMedium,
        pools: &mut LinkPools,
    ) -> Option<HandshakeReport> {
        pools
            .codec
            .encode_into(&self.pending, &mut pools.coded)
            .expect("non-empty message");
        let n = code.len();
        let start = medium.cursor;
        medium
            .channel
            .transmit(start, spread(&pools.coded, code), 1);
        if let Some(j) = jammer.filter(|j| j.attacks(self.message)) {
            let coded_len = pools.coded.len();
            self.jam_tail(
                &mut medium.channel,
                start,
                coded_len,
                n,
                j,
                &mut pools.garbage,
            );
        }
        // The receiver is bit-synchronized to its own frame, so each bit
        // window is rendered straight into the correlator without
        // materialising the full sample vector.
        let (bits, erased) =
            despread_from_channel(&medium.channel, start, code, pools.coded.len(), self.tau);
        medium.advance((pools.coded.len() * n) as u64);
        let received = pools
            .codec
            .decode_into(&bits, &erased, self.pending.len(), &mut pools.decoded)
            .is_ok();
        if received {
            metric_counter!("dsss.frames_decoded").inc();
        } else {
            metric_counter!("dsss.frames_failed").inc();
        }
        let failed_at =
            [Stage::NoConfirm, Stage::AuthAFailed, Stage::AuthBFailed][self.message - 1];
        if !received {
            return Some(self.report(false, failed_at));
        }
        let decoded = &pools.decoded;
        let next = match self.message {
            // Message 2: B -> A {CONFIRM, ID_B}; A answers with AUTH_A.
            1 => self.initiator.on_confirm(decoded, self.code_id).ok(),
            // Message 3: A -> B {ID_A, n_A, f_{K_AB}(ID_A | n_A)}; B
            // answers with AUTH_B and holds its session code.
            2 => self
                .responder
                .on_auth_a_cached(decoded, &mut pools.cache)
                .ok()
                .map(|(auth_b, est_b)| {
                    self.est_b = Some(est_b);
                    auth_b
                }),
            // Message 4: B -> A {ID_B, n_B, f_{K_BA}(ID_B | n_B)}; both
            // sides now hold the session spread code and must agree.
            _ => {
                let Ok(est_a) = self.initiator.on_auth_b_cached(decoded, &mut pools.cache) else {
                    return Some(self.report(false, failed_at));
                };
                let est_b = self.est_b.as_ref().expect("set at AUTH_A");
                return Some(
                    self.report(est_a.session_code == est_b.session_code, Stage::Complete),
                );
            }
        };
        let Some(frame) = next else {
            return Some(self.report(false, failed_at));
        };
        self.pending = frame;
        self.message += 1;
        None
    }

    /// Reactive jammer: chip-synchronized garbage from the attempt RNG over
    /// the tail `fraction` of the `coded_len`-bit message window that
    /// starts at chip `start`, aligned to bit boundaries (the paper grants
    /// the jammer chip sync).
    fn jam_tail(
        &mut self,
        channel: &mut ChipChannel,
        start: u64,
        coded_len: usize,
        n: usize,
        j: &ChipJammer,
        garbage: &mut Vec<bool>,
    ) {
        let jam_bits = ((coded_len as f64) * j.fraction).round() as usize;
        if jam_bits == 0 {
            return;
        }
        let start_bit = coded_len - jam_bits;
        garbage.clear();
        garbage.extend((0..jam_bits).map(|_| self.rng.gen::<bool>()));
        record_jam(start_bit, jam_bits, n, self.chip_rate);
        channel.transmit(
            start + (start_bit * n) as u64,
            spread(garbage, &j.code),
            j.amplitude,
        );
    }

    fn report(&self, discovered: bool, stage: Stage) -> HandshakeReport {
        HandshakeReport {
            discovered,
            stage,
            scan_correlations: self.scan_correlations,
            sync_retries: self.sync_retries,
        }
    }
}

/// Accounts one jam burst: chips covered, plus the jammer's reaction
/// latency — how much of the message it let through before its garbage
/// landed (`start_bit` bit periods of `n` chips at `chip_rate` chips/s).
fn record_jam(start_bit: usize, jam_bits: usize, n: usize, chip_rate: f64) {
    metric_counter!("jammer.bursts").inc();
    metric_counter!("jammer.chips_jammed").add((jam_bits * n) as u64);
    metric_histogram!("jammer.reaction_latency_s", 0.0, 0.05, 25)
        .record(start_bit as f64 * n as f64 / chip_rate);
}

/// The result of a [`run_link`] session: the last attempt's
/// [`HandshakeReport`] plus the retry bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientHandshakeReport {
    /// The final attempt's chip-level report.
    pub report: HandshakeReport,
    /// Attempts actually made (`1..=policy.max_attempts`).
    pub attempts: u32,
    /// Whether the session exhausted its retry budget without
    /// discovering — a partial outcome, never an abort.
    pub degraded: bool,
    /// Total backoff the retries spent waiting, in seconds
    /// (deterministic jitter drawn from the session seed).
    pub backoff_s: f64,
    /// Transmissions still live on the session channel at the end —
    /// bounded by the last message window regardless of how many
    /// attempts ran, because the driver retires every finished window.
    pub channel_transmissions: usize,
}

/// Runs the four-message D-NDP handshake between A and B at chip level,
/// retrying under `options.retry` on one persistent, optionally
/// fault-injected session channel.
///
/// A broadcasts one HELLO per code (one D-NDP round); B locates it with a
/// sliding-window scan across **all** of ℂ_B, exactly as the paper's
/// receiver does, and the remaining three messages travel on the shared
/// code. Every attempt reruns the full handshake with a fresh attempt
/// seed (fresh nonces) on the *same* channel at advancing chip offsets;
/// finished message windows are retired, so channel memory stays bounded
/// for arbitrarily long chaos runs. With the default [`LinkOptions`] this
/// is exactly one attempt on a clean channel.
///
/// A session that exhausts its budget reports `degraded = true` — the
/// caller records a partial-discovery outcome and carries on.
///
/// # Panics
///
/// Panics if the code sets are empty, a shared index is out of range, or
/// the jammer's `fraction` lies outside `[0, 1]`.
pub fn run_link(
    params: &Params,
    authority: &Authority,
    spec: &LinkSpec<'_>,
    options: &LinkOptions,
    pools: &mut LinkPools,
) -> ResilientHandshakeReport {
    assert!(
        !spec.a_codes.is_empty() && !spec.b_codes.is_empty(),
        "empty code sets"
    );
    assert!(spec.shared_a < spec.a_codes.len() && spec.shared_b < spec.b_codes.len());
    if let Some(j) = spec.jammer {
        assert!(
            (0.0..=1.0).contains(&j.fraction),
            "jam fraction must lie in [0, 1]"
        );
    }
    debug_assert_eq!(
        pools.codec.code().mu(),
        params.mu,
        "pools/params mu mismatch"
    );
    // The code B heard the HELLO on; the remaining messages travel on it.
    let code = &spec.b_codes[spec.shared_b];
    let a_refs: Vec<&SpreadCode> = spec.a_codes.iter().collect();
    let b_refs: Vec<&SpreadCode> = spec.b_codes.iter().collect();
    let bank = MultiCorrelator::new(&b_refs);
    let mut medium = LinkMedium::new(spec.seed ^ MEDIUM_SALT, options.faults.as_ref());
    let mut attempts = Attempts::new(spec.seed);
    let report = loop {
        let seed = attempts.begin(&options.retry);
        let mut link = Link::new(params, authority, seed);
        let base = medium.cursor;
        let span = link.broadcast_hello(&a_refs, spec.jammer, &mut medium.channel, base, pools);
        pools.render(&medium.channel, base, span as usize);
        medium.advance(span);
        let mut outcome = link.hear_hello(&bank, 0, span as usize, spec.shared_b, pools);
        while outcome.is_none() {
            outcome = link.exchange(code, spec.jammer, &mut medium, pools);
        }
        let report = outcome.expect("the attempt ended");
        if report.discovered {
            metric_counter!("chiplink.completed").inc();
            break report;
        }
        if !attempts.retry_after_failure(&options.retry) {
            break report;
        }
    };
    let degraded = attempts.close(report.discovered);
    ResilientHandshakeReport {
        report,
        attempts: attempts.made,
        degraded,
        backoff_s: attempts.backoff_s,
        channel_transmissions: medium.channel.transmission_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrsnd_sim::faults::FaultPlan;
    use rand::rngs::StdRng;

    /// A chip-level-friendly parameter set: shorter codes so the scan in a
    /// unit test finishes quickly. The de-spreading threshold must scale
    /// with the code length (tau ~ k/sqrt(N) for a fixed false-sync rate):
    /// the paper's tau = 0.15 is ~3.4 sigma at N = 512; at N = 256 we use
    /// tau = 0.30 (~4.8 sigma) to keep cross-code noise below threshold.
    fn chip_params() -> Params {
        let mut p = Params::table1();
        p.n_chips = 256;
        p.tau = 0.30;
        p
    }

    struct Setup {
        params: Params,
        authority: Authority,
        a_codes: Vec<SpreadCode>,
        b_codes: Vec<SpreadCode>,
    }

    impl Setup {
        /// The link between A and B over the shared code at index 1.
        fn spec<'a>(&'a self, jammer: Option<&'a ChipJammer>, seed: u64) -> LinkSpec<'a> {
            LinkSpec {
                a_codes: &self.a_codes,
                b_codes: &self.b_codes,
                shared_a: 1,
                shared_b: 1,
                jammer,
                seed,
            }
        }

        fn run_with(
            &self,
            jammer: Option<&ChipJammer>,
            seed: u64,
            options: &LinkOptions,
            pools: &mut LinkPools,
        ) -> ResilientHandshakeReport {
            run_link(
                &self.params,
                &self.authority,
                &self.spec(jammer, seed),
                options,
                pools,
            )
        }

        /// One attempt on a clean channel, with fresh pools.
        fn run(&self, jammer: Option<&ChipJammer>, seed: u64) -> HandshakeReport {
            let mut pools = LinkPools::new(&self.params);
            self.run_with(jammer, seed, &LinkOptions::default(), &mut pools)
                .report
        }
    }

    /// A and B hold 3 codes each; index 1 is shared.
    fn setup(seed: u64) -> Setup {
        let params = chip_params();
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SpreadCode::random(params.n_chips, &mut rng);
        let a_codes = vec![
            SpreadCode::random(params.n_chips, &mut rng),
            shared.clone(),
            SpreadCode::random(params.n_chips, &mut rng),
        ];
        let b_codes = vec![
            SpreadCode::random(params.n_chips, &mut rng),
            shared,
            SpreadCode::random(params.n_chips, &mut rng),
        ];
        Setup {
            params,
            authority: Authority::from_seed(b"chiplink"),
            a_codes,
            b_codes,
        }
    }

    #[test]
    fn clean_channel_completes_handshake() {
        let s = setup(1);
        let report = s.run(None, 99);
        assert_eq!(report.stage, Stage::Complete);
        assert!(report.discovered);
        assert!(report.scan_correlations > 0, "B really scanned the buffer");
    }

    #[test]
    fn warm_pools_reproduce_fresh_pools() {
        // One LinkPools threaded through several handshakes (incl. a
        // jammed one) must report exactly what per-handshake pools do.
        let s = setup(7);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 0.20, 1);
        let mut pools = LinkPools::new(&s.params);
        for (seed, jam) in [(301u64, false), (302, true), (303, false)] {
            let j = jam.then_some(&jammer);
            let fresh = s.run(j, seed);
            let warm = s
                .run_with(j, seed, &LinkOptions::default(), &mut pools)
                .report;
            assert_eq!(fresh, warm, "seed {seed}, jam {jam}");
        }
    }

    #[test]
    fn warm_session_cache_reproduces_fresh_reports() {
        // One session-code cache threaded through several handshakes
        // (incl. a jammed one) must report exactly what a fresh cache
        // does: the cache changes work, never outcomes.
        let s = setup(8);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 0.20, 1);
        let mut pools = LinkPools::new(&s.params);
        for (seed, jam) in [(401u64, false), (402, true), (401, false)] {
            let j = jam.then_some(&jammer);
            let fresh = s.run(j, seed);
            let warm = s
                .run_with(j, seed, &LinkOptions::default(), &mut pools)
                .report;
            assert_eq!(fresh, warm, "seed {seed}, jam {jam}");
        }
        // Each completed handshake inserts one pair entry (both endpoints
        // share it); the repeated seed 401 run hit instead of inserting.
        assert!(
            pools.cache.len() <= 2,
            "cache kept one entry per distinct pair"
        );
        assert!(
            !pools.cache.is_empty(),
            "completed handshakes populated the cache"
        );
    }

    #[test]
    fn packed_format_completes_and_is_deterministic() {
        let mut s = setup(13);
        let legacy = s.run(None, 901);
        s.params.wire_format = WireFormat::Packed;
        let mut pools = LinkPools::new(&s.params);
        let packed = LinkOptions::default();
        let r1 = s.run_with(None, 901, &packed, &mut pools).report;
        assert_eq!(r1.stage, Stage::Complete);
        assert!(
            r1.discovered,
            "packed handshake completes on a clean channel"
        );
        let r2 = s.run_with(None, 901, &packed, &mut pools).report;
        assert_eq!(r1, r2, "packed path is deterministic");
        // Shorter frames mean a smaller scan window: the packed HELLO
        // round costs strictly fewer correlations than the legacy one.
        assert!(legacy.discovered);
        assert!(
            r1.scan_correlations < legacy.scan_correlations,
            "packed {} vs legacy {} scan correlations",
            r1.scan_correlations,
            legacy.scan_correlations
        );
    }

    #[test]
    fn packed_resilient_retries_behave_like_legacy_machinery() {
        let mut s = setup(14);
        s.params.wire_format = WireFormat::Packed;
        let mut pools = LinkPools::new(&s.params);
        // A full-strength same-code jammer defeats every attempt in either
        // format; the retry accounting must agree.
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 1.0, 3);
        let options = LinkOptions {
            retry: RetryPolicy::budgeted(3),
            ..LinkOptions::default()
        };
        let packed = s.run_with(Some(&jammer), 950, &options, &mut pools);
        assert!(packed.degraded);
        assert_eq!(packed.attempts, options.retry.max_attempts);
        // And without the jammer, packed resilient discovery succeeds on
        // the first attempt.
        let clean = s.run_with(None, 951, &options, &mut pools);
        assert!(clean.report.discovered);
        assert_eq!(clean.attempts, 1);
    }

    #[test]
    fn wrong_code_jammer_cannot_stop_discovery() {
        let s = setup(2);
        let mut rng = StdRng::seed_from_u64(5);
        let jammer = ChipJammer::from_start(SpreadCode::random(s.params.n_chips, &mut rng), 1.0, 1);
        let report = s.run(Some(&jammer), 100);
        assert!(report.discovered, "stage: {:?}", report.stage);
    }

    #[test]
    fn correct_code_full_jam_kills_handshake() {
        let s = setup(3);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 1.0, 3);
        let report = s.run(Some(&jammer), 101);
        assert!(!report.discovered);
    }

    #[test]
    fn sub_threshold_jam_is_absorbed_by_ecc() {
        // Jamming ~20% of each message is well under mu/(1+mu) = 50%; the
        // Reed-Solomon layer must shrug it off.
        let s = setup(4);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 0.20, 1);
        let report = s.run(Some(&jammer), 102);
        assert!(report.discovered, "stage: {:?}", report.stage);
    }

    #[test]
    fn intelligent_attack_reaches_each_later_stage() {
        // Sparing early messages and killing from message k on must fail
        // the handshake at exactly stage k.
        let s = setup(6);
        let cases = [
            (1usize, Stage::NoConfirm),
            (2, Stage::AuthAFailed),
            (3, Stage::AuthBFailed),
        ];
        for (first, expected) in cases {
            let jammer = ChipJammer {
                code: s.a_codes[1].clone(),
                fraction: 1.0,
                amplitude: 3,
                first_message: first,
            };
            let report = s.run(Some(&jammer), 200 + first as u64);
            assert!(!report.discovered);
            assert_eq!(report.stage, expected, "first_message = {first}");
        }
    }

    #[test]
    fn single_attempt_books_one_attempt_with_fresh_or_warm_pools() {
        let s = setup(9);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 0.20, 1);
        let options = LinkOptions {
            retry: RetryPolicy::none(),
            ..LinkOptions::default()
        };
        let mut pools = LinkPools::new(&s.params);
        for (seed, jam) in [(501u64, false), (502, true)] {
            let j = jam.then_some(&jammer);
            let fresh = s.run_with(j, seed, &options, &mut LinkPools::new(&s.params));
            let warm = s.run_with(j, seed, &options, &mut pools);
            assert_eq!(warm, fresh, "seed {seed}, jam {jam}");
            assert_eq!(warm.attempts, 1);
            assert_eq!(warm.backoff_s, 0.0);
            assert_eq!(warm.degraded, !fresh.report.discovered);
        }
    }

    #[test]
    fn resilient_retries_recover_from_transient_faults() {
        let s = setup(10);
        let mut pools = LinkPools::new(&s.params);
        let faults = Some(FaultInjector::new(77, FaultPlan::intensity(0.6)));
        let single = LinkOptions {
            faults,
            ..LinkOptions::default()
        };
        let retried = LinkOptions {
            retry: RetryPolicy::budgeted(4),
            ..single
        };
        // Across several session seeds, retries must discover at least one
        // link that the single-attempt run under the same faults loses.
        let mut single_failures = 0u32;
        let mut retried_recoveries = 0u32;
        for seed in 600u64..640 {
            let single = s.run_with(None, seed, &single, &mut pools);
            if single.report.discovered {
                continue;
            }
            single_failures += 1;
            let retried = s.run_with(None, seed, &retried, &mut pools);
            if retried.report.discovered {
                retried_recoveries += 1;
                assert!(retried.attempts > 1, "recovery must have used a retry");
                assert!(retried.backoff_s > 0.0, "retries wait before reattempting");
                assert!(!retried.degraded);
            }
        }
        assert!(single_failures > 0, "fault plan never disrupted anything");
        assert!(retried_recoveries > 0, "retries never recovered a session");
    }

    #[test]
    fn resilient_faulted_sessions_are_deterministic() {
        let s = setup(11);
        let options = LinkOptions {
            retry: RetryPolicy::budgeted(3),
            faults: Some(FaultInjector::new(5, FaultPlan::intensity(0.7))),
        };
        let mut pools = LinkPools::new(&s.params);
        for seed in [700u64, 701, 702] {
            let fresh = s.run_with(None, seed, &options, &mut LinkPools::new(&s.params));
            let warm = s.run_with(None, seed, &options, &mut pools);
            assert_eq!(fresh, warm, "seed {seed}");
        }
    }

    #[test]
    fn session_channel_memory_stays_bounded_across_retries() {
        let s = setup(12);
        // A full-strength same-code jammer fails every attempt, forcing
        // the driver through its whole (large) retry budget on one
        // persistent channel.
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 1.0, 3);
        let options = LinkOptions {
            retry: RetryPolicy {
                max_attempts: 12,
                ..RetryPolicy::budgeted(11)
            },
            ..LinkOptions::default()
        };
        let r = s.run_with(Some(&jammer), 800, &options, &mut LinkPools::new(&s.params));
        assert_eq!(r.attempts, 12);
        assert!(r.degraded);
        // Every finished message window was retired: what survives is at
        // most the last window's transmissions (HELLO copies + jam bursts
        // for each of A's codes), never 12 attempts' worth (~100+).
        let per_window_bound = 2 * s.a_codes.len() + 2;
        assert!(
            r.channel_transmissions <= per_window_bound,
            "channel kept {} transmissions after retirement (bound {})",
            r.channel_transmissions,
            per_window_bound
        );
    }

    #[test]
    #[should_panic(expected = "jam fraction must lie in [0, 1]")]
    fn jam_fraction_above_one_is_rejected() {
        let s = setup(15);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 1.5, 3);
        s.run(Some(&jammer), 104);
    }

    #[test]
    fn no_shared_code_means_no_hello() {
        let mut s = setup(5);
        let mut rng = StdRng::seed_from_u64(50);
        // Replace B's copy of the shared code so nothing overlaps.
        s.b_codes[1] = SpreadCode::random(s.params.n_chips, &mut rng);
        let report = s.run(None, 103);
        assert_eq!(report.stage, Stage::NoHello);
        assert!(!report.discovered);
    }
}
