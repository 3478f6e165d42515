//! The D-NDP handshake as explicit per-node state machines.
//!
//! [`crate::dndp`] simulates handshake *outcomes* for Monte-Carlo scale and
//! [`crate::chiplink`] scripts one straight-line run; a real radio stack
//! instead needs event-driven endpoints that consume decoded frames one at
//! a time, validate them, and emit the next transmission. This module is
//! that endpoint layer: an [`Initiator`] (node A) and a [`Responder`]
//! (node B) that step through
//!
//! ```text
//! A  --HELLO-->  B      (spread with every code of A; B finds a shared one)
//! A  <--CONFIRM--  B
//! A  --AUTH_A-->  B      {ID_A, n_A, f_K(ID_A|n_A)}
//! A  <--AUTH_B--  B      {ID_B, n_B, f_K(ID_B|n_B)}
//! ```
//!
//! with strict state checking, MAC verification, replay protection
//! ([`jrsnd_crypto::replay::ReplayGuard`]), and the session spread code
//! `C_AB = h_{K_AB}(n_A ⊗ n_B)` as the final product on both sides.
//!
//! Crypto datapath: as soon as an endpoint learns its peer it precomputes
//! the pairwise [`HmacKey`] (ipad/opad compression states), so every
//! subsequent tag computation/verification runs on the
//! two-compressions-per-MAC fast path. The final AUTH step resolves
//! `C_AB` through a shared [`SessionCodeCache`], so a retry — or the
//! opposite endpoint of a locally simulated pair — never rederives it.
//!
//! Frames go through the [`WireFormat`] the driver passes in (its
//! [`Params::wire_format`](crate::params::Params::wire_format)).

use crate::messages::{MessageKind, WireConfig};
use crate::wire::WireFormat;
use jrsnd_crypto::hmac::HmacKey;
use jrsnd_crypto::ibc::{IdPrivateKey, NodeId, SharedKey};
use jrsnd_crypto::mac::auth_tag_keyed;
use jrsnd_crypto::nonce::Nonce;
use jrsnd_crypto::replay::ReplayGuard;
use jrsnd_crypto::session::SessionCodeCache;
use jrsnd_dsss::code::CodeId;
use jrsnd_sim::rng::SimRng;
use std::fmt;

/// Why a handshake step was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The frame arrived in a state that does not expect it.
    WrongState {
        /// What the endpoint was doing.
        state: &'static str,
    },
    /// The frame failed to parse.
    Malformed,
    /// The authentication tag did not verify.
    BadTag {
        /// Who the frame claimed to be from.
        claimed: NodeId,
    },
    /// The (peer, nonce) pair was already used — a replay.
    Replayed {
        /// The replayed peer.
        peer: NodeId,
    },
    /// The peer id changed mid-handshake.
    PeerMismatch,
    /// The endpoint timed out and is no longer usable.
    TimedOut,
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::WrongState { state } => write!(f, "unexpected frame in state {state}"),
            HandshakeError::Malformed => write!(f, "frame failed to parse"),
            HandshakeError::BadTag { claimed } => {
                write!(f, "authentication tag from {claimed} did not verify")
            }
            HandshakeError::Replayed { peer } => write!(f, "replayed nonce from {peer}"),
            HandshakeError::PeerMismatch => write!(f, "peer identity changed mid-handshake"),
            HandshakeError::TimedOut => write!(f, "handshake timed out"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// A completed handshake: the authenticated peer and the shared session
/// spread code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Established {
    /// The authenticated logical neighbor.
    pub peer: NodeId,
    /// The code both sides agreed on during discovery.
    pub discovery_code: CodeId,
    /// The fresh session spread code `C_AB` (chip bits).
    pub session_code: Vec<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InitiatorState {
    AwaitConfirm,
    AwaitAuthB,
    Done,
    Failed,
}

/// Node A's half of the handshake.
#[derive(Debug)]
pub struct Initiator {
    key: IdPrivateKey,
    wire: WireConfig,
    format: WireFormat,
    n_chips: usize,
    nonce: Nonce,
    state: InitiatorState,
    peer: Option<NodeId>,
    code: Option<CodeId>,
    /// Pairwise key for the confirmed peer, with its HMAC pad states
    /// precomputed (set on CONFIRM, reused for AUTH_A and AUTH_B; the key
    /// also keys the session-code cache).
    pair: Option<(SharedKey, HmacKey)>,
}

impl Initiator {
    /// Creates an initiator speaking `format`; `rng` draws the replay
    /// nonce `n_A`. The draw is the same in every format, so switching
    /// formats never perturbs a seeded simulation's nonce sequence.
    pub fn new_with_format(
        key: IdPrivateKey,
        wire: WireConfig,
        format: WireFormat,
        n_chips: usize,
        rng: &mut SimRng,
    ) -> Self {
        let nonce = Nonce::random(rng, wire.l_n as u32);
        Initiator {
            key,
            wire,
            format,
            n_chips,
            nonce,
            state: InitiatorState::AwaitConfirm,
            peer: None,
            code: None,
            pair: None,
        }
    }

    /// The HELLO payload to broadcast (spread with each code in ℂ_A by the
    /// radio layer).
    ///
    /// # Panics
    ///
    /// Panics if the node id exceeds `l_id` bits (checked at issue time in
    /// practice).
    pub fn hello_frame(&self) -> Vec<bool> {
        self.format
            .encode_hello(&self.wire, MessageKind::Hello, self.key.id())
            .expect("own id fits l_id")
    }

    /// Handles B's CONFIRM (decoded bits) heard on `code`; returns the
    /// AUTH_A frame to send back on the same code.
    ///
    /// # Errors
    ///
    /// [`HandshakeError`] on state, parse, or identity violations.
    pub fn on_confirm(&mut self, bits: &[bool], code: CodeId) -> Result<Vec<bool>, HandshakeError> {
        if self.state != InitiatorState::AwaitConfirm {
            return Err(self.fail_state());
        }
        let (kind, peer) = self.format.parse_hello(&self.wire, bits).map_err(|_| {
            self.state = InitiatorState::Failed;
            HandshakeError::Malformed
        })?;
        if kind != MessageKind::Confirm || peer == self.key.id() {
            self.state = InitiatorState::Failed;
            return Err(HandshakeError::Malformed);
        }
        self.peer = Some(peer);
        self.code = Some(code);
        let k_ab = self.key.shared_key(peer);
        let hk = HmacKey::precompute(k_ab.as_bytes());
        let tag = auth_tag_keyed(&hk, self.key.id(), self.nonce);
        self.pair = Some((k_ab, hk));
        let frame = self
            .format
            .encode_auth(&self.wire, self.key.id(), self.nonce, &tag)
            .expect("fields fit");
        self.state = InitiatorState::AwaitAuthB;
        Ok(frame)
    }

    /// Handles B's AUTH_B; on success the handshake is complete. The
    /// session code resolves through the shared `cache` — a retry (or the
    /// peer endpoint in a local simulation) reuses the cached derivation.
    ///
    /// # Errors
    ///
    /// [`HandshakeError`] on state, parse, tag, or identity violations.
    pub fn on_auth_b_cached(
        &mut self,
        bits: &[bool],
        cache: &mut SessionCodeCache,
    ) -> Result<Established, HandshakeError> {
        if self.state != InitiatorState::AwaitAuthB {
            return Err(self.fail_state());
        }
        let (peer, n_b, mac) = self.format.parse_auth(&self.wire, bits).map_err(|_| {
            self.state = InitiatorState::Failed;
            HandshakeError::Malformed
        })?;
        if Some(peer) != self.peer {
            self.state = InitiatorState::Failed;
            return Err(HandshakeError::PeerMismatch);
        }
        let (k_ab, hk) = self.pair.as_ref().expect("pair key set on CONFIRM");
        if !mac.matches(&self.wire, &auth_tag_keyed(hk, peer, n_b)) {
            self.state = InitiatorState::Failed;
            return Err(HandshakeError::BadTag { claimed: peer });
        }
        self.state = InitiatorState::Done;
        Ok(Established {
            peer,
            discovery_code: self.code.expect("set on CONFIRM"),
            session_code: cache
                .get_or_derive(k_ab, self.nonce, n_b, self.n_chips)
                .to_vec(),
        })
    }

    /// Gives up (monitoring timer expired). The endpoint becomes unusable.
    pub fn on_timeout(&mut self) -> HandshakeError {
        self.state = InitiatorState::Failed;
        HandshakeError::TimedOut
    }

    /// Whether the handshake concluded successfully.
    pub fn is_done(&self) -> bool {
        self.state == InitiatorState::Done
    }

    fn fail_state(&mut self) -> HandshakeError {
        let state = match self.state {
            InitiatorState::AwaitConfirm => "await-confirm",
            InitiatorState::AwaitAuthB => "await-auth-b",
            InitiatorState::Done => "done",
            InitiatorState::Failed => "failed",
        };
        HandshakeError::WrongState { state }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResponderState {
    AwaitHello,
    AwaitAuthA,
    Done,
    Failed,
}

/// Node B's half of the handshake.
#[derive(Debug)]
pub struct Responder {
    key: IdPrivateKey,
    wire: WireConfig,
    format: WireFormat,
    n_chips: usize,
    nonce: Nonce,
    state: ResponderState,
    peer: Option<NodeId>,
    code: Option<CodeId>,
    /// Pairwise key for the peer that said HELLO, with precomputed HMAC
    /// pad states (set on HELLO, reused across AUTH_A/AUTH_B; the key
    /// also keys the session-code cache).
    pair: Option<(SharedKey, HmacKey)>,
    replay: ReplayGuard,
}

impl Responder {
    /// Creates a responder speaking `format` with a replay window of
    /// `replay_capacity` remembered `(peer, nonce)` pairs; `rng` draws the
    /// nonce `n_B`, the same draw in every format.
    ///
    /// # Panics
    ///
    /// Panics if `replay_capacity` is zero.
    pub fn new_with_format(
        key: IdPrivateKey,
        wire: WireConfig,
        format: WireFormat,
        n_chips: usize,
        replay_capacity: usize,
        rng: &mut SimRng,
    ) -> Self {
        let nonce = Nonce::random(rng, wire.l_n as u32);
        Responder {
            key,
            wire,
            format,
            n_chips,
            nonce,
            state: ResponderState::AwaitHello,
            peer: None,
            code: None,
            pair: None,
            replay: ReplayGuard::new(replay_capacity),
        }
    }

    /// Handles a decoded HELLO heard on `code`; returns the CONFIRM frame
    /// to send back on that code.
    ///
    /// # Errors
    ///
    /// [`HandshakeError`] on state or parse violations.
    pub fn on_hello(&mut self, bits: &[bool], code: CodeId) -> Result<Vec<bool>, HandshakeError> {
        if self.state != ResponderState::AwaitHello {
            return Err(self.fail_state());
        }
        let (kind, peer) = self
            .format
            .parse_hello(&self.wire, bits)
            .map_err(|_| HandshakeError::Malformed)?;
        if kind != MessageKind::Hello || peer == self.key.id() {
            return Err(HandshakeError::Malformed);
        }
        self.peer = Some(peer);
        self.code = Some(code);
        let k_ba = self.key.shared_key(peer);
        let hk = HmacKey::precompute(k_ba.as_bytes());
        self.pair = Some((k_ba, hk));
        self.state = ResponderState::AwaitAuthA;
        Ok(self
            .format
            .encode_hello(&self.wire, MessageKind::Confirm, self.key.id())
            .expect("own id fits l_id"))
    }

    /// Handles A's AUTH_A; on success returns the AUTH_B frame plus the
    /// established session, its code resolved through the shared `cache`.
    ///
    /// # Errors
    ///
    /// [`HandshakeError`] on state, parse, tag, identity, or replay
    /// violations.
    pub fn on_auth_a_cached(
        &mut self,
        bits: &[bool],
        cache: &mut SessionCodeCache,
    ) -> Result<(Vec<bool>, Established), HandshakeError> {
        if self.state != ResponderState::AwaitAuthA {
            return Err(self.fail_state());
        }
        let (peer, n_a, mac) = self.format.parse_auth(&self.wire, bits).map_err(|_| {
            self.state = ResponderState::Failed;
            HandshakeError::Malformed
        })?;
        if Some(peer) != self.peer {
            self.state = ResponderState::Failed;
            return Err(HandshakeError::PeerMismatch);
        }
        let (k_ba, hk) = self.pair.as_ref().expect("pair key set on HELLO");
        if !mac.matches(&self.wire, &auth_tag_keyed(hk, peer, n_a)) {
            self.state = ResponderState::Failed;
            return Err(HandshakeError::BadTag { claimed: peer });
        }
        // Replay defense: a (peer, nonce) pair is accepted once.
        if !self.replay.check_and_record(peer, n_a) {
            self.state = ResponderState::Failed;
            return Err(HandshakeError::Replayed { peer });
        }
        let tag_b = auth_tag_keyed(hk, self.key.id(), self.nonce);
        let frame = self
            .format
            .encode_auth(&self.wire, self.key.id(), self.nonce, &tag_b)
            .expect("fields fit");
        self.state = ResponderState::Done;
        Ok((
            frame,
            Established {
                peer,
                discovery_code: self.code.expect("set on HELLO"),
                session_code: cache
                    .get_or_derive(k_ba, self.nonce, n_a, self.n_chips)
                    .to_vec(),
            },
        ))
    }

    /// Gives up (monitoring timer expired).
    pub fn on_timeout(&mut self) -> HandshakeError {
        self.state = ResponderState::Failed;
        HandshakeError::TimedOut
    }

    /// Whether the handshake concluded successfully.
    pub fn is_done(&self) -> bool {
        self.state == ResponderState::Done
    }

    fn fail_state(&mut self) -> HandshakeError {
        let state = match self.state {
            ResponderState::AwaitHello => "await-hello",
            ResponderState::AwaitAuthA => "await-auth-a",
            ResponderState::Done => "done",
            ResponderState::Failed => "failed",
        };
        HandshakeError::WrongState { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use jrsnd_crypto::ibc::Authority;
    use jrsnd_crypto::mac::auth_tag;
    use rand::SeedableRng;

    /// A fresh session-code cache: an endpoint given its own derives
    /// `C_AB` independently of its peer.
    fn cache() -> SessionCodeCache {
        SessionCodeCache::new(8)
    }

    /// A (NodeId 1) and B (NodeId 2) on the legacy wire, nonces drawn from
    /// `rng`.
    fn pair(rng: &mut SimRng) -> (Initiator, Responder) {
        let params = Params::table1();
        let wire = WireConfig::from_params(&params);
        let authority = Authority::from_seed(b"handshake");
        let a = Initiator::new_with_format(
            authority.issue(NodeId(1)),
            wire,
            WireFormat::Legacy,
            params.n_chips,
            rng,
        );
        let b = Responder::new_with_format(
            authority.issue(NodeId(2)),
            wire,
            WireFormat::Legacy,
            params.n_chips,
            64,
            rng,
        );
        (a, b)
    }

    fn setup(seed: u64) -> (Initiator, Responder) {
        pair(&mut SimRng::seed_from_u64(seed))
    }

    /// Drives a full clean exchange, returning both sides' sessions, each
    /// derived through its own cache.
    fn run_clean(seed: u64) -> (Established, Established) {
        let (mut a, mut b) = setup(seed);
        let code = CodeId(7);
        let hello = a.hello_frame();
        let confirm = b.on_hello(&hello, code).unwrap();
        let auth_a = a.on_confirm(&confirm, code).unwrap();
        let (auth_b, est_b) = b.on_auth_a_cached(&auth_a, &mut cache()).unwrap();
        let est_a = a.on_auth_b_cached(&auth_b, &mut cache()).unwrap();
        assert!(a.is_done() && b.is_done());
        (est_a, est_b)
    }

    #[test]
    fn clean_exchange_establishes_matching_sessions() {
        let (est_a, est_b) = run_clean(1);
        assert_eq!(est_a.peer, NodeId(2));
        assert_eq!(est_b.peer, NodeId(1));
        assert_eq!(est_a.discovery_code, CodeId(7));
        assert_eq!(est_a.session_code, est_b.session_code);
        assert_eq!(est_a.session_code.len(), 512);
    }

    #[test]
    fn shared_cache_matches_private_derivations_and_hits_once() {
        // Same seed => same nonces => the shared-cache run must reproduce
        // the per-endpoint derivations bit for bit.
        let (plain_a, plain_b) = run_clean(42);
        let (mut a, mut b) = setup(42);
        let code = CodeId(7);
        let mut cache = cache();
        let confirm = b.on_hello(&a.hello_frame(), code).unwrap();
        let auth_a = a.on_confirm(&confirm, code).unwrap();
        // Responder derives (miss) …
        let (auth_b, est_b) = b.on_auth_a_cached(&auth_a, &mut cache).unwrap();
        assert_eq!(cache.len(), 1);
        // … and the initiator's derivation of the same pair is the hit.
        let est_a = a.on_auth_b_cached(&auth_b, &mut cache).unwrap();
        assert_eq!(cache.len(), 1, "nonce-symmetric key: still one entry");
        assert_eq!(est_a.session_code, plain_a.session_code);
        assert_eq!(est_b.session_code, plain_b.session_code);
        assert_eq!(est_a.session_code, est_b.session_code);
    }

    #[test]
    fn packed_format_completes_with_shorter_frames() {
        let params = Params::table1();
        let wire = WireConfig::from_params(&params);
        let authority = Authority::from_seed(b"handshake");
        let mut rng = SimRng::seed_from_u64(1);
        let mut a = Initiator::new_with_format(
            authority.issue(NodeId(1)),
            wire,
            WireFormat::Packed,
            params.n_chips,
            &mut rng,
        );
        let mut b = Responder::new_with_format(
            authority.issue(NodeId(2)),
            wire,
            WireFormat::Packed,
            params.n_chips,
            64,
            &mut rng,
        );
        let code = CodeId(7);
        let hello = a.hello_frame();
        assert!(
            hello.len() < wire.hello_bits(),
            "packed hello saves airtime"
        );
        let confirm = b.on_hello(&hello, code).unwrap();
        let auth_a = a.on_confirm(&confirm, code).unwrap();
        assert!(auth_a.len() < wire.auth_bits(), "packed auth saves airtime");
        let (auth_b, est_b) = b.on_auth_a_cached(&auth_a, &mut cache()).unwrap();
        let est_a = a.on_auth_b_cached(&auth_b, &mut cache()).unwrap();
        assert!(a.is_done() && b.is_done());
        assert_eq!(est_a.session_code, est_b.session_code);
        // Same seed on the legacy path: identical nonce draws, so the
        // session code agrees bit for bit across formats.
        let (legacy_a, _) = run_clean(1);
        assert_eq!(est_a.session_code, legacy_a.session_code);
        // And a packed AUTH with a flipped MAC bit still fails closed.
        let mut b2 = Responder::new_with_format(
            authority.issue(NodeId(3)),
            wire,
            WireFormat::Packed,
            params.n_chips,
            64,
            &mut rng,
        );
        let mut a2 = Initiator::new_with_format(
            authority.issue(NodeId(1)),
            wire,
            WireFormat::Packed,
            params.n_chips,
            &mut rng,
        );
        let confirm2 = b2.on_hello(&a2.hello_frame(), code).unwrap();
        let mut auth2 = a2.on_confirm(&confirm2, code).unwrap();
        let idx = auth2.len() - 1;
        auth2[idx] = !auth2[idx];
        assert!(matches!(
            b2.on_auth_a_cached(&auth2, &mut cache()),
            Err(HandshakeError::BadTag { claimed: NodeId(1) })
        ));
    }

    #[test]
    fn sessions_differ_across_runs() {
        let (a1, _) = run_clean(1);
        let (a2, _) = run_clean(2);
        assert_ne!(a1.session_code, a2.session_code, "fresh nonces, fresh code");
    }

    #[test]
    fn tampered_auth_a_is_rejected() {
        let (mut a, mut b) = setup(3);
        let code = CodeId(0);
        let confirm = b.on_hello(&a.hello_frame(), code).unwrap();
        let mut auth_a = a.on_confirm(&confirm, code).unwrap();
        // Flip a bit inside the MAC region.
        let idx = auth_a.len() - 1;
        auth_a[idx] = !auth_a[idx];
        assert!(matches!(
            b.on_auth_a_cached(&auth_a, &mut cache()),
            Err(HandshakeError::BadTag { claimed: NodeId(1) })
        ));
        assert!(!b.is_done());
    }

    #[test]
    fn replayed_auth_a_is_rejected_by_a_fresh_responder() {
        // Capture a valid AUTH_A, then replay it to a new responder whose
        // replay guard has already seen the (peer, nonce) pair.
        let mut rng = SimRng::seed_from_u64(4);
        let (mut a, mut b) = pair(&mut rng);
        let code = CodeId(9);
        let confirm = b.on_hello(&a.hello_frame(), code).unwrap();
        let auth_a = a.on_confirm(&confirm, code).unwrap();
        let (_, _) = b.on_auth_a_cached(&auth_a, &mut cache()).unwrap();
        // The attacker replays the captured AUTH_A against the responder
        // identity's next session, which shares the long-lived guard.
        let (_, mut b2) = pair(&mut rng);
        let confirm2 = b2.on_hello(&a.hello_frame(), code).unwrap();
        let _ = confirm2;
        // Seed b2's guard with the observed pair, as a long-lived node
        // would have.
        assert!(b2.replay.check_and_record(NodeId(1), a.nonce));
        assert!(matches!(
            b2.on_auth_a_cached(&auth_a, &mut cache()),
            Err(HandshakeError::Replayed { peer: NodeId(1) })
        ));
    }

    #[test]
    fn out_of_order_frames_are_rejected() {
        let (mut a, mut b) = setup(5);
        let code = CodeId(1);
        // A genuine AUTH_A and AUTH_B from a completed run of the same
        // identities, replayed ahead of their turn.
        let (mut a0, mut b0) = setup(50);
        let confirm0 = b0.on_hello(&a0.hello_frame(), code).unwrap();
        let auth_a0 = a0.on_confirm(&confirm0, code).unwrap();
        let (auth_b0, _) = b0.on_auth_a_cached(&auth_a0, &mut cache()).unwrap();
        // AUTH_A before HELLO on the responder.
        assert!(matches!(
            b.on_auth_a_cached(&auth_a0, &mut cache()),
            Err(HandshakeError::WrongState {
                state: "await-hello"
            })
        ));
        assert!(!b.is_done());
        // AUTH_B before CONFIRM on the initiator.
        assert!(matches!(
            a.on_auth_b_cached(&auth_b0, &mut cache()),
            Err(HandshakeError::WrongState {
                state: "await-confirm"
            })
        ));
        assert!(!a.is_done());
        let hello = a.hello_frame();
        let confirm = b.on_hello(&hello, code).unwrap();
        assert!(matches!(
            b.on_hello(&hello, code),
            Err(HandshakeError::WrongState { .. })
        ));
        let _auth_a = a.on_confirm(&confirm, code).unwrap();
        // CONFIRM twice on the initiator.
        assert!(matches!(
            a.on_confirm(&confirm, code),
            Err(HandshakeError::WrongState { .. })
        ));
    }

    #[test]
    fn peer_substitution_is_rejected() {
        // A third identity answers AUTH_B claiming to be someone else.
        let params = Params::table1();
        let wire = WireConfig::from_params(&params);
        let authority = Authority::from_seed(b"handshake");
        let mut rng = SimRng::seed_from_u64(6);
        let (mut a, mut b) = pair(&mut rng);
        let mut mallory = Responder::new_with_format(
            authority.issue(NodeId(3)),
            wire,
            WireFormat::Legacy,
            params.n_chips,
            64,
            &mut rng,
        );
        let code = CodeId(2);
        let confirm = b.on_hello(&a.hello_frame(), code).unwrap();
        let auth_a = a.on_confirm(&confirm, code).unwrap();
        // Mallory intercepts AUTH_A, but it is keyed to K_{A,B}: her
        // K_{A,Mallory} check fails, so she cannot even accept it.
        let _ = mallory.on_hello(&a.hello_frame(), code).unwrap();
        assert!(matches!(
            mallory.on_auth_a_cached(&auth_a, &mut cache()),
            Err(HandshakeError::BadTag { claimed: NodeId(1) })
        ));
        // And a forged AUTH_B claiming a different identity than the one A
        // confirmed with is rejected as a peer mismatch before any crypto.
        let mallory_key = authority.issue(NodeId(3));
        let n_m = Nonce::from_value(0x1234);
        let tag = auth_tag(&mallory_key.shared_key(NodeId(1)), NodeId(3), n_m);
        let forged = wire.encode_auth(NodeId(3), n_m, &tag).unwrap();
        assert!(matches!(
            a.on_auth_b_cached(&forged, &mut cache()),
            Err(HandshakeError::PeerMismatch)
        ));
        assert!(!a.is_done());
    }

    #[test]
    fn timeout_poisons_the_endpoint() {
        let (mut a, mut b) = setup(7);
        assert_eq!(a.on_timeout(), HandshakeError::TimedOut);
        assert_eq!(b.on_timeout(), HandshakeError::TimedOut);
        let code = CodeId(3);
        assert!(matches!(
            b.on_hello(&a.hello_frame(), code),
            Err(HandshakeError::WrongState { state: "failed" })
        ));
    }

    #[test]
    fn malformed_frames_are_rejected() {
        let (mut a, mut b) = setup(8);
        let code = CodeId(4);
        assert!(matches!(
            b.on_hello(&[true; 3], code),
            Err(HandshakeError::Malformed)
        ));
        // A CONFIRM whose type field says HELLO.
        let confirm_wrong_kind = a.hello_frame();
        let confirm = b.on_hello(&a.hello_frame(), code).unwrap();
        let _ = confirm;
        assert!(matches!(
            a.on_confirm(&confirm_wrong_kind, code),
            Err(HandshakeError::Malformed)
        ));
    }
}
