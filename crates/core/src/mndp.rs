//! M-NDP: the multi-hop neighbor-discovery protocol (Section V-C).
//!
//! Two physical neighbors that failed D-NDP can still discover each other
//! through a *jamming-resilient path*: a chain of already-discovered
//! logical links, each protected by a secret session spread code. The
//! request floods outward up to `ν` hops, accumulating per-hop identity /
//! neighbor-list / signature entries; the response retraces the path; the
//! final over-the-air HELLO (spread with the freshly derived session code
//! `C_BA`) closes the loop iff the two nodes really are in radio range.
//!
//! Two implementations are provided:
//!
//! * [`initiate`] — the full message-level protocol over [`Node`] state,
//!   with real signature chains, duplicate suppression, hop limits, the
//!   optional GPS false-positive filter, and per-node verification-cost
//!   accounting. Used by the Fig. 1 integration test and the DoS study.
//! * [`discover_closure`] — the graph-theoretic shortcut (a pair is
//!   discoverable iff a logical path of ≤ ν hops connects it) used by the
//!   Monte-Carlo driver at 2000-node scale. The two are proven equivalent
//!   on small networks by tests.

use crate::decode::DecodeError;
use crate::messages::{ChainEntry, MndpRequest, MndpResponse};
use crate::node::{DiscoveryKind, Node};
use jrsnd_crypto::ibc::{NodeId, SharedKey};
use jrsnd_crypto::nonce::Nonce;
use jrsnd_crypto::prf::PrfScratch;
use jrsnd_crypto::session::{derive_session_codes, SessionCodeCache};
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::spread::{decide, despread_from_channel_into};
use jrsnd_dsss::sync::Frame;
use jrsnd_sim::geom::Point;
use jrsnd_sim::topology::Graph;
use jrsnd_sim::{metric_counter, metric_histogram, sim_trace};
use std::collections::{HashSet, VecDeque};

/// Statistics from one initiator's M-NDP run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MndpStats {
    /// Newly discovered `(initiator, peer, logical_hops)` triples.
    pub discovered: Vec<(usize, usize, usize)>,
    /// Responders that transmitted a HELLO although they are not physical
    /// neighbors of the source (the paper's false-positive overhead).
    pub wasted_responses: usize,
    /// Requests delivered (one per (recipient, message)).
    pub requests_delivered: usize,
    /// Responses generated.
    pub responses_sent: usize,
}

/// Optional GPS-based false-positive filter: responders check the source's
/// claimed position against their own before replying.
#[derive(Debug, Clone, Copy)]
pub struct GpsFilter<'a> {
    /// Node positions by index.
    pub positions: &'a [Point],
    /// Transmission range in metres.
    pub range: f64,
}

/// Runs one full message-level M-NDP initiation from `initiator`.
///
/// `nodes[i].id()` must equal `NodeId(i as u32)` — the engine maps
/// identities to indices directly.
///
/// # Panics
///
/// Panics if `initiator` is out of range or `nu == 0`.
pub fn initiate(
    nodes: &mut [Node],
    physical: &Graph,
    gps: Option<GpsFilter<'_>>,
    initiator: usize,
    nonce: Nonce,
    nu: usize,
) -> MndpStats {
    assert!(nu >= 1, "nu must be at least 1");
    assert!(initiator < nodes.len(), "initiator out of range");
    let source_id = nodes[initiator].id();
    let mut stats = MndpStats::default();
    let mut seen: HashSet<usize> = HashSet::new(); // nodes that processed this request
    seen.insert(initiator);

    // A -> each logical neighbor C: {ID_A, L_A, n_A, nu, SIG_A}.
    let source_entry_neighbors = nodes[initiator].logical_ids();
    let mut base = MndpRequest {
        source: source_id,
        nonce,
        nu,
        chain: vec![ChainEntry {
            id: source_id,
            neighbors: source_entry_neighbors,
            signature: jrsnd_crypto::ibc::IbSignature::forged(source_id, 0),
        }],
    };
    let payload = base.signing_payload(0);
    base.chain[0].signature = nodes[initiator].private_key().sign(&payload);

    let mut queue: VecDeque<(usize, MndpRequest)> = nodes[initiator]
        .logical_indices()
        .into_iter()
        .map(|c| (c, base.clone()))
        .collect();

    while let Some((at, req)) = queue.pop_front() {
        stats.requests_delivered += 1;
        if !process_request(
            nodes, physical, gps, initiator, at, &req, &mut seen, &mut queue, &mut stats,
        ) {
            continue;
        }
    }
    metric_counter!("mndp.requests_delivered").add(stats.requests_delivered as u64);
    metric_counter!("mndp.responses_sent").add(stats.responses_sent as u64);
    metric_counter!("mndp.discovered").add(stats.discovered.len() as u64);
    metric_counter!("mndp.wasted_responses").add(stats.wasted_responses as u64);
    stats
}

/// Handles one delivered request at node `at`. Returns `false` when the
/// request was dropped.
#[allow(clippy::too_many_arguments)]
fn process_request(
    nodes: &mut [Node],
    physical: &Graph,
    gps: Option<GpsFilter<'_>>,
    initiator: usize,
    at: usize,
    req: &MndpRequest,
    seen: &mut HashSet<usize>,
    queue: &mut VecDeque<(usize, MndpRequest)>,
    stats: &mut MndpStats,
) -> bool {
    // Duplicate suppression: each node processes one copy per initiation.
    if !seen.insert(at) {
        return false;
    }

    // 1. Verify every signature in the chain.
    for (i, entry) in req.chain.iter().enumerate() {
        let payload = req.signing_payload(i);
        let sig = entry.signature;
        let verified = nodes[at].verify_counted(&payload, &sig);
        if verified {
            metric_counter!("mndp.verifications_passed").inc();
        } else {
            metric_counter!("mndp.verifications_failed").inc();
            sim_trace!(
                0.0,
                "mndp",
                "node {at} rejected chain entry {i}: bad signature"
            );
        }
        if !verified || sig.signer() != entry.id {
            return false;
        }
    }

    // 2. Path validation: consecutive chain entries must list each other
    //    as logical neighbors, and the last forwarder must be a logical
    //    neighbor of this node.
    for w in req.chain.windows(2) {
        let (prev, cur) = (&w[0], &w[1]);
        if !prev.neighbors.contains(&cur.id) || !cur.neighbors.contains(&prev.id) {
            return false;
        }
    }
    let last = req.chain.last().expect("chain is never empty");
    let last_idx = last.id.0 as usize;
    if !nodes[at].is_logical(last_idx) {
        return false;
    }

    // A node that is already a logical neighbor of the source got the
    // request redundantly (stale lists) — nothing to discover, but it may
    // still forward.
    let already_logical = nodes[at].is_logical(initiator);

    // 3. Respond: derive the session material and HELLO for tau_h.
    if !already_logical {
        let in_claimed_range =
            gps.is_none_or(|g| g.positions[initiator].distance(g.positions[at]) <= g.range);
        if in_claimed_range {
            stats.responses_sent += 1;
            let response_ok = deliver_response(nodes, initiator, at, req);
            let physically_adjacent = physical.has_edge(initiator, at);
            if response_ok && physically_adjacent {
                // A hears {HELLO}_{C_BA}, confirms; both adopt the link.
                let peer_id = nodes[at].id();
                let src_id = nodes[initiator].id();
                nodes[initiator].add_logical(at, peer_id, DiscoveryKind::MultiHop);
                nodes[at].add_logical(initiator, src_id, DiscoveryKind::MultiHop);
                stats.discovered.push((initiator, at, req.chain.len()));
            } else if response_ok {
                stats.wasted_responses += 1;
            }
        }
    }

    // 4. Forward while the hop budget allows. The request has traversed
    //    `chain.len()` hops upon delivery here.
    let traversed = req.chain.len();
    if traversed < req.nu {
        // Exclude everyone who already saw (or was sent) the request per
        // the chained neighbor lists, plus chain members and the source.
        let mut excluded: HashSet<NodeId> = HashSet::new();
        excluded.insert(req.source);
        for entry in &req.chain {
            excluded.insert(entry.id);
            excluded.extend(entry.neighbors.iter().copied());
        }
        let my_id = nodes[at].id();
        let my_neighbors = nodes[at].logical_ids();
        let targets: Vec<usize> = nodes[at]
            .logical_indices()
            .into_iter()
            .filter(|&t| !excluded.contains(&nodes[t].id()))
            .collect();
        if !targets.is_empty() {
            let mut fwd = req.clone();
            fwd.chain.push(ChainEntry {
                id: my_id,
                neighbors: my_neighbors,
                signature: jrsnd_crypto::ibc::IbSignature::forged(my_id, 0),
            });
            let payload = fwd.signing_payload(fwd.chain.len() - 1);
            let sig = nodes[at].private_key().sign(&payload);
            fwd.chain.last_mut().expect("just pushed").signature = sig;
            for t in targets {
                queue.push_back((t, fwd.clone()));
            }
        }
    }
    true
}

/// Walks the M-NDP response back along the request path, verifying
/// signatures at every intermediate node and at the source. Returns
/// whether the source accepted the response.
fn deliver_response(
    nodes: &mut [Node],
    initiator: usize,
    responder: usize,
    req: &MndpRequest,
) -> bool {
    let responder_id = nodes[responder].id();
    let mut resp = MndpResponse {
        source: req.source,
        responder: responder_id,
        nonce: Nonce::from_value(responder as u32 + 1), // n_B; value is irrelevant to control flow
        nu: req.nu,
        chain: vec![ChainEntry {
            id: responder_id,
            neighbors: nodes[responder].logical_ids(),
            signature: jrsnd_crypto::ibc::IbSignature::forged(responder_id, 0),
        }],
    };
    let payload = resp.signing_payload(0);
    resp.chain[0].signature = nodes[responder].private_key().sign(&payload);

    // Reverse path: the chain's forwarders after the source, walked back.
    let reverse_path: Vec<usize> = req
        .chain
        .iter()
        .skip(1)
        .rev()
        .map(|e| e.id.0 as usize)
        .collect();
    for hop in reverse_path {
        // Each intermediate verifies the accumulated response signatures.
        for (i, entry) in resp.chain.clone().iter().enumerate() {
            let payload = resp.signing_payload(i);
            if nodes[hop].verify_counted(&payload, &entry.signature) {
                metric_counter!("mndp.verifications_passed").inc();
            } else {
                metric_counter!("mndp.verifications_failed").inc();
                return false;
            }
        }
        let hop_id = nodes[hop].id();
        resp.chain.push(ChainEntry {
            id: hop_id,
            neighbors: nodes[hop].logical_ids(),
            signature: jrsnd_crypto::ibc::IbSignature::forged(hop_id, 0),
        });
        let payload = resp.signing_payload(resp.chain.len() - 1);
        let sig = nodes[hop].private_key().sign(&payload);
        resp.chain.last_mut().expect("just pushed").signature = sig;
    }

    // The source verifies everything and checks the path closes: the last
    // forwarder must be one of its logical neighbors.
    for (i, entry) in resp.chain.iter().enumerate() {
        let payload = resp.signing_payload(i);
        let sig = entry.signature;
        if nodes[initiator].verify_counted(&payload, &sig) {
            metric_counter!("mndp.verifications_passed").inc();
        } else {
            metric_counter!("mndp.verifications_failed").inc();
            return false;
        }
    }
    match resp.chain.last() {
        Some(last) if resp.chain.len() > 1 => nodes[initiator].is_logical(last.id.0 as usize),
        _ => true, // direct response from a 1-hop... cannot happen (dropped as already-logical)
    }
}

/// Derives the source's outstanding session-code bank — one spread code
/// `C_BA = h_{K_AB}(n_A ⊗ n_B)` per pending M-NDP response — in one
/// lane-parallel PRF pass over all candidates, reusing `scratch` across
/// calls. The result feeds [`closing_hello_heard`] /
/// [`closing_hello_heard_coded`] as the receiver bank.
///
/// `pending` holds `(pairwise key, source nonce, responder nonce)` per
/// outstanding response; order is preserved.
pub fn closing_code_bank(
    pending: &[(&SharedKey, Nonce, Nonce)],
    n_chips: usize,
    scratch: &mut PrfScratch,
) -> Vec<SpreadCode> {
    derive_session_codes(pending, n_chips, scratch)
        .iter()
        .map(|bits| SpreadCode::from_bits(bits))
        .collect()
}

/// [`closing_code_bank`] through a shared [`SessionCodeCache`]: retries of
/// the same initiation — and the responder's own symmetric derivation —
/// reuse the cached PRF stream instead of rederiving it. Identical output
/// to the batched path.
pub fn closing_code_bank_cached(
    cache: &mut SessionCodeCache,
    pending: &[(&SharedKey, Nonce, Nonce)],
    n_chips: usize,
) -> Vec<SpreadCode> {
    pending
        .iter()
        .map(|&(key, mine, theirs)| {
            SpreadCode::from_bits(cache.get_or_derive(key, mine, theirs, n_chips))
        })
        .collect()
}

/// Chip-level check of the closing HELLO (Section V-C, final step): the
/// responder transmits `{HELLO}_{C_BA}` spread with the freshly derived
/// session code, and the source listens with a *receiver bank* over every
/// outstanding session code (one per pending M-NDP response), despreading
/// each candidate bit period by [`ChipChannel::correlate`] — straight off
/// the medium's chips, with no sample ever rendered.
///
/// `hello_bits` is the frame content the source expects for this
/// initiation (it derived the session key itself, so it knows the HELLO it
/// is waiting for): the D-NDP HELLO layout,
/// [`WireFormat::encode_hello`](crate::wire::WireFormat::encode_hello) in
/// the run's `params.wire_format`. Returns the index of the candidate code that decoded
/// the HELLO cleanly, or `None` — e.g. when the responder is out of range
/// (the caller models that by not transmitting, i.e. `amplitude == None`)
/// or its code is not in the bank.
///
/// # Errors
///
/// Returns [`DecodeError::EmptyFrame`] if `hello_bits` or `candidates` is
/// empty, and [`DecodeError::CodeLengthMismatch`] if the session code's
/// length differs from the bank's — both are attacker-reachable shapes
/// (a corrupted response can carry any nonce material), so they must not
/// panic.
///
/// # Panics
///
/// Panics if the candidates do not share one chip length.
pub fn closing_hello_heard(
    hello_bits: &[bool],
    session_code: &SpreadCode,
    candidates: &[&SpreadCode],
    amplitude: Option<i32>,
    noise: f64,
    noise_seed: u64,
    tau: f64,
) -> Result<Option<usize>, DecodeError> {
    if hello_bits.is_empty() || candidates.is_empty() {
        return Err(DecodeError::EmptyFrame);
    }
    let n = bank_code_len(session_code, candidates)?;
    let mut channel = ChipChannel::new(noise_seed).with_noise(noise);
    if let Some(amp) = amplitude {
        channel.transmit_spread(0, hello_bits, session_code, amp);
    }
    // The first candidate whose every bit period despreads to the
    // expected bit.
    let heard = candidates.iter().position(|code| {
        hello_bits.iter().enumerate().all(|(j, &expected)| {
            let dot = channel.correlate((j * n) as u64, code.chips());
            decide(dot as f64 / n as f64, tau).bit() == Some(expected)
        })
    });
    if heard.is_some() {
        metric_counter!("mndp.closing_hellos_heard").inc();
    } else {
        metric_counter!("mndp.closing_hellos_missed").inc();
    }
    Ok(heard)
}

/// The candidates' shared chip length, checked against the session code's.
fn bank_code_len(
    session_code: &SpreadCode,
    candidates: &[&SpreadCode],
) -> Result<usize, DecodeError> {
    let n = candidates[0].len();
    assert!(
        candidates.iter().all(|c| c.len() == n),
        "all candidate codes must share one chip length"
    );
    if session_code.len() != n {
        return Err(DecodeError::CodeLengthMismatch {
            expected: n,
            got: session_code.len(),
        });
    }
    Ok(n)
}

/// [`closing_hello_heard`] with the closing HELLO carried through the
/// (1+μ)-expansion ECC, as a full JR-SND transmission would be: the
/// responder encodes the frame through `codec` before spreading, and the
/// source despreads each bank candidate into coded bits plus sub-threshold
/// erasure flags, then ECC-decodes and matches against the expected frame.
/// The shared [`FrameCodec`](crate::messages::FrameCodec) scratch makes the per-candidate ECC work
/// allocation-free.
///
/// Returns the index of the first candidate whose decode reproduces
/// `hello_bits`, or `None`.
///
/// # Errors
///
/// Returns [`DecodeError::EmptyFrame`] if `hello_bits` or `candidates` is
/// empty, [`DecodeError::CodeLengthMismatch`] if the session code's length
/// differs from the bank's, and [`DecodeError::Ecc`] if the expected frame
/// cannot be ECC-encoded.
///
/// # Panics
///
/// Panics if the candidates do not share one chip length.
#[allow(clippy::too_many_arguments)]
pub fn closing_hello_heard_coded(
    hello_bits: &[bool],
    session_code: &SpreadCode,
    candidates: &[&SpreadCode],
    amplitude: Option<i32>,
    noise: f64,
    noise_seed: u64,
    tau: f64,
    codec: &mut crate::messages::FrameCodec,
) -> Result<Option<usize>, DecodeError> {
    if hello_bits.is_empty() || candidates.is_empty() {
        return Err(DecodeError::EmptyFrame);
    }
    let mut coded = Vec::new();
    codec.encode_into(hello_bits, &mut coded)?;
    bank_code_len(session_code, candidates)?;
    let mut channel = ChipChannel::new(noise_seed).with_noise(noise);
    if let Some(amp) = amplitude {
        channel.transmit_spread(0, &coded, session_code, amp);
    }
    let mut frame = Frame {
        bits: Vec::new(),
        erased: Vec::new(),
    };
    let mut decoded = Vec::new();
    let heard = candidates.iter().position(|code| {
        despread_from_channel_into(&channel, 0, code, coded.len(), tau, &mut frame);
        codec
            .decode_into(&frame.bits, &frame.erased, hello_bits.len(), &mut decoded)
            .is_ok()
            && decoded == hello_bits
    });
    if heard.is_some() {
        metric_counter!("mndp.closing_hellos_heard").inc();
    } else {
        metric_counter!("mndp.closing_hellos_missed").inc();
    }
    Ok(heard)
}

/// One closure pass of the graph-level shortcut: every physical pair not
/// yet logical that is connected by a logical path of at most `nu` hops
/// gets discovered. Returns `(u, v, hops)` triples (edges NOT yet added).
pub fn closure_pass(logical: &Graph, physical: &Graph, nu: usize) -> Vec<(usize, usize, usize)> {
    let mut found = Vec::new();
    for (u, v) in physical.edges() {
        if logical.has_edge(u, v) {
            continue;
        }
        if let Some(path) = logical.shortest_path_within(u, v, nu) {
            found.push((u, v, path.len() - 1));
        }
    }
    found
}

/// Iterates [`closure_pass`], adding discovered edges, until fixpoint.
/// Returns all discovered triples and the number of passes (epochs).
pub fn discover_closure(
    logical: &mut Graph,
    physical: &Graph,
    nu: usize,
) -> (Vec<(usize, usize, usize)>, usize) {
    let mut all = Vec::new();
    let mut epochs = 0;
    loop {
        let found = closure_pass(logical, physical, nu);
        if found.is_empty() {
            break;
        }
        epochs += 1;
        for &(u, v, _) in &found {
            logical.add_edge(u, v);
        }
        all.extend(found);
    }
    metric_counter!("mndp.closure_runs").inc();
    metric_counter!("mndp.closure_discoveries").add(all.len() as u64);
    metric_histogram!("mndp.epochs_to_fixpoint", 0.0, 16.0, 16).record(epochs as f64);
    (all, epochs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrsnd_crypto::ibc::Authority;
    use jrsnd_dsss::code::CodeId;

    /// Builds nodes 0..n with identities NodeId(i) and the given logical
    /// edges pre-established.
    fn build_nodes(n: usize, logical_edges: &[(usize, usize)]) -> Vec<Node> {
        let authority = Authority::from_seed(b"mndp-test");
        let mut nodes: Vec<Node> = (0..n)
            .map(|i| {
                Node::new(
                    i,
                    vec![CodeId(i as u32)],
                    authority.issue(NodeId(i as u32)),
                    authority.verifier(),
                )
            })
            .collect();
        for &(u, v) in logical_edges {
            let (vid, uid) = (NodeId(v as u32), NodeId(u as u32));
            nodes[u].add_logical(v, vid, DiscoveryKind::Direct);
            nodes[v].add_logical(u, uid, DiscoveryKind::Direct);
        }
        nodes
    }

    fn logical_graph(nodes: &[Node]) -> Graph {
        let mut g = Graph::new(nodes.len());
        for node in nodes {
            for peer in node.logical_indices() {
                if peer > node.index() {
                    g.add_edge(node.index(), peer);
                }
            }
        }
        g
    }

    #[test]
    fn two_hop_discovery_through_common_neighbor() {
        // A(0) - C(2) - B(1) logically; A-B physically adjacent.
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let stats = initiate(&mut nodes, &physical, None, 0, Nonce::from_value(1), 2);
        assert_eq!(stats.discovered, vec![(0, 1, 2)]);
        assert!(nodes[0].is_logical(1));
        assert!(nodes[1].is_logical(0));
        assert_eq!(stats.wasted_responses, 0);
        assert!(stats.responses_sent >= 1);
    }

    #[test]
    fn hop_limit_is_enforced() {
        // Logical path 0-2-3-1 (3 hops). Physical edge 0-1.
        let edges = [(0, 2), (2, 3), (3, 1)];
        let physical = Graph::from_edges(4, [(0, 1), (0, 2), (2, 3), (3, 1)]);
        let mut nodes = build_nodes(4, &edges);
        let stats = initiate(&mut nodes, &physical, None, 0, Nonce::from_value(2), 2);
        assert!(stats.discovered.is_empty(), "nu = 2 cannot span 3 hops");
        let mut nodes = build_nodes(4, &edges);
        let stats = initiate(&mut nodes, &physical, None, 0, Nonce::from_value(3), 3);
        assert_eq!(stats.discovered, vec![(0, 1, 3)]);
    }

    #[test]
    fn non_physical_neighbors_waste_responses() {
        // 0-2-1 logically, but 0 and 1 are NOT in radio range.
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 2), (1, 2)]);
        let stats = initiate(&mut nodes, &physical, None, 0, Nonce::from_value(4), 2);
        assert!(stats.discovered.is_empty());
        assert_eq!(stats.wasted_responses, 1, "node 1 HELLOed into the void");
        assert!(!nodes[0].is_logical(1));
    }

    #[test]
    fn gps_filter_suppresses_wasted_responses() {
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 2), (1, 2)]);
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1000.0, 0.0), // far from node 0
            Point::new(150.0, 0.0),
        ];
        let gps = GpsFilter {
            positions: &positions,
            range: 300.0,
        };
        let stats = initiate(&mut nodes, &physical, Some(gps), 0, Nonce::from_value(5), 2);
        assert_eq!(stats.wasted_responses, 0);
        assert_eq!(stats.responses_sent, 0);
    }

    #[test]
    fn signature_verifications_are_counted() {
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        initiate(&mut nodes, &physical, None, 0, Nonce::from_value(6), 2);
        // C (node 2) verified the request; B (node 1) verified the chain;
        // C and A verified the response.
        assert!(
            nodes[2].verifications() >= 2,
            "relay verifies request + response"
        );
        assert!(
            nodes[1].verifications() >= 2,
            "responder verifies both chain sigs"
        );
        assert!(
            nodes[0].verifications() >= 2,
            "source verifies the response chain"
        );
    }

    #[test]
    fn tampered_chain_is_dropped() {
        // Forge: node 2 claims node 1 is reachable via a chain whose
        // signature is garbage. Build it manually.
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let bogus = MndpRequest {
            source: NodeId(0),
            nonce: Nonce::from_value(7),
            nu: 2,
            chain: vec![ChainEntry {
                id: NodeId(0),
                neighbors: vec![NodeId(2)],
                signature: jrsnd_crypto::ibc::IbSignature::forged(NodeId(0), 0xAB),
            }],
        };
        let mut seen = HashSet::new();
        seen.insert(0usize);
        let mut queue = VecDeque::new();
        let mut stats = MndpStats::default();
        let accepted = process_request(
            &mut nodes, &physical, None, 0, 2, &bogus, &mut seen, &mut queue, &mut stats,
        );
        assert!(!accepted);
        assert!(stats.discovered.is_empty());
        assert!(queue.is_empty(), "invalid requests must not propagate");
    }

    #[test]
    fn closing_hello_is_heard_through_the_session_code_bank() {
        use jrsnd_dsss::code::SpreadCode;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        let codes: Vec<SpreadCode> = (0..5).map(|_| SpreadCode::random(512, &mut rng)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let hello: Vec<bool> = (0..24).map(|i| i % 3 != 0).collect();
        // The responder's session code is candidate 3 of A's pending bank.
        let heard = closing_hello_heard(&hello, &codes[3], &refs, Some(1), 0.02, 7, 0.15);
        assert_eq!(heard, Ok(Some(3)));
    }

    #[test]
    fn closing_hello_with_foreign_code_is_missed() {
        use jrsnd_dsss::code::SpreadCode;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(512, &mut rng)).collect();
        let refs: Vec<&SpreadCode> = codes[..3].iter().collect();
        let hello: Vec<bool> = (0..24).map(|i| i % 2 == 0).collect();
        // Responder spreads with a code A is not waiting for.
        assert_eq!(
            closing_hello_heard(&hello, &codes[3], &refs, Some(1), 0.02, 8, 0.15),
            Ok(None)
        );
        // Out of range: nothing transmitted, only noise.
        assert_eq!(
            closing_hello_heard(&hello, &codes[0], &refs, None, 0.02, 9, 0.15),
            Ok(None)
        );
    }

    #[test]
    fn coded_closing_hello_is_heard_and_reuses_scratch() {
        use crate::messages::FrameCodec;
        use jrsnd_dsss::code::SpreadCode;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(512, &mut rng)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let hello: Vec<bool> = (0..24).map(|i| i % 3 != 0).collect();
        let mut codec = FrameCodec::new(1.0).expect("valid mu");
        // Same codec instance across heard / foreign-code / out-of-range
        // calls: scratch reuse must not change any verdict.
        let heard = closing_hello_heard_coded(
            &hello,
            &codes[2],
            &refs,
            Some(1),
            0.02,
            11,
            0.15,
            &mut codec,
        );
        assert_eq!(heard, Ok(Some(2)));
        let bank3: Vec<&SpreadCode> = codes[..3].iter().collect();
        assert_eq!(
            closing_hello_heard_coded(
                &hello,
                &codes[3],
                &bank3,
                Some(1),
                0.02,
                12,
                0.15,
                &mut codec
            ),
            Ok(None)
        );
        assert_eq!(
            closing_hello_heard_coded(&hello, &codes[0], &refs, None, 0.02, 13, 0.15, &mut codec),
            Ok(None)
        );
        // Repeat of the first call: identical outcome with warm scratch.
        let again = closing_hello_heard_coded(
            &hello,
            &codes[2],
            &refs,
            Some(1),
            0.02,
            11,
            0.15,
            &mut codec,
        );
        assert_eq!(again, Ok(Some(2)));
    }

    #[test]
    fn packed_closing_hello_is_shorter_and_still_heard() {
        use crate::messages::{FrameCodec, MessageKind, WireConfig};
        use crate::wire::WireFormat;
        use jrsnd_dsss::code::SpreadCode;
        use rand::SeedableRng;
        let cfg = WireConfig::from_params(&crate::params::Params::default());
        let closing_hello = |format: WireFormat| {
            format
                .encode_hello(&cfg, MessageKind::Hello, NodeId(5))
                .expect("id fits")
        };
        let legacy = closing_hello(WireFormat::Legacy);
        let packed = closing_hello(WireFormat::Packed);
        assert!(
            packed.len() < legacy.len(),
            "packed closing HELLO ({}) should beat legacy ({})",
            packed.len(),
            legacy.len()
        );
        // The packed frame survives the full coded chip-level path.
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(512, &mut rng)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let mut codec = FrameCodec::new(1.0).expect("valid mu");
        let heard = closing_hello_heard_coded(
            &packed,
            &codes[2],
            &refs,
            Some(1),
            0.02,
            17,
            0.15,
            &mut codec,
        );
        assert_eq!(heard, Ok(Some(2)));
        // A bank that is not waiting for this session misses it.
        let bank3: Vec<&SpreadCode> = codes[..3].iter().collect();
        assert_eq!(
            closing_hello_heard_coded(
                &packed,
                &codes[3],
                &bank3,
                Some(1),
                0.02,
                18,
                0.15,
                &mut codec
            ),
            Ok(None)
        );
    }

    #[test]
    fn code_bank_helpers_match_scalar_derivation_and_feed_the_receiver() {
        use jrsnd_crypto::session::derive_session_code;
        let authority = Authority::from_seed(b"bank-test");
        let k0 = authority.issue(NodeId(0));
        let keys: Vec<SharedKey> = (1..=10u32).map(|i| k0.shared_key(NodeId(i))).collect();
        let n_a = Nonce::from_value(0xA0);
        let pending: Vec<(&SharedKey, Nonce, Nonce)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k, n_a, Nonce::from_value(0xB0 + i as u32)))
            .collect();
        let mut scratch = PrfScratch::new();
        let bank = closing_code_bank(&pending, 512, &mut scratch);
        let mut cache = SessionCodeCache::new(32);
        let cached = closing_code_bank_cached(&mut cache, &pending, 512);
        assert_eq!(bank, cached);
        for (i, (k, a, b)) in pending.iter().enumerate() {
            let bits = derive_session_code(k, *a, *b, 512);
            assert_eq!(bank[i], SpreadCode::from_bits(&bits), "entry {i}");
        }
        assert_eq!(cache.len(), pending.len());
        // Retrying the same initiation reuses the cache, never rederives.
        let again = closing_code_bank_cached(&mut cache, &pending, 512);
        assert_eq!(again, bank);
        assert_eq!(cache.len(), pending.len(), "retry must not grow the cache");
        // The derived bank actually hears candidate 4's closing HELLO.
        let refs: Vec<&SpreadCode> = bank.iter().collect();
        let hello: Vec<bool> = (0..16).map(|i| i % 5 != 0).collect();
        assert_eq!(
            closing_hello_heard(&hello, &bank[4], &refs, Some(1), 0.02, 21, 0.15),
            Ok(Some(4))
        );
    }

    #[test]
    fn closure_pass_finds_exactly_reachable_pairs() {
        // Logical: 0-2, 2-1, 3 isolated. Physical: 0-1, 0-3.
        let logical = Graph::from_edges(4, [(0, 2), (2, 1)]);
        let physical = Graph::from_edges(4, [(0, 1), (0, 3), (0, 2), (1, 2)]);
        let found = closure_pass(&logical, &physical, 2);
        assert_eq!(found, vec![(0, 1, 2)]);
    }

    #[test]
    fn closure_iterates_to_fixpoint() {
        // Chain topology where each pass enables the next discovery:
        // logical 0-2, 2-1; physical 0-1 and 1-3; logical 3-? none...
        // After pass 1 adds 0-1, the pair (1,3) still has no logical path,
        // so only one epoch happens. Build a genuinely cascading case:
        // logical: 0-2, 2-1, 1-4, physical pairs: (0,1) then (0,4).
        let mut logical = Graph::from_edges(5, [(0, 2), (2, 1), (1, 4)]);
        let physical = Graph::from_edges(5, [(0, 1), (0, 4), (0, 2), (1, 2), (1, 4)]);
        let (found, epochs) = discover_closure(&mut logical, &physical, 2);
        // Pass 1: (0,1) via 0-2-1. Pass 2: (0,4) via the new 0-1 edge.
        assert_eq!(epochs, 2);
        assert_eq!(found, vec![(0, 1, 2), (0, 4, 2)]);
        assert!(logical.has_edge(0, 4));
    }

    #[test]
    fn protocol_equals_closure_on_random_networks() {
        use jrsnd_sim::rng::SimRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let n = 24;
            // Random physical graph and a random logical subgraph of it.
            let mut physical = Graph::new(n);
            let mut logical_edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.18) {
                        physical.add_edge(u, v);
                        if rng.gen_bool(0.6) {
                            logical_edges.push((u, v));
                        }
                    }
                }
            }
            // Closure shortcut.
            let mut closure_graph = Graph::from_edges(n, logical_edges.iter().copied());
            let (_, _) = discover_closure(&mut closure_graph, &physical, 2);
            // Full protocol, every node initiating, repeated to fixpoint.
            let mut nodes = build_nodes(n, &logical_edges);
            let mut round = 0u32;
            loop {
                let mut any = false;
                for i in 0..n {
                    let nonce = Nonce::from_value(round * 1000 + i as u32);
                    let stats = initiate(&mut nodes, &physical, None, i, nonce, 2);
                    any |= !stats.discovered.is_empty();
                }
                round += 1;
                if !any {
                    break;
                }
                assert!(round < 50, "protocol failed to converge");
            }
            let protocol_graph = logical_graph(&nodes);
            assert_eq!(
                protocol_graph, closure_graph,
                "seed {seed}: protocol and closure disagree"
            );
        }
    }
}
