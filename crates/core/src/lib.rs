//! JR-SND: jamming-resilient secure neighbor discovery for MANETs.
//!
//! A from-scratch Rust reproduction of *"JR-SND: Jamming-Resilient Secure
//! Neighbor Discovery in Mobile Ad Hoc Networks"* (Rui Zhang, Yanchao
//! Zhang, Xiaoxia Huang — ICDCS 2011). JR-SND breaks the circular
//! dependency between anti-jamming communication and key establishment by
//! pre-loading every node with `m` secret DSSS spread codes drawn from an
//! authority pool such that any code is shared by at most `l` nodes:
//!
//! * [`predist`] — the random spread-code pre-distribution scheme
//!   (Section V-A): `m` rounds of random `l`-sized partitions, virtual
//!   nodes, and late join;
//! * [`dndp`] — D-NDP, the direct four-message discovery handshake with
//!   `x`-fold sub-session redundancy (Section V-B);
//! * [`mndp`] — M-NDP, multi-hop discovery over jamming-resilient paths
//!   with per-hop signature chains (Section V-C), plus the graph-closure
//!   shortcut used at Monte-Carlo scale;
//! * [`revocation`] — the DoS defense that caps fake-request damage at
//!   `(l−1)γ` verifications per compromised code (Section V-D);
//! * [`jammer`] — the random/reactive adversary of Section IV-B;
//! * [`analysis`] — closed forms for Eq. (1)–(2) and Theorems 1–4;
//! * [`network`] / [`montecarlo`] — the seeded network simulator and the
//!   parallel sweep driver that regenerate every figure of Section VI;
//! * [`chiplink`] — the complete handshake run at chip level through the
//!   DSSS/ECC/crypto substrates, validating the protocol-level
//!   abstraction;
//! * [`engine`] — the batch session engine: thousands-to-millions of
//!   concurrent chip-level D-NDP/M-NDP sessions advanced tick-by-tick on
//!   shared media, with one render + prefix-sum pass per receive chunk
//!   ("m receivers, one pass") and byte-identical outputs to the
//!   sequential driver;
//! * [`params`] / [`messages`] / [`node`] — Table I parameters, wire
//!   formats, per-node state.
//!
//! # Examples
//!
//! Reproduce one data point of the paper's evaluation (shrunk for test
//! speed — the `repro` binary runs the full 2000-node version):
//!
//! ```
//! use jrsnd::montecarlo::run_many;
//! use jrsnd::network::ExperimentConfig;
//!
//! let mut config = ExperimentConfig::paper_default();
//! config.params.n = 300;            // shrink the field with the network
//! config.params.field_w = 1940.0;   // to keep the paper's node density
//! config.params.field_h = 1940.0;
//! config.params.q = 3;
//! let agg = run_many(&config, 4, 2011);
//! // Under Table-I-like settings JR-SND discovers nearly every pair.
//! assert!(agg.p_jrsnd.mean() > 0.9);
//! assert!(agg.p_jrsnd.mean() >= agg.p_dndp.mean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod chiplink;
pub mod decode;
pub mod deployment;
pub mod dndp;
pub mod engine;
pub mod handshake;
pub mod jammer;
pub mod messages;
pub mod mndp;
pub mod montecarlo;
pub mod multiantenna;
pub mod network;
pub mod node;
pub mod params;
pub mod predist;
pub mod revocation;
pub mod scale;
pub mod schedule_sim;
pub mod timeline;
pub mod wire;

pub use decode::DecodeError;
pub use deployment::{Deployment, ProvisionedNode};
pub use engine::{BatchEngine, EngineConfig, JamSpec, SessionKind, SessionOutcome, SessionSpec};
pub use jammer::{Jammer, JammerKind};
pub use network::{run_once, ExperimentConfig, ResilienceConfig, RunResult};
pub use params::{Params, ParamsError};
pub use predist::CodeAssignment;
pub use scale::{run_scale, run_scale_many, ScaleConfig, ScalePerf};
