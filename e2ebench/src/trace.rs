//! The benchmark's own span recorder.
//!
//! Every replay in this benchmark calls the program's public layer
//! functions through a [`Tracer`]. When tracing is on, each call is wrapped
//! in a span (layer, start, end, parent) kept in memory; when it is off the
//! wrapper is a single branch, so the same replay code gives both the
//! untraced and the traced wall time whose ratio is `trace.overhead`.
//!
//! A span's self time is its duration minus its children's. Spans of the
//! structural layers ([`Layer::Root`], [`Layer::Session`]) are not layer
//! metrics: their self time is the replay loop's own work and is reported
//! as `other_s`, so the layer self times plus `other_s` add up to the root
//! span, i.e. the traced replay's wall time.

use std::io::Write;
use std::time::Instant;

/// What a span measures. Every non-structural layer maps to one per-layer
/// metric name (see [`Layer::metric`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole replay of one workload pass.
    Root,
    /// One session, one network run, or one D-NDP shard: replay glue.
    Session,
    /// `sync::scan_from_with`.
    SyncScan,
    /// `sync::decode_frame_into` plus the HELLO `FrameCodec::decode_into`.
    SyncDecode,
    /// `spread::spread` plus `ChipChannel::transmit`.
    ChannelTransmit,
    /// `ChipChannel::render_into`.
    ChannelRender,
    /// `MultiCorrelator::new` plus `MultiCorrelator::scanner`.
    CorrelatePrefix,
    /// `spread::despread_from_channel`.
    SpreadDespread,
    /// `FrameCodec::encode_into`.
    EccEncode,
    /// Exchange-message `FrameCodec::decode_into`.
    EccDecode,
    /// `Initiator`/`Responder` handlers.
    Endpoint,
    /// `Authority::issue` plus endpoint construction.
    KeyIssue,
    /// `NodeStore::sample_uniform`.
    Placement,
    /// `CsrGraph::build`.
    Topology,
    /// `CodeAssignment::generate`.
    PredistGenerate,
    /// `Engine` construction, scheduling and dispatch (self time only).
    EngineDispatch,
    /// `CodeAssignment::shared_codes` plus `dndp::simulate_pair_with`.
    SimulatePair,
    /// `Field::sample_uniform_n` plus `topology::physical_graph`.
    PhysicalGraph,
    /// The Theorem 3 capability loop over `Graph::shortest_path_within`.
    MndpCapability,
    /// `mndp::closure_pass`.
    MndpClosurePass,
    /// `mndp::discover_closure`.
    MndpDiscoverClosure,
}

/// Every layer, in metric order.
pub const LAYERS: [Layer; 21] = [
    Layer::Root,
    Layer::Session,
    Layer::SyncScan,
    Layer::SyncDecode,
    Layer::ChannelTransmit,
    Layer::ChannelRender,
    Layer::CorrelatePrefix,
    Layer::SpreadDespread,
    Layer::EccEncode,
    Layer::EccDecode,
    Layer::Endpoint,
    Layer::KeyIssue,
    Layer::Placement,
    Layer::Topology,
    Layer::PredistGenerate,
    Layer::EngineDispatch,
    Layer::SimulatePair,
    Layer::PhysicalGraph,
    Layer::MndpCapability,
    Layer::MndpClosurePass,
    Layer::MndpDiscoverClosure,
];

impl Layer {
    /// The per-layer metric this layer's self time is reported under;
    /// `None` for the structural layers, whose self time is `other_s`.
    pub fn metric(self) -> Option<&'static str> {
        Some(match self {
            Layer::Root | Layer::Session => return None,
            Layer::SyncScan => "dsss.sync.scan_s",
            Layer::SyncDecode => "dsss.sync.decode_s",
            Layer::ChannelTransmit => "dsss.channel.transmit_s",
            Layer::ChannelRender => "dsss.channel.render_s",
            Layer::CorrelatePrefix => "dsss.correlate.prefix_s",
            Layer::SpreadDespread => "dsss.spread.despread_s",
            Layer::EccEncode => "ecc.encode_s",
            Layer::EccDecode => "ecc.decode_s",
            Layer::Endpoint => "handshake.endpoint_s",
            Layer::KeyIssue => "crypto.key_issue_s",
            Layer::Placement => "sim.soa.placement_s",
            Layer::Topology => "sim.soa.topology_s",
            Layer::PredistGenerate => "predist.generate_s",
            Layer::EngineDispatch => "sim.engine.dispatch_s",
            Layer::SimulatePair => "dndp.simulate_pair_s",
            Layer::PhysicalGraph => "sim.topology.physical_graph_s",
            Layer::MndpCapability => "mndp.capability_s",
            Layer::MndpClosurePass => "mndp.closure_pass_s",
            Layer::MndpDiscoverClosure => "mndp.discover_closure_s",
        })
    }

    fn index(self) -> usize {
        LAYERS
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed")
    }
}

const NO_PARENT: u32 = u32::MAX;
/// Spans written out per trace file; the workloads with per-pair spans
/// record over a million, which would make files of tens of MB.
const MAX_WRITTEN: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open span, closed by [`Tracer::end`].
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(u32);

/// In-memory span recorder; a no-op when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, layer: Layer) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn end(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop().expect("a span is open");
        assert_eq!(top, span.0, "spans must close innermost first");
        self.spans[top as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let open = self.begin(layer);
        let out = f();
        self.end(open);
        out
    }

    /// Self time per layer and `other_s`, in nanoseconds. Fails if any
    /// span lies outside its parent's interval (a negative self time) or if
    /// the spans do not hang off one root: either would make the
    /// attribution not add up.
    pub fn attribute(&self) -> Result<Attribution, String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans still open", self.open.len()));
        }
        let roots: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .collect();
        if roots.len() != 1 || roots[0].layer != Layer::Root {
            return Err(format!("expected one root span, found {}", roots.len()));
        }
        let wall_ns = roots[0].end_ns - roots[0].start_ns;
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "{:?} span escapes its {:?} parent",
                        s.layer, p.layer
                    ));
                }
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut self_ns = [0u64; LAYERS.len()];
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns)
                .checked_sub(children)
                .ok_or_else(|| format!("{:?} span has overlapping children", s.layer))?;
            self_ns[s.layer.index()] += own;
        }
        let other_ns = self_ns[Layer::Root.index()] + self_ns[Layer::Session.index()];
        let layer_ns: u64 = LAYERS
            .iter()
            .filter(|l| l.metric().is_some())
            .map(|l| self_ns[l.index()])
            .sum();
        if layer_ns + other_ns != wall_ns {
            return Err(format!(
                "layer self times {layer_ns} ns + other {other_ns} ns != replay wall {wall_ns} ns"
            ));
        }
        Ok(Attribution { self_ns, other_ns })
    }

    /// Writes the first [`MAX_WRITTEN`] spans, in start order, as CSV
    /// (`id,parent,layer,start_ns,end_ns`; parent `-1` for the root),
    /// after a comment line giving how many spans were recorded.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {} spans recorded, first {} written",
            self.spans.len(),
            self.spans.len().min(MAX_WRITTEN)
        )?;
        writeln!(out, "id,parent,layer,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate().take(MAX_WRITTEN) {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let name = s.layer.metric().unwrap_or(match s.layer {
                Layer::Root => "root",
                _ => "session",
            });
            writeln!(out, "{i},{parent},{name},{},{}", s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// The traced replay's time, split by layer.
pub struct Attribution {
    self_ns: [u64; LAYERS.len()],
    other_ns: u64,
}

impl Attribution {
    /// Self time of `layer`, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 * 1e-9
    }

    /// Replay time outside every layer span, in seconds.
    pub fn other_s(&self) -> f64 {
        self.other_ns as f64 * 1e-9
    }
}
