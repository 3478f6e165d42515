//! The packed wire format: zero-copy, word-parallel message framing.
//!
//! The legacy codec in [`crate::messages`] renders every frame as a
//! `Vec<bool>` through an MSB-first [`crate::messages::BitWriter`] — one
//! heap byte per airtime bit, fixed Table-I field widths, and a 672-bit
//! zero-padded signature slot. This module replaces it on the hot path
//! with a little-endian packed bitstream over `u64` words:
//!
//! * [`PackedBits`] — an append-only bit buffer backed by `Vec<u64>`,
//!   with word-granular writes (one push per 64 bits, not per bit) and an
//!   unaligned [`PackedBits::word_at`] read mirroring the chip layer's
//!   `ChipSeq::word_at`.
//! * [`BitCursor`] — a borrowing reader over the same words; parsing a
//!   frame never materialises an intermediate `Vec<bool>` and never
//!   allocates (chain entries excepted — the decoded struct owns them).
//! * **Varints** — integers are coded in little-endian groups of 4
//!   payload bits plus 1 continuation bit, so a node id of 1 costs 5 bits
//!   on air instead of the fixed `l_id = 16`.
//! * **TLV extensions** — every frame may carry trailing
//!   tag-length-value fields (`tag = field_id << 1 | wire_type`); parsers
//!   consume required fields in order and then *skip* any extension they
//!   do not know, so a v1 parser survives frames from future senders
//!   (counted by the `wire.unknown_fields_skipped` metric).
//!
//! # Frame layouts (format v1)
//!
//! ```text
//! HELLO/CONFIRM  [kind varint][id varint][extensions…]
//! AUTH           [id varint][n: l_n bits][mac: l_mac bits][extensions…]
//! signature      [signer varint][tag: 256 bits]          (no l_sig pad)
//! M-NDP request  [source varint][n: l_n bits][nu varint][hops varint]
//!                [entry]*  with entry = [id varint][count varint]
//!                [neighbor varint]*[signature]            [extensions…]
//! M-NDP response [source varint][responder varint][n: l_n bits]
//!                [nu varint][hops varint][entry]*         [extensions…]
//! ```
//!
//! Frame boundaries come from the radio driver (it always knows the coded
//! length it despread), so extension skipping runs "until end of frame".
//! Fixed-width fields (`l_n`, `l_mac`) keep their Table-I widths; the MAC
//! travels as a single `u64` (requires `l_mac <= 64`), compared with an
//! integer compare instead of a `Vec<bool>` equality walk.
//!
//! # Versioning policy
//!
//! The required-field prefix of each frame is frozen: changing it is a
//! format break and must ship as a new [`WireFormat`] variant. New
//! optional fields are appended as TLV extensions — old parsers skip
//! them, which the fuzz and golden-vector suites pin down. The committed
//! `tests/vectors/*.bin` files are the normative byte-level reference;
//! CI regenerates and diffs them so the format cannot drift silently.
//!
//! The legacy codec stays fully supported (see
//! [`crate::messages::reference`]) and remains the default everywhere.
//! Which codec a run speaks is one parameter,
//! [`Params::wire_format`](crate::params::Params::wire_format), read by
//! every driver; the [`WireFormat`] methods are the only place that
//! dispatches on it. Proptest equivalence ties the two codecs together:
//! any message round-trips through both to the identical decoded
//! structure.

use crate::messages::{
    ChainEntry, FrameCodec, MessageKind, MndpRequest, MndpResponse, WireConfig, WireError,
};
use jrsnd_crypto::ibc::{IbSignature, NodeId};
use jrsnd_crypto::mac::AuthTag;
use jrsnd_crypto::nonce::Nonce;
use jrsnd_sim::metric_counter;

/// Which wire codec a run's frames go through, set once per parameter
/// set as [`Params::wire_format`](crate::params::Params::wire_format).
///
/// `Legacy` is the default everywhere — every existing experiment output
/// is byte-identical to before the packed format existed. `Packed`
/// switches the whole datapath (endpoints, chip driver, batch engine,
/// D-NDP airtime accounting) to this module's format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// The fixed-width MSB-first `Vec<bool>` codec in [`crate::messages`].
    #[default]
    Legacy,
    /// The packed varint/TLV format defined by this module.
    Packed,
}

impl WireFormat {
    /// Encodes a HELLO/CONFIRM frame as the bits the radio layer spreads.
    ///
    /// # Errors
    ///
    /// [`WireError::FieldOverflow`] when `id` exceeds `l_id` bits.
    pub fn encode_hello(
        self,
        cfg: &WireConfig,
        kind: MessageKind,
        id: NodeId,
    ) -> Result<Vec<bool>, WireError> {
        match self {
            WireFormat::Legacy => cfg.encode_hello(kind, id),
            WireFormat::Packed => hello_frame_bools(cfg, kind, id),
        }
    }

    /// [`WireFormat::encode_hello`] into a pooled `out`; the packed frame
    /// goes through the codec's wire scratch, so a warm packed encode
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`WireFormat::encode_hello`].
    pub fn encode_hello_into(
        self,
        codec: &mut FrameCodec,
        cfg: &WireConfig,
        kind: MessageKind,
        id: NodeId,
        out: &mut Vec<bool>,
    ) -> Result<(), WireError> {
        match self {
            WireFormat::Legacy => {
                *out = cfg.encode_hello(kind, id)?;
                Ok(())
            }
            WireFormat::Packed => codec.hello_packed(cfg, kind, id, out),
        }
    }

    /// Parses a HELLO/CONFIRM frame.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, an unknown kind, or an oversized id.
    pub fn parse_hello(
        self,
        cfg: &WireConfig,
        bits: &[bool],
    ) -> Result<(MessageKind, NodeId), WireError> {
        match self {
            WireFormat::Legacy => cfg.decode_hello(bits),
            WireFormat::Packed => parse_hello_bools(cfg, bits),
        }
    }

    /// HELLO/CONFIRM frame size in bits, before ECC.
    pub fn hello_bits(self, cfg: &WireConfig, kind: MessageKind, id: NodeId) -> usize {
        match self {
            WireFormat::Legacy => cfg.hello_bits(),
            WireFormat::Packed => packed_hello_bits(cfg, kind, id),
        }
    }

    /// Encodes an AUTH_A/AUTH_B frame `{ID, n, f_K(ID|n)}`.
    ///
    /// # Errors
    ///
    /// [`WireError::FieldOverflow`] on oversized fields (and, packed,
    /// `l_mac > 64`).
    pub fn encode_auth(
        self,
        cfg: &WireConfig,
        id: NodeId,
        nonce: Nonce,
        tag: &AuthTag,
    ) -> Result<Vec<bool>, WireError> {
        match self {
            WireFormat::Legacy => cfg.encode_auth(id, nonce, tag),
            WireFormat::Packed => auth_frame_bools(cfg, id, nonce, tag),
        }
    }

    /// Parses an AUTH frame into `(ID, n, received MAC)`.
    pub(crate) fn parse_auth(
        self,
        cfg: &WireConfig,
        bits: &[bool],
    ) -> Result<(NodeId, Nonce, ParsedMac), WireError> {
        match self {
            WireFormat::Legacy => cfg
                .decode_auth(bits)
                .map(|(id, n, tag_bits)| (id, n, ParsedMac::Legacy(tag_bits))),
            WireFormat::Packed => {
                parse_auth_bools(cfg, bits).map(|(id, n, mac)| (id, n, ParsedMac::Packed(mac)))
            }
        }
    }
}

/// A received MAC in whichever representation its wire format parses it
/// to: the legacy codec yields the truncated tag as bits, the packed codec
/// as a single integer.
pub(crate) enum ParsedMac {
    Legacy(Vec<bool>),
    Packed(u64),
}

impl ParsedMac {
    /// Whether the received MAC matches the locally computed tag. The
    /// packed side is an integer compare against the identical truncated
    /// bit pattern (see [`truncated_tag_value`]).
    pub(crate) fn matches(&self, cfg: &WireConfig, local: &AuthTag) -> bool {
        match self {
            ParsedMac::Legacy(bits) => cfg.tag_matches(bits, local),
            ParsedMac::Packed(mac) => truncated_tag_value(cfg, local).is_ok_and(|v| v == *mac),
        }
    }
}

/// Largest stack-parsed frame in bits: HELLO/CONFIRM/AUTH frames are all
/// far smaller, and the endpoint helpers reject anything bigger instead
/// of spilling to the heap.
const STACK_FRAME_BITS: usize = 512;
/// Stack words backing [`STACK_FRAME_BITS`].
const STACK_FRAME_WORDS: usize = STACK_FRAME_BITS / 64;

/// Parse caps for attacker-controlled counts: a corrupt varint must not
/// translate into an unbounded allocation.
const MAX_CHAIN_ENTRIES: u64 = 4096;
/// Cap on per-entry neighbor-list length, same rationale.
const MAX_NEIGHBORS: u64 = 65536;

// ---------------------------------------------------------------------
// PackedBits: the append-only word-packed bit buffer.
// ---------------------------------------------------------------------

/// A little-endian packed bitstream over `u64` words.
///
/// Bit `i` of the stream is bit `i % 64` of word `i / 64`. The buffer is
/// append-only between [`PackedBits::clear`] calls and is designed to be
/// pooled: `clear` keeps the word capacity, so a warm encode makes no
/// allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An empty buffer.
    pub fn new() -> Self {
        PackedBits::default()
    }

    /// An empty buffer with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        PackedBits {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resets to empty, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// The backing words (the last word's high bits beyond `len` are 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Current word capacity — used by the scratch-reuse accounting.
    pub fn word_capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Appends the low `width` bits of `value` (`width <= 64`).
    pub fn push(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        if width == 0 {
            return;
        }
        let value = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        let off = self.len % 64;
        if off == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("off > 0 implies a word") |= value << off;
            if off + width > 64 {
                self.words.push(value >> (64 - off));
            }
        }
        self.len += width;
    }

    /// Appends one bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push(u64::from(bit), 1);
    }

    /// Appends `v` as a varint: little-endian groups of 4 payload bits,
    /// each followed by 1 continuation bit.
    pub fn push_varint(&mut self, mut v: u64) {
        loop {
            let payload = v & 0xF;
            v >>= 4;
            let more = u64::from(v != 0);
            self.push(payload | (more << 4), 5);
            if more == 0 {
                return;
            }
        }
    }

    /// Appends a `bool` slice, packing 64 bits per word write instead of
    /// one push per bit — the word-parallel bridge from the despread bit
    /// buffer into the packed domain.
    pub fn extend_from_bools(&mut self, bits: &[bool]) {
        for chunk in bits.chunks(64) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= u64::from(b) << i;
            }
            self.push(w, chunk.len());
        }
    }

    /// 64 stream bits starting at `bit`, low bit first — the unaligned
    /// read mirroring `ChipSeq::word_at` in the chip layer. Bits past the
    /// end read as 0.
    pub fn word_at(&self, bit: usize) -> u64 {
        word_at(&self.words, bit)
    }

    /// Bit `i` of the stream.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Unpacks into `out` (cleared first) as one `bool` per bit.
    pub fn write_bools_into(&self, out: &mut Vec<bool>) {
        out.clear();
        out.reserve(self.len);
        for (w, &word) in self.words.iter().enumerate() {
            let take = (self.len - w * 64).min(64);
            for i in 0..take {
                out.push((word >> i) & 1 == 1);
            }
        }
    }

    /// The stream as little-endian bytes, `ceil(len/8)` of them — the
    /// golden-vector serialisation.
    pub fn to_bytes(&self) -> Vec<u8> {
        (0..self.len.div_ceil(8))
            .map(|i| (self.word_at(i * 8) & 0xFF) as u8)
            .collect()
    }

    /// Rebuilds a stream of `len` bits from its [`PackedBits::to_bytes`]
    /// form.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if `bytes` holds fewer than `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Result<Self, WireError> {
        if bytes.len() * 8 < len {
            return Err(WireError::Truncated);
        }
        let mut out = PackedBits::with_capacity(len);
        for (i, &b) in bytes.iter().enumerate() {
            let take = (len - (i * 8).min(len)).min(8);
            if take == 0 {
                break;
            }
            out.push(u64::from(b), take);
        }
        Ok(out)
    }
}

/// Unaligned 64-bit read at bit offset `bit` over `words` (low bit
/// first; out-of-range bits are 0).
fn word_at(words: &[u64], bit: usize) -> u64 {
    let q = bit / 64;
    let sh = bit % 64;
    let lo = words.get(q).copied().unwrap_or(0) >> sh;
    if sh == 0 {
        lo
    } else {
        lo | words.get(q + 1).copied().unwrap_or(0) << (64 - sh)
    }
}

/// Bits a varint encoding of `v` occupies.
pub fn varint_bits(v: u64) -> usize {
    let groups = if v == 0 {
        1
    } else {
        (67 - v.leading_zeros() as usize) / 4
    };
    groups * 5
}

// ---------------------------------------------------------------------
// BitCursor: the borrowing zero-copy reader.
// ---------------------------------------------------------------------

/// A borrowing reader over a packed bitstream.
///
/// Reads are word-parallel unaligned loads (see [`PackedBits::word_at`]);
/// no intermediate buffers, no allocation.
#[derive(Debug, Clone)]
pub struct BitCursor<'a> {
    words: &'a [u64],
    len: usize,
    pos: usize,
}

impl<'a> BitCursor<'a> {
    /// A cursor over a whole [`PackedBits`] stream.
    pub fn new(bits: &'a PackedBits) -> Self {
        BitCursor {
            words: &bits.words,
            len: bits.len,
            pos: 0,
        }
    }

    /// A cursor over `len` bits of raw words (e.g. a stack array).
    pub fn from_words(words: &'a [u64], len: usize) -> Self {
        debug_assert!(len <= words.len() * 64);
        BitCursor { words, len, pos: 0 }
    }

    /// Bits left to read.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Whether the cursor consumed the whole stream.
    pub fn at_end(&self) -> bool {
        self.pos == self.len
    }

    /// Reads the next `width` bits (`width <= 64`) as an integer, low
    /// stream bit = low result bit.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `width` bits remain.
    pub fn read(&mut self, width: usize) -> Result<u64, WireError> {
        debug_assert!(width <= 64);
        if width > self.len - self.pos {
            return Err(WireError::Truncated);
        }
        if width == 0 {
            return Ok(0);
        }
        let v = word_at(self.words, self.pos);
        self.pos += width;
        Ok(if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        })
    }

    /// Reads a varint (see [`PackedBits::push_varint`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on a short stream,
    /// [`WireError::FieldOverflow`] on an encoding longer than 64 payload
    /// bits.
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0usize;
        loop {
            let group = self.read(5)?;
            if shift >= 64 {
                return Err(WireError::FieldOverflow { field: "varint" });
            }
            v |= (group & 0xF) << shift;
            if group & 0x10 == 0 {
                return Ok(v);
            }
            shift += 4;
        }
    }

    /// Skips `width` bits.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `width` bits remain.
    pub fn skip(&mut self, width: usize) -> Result<(), WireError> {
        if width > self.len - self.pos {
            return Err(WireError::Truncated);
        }
        self.pos += width;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// TLV extensions.
// ---------------------------------------------------------------------

/// Appends an unknown-to-us integer extension field (wire type 0):
/// `tag = field_id << 1 | 0`, then the value as a varint. Used to model
/// future senders in tests.
pub fn append_extension_varint(out: &mut PackedBits, field_id: u64, value: u64) {
    debug_assert!(field_id < 1 << 62);
    out.push_varint(field_id << 1);
    out.push_varint(value);
}

/// Appends a bit-string extension field (wire type 1):
/// `tag = field_id << 1 | 1`, a varint bit length, then the raw bits.
pub fn append_extension_bits(out: &mut PackedBits, field_id: u64, bits: &[bool]) {
    debug_assert!(field_id < 1 << 62);
    out.push_varint((field_id << 1) | 1);
    out.push_varint(bits.len() as u64);
    out.extend_from_bools(bits);
}

/// Consumes every remaining TLV extension field, counting each into the
/// `wire.unknown_fields_skipped` metric. Frame boundaries come from the
/// driver, so "until the cursor ends" is exactly "until end of frame".
fn skip_extensions(cur: &mut BitCursor<'_>) -> Result<(), WireError> {
    while !cur.at_end() {
        let tag = cur.read_varint()?;
        if tag & 1 == 0 {
            cur.read_varint()?;
        } else {
            let n = cur.read_varint()?;
            let n = usize::try_from(n).map_err(|_| WireError::Truncated)?;
            cur.skip(n)?;
        }
        metric_counter!("wire.unknown_fields_skipped").inc();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Field helpers shared by the typed codecs.
// ---------------------------------------------------------------------

fn check_width(value: u64, width: usize, field: &'static str) -> Result<(), WireError> {
    if width < 64 && value >> width != 0 {
        return Err(WireError::FieldOverflow { field });
    }
    Ok(())
}

fn push_id(cfg: &WireConfig, id: NodeId, out: &mut PackedBits) -> Result<(), WireError> {
    check_width(u64::from(id.0), cfg.l_id, "id")?;
    out.push_varint(u64::from(id.0));
    Ok(())
}

fn read_id(cfg: &WireConfig, cur: &mut BitCursor<'_>) -> Result<NodeId, WireError> {
    let v = cur.read_varint()?;
    check_width(v, cfg.l_id.min(32), "id")?;
    Ok(NodeId(v as u32))
}

fn push_nonce(cfg: &WireConfig, nonce: Nonce, out: &mut PackedBits) -> Result<(), WireError> {
    check_width(u64::from(nonce.value()), cfg.l_n, "nonce")?;
    out.push(u64::from(nonce.value()), cfg.l_n);
    Ok(())
}

fn read_nonce(cfg: &WireConfig, cur: &mut BitCursor<'_>) -> Result<Nonce, WireError> {
    if cfg.l_n > 32 {
        return Err(WireError::FieldOverflow { field: "l_n" });
    }
    Ok(Nonce::from_value(cur.read(cfg.l_n)? as u32))
}

/// The first `l_mac` bits of `tag` (MSB-first over the tag bytes, exactly
/// the bits [`WireConfig::truncate_tag`] emits) as one integer, so the
/// packed AUTH frame verifies with a `u64` compare.
///
/// # Errors
///
/// [`WireError::FieldOverflow`] when `l_mac > 64`.
pub fn truncated_tag_value(cfg: &WireConfig, tag: &AuthTag) -> Result<u64, WireError> {
    if cfg.l_mac > 64 {
        return Err(WireError::FieldOverflow { field: "l_mac" });
    }
    // Byte-at-a-time: big-endian fold of the covering bytes, then shift
    // off the sub-byte tail — identical to the bit-by-bit MSB-first walk.
    let nbytes = cfg.l_mac.div_ceil(8);
    let mut v = 0u64;
    for &b in &tag.0[..nbytes] {
        v = (v << 8) | u64::from(b);
    }
    Ok(v >> (nbytes * 8 - cfg.l_mac))
}

fn note_encoded(out: &PackedBits, cap_before: usize) {
    metric_counter!("wire.bytes_encoded").add(out.len().div_ceil(8) as u64);
    if cap_before > 0 && out.word_capacity() == cap_before {
        metric_counter!("wire.scratch_reused").inc();
    }
}

// ---------------------------------------------------------------------
// HELLO / CONFIRM.
// ---------------------------------------------------------------------

/// Encodes a HELLO or CONFIRM into `out` (cleared first; a warm pooled
/// buffer is reused allocation-free).
///
/// # Errors
///
/// [`WireError::FieldOverflow`] when `id` exceeds `l_id` bits.
pub fn encode_hello(
    cfg: &WireConfig,
    kind: MessageKind,
    id: NodeId,
    out: &mut PackedBits,
) -> Result<(), WireError> {
    let cap = out.word_capacity();
    out.clear();
    out.push_varint(kind.code());
    push_id(cfg, id, out)?;
    note_encoded(out, cap);
    Ok(())
}

/// Parses a HELLO/CONFIRM from a cursor, skipping trailing extensions.
///
/// # Errors
///
/// [`WireError`] on truncation, unknown kind, or an id wider than `l_id`.
pub fn parse_hello(
    cfg: &WireConfig,
    cur: &mut BitCursor<'_>,
) -> Result<(MessageKind, NodeId), WireError> {
    let code = cur.read_varint()?;
    let kind = MessageKind::from_code(code).ok_or(WireError::UnknownKind(code))?;
    let id = read_id(cfg, cur)?;
    skip_extensions(cur)?;
    metric_counter!("wire.frames_parsed").inc();
    Ok((kind, id))
}

/// Packed HELLO/CONFIRM size in bits (no extensions).
pub fn packed_hello_bits(cfg: &WireConfig, kind: MessageKind, id: NodeId) -> usize {
    let _ = cfg;
    varint_bits(kind.code()) + varint_bits(u64::from(id.0))
}

// ---------------------------------------------------------------------
// AUTH.
// ---------------------------------------------------------------------

/// Encodes an AUTH_A/AUTH_B frame `{ID, n, f_K(ID|n)}` into `out`.
///
/// # Errors
///
/// [`WireError::FieldOverflow`] on oversized fields or `l_mac > 64`.
pub fn encode_auth(
    cfg: &WireConfig,
    id: NodeId,
    nonce: Nonce,
    tag: &AuthTag,
    out: &mut PackedBits,
) -> Result<(), WireError> {
    let cap = out.word_capacity();
    out.clear();
    push_id(cfg, id, out)?;
    push_nonce(cfg, nonce, out)?;
    out.push(truncated_tag_value(cfg, tag)?, cfg.l_mac);
    note_encoded(out, cap);
    Ok(())
}

/// Parses an AUTH frame into `(ID, n, truncated-tag value)`; compare the
/// value against [`truncated_tag_value`] of the locally computed tag.
///
/// # Errors
///
/// [`WireError`] on truncation or field overflow.
pub fn parse_auth(
    cfg: &WireConfig,
    cur: &mut BitCursor<'_>,
) -> Result<(NodeId, Nonce, u64), WireError> {
    if cfg.l_mac > 64 {
        return Err(WireError::FieldOverflow { field: "l_mac" });
    }
    let id = read_id(cfg, cur)?;
    let nonce = read_nonce(cfg, cur)?;
    let mac = cur.read(cfg.l_mac)?;
    skip_extensions(cur)?;
    metric_counter!("wire.frames_parsed").inc();
    Ok((id, nonce, mac))
}

/// Packed AUTH size in bits (no extensions).
pub fn packed_auth_bits(cfg: &WireConfig, id: NodeId) -> usize {
    varint_bits(u64::from(id.0)) + cfg.l_n + cfg.l_mac
}

// ---------------------------------------------------------------------
// Signatures and M-NDP chains.
// ---------------------------------------------------------------------

/// Appends a signature: varint signer + the raw 256-bit tag. No zero
/// padding to `l_sig` — the packed chain entry is 272–291 bits where the
/// legacy slot is a fixed 672.
fn push_signature(
    cfg: &WireConfig,
    sig: &IbSignature,
    out: &mut PackedBits,
) -> Result<(), WireError> {
    push_id(cfg, sig.signer(), out)?;
    for chunk in sig.tag().chunks(8) {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(chunk);
        out.push(u64::from_le_bytes(bytes), 64);
    }
    Ok(())
}

fn read_signature(cfg: &WireConfig, cur: &mut BitCursor<'_>) -> Result<IbSignature, WireError> {
    let signer = read_id(cfg, cur)?;
    let mut tag = [0u8; 32];
    for chunk in tag.chunks_mut(8) {
        chunk.copy_from_slice(&cur.read(64)?.to_le_bytes());
    }
    Ok(IbSignature::from_parts(signer, tag))
}

fn push_chain(
    cfg: &WireConfig,
    chain: &[ChainEntry],
    out: &mut PackedBits,
) -> Result<(), WireError> {
    out.push_varint(chain.len() as u64);
    for entry in chain {
        push_id(cfg, entry.id, out)?;
        out.push_varint(entry.neighbors.len() as u64);
        for &nb in &entry.neighbors {
            push_id(cfg, nb, out)?;
        }
        push_signature(cfg, &entry.signature, out)?;
    }
    Ok(())
}

fn read_chain(cfg: &WireConfig, cur: &mut BitCursor<'_>) -> Result<Vec<ChainEntry>, WireError> {
    let hops = cur.read_varint()?;
    if hops > MAX_CHAIN_ENTRIES {
        return Err(WireError::FieldOverflow { field: "chain" });
    }
    let mut chain = Vec::with_capacity(hops as usize);
    for _ in 0..hops {
        let id = read_id(cfg, cur)?;
        let count = cur.read_varint()?;
        if count > MAX_NEIGHBORS {
            return Err(WireError::FieldOverflow { field: "neighbors" });
        }
        // A count cannot claim more ids than bits remain: bounds the
        // allocation before it happens.
        if count as usize * 5 > cur.remaining() {
            return Err(WireError::Truncated);
        }
        let mut neighbors = Vec::with_capacity(count as usize);
        for _ in 0..count {
            neighbors.push(read_id(cfg, cur)?);
        }
        let signature = read_signature(cfg, cur)?;
        chain.push(ChainEntry {
            id,
            neighbors,
            signature,
        });
    }
    Ok(chain)
}

fn signature_bits(cfg: &WireConfig, sig: &IbSignature) -> usize {
    let _ = cfg;
    varint_bits(u64::from(sig.signer().0)) + 256
}

fn chain_bits(cfg: &WireConfig, chain: &[ChainEntry]) -> usize {
    varint_bits(chain.len() as u64)
        + chain
            .iter()
            .map(|e| {
                varint_bits(u64::from(e.id.0))
                    + varint_bits(e.neighbors.len() as u64)
                    + e.neighbors
                        .iter()
                        .map(|n| varint_bits(u64::from(n.0)))
                        .sum::<usize>()
                    + signature_bits(cfg, &e.signature)
            })
            .sum::<usize>()
}

// ---------------------------------------------------------------------
// M-NDP request / response.
// ---------------------------------------------------------------------

/// Encodes an M-NDP request into `out` (cleared first).
///
/// # Errors
///
/// [`WireError::FieldOverflow`] on oversized fields.
pub fn encode_request(
    cfg: &WireConfig,
    req: &MndpRequest,
    out: &mut PackedBits,
) -> Result<(), WireError> {
    let cap = out.word_capacity();
    out.clear();
    push_id(cfg, req.source, out)?;
    push_nonce(cfg, req.nonce, out)?;
    out.push_varint(req.nu as u64);
    push_chain(cfg, &req.chain, out)?;
    note_encoded(out, cap);
    Ok(())
}

/// Parses an M-NDP request, skipping trailing extensions.
///
/// # Errors
///
/// [`WireError`] on truncation or malformed counts.
pub fn parse_request(cfg: &WireConfig, cur: &mut BitCursor<'_>) -> Result<MndpRequest, WireError> {
    let source = read_id(cfg, cur)?;
    let nonce = read_nonce(cfg, cur)?;
    let nu = cur.read_varint()? as usize;
    let chain = read_chain(cfg, cur)?;
    skip_extensions(cur)?;
    metric_counter!("wire.frames_parsed").inc();
    Ok(MndpRequest {
        source,
        nonce,
        nu,
        chain,
    })
}

/// Packed request size in bits (no extensions).
pub fn packed_request_bits(cfg: &WireConfig, req: &MndpRequest) -> usize {
    varint_bits(u64::from(req.source.0))
        + cfg.l_n
        + varint_bits(req.nu as u64)
        + chain_bits(cfg, &req.chain)
}

/// Encodes an M-NDP response into `out` (cleared first).
///
/// # Errors
///
/// [`WireError::FieldOverflow`] on oversized fields.
pub fn encode_response(
    cfg: &WireConfig,
    resp: &MndpResponse,
    out: &mut PackedBits,
) -> Result<(), WireError> {
    let cap = out.word_capacity();
    out.clear();
    push_id(cfg, resp.source, out)?;
    push_id(cfg, resp.responder, out)?;
    push_nonce(cfg, resp.nonce, out)?;
    out.push_varint(resp.nu as u64);
    push_chain(cfg, &resp.chain, out)?;
    note_encoded(out, cap);
    Ok(())
}

/// Parses an M-NDP response, skipping trailing extensions.
///
/// # Errors
///
/// [`WireError`] on truncation or malformed counts.
pub fn parse_response(
    cfg: &WireConfig,
    cur: &mut BitCursor<'_>,
) -> Result<MndpResponse, WireError> {
    let source = read_id(cfg, cur)?;
    let responder = read_id(cfg, cur)?;
    let nonce = read_nonce(cfg, cur)?;
    let nu = cur.read_varint()? as usize;
    let chain = read_chain(cfg, cur)?;
    skip_extensions(cur)?;
    metric_counter!("wire.frames_parsed").inc();
    Ok(MndpResponse {
        source,
        responder,
        nonce,
        nu,
        chain,
    })
}

/// Packed response size in bits (no extensions).
pub fn packed_response_bits(cfg: &WireConfig, resp: &MndpResponse) -> usize {
    varint_bits(u64::from(resp.source.0))
        + varint_bits(u64::from(resp.responder.0))
        + cfg.l_n
        + varint_bits(resp.nu as u64)
        + chain_bits(cfg, &resp.chain)
}

// ---------------------------------------------------------------------
// Endpoint bridges: parse straight off a despread `&[bool]` buffer.
// ---------------------------------------------------------------------

/// Packs a despread frame into a stack word array (no heap) for the
/// endpoint parsers. HELLO/AUTH frames are two orders of magnitude under
/// the 512-bit cap; anything larger is malformed by construction.
fn pack_stack(bits: &[bool]) -> Result<([u64; STACK_FRAME_WORDS], usize), WireError> {
    if bits.len() > STACK_FRAME_BITS {
        return Err(WireError::FieldOverflow { field: "frame" });
    }
    let mut words = [0u64; STACK_FRAME_WORDS];
    for (i, &b) in bits.iter().enumerate() {
        words[i / 64] |= u64::from(b) << (i % 64);
    }
    Ok((words, bits.len()))
}

/// [`parse_hello`] over a despread bit buffer, allocation-free.
///
/// # Errors
///
/// [`WireError`] as [`parse_hello`], plus oversized frames.
pub fn parse_hello_bools(
    cfg: &WireConfig,
    bits: &[bool],
) -> Result<(MessageKind, NodeId), WireError> {
    let (words, len) = pack_stack(bits)?;
    parse_hello(cfg, &mut BitCursor::from_words(&words, len))
}

/// [`parse_auth`] over a despread bit buffer, allocation-free.
///
/// # Errors
///
/// [`WireError`] as [`parse_auth`], plus oversized frames.
pub fn parse_auth_bools(
    cfg: &WireConfig,
    bits: &[bool],
) -> Result<(NodeId, Nonce, u64), WireError> {
    let (words, len) = pack_stack(bits)?;
    parse_auth(cfg, &mut BitCursor::from_words(&words, len))
}

/// Encodes a HELLO/CONFIRM and unpacks it to the `Vec<bool>` the radio
/// layer spreads — the endpoint-side convenience (one frame allocation,
/// like the legacy `encode_hello`).
///
/// # Errors
///
/// As [`encode_hello`].
pub fn hello_frame_bools(
    cfg: &WireConfig,
    kind: MessageKind,
    id: NodeId,
) -> Result<Vec<bool>, WireError> {
    let mut packed = PackedBits::with_capacity(packed_hello_bits(cfg, kind, id));
    encode_hello(cfg, kind, id, &mut packed)?;
    let mut out = Vec::new();
    packed.write_bools_into(&mut out);
    Ok(out)
}

/// Encodes an AUTH frame and unpacks it to a `Vec<bool>`.
///
/// # Errors
///
/// As [`encode_auth`].
pub fn auth_frame_bools(
    cfg: &WireConfig,
    id: NodeId,
    nonce: Nonce,
    tag: &AuthTag,
) -> Result<Vec<bool>, WireError> {
    let mut packed = PackedBits::with_capacity(packed_auth_bits(cfg, id));
    encode_auth(cfg, id, nonce, tag, &mut packed)?;
    let mut out = Vec::new();
    packed.write_bools_into(&mut out);
    Ok(out)
}

/// [`parse_request`] over an owned bit buffer (protocol-level helper).
///
/// # Errors
///
/// As [`parse_request`].
pub fn parse_request_bools(cfg: &WireConfig, bits: &[bool]) -> Result<MndpRequest, WireError> {
    let mut packed = PackedBits::with_capacity(bits.len());
    packed.extend_from_bools(bits);
    parse_request(cfg, &mut BitCursor::new(&packed))
}

/// [`parse_response`] over an owned bit buffer (protocol-level helper).
///
/// # Errors
///
/// As [`parse_response`].
pub fn parse_response_bools(cfg: &WireConfig, bits: &[bool]) -> Result<MndpResponse, WireError> {
    let mut packed = PackedBits::with_capacity(bits.len());
    packed.extend_from_bools(bits);
    parse_response(cfg, &mut BitCursor::new(&packed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn cfg() -> WireConfig {
        WireConfig::from_params(&Params::table1())
    }

    fn sig(signer: u32, fill: u8) -> IbSignature {
        IbSignature::from_parts(NodeId(signer), [fill; 32])
    }

    #[test]
    fn push_and_cursor_round_trip_across_word_boundaries() {
        let mut b = PackedBits::new();
        b.push(0b101, 3);
        b.push(u64::MAX, 64);
        b.push(0x1234_5678_9ABC, 48);
        b.push(0, 0);
        b.push_bit(true);
        let mut cur = BitCursor::new(&b);
        assert_eq!(cur.read(3).unwrap(), 0b101);
        assert_eq!(cur.read(64).unwrap(), u64::MAX);
        assert_eq!(cur.read(48).unwrap(), 0x1234_5678_9ABC);
        assert_eq!(cur.read(1).unwrap(), 1);
        assert!(cur.at_end());
        assert_eq!(cur.read(1), Err(WireError::Truncated));
    }

    #[test]
    fn varint_sizes_match_the_size_function() {
        for v in [
            0u64,
            1,
            15,
            16,
            255,
            256,
            4095,
            4096,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut b = PackedBits::new();
            b.push_varint(v);
            assert_eq!(b.len(), varint_bits(v), "v = {v}");
            assert_eq!(BitCursor::new(&b).read_varint().unwrap(), v, "v = {v}");
        }
    }

    #[test]
    fn word_at_mirrors_the_chip_layer_semantics() {
        let mut b = PackedBits::new();
        b.push(0xDEAD_BEEF_CAFE_F00D, 64);
        b.push(0x1234_5678, 32);
        assert_eq!(b.word_at(0), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(b.word_at(4), (0xDEAD_BEEF_CAFE_F00D >> 4) | (0x8 << 60));
        assert_eq!(b.word_at(64), 0x1234_5678);
        assert_eq!(b.word_at(200), 0, "past-the-end reads are zero");
    }

    #[test]
    fn bools_round_trip_word_parallel() {
        let bits: Vec<bool> = (0..173).map(|i| i % 7 < 3).collect();
        let mut b = PackedBits::new();
        b.push(0b11, 2); // unaligned start
        b.extend_from_bools(&bits);
        let mut out = Vec::new();
        b.write_bools_into(&mut out);
        assert_eq!(&out[2..], bits.as_slice());
    }

    #[test]
    fn byte_serialisation_round_trips() {
        let mut b = PackedBits::new();
        b.push_varint(77);
        b.push(0x3FF, 10);
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), b.len().div_ceil(8));
        let back = PackedBits::from_bytes(&bytes, b.len()).unwrap();
        assert_eq!(back, b);
        assert_eq!(
            PackedBits::from_bytes(&bytes, 8 * bytes.len() + 1),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn hello_round_trips_and_beats_legacy_airtime() {
        let cfg = cfg();
        let mut out = PackedBits::new();
        encode_hello(&cfg, MessageKind::Hello, NodeId(1), &mut out).unwrap();
        assert_eq!(
            out.len(),
            packed_hello_bits(&cfg, MessageKind::Hello, NodeId(1))
        );
        assert!(
            out.len() < cfg.hello_bits(),
            "{} vs {}",
            out.len(),
            cfg.hello_bits()
        );
        let (kind, id) = parse_hello(&cfg, &mut BitCursor::new(&out)).unwrap();
        assert_eq!((kind, id), (MessageKind::Hello, NodeId(1)));
    }

    #[test]
    fn unknown_extensions_are_skipped() {
        let cfg = cfg();
        let mut out = PackedBits::new();
        encode_hello(&cfg, MessageKind::Confirm, NodeId(9), &mut out).unwrap();
        append_extension_varint(&mut out, 7, 123_456);
        append_extension_bits(&mut out, 8, &[true, false, true, true, false]);
        let (kind, id) = parse_hello(&cfg, &mut BitCursor::new(&out)).unwrap();
        assert_eq!((kind, id), (MessageKind::Confirm, NodeId(9)));
        // A truncated extension is a typed error, not a panic.
        let mut cur = BitCursor::from_words(out.words(), out.len() - 3);
        assert!(parse_hello(&cfg, &mut cur).is_err());
    }

    #[test]
    fn auth_round_trips_with_integer_mac() {
        let cfg = cfg();
        let tag = AuthTag([0xA5; 32]);
        let mut out = PackedBits::new();
        encode_auth(&cfg, NodeId(2), Nonce::from_value(0xBEEF), &tag, &mut out).unwrap();
        assert_eq!(out.len(), packed_auth_bits(&cfg, NodeId(2)));
        let (id, n, mac) = parse_auth(&cfg, &mut BitCursor::new(&out)).unwrap();
        assert_eq!(id, NodeId(2));
        assert_eq!(n.value(), 0xBEEF);
        assert_eq!(mac, truncated_tag_value(&cfg, &tag).unwrap());
        // The integer matches the legacy truncated bit pattern.
        let legacy = cfg.truncate_tag(&tag);
        let folded = legacy.iter().fold(0u64, |a, &b| (a << 1) | u64::from(b));
        assert_eq!(mac, folded);
    }

    fn sample_request() -> MndpRequest {
        MndpRequest {
            source: NodeId(3),
            nonce: Nonce::from_value(0x5_1234),
            nu: 2,
            chain: vec![
                ChainEntry {
                    id: NodeId(3),
                    neighbors: vec![NodeId(10), NodeId(600)],
                    signature: sig(3, 0x11),
                },
                ChainEntry {
                    id: NodeId(10),
                    neighbors: vec![],
                    signature: sig(10, 0x22),
                },
            ],
        }
    }

    #[test]
    fn request_round_trips_and_shrinks_versus_legacy() {
        let cfg = cfg();
        let req = sample_request();
        let mut out = PackedBits::new();
        encode_request(&cfg, &req, &mut out).unwrap();
        assert_eq!(out.len(), packed_request_bits(&cfg, &req));
        let back = parse_request(&cfg, &mut BitCursor::new(&out)).unwrap();
        assert_eq!(back, req);
        let legacy = cfg.encode_request(&req).unwrap();
        assert!(
            out.len() * 2 < legacy.len(),
            "packed {} vs legacy {} bits",
            out.len(),
            legacy.len()
        );
    }

    #[test]
    fn response_round_trips_with_extensions() {
        let cfg = cfg();
        let resp = MndpResponse {
            source: NodeId(3),
            responder: NodeId(77),
            nonce: Nonce::from_value(7),
            nu: 2,
            chain: vec![ChainEntry {
                id: NodeId(77),
                neighbors: vec![NodeId(3)],
                signature: sig(77, 0x33),
            }],
        };
        let mut out = PackedBits::new();
        encode_response(&cfg, &resp, &mut out).unwrap();
        assert_eq!(out.len(), packed_response_bits(&cfg, &resp));
        append_extension_varint(&mut out, 12, 9);
        let back = parse_response(&cfg, &mut BitCursor::new(&out)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn oversized_fields_are_rejected() {
        let cfg = cfg();
        let mut out = PackedBits::new();
        assert_eq!(
            encode_hello(&cfg, MessageKind::Hello, NodeId(1 << 20), &mut out),
            Err(WireError::FieldOverflow { field: "id" })
        );
        assert_eq!(
            encode_auth(
                &cfg,
                NodeId(1),
                Nonce::from_value(u32::MAX),
                &AuthTag([0; 32]),
                &mut out
            ),
            Err(WireError::FieldOverflow { field: "nonce" })
        );
    }

    #[test]
    fn hostile_counts_cannot_force_allocation() {
        let cfg = cfg();
        // source + nonce + nu, then a chain claiming 4095 entries with no
        // backing bits: must error before allocating entry storage.
        let mut out = PackedBits::new();
        out.push_varint(1);
        out.push(0, cfg.l_n);
        out.push_varint(2);
        out.push_varint(4095);
        assert!(parse_request(&cfg, &mut BitCursor::new(&out)).is_err());
        // And an over-cap claim is a typed overflow.
        let mut out = PackedBits::new();
        out.push_varint(1);
        out.push(0, cfg.l_n);
        out.push_varint(2);
        out.push_varint(MAX_CHAIN_ENTRIES + 1);
        assert_eq!(
            parse_request(&cfg, &mut BitCursor::new(&out)),
            Err(WireError::FieldOverflow { field: "chain" })
        );
    }

    proptest! {
        /// Equivalence with the legacy oracle: the same HELLO decodes to
        /// the same structure through both codecs.
        #[test]
        fn hello_equivalence_with_reference(id in 0u32..(1 << 16), confirm in any::<bool>()) {
            let cfg = cfg();
            let kind = if confirm { MessageKind::Confirm } else { MessageKind::Hello };
            let legacy = crate::messages::reference::WireConfig::decode_hello(
                &cfg,
                &cfg.encode_hello(kind, NodeId(id)).unwrap(),
            ).unwrap();
            let frame = hello_frame_bools(&cfg, kind, NodeId(id)).unwrap();
            let packed = parse_hello_bools(&cfg, &frame).unwrap();
            prop_assert_eq!(legacy, packed);
        }

        /// AUTH equivalence: identity and nonce identical, and the packed
        /// integer MAC is the legacy truncated bit pattern.
        #[test]
        fn auth_equivalence_with_reference(
            id in 0u32..(1 << 16),
            nonce in 0u32..(1 << 20),
            fill in any::<u8>(),
        ) {
            let cfg = cfg();
            let tag = AuthTag([fill; 32]);
            let n = Nonce::from_value(nonce);
            let (lid, ln, ltag) = cfg.decode_auth(&cfg.encode_auth(NodeId(id), n, &tag).unwrap()).unwrap();
            let frame = auth_frame_bools(&cfg, NodeId(id), n, &tag).unwrap();
            let (pid, pn, pmac) = parse_auth_bools(&cfg, &frame).unwrap();
            prop_assert_eq!((lid, ln), (pid, pn));
            let folded = ltag.iter().fold(0u64, |a, &b| (a << 1) | u64::from(b));
            prop_assert_eq!(pmac, folded);
        }

        /// M-NDP request equivalence: both codecs round-trip to the same
        /// decoded struct, and the packed frame is strictly smaller.
        #[test]
        fn request_equivalence_with_reference(
            source in 0u32..2000,
            nonce in 0u32..(1 << 20),
            nu in 0usize..15,
            hops in vec((0u32..2000, 0usize..4, any::<u8>()), 0..4),
        ) {
            let cfg = cfg();
            let chain: Vec<ChainEntry> = hops.iter().map(|&(id, nb, fill)| ChainEntry {
                id: NodeId(id),
                neighbors: (0..nb).map(|k| NodeId(id.wrapping_add(k as u32 + 1) % 2000)).collect(),
                signature: sig(id, fill),
            }).collect();
            let req = MndpRequest { source: NodeId(source), nonce: Nonce::from_value(nonce), nu, chain };
            let legacy = cfg.decode_request(&cfg.encode_request(&req).unwrap()).unwrap();
            let mut packed = PackedBits::new();
            encode_request(&cfg, &req, &mut packed).unwrap();
            let back = parse_request(&cfg, &mut BitCursor::new(&packed)).unwrap();
            prop_assert_eq!(&legacy, &back);
            prop_assert_eq!(&back, &req);
            if !req.chain.is_empty() {
                prop_assert!(packed.len() < req.bit_len(&Params::table1()));
            }
        }

        /// M-NDP response equivalence, mirroring the request property.
        #[test]
        fn response_equivalence_with_reference(
            source in 0u32..2000,
            responder in 0u32..2000,
            nonce in 0u32..(1 << 20),
            nu in 0usize..15,
            hops in vec((0u32..2000, 0usize..4, any::<u8>()), 0..4),
        ) {
            let cfg = cfg();
            let chain: Vec<ChainEntry> = hops.iter().map(|&(id, nb, fill)| ChainEntry {
                id: NodeId(id),
                neighbors: (0..nb).map(|k| NodeId(id.wrapping_add(k as u32 + 1) % 2000)).collect(),
                signature: sig(id, fill),
            }).collect();
            let resp = MndpResponse {
                source: NodeId(source),
                responder: NodeId(responder),
                nonce: Nonce::from_value(nonce),
                nu,
                chain,
            };
            let legacy = cfg.decode_response(&cfg.encode_response(&resp).unwrap()).unwrap();
            let mut packed = PackedBits::new();
            encode_response(&cfg, &resp, &mut packed).unwrap();
            let back = parse_response(&cfg, &mut BitCursor::new(&packed)).unwrap();
            prop_assert_eq!(&legacy, &back);
            prop_assert_eq!(&back, &resp);
        }

        /// Random word soup never panics any parser.
        #[test]
        fn parsers_survive_arbitrary_streams(words in vec(any::<u64>(), 0..24), trim in 0usize..64) {
            let cfg = cfg();
            let len = (words.len() * 64).saturating_sub(trim);
            let _ = parse_hello(&cfg, &mut BitCursor::from_words(&words, len));
            let _ = parse_auth(&cfg, &mut BitCursor::from_words(&words, len));
            let _ = parse_request(&cfg, &mut BitCursor::from_words(&words, len));
            let _ = parse_response(&cfg, &mut BitCursor::from_words(&words, len));
        }
    }
}
