//! Canonical wire encoding for the distributed backends.
//!
//! [`DistBackend`](crate::dist::DistBackend) masters and workers are
//! separate OS processes; everything that crosses the pipe — job
//! descriptors, frames, results, receipts — travels as a **versioned,
//! length-prefixed, fully deterministic** byte encoding of [`WireValue`].
//! Determinism is the point: the same logical value always encodes to
//! the same bytes on every platform, so a hash of the encoding
//! ([`crate::receipt::wire_hash`]) identifies the value itself. To that
//! end the format has
//!
//! - no map type (and therefore no iteration-order ambiguity) — records
//!   are tuples with a fixed field order;
//! - no platform-dependent widths — every length is a `u32` in little-
//!   endian byte order, integers are `i64` LE, floats are IEEE-754
//!   `f64` bit patterns LE;
//! - one canonical encoding per value — no optional compression, no
//!   alternative tags for the same datum.
//!
//! # Format
//!
//! A *document* is `b"SKIP"` (4 magic bytes), the format version as
//! `u16` LE, then exactly one value. A value is a 1-byte tag followed by
//! its payload:
//!
//! | tag    | variant | payload |
//! |--------|---------|---------|
//! | `0x01` | `Unit`  | — |
//! | `0x02` | `Bool`  | one byte, `0x00` or `0x01` |
//! | `0x03` | `Int`   | `i64` LE |
//! | `0x04` | `Float` | `f64` bit pattern LE |
//! | `0x05` | `Str`   | `u32` LE byte length + UTF-8 bytes |
//! | `0x06` | `Bytes` | `u32` LE length + raw bytes |
//! | `0x07` | `List`  | `u32` LE count + that many values |
//! | `0x08` | `Tuple` | `u32` LE arity + that many values |
//!
//! # Versioning rules
//!
//! [`VERSION`] must be bumped whenever the encoded bytes of any value
//! change — a new tag, a changed payload layout, a changed header — and
//! whenever the receipt hash function
//! ([`crate::receipt::WordHasher`]) changes: peers exchange receipts and
//! check each other's input hashes, so a master and a worker from
//! builds that hash differently must fail the handshake, not the first
//! job. Version 2 replaced version 1's byte-serial FNV-1a receipt hash
//! with the word hash; the value encoding itself is unchanged. The
//! golden fixtures under `tests/fixtures/wire/` pin the current bytes;
//! CI fails if they drift while `VERSION` stands still. Decoders reject
//! any other version with [`WireError::BadVersion`] (there is no
//! cross-version compatibility window: master and workers are always
//! deployed from one build).
//!
//! Malformed input never panics: every defect maps to a pinned
//! [`WireError`] (`Truncated`, `BadMagic`, `BadVersion`, `BadTag`,
//! `BadBool`, `BadLength`, `Utf8`, `Trailing`).
//!
//! # One encoder, one decoder
//!
//! The format is written in one place and read in one place. The
//! streaming [`Encoder`] writes canonical bytes field by field into any
//! [`ByteSink`]: a frame buffer, or the receipt hasher
//! ([`crate::receipt::WordHasher`]), so [`crate::receipt::wire_hash`]
//! hashes a value without buffering its bytes. The [`Cursor`] decoder
//! reads a document in place.
//! [`encode_document`], [`canonical_bytes`] and [`decode_document`] are
//! thin wrappers over the two, as are [`ToWire::encode`] and the frame
//! functions ([`write_frame_with`] encodes into a reused per-link
//! buffer, [`read_frame_into`] reads into one).
//!
//! A whole [`WireValue`] tree is built only where a message's shape is
//! open: the catalog `job` path, the handshake and error replies. The
//! dist farm's `map-df` request and `map-ok` reply never build one: the
//! sender streams its `i64` items through [`Encoder::ints`], which fills
//! a stack block of 64 tagged fields and hands the sink one 576-byte
//! write per block (the same bytes as one [`Encoder::int`] per item).
//! `[i64]` and `Vec<i64>` encode through it too
//! ([`ToWire::encode_slice`]), so hashing a farm's input feeds the
//! hasher whole blocks. The
//! receiver reads them with the cursor's typed reads ([`Cursor::tuple`],
//! [`Cursor::str`], [`Cursor::int`], [`Cursor::ints`]) straight into a
//! `Vec<i64>`. A typed read that meets another shape consumes nothing,
//! so the receiver falls back to [`Cursor::value`]; a defect is the same
//! [`WireError`] either way.
//!
//! ```
//! use skipper::wire::{decode_document, encode_document, WireValue};
//!
//! let value = WireValue::Tuple(vec![
//!     WireValue::Str("job".into()),
//!     WireValue::Int(7),
//! ]);
//! let bytes = encode_document(&value);
//! assert_eq!(decode_document(&bytes).unwrap(), value);
//! ```

use std::io::{self, Read, Write};

/// The 4 magic bytes opening every document.
pub const MAGIC: [u8; 4] = *b"SKIP";

/// The current wire-format version. Bump on **any** change to the
/// encoded bytes or to the receipt hash (see the module docs for the
/// rules).
pub const VERSION: u16 = 2;

/// Upper bound on a single framed document (64 MiB): a corrupt length
/// prefix must not look like a request to allocate gigabytes.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// A self-describing wire value: the closed data universe everything
/// crossing a dist pipe is expressed in.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer (unsigned values are bit-cast — see
    /// [`ToWire`] for `u64`).
    Int(i64),
    /// An IEEE-754 double, encoded as its bit pattern.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte string.
    Bytes(Vec<u8>),
    /// A homogeneous sequence.
    List(Vec<WireValue>),
    /// A fixed-arity record with positional fields.
    Tuple(Vec<WireValue>),
}

const TAG_UNIT: u8 = 0x01;
const TAG_BOOL: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_BYTES: u8 = 0x06;
const TAG_LIST: u8 = 0x07;
const TAG_TUPLE: u8 = 0x08;

/// Bytes of one encoded `Int`: its tag, then the `i64` LE payload.
const INT_FIELD: usize = 9;
/// `Int` fields per sink write in [`Encoder::ints`] (576 bytes).
const INT_BLOCK: usize = 64;

/// A decoding defect. Every variant's `Display` string is pinned by the
/// negative fixtures in `tests/fixtures/wire/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the current field was complete.
    Truncated {
        /// Bytes the field still needed.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The document does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The document's version is not [`VERSION`].
    BadVersion {
        /// The version found in the header.
        got: u16,
        /// The version this build speaks.
        want: u16,
    },
    /// An unknown value tag.
    BadTag(u8),
    /// A `Bool` payload byte other than `0x00`/`0x01`.
    BadBool(u8),
    /// A declared length exceeding the remaining input.
    BadLength(u64),
    /// A `Str` payload that is not valid UTF-8.
    Utf8,
    /// Bytes left over after the document's single value.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A framed document longer than [`MAX_FRAME_LEN`].
    FrameTooLarge(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(
                    f,
                    "truncated document: need {need} more byte(s), have {have}"
                )
            }
            WireError::BadMagic(b) => write!(
                f,
                "bad magic bytes {:02x} {:02x} {:02x} {:02x} (expected \"SKIP\")",
                b[0], b[1], b[2], b[3]
            ),
            WireError::BadVersion { got, want } => {
                write!(f, "wire version mismatch: got {got}, want {want}")
            }
            WireError::BadTag(t) => write!(f, "unknown wire tag 0x{t:02x}"),
            WireError::BadBool(b) => write!(f, "invalid bool byte 0x{b:02x}"),
            WireError::BadLength(n) => {
                write!(f, "implausible length {n}: exceeds remaining input")
            }
            WireError::Utf8 => write!(f, "string payload is not valid UTF-8"),
            WireError::Trailing { extra } => {
                write!(f, "trailing garbage: {extra} byte(s) after the document")
            }
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the 64 MiB cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Where an [`Encoder`] writes: a growable buffer (documents, frames,
/// [`canonical_bytes`]) or a hasher that consumes the bytes as they
/// come ([`crate::receipt::WordHasher`], so
/// [`crate::receipt::wire_hash`] needs no buffer at all). A sink sees
/// the same bytes however the encoder splits them into `put`s.
pub trait ByteSink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The streaming encoder: writes canonical bytes field by field into a
/// [`ByteSink`]. [`Encoder::value`] encodes a whole [`WireValue`]; the
/// typed writes let a caller emit a message straight from its own data —
/// [`Encoder::list`] and [`Encoder::tuple`] open a collection whose
/// `len` values the caller writes next.
pub struct Encoder<'a, S: ByteSink + ?Sized> {
    out: &'a mut S,
}

impl<'a, S: ByteSink + ?Sized> Encoder<'a, S> {
    /// An encoder appending to `out`.
    pub fn new(out: &'a mut S) -> Self {
        Encoder { out }
    }

    /// The document header: [`MAGIC`], then [`VERSION`].
    pub fn header(&mut self) {
        self.out.put(&MAGIC);
        self.out.put(&VERSION.to_le_bytes());
    }

    /// A `Unit`.
    pub fn unit(&mut self) {
        self.out.put(&[TAG_UNIT]);
    }

    /// A `Bool`.
    pub fn bool(&mut self, b: bool) {
        self.out.put(&[TAG_BOOL, u8::from(b)]);
    }

    /// An `Int`.
    pub fn int(&mut self, n: i64) {
        self.tagged(TAG_INT, n.to_le_bytes());
    }

    /// A `Float`.
    pub fn float(&mut self, x: f64) {
        self.tagged(TAG_FLOAT, x.to_bits().to_le_bytes());
    }

    /// A `Str`.
    pub fn str(&mut self, s: &str) {
        self.tagged_len(TAG_STR, s.len());
        self.out.put(s.as_bytes());
    }

    /// A `Bytes`.
    pub fn bytes(&mut self, b: &[u8]) {
        self.tagged_len(TAG_BYTES, b.len());
        self.out.put(b);
    }

    /// Opens a `List` of `len` values; write exactly `len` values next.
    pub fn list(&mut self, len: usize) {
        self.tagged_len(TAG_LIST, len);
    }

    /// Opens a `Tuple` of `arity` values; write exactly `arity` values
    /// next.
    pub fn tuple(&mut self, arity: usize) {
        self.tagged_len(TAG_TUPLE, arity);
    }

    /// A `List` of `Int`s, streamed from `xs`. The items are written in
    /// blocks of 64 tagged fields (576 bytes), one [`ByteSink::put`] per
    /// block: the same bytes as [`Encoder::list`] followed by one
    /// [`Encoder::int`] per item, for a 64th of the sink calls.
    pub fn ints<I>(&mut self, xs: I)
    where
        I: IntoIterator<Item = i64>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut xs = xs.into_iter();
        self.list(xs.len());
        // Every field's tag byte is already in place; a pass over the
        // block rewrites only the payloads.
        let mut block = [TAG_INT; INT_FIELD * INT_BLOCK];
        loop {
            let mut len = 0;
            for (field, x) in block.chunks_exact_mut(INT_FIELD).zip(&mut xs) {
                field[1..].copy_from_slice(&x.to_le_bytes());
                len += INT_FIELD;
            }
            if len == 0 {
                return;
            }
            self.out.put(&block[..len]);
        }
    }

    /// A whole [`WireValue`].
    pub fn value(&mut self, v: &WireValue) {
        match v {
            WireValue::Unit => self.unit(),
            WireValue::Bool(b) => self.bool(*b),
            WireValue::Int(n) => self.int(*n),
            WireValue::Float(x) => self.float(*x),
            WireValue::Str(s) => self.str(s),
            WireValue::Bytes(b) => self.bytes(b),
            WireValue::List(items) => {
                self.list(items.len());
                items.iter().for_each(|item| self.value(item));
            }
            WireValue::Tuple(items) => {
                self.tuple(items.len());
                items.iter().for_each(|item| self.value(item));
            }
        }
    }

    fn tagged(&mut self, tag: u8, payload: [u8; 8]) {
        let mut field = [tag; 9];
        field[1..].copy_from_slice(&payload);
        self.out.put(&field);
    }

    fn tagged_len(&mut self, tag: u8, len: usize) {
        let n = u32::try_from(len).expect("wire collections are capped at u32::MAX elements");
        let mut field = [tag; 5];
        field[1..].copy_from_slice(&n.to_le_bytes());
        self.out.put(&field);
    }
}

/// The canonical **headerless** encoding of one value: what
/// [`crate::receipt::wire_hash`] hashes. Two equal values always yield
/// identical bytes here, independent of platform or process.
pub fn canonical_bytes(v: &WireValue) -> Vec<u8> {
    let mut out = Vec::new();
    Encoder::new(&mut out).value(v);
    out
}

/// Encodes one value as a complete document: magic, version, value.
pub fn encode_document(v: &WireValue) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    let mut e = Encoder::new(&mut out);
    e.header();
    e.value(v);
    out
}

/// The cursor decoder: reads one document's values in order, in place,
/// without copying the input. [`Cursor::value`] decodes the next value
/// into a [`WireValue`]; the typed reads ([`Cursor::tuple`],
/// [`Cursor::str`], [`Cursor::int`], [`Cursor::ints`]) decode it into
/// plain Rust values instead. A typed read whose value has another
/// shape returns `Ok(None)` and consumes nothing, so the caller can
/// fall back to [`Cursor::value`] from the same position; a defect in
/// the bytes is the same [`WireError`] [`Cursor::value`] reports.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over the complete document `bytes`, past its checked
    /// header.
    pub fn document(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut c = Cursor { buf: bytes, pos: 0 };
        let magic = c.take(4)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic([
                magic[0], magic[1], magic[2], magic[3],
            ]));
        }
        let version = c.u16_le()?;
        if version != VERSION {
            return Err(WireError::BadVersion {
                got: version,
                want: VERSION,
            });
        }
        Ok(c)
    }

    /// Checks that the document has been read to its end.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::Trailing { extra }),
        }
    }

    /// Reads the document's one value and checks that nothing follows.
    pub fn into_value(mut self) -> Result<WireValue, WireError> {
        let v = self.value()?;
        self.finish()?;
        Ok(v)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n - self.remaining(),
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16_le(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64_le(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a collection length and sanity-checks it against the
    /// remaining input (every element occupies at least one byte, so a
    /// length beyond `remaining` can never be satisfied).
    fn len(&mut self) -> Result<usize, WireError> {
        let n = self.u32_le()?;
        if n as usize > self.remaining() {
            return Err(WireError::BadLength(u64::from(n)));
        }
        Ok(n as usize)
    }

    /// Capacity to pre-allocate for a declared count of elements that
    /// each take at least `min_bytes` of input. The count passed
    /// [`Cursor::len`], but that only guarantees one *input byte* per
    /// element while each reserved slot may cost far more (a
    /// `WireValue` is ~40 bytes) — an amplification a hostile or corrupt
    /// length field could command before the first element fails to
    /// parse. Cap the reservation so it never exceeds what the unread
    /// input could encode; genuine large collections still reach full
    /// size through amortised growth.
    fn capacity_for(&self, declared: usize, min_bytes: usize) -> usize {
        declared.min(self.remaining() / min_bytes)
    }

    /// Consumes the next value's tag if it is `tag`.
    fn eat(&mut self, tag: u8) -> bool {
        let hit = self.buf.get(self.pos) == Some(&tag);
        self.pos += usize::from(hit);
        hit
    }

    /// Reads the next value.
    pub fn value(&mut self) -> Result<WireValue, WireError> {
        match self.u8()? {
            TAG_UNIT => Ok(WireValue::Unit),
            TAG_BOOL => match self.u8()? {
                0 => Ok(WireValue::Bool(false)),
                1 => Ok(WireValue::Bool(true)),
                b => Err(WireError::BadBool(b)),
            },
            TAG_INT => Ok(WireValue::Int(self.u64_le()? as i64)),
            TAG_FLOAT => Ok(WireValue::Float(f64::from_bits(self.u64_le()?))),
            TAG_STR => Ok(WireValue::Str(self.str_payload()?.to_string())),
            TAG_BYTES => {
                let n = self.len()?;
                Ok(WireValue::Bytes(self.take(n)?.to_vec()))
            }
            TAG_LIST => Ok(WireValue::List(self.values()?)),
            TAG_TUPLE => Ok(WireValue::Tuple(self.values()?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn values(&mut self) -> Result<Vec<WireValue>, WireError> {
        let n = self.len()?;
        let mut items = Vec::with_capacity(self.capacity_for(n, std::mem::size_of::<WireValue>()));
        for _ in 0..n {
            items.push(self.value()?);
        }
        Ok(items)
    }

    fn str_payload(&mut self) -> Result<&'a str, WireError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::Utf8)
    }

    /// Opens the next value if it is a `Tuple`, returning its arity; its
    /// fields are the next values.
    pub fn tuple(&mut self) -> Result<Option<usize>, WireError> {
        if !self.eat(TAG_TUPLE) {
            return Ok(None);
        }
        self.len().map(Some)
    }

    /// Reads the next value if it is a `Str`, borrowing from the input.
    pub fn str(&mut self) -> Result<Option<&'a str>, WireError> {
        if !self.eat(TAG_STR) {
            return Ok(None);
        }
        self.str_payload().map(Some)
    }

    /// Reads the next value if it is an `Int`.
    pub fn int(&mut self) -> Result<Option<i64>, WireError> {
        if !self.eat(TAG_INT) {
            return Ok(None);
        }
        Ok(Some(self.u64_le()? as i64))
    }

    /// Reads the next value if it is a `List` of `Int`s only.
    pub fn ints(&mut self) -> Result<Option<Vec<i64>>, WireError> {
        let start = self.pos;
        if !self.eat(TAG_LIST) {
            return Ok(None);
        }
        let n = self.len()?;
        let mut xs = Vec::with_capacity(self.capacity_for(n, 9));
        for _ in 0..n {
            match self.int()? {
                Some(x) => xs.push(x),
                None => {
                    self.pos = start;
                    return Ok(None);
                }
            }
        }
        Ok(Some(xs))
    }
}

/// Decodes one complete document, rejecting bad headers, malformed
/// values and trailing bytes with pinned [`WireError`]s.
pub fn decode_document(bytes: &[u8]) -> Result<WireValue, WireError> {
    Cursor::document(bytes)?.into_value()
}

/// A wire defect met on a pipe is invalid data on that pipe.
impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Writes one document as a length-prefixed frame (`u32` LE byte length,
/// then the document) — the unit of exchange on a dist pipe.
pub fn write_frame<W: Write>(w: &mut W, v: &WireValue) -> io::Result<()> {
    write_frame_with(w, &mut Vec::new(), |e| e.value(v))
}

/// Writes one frame whose value `encode` streams into `scratch` (cleared
/// on entry, capacity kept), then sends length prefix and document in
/// one write. A long-lived link — the dist master's per-worker pipes,
/// the worker's reply stream — reuses one buffer and stops allocating
/// once it has grown to the link's working frame size.
pub fn write_frame_with<W, F>(w: &mut W, scratch: &mut Vec<u8>, encode: F) -> io::Result<()>
where
    W: Write,
    F: FnOnce(&mut Encoder<'_, Vec<u8>>),
{
    scratch.clear();
    scratch.extend_from_slice(&[0; 4]);
    let mut e = Encoder::new(scratch);
    e.header();
    encode(&mut e);
    let doc_len = scratch.len() - 4;
    let len = u32::try_from(doc_len)
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or(WireError::FrameTooLarge(doc_len as u64))?;
    scratch[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(scratch)?;
    w.flush()
}

/// Reads one length-prefixed frame into `buf` (cleared first, capacity
/// kept) and returns a [`Cursor`] over its document, header checked. A
/// clean EOF **before the length prefix** yields `Ok(None)` (the peer
/// hung up between frames); EOF mid-frame, an oversized length, or a
/// bad header yield an `UnexpectedEof`/`InvalidData` error, the latter
/// carrying the underlying [`WireError`].
pub fn read_frame_into<'b, R: Read>(
    r: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Cursor<'b>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(u64::from(len)).into());
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(Some(Cursor::document(buf)?))
}

/// Reads one length-prefixed frame and decodes its value (see
/// [`read_frame_into`] for the EOF and error contract).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<WireValue>> {
    match read_frame_into(r, &mut Vec::new())? {
        Some(doc) => Ok(Some(doc.into_value()?)),
        None => Ok(None),
    }
}

/// Conversion into the canonical wire universe. Implemented for the
/// scalar and container types the conformance cases and experiments
/// exchange; receipts hash through this, so an impl defines the hashed
/// identity of its type.
pub trait ToWire {
    /// This value as a [`WireValue`].
    fn to_wire(&self) -> WireValue;

    /// Streams this value's canonical bytes into `e`: always the bytes
    /// of `e.value(&self.to_wire())`, which is the default. Only `i64`,
    /// lists and [`WireValue`] override it, so hashing an `i64` list (a
    /// farm's input) builds no [`WireValue`] tree.
    fn encode<S: ByteSink + ?Sized>(&self, e: &mut Encoder<'_, S>) {
        e.value(&self.to_wire());
    }

    /// Streams the `List` of `xs` into `e`: what `[T]` and `Vec<T>`
    /// encode through. The default is [`Encoder::list`], then one
    /// [`ToWire::encode`] per item; `i64` writes [`Encoder::ints`]'
    /// 576-byte blocks instead (the same bytes), so a hasher sink takes
    /// a farm's input in whole blocks rather than one 9-byte write per
    /// item.
    fn encode_slice<S: ByteSink + ?Sized>(xs: &[Self], e: &mut Encoder<'_, S>)
    where
        Self: Sized,
    {
        e.list(xs.len());
        xs.iter().for_each(|x| x.encode(e));
    }
}

/// A tree encodes as itself: [`crate::receipt::wire_hash`] of a
/// [`WireValue`] is the hash of its [`canonical_bytes`].
impl ToWire for WireValue {
    fn to_wire(&self) -> WireValue {
        self.clone()
    }

    fn encode<S: ByteSink + ?Sized>(&self, e: &mut Encoder<'_, S>) {
        e.value(self);
    }
}

/// Conversion back from the wire universe; the inverse of [`ToWire`]
/// (`from_wire(&v.to_wire()) == Some(v)`), returning `None` on any shape
/// mismatch.
pub trait FromWire: Sized {
    /// Reconstructs the value, or `None` if `v` has the wrong shape.
    fn from_wire(v: &WireValue) -> Option<Self>;
}

impl ToWire for () {
    fn to_wire(&self) -> WireValue {
        WireValue::Unit
    }
}

impl FromWire for () {
    fn from_wire(v: &WireValue) -> Option<Self> {
        matches!(v, WireValue::Unit).then_some(())
    }
}

impl ToWire for bool {
    fn to_wire(&self) -> WireValue {
        WireValue::Bool(*self)
    }
}

impl FromWire for bool {
    fn from_wire(v: &WireValue) -> Option<Self> {
        match v {
            WireValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl ToWire for i64 {
    fn to_wire(&self) -> WireValue {
        WireValue::Int(*self)
    }

    fn encode<S: ByteSink + ?Sized>(&self, e: &mut Encoder<'_, S>) {
        e.int(*self);
    }

    fn encode_slice<S: ByteSink + ?Sized>(xs: &[Self], e: &mut Encoder<'_, S>) {
        e.ints(xs.iter().copied());
    }
}

impl FromWire for i64 {
    fn from_wire(v: &WireValue) -> Option<Self> {
        match v {
            WireValue::Int(n) => Some(*n),
            _ => None,
        }
    }
}

/// `u64` travels as the two's-complement bit-cast `i64` — lossless in
/// both directions, and canonical (one encoding per value).
impl ToWire for u64 {
    fn to_wire(&self) -> WireValue {
        WireValue::Int(*self as i64)
    }
}

impl FromWire for u64 {
    fn from_wire(v: &WireValue) -> Option<Self> {
        match v {
            WireValue::Int(n) => Some(*n as u64),
            _ => None,
        }
    }
}

impl ToWire for u32 {
    fn to_wire(&self) -> WireValue {
        WireValue::Int(i64::from(*self))
    }
}

impl FromWire for u32 {
    fn from_wire(v: &WireValue) -> Option<Self> {
        match v {
            WireValue::Int(n) => u32::try_from(*n).ok(),
            _ => None,
        }
    }
}

impl ToWire for f64 {
    fn to_wire(&self) -> WireValue {
        WireValue::Float(*self)
    }
}

impl FromWire for f64 {
    fn from_wire(v: &WireValue) -> Option<Self> {
        match v {
            WireValue::Float(x) => Some(*x),
            _ => None,
        }
    }
}

impl ToWire for String {
    fn to_wire(&self) -> WireValue {
        WireValue::Str(self.clone())
    }
}

impl FromWire for String {
    fn from_wire(v: &WireValue) -> Option<Self> {
        match v {
            WireValue::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
}

impl ToWire for str {
    fn to_wire(&self) -> WireValue {
        WireValue::Str(self.to_string())
    }
}

impl<T: ToWire> ToWire for [T] {
    fn to_wire(&self) -> WireValue {
        WireValue::List(self.iter().map(ToWire::to_wire).collect())
    }

    fn encode<S: ByteSink + ?Sized>(&self, e: &mut Encoder<'_, S>) {
        T::encode_slice(self, e);
    }
}

impl<T: ToWire> ToWire for Vec<T> {
    fn to_wire(&self) -> WireValue {
        self.as_slice().to_wire()
    }

    fn encode<S: ByteSink + ?Sized>(&self, e: &mut Encoder<'_, S>) {
        T::encode_slice(self, e);
    }
}

impl<T: FromWire> FromWire for Vec<T> {
    fn from_wire(v: &WireValue) -> Option<Self> {
        match v {
            WireValue::List(items) => items.iter().map(T::from_wire).collect(),
            _ => None,
        }
    }
}

impl<A: ToWire, B: ToWire> ToWire for (A, B) {
    fn to_wire(&self) -> WireValue {
        WireValue::Tuple(vec![self.0.to_wire(), self.1.to_wire()])
    }
}

impl<A: FromWire, B: FromWire> FromWire for (A, B) {
    fn from_wire(v: &WireValue) -> Option<Self> {
        match v {
            WireValue::Tuple(items) if items.len() == 2 => {
                Some((A::from_wire(&items[0])?, B::from_wire(&items[1])?))
            }
            _ => None,
        }
    }
}

impl<A: ToWire, B: ToWire, C: ToWire> ToWire for (A, B, C) {
    fn to_wire(&self) -> WireValue {
        WireValue::Tuple(vec![self.0.to_wire(), self.1.to_wire(), self.2.to_wire()])
    }
}

impl<A: FromWire, B: FromWire, C: FromWire> FromWire for (A, B, C) {
    fn from_wire(v: &WireValue) -> Option<Self> {
        match v {
            WireValue::Tuple(items) if items.len() == 3 => Some((
                A::from_wire(&items[0])?,
                B::from_wire(&items[1])?,
                C::from_wire(&items[2])?,
            )),
            _ => None,
        }
    }
}

impl<T: ToWire + ?Sized> ToWire for &T {
    fn to_wire(&self) -> WireValue {
        (**self).to_wire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<WireValue> {
        vec![
            WireValue::Unit,
            WireValue::Bool(true),
            WireValue::Bool(false),
            WireValue::Int(0),
            WireValue::Int(-1),
            WireValue::Int(i64::MAX),
            WireValue::Int(i64::MIN),
            WireValue::Float(1.5),
            WireValue::Float(-0.0),
            WireValue::Str(String::new()),
            WireValue::Str("héllo wörld".into()),
            WireValue::Bytes(vec![0, 255, 1, 254]),
            WireValue::List(vec![]),
            WireValue::List(vec![WireValue::Int(1), WireValue::Int(2)]),
            WireValue::Tuple(vec![
                WireValue::Str("job".into()),
                WireValue::Int(7),
                WireValue::List(vec![WireValue::Unit, WireValue::Bool(false)]),
            ]),
        ]
    }

    #[test]
    fn documents_round_trip() {
        for v in samples() {
            let bytes = encode_document(&v);
            assert_eq!(decode_document(&bytes).unwrap(), v, "value {v:?}");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        for v in samples() {
            assert_eq!(encode_document(&v), encode_document(&v.clone()));
            assert_eq!(canonical_bytes(&v), canonical_bytes(&v.clone()));
        }
    }

    #[test]
    fn the_document_header_is_pinned() {
        let bytes = encode_document(&WireValue::Unit);
        assert_eq!(&bytes[..4], b"SKIP");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION);
        assert_eq!(bytes[6], 0x01); // the Unit tag
        assert_eq!(bytes.len(), 7);
    }

    #[test]
    fn canonical_bytes_are_the_document_sans_header() {
        for v in samples() {
            assert_eq!(encode_document(&v)[6..], canonical_bytes(&v)[..]);
        }
    }

    #[test]
    fn truncated_documents_are_rejected() {
        let bytes = encode_document(&WireValue::Str("abcdef".into()));
        for cut in 0..bytes.len() {
            let err = decode_document(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::BadLength(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn header_defects_are_pinned() {
        let mut bytes = encode_document(&WireValue::Int(5));
        bytes[0] = b'X';
        assert_eq!(
            decode_document(&bytes).unwrap_err().to_string(),
            "bad magic bytes 58 4b 49 50 (expected \"SKIP\")"
        );
        let mut bytes = encode_document(&WireValue::Int(5));
        bytes[4] = 99;
        assert_eq!(
            decode_document(&bytes).unwrap_err(),
            WireError::BadVersion {
                got: 99,
                want: VERSION
            }
        );
    }

    #[test]
    fn payload_defects_are_pinned() {
        let mut bytes = encode_document(&WireValue::Unit);
        bytes[6] = 0x7f;
        assert_eq!(
            decode_document(&bytes).unwrap_err(),
            WireError::BadTag(0x7f)
        );

        let mut bytes = encode_document(&WireValue::Bool(true));
        bytes[7] = 2;
        assert_eq!(decode_document(&bytes).unwrap_err(), WireError::BadBool(2));

        // A declared string length far past the end of input.
        let mut bytes = encode_document(&WireValue::Str("ab".into()));
        bytes[7..11].copy_from_slice(&1000u32.to_le_bytes());
        assert_eq!(
            decode_document(&bytes).unwrap_err(),
            WireError::BadLength(1000)
        );

        let mut bytes = encode_document(&WireValue::Str("ab".into()));
        bytes[11] = 0xff; // not valid UTF-8 on its own
        assert_eq!(decode_document(&bytes).unwrap_err(), WireError::Utf8);

        let mut bytes = encode_document(&WireValue::Unit);
        bytes.push(0);
        assert_eq!(
            decode_document(&bytes).unwrap_err(),
            WireError::Trailing { extra: 1 }
        );
    }

    #[test]
    fn hostile_lengths_cannot_command_large_preallocations() {
        // `capacity_for` bounds the reservation by the bytes actually
        // left to read: a count that squeaked past the one-byte-per-
        // element plausibility check still cannot reserve more memory
        // than the input could possibly encode.
        let r = Cursor {
            buf: &[0u8; 64],
            pos: 0,
        };
        let per_slot = std::mem::size_of::<WireValue>();
        assert_eq!(r.capacity_for(64, per_slot), 64 / per_slot);
        assert_eq!(
            r.capacity_for(2, per_slot),
            2,
            "small counts keep exact capacity"
        );
        assert_eq!(r.capacity_for(64, 9), 7, "an Int takes 9 bytes");

        // End to end: a list declaring one element per remaining byte
        // (passes the length check) whose payload is garbage must fail
        // cleanly, not panic or over-allocate.
        let mut bytes = encode_document(&WireValue::List(vec![]));
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&8u32.to_le_bytes());
        bytes.push(TAG_INT);
        bytes.extend_from_slice(&[0u8; 7]);
        assert_eq!(
            decode_document(&bytes).unwrap_err(),
            WireError::Truncated { need: 1, have: 7 }
        );
    }

    #[test]
    fn block_encoded_ints_are_the_per_item_bytes() {
        use crate::receipt::{wire_hash, word_hash, WordHasher};
        let mut lists: Vec<Vec<i64>> = [0usize, 1, 63, 64, 65, 129, 4096]
            .iter()
            .map(|&n| (0..n as i64).map(|i| i * -7919 + 3).collect())
            .collect();
        lists.push(vec![i64::MIN, i64::MAX]);
        lists.push((0..130).map(|i| [i64::MIN, i64::MAX, -1][i % 3]).collect());
        for xs in &lists {
            let mut want = Vec::new();
            let mut e = Encoder::new(&mut want);
            e.list(xs.len());
            xs.iter().for_each(|&x| e.int(x));
            let mut got = Vec::new();
            Encoder::new(&mut got).ints(xs.iter().copied());
            assert_eq!(got, want, "{} item(s)", xs.len());
            assert_eq!(got, canonical_bytes(&xs.to_wire()), "{} item(s)", xs.len());
            let mut via_encode = Vec::new();
            xs.encode(&mut Encoder::new(&mut via_encode));
            assert_eq!(via_encode, want, "{} item(s)", xs.len());
            let mut h = WordHasher::new();
            Encoder::new(&mut h).ints(xs.iter().copied());
            assert_eq!(h.finish(), word_hash(&want), "{} item(s)", xs.len());
            assert_eq!(wire_hash(xs), h.finish(), "{} item(s)", xs.len());
        }
    }

    #[test]
    fn write_frame_with_matches_write_frame_and_reuses_the_scratch() {
        let mut scratch = Vec::new();
        let mut via_scratch = Vec::new();
        let mut via_fresh = Vec::new();
        for v in samples() {
            write_frame_with(&mut via_scratch, &mut scratch, |e| e.value(&v)).unwrap();
            write_frame(&mut via_fresh, &v).unwrap();
        }
        assert_eq!(via_scratch, via_fresh, "same bytes on the wire");
        // Once grown, further sends of no-larger frames keep the buffer.
        let cap = scratch.capacity();
        for v in samples() {
            write_frame_with(&mut io::sink(), &mut scratch, |e| e.value(&v)).unwrap();
        }
        assert_eq!(scratch.capacity(), cap, "steady state must not reallocate");
    }

    #[test]
    fn frames_round_trip_and_eof_between_frames_is_clean() {
        let mut buf = Vec::new();
        for v in samples() {
            write_frame(&mut buf, &v).unwrap();
        }
        let mut r = &buf[..];
        for v in samples() {
            assert_eq!(read_frame(&mut r).unwrap(), Some(v));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
        assert_eq!(read_frame(&mut r).unwrap(), None, "EOF stays clean");
    }

    #[test]
    fn a_frame_cut_mid_document_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireValue::Str("some payload".into())).unwrap();
        let mut r = &buf[..buf.len() - 3];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn an_oversized_frame_length_is_rejected_without_allocating() {
        let mut buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds the 64 MiB cap"));
    }

    #[test]
    fn towire_from_wire_inverts() {
        assert_eq!(i64::from_wire(&(-7i64).to_wire()), Some(-7));
        assert_eq!(u64::from_wire(&u64::MAX.to_wire()), Some(u64::MAX));
        assert_eq!(u32::from_wire(&7u32.to_wire()), Some(7));
        assert_eq!(bool::from_wire(&true.to_wire()), Some(true));
        assert_eq!(<()>::from_wire(&().to_wire()), Some(()));
        assert_eq!(f64::from_wire(&2.25f64.to_wire()), Some(2.25));
        assert_eq!(
            String::from_wire(&"x".to_string().to_wire()),
            Some("x".to_string())
        );
        let pair = (3i64, vec![1i64, 2]);
        assert_eq!(<(i64, Vec<i64>)>::from_wire(&pair.to_wire()), Some(pair));
        let triple = (1u64, 2u64, 3u64);
        assert_eq!(
            <(u64, u64, u64)>::from_wire(&triple.to_wire()),
            Some(triple)
        );
        let nested = vec![vec![1i64], vec![], vec![2, 3]];
        assert_eq!(<Vec<Vec<i64>>>::from_wire(&nested.to_wire()), Some(nested));
    }

    #[test]
    fn from_wire_rejects_shape_mismatches() {
        assert_eq!(i64::from_wire(&WireValue::Unit), None);
        assert_eq!(u32::from_wire(&WireValue::Int(-1)), None);
        assert_eq!(<(i64, i64)>::from_wire(&WireValue::Tuple(vec![])), None);
        assert_eq!(<Vec<i64>>::from_wire(&WireValue::Int(3)), None);
    }
}
