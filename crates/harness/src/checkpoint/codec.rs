//! RBMC, the compact binary checkpoint codec: the one checkpoint format the
//! workspace reads back (snapshot-sink spills, cold-tier bytes and wire
//! bodies all decode through [`decode`] / [`decode_value`]).
//!
//! Checkpoints serialize through the vendored serde [`Value`] data model.
//! Each state producer emits its numeric state as flat arrays of numbers;
//! the largest, the prequential evaluator's pmAUC window, is one row-major
//! `scores` array and one `classes` array. RBMC version 2 frames that tree
//! with:
//!
//! * **versioned header** — `RBMC` magic + a format version, so a reader
//!   confronted with a future (or corrupt) spill fails with a clean error
//!   instead of garbage state. Version 1 files (byte-plane float packs,
//!   columnar matrices, no checksum) fail with
//!   [`CodecError::VersionMismatch`]; there is no compatibility reader;
//! * **interned object keys** — every distinct key string is written once
//!   in a header table and referenced by varint index;
//! * **varint / delta framing for integers** — integer-valued numbers are
//!   LEB128 varints; homogeneous integer arrays (class windows,
//!   drift-position lists) are zigzag-encoded *deltas* against the previous
//!   element, so sorted positions and small-range class ids cost ~1 byte
//!   each;
//! * **raw float packs** — any other all-number array is one length plus
//!   each element's little-endian `f64` bits, so restores stay
//!   **bit-exact**. Scores are full-entropy doubles: version 1's
//!   run-length byte planes saved only ~8% of a warmed checkpoint's bytes;
//! * **CRC32C trailer** — the last four bytes are the CRC32C (Castagnoli
//!   polynomial, as in RFC 3720) of the header and payload before them,
//!   checked before the payload is parsed: a flipped bit or a torn write
//!   anywhere in a checkpoint is a clean [`CodecError::Malformed`], never
//!   wrong state.
//!
//! Every framed element costs at least one input byte, so the decoder
//! rejects any count larger than the bytes left before it allocates: a
//! payload cannot make the decoder allocate more than a small multiple of
//! its own size.
//!
//! Every transform is lossless on the [`Value`] tree:
//! `decode_value(&encode_value(v)) == v` for any tree the workspace
//! produces (pinned by proptests in `tests/codec_roundtrip.rs`).
//!
//! The repository benchmark (`perfbench/LEDGER.md`) reports the binary
//! size of a warmed `rbm` + `adwin` pipeline pair as `checkpoint.bytes`,
//! with the encode and decode times beside it. Most of the bytes are the
//! metric windows' full-precision scores, which do not compress.

use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;

/// The four magic bytes every binary checkpoint starts with.
pub const BINARY_MAGIC: [u8; 4] = *b"RBMC";

/// The newest binary format version this build writes and reads.
pub const BINARY_VERSION: u16 = 2;

/// Smallest number-array length worth a packed (delta-varint or raw
/// float) encoding; shorter arrays use the generic element form.
const MIN_PACK: usize = 5;

/// Bytes of the header every RBMC payload starts with: magic + version.
const HEADER_BYTES: usize = 6;

/// Bytes of the CRC32C trailer every RBMC payload ends with.
const CHECKSUM_BYTES: usize = 4;

/// The checkpoint format of
/// [`PipelineCheckpoint::to_bytes`](crate::checkpoint::PipelineCheckpoint::to_bytes).
/// RBMC, the compact framing documented at the [module level](self), is
/// the only one. The enum exists only so that the repository benchmark's
/// `to_bytes(CheckpointCodec::Binary)` call keeps compiling; with one
/// variant it cannot carry a choice, and it can go once the benchmark
/// stops naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCodec {
    /// RBMC, the compact versioned binary framing.
    Binary,
}

/// Errors of binary checkpoint decoding.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The payload ended before the structure it promised was complete —
    /// a truncated or partially written file.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// The payload carries the binary magic but a version this build does
    /// not read.
    VersionMismatch {
        /// Version found in the header.
        found: u16,
        /// Newest version this build understands.
        supported: u16,
    },
    /// The payload is structurally invalid (a CRC32C mismatch, unknown
    /// tag, bad key index, malformed UTF-8, a count larger than the bytes
    /// left, a missing `RBMC` magic, …).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset } => {
                write!(f, "truncated checkpoint: input ended at byte {offset}")
            }
            CodecError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint codec version {found} is not supported (this build reads up to \
                 version {supported})"
            ),
            CodecError::Malformed(msg) => write!(f, "malformed binary checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes any [`Serialize`] type as RBMC.
pub fn encode<T: Serialize>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    encode_into(value, &mut out);
    out
}

/// [`encode`] into a caller-owned buffer: the encoded bytes are appended
/// to `out` (which is *not* cleared first). Callers that encode on a
/// schedule — the serving `SnapshotSink` above all — reuse one scratch
/// buffer across spills so steady-state encoding stops paying a fresh
/// output allocation per checkpoint.
pub fn encode_into<T: Serialize>(value: &T, out: &mut Vec<u8>) {
    encode_value_into(&value.serialize_value(), out);
}

/// Deserializes bytes written by [`encode`]. Anything without the `RBMC`
/// magic, a JSON rendering of the same value included, is
/// [`CodecError::Malformed`].
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    let value = decode_value(bytes)?;
    T::deserialize_value(&value).map_err(|e| CodecError::Malformed(e.to_string()))
}

// ---- framing primitives (shared with the wire protocol) --------------------

/// Appends `v` as a LEB128 varint — the integer framing every packed
/// structure in this codec uses. Public so other binary framings in the
/// workspace (the `rbm-im-net` TCP wire protocol) reuse the checkpoint
/// codec's primitives instead of inventing parallel ones.
pub fn write_varint(out: &mut Vec<u8>, v: u64) {
    put_varint(out, v);
}

/// Reads a [`write_varint`]-encoded value from `bytes` starting at `*pos`,
/// advancing `pos` past it. Truncated or overlong input fails with the
/// same clean [`CodecError`]s binary checkpoint decoding produces.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut r = Reader { bytes, pos: *pos };
    let v = r.varint()?;
    *pos = r.pos;
    Ok(v)
}

/// CRC32C slicing-by-8 lookup tables (reflected Castagnoli polynomial
/// `0x82F63B78`): `table[0]` advances the checksum by one byte,
/// `table[k]` by one byte followed by `k` zero bytes, so eight lookups
/// advance it by eight bytes. Every encode and decode checksums the whole
/// checkpoint; one table lookup per byte took ~180 µs per 57 KB (half a
/// warmed `rbm` + `adwin` checkpoint pair) against ~45 µs for eight at a
/// time, on a 2-core x86-64 runner.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut table = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
            bit += 1;
        }
        table[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = table[k - 1][i];
            table[k][i] = (prev >> 8) ^ table[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    table
};

/// The CRC32C (Castagnoli, RFC 3720) of `bytes`: the checksum of the RBMC
/// trailer. Public so tests elsewhere in the workspace can build RBMC
/// bodies by hand.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---- value tags ------------------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_POS_INT: u8 = 0x03;
const TAG_NEG_INT: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;
const TAG_INT_PACK: u8 = 0x09;
const TAG_FLOAT_PACK: u8 = 0x0A;

/// Integer framing is exact only for integers the `f64` data model itself
/// stores exactly.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// The integer framing of a number, if it round-trips bit-exactly
/// (`-0.0`, non-finite and > 2^53 magnitudes must take the raw-bits path).
fn as_exact_int(n: f64) -> Option<i64> {
    if n.is_finite()
        && n.fract() == 0.0
        && n.abs() <= MAX_EXACT_INT
        && n.to_bits() != (-0.0f64).to_bits()
    {
        Some(n as i64)
    } else {
        None
    }
}

// ---- encoding --------------------------------------------------------------

/// Encodes a [`Value`] tree into the versioned binary format.
pub fn encode_value(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    encode_value_into(value, &mut out);
    out
}

/// [`encode_value`] appending to a caller-owned buffer (not cleared
/// first), so repeat encoders can amortize the output allocation. The
/// checksum covers only the appended bytes.
pub fn encode_value_into(value: &Value, out: &mut Vec<u8>) {
    // Pass 1: intern every object key in first-seen order.
    let mut keys: Vec<&str> = Vec::new();
    let mut key_ids: HashMap<&str, u64> = HashMap::new();
    collect_keys(value, &mut keys, &mut key_ids);

    let start = out.len();
    out.extend_from_slice(&BINARY_MAGIC);
    out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    put_varint(out, keys.len() as u64);
    for key in &keys {
        put_varint(out, key.len() as u64);
        out.extend_from_slice(key.as_bytes());
    }
    encode_node(value, &key_ids, out);
    let checksum = crc32c(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

fn collect_keys<'a>(value: &'a Value, keys: &mut Vec<&'a str>, ids: &mut HashMap<&'a str, u64>) {
    match value {
        Value::Array(items) => items.iter().for_each(|v| collect_keys(v, keys, ids)),
        Value::Object(fields) => {
            for (k, v) in fields {
                if !ids.contains_key(k.as_str()) {
                    ids.insert(k.as_str(), keys.len() as u64);
                    keys.push(k.as_str());
                }
                collect_keys(v, keys, ids);
            }
        }
        _ => {}
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn encode_node(value: &Value, keys: &HashMap<&str, u64>, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Number(n) => match as_exact_int(*n) {
            Some(i) if i >= 0 => {
                out.push(TAG_POS_INT);
                put_varint(out, i as u64);
            }
            Some(i) => {
                out.push(TAG_NEG_INT);
                put_varint(out, i.unsigned_abs());
            }
            None => {
                out.push(TAG_F64);
                out.extend_from_slice(&n.to_bits().to_le_bytes());
            }
        },
        Value::String(s) => {
            out.push(TAG_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            put_varint(out, fields.len() as u64);
            for (k, v) in fields {
                put_varint(out, keys[k.as_str()]);
                encode_node(v, keys, out);
            }
        }
        Value::Array(items) => encode_array(items, keys, out),
    }
}

/// Encodes an array in the densest exact framing: delta-varint pack (all
/// exact integers), raw float pack (all numbers), or the generic
/// element-by-element form.
fn encode_array(items: &[Value], keys: &HashMap<&str, u64>, out: &mut Vec<u8>) {
    if items.len() >= MIN_PACK {
        if let Some(ints) = all_exact_ints(items) {
            out.push(TAG_INT_PACK);
            put_varint(out, ints.len() as u64);
            let mut prev = 0i64;
            for v in ints {
                put_varint(out, zigzag(v.wrapping_sub(prev)));
                prev = v;
            }
            return;
        }
        if items.iter().all(|v| matches!(v, Value::Number(_))) {
            out.push(TAG_FLOAT_PACK);
            put_varint(out, items.len() as u64);
            out.reserve(8 * items.len());
            for v in items {
                if let Value::Number(n) = v {
                    out.extend_from_slice(&n.to_bits().to_le_bytes());
                }
            }
            return;
        }
    }
    out.push(TAG_ARRAY);
    put_varint(out, items.len() as u64);
    for v in items {
        encode_node(v, keys, out);
    }
}

fn all_exact_ints(items: &[Value]) -> Option<Vec<i64>> {
    items
        .iter()
        .map(|v| match v {
            Value::Number(n) => as_exact_int(*n),
            _ => None,
        })
        .collect()
}

// ---- decoding --------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.bytes.len() - self.pos {
            return Err(CodecError::Truncated { offset: self.bytes.len() });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(CodecError::Malformed("varint overflows u64".to_string()));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint element count, for every counted RBMC structure: string
    /// and key bytes, generic array elements, object fields, packed-int
    /// deltas and packed floats (eight bytes each). Each element consumes
    /// at least one input byte, so a count above the bytes left is
    /// rejected as [`CodecError::Malformed`] before anything is
    /// allocated for it.
    fn length(&mut self) -> Result<usize, CodecError> {
        let v = self.varint()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if v > remaining {
            return Err(CodecError::Malformed(format!(
                "implausible length {v} with {remaining} bytes left"
            )));
        }
        Ok(v as usize)
    }
}

/// Decodes the versioned binary format back into the exact [`Value`] tree
/// [`encode_value`] was given. The CRC32C trailer is verified before the
/// payload is parsed.
pub fn decode_value(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(4)?;
    if magic != BINARY_MAGIC {
        return Err(CodecError::Malformed("missing RBMC magic".to_string()));
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
    if version != BINARY_VERSION {
        return Err(CodecError::VersionMismatch { found: version, supported: BINARY_VERSION });
    }
    if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES {
        return Err(CodecError::Truncated { offset: bytes.len() });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - CHECKSUM_BYTES);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let computed = crc32c(body);
    if stored != computed {
        return Err(CodecError::Malformed(format!(
            "checksum mismatch: trailer {stored:#010x}, payload {computed:#010x}"
        )));
    }
    r.bytes = body; // the payload ends where the trailer starts
    let key_count = r.length()?;
    let mut keys = Vec::with_capacity(key_count);
    for _ in 0..key_count {
        let len = r.length()?;
        let raw = r.take(len)?;
        let key = std::str::from_utf8(raw)
            .map_err(|_| CodecError::Malformed("key is not UTF-8".to_string()))?;
        keys.push(key.to_string());
    }
    let value = decode_node(&mut r, &keys)?;
    if r.pos != body.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing bytes after the value",
            body.len() - r.pos
        )));
    }
    Ok(value)
}

fn decode_node(r: &mut Reader<'_>, keys: &[String]) -> Result<Value, CodecError> {
    match r.byte()? {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_POS_INT => Ok(Value::Number(r.varint()? as f64)),
        TAG_NEG_INT => {
            let magnitude = r.varint()?;
            Ok(Value::Number(-(magnitude as f64)))
        }
        TAG_F64 => {
            let raw = r.take(8)?;
            Ok(Value::Number(f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes")))))
        }
        TAG_STR => {
            let len = r.length()?;
            let raw = r.take(len)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| CodecError::Malformed("string is not UTF-8".to_string()))?;
            Ok(Value::String(s.to_string()))
        }
        TAG_ARRAY => {
            let len = r.length()?;
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(decode_node(r, keys)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let len = r.length()?;
            let mut fields = Vec::with_capacity(len);
            for _ in 0..len {
                let id = r.varint()? as usize;
                let key = keys
                    .get(id)
                    .ok_or_else(|| CodecError::Malformed(format!("key index {id} out of range")))?
                    .clone();
                fields.push((key, decode_node(r, keys)?));
            }
            Ok(Value::Object(fields))
        }
        TAG_INT_PACK => {
            let len = r.length()?;
            let mut items = Vec::with_capacity(len);
            let mut prev = 0i64;
            for _ in 0..len {
                let delta = unzigzag(r.varint()?);
                prev = prev.wrapping_add(delta);
                items.push(Value::Number(prev as f64));
            }
            Ok(Value::Array(items))
        }
        TAG_FLOAT_PACK => {
            let len = r.length()?;
            let raw = r.take(8 * len)?;
            Ok(Value::Array(
                raw.chunks_exact(8)
                    .map(|b| Value::Number(f64::from_le_bytes(b.try_into().expect("8 bytes"))))
                    .collect(),
            ))
        }
        tag => Err(CodecError::Malformed(format!("unknown value tag {tag:#04x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &Value) {
        let bytes = encode_value(value);
        let back = decode_value(&bytes).expect("decode");
        assert_eq!(&back, value);
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Number(0.0),
            Value::Number(-0.0),
            Value::Number(42.0),
            Value::Number(-17.0),
            Value::Number(0.1),
            Value::Number(-3.25e300),
            Value::Number(MAX_EXACT_INT),
            Value::Number(MAX_EXACT_INT * 4.0),
            Value::String(String::new()),
            Value::String("héllo → world".to_string()),
        ] {
            roundtrip(&v);
        }
        // -0.0 must come back as -0.0, not 0.0 (bit-exactness).
        let bytes = encode_value(&Value::Number(-0.0));
        match decode_value(&bytes).unwrap() {
            Value::Number(n) => assert_eq!(n.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn packed_arrays_round_trip() {
        // Sorted positions → delta pack.
        let detections: Vec<Value> = [3u64, 57, 58, 900, 901, 902, 12_000]
            .iter()
            .map(|&v| Value::Number(v as f64))
            .collect();
        roundtrip(&Value::Array(detections));
        // Mixed-sign integers.
        let ints: Vec<Value> =
            [-5i64, 90, -3, 0, 7, 123_456].iter().map(|&v| Value::Number(v as f64)).collect();
        roundtrip(&Value::Array(ints));
        // Dense floats → raw float pack.
        let floats: Vec<Value> = (0..100).map(|i| Value::Number(0.1 + (i as f64) * 1e-3)).collect();
        roundtrip(&Value::Array(floats));
        // Floats including an integer-valued one stay float-packed.
        let mut mixed: Vec<Value> = (0..10).map(|i| Value::Number(0.5 + i as f64)).collect();
        mixed.push(Value::Number(0.25));
        roundtrip(&Value::Array(mixed));
        // Arrays of arrays, ragged or not, take the generic element form.
        let nested = Value::Array(
            (1..6)
                .map(|w| Value::Array((0..w).map(|i| Value::Number(i as f64)).collect()))
                .collect(),
        );
        roundtrip(&nested);
    }

    #[test]
    fn objects_intern_keys() {
        let rows: Vec<Value> = (0..64)
            .map(|i| {
                Value::object(vec![
                    ("position", Value::Number(i as f64)),
                    ("pm_auc", Value::Number(0.5 + 0.001 * i as f64)),
                ])
            })
            .collect();
        let value = Value::Array(rows);
        roundtrip(&value);
        let bytes = encode_value(&value);
        let json = serde_json::to_string(&value).unwrap();
        assert!(
            bytes.len() * 2 < json.len(),
            "interning + packing must beat JSON: {} vs {}",
            bytes.len(),
            json.len()
        );
    }

    #[test]
    fn truncation_and_corruption_fail_cleanly() {
        let value = Value::object(vec![
            ("a", Value::Array((0..40).map(|i| Value::Number(i as f64 * 0.3)).collect())),
            ("b", Value::String("payload".to_string())),
        ]);
        let bytes = encode_value(&value);
        for cut in [0, 3, 5, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_value(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Trailing garbage is rejected, not ignored.
        let mut padded = bytes.clone();
        padded.push(0x00);
        assert!(matches!(decode_value(&padded), Err(CodecError::Malformed(_))));
        // Unknown version is a clean VersionMismatch.
        let mut future = bytes;
        future[4] = 0xFF;
        future[5] = 0x7F;
        assert_eq!(
            decode_value(&future),
            Err(CodecError::VersionMismatch { found: 0x7FFF, supported: BINARY_VERSION })
        );
    }

    #[test]
    fn varint_helpers_round_trip() {
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX];
        let mut out = Vec::new();
        for v in values {
            write_varint(&mut out, v);
        }
        let mut pos = 0usize;
        for v in values {
            assert_eq!(read_varint(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, out.len());
        let mut pos = 0usize;
        assert!(matches!(read_varint(&[0x80], &mut pos), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn decode_reads_rbmc_and_rejects_json() {
        let value = Value::object(vec![("n", Value::Number(7.0))]);
        let binary = encode(&value);
        let json = serde_json::to_string(&value).unwrap().into_bytes();
        assert!(binary.starts_with(&BINARY_MAGIC));
        assert_eq!(decode::<Value>(&binary).unwrap(), value);
        assert!(matches!(decode::<Value>(&json), Err(CodecError::Malformed(_))));
        assert!(matches!(decode_value(b"{broken"), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn crc32c_matches_the_castagnoli_check_value() {
        // The standard check input of CRC catalogues and RFC 3720's
        // 32 zero bytes.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        assert_eq!(crc32c(&[]), 0);
        // Every split between the eight-byte loop and the byte tail agrees
        // with the one-byte-at-a-time definition.
        let data: Vec<u8> =
            (0..64u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
        for len in 0..=data.len() {
            let bytewise = !data[..len].iter().fold(!0u32, |crc, &b| {
                CRC32C_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
            });
            assert_eq!(crc32c(&data[..len]), bytewise, "length {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_fails_to_decode() {
        let value = Value::object(vec![
            (
                "scores",
                Value::Array((0..12).map(|i| Value::Number(0.1 * i as f64 + 0.05)).collect()),
            ),
            ("classes", Value::Array((0..6).map(|i| Value::Number((i % 3) as f64)).collect())),
            ("spec", Value::String("rbm(minibatch=50)".to_string())),
            ("count", Value::Number(1_234.0)),
            ("flags", Value::Array(vec![Value::Bool(true), Value::Null])),
        ]);
        let bytes = encode_value(&value);
        assert_eq!(decode_value(&bytes).unwrap(), value);
        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[offset] ^= 1 << bit;
                assert!(decode_value(&flipped).is_err(), "flip of bit {bit} at byte {offset}");
            }
        }
    }

    #[test]
    fn a_tiny_body_cannot_declare_millions_of_floats() {
        // The shape of an RBMC v1 run-length float pack, checksummed: a
        // few dozen bytes declaring 2^22 floats.
        let mut body = BINARY_MAGIC.to_vec();
        body.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        put_varint(&mut body, 0); // no keys
        body.push(TAG_FLOAT_PACK);
        put_varint(&mut body, 1 << 22);
        for _ in 0..8 {
            body.push(1); // a v1 RLE plane: one run of 2^22 bytes
            put_varint(&mut body, 1 << 22);
            body.push(0x3F);
        }
        let checksum = crc32c(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        assert!(body.len() < 100, "{} bytes", body.len());
        assert!(matches!(decode_value(&body), Err(CodecError::Malformed(_))));
    }
}
