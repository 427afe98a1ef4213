//! RBMC, the compact binary checkpoint codec: the one checkpoint format the
//! workspace reads back (snapshot-sink spills, cold-tier bytes and wire
//! bodies all decode through [`decode`] / [`decode_value`]).
//!
//! Checkpoints serialize through the vendored serde [`Value`] data model,
//! and the JSON rendering of that tree is dominated by the prequential
//! evaluator's metric windows: thousands of full-precision `f64` scores
//! printed as ~18-character decimal strings, plus the per-entry `[...]`
//! punctuation around them. The binary codec attacks exactly that:
//!
//! * **versioned header** — `RBMC` magic + a format version, so a reader
//!   confronted with a future (or corrupt) spill fails with a clean error
//!   instead of garbage state;
//! * **interned object keys** — every distinct key string is written once
//!   in a header table and referenced by varint index;
//! * **varint / delta framing for integers** — integer-valued numbers are
//!   LEB128 varints; homogeneous integer arrays (the evaluator's
//!   `(true, predicted)` windows, drift-position lists) are zigzag-encoded
//!   *deltas* against the previous element, so sorted positions and
//!   small-range class ids cost ~1 byte each;
//! * **columnar re-blocking** — an array whose elements are all arrays of
//!   one length (the AUC window's `[[scores…], class]` entries) is
//!   transposed and each column encoded independently, which turns the
//!   window into four dense `f64` columns plus one delta-varint class
//!   column;
//! * **byte-plane packed float columns** — dense `f64` runs are split into
//!   their eight byte planes; planes that compress (the sign/exponent
//!   plane is nearly constant within a score column) are run-length
//!   encoded, random mantissa planes stay raw. Scores are full-entropy
//!   doubles, so this is within ~10% of their order-0 entropy floor while
//!   staying **bit-exact** — restores stay bitwise-identical.
//!
//! Every transform is lossless on the [`Value`] tree:
//! `decode_value(&encode_value(v)) == v` for any tree the workspace
//! produces (pinned by proptests in `tests/codec_roundtrip.rs`).
//!
//! The repository benchmark (`perfbench/LEDGER.md`) reports the binary
//! size of a warmed `rbm` + `adwin` pipeline pair as `checkpoint.bytes`,
//! with the encode and decode times beside it. Most of the remaining bytes
//! are the metric windows' full-precision scores, which do not compress.

use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;

/// The four magic bytes every binary checkpoint starts with.
pub const BINARY_MAGIC: [u8; 4] = *b"RBMC";

/// The newest binary format version this build writes and reads.
pub const BINARY_VERSION: u16 = 1;

/// Smallest number-array length worth a packed (delta-varint or
/// byte-plane) encoding; shorter arrays use the generic element form.
const MIN_PACK: usize = 5;

/// Smallest array-of-uniform-arrays length worth columnar re-blocking.
const MIN_MATRIX_ROWS: usize = 4;

/// Checkpoint serialization format of [`encode`].
///
/// [`CheckpointCodec::Binary`] is RBMC, the compact framing documented at
/// the [module level](self) and the only format [`decode`] reads.
/// [`CheckpointCodec::Json`] is a write-only debugging dump — diffable and
/// greppable, but nothing in the workspace reads it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCodec {
    /// A human-readable JSON dump of the [`Value`] tree, for debugging
    /// only: [`decode`] does not read it.
    Json,
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
    /// The payload is structurally invalid (unknown tag, bad key index,
    /// malformed UTF-8, trailing garbage, a missing `RBMC` magic, …).
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

/// Serializes any [`Serialize`] type with the chosen codec.
pub fn encode<T: Serialize>(codec: CheckpointCodec, value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    encode_into(codec, value, &mut out);
    out
}

/// [`encode`] into a caller-owned buffer: the encoded bytes are appended
/// to `out` (which is *not* cleared first). Callers that encode on a
/// schedule — the serving `SnapshotSink` above all — reuse one scratch
/// buffer across spills so steady-state encoding stops paying a fresh
/// output allocation per checkpoint.
pub fn encode_into<T: Serialize>(codec: CheckpointCodec, value: &T, out: &mut Vec<u8>) {
    match codec {
        CheckpointCodec::Json => out.extend_from_slice(
            serde_json::to_string(&value.serialize_value()).unwrap_or_default().as_bytes(),
        ),
        CheckpointCodec::Binary => encode_value_into(&value.serialize_value(), out),
    }
}

/// Deserializes bytes written by [`encode`] with [`CheckpointCodec::Binary`].
/// Anything without the `RBMC` magic, a JSON dump included, is
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
const TAG_MATRIX: u8 = 0x0B;

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
/// first), so repeat encoders can amortize the output allocation.
pub fn encode_value_into(value: &Value, out: &mut Vec<u8>) {
    // Pass 1: intern every object key in first-seen order.
    let mut keys: Vec<&str> = Vec::new();
    let mut key_ids: HashMap<&str, u64> = HashMap::new();
    collect_keys(value, &mut keys, &mut key_ids);

    out.extend_from_slice(&BINARY_MAGIC);
    out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    put_varint(out, keys.len() as u64);
    for key in &keys {
        put_varint(out, key.len() as u64);
        out.extend_from_slice(key.as_bytes());
    }
    encode_node(value, &key_ids, out);
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
        Value::Array(items) => {
            let refs: Vec<&Value> = items.iter().collect();
            encode_array(&refs, keys, out);
        }
    }
}

/// Encodes a sequence of values, picking the densest exact framing:
/// delta-varint pack (all exact integers), byte-plane float pack (all
/// numbers), columnar matrix (all same-length arrays), or the generic
/// element-by-element form. Operates on references so matrix columns can
/// be encoded without materializing them.
fn encode_array(items: &[&Value], keys: &HashMap<&str, u64>, out: &mut Vec<u8>) {
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
            let bits: Vec<u64> = items
                .iter()
                .map(|v| match v {
                    Value::Number(n) => n.to_bits(),
                    _ => unreachable!("checked all-number above"),
                })
                .collect();
            encode_planes(&bits, out);
            return;
        }
    }
    if items.len() >= MIN_MATRIX_ROWS {
        if let Some(width) = uniform_width(items) {
            out.push(TAG_MATRIX);
            put_varint(out, items.len() as u64);
            put_varint(out, width as u64);
            let mut column: Vec<&Value> = Vec::with_capacity(items.len());
            for col in 0..width {
                column.clear();
                for row in items {
                    match row {
                        Value::Array(cells) => column.push(&cells[col]),
                        _ => unreachable!("uniform_width checked rows are arrays"),
                    }
                }
                encode_array(&column, keys, out);
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

fn all_exact_ints(items: &[&Value]) -> Option<Vec<i64>> {
    items
        .iter()
        .map(|v| match v {
            Value::Number(n) => as_exact_int(*n),
            _ => None,
        })
        .collect()
}

/// The common length of the rows, when every item is an array of one
/// (non-zero) length.
fn uniform_width(items: &[&Value]) -> Option<usize> {
    let width = match items.first() {
        Some(Value::Array(cells)) if !cells.is_empty() => cells.len(),
        _ => return None,
    };
    items.iter().all(|v| matches!(v, Value::Array(cells) if cells.len() == width)).then_some(width)
}

/// Splits `bits` into eight byte planes and writes each plane raw or
/// run-length encoded, whichever is smaller. The sign/exponent plane of a
/// column of same-scale scores is nearly constant (RLE collapses it);
/// mantissa planes are full-entropy and stay raw.
fn encode_planes(bits: &[u64], out: &mut Vec<u8>) {
    let mut plane = Vec::with_capacity(bits.len());
    for shift in (0..8).map(|p| p * 8) {
        plane.clear();
        plane.extend(bits.iter().map(|b| (b >> shift) as u8));
        let mut rle = Vec::new();
        let mut i = 0usize;
        while i < plane.len() && rle.len() < plane.len() {
            let byte = plane[i];
            let mut run = 1usize;
            while i + run < plane.len() && plane[i + run] == byte {
                run += 1;
            }
            put_varint(&mut rle, run as u64);
            rle.push(byte);
            i += run;
        }
        if i == plane.len() && rle.len() < plane.len() {
            out.push(1); // RLE plane
            out.extend_from_slice(&rle);
        } else {
            out.push(0); // raw plane
            out.extend_from_slice(&plane);
        }
    }
}

// ---- decoding --------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.bytes.len() {
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

    /// A varint length for structures whose every element consumes **at
    /// least one input byte** (string bytes, interned keys, generic array
    /// elements, object fields, packed-int deltas): a corrupt header
    /// demanding more elements than there are bytes left is rejected
    /// before any allocation. NOT valid for RLE-compressible structures
    /// (float packs, matrix rows) — a single RLE run legitimately encodes
    /// millions of values in three bytes; those paths use
    /// [`Reader::count`] instead.
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

    /// A varint element count for RLE-compressible structures, where the
    /// count is *not* bounded by the remaining input. Allocation safety
    /// comes from failing cleanly (instead of aborting) if the count
    /// cannot be reserved.
    fn count(&mut self) -> Result<usize, CodecError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| CodecError::Malformed(format!("count {v} overflows usize")))
    }
}

/// Decodes the versioned binary format back into the exact [`Value`] tree
/// [`encode_value`] was given.
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
    if r.pos != bytes.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing bytes after the value",
            bytes.len() - r.pos
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
            let len = r.count()?;
            let bits = decode_planes(r, len)?;
            Ok(Value::Array(bits.into_iter().map(|b| Value::Number(f64::from_bits(b))).collect()))
        }
        TAG_MATRIX => {
            // Rows can legitimately exceed the remaining bytes (columns
            // RLE-compress); each decoded column is validated against it,
            // and no rows-sized allocation happens before that validation.
            let rows = r.count()?;
            let width = r.length()?;
            if width == 0 {
                return Err(CodecError::Malformed("matrix with zero width".to_string()));
            }
            let mut columns = Vec::with_capacity(width);
            for _ in 0..width {
                let column = match decode_node(r, keys)? {
                    Value::Array(items) if items.len() == rows => items,
                    Value::Array(items) => {
                        return Err(CodecError::Malformed(format!(
                            "matrix column of {} rows, expected {rows}",
                            items.len()
                        )))
                    }
                    _ => {
                        return Err(CodecError::Malformed(
                            "matrix column is not an array".to_string(),
                        ))
                    }
                };
                columns.push(column);
            }
            let mut items = Vec::with_capacity(rows);
            for row in 0..rows {
                // Draining front-to-back via index clones nothing: each
                // cell is moved out of its column exactly once.
                let cells: Vec<Value> = columns
                    .iter_mut()
                    .map(|c| std::mem::replace(&mut c[row], Value::Null))
                    .collect();
                items.push(Value::Array(cells));
            }
            Ok(Value::Array(items))
        }
        tag => Err(CodecError::Malformed(format!("unknown value tag {tag:#04x}"))),
    }
}

fn decode_planes(r: &mut Reader<'_>, len: usize) -> Result<Vec<u64>, CodecError> {
    // `len` comes from an unbounded count (RLE planes can legitimately
    // encode far more values than the remaining input bytes), so a corrupt
    // count must fail as a clean error rather than an allocation abort.
    let mut bits = Vec::new();
    bits.try_reserve_exact(len)
        .map_err(|_| CodecError::Malformed(format!("float pack of {len} values too large")))?;
    bits.resize(len, 0u64);
    for shift in (0..8).map(|p| p * 8) {
        match r.byte()? {
            0 => {
                let plane = r.take(len)?;
                for (b, byte) in bits.iter_mut().zip(plane) {
                    *b |= u64::from(*byte) << shift;
                }
            }
            1 => {
                let mut filled = 0usize;
                while filled < len {
                    let run = r.varint()? as usize;
                    let byte = r.byte()?;
                    if run == 0 || run > len - filled {
                        return Err(CodecError::Malformed("RLE run overflows plane".to_string()));
                    }
                    for b in &mut bits[filled..filled + run] {
                        *b |= u64::from(byte) << shift;
                    }
                    filled += run;
                }
            }
            mode => {
                return Err(CodecError::Malformed(format!("unknown plane mode {mode}")));
            }
        }
    }
    Ok(bits)
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
        // Dense floats → byte planes.
        let floats: Vec<Value> = (0..100).map(|i| Value::Number(0.1 + (i as f64) * 1e-3)).collect();
        roundtrip(&Value::Array(floats));
        // Floats including an integer-valued one stay float-packed.
        let mut mixed: Vec<Value> = (0..10).map(|i| Value::Number(0.5 + i as f64)).collect();
        mixed.push(Value::Number(0.25));
        roundtrip(&Value::Array(mixed));
    }

    #[test]
    fn rle_collapsed_packs_still_decode() {
        // A long run of identical non-integer floats: every byte plane
        // RLE-collapses, so the encoding is far smaller than the element
        // count — the decoder must accept that, not flag it implausible.
        let constant = Value::Array(vec![Value::Number(0.5); 10_000]);
        let bytes = encode_value(&constant);
        assert!(bytes.len() < 200, "constant column must collapse: {} bytes", bytes.len());
        assert_eq!(decode_value(&bytes).unwrap(), constant);

        // Same shape inside a matrix: constant score columns, tiny rows.
        let rows: Vec<Value> = (0..5_000)
            .map(|i| {
                Value::Array(vec![
                    Value::Array(vec![Value::Number(0.25); 4]),
                    Value::Number((i % 4) as f64),
                ])
            })
            .collect();
        let matrix = Value::Array(rows);
        let bytes = encode_value(&matrix);
        assert_eq!(decode_value(&bytes).unwrap(), matrix);
    }

    #[test]
    fn matrix_reblocking_round_trips() {
        // The AUC-window shape: [[scores…], class] rows.
        let rows: Vec<Value> = (0..50)
            .map(|i| {
                Value::Array(vec![
                    Value::Array(
                        (0..4).map(|c| Value::Number(0.01 * (i * 4 + c) as f64)).collect(),
                    ),
                    Value::Number((i % 4) as f64),
                ])
            })
            .collect();
        roundtrip(&Value::Array(rows));
        // Ragged rows fall back to the generic array form.
        let ragged = Value::Array(vec![
            Value::Array(vec![Value::Number(1.0)]),
            Value::Array(vec![Value::Number(1.0), Value::Number(2.0)]),
            Value::Array(vec![Value::Number(1.0)]),
            Value::Array(vec![Value::Number(1.0)]),
        ]);
        roundtrip(&ragged);
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
        let binary = encode(CheckpointCodec::Binary, &value);
        let json = encode(CheckpointCodec::Json, &value);
        assert!(binary.starts_with(&BINARY_MAGIC));
        assert_eq!(decode::<Value>(&binary).unwrap(), value);
        assert!(matches!(decode::<Value>(&json), Err(CodecError::Malformed(_))));
        assert!(matches!(decode_value(b"{broken"), Err(CodecError::Malformed(_))));
    }
}
