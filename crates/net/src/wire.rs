//! The length-prefixed binary frame grammar.
//!
//! Every frame on the wire is
//!
//! ```text
//! u32 LE payload length | payload
//! payload = "RBMW" magic (4 bytes) | u16 LE version | u8 frame type | body
//! ```
//!
//! The body reuses the RBMC checkpoint codec's framing primitives
//! ([`rbm_im_harness::checkpoint::codec`]): LEB128 varints frame every
//! length and integer, strings are varint-length-prefixed UTF-8, and
//! control payloads (attach, results, checkpoints, reports, events) travel
//! as codec-encoded [`Value`] trees — so a wire capture is
//! decodable with the same tooling as a checkpoint spill. The hot ingest
//! path is hand-framed (raw little-endian `f64` feature words, varint
//! class/index) to avoid the tree detour per instance.
//!
//! Parsing is strict and total: a frame either decodes into a [`Frame`] or
//! fails with a [`WireError`] that tells the connection loop whether the
//! *framing* survived (frame-scoped errors such as an unsupported version
//! — reply and keep the connection) or not (garbage length prefix,
//! truncated payload — reply and close). No input, however malformed, may
//! panic the worker; `tests/protocol.rs` fuzzes truncations and byte
//! flips of every frame type against that contract.

use rbm_im_harness::checkpoint::codec::{self, read_varint, write_varint, CodecError};
use rbm_im_harness::pipeline::{RunConfig, RunResult};
use rbm_im_obs::MetricsSnapshot;
use rbm_im_serve::{HealthSnapshot, ServeEvent, ServeEventKind, ServeReport, StreamCheckpoint};
use rbm_im_streams::{Instance, StreamSchema};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// The four magic bytes every wire payload starts with (`RBMW`: the RBMC
/// checkpoint family's wire sibling).
pub const WIRE_MAGIC: [u8; 4] = *b"RBMW";

/// The newest wire protocol version this build speaks.
pub const WIRE_VERSION: u16 = 1;

/// Hard cap on a single frame's payload size. A length prefix above this
/// is treated as a corrupt stream (random bytes decode to absurd lengths
/// with high probability), not an allocation request.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

// Frame type bytes. Requests have the high bit clear, replies set.
/// Frame type: [`Frame::Attach`].
pub const FT_ATTACH: u8 = 0x01;
/// Frame type: [`Frame::Detach`].
pub const FT_DETACH: u8 = 0x02;
/// Frame type: [`Frame::Ingest`].
pub const FT_INGEST: u8 = 0x03;
/// Frame type: [`Frame::Drain`].
pub const FT_DRAIN: u8 = 0x04;
/// Frame type: [`Frame::Checkpoint`].
pub const FT_CHECKPOINT: u8 = 0x05;
/// Frame type: [`Frame::Shutdown`].
pub const FT_SHUTDOWN: u8 = 0x06;
/// Frame type: [`Frame::Subscribe`].
pub const FT_SUBSCRIBE: u8 = 0x07;
/// Frame type: [`Frame::Metrics`].
pub const FT_METRICS: u8 = 0x08;
/// Frame type: [`Frame::Health`].
pub const FT_HEALTH: u8 = 0x09;
/// Frame type: [`Frame::Ack`].
pub const FT_ACK: u8 = 0x80;
/// Frame type: [`Frame::Busy`].
pub const FT_BUSY: u8 = 0x81;
/// Frame type: [`Frame::Error`].
pub const FT_ERROR: u8 = 0x82;
/// Frame type: [`Frame::Result`].
pub const FT_RESULT: u8 = 0x83;
/// Frame type: [`Frame::CheckpointData`].
pub const FT_CHECKPOINT_DATA: u8 = 0x84;
/// Frame type: [`Frame::Report`].
pub const FT_REPORT: u8 = 0x85;
/// Frame type: [`Frame::Event`].
pub const FT_EVENT: u8 = 0x86;
/// Frame type: [`Frame::MetricsData`].
pub const FT_METRICS_DATA: u8 = 0x87;
/// Frame type: [`Frame::HealthData`].
pub const FT_HEALTH_DATA: u8 = 0x88;

/// Machine-readable category of an [`Frame::Error`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame could not be decoded (bad magic, truncated body,
    /// structurally invalid payload).
    Malformed,
    /// The frame carried a protocol version this build does not speak.
    UnsupportedVersion,
    /// Well-formed framing, but a frame type this build does not know.
    UnknownFrameType,
    /// The serving operation itself failed (unknown stream, spec did not
    /// resolve, already attached, …).
    Serve,
    /// The server behind this front-end has already shut down.
    Unavailable,
}

impl ErrorCode {
    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::UnknownFrameType => 3,
            ErrorCode::Serve => 4,
            ErrorCode::Unavailable => 5,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::UnsupportedVersion),
            3 => Some(ErrorCode::UnknownFrameType),
            4 => Some(ErrorCode::Serve),
            5 => Some(ErrorCode::Unavailable),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::Malformed => write!(f, "malformed frame"),
            ErrorCode::UnsupportedVersion => write!(f, "unsupported protocol version"),
            ErrorCode::UnknownFrameType => write!(f, "unknown frame type"),
            ErrorCode::Serve => write!(f, "serve error"),
            ErrorCode::Unavailable => write!(f, "server unavailable"),
        }
    }
}

/// One decoded wire frame — requests (client → server) and replies
/// (server → client) share the enum so both endpoints use one
/// encoder/decoder pair.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Attach a stream: schema, the full detector spec *string* (parsed
    /// server-side against the server's registry), and an optional
    /// per-stream [`RunConfig`] override. Reply: [`Frame::Ack`].
    Attach {
        /// Stream id.
        stream: String,
        /// Stream schema.
        schema: StreamSchema,
        /// Detector spec in `DetectorSpec::parse` syntax.
        spec: String,
        /// Per-stream run config (`None` = the server's default).
        run: Option<RunConfig>,
    },
    /// Detach a stream. Reply: [`Frame::Result`] with its final summary.
    Detach {
        /// Stream id.
        stream: String,
    },
    /// Ingest a micro-batch. Reply: [`Frame::Ack`], or — non-blocking mode
    /// under backpressure — [`Frame::Busy`] carrying the rejected count.
    Ingest {
        /// Stream id.
        stream: String,
        /// `true` = blocking ingest (waits at the shards' pace);
        /// `false` = fail-fast with `Busy` when the shard queue is full.
        blocking: bool,
        /// The instances, in arrival order.
        instances: Vec<Instance>,
    },
    /// Barrier: everything ingested on any connection before this frame is
    /// fully processed when the [`Frame::Ack`] reply arrives.
    Drain,
    /// Capture a non-destructive checkpoint of one stream. Reply:
    /// [`Frame::CheckpointData`].
    Checkpoint {
        /// Stream id.
        stream: String,
    },
    /// Gracefully shut the serving plane down. Reply: [`Frame::Report`].
    Shutdown,
    /// Turn this connection into a server-push event stream: after the
    /// [`Frame::Ack`] reply the server sends [`Frame::Event`] frames until
    /// shutdown closes the bus.
    Subscribe,
    /// Request a point-in-time snapshot of the server's metric registry.
    /// Reply: [`Frame::MetricsData`].
    Metrics,
    /// Request a liveness summary (per-shard load, stream counts, latency
    /// quantiles, last-spill age). Reply: [`Frame::HealthData`].
    Health,
    /// Success reply carrying no data.
    Ack,
    /// Backpressure reply to a non-blocking [`Frame::Ingest`]: the shard
    /// queue was full and `rejected` instances were *not* ingested.
    Busy {
        /// Number of rejected instances (the whole batch — partial ingest
        /// never happens).
        rejected: u64,
    },
    /// Failure reply.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// A stream's final [`RunResult`] (reply to [`Frame::Detach`]).
    Result(Box<RunResult>),
    /// A captured [`StreamCheckpoint`] (reply to [`Frame::Checkpoint`]).
    CheckpointData(Box<StreamCheckpoint>),
    /// The final [`ServeReport`] (reply to [`Frame::Shutdown`]).
    Report(Box<ServeReport>),
    /// One [`ServeEvent`] pushed on a subscribed connection.
    Event(Box<ServeEvent>),
    /// The server's [`MetricsSnapshot`] (reply to [`Frame::Metrics`]).
    MetricsData(Box<MetricsSnapshot>),
    /// The server's [`HealthSnapshot`] (reply to [`Frame::Health`]).
    HealthData(Box<HealthSnapshot>),
}

/// Errors of reading or decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// Transport I/O failed mid-frame.
    Io(io::Error),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Closed,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`] — a corrupt stream.
    TooLarge(u32),
    /// The payload carried the wire magic but a version this build does
    /// not speak. The framing itself was intact: the connection survives.
    UnsupportedVersion {
        /// Version found in the payload.
        found: u16,
    },
    /// Intact framing and version, but an unknown frame type byte. The
    /// connection survives.
    UnknownFrameType(u8),
    /// The payload is structurally invalid (bad magic, truncated body,
    /// malformed UTF-8, codec error). The frame was consumed whole, so the
    /// connection survives; a bad *length prefix* surfaces as
    /// [`WireError::TooLarge`] or [`WireError::Io`] instead.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            WireError::UnsupportedVersion { found } => write!(
                f,
                "wire protocol version {found} is not supported (this build speaks {WIRE_VERSION})"
            ),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

impl From<serde::Error> for WireError {
    fn from(e: serde::Error) -> Self {
        WireError::Malformed(e.to_string())
    }
}

// ---- encoding --------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    out.extend_from_slice(&codec::encode_value(value));
}

/// Encodes a frame's *payload* (magic + version + type + body), without
/// the length prefix.
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    match frame {
        Frame::Attach { stream, schema, spec, run } => {
            out.push(FT_ATTACH);
            put_value(
                &mut out,
                &Value::object(vec![
                    ("stream", Value::String(stream.clone())),
                    ("schema", schema.serialize_value()),
                    ("spec", Value::String(spec.clone())),
                    ("run", run.serialize_value()),
                ]),
            );
        }
        Frame::Detach { stream } => {
            out.push(FT_DETACH);
            put_str(&mut out, stream);
        }
        Frame::Ingest { stream, blocking, instances } => {
            out.push(FT_INGEST);
            put_str(&mut out, stream);
            out.push(u8::from(*blocking));
            write_varint(&mut out, instances.len() as u64);
            for instance in instances {
                write_varint(&mut out, instance.features.len() as u64);
                for feature in &instance.features {
                    out.extend_from_slice(&feature.to_bits().to_le_bytes());
                }
                write_varint(&mut out, instance.class as u64);
                write_varint(&mut out, instance.index);
            }
        }
        Frame::Drain => out.push(FT_DRAIN),
        Frame::Checkpoint { stream } => {
            out.push(FT_CHECKPOINT);
            put_str(&mut out, stream);
        }
        Frame::Shutdown => out.push(FT_SHUTDOWN),
        Frame::Subscribe => out.push(FT_SUBSCRIBE),
        Frame::Metrics => out.push(FT_METRICS),
        Frame::Health => out.push(FT_HEALTH),
        Frame::Ack => out.push(FT_ACK),
        Frame::Busy { rejected } => {
            out.push(FT_BUSY);
            write_varint(&mut out, *rejected);
        }
        Frame::Error { code, message } => {
            out.push(FT_ERROR);
            out.push(code.as_u8());
            put_str(&mut out, message);
        }
        Frame::Result(result) => {
            out.push(FT_RESULT);
            out.extend_from_slice(&codec::encode(result.as_ref()));
        }
        Frame::CheckpointData(checkpoint) => {
            out.push(FT_CHECKPOINT_DATA);
            out.extend_from_slice(&codec::encode(checkpoint.as_ref()));
        }
        Frame::Report(report) => {
            out.push(FT_REPORT);
            out.extend_from_slice(&codec::encode(report.as_ref()));
        }
        Frame::Event(event) => {
            out.push(FT_EVENT);
            put_value(&mut out, &event_to_value(event));
        }
        Frame::MetricsData(snapshot) => {
            out.push(FT_METRICS_DATA);
            put_value(&mut out, &snapshot.serialize_value());
        }
        Frame::HealthData(health) => {
            out.push(FT_HEALTH_DATA);
            put_value(&mut out, &health.serialize_value());
        }
    }
    out
}

/// Encodes a complete frame: length prefix plus payload.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Writes one frame (length prefix + payload). The caller flushes.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

// ---- decoding --------------------------------------------------------------

/// Instances an `Ingest` decode reserves up front, at most (~40 KB).
const INGEST_RESERVE: usize = 1024;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn varint(&mut self) -> Result<u64, WireError> {
        Ok(read_varint(self.bytes, &mut self.pos)?)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.bytes.len() {
            return Err(WireError::Malformed(format!(
                "body ended at byte {} of a {}-byte structure",
                self.bytes.len(),
                self.pos + n
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.varint()?;
        if len > (self.bytes.len() - self.pos) as u64 {
            return Err(WireError::Malformed(format!(
                "implausible string length {len} with {} bytes left",
                self.bytes.len() - self.pos
            )));
        }
        let raw = self.take(len as usize)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".to_string()))
    }

    /// The remaining bytes, consumed.
    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        slice
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after the frame body",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn decode_codec<T: Deserialize>(bytes: &[u8]) -> Result<T, WireError> {
    Ok(codec::decode(bytes)?)
}

/// Decodes a frame *payload* (everything after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor { bytes: payload, pos: 0 };
    let magic = c.take(4).map_err(|_| WireError::Malformed("missing RBMW magic".to_string()))?;
    if magic != WIRE_MAGIC {
        return Err(WireError::Malformed("missing RBMW magic".to_string()));
    }
    let version = u16::from_le_bytes(
        c.take(2)
            .map_err(|_| WireError::Malformed("payload too short for a version".to_string()))?
            .try_into()
            .expect("2 bytes"),
    );
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let frame_type = c
        .byte()
        .map_err(|_| WireError::Malformed("payload too short for a frame type".to_string()))?;
    let frame = match frame_type {
        FT_ATTACH => {
            let value = codec::decode_value(c.rest())?;
            Frame::Attach {
                stream: value.field::<String>("stream")?,
                schema: value.field::<StreamSchema>("schema")?,
                spec: value.field::<String>("spec")?,
                run: value.field::<Option<RunConfig>>("run")?,
            }
        }
        FT_DETACH => Frame::Detach { stream: c.str()? },
        FT_INGEST => {
            let stream = c.str()?;
            let blocking = match c.byte()? {
                0 => false,
                1 => true,
                other => {
                    return Err(WireError::Malformed(format!("unknown ingest mode {other}")));
                }
            };
            let count = c.varint()?;
            // Each instance costs at least 3 bytes (three one-byte
            // varints), so a count above a third of the remaining bytes is
            // rejected before any allocation. Even a plausible count only
            // reserves a bounded prefix: the body may still break early,
            // and the vector grows with the instances actually decoded.
            if count > ((c.bytes.len() - c.pos) / 3) as u64 {
                return Err(WireError::Malformed(format!(
                    "implausible instance count {count} with {} bytes left",
                    c.bytes.len() - c.pos
                )));
            }
            let mut instances = Vec::with_capacity((count as usize).min(INGEST_RESERVE));
            for _ in 0..count {
                let num_features = c.varint()?;
                if num_features.checked_mul(8).is_none()
                    || num_features * 8 > (c.bytes.len() - c.pos) as u64
                {
                    return Err(WireError::Malformed(format!(
                        "implausible feature count {num_features} with {} bytes left",
                        c.bytes.len() - c.pos
                    )));
                }
                let mut features = Vec::with_capacity(num_features as usize);
                for _ in 0..num_features {
                    let raw = c.take(8)?;
                    features
                        .push(f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes"))));
                }
                let class = c.varint()? as usize;
                let index = c.varint()?;
                instances.push(Instance::with_index(features, class, index));
            }
            Frame::Ingest { stream, blocking, instances }
        }
        FT_DRAIN => Frame::Drain,
        FT_CHECKPOINT => Frame::Checkpoint { stream: c.str()? },
        FT_SHUTDOWN => Frame::Shutdown,
        FT_SUBSCRIBE => Frame::Subscribe,
        FT_METRICS => Frame::Metrics,
        FT_HEALTH => Frame::Health,
        FT_ACK => Frame::Ack,
        FT_BUSY => Frame::Busy { rejected: c.varint()? },
        FT_ERROR => {
            let code = ErrorCode::from_u8(c.byte()?)
                .ok_or_else(|| WireError::Malformed("unknown error code".to_string()))?;
            Frame::Error { code, message: c.str()? }
        }
        FT_RESULT => Frame::Result(Box::new(decode_codec(c.rest())?)),
        FT_CHECKPOINT_DATA => Frame::CheckpointData(Box::new(decode_codec(c.rest())?)),
        FT_REPORT => Frame::Report(Box::new(decode_codec(c.rest())?)),
        FT_EVENT => {
            let value = codec::decode_value(c.rest())?;
            Frame::Event(Box::new(event_from_value(&value)?))
        }
        FT_METRICS_DATA => {
            let value = codec::decode_value(c.rest())?;
            Frame::MetricsData(Box::new(MetricsSnapshot::deserialize_value(&value)?))
        }
        FT_HEALTH_DATA => {
            let value = codec::decode_value(c.rest())?;
            Frame::HealthData(Box::new(HealthSnapshot::deserialize_value(&value)?))
        }
        other => return Err(WireError::UnknownFrameType(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Reads one frame off the transport: length prefix, payload, decode.
///
/// Clean EOF *between* frames is [`WireError::Closed`]; EOF inside a frame
/// is [`WireError::Io`] (the peer vanished mid-frame, the stream cannot be
/// resynchronized).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_payload(&payload)
}

// ---- event <-> value -------------------------------------------------------

/// Converts a [`ServeEvent`] into the wire [`Value`] tree. Public so
/// captures and tests can inspect event frames symbolically.
pub fn event_to_value(event: &ServeEvent) -> Value {
    let mut fields = vec![
        ("stream", Value::String(event.stream.to_string())),
        ("shard", Value::Number(event.shard as f64)),
    ];
    match &event.kind {
        ServeEventKind::Attached => fields.push(("kind", Value::String("attached".into()))),
        ServeEventKind::Warning { position } => {
            fields.push(("kind", Value::String("warning".into())));
            fields.push(("position", position.serialize_value()));
        }
        ServeEventKind::Drift { position, classes } => {
            fields.push(("kind", Value::String("drift".into())));
            fields.push(("position", position.serialize_value()));
            fields.push(("classes", classes.serialize_value()));
        }
        ServeEventKind::Snapshot { position, snapshot } => {
            fields.push(("kind", Value::String("snapshot".into())));
            fields.push(("position", position.serialize_value()));
            fields.push(("snapshot", snapshot.serialize_value()));
        }
        ServeEventKind::Detached { result } => {
            fields.push(("kind", Value::String("detached".into())));
            fields.push(("result", result.serialize_value()));
        }
        ServeEventKind::Migrated { from_shard } => {
            fields.push(("kind", Value::String("migrated".into())));
            fields.push(("from_shard", from_shard.serialize_value()));
        }
        ServeEventKind::CheckpointSpilled { position, urgent } => {
            fields.push(("kind", Value::String("checkpoint_spilled".into())));
            fields.push(("position", position.serialize_value()));
            fields.push(("urgent", urgent.serialize_value()));
        }
        ServeEventKind::Hibernated { position, clean } => {
            fields.push(("kind", Value::String("hibernated".into())));
            fields.push(("position", position.serialize_value()));
            fields.push(("clean", clean.serialize_value()));
        }
        ServeEventKind::Rehydrated { position } => {
            fields.push(("kind", Value::String("rehydrated".into())));
            fields.push(("position", position.serialize_value()));
        }
    }
    Value::object(fields)
}

/// Inverse of [`event_to_value`].
pub fn event_from_value(value: &Value) -> Result<ServeEvent, WireError> {
    let stream: Arc<str> = Arc::from(value.field::<String>("stream")?.as_str());
    let shard = value.field::<usize>("shard")?;
    let kind = value.field::<String>("kind")?;
    let kind = match kind.as_str() {
        "attached" => ServeEventKind::Attached,
        "warning" => ServeEventKind::Warning { position: value.field("position")? },
        "drift" => ServeEventKind::Drift {
            position: value.field("position")?,
            classes: value.field("classes")?,
        },
        "snapshot" => ServeEventKind::Snapshot {
            position: value.field("position")?,
            snapshot: value.field("snapshot")?,
        },
        "detached" => ServeEventKind::Detached { result: value.field("result")? },
        "migrated" => ServeEventKind::Migrated { from_shard: value.field("from_shard")? },
        "checkpoint_spilled" => ServeEventKind::CheckpointSpilled {
            position: value.field("position")?,
            urgent: value.field("urgent")?,
        },
        "hibernated" => ServeEventKind::Hibernated {
            position: value.field("position")?,
            clean: value.field("clean")?,
        },
        "rehydrated" => ServeEventKind::Rehydrated { position: value.field("position")? },
        other => return Err(WireError::Malformed(format!("unknown event kind `{other}`"))),
    };
    Ok(ServeEvent { stream, shard, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbm_im_serve::ShardHealth;

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame);
        let mut cursor = &bytes[..];
        let back = read_frame(&mut cursor).expect("decode");
        assert!(cursor.is_empty(), "frame fully consumed");
        back
    }

    #[test]
    fn request_frames_round_trip() {
        let attach = Frame::Attach {
            stream: "feed-00".into(),
            schema: StreamSchema::new("feed-00", 10, 4),
            spec: "rbm(minibatch=25, seed=7)".into(),
            run: Some(RunConfig { detector_batch: 25, ..Default::default() }),
        };
        match roundtrip(&attach) {
            Frame::Attach { stream, schema, spec, run } => {
                assert_eq!(stream, "feed-00");
                assert_eq!(schema.num_features, 10);
                assert_eq!(spec, "rbm(minibatch=25, seed=7)");
                assert_eq!(run.unwrap().detector_batch, 25);
            }
            other => panic!("wrong frame: {other:?}"),
        }
        let ingest = Frame::Ingest {
            stream: "feed-00".into(),
            blocking: true,
            instances: vec![
                Instance::with_index(vec![0.25, -1.5, f64::NEG_INFINITY], 3, 41),
                Instance::with_index(vec![], 0, 42),
            ],
        };
        match roundtrip(&ingest) {
            Frame::Ingest { stream, blocking, instances } => {
                assert_eq!(stream, "feed-00");
                assert!(blocking);
                assert_eq!(instances.len(), 2);
                assert_eq!(instances[0].features, vec![0.25, -1.5, f64::NEG_INFINITY]);
                assert_eq!(instances[0].class, 3);
                assert_eq!(instances[0].index, 41);
                assert!(instances[1].features.is_empty());
            }
            other => panic!("wrong frame: {other:?}"),
        }
        assert!(matches!(roundtrip(&Frame::Drain), Frame::Drain));
        assert!(matches!(roundtrip(&Frame::Shutdown), Frame::Shutdown));
        assert!(matches!(roundtrip(&Frame::Subscribe), Frame::Subscribe));
        match roundtrip(&Frame::Detach { stream: "s".into() }) {
            Frame::Detach { stream } => assert_eq!(stream, "s"),
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn reply_frames_round_trip() {
        assert!(matches!(roundtrip(&Frame::Ack), Frame::Ack));
        assert!(matches!(roundtrip(&Frame::Busy { rejected: 300 }), Frame::Busy { rejected: 300 }));
        match roundtrip(&Frame::Error { code: ErrorCode::Serve, message: "no stream `x`".into() }) {
            Frame::Error { code, message } => {
                assert_eq!(code, ErrorCode::Serve);
                assert_eq!(message, "no stream `x`");
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn event_frames_round_trip() {
        use rbm_im_metrics::PrequentialSnapshot;
        let events = vec![
            ServeEvent { stream: Arc::from("s"), shard: 2, kind: ServeEventKind::Attached },
            ServeEvent {
                stream: Arc::from("s"),
                shard: 2,
                kind: ServeEventKind::Drift { position: 512, classes: vec![1, 3] },
            },
            ServeEvent {
                stream: Arc::from("s"),
                shard: 0,
                kind: ServeEventKind::Snapshot {
                    position: 1000,
                    snapshot: PrequentialSnapshot {
                        position: 1000,
                        pm_auc: 0.85,
                        pm_gmean: 0.5,
                        accuracy: 0.9,
                        kappa: 0.75,
                    },
                },
            },
            ServeEvent {
                stream: Arc::from("s"),
                shard: 1,
                kind: ServeEventKind::CheckpointSpilled { position: 4096, urgent: true },
            },
            ServeEvent {
                stream: Arc::from("s"),
                shard: 1,
                kind: ServeEventKind::Hibernated { position: 4096, clean: false },
            },
            ServeEvent {
                stream: Arc::from("s"),
                shard: 1,
                kind: ServeEventKind::Rehydrated { position: 4096 },
            },
        ];
        for event in events {
            let frame = Frame::Event(Box::new(event.clone()));
            match roundtrip(&frame) {
                Frame::Event(back) => {
                    assert_eq!(back.stream, event.stream);
                    assert_eq!(back.shard, event.shard);
                    assert_eq!(format!("{:?}", back.kind), format!("{:?}", event.kind));
                }
                other => panic!("wrong frame: {other:?}"),
            }
        }
    }

    #[test]
    fn metrics_frames_round_trip() {
        assert!(matches!(roundtrip(&Frame::Metrics), Frame::Metrics));
        assert!(matches!(roundtrip(&Frame::Health), Frame::Health));

        let registry = rbm_im_obs::MetricsRegistry::new();
        registry.counter("rbm_net_busy_total", &[]).add(7);
        registry.gauge("rbm_serve_queue_depth", &[("shard", "0")]).set(-3);
        let hist = registry.histogram("rbm_net_request_latency_seconds", &[("frame", "ingest")]);
        for v in [1u64, 900, 65_536, u64::MAX] {
            hist.record(v);
        }
        let snapshot = registry.snapshot();
        match roundtrip(&Frame::MetricsData(Box::new(snapshot.clone()))) {
            Frame::MetricsData(back) => {
                assert_eq!(back.counter_total("rbm_net_busy_total"), 7);
                let orig = snapshot.merged_histogram("rbm_net_request_latency_seconds");
                let dec = back.merged_histogram("rbm_net_request_latency_seconds");
                assert_eq!(dec.count(), orig.count());
                assert_eq!(dec.quantile(0.5), orig.quantile(0.5));
            }
            other => panic!("wrong frame: {other:?}"),
        }

        let health = HealthSnapshot {
            shards: vec![ShardHealth {
                shard: 0,
                streams: 2,
                hot_streams: 1,
                cold_streams: 1,
                queue_depth: 5,
                queued_instances: 120,
                processed_instances: 4096,
            }],
            streams: 2,
            hot_streams: 1,
            cold_streams: 1,
            ingest_p50_seconds: 0.000_25,
            ingest_p99_seconds: 0.004,
            rehydrate_p99_seconds: 0.000_8,
            last_spill_age_seconds: -1.0,
        };
        match roundtrip(&Frame::HealthData(Box::new(health))) {
            Frame::HealthData(back) => {
                assert_eq!(back.shards.len(), 1);
                assert_eq!(back.shards[0].queued_instances, 120);
                assert_eq!(back.shards[0].cold_streams, 1);
                assert_eq!(back.streams, 2);
                assert_eq!(back.hot_streams, 1);
                assert_eq!(back.cold_streams, 1);
                assert_eq!(back.ingest_p50_seconds, 0.000_25);
                assert_eq!(back.rehydrate_p99_seconds, 0.000_8);
                assert_eq!(back.last_spill_age_seconds, -1.0);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn json_bodies_are_malformed() {
        // Bodies decode as RBMC only: a JSON rendering of the very value an
        // attach frame carries is rejected, never parsed.
        let value = Value::object(vec![
            ("stream", Value::String("feed-00".into())),
            ("schema", StreamSchema::new("feed-00", 10, 4).serialize_value()),
            ("spec", Value::String("adwin(delta=0.01)".into())),
            ("run", None::<RunConfig>.serialize_value()),
        ]);
        let mut header = WIRE_MAGIC.to_vec();
        header.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        header.push(FT_ATTACH);
        let rbmc = [header.clone(), codec::encode(&value)].concat();
        assert!(matches!(decode_payload(&rbmc), Ok(Frame::Attach { .. })));
        let json = [header, serde_json::to_string(&value).unwrap().into_bytes()].concat();
        assert!(matches!(decode_payload(&json), Err(WireError::Malformed(_))));
    }

    #[test]
    fn framing_errors_are_classified() {
        // Clean EOF at a boundary.
        assert!(matches!(read_frame(&mut &[][..]), Err(WireError::Closed)));
        // EOF inside the prefix.
        assert!(matches!(read_frame(&mut &[1u8, 0][..]), Err(WireError::Io(_))));
        // Absurd length prefix.
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(read_frame(&mut &huge[..]), Err(WireError::TooLarge(_))));
        // Bad magic.
        let mut bytes = encode_frame(&Frame::Drain);
        bytes[4] = b'X';
        assert!(matches!(read_frame(&mut &bytes[..]), Err(WireError::Malformed(_))));
        // Future version: frame-scoped, distinguishable.
        let mut bytes = encode_frame(&Frame::Drain);
        bytes[8] = 0xFF;
        bytes[9] = 0x7F;
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::UnsupportedVersion { found: 0x7FFF })
        ));
        // Unknown frame type.
        let mut bytes = encode_frame(&Frame::Drain);
        bytes[10] = 0x6F;
        assert!(matches!(read_frame(&mut &bytes[..]), Err(WireError::UnknownFrameType(0x6F))));
        // Trailing garbage inside a well-framed payload.
        let mut bytes = encode_frame(&Frame::Drain);
        bytes.insert(11, 0xAA);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(read_frame(&mut &bytes[..]), Err(WireError::Malformed(_))));
    }
}
