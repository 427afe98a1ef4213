//! The blocking wire client: [`NetClient`] mirrors
//! [`ServerHandle`](rbm_im_serve::ServerHandle)'s control surface and
//! [`NetStreamClient`] mirrors [`StreamClient`](rbm_im_serve::StreamClient)'s
//! ingest surface — same method names, same [`IngestError`] backpressure
//! contract — so feeder code written against the in-process API runs
//! unchanged over loopback TCP.

use crate::wire::{self, ErrorCode, Frame, WireError};
use rbm_im_harness::pipeline::{RunConfig, RunResult};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_obs::MetricsSnapshot;
use rbm_im_serve::{HealthSnapshot, IngestError, ServeEvent, ServeReport, StreamCheckpoint};
use rbm_im_streams::{Instance, StreamSchema};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};

/// Errors of wire client operations.
#[derive(Debug)]
pub enum NetError {
    /// Transport I/O failed.
    Io(io::Error),
    /// A frame could not be decoded.
    Wire(WireError),
    /// The server replied with an error frame.
    Remote {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server replied with a frame the request does not expect.
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "wire client I/O error: {e}"),
            NetError::Wire(e) => write!(f, "wire client decode error: {e}"),
            NetError::Remote { code, message } => write!(f, "server error ({code}): {message}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => NetError::Io(e),
            other => NetError::Wire(other),
        }
    }
}

/// One framed request→reply connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(read_half), writer: BufWriter::new(stream) })
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        wire::write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(wire::read_frame(&mut self.reader)?)
    }
}

/// Maps a reply frame onto the "expected Ack" shape shared by several
/// requests; error frames become [`NetError::Remote`].
fn expect_ack(reply: Frame) -> Result<(), NetError> {
    match reply {
        Frame::Ack => Ok(()),
        Frame::Error { code, message } => Err(NetError::Remote { code, message }),
        other => Err(NetError::Protocol(format!("expected Ack, got {other:?}"))),
    }
}

/// Blocking TCP client of a [`NetServer`](crate::NetServer).
///
/// One `NetClient` holds one connection; requests on it are serialized
/// (strict request→reply). Parallel feeder threads should each hold their
/// own `NetClient` — connections are independent, and the determinism
/// suite pins that N connections produce bitwise-identical results to one.
pub struct NetClient {
    addr: SocketAddr,
    conn: Arc<Mutex<Conn>>,
}

impl NetClient {
    /// Connects to a wire front-end.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let conn = Conn::open(addr)?;
        Ok(NetClient { addr, conn: Arc::new(Mutex::new(conn)) })
    }

    /// The server address this client talks to.
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    fn request(&self, frame: &Frame) -> Result<Frame, NetError> {
        self.conn.lock().expect("connection lock poisoned").request(frame)
    }

    /// Attaches a stream under the server's default per-stream run config
    /// and returns its ingest client. The spec travels as its full label
    /// string and is parsed against the *server's* registry.
    pub fn attach(
        &self,
        stream_id: &str,
        schema: StreamSchema,
        spec: &DetectorSpec,
    ) -> Result<NetStreamClient, NetError> {
        self.attach_inner(stream_id, schema, spec, None)
    }

    /// [`NetClient::attach`] with a per-stream [`RunConfig`] override.
    pub fn attach_with(
        &self,
        stream_id: &str,
        schema: StreamSchema,
        spec: &DetectorSpec,
        run: RunConfig,
    ) -> Result<NetStreamClient, NetError> {
        self.attach_inner(stream_id, schema, spec, Some(run))
    }

    fn attach_inner(
        &self,
        stream_id: &str,
        schema: StreamSchema,
        spec: &DetectorSpec,
        run: Option<RunConfig>,
    ) -> Result<NetStreamClient, NetError> {
        let frame =
            Frame::Attach { stream: stream_id.to_string(), schema, spec: spec.label(), run };
        expect_ack(self.request(&frame)?)?;
        Ok(self.client(stream_id))
    }

    /// An ingest client for an already-attached stream id (no round trip).
    pub fn client(&self, stream_id: &str) -> NetStreamClient {
        NetStreamClient { id: Arc::from(stream_id), conn: Arc::clone(&self.conn) }
    }

    /// Detaches a stream and returns its final summary.
    pub fn detach(&self, stream_id: &str) -> Result<RunResult, NetError> {
        match self.request(&Frame::Detach { stream: stream_id.to_string() })? {
            Frame::Result(result) => Ok(*result),
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!("expected Result, got {other:?}"))),
        }
    }

    /// Barrier: returns once everything ingested before this call — on
    /// *any* connection — is fully processed.
    pub fn drain(&self) -> Result<(), NetError> {
        expect_ack(self.request(&Frame::Drain)?)
    }

    /// Fetches a point-in-time snapshot of the server's metrics registry
    /// (counters, gauges, latency histograms) over the wire.
    pub fn metrics(&self) -> Result<MetricsSnapshot, NetError> {
        match self.request(&Frame::Metrics)? {
            Frame::MetricsData(snapshot) => Ok(*snapshot),
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!("expected MetricsData, got {other:?}"))),
        }
    }

    /// Fetches the server's liveness/health summary: per-shard queue
    /// depths and stream counts, ingest latency quantiles, and the age of
    /// the last checkpoint spill.
    pub fn health(&self) -> Result<HealthSnapshot, NetError> {
        match self.request(&Frame::Health)? {
            Frame::HealthData(health) => Ok(*health),
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!("expected HealthData, got {other:?}"))),
        }
    }

    /// Captures a non-destructive checkpoint of one attached stream.
    pub fn checkpoint_stream(&self, stream_id: &str) -> Result<StreamCheckpoint, NetError> {
        match self.request(&Frame::Checkpoint { stream: stream_id.to_string() })? {
            Frame::CheckpointData(checkpoint) => Ok(*checkpoint),
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!("expected CheckpointData, got {other:?}"))),
        }
    }

    /// Gracefully shuts the serving plane down and returns the final
    /// report (wire-level drops included in
    /// [`ServeReport::frames_dropped`]).
    pub fn shutdown(self) -> Result<ServeReport, NetError> {
        match self.request(&Frame::Shutdown)? {
            Frame::Report(report) => Ok(*report),
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!("expected Report, got {other:?}"))),
        }
    }

    /// Subscribes to the server's drift-event bus over a dedicated
    /// connection: a pump thread decodes pushed event frames into the
    /// returned channel until the server shuts down (or the connection
    /// drops), after which the receiver sees end-of-stream — the same
    /// termination contract as the in-process
    /// [`ServerHandle::subscribe`](rbm_im_serve::ServerHandle::subscribe).
    pub fn subscribe(&self) -> Result<Receiver<ServeEvent>, NetError> {
        let mut conn = Conn::open(self.addr)?;
        expect_ack(conn.request(&Frame::Subscribe)?)?;
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            // Pump until a non-event frame, a wire error (server closed
            // the stream), or the receiver being dropped.
            while let Ok(Frame::Event(event)) = wire::read_frame(&mut conn.reader) {
                if tx.send(*event).is_err() {
                    break;
                }
            }
        });
        Ok(rx)
    }
}

impl fmt::Debug for NetClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetClient").field("addr", &self.addr).finish()
    }
}

/// Per-stream ingest handle over the wire — the [`StreamClient`]
/// (rbm_im_serve) surface: blocking `ingest_batch` and fail-fast
/// `try_ingest_batch` returning the rejected instances inside
/// [`IngestError`].
///
/// [`StreamClient`]: rbm_im_serve::StreamClient
pub struct NetStreamClient {
    id: Arc<str>,
    conn: Arc<Mutex<Conn>>,
}

impl NetStreamClient {
    /// The stream id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Sends one ingest frame and maps the reply onto the in-process
    /// ingest contract. The batch rides back out of the frame on failure
    /// so callers keep ownership of rejected instances without a copy.
    fn ingest_frame(&self, blocking: bool, instances: Vec<Instance>) -> Result<(), IngestError> {
        let frame = Frame::Ingest { stream: self.id.to_string(), blocking, instances };
        let reclaim = |frame: Frame| -> Vec<Instance> {
            match frame {
                Frame::Ingest { instances, .. } => instances,
                _ => unreachable!("reclaim is only called on the frame built above"),
            }
        };
        let reply = self.conn.lock().expect("connection lock poisoned").request(&frame);
        match reply {
            Ok(Frame::Ack) => Ok(()),
            Ok(Frame::Busy { .. }) => Err(IngestError::Full(reclaim(frame))),
            // Remote serve errors, protocol surprises and transport
            // failures all mean "this shard is not reachable anymore" to
            // an ingest caller.
            Ok(_) | Err(_) => Err(IngestError::Closed(reclaim(frame))),
        }
    }

    /// Non-blocking micro-batch ingest (all-or-nothing, like the
    /// in-process client); [`IngestError::Full`] carries the rejected
    /// batch back on backpressure.
    pub fn try_ingest_batch(&self, instances: Vec<Instance>) -> Result<(), IngestError> {
        if instances.is_empty() {
            return Ok(());
        }
        self.ingest_frame(false, instances)
    }

    /// Blocking micro-batch ingest (waits at the shard's pace).
    pub fn ingest_batch(&self, instances: Vec<Instance>) -> Result<(), IngestError> {
        if instances.is_empty() {
            return Ok(());
        }
        self.ingest_frame(true, instances)
    }
}

impl fmt::Debug for NetStreamClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetStreamClient").field("id", &self.id).finish()
    }
}
