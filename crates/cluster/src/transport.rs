//! Framed request/response transport between coordinator and shard
//! servers.
//!
//! The protocol is strictly client-driven (the coordinator sends, the
//! shard answers), so the transport surface is a two-phase pair:
//! [`Conn::send`] writes a request frame, [`Conn::recv`] waits for its
//! answer under a deadline — with [`Conn::call`] as the composed
//! round trip. The split is what makes the coordinator's **pipelined
//! range fan-out** possible: it issues the query to every range's
//! connection first (all `send`s), then collects the answers in fixed
//! range order (all `recv`s), so the per-range round trips overlap on
//! the wire instead of being paid as a sum. Two implementations exist:
//!
//! * [`TcpConnector`]/`TcpConn` over `std::net::TcpStream` (loopback or
//!   real network) — the production shape;
//! * the in-process simulated transport in [`crate::sim`], which shares
//!   the exact frame codec but routes through a deterministic
//!   fault-injection layer.
//!
//! Any transport error poisons the connection: the coordinator drops the
//! `Conn` and re-dials rather than attempting to resynchronize a torn
//! byte stream. A `send` with an unconsumed reply still in flight is a
//! caller bug and answers [`WireError::Frame`].

use crate::protocol::{Frame, FrameError, FrameReader};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Transport/protocol failure as seen by the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The deadline elapsed before a full answer arrived.
    Timeout,
    /// The peer is gone (connection refused, reset, or closed mid-frame).
    Closed(String),
    /// The peer answered bytes that do not parse as a protocol frame.
    Frame(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Timeout => f.write_str("deadline elapsed"),
            WireError::Closed(d) => write!(f, "connection closed: {d}"),
            WireError::Frame(d) => write!(f, "bad frame: {d}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e.to_string())
    }
}

/// One established connection to a shard server.
///
/// The protocol admits exactly one outstanding request per connection:
/// after a successful [`Self::send`] the caller must [`Self::recv`] (or
/// drop the connection) before sending again.
pub trait Conn: Send {
    /// Writes `frame` without waiting for the answer. `deadline` bounds
    /// the write itself (a full socket buffer blocking this long means
    /// the peer is effectively gone).
    fn send(&mut self, frame: &Frame, deadline: Duration) -> Result<(), WireError>;

    /// Waits for the answer to the last [`Self::send`], failing if the
    /// full frame does not arrive within `deadline`.
    fn recv(&mut self, deadline: Duration) -> Result<Frame, WireError>;

    /// Sends `frame` and waits for the single answer frame, failing if the
    /// full round trip exceeds `deadline`. Any error leaves the connection
    /// unusable (the caller must re-dial).
    fn call(&mut self, frame: &Frame, deadline: Duration) -> Result<Frame, WireError> {
        self.send(frame, deadline)?;
        self.recv(deadline)
    }
}

/// A dialer producing fresh connections to one shard server.
pub trait Connector: Send {
    /// Establishes a new connection.
    fn connect(&mut self) -> Result<Box<dyn Conn>, WireError>;

    /// Stable human-readable endpoint label (used in health reports and
    /// event traces).
    fn label(&self) -> String;
}

/// TCP connection wrapper: length-framed blocking I/O with per-call
/// deadlines mapped onto socket timeouts.
///
/// Two syscall economies matter at advisor frame sizes (a query round
/// trip is ~100 bytes against a ~5µs loopback RTT floor):
///
/// * **Buffered reads** — the answer's header and payload almost always
///   arrive in one segment, so [`Conn::recv`] hands each `read` to the
///   protocol's frame reader and takes the frame out of it: one `read` per answer
///   instead of one per header plus one per payload.
/// * **Cached timeouts** — `setsockopt` costs as much as a small `read`;
///   since callers pass the same configured deadline on every call, the
///   socket timeouts are set once and only re-set when the requested
///   deadline changes. The elapsed-time check still uses the true
///   per-call deadline; a single blocking read can overrun it by at most
///   one deadline's worth before the check fails the call.
pub struct TcpConn {
    stream: TcpStream,
    frames: FrameReader,
    /// What one `read` lands in before the frame reader takes it; zeroed
    /// once per connection, not once per `read`.
    chunk: Box<[u8]>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl TcpConn {
    /// Wraps an accepted or dialed stream.
    pub fn new(stream: TcpStream) -> Self {
        TcpConn {
            stream,
            frames: FrameReader::default(),
            chunk: vec![0u8; 16 * 1024].into_boxed_slice(),
            read_timeout: None,
            write_timeout: None,
        }
    }

    /// One `read` syscall handed to the frame reader, honoring `end`.
    fn fill(&mut self, end: Instant, deadline: Duration) -> Result<(), WireError> {
        if self.read_timeout != Some(deadline) {
            self.stream
                .set_read_timeout(Some(deadline))
                .map_err(|e| WireError::Closed(e.to_string()))?;
            self.read_timeout = Some(deadline);
        }
        loop {
            if Instant::now() >= end {
                return Err(WireError::Timeout);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(WireError::Closed("peer closed mid-frame".into())),
                Ok(n) => {
                    self.frames.extend(&self.chunk[..n]);
                    return Ok(());
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(WireError::Timeout)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Closed(e.to_string())),
            }
        }
    }
}

impl Conn for TcpConn {
    fn send(&mut self, frame: &Frame, deadline: Duration) -> Result<(), WireError> {
        if self.write_timeout != Some(deadline) {
            self.stream
                .set_write_timeout(Some(deadline))
                .map_err(|e| WireError::Closed(e.to_string()))?;
            self.write_timeout = Some(deadline);
        }
        self.stream
            .write_all(&frame.to_bytes())
            .map_err(|e| WireError::Closed(e.to_string()))
    }

    fn recv(&mut self, deadline: Duration) -> Result<Frame, WireError> {
        let end = Instant::now() + deadline;
        loop {
            if let Some(frame) = self.frames.next_frame()? {
                return Ok(frame);
            }
            self.fill(end, deadline)?;
        }
    }
}

/// Dialer for one shard-server address.
pub struct TcpConnector {
    addr: SocketAddr,
    connect_timeout: Duration,
}

impl TcpConnector {
    /// A connector dialing `addr` with the given connect timeout.
    pub fn new(addr: SocketAddr, connect_timeout: Duration) -> Self {
        TcpConnector {
            addr,
            connect_timeout,
        }
    }
}

impl Connector for TcpConnector {
    fn connect(&mut self) -> Result<Box<dyn Conn>, WireError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)
            .map_err(|e| WireError::Closed(format!("dial {}: {e}", self.addr)))?;
        // The advisor exchanges small latency-sensitive frames.
        let _ = stream.set_nodelay(true);
        Ok(Box::new(TcpConn::new(stream)))
    }

    fn label(&self) -> String {
        self.addr.to_string()
    }
}
