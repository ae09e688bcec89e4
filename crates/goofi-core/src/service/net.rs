//! The network fault plane of the campaign service: framing, transports,
//! and seeded fault injection — the [`crate::vfs`] pattern one layer up.
//!
//! Every byte the service moves — client requests, daemon responses,
//! shard-worker events on stdout — crosses this module as a *frame*:
//!
//! ```text
//! GF1 <payload-len> <fnv1a-of-payload-hex>\n<payload>\n
//! ```
//!
//! The length prefix bounds what a receiver buffers ([`MAX_FRAME`]), the
//! checksum catches bit corruption, and the magic gives [`FrameReader`] a
//! resynchronisation point: a malformed, truncated or garbled frame is
//! reported as [`FrameRead::Malformed`] and the reader scans forward to
//! the next `GF1 ` line start — one bad frame never desyncs the stream.
//!
//! Above framing sit three seams:
//!
//! - [`Conn`]: one bidirectional frame channel (send / recv / timeouts);
//! - [`Listener`]: a polling acceptor producing [`Conn`]s;
//! - [`Transport`]: dials and binds — [`RealNet`] over TCP in
//!   production, [`FaultNet`] in the torture harness.
//!
//! [`FaultNet`] wraps real TCP but counts every network operation
//! (connect, accept, frame send) through one shared [`FaultInjector`] and
//! perturbs the N-th op — or a seeded fraction of all ops — with one of
//! [`NetFaultKind`]: dropped, duplicated, reordered, delayed, truncated
//! or bit-corrupted frames, mid-frame connection resets, half-open peers
//! that swallow writes forever, and accept-time partitions. The same
//! injector slots into a worker's stdout via [`FaultWriter`], so one
//! `--net-chaos` spec perturbs every hop of a job. Faults are seeded and
//! replayable; the op that a given schedule hits depends on thread
//! interleaving, but the *schedule itself* is a pure function of the
//! seed, which is what the torture harness sweeps.

use goofidb::codec::fnv1a;
use scanchain::plan::{self, mix, Kind};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Protocol version this build speaks (negotiated down on connect).
pub const PROTO_VERSION: u64 = 2;
/// Oldest protocol version this build still accepts.
pub const MIN_PROTO_VERSION: u64 = 2;

/// Hard cap on a frame's payload size. Service frames are one-line JSON
/// objects orders of magnitude smaller; anything larger is a garbage or
/// hostile peer and is rejected before it can balloon a receive buffer.
pub const MAX_FRAME: usize = 64 * 1024;

/// Longest accepted frame header line (`GF1 <len> <crc>`), newline
/// exclusive. Generously above the worst legitimate header.
const MAX_HEADER: usize = 64;

/// Encodes one payload as a wire frame: header line, payload, newline.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() + 32);
    out.extend_from_slice(format!("GF1 {} {:08x}\n", bytes.len(), fnv1a(bytes)).as_bytes());
    out.extend_from_slice(bytes);
    out.push(b'\n');
    out
}

/// One attempt to read a frame from a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete, checksum-verified payload.
    Frame(String),
    /// A damaged frame was skipped; the reader has resynchronised on the
    /// next plausible frame boundary. The string says what was wrong.
    Malformed(String),
    /// Clean end of stream.
    Eof,
}

/// Incremental frame decoder over any byte stream. Total: garbage in
/// yields [`FrameRead::Malformed`] plus resynchronisation, never a panic
/// or an unbounded buffer (worst case ≈ header + [`MAX_FRAME`]).
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
        }
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.inner.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Reads the next frame, skipping damage.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors (including read timeouts) propagate; damaged
    /// bytes do not — they come back as [`FrameRead::Malformed`].
    pub fn read_frame(&mut self) -> io::Result<FrameRead> {
        loop {
            let newline = self.buf.iter().position(|&b| b == b'\n');
            match newline {
                Some(nl) if nl <= MAX_HEADER => {
                    return self.read_body(nl);
                }
                Some(_) => {
                    self.resync_after_line();
                    return Ok(FrameRead::Malformed("oversized frame header".into()));
                }
                None if self.buf.len() > MAX_HEADER => {
                    // Too long to be a header already; drop at least one
                    // byte so a pathological `GF1 …`-prefixed blob cannot
                    // pin the buffer in place, then rescan.
                    self.buf.drain(..1);
                    self.resync();
                    return Ok(FrameRead::Malformed(
                        "frame header missing its newline".into(),
                    ));
                }
                None => {
                    if self.fill()? == 0 {
                        if self.buf.is_empty() {
                            return Ok(FrameRead::Eof);
                        }
                        self.buf.clear();
                        return Ok(FrameRead::Malformed("torn frame tail at EOF".into()));
                    }
                }
            }
        }
    }

    /// Parses and validates the frame whose header line ends at `nl`.
    fn read_body(&mut self, nl: usize) -> io::Result<FrameRead> {
        let Some((len, crc)) = parse_header(&self.buf[..nl]) else {
            self.resync_after_line();
            return Ok(FrameRead::Malformed("malformed frame header".into()));
        };
        if len > MAX_FRAME {
            self.resync_after_line();
            return Ok(FrameRead::Malformed(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        let need = nl + 1 + len + 1;
        while self.buf.len() < need {
            if self.fill()? == 0 {
                // The declared length outruns the stream; whatever did
                // arrive may still hold complete later frames, so rescan
                // instead of discarding.
                self.buf.drain(..nl + 1);
                self.resync();
                return Ok(FrameRead::Malformed("frame truncated by EOF".into()));
            }
        }
        let payload = &self.buf[nl + 1..need - 1];
        if self.buf[need - 1] != b'\n' || fnv1a(payload) != crc {
            let detail = if self.buf[need - 1] != b'\n' {
                "unterminated frame (truncated?)"
            } else {
                "frame checksum mismatch"
            };
            // The declared length may have swallowed the next frame's
            // header, so drop only the bad header line and rescan the
            // rest for the next `GF1 ` boundary.
            self.buf.drain(..nl + 1);
            self.resync();
            return Ok(FrameRead::Malformed(detail.into()));
        }
        let payload = payload.to_vec();
        self.buf.drain(..need);
        match String::from_utf8(payload) {
            Ok(s) => Ok(FrameRead::Frame(s)),
            Err(_) => Ok(FrameRead::Malformed("frame payload is not UTF-8".into())),
        }
    }

    /// Abandons the damaged line at the buffer head: jumps to a frame
    /// magic embedded inside it (a torn header glued onto the next
    /// frame's header, say), or failing that drops the line wholesale —
    /// one damage report per damaged line, not one per byte.
    fn resync_after_line(&mut self) {
        const MAGIC: &[u8] = b"GF1 ";
        let line_end = self
            .buf
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.buf.len(), |nl| nl + 1);
        for i in 1..line_end.saturating_sub(MAGIC.len() - 1) {
            if self.buf[i..].starts_with(MAGIC) {
                self.buf.drain(..i);
                return;
            }
        }
        self.buf.drain(..line_end);
        self.resync();
    }

    /// Skips buffered bytes up to the next plausible frame start: the
    /// next `GF1 ` magic anywhere in the buffer — a frame glued directly
    /// after torn payload bytes has no newline before it, and the
    /// checksum rejects payload bytes that merely look like a header.
    /// Keeps a short tail that could be a prefix of the magic split
    /// across reads.
    fn resync(&mut self) {
        const MAGIC: &[u8] = b"GF1 ";
        if self.buf.starts_with(MAGIC) {
            return;
        }
        let mut boundary = None;
        for i in 1..self.buf.len().saturating_sub(MAGIC.len() - 1) {
            if self.buf[i..].starts_with(MAGIC) {
                boundary = Some(i);
                break;
            }
        }
        match boundary {
            Some(at) => {
                self.buf.drain(..at);
            }
            None => {
                let keep = self.buf.len().min(MAGIC.len());
                self.buf.drain(..self.buf.len() - keep);
            }
        }
    }
}

/// Parses `GF1 <len> <8-hex-crc>`.
fn parse_header(line: &[u8]) -> Option<(usize, u32)> {
    let text = std::str::from_utf8(line).ok()?;
    let rest = text.strip_prefix("GF1 ")?;
    let (len, crc) = rest.split_once(' ')?;
    if crc.len() != 8 {
        return None;
    }
    Some((len.parse().ok()?, u32::from_str_radix(crc, 16).ok()?))
}

/// One established frame channel.
pub trait Conn: Send {
    /// Sends one frame.
    fn send(&mut self, payload: &str) -> io::Result<()>;
    /// Sends raw bytes verbatim, bypassing framing — the hook tests use
    /// to speak garbage at a server.
    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Reads the next frame (or damage report, or EOF).
    fn recv(&mut self) -> io::Result<FrameRead>;
    /// Bounds how long [`Conn::recv`] may block — the heartbeat deadline
    /// that turns a half-open peer into a clean timeout.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
    /// Peer address, for error messages.
    fn peer(&self) -> String;
}

/// A polling acceptor. `Ok(None)` means no connection is waiting (the
/// daemon's accept loop sleeps briefly and re-polls, so a `stop` flag is
/// always honoured).
pub trait Listener: Send {
    /// Polls for one pending connection.
    ///
    /// # Errors
    ///
    /// Fatal listener errors; transient per-connection failures surface
    /// as `Ok(None)`.
    fn accept(&self) -> io::Result<Option<Box<dyn Conn>>>;
    /// The bound address, e.g. `127.0.0.1:4711`.
    ///
    /// # Errors
    ///
    /// Socket introspection errors.
    fn local_addr(&self) -> io::Result<String>;
}

/// Dials and binds frame channels. Object-safe so the daemon, the client
/// and the harness all take `&dyn Transport`.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Connects to `addr` within `timeout`.
    ///
    /// # Errors
    ///
    /// Resolution and connection errors.
    fn connect(&self, addr: &str, timeout: Duration) -> io::Result<Box<dyn Conn>>;
    /// Binds a listener on `addr` (port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Bind errors.
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>>;
}

/// Resolves `addr` and opens a TCP connection within `timeout`.
fn tcp_connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let sockets: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let mut last = io::Error::new(io::ErrorKind::NotFound, format!("no addresses for {addr}"));
    for socket in sockets {
        match TcpStream::connect_timeout(&socket, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// The production transport: plain TCP, no perturbation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealNet;

impl Transport for RealNet {
    fn connect(&self, addr: &str, timeout: Duration) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(NetConn::new(tcp_connect(addr, timeout)?, None)?))
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(NetListener {
            inner: bind(addr)?,
            injector: None,
        }))
    }
}

fn bind(addr: &str) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// A TCP [`Conn`], optionally perturbed by a [`FaultInjector`] on the
/// send side. Both [`RealNet`] and [`FaultNet`] produce these.
struct NetConn {
    writer: FaultWriter<TcpStream>,
    reader: FrameReader<TcpStream>,
    stream: TcpStream,
    peer: String,
}

impl NetConn {
    fn new(stream: TcpStream, injector: Option<FaultInjector>) -> io::Result<NetConn> {
        let _ = stream.set_nodelay(true);
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string());
        let reader = FrameReader::new(stream.try_clone()?);
        let writer_stream = stream.try_clone()?;
        Ok(NetConn {
            writer: FaultWriter::new(writer_stream, injector),
            reader,
            stream,
            peer,
        })
    }
}

impl Conn for NetConn {
    fn send(&mut self, payload: &str) -> io::Result<()> {
        self.writer.send_frame(&encode_frame(payload))
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.send_frame(bytes)
    }

    fn recv(&mut self) -> io::Result<FrameRead> {
        self.reader.read_frame()
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        // Socket options live on the shared file description, so setting
        // them through any clone affects the reader's handle too.
        self.stream.set_read_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

struct NetListener {
    inner: TcpListener,
    injector: Option<FaultInjector>,
}

impl Listener for NetListener {
    fn accept(&self) -> io::Result<Option<Box<dyn Conn>>> {
        let (stream, _addr) = match self.inner.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) => return Err(e),
        };
        if let Some(injector) = &self.injector {
            if injector.partitioned_accept() {
                // Accept-time partition: the TCP handshake succeeded but
                // the daemon is unreachable — close without a byte, like
                // a dropped link behind a SYN proxy.
                let _ = stream.shutdown(Shutdown::Both);
                return Ok(None);
            }
        }
        match NetConn::new(stream, self.injector.clone()) {
            Ok(conn) => Ok(Some(Box::new(conn))),
            Err(_) => Ok(None),
        }
    }

    fn local_addr(&self) -> io::Result<String> {
        self.inner.local_addr().map(|a| a.to_string())
    }
}

/// What a [`NetFaultConfig`] does to its chosen network operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Swallow the frame; the sender believes it was delivered.
    Drop,
    /// Deliver the frame twice.
    Dup,
    /// Hold the frame back and deliver it after the next one.
    Reorder,
    /// Deliver the frame after a fixed delay.
    Delay,
    /// Deliver a seeded prefix of the frame, then continue normally.
    Truncate,
    /// Flip one seeded bit in the frame.
    Corrupt,
    /// Deliver a partial frame, then hard-close the connection.
    Reset,
    /// Go half-open: from here on, every write on this channel vanishes
    /// silently. The peer's heartbeat deadline must notice.
    HalfOpen,
    /// Accept-time partition: the next few inbound connections are
    /// accepted and immediately severed.
    Partition,
}

impl NetFaultKind {
    /// All kinds, in codec order.
    pub const ALL: [NetFaultKind; 9] = [
        NetFaultKind::Drop,
        NetFaultKind::Dup,
        NetFaultKind::Reorder,
        NetFaultKind::Delay,
        NetFaultKind::Truncate,
        NetFaultKind::Corrupt,
        NetFaultKind::Reset,
        NetFaultKind::HalfOpen,
        NetFaultKind::Partition,
    ];

    /// Codec keyword (`drop`, `dup`, …).
    pub fn encode(self) -> &'static str {
        self.key()
    }

    /// Which operation class this fault can strike.
    fn applies_to(self, class: OpClass) -> bool {
        match self {
            NetFaultKind::Partition => class == OpClass::Accept,
            _ => class == OpClass::Send,
        }
    }
}

impl Kind for NetFaultKind {
    const KEYS: &'static [(NetFaultKind, &'static str)] = &[
        (NetFaultKind::Drop, "drop"),
        (NetFaultKind::Dup, "dup"),
        (NetFaultKind::Reorder, "reorder"),
        (NetFaultKind::Delay, "delay"),
        (NetFaultKind::Truncate, "truncate"),
        (NetFaultKind::Corrupt, "corrupt"),
        (NetFaultKind::Reset, "reset"),
        (NetFaultKind::HalfOpen, "half-open"),
        (NetFaultKind::Partition, "partition"),
    ];
}

/// The class of a counted network operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// An outbound connection attempt.
    Connect,
    /// An inbound connection accepted.
    Accept,
    /// One frame handed to a send path.
    Send,
}

/// A seeded network fault plan, in one of two modes:
///
/// - **Deterministic** (`at=N,kind=K,seed=S`): arm at the N-th network op
///   and fire once, at the first op the kind applies to — the torture
///   harness walks `at` over a campaign's whole op count, the
///   [`crate::vfs::FaultPlan`] discipline applied to the wire.
/// - **Rate** (`drop=0.05,corrupt=0.01,seed=S[,delay-ms=M]`): every send
///   op rolls a seeded die per listed kind; `goofi serve --net-chaos`
///   uses this for standing chaos drills. Rates are stored as integer
///   parts-per-million so configs compare and roundtrip exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaultConfig {
    /// Seed for every perturbation decision.
    pub seed: u64,
    /// Deterministic mode: arm at this op count (0 = rate mode;
    /// `u64::MAX` = counting mode, never fires).
    pub at: u64,
    /// Deterministic mode: what to do.
    pub kind: Option<NetFaultKind>,
    /// Rate mode: `(kind, parts-per-million)` dice, rolled in order.
    pub rates: Vec<(NetFaultKind, u32)>,
    /// How long a [`NetFaultKind::Delay`] holds its frame.
    pub delay_ms: u64,
}

impl NetFaultConfig {
    /// The deterministic single-fault plan `at=N,kind=K,seed=S`.
    pub fn plan(at: u64, kind: NetFaultKind, seed: u64) -> NetFaultConfig {
        NetFaultConfig {
            seed,
            at,
            kind: Some(kind),
            rates: Vec::new(),
            delay_ms: 25,
        }
    }

    /// A plan that never fires — used to count a run's network ops.
    pub fn counting() -> NetFaultConfig {
        NetFaultConfig::plan(u64::MAX, NetFaultKind::Drop, 0)
    }

    /// Encodes to the [`plan`] spec accepted by [`NetFaultConfig::decode`].
    pub fn encode(&self) -> String {
        let mut spec = String::new();
        if self.at > 0 {
            plan::push(&mut spec, "at", self.at);
            plan::push(
                &mut spec,
                "kind",
                self.kind.map_or("none", NetFaultKind::encode),
            );
        } else {
            for &(kind, ppm) in &self.rates {
                plan::push(&mut spec, kind.encode(), f64::from(ppm) / 1_000_000.0);
            }
        }
        plan::push(&mut spec, "seed", self.seed);
        if self.delay_ms != 25 {
            plan::push(&mut spec, "delay-ms", self.delay_ms);
        }
        spec
    }

    /// Parses `at=N,kind=K,seed=S` or `drop=0.05,…,seed=S[,delay-ms=M]`.
    /// Returns `None` on a spec the grammar rejects, a malformed value, or
    /// a plan that mixes the two modes.
    pub fn decode(spec: &str) -> Option<NetFaultConfig> {
        plan::read(spec, |spec| {
            let config = NetFaultConfig {
                seed: spec.num("seed")?.unwrap_or(0),
                at: spec.num("at")?.unwrap_or(0),
                kind: spec.value("kind", NetFaultKind::from_key)?,
                rates: spec
                    .rates::<NetFaultKind>()?
                    .into_iter()
                    .map(|(kind, rate)| (kind, (rate * 1_000_000.0).round() as u32))
                    .collect(),
                delay_ms: spec.num("delay-ms")?.unwrap_or(25),
            };
            // One strike (`at` and `kind`) or a set of rates, never both.
            let strike = config.at > 0;
            (strike == config.kind.is_some() && strike == config.rates.is_empty()).then_some(config)
        })
    }
}

struct InjectorState {
    ops: u64,
    /// Deterministic mode: armed and waiting for an applicable op.
    armed: bool,
    fired: bool,
    /// Remaining accepts to sever after a partition fired.
    partition_left: u32,
}

/// Counts network operations across every channel of a [`FaultNet`] and
/// decides which op a fault strikes. Cloning shares the counter, so one
/// injector can cover a daemon, its clients, and its workers at once.
#[derive(Clone)]
pub struct FaultInjector {
    cfg: Arc<NetFaultConfig>,
    state: Arc<parking_lot::Mutex<InjectorState>>,
}

impl FaultInjector {
    /// A fresh injector over `cfg`, op counter at zero.
    pub fn new(cfg: NetFaultConfig) -> FaultInjector {
        FaultInjector {
            cfg: Arc::new(cfg),
            state: Arc::new(parking_lot::Mutex::new(InjectorState {
                ops: 0,
                armed: false,
                fired: false,
                partition_left: 0,
            })),
        }
    }

    /// Network operations counted so far (counting mode reads this after
    /// a fault-free run to learn the walk range).
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Whether the deterministic fault has fired.
    pub fn fired(&self) -> bool {
        self.state.lock().fired
    }

    /// Counts one op of `class` and returns the fault striking it, if
    /// any. In deterministic mode the plan arms at op `at` and fires at
    /// the first op its kind applies to, so a `partition` plan armed on a
    /// send op still strikes the next accept.
    pub fn decide(&self, class: OpClass) -> Option<NetFaultKind> {
        let mut state = self.state.lock();
        state.ops += 1;
        let op = state.ops;
        if self.cfg.at > 0 {
            let kind = self.cfg.kind?;
            if state.fired {
                return None;
            }
            if op >= self.cfg.at {
                state.armed = true;
            }
            if state.armed && kind.applies_to(class) {
                state.fired = true;
                state.armed = false;
                if kind == NetFaultKind::Partition {
                    state.partition_left = (mix(self.cfg.seed, op, 11) % 3) as u32;
                }
                return Some(kind);
            }
            return None;
        }
        for (index, (kind, ppm)) in self.cfg.rates.iter().enumerate() {
            if !kind.applies_to(class) {
                continue;
            }
            if mix(self.cfg.seed, op, index as u64) % 1_000_000 < u64::from(*ppm) {
                if *kind == NetFaultKind::Partition {
                    state.partition_left = (mix(self.cfg.seed, op, 11) % 3) as u32;
                }
                return Some(*kind);
            }
        }
        None
    }

    /// Accept-path check: counts the accept op and says whether this
    /// connection is severed by a partition (either the partition fault
    /// striking now, or the tail of one that just fired).
    fn partitioned_accept(&self) -> bool {
        if self.decide(OpClass::Accept) == Some(NetFaultKind::Partition) {
            return true;
        }
        let mut state = self.state.lock();
        if state.partition_left > 0 {
            state.partition_left -= 1;
            return true;
        }
        false
    }

    /// Counts a connect op (no fault kinds strike connects directly; the
    /// op still advances the deterministic walk).
    fn note_connect(&self) {
        let _ = self.decide(OpClass::Connect);
    }
}

/// Where [`FaultWriter`] writes frames, with an optional hard-close hook
/// for [`NetFaultKind::Reset`].
pub trait FrameSink: Send {
    /// Writes and flushes `bytes`.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    fn write_frame_bytes(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Abruptly closes the channel, where the medium supports it.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    fn reset(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl FrameSink for TcpStream {
    fn write_frame_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)?;
        self.flush()
    }

    fn reset(&mut self) -> io::Result<()> {
        self.shutdown(Shutdown::Both)
    }
}

impl FrameSink for Box<dyn Write + Send> {
    fn write_frame_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)?;
        self.flush()
    }
}

/// Lifecycle of a perturbed send channel.
enum SendState {
    Healthy,
    /// Every further write is silently swallowed.
    HalfOpen,
    /// The channel was hard-closed; further writes error.
    Reset,
}

/// A frame writer that optionally routes every send through a
/// [`FaultInjector`]. With no injector it is a plain write-and-flush —
/// the production path pays one `Option` check.
pub struct FaultWriter<S: FrameSink> {
    sink: S,
    injector: Option<FaultInjector>,
    /// A reordered frame waiting to follow its successor out.
    pending: Option<Vec<u8>>,
    state: SendState,
}

impl<S: FrameSink> FaultWriter<S> {
    /// Wraps `sink`; `injector` of `None` means no perturbation.
    pub fn new(sink: S, injector: Option<FaultInjector>) -> FaultWriter<S> {
        FaultWriter {
            sink,
            injector,
            pending: None,
            state: SendState::Healthy,
        }
    }

    /// Sends one already-encoded frame, applying whatever fault the
    /// injector assigns this op.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors, and [`io::ErrorKind::ConnectionReset`]
    /// after a reset fault.
    pub fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        match self.state {
            SendState::Healthy => {}
            SendState::HalfOpen => return Ok(()),
            SendState::Reset => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "netfault: connection reset",
                ))
            }
        }
        let Some(injector) = self.injector.clone() else {
            return self.write_through(frame);
        };
        let Some(kind) = injector.decide(OpClass::Send) else {
            return self.write_through(frame);
        };
        let op = injector.ops();
        let seed = injector.cfg.seed;
        match kind {
            NetFaultKind::Drop => Ok(()),
            NetFaultKind::Dup => {
                self.write_through(frame)?;
                self.write_through(frame)
            }
            NetFaultKind::Reorder => {
                let displaced = self.pending.replace(frame.to_vec());
                match displaced {
                    Some(bytes) => self.sink.write_frame_bytes(&bytes),
                    None => Ok(()),
                }
            }
            NetFaultKind::Delay => {
                std::thread::sleep(Duration::from_millis(injector.cfg.delay_ms));
                self.write_through(frame)
            }
            NetFaultKind::Truncate => {
                let cut = cut_point(seed, op, frame.len());
                self.sink.write_frame_bytes(&frame[..cut])
            }
            NetFaultKind::Corrupt => {
                let mut bytes = frame.to_vec();
                if bytes.len() > 1 {
                    // Never the trailing newline: a merged frame boundary
                    // is the truncate fault's job, not corruption's.
                    let pos = (mix(seed, op, 5) as usize) % (bytes.len() - 1);
                    bytes[pos] ^= 1 << (mix(seed, op, 6) % 8);
                }
                self.write_through(&bytes)
            }
            NetFaultKind::Reset => {
                let cut = cut_point(seed, op, frame.len());
                let _ = self.sink.write_frame_bytes(&frame[..cut]);
                let _ = self.sink.reset();
                self.state = SendState::Reset;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "netfault: connection reset mid-frame",
                ))
            }
            NetFaultKind::HalfOpen => {
                self.state = SendState::HalfOpen;
                Ok(())
            }
            // Partition never applies to sends; deliver normally.
            NetFaultKind::Partition => self.write_through(frame),
        }
    }

    /// Writes `frame`, then flushes out any frame a reorder displaced.
    fn write_through(&mut self, frame: &[u8]) -> io::Result<()> {
        self.sink.write_frame_bytes(frame)?;
        if let Some(held) = self.pending.take() {
            self.sink.write_frame_bytes(&held)?;
        }
        Ok(())
    }
}

impl<S: FrameSink> Drop for FaultWriter<S> {
    fn drop(&mut self) {
        // A frame still held by a reorder leaves with the channel — the
        // fault delays frames, it does not invent frame loss.
        if let (Some(held), SendState::Healthy) = (self.pending.take(), &self.state) {
            let _ = self.sink.write_frame_bytes(&held);
        }
    }
}

/// A seeded partial-write point: at least one byte short of `len`.
fn cut_point(seed: u64, op: u64, len: usize) -> usize {
    if len <= 1 {
        return 0;
    }
    (mix(seed, op, 7) as usize) % (len - 1)
}

/// The fault-injecting transport: real TCP with every channel's ops
/// counted through one shared [`FaultInjector`]. Clones share the
/// injector, so the harness hands the same `FaultNet` to the daemon and
/// its clients and gets one global op ordering.
#[derive(Clone)]
pub struct FaultNet {
    injector: FaultInjector,
}

impl fmt::Debug for FaultNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultNet")
            .field("cfg", &self.injector.cfg)
            .field("ops", &self.injector.ops())
            .finish()
    }
}

impl FaultNet {
    /// A fault net over `cfg`.
    pub fn new(cfg: NetFaultConfig) -> FaultNet {
        FaultNet {
            injector: FaultInjector::new(cfg),
        }
    }

    /// The shared injector (for op counts and worker-side wiring).
    pub fn injector(&self) -> FaultInjector {
        self.injector.clone()
    }
}

impl Transport for FaultNet {
    fn connect(&self, addr: &str, timeout: Duration) -> io::Result<Box<dyn Conn>> {
        self.injector.note_connect();
        Ok(Box::new(NetConn::new(
            tcp_connect(addr, timeout)?,
            Some(self.injector.clone()),
        )?))
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(NetListener {
            inner: bind(addr)?,
            injector: Some(self.injector.clone()),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(bytes: Vec<u8>) -> Vec<FrameRead> {
        let mut reader = FrameReader::new(Cursor::new(bytes));
        let mut out = Vec::new();
        loop {
            let read = reader.read_frame().unwrap();
            if read == FrameRead::Eof {
                return out;
            }
            out.push(read);
        }
    }

    #[test]
    fn frames_roundtrip() {
        let payloads = ["", "{\"op\":\"status\"}", "newline \\n escape", "unicode ✓"];
        let mut stream = Vec::new();
        for p in payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let reads = read_all(stream);
        assert_eq!(
            reads,
            payloads
                .iter()
                .map(|p| FrameRead::Frame((*p).to_string()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupt_frame_reports_and_resyncs() {
        let mut stream = encode_frame("first");
        let mut bad = encode_frame("second");
        let len = bad.len();
        bad[len / 2] ^= 0x40; // flip a payload bit
        stream.extend_from_slice(&bad);
        stream.extend_from_slice(&encode_frame("third"));
        let reads = read_all(stream);
        assert_eq!(reads[0], FrameRead::Frame("first".into()));
        assert!(matches!(reads[1], FrameRead::Malformed(_)), "{reads:?}");
        assert!(
            reads.contains(&FrameRead::Frame("third".into())),
            "{reads:?}"
        );
    }

    #[test]
    fn truncated_frame_resyncs_on_next_magic() {
        let mut stream = encode_frame("whole frame");
        let torn = encode_frame("torn frame payload");
        stream.extend_from_slice(&torn[..torn.len() / 2]);
        stream.extend_from_slice(&encode_frame("after the tear"));
        let reads = read_all(stream);
        assert_eq!(reads[0], FrameRead::Frame("whole frame".into()));
        assert!(
            reads.contains(&FrameRead::Frame("after the tear".into())),
            "{reads:?}"
        );
        assert!(reads.iter().any(|r| matches!(r, FrameRead::Malformed(_))));
    }

    #[test]
    fn garbage_lines_do_not_desync() {
        let mut stream = Vec::new();
        stream.extend_from_slice(b"this is not a frame at all\n");
        stream.extend_from_slice(&encode_frame("real"));
        stream.extend_from_slice(b"{\"op\":\"status\"}\n"); // legacy NDJSON
        stream.extend_from_slice(&encode_frame("also real"));
        let reads = read_all(stream);
        let frames: Vec<_> = reads
            .iter()
            .filter(|r| matches!(r, FrameRead::Frame(_)))
            .collect();
        assert_eq!(
            frames,
            [
                &FrameRead::Frame("real".into()),
                &FrameRead::Frame("also real".into())
            ]
        );
    }

    #[test]
    fn oversized_frames_are_rejected_with_bounded_memory() {
        let stream = format!("GF1 {} 00000000\n", MAX_FRAME + 1);
        let reads = read_all(stream.into_bytes());
        match &reads[0] {
            FrameRead::Malformed(detail) => {
                assert!(detail.contains("65536"), "{detail}");
            }
            other => panic!("expected malformed, got {other:?}"),
        }
        // Endless headerless garbage stays bounded too (no newline ever).
        struct Garbage(u64);
        impl Read for Garbage {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Ok(0);
                }
                self.0 -= 1;
                buf.fill(b'x');
                Ok(buf.len())
            }
        }
        let mut reader = FrameReader::new(Garbage(64));
        let mut malformed = 0;
        loop {
            match reader.read_frame().unwrap() {
                FrameRead::Eof => break,
                FrameRead::Malformed(_) => malformed += 1,
                FrameRead::Frame(f) => panic!("garbage produced a frame: {f}"),
            }
            assert!(reader.buf.len() <= MAX_FRAME + MAX_HEADER + 4096);
        }
        assert!(malformed > 0);
    }

    #[test]
    fn net_fault_config_roundtrips() {
        let specs = [
            "at=12,kind=reset,seed=3",
            "at=1,kind=half-open,seed=0",
            "drop=0.05,seed=7",
            "drop=0.2,dup=0.1,corrupt=0.01,seed=9",
            "delay=1.0,seed=2,delay-ms=10",
        ];
        for spec in specs {
            let config = NetFaultConfig::decode(spec).unwrap_or_else(|| panic!("decode {spec}"));
            assert_eq!(
                NetFaultConfig::decode(&config.encode()),
                Some(config.clone()),
                "roundtrip {spec}"
            );
        }
    }

    #[test]
    fn net_fault_config_rejects_garbage() {
        for bad in [
            "",
            "seed=1",                   // neither mode
            "at=3,seed=1",              // deterministic without kind
            "kind=drop,seed=1",         // kind without at
            "at=3,kind=melt,seed=1",    // unknown kind
            "drop=1.5,seed=1",          // rate out of range
            "drop=0.1,at=3,kind=dup",   // mixed modes
            "bogus=1,seed=2",           // unknown key
            "drop=x,seed=1",            // malformed rate
            "drop=0.1,drop=0.2,seed=1", // repeated key
        ] {
            assert_eq!(NetFaultConfig::decode(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn deterministic_injector_fires_once_at_first_applicable_op() {
        let injector = FaultInjector::new(NetFaultConfig::plan(3, NetFaultKind::Drop, 1));
        assert_eq!(injector.decide(OpClass::Send), None);
        // Op 3 is an accept: the plan arms there but `drop` cannot fire
        // on an accept, so it stays armed until the next send.
        assert_eq!(injector.decide(OpClass::Send), None);
        assert_eq!(injector.decide(OpClass::Accept), None);
        assert_eq!(injector.decide(OpClass::Send), Some(NetFaultKind::Drop));
        assert_eq!(injector.decide(OpClass::Send), None);
        assert!(injector.fired());
        assert_eq!(injector.ops(), 5);
    }

    #[test]
    fn counting_mode_never_fires() {
        let injector = FaultInjector::new(NetFaultConfig::counting());
        for _ in 0..100 {
            assert_eq!(injector.decide(OpClass::Send), None);
        }
        assert_eq!(injector.ops(), 100);
        assert!(!injector.fired());
    }

    #[test]
    fn rate_mode_is_seeded_and_plausible() {
        let cfg = NetFaultConfig::decode("drop=0.5,seed=4").unwrap();
        let roll = |seed_cfg: &NetFaultConfig| {
            let injector = FaultInjector::new(seed_cfg.clone());
            (0..200)
                .map(|_| injector.decide(OpClass::Send))
                .filter(Option::is_some)
                .count()
        };
        let hits = roll(&cfg);
        assert!((50..150).contains(&hits), "drop=0.5 hit {hits}/200");
        assert_eq!(hits, roll(&cfg), "same seed, same schedule");
        let other = NetFaultConfig::decode("drop=0.5,seed=5").unwrap();
        assert_ne!(hits, roll(&other), "different seed, different schedule");
    }

    /// In-memory sink recording writes, for fault-writer semantics.
    #[derive(Default)]
    struct MemSink {
        writes: Vec<Vec<u8>>,
        resets: usize,
    }
    impl FrameSink for &mut MemSink {
        fn write_frame_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.writes.push(bytes.to_vec());
            Ok(())
        }
        fn reset(&mut self) -> io::Result<()> {
            self.resets += 1;
            Ok(())
        }
    }

    fn perturbed(kind: NetFaultKind, at: u64, frames: &[&str]) -> MemSink {
        let mut sink = MemSink::default();
        {
            let injector = FaultInjector::new(NetFaultConfig::plan(at, kind, 3));
            let mut writer = FaultWriter::new(&mut sink, Some(injector));
            for frame in frames {
                let _ = writer.send_frame(&encode_frame(frame));
            }
        }
        sink
    }

    #[test]
    fn fault_writer_drop_dup_reorder_semantics() {
        let sink = perturbed(NetFaultKind::Drop, 2, &["a", "b", "c"]);
        assert_eq!(sink.writes.len(), 2, "one frame swallowed");

        let sink = perturbed(NetFaultKind::Dup, 2, &["a", "b", "c"]);
        assert_eq!(sink.writes.len(), 4, "one frame doubled");
        assert_eq!(sink.writes[1], sink.writes[2]);

        let sink = perturbed(NetFaultKind::Reorder, 2, &["a", "b", "c"]);
        assert_eq!(sink.writes.len(), 3);
        assert_eq!(sink.writes[0], encode_frame("a"));
        assert_eq!(sink.writes[1], encode_frame("c"), "b held back past c");
        assert_eq!(sink.writes[2], encode_frame("b"));

        // A reordered frame still leaves when the channel closes.
        let sink = perturbed(NetFaultKind::Reorder, 2, &["a", "b"]);
        assert_eq!(sink.writes.len(), 2);
        assert_eq!(sink.writes[1], encode_frame("b"));
    }

    #[test]
    fn fault_writer_reset_and_half_open_semantics() {
        let mut sink = MemSink::default();
        {
            let injector = FaultInjector::new(NetFaultConfig::plan(2, NetFaultKind::Reset, 3));
            let mut writer = FaultWriter::new(&mut sink, Some(injector));
            assert!(writer.send_frame(&encode_frame("a")).is_ok());
            let err = writer.send_frame(&encode_frame("b")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
            let err = writer.send_frame(&encode_frame("c")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        }
        assert_eq!(sink.resets, 1);
        let partial = &sink.writes[1];
        assert!(partial.len() < encode_frame("b").len(), "mid-frame cut");

        let sink = perturbed(NetFaultKind::HalfOpen, 2, &["a", "b", "c", "d"]);
        assert_eq!(sink.writes.len(), 1, "half-open swallows silently");
    }

    #[test]
    fn fault_writer_corrupt_and_truncate_are_caught_by_reader() {
        for kind in [NetFaultKind::Corrupt, NetFaultKind::Truncate] {
            let sink = perturbed(kind, 2, &["alpha", "beta", "gamma"]);
            let stream: Vec<u8> = sink.writes.concat();
            let reads = read_all(stream);
            assert!(
                reads.iter().any(|r| matches!(r, FrameRead::Malformed(_))),
                "{kind:?}: {reads:?}"
            );
            assert!(
                reads.contains(&FrameRead::Frame("alpha".into())),
                "{kind:?}"
            );
            assert!(
                reads.contains(&FrameRead::Frame("gamma".into())),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn real_net_roundtrips_over_tcp() {
        let net = RealNet;
        let listener = net.listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let conn = loop {
                if let Some(conn) = listener.accept().unwrap() {
                    break conn;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            let mut conn = conn;
            match conn.recv().unwrap() {
                FrameRead::Frame(payload) => {
                    conn.send(&format!("echo {payload}")).unwrap();
                }
                other => panic!("server got {other:?}"),
            }
        });
        let mut conn = net.connect(&addr, Duration::from_secs(2)).unwrap();
        conn.send("ping").unwrap();
        assert_eq!(conn.recv().unwrap(), FrameRead::Frame("echo ping".into()));
        server.join().unwrap();
    }

    #[test]
    fn half_open_peer_turns_into_a_read_timeout() {
        let fault = FaultNet::new(NetFaultConfig::plan(1, NetFaultKind::HalfOpen, 3));
        let listener = fault.listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut conn = loop {
                if let Some(conn) = listener.accept().unwrap() {
                    break conn;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            // Both sends vanish into the half-open channel.
            let _ = conn.send("one");
            let _ = conn.send("two");
            std::thread::sleep(Duration::from_millis(400));
        });
        let mut conn = RealNet.connect(&addr, Duration::from_secs(2)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        let err = conn.recv().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        server.join().unwrap();
    }
}
