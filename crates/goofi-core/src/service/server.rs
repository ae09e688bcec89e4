//! The daemon's accept loop and the client used by `goofi submit`, both
//! speaking the hardened frame protocol over a [`Transport`] seam.
//!
//! All service I/O goes through [`super::net`]: length-prefixed,
//! checksummed frames over a [`Conn`], dialled/bound by a [`Transport`]
//! ([`RealNet`] in production, `FaultNet` under torture). The protocol
//! survives a faulty network by construction:
//!
//! - every connection opens with a version handshake
//!   ([`Request::Hello`] → [`Response::Hello`]);
//! - a malformed or corrupted frame is answered with a typed
//!   `bad frame:` error and the stream resynchronises — the daemon never
//!   desyncs or hangs up on damage alone;
//! - submissions carry request ids the scheduler deduplicates, so
//!   [`submit_job`] can blindly retry;
//! - progress streams are sequence-numbered and resumable: a watcher
//!   that loses its connection reconnects with `after=<last seq>` and
//!   [`watch_to_end`] replays exactly the updates it missed;
//! - read deadlines on both sides turn half-open peers into clean
//!   [`GoofiError::Wire`] timeouts;
//! - client retry delays are exponential *with seeded jitter*, so a
//!   daemon restart does not synchronise its clients into a retry storm.
//!
//! The daemon binds loopback by default — the service is a local
//! campaign coordinator, not a network product.

use super::net::{Conn, FrameRead, Listener, RealNet, Transport, MIN_PROTO_VERSION, PROTO_VERSION};
use super::scheduler::{JobProgress, Scheduler};
use super::wire::{Request, Response};
use crate::policy::Backoff;
use crate::{GoofiError, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs the daemon's accept loop on `listener` until a `shutdown` request
/// arrives or `stop` is set (e.g. by a signal handler). Each connection is
/// served on its own thread; returns after in-flight jobs are stopped via
/// [`Scheduler::shutdown`] (their spool state stays resumable).
///
/// # Errors
///
/// Fatal listener errors; per-connection I/O errors are contained to
/// their connection.
pub fn serve(
    listener: Box<dyn Listener>,
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
) -> Result<()> {
    let mut handlers = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(Some(conn)) => {
                let scheduler = Arc::clone(&scheduler);
                let stop = Arc::clone(&stop);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(conn, &scheduler, &stop);
                }));
            }
            Ok(None) => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(GoofiError::Wire(format!("accept failed: {e}"))),
        }
    }
    scheduler.shutdown();
    for handler in handlers {
        let _ = handler.join();
    }
    Ok(())
}

/// How long the daemon waits for a client's next request frame before
/// concluding the peer is half-open and dropping the connection.
const SERVER_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Socket-level poll interval of the daemon's request reads: short, so a
/// stopping daemon unblocks its handler threads promptly while
/// [`SERVER_READ_TIMEOUT`] still bounds a half-open peer.
const SERVER_POLL: Duration = Duration::from_millis(250);

/// Damaged frames tolerated per connection before hanging up — each one
/// is answered with a typed error first, so a retrying client learns why.
const MAX_BAD_FRAMES: u32 = 16;

/// Serves one connection: hello handshake, one request, its responses.
fn handle_connection(mut conn: Box<dyn Conn>, scheduler: &Scheduler, stop: &AtomicBool) {
    let _ = conn.set_read_timeout(Some(SERVER_POLL));
    let Some(request) = read_request(&mut conn, stop) else {
        return;
    };
    let Request::Hello { version } = request else {
        send(
            &mut conn,
            &Response::Error {
                detail: "protocol error: expected hello".into(),
            },
        );
        return;
    };
    let negotiated = version.min(PROTO_VERSION);
    if negotiated < MIN_PROTO_VERSION {
        send(
            &mut conn,
            &Response::Error {
                detail: format!(
                    "unsupported protocol version {version} \
                     (daemon speaks {MIN_PROTO_VERSION}..={PROTO_VERSION})"
                ),
            },
        );
        return;
    }
    if !send(
        &mut conn,
        &Response::Hello {
            version: negotiated,
        },
    ) {
        return;
    }
    // A repeated hello after the handshake is a duplicated frame, not a
    // confused client — answer it as transport damage (transient, so a
    // retrying client does not treat it as a rejection) and keep waiting
    // for the real request on the same connection.
    let mut dups = 0;
    let request = loop {
        let Some(request) = read_request(&mut conn, stop) else {
            return;
        };
        if !matches!(request, Request::Hello { .. }) {
            break request;
        }
        dups += 1;
        if dups > MAX_BAD_FRAMES
            || !send(
                &mut conn,
                &Response::Error {
                    detail: "bad frame: duplicate hello (dropped as damage)".into(),
                },
            )
        {
            return;
        }
    };
    match request {
        Request::Hello { .. } => unreachable!("hello loop drains duplicates"),
        Request::Submit {
            id,
            campaign,
            workers,
            watch,
            target,
        } => {
            let request_id = if id.is_empty() {
                None
            } else {
                Some(id.as_str())
            };
            let target = if target.is_empty() {
                None
            } else {
                Some(target.as_str())
            };
            match scheduler.submit(request_id, &campaign, workers, target) {
                Ok(job) => {
                    send(&mut conn, &Response::Accepted { job: job.clone() });
                    if watch {
                        stream_progress(&mut conn, scheduler, &job, 0, stop);
                    }
                }
                Err(e) => {
                    send(
                        &mut conn,
                        &Response::Error {
                            detail: e.to_string(),
                        },
                    );
                }
            }
        }
        Request::Watch { job, after } => {
            if scheduler.watch(&job).is_some() {
                stream_progress(&mut conn, scheduler, &job, after, stop);
            } else {
                send(
                    &mut conn,
                    &Response::Error {
                        detail: format!("no such job `{job}`"),
                    },
                );
            }
        }
        Request::Status => {
            let jobs = scheduler.jobs();
            // The header's count lets the client detect rows lost or
            // duplicated in flight and retry the whole listing.
            send(
                &mut conn,
                &Response::Listing {
                    jobs: jobs.len() as u64,
                },
            );
            for (job, campaign, progress) in jobs {
                send(
                    &mut conn,
                    &Response::Job {
                        job,
                        campaign,
                        state: progress.state.encode().to_string(),
                    },
                );
            }
            send(&mut conn, &Response::End);
        }
        Request::Shutdown => {
            stop.store(true, Ordering::Release);
            send(&mut conn, &Response::End);
        }
    }
}

/// Reads frames until one decodes as a [`Request`]. Damage — a torn,
/// corrupted or non-JSON frame, or a frame that is not a request — is
/// answered with a typed `bad frame:` error and reading continues, up to
/// [`MAX_BAD_FRAMES`]; the stream itself stays in sync throughout.
/// `None` means the connection is unusable: EOF, error, the daemon is
/// stopping, or the peer stayed silent past [`SERVER_READ_TIMEOUT`]
/// (half-open).
fn read_request(conn: &mut Box<dyn Conn>, stop: &AtomicBool) -> Option<Request> {
    let mut bad = 0;
    let deadline = Instant::now() + SERVER_READ_TIMEOUT;
    loop {
        let problem = match conn.recv() {
            Ok(FrameRead::Frame(line)) => match Request::decode(&line) {
                Ok(request) => return Some(request),
                Err(e) => e.to_string(),
            },
            Ok(FrameRead::Malformed(detail)) => detail,
            Ok(FrameRead::Eof) => return None,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) || Instant::now() >= deadline {
                    return None;
                }
                continue;
            }
            Err(_) => return None,
        };
        bad += 1;
        let ok = send(
            conn,
            &Response::Error {
                detail: format!("bad frame: {problem}"),
            },
        );
        if !ok || bad >= MAX_BAD_FRAMES {
            return None;
        }
    }
}

/// How long a watch stream may stay silent before the daemon resends the
/// latest (already-sequenced) progress frame. Clients drop the repeat by
/// its `seq`; its only job is to keep the stream visibly alive, well
/// under the client's read timeout.
const WATCH_KEEPALIVE: Duration = Duration::from_secs(5);

/// Streams progress frames for `job` with sequence numbers greater than
/// `after`, until the job reaches a terminal state or the daemon stops.
/// The final frame carries the terminal state. Every update between
/// `after` and now is replayed from the job's progress history, which is
/// what makes a watch resumable after a lost connection.
fn stream_progress(
    conn: &mut Box<dyn Conn>,
    scheduler: &Scheduler,
    job: &str,
    after: u64,
    stop: &AtomicBool,
) {
    let Some(watcher) = scheduler.watch(job) else {
        return;
    };
    let mut last_seq = after;
    let mut last_sent = Instant::now();
    // Prompt snapshot so an attaching client sees the stream is live even
    // if nothing changed since `after` (repeats dedup by seq). Sent only
    // when there is nothing newer to replay: a fresher snapshot first
    // would advance the client's ack past the replay below, and the
    // client would then drop the missed updates as already-seen.
    {
        let (seq, progress) = watcher.snapshot();
        if seq <= after {
            if !send(conn, &progress_response(job, seq, &progress)) {
                return;
            }
            if progress.state.is_terminal() {
                return;
            }
        }
    }
    loop {
        for (seq, progress) in watcher.since(last_seq) {
            if !send(conn, &progress_response(job, seq, &progress)) {
                return;
            }
            last_seq = seq;
            last_sent = Instant::now();
            if progress.state.is_terminal() {
                return;
            }
        }
        if last_sent.elapsed() >= WATCH_KEEPALIVE {
            let (seq, progress) = watcher.snapshot();
            if !send(conn, &progress_response(job, seq, &progress)) {
                return;
            }
            last_sent = Instant::now();
            if progress.state.is_terminal() {
                return;
            }
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        watcher.wait_newer(last_seq, Duration::from_millis(250));
    }
}

fn progress_response(job: &str, seq: u64, p: &JobProgress) -> Response {
    Response::Progress {
        seq,
        job: job.to_string(),
        state: p.state.encode().to_string(),
        total: p.total as u64,
        completed: p.completed as u64,
        failed: p.failed as u64,
        quarantined: p.quarantined as u64,
        shards_done: p.shards_done as u64,
        shards_total: p.shards_total as u64,
        shards_poisoned: p.shards_poisoned as u64,
        detail: p.detail.clone(),
    }
}

fn send(conn: &mut Box<dyn Conn>, response: &Response) -> bool {
    conn.send(&response.encode()).is_ok()
}

/// Per-attempt connect timeout for [`Client::connect`].
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long the handshake waits for the daemon's hello. A healthy daemon
/// answers immediately, so silence here means the frame was lost or the
/// peer is half-open — failing fast and redialling is the right move.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);
/// How long [`Client::recv`] may wait for a frame before concluding the
/// daemon is gone. The daemon's [`WATCH_KEEPALIVE`] resend keeps healthy
/// watch streams well inside this.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Connection attempts before [`Client::connect`] gives up.
const CONNECT_ATTEMPTS: u32 = 4;
/// Whole-session retries for [`submit_job`] and consecutive reconnects
/// for [`watch_to_end`].
const SESSION_RETRIES: u32 = 8;
/// Retry backoff bounds (milliseconds); each delay gets seeded jitter on
/// top via [`jittered`].
const RETRY_BACKOFF: Backoff = Backoff {
    initial_ms: 50,
    max_ms: 2_000,
};

/// Adds up to +50% seeded jitter to a retry delay. Pure exponential
/// backoff synchronises every client that observed the same daemon
/// restart into lock-step retry storms; the jitter source mixes the
/// process id and clock so distinct clients spread out.
fn jittered(delay: Duration) -> Duration {
    static SALT: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::from(d.subsec_nanos()));
    let roll = scanchain::plan::mix(
        u64::from(std::process::id()),
        SALT.fetch_add(1, Ordering::Relaxed),
        nanos,
    );
    delay + delay.mul_f64((roll % 1_000) as f64 / 2_000.0)
}

/// A fresh, process-unique request id for [`submit_job`]: the token the
/// daemon deduplicates retried submissions by.
pub fn new_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    format!(
        "req-{}-{:x}-{}",
        std::process::id(),
        nanos,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// A blocking client connection to the daemon, used by `goofi submit`.
/// Construction includes the protocol handshake, so a connected client
/// has already negotiated a version.
pub struct Client {
    conn: Box<dyn Conn>,
    addr: String,
    version: u64,
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:4711`) over plain
    /// TCP, retrying with jittered bounded exponential backoff, and
    /// performs the hello handshake. Each attempt is capped at
    /// `CONNECT_TIMEOUT` (2 s) and the connection gets a read timeout so a
    /// wedged daemon cannot hang the client forever.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] naming `addr` when no attempt succeeds.
    pub fn connect(addr: &str) -> Result<Client> {
        Client::connect_via(&RealNet, addr, CONNECT_ATTEMPTS)
    }

    /// [`Client::connect`] over an explicit transport — the seam the
    /// torture harness uses to dial through a `FaultNet`.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] naming `addr` when no attempt succeeds.
    pub fn connect_via(transport: &dyn Transport, addr: &str, attempts: u32) -> Result<Client> {
        let attempts = attempts.max(1);
        let mut last = format!("connecting to {addr}: no attempt made");
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(jittered(RETRY_BACKOFF.delay(attempt)));
            }
            match transport.connect(addr, CONNECT_TIMEOUT) {
                Ok(conn) => match Client::handshake(conn, addr) {
                    Ok(client) => return Ok(client),
                    Err(e) => last = e.to_string(),
                },
                Err(e) => last = format!("connecting to {addr}: {e}"),
            }
        }
        Err(GoofiError::Wire(format!(
            "{last} (gave up after {attempts} attempt(s))"
        )))
    }

    /// Sends our hello, requires the daemon's hello back.
    fn handshake(mut conn: Box<dyn Conn>, addr: &str) -> Result<Client> {
        let _ = conn.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
        let mut client = Client {
            conn,
            addr: addr.to_string(),
            version: PROTO_VERSION,
        };
        client.send(&Request::Hello {
            version: PROTO_VERSION,
        })?;
        match client.recv()? {
            Some(Response::Hello { version }) if version >= MIN_PROTO_VERSION => {
                client.version = version;
                client.set_read_timeout(READ_TIMEOUT);
                Ok(client)
            }
            Some(Response::Hello { version }) => Err(GoofiError::Wire(format!(
                "daemon at {addr} negotiated unsupported protocol version {version}"
            ))),
            Some(Response::Error { detail }) => Err(GoofiError::Wire(format!(
                "handshake with {addr} refused: {detail}"
            ))),
            Some(other) => Err(GoofiError::Wire(format!(
                "handshake with {addr} got unexpected {other:?}"
            ))),
            None => Err(GoofiError::Wire(format!(
                "handshake with {addr}: connection closed"
            ))),
        }
    }

    /// The protocol version negotiated on connect.
    pub fn negotiated_version(&self) -> u64 {
        self.version
    }

    /// Overrides how long [`Client::recv`] may block — tests shrink this
    /// to catch half-open daemons quickly.
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        let _ = self.conn.set_read_timeout(Some(timeout));
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] naming the daemon address on I/O failure.
    pub fn send(&mut self, request: &Request) -> Result<()> {
        let addr = &self.addr;
        self.conn
            .send(&request.encode())
            .map_err(|e| GoofiError::Wire(format!("sending request to {addr}: {e}")))
    }

    /// Sends raw bytes verbatim, bypassing framing — exercises the
    /// daemon's handling of malformed frames.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] naming the daemon address on I/O failure.
    pub fn send_raw(&mut self, text: &str) -> Result<()> {
        let addr = &self.addr;
        self.conn
            .send_bytes(text.as_bytes())
            .map_err(|e| GoofiError::Wire(format!("sending raw frame to {addr}: {e}")))
    }

    /// Receives the next response frame; `None` when the daemon closed
    /// the connection. A read blocking past the read timeout is an
    /// error — the daemon keepalives watch streams, so silence means it
    /// is gone (or the connection is half-open).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] naming the daemon address on I/O failure,
    /// timeout, or damaged frames.
    pub fn recv(&mut self) -> Result<Option<Response>> {
        let addr = &self.addr;
        match self.conn.recv() {
            Ok(FrameRead::Frame(line)) => Response::decode(&line).map(Some),
            Ok(FrameRead::Malformed(detail)) => Err(GoofiError::Wire(format!(
                "damaged frame from {addr}: {detail}"
            ))),
            Ok(FrameRead::Eof) => Ok(None),
            Err(e) => {
                let verb = match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => "timed out",
                    _ => "failed",
                };
                Err(GoofiError::Wire(format!(
                    "reading response from {addr}: {verb}: {e}"
                )))
            }
        }
    }
}

/// Whether a daemon error response reports transport damage (retryable)
/// rather than an application decision (definitive).
fn transient_error(detail: &str) -> bool {
    detail.starts_with("bad frame:")
}

/// Submits `campaign` under `request_id`, retrying across fresh
/// connections until the daemon acknowledges. Safe to retry because the
/// daemon deduplicates by request id: if an earlier attempt's `accepted`
/// was lost in flight, the retry returns the same job instead of
/// submitting twice.
///
/// `target`, when given, is the expected target system: the daemon
/// rejects the submission when the stored campaign targets a different
/// CPU, so `goofi submit --target` fails loudly instead of running a
/// campaign on the wrong core. `read_timeout` is the per-attempt
/// acknowledgement deadline (the CLI waits 10 s; the torture harness
/// shrinks it so lost frames fail over quickly).
///
/// # Errors
///
/// [`GoofiError::Wire`] when the daemon rejects the submission or the
/// retry budget is exhausted.
pub fn submit_job(
    transport: &dyn Transport,
    addr: &str,
    request_id: &str,
    campaign: &str,
    workers: usize,
    target: Option<&str>,
    read_timeout: Duration,
) -> Result<String> {
    let mut last = String::new();
    for attempt in 0..SESSION_RETRIES {
        if attempt > 0 {
            std::thread::sleep(jittered(RETRY_BACKOFF.delay(attempt)));
        }
        let mut client = match Client::connect_via(transport, addr, 1) {
            Ok(client) => client,
            Err(e) => {
                last = e.to_string();
                continue;
            }
        };
        client.set_read_timeout(read_timeout);
        if let Err(e) = client.send(&Request::Submit {
            id: request_id.to_string(),
            campaign: campaign.to_string(),
            workers,
            watch: false,
            target: target.unwrap_or("").to_string(),
        }) {
            last = e.to_string();
            continue;
        }
        match client.recv() {
            Ok(Some(Response::Accepted { job })) => return Ok(job),
            Ok(Some(Response::Error { detail })) if !transient_error(&detail) => {
                return Err(GoofiError::Wire(format!(
                    "daemon at {addr} rejected submit: {detail}"
                )));
            }
            Ok(Some(Response::Error { detail })) => last = detail,
            Ok(Some(other)) => last = format!("unexpected response {other:?}"),
            Ok(None) => last = "connection closed before accept".into(),
            Err(e) => last = e.to_string(),
        }
    }
    Err(GoofiError::Wire(format!(
        "submitting `{campaign}` to {addr}: {last} (gave up after {SESSION_RETRIES} attempt(s))"
    )))
}

/// Lists the daemon's jobs as `(job, state, campaign)` rows, retrying
/// across fresh connections on transport damage. Safe to retry because
/// the listing is a read-only snapshot: a damaged attempt is thrown away
/// and the next one starts over. `read_timeout` is the per-attempt read
/// deadline (the CLI waits 10 s).
///
/// # Errors
///
/// [`GoofiError::Wire`] when the daemon refuses the request or the retry
/// budget is exhausted.
pub fn job_list(
    transport: &dyn Transport,
    addr: &str,
    read_timeout: Duration,
) -> Result<Vec<(String, String, String)>> {
    let mut last = String::new();
    'attempts: for attempt in 0..SESSION_RETRIES {
        if attempt > 0 {
            std::thread::sleep(jittered(RETRY_BACKOFF.delay(attempt)));
        }
        let mut client = match Client::connect_via(transport, addr, 1) {
            Ok(client) => client,
            Err(e) => {
                last = e.to_string();
                continue;
            }
        };
        client.set_read_timeout(read_timeout);
        if let Err(e) = client.send(&Request::Status) {
            last = e.to_string();
            continue;
        }
        // The listing header announces how many rows follow; any other
        // count on `End` means rows were lost, duplicated or reordered
        // past the end marker in flight — throw the attempt away.
        let expected = match client.recv() {
            Ok(Some(Response::Listing { jobs })) => jobs,
            Ok(Some(Response::Error { detail })) if !transient_error(&detail) => {
                return Err(GoofiError::Wire(format!(
                    "daemon at {addr} refused status: {detail}"
                )));
            }
            Ok(other) => {
                last = format!("expected listing header, got {other:?}");
                continue;
            }
            Err(e) => {
                last = e.to_string();
                continue;
            }
        };
        let mut rows = Vec::new();
        loop {
            match client.recv() {
                Ok(Some(Response::Job {
                    job,
                    campaign,
                    state,
                })) => rows.push((job, state, campaign)),
                Ok(Some(Response::End)) => {
                    if rows.len() as u64 == expected {
                        return Ok(rows);
                    }
                    last = format!(
                        "listing damaged in flight: {} of {expected} row(s) arrived",
                        rows.len()
                    );
                    continue 'attempts;
                }
                Ok(Some(Response::Error { detail })) if !transient_error(&detail) => {
                    return Err(GoofiError::Wire(format!(
                        "daemon at {addr} refused status: {detail}"
                    )));
                }
                Ok(Some(Response::Error { detail })) => {
                    last = detail;
                    continue 'attempts;
                }
                Ok(Some(other)) => {
                    last = format!("unexpected response {other:?}");
                    continue 'attempts;
                }
                Ok(None) => {
                    last = "connection closed mid-listing".into();
                    continue 'attempts;
                }
                Err(e) => {
                    last = e.to_string();
                    continue 'attempts;
                }
            }
        }
    }
    Err(GoofiError::Wire(format!(
        "listing jobs at {addr}: {last} (gave up after {SESSION_RETRIES} attempt(s))"
    )))
}

/// Asks the daemon to stop, retrying until its acknowledgement arrives.
/// Safe to retry because repeated shutdown requests are idempotent. If a
/// retry cannot even connect after an earlier attempt delivered the
/// request, the daemon most likely acted on it and closed its listener —
/// that counts as success. `read_timeout` is the per-attempt read
/// deadline (the CLI waits 10 s).
///
/// # Errors
///
/// [`GoofiError::Wire`] when the daemon refuses the request or the retry
/// budget is exhausted.
pub fn request_shutdown(
    transport: &dyn Transport,
    addr: &str,
    read_timeout: Duration,
) -> Result<()> {
    let mut last = String::new();
    let mut sent = false;
    for attempt in 0..SESSION_RETRIES {
        if attempt > 0 {
            std::thread::sleep(jittered(RETRY_BACKOFF.delay(attempt)));
        }
        let mut client = match Client::connect_via(transport, addr, 1) {
            Ok(client) => client,
            Err(e) if sent => {
                let _ = e;
                return Ok(());
            }
            Err(e) => {
                last = e.to_string();
                continue;
            }
        };
        client.set_read_timeout(read_timeout);
        if let Err(e) = client.send(&Request::Shutdown) {
            last = e.to_string();
            continue;
        }
        sent = true;
        match client.recv() {
            Ok(Some(Response::End)) => return Ok(()),
            Ok(Some(Response::Error { detail })) if !transient_error(&detail) => {
                return Err(GoofiError::Wire(format!(
                    "daemon at {addr} refused shutdown: {detail}"
                )));
            }
            Ok(Some(Response::Error { detail })) => last = detail,
            Ok(Some(other)) => last = format!("unexpected response {other:?}"),
            Ok(None) => last = "connection closed before acknowledgement".into(),
            Err(e) => last = e.to_string(),
        }
    }
    Err(GoofiError::Wire(format!(
        "shutting down daemon at {addr}: {last} (gave up after {SESSION_RETRIES} attempt(s))"
    )))
}

/// Watches `job` to its terminal state with session resume: every lost
/// connection is re-dialled and the stream re-requested with
/// `after=<last acknowledged seq>`, so `on_progress` sees every update
/// exactly once, in order, with no duplicates across reconnects. Returns
/// the terminal [`Response::Progress`].
///
/// The watch starts after sequence number `after` (0 for the whole
/// stream). `read_timeout` is the heartbeat deadline that flushes out
/// half-open daemons (the CLI waits 30 s).
///
/// # Errors
///
/// [`GoofiError::Wire`] when the daemon does not know the job or
/// `SESSION_RETRIES` (8) consecutive reconnects fail.
pub fn watch_to_end(
    transport: &dyn Transport,
    addr: &str,
    job: &str,
    after: u64,
    read_timeout: Duration,
    mut on_progress: impl FnMut(&Response),
) -> Result<Response> {
    let mut last_seq = after;
    let mut stale = 0u32;
    let mut last = String::new();
    loop {
        if stale >= SESSION_RETRIES {
            return Err(GoofiError::Wire(format!(
                "watching {job} on {addr}: {last} \
                 (gave up after {SESSION_RETRIES} consecutive reconnect(s))"
            )));
        }
        if stale > 0 {
            std::thread::sleep(jittered(RETRY_BACKOFF.delay(stale)));
        }
        let mut client = match Client::connect_via(transport, addr, 1) {
            Ok(client) => client,
            Err(e) => {
                stale += 1;
                last = e.to_string();
                continue;
            }
        };
        client.set_read_timeout(read_timeout);
        if let Err(e) = client.send(&Request::Watch {
            job: job.to_string(),
            after: last_seq,
        }) {
            stale += 1;
            last = e.to_string();
            continue;
        }
        let failure = loop {
            match client.recv() {
                Ok(Some(response @ Response::Progress { .. })) => {
                    let (seq, terminal) = match &response {
                        Response::Progress { seq, state, .. } => {
                            (*seq, state == "done" || state == "failed")
                        }
                        _ => unreachable!("matched progress"),
                    };
                    if seq <= last_seq {
                        if terminal {
                            // A repeat of an already-acked terminal state
                            // (keepalive, or a resume that had already
                            // seen the end) — done is done.
                            return Ok(response);
                        }
                        continue; // keepalive repeat or replay overlap
                    }
                    stale = 0;
                    last_seq = seq;
                    on_progress(&response);
                    if terminal {
                        return Ok(response);
                    }
                }
                Ok(Some(Response::Error { detail })) if !transient_error(&detail) => {
                    return Err(GoofiError::Wire(format!(
                        "watching {job} on {addr}: {detail}"
                    )));
                }
                Ok(Some(Response::Error { detail })) => break detail,
                Ok(Some(other)) => break format!("unexpected response {other:?}"),
                Ok(None) => break "connection closed mid-stream".into(),
                Err(e) => break e.to_string(),
            }
        };
        stale += 1;
        last = failure;
    }
}
