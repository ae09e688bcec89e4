//! The daemon's accept loop and the client used by `goofi submit`, both
//! speaking the hardened frame protocol over a [`Transport`] seam.
//!
//! All service I/O goes through [`super::net`]: length-prefixed,
//! checksummed frames over a [`Conn`], dialled/bound by a [`Transport`]
//! ([`RealNet`](super::RealNet) in production, `FaultNet` under torture).
//! The protocol survives a faulty network by construction:
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
//! - one retry loop owns the backoff, the budget and the give-up of every
//!   client call ([`Client::connect_via`], [`submit_job`], [`job_list`],
//!   [`request_shutdown`], [`watch_to_end`]); its delays are exponential
//!   *with seeded jitter*, so a daemon restart does not synchronise its
//!   clients into a retry storm;
//! - a `status` listing is checked by its row count and by unique job
//!   ids, so rows lost or duplicated in flight are retried, not trusted.
//!
//! The daemon binds loopback by default — the service is a local
//! campaign coordinator, not a network product.

use super::net::{Conn, FrameRead, Listener, Transport, MIN_PROTO_VERSION, PROTO_VERSION};
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
    let Some(request) = read_request(&mut conn, stop, false) else {
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
    let Some(request) = read_request(&mut conn, stop, true) else {
        return;
    };
    match request {
        Request::Hello { .. } => unreachable!("read_request answers a late hello as damage"),
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
            // The header's count, and each job listed once, let the client
            // detect rows lost or duplicated in flight and retry the whole
            // listing.
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
/// corrupted or non-JSON frame, a frame that is not a request, or a hello
/// once `handshaken` — is answered with a typed `bad frame:` error and
/// reading continues, up to [`MAX_BAD_FRAMES`]; the stream itself stays
/// in sync throughout. `None` means the connection is unusable: EOF,
/// error, the daemon is stopping, or the peer stayed silent past
/// [`SERVER_READ_TIMEOUT`] (half-open).
fn read_request(conn: &mut Box<dyn Conn>, stop: &AtomicBool, handshaken: bool) -> Option<Request> {
    let mut bad = 0;
    let deadline = Instant::now() + SERVER_READ_TIMEOUT;
    loop {
        let problem = match conn.recv() {
            Ok(FrameRead::Frame(line)) => match Request::decode(&line) {
                // A repeated hello is a duplicated frame, not a confused
                // client: answered as damage, a retrying client does not
                // take it for a refusal.
                Ok(Request::Hello { .. }) if handshaken => {
                    "duplicate hello (dropped as damage)".to_string()
                }
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
    // The one emit step: `false` once the stream is over, because the
    // send failed or the update is terminal.
    let mut emit = |(seq, progress): (u64, JobProgress)| {
        send(conn, &progress_response(job, seq, &progress)) && !progress.state.is_terminal()
    };
    // Prompt snapshot so an attaching client sees the stream is live even
    // if nothing changed since `after` (repeats dedup by seq). Sent only
    // when there is nothing newer to replay: a fresher snapshot first
    // would advance the client's ack past the replay below, and the
    // client would then drop the missed updates as already-seen.
    let snapshot = watcher.snapshot();
    if snapshot.0 <= after && !emit(snapshot) {
        return;
    }
    let mut last_seq = after;
    let mut last_sent = Instant::now();
    loop {
        for (seq, progress) in watcher.since(last_seq) {
            if !emit((seq, progress)) {
                return;
            }
            last_seq = seq;
            last_sent = Instant::now();
        }
        if last_sent.elapsed() >= WATCH_KEEPALIVE {
            if !emit(watcher.snapshot()) {
                return;
            }
            last_sent = Instant::now();
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

/// Per-attempt connect timeout for [`Client::connect_via`].
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long the handshake waits for the daemon's hello. A healthy daemon
/// answers immediately, so silence here means the frame was lost or the
/// peer is half-open — failing fast and redialling is the right move.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);
/// How long [`Client::recv`] may wait for a frame before concluding the
/// daemon is gone. The daemon's [`WATCH_KEEPALIVE`] resend keeps healthy
/// watch streams well inside this.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Consecutive failed attempts before [`submit_job`], [`job_list`],
/// [`request_shutdown`] or [`watch_to_end`] gives up.
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
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:4711`) over
    /// `transport` ([`RealNet`](super::RealNet) for plain TCP, a
    /// `FaultNet` under test), making up to `attempts` attempts with
    /// jittered bounded exponential backoff, and performs the hello
    /// handshake. Each attempt is capped at `CONNECT_TIMEOUT` (2 s) and the
    /// connection gets a read timeout so a wedged daemon cannot hang the
    /// client forever.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] naming `addr` when no attempt succeeds.
    pub fn connect_via(transport: &dyn Transport, addr: &str, attempts: u32) -> Result<Client> {
        Client::retry(addr, "connecting to", attempts, |_| {
            Client::dial(transport, addr, READ_TIMEOUT)
        })
    }

    /// The one retry loop behind every client call. It runs `attempt`
    /// until it answers, sleeping the jittered [`RETRY_BACKOFF`] before
    /// each retry, and gives up after `budget` consecutive failed
    /// attempts. An attempt that delivered a new watch update sets its
    /// flag, which restarts the count. A [`Failure::Refused`] ends the
    /// call at once. Errors name the `call`, `addr` and the last failure.
    fn retry<T>(
        addr: &str,
        call: &str,
        budget: u32,
        mut attempt: impl FnMut(&mut bool) -> std::result::Result<T, Failure>,
    ) -> Result<T> {
        let budget = budget.max(1);
        let mut failed = 0;
        let mut last = String::new();
        while failed < budget {
            if failed > 0 {
                std::thread::sleep(jittered(RETRY_BACKOFF.delay(failed)));
            }
            let mut progressed = false;
            match attempt(&mut progressed) {
                Ok(answer) => return Ok(answer),
                Err(Failure::Refused(detail)) => {
                    return Err(GoofiError::Wire(format!(
                        "{call} {addr}: daemon refused: {detail}"
                    )))
                }
                Err(Failure::Damage(why)) => {
                    failed = if progressed { 1 } else { failed + 1 };
                    last = why;
                }
            }
        }
        Err(GoofiError::Wire(format!(
            "{call} {addr}: {last} (gave up after {budget} failed attempt(s) in a row)"
        )))
    }

    /// Dials `addr` and shakes hands: sends our hello and requires the
    /// daemon's hello back. The connection then reads with `read_timeout`.
    fn dial(
        transport: &dyn Transport,
        addr: &str,
        read_timeout: Duration,
    ) -> std::result::Result<Client, Failure> {
        let conn = transport
            .connect(addr, CONNECT_TIMEOUT)
            .map_err(|e| Failure::Damage(format!("connecting to {addr}: {e}")))?;
        let mut client = Client {
            conn,
            addr: addr.to_string(),
            version: PROTO_VERSION,
        };
        client.set_read_timeout(HANDSHAKE_TIMEOUT);
        client.send(&Request::Hello {
            version: PROTO_VERSION,
        })?;
        match client.reply()? {
            Response::Hello { version } if version >= MIN_PROTO_VERSION => client.version = version,
            other => return Err(unexpected(&other)),
        }
        client.set_read_timeout(read_timeout);
        Ok(client)
    }

    /// The one reply check: the next response, or why the call failed. A
    /// `bad frame:` error, a closed connection or an I/O error is
    /// transport damage; any other daemon error is a final refusal.
    fn reply(&mut self) -> std::result::Result<Response, Failure> {
        match self.recv()? {
            Some(Response::Error { detail }) if detail.starts_with("bad frame:") => {
                Err(Failure::Damage(detail))
            }
            Some(Response::Error { detail }) => Err(Failure::Refused(detail)),
            Some(response) => Ok(response),
            None => Err(Failure::Damage("connection closed".into())),
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

/// Why one attempt of a client call ended without an answer.
enum Failure {
    /// Transport damage, a closed connection or an I/O error: retry.
    Damage(String),
    /// A daemon error that is not transport damage: a final refusal.
    Refused(String),
}

impl From<GoofiError> for Failure {
    fn from(e: GoofiError) -> Failure {
        Failure::Damage(e.to_string())
    }
}

fn unexpected(response: &Response) -> Failure {
    Failure::Damage(format!("unexpected response {response:?}"))
}

/// Submits `campaign` under `request_id`, retrying across fresh
/// connections until the daemon acknowledges. Safe to retry because the
/// daemon deduplicates by request id: if an earlier attempt's `accepted`
/// was lost in flight, the retry returns the same job instead of
/// submitting twice.
///
/// `workers` of 0 asks for the daemon's default shard count. `target`,
/// when given, is the expected target system: the daemon rejects the
/// submission when the stored campaign targets a different CPU, so
/// `goofi submit --target` fails loudly instead of running a campaign on
/// the wrong core. `read_timeout` is the per-attempt acknowledgement
/// deadline (the CLI waits 10 s; the torture harness shrinks it so lost
/// frames fail over quickly).
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
    let request = Request::Submit {
        id: request_id.to_string(),
        campaign: campaign.to_string(),
        workers,
        watch: false,
        target: target.unwrap_or("").to_string(),
    };
    let call = format!("submitting `{campaign}` to");
    Client::retry(addr, &call, SESSION_RETRIES, |_| {
        let mut client = Client::dial(transport, addr, read_timeout)?;
        client.send(&request)?;
        match client.reply()? {
            Response::Accepted { job } => Ok(job),
            other => Err(unexpected(&other)),
        }
    })
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
    Client::retry(addr, "listing jobs at", SESSION_RETRIES, |_| {
        let mut client = Client::dial(transport, addr, read_timeout)?;
        client.send(&Request::Status)?;
        let expected = match client.reply()? {
            Response::Listing { jobs } => jobs,
            other => return Err(unexpected(&other)),
        };
        // The header announces how many rows follow, and the daemon lists
        // each job once: another count on `End`, or a repeated job id,
        // means rows were lost, duplicated or reordered past the end
        // marker in flight (two faults can cancel out in the count).
        let mut rows: Vec<(String, String, String)> = Vec::new();
        loop {
            match client.reply()? {
                Response::Job {
                    job,
                    campaign,
                    state,
                } if rows.iter().all(|(seen, _, _)| *seen != job) => {
                    rows.push((job, state, campaign));
                }
                Response::End if rows.len() as u64 == expected => return Ok(rows),
                other => {
                    return Err(Failure::Damage(format!(
                        "listing damaged in flight: {other:?} after {} of {expected} row(s)",
                        rows.len()
                    )))
                }
            }
        }
    })
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
    let mut sent = false;
    Client::retry(addr, "shutting down daemon at", SESSION_RETRIES, |_| {
        let mut client = match Client::dial(transport, addr, read_timeout) {
            Err(_) if sent => return Ok(()),
            dialled => dialled?,
        };
        client.send(&Request::Shutdown)?;
        sent = true;
        match client.reply()? {
            Response::End => Ok(()),
            other => Err(unexpected(&other)),
        }
    })
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
/// `SESSION_RETRIES` (8) consecutive reconnects deliver no new update.
pub fn watch_to_end(
    transport: &dyn Transport,
    addr: &str,
    job: &str,
    after: u64,
    read_timeout: Duration,
    mut on_progress: impl FnMut(&Response),
) -> Result<Response> {
    let mut last_seq = after;
    let call = format!("watching {job} on");
    Client::retry(addr, &call, SESSION_RETRIES, |progressed| {
        let mut client = Client::dial(transport, addr, read_timeout)?;
        client.send(&Request::Watch {
            job: job.to_string(),
            after: last_seq,
        })?;
        loop {
            let response = client.reply()?;
            let Response::Progress { seq, state, .. } = &response else {
                return Err(unexpected(&response));
            };
            let terminal = state == "done" || state == "failed";
            // An acknowledged seq again is a keepalive or a replay
            // overlap, and dropped; an acknowledged terminal state is
            // still the end.
            if *seq > last_seq {
                last_seq = *seq;
                *progressed = true;
                on_progress(&response);
            }
            if terminal {
                return Ok(response);
            }
        }
    })
}
