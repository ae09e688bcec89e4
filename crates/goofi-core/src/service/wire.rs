//! Flat-JSON wire protocol of the campaign service.
//!
//! Three message families share one flat-JSON line codec (the same
//! hand-rolled string/number/null object grammar the telemetry sinks
//! use — no nested values, one object per line):
//!
//! - [`Request`]: client → daemon (`goofi submit` → `goofi serve`);
//! - [`Response`]: daemon → client, including streamed progress lines;
//! - [`WorkerEvent`]: shard worker → daemon, on the worker's stdout. Its
//!   `progress` frames carry the shard's live counters; `done` names only
//!   the shard, whose final counts the daemon reads from its journal.
//!
//! On the wire each encoded message rides inside a length-prefixed,
//! checksummed frame ([`super::net`]); this module is the payload
//! grammar. Every decoder is total: malformed or truncated frames come
//! back as [`GoofiError::Wire`], never a panic — a hostile or half-dead
//! peer must not take the daemon down — and payloads past
//! [`net::MAX_FRAME`](super::net::MAX_FRAME) are rejected outright so a
//! garbage peer cannot balloon a receive buffer.
//!
//! Protocol hardening against a faulty network lives in three fields:
//! connections open with a [`Request::Hello`]/[`Response::Hello`] version
//! negotiation, submissions carry a client-chosen request `id` the
//! daemon deduplicates (so a retried submit never double-runs a
//! campaign), and progress/worker-event streams are sequence-numbered so
//! a resumed watch replays from the last acknowledged `seq` and dropped
//! or duplicated frames are detectable.

use super::net::MAX_FRAME;
use crate::telemetry::{parse_flat_json, push_json_str, JsonVal};
use crate::{GoofiError, Result};

/// A client request to the daemon, one JSON object per line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Version negotiation; must be the first frame on a connection.
    Hello {
        /// Highest protocol version the client speaks.
        version: u64,
    },
    /// Submit the named campaign (already stored in the daemon's
    /// database) as a job sharded over `workers` worker processes.
    Submit {
        /// Client-chosen request id. A daemon that already accepted this
        /// id returns the same job instead of submitting again, making
        /// client retries idempotent. Empty disables deduplication.
        id: String,
        /// Campaign name in the daemon's database.
        campaign: String,
        /// Requested shard/worker count (the daemon caps it at the
        /// campaign's experiment count); 0 asks for the daemon's default.
        workers: usize,
        /// Stream progress lines on this connection after `accepted`.
        watch: bool,
        /// Expected target system of the campaign (empty = don't care).
        /// The daemon rejects the submission when the stored campaign
        /// targets a different CPU — a guard against driving a campaign
        /// sampled for one chain layout into another core. Optional on
        /// the wire for compatibility with older clients.
        target: String,
    },
    /// Attach to an existing job and stream its progress.
    Watch {
        /// Job id, e.g. `job-3`.
        job: String,
        /// Replay progress with sequence numbers greater than this
        /// (0 = from the start) — how a reconnecting client resumes a
        /// stream without losing or repeating updates.
        after: u64,
    },
    /// List all jobs the daemon knows about.
    Status,
    /// Ask the daemon to shut down cleanly.
    Shutdown,
}

impl Request {
    /// Encodes to one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { version } => {
                format!("{{\"op\":\"hello\",\"version\":{version}}}")
            }
            Request::Submit {
                id,
                campaign,
                workers,
                watch,
                target,
            } => {
                let mut out = String::from("{\"op\":\"submit\",\"campaign\":");
                push_json_str(&mut out, campaign);
                out.push_str(&format!(",\"workers\":{workers}"));
                out.push_str(&format!(",\"watch\":{}", u8::from(*watch)));
                if !id.is_empty() {
                    out.push_str(",\"id\":");
                    push_json_str(&mut out, id);
                }
                if !target.is_empty() {
                    out.push_str(",\"target\":");
                    push_json_str(&mut out, target);
                }
                out.push('}');
                out
            }
            Request::Watch { job, after } => {
                let mut out = String::from("{\"op\":\"watch\",\"job\":");
                push_json_str(&mut out, job);
                out.push_str(&format!(",\"after\":{after}"));
                out.push('}');
                out
            }
            Request::Status => "{\"op\":\"status\"}".into(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".into(),
        }
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] on malformed frames or unknown operations.
    pub fn decode(line: &str) -> Result<Request> {
        let fields = Fields::parse(line)?;
        match fields.str("op")? {
            "hello" => Ok(Request::Hello {
                version: fields.num("version")?,
            }),
            "submit" => Ok(Request::Submit {
                id: fields.str_or("id", ""),
                campaign: fields.str("campaign")?.to_string(),
                workers: fields.num("workers")? as usize,
                watch: fields.num_or("watch", 0) != 0,
                target: fields.str_or("target", ""),
            }),
            "watch" => Ok(Request::Watch {
                job: fields.str("job")?.to_string(),
                after: fields.num_or("after", 0),
            }),
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(GoofiError::Wire(format!("unknown request op `{other}`"))),
        }
    }
}

/// A daemon response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Version negotiation reply: the daemon's side of the handshake.
    Hello {
        /// Protocol version the connection will speak (the minimum of
        /// both peers' versions).
        version: u64,
    },
    /// A submission was accepted and assigned a job id.
    Accepted {
        /// The new job's id.
        job: String,
    },
    /// One live progress update of a watched job. The final progress line
    /// of a stream has a terminal `state` (`done` or `failed`).
    Progress {
        /// Monotonic per-job sequence number; a resumed watch replays
        /// from here, and clients drop frames whose `seq` they already
        /// acknowledged (keepalives repeat the latest `seq` on purpose).
        seq: u64,
        /// Job id.
        job: String,
        /// Job state: `queued`, `running`, `done` or `failed`.
        state: String,
        /// Experiments in the campaign.
        total: u64,
        /// Experiments completed across all shards.
        completed: u64,
        /// Experiments that failed despite per-experiment policy.
        failed: u64,
        /// Records quarantined (including poison-shard stubs).
        quarantined: u64,
        /// Shards finished.
        shards_done: u64,
        /// Shards total.
        shards_total: u64,
        /// Shards quarantined as poison.
        shards_poisoned: u64,
        /// Failure detail when `state` is `failed`, else empty.
        detail: String,
    },
    /// Header of a `status` listing: how many [`Response::Job`] rows
    /// follow before [`Response::End`]. Lets a client detect a listing
    /// damaged in flight (a dropped, duplicated or reordered-past-`End`
    /// row changes the count) and retry instead of trusting it.
    Listing {
        /// Number of job rows that follow.
        jobs: u64,
    },
    /// One job summary line of a `status` listing.
    Job {
        /// Job id.
        job: String,
        /// Campaign name.
        campaign: String,
        /// Job state.
        state: String,
    },
    /// End of a `status` listing or shutdown acknowledgement.
    End,
    /// The request failed.
    Error {
        /// What went wrong.
        detail: String,
    },
}

impl Response {
    /// Encodes to one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Hello { version } => {
                format!("{{\"ok\":\"hello\",\"version\":{version}}}")
            }
            Response::Accepted { job } => {
                let mut out = String::from("{\"ok\":\"accepted\",\"job\":");
                push_json_str(&mut out, job);
                out.push('}');
                out
            }
            Response::Progress {
                seq,
                job,
                state,
                total,
                completed,
                failed,
                quarantined,
                shards_done,
                shards_total,
                shards_poisoned,
                detail,
            } => {
                let mut out = format!("{{\"ok\":\"progress\",\"seq\":{seq},\"job\":");
                push_json_str(&mut out, job);
                out.push_str(",\"state\":");
                push_json_str(&mut out, state);
                out.push_str(&format!(
                    ",\"total\":{total},\"completed\":{completed},\"failed\":{failed},\
                     \"quarantined\":{quarantined},\"shards_done\":{shards_done},\
                     \"shards_total\":{shards_total},\"shards_poisoned\":{shards_poisoned},\
                     \"detail\":"
                ));
                push_json_str(&mut out, detail);
                out.push('}');
                out
            }
            Response::Listing { jobs } => {
                format!("{{\"ok\":\"listing\",\"jobs\":{jobs}}}")
            }
            Response::Job {
                job,
                campaign,
                state,
            } => {
                let mut out = String::from("{\"ok\":\"job\",\"job\":");
                push_json_str(&mut out, job);
                out.push_str(",\"campaign\":");
                push_json_str(&mut out, campaign);
                out.push_str(",\"state\":");
                push_json_str(&mut out, state);
                out.push('}');
                out
            }
            Response::End => "{\"ok\":\"end\"}".into(),
            Response::Error { detail } => {
                let mut out = String::from("{\"ok\":\"error\",\"detail\":");
                push_json_str(&mut out, detail);
                out.push('}');
                out
            }
        }
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] on malformed frames or unknown kinds.
    pub fn decode(line: &str) -> Result<Response> {
        let fields = Fields::parse(line)?;
        match fields.str("ok")? {
            "hello" => Ok(Response::Hello {
                version: fields.num("version")?,
            }),
            "accepted" => Ok(Response::Accepted {
                job: fields.str("job")?.to_string(),
            }),
            "progress" => Ok(Response::Progress {
                seq: fields.num_or("seq", 0),
                job: fields.str("job")?.to_string(),
                state: fields.str("state")?.to_string(),
                total: fields.num("total")?,
                completed: fields.num("completed")?,
                failed: fields.num("failed")?,
                quarantined: fields.num("quarantined")?,
                shards_done: fields.num("shards_done")?,
                shards_total: fields.num("shards_total")?,
                shards_poisoned: fields.num("shards_poisoned")?,
                detail: fields.str_or("detail", ""),
            }),
            "listing" => Ok(Response::Listing {
                jobs: fields.num("jobs")?,
            }),
            "job" => Ok(Response::Job {
                job: fields.str("job")?.to_string(),
                campaign: fields.str("campaign")?.to_string(),
                state: fields.str("state")?.to_string(),
            }),
            "end" => Ok(Response::End),
            "error" => Ok(Response::Error {
                detail: fields.str_or("detail", ""),
            }),
            other => Err(GoofiError::Wire(format!("unknown response kind `{other}`"))),
        }
    }
}

/// An event a shard worker writes on its own stdout for the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEvent {
    /// The worker came up and claimed its shard.
    Hello {
        /// Shard index.
        shard: usize,
        /// Lease attempt (1-based).
        attempt: u32,
    },
    /// Live counters; a change of counters renews the shard lease.
    Progress {
        /// Shard index.
        shard: usize,
        /// Experiments completed in this shard (journal replays included).
        completed: u64,
        /// Experiments failed.
        failed: u64,
        /// Records quarantined.
        quarantined: u64,
    },
    /// The shard finished. Its final counters went out in the progress
    /// frame before this one; the daemon counts a finished shard from its
    /// journal.
    Done {
        /// Shard index.
        shard: usize,
    },
    /// The shard cannot continue on this worker.
    Error {
        /// Shard index.
        shard: usize,
        /// Error class, e.g. `target-offline`.
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl WorkerEvent {
    /// Encodes to one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WorkerEvent::Hello { shard, attempt } => {
                format!("{{\"ev\":\"hello\",\"shard\":{shard},\"attempt\":{attempt}}}")
            }
            WorkerEvent::Progress {
                shard,
                completed,
                failed,
                quarantined,
            } => format!(
                "{{\"ev\":\"progress\",\"shard\":{shard},\"completed\":{completed},\
                 \"failed\":{failed},\"quarantined\":{quarantined}}}"
            ),
            WorkerEvent::Done { shard } => format!("{{\"ev\":\"done\",\"shard\":{shard}}}"),
            WorkerEvent::Error {
                shard,
                kind,
                detail,
            } => {
                let mut out = format!("{{\"ev\":\"error\",\"shard\":{shard},\"kind\":");
                push_json_str(&mut out, kind);
                out.push_str(",\"detail\":");
                push_json_str(&mut out, detail);
                out.push('}');
                out
            }
        }
    }

    /// [`WorkerEvent::encode`] with a sequence number appended: what a
    /// worker actually emits. The daemon drops events whose `seq` it has
    /// already seen, which makes duplicated or reordered stdout frames
    /// (a `--net-chaos` drill, or a pipe replay) harmless.
    pub fn encode_with_seq(&self, seq: u64) -> String {
        let encoded = self.encode();
        format!("{},\"seq\":{seq}}}", &encoded[..encoded.len() - 1])
    }

    /// Decodes one line plus its sequence number (0 when absent — legacy
    /// frames sort before any sequenced one).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] on malformed frames or unknown kinds.
    pub fn decode_with_seq(line: &str) -> Result<(u64, WorkerEvent)> {
        let seq = Fields::parse(line)?.num_or("seq", 0);
        Ok((seq, WorkerEvent::decode(line)?))
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Wire`] on malformed frames or unknown kinds.
    pub fn decode(line: &str) -> Result<WorkerEvent> {
        let fields = Fields::parse(line)?;
        let shard = fields.num("shard")? as usize;
        match fields.str("ev")? {
            "hello" => Ok(WorkerEvent::Hello {
                shard,
                attempt: fields.num("attempt")? as u32,
            }),
            "progress" => Ok(WorkerEvent::Progress {
                shard,
                completed: fields.num("completed")?,
                failed: fields.num("failed")?,
                quarantined: fields.num("quarantined")?,
            }),
            "done" => Ok(WorkerEvent::Done { shard }),
            "error" => Ok(WorkerEvent::Error {
                shard,
                kind: fields.str("kind")?.to_string(),
                detail: fields.str_or("detail", ""),
            }),
            other => Err(GoofiError::Wire(format!("unknown worker event `{other}`"))),
        }
    }
}

/// Decoded flat-JSON fields with typed, error-mapped accessors.
struct Fields(Vec<(String, JsonVal)>);

impl Fields {
    fn parse(line: &str) -> Result<Fields> {
        if line.len() > MAX_FRAME {
            return Err(GoofiError::Wire(format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                line.len()
            )));
        }
        parse_flat_json(line).map(Fields).ok_or_else(|| {
            let mut shown: String = line.chars().take(120).collect();
            if shown.len() < line.len() {
                shown.push('…');
            }
            GoofiError::Wire(format!("malformed frame: {shown}"))
        })
    }

    fn get(&self, key: &str) -> Option<&JsonVal> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str(&self, key: &str) -> Result<&str> {
        match self.get(key) {
            Some(JsonVal::Str(s)) => Ok(s),
            _ => Err(GoofiError::Wire(format!("missing string field `{key}`"))),
        }
    }

    fn str_or(&self, key: &str, default: &str) -> String {
        match self.get(key) {
            Some(JsonVal::Str(s)) => s.clone(),
            _ => default.to_string(),
        }
    }

    fn num(&self, key: &str) -> Result<u64> {
        match self.get(key) {
            Some(JsonVal::Num(n)) => Ok(*n),
            _ => Err(GoofiError::Wire(format!("missing numeric field `{key}`"))),
        }
    }

    fn num_or(&self, key: &str, default: u64) -> u64 {
        match self.get(key) {
            Some(JsonVal::Num(n)) => *n,
            _ => default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Hello { version: 2 },
            Request::Submit {
                id: String::new(),
                campaign: "c one \"quoted\"".into(),
                workers: 4,
                watch: true,
                target: String::new(),
            },
            Request::Submit {
                id: "host-17-42".into(),
                campaign: "c2".into(),
                workers: 1,
                watch: false,
                target: "rv32i".into(),
            },
            // 0 asks for the daemon's default and must reach it as sent.
            Request::Submit {
                id: String::new(),
                campaign: "c3".into(),
                workers: 0,
                watch: true,
                target: String::new(),
            },
            Request::Watch {
                job: "job-7".into(),
                after: 0,
            },
            Request::Watch {
                job: "job-7".into(),
                after: 31,
            },
            Request::Status,
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Hello { version: 2 },
            Response::Accepted {
                job: "job-1".into(),
            },
            Response::Progress {
                seq: 17,
                job: "job-1".into(),
                state: "running".into(),
                total: 30,
                completed: 12,
                failed: 1,
                quarantined: 2,
                shards_done: 1,
                shards_total: 3,
                shards_poisoned: 0,
                detail: String::new(),
            },
            Response::Job {
                job: "job-2".into(),
                campaign: "c1".into(),
                state: "done".into(),
            },
            Response::End,
            Response::Error {
                detail: "no such campaign".into(),
            },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn worker_events_roundtrip() {
        let events = [
            WorkerEvent::Hello {
                shard: 2,
                attempt: 3,
            },
            WorkerEvent::Progress {
                shard: 0,
                completed: 5,
                failed: 0,
                quarantined: 0,
            },
            WorkerEvent::Done { shard: 1 },
            WorkerEvent::Error {
                shard: 0,
                kind: "target-offline".into(),
                detail: "ladder exhausted\nmid \"probe\"".into(),
            },
        ];
        for event in events {
            assert_eq!(WorkerEvent::decode(&event.encode()).unwrap(), event);
        }
    }

    #[test]
    fn worker_events_roundtrip_with_sequence_numbers() {
        let event = WorkerEvent::Progress {
            shard: 1,
            completed: 4,
            failed: 0,
            quarantined: 1,
        };
        let line = event.encode_with_seq(9);
        assert_eq!(WorkerEvent::decode_with_seq(&line).unwrap(), (9, event));
        // Legacy frames without a seq decode as seq 0.
        let legacy = WorkerEvent::Done { shard: 0 };
        assert_eq!(
            WorkerEvent::decode_with_seq(&legacy.encode()).unwrap(),
            (0, legacy)
        );
    }

    #[test]
    fn oversized_frames_are_rejected_naming_the_cap() {
        let mut line = String::from("{\"op\":\"submit\",\"campaign\":\"");
        line.push_str(&"x".repeat(MAX_FRAME));
        line.push_str("\"}");
        for err in [
            Request::decode(&line).unwrap_err(),
            Response::decode(&line).unwrap_err(),
            WorkerEvent::decode(&line).unwrap_err(),
        ] {
            let text = err.to_string();
            assert!(text.contains("65536-byte cap"), "{text}");
        }
    }

    #[test]
    fn malformed_frames_error_without_panicking() {
        let bad = [
            "",
            "{",
            "{\"op\":\"submit\"", // truncated
            "not json at all",
            "{\"op\":\"submit\"}",     // missing fields
            "{\"op\":\"explode\"}",    // unknown op
            "{\"ok\":\"progress\"}",   // missing counters
            "{\"ev\":\"hello\"}",      // missing shard
            "{\"ev\":42,\"shard\":0}", // wrong type
        ];
        for line in bad {
            assert!(Request::decode(line).is_err(), "request: {line}");
            assert!(Response::decode(line).is_err(), "response: {line}");
            assert!(WorkerEvent::decode(line).is_err(), "event: {line}");
        }
    }

    #[test]
    fn wire_errors_truncate_long_frames() {
        let long = "x".repeat(1000);
        let err = Request::decode(&long).unwrap_err();
        assert!(err.to_string().len() < 300);
        assert!(err.to_string().contains('…'));
    }
}
