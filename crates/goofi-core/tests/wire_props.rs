//! Property-based tests for the service wire protocol: every request,
//! response and worker event must survive an encode → decode round trip
//! bit-for-bit — including strings full of quotes, backslashes and
//! control characters — and the frame codec must treat torn or truncated
//! frame tails as damage, never as data.

use goofi_core::service::net::{encode_frame, FrameRead, FrameReader};
use goofi_core::service::{Request, Response, WorkerEvent};
use proptest::prelude::*;

/// Wire strings that stress the JSON escaper: quotes, backslashes,
/// newlines, tabs, braces, separators and plain text, empty included.
const NASTY: &str = "[a-zA-Z0-9 _.:,/{}\"\n\t\\\\-]{0,20}";

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u64>().prop_map(|version| Request::Hello { version }),
        (NASTY, NASTY, 1usize..512, any::<bool>(), NASTY).prop_map(
            |(id, campaign, workers, watch, target)| {
                Request::Submit {
                    id,
                    campaign,
                    workers,
                    watch,
                    target,
                }
            }
        ),
        (NASTY, any::<u64>()).prop_map(|(job, after)| Request::Watch { job, after }),
        Just(Request::Status),
        Just(Request::Shutdown),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u64>().prop_map(|version| Response::Hello { version }),
        NASTY.prop_map(|job| Response::Accepted { job }),
        (
            any::<u64>(),
            NASTY,
            NASTY,
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            NASTY,
        )
            .prop_map(
                |(seq, job, state, counts, shards, detail)| Response::Progress {
                    seq,
                    job,
                    state,
                    total: counts.0,
                    completed: counts.1,
                    failed: counts.2,
                    quarantined: counts.3,
                    shards_done: shards.0,
                    shards_total: shards.1,
                    shards_poisoned: shards.2,
                    detail,
                },
            ),
        any::<u64>().prop_map(|jobs| Response::Listing { jobs }),
        (NASTY, NASTY, NASTY).prop_map(|(job, campaign, state)| Response::Job {
            job,
            campaign,
            state,
        }),
        Just(Response::End),
        NASTY.prop_map(|detail| Response::Error { detail }),
    ]
}

fn arb_worker_event() -> impl Strategy<Value = WorkerEvent> {
    prop_oneof![
        (0usize..1024, 1u32..64).prop_map(|(shard, attempt)| WorkerEvent::Hello { shard, attempt }),
        (0usize..1024, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(shard, completed, failed, quarantined)| WorkerEvent::Progress {
                shard,
                completed,
                failed,
                quarantined,
            }
        ),
        (0usize..1024).prop_map(|shard| WorkerEvent::Done { shard }),
        (0usize..1024, NASTY, NASTY).prop_map(|(shard, kind, detail)| WorkerEvent::Error {
            shard,
            kind,
            detail,
        }),
    ]
}

/// Reads a byte stream to EOF, collecting intact frames and counting
/// damage reports.
fn drain(bytes: &[u8]) -> (Vec<String>, usize) {
    let mut reader = FrameReader::new(std::io::Cursor::new(bytes.to_vec()));
    let mut frames = Vec::new();
    let mut damaged = 0;
    loop {
        match reader.read_frame().expect("cursor reads cannot fail") {
            FrameRead::Frame(payload) => frames.push(payload),
            FrameRead::Malformed(_) => damaged += 1,
            FrameRead::Eof => return (frames, damaged),
        }
    }
}

proptest! {
    #[test]
    fn request_roundtrip(request in arb_request()) {
        let decoded = Request::decode(&request.encode());
        prop_assert_eq!(decoded.expect("round trip decodes"), request);
    }

    #[test]
    fn response_roundtrip(response in arb_response()) {
        let decoded = Response::decode(&response.encode());
        prop_assert_eq!(decoded.expect("round trip decodes"), response);
    }

    #[test]
    fn worker_event_roundtrip(event in arb_worker_event()) {
        let decoded = WorkerEvent::decode(&event.encode());
        prop_assert_eq!(decoded.expect("round trip decodes"), event);
    }

    #[test]
    fn sequenced_worker_event_roundtrip(event in arb_worker_event(), seq in any::<u64>()) {
        let line = event.encode_with_seq(seq);
        let (got_seq, got_event) =
            WorkerEvent::decode_with_seq(&line).expect("round trip decodes");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got_event, event);
    }

    /// A frame stream of two payloads reads back exactly those payloads.
    #[test]
    fn framed_payloads_roundtrip(a in NASTY, b in NASTY) {
        let mut bytes = encode_frame(&a);
        bytes.extend_from_slice(&encode_frame(&b));
        let (frames, damaged) = drain(&bytes);
        prop_assert_eq!(frames, vec![a, b]);
        prop_assert_eq!(damaged, 0);
    }

    /// Tearing a frame at any byte boundary must never panic, hang, or
    /// invent a payload: every intact frame the reader yields is one of
    /// the payloads actually sent, and a frame following the tear is
    /// either delivered intact or reported as damage — never mangled.
    #[test]
    fn torn_frame_tails_never_invent_payloads(
        a in NASTY,
        b in NASTY,
        cut_frac in 0usize..1000,
    ) {
        let torn = encode_frame(&a);
        let cut = cut_frac * torn.len() / 1000;
        let mut bytes = torn[..cut].to_vec();
        bytes.extend_from_slice(&encode_frame(&b));
        let (frames, damaged) = drain(&bytes);
        for frame in &frames {
            prop_assert!(
                frame == &a || frame == &b,
                "invented payload {:?} from torn stream", frame
            );
        }
        prop_assert!(
            !frames.is_empty() || damaged > 0,
            "tear swallowed every frame without a damage report"
        );
    }

    /// A truncated tail with nothing after it is damage or silence —
    /// never a delivered frame.
    #[test]
    fn truncated_final_frame_is_never_delivered(payload in NASTY, cut_frac in 0usize..1000) {
        let whole = encode_frame(&payload);
        let cut = cut_frac * (whole.len() - 1) / 1000;
        let (frames, _damaged) = drain(&whole[..cut]);
        prop_assert!(
            frames.is_empty(),
            "truncated frame decoded as {:?}", frames
        );
    }
}
