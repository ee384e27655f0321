//! Property tests of the dali-net wire protocol.
//!
//! Three families:
//!
//! * **Round-trip**: arbitrary requests, responses and wire errors
//!   survive encode → frame → unframe → decode unchanged, so the client
//!   and server can never disagree about a well-formed message.
//! * **In-place framing**: a run of messages framed back to back into
//!   one buffer (the server's reply run, the client's pipelined batch)
//!   is byte-identical to the concatenation of their one-frame
//!   encodings, and the incremental parser walks it back.
//! * **Adversarial input**: arbitrary garbage bytes, bit-flipped frames
//!   and truncations of valid frames produce a structured protocol
//!   error (`DaliError::InvalidArg` / `Io`) — never a panic and never a
//!   huge allocation — which is what lets the server keep its promise
//!   that a malicious or broken peer cannot take it down.
//!
//! CI raises the case count via `PROPTEST_CASES`, as with the lock-model
//! suite.

use dali::net::protocol::{
    encode_request, encode_response, frame, parse_frame, read_frame, HealthReport, MetricsReport,
    RepairSummary, Request, Response, ServerStats, VerbMetrics, WireError, MAX_FRAME,
};
use dali::{DbAddr, RecId, SlotId, TableId, TxnId};
use proptest::prelude::*;

fn arb_rec() -> impl Strategy<Value = RecId> {
    (any::<u32>(), any::<u32>()).prop_map(|(t, s)| RecId::new(TableId(t), SlotId(s)))
}

/// Short ASCII table names (the only strings requests carry).
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..=122, 0..16)
        .prop_map(|v| String::from_utf8(v).expect("ascii range"))
}

fn arb_blob() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..200)
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Begin),
        arb_rec().prop_map(|rec| Request::Read { rec }),
        (any::<u32>(), arb_blob()).prop_map(|(t, data)| Request::Insert {
            table: TableId(t),
            data,
        }),
        (arb_rec(), arb_blob()).prop_map(|(rec, data)| Request::Update { rec, data }),
        arb_rec().prop_map(|rec| Request::Delete { rec }),
        arb_rec().prop_map(|rec| Request::LockExclusive { rec }),
        Just(Request::Commit),
        Just(Request::Abort),
        (arb_name(), any::<u32>(), any::<u64>()).prop_map(|(name, rec_size, capacity)| {
            Request::CreateTable {
                name,
                rec_size,
                capacity,
            }
        }),
        arb_name().prop_map(|name| Request::OpenTable { name }),
        any::<u32>().prop_map(|t| Request::RecordCount { table: TableId(t) }),
        Just(Request::Audit),
        Just(Request::Stats),
        Just(Request::Ping),
        any::<u64>().prop_map(|region| Request::Repair { region }),
        Just(Request::Health),
        Just(Request::Metrics),
    ]
}

fn arb_wire_error() -> impl Strategy<Value = WireError> {
    prop_oneof![
        (any::<u64>(), arb_rec()).prop_map(|(t, rec)| WireError::LockDenied { txn: TxnId(t), rec }),
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()).prop_map(
            |(addr, len, expected, actual)| WireError::CorruptionDetected {
                addr: DbAddr(addr as usize),
                len,
                expected,
                actual,
            }
        ),
        any::<u64>().prop_map(|a| WireError::WriteFault {
            addr: DbAddr(a as usize),
        }),
        any::<u64>().prop_map(|t| WireError::TxnAborted(TxnId(t))),
        arb_name().prop_map(WireError::NotFound),
        arb_name().prop_map(WireError::OutOfSpace),
        arb_name().prop_map(WireError::InvalidArg),
        arb_name().prop_map(WireError::RecoveryFailed),
        Just(WireError::Crashed),
        arb_name().prop_map(WireError::Io),
        Just(WireError::NoTxn),
        Just(WireError::TxnAlreadyOpen),
        Just(WireError::ConnectionClosed),
    ]
}

fn arb_stats() -> impl Strategy<Value = ServerStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(a, b, c, d, e, f)| ServerStats {
            commits: a,
            aborts: b,
            fsyncs: c,
            log_flushes: d,
            durable_commits: e,
            piggybacked: f,
            sessions: c ^ d,
            orphans_rolled_back: e ^ f,
            audits_run: c ^ e,
            audit_regions: d ^ f,
            audit_bytes_folded: a ^ f,
            audit_ns: c ^ f,
            certify_regions_certified: a ^ d,
            certify_regions_skipped: b ^ e,
            audit_latch_brackets: c.wrapping_add(f),
            repair_attempted: d ^ e,
            repair_succeeded: a.wrapping_add(b),
            repair_bytes_rebuilt: a.wrapping_mul(3),
            conns_rejected: a ^ b ^ c,
            frames_pipelined: d.wrapping_add(e),
            read_parks: b ^ c ^ d,
            exec_queue_depth: e ^ a,
            exec_queue_max: f ^ b,
            loop_iterations: a.wrapping_add(f),
            outbound_buffered_max: b.wrapping_mul(5),
            log_segments_active: c.wrapping_add(d),
            log_segments_retired: e.wrapping_mul(7),
            log_bytes_on_disk: f ^ a ^ b,
        })
}

fn arb_health() -> impl Strategy<Value = HealthReport> {
    (any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(healthy, conns_open, exec_queue_depth, uptime_ns)| HealthReport {
            healthy,
            conns_open,
            exec_queue_depth,
            uptime_ns,
        },
    )
}

fn arb_metrics() -> impl Strategy<Value = MetricsReport> {
    let verb = (
        any::<u8>(),
        1u64..u64::MAX,
        any::<u64>(),
        proptest::collection::vec((0u8..64, 1u64..u64::MAX), 0..8),
    )
        .prop_map(|(verb, count, total_ns, mut buckets)| {
            // The wire format carries buckets ascending and unique.
            buckets.sort_by_key(|&(i, _)| i);
            buckets.dedup_by_key(|&mut (i, _)| i);
            VerbMetrics {
                verb,
                count,
                total_ns,
                buckets,
            }
        });
    (any::<u64>(), proptest::collection::vec(verb, 0..6)).prop_map(|(uptime_ns, mut verbs)| {
        verbs.sort_by_key(|v| v.verb);
        verbs.dedup_by_key(|v| v.verb);
        MetricsReport { uptime_ns, verbs }
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        any::<u64>().prop_map(|t| Response::Began { txn: TxnId(t) }),
        arb_blob().prop_map(Response::Data),
        arb_rec().prop_map(|rec| Response::Inserted { rec }),
        any::<u32>().prop_map(|t| Response::Table { table: TableId(t) }),
        any::<u64>().prop_map(Response::Count),
        (any::<bool>(), any::<u64>()).prop_map(|(clean, regions_checked)| Response::Audited {
            clean,
            regions_checked,
        }),
        arb_stats().prop_map(Response::Stats),
        arb_health().prop_map(Response::Health),
        arb_metrics().prop_map(Response::Metrics),
        arb_wire_error().prop_map(Response::Err),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(regions, bytes_written, records_replayed)| {
                Response::Repaired(RepairSummary {
                    regions,
                    bytes_written,
                    records_replayed,
                })
            }
        ),
    ]
}

proptest! {
    /// encode → frame → unframe → decode is the identity on requests.
    #[test]
    fn request_round_trips_through_a_frame(req in arb_request()) {
        let payload = encode_request(&req);
        let wire = frame(&payload);
        let mut cursor = &wire[..];
        let got = read_frame(&mut cursor).unwrap().expect("one frame");
        prop_assert_eq!(Request::decode(&got).unwrap(), req);
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// encode → frame → unframe → decode is the identity on responses
    /// (including every structured error variant).
    #[test]
    fn response_round_trips_through_a_frame(resp in arb_response()) {
        let payload = encode_response(&resp);
        let wire = frame(&payload);
        let mut cursor = &wire[..];
        let got = read_frame(&mut cursor).unwrap().expect("one frame");
        prop_assert_eq!(Response::decode(&got).unwrap(), resp);
    }

    /// A reply run framed in place equals the concatenation of
    /// `frame(&encode_response(r))`, and `parse_frame` walks it back to
    /// the same replies.
    #[test]
    fn reply_run_framed_in_place_is_byte_identical(
        resps in proptest::collection::vec(arb_response(), 0..8),
    ) {
        let mut run = Vec::new();
        let mut reference = Vec::new();
        for resp in &resps {
            resp.frame_into(&mut run);
            reference.extend_from_slice(&frame(&encode_response(resp)));
        }
        prop_assert_eq!(&run[..], &reference[..]);
        let mut rest = &run[..];
        for resp in &resps {
            let (payload, consumed) = parse_frame(rest).unwrap().expect("a whole frame");
            prop_assert_eq!(&Response::decode(payload).unwrap(), resp);
            rest = &rest[consumed..];
        }
        prop_assert!(rest.is_empty());
    }

    /// The same for a pipelined request batch, the client's side.
    #[test]
    fn request_batch_framed_in_place_is_byte_identical(
        reqs in proptest::collection::vec(arb_request(), 0..8),
    ) {
        let mut batch = Vec::new();
        let mut reference = Vec::new();
        for req in &reqs {
            req.frame_into(&mut batch);
            reference.extend_from_slice(&frame(&encode_request(req)));
        }
        prop_assert_eq!(&batch[..], &reference[..]);
        let mut rest = &batch[..];
        for req in &reqs {
            let (payload, consumed) = parse_frame(rest).unwrap().expect("a whole frame");
            prop_assert_eq!(&Request::decode(payload).unwrap(), req);
            rest = &rest[consumed..];
        }
        prop_assert!(rest.is_empty());
    }

    /// Arbitrary garbage fed to the frame reader returns a structured
    /// error or a (luckily) checksum-valid frame — never a panic. Any
    /// frame that does come out decodes without panicking too.
    #[test]
    fn garbage_bytes_never_panic_the_reader(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut cursor = &bytes[..];
        if let Ok(Some(payload)) = read_frame(&mut cursor) {
            let _ = Request::decode(&payload);
            let _ = Response::decode(&payload);
        }
    }

    /// Any strict truncation of a valid frame errors (or reports clean
    /// EOF for the empty prefix) — it must never yield a payload.
    #[test]
    fn truncated_frames_error_not_panic(req in arb_request(), cut in any::<u16>()) {
        let payload = encode_request(&req);
        let wire = frame(&payload);
        let cut = cut as usize % wire.len();
        let mut cursor = &wire[..cut];
        match read_frame(&mut cursor) {
            Ok(None) => prop_assert!(cut == 0, "clean EOF from non-empty prefix of {cut} bytes"),
            Ok(Some(_)) => prop_assert!(false, "payload from a truncated frame"),
            Err(_) => {}
        }
    }

    /// A single flipped bit anywhere in a frame never reaches the
    /// application as a message: payload and checksum flips fail the
    /// checksum, length-growing flips fail as truncation, and the one
    /// gap in the frame layer — a length-shrinking flip that shaves
    /// trailing bytes whose XOR-fold contribution is zero — hands decode
    /// a strict prefix of a valid encoding, which always errors (the
    /// last field comes up short).
    #[test]
    fn bit_flips_are_detected(req in arb_request(), pos in any::<u16>(), bit in 0u8..8) {
        let payload = encode_request(&req);
        let mut wire = frame(&payload);
        let pos = pos as usize % wire.len();
        wire[pos] ^= 1 << bit;
        let mut cursor = &wire[..];
        if let Ok(Some(got)) = read_frame(&mut cursor) {
            prop_assert!(
                Request::decode(&got).is_err(),
                "corrupt frame decoded as a message"
            );
        }
    }
}

/// An absurd length prefix is rejected before any allocation happens.
#[test]
fn oversized_length_rejected_before_allocation() {
    let mut header = Vec::new();
    header.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    let mut cursor = &header[..];
    assert!(read_frame(&mut cursor).is_err());
}
