//! Frame pipelining and backpressure on the event-driven server.
//!
//! Five families:
//!
//! * **Ordering under fragmentation** (proptest): K pipelined frames,
//!   written to the socket in arbitrary chunk sizes so the server's
//!   read-accumulate path sees torn headers and split payloads, come
//!   back as exactly K responses in receive order. This is the wire
//!   contract that lets a client match responses to requests by
//!   position alone.
//! * **Slow consumer**: a client that pipelines far more response bytes
//!   than it drains must *park* the server's read side (TCP
//!   backpressure), not balloon its buffers — the outbound watermark
//!   stays within `budget + depth × frame`, orders of magnitude below
//!   the response volume.
//! * **Pipeline depth**: a burst longer than the pipeline depth parks
//!   the read side and is still answered whole, in order.
//! * **One session run**: a burst the server may execute as one run
//!   threads the connection's transaction through it — engine errors,
//!   `NoTxn` and a trailing protocol error land at their positions, and
//!   no transaction outlives the connection.
//! * **Client wire bytes**: `DaliClient::pipeline` sends exactly the
//!   concatenated request frames and reassembles replies that arrive in
//!   arbitrary fragments; a batch larger than the socket buffers both
//!   ways completes.

use dali::net::protocol::{
    encode_request, encode_response, frame, read_frame, Request, Response, WireError,
};
use dali::net::server::{OUTBOUND_BUDGET, PIPELINE_DEPTH};
use dali::net::{DaliClient, DaliServer};
use dali::{DaliConfig, DaliEngine, ProtectionScheme, RecId, SlotId};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn server_with(
    name: &str,
    tweak: impl FnOnce(DaliConfig) -> DaliConfig,
) -> (DaliServer, dali_testutil::TempDir) {
    let dir = dali_testutil::TempDir::new(name);
    let config = tweak(DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword));
    let (engine, _) = DaliEngine::create(config).unwrap();
    let server = DaliServer::start(engine, "127.0.0.1:0").unwrap();
    (server, dir)
}

/// Write `bytes` to `stream` split at the given cut points, nudging the
/// scheduler between chunks so the server observes genuinely partial
/// frames (not one coalesced buffer).
fn write_fragmented(stream: &mut TcpStream, bytes: &[u8], cuts: &[usize]) {
    let mut pos = 0;
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % bytes.len().max(1)).collect();
    cuts.sort_unstable();
    for cut in cuts {
        if cut > pos {
            stream.write_all(&bytes[pos..cut]).unwrap();
            stream.flush().unwrap();
            std::thread::yield_now();
            pos = cut;
        }
    }
    stream.write_all(&bytes[pos..]).unwrap();
    stream.flush().unwrap();
}

fn read_n_responses(stream: &mut TcpStream, n: usize) -> Vec<Response> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let payload = read_frame(stream).unwrap().expect("response frame");
        out.push(Response::decode(&payload).unwrap());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// K pipelined frames, fragmented arbitrarily on the wire, produce
    /// exactly K responses in receive order.
    #[test]
    fn pipelined_frames_answered_in_order_under_fragmentation(
        k in 1usize..24,
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let (server, _dir) = server_with("net-pipe-order", |c| c);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();

        let mut dc = DaliClient::connect(server.addr()).unwrap();
        let table = dc.create_table("t", 8, 4096).unwrap();

        // A burst mixing txn verbs, inserts, and pings. The responses
        // are checked positionally, and the inserted slot ids must come
        // back ascending — on a fresh table slots allocate sequentially,
        // so any out-of-order answer reorders the ids.
        let mut burst = vec![Request::Begin];
        for i in 0..k {
            if i % 3 == 2 {
                burst.push(Request::Ping);
            } else {
                burst.push(Request::Insert { table, data: vec![i as u8; 8] });
            }
        }
        burst.push(Request::Commit);

        let mut wire = Vec::new();
        for req in &burst {
            wire.extend_from_slice(&frame(&encode_request(req)));
        }
        write_fragmented(&mut stream, &wire, &cuts);

        let resps = read_n_responses(&mut stream, burst.len());
        prop_assert_eq!(resps.len(), burst.len());
        for (i, (req, resp)) in burst.iter().zip(&resps).enumerate() {
            let ok = match req {
                Request::Begin => matches!(resp, Response::Began { .. }),
                Request::Insert { .. } => matches!(resp, Response::Inserted { .. }),
                Request::Ping | Request::Commit => matches!(resp, Response::Ok),
                _ => unreachable!(),
            };
            prop_assert!(ok, "response {} does not answer its request: {:?}", i, resp);
        }
        let slots: Vec<u32> = resps
            .iter()
            .filter_map(|r| match r {
                Response::Inserted { rec } => Some(rec.slot.0),
                _ => None,
            })
            .collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        prop_assert_eq!(slots, sorted, "pipelined inserts answered out of receive order");
        server.shutdown();
    }
}

/// A consumer that stops reading must park the server's read side. The
/// burst asks for ~32 MiB of responses; the kernel's socket buffers
/// absorb a few MiB at most, after which the outbound budget (1 MiB)
/// parks further decoding. The provable buffering bound is
/// `budget + pipeline_depth × frame` — in-flight requests admitted
/// before the budget tripped may still deliver their responses — which
/// here is ~¹⁄₂₅ of the response volume. Once the consumer drains,
/// every response arrives in order and intact.
#[test]
fn slow_consumer_parks_reads_and_bounds_buffering() {
    const REC: usize = 4096;
    const FRAME_OVERHEAD: usize = 64;
    const BUDGET: usize = OUTBOUND_BUDGET;
    const DEPTH: usize = PIPELINE_DEPTH;
    const N: usize = 8192;
    let (server, _dir) = server_with("net-pipe-slow", |c| c);

    // Seed one fat record.
    let mut seeder = DaliClient::connect(server.addr()).unwrap();
    let table = seeder.create_table("fat", REC, 16).unwrap();
    seeder.begin().unwrap();
    let rec = seeder.insert(table, &vec![0xabu8; REC]).unwrap();
    seeder.commit().unwrap();

    // The slow consumer: one write of Begin + N reads of the fat
    // record, then no reading at all until the server has parked.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut wire = Vec::new();
    wire.extend_from_slice(&frame(&encode_request(&Request::Begin)));
    let read_frame_bytes = frame(&encode_request(&Request::Read { rec }));
    for _ in 0..N {
        wire.extend_from_slice(&read_frame_bytes);
    }
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();

    // Wait (without consuming) until responses have queued past the
    // budget and a park is recorded.
    let bound = (BUDGET + DEPTH * (REC + FRAME_OVERHEAD)) as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = seeder.stats().unwrap();
        if stats.read_parks > 0 && stats.outbound_buffered_max > BUDGET as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never parked the slow consumer (parks={}, watermark={})",
            stats.read_parks,
            stats.outbound_buffered_max
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Drain: all N+1 responses arrive, in order, intact.
    let resps = read_n_responses(&mut stream, N + 1);
    assert!(matches!(resps[0], Response::Began { .. }));
    for r in &resps[1..] {
        match r {
            Response::Data(d) => assert_eq!(d.as_slice(), &[0xabu8; REC][..]),
            other => panic!("expected Data, got {other:?}"),
        }
    }
    let stats = seeder.stats().unwrap();
    assert!(
        stats.outbound_buffered_max <= bound,
        "outbound watermark {} exceeds bound {} (budget {} + {}×frame); \
         buffering is not bounded by the budget",
        stats.outbound_buffered_max,
        bound,
        BUDGET,
        DEPTH
    );
    assert!(stats.frames_pipelined > 0, "burst never overlapped");
    server.shutdown();
}

/// A burst of 200 frames in one write is more than the pipeline depth:
/// the connection parks its reads once the depth is reached, and every
/// frame is still answered, in order. The frames are `Begin, Abort`
/// pairs, so an answer out of order shows as a misuse error or a
/// transaction id that does not rise.
#[test]
fn a_burst_past_the_pipeline_depth_parks_and_answers_in_order() {
    const N: usize = 200;
    const { assert!(N > PIPELINE_DEPTH) };
    let (server, _dir) = server_with("net-pipe-burst", |c| c);
    let mut client = DaliClient::connect(server.addr()).unwrap();
    let reqs: Vec<Request> = (0..N / 2)
        .flat_map(|_| [Request::Begin, Request::Abort])
        .collect();
    let resps = client.pipeline(&reqs).unwrap();
    assert_eq!(resps.len(), N);
    let mut last = None;
    for pair in resps.chunks(2) {
        let [Response::Began { txn }, Response::Ok] = pair else {
            panic!("expected Began then Ok, got {pair:?}");
        };
        assert!(last < Some(*txn), "{last:?} then {txn:?}");
        last = Some(*txn);
    }
    let stats = client.stats().unwrap();
    assert!(
        stats.read_parks > 0,
        "a {N}-frame burst must park at depth {PIPELINE_DEPTH} at least once"
    );
    server.shutdown();
}

/// One raw burst — `Begin, Update, Commit, Begin, Read(free slot), Read,
/// Abort, Read`, then a garbage frame — written in one go, so the
/// server can take it as one run. The transaction slot is threaded
/// through the run: the replies arrive in order with the engine error
/// and the trailing `NoTxn` at their positions, then the protocol error,
/// then the close; and a second connection can lock the updated record,
/// so no transaction leaked out of the run.
#[test]
fn txn_slot_threads_through_one_coalesced_run() {
    let (server, _dir) = server_with("net-pipe-run", |c| c);
    let mut seeder = DaliClient::connect(server.addr()).unwrap();
    let table = seeder.create_table("t", 8, 16).unwrap();
    seeder.begin().unwrap();
    let rec = seeder.insert(table, &[1u8; 8]).unwrap();
    seeder.commit().unwrap();
    let free = RecId::new(table, SlotId(rec.slot.0 + 1));

    let burst = [
        Request::Begin,
        Request::Update {
            rec,
            data: vec![2u8; 8],
        },
        Request::Commit,
        Request::Begin,
        Request::Read { rec: free },
        Request::Read { rec },
        Request::Abort,
        Request::Read { rec },
    ];
    let mut wire: Vec<u8> = burst
        .iter()
        .flat_map(|r| frame(&encode_request(r)))
        .collect();
    // A frame whose checksum does not match its payload.
    wire.extend_from_slice(&[4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4]);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&wire).unwrap();

    let resps = read_n_responses(&mut stream, burst.len() + 1);
    assert!(matches!(resps[0], Response::Began { .. }), "{resps:?}");
    assert_eq!(resps[1..3], [Response::Ok, Response::Ok], "{resps:?}");
    assert!(matches!(resps[3], Response::Began { .. }), "{resps:?}");
    assert!(
        matches!(resps[4], Response::Err(WireError::NotFound(_))),
        "{resps:?}"
    );
    assert_eq!(resps[5], Response::Data(vec![2u8; 8]), "{resps:?}");
    assert_eq!(resps[6], Response::Ok, "{resps:?}");
    assert_eq!(resps[7], Response::Err(WireError::NoTxn), "{resps:?}");
    assert!(
        matches!(resps[8], Response::Err(WireError::InvalidArg(_))),
        "{resps:?}"
    );
    assert!(
        matches!(read_frame(&mut stream), Ok(None)),
        "the connection must close after the protocol error"
    );

    let mut other = DaliClient::connect(server.addr()).unwrap();
    other.begin().unwrap();
    other.lock_exclusive(rec).unwrap();
    assert_eq!(other.read(rec).unwrap(), vec![2u8; 8]);
    other.commit().unwrap();
    server.shutdown();
}

/// One `pipeline` batch far larger than the socket buffers in both
/// directions — 4 000 pairs of a 4 KiB `Update` and a `Read` of a 4 KiB
/// record, 16 MiB each way — completes: the server stops reading while
/// its replies go unread, so a client that wrote the whole batch before
/// reading a reply would wait for it for good. Deadline-guarded.
#[test]
fn a_batch_larger_than_the_socket_buffers_both_ways_completes() {
    const REC: usize = 4096;
    const PAIRS: usize = 4000;
    let (server, _dir) = server_with("net-pipe-both-ways", |c| c);
    let mut client = DaliClient::connect(server.addr()).unwrap();
    let table = client.create_table("fat", REC, 4).unwrap();
    client.begin().unwrap();
    let rec = client.insert(table, &[1u8; REC]).unwrap();
    client.commit().unwrap();

    let mut reqs = vec![Request::Begin];
    for _ in 0..PAIRS {
        reqs.push(Request::Update {
            rec,
            data: vec![2u8; REC],
        });
        reqs.push(Request::Read { rec });
    }
    reqs.push(Request::Commit);
    let (tx, rx) = std::sync::mpsc::channel();
    let n = reqs.len();
    std::thread::spawn(move || {
        let _ = tx.send(client.pipeline(&reqs).map(|resps| (client, resps)));
    });
    let (mut client, resps) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the batch did not complete within 60 s")
        .unwrap();
    assert_eq!(resps.len(), n);
    assert!(matches!(resps[0], Response::Began { .. }), "{:?}", resps[0]);
    for pair in resps[1..n - 1].chunks(2) {
        assert_eq!(pair[0], Response::Ok);
        assert_eq!(pair[1], Response::Data(vec![2u8; REC]));
    }
    assert_eq!(resps[n - 1], Response::Ok);
    client.ping().unwrap();
    server.shutdown();
}

/// A raw listener stands in for the server. `pipeline` must send
/// exactly the concatenated request frames (and a later single call
/// exactly its one frame), and must reassemble replies written in
/// fragments cut mid-header and mid-payload. Bytes only: no timing.
#[test]
fn client_pipeline_sends_concatenated_frames_and_reassembles_fragments() {
    let rec = RecId::new(dali::TableId(3), SlotId(9));
    let reqs = vec![
        Request::Begin,
        Request::Read { rec },
        Request::Update {
            rec,
            data: vec![7u8; 100],
        },
        Request::Ping,
        Request::Commit,
    ];
    let resps: Vec<Response> = (0..reqs.len())
        .map(|i| match i % 2 {
            0 => Response::Ok,
            _ => Response::Data(vec![i as u8; 13]),
        })
        .collect();
    let expected: Vec<u8> = reqs
        .iter()
        .flat_map(|r| frame(&encode_request(r)))
        .collect();
    let replies: Vec<u8> = resps
        .iter()
        .flat_map(|r| frame(&encode_response(r)))
        .collect();
    let ping = frame(&encode_request(&Request::Ping));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut got = vec![0u8; expected.len()];
        stream.read_exact(&mut got).unwrap();
        assert_eq!(got, expected, "pipelined batch bytes");
        // Fragments of 5 bytes cut every 9-byte `Ok` frame mid-header
        // and every 21-byte `Data` frame mid-header and mid-payload.
        let cuts: Vec<usize> = (5..replies.len()).step_by(5).collect();
        write_fragmented(&mut stream, &replies, &cuts);
        let mut got = vec![0u8; ping.len()];
        stream.read_exact(&mut got).unwrap();
        assert_eq!(got, ping, "single call bytes");
        stream
            .write_all(&frame(&encode_response(&Response::Ok)))
            .unwrap();
    });

    let mut client = DaliClient::connect(addr).unwrap();
    assert_eq!(client.pipeline(&reqs).unwrap(), resps);
    client.ping().unwrap();
    peer.join().unwrap();
}
