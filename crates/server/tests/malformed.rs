//! Malformed-protocol robustness: truncated frames, oversized values,
//! garbage magic, and mid-pipeline connection drops must never poison the
//! grid or leak staged batch entries — the next connection gets clean
//! service and LEN stays consistent.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use jnvm_kvstore::Record;
use jnvm_pmem::PmemConfig;
use jnvm_server::{
    encode_reply, encode_request, parse_reply, Cluster, Reply, Request, Server, ServerConfig,
};

/// A one-pool server; the cluster is returned so the stacks outlive it.
fn start_server() -> (Server, Cluster) {
    let cluster = Cluster::create(1, 1, 8, PmemConfig::crash_sim(64 << 20), true).unwrap();
    let server = cluster.start(ServerConfig::default()).unwrap();
    (server, cluster)
}

fn connect(server: &Server) -> TcpStream {
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    jnvm_server::handshake(&mut s).expect("hello");
    s
}

fn next_reply(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Option<Reply> {
    let mut tmp = [0u8; 4096];
    loop {
        match parse_reply(buf) {
            Ok(Some((reply, n))) => {
                buf.drain(..n);
                return Some(reply);
            }
            Ok(None) => {}
            Err(_) => return None,
        }
        match stream.read(&mut tmp) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(_) => return None,
        }
    }
}

fn roundtrip(stream: &mut TcpStream, buf: &mut Vec<u8>, req: &Request) -> Option<Reply> {
    stream.write_all(&encode_request(req)).unwrap();
    next_reply(stream, buf)
}

fn set_record(stream: &mut TcpStream, buf: &mut Vec<u8>, key: &str) {
    let rec = Record::ycsb(key, &[b"v0".to_vec(), b"v1".to_vec()]);
    assert_eq!(
        roundtrip(stream, buf, &Request::Set(rec)),
        Some(Reply::Ok),
        "SET {key} must ack"
    );
}

fn grid_len(stream: &mut TcpStream, buf: &mut Vec<u8>) -> u64 {
    match roundtrip(stream, buf, &Request::Len) {
        Some(Reply::Value(v)) => u64::from_le_bytes(v.try_into().unwrap()),
        other => panic!("LEN returned {other:?}"),
    }
}

#[test]
fn garbage_magic_closes_connection_without_damage() {
    let (server, _cluster) = start_server();
    {
        let mut s = connect(&server);
        let mut buf = Vec::new();
        set_record(&mut s, &mut buf, "before-garbage");
        // Wrong magic byte: frame-level violation, server cuts the line.
        s.write_all(&[0xff; 32]).unwrap();
        let mut tmp = [0u8; 64];
        assert_eq!(s.read(&mut tmp).unwrap_or(0), 0, "server must close");
    }
    let mut s = connect(&server);
    let mut buf = Vec::new();
    assert_eq!(grid_len(&mut s, &mut buf), 1, "acked record survives");
    set_record(&mut s, &mut buf, "after-garbage");
    assert_eq!(grid_len(&mut s, &mut buf), 2, "next connection serves fine");
    server.shutdown();
}

#[test]
fn garbage_behind_accepted_requests_does_not_eat_their_replies() {
    let (server, _cluster) = start_server();
    let mut s = connect(&server);
    let mut buf = Vec::new();
    set_record(&mut s, &mut buf, "k");
    // One write: a SETF, a GET of it, then a frame-level violation. The
    // two requests were accepted, so both are answered before the cut.
    let mut burst = encode_request(&Request::SetField {
        key: "k".into(),
        field: 1,
        value: b"new".to_vec(),
    });
    burst.extend_from_slice(&encode_request(&Request::Get("k".into())));
    burst.extend_from_slice(&[0xff; 32]);
    s.write_all(&burst).unwrap();
    assert_eq!(next_reply(&mut s, &mut buf), Some(Reply::Ok));
    match next_reply(&mut s, &mut buf) {
        Some(Reply::Value(payload)) => {
            let rec = jnvm_kvstore::decode_record(&payload).expect("record");
            assert_eq!(
                rec.fields.value(1),
                b"new",
                "the GET reads the SETF before it"
            );
        }
        other => panic!("GET k returned {other:?}"),
    }
    assert_eq!(next_reply(&mut s, &mut buf), None, "then the server closes");
    assert!(buf.is_empty(), "nothing after the two replies: {buf:?}");
    let stats = server.stats();
    assert_eq!(stats.queued_writes, 2);
    assert_eq!(
        stats.queued_writes,
        stats.acked_writes + stats.nacked_writes + stats.failed_writes
    );
    server.shutdown();
}

#[test]
fn version_mismatch_at_hello_closes_before_any_service() {
    let (server, _cluster) = start_server();
    {
        // A well-meaning v1 client: right magic, older protocol version.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut server_hello = [0u8; 2];
        s.read_exact(&mut server_hello).unwrap();
        assert_eq!(
            server_hello,
            [0x4e, jnvm_server::PROTO_VERSION],
            "server announces the current protocol version"
        );
        s.write_all(&[0x4e, 1]).unwrap();
        // The server closes without serving; a SET after the bad hello
        // gets no reply, just EOF.
        let _ = s.write_all(&encode_request(&Request::Set(Record::ycsb(
            "v1-write",
            &[b"x".to_vec()],
        ))));
        let mut tmp = [0u8; 64];
        assert_eq!(s.read(&mut tmp).unwrap_or(0), 0, "server must close");
    }
    {
        // Not our protocol at all: garbage instead of a hello.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&[0xff; 32]).unwrap();
        let mut tmp = [0u8; 64];
        // Skip the server's own hello, then expect EOF.
        let _ = s.read(&mut tmp);
        assert_eq!(s.read(&mut tmp).unwrap_or(0), 0, "server must close");
    }
    // Neither bad peer hurt the store; a v2 client gets clean service.
    let mut s = connect(&server);
    let mut buf = Vec::new();
    assert_eq!(grid_len(&mut s, &mut buf), 0, "nothing leaked in");
    set_record(&mut s, &mut buf, "after-mismatch");
    assert_eq!(grid_len(&mut s, &mut buf), 1);
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_leaves_grid_consistent() {
    let (server, _cluster) = start_server();
    {
        let mut s = connect(&server);
        let mut buf = Vec::new();
        set_record(&mut s, &mut buf, "t-full");
        // Send only a prefix of a valid SET frame, then vanish.
        let frame = encode_request(&Request::Set(Record::ycsb(
            "t-truncated",
            &[vec![7u8; 128]],
        )));
        s.write_all(&frame[..frame.len() / 2]).unwrap();
    }
    let mut s = connect(&server);
    let mut buf = Vec::new();
    assert_eq!(grid_len(&mut s, &mut buf), 1);
    assert!(
        matches!(roundtrip(&mut s, &mut buf, &Request::Get("t-truncated".into())),
            Some(Reply::NotFound)),
        "half a frame must not half-apply"
    );
    server.shutdown();
}

#[test]
fn oversized_value_is_rejected_but_connection_survives() {
    let (server, _cluster) = start_server();
    let mut s = connect(&server);
    let mut buf = Vec::new();
    // Body-level violation (value over MAX_VALUE): Err reply, stream
    // stays framed so the connection keeps working.
    let reply = roundtrip(
        &mut s,
        &mut buf,
        &Request::SetField {
            key: "big".into(),
            field: 0,
            value: vec![0u8; (64 << 10) + 1],
        },
    );
    assert!(matches!(reply, Some(Reply::Err(_))), "got {reply:?}");
    set_record(&mut s, &mut buf, "after-oversized");
    assert_eq!(grid_len(&mut s, &mut buf), 1);
    server.shutdown();
}

/// What the client path accepts is a subset of what the replication path
/// can frame. A `SET` body within `MAX_FRAME` but too large to wrap in a
/// `REPL_APPLY` frame used to be acked off the primary while the backup
/// refused the frame and the shard silently degraded; it is a typed `Err`
/// now, and the largest record that *is* accepted reaches both replicas.
#[test]
fn a_set_too_large_to_replicate_is_refused_not_half_replicated() {
    use jnvm_server::proto::MAX_FRAME;
    // `REPL_APPLY`'s `[seq u64][count u32]` header + the op's tag and length.
    const REPL_SET_OVERHEAD: usize = 12 + 1 + 4;
    // 15 full-size fields plus one sized so the record encodes to `len`.
    let record_of = |key: &str, len: usize| {
        let mut values = vec![vec![0x5a_u8; 64 << 10]; 15];
        values.push(Vec::new());
        let short = len - jnvm_kvstore::encode_record(&Record::ycsb(key, &values)).len();
        values[15] = vec![0xa5; short];
        let rec = Record::ycsb(key, &values);
        assert_eq!(jnvm_kvstore::encode_record(&rec).len(), len);
        rec
    };
    let cluster = Cluster::create(1, 2, 8, PmemConfig::crash_sim(64 << 20), true).unwrap();
    let server = cluster.start(ServerConfig::default()).unwrap();
    let mut s = connect(&server);
    let mut buf = Vec::new();

    for len in [MAX_FRAME, MAX_FRAME - REPL_SET_OVERHEAD + 1] {
        let reply = roundtrip(&mut s, &mut buf, &Request::Set(record_of("too-big", len)));
        assert!(
            matches!(reply, Some(Reply::Err(_))),
            "{len} B record: {reply:?}"
        );
    }
    set_record(&mut s, &mut buf, "small"); // same connection: still open
    let stats = server.stats();
    assert_eq!(stats.degraded_shards, 0, "a legal SET cost the backup");
    assert_eq!((stats.repl_sent, stats.repl_acked), (1, 1));

    let largest = record_of("largest", MAX_FRAME - REPL_SET_OVERHEAD);
    let reply = roundtrip(&mut s, &mut buf, &Request::Set(largest.clone()));
    assert_eq!(reply, Some(Reply::Ok));
    let stats = server.stats();
    assert_eq!(stats.degraded_shards, 0);
    assert_eq!((stats.repl_sent, stats.repl_acked), (2, 2));
    server.shutdown();
    for r in 0..2 {
        let stored = cluster.kv(r).read("largest");
        assert_eq!(stored.as_ref(), Some(&largest), "replica {r}");
        assert_eq!(cluster.kv(r).read("too-big"), None, "replica {r}");
    }
}

#[test]
fn mid_pipeline_drop_does_not_leak_staged_entries() {
    let (server, _cluster) = start_server();
    {
        let mut s = connect(&server);
        // Fire a burst of pipelined SETs and slam the connection shut
        // without reading a single reply. The committer still owns the
        // queued ops; none of them may wedge the batch machinery.
        let mut burst = Vec::new();
        for i in 0..32 {
            let rec = Record::ycsb(&format!("drop-{i:02}"), &[vec![i as u8; 64]]);
            burst.extend_from_slice(&encode_request(&Request::Set(rec)));
        }
        s.write_all(&burst).unwrap();
        // Drop with replies unread.
    }
    // The server must still serve — and every one of those writes either
    // fully applied or not at all (no torn keys).
    let mut s = connect(&server);
    let mut buf = Vec::new();
    std::thread::sleep(Duration::from_millis(200));
    let len = grid_len(&mut s, &mut buf);
    assert!(len <= 32, "at most the burst landed, got {len}");
    for i in 0..32 {
        match roundtrip(&mut s, &mut buf, &Request::Get(format!("drop-{i:02}"))) {
            Some(Reply::Value(payload)) => {
                let rec = jnvm_kvstore::decode_record(&payload).expect("untorn record");
                assert_eq!(rec.fields.value(0), vec![i as u8; 64]);
            }
            Some(Reply::NotFound) => {}
            other => panic!("GET drop-{i:02} returned {other:?}"),
        }
    }
    set_record(&mut s, &mut buf, "post-drop");
    assert_eq!(grid_len(&mut s, &mut buf), len + 1);
    server.shutdown();
}

#[test]
fn malformed_reply_encoding_is_never_sent() {
    // encode_reply/parse_reply round-trip (client-side framing sanity).
    for reply in [
        Reply::Ok,
        Reply::NotFound,
        Reply::Value(vec![1, 2, 3]),
        Reply::Err("boom".into()),
    ] {
        let bytes = encode_reply(&reply);
        let (parsed, n) = parse_reply(&bytes).unwrap().unwrap();
        assert_eq!(n, bytes.len());
        assert_eq!(parsed, reply);
    }
}

/// A `GET` is encoded in place behind an open `Value` header; one that
/// finds nothing takes the header back. `GET present; GET absent; GET
/// present` in one write — and again behind a pending write, where the
/// replies wait in slots of their own — answers three whole frames with
/// not a byte between or behind them.
#[test]
fn an_absent_get_leaves_no_partial_frame_between_its_neighbours() {
    let (server, _cluster) = start_server();
    let mut s = connect(&server);
    let mut buf = Vec::new();
    set_record(&mut s, &mut buf, "present");
    let want = Reply::Value(jnvm_kvstore::encode_record(&Record::ycsb(
        "present",
        &[b"v0".to_vec(), b"v1".to_vec()],
    )));
    let gets = ["present", "absent", "present"].map(|k| encode_request(&Request::Get(k.into())));
    for behind_a_write in [false, true] {
        let mut burst = Vec::new();
        if behind_a_write {
            burst = encode_request(&Request::Del("elsewhere".into()));
        }
        burst.extend(gets.concat());
        s.write_all(&burst).unwrap();
        if behind_a_write {
            assert_eq!(next_reply(&mut s, &mut buf), Some(Reply::NotFound));
        }
        assert_eq!(next_reply(&mut s, &mut buf).as_ref(), Some(&want));
        assert_eq!(next_reply(&mut s, &mut buf), Some(Reply::NotFound));
        assert_eq!(next_reply(&mut s, &mut buf).as_ref(), Some(&want));
        assert!(buf.is_empty(), "{} stray reply bytes", buf.len());
    }
    // Nothing more is on its way either: the next reply is LEN's own.
    assert_eq!(grid_len(&mut s, &mut buf), 1);
    assert!(buf.is_empty());
    server.shutdown();
}
