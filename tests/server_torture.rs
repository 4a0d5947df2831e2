//! End-to-end tests for `jnvm-server`: group-commit fence amortization
//! under pipelined load, and the kill-during-traffic sweep (crash injected
//! while ≥4 pipelined connections are live, reopen, verify every acked
//! write survived and every record is untorn).
//!
//! The default suite runs a time-bounded smoke plus a small strided sweep;
//! the `--ignored` tests widen the sweep for the scheduled torture job,
//! one row per topology, each printing its durable-linearizability
//! verdict line.
//!
//! The pool-shard count of the torture configs honors `JNVM_SHARDS`
//! (default 1) and the replica count honors `JNVM_REPLICAS` (default 1,
//! max 2), so CI runs the same sweeps over the degenerate one-pool
//! server, the sharded engine, and the replicated engine; the dedicated
//! sharded/replicated tests below pin their contracts at fixed counts
//! regardless.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use jnvm_repro::faultsim::strided_points;
use jnvm_repro::kvstore::Record;
use jnvm_repro::lincheck::check;
use jnvm_repro::pmem::PmemConfig;
use jnvm_repro::server::{
    encode_request, handshake, kill_during_traffic, parse_reply, run_loadgen, traffic_op_count,
    value_for, Cluster, LoadgenConfig, Reply, Request, ServerConfig, TortureConfig,
};

/// Pool shards for the shared sweeps: `JNVM_SHARDS` or 1.
fn pool_shards_from_env() -> usize {
    std::env::var("JNVM_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Replicas per shard for the shared sweeps: `JNVM_REPLICAS` or 1.
fn pool_replicas_from_env() -> usize {
    std::env::var("JNVM_REPLICAS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| (1..=2).contains(&n))
        .unwrap_or(1)
}

fn small_torture() -> TortureConfig {
    TortureConfig {
        load: LoadgenConfig {
            conns: 4,
            ops_per_conn: 40,
            pipeline: 8,
            fields: 3,
            value_size: 48,
            seed: 0,
        },
        pool_shards: pool_shards_from_env(),
        replicas: pool_replicas_from_env(),
        ..TortureConfig::default()
    }
}

/// Acked ⇒ durable must come *cheap*: under pipelined load the committer
/// makes each group of staged writes one transaction behind one 4-fence
/// pass. What is deterministic is pinned — 4 fences per group, plus the 2
/// that create and publish the committer's one redo log and the one behind
/// each reservation of 1 024 fresh blocks or 64 fresh spans — and what the scheduler decides (how many writes a group catches) is bounded with
/// margin: at least 2 writes per group, where runs form 4 to 6. A server
/// that fenced every write individually forms 720 groups and fails this.
#[test]
fn group_commit_amortizes_fences_under_pipelined_load() {
    let cluster = Cluster::create(1, 1, 16, PmemConfig::crash_sim(256 << 20)).expect("create pool");
    let server = cluster.start(ServerConfig::default()).unwrap();
    let before = cluster.device_stats();
    // The persisted cursors: the bump moves up 1 024 blocks a reservation,
    // the span floor down 64 spans.
    let heap = cluster.kv(0).shard(0).rt.heap();
    let cursors = || (heap.scan_end() / 1024, heap.span_count() / 64);
    let cursors_before = cursors();
    let load = run_loadgen(
        server.addr(),
        &LoadgenConfig {
            conns: 4,
            ops_per_conn: 200,
            pipeline: 16,
            ..LoadgenConfig::default()
        },
    );
    let stats = server.stats();
    server.shutdown();
    let d = cluster.device_stats().delta(&before);

    assert_eq!(load.errors, 0, "crash-free traffic must not error");
    check(&load.history).unwrap_or_else(|v| panic!("not linearizable: {v}"));
    assert!(
        load.acked_writes >= 700,
        "expected ~720 acked writes, got {}",
        load.acked_writes
    );
    assert_eq!(stats.acked_writes, load.acked_writes);
    assert!(stats.groups > 0 && stats.batches > 0);
    let strides = (cursors().0 - cursors_before.0) + (cursors().1 - cursors_before.1);
    assert_eq!(
        d.pfences + d.psyncs,
        4 * stats.groups + 2 + strides,
        "4 fences per commit group + 2 for the one log's creation + {strides} bump \
         and span reservations ({} groups in {} batches)",
        stats.groups,
        stats.batches
    );
    assert!(
        2 * stats.groups <= load.acked_writes,
        "group commit must amortize fences: {} groups ({} batches) for {} acked writes",
        stats.groups,
        stats.batches,
        load.acked_writes
    );
}

/// A crash point past the end of the op stream: traffic completes, nothing
/// injects, and the recovery verifier must accept the full image — every
/// acked write present and every record untorn after reopen.
#[test]
fn uninjected_run_reopens_with_every_acked_write() {
    let cfg = small_torture();
    let report = kill_during_traffic(u64::MAX, &cfg).expect("verification");
    assert!(!report.injected);
    assert_eq!(report.server.failed_writes, 0);
    assert!(report.acked_writes > 0);
    assert!(report.lincheck_keys > 0);
}

/// Strided kill sweep: inject a crash at several points across the
/// device-op stream while 4 pipelined connections are live, then reopen
/// and verify. Bounded for the default suite; the `--ignored` variant
/// sweeps wider.
#[test]
fn kill_during_traffic_strided_sweep() {
    let cfg = small_torture();
    let total = traffic_op_count(&cfg).expect("valid topology");
    assert!(total > 1000, "traffic too small to be interesting: {total}");
    let mut injected = 0;
    for point in strided_points(total, 5) {
        let report = kill_during_traffic(point, &cfg).unwrap_or_else(|e| panic!("{e}"));
        if report.injected {
            injected += 1;
        }
    }
    assert!(injected >= 3, "sweep barely injected: {injected}/5 points");
}

/// The strided kill sweep once more over a one-slot queue and two-op
/// batches, so that at the crash instant producers *are* parked in `send`
/// behind a full queue: each must come back refused (`rejected`) or find
/// its op failed with the queue — `kill_during_traffic` returns `Err` when
/// a live connection is left without a reply or when `queued == acked +
/// nacked + failed` does not hold — and the recovered image and the
/// lincheck verdict must not care how small the queue was.
#[test]
fn kill_during_traffic_with_producers_parked_on_a_full_queue() {
    let cfg = TortureConfig {
        server: ServerConfig {
            batch_max: 2,
            queue_cap: 1,
        },
        ..small_torture()
    };
    let total = traffic_op_count(&cfg).expect("valid topology");
    let mut injected = 0;
    for point in strided_points(total, 5) {
        let report = kill_during_traffic(point, &cfg).unwrap_or_else(|e| panic!("{e}"));
        if report.injected {
            injected += 1;
            let s = report.server;
            assert!(
                s.failed_writes + s.rejected_writes > 0,
                "point {point}: a crash mid-traffic failed and refused nothing"
            );
        }
    }
    assert!(injected >= 3, "sweep barely injected: {injected}/5 points");
}

/// The strided kill sweep again, but the post-kill reopen recovers on 4
/// worker threads: the acked-durability and untorn-record verdicts must
/// not depend on the recovery thread count (the full bit-level proof is
/// `tests/recovery_equivalence.rs`; this holds the server wiring to it).
#[test]
fn kill_during_traffic_recovers_in_parallel() {
    let cfg = TortureConfig {
        recovery_threads: 4,
        ..small_torture()
    };
    let total = traffic_op_count(&cfg).expect("valid topology");
    let mut injected = 0;
    for point in strided_points(total, 3) {
        let report = kill_during_traffic(point, &cfg).unwrap_or_else(|e| panic!("{e}"));
        if report.injected {
            injected += 1;
        }
    }
    assert!(injected >= 2, "sweep barely injected: {injected}/3 points");
}

/// The headline isolation test: a 4-shard server, crash armed on one
/// shard's device, fired early in the traffic. The dead shard must refuse
/// service (its keys answer `Err`), the other three must keep committing
/// — visible as `Ok` acks *after* connections saw their first error — and
/// after recovering all four pools every acked write must be present and
/// untorn, including on the shards that never crashed.
#[test]
fn sharded_kill_isolates_the_crashed_shard() {
    let cfg = TortureConfig {
        pool_shards: 4,
        // Unreplicated on purpose: with a backup the shard would promote
        // instead of dying — that contract has its own test below.
        replicas: 1,
        crash_shard: 1,
        recovery_threads: 2,
        ..small_torture()
    };
    let total = traffic_op_count(&cfg).expect("valid topology");
    assert!(total > 200, "crash shard's op stream too small: {total}");
    // Early point: most of the traffic still ahead when the shard dies.
    let report = kill_during_traffic(total / 10, &cfg).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.injected, "point {} of {total} must fire", total / 10);
    assert_eq!(report.server.shards, 4);
    assert_eq!(
        report.server.dead_shards, 1,
        "exactly the crash shard must die; the rest keep serving"
    );
    assert!(
        report.acked_after_first_error > 0,
        "non-crashed shards must keep acking after the first error reply \
         ({} acked total)",
        report.acked_writes
    );
    assert!(report.acked_writes > 0);
    assert!(report.lincheck_keys > 0);
}

/// Crash-free sharded traffic: a 4-shard server under the standard load
/// must ack everything, error nothing, and report per-shard counters that
/// sum coherently (groups/batches spread over multiple committers).
#[test]
fn sharded_server_serves_crash_free_traffic() {
    let cfg = TortureConfig {
        pool_shards: 4,
        ..small_torture()
    };
    let report = kill_during_traffic(u64::MAX, &cfg).expect("verification");
    assert!(!report.injected);
    assert_eq!(report.server.shards, 4);
    assert_eq!(report.server.dead_shards, 0);
    assert_eq!(report.server.failed_writes, 0);
    assert_eq!(report.acked_after_first_error, 0);
    assert!(report.acked_writes > 0);
    assert!(
        report.server.batches >= 4,
        "4 committers should each have drained at least one batch: {}",
        report.server.batches
    );
}

/// The headline failover test: a replicated 2-shard server, crash armed
/// on shard 0's **primary** device, fired early. The shard must promote
/// its backup in place — no dead shard — and keep acking on the
/// survivor; the recovery verifier then holds every `Ok`-acked write to
/// be present and untorn on the promoted backup, and audits the crashed
/// primary's image against it (the backup may only ever be *ahead*).
#[test]
fn failover_promotes_backup_and_keeps_acking() {
    let cfg = TortureConfig {
        pool_shards: 2,
        replicas: 2,
        crash_shard: 0,
        recovery_threads: 2,
        ..small_torture()
    };
    let total = traffic_op_count(&cfg).expect("valid topology");
    assert!(total > 200, "primary's op stream too small: {total}");
    let report = kill_during_traffic(total / 10, &cfg).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.injected, "point {} of {total} must fire", total / 10);
    assert_eq!(report.server.replicas, 4, "2 shards x 2 replica stacks");
    assert_eq!(report.promotions, 1, "exactly one promotion");
    assert!(
        report.acked_after_promotion > 0,
        "the promoted shard must keep acking (liveness witness)"
    );
    assert_eq!(
        report.server.dead_shards, 0,
        "failover must keep every shard alive"
    );
    assert_eq!(
        report.degraded_shards, 1,
        "the promoted shard runs solo afterwards"
    );
    assert!(report.acked_after_first_error > 0);
    assert!(report.lincheck_keys > 0);
}

/// A **backup** crash is invisible to clients: the shard degrades to
/// solo mode on the primary, keeps acking (acks were always gated on the
/// primary's durability too), and nothing acked is lost — verified
/// against the primaries.
#[test]
fn backup_crash_degrades_shard_to_solo() {
    let cfg = TortureConfig {
        pool_shards: 2,
        replicas: 2,
        crash_shard: 1,
        crash_replica: 1,
        recovery_threads: 2,
        ..small_torture()
    };
    let total = traffic_op_count(&cfg).expect("valid topology");
    assert!(total > 100, "backup's op stream too small: {total}");
    let report = kill_during_traffic(total / 4, &cfg).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.injected, "point {} of {total} must fire", total / 4);
    assert_eq!(report.promotions, 0, "a backup crash must never promote");
    assert_eq!(report.degraded_shards, 1);
    assert_eq!(report.server.dead_shards, 0);
    assert_eq!(report.divergent_keys, 0, "no failover, no divergence audit");
    assert!(report.acked_writes > 0);
    assert!(report.lincheck_keys > 0);
}

/// Small strided failover sweep for the default suite: crash the primary
/// at several points across its op stream; every point must verify.
#[test]
fn replicated_kill_strided_sweep() {
    let cfg = TortureConfig {
        replicas: 2,
        ..small_torture()
    };
    let total = traffic_op_count(&cfg).expect("valid topology");
    let mut injected = 0;
    for point in strided_points(total, 4) {
        let report = kill_during_traffic(point, &cfg).unwrap_or_else(|e| panic!("{e}"));
        if report.injected {
            injected += 1;
        }
    }
    assert!(injected >= 2, "sweep barely injected: {injected}/4 points");
}

/// Graceful shutdown must drain the committer queue: a connection with a
/// burst of pipelined, unread SETs gets **every** reply (acked or
/// failed — never silently dropped) when another connection shuts the
/// server down, and the write accounting stays exact:
/// `queued == acked + nacked + failed`.
#[test]
fn graceful_shutdown_drains_every_queued_ticket() {
    const BURST: usize = 200;
    let cluster = Cluster::create(1, 1, 8, PmemConfig::crash_sim(128 << 20)).expect("create pool");
    let server = cluster
        .start(ServerConfig {
            batch_max: 16,
            queue_cap: 256,
        })
        .unwrap();

    let mut a = TcpStream::connect(server.addr()).unwrap();
    a.set_nodelay(true).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    handshake(&mut a).expect("hello");
    let mut burst = Vec::new();
    for i in 0..BURST {
        let rec = Record::ycsb(&format!("drain-{i:03}"), &[vec![i as u8; 32]]);
        burst.extend_from_slice(&encode_request(&Request::Set(rec)));
    }
    a.write_all(&burst).unwrap();
    // Let the handler pull the whole burst into tickets before the
    // shutdown lands — the satellite under test is queued-ticket
    // draining, not partial-read truncation.
    std::thread::sleep(Duration::from_millis(300));

    let mut b = TcpStream::connect(server.addr()).unwrap();
    b.set_nodelay(true).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    handshake(&mut b).expect("hello");
    b.write_all(&encode_request(&Request::Shutdown)).unwrap();

    // Every one of A's writes must be answered — acked or failed, never
    // silently dropped — before the server closes the connection.
    let mut replies = 0usize;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        while let Ok(Some((reply, n))) = parse_reply(&buf) {
            buf.drain(..n);
            assert!(
                matches!(reply, Reply::Ok | Reply::Err(_)),
                "SET answered {reply:?}"
            );
            replies += 1;
        }
        match a.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(_) => break,
        }
    }
    assert_eq!(replies, BURST, "a queued ticket was silently lost");

    // All replies are in hand ⇒ every ticket is resolved; the counters
    // are final before the teardown.
    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.queued_writes, BURST as u64);
    assert_eq!(
        stats.queued_writes,
        stats.acked_writes + stats.nacked_writes + stats.failed_writes,
        "every ticket must resolve exactly once"
    );
    assert_eq!(
        stats.acked_writes, BURST as u64,
        "crash-free burst must ack"
    );
}

// ------------------------------------------- per-connection reply ordering
//
// The handler keeps parsing behind unresolved writes and answers from an
// in-order completion queue. What a client may assume (DESIGN.md §8):
// replies in request order, and a GET sees this connection's earlier
// writes to the same key — acknowledged or not.

/// A crash-free server over the environment's topology plus one client
/// connection to it.
fn serve() -> (jnvm_repro::server::Server, Cluster, TcpStream) {
    let cluster = Cluster::create(
        pool_shards_from_env(),
        pool_replicas_from_env(),
        8,
        PmemConfig::crash_sim(32 << 20),
    )
    .expect("create pools");
    let server = cluster.start(ServerConfig::default()).unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    handshake(&mut conn).expect("hello");
    (server, cluster, conn)
}

/// Send every request in **one** `write`, then read one reply per request.
fn pipeline(conn: &mut TcpStream, reqs: &[Request]) -> Vec<Reply> {
    let bytes: Vec<u8> = reqs.iter().flat_map(encode_request).collect();
    conn.write_all(&bytes).unwrap();
    read_replies(conn, reqs.len())
}

fn read_replies(conn: &mut TcpStream, n: usize) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(n);
    let mut buf = Vec::new();
    let mut tmp = [0u8; 64 << 10];
    while replies.len() < n {
        let mut used = 0;
        while let Some((reply, len)) = parse_reply(&buf[used..]).expect("framed replies") {
            replies.push(reply);
            used += len;
        }
        buf.drain(..used);
        if replies.len() < n {
            let got = conn.read(&mut tmp).expect("reply before the timeout");
            assert!(
                got > 0,
                "connection closed after {} of {n} replies",
                replies.len()
            );
            buf.extend_from_slice(&tmp[..got]);
        }
    }
    assert!(buf.is_empty(), "more replies than requests");
    replies
}

fn served(reply: &Reply) -> Record {
    match reply {
        Reply::Value(payload) => {
            jnvm_repro::kvstore::decode_record(payload).expect("decodable record")
        }
        other => panic!("expected a record, got {other:?}"),
    }
}

/// Read-your-writes per key, with the write still in flight: every `GET k`
/// pipelined straight behind a `SETF`/`SET`/`DEL` of `k` — same `write`,
/// so the handler parses the read while the write's ticket is unresolved —
/// observes exactly that write.
#[test]
fn pipelined_get_observes_the_unacked_write_before_it() {
    const ROUNDS: usize = 200;
    let (server, _cluster, mut conn) = serve();
    let val = |i: usize| format!("value-{i:04}").into_bytes();
    let rec = |i: usize| Record::ycsb("k", &[val(i), b"tail".to_vec()]);

    let mut reqs = vec![Request::Set(rec(ROUNDS))];
    for i in 0..ROUNDS {
        reqs.push(Request::SetField {
            key: "k".into(),
            field: 0,
            value: val(i),
        });
        reqs.push(Request::Get("k".into()));
    }
    let replies = pipeline(&mut conn, &reqs);
    for (i, pair) in replies[1..].chunks(2).enumerate() {
        assert_eq!(pair[0], Reply::Ok, "SETF #{i}");
        assert_eq!(
            served(&pair[1]).fields.value(0),
            val(i),
            "GET behind SETF #{i}"
        );
    }

    let reqs: Vec<Request> = (0..ROUNDS)
        .flat_map(|i| {
            [
                Request::Set(rec(i)),
                Request::Get("k".into()),
                Request::Del("k".into()),
                Request::Get("k".into()),
            ]
        })
        .collect();
    for (i, round) in pipeline(&mut conn, &reqs).chunks(4).enumerate() {
        assert_eq!(round[0], Reply::Ok, "SET #{i}");
        assert_eq!(served(&round[1]), rec(i), "GET behind SET #{i}");
        assert_eq!(round[2], Reply::Ok, "DEL #{i}");
        assert_eq!(round[3], Reply::NotFound, "GET behind DEL #{i}");
    }
    server.shutdown();
}

/// Reads and writes to different keys, then a barrier, in one `write`:
/// five replies, in request order, each the right variant — and `LEN`,
/// which waits for every outstanding write, counts the `SET` before it.
#[test]
fn mixed_pipeline_replies_in_request_order() {
    let (server, _cluster, mut conn) = serve();
    let rec = |key: &str| Record::ycsb(key, &[key.as_bytes().to_vec(), b"f1".to_vec()]);
    let preload = pipeline(&mut conn, &[Request::Set(rec("a")), Request::Set(rec("b"))]);
    assert_eq!(preload, [Reply::Ok, Reply::Ok]);

    let replies = pipeline(
        &mut conn,
        &[
            Request::SetField {
                key: "a".into(),
                field: 1,
                value: b"new".to_vec(),
            },
            Request::Get("b".into()),
            Request::Set(rec("c")),
            Request::Get("a".into()),
            Request::Len,
        ],
    );
    assert_eq!(replies[0], Reply::Ok, "SETF a");
    assert_eq!(served(&replies[1]), rec("b"), "GET b");
    assert_eq!(replies[2], Reply::Ok, "SET c");
    assert_eq!(
        served(&replies[3]).fields.value(1),
        b"new",
        "GET a sees the SETF"
    );
    assert_eq!(
        replies[4],
        Reply::Value(3u64.to_le_bytes().to_vec()),
        "LEN counts c"
    );
    server.shutdown();
}

/// A client that pipelines reads faster than it reads replies: one thread
/// sends 20 000 `GET`s of 1 KB records without ever waiting, another reads.
/// The handler drains whenever 64 KiB of replies are encoded, so it blocks
/// on the socket instead of queueing 20 MB — and every reply arrives, in
/// request order.
#[test]
fn pipelined_reads_outrunning_the_reader_all_arrive_in_order() {
    const GETS: usize = 20_000;
    const KEYS: usize = 16;
    let (server, _cluster, mut conn) = serve();
    let key = |i: usize| format!("big-{:02}", i % KEYS);
    let rec = |i: usize| {
        let fields: Vec<Vec<u8>> = (0..10)
            .map(|f| vec![(i % KEYS * 10 + f) as u8; 100])
            .collect();
        Record::ycsb(&key(i), &fields)
    };
    let preload: Vec<Request> = (0..KEYS).map(|i| Request::Set(rec(i))).collect();
    assert!(pipeline(&mut conn, &preload)
        .iter()
        .all(|r| *r == Reply::Ok));

    let mut tx = conn.try_clone().unwrap();
    let replies = std::thread::scope(|s| {
        s.spawn(move || {
            let burst: Vec<u8> = (0..GETS)
                .flat_map(|i| encode_request(&Request::Get(key(i))))
                .collect();
            tx.write_all(&burst).unwrap();
        });
        read_replies(&mut conn, GETS)
    });
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(served(reply), rec(i), "reply #{i}");
    }
    server.shutdown();
}

/// A topology the server cannot serve, or a crash target outside it, is
/// a descriptive `Err` from every entry point — not an index panic, and
/// not a silently clamped experiment on some other topology.
#[test]
fn unservable_topology_is_an_error_not_a_panic() {
    let off_the_end = TortureConfig {
        pool_shards: 2,
        crash_shard: 5,
        ..small_torture()
    };
    let three_replicas = TortureConfig {
        replicas: 3,
        ..small_torture()
    };
    let backup_of_a_solo_shard = TortureConfig {
        replicas: 1,
        crash_replica: 1,
        ..small_torture()
    };
    for (cfg, needle) in [
        (off_the_end, "shard 5"),
        (three_replicas, "got 3"),
        (backup_of_a_solo_shard, "replica 1"),
    ] {
        let e = traffic_op_count(&cfg).expect_err("count pass must refuse");
        assert!(e.contains("topology") && e.contains(needle), "{e}");
        let e = kill_during_traffic(10, &cfg).expect_err("kill must refuse");
        assert!(e.contains("topology") && e.contains(needle), "{e}");
    }
}

// ------------------------------------------- crash instants mid-encode
//
// A `GET` is encoded in place, straight from NVMM into the connection's
// reply buffer. The read-mostly kill drives that path while a crash point
// fires under it: whatever the instant, the client must receive whole
// frames of real records — never a header without its payload, never a
// payload cut short with the next reply glued on.

const HOT_KEYS: usize = 32;
const HOT_FIELDS: usize = 10;
const HOT_VALUE: usize = 100;
const HOT_CONNS: usize = 2;
const HOT_OPS: usize = 200;
const HOT_WINDOW: usize = 16;

fn hot_key(k: usize) -> String {
    format!("hot{k:02}")
}

/// Op `i` of connection `conn`: 90 % `GET` of a 1 KB record, 10 % `SETF`
/// of one of its fields; both connections work the same 32 keys.
fn hot_op(conn: usize, i: usize) -> Request {
    let key = hot_key((i * 7 + conn * 3) % HOT_KEYS);
    if i % 10 == 3 {
        let field = (i / 10) % HOT_FIELDS;
        Request::SetField {
            key,
            field,
            value: value_for(1, conn, i, field, HOT_VALUE),
        }
    } else {
        Request::Get(key)
    }
}

/// What one connection sent and everything it received, parsed.
struct HotConn {
    sent: usize,
    replies: Vec<Reply>,
    /// Received bytes behind the last whole frame.
    tail: Vec<u8>,
    proto_errors: usize,
}

fn drive_hot_conn(addr: std::net::SocketAddr, conn: usize) -> HotConn {
    let mut log = HotConn {
        sent: 0,
        replies: Vec::new(),
        tail: Vec::new(),
        proto_errors: 0,
    };
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    handshake(&mut stream).expect("hello");
    let mut tmp = [0u8; 16 << 10];
    let mut idle = 0;
    while log.replies.len() < HOT_OPS && idle < 20 && log.proto_errors == 0 {
        while log.sent < HOT_OPS && log.sent - log.replies.len() < HOT_WINDOW {
            if stream
                .write_all(&encode_request(&hot_op(conn, log.sent)))
                .is_err()
            {
                return log;
            }
            log.sent += 1;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return log,
            Ok(n) => {
                idle = 0;
                log.tail.extend_from_slice(&tmp[..n]);
            }
            Err(_) => idle += 1,
        }
        loop {
            match parse_reply(&log.tail) {
                Ok(Some((reply, n))) => {
                    log.replies.push(reply);
                    log.tail.drain(..n);
                }
                Ok(None) => break,
                Err(_) => {
                    log.proto_errors += 1;
                    break;
                }
            }
        }
    }
    log
}

/// One read-mostly kill: preload over the wire, arm the crash on shard
/// 0's primary, run the load, hold every received byte to account.
/// Returns whether the point fired and the ops counted while armed.
fn read_mostly_kill(point: u64) -> (bool, u64) {
    jnvm_repro::pmem::silence_crash_panics();
    let (server, cluster, mut conn) = serve();
    let preload: Vec<Request> = (0..HOT_KEYS)
        .map(|k| {
            let values: Vec<Vec<u8>> = (0..HOT_FIELDS)
                .map(|f| value_for(0, k, 0, f, HOT_VALUE))
                .collect();
            Request::Set(Record::ycsb(&hot_key(k), &values))
        })
        .collect();
    for chunk in preload.chunks(8) {
        assert!(pipeline(&mut conn, chunk).iter().all(|r| *r == Reply::Ok));
    }
    drop(conn);

    let crash_dev = std::sync::Arc::clone(cluster.device(0, 0).unwrap());
    crash_dev.arm_faults(jnvm_repro::pmem::FaultPlan::crash_at(point));
    let addr = server.addr();
    let logs: Vec<HotConn> = std::thread::scope(|s| {
        let conns: Vec<_> = (0..HOT_CONNS)
            .map(|c| s.spawn(move || drive_hot_conn(addr, c)))
            .collect();
        conns.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = server.stats();
    server.shutdown();
    let injected = crash_dev.faults_frozen();
    drop(cluster.into_pmems()); // tear the stacks down while still frozen
    let ops_counted = crash_dev.disarm_faults();

    assert_eq!(
        stats.queued_writes,
        stats.acked_writes + stats.nacked_writes + stats.failed_writes,
        "point {point}: write accounting"
    );
    // Every value a field may legitimately hold: the preload's, or one a
    // SETF of the stream carried — acknowledged or still in flight.
    let mut carried = std::collections::HashSet::new();
    for (k, req) in preload.iter().enumerate() {
        let Request::Set(rec) = req else {
            unreachable!()
        };
        for (f, (_, v)) in rec.fields.iter().enumerate() {
            carried.insert((hot_key(k), f, v.to_vec()));
        }
    }
    for (c, log) in logs.iter().enumerate() {
        for i in 0..log.sent {
            if let Request::SetField { key, field, value } = hot_op(c, i) {
                carried.insert((key, field, value));
            }
        }
    }
    for (c, log) in logs.iter().enumerate() {
        assert_eq!(
            log.proto_errors, 0,
            "point {point}, conn {c}: desynchronized reply stream"
        );
        // At most one incomplete frame, and only where the stream was cut.
        assert!(
            matches!(parse_reply(&log.tail), Ok(None)),
            "point {point}, conn {c}: {} stray bytes",
            log.tail.len()
        );
        assert!(
            log.tail.is_empty() || log.replies.len() < log.sent,
            "point {point}, conn {c}: bytes behind the last reply"
        );
        for (i, reply) in log.replies.iter().enumerate() {
            match (hot_op(c, i), reply) {
                (_, Reply::Err(_)) => assert!(injected, "point {point}: Err without a crash"),
                (Request::Get(key), Reply::Value(_)) => {
                    let rec = served(reply);
                    assert_eq!(
                        (rec.key.as_str(), rec.fields.len()),
                        (key.as_str(), HOT_FIELDS)
                    );
                    for (f, v) in rec.fields.values().enumerate() {
                        assert!(
                            carried.contains(&(key.clone(), f, v.to_vec())),
                            "point {point}, conn {c}, op {i}: {key} field {f} holds bytes no write carried"
                        );
                    }
                }
                (Request::SetField { .. }, Reply::Ok) => {}
                (req, reply) => {
                    panic!("point {point}, conn {c}, op {i}: {req:?} answered {reply:?}")
                }
            }
        }
    }
    (injected, ops_counted)
}

/// Strided read-mostly kill sweep (same shape as the sweeps above; the
/// topology honours `JNVM_SHARDS` / `JNVM_REPLICAS`).
#[test]
fn read_mostly_kill_never_tears_the_reply_stream() {
    let (injected, total) = read_mostly_kill(u64::MAX);
    assert!(!injected);
    assert!(
        total > 100,
        "too few device ops on shard 0 to sweep: {total}"
    );
    let fired = strided_points(total, 5)
        .into_iter()
        .filter(|point| read_mostly_kill(*point).0)
        .count();
    assert!(fired >= 3, "sweep barely injected: {fired} points");
}

/// A wide strided kill sweep for the scheduled torture job: `points`
/// crash points over the crash replica's counted op space, each run held
/// to acked ⇒ durable, untorn records and durable linearizability (the
/// failover divergence audit too, after a primary kill). At least one
/// point must fire, or the sweep checked nothing. Prints its verdict line.
fn wide_kill_sweep(cfg: &TortureConfig, points: u64) {
    let total = traffic_op_count(cfg).expect("valid topology");
    let points = strided_points(total, points);
    let (mut fired, mut keys, mut events) = (0u64, 0u64, 0u64);
    for &point in &points {
        let report =
            kill_during_traffic(point, cfg).unwrap_or_else(|e| panic!("point {point}: {e}"));
        fired += u64::from(report.injected);
        keys += report.lincheck_keys;
        events += report.lincheck_events;
    }
    assert!(fired > 0, "no crash point fired: the sweep checked nothing");
    let kill = if cfg.crash_replica == 0 {
        "primary"
    } else {
        "backup"
    };
    println!(
        "{} shard(s) x {} replica(s), {kill} kill: verdict: durably linearizable — \
         {} crash points ({fired} fired), {keys} key partitions, {events} events",
        cfg.pool_shards,
        cfg.replicas,
        points.len()
    );
}

/// The wide sweep for the scheduled torture job
/// (`cargo test --release --test server_torture -- --ignored`).
/// Recovers on 4 threads so the torture job also exercises the parallel
/// reopen path at scale.
#[test]
#[ignore]
fn kill_during_traffic_wide_sweep() {
    let cfg = TortureConfig {
        load: LoadgenConfig {
            conns: 4,
            ops_per_conn: 100,
            pipeline: 16,
            fields: 4,
            value_size: 64,
            seed: 0,
        },
        recovery_threads: 4,
        ..TortureConfig::default()
    };
    wide_kill_sweep(&cfg, 40);
}

/// Wide replicated sweep for the torture job: primary kills across the
/// op stream on a 2-shard replicated server, plus a handful of backup
/// kills. Every point must verify acked ⇒ durable on the survivor.
#[test]
#[ignore]
fn replicated_kill_wide_sweep() {
    let cfg = TortureConfig {
        load: LoadgenConfig {
            conns: 4,
            ops_per_conn: 80,
            pipeline: 16,
            fields: 4,
            value_size: 64,
            seed: 0,
        },
        pool_shards: 2,
        replicas: 2,
        recovery_threads: 4,
        ..TortureConfig::default()
    };
    wide_kill_sweep(&cfg, 25);
    let backup = TortureConfig {
        crash_replica: 1,
        ..cfg
    };
    wide_kill_sweep(&backup, 10);
}

/// The torture job's durable-linearizability sweeps, one row per
/// topology over one load shape (4 connections × 120 ops, pipeline 16,
/// four 32-B fields, 2 recovery threads): 2 shards × 1 replica, then 2 × 2
/// with primary kills and with backup kills.
#[test]
#[ignore]
fn durably_linearizable_wide_sweeps() {
    let cfg = TortureConfig {
        load: LoadgenConfig {
            conns: 4,
            ops_per_conn: 120,
            pipeline: 16,
            fields: 4,
            value_size: 32,
            seed: 0,
        },
        pool_shards: 2,
        recovery_threads: 2,
        ..TortureConfig::default()
    };
    // (replicas, crash replica, points)
    for (replicas, crash_replica, points) in [(1, 0, 48), (2, 0, 48), (2, 1, 24)] {
        let row = TortureConfig {
            replicas,
            crash_replica,
            ..cfg
        };
        wide_kill_sweep(&row, points);
    }
}
