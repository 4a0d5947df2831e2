//! Durable-linearizability integration: the sharded in-process torture
//! feeds its captured history through the Wing–Gong checker after
//! recovery, and the seeded loadgen replays byte-identical invocation
//! sequences.
//!
//! The adversarial self-tests for the checker itself (hand-crafted
//! non-linearizable histories with pinned minimized witnesses) live in
//! `crates/lincheck/src/check.rs`; this file covers the system-level
//! wiring — real commits, real crash injection, real recovery — plus the
//! loadgen determinism contract the torture verifiers depend on.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

use jnvm_repro::faultsim::{strided_points, torture_point};
use jnvm_repro::jnvm::RecoveryOptions;
use jnvm_repro::kvstore::{
    commit_writes, shard_for_key, GridConfig, Record, ShardedKv, WriteOp,
};
use jnvm_repro::lincheck::{check, ClientRecorder, Clock, History, OpKind, Outcome};
use jnvm_repro::pmem::{catch_crash, silence_crash_panics, FaultPlan, Pmem, PmemConfig};
use jnvm_repro::server::{
    encode_request, handshake, parse_reply, run_loadgen, Cluster, LoadgenConfig, Reply, Request,
    ServerConfig,
};

const POOL_SHARDS: usize = 2;
const CRASH_SHARD: usize = 0;
const CHUNKS: usize = 10;

fn grid_cfg() -> GridConfig {
    GridConfig { cache_capacity: 0 }
}

/// Key `i` of chunk `c`, salted until it routes to `shard` — the sharded
/// engine recovers each pool independently and asserts routing, so the
/// workload must respect `shard_for_key`.
fn skey(shard: usize, c: usize, i: usize) -> String {
    (0u32..)
        .map(|salt| format!("sh{shard}-c{c:02}-k{i}-{salt}"))
        .find(|k| shard_for_key(k, POOL_SHARDS) == shard)
        .expect("some salt routes to the shard")
}

/// One commit group: two SETs, a SETF on key 0, a DEL of key 1. An acked
/// chunk leaves key 0 present (field 0 rewritten) and key 1 absent.
fn chunk(shard: usize, c: usize) -> Vec<WriteOp> {
    let val = |i: usize| format!("v{shard}-{c}-{i}").into_bytes();
    vec![
        WriteOp::Set(Record::ycsb(&skey(shard, c, 0), &[val(0), val(1)])),
        WriteOp::Set(Record::ycsb(&skey(shard, c, 1), &[val(2), val(3)])),
        WriteOp::SetField {
            key: skey(shard, c, 0),
            field: 0,
            value: format!("f{shard}-{c}").into_bytes(),
        },
        WriteOp::Del(skey(shard, c, 1)),
    ]
}

fn captured_kind(op: &WriteOp) -> OpKind {
    match op {
        WriteOp::Set(rec) => OpKind::Set(rec.fields.values().map(<[u8]>::to_vec).collect()),
        WriteOp::SetField { field, value, .. } => OpKind::SetField(*field, value.clone()),
        WriteOp::Del(_) => OpKind::Del,
    }
}

/// Shared recorder state; `Arc`ed past the harness's context drop.
struct Log {
    clock: Clock,
    recorders: Vec<Mutex<ClientRecorder>>,
}

fn new_log() -> Arc<Log> {
    let clock = Clock::new();
    Arc::new(Log {
        recorders: (0..POOL_SHARDS)
            .map(|s| Mutex::new(ClientRecorder::new(&clock, s)))
            .collect(),
        clock,
    })
}

struct Ctx {
    cluster: Cluster,
    log: Arc<Log>,
}

/// `POOL_SHARDS` singleton replica sets.
fn setup(log: &Arc<Log>) -> (Vec<Vec<Arc<Pmem>>>, Ctx) {
    let cluster = Cluster::create(POOL_SHARDS, 1, 4, PmemConfig::crash_sim(24 << 20), true)
        .expect("create pools");
    let pmems = cluster.pmems().to_vec();
    let log = Arc::clone(log);
    (pmems, Ctx { cluster, log })
}

/// Per-shard worker: commit every chunk on this shard's stack, recording
/// invocation/response events. A crash leaves the in-flight chunk
/// Indeterminate and kills the worker (the shard is dead).
fn drive(shard: usize, ctx: &Ctx) {
    let sh = ctx.cluster.kv(0).shard(shard);
    for c in 0..CHUNKS {
        let ops = chunk(shard, c);
        let toks: Vec<_> = {
            let mut rec = ctx.log.recorders[shard].lock().expect("recorder lock");
            ops.iter().map(|op| rec.invoke(op.key(), captured_kind(op))).collect()
        };
        match catch_crash(|| commit_writes(&sh.grid, &sh.be, &ops)) {
            Ok(out) => {
                let mut rec = ctx.log.recorders[shard].lock().expect("recorder lock");
                for (tok, (op, applied)) in toks.into_iter().zip(ops.iter().zip(&out.results)) {
                    let outcome = match op {
                        WriteOp::Set(_) => Outcome::Ok,
                        _ if *applied => Outcome::Ok,
                        _ => Outcome::NotFound,
                    };
                    rec.resolve(tok, outcome);
                }
            }
            Err(_) => return,
        }
    }
}

/// Count pass: size of the crash shard's op space under this workload.
fn op_space(log: &Arc<Log>) -> u64 {
    let target = (CRASH_SHARD, 0);
    torture_point(
        u64::MAX,
        FaultPlan::count(),
        target,
        POOL_SHARDS,
        || setup(log),
        drive,
        |_, _| {},
    )
    .ops_counted
}

fn run_point(point: u64) {
    let log = new_log();
    let slog = Arc::clone(&log);
    let vlog = Arc::clone(&log);
    torture_point(
        point,
        FaultPlan::count(),
        (CRASH_SHARD, 0),
        POOL_SHARDS,
        move || setup(&slog),
        drive,
        move |pmems, out| {
            let pmems: Vec<Arc<Pmem>> = pmems.iter().map(|reps| Arc::clone(&reps[0])).collect();
            let mut hist = {
                let recs: Vec<ClientRecorder> = vlog
                    .recorders
                    .iter()
                    .enumerate()
                    .map(|(s, m)| {
                        std::mem::replace(
                            &mut *m.lock().expect("recorder lock"),
                            ClientRecorder::new(&vlog.clock, s),
                        )
                    })
                    .collect();
                History::collect(vlog.clock.clone(), recs)
            };
            let (kv2, _reports) =
                ShardedKv::open(&pmems, true, grid_cfg(), RecoveryOptions::parallel(2))
                    .unwrap_or_else(|e| panic!("point {}: reopen failed: {e}", out.point));
            if let Err(v) = hist.check_recovered(|key| {
                kv2.read(key)
                    .map(|rec| rec.fields.values().map(<[u8]>::to_vec).collect())
            }) {
                panic!("point {}: durable-linearizability violation: {v}", out.point);
            }
        },
    );
}

/// Time-bounded sweep for the default suite: strided crash points through
/// the sharded engine, every history checked after recovery.
#[test]
fn sharded_torture_histories_are_durably_linearizable() {
    silence_crash_panics();
    let total = op_space(&new_log());
    assert!(total > 0, "count pass saw no device ops");
    for point in strided_points(total, 6) {
        run_point(point);
    }
}

/// Exhaustive-leaning variant for the torture CI job.
#[test]
#[ignore = "wide sweep; run with --ignored in the torture job"]
fn sharded_lincheck_wide_sweep() {
    silence_crash_panics();
    let total = op_space(&new_log());
    for point in strided_points(total, 48) {
        run_point(point);
    }
}

// ------------------------------------------------------- seeded determinism

/// Spin a fresh single-shard server, run the seeded load, return the
/// history's invocation digest.
fn digest_for(seed: u64) -> Vec<u8> {
    let cluster =
        Cluster::create(1, 1, 4, PmemConfig::crash_sim(32 << 20), true).expect("create pool");
    let server = cluster.start(ServerConfig::default()).expect("bind server");
    let cfg = LoadgenConfig {
        conns: 3,
        ops_per_conn: 50,
        pipeline: 8,
        fields: 2,
        value_size: 16,
        seed,
    };
    let report = run_loadgen(server.addr(), &cfg);
    server.shutdown();
    for c in &report.per_conn {
        assert!(c.proto_error.is_none(), "conn {}: {:?}", c.conn, c.proto_error);
        assert_eq!(c.sent, cfg.ops_per_conn, "conn {} did not send everything", c.conn);
    }
    report.history.invocation_digest()
}

/// Two runs at the same seed must record byte-identical invocation
/// sequences — timing and thread scheduling vary, the op stream must not.
#[test]
fn same_seed_records_byte_identical_invocations() {
    let a = digest_for(7);
    let b = digest_for(7);
    assert!(!a.is_empty(), "digest should cover the recorded invocations");
    assert_eq!(a, b, "same seed, different invocation stream");
    let c = digest_for(8);
    assert_ne!(a, c, "distinct seeds must produce distinct op streams");
}

// ------------------------------------------- reads behind unacked writes

const MIXED_KEYS: usize = 8;
const MIXED_WINDOW: usize = 16;
const MIXED_WINDOWS: usize = 12;

struct MixedClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rec: ClientRecorder,
}

impl MixedClient {
    fn connect(addr: SocketAddr, clock: &Clock, client: usize) -> MixedClient {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("read timeout");
        handshake(&mut stream).expect("hello");
        MixedClient {
            stream,
            rbuf: Vec::new(),
            rec: ClientRecorder::new(clock, client),
        }
    }

    /// One pipeline window: invoke every request, send them all in one
    /// `write` — so the server parses each while the ones before it are
    /// still unacknowledged — then take one reply per request.
    fn window(&mut self, reqs: &[Request]) {
        let mut frames = Vec::new();
        let mut toks = Vec::new();
        for req in reqs {
            let (key, kind) = match req {
                Request::Get(key) => (key, OpKind::Get),
                Request::Set(rec) => (
                    &rec.key,
                    OpKind::Set(rec.fields.values().map(<[u8]>::to_vec).collect()),
                ),
                Request::SetField { key, field, value } => {
                    (key, OpKind::SetField(*field, value.clone()))
                }
                other => panic!("not part of the mixed workload: {other:?}"),
            };
            toks.push(self.rec.invoke(key, kind));
            frames.extend_from_slice(&encode_request(req));
        }
        self.stream.write_all(&frames).expect("send window");
        for tok in toks {
            let reply = loop {
                if let Some((reply, n)) = parse_reply(&self.rbuf).expect("framed reply") {
                    self.rbuf.drain(..n);
                    break reply;
                }
                let mut tmp = [0u8; 4096];
                let n = self
                    .stream
                    .read(&mut tmp)
                    .expect("reply before the timeout");
                assert!(n > 0, "server closed mid-window");
                self.rbuf.extend_from_slice(&tmp[..n]);
            };
            let outcome = match reply {
                Reply::Ok => Outcome::Ok,
                Reply::NotFound => Outcome::NotFound,
                Reply::Value(payload) => Outcome::Value(
                    jnvm_repro::kvstore::decode_record(&payload)
                        .expect("decodable record")
                        .fields
                        .values()
                        .map(<[u8]>::to_vec)
                        .collect(),
                ),
                other => panic!("crash-free traffic answered {other:?}"),
            };
            self.rec.resolve(tok, outcome);
        }
    }
}

/// `MIXED_WINDOWS` windows of `SETF`/`GET` over the shared keys. `SETF`
/// values name the op that wrote them, so every served record pins down
/// which writes it observed.
fn mixed_traffic(mut client: MixedClient, conn: usize) -> ClientRecorder {
    let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(conn as u64 + 1);
    for w in 0..MIXED_WINDOWS {
        let reqs: Vec<Request> = (0..MIXED_WINDOW)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = format!("mixed-{}", (x >> 33) as usize % MIXED_KEYS);
                if (x >> 40) & 1 == 0 {
                    Request::Get(key)
                } else {
                    Request::SetField {
                        key,
                        field: (x >> 41) as usize % 2,
                        value: format!("c{conn}-w{w}-{i}").into_bytes(),
                    }
                }
            })
            .collect();
        client.window(&reqs);
    }
    client.rec
}

/// The relaxed case, checked: a `GET` no longer waits for the connection's
/// unacknowledged writes to other keys, so the recorded history holds
/// reads that executed *behind* such writes — the loadgen's stream never
/// produces one (its only `GET` targets the key it has just `SET`). Two
/// pipelined connections mix `SETF` and `GET` over 8 shared keys; the
/// whole history must still linearize.
#[test]
fn reads_behind_unacked_writes_to_other_keys_linearize() {
    let cluster =
        Cluster::create(1, 1, 4, PmemConfig::crash_sim(32 << 20), true).expect("create pool");
    let server = cluster.start(ServerConfig::default()).expect("bind server");
    let addr = server.addr();
    let clock = Clock::new();
    let mut preload = MixedClient::connect(addr, &clock, 2);
    let records: Vec<Request> = (0..MIXED_KEYS)
        .map(|k| {
            let fields = [b"init-0".to_vec(), b"init-1".to_vec()];
            Request::Set(Record::ycsb(&format!("mixed-{k}"), &fields))
        })
        .collect();
    preload.window(&records);
    let mut recorders: Vec<ClientRecorder> = std::thread::scope(|s| {
        let conns: Vec<_> = (0..2)
            .map(|c| {
                let client = MixedClient::connect(addr, &clock, c);
                s.spawn(move || mixed_traffic(client, c))
            })
            .collect();
        conns
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.shutdown();
    recorders.push(preload.rec);
    let history = History::collect(clock, recorders);
    let report = check(&history).unwrap_or_else(|v| panic!("not linearizable: {v}"));
    assert_eq!(report.keys, MIXED_KEYS);
    assert_eq!(report.events, 2 * MIXED_WINDOWS * MIXED_WINDOW + MIXED_KEYS);
    assert_eq!(report.indeterminate, 0);
}
