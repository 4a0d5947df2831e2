//! Durable linearizability, below the wire and over it.
//!
//! **One in-process kill experiment**, a driver over `(shards, replicas,
//! crash target)`: a [`Cluster`], one worker per shard committing chunks of
//! writes through its [`ReplicaSet`] with [`commit_writes_replicated`]
//! (backup first, then primary — the server's ordering; with one replica,
//! or once the set has degraded, it is plain `commit_writes`), every op
//! recorded into a [`ClientRecorder`] history, and one device armed through
//! `faultsim::torture_point`. When the crash fires the worker reacts as the
//! server's committer does: if the active replica's device froze it
//! promotes the backup, or with none left the shard dies; if the backup's
//! froze the primary runs solo. One oracle judges every point: the history,
//! closed over the survivors' recovered images, must be durably
//! linearizable ([`History::check_recovered`]), and after a failover the
//! crashed primary's image must never be ahead of the promoted backup
//! ([`History::audit_failover`]).
//!
//! Then two crash-free wire-level checks: the seeded loadgen replays
//! byte-identical invocation sequences, and pipelined reads behind
//! unacknowledged writes to other keys linearize. The checker's own
//! adversarial self-tests (hand-crafted histories with pinned minimized
//! witnesses) live in `crates/lincheck/src/check.rs`.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use jnvm_repro::faultsim::{strided_points, torture_point};
use jnvm_repro::jnvm::{RecoveryOptions, ReplicaSet};
use jnvm_repro::kvstore::{
    commit_writes_replicated, shard_for_key, GridConfig, Record, ReplLag, ReplicaStack, ShardedKv,
    WriteOp,
};
use jnvm_repro::lincheck::{check, ClientRecorder, Clock, FieldVals, History, OpKind, Outcome};
use jnvm_repro::pmem::{catch_crash, silence_crash_panics, FaultPlan, Pmem, PmemConfig};
use jnvm_repro::server::{
    encode_request, handshake, read_reply, run_loadgen, Cluster, LoadgenConfig, Reply, Request,
    ServerConfig, ShardHandle,
};

// ------------------------------------------------ the in-process kill driver

/// The shape of one kill experiment.
#[derive(Debug, Clone, Copy)]
struct Kill {
    shards: usize,
    replicas: usize,
    /// The armed device, `(shard, replica)`; replica 0 is the primary.
    target: (usize, usize),
}

/// Shard 0's only device dies, and the shard with it.
const SOLO: Kill = Kill {
    shards: 2,
    replicas: 1,
    target: (0, 0),
};
/// Shard 0's primary dies and its backup takes over.
const PRIMARY: Kill = Kill {
    shards: 2,
    replicas: 2,
    target: (0, 0),
};
/// Shard 0's backup dies and its primary runs solo.
const BACKUP: Kill = Kill {
    shards: 2,
    replicas: 2,
    target: (0, 1),
};

const CHUNKS: usize = 12;

/// Key `i` of chunk `c`, salted until it routes to `shard`: the survivors
/// are reopened as one routed store.
fn key(kill: Kill, shard: usize, c: usize, i: usize) -> String {
    (0u32..)
        .map(|salt| format!("s{shard}-c{c:02}-k{i}-{salt}"))
        .find(|k| shard_for_key(k, kill.shards) == shard)
        .expect("some salt routes to the shard")
}

/// One commit group: four SETs of two-field records, a SETF of key 3's
/// field 0 and a DEL of key 0. Keys are unique per chunk, so every key has
/// one writer.
fn chunk(kill: Kill, shard: usize, c: usize) -> Vec<WriteOp> {
    let k = |i: usize| key(kill, shard, c, i);
    let val = |tag: &str, i: usize| format!("{tag}{shard}-{c}-{i}").into_bytes();
    let mut ops: Vec<WriteOp> = (0..4)
        .map(|i| WriteOp::Set(Record::ycsb(&k(i), &[val("v", i), val("w", i)])))
        .collect();
    ops.push(WriteOp::SetField {
        key: k(3),
        field: 0,
        value: val("f", 3),
    });
    ops.push(WriteOp::Del(k(0)));
    ops
}

fn fields(rec: Option<Record>) -> Option<FieldVals> {
    rec.map(|rec| rec.fields.values().map(<[u8]>::to_vec).collect())
}

fn captured_kind(op: &WriteOp) -> OpKind {
    match op {
        WriteOp::Set(rec) => OpKind::Set(rec.fields.values().map(<[u8]>::to_vec).collect()),
        WriteOp::SetField { field, value, .. } => OpKind::SetField(*field, value.clone()),
        WriteOp::Del(_) => OpKind::Del,
    }
}

/// What the workers leave for the verifier; `Arc`ed past the harness's
/// context drop.
struct Log {
    clock: Clock,
    /// One recorder per shard worker.
    recorders: Vec<Mutex<ClientRecorder>>,
    /// Chunks acked, per shard.
    acked: Vec<AtomicUsize>,
    acked_after_promotion: AtomicUsize,
    promotions: AtomicUsize,
    degrades: AtomicUsize,
}

impl Log {
    fn new(kill: Kill) -> Arc<Log> {
        let clock = Clock::new();
        Arc::new(Log {
            recorders: (0..kill.shards)
                .map(|s| Mutex::new(ClientRecorder::new(&clock, s)))
                .collect(),
            clock,
            acked: (0..kill.shards).map(|_| AtomicUsize::new(0)).collect(),
            acked_after_promotion: AtomicUsize::new(0),
            promotions: AtomicUsize::new(0),
            degrades: AtomicUsize::new(0),
        })
    }

    fn history(&self) -> History {
        let recs = self.recorders.iter().enumerate().map(|(s, m)| {
            let fresh = ClientRecorder::new(&self.clock, s);
            std::mem::replace(&mut *m.lock().expect("recorder lock"), fresh)
        });
        History::collect(self.clock.clone(), recs.collect::<Vec<_>>())
    }
}

struct Ctx {
    kill: Kill,
    sets: Vec<ReplicaSet<ShardHandle>>,
    lags: Vec<ReplLag>,
    log: Arc<Log>,
    /// Owns the runtimes under `sets`; declared (so dropped) after them.
    _cluster: Cluster,
}

fn setup(kill: Kill, log: &Arc<Log>) -> (Vec<Vec<Arc<Pmem>>>, Ctx) {
    let cluster = Cluster::create(
        kill.shards,
        kill.replicas,
        4,
        PmemConfig::crash_sim(24 << 20),
        true,
    )
    .expect("create pools");
    let ctx = Ctx {
        kill,
        sets: cluster.handles().into_iter().map(ReplicaSet::new).collect(),
        lags: (0..kill.shards).map(|_| ReplLag::new()).collect(),
        log: Arc::clone(log),
        _cluster: cluster,
    };
    (ctx._cluster.pmems().to_vec(), ctx)
}

fn stack(h: &ShardHandle) -> ReplicaStack<'_> {
    ReplicaStack {
        grid: &h.grid,
        be: &h.be,
    }
}

/// Per-shard worker: commit every chunk through the shard's replica set.
/// Every op is invoked before the commit touches a device, so a crash
/// mid-chunk leaves the whole chunk indeterminate (the backup may hold it);
/// a chunk is acked when the commit returns.
fn drive(shard: usize, ctx: &Ctx) {
    let (set, log) = (&ctx.sets[shard], &ctx.log);
    for c in 0..CHUNKS {
        let ops = chunk(ctx.kill, shard, c);
        let toks: Vec<_> = {
            let mut rec = log.recorders[shard].lock().expect("recorder lock");
            ops.iter()
                .map(|op| rec.invoke(op.key(), captured_kind(op)))
                .collect()
        };
        let committed = catch_crash(|| {
            commit_writes_replicated(
                stack(set.active()),
                set.backup().map(stack),
                &ops,
                &ctx.lags[shard],
            )
        });
        match committed {
            Ok(out) => {
                let mut rec = log.recorders[shard].lock().expect("recorder lock");
                for (tok, (op, applied)) in toks.into_iter().zip(ops.iter().zip(&out.results)) {
                    let outcome = match op {
                        WriteOp::Set(_) => Outcome::Ok,
                        _ if *applied => Outcome::Ok,
                        _ => Outcome::NotFound,
                    };
                    rec.resolve(tok, outcome);
                }
                log.acked[shard].fetch_add(1, Ordering::Relaxed);
                if set.promotions() > 0 {
                    log.acked_after_promotion.fetch_add(1, Ordering::Relaxed);
                }
            }
            // The active replica's device froze: fail over, or with no
            // backup left the shard dies.
            Err(_) if set.active().pmem.faults_frozen() => {
                if set.promote().is_none() {
                    return;
                }
                log.promotions.fetch_add(1, Ordering::Relaxed);
            }
            // The backup's froze: the primary runs solo.
            Err(_) => {
                set.degrade();
                log.degrades.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn reopen(devs: &[Arc<Pmem>]) -> ShardedKv {
    let grid = GridConfig { cache_capacity: 0 };
    ShardedKv::open(devs, true, grid, RecoveryOptions::parallel(2))
        .expect("reopen after the crash")
        .0
}

/// What one point showed.
struct Tally {
    injected: bool,
    ops_counted: u64,
    acked: Vec<usize>,
    acked_after_promotion: usize,
    promotions: usize,
    degrades: usize,
}

/// One kill experiment: arm `point` on the target device, run the workers,
/// then hold the history to the oracle on the survivors — the promoted
/// backup of a failed-over shard, every other shard's primary — and audit
/// a failed-over shard's crashed primary. Untouched shards must ack every
/// chunk. `u64::MAX` is the count pass: nothing fires, the oracle still
/// runs.
fn run_point(kill: Kill, point: u64) -> Tally {
    let log = Log::new(kill);
    let vlog = Arc::clone(&log);
    let out = torture_point(
        point,
        FaultPlan::count(),
        kill.target,
        kill.shards,
        || setup(kill, &log),
        drive,
        |pmems, _| {
            let crash_shard = kill.target.0;
            for s in (0..kill.shards).filter(|&s| s != crash_shard) {
                let acked = vlog.acked[s].load(Ordering::Relaxed);
                assert_eq!(
                    acked, CHUNKS,
                    "point {point}: untouched shard {s} acked {acked} chunks"
                );
            }
            let promoted = vlog.promotions.load(Ordering::Relaxed) > 0;
            let survivors: Vec<Arc<Pmem>> = pmems
                .iter()
                .enumerate()
                .map(|(s, reps)| Arc::clone(&reps[usize::from(promoted && s == crash_shard)]))
                .collect();
            let kv = reopen(&survivors);
            let mut history = vlog.history();
            if let Err(v) = history.check_recovered(|k| fields(kv.read(k))) {
                panic!("point {point}: durable-linearizability violation: {v}");
            }
            if promoted {
                let primary = reopen(&pmems[crash_shard][..1]);
                let crash_keys = history
                    .keys()
                    .into_iter()
                    .filter(|k| kv.route(k) == crash_shard);
                if let Err(e) = history.audit_failover(
                    crash_keys,
                    |k| fields(primary.read(k)),
                    |k| fields(kv.read(k)),
                ) {
                    panic!("point {point}: {e}");
                }
            }
        },
    );
    Tally {
        injected: out.injected,
        ops_counted: out.ops_counted,
        acked: log
            .acked
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
        acked_after_promotion: log.acked_after_promotion.load(Ordering::Relaxed),
        promotions: log.promotions.load(Ordering::Relaxed),
        degrades: log.degrades.load(Ordering::Relaxed),
    }
}

/// Count the target device's ops, then run at most `max_points` points
/// strided across them.
fn sweep(kill: Kill, max_points: u64) -> Vec<Tally> {
    silence_crash_panics();
    let total = run_point(kill, u64::MAX).ops_counted;
    assert!(total > 0, "count pass saw no device ops");
    let points = strided_points(total, max_points);
    points
        .into_iter()
        .map(|point| run_point(kill, point))
        .collect()
}

/// N×1: a crash kills its shard, and the dead shard's history is checked
/// on its own recovered device.
#[test]
fn sharded_torture_histories_are_durably_linearizable() {
    let points = sweep(SOLO, 6);
    assert!(
        points
            .iter()
            .any(|p| p.injected && p.acked[SOLO.target.0] < CHUNKS),
        "no point killed the crash shard mid-run"
    );
    assert!(points.iter().all(|p| p.promotions == 0 && p.degrades == 0));
}

/// N×2, primary kill: the shard promotes its backup and keeps acking on it.
#[test]
fn acked_chunks_survive_primary_crash_and_failover() {
    let points = sweep(PRIMARY, 8);
    assert!(
        points.iter().any(|p| p.promotions > 0),
        "no point promoted — sweep never hit the primary"
    );
    assert!(
        points
            .iter()
            .map(|p| p.acked_after_promotion)
            .sum::<usize>()
            > 0,
        "no chunk was ever acked after promotion"
    );
}

/// N×2, backup kill: the shard degrades to solo and never promotes.
#[test]
fn backup_crash_degrades_without_losing_acked_chunks() {
    let points = sweep(BACKUP, 5);
    assert!(
        points.iter().all(|p| p.promotions == 0),
        "a backup crash must never promote"
    );
    assert!(
        points.iter().any(|p| p.degrades > 0),
        "sweep never hit the backup"
    );
}

/// The wide sweeps for the torture CI job.
#[test]
#[ignore = "wide sweeps; run with --ignored in the torture job"]
fn wide_kill_sweeps() {
    sweep(SOLO, 48);
    sweep(PRIMARY, 64);
    sweep(BACKUP, 24);
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
        assert!(
            c.proto_error.is_none(),
            "conn {}: {:?}",
            c.conn,
            c.proto_error
        );
        assert_eq!(
            c.sent, cfg.ops_per_conn,
            "conn {} did not send everything",
            c.conn
        );
    }
    report.history.invocation_digest()
}

/// Two runs at the same seed must record byte-identical invocation
/// sequences — timing and thread scheduling vary, the op stream must not.
#[test]
fn same_seed_records_byte_identical_invocations() {
    let a = digest_for(7);
    let b = digest_for(7);
    assert!(
        !a.is_empty(),
        "digest should cover the recorded invocations"
    );
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
            let reply = read_reply(&mut self.stream, &mut self.rbuf)
                .expect("framed reply")
                .expect("a reply before the server closed or went silent");
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
