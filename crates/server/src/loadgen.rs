//! The pipelined load generator (client side of the wire protocol).
//!
//! Traffic is **deterministic** given `(seed, connection, op index)`
//! ([`key_for`], [`value_for`], [`op_for`]), and every request is recorded
//! as an interval-stamped `jnvm-lincheck` event in [`LoadReport::history`].
//! The checker's verdict on that history is the run's verdict:
//! `jnvm-loadgen` checks a crash-free run as it is, and the
//! kill-during-traffic torture ([`crate::torture`]) closes it over the
//! recovered image first.
//!
//! Per connection, op `i` is:
//!
//! | `i % 10` | op |
//! |---|---|
//! | 4 | `DEL key(i-1)` |
//! | 7 | `GET key(i-1)` |
//! | 9 | `SETF key(i-1) field0` |
//! | else | `SET key(i)` with `fields` deterministic values |
//!
//! Replies come back strictly in request order, so the set of *replied*
//! ops is a prefix of the sent ops — an `Ok`-acked write is by protocol
//! durable, and everything after the first error/silence is unknown.
//!
//! Every key has one writer, the connection that `SET`s it, and the op
//! that follows on that key rides behind the `SET` in the pipeline. The
//! server applies one connection's writes to a key in request order and
//! lets a `GET` see them (DESIGN.md §8); the checker holds one client's
//! ops on one key to that order, so an op that overtakes its key's `SET`
//! has no linearization. This stream never reads behind an
//! unacknowledged write to a *different* key; `tests/lincheck.rs` has the
//! history that does.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use jnvm_kvstore::Record;
use jnvm_lincheck::{ClientRecorder, Clock, History, OpKind, Outcome};
use jnvm_obs::Histogram;

use crate::proto::{encode_request, read_reply, ProtoError, Reply, Request};

/// Load shape.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Concurrent connections.
    pub conns: usize,
    /// Requests per connection.
    pub ops_per_conn: usize,
    /// Pipeline window: unreplied requests kept in flight.
    pub pipeline: usize,
    /// Fields per SET record.
    pub fields: usize,
    /// Bytes per field value.
    pub value_size: usize,
    /// Determinism seed: mixed into every key and value, so distinct
    /// seeds hit distinct keys (and therefore shard routings) while the
    /// same seed replays byte-identical invocation sequences.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            conns: 4,
            ops_per_conn: 200,
            pipeline: 16,
            fields: 4,
            value_size: 64,
            seed: 0,
        }
    }
}

/// What one request ended up as, client-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// No reply arrived (crash, shutdown, or connection cut).
    NoReply,
    /// Write acked — durable by protocol contract.
    Ok,
    /// GET returned a record.
    Value,
    /// Target absent.
    NotFound,
    /// Server answered an error.
    Err,
}

/// One connection's outcome.
#[derive(Debug, Clone)]
pub struct ConnReport {
    /// Connection index.
    pub conn: usize,
    /// Requests actually written to the socket.
    pub sent: usize,
    /// Per-op outcomes, indexed by op index; length `ops_per_conn`.
    pub outcomes: Vec<OpOutcome>,
    /// Reply latency histogram (ns).
    pub hist: Histogram,
    /// Set when the connection stopped because the reply stream became
    /// unparseable (as opposed to timing out or being cut). Previously
    /// this was silently folded into "no reply".
    pub proto_error: Option<ProtoError>,
}

impl ConnReport {
    /// Replies received (a prefix of the sent ops).
    pub fn replied(&self) -> usize {
        self.outcomes
            .iter()
            .take_while(|o| **o != OpOutcome::NoReply)
            .count()
    }
}

/// Aggregated run outcome.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-connection detail.
    pub per_conn: Vec<ConnReport>,
    /// Merged latency histogram across connections.
    pub hist: Histogram,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// `Ok`-acked writes across connections.
    pub acked_writes: u64,
    /// `Err` replies across connections.
    pub errors: u64,
    /// The captured op history: one interval-stamped event per sent
    /// request, `Indeterminate` where the reply never arrived. The kill
    /// tortures mark the crash and append post-recovery observations,
    /// then feed this to [`jnvm_lincheck::check`].
    pub history: History,
}

/// The key op `i` of connection `conn` creates (for SET indices). Seed 0
/// keeps the legacy `c{conn}-{i}` shape; other seeds get a distinct
/// prefix, which re-routes every key through `shard_for_key` — each seed
/// exercises a different shard interleaving of the *same* op pattern.
pub fn key_for(seed: u64, conn: usize, i: usize) -> String {
    if seed == 0 {
        format!("c{conn}-{i:06}")
    } else {
        format!("s{seed:x}-c{conn}-{i:06}")
    }
}

/// Deterministic value bytes for `(seed, conn, op, field)`.
pub fn value_for(seed: u64, conn: usize, i: usize, field: usize, len: usize) -> Vec<u8> {
    let mut x = 0xcbf29ce484222325u64
        ^ seed.wrapping_mul(0xff51afd7ed558ccd)
        ^ (conn as u64).wrapping_mul(0x100000001b3)
        ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15)
        ^ (field as u64).wrapping_mul(0xd1b54a32d192ed03);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        out.push((x >> 33) as u8);
    }
    out
}

/// The deterministic request for `(conn, i)`.
pub fn op_for(conn: usize, i: usize, cfg: &LoadgenConfig) -> Request {
    let seed = cfg.seed;
    match i % 10 {
        4 if i > 0 => Request::Del(key_for(seed, conn, i - 1)),
        7 if i > 0 => Request::Get(key_for(seed, conn, i - 1)),
        9 if i > 0 => Request::SetField {
            key: key_for(seed, conn, i - 1),
            field: 0,
            value: value_for(seed, conn, i, 0, cfg.value_size),
        },
        _ => {
            let values: Vec<Vec<u8>> = (0..cfg.fields.max(1))
                .map(|f| value_for(seed, conn, i, f, cfg.value_size))
                .collect();
            Request::Set(Record::ycsb(&key_for(seed, conn, i), &values))
        }
    }
}

/// The history-capture view of a request: target key plus the abstract
/// [`OpKind`] the checker's sequential spec understands.
fn captured_kind(req: &Request) -> Option<(&str, OpKind)> {
    match req {
        Request::Get(key) => Some((key, OpKind::Get)),
        Request::Del(key) => Some((key, OpKind::Del)),
        Request::Set(rec) => Some((
            &rec.key,
            OpKind::Set(rec.fields.values().map(<[u8]>::to_vec).collect()),
        )),
        Request::SetField { key, field, value } => {
            Some((key, OpKind::SetField(*field, value.clone())))
        }
        _ => None,
    }
}

type Window = std::collections::VecDeque<(usize, Instant, Option<jnvm_lincheck::OpToken>)>;

fn run_conn(
    addr: SocketAddr,
    conn: usize,
    cfg: &LoadgenConfig,
    clock: &Clock,
) -> (ConnReport, ClientRecorder) {
    let mut recorder = ClientRecorder::new(clock, conn);
    let mut report = ConnReport {
        conn,
        sent: 0,
        outcomes: vec![OpOutcome::NoReply; cfg.ops_per_conn],
        hist: Histogram::new(),
        proto_error: None,
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (report, recorder);
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // Connect-time hello: a version mismatch is a typed outcome, not
    // silence.
    if let Err(e) = crate::proto::handshake(&mut stream) {
        report.proto_error = crate::proto::handshake_proto_error(&e);
        return (report, recorder);
    }

    let mut window: Window = Default::default();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut dead = false;

    let settle = |report: &mut ConnReport,
                  recorder: &mut ClientRecorder,
                  window: &mut Window,
                  stream: &mut TcpStream,
                  rbuf: &mut Vec<u8>| {
        let reply = match read_reply(stream, rbuf) {
            Ok(Some(reply)) => reply,
            Ok(None) => return false,
            Err(e) => {
                report.proto_error = Some(e);
                return false;
            }
        };
        let (i, sent_at, tok) = window.pop_front().expect("reply without request");
        report.hist.record(sent_at.elapsed().as_nanos() as u64);
        let (outcome, observed) = match reply {
            Reply::Ok => (OpOutcome::Ok, Outcome::Ok),
            Reply::NotFound => (OpOutcome::NotFound, Outcome::NotFound),
            // An error reply ends the op but leaves its effect unknown:
            // the history keeps it Indeterminate (with a response stamp).
            // Acks belong on the replication link, never to a client.
            Reply::Err(_) | Reply::ReplAck(_) => (OpOutcome::Err, Outcome::Indeterminate),
            // The history records what was *actually served*: an
            // undecodable payload becomes an empty record, which no SET
            // ever writes, so the checker convicts it.
            Reply::Value(payload) => {
                let fields = jnvm_kvstore::decode_record(&payload)
                    .map(|r| r.fields.values().map(<[u8]>::to_vec).collect())
                    .unwrap_or_default();
                (OpOutcome::Value, Outcome::Value(fields))
            }
        };
        report.outcomes[i] = outcome;
        if let Some(tok) = tok {
            recorder.resolve(tok, observed);
        }
        true
    };

    for i in 0..cfg.ops_per_conn {
        let req = op_for(conn, i, cfg);
        let frame = encode_request(&req);
        // Invoke *before* the bytes hit the socket: the recorded interval
        // must contain the op's real execution window, so widening it at
        // the front is sound, narrowing it is not. An op invoked here but
        // never sent just stays Indeterminate — free to vanish.
        let tok = captured_kind(&req).map(|(key, kind)| recorder.invoke(key, kind));
        if stream.write_all(&frame).is_err() {
            dead = true;
            break;
        }
        report.sent += 1;
        window.push_back((i, Instant::now(), tok));
        while window.len() >= cfg.pipeline.max(1) {
            if !settle(&mut report, &mut recorder, &mut window, &mut stream, &mut rbuf) {
                dead = true;
                break;
            }
        }
        if dead {
            break;
        }
    }
    while !dead && !window.is_empty() {
        if !settle(&mut report, &mut recorder, &mut window, &mut stream, &mut rbuf) {
            break;
        }
    }
    (report, recorder)
}

/// Run the configured load against `addr`; one thread per connection.
pub fn run_loadgen(addr: SocketAddr, cfg: &LoadgenConfig) -> LoadReport {
    let t0 = Instant::now();
    let clock = Clock::new();
    let per_conn: Vec<(ConnReport, ClientRecorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|c| {
                let clock = clock.clone();
                s.spawn(move || run_conn(addr, c, cfg, &clock))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("conn thread")).collect()
    });
    let (per_conn, recorders): (Vec<ConnReport>, Vec<ClientRecorder>) =
        per_conn.into_iter().unzip();
    let mut hist = Histogram::new();
    let mut acked_writes = 0u64;
    let mut errors = 0u64;
    for c in &per_conn {
        hist.merge(&c.hist);
        for o in &c.outcomes {
            match o {
                OpOutcome::Ok => acked_writes += 1,
                OpOutcome::Err => errors += 1,
                _ => {}
            }
        }
    }
    LoadReport {
        per_conn,
        hist,
        elapsed: t0.elapsed(),
        acked_writes,
        errors,
        history: History::collect(clock, recorders),
    }
}
