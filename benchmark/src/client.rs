//! The load: a closed loop of pipelined connections against the server's
//! socket, one thread per connection, every reply checked.
//!
//! Connections draw op indices from one shared counter until the phase's
//! ops are used up, then drain their windows, so all of them stop together
//! (a per-connection quota leaves the slower connection running alone at the
//! end), the ops sent are exactly `0..issued`, and the dataset a phase
//! leaves behind is the same in every run.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use jnvm_kvstore::decode_record;
use jnvm_server::{encode_request, handshake, parse_reply, Reply, Request};

use crate::audit::{check_served_record, Ledger};
use crate::workload::{Op, Workload};

/// Unreplied requests each connection keeps in flight.
pub const PIPELINE: usize = 16;
/// A reply later than this counts as a timeout and ends the connection.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One completed request, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time since the phase started.
    pub done_ns: u64,
    /// Socket write → reply parsed.
    pub latency_ns: u64,
    pub is_read: bool,
}

/// One drained stretch of load.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Requests written to a socket.
    pub sent: u64,
    /// Error replies, `NotFound` where the key must exist, and GET payloads
    /// that are undecodable or hold bytes no op wrote.
    pub errors: u64,
    pub acked_writes: u64,
    /// Value bytes returned by GETs and carried by acknowledged writes.
    pub user_bytes: u64,
    /// The part of `user_bytes` carried by acknowledged writes.
    pub write_user_bytes: u64,
    /// Phase start → last reply.
    pub elapsed: Duration,
    /// Acknowledged write ops per connection, in acknowledgement order.
    pub acked_by_conn: Vec<Vec<u64>>,
    /// Ops drawn that were not answered as they should (no reply, error,
    /// or never sent because the connection had died).
    pub lost: Vec<u64>,
    /// The stream counter after the phase: ops `0..issued` were drawn.
    pub issued: u64,
    /// First failure seen, for the report.
    pub first_error: Option<String>,
}

impl Phase {
    pub fn replies(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Requests that got no reply.
    pub fn timeouts(&self) -> u64 {
        self.sent - self.replies()
    }

    pub fn throughput(&self) -> f64 {
        self.replies() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` already parsed.
    rpos: usize,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        handshake(&mut stream)?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(64 << 10),
            rpos: 0,
        })
    }

    /// The next reply; `None` on timeout, close or an unparseable stream.
    fn read_reply(&mut self) -> Option<Reply> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut tmp = [0u8; 16 << 10];
        loop {
            match parse_reply(&self.rbuf[self.rpos..]) {
                Ok(Some((reply, n))) => {
                    self.rpos += n;
                    return Some(reply);
                }
                Ok(None) => {}
                Err(_) => return None,
            }
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
            if Instant::now() > deadline {
                return None;
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => return None,
                Ok(n) => self.rbuf.extend_from_slice(&tmp[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return None,
            }
        }
    }

    fn call(&mut self, req: &Request) -> Option<Reply> {
        self.stream.write_all(&encode_request(req)).ok()?;
        self.read_reply()
    }
}

/// The benchmark's client: `conns` open connections and the op counter
/// they share.
pub struct Client {
    conns: Vec<Conn>,
    next_op: AtomicU64,
}

impl Client {
    pub fn connect(addr: SocketAddr, conns: usize) -> std::io::Result<Client> {
        let conns = (0..conns)
            .map(|_| Conn::open(addr))
            .collect::<Result<_, _>>()?;
        Ok(Client {
            conns,
            next_op: AtomicU64::new(0),
        })
    }

    /// Send the next `ops` ops of the stream, then drain. `cap` bounds the
    /// sending time: a build several times slower than the one the op
    /// counts were sized on stops early instead of overrunning the run.
    pub fn run_phase(&mut self, w: &Workload, ops: u64, cap: Duration) -> Phase {
        let next_op = &self.next_op;
        let start = Instant::now();
        let end = next_op.load(Ordering::SeqCst) + ops;
        let parts: Vec<ConnPhase> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| s.spawn(move || run_conn(conn, w, next_op, end, start, start + cap)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        });
        // Each connection's last draw overshot `end` by one.
        let issued = next_op.load(Ordering::SeqCst).min(end);
        next_op.store(issued, Ordering::SeqCst);
        let mut phase = Phase {
            issued,
            ..Phase::default()
        };
        for part in parts {
            phase.elapsed = phase.elapsed.max(part.last_reply.duration_since(start));
            phase.samples.extend(part.samples);
            phase.sent += part.sent;
            phase.errors += part.errors;
            phase.acked_writes += part.acked.len() as u64;
            phase.user_bytes += part.user_bytes;
            phase.write_user_bytes += part.write_user_bytes;
            phase.acked_by_conn.push(part.acked);
            phase.lost.extend(part.lost);
            phase.first_error = phase.first_error.or(part.first_error);
        }
        phase
    }

    /// GET every sampled key over the socket and check it against the
    /// ledger. Returns `(checked, failures, first failure)`.
    pub fn audit(&mut self, w: &Workload, ledger: &Ledger) -> (u64, u64, Option<String>) {
        let conn = &mut self.conns[0];
        let mut failures = 0;
        let mut first = None;
        for &key in &ledger.sample {
            let verdict = match conn.call(&Request::Get(w.key_name(key))) {
                Some(Reply::NotFound) => ledger.check(w, key, None),
                Some(Reply::Value(payload)) => match decode_record(&payload) {
                    Some(rec) => ledger.check(w, key, Some(&rec)),
                    None => Err(format!("key {key}: undecodable payload")),
                },
                other => Err(format!("key {key}: audit GET answered {other:?}")),
            };
            if let Err(e) = verdict {
                failures += 1;
                first.get_or_insert(e);
            }
        }
        (ledger.sample.len() as u64, failures, first)
    }
}

struct ConnPhase {
    samples: Vec<Sample>,
    sent: u64,
    errors: u64,
    acked: Vec<u64>,
    user_bytes: u64,
    write_user_bytes: u64,
    lost: Vec<u64>,
    start: Instant,
    last_reply: Instant,
    first_error: Option<String>,
}

fn run_conn(
    conn: &mut Conn,
    w: &Workload,
    next_op: &AtomicU64,
    end: u64,
    start: Instant,
    deadline: Instant,
) -> ConnPhase {
    let mut out = ConnPhase {
        samples: Vec::with_capacity(1 << 18),
        sent: 0,
        errors: 0,
        acked: Vec::new(),
        user_bytes: 0,
        write_user_bytes: 0,
        lost: Vec::new(),
        start,
        last_reply: start,
        first_error: None,
    };
    let mut window: VecDeque<(u64, Op, Instant)> = VecDeque::with_capacity(PIPELINE);
    let mut alive = true;
    while alive && Instant::now() < deadline {
        let i = next_op.fetch_add(1, Ordering::Relaxed);
        if i >= end {
            break;
        }
        let op = w.op(i);
        let frame = encode_request(&w.request(i, op));
        let sent_at = Instant::now();
        if conn.stream.write_all(&frame).is_err() {
            out.lost.push(i);
            break;
        }
        out.sent += 1;
        window.push_back((i, op, sent_at));
        while alive && window.len() >= PIPELINE {
            alive = settle(conn, w, next_op, &mut window, &mut out);
        }
    }
    while alive && !window.is_empty() {
        alive = settle(conn, w, next_op, &mut window, &mut out);
    }
    out.lost.extend(window.iter().map(|(i, ..)| *i));
    out
}

/// Take one reply off the connection and check it against the request at
/// the head of the window. `false` = the connection is finished.
fn settle(
    conn: &mut Conn,
    w: &Workload,
    next_op: &AtomicU64,
    window: &mut VecDeque<(u64, Op, Instant)>,
    out: &mut ConnPhase,
) -> bool {
    let Some(reply) = conn.read_reply() else {
        out.first_error
            .get_or_insert_with(|| "no reply within the timeout".to_string());
        return false;
    };
    let now = Instant::now();
    let (i, op, sent_at) = window.pop_front().expect("reply without a request");
    out.last_reply = now;
    out.samples.push(Sample {
        done_ns: now.duration_since(out.start).as_nanos() as u64,
        latency_ns: now.duration_since(sent_at).as_nanos() as u64,
        is_read: op.is_read(),
    });
    let verdict = match (&op, reply) {
        (Op::Get { key }, Reply::Value(payload)) => match decode_record(&payload) {
            // Bytes of an op another connection has drawn but not yet had
            // acknowledged are legal here: a write may take effect before
            // its reply arrives.
            Some(rec) => check_served_record(w, *key, &rec, next_op.load(Ordering::Relaxed)),
            None => Err(format!("op {i}: undecodable GET payload")),
        },
        (Op::Get { .. }, other) => Err(format!("op {i}: GET answered {other:?}")),
        (_, Reply::Ok) => {
            out.acked.push(i);
            Ok(())
        }
        (_, other) => Err(format!("op {i}: write answered {other:?}")),
    };
    match verdict {
        Ok(()) => {
            out.user_bytes += w.user_bytes(&op);
            if !op.is_read() {
                out.write_user_bytes += w.user_bytes(&op);
            }
        }
        Err(e) => {
            out.errors += 1;
            out.lost.push(i);
            out.first_error.get_or_insert(e);
        }
    }
    true
}
