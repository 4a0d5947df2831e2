//! The wire protocol: length-prefixed binary frames, RESP-in-spirit.
//!
//! ```text
//! request  = [magic u8 = 0x4e][op u8][len u32 LE][body: len bytes]
//! reply    = [status u8][len u32 LE][payload: len bytes]
//! ```
//!
//! | op | name | body |
//! |---|---|---|
//! | 1 | GET | key bytes |
//! | 2 | SET | [`encode_record`] bytes |
//! | 3 | SETF | `[field u32][keylen u32][key][value...]` |
//! | 4 | DEL | key bytes |
//! | 5 | LEN | empty |
//! | 6 | STATS | empty |
//! | 7 | SHUTDOWN | empty |
//! | 8 | REPL_APPLY | `[seq u64][count u32][tagged ops...]` (replication link) |
//! | 9 | TRACE | empty |
//! | 10 | METRICS | empty |
//!
//! Since protocol version 2 every connection opens with a two-byte
//! **hello** — `[MAGIC, PROTO_VERSION]` — sent by each side before any
//! frame. A peer speaking another version fails fast with a typed
//! [`ProtoError::VersionMismatch`] instead of desynchronizing on the
//! first frame whose opcode it does not know (the REPL frames are
//! exactly such an extension: a v1 peer would read `REPL_APPLY` as
//! "unknown op" at best, or misframe the stream at worst).
//!
//! Two malformation tiers, exercised by the robustness tests:
//!
//! * **frame-level** (bad magic, unknown op, oversized length): the stream
//!   is unparseable from here on — [`ParseOutcome::Malformed`], the server
//!   closes the connection;
//! * **body-level** (undecodable record, oversized key/value/field-count):
//!   the frame boundary is still sound — [`Request::Invalid`], the server
//!   replies [`Reply::Err`] and keeps the connection.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use jnvm_kvstore::{
    decode_record, encode_record, encode_record_into, encoded_len, Record, WriteOp,
};

/// First byte of every request frame.
pub const MAGIC: u8 = 0x4e;

/// Wire-protocol version, exchanged in the connect-time hello. Bumped to
/// 2 when the REPL frames were added, to 3 for the observability frames
/// (`TRACE`/`METRICS`).
pub const PROTO_VERSION: u8 = 3;

/// Hard cap on a frame body; larger lengths are treated as an attack (a
/// 4 GiB length word must not cause a 4 GiB buffer).
pub const MAX_FRAME: usize = 1 << 20;
/// Maximum key bytes.
pub const MAX_KEY: usize = 4 << 10;
/// Maximum single-value bytes.
pub const MAX_VALUE: usize = 64 << 10;
/// Maximum fields per record.
pub const MAX_FIELDS: usize = 64;

const OP_GET: u8 = 1;
const OP_SET: u8 = 2;
const OP_SETF: u8 = 3;
const OP_DEL: u8 = 4;
const OP_LEN: u8 = 5;
const OP_STATS: u8 = 6;
const OP_SHUTDOWN: u8 = 7;
const OP_REPL_APPLY: u8 = 8;
const OP_TRACE: u8 = 9;
const OP_METRICS: u8 = 10;

const ST_OK: u8 = 0;
const ST_VALUE: u8 = 1;
const ST_NOT_FOUND: u8 = 2;
const ST_ERR: u8 = 3;
const ST_REPL_ACK: u8 = 4;

const REPL_OP_SET: u8 = 0;
const REPL_OP_SETF: u8 = 1;
const REPL_OP_DEL: u8 = 2;

/// The two-byte hello each side sends at connect time.
pub fn hello_frame() -> [u8; 2] {
    [MAGIC, PROTO_VERSION]
}

/// Validate a peer's hello. A wrong magic byte means the peer is not
/// speaking this protocol at all; it is reported as a version mismatch
/// too (`theirs` then carries whatever its second byte was).
pub fn check_hello(bytes: [u8; 2]) -> Result<(), ProtoError> {
    if bytes[0] != MAGIC || bytes[1] != PROTO_VERSION {
        return Err(ProtoError::VersionMismatch {
            ours: PROTO_VERSION,
            theirs: bytes[1],
        });
    }
    Ok(())
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read a record.
    Get(String),
    /// Insert/replace a record.
    Set(Record),
    /// Replace one positional field.
    SetField {
        /// Record key.
        key: String,
        /// Positional field index.
        field: usize,
        /// New field bytes.
        value: Vec<u8>,
    },
    /// Remove a record.
    Del(String),
    /// Record count.
    Len,
    /// Server/device/grid counters as text. Its `ack_latency=` line is the
    /// obs registry's `commit-ack` summary: zero while `JNVM_OBS=off`.
    Stats,
    /// Recent per-thread observability spans as text (`jnvm-obs`
    /// tracer dump; empty-ish while `JNVM_OBS=off`).
    Trace,
    /// Observability metrics-registry snapshot as text: per-label
    /// fence/pwb accounting and latency histograms.
    Metrics,
    /// Orderly shutdown.
    Shutdown,
    /// Replication link only: apply one commit group on the backup. `seq`
    /// is the group sequence number the backup echoes in
    /// [`Reply::ReplAck`] once the group is durable on its device.
    ReplApply {
        /// Group sequence number (monotone per link).
        seq: u64,
        /// The group's logical ops, in commit order.
        ops: Vec<WriteOp>,
    },
    /// Frame was delimited correctly but its body violates a limit or does
    /// not decode; the server answers [`Reply::Err`] and carries on.
    Invalid(&'static str),
}

/// One step of the pipelined frame parser.
#[derive(Debug)]
pub enum ParseOutcome {
    /// Not enough buffered bytes for a whole frame yet.
    Incomplete,
    /// A frame: the request and how many buffer bytes it consumed.
    Frame(Request, usize),
    /// The stream is unparseable; the connection must be dropped.
    Malformed(&'static str),
}

fn utf8_key(bytes: &[u8]) -> Result<String, &'static str> {
    if bytes.len() > MAX_KEY {
        return Err("key too long");
    }
    String::from_utf8(bytes.to_vec()).map_err(|_| "key not utf-8")
}

/// Try to parse one frame from the front of `buf`.
pub fn parse_frame(buf: &[u8]) -> ParseOutcome {
    if buf.is_empty() {
        return ParseOutcome::Incomplete;
    }
    if buf[0] != MAGIC {
        return ParseOutcome::Malformed("bad magic");
    }
    if buf.len() < 6 {
        return ParseOutcome::Incomplete;
    }
    let op = buf[1];
    let len = u32::from_le_bytes(buf[2..6].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return ParseOutcome::Malformed("frame too large");
    }
    if buf.len() < 6 + len {
        return ParseOutcome::Incomplete;
    }
    let body = &buf[6..6 + len];
    let consumed = 6 + len;
    let req = match op {
        OP_GET | OP_DEL => match utf8_key(body) {
            Ok(key) if op == OP_GET => Request::Get(key),
            Ok(key) => Request::Del(key),
            Err(e) => Request::Invalid(e),
        },
        OP_SET if len > MAX_FRAME - REPL_SET_OVERHEAD => Request::Invalid("record too large"),
        OP_SET => match decode_record(body) {
            Some(rec) if rec.key.len() > MAX_KEY => Request::Invalid("key too long"),
            Some(rec) if rec.fields.len() > MAX_FIELDS => Request::Invalid("too many fields"),
            Some(rec) if rec.fields.values().any(|v| v.len() > MAX_VALUE) => {
                Request::Invalid("value too large")
            }
            Some(rec) => Request::Set(rec),
            None => Request::Invalid("record does not decode"),
        },
        OP_SETF => parse_setf(body),
        OP_REPL_APPLY => match parse_repl_apply(body) {
            Some(req) => req,
            // The replication link is server-to-server; a body that does
            // not decode means the link is corrupt, not that a client
            // sent a bad record — treat it at frame level and cut it.
            None => return ParseOutcome::Malformed("repl body does not decode"),
        },
        OP_LEN => Request::Len,
        OP_STATS => Request::Stats,
        OP_TRACE => Request::Trace,
        OP_METRICS => Request::Metrics,
        OP_SHUTDOWN => Request::Shutdown,
        _ => return ParseOutcome::Malformed("unknown op"),
    };
    ParseOutcome::Frame(req, consumed)
}

fn parse_setf(body: &[u8]) -> Request {
    if body.len() < 8 {
        return Request::Invalid("setf body truncated");
    }
    let field = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
    let keylen = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")) as usize;
    if keylen > body.len() - 8 {
        return Request::Invalid("setf key overruns body");
    }
    let key = match utf8_key(&body[8..8 + keylen]) {
        Ok(k) => k,
        Err(e) => return Request::Invalid(e),
    };
    let value = &body[8 + keylen..];
    if field >= MAX_FIELDS {
        return Request::Invalid("field index too large");
    }
    if value.len() > MAX_VALUE {
        return Request::Invalid("value too large");
    }
    Request::SetField {
        key,
        field,
        value: value.to_vec(),
    }
}

fn parse_repl_apply(body: &[u8]) -> Option<Request> {
    if body.len() < 12 {
        return None;
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    // Every op takes at least its tag byte and a length word: a count the
    // body cannot hold sizes no allocation.
    if count > (body.len() - 12) / 5 {
        return None;
    }
    let mut ops = Vec::with_capacity(count);
    let mut at = 12;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let s = body.get(*at..*at + n)?;
        *at += n;
        Some(s)
    };
    let take_u32 = |at: &mut usize| -> Option<usize> {
        Some(u32::from_le_bytes(take(at, 4)?.try_into().expect("4 bytes")) as usize)
    };
    for _ in 0..count {
        let tag = *take(&mut at, 1)?.first()?;
        let op = match tag {
            REPL_OP_SET => {
                let len = take_u32(&mut at)?;
                WriteOp::Set(decode_record(take(&mut at, len)?)?)
            }
            REPL_OP_SETF => {
                let field = take_u32(&mut at)?;
                let keylen = take_u32(&mut at)?;
                let key = String::from_utf8(take(&mut at, keylen)?.to_vec()).ok()?;
                let vlen = take_u32(&mut at)?;
                let value = take(&mut at, vlen)?.to_vec();
                WriteOp::SetField { key, field, value }
            }
            REPL_OP_DEL => {
                let keylen = take_u32(&mut at)?;
                WriteOp::Del(String::from_utf8(take(&mut at, keylen)?.to_vec()).ok()?)
            }
            _ => return None,
        };
        ops.push(op);
    }
    if at != body.len() {
        return None; // trailing garbage inside a framed body
    }
    Some(Request::ReplApply { seq, ops })
}

fn encode_repl_op(op: &WriteOp, out: &mut Vec<u8>) {
    match op {
        WriteOp::Set(rec) => {
            // The record goes straight into `out`; its length word is
            // patched behind it.
            out.push(REPL_OP_SET);
            let at = out.len();
            out.extend_from_slice(&[0; 4]);
            encode_record_into(rec, out);
            let len = (out.len() - at - 4) as u32;
            out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
        WriteOp::SetField { key, field, value } => {
            out.push(REPL_OP_SETF);
            out.extend_from_slice(&(*field as u32).to_le_bytes());
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        WriteOp::Del(key) => {
            out.push(REPL_OP_DEL);
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
        }
    }
}

/// What `REPL_APPLY` framing puts around one `SET` record: the body's
/// 12-byte `[seq][count]` header plus the op's tag byte and length word.
/// A client `SET` is accepted only up to [`MAX_FRAME`] minus this, so
/// every record the server takes fits a replication frame of its own (the
/// other ops are bounded far below by [`MAX_KEY`] and [`MAX_VALUE`]).
const REPL_SET_OVERHEAD: usize = 12 + 1 + 4;

/// Bytes [`encode_repl_op`] appends for `op`.
fn repl_op_len(op: &WriteOp) -> usize {
    match op {
        WriteOp::Set(rec) => 1 + 4 + encoded_len(rec),
        WriteOp::SetField { key, value, .. } => 1 + 4 + 4 + key.len() + 4 + value.len(),
        WriteOp::Del(key) => 1 + 4 + key.len(),
    }
}

/// Encode one commit group as `REPL_APPLY` frames, chunking so no frame
/// body exceeds [`MAX_FRAME`] — a group splits only *between* ops, which is
/// why [`parse_frame`] bounds what one op can be. Returns `(frame bytes,
/// seq)` pairs; `seq` values are allocated through `next_seq` in send
/// order, so the last pair's seq is the batch's ack target. Each frame is
/// sized before its ops are encoded into it: one allocation per frame.
pub fn encode_repl_apply(
    ops: &[WriteOp],
    mut next_seq: impl FnMut() -> u64,
) -> Vec<(Vec<u8>, u64)> {
    // Op bytes per frame, with generous headroom for the repl header. An
    // op larger than this travels alone, within `REPL_SET_OVERHEAD`'s bound.
    let budget = MAX_FRAME - 1024;
    let mut frames = Vec::new();
    let mut rest = ops;
    while !rest.is_empty() {
        let (mut count, mut op_bytes) = (0, 0);
        for op in rest {
            let len = repl_op_len(op);
            if count > 0 && op_bytes + len > budget {
                break;
            }
            count += 1;
            op_bytes += len;
        }
        let (chunk, tail) = rest.split_at(count);
        rest = tail;
        let seq = next_seq();
        let body = 12 + op_bytes;
        debug_assert!(body <= MAX_FRAME, "REPL_APPLY body over MAX_FRAME");
        let mut frame = Vec::with_capacity(6 + body);
        frame.push(MAGIC);
        frame.push(OP_REPL_APPLY);
        frame.extend_from_slice(&(body as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(count as u32).to_le_bytes());
        for op in chunk {
            encode_repl_op(op, &mut frame);
        }
        debug_assert_eq!(
            frame.len(),
            6 + body,
            "repl_op_len disagrees with encode_repl_op"
        );
        frames.push((frame, seq));
    }
    frames
}

/// Encode a request frame (client side).
///
/// # Panics
///
/// Panics on [`Request::Invalid`] — it exists only as a parse result.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let (op, body): (u8, Vec<u8>) = match req {
        Request::Get(key) => (OP_GET, key.as_bytes().to_vec()),
        Request::Set(rec) => (OP_SET, encode_record(rec)),
        Request::SetField { key, field, value } => {
            let mut b = Vec::with_capacity(8 + key.len() + value.len());
            b.extend_from_slice(&(*field as u32).to_le_bytes());
            b.extend_from_slice(&(key.len() as u32).to_le_bytes());
            b.extend_from_slice(key.as_bytes());
            b.extend_from_slice(value);
            (OP_SETF, b)
        }
        Request::Del(key) => (OP_DEL, key.as_bytes().to_vec()),
        Request::Len => (OP_LEN, Vec::new()),
        Request::Stats => (OP_STATS, Vec::new()),
        Request::Trace => (OP_TRACE, Vec::new()),
        Request::Metrics => (OP_METRICS, Vec::new()),
        Request::Shutdown => (OP_SHUTDOWN, Vec::new()),
        Request::ReplApply { seq, ops } => {
            let mut b = Vec::new();
            b.extend_from_slice(&seq.to_le_bytes());
            b.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                encode_repl_op(op, &mut b);
            }
            (OP_REPL_APPLY, b)
        }
        Request::Invalid(m) => panic!("cannot encode Invalid({m})"),
    };
    let mut out = Vec::with_capacity(6 + body.len());
    out.push(MAGIC);
    out.push(op);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// A decoded reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Write/shutdown acknowledged. For writes this means **durable**.
    Ok,
    /// GET/LEN/STATS payload.
    Value(Vec<u8>),
    /// GET/SETF/DEL target absent.
    NotFound,
    /// Request failed; the payload is a human-readable reason.
    Err(String),
    /// Replication link only: groups up to this sequence number are
    /// durable on the backup's device (cumulative).
    ReplAck(u64),
}

/// Encode a reply frame (server side).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::new();
    encode_reply_into(&mut out, reply);
    out
}

/// Append [`encode_reply`]'s bytes to `out`.
pub fn encode_reply_into(out: &mut Vec<u8>, reply: &Reply) {
    let seq_bytes;
    let (status, payload): (u8, &[u8]) = match reply {
        Reply::Ok => (ST_OK, &[]),
        Reply::Value(v) => (ST_VALUE, v),
        Reply::NotFound => (ST_NOT_FOUND, &[]),
        Reply::Err(m) => (ST_ERR, m.as_bytes()),
        Reply::ReplAck(seq) => {
            seq_bytes = seq.to_le_bytes();
            (ST_REPL_ACK, &seq_bytes)
        }
    };
    out.reserve(5 + payload.len());
    out.push(status);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Open a [`Reply::Value`] frame whose payload the caller appends in place.
/// Returns the mark [`close_value_reply`] needs (and a failed payload
/// truncates back to).
pub fn open_value_reply(out: &mut Vec<u8>) -> usize {
    let mark = out.len();
    out.extend_from_slice(&[ST_VALUE, 0, 0, 0, 0]);
    mark
}

/// Patch the length word of the frame opened at `mark`: the payload is in.
pub fn close_value_reply(out: &mut [u8], mark: usize) {
    let len = (out.len() - mark - 5) as u32;
    out[mark + 1..mark + 5].copy_from_slice(&len.to_le_bytes());
}

/// Why a reply stream stopped parsing. A server can feed a client
/// anything — torn frames after a crash, a proxy's HTML, line noise — so
/// the client-side parser reports *typed* errors the caller can match on
/// and fold into per-op outcomes, instead of a bare string begging for
/// `.unwrap()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The length word exceeds [`MAX_FRAME`]; the stream is hostile or
    /// desynchronized, nothing after this point can be framed.
    ReplyTooLarge {
        /// The claimed payload length.
        len: usize,
    },
    /// The status byte is none of the known reply codes.
    UnknownStatus(u8),
    /// The connect-time hello carried another protocol version (or no
    /// recognizable hello at all). Failing here is the point: a v1 peer
    /// must not get far enough to misframe a v2 stream.
    VersionMismatch {
        /// The version this side speaks ([`PROTO_VERSION`]).
        ours: u8,
        /// The version byte the peer sent.
        theirs: u8,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::ReplyTooLarge { len } => {
                write!(f, "reply too large ({len} B > {MAX_FRAME} B cap)")
            }
            ProtoError::UnknownStatus(s) => write!(f, "unknown reply status {s:#04x}"),
            ProtoError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak v{ours}, peer sent v{theirs}"
            ),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Try to parse one reply from the front of `buf` (client side). Returns
/// the reply and bytes consumed, `Ok(None)` when incomplete, `Err` when
/// the stream is unparseable from here on.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, ProtoError> {
    if buf.len() < 5 {
        return Ok(None);
    }
    // Status first: on a desynchronized stream the next four bytes are
    // not a length, and "unknown status" is the diagnosis that says so.
    let status = buf[0];
    if !matches!(
        status,
        ST_OK | ST_VALUE | ST_NOT_FOUND | ST_ERR | ST_REPL_ACK
    ) {
        return Err(ProtoError::UnknownStatus(status));
    }
    let len = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::ReplyTooLarge { len });
    }
    if buf.len() < 5 + len {
        return Ok(None);
    }
    let payload = buf[5..5 + len].to_vec();
    let reply = match status {
        ST_OK => Reply::Ok,
        ST_VALUE => Reply::Value(payload),
        ST_NOT_FOUND => Reply::NotFound,
        ST_ERR => Reply::Err(String::from_utf8_lossy(&payload).into_owned()),
        ST_REPL_ACK => {
            if payload.len() != 8 {
                return Err(ProtoError::UnknownStatus(status));
            }
            Reply::ReplAck(u64::from_le_bytes(
                payload[..8].try_into().expect("8 bytes"),
            ))
        }
        _ => unreachable!("status validated above"),
    };
    Ok(Some((reply, 5 + len)))
}

/// Read one reply off `stream`, buffering in `rbuf` across calls. `Ok(None)`
/// = the stream ended, failed, or stayed silent for 10 s; `Err` = the reply
/// stream is unparseable ([`ProtoError`]) — typed, so the caller can record
/// it instead of conflating it with silence.
pub fn read_reply(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> Result<Option<Reply>, ProtoError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut tmp = [0u8; 8 * 1024];
    loop {
        if let Some((reply, n)) = parse_reply(rbuf)? {
            rbuf.drain(..n);
            return Ok(Some(reply));
        }
        if Instant::now() > deadline {
            return Ok(None);
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(None),
            Ok(n) => rbuf.extend_from_slice(&tmp[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return Ok(None),
        }
    }
}

/// Perform the connect-time hello on `stream`: send ours, read the
/// peer's two bytes, validate. I/O failures surface as `io::Error`; a
/// well-delivered but mismatched hello is wrapped as
/// [`ProtoError::VersionMismatch`] inside an `InvalidData` error (the
/// typed value is recoverable via `downcast_ref::<ProtoError>()`).
pub fn handshake<S: std::io::Read + std::io::Write>(stream: &mut S) -> std::io::Result<()> {
    stream.write_all(&hello_frame())?;
    let mut theirs = [0u8; 2];
    stream.read_exact(&mut theirs)?;
    check_hello(theirs).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Pull a typed [`ProtoError`] back out of a [`handshake`] failure, if
/// the failure was protocol-level rather than I/O-level.
pub fn handshake_proto_error(e: &std::io::Error) -> Option<ProtoError> {
    e.get_ref()?.downcast_ref::<ProtoError>().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(req: &Request) -> Request {
        match parse_frame(&encode_request(req)) {
            ParseOutcome::Frame(r, n) => {
                assert_eq!(n, encode_request(req).len());
                r
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Get("k".into()),
            Request::Set(Record::ycsb("k", &[b"v".to_vec(), vec![]])),
            Request::SetField {
                key: "k".into(),
                field: 3,
                value: b"xyz".to_vec(),
            },
            Request::Del("k".into()),
            Request::Len,
            Request::Stats,
            Request::Trace,
            Request::Metrics,
            Request::Shutdown,
        ];
        for r in &reqs {
            assert_eq!(&frame(r), r);
        }
    }

    #[test]
    fn hello_round_trips_and_mismatches_are_typed() {
        assert_eq!(check_hello(hello_frame()), Ok(()));
        // A v1 peer: right magic, older version.
        assert_eq!(
            check_hello([MAGIC, 1]),
            Err(ProtoError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: 1
            })
        );
        // Not our protocol at all.
        assert!(check_hello([0x47, 0x45]).is_err()); // "GE" of "GET /"
        let msg = format!(
            "{}",
            ProtoError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: 1
            }
        );
        assert!(
            msg.contains(&format!("v{PROTO_VERSION}")) && msg.contains("v1"),
            "{msg}"
        );
        // The io::Error wrapper keeps the typed value recoverable.
        // Writing our hello advances the cursor by two; the peer's bytes
        // sit right behind it.
        let mut sock = std::io::Cursor::new(vec![0, 0, MAGIC, 1]);
        let err = handshake(&mut sock).unwrap_err();
        assert_eq!(
            handshake_proto_error(&err),
            Some(ProtoError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: 1
            })
        );
    }

    #[test]
    fn repl_apply_round_trips_through_the_chunker() {
        let ops = vec![
            WriteOp::Set(Record::ycsb("k1", &[b"v1".to_vec(), vec![0u8; 100]])),
            WriteOp::SetField {
                key: "k1".into(),
                field: 1,
                value: b"patched".to_vec(),
            },
            WriteOp::Del("k0".into()),
        ];
        let mut seq = 10u64;
        let frames = encode_repl_apply(&ops, || {
            seq += 1;
            seq
        });
        assert_eq!(frames.len(), 1, "small batch fits one frame");
        let (bytes, fseq) = &frames[0];
        assert_eq!(*fseq, 11);
        match parse_frame(bytes) {
            ParseOutcome::Frame(Request::ReplApply { seq, ops: back }, n) => {
                assert_eq!(seq, 11);
                assert_eq!(back, ops);
                assert_eq!(n, bytes.len());
            }
            other => panic!("expected ReplApply, got {other:?}"),
        }
    }

    #[test]
    fn oversized_groups_chunk_into_multiple_frames() {
        // ~40 ops x 48 KiB > MAX_FRAME: must split, preserving op order
        // and allocating monotone seqs.
        let ops: Vec<WriteOp> = (0..40)
            .map(|i| WriteOp::Set(Record::ycsb(&format!("k{i}"), &[vec![i as u8; 48 << 10]])))
            .collect();
        let mut next = 0u64;
        let frames = encode_repl_apply(&ops, || {
            next += 1;
            next
        });
        assert!(frames.len() > 1, "oversized batch must chunk");
        let mut all: Vec<WriteOp> = Vec::new();
        let mut last_seq = 0;
        for (bytes, seq) in &frames {
            assert!(bytes.len() <= 6 + MAX_FRAME);
            assert!(*seq > last_seq, "seqs must be monotone");
            last_seq = *seq;
            match parse_frame(bytes) {
                ParseOutcome::Frame(Request::ReplApply { ops, .. }, _) => all.extend(ops),
                other => panic!("chunk did not parse: {other:?}"),
            }
        }
        assert_eq!(all, ops, "chunking must preserve the op stream");
    }

    #[test]
    fn repl_body_garbage_is_frame_level() {
        // Truncated repl body: claims 3 ops, carries none.
        let mut body = Vec::new();
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&3u32.to_le_bytes());
        let mut f = vec![MAGIC, 8];
        f.extend_from_slice(&(body.len() as u32).to_le_bytes());
        f.extend_from_slice(&body);
        assert!(matches!(
            parse_frame(&f),
            ParseOutcome::Malformed("repl body does not decode")
        ));
    }

    #[test]
    fn reply_round_trips() {
        for r in [
            Reply::Ok,
            Reply::Value(b"abc".to_vec()),
            Reply::NotFound,
            Reply::Err("nope".into()),
            Reply::ReplAck(0xdead_beef_0042),
        ] {
            let bytes = encode_reply(&r);
            let (back, n) = parse_reply(&bytes).unwrap().unwrap();
            assert_eq!(back, r);
            assert_eq!(n, bytes.len());
        }
    }

    /// Wire compatibility of the in-place writers: for every variant
    /// `encode_reply_into` appends exactly `encode_reply`'s bytes (behind
    /// whatever the buffer already held), and a `Value` built with the
    /// open/close pair is the frame `encode_reply` builds from the payload.
    #[test]
    fn in_place_writers_match_encode_reply() {
        let replies = [
            Reply::Ok,
            Reply::Value(Vec::new()),
            Reply::Value(vec![7u8; 1300]),
            Reply::NotFound,
            Reply::Err("nope".into()),
            Reply::ReplAck(0xdead_beef_0042),
        ];
        let mut out = b"earlier".to_vec();
        let mut want = out.clone();
        for r in &replies {
            encode_reply_into(&mut out, r);
            want.extend(encode_reply(r));
            assert_eq!(out, want, "{r:?}");
            if let Reply::Value(payload) = r {
                let mark = open_value_reply(&mut out);
                out.extend_from_slice(payload);
                close_value_reply(&mut out, mark);
                want.extend(encode_reply(r));
                assert_eq!(out, want, "open/close of {} B", payload.len());
            }
        }
    }

    #[test]
    fn garbage_replies_are_typed_errors_not_panics() {
        // A STATS request answered with line noise: the status byte is no
        // reply code. Pre-ProtoError this path only surfaced as a
        // `&'static str` that call sites unwrapped.
        let garbage = b"HTTP/1.1 200 OK\r\n\r\nuptime=9";
        assert_eq!(parse_reply(garbage), Err(ProtoError::UnknownStatus(b'H')));
        // A plausible status byte but an absurd length word: typed, and
        // carries the claimed length for the caller's diagnostics.
        let mut huge = vec![ST_VALUE];
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            parse_reply(&huge),
            Err(ProtoError::ReplyTooLarge {
                len: u32::MAX as usize
            })
        );
        // Both render a human-readable reason.
        assert!(format!("{}", ProtoError::UnknownStatus(b'H')).contains("0x48"));
        assert!(format!("{}", ProtoError::ReplyTooLarge { len: 7 }).contains("7 B"));
        // Truncated-but-sane prefixes stay Incomplete, never errors.
        for cut in 0..5 {
            assert_eq!(parse_reply(&huge[..cut]), Ok(None));
        }
    }

    #[test]
    fn pipelined_frames_parse_in_sequence() {
        let mut buf = encode_request(&Request::Get("a".into()));
        buf.extend(encode_request(&Request::Del("b".into())));
        let ParseOutcome::Frame(r1, n1) = parse_frame(&buf) else {
            panic!()
        };
        assert_eq!(r1, Request::Get("a".into()));
        let ParseOutcome::Frame(r2, n2) = parse_frame(&buf[n1..]) else {
            panic!()
        };
        assert_eq!(r2, Request::Del("b".into()));
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn truncation_is_incomplete_not_malformed() {
        let bytes = encode_request(&Request::Set(Record::ycsb("k", &[vec![9u8; 40]])));
        for cut in 0..bytes.len() {
            match parse_frame(&bytes[..cut]) {
                ParseOutcome::Incomplete => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn frame_level_garbage_is_malformed() {
        assert!(matches!(
            parse_frame(b"\x00rubbish"),
            ParseOutcome::Malformed("bad magic")
        ));
        assert!(matches!(
            parse_frame(&[MAGIC, 99, 0, 0, 0, 0]),
            ParseOutcome::Malformed("unknown op")
        ));
        let mut huge = vec![MAGIC, OP_GET];
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            parse_frame(&huge),
            ParseOutcome::Malformed("frame too large")
        ));
    }

    #[test]
    fn body_level_violations_are_invalid_not_malformed() {
        // Oversized value inside a well-delimited SET frame.
        let rec = Record::ycsb("k", &[vec![0u8; MAX_VALUE + 1]]);
        let bytes = encode_request(&Request::Set(rec));
        assert!(matches!(
            parse_frame(&bytes),
            ParseOutcome::Frame(Request::Invalid("value too large"), _)
        ));
        // SETF key length overrunning the body.
        let mut body = Vec::new();
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&1000u32.to_le_bytes());
        body.extend_from_slice(b"shortkey");
        let mut f = vec![MAGIC, OP_SETF];
        f.extend_from_slice(&(body.len() as u32).to_le_bytes());
        f.extend_from_slice(&body);
        assert!(matches!(
            parse_frame(&f),
            ParseOutcome::Frame(Request::Invalid("setf key overruns body"), _)
        ));
    }
}
