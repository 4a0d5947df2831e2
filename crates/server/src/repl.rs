//! The backup side of `jnvm-repl`: an in-process endpoint that owns a
//! backup replica's stack and applies streamed commit groups.
//!
//! The committer is the only peer: it connects once over loopback, the
//! two sides exchange the protocol hello, and from then on the link
//! carries only `REPL_APPLY` frames downstream and `REPL_ACK` replies
//! upstream. The endpoint applies each group with its *own*
//! [`commit_writes`] pass — its own 4 fences (the applies are durable
//! before the log retires), on its own thread, against
//! its own device (persistence domains are per thread, so the backup's
//! durability point belongs to this thread's fences) — and acks the
//! group's sequence number only after that call returns. An ack therefore
//! means *durable on the backup*, which is exactly what the committer
//! needs before releasing client replies.
//!
//! Exit conditions, all silent closes of the link:
//!
//! * **EOF** — the committer dropped its end (orderly shutdown, or a
//!   promotion quiescing the link). TCP delivers everything written
//!   before the close, so by the time `read` returns 0 every streamed
//!   group has been applied: the promoted backup is a superset-prefix of
//!   the crashed primary. The committer *joins* this thread before
//!   committing on the backup itself, which is what makes the handoff an
//!   exclusive-writer handoff rather than a race.
//! * **injected crash** — the backup's device froze mid-apply. The
//!   endpoint stops acking and closes; the committer sees the dead link,
//!   degrades to solo mode and keeps acking off the primary alone.
//! * **malformed frame / non-REPL frame** — the link is corrupt; close.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jnvm_kvstore::{commit_writes, DataGrid, JnvmBackend};
use jnvm_pmem::catch_crash;

use crate::proto::{encode_reply, handshake, parse_frame, ParseOutcome, Reply, Request};

/// Spawn the backup endpoint for one shard's backup replica and connect
/// the committer-side link to it. Returns the link (hello already
/// exchanged) and the endpoint thread's handle; the committer must join
/// the handle after closing the link and before writing to the backup
/// stack itself.
pub(crate) fn start_backup_endpoint(
    grid: Arc<DataGrid>,
    be: Arc<JnvmBackend>,
) -> std::io::Result<(TcpStream, JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let _ = conn.set_nodelay(true);
        // Blocking reads: the endpoint's only wake-up signals are frames
        // and the committer closing the link, both of which unblock read.
        if handshake(&mut conn).is_err() {
            return;
        }
        endpoint_loop(&mut conn, &grid, &be);
    });
    let mut link = TcpStream::connect(addr)?;
    link.set_nodelay(true)?;
    link.set_read_timeout(Some(Duration::from_secs(10)))?;
    if let Err(e) = handshake(&mut link) {
        let _ = handle.join();
        return Err(e);
    }
    Ok((link, handle))
}

fn endpoint_loop(conn: &mut TcpStream, grid: &DataGrid, be: &JnvmBackend) {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 64 * 1024];
    loop {
        let mut consumed = 0;
        loop {
            let (req, n) = match parse_frame(&buf[consumed..]) {
                ParseOutcome::Incomplete => break,
                ParseOutcome::Malformed(_) => return,
                ParseOutcome::Frame(req, n) => (req, n),
            };
            consumed += n;
            let Request::ReplApply { seq, ops } = req else {
                // Only replication traffic belongs on this link.
                return;
            };
            match catch_crash(|| commit_writes(grid, be, &ops)) {
                Ok(_) => {
                    // The group is durable on the backup's device: ack it.
                    if conn.write_all(&encode_reply(&Reply::ReplAck(seq))).is_err() {
                        return;
                    }
                }
                // Injected crash on the backup's device: never ack again,
                // never touch the frozen device again. The closed link is
                // the committer's degrade signal.
                Err(_) => return,
            }
        }
        buf.drain(..consumed);
        match conn.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}
